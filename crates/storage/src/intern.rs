//! Value interning: the dictionary-encoded execution substrate.
//!
//! A [`ValueInterner`] maps every distinct [`Value`] of a database to a
//! dense `u32` [`Vid`]. Downstream, the engine's scans, joins, projections
//! and semi-join reductions run entirely on `Vid`s packed into [`RowKey`]s:
//! value equality becomes integer equality, hashing is integer-only, and no
//! `Value` (in particular no `Arc<str>`) is cloned on the hot path. Encoded
//! rows are decoded back to [`Value`]s exactly once, at the answer-set
//! boundary.
//!
//! Two invariants make the encoding sound:
//!
//! * **Injectivity** — distinct values get distinct ids and vice versa, so
//!   every equality test (join keys, duplicate elimination, semi-join
//!   membership) can compare ids instead of values.
//! * **Stability** — ids are never reused or remapped; an interner only
//!   grows. A `Vid` held by an intermediate result stays valid for the
//!   lifetime of the interner.
//!
//! Order comparisons and pattern predicates (`<`, `LIKE`, …) are *not*
//! id-representable — ids are assigned in first-seen order, not value
//! order — so selection predicates are evaluated on the stored [`Value`]s
//! at scan time, before rows are encoded into the pipeline.

use crate::fxhash::FxHashMap;
use crate::value::Value;
use std::fmt;

/// Dense id of an interned [`Value`], unique within one [`ValueInterner`].
pub type Vid = u32;

/// Pack up to four [`Vid`]s into one `u128` sort/join key, 32 bits each,
/// first vid most significant.
///
/// As long as every row packs the same number of vids, packed keys compare
/// exactly like the vid tuples — the shared encoding behind the engine's
/// sort-merge operators, the semi-join reducer, and the lineage joins.
///
/// # Panics
/// Debug-asserts at most four vids (more would overflow the 128 bits).
#[inline]
pub fn pack_vids(vids: impl Iterator<Item = Vid>) -> u128 {
    let mut key = 0u128;
    let mut n = 0;
    for v in vids {
        key = (key << 32) | v as u128;
        n += 1;
    }
    debug_assert!(n <= 4, "a u128 key holds at most four vids");
    key
}

/// Bidirectional dictionary between [`Value`]s and dense [`Vid`]s.
#[derive(Debug, Clone, Default)]
pub struct ValueInterner {
    by_value: FxHashMap<Value, Vid>,
    values: Vec<Value>,
}

impl ValueInterner {
    /// An empty interner.
    pub fn new() -> Self {
        ValueInterner::default()
    }

    /// Id of `v`, interning it first if unseen. Clones `v` only on first
    /// sight.
    pub fn intern(&mut self, v: &Value) -> Vid {
        if let Some(&vid) = self.by_value.get(v) {
            return vid;
        }
        let vid = Vid::try_from(self.values.len()).expect("more than u32::MAX distinct values");
        self.by_value.insert(v.clone(), vid);
        self.values.push(v.clone());
        vid
    }

    /// Id of `v`, if it has been interned.
    pub fn lookup(&self, v: &Value) -> Option<Vid> {
        self.by_value.get(v).copied()
    }

    /// The value behind an id.
    ///
    /// # Panics
    /// If `vid` was not produced by this interner.
    pub fn resolve(&self, vid: Vid) -> &Value {
        &self.values[vid as usize]
    }

    /// Number of distinct interned values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Inline capacity of [`RowKey`]. Arity ≤ 3 covers every post-projection
/// intermediate of the paper's chain/star/TPC-H workloads, so those rows
/// never touch the heap; wider rows (e.g. the flat deterministic-SQL join)
/// spill to one boxed slice.
const INLINE: usize = 3;

/// An encoded row: a short, immutable sequence of [`Vid`]s.
///
/// Equality and hashing are over the logical `Vid` slice (see
/// [`RowKey::as_slice`]), independent of whether the key is stored inline
/// or spilled, so a `RowKey` is a drop-in hash-map key for the engine's
/// joins and group-bys.
#[derive(Clone)]
pub struct RowKey {
    len: u32,
    inline: [Vid; INLINE],
    /// `Some` iff `len > INLINE`; then it holds *all* vids.
    spill: Option<Box<[Vid]>>,
}

impl RowKey {
    /// The empty row (arity 0 — Boolean answers).
    pub fn empty() -> Self {
        RowKey {
            len: 0,
            inline: [0; INLINE],
            spill: None,
        }
    }

    /// Build from a slice of vids.
    #[cfg(test)]
    pub fn from_slice(vids: &[Vid]) -> Self {
        Self::from_fn(vids.len(), |i| vids[i])
    }

    /// Build a key of `len` vids, the `i`-th produced by `f(i)`.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> Vid) -> Self {
        if len <= INLINE {
            let mut inline = [0; INLINE];
            for (i, slot) in inline[..len].iter_mut().enumerate() {
                *slot = f(i);
            }
            RowKey {
                len: len as u32,
                inline,
                spill: None,
            }
        } else {
            let spill: Box<[Vid]> = (0..len).map(f).collect();
            RowKey {
                len: len as u32,
                inline: [0; INLINE],
                spill: Some(spill),
            }
        }
    }

    /// The vids, in column order.
    pub fn as_slice(&self) -> &[Vid] {
        match &self.spill {
            Some(s) => s,
            None => &self.inline[..self.len as usize],
        }
    }

    /// Vid at column `i`.
    pub fn get(&self, i: usize) -> Vid {
        self.as_slice()[i]
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True for the empty row.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate the vids.
    pub fn iter(&self) -> impl Iterator<Item = Vid> + '_ {
        self.as_slice().iter().copied()
    }
}

impl FromIterator<Vid> for RowKey {
    fn from_iter<I: IntoIterator<Item = Vid>>(iter: I) -> Self {
        let mut it = iter.into_iter();
        let mut inline = [0; INLINE];
        let mut len = 0usize;
        for slot in &mut inline {
            match it.next() {
                Some(v) => {
                    *slot = v;
                    len += 1;
                }
                None => {
                    return RowKey {
                        len: len as u32,
                        inline,
                        spill: None,
                    }
                }
            }
        }
        match it.next() {
            None => RowKey {
                len: INLINE as u32,
                inline,
                spill: None,
            },
            Some(next) => {
                let mut spill: Vec<Vid> = Vec::with_capacity(INLINE + 1 + it.size_hint().0);
                spill.extend_from_slice(&inline);
                spill.push(next);
                spill.extend(it);
                RowKey {
                    len: spill.len() as u32,
                    inline,
                    spill: Some(spill.into_boxed_slice()),
                }
            }
        }
    }
}

impl PartialEq for RowKey {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for RowKey {}

/// Lexicographic order over the logical vid slice, matching the canonical
/// row order of the engine's columnar relations. Like `Eq`/`Hash`, the
/// order is representation-independent (inline vs spilled keys compare
/// equal when their slices do), so sorted `RowKey` sequences can be merged
/// and binary-searched — the wide-key fallback of the engine's sort-merge
/// operators and the semi-join reducer rely on this.
impl PartialOrd for RowKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RowKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl std::hash::Hash for RowKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for RowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    #[test]
    fn intern_is_injective_and_stable() {
        let mut i = ValueInterner::new();
        let a = i.intern(&Value::Int(1));
        let b = i.intern(&Value::str("one"));
        let a2 = i.intern(&Value::Int(1));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.len(), 2);
        assert_eq!(i.resolve(a), &Value::Int(1));
        assert_eq!(i.resolve(b), &Value::str("one"));
    }

    #[test]
    fn lookup_misses_unseen_values() {
        let mut i = ValueInterner::new();
        i.intern(&Value::Int(1));
        assert_eq!(i.lookup(&Value::Int(1)), Some(0));
        assert_eq!(i.lookup(&Value::Int(2)), None);
    }

    #[test]
    fn int_and_str_never_collide() {
        let mut i = ValueInterner::new();
        let a = i.intern(&Value::Int(5));
        let b = i.intern(&Value::str("5"));
        assert_ne!(a, b);
    }

    #[test]
    fn rowkey_inline_and_spilled_agree() {
        for len in 0..=6usize {
            let vids: Vec<Vid> = (0..len as Vid).collect();
            let a = RowKey::from_slice(&vids);
            let b: RowKey = vids.iter().copied().collect();
            let c = RowKey::from_fn(len, |i| vids[i]);
            assert_eq!(a, b);
            assert_eq!(a, c);
            assert_eq!(a.as_slice(), &vids[..]);
            assert_eq!(a.len(), len);
            for (i, &v) in vids.iter().enumerate() {
                assert_eq!(a.get(i), v);
            }
        }
    }

    #[test]
    fn rowkey_hash_matches_across_representations() {
        // Same logical key via from_slice, from_fn and collect must hash
        // identically (they may differ in internal representation only at
        // the inline/spill boundary, which as_slice hides).
        let vids: Vec<Vid> = vec![7, 8, 9, 10];
        let hash = |k: &RowKey| {
            let mut h = DefaultHasher::new();
            k.hash(&mut h);
            h.finish()
        };
        let a = RowKey::from_slice(&vids);
        let b: RowKey = vids.iter().copied().collect();
        assert_eq!(hash(&a), hash(&b));
        assert_eq!(a, b);
    }

    #[test]
    fn rowkey_inequality_by_content_and_length() {
        assert_ne!(RowKey::from_slice(&[1, 2]), RowKey::from_slice(&[1, 3]));
        assert_ne!(RowKey::from_slice(&[1, 2]), RowKey::from_slice(&[1, 2, 0]));
        assert_eq!(RowKey::empty(), RowKey::from_slice(&[]));
        assert!(RowKey::empty().is_empty());
    }

    #[test]
    fn rowkey_order_is_lexicographic_across_representations() {
        // Inline (≤ 3) and spilled (> 3) keys share one total order.
        let mut keys = [
            RowKey::from_slice(&[2]),
            RowKey::from_slice(&[1, 9]),
            RowKey::from_slice(&[1, 2, 3, 4]),
            RowKey::from_slice(&[1, 2, 3]),
            RowKey::empty(),
            RowKey::from_slice(&[1]),
        ];
        keys.sort();
        let slices: Vec<&[Vid]> = keys.iter().map(RowKey::as_slice).collect();
        assert_eq!(
            slices,
            vec![
                &[][..],
                &[1][..],
                &[1, 2, 3][..],
                &[1, 2, 3, 4][..],
                &[1, 9][..],
                &[2][..],
            ]
        );
        // Prefix sorts before its extension; binary search agrees.
        assert!(keys.binary_search(&RowKey::from_slice(&[1, 2, 3])).is_ok());
        assert!(keys.binary_search(&RowKey::from_slice(&[1, 5])).is_err());
    }

    #[test]
    fn rowkey_iter_round_trips() {
        let k = RowKey::from_slice(&[3, 1, 4, 1, 5]);
        let back: RowKey = k.iter().collect();
        assert_eq!(k, back);
        assert_eq!(k.iter().collect::<Vec<_>>(), vec![3, 1, 4, 1, 5]);
    }
}
