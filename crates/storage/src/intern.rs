//! Value interning: the dictionary-encoded execution substrate.
//!
//! A [`ValueInterner`] maps every distinct [`Value`] of a database to a
//! dense `u32` [`Vid`]. Downstream, the engine's scans, joins, projections
//! and semi-join reductions — and the lineage join, which is the engine's
//! join — run entirely on `Vid` columns, compared as integers or packed
//! into one `u128` key ([`pack_vids`]): value equality becomes integer
//! equality, and no `Value` (in particular no `Arc<str>`) is cloned on the
//! hot path. Encoded rows are decoded back to [`Value`]s exactly once, at
//! the answer-set boundary.
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

/// Dense id of an interned [`Value`], unique within one [`ValueInterner`].
pub type Vid = u32;

/// Pack up to four [`Vid`]s into one `u128` sort/join key, 32 bits each,
/// first vid most significant.
///
/// As long as every row packs the same number of vids, packed keys compare
/// exactly like the vid tuples — the shared encoding behind the engine's
/// sort-merge operators (the lineage join among them) and the semi-join
/// reducer.
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
