//! Key kernels: the inner loops of the columnar sort-merge core, one safe
//! loop per shape.
//!
//! Every hot inner loop of [`crate::rel`] that streams over whole columns
//! or packed-key buffers lives here:
//!
//! * [`pack_keys`] / [`pack_rekey`] — build the `(u128, u32)` packed-key
//!   buffer ([`Key`]) by streaming whole columns, width-specialized for
//!   1–4 key columns (no per-row iteration over a column *list*);
//! * [`sort_keys`] — the one sort of a packed-key buffer: a stable radix
//!   sort over the bytes of the keys that vary, comparison-sorting only
//!   below [`RADIX_CUTOFF`] entries;
//! * [`run_end`] — find the end of a run of equal packed keys;
//! * [`gather_u32`] — apply a row permutation to a `Vid` column
//!   (the payload gather of a permutation sort);
//! * [`gallop_ge`] — galloping (exponential + binary) advance to the
//!   first key ≥ a target, the blocked skip of the merge-join loop;
//! * [`fold_or`] / [`fold_max`] — the independent-OR score fold
//!   `1 − ∏(1 − pᵢ)` (and the max fold) over one group's operands.
//!
//! # Why these shapes
//!
//! Up to four 32-bit vids pack into one `u128`, so run detection and
//! merge-join comparison on the common key widths are single integer
//! compares instead of per-column walks; wider keys recurse on the tail
//! columns (see `crate::rel`). A sort entry is 32 bytes, but a key of dense
//! dictionary ids varies in only a few of its sixteen bytes, so a radix
//! sort that skips the constant bytes moves each entry a few times instead
//! of comparing it `log n` times. Galloping makes a merge-join skip cost
//! `O(log gap)` instead of one compare per skipped key.
//!
//! # Determinism
//!
//! The integer kernels are exact by construction. [`fold_or`] is
//! **order-free**: float multiplication is not associative, so it fixes
//! the order itself instead of taking the order its operands arrive in —
//! a group of three or more multiplies its factors in ascending score
//! order, one left-associated chain, never regrouped. A group's score is
//! therefore a function of its operand *set*: not of the thread count,
//! not of the sorted-vid order (which follows the order values were
//! first seen), and not of where an incremental refold found the
//! operands.

use lapush_storage::Vid;

/// One `(packed key, row index)` sort entry.
///
/// The derived ordering is lexicographic `(k, row)` — a total order,
/// which is what makes every sort in [`crate::rel`]
/// thread-count-independent. Every buffer of them is sorted by
/// [`sort_keys`], which takes its entries in ascending `row` order (every
/// builder numbers rows upwards) and sorts stably by `k`: ties on `k` then
/// stay in row order, so the stable sort is the derived order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    /// Up to four vid columns packed 32 bits each, first column most
    /// significant (shared encoding: [`lapush_storage::pack_vids`]).
    pub k: u128,
    /// Row index the key was packed from.
    pub row: u32,
}

// ---------------------------------------------------------------------------
// pack: build packed-key buffers by streaming whole columns
// ---------------------------------------------------------------------------

/// Pack the key columns of rows `lo..hi` into `out` (`out.len() ==
/// hi - lo`): `out[i] = (packed key of row lo + i, lo + i)`. `cols` are
/// the **already-sliced** key columns for this packing depth — at most
/// four (wider keys recurse; see `crate::rel`). Zero columns pack to
/// key 0 (the Boolean-projection case).
///
/// One loop per key *width*, streaming each column as a
/// bounds-check-free slice, instead of a per-row walk over a column
/// list.
pub fn pack_keys(cols: &[&[Vid]], lo: u32, hi: u32, out: &mut [Key]) {
    debug_assert!(cols.len() <= 4, "a u128 key holds at most four vids");
    debug_assert_eq!(out.len(), (hi - lo) as usize);
    let (l, h) = (lo as usize, hi as usize);
    match cols {
        [] => {
            for (slot, row) in out.iter_mut().zip(lo..hi) {
                *slot = Key { k: 0, row };
            }
        }
        [c0] => {
            for ((slot, &a), row) in out.iter_mut().zip(&c0[l..h]).zip(lo..) {
                *slot = Key { k: a as u128, row };
            }
        }
        [c0, c1] => {
            for (((slot, &a), &b), row) in out.iter_mut().zip(&c0[l..h]).zip(&c1[l..h]).zip(lo..) {
                *slot = Key {
                    k: ((a as u128) << 32) | b as u128,
                    row,
                };
            }
        }
        [c0, c1, c2] => {
            for ((((slot, &a), &b), &c), row) in out
                .iter_mut()
                .zip(&c0[l..h])
                .zip(&c1[l..h])
                .zip(&c2[l..h])
                .zip(lo..)
            {
                *slot = Key {
                    k: ((a as u128) << 64) | ((b as u128) << 32) | c as u128,
                    row,
                };
            }
        }
        [c0, c1, c2, c3] => {
            for (((((slot, &a), &b), &c), &d), row) in out
                .iter_mut()
                .zip(&c0[l..h])
                .zip(&c1[l..h])
                .zip(&c2[l..h])
                .zip(&c3[l..h])
                .zip(lo..)
            {
                *slot = Key {
                    k: ((a as u128) << 96) | ((b as u128) << 64) | ((c as u128) << 32) | d as u128,
                    row,
                };
            }
        }
        _ => unreachable!("pack_keys called with more than four columns"),
    }
}

/// Re-pack existing sort entries at a deeper key offset: for each entry
/// of `src` (in order), append `(pack of src[i].row over cols, src[i].row)`
/// to `out`. `cols` are the already-sliced columns of the deeper level,
/// at most four. This is the tie-resolution kernel: the rows are a
/// permutation, so the column reads are gathers, but the key composition
/// is the same width-specialized shift/or chain as [`pack_keys`].
pub fn pack_rekey(cols: &[&[Vid]], src: &[Key], out: &mut Vec<Key>) {
    debug_assert!(cols.len() <= 4, "a u128 key holds at most four vids");
    out.clear();
    out.reserve(src.len());
    match cols {
        [] => out.extend(src.iter().map(|e| Key { k: 0, row: e.row })),
        [c0] => out.extend(src.iter().map(|e| Key {
            k: c0[e.row as usize] as u128,
            row: e.row,
        })),
        [c0, c1] => out.extend(src.iter().map(|e| {
            let r = e.row as usize;
            Key {
                k: ((c0[r] as u128) << 32) | c1[r] as u128,
                row: e.row,
            }
        })),
        [c0, c1, c2] => out.extend(src.iter().map(|e| {
            let r = e.row as usize;
            Key {
                k: ((c0[r] as u128) << 64) | ((c1[r] as u128) << 32) | c2[r] as u128,
                row: e.row,
            }
        })),
        [c0, c1, c2, c3] => out.extend(src.iter().map(|e| {
            let r = e.row as usize;
            Key {
                k: ((c0[r] as u128) << 96)
                    | ((c1[r] as u128) << 64)
                    | ((c2[r] as u128) << 32)
                    | c3[r] as u128,
                row: e.row,
            }
        })),
        _ => unreachable!("pack_rekey called with more than four columns"),
    }
}

// ---------------------------------------------------------------------------
// sort
// ---------------------------------------------------------------------------

/// Buffers shorter than this sort by comparison in [`sort_keys`]: the
/// radix sort's fixed costs — a pass to find the varying bytes, sixteen
/// 256-bucket histograms to clear, a scatter buffer to fill — are not
/// repaid by a few hundred entries. The nodes of a large plan set (the
/// repo benchmark's `plans-wide`: at most 100 rows each) stay on
/// `sort_unstable`.
pub const RADIX_CUTOFF: usize = 256;

/// Sort `keys` into the derived [`Key`] order, `(k, row)`. Every caller
/// hands the entries over in ascending `row` order — [`pack_keys`] numbers
/// rows upwards, the join kernel numbers pairs as it emits them,
/// [`pack_rekey`] keeps the order of a sorted run — so a **stable** sort by
/// `k` alone yields that order, and that is what runs from
/// [`RADIX_CUTOFF`] entries up: a least-significant-digit radix sort over
/// only the bytes of `k` that vary. One pass finds them (the bits where
/// some two keys differ), one builds their histograms, and one stable
/// scatter per varying byte ping-pongs between `keys` and `spare`. Dense
/// dictionary ids vary in the low bytes of each 32-bit column only: a key
/// of three ids under 2²⁴ takes at most nine passes, not sixteen.
///
/// `spare` is caller-owned scatter space, so a sort allocates nothing in
/// steady state: it is overwritten, and the two buffers may trade
/// allocations.
pub fn sort_keys(keys: &mut Vec<Key>, spare: &mut Vec<Key>) {
    debug_assert!(
        keys.windows(2).all(|w| w[0].row < w[1].row),
        "sort_keys takes its entries in ascending row order"
    );
    let n = keys.len();
    if n < RADIX_CUTOFF {
        keys.sort_unstable();
        return;
    }
    let (any, all) = (keys.iter()).fold((0u128, !0u128), |(any, all), e| (any | e.k, all & e.k));
    let varying = any ^ all;
    let mut digits = [0usize; 16];
    let mut passes = 0;
    for (byte, &b) in varying.to_le_bytes().iter().enumerate() {
        if b != 0 {
            digits[passes] = byte;
            passes += 1;
        }
    }
    let digits = &digits[..passes];
    let mut counts = [[0u32; 256]; 16];
    for e in keys.iter() {
        let bytes = e.k.to_le_bytes();
        for (count, &d) in counts.iter_mut().zip(digits) {
            count[bytes[d] as usize] += 1;
        }
    }
    spare.clear();
    spare.resize(n, Key { k: 0, row: 0 });
    for (count, &d) in counts.iter_mut().zip(digits) {
        let mut at = 0u32;
        for slot in count.iter_mut() {
            (*slot, at) = (at, at + *slot);
        }
        for e in keys.iter() {
            let slot = &mut count[e.k.to_le_bytes()[d] as usize];
            spare[*slot as usize] = *e;
            *slot += 1;
        }
        std::mem::swap(keys, spare);
    }
}

// ---------------------------------------------------------------------------
// run detection
// ---------------------------------------------------------------------------

/// End of the run of entries whose packed key equals `keys[start].k`:
/// the smallest `end > start` with `keys[end].k != keys[start].k` (or
/// `keys.len()`). Returns `keys.len()` when `start >= keys.len()`.
///
/// Shared by grouped projections, duplicate elimination, and merge-join
/// block enumeration. Callers with keys wider than four columns must
/// additionally split the returned run on the unpacked tail columns (see
/// `crate::rel`).
#[inline]
pub fn run_end(keys: &[Key], start: usize) -> usize {
    let n = keys.len();
    if start >= n {
        return n;
    }
    let base = keys[start].k;
    let mut end = start + 1;
    while end < n && keys[end].k == base {
        end += 1;
    }
    end
}

// ---------------------------------------------------------------------------
// gather
// ---------------------------------------------------------------------------

/// Apply a row permutation/selection to one column: `out[i] =
/// src[idx[i]]`. `out` is cleared and refilled. Panics when an index is
/// out of bounds.
pub fn gather_u32(src: &[Vid], idx: &[u32], out: &mut Vec<Vid>) {
    out.clear();
    out.extend(idx.iter().map(|&r| src[r as usize]));
}

// ---------------------------------------------------------------------------
// galloping advance
// ---------------------------------------------------------------------------

/// First index `>= start` whose packed key is `>= target`, in a sequence
/// of `n` packed keys sorted ascending and read through `key_at` (the
/// engine's joins gallop over key orders whose packed keys are computed
/// on demand instead of stored): the blocked/galloping skip of the
/// merge-join outer loop. Exponential probe doubles the step until it
/// overshoots, then a binary search pins the boundary — `O(log gap)`
/// instead of one comparison per skipped key. The result equals the
/// linear scan's by sortedness.
#[inline]
pub fn gallop_ge(n: usize, start: usize, target: u128, key_at: impl Fn(usize) -> u128) -> usize {
    if start >= n || key_at(start) >= target {
        return start;
    }
    // Invariant: key_at(lo) < target; hi is the first candidate bound.
    let mut lo = start;
    let mut step = 1usize;
    let mut hi = loop {
        let probe = lo + step;
        if probe >= n {
            break n;
        }
        if key_at(probe) >= target {
            break probe;
        }
        lo = probe;
        step <<= 1;
    };
    // Binary search in (lo, hi]: smallest index with key >= target.
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if key_at(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

// ---------------------------------------------------------------------------
// score folds
// ---------------------------------------------------------------------------

/// Runs up to this long sort on the stack; longer ones in [`LONG_RUN`].
const SHORT_RUN: usize = 32;

std::thread_local! {
    static LONG_RUN: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Independent-OR fold over one group's scores: `1 − ∏ᵢ (1 − pᵢ)`, in the
/// one order that does not depend on the order the scores arrive in. A
/// group of three or more sorts its scores ascending (`f64::total_cmp`:
/// scores are non-negative, so bit order is value order), then multiplies
/// `((1·(1−p₍₀₎))·(1−p₍₁₎))·…` left to right. One or two operands need no
/// sort: `(1 − a)(1 − b)` is bitwise symmetric. The empty group folds
/// to 0.
pub fn fold_or<I>(scores: I) -> f64
where
    I: IntoIterator<Item = f64>,
    I::IntoIter: ExactSizeIterator,
{
    let chain = |not_any: f64, p: f64| not_any * (1.0 - p);
    let product = |ps: &mut [f64]| {
        ps.sort_unstable_by(f64::total_cmp);
        ps.iter().copied().fold(1.0, chain)
    };
    let scores = scores.into_iter();
    let n = scores.len();
    let not_any = if n <= 2 {
        scores.fold(1.0, chain)
    } else if n <= SHORT_RUN {
        let mut buf = [0.0f64; SHORT_RUN];
        for (slot, p) in buf.iter_mut().zip(scores) {
            *slot = p;
        }
        product(&mut buf[..n])
    } else {
        LONG_RUN.with_borrow_mut(|buf| {
            buf.clear();
            buf.extend(scores);
            product(buf)
        })
    };
    1.0 - not_any
}

/// Max-score fold over one run: `maxᵢ scores[keys[i].row]`
/// (`NEG_INFINITY` for an empty run). Max is order-independent (scores
/// are probabilities — no NaN, and equal values are interchangeable).
#[inline]
pub fn fold_max(scores: &[f64], keys: &[Key]) -> f64 {
    let mut best = f64::NEG_INFINITY;
    for e in keys {
        best = best.max(scores[e.row as usize]);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys_of(ks: &[u128]) -> Vec<Key> {
        ks.iter()
            .enumerate()
            .map(|(i, &k)| Key { k, row: i as u32 })
            .collect()
    }

    #[test]
    fn key_orders_like_tuple() {
        let a = Key { k: 1, row: 5 };
        let b = Key { k: 1, row: 6 };
        let c = Key { k: 2, row: 0 };
        assert!(a < b && b < c);
        let mut v = vec![c, b, a];
        v.sort_unstable();
        assert_eq!(v, vec![a, b, c]);
    }

    #[test]
    fn pack_widths_match_pack_vids() {
        let c0: Vec<Vid> = vec![7, 1, 9];
        let c1: Vec<Vid> = vec![4, 4, 2];
        let c2: Vec<Vid> = vec![0, 3, 8];
        let c3: Vec<Vid> = vec![5, 5, 5];
        let all: Vec<&[Vid]> = vec![&c0, &c1, &c2, &c3];
        for w in 0..=4usize {
            let cols = &all[..w];
            let mut out = vec![Key { k: 0, row: 0 }; 3];
            pack_keys(cols, 0, 3, &mut out);
            for (i, e) in out.iter().enumerate() {
                let want = lapush_storage::pack_vids(cols.iter().map(|c| c[i]));
                assert_eq!(e.k, want, "width {w} row {i}");
                assert_eq!(e.row, i as u32);
            }
            // pack_rekey over the identity permutation agrees.
            let mut re = Vec::new();
            pack_rekey(cols, &out, &mut re);
            assert_eq!(re, out, "width {w}");
        }
    }

    #[test]
    fn pack_subrange_offsets_rows() {
        let c0: Vec<Vid> = (0..10).collect();
        let cols: Vec<&[Vid]> = vec![&c0];
        let mut out = vec![Key { k: 0, row: 0 }; 4];
        pack_keys(&cols, 3, 7, &mut out);
        assert_eq!(out[0], Key { k: 3, row: 3 });
        assert_eq!(out[3], Key { k: 6, row: 6 });
    }

    #[test]
    fn run_end_finds_every_boundary() {
        let ks = keys_of(&[1, 1, 1, 2, 2, 3, 7, 7, 7, 7, 7, 7, 7, 7, 7, 8]);
        assert_eq!(run_end(&ks, 0), 3);
        assert_eq!(run_end(&ks, 3), 5);
        assert_eq!(run_end(&ks, 5), 6);
        assert_eq!(run_end(&ks, 6), 15);
        assert_eq!(run_end(&ks, 15), 16);
        assert_eq!(run_end(&ks, 16), 16);
    }

    #[test]
    fn run_end_distinguishes_high_bits() {
        // Keys that agree on the low 64 bits only: the 128-bit compare
        // must not truncate.
        let ks = keys_of(&[5, 5 | (1u128 << 100), 5]);
        assert_eq!(run_end(&ks, 0), 1);
    }

    #[test]
    fn gather_applies_permutation_and_reuses_buffer() {
        let src: Vec<Vid> = (0..1000).map(|i| (i * 7919) as Vid).collect();
        let idx: Vec<u32> = (0..999).map(|i| (i * 31 % 1000) as u32).collect();
        let mut got = vec![42; 5];
        gather_u32(&src, &idx, &mut got);
        assert_eq!(got.len(), idx.len());
        for (g, &i) in got.iter().zip(&idx) {
            assert_eq!(*g, src[i as usize]);
        }
    }

    #[test]
    fn gallop_finds_lower_bound() {
        let ks = keys_of(&[1, 3, 3, 3, 9, 9, 14, 20, 20, 20, 20, 31]);
        for target in 0..35u128 {
            let want = ks.iter().position(|e| e.k >= target).unwrap_or(ks.len());
            for start in 0..=want {
                assert_eq!(
                    gallop_ge(ks.len(), start, target, |i| ks[i].k),
                    want,
                    "target {target}"
                );
            }
        }
        assert_eq!(gallop_ge(ks.len(), 12, 0, |i| ks[i].k), 12);
    }

    #[test]
    fn folds_are_order_free() {
        // Entry order would fold (0.7, 0.33, 0.1, 0.9) one ulp away from
        // the ascending chain; every permutation folds to the chain's bits.
        let scores = [0.1, 0.7, 0.33, 0.9];
        let chain = |ps: &[f64]| 1.0 - ps.iter().fold(1.0, |n, p| n * (1.0 - p));
        let want = chain(&[0.1, 0.33, 0.7, 0.9]);
        assert_ne!(chain(&[0.7, 0.33, 0.1, 0.9]).to_bits(), want.to_bits());
        // Every permutation of the four rows.
        let perms = (0..256u32)
            .map(|c| [0, 2, 4, 6].map(|s| c >> s & 3))
            .filter(|p| (0..4).all(|row| p.contains(&row)));
        for rows in perms {
            let keys = rows.map(|row| Key { k: 0, row });
            let run = keys.iter().map(|e| scores[e.row as usize]);
            assert_eq!(fold_or(run).to_bits(), want.to_bits(), "{rows:?}");
            assert_eq!(fold_max(&scores, &keys), 0.9);
        }
        assert_eq!(fold_or([]), 0.0, "empty run");
        assert_eq!(fold_max(&scores, &[]), f64::NEG_INFINITY, "empty run");
    }
}
