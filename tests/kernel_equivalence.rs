//! Equivalence suite for the key-kernel layer
//! (`lapushdb::engine::kernels`).
//!
//! Every kernel is checked against an independent in-test reference that
//! shares no code with `kernels.rs`, on randomized columns (key widths
//! 0–4 packed directly, 5–6 through the rekey recursion the sort uses),
//! buffers with runs of equal keys, and empty and single-row edges; the
//! radix sort also on full-range, duplicate, equal, presorted and reversed
//! keys at lengths on both sides of its cutoff.
//! Integer kernels must match exactly; the float folds must match a
//! strict one-multiply-at-a-time serial loop in the canonical fold order
//! (a run of three or more operands ascending by score) *in bits*, not
//! within a tolerance.

use lapushdb::engine::kernels::{self, Key};
use lapushdb::storage::Vid;
use proptest::prelude::*;

/// splitmix64 — deterministic input data, independent of the proptest rng
/// so failures print a reproducible (seed, shape) pair.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// `width` columns of `n` rows over a small domain (duplicates and runs
/// are the interesting case for every kernel).
fn make_cols(seed: u64, width: usize, n: usize, domain: u64) -> Vec<Vec<Vid>> {
    (0..width)
        .map(|c| {
            (0..n)
                .map(|i| (mix(seed ^ ((c as u64) << 32) ^ i as u64) % domain.max(1)) as Vid)
                .collect()
        })
        .collect()
}

/// Reference packing: first column most significant, 32 bits per column.
fn ref_pack_row(cols: &[Vec<Vid>], i: usize) -> u128 {
    cols.iter().fold(0u128, |k, c| (k << 32) | c[i] as u128)
}

/// A sorted key buffer with runs: rows keyed by `mix(i) % groups`.
fn sorted_run_keys(seed: u64, n: usize, groups: u64) -> Vec<Key> {
    let mut keys: Vec<Key> = (0..n)
        .map(|i| Key {
            k: (mix(seed ^ i as u64) % groups.max(1)) as u128,
            row: i as u32,
        })
        .collect();
    keys.sort_unstable();
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `pack_keys` (widths 0–4, arbitrary `lo..hi` windows) and
    /// `pack_rekey` (over a shuffled source buffer) match the reference
    /// shift-and-or packing.
    #[test]
    fn pack_matches_reference_on_every_path(
        seed in 0u64..1_000_000,
        width in 0usize..5,
        n in 0usize..60,
        domain in 1u64..12,
    ) {
        let cols = make_cols(seed, width, n, domain);
        let refs: Vec<&[Vid]> = cols.iter().map(Vec::as_slice).collect();
        let lo = (mix(seed ^ 0x10) % (n as u64 + 1)) as u32;
        let hi = lo + (mix(seed ^ 0x20) % (n as u64 - lo as u64 + 1)) as u32;
        let want: Vec<Key> = (lo..hi)
            .map(|i| Key { k: ref_pack_row(&cols, i as usize), row: i })
            .collect();
        // Shuffled row order for the rekey form (the tie-resolution input).
        let mut src: Vec<Key> = (0..n as u32).map(|row| Key { k: 0, row }).collect();
        src.sort_unstable_by_key(|e| mix(seed ^ 0x30 ^ e.row as u64));
        let want_rekey: Vec<Key> = src
            .iter()
            .map(|e| Key { k: ref_pack_row(&cols, e.row as usize), row: e.row })
            .collect();

        let mut got = vec![Key { k: 1, row: u32::MAX }; (hi - lo) as usize];
        kernels::pack_keys(&refs, lo, hi, &mut got);
        prop_assert_eq!(&got, &want, "pack_keys");
        let mut got_rekey = Vec::new();
        kernels::pack_rekey(&refs, &src, &mut got_rekey);
        prop_assert_eq!(&got_rekey, &want_rekey, "pack_rekey");
    }

    /// Key widths 5–6 through the same pack-sort-rekey recursion the
    /// engine's sort uses: the final `(full key, row)` order must equal a
    /// plain tuple sort of the unpacked rows.
    #[test]
    fn wide_key_rekey_sort_matches_tuple_sort(
        seed in 0u64..1_000_000,
        width in 5usize..7,
        n in 0usize..60,
        domain in 1u64..6,
    ) {
        let cols = make_cols(seed, width, n, domain);
        let want: Vec<u32> = {
            let mut rows: Vec<u32> = (0..n as u32).collect();
            rows.sort_by_key(|&i| {
                let i = i as usize;
                (cols.iter().map(|c| c[i]).collect::<Vec<_>>(), i)
            });
            rows
        };
        let prefix: Vec<&[Vid]> = cols[..4].iter().map(Vec::as_slice).collect();
        let deeper: Vec<&[Vid]> = cols[4..].iter().map(Vec::as_slice).collect();
        let mut keys = vec![Key { k: 0, row: 0 }; n];
        kernels::pack_keys(&prefix, 0, n as u32, &mut keys);
        keys.sort_unstable();
        // Re-key every run of equal prefixes by the tail columns, the
        // way `resolve_ties` does.
        let mut buf = Vec::new();
        let mut pos = 0;
        while pos < keys.len() {
            let end = kernels::run_end(&keys, pos);
            kernels::pack_rekey(&deeper, &keys[pos..end], &mut buf);
            buf.sort_unstable();
            for (slot, e) in keys[pos..end].iter_mut().zip(&buf) {
                slot.row = e.row;
            }
            pos = end;
        }
        let got: Vec<u32> = keys.iter().map(|e| e.row).collect();
        prop_assert_eq!(&got, &want, "width {}", width);
    }

    /// `run_end` finds the exact end of every run of equal packed keys.
    #[test]
    fn run_end_matches_reference_on_every_path(
        seed in 0u64..1_000_000,
        n in 0usize..80,
        groups in 1u64..10,
    ) {
        let keys = sorted_run_keys(seed, n, groups);
        for start in 0..=n {
            let mut want = start;
            while want < n && keys[want].k == keys[start].k {
                want += 1;
            }
            prop_assert_eq!(kernels::run_end(&keys, start), want, "start {}", start);
        }
    }

    /// `gather_u32` applies an arbitrary index vector exactly, whatever
    /// the output buffer held before.
    #[test]
    fn gather_matches_reference_on_every_path(
        seed in 0u64..1_000_000,
        n in 1usize..80,
        m in 0usize..120,
    ) {
        let src: Vec<Vid> = (0..n).map(|i| mix(seed ^ i as u64) as Vid).collect();
        let idx: Vec<u32> = (0..m).map(|i| (mix(seed ^ 0x40 ^ i as u64) % n as u64) as u32).collect();
        let want: Vec<Vid> = idx.iter().map(|&i| src[i as usize]).collect();
        let mut got = vec![Vid::MAX; (seed % 7) as usize];
        kernels::gather_u32(&src, &idx, &mut got);
        prop_assert_eq!(&got, &want);
    }

    /// `gallop_ge` lands on the first key ≥ the target from any start
    /// (targets below, inside, and above the key range).
    #[test]
    fn gallop_matches_reference_on_every_path(
        seed in 0u64..1_000_000,
        n in 0usize..80,
        groups in 1u64..10,
    ) {
        let keys = sorted_run_keys(seed, n, groups);
        let mut targets: Vec<u128> = (0..=groups + 1).map(u128::from).collect();
        targets.push(mix(seed ^ 0x50) as u128);
        for start in 0..=n {
            for &t in &targets {
                let want = (start..n).find(|&i| keys[i].k >= t).unwrap_or(n);
                prop_assert_eq!(
                    kernels::gallop_ge(n, start, t, |i| keys[i].k),
                    want,
                    "start {} target {}",
                    start,
                    t
                );
            }
        }
    }

    /// The float folds are bit-identical (not approximately equal) to a
    /// strict one-element-at-a-time serial loop, taking a run of three or
    /// more operands in ascending order.
    #[test]
    fn folds_bitwise_match_serial_reference(
        seed in 0u64..1_000_000,
        n in 0usize..100,
    ) {
        let scores: Vec<f64> = (0..n.max(1))
            .map(|i| (mix(seed ^ i as u64) % 1_000_000) as f64 / 1_000_000.0)
            .collect();
        let keys: Vec<Key> = (0..n)
            .map(|i| Key { k: 7, row: (mix(seed ^ 0x60 ^ i as u64) % scores.len() as u64) as u32 })
            .collect();
        let run: Vec<f64> = keys.iter().map(|e| scores[e.row as usize]).collect();
        let want_or = ref_fold_or(&run);
        let want_max = keys
            .iter()
            .fold(f64::NEG_INFINITY, |b, e| b.max(scores[e.row as usize]));
        prop_assert_eq!(kernels::fold_or(run.iter().copied()).to_bits(), want_or.to_bits(), "fold_or");
        prop_assert_eq!(kernels::fold_max(&scores, &keys).to_bits(), want_max.to_bits(), "fold_max");
    }
}

/// Reference for `sort_keys`: a comparison sort of the `(k, row)` tuple,
/// sharing no code with the kernel.
fn ref_sort(keys: &[Key]) -> Vec<Key> {
    let mut want = keys.to_vec();
    want.sort_by_key(|e| (e.k, e.row));
    want
}

/// The runs of equal `k` of a sorted buffer, each as its key and its set
/// of rows.
fn runs(keys: &[Key]) -> Vec<(u128, Vec<u32>)> {
    let mut runs: Vec<(u128, Vec<u32>)> = Vec::new();
    for e in keys {
        match runs.last_mut() {
            Some((k, rows)) if *k == e.k => rows.push(e.row),
            _ => runs.push((e.k, vec![e.row])),
        }
    }
    for (_, rows) in &mut runs {
        rows.sort_unstable();
    }
    runs
}

/// `sort_keys` on one buffer of `width`-column keys against the reference;
/// then on the keys cut to their leading `kept` columns, as the join kernel
/// packs a projection's pairs: each run of equal kept columns must hold
/// the rows of that run in the full sort. The scatter buffer starts out
/// holding junk.
fn check_sort_keys(keys: &[Key], width: usize, what: &str) {
    let mut spare = vec![Key { k: 3, row: 3 }; keys.len() / 3 + 1];
    let mut got = keys.to_vec();
    kernels::sort_keys(&mut got, &mut spare);
    let full = ref_sort(keys);
    assert_eq!(got, full, "{what}");
    for kept in 0..width {
        let cut = |keys: &[Key]| -> Vec<Key> {
            let shift = 32 * (width - kept) as u32;
            (keys.iter())
                .map(|e| Key {
                    k: e.k.checked_shr(shift).unwrap_or(0),
                    row: e.row,
                })
                .collect()
        };
        let mut got = cut(keys);
        kernels::sort_keys(&mut got, &mut spare);
        let what = format!("{what}, {kept} columns kept");
        assert_eq!(got, ref_sort(&cut(keys)), "{what}");
        assert_eq!(runs(&got), runs(&cut(&full)), "{what}: runs");
    }
}

/// `n` entries of `width` packed columns, drawn by `vid(column, entry)`,
/// in ascending row order with gaps (a tie-resolution run's rows are not
/// contiguous).
fn keys_of(width: usize, n: usize, vid: impl Fn(usize, usize) -> Vid) -> Vec<Key> {
    (0..n)
        .map(|i| Key {
            k: (0..width).fold(0u128, |k, c| (k << 32) | vid(c, i) as u128),
            row: 7 + 3 * i as u32,
        })
        .collect()
}

#[test]
fn sort_keys_matches_a_tuple_sort_on_every_shape() {
    let cutoff = kernels::RADIX_CUTOFF;
    for width in 0..=4usize {
        for n in [0, 1, 2, cutoff - 1, cutoff, 10_000] {
            let seed = (width * 100_000 + n) as u64;
            // Full-range vids: every byte of every column varies.
            let full = keys_of(width, n, |c, i| {
                mix(seed ^ ((c as u64) << 40) ^ i as u64) as Vid
            });
            // Heavy duplicates: four values per column, spread over its bytes.
            let dups = keys_of(width, n, |c, i| {
                (mix(seed ^ 0x77 ^ ((c as u64) << 40) ^ i as u64) % 4) as Vid * 0x0101_0101
            });
            let equal = keys_of(width, n, |c, _| 0x00c0_ffee ^ c as Vid);
            // Presorted and reversed keys (rows stay ascending).
            let mut presorted = full.clone();
            presorted.sort_unstable_by_key(|e| e.k);
            for (i, e) in presorted.iter_mut().enumerate() {
                e.row = i as u32;
            }
            let mut reversed = presorted.clone();
            reversed.reverse();
            for (i, e) in reversed.iter_mut().enumerate() {
                e.row = i as u32;
            }
            let shapes = [
                ("full-range", &full),
                ("duplicates", &dups),
                ("all equal", &equal),
                ("presorted", &presorted),
                ("reversed", &reversed),
            ];
            for (shape, keys) in shapes {
                check_sort_keys(keys, width, &format!("{shape}, width {width}, {n} entries"));
            }
        }
    }
}

/// Reference independent-OR: a run of three or more operands sorted
/// ascending, then `1 − (1 − p₀)(1 − p₁)…` one multiply at a time.
fn ref_fold_or(run: &[f64]) -> f64 {
    let mut ordered = run.to_vec();
    if ordered.len() >= 3 {
        ordered.sort_by(|a, b| a.partial_cmp(b).expect("scores are numbers"));
    }
    let mut not_any = 1.0f64;
    for p in ordered {
        not_any *= 1.0 - p;
    }
    1.0 - not_any
}

/// A run whose entry-order and ascending-order products differ in bits:
/// random scores rarely tell the two orders apart (about 0.2% of runs),
/// so this one pins the canonical order on its own.
#[test]
fn fold_or_takes_ascending_order_not_entry_order() {
    let entry = [0.7, 0.33, 0.1, 0.9];
    let mut not_any = 1.0f64;
    for p in entry {
        not_any *= 1.0 - p;
    }
    let entry_order = 1.0 - not_any;
    let want = ref_fold_or(&entry);
    assert_ne!(
        entry_order.to_bits(),
        want.to_bits(),
        "the two orders agree"
    );
    assert_eq!(kernels::fold_or(entry).to_bits(), want.to_bits());
}

/// Empty and single-row edges of every kernel.
#[test]
fn empty_and_single_row_edges() {
    let empty: &[Key] = &[];
    assert_eq!(kernels::run_end(empty, 0), 0);
    assert_eq!(kernels::gallop_ge(0, 0, 42, |i| empty[i].k), 0);
    assert_eq!(kernels::fold_or([]), 0.0);
    assert_eq!(kernels::fold_max(&[], empty), f64::NEG_INFINITY);
    let mut out = Vec::new();
    kernels::gather_u32(&[], &[], &mut out);
    assert!(out.is_empty());
    kernels::pack_keys(&[], 0, 0, &mut []);
    kernels::pack_rekey(&[], empty, &mut Vec::new());

    let one = [Key { k: 9, row: 0 }];
    assert_eq!(kernels::run_end(&one, 0), 1);
    assert_eq!(kernels::gallop_ge(1, 0, 9, |i| one[i].k), 0);
    assert_eq!(kernels::gallop_ge(1, 0, 10, |i| one[i].k), 1);
    assert_eq!(kernels::fold_or([0.25]), 0.25);
    assert_eq!(kernels::fold_max(&[0.25], &one), 0.25);
    kernels::gather_u32(&[7], &[0], &mut out);
    assert_eq!(out, vec![7]);
    let mut packed = [Key { k: 1, row: 1 }];
    kernels::pack_keys(&[&[5]], 0, 1, &mut packed);
    assert_eq!(packed, [Key { k: 5, row: 0 }]);
}
