//! Equivalence suite for the SIMD key-kernel layer
//! (`lapushdb::engine::kernels`).
//!
//! Every kernel has three runtime-dispatched code paths (scalar, SSE2,
//! AVX2 — the machine decides which exist); the contract is that all of
//! them are **bit-identical** to an independent scalar reference, on any
//! input. This suite pins the contract down twice over:
//!
//! 1. **Per kernel, against in-test references** — randomized columns
//!    (key widths 0–4 packed directly, 5–6 through the rekey recursion
//!    the sort uses), buffers with runs of equal keys, empty and
//!    single-row edges. Integer kernels must match exactly; the float
//!    folds must match a strict one-multiply-at-a-time serial loop *in
//!    bits*, not within a tolerance.
//! 2. **Through full query evaluation** — chain (k=5, whose join keys
//!    are wider than one packed u128) and star workloads ranked at every
//!    opt level and thread count with each supported path forced in
//!    turn; all answer sets must be bit-identical to the forced-scalar
//!    run.
//!
//! The kernel path is process-global state, so every test that forces it
//! holds [`PATH_LOCK`] for its whole body (test threads would otherwise
//! clobber each other's dispatch — results would still agree, but the
//! test would no longer be exercising the path it names).

use lapushdb::engine::kernels::{self, Key};
use lapushdb::prelude::*;
use lapushdb::storage::Vid;
use lapushdb::workload::{chain_db, chain_query, star_db, star_query};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

static PATH_LOCK: Mutex<()> = Mutex::new(());

/// Serialize kernel-path forcing across test threads. A poisoned lock is
/// fine to reuse — the only protected state is the dispatch atomic.
fn locked() -> MutexGuard<'static, ()> {
    PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

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
    /// shift-and-or packing on every supported path.
    #[test]
    fn pack_matches_reference_on_every_path(
        seed in 0u64..1_000_000,
        width in 0usize..5,
        n in 0usize..60,
        domain in 1u64..12,
    ) {
        let _g = locked();
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

        for path in kernels::supported_paths() {
            kernels::force(path);
            let mut got = vec![Key { k: 1, row: u32::MAX }; (hi - lo) as usize];
            kernels::pack_keys(&refs, lo, hi, &mut got);
            prop_assert_eq!(&got, &want, "pack_keys on {:?}", path);
            let mut got_rekey = Vec::new();
            kernels::pack_rekey(&refs, &src, &mut got_rekey);
            prop_assert_eq!(&got_rekey, &want_rekey, "pack_rekey on {:?}", path);
        }
        kernels::reset();
    }

    /// Key widths 5–6 through the same pack-sort-rekey recursion the
    /// engine's sort uses: the final `(full key, row)` order must equal a
    /// plain tuple sort of the unpacked rows, on every path.
    #[test]
    fn wide_key_rekey_sort_matches_tuple_sort(
        seed in 0u64..1_000_000,
        width in 5usize..7,
        n in 0usize..60,
        domain in 1u64..6,
    ) {
        let _g = locked();
        let cols = make_cols(seed, width, n, domain);
        let want: Vec<u32> = {
            let mut rows: Vec<u32> = (0..n as u32).collect();
            rows.sort_by_key(|&i| {
                let i = i as usize;
                (cols.iter().map(|c| c[i]).collect::<Vec<_>>(), i)
            });
            rows
        };
        for path in kernels::supported_paths() {
            kernels::force(path);
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
            prop_assert_eq!(&got, &want, "width {} on {:?}", width, path);
        }
        kernels::reset();
    }

    /// `run_end` finds the exact end of every run of equal packed keys on
    /// every supported path.
    #[test]
    fn run_end_matches_reference_on_every_path(
        seed in 0u64..1_000_000,
        n in 0usize..80,
        groups in 1u64..10,
    ) {
        let _g = locked();
        let keys = sorted_run_keys(seed, n, groups);
        for path in kernels::supported_paths() {
            kernels::force(path);
            for start in 0..=n {
                let mut want = start;
                while want < n && keys[want].k == keys[start].k {
                    want += 1;
                }
                prop_assert_eq!(
                    kernels::run_end(&keys, start),
                    want,
                    "start {} on {:?}",
                    start,
                    path
                );
            }
        }
        kernels::reset();
    }

    /// `gather_u32` applies an arbitrary index vector exactly on every
    /// supported path.
    #[test]
    fn gather_matches_reference_on_every_path(
        seed in 0u64..1_000_000,
        n in 1usize..80,
        m in 0usize..120,
    ) {
        let _g = locked();
        let src: Vec<Vid> = (0..n).map(|i| mix(seed ^ i as u64) as Vid).collect();
        let idx: Vec<u32> = (0..m).map(|i| (mix(seed ^ 0x40 ^ i as u64) % n as u64) as u32).collect();
        let want: Vec<Vid> = idx.iter().map(|&i| src[i as usize]).collect();
        for path in kernels::supported_paths() {
            kernels::force(path);
            let mut got = Vec::new();
            kernels::gather_u32(&src, &idx, &mut got);
            prop_assert_eq!(&got, &want, "gather on {:?}", path);
        }
        kernels::reset();
    }

    /// `gallop_ge` lands on the first key ≥ the target from any start, on
    /// every supported path (targets below, inside, and above the key
    /// range).
    #[test]
    fn gallop_matches_reference_on_every_path(
        seed in 0u64..1_000_000,
        n in 0usize..80,
        groups in 1u64..10,
    ) {
        let _g = locked();
        let keys = sorted_run_keys(seed, n, groups);
        let mut targets: Vec<u128> = (0..=groups + 1).map(u128::from).collect();
        targets.push(mix(seed ^ 0x50) as u128);
        for path in kernels::supported_paths() {
            kernels::force(path);
            for start in 0..=n {
                for &t in &targets {
                    let want = (start..n).find(|&i| keys[i].k >= t).unwrap_or(n);
                    prop_assert_eq!(
                        kernels::gallop_ge(&keys, start, t),
                        want,
                        "start {} target {} on {:?}",
                        start,
                        t,
                        path
                    );
                }
            }
        }
        kernels::reset();
    }

    /// The float folds are bit-identical (not approximately equal) to a
    /// strict one-element-at-a-time serial loop on every supported path.
    #[test]
    fn folds_bitwise_match_serial_reference(
        seed in 0u64..1_000_000,
        n in 0usize..100,
    ) {
        let _g = locked();
        let scores: Vec<f64> = (0..n.max(1))
            .map(|i| (mix(seed ^ i as u64) % 1_000_000) as f64 / 1_000_000.0)
            .collect();
        let keys: Vec<Key> = (0..n)
            .map(|i| Key { k: 7, row: (mix(seed ^ 0x60 ^ i as u64) % scores.len() as u64) as u32 })
            .collect();
        let mut not_any = 1.0f64;
        for e in &keys {
            not_any *= 1.0 - scores[e.row as usize];
        }
        let want_or = 1.0 - not_any;
        let want_max = keys
            .iter()
            .fold(f64::NEG_INFINITY, |b, e| b.max(scores[e.row as usize]));
        for path in kernels::supported_paths() {
            kernels::force(path);
            prop_assert_eq!(
                kernels::fold_or(&scores, &keys).to_bits(),
                want_or.to_bits(),
                "fold_or on {:?}",
                path
            );
            prop_assert_eq!(
                kernels::fold_max(&scores, &keys).to_bits(),
                want_max.to_bits(),
                "fold_max on {:?}",
                path
            );
        }
        kernels::reset();
    }
}

/// Empty and single-row edges of every kernel, on every supported path.
#[test]
fn empty_and_single_row_edges() {
    let _g = locked();
    for path in kernels::supported_paths() {
        kernels::force(path);
        let empty: &[Key] = &[];
        assert_eq!(kernels::run_end(empty, 0), 0, "{path:?}");
        assert_eq!(kernels::gallop_ge(empty, 0, 42), 0, "{path:?}");
        assert_eq!(kernels::fold_or(&[], empty), 0.0, "{path:?}");
        assert_eq!(kernels::fold_max(&[], empty), f64::NEG_INFINITY, "{path:?}");
        let mut out = Vec::new();
        kernels::gather_u32(&[], &[], &mut out);
        assert!(out.is_empty(), "{path:?}");
        kernels::pack_keys(&[], 0, 0, &mut []);
        kernels::pack_rekey(&[], empty, &mut Vec::new());

        let one = [Key { k: 9, row: 0 }];
        assert_eq!(kernels::run_end(&one, 0), 1, "{path:?}");
        assert_eq!(kernels::gallop_ge(&one, 0, 9), 0, "{path:?}");
        assert_eq!(kernels::gallop_ge(&one, 0, 10), 1, "{path:?}");
        assert_eq!(kernels::fold_or(&[0.25], &one), 0.25, "{path:?}");
        assert_eq!(kernels::fold_max(&[0.25], &one), 0.25, "{path:?}");
        kernels::gather_u32(&[7], &[0], &mut out);
        assert_eq!(out, vec![7], "{path:?}");
        let mut packed = [Key { k: 1, row: 1 }];
        kernels::pack_keys(&[&[5]], 0, 1, &mut packed);
        assert_eq!(packed, [Key { k: 5, row: 0 }], "{path:?}");
    }
    kernels::reset();
}

/// Assert two answer sets are bit-identical (same keys, same float bits).
fn assert_bitwise(got: &AnswerSet, want: &AnswerSet, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: answer count");
    for (key, &w) in &want.rows {
        assert_eq!(
            got.score_of(key).to_bits(),
            w.to_bits(),
            "{what}: key {key:?}"
        );
    }
}

/// Full query evaluation (ranking at every opt level, serial and
/// threaded, plus the deterministic SQL baseline) is bit-identical across
/// every supported kernel path. Chain k=5 joins produce keys wider than
/// one packed u128, so this also drives the rekey recursion and the
/// full-key run/compare tails end to end.
#[test]
fn forced_paths_bitwise_identical_through_query_evaluation() {
    let _g = locked();
    let chain = {
        let q = chain_query(5);
        let db = chain_db(5, 220, 30, 1.0, 17).expect("chain db");
        (db, q)
    };
    let star = {
        let q = star_query(3);
        let db = star_db(3, 200, 28, 1.0, 19).expect("star db");
        (db, q)
    };
    let paths = kernels::supported_paths();
    for (name, (db, q)) in [("chain", chain), ("star", star)] {
        for opt in [
            OptLevel::MultiPlan,
            OptLevel::Opt1,
            OptLevel::Opt12,
            OptLevel::Opt123,
        ] {
            for threads in [1, 4] {
                let rank = |path| {
                    kernels::force(path);
                    rank_by_dissociation(
                        &db,
                        &q,
                        RankOptions {
                            opt,
                            use_schema: false,
                            threads,
                            top_k: None,
                        },
                    )
                    .expect("rank")
                };
                let want = rank(kernels::KernelPath::Scalar);
                for &path in &paths[1..] {
                    assert_bitwise(
                        &rank(path),
                        &want,
                        &format!("{name} {opt:?} t{threads} {path:?}"),
                    );
                }
            }
        }
        let sql = |path| {
            kernels::force(path);
            lapushdb::engine::deterministic_answers(&db, &q, 4).expect("sql")
        };
        let want_sql = sql(kernels::KernelPath::Scalar);
        for &path in &paths[1..] {
            assert_bitwise(&sql(path), &want_sql, &format!("{name} sql {path:?}"));
        }
    }
    kernels::reset();
}
