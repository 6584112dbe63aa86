//! Equivalence suite for the columnar sort-merge execution core.
//!
//! The engine interns every value into a dense vid, stores every
//! intermediate as a sorted columnar batch, and runs joins, projections,
//! `min` and duplicate elimination as sort/merge algorithms (optionally
//! partitioned across threads). This suite pins it down three times over:
//!
//! 1. **Against the oracle** (`tests/common/oracle.rs`), a value-level
//!    evaluator with nested-loop joins that shares no code with the
//!    engine: random chain, star and random-shape workloads must agree
//!    across both `Semantics`, every minimal plan, every [`OptLevel`]
//!    and the deterministic SQL baseline (`common::agree::check_all_paths`,
//!    which `encoded_equivalence.rs` runs on string-valued copies of the
//!    same workloads).
//! 2. **Across thread counts**: `threads: 1` vs `threads: 4` answers must
//!    be *bit-identical* (not approximately equal) on the same workloads
//!    and on chain, star and TPC-H workloads large enough to engage the
//!    morsel paths: parallelism may never change a float.
//! 3. **At the scheduler itself**: randomized task DAGs (nested fan-outs
//!    of uneven tasks) through [`pool::run_scope`] must return results
//!    identical, element for element, to serial recursive execution at
//!    every worker count, oversubscribed included.
//!
//! Scores against the oracle are compared **bitwise**: both fold a
//! projection group of three or more scores in ascending score order, so
//! a score is a function of the tuple set and the plan, and neither side's
//! numbering of its values reaches it.

mod common;

use common::agree::{assert_bitwise, check_all_paths};

use lapushdb::engine::deterministic_answers;
use lapushdb::engine::pool;
use lapushdb::prelude::*;
use lapushdb::workload::{
    chain_db, chain_query, random_db_for_query, random_query, star_db, star_query, tpch_db,
    tpch_query, TpchConfig,
};
use lapushdb::{bound_answers, mc_answers};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Chain workloads: the engine agrees with the oracle on every opt
    /// level and semantics, serial and threaded.
    #[test]
    fn chain_workloads_agree(seed in 0u64..10_000, k in 2usize..5, n in 20usize..80) {
        let q = chain_query(k);
        let domain = (n as i64 / 3).max(4);
        let db = chain_db(k, n, domain, 1.0, seed).expect("db");
        check_all_paths(&db, &q);
    }

    /// Star workloads.
    #[test]
    fn star_workloads_agree(seed in 0u64..10_000, k in 2usize..4, n in 20usize..60) {
        let q = star_query(k);
        let domain = (n as i64 / 2).max(4);
        let db = star_db(k, n, domain, 1.0, seed).expect("db");
        check_all_paths(&db, &q);
    }

    /// Random-shape queries over random databases.
    #[test]
    fn random_workloads_agree(seed in 0u64..10_000, atoms in 2usize..5) {
        let q = random_query(seed, atoms, 4);
        let db = random_db_for_query(&q, seed ^ 0x5eed, 12, 5, 1.0).expect("db");
        check_all_paths(&db, &q);
    }
}

/// threads=1 vs threads=4 result equality on fixed chain / star / TPC-H
/// workloads at a size that actually engages the morsel paths of the
/// larger intermediates. Bitwise equality, every opt level.
#[test]
fn thread_counts_agree_on_chain_star_tpch() {
    let chain = {
        let q = chain_query(4);
        let db = chain_db(4, 400, 60, 1.0, 11).expect("chain db");
        (db, q)
    };
    let star = {
        let q = star_query(3);
        let db = star_db(3, 300, 40, 1.0, 13).expect("star db");
        (db, q)
    };
    let tpch = {
        let cfg = TpchConfig {
            suppliers: 60,
            parts: 400,
            pi_max: 0.4,
            seed: 2015,
        };
        let db = tpch_db(cfg).expect("tpch db");
        let q = tpch_query(30, "%red%");
        (db, q)
    };
    for (name, (db, q)) in [("chain", chain), ("star", star), ("tpch", tpch)] {
        for opt in [
            OptLevel::MultiPlan,
            OptLevel::Opt1,
            OptLevel::Opt12,
            OptLevel::Opt123,
        ] {
            let serial = rank_by_dissociation(
                &db,
                &q,
                RankOptions {
                    opt,
                    use_schema: false,
                    threads: 1,
                    top_k: None,
                },
            )
            .expect("serial");
            for threads in [2, 4] {
                let par = rank_by_dissociation(
                    &db,
                    &q,
                    RankOptions {
                        opt,
                        use_schema: false,
                        threads,
                        top_k: None,
                    },
                )
                .expect("threaded");
                assert_bitwise(&par, &serial, &format!("{name} {opt:?} t{threads}"));
            }
        }
        let sql1 = deterministic_answers(&db, &q, 1).expect("sql serial");
        let sql4 = deterministic_answers(&db, &q, 4).expect("sql t4");
        assert_bitwise(&sql4, &sql1, &format!("{name} sql"));
        let (lo1, hi1) = bound_answers(&db, &q, 1).expect("bounds serial");
        let (lo4, hi4) = bound_answers(&db, &q, 4).expect("bounds t4");
        assert_bitwise(&lo4, &lo1, &format!("{name} bounds lower"));
        assert_bitwise(&hi4, &hi1, &format!("{name} bounds upper"));
        let mc1 = mc_answers(&db, &q, 200, 7, 1).expect("mc serial");
        let mc4 = mc_answers(&db, &q, 200, 7, 4).expect("mc t4");
        assert_bitwise(&mc4, &mc1, &format!("{name} mc"));
    }
}

/// The oracle stays independent: outside its comments it names nothing
/// from `lapushdb` but the plan store, the query and storage types, and
/// the two engine types its answers are stated in; and no dictionary,
/// row-key or hashing type.
#[test]
fn oracle_shares_no_code_with_the_engine() {
    let code: String = include_str!("common/oracle.rs")
        .lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .collect::<Vec<_>>()
        .join("\n");
    for banned in [
        "Vid",
        "RowKey",
        "codec",
        "FxHashMap",
        "HashMap",
        "lapush_",
        "prelude",
        "crate::",
    ] {
        assert!(!code.contains(banned), "the oracle uses `{banned}`");
    }
    for (at, _) in code.match_indices("lapushdb::") {
        let path = &code[at + "lapushdb::".len()..];
        let module = path.split("::").next().unwrap_or_default();
        assert!(
            ["core", "query", "storage", "engine"].contains(&module),
            "the oracle uses `lapushdb::{module}`"
        );
        if module == "engine" {
            let names = path["engine::".len()..]
                .split(';')
                .next()
                .unwrap_or_default();
            let names = names.trim_matches(|c: char| c == '{' || c == '}');
            for name in names.split(',').map(str::trim) {
                assert!(
                    ["AnswerSet", "Semantics"].contains(&name),
                    "the oracle uses `engine::{name}`"
                );
            }
        }
    }
    assert!(
        code.contains("lapushdb::engine::"),
        "the guard reads the oracle"
    );
}

/// Deterministic per-task workload for the scheduler property test: a
/// node-dependent spin plus arithmetic mixing, so tasks finish in
/// scrambled wall-clock order while the value depends only on the inputs.
fn task_value(seed: u64, node: u64) -> u64 {
    let mut h = seed ^ node.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for _ in 0..(node % 7) * 50 {
        h = h.rotate_left(13).wrapping_mul(31).wrapping_add(node);
    }
    h
}

/// Serial reference: the task DAG evaluated by plain recursion, no pool.
fn dag_serial(seed: u64, depth: u32, fanout: u64) -> Vec<u64> {
    (0..fanout)
        .map(|node| {
            let v = task_value(seed, node);
            if depth == 0 {
                v
            } else {
                dag_serial(seed ^ node.wrapping_add(1), depth - 1, fanout)
                    .into_iter()
                    .fold(v, u64::wrapping_add)
            }
        })
        .collect()
}

/// The same DAG on the pool: every level is one `run_scope` fan-out, and
/// inner levels submit *from inside pool tasks* (nested submission — the
/// case that must neither deadlock nor reorder results).
fn dag_pooled(threads: usize, seed: u64, depth: u32, fanout: u64) -> Vec<u64> {
    let tasks: Vec<_> = (0..fanout)
        .map(|node| {
            move || {
                let v = task_value(seed, node);
                if depth == 0 {
                    v
                } else {
                    dag_pooled(threads, seed ^ node.wrapping_add(1), depth - 1, fanout)
                        .into_iter()
                        .fold(v, u64::wrapping_add)
                }
            }
        })
        .collect();
    pool::run_scope(threads, tasks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// [`pool::run_scope`] returns results in submission order: for
    /// randomized task DAGs its output equals serial recursive execution
    /// at every worker count, including counts far above the machine's
    /// cores and fan-outs below/above the worker count.
    #[test]
    fn pool_run_scope_matches_serial_execution(
        seed in 0u64..1_000_000,
        depth in 0u32..3,
        fanout in 1u64..9,
        threads in 2usize..9,
    ) {
        let expected = dag_serial(seed, depth, fanout);
        let got = dag_pooled(threads, seed, depth, fanout);
        prop_assert_eq!(got, expected);
    }
}
