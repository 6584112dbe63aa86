//! Equivalence suite for the columnar sort-merge execution core.
//!
//! The engine stores every intermediate as a sorted columnar batch and
//! runs joins, projections, `min`, and duplicate elimination as sort/merge
//! algorithms (optionally partitioned across threads). This suite pins
//! that refactor down twice over:
//!
//! 1. **Against a retained hash-map reference evaluator** — a faithful
//!    copy of the pre-columnar executor, keeping its `FxHashMap<RowKey,
//!    f64>` intermediates and hash joins / map-upsert projections on the
//!    same dictionary-encoded rows — random chain, star, and random-shape
//!    workloads must agree across all [`Semantics`] × [`OptLevel`]
//!    combinations (mirroring `tests/encoded_equivalence.rs`).
//! 2. **Across thread counts** — `threads: 1` vs `threads: 4` answers
//!    must be *bit-identical* (not approximately equal) on chain, star,
//!    and TPC-H workloads: morsel parallelism may never change a float.
//! 3. **At the scheduler itself** — randomized task DAGs (nested
//!    fan-outs of uneven tasks) through [`pool::run_scope`] must return
//!    results identical, element for element, to serial recursive
//!    execution at every worker count, oversubscribed included.
//!
//! Scores against the hash-map reference are compared to within `1e-12`
//! rather than bitwise: the columnar engine folds projection groups in
//! sorted row order while the hash-map engine folds in map iteration
//! order, which legitimately reassociates the floating-point products.

mod common;

use lapushdb::engine::pool;
use lapushdb::engine::{deterministic_answers, eval_plan_id, AnswerSet, ExecOptions, Semantics};
use lapushdb::prelude::*;
use lapushdb::workload::{
    chain_db, chain_query, random_db_for_query, random_query, star_db, star_query, tpch_db,
    tpch_query, TpchConfig,
};
use lapushdb::{bound_answers, mc_answers};
use proptest::prelude::*;

/// Hash-map reference evaluator: the pre-columnar execution path kept as
/// an oracle. Runs on the same dictionary-encoded rows as production
/// (shared `prepare` step) but keys every intermediate by [`RowKey`] in an
/// `FxHashMap` — hash joins, map-upsert projections, map-based `min`.
mod reference {
    use lapushdb::core::{NodeKind, PlanId, PlanStore};
    use lapushdb::engine::prepare::{prepare_atoms, ScanShape};
    use lapushdb::engine::{AnswerSet, Semantics};
    use lapushdb::query::{Query, Var};
    use lapushdb::storage::{Database, FxHashMap, RowKey, Value};

    pub struct HRel {
        vars: Vec<Var>,
        rows: FxHashMap<RowKey, f64>,
    }

    impl HRel {
        fn empty(vars: Vec<Var>) -> Self {
            HRel {
                vars,
                rows: FxHashMap::default(),
            }
        }

        fn col_of(&self, v: Var) -> Option<usize> {
            self.vars.iter().position(|&u| u == v)
        }

        fn insert_max(&mut self, key: RowKey, score: f64) {
            self.rows
                .entry(key)
                .and_modify(|s| *s = s.max(score))
                .or_insert(score);
        }
    }

    fn scan_atom(db: &Database, q: &Query, atom_idx: usize, sem: Semantics) -> HRel {
        let prepared = prepare_atoms(db, q).expect("reference scan prepares");
        let prep = &prepared[atom_idx];
        let rel = db.relation(prep.rel);
        let atom = &q.atoms()[atom_idx];
        let shape = ScanShape::of(q, atom);
        let mut out = HRel::empty(shape.out_vars.clone());
        prep.for_each_surviving_row(rel, &shape, |i, row| {
            let key = RowKey::from_fn(shape.out_cols.len(), |j| row[shape.out_cols[j]]);
            let score = match sem {
                Semantics::Probabilistic => rel.prob(i),
                Semantics::Deterministic => 1.0,
            };
            out.insert_max(key, score);
        });
        out
    }

    fn join(left: &HRel, right: &HRel) -> HRel {
        let shared: Vec<(usize, usize)> = left
            .vars
            .iter()
            .enumerate()
            .filter_map(|(li, &v)| right.col_of(v).map(|ri| (li, ri)))
            .collect();
        let right_only: Vec<usize> = (0..right.vars.len())
            .filter(|&ri| !shared.iter().any(|&(_, r)| r == ri))
            .collect();
        let mut out_vars = left.vars.clone();
        out_vars.extend(right_only.iter().map(|&ri| right.vars[ri]));
        let mut out = HRel::empty(out_vars);

        let mut index: FxHashMap<RowKey, Vec<(&RowKey, f64)>> = FxHashMap::default();
        for (rkey, &rscore) in &right.rows {
            let jk = RowKey::from_fn(shared.len(), |i| rkey.get(shared[i].1));
            index.entry(jk).or_default().push((rkey, rscore));
        }
        for (lkey, &lscore) in &left.rows {
            let jk = RowKey::from_fn(shared.len(), |i| lkey.get(shared[i].0));
            let Some(matches) = index.get(&jk) else {
                continue;
            };
            for (rkey, rscore) in matches {
                let row: RowKey = lkey
                    .iter()
                    .chain(right_only.iter().map(|&ri| rkey.get(ri)))
                    .collect();
                out.insert_max(row, lscore * rscore);
            }
        }
        out
    }

    fn join_many(mut inputs: Vec<HRel>) -> HRel {
        assert!(!inputs.is_empty());
        let start = inputs
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| r.rows.len())
            .map(|(i, _)| i)
            .expect("non-empty");
        let mut acc = inputs.swap_remove(start);
        while !inputs.is_empty() {
            let next = inputs
                .iter()
                .enumerate()
                .filter(|(_, r)| r.vars.iter().any(|v| acc.col_of(*v).is_some()))
                .min_by_key(|(_, r)| r.rows.len())
                .map(|(i, _)| i)
                .unwrap_or(0);
            let rel = inputs.swap_remove(next);
            acc = join(&acc, &rel);
        }
        acc
    }

    fn group_key(key: &RowKey, cols: &[usize]) -> RowKey {
        RowKey::from_fn(cols.len(), |i| key.get(cols[i]))
    }

    fn project(input: &HRel, keep: &[Var], sem: Semantics) -> HRel {
        let cols: Vec<usize> = keep
            .iter()
            .map(|&v| input.col_of(v).expect("projection var"))
            .collect();
        let mut out = HRel::empty(keep.to_vec());
        match sem {
            Semantics::Probabilistic => {
                for (key, &score) in &input.rows {
                    *out.rows.entry(group_key(key, &cols)).or_insert(1.0) *= 1.0 - score;
                }
                for na in out.rows.values_mut() {
                    *na = 1.0 - *na;
                }
            }
            Semantics::Deterministic => {
                for key in input.rows.keys() {
                    out.rows.insert(group_key(key, &cols), 1.0);
                }
            }
        }
        out
    }

    fn min_combine(inputs: &[HRel]) -> HRel {
        let base = &inputs[0];
        let mut out = HRel::empty(base.vars.clone());
        out.rows = base.rows.clone();
        for rel in &inputs[1..] {
            let perm: Vec<usize> = base
                .vars
                .iter()
                .map(|&v| rel.col_of(v).expect("min vars"))
                .collect();
            for (key, &score) in &rel.rows {
                let akey = group_key(key, &perm);
                match out.rows.get_mut(&akey) {
                    Some(s) => *s = s.min(score),
                    None => {
                        out.rows.insert(akey, score);
                    }
                }
            }
        }
        out
    }

    fn eval_node(db: &Database, q: &Query, store: &PlanStore, id: PlanId, sem: Semantics) -> HRel {
        let node = store.node(id);
        let children = || (node.kind.inputs().iter()).map(|&c| eval_node(db, q, store, c, sem));
        match &node.kind {
            NodeKind::Scan { atom } => scan_atom(db, q, *atom, sem),
            NodeKind::Project { input } => {
                let child = eval_node(db, q, store, *input, sem);
                let keep: Vec<Var> = node.head.iter().collect();
                project(&child, &keep, sem)
            }
            NodeKind::Join { .. } => join_many(children().collect()),
            NodeKind::Min { .. } => min_combine(&children().collect::<Vec<_>>()),
        }
    }

    fn to_answers(db: &Database, rel: HRel, head: &[Var]) -> AnswerSet {
        let perm: Vec<usize> = head
            .iter()
            .map(|&v| rel.col_of(v).expect("head var"))
            .collect();
        let codec = db.codec();
        let mut rows: FxHashMap<Box<[Value]>, f64> = FxHashMap::default();
        for (k, s) in rel.rows {
            let key: Box<[Value]> = perm
                .iter()
                .map(|&c| codec.decode(k.get(c)).clone())
                .collect();
            rows.insert(key, s);
        }
        AnswerSet {
            vars: head.to_vec(),
            rows,
        }
    }

    /// Reference evaluation of one plan under one semantics.
    pub fn eval_plan(
        db: &Database,
        q: &Query,
        store: &PlanStore,
        id: PlanId,
        sem: Semantics,
    ) -> AnswerSet {
        to_answers(db, eval_node(db, q, store, id, sem), q.head())
    }

    /// Reference propagation score: per-answer minimum over all plans.
    pub fn propagation(db: &Database, q: &Query, store: &PlanStore, roots: &[PlanId]) -> AnswerSet {
        let per_plan = roots
            .iter()
            .map(|&p| eval_plan(db, q, store, p, Semantics::Probabilistic));
        super::common::min_over(per_plan)
    }

    /// Reference deterministic SQL baseline: flat join + distinct project.
    pub fn sql(db: &Database, q: &Query) -> AnswerSet {
        let scans = (0..q.atoms().len())
            .map(|i| scan_atom(db, q, i, Semantics::Deterministic))
            .collect();
        let joined = join_many(scans);
        to_answers(
            db,
            project(&joined, q.head(), Semantics::Deterministic),
            q.head(),
        )
    }
}

/// Assert two answer sets hold the same keys with scores within `1e-12`.
fn assert_equiv(got: &AnswerSet, want: &AnswerSet, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        got.len(),
        want.len(),
        "{}: answer count {} vs reference {}",
        what,
        got.len(),
        want.len()
    );
    for (key, &w) in &want.rows {
        let g = got.score_of(key);
        prop_assert!(
            (g - w).abs() <= 1e-12,
            "{}: key {:?} scored {} vs reference {}",
            what,
            key,
            g,
            w
        );
    }
    Ok(())
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

/// All optimization levels of the columnar engine against the hash-map
/// reference, plus per-plan evaluation under every semantics, plus the
/// deterministic SQL baseline.
///
/// `MultiPlan` is checked against the reference min-over-plans propagation;
/// `Opt1`/`Opt12`/`Opt123` against the reference evaluation of the same
/// single min-pushdown plan (pushing `min` below projections is *not*
/// score-identical to min-at-the-end in general, so each columnar path
/// must match the hash-map evaluation of its own plan, not a common
/// oracle).
fn check_all_paths(db: &Database, q: &Query) -> Result<(), TestCaseError> {
    let plans = minimal_plan_set(&QueryShape::of_query(q));

    let rank = |opt, threads| {
        rank_by_dissociation(
            db,
            q,
            RankOptions {
                opt,
                use_schema: false,
                threads,
                top_k: None,
            },
        )
        .expect("rank")
    };

    let want_multi = reference::propagation(db, q, &plans.store, &plans.roots);
    assert_equiv(&rank(OptLevel::MultiPlan, 1), &want_multi, "MultiPlan")?;

    let mut sp_store = PlanStore::new();
    let sp = single_plan_id(
        &mut sp_store,
        q,
        &SchemaInfo::from_query(q),
        EnumOptions::default(),
    );
    let want_single = reference::eval_plan(db, q, &sp_store, sp, Semantics::Probabilistic);
    for opt in [OptLevel::Opt1, OptLevel::Opt12, OptLevel::Opt123] {
        assert_equiv(&rank(opt, 1), &want_single, &format!("{opt:?}"))?;
    }

    // Every semantics, every minimal plan, serial and threaded (threaded
    // results must be bit-identical to serial, which in turn matches the
    // hash-map reference within tolerance).
    for sem in [Semantics::Probabilistic, Semantics::Deterministic] {
        for (i, &p) in plans.roots.iter().enumerate() {
            let opts = ExecOptions {
                semantics: sem,
                reuse_views: false,
                threads: 1,
            };
            let eval = |opts| eval_plan_id(db, q, &plans.store, p, opts);
            let got = eval(opts).expect("eval");
            let want = reference::eval_plan(db, q, &plans.store, p, sem);
            assert_equiv(&got, &want, &format!("{sem:?} plan {i}"))?;
            let threaded = eval(ExecOptions { threads: 4, ..opts }).expect("eval threaded");
            assert_bitwise(&threaded, &got, &format!("{sem:?} plan {i} t4"));
        }
    }

    // Threaded opt levels are bit-identical to their serial runs.
    for opt in [
        OptLevel::MultiPlan,
        OptLevel::Opt1,
        OptLevel::Opt12,
        OptLevel::Opt123,
    ] {
        assert_bitwise(&rank(opt, 4), &rank(opt, 1), &format!("{opt:?} t4"));
    }

    let got_sql = deterministic_answers(db, q, 1).expect("sql");
    assert_equiv(&got_sql, &reference::sql(db, q), "deterministic SQL")?;
    let got_sql_t4 = deterministic_answers(db, q, 4).expect("sql t4");
    assert_bitwise(&got_sql_t4, &got_sql, "deterministic SQL t4");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Chain workloads: the columnar engine agrees with the hash-map
    /// reference on every opt level and semantics, serial and threaded.
    #[test]
    fn chain_workloads_agree(seed in 0u64..10_000, k in 2usize..5, n in 20usize..80) {
        let q = chain_query(k);
        let domain = (n as i64 / 3).max(4);
        let db = chain_db(k, n, domain, 1.0, seed).expect("db");
        check_all_paths(&db, &q)?;
    }

    /// Star workloads.
    #[test]
    fn star_workloads_agree(seed in 0u64..10_000, k in 2usize..4, n in 20usize..60) {
        let q = star_query(k);
        let domain = (n as i64 / 2).max(4);
        let db = star_db(k, n, domain, 1.0, seed).expect("db");
        check_all_paths(&db, &q)?;
    }

    /// Random-shape queries over random databases.
    #[test]
    fn random_workloads_agree(seed in 0u64..10_000, atoms in 2usize..5) {
        let q = random_query(seed, atoms, 4);
        let db = random_db_for_query(&q, seed ^ 0x5eed, 12, 5, 1.0).expect("db");
        check_all_paths(&db, &q)?;
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
