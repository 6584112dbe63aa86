//! The engine checked against the oracle on every evaluation path of one
//! workload: the equivalence suites' shared assertion.

use super::oracle;

use lapushdb::engine::{deterministic_answers, eval_plan_id, AnswerSet, ExecOptions, Semantics};
use lapushdb::prelude::*;

/// Assert two answer sets are bit-identical (same keys, same float bits).
pub fn assert_bitwise(got: &AnswerSet, want: &AnswerSet, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: answer count");
    for (key, &w) in &want.rows {
        assert_eq!(
            got.score_of(key).to_bits(),
            w.to_bits(),
            "{what}: key {key:?}"
        );
    }
}

/// All optimization levels of the engine against the oracle, plus
/// per-plan evaluation under every semantics, plus the deterministic SQL
/// baseline; every threaded run is bit-identical to its serial run.
///
/// `MultiPlan` is checked against the oracle's min over plans;
/// `Opt1`/`Opt12`/`Opt123` against the oracle's evaluation of the same
/// single min-pushdown plan (pushing `min` below projections is *not*
/// score-identical to min-at-the-end in general, so each level must match
/// the oracle on its own plan).
pub fn check_all_paths(db: &Database, q: &Query) {
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

    let want_multi = oracle::propagation(db, q, &plans.store, &plans.roots);
    assert_bitwise(&rank(OptLevel::MultiPlan, 1), &want_multi, "MultiPlan");

    let mut sp_store = PlanStore::new();
    let sp = single_plan_id(
        &mut sp_store,
        q,
        &SchemaInfo::from_query(q),
        EnumOptions::default(),
    );
    let want_single = oracle::eval_plan(db, q, &sp_store, sp, Semantics::Probabilistic);
    for opt in [OptLevel::Opt1, OptLevel::Opt12, OptLevel::Opt123] {
        assert_bitwise(&rank(opt, 1), &want_single, &format!("{opt:?}"));
    }

    // Every semantics, every minimal plan, serial and threaded.
    for sem in [Semantics::Probabilistic, Semantics::Deterministic] {
        for (i, &p) in plans.roots.iter().enumerate() {
            let opts = ExecOptions {
                semantics: sem,
                reuse_views: false,
                threads: 1,
            };
            let eval = |opts| eval_plan_id(db, q, &plans.store, p, opts);
            let got = eval(opts).expect("eval");
            let want = oracle::eval_plan(db, q, &plans.store, p, sem);
            assert_bitwise(&got, &want, &format!("{sem:?} plan {i}"));
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
    assert_bitwise(&got_sql, &oracle::sql(db, q), "deterministic SQL");
    let got_sql_t4 = deterministic_answers(db, q, 4).expect("sql t4");
    assert_bitwise(&got_sql_t4, &got_sql, "deterministic SQL t4");
}
