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
/// baseline.
///
/// `MultiPlan` is checked against the oracle's min over plans;
/// `Opt1`/`Opt12`/`Opt123` against the oracle's evaluation of the same
/// single min-pushdown plan (pushing `min` below projections is *not*
/// score-identical to min-at-the-end in general, so each level must match
/// the oracle on its own plan).
pub fn check_all_paths(db: &Database, q: &Query) {
    let plans = minimal_plan_set(&QueryShape::of_query(q));

    let rank = |opt| {
        let opts = RankOptions {
            opt,
            ..RankOptions::default()
        };
        rank_by_dissociation(db, q, opts).expect("rank")
    };

    let want_multi = oracle::propagation(db, q, &plans.store, &plans.roots);
    assert_bitwise(&rank(OptLevel::MultiPlan), &want_multi, "MultiPlan");

    let mut sp_store = PlanStore::new();
    let sp = single_plan_id(
        &mut sp_store,
        q,
        &SchemaInfo::from_query(q),
        EnumOptions::default(),
    );
    let want_single = oracle::eval_plan(db, q, &sp_store, sp, Semantics::Probabilistic);
    for opt in [OptLevel::Opt1, OptLevel::Opt12, OptLevel::Opt123] {
        assert_bitwise(&rank(opt), &want_single, &format!("{opt:?}"));
    }

    // Every semantics, every minimal plan.
    for sem in [Semantics::Probabilistic, Semantics::Deterministic] {
        for (i, &p) in plans.roots.iter().enumerate() {
            let opts = ExecOptions {
                semantics: sem,
                ..ExecOptions::default()
            };
            let got = eval_plan_id(db, q, &plans.store, p, opts).expect("eval");
            let want = oracle::eval_plan(db, q, &plans.store, p, sem);
            assert_bitwise(&got, &want, &format!("{sem:?} plan {i}"));
        }
    }

    let got_sql = deterministic_answers(db, q).expect("sql");
    assert_bitwise(&got_sql, &oracle::sql(db, q), "deterministic SQL");
}
