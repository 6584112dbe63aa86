//! Where the thread budget reaches: Monte Carlo sampling, and nothing of
//! an evaluation. Every plan, plan set, top-k pass and bounds pass runs on
//! the calling thread at any `threads`, however large its input.
//!
//! One test in a binary of its own: `pool::counters()` is process-wide,
//! so no other test may open scopes while this one reads them.

use lapushdb::core::minimal_plan_set;
use lapushdb::engine::pool;
use lapushdb::prelude::*;
use lapushdb::workload::{chain_db, chain_query};
use lapushdb::{bound_answers, mc_answers};

#[test]
fn threads_reach_only_monte_carlo() {
    // 30 000 rows per relation: well above the 8 192 rows from which
    // operators once split their sorts, scans and projections into tasks.
    let db = chain_db(4, 30_000, 30_000, 1.0, 41).expect("chain db");
    let q = chain_query(4);
    assert_eq!(minimal_plan_set(&QueryShape::of_query(&q)).len(), 5);
    let rank = |opt, top_k| {
        let opts = RankOptions {
            opt,
            threads: 4,
            top_k,
            ..RankOptions::default()
        };
        rank_by_dissociation(&db, &q, opts).expect("rank")
    };
    let evaluations: [(&str, &dyn Fn() -> usize); 4] = [
        ("single-plan rank", &|| rank(OptLevel::Opt12, None).len()),
        ("multi-plan rank", &|| rank(OptLevel::MultiPlan, None).len()),
        ("multi-plan top-10", &|| {
            rank(OptLevel::MultiPlan, Some(10)).len()
        }),
        ("bounds", &|| {
            bound_answers(&db, &q).expect("bounds").0.len()
        }),
    ];
    for (name, evaluate) in evaluations {
        let before = pool::counters();
        assert!(evaluate() > 0, "{name} is vacuous");
        assert_eq!(pool::counters(), before, "{name} opened a scope");
    }

    // Monte Carlo at 4 threads: one scope, one task per answer.
    let small = chain_db(3, 60, 20, 1.0, 43).expect("small chain db");
    let before = pool::counters();
    let answers = mc_answers(&small, &chain_query(3), 50, 7, 4).expect("mc");
    let after = pool::counters();
    assert!(answers.len() >= 2, "{} answers", answers.len());
    assert_eq!(after.scopes - before.scopes, 1, "scopes of Monte Carlo");
    assert_eq!(
        after.tasks - before.tasks,
        answers.len() as u64,
        "tasks of Monte Carlo"
    );
}
