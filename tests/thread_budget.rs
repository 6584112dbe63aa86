//! Where the thread budget reaches: the engine's loop over minimal-plan
//! roots, and nothing else of an evaluation. Every operator runs on the
//! calling thread at any `threads`, however large its input.
//!
//! One test in a binary of its own: `pool::counters()` is process-wide,
//! so no other test may open scopes while this one reads them.

use lapushdb::core::minimal_plan_set;
use lapushdb::engine::pool;
use lapushdb::prelude::*;
use lapushdb::workload::{chain_db, chain_query};

#[test]
fn threads_reach_only_the_loop_over_minimal_plans() {
    // 30 000 rows per relation: well above the 8 192 rows from which
    // operators once split their sorts, scans and projections into tasks.
    let db = chain_db(4, 30_000, 30_000, 1.0, 41).expect("chain db");
    let rank = |q: &Query, opt| {
        let opts = RankOptions {
            opt,
            threads: 4,
            ..RankOptions::default()
        };
        rank_by_dissociation(&db, q, opts).expect("rank")
    };

    // One plan: no root loop, so no scope at all.
    let before = pool::counters();
    let single = rank(&chain_query(3), OptLevel::Opt12);
    assert!(!single.is_empty());
    assert_eq!(
        pool::counters(),
        before,
        "a single-plan rank opened a scope"
    );

    // Five minimal plans: the four roots after the first run as one scope
    // of one task each, and no operator inside them opens another.
    let q = chain_query(4);
    assert_eq!(minimal_plan_set(&QueryShape::of_query(&q)).len(), 5);
    let before = pool::counters();
    let multi = rank(&q, OptLevel::MultiPlan);
    assert!(!multi.is_empty());
    let after = pool::counters();
    assert_eq!(
        after.scopes - before.scopes,
        1,
        "scopes of a multi-plan rank"
    );
    assert_eq!(after.tasks - before.tasks, 4, "tasks of a multi-plan rank");
}
