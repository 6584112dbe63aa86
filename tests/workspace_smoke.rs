//! Workspace wiring smoke test: one end-to-end path across every crate
//! boundary, on the 3-chain query from the `lapushdb` crate docs.
//!
//! Each step goes through the umbrella crate's re-exports
//! (`lapushdb::prelude`, `lapushdb::core`, `lapushdb::lineage`,
//! `lapushdb::workload`, …), so a broken re-export or a severed path
//! dependency fails here first, with a readable error, instead of deep
//! inside a theorem test.

use lapushdb::core::{delta_of_plan_id, plan_id_for_dissociation};
use lapushdb::prelude::*;
use lapushdb::query::is_hierarchical;
use lapushdb::workload::{chain_db, chain_query};

/// The RST database from the crate-level quick start.
fn rst_db() -> Database {
    let mut db = Database::new();
    let r = db.create_relation("R", 1).unwrap();
    let s = db.create_relation("S", 2).unwrap();
    let t = db.create_relation("T", 1).unwrap();
    db.relation_mut(r)
        .push(Box::new([Value::Int(1)]), 0.5)
        .unwrap();
    db.relation_mut(s)
        .push(Box::new([Value::Int(1), Value::Int(2)]), 0.8)
        .unwrap();
    db.relation_mut(t)
        .push(Box::new([Value::Int(2)]), 0.4)
        .unwrap();
    db
}

#[test]
fn parse_plan_dissociate_rank_across_all_crates() {
    // storage + query: parse the 3-chain query against the RST database.
    let db = rst_db();
    let q = parse_query("q :- R(x), S(x, y), T(y)").expect("query crate: parser");
    let shape = QueryShape::of_query(&q);
    assert!(
        !is_hierarchical(&shape, &shape.all_atoms(), shape.head),
        "query crate: the 3-chain RST query must be non-hierarchical (#P-hard)"
    );

    // core: enumerate minimal plans; plans ↔ dissociations round-trip.
    let PlanSet { mut store, roots } = minimal_plan_set(&shape);
    assert_eq!(
        roots.len(),
        2,
        "core crate: RST has exactly two minimal safe dissociations"
    );
    for p in roots {
        let delta =
            delta_of_plan_id(&store, p, &shape).expect("core crate: plan has a dissociation");
        assert!(delta.is_safe(&shape), "core crate: dissociation is safe");
        let back = plan_id_for_dissociation(&mut store, &shape, &delta)
            .expect("core crate: dissociation maps back to a plan");
        assert_eq!(back, p, "core crate: Theorem 18 round-trip");
    }

    // engine (via the driver): propagation score ρ(q).
    let rho = rank_by_dissociation(&db, &q, RankOptions::default())
        .expect("engine crate: plan execution")
        .boolean_score();
    assert!(
        rho > 0.0 && rho <= 1.0,
        "engine crate: ρ in (0, 1], got {rho}"
    );

    // lineage: exact probability lower-bounds ρ (Corollary 19).
    let exact = exact_answers(&db, &q)
        .expect("lineage crate: exact WMC")
        .boolean_score();
    let expected = 0.5 * 0.8 * 0.4;
    assert!(
        (exact - expected).abs() < 1e-12,
        "lineage crate: single-derivation RST probability, got {exact}"
    );
    assert!(
        rho >= exact - 1e-12,
        "ρ = {rho} must upper-bound P = {exact}"
    );

    // rank: a self-ranking has perfect AP@k.
    let ap = average_precision_at_k(&[rho], &[exact], 1);
    assert!(
        (ap - 1.0).abs() < 1e-12,
        "rank crate: AP@1 of identical rankings, got {ap}"
    );
}

#[test]
fn workload_generators_feed_the_same_pipeline() {
    // workload: a seeded 3-chain instance through the full scoring path.
    let q = chain_query(3);
    let db = chain_db(3, 12, 4, 1.0, 42).expect("workload crate: chain_db");
    assert_eq!(db.relation_count(), 3, "workload crate: R1..R3 created");

    let rho = rank_by_dissociation(&db, &q, RankOptions::default())
        .expect("driver: dissociation ranking on generated workload");
    let exact = exact_answers(&db, &q).expect("driver: exact oracle on generated workload");
    assert_eq!(
        rho.len(),
        exact.len(),
        "both methods must return the same answer set"
    );
    for (key, &r) in &rho.rows {
        let e = exact.score_of(key);
        assert!(
            r >= e - 1e-9,
            "per-answer upper bound violated: ρ = {r} < P = {e} for {key:?}"
        );
    }
}
