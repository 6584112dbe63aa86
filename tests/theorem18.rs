//! Theorem 18(2): for every safe dissociation `Δ`,
//! `P(q^Δ) = score(P_Δ)` — the extensional score of the (stripped) safe
//! plan on the *original* database equals the exact probability of the
//! dissociated query on the *materialized* dissociated database of
//! Definition 10.
//!
//! This validates the entire pipeline: plan enumeration, the
//! plan↔dissociation maps, the executor's score semantics, lineage
//! construction, and the exact model counter — against each other.

mod common;

use common::materialize_dissociation;
use lapushdb::core::{all_plan_ids, delta_of_plan_id};
use lapushdb::prelude::*;
use lapushdb::workload::{random_db_for_query, random_query};

fn check_query_on_db(q: &Query, db: &Database, tol: f64) {
    let shape = QueryShape::of_query(q);
    let set = minimal_plan_set(&shape);
    for &plan in &set.roots {
        let scores =
            eval_plan_id(db, q, &set.store, plan, ExecOptions::default()).expect("eval ok");
        let delta = delta_of_plan_id(&set.store, plan, &shape).expect("pure plan");
        let (diss_db, diss_q) = materialize_dissociation(db, q, &delta);
        let exact = exact_answers(&diss_db, &diss_q).expect("exact ok");
        assert_eq!(
            scores.len(),
            exact.len(),
            "answer sets differ for {q:?} / {delta:?}"
        );
        for (key, &s) in &scores.rows {
            let e = exact.score_of(key);
            assert!(
                (s - e).abs() < tol,
                "query {}, plan {:?}: score {} != dissociated exact {} on key {:?}",
                q.display(),
                delta,
                s,
                e,
                key
            );
        }
    }
}

#[test]
fn theorem18_on_paper_examples() {
    // Example 17 database and query.
    let mut db = Database::new();
    let r = db.create_relation("R", 1).unwrap();
    let s = db.create_relation("S", 1).unwrap();
    let t = db.create_relation("T", 2).unwrap();
    let u = db.create_relation("U", 1).unwrap();
    for x in [1, 2] {
        db.relation_mut(r)
            .push(Box::new([Value::Int(x)]), 0.5)
            .unwrap();
        db.relation_mut(s)
            .push(Box::new([Value::Int(x)]), 0.5)
            .unwrap();
        db.relation_mut(u)
            .push(Box::new([Value::Int(x)]), 0.5)
            .unwrap();
    }
    for (x, y) in [(1, 1), (1, 2), (2, 2)] {
        db.relation_mut(t)
            .push(Box::new([Value::Int(x), Value::Int(y)]), 0.5)
            .unwrap();
    }
    let q = parse_query("q :- R(x), S(x), T(x, y), U(y)").unwrap();
    check_query_on_db(&q, &db, 1e-10);
}

#[test]
fn theorem18_on_random_boolean_queries() {
    for seed in 0..25u64 {
        let q = random_query(seed, 2 + (seed % 3) as usize, 4);
        let db =
            random_db_for_query(&q, seed.wrapping_mul(31) + 1, 4, 3, 1.0).expect("db generation");
        check_query_on_db(&q, &db, 1e-9);
    }
}

#[test]
fn theorem18_on_non_boolean_queries() {
    for (text, seed) in [
        ("q(z) :- R0(z, x), R1(x, y), R2(y)", 3u64),
        ("q(x) :- R0(x), R1(x, y), R2(y, z), R3(z)", 4),
        ("q(a, b) :- R0(a, x), R1(x, b)", 5),
    ] {
        let q = parse_query(text).unwrap();
        let db = random_db_for_query(&q, seed, 5, 3, 1.0).expect("db generation");
        check_query_on_db(&q, &db, 1e-9);
    }
}

#[test]
fn all_plans_realize_their_dissociations() {
    // Same check over *all* plans (not just minimal) for a small query.
    let q = parse_query("q :- R0(x), R1(x, y), R2(y)").unwrap();
    let db = random_db_for_query(&q, 99, 4, 3, 1.0).unwrap();
    let shape = QueryShape::of_query(&q);
    let mut store = PlanStore::new();
    for plan in all_plan_ids(&mut store, &shape) {
        let scores = eval_plan_id(&db, &q, &store, plan, ExecOptions::default()).unwrap();
        let delta = delta_of_plan_id(&store, plan, &shape).unwrap();
        let (diss_db, diss_q) = materialize_dissociation(&db, &q, &delta);
        let exact = exact_answers(&diss_db, &diss_q).unwrap();
        assert!((scores.boolean_score() - exact.boolean_score()).abs() < 1e-10);
    }
}
