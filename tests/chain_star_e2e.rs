//! End-to-end checks on the paper's Setup 2 workloads (k-chain and k-star):
//! answer-set agreement across methods, upper bounds against exact
//! inference, and optimization equivalence at moderate scale.

use lapushdb::prelude::*;
use lapushdb::workload::{
    chain_db, chain_query, find_chain_domain, find_star_domain, star_db, star_query,
};
use lapushdb::{exact_answers, rank_by_dissociation, OptLevel, RankOptions};

#[test]
fn chain_answer_sets_agree_across_methods() {
    for k in [2usize, 3, 4, 5] {
        let n = 400;
        let domain = find_chain_domain(k, n, 30.0);
        let db = chain_db(k, n, domain, 1.0, 99 + k as u64).unwrap();
        let q = chain_query(k);

        let det = deterministic_answers(&db, &q).unwrap();
        let rho = rank_by_dissociation(&db, &q, RankOptions::default()).unwrap();
        assert_eq!(det.len(), rho.len(), "k={k}");
        for key in det.rows.keys() {
            let s = rho.score_of(key);
            assert!(s > 0.0 && s <= 1.0, "k={k}: score {s}");
        }
    }
}

#[test]
fn chain_rho_upper_bounds_exact_small_scale() {
    // Small n so the exact oracle stays fast; chains have path-shaped
    // co-occurrence, well within its reach.
    for k in [3usize, 5] {
        let n = 60;
        let domain = find_chain_domain(k, n, 15.0);
        let db = chain_db(k, n, domain, 0.8, 7 + k as u64).unwrap();
        let q = chain_query(k);
        let rho = rank_by_dissociation(&db, &q, RankOptions::default()).unwrap();
        let exact = exact_answers(&db, &q).unwrap();
        assert_eq!(rho.len(), exact.len());
        for (key, &r) in &rho.rows {
            let e = exact.score_of(key);
            assert!(r >= e - 1e-10, "k={k}: {r} < {e}");
        }
        // Note: with sparse data each answer's lineage is often read-once,
        // making ρ exact per answer — strict over-estimation is exercised
        // by the Example 17 tests instead.
    }
}

#[test]
fn chain_optimizations_agree_at_moderate_scale() {
    let k = 6;
    let n = 2_000;
    let domain = find_chain_domain(k, n, 35.0);
    let db = chain_db(k, n, domain, 1.0, 31).unwrap();
    let q = chain_query(k);
    let base = rank_by_dissociation(
        &db,
        &q,
        RankOptions {
            opt: OptLevel::MultiPlan,
            use_schema: false,
            top_k: None,
            ..RankOptions::default()
        },
    )
    .unwrap();
    for opt in [OptLevel::Opt1, OptLevel::Opt12, OptLevel::Opt123] {
        let got = rank_by_dissociation(
            &db,
            &q,
            RankOptions {
                opt,
                use_schema: false,
                top_k: None,
                ..RankOptions::default()
            },
        )
        .unwrap();
        assert_eq!(got.len(), base.len(), "{opt:?}");
        for (key, &s) in &base.rows {
            assert!(
                (got.score_of(key) - s).abs() < 1e-9,
                "{opt:?}: {} vs {}",
                got.score_of(key),
                s
            );
        }
    }
}

#[test]
fn star_boolean_probability_in_range() {
    for k in [2usize, 3] {
        let n = 300;
        let domain = find_star_domain(k, n, 1.0, 0.92);
        let db = star_db(k, n, domain, 1.0, 5 + k as u64).unwrap();
        let q = star_query(k);
        let rho = rank_by_dissociation(&db, &q, RankOptions::default())
            .unwrap()
            .boolean_score();
        assert!((0.0..=1.0).contains(&rho), "k={k}: {rho}");
    }
}

#[test]
fn star_rho_upper_bounds_exact_small_scale() {
    let k = 2;
    let db = star_db(k, 40, 25, 0.8, 13).unwrap();
    let q = star_query(k);
    let rho = rank_by_dissociation(&db, &q, RankOptions::default())
        .unwrap()
        .boolean_score();
    let exact = exact_answers(&db, &q).unwrap().boolean_score();
    assert!(rho >= exact - 1e-10, "{rho} < {exact}");
}

#[test]
fn chain_star_plan_counts_match_figure2_at_runtime() {
    use lapushdb::core::minimal_plan_set;
    let q7 = chain_query(7);
    let s7 = QueryShape::of_query(&q7);
    assert_eq!(minimal_plan_set(&s7).len(), 132);
    let q4s = star_query(4);
    let s4s = QueryShape::of_query(&q4s);
    assert_eq!(minimal_plan_set(&s4s).len(), 24);
}
