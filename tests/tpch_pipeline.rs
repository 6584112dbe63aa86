//! End-to-end smoke test of the TPC-H-style ranking pipeline (Setup 1):
//! generate the synthetic database, run the parameterized query under all
//! methods, and check the paper's qualitative claims at small scale.

use lapushdb::prelude::*;
use lapushdb::workload::{tpch_db, tpch_query, TpchConfig};
use lapushdb::{exact_answers, lineage_stats, mc_answers, rank_by_dissociation, RankOptions};

fn small_cfg() -> TpchConfig {
    TpchConfig {
        suppliers: 150,
        parts: 1200,
        pi_max: 0.4,
        seed: 2024,
    }
}

#[test]
fn pipeline_produces_nation_ranking() {
    let db = tpch_db(small_cfg()).unwrap();
    let q = tpch_query(150, "%red%");
    let shape = QueryShape::of_query(&q);
    // The query is unsafe with exactly two minimal plans (S-dissociating
    // and P-dissociating), as stated in Setup 1.
    assert_eq!(lapushdb::core::minimal_plan_set(&shape).len(), 2);

    let rho = rank_by_dissociation(&db, &q, RankOptions::default()).unwrap();
    assert!(!rho.is_empty());
    assert!(rho.len() <= 25); // at most 25 nations
    for &s in rho.rows.values() {
        assert!((0.0..=1.0).contains(&s));
    }
}

#[test]
fn dissociation_ranks_like_exact_ground_truth() {
    let db = tpch_db(small_cfg()).unwrap();
    let q = tpch_query(150, "%red%");
    let rho = rank_by_dissociation(&db, &q, RankOptions::default()).unwrap();
    let gt = exact_answers(&db, &q).unwrap();
    assert_eq!(rho.len(), gt.len());

    let keys: Vec<_> = gt.rows.keys().cloned().collect();
    let sys: Vec<f64> = keys.iter().map(|k| rho.score_of(k)).collect();
    let truth: Vec<f64> = keys.iter().map(|k| gt.score_of(k)).collect();

    // Upper bound per answer.
    for (s, t) in sys.iter().zip(&truth) {
        assert!(s >= &(t - 1e-10));
    }
    // High ranking quality (paper reports MAP ≈ 1 for dissociation).
    let ap = average_precision_at_k(&sys, &truth, 10);
    assert!(ap > 0.9, "AP@10 = {ap}");
}

#[test]
fn mc_needs_many_samples_to_match_dissociation() {
    let db = tpch_db(small_cfg()).unwrap();
    let q = tpch_query(150, "%red%");
    let gt = exact_answers(&db, &q).unwrap();
    let keys: Vec<_> = gt.rows.keys().cloned().collect();
    let truth: Vec<f64> = keys.iter().map(|k| gt.score_of(k)).collect();

    let rho = rank_by_dissociation(&db, &q, RankOptions::default()).unwrap();
    let diss: Vec<f64> = keys.iter().map(|k| rho.score_of(k)).collect();
    let ap_diss = average_precision_at_k(&diss, &truth, 10);

    let mc10 = mc_answers(&db, &q, 10, 7, 1).unwrap();
    let mc10_scores: Vec<f64> = keys.iter().map(|k| mc10.score_of(k)).collect();
    let ap_mc10 = average_precision_at_k(&mc10_scores, &truth, 10);

    let mc3k = mc_answers(&db, &q, 3000, 7, 1).unwrap();
    let mc3k_scores: Vec<f64> = keys.iter().map(|k| mc3k.score_of(k)).collect();
    let ap_mc3k = average_precision_at_k(&mc3k_scores, &truth, 10);

    // MC improves with samples; dissociation at least matches MC(3k)
    // (Result 3: dissociation > MC > lineage).
    assert!(ap_mc3k > ap_mc10, "MC(3k) {ap_mc3k} vs MC(10) {ap_mc10}");
    assert!(
        ap_diss >= ap_mc3k - 0.05,
        "diss {ap_diss} vs MC(3k) {ap_mc3k}"
    );
}

#[test]
fn lineage_size_ranking_is_weaker() {
    let db = tpch_db(small_cfg()).unwrap();
    let q = tpch_query(150, "%red%");
    let gt = exact_answers(&db, &q).unwrap();
    let keys: Vec<_> = gt.rows.keys().cloned().collect();
    let truth: Vec<f64> = keys.iter().map(|k| gt.score_of(k)).collect();

    let rho = rank_by_dissociation(&db, &q, RankOptions::default()).unwrap();
    let diss: Vec<f64> = keys.iter().map(|k| rho.score_of(k)).collect();

    let (lin, max_lin) = lineage_stats(&db, &q).unwrap();
    let lin_scores: Vec<f64> = keys.iter().map(|k| lin.score_of(k)).collect();
    assert!(max_lin >= 1);

    let ap_diss = average_precision_at_k(&diss, &truth, 10);
    let ap_lin = average_precision_at_k(&lin_scores, &truth, 10);
    assert!(
        ap_diss >= ap_lin,
        "dissociation {ap_diss} should beat lineage-size {ap_lin}"
    );
}

#[test]
fn selectivity_parameters_shrink_lineage() {
    let db = tpch_db(small_cfg()).unwrap();
    let (_, lin_all) = lineage_stats(&db, &tpch_query(150, "%")).unwrap();
    let (_, lin_red) = lineage_stats(&db, &tpch_query(150, "%red%")).unwrap();
    let (_, lin_rg) = lineage_stats(&db, &tpch_query(150, "%red%green%")).unwrap();
    assert!(lin_all >= lin_red);
    assert!(lin_red >= lin_rg);

    let (_, lin_small_s) = lineage_stats(&db, &tpch_query(30, "%")).unwrap();
    assert!(lin_all >= lin_small_s);
}

#[test]
fn deterministic_sql_baseline_agrees_on_answer_set() {
    let db = tpch_db(small_cfg()).unwrap();
    let q = tpch_query(150, "%red%");
    let det = deterministic_answers(&db, &q, 1).unwrap();
    let rho = rank_by_dissociation(&db, &q, RankOptions::default()).unwrap();
    assert_eq!(det.len(), rho.len());
    for key in det.rows.keys() {
        assert!(rho.rows.contains_key(key));
    }
}
