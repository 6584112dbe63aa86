//! Setup 1 of the paper in miniature: rank the 25 TPC-H nations by the
//! probability that they host a supplier of a matching part, comparing
//! dissociation against exact inference, Monte Carlo, and lineage-size
//! ranking — with wall-clock times.
//!
//! Run with: `cargo run --release --example tpch_ranking [-- <$1> <$2>]`
//! e.g. `cargo run --release --example tpch_ranking -- 200 '%red%'`

use lapushdb::prelude::*;
use lapushdb::workload::{tpch_db, tpch_query, TpchConfig};
use lapushdb::{exact_answers, lineage_stats, mc_answers, rank_by_dissociation, RankOptions};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let param1: i64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(200);
    let param2: String = args.get(2).cloned().unwrap_or_else(|| "%red%".into());

    let cfg = TpchConfig {
        suppliers: 300,
        parts: 3000,
        pi_max: 0.4,
        seed: 7,
    };
    println!(
        "generating synthetic TPC-H: {} suppliers, {} parts, avg[pi] = {}",
        cfg.suppliers,
        cfg.parts,
        cfg.pi_max / 2.0
    );
    let db = tpch_db(cfg)?;
    let q = tpch_query(param1, &param2);
    println!("query: {}\n", q.display());

    // Dissociation (all optimizations).
    let t0 = Instant::now();
    let rho = rank_by_dissociation(
        &db,
        &q,
        RankOptions {
            opt: lapushdb::OptLevel::Opt123,
            use_schema: false,
            threads: 1,
            top_k: None,
        },
    )?;
    let t_diss = t0.elapsed();

    // Lineage (the minimum cost of *any* intensional method).
    let t0 = Instant::now();
    let (lin_sizes, max_lin) = lineage_stats(&db, &q)?;
    let t_lineage = t0.elapsed();

    // Exact ground truth.
    let t0 = Instant::now();
    let gt = exact_answers(&db, &q)?;
    let t_exact = t0.elapsed();

    // Monte Carlo with 1000 samples.
    let t0 = Instant::now();
    let mc = mc_answers(&db, &q, 1000, 99, 1)?;
    let t_mc = t0.elapsed();

    // Deterministic SQL baseline.
    let t0 = Instant::now();
    let det = deterministic_answers(&db, &q, 1)?;
    let t_sql = t0.elapsed();

    println!("answers: {} nations, max lineage size {max_lin}", gt.len());
    println!("\n{:<22} {:>12}", "method", "time");
    println!("{:<22} {:>12?}", "standard SQL", t_sql);
    println!("{:<22} {:>12?}", "dissociation (Opt123)", t_diss);
    println!("{:<22} {:>12?}", "lineage query", t_lineage);
    println!("{:<22} {:>12?}", "MC(1k)", t_mc);
    println!("{:<22} {:>12?}", "exact (WMC)", t_exact);

    // Ranking quality against the exact ground truth.
    let keys: Vec<_> = gt.rows.keys().cloned().collect();
    let truth: Vec<f64> = keys.iter().map(|k| gt.score_of(k)).collect();
    let ap = |sys: &AnswerSet| {
        let scores: Vec<f64> = keys.iter().map(|k| sys.score_of(k)).collect();
        average_precision_at_k(&scores, &truth, 10)
    };
    println!("\n{:<22} {:>8}", "method", "AP@10");
    println!("{:<22} {:>8.3}", "dissociation", ap(&rho));
    println!("{:<22} {:>8.3}", "MC(1k)", ap(&mc));
    println!("{:<22} {:>8.3}", "lineage size", ap(&lin_sizes));
    println!(
        "{:<22} {:>8.3}",
        "random baseline",
        random_baseline_ap(keys.len(), 10)
    );
    let _ = det;

    println!("\ntop-5 nations by propagation score:");
    for (key, score) in rho.ranked().into_iter().take(5) {
        println!(
            "  nation {:>2}  ρ = {:.6}   P = {:.6}",
            key[0],
            score,
            gt.score_of(&key)
        );
    }
    Ok(())
}
