//! Figure 5k / Result 5: ranking by lineage size works only when all
//! input tuples share one probability (`pi = const`); with heterogeneous
//! probabilities (`avg[pi] = const`, uniform draws) it degrades.
//!
//! `cargo run --release -p lapush-bench --bin fig5k_lineage_rank`

use lapush_bench::report::Metric;
use lapush_bench::{ap_against, avg_top_answer_prob, print_table, scale, Bench, Scale};
use lapushdb::prelude::*;
use lapushdb::rank::mean_std;
use lapushdb::workload::{tpch_db, tpch_query, TpchConfig};
use lapushdb::{exact_answers, lineage_stats};

fn set_constant_probs(db: &mut Database, p: f64) {
    let names: Vec<String> = db.relations().map(|(_, r)| r.name().to_string()).collect();
    for name in names {
        let rel = db.relation_by_name_mut(&name).expect("exists");
        for i in 0..rel.len() as u32 {
            rel.set_prob(i, p).expect("valid prob");
        }
    }
}

fn main() {
    let (repeats, suppliers, parts) = match scale() {
        Scale::Quick => (2usize, 120, 1_500),
        Scale::Normal => (6, 200, 3_000),
        Scale::Full => (15, 300, 6_000),
    };

    let mut bench = Bench::new("fig5k_lineage_rank");
    bench.param("repeats", repeats);
    bench.param("suppliers", suppliers);
    bench.param("parts", parts);

    // Series: (label, metric key, pi mode). Lineage sizes vary with $1.
    let series: [(&str, &str, Option<f64>, f64); 4] = [
        ("pi=0.1 (const)", "const01", Some(0.1), 0.0),
        ("pi=0.5 (const)", "const05", Some(0.5), 0.0),
        ("avg[pi]=0.1", "avg01", None, 0.2),
        ("avg[pi]=0.5", "avg05", None, 1.0),
    ];
    let p1_fracs = [0.25f64, 0.5, 1.0];

    let mut rows = Vec::new();
    let mut top10_ceiling = 0.0f64;
    for (label, key, const_p, pi_max) in series {
        let mut cells = vec![label.to_string()];
        for (fi, &frac) in p1_fracs.iter().enumerate() {
            let mut aps = Vec::new();
            let mut max_lin_seen = 0usize;
            for rep in 0..repeats {
                let cfg = TpchConfig {
                    suppliers,
                    parts,
                    pi_max: if const_p.is_some() { 0.5 } else { pi_max },
                    seed: 500 + rep as u64,
                };
                let mut db = tpch_db(cfg).expect("db");
                if let Some(p) = const_p {
                    set_constant_probs(&mut db, p);
                }
                let q = tpch_query((suppliers as f64 * frac) as i64, "%red%");
                let gt = exact_answers(&db, &q).expect("exact");
                if gt.len() < 5 {
                    continue;
                }
                top10_ceiling = top10_ceiling.max(avg_top_answer_prob(&gt, 10));
                let (lin, max_lin) = lineage_stats(&db, &q).expect("lineage");
                max_lin_seen = max_lin_seen.max(max_lin);
                aps.push(ap_against(&lin, &gt, 10));
            }
            let (m, _) = mean_std(&aps);
            bench.push(
                Metric::value(format!("map_{key}_frac{fi}"), m)
                    .with_checksum(lapush_bench::checksum_f64s(&aps)),
            );
            cells.push(format!("{m:.3} (lin≤{max_lin_seen})"));
        }
        rows.push(cells);
    }
    print_table(
        "Figure 5k: MAP@10 of ranking by lineage size",
        &["series", "$1=25%", "$1=50%", "$1=100%"],
        &rows,
    );
    println!("\nExpected shape: near-perfect MAP when every tuple has the");
    println!("same probability (output probability is then mostly a function");
    println!("of lineage size); clearly degraded MAP with uniform-random");
    println!("probabilities, regardless of lineage size.");
    println!("(ground-truth top-10 mean answer probability peaks at {top10_ceiling:.3})");
    bench.finish();
}
