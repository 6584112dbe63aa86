//! Figure 5j / Result 4: ranking quality as a function of the average
//! probability of the top-10 answers (`avg[pa]`). MC degrades toward the
//! random baseline as answer probabilities approach 0 or 1; dissociation
//! does not.
//!
//! `cargo run --release -p lapush-bench --bin fig5j_answer_prob`

use lapush_bench::report::Metric;
use lapush_bench::{
    ap_against, avg_top_answer_prob, checksum_f64s, print_table, scale, Bench, Scale,
};
use lapushdb::rank::mean_std;
use lapushdb::workload::{tpch_db, tpch_query, TpchConfig};
use lapushdb::{exact_answers, lineage_stats, mc_answers, rank_by_dissociation, RankOptions};

fn main() {
    let (runs, suppliers, parts) = match scale() {
        Scale::Quick => (6usize, 120, 1_500),
        Scale::Normal => (24, 200, 3_000),
        Scale::Full => (60, 300, 6_000),
    };

    let mut bench = Bench::new("fig5j_answer_prob");
    bench.param("runs", runs);
    bench.param("suppliers", suppliers);
    bench.param("parts", parts);

    // Buckets over avg[pa] (the paper uses a log-like scale toward 1).
    let edges = [0.0, 0.5, 0.9, 0.99, 0.999, 1.0001];
    let labels = ["<0.5", "0.5-0.9", "0.9-0.99", "0.99-0.999", ">0.999"];
    let methods = [
        "dissociation",
        "lineage",
        "MC(10)",
        "MC(100)",
        "MC(1k)",
        "MC(10k)",
    ];
    let metric_keys = ["diss", "lineage", "mc10", "mc100", "mc1k", "mc10k"];
    let mut acc: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); labels.len()]; methods.len()];

    for rep in 0..runs {
        // Sweep pi_max widely so answer probabilities cover (0, 1).
        let pi_max = 0.1 + 0.9 * (rep as f64 / runs.max(2) as f64);
        let cfg = TpchConfig {
            suppliers,
            parts,
            pi_max,
            seed: 300 + rep as u64,
        };
        let db = tpch_db(cfg).expect("db");
        // Wider $2 patterns produce larger lineages and higher avg[pa].
        let pattern = ["%red%green%", "%red%", "%re%"][rep % 3];
        let q = tpch_query((suppliers / 2) as i64, pattern);
        let gt = exact_answers(&db, &q).expect("exact");
        if gt.len() < 5 {
            continue;
        }
        let pa = avg_top_answer_prob(&gt, 10);
        if pa >= 0.999999 {
            continue; // paper filter: output probabilities too close to 1
        }
        let bucket = edges.iter().take_while(|&&e| pa >= e).count() - 1;
        let bucket = bucket.min(labels.len() - 1);

        let diss = rank_by_dissociation(&db, &q, RankOptions::default()).expect("diss");
        acc[0][bucket].push(ap_against(&diss, &gt, 10));
        let (lin, _) = lineage_stats(&db, &q).expect("lineage");
        acc[1][bucket].push(ap_against(&lin, &gt, 10));
        for (mi, &x) in [10usize, 100, 1_000, 10_000].iter().enumerate() {
            let mc = mc_answers(&db, &q, x, 17 + rep as u64, lapush_bench::threads()).expect("mc");
            acc[2 + mi][bucket].push(ap_against(&mc, &gt, 10));
        }
    }

    let mut rows = Vec::new();
    for (mi, m) in methods.iter().enumerate() {
        let mut cells = vec![m.to_string()];
        for (bi, bucket) in acc[mi].iter().enumerate() {
            if bucket.is_empty() {
                cells.push("-".into());
            } else {
                let (mean, _) = mean_std(bucket);
                bench.push(
                    Metric::value(format!("map_{}_bucket{bi}", metric_keys[mi]), mean)
                        .with_checksum(checksum_f64s(bucket)),
                );
                cells.push(format!("{mean:.3}"));
            }
        }
        rows.push(cells);
    }
    print_table(
        "Figure 5j: MAP@10 by avg[pa] of the top-10 answers",
        &[
            "method", labels[0], labels[1], labels[2], labels[3], labels[4],
        ],
        &rows,
    );
    println!("\nExpected shape: MC decays toward the random baseline (0.22)");
    println!("as avg[pa] → 1 (answers become indistinguishable to sampling);");
    println!("dissociation stays near 1 until probabilities saturate.");
    bench.finish();
}
