//! Figure 5p / Result 8: the expected quality of dissociation under
//! heavy dissociation degrades not to random ranking but to "ranking by
//! relative input weights": as f → 0, dissociation on the scaled database
//! approaches the scaled ground truth (Prop. 21), which itself approaches
//! the relative-weight ranking of the original ground truth.
//!
//! Series (all MAP@10): scaled-diss vs. scaled-GT; scaled-diss vs. GT;
//! scaled-GT vs. GT; lineage-size vs. scaled-GT.
//!
//! `cargo run --release -p lapush-bench --bin fig5p_scaled_dissociation`

use lapush_bench::report::Metric;
use lapush_bench::{
    ap_against, checksum_f64s, controlled_rst_db, print_table, scale, Bench, Scale,
};
use lapushdb::rank::mean_std;
use lapushdb::{exact_answers, lineage_stats, rank_by_dissociation, RankOptions};

fn main() {
    let (repeats, answers) = match scale() {
        Scale::Quick => (3usize, 15),
        Scale::Normal => (10, 25),
        Scale::Full => (25, 25),
    };
    let factors = [1.0f64, 0.6, 0.3, 0.1, 0.03, 0.01];

    let mut bench = Bench::new("fig5p_scaled_dissociation");
    bench.param("repeats", repeats);
    bench.param("answers", answers);

    let series = [
        "scaled-diss vs scaled-GT",
        "scaled-diss vs GT",
        "scaled-GT vs GT",
        "lineage vs scaled-GT",
    ];
    let series_keys = ["sdiss_sgt", "sdiss_gt", "sgt_gt", "lin_sgt"];
    let mut acc: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); factors.len()]; series.len()];

    for rep in 0..repeats {
        // Substantial dissociation (avg[d] ≈ 4) and large probabilities:
        // the regime where unscaled dissociation struggles.
        let (db, q) = controlled_rst_db(answers, 3, 4, 1.0, 1500 + rep as u64);
        let gt = exact_answers(&db, &q).expect("exact");
        let (lin, _) = lineage_stats(&db, &q).expect("lineage");

        for (fi, &f) in factors.iter().enumerate() {
            let mut scaled = db.clone();
            scaled.scale_probs(f);
            let scaled_gt = exact_answers(&scaled, &q).expect("exact scaled");
            let scaled_diss =
                rank_by_dissociation(&scaled, &q, RankOptions::default()).expect("diss");

            acc[0][fi].push(ap_against(&scaled_diss, &scaled_gt, 10));
            acc[1][fi].push(ap_against(&scaled_diss, &gt, 10));
            acc[2][fi].push(ap_against(&scaled_gt, &gt, 10));
            acc[3][fi].push(ap_against(&lin, &scaled_gt, 10));
        }
    }

    let mut rows = Vec::new();
    for (si, s) in series.iter().enumerate() {
        let mut cells = vec![s.to_string()];
        for (fi, samples) in acc[si].iter().enumerate() {
            let (m, _) = mean_std(samples);
            bench.push(
                Metric::value(format!("map_{}_f{fi}", series_keys[si]), m)
                    .with_checksum(checksum_f64s(samples)),
            );
            cells.push(format!("{m:.3}"));
        }
        rows.push(cells);
    }
    let header: Vec<String> = std::iter::once("series".to_string())
        .chain(factors.iter().map(|f| format!("f={f}")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    print_table(
        "Figure 5p: scaling and dissociation quality",
        &header_refs,
        &rows,
    );
    println!("\nExpected shape: 'scaled-diss vs scaled-GT' → 1 as f → 0");
    println!("(Prop. 21); 'scaled-diss vs GT' approaches 'scaled-GT vs GT'");
    println!("from above — i.e. dissociation under heavy scaling degrades to");
    println!("ranking by relative input weights, not to random; lineage-size");
    println!("ranking stays clearly below.");
    bench.finish();
}
