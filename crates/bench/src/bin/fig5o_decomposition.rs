//! Figure 5o / Result 7: decomposing ranking quality into its information
//! sources. Between the random baseline (MAP ≈ 0.22) and exact inference
//! (MAP = 1), how much is explained by lineage size alone, how much by
//! the *relative weights* of input tuples (the f → 0 scaled ranking), and
//! how much by the actual probabilities?
//!
//! Paper: 38% lineage size, +47% relative weights, +15% probabilities.
//!
//! `cargo run --release -p lapush-bench --bin fig5o_decomposition`

use lapush_bench::report::Metric;
use lapush_bench::{
    ap_against, checksum_f64s, controlled_rst_db, print_table, scale, Bench, Scale,
};
use lapushdb::rank::{mean_std, random_baseline_ap};
use lapushdb::{exact_answers, lineage_stats};

fn main() {
    let (repeats, answers) = match scale() {
        Scale::Quick => (4usize, 15),
        Scale::Normal => (12, 25),
        Scale::Full => (30, 25),
    };

    let mut bench = Bench::new("fig5o_decomposition");
    bench.param("repeats", repeats);
    bench.param("answers", answers);

    let mut ap_lineage = Vec::new();
    let mut ap_weights = Vec::new();
    for rep in 0..repeats {
        // avg[pi] = 0.25, avg[d] ≈ 3 (the paper uses avg[pi] up to 0.5).
        let (db, q) = controlled_rst_db(answers, 3, 3, 0.5, 1300 + rep as u64);
        let gt = exact_answers(&db, &q).expect("exact");

        let (lin, _) = lineage_stats(&db, &q).expect("lineage");
        ap_lineage.push(ap_against(&lin, &gt, 10));

        // "Relative input weights": exact ranking on a strongly scaled DB.
        let mut scaled = db.clone();
        scaled.scale_probs(0.01);
        let scaled_gt = exact_answers(&scaled, &q).expect("exact scaled");
        ap_weights.push(ap_against(&scaled_gt, &gt, 10));
    }

    let random = random_baseline_ap(answers, 10);
    let (lin_m, _) = mean_std(&ap_lineage);
    let (w_m, _) = mean_std(&ap_weights);
    let exact_m = 1.0;
    bench.push(Metric::value("map_random", random));
    bench.push(Metric::value("map_lineage", lin_m).with_checksum(checksum_f64s(&ap_lineage)));
    bench.push(Metric::value("map_weights", w_m).with_checksum(checksum_f64s(&ap_weights)));

    let span = exact_m - random;
    let pct = |lo: f64, hi: f64| format!("{:.0}%", 100.0 * (hi - lo) / span);

    print_table(
        "Figure 5o: MAP@10 decomposition",
        &["ranking signal", "MAP@10", "increment", "paper"],
        &[
            vec![
                "random baseline".into(),
                format!("{random:.3}"),
                "-".into(),
                "0.220".into(),
            ],
            vec![
                "lineage size".into(),
                format!("{lin_m:.3}"),
                pct(random, lin_m),
                "0.515 (38%)".into(),
            ],
            vec![
                "relative input weights".into(),
                format!("{w_m:.3}"),
                pct(lin_m, w_m),
                "0.879 (47%)".into(),
            ],
            vec![
                "exact probabilities".into(),
                format!("{exact_m:.3}"),
                pct(w_m, exact_m),
                "1.000 (15%)".into(),
            ],
        ],
    );
    println!("\nExpected shape: lineage size alone recovers roughly a third");
    println!("of the ranking signal; adding relative input weights most of");
    println!("the rest; the residual is the actual probability magnitudes.");
    bench.finish();
}
