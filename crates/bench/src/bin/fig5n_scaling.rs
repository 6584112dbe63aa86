//! Figure 5n / Result 7: how much does the *exact* ranking change when
//! all input probabilities are scaled down by a factor `f`? With small
//! input probabilities the ranking is already stable; with large ones the
//! near-certain tuples lose their outsized influence.
//!
//! `cargo run --release -p lapush-bench --bin fig5n_scaling`

use lapush_bench::report::Metric;
use lapush_bench::{
    ap_against, checksum_f64s, controlled_rst_db, print_table, scale, Bench, Scale,
};
use lapushdb::exact_answers;
use lapushdb::rank::mean_std;

fn main() {
    let (repeats, answers) = match scale() {
        Scale::Quick => (3usize, 15),
        Scale::Normal => (10, 25),
        Scale::Full => (25, 25),
    };
    let factors = [0.8f64, 0.6, 0.4, 0.2, 0.1, 0.05, 0.01];
    let avg_pis = [0.1f64, 0.2, 0.3, 0.4, 0.5];

    let mut bench = Bench::new("fig5n_scaling");
    bench.param("repeats", repeats);
    bench.param("answers", answers);

    let mut rows = Vec::new();
    for &avg_pi in &avg_pis {
        let mut cells = vec![format!("avg[pi]={avg_pi}")];
        for (fi, &f) in factors.iter().enumerate() {
            let mut aps = Vec::new();
            for rep in 0..repeats {
                // avg[d] ≈ 3 as in the paper's setup for this experiment.
                let (db, q) = controlled_rst_db(answers, 3, 3, 2.0 * avg_pi, 1100 + rep as u64);
                let gt = exact_answers(&db, &q).expect("exact");
                let mut scaled = db.clone();
                scaled.scale_probs(f);
                let scaled_gt = exact_answers(&scaled, &q).expect("exact scaled");
                aps.push(ap_against(&scaled_gt, &gt, 10));
            }
            let (m, _) = mean_std(&aps);
            bench.push(
                Metric::value(format!("map_pi{:02}_f{fi}", (avg_pi * 10.0) as u32), m)
                    .with_checksum(checksum_f64s(&aps)),
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
        "Figure 5n: MAP@10 of exact ranking on f-scaled DB vs. ground truth",
        &header_refs,
        &rows,
    );
    println!("\nExpected shape: rows with small avg[pi] stay near 1 for all");
    println!("f; avg[pi]=0.5 drops noticeably once f < 1 but flattens out —");
    println!("scaling from f=0.2 to f=0.01 changes little (Result 7).");
    bench.finish();
}
