//! Figures 5a–5c: run time vs. database size for chain and star queries,
//! comparing all-plans evaluation, Optimizations 1 / 1-2 / 1-3, and the
//! deterministic-SQL baseline.
//!
//! `cargo run --release -p lapush-bench --bin fig5_runtime -- --family chain --k 4`
//! `cargo run --release -p lapush-bench --bin fig5_runtime -- --family chain --k 7`
//! `cargo run --release -p lapush-bench --bin fig5_runtime -- --family star  --k 2`
//!
//! Domain sizes are calibrated like the paper's: chains keep the answer
//! cardinality roughly constant (20–50); stars keep the Boolean answer
//! probability in [0.90, 0.95].

use lapush_bench::report::Metric;
use lapush_bench::{
    arg, checksum_answers, measure, print_table, run_method, scale, Bench, Method, Scale,
};
use lapushdb::workload::{
    chain_db, chain_query, find_chain_domain, find_star_domain, star_db, star_query,
};
use lapushdb::{rank_by_dissociation, RankOptions};

fn main() {
    let family = arg("family").unwrap_or_else(|| "chain".into());
    let k: usize = arg("k").and_then(|s| s.parse().ok()).unwrap_or(4);
    let sizes: Vec<usize> = match scale() {
        Scale::Quick => vec![100, 1_000],
        Scale::Normal => vec![100, 1_000, 10_000, 100_000],
        Scale::Full => vec![100, 1_000, 10_000, 100_000, 1_000_000],
    };

    let mut bench = Bench::new(&format!("fig5_runtime_{family}_k{k}"));
    bench.param("family", &family);
    bench.param("k", k);

    let (q, title) = match family.as_str() {
        "chain" => (chain_query(k), format!("Figure 5a/b: {k}-chain query")),
        "star" => (star_query(k), format!("Figure 5c: {k}-star query")),
        other => panic!("unknown family `{other}` (chain|star)"),
    };
    println!("query: {}", q.display());

    let mut rows = Vec::new();
    for &n in &sizes {
        let db = match family.as_str() {
            "chain" => {
                let domain = find_chain_domain(k, n, 35.0);
                chain_db(k, n, domain, 1.0, 7 + n as u64).expect("chain db")
            }
            _ => {
                let domain = find_star_domain(k, n, 1.0, 0.92);
                star_db(k, n, domain, 1.0, 7 + n as u64).expect("star db")
            }
        };
        let mut cells = vec![n.to_string()];
        let mut answers = 0usize;
        for m in Method::all() {
            // The Opt1-2 series keeps its full answer set so the metric
            // carries a checksum of the actual ranked scores — a changed
            // score (not just a changed answer count) changes the file, at
            // no extra evaluation cost.
            let metric = if m == Method::Opt12 {
                let timed = measure::run(bench.spec(), || {
                    let opts = RankOptions {
                        threads: lapush_bench::threads(),
                        ..RankOptions::default()
                    };
                    rank_by_dissociation(&db, &q, opts).expect("diss")
                });
                answers = answers.max(timed.value.len());
                cells.push(format!("{:.2}", timed.median_ms()));
                Metric::value(format!("{}_n{n}", m.key()), timed.value.len() as f64)
                    .with_checksum(checksum_answers(&timed.value))
            } else {
                let timed = measure::run(bench.spec(), || run_method(&db, &q, m));
                answers = answers.max(timed.value);
                cells.push(format!("{:.2}", timed.median_ms()));
                Metric::value(format!("{}_n{n}", m.key()), timed.value as f64)
            };
            bench.push(metric);
        }
        cells.push(answers.to_string());
        rows.push(cells);
    }
    print_table(
        &title,
        &[
            "n/table",
            "all plans (ms)",
            "Opt1 (ms)",
            "Opt1-2 (ms)",
            "Opt1-3 (ms)",
            "SQL (ms)",
            "#answers",
        ],
        &rows,
    );
    println!("\nExpected shape (paper Figs. 5a–5c): Opt1-2 ≈ Opt1 ≤ all plans;");
    println!("Opt1-3 pays a constant reduction overhead that amortizes at");
    println!("larger n; all probabilistic methods trend toward a small");
    println!("constant factor over the deterministic SQL baseline.");
    bench.finish();
}
