//! Figure 5d: run time vs. query size k for chain queries (k = 2..8),
//! with the number of minimal plans on the side — the paper's query
//! complexity experiment (the 8-chain has 429 minimal plans).
//!
//! `cargo run --release -p lapush-bench --bin fig5d_query_complexity`

use lapush_bench::report::Metric;
use lapush_bench::{arg, measure, print_table, run_method, scale, Bench, Method, Scale};
use lapushdb::core::count_minimal_plans;
use lapushdb::prelude::*;
use lapushdb::workload::{chain_db, chain_query, find_chain_domain};

fn main() {
    let n: usize = arg("n")
        .and_then(|s| s.parse().ok())
        .unwrap_or(match scale() {
            Scale::Quick => 1_000,
            Scale::Normal => 10_000,
            Scale::Full => 100_000,
        });
    let kmax: usize = arg("kmax").and_then(|s| s.parse().ok()).unwrap_or(8);
    println!("tuples per table: {n}");

    let mut bench = Bench::new("fig5d_query_complexity");
    bench.param("n", n);
    bench.param("kmax", kmax);

    let mut rows = Vec::new();
    for k in 2..=kmax {
        let q = chain_query(k);
        let shape = QueryShape::of_query(&q);
        let plans = count_minimal_plans(&shape);
        let domain = find_chain_domain(k, n, 35.0);
        let db = chain_db(k, n, domain, 1.0, 11 + k as u64).expect("chain db");
        bench.push(Metric::value(format!("k{k}_min_plans"), plans as f64));

        let mut cells = vec![k.to_string(), plans.to_string()];
        for m in Method::all() {
            let timed = measure::run(bench.spec(), || run_method(&db, &q, m));
            cells.push(format!("{:.2}", timed.median_ms()));
            bench.push(Metric::value(
                format!("{}_k{k}", m.key()),
                timed.value as f64,
            ));
        }
        rows.push(cells);
    }
    print_table(
        "Figure 5d: k-chain queries, runtime vs. query size",
        &[
            "k",
            "#min plans",
            "all plans (ms)",
            "Opt1 (ms)",
            "Opt1-2 (ms)",
            "Opt1-3 (ms)",
            "SQL (ms)",
        ],
        &rows,
    );
    println!("\nExpected shape (paper Fig. 5d): the all-plans series grows");
    println!("with the Catalan number of minimal plans (429 at k = 8), while");
    println!("Opt1-2/Opt1-3 stay within a small factor of deterministic SQL.");
    bench.finish();
}
