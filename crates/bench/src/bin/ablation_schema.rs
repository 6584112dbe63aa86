//! Ablation: how much does schema knowledge (Section 3.3) shrink the plan
//! space? For a set of queries with deterministic relations and FDs,
//! report the number of minimal plans under each knowledge level — the
//! quantitative counterpart of the paper's Figure 3 discussion.
//!
//! `cargo run --release -p lapush-bench --bin ablation_schema`

use lapush_bench::report::Metric;
use lapush_bench::{checksum_strings, print_table, Bench};
use lapushdb::prelude::*;
use lapushdb::query::{VarFd, VarSet};

/// (label, metric key, query text, optional FD as (lhs var, rhs var)).
type Case = (
    &'static str,
    &'static str,
    &'static str,
    Option<(&'static str, &'static str)>,
);

fn main() {
    let mut bench = Bench::new("ablation_schema");

    let cases: Vec<Case> = vec![
        // (label, key, query text, optional FD "on atom var→var")
        ("Ex. 23 (T det)", "ex23", "q :- R(x), S(x, y), T^d(y)", None),
        (
            "Fig. 3c (R,T det)",
            "fig3c",
            "q :- R^d(x), S(x, y), T^d(y)",
            None,
        ),
        (
            "FD x→y on S",
            "fd_xy",
            "q :- R(x), S(x, y), T(y)",
            Some(("x", "y")),
        ),
        (
            "4-chain, R4 det",
            "chain4_det",
            "q(x0, x4) :- R1(x0,x1), R2(x1,x2), R3(x2,x3), R4^d(x3,x4)",
            None,
        ),
        (
            "5-chain, mid det",
            "chain5_det",
            "q(x0, x5) :- R1(x0,x1), R2(x1,x2), R3^d(x2,x3), R4(x3,x4), R5(x4,x5)",
            None,
        ),
        (
            "Ex. 29, M det",
            "ex29",
            "q :- R(x, z), S(y, u), T(z), U(u), M^d(x, y, z, u)",
            None,
        ),
    ];

    let mut rows = Vec::new();
    let mut table = Vec::new();
    for (label, key, text, fd) in &cases {
        let q = parse_query(text).expect("valid query");
        let mut schema = SchemaInfo::from_query(&q);
        if let Some((lhs, rhs)) = fd {
            schema.fds.push(VarFd {
                lhs: VarSet::single(q.var_by_name(lhs).expect("var")),
                rhs: VarSet::single(q.var_by_name(rhs).expect("var")),
            });
        }
        let none = minimal_plan_set_opts(&q, &schema, EnumOptions::default()).len();
        let dr = minimal_plan_set_opts(
            &q,
            &schema,
            EnumOptions {
                use_deterministic: true,
                use_fds: false,
            },
        )
        .len();
        let full = minimal_plan_set_opts(&q, &schema, EnumOptions::full()).len();
        table.push((label.to_string(), key.to_string(), none, dr, full));
    }
    for (label, key, none, dr, full) in &table {
        bench.push(Metric::value(format!("{key}_plans_none"), *none as f64));
        bench.push(Metric::value(format!("{key}_plans_full"), *full as f64));
        rows.push(vec![
            label.clone(),
            none.to_string(),
            dr.to_string(),
            full.to_string(),
            if *full == 1 {
                "SAFE".into()
            } else {
                "-".to_string()
            },
        ]);
    }
    bench.push(
        Metric::value("cases", table.len() as f64).with_checksum(checksum_strings(
            table
                .iter()
                .map(|(_, key, none, dr, full)| format!("{key}|{none}|{dr}|{full}")),
        )),
    );
    print_table(
        "Ablation: minimal plans under schema knowledge",
        &["query", "no knowledge", "+DR", "+DR+FD", "exact?"],
        &rows,
    );
    println!("\nA single remaining plan means the query is safe given the");
    println!("schema knowledge and ρ(q) = P(q) (Theorems 24/27).");
    bench.finish();
}
