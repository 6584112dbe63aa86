//! Top-k anytime ranking benchmark: bound-propagation pruning vs
//! exhaustive multi-plan ranking.
//!
//! For each workload — the 7-chain of Setup 2, the Boolean 4-star, and
//! the 4-atom TPC-H chain ranking (nation, date) pairs (`S ⋈ PS ⋈ L ⋈ O`,
//! five minimal plans, one answer group per surviving pair) — and
//! each k ∈ {1, 10, 100}, the full minimal plan set is evaluated twice:
//! exhaustively (`propagation_score_ids` + `ranked_top(k)`) and through
//! the anytime top-k driver (`propagation_score_topk`), which prunes
//! answer groups whose upper bound provably cannot reach the k-th best
//! lower bound after a single bounds pass over the cheapest plan. After
//! every run the two rankings are asserted **bitwise equal**, key by key
//! and bit by bit — the speedup column is only meaningful because the
//! answers are indistinguishable.
//!
//! `cargo run --release -p lapush-bench --bin fig_topk -- --quick`
//!
//! Expected shape: the top-k driver wins biggest when k is far below the
//! answer count and the plan set is large (7-chain); the Boolean star has
//! a single answer, so top-k degrades to exhaustive evaluation there and
//! its rows double as an overhead measurement (speedup ≈ 1×).

use lapush_bench::measure::{self, MeasureSpec};
use lapush_bench::report::Metric;
use lapush_bench::{checksum_strings, print_table, scale, threads, Bench, Scale};
use lapushdb::core::{minimal_plan_set_opts, EnumOptions, SchemaInfo};
use lapushdb::engine::{propagation_score_ids, propagation_score_topk, ExecOptions};
use lapushdb::workload::{
    chain_db, chain_query, find_chain_domain, star_db, star_query, tpch_chain_db,
    tpch_chain_query_pairs, TpchConfig,
};

/// Ranking depths, smallest first — k = 1 is the pure anytime regime,
/// k = 100 usually exceeds the answer count (degraded mode).
const KS: &[usize] = &[1, 10, 100];

fn main() {
    let (chain_n, star_n, suppliers, parts) = match scale() {
        Scale::Quick => (300usize, 300usize, 120usize, 1_500usize),
        Scale::Normal => (1_000, 1_000, 200, 3_000),
        Scale::Full => (4_000, 4_000, 400, 8_000),
    };

    let mut bench = Bench::new("fig_topk");
    bench.param("chain_n", chain_n);
    bench.param("star_n", star_n);
    bench.param("suppliers", suppliers);
    bench.param("parts", parts);
    bench.param("ks", format!("{KS:?}"));
    // Speedup ratios need stable medians more than the default
    // scale-driven spec provides (Normal runs everything once); each
    // evaluation here is a few milliseconds, so extra iterations are
    // cheap insurance against a noisy ratio.
    let spec = MeasureSpec {
        warmup: 1,
        iters: 5,
    };

    let chain = {
        let domain = find_chain_domain(7, chain_n, 35.0);
        let db = chain_db(7, chain_n, domain, 0.5, 23).expect("chain db");
        ("chain_k7", db, chain_query(7))
    };
    let star = {
        let db = star_db(4, star_n, (star_n as i64 / 4).max(4), 0.5, 29).expect("star db");
        ("star_k4", db, star_query(4))
    };
    let tpch = {
        // Rank (nation, date) pairs — thousands of answer groups with
        // small, dispersed lineages (the wide date domain spreads the
        // chains thin), so the [lo, hi] intervals separate answers and
        // the bounds pass has something to prune; dense per-answer
        // lineages would saturate every upper bound and degrade to
        // exhaustive. Head variables on both chain ends let the survivor
        // filters semi-join down every atom of the remaining plans.
        let cfg = TpchConfig {
            suppliers,
            parts,
            pi_max: 0.9,
            seed: 31,
        };
        // A big, mostly-childless order table makes `O` the dominant join
        // input — exactly the relation the survivor filter restricts.
        let db = tpch_chain_db(cfg, 2, parts * 10).expect("tpch chain db");
        ("tpch_chain", db, tpch_chain_query_pairs(suppliers as i64))
    };

    let exec = ExecOptions {
        threads: threads(),
        ..ExecOptions::default()
    };
    let mut rows = Vec::new();
    for (name, db, q) in [chain, star, tpch] {
        let schema = SchemaInfo::from_query(&q);
        let set = minimal_plan_set_opts(&q, &schema, EnumOptions::default());
        let full_t = measure::run(spec, || {
            propagation_score_ids(&db, &q, &set.store, &set.roots, exec).expect("exhaustive")
        });
        let full_ms = full_t.median_ms();
        let full = full_t.value;
        println!(
            "{name}: {} plans, {} answers, exhaustive median {full_ms:.3} ms",
            set.roots.len(),
            full.len(),
        );

        for &k in KS {
            let top_t = measure::run(spec, || {
                propagation_score_topk(&db, &q, &set.store, &set.roots, k, exec).expect("topk")
            });
            let top_ms = top_t.median_ms();
            let res = top_t.value;

            // The gate that makes the timing meaningful: the pruned
            // ranking must be bit-identical to the exhaustive prefix.
            let want = full.ranked_top(k);
            assert_eq!(res.ranked.len(), want.len(), "{name} k={k}: length");
            for (i, ((gk, gs), (wk, ws))) in res.ranked.iter().zip(want.iter()).enumerate() {
                assert_eq!(gk, wk, "{name} k={k} rank {i}: keys diverge");
                assert_eq!(
                    gs.to_bits(),
                    ws.to_bits(),
                    "{name} k={k} rank {i}: scores diverge"
                );
            }
            let lines: Vec<String> = res
                .ranked
                .iter()
                .map(|(key, s)| {
                    let key_text = key
                        .iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join(",");
                    format!("{key_text}\t{s:.9e}")
                })
                .collect();

            bench.push(
                Metric::value(format!("pruned_{name}_k{k}"), res.stats.pruned as f64)
                    .with_checksum(checksum_strings(&lines)),
            );
            let speedup = full_ms / top_ms.max(1e-6);
            rows.push(vec![
                name.to_string(),
                k.to_string(),
                format!("{full_ms:.3}"),
                format!("{top_ms:.3}"),
                format!("{speedup:.1}x"),
                res.stats.pruned.to_string(),
                res.stats.evaluated.to_string(),
            ]);
        }
    }

    print_table(
        "anytime top-k vs exhaustive multi-plan ranking",
        &[
            "workload",
            "k",
            "exhaustive (ms)",
            "top-k (ms)",
            "speedup",
            "pruned",
            "evaluated",
        ],
        &rows,
    );
    println!("\nExpected shape: large speedups at small k on the multi-plan");
    println!("workloads (pruning shrinks every plan after the first), fading");
    println!("toward 1x as k approaches the answer count; the Boolean star is");
    println!("the degraded-mode overhead check (speedup near 1x throughout).");
    bench.finish();
}
