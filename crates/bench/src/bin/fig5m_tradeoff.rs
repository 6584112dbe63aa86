//! Figure 5m / Result 6: the regime map between dissociation and Monte
//! Carlo — for which `(avg[d], avg[pi])` does MC(x) produce a better
//! expected ranking than dissociation?
//!
//! Like the paper, the map is derived from *per-plan* ranking quality (the
//! Figure 5l setup: the plan dissociating `R` on `y`, whose `avg[d]` is
//! the controlled degree), compared against MC at growing sample budgets.
//!
//! `cargo run --release -p lapush-bench --bin fig5m_tradeoff`

use lapush_bench::report::Metric;
use lapush_bench::{
    ap_against, checksum_strings, controlled_rst_db, print_table, scale, Bench, Scale,
};
use lapushdb::core::delta_of_plan_id;
use lapushdb::prelude::*;
use lapushdb::rank::mean_std;
use lapushdb::{exact_answers, mc_answers};

fn main() {
    let (repeats, answers) = match scale() {
        Scale::Quick => (3usize, 15),
        Scale::Normal => (8, 25),
        Scale::Full => (20, 25),
    };
    let degrees = [1usize, 2, 3, 5, 7];
    let avg_pis = [0.05f64, 0.15, 0.25, 0.35, 0.45];
    let mc_budgets = [1_000usize, 3_000, 10_000];

    let mut bench = Bench::new("fig5m_tradeoff");
    bench.param("repeats", repeats);
    bench.param("answers", answers);

    let mut rows = Vec::new();
    let mut winners = Vec::new();
    for &avg_pi in &avg_pis {
        let mut cells = vec![format!("{avg_pi:.2}")];
        for &d in &degrees {
            let mut diss_aps = Vec::new();
            let mut mc_aps: Vec<Vec<f64>> = vec![Vec::new(); mc_budgets.len()];
            for rep in 0..repeats {
                let (db, q) = controlled_rst_db(answers, 3, d, 2.0 * avg_pi, 900 + rep as u64);
                let gt = exact_answers(&db, &q).expect("exact");
                // Per-plan quality: the R-dissociating plan (avg[d] = d).
                let shape = QueryShape::of_query(&q);
                let plans = minimal_plan_set(&shape);
                let r_plan = *plans
                    .roots
                    .iter()
                    .find(|&&p| {
                        delta_of_plan_id(&plans.store, p, &shape)
                            .map(|delta| !delta.0[0].is_empty())
                            .unwrap_or(false)
                    })
                    .expect("R-dissociating plan exists");
                let diss = eval_plan_id(&db, &q, &plans.store, r_plan, ExecOptions::default())
                    .expect("eval");
                diss_aps.push(ap_against(&diss, &gt, 10));
                for (i, &x) in mc_budgets.iter().enumerate() {
                    let mc = mc_answers(&db, &q, x, 31 + rep as u64, lapush_bench::threads())
                        .expect("mc");
                    mc_aps[i].push(ap_against(&mc, &gt, 10));
                }
            }
            let (diss_m, _) = mean_std(&diss_aps);
            // Smallest MC budget that beats dissociation, if any.
            let winner = mc_budgets
                .iter()
                .enumerate()
                .find(|(i, _)| mean_std(&mc_aps[*i]).0 > diss_m)
                .map(|(_, &x)| format!("MC({x})"))
                .unwrap_or_else(|| "diss".into());
            bench.push(Metric::value(
                format!("diss_map_pi{:02}_d{d}", (avg_pi * 100.0) as u32),
                diss_m,
            ));
            winners.push(format!("pi{avg_pi:.2}_d{d}:{winner}"));
            cells.push(format!("{winner} [{diss_m:.2}]"));
        }
        rows.push(cells);
    }
    bench.push(Metric::checksum("total", checksum_strings(&winners)));
    print_table(
        "Figure 5m: winner per (avg[pi], avg[d]) cell [dissociation MAP]",
        &["avg[pi]", "d=1", "d=2", "d=3", "d=5", "d=7"],
        &rows,
    );
    println!("\nExpected shape: dissociation wins everywhere except the");
    println!("upper-right region (large avg[d] AND large avg[pi]), where");
    println!("sufficiently many MC samples overtake it — the paper's");
    println!("boundary curves for MC(1k)/MC(3k)/MC(10k).");
    bench.finish();
}
