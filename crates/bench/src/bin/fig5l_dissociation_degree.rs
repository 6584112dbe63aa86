//! Figure 5l / Result 6: ranking quality of a *single* dissociation plan
//! as a function of the average number of dissociations per tuple
//! (`avg[d]`) and the average input probability (`avg[pi]`).
//!
//! Uses the controlled workload `q(z) :- R(z,x), S(x,y), T(y)` where the
//! plan dissociating `R` on `y` copies every R-tuple exactly `degree`
//! times, so `avg[d] = degree` by construction.
//!
//! `cargo run --release -p lapush-bench --bin fig5l_dissociation_degree`

use lapush_bench::report::Metric;
use lapush_bench::{
    ap_against, checksum_f64s, controlled_rst_db, print_table, scale, Bench, Scale,
};
use lapushdb::core::delta_of_plan_id;
use lapushdb::exact_answers;
use lapushdb::prelude::*;
use lapushdb::rank::mean_std;

fn main() {
    let (repeats, answers) = match scale() {
        Scale::Quick => (3usize, 15),
        Scale::Normal => (10, 25),
        Scale::Full => (30, 25),
    };
    let degrees = [1usize, 2, 3, 4, 5];
    let avg_pis = [0.1f64, 0.3, 0.5];

    let mut bench = Bench::new("fig5l_dissociation_degree");
    bench.param("repeats", repeats);
    bench.param("answers", answers);

    let mut rows = Vec::new();
    for &avg_pi in &avg_pis {
        let mut cells = vec![format!("avg[pi]={avg_pi}")];
        for &d in &degrees {
            let mut aps = Vec::new();
            for rep in 0..repeats {
                let (db, q) = controlled_rst_db(answers, 3, d, 2.0 * avg_pi, 700 + rep as u64);
                let shape = QueryShape::of_query(&q);
                let plans = minimal_plan_set(&shape);
                // Pick the plan that dissociates R (atom 0) on y.
                let r_plan = *plans
                    .roots
                    .iter()
                    .find(|&&p| {
                        delta_of_plan_id(&plans.store, p, &shape)
                            .map(|delta| !delta.0[0].is_empty())
                            .unwrap_or(false)
                    })
                    .expect("R-dissociating plan exists");
                let sys = eval_plan_id(&db, &q, &plans.store, r_plan, ExecOptions::default())
                    .expect("eval");
                let gt = exact_answers(&db, &q).expect("exact");
                aps.push(ap_against(&sys, &gt, 10));
            }
            let (m, _) = mean_std(&aps);
            bench.push(
                Metric::value(format!("map_pi{:02}_d{d}", (avg_pi * 10.0) as u32), m)
                    .with_checksum(checksum_f64s(&aps)),
            );
            cells.push(format!("{m:.3}"));
        }
        rows.push(cells);
    }
    print_table(
        "Figure 5l: MAP@10 of the R-dissociating plan vs. avg[d]",
        &["series", "d=1", "d=2", "d=3", "d=4", "d=5"],
        &rows,
    );
    println!("\nExpected shape: quality decreases with avg[d] and with");
    println!("avg[pi]; at avg[d]=1 the plan is exact (MAP=1); small input");
    println!("probabilities keep MAP high even for large avg[d] (Prop. 21).");
    bench.finish();
}
