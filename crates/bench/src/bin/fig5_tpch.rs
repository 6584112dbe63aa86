//! Figures 5e–5h: run times of the parameterized TPC-H ranking query
//! `Q(a) :- S(s,a), PS(s,u), P(u,n), s ≤ $1, n like $2` under six methods:
//! dissociation (two minimal plans), dissociation + semi-join reduction,
//! exact inference (our WMC oracle, standing in for SampleSearch), MC(1k),
//! the bare lineage query, and deterministic SQL.
//!
//! `cargo run --release -p lapush-bench --bin fig5_tpch -- --param2 red`
//! (`--param2` one of: red-green | red | any; `--by-lineage` prints the
//! Fig. 5h view keyed by max lineage size.)

use lapush_bench::measure::MeasureSpec;
use lapush_bench::report::Metric;
use lapush_bench::{
    arg, checksum_answers, flag, measure, ms, print_table, scale, time, Bench, Scale,
};
use lapushdb::workload::{tpch_db, tpch_query, TpchConfig};
use lapushdb::{
    exact_answers_bounded, lineage_stats, mc_answers, rank_by_dissociation, OptLevel, RankOptions,
};

fn main() {
    let param2_name = arg("param2").unwrap_or_else(|| "red-green".into());
    let param2 = match param2_name.as_str() {
        "red-green" => "%red%green%",
        "red" => "%red%",
        "any" => "%",
        other => panic!("unknown --param2 `{other}` (red-green|red|any)"),
    };
    let (suppliers, parts) = match scale() {
        Scale::Quick => (100, 1_000),
        Scale::Normal => (500, 10_000),
        Scale::Full => (2_000, 40_000),
    };

    let mut bench = Bench::new(&format!("fig5_tpch_{}", param2_name.replace('-', "_")));
    bench.param("param2", param2);
    bench.param("suppliers", suppliers);
    bench.param("parts", parts);

    let cfg = TpchConfig {
        suppliers,
        parts,
        pi_max: 0.4,
        seed: 2015,
    };
    let (db, gen_t) = time(|| tpch_db(cfg).expect("generate db"));
    println!(
        "synthetic TPC-H: {} suppliers, {} parts, {} partsupp rows (generated in {:.0} ms)",
        suppliers,
        parts,
        db.relation_by_name("PS").unwrap().len(),
        ms(gen_t)
    );
    println!("$2 = '{param2}'");

    let sweep: Vec<i64> = {
        let s = suppliers as i64;
        vec![s / 20, s / 10, s / 5, s / 2, s]
    };

    // Exact inference gives up beyond this model-counting budget (like the
    // paper, which could not obtain SampleSearch ground truth for its
    // largest parameters); MC is skipped above the lineage-size cap.
    let exact_budget: u64 = arg("exact-budget")
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000_000);
    let mc_cap: usize = arg("mc-cap").and_then(|s| s.parse().ok()).unwrap_or(50_000);

    let mut rows = Vec::new();
    for &p1 in &sweep {
        let q = tpch_query(p1, param2);

        let t_sql = measure::run(bench.spec(), || {
            lapushdb::engine::deterministic_answers(&db, &q).expect("sql")
        });
        let t_diss = measure::run(bench.spec(), || {
            rank_by_dissociation(
                &db,
                &q,
                RankOptions {
                    opt: OptLevel::Opt12,
                    ..RankOptions::default()
                },
            )
            .expect("diss")
        });
        let t_diss3 = measure::run(bench.spec(), || {
            rank_by_dissociation(
                &db,
                &q,
                RankOptions {
                    opt: OptLevel::Opt123,
                    ..RankOptions::default()
                },
            )
            .expect("diss+opt3")
        });
        let t_lin = measure::run(bench.spec(), || lineage_stats(&db, &q).expect("lineage"));
        let max_lin = t_lin.value.1;
        let diss = &t_diss.value;
        bench.push(Metric::value(
            format!("sql_p{p1}"),
            t_sql.value.len() as f64,
        ));
        bench.push(
            Metric::value(format!("diss_p{p1}"), diss.len() as f64)
                .with_checksum(checksum_answers(diss)),
        );
        bench.push(Metric::value(
            format!("diss_opt3_p{p1}"),
            t_diss3.value.len() as f64,
        ));
        bench.push(Metric::value(format!("lineage_p{p1}"), max_lin as f64));

        // Intensional methods are too expensive to repeat: single-shot.
        let t_mc = if max_lin <= mc_cap {
            let timed = measure::run(MeasureSpec::once(), || {
                mc_answers(&db, &q, 1000, 5, lapush_bench::threads()).expect("mc")
            });
            format!("{:.1}", timed.median_ms())
        } else {
            "-".into()
        };
        let timed_exact = measure::run(MeasureSpec::once(), || {
            exact_answers_bounded(&db, &q, exact_budget).expect("exact")
        });
        let t_exact = match &timed_exact.value {
            Some(exact) => {
                bench.push(Metric::checksum(
                    format!("exact_p{p1}"),
                    checksum_answers(exact),
                ));
                format!("{:.1}", timed_exact.median_ms())
            }
            None => {
                bench.push(Metric::value(format!("exact_p{p1}_gave_up"), 1.0));
                format!(">{:.0} (gave up)", timed_exact.median_ms())
            }
        };

        rows.push(vec![
            p1.to_string(),
            max_lin.to_string(),
            diss.len().to_string(),
            format!("{:.1}", t_sql.median_ms()),
            format!("{:.1}", t_diss.median_ms()),
            format!("{:.1}", t_diss3.median_ms()),
            format!("{:.1}", t_lin.median_ms()),
            t_mc,
            t_exact,
        ]);
    }

    let title = if flag("by-lineage") {
        "Figure 5h: times keyed by max lineage size"
    } else {
        "Figures 5e-5g: TPC-H query run times"
    };
    print_table(
        title,
        &[
            "$1",
            "max[lin]",
            "answers",
            "SQL",
            "Diss",
            "Diss+Opt3",
            "lineage",
            "MC(1k)",
            "exact",
        ],
        &rows,
    );
    println!("\n(all times in ms; '-'/'gave up' = beyond --mc-cap / --exact-budget)");
    println!("Expected shape (paper Figs. 5e-5h): dissociation stays within a");
    println!("small factor of SQL; exact inference and MC(1k) blow up with");
    println!("lineage size; the lineage query lower-bounds any intensional");
    println!("method; Opt3 helps at small selectivities, hurts at large.");
    bench.finish();
}
