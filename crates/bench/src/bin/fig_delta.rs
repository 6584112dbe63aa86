//! Incremental re-scoring benchmark: streamed deltas vs full re-evaluation.
//!
//! Captures an [`IncrementalEval`] over the 3-chain database, then streams
//! append batches of growing size into `R1` and times the incremental
//! [`IncrementalEval::apply_deltas`] path against a full
//! `propagation_score_ids` re-evaluation of the same (grown) database.
//! After every batch the two answer sets are asserted **bitwise equal** —
//! this is the bench-side twin of the `delta_equivalence` test suite, run
//! at database sizes the proptest matrix cannot afford.
//!
//! `cargo run --release -p lapush-bench --bin fig_delta -- --quick`
//!
//! The recorded results are deterministic: each batch appends fresh left
//! keys `domain + 1 + i` (never seen before, so no in-place probability
//! raises and no fallback) joined to right values spread over the existing
//! domain by a fixed multiplicative hash — so the changed-row counts and
//! answer checksums are fixed by `(n, seed)` alone, independent of
//! `--threads`. The timings are printed, not recorded.
//!
//! Expected shape: incremental cost scales with the *delta* (plus the
//! touched groups), full re-evaluation with the *database* — so the
//! speedup column should stay well above 1× for small batches and shrink
//! as the batch approaches the update churn the capture can absorb.

use lapush_bench::report::Metric;
use lapush_bench::{checksum_answers, ms, print_table, scale, threads, time, Bench, Scale};
use lapushdb::core::{single_plan_id, EnumOptions, PlanStore, SchemaInfo};
use lapushdb::engine::{
    propagation_score_ids, DeltaOutcome, ExecOptions, IncrementalEval, Semantics,
};
use lapushdb::storage::Value;
use lapushdb::workload::{chain_db, chain_query, find_chain_domain};

/// Cumulative batch sizes streamed into `R1`, smallest first — the
/// interesting regime for incremental maintenance is the small-delta end.
const BATCHES: &[usize] = &[1, 10, 100, 1000];

fn main() {
    let n = match scale() {
        Scale::Quick => 2_000,
        Scale::Normal => 20_000,
        Scale::Full => 100_000,
    };

    let mut bench = Bench::new("fig_delta");
    bench.param("n", n);
    bench.param("batches", format!("{BATCHES:?}"));

    let q = chain_query(3);
    let domain = find_chain_domain(3, n, 35.0);
    let mut db = chain_db(3, n, domain, 1.0, 11 + n as u64).expect("chain db");
    println!("database: 3-chain, {n} tuples/table, domain {domain}");

    let schema = SchemaInfo::from_query(&q);
    let mut store = PlanStore::new();
    let root = single_plan_id(&mut store, &q, &schema, EnumOptions::default());
    let roots = [root];
    let opts = ExecOptions {
        semantics: Semantics::Probabilistic,
        reuse_views: true,
        threads: threads(),
    };

    // Capture once; the cached per-node views are what every subsequent
    // batch folds its deltas into.
    let mut inc = IncrementalEval::new(&db, &q, &store, &roots, opts).expect("capture evaluation");
    bench.push(
        Metric::value("capture_answers", inc.answers().rows.len() as f64)
            .with_checksum(checksum_answers(inc.answers())),
    );

    let r1 = db.rel_id("R1").expect("R1 exists");
    let mut appended = 0usize;
    let mut rows = Vec::new();
    for &batch in BATCHES {
        // Fresh left keys (`u` is outside the generated 1..=domain range
        // and never repeats) joined to existing right values — each batch
        // grows the answer set without raising any existing probability.
        for i in 0..batch {
            let u = domain + 1 + (appended + i) as i64;
            let v = ((appended + i) as i64).wrapping_mul(2_654_435_761) % domain + 1;
            let p = 0.25 + 0.5 * ((appended + i) % 7) as f64 / 10.0;
            db.relation_mut(r1)
                .push(Box::new([Value::Int(u), Value::Int(v)]), p)
                .expect("append");
        }
        appended += batch;

        let (outcome, inc_wall) = time(|| {
            inc.apply_deltas(&db, &q, &store)
                .expect("incremental update")
        });
        let changed = match outcome {
            DeltaOutcome::Unchanged => 0,
            DeltaOutcome::Updated { rows } => rows,
            DeltaOutcome::Fallback => panic!("append-only stream must not fall back"),
        };

        let (full, full_wall) = time(|| {
            propagation_score_ids(&db, &q, &store, &roots, opts).expect("full re-evaluation")
        });
        // The whole point: the delta path must be bitwise indistinguishable
        // from re-evaluating the grown database from scratch.
        assert_eq!(
            checksum_answers(inc.answers()),
            checksum_answers(&full),
            "batch {batch}: incremental answers diverge from full re-evaluation"
        );

        bench.push(
            Metric::value(format!("rows_batch{batch}"), changed as f64)
                .with_checksum(checksum_answers(inc.answers())),
        );
        rows.push(vec![
            batch.to_string(),
            format!("{:.3}", ms(inc_wall)),
            format!("{:.3}", ms(full_wall)),
            format!("{:.1}x", ms(full_wall) / ms(inc_wall).max(1e-6)),
            changed.to_string(),
            inc.answers().rows.len().to_string(),
        ]);
    }

    print_table(
        "incremental delta maintenance vs full re-evaluation (3-chain)",
        &[
            "batch",
            "incremental (ms)",
            "full re-eval (ms)",
            "speedup",
            "rows changed",
            "answers",
        ],
        &rows,
    );
    println!("\nExpected shape: incremental latency tracks the batch size while");
    println!("full re-evaluation tracks n, so the speedup is largest for small");
    println!("batches and every row stays bitwise equal to scratch evaluation.");
    bench.finish();
}
