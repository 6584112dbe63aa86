//! `bench-diff` — the CI regression gate over bench reports.
//!
//! Compares a directory of freshly produced `BENCH_*.json` reports
//! against the committed baselines and exits non-zero when any target
//! regresses:
//!
//! ```console
//! $ bench-diff --baseline benches/baselines --current bench-out
//! ```
//!
//! Checks per metric (see `lapush_bench::diff` for the full rules):
//! result checksums and scalar values exactly (seeded workloads — any
//! change is correctness drift), and median wall time against the
//! baseline target's relative budget (`threshold_rel` in the baseline
//! JSON, `--threshold F` to override). A baseline target or metric
//! missing from the current set is a hard failure; baseline targets
//! absent from the current run (usually stale `BENCH_*.json` files for
//! deleted experiments) are aggregated into one block listing the stale
//! files with a regeneration hint; current targets without a baseline
//! are reported as `NEW` but pass.
//!
//! Flags: `--no-checksums` / `--no-values` skip the exact comparisons
//! (useful while intentionally changing results before regenerating
//! baselines); `--quiet` prints failures only. Reports produced at
//! different `--threads` counts are refused unless `--cross-threads` is
//! passed — that mode is the determinism gate: checksums and values are
//! still compared exactly, proving a parallel run computed bit-identical
//! results to the serial one. (The other two axes of the bit-identity
//! contract — incremental vs. from scratch, pruned vs. exhaustive — are
//! asserted inside `fig_delta` and `fig_topk` themselves, so the full
//! contract gated here is threads × incremental-vs-scratch ×
//! pruned-vs-exhaustive.)

use lapush_bench::diff::{
    diff_sets, has_failures, stale_baseline_note, stale_targets, DiffOptions, Verdict,
};
use lapush_bench::report::load_dir;
use lapush_bench::{arg, flag};
use std::path::PathBuf;

fn main() {
    let baseline_dir = PathBuf::from(arg("baseline").unwrap_or_else(|| "benches/baselines".into()));
    let current_dir = PathBuf::from(arg("current").unwrap_or_else(|| ".".into()));
    let opts = DiffOptions {
        threshold_override: arg("threshold").and_then(|s| s.parse().ok()),
        ignore_checksums: flag("no-checksums"),
        ignore_values: flag("no-values"),
        allow_thread_mismatch: flag("cross-threads"),
    };
    let quiet = flag("quiet");

    let baselines = match load_dir(&baseline_dir) {
        Ok(reports) => reports,
        Err(e) => {
            eprintln!("bench-diff: cannot load baselines from {baseline_dir:?}: {e}");
            std::process::exit(2);
        }
    };
    if baselines.is_empty() {
        eprintln!("bench-diff: no BENCH_*.json baselines in {baseline_dir:?}");
        std::process::exit(2);
    }
    let currents = match load_dir(&current_dir) {
        Ok(reports) => reports,
        Err(e) => {
            eprintln!("bench-diff: cannot load current reports from {current_dir:?}: {e}");
            std::process::exit(2);
        }
    };

    let entries = diff_sets(&baselines, &currents, opts);
    let failures = entries.iter().filter(|e| e.verdict.is_failure()).count();
    // Baselines whose target is absent from the current run are reported
    // as one aggregated stale-baseline block below, not one cryptic
    // MISSING line each.
    for entry in &entries {
        if entry.verdict == Verdict::MissingTarget {
            continue;
        }
        if entry.verdict.is_failure() || !quiet {
            println!("{entry}");
        }
    }
    let stale = stale_targets(&entries);
    if !stale.is_empty() {
        println!(
            "{}",
            stale_baseline_note(&stale, &baseline_dir.display().to_string())
        );
    }
    println!(
        "\nbench-diff: {} baseline target(s), {} comparison(s), {} failure(s)",
        baselines.len(),
        entries.len(),
        failures
    );
    if has_failures(&entries) {
        std::process::exit(1);
    }
}
