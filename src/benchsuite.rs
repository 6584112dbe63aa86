//! The experiment-suite spec and process driver behind `lapush bench`.
//!
//! The suite is the single source of truth for which experiment binaries
//! exist and which variants each runs; `lapush bench` spawns the binaries
//! as sibling processes (they are built into the same target directory)
//! and forwards the scale (`--quick`/`--full`), output (`--out DIR`) and
//! `--threads N` flags. Each binary writes one `BENCH_<target>.json`
//! result file per variant — seeded results only, byte-reproducible — and
//! `diff -r` of the output directory against the committed
//! `benches/baselines/` is the gate.

use std::path::{Path, PathBuf};
use std::process::Command;

/// One suite entry: an experiment binary plus the extra arguments of one
/// of its variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuiteRun {
    /// Binary name (under the same target directory as `lapush`).
    pub bin: &'static str,
    /// Variant arguments (empty for single-variant binaries).
    pub args: &'static [&'static str],
}

/// Every run of the full experiment suite, in execution order. Keep in
/// sync with the binaries under `crates/bench/src/bin/` — `lapush bench`
/// iterates exactly this list.
pub const SUITE: &[SuiteRun] = &[
    SuiteRun {
        bin: "fig2_counts",
        args: &[],
    },
    SuiteRun {
        bin: "fig5_runtime",
        args: &["--family", "chain", "--k", "4"],
    },
    SuiteRun {
        bin: "fig5_runtime",
        args: &["--family", "chain", "--k", "7"],
    },
    SuiteRun {
        bin: "fig5_runtime",
        args: &["--family", "star", "--k", "2"],
    },
    SuiteRun {
        bin: "fig5d_query_complexity",
        args: &[],
    },
    SuiteRun {
        bin: "fig5_tpch",
        args: &["--param2", "red-green"],
    },
    SuiteRun {
        bin: "fig5_tpch",
        args: &["--param2", "red"],
    },
    SuiteRun {
        bin: "fig5_tpch",
        args: &["--param2", "any"],
    },
    SuiteRun {
        bin: "fig5i_ranking_quality",
        args: &[],
    },
    SuiteRun {
        bin: "fig5j_answer_prob",
        args: &[],
    },
    SuiteRun {
        bin: "fig5k_lineage_rank",
        args: &[],
    },
    SuiteRun {
        bin: "fig5l_dissociation_degree",
        args: &[],
    },
    SuiteRun {
        bin: "fig5m_tradeoff",
        args: &[],
    },
    SuiteRun {
        bin: "fig5n_scaling",
        args: &[],
    },
    SuiteRun {
        bin: "fig5o_decomposition",
        args: &[],
    },
    SuiteRun {
        bin: "fig5p_scaled_dissociation",
        args: &[],
    },
    SuiteRun {
        bin: "ablation_schema",
        args: &[],
    },
    SuiteRun {
        bin: "fig_serve",
        args: &[],
    },
    SuiteRun {
        bin: "fig_delta",
        args: &[],
    },
    SuiteRun {
        bin: "fig_topk",
        args: &[],
    },
];

/// Outcome of running the whole suite.
#[derive(Debug, Clone, Default)]
pub struct SuiteOutcome {
    /// Runs that completed successfully.
    pub succeeded: usize,
    /// Human-readable descriptions of the runs that failed (spawn errors
    /// and non-zero exits alike).
    pub failures: Vec<String>,
}

impl SuiteOutcome {
    /// Did every run succeed?
    pub fn all_ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Run every suite entry as a child process, forwarding `forwarded`
/// (scale, `--out` and `--threads` flags) to each. Failures do not abort the suite —
/// every remaining run still executes, and all failures are reported in
/// the outcome so callers can exit non-zero at the end.
pub fn run_suite(bin_dir: &Path, forwarded: &[String]) -> SuiteOutcome {
    let mut outcome = SuiteOutcome::default();
    for run in SUITE {
        let label = if run.args.is_empty() {
            run.bin.to_string()
        } else {
            format!("{} {}", run.bin, run.args.join(" "))
        };
        println!("\n──────────────────────────────────────────────────────");
        println!("▶ {label}");
        println!("──────────────────────────────────────────────────────");
        let path = bin_dir.join(run.bin);
        match Command::new(&path).args(run.args).args(forwarded).status() {
            Ok(status) if status.success() => outcome.succeeded += 1,
            Ok(status) => {
                eprintln!("✗ {label} exited with {status}");
                outcome.failures.push(format!("{label} ({status})"));
            }
            Err(e) => {
                eprintln!(
                    "✗ failed to spawn {} ({e}); build the workspace first: \
                     cargo build --release --workspace",
                    path.display()
                );
                outcome.failures.push(format!("{label} (spawn: {e})"));
            }
        }
    }
    outcome
}

/// Directory containing the current executable — where the sibling
/// experiment binaries live after a workspace build.
pub fn current_bin_dir() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    exe.parent()
        .map(Path::to_path_buf)
        .ok_or_else(|| std::io::Error::other("executable has no parent directory"))
}

/// Print the suite summary and return the process exit code (0 when all
/// runs succeeded, 1 otherwise).
pub fn summarize(outcome: &SuiteOutcome) -> i32 {
    println!(
        "\nsuite finished: {} succeeded, {} failed",
        outcome.succeeded,
        outcome.failures.len()
    );
    if outcome.all_ok() {
        0
    } else {
        for f in &outcome.failures {
            eprintln!("  failed: {f}");
        }
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_covers_all_experiment_binaries() {
        let bins: std::collections::BTreeSet<&str> = SUITE.iter().map(|r| r.bin).collect();
        assert_eq!(bins.len(), 16, "16 distinct experiment binaries");
        assert!(bins.contains("fig2_counts"));
        assert!(bins.contains("ablation_schema"));
        assert!(bins.contains("fig_serve"));
        assert!(bins.contains("fig_delta"));
        assert!(bins.contains("fig_topk"));
        // Multi-variant entries appear once per variant.
        assert_eq!(SUITE.iter().filter(|r| r.bin == "fig5_runtime").count(), 3);
        assert_eq!(SUITE.iter().filter(|r| r.bin == "fig5_tpch").count(), 3);
    }

    #[test]
    fn failed_spawns_are_collected_not_fatal() {
        let dir = std::env::temp_dir().join("lapush_no_binaries_here");
        let outcome = run_suite(&dir, &[]);
        assert_eq!(outcome.succeeded, 0);
        assert_eq!(outcome.failures.len(), SUITE.len());
        assert!(!outcome.all_ok());
        assert_eq!(summarize(&outcome), 1);
    }
}
