//! Baseline comparison: the logic behind the `bench-diff` CI gate.
//!
//! A *baseline* set (committed under `benches/baselines/`) is compared
//! against a *current* set (fresh `BENCH_*.json` from `lapush bench`).
//! Three checks run per metric, strongest first:
//!
//! 1. **Checksums** — compared exactly. All workloads are seeded, so a
//!    checksum change means the computed answers changed.
//! 2. **Values** — scalar results (answer counts, MAP scores, plan
//!    counts) compared with tight relative tolerance.
//! 3. **Timing** — median wall time gated by the baseline target's
//!    `threshold_rel` (current may be at most `(1 + threshold_rel) ×`
//!    baseline). Metrics whose baseline median is below
//!    [`TIMING_FLOOR_MS`] are not timing-gated: sub-millisecond medians
//!    on shared CI runners are noise.
//!
//! Structural problems (schema-version mismatch, scale mismatch, a
//! baseline target or metric missing from the current set) are hard
//! failures: a silently dropped benchmark must not look like a pass.

use crate::report::Report;

/// Baseline medians below this many milliseconds are exempt from the
/// relative timing gate.
pub const TIMING_FLOOR_MS: f64 = 2.0;

/// Relative tolerance for scalar result values.
pub const VALUE_REL_TOL: f64 = 1e-9;

/// Outcome of one comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Within budget.
    Pass,
    /// Median wall time at least 20% below baseline (informational).
    Improved,
    /// Median wall time above the regression budget.
    TimeRegressed {
        /// Baseline median, ms.
        baseline_ms: f64,
        /// Current median, ms.
        current_ms: f64,
        /// Budget that was exceeded.
        threshold_rel: f64,
    },
    /// Result checksum changed.
    ChecksumMismatch {
        /// Baseline checksum.
        baseline: String,
        /// Current checksum.
        current: String,
    },
    /// Scalar result changed beyond [`VALUE_REL_TOL`].
    ValueMismatch {
        /// Baseline value.
        baseline: f64,
        /// Current value.
        current: f64,
    },
    /// Baseline metric absent from the current report.
    MissingMetric,
    /// Baseline target has no current report at all.
    MissingTarget,
    /// Current target absent from the baselines (new benchmark;
    /// informational — commit a baseline to start gating it).
    NewTarget,
    /// Reports use different schema versions.
    SchemaMismatch {
        /// Baseline schema version.
        baseline: u64,
        /// Current schema version.
        current: u64,
    },
    /// Reports were produced at different scales.
    ScaleMismatch {
        /// Baseline scale name.
        baseline: &'static str,
        /// Current scale name.
        current: &'static str,
    },
    /// Reports were produced at different thread counts (the `threads`
    /// report parameter; absent means 1). Refused by default — a timing
    /// comparison across parallelism budgets is meaningless — unless
    /// [`DiffOptions::allow_thread_mismatch`] is set, which is how the CI
    /// determinism gate checks that threads=4 checksums equal threads=1.
    ThreadsMismatch {
        /// Baseline thread count.
        baseline: String,
        /// Current thread count.
        current: String,
    },
}

impl Verdict {
    /// Does this verdict fail the gate?
    pub fn is_failure(&self) -> bool {
        !matches!(self, Verdict::Pass | Verdict::Improved | Verdict::NewTarget)
    }
}

/// One line of diff output: a (target, metric) pair and its verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Target name.
    pub target: String,
    /// Metric name (empty for whole-target verdicts).
    pub metric: String,
    /// What happened.
    pub verdict: Verdict,
}

impl DiffEntry {
    fn target_level(target: &str, verdict: Verdict) -> DiffEntry {
        DiffEntry {
            target: target.to_string(),
            metric: String::new(),
            verdict,
        }
    }
}

impl std::fmt::Display for DiffEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let label = if self.metric.is_empty() {
            self.target.clone()
        } else {
            format!("{}::{}", self.target, self.metric)
        };
        match &self.verdict {
            Verdict::Pass => write!(f, "PASS       {label}"),
            Verdict::Improved => write!(f, "IMPROVED   {label}"),
            Verdict::TimeRegressed {
                baseline_ms,
                current_ms,
                threshold_rel,
            } => write!(
                f,
                "REGRESSED  {label}: {current_ms:.3} ms vs baseline {baseline_ms:.3} ms \
                 (budget +{:.0}%)",
                threshold_rel * 100.0
            ),
            Verdict::ChecksumMismatch { baseline, current } => {
                write!(f, "CHECKSUM   {label}: {current} vs baseline {baseline}")
            }
            Verdict::ValueMismatch { baseline, current } => {
                write!(f, "VALUE      {label}: {current} vs baseline {baseline}")
            }
            Verdict::MissingMetric => write!(f, "MISSING    {label}: metric not in current run"),
            Verdict::MissingTarget => write!(f, "MISSING    {label}: target not in current run"),
            Verdict::NewTarget => write!(f, "NEW        {label}: no baseline committed yet"),
            Verdict::SchemaMismatch { baseline, current } => write!(
                f,
                "SCHEMA     {label}: version {current} vs baseline {baseline}"
            ),
            Verdict::ScaleMismatch { baseline, current } => {
                write!(f, "SCALE      {label}: {current} vs baseline {baseline}")
            }
            Verdict::ThreadsMismatch { baseline, current } => write!(
                f,
                "THREADS    {label}: {current} thread(s) vs baseline {baseline} \
                 (pass --cross-threads to compare results across thread counts)"
            ),
        }
    }
}

/// Options for the comparison.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiffOptions {
    /// Override every baseline's `threshold_rel` with this budget.
    pub threshold_override: Option<f64>,
    /// Skip checksum comparison (timing/value gates still apply).
    pub ignore_checksums: bool,
    /// Skip scalar-value comparison.
    pub ignore_values: bool,
    /// Compare reports produced at different thread counts instead of
    /// refusing. Checksums and values are still gated exactly — this is
    /// the determinism check that parallel runs compute identical results.
    pub allow_thread_mismatch: bool,
}

/// The `threads` parameter of a report; reports predating the parameter
/// (or serial runs) count as 1.
fn threads_param(report: &Report) -> &str {
    report
        .params
        .iter()
        .find(|(k, _)| k == "threads")
        .map(|(_, v)| v.as_str())
        .unwrap_or("1")
}

/// Compare one baseline report against its current counterpart.
pub fn diff_reports(baseline: &Report, current: &Report, opts: DiffOptions) -> Vec<DiffEntry> {
    if baseline.schema_version != current.schema_version {
        return vec![DiffEntry::target_level(
            &baseline.target,
            Verdict::SchemaMismatch {
                baseline: baseline.schema_version,
                current: current.schema_version,
            },
        )];
    }
    if baseline.scale != current.scale {
        return vec![DiffEntry::target_level(
            &baseline.target,
            Verdict::ScaleMismatch {
                baseline: baseline.scale.name(),
                current: current.scale.name(),
            },
        )];
    }
    if !opts.allow_thread_mismatch && threads_param(baseline) != threads_param(current) {
        return vec![DiffEntry::target_level(
            &baseline.target,
            Verdict::ThreadsMismatch {
                baseline: threads_param(baseline).to_string(),
                current: threads_param(current).to_string(),
            },
        )];
    }
    let threshold = opts.threshold_override.unwrap_or(baseline.threshold_rel);
    let mut entries = Vec::new();
    for base_metric in &baseline.metrics {
        let entry = |verdict| DiffEntry {
            target: baseline.target.clone(),
            metric: base_metric.name.clone(),
            verdict,
        };
        let Some(cur_metric) = current.metric(&base_metric.name) else {
            entries.push(entry(Verdict::MissingMetric));
            continue;
        };
        // A baseline checksum/value with no current counterpart is a
        // failure, not a skip: a refactor that drops the instrumentation
        // must not make correctness drift invisible to the gate.
        if !opts.ignore_checksums {
            match (&base_metric.checksum, &cur_metric.checksum) {
                (Some(b), Some(c)) if b != c => {
                    entries.push(entry(Verdict::ChecksumMismatch {
                        baseline: b.clone(),
                        current: c.clone(),
                    }));
                    continue;
                }
                (Some(b), None) => {
                    entries.push(entry(Verdict::ChecksumMismatch {
                        baseline: b.clone(),
                        current: "<absent>".into(),
                    }));
                    continue;
                }
                _ => {}
            }
        }
        if !opts.ignore_values {
            match (base_metric.value, cur_metric.value) {
                (Some(b), Some(c)) => {
                    let scale = b.abs().max(c.abs()).max(1.0);
                    if (b - c).abs() > VALUE_REL_TOL * scale {
                        entries.push(entry(Verdict::ValueMismatch {
                            baseline: b,
                            current: c,
                        }));
                        continue;
                    }
                }
                (Some(b), None) => {
                    entries.push(entry(Verdict::ValueMismatch {
                        baseline: b,
                        current: f64::NAN,
                    }));
                    continue;
                }
                _ => {}
            }
        }
        let timed = !base_metric.samples_ms.is_empty() && !cur_metric.samples_ms.is_empty();
        if timed && base_metric.median_ms >= TIMING_FLOOR_MS {
            if cur_metric.median_ms > base_metric.median_ms * (1.0 + threshold) {
                entries.push(entry(Verdict::TimeRegressed {
                    baseline_ms: base_metric.median_ms,
                    current_ms: cur_metric.median_ms,
                    threshold_rel: threshold,
                }));
                continue;
            }
            if cur_metric.median_ms < base_metric.median_ms * 0.8 {
                entries.push(entry(Verdict::Improved));
                continue;
            }
        }
        entries.push(entry(Verdict::Pass));
    }
    entries
}

/// Compare a whole baseline set against a current set (both as loaded by
/// [`crate::report::load_dir`]). Baseline targets missing from the current
/// set fail; current targets without a baseline are flagged `NewTarget`
/// but pass.
pub fn diff_sets(baselines: &[Report], currents: &[Report], opts: DiffOptions) -> Vec<DiffEntry> {
    let mut entries = Vec::new();
    for baseline in baselines {
        match currents.iter().find(|c| c.target == baseline.target) {
            Some(current) => entries.extend(diff_reports(baseline, current, opts)),
            None => entries.push(DiffEntry::target_level(
                &baseline.target,
                Verdict::MissingTarget,
            )),
        }
    }
    for current in currents {
        if !baselines.iter().any(|b| b.target == current.target) {
            entries.push(DiffEntry::target_level(&current.target, Verdict::NewTarget));
        }
    }
    entries
}

/// True when any entry fails the gate.
pub fn has_failures(entries: &[DiffEntry]) -> bool {
    entries.iter().any(|e| e.verdict.is_failure())
}

/// The targets of every [`Verdict::MissingTarget`] entry, in input order —
/// baseline reports whose target is absent from the current run. These are
/// almost always *stale baselines*: `BENCH_<target>.json` files committed
/// for an experiment that has since been deleted or renamed. `bench-diff`
/// aggregates them into one actionable block (see
/// [`stale_baseline_note`]) instead of printing a confusing per-target
/// `MISSING` stream.
pub fn stale_targets(entries: &[DiffEntry]) -> Vec<&str> {
    entries
        .iter()
        .filter(|e| e.verdict == Verdict::MissingTarget)
        .map(|e| e.target.as_str())
        .collect()
}

/// Human-readable summary for a non-empty set of stale baseline targets:
/// lists the stale `BENCH_<target>.json` files under `baseline_dir` and
/// suggests how to resolve them. The condition is still a gate failure —
/// either the baselines are stale (delete the files) or the current run
/// silently dropped an experiment (a real regression) — this note only
/// replaces the one-line-per-target error with something actionable.
pub fn stale_baseline_note(stale: &[&str], baseline_dir: &str) -> String {
    let mut out = format!(
        "{} baseline target(s) have no report in the current run; stale files:\n",
        stale.len()
    );
    for target in stale {
        out.push_str(&format!("  {baseline_dir}/BENCH_{target}.json\n"));
    }
    out.push_str(
        "If these experiments were removed on purpose, delete the files above\n\
         (or regenerate the full set: lapush bench --quick\n\
         --out <baseline-dir>); otherwise the current run dropped them — rerun\n\
         the full suite before diffing.",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Metric, Report, SCHEMA_VERSION};
    use crate::Scale;

    fn report_with(metrics: Vec<Metric>) -> Report {
        let mut r = Report::new("t1", Scale::Quick);
        for m in metrics {
            r.push(m);
        }
        r
    }

    #[test]
    fn identical_reports_pass() {
        let r = report_with(vec![
            Metric::timing("a", vec![10.0, 11.0, 10.5]).with_checksum("abc"),
            Metric::value("b", 0.5),
        ]);
        let entries = diff_reports(&r, &r.clone(), DiffOptions::default());
        assert!(!has_failures(&entries), "{entries:?}");
        assert_eq!(entries.len(), 2);
    }

    #[test]
    fn self_diff_of_a_set_passes() {
        let set = vec![report_with(vec![Metric::timing("a", vec![5.0])]), {
            let mut r = Report::new("t2", Scale::Quick);
            r.push(Metric::value("v", 1.0));
            r
        }];
        assert!(!has_failures(&diff_sets(
            &set,
            &set,
            DiffOptions::default()
        )));
    }

    #[test]
    fn inflated_timing_regresses() {
        let base = report_with(vec![Metric::timing("a", vec![10.0, 10.0, 10.0])]);
        let mut cur = base.clone();
        cur.metrics[0] = Metric::timing("a", vec![100.0, 100.0, 100.0]);
        let entries = diff_reports(&base, &cur, DiffOptions::default());
        assert!(matches!(entries[0].verdict, Verdict::TimeRegressed { .. }));
        assert!(has_failures(&entries));
    }

    #[test]
    fn timing_floor_exempts_fast_metrics() {
        // 0.1 ms baseline: even a 100x blowup is noise at this resolution.
        let base = report_with(vec![Metric::timing("a", vec![0.1])]);
        let mut cur = base.clone();
        cur.metrics[0] = Metric::timing("a", vec![10.0 * TIMING_FLOOR_MS]);
        // Stay below the floor... but the current metric median is above it;
        // the *baseline* median decides eligibility.
        let entries = diff_reports(&base, &cur, DiffOptions::default());
        assert!(!has_failures(&entries), "{entries:?}");
    }

    #[test]
    fn faster_run_reports_improved() {
        let base = report_with(vec![Metric::timing("a", vec![100.0])]);
        let mut cur = base.clone();
        cur.metrics[0] = Metric::timing("a", vec![10.0]);
        let entries = diff_reports(&base, &cur, DiffOptions::default());
        assert_eq!(entries[0].verdict, Verdict::Improved);
        assert!(!has_failures(&entries));
    }

    #[test]
    fn checksum_mismatch_fails() {
        let base = report_with(vec![Metric::timing("a", vec![10.0]).with_checksum("aaa")]);
        let mut cur = base.clone();
        cur.metrics[0] = Metric::timing("a", vec![10.0]).with_checksum("bbb");
        let entries = diff_reports(&base, &cur, DiffOptions::default());
        assert!(matches!(
            entries[0].verdict,
            Verdict::ChecksumMismatch { .. }
        ));
        // ...unless checksums are ignored.
        let lenient = diff_reports(
            &base,
            &cur,
            DiffOptions {
                ignore_checksums: true,
                ..DiffOptions::default()
            },
        );
        assert!(!has_failures(&lenient));
    }

    #[test]
    fn dropped_checksum_or_value_fails() {
        let base = report_with(vec![
            Metric::timing("a", vec![10.0]).with_checksum("aaa"),
            Metric::value("v", 0.5),
        ]);
        let mut cur = base.clone();
        cur.metrics[0] = Metric::timing("a", vec![10.0]); // checksum dropped
        cur.metrics[1] = Metric::timing("v", vec![1.0]); // value dropped
        let entries = diff_reports(&base, &cur, DiffOptions::default());
        assert!(matches!(
            entries[0].verdict,
            Verdict::ChecksumMismatch { .. }
        ));
        assert!(matches!(entries[1].verdict, Verdict::ValueMismatch { .. }));
        // The reverse (baseline has no checksum, current gained one) passes.
        let entries = diff_reports(&cur, &base, DiffOptions::default());
        assert!(!has_failures(&entries), "{entries:?}");
    }

    #[test]
    fn value_mismatch_fails() {
        let base = report_with(vec![Metric::value("v", 0.5)]);
        let mut cur = base.clone();
        cur.metrics[0] = Metric::value("v", 0.6);
        let entries = diff_reports(&base, &cur, DiffOptions::default());
        assert!(matches!(entries[0].verdict, Verdict::ValueMismatch { .. }));
    }

    #[test]
    fn missing_metric_and_target_fail() {
        let base = report_with(vec![
            Metric::timing("a", vec![1.0]),
            Metric::timing("b", vec![1.0]),
        ]);
        let cur = report_with(vec![Metric::timing("a", vec![1.0])]);
        let entries = diff_reports(&base, &cur, DiffOptions::default());
        assert!(entries
            .iter()
            .any(|e| e.metric == "b" && e.verdict == Verdict::MissingMetric));

        let entries = diff_sets(std::slice::from_ref(&base), &[], DiffOptions::default());
        assert_eq!(entries[0].verdict, Verdict::MissingTarget);
        assert!(has_failures(&entries));
    }

    #[test]
    fn new_target_is_informational() {
        let cur = report_with(vec![Metric::timing("a", vec![1.0])]);
        let entries = diff_sets(&[], std::slice::from_ref(&cur), DiffOptions::default());
        assert_eq!(entries[0].verdict, Verdict::NewTarget);
        assert!(!has_failures(&entries));
    }

    #[test]
    fn schema_version_mismatch_fails() {
        let base = report_with(vec![Metric::timing("a", vec![1.0])]);
        let mut cur = base.clone();
        cur.schema_version = SCHEMA_VERSION + 1;
        let entries = diff_reports(&base, &cur, DiffOptions::default());
        assert_eq!(entries.len(), 1);
        assert!(matches!(entries[0].verdict, Verdict::SchemaMismatch { .. }));
        assert!(has_failures(&entries));
    }

    #[test]
    fn scale_mismatch_fails() {
        let base = report_with(vec![Metric::timing("a", vec![1.0])]);
        let mut cur = base.clone();
        cur.scale = Scale::Full;
        let entries = diff_reports(&base, &cur, DiffOptions::default());
        assert!(matches!(entries[0].verdict, Verdict::ScaleMismatch { .. }));
    }

    #[test]
    fn thread_count_mismatch_refused_unless_allowed() {
        let mut base = report_with(vec![Metric::timing("a", vec![10.0]).with_checksum("aaa")]);
        base.param("threads", 1);
        let mut cur = report_with(vec![Metric::timing("a", vec![10.0]).with_checksum("aaa")]);
        cur.param("threads", 4);
        let entries = diff_reports(&base, &cur, DiffOptions::default());
        assert!(matches!(
            entries[0].verdict,
            Verdict::ThreadsMismatch { .. }
        ));
        assert!(has_failures(&entries));
        // The determinism gate compares across thread counts on purpose —
        // checksums still gate exactly.
        let cross = DiffOptions {
            allow_thread_mismatch: true,
            ..DiffOptions::default()
        };
        assert!(!has_failures(&diff_reports(&base, &cur, cross)));
        cur.metrics[0] = Metric::timing("a", vec![10.0]).with_checksum("bbb");
        let entries = diff_reports(&base, &cur, cross);
        assert!(matches!(
            entries[0].verdict,
            Verdict::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn absent_threads_param_counts_as_one() {
        // Pre-parallelism baselines have no `threads` param; a serial
        // current run must still compare clean.
        let base = report_with(vec![Metric::timing("a", vec![10.0])]);
        let mut cur = base.clone();
        cur.param("threads", 1);
        assert!(!has_failures(&diff_reports(
            &base,
            &cur,
            DiffOptions::default()
        )));
    }

    #[test]
    fn stale_targets_collects_missing_targets_only() {
        let old1 = report_with(vec![Metric::timing("a", vec![1.0])]);
        let mut old2 = Report::new("t_gone", Scale::Quick);
        old2.push(Metric::value("v", 1.0));
        let live = old1.clone();
        let entries = diff_sets(
            &[old1, old2],
            std::slice::from_ref(&live),
            DiffOptions::default(),
        );
        assert_eq!(stale_targets(&entries), vec!["t_gone"]);
        // Stale baselines are still a gate failure, just better-reported.
        assert!(has_failures(&entries));

        let note = stale_baseline_note(&stale_targets(&entries), "benches/baselines");
        assert!(note.contains("benches/baselines/BENCH_t_gone.json"));
        assert!(note.contains("regenerate"), "{note}");
    }

    #[test]
    fn stale_targets_empty_on_clean_diff() {
        let set = vec![report_with(vec![Metric::timing("a", vec![1.0])])];
        let entries = diff_sets(&set, &set, DiffOptions::default());
        assert!(stale_targets(&entries).is_empty());
    }

    #[test]
    fn threshold_override_applies() {
        let base = report_with(vec![Metric::timing("a", vec![10.0])]);
        let mut cur = base.clone();
        cur.metrics[0] = Metric::timing("a", vec![12.0]);
        // Default budget (+500%) passes a 1.2x slowdown…
        assert!(!has_failures(&diff_reports(
            &base,
            &cur,
            DiffOptions::default()
        )));
        // …but a strict 10% budget fails it.
        let strict = DiffOptions {
            threshold_override: Some(0.1),
            ..DiffOptions::default()
        };
        assert!(has_failures(&diff_reports(&base, &cur, strict)));
    }
}
