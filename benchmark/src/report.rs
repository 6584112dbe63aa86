//! Command line, the metric table, the check ledger, and the one-line
//! JSON result the driver reads.

use crate::json::Json;
use crate::stats::{keyed_mean, summarize};

/// `--workload <name> --seed <u64> --seconds <f64> --trace <0|1> [--check]`.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Every workload at check scale in one process.
    pub check: bool,
}

pub const DEFAULT_SEED: u64 = 20_150_831;

impl Args {
    pub fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: 16.0,
            trace: false,
            check: false,
        };
        let mut argv = argv.skip(1);
        while let Some(flag) = argv.next() {
            let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = Some(value()?),
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => args.trace = value()? == "1",
                "--check" => args.check = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if args.seconds.is_nan() || args.seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        if args.check == args.workload.is_some() {
            return Err("give exactly one of --workload <name> and --check".into());
        }
        Ok(args)
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

/// Metrics and checks of one run of one workload.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            note: note.into(),
        });
    }

    /// A latency metric: the lower decile of `samples_ms` as the value
    /// (see README, "Why the lower decile"), with the median, the highest
    /// percentile the sample supports, and the sample count beside it.
    pub fn latency(&mut self, name: &str, samples_ms: &mut [f64]) {
        let s = summarize(samples_ms);
        self.metric(name, s.p10, "ms", s.note());
    }

    /// A latency metric of a class whose samples are only comparable
    /// within a key: [`keyed_mean`] of `stat`.
    pub fn keyed_latency(
        &mut self,
        name: &str,
        samples_ms: &[(usize, f64)],
        stat: impl Fn(&mut [f64]) -> f64,
    ) {
        let mut all: Vec<f64> = samples_ms.iter().map(|s| s.1).collect();
        let note = format!(
            "mean over keys; all samples: {}",
            summarize(&mut all).note()
        );
        self.metric(name, keyed_mean(samples_ms, stat), "ms", note);
    }

    /// Count `n` attempted ops, `bad` of them failed.
    pub fn ops(&mut self, n: u64, bad: u64, what: &str) {
        self.attempted += n;
        self.failed += bad;
        if bad > 0 {
            self.failures.push(format!("{bad} of {n} {what}"));
        }
    }

    /// One correctness check; a failing check is a failed op.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// The metric names must be exactly the `section` (`end_to_end` or
    /// `per_layer`) of `BENCHMARK.json`: nothing missing, nothing extra,
    /// same units.
    pub fn check_names(&mut self, section: &str) {
        let declared = declared_metrics(section);
        for (name, unit) in &declared {
            let found = self
                .metrics
                .iter()
                .find(|m| &m.name == name)
                .map(|m| m.unit);
            self.check(found == Some(unit.as_str()), || {
                format!("BENCHMARK.json {section} metric {name} [{unit}] printed as {found:?}")
            });
        }
        let extra: Vec<String> = self
            .metrics
            .iter()
            .map(|m| m.name.clone())
            .filter(|n| !declared.iter().any(|(d, _)| d == n))
            .collect();
        self.check(extra.is_empty(), || {
            format!("metrics not in BENCHMARK.json {section}: {extra:?}")
        });
    }

    /// Human-readable table, then — as the last line — the JSON object
    /// `{"correct", "attempted", "failed", "metrics"}`.
    pub fn print(&self, workload: &str) {
        println!(
            "\n{:<34} {:>16} {:<6} notes",
            format!("metric ({workload})"),
            "value",
            "unit"
        );
        for m in &self.metrics {
            println!("{:<34} {:>16.4} {:<6} {}", m.name, m.value, m.unit, m.note);
        }
        println!(
            "ops attempted={} failed={} fail_ratio={}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for f in &self.failures {
            println!("FAILED: {f}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// JSON has no NaN/inf; a metric that came out non-finite is a harness
/// bug and must not parse as a healthy number.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// `(name, unit)` of every metric in a section of the repo's
/// `BENCHMARK.json` (located relative to this package, not the cwd).
pub fn declared_metrics(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let doc = Json::parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"));
    let field = |m: &Json, key: &str| {
        m.get(key)
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string()
    };
    doc.get(section)
        .map(Json::items)
        .unwrap_or_default()
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        std::iter::once("bench".to_string()).chain(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = Args::parse(argv("--workload chain7 --seed 9 --seconds 2.5 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace, a.check),
            (Some("chain7"), 9, 2.5, true, false)
        );
        assert!(Args::parse(argv("--check")).unwrap().check);
        for bad in [
            "",
            "--workload",
            "--workload x --check",
            "--workload x --seconds 0",
            "--bogus 1",
        ] {
            assert!(Args::parse(argv(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn failed_checks_are_failed_ops() {
        let mut r = Report::default();
        r.ops(10, 0, "requests");
        r.check(true, || unreachable!());
        r.check(false, || "broken".into());
        assert_eq!((r.attempted, r.failed, r.correct()), (12, 1, false));
    }
}
