//! Result files: the writer of `BENCH_<target>.json`.
//!
//! Every experiment binary writes one file per run via
//! [`Report::write_to`]:
//!
//! ```json
//! {
//!   "target": "fig5_runtime_chain_k4",
//!   "scale": "quick",
//!   "params": {"family": "chain", "k": "4"},
//!   "metrics": [
//!     {"name": "opt12_n100", "value": 35, "checksum": "00ff00ff00ff00ff"},
//!     {"name": "sql_n100", "value": 35}
//!   ]
//! }
//! ```
//!
//! A file holds seeded results only — counts, MAP scores, answer-set
//! checksums — and nothing measured from a clock, read from the machine
//! or dependent on `--threads`, so its bytes are a function of the code
//! alone: params and metrics keep insertion order, one metric per line,
//! numbers in their shortest round-tripping form. That is what lets plain
//! `diff -r` against `benches/baselines/` be the whole gate. Nothing in
//! the workspace reads these files back.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::Scale;

/// One named result: a scalar, a checksum, or both — never neither.
#[derive(Debug, Clone)]
pub struct Metric {
    name: String,
    value: Option<f64>,
    checksum: Option<String>,
}

impl Metric {
    /// A scalar result (answer count, MAP score, plan count, …).
    pub fn value(name: impl Into<String>, value: f64) -> Metric {
        Metric {
            name: name.into(),
            value: Some(value),
            checksum: None,
        }
    }

    /// A result checksum (see the `checksum_*` helpers of the crate root).
    pub fn checksum(name: impl Into<String>, checksum: impl Into<String>) -> Metric {
        Metric {
            name: name.into(),
            value: None,
            checksum: Some(checksum.into()),
        }
    }

    /// Attach a result checksum.
    pub fn with_checksum(mut self, checksum: impl Into<String>) -> Metric {
        self.checksum = Some(checksum.into());
        self
    }
}

/// Everything `BENCH_<target>.json` carries.
#[derive(Debug)]
pub struct Report {
    target: String,
    scale: Scale,
    params: Vec<(String, String)>,
    metrics: Vec<Metric>,
}

impl Report {
    /// An empty report for `target` (binary name plus variant) at `scale`.
    pub fn new(target: impl Into<String>, scale: Scale) -> Report {
        Report {
            target: target.into(),
            scale,
            params: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Record a run parameter.
    pub fn param(&mut self, key: impl Into<String>, value: impl ToString) {
        self.params.push((key.into(), value.to_string()));
    }

    /// Append a metric.
    pub fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    /// The file name this report is written to: `BENCH_<target>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.target)
    }

    /// The file's contents.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n  \"target\": ");
        render_str(&mut out, &self.target);
        out.push_str(",\n  \"scale\": ");
        render_str(&mut out, self.scale.name());
        out.push_str(",\n  \"params\": {");
        for (i, (key, value)) in self.params.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            render_str(&mut out, key);
            out.push_str(": ");
            render_str(&mut out, value);
        }
        out.push_str("},\n  \"metrics\": [\n");
        for (i, m) in self.metrics.iter().enumerate() {
            out.push_str("    {\"name\": ");
            render_str(&mut out, &m.name);
            if let Some(v) = m.value {
                out.push_str(", \"value\": ");
                render_num(&mut out, v);
            }
            if let Some(cs) = &m.checksum {
                out.push_str(", \"checksum\": ");
                render_str(&mut out, cs);
            }
            out.push_str(if i + 1 < self.metrics.len() {
                "},\n"
            } else {
                "}\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Write `BENCH_<target>.json` under `dir` (created if missing);
    /// returns the written path.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.render())?;
        Ok(path)
    }
}

fn render_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        // No experiment produces these; degrade to null on principle.
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        // `{}` on f64 prints the shortest string that round-trips, on
        // every platform.
        let _ = write!(out, "{n}");
    }
}

fn render_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_bytes_are_pinned() {
        let mut r = Report::new("fig_test", Scale::Quick);
        r.param("family", "chain");
        r.param("tricky", "a\"b\\c\nd\te\u{1}");
        r.push(Metric::value("map_at_10", 0.998));
        r.push(Metric::checksum("answers", "00ff00ff00ff00ff"));
        r.push(Metric::value("opt12_n100", 35.0).with_checksum("0123456789abcdef"));
        r.push(Metric::value("both", -0.1).with_checksum("fedcba9876543210"));
        assert_eq!(r.file_name(), "BENCH_fig_test.json");
        assert_eq!(
            r.render(),
            r#"{
  "target": "fig_test",
  "scale": "quick",
  "params": {"family": "chain", "tricky": "a\"b\\c\nd\te\u0001"},
  "metrics": [
    {"name": "map_at_10", "value": 0.998},
    {"name": "answers", "checksum": "00ff00ff00ff00ff"},
    {"name": "opt12_n100", "value": 35, "checksum": "0123456789abcdef"},
    {"name": "both", "value": -0.1, "checksum": "fedcba9876543210"}
  ]
}
"#
        );
    }

    #[test]
    fn numbers_render_shortest_and_integers_bare() {
        let text = |n: f64| {
            let mut s = String::new();
            render_num(&mut s, n);
            s
        };
        assert_eq!(text(429.0), "429");
        assert_eq!(text(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(text(1e15), "1000000000000000");
        assert_eq!(text(f64::NAN), "null");
    }

    #[test]
    fn write_creates_the_directory() {
        let dir = std::env::temp_dir().join(format!(
            "lapush_report_test_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut r = Report::new("fig_test", Scale::Quick);
        r.push(Metric::value("n", 1.0));
        let path = r.write_to(&dir.join("nested")).expect("write");
        assert!(path.ends_with("nested/BENCH_fig_test.json"));
        assert_eq!(std::fs::read_to_string(&path).expect("read"), r.render());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
