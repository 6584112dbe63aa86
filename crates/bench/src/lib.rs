//! Shared utilities for the experiment harness binaries.
//!
//! Every binary under `src/bin/` regenerates one table or figure of the
//! paper's evaluation (Section 5); see `docs/REPRODUCTION.md` for the
//! index. Binaries accept `--quick` for a fast smoke run and `--full` for
//! paper-scale sweeps; defaults sit in between.
//!
//! Beyond the stdout tables, every binary records its seeded *results*
//! (counts, MAP scores, answer checksums) through a [`Bench`] session and
//! writes them as `BENCH_<target>.json` (see [`report`]) into `--out DIR`
//! (default `.`). The files are byte-reproducible, so the gate is `diff -r`
//! against `benches/baselines/`. The [`measure`] module times what the
//! printed run-time tables show; no time enters a file — run times are
//! measured by `benchmark/`.

#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

pub mod measure;
pub mod report;

use lapushdb::engine::AnswerSet;
use lapushdb::prelude::*;
use lapushdb::storage::fxhash::FxHasher;
use lapushdb::storage::Value;
use measure::MeasureSpec;
use report::{Metric, Report};
use std::hash::Hasher;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Command-line argument access: `--key value` or `--key=value`.
pub fn arg(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let flag = format!("--{name}");
    let prefix = format!("--{name}=");
    for (i, a) in args.iter().enumerate() {
        if let Some(v) = a.strip_prefix(&prefix) {
            return Some(v.to_string());
        }
        if a == &flag {
            if let Some(v) = args.get(i + 1) {
                if !v.starts_with("--") {
                    return Some(v.clone());
                }
            }
            return Some(String::new());
        }
    }
    None
}

/// Is a bare flag present?
pub fn flag(name: &str) -> bool {
    arg(name).is_some()
}

/// Experiment scale selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test sizes (seconds).
    Quick,
    /// Default sizes (a few minutes for the full suite).
    Normal,
    /// Paper-scale sweeps (can take much longer).
    Full,
}

impl Scale {
    /// Name in result files.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Normal => "normal",
            Scale::Full => "full",
        }
    }
}

/// Read the scale flags.
pub fn scale() -> Scale {
    if flag("quick") {
        Scale::Quick
    } else if flag("full") {
        Scale::Full
    } else {
        Scale::Normal
    }
}

/// Thread budget selected on the command line (`--threads N`, default 1 =
/// strictly serial). It reaches Monte Carlo sampling only (the engine
/// reads no thread budget). Results do not depend on it, so it is not
/// recorded: a `--threads 4` run writes the files a `--threads 1` run does.
pub fn threads() -> usize {
    arg("threads")
        .and_then(|s| s.parse().ok())
        .filter(|&t| t >= 1)
        .unwrap_or(1)
}

/// Where `BENCH_*.json` files go: `--out DIR`, else the current directory.
pub fn out_dir() -> PathBuf {
    arg("out")
        .filter(|s| !s.is_empty())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// One experiment binary's session: owns the [`report::Report`] being
/// built, the scale-appropriate [`measure::MeasureSpec`] for its printed
/// timings, and the output directory.
pub struct Bench {
    report: Report,
    spec: MeasureSpec,
    out: PathBuf,
}

impl Bench {
    /// Start a session for `target` (the report's unique name — binary
    /// name plus any variant suffix). Reads the scale flags and output
    /// directory from the command line.
    pub fn new(target: &str) -> Bench {
        let scale = scale();
        Bench {
            report: Report::new(target, scale),
            spec: MeasureSpec::for_scale(scale),
            out: out_dir(),
        }
    }

    /// Record a run parameter.
    pub fn param(&mut self, key: &str, value: impl ToString) {
        self.report.param(key, value);
    }

    /// The session's measurement spec (warmup/iteration counts).
    pub fn spec(&self) -> MeasureSpec {
        self.spec
    }

    /// Append a metric.
    pub fn push(&mut self, metric: Metric) {
        self.report.push(metric);
    }

    /// Write the file. Failing to is a hard error: a missing file must
    /// fail the `diff` gate loudly, here, not as an `Only in` line later.
    pub fn finish(self) {
        match self.report.write_to(&self.out) {
            Ok(path) => println!("\nbench report: {}", path.display()),
            Err(e) => {
                eprintln!("failed to write bench report: {e}");
                std::process::exit(1);
            }
        }
    }
}

fn finish_checksum(hasher: FxHasher) -> String {
    format!("{:016x}", hasher.finish())
}

/// Order-independent checksum of an answer set: keys with their scores
/// rounded to 9 significant digits (so the last few ulps of float noise
/// don't flip the digest), sorted, then hashed.
pub fn checksum_answers(ans: &AnswerSet) -> String {
    let mut lines: Vec<String> = ans
        .rows
        .iter()
        .map(|(key, score)| {
            let key_text = key
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",");
            format!("{key_text}\t{score:.9e}")
        })
        .collect();
    lines.sort();
    let mut hasher = FxHasher::default();
    for line in &lines {
        hasher.write(line.as_bytes());
        hasher.write_u8(b'\n');
    }
    finish_checksum(hasher)
}

/// Order-sensitive checksum of a float sequence (rounded like
/// [`checksum_answers`]).
pub fn checksum_f64s(xs: &[f64]) -> String {
    let mut hasher = FxHasher::default();
    for x in xs {
        hasher.write(format!("{x:.9e}").as_bytes());
        hasher.write_u8(b'\n');
    }
    finish_checksum(hasher)
}

/// Order-sensitive checksum of a string sequence (table rows, labels…).
pub fn checksum_strings<I, S>(items: I) -> String
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut hasher = FxHasher::default();
    for item in items {
        hasher.write(item.as_ref().as_bytes());
        hasher.write_u8(b'\n');
    }
    finish_checksum(hasher)
}

/// Time a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Milliseconds with 3 decimals.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Print a header + aligned rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// AP@k of a system answer set against a ground-truth answer set, aligning
/// answers by key (missing answers score 0).
pub fn ap_against(sys: &AnswerSet, gt: &AnswerSet, k: usize) -> f64 {
    let keys: Vec<Box<[Value]>> = gt.rows.keys().cloned().collect();
    let sys_scores: Vec<f64> = keys.iter().map(|key| sys.score_of(key)).collect();
    let gt_scores: Vec<f64> = keys.iter().map(|key| gt.score_of(key)).collect();
    if keys.is_empty() {
        return 1.0;
    }
    average_precision_at_k(&sys_scores, &gt_scores, k)
}

/// Average probability of the top-`k` ground-truth answers (the paper's
/// `avg[pa]`).
pub fn avg_top_answer_prob(gt: &AnswerSet, k: usize) -> f64 {
    // `ranked_top` keeps a k-bounded heap instead of sorting all answers.
    let top = gt.ranked_top(k);
    if top.is_empty() {
        0.0
    } else {
        top.iter().map(|(_, s)| *s).sum::<f64>() / top.len() as f64
    }
}

/// A controlled workload for the ranking experiments (Figures 5l–5p):
/// `q(z) :- R(z, x), S(x, y), T(y)` where each answer `z` owns between 1
/// and `groups` x-values (drawn uniformly, so lineage sizes vary across
/// answers), each linked to exactly `degree` y-values — so the plan that
/// dissociates `R` on `y` duplicates each R-tuple `degree` times
/// (`avg[d] = degree`), while probabilities are uniform in `[0, pi_max]`.
pub fn controlled_rst_db(
    answers: usize,
    groups: usize,
    degree: usize,
    pi_max: f64,
    seed: u64,
) -> (Database, Query) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    let r = db.create_relation("R", 2).unwrap();
    let s = db.create_relation("S", 2).unwrap();
    let t = db.create_relation("T", 1).unwrap();

    let mut y_next = 0i64;
    for z in 0..answers as i64 {
        let z_groups = rng.gen_range(1..=groups.max(1)) as i64;
        for g in 0..z_groups {
            let x = z * groups as i64 + g;
            let p = rng.gen_range(0.0..=pi_max);
            db.relation_mut(r)
                .push(Box::new([Value::Int(z), Value::Int(x)]), p)
                .unwrap();
            for _ in 0..degree {
                // Mostly-shared y pool: reuse an existing y with prob 1/2.
                let y = if y_next > 0 && rng.gen_bool(0.5) {
                    rng.gen_range(0..y_next)
                } else {
                    y_next += 1;
                    y_next - 1
                };
                let p = rng.gen_range(0.0..=pi_max);
                db.relation_mut(s)
                    .push(Box::new([Value::Int(x), Value::Int(y)]), p)
                    .unwrap();
            }
        }
    }
    for y in 0..y_next.max(1) {
        let p = rng.gen_range(0.0..=pi_max);
        db.relation_mut(t)
            .push(Box::new([Value::Int(y)]), p)
            .unwrap();
    }
    let q = parse_query("q(z) :- R(z, x), S(x, y), T(y)").unwrap();
    (db, q)
}

/// The evaluation strategies compared in the runtime experiments
/// (Figures 5a–5h).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Every minimal plan evaluated separately ("all plans").
    AllPlans,
    /// Optimization 1 (single plan).
    Opt1,
    /// Optimizations 1+2 (single plan + view reuse).
    Opt12,
    /// Optimizations 1+2+3 (plus semi-join reduction).
    Opt123,
    /// Deterministic SQL baseline (set semantics, no probabilities).
    Sql,
}

impl Method {
    /// Display label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            Method::AllPlans => "all plans",
            Method::Opt1 => "Opt1",
            Method::Opt12 => "Opt1-2",
            Method::Opt123 => "Opt1-3",
            Method::Sql => "standard SQL",
        }
    }

    /// Stable snake_case key for metric names in bench reports.
    pub fn key(self) -> &'static str {
        match self {
            Method::AllPlans => "all_plans",
            Method::Opt1 => "opt1",
            Method::Opt12 => "opt12",
            Method::Opt123 => "opt123",
            Method::Sql => "sql",
        }
    }

    /// All five series in figure order.
    pub fn all() -> [Method; 5] {
        [
            Method::AllPlans,
            Method::Opt1,
            Method::Opt12,
            Method::Opt123,
            Method::Sql,
        ]
    }
}

/// Run one strategy, returning the number of answers.
pub fn run_method(db: &Database, q: &Query, m: Method) -> usize {
    use lapushdb::engine::deterministic_answers;
    use lapushdb::{rank_by_dissociation, OptLevel, RankOptions};
    let opts = |opt| RankOptions {
        opt,
        ..RankOptions::default()
    };
    match m {
        Method::AllPlans => rank_by_dissociation(db, q, opts(OptLevel::MultiPlan))
            .expect("eval ok")
            .len(),
        Method::Opt1 => rank_by_dissociation(db, q, opts(OptLevel::Opt1))
            .expect("eval ok")
            .len(),
        Method::Opt12 => rank_by_dissociation(db, q, opts(OptLevel::Opt12))
            .expect("eval ok")
            .len(),
        Method::Opt123 => rank_by_dissociation(db, q, opts(OptLevel::Opt123))
            .expect("eval ok")
            .len(),
        Method::Sql => deterministic_answers(db, q).expect("eval ok").len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lapushdb::{exact_answers, rank_by_dissociation, RankOptions};

    #[test]
    fn controlled_workload_has_requested_answers() {
        let (db, q) = controlled_rst_db(5, 2, 3, 0.5, 1);
        let gt = exact_answers(&db, &q).unwrap();
        assert_eq!(gt.len(), 5);
        let rho = rank_by_dissociation(&db, &q, RankOptions::default()).unwrap();
        assert_eq!(rho.len(), 5);
        for (k, &s) in &rho.rows {
            assert!(s >= gt.score_of(k) - 1e-10);
        }
    }

    #[test]
    fn ap_against_aligns_keys() {
        let (db, q) = controlled_rst_db(6, 2, 2, 0.4, 2);
        let gt = exact_answers(&db, &q).unwrap();
        // Perfect agreement with itself.
        assert!((ap_against(&gt, &gt, 5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn answer_checksum_is_order_independent_and_sensitive() {
        let (db, q) = controlled_rst_db(5, 2, 3, 0.5, 1);
        let gt = exact_answers(&db, &q).unwrap();
        let a = checksum_answers(&gt);
        let b = checksum_answers(&gt.clone());
        assert_eq!(a, b);
        let mut perturbed = gt.clone();
        if let Some(score) = perturbed.rows.values_mut().next() {
            *score += 0.125;
        }
        assert_ne!(a, checksum_answers(&perturbed));
    }

    #[test]
    fn float_and_string_checksums_are_stable() {
        assert_eq!(checksum_f64s(&[1.0, 2.0]), checksum_f64s(&[1.0, 2.0]));
        assert_ne!(checksum_f64s(&[1.0, 2.0]), checksum_f64s(&[2.0, 1.0]));
        assert_eq!(checksum_strings(["a", "b"]), checksum_strings(["a", "b"]));
        assert_ne!(checksum_strings(["ab"]), checksum_strings(["a", "b"]));
    }

    #[test]
    fn avg_pa_in_unit_interval() {
        let (db, q) = controlled_rst_db(4, 2, 2, 0.6, 3);
        let gt = exact_answers(&db, &q).unwrap();
        let pa = avg_top_answer_prob(&gt, 10);
        assert!((0.0..=1.0).contains(&pa));
    }
}
