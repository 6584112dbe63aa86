//! Minimal stand-in for the crates.io `criterion` benchmark harness.
//!
//! This build environment has no registry access, so the workspace vendors
//! the subset of the Criterion API its benches use: [`Criterion`],
//! [`BenchmarkGroup`] (`sample_size`, `bench_with_input`, `finish`),
//! [`BenchmarkId`], [`Bencher::iter`], [`black_box`], and the
//! [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Measurement model: each benchmark is warmed up briefly, then timed for
//! `sample_size` samples; the mean, minimum, and maximum per-iteration times
//! are printed in Criterion's familiar `time: [low mean high]` shape. There
//! are no statistical comparisons, plots, or saved baselines — this harness
//! exists so `cargo bench` compiles, runs, and prints honest wall-clock
//! numbers offline. Swap the workspace manifest entry to
//! `criterion = "0.5"` to return to the real crate.

#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Identifier for one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `function_name/parameter` form.
    pub fn new<P: Display>(function_name: &str, parameter: P) -> Self {
        BenchmarkId {
            id: format!("{function_name}/{parameter}"),
        }
    }

    /// Parameter-only form.
    pub fn from_parameter<P: Display>(parameter: P) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

/// Timing loop handed to benchmark closures.
pub struct Bencher {
    samples: usize,
    /// Mean per-iteration durations, one per sample.
    results: Vec<Duration>,
}

impl Bencher {
    /// Time `routine`, `samples` times, auto-scaling the inner iteration
    /// count so each sample runs for roughly a millisecond.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // Warm-up and iteration-count calibration.
        let mut iters: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            let elapsed = start.elapsed();
            if elapsed >= Duration::from_millis(1) || iters >= 1 << 20 {
                break;
            }
            iters *= 2;
        }
        self.results.clear();
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            self.results.push(start.elapsed() / iters as u32);
        }
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos() as f64;
    if ns < 1_000.0 {
        format!("{ns:.2} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    // Tied to the parent so the borrow mirrors upstream's API shape.
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Number of timed samples per benchmark (upstream default: 100; this
    /// stub defaults lower because it has no adaptive measurement time).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.run(&id.id, |b| f(b, input));
        self
    }

    pub fn bench_function<F>(&mut self, id: BenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run(&id.id, |b| f(b));
        self
    }

    fn run<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) {
        let mut b = Bencher {
            samples: self.sample_size,
            results: Vec::new(),
        };
        f(&mut b);
        let label = format!("{}/{}", self.name, id);
        if b.results.is_empty() {
            println!("{label:<40} (no samples)");
            return;
        }
        let min = *b.results.iter().min().unwrap();
        let max = *b.results.iter().max().unwrap();
        let mean = b.results.iter().sum::<Duration>() / b.results.len() as u32;
        println!(
            "{label:<40} time: [{} {} {}]",
            fmt_duration(min),
            fmt_duration(mean),
            fmt_duration(max)
        );
    }

    pub fn finish(&mut self) {}
}

/// Top-level benchmark driver.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    pub fn benchmark_group<S: Into<String>>(&mut self, name: S) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\n== group: {name}");
        BenchmarkGroup {
            name,
            sample_size: 20,
            _criterion: self,
        }
    }

    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.benchmark_group(name)
            .bench_function(BenchmarkId::from_parameter(name), &mut f);
        self
    }

    /// Upstream parses CLI args here; the stub only honors `--help`-less
    /// invocation and ignores filters, which is fine for smoke runs.
    pub fn configure_from_args(self) -> Self {
        self
    }
}

/// Subset of `criterion::criterion_group!`: the plain
/// `criterion_group!(name, target, ...)` form.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Subset of `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo bench` passes `--bench`; `cargo test --benches` passes
            // harness flags. Accept and ignore them like upstream does.
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_requested_samples() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("stub");
        g.sample_size(5);
        let mut ran = false;
        g.bench_with_input(BenchmarkId::new("noop", 1), &3u64, |b, &x| {
            b.iter(|| x + 1);
            ran = true;
        });
        g.finish();
        assert!(ran);
    }

    #[test]
    fn benchmark_id_forms() {
        assert_eq!(BenchmarkId::new("chain", 4).id, "chain/4");
        assert_eq!(BenchmarkId::from_parameter("mc").id, "mc");
    }
}
