//! Repeated-measurement timing for the *printed* tables.
//!
//! Some figures of the paper are run-time plots (Figs. 5a–h) and the
//! experiment binaries print them as tables; [`run`] executes a closure
//! `warmup + iters` times and keeps the wall time of each measured
//! iteration, of which the table shows the median. Nothing timed here is
//! ever written to a result file — the repository's one timing harness is
//! `benchmark/` (see its README for the paired protocol).

use crate::Scale;
use std::time::Instant;

/// How many times to run a measured closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasureSpec {
    /// Untimed executions before measurement starts (cache/branch warmup).
    pub warmup: usize,
    /// Timed executions; each contributes one wall-time sample.
    pub iters: usize,
}

impl MeasureSpec {
    /// One timed run, no warmup: for expensive sweeps where repetition
    /// would dominate the suite's wall time.
    pub fn once() -> Self {
        MeasureSpec {
            warmup: 0,
            iters: 1,
        }
    }

    /// Scale-appropriate spec. Quick problem sizes are small, so `--quick`
    /// affords a warmup plus three timed iterations for a stable median.
    /// Normal/full sweeps are human-driven exploration where suite wall
    /// time dominates: single-shot timing.
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Quick => MeasureSpec {
                warmup: 1,
                iters: 3,
            },
            Scale::Normal | Scale::Full => MeasureSpec::once(),
        }
    }
}

/// Result of measuring a closure: the last return value plus one wall-time
/// sample (in milliseconds) per timed iteration.
#[derive(Debug, Clone)]
pub struct Timed<T> {
    /// Return value of the final timed execution.
    pub value: T,
    /// Wall time of each timed iteration, milliseconds.
    pub samples_ms: Vec<f64>,
}

impl<T> Timed<T> {
    /// Median of the samples.
    pub fn median_ms(&self) -> f64 {
        median(&self.samples_ms)
    }
}

/// Execute `f` per `spec` (warmup runs discarded, `iters` runs timed) and
/// collect wall-time samples. `spec.iters` is clamped to at least 1 so a
/// value is always produced.
pub fn run<T>(spec: MeasureSpec, mut f: impl FnMut() -> T) -> Timed<T> {
    for _ in 0..spec.warmup {
        let _ = f();
    }
    let iters = spec.iters.max(1);
    let mut samples_ms = Vec::with_capacity(iters);
    let mut value = None;
    for _ in 0..iters {
        let t0 = Instant::now();
        let v = f();
        samples_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        value = Some(v);
    }
    Timed {
        value: value.expect("iters >= 1"),
        samples_ms,
    }
}

/// Median of a sample set; 0.0 when empty. Averages the two middle
/// elements for even lengths.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 9.0, 3.0]), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
    }

    #[test]
    fn run_collects_requested_samples() {
        let mut calls = 0usize;
        let spec = MeasureSpec {
            warmup: 2,
            iters: 3,
        };
        let timed = run(spec, || {
            calls += 1;
            calls
        });
        assert_eq!(calls, 5);
        assert_eq!(timed.samples_ms.len(), 3);
        assert_eq!(timed.value, 5);
        assert!(timed.median_ms() >= 0.0);
    }

    #[test]
    fn run_clamps_zero_iters() {
        let timed = run(
            MeasureSpec {
                warmup: 0,
                iters: 0,
            },
            || 7,
        );
        assert_eq!(timed.value, 7);
        assert_eq!(timed.samples_ms.len(), 1);
    }
}
