//! Percentiles, the tail-percentile picker, and the bound comparison.

/// Percentiles the picker chooses among, ascending, each with the share
/// of samples beyond it in parts per 10 000 (integers: `100.0 - 99.9` is
/// not exactly `0.1` in floating point).
const LADDER: [(f64, usize); 7] = [
    (50.0, 5000),
    (75.0, 2500),
    (90.0, 1000),
    (95.0, 500),
    (99.0, 100),
    (99.9, 10),
    (99.99, 1),
];

/// The highest percentile of [`LADDER`] that still has at least ten of
/// `n` samples beyond it; `None` below 20 samples (not even the median
/// has ten on its far side).
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rfind(|(_, beyond)| n * beyond / 10_000 >= 10)
        .map(|(p, _)| *p)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// What is printed beside every timing: the median, the highest
/// percentile the sample supports, and the sample count.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    /// Lower decile: the value the in-process latency metrics report.
    pub p10: f64,
    pub p50: f64,
    /// `(percentile, value)` from [`tail_percentile`].
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn note(&self) -> String {
        match self.tail {
            Some((p, v)) => format!(
                "n={} p10={:.4} p50={:.4} p{}={:.4}",
                self.n, self.p10, self.p50, p, v
            ),
            None => format!("n={} p10={:.4} p50={:.4}", self.n, self.p10, self.p50),
        }
    }
}

/// Sorts `samples` in place and summarizes them.
pub fn summarize(samples: &mut [f64]) -> Summary {
    samples.sort_by(f64::total_cmp);
    Summary {
        n: samples.len(),
        min: samples[0],
        p10: percentile(samples, 10.0),
        p50: percentile(samples, 50.0),
        tail: tail_percentile(samples.len()).map(|p| (p, percentile(samples, p))),
    }
}

/// Mean over the keys of `stat` of each key's samples: the latency of a
/// class whose alternatives (hot queries, ingest target relations) cost
/// very differently. A quantile over all samples would sit on a gap
/// between two alternatives' modes and jump between them from run to run.
pub fn keyed_mean(samples: &[(usize, f64)], stat: impl Fn(&mut [f64]) -> f64) -> f64 {
    let mut by_key: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
    for &(key, ms) in samples {
        by_key.entry(key).or_default().push(ms);
    }
    assert!(!by_key.is_empty(), "no samples");
    by_key.values_mut().map(|v| stat(v)).sum::<f64>() / by_key.len() as f64
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    summarize(&mut v).p50
}

/// Share of `parent` by which `current` is worse (negative: better).
pub fn worsening(parent: f64, current: f64, higher_is_better: bool) -> f64 {
    let delta = if higher_is_better {
        parent - current
    } else {
        current - parent
    };
    delta / parent.abs()
}

/// The regression rule of `BENCHMARK.json`: `current` may be worse than
/// `parent` by at most `bound` of `parent`.
pub fn within_bound(parent: f64, current: f64, higher_is_better: bool, bound: f64) -> bool {
    worsening(parent, current, higher_is_better) <= bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(250), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_600), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
        let mut odd = vec![3.0, 1.0, 2.0];
        let s = summarize(&mut odd);
        assert_eq!((s.n, s.p10, s.p50, s.tail.is_none()), (3, 1.0, 2.0, true));
        // Key 0's decile is 2, key 7's is 12: the two modes are not mixed.
        let keyed: Vec<(usize, f64)> = (1..=20)
            .map(|i| (0, f64::from(i)))
            .chain((10..=30).map(|i| (7, f64::from(i))))
            .collect();
        assert_eq!(keyed_mean(&keyed, |v| summarize(v).p10), (2.0 + 12.0) / 2.0);
        assert_eq!(keyed_mean(&keyed, |v| summarize(v).min), (1.0 + 10.0) / 2.0);
    }

    #[test]
    fn bound_comparison_respects_direction() {
        // Lower is better: +10% is the edge of a 10% bound.
        assert!(within_bound(100.0, 110.0, false, 0.10));
        assert!(!within_bound(100.0, 110.1, false, 0.10));
        assert!(within_bound(100.0, 50.0, false, 0.0));
        // Higher is better: a drop is the worsening.
        assert!(within_bound(200.0, 180.0, true, 0.10));
        assert!(!within_bound(200.0, 179.0, true, 0.10));
        assert!(within_bound(200.0, 400.0, true, 0.0));
        assert!((worsening(200.0, 150.0, true) - 0.25).abs() < 1e-12);
    }
}
