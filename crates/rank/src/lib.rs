//! # lapush-rank
//!
//! Ranking-quality metrics for the paper's experiments (Section 5):
//! **mean average precision at 10** with analytic tie handling.
//!
//! The paper's definition: `AP@10 := (Σ_{k=1}^{10} P@k) / 10`, where `P@k`
//! is "the fraction of top-k answers according to ground truth that are
//! also in the top-k answers returned". Ties (very common when scores
//! coincide, e.g. the all-tied "random ranking" baseline) are handled with
//! a variant of the analytic expected-value method of McSherry & Najork
//! (ECIR 2008): the expectation of `|top-k(sys) ∩ top-k(GT)|` is computed
//! in closed form assuming uniformly random, independent orderings within
//! tie groups.
//!
//! With 25 answers and an uninformative (all-tied) system ranking,
//! `MAP@10 ≈ 0.220` — the paper's "random average precision" baseline.

#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

/// Probability that item `i` lands in the top `k` of a ranking by `scores`
/// (descending), when ties are broken uniformly at random.
///
/// With `a` items strictly better than `i` and `t` items tied with `i`
/// (including itself): 0 if `a ≥ k`; 1 if `a + t ≤ k`; else `(k − a) / t`.
pub fn topk_membership_prob(scores: &[f64], i: usize, k: usize) -> f64 {
    let si = scores[i];
    let a = scores.iter().filter(|&&s| s > si).count();
    let t = scores.iter().filter(|&&s| s == si).count();
    if a >= k {
        0.0
    } else if a + t <= k {
        1.0
    } else {
        (k - a) as f64 / t as f64
    }
}

/// Expected size of `top-k(sys) ∩ top-k(gt)` under independent random
/// tie-breaking. `sys` and `gt` are parallel score slices over the same
/// items.
pub fn expected_topk_overlap(sys: &[f64], gt: &[f64], k: usize) -> f64 {
    assert_eq!(sys.len(), gt.len(), "score slices must be parallel");
    (0..sys.len())
        .map(|i| topk_membership_prob(sys, i, k) * topk_membership_prob(gt, i, k))
        .sum()
}

/// Tie-aware `AP@k` of a system ranking against a ground-truth ranking
/// (both given as parallel score slices; higher = better).
pub fn average_precision_at_k(sys: &[f64], gt: &[f64], k: usize) -> f64 {
    assert!(k > 0, "k must be positive");
    let mut total = 0.0;
    for kk in 1..=k {
        total += expected_topk_overlap(sys, gt, kk) / kk as f64;
    }
    total / k as f64
}

/// Mean AP@k over several runs (the experiments' MAP).
pub fn map_at_k<'a, I>(runs: I, k: usize) -> f64
where
    I: IntoIterator<Item = (&'a [f64], &'a [f64])>,
{
    let mut sum = 0.0;
    let mut n = 0usize;
    for (sys, gt) in runs {
        sum += average_precision_at_k(sys, gt, k);
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The "random average precision" baseline: AP@k of an all-tied system
/// ranking over `n` answers (assuming an untied ground truth).
/// For `n = 25, k = 10` this is `0.22`.
pub fn random_baseline_ap(n: usize, k: usize) -> f64 {
    assert!(n > 0);
    let mut total = 0.0;
    for kk in 1..=k {
        // E|overlap| = Σ_{i ∈ GT top-kk} kk/n = min(kk,n)·kk/n.
        let overlap = (kk.min(n) * kk) as f64 / n as f64;
        total += overlap.min(kk as f64) / kk as f64;
    }
    total / k as f64
}

/// Mean and (population) standard deviation of a sample.
pub fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_ranking_scores_one() {
        let gt = [0.9, 0.8, 0.7, 0.6, 0.5];
        assert!((average_precision_at_k(&gt, &gt, 3) - 1.0).abs() < 1e-12);
        // Any strictly monotone transform of GT is also perfect.
        let sys: Vec<f64> = gt.iter().map(|s| s * 0.1).collect();
        assert!((average_precision_at_k(&sys, &gt, 3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn paper_random_baseline_25_answers() {
        // Paper, Setup 1: "random average precision for 25 answers …
        // MAP@10 ≈ 0.220".
        let b = random_baseline_ap(25, 10);
        assert!((b - 0.22).abs() < 1e-12, "{b}");
        // All-tied system scores give the same value.
        let sys = vec![1.0; 25];
        let gt: Vec<f64> = (0..25).map(|i| i as f64).collect();
        let ap = average_precision_at_k(&sys, &gt, 10);
        assert!((ap - 0.22).abs() < 1e-12, "{ap}");
    }

    #[test]
    fn reversed_ranking_scores_low() {
        let gt: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let sys: Vec<f64> = (0..20).map(|i| -(i as f64)).collect();
        let ap = average_precision_at_k(&sys, &gt, 10);
        assert!(ap < 0.25, "{ap}");
    }

    #[test]
    fn membership_prob_cases() {
        let scores = [5.0, 4.0, 4.0, 4.0, 1.0];
        // Item 0 (score 5) is always in top-1.
        assert_eq!(topk_membership_prob(&scores, 0, 1), 1.0);
        // The three tied items compete for 1 slot at k=2.
        assert!((topk_membership_prob(&scores, 1, 2) - 1.0 / 3.0).abs() < 1e-12);
        // At k=4 all tied items fit.
        assert_eq!(topk_membership_prob(&scores, 2, 4), 1.0);
        // Worst item out of top-4.
        assert_eq!(topk_membership_prob(&scores, 4, 4), 0.0);
        // k beyond list covers everything.
        assert_eq!(topk_membership_prob(&scores, 4, 5), 1.0);
    }

    #[test]
    fn overlap_symmetry() {
        let a = [0.9, 0.5, 0.1, 0.7];
        let b = [0.2, 0.8, 0.4, 0.6];
        for k in 1..=4 {
            let ab = expected_topk_overlap(&a, &b, k);
            let ba = expected_topk_overlap(&b, &a, k);
            assert!((ab - ba).abs() < 1e-12);
        }
    }

    #[test]
    fn ap_bounded_in_unit_interval() {
        let sys = [0.1, 0.9, 0.9, 0.3, 0.3, 0.3];
        let gt = [0.5, 0.5, 0.5, 0.2, 0.8, 0.1];
        for k in 1..=6 {
            let ap = average_precision_at_k(&sys, &gt, k);
            assert!((0.0..=1.0 + 1e-12).contains(&ap), "k={k}: {ap}");
        }
    }

    #[test]
    fn map_averages_runs() {
        let gt = [3.0, 2.0, 1.0];
        let perfect = [30.0, 20.0, 10.0];
        let tied = [1.0, 1.0, 1.0];
        let runs: Vec<(&[f64], &[f64])> = vec![(&perfect, &gt), (&tied, &gt)];
        let m = map_at_k(runs, 3);
        let ap_tied = average_precision_at_k(&tied, &gt, 3);
        assert!((m - (1.0 + ap_tied) / 2.0).abs() < 1e-12);
        assert_eq!(map_at_k(std::iter::empty(), 3), 0.0);
    }

    #[test]
    fn expected_overlap_matches_simulation() {
        // Monte Carlo check of the analytic tie handling.
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let sys = [1.0, 1.0, 0.5, 0.5, 0.5];
        let gt = [2.0, 1.0, 1.0, 0.0, 0.0];
        let k = 2;
        let analytic = expected_topk_overlap(&sys, &gt, k);

        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let trials = 200_000;
        let mut acc = 0.0;
        for _ in 0..trials {
            let topk = |scores: &[f64], rng: &mut rand::rngs::StdRng| {
                let mut idx: Vec<usize> = (0..scores.len()).collect();
                idx.shuffle(rng);
                idx.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap());
                idx.into_iter().take(k).collect::<Vec<_>>()
            };
            let ts = topk(&sys, &mut rng);
            let tg = topk(&gt, &mut rng);
            acc += ts.iter().filter(|i| tg.contains(i)).count() as f64;
        }
        let sim = acc / trials as f64;
        assert!(
            (analytic - sim).abs() < 0.01,
            "analytic {analytic} sim {sim}"
        );
    }

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-12);
        assert!((s - 2.0).abs() < 1e-12);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }
}
