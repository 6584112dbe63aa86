//! Monte Carlo estimators for DNF probability.
//!
//! * [`monte_carlo`] — the naive estimator used by the paper's `MC(x)`
//!   baseline: sample each tuple independently, evaluate the lineage,
//!   average. Its ranking quality degrades when answer probabilities
//!   cluster near 0 or 1 (paper, Result 4).
//! * [`karp_luby`] — the Karp–Luby unbiased estimator (an FPRAS for DNF
//!   counting), included as an extension; it importance-samples satisfied
//!   implicants instead of full assignments.

use crate::formula::Dnf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Naive Monte Carlo with a caller-provided RNG: fraction of `samples`
/// random worlds satisfying the DNF.
pub fn monte_carlo_with<R: Rng>(dnf: &Dnf, probs: &[f64], samples: usize, rng: &mut R) -> f64 {
    if dnf.is_false() {
        return 0.0;
    }
    if dnf.is_true() {
        return 1.0;
    }
    let vars = dnf.vars();
    // Dense remap for fast lookup.
    let max = *vars.last().expect("non-constant dnf") as usize + 1;
    let mut truth = vec![false; max];
    let mut hits = 0usize;
    for _ in 0..samples {
        for &v in &vars {
            truth[v as usize] = rng.gen_bool(probs[v as usize].clamp(0.0, 1.0));
        }
        if dnf.eval(|v| truth[v as usize]) {
            hits += 1;
        }
    }
    hits as f64 / samples as f64
}

/// Naive Monte Carlo with a fixed seed (reproducible).
pub fn monte_carlo(dnf: &Dnf, probs: &[f64], samples: usize, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    monte_carlo_with(dnf, probs, samples, &mut rng)
}

/// Per-answer Monte Carlo over many DNFs, optionally in parallel.
///
/// DNF `i` is estimated with its own RNG seeded `seed + i` (wrapping),
/// exactly like the serial per-answer loop of the drivers. Each answer is
/// one task of one [`lapush_engine::pool::run_scope`] call, which runs
/// them serially at a budget of at most 1, cuts them into contiguous
/// groups otherwise, and returns the estimates in answer order: they are
/// **bit-identical at every thread count**.
pub fn monte_carlo_each(
    dnfs: &[&Dnf],
    probs: &[f64],
    samples: usize,
    seed: u64,
    threads: usize,
) -> Vec<f64> {
    let tasks: Vec<_> = (dnfs.iter().enumerate())
        .map(|(i, dnf)| move || monte_carlo(dnf, probs, samples, seed.wrapping_add(i as u64)))
        .collect();
    lapush_engine::pool::run_scope(threads, tasks)
}

/// Karp–Luby unbiased estimator for monotone DNF probability.
///
/// Let `w(i) = P(implicant i true) = ∏ p(v)` and `W = Σ w(i)`. Sample an
/// implicant `i ∝ w(i)`, then a world conditioned on `i` being true; the
/// indicator that `i` is the *first* satisfied implicant in that world has
/// expectation `P(F)/W`.
pub fn karp_luby(dnf: &Dnf, probs: &[f64], samples: usize, seed: u64) -> f64 {
    if dnf.is_false() {
        return 0.0;
    }
    if dnf.is_true() {
        return 1.0;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let weights: Vec<f64> = dnf
        .implicants
        .iter()
        .map(|imp| imp.iter().map(|&v| probs[v as usize]).product())
        .collect();
    let total: f64 = weights.iter().sum();
    if total == 0.0 {
        return 0.0;
    }
    // Cumulative distribution for implicant sampling.
    let mut cdf = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    let vars = dnf.vars();
    let max = *vars.last().expect("non-constant dnf") as usize + 1;
    let mut truth = vec![false; max];

    let mut hits = 0usize;
    for _ in 0..samples {
        // Sample implicant index from the weight distribution.
        let r: f64 = rng.gen();
        let i = cdf.partition_point(|&c| c < r).min(cdf.len() - 1);
        // Sample a world conditioned on implicant i true.
        for &v in &vars {
            truth[v as usize] = rng.gen_bool(probs[v as usize].clamp(0.0, 1.0));
        }
        for &v in dnf.implicants[i].iter() {
            truth[v as usize] = true;
        }
        // Is i the first satisfied implicant?
        let first = dnf
            .implicants
            .iter()
            .position(|imp| imp.iter().all(|&v| truth[v as usize]))
            .expect("implicant i is satisfied");
        if first == i {
            hits += 1;
        }
    }
    (total * hits as f64 / samples as f64).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_prob;

    fn formula() -> (Dnf, Vec<f64>) {
        (
            Dnf::new([vec![0, 1], vec![1, 2], vec![2, 3], vec![0, 3]]),
            vec![0.4, 0.6, 0.5, 0.3],
        )
    }

    #[test]
    fn mc_converges() {
        let (f, probs) = formula();
        let truth = brute_force_prob(&f, &probs);
        let est = monte_carlo(&f, &probs, 200_000, 42);
        assert!((est - truth).abs() < 0.01, "est {est} truth {truth}");
    }

    #[test]
    fn mc_deterministic_with_seed() {
        let (f, probs) = formula();
        assert_eq!(
            monte_carlo(&f, &probs, 1000, 7),
            monte_carlo(&f, &probs, 1000, 7)
        );
    }

    #[test]
    fn karp_luby_converges() {
        let (f, probs) = formula();
        let truth = brute_force_prob(&f, &probs);
        let est = karp_luby(&f, &probs, 200_000, 42);
        assert!((est - truth).abs() < 0.01, "est {est} truth {truth}");
    }

    #[test]
    fn karp_luby_beats_naive_on_tiny_probabilities() {
        // With tiny probabilities, naive MC needs ~1/p samples to see any
        // hit; Karp–Luby stays accurate with few samples.
        let f = Dnf::new([vec![0, 1], vec![2, 3]]);
        let probs = vec![1e-4, 1e-4, 1e-4, 1e-4];
        let truth = brute_force_prob(&f, &probs);
        let kl = karp_luby(&f, &probs, 10_000, 1);
        assert!((kl - truth).abs() / truth < 0.05, "kl {kl} truth {truth}");
        let mc = monte_carlo(&f, &probs, 10_000, 1);
        assert_eq!(mc, 0.0); // naive sees no satisfied world
    }

    #[test]
    fn constants() {
        assert_eq!(monte_carlo(&Dnf::empty(), &[], 10, 0), 0.0);
        assert_eq!(karp_luby(&Dnf::empty(), &[], 10, 0), 0.0);
        let t = Dnf::new([Vec::<u32>::new()]);
        assert_eq!(monte_carlo(&t, &[], 10, 0), 1.0);
        assert_eq!(karp_luby(&t, &[], 10, 0), 1.0);
    }

    #[test]
    fn monte_carlo_each_matches_serial_loop_at_any_thread_count() {
        let (f, probs) = formula();
        let g = Dnf::new([vec![0], vec![3]]);
        let dnfs: Vec<&Dnf> = vec![&f, &g, &f];
        let serial: Vec<f64> = dnfs
            .iter()
            .enumerate()
            .map(|(i, d)| monte_carlo(d, &probs, 2000, 9u64.wrapping_add(i as u64)))
            .collect();
        for threads in [1, 2, 4, 8] {
            let got = monte_carlo_each(&dnfs, &probs, 2000, 9, threads);
            assert_eq!(got, serial, "threads={threads}");
        }
    }

    #[test]
    fn certain_variables() {
        let f = Dnf::new([vec![0]]);
        assert_eq!(monte_carlo(&f, &[1.0], 100, 0), 1.0);
        assert_eq!(karp_luby(&f, &[1.0], 100, 0), 1.0);
    }
}
