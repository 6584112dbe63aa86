//! Property-based tests over randomly generated queries, databases, and
//! formulas: the paper's theorems as executable invariants.

mod common;

use common::oracle;
use lapushdb::core::{
    all_plan_ids, delta_of_plan_id, naive_minimal_safe_dissociations, plan_id_for_dissociation,
    Dissociation,
};
use lapushdb::lineage::{brute_force_prob, exact_prob, karp_luby, Dnf};
use lapushdb::prelude::*;
use lapushdb::workload::{random_db_for_query, random_query};
use lapushdb::{exact_answers, rank_by_dissociation, OptLevel, RankOptions};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Corollary 19 + Definition 14, against the possible-worlds `P(q)`:
    /// every minimal plan's score upper-bounds `P`, `ρ` (the min over the
    /// plans) is at most every plan's score, and the single min-pushdown
    /// plan sits between them, `P ≤ Opt12 ≤ ρ`. The lineage model counter
    /// computes the same `P`.
    #[test]
    fn rho_upper_bounds_exact(seed in 0u64..5000, atoms in 2usize..5) {
        let q = random_query(seed, atoms, 4);
        let db = random_db_for_query(&q, seed ^ 0xabcdef, 4, 3, 1.0).unwrap();
        let exact = oracle::exact(&db, &q);
        let lineage = exact_answers(&db, &q).unwrap();
        let plans = minimal_plan_set(&QueryShape::of_query(&q));
        let scores: Vec<AnswerSet> = (plans.roots.iter())
            .map(|&p| eval_plan_id(&db, &q, &plans.store, p, ExecOptions::default()).unwrap())
            .collect();
        let rank = |opt| {
            let opts = RankOptions { opt, ..RankOptions::default() };
            rank_by_dissociation(&db, &q, opts).unwrap()
        };
        let (rho, opt12) = (rank(OptLevel::MultiPlan), rank(OptLevel::Opt12));
        prop_assert_eq!(rho.len(), exact.len());
        prop_assert_eq!(opt12.len(), exact.len());
        prop_assert_eq!(lineage.len(), exact.len());
        for (key, &p) in &exact.rows {
            prop_assert!((lineage.score_of(key) - p).abs() <= 1e-9, "{:?}", key);
            let r = rho.score_of(key);
            for s in &scores {
                prop_assert!(s.score_of(key) >= p - 1e-9, "plan below P at {:?}", key);
                prop_assert!(r <= s.score_of(key) + 1e-12, "ρ above a plan at {:?}", key);
            }
            let single = opt12.score_of(key);
            prop_assert!(p - 1e-9 <= single && single <= r + 1e-12, "{} ≤ {} ≤ {}", p, single, r);
            prop_assert!(r <= 1.0 + 1e-12);
        }
    }

    /// Theorem 20: Algorithm 1 output equals the naive lattice algorithm.
    #[test]
    fn algorithm1_matches_naive_lattice(seed in 0u64..5000, atoms in 2usize..5) {
        let q = random_query(seed, atoms, 4);
        let shape = QueryShape::of_query(&q);
        let Some(mut naive) = naive_minimal_safe_dissociations(&shape, 16) else {
            return Ok(()); // lattice too large for the oracle
        };
        naive.sort();
        let set = minimal_plan_set(&shape);
        let mut from_plans: Vec<_> = set
            .roots
            .iter()
            .map(|&p| delta_of_plan_id(&set.store, p, &shape).unwrap())
            .collect();
        from_plans.sort();
        prop_assert_eq!(naive, from_plans);
    }

    /// Theorem 18(1): Δ ↦ P_Δ and P ↦ Δ_P are mutually inverse over all
    /// plans.
    #[test]
    fn plan_dissociation_bijection(seed in 0u64..5000, atoms in 2usize..4) {
        let q = random_query(seed, atoms, 4);
        let shape = QueryShape::of_query(&q);
        let mut store = PlanStore::new();
        let plans = all_plan_ids(&mut store, &shape);
        // Distinct plans ↔ distinct dissociations.
        let mut deltas: Vec<_> = Vec::new();
        for &p in &plans {
            let d = delta_of_plan_id(&store, p, &shape).unwrap();
            prop_assert!(d.is_safe(&shape));
            let back = plan_id_for_dissociation(&mut store, &shape, &d);
            prop_assert_eq!(back, Some(p));
            deltas.push(d);
        }
        deltas.sort();
        deltas.dedup();
        prop_assert_eq!(deltas.len(), plans.len());
    }

    /// The exact model counter agrees with brute-force enumeration.
    #[test]
    fn exact_wmc_matches_brute_force(
        implicants in proptest::collection::vec(
            proptest::collection::vec(0u32..8, 1..4), 1..6),
        seed in 0u64..1000,
    ) {
        let dnf = Dnf::new(implicants);
        let mut rng_state = seed;
        let mut next = || {
            // xorshift for reproducible pseudo-probabilities
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            (rng_state % 1000) as f64 / 1000.0
        };
        let probs: Vec<f64> = (0..8).map(|_| next()).collect();
        let bf = brute_force_prob(&dnf, &probs);
        let ex = exact_prob(&dnf, &probs);
        prop_assert!((bf - ex).abs() < 1e-9, "{} vs {}", ex, bf);
    }

    /// Karp–Luby is consistent with the exact probability.
    #[test]
    fn karp_luby_unbiased(
        implicants in proptest::collection::vec(
            proptest::collection::vec(0u32..6, 1..3), 1..4),
    ) {
        let dnf = Dnf::new(implicants);
        let probs = vec![0.3; 6];
        let truth = exact_prob(&dnf, &probs);
        let est = karp_luby(&dnf, &probs, 60_000, 11);
        prop_assert!((est - truth).abs() < 0.02, "{} vs {}", est, truth);
    }

    /// Dichotomy plumbing: a query has a (unique) safe plan iff it is
    /// hierarchical (Proposition 6 / Lemma 3).
    #[test]
    fn safe_plan_exists_iff_hierarchical(seed in 0u64..5000, atoms in 1usize..5) {
        let q = random_query(seed, atoms, 4);
        let shape = QueryShape::of_query(&q);
        let all = shape.all_atoms();
        let hierarchical = lapushdb::query::is_hierarchical(&shape, &all, shape.head);
        let PlanSet { mut store, roots } = minimal_plan_set(&shape);
        let bottom = Dissociation::bottom(shape.num_atoms());
        let plan = plan_id_for_dissociation(&mut store, &shape, &bottom);
        prop_assert_eq!(hierarchical, plan.is_some());
        if hierarchical {
            // Conservativity: Algorithm 1 returns exactly the safe plan.
            prop_assert_eq!(roots.len(), 1);
            prop_assert_eq!(Some(roots[0]), plan);
        }
    }

    /// Monotonicity along the dissociation order (Corollary 16): larger
    /// dissociations give larger (or equal) scores.
    #[test]
    fn scores_monotone_in_dissociation_order(seed in 0u64..2000) {
        let q = random_query(seed, 3, 4);
        let shape = QueryShape::of_query(&q);
        let db = random_db_for_query(&q, seed ^ 0x5a5a, 4, 3, 1.0).unwrap();
        let mut store = PlanStore::new();
        let plans = all_plan_ids(&mut store, &shape);
        let mut scored: Vec<(Dissociation, f64)> = Vec::new();
        for &p in &plans {
            let d = delta_of_plan_id(&store, p, &shape).unwrap();
            let s = eval_plan_id(&db, &q, &store, p, ExecOptions::default())
                .unwrap()
                .boolean_score();
            scored.push((d, s));
        }
        for (d1, s1) in &scored {
            for (d2, s2) in &scored {
                if d1.leq(d2) {
                    prop_assert!(s1 <= &(s2 + 1e-9),
                        "{:?} ≤ {:?} but {} > {}", d1, d2, s1, s2);
                }
            }
        }
    }
}
