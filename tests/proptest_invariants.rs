//! Property-based tests over randomly generated queries, databases, and
//! formulas: the paper's theorems as executable invariants.

use lapushdb::core::{
    all_plan_ids, delta_of_plan_id, naive_minimal_safe_dissociations, plan_id_for_dissociation,
    Dissociation,
};
use lapushdb::lineage::{brute_force_prob, exact_prob, karp_luby, Dnf};
use lapushdb::prelude::*;
use lapushdb::workload::{random_db_for_query, random_query};
use lapushdb::{exact_answers, rank_by_dissociation, RankOptions};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Corollary 19 + Definition 14: ρ(q) upper-bounds P(q) per answer.
    #[test]
    fn rho_upper_bounds_exact(seed in 0u64..5000, atoms in 2usize..5) {
        let q = random_query(seed, atoms, 4);
        let db = random_db_for_query(&q, seed ^ 0xabcdef, 4, 3, 1.0).unwrap();
        let rho = rank_by_dissociation(&db, &q, RankOptions::default()).unwrap();
        let exact = exact_answers(&db, &q).unwrap();
        prop_assert_eq!(rho.len(), exact.len());
        for (key, &r) in &rho.rows {
            prop_assert!(r >= exact.score_of(key) - 1e-9);
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
