//! One-sided guarantee and optimization-equivalence properties on random
//! instances:
//!
//! * Corollary 19: every plan's score upper-bounds the true probability;
//!   hence `ρ(q) ≥ P(q)` per answer.
//! * Proposition 6 / conservativity: safe query ⇒ one plan ⇒ exact, both
//!   against lineage model counting and the oracle's possible worlds.
//! * Optimizations 1–3 never change the computed score on these
//!   instances; the single min-pushdown plan is in general only
//!   sandwiched, `P ≤ score ≤ ρ`, and strictly below `ρ` on two fixed
//!   shapes.
//! * Schema-aware enumeration (DR/FD) computes the same `ρ(q)` with fewer
//!   plans when the schema knowledge is valid.
//! * Sandwich bounds (extension): the best single derivation's product
//!   lower-bounds the true probability, and is the same for every plan.

mod common;

use common::oracle;
use lapushdb::prelude::*;
use lapushdb::workload::{random_db_for_query, random_query};
use lapushdb::{rank_by_dissociation, OptLevel, RankOptions};

/// `ρ(q)` over one enumerated plan set.
fn rho(db: &Database, q: &Query, plans: &PlanSet) -> AnswerSet {
    propagation_score_ids(db, q, &plans.store, &plans.roots, ExecOptions::default()).unwrap()
}

#[test]
fn dissociation_upper_bounds_exact_on_random_instances() {
    for seed in 0..40u64 {
        let q = random_query(seed, 2 + (seed % 3) as usize, 4);
        let db = random_db_for_query(&q, seed * 7 + 1, 5, 3, 1.0).unwrap();
        let rho = rank_by_dissociation(&db, &q, RankOptions::default()).unwrap();
        let exact = exact_answers(&db, &q).unwrap();
        assert_eq!(rho.len(), exact.len(), "seed {seed}");
        for (key, &r) in &rho.rows {
            let e = exact.score_of(key);
            assert!(
                r >= e - 1e-10 && r <= 1.0 + 1e-12,
                "seed {seed}, key {key:?}: rho {r} < exact {e}"
            );
        }
    }
}

#[test]
fn safe_queries_are_computed_exactly() {
    // Hierarchical queries: single plan, score == exact probability.
    for (text, seed) in [
        ("q :- R0(x), R1(x, y)", 1u64),
        ("q(z) :- R0(z, x), R1(x, y), R2(x, y)", 2),
        ("q :- R0(x, y), R1(y, z), R2(y, z, u)", 3),
        ("q :- R0(x), R1(y)", 4),
    ] {
        let q = parse_query(text).unwrap();
        let plans = minimal_plan_set(&QueryShape::of_query(&q));
        assert_eq!(plans.len(), 1, "{text} should be safe");
        let db = random_db_for_query(&q, seed, 6, 3, 1.0).unwrap();
        let rho = rank_by_dissociation(&db, &q, RankOptions::default()).unwrap();
        let exact = exact_answers(&db, &q).unwrap();
        let worlds = oracle::exact(&db, &q);
        assert_eq!(rho.len(), worlds.len(), "{text}");
        for (key, &r) in &rho.rows {
            for p in [exact.score_of(key), worlds.score_of(key)] {
                assert!((r - p).abs() < 1e-10, "{text}: {r} vs {p}");
            }
        }
    }
}

#[test]
fn optimization_levels_agree_on_random_instances() {
    for seed in 0..25u64 {
        let q = random_query(seed + 100, 2 + (seed % 3) as usize, 4);
        let db = random_db_for_query(&q, seed * 13 + 5, 5, 3, 1.0).unwrap();
        let base = rank_by_dissociation(
            &db,
            &q,
            RankOptions {
                opt: OptLevel::MultiPlan,
                use_schema: false,
                top_k: None,
                ..RankOptions::default()
            },
        )
        .unwrap();
        for opt in [OptLevel::Opt1, OptLevel::Opt12, OptLevel::Opt123] {
            let got = rank_by_dissociation(
                &db,
                &q,
                RankOptions {
                    opt,
                    use_schema: false,
                    top_k: None,
                    ..RankOptions::default()
                },
            )
            .unwrap();
            assert_eq!(got.len(), base.len(), "seed {seed} {opt:?}");
            for (key, &s) in &base.rows {
                assert!(
                    (got.score_of(key) - s).abs() < 1e-10,
                    "seed {seed} {opt:?} key {key:?}"
                );
            }
        }
    }
}

/// What the single min-pushdown plan computes (Opt1–Opt123): on these two
/// 5-atom Boolean shapes it is strictly below `ρ`, by 0.47% and 0.95%,
/// and still above the exact `P`. So the single-plan levels do not
/// compute `ρ` in general; they are sandwiched, `P ≤ score ≤ ρ`.
#[test]
fn single_plan_sits_between_exact_and_rho() {
    for (s, want) in [
        (255u64, [0.37126, 0.38738, 0.38923]),
        (379, [0.51585, 0.53147, 0.53658]),
    ] {
        let q = random_query(9000 + s, 5, 6);
        let db = random_db_for_query(&q, 7 * s + 1, 6, 4, 1.0).unwrap();
        let score = |opt| {
            let opts = RankOptions {
                opt,
                ..RankOptions::default()
            };
            rank_by_dissociation(&db, &q, opts).unwrap().boolean_score()
        };
        let p = exact_answers(&db, &q).unwrap().boolean_score();
        let rho = score(OptLevel::MultiPlan);
        for opt in [OptLevel::Opt1, OptLevel::Opt12, OptLevel::Opt123] {
            let single = score(opt);
            assert!(
                p <= single && single < rho,
                "s = {s} {opt:?}: {p} ≤ {single} < {rho}"
            );
            for (got, want) in [p, single, rho].into_iter().zip(want) {
                assert!(
                    (got - want).abs() < 5e-6,
                    "s = {s} {opt:?}: {got} vs {want}"
                );
            }
        }
    }
}

#[test]
fn deterministic_relations_preserve_rho_with_fewer_plans() {
    // Make relation R2 deterministic (p = 1 everywhere, flagged in the
    // catalog). The DR-aware enumeration returns fewer (or equal) plans but
    // the same propagation score.
    for seed in 0..15u64 {
        let q = random_query(seed + 300, 3, 4);
        let mut db = random_db_for_query(&q, seed * 3 + 2, 5, 3, 1.0).unwrap();
        // Rebuild last atom's relation as deterministic.
        let last = q.atoms().last().unwrap().relation.clone();
        let rows: Vec<_> = {
            let rel = db.relation_by_name(&last).unwrap();
            rel.rows().to_vec()
        };
        let mut db2 = Database::new();
        for (_, rel) in db.relations() {
            if rel.name() == last {
                let mut d = lapushdb::storage::Relation::deterministic(&last, rel.arity());
                for r in &rows {
                    d.push_certain(r.clone()).unwrap();
                }
                db2.add_relation(d).unwrap();
            } else {
                db2.add_relation(rel.clone()).unwrap();
            }
        }
        db = db2;

        let schema_plain = SchemaInfo {
            probabilistic: vec![true; q.atoms().len()],
            fds: Vec::new(),
        };
        let schema_dr = SchemaInfo::from_db(&q, &db);
        let plans_plain = minimal_plan_set_opts(&q, &schema_plain, EnumOptions::default());
        let plans_dr = minimal_plan_set_opts(
            &q,
            &schema_dr,
            EnumOptions {
                use_deterministic: true,
                use_fds: false,
            },
        );
        assert!(
            plans_dr.len() <= plans_plain.len(),
            "seed {seed}: DR plans {} > plain {}",
            plans_dr.len(),
            plans_plain.len()
        );
        let rho_plain = rho(&db, &q, &plans_plain);
        let rho_dr = rho(&db, &q, &plans_dr);
        for (key, &s) in &rho_plain.rows {
            assert!(
                (rho_dr.score_of(key) - s).abs() < 1e-10,
                "seed {seed} key {key:?}: dr {} vs plain {s}",
                rho_dr.score_of(key)
            );
        }
    }
}

#[test]
fn fd_knowledge_preserves_rho_when_fd_holds() {
    // q :- R(x), S(x,y), T(y) with FD x→y on S: safe; FD-aware enumeration
    // returns one plan computing the exact probability.
    let q = parse_query("q :- R(x), S(x, y), T(y)").unwrap();
    let mut db = Database::new();
    let r = db.create_relation("R", 1).unwrap();
    let s = db.create_relation("S", 2).unwrap();
    let t = db.create_relation("T", 1).unwrap();
    for x in [1, 2, 3] {
        db.relation_mut(r)
            .push(Box::new([Value::Int(x)]), 0.4)
            .unwrap();
        db.relation_mut(t)
            .push(Box::new([Value::Int(x)]), 0.7)
            .unwrap();
        // x → y: exactly one y per x.
        db.relation_mut(s)
            .push(Box::new([Value::Int(x), Value::Int(x % 2 + 1)]), 0.5)
            .unwrap();
    }
    db.relation_by_name_mut("S")
        .unwrap()
        .add_fd(lapushdb::storage::Fd::new([0], [1]))
        .unwrap();
    assert!(db
        .relation_by_name("S")
        .unwrap()
        .satisfies_fd(&lapushdb::storage::Fd::new([0], [1])));

    let schema = SchemaInfo::from_db(&q, &db);
    let plans_fd = minimal_plan_set_opts(&q, &schema, EnumOptions::full());
    assert_eq!(plans_fd.len(), 1);
    let rho_fd = rho(&db, &q, &plans_fd);
    let exact = exact_answers(&db, &q).unwrap();
    assert!((rho_fd.boolean_score() - exact.boolean_score()).abs() < 1e-10);

    // And it agrees with the 2-plan plain enumeration.
    let plans_plain = minimal_plan_set_opts(&q, &schema, EnumOptions::default());
    assert_eq!(plans_plain.len(), 2);
    let rho_plain = rho(&db, &q, &plans_plain);
    assert!((rho_fd.boolean_score() - rho_plain.boolean_score()).abs() < 1e-10);
}

#[test]
fn semijoin_reduction_is_transparent() {
    for seed in 0..15u64 {
        let q = random_query(seed + 500, 3, 4);
        let db = random_db_for_query(&q, seed * 11 + 3, 6, 4, 1.0).unwrap();
        let plain = rank_by_dissociation(
            &db,
            &q,
            RankOptions {
                opt: OptLevel::Opt12,
                use_schema: false,
                top_k: None,
                ..RankOptions::default()
            },
        )
        .unwrap();
        let reduced = rank_by_dissociation(
            &db,
            &q,
            RankOptions {
                opt: OptLevel::Opt123,
                use_schema: false,
                top_k: None,
                ..RankOptions::default()
            },
        )
        .unwrap();
        assert_eq!(plain.len(), reduced.len(), "seed {seed}");
        for (key, &s) in &plain.rows {
            let r = reduced.score_of(key);
            assert_eq!(r.to_bits(), s.to_bits(), "seed {seed}: {key:?} {r} vs {s}");
        }
    }
}

#[test]
fn sandwich_bounds_contain_exact_on_random_instances() {
    // Extension: the best single derivation's product and ρ(q) sandwich
    // the true probability per answer.
    use lapushdb::bound_answers;
    for seed in 0..25u64 {
        let q = random_query(seed + 700, 2 + (seed % 3) as usize, 4);
        let db = random_db_for_query(&q, seed * 17 + 9, 5, 3, 1.0).unwrap();
        let (lower, upper) = bound_answers(&db, &q).unwrap();
        let exact = exact_answers(&db, &q).unwrap();
        assert_eq!(lower.len(), exact.len(), "seed {seed}");
        for (key, &e) in &exact.rows {
            let lo = lower.score_of(key);
            let hi = upper.score_of(key);
            assert!(
                lo <= e + 1e-10 && e <= hi + 1e-10,
                "seed {seed} key {key:?}: [{lo}, {hi}] should contain {e}"
            );
            assert!(lo > 0.0, "derived answers have a positive witness");
        }
    }
}

#[test]
fn max_product_is_plan_independent() {
    // The lower bound is the best derivation's product: `max` distributes
    // over `×` for non-negative factors and every minimal plan uses each
    // atom once, so all plans agree up to float association.
    use lapushdb::engine::propagation_bounds_ids;
    use lapushdb::workload::{chain_db, chain_query, star_db, star_query};
    let mut cases: Vec<(String, Database, Query)> = Vec::new();
    for seed in 0..40u64 {
        let q = random_query(seed + 900, 2 + (seed % 4) as usize, 4);
        let db = random_db_for_query(&q, seed * 19 + 4, 6, 3, 1.0).unwrap();
        cases.push((format!("random seed {seed}"), db, q));
    }
    for k in 2..=6 {
        for seed in 0..3u64 {
            let db = chain_db(k, 12, 5, 1.0, seed + 10 * k as u64).unwrap();
            cases.push((format!("chain k={k} seed {seed}"), db, chain_query(k)));
        }
    }
    for k in 1..=4 {
        for seed in 0..3u64 {
            let db = star_db(k, 12, 4, 1.0, seed + 10 * k as u64).unwrap();
            cases.push((format!("star k={k} seed {seed}"), db, star_query(k)));
        }
    }
    let mut pairs = 0usize;
    for (name, db, q) in &cases {
        // One root per call: each plan's own lower bound.
        let set = minimal_plan_set(&QueryShape::of_query(q));
        let opts = ExecOptions::default();
        let per_plan: Vec<AnswerSet> = (set.roots.iter())
            .map(|&root| propagation_bounds_ids(db, q, &set.store, &[root], opts))
            .map(|bounds| bounds.unwrap().0)
            .collect();
        let (first, rest) = per_plan.split_first().unwrap();
        for other in rest {
            assert_eq!(other.len(), first.len(), "{name}: answer sets differ");
            for (key, &a) in &first.rows {
                let b = other.score_of(key);
                assert!(
                    (a - b).abs() <= 1e-12 * a.abs().max(b.abs()),
                    "{name} key {key:?}: {a} vs {b}"
                );
                pairs += 1;
            }
        }
    }
    assert!(pairs > 1000, "too few multi-plan comparisons: {pairs}");
}
