//! Top-k equivalence suite for the anytime ranking driver.
//!
//! The property pinned here is **bit-identity**: for every `k`, the
//! ranked prefix produced by the bound-propagation top-k path must equal
//! the first `k` entries of the exhaustive ranking — same keys, same
//! rank order, same float *bits* — across
//!
//! * both [`Semantics`] at the engine layer (pruning only engages for
//!   `Probabilistic` multi-plan evaluation; set semantics must degrade to
//!   exhaustive ranking without drift),
//! * every [`OptLevel`] at the driver layer (`MultiPlan` routes through
//!   the engine's anytime driver, single-plan levels truncate through
//!   the bounded heap — both must agree with untruncated ranking),
//! * serial and threaded execution (`threads` 1 and 4).
//!
//! Adversarial shapes get dedicated tests: exact score ties straddling
//! the k-boundary (the deterministic key-order tiebreak must make the
//! prefix unambiguous), `k = 0`, `k ≥` the answer count (degraded mode:
//! nothing to prune, everything evaluated), a Boolean query (single
//! answer group), the node shapes whose float products an order keyed
//! on row counts could reassociate under the survivor filter, and a chain
//! of permutations whose every node holds the same number of rows.

use lapushdb::core::PlanSet;
use lapushdb::core::{minimal_plan_set_opts, EnumOptions, NodeKind, SchemaInfo};
use lapushdb::engine::topk::LO_SLACK;
use lapushdb::engine::{
    propagation_bounds_ids, propagation_score_ids, propagation_score_topk, AnswerSet, ExecOptions,
    Semantics, TopkEval,
};
use lapushdb::prelude::*;
use lapushdb::storage::tuple::tuple;
use lapushdb::workload::{
    chain_db, chain_query, random_db_for_query, random_query, star_db, star_query,
};
use lapushdb::{rank_by_dissociation, OptLevel, RankOptions};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Ranked prefixes compared entry by entry: same keys in the same order,
/// scores equal to the bit.
fn assert_prefix_bitwise(
    got: &[(Box<[Value]>, f64)],
    want: &[(Box<[Value]>, f64)],
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{}: prefix length", what);
    for (i, ((gk, gs), (wk, ws))) in got.iter().zip(want.iter()).enumerate() {
        prop_assert_eq!(gk, wk, "{}: rank {} keys diverge", what, i);
        prop_assert_eq!(
            gs.to_bits(),
            ws.to_bits(),
            "{}: rank {} scored {} vs exhaustive {}",
            what,
            i,
            gs,
            ws
        );
    }
    Ok(())
}

/// The anytime contract: stepping a [`TopkEval`] plan by plan, every
/// surviving candidate's `[lo, hi]` interval brackets its exhaustive
/// propagation score `ρ` at every step, `hi` never grows, and after the
/// last step `lo == hi == ρ` to the bit.
///
/// `ρ ≤ hi` is exact (`hi` is the min over a prefix of the plans `ρ` is the
/// min over). `lo ≤ ρ` holds mathematically, but `lo` is one plan's
/// `max`-fold and `ρ` another plan's independent-OR fold of products
/// associated differently, so it is asserted up to the relative
/// [`LO_SLACK`] the pruning threshold itself allows for.
fn check_anytime_bounds(
    db: &Database,
    q: &Query,
    set: &PlanSet,
    k: usize,
    opts: ExecOptions,
    full: &AnswerSet,
    what: &str,
) -> Result<(), TestCaseError> {
    let mut eval = TopkEval::new(db, q, &set.store, &set.roots, k, opts).expect("topk");
    let mut prev: Vec<(Box<[Value]>, f64, f64)> = Vec::new();
    loop {
        let snap = eval.bounds();
        let exact = eval.remaining() == 0;
        for (key, lo, hi) in &snap {
            let rho = full.rows.get(key).copied();
            prop_assert!(rho.is_some(), "{}: candidate {:?} is no answer", what, key);
            let rho = rho.unwrap();
            prop_assert!(rho <= *hi, "{}: {:?} rho {} > hi {}", what, key, rho, hi);
            prop_assert!(
                lo * (1.0 - LO_SLACK) <= rho,
                "{}: {:?} lo {} > rho {}",
                what,
                key,
                lo,
                rho
            );
            prop_assert!(lo <= hi, "{}: {:?} [{}, {}]", what, key, lo, hi);
            if exact {
                prop_assert_eq!(hi.to_bits(), rho.to_bits(), "{}: {:?} final hi", what, key);
                prop_assert_eq!(lo.to_bits(), rho.to_bits(), "{}: {:?} final lo", what, key);
            }
            if let Some((_, _, old_hi)) = prev.iter().find(|(k, _, _)| k == key) {
                prop_assert!(hi <= old_hi, "{}: {:?} hi grew", what, key);
            }
        }
        // The candidate set is fixed once the first plan has pruned.
        prop_assert!(prev.is_empty() || prev.len() == snap.len(), "{}", what);
        prev = snap;
        if !eval.step().expect("step") {
            return Ok(());
        }
    }
}

/// Engine-layer harness: for each semantics × thread count, evaluate the
/// minimal plan set exhaustively and through `propagation_score_topk` at
/// every `k`, and require bit-identical ranked prefixes. `ks` should
/// straddle the answer count so both the pruning and the degraded
/// (k ≥ answers) regimes are exercised.
fn check_engine(db: &Database, q: &Query, ks: &[usize]) -> Result<(), TestCaseError> {
    let schema = SchemaInfo::from_query(q);
    let set = minimal_plan_set_opts(q, &schema, EnumOptions::default());
    for sem in [Semantics::Probabilistic, Semantics::Deterministic] {
        for threads in [1usize, 4] {
            let opts = ExecOptions {
                semantics: sem,
                reuse_views: true,
                threads,
            };
            let full =
                propagation_score_ids(db, q, &set.store, &set.roots, opts).expect("exhaustive");
            // The one-pass sandwich: its upper bounds are the exhaustive
            // scores to the bit, and every lower bound sits at or below.
            let (lower, upper) =
                propagation_bounds_ids(db, q, &set.store, &set.roots, opts).expect("bounds");
            let what = format!("{sem:?} t{threads} bounds");
            assert_prefix_bitwise(&upper.ranked(), &full.ranked(), &what)?;
            prop_assert_eq!(lower.len(), full.len(), "{}: lower answers", what);
            for (key, &lo) in &lower.rows {
                prop_assert!(lo <= full.score_of(key), "{}: {:?} lo {}", what, key, lo);
            }
            for &k in ks {
                let res =
                    propagation_score_topk(db, q, &set.store, &set.roots, k, opts).expect("topk");
                let what = format!("{sem:?} t{threads} k{k}");
                assert_prefix_bitwise(&res.ranked, &full.ranked_top(k), &what)?;
                // Accounting must cover the whole answer space: every
                // group was either pruned by the bound pass or evaluated.
                prop_assert_eq!(
                    (res.stats.pruned + res.stats.evaluated) as usize,
                    full.len(),
                    "{}: pruned + evaluated != answers",
                    what
                );
                check_anytime_bounds(db, q, &set, k, opts, &full, &what)?;
            }
        }
    }
    Ok(())
}

/// Driver-layer harness: `rank_by_dissociation` with `top_k: Some(k)`
/// must return exactly the first `k` entries of the same call with
/// `top_k: None`, for every optimization level (only `MultiPlan` routes
/// through the anytime driver; the others truncate) and thread count.
fn check_driver(db: &Database, q: &Query, ks: &[usize]) -> Result<(), TestCaseError> {
    for opt in [
        OptLevel::MultiPlan,
        OptLevel::Opt1,
        OptLevel::Opt12,
        OptLevel::Opt123,
    ] {
        for threads in [1usize, 4] {
            let full = rank_by_dissociation(
                db,
                q,
                RankOptions {
                    opt,
                    threads,
                    ..RankOptions::default()
                },
            )
            .expect("exhaustive rank");
            for &k in ks {
                let top = rank_by_dissociation(
                    db,
                    q,
                    RankOptions {
                        opt,
                        threads,
                        top_k: Some(k),
                        ..RankOptions::default()
                    },
                )
                .expect("topk rank");
                let what = format!("{opt:?} t{threads} k{k}");
                assert_prefix_bitwise(&top.ranked_top(k), &full.ranked_top(k), &what)?;
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Chain workloads: multi-plan sets with shared subplans.
    #[test]
    fn chain_topk_matches_exhaustive_prefix(
        seed in 0u64..1_000_000,
        k in 2usize..5,
        n in 20usize..60,
    ) {
        let q = chain_query(k);
        let domain = (n as i64 / 3).max(4);
        let db = chain_db(k, n, domain, 1.0, seed).expect("db");
        check_engine(&db, &q, &[1, 3, 1000])?;
        check_driver(&db, &q, &[1, 3, 1000])?;
    }

    /// Star workloads (constant hub atom, mixed arities, Boolean head).
    #[test]
    fn star_topk_matches_exhaustive_prefix(
        seed in 0u64..1_000_000,
        k in 2usize..4,
        n in 20usize..50,
    ) {
        let q = star_query(k);
        let domain = (n as i64 / 2).max(4);
        let db = star_db(k, n, domain, 1.0, seed).expect("db");
        check_engine(&db, &q, &[1, 3, 1000])?;
    }

    /// Random query shapes over random databases.
    #[test]
    fn random_topk_matches_exhaustive_prefix(
        seed in 0u64..1_000_000,
        atoms in 2usize..5,
    ) {
        let q = random_query(seed, atoms, 4);
        let db = random_db_for_query(&q, seed ^ 0x5eed, 12, 5, 1.0).expect("db");
        check_engine(&db, &q, &[1, 3, 1000])?;
    }
}

/// The fixed 3-chain scenario the deterministic adversarial tests share.
fn chain3() -> (Database, Query) {
    let q = chain_query(3);
    let db = chain_db(3, 60, 15, 1.0, 42).expect("db");
    (db, q)
}

/// Exact score ties straddling the k-boundary: a database whose tuples
/// all carry the same probability produces whole equivalence classes of
/// identically-scored answers, so ranks `k-1`, `k`, `k+1` routinely tie
/// to the bit. The deterministic tiebreak (score descending, then key
/// ascending) must make every prefix unambiguous — and the top-k path
/// must implement the *same* tiebreak as the exhaustive ranking.
#[test]
fn ties_at_the_k_boundary_are_broken_identically() {
    let q = chain_query(2);
    // Domain 12 keeps the generator solvent (it needs 40 *distinct* rows
    // per relation, so the domain square must exceed n) while still
    // colliding enough join values for shared-multiplicity answers.
    let mut db = chain_db(2, 40, 12, 1.0, 7).expect("db");
    // Flatten every probability to the same constant: all surviving
    // chains of the same multiplicity now score identically.
    for rid in [db.rel_id("R1").unwrap(), db.rel_id("R2").unwrap()] {
        let rel = db.relation_mut(rid);
        for i in 0..rel.len() {
            rel.set_prob(i as u32, 0.5).expect("in range");
        }
    }
    let schema = SchemaInfo::from_query(&q);
    let set = minimal_plan_set_opts(&q, &schema, EnumOptions::default());
    let opts = ExecOptions::default();
    let full = propagation_score_ids(&db, &q, &set.store, &set.roots, opts).expect("exhaustive");
    assert!(full.len() >= 4, "need enough answers to straddle ties");
    // A tie must exist somewhere in the ranking for this test to bite.
    let ranked = full.ranked_top(full.len());
    assert!(
        ranked
            .windows(2)
            .any(|w| w[0].1.to_bits() == w[1].1.to_bits()),
        "tie-flattened database produced no tied scores"
    );
    for k in 1..=full.len() {
        let res = propagation_score_topk(&db, &q, &set.store, &set.roots, k, opts).expect("topk");
        let want = full.ranked_top(k);
        assert_eq!(res.ranked.len(), want.len(), "k={k}");
        for (i, ((gk, gs), (wk, ws))) in res.ranked.iter().zip(want.iter()).enumerate() {
            assert_eq!(gk, wk, "k={k} rank {i}: keys diverge on a tie");
            assert_eq!(gs.to_bits(), ws.to_bits(), "k={k} rank {i}");
        }
    }
}

/// `k = 0` yields an empty ranking; `k ≥` the answer count yields the
/// complete ranking (degraded mode — nothing can be pruned because every
/// answer must be scored exactly).
#[test]
fn k_zero_and_k_beyond_answer_count() {
    let (db, q) = chain3();
    let schema = SchemaInfo::from_query(&q);
    let set = minimal_plan_set_opts(&q, &schema, EnumOptions::default());
    let opts = ExecOptions::default();
    let full = propagation_score_ids(&db, &q, &set.store, &set.roots, opts).expect("exhaustive");
    assert!(!full.is_empty());

    let empty = propagation_score_topk(&db, &q, &set.store, &set.roots, 0, opts).expect("k=0");
    assert!(empty.ranked.is_empty());

    for k in [full.len(), full.len() + 1, 10 * full.len()] {
        let res = propagation_score_topk(&db, &q, &set.store, &set.roots, k, opts).expect("topk");
        assert_eq!(res.ranked.len(), full.len(), "k={k}");
        assert_eq!(res.stats.pruned, 0, "k={k}: nothing is prunable");
        let want = full.ranked_top(k);
        for ((gk, gs), (wk, ws)) in res.ranked.iter().zip(want.iter()) {
            assert_eq!(gk, wk, "k={k}");
            assert_eq!(gs.to_bits(), ws.to_bits(), "k={k}");
        }
    }
}

/// The node shapes a restricted top-k visit used to evaluate in full,
/// because a join order keyed on row counts could reassociate them under
/// the survivor filter: a join of three or more inputs, and a projection
/// dropping two or more variables directly over a join. Join order and
/// column layout are functions of the plan, so both now run restricted —
/// the plan sets must contain them and the pruning must engage, or the
/// case is vacuous — and keep the exhaustive prefix bitwise. (The star
/// family's plan sets join pairwise only; hierarchical subqueries are
/// where the wide joins are.)
#[test]
fn restricted_visits_cover_wide_joins_and_wide_projections() {
    for (text, wide_projection) in [
        ("q(h) :- A(h, x), B(h, x), C(h, x), D(x, y), E(y)", false),
        ("q(h) :- R(h, x), S(x, y), T(y, z), U(x, y, z)", true),
    ] {
        let q = parse_query(text).expect("query");
        let schema = SchemaInfo::from_query(&q);
        let set = minimal_plan_set_opts(&q, &schema, EnumOptions::default());
        assert!(set.roots.len() > 1, "{text}: a single plan never prunes");
        let store = &set.store;
        let nodes = store.reachable(&set.roots);
        let joins_wide =
            |id| matches!(&store.node(id).kind, NodeKind::Join { inputs } if inputs.len() >= 3);
        let projects_wide = |id| {
            let node = store.node(id);
            let NodeKind::Project { input } = node.kind else {
                return false;
            };
            let child = store.node(input);
            matches!(child.kind, NodeKind::Join { .. }) && child.head.len() >= node.head.len() + 2
        };
        assert!(
            nodes.iter().any(|&id| joins_wide(id)),
            "{text}: ≥ 3-input join"
        );
        assert_eq!(
            nodes.iter().any(|&id| projects_wide(id)),
            wide_projection,
            "{text}: projection dropping ≥ 2 variables over a join"
        );
        let mut pruned = 0;
        for seed in 0..4 {
            let db = random_db_for_query(&q, seed, 20, 6, 1.0).expect("db");
            check_engine(&db, &q, &[1, 3, 1000]).unwrap();
            let opts = ExecOptions::default();
            let res = propagation_score_topk(&db, &q, store, &set.roots, 1, opts).expect("topk");
            pruned += res.stats.pruned;
        }
        assert!(pruned > 0, "{text}: the restricted phase never ran");
    }
}

/// A `k`-chain whose relations are each a random permutation of `1..=n`
/// (tuples `(u, π(u))`): in a full visit every join and projection along
/// the chain has exactly `n` rows, and the survivor-restricted pass fuses
/// each projection over a join on the few rows pruning leaves. The ranked
/// prefix must stay the exhaustive one bitwise.
#[test]
fn permutation_chain_topk_matches_exhaustive_prefix() {
    let (k, n) = (6, 30);
    let q = chain_query(k);
    let mut rng = StdRng::seed_from_u64(701);
    let mut db = Database::new();
    for i in 1..=k {
        let rel = db.create_relation(format!("R{i}"), 2).expect("relation");
        let mut image: Vec<i64> = (1..=n).collect();
        image.shuffle(&mut rng);
        for (u, v) in (1..).zip(image) {
            let p = rng.gen_range(0.05..1.0);
            db.relation_mut(rel).push(tuple([u, v]), p).expect("row");
        }
    }
    check_engine(&db, &q, &[1, 3, 10]).unwrap();
    let schema = SchemaInfo::from_query(&q);
    let set = minimal_plan_set_opts(&q, &schema, EnumOptions::default());
    let opts = ExecOptions::default();
    let res = propagation_score_topk(&db, &q, &set.store, &set.roots, 10, opts).expect("topk");
    assert!(res.stats.pruned > 0, "the restricted phase never ran");
}
