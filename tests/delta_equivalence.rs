//! Delta-equivalence suite for incremental re-scoring under streaming
//! appends ([`IncrementalEval`]).
//!
//! The property pinned here is **bit-identity**: after every streamed
//! batch, the incrementally-maintained answer set must equal a full
//! re-evaluation of the grown database from scratch — same keys, same
//! float *bits* — across
//!
//! * both plan shapes the engine serves (the full minimal-plan set and
//!   the single min-pushdown plan),
//! * every [`Semantics`].
//!
//! A batch the delta algebra cannot absorb (an in-place probability
//! raise) must announce itself as [`DeltaOutcome::Fallback`] — the
//! harness then recaptures and keeps checking, so the property covers
//! the full maintain-or-recapture protocol, not just the happy path.
//! Adversarial cases (empty batches, brand-new group keys, duplicate
//! rows, interleaved append/read traffic, views large enough to keep
//! their join key orders changing under the joins that read them,
//! equal-sized relations grown round-robin) get dedicated tests.

use lapushdb::core::{
    minimal_plan_set_opts, single_plan_id, EnumOptions, PlanId, PlanStore, SchemaInfo,
};
use lapushdb::engine::{
    propagation_score_ids, AnswerSet, DeltaOutcome, ExecOptions, IncrementalEval, Semantics,
};
use lapushdb::prelude::*;
use lapushdb::workload::{
    chain_db, chain_query, random_db_for_query, random_query, star_db, star_query,
};
use proptest::prelude::*;

/// splitmix64 — the deterministic mixer the batch generator draws from.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One appended tuple: relation name, row, probability.
type Append = (String, Vec<Value>, f64);

/// The plan shapes a query is evaluated under: the full minimal-plan set
/// (the `MultiPlan` propagation score) and the single min-pushdown plan
/// (what `lapush serve` caches). Both run through the same
/// [`IncrementalEval`]; the shapes differ in DAG sharing and root count.
struct Shape {
    name: &'static str,
    store: PlanStore,
    roots: Vec<PlanId>,
}

fn plan_shapes(q: &Query) -> Vec<Shape> {
    let schema = SchemaInfo::from_query(q);
    let set = minimal_plan_set_opts(q, &schema, EnumOptions::default());
    let mut single = PlanStore::new();
    let root = single_plan_id(&mut single, q, &schema, EnumOptions::default());
    vec![
        Shape {
            name: "multi-plan",
            store: set.store,
            roots: set.roots,
        },
        Shape {
            name: "single-plan",
            store: single,
            roots: vec![root],
        },
    ]
}

/// Generate `nbatches` streamed batches against the *base* database:
/// each appends 1–4 rows to relations of `q`, with every column drawn
/// either from the values already present in that column (so constants
/// like star's `'a'` hub get hit, joins connect, and exact-duplicate
/// rows — including probability raises — occur) or as a fresh integer no
/// base tuple carries (new group keys, filtered-out rows).
fn gen_batches(db: &Database, q: &Query, seed: u64, nbatches: usize) -> Vec<Vec<Append>> {
    let atoms = q.atoms();
    (0..nbatches)
        .map(|b| {
            let rows = 1 + (mix(seed ^ (b as u64) << 8) % 4) as usize;
            (0..rows)
                .map(|r| {
                    let s = mix(seed ^ ((b as u64) << 16) ^ ((r as u64) << 4));
                    let atom = &atoms[(s % atoms.len() as u64) as usize];
                    let rel = db.relation(db.rel_id(&atom.relation).expect("query relation"));
                    let row: Vec<Value> = (0..rel.arity())
                        .map(|col| {
                            let c = mix(s ^ ((col as u64) << 32));
                            if c % 2 == 0 && !rel.is_empty() {
                                rel.row((c % rel.len() as u64) as u32)[col].clone()
                            } else {
                                Value::Int(1_000 + (c % 7) as i64)
                            }
                        })
                        .collect();
                    let prob = (mix(s ^ 0xb0b) % 101) as f64 / 100.0;
                    (atom.relation.clone(), row, prob)
                })
                .collect()
        })
        .collect()
}

fn apply_batch(db: &mut Database, batch: &[Append]) {
    for (rel, row, prob) in batch {
        let id = db.rel_id(rel).expect("relation exists");
        db.relation_mut(id)
            .push(row.clone().into_boxed_slice(), *prob)
            .expect("append");
    }
}

/// Bitwise answer-set equality: same keys, same float bits.
fn assert_bitwise(got: &AnswerSet, want: &AnswerSet, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{}: answer count", what);
    for (key, &w) in &want.rows {
        prop_assert_eq!(
            got.score_of(key).to_bits(),
            w.to_bits(),
            "{}: key {:?} scored {} vs full {}",
            what,
            key,
            got.score_of(key),
            w
        );
    }
    Ok(())
}

/// The core harness: stream `batches` into `db` and, after every batch,
/// compare the incremental answers bitwise against full re-evaluation of
/// the grown database — across plan shapes × semantics.
/// A `Fallback` outcome discards the state and recaptures (the protocol
/// the serve layer follows), after which checking continues. Returns how
/// many batches were absorbed as `Updated`.
fn check_stream(
    base: &Database,
    q: &Query,
    batches: &[Vec<Append>],
) -> Result<usize, TestCaseError> {
    let mut updated = 0;
    for shape in plan_shapes(q) {
        for sem in [Semantics::Probabilistic, Semantics::Deterministic] {
            let opts = ExecOptions {
                semantics: sem,
                reuse_views: true,
                ..ExecOptions::default()
            };
            let mut db = base.clone();
            let mut inc =
                IncrementalEval::new(&db, q, &shape.store, &shape.roots, opts).expect("capture");
            let what = |step: usize| format!("{} {sem:?} batch {step}", shape.name);
            let full0 =
                propagation_score_ids(&db, q, &shape.store, &shape.roots, opts).expect("full eval");
            assert_bitwise(inc.answers(), &full0, &what(0))?;
            // A captured state outlives the evaluation by the lifetime
            // of a cached answer: it keeps views, never key orders.
            prop_assert_eq!(
                inc.cached_orders(),
                0,
                "{}: orders kept by capture",
                what(0)
            );
            for (step, batch) in batches.iter().enumerate() {
                apply_batch(&mut db, batch);
                match inc.apply_deltas(&db, q, &shape.store).expect("delta") {
                    DeltaOutcome::Fallback => {
                        // The algebra refused (a probability was raised
                        // in place): discard and recapture, exactly as a
                        // caching layer must.
                        inc = IncrementalEval::new(&db, q, &shape.store, &shape.roots, opts)
                            .expect("recapture");
                    }
                    DeltaOutcome::Updated { .. } => updated += 1,
                    DeltaOutcome::Unchanged => {}
                }
                let full = propagation_score_ids(&db, q, &shape.store, &shape.roots, opts)
                    .expect("full eval");
                assert_bitwise(inc.answers(), &full, &what(step + 1))?;
                prop_assert_eq!(inc.cached_orders(), 0, "{}: orders kept", what(step + 1));
            }
        }
    }
    Ok(updated)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Chain workloads under randomized append streams.
    #[test]
    fn chain_streams_match_full_reevaluation(
        seed in 0u64..1_000_000,
        k in 2usize..5,
        n in 20usize..60,
        nbatches in 1usize..5,
    ) {
        let q = chain_query(k);
        let domain = (n as i64 / 3).max(4);
        let db = chain_db(k, n, domain, 1.0, seed).expect("db");
        let batches = gen_batches(&db, &q, seed ^ 0xde17a, nbatches);
        check_stream(&db, &q, &batches)?;
    }

    /// Star workloads (constant hub atom, mixed arities).
    #[test]
    fn star_streams_match_full_reevaluation(
        seed in 0u64..1_000_000,
        k in 2usize..4,
        n in 20usize..50,
        nbatches in 1usize..5,
    ) {
        let q = star_query(k);
        let domain = (n as i64 / 2).max(4);
        let db = star_db(k, n, domain, 1.0, seed).expect("db");
        let batches = gen_batches(&db, &q, seed ^ 0xde17a, nbatches);
        check_stream(&db, &q, &batches)?;
    }

    /// Random query shapes over random databases.
    #[test]
    fn random_streams_match_full_reevaluation(
        seed in 0u64..1_000_000,
        atoms in 2usize..5,
        nbatches in 1usize..4,
    ) {
        let q = random_query(seed, atoms, 4);
        let db = random_db_for_query(&q, seed ^ 0x5eed, 12, 5, 1.0).expect("db");
        let batches = gen_batches(&db, &q, seed ^ 0xde17a, nbatches);
        check_stream(&db, &q, &batches)?;
    }
}

/// The fixed 3-chain scenario the deterministic adversarial tests share.
fn chain3() -> (Database, Query) {
    let q = chain_query(3);
    let db = chain_db(3, 60, 15, 1.0, 42).expect("db");
    (db, q)
}

fn capture(db: &Database, q: &Query, shape: &Shape) -> IncrementalEval {
    let opts = ExecOptions {
        reuse_views: true,
        ..ExecOptions::default()
    };
    IncrementalEval::new(db, q, &shape.store, &shape.roots, opts).expect("capture")
}

/// An empty delta (no appends at all) is `Unchanged` and leaves the
/// answers bitwise untouched.
#[test]
fn empty_batch_is_unchanged() {
    let (db, q) = chain3();
    for shape in plan_shapes(&q) {
        let mut inc = capture(&db, &q, &shape);
        let before = inc.answers().clone();
        let out = inc.apply_deltas(&db, &q, &shape.store).expect("delta");
        assert!(matches!(out, DeltaOutcome::Unchanged), "{}", shape.name);
        assert_bitwise(inc.answers(), &before, shape.name).unwrap();
    }
}

/// A complete fresh chain introduces a brand-new group key: the delta
/// path must *grow* the answer set (not just re-score existing keys) and
/// still match scratch evaluation.
#[test]
fn new_group_key_appears_in_updated_answers() {
    let (db, q) = chain3();
    for shape in plan_shapes(&q) {
        let mut grown = db.clone();
        let mut inc = capture(&db, &q, &shape);
        let before = inc.answers().len();
        // Values 500–502 are far outside the generated domain 1..=15.
        apply_batch(
            &mut grown,
            &[
                ("R1".into(), vec![Value::Int(500), Value::Int(501)], 0.9),
                ("R2".into(), vec![Value::Int(501), Value::Int(502)], 0.8),
                ("R3".into(), vec![Value::Int(502), Value::Int(500)], 0.7),
            ],
        );
        let out = inc.apply_deltas(&grown, &q, &shape.store).expect("delta");
        assert!(
            matches!(out, DeltaOutcome::Updated { rows } if rows >= 1),
            "{}: {out:?}",
            shape.name
        );
        assert_eq!(inc.answers().len(), before + 1, "{}", shape.name);
        let key: Box<[Value]> = vec![Value::Int(500), Value::Int(500)].into();
        let got = inc.answers().score_of(&key);
        let want: f64 = 0.9 * 0.8 * 0.7;
        assert_eq!(got.to_bits(), want.to_bits(), "{}", shape.name);
        let full = propagation_score_ids(&grown, &q, &shape.store, &shape.roots, inc.options())
            .expect("full");
        assert_bitwise(inc.answers(), &full, shape.name).unwrap();
    }
}

/// Re-inserting an existing tuple with a *higher* probability mutates the
/// stored probability in place — unreparable by an append-only delta
/// algebra, so the state must refuse with `Fallback`. Re-inserting with a
/// lower (or equal) probability is a storage-level no-op and must remain
/// `Unchanged`.
#[test]
fn duplicate_rows_fall_back_only_on_probability_raises() {
    let (db, q) = chain3();
    let r1 = db.rel_id("R1").unwrap();
    let dup: Box<[Value]> = db.relation(r1).row(0).to_vec().into();
    for shape in plan_shapes(&q) {
        // Lower/equal probability: no mutation, no fallback.
        let mut grown = db.clone();
        let mut inc = capture(&db, &q, &shape);
        grown.relation_mut(r1).push(dup.clone(), 0.0).unwrap();
        let out = inc.apply_deltas(&grown, &q, &shape.store).expect("delta");
        assert!(matches!(out, DeltaOutcome::Unchanged), "{}", shape.name);

        // Raise: the relation's probability epoch moves, the state refuses.
        let mut inc = capture(&db, &q, &shape);
        let mut grown = db.clone();
        grown.relation_mut(r1).push(dup.clone(), 1.0).unwrap();
        let out = inc.apply_deltas(&grown, &q, &shape.store).expect("delta");
        assert!(matches!(out, DeltaOutcome::Fallback), "{}", shape.name);
        // Recapture over the mutated database resumes exact maintenance.
        let mut inc = capture(&grown, &q, &shape);
        let mut more = grown.clone();
        apply_batch(
            &mut more,
            &[("R1".into(), vec![Value::Int(1), Value::Int(1)], 0.5)],
        );
        inc.apply_deltas(&more, &q, &shape.store).expect("delta");
        let full = propagation_score_ids(&more, &q, &shape.store, &shape.roots, inc.options())
            .expect("full");
        assert_bitwise(inc.answers(), &full, shape.name).unwrap();
    }
}

/// Appends interleaved with reads, one relation at a time: after every
/// single-tuple append the state answers exactly like scratch evaluation
/// — the partially-completed chain stays invisible until its last edge
/// lands, then appears with the right score.
#[test]
fn interleaved_appends_and_reads_stay_consistent() {
    let (db, q) = chain3();
    for shape in plan_shapes(&q) {
        let mut grown = db.clone();
        let mut inc = capture(&db, &q, &shape);
        let edges: [Append; 3] = [
            ("R1".into(), vec![Value::Int(700), Value::Int(701)], 0.5),
            ("R2".into(), vec![Value::Int(701), Value::Int(702)], 0.5),
            ("R3".into(), vec![Value::Int(702), Value::Int(703)], 0.5),
        ];
        for (i, edge) in edges.iter().enumerate() {
            apply_batch(&mut grown, std::slice::from_ref(edge));
            let out = inc.apply_deltas(&grown, &q, &shape.store).expect("delta");
            if i + 1 < edges.len() {
                // The chain is incomplete: nothing to re-score yet.
                assert!(
                    matches!(out, DeltaOutcome::Unchanged),
                    "{} edge {i}: {out:?}",
                    shape.name
                );
            } else {
                assert!(
                    matches!(out, DeltaOutcome::Updated { rows: 1 }),
                    "{} edge {i}: {out:?}",
                    shape.name
                );
            }
            let full = propagation_score_ids(&grown, &q, &shape.store, &shape.roots, inc.options())
                .expect("full");
            assert_bitwise(inc.answers(), &full, &format!("{} edge {i}", shape.name)).unwrap();
        }
    }
}

/// One new derivation of `q`: every variable gets one value — for odd
/// variables a fresh one, for even ones a value some atom already holds
/// in that position, so the new rows also join what is there — and every
/// atom contributes its row under that assignment, unless the relation
/// already holds it (re-inserting could raise its probability).
fn batch_with_a_new_derivation(db: &Database, q: &Query, seed: u64) -> Vec<Append> {
    use lapushdb::query::{Atom, Term, Var};
    let value_of = |var: Var| -> Value {
        if var.0 % 2 == 1 {
            return Value::Int(5_000 + (mix(seed ^ var.0 as u64) % 1_000) as i64);
        }
        let holder = |a: &Atom| a.terms.iter().position(|t| *t == Term::Var(var));
        let (atom, col) = (q.atoms().iter())
            .find_map(|a| holder(a).map(|col| (a, col)))
            .expect("variable occurs in an atom");
        let rel = db.relation(db.rel_id(&atom.relation).expect("query relation"));
        rel.row((mix(seed ^ ((var.0 as u64) << 8)) % rel.len() as u64) as u32)[col].clone()
    };
    (q.atoms().iter())
        .filter_map(|atom| {
            let row: Vec<Value> = (atom.terms.iter())
                .map(|t| match t {
                    Term::Var(v) => value_of(*v),
                    Term::Const(c) => c.clone(),
                })
                .collect();
            let rel = db.relation(db.rel_id(&atom.relation).expect("query relation"));
            let prob = (1 + mix(seed ^ row.len() as u64) % 100) as f64 / 100.0;
            (rel.find(&row).is_none()).then(|| (atom.relation.clone(), row, prob))
        })
        .collect()
}

/// Relations of several hundred rows — above the size under which a join
/// sorts its inputs privately — so the views keep key orders while
/// `apply_deltas` runs, and every batch appends to several relations: each
/// scan view is replaced (`merge_upsert`) before the joins
/// over it run, each join's output and intermediates are replaced between
/// the joins below and above them, and the next batch does it again. An
/// order built on a view before it changed must never be read for the
/// changed view; the answers would drift from a fresh evaluation by whole
/// rows.
#[test]
fn large_views_change_between_the_joins_that_read_them() {
    let chain = chain_query(4);
    let chain_base = chain_db(4, 400, 250, 1.0, 11).expect("db");
    let star = star_query(3);
    let star_base = star_db(3, 800, 1000, 0.01, 12).expect("db");
    for (q, base) in [(&chain, &chain_base), (&star, &star_base)] {
        let batches: Vec<Vec<Append>> = (0..3)
            .map(|b| batch_with_a_new_derivation(base, q, 0xface ^ b))
            .collect();
        assert!(
            batches.iter().all(|b| b.len() >= 2),
            "several views change per batch"
        );
        // 2 plan shapes × 2 semantics replay the stream. Every batch
        // changes a probabilistic answer; the Boolean star's is 1
        // throughout under set semantics.
        let updated = check_stream(base, q, &batches).unwrap();
        assert!(updated >= 2 * batches.len(), "{updated} batches absorbed");
    }
}

/// Equal-sized chain relations grown round-robin, 10 fresh in-domain rows
/// per batch: the serving benchmark's write pattern, under which a join
/// order keyed on row counts swapped the inputs of a join on nearly every
/// batch. The order is a function of the plan, so every batch takes the
/// delta rule.
#[test]
fn round_robin_growth_matches_full_reevaluation() {
    for k in [3usize, 4] {
        let q = chain_query(k);
        let domain = 20u64;
        let base = chain_db(k, 80, domain as i64, 1.0, 31 + k as u64).expect("db");
        let mut grown = base.clone();
        let mut s = 0x0dd_ba11 ^ k as u64;
        let batches: Vec<Vec<Append>> = (0..3 * k)
            .map(|b| {
                let name = format!("R{}", b % k + 1);
                let rel = grown.rel_id(&name).expect("chain relation");
                let mut batch: Vec<Append> = Vec::new();
                while batch.len() < 10 {
                    s = mix(s);
                    let row = vec![
                        Value::Int(1 + (s % domain) as i64),
                        Value::Int(1 + ((s >> 32) % domain) as i64),
                    ];
                    let fresh = grown.relation(rel).find(&row).is_none()
                        && !batch.iter().any(|(_, r, _)| *r == row);
                    if fresh {
                        batch.push((name.clone(), row, (1 + s % 999) as f64 / 1000.0));
                    }
                }
                apply_batch(&mut grown, &batch);
                batch
            })
            .collect();
        // 2 plan shapes × 2 semantics replay the stream.
        let updated = check_stream(&base, &q, &batches).unwrap();
        assert!(
            updated >= 4 * batches.len() / 2,
            "{updated} batches absorbed"
        );
    }
}
