//! Base-view equivalence suite: a database that has been scanned before
//! answers exactly like one that never was.
//!
//! The full scan of an unfiltered atom is a copy of the relation's **base
//! view** — the relation's encoded tuples, sorted, kept by the database
//! with the key orders joins asked for, extended when the relation grows
//! and rebuilt when a probability changes in place. Whatever state the
//! views are in must be invisible in the answers. The property pinned here
//! is **bit-identity**: every evaluation entry point, called on a database
//! cold (first scan builds the views), warm (views and key orders reused),
//! and after appends (views extended), returns the same keys and the same
//! float *bits* as the same call on a database rebuilt from the rows that
//! no evaluation has touched — across serial and threaded execution
//! (`threads` 1 and 4).
//!
//! Dedicated tests cover what a shared, long-lived copy could get wrong:
//! scores or lower bounds of one evaluation leaking into the next one's
//! scan, in-place probability changes, two queries numbering one relation's
//! columns differently, cloned databases diverging, and degenerate
//! relations (empty, below the order-sharing threshold, arity 0).

use lapushdb::bound_answers;
use lapushdb::prelude::*;
use lapushdb::storage::BaseView;
use lapushdb::workload::{chain_db, chain_query, star_db, star_query};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

/// A database holding `db`'s rows — each relation's in the order `arrange`
/// leaves them — that no evaluation has scanned: no base view, no key order.
fn copied(db: &Database, mut arrange: impl FnMut(&mut Vec<(Box<[Value]>, f64)>)) -> Database {
    let mut fresh = Database::new();
    for (_, rel) in db.relations() {
        let mut copy = match rel.is_deterministic() {
            true => Relation::deterministic(rel.name(), rel.arity()),
            false => Relation::new(rel.name(), rel.arity()),
        };
        let mut rows: Vec<(Box<[Value]>, f64)> =
            rel.iter().map(|(_, row, p)| (row.into(), p)).collect();
        arrange(&mut rows);
        for (row, p) in rows {
            copy.push(row, p).unwrap();
        }
        fresh.add_relation(copy).unwrap();
    }
    fresh
}

/// `db`'s rows, in `db`'s order, in a database nothing has scanned.
fn rebuilt(db: &Database) -> Database {
    copied(db, |_| {})
}

/// One evaluation entry point, by name.
type Call = (&'static str, fn(&Database, &Query, usize) -> Vec<AnswerSet>);

/// The entry points that scan: the default single plan with view reuse, the
/// full minimal plan set, its anytime top-10, the sandwich bounds (the plan
/// set under lower-bound semantics, then under the probabilistic one) and
/// the deterministic flat join.
const CALLS: [Call; 5] = [
    ("rank opt12", |db, q, threads| {
        let opts = RankOptions {
            threads,
            ..RankOptions::default()
        };
        vec![rank_by_dissociation(db, q, opts).unwrap()]
    }),
    ("rank multi-plan", |db, q, threads| {
        let opts = RankOptions {
            opt: OptLevel::MultiPlan,
            threads,
            ..RankOptions::default()
        };
        vec![rank_by_dissociation(db, q, opts).unwrap()]
    }),
    ("top-10", |db, q, threads| {
        let opts = RankOptions {
            opt: OptLevel::MultiPlan,
            threads,
            top_k: Some(10),
            ..RankOptions::default()
        };
        vec![rank_by_dissociation(db, q, opts).unwrap()]
    }),
    ("bounds", |db, q, threads| {
        let (lower, upper) = bound_answers(db, q, threads).unwrap();
        vec![lower, upper]
    }),
    ("deterministic", |db, q, threads| {
        vec![deterministic_answers(db, q, threads).unwrap()]
    }),
];

/// Same keys, same float bits.
fn assert_bitwise(got: &[AnswerSet], want: &[AnswerSet], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (got, want) in got.iter().zip(want) {
        assert_eq!(got.len(), want.len(), "{what}: answer count");
        for (key, &w) in &want.rows {
            let g = got.score_of(key);
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}: {key:?} scored {g} vs {w}"
            );
        }
    }
}

/// Every call on `db` as it is, twice (whatever was cold is warm the second
/// time), against the same call on a rebuilt database per call.
fn check_all_calls(db: &Database, q: &Query, threads: usize, what: &str) {
    for (name, call) in CALLS {
        let want = call(&rebuilt(db), q, threads);
        assert!(
            want.iter().any(|a| !a.is_empty()),
            "{what}: {name} is vacuous"
        );
        for pass in ["first", "again"] {
            let got = call(db, q, threads);
            assert_bitwise(
                &got,
                &want,
                &format!("{what}, threads {threads}: {name} {pass}"),
            );
        }
    }
}

/// Deterministic row source for appends: values already in the relation's
/// columns most of the time (joins connect), else one of `fresh`.
struct Appends {
    state: u64,
    fresh: Vec<Value>,
}

/// xorshift64: the suite's deterministic random source.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

impl Appends {
    fn next(&mut self) -> u64 {
        xorshift(&mut self.state)
    }

    /// Append up to `rows` new tuples to relation `name`; returns how many
    /// were new.
    fn append(&mut self, db: &mut Database, name: &str, rows: usize) -> usize {
        let id = db.rel_id(name).unwrap();
        let before = db.relation(id).len();
        for _ in 0..rows {
            let rel = db.relation(id);
            let row: Box<[Value]> = (0..rel.arity())
                .map(|c| {
                    let (kind, pick) = (self.next() % 4, self.next());
                    match kind {
                        0 => self.fresh[(pick % self.fresh.len() as u64) as usize].clone(),
                        _ => rel.row((pick % rel.len() as u64) as u32)[c].clone(),
                    }
                })
                .collect();
            // An existing tuple must keep its probability: appends only.
            if rel.find(&row).is_none() {
                let p = (self.next() % 999 + 1) as f64 / 1000.0;
                db.relation_mut(id).push(row, p).unwrap();
            }
        }
        db.relation(id).len() - before
    }
}

fn fresh_values() -> Vec<Value> {
    (0..6).map(|i| Value::Int(10_000 + i)).collect()
}

/// The view the database holds for `name` right now; panics if it would
/// have to be built.
fn view_of(db: &Database, name: &str) -> Arc<BaseView> {
    db.base_view(db.rel_id(name).unwrap(), |_| {
        panic!("{name} has no view of its current state")
    })
}

#[test]
fn chains_agree_cold_warm_and_after_appends() {
    for (seed, threads) in [(11, 1), (12, 4)] {
        // 320 rows per relation: above the 256-row order-sharing threshold.
        let mut db = chain_db(3, 320, 45, 1.0, seed).unwrap();
        let q = chain_query(3);
        let what = format!("chain-3 seed {seed}");
        check_all_calls(&db, &q, threads, &format!("{what} as loaded"));
        let scanned = db.base_view_stats();
        assert_eq!(
            (scanned.resident, scanned.built, scanned.extended),
            (3, 3, 0)
        );

        // Appends interleaved with evaluations: one relation at a time,
        // then all of them between two rounds.
        let mut rows = Appends {
            state: 0x9e3779b97f4a7c15 ^ seed,
            fresh: fresh_values(),
        };
        let mut extended = 0;
        for round in 0..3 {
            let targets: &[&str] = match round {
                0 => &["R2"],
                1 => &["R1"],
                _ => &["R1", "R2", "R3"],
            };
            for name in targets {
                assert!(rows.append(&mut db, name, 7) > 0);
            }
            extended += targets.len() as u64;
            check_all_calls(&db, &q, threads, &format!("{what} after round {round}"));
            let stats = db.base_view_stats();
            assert_eq!(
                (stats.resident, stats.built, stats.extended),
                (3, 3, extended),
                "{what}: grown relations are extended, once, and nothing is rebuilt"
            );
        }
    }
}

#[test]
fn stars_agree_cold_warm_and_after_appends() {
    for (seed, threads) in [(21, 1), (22, 4)] {
        // The hub R0(x1, x2, x3) has 400 rows and is joined on inner
        // columns; R2 and R3 are small; R1('a', x1) is filtered by a
        // constant and never goes through a view.
        let mut db = star_db(3, 400, 30, 1.0, seed).unwrap();
        let q = star_query(3);
        let what = format!("star-3 seed {seed}");
        check_all_calls(&db, &q, threads, &format!("{what} as loaded"));
        assert_eq!(db.base_view_stats().resident, 3, "R2, R3, R0");

        let mut rows = Appends {
            state: 0xd1b54a32d192ed03 ^ seed,
            fresh: fresh_values(),
        };
        for round in 0..2 {
            for name in ["R0", "R1", "R2"] {
                rows.append(&mut db, name, 5);
            }
            check_all_calls(&db, &q, threads, &format!("{what} after round {round}"));
        }
        let stats = db.base_view_stats();
        assert_eq!((stats.resident, stats.built), (3, 3));
        assert!(stats.extended >= 2, "R0 grew twice: {stats:?}");
    }
}

#[test]
fn concurrent_cold_evaluations_publish_each_view_once() {
    // Four callers start on one cold database together, each with a budget
    // of 4 pool threads over relations large enough to use it: they race
    // to build every view (equal views; the first to publish wins) and to
    // sort every key order, while the pool's waiting submitters run each
    // other's tasks. Two of them evaluate the plan set, whose root chunks
    // are pool tasks that join through the views; the others join through
    // the same views on their own threads with the whole budget. A hard
    // timeout turns a caller waiting for the pool under a view's lock —
    // and being handed a root chunk that needs that lock — into a failure.
    let db = chain_db(4, 9000, 7000, 1.0, 91).unwrap();
    let q = chain_query(4);
    let threads = 4;
    let callers = [CALLS[1], CALLS[2], CALLS[1], CALLS[0]];
    let want: Vec<Vec<AnswerSet>> = callers
        .iter()
        .map(|(_, call)| call(&rebuilt(&db), &q, threads))
        .collect();
    assert!(want[0][0].len() > 1000);

    let (done, finished) = mpsc::channel();
    let (shared, query) = (Arc::new(db), q.clone());
    let subject = Arc::clone(&shared);
    let running = std::thread::spawn(move || {
        let start = Barrier::new(callers.len());
        let answers: Vec<Vec<AnswerSet>> = std::thread::scope(|scope| {
            let calls: Vec<_> = callers
                .iter()
                .map(|(_, call)| {
                    scope.spawn(|| {
                        start.wait();
                        call(&subject, &query, threads)
                    })
                })
                .collect();
            calls.into_iter().map(|c| c.join().unwrap()).collect()
        });
        done.send(answers).ok();
    });
    let Ok(answers) = finished.recv_timeout(Duration::from_secs(240)) else {
        panic!("concurrent evaluations at threads = {threads} did not finish");
    };
    running.join().unwrap();
    for ((got, want), (name, _)) in answers.iter().zip(&want).zip(callers) {
        assert_bitwise(got, want, &format!("concurrent {name}"));
    }
    let stats = shared.base_view_stats();
    assert_eq!((stats.resident, stats.built, stats.extended), (4, 4, 0));
    assert_eq!(view_of(&shared, "R2").cached_orders(), 1);
}

/// `db`'s rows with every relation's order drawn from `seed`.
fn shuffled(db: &Database, seed: u64) -> Database {
    let mut state = seed;
    copied(db, |rows| {
        for i in (1..rows.len()).rev() {
            rows.swap(i, (xorshift(&mut state) % (i as u64 + 1)) as usize);
        }
    })
}

/// What bit-identity is relative to: the tuple set and the plan, not the
/// load history. The same rows met in another order number their values
/// differently, so every sorted-vid order differs; but a projection group
/// folds its scores in ascending order whatever order it meets them in,
/// so every entry point returns the same bits.
#[test]
fn load_order_does_not_move_scores() {
    let base = chain_db(3, 320, 45, 1.0, 41).unwrap();
    let q = chain_query(3);
    for threads in [1, 4] {
        let (a, b) = (shuffled(&base, 0x51ed), shuffled(&base, 0xfade));
        for (name, call) in CALLS {
            assert_bitwise(
                &call(&a, &q, threads),
                &call(&b, &q, threads),
                &format!("threads {threads}: {name}"),
            );
        }
    }
}

#[test]
fn scores_and_lower_bounds_never_reach_the_view() {
    // The deterministic join scores every scanned row 1.0 and the top-k
    // bounds pass seeds a lower-bound column on its scans; both work on
    // copies. A probabilistic evaluation before, between and after them
    // must read the same probabilities.
    let db = chain_db(3, 300, 40, 1.0, 41).unwrap();
    let q = chain_query(3);
    let reference = rebuilt(&db);
    let (rank, top, det) = (CALLS[0].1, CALLS[2].1, CALLS[4].1);
    let want = rank(&reference, &q, 1);
    let probs = view_of(&reference, "R2").probs().to_vec();
    assert!(probs.iter().any(|&p| p < 1.0));

    assert_bitwise(&rank(&db, &q, 1), &want, "first");
    let certain = det(&db, &q, 1);
    assert!(certain[0].rows.values().all(|&s| s == 1.0));
    assert_bitwise(&rank(&db, &q, 1), &want, "after the deterministic join");
    top(&db, &q, 1);
    assert_bitwise(&rank(&db, &q, 1), &want, "after the top-k bounds pass");
    assert_bitwise(&det(&db, &q, 1), &certain, "deterministic again");
    let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(view_of(&db, "R2").probs()), bits(&probs));
}

#[test]
fn in_place_probability_changes_force_a_rebuild() {
    let mut db = chain_db(3, 300, 40, 0.5, 51).unwrap();
    let q = chain_query(3);
    check_all_calls(&db, &q, 1, "as loaded");
    let mut built = db.base_view_stats().built;
    assert_eq!(built, 3);

    let r2 = db.rel_id("R2").unwrap();
    let stale = view_of(&db, "R2");
    db.relation_mut(r2).set_prob(17, 0.875).unwrap();
    check_all_calls(&db, &q, 1, "after set_prob");
    built += 1;
    assert_eq!(db.base_view_stats().built, built, "R2 only");
    assert!(!Arc::ptr_eq(&stale, &view_of(&db, "R2")));

    // A duplicate insert that raises the stored probability; one that does
    // not is no change at all.
    let row: Box<[Value]> = db.relation(r2).row(5).into();
    let p = db.relation(r2).prob(5);
    db.relation_mut(r2).push(row.clone(), p / 2.0).unwrap();
    let kept = view_of(&db, "R2");
    db.relation_mut(r2).push(row, 0.9375).unwrap();
    check_all_calls(&db, &q, 1, "after a probability-raising duplicate");
    built += 1;
    assert_eq!(db.base_view_stats().built, built);
    assert!(!Arc::ptr_eq(&kept, &view_of(&db, "R2")));

    // A probability change and an append between two scans: rebuilt, not
    // extended.
    let extended = db.base_view_stats().extended;
    db.relation_mut(r2).set_prob(3, 0.125).unwrap();
    let mut rows = Appends {
        state: 0x853c49e6748fea9b,
        fresh: vec![Value::Int(1)],
    };
    assert!(rows.append(&mut db, "R2", 5) > 0);
    check_all_calls(&db, &q, 1, "after set_prob and appends");
    built += 1;
    let stats = db.base_view_stats();
    assert_eq!((stats.built, stats.extended), (built, extended));

    db.scale_probs(0.5);
    check_all_calls(&db, &q, 1, "after scale_probs");
    // Every relation changed, and each view is replaced when its relation
    // is next scanned.
    let stats = db.base_view_stats();
    assert_eq!((stats.resident, stats.built), (3, built + 3));
}

#[test]
fn two_namings_of_one_relation_share_each_key_order() {
    // Variables are numbered head first, then by first occurrence: R2 is
    // (v2, v3) in the 3-chain, (v1, v2) in the query without R1, and
    // (v2, v1) in the prefix below. All three read one view of R2, and the
    // order of its second column — which `R2 ⋈ R3` needs — is sorted once.
    let db = chain_db(3, 320, 45, 1.0, 61).unwrap();
    let queries = [
        "q(x0, x3) :- R1(x0, x1), R2(x1, x2), R3(x2, x3)",
        "q(x1) :- R2(x1, x2), R3(x2, x3)",
        "q(x0, x2) :- R1(x0, x1), R2(x1, x2), R3(x2, x3)",
    ];
    let mut r2: Option<(Arc<BaseView>, usize)> = None;
    for text in queries {
        let q = parse_query(text).unwrap();
        let want = CALLS[1].1(&rebuilt(&db), &q, 1);
        assert_bitwise(&CALLS[1].1(&db, &q, 1), &want, text);
        let view = view_of(&db, "R2");
        match &r2 {
            None => {
                assert!(view.cached_orders() >= 1, "{text}: R2 is joined on x2");
                r2 = Some((Arc::clone(&view), view.cached_orders()));
            }
            Some((first, orders)) => {
                assert!(Arc::ptr_eq(first, &view), "{text}: one view");
                assert_eq!(view.cached_orders(), *orders, "{text}: sorted again");
            }
        }
    }
    let stats = db.base_view_stats();
    assert_eq!((stats.resident, stats.built, stats.extended), (3, 3, 0));
}

#[test]
fn clones_share_views_until_they_diverge() {
    let db = chain_db(3, 300, 40, 1.0, 71).unwrap();
    let q = chain_query(3);
    check_all_calls(&db, &q, 1, "original");

    let (mut a, mut b) = (db.clone(), db.clone());
    for name in ["R1", "R2", "R3"] {
        assert!(Arc::ptr_eq(&view_of(&db, name), &view_of(&a, name)));
        assert!(Arc::ptr_eq(&view_of(&db, name), &view_of(&b, name)));
    }
    let mut rows = Appends {
        state: 0x6a09e667f3bcc909,
        fresh: fresh_values(),
    };
    assert!(rows.append(&mut a, "R1", 9) > 0);
    assert!(rows.append(&mut b, "R2", 9) > 0);
    assert!(rows.append(&mut b, "R3", 4) > 0);
    check_all_calls(&a, &q, 4, "clone a");
    check_all_calls(&b, &q, 1, "clone b");
    check_all_calls(&db, &q, 1, "original, afterwards");

    // Each clone replaced the views of the relations it changed and kept
    // sharing the rest.
    let same =
        |x: &Database, y: &Database, name: &str| Arc::ptr_eq(&view_of(x, name), &view_of(y, name));
    assert!(!same(&a, &db, "R1") && same(&a, &db, "R2") && same(&a, &db, "R3"));
    assert!(same(&b, &db, "R1") && !same(&b, &db, "R2") && !same(&b, &db, "R3"));
    assert_eq!(view_of(&db, "R1").len(), 300);
    assert_eq!(
        view_of(&a, "R1").len(),
        a.relation_by_name("R1").unwrap().len()
    );
}

#[test]
fn degenerate_relations() {
    // `E` stays empty, `S` is far below the order-sharing threshold, `Z`
    // has no columns at all (one empty tuple, or none).
    let build = |with_z: bool| {
        let mut db = chain_db(2, 300, 40, 1.0, 81).unwrap();
        let s = db.create_relation("S", 2).unwrap();
        for i in 0..40i64 {
            let row: Box<[Value]> = Box::new([Value::Int(1 + (i * 7) % 40), Value::Int(i % 5)]);
            db.relation_mut(s)
                .push(row, 0.25 + i as f64 / 100.0)
                .unwrap();
        }
        db.create_relation("E", 2).unwrap();
        let z = db.create_relation("Z", 0).unwrap();
        if with_z {
            db.relation_mut(z).push(Box::new([]), 0.75).unwrap();
        }
        db
    };
    let small = parse_query("q(x0, y) :- R1(x0, x1), R2(x1, x2), S(x2, y)").unwrap();
    let nullary = parse_query("q(x0) :- R1(x0, x1), R2(x1, x2), Z()").unwrap();
    let empty = parse_query("q(x0) :- R1(x0, x1), E(x1, y)").unwrap();

    let mut db = build(true);
    check_all_calls(&db, &small, 1, "small relation");
    check_all_calls(&db, &nullary, 1, "arity-0 relation");
    assert_eq!(
        view_of(&db, "S").cached_orders(),
        0,
        "small inputs sort privately"
    );
    assert_eq!(view_of(&db, "Z").len(), 1);
    let mut rows = Appends {
        state: 0xbb67ae8584caa73b,
        fresh: fresh_values(),
    };
    assert!(rows.append(&mut db, "S", 6) > 0);
    check_all_calls(&db, &small, 4, "small relation, grown");

    // No answers at all: compare directly (`check_all_calls` insists on
    // some).
    for (q, db) in [(&empty, build(true)), (&nullary, build(false))] {
        for (name, call) in CALLS {
            let want = call(&rebuilt(&db), q, 1);
            assert!(want.iter().all(AnswerSet::is_empty), "{name}");
            assert_bitwise(&call(&db, q, 1), &want, name);
            assert_bitwise(&call(&db, q, 1), &want, name);
        }
    }
    // The empty tuple arriving is an append like any other.
    let mut db = build(false);
    CALLS[0].1(&db, &nullary, 1);
    assert_eq!(view_of(&db, "Z").len(), 0);
    let z = db.rel_id("Z").unwrap();
    db.relation_mut(z).push(Box::new([]), 0.75).unwrap();
    check_all_calls(&db, &nullary, 1, "arity-0 relation, grown");
    assert_eq!(view_of(&db, "Z").len(), 1);
}
