//! Equivalence suite for the dictionary-encoded execution core, on string
//! values.
//!
//! The engine interns every value into a dense vid and runs scans, joins,
//! projections and semi-joins purely on encoded rows, decoding back to
//! values only at the `AnswerSet` boundary. The workload generators emit
//! only integers; here every integer `n` of a chain, star or random-shape
//! database is stored as the string `"s{n}"` instead, so the `Arc<str>`
//! interning and decoding paths carry whole workloads. The engine must
//! still agree with the oracle (`tests/common/oracle.rs`) on every path
//! that `common::agree::check_all_paths` covers; the oracle compares the
//! strings themselves, whose order differs from that of the integers
//! they replace.

mod common;

use common::agree::{assert_bitwise, check_all_paths};
use common::oracle;

use lapushdb::prelude::*;
use lapushdb::workload::{
    chain_db, chain_query, random_db_for_query, random_query, star_db, star_query,
};
use proptest::prelude::*;

/// The same database with every integer `n` stored as the string `"s{n}"`.
fn stringified(db: &Database) -> Database {
    let mut out = Database::new();
    for (_, rel) in db.relations() {
        let id = out
            .create_relation(rel.name(), rel.arity())
            .expect("fresh name");
        for (_, row, p) in rel.iter() {
            let row = row
                .iter()
                .map(|v| match v {
                    Value::Int(n) => Value::str(format!("s{n}")),
                    Value::Str(_) => v.clone(),
                })
                .collect();
            out.relation_mut(id).push(row, p).expect("valid row");
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Chain workloads on string values: the engine agrees with the
    /// oracle on every opt level and semantics, serial and threaded.
    #[test]
    fn chain_workloads_agree(seed in 0u64..10_000, k in 2usize..5, n in 20usize..80) {
        let q = chain_query(k);
        let domain = (n as i64 / 3).max(4);
        let db = chain_db(k, n, domain, 1.0, seed).expect("db");
        check_all_paths(&stringified(&db), &q);
    }

    /// Star workloads on string values.
    #[test]
    fn star_workloads_agree(seed in 0u64..10_000, k in 2usize..4, n in 20usize..60) {
        let q = star_query(k);
        let domain = (n as i64 / 2).max(4);
        let db = star_db(k, n, domain, 1.0, seed).expect("db");
        check_all_paths(&stringified(&db), &q);
    }

    /// Random-shape queries over random databases, on string values.
    #[test]
    fn random_workloads_agree(seed in 0u64..10_000, atoms in 2usize..5) {
        let q = random_query(seed, atoms, 4);
        let db = random_db_for_query(&q, seed ^ 0x5eed, 12, 5, 1.0).expect("db");
        check_all_paths(&stringified(&db), &q);
    }
}
/// A hand-written string instance: answers decode back to the strings
/// they were interned from.
#[test]
fn string_values_intern_and_decode() {
    let mut db = Database::new();
    let r = db.create_relation("R", 2).unwrap();
    let s = db.create_relation("S", 2).unwrap();
    for (name, color, p) in [
        ("bolt", "red", 0.5),
        ("nut", "green", 0.7),
        ("washer", "red", 0.9),
    ] {
        db.relation_mut(r)
            .push(Box::new([Value::str(name), Value::str(color)]), p)
            .unwrap();
    }
    for (color, bin, p) in [("red", "a", 0.6), ("green", "b", 0.8)] {
        db.relation_mut(s)
            .push(Box::new([Value::str(color), Value::str(bin)]), p)
            .unwrap();
    }
    let q = parse_query("q(x) :- R(x, c), S(c, b)").unwrap();
    let plans = minimal_plan_set(&QueryShape::of_query(&q));
    let want = oracle::propagation(&db, &q, &plans.store, &plans.roots);
    let got = rank_by_dissociation(&db, &q, RankOptions::default()).unwrap();
    assert_eq!(got.len(), 3);
    assert_bitwise(&got, &want, "string values");
    // Decoded keys are real strings again.
    assert!(got.rows.keys().all(|k| k[0].as_str().is_some()));
}
