//! Regression tests for the schema-knowledge refinements (Section 3.3),
//! including the edge case of the `m_p ≤ 1` stopping rule where the single
//! probabilistic relation does NOT contain all existential variables.

use lapushdb::core::NodeKind;
use lapushdb::prelude::*;
use lapushdb::{exact_answers, rank_by_dissociation, OptLevel, RankOptions};

/// `ρ(q)` over one enumerated plan set, for a Boolean query.
fn rho(db: &Database, q: &Query, plans: &PlanSet) -> f64 {
    propagation_score_ids(db, q, &plans.store, &plans.roots, ExecOptions::default())
        .unwrap()
        .boolean_score()
}

/// Build q :- R(x), S^d(x,y), T^d(y) with a fan-out in S: some x pairs with
/// several y. The paper's literal stopping rule ("join all, project head")
/// would dissociate R on y and overestimate; the equivalence-class-top plan
/// stays exact.
fn fanout_db() -> (Database, Query) {
    let mut db = Database::new();
    let r = db.create_relation("R", 1).unwrap();
    let s = db.create_deterministic("S", 2).unwrap();
    let t = db.create_deterministic("T", 1).unwrap();
    for (x, p) in [(1, 0.5), (2, 0.7)] {
        db.relation_mut(r)
            .push(Box::new([Value::Int(x)]), p)
            .unwrap();
    }
    // x = 1 pairs with two certain y's: the fan-out that breaks the naive
    // flat-join plan.
    for (x, y) in [(1, 10), (1, 11), (2, 12)] {
        db.relation_mut(s)
            .push_certain(Box::new([Value::Int(x), Value::Int(y)]))
            .unwrap();
    }
    for y in [10, 11, 12] {
        db.relation_mut(t)
            .push_certain(Box::new([Value::Int(y)]))
            .unwrap();
    }
    let q = parse_query("q :- R(x), S(x, y), T(y)").unwrap();
    (db, q)
}

#[test]
fn mp_stop_rule_stays_exact_with_partial_probabilistic_atom() {
    let (db, q) = fanout_db();
    let schema = SchemaInfo::from_db(&q, &db);
    // m_p = 1 (only R probabilistic) → the DR-aware algorithm returns one
    // plan, and it must be exact: P(q) = 1 − (1−0.5)(1−0.7) = 0.85.
    let plans = minimal_plan_set_opts(
        &q,
        &schema,
        EnumOptions {
            use_deterministic: true,
            use_fds: false,
        },
    );
    assert_eq!(plans.len(), 1);
    let rho = rho(&db, &q, &plans);
    let exact = exact_answers(&db, &q).unwrap().boolean_score();
    assert!((exact - 0.85).abs() < 1e-12);
    assert!(
        (rho - exact).abs() < 1e-12,
        "stop-rule plan must be exact: rho {rho} vs exact {exact}"
    );

    // The literal "flat join-all" plan would instead compute
    // 1 − (1−0.5)²(1−0.7) = 0.925 — strictly worse. Verify the flat plan is
    // indeed the looser bound (so this test is actually discriminating).
    let shape = schema.shape(&q);
    let mut store = PlanStore::new();
    let scans = (0..3).map(|a| store.scan(&shape, a)).collect();
    let join = store.join(scans);
    let flat = store.project(lapushdb::query::VarSet::EMPTY, join);
    let flat_score = eval_plan_id(&db, &q, &store, flat, ExecOptions::default())
        .unwrap()
        .boolean_score();
    assert!((flat_score - 0.925).abs() < 1e-12);
}

#[test]
fn single_plan_uses_same_stop_rule() {
    let (db, q) = fanout_db();
    let schema = SchemaInfo::from_db(&q, &db);
    let mut store = PlanStore::new();
    let sp = single_plan_id(
        &mut store,
        &q,
        &schema,
        EnumOptions {
            use_deterministic: true,
            use_fds: false,
        },
    );
    let is_min = |&id: &PlanId| matches!(store.node(id).kind, NodeKind::Min { .. });
    assert!(!store.reachable(&[sp]).iter().any(is_min));
    let got = eval_plan_id(&db, &q, &store, sp, ExecOptions::default())
        .unwrap()
        .boolean_score();
    let exact = exact_answers(&db, &q).unwrap().boolean_score();
    assert!((got - exact).abs() < 1e-12);
}

#[test]
fn all_probabilistic_flat_stop_rule_matches_paper_form() {
    // When the single probabilistic atom contains every existential
    // variable (the paper's Fig. 3c case), our stop rule degenerates to the
    // paper's literal flat plan.
    let q = parse_query("q :- R^d(x), S(x, y), T^d(y)").unwrap();
    let schema = SchemaInfo::from_query(&q);
    let plans = minimal_plan_set_opts(
        &q,
        &schema,
        EnumOptions {
            use_deterministic: true,
            use_fds: false,
        },
    );
    assert_eq!(plans.len(), 1);
    assert_eq!(
        plans.store.render(plans.roots[0], &q),
        "π-[x,y] ⋈[R(x), S(x,y), T(y)]"
    );
}

#[test]
fn schema_aware_driver_is_exact_on_safe_with_dr_query() {
    let (db, q) = fanout_db();
    for opt in [
        OptLevel::MultiPlan,
        OptLevel::Opt1,
        OptLevel::Opt12,
        OptLevel::Opt123,
    ] {
        let rho = rank_by_dissociation(
            &db,
            &q,
            RankOptions {
                opt,
                use_schema: true,
                threads: 1,
                top_k: None,
            },
        )
        .unwrap()
        .boolean_score();
        let exact = exact_answers(&db, &q).unwrap().boolean_score();
        assert!((rho - exact).abs() < 1e-12, "{opt:?}");
    }
}

#[test]
fn fd_chase_composes_with_dr_knowledge() {
    // q :- A(x), B(x,y), C(y,z), D^d(z) with FD x→y on B:
    // chase dissociates A on y; with D deterministic the enumeration
    // still shrinks and ρ is preserved on FD-satisfying data.
    let q = parse_query("q :- A(x), B(x, y), C(y, z), D^d(z)").unwrap();
    let mut db = Database::new();
    let a = db.create_relation("A", 1).unwrap();
    let b = db.create_relation("B", 2).unwrap();
    let c = db.create_relation("C", 2).unwrap();
    let d = db.create_deterministic("D", 1).unwrap();
    for x in [1, 2] {
        db.relation_mut(a)
            .push(Box::new([Value::Int(x)]), 0.6)
            .unwrap();
        // FD x→y holds: one y per x.
        db.relation_mut(b)
            .push(Box::new([Value::Int(x), Value::Int(x * 10)]), 0.5)
            .unwrap();
    }
    for (y, z) in [(10, 100), (10, 101), (20, 100)] {
        db.relation_mut(c)
            .push(Box::new([Value::Int(y), Value::Int(z)]), 0.4)
            .unwrap();
    }
    for z in [100, 101] {
        db.relation_mut(d)
            .push_certain(Box::new([Value::Int(z)]))
            .unwrap();
    }
    db.relation_by_name_mut("B")
        .unwrap()
        .add_fd(lapushdb::storage::Fd::new([0], [1]))
        .unwrap();

    let schema = SchemaInfo::from_db(&q, &db);
    let plans_plain = minimal_plan_set_opts(&q, &schema, EnumOptions::default());
    let plans_full = minimal_plan_set_opts(&q, &schema, EnumOptions::full());
    assert!(plans_full.len() <= plans_plain.len());

    let rho_plain = rho(&db, &q, &plans_plain);
    let rho_full = rho(&db, &q, &plans_full);
    assert!(
        (rho_plain - rho_full).abs() < 1e-12,
        "plain {rho_plain} vs full {rho_full}"
    );
    // And both upper-bound the exact probability.
    let exact = exact_answers(&db, &q).unwrap().boolean_score();
    assert!(rho_full >= exact - 1e-12);
}
