//! End-to-end reproduction of the paper's worked examples.

use lapushdb::core::{
    count_all_plans, count_dissociations, count_minimal_plans, shared_subqueries_in, NodeKind,
};
use lapushdb::prelude::*;
use lapushdb::{exact_answers, rank_by_dissociation, RankOptions};

/// Example 7/9: q :- R(x), S(x,y) on D = {R(1), R(2), S(1,4), S(1,5)}.
#[test]
fn example_7_and_9() {
    let mut db = Database::new();
    let r = db.create_relation("R", 1).unwrap();
    let s = db.create_relation("S", 2).unwrap();
    db.relation_mut(r)
        .push(Box::new([Value::Int(1)]), 0.5)
        .unwrap();
    db.relation_mut(r)
        .push(Box::new([Value::Int(2)]), 0.5)
        .unwrap();
    db.relation_mut(s)
        .push(Box::new([Value::Int(1), Value::Int(4)]), 0.5)
        .unwrap();
    db.relation_mut(s)
        .push(Box::new([Value::Int(1), Value::Int(5)]), 0.5)
        .unwrap();
    let q = parse_query("q :- R(x), S(x, y)").unwrap();

    // Exact: P(F) = p(q + r − qr) = 0.375.
    let exact = exact_answers(&db, &q).unwrap().boolean_score();
    assert!((exact - 0.375).abs() < 1e-12);

    // The query is safe: dissociation returns the exact value.
    let rho = rank_by_dissociation(&db, &q, RankOptions::default())
        .unwrap()
        .boolean_score();
    assert!((rho - exact).abs() < 1e-12);

    // Example 9/11: the dissociation Δ = ({y}, ∅) gives
    // P(F′) = pq + pr − p²qr = 0.4375.
    use lapushdb::core::{plan_id_for_dissociation, Dissociation};
    use lapushdb::query::VarSet;
    let shape = QueryShape::of_query(&q);
    let y = q.var_by_name("y").unwrap();
    let delta = Dissociation(vec![VarSet::single(y), VarSet::EMPTY]);
    let mut store = PlanStore::new();
    let plan = plan_id_for_dissociation(&mut store, &shape, &delta).expect("safe dissociation");
    let score = eval_plan_id(&db, &q, &store, plan, ExecOptions::default())
        .unwrap()
        .boolean_score();
    let expect = 0.5 * 0.5 + 0.5 * 0.5 - 0.5 * 0.5 * 0.5 * 0.5;
    assert!((score - expect).abs() < 1e-12, "{score} vs {expect}");
    assert!(score >= exact);
}

/// Example 17: q :- R(x), S(x), T(x,y), U(y); probabilities all 1/2.
#[test]
fn example_17_numbers() {
    let mut db = Database::new();
    let r = db.create_relation("R", 1).unwrap();
    let s = db.create_relation("S", 1).unwrap();
    let t = db.create_relation("T", 2).unwrap();
    let u = db.create_relation("U", 1).unwrap();
    for x in [1, 2] {
        db.relation_mut(r)
            .push(Box::new([Value::Int(x)]), 0.5)
            .unwrap();
        db.relation_mut(s)
            .push(Box::new([Value::Int(x)]), 0.5)
            .unwrap();
        db.relation_mut(u)
            .push(Box::new([Value::Int(x)]), 0.5)
            .unwrap();
    }
    for (x, y) in [(1, 1), (1, 2), (2, 2)] {
        db.relation_mut(t)
            .push(Box::new([Value::Int(x), Value::Int(y)]), 0.5)
            .unwrap();
    }
    let q = parse_query("q :- R(x), S(x), T(x, y), U(y)").unwrap();

    // P(q) = 83/2⁹ ≈ 0.162.
    let exact = exact_answers(&db, &q).unwrap().boolean_score();
    assert!((exact - 83.0 / 512.0).abs() < 1e-12);

    // ρ(q) = P(q^Δ3) = 169/2¹⁰ ≈ 0.165 (the better of the two minimal
    // dissociations; the other gives 353/2¹¹ ≈ 0.172).
    let rho = rank_by_dissociation(&db, &q, RankOptions::default())
        .unwrap()
        .boolean_score();
    assert!((rho - 169.0 / 1024.0).abs() < 1e-12);
    assert!(rho >= exact);

    // 8 dissociations, 5 safe, 2 minimal (Fig. 1).
    let shape = QueryShape::of_query(&q);
    assert_eq!(count_dissociations(&shape), 8);
    assert_eq!(count_all_plans(&shape), 5);
    assert_eq!(count_minimal_plans(&shape), 2);
}

/// Example 23: q :- R(x), S(x,y), T^d(y) is safe given that T is
/// deterministic.
#[test]
fn example_23_deterministic_relation() {
    let mut db = Database::new();
    let r = db.create_relation("R", 1).unwrap();
    let s = db.create_relation("S", 2).unwrap();
    let t = db.create_deterministic("T", 1).unwrap();
    for x in [1, 2, 3] {
        db.relation_mut(r)
            .push(Box::new([Value::Int(x)]), 0.6)
            .unwrap();
    }
    for (x, y) in [(1, 1), (1, 2), (2, 2), (3, 1)] {
        db.relation_mut(s)
            .push(Box::new([Value::Int(x), Value::Int(y)]), 0.5)
            .unwrap();
    }
    for y in [1, 2] {
        db.relation_mut(t)
            .push_certain(Box::new([Value::Int(y)]))
            .unwrap();
    }
    let q = parse_query("q :- R(x), S(x, y), T(y)").unwrap();
    let schema = SchemaInfo::from_db(&q, &db);

    // DR-aware enumeration: single plan; exact.
    let rho = |opts| {
        let plans = minimal_plan_set_opts(&q, &schema, opts);
        let rho = propagation_score_ids(&db, &q, &plans.store, &plans.roots, Default::default());
        (plans.len(), rho.unwrap().boolean_score())
    };
    let (plans, rho_dr) = rho(EnumOptions {
        use_deterministic: true,
        use_fds: false,
    });
    assert_eq!(plans, 1);
    let exact = exact_answers(&db, &q).unwrap().boolean_score();
    assert!((rho_dr - exact).abs() < 1e-12);

    // Plain enumeration needs two plans but reaches the same minimum on
    // this database (Lemma 22: the T-dissociating plan is exact here).
    let (plans_plain, rho_plain) = rho(EnumOptions::default());
    assert_eq!(plans_plain, 2);
    assert!((rho_plain - exact).abs() < 1e-12);
}

/// Example 29: q :- R(x,z), S(y,u), T(z), U(u), M(x,y,z,u) has 6 minimal
/// plans (Fig. 4a); Opt 1 merges them into one plan with min operators;
/// shared views exist (Fig. 4c).
#[test]
fn example_29_optimizations() {
    let q = parse_query("q :- R(x, z), S(y, u), T(z), U(u), M(x, y, z, u)").unwrap();
    let plans = minimal_plan_set(&QueryShape::of_query(&q));
    assert_eq!(plans.len(), 6);

    let mut store = PlanStore::new();
    let sp = single_plan_id(
        &mut store,
        &q,
        &SchemaInfo::from_query(&q),
        Default::default(),
    );
    let is_min = |&id: &PlanId| matches!(store.node(id).kind, NodeKind::Min { .. });
    assert!(store.reachable(&[sp]).iter().any(is_min));
    assert!(shared_subqueries_in(&store, sp)
        .iter()
        .any(|(_, c)| *c >= 2));

    // All strategies agree on data.
    let db = lapushdb::workload::random_db_for_query(&q, 17, 6, 3, 0.8).unwrap();
    let multi = propagation_score_ids(&db, &q, &plans.store, &plans.roots, Default::default())
        .unwrap()
        .boolean_score();
    let single = eval_plan_id(
        &db,
        &q,
        &store,
        sp,
        ExecOptions {
            semantics: Semantics::Probabilistic,
            reuse_views: true,
            ..ExecOptions::default()
        },
    )
    .unwrap()
    .boolean_score();
    assert!((multi - single).abs() < 1e-12);
    let exact = exact_answers(&db, &q).unwrap().boolean_score();
    assert!(multi >= exact - 1e-12);
}

/// The q1 safe-plan example from the introduction:
/// q1(z) :- R(z,x), S(x,y), K(x,y) with P1 = π_z(R ⋈_x (π_x(S ⋈_{x,y} K))).
#[test]
fn introduction_safe_plan_example() {
    let q = parse_query("q(z) :- R(z, x), S(x, y), K(x, y)").unwrap();
    let plans = minimal_plan_set(&QueryShape::of_query(&q));
    assert_eq!(plans.len(), 1);
    let rendered = plans.store.render(plans.roots[0], &q);
    assert!(
        rendered.contains("π-[y] ⋈[S(x,y), K(x,y)]"),
        "unexpected plan {rendered}"
    );
}

/// Random-ranking baseline: MAP@10 ≈ 0.220 for 25 answers (Setup 1).
#[test]
fn random_baseline_map() {
    assert!((random_baseline_ap(25, 10) - 0.22).abs() < 1e-12);
}
