//! Schema knowledge in action (Section 3.3): deterministic relations and
//! functional dependencies turn #P-hard queries safe — and the enumeration
//! algorithm then returns a single exact plan.
//!
//! Run with: `cargo run --example schema_knowledge`

use lapushdb::prelude::*;
use lapushdb::storage::Fd;
use lapushdb::{exact_answers, rank_by_dissociation, OptLevel, RankOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A sensor-deployment database: Rooms is a certain (deterministic)
    // dimension table; readings are uncertain.
    let mut db = Database::new();
    let sensors = db.create_relation("Sensor", 1)?; // (sensor)
    let placed = db.create_relation("Placed", 2)?; // (sensor, room)
    let rooms = db.create_deterministic("Room", 1)?; // (room) — certain!

    for (s, p) in [(1, 0.9), (2, 0.7), (3, 0.5), (4, 0.8)] {
        db.relation_mut(sensors)
            .push(Box::new([Value::Int(s)]), p)?;
    }
    for (s, r, p) in [
        (1, 10, 0.8),
        (1, 11, 0.6),
        (2, 10, 0.9),
        (3, 12, 0.7),
        (4, 12, 0.4),
    ] {
        db.relation_mut(placed)
            .push(Box::new([Value::Int(s), Value::Int(r)]), p)?;
    }
    for r in [10, 11, 12] {
        db.relation_mut(rooms)
            .push_certain(Box::new([Value::Int(r)]))?;
    }

    // "Is some working sensor placed in some room?" — the R(x),S(x,y),T(y)
    // pattern, #P-hard in general.
    let q = parse_query("q :- Sensor(x), Placed(x, y), Room(y)")?;
    println!("query: {}", q.display());

    // Without schema knowledge: two minimal plans.
    let plain = SchemaInfo::from_query(&q);
    let plans_plain = minimal_plan_set_opts(&q, &plain, EnumOptions::default());
    println!("\nwithout schema knowledge: {} plans", plans_plain.len());
    print_plans(&plans_plain, &q);

    // With the catalog: Room is deterministic → the query is SAFE and a
    // single plan computes the exact probability (Example 23).
    let schema = SchemaInfo::from_db(&q, &db);
    let plans_dr = minimal_plan_set_opts(
        &q,
        &schema,
        EnumOptions {
            use_deterministic: true,
            use_fds: false,
        },
    );
    println!(
        "\nwith deterministic-relation knowledge: {} plan",
        plans_dr.len()
    );
    print_plans(&plans_dr, &q);

    let rho = rank_by_dissociation(
        &db,
        &q,
        RankOptions {
            opt: OptLevel::MultiPlan,
            use_schema: true,
            threads: 1,
            top_k: None,
        },
    )?
    .boolean_score();
    let exact = exact_answers(&db, &q)?.boolean_score();
    println!("\nρ(q) = {rho:.6}, P(q) = {exact:.6} (equal: query is safe with DRs)");
    assert!((rho - exact).abs() < 1e-12);

    // Functional dependencies: if each sensor sits in exactly one room
    // (Placed: sensor → room), the query is safe even with Room uncertain.
    let mut db2 = Database::new();
    let s2 = db2.create_relation("Sensor", 1)?;
    let p2 = db2.create_relation("Placed", 2)?;
    let r2 = db2.create_relation("Room", 1)?;
    for (s, p) in [(1, 0.9), (2, 0.7), (3, 0.5)] {
        db2.relation_mut(s2).push(Box::new([Value::Int(s)]), p)?;
    }
    for (s, r, p) in [(1, 10, 0.8), (2, 10, 0.9), (3, 12, 0.7)] {
        db2.relation_mut(p2)
            .push(Box::new([Value::Int(s), Value::Int(r)]), p)?;
    }
    for (r, p) in [(10, 0.6), (12, 0.5)] {
        db2.relation_mut(r2).push(Box::new([Value::Int(r)]), p)?;
    }
    db2.relation_by_name_mut("Placed")?
        .add_fd(Fd::new([0], [1]))?;
    assert!(db2
        .relation_by_name("Placed")?
        .satisfies_fd(&Fd::new([0], [1])));

    let schema_fd = SchemaInfo::from_db(&q, &db2);
    let plans_fd = minimal_plan_set_opts(&q, &schema_fd, EnumOptions::full());
    println!(
        "\nwith the FD Placed: sensor → room: {} plan",
        plans_fd.len()
    );
    print_plans(&plans_fd, &q);
    let opts = ExecOptions::default();
    let rho_fd = propagation_score_ids(&db2, &q, &plans_fd.store, &plans_fd.roots, opts)?;
    let rho_fd = rho_fd.boolean_score();
    let exact_fd = exact_answers(&db2, &q)?.boolean_score();
    println!("ρ(q) = {rho_fd:.6}, P(q) = {exact_fd:.6} (equal: safe under the FD)");
    assert!((rho_fd - exact_fd).abs() < 1e-12);
    Ok(())
}

fn print_plans(set: &PlanSet, q: &Query) {
    for &root in &set.roots {
        println!("  {}", set.store.render(root, q));
    }
}
