//! Quickstart: rank answers of a #P-hard query over an uncertain
//! knowledge base using query dissociation.
//!
//! Run with: `cargo run --example quickstart`

use lapushdb::prelude::*;
use lapushdb::{bound_answers, exact_answers, rank_by_dissociation, RankOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An uncertain movie knowledge base, as produced by an information
    // extraction pipeline: every fact carries a confidence.
    let mut db = Database::new();
    let directed = db.create_relation("Directed", 2)?; // (director, movie)
    let starred = db.create_relation("Starred", 2)?; // (movie, actor)
    let won = db.create_relation("Won", 1)?; // (actor)

    let facts: &[(&str, &str, f64)] = &[
        ("kubrick", "shining", 0.95),
        ("kubrick", "odyssey", 0.9),
        ("scott", "alien", 0.8),
        ("scott", "bladerunner", 0.7),
        ("jackson", "lotr", 0.9),
    ];
    for (d, m, p) in facts {
        db.relation_mut(directed)
            .push(Box::new([Value::str(*d), Value::str(*m)]), *p)?;
    }
    let cast: &[(&str, &str, f64)] = &[
        ("shining", "nicholson", 0.9),
        ("odyssey", "dullea", 0.6),
        ("alien", "weaver", 0.9),
        ("bladerunner", "ford", 0.85),
        ("bladerunner", "hauer", 0.8),
        ("lotr", "mckellen", 0.95),
    ];
    for (m, a, p) in cast {
        db.relation_mut(starred)
            .push(Box::new([Value::str(*m), Value::str(*a)]), *p)?;
    }
    for (a, p) in [
        ("nicholson", 0.9),
        ("weaver", 0.5),
        ("ford", 0.3),
        ("mckellen", 0.8),
        ("hauer", 0.4),
    ] {
        db.relation_mut(won).push(Box::new([Value::str(a)]), p)?;
    }

    // "Which directors made a movie starring an award winner?" — the
    // unsafe (#P-hard) pattern R(z,x), S(x,y), T(y).
    let q = parse_query("q(d) :- Directed(d, m), Starred(m, a), Won(a)")?;
    println!("query: {}\n", q.display());

    // Minimal safe dissociations / plans:
    let plans = minimal_plan_set(&QueryShape::of_query(&q));
    println!("{} minimal plans:", plans.len());
    for &root in &plans.roots {
        println!("  {}", plans.store.render(root, &q));
    }

    // Propagation score (upper bound, evaluated purely with plans):
    let rho = rank_by_dissociation(&db, &q, RankOptions::default())?;
    // Exact probabilities (exponential-time lineage oracle, for reference):
    let exact = exact_answers(&db, &q)?;

    println!("\n{:<12} {:>10} {:>10}", "director", "ρ(q)", "P(q)");
    for (key, score) in rho.ranked() {
        let name = key[0].to_string();
        println!(
            "{:<12} {:>10.6} {:>10.6}",
            name,
            score,
            exact.score_of(&key)
        );
    }
    println!("\nρ(q) ≥ P(q) for every answer (Corollary 19), and the");
    println!("ranking by ρ matches the exact ranking here.");

    // Extension: guaranteed intervals around each answer.
    let (lower, upper) = bound_answers(&db, &q)?;
    println!("\nsandwich bounds (lower = best single derivation):");
    for (key, hi) in upper.ranked() {
        println!(
            "  {:<12} [{:.6}, {:.6}]",
            key[0].to_string(),
            lower.score_of(&key),
            hi
        );
    }
    Ok(())
}
