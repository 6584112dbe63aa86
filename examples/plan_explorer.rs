//! Interactive plan explorer: parse a query from the command line and
//! print its safety status, dissociation counts, all minimal plans with
//! the hash-consed DAG's sharing statistics, and the combined single plan
//! with its shared views.
//!
//! Run with:
//! `cargo run --example plan_explorer -- 'q(z) :- R(z, x), S(x, y), T(y)'`
//!
//! The output for the default query is the fenced block in
//! `docs/ARCHITECTURE.md` §3; CI's example-smoke job diffs the two.

use lapushdb::core::{
    count_all_plans, count_dissociations, count_minimal_plans, shared_subqueries_in,
};
use lapushdb::engine::plan_cost_estimates;
use lapushdb::prelude::*;
use lapushdb::query::is_hierarchical;
use lapushdb::workload::random_db_for_query;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let text = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "q :- R(x), S(x), T(x, y), U(y)".to_string());
    let q = parse_query(&text)?;
    println!("query:   {}", q.display());

    let shape = QueryShape::of_query(&q);
    let atoms = shape.all_atoms();
    let hierarchical = is_hierarchical(&shape, &atoms, shape.head);
    println!(
        "status:  {}",
        if hierarchical {
            "hierarchical — SAFE (PTIME, Dalvi-Suciu dichotomy)"
        } else {
            "not hierarchical — #P-HARD; approximating by dissociation"
        }
    );

    println!("\ncounts:");
    println!("  dissociations:          {}", count_dissociations(&shape));
    println!("  safe dissociations:     {}", count_all_plans(&shape));
    println!("  minimal plans:          {}", count_minimal_plans(&shape));

    // Plans are numbered by their position in `set.roots` (enumeration
    // order), here and in the evaluation order below.
    let set = minimal_plan_set(&shape);
    println!("\nminimal plans (each an upper bound; ρ(q) = their minimum):");
    for (i, &root) in set.roots.iter().enumerate() {
        println!("  P{}: {}", i + 1, set.store.render(root, &q));
    }

    // Hash-consing statistics: the enumerator interns structurally equal
    // subplans once, so the DAG is (much) smaller than the forest of
    // materialized plan trees.
    println!(
        "\nplan DAG: {} interned nodes vs {} materialized tree nodes ({} plans)",
        set.dag_node_count(),
        set.tree_node_count(),
        set.len()
    );

    // The engine evaluates multi-plan sets cheapest-first (reachable node
    // count × input cardinality), which is also what lets the anytime
    // top-k driver tighten its pruning threshold fastest. Cardinalities
    // come from the database, so the ordering is demonstrated against a
    // small seeded demo instance of the query's relations.
    let demo = random_db_for_query(&q, 7, 64, 8, 1.0)?;
    let mut est = plan_cost_estimates(&demo, &q, &set.store, &set.roots);
    est.sort_by_key(|&(_, cost)| cost);
    println!("\nevaluation order (cheapest-first, nodes × input rows, demo db):");
    for (rank, (root, cost)) in est.iter().enumerate() {
        let pos = set.roots.iter().position(|r| r == root).unwrap() + 1;
        println!(
            "  {}. P{pos} (cost {cost}): {}",
            rank + 1,
            set.store.render(*root, &q)
        );
    }

    let schema = SchemaInfo::from_query(&q);
    let mut sp_store = PlanStore::new();
    let sp = single_plan_id(&mut sp_store, &q, &schema, EnumOptions::default());
    println!("\nsingle plan (Optimization 1):");
    println!("  {}", sp_store.render(sp, &q));

    let shared: Vec<_> = shared_subqueries_in(&sp_store, sp)
        .into_iter()
        .filter(|(_, c)| *c >= 2)
        .collect();
    if shared.is_empty() {
        println!("\nno shared subplans (Optimization 2 adds nothing here)");
    } else {
        println!("\nshared subplans (materialized as views by Optimization 2):");
        for ((mask, head), count) in shared {
            let atom_names: Vec<&str> = q
                .atoms()
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, a)| a.relation.as_str())
                .collect();
            let head_names: Vec<&str> = head.iter().map(|v| q.var_name(v)).collect();
            println!(
                "  view over {{{}}} with head ({}) used {count}×",
                atom_names.join(", "),
                head_names.join(", ")
            );
        }
    }

    // Schema-aware enumeration if any atom is marked deterministic.
    if q.atoms().iter().any(|a| a.declared_deterministic) {
        let plans_dr = minimal_plan_set_opts(
            &q,
            &schema,
            EnumOptions {
                use_deterministic: true,
                use_fds: false,
            },
        );
        println!(
            "\nwith deterministic-relation knowledge: {} plan(s)",
            plans_dr.len()
        );
        for &root in &plans_dr.roots {
            println!("  {}", plans_dr.store.render(root, &q));
        }
    }
    Ok(())
}
