//! Shared helpers for integration tests.

// Every test binary compiles this module and uses only some of it.
#![allow(dead_code)]

pub mod agree;
pub mod oracle;

use lapushdb::core::Dissociation;
use lapushdb::query::{Query, QueryBuilder, Term, Var};
use lapushdb::storage::{Database, Value};

/// Materialize a dissociation per Definition 10 of the paper: build the
/// dissociated query `q^Δ` (each atom extended with its `yᵢ` variables) and
/// the dissociated database `D^Δ` (each tuple copied once per combination
/// of active-domain values of the added variables, keeping its original
/// probability).
pub fn materialize_dissociation(
    db: &Database,
    q: &Query,
    delta: &Dissociation,
) -> (Database, Query) {
    // Active domain per variable: union of column values over atoms using
    // the variable.
    let adom = |v: Var| -> Vec<Value> {
        let mut vals: Vec<Value> = Vec::new();
        for atom in q.atoms() {
            let Ok(rel) = db.relation_by_name(&atom.relation) else {
                continue;
            };
            for (c, term) in atom.terms.iter().enumerate() {
                if *term == Term::Var(v) {
                    for (_, row, _) in rel.iter() {
                        if !vals.contains(&row[c]) {
                            vals.push(row[c].clone());
                        }
                    }
                }
            }
        }
        vals.sort();
        vals
    };

    let mut new_db = Database::new();
    let mut builder = QueryBuilder::new(q.name());
    let head_names: Vec<String> = q
        .head()
        .iter()
        .map(|&v| q.var_name(v).to_string())
        .collect();
    let head_refs: Vec<&str> = head_names.iter().map(String::as_str).collect();
    builder = builder.head(&head_refs);

    for (i, atom) in q.atoms().iter().enumerate() {
        let ys: Vec<Var> = delta.0[i].iter().collect();
        let new_name = format!("{}__d{i}", atom.relation);
        let rel = db
            .relation_by_name(&atom.relation)
            .expect("relation exists");

        // New terms: original + added variables.
        let mut terms: Vec<Term> = atom.terms.clone();
        terms.extend(ys.iter().map(|&y| Term::Var(y)));

        // Cartesian product of active domains of the added variables.
        let domains: Vec<Vec<Value>> = ys.iter().map(|&y| adom(y)).collect();
        let mut combos: Vec<Vec<Value>> = vec![Vec::new()];
        for dom in &domains {
            let mut next = Vec::new();
            for c in &combos {
                for val in dom {
                    let mut cc = c.clone();
                    cc.push(val.clone());
                    next.push(cc);
                }
            }
            combos = next;
        }

        let new_rel = new_db
            .create_relation(&new_name, rel.arity() + ys.len())
            .expect("fresh name");
        for (_, row, p) in rel.iter() {
            for combo in &combos {
                let mut new_row: Vec<Value> = row.to_vec();
                new_row.extend(combo.iter().cloned());
                new_db
                    .relation_mut(new_rel)
                    .push(new_row.into_boxed_slice(), p)
                    .expect("valid row");
            }
        }

        // Rebuild the atom in the new query with interned variable names.
        let term_strs: Vec<Term> = terms
            .iter()
            .map(|t| match t {
                Term::Var(v) => Term::Var(builder.var(q.var_name(*v))),
                Term::Const(c) => Term::Const(c.clone()),
            })
            .collect();
        builder = builder.atom_terms(&new_name, term_strs);
    }
    // Predicates carry over (they reference original variables by name).
    for p in q.predicates() {
        builder = builder.pred(q.var_name(p.var), p.op, p.value.clone());
    }
    (new_db, builder.build().expect("valid dissociated query"))
}
