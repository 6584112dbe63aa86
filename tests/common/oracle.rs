//! The test oracle: a deliberately naive evaluator that shares no code
//! with the engine.
//!
//! It reads the stored `Value` rows of each relation and nothing else —
//! no dictionary, no sort-merge, no hashing. Every intermediate is a
//! [`Table`]: its variables in ascending order and a `BTreeMap` from each
//! distinct row to its score. A join is a nested loop that extends one
//! variable binding input by input; a projection folds each group's
//! scores in ascending order. From the engine it takes only the two types its
//! answers are stated in, [`AnswerSet`] and [`Semantics`];
//! `columnar_equivalence.rs::oracle_shares_no_code_with_the_engine` keeps
//! it that way.
//!
//! [`exact`] answers every possible world with the same loops, so the
//! `P(q)` it returns shares nothing with lineage construction or model
//! counting either.

use std::collections::BTreeMap;

use lapushdb::core::{NodeKind, PlanId, PlanStore};
use lapushdb::engine::{AnswerSet, Semantics};
use lapushdb::query::{Query, Term, Var};
use lapushdb::storage::{Database, Value};

/// The most tuples [`exact`] enumerates the possible worlds of.
const MAX_WORLD_TUPLES: usize = 16;

/// The tuples each atom reads, as `(row, probability)`, atom by atom.
type Rows<'a> = Vec<Vec<(&'a [Value], f64)>>;

/// An intermediate relation: variables ascending, one score per row.
struct Table {
    vars: Vec<Var>,
    rows: BTreeMap<Vec<Value>, f64>,
}

fn stored_rows<'a>(db: &'a Database, q: &Query) -> Rows<'a> {
    (q.atoms().iter())
        .map(|atom| {
            let rel = db.relation_by_name(&atom.relation).expect("relation");
            rel.iter().map(|(_, row, p)| (row, p)).collect()
        })
        .collect()
}

/// The rows of atom `i` that match its constants, repeated variables and
/// the query's predicates, bound to the atom's variables.
fn scan(q: &Query, i: usize, rows: &Rows, sem: Semantics) -> Table {
    let terms = &q.atoms()[i].terms;
    let mut vars: Vec<Var> = (terms.iter())
        .filter_map(|t| match t {
            Term::Var(v) => Some(*v),
            Term::Const(_) => None,
        })
        .collect();
    vars.sort();
    vars.dedup();
    let mut out = BTreeMap::new();
    'rows: for &(row, p) in &rows[i] {
        let mut binding: Vec<Option<&Value>> = vec![None; vars.len()];
        for (term, val) in terms.iter().zip(row) {
            match term {
                Term::Const(c) if c != val => continue 'rows,
                Term::Const(_) => {}
                Term::Var(v) => {
                    let slot = &mut binding[vars.binary_search(v).expect("atom var")];
                    if slot.is_some_and(|b| b != val) {
                        continue 'rows;
                    }
                    *slot = Some(val);
                }
            }
        }
        for pred in q.predicates() {
            if let Ok(c) = vars.binary_search(&pred.var) {
                if !pred.op.eval(binding[c].expect("bound"), &pred.value) {
                    continue 'rows;
                }
            }
        }
        let score = match sem {
            Semantics::Probabilistic => p,
            Semantics::Deterministic => 1.0,
        };
        out.insert(
            binding
                .into_iter()
                .map(|v| v.expect("bound").clone())
                .collect(),
            score,
        );
    }
    Table { vars, rows: out }
}

/// Natural join of all inputs: scores multiply in input order.
fn join(inputs: &[Table]) -> Table {
    let mut vars: Vec<Var> = inputs.iter().flat_map(|t| t.vars.clone()).collect();
    vars.sort();
    vars.dedup();
    let mut rows = BTreeMap::new();
    let mut binding = vec![None; vars.len()];
    visit(inputs, &vars, &mut binding, 1.0, &mut rows);
    Table { vars, rows }
}

/// Extend `binding` by every row of the first input that agrees with it,
/// then recurse into the rest; a complete binding is one output row.
fn visit(
    inputs: &[Table],
    vars: &[Var],
    binding: &mut Vec<Option<Value>>,
    score: f64,
    out: &mut BTreeMap<Vec<Value>, f64>,
) {
    let Some((first, rest)) = inputs.split_first() else {
        let row = binding.iter().map(|v| v.clone().expect("bound")).collect();
        out.insert(row, score);
        return;
    };
    let cols: Vec<usize> = (first.vars.iter())
        .map(|v| vars.binary_search(v).expect("join var"))
        .collect();
    for (row, &s) in &first.rows {
        let agrees =
            (cols.iter().zip(row)).all(|(&c, val)| binding[c].as_ref().map_or(true, |b| b == val));
        if !agrees {
            continue;
        }
        let saved = binding.clone();
        for (&c, val) in cols.iter().zip(row) {
            binding[c] = Some(val.clone());
        }
        visit(rest, vars, binding, score * s, out);
        *binding = saved;
    }
}

/// Independent-OR per group of `keep` (ascending): `1 − Π(1 − s)`, the
/// group's scores taken in ascending order — the documented fold order,
/// which makes a score a function of the group's scores alone. On 0/1
/// scores this is duplicate elimination.
fn project(input: &Table, keep: &[Var]) -> Table {
    let cols: Vec<usize> = (keep.iter())
        .map(|v| input.vars.binary_search(v).expect("projection var"))
        .collect();
    let mut groups: BTreeMap<Vec<Value>, Vec<f64>> = BTreeMap::new();
    for (row, &s) in &input.rows {
        let group = cols.iter().map(|&c| row[c].clone()).collect();
        groups.entry(group).or_default().push(s);
    }
    let fold = |mut scores: Vec<f64>| {
        scores.sort_by(|a, b| a.partial_cmp(b).expect("scores are numbers"));
        1.0 - scores.iter().fold(1.0, |none, s| none * (1.0 - s))
    };
    let rows = groups.into_iter().map(|(g, s)| (g, fold(s))).collect();
    Table {
        vars: keep.to_vec(),
        rows,
    }
}

/// Per row, the minimum score over the inputs that hold it.
fn min(inputs: Vec<Table>) -> Table {
    let mut inputs = inputs.into_iter();
    let mut acc = inputs.next().expect("min input");
    for t in inputs {
        assert_eq!(t.vars, acc.vars, "min inputs compute one subquery");
        for (row, s) in t.rows {
            let cur = acc.rows.entry(row).or_insert(s);
            *cur = cur.min(s);
        }
    }
    acc
}

fn eval_node(q: &Query, rows: &Rows, store: &PlanStore, id: PlanId, sem: Semantics) -> Table {
    let node = store.node(id);
    let mut inputs = (node.kind.inputs().iter()).map(|&c| eval_node(q, rows, store, c, sem));
    match &node.kind {
        NodeKind::Scan { atom } => scan(q, *atom, rows, sem),
        NodeKind::Project { .. } => {
            let keep: Vec<Var> = node.head.iter().collect();
            project(&inputs.next().expect("project input"), &keep)
        }
        NodeKind::Join { .. } => join(&inputs.collect::<Vec<_>>()),
        NodeKind::Min { .. } => min(inputs.collect()),
    }
}

/// The query's answers as a flat join of every atom, projected to the
/// head with duplicate elimination (every score 1).
fn flat(q: &Query, rows: &Rows) -> Table {
    let scans: Vec<Table> = (0..q.atoms().len())
        .map(|i| scan(q, i, rows, Semantics::Deterministic))
        .collect();
    let mut head = q.head().to_vec();
    head.sort();
    project(&join(&scans), &head)
}

fn to_answers(q: &Query, t: Table) -> AnswerSet {
    let cols: Vec<usize> = (q.head().iter())
        .map(|v| t.vars.binary_search(v).expect("head var"))
        .collect();
    let rows = (t.rows.into_iter())
        .map(|(row, s)| (cols.iter().map(|&c| row[c].clone()).collect(), s))
        .collect();
    AnswerSet {
        vars: q.head().to_vec(),
        rows,
    }
}

/// One plan of the store evaluated under one semantics.
pub fn eval_plan(
    db: &Database,
    q: &Query,
    store: &PlanStore,
    id: PlanId,
    sem: Semantics,
) -> AnswerSet {
    to_answers(q, eval_node(q, &stored_rows(db, q), store, id, sem))
}

/// The per-answer minimum of answer sets over the same head. An answer
/// missing from a set does not lower the minimum.
pub fn min_over(sets: impl IntoIterator<Item = AnswerSet>) -> AnswerSet {
    let mut sets = sets.into_iter();
    let mut acc = sets.next().expect("at least one answer set");
    for other in sets {
        assert_eq!(acc.vars, other.vars);
        for (k, s) in other.rows {
            let cur = acc.rows.entry(k).or_insert(s);
            *cur = cur.min(s);
        }
    }
    acc
}

/// The propagation score `ρ`: per answer, the minimum over the plans.
pub fn propagation(db: &Database, q: &Query, store: &PlanStore, roots: &[PlanId]) -> AnswerSet {
    min_over((roots.iter()).map(|&p| eval_plan(db, q, store, p, Semantics::Probabilistic)))
}

/// The deterministic SQL baseline: the distinct answers, each scored 1.
pub fn sql(db: &Database, q: &Query) -> AnswerSet {
    to_answers(q, flat(q, &stored_rows(db, q)))
}

/// The exact `P(q)` of every answer, summed over the possible worlds:
/// each subset of the tuples is one world, weighted by `p` for every
/// tuple in it and `1 − p` for every tuple not in it, and each answer
/// gains the weight of every world whose own flat join returns it.
///
/// Only tuples that take part in some derivation are enumerated; the
/// others cannot change any world's answers and sum out to weight 1.
/// Panics when more than [`MAX_WORLD_TUPLES`] of them remain.
pub fn exact(db: &Database, q: &Query) -> AnswerSet {
    let all = stored_rows(db, q);
    let mut tuples: Vec<(usize, &[Value], f64)> = Vec::new();
    for (i, atom_rows) in all.iter().enumerate() {
        for &(row, p) in atom_rows {
            let mut alone = all.clone();
            alone[i] = vec![(row, p)];
            if !flat(q, &alone).rows.is_empty() {
                tuples.push((i, row, p));
            }
        }
    }
    assert!(
        tuples.len() <= MAX_WORLD_TUPLES,
        "{} tuples take part in a derivation, too many worlds",
        tuples.len()
    );
    let mut answers = flat(q, &all);
    answers.rows.values_mut().for_each(|p| *p = 0.0);
    for world in 0u32..1 << tuples.len() {
        let mut rows: Rows = vec![Vec::new(); all.len()];
        let mut weight = 1.0;
        for (bit, &(i, row, p)) in tuples.iter().enumerate() {
            if world >> bit & 1 == 1 {
                rows[i].push((row, p));
                weight *= p;
            } else {
                weight *= 1.0 - p;
            }
        }
        for answer in flat(q, &rows).rows.into_keys() {
            *answers.rows.get_mut(&answer).expect("monotone query") += weight;
        }
    }
    to_answers(q, answers)
}
