//! Lineage construction: the query's flat join, with provenance.
//!
//! Lineage is one engine join (paper Section 2: `F_{q,D} = ∨_θ θ(g₁) ∧ …
//! ∧ θ(g_m)`). Each atom's surviving rows are scanned into an engine
//! [`Rel`] that carries, besides the atom's variables, one extra column
//! naming the row's formula variable; that column makes every scan row
//! distinct, so [`rel::join_many_par`] — the evaluator's own sort-merge
//! join — yields exactly one row per join path. A row's head columns are
//! its answer, and its formula-variable columns are the implicant it
//! contributes. The join's row order does not matter: [`Dnf::new`]
//! canonicalizes implicant order. Answer keys are decoded to [`Value`]s
//! once, when the per-answer DNFs are grouped. The codec lock is held only
//! for the up-front encode and the final decode, never across the join.

use crate::formula::Dnf;
use lapush_engine::prepare::{PrepareError, ScanShape};
use lapush_engine::rel::{self, Par, Rel, Scratch};
use lapush_query::{Query, Var};
use lapush_storage::{Database, FxHashMap, TupleId, Value, Vid};
use std::fmt;

/// Lineage of one answer tuple.
#[derive(Debug, Clone)]
pub struct AnswerLineage {
    /// The answer (head variables in head order).
    pub key: Box<[Value]>,
    /// Monotone DNF over formula variables (see [`Lineage::var_tuples`]).
    pub dnf: Dnf,
}

/// Lineage of all answers of a query: a shared variable table plus one DNF
/// per answer. `P(answer) = P(dnf)` under `var_probs`.
#[derive(Debug, Clone)]
pub struct Lineage {
    /// Probability per formula variable.
    pub var_probs: Vec<f64>,
    /// Base tuple per formula variable.
    pub var_tuples: Vec<TupleId>,
    /// Per-answer lineages, sorted by answer key.
    pub answers: Vec<AnswerLineage>,
}

impl Lineage {
    /// Lineage of one answer by key.
    pub fn answer(&self, key: &[Value]) -> Option<&AnswerLineage> {
        self.answers
            .binary_search_by(|a| a.key.as_ref().cmp(key))
            .ok()
            .map(|i| &self.answers[i])
    }

    /// The Boolean query's lineage (the single empty-key answer), or an
    /// empty (false) DNF.
    #[cfg(test)]
    pub fn boolean_dnf(&self) -> Dnf {
        self.answer(&[]).map(|a| a.dnf.clone()).unwrap_or_default()
    }

    /// Maximum lineage size across answers (the paper's `max[lin]`).
    pub fn max_size(&self) -> usize {
        self.answers.iter().map(|a| a.dnf.len()).max().unwrap_or(0)
    }
}

/// Errors raised during lineage construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineageError {
    /// Atom references a missing relation.
    UnknownRelation(String),
    /// Atom/relation arity mismatch.
    AtomArity(String),
}

impl fmt::Display for LineageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LineageError::UnknownRelation(r) => write!(f, "unknown relation `{r}`"),
            LineageError::AtomArity(r) => write!(f, "arity mismatch on `{r}`"),
        }
    }
}

impl std::error::Error for LineageError {}

impl From<PrepareError> for LineageError {
    fn from(e: PrepareError) -> Self {
        match e {
            PrepareError::UnknownRelation(r) => LineageError::UnknownRelation(r),
            PrepareError::AtomArity { relation, .. } => LineageError::AtomArity(relation),
        }
    }
}

/// Build the lineage of every answer of `q` on `db` (paper Section 2:
/// `F_{q,D} = ∨_θ θ(g₁) ∧ … ∧ θ(g_m)`).
///
/// Formula variables are numbered in atom order, then storage-row order:
/// one per scanned row, which is one per distinct [`TupleId`] because the
/// query is self-join-free (no relation is scanned twice).
pub fn build_lineage(db: &Database, q: &Query) -> Result<Lineage, LineageError> {
    let prepared = lapush_engine::prepare::prepare_atoms(db, q)?;
    let mut var_probs: Vec<f64> = Vec::new();
    let mut var_tuples: Vec<TupleId> = Vec::new();
    let mut scratch = Scratch::default();
    // Atom `a`'s formula-variable column, named past the query's variables.
    let fv_var = |a: usize| Var((q.num_vars() + a) as u32);

    // Scan every atom with provenance.
    let mut scans: Vec<Rel> = Vec::with_capacity(q.atoms().len());
    for (a, (atom, prep)) in q.atoms().iter().zip(&prepared).enumerate() {
        let rel = db.relation(prep.rel);
        let shape = ScanShape::of(q, atom);
        let mut vars = shape.out_vars.clone();
        vars.push(fv_var(a));
        let mut scan = Rel::empty(vars);
        let mut row_vids: Vec<Vid> = Vec::with_capacity(scan.arity());
        prep.for_each_surviving_row(rel, &shape, |i, row| {
            let fv = var_probs.len() as Vid;
            var_probs.push(rel.prob(i));
            var_tuples.push(TupleId::new(prep.rel, i));
            row_vids.clear();
            row_vids.extend(shape.out_cols.iter().map(|&c| row[c]));
            row_vids.push(fv);
            scan.push_row(&row_vids, 1.0);
        });
        scan.canonicalize(Par::serial(), &mut scratch);
        scans.push(scan);
    }

    // One row per join path.
    let inputs: Vec<&Rel> = scans.iter().collect();
    let joined = rel::join_many_par(&inputs, Par::serial(), &mut scratch);
    let column = |v: Var| joined.col(joined.col_of(v).expect("variable bound in body"));
    let head: Vec<&[Vid]> = q.head().iter().map(|&v| column(v)).collect();
    let fvs: Vec<&[Vid]> = (0..scans.len()).map(|a| column(fv_var(a))).collect();

    // Group by head variables, decoding answer keys to values here — the
    // lineage boundary, mirroring the engine's answer-set decode (codec
    // re-locked briefly; vids are stable, so the late lookup is sound).
    let mut grouped: FxHashMap<Box<[Vid]>, Vec<Vec<u32>>> = FxHashMap::default();
    for row in 0..joined.len() {
        let key = head.iter().map(|c| c[row]).collect();
        let implicant = fvs.iter().map(|c| c[row]).collect();
        grouped.entry(key).or_default().push(implicant);
    }
    let codec = db.codec();
    let mut answers: Vec<AnswerLineage> = grouped
        .into_iter()
        .map(|(key, imps)| AnswerLineage {
            key: key.iter().map(|&v| codec.decode(v).clone()).collect(),
            dnf: Dnf::new(imps),
        })
        .collect();
    answers.sort_by(|a, b| a.key.cmp(&b.key));

    Ok(Lineage {
        var_probs,
        var_tuples,
        answers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_prob;
    use lapush_query::parse_query;
    use lapush_storage::tuple::tuple;

    fn example7_db() -> Database {
        let mut db = Database::new();
        let r = db.create_relation("R", 1).unwrap();
        let s = db.create_relation("S", 2).unwrap();
        db.relation_mut(r).push(tuple([1]), 0.5).unwrap();
        db.relation_mut(r).push(tuple([2]), 0.5).unwrap();
        db.relation_mut(s).push(tuple([1, 4]), 0.5).unwrap();
        db.relation_mut(s).push(tuple([1, 5]), 0.5).unwrap();
        db
    }

    #[test]
    fn example_7_lineage() {
        // F = R(1)S(1,4) ∨ R(1)S(1,5); P = 0.375.
        let db = example7_db();
        let q = parse_query("q :- R(x), S(x, y)").unwrap();
        let lin = build_lineage(&db, &q).unwrap();
        let f = lin.boolean_dnf();
        assert_eq!(f.len(), 2);
        assert_eq!(f.num_vars(), 3); // R(1) shared, S(1,4), S(1,5)
        assert!((exact_prob(&f, &lin.var_probs) - 0.375).abs() < 1e-12);
    }

    #[test]
    fn per_answer_lineage() {
        let db = example7_db();
        let q = parse_query("q(y) :- R(x), S(x, y)").unwrap();
        let lin = build_lineage(&db, &q).unwrap();
        assert_eq!(lin.answers.len(), 2);
        for a in &lin.answers {
            assert_eq!(a.dnf.len(), 1);
            assert!((exact_prob(&a.dnf, &lin.var_probs) - 0.25).abs() < 1e-12);
        }
        assert_eq!(lin.max_size(), 1);
    }

    #[test]
    fn example_17_lineage_probability() {
        // Ground truth from the paper: P(q) = 83/512.
        let mut db = Database::new();
        let r = db.create_relation("R", 1).unwrap();
        let s = db.create_relation("S", 1).unwrap();
        let t = db.create_relation("T", 2).unwrap();
        let u = db.create_relation("U", 1).unwrap();
        for x in [1, 2] {
            db.relation_mut(r).push(tuple([x]), 0.5).unwrap();
            db.relation_mut(s).push(tuple([x]), 0.5).unwrap();
            db.relation_mut(u).push(tuple([x]), 0.5).unwrap();
        }
        for (x, y) in [(1, 1), (1, 2), (2, 2)] {
            db.relation_mut(t).push(tuple([x, y]), 0.5).unwrap();
        }
        let q = parse_query("q :- R(x), S(x), T(x, y), U(y)").unwrap();
        let lin = build_lineage(&db, &q).unwrap();
        let f = lin.boolean_dnf();
        assert_eq!(f.len(), 3);
        assert!((exact_prob(&f, &lin.var_probs) - 83.0 / 512.0).abs() < 1e-12);
        // Formula variables in atom order, then storage-row order.
        let rows = [(r, 2), (s, 2), (t, 3), (u, 2)];
        let want: Vec<TupleId> = (rows.iter())
            .flat_map(|&(rel, n)| (0..n).map(move |row| TupleId::new(rel, row)))
            .collect();
        assert_eq!(lin.var_tuples, want);
    }

    #[test]
    fn empty_answer_set() {
        let mut db = Database::new();
        db.create_relation("R", 1).unwrap();
        db.create_relation("S", 2).unwrap();
        let q = parse_query("q :- R(x), S(x, y)").unwrap();
        let lin = build_lineage(&db, &q).unwrap();
        assert!(lin.answers.is_empty());
        assert!(lin.boolean_dnf().is_false());
    }

    #[test]
    fn predicates_restrict_lineage() {
        let db = example7_db();
        let q = parse_query("q :- R(x), S(x, y), y <= 4").unwrap();
        let lin = build_lineage(&db, &q).unwrap();
        assert_eq!(lin.boolean_dnf().len(), 1);
    }

    #[test]
    fn shared_tuple_gets_one_variable() {
        let db = example7_db();
        let q = parse_query("q :- R(x), S(x, y)").unwrap();
        let lin = build_lineage(&db, &q).unwrap();
        // R(1) occurs in both implicants but is a single formula variable;
        // R(2) is scanned (and registered) but joins nothing.
        assert_eq!(lin.var_probs.len(), 4);
        assert_eq!(lin.var_tuples.len(), 4);
        assert_eq!(lin.boolean_dnf().num_vars(), 3);
    }

    #[test]
    fn unknown_relation() {
        let db = Database::new();
        let q = parse_query("q :- Nope(x)").unwrap();
        assert!(matches!(
            build_lineage(&db, &q),
            Err(LineageError::UnknownRelation(_))
        ));
    }
}
