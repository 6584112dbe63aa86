//! Shared query-preparation step for dictionary-encoded execution.
//!
//! Every encoded consumer — plan evaluation, the semi-join reducer, and
//! `lapush-lineage`'s provenance scans — starts the same way: resolve each
//! atom's relation, encode it through the database's value codec, and
//! translate the atom's constant terms to vids. This module is the single
//! home of that step and of its one subtle soundness rule:
//!
//! > Constants are translated **only after every relation of the query is
//! > encoded**. An interner miss then proves the value occurs in none of
//! > them — in particular not in the filtered relation — so the scan can
//! > return no rows without ever comparing values.
//!
//! The codec lock is held only inside the `prepare_*` call; everything
//! downstream reads the returned `Arc` cells lock-free.
//!
//! This module uses only `lapush-query` and `lapush-storage` types, but it
//! lives in the engine because scan preparation *is* execution machinery:
//! the query crate stays a pure AST/analysis layer, and `lapush-lineage`
//! (whose provenance join is the engine's join) depends on the engine to
//! reach it.

use lapush_query::{Atom, Query, Term, Var};
use lapush_storage::{Database, DbCodec, DeltaBatch, RelId, Relation, Vid};
use std::sync::Arc;

/// One atom's encoded base data, read lock-free by the scans.
pub struct PreparedAtom {
    /// Resolved, arity-checked relation id.
    pub rel: RelId,
    /// Relation arity (column count of `cells` rows).
    pub arity: usize,
    /// Encoded cells, row-major (`row * arity + col`).
    pub cells: Arc<[Vid]>,
    /// Constant filters as `(column, vid)` pairs; `None` when a constant
    /// is absent from the interner (the scan then yields no rows).
    pub consts: Option<Vec<(usize, Vid)>>,
}

/// Why an atom could not be prepared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrepareError {
    /// The atom references a relation missing from the database.
    UnknownRelation(String),
    /// Arity mismatch between the atom and its relation.
    AtomArity {
        /// Relation name.
        relation: String,
        /// Columns in the stored relation.
        relation_arity: usize,
        /// Terms in the query atom.
        atom_arity: usize,
    },
}

/// Per-atom scan shape, derived from the query alone: output variables
/// (one column per first occurrence), their source columns, repeated-
/// variable equality filters, and the selection predicates that apply to
/// this atom.
pub struct ScanShape<'q> {
    /// Output variables, in first-occurrence order.
    pub out_vars: Vec<Var>,
    /// Source column of each output variable.
    pub out_cols: Vec<usize>,
    eq_filters: Vec<(usize, usize)>,
    preds: Vec<(usize, &'q lapush_query::Predicate)>,
}

impl<'q> ScanShape<'q> {
    /// Shape of one atom's scan under `q`'s predicates.
    pub fn of(q: &'q Query, atom: &Atom) -> ScanShape<'q> {
        let mut out_vars: Vec<Var> = Vec::new();
        let mut out_cols: Vec<usize> = Vec::new();
        let mut eq_filters: Vec<(usize, usize)> = Vec::new();
        for (c, term) in atom.terms.iter().enumerate() {
            match term {
                Term::Const(_) => {}
                Term::Var(v) => match out_vars.iter().position(|u| u == v) {
                    Some(first) => eq_filters.push((out_cols[first], c)),
                    None => {
                        out_vars.push(*v);
                        out_cols.push(c);
                    }
                },
            }
        }
        let preds = q
            .predicates()
            .iter()
            .filter_map(|p| {
                out_vars
                    .iter()
                    .position(|&v| v == p.var)
                    .map(|i| (out_cols[i], p))
            })
            .collect();
        ScanShape {
            out_vars,
            out_cols,
            eq_filters,
            preds,
        }
    }

    /// True when the scan passes every row through (no constant, equality,
    /// or predicate filter) — its output size is then exactly the input
    /// size, which callers may pre-allocate.
    pub fn is_unfiltered(&self, prep: &PreparedAtom) -> bool {
        self.eq_filters.is_empty()
            && self.preds.is_empty()
            && prep.consts.as_ref().is_some_and(Vec::is_empty)
    }
}

impl PreparedAtom {
    /// The encoded cells of row ordinal `i`.
    pub(crate) fn row(&self, i: u32) -> &[Vid] {
        &self.cells[i as usize * self.arity..(i as usize + 1) * self.arity]
    }

    /// Drive `emit` with `(row ordinal, encoded row)` for every row of the
    /// relation that passes the atom's constant filters and the shape's
    /// repeated-variable and predicate filters. Emits nothing when a
    /// constant is unseen by the interner. `rel` must be the relation this
    /// atom was prepared from (it supplies stored values for predicate
    /// evaluation, which is not id-representable).
    ///
    /// This is the one copy of the encoded row-filter loop shared by plan
    /// scans, the semi-join reducer, and lineage construction.
    pub fn for_each_surviving_row(
        &self,
        rel: &Relation,
        shape: &ScanShape<'_>,
        mut emit: impl FnMut(u32, &[Vid]),
    ) {
        let Some(const_vids) = &self.consts else {
            return;
        };
        'rows: for i in 0..rel.len() {
            let row = self.row(i as u32);
            for &(c, vid) in const_vids {
                if row[c] != vid {
                    continue 'rows;
                }
            }
            for &(c1, c2) in &shape.eq_filters {
                if row[c1] != row[c2] {
                    continue 'rows;
                }
            }
            if !shape.preds.is_empty() {
                let values = rel.row(i as u32);
                for &(c, p) in &shape.preds {
                    if !p.op.eval(&values[c], &p.value) {
                        continue 'rows;
                    }
                }
            }
            emit(i as u32, row);
        }
    }

    /// [`PreparedAtom::for_each_surviving_row`] over a [`DeltaBatch`]
    /// instead of the full relation: drive `emit` with
    /// `(base row ordinal, encoded row)` for every batch row passing the
    /// same constant, repeated-variable, and predicate filters. Batch rows
    /// are visited in batch (sorted) order. `rel` must be the relation the
    /// batch was built from.
    pub fn for_each_surviving_delta_row(
        &self,
        rel: &Relation,
        batch: &DeltaBatch,
        shape: &ScanShape<'_>,
        mut emit: impl FnMut(u32, &[Vid]),
    ) {
        let Some(const_vids) = &self.consts else {
            return;
        };
        let arity = self.arity;
        let mut row: Vec<Vid> = vec![0; arity];
        'rows: for i in 0..batch.len() {
            for (c, slot) in row.iter_mut().enumerate() {
                *slot = batch.cell(i, c);
            }
            for &(c, vid) in const_vids {
                if row[c] != vid {
                    continue 'rows;
                }
            }
            for &(c1, c2) in &shape.eq_filters {
                if row[c1] != row[c2] {
                    continue 'rows;
                }
            }
            let ordinal = batch.ordinal(i);
            if !shape.preds.is_empty() {
                let values = rel.row(ordinal);
                for &(c, p) in &shape.preds {
                    if !p.op.eval(&values[c], &p.value) {
                        continue 'rows;
                    }
                }
            }
            emit(ordinal, &row);
        }
    }
}

fn prepare_one(
    db: &Database,
    codec: &mut DbCodec<'_>,
    atom: &lapush_query::Atom,
) -> Result<PreparedAtom, PrepareError> {
    let rel_id = db
        .rel_id(&atom.relation)
        .map_err(|_| PrepareError::UnknownRelation(atom.relation.clone()))?;
    let rel = db.relation(rel_id);
    if rel.arity() != atom.terms.len() {
        return Err(PrepareError::AtomArity {
            relation: atom.relation.clone(),
            relation_arity: rel.arity(),
            atom_arity: atom.terms.len(),
        });
    }
    Ok(PreparedAtom {
        rel: rel_id,
        arity: rel.arity(),
        cells: codec.encoded(rel_id),
        consts: None,
    })
}

fn translate_consts(codec: &DbCodec<'_>, atom: &lapush_query::Atom) -> Option<Vec<(usize, Vid)>> {
    let mut consts = Vec::new();
    for (c, term) in atom.terms.iter().enumerate() {
        if let Term::Const(v) = term {
            consts.push((c, codec.vid_of(v)?));
        }
    }
    Some(consts)
}

/// Resolve and encode every atom of the query under one short-lived codec
/// lock, failing on the first unpreparable atom.
pub fn prepare_atoms(db: &Database, q: &Query) -> Result<Vec<PreparedAtom>, PrepareError> {
    let mut codec = db.codec();
    let mut atoms: Vec<PreparedAtom> = q
        .atoms()
        .iter()
        .map(|atom| prepare_one(db, &mut codec, atom))
        .collect::<Result<_, _>>()?;
    for (atom, prep) in q.atoms().iter().zip(&mut atoms) {
        prep.consts = translate_consts(&codec, atom);
    }
    Ok(atoms)
}

/// Lenient variant for the semi-join reducer: an unpreparable atom becomes
/// `None` (it simply has no surviving rows) instead of an error.
pub fn prepare_atoms_lenient(db: &Database, q: &Query) -> Vec<Option<PreparedAtom>> {
    let mut codec = db.codec();
    let mut atoms: Vec<Option<PreparedAtom>> = q
        .atoms()
        .iter()
        .map(|atom| prepare_one(db, &mut codec, atom).ok())
        .collect();
    for (atom, prep) in q.atoms().iter().zip(&mut atoms) {
        if let Some(prep) = prep.as_mut() {
            prep.consts = translate_consts(&codec, atom);
        }
    }
    atoms
}

#[cfg(test)]
mod tests {
    use super::*;
    use lapush_query::parse_query;
    use lapush_storage::tuple::tuple;

    fn db() -> Database {
        let mut db = Database::new();
        let r = db.create_relation("R", 2).unwrap();
        db.relation_mut(r).push(tuple([1, 2]), 0.5).unwrap();
        db
    }

    #[test]
    fn strict_prepare_reports_missing_and_mismatched() {
        let db = db();
        let q = parse_query("q :- Z(x)").unwrap();
        assert!(matches!(
            prepare_atoms(&db, &q),
            Err(PrepareError::UnknownRelation(_))
        ));
        let q = parse_query("q :- R(x)").unwrap();
        assert!(matches!(
            prepare_atoms(&db, &q),
            Err(PrepareError::AtomArity { .. })
        ));
    }

    #[test]
    fn lenient_prepare_yields_none_for_bad_atoms() {
        let db = db();
        let q = parse_query("q :- R(x, y), Z(y)").unwrap();
        let preps = prepare_atoms_lenient(&db, &q);
        assert!(preps[0].is_some());
        assert!(preps[1].is_none());
    }

    #[test]
    fn known_and_unknown_constants() {
        let db = db();
        let q = parse_query("q :- R(1, y)").unwrap();
        let preps = prepare_atoms(&db, &q).unwrap();
        assert_eq!(preps[0].consts.as_ref().map(Vec::len), Some(1));
        let q = parse_query("q :- R(9, y)").unwrap();
        let preps = prepare_atoms(&db, &q).unwrap();
        assert!(preps[0].consts.is_none());
    }
}
