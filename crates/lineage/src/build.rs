//! Lineage construction: the provenance-tracking deterministic join.
//!
//! The joins here run on the database's dictionary-encoded columns — the
//! same vid representation the engine executes plans on — and, like the
//! engine's columnar operators, they are **sort-merge joins**: both sides
//! are brought into join-key order (keys of up to four vids packed into
//! one `u128`, wider keys ordered as [`RowKey`]s) and matching key blocks
//! are enumerated by one linear merge. No hashing, no per-probe
//! allocation; the emitted implicant sets are identical because
//! [`crate::formula::Dnf`] canonicalizes implicant order. Answer keys are
//! decoded to [`Value`]s once, when the per-answer DNFs are grouped. The
//! codec lock is held only for the up-front encode and the final decode,
//! never across the joins.

use crate::formula::Dnf;
use lapush_engine::kernels::{self, Key};
use lapush_engine::prepare::{PrepareError, PreparedAtom, ScanShape};
use lapush_query::{Atom, Query, Var};
use lapush_storage::{Database, FxHashMap, RowKey, TupleId, Value};
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

/// Intermediate provenance relation: encoded bindings plus contributing
/// formula variables (not deduplicated — every join path is one implicant).
struct ProvRel {
    vars: Vec<Var>,
    rows: Vec<(RowKey, Vec<u32>)>,
}

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
pub fn build_lineage(db: &Database, q: &Query) -> Result<Lineage, LineageError> {
    let prepared = lapush_engine::prepare::prepare_atoms(db, q)?;
    let mut var_probs: Vec<f64> = Vec::new();
    let mut var_tuples: Vec<TupleId> = Vec::new();
    let mut tuple_to_var: FxHashMap<TupleId, u32> = FxHashMap::default();

    // Scan every atom with provenance.
    let mut scans: Vec<ProvRel> = Vec::with_capacity(q.atoms().len());
    for (atom, prep) in q.atoms().iter().zip(&prepared) {
        scans.push(scan_atom(
            db,
            prep,
            q,
            atom,
            &mut var_probs,
            &mut var_tuples,
            &mut tuple_to_var,
        ));
    }

    // Greedy connected join order.
    let mut acc = {
        let start = scans
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| r.rows.len())
            .map(|(i, _)| i)
            .expect("query has atoms");
        scans.swap_remove(start)
    };
    while !scans.is_empty() {
        let next = scans
            .iter()
            .enumerate()
            .filter(|(_, r)| r.vars.iter().any(|v| acc.vars.contains(v)))
            .min_by_key(|(_, r)| r.rows.len())
            .map(|(i, _)| i)
            .unwrap_or(0);
        let rel = scans.swap_remove(next);
        acc = prov_join(&acc, &rel);
    }

    // Group by head variables, decoding answer keys to values here — the
    // lineage boundary, mirroring the engine's answer-set decode (codec
    // re-locked briefly; vids are stable, so the late lookup is sound).
    let head_cols: Vec<usize> = q
        .head()
        .iter()
        .map(|v| {
            acc.vars
                .iter()
                .position(|u| u == v)
                .expect("head var bound in body")
        })
        .collect();
    let codec = db.codec();
    let mut grouped: FxHashMap<Box<[Value]>, Vec<Vec<u32>>> = FxHashMap::default();
    for (key, prov) in acc.rows {
        let akey: Box<[Value]> = head_cols
            .iter()
            .map(|&c| codec.decode(key.get(c)).clone())
            .collect();
        grouped.entry(akey).or_default().push(prov);
    }
    let mut answers: Vec<AnswerLineage> = grouped
        .into_iter()
        .map(|(key, imps)| AnswerLineage {
            key,
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

fn scan_atom(
    db: &Database,
    prep: &PreparedAtom,
    q: &Query,
    atom: &Atom,
    var_probs: &mut Vec<f64>,
    var_tuples: &mut Vec<TupleId>,
    tuple_to_var: &mut FxHashMap<TupleId, u32>,
) -> ProvRel {
    let rel = db.relation(prep.rel);
    let shape = ScanShape::of(q, atom);
    let mut rows = Vec::new();
    prep.for_each_surviving_row(rel, &shape, |i, row| {
        let tid = TupleId::new(prep.rel, i);
        let fv = *tuple_to_var.entry(tid).or_insert_with(|| {
            let v = var_probs.len() as u32;
            var_probs.push(rel.prob(i));
            var_tuples.push(tid);
            v
        });
        let key = RowKey::from_fn(shape.out_cols.len(), |j| row[shape.out_cols[j]]);
        rows.push((key, vec![fv]));
    });
    ProvRel {
        vars: shape.out_vars,
        rows,
    }
}

/// Merge two key-sorted `(key, row)` sequences, invoking `emit` for every
/// matching `(left row, right row)` pair — the block cross product of a
/// sort-merge join (the wide-key fallback; packed keys take
/// [`merge_matches_packed`]).
fn merge_matches<K: Ord>(lkeys: &[(K, u32)], rkeys: &[(K, u32)], mut emit: impl FnMut(u32, u32)) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < lkeys.len() && j < rkeys.len() {
        match lkeys[i].0.cmp(&rkeys[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let mut i1 = i + 1;
                while i1 < lkeys.len() && lkeys[i1].0 == lkeys[i].0 {
                    i1 += 1;
                }
                let mut j1 = j + 1;
                while j1 < rkeys.len() && rkeys[j1].0 == rkeys[j].0 {
                    j1 += 1;
                }
                for &(_, lr) in &lkeys[i..i1] {
                    for &(_, rr) in &rkeys[j..j1] {
                        emit(lr, rr);
                    }
                }
                i = i1;
                j = j1;
            }
        }
    }
}

/// [`merge_matches`] on packed [`Key`] buffers, through the engine's
/// kernel layer: mismatching sides skip ahead by galloping
/// ([`kernels::gallop_ge`]) and matching blocks are delimited by
/// run detection ([`kernels::run_end`]). Emission order is
/// identical to the linear merge — blocks are visited in key order and
/// crossed left-major.
fn merge_matches_packed(lkeys: &[Key], rkeys: &[Key], mut emit: impl FnMut(u32, u32)) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < lkeys.len() && j < rkeys.len() {
        match lkeys[i].k.cmp(&rkeys[j].k) {
            std::cmp::Ordering::Less => i = kernels::gallop_ge(lkeys, i + 1, rkeys[j].k),
            std::cmp::Ordering::Greater => j = kernels::gallop_ge(rkeys, j + 1, lkeys[i].k),
            std::cmp::Ordering::Equal => {
                let i1 = kernels::run_end(lkeys, i);
                let j1 = kernels::run_end(rkeys, j);
                for le in &lkeys[i..i1] {
                    for re in &rkeys[j..j1] {
                        emit(le.row, re.row);
                    }
                }
                i = i1;
                j = j1;
            }
        }
    }
}

/// Pack a binding's join-key vids into one `u128` (≤ 4 columns; shared
/// encoding: [`lapush_storage::pack_vids`]).
fn pack_key(key: &RowKey, cols: &[usize]) -> u128 {
    lapush_storage::pack_vids(cols.iter().map(|&c| key.get(c)))
}

fn prov_join(left: &ProvRel, right: &ProvRel) -> ProvRel {
    let shared: Vec<(usize, usize)> = left
        .vars
        .iter()
        .enumerate()
        .filter_map(|(li, v)| right.vars.iter().position(|u| u == v).map(|ri| (li, ri)))
        .collect();
    let right_only: Vec<usize> = (0..right.vars.len())
        .filter(|ri| !shared.iter().any(|&(_, r)| r == *ri))
        .collect();

    let mut out_vars = left.vars.clone();
    out_vars.extend(right_only.iter().map(|&ri| right.vars[ri]));

    let mut rows = Vec::new();
    let mut emit = |lr: u32, rr: u32| {
        let (lkey, lprov) = &left.rows[lr as usize];
        let (rkey, rprov) = &right.rows[rr as usize];
        let key: RowKey = lkey
            .iter()
            .chain(right_only.iter().map(|&c| rkey.get(c)))
            .collect();
        let mut prov = lprov.clone();
        prov.extend_from_slice(rprov);
        rows.push((key, prov));
    };
    let lcols: Vec<usize> = shared.iter().map(|&(c, _)| c).collect();
    let rcols: Vec<usize> = shared.iter().map(|&(_, c)| c).collect();
    if shared.len() <= 4 {
        // Packed-integer keys ([`Key`], the engine's sort entry): one u128
        // comparison per merge step, kernel-accelerated skip and run scan.
        let mut lkeys: Vec<Key> = left
            .rows
            .iter()
            .enumerate()
            .map(|(i, (k, _))| Key {
                k: pack_key(k, &lcols),
                row: i as u32,
            })
            .collect();
        let mut rkeys: Vec<Key> = right
            .rows
            .iter()
            .enumerate()
            .map(|(i, (k, _))| Key {
                k: pack_key(k, &rcols),
                row: i as u32,
            })
            .collect();
        lkeys.sort_unstable();
        rkeys.sort_unstable();
        merge_matches_packed(&lkeys, &rkeys, &mut emit);
    } else {
        // Wide keys: lexicographic RowKey order (see lapush_storage).
        let mut lkeys: Vec<(RowKey, u32)> = left
            .rows
            .iter()
            .enumerate()
            .map(|(i, (k, _))| (RowKey::from_fn(lcols.len(), |s| k.get(lcols[s])), i as u32))
            .collect();
        let mut rkeys: Vec<(RowKey, u32)> = right
            .rows
            .iter()
            .enumerate()
            .map(|(i, (k, _))| (RowKey::from_fn(rcols.len(), |s| k.get(rcols[s])), i as u32))
            .collect();
        lkeys.sort_unstable();
        rkeys.sort_unstable();
        merge_matches(&lkeys, &rkeys, &mut emit);
    }
    ProvRel {
        vars: out_vars,
        rows,
    }
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
