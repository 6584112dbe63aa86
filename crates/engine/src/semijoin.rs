//! Optimization 3: deterministic semi-join reduction (Section 4.3).
//!
//! Before probabilistic evaluation, reduce every base relation to the tuples
//! that can possibly contribute to an answer: apply the query's constant and
//! predicate selections, then run semi-join passes between atoms sharing
//! variables until a fixpoint. The expensive probabilistic group-bys then
//! run on (often much) smaller inputs. For acyclic queries this is a full
//! reducer (Yannakakis); for cyclic queries it is still a sound filter.
//!
//! The passes run on the database's dictionary-encoded columns and are
//! merge-based, mirroring the engine's sort-merge operators: each pass
//! sorts the reducing atom's distinct join keys once (vids packed into one
//! `u128` for keys of up to four columns; beyond that, the reducing atom's
//! row ids, ordered by their key columns compared in place) and tests
//! membership by binary search — no hashing, no per-row allocation.
//! The codec lock is held only while the query's relations are encoded up
//! front; the passes themselves run lock-free on the shared encoded cells.

use crate::prepare::{prepare_atoms_lenient, PreparedAtom, ScanShape};
use lapush_query::{Atom, Query, Term, Var};
use lapush_storage::{Database, Vid};

/// Reduce the database for the given query. Returns a new database holding,
/// for every relation mentioned by the query, only the tuples that survive
/// selection and semi-join reduction. Relations not mentioned by the query
/// are copied unchanged.
pub fn reduce_database(db: &Database, q: &Query) -> Database {
    // An unpreparable atom (missing relation / wrong arity) has no
    // surviving rows; evaluation will report the error downstream.
    let preps = prepare_atoms_lenient(db, q);
    let preps: Vec<Option<&PreparedAtom>> = preps.iter().map(Option::as_ref).collect();
    let survivors = reduce_rows(db, q, &preps, &[]);

    // Build the reduced database. Queries are self-join-free (enforced by
    // the AST: relation names are unique per query), so a relation maps to
    // at most one atom and its survivor set.
    let mut out = Database::new();
    for (_, rel) in db.relations() {
        let atom_idx = q.atoms().iter().position(|a| a.relation == rel.name());
        let mut new_rel = if rel.is_deterministic() {
            lapush_storage::Relation::deterministic(rel.name(), rel.arity())
        } else {
            lapush_storage::Relation::new(rel.name(), rel.arity())
        };
        for fd in rel.fds() {
            new_rel
                .add_fd(fd.clone())
                .expect("FD valid on original relation");
        }
        match atom_idx {
            Some(i) => {
                for &row in &survivors[i] {
                    new_rel
                        .push(rel.row(row).to_vec().into_boxed_slice(), rel.prob(row))
                        .expect("row valid on original relation");
                }
            }
            None => {
                for (_, row, p) in rel.iter() {
                    new_rel
                        .push(row.to_vec().into_boxed_slice(), p)
                        .expect("row valid on original relation");
                }
            }
        }
        out.add_relation(new_rel)
            .expect("names unique in source db");
    }
    out
}

/// The reducer itself: per atom, the ordinals of the rows that survive
/// selection and semi-join reduction, ascending. `allowed` seeds the
/// reduction with per-variable value restrictions — sorted vid lists a
/// row's binding must occur in (none for Optimization 3; the surviving
/// answer groups' head values for the top-k driver, which evaluates the
/// remaining plans over the returned lists) — and the semi-join passes
/// between atoms sharing variables then run to a fixpoint, so a
/// restriction propagates through join variables into atoms that hold no
/// restricted variable at all.
///
/// A removed row has, for some atom sharing variables with its own, no
/// partner among that atom's survivors, so it takes part in no full join
/// of surviving rows.
pub(crate) fn reduce_rows(
    db: &Database,
    q: &Query,
    preps: &[Option<&PreparedAtom>],
    allowed: &[(Var, Vec<Vid>)],
) -> Vec<Vec<u32>> {
    let atoms = q.atoms();
    let mut survivors: Vec<Vec<u32>> = (atoms.iter().zip(preps))
        .map(|(atom, prep)| initial_survivors(db, q, atom, *prep, allowed))
        .collect();
    loop {
        let mut changed = false;
        // Smallest reducer first: a pass sorts the reducing atom's keys, so
        // letting the short lists shrink the long ones before those reduce
        // anything keeps every sort small. (The fixpoint does not depend on
        // the order.)
        let mut reducers: Vec<usize> = (0..atoms.len()).collect();
        reducers.sort_by_key(|&j| survivors[j].len());
        for j in reducers {
            for i in 0..atoms.len() {
                let shared = shared_vars(&atoms[i], &atoms[j]);
                if i != j && !shared.is_empty() {
                    changed |= semijoin_pass(preps, i, j, &shared, &mut survivors);
                }
            }
        }
        if !changed {
            return survivors;
        }
    }
}

/// Rows of the atom's relation passing its constant/equality/predicate
/// filters and the `allowed` value lists of its variables.
///
/// Constant and repeated-variable filters compare vids on the encoded
/// columns; order/pattern predicates run on the stored values.
fn initial_survivors(
    db: &Database,
    q: &Query,
    atom: &Atom,
    prep: Option<&PreparedAtom>,
    allowed: &[(Var, Vec<Vid>)],
) -> Vec<u32> {
    let Some(prep) = prep else {
        return Vec::new();
    };
    let rel = db.relation(prep.rel);
    let shape = ScanShape::of(q, atom);
    let checks: Vec<(usize, &[Vid])> = (shape.out_vars.iter().zip(&shape.out_cols))
        .filter_map(|(v, &c)| {
            let (_, vids) = allowed.iter().find(|(u, _)| u == v)?;
            Some((c, vids.as_slice()))
        })
        .collect();
    let mut out = Vec::new();
    prep.for_each_surviving_row(rel, &shape, |i, row| {
        if checks
            .iter()
            .all(|(c, vids)| vids.binary_search(&row[*c]).is_ok())
        {
            out.push(i);
        }
    });
    out
}

/// Shared variables between two atoms, as (column in a, column in b) pairs
/// over first occurrences.
fn shared_vars(a: &Atom, b: &Atom) -> Vec<(usize, usize)> {
    let first_cols = |atom: &Atom| {
        let mut m: Vec<(Var, usize)> = Vec::new();
        for (c, t) in atom.terms.iter().enumerate() {
            if let Term::Var(v) = t {
                if !m.iter().any(|(u, _)| u == v) {
                    m.push((*v, c));
                }
            }
        }
        m
    };
    let ca = first_cols(a);
    let cb = first_cols(b);
    ca.iter()
        .filter_map(|&(v, c1)| cb.iter().find(|&&(u, _)| u == v).map(|&(_, c2)| (c1, c2)))
        .collect()
}

/// Pack a row's shared-variable vids into one `u128` (up to four columns;
/// shared encoding: [`lapush_storage::pack_vids`]).
#[inline]
fn pack_key(row: &[Vid], cols: impl Iterator<Item = usize>) -> u128 {
    lapush_storage::pack_vids(cols.map(|c| row[c]))
}

/// One semi-join pass: keep rows of atom `i` whose shared-variable vids
/// appear in atom `j`'s surviving rows. Returns true if `i` shrank.
///
/// Merge-based: atom `j`'s distinct keys are sorted once and atom `i`'s
/// rows are kept by binary search — integer comparisons only.
fn semijoin_pass(
    preps: &[Option<&PreparedAtom>],
    i: usize,
    j: usize,
    shared: &[(usize, usize)],
    survivors: &mut [Vec<u32>],
) -> bool {
    if survivors[i].is_empty() {
        return false;
    }
    if survivors[j].is_empty() {
        survivors[i].clear();
        return true;
    }
    // Non-empty survivor lists imply the atoms were prepared.
    let pi = preps[i].expect("survivors imply prepared atom");
    let pj = preps[j].expect("survivors imply prepared atom");

    let before = survivors[i].len();
    if shared.len() <= 4 {
        let mut keys_j: Vec<u128> = survivors[j]
            .iter()
            .map(|&r| pack_key(pj.row(r), shared.iter().map(|&(_, c)| c)))
            .collect();
        keys_j.sort_unstable();
        keys_j.dedup();
        survivors[i].retain(|&r| {
            let key = pack_key(pi.row(r), shared.iter().map(|&(c, _)| c));
            keys_j.binary_search(&key).is_ok()
        });
    } else {
        // Wider keys: atom `j`'s survivor row ids sorted and deduplicated
        // by their key columns, which every comparison reads in place.
        let key_j = |r: u32| {
            let row = pj.row(r);
            shared.iter().map(move |&(_, c)| row[c])
        };
        let mut rows_j = survivors[j].clone();
        rows_j.sort_unstable_by(|&a, &b| key_j(a).cmp(key_j(b)));
        rows_j.dedup_by(|a, b| key_j(*a).eq(key_j(*b)));
        survivors[i].retain(|&r| {
            let row = pi.row(r);
            let key_i = shared.iter().map(|&(c, _)| row[c]);
            rows_j
                .binary_search_by(|&rj| key_j(rj).cmp(key_i.clone()))
                .is_ok()
        });
    }
    survivors[i].len() != before
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::propagation_score_ids;
    use crate::topk::propagation_score_topk;
    use lapush_core::minimal_plan_set;
    use lapush_query::{parse_query, QueryShape};
    use lapush_storage::tuple::tuple;
    use lapush_storage::Value;

    fn chain_db() -> Database {
        let mut db = Database::new();
        let r = db.create_relation("R", 2).unwrap();
        let s = db.create_relation("S", 2).unwrap();
        let t = db.create_relation("T", 2).unwrap();
        // R rows; only (1,10) continues through S and T.
        db.relation_mut(r).push(tuple([1, 10]), 0.5).unwrap();
        db.relation_mut(r).push(tuple([2, 99]), 0.5).unwrap();
        db.relation_mut(s).push(tuple([10, 100]), 0.5).unwrap();
        db.relation_mut(s).push(tuple([11, 100]), 0.5).unwrap();
        db.relation_mut(t).push(tuple([100, 7]), 0.5).unwrap();
        db.relation_mut(t).push(tuple([200, 8]), 0.5).unwrap();
        db
    }

    #[test]
    fn reduction_removes_dangling_tuples() {
        let db = chain_db();
        let q = parse_query("q(a, d) :- R(a, b), S(b, c), T(c, d)").unwrap();
        let red = reduce_database(&db, &q);
        assert_eq!(red.relation_by_name("R").unwrap().len(), 1);
        assert_eq!(red.relation_by_name("S").unwrap().len(), 1);
        assert_eq!(red.relation_by_name("T").unwrap().len(), 1);
    }

    #[test]
    fn reduction_preserves_scores() {
        let db = chain_db();
        let q = parse_query("q(a, d) :- R(a, b), S(b, c), T(c, d)").unwrap();
        let set = minimal_plan_set(&QueryShape::of_query(&q));
        let rho = |db| propagation_score_ids(db, &q, &set.store, &set.roots, Default::default());
        let full = rho(&db).unwrap();
        let red = reduce_database(&db, &q);
        let reduced = rho(&red).unwrap();
        assert_eq!(full.len(), reduced.len());
        for (k, &v) in &full.rows {
            assert!((reduced.score_of(k) - v).abs() < 1e-12);
        }
    }

    #[test]
    fn reduction_applies_predicates() {
        let db = chain_db();
        let q = parse_query("q(a, d) :- R(a, b), S(b, c), T(c, d), a <= 0").unwrap();
        let red = reduce_database(&db, &q);
        assert_eq!(red.relation_by_name("R").unwrap().len(), 0);
        // Semi-joins propagate the emptiness.
        assert_eq!(red.relation_by_name("S").unwrap().len(), 0);
        assert_eq!(red.relation_by_name("T").unwrap().len(), 0);
    }

    #[test]
    fn unrelated_relations_copied() {
        let mut db = chain_db();
        let z = db.create_relation("Z", 1).unwrap();
        db.relation_mut(z).push(tuple([42]), 0.25).unwrap();
        let q = parse_query("q(a, d) :- R(a, b), S(b, c), T(c, d)").unwrap();
        let red = reduce_database(&db, &q);
        assert_eq!(red.relation_by_name("Z").unwrap().len(), 1);
        assert_eq!(red.relation_by_name("Z").unwrap().prob(0), 0.25);
    }

    /// `R` and `S` share five variables (`a`–`e`), one more than a packed
    /// key holds; `R`'s row 1 and `S`'s row 3 dangle (each differs from
    /// every partner in one of `e` or `d` alone).
    fn wide_db() -> Database {
        let mut db = Database::new();
        let r = db.create_relation("R", 6).unwrap();
        let s = db.create_relation("S", 6).unwrap();
        let t = db.create_relation("T", 1).unwrap();
        let rows = [
            (r, [1, 1, 1, 1, 1, 7], 0.9),
            (r, [1, 1, 1, 1, 2, 7], 0.9),
            (r, [2, 1, 1, 1, 1, 8], 0.2),
            (r, [1, 1, 1, 1, 1, 9], 0.1),
            (s, [1, 1, 1, 1, 1, 3], 0.9),
            (s, [1, 1, 1, 1, 1, 4], 0.8),
            (s, [2, 1, 1, 1, 1, 3], 0.2),
            (s, [1, 1, 1, 2, 1, 3], 0.9),
        ];
        for (rel, row, p) in rows {
            db.relation_mut(rel).push(tuple(row), p).unwrap();
        }
        db.relation_mut(t).push(tuple([3]), 0.9).unwrap();
        db.relation_mut(t).push(tuple([4]), 0.8).unwrap();
        db
    }

    #[test]
    fn wide_keys_drop_exactly_the_dangling_rows() {
        let db = wide_db();
        let q = parse_query("q(a, f) :- R(a, b, c, d, e, f), S(a, b, c, d, e, g)").unwrap();
        let red = reduce_database(&db, &q);
        let rows = |db: &Database, name: &str| -> Vec<Vec<Value>> {
            let rel = db.relation_by_name(name).unwrap();
            rel.iter().map(|(_, row, _)| row.to_vec()).collect()
        };
        let without = |name: &str, dangling: usize| {
            let mut kept = rows(&db, name);
            kept.remove(dangling);
            kept
        };
        assert_eq!(rows(&red, "R"), without("R", 1));
        assert_eq!(rows(&red, "S"), without("S", 3));

        // The top-k driver reduces through the same pass once it prunes,
        // which needs several plans: `T(g)` makes the query unsafe.
        for text in [
            "q(a, f) :- R(a, b, c, d, e, f), S(a, b, c, d, e, g)",
            "q(a, f) :- R(a, b, c, d, e, f), S(a, b, c, d, e, g), T(g)",
        ] {
            let q = parse_query(text).unwrap();
            let set = minimal_plan_set(&QueryShape::of_query(&q));
            let opts = Default::default();
            let full = propagation_score_ids(&db, &q, &set.store, &set.roots, opts).unwrap();
            let top = propagation_score_topk(&db, &q, &set.store, &set.roots, 1, opts).unwrap();
            let want = full.ranked_top(1);
            assert_eq!(top.ranked.len(), want.len(), "{text}");
            for ((gk, gs), (wk, ws)) in top.ranked.iter().zip(&want) {
                assert_eq!(gk, wk, "{text}");
                assert_eq!(gs.to_bits(), ws.to_bits(), "{text}");
            }
            assert_eq!(top.stats.pruned > 0, set.len() > 1, "{text}");
        }
    }

    #[test]
    fn deterministic_flag_preserved() {
        let mut db = Database::new();
        let r = db.create_deterministic("R", 1).unwrap();
        db.relation_mut(r).push_certain(tuple([1])).unwrap();
        let s = db.create_relation("S", 1).unwrap();
        db.relation_mut(s).push(tuple([1]), 0.5).unwrap();
        let q = parse_query("q :- R(x), S(x)").unwrap();
        let red = reduce_database(&db, &q);
        assert!(red.relation_by_name("R").unwrap().is_deterministic());
        assert!(!red.relation_by_name("S").unwrap().is_deterministic());
    }
}
