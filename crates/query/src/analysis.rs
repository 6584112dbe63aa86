//! Structural analysis of (sub)queries: connectivity, hierarchy,
//! separators, and minimal cut-sets.
//!
//! All functions operate on a [`QueryShape`] restricted to a subset of atoms
//! and a head-variable set, because the plan-enumeration recursion
//! (Algorithm 1 of the paper) repeatedly re-analyzes subqueries with grown
//! head sets. Head variables are treated as constants throughout:
//! connectivity and hierarchy are defined over *existential* variables only.

use crate::shape::QueryShape;
use crate::varset::VarSet;

/// Connected components of the subquery `(atoms, head)`.
///
/// Two atoms are connected when they share an existential variable
/// (a variable not in `head`). Returns components as lists of atom indices
/// (each a sub-list of `atoms`, preserving order).
pub fn components(shape: &QueryShape, atoms: &[usize], head: VarSet) -> Vec<Vec<usize>> {
    let n = atoms.len();
    let mut comp_id: Vec<usize> = (0..n).collect();

    fn find(comp_id: &mut [usize], i: usize) -> usize {
        let mut root = i;
        while comp_id[root] != root {
            root = comp_id[root];
        }
        let mut cur = i;
        while comp_id[cur] != root {
            let next = comp_id[cur];
            comp_id[cur] = root;
            cur = next;
        }
        root
    }

    for (i, &ai) in atoms.iter().enumerate() {
        let vi = shape.atom_vars[ai].minus(head);
        for (j, &aj) in atoms.iter().enumerate().skip(i + 1) {
            let vj = shape.atom_vars[aj].minus(head);
            if !vi.is_disjoint(vj) {
                let (ri, rj) = (find(&mut comp_id, i), find(&mut comp_id, j));
                if ri != rj {
                    comp_id[ri] = rj;
                }
            }
        }
    }

    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    for (i, &ai) in atoms.iter().enumerate() {
        let r = find(&mut comp_id, i);
        match groups.iter_mut().find(|(root, _)| *root == r) {
            Some((_, g)) => g.push(ai),
            None => groups.push((r, vec![ai])),
        }
    }
    groups.into_iter().map(|(_, g)| g).collect()
}

/// The hierarchy test (Definition 1): for any two existential variables
/// `x, y`, the atom sets `at(x)` and `at(y)` (restricted to `atoms`) must be
/// nested or disjoint. By Theorem 2 this characterizes safe (PTIME) sjfCQs.
pub fn is_hierarchical(shape: &QueryShape, atoms: &[usize], head: VarSet) -> bool {
    let evars = shape.existential_of(atoms, head);
    let evars: Vec<_> = evars.iter().collect();
    // at(x) as bitmask over positions in `atoms`.
    let masks: Vec<u64> = evars
        .iter()
        .map(|&x| {
            let mut m = 0u64;
            for (pos, &a) in atoms.iter().enumerate() {
                if shape.atom_vars[a].contains(x) {
                    m |= 1 << pos;
                }
            }
            m
        })
        .collect();
    for i in 0..masks.len() {
        for j in (i + 1)..masks.len() {
            let (a, b) = (masks[i], masks[j]);
            let inter = a & b;
            if inter != 0 && inter != a && inter != b {
                return false;
            }
        }
    }
    true
}

/// Separator (root) variables: existential variables occurring in *every*
/// atom of the subquery (`SVar(q)` in the paper).
pub fn separator_vars(shape: &QueryShape, atoms: &[usize], head: VarSet) -> VarSet {
    let mut sep = shape.existential_of(atoms, head);
    for &a in atoms {
        sep = sep.intersect(shape.atom_vars[a]);
    }
    sep
}

/// All *minimal cut-sets* of the subquery: minimal sets `y` of existential
/// variables such that removing `y` disconnects the atoms (Section 3.2).
///
/// Conventions from the paper:
/// * if the subquery is already disconnected, `MinCuts = {∅}`;
/// * cut-set enumeration is exponential in the number of existential
///   variables, which is fine for query-sized inputs (the paper's largest
///   experiment has 7).
pub fn min_cuts(shape: &QueryShape, atoms: &[usize], head: VarSet) -> Vec<VarSet> {
    min_cuts_filtered(shape, atoms, head, |_| true)
}

/// `MinPCuts` (Section 3.3.1): minimal cut-sets that split the subquery into
/// at least two connected components *containing probabilistic atoms*.
/// With no deterministic relations this coincides with [`min_cuts`].
pub fn min_pcuts(shape: &QueryShape, atoms: &[usize], head: VarSet) -> Vec<VarSet> {
    min_cuts_filtered(shape, atoms, head, |comps| {
        let with_prob = comps
            .iter()
            .filter(|c| c.iter().any(|&a| shape.probabilistic[a]))
            .count();
        with_prob >= 2
    })
}

/// Shared engine for [`min_cuts`] / [`min_pcuts`]: enumerate subsets of the
/// existential variables in increasing size, keep those whose removal yields
/// a component structure accepted by `accept`, and prune supersets.
fn min_cuts_filtered(
    shape: &QueryShape,
    atoms: &[usize],
    head: VarSet,
    accept: impl Fn(&[Vec<usize>]) -> bool,
) -> Vec<VarSet> {
    let evars = shape.existential_of(atoms, head);

    let qualifies = |cut: VarSet| -> bool {
        let comps = components(shape, atoms, head.union(cut));
        comps.len() >= 2 && accept(&comps)
    };

    // Already qualifying with the empty cut (disconnected query).
    if qualifies(VarSet::EMPTY) {
        return vec![VarSet::EMPTY];
    }

    // Enumerate subsets grouped by size.
    let mut by_size: Vec<Vec<VarSet>> = vec![Vec::new(); evars.len() + 1];
    for s in evars.subsets() {
        by_size[s.len()].push(s);
    }

    let mut result: Vec<VarSet> = Vec::new();
    for group in by_size.iter().skip(1) {
        'cand: for &cand in group {
            for &m in &result {
                if m.is_subset(cand) {
                    continue 'cand; // superset of a known minimal cut
                }
            }
            if qualifies(cand) {
                result.push(cand);
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Query, QueryBuilder};
    use crate::parser::parse_query;

    fn shape(q: &Query) -> QueryShape {
        QueryShape::of_query(q)
    }

    fn cuts_as_names(q: &Query, cuts: &[VarSet]) -> Vec<Vec<String>> {
        let mut v: Vec<Vec<String>> = cuts
            .iter()
            .map(|c| c.iter().map(|x| q.var_name(x).to_string()).collect())
            .collect();
        v.sort();
        v
    }

    #[test]
    fn components_of_disconnected_query() {
        // q :- R(x,y), S(z,u), T(u,v)  — two components (paper, Section 2).
        let q = parse_query("q :- R(x, y), S(z, u), T(u, v)").unwrap();
        let s = shape(&q);
        let comps = components(&s, &s.all_atoms(), s.head);
        assert_eq!(comps.len(), 2);
        assert!(comps.contains(&vec![0]));
        assert!(comps.contains(&vec![1, 2]));
    }

    #[test]
    fn head_vars_do_not_connect() {
        // Shared head variable must not connect atoms.
        let q = parse_query("q(x) :- R(x, y), S(x, z)").unwrap();
        let s = shape(&q);
        assert_eq!(components(&s, &s.all_atoms(), s.head).len(), 2);
    }

    #[test]
    fn hierarchical_examples_from_paper() {
        // q1 :- R(x,y), S(y,z), T(y,z,u) is hierarchical.
        let q1 = parse_query("q :- R(x, y), S(y, z), T(y, z, u)").unwrap();
        let s1 = shape(&q1);
        assert!(is_hierarchical(&s1, &s1.all_atoms(), s1.head));

        // q2 :- R(x,y), S(y,z), T(z,u) is not (vars y and z).
        let q2 = parse_query("q :- R(x, y), S(y, z), T(z, u)").unwrap();
        let s2 = shape(&q2);
        assert!(!is_hierarchical(&s2, &s2.all_atoms(), s2.head));
    }

    #[test]
    fn hierarchical_respects_head_vars() {
        // q(y) :- R(x,y), S(y,z): head var y is ignored; x and z have
        // disjoint atom sets → hierarchical.
        let q = parse_query("q(y) :- R(x, y), S(y, z)").unwrap();
        let s = shape(&q);
        assert!(is_hierarchical(&s, &s.all_atoms(), s.head));
    }

    #[test]
    fn separator_vars_basic() {
        let q = parse_query("q :- R(x), S(x, y)").unwrap();
        let s = shape(&q);
        let sep = separator_vars(&s, &s.all_atoms(), s.head);
        assert_eq!(sep.len(), 1);
        assert_eq!(q.var_name(sep.iter().next().unwrap()), "x");
    }

    #[test]
    fn min_cuts_of_2_chain() {
        // Boolean 2-chain: q :- R(x0,x1), S(x1,x2); only evar x1 splits.
        let q = parse_query("q(x0, x2) :- R(x0, x1), S(x1, x2)").unwrap();
        let s = shape(&q);
        let cuts = min_cuts(&s, &s.all_atoms(), s.head);
        assert_eq!(cuts_as_names(&q, &cuts), vec![vec!["x1".to_string()]]);
    }

    #[test]
    fn min_cuts_of_unsafe_triangle_query() {
        // q :- R(x), S(x,y), T(y): cuts {x} and {y}.
        let q = parse_query("q :- R(x), S(x, y), T(y)").unwrap();
        let s = shape(&q);
        let cuts = min_cuts(&s, &s.all_atoms(), s.head);
        assert_eq!(
            cuts_as_names(&q, &cuts),
            vec![vec!["x".to_string()], vec!["y".to_string()]]
        );
    }

    #[test]
    fn min_cuts_disconnected_is_empty_set() {
        let q = parse_query("q :- R(x), S(y)").unwrap();
        let s = shape(&q);
        assert_eq!(min_cuts(&s, &s.all_atoms(), s.head), vec![VarSet::EMPTY]);
    }

    #[test]
    fn min_pcuts_with_deterministic_atom() {
        // Paper Section 3.3.1: q :- R(x), S(x,y), T^d(y):
        // MinCuts = {{x},{y}}, MinPCuts = {{x}}.
        let q = parse_query("q :- R(x), S(x, y), T^d(y)").unwrap();
        let s = shape(&q);
        let cuts = min_cuts(&s, &s.all_atoms(), s.head);
        assert_eq!(cuts.len(), 2);
        let pcuts = min_pcuts(&s, &s.all_atoms(), s.head);
        assert_eq!(cuts_as_names(&q, &pcuts), vec![vec!["x".to_string()]]);
    }

    #[test]
    fn min_pcuts_all_deterministic_but_two() {
        // q :- R^d(x), S(x,y), T^d(y): removing x leaves components
        // {R} (no prob) and {S,T} (prob) → only 1 prob component, not a pcut.
        // Removing y: {R,S} (prob) and {T} (no prob) → not a pcut.
        // Removing {x,y}: {R}, {S}, {T} → single prob component → no pcut.
        let q = parse_query("q :- R^d(x), S(x, y), T^d(y)").unwrap();
        let s = shape(&q);
        assert!(min_pcuts(&s, &s.all_atoms(), s.head).is_empty());
    }

    #[test]
    fn min_cuts_of_4_chain_interior() {
        // Boolean 4-chain has evars x1,x2,x3; minimal cuts are the three
        // singletons.
        let q = parse_query("q(x0, x4) :- R1(x0,x1), R2(x1,x2), R3(x2,x3), R4(x3,x4)").unwrap();
        let s = shape(&q);
        let cuts = min_cuts(&s, &s.all_atoms(), s.head);
        assert_eq!(cuts.len(), 3);
        assert!(cuts.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn min_cuts_of_star_core() {
        // k-star with k=3: q('a') :- R1(a0,x1), R2(x2), R3(x3), R0(x1,x2,x3)
        // (a0 is a head var standing in for the constant).
        let q = QueryBuilder::new("q")
            .head(&["a0"])
            .atom("R1", &["a0", "x1"])
            .atom("R2", &["x2"])
            .atom("R3", &["x3"])
            .atom("R0", &["x1", "x2", "x3"])
            .build()
            .unwrap();
        let s = shape(&q);
        let cuts = min_cuts(&s, &s.all_atoms(), s.head);
        // Removing any single xi disconnects Ri from the rest.
        assert_eq!(cuts.len(), 3);
        assert!(cuts.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn subquery_analysis_on_atom_subsets() {
        let q = parse_query("q :- R(x), S(x, y), T(y)").unwrap();
        let s = shape(&q);
        // Subquery {S, T} with head {x}: connected via y, hierarchical.
        let x = q.var_by_name("x").unwrap();
        let head = VarSet::single(x);
        assert_eq!(components(&s, &[1, 2], head).len(), 1);
        assert!(is_hierarchical(&s, &[1, 2], head));
        let sep = separator_vars(&s, &[1, 2], head);
        assert_eq!(sep.len(), 1);
    }
}
