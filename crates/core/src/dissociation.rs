//! Dissociations of a query (Definition 10) and the partial dissociation
//! order (Definition 15).
//!
//! A dissociation `Δ = (y₁, …, y_m)` extends each atom `Rᵢ(xᵢ)` with extra
//! existential variables `yᵢ ⊆ EVar(q) ∖ Var(Rᵢ)`. Head variables are never
//! dissociated: per answer tuple they are constants, so copying on them
//! cannot change any probability.
//!
//! A dissociation is **safe** when the dissociated query is hierarchical
//! (Definition 13 + Theorem 2). This module provides the lattice enumeration
//! and the *naive* minimal-safe-dissociation algorithm used as a test oracle
//! for Algorithm 1 (`crate::enumerate`).

use lapush_query::{is_hierarchical, QueryShape, VarSet};

/// A dissociation: one added-variable set per atom.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Dissociation(pub Vec<VarSet>);

impl Dissociation {
    /// The empty dissociation `Δ⊥` for `m` atoms (the query itself).
    pub fn bottom(m: usize) -> Self {
        Dissociation(vec![VarSet::EMPTY; m])
    }

    /// The full dissociation `Δ⊤`: every atom receives every allowed
    /// variable. Always safe (every atom contains all variables).
    pub fn top(shape: &QueryShape) -> Self {
        Dissociation(candidates(shape))
    }

    /// Pointwise-subset partial order `Δ ⪯ Δ′` (Definition 15).
    pub fn leq(&self, other: &Dissociation) -> bool {
        self.0.iter().zip(&other.0).all(|(a, b)| a.is_subset(*b))
    }

    /// Is this dissociation safe on the given shape (i.e. is `q^Δ`
    /// hierarchical)?
    pub fn is_safe(&self, shape: &QueryShape) -> bool {
        let d = shape.dissociate(&self.0);
        is_hierarchical(&d, &d.all_atoms(), d.head)
    }

    /// Apply to a shape, producing the dissociated shape `q^Δ`.
    pub fn apply(&self, shape: &QueryShape) -> QueryShape {
        shape.dissociate(&self.0)
    }

    /// Total number of added variable occurrences (`Σ|yᵢ|`).
    pub fn weight(&self) -> usize {
        self.0.iter().map(|y| y.len()).sum()
    }
}

/// Per-atom candidate sets: atom `i` may be dissociated on
/// `EVar(q) ∖ Var(Rᵢ)`.
pub fn candidates(shape: &QueryShape) -> Vec<VarSet> {
    let atoms = shape.all_atoms();
    let evar = shape.existential_of(&atoms, shape.head);
    shape.atom_vars.iter().map(|&av| evar.minus(av)).collect()
}

/// Number of dissociations of the query: `2^K` with
/// `K = Σᵢ |EVar(q) ∖ Var(Rᵢ)|` (Section 3.1). Returns `u128` because `K`
/// reaches 42 already for the 8-chain query.
pub fn count_dissociations(shape: &QueryShape) -> u128 {
    let k: u32 = candidates(shape).iter().map(|c| c.len() as u32).sum();
    1u128 << k
}

/// Enumerate the full dissociation lattice. `None` when the lattice is too
/// large (more than `2^max_exp` elements).
///
/// Intended for tests and tiny queries: the lattice of an 8-chain query has
/// `2^42` elements and must be explored via plans instead (Section 3.2).
pub fn all_dissociations(shape: &QueryShape, max_exp: u32) -> Option<Vec<Dissociation>> {
    let cands = candidates(shape);
    let k: u32 = cands.iter().map(|c| c.len() as u32).sum();
    if k > max_exp {
        return None;
    }
    let mut out = Vec::with_capacity(1 << k);
    let mut current = Dissociation::bottom(cands.len());
    enum_rec(&cands, 0, &mut current, &mut out);
    Some(out)
}

fn enum_rec(cands: &[VarSet], i: usize, current: &mut Dissociation, out: &mut Vec<Dissociation>) {
    if i == cands.len() {
        out.push(current.clone());
        return;
    }
    for sub in cands[i].subsets() {
        current.0[i] = sub;
        enum_rec(cands, i + 1, current, out);
    }
    current.0[i] = VarSet::EMPTY;
}

/// The naive reference algorithm for minimal safe dissociations: enumerate
/// the lattice bottom-up, keep safe dissociations that have no smaller safe
/// dissociation below them. Exponential; used to validate Algorithm 1.
///
/// Returns `None` if the lattice exceeds `2^max_exp` elements.
pub fn naive_minimal_safe_dissociations(
    shape: &QueryShape,
    max_exp: u32,
) -> Option<Vec<Dissociation>> {
    let mut all = all_dissociations(shape, max_exp)?;
    // Sort by weight so minimal elements are discovered first.
    all.sort_by_key(Dissociation::weight);
    let mut minimal: Vec<Dissociation> = Vec::new();
    for d in all {
        if minimal.iter().any(|m| m.leq(&d)) {
            continue;
        }
        if d.is_safe(shape) {
            minimal.push(d);
        }
    }
    Some(minimal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lapush_query::{parse_query, Query};

    fn shape_of(text: &str) -> (Query, QueryShape) {
        let q = parse_query(text).unwrap();
        let s = QueryShape::of_query(&q);
        (q, s)
    }

    #[test]
    fn candidates_exclude_head_and_own_vars() {
        let (q, s) = shape_of("q(z) :- R(z, x), S(x, y), T(y)");
        let c = candidates(&s);
        let x = q.var_by_name("x").unwrap();
        let y = q.var_by_name("y").unwrap();
        // R(z,x) can gain y only; S nothing; T can gain x only.
        assert_eq!(c[0], VarSet::single(y));
        assert_eq!(c[1], VarSet::EMPTY);
        assert_eq!(c[2], VarSet::single(x));
    }

    #[test]
    fn count_example_17() {
        // q :- R(x), S(x), T(x,y), U(y): 2^3 = 8 dissociations.
        let (_, s) = shape_of("q :- R(x), S(x), T(x, y), U(y)");
        assert_eq!(count_dissociations(&s), 8);
        let all = all_dissociations(&s, 10).unwrap();
        assert_eq!(all.len(), 8);
    }

    #[test]
    fn top_is_safe_bottom_matches_query() {
        let (_, s) = shape_of("q :- R(x), S(x), T(x, y), U(y)");
        let top = Dissociation::top(&s);
        assert!(top.is_safe(&s));
        let bot = Dissociation::bottom(4);
        assert!(!bot.is_safe(&s)); // the query itself is unsafe
        assert!(bot.leq(&top));
        assert!(!top.leq(&bot));
    }

    #[test]
    fn example_17_minimal_safe_dissociations() {
        // Paper Example 17: exactly two minimal safe dissociations:
        //   Δ3 = U gains x;  Δ4 = R and S gain y.
        let (q, s) = shape_of("q :- R(x), S(x), T(x, y), U(y)");
        let x = q.var_by_name("x").unwrap();
        let y = q.var_by_name("y").unwrap();
        let mins = naive_minimal_safe_dissociations(&s, 10).unwrap();
        assert_eq!(mins.len(), 2);
        let d3 = Dissociation(vec![
            VarSet::EMPTY,
            VarSet::EMPTY,
            VarSet::EMPTY,
            VarSet::single(x),
        ]);
        let d4 = Dissociation(vec![
            VarSet::single(y),
            VarSet::single(y),
            VarSet::EMPTY,
            VarSet::EMPTY,
        ]);
        assert!(mins.contains(&d3));
        assert!(mins.contains(&d4));
    }

    #[test]
    fn example_17_safe_count() {
        // Paper Fig. 1a: 5 of the 8 dissociations are safe.
        let (_, s) = shape_of("q :- R(x), S(x), T(x, y), U(y)");
        let safe = all_dissociations(&s, 10)
            .unwrap()
            .into_iter()
            .filter(|d| d.is_safe(&s))
            .count();
        assert_eq!(safe, 5);
    }

    #[test]
    fn safe_status_toggles_along_lattice() {
        // Paper Section 3.1: q :- R(x), S(x), T(y) is safe; dissociating S
        // on y makes it unsafe; further dissociating T on x makes it safe.
        let (q, s) = shape_of("q :- R(x), S(x), T(y)");
        let x = q.var_by_name("x").unwrap();
        let y = q.var_by_name("y").unwrap();
        let d0 = Dissociation::bottom(3);
        assert!(d0.is_safe(&s));
        let d1 = Dissociation(vec![VarSet::EMPTY, VarSet::single(y), VarSet::EMPTY]);
        assert!(!d1.is_safe(&s));
        let d2 = Dissociation(vec![VarSet::EMPTY, VarSet::single(y), VarSet::single(x)]);
        assert!(d2.is_safe(&s));
    }

    #[test]
    fn safe_query_unique_minimal_is_bottom() {
        let (_, s) = shape_of("q :- R(x), S(x, y)");
        let mins = naive_minimal_safe_dissociations(&s, 10).unwrap();
        assert_eq!(mins, vec![Dissociation::bottom(2)]);
    }

    #[test]
    fn lattice_size_guard() {
        let (_, s) = shape_of("q :- R(x), S(x), T(x, y), U(y)");
        assert!(all_dissociations(&s, 2).is_none());
        assert!(all_dissociations(&s, 3).is_some());
    }
}
