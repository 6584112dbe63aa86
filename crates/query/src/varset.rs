//! Compact bitsets of query variables.
//!
//! Queries are tiny (the paper's largest experiment is an 8-chain with nine
//! variables), so a `u64` bitset comfortably covers every realistic query
//! while making the lattice/cut-set manipulations of Section 3 allocation-free.

use crate::ast::Var;
use std::fmt;

/// A set of up to 64 query variables, stored as a bitmask.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct VarSet(pub u64);

/// Maximum number of distinct variables supported per query.
pub const MAX_VARS: usize = 64;

impl VarSet {
    /// The empty set.
    pub const EMPTY: VarSet = VarSet(0);

    /// Singleton set.
    #[inline]
    pub fn single(v: Var) -> Self {
        debug_assert!((v.0 as usize) < MAX_VARS);
        VarSet(1u64 << v.0)
    }

    /// Build from an iterator of variables.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = Var>>(vars: I) -> Self {
        let mut s = VarSet::EMPTY;
        for v in vars {
            s.insert(v);
        }
        s
    }

    /// Number of variables in the set.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True if empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Membership test.
    #[inline]
    pub fn contains(self, v: Var) -> bool {
        self.0 & (1u64 << v.0) != 0
    }

    /// Add a variable.
    #[inline]
    pub fn insert(&mut self, v: Var) {
        self.0 |= 1u64 << v.0;
    }

    /// Remove a variable.
    #[inline]
    pub fn remove(&mut self, v: Var) {
        self.0 &= !(1u64 << v.0);
    }

    /// Set union.
    #[inline]
    pub fn union(self, other: VarSet) -> VarSet {
        VarSet(self.0 | other.0)
    }

    /// Set intersection.
    #[inline]
    pub fn intersect(self, other: VarSet) -> VarSet {
        VarSet(self.0 & other.0)
    }

    /// Set difference `self \ other`.
    #[inline]
    pub fn minus(self, other: VarSet) -> VarSet {
        VarSet(self.0 & !other.0)
    }

    /// Subset test `self ⊆ other`.
    #[inline]
    pub fn is_subset(self, other: VarSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Disjointness test.
    #[inline]
    pub fn is_disjoint(self, other: VarSet) -> bool {
        self.0 & other.0 == 0
    }

    /// Iterate members in increasing variable order.
    pub fn iter(self) -> impl Iterator<Item = Var> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let v = bits.trailing_zeros();
                bits &= bits - 1;
                Some(Var(v))
            }
        })
    }

    /// All subsets of this set (including empty and itself): `2^len` entries.
    /// Ordered by the standard subset-enumeration trick; intended for the
    /// small sets that arise in queries.
    pub fn subsets(self) -> impl Iterator<Item = VarSet> {
        let full = self.0;
        let mut sub: u64 = 0;
        let mut done = false;
        std::iter::from_fn(move || {
            if done {
                return None;
            }
            let out = VarSet(sub);
            if sub == full {
                done = true;
            } else {
                sub = (sub.wrapping_sub(full)) & full;
            }
            Some(out)
        })
    }
}

impl FromIterator<Var> for VarSet {
    fn from_iter<I: IntoIterator<Item = Var>>(iter: I) -> Self {
        VarSet::from_iter(iter)
    }
}

impl fmt::Debug for VarSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for v in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "v{}", v.0)?;
            first = false;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vs(vars: &[u32]) -> VarSet {
        vars.iter().map(|&v| Var(v)).collect()
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = VarSet::EMPTY;
        assert!(s.is_empty());
        s.insert(Var(3));
        s.insert(Var(63));
        assert!(s.contains(Var(3)));
        assert!(s.contains(Var(63)));
        assert!(!s.contains(Var(4)));
        assert_eq!(s.len(), 2);
        s.remove(Var(3));
        assert!(!s.contains(Var(3)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn set_algebra() {
        let a = vs(&[0, 1, 2]);
        let b = vs(&[2, 3]);
        assert_eq!(a.union(b), vs(&[0, 1, 2, 3]));
        assert_eq!(a.intersect(b), vs(&[2]));
        assert_eq!(a.minus(b), vs(&[0, 1]));
        assert!(vs(&[1]).is_subset(a));
        assert!(a.is_subset(a));
        assert!(vs(&[0]).is_disjoint(vs(&[1])));
    }

    #[test]
    fn iteration_order() {
        let s = vs(&[5, 1, 9]);
        let got: Vec<u32> = s.iter().map(|v| v.0).collect();
        assert_eq!(got, vec![1, 5, 9]);
    }

    #[test]
    fn subsets_enumerates_powerset() {
        let s = vs(&[1, 4, 6]);
        let subs: Vec<VarSet> = s.subsets().collect();
        assert_eq!(subs.len(), 8);
        assert!(subs.contains(&VarSet::EMPTY));
        assert!(subs.contains(&s));
        assert!(subs.contains(&vs(&[1, 6])));
        // All distinct.
        let mut sorted = subs.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 8);
    }

    #[test]
    fn subsets_of_empty() {
        let subs: Vec<VarSet> = VarSet::EMPTY.subsets().collect();
        assert_eq!(subs, vec![VarSet::EMPTY]);
    }
}
