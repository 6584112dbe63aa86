//! Relations: named tables of probabilistic tuples.

use crate::error::StorageError;
use crate::fxhash::FxHashMap;
use crate::tuple::Tuple;
use crate::value::Value;

/// A column-level functional dependency `lhs → rhs` on one relation.
///
/// Example: on `S(x, y)`, the FD `{0} → {1}` states that the first column
/// determines the second — the schema knowledge used by the paper's
/// Section 3.3.2 to prune dissociations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fd {
    /// Determinant column indices.
    pub lhs: Vec<usize>,
    /// Determined column indices.
    pub rhs: Vec<usize>,
}

impl Fd {
    /// Build an FD from column index lists.
    pub fn new(lhs: impl Into<Vec<usize>>, rhs: impl Into<Vec<usize>>) -> Self {
        Fd {
            lhs: lhs.into(),
            rhs: rhs.into(),
        }
    }

    /// A key FD: the given columns determine every column of a relation of
    /// the given arity.
    pub fn key(key_cols: impl Into<Vec<usize>>, arity: usize) -> Self {
        let lhs = key_cols.into();
        let rhs = (0..arity).filter(|c| !lhs.contains(c)).collect();
        Fd { lhs, rhs }
    }
}

/// A named relation: a set of tuples with per-tuple probabilities.
///
/// Invariants (enforced by [`Relation::push`]):
/// * all tuples have the relation's arity,
/// * tuples are distinct (set semantics),
/// * probabilities lie in `[0,1]`, and equal `1` if the relation is
///   [deterministic](Relation::deterministic).
#[derive(Debug, Clone)]
pub struct Relation {
    name: String,
    arity: usize,
    /// Tuple payloads, parallel to `probs`.
    rows: Vec<Tuple>,
    probs: Vec<f64>,
    deterministic: bool,
    fds: Vec<Fd>,
    /// Dedup index: tuple → row ordinal.
    index: FxHashMap<Tuple, u32>,
    /// Bumped whenever an *existing* row's probability changes in place
    /// (duplicate insert raising it, [`Relation::set_prob`], or
    /// [`Relation::scale_probs`]). Appends leave it untouched, so
    /// `(len, prob_epoch)` is a complete freshness stamp for consumers
    /// that cache derived state over the append-only prefix.
    prob_epoch: u64,
}

impl Relation {
    /// Create an empty probabilistic relation.
    pub fn new(name: impl Into<String>, arity: usize) -> Self {
        Relation {
            name: name.into(),
            arity,
            rows: Vec::new(),
            probs: Vec::new(),
            deterministic: false,
            fds: Vec::new(),
            index: FxHashMap::default(),
            prob_epoch: 0,
        }
    }

    /// Create an empty deterministic relation (all tuples have `p = 1`).
    pub fn deterministic(name: impl Into<String>, arity: usize) -> Self {
        let mut r = Relation::new(name, arity);
        r.deterministic = true;
        r
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Whether every tuple is certain (`p = 1`), declared at schema level.
    pub fn is_deterministic(&self) -> bool {
        self.deterministic
    }

    /// Declared functional dependencies.
    pub fn fds(&self) -> &[Fd] {
        &self.fds
    }

    /// Declare a functional dependency. Column indices are validated against
    /// the arity; the *data* is not checked here (use [`Relation::satisfies_fd`]).
    pub fn add_fd(&mut self, fd: Fd) -> Result<(), StorageError> {
        for &c in fd.lhs.iter().chain(fd.rhs.iter()) {
            if c >= self.arity {
                return Err(StorageError::BadFdColumn {
                    relation: self.name.clone(),
                    column: c,
                });
            }
        }
        self.fds.push(fd);
        Ok(())
    }

    /// Check whether the current data satisfies an FD.
    pub fn satisfies_fd(&self, fd: &Fd) -> bool {
        let mut seen: FxHashMap<Tuple, Tuple> = FxHashMap::default();
        for row in &self.rows {
            let lhs: Tuple = fd.lhs.iter().map(|&c| row[c].clone()).collect();
            let rhs: Tuple = fd.rhs.iter().map(|&c| row[c].clone()).collect();
            match seen.entry(lhs) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    if *e.get() != rhs {
                        return false;
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(rhs);
                }
            }
        }
        true
    }

    /// Insert a tuple with probability `prob`. Re-inserting an existing tuple
    /// keeps the maximum of the old and new probability (set semantics).
    /// Returns the row ordinal.
    pub fn push(&mut self, row: Tuple, prob: f64) -> Result<u32, StorageError> {
        if row.len() != self.arity {
            return Err(StorageError::ArityMismatch {
                relation: self.name.clone(),
                expected: self.arity,
                got: row.len(),
            });
        }
        if !(prob.is_finite() && (0.0..=1.0).contains(&prob)) {
            return Err(StorageError::InvalidProbability {
                relation: self.name.clone(),
                prob,
            });
        }
        if self.deterministic && prob < 1.0 {
            return Err(StorageError::DeterministicViolation {
                relation: self.name.clone(),
                prob,
            });
        }
        if let Some(&at) = self.index.get(&row) {
            let slot = &mut self.probs[at as usize];
            if prob > *slot {
                *slot = prob;
                self.prob_epoch += 1;
            }
            return Ok(at);
        }
        let at = self.rows.len() as u32;
        self.index.insert(row.clone(), at);
        self.rows.push(row);
        self.probs.push(prob);
        Ok(at)
    }

    /// Insert a certain tuple (`p = 1`).
    pub fn push_certain(&mut self, row: Tuple) -> Result<u32, StorageError> {
        self.push(row, 1.0)
    }

    /// Tuple payload by row ordinal.
    pub fn row(&self, at: u32) -> &[Value] {
        &self.rows[at as usize]
    }

    /// Probability by row ordinal.
    pub fn prob(&self, at: u32) -> f64 {
        self.probs[at as usize]
    }

    /// All rows, in insertion order.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// All probabilities, parallel to [`Relation::rows`].
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Iterate `(row_ordinal, tuple, probability)`.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[Value], f64)> + '_ {
        self.rows
            .iter()
            .zip(self.probs.iter())
            .enumerate()
            .map(|(i, (t, &p))| (i as u32, &t[..], p))
    }

    /// Row ordinal of an exact tuple, if present.
    pub fn find(&self, row: &[Value]) -> Option<u32> {
        self.index.get(row).copied()
    }

    /// Multiply every tuple probability by `f` (clamped to `[0,1]`).
    ///
    /// Used by the paper's scaling experiments (Results 7–8). Scaling a
    /// deterministic relation with `f < 1` demotes it to probabilistic.
    pub fn scale_probs(&mut self, f: f64) {
        if f < 1.0 {
            self.deterministic = false;
        }
        if f != 1.0 && !self.probs.is_empty() {
            self.prob_epoch += 1;
        }
        for p in &mut self.probs {
            *p = (*p * f).clamp(0.0, 1.0);
        }
    }

    /// Overwrite the probability of one row.
    pub fn set_prob(&mut self, at: u32, prob: f64) -> Result<(), StorageError> {
        if !(prob.is_finite() && (0.0..=1.0).contains(&prob)) {
            return Err(StorageError::InvalidProbability {
                relation: self.name.clone(),
                prob,
            });
        }
        if self.deterministic && prob < 1.0 {
            self.deterministic = false;
        }
        let slot = &mut self.probs[at as usize];
        if slot.to_bits() != prob.to_bits() {
            *slot = prob;
            self.prob_epoch += 1;
        }
        Ok(())
    }

    /// Counter of in-place probability mutations (see the field docs).
    /// Appends never bump it; together with [`Relation::len`] it stamps the
    /// exact state of the relation for incremental consumers.
    pub fn prob_epoch(&self) -> u64 {
        self.prob_epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::tuple;

    #[test]
    fn push_and_lookup() {
        let mut r = Relation::new("R", 2);
        let a = r.push(tuple([1, 2]), 0.5).unwrap();
        let b = r.push(tuple([1, 3]), 0.25).unwrap();
        assert_ne!(a, b);
        assert_eq!(r.len(), 2);
        assert_eq!(r.prob(a), 0.5);
        assert_eq!(r.row(b), &[Value::Int(1), Value::Int(3)][..]);
        assert_eq!(r.find(&tuple([1, 2])), Some(a));
        assert_eq!(r.find(&tuple([9, 9])), None);
    }

    #[test]
    fn duplicate_insert_keeps_max_prob() {
        let mut r = Relation::new("R", 1);
        let a = r.push(tuple([7]), 0.3).unwrap();
        let b = r.push(tuple([7]), 0.6).unwrap();
        assert_eq!(a, b);
        assert_eq!(r.len(), 1);
        assert_eq!(r.prob(a), 0.6);
        let c = r.push(tuple([7]), 0.1).unwrap();
        assert_eq!(c, a);
        assert_eq!(r.prob(a), 0.6);
    }

    #[test]
    fn arity_checked() {
        let mut r = Relation::new("R", 2);
        assert!(matches!(
            r.push(tuple([1]), 0.5),
            Err(StorageError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn prob_range_checked() {
        let mut r = Relation::new("R", 1);
        assert!(r.push(tuple([1]), 1.5).is_err());
        assert!(r.push(tuple([1]), -0.1).is_err());
        assert!(r.push(tuple([1]), f64::NAN).is_err());
    }

    #[test]
    fn deterministic_rejects_uncertain_tuples() {
        let mut r = Relation::deterministic("D", 1);
        assert!(r.push(tuple([1]), 0.9).is_err());
        assert!(r.push_certain(tuple([1])).is_ok());
        assert!(r.is_deterministic());
    }

    #[test]
    fn scaling_demotes_deterministic() {
        let mut r = Relation::deterministic("D", 1);
        r.push_certain(tuple([1])).unwrap();
        r.scale_probs(0.5);
        assert!(!r.is_deterministic());
        assert_eq!(r.prob(0), 0.5);
    }

    #[test]
    fn prob_epoch_tracks_in_place_mutations_only() {
        let mut r = Relation::new("R", 1);
        assert_eq!(r.prob_epoch(), 0);
        // Appends never bump the epoch.
        r.push(tuple([1]), 0.3).unwrap();
        r.push(tuple([2]), 0.4).unwrap();
        assert_eq!(r.prob_epoch(), 0);
        // A duplicate insert that does not raise the probability is a no-op.
        r.push(tuple([1]), 0.2).unwrap();
        r.push(tuple([1]), 0.3).unwrap();
        assert_eq!(r.prob_epoch(), 0);
        // Raising it in place bumps.
        r.push(tuple([1]), 0.9).unwrap();
        assert_eq!(r.prob_epoch(), 1);
        // set_prob bumps only when the bits change.
        r.set_prob(0, 0.9).unwrap();
        assert_eq!(r.prob_epoch(), 1);
        r.set_prob(0, 0.5).unwrap();
        assert_eq!(r.prob_epoch(), 2);
        // Scaling bumps once (a whole-relation mutation); f = 1 does not.
        r.scale_probs(1.0);
        assert_eq!(r.prob_epoch(), 2);
        r.scale_probs(0.5);
        assert_eq!(r.prob_epoch(), 3);
    }

    #[test]
    fn fd_validation_and_satisfaction() {
        let mut r = Relation::new("S", 2);
        r.push(tuple([1, 10]), 0.5).unwrap();
        r.push(tuple([2, 20]), 0.5).unwrap();
        assert!(r.add_fd(Fd::new([0], [1])).is_ok());
        assert!(r.satisfies_fd(&Fd::new([0], [1])));
        r.push(tuple([1, 11]), 0.5).unwrap();
        assert!(!r.satisfies_fd(&Fd::new([0], [1])));
        assert!(matches!(
            r.add_fd(Fd::new([0], [5])),
            Err(StorageError::BadFdColumn { .. })
        ));
    }

    #[test]
    fn key_fd_builder() {
        let fd = Fd::key([0], 3);
        assert_eq!(fd.lhs, vec![0]);
        assert_eq!(fd.rhs, vec![1, 2]);
    }
}
