//! Base views: one sorted columnar snapshot per scanned relation.
//!
//! A [`BaseView`] is what every query's full scan of a relation has in
//! common: the relation's dictionary-encoded tuples, column-major, in
//! canonical (lexicographic vid) order with their probabilities — no
//! variable names, no score semantics, nothing of the query that asked.
//! The database keeps at most one per relation next to the codec's encoded
//! cells ([`Database::base_view`](crate::Database::base_view) owns
//! freshness); the engine builds it, copies it under each query's variable
//! names, and joins those copies through the **key orders** kept here, so
//! a relation is scanned and each of its join keys sorted once per database
//! state rather than once per evaluation.
//!
//! A view is immutable once published. Its key orders are the one piece of
//! interior state: a lazily filled cache of pure functions of the columns.

use crate::intern::Vid;
use crate::relation::Relation;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Key columns, and the permutation listing the rows in `(key columns, row
/// index)` order — a total order, so it is unique whoever sorts it.
type KeyOrder = (Box<[usize]>, Arc<[u32]>);

/// The sorted columnar snapshot of one relation at one `(len, prob_epoch)`
/// state. See the [module docs](self).
pub struct BaseView {
    /// One vid column per relation column; rows in lexicographic order.
    cols: Vec<Vec<Vid>>,
    /// Probability of each row.
    probs: Vec<f64>,
    /// [`Relation::prob_epoch`] the probabilities were read at; with
    /// `probs.len()` the complete freshness stamp (relations are
    /// append-only).
    prob_epoch: u64,
    /// Key orders asked for so far. A relation is joined on a handful of
    /// keys at most: a linear list.
    orders: Mutex<Vec<KeyOrder>>,
}

impl BaseView {
    /// Wrap columns already in canonical order (sorted lexicographically,
    /// rows distinct), read from a relation whose
    /// [`prob_epoch`](Relation::prob_epoch) was `prob_epoch`.
    pub fn new(cols: Vec<Vec<Vid>>, probs: Vec<f64>, prob_epoch: u64) -> Self {
        debug_assert!(cols.iter().all(|c| c.len() == probs.len()));
        BaseView {
            cols,
            probs,
            prob_epoch,
            orders: Mutex::new(Vec::new()),
        }
    }

    /// Number of rows (= tuples of the relation when the view was built).
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// True for the view of an empty relation.
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// The columns, in relation column order.
    pub fn cols(&self) -> &[Vec<Vid>] {
        &self.cols
    }

    /// Probability of each row, in row order.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// The probability epoch of the relation state this view shows.
    pub fn prob_epoch(&self) -> u64 {
        self.prob_epoch
    }

    /// Does this view show exactly `rel`'s current state? Sound under the
    /// codec's contract: tuples are only appended, and every in-place
    /// probability change moves the epoch.
    pub fn shows(&self, rel: &Relation) -> bool {
        self.len() == rel.len() && self.prob_epoch == rel.prob_epoch()
    }

    /// The key order of the columns `key`, sorted by `sort` on first use
    /// and kept for the life of the view.
    ///
    /// `sort` runs **under the view's lock** (a concurrent caller for any
    /// key waits, then shares the result). It may spread its work over
    /// threads of its own, but nothing it runs may call this method again:
    /// the lock is not reentrant.
    pub fn key_order(&self, key: &[usize], sort: impl FnOnce() -> Arc<[u32]>) -> Arc<[u32]> {
        // The list only ever gains complete entries: safe to adopt after a
        // panic in some `sort`.
        let mut orders = self.orders.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, rows)) = orders.iter().find(|(k, _)| **k == *key) {
            return Arc::clone(rows);
        }
        let rows = sort();
        debug_assert_eq!(rows.len(), self.len());
        orders.push((key.into(), Arc::clone(&rows)));
        rows
    }

    /// Number of key orders built so far (4 bytes per row each).
    pub fn cached_orders(&self) -> usize {
        self.orders.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

impl fmt::Debug for BaseView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BaseView")
            .field("rows", &self.len())
            .field("arity", &self.cols.len())
            .field("prob_epoch", &self.prob_epoch)
            .finish_non_exhaustive()
    }
}

/// Counters of a database's base views (the `base_views.*` lines of the
/// serve layer's `STATS`). `built` and `extended` count publications, so
/// they are functions of the order in which database states were scanned,
/// never of timing: concurrent builders of one state publish once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BaseViewStats {
    /// Views currently held (one per relation scanned in full so far).
    pub resident: u64,
    /// Views built from the relation's encoded cells: first scans, and
    /// rebuilds after an in-place probability change.
    pub built: u64,
    /// Views derived from their predecessor by merging the appended rows.
    pub extended: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_order_is_built_once_per_key() {
        let view = BaseView::new(vec![vec![1, 2, 3], vec![9, 8, 7]], vec![0.5; 3], 0);
        assert_eq!((view.len(), view.cached_orders()), (3, 0));
        let by_second: Arc<[u32]> = vec![2, 1, 0].into();
        let first = view.key_order(&[1], || Arc::clone(&by_second));
        let again = view.key_order(&[1], || unreachable!("kept"));
        assert!(Arc::ptr_eq(&first, &again));
        view.key_order(&[1, 0], || Arc::clone(&by_second));
        assert_eq!(view.cached_orders(), 2);
    }

    #[test]
    fn shows_compares_length_and_epoch() {
        let mut rel = Relation::new("R", 1);
        rel.push(Box::new([crate::Value::Int(1)]), 0.5).unwrap();
        let view = BaseView::new(vec![vec![0]], vec![0.5], rel.prob_epoch());
        assert!(view.shows(&rel));
        rel.push(Box::new([crate::Value::Int(2)]), 0.5).unwrap();
        assert!(!view.shows(&rel), "grown");
        let view = BaseView::new(vec![vec![0, 1]], vec![0.5, 0.5], rel.prob_epoch());
        assert!(view.shows(&rel));
        rel.set_prob(0, 0.75).unwrap();
        assert!(!view.shows(&rel), "probability changed in place");
    }
}
