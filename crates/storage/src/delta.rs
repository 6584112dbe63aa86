//! Sorted columnar delta batches for incremental evaluation.
//!
//! Relations are append-only, so the state of a relation at any moment is a
//! *base prefix* (`base_rows` tuples) plus an *appendix* of newly inserted
//! tuples. A [`DeltaBatch`] materializes that appendix in the same
//! vid/codec discipline the engine's sorted columnar batches use: one dense
//! vid vector per column, rows in canonical lexicographic order, plus the
//! base-relation ordinal and probability of each row. The engine's
//! incremental evaluator merges these batches into cached views instead of
//! re-evaluating plans from scratch.
//!
//! Batches are built by `DbCodec::delta_batch` (the codec owns the
//! interner, so delta cells share vids with the cached base encoding).
//! Tuples of one relation are distinct, and interning is injective, so the
//! vid rows of a batch are distinct and the lexicographic sort is a total
//! order with no ties — batch layout is deterministic.

use crate::database::RelId;
use crate::intern::Vid;

/// The sorted columnar appendix of one relation: the tuples appended after
/// a `base_rows`-tuple prefix, encoded and ordered like the engine's
/// intermediate batches.
#[derive(Debug, Clone)]
pub struct DeltaBatch {
    rel: RelId,
    base_rows: usize,
    arity: usize,
    /// One vid vector per column, rows sorted lexicographically.
    cols: Vec<Vec<Vid>>,
    /// Base-relation row ordinal of each sorted row (for consumers that
    /// need the stored values, e.g. selection predicates).
    ordinals: Vec<u32>,
    /// Probability of each sorted row.
    probs: Vec<f64>,
}

impl DeltaBatch {
    /// Build a batch from the unsorted appended rows
    /// `(encoded row, base ordinal, probability)`.
    pub fn from_rows(
        rel: RelId,
        base_rows: usize,
        arity: usize,
        mut rows: Vec<(Vec<Vid>, u32, f64)>,
    ) -> Self {
        // Distinct rows: the unstable sort is deterministic.
        rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut cols: Vec<Vec<Vid>> = vec![Vec::with_capacity(rows.len()); arity];
        let mut ordinals: Vec<u32> = Vec::with_capacity(rows.len());
        let mut probs: Vec<f64> = Vec::with_capacity(rows.len());
        for (row, ordinal, prob) in rows {
            debug_assert_eq!(row.len(), arity);
            for (col, vid) in cols.iter_mut().zip(row) {
                col.push(vid);
            }
            ordinals.push(ordinal);
            probs.push(prob);
        }
        DeltaBatch {
            rel,
            base_rows,
            arity,
            cols,
            ordinals,
            probs,
        }
    }

    /// Relation this batch extends.
    pub fn rel(&self) -> RelId {
        self.rel
    }

    /// Length of the base prefix the batch applies on top of.
    pub fn base_rows(&self) -> usize {
        self.base_rows
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of appended rows.
    pub fn len(&self) -> usize {
        self.ordinals.len()
    }

    /// True when nothing was appended.
    pub fn is_empty(&self) -> bool {
        self.ordinals.is_empty()
    }

    /// One column's vids, rows in batch (sorted) order.
    pub fn col(&self, c: usize) -> &[Vid] {
        &self.cols[c]
    }

    /// All columns, in relation column order.
    pub fn cols(&self) -> &[Vec<Vid>] {
        &self.cols
    }

    /// Probability of each row, in batch (sorted) order.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// One cell.
    pub fn cell(&self, row: usize, col: usize) -> Vid {
        self.cols[col][row]
    }

    /// Base-relation ordinal of one batch row.
    pub fn ordinal(&self, row: usize) -> u32 {
        self.ordinals[row]
    }

    /// Probability of one batch row.
    pub fn prob(&self, row: usize) -> f64 {
        self.probs[row]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_sorts_lexicographically() {
        let rows = vec![
            (vec![2, 1], 7, 0.5),
            (vec![1, 9], 5, 0.25),
            (vec![2, 0], 6, 0.75),
        ];
        let b = DeltaBatch::from_rows(3, 5, 2, rows);
        assert_eq!(b.rel(), 3);
        assert_eq!(b.base_rows(), 5);
        assert_eq!(b.arity(), 2);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(b.col(0), &[1, 2, 2]);
        assert_eq!(b.col(1), &[9, 0, 1]);
        assert_eq!(
            (0..3).map(|i| b.ordinal(i)).collect::<Vec<_>>(),
            vec![5, 6, 7]
        );
        assert_eq!(b.prob(0), 0.25);
        assert_eq!(b.cell(2, 1), 1);
    }

    #[test]
    fn empty_batch() {
        let b = DeltaBatch::from_rows(0, 4, 2, Vec::new());
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert_eq!(b.base_rows(), 4);
    }
}
