//! Intermediate relations and the physical operators.
//!
//! # Columnar sort-merge execution
//!
//! A [`Rel`] is a **sorted columnar batch**: one dense `Vec<Vid>` per
//! variable (struct-of-arrays) plus one score column, with rows kept in
//! *canonical order* — sorted lexicographically by the columns in `vars`
//! order, duplicates eliminated. Every operator both consumes and restores
//! that invariant, so the physical algebra is pure sort/merge:
//!
//! * **joins** — every join, with or without a projection over it — run
//!   through one kernel, `join_project`, folded pairwise along
//!   [`join_order`] (`join_fold`). The kernel merges its two inputs on
//!   their shared-variable key. An input whose key is a column prefix is
//!   consumed in place; any other key needs a *key order* — the row
//!   permutation sorting the relation by that key — which the relation
//!   itself builds on first use and keeps ([`Rel`]'s key orders), so
//!   nothing is sorted twice per evaluation: every later join of that
//!   relation on that key, from any plan, merges against the same order.
//!   The copy of a database base view (`Rel::from_view` — every unfiltered
//!   scan) goes one step further and reads the *view's* orders, sorted once
//!   per database state for every query, top-k pass and cached answer that
//!   scans the relation. The merge emits one sort key (the kept columns
//!   alone) and the product score per matching pair, one sort orders them,
//!   and each run of equal kept columns is one output row: a plain join
//!   keeps every column, so a run is one join row and its product is
//!   copied; a **projection directly over a join** folds the run as a
//!   projection group — the join's result is never materialized, and the
//!   bits are the two operators' bits (a group folds the same operand set
//!   either way, so the order of the pairs inside a run does not matter),
//! * **projections** are grouped scans over key-sorted runs — independent-OR
//!   (or 1 under deterministic semantics) over each run of equal group
//!   keys, a lower-bound column by `max`, no hash upserts,
//! * **`min`** is a pointwise merge of two sorted batches, in place on the
//!   accumulator when the key sets coincide (they do for plans of one
//!   query),
//! * duplicate elimination everywhere is "sort, then combine adjacent".
//!
//! Nothing on these paths hashes or allocates per row: sort keys pack up to
//! four vid columns into one `u128` (wider rows recurse on the remaining
//! columns), so merging compares plain integers, and every sort of a packed
//! key buffer — canonical sorts, key orders, tie runs and the join's pairs —
//! is one kernel, [`kernels::sort_keys`]: a radix sort over the bytes that
//! vary, scattering through a [`Scratch`] buffer that is idle at that
//! moment.
//!
//! Every operator runs on the calling thread, and nothing here reads a
//! thread budget.
//!
//! Determinism note: a projection group's score is a function of its
//! operand set — [`kernels::fold_or`] fixes the multiplication order
//! itself — so it does not depend on the canonical (sorted-vid) order the
//! rows are visited in, or on the order the database first saw its values.

use crate::kernels::{self, Key};
use lapush_query::Var;
use lapush_storage::{BaseView, Vid};
use std::sync::{Arc, Mutex};

/// The retired operator-parallelism budget: no operator reads it, every
/// operator runs serially. [`Rel::canonicalize`] and the `_par` entry
/// points still take one because the repo benchmark's layer harness
/// passes it; ROADMAP item 1b drops it with their suffix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Par;

impl Par {
    /// Serial execution — the only kind there is.
    pub fn serial() -> Par {
        Par
    }
}

/// Join inputs below this many rows keep their key order in the caller's
/// [`Scratch`] instead of on the relation: the order is then sorted per
/// join, as every order was before relations kept theirs, but costs no
/// lock and no allocation. Measured on the repo benchmark: with every
/// input cached, `plans-wide` (19 792 views of 100 rows) paid +13%
/// `topk_p10_ms` and +20% `peak_rss_mb`; with inputs under a few hundred
/// rows bypassing the cache it is neutral, and `chain7` (10 000-row scans)
/// keeps the whole gain.
pub(crate) const MIN_SHARED_ORDER_ROWS: usize = 256;

/// Reusable sort scratch: the packed-key buffers behind every key sort.
///
/// One `Scratch` lives in the evaluator's context and is threaded through
/// all operator calls of an evaluation, so projections and joins reuse the
/// same allocations instead of growing a fresh key vector per operator.
/// A sort ([`kernels::sort_keys`]) scatters through whichever buffer is
/// idle at that moment, named at each call, so no sort allocates its own.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Packed `(key, row)` pairs for the primary input of an operator; the
    /// scatter space of the join kernel's pair sort, once its merge is done.
    keys: Vec<Key>,
    /// Same, for the secondary (right/next) input; the scatter space of a
    /// projection's and a canonicalization's sort of `keys`.
    rkeys: Vec<Key>,
    /// The output sort keys of the join kernel ([`join_project`]), which
    /// reads its inputs through the two above; the scatter space of their
    /// sorts (key orders, `min`'s re-sort), which come before any pair.
    pairs: Vec<Key>,
    /// Recycled per-run buffers for tie resolution of keys wider than four
    /// columns (one buffer per active recursion depth; see
    /// [`resolve_ties`]).
    ties: Vec<Vec<Key>>,
}

/// An intermediate result: a bag of distinct variable bindings with scores,
/// stored columnar and in canonical (lexicographic) row order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Rel {
    /// Column variables, in order.
    pub vars: Vec<Var>,
    /// One vid column per variable; all the same length.
    cols: Vec<Vec<Vid>>,
    /// Score of each row.
    scores: Vec<f64>,
    /// Optional lower-bound score of each row — the `lo` of the anytime
    /// top-k `[lo, hi]` interval ([`crate::topk`]) and of the sandwich
    /// bounds ([`crate::propagation_bounds_ids`]): the probability of the
    /// row's best single derivation. Seeded on scans by
    /// [`Rel::seed_lower_bounds`]; an operator whose inputs all carry the
    /// column folds it in the same pass as the scores (joins multiply,
    /// projections and duplicate elimination take the `max`) and otherwise
    /// drops it, so the primary scores never depend on it.
    lo: Option<Vec<f64>>,
    /// Key orders built so far (see [`KeyOrders`]); not part of the value.
    orders: KeyOrders,
}

/// The lazily built **key orders** of one canonical relation: per set of
/// key columns a join has asked for, the permutation listing the rows in
/// `(key columns, row index)` order — a total order, so the permutation is
/// unique and does not depend on who built it.
///
/// * **Owned** by the relation, so every holder of a shared relation (the
///   evaluator's memo, the incremental evaluator's views) sees
///   the orders any other holder built — or, for the untouched copy of a
///   database base view ([`Rel::from_view`]), **the view's**: its rows are
///   the view's rows, so it reads and fills the orders every other copy of
///   that view shares. Nothing is kept for a key that is a column prefix —
///   the canonical order is that key's order.
/// * **Built** on the first join on that key, serially and under the lock
///   (a concurrent join on the same key waits and then shares the result).
/// * **Invalidated** by every mutator of the key columns (`push_row`,
///   `canonicalize`, the next-only rows of a `min`) — which also ends the
///   delegation to a view — never copied by `clone` (a clone is made to be
///   changed), ignored by `==`.
/// * **Dropped** with the relation, or early by [`Rel::drop_orders`]; a
///   view's orders live and die with the view.
///
/// 24 bytes: plan sets of tens of thousands of small views keep hundreds
/// of thousands of relations resident.
enum KeyOrders {
    Own(Mutex<Option<Box<KeyOrder>>>),
    Base(Arc<BaseView>),
}

/// One key order; a relation is joined on a handful of keys at most, so
/// they chain.
struct KeyOrder {
    key: Box<[usize]>,
    rows: Arc<[u32]>,
    next: Option<Box<KeyOrder>>,
}

/// Every update leaves the chain valid: a panic elsewhere while the lock
/// was held cannot have broken it.
fn lock_chain(
    chain: &Mutex<Option<Box<KeyOrder>>>,
) -> std::sync::MutexGuard<'_, Option<Box<KeyOrder>>> {
    chain.lock().unwrap_or_else(|e| e.into_inner())
}

impl KeyOrders {
    fn clear(&mut self) {
        match self {
            KeyOrders::Own(chain) => *chain.get_mut().unwrap_or_else(|e| e.into_inner()) = None,
            KeyOrders::Base(_) => *self = KeyOrders::default(),
        }
    }

    /// Orders this relation owns (a base view's are the view's).
    fn count(&self) -> usize {
        match self {
            KeyOrders::Own(chain) => {
                let head = lock_chain(chain);
                std::iter::successors(head.as_deref(), |o| o.next.as_deref()).count()
            }
            KeyOrders::Base(_) => 0,
        }
    }
}

impl Default for KeyOrders {
    fn default() -> Self {
        KeyOrders::Own(Mutex::new(None))
    }
}

impl Clone for KeyOrders {
    fn clone(&self) -> Self {
        KeyOrders::default()
    }
}

impl PartialEq for KeyOrders {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl std::fmt::Debug for KeyOrders {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeyOrders::Own(_) => write!(f, "KeyOrders({})", self.count()),
            KeyOrders::Base(view) => write!(f, "KeyOrders({view:?})"),
        }
    }
}

/// How a join reads one input in key order.
enum RowOrder<'a> {
    /// The key is a column prefix: canonical order is key order.
    Canonical,
    /// The relation's own key order, or its base view's.
    Shared(Arc<[u32]>),
    /// Sorted for this join only, into the caller's [`Scratch`], where the
    /// packed keys then are as well.
    Scratch(&'a [Key]),
}

impl Rel {
    /// Empty relation with the given columns.
    pub fn empty(vars: Vec<Var>) -> Self {
        let cols = vec![Vec::new(); vars.len()];
        Rel {
            vars,
            cols,
            scores: Vec::new(),
            lo: None,
            orders: KeyOrders::default(),
        }
    }

    /// Empty relation with room for `cap` rows (scans know their input
    /// size; avoids grow-and-move during the fill).
    pub fn with_capacity(vars: Vec<Var>, cap: usize) -> Self {
        let cols = columns(vars.len(), cap);
        Rel {
            vars,
            cols,
            scores: Vec::with_capacity(cap),
            lo: None,
            orders: KeyOrders::default(),
        }
    }

    /// A private copy of a database base view under a query's variable
    /// names: `vars[c]` names the relation's column `c`, `scores` gives
    /// each row's score (the view's probabilities, or whatever the score
    /// semantics puts in their place). The columns are copied — the caller
    /// may do with the result what it likes — but for as long as the rows
    /// stay untouched, joins read them through the *view's* key orders.
    pub(crate) fn from_view(vars: Vec<Var>, view: Arc<BaseView>, scores: Vec<f64>) -> Self {
        debug_assert_eq!(vars.len(), view.cols().len());
        debug_assert_eq!(scores.len(), view.len());
        Rel {
            vars,
            cols: view.cols().to_vec(),
            scores,
            lo: None,
            orders: KeyOrders::Base(view),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// True if no rows.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.vars.len()
    }

    /// Column position of a variable.
    pub fn col_of(&self, v: Var) -> Option<usize> {
        self.vars.iter().position(|&u| u == v)
    }

    /// One vid column.
    pub fn col(&self, c: usize) -> &[Vid] {
        &self.cols[c]
    }

    /// All score cells, in row order.
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// Vid at (`row`, `col`).
    pub fn get(&self, row: usize, col: usize) -> Vid {
        self.cols[col][row]
    }

    /// Score of one row.
    pub fn score(&self, row: usize) -> f64 {
        self.scores[row]
    }

    /// The lower-bound column, when this relation carries one.
    pub(crate) fn lower_bounds(&self) -> Option<&[f64]> {
        self.lo.as_deref()
    }

    /// Start the lower-bound column on a canonical scan result: a base
    /// tuple is its own best derivation, so `lo = score`.
    pub(crate) fn seed_lower_bounds(&mut self) {
        self.lo = Some(self.scores.clone());
    }

    /// Stop carrying the lower-bound column (the scores are untouched).
    pub(crate) fn drop_lower_bounds(&mut self) -> Option<Vec<f64>> {
        self.lo.take()
    }

    /// The listed rows (ascending, so the result is canonical), with their
    /// scores and lower bounds.
    pub(crate) fn gather(&self, rows: &[u32]) -> Rel {
        let pick = |src: &[f64]| rows.iter().map(|&r| src[r as usize]).collect();
        let mut cols = vec![Vec::new(); self.arity()];
        for (out, col) in cols.iter_mut().zip(&self.cols) {
            kernels::gather_u32(col, rows, out);
        }
        Rel {
            vars: self.vars.clone(),
            cols,
            scores: pick(&self.scores),
            lo: self.lo.as_deref().map(pick),
            orders: KeyOrders::default(),
        }
    }

    /// Append one row (breaks canonical order; call
    /// [`Rel::canonicalize`] before handing the relation to an operator).
    pub fn push_row(&mut self, row: &[Vid], score: f64) {
        debug_assert_eq!(row.len(), self.arity());
        self.orders.clear();
        for (col, &v) in self.cols.iter_mut().zip(row) {
            col.push(v);
        }
        self.scores.push(score);
    }

    /// How to read this canonical relation in the order of its columns
    /// `key` (then row index). Free when `key` is a column prefix;
    /// otherwise the relation's key order ([`KeyOrders`]: its own, or its
    /// base view's), sorted on first use — or, under
    /// [`MIN_SHARED_ORDER_ROWS`] rows, a sort into `keys` that nobody else
    /// sees. A sort scatters through `spare`.
    fn key_order<'s>(
        &self,
        key: &[usize],
        keys: &'s mut Vec<Key>,
        spare: &mut Vec<Key>,
        ties: &mut Vec<Vec<Key>>,
    ) -> RowOrder<'s> {
        if key.iter().copied().eq(0..key.len()) {
            return RowOrder::Canonical;
        }
        let mut sort = |keys: &mut Vec<Key>| {
            let cols: Vec<&[Vid]> = key.iter().map(|&c| self.col(c)).collect();
            sort_rows(&cols, self.len(), false, keys, spare, ties);
        };
        if self.len() < MIN_SHARED_ORDER_ROWS {
            sort(keys);
            return RowOrder::Scratch(keys);
        }
        let mut build = |keys: &mut Vec<Key>| {
            sort(keys);
            #[cfg(test)]
            order_log::record(self, key);
            keys.iter().map(|e| e.row).collect::<Arc<[u32]>>()
        };
        let chain = match &self.orders {
            KeyOrders::Base(view) => {
                return RowOrder::Shared(view.key_order(key, || build(keys)));
            }
            KeyOrders::Own(chain) => chain,
        };
        let mut head = lock_chain(chain);
        let found = std::iter::successors(head.as_deref(), |o| o.next.as_deref())
            .find(|o| *o.key == *key)
            .map(|o| Arc::clone(&o.rows));
        if let Some(rows) = found {
            return RowOrder::Shared(rows);
        }
        let rows = build(keys);
        *head = Some(Box::new(KeyOrder {
            key: key.into(),
            rows: Arc::clone(&rows),
            next: head.take(),
        }));
        RowOrder::Shared(rows)
    }

    /// Forget every key order this relation built for itself (a later
    /// join rebuilds what it needs). For holders that keep a relation long
    /// after the evaluation that joined it — the incremental evaluator's
    /// views. The orders of a base view are not this relation's to drop:
    /// they are bounded by the database, not by how many copies exist.
    pub(crate) fn drop_orders(&self) {
        if let KeyOrders::Own(chain) = &self.orders {
            *lock_chain(chain) = None;
        }
    }

    /// Number of key orders this relation itself keeps (none for the copy
    /// of a base view: those are the view's).
    pub(crate) fn cached_orders(&self) -> usize {
        self.orders.count()
    }

    /// Score of the row with exactly these vids, via binary search over the
    /// canonical order (`None` if absent).
    pub fn score_of_row(&self, row: &[Vid]) -> Option<f64> {
        debug_assert_eq!(row.len(), self.arity());
        let mut lo = 0usize;
        let mut hi = self.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.cmp_row_to(mid, row) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(self.scores[mid]),
            }
        }
        None
    }

    /// Range of rows whose first `key.len()` columns equal `key`, via
    /// binary search over the canonical order. With group columns that are
    /// a prefix of the column order this is exactly one projection group's
    /// operands — how the incremental evaluator finds a touched group
    /// without a pass over the relation.
    pub fn prefix_run(&self, key: &[Vid]) -> std::ops::Range<usize> {
        debug_assert!(key.len() <= self.arity());
        let cmp = |row: usize| -> std::cmp::Ordering {
            for (col, &w) in self.cols[..key.len()].iter().zip(key) {
                match col[row].cmp(&w) {
                    std::cmp::Ordering::Equal => {}
                    other => return other,
                }
            }
            std::cmp::Ordering::Equal
        };
        let (mut lo, mut hi) = (0usize, self.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if cmp(mid) == std::cmp::Ordering::Less {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let start = lo;
        let mut hi = self.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            if cmp(mid) == std::cmp::Ordering::Greater {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        start..lo
    }

    fn cmp_row_to(&self, row: usize, want: &[Vid]) -> std::cmp::Ordering {
        for (col, &w) in self.cols.iter().zip(want) {
            match col[row].cmp(&w) {
                std::cmp::Ordering::Equal => {}
                other => return other,
            }
        }
        std::cmp::Ordering::Equal
    }

    /// Restore the canonical invariant: sort rows lexicographically by all
    /// columns and combine duplicates with `max` (a lower-bound column
    /// rides the same permutation and folds the same way).
    pub fn canonicalize(&mut self, _par: Par, scratch: &mut Scratch) {
        self.orders.clear();
        canonicalize_columns(&mut self.cols, &mut self.scores, self.lo.as_mut(), scratch);
    }

    /// Debug check of the canonical invariant (sorted, distinct).
    #[cfg(debug_assertions)]
    fn assert_canonical(&self) {
        let cols: Vec<&[Vid]> = self.cols.iter().map(Vec::as_slice).collect();
        for i in 1..self.len() {
            let ord = cols
                .iter()
                .map(|c| c[i - 1].cmp(&c[i]))
                .find(|o| *o != std::cmp::Ordering::Equal)
                .unwrap_or(std::cmp::Ordering::Equal);
            debug_assert_eq!(ord, std::cmp::Ordering::Less, "rows out of order at {i}");
        }
    }

    #[cfg(not(debug_assertions))]
    fn assert_canonical(&self) {}
}

/// [`Rel::canonicalize`] on bare columns — all a relation is before it has
/// variable names (the builder of a database base view sorts these): sort
/// the rows lexicographically, keep one row per distinct run and fold its
/// `scores` (and `lo`, when given) with `max`.
pub(crate) fn canonicalize_columns(
    cols: &mut [Vec<Vid>],
    scores: &mut Vec<f64>,
    lo: Option<&mut Vec<f64>>,
    scratch: &mut Scratch,
) {
    let n = scores.len();
    debug_assert!(lo.as_ref().map_or(true, |lo| lo.len() == n));
    if n <= 1 {
        return;
    }
    let views: Vec<&[Vid]> = cols.iter().map(Vec::as_slice).collect();
    let Scratch {
        keys, rkeys, ties, ..
    } = scratch;
    sort_rows(&views, n, false, keys, rkeys, ties);
    // Keep the first row of every distinct run; fold duplicate scores
    // with max (order-independent, so dedup order cannot matter).
    let keys = &*keys;
    let mut keep: Vec<u32> = Vec::with_capacity(n);
    let mut kept_scores: Vec<f64> = Vec::with_capacity(n);
    let mut kept_lo: Vec<f64> = Vec::new();
    let mut pos = 0usize;
    while pos < n {
        let end = run_end_full(&views, keys, pos);
        keep.push(keys[pos].row);
        kept_scores.push(kernels::fold_max(scores, &keys[pos..end]));
        if let Some(lo) = &lo {
            kept_lo.push(kernels::fold_max(lo, &keys[pos..end]));
        }
        pos = end;
    }
    let identity = keep.len() == n && keep.iter().enumerate().all(|(i, &r)| r as usize == i);
    drop(views);
    if !identity {
        let mut tmp: Vec<Vid> = Vec::new();
        for col in cols {
            kernels::gather_u32(col, &keep, &mut tmp);
            std::mem::swap(col, &mut tmp);
        }
    }
    *scores = kept_scores;
    if let Some(lo) = lo {
        *lo = kept_lo;
    }
}

// ---------------------------------------------------------------------------
// Sorted row orders: packed integer keys
// ---------------------------------------------------------------------------

/// Fill `keys` with `(packed key, row)` entries for rows `0..n`, sorted by
/// the key columns and then by row index (a total order, so the resulting
/// permutation is unique) through `spare`. With `presorted` the rows are
/// known to already be in key order and only the packing happens. Keys
/// wider than four columns are resolved by recursion on the equal-prefix
/// runs, reusing the per-depth `ties` buffers.
fn sort_rows(
    cols: &[&[Vid]],
    n: usize,
    presorted: bool,
    keys: &mut Vec<Key>,
    spare: &mut Vec<Key>,
    ties: &mut Vec<Vec<Key>>,
) {
    keys.clear();
    keys.resize(n, Key { k: 0, row: 0 });
    kernels::pack_keys(&cols[..cols.len().min(4)], 0, n as u32, keys);
    if presorted {
        return;
    }
    kernels::sort_keys(keys, spare);
    if cols.len() > 4 {
        resolve_ties(cols, keys, 4, spare, ties, 0);
    }
}

/// Sort the equal-packed-prefix runs of `keys` by the columns from `depth`
/// on (recursing in groups of four), finally by row index. Each recursion
/// level reuses one scratch buffer from `ties` ([`kernels::pack_rekey`]
/// clears it) and every run scatters through `spare`, so tie resolution
/// allocates nothing in steady state.
fn resolve_ties(
    cols: &[&[Vid]],
    keys: &mut [Key],
    depth: usize,
    spare: &mut Vec<Key>,
    ties: &mut Vec<Vec<Key>>,
    level: usize,
) {
    if ties.len() <= level {
        ties.push(Vec::new());
    }
    let deeper = &cols[depth..(depth + 4).min(cols.len())];
    let mut start = 0;
    while start < keys.len() {
        let end = kernels::run_end(keys, start);
        if end - start > 1 {
            let mut buf = std::mem::take(&mut ties[level]);
            kernels::pack_rekey(deeper, &keys[start..end], &mut buf);
            kernels::sort_keys(&mut buf, spare);
            if depth + 4 < cols.len() {
                resolve_ties(cols, &mut buf, depth + 4, spare, ties, level + 1);
            }
            for (slot, e) in keys[start..end].iter_mut().zip(&buf) {
                slot.row = e.row;
            }
            ties[level] = buf;
        }
        start = end;
    }
}

/// End of the run of entries equal to `keys[start]` on **every** key
/// column. [`kernels::run_end`] decides on the packed prefix; keys wider
/// than four columns additionally split the packed run on the unpacked
/// tail columns (full-key-equal rows are contiguous after
/// [`resolve_ties`], so a forward scan suffices).
#[inline]
fn run_end_full(cols: &[&[Vid]], keys: &[Key], start: usize) -> usize {
    let end = kernels::run_end(keys, start);
    if cols.len() <= 4 {
        return end;
    }
    let ra = keys[start].row as usize;
    let tail = &cols[4..];
    let mut e = start + 1;
    while e < end && tail.iter().all(|c| c[keys[e].row as usize] == c[ra]) {
        e += 1;
    }
    e
}

/// `arity` empty columns with room for `rows` rows each.
fn columns(arity: usize, rows: usize) -> Vec<Vec<Vid>> {
    (0..arity).map(|_| Vec::with_capacity(rows)).collect()
}

/// Number of runs [`run_end_full`] cuts the sorted `keys` into — the
/// output rows of a fold over them, counted before its columns are
/// allocated so that they hold no slack.
fn count_runs(cols: &[&[Vid]], keys: &[Key]) -> usize {
    let (mut runs, mut pos) = (0, 0);
    while pos < keys.len() {
        pos = run_end_full(cols, keys, pos);
        runs += 1;
    }
    runs
}

// ---------------------------------------------------------------------------
// Join
// ---------------------------------------------------------------------------

/// One join input read in join-key order: sorted position → row, and →
/// packed key, computed from the key columns on demand — no packed copy of
/// the input is made, so a join costs what its merge visits, not what its
/// inputs hold.
struct KeyView<'a> {
    rel: &'a Rel,
    /// Key columns of `rel`, in key order.
    key: &'a [usize],
    /// The packed prefix: the first `width` (≤ 4) key columns.
    head: [&'a [Vid]; 4],
    width: usize,
    order: &'a RowOrder<'a>,
}

impl<'a> KeyView<'a> {
    fn new(rel: &'a Rel, key: &'a [usize], order: &'a RowOrder<'a>) -> Self {
        let mut head: [&[Vid]; 4] = [&[]; 4];
        for (slot, &c) in head.iter_mut().zip(key) {
            *slot = rel.col(c);
        }
        KeyView {
            rel,
            key,
            head,
            width: key.len().min(4),
            order,
        }
    }

    #[inline]
    fn row(&self, pos: usize) -> usize {
        match self.order {
            RowOrder::Canonical => pos,
            RowOrder::Shared(rows) => rows[pos] as usize,
            RowOrder::Scratch(keys) => keys[pos].row as usize,
        }
    }

    /// The first four key columns at `pos`, packed as [`kernels::pack_keys`]
    /// packs them.
    #[inline]
    fn packed(&self, pos: usize) -> u128 {
        if let RowOrder::Scratch(keys) = self.order {
            return keys[pos].k;
        }
        let row = self.row(pos);
        if self.width == 1 {
            return self.head[0][row] as u128;
        }
        lapush_storage::pack_vids(self.head[..self.width].iter().map(|col| col[row]))
    }

    /// Order of the key columns beyond the packed four at `pos` against
    /// `other`'s at `opos` (`Equal` for keys that fit the packed prefix).
    #[inline]
    fn cmp_tail(&self, pos: usize, other: &KeyView<'_>, opos: usize) -> std::cmp::Ordering {
        if self.key.len() <= 4 {
            return std::cmp::Ordering::Equal;
        }
        let (row, orow) = (self.row(pos), other.row(opos));
        let tail = self.key[4..].iter().zip(&other.key[4..]);
        tail.map(|(&c, &oc)| self.rel.cols[c][row].cmp(&other.rel.cols[oc][orow]))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    }

    /// End of the run of positions whose key equals the one at `start`
    /// (packed: `packed`) on every key column, and the packed key there
    /// (unspecified at the end of the input).
    #[inline]
    fn run_end(&self, start: usize, packed: u128) -> (usize, u128) {
        for pos in start + 1..self.rel.len() {
            let next = self.packed(pos);
            if next != packed || self.cmp_tail(start, self, pos).is_ne() {
                return (pos, next);
            }
        }
        (self.rel.len(), packed)
    }

    /// First position `>= start` whose packed key is `>= target`.
    #[inline]
    fn gallop_ge(&self, start: usize, target: u128) -> usize {
        kernels::gallop_ge_by(self.rel.len(), start, target, |pos| self.packed(pos))
    }
}

/// The column layout of `left ⋈ right`: the join key — the shared
/// variables, in left column order — as column positions on either side,
/// and the right-only columns, which follow the left columns in the output.
struct JoinCols {
    lkey: Vec<usize>,
    rkey: Vec<usize>,
    right_only: Vec<usize>,
}

impl JoinCols {
    fn of(left: &Rel, right: &Rel) -> Self {
        let (lkey, rkey): (Vec<usize>, Vec<usize>) = (left.vars.iter().enumerate())
            .filter_map(|(li, &v)| right.col_of(v).map(|ri| (li, ri)))
            .unzip();
        let right_only = (0..right.arity()).filter(|ri| !rkey.contains(ri)).collect();
        JoinCols {
            lkey,
            rkey,
            right_only,
        }
    }

    /// The join's output variables: left columns, then right-only ones.
    fn out_vars(&self, left: &Rel, right: &Rel) -> Vec<Var> {
        let mut out = left.vars.clone();
        out.extend(self.right_only.iter().map(|&ri| right.vars[ri]));
        out
    }
}

/// One matching key block of a merge join: positions `l0..l1` of the left
/// key order and `r0..r1` of the right one share a join key, and each pair
/// of their cross product is one join row.
struct Block {
    l0: usize,
    l1: usize,
    r0: usize,
    r1: usize,
}

/// The merge of every join: the matching key blocks of `l` and `r` in key
/// order, and the number of output rows they make. Mismatching sides
/// advance by galloping on the packed key: the skip lands on the first
/// position whose packed prefix could match (exact for keys of up to four
/// columns; a safe underestimate for wider keys, whose unpacked tail the
/// next `cmp_tail` re-checks).
fn match_blocks(l: &KeyView<'_>, r: &KeyView<'_>) -> (Vec<Block>, usize) {
    let (ln, rn) = (l.rel.len(), r.rel.len());
    let mut blocks: Vec<Block> = Vec::new();
    let mut m = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    // The packed keys at `i` and `j`, carried from step to step: every
    // position the merge visits is packed once.
    let (mut lk, mut rk) = (0u128, 0u128);
    if ln > 0 && rn > 0 {
        (lk, rk) = (l.packed(0), r.packed(0));
    }
    while i < ln && j < rn {
        match lk.cmp(&rk).then_with(|| l.cmp_tail(i, r, j)) {
            std::cmp::Ordering::Less => {
                i = l.gallop_ge(i + 1, rk);
                if i < ln {
                    lk = l.packed(i);
                }
            }
            std::cmp::Ordering::Greater => {
                j = r.gallop_ge(j + 1, lk);
                if j < rn {
                    rk = r.packed(j);
                }
            }
            std::cmp::Ordering::Equal => {
                let (i1, lnext) = l.run_end(i, lk);
                let (j1, rnext) = r.run_end(j, rk);
                blocks.push(Block {
                    l0: i,
                    l1: i1,
                    r0: j,
                    r1: j1,
                });
                m += (i1 - i) * (j1 - j);
                (i, lk, j, rk) = (i1, lnext, j1, rnext);
            }
        }
    }
    (blocks, m)
}

/// Compare the key at sorted position `i` of the left order with the key at
/// `j` of the right order. Packed prefixes decide up to four columns; wider
/// keys compare the remaining columns directly.
#[inline]
fn block_cmp(
    lcols: &[&[Vid]],
    lkeys: &[Key],
    i: usize,
    rcols: &[&[Vid]],
    rkeys: &[Key],
    j: usize,
) -> std::cmp::Ordering {
    match lkeys[i].k.cmp(&rkeys[j].k) {
        std::cmp::Ordering::Equal => {}
        other => return other,
    }
    if lcols.len() <= 4 {
        return std::cmp::Ordering::Equal;
    }
    let (lr, rr) = (lkeys[i].row as usize, rkeys[j].row as usize);
    for (lc, rc) in lcols[4..].iter().zip(&rcols[4..]) {
        match lc[lr].cmp(&rc[rr]) {
            std::cmp::Ordering::Equal => {}
            other => return other,
        }
    }
    std::cmp::Ordering::Equal
}

/// Join many relations (borrowed: the evaluator shares children through
/// its memo and must not clone them to join): `join_fold` with every
/// column kept.
pub fn join_many_par(inputs: &[&Rel], _par: Par, scratch: &mut Scratch) -> Rel {
    join_fold(inputs, None, None, scratch)
}

/// The one multi-way join: `inputs` fold pairwise through [`join_project`]
/// in [`join_order`]. Every step keeps every column but the last, which
/// takes `proj` — so a projection over a join never materializes the
/// join's result, and a plain join is the same fold with nothing dropped.
/// With `mids`, every intermediate accumulator (each step's result but the
/// last) is pushed there, in [`join_order`]: the incremental evaluator
/// replays the fold on deltas against them.
pub(crate) fn join_fold(
    inputs: &[&Rel],
    proj: Option<(&[Var], ProjFold)>,
    mut mids: Option<&mut Vec<Rel>>,
    scratch: &mut Scratch,
) -> Rel {
    let order = join_order(inputs);
    let mut acc: Option<Rel> = None;
    for (step, &ix) in order.iter().enumerate().skip(1) {
        let step_proj = proj.filter(|_| step + 1 == order.len());
        let left = acc.as_ref().unwrap_or(inputs[order[0]]);
        let next = join_project(left, inputs[ix], step_proj, scratch);
        if let (Some(mid), Some(mids)) = (acc.replace(next), mids.as_deref_mut()) {
            mids.push(mid);
        }
    }
    // A join of one input is the input (the plan store never builds one).
    acc.unwrap_or_else(|| match proj {
        None => inputs[0].clone(),
        Some((keep, fold)) => project_fold(inputs[0], keep, fold, scratch),
    })
}

/// The one join kernel: `left ⋈ right` — or, with `proj` =
/// `Some((keep, fold))`, `π_keep(left ⋈ right)` — in one merge, one sort
/// and one pass over the sorted runs. Scores multiply (independent-AND);
/// a lower-bound column, when both inputs carry one, multiplies in the
/// same pass. The output columns are `left`'s variables, then `right`'s
/// new ones — or `keep`, in `keep` order.
///
/// A sort-merge join: each input is read in join-key order — free when the
/// key is a column prefix (the canonical sort then already is key order),
/// otherwise through the input's own key order ([`Rel`] sorts each key
/// once and keeps it, so a relation joined by many plans is sorted by one
/// of them) — and the matching key blocks are enumerated by a galloping
/// merge ([`match_blocks`]; `O(small · log big)` steps when the sides are
/// lopsided). Per matching pair it emits a sort key and the product score;
/// one sort orders the pairs by the kept columns, and each run of equal
/// kept columns becomes one output row:
///
/// * a join (`proj` = `None`) keeps every column, so each run is one join
///   row — join rows are distinct — and its product is copied, unfolded;
/// * a projection folds each run as [`project_fold`] folds a group, even a
///   run of one (`1 − (1 − p)` need not be `p`): a run holds exactly the
///   group's operands and the fold is order-free, so the bits are those of
///   `project_fold` over the join.
///
/// A pair's sort key is its kept columns alone, in `keep` order: up to four
/// pack into one `u128`, so the runs are the runs of equal packed keys
/// ([`kernels::sort_keys`]; keeping nothing makes one run, and no sort);
/// more are emitted as columns and sorted as every wide sort is
/// ([`sort_rows`], tie resolution beyond the packed four).
pub(crate) fn join_project(
    left: &Rel,
    right: &Rel,
    proj: Option<(&[Var], ProjFold)>,
    scratch: &mut Scratch,
) -> Rel {
    left.assert_canonical();
    right.assert_canonical();
    let jc = JoinCols::of(left, right);
    let out_vars = jc.out_vars(left, right);
    let keep = proj.map_or(out_vars.as_slice(), |(keep, _)| keep);
    let fold = proj.map(|(_, fold)| fold);
    // Each kept variable's join output column: a column of `left`, or past
    // `left.arity()` a right-only one.
    let kept_cols: Vec<usize> = (keep.iter())
        .map(|&v| out_vars.iter().position(|&u| u == v))
        .collect::<Option<_>>()
        .expect("projection var missing");
    let kept = keep.len();
    let packed = kept <= 4;
    // Where each packed kept column sits in the key, per side.
    let mut lparts: Vec<(&[Vid], usize)> = Vec::new();
    let mut rparts: Vec<(&[Vid], usize)> = Vec::new();
    for (i, &c) in kept_cols.iter().enumerate().filter(|_| packed) {
        let shift = 32 * (kept - 1 - i);
        match c.checked_sub(left.arity()) {
            None => lparts.push((left.col(c), shift)),
            Some(ri) => rparts.push((right.col(jc.right_only[ri]), shift)),
        }
    }
    let pack = |parts: &[(&[Vid], usize)], row: usize| {
        (parts.iter()).fold(0u128, |k, &(col, s)| k | ((col[row] as u128) << s))
    };

    // Merge, and emit per matching pair its product score and its kept
    // columns: packed into `pairs`, numbered in emission order, or as
    // columns.
    let aux = left.lower_bounds().zip(right.lower_bounds());
    let Scratch {
        keys,
        rkeys,
        ties,
        pairs,
    } = &mut *scratch;
    let mut wide_cols: Vec<Vec<Vid>> = Vec::new();
    let mut scores: Vec<f64> = Vec::new();
    let mut lo: Vec<f64> = Vec::new();
    {
        // A small input's key order sorts into `keys` or `rkeys` and is
        // read from there until every pair is out.
        let lorder = left.key_order(&jc.lkey, keys, pairs, ties);
        let rorder = right.key_order(&jc.rkey, rkeys, pairs, ties);
        let (l, r) = (
            KeyView::new(left, &jc.lkey, &lorder),
            KeyView::new(right, &jc.rkey, &rorder),
        );
        let (blocks, m) = match_blocks(&l, &r);
        scores.reserve_exact(m);
        lo.reserve_exact(if aux.is_some() { m } else { 0 });
        if packed {
            pairs.clear();
            pairs.reserve(m);
        } else {
            wide_cols = columns(kept, m);
        }
        for b in &blocks {
            for lpos in b.l0..b.l1 {
                let lrow = l.row(lpos);
                let (lk, ls) = (pack(&lparts, lrow), left.score(lrow));
                for rpos in b.r0..b.r1 {
                    let rrow = r.row(rpos);
                    if packed {
                        let row = scores.len() as u32;
                        let k = lk | pack(&rparts, rrow);
                        pairs.push(Key { k, row });
                    } else {
                        for (col, &c) in wide_cols.iter_mut().zip(&kept_cols) {
                            col.push(match c.checked_sub(left.arity()) {
                                None => left.get(lrow, c),
                                Some(ri) => right.get(rrow, jc.right_only[ri]),
                            });
                        }
                    }
                    scores.push(ls * right.score(rrow));
                    if let Some((la, ra)) = aux {
                        lo.push(la[lrow] * ra[rrow]);
                    }
                }
            }
        }
    }

    // Sort the pairs by their kept columns (the key orders are done with
    // `keys`: it is the scatter space now) and fold each run into one row.
    // Runs are exactly the groups, and a group folds order-free, so the
    // order inside a run does not matter; a join's runs are single rows.
    let m = scores.len();
    let views: Vec<&[Vid]> = wide_cols.iter().map(Vec::as_slice).collect();
    if !packed {
        sort_rows(&views, m, false, pairs, keys, ties);
    } else if kept > 0 {
        kernels::sort_keys(pairs, keys);
    }
    // The output is sized exactly, once its row count is known (a join's
    // is `m`): memoized and captured results stay resident.
    let rows = fold.map_or(m, |_| count_runs(&views, pairs));
    let mut out_cols = columns(kept, rows);
    let mut out_scores: Vec<f64> = Vec::with_capacity(rows);
    let mut out_lo: Vec<f64> = Vec::with_capacity(if aux.is_some() { rows } else { 0 });
    let mut pos = 0usize;
    while pos < m {
        let end = run_end_full(&views, pairs, pos);
        let run = &pairs[pos..end];
        out_scores.push(fold_run(fold, &scores, run));
        if aux.is_some() {
            out_lo.push(kernels::fold_max(&lo, run));
        }
        let Key { k, row } = pairs[pos];
        for (i, out) in out_cols.iter_mut().enumerate() {
            out.push(if packed {
                (k >> (32 * (kept - 1 - i))) as Vid
            } else {
                views[i][row as usize]
            });
        }
        pos = end;
    }
    let out = Rel {
        vars: keep.to_vec(),
        cols: out_cols,
        scores: out_scores,
        lo: aux.map(|_| out_lo),
        orders: KeyOrders::default(),
    };
    out.assert_canonical();
    out
}

/// The score of one output row from the `scores` of its run: a projection
/// folds them; a join's run is one row, whose product is copied.
fn fold_run(fold: Option<ProjFold>, scores: &[f64], run: &[Key]) -> f64 {
    match fold {
        None => {
            debug_assert_eq!(run.len(), 1, "join rows are distinct");
            scores[run[0].row as usize]
        }
        Some(ProjFold::IndependentOr) => {
            kernels::fold_or(run.iter().map(|e| scores[e.row as usize]))
        }
        Some(ProjFold::One) => 1.0,
    }
}

/// The fold order of every multi-way join, as input indices: a function
/// of the inputs' variables alone, so a plan's join keeps one order and
/// one column layout whatever the row counts. Start from the first input
/// whose leading column is a variable another input shares — its
/// canonical sort order is then already the first step's key order —
/// else from input 0; then repeatedly take the first remaining input
/// sharing a variable with the columns joined so far, else (a cartesian
/// product is unavoidable) the first remaining input.
pub fn join_order(inputs: &[&Rel]) -> Vec<usize> {
    assert!(!inputs.is_empty(), "join of zero inputs");
    let shared =
        |i: usize, v: Var| (inputs.iter().enumerate()).any(|(j, r)| j != i && r.vars.contains(&v));
    let start = (0..inputs.len())
        .find(|&i| inputs[i].vars.first().is_some_and(|&v| shared(i, v)))
        .unwrap_or(0);
    let mut remaining: Vec<usize> = (0..inputs.len()).filter(|&i| i != start).collect();
    let mut order = vec![start];
    let mut acc_vars: Vec<Var> = inputs[start].vars.clone();
    while !remaining.is_empty() {
        let connected = |&i: &usize| inputs[i].vars.iter().any(|v| acc_vars.contains(v));
        let at = remaining.iter().position(connected).unwrap_or(0);
        let ix = remaining.remove(at);
        for &v in &inputs[ix].vars {
            if !acc_vars.contains(&v) {
                acc_vars.push(v);
            }
        }
        order.push(ix);
    }
    order
}

// ---------------------------------------------------------------------------
// Projections: grouped scans over key-sorted runs
// ---------------------------------------------------------------------------

/// How a projection folds the scores of one group.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ProjFold {
    /// Independent-OR: accumulate `∏(1 − pᵢ)`, emit `1 − ∏`.
    IndependentOr,
    /// Constant 1 (deterministic `SELECT DISTINCT`).
    One,
}

/// The grouped scan behind every projection. A lower-bound column on the
/// input folds over the same group runs, in the same pass, with `max` —
/// the group's best single derivation — while the scores fold as `fold`
/// says, bit-identical to an input without it.
pub(crate) fn project_fold(
    input: &Rel,
    keep: &[Var],
    fold: ProjFold,
    scratch: &mut Scratch,
) -> Rel {
    input.assert_canonical();
    let aux = input.lower_bounds();
    let cols_idx: Vec<usize> = keep
        .iter()
        .map(|&v| input.col_of(v).expect("projection var missing"))
        .collect();
    let key_cols: Vec<&[Vid]> = cols_idx.iter().map(|&c| input.col(c)).collect();
    // When the group columns are a prefix of the canonical order the input
    // is already grouped — the "sort" is a plain packing pass.
    let presorted = cols_idx.iter().enumerate().all(|(i, &c)| c == i);
    let Scratch {
        keys, rkeys, ties, ..
    } = scratch;
    sort_rows(&key_cols, input.len(), presorted, keys, rkeys, ties);
    let keys = &*keys;

    let groups = count_runs(&key_cols, keys);
    let mut out_cols = columns(keep.len(), groups);
    let mut out_scores: Vec<f64> = Vec::with_capacity(groups);
    let mut out_aux: Vec<f64> = Vec::with_capacity(if aux.is_some() { groups } else { 0 });
    let mut pos = 0usize;
    while pos < keys.len() {
        let end = run_end_full(&key_cols, keys, pos);
        let run = &keys[pos..end];
        out_scores.push(fold_run(Some(fold), input.scores(), run));
        if let Some(a) = aux {
            out_aux.push(kernels::fold_max(a, run));
        }
        let row = keys[pos].row as usize;
        for (out, &kc) in out_cols.iter_mut().zip(&key_cols) {
            out.push(kc[row]);
        }
        pos = end;
    }

    let out = Rel {
        vars: keep.to_vec(),
        cols: out_cols,
        scores: out_scores,
        lo: aux.map(|_| out_aux),
        orders: KeyOrders::default(),
    };
    // Groups were emitted in group-key order, which *is* the canonical
    // order of the output columns; groups are distinct by construction.
    out.assert_canonical();
    out
}

/// Probabilistic projection with duplicate elimination: group by `keep`
/// columns, combine group members with independent-OR
/// (`1 − ∏(1 − pᵢ)`).
pub fn project_prob_par(input: &Rel, keep: &[Var], _par: Par, scratch: &mut Scratch) -> Rel {
    project_fold(input, keep, ProjFold::IndependentOr, scratch)
}

// ---------------------------------------------------------------------------
// Pointwise min: sorted merges
// ---------------------------------------------------------------------------

/// Fold `next` into `acc` by per-tuple minimum, aligning `next`'s columns
/// to `acc`'s order. The incremental form of [`min_combine_par`], used by
/// `propagation_score_ids` to accumulate the min over plans.
///
/// Both inputs are sorted, so this is a pointwise merge. When the key sets
/// coincide — they do for plans of the same query, the only caller on the
/// hot path — the merge runs **fully in place** on `acc`'s score column:
/// no map, no fresh vector, not even a staging buffer. Keys present only
/// in `next` are collected and merged in with one allocation per column.
/// The scratch is only touched when `next`'s column order differs from
/// `acc`'s and a key re-sort is needed.
pub fn min_into_par(acc: &mut Rel, next: &Rel, _par: Par, scratch: &mut Scratch) {
    min_into_impl(acc, next, scratch, true);
}

/// [`min_into_par`], or with `keep_extras` off its restriction to `acc`'s
/// key set: keys present only in `next` are *dropped* instead of merged
/// in. The top-k driver uses that form — `acc` holds the surviving answer
/// groups, and later plans are evaluated over survivor-filtered inputs
/// that may still produce rows for already-pruned groups. Matching keys
/// take the exact same in-place pointwise min either way, so surviving
/// scores stay bit-identical.
pub(crate) fn min_into_impl(acc: &mut Rel, next: &Rel, scratch: &mut Scratch, keep_extras: bool) {
    acc.assert_canonical();
    next.assert_canonical();
    // A min over alternatives has no single best derivation to track.
    acc.lo = None;
    let perm: Vec<usize> = acc
        .vars
        .iter()
        .map(|&v| next.col_of(v).expect("min over mismatched vars"))
        .collect();
    let identity = perm.iter().copied().eq(0..perm.len());
    let next_cols: Vec<&[Vid]> = perm.iter().map(|&c| next.col(c)).collect();
    // Bring `next` into acc-column order (free when the orders agree) and
    // pack acc's rows too (canonical order *is* key order, so the pack is
    // a presorted pass): the merge below then compares packed keys.
    let Scratch {
        keys,
        rkeys,
        pairs,
        ties,
    } = scratch;
    sort_rows(&next_cols, next.len(), identity, rkeys, pairs, ties);
    let nkeys = &*rkeys;
    let acc_cols: Vec<&[Vid]> = acc.cols.iter().map(Vec::as_slice).collect();
    sort_rows(&acc_cols, acc.len(), true, keys, pairs, ties);
    let akeys = &*keys;

    // In-place pointwise min; extras are the next-only keys.
    let mut extras: Vec<u32> = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < acc.len() && j < nkeys.len() {
        match block_cmp(&acc_cols, akeys, i, &next_cols, nkeys, j) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => {
                extras.push(nkeys[j].row);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                let s = next.score(nkeys[j].row as usize);
                let cur = &mut acc.scores[i];
                *cur = cur.min(s);
                i += 1;
                j += 1;
            }
        }
    }
    extras.extend(nkeys[j..].iter().map(|e| e.row));
    drop(acc_cols);
    if extras.is_empty() || !keep_extras {
        return;
    }

    // Rare path (plans of different queries / tests): merge the next-only
    // rows in, keeping the canonical order.
    let total = acc.len() + extras.len();
    let mut merged_cols = columns(acc.arity(), total);
    let mut merged_scores: Vec<f64> = Vec::with_capacity(total);
    let (mut i, mut j) = (0usize, 0usize);
    let push_acc = |cols: &mut [Vec<Vid>], scores: &mut Vec<f64>, acc: &Rel, i: usize| {
        for (out, col) in cols.iter_mut().zip(&acc.cols) {
            out.push(col[i]);
        }
        scores.push(acc.scores[i]);
    };
    let push_next = |cols: &mut [Vec<Vid>], scores: &mut Vec<f64>, row: usize| {
        for (out, &nc) in cols.iter_mut().zip(&next_cols) {
            out.push(nc[row]);
        }
        scores.push(next.score(row));
    };
    while i < acc.len() || j < extras.len() {
        let take_acc = if i >= acc.len() {
            false
        } else if j >= extras.len() {
            true
        } else {
            let erow = extras[j] as usize;
            let ord = acc
                .cols
                .iter()
                .zip(&next_cols)
                .map(|(ac, nc)| ac[i].cmp(&nc[erow]))
                .find(|o| *o != std::cmp::Ordering::Equal)
                .unwrap_or(std::cmp::Ordering::Equal);
            ord == std::cmp::Ordering::Less
        };
        if take_acc {
            push_acc(&mut merged_cols, &mut merged_scores, acc, i);
            i += 1;
        } else {
            push_next(&mut merged_cols, &mut merged_scores, extras[j] as usize);
            j += 1;
        }
    }
    acc.orders.clear();
    acc.cols = merged_cols;
    acc.scores = merged_scores;
}

/// Per-tuple minimum across alternative results for the same subquery
/// (the `min` operator of Optimization 1). All inputs must have the same
/// variables (column order may differ) and, for plans of the same query,
/// the same key set. One clone of the first input seeds the accumulator;
/// every following input folds in via the in-place [`min_into_par`].
pub fn min_combine_par(inputs: &[&Rel], _par: Par, scratch: &mut Scratch) -> Rel {
    assert!(!inputs.is_empty(), "min of zero inputs");
    let mut out = inputs[0].clone();
    for rel in &inputs[1..] {
        min_into_impl(&mut out, rel, scratch, true);
    }
    out
}

// ---------------------------------------------------------------------------
// Delta merges: the incremental evaluator's primitives
// ---------------------------------------------------------------------------

/// Merge sorted delta rows into sorted base rows, both given as columns
/// plus one score per row: rows only in the base stay, rows only in the
/// delta are inserted, and where both hold a row the delta's score wins.
/// Each side must be in canonical order (lexicographic, distinct) over the
/// same number of columns; so is the result.
///
/// Built for small deltas against large bases: every delta row gallops to
/// its place from the previous one, and the base rows in between are
/// copied a run at a time — a 10-row delta into a 100 000-row base is at
/// most 11 slices per column.
pub(crate) fn merge_sorted(
    base: (&[Vec<Vid>], &[f64]),
    delta: (&[Vec<Vid>], &[f64]),
) -> (Vec<Vec<Vid>>, Vec<f64>) {
    let ((bcols, bscores), (dcols, dscores)) = (base, delta);
    debug_assert_eq!(bcols.len(), dcols.len());
    let n = bscores.len();
    let cmp = |i: usize, j: usize| {
        (bcols.iter().zip(dcols))
            .map(|(b, d)| b[i].cmp(&d[j]))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    };
    // Per delta row: the base position it goes in front of, and whether it
    // replaces the base row there.
    let mut cuts: Vec<(usize, bool)> = Vec::with_capacity(dscores.len());
    let mut from = 0usize;
    for j in 0..dscores.len() {
        // Gallop to the first base row at or after `from` that is not
        // below delta row `j`: rows before `lo` are below it, the row at
        // `hi` (when there is one) is not.
        let (mut lo, mut hi, mut step) = (from, from, 1usize);
        while hi < n && cmp(hi, j).is_lt() {
            lo = hi + 1;
            hi += step;
            step *= 2;
        }
        hi = hi.min(n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match cmp(mid, j).is_lt() {
                true => lo = mid + 1,
                false => hi = mid,
            }
        }
        let replaces = lo < n && cmp(lo, j).is_eq();
        cuts.push((lo, replaces));
        from = lo + usize::from(replaces);
    }
    let total = n + cuts.iter().filter(|&&(_, replaces)| !replaces).count();
    fn weave<T: Copy>(base: &[T], delta: &[T], cuts: &[(usize, bool)], total: usize) -> Vec<T> {
        let mut out = Vec::with_capacity(total);
        let mut from = 0usize;
        for (&(at, replaces), &row) in cuts.iter().zip(delta) {
            out.extend_from_slice(&base[from..at]);
            out.push(row);
            from = at + usize::from(replaces);
        }
        out.extend_from_slice(&base[from..]);
        out
    }
    let cols = (bcols.iter().zip(dcols))
        .map(|(b, d)| weave(b, d, &cuts, total))
        .collect();
    (cols, weave(bscores, dscores, &cuts, total))
}

/// Merge a sorted delta into a sorted base: keys only in `base` keep their
/// rows, keys only in `delta` are inserted, and on equal keys the delta's
/// score wins (`merge_sorted`). Both inputs must be canonical with the
/// same column layout; the result is canonical. This is how the
/// incremental evaluator folds a node's effective delta (new rows plus
/// rows whose score changed) into that node's cached view.
pub fn merge_upsert(base: &Rel, delta: &Rel) -> Rel {
    base.assert_canonical();
    delta.assert_canonical();
    debug_assert_eq!(base.vars, delta.vars);
    if delta.is_empty() {
        return base.clone();
    }
    let (cols, scores) = merge_sorted((&base.cols, &base.scores), (&delta.cols, &delta.scores));
    let out = Rel {
        vars: base.vars.clone(),
        cols,
        scores,
        lo: None,
        orders: KeyOrders::default(),
    };
    out.assert_canonical();
    out
}

/// Every key order built in this test process, as `(vars, rows, key
/// columns)` of the relation it was built on — how the tests tell that an
/// evaluation sorted each (relation, key) once. Tests run concurrently:
/// readers filter by relations only they create.
#[cfg(test)]
pub(crate) mod order_log {
    use super::{Rel, Var};
    use std::sync::Mutex;

    pub(crate) type Built = (Vec<Var>, usize, Vec<usize>);

    static LOG: Mutex<Vec<Built>> = Mutex::new(Vec::new());

    pub(super) fn record(rel: &Rel, key: &[usize]) {
        let entry = (rel.vars.clone(), rel.len(), key.to_vec());
        LOG.lock().expect("order log").push(entry);
    }

    pub(crate) fn snapshot() -> Vec<Built> {
        LOG.lock().expect("order log").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lapush_storage::Vid;

    fn v(i: u32) -> Var {
        Var(i)
    }

    /// Tests build vids directly; in production they come from the
    /// database's interner.
    fn vid(i: i64) -> Vid {
        i as Vid
    }

    fn rel(vars: &[u32], rows: &[(&[i64], f64)]) -> Rel {
        let mut r = Rel::with_capacity(vars.iter().map(|&i| v(i)).collect(), rows.len());
        for (key, score) in rows {
            let row: Vec<Vid> = key.iter().map(|&i| vid(i)).collect();
            r.push_row(&row, *score);
        }
        r.canonicalize(Par::serial(), &mut Scratch::default());
        r
    }

    fn score_at(r: &Rel, vids: &[i64]) -> f64 {
        let row: Vec<Vid> = vids.iter().map(|&i| vid(i)).collect();
        r.score_of_row(&row).expect("row present")
    }

    /// A Join node's step: the kernel with every column kept.
    fn join(left: &Rel, right: &Rel, scratch: &mut Scratch) -> Rel {
        join_project(left, right, None, scratch)
    }

    #[test]
    fn join_on_shared_var() {
        // R(x=0, y=1) ⋈ S(y=1, z=2)
        let r = rel(&[0, 1], &[(&[1, 10], 0.5), (&[2, 20], 0.4)]);
        let s = rel(&[1, 2], &[(&[10, 100], 0.5), (&[10, 101], 1.0)]);
        let j = join(&r, &s, &mut Scratch::default());
        assert_eq!(j.vars, vec![v(0), v(1), v(2)]);
        assert_eq!(j.len(), 2);
        assert!((score_at(&j, &[1, 10, 100]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn join_cartesian_when_disjoint() {
        let r = rel(&[0], &[(&[1], 0.5), (&[2], 0.5)]);
        let s = rel(&[1], &[(&[10], 0.5)]);
        let j = join(&r, &s, &mut Scratch::default());
        assert_eq!(j.len(), 2);
    }

    #[test]
    fn join_empty_result() {
        let r = rel(&[0], &[(&[1], 0.5)]);
        let s = rel(&[0], &[(&[2], 0.5)]);
        assert!(join(&r, &s, &mut Scratch::default()).is_empty());
    }

    #[test]
    fn join_many_avoids_cartesian() {
        // Chain R(x0,x1) ⋈ S(x1,x2) ⋈ T(x2,x3).
        let r = rel(&[0, 1], &[(&[1, 2], 0.5)]);
        let s = rel(&[1, 2], &[(&[2, 3], 0.5)]);
        let t = rel(&[2, 3], &[(&[3, 4], 0.5)]);
        let j = join_many_par(&[&r, &t, &s], Par::serial(), &mut Scratch::default());
        assert_eq!(j.len(), 1);
        assert_eq!(j.vars.len(), 4);
        assert!((j.score(0) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn join_order_defers_a_disconnected_input() {
        // No input leads with a shared variable (v0, v9 and v2 lead), so
        // the fold starts at input 0. `d` (v9) shares nothing with it and
        // waits: the first later connected input, `b` (on v1), joins
        // first, and the cartesian product with `d` comes last.
        let a = rel(&[0, 1], &[(&[1, 5], 0.5), (&[2, 5], 0.5), (&[3, 6], 0.5)]);
        let d = rel(&[9], &[(&[7], 0.5), (&[8], 0.5)]);
        let b = rel(&[2, 1], &[(&[4, 5], 0.5)]);
        let inputs = [&a, &d, &b];
        assert_eq!(join_order(&inputs), vec![0, 2, 1]);
        let j = join_many_par(&inputs, Par::serial(), &mut Scratch::default());
        assert_eq!(j.len(), 4);
        assert_eq!(j.vars, vec![v(0), v(1), v(2), v(9)]);
    }

    #[test]
    fn project_prob_independent_or() {
        let r = rel(
            &[0, 1],
            &[(&[1, 10], 0.5), (&[1, 11], 0.5), (&[2, 12], 0.3)],
        );
        let p = project_prob_par(&r, &[v(0)], Par::serial(), &mut Scratch::default());
        assert_eq!(p.len(), 2);
        assert!((score_at(&p, &[1]) - 0.75).abs() < 1e-12);
        assert!((score_at(&p, &[2]) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn project_on_non_prefix_columns() {
        // Group on the *second* column: forces the key re-sort path.
        let r = rel(
            &[0, 1],
            &[(&[1, 10], 0.5), (&[2, 10], 0.5), (&[3, 11], 0.25)],
        );
        let p = project_prob_par(&r, &[v(1)], Par::serial(), &mut Scratch::default());
        assert_eq!(p.len(), 2);
        assert!((score_at(&p, &[10]) - 0.75).abs() < 1e-12);
        assert!((score_at(&p, &[11]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn project_to_empty_vars_gives_boolean_score() {
        let r = rel(&[0], &[(&[1], 0.5), (&[2], 0.5)]);
        let p = project_prob_par(&r, &[], Par::serial(), &mut Scratch::default());
        assert_eq!(p.len(), 1);
        assert!((p.score(0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn project_det_dedups() {
        let r = rel(&[0, 1], &[(&[1, 10], 0.5), (&[1, 11], 0.9)]);
        let p = project_fold(&r, &[v(0)], ProjFold::One, &mut Scratch::default());
        assert_eq!(p.len(), 1);
        assert_eq!(p.score(0), 1.0);
    }

    #[test]
    fn min_combine_takes_pointwise_min() {
        let a = rel(&[0], &[(&[1], 0.8), (&[2], 0.3)]);
        let b = rel(&[0], &[(&[1], 0.5), (&[2], 0.7)]);
        let m = min_combine_par(&[&a, &b], Par::serial(), &mut Scratch::default());
        assert!((score_at(&m, &[1]) - 0.5).abs() < 1e-12);
        assert!((score_at(&m, &[2]) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn min_combine_aligns_columns() {
        let a = rel(&[0, 1], &[(&[1, 10], 0.8)]);
        // Same rows, but with columns swapped.
        let b = rel(&[1, 0], &[(&[10, 1], 0.2)]);
        let m = min_combine_par(&[&a, &b], Par::serial(), &mut Scratch::default());
        assert!((score_at(&m, &[1, 10]) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn min_into_merges_next_only_keys() {
        let mut a = rel(&[0], &[(&[2], 0.8)]);
        let b = rel(&[0], &[(&[1], 0.5), (&[2], 0.9), (&[3], 0.1)]);
        min_into_par(&mut a, &b, Par::serial(), &mut Scratch::default());
        assert_eq!(a.len(), 3);
        assert!((score_at(&a, &[1]) - 0.5).abs() < 1e-12);
        assert!((score_at(&a, &[2]) - 0.8).abs() < 1e-12);
        assert!((score_at(&a, &[3]) - 0.1).abs() < 1e-12);
        a.assert_canonical();
    }

    #[test]
    fn projected_lower_bounds_keep_the_best_per_group() {
        let mut r = rel(
            &[0, 1],
            &[(&[1, 10], 0.5), (&[1, 11], 0.8), (&[2, 12], 0.3)],
        );
        r.seed_lower_bounds();
        let p = project_prob_par(&r, &[v(0)], Par::serial(), &mut Scratch::default());
        assert_eq!(p.lower_bounds(), Some(&[0.8, 0.3][..]));
        // The best derivation never beats the independent-OR of them all.
        let lo = p.lower_bounds().unwrap();
        assert!(lo.iter().zip(p.scores()).all(|(lo, hi)| lo <= hi));
    }

    #[test]
    fn lower_bounds_ride_along_without_touching_scores() {
        let (par, mut scratch) = (Par::serial(), Scratch::default());
        let plain_r = rel(
            &[0, 1],
            &[(&[1, 10], 0.5), (&[1, 11], 0.8), (&[2, 10], 0.3)],
        );
        let plain_s = rel(&[1], &[(&[10], 0.5), (&[11], 0.25)]);
        let (mut r, mut s) = (plain_r.clone(), plain_s.clone());
        r.seed_lower_bounds();
        s.seed_lower_bounds();
        assert_eq!(r.lower_bounds(), Some(r.scores()));

        // Join multiplies both columns; projection folds the scores with
        // independent-OR and the bounds with max: rows (1,10), (1,11),
        // (2,10) score 0.5·0.5, 0.8·0.25 and 0.3·0.5, and x0 = 1 keeps the
        // better of its two.
        let j = join(&r, &s, &mut scratch);
        let p = project_prob_par(&j, &[v(0)], par, &mut scratch);
        let plain_j = join(&plain_r, &plain_s, &mut scratch);
        assert_eq!(j.lower_bounds(), Some(plain_j.scores()));
        assert_eq!(j.lower_bounds(), Some(&[0.25, 0.2, 0.15][..]));
        assert_eq!(p.lower_bounds(), Some(&[0.25, 0.15][..]));
        let bits = |r: &Rel| r.scores().iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&j), bits(&plain_j));
        assert_eq!(
            bits(&p),
            bits(&project_prob_par(&plain_j, &[v(0)], par, &mut scratch))
        );

        // One input without the column, or a min over alternatives, drops it.
        assert!(join(&r, &plain_s, &mut scratch).lower_bounds().is_none());
        assert!(min_combine_par(&[&p, &p], par, &mut scratch)
            .lower_bounds()
            .is_none());
        // A gather keeps scores and bounds aligned.
        let g = j.gather(&[0, 2]);
        assert_eq!(g.len(), 2);
        assert_eq!(
            g.lower_bounds(),
            Some(&[j.lo.as_ref().unwrap()[0], j.lo.as_ref().unwrap()[2]][..])
        );
    }

    #[test]
    fn duplicate_rows_canonicalize_to_strongest() {
        let r = rel(&[0], &[(&[1], 0.3), (&[1], 0.6), (&[1], 0.1)]);
        assert_eq!(r.len(), 1);
        assert!((score_at(&r, &[1]) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn wide_rows_sort_and_join() {
        // Arity 5 exceeds the u128 packing width of 4 columns; sorting and
        // joining must fall through to the tie-resolution path.
        let r = rel(&[0, 1, 2, 3, 4], &[(&[1, 2, 3, 4, 5], 0.5)]);
        let s = rel(&[4, 5], &[(&[5, 6], 0.5)]);
        let j = join(&r, &s, &mut Scratch::default());
        assert_eq!(j.len(), 1);
        assert_eq!(j.vars.len(), 6);
        assert!((score_at(&j, &[1, 2, 3, 4, 5, 6]) - 0.25).abs() < 1e-12);
        let p = project_prob_par(&j, &[v(0), v(5)], Par::serial(), &mut Scratch::default());
        assert!((score_at(&p, &[1, 6]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn wide_sort_orders_by_late_columns() {
        // Identical first four columns; only column 5 differs, so ordering
        // (and distinctness) hinges on the recursion beyond the packed
        // prefix.
        let r = rel(
            &[0, 1, 2, 3, 4],
            &[
                (&[1, 1, 1, 1, 9], 0.2),
                (&[1, 1, 1, 1, 3], 0.4),
                (&[1, 1, 1, 1, 7], 0.6),
            ],
        );
        assert_eq!(r.len(), 3);
        let col4: Vec<Vid> = r.col(4).to_vec();
        assert_eq!(col4, vec![3, 7, 9]);
        r.assert_canonical();
    }

    #[test]
    fn join_order_matches_join_many_fold() {
        // Prefix-first: in R(x0, x1) ⋈ S(x1, x2) the fold starts at S,
        // whose leading column is the join key, whichever input is larger.
        let small = rel(&[0, 1], &[(&[1, 2], 0.5)]);
        let big = rel(&[0, 1], &[(&[1, 2], 0.5), (&[2, 3], 0.4), (&[4, 3], 0.2)]);
        let s = rel(&[1, 2], &[(&[2, 3], 0.5), (&[3, 4], 0.25)]);
        assert_eq!(join_order(&[&small, &s]), vec![1, 0]);
        assert_eq!(join_order(&[&big, &s]), vec![1, 0]);
        // Connected inputs follow in index order, not by size: all three
        // lead with the shared x0, so the fold starts at input 0 and
        // takes 1 (three rows) before 2 (one row).
        let a = rel(&[0, 1], &[(&[1, 2], 0.5), (&[2, 3], 0.4)]);
        let b = rel(&[0, 2], &[(&[1, 4], 0.5), (&[1, 5], 0.6), (&[9, 9], 0.1)]);
        let c = rel(&[0, 3], &[(&[1, 7], 0.3)]);
        assert_eq!(join_order(&[&a, &b, &c]), vec![0, 1, 2]);
        // A chain given out of order starts at the first input leading
        // with a shared variable (t, on x2), then takes s, then r.
        let r = rel(&[0, 1], &[(&[1, 2], 0.5), (&[2, 3], 0.4)]);
        let t = rel(&[2, 3], &[(&[3, 4], 0.5), (&[3, 5], 0.6), (&[9, 9], 0.1)]);
        let inputs = [&r, &t, &s];
        let order = join_order(&inputs);
        assert_eq!(order, vec![1, 2, 0]);
        let mut scratch = Scratch::default();
        let mut acc = join(inputs[order[0]], inputs[order[1]], &mut scratch);
        for &ix in &order[2..] {
            acc = join(&acc, inputs[ix], &mut scratch);
        }
        let direct = join_many_par(&inputs, Par::serial(), &mut scratch);
        assert_eq!(acc, direct);
        for (a, b) in acc.scores().iter().zip(direct.scores()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn join_order_ignores_input_sizes() {
        // One derivation of R(x0, x1) ⋈ S(x1, x2) ⋈ T(x2, x3), with R and
        // T padded by rows that join nothing — to 1 and 500 rows, both
        // ways round. The factors 0.1 · 0.7 · 0.3 round differently
        // under different associations, so an order keyed on sizes would
        // move the bits; this one moves neither them nor the layout.
        let padded = |vars: &[u32], row: [i64; 2], p: f64, n: i64| {
            let pad: Vec<[i64; 2]> = (1..n).map(|i| [1_000 + i, 2_000 + i]).collect();
            let mut rows: Vec<(&[i64], f64)> = vec![(&row[..], p)];
            rows.extend(pad.iter().map(|r| (&r[..], 0.5)));
            rel(vars, &rows)
        };
        let s = rel(&[1, 2], &[(&[2, 3], 0.7)]);
        let joined = |n_r: i64, n_t: i64| {
            let r = padded(&[0, 1], [1, 2], 0.1, n_r);
            let t = padded(&[2, 3], [3, 4], 0.3, n_t);
            let inputs = [&r, &s, &t];
            let j = join_many_par(&inputs, Par::serial(), &mut Scratch::default());
            assert_eq!(j.len(), 1);
            (join_order(&inputs), j.vars.clone(), j.score(0).to_bits())
        };
        let want = joined(1, 1);
        assert_eq!(joined(500, 1), want);
        assert_eq!(joined(1, 500), want);
        assert_eq!(joined(500, 500), want);
    }

    #[test]
    fn merge_upsert_inserts_and_replaces() {
        let base = rel(&[0], &[(&[1], 0.5), (&[3], 0.3)]);
        let delta = rel(&[0], &[(&[2], 0.9), (&[3], 0.7)]);
        let m = merge_upsert(&base, &delta);
        assert_eq!(m.len(), 3);
        assert!((score_at(&m, &[1]) - 0.5).abs() < 1e-12);
        assert!((score_at(&m, &[2]) - 0.9).abs() < 1e-12);
        assert!((score_at(&m, &[3]) - 0.7).abs() < 1e-12);
        m.assert_canonical();
        // Empty delta clones the base.
        let e = merge_upsert(&base, &Rel::empty(base.vars.clone()));
        assert_eq!(e, base);
    }

    #[test]
    fn prefix_run_and_refold_match_projection() {
        let r = rel(
            &[0, 1],
            &[
                (&[1, 10], 0.5),
                (&[1, 11], 0.25),
                (&[2, 12], 0.3),
                (&[2, 13], 0.4),
                (&[2, 14], 0.5),
            ],
        );
        let run = r.prefix_run(&[vid(2)]);
        assert_eq!(run, 2..5);
        assert_eq!(r.prefix_run(&[vid(9)]), 5..5);
        let p = project_prob_par(&r, &[v(0)], Par::serial(), &mut Scratch::default());
        let refolded = kernels::fold_or(r.scores()[run].iter().copied());
        assert_eq!(refolded.to_bits(), score_at(&p, &[2]).to_bits());

        // Long runs too, read in any order.
        let mut rng = Rng(7);
        let long = random_rel(&mut rng, &[0, 1], 400, &[3, 1000]);
        let p = project_prob_par(&long, &[v(0)], Par::serial(), &mut Scratch::default());
        for g in 0..p.len() {
            let run = long.prefix_run(&[p.get(g, 0)]);
            assert!(run.len() > 64);
            let or = kernels::fold_or(long.scores()[run].iter().rev().copied());
            assert_eq!(or.to_bits(), p.score(g).to_bits());
        }
    }

    // ---- key orders: a warm join is a cold join -------------------------

    /// xorshift64: deterministic inputs without a dev-dependency.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    /// Up to `n` distinct random rows over `vars`, column `c` drawn from
    /// `0..domains[c]`, scores in (0, 1).
    fn random_rel(rng: &mut Rng, vars: &[u32], n: usize, domains: &[u64]) -> Rel {
        let mut r = Rel::with_capacity(vars.iter().map(|&i| v(i)).collect(), n);
        let mut row = vec![0; vars.len()];
        for _ in 0..n {
            for (slot, &d) in row.iter_mut().zip(domains) {
                *slot = (rng.next() % d) as Vid;
            }
            r.push_row(&row, (rng.next() % 999 + 1) as f64 / 1000.0);
        }
        r.canonicalize(Par::serial(), &mut Scratch::default());
        r
    }

    /// Nested-loop reference join sharing nothing with the join kernel but
    /// the closing canonicalization.
    fn naive_join(left: &Rel, right: &Rel) -> Rel {
        let shared: Vec<(usize, usize)> = (0..left.arity())
            .filter_map(|li| right.col_of(left.vars[li]).map(|ri| (li, ri)))
            .collect();
        let right_only: Vec<usize> = (0..right.arity())
            .filter(|ri| shared.iter().all(|&(_, r)| r != *ri))
            .collect();
        let mut vars = left.vars.clone();
        vars.extend(right_only.iter().map(|&ri| right.vars[ri]));
        let mut out = Rel::empty(vars);
        // Lower bounds multiply too, when both sides carry them.
        let aux = left.lower_bounds().zip(right.lower_bounds());
        let mut lo = Vec::new();
        for i in 0..left.len() {
            for j in 0..right.len() {
                if shared
                    .iter()
                    .all(|&(l, r)| left.get(i, l) == right.get(j, r))
                {
                    let mut row: Vec<Vid> = (0..left.arity()).map(|c| left.get(i, c)).collect();
                    row.extend(right_only.iter().map(|&c| right.get(j, c)));
                    out.push_row(&row, left.score(i) * right.score(j));
                    if let Some((la, ra)) = aux {
                        lo.push(la[i] * ra[j]);
                    }
                }
            }
        }
        out.lo = aux.map(|_| lo);
        out.canonicalize(Par::serial(), &mut Scratch::default());
        out
    }

    fn assert_same(a: &Rel, b: &Rel, what: &str) {
        assert_eq!(a, b, "{what}");
        let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a.scores()), bits(b.scores()), "{what}: score bits");
        assert_eq!(
            a.lower_bounds().map(bits),
            b.lower_bounds().map(bits),
            "{what}: lower-bound bits"
        );
    }

    /// Join `left ⋈ right` cold (fresh copies, no orders), again on the
    /// originals (builds their orders), and warm (reuses them): all three,
    /// and `join_many_par` both ways, must be one relation. Returns it.
    fn warm_equals_cold(left: &Rel, right: &Rel, what: &str) -> Rel {
        let (par, mut scratch) = (Par::serial(), Scratch::default());
        let cold = join(&left.clone(), &right.clone(), &mut Scratch::default());
        let first = join(left, right, &mut scratch);
        let built = (left.cached_orders(), right.cached_orders());
        let warm = join(left, right, &mut scratch);
        assert_eq!(
            (left.cached_orders(), right.cached_orders()),
            built,
            "{what}: a warm join builds nothing"
        );
        assert_same(&first, &cold, &format!("{what}: first vs cold"));
        assert_same(&warm, &cold, &format!("{what}: warm vs cold"));
        let many_cold = join_many_par(
            &[&left.clone(), &right.clone()],
            par,
            &mut Scratch::default(),
        );
        let many_warm = join_many_par(&[left, right], par, &mut scratch);
        assert_same(&many_warm, &many_cold, &format!("{what}: join_many"));
        cold
    }

    #[test]
    fn key_order_warm_join_equals_cold_join() {
        let mut rng = Rng(0x9e3779b97f4a7c15);
        let n = MIN_SHARED_ORDER_ROWS + 60;
        // (what, left vars/domains, right vars/domains, orders built on
        // (left, right) when both sides are large enough to share).
        type Side<'a> = (&'a [u32], &'a [u64]);
        let cases: [(&str, Side<'_>, Side<'_>, (usize, usize)); 5] = [
            (
                "prefix on both sides",
                (&[0, 1], &[40, 40]),
                (&[0, 2], &[40, 40]),
                (0, 0),
            ),
            (
                "prefix on the right only",
                (&[0, 1], &[40, 40]),
                (&[1, 2], &[40, 40]),
                (1, 0),
            ),
            (
                "prefix on neither side",
                (&[0, 1], &[40, 40]),
                (&[2, 1], &[40, 40]),
                (1, 1),
            ),
            (
                "five-column key (tie resolution beyond the packed prefix)",
                (&[0, 1, 2, 3, 4, 5], &[9, 2, 2, 2, 2, 3]),
                (&[6, 1, 2, 3, 4, 5], &[9, 2, 2, 2, 2, 3]),
                (1, 1),
            ),
            (
                "no shared variable (cartesian)",
                (&[0, 1], &[40, 40]),
                (&[2], &[7]),
                (0, 0),
            ),
        ];
        for (what, (lv, ld), (rv, rd), built) in cases {
            // Large × large shares orders; large × small and small × small
            // take the `Scratch` bypass on the small side.
            for (ln, rn) in [(n, n), (n, 50), (50, 50)] {
                let left = random_rel(&mut rng, lv, ln, ld);
                let right = random_rel(&mut rng, rv, rn, rd);
                let what = format!("{what}, {} x {} rows", left.len(), right.len());
                let got = warm_equals_cold(&left, &right, &what);
                assert_same(
                    &got,
                    &naive_join(&left, &right),
                    &format!("{what}: reference"),
                );
                let shares = |r: &Rel| usize::from(r.len() >= MIN_SHARED_ORDER_ROWS);
                assert_eq!(
                    (left.cached_orders(), right.cached_orders()),
                    (built.0 * shares(&left), built.1 * shares(&right)),
                    "{what}: orders kept"
                );
            }
        }

        // An empty side, either side.
        let left = random_rel(&mut rng, &[0, 1], n, &[40, 40]);
        let none = Rel::empty(vec![v(2), v(1)]);
        assert!(warm_equals_cold(&left, &none, "empty right").is_empty());
        assert!(warm_equals_cold(&none, &left, "empty left").is_empty());

        // A lower-bound column on both sides multiplies through the same
        // shared order.
        let mut left = random_rel(&mut rng, &[0, 1], n, &[40, 40]);
        let mut right = random_rel(&mut rng, &[2, 1], n, &[40, 40]);
        left.seed_lower_bounds();
        right.seed_lower_bounds();
        let got = warm_equals_cold(&left, &right, "lower bounds");
        assert_eq!(got.lower_bounds(), Some(got.scores()));
    }

    #[test]
    fn key_order_fused_join_projection_is_join_then_projection() {
        // The kernel with a projection against `project_fold` over the
        // kernel's plain join, bit for bit,
        // on inputs of 0–300 rows (above MIN_SHARED_ORDER_ROWS a non-prefix
        // join key reads a shared key order, below it a `Scratch` sort),
        // over small domains (join blocks and groups of many rows), with 0,
        // 1 or 2 shared variables, every kept subset and column prefix,
        // lower bounds on neither, either or both sides, both folds.
        let domain = [5, 700, 4, 600, 3];
        let shapes: [(&[u32], &[u32]); 8] = [
            (&[0, 1], &[2, 1]),
            (&[1, 0], &[1, 2]),
            (&[0, 1], &[0, 2]),
            (&[0, 1, 2], &[3, 2]),
            (&[0, 1, 2], &[2, 0, 3]),
            (&[0, 2], &[2, 0]),
            (&[0], &[2]),
            (&[0, 1], &[]),
        ];
        let mut rng = Rng(0x3c6ef372fe94f82b);
        let (mut scratch, mut shared_orders) = (Scratch::default(), 0);
        let two_steps = |l: &Rel, r: &Rel, keep: &[Var], fold, scratch: &mut Scratch| {
            let joined = join(l, r, scratch);
            project_fold(&joined, keep, fold, scratch)
        };
        for (lv, rv) in shapes {
            let doms = |vars: &[u32]| vars.iter().map(|&x| domain[x as usize]).collect::<Vec<_>>();
            for (ln, rn) in [(0, 17), (17, 0), (23, 41), (300, 9), (300, 300)] {
                let plain_l = random_rel(&mut rng, lv, ln, &doms(lv));
                let plain_r = random_rel(&mut rng, rv, rn, &doms(rv));
                let out_vars = JoinCols::of(&plain_l, &plain_r).out_vars(&plain_l, &plain_r);
                let mut sorted = out_vars.clone();
                sorted.sort_unstable();
                let subsets = (0..1u32 << sorted.len()).map(|mask| {
                    (sorted.iter().enumerate())
                        .filter(|(i, _)| mask & (1 << i) != 0)
                        .map(|(_, &v)| v)
                        .collect::<Vec<_>>()
                });
                let prefixes = (1..out_vars.len()).map(|p| out_vars[..p].to_vec());
                let keeps: Vec<Vec<Var>> = subsets.chain(prefixes).collect();
                for lo in [(false, false), (true, false), (false, true), (true, true)] {
                    let (mut l, mut r) = (plain_l.clone(), plain_r.clone());
                    if lo.0 {
                        l.seed_lower_bounds();
                    }
                    if lo.1 {
                        r.seed_lower_bounds();
                    }
                    for keep in &keeps {
                        for fold in [ProjFold::IndependentOr, ProjFold::One] {
                            let what = format!(
                                "{lv:?} x {rv:?}, {} x {} rows, keep {keep:?}, lo {lo:?}, {fold:?}",
                                l.len(),
                                r.len()
                            );
                            let fused = join_project(&l, &r, Some((keep, fold)), &mut scratch);
                            let want = two_steps(&l, &r, keep, fold, &mut scratch);
                            assert_same(&fused, &want, &what);
                            assert_eq!(fused.vars, *keep, "{what}");
                        }
                    }
                    shared_orders += l.cached_orders() + r.cached_orders();
                }
            }
        }
        assert!(shared_orders > 0, "no input read a shared key order");

        // Three inputs: `join_fold`'s first step, then the fused last one.
        for n in [0, 40, 300] {
            let ins: Vec<Rel> = [[0, 1], [1, 2], [2, 3]]
                .iter()
                .map(|vars| random_rel(&mut rng, vars, n, &[5, 40, 40, 5]))
                .collect();
            let refs: Vec<&Rel> = ins.iter().collect();
            for keep in [vec![v(0)], vec![v(0), v(3)], vec![]] {
                let fold = ProjFold::IndependentOr;
                let joined = join_many_par(&refs, Par::serial(), &mut scratch);
                let want = project_fold(&joined, &keep, fold, &mut scratch);
                let got = join_fold(&refs, Some((&keep, fold)), None, &mut scratch);
                assert_same(
                    &got,
                    &want,
                    &format!("three inputs of {n} rows, keep {keep:?}"),
                );
            }
        }

        // Wider than four columns: the kept columns sort with tie
        // resolution, same bits.
        let l = random_rel(&mut rng, &[0, 1, 2], 120, &[4, 9, 3]);
        let r = random_rel(&mut rng, &[2, 3, 4], 120, &[3, 9, 4]);
        for keep in [vec![v(0), v(4)], vec![], vec![v(0), v(1), v(2), v(3), v(4)]] {
            let fold = ProjFold::IndependentOr;
            let fused = join_project(&l, &r, Some((&keep, fold)), &mut scratch);
            let want = two_steps(&l, &r, &keep, fold, &mut scratch);
            assert_same(&fused, &want, &format!("five columns, keep {keep:?}"));
        }
    }

    #[test]
    fn a_join_copies_its_products_and_a_projection_folds_them() {
        // R(x) ⋈ S(x, y) over p = 0.1 and 1: each join row's product is
        // 0.1 exactly, and a plain join copies it. A projection folds even
        // a group of one: 1 − (1 − 0.1) is 0.09999999999999998.
        let r = rel(&[0], &[(&[1], 0.1), (&[2], 0.1)]);
        let s = rel(&[0, 1], &[(&[1, 10], 1.0), (&[2, 20], 1.0)]);
        let folded = 1.0 - (1.0 - 0.1f64);
        assert_eq!(folded, 0.09999999999999998);
        let mut scratch = Scratch::default();
        let joined = join_fold(&[&r, &s], None, None, &mut scratch);
        assert_eq!(joined.vars, vec![v(0), v(1)]);
        assert!(joined
            .scores()
            .iter()
            .all(|p| p.to_bits() == 0.1f64.to_bits()));
        for keep in [vec![v(0)], vec![v(0), v(1)]] {
            let fold = ProjFold::IndependentOr;
            let p = join_fold(&[&r, &s], Some((&keep, fold)), None, &mut scratch);
            assert_eq!(p.len(), 2, "keep {keep:?}");
            assert!(p.scores().iter().all(|p| p.to_bits() == folded.to_bits()));
            let two_steps = project_fold(&joined, &keep, fold, &mut scratch);
            assert_same(&p, &two_steps, &format!("keep {keep:?}"));
        }
    }

    #[test]
    fn projection_outputs_are_sized_exactly() {
        // A projection — the grouped scan, and the fused one over a join of
        // up to and of more than four columns — and a plain join allocate
        // exactly their output rows: the memo and captured views keep no
        // growth slack.
        let exact = |r: &Rel, what: &str| {
            let n = r.len();
            assert!(r.cols.iter().all(|c| c.capacity() == n), "{what}: columns");
            assert_eq!(r.scores.capacity(), n, "{what}: scores");
            assert_eq!(
                r.lo.as_ref().map(Vec::capacity),
                r.lo.as_ref().map(|_| n),
                "{what}"
            );
        };
        let mut rng = Rng(0x1f83d9abfb41bd6b);
        let mut scratch = Scratch::default();
        let fold = ProjFold::IndependentOr;
        let shapes: [(&[u32], &[u32]); 2] = [(&[0, 1], &[1, 2]), (&[0, 1, 2], &[2, 3, 4])];
        for (lv, rv) in shapes {
            let mut l = random_rel(&mut rng, lv, 300, &[6, 9, 6]);
            let mut r = random_rel(&mut rng, rv, 300, &[6, 9, 6]);
            l.seed_lower_bounds();
            r.seed_lower_bounds();
            let joined = join(&l, &r, &mut scratch);
            exact(&joined, &format!("{lv:?} x {rv:?}: join"));
            for keep in [vec![v(0)], vec![v(2), v(0)], vec![]] {
                let what = format!("{lv:?} x {rv:?}, keep {keep:?}");
                let fused = join_project(&l, &r, Some((&keep, fold)), &mut scratch);
                assert!(fused.len() < joined.len(), "{what}: groups of one only");
                exact(&fused, &format!("{what}: fused"));
                exact(&project_fold(&joined, &keep, fold, &mut scratch), &what);
            }
        }
    }

    /// `naive_join` folded over `inputs` in [`join_order`].
    fn naive_fold(inputs: &[&Rel]) -> Rel {
        let order = join_order(inputs);
        (order[1..].iter()).fold(inputs[order[0]].clone(), |acc, &ix| {
            naive_join(&acc, inputs[ix])
        })
    }

    #[test]
    fn join_kernel_matches_the_nested_loop_reference() {
        // Every join the kernel runs, against `naive_join` in `join_order`
        // then `project_fold`: columns, score bits and lower-bound bits.
        let mut rng = Rng(0x510e527fade682d1);
        let fold = ProjFold::IndependentOr;
        let mut scratch = Scratch::default();
        for n in [0, 30, 300] {
            // A 3-input chain under a projection (two steps, the last one
            // fused), with lower bounds on every input.
            let mut ins: Vec<Rel> = [[2, 3], [0, 1], [1, 2]]
                .iter()
                .map(|vars| random_rel(&mut rng, vars, n, &[5, 30, 30, 5]))
                .collect();
            ins.iter_mut().for_each(Rel::seed_lower_bounds);
            let refs: Vec<&Rel> = ins.iter().collect();
            let naive = naive_fold(&refs);
            let what = format!("three inputs of {n} rows");
            assert_same(&join_fold(&refs, None, None, &mut scratch), &naive, &what);
            for keep in [vec![v(0)], vec![v(3), v(0)], vec![]] {
                let want = project_fold(&naive, &keep, fold, &mut scratch);
                let got = join_fold(&refs, Some((&keep, fold)), None, &mut scratch);
                assert_same(&got, &want, &format!("{what}, keep {keep:?}"));
            }

            // A root join of six columns: every column kept, no fold; and
            // projections of it, narrow and wide.
            let mut l = random_rel(&mut rng, &[0, 1, 2, 3], n, &[3, 2, 3, 2]);
            let mut r = random_rel(&mut rng, &[3, 4, 5], n, &[2, 3, 2]);
            l.seed_lower_bounds();
            r.seed_lower_bounds();
            let naive = naive_fold(&[&l, &r]);
            let what = format!("six columns of {n} rows");
            let got = join_fold(&[&l, &r], None, None, &mut scratch);
            assert_same(&got, &naive, &what);
            assert!(got.lower_bounds().is_some(), "{what}");
            for keep in [vec![v(5), v(0)], (0..5).map(v).collect(), vec![]] {
                let want = project_fold(&naive, &keep, fold, &mut scratch);
                let got = join_fold(&[&l, &r], Some((&keep, fold)), None, &mut scratch);
                assert_same(&got, &want, &format!("{what}, keep {keep:?}"));
            }
        }

        // Above the radix cutoff: ≥ 2 000 pairs per join, at every packed
        // width, over vids of three bytes — the join key's 40 values spread
        // out too — so several bytes of every kept column vary; keeping
        // nothing, one column, and all columns but one.
        let vid = |rng: &mut Rng, x: u32| match x {
            1 => (1 << 16) + 104_729 * (rng.next() % 40) as Vid,
            _ => (1 << 16) + (rng.next() % (1 << 22)) as Vid,
        };
        let big = |rng: &mut Rng, vars: &[u32], n: usize| {
            let mut r = Rel::empty(vars.iter().map(|&x| v(x)).collect());
            for _ in 0..n {
                let row: Vec<Vid> = vars.iter().map(|&x| vid(rng, x)).collect();
                r.push_row(&row, (rng.next() % 999 + 1) as f64 / 1000.0);
            }
            r.canonicalize(Par::serial(), &mut Scratch::default());
            r.seed_lower_bounds();
            r
        };
        // (left vars, right vars, rows per side); variable 1 is the join key.
        let shapes: [(&[u32], &[u32], usize); 4] = [
            (&[1], &[1], 0),
            (&[0, 1], &[1], 2_400),
            (&[0, 1], &[1, 2], 400),
            (&[0, 1, 3], &[1, 2], 400),
        ];
        for (lv, rv, n) in shapes {
            let (l, r) = if lv.len() == 1 {
                // Width 1: a join of two unary relations is their
                // intersection, so build one of 2 000 rows on purpose.
                let unary = |from: u32, to: u32| {
                    let mut r = Rel::empty(vec![v(1)]);
                    for i in from..to {
                        r.push_row(&[(1 << 16) + 97 * i], 0.5 + (i % 7) as f64 / 16.0);
                    }
                    r.seed_lower_bounds();
                    r
                };
                (unary(0, 2_500), unary(500, 3_000))
            } else {
                (big(&mut rng, lv, n), big(&mut rng, rv, n))
            };
            let naive = naive_fold(&[&l, &r]);
            let width = naive.arity();
            let what = format!("width {width}, {} pairs", naive.len());
            assert!(naive.len() >= 2_000, "{what}: too few pairs");
            let got = join_fold(&[&l, &r], None, None, &mut scratch);
            assert_same(&got, &naive, &what);
            let keeps = [vec![], vec![naive.vars[0]], naive.vars[1..].to_vec()];
            for keep in keeps {
                let want = project_fold(&naive, &keep, fold, &mut scratch);
                let got = join_fold(&[&l, &r], Some((&keep, fold)), None, &mut scratch);
                assert_same(&got, &want, &format!("{what}, keep {keep:?}"));
            }
        }
    }

    #[test]
    fn key_order_is_invalidated_by_every_mutator() {
        let mut rng = Rng(0x2545f4914f6cdd1d);
        let n = MIN_SHARED_ORDER_ROWS + 60;
        let (par, mut scratch) = (Par::serial(), Scratch::default());
        let mut left = random_rel(&mut rng, &[0, 1], n, &[40, 40]);
        let right = random_rel(&mut rng, &[2, 1], n, &[40, 40]);
        join(&left, &right, &mut scratch);
        assert_eq!(left.cached_orders(), 1);
        // A copy starts without orders, and orders are not part of the value.
        let copy = left.clone();
        assert_eq!(copy.cached_orders(), 0);
        assert_eq!(copy, left);

        // push_row + canonicalize: new rows sort to the front, the middle
        // and the back of the old key order.
        for (row, score) in [([0, 0], 0.5), ([1 << 20, 17], 0.25), ([7, 1 << 20], 0.75)] {
            left.push_row(&row, score);
            assert_eq!(left.cached_orders(), 0, "push_row invalidates");
        }
        left.canonicalize(par, &mut scratch);
        let fresh = {
            let mut f = Rel::empty(left.vars.clone());
            for i in 0..left.len() {
                f.push_row(&[left.get(i, 0), left.get(i, 1)], left.score(i));
            }
            f.canonicalize(par, &mut Scratch::default());
            f
        };
        let again = join(&left, &right, &mut scratch);
        assert_same(
            &again,
            &join(&fresh, &right, &mut scratch),
            "after push_row",
        );
        assert_same(
            &again,
            &naive_join(&left, &right),
            "after push_row: reference",
        );
        assert_eq!(left.cached_orders(), 1);

        // canonicalize alone (it may permute and drop rows).
        left.canonicalize(par, &mut scratch);
        assert_eq!(left.cached_orders(), 0, "canonicalize invalidates");

        // The next-only rows of a min grow the accumulator in place.
        join(&left, &right, &mut scratch);
        let mut wider = left.clone();
        wider.push_row(&[3, 1 << 21], 0.125);
        wider.canonicalize(par, &mut scratch);
        min_into_par(&mut left, &wider, par, &mut scratch);
        assert_eq!(left.len(), wider.len());
        assert_eq!(left.cached_orders(), 0, "min extras invalidate");
        assert_same(
            &join(&left, &right, &mut scratch),
            &naive_join(&left, &right),
            "after min extras",
        );
        // A min over the same key set only touches scores: the order stays.
        min_into_par(&mut left, &wider, par, &mut scratch);
        assert_eq!(left.cached_orders(), 1);

        // drop_orders forgets; the next join rebuilds.
        left.drop_orders();
        assert_eq!(left.cached_orders(), 0);
        let rebuilt = join(&left, &right, &mut scratch);
        assert_same(&rebuilt, &naive_join(&left, &right), "after drop_orders");

        // merge_upsert's output is a new relation.
        let merged = merge_upsert(&left, &fresh);
        assert_eq!(merged.cached_orders(), 0);
    }

    #[test]
    fn key_order_of_a_base_view_is_shared_by_its_copies() {
        let mut rng = Rng(0x6a09e667f3bcc909);
        let n = MIN_SHARED_ORDER_ROWS + 60;
        let (par, mut scratch) = (Par::serial(), Scratch::default());
        let plain = random_rel(&mut rng, &[0, 1], n, &[40, 40]);
        let right = random_rel(&mut rng, &[2, 1], n, &[40, 40]);
        let view = Arc::new(BaseView::new(plain.cols.clone(), plain.scores.clone(), 0));
        let copy = |vars: &[u32], scores: Vec<f64>| {
            Rel::from_view(
                vars.iter().map(|&i| v(i)).collect(),
                Arc::clone(&view),
                scores,
            )
        };

        // A copy is the relation, and joins like it — through an order that
        // is the view's, not its own.
        let a = copy(&[0, 1], view.probs().to_vec());
        assert_eq!(a, plain);
        let want = join(&plain.clone(), &right, &mut Scratch::default());
        assert_same(&join(&a, &right, &mut scratch), &want, "first copy");
        assert_eq!((a.cached_orders(), view.cached_orders()), (0, 1));

        // Other names, other scores, a lower-bound column: same rows, same
        // order — nothing is sorted for the second copy.
        let sorted = order_log::snapshot().len();
        let mut b = copy(&[5, 1], vec![1.0; view.len()]);
        b.seed_lower_bounds();
        let mut right_lo = right.clone();
        right_lo.seed_lower_bounds();
        let got = join(&b, &right_lo, &mut scratch);
        assert_eq!((b.cached_orders(), view.cached_orders()), (0, 1));
        let mine = |(vars, rows, _): &order_log::Built| *vars == b.vars && *rows == b.len();
        assert!(!order_log::snapshot()[sorted..].iter().any(mine));
        assert_eq!(view.probs(), plain.scores(), "scores stay the copy's");
        let mut certain = Rel::with_capacity(vec![v(5), v(1)], plain.len());
        for r in 0..plain.len() {
            certain.push_row(&[plain.get(r, 0), plain.get(r, 1)], 1.0);
        }
        certain.seed_lower_bounds();
        let want_certain = join(&certain, &right_lo.clone(), &mut Scratch::default());
        assert_same(&got, &want_certain, "second copy");

        // Dropping a copy's orders is not dropping the view's.
        a.drop_orders();
        assert_eq!(view.cached_orders(), 1);

        // A clone is made to be changed: it owns what it builds.
        let c = a.clone();
        assert_same(&join(&c, &right, &mut scratch), &want, "clone");
        assert_eq!((c.cached_orders(), view.cached_orders()), (1, 1));

        // Every mutator of the rows ends the delegation: the view's orders
        // describe the view's rows.
        let mut m = copy(&[0, 1], view.probs().to_vec());
        m.push_row(&[1 << 20, 17], 0.25);
        m.push_row(&[0, 0], 0.5);
        m.canonicalize(par, &mut scratch);
        assert_same(
            &join(&m, &right, &mut scratch),
            &naive_join(&m, &right),
            "after push_row",
        );
        assert_eq!((m.cached_orders(), view.cached_orders()), (1, 1));
        let mut wider = a.clone();
        wider.push_row(&[3, 1 << 21], 0.125);
        wider.canonicalize(par, &mut scratch);
        let mut acc = copy(&[0, 1], view.probs().to_vec());
        min_into_par(&mut acc, &wider, par, &mut scratch);
        assert_eq!(acc.len(), view.len() + 1);
        assert_same(
            &join(&acc, &right, &mut scratch),
            &naive_join(&acc, &right),
            "after min extras",
        );
        assert_eq!((acc.cached_orders(), view.cached_orders()), (1, 1));

        // Small views bypass order sharing like every small input.
        let few = random_rel(&mut rng, &[0, 1], 50, &[40, 40]);
        let small = Arc::new(BaseView::new(few.cols.clone(), few.scores.clone(), 0));
        let s = Rel::from_view(few.vars.clone(), Arc::clone(&small), few.scores.clone());
        assert_same(
            &join(&s, &right, &mut scratch),
            &naive_join(&few, &right),
            "small view",
        );
        assert_eq!(small.cached_orders(), 0);
    }

    /// The row-at-a-time merge `merge_upsert` used to be.
    fn merge_by_rows(base: &Rel, delta: &Rel) -> Rel {
        let mut out = Rel::empty(base.vars.clone());
        let row = |r: &Rel, i: usize| (0..r.arity()).map(|c| r.get(i, c)).collect::<Vec<Vid>>();
        for i in 0..base.len() {
            if delta.score_of_row(&row(base, i)).is_none() {
                out.push_row(&row(base, i), base.score(i));
            }
        }
        for j in 0..delta.len() {
            out.push_row(&row(delta, j), delta.score(j));
        }
        out.canonicalize(Par::serial(), &mut Scratch::default());
        out
    }

    #[test]
    fn merge_upsert_copies_runs_like_a_row_by_row_merge() {
        let mut rng = Rng(0xbb67ae8584caa73b);
        // (base rows, delta rows, domains): few delta rows into many base
        // rows (long runs), dense overlap (every other row replaced), a
        // delta larger than the base, six columns, either side empty.
        let cases: [(usize, usize, &[u64]); 7] = [
            (2000, 10, &[60, 60]),
            (300, 300, &[20, 20]),
            (40, 900, &[40, 40]),
            (500, 60, &[3, 2, 2, 2, 2, 9]),
            (0, 25, &[9, 9]),
            (25, 0, &[9, 9]),
            (1, 1, &[1]),
        ];
        for (nb, nd, domains) in cases {
            let vars: Vec<u32> = (0..domains.len() as u32).collect();
            let base = random_rel(&mut rng, &vars, nb, domains);
            let mut delta = random_rel(&mut rng, &vars, nd, domains);
            // Rows below every base row, above every base row, and the
            // base's own first and last rows with new scores.
            if nb > 0 && nd > 0 {
                let w = domains.len();
                delta.push_row(&vec![0; w], 0.0625);
                delta.push_row(&vec![1 << 20; w], 0.03125);
                for i in [0, base.len() - 1] {
                    let row: Vec<Vid> = (0..w).map(|c| base.get(i, c)).collect();
                    delta.push_row(&row, 0.015625);
                }
                delta.canonicalize(Par::serial(), &mut Scratch::default());
            }
            let what = format!(
                "{} + {} rows x {} columns",
                base.len(),
                delta.len(),
                vars.len()
            );
            assert_same(
                &merge_upsert(&base, &delta),
                &merge_by_rows(&base, &delta),
                &what,
            );
        }
    }
}
