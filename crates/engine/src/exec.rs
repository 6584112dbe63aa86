//! Plan evaluation.
//!
//! Evaluation is dictionary-encoded end to end: the atom scan encodes base
//! tuples into vid rows via the database's codec (`Database::codec`), every
//! operator in [`crate::rel`] runs on those encoded rows as **sorted
//! columnar batches** (see the module docs of [`crate::rel`]), and the
//! final result is decoded back to [`Value`]s exactly once — here, at the
//! [`AnswerSet`] boundary. Public signatures and results are identical to
//! the hash-map engine; only the intermediate representation changed.
//!
//! A scan comes in two kinds. An atom with a constant, a repeated variable
//! or a predicate — and any scan of listed or appended rows — filters the
//! relation's encoded rows and sorts what survives (`scan_atom`), per
//! evaluation. An **unfiltered** atom's full scan is the relation itself,
//! sorted: that is the relation's *base view*
//! (`lapush_storage::Database::base_view`), which the first evaluation to
//! need it builds (`base_view` below is the one implementation of the
//! unfiltered full scan) and the database keeps for as long as the relation
//! stays as it is; every scan is then a column copy of the view under the
//! query's variable names (`scan_view`), joined through key orders the view
//! sorts once for all of them.
//!
//! Evaluation is optionally parallel ([`ExecOptions::threads`]): sorts,
//! projections and `min` partition large batches into key-range morsels
//! run as pool tasks (joins run serially), and [`propagation_score_ids`]
//! additionally parallelizes its embarrassingly parallel outer loop — the
//! minimal-plan roots — after a serial pre-pass has evaluated every
//! memo-shared subplan once. Results are bit-identical at every thread
//! count; `threads: 1` (the default) never touches the pool.

use crate::prepare::{prepare_atoms, PrepareError, PreparedAtom, ScanShape};
use crate::rel::{
    canonicalize_columns, join_fold, merge_sorted, min_combine_par, min_into_par, project_fold,
    Par, ProjFold, Rel, Scratch,
};
use lapush_core::{NodeKind, PlanId, PlanStore};
use lapush_query::{Query, QueryShape, Var};
use lapush_storage::{BaseView, Database, DbCodec, DeltaBatch, FxHashMap, Relation, Value, Vid};
use std::fmt;
use std::sync::Arc;

/// Score semantics for evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Semantics {
    /// Extensional probabilistic semantics (Definition 4): joins multiply,
    /// projections combine duplicates with independent-OR. Upper-bounds the
    /// true probability (Corollary 19).
    #[default]
    Probabilistic,
    /// Standard set semantics (every score is 1): the "deterministic SQL"
    /// baseline of the experiments.
    Deterministic,
}

/// Evaluation options.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Score semantics.
    pub semantics: Semantics,
    /// Optimization 2: memoize shared subquery results while evaluating a
    /// single plan (sound for plans produced by `lapush_core::single_plan_id`,
    /// whose equal subquery keys denote equal subplans).
    pub reuse_views: bool,
    /// Morsel-parallelism budget: maximum threads one parallel step of an
    /// evaluation (a sort, projection or `min`, or the root loop; joins run
    /// serially) may run on ([`crate::pool`]). `1` — the default — is
    /// fully serial and never touches the pool. Any value produces
    /// bit-identical results; see [`crate::rel`].
    pub threads: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            semantics: Semantics::default(),
            reuse_views: false,
            threads: 1,
        }
    }
}

/// Errors raised during evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The plan references a relation missing from the database.
    UnknownRelation(String),
    /// Arity mismatch between an atom and its relation.
    AtomArity {
        /// Relation name.
        relation: String,
        /// Columns in the stored relation.
        relation_arity: usize,
        /// Terms in the query atom.
        atom_arity: usize,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownRelation(r) => write!(f, "unknown relation `{r}`"),
            ExecError::AtomArity {
                relation,
                relation_arity,
                atom_arity,
            } => write!(
                f,
                "atom over `{relation}` has {atom_arity} terms but the relation has {relation_arity} columns"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<PrepareError> for ExecError {
    fn from(e: PrepareError) -> Self {
        match e {
            PrepareError::UnknownRelation(r) => ExecError::UnknownRelation(r),
            PrepareError::AtomArity {
                relation,
                relation_arity,
                atom_arity,
            } => ExecError::AtomArity {
                relation,
                relation_arity,
                atom_arity,
            },
        }
    }
}

/// The result of evaluating a plan: per answer tuple (head variables of the
/// query, in head order) a score.
#[derive(Debug, Clone)]
pub struct AnswerSet {
    /// Head variables, in the query's head order.
    pub vars: Vec<Var>,
    /// Answer tuples with scores.
    pub rows: FxHashMap<Box<[Value]>, f64>,
}

impl AnswerSet {
    /// Number of answers.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no answers.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Score of a Boolean query (the single empty-tuple answer);
    /// 0 when there is no answer.
    pub fn boolean_score(&self) -> f64 {
        let k: Box<[Value]> = Box::new([]);
        self.rows.get(&k).copied().unwrap_or(0.0)
    }

    /// Score of one answer tuple (0 if absent).
    pub fn score_of(&self, key: &[Value]) -> f64 {
        self.rows.get(key).copied().unwrap_or(0.0)
    }

    /// Answers sorted by descending score, ties broken by tuple value for
    /// determinism.
    ///
    /// [`AnswerSet::ranked_refs`] with each key cloned once, on output.
    pub fn ranked(&self) -> Vec<(Box<[Value]>, f64)> {
        self.ranked_refs()
            .into_iter()
            .map(|(k, s)| (Box::from(k), s))
            .collect()
    }

    /// The rank order of [`AnswerSet::ranked`] over borrowed keys, for
    /// callers that only read them (the wire renderer): no key is cloned.
    /// The (score, key) order is total, so the unstable sort is
    /// deterministic.
    pub fn ranked_refs(&self) -> Vec<(&[Value], f64)> {
        let mut v: Vec<(&[Value], f64)> = self.rows.iter().map(|(k, &s)| (&**k, s)).collect();
        v.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(b.0))
        });
        v
    }

    /// The top `k` of [`AnswerSet::ranked`] without sorting — or cloning —
    /// the full answer set: a bounded binary heap keeps the best `k`
    /// entries seen so far (`O(n log k)`), and only those are sorted and
    /// cloned on output. The (score, key) order is total and keys are
    /// distinct, so the result is exactly `ranked()` truncated to `k`.
    pub fn ranked_top(&self, k: usize) -> Vec<(Box<[Value]>, f64)> {
        if k == 0 {
            return Vec::new();
        }
        if k >= self.len() {
            return self.ranked();
        }
        // Entries order by *rank*: `Greater` means ranked later (worse),
        // so the max-heap's top is the worst of the kept k.
        struct Entry<'a>(&'a [Value], f64);
        impl Entry<'_> {
            fn rank_cmp(&self, other: &Self) -> std::cmp::Ordering {
                other
                    .1
                    .partial_cmp(&self.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| self.0.cmp(other.0))
            }
        }
        impl PartialEq for Entry<'_> {
            fn eq(&self, other: &Self) -> bool {
                self.rank_cmp(other).is_eq()
            }
        }
        impl Eq for Entry<'_> {}
        impl PartialOrd for Entry<'_> {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Entry<'_> {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.rank_cmp(other)
            }
        }
        let mut heap: std::collections::BinaryHeap<Entry<'_>> =
            std::collections::BinaryHeap::with_capacity(k + 1);
        for (key, &score) in &self.rows {
            let e = Entry(key, score);
            if heap.len() < k {
                heap.push(e);
            } else if e
                .rank_cmp(heap.peek().expect("heap holds k entries"))
                .is_lt()
            {
                heap.pop();
                heap.push(e);
            }
        }
        // Ascending heap order *is* rank order: best first.
        heap.into_sorted_vec()
            .into_iter()
            .map(|Entry(key, s)| (Box::from(key), s))
            .collect()
    }
}

/// Evaluate one plan of `store` against the database.
///
/// The returned [`AnswerSet`] is keyed by the query's head variables in head
/// order. With [`Semantics::Probabilistic`] the scores are the extensional
/// scores of the plan (upper bounds on the answer probabilities,
/// Corollary 19).
///
/// With `reuse_views` the evaluation memoizes every node result by
/// [`PlanId`]: hash-consing makes id equality structural equality, so this
/// is Optimization 2's view sharing (for plans from
/// `lapush_core::single_plan_id`, equal subquery keys denote equal subplans,
/// hence equal ids) and is sound for *any* plan, not only single plans.
pub fn eval_plan_id(
    db: &Database,
    q: &Query,
    store: &PlanStore,
    root: PlanId,
    opts: ExecOptions,
) -> Result<AnswerSet, ExecError> {
    let mut ev = Evaluator::new(db, q, store, opts, opts.reuse_views)?;
    let rel = ev.eval(root);
    Ok(decode_answers(&rel, q.head(), &db.codec()))
}

/// Evaluation results are shared, not copied: memo hits (scans, reused
/// views) hand out another reference to the same relation. `Arc`, not
/// `Rc`: the memo crosses task boundaries in the parallel outer
/// loop of [`propagation_score_ids`].
pub(crate) type ShRel = Arc<Rel>;

/// The plan evaluator: one memoized fold over the [`PlanStore`] DAG, and
/// the only code that maps a [`NodeKind`] to scan / join / project / min
/// for a full evaluation. [`eval_plan_id`], [`propagation_score_ids`],
/// [`propagation_bounds_ids`], [`crate::TopkEval`] and
/// [`crate::IncrementalEval::new`] are drivers over it; what differs
/// between them is data held here, not a second walk:
///
/// * **memo discipline** — scan nodes are always memoized (a scan depends
///   only on the database, the atom, and the semantics, all fixed for the
///   evaluator's lifetime). Inner nodes are memoized when `memo_all` is
///   set: for a single plan that is Optimization 2's view reuse; across a
///   plan set it makes identical subplans of different minimal plans
///   evaluate exactly once. A hit returns the same relation the
///   recomputation would produce, so results are bit-identical either way.
/// * **lower bounds** ([`Evaluator::seed_lower_bounds`]) — scans start the
///   `lo` column of [`Rel`], which the operators then carry by themselves.
/// * **survivor restriction** ([`Evaluator::restrict_to`]) — per-atom
///   surviving row lists replace the full scans of a *restricted*
///   evaluation ([`Evaluator::eval_restricted`]), memoized apart from the
///   full results. Every node shape is restricted: join order and column
///   layout are functions of the plan ([`crate::rel::join_order`]), so a
///   restricted visit multiplies and folds each surviving group exactly
///   as the full one does.
/// * **capture** ([`Evaluator::capture_joins`]) — keeps each join's
///   intermediate accumulators for the incremental evaluator.
///
/// Every join runs through one pairwise fold ([`join_fold`]) of one
/// kernel ([`crate::rel::join_project`]): a Join node keeps every column
/// and copies each row's product, and a projection directly over a join
/// is the same fold whose last step takes the projection's keep list, so
/// the join's result never exists — except under capture, which keeps
/// every join's view.
pub(crate) struct Evaluator<'a> {
    pub(crate) db: &'a Database,
    pub(crate) q: &'a Query,
    store: &'a PlanStore,
    pub(crate) prepared: Arc<[PreparedAtom]>,
    opts: ExecOptions,
    pub(crate) par: Par,
    pub(crate) scratch: Scratch,
    memo_all: bool,
    pub(crate) memo: FxHashMap<PlanId, ShRel>,
    seed_lo: bool,
    /// Surviving row ordinals per atom, and the atoms they restrict.
    survivors: Vec<Vec<u32>>,
    filtered_mask: u64,
    pub(crate) restricted: FxHashMap<PlanId, ShRel>,
    /// Projections evaluated fused with the join below them.
    pub(crate) fused_steps: u64,
    pub(crate) joins: Option<FxHashMap<PlanId, Vec<Rel>>>,
}

impl<'a> Evaluator<'a> {
    /// Resolve and encode the query's atoms (the only fallible step of an
    /// evaluation) and start with empty memos.
    pub(crate) fn new(
        db: &'a Database,
        q: &'a Query,
        store: &'a PlanStore,
        opts: ExecOptions,
        memo_all: bool,
    ) -> Result<Self, ExecError> {
        Ok(Evaluator {
            db,
            q,
            store,
            prepared: prepare_atoms(db, q)?.into(),
            opts,
            par: Par::new(opts.threads),
            scratch: Scratch::default(),
            memo_all,
            memo: FxHashMap::default(),
            seed_lo: false,
            survivors: Vec::new(),
            filtered_mask: 0,
            restricted: FxHashMap::default(),
            fused_steps: 0,
            joins: None,
        })
    }

    /// A serial evaluator over the same inputs, seeded with this one's
    /// memo (`Arc` clones) — one per task of the root-parallel loop. The
    /// relations are shared, not copied, so every fork joins them through
    /// the key orders the pre-pass built, and an order first needed inside
    /// the loop is built by one fork for all. Forks are serial because the
    /// root loop already spends the thread budget, one task per thread.
    fn fork(&self) -> Evaluator<'a> {
        Evaluator {
            prepared: Arc::clone(&self.prepared),
            par: Par::serial(),
            scratch: Scratch::default(),
            memo: self.memo.clone(),
            survivors: Vec::new(),
            restricted: FxHashMap::default(),
            joins: None,
            ..*self
        }
    }

    /// Make scans start the lower-bound column (`on`), or stop and strip
    /// the column from every memoized relation nobody else holds, so that
    /// evaluations after the bounds pass do not pay for carrying it.
    pub(crate) fn seed_lower_bounds(&mut self, on: bool) {
        self.seed_lo = on;
        if !on {
            for rel in self.memo.values_mut() {
                if let Some(rel) = Arc::get_mut(rel) {
                    rel.drop_lower_bounds();
                }
            }
        }
    }

    /// Restrict [`Evaluator::eval_restricted`] to the given surviving rows
    /// of every atom in `filtered_mask`.
    pub(crate) fn restrict_to(&mut self, survivors: Vec<Vec<u32>>, filtered_mask: u64) {
        self.survivors = survivors;
        self.filtered_mask = filtered_mask;
    }

    /// Keep every join's intermediate accumulators from here on.
    pub(crate) fn capture_joins(&mut self) {
        self.joins = Some(FxHashMap::default());
    }

    /// Evaluate the plan rooted at `id` over the full database.
    pub(crate) fn eval(&mut self, id: PlanId) -> ShRel {
        self.node(id, false)
    }

    /// Evaluate the plan rooted at `id` over the survivor rows of
    /// [`Evaluator::restrict_to`]. Rows of surviving answer groups come out
    /// bit-identical to [`Evaluator::eval`] (see [`crate::topk`]).
    pub(crate) fn eval_restricted(&mut self, id: PlanId) -> ShRel {
        self.node(id, true)
    }

    fn node(&mut self, id: PlanId, restricted: bool) -> ShRel {
        let store = self.store;
        let node = store.node(id);
        // A subtree scanning no filtered atom is the same either way, and
        // shares the full memo.
        let restricted = restricted && node.atoms_mask & self.filtered_mask != 0;
        let cacheable = restricted || self.memo_all || matches!(node.kind, NodeKind::Scan { .. });
        if cacheable {
            if let Some(hit) = self.memo_mut(restricted).get(&id) {
                return Arc::clone(hit);
            }
        }
        let rel = match &node.kind {
            NodeKind::Scan { atom } => {
                let prep = &self.prepared[*atom];
                let shape = ScanShape::of(self.q, &self.q.atoms()[*atom]);
                let (sem, par, scratch) = (self.opts.semantics, self.par, &mut self.scratch);
                let rows = match restricted {
                    true => ScanRows::Listed(&self.survivors[*atom]),
                    false => ScanRows::All,
                };
                let mut rel = match rows {
                    ScanRows::All if shape.is_unfiltered(prep) => {
                        scan_view(self.db, prep, shape.out_vars, sem, par, scratch)
                    }
                    rows => {
                        let base = self.db.relation(prep.rel);
                        scan_atom(base, prep, &shape, rows, sem, par, scratch)
                    }
                };
                if self.seed_lo {
                    rel.seed_lower_bounds();
                }
                rel
            }
            NodeKind::Project { input } => {
                let keep: Vec<Var> = node.head.iter().collect();
                let fold = ProjFold::from(self.opts.semantics);
                match &store.node(*input).kind {
                    // Nothing else reads the join's result: its last
                    // pairwise step fuses into this projection. A capture
                    // (whose join states hold the join's view) keeps the
                    // pair.
                    NodeKind::Join { inputs } if self.joins.is_none() => {
                        let children = self.nodes(inputs, restricted);
                        let refs: Vec<&Rel> = children.iter().map(Arc::as_ref).collect();
                        self.fused_steps += 1;
                        join_fold(&refs, Some((&keep, fold)), None, &mut self.scratch)
                    }
                    _ => {
                        let child = self.node(*input, restricted);
                        project_fold(&child, &keep, fold, self.par, &mut self.scratch)
                    }
                }
            }
            NodeKind::Join { inputs } => {
                let children = self.nodes(inputs, restricted);
                let refs: Vec<&Rel> = children.iter().map(Arc::as_ref).collect();
                let mut mids = Vec::new();
                let keep_mids = self.joins.is_some().then_some(&mut mids);
                let rel = join_fold(&refs, None, keep_mids, &mut self.scratch);
                if let Some(joins) = &mut self.joins {
                    joins.insert(id, mids);
                }
                rel
            }
            // Min branches are distinct subplans with distinct ids, so the
            // id-keyed memo never conflates them with this node.
            NodeKind::Min { inputs } => {
                let children = self.nodes(inputs, restricted);
                let refs: Vec<&Rel> = children.iter().map(Arc::as_ref).collect();
                min_combine_par(&refs, self.par, &mut self.scratch)
            }
        };
        let rel = Arc::new(rel);
        if cacheable {
            self.memo_mut(restricted).insert(id, Arc::clone(&rel));
        }
        rel
    }

    fn nodes(&mut self, ids: &[PlanId], restricted: bool) -> Vec<ShRel> {
        ids.iter().map(|&id| self.node(id, restricted)).collect()
    }

    /// Restricted results are memoized apart from the full ones.
    fn memo_mut(&mut self, restricted: bool) -> &mut FxHashMap<PlanId, ShRel> {
        match restricted {
            true => &mut self.restricted,
            false => &mut self.memo,
        }
    }
}

/// How `sem` folds projection groups — the one place score semantics choose
/// an operator.
impl From<Semantics> for ProjFold {
    fn from(sem: Semantics) -> Self {
        match sem {
            Semantics::Probabilistic => ProjFold::IndependentOr,
            Semantics::Deterministic => ProjFold::One,
        }
    }
}

/// Decoded `(answer tuple in head order, score)` of every row of an
/// encoded result, in row order. This is the single point where vids
/// become [`Value`]s again.
pub(crate) fn decoded_rows<'r>(
    rel: &'r Rel,
    head: &[Var],
    codec: &'r DbCodec<'_>,
) -> impl Iterator<Item = (Box<[Value]>, f64)> + 'r {
    let perm: Vec<usize> = head
        .iter()
        .map(|&v| rel.col_of(v).expect("plan head misses query head var"))
        .collect();
    (0..rel.len()).map(move |i| {
        let key = perm
            .iter()
            .map(|&c| codec.decode(rel.get(i, c)).clone())
            .collect();
        (key, rel.score(i))
    })
}

/// Decode an encoded result into the value-level [`AnswerSet`].
pub(crate) fn decode_answers(rel: &Rel, head: &[Var], codec: &DbCodec<'_>) -> AnswerSet {
    let mut rows: FxHashMap<Box<[Value]>, f64> =
        FxHashMap::with_capacity_and_hasher(rel.len(), Default::default());
    rows.extend(decoded_rows(rel, head, codec));
    AnswerSet {
        vars: head.to_vec(),
        rows,
    }
}

/// Which rows of an atom's relation a scan reads.
pub(crate) enum ScanRows<'r> {
    /// Every row passing the atom's filters.
    All,
    /// These row ordinals, known to pass the filters already (the survivor
    /// list of a restricted top-k evaluation).
    Listed(&'r [u32]),
    /// The rows of an append batch passing the filters (the incremental
    /// evaluator's scan delta).
    Delta(&'r DeltaBatch),
}

/// Scan one atom: filter by constants, repeated variables, and selection
/// predicates; output the atom's distinct variables as a sorted columnar
/// batch. (The full scan of an atom without any filter never comes here:
/// it is a copy of the relation's base view, [`scan_view`].)
///
/// Constant and repeated-variable filters run on vids (equal values ⇔
/// equal vids); order/pattern predicates are not id-representable and run
/// on the stored values before the row enters the encoded pipeline. The
/// atom was resolved and encoded by [`prepare_atoms`] from `rel`; no lock
/// is held here. Whichever [`ScanRows`] drives the scan, rows are appended
/// in storage order by the same emitter with the same scoring, and the
/// closing canonicalization (a key-range-partitioned sort when `par`
/// allows) establishes the operators' sorted invariant — so a row comes out
/// bit-identical from a full, a listed and a delta scan, and from a base
/// view, whose builder sorts the same rows with the same sort.
pub(crate) fn scan_atom(
    rel: &Relation,
    prep: &PreparedAtom,
    shape: &ScanShape<'_>,
    rows: ScanRows<'_>,
    sem: Semantics,
    par: Par,
    scratch: &mut Scratch,
) -> Rel {
    // Pre-size the output only where the size is known (exact up to
    // in-atom duplicates); a selective filter over a large relation must
    // not allocate a full-size table.
    let cap = match rows {
        ScanRows::Listed(list) => list.len(),
        _ => 0,
    };
    let mut out = Rel::with_capacity(shape.out_vars.clone(), cap);
    let mut row_buf: Vec<Vid> = vec![0; shape.out_cols.len()];
    let mut emit = |i: u32, row: &[Vid]| {
        for (slot, &c) in row_buf.iter_mut().zip(&shape.out_cols) {
            *slot = row[c];
        }
        let score = match sem {
            Semantics::Probabilistic => rel.prob(i),
            Semantics::Deterministic => 1.0,
        };
        out.push_row(&row_buf, score);
    };
    match rows {
        ScanRows::All => prep.for_each_surviving_row(rel, shape, emit),
        ScanRows::Listed(list) => list.iter().for_each(|&i| emit(i, prep.row(i))),
        ScanRows::Delta(batch) => prep.for_each_surviving_delta_row(rel, batch, shape, emit),
    }
    out.canonicalize(par, scratch);
    out
}

/// The full scan of an **unfiltered** atom ([`ScanShape::is_unfiltered`]:
/// no constant, repeated variable or predicate, so the output columns are
/// the relation's columns in order, named `vars`): a private copy of the
/// relation's base view, scored by `sem`. Copying is all a scan costs once
/// the view exists, and the copy joins through the view's key orders
/// ([`Rel::from_view`]).
pub(crate) fn scan_view(
    db: &Database,
    prep: &PreparedAtom,
    vars: Vec<Var>,
    sem: Semantics,
    par: Par,
    scratch: &mut Scratch,
) -> Rel {
    let view = base_view(db, prep, par, scratch);
    let scores = match sem {
        Semantics::Probabilistic => view.probs().to_vec(),
        Semantics::Deterministic => vec![1.0; view.len()],
    };
    Rel::from_view(vars, view, scores)
}

/// The base view of the atom's relation at its current state — taken from
/// the database when it holds one, otherwise made here and published
/// ([`Database::base_view`] decides which):
///
/// * **built** from the encoded cells `prep` holds, transposed straight
///   into columns and sorted by the sort every scan closes with;
/// * **extended**, when the relation only grew since the database's view
///   was made, by merging the sorted appended rows in. Tuples of a relation
///   are distinct, so the appended rows are fresh keys and the merge equals
///   a rescan — the Scan rule of [`crate::delta`].
fn base_view(db: &Database, prep: &PreparedAtom, par: Par, scratch: &mut Scratch) -> Arc<BaseView> {
    let rel = db.relation(prep.rel);
    db.base_view(prep.rel, |stale| {
        let (cols, probs) = match stale {
            Some((old, appended)) => merge_sorted(
                (old.cols(), old.probs()),
                (appended.cols(), appended.probs()),
            ),
            None => {
                let column = |c| prep.cells.iter().skip(c).step_by(prep.arity);
                let mut cols: Vec<Vec<Vid>> = (0..prep.arity)
                    .map(|c| column(c).copied().collect())
                    .collect();
                let mut probs = rel.probs().to_vec();
                canonicalize_columns(&mut cols, &mut probs, None, par, scratch);
                (cols, probs)
            }
        };
        BaseView::new(cols, probs, rel.prob_epoch())
    })
}

/// Cheap per-root cost estimate over a plan set: reachable plan-node
/// count × total input cardinality (summed lengths of the scanned
/// relations; a relation missing from the database counts 0 — evaluation
/// surfaces the error later). Deliberately crude: it only has to separate
/// cheap roots from expensive ones so the plan-set loop and the top-k
/// driver can evaluate cheapest-first.
pub fn plan_cost_estimates(
    db: &Database,
    q: &Query,
    store: &PlanStore,
    roots: &[PlanId],
) -> Vec<(PlanId, u64)> {
    let atom_rows: Vec<u64> = (q.atoms().iter())
        .map(|a| {
            db.relation_by_name(&a.relation)
                .map_or(0, |r| r.len() as u64)
        })
        .collect();
    roots
        .iter()
        .map(|&root| {
            let nodes = store.reachable(&[root]);
            let rows: u64 = (nodes.iter())
                .filter_map(|&id| match store.node(id).kind {
                    NodeKind::Scan { atom } => Some(atom_rows[atom]),
                    _ => None,
                })
                .sum();
            (root, nodes.len() as u64 * rows.max(1))
        })
        .collect()
}

/// `roots` reordered cheapest-first by [`plan_cost_estimates`]; ties keep
/// their input order (stable sort), so the result is a deterministic
/// permutation for a fixed database and plan set.
pub fn order_plans_by_cost(
    db: &Database,
    q: &Query,
    store: &PlanStore,
    roots: &[PlanId],
) -> Vec<PlanId> {
    let mut est = plan_cost_estimates(db, q, store, roots);
    est.sort_by_key(|&(_, cost)| cost);
    est.into_iter().map(|(root, _)| root).collect()
}

/// Evaluate a set of plans of `store` and combine their scores with a
/// per-tuple minimum: the propagation score `ρ(q)` when given all minimal
/// plans (Definition 14).
///
/// One [`PlanId`]-keyed memo spans the whole plan set, so every distinct
/// subplan — scans, shared views, entire subtrees common to several
/// minimal plans (for chain queries, almost all of them) — is evaluated
/// exactly once per call. Results are bit-identical to evaluating each
/// plan in isolation (a memo hit returns the same relation the
/// recomputation would), only the repeated work disappears.
///
/// The roots are evaluated cheapest-first ([`order_plans_by_cost`]): the
/// accumulator starts from the smallest evaluation. The pointwise `min`
/// over probability scores (no NaNs, no signed zeros) is exactly
/// commutative and associative, so the reordering is invisible in the
/// result — every score stays bit-identical to the enumeration-order fold.
///
/// With `opts.threads > 1` the roots after the first are evaluated in
/// parallel: a serial pre-pass evaluates every subplan reachable from two
/// or more of them (exactly the nodes the shared memo would deduplicate),
/// then they are chunked across pool tasks, each with a read-only view of
/// the pre-computed memo. Per-root results are folded with
/// [`min_into_par`] in root order, so the answer is bit-identical to the
/// serial evaluation.
pub fn propagation_score_ids(
    db: &Database,
    q: &Query,
    store: &PlanStore,
    roots: &[PlanId],
    opts: ExecOptions,
) -> Result<AnswerSet, ExecError> {
    let (rho, _) = min_over_roots(db, q, store, roots, opts, false)?;
    Ok(decode_answers(&rho, q.head(), &db.codec()))
}

/// Sandwich bounds `(lower, upper)` per answer from one evaluation of the
/// plan set (extension beyond the paper).
///
/// `upper` is [`propagation_score_ids`] over the same roots, bit for bit.
/// `lower` is the probability of the answer's best single derivation —
/// `∏ p` over one consistent choice of tuples — which lower-bounds the true
/// probability: the lineage is monotone, so `P(⋁ᵢ eᵢ) ≥ maxᵢ P(eᵢ)`, and
/// its tuples are independent. It is the `lo` column of [`Rel`], carried
/// by the cheapest root alone: `max` distributes over `×` for non-negative
/// factors and every minimal plan uses each atom once, so every root
/// computes the same bound up to float association. Each answer reports
/// `min(lo, upper)`, as the anytime top-k bounds do. A root with a `min`
/// node has no single derivation to follow; its answers get the trivial
/// lower bound 0.
pub fn propagation_bounds_ids(
    db: &Database,
    q: &Query,
    store: &PlanStore,
    roots: &[PlanId],
    opts: ExecOptions,
) -> Result<(AnswerSet, AnswerSet), ExecError> {
    let (rho, lo) = min_over_roots(db, q, store, roots, opts, true)?;
    let lo = lo.unwrap_or_default();
    // The roots of one query produce one key set, so the min folds in
    // place and `rho`'s rows stay aligned with the first root's.
    debug_assert!(lo.is_empty() || lo.len() == rho.len());
    let answers = || AnswerSet {
        vars: q.head().to_vec(),
        rows: FxHashMap::with_capacity_and_hasher(rho.len(), Default::default()),
    };
    let (mut lower, mut upper) = (answers(), answers());
    let codec = db.codec();
    for (i, (key, hi)) in decoded_rows(&rho, q.head(), &codec).enumerate() {
        lower
            .rows
            .insert(key.clone(), lo.get(i).map_or(0.0, |lo| lo.min(hi)));
        upper.rows.insert(key, hi);
    }
    Ok((lower, upper))
}

/// How every plan-set evaluation starts ([`min_over_roots`],
/// [`crate::TopkEval::new`]): the roots cheapest first, one evaluator
/// memoizing across all of them, and the first root evaluated — with the
/// lower-bound column when `lower`. Seeding is on before anything enters
/// the memo, so no memo hit hands that root an input without the column;
/// it stops after the root, so the other roots do not pay for the column.
pub(crate) fn start_plan_set<'a>(
    db: &'a Database,
    q: &'a Query,
    store: &'a PlanStore,
    roots: &[PlanId],
    opts: ExecOptions,
    lower: bool,
) -> Result<(Evaluator<'a>, Vec<PlanId>, ShRel), ExecError> {
    assert!(!roots.is_empty(), "no plans to evaluate");
    let roots = order_plans_by_cost(db, q, store, roots);
    let mut ev = Evaluator::new(db, q, store, opts, true)?;
    ev.seed_lower_bounds(lower);
    let first = ev.eval(roots[0]);
    if lower {
        ev.seed_lower_bounds(false);
    }
    Ok((ev, roots, first))
}

/// The plan-set loop behind [`propagation_score_ids`] and
/// [`propagation_bounds_ids`]: after [`start_plan_set`], the other roots
/// through the same memo, folded with the pointwise min in cost order.
/// With `lower`, the first root's lower-bound column is returned alongside.
fn min_over_roots(
    db: &Database,
    q: &Query,
    store: &PlanStore,
    roots: &[PlanId],
    opts: ExecOptions,
    lower: bool,
) -> Result<(ShRel, Option<Vec<f64>>), ExecError> {
    let (mut ev, roots, first) = start_plan_set(db, q, store, roots, opts, lower)?;
    let lo = first.lower_bounds().map(<[f64]>::to_vec);
    let rest = &roots[1..];
    let threads = ev.par.threads;
    let per_root: Vec<ShRel> = if threads == 1 || rest.len() < 2 {
        rest.iter().map(|&root| ev.eval(root)).collect()
    } else {
        // Serial pre-pass: evaluate every memo-shared subplan (reachable
        // from ≥ 2 roots) once, with the full intra-operator parallelism
        // budget.
        for id in shared_subplans(store, rest) {
            ev.eval(id);
        }
        // Parallel outer loop: contiguous root chunks become pool tasks,
        // each with its own evaluator seeded from the shared memo. Nodes
        // outside the memo are by construction reachable from exactly one
        // root, so no work is repeated across tasks.
        let shared = &ev;
        let tasks: Vec<_> = rest
            .chunks(rest.len().div_ceil(threads))
            .map(|chunk| {
                move || {
                    let mut local = shared.fork();
                    chunk.iter().map(|&root| local.eval(root)).collect()
                }
            })
            .collect();
        let evaluated: Vec<Vec<ShRel>> = crate::pool::run_scope(threads, tasks);
        evaluated.concat()
    };
    // Fold in root order with the pointwise min. The memo keeps every
    // node's Arc alive, so the first result can never be unwrapped in
    // place; clone it only when a second plan actually needs a mutable
    // accumulator (single-plan sets return it as is).
    let mut acc: Option<Rel> = None;
    for next in &per_root {
        let acc = acc.get_or_insert_with(|| (*first).clone());
        min_into_par(acc, next, ev.par, &mut ev.scratch);
    }
    Ok((acc.map_or(first, Arc::new), lo))
}

/// Plan nodes reachable from two or more of `roots`, in ascending id
/// order (children before parents). These are exactly the nodes whose
/// results the shared memo of [`propagation_score_ids`] deduplicates; the
/// parallel path evaluates them serially up front so no two threads race
/// to compute the same subplan.
fn shared_subplans(store: &PlanStore, roots: &[PlanId]) -> Vec<PlanId> {
    let mut count: Vec<u8> = vec![0; store.len()];
    let mut shared: Vec<PlanId> = Vec::new();
    for &root in roots {
        for id in store.reachable(&[root]) {
            count[id.index()] = count[id.index()].saturating_add(1);
            if count[id.index()] == 2 {
                shared.push(id);
            }
        }
    }
    shared.sort_unstable();
    shared
}

/// The "standard SQL" baseline: evaluate the query under set semantics —
/// one flat join of every atom followed by a distinct projection onto the
/// head, no probabilistic arithmetic at all. The join folds pairwise and
/// its last step projects, like every projection over a join. `threads`
/// is the morsel budget of the scans' sorts; joins run serially, and the
/// results are identical at every thread count.
pub fn deterministic_answers(
    db: &Database,
    q: &Query,
    threads: usize,
) -> Result<AnswerSet, ExecError> {
    let shape = QueryShape::of_query(q);
    let mut store = PlanStore::new();
    let scans = (0..q.atoms().len())
        .map(|a| store.scan(&shape, a))
        .collect();
    let join = store.join(scans);
    let root = store.project(shape.head, join);
    let opts = ExecOptions {
        semantics: Semantics::Deterministic,
        reuse_views: false,
        threads,
    };
    eval_plan_id(db, q, &store, root, opts)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use lapush_core::{minimal_plan_set, PlanSet};
    use lapush_query::{parse_query, QueryShape};
    use lapush_storage::tuple::tuple;

    fn plan_set(q: &Query) -> PlanSet {
        minimal_plan_set(&QueryShape::of_query(q))
    }

    /// The 7-chain `q(x0, x7) :- R1(x0, x1), …, R7(x6, x7)` over 40 rows
    /// per relation: 132 minimal plans sharing 294 joins, each under one
    /// projection.
    pub(crate) fn chain7() -> (Database, Query) {
        let k = 7;
        let atoms: Vec<String> = (1..=k).map(|i| format!("R{i}(x{}, x{i})", i - 1)).collect();
        let q = parse_query(&format!("q(x0, x{k}) :- {}", atoms.join(", "))).unwrap();
        let mut db = Database::new();
        for i in 1..=k {
            let rel = db.create_relation(format!("R{i}"), 2).unwrap();
            for j in 0..40i64 {
                let p = ((j * 37 + i as i64) % 99 + 1) as f64 / 100.0;
                db.relation_mut(rel)
                    .push(tuple([j % 9, (j * 7) % 11]), p)
                    .unwrap();
            }
        }
        (db, q)
    }

    /// `ρ(q)` over all minimal plans.
    fn propagation(db: &Database, q: &Query, opts: ExecOptions) -> Result<AnswerSet, ExecError> {
        let set = plan_set(q);
        propagation_score_ids(db, q, &set.store, &set.roots, opts)
    }

    /// The first minimal plan of a query, alone.
    fn eval_first(db: &Database, q: &Query) -> Result<AnswerSet, ExecError> {
        let set = plan_set(q);
        eval_plan_id(db, q, &set.store, set.roots[0], ExecOptions::default())
    }

    /// Example 7 of the paper: q :- R(x), S(x,y) over
    /// D = {R(1), R(2), S(1,4), S(1,5)}.
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
    fn safe_plan_computes_exact_probability() {
        // P(q) for Example 7: F = X(Y ∨ Z) → p(q+r−qr) with all = 0.5:
        // 0.5 * (0.5 + 0.5 − 0.25) = 0.375.
        let db = example7_db();
        let q = parse_query("q :- R(x), S(x, y)").unwrap();
        let s = QueryShape::of_query(&q);
        let bottom = lapush_core::Dissociation::bottom(s.num_atoms());
        let mut store = PlanStore::new();
        let p = lapush_core::plan_id_for_dissociation(&mut store, &s, &bottom).unwrap();
        let ans = eval_plan_id(&db, &q, &store, p, ExecOptions::default()).unwrap();
        assert!((ans.boolean_score() - 0.375).abs() < 1e-12);
    }

    #[test]
    fn non_boolean_head_ordering() {
        let db = example7_db();
        let q = parse_query("q(y) :- R(x), S(x, y)").unwrap();
        assert_eq!(plan_set(&q).len(), 1); // safe: x is a separator
        let ans = eval_first(&db, &q).unwrap();
        assert_eq!(ans.len(), 2);
        // Answers y=4 and y=5, each with probability 0.25.
        assert!((ans.score_of(&[Value::Int(4)]) - 0.25).abs() < 1e-12);
        assert!((ans.score_of(&[Value::Int(5)]) - 0.25).abs() < 1e-12);
    }

    /// Example 17 database: R = S = U = {1,2}, T = {(1,1),(1,2),(2,2)},
    /// every probability 1/2.
    fn example17_db() -> Database {
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
        db
    }

    #[test]
    fn example_17_dissociation_scores() {
        // Paper: P(q^Δ3) = 169/2^10 ≈ 0.165, P(q^Δ4) = 353/2^11 ≈ 0.172;
        // propagation score ρ(q) = min ≈ 0.165.
        let db = example17_db();
        let q = parse_query("q :- R(x), S(x), T(x, y), U(y)").unwrap();
        let set = plan_set(&q);
        assert_eq!(set.len(), 2);
        let mut scores: Vec<f64> = set
            .roots
            .iter()
            .map(|&p| {
                eval_plan_id(&db, &q, &set.store, p, ExecOptions::default())
                    .unwrap()
                    .boolean_score()
            })
            .collect();
        scores.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((scores[0] - 169.0 / 1024.0).abs() < 1e-12, "{scores:?}");
        assert!((scores[1] - 353.0 / 2048.0).abs() < 1e-12, "{scores:?}");

        let rho = propagation(&db, &q, ExecOptions::default())
            .unwrap()
            .boolean_score();
        assert!((rho - 169.0 / 1024.0).abs() < 1e-12);
    }

    #[test]
    fn single_plan_equals_multi_plan_min() {
        let db = example17_db();
        let q = parse_query("q :- R(x), S(x), T(x, y), U(y)").unwrap();
        let rho = propagation(&db, &q, ExecOptions::default())
            .unwrap()
            .boolean_score();
        let mut store = PlanStore::new();
        let sp = lapush_core::single_plan_id(
            &mut store,
            &q,
            &lapush_core::SchemaInfo::from_query(&q),
            lapush_core::EnumOptions::default(),
        );
        for reuse in [false, true] {
            let opts = ExecOptions {
                reuse_views: reuse,
                ..ExecOptions::default()
            };
            let got = eval_plan_id(&db, &q, &store, sp, opts).unwrap();
            let got = got.boolean_score();
            assert!((got - rho).abs() < 1e-12, "reuse={reuse}");
        }
    }

    #[test]
    fn parallel_propagation_matches_serial_bitwise() {
        let db = example17_db();
        let q = parse_query("q :- R(x), S(x), T(x, y), U(y)").unwrap();
        let serial = propagation(&db, &q, ExecOptions::default()).unwrap();
        for threads in [2, 4, 7] {
            let opts = ExecOptions {
                threads,
                ..ExecOptions::default()
            };
            let par = propagation(&db, &q, opts).unwrap();
            assert_eq!(par.len(), serial.len());
            for (k, &v) in &serial.rows {
                assert_eq!(par.score_of(k).to_bits(), v.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn shared_subplans_cover_scans() {
        // Two minimal plans of the same query share at least their scans.
        let db = example17_db();
        let q = parse_query("q :- R(x), S(x), T(x, y), U(y)").unwrap();
        let PlanSet { store, roots } = plan_set(&q);
        let shared = shared_subplans(&store, &roots);
        assert!(!shared.is_empty());
        let scan_count = shared
            .iter()
            .filter(|&&id| matches!(store.node(id).kind, NodeKind::Scan { .. }))
            .count();
        assert_eq!(scan_count, q.atoms().len(), "all scans are shared");
        // Ascending id order (children before parents).
        assert!(shared.windows(2).all(|w| w[0] < w[1]));
        let _ = &db;
    }

    #[test]
    fn plan_set_sorts_each_scan_key_once() {
        // The 7-chain: 132 minimal plans over one 595-node DAG, every scan
        // joined on its second column by dozens of them. The first
        // evaluation of a database must build that key order once per scan
        // — serially and with the roots spread over pool tasks (forks share
        // the scans, hence their orders; two tasks needing an unbuilt order
        // wait on each other) — and, the scans being copies of the
        // database's base views, every later evaluation must find it built:
        // the same plan set again sorts nothing, and the same relations
        // under other variable numbers re-sort nothing either.
        use crate::rel::{order_log, MIN_SHARED_ORDER_ROWS};
        let k = 7;
        let atoms: Vec<String> = (1..=k).map(|i| format!("R{i}(x{}, x{i})", i - 1)).collect();
        let q = parse_query(&format!("q(x0, x{k}) :- {}", atoms.join(", "))).unwrap();
        // The same query with its atoms listed back to front: variables are
        // numbered in first-occurrence order, so every relation's columns
        // carry other numbers (R2 is `(v2, v3)` above, `(v7, v6)` here).
        let reversed: Vec<&str> = atoms.iter().rev().map(String::as_str).collect();
        let renamed = parse_query(&format!("q(x0, x{k}) :- {}", reversed.join(", "))).unwrap();
        // Distinct sizes, all large enough to share orders, mark this
        // test's scans in the process-wide log.
        let rows_of = |i: usize| 2 * MIN_SHARED_ORDER_ROWS + 7 * i;
        let fresh_db = || {
            let mut db = Database::new();
            let mut state = 0x9e3779b97f4a7c15u64;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for i in 1..=k {
                let rel = db.create_relation(format!("R{i}"), 2).unwrap();
                while db.relation(rel).len() < rows_of(i) {
                    let (u, v) = ((next() % 500) as i64, (next() % 500) as i64);
                    let p = (next() % 999 + 1) as f64 / 1000.0;
                    db.relation_mut(rel).push(tuple([u, v]), p).unwrap();
                }
            }
            db
        };
        let PlanSet { store, roots } = plan_set(&q);
        let PlanSet {
            store: renamed_store,
            roots: renamed_roots,
        } = plan_set(&renamed);
        assert_eq!((roots.len(), renamed_roots.len()), (132, 132));
        assert_eq!(q.atoms()[1].relation, renamed.atoms()[k - 2].relation);
        assert_ne!(
            ScanShape::of(&q, &q.atoms()[1]).out_vars,
            ScanShape::of(&renamed, &renamed.atoms()[k - 2]).out_vars
        );
        // `(rows, key columns)` of the orders one evaluation built on this
        // test's scans (whatever names the query gave their columns).
        let built_by = |run: &dyn Fn() -> AnswerSet| {
            let before = order_log::snapshot().len();
            let answers = run();
            let scan_rows: Vec<usize> = (1..=k).map(rows_of).collect();
            let built: Vec<(usize, Vec<usize>)> = (order_log::snapshot().split_off(before))
                .into_iter()
                .filter(|(vars, rows, _)| vars.len() == 2 && scan_rows.contains(rows))
                .map(|(_, rows, key)| (rows, key))
                .collect();
            (answers, built)
        };

        let mut answers: Vec<AnswerSet> = Vec::new();
        for threads in [1, 4] {
            let opts = ExecOptions {
                threads,
                ..ExecOptions::default()
            };
            // Never scanned: the first evaluation builds views and orders.
            let db = fresh_db();
            let eval = || propagation_score_ids(&db, &q, &store, &roots, opts).unwrap();
            let (first, mut built) = built_by(&eval);
            // Every scan but the last is joined on its second column.
            assert!(built.len() >= k - 1, "threads={threads}: {built:?}");
            let (again, rebuilt) = built_by(&eval);
            assert_eq!(rebuilt, [], "threads={threads}: a second evaluation sorted");
            let (other, more) = built_by(&|| {
                propagation_score_ids(&db, &renamed, &renamed_store, &renamed_roots, opts).unwrap()
            });
            built.extend(more);
            let total = built.len();
            built.sort();
            built.dedup();
            assert_eq!(
                built.len(),
                total,
                "threads={threads}: an order was rebuilt"
            );
            assert_eq!(first.len(), other.len());
            for (key, &score) in &first.rows {
                assert_eq!(again.score_of(key).to_bits(), score.to_bits());
                // Other plans' floats: equal up to rounding, not bitwise.
                assert!((other.score_of(key) - score).abs() < 1e-12);
            }
            answers.push(first);
        }
        assert!(!answers[0].is_empty());
        assert_eq!(answers[0].len(), answers[1].len());
        for (key, &score) in &answers[0].rows {
            assert_eq!(answers[1].score_of(key).to_bits(), score.to_bits());
        }
    }

    #[test]
    fn plan_set_fuses_every_projected_join() {
        // The 7-chain's 132 minimal plans share 294 joins, each under one
        // projection: a plan-set evaluation fuses every one of them, so no
        // join result is ever made, let alone memoized. A capture keeps
        // them all, since the incremental evaluator needs their views.
        let (db, q) = chain7();
        let PlanSet { store, roots } = plan_set(&q);
        assert_eq!(roots.len(), 132);
        let is_join = |id: &PlanId| matches!(store.node(*id).kind, NodeKind::Join { .. });
        let joins: Vec<PlanId> = store
            .reachable(&roots)
            .into_iter()
            .filter(is_join)
            .collect();
        assert_eq!(joins.len(), 294);

        let opts = ExecOptions::default();
        let (mut ev, order, _) = start_plan_set(&db, &q, &store, &roots, opts, false).unwrap();
        for &root in &order[1..] {
            ev.eval(root);
        }
        assert!(!ev.memo.keys().any(is_join), "a join was materialized");
        assert_eq!(ev.fused_steps, joins.len() as u64);

        let inc = crate::IncrementalEval::new(&db, &q, &store, &roots, opts).unwrap();
        assert!(joins.iter().all(|&id| inc.captured_join(id)));
        let full = propagation_score_ids(&db, &q, &store, &roots, opts).unwrap();
        assert!(!full.is_empty());
        for (key, &score) in &full.rows {
            assert_eq!(inc.answers().score_of(key).to_bits(), score.to_bits());
        }

        // A star around x: its plans join three inputs under one
        // projection, two pairwise steps of which the last is fused — so
        // again no join reaches the memo outside a capture, and a capture
        // keeps them.
        let q = parse_query("q :- R(x), S1(x, y1), S2(x, y2)").unwrap();
        let mut db = Database::new();
        for (name, arity) in [("R", 1), ("S1", 2), ("S2", 2)] {
            let rel = db.create_relation(name, arity).unwrap();
            for j in 0..60i64 {
                let p = ((j * 37 + arity as i64) % 99 + 1) as f64 / 100.0;
                let row: Vec<i64> = (0..arity as i64).map(|c| (j * (c + 3)) % 7).collect();
                db.relation_mut(rel).push(tuple(row), p).unwrap();
            }
        }
        let PlanSet { store, roots } = plan_set(&q);
        let is_join = |id: &PlanId| matches!(store.node(*id).kind, NodeKind::Join { .. });
        let joins: Vec<PlanId> = store
            .reachable(&roots)
            .into_iter()
            .filter(is_join)
            .collect();
        let arity = |id: &PlanId| store.node(*id).kind.inputs().len();
        assert!(joins.iter().any(|id| arity(id) == 3), "no 3-ary join");
        let (mut ev, order, _) = start_plan_set(&db, &q, &store, &roots, opts, false).unwrap();
        for &root in &order[1..] {
            ev.eval(root);
        }
        assert!(
            !ev.memo.keys().any(is_join),
            "a star's join was materialized"
        );
        assert_eq!(ev.fused_steps, joins.len() as u64);
        let inc = crate::IncrementalEval::new(&db, &q, &store, &roots, opts).unwrap();
        assert!(joins.iter().all(|&id| inc.captured_join(id)));
        let full = propagation_score_ids(&db, &q, &store, &roots, opts).unwrap();
        let score = inc.answers().boolean_score();
        assert_eq!(score.to_bits(), full.boolean_score().to_bits());
    }

    #[test]
    fn one_pass_bounds_sandwich_exact() {
        // Example 17: exact = 83/512 ≈ 0.162, ρ = 169/1024 ≈ 0.165; the
        // best single derivation has probability 0.5⁴ = 0.0625.
        let db = example17_db();
        let q = parse_query("q :- R(x), S(x), T(x, y), U(y)").unwrap();
        let PlanSet { store, roots } = plan_set(&q);
        assert_eq!(roots.len(), 2);
        let opts = ExecOptions::default();
        let (lower, upper) = propagation_bounds_ids(&db, &q, &store, &roots, opts).unwrap();
        let (lo, hi) = (lower.boolean_score(), upper.boolean_score());
        assert_eq!(lo, 0.0625, "best derivation");
        assert!(lo <= 83.0 / 512.0 && 83.0 / 512.0 <= hi);
        let rho = propagation_score_ids(&db, &q, &store, &roots, opts).unwrap();
        assert_eq!(hi.to_bits(), rho.boolean_score().to_bits());
        assert!((hi - 169.0 / 1024.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_baseline_counts_answers() {
        let db = example7_db();
        let q = parse_query("q(y) :- R(x), S(x, y)").unwrap();
        let ans = deterministic_answers(&db, &q, 1).unwrap();
        assert_eq!(ans.len(), 2);
        assert_eq!(ans.score_of(&[Value::Int(4)]), 1.0);
    }

    #[test]
    fn constants_in_atoms_filter_rows() {
        let db = example7_db();
        let q = parse_query("q :- R(1), S(1, y)").unwrap();
        let ans = propagation(&db, &q, ExecOptions::default()).unwrap();
        // F = R(1) ∧ (S(1,4) ∨ S(1,5)): 0.5 * 0.75 = 0.375 (safe: exact).
        assert!((ans.boolean_score() - 0.375).abs() < 1e-12);
    }

    #[test]
    fn predicates_filter_rows() {
        let db = example7_db();
        let q = parse_query("q :- R(x), S(x, y), y <= 4").unwrap();
        let ans = propagation(&db, &q, ExecOptions::default()).unwrap();
        // Only S(1,4) survives: 0.5 * 0.5.
        assert!((ans.boolean_score() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn repeated_var_in_atom() {
        let mut db = Database::new();
        let t = db.create_relation("T", 2).unwrap();
        db.relation_mut(t).push(tuple([1, 1]), 0.5).unwrap();
        db.relation_mut(t).push(tuple([1, 2]), 0.9).unwrap();
        let q = parse_query("q :- T(x, x)").unwrap();
        let ans = propagation(&db, &q, ExecOptions::default()).unwrap();
        assert!((ans.boolean_score() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unknown_relation_error() {
        let db = Database::new();
        let q = parse_query("q :- Z(x)").unwrap();
        assert!(matches!(
            eval_first(&db, &q),
            Err(ExecError::UnknownRelation(_))
        ));
    }

    #[test]
    fn arity_mismatch_error() {
        let mut db = Database::new();
        db.create_relation("R", 2).unwrap();
        let q = parse_query("q :- R(x)").unwrap();
        assert!(matches!(
            eval_first(&db, &q),
            Err(ExecError::AtomArity { .. })
        ));
    }

    #[test]
    fn empty_relation_yields_empty_answers() {
        let mut db = Database::new();
        db.create_relation("R", 1).unwrap();
        db.create_relation("S", 2).unwrap();
        let q = parse_query("q(y) :- R(x), S(x, y)").unwrap();
        let ans = propagation(&db, &q, ExecOptions::default()).unwrap();
        assert!(ans.is_empty());
        let det = deterministic_answers(&db, &q, 1).unwrap();
        assert!(det.is_empty());
    }

    #[test]
    fn parallel_errors_propagate() {
        // A missing relation must surface as an error from the threaded
        // path too, not a panic.
        let db = Database::new();
        let q = parse_query("q :- Z(x)").unwrap();
        let opts = ExecOptions {
            threads: 4,
            ..ExecOptions::default()
        };
        assert!(matches!(
            propagation(&db, &q, opts),
            Err(ExecError::UnknownRelation(_))
        ));
    }
}
