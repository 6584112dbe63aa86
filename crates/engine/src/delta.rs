//! Incremental re-scoring under streaming deltas (DBSP-style view
//! maintenance).
//!
//! [`IncrementalEval`] evaluates a plan set once — with the batch
//! evaluator itself (`crate::exec::Evaluator`), keeping its `PlanId`-keyed
//! memo as a persistent cached-view store plus each join's intermediate
//! accumulators — and then consumes append-only database growth as sorted
//! [`DeltaBatch`] appendices, propagating per-node *effective deltas* (new
//! rows plus rows whose score changed) up the plan DAG instead of
//! re-evaluating from scratch.
//!
//! # Delta algebra
//!
//! Every rule below reproduces the batch operator **bitwise**, which the
//! equivalence suite (`tests/delta_equivalence.rs`) enforces across
//! semantics and plan shapes:
//!
//! * **Scan** — relations are append-only and a scan's output key (its
//!   distinct variables) determines the full base row once the atom's
//!   constant and repeated-variable filters are applied, so scan deltas are
//!   pure insertions of fresh keys: a sorted merge of the cached scan and
//!   the filtered batch equals a full rescan. For an unfiltered atom that
//!   merge is the extension of the relation's base view, which the
//!   database does once for every cached answer and every later query
//!   (`exec::scan_view`); the cached scan is replaced by a copy of the
//!   refreshed view. In-place probability mutations are excluded up front
//!   (see *Fallback rules*).
//! * **Join** — a join output row determines its contributing input pair,
//!   and scores multiply (the join kernel, `rel::join_project` with every
//!   column kept, copies `ls · rs` unfolded; IEEE multiplication is
//!   commutative bitwise), so the delta of one fold step `acc ⋈ in` is
//!   `(Δacc ⋈ in') ∪ (acc' ⋈ Δin)` over the *updated* operands — both
//!   terms agree bitwise where they overlap, and each is one call of the
//!   kernel the batch fold steps through. The fold order ([`join_order`])
//!   is a function of the inputs' variables, so the captured per-step
//!   accumulators line up with it for the view's whole life.
//! * **Project** — a *touched group* is a distinct group key of the
//!   child's delta, and each one refolds from all of its operands in the
//!   updated child view: one contiguous run ([`Rel::prefix_run`]) when the
//!   group columns are a prefix of the child's canonical order, else
//!   collected in one pass over the child. The batch projection's kernel
//!   ([`kernels::fold_or`]) is order-free, so wherever the operands sat,
//!   the refold computes the full re-projection's bits.
//! * **Min** — `f64::min` over non-negative scores is an
//!   order-insensitive selection, and key sets only grow, so the affected
//!   keys (the union of the input deltas) are re-folded left-to-right
//!   across the updated input views — the same sequence
//!   [`crate::rel::min_combine_par`] applies.
//!
//! # Fallback rules
//!
//! [`IncrementalEval::apply_deltas`] refuses (returns
//! [`DeltaOutcome::Fallback`], leaving the caller to re-evaluate from
//! scratch) when a base relation's [`prob_epoch`] moved — an in-place
//! probability mutation (duplicate insert raising a probability,
//! `set_prob`, `scale_probs`) invalidates cached scan scores, which the
//! append-only delta algebra cannot repair. Everything else is handled
//! incrementally.
//!
//! [`prob_epoch`]: lapush_storage::Relation::prob_epoch

use crate::exec::{
    decode_answers, decoded_rows, scan_atom, scan_view, AnswerSet, Evaluator, ExecError,
    ExecOptions, ScanRows, Semantics, ShRel,
};
use crate::kernels;
use crate::prepare::{prepare_atoms, ScanShape};
use crate::rel::{join_order, join_project, merge_upsert, min_into_par, Par, Rel, Scratch};
use lapush_core::{NodeKind, PlanId, PlanStore};
use lapush_query::{Query, Var};
use lapush_storage::{Database, DeltaBatch, FxHashMap, RelId, Vid};
use std::sync::Arc;

/// What one [`IncrementalEval::apply_deltas`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaOutcome {
    /// The appended tuples did not change any answer (none survived the
    /// scan filters, or every touched score refolded to the same bits).
    Unchanged,
    /// Cached views and answers were updated in place.
    Updated {
        /// Number of answer tuples inserted or re-scored.
        rows: usize,
    },
    /// The delta algebra cannot repair the cached state (a base relation's
    /// probabilities mutated in place); the caller must re-evaluate from
    /// scratch. The state was left untouched and must be discarded.
    Fallback,
}

/// Per-atom snapshot of the base relation the cached views were built on.
struct AtomSnap {
    rel: RelId,
    base_rows: usize,
    prob_epoch: u64,
}

/// A captured evaluation: every plan node's materialized view plus the
/// bookkeeping needed to consume append-only deltas. Build with
/// [`IncrementalEval::new`] (one full evaluation, bit-identical to
/// [`crate::propagation_score_ids`]), then advance with
/// [`IncrementalEval::apply_deltas`] after the database grows.
pub struct IncrementalEval {
    opts: ExecOptions,
    roots: Vec<PlanId>,
    /// Reachable nodes in ascending id order (children before parents —
    /// hash-consing interns children first).
    nodes: Vec<PlanId>,
    atoms: Vec<AtomSnap>,
    /// Every reachable node's materialized result (the evaluator's memo).
    views: FxHashMap<PlanId, ShRel>,
    /// Intermediate accumulators of every `Join` node, in
    /// [`join_order`].
    joins: FxHashMap<PlanId, Vec<Rel>>,
    /// Min-fold over the root views, in root order.
    root_acc: Rel,
    /// Shared with whoever serves the answers ([`Self::shared_answers`]);
    /// extended in place whenever this is the only reference.
    answers: Arc<AnswerSet>,
}

impl IncrementalEval {
    /// Evaluate the plan set and capture every node's view. The produced
    /// [`IncrementalEval::answers`] are bit-identical to
    /// [`crate::propagation_score_ids`] with the same arguments (the memo
    /// discipline is the same; only the captured state is new).
    pub fn new(
        db: &Database,
        q: &Query,
        store: &PlanStore,
        roots: &[PlanId],
        opts: ExecOptions,
    ) -> Result<IncrementalEval, ExecError> {
        assert!(!roots.is_empty(), "no plans to evaluate");
        let mut ev = Evaluator::new(db, q, store, opts, true)?;
        ev.capture_joins();
        let atoms = (ev.prepared.iter())
            .map(|p| {
                let rel = db.relation(p.rel);
                AtomSnap {
                    rel: p.rel,
                    base_rows: rel.len(),
                    prob_epoch: rel.prob_epoch(),
                }
            })
            .collect();
        let mut root_acc = (*ev.eval(roots[0])).clone();
        for &r in &roots[1..] {
            let next = ev.eval(r);
            min_into_par(&mut root_acc, &next, Par::serial(), &mut ev.scratch);
        }
        let answers = Arc::new(decode_answers(&root_acc, q.head(), &db.codec()));
        let this = IncrementalEval {
            opts,
            roots: roots.to_vec(),
            nodes: store.reachable(roots),
            atoms,
            views: ev.memo,
            joins: ev.joins.unwrap_or_default(),
            root_acc,
            answers,
        };
        this.drop_orders(store, this.joins.keys().copied());
        Ok(this)
    }

    /// Forget the key orders the given join nodes built on their inputs
    /// and intermediates. The views outlive the evaluation by the lifetime
    /// of a cached answer; an order is only worth its memory while joins
    /// are running, so none of this state's own survives
    /// [`IncrementalEval::new`] or [`IncrementalEval::apply_deltas`]. The
    /// orders of the database's base views — which unfiltered scans read —
    /// are not part of this state: one set per relation however many
    /// answers are cached, kept until the relation changes.
    fn drop_orders(&self, store: &PlanStore, joins: impl Iterator<Item = PlanId>) {
        for id in joins {
            if let NodeKind::Join { inputs } = &store.node(id).kind {
                inputs.iter().for_each(|c| self.views[c].drop_orders());
            }
            self.joins[&id].iter().for_each(Rel::drop_orders);
        }
    }

    /// Key orders held by the captured views and join intermediates
    /// themselves (not those of the database's base views): zero whenever
    /// no call is in progress (what the equivalence suite checks).
    pub fn cached_orders(&self) -> usize {
        let mids = self.joins.values().flatten();
        let views = self.views.values().map(|v| &**v);
        views.chain(mids).map(Rel::cached_orders).sum()
    }

    /// Whether the capture kept join node `id`'s view and fold state.
    #[cfg(test)]
    pub(crate) fn captured_join(&self, id: PlanId) -> bool {
        self.views.contains_key(&id) && self.joins.contains_key(&id)
    }

    /// The maintained answer set — after [`IncrementalEval::apply_deltas`],
    /// bit-identical to a fresh evaluation over the grown database.
    pub fn answers(&self) -> &AnswerSet {
        &self.answers
    }

    /// [`IncrementalEval::answers`] as a shared handle, for holders that
    /// serve the set while this state keeps maintaining it. A handle still
    /// alive during [`IncrementalEval::apply_deltas`] keeps showing the set
    /// as it was (the state then updates a copy).
    pub fn shared_answers(&self) -> Arc<AnswerSet> {
        Arc::clone(&self.answers)
    }

    /// The options the state was captured with.
    pub fn options(&self) -> ExecOptions {
        self.opts
    }

    /// Consume everything appended to the base relations since capture (or
    /// since the previous call), merging per-node deltas into the cached
    /// views and the answer set. `q` and `store` must be the ones the
    /// state was built with.
    pub fn apply_deltas(
        &mut self,
        db: &Database,
        q: &Query,
        store: &PlanStore,
    ) -> Result<DeltaOutcome, ExecError> {
        let prepared = prepare_atoms(db, q)?;
        debug_assert_eq!(prepared.len(), self.atoms.len());
        for (snap, prep) in self.atoms.iter().zip(&prepared) {
            debug_assert_eq!(snap.rel, prep.rel);
            if db.relation(prep.rel).prob_epoch() != snap.prob_epoch {
                return Ok(DeltaOutcome::Fallback);
            }
        }
        let opts = self.opts;
        let mut scratch = Scratch::default();

        // Filtered scan deltas, one per query atom, in scan-output layout.
        let mut scan_deltas: Vec<Option<Rel>> = Vec::with_capacity(prepared.len());
        {
            let mut codec = db.codec();
            for ((atom, prep), snap) in q.atoms().iter().zip(&prepared).zip(&self.atoms) {
                let rel = db.relation(prep.rel);
                if rel.len() == snap.base_rows {
                    scan_deltas.push(None);
                    continue;
                }
                let batch: DeltaBatch = codec.delta_batch(prep.rel, snap.base_rows);
                let shape = ScanShape::of(q, atom);
                let (rows, sem) = (ScanRows::Delta(&batch), opts.semantics);
                let out = scan_atom(rel, prep, &shape, rows, sem, &mut scratch);
                scan_deltas.push((!out.is_empty()).then_some(out));
            }
        }

        // Propagate effective deltas bottom-up (ascending id: children
        // first). A node absent from `deltas` is untouched this round.
        let mut deltas: FxHashMap<PlanId, Rel> = FxHashMap::default();
        // Join nodes that ran a join this round (see `drop_orders`).
        let mut joined: Vec<PlanId> = Vec::new();
        let nodes = self.nodes.clone();
        for id in nodes {
            let node = store.node(id);
            let views = &self.views;
            let (new_view, node_delta): (Rel, Rel) = match &node.kind {
                NodeKind::Scan { atom } => {
                    let Some(d) = &scan_deltas[*atom] else {
                        continue;
                    };
                    let prep = &prepared[*atom];
                    let shape = ScanShape::of(q, &q.atoms()[*atom]);
                    let new = match shape.is_unfiltered(prep) {
                        true => scan_view(db, prep, shape.out_vars, opts.semantics, &mut scratch),
                        false => merge_upsert(&views[&id], d),
                    };
                    (new, d.clone())
                }
                NodeKind::Project { input } => {
                    let Some(d) = deltas.get(input) else { continue };
                    let old = &views[&id];
                    let nd = refold_groups(&views[input], old, d, opts.semantics);
                    if nd.is_empty() {
                        continue;
                    }
                    (merge_upsert(old, &nd), nd)
                }
                NodeKind::Join { inputs } => {
                    if !inputs.iter().any(|c| deltas.contains_key(c)) {
                        continue;
                    }
                    joined.push(id);
                    let refs: Vec<&Rel> = inputs.iter().map(|c| &*views[c]).collect();
                    let mids = self.joins.get_mut(&id).expect("join state captured");
                    let order = join_order(&refs);
                    let mut acc_delta: Option<Rel> = deltas.get(&inputs[order[0]]).cloned();
                    for s in 1..order.len() {
                        let in_new = refs[order[s]];
                        let d_in = deltas.get(&inputs[order[s]]);
                        let a_new: &Rel = match s {
                            1 => refs[order[0]],
                            _ => &mids[s - 2],
                        };
                        // One step of the batch fold: the kernel with
                        // every column kept.
                        let mut join = |a: &Rel, b: &Rel| join_project(a, b, None, &mut scratch);
                        let step = match (acc_delta.as_ref(), d_in) {
                            (None, None) => None,
                            (Some(da), None) => nonempty(join(da, in_new)),
                            (None, Some(di)) => nonempty(join(a_new, di)),
                            (Some(da), Some(di)) => {
                                // Both terms compute any shared key from
                                // updated operands, so the upsert order
                                // cannot matter.
                                let t1 = join(da, in_new);
                                let t2 = join(a_new, di);
                                nonempty(merge_upsert(&t2, &t1))
                            }
                        };
                        // Every step but the last updates its accumulator.
                        if let (Some(sd), Some(mid)) = (&step, mids.get_mut(s - 1)) {
                            *mid = merge_upsert(mid, sd);
                        }
                        acc_delta = step;
                    }
                    let Some(nd) = acc_delta else { continue };
                    (merge_upsert(&views[&id], &nd), nd)
                }
                NodeKind::Min { inputs } => {
                    if !inputs.iter().any(|c| deltas.contains_key(c)) {
                        continue;
                    }
                    let old = &views[&id];
                    let keys = affected_keys(&old.vars, inputs.iter().map(|c| deltas.get(c)));
                    let input_views: Vec<&Rel> = inputs.iter().map(|c| &*views[c]).collect();
                    let nd = refold_min(&old.vars, old, &keys, &input_views);
                    if nd.is_empty() {
                        continue;
                    }
                    (merge_upsert(old, &nd), nd)
                }
            };
            self.views.insert(id, Arc::new(new_view));
            deltas.insert(id, node_delta);
        }

        self.drop_orders(store, joined.into_iter());

        // Fold the root deltas into the accumulated minimum and decode the
        // changed answers — the same left-to-right min the batch path runs.
        let root_views: Vec<&Rel> = self.roots.iter().map(|r| &*self.views[r]).collect();
        let keys = affected_keys(
            &self.root_acc.vars,
            self.roots.iter().map(|r| deltas.get(r)),
        );
        let rd = refold_min(&self.root_acc.vars, &self.root_acc, &keys, &root_views);
        for (snap, prep) in self.atoms.iter_mut().zip(&prepared) {
            snap.base_rows = db.relation(prep.rel).len();
        }
        if rd.is_empty() {
            return Ok(DeltaOutcome::Unchanged);
        }
        self.root_acc = merge_upsert(&self.root_acc, &rd);
        let codec = db.codec();
        let answers = Arc::make_mut(&mut self.answers);
        answers.rows.extend(decoded_rows(&rd, q.head(), &codec));
        Ok(DeltaOutcome::Updated { rows: rd.len() })
    }
}

/// Empty-to-`None` (an empty delta short-circuits downstream work).
fn nonempty(rel: Rel) -> Option<Rel> {
    (!rel.is_empty()).then_some(rel)
}

/// Refold every projection group the child delta `d` touches — each
/// distinct key of `d` over the projection's columns (`old.vars`) — from
/// all of its operands in the updated child view. Group columns that are a
/// prefix of the child's canonical order name one contiguous run; any
/// other layout collects the operands in one pass over the child, checked
/// against the sorted touched keys. Returns the rows whose score is new or
/// changed bitwise, in canonical order.
fn refold_groups(child: &Rel, old: &Rel, d: &Rel, sem: Semantics) -> Rel {
    let cols: Vec<usize> = (old.vars.iter())
        .map(|&v| child.col_of(v).expect("projection var missing"))
        .collect();
    let mut touched: Vec<Vec<Vid>> = (0..d.len())
        .map(|r| cols.iter().map(|&c| d.get(r, c)).collect())
        .collect();
    touched.sort_unstable();
    touched.dedup();
    #[cfg(test)]
    refold_log::record(touched.len());
    // (touched group, operand score), grouped by touched group.
    let mut operands: Vec<(usize, f64)> = Vec::new();
    if cols.iter().copied().eq(0..cols.len()) {
        for (g, key) in touched.iter().enumerate() {
            let run = &child.scores()[child.prefix_run(key)];
            operands.extend(run.iter().map(|&p| (g, p)));
        }
    } else {
        let mut probe: Vec<Vid> = vec![0; cols.len()];
        for row in 0..child.len() {
            for (slot, &c) in probe.iter_mut().zip(&cols) {
                *slot = child.get(row, c);
            }
            if let Ok(g) = touched.binary_search(&probe) {
                operands.push((g, child.score(row)));
            }
        }
        operands.sort_unstable_by_key(|&(g, _)| g);
    }
    let mut nd = Rel::empty(old.vars.clone());
    let mut rest = &operands[..];
    while let Some(&(g, _)) = rest.first() {
        let (run, tail) = rest.split_at(rest.partition_point(|&(h, _)| h == g));
        rest = tail;
        let key = &touched[g];
        let score = match sem {
            Semantics::Probabilistic => kernels::fold_or(run.iter().map(|&(_, p)| p)),
            Semantics::Deterministic => 1.0,
        };
        let changed = old
            .score_of_row(key)
            .map_or(true, |s| s.to_bits() != score.to_bits());
        if changed {
            nd.push_row(key, score);
        }
    }
    nd
}

/// Projection groups refolded on this thread: the refold runs on the
/// thread calling [`IncrementalEval::apply_deltas`], and tests run
/// concurrently.
#[cfg(test)]
pub(crate) mod refold_log {
    std::thread_local!(static GROUPS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) });

    pub(super) fn record(groups: usize) {
        GROUPS.set(GROUPS.get() + groups);
    }

    pub(crate) fn groups() -> usize {
        GROUPS.get()
    }
}

/// Distinct keys touched by any of the given deltas, permuted into `vars`
/// order and sorted.
fn affected_keys<'a>(vars: &[Var], deltas: impl Iterator<Item = Option<&'a Rel>>) -> Vec<Vec<Vid>> {
    let mut keys: Vec<Vec<Vid>> = Vec::new();
    for d in deltas.flatten() {
        let map: Vec<usize> = vars
            .iter()
            .map(|&v| d.col_of(v).expect("min over mismatched vars"))
            .collect();
        for r in 0..d.len() {
            keys.push(map.iter().map(|&c| d.get(r, c)).collect());
        }
    }
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Re-fold the per-key minimum over `inputs` (left to right, first present
/// input initializing — exactly [`crate::rel::min_combine_par`]'s union
/// semantics) for each affected key, returning the rows that are new or
/// changed bitwise vs. `old`, in canonical order.
fn refold_min(vars: &[Var], old: &Rel, keys: &[Vec<Vid>], inputs: &[&Rel]) -> Rel {
    let maps: Vec<Vec<usize>> = inputs
        .iter()
        .map(|iv| {
            iv.vars
                .iter()
                .map(|&v| {
                    vars.iter()
                        .position(|&u| u == v)
                        .expect("min over mismatched vars")
                })
                .collect()
        })
        .collect();
    let mut nd = Rel::empty(vars.to_vec());
    let mut probe: Vec<Vid> = vec![0; vars.len()];
    for key in keys {
        let mut acc: Option<f64> = None;
        for (iv, map) in inputs.iter().zip(&maps) {
            probe.resize(map.len(), 0);
            for (slot, &kc) in probe.iter_mut().zip(map) {
                *slot = key[kc];
            }
            if let Some(s) = iv.score_of_row(&probe) {
                acc = Some(match acc {
                    None => s,
                    Some(a) => a.min(s),
                });
            }
        }
        let score = acc.expect("affected key absent from every input");
        let changed = old
            .score_of_row(key)
            .map_or(true, |s| s.to_bits() != score.to_bits());
        if changed {
            nd.push_row(key, score);
        }
    }
    nd
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::propagation_score_ids;
    use lapush_core::{minimal_plan_set, PlanSet, PlanStore};
    use lapush_query::{parse_query, QueryShape};
    use lapush_storage::tuple::tuple;

    fn assert_bitwise(got: &AnswerSet, want: &AnswerSet) {
        assert_eq!(got.len(), want.len(), "answer count");
        for (k, &s) in &want.rows {
            let g = got.score_of(k);
            assert_eq!(g.to_bits(), s.to_bits(), "score of {k:?}: {g} vs {s}");
        }
    }

    fn setup(q_text: &str) -> (lapush_query::Query, PlanStore, Vec<PlanId>) {
        let q = parse_query(q_text).unwrap();
        let PlanSet { store, roots } = minimal_plan_set(&QueryShape::of_query(&q));
        (q, store, roots)
    }

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
    fn capture_matches_batch_eval() {
        let db = example17_db();
        let (q, store, roots) = setup("q :- R(x), S(x), T(x, y), U(y)");
        let opts = ExecOptions::default();
        let inc = IncrementalEval::new(&db, &q, &store, &roots, opts).unwrap();
        let full = propagation_score_ids(&db, &q, &store, &roots, opts).unwrap();
        assert_bitwise(inc.answers(), &full);
    }

    #[test]
    fn deltas_track_batch_eval_bitwise() {
        let mut db = example17_db();
        let (q, store, roots) = setup("q(x) :- R(x), S(x), T(x, y), U(y)");
        let opts = ExecOptions::default();
        let mut inc = IncrementalEval::new(&db, &q, &store, &roots, opts).unwrap();
        // Grow every relation, in several batches, checking after each.
        for step in 0..4 {
            let x = 3 + step;
            db.relation_mut(0).push(tuple([x]), 0.25).unwrap();
            db.relation_mut(2).push(tuple([x, x]), 0.75).unwrap();
            if step % 2 == 0 {
                db.relation_mut(1).push(tuple([x]), 0.5).unwrap();
                db.relation_mut(3).push(tuple([x]), 0.5).unwrap();
            }
            let out = inc.apply_deltas(&db, &q, &store).unwrap();
            assert_ne!(out, DeltaOutcome::Fallback);
            let full = propagation_score_ids(&db, &q, &store, &roots, opts).unwrap();
            assert_bitwise(inc.answers(), &full);
        }
    }

    #[test]
    fn empty_delta_is_unchanged() {
        let db = example17_db();
        let (q, store, roots) = setup("q :- R(x), S(x), T(x, y), U(y)");
        let mut inc =
            IncrementalEval::new(&db, &q, &store, &roots, ExecOptions::default()).unwrap();
        assert_eq!(
            inc.apply_deltas(&db, &q, &store).unwrap(),
            DeltaOutcome::Unchanged
        );
    }

    #[test]
    fn filtered_out_rows_are_unchanged() {
        // Appends that fail the atom's constant filter change nothing.
        let mut db = example17_db();
        let (q, store, roots) = setup("q :- R(1), S(x), T(x, y), U(y)");
        let opts = ExecOptions::default();
        let mut inc = IncrementalEval::new(&db, &q, &store, &roots, opts).unwrap();
        db.relation_mut(0).push(tuple([7]), 0.9).unwrap();
        assert_eq!(
            inc.apply_deltas(&db, &q, &store).unwrap(),
            DeltaOutcome::Unchanged
        );
        let full = propagation_score_ids(&db, &q, &store, &roots, opts).unwrap();
        assert_bitwise(inc.answers(), &full);
    }

    #[test]
    fn unchanged_view_joined_twice_sorts_once_and_no_order_is_kept() {
        // 4-chain, 5 minimal plans: the scan of R2 is joined on x2 — its
        // second column, so it needs a key order — by `R2 ⋈ R3` and by
        // `R2 ⋈ π(R3 ⋈ R4)`. The capture sorts it once, on R2's base view;
        // rows appended to R3 then reach both joins in every
        // `apply_deltas` while R2 stays as it is, and nothing sorts it
        // again: the order is the database's, kept for as long as R2 does
        // not change, while the state itself keeps no order at all.
        use crate::rel::{order_log, MIN_SHARED_ORDER_ROWS};
        let (q, store, roots) =
            setup("q(x0, x4) :- R1(x0, x1), R2(x1, x2), R3(x2, x3), R4(x3, x4)");
        assert_eq!(roots.len(), 5);
        let mut db = Database::new();
        let mut state = 0x853c49e6748fea9bu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Sizes nothing else in this test process uses mark the scans in
        // the process-wide order log.
        let rows_of = |i: usize| 3 * MIN_SHARED_ORDER_ROWS + 11 * i;
        for i in 1..=4 {
            let rel = db.create_relation(format!("R{i}"), 2).unwrap();
            while db.relation(rel).len() < rows_of(i) {
                let (u, v) = ((next() % 300) as i64, (next() % 300) as i64);
                let p = (next() % 999 + 1) as f64 / 1000.0;
                db.relation_mut(rel).push(tuple([u, v]), p).unwrap();
            }
        }
        let r2_scan = (ScanShape::of(&q, &q.atoms()[1]).out_vars, rows_of(2));
        let r2_orders_built = |since: usize| {
            let built = order_log::snapshot().split_off(since);
            let of_r2 = |(vars, rows, key): &order_log::Built| {
                (vars, *rows) == (&r2_scan.0, r2_scan.1) && key[..] == [1]
            };
            built.iter().filter(|b| of_r2(b)).count()
        };
        let opts = ExecOptions::default();
        let before = order_log::snapshot().len();
        let mut inc = IncrementalEval::new(&db, &q, &store, &roots, opts).unwrap();
        assert_eq!(r2_orders_built(before), 1, "capture: two joins, one sort");
        assert_eq!(inc.cached_orders(), 0, "capture keeps no order");
        let r2_view = db.base_view(1, |_| unreachable!("the capture built it"));
        assert_eq!(r2_view.cached_orders(), 1, "the database does");

        for step in 0..2 {
            // Join values that occur: the new R3 row extends existing paths.
            let (x2, x3) = (7 + step, 11 + step);
            db.relation_mut(2).push(tuple([x2, x3]), 0.5).unwrap();
            let before = order_log::snapshot().len();
            let out = inc.apply_deltas(&db, &q, &store).unwrap();
            assert!(matches!(out, DeltaOutcome::Updated { .. }), "{out:?}");
            assert_eq!(r2_orders_built(before), 0, "step {step}: R2 did not change");
            assert_eq!(inc.cached_orders(), 0, "step {step}: apply keeps no order");
            let full = propagation_score_ids(&db, &q, &store, &roots, opts).unwrap();
            assert_bitwise(inc.answers(), &full);
        }
        let same = db.base_view(1, |_| unreachable!("R2 did not change"));
        assert!(Arc::ptr_eq(&r2_view, &same));
        assert_eq!(same.cached_orders(), 1);
    }

    #[test]
    fn round_robin_growth_keeps_join_layout() {
        // Three equal-sized relations grown round-robin, 10 fresh rows per
        // batch — the serving benchmark's write pattern. Each batch makes
        // one relation the largest, so an order keyed on sizes would swap
        // the inputs of `R1 ⋈ R2` and `R2 ⋈ R3` batch after batch. The
        // order is a function of the plan: every captured join keeps the
        // layout it had at capture, and the answers track a fresh
        // evaluation bitwise.
        use lapush_core::{single_plan_id, EnumOptions, SchemaInfo};
        use std::collections::HashSet;
        let q = parse_query("q(x0, x3) :- R1(x0, x1), R2(x1, x2), R3(x2, x3)").unwrap();
        let set = minimal_plan_set(&QueryShape::of_query(&q));
        let mut single = PlanStore::new();
        let schema = SchemaInfo::from_query(&q);
        let root = single_plan_id(&mut single, &q, &schema, EnumOptions::default());
        let shapes = [(set.store, set.roots), (single, vec![root])];

        let mut state = 0x2545f4914f6cdd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let domain = 40u64;
        let mut seen: HashSet<(RelId, i64, i64)> = HashSet::new();
        let mut fresh_row = |rel: RelId, next: &mut dyn FnMut() -> u64| loop {
            let (u, v) = ((next() % domain) as i64, (next() % domain) as i64);
            if seen.insert((rel, u, v)) {
                let p = (next() % 999 + 1) as f64 / 1000.0;
                return (tuple([u, v]), p);
            }
        };
        let mut base = Database::new();
        for i in 1..=3 {
            let rel = base.create_relation(format!("R{i}"), 2).unwrap();
            for _ in 0..100 {
                let (row, p) = fresh_row(rel, &mut next);
                base.relation_mut(rel).push(row, p).unwrap();
            }
        }
        let batches: Vec<Vec<_>> = (0..9)
            .map(|b| {
                let rel = (b % 3) as RelId;
                (0..10).map(|_| (rel, fresh_row(rel, &mut next))).collect()
            })
            .collect();

        let opts = ExecOptions::default();
        for (store, roots) in &shapes {
            let mut db = base.clone();
            let mut inc = IncrementalEval::new(&db, &q, store, roots, opts).unwrap();
            let join_vars = |inc: &IncrementalEval| -> Vec<(PlanId, Vec<Var>)> {
                (inc.nodes.iter())
                    .filter(|&&id| matches!(store.node(id).kind, NodeKind::Join { .. }))
                    .map(|&id| (id, inc.views[&id].vars.clone()))
                    .collect()
            };
            let captured = join_vars(&inc);
            assert!(!captured.is_empty(), "the plans join");
            for (b, batch) in batches.iter().enumerate() {
                for (rel, (row, p)) in batch {
                    db.relation_mut(*rel).push(row.clone(), *p).unwrap();
                }
                let out = inc.apply_deltas(&db, &q, store).unwrap();
                assert_ne!(out, DeltaOutcome::Fallback, "batch {b}");
                let full = propagation_score_ids(&db, &q, store, roots, opts).unwrap();
                assert_bitwise(inc.answers(), &full);
                assert_eq!(join_vars(&inc), captured, "batch {b}: join layout");
            }
        }
    }

    #[test]
    fn projection_delta_refolds_touched_groups_only() {
        // `π_y T(x, y)` groups on the scan's second column, not a prefix of
        // the child's order: 400 groups of five operands. Each 10-row batch
        // touches 10 of them, and refolds those and no others.
        let (q, store, roots) = setup("q(y) :- T(x, y)");
        let mut db = Database::new();
        let t = db.create_relation("T", 2).unwrap();
        let p = |i: i64| ((i * 37) % 997 + 1) as f64 / 1000.0;
        for i in 0..2000 {
            db.relation_mut(t)
                .push(tuple([i / 400, i % 400]), p(i))
                .unwrap();
        }
        let opts = ExecOptions::default();
        let mut inc = IncrementalEval::new(&db, &q, &store, &roots, opts).unwrap();
        for batch in 0..3i64 {
            for i in 0..10 {
                let row = tuple([5 + batch, 37 * i + batch]);
                db.relation_mut(t).push(row, p(i + batch)).unwrap();
            }
            let before = refold_log::groups();
            let out = inc.apply_deltas(&db, &q, &store).unwrap();
            assert_eq!(out, DeltaOutcome::Updated { rows: 10 });
            assert_eq!(refold_log::groups() - before, 10, "batch {batch}");
            let full = propagation_score_ids(&db, &q, &store, &roots, opts).unwrap();
            assert_bitwise(inc.answers(), &full);
        }
    }

    #[test]
    fn prob_raise_falls_back() {
        // Re-inserting an existing tuple with a higher probability mutates
        // a cached scan score in place — the one thing deltas can't fix.
        let mut db = example17_db();
        let (q, store, roots) = setup("q :- R(x), S(x), T(x, y), U(y)");
        let mut inc =
            IncrementalEval::new(&db, &q, &store, &roots, ExecOptions::default()).unwrap();
        db.relation_mut(0).push(tuple([1]), 0.9).unwrap();
        assert_eq!(
            inc.apply_deltas(&db, &q, &store).unwrap(),
            DeltaOutcome::Fallback
        );
    }

    #[test]
    fn duplicate_insert_without_raise_is_unchanged() {
        let mut db = example17_db();
        let (q, store, roots) = setup("q :- R(x), S(x), T(x, y), U(y)");
        let mut inc =
            IncrementalEval::new(&db, &q, &store, &roots, ExecOptions::default()).unwrap();
        db.relation_mut(0).push(tuple([1]), 0.25).unwrap();
        assert_eq!(
            inc.apply_deltas(&db, &q, &store).unwrap(),
            DeltaOutcome::Unchanged
        );
    }

    #[test]
    fn unknown_constant_resolving_later() {
        // The constant 9 is not interned at capture (scan is empty); an
        // appended tuple introduces it and the delta path must pick the
        // new answers up.
        let mut db = example17_db();
        let (q, store, roots) = setup("q(y) :- T(9, y)");
        let opts = ExecOptions::default();
        let mut inc = IncrementalEval::new(&db, &q, &store, &roots, opts).unwrap();
        assert!(inc.answers().is_empty());
        db.relation_mut(2).push(tuple([9, 4]), 0.5).unwrap();
        let out = inc.apply_deltas(&db, &q, &store).unwrap();
        assert_eq!(out, DeltaOutcome::Updated { rows: 1 });
        let full = propagation_score_ids(&db, &q, &store, &roots, opts).unwrap();
        assert_bitwise(inc.answers(), &full);
    }
}
