//! Anytime top-k ranking: bound propagation with early termination.
//!
//! Exhaustive ranking evaluates every minimal plan for every answer group
//! and only then sorts ([`crate::AnswerSet::ranked`]). Most of that work is
//! invisible in a top-k listing: an answer whose score can be *bounded*
//! below the k-th best needs no further evaluation. [`TopkEval`] drives the
//! one plan evaluator (`crate::exec::Evaluator`) through two of its
//! data-driven variants — the first (cheapest) plan with a lower-bound
//! score column, the remaining plans restricted to the rows that can reach
//! a surviving answer group — with the guarantee that the returned top-k
//! set and scores are **bit-identical** to the exhaustive ranking's prefix.
//!
//! ## Bounds
//!
//! For [`Semantics::Probabilistic`] the ranked score is the propagation
//! score `ρ(q)` — the minimum over the minimal plans' extensional scores
//! (Definition 14); each plan's score upper-bounds the true probability
//! (Corollary 19). Two bounds per answer group come out of a single pass
//! over the first plan `P₁`:
//!
//! - **upper** `hi = score_{P₁}`: the min over plans can only shrink, so
//!   the first plan's extensional score bounds `ρ` from above;
//! - **lower** `lo`: the same plan with its groups folded by `max` — the
//!   probability of the best single derivation. Independent-OR folds
//!   dominate `max` folds and joins multiply in both, so by induction
//!   *every* plan's extensional score is at least `lo`, hence `ρ ≥ lo`
//!   (the lower bound of [`crate::propagation_bounds_ids`] too).
//!
//! `lo` is the optional lower-bound column of [`Rel`]: scans seed it and
//! the operators fold it in the same pass as the scores, so the scores
//! stay bit-identical to a plain evaluation at ~10% extra cost, instead of
//! the 2× of a second pass. Both bounds hold mathematically, but not in
//! floating point: a group's score is `1 − (1 − p)` where its `lo` is `p`
//! itself, and the two roundings differ, so `lo` may sit a few ulps above
//! the score — which the threshold below allows for.
//!
//! ## Pruning soundness
//!
//! Let `τ` be the k-th largest lower bound. A group with `hi < τ` has
//! `ρ ≤ hi < τ ≤ lo_j ≤ ρ_j` for at least `k` other groups `j`: it ranks
//! strictly below `k` others no matter how ties at the boundary resolve
//! (the ranking orders by score first), so it can never enter the top-k.
//! Groups *at* the boundary are never pruned — their `hi ≥ ρ ≥ τ`. The
//! threshold is additionally shaved by a relative [`LO_SLACK`] so that
//! floating-point rounding in the `lo` folds can never evict a true top-k
//! member.
//!
//! ## Restricted re-evaluation
//!
//! The surviving groups' head-variable values seed the semi-join reducer
//! of [`crate::semijoin`] (the one Optimization 3 runs, here with a
//! restriction on the head variables), which runs its passes to a
//! fixpoint: the restriction propagates through join variables into the
//! atoms holding no head variable (the middle of a chain). The remaining
//! plans scan only the surviving rows. A removed row participates in no
//! full join producing a surviving answer; every row contributing to a
//! surviving group passes (its co-rows in the same full join pass by
//! induction), so each surviving group's row multiset — and therefore its
//! folded score — is unchanged at every plan node. The removed rows can't
//! leak into a surviving fold either: a minimal plan eliminates a
//! variable only after joining every atom containing it, so a removed row
//! — dangling on some variable — is dropped at that variable's join (or
//! its fold group is, carrying the dangling value) before reaching the
//! root. Nor can the filtered cardinalities reassociate a float product:
//! join order and column layout are functions of the plan
//! ([`crate::rel::join_order`]), so every node shape is evaluated
//! restricted. A projection over a join runs fused (the pairwise join
//! fold, `rel::join_fold`, whose last step projects) as in the full visit,
//! so a restricted join's result never exists either. Final scores fold with the pointwise min of the exhaustive
//! path, dropping keys outside the survivor set.
//!
//! Non-probabilistic semantics, single-plan sets, plan sets with `min`
//! nodes, and answer sets with at most `k` groups degrade to the
//! exhaustive evaluation (nothing can be pruned); the result contract is
//! unchanged.

use crate::exec::{
    decode_answers, decoded_rows, start_plan_set, Evaluator, ExecError, ExecOptions, Semantics,
};
use crate::rel::{min_into_impl, Rel};
use crate::semijoin::reduce_rows;
use lapush_core::{PlanId, PlanStore};
use lapush_query::{Query, Var};
use lapush_storage::{Database, Value, Vid};

/// Relative slack between a lower bound and the scores it bounds: the `lo`
/// fold is only mathematically, not bitwise, dominated by every plan's
/// score (a score's `1 − (1 − p)` and its bound's `p` round differently;
/// the bound holds to ~1e-12 relative). The pruning threshold is shaved by
/// this much.
pub const LO_SLACK: f64 = 1e-9;

/// Counters describing one top-k evaluation, surfaced as `topk.*` STATS
/// by the serve layer and logged by the `fig_topk` bench.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TopkStats {
    /// Answer groups carried through the full multi-plan min-combine.
    pub evaluated: u64,
    /// Answer groups pruned after the first plan's bounds pass.
    pub pruned: u64,
    /// Plans in the (cost-ordered) plan set.
    pub plans: u64,
    /// Always 0: no node shape forces an unrestricted evaluation any
    /// more (see module docs). Kept only because the benchmark's trace
    /// still reports it; it goes with that reader.
    pub fallback_nodes: u64,
}

/// Result of [`propagation_score_topk`].
#[derive(Debug, Clone)]
pub struct TopkResult {
    /// The top `k` answers in rank order — bit-identical to the first `k`
    /// entries of the exhaustive [`crate::AnswerSet::ranked`].
    pub ranked: Vec<(Box<[Value]>, f64)>,
    /// Pruning counters.
    pub stats: TopkStats,
}

/// One in-flight anytime top-k evaluation: plan-at-a-time stepping with
/// inspectable `[lo, hi]` score intervals between steps.
///
/// [`TopkEval::new`] runs the first (cheapest) plan with bounds and prunes;
/// each [`TopkEval::step`] folds one more plan into the surviving
/// candidates, shrinking their upper bounds; [`TopkEval::finish`] drains
/// the remaining plans and returns the exact top-k.
pub struct TopkEval<'a> {
    ev: Evaluator<'a>,
    k: usize,
    /// Cost-ordered plan roots; `plans[..pos]` are folded into `acc`.
    plans: Vec<PlanId>,
    pos: usize,
    /// True when pruning engaged: the remaining plans are evaluated
    /// restricted to the survivors. False runs the exhaustive fold.
    pruning: bool,
    /// Candidate groups (survivors, or all groups when not pruning) with
    /// the running min-combined scores — the current upper bounds.
    acc: Rel,
    /// Lower bounds aligned with `acc`'s rows (empty in degraded modes).
    lo: Vec<f64>,
    stats: TopkStats,
}

impl<'a> TopkEval<'a> {
    /// Set up the evaluation: order the plans cheapest-first, evaluate the
    /// first with bounds, and prune. Costs about one plan evaluation.
    pub fn new(
        db: &'a Database,
        q: &'a Query,
        store: &'a PlanStore,
        roots: &[PlanId],
        k: usize,
        opts: ExecOptions,
    ) -> Result<Self, ExecError> {
        // Bounds only pay off when there is something to prune (several
        // plans, more than k groups) and the ranked score actually is a
        // min of per-plan upper bounds.
        let bounds = opts.semantics == Semantics::Probabilistic && roots.len() > 1 && k > 0;
        let (ev, plans, first) = start_plan_set(db, q, store, roots, opts, bounds)?;
        let mut acc = (*first).clone();
        let mut this = TopkEval {
            stats: TopkStats {
                plans: plans.len() as u64,
                evaluated: acc.len() as u64,
                ..TopkStats::default()
            },
            ev,
            k,
            plans,
            pos: 1,
            pruning: false,
            lo: acc.drop_lower_bounds().unwrap_or_default(),
            acc,
        };
        // No lower bounds (not asked for, or lost at a `min` node): the
        // plain evaluation of the first plan starts an exhaustive fold.
        if this.acc.len() > k && !this.lo.is_empty() {
            this.prune();
        }
        Ok(this)
    }

    /// Choose the threshold, prune `acc`, and restrict the evaluator to the
    /// rows that can reach a survivor; keeps the exhaustive fold when
    /// nothing can be pruned.
    fn prune(&mut self) {
        // τ = k-th largest lower bound, shaved (see [`LO_SLACK`]). Pruning
        // keeps strictly less, so a looser τ only means fewer groups
        // pruned — never a wrong answer.
        let mut lo_sorted = self.lo.clone();
        let (_, kth, _) = lo_sorted.select_nth_unstable_by(self.k - 1, |a, b| {
            b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal)
        });
        let tau = *kth * (1.0 - LO_SLACK);
        let keep = prune_mask(self.acc.scores(), tau);
        if keep.len() == self.acc.len() {
            // Nothing pruned: restricting the scans would remove next to
            // nothing, so run the cheaper unrestricted fold.
            return;
        }
        self.stats.evaluated = keep.len() as u64;
        self.stats.pruned = (self.acc.len() - keep.len()) as u64;
        self.lo = keep.iter().map(|&i| self.lo[i as usize]).collect();
        self.acc = self.acc.gather(&keep);

        // The survivors' head values, per variable, seed the reducer; every
        // atom it could shrink — any with a variable — scans its list.
        let allowed: Vec<(Var, Vec<Vid>)> = (self.acc.vars.iter().enumerate())
            .map(|(c, &v)| {
                let mut vids = self.acc.col(c).to_vec();
                vids.sort_unstable();
                vids.dedup();
                (v, vids)
            })
            .collect();
        let ev = &mut self.ev;
        let preps: Vec<_> = ev.prepared.iter().map(Some).collect();
        let survivors = reduce_rows(ev.db, ev.q, &preps, &allowed);
        let filtered_mask = (ev.q.atoms().iter().enumerate())
            .filter(|(_, atom)| atom.vars().next().is_some())
            .fold(0u64, |mask, (i, _)| mask | 1 << i);
        ev.restrict_to(survivors, filtered_mask);
        self.pruning = true;
    }

    /// Plans not yet folded into the candidates' scores.
    pub fn remaining(&self) -> usize {
        self.plans.len() - self.pos
    }

    /// Pruning counters (final once [`Self::remaining`] reaches zero).
    pub fn stats(&self) -> TopkStats {
        self.stats
    }

    /// Fold the next plan into the candidate scores. Returns `false` once
    /// every plan has been folded (the bounds are then exact).
    pub fn step(&mut self) -> Result<bool, ExecError> {
        let Some(&root) = self.plans.get(self.pos) else {
            return Ok(false);
        };
        self.pos += 1;
        let ev = &mut self.ev;
        let next = match self.pruning {
            true => ev.eval_restricted(root),
            false => ev.eval(root),
        };
        // Restricted plans may still produce rows for pruned groups (the
        // reducer restricts rows, not answer tuples): those are dropped.
        min_into_impl(&mut self.acc, &next, ev.par, &mut ev.scratch, !self.pruning);
        Ok(true)
    }

    /// Current candidates as `(answer, lo, hi)` intervals, best current
    /// upper bound first. Intervals shrink as plans fold in; after the
    /// last step `lo == hi == ρ` exactly.
    pub fn bounds(&self) -> Vec<(Box<[Value]>, f64, f64)> {
        let exact = self.remaining() == 0;
        let codec = self.ev.db.codec();
        let mut out: Vec<(Box<[Value]>, f64, f64)> =
            decoded_rows(&self.acc, self.ev.q.head(), &codec)
                .enumerate()
                .map(|(i, (key, hi))| {
                    // Clamp: the lo fold is only mathematically ≤ hi;
                    // rounding may put it an ulp above.
                    let lo = match exact {
                        true => hi,
                        false => self.lo.get(i).map_or(0.0, |lo| lo.min(hi)),
                    };
                    (key, lo, hi)
                })
                .collect();
        out.sort_unstable_by(|a, b| {
            b.2.partial_cmp(&a.2)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        out
    }

    /// Drain the remaining plans and return the exact top-k.
    pub fn finish(mut self) -> Result<TopkResult, ExecError> {
        while self.step()? {}
        let ev = &self.ev;
        let answers = decode_answers(&self.acc, ev.q.head(), &ev.db.codec());
        Ok(TopkResult {
            ranked: answers.ranked_top(self.k),
            stats: self.stats,
        })
    }
}

/// Surviving row indices (`hi ≥ τ`), ascending.
fn prune_mask(hi: &[f64], tau: f64) -> Vec<u32> {
    (0..hi.len())
        .filter(|&i| hi[i] >= tau)
        .map(|i| i as u32)
        .collect()
}

/// Top-k propagation-score ranking with early termination: the first `k`
/// entries of the exhaustive ranking, bit-identical, typically without
/// evaluating most answer groups past the first plan.
///
/// Semantically `propagation_score_ids(db, q, store, roots, opts)?
/// .ranked_top(k)`, plus the pruning counters.
pub fn propagation_score_topk(
    db: &Database,
    q: &Query,
    store: &PlanStore,
    roots: &[PlanId],
    k: usize,
    opts: ExecOptions,
) -> Result<TopkResult, ExecError> {
    TopkEval::new(db, q, store, roots, k, opts)?.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::propagation_score_ids;
    use lapush_core::{minimal_plan_set, NodeKind, PlanSet};
    use lapush_query::{parse_query, QueryShape};
    use lapush_storage::tuple::tuple;

    /// Deterministic pseudo-random probability in (0, 1).
    fn prob(i: u64) -> f64 {
        let mut z = i.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        z ^= z >> 31;
        ((z % 997) + 1) as f64 / 1000.0
    }

    /// A 3-atom chain `Q(a) :- R(a,x), S(x,y), T(y)` with enough answer
    /// groups and plans for pruning to engage.
    fn chain_db(n: i64) -> (Database, Query) {
        let mut db = Database::new();
        let r = db.create_relation("R", 2).unwrap();
        let s = db.create_relation("S", 2).unwrap();
        let t = db.create_relation("T", 1).unwrap();
        for i in 0..n {
            db.relation_mut(r)
                .push(tuple([i, i % 7]), prob(i as u64))
                .unwrap();
            db.relation_mut(s)
                .push(tuple([i % 7, i % 5]), prob(1000 + i as u64))
                .unwrap();
            db.relation_mut(t)
                .push(tuple([i % 5]), prob(2000 + i as u64))
                .unwrap();
        }
        let q = parse_query("q(a) :- R(a, x), S(x, y), T(y)").unwrap();
        (db, q)
    }

    fn assert_topk_matches(db: &Database, q: &Query, k: usize, opts: ExecOptions) -> TopkStats {
        let PlanSet { store, roots } = minimal_plan_set(&QueryShape::of_query(q));
        let full = propagation_score_ids(db, q, &store, &roots, opts).unwrap();
        let expected = full.ranked_top(k);
        let got = propagation_score_topk(db, q, &store, &roots, k, opts).unwrap();
        assert_eq!(got.ranked.len(), expected.len());
        for ((gk, gs), (ek, es)) in got.ranked.iter().zip(&expected) {
            assert_eq!(gk, ek);
            assert_eq!(gs.to_bits(), es.to_bits());
        }
        got.stats
    }

    #[test]
    fn topk_matches_exhaustive_prefix() {
        let (db, q) = chain_db(60);
        for k in [1, 3, 10] {
            for threads in [1, 4] {
                let opts = ExecOptions {
                    threads,
                    ..ExecOptions::default()
                };
                let stats = assert_topk_matches(&db, &q, k, opts);
                assert_eq!(stats.evaluated + stats.pruned, 60, "k={k}");
            }
        }
    }

    #[test]
    fn topk_prunes_on_chain() {
        let (db, q) = chain_db(60);
        let stats = assert_topk_matches(&db, &q, 3, ExecOptions::default());
        assert!(stats.plans > 1, "chain-3 has several minimal plans");
        assert!(stats.pruned > 0, "expected pruning, got {stats:?}");
    }

    #[test]
    fn k_at_least_answer_count_degrades() {
        let (db, q) = chain_db(20);
        let stats = assert_topk_matches(&db, &q, 20, ExecOptions::default());
        assert_eq!(stats.pruned, 0);
        let stats = assert_topk_matches(&db, &q, 1000, ExecOptions::default());
        assert_eq!(stats.pruned, 0);
    }

    #[test]
    fn k_zero_is_empty() {
        let (db, q) = chain_db(10);
        let stats = assert_topk_matches(&db, &q, 0, ExecOptions::default());
        assert_eq!(stats.pruned, 0);
    }

    #[test]
    fn deterministic_semantics_degrade() {
        let (db, q) = chain_db(30);
        let opts = ExecOptions {
            semantics: Semantics::Deterministic,
            ..ExecOptions::default()
        };
        let stats = assert_topk_matches(&db, &q, 5, opts);
        assert_eq!(stats.pruned, 0, "set semantics must not prune");
    }

    #[test]
    fn boolean_query_top1() {
        // Example 17: a Boolean query has at most one answer group.
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
        let q = parse_query("q :- R(x), S(x), T(x, y), U(y)").unwrap();
        let got = assert_topk_matches(&db, &q, 1, ExecOptions::default());
        assert_eq!(got.evaluated, 1);
    }

    #[test]
    fn restricted_visits_fuse_every_projected_join() {
        // The 7-chain's 132 minimal plans share 294 joins, each under one
        // projection. A pruned top-k evaluates its first plan in full and
        // every other plan restricted to the survivors; both visits fuse
        // each projection with the join below it, so neither memo ever
        // holds a join result.
        let (db, q) = crate::exec::tests::chain7();
        let PlanSet { store, roots } = minimal_plan_set(&QueryShape::of_query(&q));
        assert_eq!(roots.len(), 132);
        let is_join = |id: &PlanId| matches!(store.node(*id).kind, NodeKind::Join { .. });
        let joins_of =
            |plans: &[PlanId]| store.reachable(plans).into_iter().filter(is_join).count();
        assert_eq!(joins_of(&roots), 294);

        let (k, opts) = (3, ExecOptions::default());
        let mut eval = TopkEval::new(&db, &q, &store, &roots, k, opts).unwrap();
        assert!(eval.stats().pruned > 0, "expected pruning");
        while eval.step().unwrap() {}
        let ev = &eval.ev;
        assert!(!ev.restricted.is_empty());
        assert!(
            !ev.restricted.keys().any(is_join),
            "a restricted join was materialized"
        );
        assert!(!ev.memo.keys().any(is_join), "a join was materialized");
        // One fused visit per projected join of the full first plan, and
        // one per projected join the restricted plans reach.
        let fused = joins_of(&eval.plans[..1]) + joins_of(&eval.plans[1..]);
        assert_eq!(ev.fused_steps, fused as u64);

        let full = propagation_score_ids(&db, &q, &store, &roots, opts).unwrap();
        let expected = full.ranked_top(k);
        let got = eval.finish().unwrap();
        assert_eq!(got.ranked.len(), expected.len());
        for ((gk, gs), (ek, es)) in got.ranked.iter().zip(&expected) {
            assert_eq!(gk, ek);
            assert_eq!(gs.to_bits(), es.to_bits());
        }
    }

    #[test]
    fn anytime_intervals_shrink_and_converge() {
        let (db, q) = chain_db(60);
        let PlanSet { store, roots } = minimal_plan_set(&QueryShape::of_query(&q));
        let opts = ExecOptions::default();
        let mut eval = TopkEval::new(&db, &q, &store, &roots, 5, opts).unwrap();
        type Snapshot = Vec<(Box<[Value]>, f64, f64)>;
        let mut prev: Option<Snapshot> = None;
        loop {
            let snap = eval.bounds();
            for (key, lo, hi) in &snap {
                assert!(lo <= hi, "{key:?}: [{lo}, {hi}]");
            }
            if let Some(prev) = &prev {
                // Upper bounds only shrink; candidate set is fixed.
                assert_eq!(prev.len(), snap.len());
                for (key, _, hi) in &snap {
                    let old = prev
                        .iter()
                        .find(|(k, _, _)| k == key)
                        .map(|&(_, _, h)| h)
                        .unwrap();
                    assert!(*hi <= old);
                }
            }
            prev = Some(snap);
            if !eval.step().unwrap() {
                break;
            }
        }
        let last = prev.unwrap();
        for (_, lo, hi) in &last {
            assert_eq!(lo.to_bits(), hi.to_bits(), "exact after the last plan");
        }
        let full = propagation_score_ids(&db, &q, &store, &roots, opts).unwrap();
        let expected = full.ranked_top(5);
        let got = eval.finish().unwrap();
        for ((gk, gs), (ek, es)) in got.ranked.iter().zip(&expected) {
            assert_eq!(gk, ek);
            assert_eq!(gs.to_bits(), es.to_bits());
        }
    }
}
