//! # lapush-engine
//!
//! Executes the plans of `lapush-core` against a `lapush-storage` database
//! using the **extensional score semantics** of Definition 4: joins multiply
//! scores, probabilistic projections combine duplicate groups with
//! independent-OR, and `min` operators take the per-tuple minimum across
//! alternative subplans (Optimization 1).
//!
//! By Corollary 19, the score of any plan upper-bounds the true query
//! probability; the minimum over all minimal plans is the propagation score
//! `ρ(q)` ([`propagation_score_ids`]).
//!
//! Engine-level features:
//! * [`exec::ExecOptions::reuse_views`] — Optimization 2 (Algorithm 3):
//!   memoize shared subquery results during evaluation of the single plan.
//! * [`semijoin::reduce_database`] — Optimization 3: a full deterministic
//!   semi-join reduction of the base relations before evaluation.
//! * deterministic (set) semantics for the "standard SQL" baseline.
//!
//! ## Dictionary-encoded, columnar sort-merge execution
//!
//! The executor never manipulates `Value`s on its hot paths. Each
//! evaluation first encodes the query's base relations through the
//! database's value codec (`lapush_storage::Database::codec`) under one
//! short-lived lock: every distinct value is interned once into a dense
//! `u32` vid, and encoded base columns are cached on the database, so
//! repeated evaluations pay nothing and concurrent evaluations only
//! serialize on the brief encode/decode sections. The full scan of an
//! atom without filters is cached one level higher: the database keeps the
//! relation sorted and column-major as its *base view*
//! (`lapush_storage::Database::base_view`; built by the first evaluation
//! that needs it, extended when the relation grows), and a scan is a column
//! copy of it under the query's variable names. From there on every
//! intermediate [`Rel`] is a **sorted columnar batch** — one dense vid
//! vector per variable plus a score column, rows kept in canonical
//! lexicographic order — and all operators are sort/merge algorithms:
//! one merge-join kernel on shared-variable keys, folded pairwise for
//! every join (a plain join keeps every column; a projection directly
//! over a join folds the join's merge output itself, so that join result
//! is never materialized), grouped-scan projections over runs of equal
//! group keys, pointwise sorted merges for `min`, and merge-based
//! semi-join membership. A join reads an input whose key is
//! not a column prefix through that relation's *key order*, which the
//! relation builds on first use and keeps: nothing is sorted twice per
//! evaluation, however many plans join the same view on the same key —
//! and the copy of a base view reads the orders of the view itself, sorted
//! once per database state for every query, top-k pass and cached answer
//! (see [`rel`]). Sort keys pack up to four vid
//! columns into one integer, so nothing on these paths hashes or
//! allocates per row (see [`rel`] for the full contract). The inner
//! loops — key packing, run-boundary detection, permutation gathers,
//! galloping merge advance, and the score folds — live in [`kernels`],
//! one safe loop each.
//!
//! ## Parallelism
//!
//! None: every evaluation runs on the calling thread, and no engine
//! function reads a thread budget ([`exec::ExecOptions::threads`] is
//! unread). [`pool`] stays here as the scoped-task primitive of Monte
//! Carlo sampling (`lapush_lineage::monte_carlo_each`) and of the
//! `fig_serve` client fan-out.
//!
//! **Decode-at-the-boundary invariant:** vids become `Value`s exactly once
//! per evaluation, when the final encoded relation is turned into the
//! public [`AnswerSet`] (and, symmetrically, when `lapush_lineage`
//! materializes answer keys). Everything the engine returns is therefore
//! bit-for-bit identical to a value-level evaluation — interning is
//! injective, so equality joins and duplicate elimination are preserved
//! exactly, and order/`LIKE` predicates are evaluated on the stored values
//! at scan time *before* rows enter the encoded pipeline (vids are
//! assigned in first-seen order and carry no value order).
//!
//! ## One plan evaluator
//!
//! Plans arrive as ids into a `lapush_core::PlanStore` — a hash-consed DAG
//! in which structurally equal subplans share one `lapush_core::PlanId`.
//! One memoized fold
//! over that DAG (`exec::Evaluator`) is the only code that maps a plan
//! node to scan / join / project / min; every entry point is a driver over
//! it. Its memo is keyed by `PlanId`: scans always (a scan depends only on
//! the database, atom, and semantics); every node under
//! [`exec::ExecOptions::reuse_views`] (Optimization 2 — equal subquery keys
//! of a `lapush_core::single_plan_id` are equal ids, and `min` branches
//! have their own, so it is sound for arbitrary plans); and across the
//! *whole set* in plan-set evaluation ([`propagation_score_ids`], top-k,
//! capture), so
//! a subplan occurring in many minimal plans is evaluated once per call.
//!
//! A hit hands out the same reference-counted relation the recomputation
//! would have produced — a pointer bump, not a copy — so answer sets are
//! bit-identical to plan-at-a-time evaluation. The evaluator's variants
//! are data it holds, not further walks:
//!
//! * **anytime top-k** ([`topk`]) — the first plan's scans seed an
//!   optional lower-bound score column on [`Rel`] that the operators carry
//!   alongside the scores; after pruning, the remaining plans scan
//!   per-atom *survivor row lists* from the reducer of [`semijoin`]
//!   instead of the full relations;
//! * **incremental evaluation** ([`delta`]) — [`delta::IncrementalEval`]
//!   keeps the evaluator's memo as a persistent view store, plus each
//!   join's fold order and intermediates, and consumes append-only growth
//!   as sorted delta batches. Its delta *propagation* pass is a different
//!   algorithm, not a second evaluator, built on the same scan emitter,
//!   projection dispatch and join fold.
//!
//! Pruned-vs-exhaustive and incremental-vs-scratch results thus agree by
//! construction: same code, same floats.

#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

pub mod delta;
pub mod exec;
pub mod kernels;
pub mod pool;
pub mod prepare;
pub mod rel;
pub mod semijoin;
pub mod topk;

pub use delta::{DeltaOutcome, IncrementalEval};
pub use exec::{
    deterministic_answers, eval_plan_id, order_plans_by_cost, plan_cost_estimates,
    propagation_bounds_ids, propagation_score_ids, AnswerSet, ExecError, ExecOptions, Semantics,
};
pub use rel::{Par, Rel, Scratch};
pub use semijoin::reduce_database;
pub use topk::{propagation_score_topk, TopkEval, TopkResult, TopkStats};
