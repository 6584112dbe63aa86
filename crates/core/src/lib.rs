//! # lapush-core
//!
//! The primary contribution of Gatterbauer & Suciu, *Approximate Lifted
//! Inference with Probabilistic Databases* (VLDB 2015): **query
//! dissociation**.
//!
//! Every self-join-free conjunctive query `q` — even a #P-hard one — can be
//! approximated by a fixed set of *safe dissociations*: hierarchical
//! over-approximations `q^Δ` whose extensional plan scores are guaranteed
//! upper bounds on `P(q)` (Theorem 12 / Corollary 19). Taking the minimum
//! over all *minimal* safe dissociations yields the **propagation score**
//! `ρ(q)` (Definition 14), which coincides with `P(q)` whenever `q` is safe.
//!
//! This crate implements the query-level theory:
//!
//! * [`dissociation`] — dissociations `Δ`, the partial dissociation order
//!   (Definition 15), the lattice enumeration, and a naive reference
//!   algorithm for minimal safe dissociations.
//! * [`store`] — the hash-consed plan DAG, the one representation of a
//!   plan: a [`PlanStore`] arena interning every structurally distinct
//!   node of the plan algebra of Definition 4 (scan / probabilistic
//!   project / k-ary join, plus the `min` operator of Optimization 1) once
//!   to a dense [`PlanId`]. Minimal plans share almost all of their
//!   subplans; two plans of one store are equal iff their ids are.
//! * [`plan`] — the 1-to-1 mappings between safe dissociations and plans
//!   (Theorem 18), and unique safe-plan construction (Lemma 3).
//! * [`schema`] — schema knowledge: which relations are probabilistic and
//!   the variable-level FDs (Section 3.3).
//! * [`enumerate`] — Algorithm 1 (`MP`, EnumerateMinimalPlans) with the DR
//!   and FD refinements, all-plans enumeration, and plan counting
//!   (Figure 2), all memoized on the `(atoms_mask, head)` subquery key
//!   over the shared store.
//! * [`opt`] — Optimization 1 (one single plan, Algorithm 2) and
//!   Optimization 2 (common-subplan views, Algorithm 3). On the DAG these
//!   are id-rewrites: equal subquery keys of a single plan denote equal
//!   subplans, hence equal interned ids.
//!
//! Execution of plans against data lives in `lapush-engine`; this crate is
//! purely query-level and independent of the database size. The repo-wide
//! crate map and data flow live in `docs/ARCHITECTURE.md`.

#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

pub mod dissociation;
pub mod enumerate;
pub mod opt;
pub mod plan;
pub mod schema;
pub mod store;

pub use dissociation::{
    all_dissociations, count_dissociations, naive_minimal_safe_dissociations, Dissociation,
};
pub use enumerate::{
    all_plan_ids, count_all_plans, count_minimal_plans, minimal_plan_set, minimal_plan_set_opts,
    minimal_plan_set_with, EnumOptions,
};
pub use opt::{shared_subqueries_in, single_plan_id, SubqueryKey};
pub use plan::{delta_of_plan_id, plan_id_for_dissociation};
pub use schema::SchemaInfo;
pub use store::{NodeKind, PlanId, PlanNode, PlanSet, PlanStore, ShapeKey};
