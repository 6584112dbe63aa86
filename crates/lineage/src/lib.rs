//! # lapush-lineage
//!
//! Boolean lineage and probability computation for self-join-free
//! conjunctive queries (paper Section 2, "Boolean Formulas").
//!
//! The lineage of a Boolean query `q` on a database `D` is the monotone DNF
//! `F_{q,D} = ∨_θ θ(g₁) ∧ … ∧ θ(g_m)` whose variables are base tuples;
//! `P(q) = P(F_{q,D})`. This crate provides:
//!
//! * [`formula`] — monotone DNFs over integer literals, simplification
//!   (absorption), substitutions.
//! * [`build`] — lineage construction per answer tuple.
//! * [`exact`] — exact weighted model counting by independence
//!   decomposition + Shannon expansion with memoization. This is the
//!   stand-in for the paper's SampleSearch ground-truth oracle, and shows
//!   the same exponential blow-up with lineage width. Formulas whose
//!   decomposition never needs a Shannon split are *read-once* and solved in
//!   polynomial time. An [`ExactComputer`] carries the memo across the
//!   answers of one query, so overlapping lineages are counted once.
//! * [`brute`] — brute-force enumeration oracle for testing (≤ ~25 vars).
//! * [`mc`] — the naive Monte Carlo estimator `MC(x)` of the experiments,
//!   plus a Karp–Luby unbiased DNF estimator (extension).
//! * [`dissoc`] — formula-level dissociation (Theorem 8, oblivious DNF
//!   bounds), usable independently of queries.

#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

pub mod brute;
pub mod build;
pub mod dissoc;
pub mod exact;
pub mod formula;
pub mod mc;

pub use brute::brute_force_prob;
pub use build::{build_lineage, AnswerLineage, Lineage, LineageError};
pub use dissoc::dissociate_unique_occurrences;
pub use exact::{
    exact_prob, exact_prob_bounded, exact_prob_with_stats, is_read_once, ExactComputer, ExactStats,
};
pub use formula::Dnf;
pub use mc::{karp_luby, monte_carlo, monte_carlo_each, monte_carlo_with};
