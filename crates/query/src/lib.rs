//! # lapush-query
//!
//! Self-join-free conjunctive queries (sjfCQ) and their structural analysis,
//! following Section 2 of Gatterbauer & Suciu (VLDB 2015).
//!
//! * [`ast`] — query AST: variables, terms, atoms, selection predicates, and
//!   the [`Query`] type (plus a builder).
//! * [`parser`] — a datalog-style text syntax:
//!   `q(z) :- R(z, x), S(x, y), T^d(y), x <= 5, n like '%red%'`.
//! * [`varset`] — compact bitsets of query variables.
//! * [`shape`] — the *hypergraph shape* of a query (per-atom variable sets),
//!   the representation on which dissociation operates.
//! * [`analysis`] — connected components, hierarchy test (Definition 1),
//!   separator variables, minimal cut-sets `MinCuts(q)` and their
//!   probabilistic refinement `MinPCuts(q)` (Section 3.3.1).
//! * [`fd`] — variable-level functional dependencies and attribute closure
//!   (Section 3.3.2).

#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod ast;
pub mod fd;
pub mod parser;
pub mod shape;
pub mod varset;

pub use analysis::{components, is_hierarchical, min_cuts, min_pcuts, separator_vars};
pub use ast::{Atom, CmpOp, Predicate, Query, QueryBuilder, QueryError, Term, Var};
pub use fd::{var_closure, var_fds_from_db, VarFd};
pub use parser::{parse_query, ParseError};
pub use shape::QueryShape;
pub use varset::VarSet;
