//! # lapush-workload
//!
//! Seeded workload generators reproducing the experimental setups of the
//! paper (Section 5):
//!
//! * [`tpch`] — a synthetic stand-in for the TPC-H `dbgen` tables used by
//!   Setup 1 (`Supplier ⋈ PartSupp ⋈ Part` with color-word part names and
//!   uniform-random tuple probabilities).
//! * [`chain`] / [`star`] — the parameterized k-chain and k-star queries of
//!   Setup 2, with domain-size calibration helpers.
//! * [`random`] — random sjfCQs and small random databases for property
//!   tests.
//!
//! All generators take explicit seeds and are fully deterministic.

#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

pub mod chain;
pub mod random;
pub mod star;
pub mod tpch;

pub use chain::{chain_db, chain_query, find_chain_domain};
pub use random::{random_db_for_query, random_query};
pub use star::{find_star_domain, star_db, star_query};
pub use tpch::{
    tpch_chain_db, tpch_chain_query, tpch_chain_query_pairs, tpch_db, tpch_query, TpchConfig,
};
