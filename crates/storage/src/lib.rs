//! # lapush-storage
//!
//! Storage substrate for LaPushDB: an in-memory **tuple-independent
//! probabilistic database** in the sense of Gatterbauer & Suciu (VLDB 2015),
//! Section 2.
//!
//! A [`Database`] is a set of named [`Relation`]s. Every tuple `t` carries a
//! probability `p(t) ∈ [0,1]`; a *possible world* is obtained by independently
//! including each tuple with its probability. Relations may be flagged
//! *deterministic* (every tuple has probability 1), and may declare
//! column-level functional dependencies — both kinds of schema knowledge feed
//! the plan-enumeration refinements of Section 3.3 of the paper.
//!
//! ## Dictionary-encoded execution
//!
//! Besides the value-level catalog, the crate provides the substrate for
//! the engine's dictionary-encoded execution path ([`intern`]): every
//! distinct [`Value`] of a database is interned once into a dense `u32`
//! [`Vid`] by the [`ValueInterner`] owned by the [`Database`], and base
//! relations are cached in encoded row-major form (see [`Database::codec`]).
//! All intermediate results downstream — sort-merge joins, group-bys,
//! semi-join membership, lineage — operate on `Vid` columns (up to four
//! packed into one `u128` key, [`pack_vids`]), never on `Value`s, and
//! decode back to `Value`s exactly once at the answer-set boundary.
//! Encoding is maintained lazily and incrementally: the first scan after a
//! load interns the new tuples, later scans reuse the cache. One level up,
//! the database keeps one [`BaseView`] per relation scanned in full — the
//! encoded tuples sorted and column-major, plus the key orders joins have
//! asked for — which every evaluation copies instead of re-scanning and
//! re-sorting ([`view`], [`Database::base_view`]).
//!
//! The crate also ships a small, fast, non-cryptographic hasher
//! ([`fxhash`]) for the engine's maps keyed by integers (plan ids, vids).

#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

pub mod csv;
pub mod database;
pub mod delta;
pub mod error;
pub mod fxhash;
pub mod intern;
pub mod prob;
pub mod relation;
pub mod tuple;
pub mod value;
pub mod view;

pub use csv::{database_from_dir, relation_from_text, CsvError, CsvOptions};
pub use database::{Database, DbCodec, RelId};
pub use delta::DeltaBatch;
pub use error::StorageError;
pub use fxhash::{FxHashMap, FxHashSet};
pub use intern::{pack_vids, ValueInterner, Vid};
pub use prob::clamp01;
pub use relation::{Fd, Relation};
pub use tuple::{Tuple, TupleId};
pub use value::Value;
pub use view::{BaseView, BaseViewStats};
