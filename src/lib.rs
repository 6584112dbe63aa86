//! # LaPushDB — Approximate Lifted Inference with Probabilistic Databases
//!
//! A Rust implementation of **query dissociation** (Gatterbauer & Suciu,
//! *Approximate Lifted Inference with Probabilistic Databases*, VLDB 2015):
//! ranking the answers of #P-hard self-join-free conjunctive queries over
//! tuple-independent probabilistic databases by evaluating a fixed set of
//! *minimal safe dissociations* — PTIME plans whose extensional scores
//! upper-bound the true probabilities — and taking their minimum (the
//! propagation score `ρ(q)`).
//!
//! ## Quick start
//!
//! ```
//! use lapushdb::prelude::*;
//!
//! // A tuple-independent probabilistic database.
//! let mut db = Database::new();
//! let r = db.create_relation("R", 1).unwrap();
//! let s = db.create_relation("S", 2).unwrap();
//! let t = db.create_relation("T", 1).unwrap();
//! db.relation_mut(r).push(Box::new([Value::Int(1)]), 0.5).unwrap();
//! db.relation_mut(s).push(Box::new([Value::Int(1), Value::Int(2)]), 0.8).unwrap();
//! db.relation_mut(t).push(Box::new([Value::Int(2)]), 0.4).unwrap();
//!
//! // An unsafe (#P-hard) query…
//! let q = parse_query("q :- R(x), S(x, y), T(y)").unwrap();
//! // …approximated by its propagation score, entirely via query plans:
//! let answers = rank_by_dissociation(&db, &q, RankOptions::default()).unwrap();
//! let rho = answers.boolean_score();
//! assert!(rho > 0.0 && rho <= 1.0);
//!
//! // Compare with the exact probability (lineage + weighted model counting):
//! let exact = exact_answers(&db, &q).unwrap().boolean_score();
//! assert!(rho >= exact - 1e-12); // one-sided guarantee (Corollary 19)
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`storage`] | values, tuples, relations, probabilistic databases, FDs |
//! | [`query`] | sjfCQ AST + parser, hierarchy test, cut-sets, FD closure |
//! | [`core`] | dissociations, Algorithm 1 (+DR/FD), hash-consed plan DAG, Opts 1–2 |
//! | [`engine`] | extensional executor over plan ids, view reuse, semi-join reduction |
//! | [`serve`] | always-on TCP query service: wire protocol, plan + answer caches |
//! | [`lineage`] | lineage DNFs, exact WMC, Monte Carlo, Karp–Luby |
//! | [`rank`] | tie-aware AP@k / MAP metrics |
//! | [`workload`] | TPC-H-style, k-chain, k-star, random generators |
//!
//! The stage-by-stage walkthrough — parse → shape/FD analysis → plan DAG
//! enumeration → dictionary-encoded execution → lineage/ranking, with each
//! stage cross-referenced to its paper section and source file — lives in
//! [docs/ARCHITECTURE.md](../../../docs/ARCHITECTURE.md) in the repository.
//!
//! ## Benchmarking
//!
//! The `lapush` CLI doubles as the experiment-suite driver:
//!
//! ```console
//! $ cargo build --release --workspace
//! $ ./target/release/lapush bench --quick --out bench-out
//! ```
//!
//! runs every experiment binary of the `lapush-bench` crate (the
//! [`benchsuite::SUITE`] list) and collects one `BENCH_<target>.json`
//! result file per experiment in `--out` — the seeded results (counts, MAP
//! scores, answer checksums) of the paper's figures, byte-reproducible at
//! every `--threads` value. `--quick` runs smoke sizes (what CI gates on),
//! `--full` paper-scale sweeps; omit both for the defaults. The gate is
//! byte equality with the committed baselines:
//!
//! ```console
//! $ diff -r --exclude=README.md bench-out benches/baselines
//! ```
//!
//! See `benches/baselines/README.md` for how baselines are regenerated and
//! `docs/REPRODUCTION.md` for which figure each target reproduces. Run
//! times are measured by `benchmark/` (see its README), nowhere else.

#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

pub use lapush_core as core;
pub use lapush_engine as engine;
pub use lapush_lineage as lineage;
pub use lapush_query as query;
pub use lapush_rank as rank;
pub use lapush_serve as serve;
pub use lapush_storage as storage;
pub use lapush_workload as workload;

pub mod benchsuite;
pub mod driver;

pub use driver::{
    bound_answers, exact_answers, exact_answers_bounded, lineage_stats, mc_answers,
    rank_by_dissociation, DriverError, OptLevel, RankOptions,
};

/// Commonly used items in one import.
pub mod prelude {
    pub use crate::driver::{
        exact_answers, lineage_stats, mc_answers, rank_by_dissociation, OptLevel, RankOptions,
    };
    pub use lapush_core::{
        minimal_plan_set, minimal_plan_set_opts, single_plan_id, EnumOptions, PlanId, PlanSet,
        PlanStore, SchemaInfo,
    };
    pub use lapush_engine::{
        deterministic_answers, eval_plan_id, propagation_score_ids, reduce_database, AnswerSet,
        ExecOptions, Semantics,
    };
    pub use lapush_lineage::{build_lineage, exact_prob, monte_carlo, Dnf};
    pub use lapush_query::{parse_query, Query, QueryBuilder, QueryShape};
    pub use lapush_rank::{average_precision_at_k, map_at_k, random_baseline_ap};
    pub use lapush_storage::{Database, Relation, Value};
}
