//! # lapush-serve — the always-on query service
//!
//! A long-running TCP server that amortizes everything *except*
//! execution across queries, turning the per-query cost profile of the
//! CLI (parse + shape analysis + plan enumeration + evaluation, every
//! time) into the profile a standing service wants (evaluation only, and
//! often not even that):
//!
//! * **one shared [`Database`](lapush_storage::Database)** behind a
//!   read/write lock — concurrent `QUERY`s evaluate under read locks
//!   (the engine is `Send`-safe end to end), `INGEST` appends under the
//!   write lock;
//! * **a plan cache** keyed by [`ShapeKey`](lapush_core::ShapeKey): plan
//!   enumeration depends only on the query's *shape*, so every
//!   same-shaped query (different constants, renamed relations, …)
//!   reuses one hash-consed plan DAG;
//! * **an answer cache** keyed by the query's canonical text, holding
//!   the rendered response, and stamped with the database's relation/cell
//!   counts — relations are append-only, so count equality is a complete
//!   freshness check — and kept fresh across ingests by merging the
//!   appended tuples into each cached answer set in place;
//! * **deterministic `STATS` counters** (hits, misses, evictions,
//!   invalidations — never clocks), so cache behavior is scriptable and
//!   CI-gateable.
//!
//! The wire protocol (length-prefixed text frames; `QUERY`, `INGEST`,
//! `STATS`, `PING`, `QUIT`) is specified in `docs/PROTOCOL.md`; running
//! and operating the server is covered by `docs/OPERATIONS.md`. The
//! `lapush serve` / `lapush client` CLI subcommands and the `fig_serve`
//! bench target are thin wrappers over [`Server`] and [`Client`].
//!
//! ## Example: an in-process server and one client session
//!
//! ```
//! use lapush_serve::{Client, Server, ServerConfig};
//!
//! // Bind on an ephemeral port (the default config) and start serving.
//! let handle = Server::bind(ServerConfig::default()).unwrap().spawn().unwrap();
//!
//! let mut client = Client::connect(handle.addr()).unwrap();
//! assert_eq!(client.request("PING").unwrap(), "OK pong");
//!
//! // Load two tiny relations, then ask for a propagation score.
//! client.request("INGEST R\n1,0.5").unwrap();
//! client.request("INGEST S\n1,2,0.8").unwrap();
//! let answers = client.request("QUERY q(x) :- R(x), S(x, y)").unwrap();
//! assert_eq!(answers, "OK 1 answers\n1\t0.4"); // 0.5 × 0.8
//!
//! // The same query again is an answer-cache hit, visible in STATS.
//! client.request("QUERY q(x) :- R(x), S(x, y)").unwrap();
//! let stats = client.request("STATS").unwrap();
//! assert_eq!(lapush_serve::stat(&stats, "answer_cache.hits"), Some(1));
//!
//! assert_eq!(client.request("QUIT").unwrap(), "OK bye");
//! handle.shutdown();
//! ```

#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod client;
pub mod protocol;
pub mod server;

pub use cache::{AnswerCache, CacheStats, CachedPlan, CachedState, DbStamp, DeltaStats, PlanCache};
pub use client::Client;
pub use protocol::{
    err_response, parse_request, read_frame, render_answers, render_key, write_frame, ErrorCode,
    Request, DEFAULT_MAX_FRAME, PROTOCOL_VERSION,
};
pub use server::{parse_stats, stat, Server, ServerConfig, ServerHandle};
