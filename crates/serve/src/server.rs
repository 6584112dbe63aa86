//! The TCP server: listener, thread-per-connection loop, request
//! handling against the shared database and caches.
//!
//! One [`Server`] owns one shared [`Database`] behind an `RwLock` —
//! queries evaluate under a read lock (the engine is `Send`-safe end to
//! end, so any number run concurrently), `INGEST` takes the write lock
//! and, while holding it, merges the appended tuples into every cached
//! answer in place ([`AnswerCache::apply_deltas`]) — plus the
//! [`PlanCache`] and [`AnswerCache`] behind mutexes held only for
//! lookups/inserts/merges (and, for the plan cache, the query-level
//! enumeration on a miss), never across plan *execution* or response
//! rendering. The lock order is always database before answer cache.
//!
//! The answer cache stores each entry's rendered response, so a hit
//! writes stored bytes to the socket. A miss renders once and stores the
//! body; `INGEST` renders nothing, and the first hit after an ingest that
//! changed an entry's answers renders them again ([`AnswerCache::hit`]).
//!
//! Connections are `std::thread`-per-connection and detached: a
//! connection thread exits when its client disconnects or sends `QUIT`.
//! [`ServerHandle::shutdown`] stops the accept loop (new connections are
//! refused; existing ones drain on their own when their clients hang up).

use crate::cache::{AnswerCache, CacheStats, CachedPlan, CachedState, DbStamp, PlanCache};
use crate::protocol::{
    err_response, parse_request, read_frame, render_answers, write_frame, ErrorCode, Request,
    DEFAULT_MAX_FRAME, PROTOCOL_VERSION,
};
use lapush_core::{
    minimal_plan_set_opts, single_plan_id, EnumOptions, PlanStore, SchemaInfo, ShapeKey,
};
use lapush_engine::{propagation_score_topk, AnswerSet, ExecOptions, IncrementalEval, Semantics};
use lapush_query::parse_query;
use lapush_storage::csv::{relation_from_text, CsvOptions};
use lapush_storage::{Database, StorageError};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread;

/// Server configuration; every field has a production-ready default.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address. Port 0 picks an ephemeral port — read the real one
    /// from [`ServerHandle::addr`].
    pub bind: String,
    /// Morsel-parallelism budget forwarded to the engine for each query
    /// (`1` = strictly serial; answers are bit-identical at any value).
    pub threads: usize,
    /// Plan cache capacity, in distinct query shapes.
    pub plan_cache_cap: usize,
    /// Answer cache capacity, in distinct queries.
    pub answer_cache_cap: usize,
    /// Maximum accepted frame body size in bytes.
    pub max_frame: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            bind: "127.0.0.1:0".into(),
            threads: 1,
            plan_cache_cap: 256,
            answer_cache_cap: 4096,
            max_frame: DEFAULT_MAX_FRAME,
        }
    }
}

/// State shared by every connection thread.
struct Shared {
    db: RwLock<Database>,
    plans: Mutex<PlanCache>,
    answers: Mutex<AnswerCache>,
    threads: usize,
    max_frame: usize,
    /// Successfully evaluated `QUERY`/`TOPK` commands (cache hits
    /// included).
    queries_served: AtomicU64,
    /// Answer groups carried through the multi-plan combine by `TOPK`
    /// evaluations (cumulative; cache hits add nothing).
    topk_evaluated: AtomicU64,
    /// Answer groups pruned after the first plan's bounds pass by `TOPK`
    /// evaluations (cumulative).
    topk_pruned: AtomicU64,
    stop: AtomicBool,
}

/// A bound, not-yet-accepting server. [`Server::spawn`] starts the
/// accept loop on a background thread.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind on `config.bind` with an empty database.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        Server::bind_with_db(Database::new(), config)
    }

    /// Bind on `config.bind`, serving `db`.
    pub fn bind_with_db(db: Database, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.bind)?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                db: RwLock::new(db),
                plans: Mutex::new(PlanCache::new(config.plan_cache_cap)),
                answers: Mutex::new(AnswerCache::new(config.answer_cache_cap)),
                threads: config.threads.max(1),
                max_frame: config.max_frame,
                queries_served: AtomicU64::new(0),
                topk_evaluated: AtomicU64::new(0),
                topk_pruned: AtomicU64::new(0),
                stop: AtomicBool::new(false),
            }),
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Start accepting connections on a background thread.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let shared = self.shared.clone();
        let accept = thread::spawn(move || {
            for conn in self.listener.incoming() {
                if self.shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                stream.set_nodelay(true).ok();
                let shared = self.shared.clone();
                thread::spawn(move || serve_conn(stream, &shared));
            }
        });
        Ok(ServerHandle {
            addr,
            shared,
            accept: Some(accept),
        })
    }
}

/// Handle of a running server: its address and the accept-loop thread.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until the accept loop exits (it doesn't on its own — this is
    /// the foreground mode of `lapush serve`).
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }

    /// Stop accepting connections and join the accept loop. Live
    /// connections drain on their own (their threads exit at client
    /// disconnect); the shared state stays alive until the last one does.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.shared.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = accept.join();
    }
}

impl Drop for ServerHandle {
    /// A dropped handle shuts the server down — tests that spawn servers
    /// on ephemeral ports can't leak accept loops.
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Per-connection loop: read one frame, answer one frame, until EOF,
/// `QUIT`, or a framing error (answered with `ERR BADCMD…` then closed).
fn serve_conn(mut stream: TcpStream, shared: &Shared) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    // Unbuffered: `write_frame` sends each response frame in one vectored
    // write, header and body together.
    loop {
        match read_frame(&mut reader, shared.max_frame) {
            Ok(Some(body)) => {
                let (response, quit) = handle_request(shared, &body);
                if write_frame(&mut stream, &response).is_err() || quit {
                    return;
                }
            }
            Ok(None) => return,
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                // Framing is unrecoverable mid-stream: report and close.
                let _ = write_frame(
                    &mut stream,
                    &err_response(ErrorCode::BadCommand, &format!("bad frame: {e}")),
                );
                return;
            }
            Err(_) => return,
        }
    }
}

/// Dispatch one request body; returns the response body and whether the
/// connection should close. A `QUERY` / `TOPK` body is shared with the
/// answer cache, so a hit is written without a copy.
fn handle_request(shared: &Shared, body: &str) -> (Arc<str>, bool) {
    let request = match parse_request(body) {
        Ok(r) => r,
        Err((code, msg)) => return (err_response(code, &msg).into(), false),
    };
    match request {
        Request::Ping => ("OK pong".into(), false),
        Request::Quit => ("OK bye".into(), true),
        Request::Stats => (render_stats(shared).into(), false),
        Request::Query { text } => (run_query(shared, &text), false),
        Request::Topk { k, text } => (run_topk(shared, k, &text), false),
        Request::Ingest { relation, rows } => (run_ingest(shared, &relation, &rows).into(), false),
    }
}

/// `QUERY`: propagation score under Optimizations 1+2, served from the
/// answer cache when the database hasn't grown since, with plans from
/// the shape-keyed plan cache.
fn run_query(shared: &Shared, text: &str) -> Arc<str> {
    let q = match parse_query(text) {
        Ok(q) => q,
        Err(e) => return err_response(ErrorCode::Parse, &e.to_string()).into(),
    };
    // Canonical text: parse-then-display normalizes whitespace, so
    // differently-spaced spellings of one query share a cache entry.
    let key = q.display();

    // Hold the database read lock across stamp + evaluation so an
    // interleaved INGEST can't produce an answer stamped fresher than it
    // is. Readers don't block each other; queries still run concurrently.
    let db = shared.db.read().unwrap_or_else(|e| e.into_inner());
    let stamp = DbStamp::of(&db);
    if let Some(body) = AnswerCache::hit(&shared.answers, &key, stamp) {
        shared.queries_served.fetch_add(1, Ordering::SeqCst);
        return body;
    }

    let schema = SchemaInfo::from_query(&q);
    let shape_key = ShapeKey::of_query(&q, &schema, EnumOptions::default());
    let plan = shared
        .plans
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get_or_insert_with(shape_key, || {
            let mut store = PlanStore::new();
            let root = single_plan_id(&mut store, &q, &schema, EnumOptions::default());
            CachedPlan { store, root }
        });

    let exec = ExecOptions {
        semantics: Semantics::Probabilistic,
        reuse_views: true,
        threads: shared.threads,
    };
    // Capture-evaluate: bit-identical answers to plain evaluation, plus
    // the per-node views that let `INGEST` advance this entry in place
    // instead of invalidating it.
    let eval =
        match IncrementalEval::new(&db, &q, &plan.store, std::slice::from_ref(&plan.root), exec) {
            Ok(eval) => eval,
            Err(e) => return err_response(ErrorCode::Exec, &e.to_string()).into(),
        };
    let body: Arc<str> = render_answers(eval.answers()).into();
    shared
        .answers
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(
            key,
            stamp,
            body.clone(),
            Some(CachedState {
                query: q,
                plan,
                eval,
            }),
        );
    shared.queries_served.fetch_add(1, Ordering::SeqCst);
    body
}

/// `TOPK`: the `k` best answers by propagation score, evaluated over the
/// full minimal plan set through the engine's anytime top-k driver
/// (bound-propagation pruning before the multi-plan min-combine). The
/// response is bit-identical to the first `k` lines of the
/// `OptLevel::MultiPlan` ranking — not always of `QUERY`, whose single
/// plan can score below multi-plan ρ (ROADMAP.md, item 15). Results
/// are answer-cached under a `TOPK <k> `-prefixed key, but **without**
/// incremental state — the entry is its rendered response only: a pruned
/// evaluation has no full per-node views to maintain, so the next
/// `INGEST` drops the entry — recorded in `delta.fallbacks` — and the
/// next `TOPK` re-evaluates from scratch.
fn run_topk(shared: &Shared, k: usize, text: &str) -> Arc<str> {
    let q = match parse_query(text) {
        Ok(q) => q,
        Err(e) => return err_response(ErrorCode::Parse, &e.to_string()).into(),
    };
    let key = format!("TOPK {k} {}", q.display());

    let db = shared.db.read().unwrap_or_else(|e| e.into_inner());
    let stamp = DbStamp::of(&db);
    if let Some(body) = AnswerCache::hit(&shared.answers, &key, stamp) {
        shared.queries_served.fetch_add(1, Ordering::SeqCst);
        return body;
    }

    // The plan cache holds single-plan entries (Optimizations 1+2); the
    // top-k driver needs the whole minimal plan set, so enumerate it here
    // — enumeration is query-shape work, far cheaper than evaluation.
    let schema = SchemaInfo::from_query(&q);
    let set = minimal_plan_set_opts(&q, &schema, EnumOptions::default());
    let exec = ExecOptions {
        semantics: Semantics::Probabilistic,
        reuse_views: true,
        threads: shared.threads,
    };
    let res = match propagation_score_topk(&db, &q, &set.store, &set.roots, k, exec) {
        Ok(r) => r,
        Err(e) => return err_response(ErrorCode::Exec, &e.to_string()).into(),
    };
    shared
        .topk_evaluated
        .fetch_add(res.stats.evaluated, Ordering::SeqCst);
    shared
        .topk_pruned
        .fetch_add(res.stats.pruned, Ordering::SeqCst);
    let body: Arc<str> = render_answers(&AnswerSet {
        vars: q.head().to_vec(),
        rows: res.ranked.into_iter().collect(),
    })
    .into();
    shared
        .answers
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(key, stamp, body.clone(), None);
    shared.queries_served.fetch_add(1, Ordering::SeqCst);
    body
}

/// `INGEST`: append CSV rows (last column = probability) to a relation,
/// creating it when new, then merge the appended tuples into every cached
/// answer in place ([`AnswerCache::apply_deltas`]) while still holding
/// the database write lock — surviving entries come out re-stamped fresh,
/// so interleaved queries keep hitting the cache. Nothing is rendered
/// here: an entry whose answers changed is rendered by its next hit. Entries the delta
/// algebra cannot maintain (an in-place probability raise from a
/// duplicate insert) are dropped and recomputed on their next lookup. A
/// batch is atomic: it is validated as a whole against the relation it
/// extends before the first row is appended, so a rejected `INGEST`
/// changes neither the database nor any cached answer.
fn run_ingest(shared: &Shared, relation: &str, rows: &str) -> String {
    let parsed = match relation_from_text(relation, rows, CsvOptions::default()) {
        Ok(rel) => rel,
        Err(e) => return err_response(ErrorCode::Ingest, &e.to_string()),
    };
    let mut db = shared.db.write().unwrap_or_else(|e| e.into_inner());
    let appended = parsed.len();
    let total = match db.rel_id(relation) {
        Ok(id) => {
            let existing = db.relation_mut(id);
            if existing.arity() != parsed.arity() {
                return err_response(
                    ErrorCode::Ingest,
                    &format!(
                        "arity mismatch: {relation} has arity {}, rows have {}",
                        existing.arity(),
                        parsed.arity()
                    ),
                );
            }
            // `parsed` holds well-formed rows of one arity with valid
            // probabilities; what is left to refuse is an uncertain tuple
            // for a deterministic relation.
            let uncertain = parsed.probs().iter().find(|&&p| p < 1.0);
            if let Some(&prob) = uncertain.filter(|_| existing.is_deterministic()) {
                let relation = relation.to_string();
                let e = StorageError::DeterministicViolation { relation, prob };
                return err_response(ErrorCode::Ingest, &e.to_string());
            }
            for (_, row, prob) in parsed.iter() {
                if let Err(e) = existing.push(row.into(), prob) {
                    return err_response(ErrorCode::Ingest, &e.to_string());
                }
            }
            existing.len()
        }
        Err(_) => {
            let len = parsed.len();
            if let Err(e) = db.add_relation(parsed) {
                return err_response(ErrorCode::Ingest, &e.to_string());
            }
            len
        }
    };
    let stamp = DbStamp::of(&db);
    shared
        .answers
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .apply_deltas(&db, stamp);
    format!("OK ingested {appended} tuples into {relation} (total {total})")
}

/// `STATS`: deterministic counters only (no clocks, no timings), so
/// scripted sessions can diff the output exactly.
fn render_stats(shared: &Shared) -> String {
    let (relations, tuples, cells, views) = {
        let db = shared.db.read().unwrap_or_else(|e| e.into_inner());
        let stamp = DbStamp::of(&db);
        let views = db.base_view_stats();
        (stamp.relations, db.tuple_count() as u64, stamp.cells, views)
    };
    let (plan_stats, plan_len) = {
        let plans = shared.plans.lock().unwrap_or_else(|e| e.into_inner());
        (plans.stats(), plans.len())
    };
    let (ans_stats, ans_len, delta) = {
        let answers = shared.answers.lock().unwrap_or_else(|e| e.into_inner());
        (answers.stats(), answers.len(), answers.delta_stats())
    };
    let cache_lines = |name: &str, s: CacheStats, len: usize| {
        format!(
            "{name}.len={len}\n{name}.hits={}\n{name}.misses={}\n{name}.evictions={}\n{name}.invalidations={}",
            s.hits, s.misses, s.evictions, s.invalidations
        )
    };
    // Execution-pool counters are process-wide (shared with any other
    // server or engine call in this process), cumulative since process
    // start, and workload-determined.
    let pool = lapush_engine::pool::counters();
    // `base_views.*` count publications of the database's base views (one
    // per scanned relation and database state, whoever built it), so they
    // are request-determined like the cache counters.
    format!(
        "OK stats\nproto.version={PROTOCOL_VERSION}\nqueries.served={}\ndb.relations={relations}\ndb.tuples={tuples}\ndb.cells={cells}\n{}\n{}\ndelta.batches={}\ndelta.rows={}\ndelta.fallbacks={}\ntopk.evaluated={}\ntopk.pruned={}\npool.scopes={}\npool.tasks={}\nbase_views.resident={}\nbase_views.built={}\nbase_views.extended={}",
        shared.queries_served.load(Ordering::SeqCst),
        cache_lines("plan_cache", plan_stats, plan_len),
        cache_lines("answer_cache", ans_stats, ans_len),
        delta.batches,
        delta.rows,
        delta.fallbacks,
        shared.topk_evaluated.load(Ordering::SeqCst),
        shared.topk_pruned.load(Ordering::SeqCst),
        pool.scopes,
        pool.tasks,
        views.resident,
        views.built,
        views.extended,
    )
}

/// Parse the counter lines of a `STATS` response body into `(key, value)`
/// pairs — the client-side convenience the tests and benches use.
pub fn parse_stats(body: &str) -> Vec<(String, u64)> {
    body.lines()
        .filter_map(|line| {
            let (k, v) = line.split_once('=')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
}

/// Value of one `STATS` counter, if present.
pub fn stat(body: &str, key: &str) -> Option<u64> {
    parse_stats(body)
        .into_iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}
