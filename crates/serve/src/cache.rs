//! The server's two caches and their invalidation discipline.
//!
//! **Plan cache** — keyed by [`ShapeKey`]: everything plan enumeration
//! depends on (query shape, schema FDs, refinement toggles) and nothing
//! it doesn't. Data never invalidates it: plans reference atoms by index
//! and are independent of relation contents, so entries live until
//! evicted. The hash-consed [`PlanStore`] makes a hit near-free — the
//! server reuses the interned DAG verbatim.
//!
//! **Answer cache** — keyed by the query's canonical display text, holding
//! the query's rendered response body ([`render_answers`]) and stamped
//! with the [`DbStamp`] (relation, cell, and probability-epoch counts) the
//! answer was computed against. A hit writes the stored bytes; nothing is
//! sorted or formatted again until the answers change. Relations are
//! append-only — tuples are never removed — and the epoch component
//! covers the one kind of in-place rewrite that exists (a duplicate
//! insert raising a tuple's probability), so "the stamp still matches" is
//! a *complete* freshness check (the cell half is the same argument that
//! lets the storage codec reuse encoded column prefixes). A lookup under a newer stamp drops the
//! stale entry and counts an invalidation — but entries rarely go stale:
//! each one carries the [`IncrementalEval`] state it was computed with,
//! and [`AnswerCache::apply_deltas`] (run by `INGEST` under the database
//! write lock) merges the appended tuples into the cached answers in
//! place, re-stamping them fresh. A batch that changed no answer keeps the
//! stored body; one that did clears it, and the next hit renders the new
//! answers once — outside the cache lock, under the database read lock
//! the hit already holds ([`AnswerCache::hit`]) — so `INGEST` itself
//! renders nothing. Only batches the delta algebra cannot absorb (an
//! in-place probability mutation) drop the entry and force the next
//! lookup to recompute; the `delta.*` counters in `STATS` report both
//! paths.
//!
//! Both caches evict least-recently-used entries beyond a fixed capacity
//! and expose their counters through [`CacheStats`] for the `STATS`
//! command. All counters are deterministic functions of the request
//! history (no clocks), which is what lets the CI smoke script and the
//! `fig_serve` bench gate them exactly.

use crate::protocol::render_answers;
use lapush_core::{PlanId, PlanStore, ShapeKey};
use lapush_engine::{AnswerSet, DeltaOutcome, IncrementalEval};
use lapush_query::Query;
use lapush_storage::{Database, FxHashMap};
use std::sync::{Arc, Mutex};

/// Hit/miss/eviction counters of one cache (see the `STATS` command).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compute (includes invalidated entries).
    pub misses: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
    /// Entries dropped because their database stamp went stale
    /// (always 0 for the plan cache — plans don't depend on data).
    pub invalidations: u64,
}

/// A cached enumeration result: the interned DAG plus the root to
/// evaluate (the single plan of Optimization 1, `min` pushed down).
#[derive(Debug)]
pub struct CachedPlan {
    /// Arena holding every node of the plan.
    pub store: PlanStore,
    /// Root id of the single plan.
    pub root: PlanId,
}

/// LRU bookkeeping shared by both caches: entries carry the tick of
/// their last use; eviction removes the smallest tick.
fn evict_lru<K: Clone + Eq + std::hash::Hash, V>(map: &mut FxHashMap<K, (u64, V)>) {
    if let Some(key) = map
        .iter()
        .min_by_key(|(_, (tick, _))| *tick)
        .map(|(k, _)| k.clone())
    {
        map.remove(&key);
    }
}

/// Multi-query plan cache: [`ShapeKey`] → [`CachedPlan`].
#[derive(Debug)]
pub struct PlanCache {
    cap: usize,
    tick: u64,
    map: FxHashMap<ShapeKey, (u64, Arc<CachedPlan>)>,
    stats: CacheStats,
}

impl PlanCache {
    /// Cache holding at most `cap` shapes (`cap` ≥ 1).
    pub fn new(cap: usize) -> Self {
        PlanCache {
            cap: cap.max(1),
            tick: 0,
            map: FxHashMap::default(),
            stats: CacheStats::default(),
        }
    }

    /// Fetch the plan for `key`, building and inserting it on a miss.
    ///
    /// The build runs under the caller's lock on the whole cache — plan
    /// enumeration is query-level work (independent of database size), so
    /// serializing misses keeps hit/miss counts deterministic under
    /// concurrency without measurably throttling the server.
    pub fn get_or_insert_with(
        &mut self,
        key: ShapeKey,
        build: impl FnOnce() -> CachedPlan,
    ) -> Arc<CachedPlan> {
        self.tick += 1;
        let tick = self.tick;
        if let Some((last, plan)) = self.map.get_mut(&key) {
            *last = tick;
            self.stats.hits += 1;
            return plan.clone();
        }
        self.stats.misses += 1;
        if self.map.len() >= self.cap {
            evict_lru(&mut self.map);
            self.stats.evictions += 1;
        }
        let plan = Arc::new(build());
        self.map.insert(key, (tick, plan.clone()));
        plan
    }

    /// Number of cached shapes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// Freshness stamp of a database: relation count, total cell count
/// (values and the probability column), and total probability epoch.
/// Relations are append-only, so any ingest strictly grows the cell
/// count; the one in-place mutation that exists — a duplicate insert
/// raising a tuple's probability — bumps a relation's
/// [`prob_epoch`](lapush_storage::Relation::prob_epoch) instead. Any
/// change therefore strictly grows the stamp and `stamp equality ⇒
/// identical contents since the answer was computed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DbStamp {
    /// Number of relations.
    pub relations: u64,
    /// Total cells: `Σ len × (arity + 1)` over all relations.
    pub cells: u64,
    /// Total in-place probability mutations: `Σ prob_epoch`.
    pub epochs: u64,
}

impl DbStamp {
    /// Stamp of a database's current contents.
    pub fn of(db: &Database) -> Self {
        let mut cells = 0;
        let mut epochs = 0;
        for (_, r) in db.relations() {
            cells += (r.len() * (r.arity() + 1)) as u64;
            epochs += r.prob_epoch();
        }
        DbStamp {
            relations: db.relation_count() as u64,
            cells,
            epochs,
        }
    }
}

/// Cumulative incremental-maintenance counters (the `delta.*` lines of
/// `STATS`). All deterministic functions of the request history.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Cached answers advanced in place by an ingest batch (one count per
    /// ingest × surviving cached entry, whether or not any answer row
    /// changed).
    pub batches: u64,
    /// Answer tuples inserted or re-scored by those merges.
    pub rows: u64,
    /// Cached answers dropped because their state could not absorb a
    /// batch (an in-place probability mutation, or an evaluation error).
    pub fallbacks: u64,
}

/// The incremental-evaluation state behind one cached answer: the parsed
/// query, the cached plan it was evaluated with, and the captured
/// per-node views ([`IncrementalEval`]).
pub struct CachedState {
    /// Parsed query (drives apply-time scan filtering and answer
    /// decoding).
    pub query: Query,
    /// Plan DAG the state was captured against.
    pub plan: Arc<CachedPlan>,
    /// Captured views and maintained answers.
    pub eval: IncrementalEval,
}

struct Entry {
    stamp: DbStamp,
    /// The rendered response. `None` only on an entry with state whose
    /// answers an ingest changed since they were last rendered.
    body: Option<Arc<str>>,
    /// `None` entries (inserted without state) cannot be maintained and
    /// are dropped — counted as fallbacks — on the next ingest. The
    /// state holds the entry's one answer set.
    state: Option<CachedState>,
}

/// What [`AnswerCache::lookup`] finds under a fresh stamp.
enum Hit {
    /// The stored response body.
    Body(Arc<str>),
    /// Answers an ingest changed since they were last rendered: render
    /// them and hand the bytes to [`AnswerCache::store_body`].
    Render(Arc<AnswerSet>),
}

/// Answer/score cache: canonical query text → rendered response, stamped
/// with the database state it was computed against and carrying the
/// incremental state that lets [`AnswerCache::apply_deltas`] keep it
/// fresh across ingests.
pub struct AnswerCache {
    cap: usize,
    tick: u64,
    map: FxHashMap<String, (u64, Entry)>,
    stats: CacheStats,
    delta: DeltaStats,
}

impl AnswerCache {
    /// Cache holding at most `cap` answers (`cap` ≥ 1).
    pub fn new(cap: usize) -> Self {
        AnswerCache {
            cap: cap.max(1),
            tick: 0,
            map: FxHashMap::default(),
            stats: CacheStats::default(),
            delta: DeltaStats::default(),
        }
    }

    /// The whole hit path: `key`'s response body under `stamp`, or `None`
    /// on a miss. An entry whose answers changed since they were last
    /// rendered is rendered here, with the cache unlocked in between, so
    /// other lookups go on meanwhile. Call it under the database read lock
    /// that `stamp` was taken under: that lock keeps `INGEST` from
    /// changing the answers while they render.
    pub fn hit(cache: &Mutex<AnswerCache>, key: &str, stamp: DbStamp) -> Option<Arc<str>> {
        let lock = || cache.lock().unwrap_or_else(|e| e.into_inner());
        let answers = match lock().lookup(key, stamp)? {
            Hit::Body(body) => return Some(body),
            Hit::Render(answers) => answers,
        };
        let body = render_answers(&answers).into();
        Some(lock().store_body(key, stamp, body))
    }

    /// Look up `key` under the current database stamp. A stale entry
    /// (stamp mismatch) is dropped, counted as an invalidation, and
    /// reported as a miss — the caller recomputes and re-inserts.
    fn lookup(&mut self, key: &str, stamp: DbStamp) -> Option<Hit> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(key) {
            Some((last, entry)) if entry.stamp == stamp => {
                *last = tick;
                self.stats.hits += 1;
                Some(match (&entry.body, &entry.state) {
                    (Some(body), _) => Hit::Body(body.clone()),
                    (None, Some(state)) => Hit::Render(state.eval.shared_answers()),
                    (None, None) => unreachable!("a stateless entry keeps its body"),
                })
            }
            Some(_) => {
                self.map.remove(key);
                self.stats.invalidations += 1;
                self.stats.misses += 1;
                None
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Keep `body`, rendered from a [`Hit::Render`] under `stamp`, as the
    /// entry's response, and return the body the entry now holds: a
    /// concurrent hit that stored its rendering first wins, with the same
    /// bytes. An entry that is gone or re-stamped stores nothing.
    fn store_body(&mut self, key: &str, stamp: DbStamp, body: Arc<str>) -> Arc<str> {
        match self.map.get_mut(key) {
            Some((_, entry)) if entry.stamp == stamp => entry.body.get_or_insert(body).clone(),
            _ => body,
        }
    }

    /// Insert a freshly computed answer's rendered response `body`,
    /// evicting the least-recently-used entry when at capacity. `state`
    /// is the incremental-evaluation state that will keep the entry fresh
    /// across ingests; entries inserted without state are dropped on the
    /// next ingest instead.
    pub fn insert(
        &mut self,
        key: String,
        stamp: DbStamp,
        body: Arc<str>,
        state: Option<CachedState>,
    ) {
        self.tick += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.cap {
            evict_lru(&mut self.map);
            self.stats.evictions += 1;
        }
        let entry = Entry {
            stamp,
            body: Some(body),
            state,
        };
        self.map.insert(key, (self.tick, entry));
    }

    /// Merge everything appended to `db` since each entry's stamp into
    /// the cached answers, in place. Callers (the server's `INGEST`
    /// handler) invoke this under the database *write* lock, so the
    /// stamps move atomically with the data. Entries whose state cannot
    /// absorb the growth — an in-place probability mutation, an
    /// evaluation error, or a stateless entry — are dropped and counted
    /// in [`DeltaStats::fallbacks`]; every surviving entry is re-stamped
    /// to `stamp` (fresh), so mixed query/ingest workloads keep hitting
    /// the cache instead of recomputing. An entry keeps its body when the
    /// batch changed none of its answers and loses it otherwise; nothing
    /// is rendered here.
    ///
    /// The state holds the only handle on its answers (a hit rendering
    /// them holds another only under the database read lock, which
    /// excludes this call), so a changed set is extended in place.
    pub fn apply_deltas(&mut self, db: &Database, stamp: DbStamp) {
        let delta = &mut self.delta;
        self.map.retain(|_, (_, entry)| {
            let Some(state) = &mut entry.state else {
                delta.fallbacks += 1;
                return false;
            };
            match state.eval.apply_deltas(db, &state.query, &state.plan.store) {
                Ok(DeltaOutcome::Unchanged) => delta.batches += 1,
                Ok(DeltaOutcome::Updated { rows }) => {
                    delta.batches += 1;
                    delta.rows += rows as u64;
                    entry.body = None;
                }
                Ok(DeltaOutcome::Fallback) | Err(_) => {
                    delta.fallbacks += 1;
                    return false;
                }
            }
            entry.stamp = stamp;
            true
        });
    }

    /// Number of cached answers.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Incremental-maintenance counter snapshot.
    pub fn delta_stats(&self) -> DeltaStats {
        self.delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lapush_core::{single_plan_id, EnumOptions, SchemaInfo};
    use lapush_query::parse_query;
    use lapush_storage::Value;

    fn plan_of(text: &str) -> (ShapeKey, CachedPlan) {
        let q = parse_query(text).unwrap();
        let schema = SchemaInfo::from_query(&q);
        let key = ShapeKey::of_query(&q, &schema, EnumOptions::default());
        let mut store = PlanStore::new();
        let root = single_plan_id(&mut store, &q, &schema, EnumOptions::default());
        (key, CachedPlan { store, root })
    }

    #[test]
    fn plan_cache_hits_on_equal_shapes_and_evicts_lru() {
        let mut cache = PlanCache::new(2);
        let (k1, p1) = plan_of("q :- R(x), S(x, y), T(y)");
        let (k1b, _) = plan_of("q :- A(u), B(u, w), C(w)"); // same shape
        let (k2, p2) = plan_of("q(x) :- R(x), S(x, y), T(y)");
        let (k3, p3) = plan_of("q :- R(x), S(x)");
        assert_eq!(k1, k1b);
        let a = cache.get_or_insert_with(k1, || p1);
        let b = cache.get_or_insert_with(k1b, || unreachable!("must hit"));
        assert!(Arc::ptr_eq(&a, &b));
        cache.get_or_insert_with(k2.clone(), || p2);
        // k1 is now the LRU entry (k2 was used last); inserting k3 evicts it.
        cache.get_or_insert_with(k3, || p3);
        assert_eq!(cache.len(), 2);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 3, 1));
        // k2 survived the eviction.
        cache.get_or_insert_with(k2, || unreachable!("k2 must still be cached"));
    }

    fn tiny_db() -> Database {
        let mut db = Database::new();
        let r = db.create_relation("R", 1).unwrap();
        db.relation_mut(r)
            .push(Box::new([Value::Int(1)]), 0.5)
            .unwrap();
        db
    }

    fn empty_body() -> Arc<str> {
        Arc::from("OK 0 answers")
    }

    #[test]
    fn answer_cache_invalidates_on_ingest() {
        let mut db = tiny_db();
        let mut cache = AnswerCache::new(8);
        let stamp = DbStamp::of(&db);
        assert!(cache.lookup("q", stamp).is_none());
        cache.insert("q".into(), stamp, empty_body(), None);
        assert!(cache.lookup("q", stamp).is_some());
        // Append-only growth changes the stamp and invalidates.
        db.relation_mut(0)
            .push(Box::new([Value::Int(2)]), 0.5)
            .unwrap();
        let grown = DbStamp::of(&db);
        assert_ne!(stamp, grown);
        assert!(cache.lookup("q", grown).is_none());
        assert_eq!(cache.len(), 0);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (1, 2, 1));
    }

    #[test]
    fn answer_cache_evicts_at_capacity() {
        let db = tiny_db();
        let stamp = DbStamp::of(&db);
        let mut cache = AnswerCache::new(2);
        for key in ["a", "b", "c"] {
            cache.insert(key.into(), stamp, empty_body(), None);
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // "a" was least recently used.
        assert!(cache.lookup("a", stamp).is_none());
        assert!(cache.lookup("c", stamp).is_some());
    }

    #[test]
    fn db_stamp_counts_cells_including_probabilities() {
        let db = tiny_db();
        let stamp = DbStamp::of(&db);
        assert_eq!(stamp.relations, 1);
        assert_eq!(stamp.cells, 2); // 1 row × (arity 1 + prob)
        assert_eq!(stamp.epochs, 0);
    }

    #[test]
    fn db_stamp_detects_in_place_probability_mutations() {
        // A duplicate insert that raises a probability leaves the cell
        // count alone; only the epoch component catches it.
        let mut db = tiny_db();
        let before = DbStamp::of(&db);
        db.relation_mut(0)
            .push(Box::new([Value::Int(1)]), 0.9)
            .unwrap();
        let after = DbStamp::of(&db);
        assert_eq!(before.cells, after.cells);
        assert_ne!(before, after);
        assert_eq!(after.epochs, 1);
    }

    /// A cache entry's key, state and rendered response for `text`
    /// evaluated over `db` — what the server's miss path inserts.
    fn state_for(db: &Database, text: &str) -> (String, CachedState, Arc<str>) {
        let q = parse_query(text).unwrap();
        let key = q.display();
        let schema = SchemaInfo::from_query(&q);
        let mut store = PlanStore::new();
        let root = single_plan_id(&mut store, &q, &schema, EnumOptions::default());
        let plan = Arc::new(CachedPlan { store, root });
        let eval = IncrementalEval::new(
            db,
            &q,
            &plan.store,
            std::slice::from_ref(&plan.root),
            lapush_engine::ExecOptions::default(),
        )
        .unwrap();
        let body = render_answers(eval.answers()).into();
        let state = CachedState {
            query: q,
            plan,
            eval,
        };
        (key, state, body)
    }

    #[test]
    fn apply_deltas_keeps_entries_fresh_across_ingest() {
        let mut db = tiny_db();
        let mut cache = AnswerCache::new(8);
        let (key, state, body) = state_for(&db, "q(x) :- R(x)");
        cache.insert(key.clone(), DbStamp::of(&db), body, Some(state));
        db.relation_mut(0)
            .push(Box::new([Value::Int(2)]), 0.25)
            .unwrap();
        let grown = DbStamp::of(&db);
        cache.apply_deltas(&db, grown);
        // The entry was merged and re-stamped: the lookup hits (no
        // invalidation) and hands out the new answers to render.
        let Some(Hit::Render(got)) = cache.lookup(&key, grown) else {
            panic!("a merged entry must hit, with its body cleared");
        };
        assert_eq!(got.len(), 2);
        assert_eq!(got.score_of(&[Value::Int(2)]), 0.25);
        let d = cache.delta_stats();
        assert_eq!((d.batches, d.rows, d.fallbacks), (1, 1, 0));
        assert_eq!(cache.stats().invalidations, 0);
    }

    #[test]
    fn apply_deltas_drops_what_it_cannot_maintain() {
        let mut db = tiny_db();
        let mut cache = AnswerCache::new(8);
        let stamp = DbStamp::of(&db);
        // A stateless entry is dropped on the next ingest.
        cache.insert("stateless".into(), stamp, empty_body(), None);
        // A stateful entry survives growth but not an in-place mutation.
        let (key, state, body) = state_for(&db, "q(x) :- R(x)");
        cache.insert(key, stamp, body, Some(state));
        db.relation_mut(0)
            .push(Box::new([Value::Int(1)]), 0.9)
            .unwrap();
        cache.apply_deltas(&db, DbStamp::of(&db));
        assert_eq!(cache.len(), 0);
        let d = cache.delta_stats();
        assert_eq!((d.batches, d.rows, d.fallbacks), (0, 0, 2));
    }

    #[test]
    fn a_body_is_rendered_once_per_answer_state() {
        let mut db = Database::new();
        for name in ["R", "S"] {
            let id = db.create_relation(name, 1).unwrap();
            db.relation_mut(id)
                .push(Box::new([Value::Int(1)]), 0.5)
                .unwrap();
        }
        let (key, state, body) = state_for(&db, "q(x) :- R(x), S(x)");
        let cache = Mutex::new(AnswerCache::new(8));
        let stamp = DbStamp::of(&db);
        cache
            .lock()
            .unwrap()
            .insert(key.clone(), stamp, body.clone(), Some(state));
        let hit = |stamp| AnswerCache::hit(&cache, &key, stamp).expect("entry must hit");
        // Two hits hand out the body the miss path stored.
        assert!(Arc::ptr_eq(&hit(stamp), &body));
        assert!(Arc::ptr_eq(&hit(stamp), &body));

        // S(2) joins no R tuple: the batch changes no answer and the
        // entry keeps its body.
        db.relation_mut(1)
            .push(Box::new([Value::Int(2)]), 0.5)
            .unwrap();
        let stamp = DbStamp::of(&db);
        cache.lock().unwrap().apply_deltas(&db, stamp);
        assert_eq!(cache.lock().unwrap().delta_stats().rows, 0);
        assert!(Arc::ptr_eq(&hit(stamp), &body));

        // R(2) completes a new answer: the next hit renders the merged
        // answers once, and later hits reuse that rendering.
        db.relation_mut(0)
            .push(Box::new([Value::Int(2)]), 0.8)
            .unwrap();
        let stamp = DbStamp::of(&db);
        cache.lock().unwrap().apply_deltas(&db, stamp);
        assert_eq!(cache.lock().unwrap().delta_stats().rows, 1);
        let updated = hit(stamp);
        assert!(!Arc::ptr_eq(&updated, &body));
        assert_eq!(*updated, *state_for(&db, "q(x) :- R(x), S(x)").2);
        assert!(updated.starts_with("OK 2 answers"));
        assert!(Arc::ptr_eq(&hit(stamp), &updated));

        // Raising R(1)'s probability in place: the entry falls back and
        // is dropped, so the next lookup misses.
        db.relation_mut(0)
            .push(Box::new([Value::Int(1)]), 0.9)
            .unwrap();
        let stamp = DbStamp::of(&db);
        cache.lock().unwrap().apply_deltas(&db, stamp);
        assert_eq!(cache.lock().unwrap().delta_stats().fallbacks, 1);
        assert!(cache.lock().unwrap().is_empty());
        assert!(AnswerCache::hit(&cache, &key, stamp).is_none());
        let s = cache.lock().unwrap().stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (5, 1, 0));
    }
}
