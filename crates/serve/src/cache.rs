//! The server's two caches and their invalidation discipline.
//!
//! **Plan cache** — keyed by [`ShapeKey`]: everything plan enumeration
//! depends on (query shape, schema FDs, refinement toggles) and nothing
//! it doesn't. Data never invalidates it: plans reference atoms by index
//! and are independent of relation contents, so entries live until
//! evicted. The hash-consed [`PlanStore`] makes a hit near-free — the
//! server reuses the interned DAG verbatim.
//!
//! **Answer cache** — keyed by the query's canonical display text and
//! stamped with the [`DbStamp`] (relation, cell, and probability-epoch
//! counts) the answer was computed against. Relations are append-only —
//! tuples are never removed — and the epoch component covers the one kind
//! of in-place rewrite that exists (a duplicate insert raising a tuple's
//! probability), so "the stamp still matches" is a *complete* freshness
//! check (the cell half is the same argument that lets the storage codec
//! reuse encoded column prefixes). A lookup under a newer stamp drops the
//! stale entry and counts an invalidation — but entries rarely go stale:
//! each one carries the [`IncrementalEval`] state it was computed with,
//! and [`AnswerCache::apply_deltas`] (run by `INGEST` under the database
//! write lock) merges the appended tuples into the cached answers in
//! place, re-stamping them fresh. Only batches the delta algebra cannot
//! absorb (an in-place probability mutation) drop the entry and force the
//! next lookup to recompute; the `delta.*` counters in `STATS` report
//! both paths.
//!
//! Both caches evict least-recently-used entries beyond a fixed capacity
//! and expose their counters through [`CacheStats`] for the `STATS`
//! command. All counters are deterministic functions of the request
//! history (no clocks), which is what lets the CI smoke script and the
//! `fig_serve` bench gate them exactly.

use lapush_core::{PlanId, PlanStore, ShapeKey};
use lapush_engine::{AnswerSet, DeltaOutcome, IncrementalEval};
use lapush_query::Query;
use lapush_storage::{Database, FxHashMap};
use std::sync::Arc;

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
    /// What lookups hand out. For an entry with state this is the state's
    /// own set ([`IncrementalEval::shared_answers`]), not a second copy.
    answers: Arc<AnswerSet>,
    /// `None` entries (inserted without state) cannot be maintained and
    /// are dropped — counted as fallbacks — on the next ingest.
    state: Option<CachedState>,
}

/// Answer/score cache: canonical query text → scored answers, stamped
/// with the database state they were computed against and carrying the
/// incremental state that lets [`AnswerCache::apply_deltas`] keep them
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

    /// Look up `key` under the current database stamp. A stale entry
    /// (stamp mismatch) is dropped, counted as an invalidation, and
    /// reported as a miss — the caller recomputes and re-inserts.
    pub fn lookup(&mut self, key: &str, stamp: DbStamp) -> Option<Arc<AnswerSet>> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(key) {
            Some((last, entry)) if entry.stamp == stamp => {
                *last = tick;
                self.stats.hits += 1;
                Some(entry.answers.clone())
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

    /// Insert a freshly computed answer, evicting the least-recently-used
    /// entry when at capacity. `state` is the incremental-evaluation
    /// state that will keep the entry fresh across ingests — pass its
    /// [`IncrementalEval::shared_answers`] as `ans`, so the entry holds
    /// one answer set, not two; entries inserted without state are dropped
    /// on the next ingest instead.
    pub fn insert(
        &mut self,
        key: String,
        stamp: DbStamp,
        ans: Arc<AnswerSet>,
        state: Option<CachedState>,
    ) {
        self.tick += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.cap {
            evict_lru(&mut self.map);
            self.stats.evictions += 1;
        }
        let entry = Entry {
            stamp,
            answers: ans,
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
    /// the cache instead of recomputing.
    pub fn apply_deltas(&mut self, db: &Database, stamp: DbStamp) {
        let keys: Vec<String> = self.map.keys().cloned().collect();
        for key in keys {
            let (tick, entry) = self.map.remove(&key).expect("key just listed");
            // The entry's handle on the answers goes first: the state then
            // holds the only one and extends the set in place (readers
            // hold theirs under the database read lock, which excludes
            // this call).
            drop(entry.answers);
            let Some(mut state) = entry.state else {
                self.delta.fallbacks += 1;
                continue;
            };
            match state.eval.apply_deltas(db, &state.query, &state.plan.store) {
                Ok(DeltaOutcome::Unchanged) => self.delta.batches += 1,
                Ok(DeltaOutcome::Updated { rows }) => {
                    self.delta.batches += 1;
                    self.delta.rows += rows as u64;
                }
                Ok(DeltaOutcome::Fallback) | Err(_) => {
                    self.delta.fallbacks += 1;
                    continue;
                }
            }
            let entry = Entry {
                stamp,
                answers: state.eval.shared_answers(),
                state: Some(state),
            };
            self.map.insert(key, (tick, entry));
        }
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

    #[test]
    fn answer_cache_invalidates_on_ingest() {
        let mut db = tiny_db();
        let mut cache = AnswerCache::new(8);
        let ans = Arc::new(AnswerSet {
            vars: vec![],
            rows: FxHashMap::default(),
        });
        let stamp = DbStamp::of(&db);
        assert!(cache.lookup("q", stamp).is_none());
        cache.insert("q".into(), stamp, ans.clone(), None);
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
        let ans = Arc::new(AnswerSet {
            vars: vec![],
            rows: FxHashMap::default(),
        });
        let mut cache = AnswerCache::new(2);
        for key in ["a", "b", "c"] {
            cache.insert(key.into(), stamp, ans.clone(), None);
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

    fn state_for(db: &Database, text: &str) -> (String, CachedState) {
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
        (
            key,
            CachedState {
                query: q,
                plan,
                eval,
            },
        )
    }

    #[test]
    fn apply_deltas_keeps_entries_fresh_across_ingest() {
        let mut db = tiny_db();
        let mut cache = AnswerCache::new(8);
        let (key, state) = state_for(&db, "q(x) :- R(x)");
        let ans = state.eval.shared_answers();
        cache.insert(key.clone(), DbStamp::of(&db), ans, Some(state));
        db.relation_mut(0)
            .push(Box::new([Value::Int(2)]), 0.25)
            .unwrap();
        let grown = DbStamp::of(&db);
        cache.apply_deltas(&db, grown);
        // The entry was merged and re-stamped: the lookup hits (no
        // invalidation) and sees the new answer.
        let got = cache.lookup(&key, grown).expect("merged entry must hit");
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
        let empty = Arc::new(AnswerSet {
            vars: vec![],
            rows: FxHashMap::default(),
        });
        let stamp = DbStamp::of(&db);
        // A stateless entry is dropped on the next ingest.
        cache.insert("stateless".into(), stamp, empty, None);
        // A stateful entry survives growth but not an in-place mutation.
        let (key, state) = state_for(&db, "q(x) :- R(x)");
        let ans = state.eval.shared_answers();
        cache.insert(key.clone(), stamp, ans, Some(state));
        db.relation_mut(0)
            .push(Box::new([Value::Int(1)]), 0.9)
            .unwrap();
        cache.apply_deltas(&db, DbStamp::of(&db));
        assert_eq!(cache.len(), 0);
        let d = cache.delta_stats();
        assert_eq!((d.batches, d.rows, d.fallbacks), (0, 0, 2));
    }
}
