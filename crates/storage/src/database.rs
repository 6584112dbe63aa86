//! The probabilistic database: a catalog of relations.

use crate::delta::DeltaBatch;
use crate::error::StorageError;
use crate::fxhash::FxHashMap;
use crate::intern::{ValueInterner, Vid};
use crate::relation::Relation;
use crate::value::Value;
use crate::view::{BaseView, BaseViewStats};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Ordinal of a relation inside a [`Database`] (matches
/// [`TupleId::rel`](crate::TupleId::rel)).
pub type RelId = u32;

/// The database's value dictionary plus per-relation encoded columns and
/// base views.
///
/// Lives behind a mutex inside [`Database`] so encoding can be maintained
/// lazily through the engine's `&Database` entry points: the first scan
/// after a relation is loaded (or grows) interns its values and caches the
/// encoded columns; every later scan reuses them. Relations are append-only
/// (tuples are never removed and payloads never rewritten in place), so
/// `encoded-cell count == len × arity` is a complete freshness check and
/// interned ids never dangle. The base views ([`Database::base_view`]) ride
/// the same contract, plus the relation's probability epoch for the one
/// in-place mutation that exists.
#[derive(Debug, Clone, Default)]
struct Codec {
    interner: ValueInterner,
    /// Per-relation row-major encoded cells (`len × arity` vids), or `None`
    /// when the relation has not been encoded yet.
    rels: Vec<Option<Arc<[Vid]>>>,
    /// Per-relation base view as last published, or `None` when the
    /// relation has never been scanned in full. Immutable snapshots: a
    /// cloned database shares them until one side's relation changes.
    views: Vec<Option<Arc<BaseView>>>,
    views_built: u64,
    views_extended: u64,
}

/// Locked view over a database's value codec (see [`Database::codec`]).
///
/// Hands the engine everything the dictionary-encoded execution path needs:
/// encoded base relations ([`DbCodec::encoded`]), constant translation
/// ([`DbCodec::vid_of`]) and boundary decoding ([`DbCodec::decode`]). Holds
/// the codec lock for its lifetime — keep guards short-lived (the engine
/// locks once to encode a query's relations up front and once to decode
/// the final answers; evaluation in between runs lock-free on the returned
/// `Arc` cells, so concurrent evaluations never serialize on each other).
pub struct DbCodec<'a> {
    db: &'a Database,
    inner: MutexGuard<'a, Codec>,
}

impl DbCodec<'_> {
    /// Encoded cells of relation `id`, row-major (`row * arity + col`),
    /// interning and caching them on first access. When the relation has
    /// grown since the last call, only the appended rows are interned —
    /// relations are append-only and vids are stable, so the cached prefix
    /// is reused verbatim.
    pub fn encoded(&mut self, id: RelId) -> Arc<[Vid]> {
        let rel = self.db.relation(id);
        let arity = rel.arity();
        let need = rel.len() * arity;
        let idx = id as usize;
        if self.inner.rels.len() <= idx {
            self.inner.rels.resize(idx + 1, None);
        }
        if let Some(enc) = &self.inner.rels[idx] {
            if enc.len() == need {
                return enc.clone();
            }
        }
        let prev = self.inner.rels[idx].take();
        let mut vids: Vec<Vid> = Vec::with_capacity(need);
        let mut start_row = 0;
        if let Some(prev) = prev.filter(|p| arity > 0 && p.len() % arity == 0 && p.len() < need) {
            vids.extend_from_slice(&prev);
            start_row = prev.len() / arity;
        }
        let interner = &mut self.inner.interner;
        for row in &rel.rows()[start_row..] {
            for v in row.iter() {
                vids.push(interner.intern(v));
            }
        }
        let enc: Arc<[Vid]> = vids.into();
        self.inner.rels[idx] = Some(enc.clone());
        enc
    }

    /// The appendix of relation `id` beyond a `base_rows`-tuple prefix, as
    /// a sorted columnar [`DeltaBatch`] sharing vids with the cached base
    /// encoding (this call refreshes it via [`DbCodec::encoded`], interning
    /// only the appended rows). An up-to-date `base_rows == rel.len()`
    /// yields an empty batch.
    pub fn delta_batch(&mut self, id: RelId, base_rows: usize) -> DeltaBatch {
        let cells = self.encoded(id);
        let rel = self.db.relation(id);
        let arity = rel.arity();
        let rows: Vec<(Vec<Vid>, u32, f64)> = (base_rows..rel.len())
            .map(|i| {
                (
                    cells[i * arity..(i + 1) * arity].to_vec(),
                    i as u32,
                    rel.prob(i as u32),
                )
            })
            .collect();
        DeltaBatch::from_rows(id, base_rows, arity, rows)
    }

    /// Id of a value, if interned. Only meaningful after [`DbCodec::encoded`]
    /// has been called on the relations whose cells the id will be compared
    /// against: a miss then proves the value occurs in none of them.
    pub fn vid_of(&self, v: &Value) -> Option<Vid> {
        self.inner.interner.lookup(v)
    }

    /// Decode one vid back to its value (the answer-set boundary).
    pub fn decode(&self, vid: Vid) -> &Value {
        self.inner.interner.resolve(vid)
    }

    /// The underlying interner.
    pub fn interner(&self) -> &ValueInterner {
        &self.inner.interner
    }
}

/// A tuple-independent probabilistic database.
///
/// Owns its [`Relation`]s and provides name-based lookup. The database is the
/// unit over which queries are evaluated and over which lineage tuple ids
/// ([`TupleId`](crate::TupleId)) are scoped. It also owns the
/// [`ValueInterner`] that backs dictionary-encoded execution; see
/// [`Database::codec`].
#[derive(Default)]
pub struct Database {
    relations: Vec<Relation>,
    by_name: FxHashMap<String, RelId>,
    codec: Mutex<Codec>,
}

impl Clone for Database {
    /// Clones relations and the codec cache; base views are shared, not
    /// copied (each side replaces its own when its relation changes).
    ///
    /// Locks the codec mutex: do not call while a [`DbCodec`] guard for
    /// this database is alive on the same thread (the lock is not
    /// reentrant and would deadlock).
    fn clone(&self) -> Self {
        Database {
            relations: self.relations.clone(),
            by_name: self.by_name.clone(),
            codec: Mutex::new(self.lock_codec().clone()),
        }
    }
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // try_lock, not lock: formatting must stay safe while a DbCodec
        // guard is alive on this thread (e.g. inside engine errors/logs).
        let interned = match self.codec.try_lock() {
            Ok(codec) => codec.interner.len().to_string(),
            Err(_) => "<codec locked>".to_string(),
        };
        f.debug_struct("Database")
            .field("relations", &self.relations)
            .field("by_name", &self.by_name)
            .field("interned_values", &interned)
            .finish()
    }
}

impl Database {
    /// Create an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    fn lock_codec(&self) -> MutexGuard<'_, Codec> {
        // A panic while encoding can only leave a stale cache entry behind,
        // never a torn one (entries are replaced wholesale), so a poisoned
        // lock is safe to adopt.
        self.codec.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Lock the value codec for a batch of encoded-execution work.
    ///
    /// The returned guard keeps the codec locked until dropped; keep it
    /// short-lived (encode or decode a batch, then drop — the engine never
    /// holds it across an evaluation). The lock is not reentrant: while a
    /// guard is alive on a thread, that thread must not call
    /// [`Database::codec`] or `Database::clone` again (both would
    /// deadlock; `Debug` formatting degrades gracefully).
    pub fn codec(&self) -> DbCodec<'_> {
        DbCodec {
            db: self,
            inner: self.lock_codec(),
        }
    }

    /// The **base view** of relation `id` at its current state: the
    /// relation's encoded tuples, column-major and sorted, shared by every
    /// evaluation that scans the relation in full (see [`BaseView`]).
    ///
    /// A view showing the current `(len, prob_epoch)` is returned as is.
    /// Otherwise `build` makes one — from nothing (`None`: first scan, or
    /// the probabilities changed in place), or, when the relation only
    /// grew, from the stale view and the sorted [`DeltaBatch`] of the rows
    /// appended since — and it is published for every later caller. `build`
    /// runs **outside** the codec lock, so it may take as long and use as
    /// many threads as it likes; callers racing on one state build equal
    /// views and the first to publish wins.
    ///
    /// Locks the codec: not callable while a [`DbCodec`] guard is alive on
    /// this thread.
    pub fn base_view(
        &self,
        id: RelId,
        build: impl FnOnce(Option<(&BaseView, &DeltaBatch)>) -> BaseView,
    ) -> Arc<BaseView> {
        let rel = self.relation(id);
        let idx = id as usize;
        let stale = {
            let mut codec = self.codec();
            match codec.inner.views.get(idx).cloned().flatten() {
                Some(view) if view.shows(rel) => return view,
                Some(view) if view.prob_epoch() == rel.prob_epoch() && view.len() < rel.len() => {
                    let appended = codec.delta_batch(id, view.len());
                    Some((view, appended))
                }
                _ => None,
            }
        };
        let view = build(stale.as_ref().map(|(view, appended)| (&**view, appended)));
        debug_assert!(view.shows(rel));
        let mut codec = self.lock_codec();
        if codec.views.len() <= idx {
            codec.views.resize(idx + 1, None);
        }
        if let Some(published) = codec.views[idx].as_ref().filter(|v| v.shows(rel)) {
            return Arc::clone(published);
        }
        match stale {
            Some(_) => codec.views_extended += 1,
            None => codec.views_built += 1,
        }
        let view = Arc::new(view);
        codec.views[idx] = Some(Arc::clone(&view));
        view
    }

    /// How many base views this database holds, and how many it has built
    /// and extended so far.
    pub fn base_view_stats(&self) -> BaseViewStats {
        let codec = self.lock_codec();
        BaseViewStats {
            resident: codec.views.iter().flatten().count() as u64,
            built: codec.views_built,
            extended: codec.views_extended,
        }
    }

    /// Add a relation; its name must be fresh.
    pub fn add_relation(&mut self, rel: Relation) -> Result<RelId, StorageError> {
        if self.by_name.contains_key(rel.name()) {
            return Err(StorageError::DuplicateRelation(rel.name().to_string()));
        }
        let id = self.relations.len() as RelId;
        self.by_name.insert(rel.name().to_string(), id);
        self.relations.push(rel);
        Ok(id)
    }

    /// Convenience: create-and-add an empty probabilistic relation.
    pub fn create_relation(
        &mut self,
        name: impl Into<String>,
        arity: usize,
    ) -> Result<RelId, StorageError> {
        self.add_relation(Relation::new(name, arity))
    }

    /// Convenience: create-and-add an empty deterministic relation.
    pub fn create_deterministic(
        &mut self,
        name: impl Into<String>,
        arity: usize,
    ) -> Result<RelId, StorageError> {
        self.add_relation(Relation::deterministic(name, arity))
    }

    /// Number of relations.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// Total number of tuples across relations.
    pub fn tuple_count(&self) -> usize {
        self.relations.iter().map(Relation::len).sum()
    }

    /// Resolve a relation name to its id.
    pub fn rel_id(&self, name: &str) -> Result<RelId, StorageError> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| StorageError::UnknownRelation(name.to_string()))
    }

    /// Relation by id.
    pub fn relation(&self, id: RelId) -> &Relation {
        &self.relations[id as usize]
    }

    /// Mutable relation by id.
    pub fn relation_mut(&mut self, id: RelId) -> &mut Relation {
        &mut self.relations[id as usize]
    }

    /// Relation by name.
    pub fn relation_by_name(&self, name: &str) -> Result<&Relation, StorageError> {
        Ok(self.relation(self.rel_id(name)?))
    }

    /// Mutable relation by name.
    pub fn relation_by_name_mut(&mut self, name: &str) -> Result<&mut Relation, StorageError> {
        let id = self.rel_id(name)?;
        Ok(self.relation_mut(id))
    }

    /// Iterate `(RelId, &Relation)`.
    pub fn relations(&self) -> impl Iterator<Item = (RelId, &Relation)> {
        self.relations
            .iter()
            .enumerate()
            .map(|(i, r)| (i as RelId, r))
    }

    /// Multiply every tuple probability in every relation by `f`
    /// (the scaling operation of the paper's Proposition 21 / Result 7).
    pub fn scale_probs(&mut self, f: f64) {
        for rel in &mut self.relations {
            rel.scale_probs(f);
        }
    }

    /// Average tuple probability across the whole database
    /// (the paper's `avg[pi]`). Returns 0 for an empty database.
    pub fn avg_prob(&self) -> f64 {
        let n = self.tuple_count();
        if n == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .relations
            .iter()
            .flat_map(|r| r.probs().iter().copied())
            .sum();
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::tuple;

    fn sample_db() -> Database {
        let mut db = Database::new();
        let r = db.create_relation("R", 1).unwrap();
        db.relation_mut(r).push(tuple([1]), 0.4).unwrap();
        db.relation_mut(r).push(tuple([2]), 0.6).unwrap();
        let s = db.create_deterministic("S", 2).unwrap();
        db.relation_mut(s).push_certain(tuple([1, 10])).unwrap();
        db
    }

    #[test]
    fn name_resolution() {
        let db = sample_db();
        assert_eq!(db.rel_id("R").unwrap(), 0);
        assert_eq!(db.rel_id("S").unwrap(), 1);
        assert!(db.rel_id("T").is_err());
        assert_eq!(db.relation_by_name("S").unwrap().arity(), 2);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut db = sample_db();
        assert!(matches!(
            db.create_relation("R", 3),
            Err(StorageError::DuplicateRelation(_))
        ));
    }

    #[test]
    fn counts_and_avg_prob() {
        let db = sample_db();
        assert_eq!(db.relation_count(), 2);
        assert_eq!(db.tuple_count(), 3);
        let avg = db.avg_prob();
        assert!((avg - (0.4 + 0.6 + 1.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn scale_probs_applies_everywhere() {
        let mut db = sample_db();
        db.scale_probs(0.5);
        assert_eq!(db.relation(0).prob(0), 0.2);
        assert_eq!(db.relation(1).prob(0), 0.5);
        assert!(!db.relation(1).is_deterministic());
    }

    #[test]
    fn empty_db_avg_prob_is_zero() {
        assert_eq!(Database::new().avg_prob(), 0.0);
    }

    #[test]
    fn codec_encodes_rows_consistently_across_relations() {
        let db = sample_db();
        let mut codec = db.codec();
        let r = codec.encoded(0);
        let s = codec.encoded(1);
        assert_eq!(r.len(), 2); // 2 rows × arity 1
        assert_eq!(s.len(), 2); // 1 row × arity 2

        // R holds 1 and 2; S holds (1, 10): the shared value 1 must encode
        // to the same vid in both relations.
        assert_eq!(r[0], s[0]);
        assert_ne!(r[1], s[0]);
        // Decoding round-trips.
        assert_eq!(codec.decode(r[0]), &Value::Int(1));
        assert_eq!(codec.decode(s[1]), &Value::Int(10));
        assert_eq!(codec.vid_of(&Value::Int(2)), Some(r[1]));
        assert_eq!(codec.vid_of(&Value::Int(99)), None);
    }

    #[test]
    fn codec_extends_encoding_after_growth() {
        let mut db = sample_db();
        let before: Vec<Vid> = {
            let mut codec = db.codec();
            codec.encoded(0).to_vec()
        };
        db.relation_mut(0).push(tuple([3]), 0.5).unwrap();
        let mut codec = db.codec();
        let enc = codec.encoded(0);
        // The cached prefix is reused verbatim; only the new row is
        // interned and appended.
        assert_eq!(&enc[..before.len()], &before[..]);
        assert_eq!(enc.len(), before.len() + 1);
        assert_eq!(codec.decode(enc[2]), &Value::Int(3));
        // The cache serves repeated calls without growing the interner.
        let n = codec.interner().len();
        let again = codec.encoded(0);
        assert_eq!(enc, again);
        assert_eq!(codec.interner().len(), n);
    }

    #[test]
    fn delta_batch_covers_exactly_the_appendix() {
        let mut db = sample_db();
        {
            let mut codec = db.codec();
            codec.encoded(0);
        }
        let base = db.relation(0).len();
        db.relation_mut(0).push(tuple([9]), 0.9).unwrap();
        db.relation_mut(0).push(tuple([3]), 0.3).unwrap();
        let mut codec = db.codec();
        let b = codec.delta_batch(0, base);
        assert_eq!(b.len(), 2);
        assert_eq!(b.base_rows(), base);
        // Sorted by vid, sharing vids with the full encoding.
        let enc = codec.encoded(0);
        let mut want: Vec<Vid> = vec![enc[base], enc[base + 1]];
        want.sort_unstable();
        assert_eq!(b.col(0), &want[..]);
        // Ordinals point back at the stored rows; probs match.
        for i in 0..b.len() {
            let at = b.ordinal(i);
            assert_eq!(codec.decode(b.cell(i, 0)), &db.relation(0).row(at)[0]);
            assert_eq!(b.prob(i), db.relation(0).prob(at));
        }
        // Up-to-date prefix: empty batch.
        assert!(codec.delta_batch(0, db.relation(0).len()).is_empty());
    }

    #[test]
    fn codec_survives_clone() {
        let db = sample_db();
        {
            let mut codec = db.codec();
            codec.encoded(0);
        }
        let cloned = db.clone();
        let mut codec = cloned.codec();
        let enc = codec.encoded(0);
        assert_eq!(codec.decode(enc[0]), &Value::Int(1));
    }
}
