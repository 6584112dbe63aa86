//! Every operator-level call of the traced run, in one file: when a
//! refactor renames or reshapes an engine operator, this is the only
//! place of the benchmark that has to follow (and the `bench` binary,
//! which never compiles this file, keeps working meanwhile).
//!
//! Only id-level / `_par` forms are used — the ones ROADMAP item 2 keeps.
//! Spans are recorded around the calls, from outside; nothing inside the
//! program is instrumented.

use lapush_benchmark::spans::Spans;
use lapushdb::core::{
    minimal_plan_set_opts, single_plan_id, EnumOptions, NodeKind, PlanId, PlanSet, PlanStore,
    SchemaInfo,
};
use lapushdb::engine::prepare::{prepare_atoms, PreparedAtom, ScanShape};
use lapushdb::engine::rel::{
    join_many_par, min_combine_par, min_into_par, project_prob_par, Par, Rel, Scratch,
};
use lapushdb::engine::{
    eval_plan_id, order_plans_by_cost, pool, propagation_score_ids, propagation_score_topk,
    reduce_database, AnswerSet, DeltaOutcome, ExecOptions, IncrementalEval, Semantics, TopkEval,
    TopkStats,
};
use lapushdb::query::{Query, Var};
use lapushdb::serve::{parse_request, render_answers};
use lapushdb::storage::csv::{relation_from_text, CsvOptions};
use lapushdb::storage::{Database, FxHashMap, Value, Vid};
use std::sync::Arc;

/// What `rank_by_dissociation` passes to the engine for the default
/// (Opt 1+2, single plan) level; the serve layer captures with the same.
pub fn exec_one() -> ExecOptions {
    ExecOptions {
        semantics: Semantics::Probabilistic,
        reuse_views: true,
        threads: 1,
    }
}

/// … and for `OptLevel::MultiPlan`.
pub fn exec_all() -> ExecOptions {
    ExecOptions {
        threads: 1,
        ..ExecOptions::default()
    }
}

// ---- query / core -------------------------------------------------------

pub fn shape(q: &Query) -> SchemaInfo {
    let schema = SchemaInfo::from_query(q);
    std::hint::black_box(schema.shape(q));
    schema
}

pub fn single_plan(q: &Query, schema: &SchemaInfo) -> (PlanStore, PlanId) {
    let mut store = PlanStore::new();
    let root = single_plan_id(&mut store, q, schema, EnumOptions::default());
    (store, root)
}

pub fn enumerate(q: &Query, schema: &SchemaInfo) -> PlanSet {
    minimal_plan_set_opts(q, schema, EnumOptions::default())
}

// ---- engine.prepare / engine.rel: the harness-side plan walk --------------

pub fn prepare(db: &Database, q: &Query) -> Vec<PreparedAtom> {
    prepare_atoms(db, q).expect("generated query prepares")
}

/// Counts of one walk; exact for a fixed seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalkCounts {
    /// Plan nodes evaluated (memo misses) plus root-fold `min` steps.
    pub nodes: u64,
    pub memo_hits: u64,
    /// Rows produced by evaluated nodes.
    pub rows_out: u64,
    /// Rows fed into joins.
    pub join_rows_in: u64,
}

/// A memoized fold over the `PlanStore` DAG that calls the engine's public
/// operators itself — the same operators, memo discipline and root order
/// as `eval_plan_id` / `propagation_score_ids`, so its answers are
/// bit-equal to theirs — recording one span per operator call.
pub struct Walker<'a> {
    db: &'a Database,
    q: &'a Query,
    store: &'a PlanStore,
    prepared: &'a [PreparedAtom],
    memo: FxHashMap<PlanId, Arc<Rel>>,
    scratch: Scratch,
    pub counts: WalkCounts,
}

impl<'a> Walker<'a> {
    pub fn new(
        db: &'a Database,
        q: &'a Query,
        store: &'a PlanStore,
        prepared: &'a [PreparedAtom],
    ) -> Self {
        Walker {
            db,
            q,
            store,
            prepared,
            memo: FxHashMap::default(),
            scratch: Scratch::default(),
            counts: WalkCounts::default(),
        }
    }

    fn done(&mut self, rel: Rel) -> Arc<Rel> {
        self.counts.nodes += 1;
        self.counts.rows_out += rel.len() as u64;
        Arc::new(rel)
    }

    fn node(&mut self, id: PlanId, spans: &mut Spans) -> Arc<Rel> {
        if let Some(hit) = self.memo.get(&id) {
            self.counts.memo_hits += 1;
            return Arc::clone(hit);
        }
        // Copies of the `'a` references, so nothing below borrows `self`.
        let (db, q, store, prepared) = (self.db, self.q, self.store, self.prepared);
        let node = store.node(id);
        let par = Par::serial();
        let rel = match &node.kind {
            NodeKind::Scan { atom } => {
                let (prep, atom) = (&prepared[*atom], &q.atoms()[*atom]);
                spans.scope("engine.rel.scan", |_| {
                    let base = db.relation(prep.rel);
                    let shape = ScanShape::of(q, atom);
                    let cap = if shape.is_unfiltered(prep) {
                        base.len()
                    } else {
                        0
                    };
                    let mut out = Rel::with_capacity(shape.out_vars.clone(), cap);
                    let mut row_buf: Vec<Vid> = vec![0; shape.out_cols.len()];
                    prep.for_each_surviving_row(base, &shape, |i, row| {
                        for (slot, &c) in row_buf.iter_mut().zip(&shape.out_cols) {
                            *slot = row[c];
                        }
                        out.push_row(&row_buf, base.prob(i));
                    });
                    out.canonicalize(par, &mut self.scratch);
                    out
                })
            }
            NodeKind::Project { input } => {
                let child = self.node(*input, spans);
                let keep: Vec<Var> = node.head.iter().collect();
                spans.scope("engine.rel.project", |_| {
                    project_prob_par(&child, &keep, par, &mut self.scratch)
                })
            }
            NodeKind::Join { inputs } => {
                let children: Vec<Arc<Rel>> = inputs.iter().map(|&c| self.node(c, spans)).collect();
                let refs: Vec<&Rel> = children.iter().map(Arc::as_ref).collect();
                self.counts.join_rows_in += refs.iter().map(|r| r.len() as u64).sum::<u64>();
                spans.scope("engine.rel.join", |_| {
                    join_many_par(&refs, par, &mut self.scratch)
                })
            }
            NodeKind::Min { inputs } => {
                let children: Vec<Arc<Rel>> = inputs.iter().map(|&c| self.node(c, spans)).collect();
                let refs: Vec<&Rel> = children.iter().map(Arc::as_ref).collect();
                spans.scope("engine.rel.min", |_| {
                    min_combine_par(&refs, par, &mut self.scratch)
                })
            }
        };
        let rel = self.done(rel);
        self.memo.insert(id, Arc::clone(&rel));
        rel
    }

    /// Evaluate `roots` cheapest-first and min-fold them, as one
    /// `engine.rel.walk` span whose self time is the memo and dispatch
    /// overhead between operator calls.
    pub fn roots(&mut self, roots: &[PlanId], spans: &mut Spans) -> Arc<Rel> {
        let walk = spans.enter("engine.rel.walk");
        let ordered = if roots.len() > 1 {
            order_plans_by_cost(self.db, self.q, self.store, roots)
        } else {
            roots.to_vec()
        };
        let first = self.node(ordered[0], spans);
        let mut acc: Option<Rel> = None;
        for &root in &ordered[1..] {
            let next = self.node(root, spans);
            let acc = acc.get_or_insert_with(|| (*first).clone());
            spans.scope("engine.rel.min", |_| {
                min_into_par(acc, &next, Par::serial(), &mut self.scratch)
            });
            self.counts.nodes += 1;
        }
        let out = acc.map_or(first, Arc::new);
        let c = self.counts;
        for (key, value) in [
            ("nodes", c.nodes),
            ("memo_hits", c.memo_hits),
            ("rows_out", c.rows_out),
            ("join_rows_in", c.join_rows_in),
        ] {
            spans.count(walk, key, value);
        }
        spans.exit(walk);
        out
    }
}

/// Vids back to values, columns in head order: the engine's
/// decode-at-the-boundary step, done from outside.
pub fn decode(db: &Database, q: &Query, rel: &Rel) -> AnswerSet {
    let codec = db.codec();
    let perm: Vec<usize> = q
        .head()
        .iter()
        .map(|&v| rel.col_of(v).expect("head variable in result"))
        .collect();
    let mut rows: FxHashMap<Box<[Value]>, f64> =
        FxHashMap::with_capacity_and_hasher(rel.len(), Default::default());
    for i in 0..rel.len() {
        let key: Box<[Value]> = perm
            .iter()
            .map(|&c| codec.decode(rel.get(i, c)).clone())
            .collect();
        rows.insert(key, rel.score(i));
    }
    AnswerSet {
        vars: q.head().to_vec(),
        rows,
    }
}

/// Same answers, same score bits.
pub fn same_answers(a: &AnswerSet, b: &AnswerSet) -> bool {
    a.len() == b.len()
        && a.rows
            .iter()
            .all(|(k, s)| b.rows.get(k).is_some_and(|t| t.to_bits() == s.to_bits()))
}

// ---- engine.exec: the direct calls the walk is compared with -------------

pub fn eval_one(db: &Database, q: &Query, store: &PlanStore, root: PlanId) -> AnswerSet {
    eval_plan_id(db, q, store, root, exec_one()).expect("evaluates")
}

pub fn eval_all(db: &Database, q: &Query, set: &PlanSet) -> AnswerSet {
    propagation_score_ids(db, q, &set.store, &set.roots, exec_all()).expect("evaluates")
}

// ---- engine.topk ----------------------------------------------------------

/// `TopkEval::new` through the first bounds snapshot: what an anytime
/// caller waits for before it sees any ranking.
pub fn topk_first_bounds(db: &Database, q: &Query, set: &PlanSet, k: usize) -> usize {
    let eval = TopkEval::new(db, q, &set.store, &set.roots, k, exec_all()).expect("evaluates");
    eval.bounds().len()
}

pub fn topk(db: &Database, q: &Query, set: &PlanSet, k: usize) -> TopkStats {
    propagation_score_topk(db, q, &set.store, &set.roots, k, exec_all())
        .expect("evaluates")
        .stats
}

// ---- engine.delta ---------------------------------------------------------

pub fn capture(db: &Database, q: &Query, store: &PlanStore, root: PlanId) -> IncrementalEval {
    IncrementalEval::new(db, q, store, std::slice::from_ref(&root), exec_one()).expect("captures")
}

/// Fold what was appended to `db` since capture into `eval`; `true` when
/// the delta algebra refused (`Fallback`).
pub fn apply_delta(
    eval: &mut IncrementalEval,
    db: &Database,
    q: &Query,
    store: &PlanStore,
) -> bool {
    matches!(
        eval.apply_deltas(db, q, store).expect("applies"),
        DeltaOutcome::Fallback
    )
}

// ---- engine.pool / engine.semijoin -----------------------------------------

/// `(scopes, tasks)` the process-wide pool has run so far.
pub fn pool_counters() -> (u64, u64) {
    let c = pool::counters();
    (c.scopes, c.tasks)
}

/// Optimization 3's reduction; returns the tuples kept in the query's
/// relations.
pub fn semijoin_reduce(db: &Database, q: &Query) -> usize {
    let reduced = reduce_database(db, q);
    q.atoms()
        .iter()
        .map(|a| reduced.relation_by_name(&a.relation).map_or(0, |r| r.len()))
        .sum()
}

// ---- storage / serve -------------------------------------------------------

/// Parse one `INGEST` body's rows the way the server does.
pub fn ingest_parse(relation: &str, rows: &str) -> usize {
    relation_from_text(relation, rows, CsvOptions::default())
        .expect("ingest rows parse")
        .len()
}

pub fn request_parse(body: &str) -> bool {
    parse_request(body).is_ok()
}

pub fn render(ans: &AnswerSet) -> usize {
    render_answers(ans).len()
}
