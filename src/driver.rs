//! High-level drivers tying the crates together: one call from query text
//! to ranked answers, for each of the paper's evaluation methods.

use lapush_core::{minimal_plan_set_opts, single_plan_id, EnumOptions, PlanStore, SchemaInfo};
use lapush_engine::{
    eval_plan_id, propagation_bounds_ids, propagation_score_ids, propagation_score_topk,
    reduce_database, AnswerSet, ExecError, ExecOptions, Semantics,
};
use lapush_lineage::{build_lineage, monte_carlo_each, ExactComputer, LineageError};
use lapush_query::Query;
use lapush_storage::{Database, FxHashMap, Value};
use std::fmt;

/// Which of the paper's evaluation strategies to use for the propagation
/// score (Section 4 / Figure 5 series).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptLevel {
    /// Evaluate every minimal plan separately, take the minimum
    /// ("all plans" series).
    MultiPlan,
    /// Optimization 1: one single plan with `min` pushed down.
    Opt1,
    /// Optimizations 1+2: single plan with common-subplan view reuse.
    #[default]
    Opt12,
    /// Optimizations 1+2+3: additionally run a deterministic semi-join
    /// reduction on the input relations first.
    Opt123,
}

/// Options for [`rank_by_dissociation`].
#[derive(Debug, Clone, Copy)]
pub struct RankOptions {
    /// Evaluation strategy.
    pub opt: OptLevel,
    /// Use schema knowledge (deterministic relations from the catalog and
    /// `^d` markers; functional dependencies from the catalog) to reduce
    /// the number of plans (Section 3.3).
    pub use_schema: bool,
    /// Read by nothing: every level evaluates on the calling thread, at
    /// any value. The field stays only because the benchmark harness sets
    /// it in struct literals; ROADMAP item 1b removes it.
    pub threads: usize,
    /// Rank only the `k` best answers. Under [`OptLevel::MultiPlan`] this
    /// routes through the engine's anytime top-k driver
    /// ([`lapush_engine::propagation_score_topk`]): answer groups whose
    /// upper bound provably cannot reach the k-th best lower bound are
    /// pruned before the expensive multi-plan min-combine. Every other
    /// level evaluates fully and truncates. Either way the returned set
    /// is bit-identical to the first `k` entries of the same level's
    /// exhaustive ranking — so `top_k` under `MultiPlan` is not always the
    /// prefix of the default level's ranking: the single Opt12 plan can
    /// score below multi-plan ρ (ROADMAP.md, item 15).
    pub top_k: Option<usize>,
}

impl Default for RankOptions {
    fn default() -> Self {
        RankOptions {
            opt: OptLevel::default(),
            use_schema: false,
            threads: 1,
            top_k: None,
        }
    }
}

/// Errors from the drivers.
#[derive(Debug, Clone, PartialEq)]
pub enum DriverError {
    /// Plan execution failed.
    Exec(ExecError),
    /// Lineage construction failed.
    Lineage(LineageError),
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::Exec(e) => write!(f, "execution error: {e}"),
            DriverError::Lineage(e) => write!(f, "lineage error: {e}"),
        }
    }
}

impl std::error::Error for DriverError {}

impl From<ExecError> for DriverError {
    fn from(e: ExecError) -> Self {
        DriverError::Exec(e)
    }
}

impl From<LineageError> for DriverError {
    fn from(e: LineageError) -> Self {
        DriverError::Lineage(e)
    }
}

/// The schema knowledge and enumeration refinements `use_schema` selects:
/// the catalog's deterministic relations and FDs with every refinement on,
/// or the query's own `^d` markers with none.
fn schema_knowledge(db: &Database, q: &Query, use_schema: bool) -> (SchemaInfo, EnumOptions) {
    if use_schema {
        (SchemaInfo::from_db(q, db), EnumOptions::full())
    } else {
        (SchemaInfo::from_query(q), EnumOptions::default())
    }
}

/// Compute the propagation score `ρ(q)` of every answer: the minimum over
/// all minimal safe dissociations of the extensional plan score
/// (Definition 14), with the requested optimization level.
pub fn rank_by_dissociation(
    db: &Database,
    q: &Query,
    opts: RankOptions,
) -> Result<AnswerSet, DriverError> {
    let (schema, enum_opts) = schema_knowledge(db, q, opts.use_schema);

    let reduced;
    let data: &Database = if opts.opt == OptLevel::Opt123 {
        reduced = reduce_database(db, q);
        &reduced
    } else {
        db
    };

    let exec_default = ExecOptions::default();
    let ans = match opts.opt {
        OptLevel::MultiPlan => {
            let set = minimal_plan_set_opts(q, &schema, enum_opts);
            match opts.top_k {
                Some(k) => {
                    let res =
                        propagation_score_topk(data, q, &set.store, &set.roots, k, exec_default)?;
                    return Ok(answers_from_ranked(q, res.ranked));
                }
                None => propagation_score_ids(data, q, &set.store, &set.roots, exec_default)?,
            }
        }
        OptLevel::Opt1 => {
            let mut store = PlanStore::new();
            let root = single_plan_id(&mut store, q, &schema, enum_opts);
            eval_plan_id(data, q, &store, root, exec_default)?
        }
        OptLevel::Opt12 | OptLevel::Opt123 => {
            let mut store = PlanStore::new();
            let root = single_plan_id(&mut store, q, &schema, enum_opts);
            let exec = ExecOptions {
                semantics: Semantics::Probabilistic,
                reuse_views: true,
                ..ExecOptions::default()
            };
            eval_plan_id(data, q, &store, root, exec)?
        }
    };
    // Single-plan levels have no multi-plan combine to prune; honour
    // `top_k` by truncating the full evaluation through the bounded heap.
    Ok(match opts.top_k {
        Some(k) => answers_from_ranked(q, ans.ranked_top(k)),
        None => ans,
    })
}

/// Rebuild an [`AnswerSet`] from a ranked prefix (the heads stay in the
/// query's head order; rank order is recovered by `ranked()`).
fn answers_from_ranked(q: &Query, ranked: Vec<(Box<[Value]>, f64)>) -> AnswerSet {
    AnswerSet {
        vars: q.head().to_vec(),
        rows: ranked.into_iter().collect(),
    }
}

/// Sandwich bounds (extension beyond the paper): for every answer, a
/// guaranteed interval `[low, high]` around its true probability.
///
/// `high` is the propagation score `ρ(q)` (Definition 14); `low` is the
/// probability of the answer's best single derivation, a lower bound on
/// the monotone lineage. Both come from one evaluation of the minimal plan
/// set ([`propagation_bounds_ids`]).
pub fn bound_answers(db: &Database, q: &Query) -> Result<(AnswerSet, AnswerSet), DriverError> {
    let schema = SchemaInfo::from_query(q);
    let set = minimal_plan_set_opts(q, &schema, EnumOptions::default());
    let opts = ExecOptions::default();
    Ok(propagation_bounds_ids(db, q, &set.store, &set.roots, opts)?)
}

/// Exact answer probabilities via lineage + weighted model counting
/// (the ground-truth oracle; exponential in lineage connectivity).
///
/// All answers are counted through one [`ExactComputer`], so the Shannon
/// memo built for one answer's lineage serves every later answer (their
/// DNFs share the same global variable numbering and usually overlap).
pub fn exact_answers(db: &Database, q: &Query) -> Result<AnswerSet, DriverError> {
    let lin = build_lineage(db, q)?;
    let mut comp = ExactComputer::new(&lin.var_probs);
    let mut rows: FxHashMap<Box<[Value]>, f64> = FxHashMap::default();
    for a in &lin.answers {
        rows.insert(a.key.clone(), comp.prob(&a.dnf));
    }
    Ok(AnswerSet {
        vars: q.head().to_vec(),
        rows,
    })
}

/// Budgeted exact answers: `None` if any answer's model count exceeds
/// `max_calls` recursive steps (the explicit analogue of the paper skipping
/// SampleSearch ground truth when it becomes infeasible).
///
/// Each answer gets a fresh computer on purpose: the budget is a property
/// of one answer's formula, and a shared memo would let earlier answers
/// subsidize later ones, making the cut-off depend on answer order.
pub fn exact_answers_bounded(
    db: &Database,
    q: &Query,
    max_calls: u64,
) -> Result<Option<AnswerSet>, DriverError> {
    let lin = build_lineage(db, q)?;
    let mut rows: FxHashMap<Box<[Value]>, f64> = FxHashMap::default();
    for a in &lin.answers {
        match lapush_lineage::exact_prob_bounded(&a.dnf, &lin.var_probs, max_calls) {
            Some(p) => {
                rows.insert(a.key.clone(), p);
            }
            None => return Ok(None),
        }
    }
    Ok(Some(AnswerSet {
        vars: q.head().to_vec(),
        rows,
    }))
}

/// Monte Carlo answer probabilities: `MC(samples)` of the experiments.
/// Deterministic for a fixed seed. The one method a thread budget
/// reaches: above 1 the answers are sampled in parallel
/// ([`monte_carlo_each`]; each answer keeps its own `seed + index` RNG, so
/// the estimates are bit-identical to the serial loop at every thread
/// count).
pub fn mc_answers(
    db: &Database,
    q: &Query,
    samples: usize,
    seed: u64,
    threads: usize,
) -> Result<AnswerSet, DriverError> {
    let lin = build_lineage(db, q)?;
    let dnfs: Vec<&lapush_lineage::Dnf> = lin.answers.iter().map(|a| &a.dnf).collect();
    let estimates = monte_carlo_each(&dnfs, &lin.var_probs, samples, seed, threads);
    let mut rows: FxHashMap<Box<[Value]>, f64> = FxHashMap::default();
    for (a, p) in lin.answers.iter().zip(estimates) {
        rows.insert(a.key.clone(), p);
    }
    Ok(AnswerSet {
        vars: q.head().to_vec(),
        rows,
    })
}

/// Lineage statistics per answer: `(answer, lineage size)` — the
/// "ranking by lineage size" baseline — plus the maximum lineage size
/// (the paper's `max[lin]`).
pub fn lineage_stats(db: &Database, q: &Query) -> Result<(AnswerSet, usize), DriverError> {
    let lin = build_lineage(db, q)?;
    let mut rows: FxHashMap<Box<[Value]>, f64> = FxHashMap::default();
    for a in &lin.answers {
        rows.insert(a.key.clone(), a.dnf.len() as f64);
    }
    Ok((
        AnswerSet {
            vars: q.head().to_vec(),
            rows,
        },
        lin.max_size(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lapush_query::parse_query;

    #[test]
    fn sandwich_bounds_contain_exact() {
        let db = rst_db();
        let q = parse_query("q :- R(x), S(x, y), T(y)").unwrap();
        let (lower, upper) = bound_answers(&db, &q).unwrap();
        let exact = exact_answers(&db, &q).unwrap().boolean_score();
        assert!(lower.boolean_score() <= exact + 1e-12);
        assert!(upper.boolean_score() >= exact - 1e-12);
        assert!(lower.boolean_score() > 0.0);
    }

    fn rst_db() -> Database {
        let mut db = Database::new();
        let r = db.create_relation("R", 1).unwrap();
        let s = db.create_relation("S", 2).unwrap();
        let t = db.create_relation("T", 1).unwrap();
        for x in [1, 2] {
            db.relation_mut(r)
                .push(Box::new([Value::Int(x)]), 0.5)
                .unwrap();
            db.relation_mut(t)
                .push(Box::new([Value::Int(x)]), 0.5)
                .unwrap();
        }
        for (x, y) in [(1, 1), (1, 2), (2, 2)] {
            db.relation_mut(s)
                .push(Box::new([Value::Int(x), Value::Int(y)]), 0.5)
                .unwrap();
        }
        db
    }

    #[test]
    fn all_opt_levels_agree() {
        let db = rst_db();
        let q = parse_query("q :- R(x), S(x, y), T(y)").unwrap();
        let base = rank_by_dissociation(
            &db,
            &q,
            RankOptions {
                opt: OptLevel::MultiPlan,
                use_schema: false,
                top_k: None,
                ..RankOptions::default()
            },
        )
        .unwrap()
        .boolean_score();
        for opt in [OptLevel::Opt1, OptLevel::Opt12, OptLevel::Opt123] {
            let got = rank_by_dissociation(
                &db,
                &q,
                RankOptions {
                    opt,
                    use_schema: false,
                    top_k: None,
                    ..RankOptions::default()
                },
            )
            .unwrap()
            .boolean_score();
            assert!((got - base).abs() < 1e-12, "{opt:?}");
        }
    }

    #[test]
    fn dissociation_upper_bounds_exact() {
        let db = rst_db();
        let q = parse_query("q :- R(x), S(x, y), T(y)").unwrap();
        let rho = rank_by_dissociation(&db, &q, RankOptions::default())
            .unwrap()
            .boolean_score();
        let exact = exact_answers(&db, &q).unwrap().boolean_score();
        assert!(rho >= exact - 1e-12);
        assert!(rho <= 1.0);
    }

    #[test]
    fn mc_converges_to_exact() {
        let db = rst_db();
        let q = parse_query("q :- R(x), S(x, y), T(y)").unwrap();
        let exact = exact_answers(&db, &q).unwrap().boolean_score();
        let mc = mc_answers(&db, &q, 100_000, 7, 1).unwrap().boolean_score();
        assert!((mc - exact).abs() < 0.01, "mc {mc} exact {exact}");
    }

    #[test]
    fn exact_answers_shared_memo_matches_per_answer_computation() {
        use lapush_lineage::exact_prob;
        let db = rst_db();
        let q = parse_query("q(x) :- R(x), S(x, y), T(y)").unwrap();
        let ans = exact_answers(&db, &q).unwrap();
        // The shared-memo answers are bit-identical to fresh per-answer
        // model counting.
        let lin = lapush_lineage::build_lineage(&db, &q).unwrap();
        for a in &lin.answers {
            let fresh = exact_prob(&a.dnf, &lin.var_probs);
            assert_eq!(ans.score_of(&a.key), fresh);
        }
    }

    #[test]
    fn lineage_stats_reports_sizes() {
        let db = rst_db();
        let q = parse_query("q(x) :- R(x), S(x, y), T(y)").unwrap();
        let (sizes, max_lin) = lineage_stats(&db, &q).unwrap();
        // x=1 joins two S-tuples, x=2 one.
        assert_eq!(sizes.score_of(&[Value::Int(1)]), 2.0);
        assert_eq!(sizes.score_of(&[Value::Int(2)]), 1.0);
        assert_eq!(max_lin, 2);
    }

    #[test]
    fn top_k_matches_exhaustive_prefix_across_levels() {
        let db = rst_db();
        let q = parse_query("q(x) :- R(x), S(x, y), T(y)").unwrap();
        for opt in [
            OptLevel::MultiPlan,
            OptLevel::Opt1,
            OptLevel::Opt12,
            OptLevel::Opt123,
        ] {
            let base = RankOptions {
                opt,
                ..RankOptions::default()
            };
            let full = rank_by_dissociation(&db, &q, base).unwrap();
            // k = 1 (proper prefix), k = answer count, k beyond it.
            for k in [1, full.len(), full.len() + 3] {
                let top = rank_by_dissociation(
                    &db,
                    &q,
                    RankOptions {
                        top_k: Some(k),
                        ..base
                    },
                )
                .unwrap();
                let want = full.ranked_top(k);
                let got = top.ranked();
                assert_eq!(want.len(), got.len(), "{opt:?} k={k}");
                for ((wk, ws), (gk, gs)) in want.iter().zip(got.iter()) {
                    assert_eq!(wk, gk, "{opt:?} k={k}");
                    assert_eq!(ws.to_bits(), gs.to_bits(), "{opt:?} k={k}");
                }
            }
        }
    }

    #[test]
    fn schema_knowledge_changes_nothing_without_schema() {
        let db = rst_db();
        let q = parse_query("q :- R(x), S(x, y), T(y)").unwrap();
        let a = rank_by_dissociation(
            &db,
            &q,
            RankOptions {
                opt: OptLevel::Opt12,
                use_schema: true,
                top_k: None,
                ..RankOptions::default()
            },
        )
        .unwrap()
        .boolean_score();
        let b = rank_by_dissociation(
            &db,
            &q,
            RankOptions {
                opt: OptLevel::Opt12,
                use_schema: false,
                top_k: None,
                ..RankOptions::default()
            },
        )
        .unwrap()
        .boolean_score();
        assert!((a - b).abs() < 1e-12);
    }
}
