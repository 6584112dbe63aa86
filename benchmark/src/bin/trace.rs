//! The traced run: about a fifth of each workload's op count, with the
//! harness calling each layer's public functions itself and recording a
//! span around every call. Prints every `per_layer` metric of
//! `BENCHMARK.json`, the layer-share table, and writes the spans as a
//! Chrome trace to `benchmark/out/trace-<workload>.json`.

#[path = "../layers.rs"]
mod layers;

use lapush_benchmark::harness::{
    class_ms, load_csv_dir, replay, same_ranking, Instance, Op, WireSample,
};
use lapush_benchmark::report::{Args, Report};
use lapush_benchmark::spans::Spans;
use lapush_benchmark::spec::{
    apply_ingest, fingerprint, mix, Class, Spec, SLICES, TOP_K, WORKLOADS,
};
use lapush_benchmark::stats::{median, percentile, summarize};
use lapushdb::query::parse_query;
use lapushdb::serve::stat;
use lapushdb::{rank_by_dissociation, RankOptions};
use layers::Walker;
use std::collections::HashMap;

/// Share of the end-to-end run's op counts the traced run does.
const TRACED_SHARE: f64 = 0.2;
/// Spans written to the trace file (all spans feed the metrics).
const MAX_TRACE_EVENTS: usize = 200_000;

struct Plan {
    rounds: usize,
    /// Repetitions of each side probe (load, capture, pool, semi-join, …).
    reps: usize,
    slices: usize,
    requests_per_slice: usize,
}

fn main() {
    let args = match Args::parse(std::env::args()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("trace: {e}\nusage: trace (--workload <name> | --check) [--seed <u64>] [--seconds <s>] [--trace 1]");
            std::process::exit(2);
        }
    };
    let ok = if args.check {
        let plan = || Plan {
            rounds: 2,
            reps: 2,
            slices: 1,
            requests_per_slice: 100,
        };
        let failed: Vec<&str> = WORKLOADS
            .into_iter()
            .filter(|w| {
                !run(
                    &Spec::by_name(w).expect("known").check_scale(),
                    args.seed,
                    plan(),
                )
            })
            .collect();
        println!(
            "check: {}",
            if failed.is_empty() {
                "passed".into()
            } else {
                format!("FAILED {failed:?}")
            }
        );
        failed.is_empty()
    } else {
        let name = args.workload.as_deref().expect("checked by Args::parse");
        let Some(spec) = Spec::by_name(name) else {
            eprintln!("trace: unknown workload `{name}` (expected one of {WORKLOADS:?})");
            std::process::exit(2);
        };
        let share =
            |per_slice: usize| (per_slice as f64 * SLICES as f64 * TRACED_SHARE).round() as usize;
        let plan = Plan {
            rounds: share(spec.rounds_per_slice(args.seconds)).max(3),
            reps: 5,
            slices: 2,
            requests_per_slice: (share(spec.requests_per_slice(args.seconds)) / 2).max(40),
        };
        run(&spec, args.seed, plan)
    };
    std::process::exit(if ok { 0 } else { 1 });
}

/// Milliseconds of every span, by name.
fn durations(spans: &Spans) -> HashMap<&'static str, Vec<f64>> {
    let mut out: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for s in &spans.spans {
        out.entry(s.name).or_default().push(s.ns() as f64 / 1e6);
    }
    out
}

/// For every span named `root`: the summed milliseconds of its
/// descendants, by name (one entry per root span, in order).
fn sums_under(spans: &Spans, root: &'static str) -> HashMap<&'static str, Vec<f64>> {
    let mut roots: Vec<usize> = Vec::new();
    // Which root span (as an index into `roots`) each span sits under.
    let mut under: Vec<Option<usize>> = Vec::with_capacity(spans.spans.len());
    let mut out: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for s in &spans.spans {
        let at = if s.name == root {
            roots.push(under.len());
            Some(roots.len() - 1)
        } else {
            s.parent.and_then(|p| under[p])
        };
        under.push(at);
        if let (Some(at), false) = (at, s.name == root) {
            let v = out.entry(s.name).or_default();
            v.resize(at + 1, 0.0);
            v[at] += s.ns() as f64 / 1e6;
        }
    }
    for v in out.values_mut() {
        v.resize(roots.len(), 0.0);
    }
    out
}

/// Per op, the walk's self time: its span minus the operator spans inside
/// it — what the memo look-ups and the dispatch between operators cost.
fn walk_self(sums: &HashMap<&'static str, Vec<f64>>) -> Vec<f64> {
    let of = |name: &str, i: usize| sums.get(name).map_or(0.0, |v| v[i]);
    let ops = sums.get("engine.rel.walk").map_or(0, Vec::len);
    (0..ops)
        .map(|i| {
            let inner: f64 = OPERATORS.iter().map(|k| of(k, i)).sum();
            of("engine.rel.walk", i) - inner
        })
        .collect()
}

const OPERATORS: [&str; 4] = [
    "engine.rel.scan",
    "engine.rel.join",
    "engine.rel.project",
    "engine.rel.min",
];

/// Where the per-layer metrics go, and the span durations most of them
/// are read from.
struct Out<'a> {
    report: &'a mut Report,
    all: &'a HashMap<&'static str, Vec<f64>>,
}

impl Out<'_> {
    /// The p50 of the spans named `span` (`_us` metrics in microseconds).
    fn span(&mut self, metric: &str, span: &str) {
        let (scale, unit) = if metric.ends_with("_us") {
            (1e3, "us")
        } else {
            (1.0, "ms")
        };
        let n = self.all.get(span).map_or(0, Vec::len);
        self.report
            .metric(metric, p50(self.all, span) * scale, unit, format!("n={n}"));
    }

    fn count(&mut self, metric: &str, value: f64) {
        self.report.metric(metric, value, "count", "");
    }

    fn value(&mut self, metric: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.report.metric(metric, value, unit, note);
    }
}

fn p50(by_name: &HashMap<&'static str, Vec<f64>>, name: &str) -> f64 {
    by_name.get(name).map_or(0.0, |v| median(v))
}

/// All equal: the in-process counts must repeat exactly, round after round.
fn constant<T: PartialEq + std::fmt::Debug>(report: &mut Report, what: &str, values: &[T]) {
    report.check(values.windows(2).all(|w| w[0] == w[1]), || {
        format!("{what} changed between rounds: {values:?}")
    });
}

fn run(spec: &Spec, seed: u64, plan: Plan) -> bool {
    let mut report = Report::default();
    let mut spans = Spans::default();
    println!(
        "traced workload={} seed={seed} data={:?} rounds={} reps={} slices={} requests/slice={}",
        spec.name, spec.data, plan.rounds, plan.reps, plan.slices, plan.requests_per_slice
    );
    let mut inst = Instance::setup(spec, seed, &lapush_benchmark::out_dir());
    println!("dataset: {}", fingerprint(&inst.inputs.db));
    let db = inst.db.clone();
    let text = inst.inputs.main_query.clone();
    let q = parse_query(&text).expect("main query parses");
    let mix = mix(&inst.inputs, seed, plan.slices, plan.requests_per_slice);

    // storage + engine.prepare: load the CSV directory, then the first
    // prepare on the untouched database (pays the dictionary encode).
    for _ in 0..plan.reps {
        let fresh = spans.scope("storage.load", |_| load_csv_dir(&inst.dir));
        spans.scope("engine.prepare.cold", |_| layers::prepare(&fresh, &q));
    }
    for (rel, rows) in mix
        .iter()
        .flatten()
        .filter_map(|r| r.body.strip_prefix("INGEST ")?.split_once('\n'))
        .take(50)
    {
        spans.scope("storage.ingest_parse", |_| layers::ingest_parse(rel, rows));
    }

    // The staged ops: each layer called in turn, then the same work through
    // the program's own entry points for comparison.
    let (mut counts_one, mut counts_all, mut core_counts, mut topk_stats) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut answers = 0;
    for _ in 0..plan.rounds {
        // rank: one plan (Opt 1+2).
        spans.next_op();
        let staged = spans.enter("op.rank.staged");
        let q1 = spans.scope("query.parse", |_| parse_query(&text).expect("parses"));
        let schema = spans.scope("query.shape", |_| layers::shape(&q1));
        let (store, root) = spans.scope("core.single_plan", |_| layers::single_plan(&q1, &schema));
        let prepared = spans.scope("engine.prepare.warm", |_| layers::prepare(&db, &q1));
        let mut walker = Walker::new(&db, &q1, &store, &prepared);
        let rel = walker.roots(&[root], &mut spans);
        let ans = spans.scope("engine.exec.decode", |_| layers::decode(&db, &q1, &rel));
        let ranked = spans.scope("engine.exec.ranked", |_| ans.ranked());
        counts_one.push(walker.counts);
        // The engine frees its memo inside the call; so does the staged op.
        spans.scope("engine.rel.free", |_| drop((walker, rel)));
        spans.exit(staged);
        // Not a stage of `rank`: what the serve layer adds to canonicalize
        // the text of every request.
        spans.scope("query.display", |_| q1.display());
        let direct = spans.scope("engine.exec.one.eval", |_| {
            layers::eval_one(&db, &q1, &store, root)
        });
        let driver = spans.scope("driver.rank", |_| Op::Rank.run(&db, &text));
        report.check(layers::same_answers(&ans, &direct), || {
            "walker (one plan) differs from eval_plan_id".into()
        });
        report.check(same_ranking(&ranked, &driver), || {
            "staged rank differs from rank_by_dissociation".into()
        });

        // rank_all: every minimal plan, min-combined.
        spans.next_op();
        let staged = spans.enter("op.rank_all.staged");
        let q1 = spans.scope("query.parse", |_| parse_query(&text).expect("parses"));
        let schema = spans.scope("query.shape", |_| layers::shape(&q1));
        let set = spans.scope("core.enumerate", |_| layers::enumerate(&q1, &schema));
        let prepared = spans.scope("engine.prepare.warm", |_| layers::prepare(&db, &q1));
        let mut walker = Walker::new(&db, &q1, &set.store, &prepared);
        let rel = walker.roots(&set.roots, &mut spans);
        let ans = spans.scope("engine.exec.decode", |_| layers::decode(&db, &q1, &rel));
        let ranked = spans.scope("engine.exec.ranked", |_| ans.ranked());
        counts_all.push(walker.counts);
        spans.scope("engine.rel.free", |_| drop((walker, rel)));
        spans.exit(staged);
        core_counts.push((set.roots.len(), set.dag_node_count(), set.tree_node_count()));
        answers = ans.len();
        let direct = spans.scope("engine.exec.all.eval", |_| layers::eval_all(&db, &q1, &set));
        let driver = spans.scope("driver.rank_all", |_| Op::RankAll.run(&db, &text));
        report.check(layers::same_answers(&ans, &direct), || {
            "walker (all plans) differs from propagation_score_ids".into()
        });
        report.check(same_ranking(&ranked, &driver), || {
            "staged rank_all differs from rank_by_dissociation".into()
        });

        // topk.
        spans.next_op();
        spans.scope("engine.topk.first_bounds", |_| {
            layers::topk_first_bounds(&db, &q1, &set, TOP_K)
        });
        topk_stats.push(spans.scope("engine.topk.total", |_| layers::topk(&db, &q1, &set, TOP_K)));
        let driver = spans.scope("driver.topk", |_| Op::Topk.run(&db, &text));
        let want: Vec<_> = ranked.iter().take(TOP_K).cloned().collect();
        report.check(same_ranking(&driver, &want), || {
            "topk differs from the exhaustive ranking's first 10".into()
        });
    }
    constant(&mut report, "engine.rel.one counts", &counts_one);
    constant(&mut report, "engine.rel.all counts", &counts_all);
    constant(&mut report, "core counts", &core_counts);
    constant(&mut report, "engine.topk counts", &topk_stats);

    // engine.delta: capture against plain evaluation, then ten-row batches
    // folded into one captured entry.
    let schema = layers::shape(&q);
    let (store, root) = layers::single_plan(&q, &schema);
    for _ in 0..plan.reps {
        spans.scope("engine.delta.capture", |_| {
            layers::capture(&db, &q, &store, root)
        });
    }
    let mut grown = db.clone();
    let mut eval = layers::capture(&grown, &q, &store, root);
    let mut delta_fallbacks = 0u64;
    for (rel, rows) in mix
        .iter()
        .flatten()
        .filter_map(|r| r.ingest.as_ref())
        .take(plan.reps.max(4))
    {
        apply_ingest(&mut grown, rel, rows);
        if spans.scope("engine.delta.apply", |_| {
            layers::apply_delta(&mut eval, &grown, &q, &store)
        }) {
            delta_fallbacks += 1;
            eval = layers::capture(&grown, &q, &store, root);
        }
    }
    report.check(
        layers::same_answers(eval.answers(), &layers::eval_one(&grown, &q, &store, root)),
        || "incrementally maintained answers differ from a fresh evaluation".into(),
    );
    drop((eval, grown));

    // engine.pool: the default rank at threads 1 and 2, and what the pool
    // ran for the latter.
    let mut pool_deltas = Vec::new();
    for _ in 0..plan.reps {
        spans.scope("engine.pool.t1", |_| Op::Rank.run(&db, &text));
        let before = layers::pool_counters();
        let two = RankOptions {
            threads: 2,
            ..RankOptions::default()
        };
        spans.scope("engine.pool.t2", |_| {
            rank_by_dissociation(&db, &q, two)
                .expect("evaluates")
                .ranked()
        });
        let after = layers::pool_counters();
        pool_deltas.push((after.0 - before.0, after.1 - before.1));
    }
    constant(&mut report, "engine.pool counts", &pool_deltas);

    // engine.semijoin: Optimization 3's reduction on its own.
    let query_tuples: usize = q
        .atoms()
        .iter()
        .map(|a| db.relation_by_name(&a.relation).map_or(0, |r| r.len()))
        .sum();
    let mut kept = Vec::new();
    for _ in 0..plan.reps {
        kept.push(spans.scope("engine.semijoin.reduce", |_| {
            layers::semijoin_reduce(&db, &q)
        }));
    }
    constant(&mut report, "engine.semijoin kept tuples", &kept);

    // serve: the wire floor, the pure request/response functions, the miss
    // queries evaluated in-process, then the traced mix between two STATS.
    for _ in 0..200 {
        spans.scope("serve.ping", |_| inst.ask("PING"));
    }
    for req in mix.iter().flatten().take(200) {
        spans.scope("serve.parse_request", |_| layers::request_parse(&req.body));
    }
    for text in &inst.inputs.hot {
        let ans =
            rank_by_dissociation(&db, &parse_query(text).expect("parses"), Op::Rank.options())
                .expect("evaluates");
        spans.scope("serve.render", |_| layers::render(&ans));
    }
    for req in mix
        .iter()
        .flatten()
        .filter(|r| r.class == Class::Miss)
        .take(20)
    {
        let text = req.body.strip_prefix("QUERY ").expect("miss body");
        spans.scope("serve.miss_inproc", |_| Op::Rank.run(&db, text));
    }
    let stats_before = inst.ask("STATS");
    let mut wire: Vec<WireSample> = Vec::new();
    for slice in &mix {
        wire.extend(replay(&mut inst, slice, spans.epoch()).samples);
    }
    let sent = inst.queries_sent;
    let stats_after = inst.ask("STATS");
    report.ops(
        wire.len() as u64,
        wire.iter().filter(|s| !s.ok).count() as u64,
        "wire requests failed or answered ERR",
    );
    report.check(stat(&stats_after, "queries.served") == Some(sent), || {
        "STATS queries.served disagrees with the requests sent".into()
    });
    for s in &wire {
        let name = match s.class {
            Class::Hit => "serve.wire.hit",
            Class::Miss => "serve.wire.miss",
            Class::Topk => "serve.wire.topk",
            Class::Ingest => "serve.wire.ingest",
        };
        spans.record(name, s.start_ns, s.end_ns, 1 + s.client as u32);
    }
    let delta = |key: &str| {
        (stat(&stats_after, key).unwrap_or(0) - stat(&stats_before, key).unwrap_or(0)) as f64
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let ingests: Vec<&WireSample> = wire.iter().filter(|s| s.class == Class::Ingest).collect();
    // Per ingest, the slowest hit in flight at the same time: the reader
    // that waited for the write lock. (Other overlapping hits slipped in
    // before the lock was taken or after it was released.)
    let stalled: Vec<f64> = ingests
        .iter()
        .filter_map(|i| {
            let overlapping = wire.iter().filter(|h| {
                h.class == Class::Hit && h.start_ns < i.end_ns && h.end_ns > i.start_ns
            });
            overlapping.map(WireSample::ms).max_by(f64::total_cmp)
        })
        .collect();

    // ---- metrics ----------------------------------------------------------
    let all = durations(&spans);
    let one = sums_under(&spans, "op.rank.staged");
    let every = sums_under(&spans, "op.rank_all.staged");
    let mut out = Out {
        report: &mut report,
        all: &all,
    };

    for (metric, span) in [
        ("query.parse_us", "query.parse"),
        ("query.shape_us", "query.shape"),
        ("query.display_us", "query.display"),
        ("core.enumerate_ms", "core.enumerate"),
        ("core.single_plan_us", "core.single_plan"),
        ("engine.prepare.cold_ms", "engine.prepare.cold"),
        ("engine.prepare.warm_us", "engine.prepare.warm"),
        ("engine.exec.all.eval_ms", "engine.exec.all.eval"),
        ("engine.exec.one.eval_ms", "engine.exec.one.eval"),
        ("driver.rank_ms", "driver.rank"),
        ("engine.topk.total_ms", "engine.topk.total"),
        ("engine.topk.first_bounds_ms", "engine.topk.first_bounds"),
        ("engine.delta.capture_ms", "engine.delta.capture"),
        ("engine.delta.apply_ms", "engine.delta.apply"),
        ("engine.semijoin.reduce_ms", "engine.semijoin.reduce"),
        ("storage.load_ms", "storage.load"),
        ("storage.ingest_parse_us", "storage.ingest_parse"),
        ("serve.ping_rtt_us", "serve.ping"),
        ("serve.parse_request_us", "serve.parse_request"),
        ("serve.hit_p50_ms", "serve.wire.hit"),
        ("serve.miss_p50_ms", "serve.wire.miss"),
        ("serve.topk_p50_ms", "serve.wire.topk"),
        ("serve.ingest_p50_ms", "serve.wire.ingest"),
    ] {
        out.span(metric, span);
    }

    let (plans, dag_nodes, tree_nodes) = core_counts[0];
    out.count("core.plans", plans as f64);
    out.count("core.dag_nodes", dag_nodes as f64);
    let sharing = tree_nodes as f64 / dag_nodes as f64;
    out.value(
        "core.dag_sharing",
        sharing,
        "ratio",
        format!("{tree_nodes} tree nodes / DAG nodes"),
    );
    for (tag, sums, counts) in [("all", &every, counts_all[0]), ("one", &one, counts_one[0])] {
        for kind in ["scan", "join", "project", "min", "free"] {
            let ms = p50(sums, &format!("engine.rel.{kind}"));
            out.value(
                &format!("engine.rel.{tag}.{kind}_ms"),
                ms,
                "ms",
                "sum per op, p50 over ops",
            );
        }
        out.count(&format!("engine.rel.{tag}.nodes"), counts.nodes as f64);
        out.count(
            &format!("engine.rel.{tag}.memo_hits"),
            counts.memo_hits as f64,
        );
        out.count(
            &format!("engine.rel.{tag}.rows_out"),
            counts.rows_out as f64,
        );
        out.count(
            &format!("engine.rel.{tag}.join_rows_in"),
            counts.join_rows_in as f64,
        );
        let walk = p50(sums, "engine.rel.walk");
        let per_node = walk * 1e3 / counts.nodes as f64;
        out.value(
            &format!("engine.rel.{tag}.us_per_node"),
            per_node,
            "us",
            format!("walk {walk:.3} ms"),
        );
    }
    let eval_one = p50(&all, "engine.exec.one.eval");
    let operators_one: f64 = OPERATORS.iter().map(|k| p50(&one, k)).sum();
    let residual = "one.eval - its operator spans: decode + memo + dispatch";
    out.value(
        "engine.exec.residual_ms",
        eval_one - operators_one,
        "ms",
        residual,
    );
    out.value(
        "engine.exec.ranked_ms",
        p50(&one, "engine.exec.ranked"),
        "ms",
        "",
    );
    out.count("engine.exec.answers", answers as f64);
    let (rank, staged) = (p50(&all, "driver.rank"), p50(&all, "op.rank.staged"));
    let gap = (staged - rank).abs() / rank * 100.0;
    out.value(
        "driver.stage_gap_pct",
        gap,
        "%",
        format!("stages sum to {staged:.3} ms"),
    );
    let topk = topk_stats[0];
    out.count("engine.topk.pruned", topk.pruned as f64);
    out.count("engine.topk.evaluated", topk.evaluated as f64);
    out.count("engine.topk.fallback_nodes", topk.fallback_nodes as f64);
    let pruned = ratio(topk.pruned as f64, (topk.pruned + topk.evaluated) as f64);
    out.value("engine.topk.pruned_ratio", pruned, "ratio", "");
    let capture_over = (p50(&all, "engine.delta.capture") / eval_one - 1.0) * 100.0;
    out.value(
        "engine.delta.capture_overhead_pct",
        capture_over,
        "%",
        "vs engine.exec.one.eval_ms",
    );
    out.count("engine.delta.fallbacks", delta_fallbacks as f64);
    let speedup = p50(&all, "engine.pool.t1") / p50(&all, "engine.pool.t2");
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    out.value(
        "engine.pool.t2_speedup",
        speedup,
        "ratio",
        format!("rank p50, threads 1 / 2; {cores} cores"),
    );
    out.count("engine.pool.scopes", pool_deltas[0].0 as f64);
    out.count("engine.pool.tasks", pool_deltas[0].1 as f64);
    let kept_ratio = ratio(kept[0] as f64, query_tuples as f64);
    out.value(
        "engine.semijoin.kept_ratio",
        kept_ratio,
        "ratio",
        format!("{} of {query_tuples} tuples", kept[0]),
    );
    let rows_per_s = db.tuple_count() as f64 / (p50(&all, "storage.load") / 1e3);
    out.value(
        "storage.load_rows_per_s",
        rows_per_s,
        "1/s",
        format!("{} tuples", db.tuple_count()),
    );
    out.value("storage.csv_bytes", inst.csv_bytes as f64, "B", "");

    let (ping, hit, ingest) = (
        p50(&all, "serve.ping"),
        p50(&all, "serve.wire.hit"),
        p50(&all, "serve.wire.ingest"),
    );
    let cache_len = stat(&stats_after, "answer_cache.len").unwrap_or(0) as f64;
    let render = all
        .get("serve.render")
        .map_or(0.0, |v| v.iter().sum::<f64>() / v.len() as f64);
    let miss_inproc = p50(&all, "serve.miss_inproc");
    let mut hits = class_ms(&wire, Class::Hit);
    let hit_note = summarize(&mut hits).note();
    out.value(
        "serve.render_us",
        render * 1e3,
        "us",
        "mean over the hot queries",
    );
    out.value(
        "serve.hit_p99_ms",
        percentile(&hits, 99.0),
        "ms",
        format!("the reader-stalled-behind-ingest tail; {hit_note}"),
    );
    out.value(
        "serve.hit_over_floor_us",
        (hit - ping) * 1e3,
        "us",
        "hit p50 - ping p50",
    );
    let stall = if stalled.is_empty() {
        0.0
    } else {
        median(&stalled)
    };
    let stall_note = format!(
        "slowest hit overlapping each ingest; n={} of {} ingests",
        stalled.len(),
        ingests.len()
    );
    out.value("serve.hit_during_ingest_p50_ms", stall, "ms", stall_note);
    out.value(
        "serve.ingest_ms_per_entry",
        ratio(ingest, cache_len),
        "ms",
        "ingest p50 / cached answers",
    );
    let miss_over = (p50(&all, "serve.wire.miss") / miss_inproc - 1.0) * 100.0;
    out.value(
        "serve.miss_over_inproc_pct",
        miss_over,
        "%",
        format!("in-process {miss_inproc:.3} ms"),
    );
    for (metric, hits, misses) in [
        (
            "serve.answer_hit_ratio",
            "answer_cache.hits",
            "answer_cache.misses",
        ),
        (
            "serve.plan_hit_ratio",
            "plan_cache.hits",
            "plan_cache.misses",
        ),
        ("serve.topk_pruned_ratio", "topk.pruned", "topk.evaluated"),
    ] {
        out.value(
            metric,
            ratio(delta(hits), delta(hits) + delta(misses)),
            "ratio",
            "",
        );
    }
    for (metric, counter) in [
        ("serve.answer_evictions", "answer_cache.evictions"),
        ("serve.answer_invalidations", "answer_cache.invalidations"),
        ("serve.delta_batches", "delta.batches"),
        ("serve.delta_rows", "delta.rows"),
        ("serve.delta_fallbacks", "delta.fallbacks"),
    ] {
        out.count(metric, delta(counter));
    }
    out.count("serve.answer_cache_len", cache_len);
    let untraced = p50(&all, "driver.rank_all");
    let overhead = (p50(&all, "op.rank_all.staged") / untraced - 1.0) * 100.0;
    out.value(
        "trace.overhead_pct",
        overhead,
        "%",
        format!("staged rank_all vs {untraced:.3} ms untraced"),
    );
    report.check_names("per_layer");

    // Layer shares: where the time of one default `rank` goes, stage by
    // stage, against the program's own one-call total.
    println!("\nself time per layer, p50 over ops, as a share of the program's own call");
    println!(
        "{:<24} {:>10} {:>7}   {:>10} {:>7}",
        "layer", "rank ms", "share", "rank_all ms", "share"
    );
    let rank_all = p50(&all, "driver.rank_all");
    let (mut sum_one, mut sum_all) = (0.0, 0.0);
    let stages = [
        "query.parse",
        "query.shape",
        "core.single_plan",
        "core.enumerate",
        "engine.prepare.warm",
        "engine.rel.scan",
        "engine.rel.join",
        "engine.rel.project",
        "engine.rel.min",
        "engine.rel.walk",
        "engine.rel.free",
        "engine.exec.decode",
        "engine.exec.ranked",
    ];
    for stage in stages {
        let own = |sums: &HashMap<&'static str, Vec<f64>>| match stage {
            "engine.rel.walk" => median(&walk_self(sums)),
            _ => p50(sums, stage),
        };
        let (a, b) = (own(&one), own(&every));
        sum_one += a;
        sum_all += b;
        println!(
            "{:<24} {a:>10.4} {:>6.1}%   {b:>10.4} {:>6.1}%",
            if stage == "engine.rel.walk" {
                "engine.rel (memo+dispatch)"
            } else {
                stage
            },
            a / rank * 100.0,
            b / rank_all * 100.0
        );
    }
    println!(
        "{:<24} {sum_one:>10.4} {:>6.1}%   {sum_all:>10.4} {:>6.1}%",
        "sum of layers",
        sum_one / rank * 100.0,
        sum_all / rank_all * 100.0
    );
    println!(
        "{:<24} {rank:>10.4} {:>6.1}%   {rank_all:>10.4} {:>6.1}%",
        "driver (one call)", 100.0, 100.0
    );

    let path = lapush_benchmark::out_dir().join(format!("trace-{}.json", spec.name));
    let written = std::fs::File::create(&path)
        .and_then(|f| spans.write_chrome_trace(std::io::BufWriter::new(f), MAX_TRACE_EVENTS));
    match written {
        Ok(n) => println!(
            "trace: {n} of {} spans written to {}",
            spans.spans.len(),
            path.display()
        ),
        Err(e) => report.check(false, || format!("writing {}: {e}", path.display())),
    }
    report.print(spec.name);
    report.correct()
}
