//! The end-to-end run: tracing off, one workload per process, every
//! `end_to_end` metric of `BENCHMARK.json` printed by name with its unit.

use lapush_benchmark::harness::{
    checksum, class_ms, keyed_ms, load_csv_dir, replay, same_ranking, timed_ms, Instance, Op,
    Ranked, WireSample, OPS,
};
use lapush_benchmark::procfs::{cpu_seconds, peak_rss_mb};
use lapush_benchmark::report::{Args, Report};
use lapush_benchmark::spec::{
    apply_ingest, fingerprint, mix, Class, Spec, SLICES, TOP_K, WORKLOADS,
};
use lapush_benchmark::stats::{median, summarize};
use lapushdb::query::parse_query;
use lapushdb::serve::{render_answers, stat};
use lapushdb::workload::{chain_db, chain_query, find_chain_domain};
use lapushdb::{exact_answers, rank_by_dissociation};
use std::time::Instant;

/// How much of everything one run does.
struct Plan {
    setups: usize,
    slices: usize,
    rounds_per_slice: usize,
    requests_per_slice: usize,
}

fn main() {
    let args = match Args::parse(std::env::args()) {
        Ok(a) if !a.trace => a,
        Ok(_) => {
            eprintln!("bench is the untraced run; the traced run is the `trace` binary (run.sh picks it for --trace 1)");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("bench: {e}\nusage: bench (--workload <name> | --check) [--seed <u64>] [--seconds <s>] [--trace 0]");
            std::process::exit(2);
        }
    };
    let ok = if args.check {
        // Every workload at about 1/50 of the op counts and 1/10 of the data.
        let plan = || Plan {
            setups: 1,
            slices: 2,
            rounds_per_slice: 2,
            requests_per_slice: 100,
        };
        let t = Instant::now();
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
            "check: {} in {:.1} s",
            if failed.is_empty() {
                "passed".into()
            } else {
                format!("FAILED {failed:?}")
            },
            t.elapsed().as_secs_f64()
        );
        failed.is_empty()
    } else {
        let name = args.workload.as_deref().expect("checked by Args::parse");
        let Some(spec) = Spec::by_name(name) else {
            eprintln!("bench: unknown workload `{name}` (expected one of {WORKLOADS:?})");
            std::process::exit(2);
        };
        let plan = Plan {
            setups: 3,
            slices: SLICES,
            rounds_per_slice: spec.rounds_per_slice(args.seconds),
            requests_per_slice: spec.requests_per_slice(args.seconds),
        };
        run(&spec, args.seed, plan)
    };
    std::process::exit(if ok { 0 } else { 1 });
}

fn run(spec: &Spec, seed: u64, plan: Plan) -> bool {
    let mut report = Report::default();
    println!(
        "workload={} seed={seed} data={:?} slices={} rounds/slice={} requests/slice={} setups={}",
        spec.name,
        spec.data,
        plan.slices,
        plan.rounds_per_slice,
        plan.requests_per_slice,
        plan.setups
    );

    // Set-up, several times over; the last instance is the one measured.
    let out = lapush_benchmark::out_dir();
    let mut setup_s = Vec::new();
    let mut inst = None;
    for _ in 0..plan.setups {
        drop(inst.take());
        let (ms, i) = timed_ms(|| Instance::setup(spec, seed, &out));
        setup_s.push(ms / 1e3);
        inst = Some(i);
    }
    let mut inst = inst.expect("at least one set-up");
    let generated = fingerprint(&inst.inputs.db);
    println!("dataset: {generated}");
    report.check(fingerprint(&inst.db) == generated, || {
        "CSV round trip changed the data".into()
    });
    let main_query = inst.inputs.main_query.clone();
    let mix = mix(&inst.inputs, seed, plan.slices, plan.requests_per_slice);

    // The timed phase, slice by slice. Within a slice the in-process
    // classes are interleaved round-robin.
    let timed = Instant::now();
    let mut lat: [Vec<f64>; 3] = Default::default();
    let mut first: [Option<u64>; 3] = [None; 3];
    let mut drift = [0u64; 3];
    let mut exhaustive: Option<Ranked> = None;
    let mut topk_mismatch = 0;
    let (mut cold, mut cold_bad) = (Vec::new(), 0);
    let mut wire: Vec<WireSample> = Vec::new();
    let (mut slice_cpu, mut slice_rate) = (Vec::new(), Vec::new());
    for slice in &mix {
        let cpu_before = cpu_seconds();
        for _ in 0..plan.rounds_per_slice {
            for (i, op) in OPS.into_iter().enumerate() {
                let (ms, ranked) = timed_ms(|| op.run(&inst.db, &main_query));
                lat[i].push(ms);
                let sum = checksum(&ranked);
                drift[i] += u64::from(*first[i].get_or_insert(sum) != sum);
                match op {
                    Op::RankAll if exhaustive.is_none() => exhaustive = Some(ranked),
                    Op::Topk => {
                        let full = exhaustive
                            .as_ref()
                            .expect("rank_all precedes topk in a round");
                        let want: Ranked = full.iter().take(TOP_K).cloned().collect();
                        topk_mismatch += u64::from(!same_ranking(&ranked, &want));
                    }
                    _ => {}
                }
            }
        }
        // What a one-shot `lapush --data --query` pays: CSV directory to
        // first ranking, on a database nothing has touched yet.
        let (ms, ranked) = timed_ms(|| Op::Rank.run(&load_csv_dir(&inst.dir), &main_query));
        cold.push(ms);
        cold_bad += u64::from(Some(checksum(&ranked)) != first[0]);
        // The wire mix, two closed-loop clients.
        let replayed = replay(&mut inst, slice, timed);
        slice_rate.push(slice.len() as f64 / replayed.wall_s);
        wire.extend(replayed.samples);
        slice_cpu.push(cpu_seconds() - cpu_before);
    }
    let timed_s = timed.elapsed().as_secs_f64();
    let rounds = (plan.slices * plan.rounds_per_slice) as u64;
    report.ops(
        rounds,
        drift[0],
        "rank results differ from the first round's",
    );
    report.ops(
        rounds,
        drift[1],
        "rank_all results differ from the first round's",
    );
    report.ops(
        rounds,
        drift[2] + topk_mismatch,
        "topk results differ from the exhaustive ranking's first 10",
    );
    report.ops(
        cold.len() as u64,
        cold_bad,
        "cold rankings differ from the warm one",
    );
    let wire_bad = wire.iter().filter(|s| !s.ok).count() as u64;
    report.ops(
        wire.len() as u64,
        wire_bad,
        "wire requests failed or answered ERR",
    );
    let answers = exhaustive.as_ref().map_or(0, Vec::len);

    // Untimed: the server's final state against the harness's own copy of
    // the data, with the same ingests applied in the same order.
    for (rel, rows) in mix.iter().flatten().filter_map(|r| r.ingest.as_ref()) {
        apply_ingest(&mut inst.db, rel, rows);
    }
    let hot = inst.inputs.hot.clone();
    for text in &hot {
        let q = parse_query(text).expect("hot query parses");
        let want = render_answers(
            &rank_by_dissociation(&inst.db, &q, Op::Rank.options()).expect("evaluates"),
        );
        let got = inst.ask(&format!("QUERY {text}"));
        report.check(got == want, || {
            format!("after the mix, `{text}` differs from a fresh evaluation of the mirrored data")
        });
    }
    let q = parse_query(&main_query).expect("main query parses");
    let want =
        render_answers(&rank_by_dissociation(&inst.db, &q, Op::Topk.options()).expect("evaluates"));
    let got = inst.ask(&format!("TOPK {TOP_K} {main_query}"));
    report.check(got == want, || {
        "after the mix, TOPK differs from a fresh evaluation of the mirrored data".into()
    });
    let sent = inst.queries_sent;
    let stats = inst.ask("STATS");
    report.check(stat(&stats, "queries.served") == Some(sent), || {
        format!(
            "STATS queries.served={:?}, {sent} QUERY/TOPK requests sent",
            stat(&stats, "queries.served")
        )
    });
    let line = |key: &str| {
        stats
            .lines()
            .find(|l| l.starts_with(key))
            .unwrap_or("?")
            .to_string()
    };
    println!(
        "server: {} {} {}",
        line("kernels.path"),
        line("db.tuples"),
        line("answer_cache.len")
    );
    upper_bound_check(seed, &mut report);

    report.metric(
        "setup_s",
        median(&setup_s),
        "s",
        format!("median of {setup_s:.3?}"),
    );
    report.latency("rank_p10_ms", &mut lat[0]);
    report.latency("rank_all_p10_ms", &mut lat[1]);
    report.latency("topk_p10_ms", &mut lat[2]);
    report.latency("cold_rank_ms", &mut cold);
    // Per hot query the fastest hit, per target relation the median batch.
    report.keyed_latency("hit_min_ms", &keyed_ms(&wire, Class::Hit), |v| {
        summarize(v).min
    });
    report.keyed_latency("ingest_p50_ms", &keyed_ms(&wire, Class::Ingest), |v| {
        summarize(v).p50
    });
    // Slices do equal work, so the median slice stands for all of them: a
    // noise burst inflates a sum, not a median.
    report.metric(
        "mix_ops_per_s",
        median(&slice_rate),
        "1/s",
        format!("median slice of {}; {} requests", plan.slices, wire.len()),
    );
    let slices = plan.slices as f64;
    report.metric(
        "cpu_s",
        median(&slice_cpu) * slices,
        "s",
        format!(
            "{slices} x median slice; sum {:.2} s, wall {timed_s:.3} s",
            slice_cpu.iter().sum::<f64>()
        ),
    );
    report.metric("peak_rss_mb", peak_rss_mb(), "MB", "");
    report.check_names("end_to_end");

    println!("answers={answers}");
    for (label, class) in [
        ("rank (answer-cache miss)", Class::Miss),
        ("topk", Class::Topk),
    ] {
        let all = summarize(&mut class_ms(&wire, class)).note();
        println!("info: wire {label}: {all}");
    }
    report.print(spec.name);
    report.correct()
}

/// Corollary 19 on a side instance small enough for exact model counting:
/// every propagation score upper-bounds the answer's true probability.
fn upper_bound_check(seed: u64, report: &mut Report) {
    let (k, n) = (3, 60);
    let db = chain_db(k, n, find_chain_domain(k, n, 35.0), 1.0, seed).expect("chain_db");
    let q = chain_query(k);
    let rho = rank_by_dissociation(&db, &q, Op::RankAll.options()).expect("evaluates");
    let exact = exact_answers(&db, &q).expect("exact answers");
    report.check(rho.len() == exact.len() && !exact.is_empty(), || {
        "side instance: answer sets differ".into()
    });
    for (key, p) in &exact.rows {
        report.check(rho.score_of(key) >= p - 1e-12, || {
            format!("side instance: rho < P for answer {key:?}")
        });
    }
}
