//! Serving-layer benchmark: `lapush serve` under a concurrent client mix.
//!
//! Spins up an in-process [`Server`] over a 3-chain database, warms the
//! plan and answer caches with one pass over the query mix, then drives
//! `clients` concurrent connections issuing `reqs` requests each and
//! reports request latency (p50/p99), phase wall time, throughput, and
//! the cache hit-rate. Ends with one `INGEST` + re-query to exercise the
//! incremental delta merge that keeps cached answers fresh across
//! ingests (the `delta.*` counters).
//!
//! `cargo run --release -p lapush-bench --bin fig_serve -- --quick`
//!
//! The recorded results are designed to be **deterministic**: the warmup
//! pass fixes the cache miss counts (one answer miss per distinct query,
//! one plan miss per distinct shape), so the timed concurrent phase is
//! all cache hits no matter how client threads interleave — counters and
//! response checksums are identical at any `--threads` value, which the
//! `--threads 4` leg of the `diff` gate checks. Latencies and throughput
//! are printed, not recorded.
//!
//! The concurrent client drivers run as tasks of one engine scope
//! (`lapushdb::engine::pool`), sized by the *client* count — so the
//! recorded pool-counter deltas (`pool_scopes`, `pool_tasks`) are one
//! engaged scope and one task per client, independent of `--threads` and
//! of scheduling.

use lapush_bench::report::Metric;
use lapush_bench::{arg, checksum_strings, ms, print_table, scale, threads, time, Bench, Scale};
use lapush_serve::{stat, Client, Server, ServerConfig};
use lapushdb::engine::pool;
use lapushdb::workload::{chain_db, chain_query, find_chain_domain};
use std::time::Instant;

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let (clients, reqs, n) = match scale() {
        Scale::Quick => (4, 25, 200),
        Scale::Normal => (8, 100, 1_000),
        Scale::Full => (16, 250, 5_000),
    };
    let clients: usize = arg("clients")
        .and_then(|s| s.parse().ok())
        .unwrap_or(clients);
    let reqs: usize = arg("reqs").and_then(|s| s.parse().ok()).unwrap_or(reqs);

    let mut bench = Bench::new("fig_serve");
    bench.param("clients", clients);
    bench.param("reqs_per_client", reqs);
    bench.param("n", n);

    // The query mix: three distinct shapes over the 3-chain database plus
    // two constant-selection queries sharing one shape — so the warmup
    // pass produces exactly 5 answer-cache misses, 4 plan-cache misses,
    // and 1 plan-cache hit (the second constant query reuses the first
    // one's plan: enumeration depends only on the query's shape).
    let queries: Vec<String> = vec![
        chain_query(3).display(),
        chain_query(2).display(),
        "q :- R1(x, y), R2(y, z)".into(),
        "q(y) :- R1(7, y)".into(),
        "q(y) :- R1(8, y)".into(),
    ];

    let domain = find_chain_domain(3, n, 35.0);
    let db = chain_db(3, n, domain, 1.0, 7 + n as u64).expect("chain db");
    println!(
        "database: 3-chain, {n} tuples/table, domain {domain}; {clients} clients × {reqs} requests"
    );

    let config = ServerConfig {
        threads: threads(),
        ..ServerConfig::default()
    };
    let handle = Server::bind_with_db(db, config)
        .expect("bind")
        .spawn()
        .expect("spawn");
    let addr = handle.addr();

    // Warmup: one sequential pass populates both caches and pins down
    // every recorded counter. Responses are checksummed — a changed answer
    // (not just changed cache behavior) changes the file.
    let mut warm = Client::connect(addr).expect("connect");
    let warm_responses: Vec<String> = queries
        .iter()
        .map(|q| warm.request(&format!("QUERY {q}")).expect("warmup query"))
        .collect();
    for (q, resp) in queries.iter().zip(&warm_responses) {
        assert!(resp.starts_with("OK "), "warmup `{q}` failed: {resp}");
    }
    bench.push(
        Metric::value("warmup_queries", queries.len() as f64)
            .with_checksum(checksum_strings(&warm_responses)),
    );

    // Timed concurrent phase: every request is an answer-cache hit, so
    // this measures the steady-state serving path (framing + lookup +
    // render) rather than plan enumeration or evaluation. The drivers are
    // pool tasks (one per client); the server does no evaluation in this
    // phase, so the pool-counter deltas around it are exactly the
    // driver's own scope.
    let pool_before = pool::counters();
    let (mut latencies, phase_wall) = time(|| {
        let tasks: Vec<_> = (0..clients)
            .map(|c| {
                let queries = &queries;
                move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut lat = Vec::with_capacity(reqs);
                    for r in 0..reqs {
                        let q = &queries[(c + r) % queries.len()];
                        let t0 = Instant::now();
                        let resp = client.request(&format!("QUERY {q}")).expect("query");
                        lat.push(ms(t0.elapsed()));
                        debug_assert!(resp.starts_with("OK "), "{resp}");
                    }
                    lat
                }
            })
            .collect();
        pool::run_scope(clients, tasks)
            .into_iter()
            .flatten()
            .collect::<Vec<f64>>()
    });
    let pool_after = pool::counters();
    latencies.sort_by(|a, b| a.total_cmp(b));
    let total = clients * reqs;
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    let throughput = total as f64 / phase_wall.as_secs_f64();

    // Ingest epilogue: grow R1, re-ask the 3-chain query. The server
    // merges the appended tuple into every cached answer in place (the
    // value `domain + 1` is outside the generated `1..=domain` range, so
    // it joins nothing and every merge is a no-op delta), re-stamping the
    // entries fresh — the re-query is an answer-cache *hit*, not an
    // invalidation.
    let outside = domain + 1;
    let ingest = warm
        .request(&format!("INGEST R1\n{outside},{outside},0.5"))
        .expect("ingest");
    assert!(ingest.starts_with("OK ingested 1 "), "{ingest}");
    let requery = warm
        .request(&format!("QUERY {}", queries[0]))
        .expect("requery");
    assert!(requery.starts_with("OK "), "{requery}");

    // Record the cache counters: they are fully determined by the
    // request history above, independent of timing and thread count.
    let stats = warm.request("STATS").expect("stats");
    let counter = |key: &str| stat(&stats, key).unwrap_or_else(|| panic!("missing stat {key}"));
    let served = counter("queries.served");
    let answer_hits = counter("answer_cache.hits");
    assert_eq!(served as usize, queries.len() + total + 1);
    // The post-ingest re-query hits: its entry was delta-merged in place.
    assert_eq!(answer_hits as usize, total + 1);
    assert_eq!(counter("answer_cache.invalidations"), 0);
    // One ingest × five cached answers, all absorbed without changing an
    // answer row and without falling back to re-evaluation.
    assert_eq!(counter("delta.batches") as usize, queries.len());
    assert_eq!(counter("delta.rows"), 0);
    assert_eq!(counter("delta.fallbacks"), 0);
    for key in [
        "queries.served",
        "plan_cache.hits",
        "plan_cache.misses",
        "answer_cache.hits",
        "answer_cache.misses",
        "answer_cache.invalidations",
        "delta.batches",
        "delta.rows",
        "delta.fallbacks",
    ] {
        bench.push(Metric::value(key.replace('.', "_"), counter(key) as f64));
    }
    let hit_rate = answer_hits as f64 / served as f64;

    // Record the execution-pool counters, as deltas around the
    // concurrent phase: the drivers submit one pool scope of one task per
    // client, and the all-hits server does no evaluation — so the deltas
    // are workload-determined, identical at every `--threads` value.
    let pool_scopes = pool_after.scopes - pool_before.scopes;
    let pool_tasks = pool_after.tasks - pool_before.tasks;
    // A single client takes `run_scope`'s serial fast path: no engagement.
    let (want_scopes, want_tasks) = if clients >= 2 { (1, clients) } else { (0, 0) };
    assert_eq!(pool_scopes, want_scopes, "unexpected pool engagement");
    assert_eq!(pool_tasks as usize, want_tasks);
    bench.push(Metric::value("pool_scopes", pool_scopes as f64));
    bench.push(Metric::value("pool_tasks", pool_tasks as f64));

    print_table(
        "lapush serve: concurrent client mix",
        &[
            "clients",
            "requests",
            "p50 (ms)",
            "p99 (ms)",
            "req/s",
            "answer hit-rate",
        ],
        &[vec![
            clients.to_string(),
            total.to_string(),
            format!("{p50:.3}"),
            format!("{p99:.3}"),
            format!("{throughput:.0}"),
            format!("{hit_rate:.3}"),
        ]],
    );
    println!("\nExpected shape: the warmed concurrent phase is 100% answer-cache");
    println!("hits, so p50 tracks wire+lookup overhead (well under evaluation");
    println!("cost) and counters are bit-for-bit reproducible at any --threads.");

    drop(warm);
    handle.shutdown();
    bench.finish();
}
