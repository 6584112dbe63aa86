//! Integration tests for `lapush serve`: concurrent clients get answers
//! bit-identical to direct `Database` evaluation, repeated queries hit
//! the caches, and ingest between repeated queries merges the appended
//! tuples into the cached answers in place (the `delta.*` counters) —
//! including while other clients are querying concurrently, and on a cold
//! server whose connections build the database's base views and draw on
//! the execution pool all at once.

use lapushdb::engine::pool;
use lapushdb::prelude::*;
use lapushdb::serve::{render_answers, stat, Client, Server, ServerConfig};
use lapushdb::workload::chain_db;
use lapushdb::{rank_by_dissociation, RankOptions};
use std::sync::{mpsc, Barrier};
use std::time::Duration;

/// The RST database of the crate docs, slightly enlarged so the #P-hard
/// 3-chain query has several answers.
fn rst_db() -> Database {
    let mut db = Database::new();
    let r = db.create_relation("R", 1).unwrap();
    let s = db.create_relation("S", 2).unwrap();
    let t = db.create_relation("T", 1).unwrap();
    for x in 1..=4i64 {
        db.relation_mut(r)
            .push(Box::new([Value::Int(x)]), 0.3 + 0.1 * x as f64)
            .unwrap();
        db.relation_mut(t)
            .push(Box::new([Value::Int(x)]), 0.9 - 0.1 * x as f64)
            .unwrap();
    }
    for (x, y) in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4), (4, 1)] {
        db.relation_mut(s)
            .push(Box::new([Value::Int(x), Value::Int(y)]), 0.5)
            .unwrap();
    }
    db
}

/// What the server must answer for `q`: the propagation score under
/// Optimizations 1+2 (the server's evaluation mode), rendered through the
/// same wire formatter. Scores print with shortest-round-trip `f64`
/// formatting, so string equality is bit-for-bit float equality.
fn expected_response(db: &Database, query: &str) -> String {
    let q = parse_query(query).unwrap();
    let ans = rank_by_dissociation(db, &q, RankOptions::default()).unwrap();
    render_answers(&ans)
}

#[test]
fn concurrent_clients_get_bit_identical_answers_and_cache_hits() {
    let db = rst_db();
    let handle = Server::bind_with_db(db.clone(), ServerConfig::default())
        .unwrap()
        .spawn()
        .unwrap();
    let addr = handle.addr();

    let queries = [
        "q(x) :- R(x), S(x, y), T(y)",
        "q :- R(x), S(x, y), T(y)",
        "q(y) :- S(2, y), T(y)",
    ];
    let expected: Vec<String> = queries.iter().map(|q| expected_response(&db, q)).collect();

    const CLIENTS: usize = 4;
    const ROUNDS: usize = 8;
    let tasks: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let expected = &expected;
            move || {
                let mut client = Client::connect(addr).unwrap();
                for round in 0..ROUNDS {
                    // Overlapping repeated queries: every client cycles
                    // through all of them, phase-shifted per client.
                    let i = (c + round) % queries.len();
                    let got = client.request(&format!("QUERY {}", queries[i])).unwrap();
                    assert_eq!(got, expected[i], "client {c} round {round}");
                }
            }
        })
        .collect();
    pool::run_scope(CLIENTS, tasks);

    let mut client = Client::connect(addr).unwrap();
    let stats = client.request("STATS").unwrap();
    assert!(stats.starts_with("OK stats"));
    let served = stat(&stats, "queries.served").unwrap();
    assert_eq!(served as usize, CLIENTS * ROUNDS);
    // 32 requests over 3 distinct queries: almost all are answer-cache
    // hits (a race on a cold key can at most recompute once per client).
    let hits = stat(&stats, "answer_cache.hits").unwrap();
    assert!(
        hits as usize >= CLIENTS * ROUNDS - CLIENTS * queries.len(),
        "expected overwhelmingly cache-hit traffic, got {hits} hits of {served}"
    );
    assert!(stat(&stats, "answer_cache.invalidations") == Some(0));
    // The plan cache is consulted only on answer misses; the two 3-chain
    // queries share relations but differ in head, so shapes are distinct.
    assert!(stat(&stats, "plan_cache.misses").unwrap() <= queries.len() as u64);
    assert_eq!(stat(&stats, "proto.version"), Some(1));
    // Pool counters are process-global (this very test's client drivers
    // engaged the pool), so only conservation is asserted, not values.
    let pool_tasks = stat(&stats, "pool.tasks").expect("STATS reports pool.tasks");
    let pool_scopes = stat(&stats, "pool.scopes").expect("STATS reports pool.scopes");
    assert!(pool_scopes >= 1 && pool_tasks >= CLIENTS as u64);
    handle.shutdown();
}

#[test]
fn ingest_between_repeated_queries_merges_deltas_in_place() {
    let db = rst_db();
    let handle = Server::bind_with_db(db.clone(), ServerConfig::default())
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let query = "QUERY q(x) :- R(x), S(x, y), T(y)";
    let before = client.request(query).unwrap();
    assert_eq!(
        before,
        expected_response(&db, "q(x) :- R(x), S(x, y), T(y)")
    );
    // Repeat: answer-cache hit, same bytes.
    assert_eq!(client.request(query).unwrap(), before);

    // Ingest must change the answers (a fresh x=5 chain with p=1 tuples
    // scores 0.5 through S and outranks every existing answer). Each
    // append is merged into the cached answer in place: the first two
    // complete no new chain (Unchanged, so the stored response stays),
    // the T tuple finishes one (Updated, so the next hit renders anew).
    // A query after every ingest must read the mirrored database.
    let mut grown = db.clone();
    let mut after = String::new();
    for (name, rel, row, p) in [
        ("R", 0, vec![5], 1.0),
        ("S", 1, vec![5, 5], 0.5),
        ("T", 2, vec![5], 1.0),
    ] {
        let csv: Vec<String> = row.iter().map(ToString::to_string).collect();
        let resp = client
            .request(&format!("INGEST {name}\n{},{p:?}", csv.join(",")))
            .unwrap();
        let row = row.into_iter().map(Value::Int).collect();
        grown.relation_mut(rel).push(row, p).unwrap();
        assert_eq!(
            resp,
            format!(
                "OK ingested 1 tuples into {name} (total {})",
                grown.relation(rel).len()
            )
        );
        after = client.request(query).unwrap();
        assert_eq!(
            after,
            expected_response(&grown, "q(x) :- R(x), S(x, y), T(y)"),
            "after INGEST {name}"
        );
    }
    assert_ne!(after, before, "ingest must update the cached answer");

    let stats = client.request("STATS").unwrap();
    // Nothing was invalidated: all three ingests were absorbed by the
    // delta path, so every post-ingest query was an answer-cache *hit*
    // (4 hits total with the earlier repeat) and the plan cache was never
    // consulted again.
    assert_eq!(stat(&stats, "answer_cache.invalidations"), Some(0));
    assert_eq!(stat(&stats, "answer_cache.hits"), Some(4));
    assert_eq!(stat(&stats, "answer_cache.misses"), Some(1));
    assert_eq!(stat(&stats, "plan_cache.misses"), Some(1));
    assert_eq!(stat(&stats, "plan_cache.hits"), Some(0));
    // One batch per ingest × one cached entry; only the chain-completing
    // T tuple changed an answer row (the new x=5 answer).
    assert_eq!(stat(&stats, "delta.batches"), Some(3));
    assert_eq!(stat(&stats, "delta.rows"), Some(1));
    assert_eq!(stat(&stats, "delta.fallbacks"), Some(0));
    handle.shutdown();
}

#[test]
fn streamed_ingest_keeps_concurrent_queries_fresh() {
    let db = rst_db();
    let handle = Server::bind_with_db(db.clone(), ServerConfig::default())
        .unwrap()
        .spawn()
        .unwrap();
    let addr = handle.addr();

    // Warm all three entries serially so every subsequent ingest merges
    // into exactly this cached set — the delta counters below depend only
    // on the request *history*, not on how the threads interleave.
    let queries = [
        "q(x) :- R(x), S(x, y), T(y)",
        "q :- R(x), S(x, y), T(y)",
        "q(y) :- S(2, y), T(y)",
    ];
    let mut warm = Client::connect(addr).unwrap();
    for q in &queries {
        assert!(warm
            .request(&format!("QUERY {q}"))
            .unwrap()
            .starts_with("OK "));
    }

    // One ingester streams six complete x=5..=10 chains, one relation at
    // a time, while three clients keep querying. Appends never raise an
    // existing probability, so no entry ever falls back: the cache stays
    // populated and every concurrent query is a hit against an answer
    // merged up to some prefix of the stream.
    const CHAINS: i64 = 6;
    const ROUNDS: usize = 12;
    let mut tasks: Vec<Box<dyn FnOnce() + Send>> = vec![Box::new(move || {
        let mut ingester = Client::connect(addr).unwrap();
        for i in 5..5 + CHAINS {
            for body in [
                format!("INGEST R\n{i},0.9"),
                format!("INGEST S\n{i},{i},0.5"),
                format!("INGEST T\n{i},0.8"),
            ] {
                let resp = ingester.request(&body).unwrap();
                assert!(resp.starts_with("OK ingested 1 "), "{resp}");
            }
        }
    })];
    for c in 0..3usize {
        tasks.push(Box::new(move || {
            let mut client = Client::connect(addr).unwrap();
            for round in 0..ROUNDS {
                let q = queries[(c + round) % queries.len()];
                let resp = client.request(&format!("QUERY {q}")).unwrap();
                assert!(resp.starts_with("OK "), "client {c} round {round}: {resp}");
            }
        }));
    }
    pool::run_scope(tasks.len(), tasks);

    // After the stream drains, the cached answers must equal evaluating
    // the fully-grown database from scratch — bit for bit.
    let mut grown = db.clone();
    for i in 5..5 + CHAINS {
        grown
            .relation_mut(0)
            .push(Box::new([Value::Int(i)]), 0.9)
            .unwrap();
        grown
            .relation_mut(1)
            .push(Box::new([Value::Int(i), Value::Int(i)]), 0.5)
            .unwrap();
        grown
            .relation_mut(2)
            .push(Box::new([Value::Int(i)]), 0.8)
            .unwrap();
    }
    for q in &queries {
        let got = warm.request(&format!("QUERY {q}")).unwrap();
        assert_eq!(got, expected_response(&grown, q), "query `{q}`");
    }

    let stats = warm.request("STATS").unwrap();
    // The warmup fixed the cache at three entries and in-place merging
    // kept all of them fresh, so the only misses ever taken are the three
    // warmup ones — even though 18 ingests landed mid-traffic.
    assert_eq!(stat(&stats, "answer_cache.misses"), Some(3));
    assert_eq!(stat(&stats, "answer_cache.invalidations"), Some(0));
    assert_eq!(stat(&stats, "delta.fallbacks"), Some(0));
    // 18 ingests × 3 cached entries. Per chain, only the T append
    // completes new answers: one re-scored row for `q(x)` and one for the
    // boolean query (`q(y) :- S(2, y), T(y)` never joins x ≥ 5), so the
    // stream changes 2 rows per chain.
    assert_eq!(stat(&stats, "delta.batches"), Some(3 * 3 * CHAINS as u64));
    assert_eq!(stat(&stats, "delta.rows"), Some(2 * CHAINS as u64));
    handle.shutdown();
}

#[test]
fn topk_matches_query_prefix_and_falls_back_on_ingest() {
    let db = rst_db();
    let handle = Server::bind_with_db(db, ServerConfig::default())
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // `q(z) :- U(z, x), S(x, y), T(y)` stays unsafe with the head var on
    // U (the existential x/y pattern still crosses S), so the top-k
    // driver has a real multi-plan set to prune against. U's z=2 group
    // hangs off a p=0.2 tuple, far below z=1's best derivation. `TOPK`
    // ranks by multi-plan ρ and `QUERY` by the single Opt12 plan; on this
    // shape the two scores coincide, which is what makes `TOPK` a prefix
    // of `QUERY` here — on some shapes the single plan scores below ρ.
    assert!(client
        .request("INGEST U\n1,1,0.9\n2,1,0.2")
        .unwrap()
        .starts_with("OK "));
    let q = "q(z) :- U(z, x), S(x, y), T(y)";
    let full = client.request(&format!("QUERY {q}")).unwrap();
    let top = client.request(&format!("TOPK 1 {q}")).unwrap();
    let first = full.lines().nth(1).unwrap();
    assert_eq!(top, format!("OK 1 answers\n{first}"));

    // Repeat: served from the answer cache, byte-identical.
    assert_eq!(client.request(&format!("TOPK 1 {q}")).unwrap(), top);
    let stats = client.request("STATS").unwrap();
    assert!(stat(&stats, "topk.evaluated").unwrap() >= 1);
    assert!(
        stat(&stats, "topk.pruned").unwrap() >= 1,
        "the weak z=2 group must be pruned"
    );
    assert!(stat(&stats, "answer_cache.hits").unwrap() >= 1);

    // Growth drops the stateless TOPK entry — recorded as a fallback —
    // and the next TOPK re-evaluates against the grown database.
    assert!(client
        .request("INGEST T\n9,0.1")
        .unwrap()
        .starts_with("OK "));
    let stats = client.request("STATS").unwrap();
    assert!(
        stat(&stats, "delta.fallbacks").unwrap() >= 1,
        "stateless TOPK entry must fall back on ingest"
    );
    let full = client.request(&format!("QUERY {q}")).unwrap();
    let top = client.request(&format!("TOPK 1 {q}")).unwrap();
    let first = full.lines().nth(1).unwrap();
    assert_eq!(top, format!("OK 1 answers\n{first}"));
    handle.shutdown();
}

/// The order tuples arrive in is invisible on the wire: two servers that
/// receive the same tuples by `INGEST`, in opposite orders and in several
/// batches, answer `QUERY` and `TOPK` with the same bytes — those of a
/// database loaded in one go. The 3-chain has projection groups of three
/// and more operands, and the two servers meet its values in opposite
/// orders, so they number them differently. The queries are asked before,
/// between and after the batches: the cached `QUERY` entries absorb every
/// batch through the delta path. Responses print the shortest float that
/// round-trips, so one ulp shows.
#[test]
fn ingest_order_does_not_change_response_bytes() {
    let loaded = chain_db(3, 320, 45, 1.0, 41).unwrap();
    let queries = [
        "q(x0, x3) :- R1(x0, x1), R2(x1, x2), R3(x2, x3)",
        "q(x0) :- R1(x0, x1), R2(x1, x2), R3(x2, x3)",
    ];
    // Four batches per relation, taken round-robin over the relations.
    let lines = |name: &str| -> Vec<String> {
        let rel = loaded.relation_by_name(name).unwrap();
        (rel.iter())
            .map(|(_, row, p)| format!("{},{},{p}", row[0], row[1]))
            .collect()
    };
    let per_relation: Vec<(&str, Vec<String>)> =
        ["R1", "R2", "R3"].map(|name| (name, lines(name))).into();
    let mut batches: Vec<(&str, Vec<String>)> = Vec::new();
    for chunk in 0..4 {
        for (name, rows) in &per_relation {
            batches.push((name, rows[chunk * 80..(chunk + 1) * 80].to_vec()));
        }
    }
    let reversed: Vec<(&str, Vec<String>)> = (batches.iter().rev())
        .map(|(name, rows)| (*name, rows.iter().rev().cloned().collect()))
        .collect();

    let ask = |client: &mut Client| -> Vec<String> {
        (queries.iter())
            .flat_map(|q| [format!("QUERY {q}"), format!("TOPK 10 {q}")])
            .map(|request| client.request(&request).unwrap())
            .collect()
    };
    for threads in [1, 4] {
        let serve = |batches: &[(&str, Vec<String>)]| -> Vec<String> {
            let mut empty = Database::new();
            for name in ["R1", "R2", "R3"] {
                empty.create_relation(name, 2).unwrap();
            }
            let config = ServerConfig {
                threads,
                ..ServerConfig::default()
            };
            let handle = Server::bind_with_db(empty, config)
                .unwrap()
                .spawn()
                .unwrap();
            let mut client = Client::connect(handle.addr()).unwrap();
            ask(&mut client);
            for (i, (name, rows)) in batches.iter().enumerate() {
                let resp = client.request(&format!("INGEST {name}\n{}", rows.join("\n")));
                assert!(resp.unwrap().starts_with("OK ingested 80 "));
                if i % 4 == 3 {
                    ask(&mut client);
                }
            }
            let answers = ask(&mut client);
            let stats = client.request("STATS").unwrap();
            assert!(stat(&stats, "delta.rows").unwrap() > 0, "{stats}");
            handle.shutdown();
            answers
        };
        let (forward, backward) = (serve(&batches), serve(&reversed));
        for (i, (a, b)) in forward.iter().zip(&backward).enumerate() {
            let first = a.lines().zip(b.lines()).find(|(x, y)| x != y);
            assert!(a == b, "threads {threads}, response {i}: {first:?}");
        }
        for (q, got) in queries.iter().zip(forward.iter().step_by(2)) {
            assert_eq!(
                *got,
                expected_response(&loaded, q),
                "threads {threads}: `{q}`"
            );
        }
    }
}

#[test]
fn cold_parallel_server_stays_live_and_exact_under_mixed_traffic() {
    // 9 000 rows per relation: above the engine's morsel threshold, so at
    // `threads: 4` the scans, sorts and projections of every connection
    // run as tasks on the one shared pool — whose waiting submitters execute each
    // other's tasks — while the same connections build, extend and join
    // through the database's base views, which are shared too. Nothing in
    // there may wait for the pool while holding a view's lock; a hard
    // timeout turns a deadlock into a failure.
    const ROWS: usize = 9000;
    const DOMAIN: i64 = 6000;
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 3;
    let mut db = chain_db(3, ROWS, DOMAIN, 1.0, 7).unwrap();
    // Scores are folded in value-id order and ids are handed out on first
    // sight, which on a cold server depends on whose first query wins the
    // race. A dictionary relation scanned up front numbers every value —
    // ingested rows bring no new ones — before the server gets its copy, so
    // server and mirror owe each other equal bits however they interleave.
    let dict = db.create_relation("Dict", 1).unwrap();
    for value in 1..=DOMAIN {
        db.relation_mut(dict)
            .push(Box::new([Value::Int(value)]), 1.0)
            .unwrap();
    }
    assert!(expected_response(&db, "q(v) :- Dict(v)").starts_with("OK 6000 answers"));
    let main = "q(x0, x3) :- R1(x0, x1), R2(x1, x2), R3(x2, x3)";
    let queries = [
        "q(x0) :- R1(x0, x1), R2(x1, x2), R3(x2, x3)",
        "q(x1) :- R2(x1, x2), R3(x2, x3)",
        "q(x3) :- R1(17, x1), R2(x1, x2), R3(x2, x3)",
    ];
    // Every ingested row is new and in-domain: appends only, so no cached
    // entry ever falls back and the final state is order-independent.
    type Batch = (String, Vec<(i64, i64)>);
    let batch = |client: usize, round: usize| -> Batch {
        let name = format!("R{}", 1 + (client + round) % 3);
        let rel = db.relation_by_name(&name).unwrap();
        let fresh = |&(u, v): &(i64, i64)| rel.find(&[Value::Int(u), Value::Int(v)]).is_none();
        let first = (1 + 97 * client + 389 * round) as i64;
        let rows: Vec<(i64, i64)> = (0..40)
            .map(|i| {
                (
                    1 + (first + 31 * i) % DOMAIN,
                    1 + (first * 7 + 53 * i) % DOMAIN,
                )
            })
            .filter(fresh)
            .take(5)
            .collect();
        assert_eq!(rows.len(), 5);
        (name, rows)
    };
    let batches: Vec<Vec<Batch>> = (0..CLIENTS)
        .map(|c| (0..ROUNDS).map(|round| batch(c, round)).collect())
        .collect();

    let handle = Server::bind_with_db(
        db.clone(),
        ServerConfig {
            threads: 4,
            ..ServerConfig::default()
        },
    )
    .unwrap()
    .spawn()
    .unwrap();
    let addr = handle.addr();

    let (done, finished) = mpsc::channel();
    let sent = batches.clone();
    let traffic = std::thread::spawn(move || {
        // All four connections send their first — cold — request together.
        let start = Barrier::new(CLIENTS);
        std::thread::scope(|scope| {
            for (c, batches) in sent.iter().enumerate() {
                let start = &start;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    start.wait();
                    for (round, (name, rows)) in batches.iter().enumerate() {
                        let q = queries[(c + round) % queries.len()];
                        let resp = client.request(&format!("QUERY {q}")).unwrap();
                        assert!(resp.starts_with("OK "), "client {c} round {round}: {resp}");
                        let resp = client.request(&format!("TOPK 5 {main}")).unwrap();
                        assert!(resp.starts_with("OK 5 answers"), "client {c}: {resp}");
                        let body: Vec<String> =
                            rows.iter().map(|(u, v)| format!("{u},{v},0.5")).collect();
                        let resp = client
                            .request(&format!("INGEST {name}\n{}", body.join("\n")))
                            .unwrap();
                        assert!(resp.starts_with("OK ingested 5 "), "client {c}: {resp}");
                    }
                });
            }
        });
        done.send(()).ok();
    });
    if finished.recv_timeout(Duration::from_secs(240)).is_err() {
        panic!("the server stopped answering: {CLIENTS} connections at threads = 4 did not finish");
    }
    traffic.join().unwrap();

    // The mirror: the same rows appended to a database no server touched.
    let mut grown = db.clone();
    for (name, rows) in batches.iter().flatten() {
        for &(u, v) in rows {
            grown
                .relation_by_name_mut(name)
                .unwrap()
                .push(Box::new([Value::Int(u), Value::Int(v)]), 0.5)
                .unwrap();
        }
    }
    let mut client = Client::connect(addr).unwrap();
    for q in queries.iter().chain([&main]) {
        let got = client.request(&format!("QUERY {q}")).unwrap();
        assert_eq!(got, expected_response(&grown, q), "query `{q}`");
    }
    let full = expected_response(&grown, main);
    let top: Vec<&str> = full.lines().skip(1).take(5).collect();
    assert_eq!(
        client.request(&format!("TOPK 5 {main}")).unwrap(),
        format!("OK 5 answers\n{}", top.join("\n"))
    );
    let stats = client.request("STATS").unwrap();
    assert_eq!(stat(&stats, "delta.fallbacks").map(|f| f > 0), Some(true));
    assert_eq!(stat(&stats, "answer_cache.invalidations"), Some(0));
    // One view per relation plus the dictionary's, which came with the
    // copy; whoever raced to build one, it was published once per state.
    assert_eq!(stat(&stats, "base_views.resident"), Some(4));
    assert_eq!(stat(&stats, "base_views.built"), Some(1 + 3));
    let extended = stat(&stats, "base_views.extended").unwrap();
    assert!(
        (3..=(CLIENTS * ROUNDS) as u64).contains(&extended),
        "{extended}"
    );
    handle.shutdown();
}

/// `STATS` minus the execution-pool counters, which are process-wide and
/// move with whatever the other tests of this binary are doing.
fn own_stats(client: &mut Client) -> String {
    let stats = client.request("STATS").unwrap();
    let own: Vec<&str> = stats.lines().filter(|l| !l.starts_with("pool.")).collect();
    own.join("\n")
}

#[test]
fn rejected_ingest_mutates_nothing() {
    // D is deterministic, so a batch holding an uncertain tuple must be
    // refused — as a whole, although its first two rows are acceptable.
    let mut db = rst_db();
    let d = db.create_deterministic("D", 1).unwrap();
    for x in 1..=2i64 {
        db.relation_mut(d)
            .push_certain(Box::new([Value::Int(x)]))
            .unwrap();
    }
    let handle = Server::bind_with_db(db, ServerConfig::default())
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Cache one QUERY and one TOPK whose answers the batch's acceptable
    // rows (x = 3, 4 complete chains through S and T) would change.
    let requests = [
        "QUERY q(x) :- D(x), S(x, y), T(y)",
        "TOPK 1 q(x) :- D(x), S(x, y), T(y)",
    ];
    let cached: Vec<String> = requests
        .iter()
        .map(|r| client.request(r).unwrap())
        .collect();
    assert_eq!(cached[0].lines().next(), Some("OK 2 answers"));
    let before = own_stats(&mut client);

    let err = client.request("INGEST D\n3,1.0\n4,1.0\n5,0.5").unwrap();
    assert!(err.starts_with("ERR INGEST "), "{err}");
    assert!(err.contains("deterministic"), "{err}");
    assert_eq!(
        own_stats(&mut client),
        before,
        "a rejected batch left a trace"
    );

    // Both entries are still fresh: same bytes, served as cache hits.
    for (request, want) in requests.iter().zip(&cached) {
        assert_eq!(&client.request(request).unwrap(), want, "{request}");
    }
    let after = client.request("STATS").unwrap();
    assert_eq!(stat(&after, "answer_cache.invalidations"), Some(0));
    assert_eq!(
        stat(&after, "answer_cache.hits"),
        Some(stat(&before, "answer_cache.hits").unwrap() + 2)
    );
    assert_eq!(stat(&after, "delta.batches"), Some(0));

    // The same rows without the offending one are accepted.
    assert_eq!(
        client.request("INGEST D\n3,1.0\n4,1.0").unwrap(),
        "OK ingested 2 tuples into D (total 4)"
    );
    let grown = client.request(requests[0]).unwrap();
    assert_eq!(grown.lines().next(), Some("OK 4 answers"));
    handle.shutdown();
}

#[test]
fn protocol_errors_and_new_relations() {
    let handle = Server::bind(ServerConfig::default())
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    assert_eq!(client.request("PING").unwrap(), "OK pong");
    let err = client.request("NOSUCH").unwrap();
    assert!(err.starts_with("ERR BADCMD "), "{err}");
    let err = client.request("QUERY q(x :-").unwrap();
    assert!(err.starts_with("ERR PARSE "), "{err}");
    let err = client.request("QUERY q(x) :- Missing(x)").unwrap();
    assert!(err.starts_with("ERR EXEC "), "{err}");
    let err = client.request("INGEST R\n1,notaprob").unwrap();
    assert!(err.starts_with("ERR INGEST "), "{err}");

    // INGEST creates relations on first use; arity mismatches are refused.
    assert_eq!(
        client.request("INGEST R\n1,0.5\n2,0.25").unwrap(),
        "OK ingested 2 tuples into R (total 2)"
    );
    let err = client.request("INGEST R\n1,2,0.5").unwrap();
    assert!(err.starts_with("ERR INGEST arity mismatch"), "{err}");

    let ans = client.request("QUERY q(x) :- R(x)").unwrap();
    assert_eq!(ans, "OK 2 answers\n1\t0.5\n2\t0.25");

    assert_eq!(client.request("QUIT").unwrap(), "OK bye");
    handle.shutdown();
}
