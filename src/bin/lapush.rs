//! `lapush` — command-line probabilistic query evaluation.
//!
//! Load a directory of CSV relations (file stem = relation name, last
//! column = tuple probability) and evaluate a conjunctive query with the
//! method of your choice:
//!
//! ```console
//! $ lapush --data ./facts --query 'q(d) :- Directed(d, m), Starred(m, a)' \
//!          --method diss
//! ```
//!
//! Methods: `diss` (propagation score, default), `bounds` (sandwich
//! `[low, ρ]` interval, both ends from one evaluation of the plan set;
//! `low` is the best single derivation's probability), `exact` (WMC
//! oracle), `mc` (Monte Carlo, with `--samples`), `sql` (deterministic
//! answers), `plans` (print plans only). An unknown method, or a flag the
//! method does not read (`--top-k` outside `diss`, `--samples` and
//! `--threads` outside `mc`), is refused before anything is loaded.
//!
//! `--top-k N` (with `--method diss`) ranks only the `N` best answers
//! through the engine's anytime top-k driver: after one bounds pass over
//! the cheapest plan, answer groups that provably cannot reach the k-th
//! best lower bound are pruned before the remaining plans are evaluated.
//! The printed answers are bit-identical to the first `N` lines of the
//! exhaustive multi-plan ranking (`OptLevel::MultiPlan`, ρ) — which is not
//! always the prefix of plain `--method diss`: that ranks with the single
//! Opt12 plan, which can score below ρ (ROADMAP.md, item 15).
//!
//! `--threads N` (with `--method mc`, default 1) samples the answers as
//! parallel tasks; the estimates are bit-identical at every thread count.
//! Every other method evaluates on the calling thread.
//!
//! The `bench` subcommand runs the whole experiment suite of the
//! `lapush-bench` crate and writes one `BENCH_<target>.json` result file
//! per experiment — the same bytes on every run and at every `--threads`
//! (which reaches only the suite's Monte Carlo runs):
//!
//! ```console
//! $ lapush bench --quick --out bench-out [--threads N]
//! $ diff -r --exclude=README.md bench-out benches/baselines
//! ```
//!
//! The `serve` subcommand runs the always-on query service (wire
//! protocol in `docs/PROTOCOL.md`, operations guide in
//! `docs/OPERATIONS.md`), and `client` drives one scripted session
//! against it (requests read from stdin, blank-line separated):
//!
//! ```console
//! $ lapush serve --data ./facts --bind 127.0.0.1:7878 &
//! $ lapush client --addr 127.0.0.1:7878 < session.txt
//! ```
//!
//! `ingest` appends CSV rows from stdin to a served relation; with
//! `--stream` rows are sent in `--batch`-sized chunks as they arrive,
//! and the server merges each batch into its cached answers in place:
//!
//! ```console
//! $ tail -f rows.csv | lapush ingest --addr 127.0.0.1:7878 \
//!       --relation R --stream --batch 50
//! ```

#![forbid(unsafe_code)]

use lapushdb::prelude::*;
use lapushdb::serve::{render_key, Client, Server, ServerConfig};
use lapushdb::storage::{database_from_dir, CsvOptions};
use lapushdb::{
    benchsuite, bound_answers, exact_answers, mc_answers, rank_by_dissociation, RankOptions,
};

fn arg(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let flag = format!("--{name}");
    args.iter()
        .position(|a| a == &flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Whether the valueless switch `--name` was given, at any position.
fn flag(name: &str) -> bool {
    let flag = format!("--{name}");
    std::env::args().any(|a| a == flag)
}

/// The positive integer after `--name`, if the flag is given at all.
fn positive<T: std::str::FromStr + PartialOrd + From<u8>>(name: &str) -> Result<Option<T>, String> {
    if !flag(name) {
        return Ok(None);
    }
    (arg(name).and_then(|v| v.parse().ok()))
        .filter(|n| *n >= T::from(1))
        .map(Some)
        .ok_or_else(|| format!("--{name} needs a positive integer"))
}

/// Refuse `--name` unless `--method owner` runs, instead of dropping it.
fn only_for_method(name: &str, owner: &str, method: &str) -> Result<(), String> {
    match flag(name) && method != owner {
        true => Err(format!("--{name} only applies to --method {owner}")),
        false => Ok(()),
    }
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("bench") => std::process::exit(run_bench()),
        Some("serve") => {
            if let Err(e) = run_serve() {
                eprintln!("lapush serve: {e}");
                std::process::exit(1);
            }
        }
        Some("client") => {
            if let Err(e) = run_client() {
                eprintln!("lapush client: {e}");
                std::process::exit(1);
            }
        }
        Some("ingest") => {
            if let Err(e) = run_ingest_cmd() {
                eprintln!("lapush ingest: {e}");
                std::process::exit(1);
            }
        }
        _ => {
            if let Err(e) = run() {
                eprintln!("lapush: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// `lapush serve [--data DIR] [--bind ADDR] [--plan-cache N]
/// [--answer-cache N] [--no-probs]`: run the query service in the
/// foreground until killed. See `docs/OPERATIONS.md`.
fn run_serve() -> Result<(), Box<dyn std::error::Error>> {
    let mut config = ServerConfig {
        bind: arg("bind").unwrap_or_else(|| "127.0.0.1:7878".into()),
        ..ServerConfig::default()
    };
    config.plan_cache_cap = positive("plan-cache")?.unwrap_or(config.plan_cache_cap);
    config.answer_cache_cap = positive("answer-cache")?.unwrap_or(config.answer_cache_cap);
    let db = match arg("data") {
        Some(dir) => {
            let deterministic = flag("no-probs");
            let opts = CsvOptions {
                prob_column: !deterministic,
                deterministic,
            };
            let db = database_from_dir(std::path::Path::new(&dir), opts)?;
            eprintln!(
                "loaded {} relations, {} tuples",
                db.relation_count(),
                db.tuple_count()
            );
            db
        }
        None => Database::new(),
    };
    let handle = Server::bind_with_db(db, config)?.spawn()?;
    println!("lapush serve: listening on {}", handle.addr());
    handle.join();
    Ok(())
}

/// `lapush client --addr HOST:PORT [--retry N]`: read blank-line
/// separated requests from stdin, print each response followed by a
/// blank line. Protocol-level `ERR` responses are printed like any other
/// response (scripts assert on them); only transport failures exit
/// non-zero.
fn run_client() -> Result<(), Box<dyn std::error::Error>> {
    let addr = arg("addr").ok_or("missing --addr HOST:PORT")?;
    let retries = positive("retry")?.unwrap_or(1);
    let mut client = Client::connect_retry(
        addr.as_str(),
        retries,
        std::time::Duration::from_millis(250),
    )?;
    let stdin = std::io::read_to_string(std::io::stdin())?;
    for request in split_requests(&stdin) {
        let response = client.request(&request)?;
        println!("{response}\n");
    }
    Ok(())
}

/// `lapush ingest --addr HOST:PORT --relation NAME [--batch N]
/// [--stream] [--retry N]`: append CSV rows (last column = probability)
/// from stdin to a relation of a running server.
///
/// By default all of stdin is read first and sent as one `INGEST`
/// request. With `--stream`, rows are sent as soon as `--batch` of them
/// (default 100) have been read, so a live producer's tuples become
/// queryable — and are merged into the server's cached answers — while
/// the pipe is still open. Each server response is echoed to stdout; the
/// first `ERR` aborts with a non-zero exit.
fn run_ingest_cmd() -> Result<(), Box<dyn std::error::Error>> {
    let addr = arg("addr").ok_or("missing --addr HOST:PORT")?;
    let relation = arg("relation").ok_or("missing --relation NAME")?;
    let batch = positive("batch")?.unwrap_or(100);
    let stream_mode = flag("stream");
    let retries = positive("retry")?.unwrap_or(1);
    let mut client = Client::connect_retry(
        addr.as_str(),
        retries,
        std::time::Duration::from_millis(250),
    )?;
    let send = |client: &mut Client, rows: &[String]| -> Result<(), Box<dyn std::error::Error>> {
        let response = client.request(&format!("INGEST {relation}\n{}", rows.join("\n")))?;
        println!("{response}");
        if response.starts_with("ERR") {
            return Err("server rejected the batch".into());
        }
        Ok(())
    };
    let mut pending: Vec<String> = Vec::new();
    for line in std::io::stdin().lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        pending.push(line);
        if stream_mode && pending.len() >= batch {
            send(&mut client, &pending)?;
            pending.clear();
        }
    }
    if !pending.is_empty() {
        send(&mut client, &pending)?;
    }
    Ok(())
}

/// Split a client script into request bodies: consecutive non-blank
/// lines form one request; blank lines separate requests.
fn split_requests(script: &str) -> Vec<String> {
    let mut requests = Vec::new();
    let mut current: Vec<&str> = Vec::new();
    for line in script.lines() {
        if line.trim().is_empty() {
            if !current.is_empty() {
                requests.push(current.join("\n"));
                current.clear();
            }
        } else {
            current.push(line);
        }
    }
    if !current.is_empty() {
        requests.push(current.join("\n"));
    }
    requests
}

/// `lapush bench [--quick|--full] [--out DIR] [--threads N]`: run the
/// experiment suite, forwarding the scale, output, and thread-count flags
/// to every experiment binary.
fn run_bench() -> i32 {
    let usage = "usage: lapush bench [--quick|--full] [--out DIR] [--threads N]";
    let args: Vec<String> = std::env::args().skip(2).collect();
    let mut forwarded: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" | "--full" => forwarded.push(args[i].clone()),
            "--out" | "--threads" => {
                let flag = args[i].clone();
                let Some(value) = args.get(i + 1).filter(|d| !d.starts_with("--")) else {
                    eprintln!("lapush bench: {flag} needs a value\n{usage}");
                    return 2;
                };
                if flag == "--threads" && value.parse::<usize>().map_or(true, |t| t < 1) {
                    eprintln!("lapush bench: --threads needs a positive integer\n{usage}");
                    return 2;
                }
                forwarded.push(flag);
                forwarded.push(value.clone());
                i += 1;
            }
            out if out.starts_with("--out=") || out.starts_with("--threads=") => {
                forwarded.push(out.to_string())
            }
            other => {
                eprintln!("lapush bench: unexpected argument `{other}`\n{usage}");
                return 2;
            }
        }
        i += 1;
    }
    let bin_dir = match benchsuite::current_bin_dir() {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("lapush bench: cannot locate executable directory: {e}");
            return 1;
        }
    };
    let outcome = benchsuite::run_suite(&bin_dir, &forwarded);
    benchsuite::summarize(&outcome)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    // Every flag is checked before anything is loaded or printed.
    let method = arg("method").unwrap_or_else(|| "diss".into());
    only_for_method("top-k", "diss", &method)?;
    only_for_method("samples", "mc", &method)?;
    only_for_method("threads", "mc", &method)?;
    let top_k = positive("top-k")?;
    let samples = positive("samples")?.unwrap_or(1000);
    let threads = positive("threads")?.unwrap_or(1);
    let query_text = arg("query").ok_or("missing --query '<datalog query>'")?;
    let q = parse_query(&query_text)?;
    let load = || -> Result<Database, Box<dyn std::error::Error>> {
        let data = arg("data").ok_or("missing --data <dir of CSV relations>")?;
        let deterministic = flag("no-probs");
        let opts = CsvOptions {
            prob_column: !deterministic,
            deterministic,
        };
        let db = database_from_dir(std::path::Path::new(&data), opts)?;
        eprintln!(
            "loaded {} relations, {} tuples",
            db.relation_count(),
            db.tuple_count()
        );
        Ok(db)
    };

    match method.as_str() {
        "plans" => {
            let set = minimal_plan_set(&QueryShape::of_query(&q));
            println!("{} minimal plan(s):", set.len());
            for &root in &set.roots {
                println!("  {}", set.store.render(root, &q));
            }
        }
        "diss" => {
            let db = load()?;
            let opts = RankOptions {
                top_k,
                // Pruning only pays off across a plan set; single-plan
                // levels would evaluate fully and truncate.
                opt: if top_k.is_some() {
                    OptLevel::MultiPlan
                } else {
                    RankOptions::default().opt
                },
                ..RankOptions::default()
            };
            let ans = rank_by_dissociation(&db, &q, opts)?;
            print_answers(&ans, None);
        }
        "bounds" => {
            let (lower, upper) = bound_answers(&load()?, &q)?;
            print_answers(&upper, Some(&lower));
        }
        "exact" => print_answers(&exact_answers(&load()?, &q)?, None),
        "mc" => print_answers(&mc_answers(&load()?, &q, samples, 42, threads)?, None),
        "sql" => {
            let ans = lapushdb::engine::deterministic_answers(&load()?, &q)?;
            for (key, _) in ans.ranked() {
                println!("{}", render_key(&key));
            }
        }
        other => return Err(format!("unknown --method `{other}`").into()),
    }
    Ok(())
}

fn print_answers(ans: &AnswerSet, lower: Option<&AnswerSet>) {
    for (key, score) in ans.ranked() {
        match lower {
            Some(lo) => println!(
                "{}\t[{:.6}, {:.6}]",
                render_key(&key),
                lo.score_of(&key),
                score
            ),
            None => println!("{}\t{:.6}", render_key(&key), score),
        }
    }
}
