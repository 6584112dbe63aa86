//! What both binaries share: set-up of one workload instance, the
//! in-process op classes, and the closed-loop wire replay. Only the
//! narrow public surface of the program is used here (text in, ranked
//! answers out; CSV directory in; `Server`/`Client`), so an engine
//! refactor cannot break the end-to-end run.

use crate::spec::{Class, Fnv, Inputs, Request, Spec, ANSWER_CACHE_CAP, TOP_K};
use lapushdb::query::parse_query;
use lapushdb::serve::{Client, Server, ServerConfig, ServerHandle};
use lapushdb::storage::csv::{database_from_dir, CsvOptions};
use lapushdb::storage::{Database, Value};
use lapushdb::{rank_by_dissociation, OptLevel, RankOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Ranked answers, best first: what every in-process class returns.
pub type Ranked = Vec<(Box<[Value]>, f64)>;

/// In-process op classes. Each is "query text → complete ranked answers".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `RankOptions::default()`: Optimizations 1+2, one plan.
    Rank,
    /// All minimal plans, min-combined.
    RankAll,
    /// All minimal plans with `top_k = 10`.
    Topk,
}

pub const OPS: [Op; 3] = [Op::Rank, Op::RankAll, Op::Topk];

impl Op {
    pub fn options(self) -> RankOptions {
        let base = RankOptions {
            threads: 1,
            ..RankOptions::default()
        };
        match self {
            Op::Rank => base,
            Op::RankAll => RankOptions {
                opt: OptLevel::MultiPlan,
                ..base
            },
            Op::Topk => RankOptions {
                opt: OptLevel::MultiPlan,
                top_k: Some(TOP_K),
                ..base
            },
        }
    }

    pub fn run(self, db: &Database, text: &str) -> Ranked {
        let q = parse_query(text).expect("generated query parses");
        rank_by_dissociation(db, &q, self.options())
            .expect("generated query evaluates")
            .ranked()
    }
}

/// Order- and bit-sensitive digest of a ranking.
pub fn checksum(ranked: &Ranked) -> u64 {
    let mut h = Fnv::default();
    for (key, score) in ranked {
        key.iter().for_each(|v| h.value(v));
        h.bytes(&score.to_bits().to_le_bytes());
    }
    h.0
}

/// Bit-level equality of two rankings.
pub fn same_ranking(a: &Ranked, b: &Ranked) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((ka, sa), (kb, sb))| ka == kb && sa.to_bits() == sb.to_bits())
}

/// Milliseconds `f` took, and its result.
pub fn timed_ms<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (t.elapsed().as_secs_f64() * 1e3, out)
}

/// Write every relation as `<name>.csv` (last column = probability).
/// Floats print in shortest round-trip form, so loading the directory
/// reproduces the generated database bit for bit.
fn write_csv_dir(db: &Database, dir: &Path) -> std::io::Result<u64> {
    std::fs::create_dir_all(dir)?;
    let mut bytes = 0;
    for (_, rel) in db.relations() {
        let mut text = String::new();
        for (_, row, p) in rel.iter() {
            for v in row {
                text.push_str(&v.to_string());
                text.push(',');
            }
            text.push_str(&p.to_string());
            text.push('\n');
        }
        bytes += text.len() as u64;
        std::fs::write(dir.join(format!("{}.csv", rel.name())), text)?;
    }
    Ok(bytes)
}

pub fn load_csv_dir(dir: &Path) -> Database {
    database_from_dir(dir, CsvOptions::default()).expect("load the CSV directory just written")
}

/// One fully set-up workload: generated inputs, their CSV directory, the
/// database loaded back from it (in-process classes run on this copy),
/// and a running server over a second copy with two connected clients.
pub struct Instance {
    pub inputs: Inputs,
    pub dir: PathBuf,
    pub csv_bytes: u64,
    pub db: Database,
    // Declared (hence dropped) before the server: connection threads exit
    // when their peer hangs up, and a dropped handle stops the accept loop.
    pub clients: Vec<Client>,
    pub server: ServerHandle,
    /// `QUERY`/`TOPK` requests sent so far (to check `STATS` against).
    pub queries_sent: u64,
}

/// Untimed in-process rounds before measurement (codec encoded, code warm).
const WARMUP_ROUNDS: usize = 3;

impl Instance {
    /// Everything before the first timed op: generate the data, write the
    /// CSV directory, load it, start the server, connect, and warm up —
    /// in-process rounds, then wire requests that fill the answer cache.
    pub fn setup(spec: &Spec, seed: u64, out_dir: &Path) -> Instance {
        let inputs = Inputs::generate(spec, seed);
        let dir = out_dir.join(format!("data-{}-{seed}-{}", spec.name, std::process::id()));
        let csv_bytes = write_csv_dir(&inputs.db, &dir).expect("write CSV directory");
        let db = load_csv_dir(&dir);

        let config = ServerConfig {
            threads: 1,
            answer_cache_cap: ANSWER_CACHE_CAP,
            ..ServerConfig::default()
        };
        let server = Server::bind_with_db(db.clone(), config)
            .expect("bind")
            .spawn()
            .expect("spawn");
        let clients: Vec<Client> = (0..2)
            .map(|_| {
                Client::connect_retry(server.addr(), 5, Duration::from_millis(20)).expect("connect")
            })
            .collect();

        let mut inst = Instance {
            inputs,
            dir,
            csv_bytes,
            db,
            clients,
            server,
            queries_sent: 0,
        };
        for _ in 0..WARMUP_ROUNDS {
            for op in OPS {
                op.run(&inst.db, &inst.inputs.main_query);
            }
        }
        // Fill the answer cache to its cap — the hot queries, one `TOPK`,
        // the rest from the back of the miss pool (the mix starts at its
        // front) — so every ingest of the timed phase maintains a full cache.
        let mut warm: Vec<String> = inst
            .inputs
            .hot
            .iter()
            .map(|q| format!("QUERY {q}"))
            .collect();
        warm.push(format!("TOPK {TOP_K} {}", inst.inputs.main_query));
        let fill = ANSWER_CACHE_CAP - warm.len();
        warm.extend(
            inst.inputs
                .miss_pool
                .iter()
                .rev()
                .take(fill)
                .map(|q| format!("QUERY {q}")),
        );
        for (i, body) in warm.iter().enumerate() {
            let reply = inst.clients[i % 2].request(body).expect("warm-up request");
            assert!(
                reply.starts_with("OK"),
                "warm-up `{body}` answered `{reply}`"
            );
            inst.queries_sent += 1;
        }
        assert_eq!(inst.clients[1].request("PING").expect("ping"), "OK pong");
        inst
    }

    /// One request on client 0, outside any replay.
    pub fn ask(&mut self, body: &str) -> String {
        if body.starts_with("QUERY") || body.starts_with("TOPK") {
            self.queries_sent += 1;
        }
        self.clients[0].request(body).expect("request")
    }
}

impl Drop for Instance {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One replayed wire request.
#[derive(Debug, Clone, Copy)]
pub struct WireSample {
    pub class: Class,
    /// [`Request::key`].
    pub key: usize,
    pub client: usize,
    /// Nanoseconds since the epoch handed to [`replay`].
    pub start_ns: u64,
    pub end_ns: u64,
    pub ok: bool,
}

impl WireSample {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Replay {
    pub samples: Vec<WireSample>,
    /// From the common start until the last client finished.
    pub wall_s: f64,
}

/// Whose turn it is to send: the index of the next request of the global
/// order.
#[derive(Default)]
struct Turn {
    next: AtomicUsize,
    sleepers: Mutex<()>,
    wake: Condvar,
}

impl Turn {
    /// Wait until request `i` is next, then pass the turn on to `i + 1`.
    ///
    /// Spins briefly before sleeping: a hand-over between the two clients
    /// is usually tens of microseconds away, and on this box a sleeping
    /// client woke up only after the request it was to follow had been
    /// answered — no hit was ever in flight together with an `INGEST`.
    fn take(&self, i: usize) {
        let spin_until = Instant::now() + Duration::from_micros(200);
        while self.next.load(Ordering::SeqCst) != i {
            if Instant::now() < spin_until {
                std::hint::spin_loop();
                continue;
            }
            let mut guard = self.sleepers.lock().expect("turn lock");
            while self.next.load(Ordering::SeqCst) != i {
                guard = self.wake.wait(guard).expect("turn lock");
            }
        }
        // Under the lock, so a client about to sleep cannot miss the wake-up.
        let _guard = self.sleepers.lock().expect("turn lock");
        self.next.store(i + 1, Ordering::SeqCst);
        self.wake.notify_all();
    }
}

/// Closed loop, two clients, one global request order that is kept at
/// *start* granularity: request `i` is sent as soon as request `i - 1`
/// has been sent, by the client that owns its class, which then waits for
/// the reply before taking its next turn.
///
/// Client 1 sends the hits; client 0 everything else (misses, `TOPK`,
/// `INGEST`). So the expensive requests run one at a time, in script order
/// — a single writer keeps the final database deterministic, and no two
/// evaluations fight over this box's two cores, which on a first design
/// with both clients pulling any request made every wire latency swing
/// 10–30% between identical runs — while the hits that follow an `INGEST`
/// in the order are sent while it holds the write lock and wait behind it,
/// which is what `hit_p99_ms` is there to see.
pub fn replay(inst: &mut Instance, mix: &[Request], epoch: Instant) -> Replay {
    let owner = |class: Class| usize::from(class == Class::Hit);
    let turn = Turn::default();
    let per_client: Vec<Vec<WireSample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = inst
            .clients
            .iter_mut()
            .enumerate()
            .map(|(client, conn)| {
                let turn = &turn;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let own = mix
                        .iter()
                        .enumerate()
                        .filter(|(_, r)| owner(r.class) == client);
                    for (i, req) in own {
                        turn.take(i);
                        let start_ns = epoch.elapsed().as_nanos() as u64;
                        let reply = conn.request(&req.body);
                        let end_ns = epoch.elapsed().as_nanos() as u64;
                        let ok = reply.is_ok_and(|r| r.starts_with("OK"));
                        let (class, key) = (req.class, req.key);
                        out.push(WireSample {
                            class,
                            key,
                            client,
                            start_ns,
                            end_ns,
                            ok,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let samples: Vec<WireSample> = per_client.into_iter().flatten().collect();
    let last = samples.iter().map(|s| s.end_ns).max().unwrap_or(0);
    let first = samples.iter().map(|s| s.start_ns).min().unwrap_or(0);
    inst.queries_sent += mix.iter().filter(|r| r.class != Class::Ingest).count() as u64;
    Replay {
        samples,
        wall_s: (last - first) as f64 / 1e9,
    }
}

/// `(key, latency in ms)` of one class.
pub fn keyed_ms(samples: &[WireSample], class: Class) -> Vec<(usize, f64)> {
    samples
        .iter()
        .filter(|s| s.class == class)
        .map(|s| (s.key, s.ms()))
        .collect()
}

/// Latencies (ms) of one class.
pub fn class_ms(samples: &[WireSample], class: Class) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.class == class)
        .map(WireSample::ms)
        .collect()
}
