//! The four workloads: how each one's data, queries and request scripts
//! are generated from `--seed`. Everything here is harness-side input
//! generation; the program under test only ever sees the results (a CSV
//! directory, query texts, wire requests).

use crate::rng::Rng;
use lapushdb::storage::{Database, Value};
use lapushdb::workload::{
    chain_db, chain_query, find_chain_domain, tpch_chain_db, tpch_chain_query_pairs, TpchConfig,
};
use std::collections::HashSet;

pub const WORKLOADS: [&str; 4] = ["chain7", "plans-wide", "tpch-big", "serve-mixed"];

/// A run is this many equal slices, each doing every class's share of the
/// work (in-process rounds, one cold load, a stretch of the wire mix), so
/// a noise burst of a few seconds hits a minority of every class's
/// samples instead of most of one class's.
pub const SLICES: usize = 8;

/// `k` of the `topk` class, in-process and over the wire.
pub const TOP_K: usize = 10;
/// Queries kept permanently hot in the answer cache.
const HOT: usize = 8;
/// Distinct constant-selection queries the `rank`-over-the-wire class
/// cycles through, front to back: far more than [`ANSWER_CACHE_CAP`], so
/// under LRU every one of them misses the answer cache (and hits the plan
/// cache). Set-up fills the cache from the back of the pool.
const MISS_POOL: usize = 256;
pub const ANSWER_CACHE_CAP: usize = 32;

#[derive(Debug, Clone, Copy)]
pub enum Data {
    /// `chain_db`: `k` binary relations of `n` uniform random tuples,
    /// domain sized for ≈35 answers.
    Chain { k: usize, n: usize },
    /// `k` binary relations that are each a random *permutation* of
    /// `1..=n` (`n` tuples `(u, p(u))`). Every join and projection along
    /// the chain then has exactly `n` rows, and a new row adds exactly one
    /// path in each direction, whatever the seed — where `chain_db` at
    /// this size swings several-fold from seed to seed (and random
    /// functions, a critical branching process backwards, nearly as much).
    PermutationChain { k: usize, n: usize },
    /// `tpch_chain_db` with `parts / 20` suppliers and `parts * 10` orders.
    Tpch { parts: usize },
}

/// One workload. Op counts are a fixed linear function of `--seconds`
/// (never of measured speed), so two commits do identical work; the
/// per-second rates were sized on the 2-core reference box so that the
/// timed phases take about `--seconds` in total.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub data: Data,
    /// In-process rounds (one `rank` + one `rank_all` + one `topk`) per
    /// requested second.
    pub rounds_per_s: f64,
    /// Wire requests (both clients together) per requested second.
    pub requests_per_s: f64,
    /// Rows per `INGEST` batch: 10, except where that would grow the data
    /// by more than a tenth over a run.
    pub ingest_rows: usize,
}

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        let spec = |name, data, rounds_per_s, requests_per_s| Spec {
            name,
            data,
            rounds_per_s,
            requests_per_s,
            ingest_rows: 10,
        };
        Some(match name {
            "chain7" => spec("chain7", Data::Chain { k: 7, n: 10_000 }, 5.6, 45.0),
            // 1 000 tuples in all: ten-row batches would grow them by half.
            "plans-wide" => Spec {
                ingest_rows: 1,
                ..spec(
                    "plans-wide",
                    Data::PermutationChain { k: 10, n: 100 },
                    4.4,
                    100.0,
                )
            },
            "tpch-big" => spec("tpch-big", Data::Tpch { parts: 10_000 }, 1.6, 16.0),
            "serve-mixed" => spec("serve-mixed", Data::Chain { k: 3, n: 20_000 }, 12.0, 370.0),
            _ => return None,
        })
    }

    /// The `--check` variant: same shape, about a tenth of the data.
    pub fn check_scale(self) -> Spec {
        let data = match self.data {
            Data::Chain { k, n } => Data::Chain { k, n: n / 10 },
            Data::PermutationChain { k, n } => Data::PermutationChain { k: k.min(8), n },
            Data::Tpch { parts } => Data::Tpch { parts: parts / 10 },
        };
        Spec { data, ..self }
    }

    /// In-process rounds per slice at `--seconds`.
    pub fn rounds_per_slice(&self, seconds: f64) -> usize {
        ((self.rounds_per_s * seconds / SLICES as f64).round() as usize).max(1)
    }

    /// Wire requests per slice at `--seconds` (at least 40, so that every
    /// class occurs in every slice).
    pub fn requests_per_slice(&self, seconds: f64) -> usize {
        ((self.requests_per_s * seconds / SLICES as f64).round() as usize).max(40)
    }
}

/// A binary relation `INGEST` batches may target, with the inclusive
/// value range of each column (rows drawn inside it are "in-domain":
/// they join with existing data).
#[derive(Debug, Clone)]
pub struct IngestRel {
    pub name: String,
    pub lo: [i64; 2],
    pub hi: [i64; 2],
}

/// Everything generated from the seed for one workload.
pub struct Inputs {
    pub db: Database,
    /// Rows per `INGEST` batch.
    pub ingest_rows: usize,
    /// The query the in-process classes and `TOPK` rank.
    pub main_query: String,
    pub hot: Vec<String>,
    pub miss_pool: Vec<String>,
    pub ingest_rels: Vec<IngestRel>,
    pub pi_max: f64,
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let rows = spec.ingest_rows;
        match spec.data {
            Data::Chain { k, n } => {
                let domain = find_chain_domain(k, n, 35.0);
                chain_inputs(
                    k,
                    domain,
                    chain_db(k, n, domain, 1.0, seed).expect("chain_db"),
                    rows,
                )
            }
            Data::PermutationChain { k, n } => {
                chain_inputs(k, n as i64, permutation_chain_db(k, n, seed), rows)
            }
            Data::Tpch { parts } => tpch_inputs(parts, seed, rows),
        }
    }
}

/// `q(<head>) :- R1(<first>, x1), …, R<to>(x<to-1>, <last>)`.
fn chain_text(head: &str, first: &str, last: &str, to: usize) -> String {
    let var = |i: usize| {
        if i == 0 {
            first.to_string()
        } else if i == to {
            last.to_string()
        } else {
            format!("x{i}")
        }
    };
    let atoms: Vec<String> = (1..=to)
        .map(|i| format!("R{i}({}, {})", var(i - 1), var(i)))
        .collect();
    format!("q({head}) :- {}", atoms.join(", "))
}

/// Distinct integer values of one column, in row order.
fn distinct_column(db: &Database, rel: &str, col: usize) -> Vec<i64> {
    let mut seen = HashSet::new();
    db.relation_by_name(rel)
        .expect("generated relation")
        .iter()
        .filter_map(|(_, row, _)| row[col].as_int())
        .filter(|v| seen.insert(*v))
        .collect()
}

fn permutation_chain_db(k: usize, n: usize, seed: u64) -> Database {
    let mut rng = Rng::new(seed);
    let mut db = Database::new();
    for i in 1..=k {
        let rel = db
            .create_relation(format!("R{i}"), 2)
            .expect("fresh relation name");
        let mut image: Vec<i64> = (1..=n as i64).collect();
        rng.shuffle(&mut image);
        for (u, v) in (1..).zip(image) {
            let row = Box::new([Value::Int(u), Value::Int(v)]);
            db.relation_mut(rel)
                .push(row, rng.unit())
                .expect("probability in range");
        }
    }
    db
}

/// Queries and ingest targets over a `k`-chain database `R1..Rk` whose
/// values lie in `1..=domain`.
fn chain_inputs(k: usize, domain: i64, db: Database, ingest_rows: usize) -> Inputs {
    let pi_max = 1.0;
    let last = format!("x{k}");

    // Constant selections on either end of the chain, over constants that
    // occur in the data (so the selections are not trivially empty).
    let mut selections: Vec<String> = distinct_column(&db, "R1", 0)
        .into_iter()
        .map(|c| chain_text(&last, &c.to_string(), &last, k))
        .chain(
            distinct_column(&db, &format!("R{k}"), 1)
                .into_iter()
                .map(|c| chain_text("x0", "x0", &c.to_string(), k)),
        )
        .collect();

    let main_query = chain_query(k).display();
    let mut hot = vec![main_query.clone()];
    for j in (k.saturating_sub(2).max(2)..k).rev() {
        hot.push(chain_text(&format!("x0, x{j}"), "x0", &format!("x{j}"), j));
    }
    let consts_hot = HOT - hot.len();
    assert!(
        selections.len() > consts_hot + ANSWER_CACHE_CAP,
        "too few constants for a miss pool"
    );
    let mut miss_pool = selections.split_off(consts_hot);
    hot.append(&mut selections);
    miss_pool.truncate(MISS_POOL);

    let ingest_rels = (1..=k)
        .map(|i| IngestRel {
            name: format!("R{i}"),
            lo: [1, 1],
            hi: [domain, domain],
        })
        .collect();
    Inputs {
        db,
        ingest_rows,
        main_query,
        hot,
        miss_pool,
        ingest_rels,
        pi_max,
    }
}

fn tpch_inputs(parts: usize, seed: u64, ingest_rows: usize) -> Inputs {
    let suppliers = parts / 20;
    let orders = parts * 10;
    let pi_max = 0.9;
    let cfg = TpchConfig {
        suppliers,
        parts,
        pi_max,
        seed,
    };
    let db = tpch_chain_db(cfg, 2, orders).expect("tpch_chain_db");

    let s = suppliers as i64;
    let chain = "S(s, a), PS(s, u), L(u, o), O(o, d)";
    let main_query = tpch_chain_query_pairs(s).display();
    let hot = vec![
        main_query.clone(),
        format!("Q(a, d) :- {chain}, s <= {}", s / 2),
        format!("Q(a, d) :- {chain}, s <= {}", s / 4),
        format!("Q(a, d) :- {chain}, s <= {}", s / 8),
        format!("Q(a) :- {chain}, s <= {s}"),
        format!("Q(a) :- S(s, a), PS(s, u), L(u, o), s <= {s}"),
        format!("Q(a) :- S(s, a), PS(s, u), s <= {s}"),
        format!("Q(d) :- {chain}, s <= {}", s / 2),
    ];
    assert_eq!(hot.len(), HOT);
    let miss_pool = (1..=s.min(MISS_POOL as i64))
        .map(|c| format!("Q(a, d) :- S({c}, a), PS({c}, u), L(u, o), O(o, d)"))
        .collect();

    let (p, o) = (parts as i64, orders as i64);
    let rel = |name: &str, lo, hi| IngestRel {
        name: name.into(),
        lo,
        hi,
    };
    let ingest_rels = vec![
        rel("S", [1, 0], [s, 24]),
        rel("PS", [1, 1], [s, p]),
        rel("L", [1, 1], [p, o]),
        rel("O", [1, 0], [o, 2556]),
    ];
    Inputs {
        db,
        ingest_rows,
        main_query,
        hot,
        miss_pool,
        ingest_rels,
        pi_max,
    }
}

/// Wire op classes. `Miss` is the `rank` class over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    Hit,
    Miss,
    Topk,
    Ingest,
}

/// One `INGEST` batch: target relation and `(u, v, probability)` rows.
pub type Batch = (String, Vec<(i64, i64, f64)>);

pub struct Request {
    pub class: Class,
    /// Which of the class's alternatives this is — the hot query of a
    /// hit, the target relation of an ingest (0 otherwise). Latencies are
    /// only comparable within one key.
    pub key: usize,
    /// The frame body sent to the server.
    pub body: String,
    /// For `Ingest`: the batch, so the harness can apply it to its mirror.
    pub ingest: Option<Batch>,
}

/// The wire mix, as `slices` equal slices of `per_slice` requests in
/// one seeded global order. Every slice holds exactly the same class
/// counts — 5% `INGEST`, 3% `TOPK`, 12% misses, the rest hits — shuffled
/// within the slice, so slices do comparable work. Ingest rows are
/// in-domain and new (no row repeats an existing one, so no batch turns
/// into an in-place probability raise).
pub fn mix(inputs: &Inputs, seed: u64, slices: usize, per_slice: usize) -> Vec<Vec<Request>> {
    let mut rng = Rng::new(seed ^ 0x7363_7269_7074);
    let (n_ingest, n_topk, n_miss) = (
        per_slice * 5 / 100,
        per_slice * 3 / 100,
        per_slice * 12 / 100,
    );
    let mut slice_classes = vec![Class::Hit; per_slice - n_ingest - n_topk - n_miss];
    slice_classes.extend(std::iter::repeat_n(Class::Ingest, n_ingest));
    slice_classes.extend(std::iter::repeat_n(Class::Topk, n_topk));
    slice_classes.extend(std::iter::repeat_n(Class::Miss, n_miss));

    let mut present: Vec<HashSet<(i64, i64)>> = inputs
        .ingest_rels
        .iter()
        .map(|rel| {
            let rows = inputs
                .db
                .relation_by_name(&rel.name)
                .expect("generated relation")
                .iter();
            rows.filter_map(|(_, row, _)| Some((row[0].as_int()?, row[1].as_int()?)))
                .collect()
        })
        .collect();
    let mut next_miss = 0;
    let mut next_ingest = 0;
    let mut request = |class: Class, rng: &mut Rng| {
        let mut key = 0;
        let (body, ingest) = match class {
            Class::Hit => {
                key = rng.range(0, inputs.hot.len() as i64 - 1) as usize;
                (format!("QUERY {}", inputs.hot[key]), None)
            }
            Class::Miss => {
                let q = &inputs.miss_pool[next_miss % inputs.miss_pool.len()];
                next_miss += 1;
                (format!("QUERY {q}"), None)
            }
            Class::Topk => (format!("TOPK {TOP_K} {}", inputs.main_query), None),
            Class::Ingest => {
                let at = next_ingest % inputs.ingest_rels.len();
                next_ingest += 1;
                key = at;
                let rel = &inputs.ingest_rels[at];
                let mut rows: Vec<(i64, i64, f64)> = Vec::with_capacity(inputs.ingest_rows);
                while rows.len() < inputs.ingest_rows {
                    let pair = (
                        rng.range(rel.lo[0], rel.hi[0]),
                        rng.range(rel.lo[1], rel.hi[1]),
                    );
                    if present[at].insert(pair) {
                        rows.push((pair.0, pair.1, rng.unit() * inputs.pi_max));
                    }
                }
                let lines: Vec<String> = rows
                    .iter()
                    .map(|(u, v, p)| format!("{u},{v},{p}"))
                    .collect();
                (
                    format!("INGEST {}\n{}", rel.name, lines.join("\n")),
                    Some((rel.name.clone(), rows)),
                )
            }
        };
        Request {
            class,
            key,
            body,
            ingest,
        }
    };
    (0..slices)
        .map(|_| {
            let mut classes = slice_classes.clone();
            rng.shuffle(&mut classes);
            classes
                .into_iter()
                .map(|class| request(class, &mut rng))
                .collect()
        })
        .collect()
}

/// Apply one scripted ingest batch to the harness's own copy of the data.
pub fn apply_ingest(db: &mut Database, rel: &str, rows: &[(i64, i64, f64)]) {
    let rel = db
        .relation_by_name_mut(rel)
        .expect("ingest targets a generated relation");
    for &(u, v, p) in rows {
        rel.push(Box::new([Value::Int(u), Value::Int(v)]), p)
            .expect("in-range probability");
    }
}

/// FNV-1a over values and raw bytes: the digest behind dataset
/// fingerprints and ranking checksums.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Int(i) => self.bytes(&i.to_le_bytes()),
            Value::Str(s) => self.bytes(s.as_bytes()),
        }
    }
}

/// Row counts plus a checksum over every value and probability: two runs
/// that print the same fingerprint ran on equal inputs.
pub fn fingerprint(db: &Database) -> String {
    let mut h = Fnv::default();
    // By name: a database loaded from a directory holds its relations in
    // file-name order, a generated one in creation order.
    let mut rels: Vec<_> = db.relations().map(|(_, rel)| rel).collect();
    rels.sort_by_key(|rel| rel.name().to_string());
    let mut counts = Vec::new();
    for rel in rels {
        counts.push(format!("{}={}", rel.name(), rel.len()));
        for (_, row, p) in rel.iter() {
            row.iter().for_each(|v| h.value(v));
            h.bytes(&p.to_bits().to_le_bytes());
        }
    }
    format!("{} fnv={:016x}", counts.join(" "), h.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bodies(mix: &[Vec<Request>]) -> Vec<&str> {
        mix.iter().flatten().map(|r| r.body.as_str()).collect()
    }

    #[test]
    fn inputs_and_mix_are_a_pure_function_of_the_seed() {
        let spec = Spec::by_name("serve-mixed").unwrap().check_scale();
        let inputs = Inputs::generate(&spec, 7);
        let a = mix(&inputs, 7, 4, 100);
        assert_eq!(
            bodies(&a),
            bodies(&mix(&Inputs::generate(&spec, 7), 7, 4, 100))
        );
        assert_ne!(bodies(&a), bodies(&mix(&inputs, 8, 4, 100)));
        assert_eq!(
            fingerprint(&inputs.db),
            fingerprint(&Inputs::generate(&spec, 7).db)
        );
        assert_ne!(
            fingerprint(&inputs.db),
            fingerprint(&Inputs::generate(&spec, 8).db)
        );
    }

    #[test]
    fn mix_holds_the_stated_shares_and_ingests_only_new_rows() {
        for name in WORKLOADS {
            let spec = Spec::by_name(name).unwrap().check_scale();
            let inputs = Inputs::generate(&spec, 3);
            assert_eq!(inputs.hot.len(), HOT, "{name}");
            assert!(inputs.miss_pool.len() > ANSWER_CACHE_CAP, "{name}");
            let m = mix(&inputs, 3, 5, 200);
            for slice in &m {
                let count = |c: Class| slice.iter().filter(|r| r.class == c).count();
                assert_eq!(
                    (
                        count(Class::Hit),
                        count(Class::Miss),
                        count(Class::Topk),
                        count(Class::Ingest)
                    ),
                    (160, 24, 6, 10),
                    "{name}"
                );
            }
            let mut db = inputs.db.clone();
            let before = db.tuple_count();
            for (rel, rows) in m.iter().flatten().filter_map(|r| r.ingest.as_ref()) {
                apply_ingest(&mut db, rel, rows);
            }
            assert_eq!(
                db.tuple_count(),
                before + 50 * spec.ingest_rows,
                "{name}: every ingested row is new"
            );
        }
    }
}
