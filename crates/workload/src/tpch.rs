//! Synthetic TPC-H-style workload (Setup 1 of the paper).
//!
//! The paper uses the TPC-H `dbgen` tables Supplier (10k rows at scale 1),
//! PartSupp (800k) and Part (200k), adds a probability column with values
//! uniform in `[0, pi_max]`, and ranks the 25 nations with
//!
//! ```text
//! Q(a) :- S(s, a), PS(s, u), P(u, n), s ≤ $1, n like $2
//! ```
//!
//! `dbgen` is not available here; this module generates tables with the
//! same statistical knobs: 25 nations, 4 PartSupp rows per part (TPC-H's
//! ratio), and `p_name` built from five words of the standard TPC-H
//! 92-color vocabulary — so the paper's `LIKE` selectivity parameters
//! (`'%red%green%'`, `'%red%'`, `'%'`) behave comparably.

use lapush_query::{parse_query, Query};
use lapush_storage::{Database, StorageError, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The 92 color words of the TPC-H `P_NAME` vocabulary.
pub const COLORS: [&str; 92] = [
    "almond",
    "antique",
    "aquamarine",
    "azure",
    "beige",
    "bisque",
    "black",
    "blanched",
    "blue",
    "blush",
    "brown",
    "burlywood",
    "burnished",
    "chartreuse",
    "chiffon",
    "chocolate",
    "coral",
    "cornflower",
    "cornsilk",
    "cream",
    "cyan",
    "dark",
    "deep",
    "dim",
    "dodger",
    "drab",
    "firebrick",
    "floral",
    "forest",
    "frosted",
    "gainsboro",
    "ghost",
    "goldenrod",
    "green",
    "grey",
    "honeydew",
    "hot",
    "indian",
    "ivory",
    "khaki",
    "lace",
    "lavender",
    "lawn",
    "lemon",
    "light",
    "lime",
    "linen",
    "magenta",
    "maroon",
    "medium",
    "metallic",
    "midnight",
    "mint",
    "misty",
    "moccasin",
    "navajo",
    "navy",
    "olive",
    "orange",
    "orchid",
    "pale",
    "papaya",
    "peach",
    "peru",
    "pink",
    "plum",
    "powder",
    "puff",
    "purple",
    "red",
    "rose",
    "rosy",
    "royal",
    "saddle",
    "salmon",
    "sandy",
    "seashell",
    "sienna",
    "sky",
    "slate",
    "smoke",
    "snow",
    "spring",
    "steel",
    "tan",
    "thistle",
    "tomato",
    "turquoise",
    "violet",
    "wheat",
    "white",
    "yellow",
];

/// Number of nations (TPC-H constant).
pub const NATIONS: i64 = 25;

/// Configuration for the synthetic TPC-H generator.
#[derive(Debug, Clone, Copy)]
pub struct TpchConfig {
    /// Number of suppliers (TPC-H scale 1: 10_000).
    pub suppliers: usize,
    /// Number of parts (TPC-H scale 1: 200_000). PartSupp has 4 rows per
    /// part.
    pub parts: usize,
    /// Upper bound of the uniform tuple-probability distribution
    /// (`avg[pi] = pi_max / 2`).
    pub pi_max: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TpchConfig {
    fn default() -> Self {
        // 1/20 of TPC-H scale 1: laptop-friendly while preserving ratios.
        TpchConfig {
            suppliers: 500,
            parts: 10_000,
            pi_max: 0.2,
            seed: 42,
        }
    }
}

/// Generate the three-table database: `S(s_suppkey, s_nationkey)`,
/// `PS(ps_suppkey, ps_partkey)`, `P(p_partkey, p_name)`.
pub fn tpch_db(cfg: TpchConfig) -> Result<Database, StorageError> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut db = Database::new();
    let s = db.create_relation("S", 2)?;
    let ps = db.create_relation("PS", 2)?;
    let p = db.create_relation("P", 2)?;

    for sk in 1..=cfg.suppliers as i64 {
        let nation = rng.gen_range(0..NATIONS);
        let prob = rng.gen_range(0.0..=cfg.pi_max);
        db.relation_mut(s)
            .push(Box::new([Value::Int(sk), Value::Int(nation)]), prob)?;
    }
    for pk in 1..=cfg.parts as i64 {
        let name = part_name(&mut rng);
        let prob = rng.gen_range(0.0..=cfg.pi_max);
        db.relation_mut(p)
            .push(Box::new([Value::Int(pk), Value::str(&name)]), prob)?;
        // TPC-H: each part is supplied by 4 suppliers.
        for _ in 0..4 {
            let sk = rng.gen_range(1..=cfg.suppliers as i64);
            let prob = rng.gen_range(0.0..=cfg.pi_max);
            db.relation_mut(ps)
                .push(Box::new([Value::Int(sk), Value::Int(pk)]), prob)?;
        }
    }
    Ok(db)
}

/// [`tpch_db`] plus two chain-extension tables: `L(l_partkey, l_orderkey)`
/// (each part appears on `lineitems_per_part` order lines) and
/// `O(o_orderkey, o_orderdate)` with `orders` rows and day-granularity
/// dates. The extensions draw from their own RNG stream, so the `S`, `PS`,
/// and `P` tables are **bitwise identical** to `tpch_db(cfg)` for every
/// knob setting — existing benchmark checksums cannot drift.
///
/// Used by the four-atom chain query [`tpch_chain_query`], whose plan set
/// is large enough (five minimal plans) to exercise multi-plan pruning;
/// the paper's three-atom query has only two.
pub fn tpch_chain_db(
    cfg: TpchConfig,
    lineitems_per_part: usize,
    orders: usize,
) -> Result<Database, StorageError> {
    let mut db = tpch_db(cfg)?;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x4c4f); // "LO"
    let l = db.create_relation("L", 2)?;
    let o = db.create_relation("O", 2)?;
    let orders = orders.max(1);
    for ok in 1..=orders as i64 {
        // TPC-H order dates span ~7 years; days since epoch start.
        let date = rng.gen_range(0..2557);
        let prob = rng.gen_range(0.0..=cfg.pi_max);
        db.relation_mut(o)
            .push(Box::new([Value::Int(ok), Value::Int(date)]), prob)?;
    }
    for pk in 1..=cfg.parts as i64 {
        for _ in 0..lineitems_per_part {
            let ok = rng.gen_range(1..=orders as i64);
            let prob = rng.gen_range(0.0..=cfg.pi_max);
            db.relation_mut(l)
                .push(Box::new([Value::Int(pk), Value::Int(ok)]), prob)?;
        }
    }
    Ok(db)
}

/// A TPC-H style part name: five distinct color words.
pub fn part_name(rng: &mut StdRng) -> String {
    let mut words: Vec<&str> = Vec::with_capacity(5);
    while words.len() < 5 {
        let w = COLORS[rng.gen_range(0..COLORS.len())];
        if !words.contains(&w) {
            words.push(w);
        }
    }
    words.join(" ")
}

/// The paper's parameterized ranking query
/// `Q(a) :- S(s, a), PS(s, u), P(u, n), s ≤ $1, n like $2`.
pub fn tpch_query(param1: i64, param2: &str) -> Query {
    parse_query(&format!(
        "Q(a) :- S(s, a), PS(s, u), P(u, n), s <= {param1}, n like '{param2}'"
    ))
    .expect("well-formed query template")
}

/// The four-atom chain ranking query over the [`tpch_chain_db`] tables:
/// `Q(a) :- S(s, a), PS(s, u), L(u, o), O(o, d), s ≤ $1` — nations ranked
/// through supplier → partsupp → lineitem → order.
pub fn tpch_chain_query(param1: i64) -> Query {
    parse_query(&format!(
        "Q(a) :- S(s, a), PS(s, u), L(u, o), O(o, d), s <= {param1}"
    ))
    .expect("well-formed query template")
}

/// The same four-atom chain ranking `(nation, date)` pairs:
/// `Q(a, d) :- S(s, a), PS(s, u), L(u, o), O(o, d), s ≤ $1` — which
/// nation supplied something on which order date, ranked by probability.
/// Same five-plan set as [`tpch_chain_query`] (the head variables sit on
/// the chain's two ends, like the paper's k-chain queries), but with one
/// answer group per surviving pair — thousands of groups with small,
/// dispersed lineages, which is the regime anytime top-k pruning is
/// built for: head-variable filters anchor both ends of every remaining
/// plan after the bounds pass.
pub fn tpch_chain_query_pairs(param1: i64) -> Query {
    parse_query(&format!(
        "Q(a, d) :- S(s, a), PS(s, u), L(u, o), O(o, d), s <= {param1}"
    ))
    .expect("well-formed query template")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_sizes() {
        let cfg = TpchConfig {
            suppliers: 100,
            parts: 500,
            pi_max: 0.5,
            seed: 1,
        };
        let db = tpch_db(cfg).unwrap();
        assert_eq!(db.relation_by_name("S").unwrap().len(), 100);
        assert_eq!(db.relation_by_name("P").unwrap().len(), 500);
        // PartSupp may have slightly fewer than 4·parts rows because
        // (supplier, part) collisions dedup under set semantics.
        let ps = db.relation_by_name("PS").unwrap().len();
        assert!(ps > 1900 && ps <= 2000, "{ps}");
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = TpchConfig::default();
        let a = tpch_db(cfg).unwrap();
        let b = tpch_db(cfg).unwrap();
        assert_eq!(a.tuple_count(), b.tuple_count());
        assert_eq!(
            a.relation_by_name("P").unwrap().row(0),
            b.relation_by_name("P").unwrap().row(0)
        );
    }

    #[test]
    fn probabilities_bounded_by_pi_max() {
        let cfg = TpchConfig {
            suppliers: 50,
            parts: 100,
            pi_max: 0.3,
            seed: 2,
        };
        let db = tpch_db(cfg).unwrap();
        for (_, rel) in db.relations() {
            for (_, _, p) in rel.iter() {
                assert!((0.0..=0.3).contains(&p));
            }
        }
        // avg[pi] ≈ pi_max/2.
        assert!((db.avg_prob() - 0.15).abs() < 0.02);
    }

    #[test]
    fn part_names_have_five_distinct_colors() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let name = part_name(&mut rng);
            let words: Vec<&str> = name.split(' ').collect();
            assert_eq!(words.len(), 5);
            let mut sorted = words.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 5);
            assert!(words.iter().all(|w| COLORS.contains(w)));
        }
    }

    #[test]
    fn query_template_parses() {
        let q = tpch_query(1000, "%red%green%");
        assert_eq!(q.atoms().len(), 3);
        assert_eq!(q.predicates().len(), 2);
        assert_eq!(q.head().len(), 1);
    }

    #[test]
    fn chain_db_extends_without_touching_base_tables() {
        let cfg = TpchConfig {
            suppliers: 50,
            parts: 200,
            pi_max: 0.4,
            seed: 7,
        };
        let base = tpch_db(cfg).unwrap();
        let chain = tpch_chain_db(cfg, 3, 120).unwrap();
        assert_eq!(chain.relation_by_name("O").unwrap().len(), 120);
        // L may dedup (part, order) collisions under set semantics.
        let l = chain.relation_by_name("L").unwrap().len();
        assert!(l > 500 && l <= 600, "{l}");
        // The shared tables are bitwise identical to the plain generator.
        for name in ["S", "PS", "P"] {
            let a = base.relation_by_name(name).unwrap();
            let b = chain.relation_by_name(name).unwrap();
            assert_eq!(a.len(), b.len(), "{name}");
            for i in 0..a.len() as u32 {
                assert_eq!(a.row(i), b.row(i), "{name} row {i}");
                assert_eq!(a.prob(i).to_bits(), b.prob(i).to_bits(), "{name} row {i}");
            }
        }
    }

    #[test]
    fn chain_query_template_parses() {
        let q = tpch_chain_query(250);
        assert_eq!(q.atoms().len(), 4);
        assert_eq!(q.predicates().len(), 1);
        assert_eq!(q.head().len(), 1);
    }
}
