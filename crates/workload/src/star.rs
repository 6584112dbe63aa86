//! k-star workload (Setup 2 of the paper):
//! `q('a') :- R₁('a', x₁), R₂(x₂), …, R_k(x_k), R₀(x₁, …, x_k)`.
//!
//! The query is Boolean (the constant `'a'` selects a slice of `R₁`); the
//! paper tunes the domain size so the answer probability lies in
//! `[0.90, 0.95]`.

use lapush_query::{parse_query, Query};
use lapush_storage::{Database, StorageError, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The Boolean k-star query.
pub fn star_query(k: usize) -> Query {
    assert!(k >= 1, "star width must be positive");
    let mut body: Vec<String> = vec![format!("R1('a', x1)")];
    for i in 2..=k {
        body.push(format!("R{i}(x{i})"));
    }
    let hub: Vec<String> = (1..=k).map(|i| format!("x{i}")).collect();
    body.push(format!("R0({})", hub.join(", ")));
    parse_query(&format!("q :- {}", body.join(", "))).expect("valid star query")
}

/// Generate the star database: `R₁` holds `n` pairs `('a', x)`; `R₂ … R_k`
/// hold `n` unary values; the hub `R₀` holds `n` k-ary tuples. Values
/// uniform in `{1, …, domain}`, probabilities uniform in `[0, pi_max]`.
///
/// For small domains the number of *distinct* tuples of a unary relation
/// is capped by `domain`; relations are filled to `min(n, capacity)`.
pub fn star_db(
    k: usize,
    n: usize,
    domain: i64,
    pi_max: f64,
    seed: u64,
) -> Result<Database, StorageError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();

    let r1 = db.create_relation("R1", 2)?;
    let cap1 = (domain as usize).min(n);
    while db.relation(r1).len() < cap1 {
        let x = rng.gen_range(1..=domain);
        let p = rng.gen_range(0.0..=pi_max);
        db.relation_mut(r1)
            .push(Box::new([Value::str("a"), Value::Int(x)]), p)?;
    }
    for i in 2..=k {
        let rel = db.create_relation(format!("R{i}"), 1)?;
        let cap = (domain as usize).min(n);
        while db.relation(rel).len() < cap {
            let x = rng.gen_range(1..=domain);
            let p = rng.gen_range(0.0..=pi_max);
            db.relation_mut(rel).push(Box::new([Value::Int(x)]), p)?;
        }
    }
    let hub = db.create_relation("R0", k)?;
    let cap0 = ((domain as u128).pow(k as u32).min(n as u128)) as usize;
    while db.relation(hub).len() < cap0 {
        let row: Box<[Value]> = (0..k)
            .map(|_| Value::Int(rng.gen_range(1..=domain)))
            .collect();
        let p = rng.gen_range(0.0..=pi_max);
        db.relation_mut(hub).push(row, p)?;
    }
    Ok(db)
}

/// Pick a domain size aiming for a target Boolean answer probability
/// (the paper keeps it in `[0.90, 0.95]`): smaller domains mean more
/// matches and higher probability. Walks down from a generous bound using
/// a rough expected-match model.
pub fn find_star_domain(k: usize, n: usize, pi_max: f64, target: f64) -> i64 {
    let avg_p = pi_max / 2.0;
    // Expected satisfied hub tuples: each R0 tuple matches iff every xi is
    // present in Ri (prob ≈ 1 − (1−1/N)^n per unary atom) — and the whole
    // conjunct is true with probability ≈ avg_p^(k+1).
    let expected_prob = |nn: f64| -> f64 {
        let present = 1.0 - (1.0 - 1.0 / nn).powi(n as i32);
        let per_tuple = present.powi(k as i32) * avg_p.powi(k as i32 + 1);
        1.0 - (1.0 - per_tuple).powi(n as i32)
    };
    let mut nn = (n as f64) * 10.0 + 10.0;
    while nn > 2.0 && expected_prob(nn) < target {
        nn /= 1.1;
    }
    (nn.round() as i64).max(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_shape() {
        let q = star_query(3);
        assert_eq!(q.atoms().len(), 4); // R1, R2, R3, R0
        assert!(q.head().is_empty());
        assert_eq!(q.existential_vars().len(), 3);
        // R1's first term is the constant 'a'.
        assert!(matches!(
            q.atoms()[0].terms[0],
            lapush_query::Term::Const(_)
        ));
    }

    #[test]
    fn db_sizes() {
        let db = star_db(3, 100, 1000, 0.5, 11).unwrap();
        assert_eq!(db.relation_by_name("R1").unwrap().len(), 100);
        assert_eq!(db.relation_by_name("R2").unwrap().len(), 100);
        assert_eq!(db.relation_by_name("R0").unwrap().len(), 100);
        assert_eq!(db.relation_by_name("R0").unwrap().arity(), 3);
    }

    #[test]
    fn small_domain_caps_distinct_tuples() {
        let db = star_db(2, 100, 5, 0.5, 1).unwrap();
        assert_eq!(db.relation_by_name("R2").unwrap().len(), 5);
        assert_eq!(db.relation_by_name("R1").unwrap().len(), 5);
        // Hub capacity is domain^k = 25.
        assert_eq!(db.relation_by_name("R0").unwrap().len(), 25);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = star_db(2, 30, 10, 0.5, 5).unwrap();
        let b = star_db(2, 30, 10, 0.5, 5).unwrap();
        assert_eq!(
            a.relation_by_name("R0").unwrap().rows(),
            b.relation_by_name("R0").unwrap().rows()
        );
    }

    #[test]
    fn domain_search_sane() {
        let d = find_star_domain(2, 1000, 1.0, 0.92);
        assert!(d >= 2);
        // Lower target probability allows larger domains.
        let d_low = find_star_domain(2, 1000, 1.0, 0.2);
        assert!(d_low >= d);
    }
}
