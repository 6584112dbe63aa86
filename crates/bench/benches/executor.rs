//! Criterion micro-benchmarks: the physical operators and full plan
//! evaluation over data.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lapushdb::core::minimal_plans;
use lapushdb::prelude::*;
use lapushdb::workload::{chain_db, chain_query, find_chain_domain};

fn setup(k: usize, n: usize) -> (Database, Query) {
    let domain = find_chain_domain(k, n, 35.0);
    let db = chain_db(k, n, domain, 1.0, 42).expect("db");
    (db, chain_query(k))
}

fn bench_eval_single_plan(c: &mut Criterion) {
    let mut g = c.benchmark_group("eval_one_plan_chain4");
    g.sample_size(10);
    for n in [1_000usize, 10_000, 50_000] {
        let (db, q) = setup(4, n);
        let shape = QueryShape::of_query(&q);
        let plan = minimal_plans(&shape).remove(0);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                eval_plan(&db, &q, &plan, ExecOptions::default())
                    .expect("eval")
                    .len()
            })
        });
    }
    g.finish();
}

fn bench_deterministic_baseline(c: &mut Criterion) {
    let mut g = c.benchmark_group("deterministic_sql_chain4");
    g.sample_size(10);
    for n in [1_000usize, 10_000, 50_000] {
        let (db, q) = setup(4, n);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| deterministic_answers(&db, &q, 1).expect("eval").len())
        });
    }
    g.finish();
}

fn bench_semijoin_reduction(c: &mut Criterion) {
    let mut g = c.benchmark_group("semijoin_reduction_chain4");
    g.sample_size(10);
    for n in [1_000usize, 10_000] {
        let (db, q) = setup(4, n);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| reduce_database(&db, &q).tuple_count())
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_eval_single_plan,
    bench_deterministic_baseline,
    bench_semijoin_reduction
);
criterion_main!(benches);
