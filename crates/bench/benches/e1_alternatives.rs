//! E1 — Example 2.1: eager vs lazy vs planner on the alternatives query.
//!
//! Claim reproduced: the lazy strategy rewrites query (1) to `∅` and its
//! cost is independent of the data size, while the eager strategies pay
//! for materializing and joining the hypothetical relations; the planner
//! (Auto) should track the lazy side on this query.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use hypoquery_bench::workload::{e1_query, two_table_db};
use hypoquery_core::{fully_lazy, to_enf_query, RewriteTrace};
use hypoquery_eval::{algorithm_hql1, algorithm_hql2, eval_pure};
use hypoquery_opt::{optimize, plan, Statistics};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e1_alternatives");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    for &n in &[1_000usize, 10_000, 50_000] {
        let keys = (10 * n) as i64;
        let db = two_table_db(n, n, keys, 1);
        let q = e1_query(keys * 3 / 10, keys * 6 / 10);
        let enf = to_enf_query(&q, &mut RewriteTrace::new());
        let stats = Statistics::of(&db);

        g.bench_with_input(BenchmarkId::new("eager_hql1", n), &n, |b, _| {
            b.iter(|| algorithm_hql1(&enf, &db).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("eager_hql2", n), &n, |b, _| {
            b.iter(|| algorithm_hql2(&enf, &db).unwrap())
        });
        // Lazy end-to-end: reduce, simplify, evaluate (the evaluation is
        // of ∅ — the point of the claim).
        g.bench_with_input(BenchmarkId::new("lazy", n), &n, |b, _| {
            b.iter(|| {
                let reduced = fully_lazy(&q, &mut RewriteTrace::new());
                let (optimized, _) = optimize(&reduced, db.catalog());
                eval_pure(&optimized, &db).unwrap()
            })
        });
        // Planner-chosen strategy end-to-end (plan + execute).
        g.bench_with_input(BenchmarkId::new("auto", n), &n, |b, _| {
            b.iter(|| plan(&q, db.catalog(), &stats).execute_legacy(&db).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
