//! E7 — Example 2.1(c): the lazy↔eager crossover as occurrence count
//! grows.
//!
//! Claim reproduced: when the relation names affected by the hypothetical
//! update "occur only once or twice" in the query, lazy substitution is
//! cheap; as the body references the affected relation more and more
//! times, the lazy strategy re-derives the hypothetical relation per
//! occurrence while the eager strategy materializes it once — a crossover
//! the planner's Auto mode should straddle.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use hypoquery_bench::workload::{e7_query, two_table_db};
use hypoquery_core::{fully_lazy, to_enf_query, RewriteTrace};
use hypoquery_eval::{algorithm_hql2, eval_pure};
use hypoquery_opt::{plan, Statistics};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e7_crossover");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    let db = two_table_db(20_000, 20_000, 20_000, 6);
    let stats = Statistics::of(&db);

    for &m in &[1usize, 2, 4, 8, 16] {
        let q = e7_query(m);
        let enf = to_enf_query(&q, &mut RewriteTrace::new());

        g.bench_with_input(BenchmarkId::new("lazy", m), &m, |b, _| {
            b.iter(|| {
                let reduced = fully_lazy(&q, &mut RewriteTrace::new());
                eval_pure(&reduced, &db).unwrap().len()
            })
        });
        g.bench_with_input(BenchmarkId::new("eager_hql2", m), &m, |b, _| {
            b.iter(|| algorithm_hql2(&enf, &db).unwrap().len())
        });
        g.bench_with_input(BenchmarkId::new("auto", m), &m, |b, _| {
            b.iter(|| {
                let p = plan(&q, db.catalog(), &stats);
                p.execute_legacy(&db).unwrap().len()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
