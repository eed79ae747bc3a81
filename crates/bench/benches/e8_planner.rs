//! E8 — the planner across the whole spectrum: Auto vs the best and worst
//! fixed strategies on one scenario from each other experiment.
//!
//! Claim reproduced: the framework's point is that no single fixed
//! strategy wins everywhere; a planner navigating the EQUIV_when space
//! should be near the per-scenario best (and far from the per-scenario
//! worst).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use hypoquery_algebra::{Query, StateExpr};
use hypoquery_bench::workload::{e1_query, e5_update, e7_query, rs_join, two_table_db};
use hypoquery_core::{fully_lazy, to_enf_query, to_mod_enf, RewriteTrace};
use hypoquery_eval::{algorithm_hql2, algorithm_hql3, eval_pure};
use hypoquery_opt::{optimize, plan, Statistics};
use hypoquery_storage::DatabaseState;

fn scenarios(db: &DatabaseState) -> Vec<(&'static str, Query)> {
    vec![
        ("empty_provable", e1_query(6_000, 12_000)),
        (
            "small_delta_join",
            rs_join().when(StateExpr::update(e5_update(db, 0.02))),
        ),
        ("many_occurrences", e7_query(8)),
    ]
}

fn run_fixed(q: &Query, db: &DatabaseState, strategy: &str) -> usize {
    match strategy {
        "lazy" => {
            let reduced = fully_lazy(q, &mut RewriteTrace::new());
            let (optimized, _) = optimize(&reduced, db.catalog());
            eval_pure(&optimized, db).unwrap().len()
        }
        "hql2" => {
            let enf = to_enf_query(q, &mut RewriteTrace::new());
            algorithm_hql2(&enf, db).unwrap().len()
        }
        "hql3" => match to_mod_enf(q) {
            Ok(m) => algorithm_hql3(&m, db).unwrap().len(),
            Err(_) => {
                let enf = to_enf_query(q, &mut RewriteTrace::new());
                algorithm_hql2(&enf, db).unwrap().len()
            }
        },
        _ => unreachable!(),
    }
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e8_planner");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    let db = two_table_db(20_000, 20_000, 20_000, 8);
    let stats = Statistics::of(&db);

    for (name, q) in scenarios(&db) {
        for fixed in ["lazy", "hql2", "hql3"] {
            g.bench_with_input(
                BenchmarkId::new(format!("fixed_{fixed}"), name),
                name,
                |b, _| b.iter(|| run_fixed(&q, &db, fixed)),
            );
        }
        g.bench_with_input(BenchmarkId::new("auto", name), name, |b, _| {
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
