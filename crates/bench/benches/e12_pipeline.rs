//! E12 — pipelined physical execution vs. materializing tree-walkers.
//!
//! The physical operator layer streams tuples through deep
//! select/project/join chains in one pass; the legacy walkers
//! materialize a `BTreeSet` per operator. This bench runs the same
//! prepared query form (lazy-reduced, ENF, modified ENF) through both
//! executors, so any gap is purely the execution model:
//!
//! * `select_chain` — 8 stacked range selections, each keeping most of
//!   the remaining rows (the worst case for per-node materialization);
//! * `join_chain` — the chain fed into an equi-join, projected, and
//!   filtered twice more.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use hypoquery_algebra::{Query, StateExpr};
use hypoquery_bench::workload::{e12_join_chain, e12_select_chain, e5_update, two_table_db};
use hypoquery_core::{fully_lazy, to_enf_query, to_mod_enf, RewriteTrace};
use hypoquery_eval::{algorithm_hql2, algorithm_hql3, eval_pure};
use hypoquery_opt::{lower_query, optimize, Statistics};
use hypoquery_storage::DatabaseState;

const ROWS: usize = 10_000;

/// Each strategy's prepared logical form: the optimized lazy reduction,
/// and the ENF and modified ENF forms as normalized, before the planner's
/// simplification (the `report` binary covers 100k rows; criterion stays
/// at 10k to keep wall-clock sane).
fn prepared(q: &Query, db: &DatabaseState) -> Vec<(&'static str, Query)> {
    let reduced = optimize(&fully_lazy(q, &mut RewriteTrace::new()), db.catalog()).0;
    let enf = to_enf_query(q, &mut RewriteTrace::new());
    let modq = to_mod_enf(q).unwrap();
    vec![("lazy", reduced), ("hql2", enf), ("hql3", modq)]
}

fn legacy_eval(strat: &str, pq: &Query, db: &DatabaseState) -> usize {
    match strat {
        "lazy" => eval_pure(pq, db).unwrap().len(),
        "hql2" => algorithm_hql2(pq, db).unwrap().len(),
        "hql3" => algorithm_hql3(pq, db).unwrap().len(),
        other => panic!("unknown strategy {other}"),
    }
}

fn bench_chains(c: &mut Criterion) {
    let db = two_table_db(ROWS, ROWS, ROWS as i64, 7);
    let stats = Statistics::of(&db);
    let u = e5_update(&db, 0.05);
    for (shape, body) in [
        ("select_chain", e12_select_chain(8, ROWS as i64)),
        ("join_chain", e12_join_chain(6, ROWS as i64, ROWS)),
    ] {
        let q = body.when(StateExpr::update(u.clone()));
        let mut g = c.benchmark_group(format!("e12_{shape}"));
        g.sample_size(10).measurement_time(Duration::from_secs(2));
        for (strat, pq) in prepared(&q, &db) {
            g.bench_with_input(
                BenchmarkId::new(format!("{strat}_legacy"), ROWS),
                &pq,
                |b, pq| b.iter(|| legacy_eval(strat, pq, &db)),
            );
            let phys = lower_query(&pq, db.catalog(), &stats).unwrap();
            // Both executors must agree before we time anything.
            assert_eq!(
                phys.execute(&db).unwrap().len(),
                legacy_eval(strat, &pq, &db)
            );
            g.bench_with_input(
                BenchmarkId::new(format!("{strat}_pipelined"), ROWS),
                &phys,
                |b, phys| b.iter(|| phys.execute(&db).unwrap().len()),
            );
        }
        g.finish();
    }
}

criterion_group!(benches, bench_chains);
criterion_main!(benches);
