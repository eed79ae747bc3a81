//! E11 — snapshot-shared secondary indexes.
//!
//! Two claims:
//!
//! 1. **Point-equality selects probe, not scan.** With an index declared
//!    on `R.#0`, `σ_{#0=k}(R)` at 100k rows lowers to an `IndexProbe`
//!    and is answered from a hash probe; the undeclared baseline lowers
//!    to a full scan plus filter.
//! 2. **CoW branches share the built index.** The index is cached in the
//!    relation's shared storage, so 8 what-if branches that mutate
//!    *other* relations all reuse the one physical index — zero rebuilds
//!    (asserted by the `report` binary, measured here).
//!
//! Each iteration lowers and executes the query on the pipelined
//! executor; statistics are computed once per state, outside the timing.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use hypoquery_algebra::{CmpOp, Query};
use hypoquery_bench::workload::{sel, two_table_db};
use hypoquery_opt::{lower_query, Statistics};
use hypoquery_storage::{tuple, DatabaseState, RelName};

const ROWS: usize = 100_000;

/// Lower and run `σ_{#0=k}(R)` in `db` under its precomputed statistics.
fn run_point(k: i64, db: &DatabaseState, stats: &Statistics) -> usize {
    let plan = lower_query(&sel(Query::base("R"), CmpOp::Eq, k), db.catalog(), stats);
    plan.unwrap().execute(db).unwrap().len()
}

/// The base state, optionally with an index declared on `R.#0`.
fn db(indexed: bool) -> DatabaseState {
    let mut db = two_table_db(ROWS, ROWS, ROWS as i64, 11);
    if indexed {
        db.declare_index(RelName::new("R"), 0).unwrap();
        // Warm the build so the timed series measures steady-state probes.
        run_point(0, &db, &Statistics::of(&db));
    }
    db
}

fn bench_point_select(c: &mut Criterion) {
    let scan_db = db(false);
    let indexed_db = db(true);
    let mut g = c.benchmark_group("e11_point_select");
    g.sample_size(20).measurement_time(Duration::from_secs(2));
    for (name, state) in [("scan", &scan_db), ("indexed", &indexed_db)] {
        let stats = Statistics::of(state);
        g.bench_with_input(BenchmarkId::new(name, ROWS), state, |b, s| {
            let mut k = 0i64;
            b.iter(|| {
                k = (k + 7919) % ROWS as i64;
                run_point(k, s, &stats)
            })
        });
    }
    g.finish();
}

fn bench_branch_reuse(c: &mut Criterion) {
    let base = db(true);
    // 8 CoW branches, each mutating S: R's storage — and with it the
    // cached index — stays shared across every branch.
    let branches: Vec<(DatabaseState, Statistics)> = (0..8i64)
        .map(|i| {
            let mut b = base.clone();
            b.insert_row("S", tuple![ROWS as i64 + i, -i]).unwrap();
            let stats = Statistics::of(&b);
            (b, stats)
        })
        .collect();
    let mut g = c.benchmark_group("e11_branch_reuse");
    g.sample_size(20).measurement_time(Duration::from_secs(2));
    g.bench_with_input(
        BenchmarkId::new("probe_8_branches", ROWS),
        &branches,
        |b, bs| {
            let mut k = 0i64;
            b.iter(|| {
                k = (k + 7919) % ROWS as i64;
                bs.iter()
                    .map(|(s, stats)| run_point(k, s, stats))
                    .sum::<usize>()
            })
        },
    );
    g.finish();
}

criterion_group!(benches, bench_point_select, bench_branch_reuse);
criterion_main!(benches);
