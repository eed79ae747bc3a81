//! Experiment runner: the one definition of every experiment (E1–E12).
//! Each experiment runs its cases with median wall-clock timing, prints the
//! paper-claim-vs-measured table that EXPERIMENTS.md records, and writes
//! what it measured to `BENCH_<id>.json` in the current directory:
//!
//! ```text
//! {"experiment": "e5", "quick": false, "cpus": 2,
//!  "metrics": {"<key>": {"value": 123.4, "unit": "ns"}}}
//! ```
//!
//! Every table cell is formatted from a recorded metric; timings are
//! medians in `ns`, the rest are `count`s or `ratio`s.
//!
//! Run every experiment with `cargo run --release -p hypoquery-bench --bin
//! report`, or name some: `… --bin report -- e5 e12` runs and writes only
//! those. An unknown id exits with status 2 and lists the valid ones.
//! (A debug build measures the same shapes, ~20× slower.)
//!
//! Set `HYPOQUERY_BENCH_QUICK=1` for a smoke run (CI): the same
//! experiments over ~20× smaller relations with minimal repetitions —
//! numbers are not meaningful, but every code path runs and every
//! selected `BENCH_*.json` file is written.

use std::time::Instant;

use hypoquery_algebra::{AggExpr, CmpOp, Predicate, Query, StateExpr, Update};
use hypoquery_bench::workload::{
    e12_join_chain, e12_select_chain, e1_query, e2_family, e2_state, e3_db, e3_update, e4_db,
    e4_query, e5_update, e7_query, e9_db, e9_scenarios, rs_join, sel, two_table_db,
};
use hypoquery_core::{
    fully_lazy, lazy_state, red_query, red_state, sub_query, to_enf_query, to_mod_enf, RewriteTrace,
};
use hypoquery_eval::physical::{PhysNode, PhysOp, PhysPlan};
use hypoquery_eval::{
    algorithm_hql1, algorithm_hql2, algorithm_hql3, eval_pure, filter1, materialize_subst,
    XsubValue,
};
use hypoquery_opt::{lower_query, optimize, plan, reduce_optimized, Statistics};
use hypoquery_storage::{tuple, DatabaseState, RelName, Relation};

/// An experiment: runs its cases, prints its table, records into the JSON.
type Experiment = fn(&mut BenchJson);

/// Every experiment, in report order.
const EXPERIMENTS: [(&str, Experiment); 12] = [
    ("e1", e1),
    ("e2", e2),
    ("e3", e3),
    ("e4", e4),
    ("e5", e5),
    ("e6", e6),
    ("e7", e7),
    ("e8", e8),
    ("e9", e9),
    ("e10", e10),
    ("e11", e11),
    ("e12", e12),
];

/// The experiments named by `ids`, in report order; all of them when `ids`
/// is empty. An unknown id is an error listing the valid ones.
fn select(ids: &[String]) -> Result<Vec<(&'static str, Experiment)>, String> {
    if let Some(bad) = ids
        .iter()
        .find(|id| !EXPERIMENTS.iter().any(|(e, _)| e == id))
    {
        let valid: Vec<&str> = EXPERIMENTS.iter().map(|(e, _)| *e).collect();
        return Err(format!(
            "unknown experiment `{bad}`; valid ids: {}",
            valid.join(" ")
        ));
    }
    Ok(EXPERIMENTS
        .into_iter()
        .filter(|(e, _)| ids.is_empty() || ids.iter().any(|id| id == e))
        .collect())
}

fn main() {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    let selected = select(&ids).unwrap_or_else(|e| {
        eprintln!("report: {e}");
        std::process::exit(2)
    });
    println!("# hypoquery experiment report\n");
    for (id, run) in selected {
        let mut json = BenchJson::new(id);
        run(&mut json);
        json.write();
    }
}

/// `HYPOQUERY_BENCH_QUICK` selects the CI smoke configuration.
fn quick() -> bool {
    std::env::var_os("HYPOQUERY_BENCH_QUICK").is_some()
}

/// Relation sizes: full scale, or ~20× smaller in quick mode.
fn scaled(n: usize) -> usize {
    if quick() {
        (n / 20).max(50)
    } else {
        n
    }
}

/// Repetition counts for median timings: minimal in quick mode.
fn reps(n: usize) -> usize {
    if quick() {
        3
    } else {
        n
    }
}

/// One run of `f`: its wall time in nanoseconds.
fn sample_ns(f: &mut impl FnMut() -> usize) -> f64 {
    let t = Instant::now();
    std::hint::black_box(f());
    t.elapsed().as_nanos() as f64
}

/// The median of `samples`.
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The unit of a recorded metric.
#[derive(Clone, Copy)]
enum Unit {
    /// A median wall time.
    Ns,
    /// A count (nodes, rebuilds).
    Count,
    /// A dimensionless ratio (speedups, overheads).
    Ratio,
}

impl Unit {
    fn name(self) -> &'static str {
        match self {
            Unit::Ns => "ns",
            Unit::Count => "count",
            Unit::Ratio => "ratio",
        }
    }
}

/// One experiment's recorded metrics, written as `BENCH_<id>.json`.
struct BenchJson {
    id: &'static str,
    metrics: Vec<(String, f64, Unit)>,
}

impl BenchJson {
    fn new(id: &'static str) -> Self {
        BenchJson {
            id,
            metrics: Vec::new(),
        }
    }

    /// Record and return the median of `reps` (at least 3) timings of
    /// `f`, in ns.
    fn time(&mut self, key: &str, reps: usize, mut f: impl FnMut() -> usize) -> f64 {
        let median = median((0..reps.max(3)).map(|_| sample_ns(&mut f)).collect());
        self.record(key, median, Unit::Ns);
        median
    }

    /// Record under `keys` and return the medians of `reps` (at least 3)
    /// timings each of `a` and `b`, taken alternately (`a`, `b`, `a`, …)
    /// so that host drift hits both sides alike. Every ratio of two
    /// timings is taken from one such pair.
    fn time_pair(
        &mut self,
        keys: [&str; 2],
        reps: usize,
        mut a: impl FnMut() -> usize,
        mut b: impl FnMut() -> usize,
    ) -> (f64, f64) {
        let (mut sa, mut sb) = (Vec::new(), Vec::new());
        for _ in 0..reps.max(3) {
            sa.push(sample_ns(&mut a));
            sb.push(sample_ns(&mut b));
        }
        let (ma, mb) = (median(sa), median(sb));
        self.record(keys[0], ma, Unit::Ns);
        self.record(keys[1], mb, Unit::Ns);
        (ma, mb)
    }

    /// Record one metric; keys are unique within an experiment.
    fn record(&mut self, key: &str, value: f64, unit: Unit) {
        assert!(value.is_finite(), "{}: metric {key} is {value}", self.id);
        assert!(
            self.metrics.iter().all(|(k, _, _)| k != key),
            "{}: duplicate metric {key}",
            self.id
        );
        self.metrics.push((key.to_string(), value, unit));
    }

    fn render(&self, quick: bool, cpus: usize) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(key, value, unit)| {
                let unit = unit.name();
                format!("    \"{key}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\n  \"experiment\": \"{}\",\n  \"quick\": {quick},\n  \"cpus\": {cpus},\n  \"metrics\": {{\n{}\n  }}\n}}\n",
            self.id,
            metrics.join(",\n")
        )
    }

    fn write(self) {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let path = format!("BENCH_{}.json", self.id);
        std::fs::write(&path, self.render(quick(), cpus))
            .unwrap_or_else(|e| panic!("could not write {path}: {e}"));
        println!("wrote {path}\n");
    }
}

/// A row count as a key fragment: `100000` → `100k`, `5000` → `5k`.
fn kilo(n: usize) -> String {
    if n.is_multiple_of(1000) {
        format!("{}k", n / 1000)
    } else {
        n.to_string()
    }
}

/// A median in ns as a millisecond table cell.
fn ms(ns: f64) -> String {
    if ns < 1e5 {
        format!("{:.3}", ns / 1e6)
    } else {
        format!("{:.2}", ns / 1e6)
    }
}

/// A median in ns as a table cell in its natural unit.
fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// The planner's choice, planned and run end to end (on the oracle walkers).
fn auto(q: &Query, db: &DatabaseState, stats: &Statistics) -> usize {
    plan(q, db.catalog(), stats)
        .execute_legacy(db)
        .unwrap()
        .len()
}

fn e1(json: &mut BenchJson) {
    println!("## E1 — Example 2.1: eager vs lazy on the alternatives query");
    println!("paper claim: lazy rewriting proves the query ≡ ∅ with no data access;");
    println!("eager cost grows with |R|,|S|.\n");
    println!(
        "| rows | eager HQL-1 (ms) | eager HQL-2 (ms) | lazy (ms) | auto (ms) | auto picked |"
    );
    println!("|---:|---:|---:|---:|---:|:--|");
    for n in [scaled(1_000), scaled(10_000), scaled(50_000)] {
        let keys = (10 * n) as i64;
        let db = two_table_db(n, n, keys, 1);
        let q = e1_query(keys * 3 / 10, keys * 6 / 10);
        let enf = to_enf_query(&q, &mut RewriteTrace::new());
        let stats = Statistics::of(&db);
        let t1 = json.time(&format!("eager_hql1_{n}"), 3, || {
            algorithm_hql1(&enf, &db).unwrap().len()
        });
        let t2 = json.time(&format!("eager_hql2_{n}"), 3, || {
            algorithm_hql2(&enf, &db).unwrap().len()
        });
        let tl = json.time(&format!("lazy_{n}"), 3, || {
            let reduced = fully_lazy(&q, &mut RewriteTrace::new());
            let (optimized, _) = optimize(&reduced, db.catalog());
            let rows = eval_pure(&optimized, &db).unwrap().len();
            assert_eq!(rows, 0);
            rows
        });
        let picked = plan(&q, db.catalog(), &stats).strategy;
        let ta = json.time(&format!("auto_{n}"), 3, || auto(&q, &db, &stats));
        println!(
            "| {n} | {} | {} | {} | {} | {picked} |",
            ms(t1),
            ms(t2),
            ms(tl),
            ms(ta)
        );
    }
    println!();
}

fn e2(json: &mut BenchJson) {
    println!("## E2 — Example 2.2: composition amortizes over a query family");
    println!("paper claim: computing the composed substitution once 'might reduce");
    println!("work' when many queries hit the same hypothetical state.\n");
    println!(
        "| k queries | naive per-query (ms) | compose-once eager (ms) | compose-once lazy (ms) |"
    );
    println!("|---:|---:|---:|---:|");
    let n = scaled(20_000);
    let db = two_table_db(n, n, 100, 2);
    let eta = e2_state(30, 60);
    for k in [1usize, 4, 16, 64] {
        let family = e2_family(k);
        // Naive: every member re-normalizes and re-materializes the state.
        let tn = json.time(&format!("naive_per_query_{k}"), 3, || {
            family
                .iter()
                .map(|q| {
                    let hq = q.clone().when(eta.clone());
                    let enf = to_enf_query(&hq, &mut RewriteTrace::new());
                    algorithm_hql2(&enf, &db).unwrap().len()
                })
                .sum()
        });
        // Composed once, materialized once, reused k times.
        let te = json.time(&format!("compose_once_eager_{k}"), 3, || {
            let rho = lazy_state(&eta, &mut RewriteTrace::new());
            let e = materialize_subst(&rho, &db).unwrap();
            family
                .iter()
                .map(|q| filter1(q, &e, &db).unwrap().len())
                .sum()
        });
        // Composed once, substituted into each query.
        let tl = json.time(&format!("compose_once_lazy_{k}"), 3, || {
            let rho = lazy_state(&eta, &mut RewriteTrace::new());
            family
                .iter()
                .map(|q| eval_pure(&sub_query(q, &rho).unwrap(), &db).unwrap().len())
                .sum()
        });
        println!("| {k} | {} | {} | {} |", ms(tn), ms(te), ms(tl));
    }
    println!();
}

fn e3(json: &mut BenchJson) {
    println!("## E3 — Example 2.3: binding removal");
    println!("paper claim: dropping the S binding (S not read by the queries)");
    println!("reduces eager data work and lazy optimizer work.\n");
    println!("| rows | eager full subst (ms) | eager binding-removed (ms) | lazy red (ms) | lazy binding-removed (ms) |");
    println!("|---:|---:|---:|---:|---:|");
    for n in [scaled(5_000), scaled(50_000)] {
        let db = e3_db(n, 3);
        let eta = StateExpr::update(e3_update());
        // The family's queries avoid S entirely.
        let q = Query::base("R").union(Query::base("T"));
        let tf = json.time(&format!("eager_full_subst_{n}"), 3, || {
            let rho = red_state(&eta).unwrap();
            let e = materialize_subst(&rho, &db).unwrap();
            filter1(&q, &e, &db).unwrap().len()
        });
        // Restrict to free(q) = {R, T} first: the S slice is never computed.
        let tr = json.time(&format!("eager_binding_removed_{n}"), 3, || {
            let rho = red_state(&eta).unwrap();
            let free = hypoquery_algebra::scope::free_query(&q);
            let restricted: hypoquery_algebra::ExplicitSubst = rho
                .into_bindings()
                .into_iter()
                .filter(|(name, _)| free.contains(name))
                .collect();
            let e = materialize_subst(&restricted, &db).unwrap();
            filter1(&q, &e, &db).unwrap().len()
        });
        let tlr = json.time(&format!("lazy_red_{n}"), 3, || {
            let reduced = red_query(&q.clone().when(eta.clone())).unwrap();
            eval_pure(&reduced, &db).unwrap().len()
        });
        let tlb = json.time(&format!("lazy_binding_removed_{n}"), 3, || {
            let reduced = fully_lazy(&q.clone().when(eta.clone()), &mut RewriteTrace::new());
            eval_pure(&reduced, &db).unwrap().len()
        });
        println!(
            "| {n} | {} | {} | {} | {} |",
            ms(tf),
            ms(tr),
            ms(tlr),
            ms(tlb)
        );
    }
    println!();
}

fn e4(json: &mut BenchJson) {
    println!("## E4 — Example 2.4: exponential blow-up and the rescue");
    println!("paper claims: (a) the lazy equivalent is exponential in n;");
    println!("(b) algebra rewriting finds ∅ cheaply; (c) eager wins on small values.\n");
    println!("| n | input nodes | lazy nodes | lazy red (ms) | rescue (ms) | eager HQL-1 (ms) | lazy then eval (ms) |");
    println!("|---:|---:|---:|---:|---:|---:|---:|");
    let depths: &[usize] = if quick() { &[6, 8] } else { &[6, 10, 14] };
    for &n in depths {
        let (q, catalog) = e4_query(n, None);
        let input_nodes = q.node_count();
        json.record(&format!("input_nodes_{n}"), input_nodes as f64, Unit::Count);
        let mut lazy_nodes = 0;
        let tred = json.time(&format!("lazy_red_products_{n}"), 3, || {
            lazy_nodes = red_query(&q).unwrap().node_count();
            lazy_nodes
        });
        json.record(&format!("lazy_nodes_{n}"), lazy_nodes as f64, Unit::Count);
        // The empty innermost level short-circuits interleaved
        // reduction and simplification.
        let (q_rescue, rescue_catalog) = e4_query(n, Some(1));
        let tres = json.time(&format!("rewriting_rescue_{n}"), 3, || {
            let nodes = reduce_optimized(&q_rescue, &rescue_catalog).0.node_count();
            assert_eq!(nodes, 1); // ∅
            nodes
        });
        // Small Eᵢ values: HQL-1 materializes them level by level, while
        // lazy evaluation still pays the 2ⁿ rewrite.
        let (eager, lazy_eval) = if n <= 10 {
            let db = e4_db(&catalog, 1);
            let enf = to_enf_query(&q, &mut RewriteTrace::new());
            let te = json.time(&format!("eager_small_values_{n}"), 3, || {
                algorithm_hql1(&enf, &db).unwrap().len()
            });
            let tle = json.time(&format!("lazy_then_eval_{n}"), 3, || {
                eval_pure(&red_query(&q).unwrap(), &db).unwrap().len()
            });
            (ms(te), ms(tle))
        } else {
            ("—".to_string(), "—".to_string())
        };
        println!(
            "| {n} | {input_nodes} | {lazy_nodes} | {} | {} | {eager} | {lazy_eval} |",
            ms(tred),
            ms(tres)
        );
    }
    println!();
}

fn e5(json: &mut BenchJson) {
    println!("## E5 — §5.5: join-when overhead vs delta size");
    println!("paper claim (rule of thumb): a delta of x% of the base relations");
    println!("makes join-when only nominally more expensive than the plain join");
    println!("(~22% extra at 2% in Heraclitus); full xsub materialization pays");
    println!("the whole hypothetical relation regardless.\n");
    let n = scaled(50_000);
    let db = two_table_db(n, n, (n as i64) * 10, 4);
    let join = rs_join();
    let tbase = json.time("plain_join_baseline", 3, || {
        eval_pure(&join, &db).unwrap().len()
    });
    println!("plain join baseline: {} ms\n", ms(tbase));
    println!("| delta % | plain join, paired (ms) | join-when only (ms) | overhead vs join | HQL-3 end-to-end (ms) | HQL-2 xsub (ms) |");
    println!("|---:|---:|---:|---:|---:|---:|");
    for pct in [0.5f64, 2.0, 10.0, 25.0, 50.0] {
        let u = e5_update(&db, pct / 100.0);
        let q = join.clone().when(StateExpr::update(u.clone()));
        let modq = to_mod_enf(&q).unwrap();
        let enfq = to_enf_query(&q, &mut RewriteTrace::new());
        // The paper's measured operation: join-when with the delta value
        // already in hand (Heraclitus times the operator, not the delta
        // construction).
        let delta = hypoquery_eval::filter3::filter3_update(
            &hypoquery_core::red_update(&u).unwrap(),
            &hypoquery_eval::DeltaValue::empty(),
            &db,
        )
        .unwrap();
        // The overhead's two sides are timed as one alternating pair.
        let (tb, tjw) = json.time_pair(
            [
                &format!("plain_join_{pct}pct"),
                &format!("join_when_only_{pct}pct"),
            ],
            reps(7),
            || eval_pure(&join, &db).unwrap().len(),
            || {
                hypoquery_eval::eval_filter_d(&join, &delta, &db)
                    .unwrap()
                    .len()
            },
        );
        let overhead = tjw / tb;
        json.record(
            &format!("join_when_overhead_{pct}pct"),
            overhead,
            Unit::Ratio,
        );
        let t3 = json.time(&format!("hql3_join_when_{pct}pct"), 3, || {
            algorithm_hql3(&modq, &db).unwrap().len()
        });
        let t2 = json.time(&format!("hql2_xsub_{pct}pct"), 3, || {
            algorithm_hql2(&enfq, &db).unwrap().len()
        });
        println!(
            "| {pct} | {} | {} | {:+.0}% | {} | {} |",
            ms(tb),
            ms(tjw),
            (overhead - 1.0) * 100.0,
            ms(t3),
            ms(t2)
        );
    }
    println!();
}

fn e6(json: &mut BenchJson) {
    println!("## E6 — §5.4: HQL-1 (node-at-a-time) vs HQL-2 (clustered)");
    println!("paper claim: HQL-1 'does not permit grouping of relational algebra");
    println!("operators into single physical operations'.\n");
    println!("| query | HQL-1 (ms) | HQL-2 (ms) |");
    println!("|:--|---:|---:|");
    let n = scaled(30_000);
    let db = two_table_db(n, n, 5_000, 5);
    let eta = StateExpr::update(Update::insert("R", sel(Query::base("S"), CmpOp::Gt, 30)));
    let rs = || Query::base("R").join(Query::base("S"), Predicate::col_col(0, CmpOp::Eq, 2));
    let cases = [
        (
            "join_select",
            "R ⋈ σ(S)",
            Query::base("R").join(
                sel(Query::base("S"), CmpOp::Lt, 70),
                Predicate::col_col(0, CmpOp::Eq, 2),
            ),
        ),
        (
            "select_join_project",
            "π(σ(R ⋈ S))",
            rs().select(Predicate::col_cmp(1, CmpOp::Gt, 100))
                .project([0, 3]),
        ),
        (
            "union_of_joins",
            "R ⋈ S ∪ σ(R) ⋈ S",
            rs().union(
                sel(Query::base("R"), CmpOp::Le, 50)
                    .join(Query::base("S"), Predicate::col_col(1, CmpOp::Eq, 3)),
            ),
        ),
    ];
    for (key, name, body) in cases {
        let enf = to_enf_query(&body.when(eta.clone()), &mut RewriteTrace::new());
        let t1 = json.time(&format!("hql1_{key}"), 3, || {
            algorithm_hql1(&enf, &db).unwrap().len()
        });
        let t2 = json.time(&format!("hql2_{key}"), 3, || {
            algorithm_hql2(&enf, &db).unwrap().len()
        });
        println!("| {name} | {} | {} |", ms(t1), ms(t2));
    }
    println!();
}

fn e7(json: &mut BenchJson) {
    println!("## E7 — Example 2.1(c): lazy↔eager crossover by occurrence count");
    println!("paper claim: lazy wins when affected names 'occur only once or");
    println!("twice'; eager wins as occurrences grow.\n");
    println!("| occurrences | lazy (ms) | eager HQL-2 (ms) | auto (ms) | auto picked |");
    println!("|---:|---:|---:|---:|:--|");
    let n = scaled(20_000);
    let db = two_table_db(n, n, n as i64, 6);
    let stats = Statistics::of(&db);
    for m in [1usize, 2, 4, 8, 16] {
        let q = e7_query(m);
        let enf = to_enf_query(&q, &mut RewriteTrace::new());
        let tl = json.time(&format!("lazy_{m}"), 3, || {
            let reduced = fully_lazy(&q, &mut RewriteTrace::new());
            eval_pure(&reduced, &db).unwrap().len()
        });
        let te = json.time(&format!("eager_hql2_{m}"), 3, || {
            algorithm_hql2(&enf, &db).unwrap().len()
        });
        let picked = plan(&q, db.catalog(), &stats).strategy;
        let ta = json.time(&format!("auto_{m}"), 3, || auto(&q, &db, &stats));
        println!("| {m} | {} | {} | {} | {picked} |", ms(tl), ms(te), ms(ta));
    }
    println!();
}

fn e8(json: &mut BenchJson) {
    println!("## E8 — planner vs fixed strategies across scenarios");
    println!("claim: no fixed strategy wins everywhere; Auto tracks the best.\n");
    println!("| scenario | lazy (ms) | HQL-2 (ms) | HQL-3 (ms) | auto (ms) | auto picked |");
    println!("|:--|---:|---:|---:|---:|:--|");
    let n = scaled(20_000);
    let db = two_table_db(n, n, n as i64, 8);
    let stats = Statistics::of(&db);
    let scenarios = [
        ("empty_provable", "E1", e1_query(6_000, 12_000)),
        (
            "small_delta_join",
            "E5",
            rs_join().when(StateExpr::update(e5_update(&db, 0.02))),
        ),
        ("many_occurrences", "E7", e7_query(8)),
    ];
    for (name, from, q) in &scenarios {
        let tl = json.time(&format!("fixed_lazy_{name}"), 3, || {
            let reduced = fully_lazy(q, &mut RewriteTrace::new());
            let (optimized, _) = optimize(&reduced, db.catalog());
            eval_pure(&optimized, &db).unwrap().len()
        });
        let enf = to_enf_query(q, &mut RewriteTrace::new());
        let t2 = json.time(&format!("fixed_hql2_{name}"), 3, || {
            algorithm_hql2(&enf, &db).unwrap().len()
        });
        // HQL-3 needs a mod-ENF form; without one the cell stays empty.
        let t3 = match to_mod_enf(q) {
            Ok(m) => ms(json.time(&format!("fixed_hql3_{name}"), 3, || {
                algorithm_hql3(&m, &db).unwrap().len()
            })),
            Err(_) => "—".to_string(),
        };
        let picked = plan(q, db.catalog(), &stats).strategy;
        let ta = json.time(&format!("auto_{name}"), 3, || auto(q, &db, &stats));
        println!(
            "| {name} ({from}) | {} | {} | {t3} | {} | {picked} |",
            ms(tl),
            ms(t2),
            ms(ta)
        );
    }
    println!();

    // Planning alone (uncached `plan`, statistics computed once): the
    // scenarios above, plus perfbench `branch`'s key lookup and range
    // aggregate in its what-if state.
    let sel_col = |rel: &str, col, op, v| Query::base(rel).select(Predicate::col_cmp(col, op, v));
    let branch = StateExpr::update(
        Update::delete("R", sel_col("R", 1, CmpOp::Lt, 300))
            .then(Update::insert("R", sel_col("S", 0, CmpOp::Ge, 2900))),
    );
    let branch_lookup = sel_col("R", 0, CmpOp::Eq, 1234).when(branch.clone());
    let branch_range = sel_col("R", 0, CmpOp::Lt, 200)
        .aggregate(vec![], vec![AggExpr::Count, AggExpr::Sum(1)])
        .when(branch);
    println!("| query | plan |");
    println!("|:--|---:|");
    let planned = scenarios.into_iter().map(|(name, _, q)| (name, q)).chain([
        ("branch_lookup", branch_lookup),
        ("branch_range", branch_range),
    ]);
    for (name, q) in planned {
        let t = json.time(&format!("plan_{name}"), reps(201), || {
            plan(&q, db.catalog(), &stats).candidates.len()
        });
        println!("| {name} | {} |", fmt_ns(t));
    }
    println!();
}

/// What cloning a state cost before shared storage: every tuple set rebuilt.
fn deep_copy(state: &DatabaseState) -> DatabaseState {
    let mut out = DatabaseState::new(state.catalog().clone());
    for (name, rel) in state.iter() {
        let copy = Relation::from_rows(rel.arity(), rel.iter().cloned()).unwrap();
        out.set(name.clone(), copy).unwrap();
    }
    out
}

fn e9(json: &mut BenchJson) {
    use hypoquery_engine::Strategy;

    println!("## E9 — copy-on-write snapshots + parallel multi-scenario executor");
    println!("claims: state snapshots are O(#relations) pointer bumps, not O(data);");
    println!("k independent what-if branches over one base share it physically and");
    println!("fan out across cores (speedup ~min(k, cores)× when work dominates).\n");

    let rows = scaled(100_000);
    let size = kilo(rows);
    let state = two_table_db(rows, rows, 1000, 9);
    println!("| config | median |");
    println!("|:--|---:|");
    let t = json.time(&format!("clone_cow_{size}"), reps(101), || {
        state.clone().total_tuples()
    });
    println!(
        "| `DatabaseState::clone` (CoW, {rows} rows) | {} |",
        fmt_ns(t)
    );
    let t = json.time(&format!("clone_deep_{size}"), reps(5), || {
        deep_copy(&state).total_tuples()
    });
    println!("| deep copy (pre-CoW cost model) | {} |", fmt_ns(t));

    // A one-binding xsub-value: applying it must not copy R or S.
    let small = Relation::from_rows(2, (0..64i64).map(|i| tuple![i, -i])).unwrap();
    let xsub = XsubValue::new([("S".into(), small.clone())]);
    let (r, s) = (RelName::new("R"), RelName::new("S"));
    let applied = xsub.apply(&state).unwrap();
    assert!(applied.get(&r).unwrap().ptr_eq(&state.get(&r).unwrap()));
    assert!(applied.get(&s).unwrap().ptr_eq(&small));
    let t = json.time(&format!("xsub_apply_{size}"), reps(101), || {
        xsub.apply(&state).unwrap().total_tuples()
    });
    println!(
        "| `XsubValue::apply`, one 64-row binding over {rows} rows | {} |",
        fmt_ns(t)
    );

    let db = e9_db(rows, 9);
    let mut speedups = Vec::new();
    for k in [2usize, 8] {
        let scenarios = e9_scenarios(k);
        // The seed's cost model: every scenario snapshot deep-copies the
        // base state before evaluating.
        let t_deep = json.time(
            &format!("scenarios_deepcopy_seq_{k}x{size}"),
            reps(5),
            || {
                scenarios
                    .iter()
                    .map(|q| {
                        std::hint::black_box(deep_copy(db.state()));
                        db.execute(q, Strategy::Lazy).unwrap().len()
                    })
                    .sum()
            },
        );
        println!(
            "| {k} scenarios, deep snapshot each (seed cost model) | {} |",
            fmt_ns(t_deep)
        );
        let (t_seq, t_par) = json.time_pair(
            [
                &format!("scenarios_cow_seq_{k}x{size}"),
                &format!("scenarios_cow_par_{k}x{size}"),
            ],
            reps(5),
            || {
                scenarios
                    .iter()
                    .map(|q| db.execute(q, Strategy::Lazy).unwrap().len())
                    .sum()
            },
            || {
                db.execute_many(&scenarios, Strategy::Lazy)
                    .unwrap()
                    .iter()
                    .map(|r| r.len())
                    .sum()
            },
        );
        println!(
            "| {k} scenarios, CoW snapshots, sequential | {} |",
            fmt_ns(t_seq)
        );
        println!(
            "| {k} scenarios, CoW snapshots, parallel ({} workers) | {} |",
            hypoquery_eval::num_workers(),
            fmt_ns(t_par)
        );
        let (seq, par, fanout) = (t_deep / t_seq, t_deep / t_par, t_seq / t_par);
        json.record(&format!("speedup_seq_{k}x{size}"), seq, Unit::Ratio);
        json.record(&format!("speedup_par_{k}x{size}"), par, Unit::Ratio);
        json.record(&format!("fanout_{k}x{size}"), fanout, Unit::Ratio);
        speedups.push(format!(
            "k={k}: sequential {seq:.1}×, parallel {par:.1}× (fan-out {fanout:.2}×)"
        ));
    }
    println!("\nspeedup vs seed cost model: {}\n", speedups.join("; "));
}

fn e10(json: &mut BenchJson) {
    println!("## E10 — network service layer: wire overhead and served throughput");
    println!("claims: the wire protocol adds a fixed per-request cost (framing +");
    println!("loopback + dispatch) on top of in-process evaluation, and the worker");
    println!("pool sustains many concurrent sessions with per-session CoW branch");
    println!("state — served results are bit-identical to in-process ones.\n");

    use hypoquery_client::Client;
    use hypoquery_server::{serve, Reply, Request, ServerConfig, Session, Verb};

    let rows = scaled(10_000);
    let query = "select #0 > 990 (R) union select #0 <= 5 (S)";
    let branch_update = "delete from R (select #0 < 500 (R))";

    let db = e9_db(rows, 10);
    const CLIENTS: usize = 8;
    let handle = serve(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: CLIENTS,
            ..ServerConfig::default()
        },
        db.clone(),
    )
    .unwrap();
    let addr = handle.addr();

    println!("| config | median |");
    println!("|:--|---:|");
    // The dispatch the server runs per request, minus sockets and framing,
    // so the overhead ratio below measures only the wire.
    let mut session = Session::new(db.clone());
    let req = Request::new(Verb::Query, query, "");
    let t_inproc = json.time(&format!("inproc_query_{rows}"), reps(101), || {
        let (reply, _) = session.handle(&req);
        match reply {
            Reply::Rows(rel) => rel.len(),
            other => panic!("in-process QUERY failed: {other:?}"),
        }
    });
    println!(
        "| in-process `QUERY` dispatch ({rows} rows/table) | {} |",
        fmt_ns(t_inproc)
    );

    let mut client = Client::connect(addr).unwrap();
    let t_ping = json.time("wire_ping", reps(101), || {
        client.ping().unwrap();
        1
    });
    println!(
        "| wire `PING` round-trip (protocol floor) | {} |",
        fmt_ns(t_ping)
    );
    let t_wire = json.time(&format!("wire_query_{rows}"), reps(101), || {
        client.query(query).unwrap().len()
    });
    println!("| wire query round-trip | {} |", fmt_ns(t_wire));

    client.branch("cut", None, branch_update).unwrap();
    client.switch(Some("cut")).unwrap();
    let t_branch = json.time(&format!("wire_branch_query_{rows}"), reps(101), || {
        client.query(query).unwrap().len()
    });
    println!(
        "| wire query inside a what-if branch | {} |",
        fmt_ns(t_branch)
    );
    client.switch(None).unwrap();

    // Served results match in-process evaluation exactly.
    assert_eq!(client.query(query).unwrap(), db.query(query).unwrap());

    // Throughput: 8 concurrent clients, a fixed batch of queries each.
    let per_client = if quick() { 20 } else { 200 };
    let t_total = json.time(&format!("throughput_{CLIENTS}x{per_client}"), 3, || {
        let threads: Vec<_> = (0..CLIENTS)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    let mut n = 0usize;
                    for _ in 0..per_client {
                        n += c.query(query).unwrap().len();
                    }
                    n
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().unwrap())
            .sum::<usize>()
    });
    let reqs = (CLIENTS * per_client) as f64;
    let rps = reqs / (t_total / 1e9);
    println!(
        "| {CLIENTS} clients × {per_client} queries (throughput) | {} ({rps:.0} req/s) |",
        fmt_ns(t_total)
    );
    let overhead = t_wire / t_inproc;
    json.record("wire_overhead_query", overhead, Unit::Ratio);
    println!(
        "\nwire overhead vs in-process: query {overhead:.2}×, floor (ping) {}\n",
        fmt_ns(t_ping)
    );

    client.shutdown().unwrap();
    handle.join();
}

fn e11(json: &mut BenchJson) {
    println!("## E11 — access paths: hash indexes, snapshot reuse, column-0 ranges");
    println!("claims: a declared hash index answers point-equality selects ≥10×");
    println!("faster than a full scan at 100k rows; CoW branches that leave the");
    println!("indexed base untouched share the one physical index — zero rebuilds");
    println!("across an 8-branch what-if tree; and a column-0 range select walks");
    println!("only its range of the sorted relation. Measured on the pipeline:");
    println!("each query is lowered and executed; statistics are computed once.\n");

    let rows = scaled(100_000);
    let db = two_table_db(rows, rows, rows as i64, 11);
    // The point predicate and its index sit on column 1 (the payloads
    // `0..rows`, one per row): column 0 is the sort key, where a point
    // select is a range walk rather than a full scan even without an index.
    let mut idb = db.clone();
    idb.declare_index(RelName::new("R"), 1).unwrap();
    // 64 probe values spread over the payloads.
    let keys: Vec<i64> = (0..64i64).map(|i| (i * 7919) % rows as i64).collect();
    // Lower and run `σ_{#1=k}(R)` in a state under its statistics.
    let point = |k: i64, db: &DatabaseState, stats: &Statistics| {
        let q = Query::base("R").select(Predicate::col_cmp(1, CmpOp::Eq, k));
        let plan = lower_query(&q, db.catalog(), stats).unwrap();
        plan.execute(db).unwrap().len()
    };
    let (stats, istats) = (Statistics::of(&db), Statistics::of(&idb));

    println!("| config | median |");
    println!("|:--|---:|");
    // Warm the build so the timed series measures steady-state probes.
    point(keys[0], &idb, &istats);
    let (t_scan, t_idx) = json.time_pair(
        [
            &format!("point_select_scan_{rows}"),
            &format!("point_select_indexed_{rows}"),
        ],
        reps(11),
        || keys.iter().map(|&k| point(k, &db, &stats)).sum(),
        || keys.iter().map(|&k| point(k, &idb, &istats)).sum(),
    );
    println!(
        "| {} point selects on #1, full scan | {} |",
        keys.len(),
        fmt_ns(t_scan)
    );
    println!(
        "| {} point selects on #1, indexed | {} |",
        keys.len(),
        fmt_ns(t_idx)
    );

    // 8 CoW branches, each mutating S; R's storage — and with it the
    // cached index — stays shared across every branch. The branches are
    // snapshots of `idb`, so they count into its index counters.
    let branches: Vec<(DatabaseState, Statistics)> = (0..8i64)
        .map(|i| {
            let mut b = idb.clone();
            b.insert_row("S", tuple![rows as i64 + i, -i]).unwrap();
            let stats = Statistics::of(&b);
            (b, stats)
        })
        .collect();
    let before = idb.index_stats().counters();
    let t_branches = json.time(&format!("branch_probe_8x{rows}"), reps(11), || {
        branches
            .iter()
            .map(|(b, stats)| keys.iter().map(|&k| point(k, b, stats)).sum::<usize>())
            .sum()
    });
    let after = idb.index_stats().counters();
    let rebuilds = after.builds - before.builds;
    assert!(after.hits > before.hits, "the branch probes must count");
    assert_eq!(rebuilds, 0, "CoW branches must reuse the shared index");
    println!(
        "| 8 branches × {} point selects, shared index | {} |",
        keys.len(),
        fmt_ns(t_branches)
    );

    // A column-0 range aggregate, lowered (a ranged scan) against the same
    // plan with the range removed (a full scan), on the one executor.
    let mut range_speedups = Vec::new();
    for pct in [1usize, 10] {
        let bound = (rows * pct / 100) as i64;
        let pred = Predicate::col_cmp(0, CmpOp::Lt, bound);
        let q = Query::base("R")
            .select(pred.clone())
            .aggregate(vec![], vec![AggExpr::Count, AggExpr::Sum(1)]);
        let ranged = lower_query(&q, db.catalog(), &stats).unwrap();
        assert!(
            ranged.render(None).contains("Scan R [#0 <"),
            "{}",
            ranged.render(None)
        );
        let full = PhysPlan::new(PhysNode::new(
            2,
            PhysOp::Aggregate {
                input: Box::new(PhysNode::new(
                    2,
                    PhysOp::Filter {
                        input: Box::new(PhysNode::new(
                            2,
                            PhysOp::Scan {
                                name: RelName::new("R"),
                                range: None,
                            },
                        )),
                        pred,
                    },
                )),
                group_by: vec![],
                aggs: vec![AggExpr::Count, AggExpr::Sum(1)],
            },
        ));
        assert_eq!(full.execute(&db).unwrap(), ranged.execute(&db).unwrap());
        let (t_full, t_ranged) = json.time_pair(
            [
                &format!("range_select_{pct}pct_full"),
                &format!("range_select_{pct}pct_ranged"),
            ],
            reps(11),
            || full.execute(&db).unwrap().len(),
            || ranged.execute(&db).unwrap().len(),
        );
        println!(
            "| range aggregate, {pct}% of rows, full scan | {} |",
            fmt_ns(t_full)
        );
        println!(
            "| range aggregate, {pct}% of rows, ranged scan | {} |",
            fmt_ns(t_ranged)
        );
        range_speedups.push((pct, t_full / t_ranged));
    }

    let speedup = t_scan / t_idx;
    println!("\npoint-select speedup: {speedup:.1}×; index rebuilds across 8 branches: {rebuilds}");
    json.record("point_select_speedup", speedup, Unit::Ratio);
    json.record("branch_index_rebuilds_8x", rebuilds as f64, Unit::Count);
    for (pct, speedup) in range_speedups {
        println!("range-select speedup at {pct}%: {speedup:.1}×");
        json.record(
            &format!("range_select_{pct}pct_speedup"),
            speedup,
            Unit::Ratio,
        );
    }
    println!();
}

fn e12(json: &mut BenchJson) {
    println!("## E12 — pipelined physical operators vs materializing walkers");
    println!("claim: streaming deep select/project/join chains through the");
    println!("physical operator layer beats (or at worst matches) the legacy");
    println!("tree-walkers, which materialize a BTreeSet per operator — on the");
    println!("same prepared query form under lazy, HQL-2, and HQL-3.\n");

    println!("| shape | rows | strategy | legacy | pipelined | speedup |");
    println!("|:--|---:|:--|---:|---:|---:|");
    for rows in [scaled(10_000), scaled(100_000)] {
        let db = two_table_db(rows, rows, rows as i64, 7);
        let stats = Statistics::of(&db);
        let u = e5_update(&db, 0.05);
        for (shape, body) in [
            ("select_chain", e12_select_chain(8, rows as i64)),
            ("join_chain", e12_join_chain(6, rows as i64, rows)),
        ] {
            let q = body.when(StateExpr::update(u.clone()));
            let reduced = optimize(&fully_lazy(&q, &mut RewriteTrace::new()), db.catalog()).0;
            let enf = to_enf_query(&q, &mut RewriteTrace::new());
            let modq = to_mod_enf(&q).unwrap();
            for (strat, pq) in [("lazy", &reduced), ("hql2", &enf), ("hql3", &modq)] {
                let legacy = |pq: &Query| -> usize {
                    match strat {
                        "lazy" => eval_pure(pq, &db).unwrap().len(),
                        "hql2" => algorithm_hql2(pq, &db).unwrap().len(),
                        _ => algorithm_hql3(pq, &db).unwrap().len(),
                    }
                };
                let phys = lower_query(pq, db.catalog(), &stats).unwrap();
                // Differential check before timing anything.
                assert_eq!(phys.execute(&db).unwrap().len(), legacy(pq));
                let (t_legacy, t_pipe) = json.time_pair(
                    [
                        &format!("{shape}_{strat}_legacy_{rows}"),
                        &format!("{shape}_{strat}_pipelined_{rows}"),
                    ],
                    reps(7),
                    || legacy(pq),
                    || phys.execute(&db).unwrap().len(),
                );
                let speedup = t_legacy / t_pipe;
                json.record(
                    &format!("{shape}_{strat}_speedup_{rows}"),
                    speedup,
                    Unit::Ratio,
                );
                println!(
                    "| {shape} | {rows} | {strat} | {} | {} | {speedup:.2}× |",
                    fmt_ns(t_legacy),
                    fmt_ns(t_pipe)
                );
            }
        }
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_carries_the_schema_and_a_unit_on_every_metric() {
        let mut json = BenchJson::new("e5");
        let t = json.time("plain_join_baseline", 3, || 0);
        json.record("lazy_nodes_6", 127.0, Unit::Count);
        json.record("point_select_speedup", 12.5, Unit::Ratio);
        assert_eq!(
            json.render(true, 2),
            format!(
                r#"{{
  "experiment": "e5",
  "quick": true,
  "cpus": 2,
  "metrics": {{
    "plain_join_baseline": {{"value": {t}, "unit": "ns"}},
    "lazy_nodes_6": {{"value": 127, "unit": "count"}},
    "point_select_speedup": {{"value": 12.5, "unit": "ratio"}}
  }}
}}
"#
            )
        );
    }

    #[test]
    #[should_panic(expected = "duplicate metric")]
    fn duplicate_keys_are_rejected() {
        let mut json = BenchJson::new("e1");
        json.record("lazy_500", 1.0, Unit::Ns);
        json.record("lazy_500", 2.0, Unit::Ns);
    }

    #[test]
    fn ids_select_experiments_and_unknown_ids_are_rejected() {
        let ids = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            select(&args).map(|sel| sel.into_iter().map(|(id, _)| id).collect::<Vec<_>>())
        };
        let all: Vec<String> = (1..=12).map(|i| format!("e{i}")).collect();
        assert_eq!(ids(&[]).unwrap(), all);
        assert_eq!(ids(&["e11"]).unwrap(), ["e11"]);
        assert_eq!(ids(&["e12", "e5"]).unwrap(), ["e5", "e12"]);
        let err = ids(&["e5", "e13"]).unwrap_err();
        assert!(err.contains("`e13`"), "{err}");
        assert!(
            err.ends_with("valid ids: e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12"),
            "{err}"
        );
    }
}
