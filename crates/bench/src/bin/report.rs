//! Experiment report generator: runs every experiment (E1–E12) once with
//! wall-clock timing and prints the paper-claim-vs-measured tables that
//! EXPERIMENTS.md records. E9–E12 additionally write machine-readable
//! medians (ns per config) to `BENCH_e9.json` … `BENCH_e12.json` in the
//! current directory — override the paths with `BENCH_E9_JSON` …
//! `BENCH_E12_JSON`.
//!
//! Run with: `cargo run --release -p hypoquery-bench --bin report`
//! (a debug build measures the same shapes, ~20× slower.)
//!
//! Set `HYPOQUERY_BENCH_QUICK=1` for a smoke run (CI): the same
//! experiments over ~20× smaller relations with minimal repetitions —
//! numbers are not meaningful, but every code path runs and every
//! `BENCH_*.json` file is written.

use std::time::Instant;

use hypoquery_algebra::{Query, StateExpr};
use hypoquery_bench::workload::{
    e12_join_chain, e12_select_chain, e1_query, e2_family, e2_state, e3_db, e3_update, e4_db,
    e4_query, e5_update, e7_query, e9_db, e9_scenarios, rs_join, two_table_db,
};
use hypoquery_core::{
    fully_lazy, lazy_state, red_query, red_state, sub_query, to_enf_query, to_mod_enf, RewriteTrace,
};
use hypoquery_eval::{
    algorithm_hql1, algorithm_hql2, algorithm_hql3, eval_pure, filter1, materialize_subst,
};
use hypoquery_opt::{lower_query, optimize, plan, reduce_optimized, Statistics};
use hypoquery_storage::DatabaseState;

/// `HYPOQUERY_BENCH_QUICK` selects the CI smoke configuration.
fn quick() -> bool {
    std::env::var_os("HYPOQUERY_BENCH_QUICK").is_some()
}

/// Relation sizes: full scale, or ~20× smaller in quick mode.
fn scaled(n: usize) -> usize {
    if quick() {
        (n / 20).max(500)
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

/// Run `f` `reps` times (at least 3): the median wall time in
/// nanoseconds, and `f`'s last result.
fn median_ns(reps: usize, mut f: impl FnMut() -> usize) -> (f64, usize) {
    let mut out = 0;
    let mut samples: Vec<f64> = (0..reps.max(3))
        .map(|_| {
            let t = Instant::now();
            out = std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    (samples[samples.len() / 2], out)
}

/// Median-of-3 timing in milliseconds, to damp scheduler noise.
fn bench_ms(f: impl FnMut() -> usize) -> (f64, usize) {
    let (ns, out) = median_ns(3, f);
    (ns / 1e6, out)
}

/// One experiment's machine-readable results: median-of-N nanosecond
/// timings (plus derived figures) as a flat JSON map, written to
/// `BENCH_<id>.json` in the current directory, or to the path in
/// `BENCH_<ID>_JSON`.
struct BenchJson {
    id: &'static str,
    entries: Vec<(String, f64)>,
}

impl BenchJson {
    fn new(id: &'static str) -> Self {
        BenchJson {
            id,
            entries: Vec::new(),
        }
    }

    /// Record and return the median of `reps` timings of `f`, in ns.
    fn time(&mut self, config: &str, reps: usize, f: impl FnMut() -> usize) -> f64 {
        let (median, _) = median_ns(reps, f);
        self.record(config, median);
        median
    }

    fn record(&mut self, config: &str, value: f64) {
        self.entries.push((config.to_string(), value));
    }

    fn write(self) {
        let var = format!("BENCH_{}_JSON", self.id.to_uppercase());
        let path = std::env::var(var).unwrap_or_else(|_| format!("BENCH_{}.json", self.id));
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(config, value)| format!("  \"{config}\": {value:.1}"))
            .collect();
        let out = format!("{{\n{}\n}}\n", body.join(",\n"));
        match std::fs::write(&path, out) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
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

fn main() {
    println!("# hypoquery experiment report\n");
    e1();
    e2();
    e3();
    e4();
    e5();
    e6();
    e7();
    e8();
    e9();
    e10();
    e11();
    e12();
}

fn e1() {
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
        let (t1, _) = bench_ms(|| algorithm_hql1(&enf, &db).unwrap().len());
        let (t2, _) = bench_ms(|| algorithm_hql2(&enf, &db).unwrap().len());
        let (tl, r) = bench_ms(|| {
            let reduced = fully_lazy(&q, &mut RewriteTrace::new());
            let (optimized, _) = optimize(&reduced, db.catalog());
            eval_pure(&optimized, &db).unwrap().len()
        });
        assert_eq!(r, 0);
        let p = plan(&q, db.catalog(), &stats);
        let picked = p.strategy;
        let (ta, _) = bench_ms(|| {
            let p = plan(&q, db.catalog(), &stats);
            p.execute_legacy(&db).unwrap().len()
        });
        println!("| {n} | {t1:.2} | {t2:.2} | {tl:.3} | {ta:.3} | {picked} |");
    }
    println!();
}

fn e2() {
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
        let (tn, _) = bench_ms(|| {
            family
                .iter()
                .map(|q| {
                    let hq = q.clone().when(eta.clone());
                    let enf = to_enf_query(&hq, &mut RewriteTrace::new());
                    algorithm_hql2(&enf, &db).unwrap().len()
                })
                .sum()
        });
        let (te, _) = bench_ms(|| {
            let rho = lazy_state(&eta, &mut RewriteTrace::new());
            let e = materialize_subst(&rho, &db).unwrap();
            family
                .iter()
                .map(|q| filter1(q, &e, &db).unwrap().len())
                .sum()
        });
        let (tl, _) = bench_ms(|| {
            let rho = lazy_state(&eta, &mut RewriteTrace::new());
            family
                .iter()
                .map(|q| eval_pure(&sub_query(q, &rho).unwrap(), &db).unwrap().len())
                .sum()
        });
        println!("| {k} | {tn:.2} | {te:.2} | {tl:.2} |");
    }
    println!();
}

fn e3() {
    println!("## E3 — Example 2.3: binding removal");
    println!("paper claim: dropping the S binding (S not read by the queries)");
    println!("reduces eager data work and lazy optimizer work.\n");
    println!("| rows | eager full subst (ms) | eager binding-removed (ms) | lazy red (ms) | lazy binding-removed (ms) |");
    println!("|---:|---:|---:|---:|---:|");
    for n in [scaled(5_000), scaled(50_000)] {
        let db = e3_db(n, 3);
        let eta = StateExpr::update(e3_update());
        let q = Query::base("R").union(Query::base("T"));
        let (tf, _) = bench_ms(|| {
            let rho = red_state(&eta).unwrap();
            let e = materialize_subst(&rho, &db).unwrap();
            filter1(&q, &e, &db).unwrap().len()
        });
        let (tr, _) = bench_ms(|| {
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
        let (tlr, _) = bench_ms(|| {
            let reduced = red_query(&q.clone().when(eta.clone())).unwrap();
            eval_pure(&reduced, &db).unwrap().len()
        });
        let (tlb, _) = bench_ms(|| {
            let reduced = fully_lazy(&q.clone().when(eta.clone()), &mut RewriteTrace::new());
            eval_pure(&reduced, &db).unwrap().len()
        });
        println!("| {n} | {tf:.2} | {tr:.2} | {tlr:.2} | {tlb:.2} |");
    }
    println!();
}

fn e4() {
    println!("## E4 — Example 2.4: exponential blow-up and the rescue");
    println!("paper claims: (a) the lazy equivalent is exponential in n;");
    println!("(b) algebra rewriting finds ∅ cheaply; (c) eager wins on small values.\n");
    println!("| n | input nodes | lazy nodes | lazy red (ms) | rescue (ms) | eager HQL-1 (ms) |");
    println!("|---:|---:|---:|---:|---:|---:|");
    let depths: &[usize] = if quick() { &[6, 8] } else { &[6, 10, 14] };
    for &n in depths {
        let (q, _) = e4_query(n, None);
        let input_nodes = q.node_count();
        let (tred, lazy_nodes) = bench_ms(|| red_query(&q).unwrap().node_count());
        let (q_rescue, catalog) = e4_query(n, Some(1));
        let (tres, rescue_nodes) =
            bench_ms(|| reduce_optimized(&q_rescue, &catalog).0.node_count());
        assert_eq!(rescue_nodes, 1); // ∅
        let eager = if n <= 10 {
            let (qq, cat) = e4_query(n, None);
            let db = e4_db(&cat, 1);
            let enf = to_enf_query(&qq, &mut RewriteTrace::new());
            let (te, _) = bench_ms(|| algorithm_hql1(&enf, &db).unwrap().len());
            format!("{te:.2}")
        } else {
            "—".to_string()
        };
        println!("| {n} | {input_nodes} | {lazy_nodes} | {tred:.2} | {tres:.3} | {eager} |");
    }
    println!();
}

fn e5() {
    println!("## E5 — §5.5: join-when overhead vs delta size");
    println!("paper claim (rule of thumb): a delta of x% of the base relations");
    println!("makes join-when only nominally more expensive than the plain join");
    println!("(~22% extra at 2% in Heraclitus); full xsub materialization pays");
    println!("the whole hypothetical relation regardless.\n");
    let n = scaled(50_000);
    let db = two_table_db(n, n, (n as i64) * 10, 4);
    let join = rs_join();
    let (tbase, _) = bench_ms(|| eval_pure(&join, &db).unwrap().len());
    println!("plain join baseline: {tbase:.2} ms\n");
    println!("| delta % | join-when only (ms) | overhead vs join | HQL-3 end-to-end (ms) | HQL-2 xsub (ms) |");
    println!("|---:|---:|---:|---:|---:|");
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
        let (tjw, _) = bench_ms(|| {
            hypoquery_eval::eval_filter_d(&join, &delta, &db)
                .unwrap()
                .len()
        });
        let (t3, _) = bench_ms(|| algorithm_hql3(&modq, &db).unwrap().len());
        let (t2, _) = bench_ms(|| algorithm_hql2(&enfq, &db).unwrap().len());
        let overhead = (tjw / tbase - 1.0) * 100.0;
        println!("| {pct} | {tjw:.2} | {overhead:+.0}% | {t3:.2} | {t2:.2} |");
    }
    println!();
}

fn e6() {
    println!("## E6 — §5.4: HQL-1 (node-at-a-time) vs HQL-2 (clustered)");
    println!("paper claim: HQL-1 'does not permit grouping of relational algebra");
    println!("operators into single physical operations'.\n");
    println!("| query | HQL-1 (ms) | HQL-2 (ms) |");
    println!("|:--|---:|---:|");
    let n = scaled(30_000);
    let db = two_table_db(n, n, 5_000, 5);
    use hypoquery_algebra::{CmpOp, Predicate, Update};
    let eta = StateExpr::update(Update::insert(
        "R",
        Query::base("S").select(Predicate::col_cmp(0, CmpOp::Gt, 30)),
    ));
    let cases = vec![
        (
            "R ⋈ σ(S)",
            Query::base("R")
                .join(
                    Query::base("S").select(Predicate::col_cmp(0, CmpOp::Lt, 70)),
                    Predicate::col_col(0, CmpOp::Eq, 2),
                )
                .when(eta.clone()),
        ),
        (
            "π(σ(R ⋈ S))",
            Query::base("R")
                .join(Query::base("S"), Predicate::col_col(0, CmpOp::Eq, 2))
                .select(Predicate::col_cmp(1, CmpOp::Gt, 100))
                .project([0, 3])
                .when(eta.clone()),
        ),
    ];
    for (name, q) in cases {
        let enf = to_enf_query(&q, &mut RewriteTrace::new());
        let (t1, _) = bench_ms(|| algorithm_hql1(&enf, &db).unwrap().len());
        let (t2, _) = bench_ms(|| algorithm_hql2(&enf, &db).unwrap().len());
        println!("| {name} | {t1:.2} | {t2:.2} |");
    }
    println!();
}

fn e7() {
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
        let (tl, _) = bench_ms(|| {
            let reduced = fully_lazy(&q, &mut RewriteTrace::new());
            eval_pure(&reduced, &db).unwrap().len()
        });
        let (te, _) = bench_ms(|| algorithm_hql2(&enf, &db).unwrap().len());
        let p = plan(&q, db.catalog(), &stats);
        let picked = p.strategy;
        let (ta, _) = bench_ms(|| {
            let p = plan(&q, db.catalog(), &stats);
            p.execute_legacy(&db).unwrap().len()
        });
        println!("| {m} | {tl:.2} | {te:.2} | {ta:.2} | {picked} |");
    }
    println!();
}

fn e8() {
    println!("## E8 — planner vs fixed strategies across scenarios");
    println!("claim: no fixed strategy wins everywhere; Auto tracks the best.\n");
    println!("| scenario | lazy (ms) | HQL-2 (ms) | HQL-3 (ms) | auto (ms) | auto picked |");
    println!("|:--|---:|---:|---:|---:|:--|");
    let n = scaled(20_000);
    let db = two_table_db(n, n, n as i64, 8);
    let stats = Statistics::of(&db);
    let scenarios: Vec<(&str, Query)> = vec![
        ("empty_provable (E1)", e1_query(6_000, 12_000)),
        (
            "small_delta_join (E5)",
            rs_join().when(StateExpr::update(e5_update(&db, 0.02))),
        ),
        ("many_occurrences (E7)", e7_query(8)),
    ];
    for (name, q) in scenarios {
        let (tl, _) = bench_ms(|| {
            let reduced = fully_lazy(&q, &mut RewriteTrace::new());
            let (optimized, _) = optimize(&reduced, db.catalog());
            eval_pure(&optimized, &db).unwrap().len()
        });
        let enf = to_enf_query(&q, &mut RewriteTrace::new());
        let (t2, _) = bench_ms(|| algorithm_hql2(&enf, &db).unwrap().len());
        let t3 = match to_mod_enf(&q) {
            Ok(m) => {
                let (t, _) = bench_ms(|| algorithm_hql3(&m, &db).unwrap().len());
                format!("{t:.2}")
            }
            Err(_) => "—".to_string(),
        };
        let p = plan(&q, db.catalog(), &stats);
        let picked = p.strategy;
        let (ta, _) = bench_ms(|| {
            let p = plan(&q, db.catalog(), &stats);
            p.execute_legacy(&db).unwrap().len()
        });
        println!("| {name} | {tl:.2} | {t2:.2} | {t3} | {ta:.2} | {picked} |");
    }
    println!();
}

fn e9() {
    println!("## E9 — copy-on-write snapshots + parallel multi-scenario executor");
    println!("claims: state snapshots are O(#relations) pointer bumps, not O(data);");
    println!("k independent what-if branches over one base share it physically and");
    println!("fan out across cores (speedup ~min(k, cores)× when work dominates).\n");

    let mut json = BenchJson::new("e9");

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
        let mut out = DatabaseState::new(state.catalog().clone());
        for (name, rel) in state.iter() {
            let copy =
                hypoquery_storage::Relation::from_rows(rel.arity(), rel.iter().cloned()).unwrap();
            out.set(name.clone(), copy).unwrap();
        }
        out.total_tuples()
    });
    println!("| deep copy (pre-CoW cost model) | {} |", fmt_ns(t));

    let db = e9_db(rows, 9);
    let k = 8usize;
    let scenarios = e9_scenarios(k);
    let t_deep = json.time(
        &format!("scenarios_deepcopy_seq_{k}x{size}"),
        reps(5),
        || {
            scenarios
                .iter()
                .map(|q| {
                    let mut snapshot = DatabaseState::new(db.state().catalog().clone());
                    for (name, rel) in db.state().iter() {
                        let copy = hypoquery_storage::Relation::from_rows(
                            rel.arity(),
                            rel.iter().cloned(),
                        )
                        .unwrap();
                        snapshot.set(name.clone(), copy).unwrap();
                    }
                    std::hint::black_box(&snapshot);
                    db.execute(q, hypoquery_engine::Strategy::Lazy)
                        .unwrap()
                        .len()
                })
                .sum()
        },
    );
    println!(
        "| {k} scenarios, deep snapshot each (seed cost model) | {} |",
        fmt_ns(t_deep)
    );
    let t_seq = json.time(&format!("scenarios_cow_seq_{k}x{size}"), reps(5), || {
        scenarios
            .iter()
            .map(|q| {
                db.execute(q, hypoquery_engine::Strategy::Lazy)
                    .unwrap()
                    .len()
            })
            .sum()
    });
    println!(
        "| {k} scenarios, CoW snapshots, sequential | {} |",
        fmt_ns(t_seq)
    );
    let t_par = json.time(&format!("scenarios_cow_par_{k}x{size}"), reps(5), || {
        db.execute_many(&scenarios, hypoquery_engine::Strategy::Lazy)
            .unwrap()
            .iter()
            .map(|r| r.len())
            .sum()
    });
    println!(
        "| {k} scenarios, CoW snapshots, parallel ({} workers) | {} |",
        hypoquery_eval::num_workers(),
        fmt_ns(t_par)
    );
    println!(
        "\nspeedup vs seed cost model: sequential {:.1}×, parallel {:.1}×\n",
        t_deep / t_seq,
        t_deep / t_par
    );

    json.write();
}

fn e10() {
    println!("## E10 — network service layer: wire overhead and served throughput");
    println!("claims: the wire protocol adds a fixed per-request cost (framing +");
    println!("loopback + dispatch) on top of in-process evaluation, and the worker");
    println!("pool sustains many concurrent sessions with per-session CoW branch");
    println!("state — served results are bit-identical to in-process ones.\n");

    use hypoquery_client::Client;
    use hypoquery_server::{serve, ServerConfig};

    let rows = scaled(10_000);
    let query = "select #0 > 990 (R) union select #0 <= 5 (S)";
    let branch_update = "delete from R (select #0 < 500 (R))";

    let state = two_table_db(rows, rows, 1000, 10);
    let mut db = hypoquery_engine::Database::with_catalog(state.catalog().clone());
    for (name, rel) in state.iter() {
        db.load(name.as_str(), rel.iter().cloned()).unwrap();
    }

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

    let mut json = BenchJson::new("e10");

    println!("| config | median |");
    println!("|:--|---:|");
    let t_inproc = json.time(&format!("inproc_query_{rows}"), reps(101), || {
        db.query(query).unwrap().len()
    });
    println!(
        "| in-process query ({rows} rows/table) | {} |",
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
    println!(
        "\nwire overhead vs in-process: query {:.2}×, floor (ping) {}\n",
        t_wire / t_inproc,
        fmt_ns(t_ping)
    );

    client.shutdown().unwrap();
    handle.join();

    json.write();
}

fn e11() {
    println!("## E11 — secondary indexes: point queries and snapshot reuse");
    println!("claims: a declared hash index answers point-equality selects ≥10×");
    println!("faster than a full scan at 100k rows, and CoW branches that leave");
    println!("the indexed base untouched share the one physical index — zero");
    println!("rebuilds across an 8-branch what-if tree. Measured on the pipeline:");
    println!("each query is lowered and executed; statistics are computed once.\n");

    use hypoquery_algebra::CmpOp;
    use hypoquery_storage::{tuple, RelName};

    let mut json = BenchJson::new("e11");

    let rows = scaled(100_000);
    let db = two_table_db(rows, rows, rows as i64, 11);
    let mut idb = db.clone();
    idb.declare_index(RelName::new("R"), 0).unwrap();
    // 64 probe keys spread over the key range.
    let keys: Vec<i64> = (0..64i64).map(|i| (i * 7919) % rows as i64).collect();
    // Lower and run `σ_{#0=k}(R)` in a state under its statistics.
    let point = |k: i64, db: &DatabaseState, stats: &Statistics| {
        let q = hypoquery_bench::workload::sel(Query::base("R"), CmpOp::Eq, k);
        let plan = lower_query(&q, db.catalog(), stats).unwrap();
        plan.execute(db).unwrap().len()
    };
    let (stats, istats) = (Statistics::of(&db), Statistics::of(&idb));

    println!("| config | median |");
    println!("|:--|---:|");
    let t_scan = json.time(&format!("point_select_scan_{rows}"), reps(11), || {
        keys.iter().map(|&k| point(k, &db, &stats)).sum()
    });
    println!(
        "| {} point selects, full scan | {} |",
        keys.len(),
        fmt_ns(t_scan)
    );
    // Warm the build so the timed series measures steady-state probes.
    point(keys[0], &idb, &istats);
    let t_idx = json.time(&format!("point_select_indexed_{rows}"), reps(11), || {
        keys.iter().map(|&k| point(k, &idb, &istats)).sum()
    });
    println!(
        "| {} point selects, indexed | {} |",
        keys.len(),
        fmt_ns(t_idx)
    );

    // 8 CoW branches, each mutating S; R's storage — and with it the
    // cached index — stays shared across every branch.
    let branches: Vec<(DatabaseState, Statistics)> = (0..8i64)
        .map(|i| {
            let mut b = idb.clone();
            b.insert_row("S", tuple![rows as i64 + i, -i]).unwrap();
            let stats = Statistics::of(&b);
            (b, stats)
        })
        .collect();
    let before = hypoquery_storage::index_counters();
    let t_branches = json.time(&format!("branch_probe_8x{rows}"), reps(11), || {
        branches
            .iter()
            .map(|(b, stats)| keys.iter().map(|&k| point(k, b, stats)).sum::<usize>())
            .sum()
    });
    let rebuilds = hypoquery_storage::index_counters().builds - before.builds;
    assert_eq!(rebuilds, 0, "CoW branches must reuse the shared index");
    println!(
        "| 8 branches × {} point selects, shared index | {} |",
        keys.len(),
        fmt_ns(t_branches)
    );

    let speedup = t_scan / t_idx;
    println!(
        "\npoint-select speedup: {speedup:.1}×; index rebuilds across 8 branches: {rebuilds}\n"
    );

    json.record("point_select_speedup", speedup);
    json.record("branch_index_rebuilds_8x", rebuilds as f64);
    json.write();
}

fn e12() {
    println!("## E12 — pipelined physical operators vs materializing walkers");
    println!("claim: streaming deep select/project/join chains through the");
    println!("physical operator layer beats (or at worst matches) the legacy");
    println!("tree-walkers, which materialize a BTreeSet per operator — on the");
    println!("same prepared query form under lazy, HQL-2, and HQL-3.\n");

    let mut json = BenchJson::new("e12");
    let mut speedups: Vec<(String, f64)> = Vec::new();

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
                let t_legacy =
                    json.time(&format!("{shape}_{strat}_legacy_{rows}"), reps(7), || {
                        legacy(pq)
                    });
                let t_pipe = json.time(
                    &format!("{shape}_{strat}_pipelined_{rows}"),
                    reps(7),
                    || phys.execute(&db).unwrap().len(),
                );
                let speedup = t_legacy / t_pipe;
                speedups.push((format!("{shape}_{strat}_speedup_{rows}"), speedup));
                println!(
                    "| {shape} | {rows} | {strat} | {} | {} | {speedup:.2}× |",
                    fmt_ns(t_legacy),
                    fmt_ns(t_pipe)
                );
            }
        }
    }
    println!();

    for (config, speedup) in speedups {
        json.record(&config, speedup);
    }
    json.write();
}

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
