//! Workload generators for the experiments of the `report` binary.
//!
//! The paper has no published datasets; every claim it makes is a *shape*
//! claim (who wins, how cost scales with a parameter), so synthetic
//! integer relations with controlled sizes and selectivities exercise
//! exactly the relevant behavior (see DESIGN.md §2, substitutions table).

use hypoquery_algebra::{CmpOp, Predicate, Query, StateExpr, Update};
use hypoquery_storage::{Catalog, DatabaseState, RelName, Relation, Tuple, Value};

/// A deterministic SplitMix64 generator (Steele, Lea & Flood 2014):
/// reproducible workloads, not cryptographic.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..k` (`k > 0`) by multiply-shift: the high
    /// 64 bits of `next × k`, biased by less than `k / 2⁶⁴`.
    pub fn below(&mut self, k: i64) -> i64 {
        assert!(k > 0, "empty range");
        ((u128::from(self.next_u64()) * k as u128) >> 64) as i64
    }
}

/// Deterministic RNG for reproducible benches.
pub fn rng(seed: u64) -> Rng {
    Rng { state: seed }
}

/// A binary relation of `n` distinct rows `(key, payload)` with keys drawn
/// uniformly from `0..key_range`.
pub fn int_relation(n: usize, key_range: i64, rng: &mut Rng) -> Relation {
    let mut rel = Relation::empty(2);
    let mut next_payload = 0i64;
    while rel.len() < n {
        let key = rng.below(key_range);
        let row = Tuple::new([Value::int(key), Value::int(next_payload)]);
        next_payload += 1;
        let _ = rel.insert(row);
    }
    rel
}

/// Build a state with binary relations `R` and `S` of the given sizes.
/// Keys range over `0..key_range` so joins and the paper's 30/60-style
/// threshold selections hit real data.
pub fn two_table_db(r_rows: usize, s_rows: usize, key_range: i64, seed: u64) -> DatabaseState {
    let mut catalog = Catalog::new();
    catalog.declare_arity("R", 2).unwrap();
    catalog.declare_arity("S", 2).unwrap();
    let mut db = DatabaseState::new(catalog);
    let mut r = rng(seed);
    db.set(RelName::new("R"), int_relation(r_rows, key_range, &mut r))
        .unwrap();
    db.set(RelName::new("S"), int_relation(s_rows, key_range, &mut r))
        .unwrap();
    db
}

/// `σ_{#0 op c}(q)`.
pub fn sel(q: Query, op: CmpOp, c: i64) -> Query {
    q.select(Predicate::col_cmp(0, op, c))
}

/// The equi-join `R ⋈_{#0=#2} S`.
pub fn rs_join() -> Query {
    Query::base("R").join(Query::base("S"), Predicate::col_col(0, CmpOp::Eq, 2))
}

/// Example 2.1's query (1), parameterized by the key thresholds:
///
/// ```text
/// [ ((R ⋈ S) when {ins(R, σ_{#0>lo}(S))})
///   − ((R ⋈ S) when {ins(R, σ_{#0>lo}(S))}) ] when {del(S, σ_{#0<hi}(S))}
/// ```
///
/// Both branches reduce to the same pure query, so lazy rewriting proves
/// the whole thing empty with zero data access.
pub fn e1_query(lo: i64, hi: i64) -> Query {
    let branch = || {
        rs_join().when(StateExpr::update(Update::insert(
            "R",
            sel(Query::base("S"), CmpOp::Gt, lo),
        )))
    };
    branch()
        .diff(branch())
        .when(StateExpr::update(Update::delete(
            "S",
            sel(Query::base("S"), CmpOp::Lt, hi),
        )))
}

/// Example 2.2's hypothetical state:
/// `{del(S, σ_{#0<hi}(S))} # {ins(R, σ_{#0>lo}(S))}`.
pub fn e2_state(lo: i64, hi: i64) -> StateExpr {
    StateExpr::update(Update::delete("S", sel(Query::base("S"), CmpOp::Lt, hi))).compose(
        StateExpr::update(Update::insert("R", sel(Query::base("S"), CmpOp::Gt, lo))),
    )
}

/// A family of `k` distinct member queries for Example 2.2 (all reading R
/// and S through different selections).
pub fn e2_family(k: usize) -> Vec<Query> {
    (0..k)
        .map(|i| {
            sel(Query::base("R"), CmpOp::Gt, (i % 50) as i64).union(sel(
                Query::base("S"),
                CmpOp::Le,
                (i % 70) as i64,
            ))
        })
        .collect()
}

/// Example 2.3's three-step update (R, S and T all written; queries that
/// avoid S can drop its slice).
pub fn e3_update() -> Update {
    Update::seq([
        Update::insert("R", sel(Query::base("S"), CmpOp::Gt, 10)),
        Update::delete("S", sel(Query::base("R"), CmpOp::Lt, 90)),
        Update::insert("T", Query::base("R").project([0, 1])),
    ])
}

/// Catalog/state for Example 2.3 (adds `T` to the two-table db).
pub fn e3_db(rows: usize, seed: u64) -> DatabaseState {
    let mut catalog = Catalog::new();
    catalog.declare_arity("R", 2).unwrap();
    catalog.declare_arity("S", 2).unwrap();
    catalog.declare_arity("T", 2).unwrap();
    let mut db = DatabaseState::new(catalog);
    let mut r = rng(seed);
    db.set(RelName::new("R"), int_relation(rows, 100, &mut r))
        .unwrap();
    db.set(RelName::new("S"), int_relation(rows, 100, &mut r))
        .unwrap();
    db.set(RelName::new("T"), int_relation(rows / 2, 100, &mut r))
        .unwrap();
    db
}

/// A state for Example 2.4(c): every `R_i` holds a couple of rows so that
/// the intersections/products are small and eager evaluation is cheap.
pub fn e4_db(catalog: &Catalog, rows_per_rel: usize) -> DatabaseState {
    let mut db = DatabaseState::new(catalog.clone());
    for (name, schema) in catalog.iter() {
        let mut rel = Relation::empty(schema.arity);
        for r in 0..rows_per_rel {
            let row = Tuple::new((0..schema.arity).map(|c| Value::int((r + c % 2) as i64)));
            let _ = rel.insert(row);
        }
        db.set(name.clone(), rel).unwrap();
    }
    db
}

/// §5.5's delta workload: an update touching `frac` of R and S
/// (half deletions of existing keys, half insertions of fresh keys).
pub fn e5_update(db: &DatabaseState, frac: f64) -> Update {
    let r_rows = db.get(&RelName::new("R")).unwrap().len();
    let s_rows = db.get(&RelName::new("S")).unwrap().len();
    let r_touch = ((r_rows as f64) * frac).max(1.0) as i64;
    let s_touch = ((s_rows as f64) * frac).max(1.0) as i64;
    // Payload column (#1) is a dense 0..n counter, so payload thresholds
    // select an exact fraction.
    Update::seq([
        Update::delete(
            "R",
            Query::base("R").select(Predicate::col_cmp(1, CmpOp::Lt, r_touch / 2)),
        ),
        Update::insert(
            "R",
            Query::base("R")
                .select(Predicate::col_cmp(1, CmpOp::Lt, r_touch - r_touch / 2))
                .project([1, 0]),
        ),
        Update::delete(
            "S",
            Query::base("S").select(Predicate::col_cmp(1, CmpOp::Lt, s_touch / 2)),
        ),
        Update::insert(
            "S",
            Query::base("S")
                .select(Predicate::col_cmp(1, CmpOp::Lt, s_touch - s_touch / 2))
                .project([1, 0]),
        ),
    ])
}

/// Example 2.1(c)'s shape: a body with `m` occurrences of `R` (cheap
/// selections with distinct thresholds, which no rewrite rule collapses)
/// under a hypothetical state whose binding is *expensive* to compute (a
/// self-join of `S`). The lazy strategy re-derives the join once per
/// occurrence; the eager strategies materialize it once — the crossover
/// of Example 2.1(c).
pub fn e7_query(m: usize) -> Query {
    let expensive = Query::base("S")
        .join(Query::base("S"), Predicate::col_col(0, CmpOp::Eq, 2))
        .project([0, 3]);
    let mut body = Query::base("R").select(Predicate::col_cmp(1, CmpOp::Lt, 1_000));
    for i in 1..m {
        body = body.union(Query::base("R").select(Predicate::col_cmp(
            1,
            CmpOp::Lt,
            1_000 + (i as i64) * 1_000,
        )));
    }
    body.when(StateExpr::update(Update::insert("R", expensive)))
}

/// E9/E10: an engine-level database for the multi-scenario executor and
/// the server — `R` and `S` with `rows` rows each, keys over `0..1000`.
pub fn e9_db(rows: usize, seed: u64) -> hypoquery_engine::Database {
    let state = two_table_db(rows, rows, 1000, seed);
    let mut db = hypoquery_engine::Database::with_catalog(state.catalog().clone());
    for (name, rel) in state.iter() {
        db.load(name.as_str(), rel.iter().cloned()).unwrap();
    }
    db
}

/// `k` independent what-if scenarios over the E9 base: scenario `i`
/// hypothetically deletes its own key slice of `R` and inserts a slice of
/// `S`, then reads both through selections. Each scenario builds its own
/// snapshot of the shared base; the reads bound column 0, so they are
/// range walks and snapshot cost is visible next to evaluation cost.
pub fn e9_scenarios(k: usize) -> Vec<Query> {
    (0..k)
        .map(|i| {
            let t = 10 + (i as i64 * 900) / k.max(1) as i64;
            sel(Query::base("R"), CmpOp::Gt, 990)
                .union(sel(Query::base("S"), CmpOp::Le, 5))
                .when(StateExpr::update(Update::delete(
                    "R",
                    sel(Query::base("R"), CmpOp::Lt, t),
                )))
                .when(StateExpr::update(Update::insert(
                    "S",
                    sel(Query::base("R"), CmpOp::Gt, 1000 - t),
                )))
        })
        .collect()
}

/// E12: a depth-`k` chain of alternating range selections over `R`,
/// shrinking the key window by `key_range/16` per step. Every step keeps
/// most of the remaining rows, so a materializing tree-walker builds a
/// large intermediate `BTreeSet` per operator while the pipelined
/// executor streams the whole chain in one pass.
pub fn e12_select_chain(k: usize, key_range: i64) -> Query {
    let step = (key_range / 16).max(1);
    let mut lo = 0i64;
    let mut hi = key_range;
    let mut q = Query::base("R");
    for i in 0..k {
        if i % 2 == 0 {
            lo += step;
            q = q.select(Predicate::col_cmp(0, CmpOp::Ge, lo));
        } else {
            hi -= step;
            q = q.select(Predicate::col_cmp(0, CmpOp::Lt, hi));
        }
    }
    q
}

/// E12: the select chain fed into an equi-join with `S`, projected down
/// to the payload columns, with two more payload filters on top — a
/// deep mixed select/project/join chain (payloads are dense `0..n`
/// counters, so the thresholds keep real fractions of the data).
pub fn e12_join_chain(k: usize, key_range: i64, rows: usize) -> Query {
    e12_select_chain(k, key_range)
        .join(Query::base("S"), Predicate::col_col(0, CmpOp::Eq, 2))
        .project([1, 3])
        .select(Predicate::col_cmp(0, CmpOp::Lt, (rows as i64) * 7 / 8))
        .select(Predicate::col_cmp(1, CmpOp::Ge, (rows as i64) / 8))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypoquery_algebra::typing::arity_of;
    use hypoquery_eval::eval_query;
    use hypoquery_testkit::{example_2_4, Levels};

    /// The generator's first draws for two seeds, as the experiments have
    /// always drawn them: a changed sequence changes every input.
    #[test]
    fn rng_draws_are_pinned() {
        let mut r = rng(7);
        let draws: Vec<i64> = (0..8).map(|_| r.below(1000)).collect();
        assert_eq!(draws, [389, 16, 900, 582, 452, 249, 467, 328]);
        let mut r = rng(42);
        let draws: Vec<i64> = (0..4).map(|_| r.below(i64::MAX)).collect();
        assert_eq!(
            draws,
            [
                6839728766377637705,
                1474913046063446145,
                2569641874231381928,
                3174599030129127881
            ]
        );
    }

    #[test]
    fn relations_have_requested_sizes() {
        let db = two_table_db(100, 200, 1000, 42);
        assert_eq!(db.get(&"R".into()).unwrap().len(), 100);
        assert_eq!(db.get(&"S".into()).unwrap().len(), 200);
        // Deterministic for a fixed seed.
        let db2 = two_table_db(100, 200, 1000, 42);
        assert_eq!(db.get(&"R".into()).unwrap(), db2.get(&"R".into()).unwrap());
    }

    #[test]
    fn e1_query_is_well_typed_and_empty() {
        let db = two_table_db(50, 50, 100, 7);
        let q = e1_query(30, 60);
        assert_eq!(arity_of(&q, db.catalog()), Ok(4));
        assert!(eval_query(&q, &db).unwrap().is_empty());
    }

    #[test]
    fn e2_builders_are_well_typed() {
        let db = two_table_db(10, 10, 100, 1);
        for q in e2_family(8) {
            let hq = q.when(e2_state(30, 60));
            assert!(arity_of(&hq, db.catalog()).is_ok());
            eval_query(&hq, &db).unwrap();
        }
    }

    #[test]
    fn e3_update_well_typed() {
        let db = e3_db(20, 3);
        let q = Query::base("R")
            .union(Query::base("T"))
            .when(StateExpr::update(e3_update()));
        assert!(arity_of(&q, db.catalog()).is_ok());
        eval_query(&q, &db).unwrap();
    }

    #[test]
    fn example_2_4_types_and_evaluates_empty() {
        let (q, catalog) = example_2_4(6, None, Levels::Products);
        assert_eq!(arity_of(&q, &catalog), Ok(64));
        let (q_empty, catalog) = example_2_4(6, Some(3), Levels::Products);
        assert_eq!(arity_of(&q_empty, &catalog), Ok(64));
        let db = e4_db(&catalog, 2);
        assert!(eval_query(&q_empty, &db).unwrap().is_empty());
    }

    #[test]
    fn e5_update_touches_requested_fraction() {
        let db = two_table_db(1000, 1000, 10_000, 11);
        let u = e5_update(&db, 0.02);
        let rho = hypoquery_core::slice(&hypoquery_core::red_update(&u).unwrap()).unwrap();
        // The S binding under the update changes ~2% of S.
        let after = hypoquery_eval::apply_subst(&db, &rho).unwrap();
        let before_s = db.get(&"S".into()).unwrap();
        let after_s = after.get(&"S".into()).unwrap();
        let changed = before_s.difference(&after_s).unwrap().len()
            + after_s.difference(&before_s).unwrap().len();
        assert!(changed > 0 && changed < 100, "changed {changed} rows");
    }

    #[test]
    fn e7_occurrences_grow() {
        let db = two_table_db(30, 30, 50, 5);
        for m in [1, 2, 4] {
            let q = e7_query(m);
            assert!(arity_of(&q, db.catalog()).is_ok());
            eval_query(&q, &db).unwrap();
        }
    }
}
