//! Differential property tests for column-0 ranged scans: a `select`
//! whose predicate bounds column 0 lowers to a `Scan` that walks only
//! that range, under a `Filter` with the full predicate. For random
//! predicates mixing column-0 bounds (all six comparisons, the constant
//! on either side, contradictory and single-value ranges, `i64::MIN` /
//! `i64::MAX`, and constants of another type than the column) with
//! arbitrary other conjuncts, over relations whose column 0 mixes `Int`,
//! `Str` and `Bool` values, the lowered pipeline must equal the legacy
//! oracle `eval_query` — bare, under an xsub binding, under a delta, and
//! under an xsub binding plus a delta of the same name, either way round.

use proptest::prelude::*;

use hypoquery_algebra::{CmpOp, ExplicitSubst, Predicate, Query, ScalarExpr, StateExpr, Update};
use hypoquery_eval::{eval_query, XsubValue};
use hypoquery_opt::{lower_query, lower_under_xsub, Statistics};
use hypoquery_storage::{Catalog, DatabaseState, Relation, Tuple, Value};
use hypoquery_testkit::{arb_cmp_op, arb_predicate};

/// Column-0 values: mostly small integers, plus the integer extremes and
/// values of the other two types.
fn arb_key() -> BoxedStrategy<Value> {
    prop_oneof![
        8 => (-3i64..8).prop_map(Value::int),
        1 => prop_oneof![Just(i64::MIN), Just(i64::MAX)].prop_map(Value::int),
        1 => prop_oneof![Just("a"), Just("b")].prop_map(Value::str),
        1 => any::<bool>().prop_map(Value::bool),
    ]
    .boxed()
}

fn arb_row() -> impl Strategy<Value = Tuple> {
    (arb_key(), 0i64..4).prop_map(|(k, v)| Tuple::new([k, Value::int(v)]))
}

fn arb_rel() -> impl Strategy<Value = Relation> {
    prop::collection::vec(arb_row(), 0..=10)
        .prop_map(|rows| Relation::from_rows(2, rows).expect("binary rows"))
}

/// Binary `R` and `S`, optionally with an index declared on `R.#0` (so
/// an unshadowed point equality probes instead of ranging).
fn arb_db() -> impl Strategy<Value = DatabaseState> {
    (arb_rel(), arb_rel(), any::<bool>()).prop_map(|(r, s, indexed)| {
        let mut cat = Catalog::new();
        cat.declare_arity("R", 2).unwrap();
        cat.declare_arity("S", 2).unwrap();
        let mut db = DatabaseState::new(cat);
        db.set("R", r).unwrap();
        db.set("S", s).unwrap();
        if indexed {
            db.declare_index("R", 0).unwrap();
        }
        db
    })
}

/// One conjunct bounding column 0, the constant on either side.
fn arb_bound() -> BoxedStrategy<Predicate> {
    (arb_cmp_op(), arb_key(), any::<bool>())
        .prop_map(|(op, v, const_first)| {
            let (col, c) = (ScalarExpr::Col(0), ScalarExpr::Const(v));
            if const_first {
                Predicate::Cmp(c, op, col)
            } else {
                Predicate::Cmp(col, op, c)
            }
        })
        .boxed()
}

/// A conjunction of column-0 bounds — sometimes the single-value pair
/// `#0 >= v and #0 <= v` — and arbitrary binary predicates (other
/// columns, column-to-column, `or`, `not`), in random order.
fn arb_range_pred() -> BoxedStrategy<Predicate> {
    let single = arb_key()
        .prop_map(|v| {
            Predicate::col_cmp(0, CmpOp::Ge, v.clone()).and(Predicate::col_cmp(0, CmpOp::Le, v))
        })
        .boxed();
    let part = prop_oneof![
        4 => arb_bound(),
        1 => single,
        2 => arb_predicate(2, 1),
    ];
    prop::collection::vec(part, 1..=4)
        .prop_map(|parts| {
            parts
                .into_iter()
                .reduce(Predicate::and)
                .expect("at least one part")
        })
        .boxed()
}

/// A ranged select over `R`, optionally aggregated (the `branch`
/// workload's range-aggregate shape).
fn arb_select() -> BoxedStrategy<Query> {
    (arb_range_pred(), any::<bool>())
        .prop_map(|(p, agg)| {
            let q = Query::base("R").select(p);
            if agg {
                q.aggregate(vec![], vec![hypoquery_algebra::AggExpr::Count])
            } else {
                q
            }
        })
        .boxed()
}

/// How the select is wrapped.
#[derive(Clone, Copy, Debug)]
enum Wrap {
    None,
    Xsub,
    Delta,
    DeltaInsideXsub,
    XsubInsideDelta,
}

fn arb_wrap() -> impl Strategy<Value = Wrap> {
    prop_oneof![
        Just(Wrap::None),
        Just(Wrap::Xsub),
        Just(Wrap::Delta),
        Just(Wrap::DeltaInsideXsub),
        Just(Wrap::XsubInsideDelta),
    ]
}

/// A delete-then-insert delta on `R` whose sources are ranged selects
/// themselves: deletes from `R`, inserts from `S` plus a literal row.
fn delta_on_r(row: Tuple, del: Predicate, ins: Predicate) -> StateExpr {
    StateExpr::update(Update::seq([
        Update::delete("R", Query::base("R").select(del)),
        Update::insert(
            "R",
            Query::base("S").select(ins).union(Query::singleton(row)),
        ),
    ]))
}

fn wrapped(q: Query, wrap: Wrap, delta: StateExpr, bind: Predicate) -> Query {
    let xsub = StateExpr::subst(ExplicitSubst::single(
        "R",
        Query::base("S").select(bind).union(Query::base("R")),
    ));
    match wrap {
        Wrap::None => q,
        Wrap::Xsub => q.when(xsub),
        Wrap::Delta => q.when(delta),
        Wrap::DeltaInsideXsub => q.when(delta).when(xsub),
        Wrap::XsubInsideDelta => q.when(xsub).when(delta),
    }
}

fn pipelined(q: &Query, db: &DatabaseState) -> Result<Relation, TestCaseError> {
    let plan = lower_query(q, db.catalog(), &Statistics::of(db))
        .map_err(|e| TestCaseError::fail(format!("lowering {q} failed: {e}")))?;
    plan.execute(db)
        .map_err(|e| TestCaseError::fail(format!("executing {q} failed: {e}")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The lowered ranged scan equals the oracle in every wrapper.
    #[test]
    fn ranged_scan_matches_oracle(
        db in arb_db(),
        sel in arb_select(),
        wrap in arb_wrap(),
        row in arb_row(),
        preds in (arb_range_pred(), arb_range_pred(), arb_range_pred()),
    ) {
        let (del, ins, bind) = preds;
        let q = wrapped(sel, wrap, delta_on_r(row, del, ins), bind);
        prop_assert_eq!(pipelined(&q, &db)?, eval_query(&q, &db).unwrap(), "{}", q);
    }

    /// A prepared xsub-value binds `R` to a constant relation; the body's
    /// ranged scan walks that relation.
    #[test]
    fn ranged_scan_over_prepared_xsub_matches_oracle(
        db in arb_db(),
        sel in arb_select(),
        bound in arb_rel(),
    ) {
        let e = XsubValue::new([("R".into(), bound)]);
        let plan = lower_under_xsub(&sel, &e, db.catalog(), &Statistics::of(&db)).unwrap();
        let applied = e.apply(&db).unwrap();
        prop_assert_eq!(plan.execute(&db).unwrap(), eval_query(&sel, &applied).unwrap(), "{}", sel);
    }
}
