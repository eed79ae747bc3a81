//! Cross-crate end-to-end scenarios: parser → typing → rewriting →
//! planner → engines, mixing the engine's features (branches, constraints,
//! temps, aggregation) the way a downstream application would.

use proptest::prelude::*;

use hypoquery::storage::tuple;
use hypoquery::{Database, EngineError, Strategy, TempTables, WhatIfTree};
use hypoquery_testkit::{arb_db, arb_query, Universe};

/// A small order-management schema used by several scenarios.
fn shop() -> Database {
    let mut db = Database::new();
    db.define("products", 2).unwrap(); // (product, price)
    db.define("orders", 2).unwrap(); // (order, product)
    db.define("vip", 1).unwrap(); // (order)
    db.load(
        "products",
        [tuple![1, 10], tuple![2, 25], tuple![3, 40], tuple![4, 55]],
    )
    .unwrap();
    db.load(
        "orders",
        [
            tuple![100, 1],
            tuple![100, 3],
            tuple![101, 2],
            tuple![102, 4],
        ],
    )
    .unwrap();
    db.load("vip", [tuple![101]]).unwrap();
    db
}

#[test]
fn full_scenario_pricing_whatif() {
    let mut db = shop();
    // Constraint: no product may cost more than 100.
    db.add_constraint("price_cap", "select #1 > 100 (products)")
        .unwrap();

    // Branches: two catalog-trimming proposals.
    let mut tree = WhatIfTree::new();
    tree.branch(
        &db,
        "drop_cheap",
        None,
        "delete from products (select #1 < 20 (products))",
    )
    .unwrap();
    tree.branch(
        &db,
        "premium_only",
        Some("drop_cheap"),
        "delete from products (select #1 < 50 (products))",
    )
    .unwrap();

    // Which order lines become unfulfillable (reference a dropped
    // product)?
    let dangling = "project 0, 1 (orders) except \
                    project 0, 1 (orders join products on #1 = #2)";
    assert!(db.query(dangling).unwrap().is_empty());
    let at_cheap = tree
        .query_at(&db, "drop_cheap", dangling, Strategy::Auto)
        .unwrap();
    assert_eq!(at_cheap.len(), 1); // order 100 references product 1
    let at_premium = tree
        .query_at(&db, "premium_only", dangling, Strategy::Auto)
        .unwrap();
    assert_eq!(at_premium.len(), 3);

    // All strategies agree at every branch.
    for s in [Strategy::Lazy, Strategy::Hql2, Strategy::Delta] {
        assert_eq!(
            tree.query_at(&db, "premium_only", dangling, s).unwrap(),
            at_premium,
            "strategy {s}"
        );
    }

    // Committing the milder branch keeps the constraint satisfied.
    tree.clone_commit(&mut db, "drop_cheap");
    assert_eq!(db.query("products").unwrap().len(), 3);
}

// Helper because `commit` consumes the tree; keeps the test tidy.
trait CloneCommit {
    fn clone_commit(&self, db: &mut Database, branch: &str);
}
impl CloneCommit for WhatIfTree {
    fn clone_commit(&self, db: &mut Database, branch: &str) {
        self.clone().commit(db, branch).unwrap();
    }
}

#[test]
fn aggregation_distributes_through_when() {
    let db = shop();
    // Average-ish analytics under a hypothetical restock: count and sum of
    // prices, per first digit bucket — under an insert.
    let q = "aggregate [; count, sum 1, min 1, max 1] (products) \
             when {insert into products (row(5, 70))}";
    let out = db.query(q).unwrap();
    assert!(out.contains(&tuple![5, 200, 10, 70]));
    // Same through every strategy.
    for s in [Strategy::Lazy, Strategy::Hql2, Strategy::Delta] {
        assert_eq!(db.query_with(q, s).unwrap(), out);
    }
    // Grouped.
    let q = "aggregate [1; count] (orders) when {delete from orders (row(100, 1))}";
    let grouped = db.query(q).unwrap();
    assert_eq!(grouped.len(), 3);
}

#[test]
fn temps_compose_with_hypotheticals() {
    let db = shop();
    let mut temps = TempTables::new();
    // vip is both a base table and (re)definable as a temp view.
    temps
        .define(
            &db,
            "vip",
            "project 0 (orders join products on #1 = #2 and #3 >= 40)",
        )
        .unwrap();
    // Querying the temp under a hypothetical price change: product 3 drops
    // below 40, order 100 leaves the view; 102 stays.
    let out = temps
        .query(
            &db,
            "vip when {delete from products (row(3, 40)); \
                       insert into products (row(3, 30))}",
            Strategy::Auto,
        )
        .unwrap();
    assert_eq!(out.len(), 1);
    assert!(out.contains(&tuple![102]));
}

#[test]
fn constraint_violations_identify_all_constraints_in_order() {
    let mut db = shop();
    db.add_constraint("a_cap", "select #1 > 50 (products)")
        .unwrap();
    // Already-violating state is possible (constraints only guard
    // updates); a no-op-ish update now trips the earliest constraint.
    let err = db
        .execute_update("insert into products (row(9, 60))")
        .unwrap_err();
    assert!(matches!(err, EngineError::ConstraintViolation { .. }));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Engine Auto agrees with every fixed strategy on random queries
    /// over random states (the public-API version of the eval-level
    /// all-strategies-agree invariant).
    #[test]
    fn engine_strategies_agree(
        q in arb_query(&Universe::standard(), 2, 3),
        state in arb_db(&Universe::standard(), 5),
    ) {
        let mut db = Database::with_catalog(state.catalog().clone());
        for (name, rel) in state.iter() {
            db.load(name.as_str(), rel.iter().cloned()).unwrap();
        }
        let auto = db.execute(&q, Strategy::Auto).unwrap();
        for s in [Strategy::Lazy, Strategy::Hql2] {
            prop_assert_eq!(&auto, &db.execute(&q, s).unwrap(), "strategy {}", s);
        }
        // Delta when a mod-ENF form exists.
        if hypoquery::core::to_mod_enf(&q).is_ok() {
            prop_assert_eq!(&auto, &db.execute(&q, Strategy::Delta).unwrap());
        }
    }
}
