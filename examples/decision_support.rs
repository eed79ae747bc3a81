//! Decision support with a tree of hypothetical updates — the scenario of
//! the paper's Example 2.1.
//!
//! A retailer plans next quarter's inventory. Each node of the what-if
//! tree is a candidate plan built on its parent; queries compare plans
//! *without ever mutating the database*, and the winning plan is finally
//! committed.
//!
//! Run with: `cargo run --example decision_support`

use hypoquery::storage::tuple;
use hypoquery::{Database, Strategy, WhatIfTree};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // stock: (item, qty); orders: (item, qty_ordered)
    let mut db = Database::new();
    db.define("stock", 2)?;
    db.define("orders", 2)?;
    db.load(
        "stock",
        [
            tuple![1, 50],
            tuple![2, 5],
            tuple![3, 80],
            tuple![4, 2],
            tuple![5, 120],
        ],
    )?;
    db.load("orders", [tuple![1, 30], tuple![2, 10], tuple![4, 8]])?;

    // The root plan (η₃ in Example 2.1): drop discontinued low-stock items.
    let mut tree = WhatIfTree::new();
    tree.branch(
        &db,
        "cleanup",
        None,
        "delete from stock (select #1 < 5 (stock))",
    )?;

    // Two competing extensions (η₁ and η₂): restock aggressively, or run a
    // clearance on slow movers.
    tree.branch(
        &db,
        "restock",
        Some("cleanup"),
        "insert into stock (row(2, 100)); insert into stock (row(6, 60))",
    )?;
    tree.branch(
        &db,
        "clearance",
        Some("cleanup"),
        "delete from stock (select #1 > 100 (stock))",
    )?;

    // Which order lines would be satisfiable (stock qty ≥ ordered qty)
    // under each plan?
    let fulfillable = "project 0, 3 (orders join stock on #0 = #2 and #3 >= #1)";
    for plan in ["cleanup", "restock", "clearance"] {
        let rows = tree.query_at(&db, plan, fulfillable, Strategy::Auto)?;
        println!("plan {plan:<10} fulfills {} order(s): {rows}", rows.len());
    }

    // The Example 2.1 comparison query: what does `restock` fulfill that
    // `clearance` does not?  ((Q when η₁) − (Q when η₂)) when η₃ in the
    // paper; the tree composes the shared prefix for us.
    let gained = tree.diff_between(&db, "restock", "clearance", fulfillable, Strategy::Auto)?;
    println!("\nrestock fulfills but clearance does not: {gained}");

    // Every strategy agrees (the paper's Propositions 5.1-5.4 in action).
    for strategy in [Strategy::Lazy, Strategy::Hql2] {
        assert_eq!(
            tree.diff_between(&db, "restock", "clearance", fulfillable, strategy)?,
            gained
        );
    }

    // Nothing has touched the real data so far.
    assert_eq!(db.query("stock")?.len(), 5);

    // Commit the winner; its whole path (cleanup, then restock) is applied.
    tree.commit(&mut db, "restock")?;
    println!(
        "\ncommitted `restock`; stock is now: {}",
        db.query("stock")?
    );
    Ok(())
}
