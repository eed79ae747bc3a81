//! Quickstart: hypothetical queries in five minutes.
//!
//! Run with: `cargo run --example quickstart`

use hypoquery::storage::tuple;
use hypoquery::{Database, Strategy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Define a schema and load data. Columns are positional: emp is
    //    (id, salary), dept is (emp_id, dept_id).
    let mut db = Database::new();
    db.define("emp", 2)?;
    db.define("dept", 2)?;
    db.load(
        "emp",
        [
            tuple![1, 100],
            tuple![2, 200],
            tuple![3, 300],
            tuple![4, 400],
        ],
    )?;
    db.load("dept", [tuple![1, 10], tuple![2, 10], tuple![3, 20]])?;

    // 2. Ordinary queries use a compact algebraic syntax.
    let high = db.query("select #1 >= 300 (emp)")?;
    println!("high earners today:            {high}");

    // 3. A hypothetical query: what would the join look like *if* we gave
    //    employee 4 a department and fired everyone earning < 150 —
    //    without changing anything?
    let q = "(emp join dept on #0 = #2) \
             when {insert into dept (row(4, 20)); \
                   delete from emp (select #1 < 150 (emp))}";
    let hypothetical = db.query(q)?;
    println!("join under the proposed plan:  {hypothetical}");
    println!("emp is untouched:              {}", db.query("emp")?);

    // 4. The same query can be evaluated anywhere on the paper's
    //    lazy↔eager spectrum — the answer never changes, only the plan.
    for strategy in [Strategy::Lazy, Strategy::Hql2, Strategy::Delta] {
        let out = db.query_with(q, strategy)?;
        assert_eq!(out, hypothetical);
        println!("strategy {strategy:<5} agrees ({} rows)", out.len());
    }

    // 5. EXPLAIN shows what the planner chose and why.
    println!("\nEXPLAIN:\n{}", db.explain(q)?);

    // 6. Hypothetical states can also be explicit substitutions — "pretend
    //    emp is just its top earners".
    let out = db.query("dept when {select #1 >= 200 (emp) / dept}")?;
    println!("dept replaced by a view of emp: {out}");

    Ok(())
}
