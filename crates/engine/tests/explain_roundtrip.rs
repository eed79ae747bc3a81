//! EXPLAIN prints runnable HQL: its `plan:` line, run as a query under the
//! same strategy, answers what the explained query answers.

use proptest::prelude::*;

use hypoquery_engine::{Database, Query, Strategy};
use hypoquery_testkit::{arb_db, arb_query, Universe};

const STRATEGIES: [Strategy; 4] = [
    Strategy::Auto,
    Strategy::Lazy,
    Strategy::Hql2,
    Strategy::Delta,
];

fn database_of(state: &hypoquery_storage::DatabaseState) -> Database {
    let mut db = Database::with_catalog(state.catalog().clone());
    for (name, rel) in state.iter() {
        db.load(name.as_str(), rel.iter().cloned()).unwrap();
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn explained_plans_run_as_queries(
        q in arb_query(&Universe::standard(), 2, 3),
        state in arb_db(&Universe::standard(), 4),
    ) {
        let db = database_of(&state);
        for s in STRATEGIES {
            let Ok(text) = db.explain_query(&q, s) else {
                // Only eager-delta refuses a query (one with no mod-ENF
                // form), and then running it fails alike.
                prop_assert!(s == Strategy::Delta && db.execute(&q, s).is_err());
                continue;
            };
            let plan = text
                .lines()
                .find_map(|l| l.strip_prefix("plan: "))
                .unwrap_or_else(|| panic!("no plan line:\n{text}"));
            let replayed = db
                .query_with(plan, s)
                .unwrap_or_else(|e| panic!("{s}: plan `{plan}` of `{q}` fails: {e}"));
            prop_assert_eq!(replayed, db.execute(&q, s).unwrap(), "{} plan of {}", s, q);
        }
    }
}

/// The plan line reads back to the very plan the planner built, not
/// merely to an equivalent query.
#[test]
fn plan_line_parses_to_the_plan() {
    let state = hypoquery_storage::DatabaseState::new(Universe::standard().catalog);
    let db = database_of(&state);
    let q: Query = db
        .prepare("(R join S on #0 = #2) when {insert into R (select #0 > 3 (S))}")
        .unwrap();
    let text = db.explain_query(&q, Strategy::Auto).unwrap();
    let plan = text.lines().find_map(|l| l.strip_prefix("plan: ")).unwrap();
    assert_eq!(db.parse(plan).unwrap(), db.plan_query(&q).query, "{text}");
}
