//! Prepared hypothetical states (Example 2.2's query families) over a
//! database with an index declared on every column: for every family
//! member — pure or itself hypothetical (`R when {insert …}`) — the
//! materialized path (pipelined, prepared xsub-value bound as
//! constants), the lazy path (`sub` / nested `when`) and the direct
//! semantics `[[q when η]]` agree.

use proptest::prelude::*;

use hypoquery_algebra::{Query, StateExpr};
use hypoquery_engine::{Database, PreparedState};
use hypoquery_eval::eval_query;
use hypoquery_testkit::{arb_db, arb_query, arb_state_expr, arb_update, Universe};

/// `state` loaded into an engine database with every column indexed, so
/// every index gate that can fire does.
fn indexed_database(state: &hypoquery_storage::DatabaseState) -> Database {
    let mut db = Database::with_catalog(state.catalog().clone());
    for (name, rel) in state.iter() {
        db.load(name.as_str(), rel.iter().cloned()).unwrap();
    }
    for (name, schema) in state.catalog().iter() {
        for col in 0..schema.arity {
            db.create_index(name.as_str(), col).unwrap();
        }
    }
    db
}

fn arb_member() -> BoxedStrategy<Query> {
    let u = Universe::standard();
    prop_oneof![
        arb_query(&u, 2, 2),
        (arb_query(&u, 2, 1), arb_update(&u, 1))
            .prop_map(|(q, upd)| q.when(StateExpr::update(upd))),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn materialized_equals_lazy_equals_direct(
        eta in arb_state_expr(&Universe::standard(), 1),
        family in prop::collection::vec(arb_member(), 1..4),
        state in arb_db(&Universe::standard(), 5),
    ) {
        let db = indexed_database(&state);
        let lazy = PreparedState::new(&db, eta.clone()).unwrap();
        let mut eager = lazy.clone();
        eager.materialize(&db).unwrap();
        for q in &family {
            let expected = eval_query(&q.clone().when(eta.clone()), db.state()).unwrap();
            prop_assert_eq!(&lazy.query(&db, q).unwrap(), &expected, "lazy: {}", q);
            prop_assert_eq!(&eager.query(&db, q).unwrap(), &expected, "materialized: {}", q);
        }
    }
}
