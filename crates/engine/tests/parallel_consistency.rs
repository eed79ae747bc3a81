//! Properties of the parallel multi-scenario executor and the
//! copy-on-write snapshot storage underneath it:
//!
//! 1. parallel fan-out (`execute_many`, `query_all_branches`,
//!    `query_batch`) returns exactly what the sequential entry points
//!    return, for every evaluation strategy;
//! 2. copy-on-write snapshots are isolated — arbitrary updates applied to
//!    a clone never leak into the original state — while untouched
//!    relations stay physically shared.

use proptest::prelude::*;

use hypoquery_algebra::scope::dom_update;
use hypoquery_engine::{Database, PreparedState, Strategy, WhatIfTree};
use hypoquery_testkit::{
    arb_atomic_update_seq, arb_db, arb_pure_query, arb_query, arb_update, Universe,
};

const STRATEGIES: [Strategy; 5] = [
    Strategy::Auto,
    Strategy::Lazy,
    Strategy::Hql1,
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `execute_many` over a family of random (possibly hypothetical)
    /// queries equals executing each member sequentially — same results,
    /// same first error — for every strategy.
    #[test]
    fn execute_many_matches_sequential(
        queries in prop::collection::vec(arb_query(&Universe::standard(), 2, 3), 1..6),
        state in arb_db(&Universe::standard(), 5),
    ) {
        let db = database_of(&state);
        for s in STRATEGIES {
            let seq: Result<Vec<_>, _> =
                queries.iter().map(|q| db.execute(q, s)).collect();
            let par = db.execute_many(&queries, s);
            match (seq, par) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "strategy {}", s),
                (Err(a), Err(b)) => {
                    prop_assert_eq!(a.to_string(), b.to_string(), "strategy {}", s)
                }
                (a, b) => prop_assert!(false, "strategy {}: {:?} vs {:?}", s, a, b),
            }
        }
    }

    /// `query_all_branches` agrees with per-branch `query_at` on a
    /// what-if tree built from random update chains.
    #[test]
    fn query_all_branches_matches_query_at(
        updates in prop::collection::vec(arb_update(&Universe::standard(), 1), 1..5),
        chain in prop::collection::vec(any::<bool>(), 1..5),
        state in arb_db(&Universe::standard(), 5),
    ) {
        let db = database_of(&state);
        let mut tree = WhatIfTree::new();
        let mut last: Option<String> = None;
        for (i, u) in updates.iter().enumerate() {
            let name = format!("b{i}");
            // Alternate between chaining off the previous branch and
            // starting fresh from the root, per the random `chain` bits.
            let parent = if *chain.get(i).unwrap_or(&false) { last.as_deref() } else { None };
            tree.branch_update(&db, &name, parent, u.clone()).unwrap();
            last = Some(name);
        }
        for s in [Strategy::Auto, Strategy::Lazy, Strategy::Hql1, Strategy::Hql2] {
            let all = tree.query_all_branches(&db, "R", s).unwrap();
            prop_assert_eq!(all.len(), updates.len());
            for name in tree.branch_names() {
                let direct = tree.query_at(&db, name, "R", s).unwrap();
                prop_assert_eq!(&all[name], &direct, "branch {} strategy {}", name, s);
            }
        }
    }

    /// A prepared state's `query_batch` equals per-member `query`, both
    /// lazy and materialized. (Hypothetical members are covered by
    /// `prepared_consistency.rs`.)
    #[test]
    fn prepared_batch_matches_sequential(
        updates in arb_atomic_update_seq(&Universe::standard(), 3),
        queries in prop::collection::vec(arb_pure_query(&Universe::standard(), 2, 2), 1..5),
        state in arb_db(&Universe::standard(), 5),
    ) {
        let db = database_of(&state);
        let eta = hypoquery_algebra::StateExpr::update(updates);
        let mut p = PreparedState::new(&db, eta).unwrap();
        for materialized in [false, true] {
            if materialized {
                p.materialize(&db).unwrap();
            }
            let seq: Vec<_> =
                queries.iter().map(|q| p.query(&db, q).unwrap()).collect();
            let par = p.query_batch(&db, &queries).unwrap();
            prop_assert_eq!(par, seq, "materialized={}", materialized);
        }
    }

    /// Copy-on-write isolation: applying an arbitrary update to a cloned
    /// state never changes the original, and relations the update does
    /// not touch remain physically shared between base and branch.
    #[test]
    fn cow_snapshots_are_isolated(
        updates in arb_atomic_update_seq(&Universe::standard(), 3),
        state in arb_db(&Universe::standard(), 5),
    ) {
        let pristine = state.clone();
        prop_assert!(pristine.shares_storage_with(&state));

        let branch = hypoquery_eval::eval_update(&updates, &state).unwrap();
        // The base state is bit-for-bit what it was.
        prop_assert_eq!(&state, &pristine);
        // Relations outside the update's `dom` are never written, so the
        // branch must share their storage. Relations inside it may come
        // back value-equal in fresh storage (e.g. deleting rows that are
        // not there); no sharing is promised for those.
        let dom = dom_update(&updates);
        for (name, base_rel) in state.iter() {
            if dom.contains(name) {
                continue;
            }
            let branch_rel = branch.get_ref(name);
            prop_assert!(
                branch_rel.is_some_and(|r| base_rel.ptr_eq(r)),
                "untouched relation {} was deep-copied", name
            );
        }
    }

    /// Fan-out across clones: many branches evaluated in parallel from
    /// one base agree with sequential evaluation and leave the base
    /// untouched.
    #[test]
    fn parallel_branches_leave_base_untouched(
        updates in prop::collection::vec(arb_atomic_update_seq(&Universe::standard(), 2), 1..6),
        state in arb_db(&Universe::standard(), 4),
    ) {
        let pristine = state.clone();
        let branches = hypoquery_eval::try_parallel_map(&updates, |_, u| {
            hypoquery_eval::eval_update(u, &state)
        }).unwrap();
        let sequential: Vec<_> = updates
            .iter()
            .map(|u| hypoquery_eval::eval_update(u, &state).unwrap())
            .collect();
        prop_assert_eq!(branches, sequential);
        prop_assert_eq!(&state, &pristine);
    }
}
