//! Soundness of the RA rewriter, the implication engine, and the planner:
//! every transformation must preserve the direct semantics; every plan the
//! planner emits must compute the same relation as the original query.

use proptest::prelude::*;

use hypoquery_core::{is_mod_enf, to_mod_enf};
use hypoquery_eval::{eval_pure, eval_query};
use hypoquery_opt::implication::{
    fold_pred, is_folded, is_pruned, pred_implies, pred_unsat, prune_conjuncts,
};
use hypoquery_opt::{lower_query, optimize, plan, plan_as, PlannedStrategy, Statistics};
use hypoquery_testkit::{arb_db, arb_predicate, arb_pure_query, arb_query, arb_tuple, Universe};

fn universe() -> Universe {
    Universe::standard()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The RA rewriter preserves semantics on pure queries.
    #[test]
    fn optimize_preserves_semantics_pure(
        q in arb_pure_query(&universe(), 2, 4),
        db in arb_db(&universe(), 6),
    ) {
        let u = universe();
        let (opt, _) = optimize(&q, &u.catalog);
        prop_assert_eq!(
            eval_pure(&opt, &db).unwrap(),
            eval_pure(&q, &db).unwrap(),
            "optimized {} != original {}", opt, q
        );
    }

    /// ...and on full HQL queries (descending into when bodies/bindings).
    #[test]
    fn optimize_preserves_semantics_hql(
        q in arb_query(&universe(), 2, 3),
        db in arb_db(&universe(), 5),
    ) {
        let u = universe();
        let (opt, _) = optimize(&q, &u.catalog);
        prop_assert_eq!(
            eval_query(&opt, &db).unwrap(),
            eval_query(&q, &db).unwrap()
        );
    }

    /// Claimed implications hold pointwise on random tuples.
    #[test]
    fn pred_implies_is_sound(
        p in arb_predicate(2, 2),
        q in arb_predicate(2, 2),
        t in arb_tuple(2),
    ) {
        if pred_implies(&p, &q) && p.eval(&t) {
            prop_assert!(q.eval(&t), "{} claimed to imply {} but fails on {}", p, q, t);
        }
    }

    /// The rewriter's cheap "would this rule change the predicate?" checks
    /// agree with building the changed predicate and comparing.
    #[test]
    fn fold_and_prune_checks_are_exact(p in arb_predicate(4, 3)) {
        prop_assert_eq!(is_folded(&p), fold_pred(&p) == p, "fold of {}", p);
        prop_assert_eq!(is_pruned(&p), prune_conjuncts(&p) == p, "prune of {}", p);
    }

    /// Claimed unsatisfiability holds pointwise.
    #[test]
    fn pred_unsat_is_sound(
        p in arb_predicate(2, 2),
        t in arb_tuple(2),
    ) {
        if pred_unsat(&p) {
            prop_assert!(!p.eval(&t), "{} claimed unsat but holds on {}", p, t);
        }
    }

    /// Every plan the planner chooses, and every plan it builds for a
    /// fixed strategy, computes the right answer when executed by its
    /// matching engine.
    #[test]
    fn plans_execute_correctly(
        q in arb_query(&universe(), 2, 3),
        db in arb_db(&universe(), 5),
    ) {
        let u = universe();
        let stats = Statistics::of(&db);
        let p = plan(&q, &u.catalog, &stats);
        let expected = eval_query(&q, &db).unwrap();
        if p.strategy == PlannedStrategy::EagerDelta {
            prop_assert!(is_mod_enf(&p.query));
        }
        let got = p.execute_legacy(&db).unwrap();
        prop_assert_eq!(&got, &expected, "strategy {} on {}", p.strategy, q);
        // Forced plans, through both the legacy oracle and the pipeline.
        for s in [PlannedStrategy::Lazy, PlannedStrategy::EagerXsub, PlannedStrategy::EagerDelta] {
            let Ok(p) = plan_as(&q, &u.catalog, &stats, s) else { continue };
            prop_assert_eq!(&p.execute_legacy(&db).unwrap(), &expected, "forced {} on {}", s, q);
            let phys = lower_query(&p.query, &u.catalog, &stats).unwrap();
            prop_assert_eq!(&phys.execute(&db).unwrap(), &expected, "lowered {} on {}", s, q);
        }
    }

    /// The RA optimizer keeps a mod-ENF query mod-ENF, so the planner's
    /// eager-delta candidate needs no fallback.
    #[test]
    fn optimize_preserves_mod_enf(q in arb_query(&universe(), 2, 3)) {
        let u = universe();
        let Ok(m) = to_mod_enf(&q) else { return Ok(()) };
        let (opt, _) = optimize(&m, &u.catalog);
        prop_assert!(is_mod_enf(&opt), "{} optimized to {}", m, opt);
    }

    /// `optimize` stops at a fixpoint on full HQL queries: run again on
    /// its own output, it returns the same tree and fires no rule (so the
    /// firing-count fixpoint test and the pass cap stop no pass early).
    #[test]
    fn optimize_output_is_a_fixpoint(
        q in arb_query(&universe(), 2, 4),
    ) {
        let u = universe();
        let (once, _) = optimize(&q, &u.catalog);
        let (twice, trace) = optimize(&once, &u.catalog);
        prop_assert_eq!(&once, &twice);
        prop_assert_eq!(trace.total(), 0, "second run fired {:?} on {}", trace.counts, once);
    }

    /// The optimizer is idempotent: a second pass changes nothing.
    #[test]
    fn optimize_is_idempotent(
        q in arb_pure_query(&universe(), 2, 3),
    ) {
        let u = universe();
        let (once, _) = optimize(&q, &u.catalog);
        let (twice, trace) = optimize(&once, &u.catalog);
        prop_assert_eq!(&once, &twice);
        prop_assert_eq!(trace.total(), 0, "second pass fired rules on {}", once);
    }
}
