//! Property tests for the paper's lemmas, theorems, and propositions,
//! checked against the direct semantics on random states and expressions.
//!
//! Covered here: Lemmas 3.2 (semantic half), 3.5, 3.6, 3.9; Theorems 3.10
//! and 4.1; Propositions 5.1, 5.3, 5.4; the xsub smash/composition
//! equation of §5.3; and the delta capture/smash laws of §5.5.

use proptest::prelude::*;

use hypoquery_algebra::{Query, StateExpr};
use hypoquery_core::{
    compose_pure, fully_lazy, red_query, red_state, red_update, slice, sub_query, to_enf_query,
    to_mod_enf, RewriteTrace,
};
use hypoquery_eval::{
    algorithm_hql1, algorithm_hql2, algorithm_hql3, apply_subst, eval_pure, eval_query, eval_state,
    eval_update, materialize_subst, DeltaValue, XsubValue,
};
use hypoquery_testkit::{
    arb_atomic_update_seq, arb_db, arb_pure_query, arb_pure_subst, arb_query, arb_state_expr,
    arb_update, Universe,
};

fn universe() -> Universe {
    Universe::standard()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Lemma 3.5: [[sub(Q, ρ)]](DB) = [[Q]](apply(DB, ρ)).
    #[test]
    fn lemma_3_5(
        q in arb_pure_query(&universe(), 2, 3),
        rho in arb_pure_subst(&universe(), 2),
        db in arb_db(&universe(), 5),
    ) {
        let substituted = sub_query(&q, &rho).unwrap();
        let lhs = eval_pure(&substituted, &db).unwrap();
        let rhs = eval_pure(&q, &apply_subst(&db, &rho).unwrap()).unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    /// Lemma 3.6: apply(DB, ρ₁#ρ₂) = apply(apply(DB, ρ₁), ρ₂).
    #[test]
    fn lemma_3_6(
        r1 in arb_pure_subst(&universe(), 2),
        r2 in arb_pure_subst(&universe(), 2),
        db in arb_db(&universe(), 5),
    ) {
        let composed = compose_pure(&r1, &r2).unwrap();
        let lhs = apply_subst(&db, &composed).unwrap();
        let rhs = apply_subst(&apply_subst(&db, &r1).unwrap(), &r2).unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    /// Lemma 3.9: apply(DB, slice(U)) = [[U]](DB), for pure updates —
    /// including the §6 conditional extension via the 0-ary-guard slice.
    #[test]
    fn lemma_3_9(
        u in arb_update(&universe(), 2),
        db in arb_db(&universe(), 5),
    ) {
        // Purify inner queries first (red_update), asserting purification
        // preserves update semantics along the way.
        let pure_u = red_update(&u).unwrap();
        let direct = eval_update(&pure_u, &db).unwrap();
        prop_assert_eq!(&direct, &eval_update(&u, &db).unwrap());
        let sliced = slice(&pure_u).unwrap();
        prop_assert_eq!(apply_subst(&db, &sliced).unwrap(), direct);
    }

    /// Theorem 4.1 (subsumes Theorem 3.10): red(Q) is pure and
    /// [[Q]](DB) = [[red(Q)]](DB); and [[η]](DB) = apply(DB, red(η)).
    #[test]
    fn theorem_4_1(
        q in arb_query(&universe(), 2, 3),
        eta in arb_state_expr(&universe(), 2),
        db in arb_db(&universe(), 5),
    ) {
        let reduced = red_query(&q).unwrap();
        prop_assert!(reduced.is_pure());
        prop_assert_eq!(
            eval_query(&q, &db).unwrap(),
            eval_pure(&reduced, &db).unwrap()
        );

        let rho = red_state(&eta).unwrap();
        prop_assert_eq!(
            eval_state(&eta, &db).unwrap(),
            apply_subst(&db, &rho).unwrap()
        );
    }

    /// The traced lazy strategy (with binding removal) agrees with red.
    #[test]
    fn lazy_strategy_agrees_with_red(
        q in arb_query(&universe(), 2, 3),
        db in arb_db(&universe(), 5),
    ) {
        let mut trace = RewriteTrace::new();
        let lazy = fully_lazy(&q, &mut |q| q, &mut trace);
        prop_assert!(lazy.is_pure());
        prop_assert_eq!(
            eval_pure(&lazy, &db).unwrap(),
            eval_query(&q, &db).unwrap()
        );
    }

    /// Proposition 5.1: Algorithm HQL-1 is correct.
    #[test]
    fn proposition_5_1(
        q in arb_query(&universe(), 2, 3),
        db in arb_db(&universe(), 5),
    ) {
        let enf = to_enf_query(&q, &mut RewriteTrace::new());
        prop_assert_eq!(
            algorithm_hql1(&enf, &db).unwrap(),
            eval_query(&q, &db).unwrap()
        );
    }

    /// Proposition 5.3: Algorithm HQL-2 is correct.
    #[test]
    fn proposition_5_3(
        q in arb_query(&universe(), 2, 3),
        db in arb_db(&universe(), 5),
    ) {
        let enf = to_enf_query(&q, &mut RewriteTrace::new());
        prop_assert_eq!(
            algorithm_hql2(&enf, &db).unwrap(),
            eval_query(&q, &db).unwrap()
        );
    }

    /// ENF normalization itself preserves semantics (it only uses
    /// EQUIV_when rules, so this also exercises their composition).
    #[test]
    fn enf_preserves_semantics(
        q in arb_query(&universe(), 2, 3),
        db in arb_db(&universe(), 5),
    ) {
        let enf = to_enf_query(&q, &mut RewriteTrace::new());
        prop_assert_eq!(
            eval_query(&enf, &db).unwrap(),
            eval_query(&q, &db).unwrap()
        );
    }

    /// Proposition 5.4: Algorithm HQL-3 is correct on mod-ENF queries.
    #[test]
    fn proposition_5_4(
        base in arb_pure_query(&universe(), 2, 2),
        updates in prop::collection::vec(arb_atomic_update_seq(&universe(), 3), 1..3),
        db in arb_db(&universe(), 5),
    ) {
        let mut q = base;
        for u in updates {
            q = q.when(StateExpr::update(u));
        }
        let m = to_mod_enf(&q).unwrap();
        prop_assert_eq!(
            algorithm_hql3(&m, &db).unwrap(),
            eval_query(&q, &db).unwrap()
        );
    }

    /// mod-ENF conversion preserves semantics whenever it succeeds —
    /// checked over arbitrary HQL queries (most contain compositions that
    /// convert to update sequences, some fail with NotModEnf and are
    /// skipped).
    #[test]
    fn mod_enf_preserves_semantics(
        q in arb_query(&universe(), 2, 3),
        db in arb_db(&universe(), 5),
    ) {
        if let Ok(m) = to_mod_enf(&q) {
            prop_assert_eq!(
                eval_query(&m, &db).unwrap(),
                eval_query(&q, &db).unwrap()
            );
            if hypoquery_core::is_mod_enf(&m) {
                prop_assert_eq!(
                    algorithm_hql3(&m, &db).unwrap(),
                    eval_query(&q, &db).unwrap()
                );
            }
        }
    }

    /// §5.3: apply(DB, [ε]ₓ(DB)) = [[ε]](DB).
    #[test]
    fn xsub_materialization_correct(
        eps in arb_pure_subst(&universe(), 2),
        db in arb_db(&universe(), 5),
    ) {
        let e = materialize_subst(&eps, &db).unwrap();
        prop_assert_eq!(
            e.apply(&db).unwrap(),
            apply_subst(&db, &eps).unwrap()
        );
    }

    /// §5.3: [ε₁#ε₂]ₓ(DB) = [ε₁]ₓ(DB) ! [ε₂]ₓ(apply(DB, [ε₁]ₓ(DB))).
    #[test]
    fn xsub_smash_composition(
        e1 in arb_pure_subst(&universe(), 2),
        e2 in arb_pure_subst(&universe(), 2),
        db in arb_db(&universe(), 5),
    ) {
        let composed = compose_pure(&e1, &e2).unwrap();
        let lhs = materialize_subst(&composed, &db).unwrap();
        let m1 = materialize_subst(&e1, &db).unwrap();
        let mid = m1.apply(&db).unwrap();
        let m2 = materialize_subst(&e2, &mid).unwrap();
        let rhs = m1.smash(&m2);
        prop_assert_eq!(lhs, rhs);
    }

    /// §5.5: the precise delta captures the xsub-value, and delta smash
    /// corresponds to sequential application.
    #[test]
    fn delta_capture_and_smash(
        e1 in arb_pure_subst(&universe(), 2),
        e2 in arb_pure_subst(&universe(), 2),
        db in arb_db(&universe(), 5),
    ) {
        let m1 = materialize_subst(&e1, &db).unwrap();
        let d1 = DeltaValue::capture_xsub(&m1, &db).unwrap();
        prop_assert_eq!(d1.apply(&db).unwrap(), m1.apply(&db).unwrap());

        // Capture e2 in the intermediate state, then smash.
        let mid = d1.apply(&db).unwrap();
        let m2 = materialize_subst(&e2, &mid).unwrap();
        let d2 = DeltaValue::capture_xsub(&m2, &mid).unwrap();
        let smashed = d1.smash(&d2).unwrap();
        prop_assert_eq!(
            smashed.apply(&db).unwrap(),
            d2.apply(&mid).unwrap()
        );
    }

    /// filter1 under a non-empty ambient xsub-value computes the query in
    /// the overlaid state.
    #[test]
    fn filter1_respects_ambient_filter(
        q in arb_pure_query(&universe(), 2, 2),
        eps in arb_pure_subst(&universe(), 1),
        db in arb_db(&universe(), 5),
    ) {
        let e = materialize_subst(&eps, &db).unwrap();
        let overlaid = e.apply(&db).unwrap();
        prop_assert_eq!(
            hypoquery_eval::filter1(&q, &e, &db).unwrap(),
            eval_query(&q, &overlaid).unwrap()
        );
    }
}

// The all-strategies-agree invariant, exercised once more with deeper
// nesting than the per-proposition tests.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_strategies_agree(
        q in arb_query(&universe(), 2, 4),
        db in arb_db(&universe(), 4),
    ) {
        let expected = eval_query(&q, &db).unwrap();
        // Lazy.
        let reduced = red_query(&q).unwrap();
        prop_assert_eq!(&expected, &eval_pure(&reduced, &db).unwrap());
        // Eager HQL-1 / HQL-2.
        let enf = to_enf_query(&q, &mut RewriteTrace::new());
        prop_assert_eq!(&expected, &algorithm_hql1(&enf, &db).unwrap());
        prop_assert_eq!(&expected, &algorithm_hql2(&enf, &db).unwrap());
        // Hybrid: materialize the outermost substitution eagerly, reduce
        // the rest lazily.
        if let Query::When(body, eta) = &enf {
            if let StateExpr::Subst(eps) = &**eta {
                let e = materialize_subst(eps, &db).unwrap();
                let lazy_body = red_query(body).unwrap();
                let hybrid = eval_pure(&lazy_body, &e.apply(&db).unwrap()).unwrap();
                prop_assert_eq!(&expected, &hybrid);
            }
        }
    }
}

#[test]
fn empty_xsub_is_transparent() {
    // Degenerate sanity check outside proptest: filter1 with {} equals
    // direct evaluation on a handcrafted state.
    let u = universe();
    let db = hypoquery_storage::DatabaseState::new(u.catalog.clone());
    let q = Query::base("R").union(Query::base("S"));
    assert_eq!(
        hypoquery_eval::filter1(&q, &XsubValue::empty(), &db).unwrap(),
        eval_query(&q, &db).unwrap()
    );
}
