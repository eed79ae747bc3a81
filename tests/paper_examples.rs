//! The paper's worked examples, end to end: surface syntax → typing →
//! rewriting → planning → every evaluation strategy, on real data.

use hypoquery::algebra::{CmpOp, Predicate, Query};
use hypoquery::core::{fully_lazy, lazy_state, red_state, RewriteTrace, Rule};
use hypoquery::opt::optimize;
use hypoquery::parser::parse_state_expr;
use hypoquery::storage::tuple;
use hypoquery::{Database, Strategy};

/// R and S as in Example 2.1(b): same arity; S has A-values spanning the
/// 30/60 thresholds.
fn example_db() -> Database {
    let mut db = Database::new();
    db.define("R", 2).unwrap();
    db.define("S", 2).unwrap();
    db.load("R", [tuple![61, 0], tuple![10, 0]]).unwrap();
    db.load(
        "S",
        [
            tuple![10, 1],
            tuple![35, 2],
            tuple![45, 3],
            tuple![61, 4],
            tuple![75, 5],
        ],
    )
    .unwrap();
    db
}

/// Example 2.1(b): query (1) —
///
/// ```text
/// [ ((R ⋈ S) when {ins(R, σ_{A>30}(S))})
///   − ((R ⋈ S) when {ins(R, σ_{A>30}(S))}) ]   (same η₁ = η₂ here: the
/// when {del(S, σ_{A<60}(S))}                     difference of equal
///                                                branches is ∅)
/// ```
///
/// The paper's full query uses two *different* inner updates that reduce
/// to the same pure query; we check both readings.
#[test]
fn example_2_1b_lazy_proves_emptiness_without_data() {
    let db = example_db();
    // The two branches as the paper derives them: both reduce to
    // (R ∪ σ_{A≥60}(S)) ⋈ σ_{A≥60}(S).
    let branch = "(R join S on #0 = #2) when {insert into R (select #0 > 30 (S))}";
    let q_src =
        format!("(({branch}) except ({branch})) when {{delete from S (select #0 < 60 (S))}}");

    // Lazy reduction + RA optimization proves emptiness *syntactically*.
    let q = db.prepare(&q_src).unwrap();
    let reduced = fully_lazy(&q, &mut |q| q, &mut RewriteTrace::new());
    let (optimized, _) = optimize(&reduced, db.catalog());
    assert_eq!(optimized, Query::empty(4), "lazy rewriting must reach ∅");

    // And of course every strategy returns the empty relation on data.
    for s in [
        Strategy::Auto,
        Strategy::Lazy,
        Strategy::Hql2,
        Strategy::Delta,
    ] {
        assert!(db.query_with(&q_src, s).unwrap().is_empty(), "strategy {s}");
    }
}

/// The sanity check the paper states alongside query (1): *without* the
/// outer `del`, the single branch is non-empty (σ_{30<A≤…}(S) ⋈ S joins).
#[test]
fn example_2_1b_without_outer_update_is_nonempty() {
    let db = example_db();
    let q = "(R join S on #0 = #2) when {insert into R (select #0 > 30 (S))}";
    let out = db.query(q).unwrap();
    assert!(!out.is_empty());
    // With the outer delete, the branch shrinks to the A≥60 fragment.
    let q = format!("({q}) when {{delete from S (select #0 < 60 (S))}}");
    let narrowed = db.query(&q).unwrap();
    assert!(!narrowed.is_empty());
    assert!(narrowed.len() < out.len());
}

/// Example 2.2(a): the composition
/// `{del(S, σ_{A<60}(S))} # {ins(R, σ_{A>30}(S))}`
/// reduces + simplifies to the paper's final substitution
/// `{σ_{A≥60}(S)/S, (R ∪ σ_{A≥60}(S))/R}`.
#[test]
fn example_2_2a_composed_substitution_matches_paper() {
    let db = example_db();
    let eta = parse_state_expr(
        "{delete from S (select #0 < 60 (S))} # {insert into R (select #0 > 30 (S))}",
    )
    .unwrap();
    let rho = red_state(&eta).unwrap();
    // Optimize each binding.
    let s_binding = optimize(rho.get(&"S".into()).unwrap(), db.catalog()).0;
    let r_binding = optimize(rho.get(&"R".into()).unwrap(), db.catalog()).0;
    let sigma_ge60 = Query::base("S").select(Predicate::col_cmp(0, CmpOp::Ge, 60));
    assert_eq!(s_binding, sigma_ge60);
    assert_eq!(r_binding, Query::base("R").union(sigma_ge60.clone()));

    // "This substitution remains valid even if the underlying database
    // state is changed": apply it to many different queries/states and
    // compare against nested whens.
    let nested = "(R union S) when {insert into R (select #0 > 30 (S))} \
                  when {delete from S (select #0 < 60 (S))}";
    let composed = Query::base("R").union(Query::base("S")).when(eta.clone());
    assert_eq!(
        db.query(nested).unwrap(),
        db.execute(&composed, Strategy::Auto).unwrap()
    );
}

/// Example 2.3: binding removal. The update touches R, S and T, but a
/// query reading only R ∪ T never pays for the S slice.
#[test]
fn example_2_3_binding_removal() {
    let mut db = example_db();
    db.define("T", 2).unwrap();
    let q = db
        .prepare(
            "(R union T) when {insert into R (select #0 > 1 (S)); \
                               delete from S (select #0 < 5 (R)); \
                               insert into T (project 0, 1 (R))}",
        )
        .unwrap();
    let mut trace = RewriteTrace::new();
    let reduced = fully_lazy(&q, &mut |q| q, &mut trace);
    assert_eq!(trace.count(Rule::DropUnusedBinding.name()), 1);
    assert!(!reduced.to_string().contains("< 5"), "S slice must be gone");
    // All strategies agree on the value.
    let expected = db
        .query_with(
            "(R union T) when {insert into R (select #0 > 1 (S)); \
                           delete from S (select #0 < 5 (R)); \
                           insert into T (project 0, 1 (R))}",
            Strategy::Hql2,
        )
        .unwrap();
    assert_eq!(
        hypoquery::eval::eval_pure(&reduced, db.state()).unwrap(),
        expected
    );
}

/// Example 2.2(b)-style reuse: one composed substitution answers a family
/// of queries against the same hypothetical state.
#[test]
fn example_2_2b_family_of_queries() {
    let db = example_db();
    let eta = parse_state_expr(
        "{delete from S (select #0 < 60 (S))} # {insert into R (select #0 > 30 (S))}",
    )
    .unwrap();
    let rho = lazy_state(&eta, &mut |q| q, &mut RewriteTrace::new());
    for family_member in [
        Query::base("R"),
        Query::base("S"),
        Query::base("R").join(Query::base("S"), Predicate::col_col(0, CmpOp::Eq, 2)),
        Query::base("R").diff(Query::base("S")),
    ] {
        // Reuse ρ: sub into each family member...
        let via_subst = hypoquery::core::sub_query(&family_member, &rho).unwrap();
        let lhs = hypoquery::eval::eval_pure(&via_subst, db.state()).unwrap();
        // ...must equal evaluating the nested hypothetical directly.
        let rhs = db
            .execute(&family_member.when(eta.clone()), Strategy::Hql2)
            .unwrap();
        assert_eq!(lhs, rhs);
    }
}

/// The Example 2.1(a) stack discipline: nested whens with an *alternative*
/// branch pair under a shared prefix — both orderings of evaluation agree
/// with the direct semantics (exercised through the engine's branches).
#[test]
fn example_2_1_tree_of_alternatives() {
    let db = example_db();
    let mut tree = hypoquery::WhatIfTree::new();
    tree.branch(&db, "eta3", None, "delete from S (select #0 < 60 (S))")
        .unwrap();
    tree.branch(
        &db,
        "eta1",
        Some("eta3"),
        "insert into R (select #0 > 30 (S))",
    )
    .unwrap();
    tree.branch(
        &db,
        "eta2",
        Some("eta3"),
        "insert into R (select #0 > 40 (S))",
    )
    .unwrap();
    let q = "R join S on #0 = #2";
    let d12 = tree
        .diff_between(&db, "eta1", "eta2", q, Strategy::Auto)
        .unwrap();
    // A>30 vs A>40 under "only A≥60 survives in S": identical inserts, so
    // the difference is empty — the same collapse as Example 2.1(b).
    assert!(d12.is_empty());
    // But against a cut at 70 the branches differ.
    let mut tree2 = hypoquery::WhatIfTree::new();
    tree2
        .branch(&db, "eta3", None, "delete from S (select #0 < 60 (S))")
        .unwrap();
    tree2
        .branch(
            &db,
            "eta1",
            Some("eta3"),
            "insert into R (select #0 > 30 (S))",
        )
        .unwrap();
    tree2
        .branch(
            &db,
            "eta2",
            Some("eta3"),
            "insert into R (select #0 > 70 (S))",
        )
        .unwrap();
    let d = tree2
        .diff_between(&db, "eta1", "eta2", q, Strategy::Auto)
        .unwrap();
    assert!(!d.is_empty());
}

/// Example 3.1 through the parser: sub(Q, ρ) via an explicit-substitution
/// `when`.
#[test]
fn example_3_1_surface_syntax() {
    let mut db = example_db();
    db.define("V", 1).unwrap();
    db.load("V", [tuple![7]]).unwrap();
    // Q = π₂(R × S) ∪ V  with  ρ = {(S − R)/R, σ_{#0>30}(R)/S}.
    let q = "(project 2 (R times S) union V) \
             when {S except R / R, select #0 > 30 (R) / S}";
    let out = db.query(q).unwrap();
    // Oracle: build the substituted query manually.
    let oracle = "project 2 ((S except R) times select #0 > 30 (R)) union V";
    assert_eq!(out, db.query(oracle).unwrap());
}
