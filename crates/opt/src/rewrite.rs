//! The conventional relational-algebra equational theory, as a
//! normalizing rewriter.
//!
//! The paper's lazy strategy ends with "then evaluate Q′ using conventional
//! techniques" — this module is those techniques. It is also what makes the
//! lazy derivations of Examples 2.1(b) and 2.4(b) *finish*: after `red`,
//! algebraic simplification must discover that the residual query is empty
//! without touching data.
//!
//! Rules implemented (all standard; soundness property-tested in
//! `tests/ra_rewrites.rs`):
//!
//! * select: merge cascades, constant-fold, drop `σ_true`, kill
//!   unsatisfiable selections, prune implied conjuncts;
//! * empties: propagate `∅` through every operator;
//! * idempotence / absorption: `X ∪ X ≡ X`, `X ∩ X ≡ X`, `X − X ≡ ∅`,
//!   `X − σp(X) ≡ σ¬p(X)`, `σp(X) − X ≡ ∅`, `X ∩ σp(X) ≡ σp(X)`,
//!   `X ∪ σp(X) ≡ X`;
//! * products: `σp(X × Y) ≡ X ⋈p Y`, join-condition merging
//!   `σp(X ⋈q Y) ≡ X ⋈_{q∧p} Y`;
//! * projections: cascade merging, projection of singletons;
//! * singletons: `σp({t})` decided at rewrite time;
//! * canonical operand order for `∪`/`∩` (so syntactic equality finds
//!   `X − X` after reordering).
//!
//! `when` nodes are treated as opaque: the rewriter descends into their
//! bodies and bindings, but never moves anything across the scope boundary
//! (that is EQUIV_when's job, in `hypoquery-core`).
//!
//! [`optimize`] runs bottom-up passes over a tree it owns, rebuilding each
//! node in place. Only a firing rule changes the tree, so the fixpoint is
//! the first pass whose [`RewriteTrace`] total does not grow (at most 32
//! passes). A rule check that does not fire builds nothing: predicates
//! are tested for foldable or prunable parts before anything is folded or
//! pruned.

use hypoquery_algebra::{Predicate, Query, StateExpr};
use hypoquery_core::RewriteTrace;
use hypoquery_storage::Catalog;

use crate::implication::{
    any_conjunct, conjoin, conjuncts, fold_pred, is_folded, is_pruned, pred_unsat, prune_conjuncts,
};

/// Normalize a query with the RA equational theory. Works on full HQL
/// queries (descending into `when` bodies and substitution bindings) but
/// never crosses a `when` scope.
///
/// The catalog is needed to give the correct arity to `∅` nodes produced
/// by emptiness rules.
pub fn optimize(q: &Query, catalog: &Catalog) -> (Query, RewriteTrace) {
    optimize_owned(q.clone(), catalog)
}

/// [`optimize`] on a query the caller owns: rewrites it in place of a
/// copy.
pub fn optimize_owned(mut q: Query, catalog: &Catalog) -> (Query, RewriteTrace) {
    let mut trace = RewriteTrace::new();
    // Global fixpoint with a safety cap; each pass is a bottom-up rewrite.
    // Only a firing rule changes the tree, so a pass that fires none is
    // the fixpoint.
    for _ in 0..32 {
        let fired = trace.total();
        q = rewrite_node(q, catalog, &mut trace);
        if trace.total() == fired {
            break;
        }
    }
    (q, trace)
}

/// Arity of a query assuming it is well-typed (used to type `∅` nodes).
/// Walks only the operators that decide the arity, checking nothing.
fn arity_of(q: &Query, catalog: &Catalog) -> usize {
    match q {
        Query::Base(name) => catalog
            .arity(name)
            .expect("optimizer inputs are type-checked"),
        Query::Singleton(t) => t.arity(),
        Query::Empty { arity } => *arity,
        Query::Project(_, cols) => cols.len(),
        Query::Aggregate { group_by, aggs, .. } => group_by.len() + aggs.len(),
        Query::Product(a, b) | Query::Join(a, b, _) => arity_of(a, catalog) + arity_of(b, catalog),
        Query::Select(a, _)
        | Query::Union(a, _)
        | Query::Intersect(a, _)
        | Query::Diff(a, _)
        | Query::When(a, _) => arity_of(a, catalog),
    }
}

fn rewrite_node(q: Query, catalog: &Catalog, trace: &mut RewriteTrace) -> Query {
    // Bottom-up: rewrite children first (a `when`'s body, then its
    // bindings)...
    let mut node = q.map_subqueries(|sub| rewrite_node(sub, catalog, trace));
    if let Query::When(_, eta) = &mut node {
        if let StateExpr::Subst(eps) = &mut **eta {
            *eps = std::mem::take(eps).map_queries(|bq| rewrite_node(bq, catalog, trace));
        }
    }
    // ...then apply local rules at this node to a fixpoint.
    loop {
        match apply_local(node, catalog, trace) {
            Ok(next) => node = next,
            Err(done) => return done,
        }
    }
}

/// Try one local rule at the root: `Ok(rewritten)` if one fired, the
/// query back unchanged if none did. A rule that does not fire builds
/// nothing.
fn apply_local(q: Query, catalog: &Catalog, trace: &mut RewriteTrace) -> Result<Query, Query> {
    match q {
        Query::Select(inner, p) => select_rules(inner, p, catalog, trace),
        Query::Project(inner, cols) => project_rules(inner, cols, catalog, trace),
        Query::Union(a, b) => union_rules(a, b, trace),
        Query::Intersect(a, b) => intersect_rules(a, b, catalog, trace),
        Query::Diff(a, b) => diff_rules(a, b, catalog, trace),
        Query::Product(a, b) => {
            if is_empty(&a) || is_empty(&b) {
                trace.record("product-empty");
                return Ok(Query::empty(arity_of(&a, catalog) + arity_of(&b, catalog)));
            }
            Err(Query::Product(a, b))
        }
        Query::Join(a, b, p) => join_rules(a, b, p, catalog, trace),
        other => Err(other),
    }
}

fn is_empty(q: &Query) -> bool {
    matches!(q, Query::Empty { .. })
}

fn select_rules(
    inner: Box<Query>,
    p: Predicate,
    catalog: &Catalog,
    trace: &mut RewriteTrace,
) -> Result<Query, Query> {
    if !is_folded(&p) {
        trace.record("fold-predicate");
        return Ok(Query::Select(inner, fold_pred(&p)));
    }
    if p == Predicate::True {
        trace.record("drop-select-true");
        return Ok(*inner);
    }
    if pred_unsat(&p) {
        trace.record("select-unsat");
        return Ok(Query::empty(arity_of(&inner, catalog)));
    }
    if !is_pruned(&p) {
        trace.record("prune-conjuncts");
        return Ok(Query::Select(inner, prune_conjuncts(&p)));
    }
    if !matches!(
        *inner,
        Query::Select(..)
            | Query::Empty { .. }
            | Query::Singleton(_)
            | Query::Union(..)
            | Query::Product(..)
            | Query::Join(..)
    ) {
        return Err(Query::Select(inner, p));
    }
    Ok(match *inner {
        Query::Select(inner2, p2) => {
            trace.record("merge-selects");
            let mut parts = conjuncts(&p2);
            parts.extend(conjuncts(&p));
            Query::Select(inner2, conjoin(parts))
        }
        empty @ Query::Empty { .. } => {
            trace.record("select-empty");
            empty
        }
        Query::Singleton(t) => {
            trace.record("select-singleton");
            if p.eval(&t) {
                Query::Singleton(t)
            } else {
                Query::empty(t.arity())
            }
        }
        Query::Union(a, b) => {
            trace.record("push-select-union");
            Query::Union(
                Box::new(Query::Select(a, p.clone())),
                Box::new(Query::Select(b, p)),
            )
        }
        Query::Product(a, b) => {
            trace.record("product-to-join");
            Query::Join(a, b, p)
        }
        Query::Join(a, b, jp) => {
            trace.record("merge-select-into-join");
            let mut parts = conjuncts(&jp);
            parts.extend(conjuncts(&p));
            Query::Join(a, b, conjoin(parts))
        }
        _ => unreachable!("checked above"),
    })
}

fn project_rules(
    mut inner: Box<Query>,
    cols: Vec<usize>,
    catalog: &Catalog,
    trace: &mut RewriteTrace,
) -> Result<Query, Query> {
    match *inner {
        Query::Empty { .. } => {
            trace.record("project-empty");
            Ok(Query::empty(cols.len()))
        }
        Query::Singleton(ref t) => {
            trace.record("project-singleton");
            Ok(Query::singleton(t.project(&cols)))
        }
        Query::Project(_, ref mut cols2) => {
            trace.record("merge-projects");
            *cols2 = cols.iter().map(|&c| cols2[c]).collect();
            Ok(*inner)
        }
        _ => {
            // Identity projection: π over all columns in order.
            let a = arity_of(&inner, catalog);
            if cols.len() == a && cols.iter().enumerate().all(|(i, &c)| i == c) {
                trace.record("drop-identity-project");
                Ok(*inner)
            } else {
                Err(Query::Project(inner, cols))
            }
        }
    }
}

fn union_rules(a: Box<Query>, b: Box<Query>, trace: &mut RewriteTrace) -> Result<Query, Query> {
    if is_empty(&a) {
        trace.record("union-empty");
        return Ok(*b);
    }
    if is_empty(&b) {
        trace.record("union-empty");
        return Ok(*a);
    }
    if a == b {
        trace.record("union-idempotent");
        return Ok(*a);
    }
    // X ∪ σp(X) ≡ X
    if matches!(&*b, Query::Select(x, _) if *x == a) {
        trace.record("union-absorb-select");
        return Ok(*a);
    }
    if matches!(&*a, Query::Select(x, _) if *x == b) {
        trace.record("union-absorb-select");
        return Ok(*b);
    }
    // Canonical operand order (∪ is commutative).
    if a > b {
        trace.record("order-union");
        return Ok(Query::Union(b, a));
    }
    Err(Query::Union(a, b))
}

fn intersect_rules(
    a: Box<Query>,
    b: Box<Query>,
    catalog: &Catalog,
    trace: &mut RewriteTrace,
) -> Result<Query, Query> {
    if is_empty(&a) || is_empty(&b) {
        trace.record("intersect-empty");
        return Ok(Query::empty(arity_of(&a, catalog)));
    }
    if a == b {
        trace.record("intersect-idempotent");
        return Ok(*a);
    }
    // X ∩ σp(X) ≡ σp(X)
    if matches!(&*b, Query::Select(x, _) if *x == a) {
        trace.record("intersect-absorb-select");
        return Ok(*b);
    }
    if matches!(&*a, Query::Select(x, _) if *x == b) {
        trace.record("intersect-absorb-select");
        return Ok(*a);
    }
    if a > b {
        trace.record("order-intersect");
        return Ok(Query::Intersect(b, a));
    }
    Err(Query::Intersect(a, b))
}

fn diff_rules(
    a: Box<Query>,
    b: Box<Query>,
    catalog: &Catalog,
    trace: &mut RewriteTrace,
) -> Result<Query, Query> {
    if is_empty(&b) {
        trace.record("diff-empty-rhs");
        return Ok(*a);
    }
    if is_empty(&a) {
        trace.record("diff-empty-lhs");
        return Ok(*a);
    }
    if a == b {
        trace.record("diff-self");
        return Ok(Query::empty(arity_of(&a, catalog)));
    }
    // X − σp(X) ≡ σ¬p(X)
    if let Query::Select(x, p) = &*b {
        if *x == a {
            trace.record("diff-select-negate");
            return Ok(Query::Select(a, p.negated()));
        }
    }
    // σp(X) − X ≡ ∅
    if matches!(&*a, Query::Select(x, _) if *x == b) {
        trace.record("diff-select-subset");
        return Ok(Query::empty(arity_of(&b, catalog)));
    }
    Err(Query::Diff(a, b))
}

fn join_rules(
    a: Box<Query>,
    b: Box<Query>,
    p: Predicate,
    catalog: &Catalog,
    trace: &mut RewriteTrace,
) -> Result<Query, Query> {
    if is_empty(&a) || is_empty(&b) {
        trace.record("join-empty");
        return Ok(Query::empty(arity_of(&a, catalog) + arity_of(&b, catalog)));
    }
    if pred_unsat(&p) {
        trace.record("join-unsat");
        return Ok(Query::empty(arity_of(&a, catalog) + arity_of(&b, catalog)));
    }
    if !is_folded(&p) {
        trace.record("fold-predicate");
        return Ok(Query::Join(a, b, fold_pred(&p)));
    }
    if !is_pruned(&p) {
        trace.record("prune-conjuncts");
        return Ok(Query::Join(a, b, prune_conjuncts(&p)));
    }
    // Push side-local conjuncts below the join: they filter one operand
    // before the build/probe instead of every joined pair after it.
    let left_arity = arity_of(&a, catalog);
    let left_only = |c: &Predicate| matches!(c.max_col(), Some(max) if max < left_arity);
    let right_only = |c: &Predicate| matches!(c.min_col(), Some(min) if min >= left_arity);
    if !any_conjunct(&p, &mut |c| left_only(c) || right_only(c)) {
        return Err(Query::Join(a, b, p));
    }
    trace.record("push-select-into-join-operand");
    let (mut lefts, mut rights, mut cross) = (Vec::new(), Vec::new(), Vec::new());
    for c in conjuncts(&p) {
        if left_only(&c) {
            lefts.push(c);
        } else if right_only(&c) {
            rights.push(c.unshift(left_arity));
        } else {
            cross.push(c);
        }
    }
    let side = |q: Box<Query>, parts: Vec<Predicate>| {
        if parts.is_empty() {
            q
        } else {
            Box::new(Query::Select(q, conjoin(parts)))
        }
    };
    Ok(Query::Join(side(a, lefts), side(b, rights), conjoin(cross)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypoquery_algebra::CmpOp;
    use hypoquery_storage::tuple;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.declare_arity("R", 2).unwrap();
        c.declare_arity("S", 2).unwrap();
        c
    }

    fn sel(col: usize, op: CmpOp, v: i64, q: Query) -> Query {
        q.select(Predicate::col_cmp(col, op, v))
    }

    #[test]
    fn diff_select_negation() {
        // S − σ_{A<60}(S) → σ_{A≥60}(S)   (the Example 2.1(b) step)
        let q = Query::base("S").diff(sel(0, CmpOp::Lt, 60, Query::base("S")));
        let (out, trace) = optimize(&q, &catalog());
        assert_eq!(out, sel(0, CmpOp::Ge, 60, Query::base("S")));
        assert_eq!(trace.count("diff-select-negate"), 1);
    }

    #[test]
    fn implied_select_cascade_collapses() {
        // σ_{A>30}(σ_{A≥60}(S)) → σ_{A≥60}(S)
        let q = sel(0, CmpOp::Gt, 30, sel(0, CmpOp::Ge, 60, Query::base("S")));
        let (out, _) = optimize(&q, &catalog());
        assert_eq!(out, sel(0, CmpOp::Ge, 60, Query::base("S")));
    }

    #[test]
    fn example_2_1b_full_derivation() {
        // (R ∪ σ_{A>30}(S − σ_{A<60}(S))) ⋈ (S − σ_{A<60}(S))
        //   minus the same thing  →  ∅, with no data access.
        let s_minus = Query::base("S").diff(sel(0, CmpOp::Lt, 60, Query::base("S")));
        let branch = Query::base("R")
            .union(sel(0, CmpOp::Gt, 30, s_minus.clone()))
            .join(s_minus, Predicate::col_col(0, CmpOp::Eq, 2));
        let q = branch.clone().diff(branch);
        let (out, _) = optimize(&q, &catalog());
        assert_eq!(out, Query::empty(4));
    }

    #[test]
    fn example_2_1b_branch_simplifies_to_paper_form() {
        // The single branch should simplify to
        // (R ∪ σ_{A≥60}(S)) ⋈ σ_{A≥60}(S).
        let s_minus = Query::base("S").diff(sel(0, CmpOp::Lt, 60, Query::base("S")));
        let branch = Query::base("R")
            .union(sel(0, CmpOp::Gt, 30, s_minus.clone()))
            .join(s_minus, Predicate::col_col(0, CmpOp::Eq, 2));
        let (out, _) = optimize(&branch, &catalog());
        let expected = Query::base("R")
            .union(sel(0, CmpOp::Ge, 60, Query::base("S")))
            .join(
                sel(0, CmpOp::Ge, 60, Query::base("S")),
                Predicate::col_col(0, CmpOp::Eq, 2),
            );
        assert_eq!(out, expected);
    }

    #[test]
    fn unsat_select_becomes_empty() {
        let q = sel(0, CmpOp::Ge, 60, sel(0, CmpOp::Lt, 60, Query::base("S")));
        let (out, _) = optimize(&q, &catalog());
        assert_eq!(out, Query::empty(2));
        // And the emptiness propagates through joins.
        let j = q2_join(q);
        let (out, _) = optimize(&j, &catalog());
        assert_eq!(out, Query::empty(4));
    }

    fn q2_join(q: Query) -> Query {
        Query::base("R").join(q, Predicate::True)
    }

    #[test]
    fn union_intersect_canonical_order_and_idempotence() {
        let q = Query::base("S").union(Query::base("R"));
        let (out, _) = optimize(&q, &catalog());
        assert_eq!(out, Query::base("R").union(Query::base("S")));

        let q = Query::base("S").union(Query::base("S"));
        let (out, _) = optimize(&q, &catalog());
        assert_eq!(out, Query::base("S"));

        let q = Query::base("S").intersect(sel(0, CmpOp::Gt, 1, Query::base("S")));
        let (out, _) = optimize(&q, &catalog());
        assert_eq!(out, sel(0, CmpOp::Gt, 1, Query::base("S")));
    }

    #[test]
    fn product_select_becomes_join() {
        let q = Query::base("R")
            .product(Query::base("S"))
            .select(Predicate::col_col(0, CmpOp::Eq, 2));
        let (out, trace) = optimize(&q, &catalog());
        assert_eq!(
            out,
            Query::base("R").join(Query::base("S"), Predicate::col_col(0, CmpOp::Eq, 2))
        );
        assert_eq!(trace.count("product-to-join"), 1);
    }

    #[test]
    fn projection_rules() {
        let q = Query::base("R").project([1, 0]).project([1]);
        let (out, _) = optimize(&q, &catalog());
        assert_eq!(out, Query::base("R").project([0]));

        let q = Query::base("R").project([0, 1]);
        let (out, _) = optimize(&q, &catalog());
        assert_eq!(out, Query::base("R"));

        let q = Query::singleton(tuple![1, 2]).project([1]);
        let (out, _) = optimize(&q, &catalog());
        assert_eq!(out, Query::singleton(tuple![2]));
    }

    #[test]
    fn select_singleton_decided_statically() {
        let q = sel(0, CmpOp::Gt, 5, Query::singleton(tuple![7, 0]));
        let (out, _) = optimize(&q, &catalog());
        assert_eq!(out, Query::singleton(tuple![7, 0]));
        let q = sel(0, CmpOp::Gt, 5, Query::singleton(tuple![3, 0]));
        let (out, _) = optimize(&q, &catalog());
        assert_eq!(out, Query::empty(2));
    }

    #[test]
    fn optimizer_descends_into_when() {
        use hypoquery_algebra::{ExplicitSubst, StateExpr};
        let binding = Query::base("S").diff(Query::base("S"));
        let q = sel(0, CmpOp::Gt, 1, Query::base("R"))
            .when(StateExpr::subst(ExplicitSubst::single("R", binding)));
        let (out, _) = optimize(&q, &catalog());
        match out {
            Query::When(body, eta) => {
                assert_eq!(*body, sel(0, CmpOp::Gt, 1, Query::base("R")));
                let eps = eta.as_subst().unwrap();
                assert_eq!(eps.get(&"R".into()), Some(&Query::empty(2)));
            }
            other => panic!("expected when, got {other}"),
        }
    }

    #[test]
    fn trace_accumulates() {
        let q = Query::base("S").diff(sel(0, CmpOp::Lt, 60, Query::base("S")));
        let (_, trace) = optimize(&q, &catalog());
        assert!(trace.total() >= 1);
        assert_eq!(trace.count("nonexistent-rule"), 0);
    }
}

#[cfg(test)]
mod pushdown_tests {
    use super::*;
    use hypoquery_algebra::CmpOp;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.declare_arity("R", 2).unwrap();
        c.declare_arity("S", 2).unwrap();
        c
    }

    #[test]
    fn side_local_conjuncts_push_below_join() {
        // σ merged into the join, then split: #1<5 is left-only, #3>7 is
        // right-only (rebased to #1), #0=#2 stays as the join condition.
        let p = Predicate::col_col(0, CmpOp::Eq, 2)
            .and(Predicate::col_cmp(1, CmpOp::Lt, 5))
            .and(Predicate::col_cmp(3, CmpOp::Gt, 7));
        let q = Query::base("R").join(Query::base("S"), p);
        let (out, trace) = optimize(&q, &catalog());
        let expected = Query::base("R")
            .select(Predicate::col_cmp(1, CmpOp::Lt, 5))
            .join(
                Query::base("S").select(Predicate::col_cmp(1, CmpOp::Gt, 7)),
                Predicate::col_col(0, CmpOp::Eq, 2),
            );
        assert_eq!(out, expected);
        assert_eq!(trace.count("push-select-into-join-operand"), 1);
    }

    #[test]
    fn select_above_join_lands_in_operands() {
        // σ_{#1<5}(R ⋈ S) — merge-into-join then pushdown to the left
        // operand.
        let q = Query::base("R")
            .join(Query::base("S"), Predicate::col_col(0, CmpOp::Eq, 2))
            .select(Predicate::col_cmp(1, CmpOp::Lt, 5));
        let (out, _) = optimize(&q, &catalog());
        let expected = Query::base("R")
            .select(Predicate::col_cmp(1, CmpOp::Lt, 5))
            .join(Query::base("S"), Predicate::col_col(0, CmpOp::Eq, 2));
        assert_eq!(out, expected);
    }

    #[test]
    fn pure_cross_conjuncts_stay() {
        let q = Query::base("R").join(Query::base("S"), Predicate::col_col(1, CmpOp::Lt, 2));
        let (out, trace) = optimize(&q, &catalog());
        assert_eq!(out, q);
        assert_eq!(trace.count("push-select-into-join-operand"), 0);
    }
}
