//! The fully lazy evaluation strategy, as a *traced* derivation.
//!
//! [`crate::red::red_query`] is the paper's denotational definition of
//! reduction; this module implements the same transformation the way §5
//! frames it — as exhaustive application of EQUIV_when rules — and adds the
//! binding-removal optimization of Example 2.3: before a substitution is
//! applied to a query, bindings for names that are not free in it are
//! dropped (`Q when ε ≡ Q when ε₋R` if `R ∉ free(Q)`), which avoids the
//! useless work Example 2.3 calls out.
//!
//! The reduction takes a *simplification step*, applied to every binding
//! that survives binding removal before that binding is substituted.
//! Example 2.4 shows why: the lazy form of a depth-n nest of `when`s can
//! have 2ⁿ nodes, but "relational algebra rewriting can help" (2.4(b)):
//! substituting a binding simplified to `∅` leaves `∅` where its name
//! was, which in 2.4(b) leaves the body with no free name, so every
//! enclosing binding is removed instead of substituted and the blow-up
//! never happens. The body after a substitution is not simplified, so
//! the cut-off happens only when the empty binding leaves no free name:
//! in `((R ⋈ S) when {(R − R)/R}) when {E/S}` the body `∅ ⋈ S` keeps `S`
//! free, and `E` is still substituted. The planner passes the RA
//! optimizer; callers that need exactly the reduction of
//! [`crate::red::red_query`] pass the identity.
//!
//! The output is a pure RA query equal (by Theorem 4.1) to the input's
//! value in every database state, ready for a conventional optimizer and
//! evaluator.

use hypoquery_algebra::scope::free_query;
use hypoquery_algebra::{ExplicitSubst, Query, StateExpr, Update};

use crate::equiv::{RewriteTrace, Rule};
use crate::subst::{compose_pure, slice, sub_query};

/// The simplification step of the reduction: maps a pure query to an
/// equivalent pure query.
pub type Simplify<'a> = &'a mut dyn FnMut(Query) -> Query;

/// Reduce an HQL query to pure RA, recording the rules applied, with
/// `simplify` applied to each surviving binding before it is substituted.
///
/// With the identity as `simplify` this is [`crate::red::red_query`] plus
/// binding removal. Never fails (the internal invariant is that
/// recursively reduced queries are pure, so `sub`/`slice`/`#` always
/// apply).
pub fn fully_lazy(q: &Query, simplify: Simplify<'_>, trace: &mut RewriteTrace) -> Query {
    let mut go = |q: &Query| fully_lazy(q, simplify, trace);
    match q {
        Query::Base(_) | Query::Singleton(_) | Query::Empty { .. } => q.clone(),
        Query::Select(inner, p) => go(inner).select(p.clone()),
        Query::Project(inner, cols) => go(inner).project(cols.clone()),
        Query::Union(a, b) => go(a).union(go(b)),
        Query::Intersect(a, b) => go(a).intersect(go(b)),
        Query::Product(a, b) => go(a).product(go(b)),
        Query::Join(a, b, p) => go(a).join(go(b), p.clone()),
        Query::Diff(a, b) => go(a).diff(go(b)),
        Query::When(inner, eta) => {
            let body = go(inner);
            let rho = lazy_state(eta, simplify, trace);
            // Binding removal (Ex. 2.3): restrict ρ to free(body), and
            // simplify what is left (Ex. 2.4(b)).
            let free = free_query(&body);
            let mut restricted = ExplicitSubst::empty();
            for (name, bq) in rho.into_bindings() {
                if free.contains(&name) {
                    restricted.bind(name, simplify(bq));
                } else {
                    trace.record(Rule::DropUnusedBinding.name());
                }
            }
            if restricted.is_empty() {
                trace.record(Rule::DropEmptySubst.name());
                return body;
            }
            trace.record(Rule::ApplySubstitution.name());
            sub_query(&body, &restricted).expect("invariant: lazily reduced queries are pure")
        }
        Query::Aggregate {
            input,
            group_by,
            aggs,
        } => go(input).aggregate(group_by.clone(), aggs.clone()),
    }
}

/// Reduce a state expression to an abstract (pure-binding) substitution,
/// recording the convert/compose rules applied; the queries inside it are
/// reduced by [`fully_lazy`] with the same `simplify`.
pub fn lazy_state(
    eta: &StateExpr,
    simplify: Simplify<'_>,
    trace: &mut RewriteTrace,
) -> ExplicitSubst {
    match eta {
        StateExpr::Update(u) => {
            let reduced = lazy_update(u, simplify, trace);
            slice(&reduced).expect("invariant: lazily reduced updates are pure")
        }
        StateExpr::Subst(eps) => {
            let mut out = ExplicitSubst::empty();
            for (name, q) in eps.iter() {
                out.bind(name.clone(), fully_lazy(q, simplify, trace));
            }
            out
        }
        StateExpr::Compose(a, b) => {
            let ra = lazy_state(a, simplify, trace);
            let rb = lazy_state(b, simplify, trace);
            trace.record(Rule::ComputeComposition.name());
            compose_pure(&ra, &rb).expect("invariant: reduced substitutions are pure")
        }
    }
}

fn lazy_update(u: &Update, simplify: Simplify<'_>, trace: &mut RewriteTrace) -> Update {
    match u {
        Update::Insert(r, q) => {
            trace.record(Rule::ConvertInsert.name());
            Update::Insert(r.clone(), fully_lazy(q, simplify, trace))
        }
        Update::Delete(r, q) => {
            trace.record(Rule::ConvertDelete.name());
            Update::Delete(r.clone(), fully_lazy(q, simplify, trace))
        }
        Update::Seq(a, b) => {
            trace.record(Rule::ConvertSeq.name());
            lazy_update(a, simplify, trace).then(lazy_update(b, simplify, trace))
        }
        Update::Cond {
            guard,
            then_u,
            else_u,
        } => {
            trace.record(Rule::ConvertCond.name());
            Update::cond(
                fully_lazy(guard, simplify, trace),
                lazy_update(then_u, simplify, trace),
                lazy_update(else_u, simplify, trace),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::red::red_query;
    use hypoquery_algebra::{CmpOp, Predicate};

    fn sel(col: usize, op: CmpOp, v: i64, q: Query) -> Query {
        q.select(Predicate::col_cmp(col, op, v))
    }

    #[test]
    fn agrees_with_red_when_all_bindings_used() {
        let eta = StateExpr::update(Update::insert("R", sel(0, CmpOp::Gt, 30, Query::base("S"))));
        let q = Query::base("R")
            .join(Query::base("S"), Predicate::True)
            .when(eta);
        let mut trace = RewriteTrace::new();
        assert_eq!(
            fully_lazy(&q, &mut |q| q, &mut trace),
            red_query(&q).unwrap()
        );
        assert!(trace.count(Rule::ApplySubstitution.name()) == 1);
    }

    /// Example 2.3: queries not mentioning S skip the S slice entirely.
    #[test]
    fn binding_removal_avoids_unused_slices() {
        // ins(R, σp(S)); del(S, σq(R)); ins(T, πr(R))
        let u = Update::seq([
            Update::insert("R", sel(0, CmpOp::Gt, 1, Query::base("S"))),
            Update::delete("S", sel(0, CmpOp::Lt, 5, Query::base("R"))),
            Update::insert("T", Query::base("R").project([0])),
        ]);
        // Q does not mention S.
        let q = Query::base("R")
            .union(Query::base("T"))
            .when(StateExpr::update(u));
        let mut trace = RewriteTrace::new();
        let out = fully_lazy(&q, &mut |q| q, &mut trace);
        assert!(out.is_pure());
        // The S binding was dropped before application (recorded for the
        // planner: an eager strategy would then skip materializing it —
        // that saving is measured by bench E3).
        assert_eq!(trace.count(Rule::DropUnusedBinding.name()), 1);
        // The result does not contain the deletion's σ_{<5} predicate.
        assert!(!out.to_string().contains("< 5"));
        // But the *composed substitution itself* (what an eager strategy
        // would materialize without binding removal) does contain it.
        let rho = lazy_state(
            &match &q {
                Query::When(_, eta) => (**eta).clone(),
                _ => unreachable!(),
            },
            &mut |q| q,
            &mut RewriteTrace::new(),
        );
        assert!(rho.get(&"S".into()).unwrap().to_string().contains("< 5"));
        // And the lazy output agrees with red's.
        assert_eq!(out, red_query(&q).unwrap());
    }

    #[test]
    fn empty_substitution_is_dropped() {
        // η touches only T, the query only reads R: everything drops.
        let eta = StateExpr::update(Update::insert("T", Query::base("R")));
        let q = Query::base("R").when(eta);
        let mut trace = RewriteTrace::new();
        let out = fully_lazy(&q, &mut |q| q, &mut trace);
        assert_eq!(out, Query::base("R"));
        assert_eq!(trace.count(Rule::DropEmptySubst.name()), 1);
    }

    #[test]
    fn reduces_conditional_updates() {
        let u = Update::cond(
            Query::base("G"),
            Update::insert("R", Query::base("S")),
            Update::delete("R", Query::base("S")),
        );
        let q = Query::base("R").when(StateExpr::update(u));
        let mut trace = RewriteTrace::new();
        let out = fully_lazy(&q, &mut |q| q, &mut trace);
        assert!(out.is_pure());
        assert_eq!(trace.count(Rule::ConvertCond.name()), 1);
        assert_eq!(out, red_query(&q).unwrap());
    }
}
