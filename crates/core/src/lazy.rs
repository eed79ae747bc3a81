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
//! The output is a pure RA query equal (by Theorem 4.1) to the input's
//! value in every database state, ready for a conventional optimizer and
//! evaluator.

use hypoquery_algebra::scope::free_query;
use hypoquery_algebra::{ExplicitSubst, Query, StateExpr, Update};

use crate::equiv::{RewriteTrace, Rule};
use crate::subst::{compose_pure, slice, sub_query};

/// Reduce an HQL query to pure RA, recording the rules applied.
///
/// Equivalent to [`crate::red::red_query`] plus binding removal; never
/// fails (the internal invariant is that recursively reduced queries are
/// pure, so `sub`/`slice`/`#` always apply).
pub fn fully_lazy(q: &Query, trace: &mut RewriteTrace) -> Query {
    match q {
        Query::Base(_) | Query::Singleton(_) | Query::Empty { .. } => q.clone(),
        Query::Select(inner, p) => fully_lazy(inner, trace).select(p.clone()),
        Query::Project(inner, cols) => fully_lazy(inner, trace).project(cols.clone()),
        Query::Union(a, b) => fully_lazy(a, trace).union(fully_lazy(b, trace)),
        Query::Intersect(a, b) => fully_lazy(a, trace).intersect(fully_lazy(b, trace)),
        Query::Product(a, b) => fully_lazy(a, trace).product(fully_lazy(b, trace)),
        Query::Join(a, b, p) => fully_lazy(a, trace).join(fully_lazy(b, trace), p.clone()),
        Query::Diff(a, b) => fully_lazy(a, trace).diff(fully_lazy(b, trace)),
        Query::When(inner, eta) => {
            let body = fully_lazy(inner, trace);
            let rho = lazy_state(eta, trace);
            // Binding removal (Ex. 2.3): restrict ρ to free(body).
            let free = free_query(&body);
            let mut restricted = ExplicitSubst::empty();
            for (name, bq) in rho.iter() {
                if free.contains(name) {
                    restricted.bind(name.clone(), bq.clone());
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
        } => fully_lazy(input, trace).aggregate(group_by.clone(), aggs.clone()),
    }
}

/// Reduce a state expression to an abstract (pure-binding) substitution,
/// recording the convert/compose rules applied.
pub fn lazy_state(eta: &StateExpr, trace: &mut RewriteTrace) -> ExplicitSubst {
    match eta {
        StateExpr::Update(u) => {
            let reduced = lazy_update(u, trace);
            slice(&reduced).expect("invariant: lazily reduced updates are pure")
        }
        StateExpr::Subst(eps) => {
            let mut out = ExplicitSubst::empty();
            for (name, q) in eps.iter() {
                out.bind(name.clone(), fully_lazy(q, trace));
            }
            out
        }
        StateExpr::Compose(a, b) => {
            let ra = lazy_state(a, trace);
            let rb = lazy_state(b, trace);
            trace.record(Rule::ComputeComposition.name());
            compose_pure(&ra, &rb).expect("invariant: reduced substitutions are pure")
        }
    }
}

fn lazy_update(u: &Update, trace: &mut RewriteTrace) -> Update {
    match u {
        Update::Insert(r, q) => {
            trace.record(Rule::ConvertInsert.name());
            Update::Insert(r.clone(), fully_lazy(q, trace))
        }
        Update::Delete(r, q) => {
            trace.record(Rule::ConvertDelete.name());
            Update::Delete(r.clone(), fully_lazy(q, trace))
        }
        Update::Seq(a, b) => {
            trace.record(Rule::ConvertSeq.name());
            lazy_update(a, trace).then(lazy_update(b, trace))
        }
        Update::Cond {
            guard,
            then_u,
            else_u,
        } => {
            trace.record(Rule::ConvertCond.name());
            Update::cond(
                fully_lazy(guard, trace),
                lazy_update(then_u, trace),
                lazy_update(else_u, trace),
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
        assert_eq!(fully_lazy(&q, &mut trace), red_query(&q).unwrap());
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
        let out = fully_lazy(&q, &mut trace);
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
        let out = fully_lazy(&q, &mut trace);
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
        let out = fully_lazy(&q, &mut trace);
        assert!(out.is_pure());
        assert_eq!(trace.count(Rule::ConvertCond.name()), 1);
        assert_eq!(out, red_query(&q).unwrap());
    }
}
