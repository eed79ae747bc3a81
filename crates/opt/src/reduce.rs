//! Interleaved reduction + algebraic simplification.
//!
//! Example 2.4 shows that the purely lazy equivalent of a hypothetical
//! query can be exponentially larger than the query itself — and that
//! "relational algebra rewriting can help" (2.4(b)): if simplification
//! runs *during* reduction, an `∅` discovered in a binding short-circuits
//! the remaining substitutions before they can blow up.
//!
//! [`reduce_optimized`] is `hypoquery_core::fully_lazy` with the RA
//! optimizer invoked on every binding before it is substituted, and on
//! every intermediate result after substitution. Where plain reduction of
//! Example 2.4(b)'s query touches `2^j` nodes before the empty binding at
//! level `j` is discovered, this version collapses at the level where the
//! emptiness becomes syntactically visible — polynomial for small `j`
//! (bench E4 measures both).

use hypoquery_storage::Catalog;

use hypoquery_algebra::scope::free_query;
use hypoquery_algebra::{ExplicitSubst, Query};
use hypoquery_core::{lazy_state, sub_query, RewriteTrace};

use crate::rewrite::optimize;

/// Reduce an HQL query to pure RA with algebraic simplification applied at
/// every reduction step. Returns the simplified pure query and the
/// combined RA trace.
pub fn reduce_optimized(q: &Query, catalog: &Catalog) -> (Query, RewriteTrace) {
    let mut ra_trace = RewriteTrace::new();
    let mut when_trace = RewriteTrace::new();
    let out = go(q, catalog, &mut ra_trace, &mut when_trace);
    (out, ra_trace)
}

fn go(q: &Query, catalog: &Catalog, ra: &mut RewriteTrace, wt: &mut RewriteTrace) -> Query {
    match q {
        Query::When(inner, eta) => {
            let body = go(inner, catalog, ra, wt);
            if body.is_pure() {
                // Optimize + binding-remove the substitution first: an ∅
                // binding never gets expanded into the body.
                let rho = lazy_state(eta, wt);
                let free = free_query(&body);
                let mut restricted = ExplicitSubst::empty();
                for (name, bq) in rho.iter() {
                    if free.contains(name) {
                        let (opt_bq, t) = optimize(bq, catalog);
                        ra.merge(t);
                        restricted.bind(name.clone(), opt_bq);
                    }
                }
                let substituted = if restricted.is_empty() {
                    body
                } else {
                    sub_query(&body, &restricted).expect("reduced bodies and bindings are pure")
                };
                let (out, t) = optimize(&substituted, catalog);
                ra.merge(t);
                out
            } else {
                // Should not happen (go returns pure), but stay total.
                body.when((**eta).clone())
            }
        }
        other => {
            let rebuilt = other
                .clone()
                .map_subqueries(|sub| go(&sub, catalog, ra, wt));
            let (out, t) = optimize(&rebuilt, catalog);
            ra.merge(t);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypoquery_algebra::StateExpr;
    use hypoquery_core::red_query;
    use hypoquery_storage::RelName;

    /// Build Example 2.4's query: depth-n nest of
    /// `(… (R0 when {E1(R1)/R0}) … when {En(Rn)/R_{n-1}})` with
    /// `E_i(R_i) = R_i × R_i`, except `E_j(R_j) = R_j − R_j`.
    ///
    /// Arities: `R_i` has arity `2^(n-i)` (each product doubles).
    pub fn example_2_4_query(n: usize, empty_level: Option<usize>) -> (Query, Catalog) {
        let mut catalog = Catalog::new();
        for i in 0..=n {
            let arity = 1usize << (n - i);
            catalog.declare_arity(rel(i), arity).unwrap();
        }
        let mut q = Query::base(rel(0));
        for lvl in 1..=n {
            let prod = Query::base(rel(lvl)).product(Query::base(rel(lvl)));
            let e = if empty_level == Some(lvl) {
                // A difference of equal queries, at the arity the binding
                // needs (the paper writes `R_j − R_j` with arities
                // "inferred from the context").
                prod.clone().diff(prod)
            } else {
                prod
            };
            q = q.when(StateExpr::subst(ExplicitSubst::single(rel(lvl - 1), e)));
        }
        (q, catalog)
    }

    fn rel(i: usize) -> RelName {
        RelName::new(format!("R{i}"))
    }

    #[test]
    fn example_2_4a_blowup_is_real() {
        // Plain reduction: exponential output for the all-products query.
        let (q, _) = example_2_4_query(8, None);
        assert!(q.node_count() < 100, "input is linear in n");
        let reduced = red_query(&q).unwrap();
        assert!(
            reduced.node_count() > (1 << 8),
            "fully lazy output should be exponential, got {}",
            reduced.node_count()
        );
    }

    #[test]
    fn example_2_4b_rescue_with_early_empty() {
        // With E_1 = R_1 − R_1, interleaved simplification finds ∅
        // immediately and the result is ∅ with tiny intermediate sizes.
        let (q, catalog) = example_2_4_query(10, Some(1));
        let (out, _) = reduce_optimized(&q, &catalog);
        assert_eq!(out, Query::empty(1 << 10));
    }

    #[test]
    fn example_2_4b_rescue_with_late_empty() {
        // ∅ at the outermost level: the body blew up below it, but the
        // final substitution of ∅ collapses everything; the answer is
        // still syntactically ∅.
        let (q, catalog) = example_2_4_query(6, Some(6));
        let (out, _) = reduce_optimized(&q, &catalog);
        assert_eq!(out, Query::empty(1 << 6));
    }

    #[test]
    fn agrees_with_plain_reduction_semantically() {
        use hypoquery_eval::eval_pure;
        use hypoquery_storage::{tuple, DatabaseState};

        let (q, catalog) = example_2_4_query(3, Some(2));
        let mut db = DatabaseState::new(catalog.clone());
        db.insert_row("R3", tuple![1]).unwrap();
        db.insert_rows("R2", [tuple![1, 2]]).unwrap();
        let (opt, _) = reduce_optimized(&q, &catalog);
        let plain = red_query(&q).unwrap();
        assert_eq!(
            eval_pure(&opt, &db).unwrap(),
            eval_pure(&plain, &db).unwrap()
        );
    }
}
