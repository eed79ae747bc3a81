//! `filter2` and Algorithm HQL-2 (§5.4): clustered eager evaluation over
//! collapsed ENF syntax trees.
//!
//! `filter2` is `filter1` except on collapsed pure-RA regions
//! `Q[S₁, …, Sₘ, R₁, …, Rₖ]`: the `when`-subtrees `S₁…Sₘ` are evaluated
//! first, then the whole region is handed to `eval_filter_x` — a
//! conventional (clustered) RA evaluator whose base-name lookups are
//! filtered through the xsub-value. This allows grouping a join with the
//! selects/projects around it into single physical operations (here: the
//! hash-join pipeline of [`crate::join`]).

use hypoquery_storage::{DatabaseState, RelName, Relation};

use hypoquery_algebra::Query;
use hypoquery_core::enf::{CollapsedTree, PLACEHOLDER_PREFIX};
use hypoquery_core::{collapse, EnfError};

use crate::direct::{eval_pure, Resolver};
use crate::error::EvalError;
use crate::xsub::XsubValue;

/// Resolver used by `eval_filter_x`: placeholder names (`$i`) resolve to
/// the pre-computed `when`-subtree values; real names are filtered through
/// the xsub-value, falling back to the database.
struct FilteredResolver<'a> {
    db: &'a DatabaseState,
    e: &'a XsubValue,
    placeholders: &'a [Relation],
}

impl Resolver for FilteredResolver<'_> {
    fn resolve(&self, name: &RelName) -> Result<std::borrow::Cow<'_, Relation>, EvalError> {
        use std::borrow::Cow;
        if let Some(rest) = name.as_str().strip_prefix(PLACEHOLDER_PREFIX) {
            if let Ok(i) = rest.parse::<usize>() {
                if let Some(rel) = self.placeholders.get(i) {
                    return Ok(Cow::Borrowed(rel));
                }
            }
        }
        match self.e.get(name) {
            Some(rel) => Ok(Cow::Borrowed(rel)),
            None => self.db.resolve(name),
        }
    }
}

/// `eval_filter_x(Q[S₁…Sₘ, R₁…Rₖ], E)`: clustered evaluation of a pure RA
/// template with base names filtered by `E` and placeholders bound to the
/// given relations.
pub fn eval_filter_x(
    template: &Query,
    placeholders: &[Relation],
    e: &XsubValue,
    db: &DatabaseState,
) -> Result<Relation, EvalError> {
    eval_pure(
        template,
        &FilteredResolver {
            db,
            e,
            placeholders,
        },
    )
}

/// `filter2(T, E)` over a collapsed ENF tree (§5.4).
pub fn filter2(
    tree: &CollapsedTree,
    e: &XsubValue,
    db: &DatabaseState,
) -> Result<Relation, EvalError> {
    match tree {
        CollapsedTree::Leaf(name) => match e.get(name) {
            Some(rel) => Ok(rel.clone()),
            None => Ok(db.get(name)?),
        },
        CollapsedTree::When { child, bindings } => {
            let mut f = XsubValue::empty();
            for (name, sub) in bindings {
                f.bind(name.clone(), filter2(sub, e, db)?);
            }
            filter2(child, &e.smash(&f), db)
        }
        CollapsedTree::Ra {
            template,
            when_children,
            ..
        } => {
            let mut values = Vec::with_capacity(when_children.len());
            for child in when_children {
                values.push(filter2(child, e, db)?);
            }
            eval_filter_x(template, &values, e, db)
        }
    }
}

/// Algorithm HQL-2: collapse an ENF query and evaluate with
/// `filter2(collapse(T), {})`.
pub fn algorithm_hql2(q: &Query, db: &DatabaseState) -> Result<Relation, EvalError> {
    let tree = collapse(q).map_err(|e: EnfError| EvalError::UnsupportedShape(e.to_string()))?;
    filter2(&tree, &XsubValue::empty(), db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::eval_query;
    use crate::filter1::algorithm_hql1;
    use hypoquery_algebra::{CmpOp, Predicate, StateExpr, Update};
    use hypoquery_core::{to_enf_query, RewriteTrace};
    use hypoquery_storage::{tuple, Catalog};

    fn db() -> DatabaseState {
        let mut cat = Catalog::new();
        cat.declare_arity("R", 2).unwrap();
        cat.declare_arity("S", 2).unwrap();
        let mut db = DatabaseState::new(cat);
        db.insert_rows("R", [tuple![1, 10], tuple![2, 20], tuple![35, 1]])
            .unwrap();
        db.insert_rows("S", [tuple![2, 200], tuple![35, 300]])
            .unwrap();
        db
    }

    fn enf(q: &Query) -> Query {
        to_enf_query(q, &mut RewriteTrace::new())
    }

    #[test]
    fn hql2_agrees_with_direct_and_hql1() {
        let db = db();
        let q = Query::base("R")
            .join(
                Query::base("S").select(Predicate::col_cmp(1, CmpOp::Gt, 250)),
                Predicate::col_col(0, CmpOp::Eq, 2),
            )
            .when(StateExpr::update(Update::insert(
                "R",
                Query::base("S").select(Predicate::col_cmp(0, CmpOp::Gt, 30)),
            )))
            .when(StateExpr::update(Update::delete(
                "S",
                Query::base("S").select(Predicate::col_cmp(1, CmpOp::Lt, 250)),
            )));
        let expected = eval_query(&q, &db).unwrap();
        let e = enf(&q);
        assert_eq!(algorithm_hql2(&e, &db).unwrap(), expected);
        assert_eq!(algorithm_hql1(&e, &db).unwrap(), expected);
    }

    #[test]
    fn placeholder_resolution_in_regions() {
        let db = db();
        // (R when {S/R}) ∪ S : the when-subtree becomes a region child.
        let eps = hypoquery_algebra::ExplicitSubst::single("R", Query::base("S"));
        let q = Query::base("R")
            .when(StateExpr::subst(eps))
            .union(Query::base("S"));
        let out = algorithm_hql2(&q, &db).unwrap();
        assert_eq!(out, db.get(&"S".into()).unwrap());
    }

    #[test]
    fn rejects_non_enf() {
        let db = db();
        let q = Query::base("R").when(StateExpr::update(Update::insert("R", Query::base("S"))));
        assert!(matches!(
            algorithm_hql2(&q, &db),
            Err(EvalError::UnsupportedShape(_))
        ));
    }

    #[test]
    fn deep_pure_region_is_single_cluster() {
        let db = db();
        // Pure query: one collapsed region, no xsub machinery involved.
        let q = Query::base("R")
            .select(Predicate::col_cmp(0, CmpOp::Lt, 10))
            .join(Query::base("S"), Predicate::col_col(0, CmpOp::Eq, 2))
            .project([1, 3]);
        let expected = eval_query(&q, &db).unwrap();
        assert_eq!(algorithm_hql2(&q, &db).unwrap(), expected);
    }
}
