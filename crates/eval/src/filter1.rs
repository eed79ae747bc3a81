//! `filter1` (Figure 3) and Algorithm HQL-1 (§5.4).
//!
//! The straightforward eager evaluator: a depth-first traversal of an ENF
//! query's syntax tree that filters every base-relation access through an
//! xsub-value. At a `when` node the right side is processed first — the
//! explicit substitution is materialized (under the *current* filter) and
//! smashed onto it, mirroring the run-time `when` stack of the Heraclitus
//! implementation.
//!
//! ```text
//! filter1(R, E)         = E(R) if R ∈ dom(E), else DB(R)
//! filter1(ε, E)         = { filter1(Qᵢ, E)/Rᵢ }           (an xsub-value)
//! filter1(Q when ε, E)  = filter1(Q, E ! filter1(ε, E))
//! ```
//!
//! Proposition 5.1 (correctness: `filter1(Q, {}) = [[Q]](DB)`) is
//! property-tested in `tests/`.

use hypoquery_storage::{DatabaseState, Relation};

use hypoquery_algebra::{ExplicitSubst, Query, StateExpr};

use crate::aggregate::eval_aggregate;
use crate::error::EvalError;
use crate::join;
use crate::xsub::XsubValue;

/// `filter1(Q, E)` in state `db` (Figure 3). `Q` must be in ENF.
pub fn filter1(q: &Query, e: &XsubValue, db: &DatabaseState) -> Result<Relation, EvalError> {
    match q {
        Query::Base(name) => match e.get(name) {
            Some(rel) => Ok(rel.clone()),
            None => Ok(db.get(name)?),
        },
        Query::Singleton(t) => Ok(Relation::singleton(t.clone())),
        Query::Empty { arity } => Ok(Relation::empty(*arity)),
        Query::Select(inner, p) => Ok(filter1(inner, e, db)?.select(|t| p.eval(t))),
        Query::Project(inner, cols) => Ok(filter1(inner, e, db)?.project(cols)?),
        Query::Union(a, b) => Ok(filter1(a, e, db)?.union(&filter1(b, e, db)?)?),
        Query::Intersect(a, b) => Ok(filter1(a, e, db)?.intersect(&filter1(b, e, db)?)?),
        Query::Diff(a, b) => Ok(filter1(a, e, db)?.difference(&filter1(b, e, db)?)?),
        Query::Product(a, b) => Ok(filter1(a, e, db)?.product(&filter1(b, e, db)?)),
        Query::Join(a, b, p) => Ok(join::join(&filter1(a, e, db)?, &filter1(b, e, db)?, p)),
        Query::When(inner, eta) => {
            let StateExpr::Subst(eps) = &**eta else {
                return Err(EvalError::UnsupportedShape(format!(
                    "filter1 requires ENF (explicit substitutions), got: {eta}"
                )));
            };
            // Right child first: materialize ε under the current filter,
            // then smash.
            let f = filter1_subst(eps, e, db)?;
            filter1(inner, &e.smash(&f), db)
        }
        Query::Aggregate {
            input,
            group_by,
            aggs,
        } => eval_aggregate(&filter1(input, e, db)?, group_by, aggs),
    }
}

/// `filter1(ε, E)`: materialize an explicit substitution under filter `E`
/// into an xsub-value.
pub fn filter1_subst(
    eps: &ExplicitSubst,
    e: &XsubValue,
    db: &DatabaseState,
) -> Result<XsubValue, EvalError> {
    let mut out = XsubValue::empty();
    for (name, q) in eps.iter() {
        out.bind(name.clone(), filter1(q, e, db)?);
    }
    Ok(out)
}

/// Algorithm HQL-1: evaluate an ENF query by `filter1(Q, {})`.
pub fn algorithm_hql1(q: &Query, db: &DatabaseState) -> Result<Relation, EvalError> {
    filter1(q, &XsubValue::empty(), db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::eval_query;
    use hypoquery_algebra::{CmpOp, Predicate, Update};
    use hypoquery_core::{to_enf_query, RewriteTrace};
    use hypoquery_storage::{tuple, Catalog};

    fn db() -> DatabaseState {
        let mut cat = Catalog::new();
        cat.declare_arity("R", 2).unwrap();
        cat.declare_arity("S", 2).unwrap();
        let mut db = DatabaseState::new(cat);
        db.insert_rows("R", [tuple![1, 10], tuple![2, 20]]).unwrap();
        db.insert_rows("S", [tuple![2, 200], tuple![35, 300]])
            .unwrap();
        db
    }

    fn enf(q: &Query) -> Query {
        to_enf_query(q, &mut RewriteTrace::new())
    }

    #[test]
    fn hql1_matches_direct_semantics_on_example() {
        let db = db();
        let q = Query::base("R")
            .union(Query::base("S"))
            .when(StateExpr::update(Update::insert(
                "R",
                Query::base("S").select(Predicate::col_cmp(0, CmpOp::Gt, 30)),
            )));
        let expected = eval_query(&q, &db).unwrap();
        let got = algorithm_hql1(&enf(&q), &db).unwrap();
        assert_eq!(got, expected);
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn nested_whens_smash_in_order() {
        let db = db();
        // Outer hypothetical deletes everything from S; inner inserts from
        // the (already filtered) S.
        let q = Query::base("R")
            .when(StateExpr::update(Update::insert("R", Query::base("S"))))
            .when(StateExpr::update(Update::delete("S", Query::base("S"))));
        let expected = eval_query(&q, &db).unwrap();
        let got = algorithm_hql1(&enf(&q), &db).unwrap();
        assert_eq!(got, expected);
        // With S emptied first, R gains nothing.
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn filter1_requires_enf() {
        let db = db();
        let q = Query::base("R").when(StateExpr::update(Update::insert("R", Query::base("S"))));
        assert!(matches!(
            algorithm_hql1(&q, &db),
            Err(EvalError::UnsupportedShape(_))
        ));
    }

    #[test]
    fn filter_overrides_base_lookup() {
        let db = db();
        let e = XsubValue::new([("R".into(), Relation::from_rows(2, [tuple![9, 9]]).unwrap())]);
        let out = filter1(&Query::base("R"), &e, &db).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple![9, 9]));
        // Unbound names still come from the database.
        let out = filter1(&Query::base("S"), &e, &db).unwrap();
        assert_eq!(out, db.get(&"S".into()).unwrap());
    }
}
