//! `filter3` (Figure 4) and Algorithm HQL-3 (§5.5): delta-based evaluation
//! of modified-ENF queries.
//!
//! Hypothetical updates of the form `{A₁; …; Aₙ}` (atomic inserts/deletes)
//! are turned directly into delta values — no full hypothetical relation is
//! ever materialized:
//!
//! ```text
//! filter3({del(R, Q)}, Δ) = {(filter3(Q, Δ), ∅)/R}
//! filter3({ins(R, Q)}, Δ) = {(∅, filter3(Q, Δ))/R}
//! filter3({U; A}, Δ)      = F ! filter3({A}, Δ ! F)    where F = filter3({U}, Δ)
//! filter3(Q when {U}, Δ)  = filter3(Q, Δ ! filter3({U}, Δ))
//! ```
//!
//! Base scans stream `(DB(R) − R∇) ∪ RΔ` and joins of two base relations
//! use the `join-when` operator, so pure-RA regions evaluate exactly as
//! `eval-filter-d` on the collapsed tree's region nodes (§5.4)
//! ([`crate::delta::eval_filter_d`] is this walk on `when`-free queries).

use hypoquery_storage::{DatabaseState, Relation};

use hypoquery_algebra::{Query, StateExpr, Update};

use crate::aggregate::eval_aggregate;
use crate::delta::{join_when, DeltaValue, RelDelta};
use crate::error::EvalError;
use crate::join;

/// `filter3(Q, Δ)` in state `db` (Figure 4). `Q` must be in mod-ENF.
pub fn filter3(q: &Query, delta: &DeltaValue, db: &DatabaseState) -> Result<Relation, EvalError> {
    let f = |q: &Query| filter3(q, delta, db);
    Ok(match q {
        Query::Base(name) => delta.relation_under(name, db)?,
        Query::Singleton(t) => Relation::singleton(t.clone()),
        Query::Empty { arity } => Relation::empty(*arity),
        Query::Select(inner, p) => f(inner)?.select(|t| p.eval(t)),
        Query::Project(inner, cols) => f(inner)?.project(cols)?,
        Query::Union(a, b) => f(a)?.union(&f(b)?)?,
        Query::Intersect(a, b) => f(a)?.intersect(&f(b)?)?,
        Query::Diff(a, b) => f(a)?.difference(&f(b)?)?,
        Query::Product(a, b) => f(a)?.product(&f(b)?),
        Query::Join(a, b, p) => match (&**a, &**b) {
            // The headline case: base ⋈ base under a delta never
            // materializes the hypothetical operands.
            (Query::Base(l), Query::Base(r)) => {
                join_when(&db.get(l)?, delta.get(l), &db.get(r)?, delta.get(r), p)
            }
            _ => join::join(&f(a)?, &f(b)?, p),
        },
        Query::When(inner, eta) => {
            let StateExpr::Update(u) = &**eta else {
                return Err(EvalError::UnsupportedShape(format!(
                    "filter3 requires mod-ENF (atomic hypothetical updates), got: {eta}"
                )));
            };
            let f = filter3_update(u, delta, db)?;
            filter3(inner, &delta.smash(&f)?, db)?
        }
        Query::Aggregate {
            input,
            group_by,
            aggs,
        } => eval_aggregate(&f(input)?, group_by, aggs)?,
    })
}

/// `filter3({U}, Δ)`: build the delta value of an atomic update sequence
/// under the ambient delta (Figure 4).
pub fn filter3_update(
    u: &Update,
    delta: &DeltaValue,
    db: &DatabaseState,
) -> Result<DeltaValue, EvalError> {
    match u {
        Update::Delete(name, q) => {
            let v = filter3(q, delta, db)?;
            Ok(DeltaValue::new([(name.clone(), RelDelta::deletion(v))]))
        }
        Update::Insert(name, q) => {
            let v = filter3(q, delta, db)?;
            Ok(DeltaValue::new([(name.clone(), RelDelta::insertion(v))]))
        }
        Update::Seq(u1, a) => {
            let f = filter3_update(u1, delta, db)?;
            let fa = filter3_update(a, &delta.smash(&f)?, db)?;
            f.smash(&fa)
        }
        Update::Cond { .. } => Err(EvalError::UnsupportedShape(format!(
            "filter3 requires atomic updates, got conditional: {u}"
        ))),
    }
}

/// Algorithm HQL-3: evaluate a mod-ENF query by `filter3(Q, {})`.
pub fn algorithm_hql3(q: &Query, db: &DatabaseState) -> Result<Relation, EvalError> {
    filter3(q, &DeltaValue::empty(), db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::eval_query;
    use hypoquery_algebra::{CmpOp, ExplicitSubst, Predicate};
    use hypoquery_storage::{tuple, Catalog};

    fn db() -> DatabaseState {
        let mut cat = Catalog::new();
        cat.declare_arity("R", 2).unwrap();
        cat.declare_arity("S", 2).unwrap();
        let mut db = DatabaseState::new(cat);
        db.insert_rows("R", [tuple![1, 10], tuple![2, 20], tuple![35, 1]])
            .unwrap();
        db.insert_rows("S", [tuple![2, 200], tuple![35, 300], tuple![50, 500]])
            .unwrap();
        db
    }

    #[test]
    fn hql3_matches_direct_semantics() {
        let db = db();
        // (R ⋈ S) when {ins(R, σ_{#0>30}(S)); del(S, σ_{#1<250}(S))}
        let u = Update::insert(
            "R",
            Query::base("S").select(Predicate::col_cmp(0, CmpOp::Gt, 30)),
        )
        .then(Update::delete(
            "S",
            Query::base("S").select(Predicate::col_cmp(1, CmpOp::Lt, 250)),
        ));
        let q = Query::base("R")
            .join(Query::base("S"), Predicate::col_col(0, CmpOp::Eq, 2))
            .when(StateExpr::update(u));
        let expected = eval_query(&q, &db).unwrap();
        assert_eq!(algorithm_hql3(&q, &db).unwrap(), expected);
        assert!(!expected.is_empty());
    }

    #[test]
    fn sequence_deltas_see_prior_atoms() {
        let db = db();
        // ins(R, S) then del(R, R): the delete's R is the post-insert R,
        // so everything is gone.
        let u = Update::insert("R", Query::base("S")).then(Update::delete("R", Query::base("R")));
        let q = Query::base("R").when(StateExpr::update(u));
        assert!(algorithm_hql3(&q, &db).unwrap().is_empty());
    }

    #[test]
    fn nested_whens_smash_deltas() {
        let db = db();
        let q = Query::base("R")
            .when(StateExpr::update(Update::insert("R", Query::base("S"))))
            .when(StateExpr::update(Update::delete("S", Query::base("S"))));
        let expected = eval_query(&q, &db).unwrap();
        assert_eq!(algorithm_hql3(&q, &db).unwrap(), expected);
        assert_eq!(expected.len(), 3); // S was emptied before the insert.
    }

    #[test]
    fn when_inside_update_query() {
        let db = db();
        // ins(R, S when {del(S, σ(S))}) — hypothetical within the update.
        let inner = Query::base("S").when(StateExpr::update(Update::delete(
            "S",
            Query::base("S").select(Predicate::col_cmp(0, CmpOp::Lt, 40)),
        )));
        let q = Query::base("R").when(StateExpr::update(Update::insert("R", inner)));
        let expected = eval_query(&q, &db).unwrap();
        assert_eq!(algorithm_hql3(&q, &db).unwrap(), expected);
        assert_eq!(expected.len(), 4); // R + the single surviving S row.
    }

    #[test]
    fn rejects_non_mod_enf() {
        let db = db();
        let q = Query::base("R").when(StateExpr::subst(ExplicitSubst::single(
            "R",
            Query::base("S"),
        )));
        assert!(matches!(
            algorithm_hql3(&q, &db),
            Err(EvalError::UnsupportedShape(_))
        ));
        let cond = Update::cond(
            Query::base("S"),
            Update::insert("R", Query::base("S")),
            Update::delete("R", Query::base("S")),
        );
        let q = Query::base("R").when(StateExpr::update(cond));
        assert!(matches!(
            algorithm_hql3(&q, &db),
            Err(EvalError::UnsupportedShape(_))
        ));
    }

    #[test]
    fn pure_query_is_plain_evaluation() {
        let db = db();
        let q = Query::base("R").join(Query::base("S"), Predicate::col_col(0, CmpOp::Eq, 2));
        assert_eq!(
            algorithm_hql3(&q, &db).unwrap(),
            eval_query(&q, &db).unwrap()
        );
    }
}
