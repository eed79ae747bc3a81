//! The direct semantics of HQL (§3.1 and §4.2).
//!
//! * `[[Q]] : DB → R` — [`eval_query`];
//! * `[[U]] : DB → DB` — [`eval_update`];
//! * `[[η]] : DB → DB` — [`eval_state`];
//! * `apply(DB, ρ)` (§3.3, substitutions as updates) — [`apply_subst`].
//!
//! This is the reference semantics every optimized strategy in the
//! workspace is property-tested against.

use std::borrow::Cow;

use hypoquery_storage::{DatabaseState, RelName, Relation};

use hypoquery_algebra::{ExplicitSubst, Query, StateExpr, Update};

use crate::aggregate::eval_aggregate;
use crate::error::EvalError;
use crate::join;

/// Resolves base relation names to relation values. The direct evaluator
/// resolves against a [`DatabaseState`]; filtered evaluators
/// (`filter1`/`filter2`/`filter3`) resolve through xsub- or delta-values.
///
/// Resolution yields a [`Cow`]: borrowing resolvers (the database itself,
/// xsub overlays) hand out references, so the pipelined operators in
/// [`eval_pure`] never copy a base relation just to scan it.
pub trait Resolver {
    /// The relation currently named `name`.
    fn resolve(&self, name: &RelName) -> Result<Cow<'_, Relation>, EvalError>;
}

impl Resolver for DatabaseState {
    fn resolve(&self, name: &RelName) -> Result<Cow<'_, Relation>, EvalError> {
        match self.get_ref(name) {
            Some(rel) => Ok(Cow::Borrowed(rel)),
            // Declared-but-empty (or undeclared → error) go through `get`.
            None => Ok(Cow::Owned(self.get(name)?)),
        }
    }
}

/// Evaluate a **pure** RA query against any name resolver.
///
/// This is the "conventional (optimized) algorithm" that §5.4's
/// `eval-filter-x` is allowed to be: operands are evaluated to
/// copy-on-write handles, so scans, selections and join inputs over base
/// relations are processed by reference — no operator materializes its
/// input just to read it.
///
/// Returns [`EvalError::UnsupportedShape`] on a `when` node — full HQL
/// queries go through [`eval_query`], which knows how to evaluate
/// hypothetical states.
pub fn eval_pure(q: &Query, r: &impl Resolver) -> Result<Relation, EvalError> {
    Ok(eval_cow(q, r, None)?.into_owned())
}

/// `[[Q]](DB)` — the direct semantics of a full HQL query (§4.2).
pub fn eval_query(q: &Query, db: &DatabaseState) -> Result<Relation, EvalError> {
    Ok(eval_cow(q, db, Some(db))?.into_owned())
}

/// The one evaluator walk behind [`eval_pure`] and [`eval_query`]: a
/// `when` node moves to its hypothetical state of `db`, and is an
/// unsupported shape when there is no `db` (pure evaluation).
fn eval_cow<'a>(
    q: &Query,
    r: &'a impl Resolver,
    db: Option<&DatabaseState>,
) -> Result<Cow<'a, Relation>, EvalError> {
    let ev = |q: &Query| eval_cow(q, r, db);
    Ok(Cow::Owned(match q {
        Query::Base(name) => return r.resolve(name),
        Query::Singleton(t) => Relation::singleton(t.clone()),
        Query::Empty { arity } => Relation::empty(*arity),
        Query::Select(inner, p) => ev(inner)?.select(|t| p.eval(t)),
        Query::Project(inner, cols) => ev(inner)?.project(cols)?,
        Query::Union(a, b) => ev(a)?.union(&*ev(b)?)?,
        Query::Intersect(a, b) => ev(a)?.intersect(&*ev(b)?)?,
        Query::Diff(a, b) => ev(a)?.difference(&*ev(b)?)?,
        Query::Product(a, b) => ev(a)?.product(&*ev(b)?),
        Query::Join(a, b, p) => join::join(&*ev(a)?, &*ev(b)?, p),
        Query::When(inner, eta) => match db {
            Some(db) => eval_query(inner, &eval_state(eta, db)?)?,
            None => return Err(EvalError::UnsupportedShape(q.to_string())),
        },
        Query::Aggregate {
            input,
            group_by,
            aggs,
        } => eval_aggregate(&*ev(input)?, group_by, aggs)?,
    }))
}

/// `[[U]](DB)` — the direct semantics of an update (§3.1), extended with
/// §6 conditionals.
pub fn eval_update(u: &Update, db: &DatabaseState) -> Result<DatabaseState, EvalError> {
    match u {
        Update::Insert(name, q) => {
            let v = eval_query(q, db)?;
            let cur = db.get(name)?;
            Ok(db.with_binding(name.clone(), cur.union(&v)?)?)
        }
        Update::Delete(name, q) => {
            let v = eval_query(q, db)?;
            let cur = db.get(name)?;
            Ok(db.with_binding(name.clone(), cur.difference(&v)?)?)
        }
        Update::Seq(a, b) => eval_update(b, &eval_update(a, db)?),
        Update::Cond {
            guard,
            then_u,
            else_u,
        } => {
            if eval_query(guard, db)?.is_empty() {
                eval_update(else_u, db)
            } else {
                eval_update(then_u, db)
            }
        }
    }
}

/// `[[η]](DB)` — the direct semantics of a hypothetical-state expression
/// (§4.2). Note the composition order of Lemma 3.6: `η₁ # η₂` reaches
/// `η₁`'s state first, then applies `η₂` in it.
pub fn eval_state(eta: &StateExpr, db: &DatabaseState) -> Result<DatabaseState, EvalError> {
    match eta {
        StateExpr::Update(u) => eval_update(u, db),
        StateExpr::Subst(eps) => apply_subst(db, eps),
        StateExpr::Compose(a, b) => eval_state(b, &eval_state(a, db)?),
    }
}

/// `apply(DB, ρ)` (§3.3): treat a substitution as the update that
/// *simultaneously* replaces each `Sᵢ` with the value of `Qᵢ` — every
/// binding is evaluated in the original state.
pub fn apply_subst(db: &DatabaseState, eps: &ExplicitSubst) -> Result<DatabaseState, EvalError> {
    let mut values: Vec<(RelName, Relation)> = Vec::with_capacity(eps.len());
    for (name, q) in eps.iter() {
        values.push((name.clone(), eval_query(q, db)?));
    }
    let mut out = db.clone();
    for (name, v) in values {
        out.set(name, v)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypoquery_algebra::{AggExpr, CmpOp, Predicate};
    use hypoquery_storage::{tuple, Catalog};

    fn db() -> DatabaseState {
        let mut cat = Catalog::new();
        cat.declare_arity("R", 2).unwrap();
        cat.declare_arity("S", 2).unwrap();
        cat.declare_arity("T", 1).unwrap();
        let mut db = DatabaseState::new(cat);
        db.insert_rows("R", [tuple![1, 10], tuple![2, 20]]).unwrap();
        db.insert_rows("S", [tuple![2, 200], tuple![3, 300]])
            .unwrap();
        db.insert_rows("T", [tuple![7]]).unwrap();
        db
    }

    #[test]
    fn basic_algebra_semantics() {
        let db = db();
        let q = Query::base("R").union(Query::base("S"));
        assert_eq!(eval_query(&q, &db).unwrap().len(), 4);
        let q = Query::base("R").intersect(Query::base("S"));
        assert!(eval_query(&q, &db).unwrap().is_empty());
        let q = Query::base("R").select(Predicate::col_cmp(0, CmpOp::Ge, 2));
        assert_eq!(eval_query(&q, &db).unwrap().len(), 1);
        let q = Query::base("R").project([0]);
        assert_eq!(
            eval_query(&q, &db).unwrap(),
            Relation::from_rows(1, [tuple![1], tuple![2]]).unwrap()
        );
        let q = Query::base("R").join(Query::base("S"), Predicate::col_col(0, CmpOp::Eq, 2));
        let out = eval_query(&q, &db).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple![2, 20, 2, 200]));
    }

    #[test]
    fn update_semantics() {
        let db = db();
        // ins(R, S): R gains S's tuples.
        let u = Update::insert("R", Query::base("S"));
        let db2 = eval_update(&u, &db).unwrap();
        assert_eq!(db2.get(&"R".into()).unwrap().len(), 4);
        // Original untouched.
        assert_eq!(db.get(&"R".into()).unwrap().len(), 2);
        // del(R, σ_{#0=1}(R)) removes one row.
        let u = Update::delete(
            "R",
            Query::base("R").select(Predicate::col_cmp(0, CmpOp::Eq, 1)),
        );
        let db3 = eval_update(&u, &db).unwrap();
        assert_eq!(db3.get(&"R".into()).unwrap().len(), 1);
        // Sequencing: later updates see earlier effects.
        let u = Update::insert("R", Query::base("S")).then(Update::delete("R", Query::base("R")));
        let db4 = eval_update(&u, &db).unwrap();
        assert!(db4.get(&"R".into()).unwrap().is_empty());
    }

    #[test]
    fn conditional_update_semantics() {
        let db = db();
        let grow = Update::insert("R", Query::base("S"));
        let shrink = Update::delete("R", Query::base("R"));
        // Guard non-empty: then-branch.
        let u = Update::cond(Query::base("T"), grow.clone(), shrink.clone());
        assert_eq!(
            eval_update(&u, &db)
                .unwrap()
                .get(&"R".into())
                .unwrap()
                .len(),
            4
        );
        // Guard empty: else-branch.
        let empty_guard = Query::base("T").select(Predicate::col_cmp(0, CmpOp::Gt, 100));
        let u = Update::cond(empty_guard, grow, shrink);
        assert!(eval_update(&u, &db)
            .unwrap()
            .get(&"R".into())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn when_semantics() {
        let db = db();
        // R when {ins(R, S)} sees the inserted tuples; DB unchanged.
        let q = Query::base("R").when(StateExpr::update(Update::insert("R", Query::base("S"))));
        assert_eq!(eval_query(&q, &db).unwrap().len(), 4);
        assert_eq!(db.get(&"R".into()).unwrap().len(), 2);
    }

    #[test]
    fn subst_bindings_are_parallel() {
        let db = db();
        // {S/R, R/S} swaps — both sides read the ORIGINAL state.
        let eps = ExplicitSubst::new([
            ("R".into(), Query::base("S")),
            ("S".into(), Query::base("R")),
        ]);
        let swapped = apply_subst(&db, &eps).unwrap();
        assert_eq!(
            swapped.get(&"R".into()).unwrap(),
            db.get(&"S".into()).unwrap()
        );
        assert_eq!(
            swapped.get(&"S".into()).unwrap(),
            db.get(&"R".into()).unwrap()
        );
    }

    #[test]
    fn compose_order_matches_lemma_3_6() {
        let db = db();
        // η1 = ins(R, S); η2 = del(R, R) — compose runs η1 THEN η2.
        let e1 = StateExpr::update(Update::insert("R", Query::base("S")));
        let e2 = StateExpr::update(Update::delete("R", Query::base("R")));
        let out = eval_state(&e1.clone().compose(e2.clone()), &db).unwrap();
        assert!(out.get(&"R".into()).unwrap().is_empty());
        // Reversed: delete first, then insert S — R ends with S's rows.
        let out = eval_state(&e2.compose(e1), &db).unwrap();
        assert_eq!(out.get(&"R".into()).unwrap().len(), 2);
    }

    #[test]
    fn nested_when_inside_state() {
        let db = db();
        // ins(R, (S when {del(S, S)})) inserts the EMPTY relation.
        let inner = Query::base("S").when(StateExpr::update(Update::delete("S", Query::base("S"))));
        let q = Query::base("R").when(StateExpr::update(Update::insert("R", inner)));
        assert_eq!(eval_query(&q, &db).unwrap(), db.get(&"R".into()).unwrap());
    }

    #[test]
    fn eval_pure_rejects_when() {
        let db = db();
        let q = Query::base("R").when(StateExpr::update(Update::insert("R", Query::base("S"))));
        assert!(matches!(
            eval_pure(&q, &db),
            Err(EvalError::UnsupportedShape(_))
        ));
    }

    #[test]
    fn aggregate_semantics() {
        let db = db();
        let q = Query::base("R").union(Query::base("S")).aggregate(
            [],
            [
                AggExpr::Count,
                AggExpr::Sum(1),
                AggExpr::Min(0),
                AggExpr::Max(1),
            ],
        );
        let out = eval_query(&q, &db).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple![4, 530, 1, 300]));
        // Grouped.
        let mut db2 = db.clone();
        db2.insert_row("R", tuple![1, 90]).unwrap();
        let q = Query::base("R").aggregate([0], [AggExpr::Count]);
        let out = eval_query(&q, &db2).unwrap();
        assert!(out.contains(&tuple![1, 2]));
        assert!(out.contains(&tuple![2, 1]));
        // Empty input → empty output.
        let q = Query::empty(2).aggregate([], [AggExpr::Count]);
        assert!(eval_query(&q, &db).unwrap().is_empty());
    }

    #[test]
    fn sum_over_strings_errors() {
        let mut cat = Catalog::new();
        cat.declare_arity("W", 1).unwrap();
        let mut db = DatabaseState::new(cat);
        db.insert_row("W", tuple!["x"]).unwrap();
        let q = Query::base("W").aggregate([], [AggExpr::Sum(0)]);
        assert!(matches!(
            eval_query(&q, &db),
            Err(EvalError::AggregateType { agg: "sum", .. })
        ));
    }

    #[test]
    fn sum_overflow_errors() {
        let mut cat = Catalog::new();
        cat.declare_arity("R", 2).unwrap();
        let mut db = DatabaseState::new(cat);
        db.insert_row("R", tuple![1, i64::MAX]).unwrap();
        db.insert_row("R", tuple![2, 1]).unwrap();
        let q = Query::base("R").aggregate([], [AggExpr::Sum(1)]);
        assert_eq!(
            eval_query(&q, &db),
            Err(EvalError::AggregateOverflow { agg: "sum" })
        );
    }
}
