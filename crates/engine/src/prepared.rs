//! Prepared hypothetical states — Example 2.2's "families of hypothetical
//! queries" as a first-class API.
//!
//! When an application will ask *many* queries against one hypothetical
//! state, the state's composed substitution should be derived once and —
//! eagerly — materialized once, then reused (Example 2.2(a/b)). A
//! [`PreparedState`] holds both artifacts:
//!
//! * the reduced substitution `ρ = red(η)` (valid in **every** database
//!   state — "this substitution remains valid even if the underlying
//!   database state is changed");
//! * optionally, its xsub-value materialization in a *specific* state,
//!   which becomes stale if that state changes.

use hypoquery_storage::Relation;

use hypoquery_algebra::typing::check_state_expr;
use hypoquery_algebra::{ExplicitSubst, Query, StateExpr};
use hypoquery_core::{lazy_state, RewriteTrace};
use hypoquery_eval::XsubValue;
use hypoquery_parser::{parse_query_named, parse_state_expr_named};

use crate::database::{Database, Strategy};
use crate::error::EngineError;

/// A hypothetical state prepared for repeated querying.
#[derive(Clone, Debug)]
pub struct PreparedState {
    /// The original state expression (for display/explain).
    eta: StateExpr,
    /// `red(η)`: the composed, pure substitution.
    rho: ExplicitSubst,
    /// Materialized xsub-value, if [`PreparedState::materialize`] ran.
    xsub: Option<XsubValue>,
}

impl PreparedState {
    /// Prepare a state expression: type-check and reduce it to its
    /// composed substitution. No data is touched yet.
    pub fn new(db: &Database, eta: StateExpr) -> Result<PreparedState, EngineError> {
        check_state_expr(&eta, db.catalog())?;
        let rho = lazy_state(&eta, &mut |q| q, &mut RewriteTrace::new());
        Ok(PreparedState {
            eta,
            rho,
            xsub: None,
        })
    }

    /// Prepare from surface syntax.
    pub fn parse(db: &Database, src: &str) -> Result<PreparedState, EngineError> {
        let eta = parse_state_expr_named(src, db.catalog())?;
        PreparedState::new(db, eta)
    }

    /// The original state expression.
    pub fn state_expr(&self) -> &StateExpr {
        &self.eta
    }

    /// The composed substitution `red(η)`.
    pub fn substitution(&self) -> &ExplicitSubst {
        &self.rho
    }

    /// Eagerly materialize the substitution in the database's current
    /// state (Example 2.2's "(partially) materialized, and used to filter
    /// evaluation"). Re-run after the database changes — the cache is
    /// a snapshot.
    pub fn materialize(&mut self, db: &Database) -> Result<(), EngineError> {
        let mut e = XsubValue::empty();
        for (name, q) in self.rho.iter() {
            e.bind(name.clone(), db.execute(q, Strategy::Auto)?);
        }
        self.xsub = Some(e);
        Ok(())
    }

    /// Whether a materialization snapshot is held.
    pub fn is_materialized(&self) -> bool {
        self.xsub.is_some()
    }

    /// Drop the materialization snapshot (e.g. after a real update).
    pub fn invalidate(&mut self) {
        self.xsub = None;
    }

    /// Run one family member against this hypothetical state. The
    /// planner shapes it either way, as it shapes any query:
    ///
    /// * materialized: the member is planned on its own and run with the
    ///   cached xsub-value bound as constants (eager reuse: the snapshot
    ///   is shared, never re-collected);
    /// * otherwise: the member runs as `q when ρ`.
    pub fn query(&self, db: &Database, q: &Query) -> Result<Relation, EngineError> {
        match &self.xsub {
            Some(e) => db.execute_under_xsub(q, e),
            None => db.execute(
                &q.clone().when(StateExpr::subst(self.rho.clone())),
                Strategy::Auto,
            ),
        }
    }

    /// Surface-syntax variant of [`PreparedState::query`].
    pub fn query_src(&self, db: &Database, src: &str) -> Result<Relation, EngineError> {
        let q = parse_query_named(src, db.catalog())?;
        self.query(db, &q)
    }

    /// Run a whole family of queries against this hypothetical state,
    /// fanning out across cores (Example 2.2 at scale).
    ///
    /// The prepared substitution — and the materialization snapshot, if
    /// held — is shared read-only by every worker; results are exactly
    /// those of calling [`PreparedState::query`] per member in order.
    pub fn query_batch(
        &self,
        db: &Database,
        family: &[Query],
    ) -> Result<Vec<Relation>, EngineError> {
        hypoquery_eval::try_parallel_map(family, |_, q| self.query(db, q))
    }

    /// Surface-syntax variant of [`PreparedState::query_batch`].
    pub fn query_batch_src(
        &self,
        db: &Database,
        family: &[impl AsRef<str>],
    ) -> Result<Vec<Relation>, EngineError> {
        let queries = family
            .iter()
            .map(|s| Ok(parse_query_named(s.as_ref(), db.catalog())?))
            .collect::<Result<Vec<_>, EngineError>>()?;
        self.query_batch(db, &queries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypoquery_storage::tuple;

    fn db() -> Database {
        let mut db = Database::new();
        db.define_named("emp", ["id", "salary"]).unwrap();
        db.define("bonus", 2).unwrap();
        db.load("emp", [tuple![1, 100], tuple![2, 200], tuple![3, 300]])
            .unwrap();
        db
    }

    fn prepared(db: &Database) -> PreparedState {
        PreparedState::parse(
            db,
            "{delete from emp (select salary < 150 (emp))} \
             # {insert into bonus (project id, salary (emp))}",
        )
        .unwrap()
    }

    #[test]
    fn lazy_and_materialized_agree() {
        let db = db();
        let mut p = prepared(&db);
        let family = [
            "emp",
            "bonus",
            "emp join bonus on #0 = #2",
            "emp when {insert into emp (row(7, 70))}",
        ];
        let lazy: Vec<Relation> = family
            .iter()
            .map(|q| p.query_src(&db, q).unwrap())
            .collect();
        p.materialize(&db).unwrap();
        assert!(p.is_materialized());
        for (q, expect) in family.iter().zip(&lazy) {
            assert_eq!(&p.query_src(&db, q).unwrap(), expect, "query {q}");
        }
        // The bonus view sees the post-delete emp (2 rows). The inner
        // `when` applies on top of the prepared state: 70 is inserted
        // after the salary < 150 delete, so it survives.
        assert_eq!(lazy[1].len(), 2);
        assert_eq!(lazy[3].len(), 3);
    }

    #[test]
    fn query_batch_matches_sequential() {
        let db = db();
        let mut p = prepared(&db);
        let family = ["emp", "bonus", "emp join bonus on #0 = #2"];
        for materialized in [false, true] {
            if materialized {
                p.materialize(&db).unwrap();
            }
            let seq: Vec<Relation> = family
                .iter()
                .map(|q| p.query_src(&db, q).unwrap())
                .collect();
            let par = p.query_batch_src(&db, &family).unwrap();
            assert_eq!(par, seq, "materialized={materialized}");
        }
    }

    #[test]
    fn substitution_survives_state_changes() {
        let mut db = db();
        let p = prepared(&db);
        let before = p.query_src(&db, "emp").unwrap();
        assert_eq!(before.len(), 2);
        // Change the real state: the *substitution* stays valid and now
        // reflects the new data (the paper's Example 2.2 remark).
        db.execute_update("insert into emp (row(4, 120))").unwrap();
        let after = p.query_src(&db, "emp").unwrap();
        assert_eq!(after.len(), 2); // 120 < 150 is hypothetically deleted
                                    // A surviving insert shows the substitution reads fresh data.
        db.execute_update("insert into emp (row(5, 500))").unwrap();
        let after = p.query_src(&db, "emp").unwrap();
        assert_eq!(after.len(), 3);
        assert_ne!(before, after);
    }

    #[test]
    fn materialization_is_a_snapshot() {
        let mut db = db();
        let mut p = prepared(&db);
        p.materialize(&db).unwrap();
        db.execute_update("insert into emp (row(9, 900))").unwrap();
        // The snapshot does not see the new row...
        assert_eq!(p.query_src(&db, "emp").unwrap().len(), 2);
        // ...until invalidated and re-materialized.
        p.invalidate();
        assert!(!p.is_materialized());
        assert_eq!(p.query_src(&db, "emp").unwrap().len(), 3);
    }

    #[test]
    fn type_errors_at_prepare_time() {
        let db = db();
        assert!(PreparedState::parse(&db, "{insert into emp (row(1))}").is_err());
        assert!(PreparedState::parse(&db, "{insert into nosuch (row(1))}").is_err());
    }
}
