//! §6 extensions beyond the paper's core: temporary tables and `when`
//! applied to hypothetical-state expressions.
//!
//! (Conditional updates — another §6 extension — live in the update
//! language itself: `hypoquery_algebra::Update::Cond`, sliced away by
//! `hypoquery_core::slice`. Aborting updates are realized as the engine's
//! constraint-checked `execute_update`.)

use hypoquery_algebra::typing::arity_of;
use hypoquery_algebra::{ExplicitSubst, Query, StateExpr};
use hypoquery_core::{to_enf_state, RewriteTrace};
use hypoquery_parser::parse_query_named;

use crate::database::Database;
use crate::error::EngineError;

/// A set of named temporary tables — views, in effect — each defined by a
/// query over the base schema.
///
/// The definitions form an explicit substitution, and using a temp is the
/// *lazy application* of that substitution: every free occurrence of a
/// temp name in a query is expanded to its defining query, respecting
/// `when`-scope (an enclosing hypothetical that rebinds the name shadows
/// the view, exactly per the `free`/`dom` rules of Figure 2). Expanded
/// views therefore see hypothetical states: `vip when {U}` reads the
/// *post-U* base relations through the view. This is why §6 can claim
/// temporary tables add no expressive power — they are substitutions.
#[derive(Clone, Debug, Default)]
pub struct TempTables {
    defs: ExplicitSubst,
}

/// Expand free occurrences of view names in a query (capture-aware).
fn expand_query(q: &Query, defs: &ExplicitSubst) -> Query {
    if defs.is_empty() {
        return q.clone();
    }
    match q {
        Query::Base(name) => match defs.get(name) {
            Some(def) => def.clone(),
            None => q.clone(),
        },
        Query::When(body, eta) => {
            // Names defined by η are bound inside the body.
            let mut body_defs = defs.clone();
            for name in hypoquery_algebra::scope::dom_state_expr(eta) {
                body_defs = body_defs.without(&name);
            }
            expand_query(body, &body_defs).when(expand_state(eta, defs))
        }
        other => other.clone().map_subqueries(|sub| expand_query(&sub, defs)),
    }
}

/// Expand view names inside a state expression's queries. Update *target*
/// names are left alone: writes always address the underlying declared
/// relation.
fn expand_state(eta: &StateExpr, defs: &ExplicitSubst) -> StateExpr {
    match eta {
        StateExpr::Update(u) => StateExpr::update(expand_update(u, defs)),
        StateExpr::Subst(eps) => StateExpr::subst(ExplicitSubst::new(
            eps.iter()
                .map(|(name, q)| (name.clone(), expand_query(q, defs))),
        )),
        StateExpr::Compose(a, b) => {
            // η₁ defines names that are bound within η₂ (Fig. 2's
            // free(η₁#η₂) rule).
            let mut b_defs = defs.clone();
            for name in hypoquery_algebra::scope::dom_state_expr(a) {
                b_defs = b_defs.without(&name);
            }
            expand_state(a, defs).compose(expand_state(b, &b_defs))
        }
    }
}

fn expand_update(u: &hypoquery_algebra::Update, defs: &ExplicitSubst) -> hypoquery_algebra::Update {
    use hypoquery_algebra::Update;
    match u {
        Update::Insert(r, q) => Update::Insert(r.clone(), expand_query(q, defs)),
        Update::Delete(r, q) => Update::Delete(r.clone(), expand_query(q, defs)),
        Update::Seq(a, b) => {
            // The second update reads names the first may have defined —
            // but definitions here are *writes to base relations*, which
            // shadow the view for subsequent reads.
            let mut b_defs = defs.clone();
            for name in hypoquery_algebra::scope::dom_update(a) {
                b_defs = b_defs.without(&name);
            }
            expand_update(a, defs).then(expand_update(b, &b_defs))
        }
        Update::Cond {
            guard,
            then_u,
            else_u,
        } => Update::cond(
            expand_query(guard, defs),
            expand_update(then_u, defs),
            expand_update(else_u, defs),
        ),
    }
}

impl TempTables {
    /// No temporary tables.
    pub fn new() -> Self {
        TempTables::default()
    }

    /// Define (or redefine) a temporary table.
    ///
    /// The temp's name must be a *declared* relation name in the catalog
    /// (the formal system has one fixed schema Σ; a temp shadows a name,
    /// exactly like a substitution binding). Its defining query may use
    /// previously defined temps, which are expanded at definition time.
    pub fn define(
        &mut self,
        db: &Database,
        name: &str,
        query_src: &str,
    ) -> Result<(), EngineError> {
        let q = parse_query_named(query_src, db.catalog())?;
        // Expand previously defined temps so later definitions may build
        // on earlier ones.
        let q = expand_query(&q, &self.defs);
        let declared = db
            .catalog()
            .arity(&name.into())
            .map_err(|_| EngineError::UnknownName(name.to_string()))?;
        let actual = arity_of(&q, db.catalog())?;
        if actual != declared {
            return Err(EngineError::Type(
                hypoquery_algebra::TypeError::BindingArityMismatch {
                    name: name.into(),
                    expected: declared,
                    found: actual,
                },
            ));
        }
        self.defs.bind(name, q);
        Ok(())
    }

    /// Rewrite a query to see the temporary tables: free occurrences of
    /// temp names are expanded to their defining queries (view expansion —
    /// the lazy application of the defs substitution).
    pub fn apply(&self, q: &Query) -> Query {
        expand_query(q, &self.defs)
    }

    /// Run a query with the temps visible.
    pub fn query(
        &self,
        db: &Database,
        query_src: &str,
        strategy: crate::database::Strategy,
    ) -> Result<hypoquery_storage::Relation, EngineError> {
        let q = parse_query_named(query_src, db.catalog())?;
        db.execute(&self.apply(&q), strategy)
    }
}

/// The `η₁ when η₂` construct the paper defers to \[GH97\]: *the update η₁,
/// as it would behave in the hypothetical state η₂*, applied to the
/// current state.
///
/// Semantics chosen here: normalize `η₁` to an explicit substitution
/// `{Q₁/R₁, …}` and wrap every bound query in `when η₂`, yielding
/// `{(Q₁ when η₂)/R₁, …}`. The *reads* of η₁ happen in η₂'s world; the
/// *writes* land relative to the current state. This differs from plain
/// composition `η₂ # η₁`, which would keep η₂'s changes in the result —
/// see the unit test below for a separating example.
pub fn state_when(eta1: &StateExpr, eta2: &StateExpr) -> StateExpr {
    let eps = to_enf_state(eta1, &mut RewriteTrace::new());
    let wrapped = ExplicitSubst::new(
        eps.into_bindings()
            .into_iter()
            .map(|(name, q)| (name, q.when(eta2.clone()))),
    );
    StateExpr::subst(wrapped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Strategy;
    use hypoquery_algebra::Update;
    use hypoquery_eval::eval_state;
    use hypoquery_storage::tuple;

    fn db() -> Database {
        let mut db = Database::new();
        db.define("R", 2).unwrap();
        db.define("S", 2).unwrap();
        db.define("hi", 2).unwrap(); // declared name used as a temp
        db.load("R", [tuple![1, 100], tuple![2, 200]]).unwrap();
        db.load("S", [tuple![2, 999]]).unwrap();
        db
    }

    #[test]
    fn temps_are_substitutions() {
        let db = db();
        let mut temps = TempTables::new();
        temps.define(&db, "hi", "select #1 >= 200 (R)").unwrap();
        let out = temps.query(&db, "hi", Strategy::Auto).unwrap();
        assert_eq!(out.len(), 1);
        // Temps can build on temps.
        let mut temps2 = temps.clone();
        temps2.define(&db, "S", "hi union R").unwrap();
        let out = temps2.query(&db, "S", Strategy::Auto).unwrap();
        assert_eq!(out.len(), 2);
        // The base S is shadowed, not modified.
        assert_eq!(db.query("S").unwrap().len(), 1);
    }

    #[test]
    fn temp_errors() {
        let db = db();
        let mut temps = TempTables::new();
        assert!(matches!(
            temps.define(&db, "nosuch", "R"),
            Err(EngineError::UnknownName(_))
        ));
        // Arity mismatch with the declared name.
        assert!(matches!(
            temps.define(&db, "hi", "project 0 (R)"),
            Err(EngineError::Type(_))
        ));
    }

    #[test]
    fn state_when_reads_hypothetically_writes_locally() {
        let db = db();
        // η1 = ins(R, S): reads S. η2 = ins(S, row(7,7)): changes S.
        let e1 = StateExpr::update(Update::insert("R", Query::base("S")));
        let e2 = StateExpr::update(Update::insert("S", Query::singleton(tuple![7, 7])));
        let w = state_when(&e1, &e2);
        let result = eval_state(&w, db.state()).unwrap();
        // R gained S-as-seen-under-η2 (2 rows): total 4.
        assert_eq!(result.get(&"R".into()).unwrap().len(), 4);
        // But S itself is unchanged — unlike composition η₂ # η₁.
        assert_eq!(result.get(&"S".into()).unwrap().len(), 1);
        let composed = eval_state(&e2.compose(e1), db.state()).unwrap();
        assert_eq!(composed.get(&"S".into()).unwrap().len(), 2);
    }
}
