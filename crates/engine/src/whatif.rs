//! What-if branch trees: Example 2.1's "tree of potential updates".
//!
//! Each node of a [`WhatIfTree`] is a named hypothetical state: the state
//! produced by applying all updates on the path from the root to that
//! node. Queries "at" a branch are ordinary hypothetical queries — the
//! path's updates become one composed state expression — and run through
//! the planner like any other, so the whole lazy↔eager spectrum applies to
//! decision-support trees for free.

use std::collections::BTreeMap;

use hypoquery_storage::Relation;

use hypoquery_algebra::depth::MAX_DEPTH;
use hypoquery_algebra::typing::check_update;
use hypoquery_algebra::{Query, StateExpr, Update};
use hypoquery_parser::{parse_query_named, parse_update_named};

use crate::database::{too_deep_error, Database, Strategy};
use crate::error::EngineError;

/// One branch in the tree.
#[derive(Clone, Debug)]
struct Branch {
    parent: Option<String>,
    update: Update,
}

/// A tree of named hypothetical updates over a database.
#[derive(Clone, Debug, Default)]
pub struct WhatIfTree {
    branches: BTreeMap<String, Branch>,
}

impl WhatIfTree {
    /// An empty tree (the implicit root is the database's real state).
    pub fn new() -> Self {
        WhatIfTree::default()
    }

    /// Add a branch applying `update` on top of `parent` (`None` = the
    /// real state). The update is type-checked against the database.
    pub fn branch(
        &mut self,
        db: &Database,
        name: &str,
        parent: Option<&str>,
        update: &str,
    ) -> Result<(), EngineError> {
        let u = parse_update_named(update, db.catalog())?;
        self.branch_update(db, name, parent, u)
    }

    /// AST form of [`WhatIfTree::branch`], for callers that already hold
    /// an [`Update`] (programmatic tree construction, test generators).
    pub fn branch_update(
        &mut self,
        db: &Database,
        name: &str,
        parent: Option<&str>,
        update: Update,
    ) -> Result<(), EngineError> {
        if self.branches.contains_key(name) {
            return Err(EngineError::DuplicateName(name.to_string()));
        }
        if let Some(p) = parent {
            // A query on the branch is wrapped in one `#` per update on its
            // path: past the nesting limit it could never run.
            let updates = self.path(p)?.len() + 1;
            if updates > MAX_DEPTH {
                return Err(too_deep_error(format!(
                    "branch `{name}` would stack {updates} updates"
                )));
            }
        }
        check_update(&update, db.catalog())?;
        self.branches.insert(
            name.to_string(),
            Branch {
                parent: parent.map(str::to_string),
                update,
            },
        );
        Ok(())
    }

    /// Names of all branches, in name order.
    pub fn branch_names(&self) -> impl Iterator<Item = &str> {
        self.branches.keys().map(String::as_str)
    }

    /// Whether a branch with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.branches.contains_key(name)
    }

    /// The parent of a branch (`Ok(None)` = rooted at the real state).
    pub fn parent_of(&self, name: &str) -> Result<Option<&str>, EngineError> {
        self.branches
            .get(name)
            .map(|b| b.parent.as_deref())
            .ok_or_else(|| EngineError::UnknownName(name.to_string()))
    }

    /// Remove a branch **and all its descendants** (their hypothetical
    /// states depend on the dropped update). Returns the removed names in
    /// name order.
    pub fn drop_branch(&mut self, name: &str) -> Result<Vec<String>, EngineError> {
        if !self.branches.contains_key(name) {
            return Err(EngineError::UnknownName(name.to_string()));
        }
        let mut doomed: Vec<String> = vec![name.to_string()];
        // Fixpoint sweep: a branch is doomed if its parent is. The
        // BTreeMap has no child index, so repeat until no new names join
        // (trees are small — dozens of branches, not millions).
        loop {
            let before = doomed.len();
            for (n, b) in &self.branches {
                if doomed.iter().any(|d| d == n) {
                    continue;
                }
                if let Some(p) = &b.parent {
                    if doomed.iter().any(|d| d == p) {
                        doomed.push(n.clone());
                    }
                }
            }
            if doomed.len() == before {
                break;
            }
        }
        for n in &doomed {
            self.branches.remove(n);
        }
        doomed.sort();
        Ok(doomed)
    }

    /// The composed state expression for the path from the root to
    /// `branch`: `{U_root} # … # {U_branch}` (root applied first).
    pub fn state_of(&self, branch: &str) -> Result<StateExpr, EngineError> {
        let mut path = self.path(branch)?.into_iter().cloned();
        let first = StateExpr::update(path.next().expect("at least the branch itself"));
        Ok(path.fold(first, |eta, u| eta.compose(StateExpr::update(u))))
    }

    /// The updates on the path from the root to `branch`, root first.
    fn path(&self, branch: &str) -> Result<Vec<&Update>, EngineError> {
        let mut path = Vec::new();
        let mut cur = Some(branch);
        while let Some(name) = cur {
            let b = self
                .branches
                .get(name)
                .ok_or_else(|| EngineError::UnknownName(name.to_string()))?;
            path.push(&b.update);
            cur = b.parent.as_deref();
        }
        path.reverse();
        Ok(path)
    }

    /// Wrap a query so it evaluates in the named branch's hypothetical
    /// state.
    pub fn at(&self, branch: &str, q: &Query) -> Result<Query, EngineError> {
        Ok(q.clone().when(self.state_of(branch)?))
    }

    /// Run `query_src` in the named branch's state.
    pub fn query_at(
        &self,
        db: &Database,
        branch: &str,
        query_src: &str,
        strategy: Strategy,
    ) -> Result<Relation, EngineError> {
        let q = parse_query_named(query_src, db.catalog())?;
        db.execute(&self.at(branch, &q)?, strategy)
    }

    /// Run `query_src` in **every** branch's state, in parallel, returning
    /// `branch name → result` for the whole tree.
    ///
    /// This is the decision-support fan-out of Example 2.1 done at once:
    /// each branch evaluates against a copy-on-write snapshot sharing the
    /// real state's untouched relations, and independent branches spread
    /// across cores (`hypoquery_eval::exec`). The result for each branch
    /// is identical to [`WhatIfTree::query_at`] on that branch.
    pub fn query_all_branches(
        &self,
        db: &Database,
        query_src: &str,
        strategy: Strategy,
    ) -> Result<BTreeMap<String, Relation>, EngineError> {
        let q = parse_query_named(query_src, db.catalog())?;
        let jobs: Vec<(&str, Query)> = self
            .branches
            .keys()
            .map(|name| Ok((name.as_str(), self.at(name, &q)?)))
            .collect::<Result<_, EngineError>>()?;
        let results = hypoquery_eval::try_parallel_map(&jobs, |_, (_, wrapped)| {
            db.execute(wrapped, strategy)
        })?;
        Ok(jobs
            .iter()
            .map(|(name, _)| name.to_string())
            .zip(results)
            .collect())
    }

    /// Example 2.1's comparison query: the tuples `query_src` returns in
    /// branch `b1` but not in `b2` — `(Q when η₁) − (Q when η₂)`, both
    /// relative to the current state.
    pub fn diff_between(
        &self,
        db: &Database,
        b1: &str,
        b2: &str,
        query_src: &str,
        strategy: Strategy,
    ) -> Result<Relation, EngineError> {
        let q = parse_query_named(query_src, db.catalog())?;
        let q1 = self.at(b1, &q)?;
        let q2 = self.at(b2, &q)?;
        db.execute(&q1.diff(q2), strategy)
    }

    /// Commit a branch: apply its path's updates to the real database
    /// state as one constraint-checked sequence (all or nothing) and drop
    /// the whole tree, whose hypothetical states are now stale.
    pub fn commit(self, db: &mut Database, branch: &str) -> Result<(), EngineError> {
        let path = self.path(branch)?.into_iter().cloned();
        db.apply_update(&Update::seq(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypoquery_storage::tuple;

    fn setup() -> (Database, WhatIfTree) {
        let mut db = Database::new();
        db.define("inv", 2).unwrap(); // (item, qty)
        db.load("inv", [tuple![1, 10], tuple![2, 20], tuple![3, 30]])
            .unwrap();
        let mut tree = WhatIfTree::new();
        tree.branch(
            &db,
            "base_plan",
            None,
            "delete from inv (select #1 < 15 (inv))",
        )
        .unwrap();
        tree.branch(
            &db,
            "restock",
            Some("base_plan"),
            "insert into inv (row(4, 40))",
        )
        .unwrap();
        tree.branch(
            &db,
            "clearance",
            Some("base_plan"),
            "delete from inv (select #1 > 25 (inv))",
        )
        .unwrap();
        (db, tree)
    }

    #[test]
    fn queries_at_branches_see_path_updates() {
        let (db, tree) = setup();
        let at = |b: &str| tree.query_at(&db, b, "inv", Strategy::Auto).unwrap().len();
        assert_eq!(at("base_plan"), 2); // item 1 removed
        assert_eq!(at("restock"), 3); // + item 4
        assert_eq!(at("clearance"), 1); // item 3 also removed
                                        // The real state is untouched.
        assert_eq!(db.query("inv").unwrap().len(), 3);
    }

    #[test]
    fn query_all_branches_matches_query_at() {
        let (db, tree) = setup();
        for s in [Strategy::Auto, Strategy::Lazy, Strategy::Hql2] {
            let all = tree.query_all_branches(&db, "inv", s).unwrap();
            assert_eq!(all.len(), 3);
            for name in tree.branch_names() {
                assert_eq!(
                    all[name],
                    tree.query_at(&db, name, "inv", s).unwrap(),
                    "branch {name}, strategy {s}"
                );
            }
        }
        // The real state is untouched by the fan-out.
        assert_eq!(db.query("inv").unwrap().len(), 3);
    }

    #[test]
    fn diff_between_sibling_branches() {
        let (db, tree) = setup();
        let d = tree
            .diff_between(&db, "restock", "clearance", "inv", Strategy::Auto)
            .unwrap();
        // restock has items {2,3,4}; clearance has {2}: diff = {3,4}.
        assert_eq!(d.len(), 2);
        // Strategies agree.
        for s in [Strategy::Lazy, Strategy::Hql2] {
            assert_eq!(
                tree.diff_between(&db, "restock", "clearance", "inv", s)
                    .unwrap(),
                d
            );
        }
    }

    #[test]
    fn state_of_composes_root_first() {
        let (db, tree) = setup();
        let eta = tree.state_of("restock").unwrap();
        let upd = |src| StateExpr::update(parse_update_named(src, db.catalog()).unwrap());
        assert_eq!(
            eta,
            upd("delete from inv (select #1 < 15 (inv))")
                .compose(upd("insert into inv (row(4, 40))"))
        );
        // Evaluate directly: should equal querying at the branch.
        let q = Query::base("inv").when(eta);
        let via_state = db.execute(&q, Strategy::Lazy).unwrap();
        let via_query = tree
            .query_at(&db, "restock", "inv", Strategy::Lazy)
            .unwrap();
        assert_eq!(via_state, via_query);
    }

    #[test]
    fn branch_validation() {
        let (db, mut tree) = setup();
        assert!(matches!(
            tree.branch(&db, "base_plan", None, "insert into inv (row(9, 9))"),
            Err(EngineError::DuplicateName(_))
        ));
        assert!(matches!(
            tree.branch(&db, "x", Some("missing"), "insert into inv (row(9, 9))"),
            Err(EngineError::UnknownName(_))
        ));
        assert!(tree
            .branch(&db, "bad_arity", None, "insert into inv (row(9))")
            .is_err());
        assert!(matches!(
            tree.query_at(&db, "nope", "inv", Strategy::Auto),
            Err(EngineError::UnknownName(_))
        ));
    }

    #[test]
    fn drop_branch_removes_descendants() {
        let (db, mut tree) = setup();
        tree.branch(&db, "deep", Some("restock"), "insert into inv (row(5, 50))")
            .unwrap();
        assert!(tree.contains("deep"));
        assert_eq!(tree.parent_of("deep").unwrap(), Some("restock"));
        assert_eq!(tree.parent_of("base_plan").unwrap(), None);
        let removed = tree.drop_branch("base_plan").unwrap();
        assert_eq!(removed, ["base_plan", "clearance", "deep", "restock"]);
        assert_eq!(tree.branch_names().count(), 0);
        assert!(matches!(
            tree.drop_branch("base_plan"),
            Err(EngineError::UnknownName(_))
        ));
        assert!(matches!(
            tree.parent_of("nope"),
            Err(EngineError::UnknownName(_))
        ));
    }

    #[test]
    fn drop_leaf_keeps_siblings() {
        let (db, mut tree) = setup();
        let removed = tree.drop_branch("restock").unwrap();
        assert_eq!(removed, ["restock"]);
        assert!(tree.contains("clearance"));
        assert_eq!(
            tree.query_at(&db, "clearance", "inv", Strategy::Auto)
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn commit_is_all_or_nothing() {
        let mut db = Database::new();
        db.define("inv", 2).unwrap();
        db.load("inv", [tuple![1, 10], tuple![2, 20]]).unwrap();
        db.add_constraint("no_neg", "select #1 < 0 (inv)").unwrap();
        let mut tree = WhatIfTree::new();
        tree.branch(&db, "a", None, "insert into inv (row(3, 30))")
            .unwrap();
        tree.branch(&db, "b", Some("a"), "insert into inv (row(4, -1))")
            .unwrap();
        assert!(matches!(
            tree.commit(&mut db, "b"),
            Err(EngineError::ConstraintViolation { .. })
        ));
        // Not even branch `a`'s update, which alone is valid, was applied.
        assert_eq!(db.query("inv").unwrap().len(), 2);
    }

    #[test]
    fn commit_applies_path() {
        let (mut db, tree) = setup();
        tree.commit(&mut db, "clearance").unwrap();
        let rows = db.query("inv").unwrap();
        assert_eq!(rows.len(), 1);
        assert!(rows.contains(&tuple![2, 20]));
    }
}
