//! The `Database` facade: schema definition, data loading, real updates,
//! hypothetical queries with selectable evaluation strategy, integrity
//! constraints, and `EXPLAIN`.

use std::collections::BTreeMap;
use std::fmt;

use hypoquery_storage::{
    Catalog, DatabaseState, IndexCounters, RelName, RelSchema, Relation, Tuple,
};

use hypoquery_algebra::depth::{height, too_deep, MAX_DEPTH};
use hypoquery_algebra::scope::dom_update;
use hypoquery_algebra::typing::{arity_of, check_update};
use hypoquery_algebra::{Query, Update};
use hypoquery_eval::{eval_update, ExecMetrics, PhysPlan, XsubValue};
use hypoquery_opt::{
    lower_query, lower_under_xsub, plan, plan_as, Plan, PlannedStrategy, Statistics,
};
use hypoquery_parser::{parse_query_named, parse_update_named, ParseError};

use crate::error::EngineError;

/// How a hypothetical query should be evaluated.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Strategy {
    /// Let the planner choose (cost-based over lazy / eager / delta /
    /// hybrid — the paper's full spectrum).
    #[default]
    Auto,
    /// Fully lazy: reduce to pure RA, optimize, evaluate conventionally.
    Lazy,
    /// Eager: materialize each `when`'s state as an xsub-value. Algorithms
    /// HQL-1 and HQL-2 share this ENF shape and differ only in the order an
    /// interpreter visits it, which has no physical counterpart, so
    /// `hql1` names this strategy too.
    Hql2,
    /// Eager with delta values: Algorithm HQL-3 (requires a mod-ENF form).
    Delta,
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Strategy::Auto => "auto",
            Strategy::Lazy => "lazy",
            Strategy::Hql2 => "hql2",
            Strategy::Delta => "delta",
        };
        write!(f, "{s}")
    }
}

impl std::str::FromStr for Strategy {
    type Err = EngineError;

    /// Accepts the [`fmt::Display`] names and `hql1` (case-insensitive).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Ok(Strategy::Auto),
            "lazy" => Ok(Strategy::Lazy),
            "hql1" | "hql2" => Ok(Strategy::Hql2),
            "delta" => Ok(Strategy::Delta),
            other => Err(EngineError::UnknownName(format!("strategy {other}"))),
        }
    }
}

/// An integrity constraint: a query that must evaluate to the empty
/// relation in every committed state.
#[derive(Clone, Debug)]
pub struct Constraint {
    /// The violation query (non-empty result = violation).
    pub violation_query: Query,
}

/// The main entry point: a catalog, a current state, integrity
/// constraints, and query/update execution across the eager↔lazy spectrum.
#[derive(Clone, Debug)]
pub struct Database {
    state: DatabaseState,
    constraints: BTreeMap<String, Constraint>,
}

impl Database {
    /// An empty database with an empty catalog.
    pub fn new() -> Self {
        Database {
            state: DatabaseState::new(Catalog::new()),
            constraints: BTreeMap::new(),
        }
    }

    /// Create over an existing catalog.
    pub fn with_catalog(catalog: Catalog) -> Self {
        Database {
            state: DatabaseState::new(catalog),
            constraints: BTreeMap::new(),
        }
    }

    /// Declare a relation with positional columns.
    pub fn define(&mut self, name: &str, arity: usize) -> Result<(), EngineError> {
        self.define_schema(name, RelSchema::positional(arity))
    }

    /// Declare a relation with named columns; queries can then reference
    /// them by name (`select salary >= 200 (emp)`).
    pub fn define_named(
        &mut self,
        name: &str,
        attrs: impl IntoIterator<Item = impl Into<String>>,
    ) -> Result<(), EngineError> {
        self.define_schema(name, RelSchema::named(attrs))
    }

    fn define_schema(&mut self, name: &str, schema: RelSchema) -> Result<(), EngineError> {
        if hypoquery_parser::is_keyword(name) {
            return Err(EngineError::DuplicateName(format!(
                "{name} (reserved keyword)"
            )));
        }
        let mut catalog = self.state.catalog().clone();
        catalog.declare(name, schema)?;
        // Rebuild state over the extended catalog, keeping data and index
        // declarations.
        let mut next = DatabaseState::new(catalog);
        for (n, rel) in self.state.iter() {
            next.set(n.clone(), rel.clone())?;
        }
        for (n, col) in self.state.index_decls() {
            next.declare_index(n.clone(), col)?;
        }
        next.share_index_stats(&self.state);
        self.state = next;
        Ok(())
    }

    /// Declare a secondary index on column `col` of relation `name`.
    ///
    /// Declarations are intent: the physical hash index is built lazily on
    /// the first probe that can use it, and — because indexes are cached
    /// in the relation's shared storage — every copy-on-write
    /// snapshot whose `name` is untouched reuses the same build for free.
    /// Returns `true` if the declaration is new.
    pub fn create_index(&mut self, name: &str, col: usize) -> Result<bool, EngineError> {
        Ok(self.state.declare_index(name, col)?)
    }

    /// Drop the index declaration on column `col` of relation `name`.
    /// Returns `true` if it existed. Errors on unknown relations and
    /// out-of-range columns, mirroring [`Database::create_index`].
    pub fn drop_index(&mut self, name: &str, col: usize) -> Result<bool, EngineError> {
        let rel = RelName::new(name);
        let arity = self.state.catalog().arity(&rel)?;
        if col >= arity {
            return Err(hypoquery_storage::StorageError::ArityMismatch {
                context: "index column out of range",
                expected: arity,
                found: col,
            }
            .into());
        }
        Ok(self.state.undeclare_index(&rel, col))
    }

    /// Columns of `name` with a declared index (empty when none).
    pub fn indexed_columns(&self, name: &str) -> Vec<usize> {
        self.state.indexed_columns(&RelName::new(name))
    }

    /// The current catalog.
    pub fn catalog(&self) -> &Catalog {
        self.state.catalog()
    }

    /// The current state (read-only).
    pub fn state(&self) -> &DatabaseState {
        &self.state
    }

    /// This database's index hit/miss/build counters. Clones (server
    /// sessions, what-if branches) count into the same handle; another
    /// `Database` counts on its own.
    pub fn index_counters(&self) -> IndexCounters {
        self.state.index_stats().counters()
    }

    /// Count index probes into `from`'s counters from now on (a database
    /// restored in place of `from` keeps its counts).
    pub fn share_index_stats(&mut self, from: &Database) {
        self.state.share_index_stats(&from.state);
    }

    /// Bulk-load rows into a relation.
    pub fn load(
        &mut self,
        name: &str,
        rows: impl IntoIterator<Item = Tuple>,
    ) -> Result<(), EngineError> {
        self.state.insert_rows(RelName::new(name), rows)?;
        Ok(())
    }

    /// Register an integrity constraint: `violation_query` must stay empty.
    pub fn add_constraint(&mut self, name: &str, violation_query: &str) -> Result<(), EngineError> {
        if self.constraints.contains_key(name) {
            return Err(EngineError::DuplicateName(name.to_string()));
        }
        let q = parse_query_named(violation_query, self.state.catalog())?;
        check_query(&q, self.state.catalog())?;
        self.constraints
            .insert(name.to_string(), Constraint { violation_query: q });
        Ok(())
    }

    /// Parse a query without type-checking it (every entry point that
    /// runs or explains a query checks it). Named column references are
    /// resolved against the catalog's attribute names.
    pub fn parse(&self, src: &str) -> Result<Query, EngineError> {
        Ok(parse_query_named(src, self.state.catalog())?)
    }

    /// Parse and type-check a query without running it.
    pub fn prepare(&self, src: &str) -> Result<Query, EngineError> {
        let q = self.parse(src)?;
        check_query(&q, self.state.catalog())?;
        Ok(q)
    }

    /// The inferred output column names of a query (None = anonymous).
    pub fn output_attrs(&self, q: &Query) -> Result<Vec<Option<String>>, EngineError> {
        Ok(hypoquery_algebra::attrs_of(q, self.state.catalog())?)
    }

    /// Run a query and render the result as an aligned text table with
    /// inferred column headers.
    pub fn query_table(&self, src: &str) -> Result<String, EngineError> {
        let q = self.prepare(src)?;
        let attrs = self.output_attrs(&q)?;
        let rel = self.execute(&q, Strategy::Auto)?;
        Ok(render_table(&attrs, &rel))
    }

    /// Run a query with the default (Auto) strategy.
    pub fn query(&self, src: &str) -> Result<Relation, EngineError> {
        self.query_with(src, Strategy::Auto)
    }

    /// Run a query with an explicit strategy.
    pub fn query_with(&self, src: &str, strategy: Strategy) -> Result<Relation, EngineError> {
        let q = self.prepare(src)?;
        self.execute(&q, strategy)
    }

    /// Run an already-built query AST.
    ///
    /// Every strategy executes through the pipelined physical layer: the
    /// planner ([`hypoquery_opt::plan`], or [`hypoquery_opt::plan_as`] for
    /// a fixed strategy) decides the logical *shape* the query is
    /// normalized into (pure / ENF / mod-ENF), which
    /// [`hypoquery_opt::lower`] then compiles onto the one operator set of
    /// [`hypoquery_eval::physical`]. The retired per-strategy tree
    /// walkers remain as [`Plan::execute_legacy`], the differential-testing
    /// oracle.
    pub fn execute(&self, q: &Query, strategy: Strategy) -> Result<Relation, EngineError> {
        check_query(q, self.state.catalog())?;
        let (_, phys) = self.plan_physical(q, strategy)?;
        Ok(phys.execute(&self.state)?)
    }

    /// Run several independent queries in parallel, fanning out across
    /// the machine's cores (`hypoquery_eval::exec`).
    ///
    /// Each query evaluates against the same immutable state — hypothetical
    /// `when` scenarios build copy-on-write snapshots that physically share
    /// every untouched relation, so k scenarios over an n-tuple base cost
    /// O(n + Σ|δᵢ|) memory, not O(k·n). Results (and the first error, if
    /// any) are exactly those of executing the queries sequentially in
    /// order.
    pub fn execute_many(
        &self,
        queries: &[Query],
        strategy: Strategy,
    ) -> Result<Vec<Relation>, EngineError> {
        hypoquery_eval::try_parallel_map(queries, |_, q| self.execute(q, strategy))
    }

    /// Produce the planner's plan for a query.
    pub fn plan_query(&self, q: &Query) -> Plan {
        let stats = Statistics::of(&self.state);
        plan(q, self.state.catalog(), &stats)
    }

    /// Plan `q` under `strategy`: cost-based for Auto, the mapped
    /// planner strategy's candidate otherwise.
    fn plan_with(
        &self,
        q: &Query,
        strategy: Strategy,
        stats: &Statistics,
    ) -> Result<Plan, EngineError> {
        let catalog = self.state.catalog();
        let fixed = match strategy {
            Strategy::Auto => return Ok(plan(q, catalog, stats)),
            Strategy::Lazy => PlannedStrategy::Lazy,
            Strategy::Hql2 => PlannedStrategy::EagerXsub,
            Strategy::Delta => PlannedStrategy::EagerDelta,
        };
        Ok(plan_as(q, catalog, stats, fixed)?)
    }

    /// Plan `q` under `strategy` and lower the plan, computing the
    /// statistics both steps read once.
    fn plan_physical(
        &self,
        q: &Query,
        strategy: Strategy,
    ) -> Result<(Plan, PhysPlan), EngineError> {
        let stats = Statistics::of(&self.state);
        let p = self.plan_with(q, strategy, &stats)?;
        let phys = lower_query(&p.query, self.state.catalog(), &stats)?;
        Ok((p, phys))
    }

    /// Lower a plan to its physical form against the current state's
    /// statistics (access paths depend on declared indexes and estimated
    /// cardinalities).
    pub fn physical_plan(&self, p: &Plan) -> Result<PhysPlan, EngineError> {
        let stats = Statistics::of(&self.state);
        Ok(lower_query(&p.query, self.state.catalog(), &stats)?)
    }

    /// Type-check `q`, plan it as [`Database::execute`] does under Auto,
    /// and run it in the state `apply(DB, e)` of the materialized
    /// xsub-value `e` (a prepared hypothetical state, Example 2.2, or the
    /// relations a committing update writes): `e`'s relations are bound as
    /// constants, never re-collected.
    pub(crate) fn execute_under_xsub(
        &self,
        q: &Query,
        e: &XsubValue,
    ) -> Result<Relation, EngineError> {
        let catalog = self.state.catalog();
        check_query(q, catalog)?;
        let stats = Statistics::of(&self.state);
        let p = plan(q, catalog, &stats);
        let phys = lower_under_xsub(&p.query, e, catalog, &stats)?;
        Ok(phys.execute(&self.state)?)
    }

    /// `EXPLAIN`: the chosen plan, its candidates and rewrite traces,
    /// rendered for humans.
    pub fn explain(&self, src: &str) -> Result<String, EngineError> {
        let q = self.prepare(src)?;
        self.explain_query(&q, Strategy::Auto)
    }

    /// AST form of [`Database::explain`] under a given strategy, for
    /// callers that wrap queries before planning (e.g. a what-if branch's
    /// state expression) or run a session strategy.
    pub fn explain_query(&self, q: &Query, strategy: Strategy) -> Result<String, EngineError> {
        check_query(q, self.state.catalog())?;
        let (p, phys) = self.plan_physical(q, strategy)?;
        let mut out = String::new();
        use std::fmt::Write;
        let _ = writeln!(out, "query: {q}");
        // `Plan`'s Display covers strategy, candidates, and both rewrite
        // traces (EQUIV_when + RA).
        let _ = writeln!(out, "{p}");
        let _ = writeln!(out, "physical plan:");
        out.push_str(&phys.render(None));
        Ok(out)
    }

    /// `EXPLAIN ANALYZE`: run the query through the pipelined executor
    /// with full instrumentation and render the physical plan with
    /// per-operator rows-in/rows-out and exclusive elapsed time.
    pub fn explain_analyze(&self, src: &str) -> Result<String, EngineError> {
        let q = self.prepare(src)?;
        self.explain_analyze_query(&q, Strategy::Auto)
    }

    /// AST form of [`Database::explain_analyze`] under a given strategy,
    /// for callers that wrap queries before planning (e.g. a what-if
    /// branch) or run a session strategy.
    pub fn explain_analyze_query(
        &self,
        q: &Query,
        strategy: Strategy,
    ) -> Result<String, EngineError> {
        check_query(q, self.state.catalog())?;
        let (p, phys) = self.plan_physical(q, strategy)?;
        let (rel, metrics) = phys.execute_analyze(&self.state)?;
        Ok(Self::render_analyze(&p, &phys, &metrics, rel.len()))
    }

    fn render_analyze(p: &Plan, phys: &PhysPlan, metrics: &ExecMetrics, rows: usize) -> String {
        let mut out = String::new();
        use std::fmt::Write;
        let _ = writeln!(
            out,
            "strategy: {} (est. cost {:.1})",
            p.strategy, p.est_cost
        );
        let _ = writeln!(out, "physical plan (analyzed):");
        out.push_str(&phys.render(Some(metrics)));
        let _ = writeln!(
            out,
            "result: {rows} row(s); operators: {}; total operator time: {:?}",
            metrics.len(),
            metrics.total_elapsed()
        );
        out
    }

    /// Parse, type-check, and apply an update to the **real** state,
    /// with hypothetical constraint checking first (§1's integrity
    /// maintenance application): each constraint is evaluated
    /// `when {U}` — if any would be violated, the update is rejected and
    /// the state unchanged.
    pub fn execute_update(&mut self, src: &str) -> Result<(), EngineError> {
        let u = parse_update_named(src, self.state.catalog())?;
        self.apply_update(&u)
    }

    /// AST form of [`Database::execute_update`].
    pub fn apply_update(&mut self, u: &Update) -> Result<(), EngineError> {
        check_update(u, self.state.catalog())?;
        // `U` is evaluated once. Each check `C when {U}` runs `C`'s own
        // plan with the relations `U` writes bound to their next values,
        // so no constraint derives `U` again.
        let next = eval_update(u, &self.state)?;
        let mut written = XsubValue::empty();
        for name in dom_update(u) {
            let rel = next.get(&name)?;
            written.bind(name, rel);
        }
        for (name, c) in &self.constraints {
            let violations = self.execute_under_xsub(&c.violation_query, &written)?;
            if !violations.is_empty() {
                return Err(EngineError::ConstraintViolation {
                    constraint: name.clone(),
                    violations: violations.len(),
                });
            }
        }
        self.state = next;
        Ok(())
    }

    /// Serialize the current state (catalog + data) to the plain-text
    /// dump format of `hypoquery_storage::dump`.
    pub fn dump(&self) -> String {
        hypoquery_storage::dump_state(&self.state)
    }

    /// Restore a database from a plain-text dump. Constraints are not part
    /// of the dump and start empty.
    pub fn restore(dump: &str) -> Result<Database, EngineError> {
        let state = hypoquery_storage::load_state(dump).map_err(|e| {
            EngineError::Parse(hypoquery_parser::ParseError {
                offset: e.line,
                message: e.to_string(),
            })
        })?;
        Ok(Database {
            state,
            constraints: BTreeMap::new(),
        })
    }
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

/// Type-check `q`, after checking without recursion that its syntax tree
/// is at most [`MAX_DEPTH`] levels high: every later walk recurses once
/// per level. The parser bounds each source it reads, but a query run on
/// a what-if branch is wrapped in one `#` per update stacked on the
/// branch, so it is measured again here.
fn check_query(q: &Query, catalog: &Catalog) -> Result<usize, EngineError> {
    let h = height(q);
    if h > MAX_DEPTH {
        return Err(too_deep_error(format!("query is {h} levels deep")));
    }
    Ok(arity_of(q, catalog)?)
}

/// The error for input past [`MAX_DEPTH`]: a parse error, like the
/// parser's own, naming the limit after `what` was found.
pub(crate) fn too_deep_error(what: String) -> EngineError {
    EngineError::Parse(ParseError {
        offset: 0,
        message: format!("{what}: {}", too_deep()),
    })
}

/// Render a relation as an aligned text table under the given column
/// names (None = anonymous, shown as `#i`). [`Database::query_table`]
/// is the root-state convenience; callers evaluating in a hypothetical
/// branch can pair [`Database::output_attrs`] with any [`Relation`].
pub fn render_table(attrs: &[Option<String>], rel: &Relation) -> String {
    let headers: Vec<String> = attrs
        .iter()
        .enumerate()
        .map(|(i, a)| a.clone().unwrap_or_else(|| format!("#{i}")))
        .collect();
    let mut rows: Vec<Vec<String>> = vec![headers];
    for t in rel.iter() {
        rows.push(t.fields().iter().map(|v| v.to_string()).collect());
    }
    let ncols = rows[0].len();
    let mut widths = vec![0usize; ncols];
    for row in &rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for (ri, row) in rows.iter().enumerate() {
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{cell:<w$}", w = widths[i]));
        }
        out.push('\n');
        if ri == 0 {
            for (i, w) in widths.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(&"-".repeat(*w));
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypoquery_storage::tuple;

    fn db() -> Database {
        let mut db = Database::new();
        db.define("emp", 2).unwrap(); // (id, salary)
        db.define("dept", 2).unwrap(); // (id, dept)
        db.load("emp", [tuple![1, 100], tuple![2, 200], tuple![3, 300]])
            .unwrap();
        db.load("dept", [tuple![1, 10], tuple![2, 20]]).unwrap();
        db
    }

    #[test]
    fn define_load_query() {
        let db = db();
        let out = db.query("select #1 >= 200 (emp)").unwrap();
        assert_eq!(out.len(), 2);
        let out = db.query("emp join dept on #0 = #2").unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn databases_count_index_traffic_independently() {
        let (mut a, mut b) = (db(), db());
        a.create_index("emp", 0).unwrap();
        b.create_index("emp", 0).unwrap();
        assert_eq!(a.query("select #0 = 2 (emp)").unwrap().len(), 1);
        assert_eq!(a.query("select #0 = 3 (emp)").unwrap().len(), 1);
        let want = IndexCounters {
            hits: 1,
            misses: 1,
            builds: 1,
        };
        assert_eq!(a.index_counters(), want);
        assert_eq!(b.index_counters(), IndexCounters::default());
        // A clone (a server session, a branch) counts into the same handle,
        // and so does a redefined catalog.
        let mut session = a.clone();
        session.define("extra", 1).unwrap();
        session.query("select #0 = 1 (emp)").unwrap();
        assert_eq!(a.index_counters().hits, 2);
    }

    #[test]
    fn explain_shows_the_scanned_range() {
        let db = db();
        let s = db.explain("select #0 >= 2 and #1 < 300 (emp)").unwrap();
        assert!(s.contains("Scan emp [#0 >= 2]"), "{s}");
        assert!(s.contains("Filter [(#0 >= 2 and #1 < 300)]"), "{s}");
    }

    #[test]
    fn hypothetical_queries_do_not_mutate() {
        let db = db();
        db.query("emp when {delete from emp (emp)}").unwrap();
        assert_eq!(db.query("emp").unwrap().len(), 3);
    }

    #[test]
    fn real_updates_mutate() {
        let mut db = db();
        db.execute_update("insert into emp (row(4, 400))").unwrap();
        assert_eq!(db.query("emp").unwrap().len(), 4);
        db.execute_update("delete from emp (select #1 < 250 (emp))")
            .unwrap();
        assert_eq!(db.query("emp").unwrap().len(), 2);
    }

    #[test]
    fn constraints_reject_bad_updates_hypothetically() {
        let mut db = db();
        // No employee may earn more than 500.
        db.add_constraint("salary_cap", "select #1 > 500 (emp)")
            .unwrap();
        // OK update passes.
        db.execute_update("insert into emp (row(4, 400))").unwrap();
        // Violating update is rejected and state unchanged.
        let err = db
            .execute_update("insert into emp (row(5, 900))")
            .unwrap_err();
        match err {
            EngineError::ConstraintViolation {
                constraint,
                violations,
            } => {
                assert_eq!(constraint, "salary_cap");
                assert_eq!(violations, 1);
            }
            other => panic!("expected violation, got {other}"),
        }
        assert_eq!(db.query("emp").unwrap().len(), 4);
        // Duplicate constraint names are rejected.
        assert!(matches!(
            db.add_constraint("salary_cap", "emp"),
            Err(EngineError::DuplicateName(_))
        ));
    }

    /// A constrained update evaluates its steps once. Planned as one
    /// query, `C when {U}` re-derives `U`, and its lazy candidate doubles
    /// with each step that reads what an earlier one wrote.
    #[test]
    fn long_constrained_update_commits() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut db = Database::new();
            db.define("R", 2).unwrap();
            db.load("R", (0..200).map(|i| tuple![i, i])).unwrap();
            db.add_constraint("nonneg", "select #1 < 0 (R)").unwrap();
            let steps: Vec<String> = (0..40)
                .map(|i| format!("delete from R (select #0 = {i} (R))"))
                .collect();
            db.execute_update(&steps.join("; ")).unwrap();
            tx.send(db.query("R").unwrap().len()).unwrap();
        });
        let left = rx.recv_timeout(std::time::Duration::from_secs(10));
        assert_eq!(left, Ok(160));
    }

    #[test]
    fn type_errors_surface() {
        let mut db = db();
        assert!(matches!(
            db.query("emp union nope"),
            Err(EngineError::Type(_))
        ));
        assert!(matches!(
            db.query("emp union ("),
            Err(EngineError::Parse(_))
        ));
        assert!(db
            .execute_update("insert into emp (dept join dept on true)")
            .is_err());
    }

    #[test]
    fn keyword_relation_names_rejected() {
        let mut db = Database::new();
        assert!(db.define("when", 1).is_err());
    }

    #[test]
    fn named_schema_end_to_end() {
        let mut db = Database::new();
        db.define_named("emp", ["id", "salary"]).unwrap();
        db.define_named("dept", ["emp_id", "dept_id"]).unwrap();
        db.load("emp", [tuple![1, 100], tuple![2, 200]]).unwrap();
        db.load("dept", [tuple![2, 10]]).unwrap();
        // Named predicates in queries, joins, updates, constraints.
        let out = db.query("select salary >= 200 (emp)").unwrap();
        assert_eq!(out.len(), 1);
        let out = db.query("emp join dept on id = emp_id").unwrap();
        assert_eq!(out.len(), 1);
        db.add_constraint("cap", "select salary > 1000 (emp)")
            .unwrap();
        db.execute_update("insert into emp (row(3, 300))").unwrap();
        assert!(db.execute_update("insert into emp (row(4, 2000))").is_err());
        // Hypothetical with named columns.
        let out = db
            .query("select salary >= 200 (emp) when {delete from emp (select id = 2 (emp))}")
            .unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn dump_restore_roundtrip() {
        let mut db = Database::new();
        db.define_named("emp", ["id", "salary"]).unwrap();
        db.load("emp", [tuple![1, 100], tuple![2, 200]]).unwrap();
        let text = db.dump();
        let back = Database::restore(&text).unwrap();
        assert_eq!(back.query("emp").unwrap(), db.query("emp").unwrap());
        // Named columns survive the roundtrip.
        assert_eq!(back.query("select salary >= 200 (emp)").unwrap().len(), 1);
        assert!(Database::restore("relation R nope").is_err());
    }

    #[test]
    fn query_table_renders_headers() {
        let mut db = Database::new();
        db.define_named("emp", ["id", "salary"]).unwrap();
        db.load("emp", [tuple![1, 100]]).unwrap();
        let table = db.query_table("emp").unwrap();
        assert!(table.contains("id"), "{table}");
        assert!(table.contains("salary"), "{table}");
        assert!(table.contains("100"), "{table}");
        // Anonymous columns fall back to positions.
        let table = db
            .query_table("aggregate [; count] (emp) times project 0 (emp)")
            .unwrap();
        assert!(table.contains("count"), "{table}");
    }

    #[test]
    fn explain_mentions_strategy() {
        let db = db();
        let s = db
            .explain("emp when {insert into emp (select #1 > 100 (emp))}")
            .unwrap();
        assert!(s.contains("strategy:"), "{s}");
        assert!(s.contains("candidate"), "{s}");
        // The lowered operator tree and the Fig. 1 rewrite path are part
        // of EXPLAIN now.
        assert!(s.contains("physical plan:"), "{s}");
        assert!(s.contains("Scan emp") || s.contains("DeltaApply") || s.contains("XsubRebind"));
        assert!(s.contains("EQUIV_when rewrites:"), "{s}");
    }

    #[test]
    fn explain_analyze_reports_per_operator_rows_and_time() {
        let db = db();
        let s = db
            .explain_analyze("emp when {insert into emp (select #1 > 100 (emp))}")
            .unwrap();
        assert!(s.contains("physical plan (analyzed):"), "{s}");
        assert!(s.contains("rows in="), "{s}");
        assert!(s.contains("time="), "{s}");
        assert!(s.contains("result:"), "{s}");
    }

    #[test]
    fn all_strategies_match_legacy_oracle_on_examples() {
        let db = db();
        let sources = [
            "emp",
            "select #1 > 100 (emp)",
            "emp when {insert into emp (select #1 > 100 (emp))}",
            "emp when {delete from emp (select #0 = 1 (emp))}",
            "(emp join dept on #0 = #2) when {insert into dept (row(3, 30))} \
             when {delete from emp (select #1 > 250 (emp))}",
            "(emp when {delete from emp (select #0 = 1 (emp))}) \
             union (emp when {insert into emp (row(4, 400))})",
        ];
        for src in sources {
            let q = db.prepare(src).unwrap();
            // The reference is the direct evaluator on the unplanned query,
            // independent of every form the planner builds.
            let expected = hypoquery_eval::eval_query(&q, db.state()).unwrap();
            // A fixed strategy runs the planner's candidate of the planned
            // strategy it maps to; Auto may pick any candidate.
            for (strat, planned) in [
                (Strategy::Auto, ""),
                (Strategy::Lazy, "lazy "),
                (Strategy::Hql2, "eager-xsub "),
                (Strategy::Delta, "eager-delta "),
            ] {
                let text = db.explain_query(&q, strat).unwrap();
                let named = text.contains(&format!("strategy: {planned}"));
                assert!(named, "{src} under {strat}:\n{text}");
                let got = db.execute(&q, strat).unwrap();
                assert_eq!(got, expected, "{src} under {strat}");
                // EXPLAIN's plan line is HQL that runs to the same rows.
                let plan = text.lines().find_map(|l| l.strip_prefix("plan: ")).unwrap();
                let replayed = db.query_with(plan, strat).unwrap();
                assert_eq!(replayed, expected, "{src} under {strat}: plan {plan}");
                let stats = Statistics::of(db.state());
                let plan = db.plan_with(&q, strat, &stats).unwrap();
                let legacy = plan.execute_legacy(db.state()).unwrap();
                assert_eq!(legacy, expected, "{src} under {strat}");
            }
        }
        // The two-`when` join keeps two rows.
        assert_eq!(db.query(sources[4]).unwrap().len(), 2);
    }

    #[test]
    fn strategy_parses_its_display_names() {
        for s in [
            Strategy::Auto,
            Strategy::Lazy,
            Strategy::Hql2,
            Strategy::Delta,
        ] {
            assert_eq!(s.to_string().parse::<Strategy>().unwrap(), s);
            assert_eq!(s.to_string().to_uppercase().parse::<Strategy>().unwrap(), s);
        }
        assert_eq!("HQL1".parse::<Strategy>().unwrap(), Strategy::Hql2);
        assert!(matches!(
            "eager".parse::<Strategy>(),
            Err(EngineError::UnknownName(_))
        ));
    }

    #[test]
    fn index_lifecycle_and_errors() {
        let mut db = db();
        assert!(db.create_index("emp", 0).unwrap());
        assert!(!db.create_index("emp", 0).unwrap()); // idempotent
        assert_eq!(db.indexed_columns("emp"), vec![0]);
        // Queries are unchanged by the physical access path, across all
        // strategies.
        let q = "(select #0 = 2 (emp) join dept on #0 = #2) \
                 when {insert into emp (row(9, 900))}";
        let expected = db.query_with(q, Strategy::Lazy).unwrap();
        for s in [Strategy::Auto, Strategy::Hql2, Strategy::Delta] {
            assert_eq!(db.query_with(q, s).unwrap(), expected, "strategy {s}");
        }
        assert!(db.drop_index("emp", 0).unwrap());
        assert!(!db.drop_index("emp", 0).unwrap());
        // Unknown relation / out-of-range column are errors both ways.
        assert!(matches!(
            db.create_index("nope", 0),
            Err(EngineError::Storage(_))
        ));
        assert!(matches!(
            db.create_index("emp", 2),
            Err(EngineError::Storage(_))
        ));
        assert!(matches!(
            db.drop_index("nope", 0),
            Err(EngineError::Storage(_))
        ));
        assert!(matches!(
            db.drop_index("emp", 2),
            Err(EngineError::Storage(_))
        ));
    }

    #[test]
    fn define_preserves_index_declarations() {
        let mut db = db();
        db.create_index("emp", 1).unwrap();
        db.define("extra", 1).unwrap();
        assert_eq!(db.indexed_columns("emp"), vec![1]);
    }

    #[test]
    fn delta_strategy_errors_without_mod_enf() {
        let db = db();
        let q = "emp when {select #1 > 100 (emp) / emp}";
        assert!(matches!(
            db.query_with(q, Strategy::Delta),
            Err(EngineError::Enf(_))
        ));
        // But Auto handles it fine.
        assert!(db.query_with(q, Strategy::Auto).is_ok());
    }
}
