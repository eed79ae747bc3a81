//! Per-connection session state and verb dispatch.
//!
//! Every connection owns a **copy-on-write snapshot** of the server's
//! base [`Database`] (a `clone` is pointer bumps — see PR 1's shared
//! storage), plus a [`WhatIfTree`] of named what-if branches, a registry
//! of [`PreparedState`]s, and an evaluation [`Strategy`]. Nothing here is
//! shared between sessions, so concurrent clients get isolation for free
//! and no verb ever takes a lock.
//!
//! The session's view of the world:
//!
//! * `SWITCH <branch>` selects a branch; `QUERY`/`TABLE`/`EXPLAIN` then
//!   evaluate in that branch's hypothetical state (`Q when η_path`),
//!   under the session's `STRATEGY`.
//! * `UPDATE` at the root applies a real, constraint-checked update to
//!   the session snapshot. `UPDATE` *on a branch* stays hypothetical: it
//!   stacks an auto-named child branch and switches to it, so an analyst
//!   can keep typing updates and watch a scenario evolve without ever
//!   touching the base data.
//! * A root `UPDATE` or any `LOAD` changes the session's real data, so
//!   both drop every `PREPARE`d materialization.

use std::collections::BTreeMap;

use hypoquery_engine::{
    parse_rows, render_table, Database, EngineError, PreparedState, Query, Strategy, WhatIfTree,
};

use crate::proto::{Reply, Request, Verb, WireError};

/// What the connection loop should do after a reply.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Control {
    /// Keep serving this connection.
    Continue,
    /// Close this connection (`BYE`, fatal framing errors).
    Close,
    /// Close this connection and stop the whole server (`SHUTDOWN`).
    Shutdown,
}

/// One connection's isolated state.
pub struct Session {
    db: Database,
    tree: WhatIfTree,
    current: Option<String>,
    prepared: BTreeMap<String, PreparedState>,
    strategy: Strategy,
    anon: usize,
}

impl Session {
    /// Start a session over a snapshot of the server's base database.
    pub fn new(db: Database) -> Session {
        Session {
            db,
            tree: WhatIfTree::new(),
            current: None,
            prepared: BTreeMap::new(),
            strategy: Strategy::Auto,
            anon: 0,
        }
    }

    /// The session's database (tests, in-process fallbacks).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The currently selected branch, if any.
    pub fn current_branch(&self) -> Option<&str> {
        self.current.as_deref()
    }

    /// Dispatch one request. `STATS` is server-scoped and handled by the
    /// caller; it answers with a protocol error here.
    pub fn handle(&mut self, req: &Request) -> (Reply, Control) {
        let reply = match req.verb {
            Verb::Ping => Ok(Reply::Ok("pong".into())),
            Verb::Query => self.query(req),
            Verb::Table => self.table(req),
            Verb::Update => self.update(req),
            Verb::Explain => self.explain(req),
            Verb::Define => self.define(req),
            Verb::Load => self.load(req),
            Verb::Constraint => self.constraint(req),
            Verb::Branch => self.branch(req),
            Verb::Switch => self.switch(req),
            Verb::Drop => self.drop_branch(req),
            Verb::Branches => Ok(self.branches()),
            Verb::Prepare => self.prepare(req),
            Verb::Exec => self.exec(req),
            Verb::Strategy => self.set_strategy(req),
            Verb::Schema => Ok(self.schema()),
            Verb::Dump => Ok(Reply::Text(self.db.dump())),
            Verb::Restore => self.restore(req),
            Verb::Index => self.create_index(req),
            Verb::Unindex => self.drop_index(req),
            Verb::Stats => Err(WireError::proto("STATS is handled by the server")),
            Verb::Bye => return (Reply::ok(), Control::Close),
            Verb::Shutdown => return (Reply::ok(), Control::Shutdown),
        };
        match reply {
            Ok(r) => (r, Control::Continue),
            Err(e) => (Reply::Err(e), Control::Continue),
        }
    }

    /// Parse `src` once and scope it to the current branch: `Q when η_path`
    /// on a branch, `Q` itself at the root. QUERY, TABLE and EXPLAIN all
    /// run what this returns under the session's strategy; the engine
    /// type-checks it there.
    fn scoped(&self, src: &str) -> Result<Query, EngineError> {
        let q = self.db.parse(src)?;
        match &self.current {
            Some(b) => Ok(q.when(self.tree.state_of(b)?)),
            None => Ok(q),
        }
    }

    /// The real data changed (a root `UPDATE`, a `LOAD`): prepared
    /// materializations are stale, and `EXEC` answers lazily from the
    /// current data from now on.
    fn data_changed(&mut self) {
        for p in self.prepared.values_mut() {
            p.invalidate();
        }
    }

    fn query(&self, req: &Request) -> Result<Reply, WireError> {
        let q = self.scoped(&req.source())?;
        Ok(Reply::Rows(self.db.execute(&q, self.strategy)?))
    }

    fn table(&self, req: &Request) -> Result<Reply, WireError> {
        let q = self.scoped(&req.source())?;
        let rel = self.db.execute(&q, self.strategy)?;
        // Headers look through `when`: they are the surface query's.
        let attrs = self.db.output_attrs(&q)?;
        let text = render_table(&attrs, &rel);
        Ok(Reply::Text(text.trim_end().to_string()))
    }

    fn update(&mut self, req: &Request) -> Result<Reply, WireError> {
        let src = req.source();
        match self.current.clone() {
            None => {
                self.db.execute_update(&src)?;
                self.data_changed();
                Ok(Reply::ok())
            }
            Some(cur) => {
                // Hypothetical: stack an auto-named child branch.
                let name = loop {
                    self.anon += 1;
                    let cand = format!("{cur}+{}", self.anon);
                    if !self.tree.contains(&cand) {
                        break cand;
                    }
                };
                self.tree.branch(&self.db, &name, Some(&cur), &src)?;
                self.current = Some(name.clone());
                Ok(Reply::Ok(format!("branch {name}")))
            }
        }
    }

    fn explain(&self, req: &Request) -> Result<Reply, WireError> {
        let src = req.source();
        // `EXPLAIN ANALYZE <hql>` rides on the same verb: a leading
        // ANALYZE keyword (case-insensitive) switches to instrumented
        // execution with per-operator rows/elapsed.
        let (analyze, src) = match src.trim_start().split_once(char::is_whitespace) {
            Some((kw, rest)) if kw.eq_ignore_ascii_case("ANALYZE") => {
                (true, rest.trim().to_string())
            }
            _ => (false, src),
        };
        // EXPLAIN plans the way QUERY runs.
        let q = self.scoped(&src)?;
        Ok(Reply::Text(if analyze {
            self.db.explain_analyze_query(&q, self.strategy)?
        } else {
            self.db.explain_query(&q, self.strategy)?
        }))
    }

    fn define(&mut self, req: &Request) -> Result<Reply, WireError> {
        let (name, spec) = req
            .args
            .split_once(char::is_whitespace)
            .ok_or_else(|| WireError::proto("usage: DEFINE <name> <arity | attr,attr,...>"))?;
        let (name, spec) = (name.trim(), spec.trim());
        if let Ok(arity) = spec.parse::<usize>() {
            self.db.define(name, arity)
        } else {
            self.db.define_named(name, spec.split(',').map(str::trim))
        }?;
        Ok(Reply::ok())
    }

    fn load(&mut self, req: &Request) -> Result<Reply, WireError> {
        let (name, inline) = match req.args.split_once(char::is_whitespace) {
            Some((n, rest)) => (n.trim(), rest.trim()),
            None => (req.args.trim(), ""),
        };
        if name.is_empty() {
            return Err(WireError::proto("usage: LOAD <name> [(v, ...) ...]"));
        }
        // Rows arrive inline as HQL row literals and/or as dump-format
        // body lines (the client's bulk path).
        let mut rows = parse_rows(inline).map_err(|e| WireError::proto(e.to_string()))?;
        for (i, line) in req.body.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            rows.push(
                hypoquery_storage::decode_tuple(line, i + 1)
                    .map_err(|e| WireError::proto(e.to_string()))?,
            );
        }
        let n = rows.len();
        self.db.load(name, rows)?;
        self.data_changed();
        Ok(Reply::Ok(format!("loaded {n}")))
    }

    fn constraint(&mut self, req: &Request) -> Result<Reply, WireError> {
        // `CONSTRAINT <name>` with the violation query in the args tail
        // or the body.
        let (name, src) = req.named_source();
        if name.is_empty() || src.is_empty() {
            return Err(WireError::proto(
                "usage: CONSTRAINT <name> <violation query>",
            ));
        }
        self.db.add_constraint(name, &src)?;
        Ok(Reply::ok())
    }

    fn branch(&mut self, req: &Request) -> Result<Reply, WireError> {
        // `BRANCH <name> [FROM <parent>]`, update source in the body.
        let mut parts = req.args.split_whitespace();
        let name = parts
            .next()
            .ok_or_else(|| WireError::proto("usage: BRANCH <name> [FROM <parent>] + body"))?;
        let parent = match (parts.next().map(str::to_ascii_uppercase), parts.next()) {
            (None, _) => self.current.clone(),
            (Some(kw), Some(p)) if kw == "FROM" => Some(p.to_string()),
            _ => {
                return Err(WireError::proto(
                    "usage: BRANCH <name> [FROM <parent>] + body",
                ))
            }
        };
        if parts.next().is_some() {
            return Err(WireError::proto(
                "usage: BRANCH <name> [FROM <parent>] + body",
            ));
        }
        if req.body.trim().is_empty() {
            return Err(WireError::proto("BRANCH needs an update in the body"));
        }
        self.tree
            .branch(&self.db, name, parent.as_deref(), req.body.trim())?;
        Ok(Reply::ok())
    }

    fn switch(&mut self, req: &Request) -> Result<Reply, WireError> {
        let target = req.args.trim();
        if target.is_empty() {
            return Err(WireError::proto("usage: SWITCH <branch | ->"));
        }
        if target == "-" || target.eq_ignore_ascii_case("root") {
            self.current = None;
            return Ok(Reply::Ok("at root".into()));
        }
        if !self.tree.contains(target) {
            return Err(EngineError::UnknownName(target.to_string()).into());
        }
        self.current = Some(target.to_string());
        Ok(Reply::Ok(format!("at {target}")))
    }

    fn drop_branch(&mut self, req: &Request) -> Result<Reply, WireError> {
        let name = req.args.trim();
        if name.is_empty() {
            return Err(WireError::proto("usage: DROP <branch>"));
        }
        let removed = self.tree.drop_branch(name)?;
        if let Some(cur) = &self.current {
            if removed.contains(cur) {
                self.current = None;
            }
        }
        Ok(Reply::Ok(format!("dropped {}", removed.len())))
    }

    fn branches(&self) -> Reply {
        let mut out = String::new();
        for name in self.tree.branch_names() {
            let marker = if self.current.as_deref() == Some(name) {
                '*'
            } else {
                ' '
            };
            let parent = self.tree.parent_of(name).ok().flatten().unwrap_or("-");
            out.push_str(&format!("{marker}{name}\t{parent}\n"));
        }
        Reply::Text(out.trim_end().to_string())
    }

    fn prepare(&mut self, req: &Request) -> Result<Reply, WireError> {
        let name = req.args.trim();
        if name.is_empty() || req.body.trim().is_empty() {
            return Err(WireError::proto(
                "usage: PREPARE <name> + state expression body",
            ));
        }
        if self.prepared.contains_key(name) {
            return Err(EngineError::DuplicateName(name.to_string()).into());
        }
        let mut p = PreparedState::parse(&self.db, req.body.trim())?;
        // Eager by default: Example 2.2's repeated-family use is the
        // whole point of PREPARE.
        p.materialize(&self.db)?;
        self.prepared.insert(name.to_string(), p);
        Ok(Reply::ok())
    }

    fn exec(&mut self, req: &Request) -> Result<Reply, WireError> {
        let (name, src) = req.named_source();
        if name.is_empty() || src.is_empty() {
            return Err(WireError::proto("usage: EXEC <name> <query>"));
        }
        let p = self
            .prepared
            .get(name)
            .ok_or_else(|| EngineError::UnknownName(name.to_string()))?;
        Ok(Reply::Rows(p.query_src(&self.db, &src)?))
    }

    fn set_strategy(&mut self, req: &Request) -> Result<Reply, WireError> {
        let s: Strategy = req.args.parse()?;
        self.strategy = s;
        Ok(Reply::Ok(format!("strategy {s}")))
    }

    fn restore(&mut self, req: &Request) -> Result<Reply, WireError> {
        if req.body.trim().is_empty() {
            return Err(WireError::proto("usage: RESTORE + dump body"));
        }
        let mut db = Database::restore(&req.body)?;
        // The restored database stands in for the old one, so `STATS`
        // keeps counting its index traffic.
        db.share_index_stats(&self.db);
        // Branches and prepared states reference the old catalog.
        self.db = db;
        self.tree = WhatIfTree::new();
        self.current = None;
        self.prepared.clear();
        Ok(Reply::ok())
    }

    /// Parse `<relation> <column>` where the column is a position or (for
    /// named schemas) an attribute name.
    fn index_args(&self, args: &str, usage: &'static str) -> Result<(String, usize), WireError> {
        let mut parts = args.split_whitespace();
        let (Some(name), Some(col), None) = (parts.next(), parts.next(), parts.next()) else {
            return Err(WireError::proto(usage));
        };
        let col = match col.parse::<usize>() {
            Ok(c) => c,
            Err(_) => self
                .db
                .catalog()
                .schema(&name.into())
                .and_then(|s| s.attrs.as_ref())
                .and_then(|attrs| attrs.iter().position(|a| a == col))
                .ok_or_else(|| WireError::proto(format!("unknown column {col:?}")))?,
        };
        Ok((name.to_string(), col))
    }

    fn create_index(&mut self, req: &Request) -> Result<Reply, WireError> {
        let (name, col) = self.index_args(&req.args, "usage: INDEX <relation> <column>")?;
        let fresh = self.db.create_index(&name, col)?;
        Ok(Reply::Ok(if fresh {
            format!("index {name}.{col}")
        } else {
            format!("index {name}.{col} (already declared)")
        }))
    }

    fn drop_index(&mut self, req: &Request) -> Result<Reply, WireError> {
        let (name, col) = self.index_args(&req.args, "usage: UNINDEX <relation> <column>")?;
        let existed = self.db.drop_index(&name, col)?;
        Ok(Reply::Ok(if existed {
            format!("dropped index {name}.{col}")
        } else {
            format!("no index {name}.{col}")
        }))
    }

    fn schema(&self) -> Reply {
        let mut out = String::new();
        for (name, schema) in self.db.catalog().iter() {
            out.push_str(name.as_str());
            out.push('/');
            out.push_str(&schema.arity.to_string());
            if let Some(attrs) = &schema.attrs {
                out.push(' ');
                out.push_str(&attrs.join(","));
            }
            out.push('\n');
        }
        Reply::Text(out.trim_end().to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ErrCode;
    use hypoquery_engine::MAX_DEPTH;
    use hypoquery_storage::{tuple, Relation, Tuple};

    fn req(line: &str, body: &str) -> Request {
        let mut payload = line.to_string();
        if !body.is_empty() {
            payload.push('\n');
            payload.push_str(body);
        }
        Request::decode(payload.as_bytes()).unwrap()
    }

    fn ok(s: &mut Session, line: &str, body: &str) -> Reply {
        let (reply, ctl) = s.handle(&req(line, body));
        assert_eq!(ctl, Control::Continue, "{line}");
        if let Reply::Err(e) = &reply {
            panic!("{line}: unexpected error {e}");
        }
        reply
    }

    fn err(s: &mut Session, line: &str, body: &str) -> WireError {
        match s.handle(&req(line, body)) {
            (Reply::Err(e), Control::Continue) => e,
            other => panic!("{line}: expected error, got {other:?}"),
        }
    }

    fn rows(r: Reply) -> usize {
        match r {
            Reply::Rows(rel) => rel.len(),
            other => panic!("expected rows, got {other:?}"),
        }
    }

    fn session() -> Session {
        let mut s = Session::new(Database::new());
        ok(&mut s, "DEFINE inv item,qty", "");
        ok(&mut s, "LOAD inv (1, 10) (2, 20) (3, 30)", "");
        s
    }

    #[test]
    fn define_load_query_update() {
        let mut s = session();
        assert_eq!(rows(ok(&mut s, "QUERY select qty >= 20 (inv)", "")), 2);
        ok(&mut s, "UPDATE insert into inv (row(4, 40))", "");
        assert_eq!(rows(ok(&mut s, "QUERY inv", "")), 4);
        // Body-borne rows (the client's bulk path).
        ok(&mut s, "LOAD inv", "5\t50\n6\t60");
        assert_eq!(rows(ok(&mut s, "QUERY inv", "")), 6);
    }

    #[test]
    fn branch_switch_query_drop() {
        let mut s = session();
        ok(
            &mut s,
            "BRANCH cut",
            "delete from inv (select qty < 15 (inv))",
        );
        ok(
            &mut s,
            "BRANCH restock FROM cut",
            "insert into inv (row(4, 40))",
        );
        assert_eq!(rows(ok(&mut s, "QUERY inv", "")), 3); // root untouched
        ok(&mut s, "SWITCH restock", "");
        assert_eq!(rows(ok(&mut s, "QUERY inv", "")), 3); // -1 +1
                                                          // Hypothetical UPDATE stacks a child branch.
        let note = match ok(&mut s, "UPDATE delete from inv (select qty > 35 (inv))", "") {
            Reply::Ok(n) => n,
            other => panic!("{other:?}"),
        };
        assert!(note.starts_with("branch restock+"), "{note}");
        assert_eq!(rows(ok(&mut s, "QUERY inv", "")), 2);
        // BRANCH with no FROM parents at the *current* branch.
        ok(&mut s, "BRANCH deeper", "insert into inv (row(9, 90))");
        ok(&mut s, "SWITCH deeper", "");
        assert_eq!(rows(ok(&mut s, "QUERY inv", "")), 3);
        // Root data never moved.
        ok(&mut s, "SWITCH -", "");
        assert_eq!(rows(ok(&mut s, "QUERY inv", "")), 3);
        // Dropping `cut` takes the whole subtree with it.
        let note = match ok(&mut s, "DROP cut", "") {
            Reply::Ok(n) => n,
            other => panic!("{other:?}"),
        };
        assert_eq!(note, "dropped 4");
        assert_eq!(err(&mut s, "SWITCH restock", "").code, ErrCode::Unknown);
    }

    #[test]
    fn dropping_current_branch_resets_to_root() {
        let mut s = session();
        ok(&mut s, "BRANCH b", "insert into inv (row(4, 40))");
        ok(&mut s, "SWITCH b", "");
        ok(&mut s, "DROP b", "");
        assert_eq!(s.current_branch(), None);
        assert_eq!(rows(ok(&mut s, "QUERY inv", "")), 3);
    }

    #[test]
    fn branches_listing_marks_current() {
        let mut s = session();
        ok(&mut s, "BRANCH a", "insert into inv (row(4, 40))");
        ok(&mut s, "BRANCH b FROM a", "insert into inv (row(5, 50))");
        ok(&mut s, "SWITCH b", "");
        let text = match ok(&mut s, "BRANCHES", "") {
            Reply::Text(t) => t,
            other => panic!("{other:?}"),
        };
        assert_eq!(text, " a\t-\n*b\ta");
    }

    #[test]
    fn prepare_exec_family() {
        let mut s = session();
        ok(
            &mut s,
            "PREPARE plan",
            "{delete from inv (select qty < 15 (inv))}",
        );
        assert_eq!(rows(ok(&mut s, "EXEC plan inv", "")), 2);
        // Matches the equivalent WHEN query.
        assert_eq!(
            rows(ok(
                &mut s,
                "QUERY inv when {delete from inv (select qty < 15 (inv))}",
                ""
            )),
            2
        );
        assert_eq!(
            err(&mut s, "PREPARE plan", "{insert into inv (row(7, 7))}").code,
            ErrCode::Duplicate
        );
        assert_eq!(err(&mut s, "EXEC nosuch inv", "").code, ErrCode::Unknown);
        // A real update invalidates the materialization but EXEC still
        // answers (lazily) against fresh data.
        ok(&mut s, "UPDATE insert into inv (row(4, 5))", "");
        assert_eq!(rows(ok(&mut s, "EXEC plan inv", "")), 2); // 5 < 15 deleted

        // So does a LOAD: `again`, materialized before it, sees the new row.
        ok(
            &mut s,
            "PREPARE again",
            "{delete from inv (select qty < 15 (inv))}",
        );
        ok(&mut s, "LOAD inv (5, 50)", "");
        assert_eq!(rows(ok(&mut s, "EXEC again inv", "")), 3);
        assert_eq!(
            rows(ok(
                &mut s,
                "QUERY inv when {delete from inv (select qty < 15 (inv))}",
                ""
            )),
            3
        );
    }

    #[test]
    fn explain_works_on_branches_too() {
        let mut s = session();
        let t = match ok(&mut s, "EXPLAIN inv when {delete from inv (inv)}", "") {
            Reply::Text(t) => t,
            other => panic!("{other:?}"),
        };
        assert!(t.contains("strategy:"), "{t}");
        ok(
            &mut s,
            "BRANCH b",
            "delete from inv (select qty > 15 (inv))",
        );
        ok(&mut s, "SWITCH b", "");
        let t = match ok(&mut s, "EXPLAIN inv", "") {
            Reply::Text(t) => t,
            other => panic!("{other:?}"),
        };
        assert!(t.contains("when"), "{t}");
    }

    #[test]
    fn explain_follows_the_session_strategy() {
        let mut s = session();
        let text = |s: &mut Session, line: &str| match ok(s, line, "") {
            Reply::Text(t) => t,
            other => panic!("{other:?}"),
        };
        let q = "inv when {delete from inv (select qty < 15 (inv))}";
        ok(&mut s, "STRATEGY delta", "");
        for verb in ["EXPLAIN", "EXPLAIN ANALYZE"] {
            let t = text(&mut s, &format!("{verb} {q}"));
            assert!(t.contains("strategy: eager-delta"), "{verb}: {t}");
        }
        // Eager-delta needs ENF, which an explicit substitution is not:
        // QUERY and TABLE refuse it alike.
        let xsub = "inv when {select qty > 15 (inv) / inv}";
        for verb in ["QUERY", "TABLE"] {
            let e = err(&mut s, &format!("{verb} {xsub}"), "");
            assert_eq!(e.code, ErrCode::Enf, "{verb}: {e}");
        }
        // On a branch too.
        ok(&mut s, "BRANCH b", "delete from inv (inv)");
        ok(&mut s, "SWITCH b", "");
        ok(&mut s, "STRATEGY hql2", "");
        for verb in ["EXPLAIN", "EXPLAIN ANALYZE"] {
            let t = text(&mut s, &format!("{verb} inv"));
            assert!(t.contains("strategy: eager-xsub"), "{verb}: {t}");
        }
        // `hql1` names the same eager strategy.
        let reply = ok(&mut s, "STRATEGY hql1", "");
        assert_eq!(reply, Reply::Ok("strategy hql2".into()));
    }

    #[test]
    fn explain_analyze_shows_operator_metrics() {
        let mut s = session();
        let t = match ok(
            &mut s,
            "EXPLAIN ANALYZE inv when {delete from inv (inv)}",
            "",
        ) {
            Reply::Text(t) => t,
            other => panic!("{other:?}"),
        };
        assert!(t.contains("physical plan (analyzed):"), "{t}");
        assert!(t.contains("rows in="), "{t}");
        assert!(t.contains("time="), "{t}");
        // Analyze also works on a branch, and the keyword is
        // case-insensitive.
        ok(
            &mut s,
            "BRANCH b",
            "delete from inv (select qty > 15 (inv))",
        );
        ok(&mut s, "SWITCH b", "");
        let t = match ok(&mut s, "EXPLAIN analyze inv", "") {
            Reply::Text(t) => t,
            other => panic!("{other:?}"),
        };
        assert!(t.contains("rows in="), "{t}");
    }

    #[test]
    fn strategy_schema_dump_ping() {
        let mut s = session();
        ok(&mut s, "STRATEGY lazy", "");
        assert_eq!(rows(ok(&mut s, "QUERY inv", "")), 3);
        assert_eq!(err(&mut s, "STRATEGY eager", "").code, ErrCode::Unknown);
        let t = match ok(&mut s, "SCHEMA", "") {
            Reply::Text(t) => t,
            other => panic!("{other:?}"),
        };
        assert_eq!(t, "inv/2 item,qty");
        let d = match ok(&mut s, "DUMP", "") {
            Reply::Text(t) => t,
            other => panic!("{other:?}"),
        };
        assert!(d.contains("relation inv 2 item,qty"), "{d}");
        assert!(matches!(ok(&mut s, "PING", ""), Reply::Ok(n) if n == "pong"));
    }

    #[test]
    fn engine_errors_become_structured_replies() {
        let mut s = session();
        assert_eq!(err(&mut s, "QUERY select (", "").code, ErrCode::Parse);
        assert_eq!(
            err(&mut s, "QUERY inv union nosuch", "").code,
            ErrCode::Type
        );
        assert_eq!(err(&mut s, "DEFINE inv 2", "").code, ErrCode::Storage);
        assert_eq!(
            err(&mut s, "BRANCH x FROM nope", "insert into inv (row(1, 1))").code,
            ErrCode::Unknown
        );
        assert_eq!(
            err(&mut s, "LOAD inv (bad literal)", "").code,
            ErrCode::Proto
        );
        assert_eq!(err(&mut s, "BRANCH", "").code, ErrCode::Proto);
        assert_eq!(err(&mut s, "STATS", "").code, ErrCode::Proto);
    }

    /// LOAD's inline rows are HQL row literals: strings holding `,`, `)`
    /// and the dump's escapes, negative integers and the 0-ary `()` load
    /// as written, and a malformed row is an error that loads nothing.
    #[test]
    fn load_reads_row_literals() {
        let mut s = Session::new(Database::new());
        ok(&mut s, "DEFINE t 3", "");
        ok(&mut s, "DEFINE z 0", "");
        ok(&mut s, "DEFINE e 4", "");
        ok(&mut s, r#"LOAD t (1, "a, b", true) (2, "c)", false)"#, "");
        ok(&mut s, "LOAD z ()", "");
        ok(&mut s, "LOAD z   ", "");
        let escapes = r#"("q\"uote", "back\\slash", "tab\tnew\nline", -9223372036854775808)"#;
        ok(
            &mut s,
            &format!("LOAD e {escapes} (-5, \"\", \"é\", +7)"),
            "",
        );
        for bad in [
            "(1, 2",
            "(nope)",
            "junk (1)",
            "(\"unterminated)",
            "(\"bad \\x\")",
        ] {
            assert_eq!(
                err(&mut s, &format!("LOAD t {bad}"), "").code,
                ErrCode::Proto
            );
        }
        let mut relation = |name: &str| match ok(&mut s, &format!("QUERY {name}"), "") {
            Reply::Rows(rel) => rel,
            other => panic!("expected rows, got {other:?}"),
        };
        let expect = |arity, rows: Vec<Tuple>| Relation::from_rows(arity, rows).unwrap();
        assert_eq!(
            relation("t"),
            expect(3, vec![tuple![1, "a, b", true], tuple![2, "c)", false]])
        );
        assert_eq!(relation("z"), expect(0, vec![Tuple::empty()]));
        assert_eq!(
            relation("e"),
            expect(
                4,
                vec![
                    tuple!["q\"uote", "back\\slash", "tab\tnew\nline", i64::MIN],
                    tuple![-5, "", "é", 7],
                ]
            )
        );
    }

    #[test]
    fn sum_overflow_is_an_err_reply() {
        let mut s = Session::new(Database::new());
        ok(&mut s, "DEFINE R k,v", "");
        ok(&mut s, "LOAD R (1, 9223372036854775807) (2, 1)", "");
        let e = err(&mut s, "QUERY aggregate [; sum 1] (R)", "");
        assert_eq!(e.code, ErrCode::Eval);
        assert!(e.to_string().contains("overflow"), "{e}");
        // The session is still usable.
        assert_eq!(rows(ok(&mut s, "QUERY aggregate [0; sum 1] (R)", "")), 2);
    }

    /// Run `f` on a thread with a server worker's stack: inputs are
    /// bounded to fit there, and a debug build needs more than a test
    /// thread's default stack to reach the limit.
    fn on_worker_stack(f: impl FnOnce() + Send + 'static) {
        std::thread::Builder::new()
            .stack_size(hypoquery_engine::MAX_DEPTH_STACK)
            .spawn(f)
            .unwrap()
            .join()
            .unwrap();
    }

    fn past_the_limit(e: &WireError) -> bool {
        e.code == ErrCode::Parse && e.message.contains(&format!("limit of {MAX_DEPTH} levels"))
    }

    #[test]
    fn parentheses_past_the_limit_are_a_parse_error() {
        on_worker_stack(|| {
            let mut s = session();
            let nest = |n| format!("QUERY {}inv{}", "(".repeat(n), ")".repeat(n));
            let e = err(&mut s, &nest(1000), "");
            assert!(past_the_limit(&e), "{e}");
            // The same session answers, nested parentheses included.
            assert_eq!(rows(ok(&mut s, &nest(300), "")), 3);
        });
    }

    #[test]
    fn union_chain_past_the_limit_is_a_parse_error() {
        on_worker_stack(|| {
            let mut s = session();
            let chain = |n| {
                (0..n).fold("QUERY inv".to_string(), |q, i| {
                    q + &format!(" union select #0 = {i} (inv)")
                })
            };
            let e = err(&mut s, &chain(3000), "");
            assert!(past_the_limit(&e), "{e}");
            assert_eq!(rows(ok(&mut s, &chain(400), "")), 3);
        });
    }

    #[test]
    fn branch_path_past_the_limit_is_a_parse_error() {
        on_worker_stack(|| {
            let mut s = session();
            ok(&mut s, "BRANCH b0", "insert into inv (row(9, 90))");
            ok(&mut s, "SWITCH b0", "");
            assert_eq!(rows(ok(&mut s, "QUERY inv", "")), 4);
            // Each hypothetical UPDATE stacks one more branch, until the
            // path would pass the limit (the loop is bounded on its own so
            // that a build without the limit still reaches the query).
            let mut path = 1;
            let mut refused = None;
            while refused.is_none() && path < 4 * MAX_DEPTH {
                match s.handle(&req("UPDATE delete from inv (row(9, 90))", "")).0 {
                    Reply::Ok(_) => path += 1,
                    Reply::Err(e) => refused = Some(e),
                    other => panic!("{other:?}"),
                }
            }
            // The deepest branch wraps a query past the limit.
            let e = err(&mut s, "QUERY inv", "");
            assert!(past_the_limit(&e), "{e}");
            let refused = refused.expect("an UPDATE past the limit is refused");
            assert!(past_the_limit(&refused), "{refused}");
            assert_eq!(path, MAX_DEPTH);
            // The same session still answers, at the root and on b0.
            ok(&mut s, "SWITCH -", "");
            assert_eq!(rows(ok(&mut s, "QUERY inv", "")), 3);
            ok(&mut s, "SWITCH b0", "");
            assert_eq!(rows(ok(&mut s, "QUERY inv", "")), 4);
        });
    }

    #[test]
    fn table_constraint_restore() {
        let mut s = session();
        let t = match ok(&mut s, "TABLE select qty >= 20 (inv)", "") {
            Reply::Text(t) => t,
            other => panic!("{other:?}"),
        };
        assert!(t.starts_with("item  qty"), "{t}");
        assert!(t.contains("3     30"), "{t}");
        // TABLE follows the current branch.
        ok(&mut s, "BRANCH b", "delete from inv (inv)");
        ok(&mut s, "SWITCH b", "");
        let t = match ok(&mut s, "TABLE inv", "") {
            Reply::Text(t) => t,
            other => panic!("{other:?}"),
        };
        assert_eq!(t.lines().count(), 2, "{t}"); // header + rule only
        ok(&mut s, "SWITCH -", "");
        // Constraints guard real updates from then on.
        ok(&mut s, "CONSTRAINT no_neg select qty < 0 (inv)", "");
        let e = err(&mut s, "UPDATE insert into inv (row(9, -1))", "");
        assert_eq!(e.code, ErrCode::Constraint, "{e}");
        assert_eq!(
            err(&mut s, "CONSTRAINT no_neg inv", "").code,
            ErrCode::Duplicate
        );
        // RESTORE swaps the whole database and clears branch state.
        let dump = match ok(&mut s, "DUMP", "") {
            Reply::Text(t) => t,
            other => panic!("{other:?}"),
        };
        ok(&mut s, "UPDATE delete from inv (inv)", "");
        ok(&mut s, "BRANCH stale", "insert into inv (row(8, 80))");
        ok(&mut s, "RESTORE", &dump);
        assert_eq!(rows(ok(&mut s, "QUERY inv", "")), 3);
        assert_eq!(err(&mut s, "SWITCH stale", "").code, ErrCode::Unknown);
        assert_eq!(err(&mut s, "RESTORE", "").code, ErrCode::Proto);
    }

    #[test]
    fn index_verbs_lifecycle_and_errors() {
        let mut s = session();
        // Named and positional column forms.
        assert!(matches!(
            ok(&mut s, "INDEX inv item", ""),
            Reply::Ok(n) if n == "index inv.0"
        ));
        assert!(matches!(
            ok(&mut s, "INDEX inv 0", ""),
            Reply::Ok(n) if n.contains("already declared")
        ));
        // Queries are unaffected by the access path.
        assert_eq!(rows(ok(&mut s, "QUERY select item = 2 (inv)", "")), 1);
        assert!(matches!(
            ok(&mut s, "UNINDEX inv 0", ""),
            Reply::Ok(n) if n == "dropped index inv.0"
        ));
        assert!(matches!(
            ok(&mut s, "UNINDEX inv 0", ""),
            Reply::Ok(n) if n == "no index inv.0"
        ));
        // Errors: unknown relation, out-of-range column, bad arg shapes.
        assert_eq!(err(&mut s, "INDEX nosuch 0", "").code, ErrCode::Storage);
        assert_eq!(err(&mut s, "INDEX inv 2", "").code, ErrCode::Storage);
        assert_eq!(err(&mut s, "UNINDEX nosuch 0", "").code, ErrCode::Storage);
        assert_eq!(err(&mut s, "UNINDEX inv 9", "").code, ErrCode::Storage);
        assert_eq!(err(&mut s, "INDEX inv", "").code, ErrCode::Proto);
        assert_eq!(err(&mut s, "INDEX inv nope", "").code, ErrCode::Proto);
        assert_eq!(err(&mut s, "INDEX inv 0 extra", "").code, ErrCode::Proto);
    }

    #[test]
    fn bye_and_shutdown_control_flow() {
        let mut s = session();
        assert_eq!(s.handle(&req("BYE", "")).1, Control::Close);
        assert_eq!(s.handle(&req("SHUTDOWN", "")).1, Control::Shutdown);
    }

    #[test]
    fn sessions_are_isolated() {
        let base = {
            let mut s = session();
            ok(&mut s, "QUERY inv", "");
            s.db
        };
        let mut a = Session::new(base.clone());
        let mut b = Session::new(base.clone());
        ok(&mut a, "UPDATE insert into inv (row(100, 1))", "");
        ok(&mut b, "UPDATE delete from inv (inv)", "");
        assert_eq!(rows(ok(&mut a, "QUERY inv", "")), 4);
        assert_eq!(rows(ok(&mut b, "QUERY inv", "")), 0);
        assert_eq!(base.query("inv").unwrap().len(), 3);
        assert_eq!(
            base.query("inv").unwrap(),
            Relation::from_rows(2, [tuple![1, 10], tuple![2, 20], tuple![3, 30]].into_iter())
                .unwrap()
        );
    }
}
