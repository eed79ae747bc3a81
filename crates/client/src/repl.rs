//! The interactive HQL shell of `hypoquery-cli`.
//!
//! One command language, two backends: [`Backend::Remote`] speaks the
//! wire protocol to a running `hypoquery-serve`, while
//! [`Backend::Local`] drives an in-process [`Session`] — the exact same
//! verb dispatch the server uses — so scripts behave identically whether
//! or not a server is running. `Backend::connect_or_local` picks
//! whichever is available.
//!
//! ```text
//! define inv item,qty
//! load inv (1, 10) (2, 20)
//! query select qty >= 20 (inv)
//! branch cut delete from inv (select qty < 15 (inv))
//! switch cut
//! table inv
//! switch -
//! save /tmp/inv.dump
//! quit
//! ```

use std::io::{self, BufRead, Write};
use std::net::ToSocketAddrs;

use hypoquery_engine::Database;
use hypoquery_server::proto::{Reply, Request, Verb};
use hypoquery_server::session::{Control, Session};

use crate::{Client, ClientError};

/// Where REPL commands are executed.
pub enum Backend {
    /// A wire-protocol connection to `hypoquery-serve`.
    Remote(Box<Client>),
    /// An in-process session over a private [`Database`].
    Local(Box<Session>),
}

impl Backend {
    /// An in-process backend over a fresh, empty database. Its session
    /// runs on the caller's thread, which should have
    /// [`hypoquery_engine::MAX_DEPTH_STACK`] bytes of stack for queries
    /// near the nesting limit.
    pub fn local() -> Backend {
        Backend::Local(Box::new(Session::new(Database::new())))
    }

    /// A remote backend.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Backend, ClientError> {
        Ok(Backend::Remote(Box::new(Client::connect(addr)?)))
    }

    /// Try the server first; fall back to an in-process session when
    /// nothing is listening. Returns the backend and whether it is
    /// remote.
    pub fn connect_or_local(addr: impl ToSocketAddrs) -> (Backend, bool) {
        match Backend::connect(addr) {
            Ok(b) => (b, true),
            Err(_) => (Backend::local(), false),
        }
    }

    /// True when commands travel over TCP.
    pub fn is_remote(&self) -> bool {
        matches!(self, Backend::Remote(_))
    }

    /// Execute one request. `Ok((reply, quit))`: `quit` is set when the
    /// backend considers the session over (`BYE`, `SHUTDOWN`).
    fn send(&mut self, req: &Request) -> Result<(Reply, bool), String> {
        match self {
            Backend::Remote(c) => {
                let quit = matches!(req.verb, Verb::Bye | Verb::Shutdown);
                match c.request(req) {
                    Ok(r) => Ok((r, quit)),
                    Err(ClientError::Server(e)) => Err(e.to_string()),
                    Err(e) => Err(e.to_string()),
                }
            }
            Backend::Local(s) => {
                let (reply, ctl) = s.handle(req);
                match reply {
                    Reply::Err(e) => Err(e.to_string()),
                    r => Ok((r, ctl != Control::Continue)),
                }
            }
        }
    }
}

const HELP: &str = "\
commands (case-insensitive; most mirror wire verbs):
  define <name> <arity | attr,attr,...>   declare a relation
  load <name> (v, ...) (v, ...)           insert literal rows
  query <hql>                             run HQL (honors the current branch)
  table <hql>                             same, rendered with column headers
  update <hql update>                     real at root; auto-branch on a branch
  explain [analyze] <hql>                 show the chosen plan/strategy;
                                          `analyze` runs it and reports
                                          per-operator rows and phase times
  constraint <name> <violation query>     register an integrity constraint
  branch <name> [from <parent>] <update>  create a what-if branch
  switch <branch | ->                     enter a branch (`-` = root)
  drop <branch>                           remove a branch and its descendants
  branches                                list branches (* marks current)
  prepare <name> {<updates>}              materialize a hypothetical state
  exec <name> <query>                     query a prepared state
  strategy <auto|lazy|hql1|hql2|delta>    set the evaluation strategy
  index <relation> <column>               declare a secondary index
  unindex <relation> <column>             drop a secondary index
  schema | dump | stats | ping            introspection
  save <file> / open <file>               dump to / restore from a file
  help / quit";

/// The interactive command loop: one [`Backend`], line-at-a-time.
pub struct Repl {
    backend: Backend,
}

impl Repl {
    /// Wrap a backend.
    pub fn new(backend: Backend) -> Repl {
        Repl { backend }
    }

    /// The backend (tests).
    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    /// Evaluate one command line. `Ok(None)` means quit; `Ok(Some(s))`
    /// is output to print (possibly empty); `Err` is a user-facing error
    /// message.
    pub fn eval(&mut self, line: &str) -> Result<Option<String>, String> {
        let line = line.trim();
        if line.is_empty() || line.starts_with("--") {
            return Ok(Some(String::new()));
        }
        let (cmd, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        match cmd.to_ascii_lowercase().as_str() {
            "help" | "?" => return Ok(Some(HELP.to_string())),
            "quit" | "exit" => {
                if self.backend.is_remote() {
                    let _ = self.backend.send(&Request::new(Verb::Bye, "", ""));
                }
                return Ok(None);
            }
            "save" => {
                if rest.is_empty() {
                    return Err("usage: save <file>".into());
                }
                let (reply, _) = self.backend.send(&Request::new(Verb::Dump, "", ""))?;
                let text = match reply {
                    Reply::Text(t) => t,
                    other => return Err(format!("expected a dump, got {other:?}")),
                };
                std::fs::write(rest, text).map_err(|e| e.to_string())?;
                return Ok(Some(format!("saved to {rest}")));
            }
            "open" => {
                if rest.is_empty() {
                    return Err("usage: open <file>".into());
                }
                let text = std::fs::read_to_string(rest).map_err(|e| e.to_string())?;
                let (_, _) = self.backend.send(&Request::new(Verb::Restore, "", text))?;
                return Ok(Some(format!("loaded {rest}")));
            }
            "branch" => {
                // `branch <name> [from <parent>] <update>` — split the
                // update off onto the request body.
                let mut words = rest.splitn(2, char::is_whitespace);
                let name = words.next().unwrap_or("");
                let tail = words.next().unwrap_or("").trim();
                if name.is_empty() || tail.is_empty() {
                    return Err("usage: branch <name> [from <parent>] <update>".into());
                }
                let (args, update) = match tail.split_once(char::is_whitespace) {
                    Some((w, r)) if w.eq_ignore_ascii_case("from") => {
                        match r.trim().split_once(char::is_whitespace) {
                            Some((parent, u)) => {
                                (format!("{name} FROM {parent}"), u.trim().to_string())
                            }
                            None => {
                                return Err("usage: branch <name> from <parent> <update>".into())
                            }
                        }
                    }
                    _ => (name.to_string(), tail.to_string()),
                };
                let (reply, _) = self
                    .backend
                    .send(&Request::new(Verb::Branch, args, update))?;
                return Ok(Some(render(reply)));
            }
            "prepare" => {
                // `prepare <name> {<updates>}` — state expression on the
                // body line.
                let (name, expr) = rest
                    .split_once(char::is_whitespace)
                    .ok_or("usage: prepare <name> {<updates>}")?;
                let (reply, _) =
                    self.backend
                        .send(&Request::new(Verb::Prepare, name.trim(), expr.trim()))?;
                return Ok(Some(render(reply)));
            }
            _ => {}
        }
        let verb =
            Verb::parse(cmd).ok_or_else(|| format!("unknown command {cmd:?} (try `help`)"))?;
        let (reply, quit) = self.backend.send(&Request::new(verb, rest, ""))?;
        if quit {
            return Ok(None);
        }
        Ok(Some(render(reply)))
    }

    /// Drive the loop over a reader/writer pair. `prompt` prints `hql> `
    /// before each line (interactive use).
    pub fn run(
        &mut self,
        input: &mut impl BufRead,
        output: &mut impl Write,
        prompt: bool,
    ) -> io::Result<()> {
        let mut line = String::new();
        loop {
            if prompt {
                write!(output, "hql> ")?;
                output.flush()?;
            }
            line.clear();
            if input.read_line(&mut line)? == 0 {
                return Ok(());
            }
            match self.eval(&line) {
                Ok(None) => return Ok(()),
                Ok(Some(msg)) => {
                    if !msg.is_empty() {
                        writeln!(output, "{msg}")?;
                    }
                }
                Err(e) => writeln!(output, "error: {e}")?,
            }
        }
    }
}

fn render(reply: Reply) -> String {
    match reply {
        Reply::Ok(note) if note.is_empty() => "ok".to_string(),
        Reply::Ok(note) => note,
        Reply::Rows(rel) => format!("{rel}  ({} row(s))", rel.len()),
        Reply::Text(t) => t,
        Reply::Err(e) => format!("error: {e}"), // unreachable via send()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(r: &mut Repl, line: &str) -> String {
        match r.eval(line) {
            Ok(Some(s)) => s,
            other => panic!("{line}: expected output, got {other:?}"),
        }
    }

    #[test]
    fn scripted_local_session() {
        let mut r = Repl::new(Backend::local());
        assert!(!r.backend().is_remote());
        eval(&mut r, "define inv item,qty");
        assert_eq!(eval(&mut r, "load inv (1, 10) (2, 20) (3, 30)"), "loaded 3");
        assert!(eval(&mut r, "query select qty >= 20 (inv)").contains("(2 row(s))"));
        eval(&mut r, "branch cut delete from inv (select qty < 15 (inv))");
        eval(
            &mut r,
            "branch deeper from cut delete from inv (select qty > 25 (inv))",
        );
        eval(&mut r, "switch deeper");
        assert!(eval(&mut r, "query inv").contains("(1 row(s))"));
        let table = eval(&mut r, "table inv");
        assert!(table.starts_with("item  qty"), "{table}");
        eval(&mut r, "switch -");
        assert!(eval(&mut r, "query inv").contains("(3 row(s))"));
        assert!(eval(&mut r, "branches").contains("cut"));
        assert_eq!(eval(&mut r, "drop cut"), "dropped 2");
        eval(&mut r, "prepare fam {insert into inv (row(9, 90))}");
        assert!(eval(&mut r, "exec fam inv").contains("(4 row(s))"));
        eval(&mut r, "strategy lazy");
        assert!(eval(&mut r, "explain inv when {delete from inv (inv)}").contains("strategy:"));
        let analyzed = eval(&mut r, "explain analyze inv when {delete from inv (inv)}");
        assert!(analyzed.contains("physical plan (analyzed):"), "{analyzed}");
        assert!(analyzed.contains("rows in="), "{analyzed}");
        assert!(eval(&mut r, "-- comment").is_empty());
        assert!(eval(&mut r, "help").contains("branch"));
        assert!(r.eval("nonsense").is_err());
        assert!(r.eval("quit").unwrap().is_none());
    }

    #[test]
    fn save_and_open_roundtrip() {
        let path =
            std::env::temp_dir().join(format!("hypoquery-repl-test-{}.dump", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        let mut r = Repl::new(Backend::local());
        eval(&mut r, "define inv 2");
        eval(&mut r, "load inv (1, 10) (2, 20)");
        eval(&mut r, &format!("save {path}"));
        eval(&mut r, "update delete from inv (inv)");
        assert!(eval(&mut r, "query inv").contains("(0 row(s))"));
        eval(&mut r, &format!("open {path}"));
        assert!(eval(&mut r, "query inv").contains("(2 row(s))"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn errors_are_messages_not_panics() {
        let mut r = Repl::new(Backend::local());
        assert!(r.eval("query select (").is_err());
        assert!(r.eval("branch").is_err());
        assert!(r.eval("save").is_err());
        assert!(r.eval("open /no/such/file/anywhere").is_err());
        // STATS is server-scoped; the local backend says so.
        assert!(r.eval("stats").unwrap_err().contains("server"));
    }
}
