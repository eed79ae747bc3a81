//! # hypoquery-client
//!
//! A blocking client for the HQL wire protocol (`hypoquery_server::proto`):
//! connect, speak verbs, get typed results back — relations arrive as
//! real [`Relation`] values, errors as the server's structured
//! [`WireError`] replies. The [`repl`] module holds the interactive
//! command loop of the `hypoquery-cli` binary (`hypoquery-cli --local`
//! runs it in-process, with no server).
//!
//! ```no_run
//! use hypoquery_client::Client;
//!
//! let mut c = Client::connect("127.0.0.1:7877").unwrap();
//! c.define_named("inv", &["item", "qty"]).unwrap();
//! c.raw_line("LOAD inv (1, 10) (2, 20)").unwrap();
//! let rows = c.query("select qty >= 20 (inv)").unwrap();
//! assert_eq!(rows.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod repl;

use std::fmt;
use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use hypoquery_server::proto::{
    read_frame, write_frame, ErrCode, Reply, Request, Verb, WireError, HELLO_PREFIX,
};
use hypoquery_storage::{encode_tuple, Relation, Tuple};

/// Anything that can go wrong on the client side.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, timeout, disconnect).
    Io(io::Error),
    /// The server answered with a structured error reply.
    Server(WireError),
    /// The server's bytes didn't parse as the protocol (version skew,
    /// not a hypoquery server, truncation).
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// The structured server error, if that's what this is.
    pub fn server_error(&self) -> Option<&WireError> {
        match self {
            ClientError::Server(e) => Some(e),
            _ => None,
        }
    }

    /// The server error code, if this is a server error.
    pub fn code(&self) -> Option<ErrCode> {
        self.server_error().map(|e| e.code)
    }
}

/// A connected session. One TCP connection = one server-side session
/// (its own CoW snapshot, branches, prepared states).
pub struct Client {
    /// The connection, read through a buffer so that a reply's length and
    /// payload usually arrive in one `read` call; requests are written
    /// straight to the stream underneath.
    stream: BufReader<TcpStream>,
    /// The request-size limit the server advertised in its greeting.
    server_max: u32,
}

impl Client {
    /// Connect with default timeouts (5 s on connect/read/write).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Client::connect_with(addr, Duration::from_secs(5))
    }

    /// Connect with an explicit timeout applied to connect, reads, and
    /// writes.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        timeout: Duration,
    ) -> Result<Client, ClientError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ClientError::Protocol("unresolvable address".into()))?;
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true).ok();
        let mut client = Client {
            stream: BufReader::new(stream),
            server_max: u32::MAX,
        };
        // The server leads with a greeting frame.
        let hello = client.read_reply_payload()?;
        let hello = String::from_utf8_lossy(&hello);
        let max = hello
            .strip_prefix(HELLO_PREFIX)
            .and_then(|rest| rest.trim().parse::<u32>().ok())
            .ok_or_else(|| ClientError::Protocol(format!("unexpected greeting {hello:?}")))?;
        client.server_max = max;
        Ok(client)
    }

    /// The server's advertised request-size limit, bytes.
    pub fn server_max_request_bytes(&self) -> u32 {
        self.server_max
    }

    fn read_reply_payload(&mut self) -> Result<Vec<u8>, ClientError> {
        match read_frame(&mut self.stream, u32::MAX) {
            Ok(Some(p)) => Ok(p),
            Ok(None) => Err(ClientError::Protocol("server closed the connection".into())),
            Err(e) => Err(ClientError::Protocol(e.to_string())),
        }
    }

    /// Send one request and decode the reply. `Reply::Err` is folded
    /// into `ClientError::Server` so happy paths stay `?`-friendly.
    pub fn request(&mut self, req: &Request) -> Result<Reply, ClientError> {
        let payload = req.encode();
        if payload.len() as u64 > u64::from(self.server_max) {
            return Err(ClientError::Server(WireError {
                code: ErrCode::TooLarge,
                message: format!(
                    "request of {} bytes exceeds the server's {}-byte limit",
                    payload.len(),
                    self.server_max
                ),
            }));
        }
        write_frame(self.stream.get_mut(), payload.as_bytes())?;
        let reply = self.read_reply_payload()?;
        match Reply::decode(&reply) {
            Ok(Reply::Err(e)) => Err(ClientError::Server(e)),
            Ok(r) => Ok(r),
            Err(e) => Err(ClientError::Protocol(e.to_string())),
        }
    }

    /// Send a raw command line (first word = verb), e.g. from a REPL.
    pub fn raw_line(&mut self, line: &str) -> Result<Reply, ClientError> {
        self.raw(line, "")
    }

    /// Send a raw command line plus body.
    pub fn raw(&mut self, line: &str, body: &str) -> Result<Reply, ClientError> {
        let req = Request::decode(
            if body.is_empty() {
                line.to_string()
            } else {
                format!("{line}\n{body}")
            }
            .as_bytes(),
        )
        .map_err(ClientError::Server)?;
        self.request(&req)
    }

    fn expect_rows(reply: Reply) -> Result<Relation, ClientError> {
        match reply {
            Reply::Rows(rel) => Ok(rel),
            other => Err(ClientError::Protocol(format!(
                "expected ROWS, got {other:?}"
            ))),
        }
    }

    fn expect_text(reply: Reply) -> Result<String, ClientError> {
        match reply {
            Reply::Text(t) => Ok(t),
            other => Err(ClientError::Protocol(format!(
                "expected TEXT, got {other:?}"
            ))),
        }
    }

    // -- typed verbs ---------------------------------------------------

    /// `PING`.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.request(&Request::new(Verb::Ping, "", "")).map(|_| ())
    }

    /// `QUERY`: run HQL in the session's current branch context.
    pub fn query(&mut self, src: &str) -> Result<Relation, ClientError> {
        self.request(&Request::new(Verb::Query, src, ""))
            .and_then(Self::expect_rows)
    }

    /// `UPDATE`: real at the root, hypothetical (auto-branch) on a branch.
    pub fn update(&mut self, src: &str) -> Result<(), ClientError> {
        self.request(&Request::new(Verb::Update, src, ""))
            .map(|_| ())
    }

    /// `EXPLAIN`.
    pub fn explain(&mut self, src: &str) -> Result<String, ClientError> {
        self.request(&Request::new(Verb::Explain, src, ""))
            .and_then(Self::expect_text)
    }

    /// `DEFINE` with positional columns.
    pub fn define(&mut self, name: &str, arity: usize) -> Result<(), ClientError> {
        self.request(&Request::new(Verb::Define, format!("{name} {arity}"), ""))
            .map(|_| ())
    }

    /// `DEFINE` with named columns.
    pub fn define_named(&mut self, name: &str, attrs: &[&str]) -> Result<(), ClientError> {
        self.request(&Request::new(
            Verb::Define,
            format!("{name} {}", attrs.join(",")),
            "",
        ))
        .map(|_| ())
    }

    /// `LOAD`: bulk rows via the body (dump row format — lossless for
    /// strings with tabs/newlines).
    pub fn load(&mut self, name: &str, rows: &[Tuple]) -> Result<(), ClientError> {
        let body: Vec<String> = rows.iter().map(encode_tuple).collect();
        self.request(&Request::new(Verb::Load, name, body.join("\n")))
            .map(|_| ())
    }

    /// `BRANCH name [FROM parent]` with the update in the body. Parent
    /// `None` means the session's current branch (root if none).
    pub fn branch(
        &mut self,
        name: &str,
        parent: Option<&str>,
        update: &str,
    ) -> Result<(), ClientError> {
        let args = match parent {
            None => name.to_string(),
            Some(p) => format!("{name} FROM {p}"),
        };
        self.request(&Request::new(Verb::Branch, args, update))
            .map(|_| ())
    }

    /// `SWITCH` to a branch; `None` returns to the root (real state).
    pub fn switch(&mut self, branch: Option<&str>) -> Result<(), ClientError> {
        self.request(&Request::new(Verb::Switch, branch.unwrap_or("-"), ""))
            .map(|_| ())
    }

    /// `DROP` a branch and its descendants; returns how many were
    /// removed.
    pub fn drop_branch(&mut self, name: &str) -> Result<usize, ClientError> {
        let reply = self.request(&Request::new(Verb::Drop, name, ""))?;
        match reply {
            Reply::Ok(note) => Ok(note
                .strip_prefix("dropped ")
                .and_then(|n| n.parse().ok())
                .unwrap_or(0)),
            other => Err(ClientError::Protocol(format!("expected OK, got {other:?}"))),
        }
    }

    /// `BRANCHES`: `(name, parent)` pairs, name order; parent `None` =
    /// rooted at the real state.
    pub fn branches(&mut self) -> Result<Vec<(String, Option<String>)>, ClientError> {
        let text = self
            .request(&Request::new(Verb::Branches, "", ""))
            .and_then(Self::expect_text)?;
        Ok(text
            .lines()
            .filter(|l| l.len() > 1)
            .map(|l| {
                let l = &l[1..]; // strip the current-branch marker column
                match l.split_once('\t') {
                    Some((n, "-")) => (n.to_string(), None),
                    Some((n, p)) => (n.to_string(), Some(p.to_string())),
                    None => (l.to_string(), None),
                }
            })
            .collect())
    }

    /// `PREPARE name` with a state expression body (server materializes
    /// eagerly).
    pub fn prepare(&mut self, name: &str, state_expr: &str) -> Result<(), ClientError> {
        self.request(&Request::new(Verb::Prepare, name, state_expr))
            .map(|_| ())
    }

    /// `EXEC name query`: query a prepared state.
    pub fn exec(&mut self, name: &str, query: &str) -> Result<Relation, ClientError> {
        self.request(&Request::new(Verb::Exec, format!("{name} {query}"), ""))
            .and_then(Self::expect_rows)
    }

    /// `STRATEGY`: set the session's evaluation strategy
    /// (`auto`/`lazy`/`hql1`/`hql2`/`delta`).
    pub fn strategy(&mut self, s: &str) -> Result<(), ClientError> {
        self.request(&Request::new(Verb::Strategy, s, ""))
            .map(|_| ())
    }

    /// `SCHEMA` as rendered text (`name/arity [attrs]` lines).
    pub fn schema(&mut self) -> Result<String, ClientError> {
        self.request(&Request::new(Verb::Schema, "", ""))
            .and_then(Self::expect_text)
    }

    /// `DUMP`: the session database in `hypoquery_storage::dump` format.
    pub fn dump(&mut self) -> Result<String, ClientError> {
        self.request(&Request::new(Verb::Dump, "", ""))
            .and_then(Self::expect_text)
    }

    /// `INDEX relation col`: declare a secondary index on a column
    /// (position, or attribute name for named schemas). Returns the
    /// server's note (mentions when the declaration already existed).
    pub fn create_index(&mut self, relation: &str, col: &str) -> Result<String, ClientError> {
        match self.request(&Request::new(Verb::Index, format!("{relation} {col}"), ""))? {
            Reply::Ok(note) => Ok(note),
            other => Err(ClientError::Protocol(format!("expected OK, got {other:?}"))),
        }
    }

    /// `UNINDEX relation col`: drop a secondary-index declaration.
    pub fn drop_index(&mut self, relation: &str, col: &str) -> Result<String, ClientError> {
        match self.request(&Request::new(
            Verb::Unindex,
            format!("{relation} {col}"),
            "",
        ))? {
            Reply::Ok(note) => Ok(note),
            other => Err(ClientError::Protocol(format!("expected OK, got {other:?}"))),
        }
    }

    /// `STATS` as rendered text.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        self.request(&Request::new(Verb::Stats, "", ""))
            .and_then(Self::expect_text)
    }

    /// `STATS` parsed into `key → value`.
    pub fn stats_map(&mut self) -> Result<std::collections::BTreeMap<String, u64>, ClientError> {
        Ok(self
            .stats()?
            .lines()
            .filter_map(|l| {
                let (k, v) = l.split_once(' ')?;
                Some((k.to_string(), v.parse().ok()?))
            })
            .collect())
    }

    /// `BYE`: end the session politely.
    pub fn bye(mut self) -> Result<(), ClientError> {
        self.request(&Request::new(Verb::Bye, "", "")).map(|_| ())
    }

    /// `SHUTDOWN`: ask the server to stop (gracefully).
    pub fn shutdown(mut self) -> Result<(), ClientError> {
        self.request(&Request::new(Verb::Shutdown, "", ""))
            .map(|_| ())
    }
}
