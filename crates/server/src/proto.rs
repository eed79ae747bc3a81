//! The HQL wire protocol.
//!
//! A deliberately simple, dependency-free framing: every message — in
//! both directions — is a **length-prefixed frame** (4-byte big-endian
//! payload length, then that many bytes of UTF-8 text), and every payload
//! is **line-oriented** (a command or status line, then an optional
//! body). Length prefixes make request-size limits enforceable before a
//! single payload byte is read; the text inside keeps the protocol
//! debuggable with nothing fancier than `Debug` prints.
//!
//! ```text
//! client → server    <len> VERB args\n body…
//! server → client    <len> OK [note]            unit result
//!                    <len> ROWS n k\n row…      a relation (n rows, arity k)
//!                    <len> TEXT\n body          renderable text
//!                    <len> ERR code\n message   structured error
//! ```
//!
//! On accept the server sends one greeting frame
//! (`HELLO hypoquery/1 max <bytes>`) advertising the protocol version and
//! its request-size limit.
//!
//! Rows travel in the same escaped, tab-separated form the dump format
//! uses ([`hypoquery_storage::encode_tuple`]), so relations round-trip
//! bit-exactly between server and client. Errors carry the
//! [`EngineError`] variant as a code plus the full display message —
//! see [`WireError`].

use std::fmt;
use std::io::{self, Read, Write};

use hypoquery_engine::EngineError;
use hypoquery_storage::{decode_tuple, encode_tuple, Relation};

/// Protocol version spoken by this crate.
pub const PROTOCOL_VERSION: u32 = 1;

/// Default cap on a single frame's payload, bytes (requests *and*
/// replies are framed, but only requests are capped — replies are
/// trusted).
pub const DEFAULT_MAX_REQUEST_BYTES: u32 = 1 << 20;

/// Default TCP port (hypoquery = "hq" = 0x68 0x71 → 7877 keeps it
/// memorable and unprivileged).
pub const DEFAULT_PORT: u16 = 7877;

/// The greeting line sent by the server on accept, minus the limit.
pub const HELLO_PREFIX: &str = "HELLO hypoquery/1 max ";

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Why reading a frame failed.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying transport error (includes timeouts, which surface as
    /// `WouldBlock`/`TimedOut` depending on platform).
    Io(io::Error),
    /// The peer announced a payload larger than the negotiated cap.
    TooLarge {
        /// Announced payload length.
        len: u32,
        /// The enforced cap.
        max: u32,
    },
    /// The stream ended mid-frame (after the length prefix started).
    Truncated,
    /// A read timeout expired **mid-frame**: the peer started a request
    /// and stalled. (A timeout before the first byte surfaces as
    /// [`FrameError::Io`] instead — that's just an idle connection.)
    Stalled,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::TooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            FrameError::Truncated => write!(f, "connection closed mid-frame"),
            FrameError::Stalled => write!(f, "request stalled mid-frame"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Write one frame: 4-byte big-endian length, then the payload, in one
/// `write_all` — with `TCP_NODELAY`, two writes would leave as two
/// segments.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame over 4 GiB"))?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Read one frame, enforcing `max` against the announced length *before*
/// reading the payload. `Ok(None)` means the peer closed cleanly at a
/// frame boundary.
pub fn read_frame(r: &mut impl Read, max: u32) -> Result<Option<Vec<u8>>, FrameError> {
    let mut len_buf = [0u8; 4];
    // First byte distinguishes clean EOF from truncation.
    match r.read(&mut len_buf[..1]) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(FrameError::Io(e)),
    }
    read_exact_or_truncated(r, &mut len_buf[1..])?;
    let len = u32::from_be_bytes(len_buf);
    if len > max {
        return Err(FrameError::TooLarge { len, max });
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_or_truncated(r, &mut payload)?;
    Ok(Some(payload))
}

fn read_exact_or_truncated(r: &mut impl Read, buf: &mut [u8]) -> Result<(), FrameError> {
    r.read_exact(buf).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => FrameError::Truncated,
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => FrameError::Stalled,
        _ => FrameError::Io(e),
    })
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// Every verb a request frame can open with.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)] // the names *are* the documentation — see module docs
pub enum Verb {
    Ping,
    Query,
    Table,
    Update,
    Explain,
    Define,
    Load,
    Constraint,
    Branch,
    Switch,
    Drop,
    Branches,
    Prepare,
    Exec,
    Strategy,
    Schema,
    Dump,
    Restore,
    Index,
    Unindex,
    Stats,
    Bye,
    Shutdown,
}

impl Verb {
    /// All verbs, in a fixed order (metrics are indexed by this).
    pub const ALL: [Verb; 23] = [
        Verb::Ping,
        Verb::Query,
        Verb::Table,
        Verb::Update,
        Verb::Explain,
        Verb::Define,
        Verb::Load,
        Verb::Constraint,
        Verb::Branch,
        Verb::Switch,
        Verb::Drop,
        Verb::Branches,
        Verb::Prepare,
        Verb::Exec,
        Verb::Strategy,
        Verb::Schema,
        Verb::Dump,
        Verb::Restore,
        Verb::Index,
        Verb::Unindex,
        Verb::Stats,
        Verb::Bye,
        Verb::Shutdown,
    ];

    /// Canonical wire spelling.
    pub fn name(self) -> &'static str {
        match self {
            Verb::Ping => "PING",
            Verb::Query => "QUERY",
            Verb::Table => "TABLE",
            Verb::Update => "UPDATE",
            Verb::Explain => "EXPLAIN",
            Verb::Define => "DEFINE",
            Verb::Load => "LOAD",
            Verb::Constraint => "CONSTRAINT",
            Verb::Branch => "BRANCH",
            Verb::Switch => "SWITCH",
            Verb::Drop => "DROP",
            Verb::Branches => "BRANCHES",
            Verb::Prepare => "PREPARE",
            Verb::Exec => "EXEC",
            Verb::Strategy => "STRATEGY",
            Verb::Schema => "SCHEMA",
            Verb::Dump => "DUMP",
            Verb::Restore => "RESTORE",
            Verb::Index => "INDEX",
            Verb::Unindex => "UNINDEX",
            Verb::Stats => "STATS",
            Verb::Bye => "BYE",
            Verb::Shutdown => "SHUTDOWN",
        }
    }

    /// Index into [`Verb::ALL`] (for per-verb metrics).
    pub fn index(self) -> usize {
        Verb::ALL.iter().position(|v| *v == self).expect("in ALL")
    }

    /// Parse a wire spelling (case-insensitive).
    pub fn parse(s: &str) -> Option<Verb> {
        let up = s.to_ascii_uppercase();
        Verb::ALL.into_iter().find(|v| v.name() == up)
    }
}

impl fmt::Display for Verb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A decoded request: verb, rest-of-command-line, and body.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Request {
    /// The verb.
    pub verb: Verb,
    /// Everything after the verb on the command line, trimmed.
    pub args: String,
    /// Everything after the first newline, verbatim.
    pub body: String,
}

impl Request {
    /// Build a request (helper for clients).
    pub fn new(verb: Verb, args: impl Into<String>, body: impl Into<String>) -> Request {
        Request {
            verb,
            args: args.into(),
            body: body.into(),
        }
    }

    /// Encode into a frame payload.
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(8 + self.args.len() + self.body.len());
        out.push_str(self.verb.name());
        if !self.args.is_empty() {
            out.push(' ');
            out.push_str(&self.args);
        }
        if !self.body.is_empty() {
            out.push('\n');
            out.push_str(&self.body);
        }
        out
    }

    /// Decode a frame payload. Errors are protocol errors (not UTF-8,
    /// empty, or an unknown verb).
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let text = std::str::from_utf8(payload)
            .map_err(|e| WireError::proto(format!("request is not UTF-8: {e}")))?;
        let (line, body) = match text.split_once('\n') {
            Some((l, b)) => (l, b),
            None => (text, ""),
        };
        let line = line.trim();
        if line.is_empty() {
            return Err(WireError::proto("empty request"));
        }
        let (verb, args) = match line.split_once(char::is_whitespace) {
            Some((v, a)) => (v, a.trim()),
            None => (line, ""),
        };
        let verb =
            Verb::parse(verb).ok_or_else(|| WireError::proto(format!("unknown verb {verb:?}")))?;
        Ok(Request {
            verb,
            args: args.to_string(),
            body: body.to_string(),
        })
    }

    /// The full source text for verbs whose payload is HQL: the args
    /// line, with the body appended on a fresh line when present (lets
    /// long queries span lines).
    pub fn source(&self) -> String {
        join_source(&self.args, &self.body)
    }

    /// For verbs that name something before their HQL (`CONSTRAINT`,
    /// `EXEC`): the first word of the args, and the rest of the args
    /// joined with the body as [`Request::source`] joins them. Either
    /// part may be empty.
    pub fn named_source(&self) -> (&str, String) {
        let (name, rest) = self
            .args
            .split_once(char::is_whitespace)
            .unwrap_or((&self.args, ""));
        (name, join_source(rest.trim(), &self.body))
    }
}

fn join_source(head: &str, body: &str) -> String {
    if body.trim().is_empty() {
        head.to_string()
    } else if head.is_empty() {
        body.to_string()
    } else {
        format!("{head}\n{body}")
    }
}

// ---------------------------------------------------------------------
// Errors on the wire
// ---------------------------------------------------------------------

/// Which kind of error an `ERR` reply carries: one code per
/// [`EngineError`] variant, plus server-side codes the engine never
/// produces.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ErrCode {
    /// `EngineError::Parse`.
    Parse,
    /// `EngineError::Type`.
    Type,
    /// `EngineError::Eval`.
    Eval,
    /// `EngineError::Storage`.
    Storage,
    /// `EngineError::Enf`.
    Enf,
    /// `EngineError::ConstraintViolation`.
    Constraint,
    /// `EngineError::DuplicateName`.
    Duplicate,
    /// `EngineError::UnknownName`.
    Unknown,
    /// Malformed request (framing, UTF-8, verb, argument shape).
    Proto,
    /// Request frame exceeded the advertised size limit.
    TooLarge,
    /// The connection stalled past the configured read timeout.
    Timeout,
    /// The server is shutting down.
    Shutdown,
}

impl ErrCode {
    /// Wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrCode::Parse => "parse",
            ErrCode::Type => "type",
            ErrCode::Eval => "eval",
            ErrCode::Storage => "storage",
            ErrCode::Enf => "enf",
            ErrCode::Constraint => "constraint",
            ErrCode::Duplicate => "duplicate",
            ErrCode::Unknown => "unknown",
            ErrCode::Proto => "proto",
            ErrCode::TooLarge => "too-large",
            ErrCode::Timeout => "timeout",
            ErrCode::Shutdown => "shutdown",
        }
    }

    /// Parse a wire spelling.
    pub fn parse_code(s: &str) -> Option<ErrCode> {
        const ALL: [ErrCode; 12] = [
            ErrCode::Parse,
            ErrCode::Type,
            ErrCode::Eval,
            ErrCode::Storage,
            ErrCode::Enf,
            ErrCode::Constraint,
            ErrCode::Duplicate,
            ErrCode::Unknown,
            ErrCode::Proto,
            ErrCode::TooLarge,
            ErrCode::Timeout,
            ErrCode::Shutdown,
        ];
        ALL.into_iter().find(|c| c.as_str() == s)
    }
}

impl fmt::Display for ErrCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A structured error reply: the variant code plus the full display
/// message. Encoding an [`EngineError`] and decoding the reply preserves
/// both exactly (the round-trip the protocol tests pin down); messages
/// may span lines, hence the body position.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WireError {
    /// Which error this is.
    pub code: ErrCode,
    /// The error's display text, unabridged.
    pub message: String,
}

impl WireError {
    /// A protocol-level error.
    pub fn proto(message: impl Into<String>) -> WireError {
        WireError {
            code: ErrCode::Proto,
            message: message.into(),
        }
    }

    /// Classify an [`EngineError`] and capture its display text.
    pub fn from_engine(e: &EngineError) -> WireError {
        let code = match e {
            EngineError::Parse(_) => ErrCode::Parse,
            EngineError::Type(_) => ErrCode::Type,
            EngineError::Eval(_) => ErrCode::Eval,
            EngineError::Storage(_) => ErrCode::Storage,
            EngineError::Enf(_) => ErrCode::Enf,
            EngineError::ConstraintViolation { .. } => ErrCode::Constraint,
            EngineError::DuplicateName(_) => ErrCode::Duplicate,
            EngineError::UnknownName(_) => ErrCode::Unknown,
        };
        WireError {
            code,
            message: e.to_string(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.code, self.message)
    }
}

impl std::error::Error for WireError {}

impl From<EngineError> for WireError {
    fn from(e: EngineError) -> Self {
        WireError::from_engine(&e)
    }
}

// ---------------------------------------------------------------------
// Replies
// ---------------------------------------------------------------------

/// A decoded reply frame.
#[derive(Clone, PartialEq, Debug)]
pub enum Reply {
    /// Unit success, with an optional one-line note.
    Ok(String),
    /// A relation result.
    Rows(Relation),
    /// Human-renderable text (EXPLAIN, STATS, DUMP, …).
    Text(String),
    /// A structured error.
    Err(WireError),
}

impl Reply {
    /// Unit success without a note.
    pub fn ok() -> Reply {
        Reply::Ok(String::new())
    }

    /// Encode into a frame payload.
    pub fn encode(&self) -> String {
        match self {
            Reply::Ok(note) if note.is_empty() => "OK".to_string(),
            Reply::Ok(note) => format!("OK {note}"),
            Reply::Rows(rel) => {
                let mut out = format!("ROWS {} {}", rel.len(), rel.arity());
                for t in rel.iter() {
                    out.push('\n');
                    out.push_str(&encode_tuple(t));
                }
                out
            }
            Reply::Text(body) => format!("TEXT\n{body}"),
            Reply::Err(e) => format!("ERR {}\n{}", e.code, e.message),
        }
    }

    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Reply, WireError> {
        let text = std::str::from_utf8(payload)
            .map_err(|e| WireError::proto(format!("reply is not UTF-8: {e}")))?;
        let (line, body) = match text.split_once('\n') {
            Some((l, b)) => (l, b),
            None => (text, ""),
        };
        if line == "OK" || line.starts_with("OK ") {
            return Ok(Reply::Ok(
                line.strip_prefix("OK").unwrap().trim_start().to_string(),
            ));
        }
        if let Some(rest) = line.strip_prefix("ROWS ") {
            let mut parts = rest.split_whitespace();
            let n: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| WireError::proto("ROWS missing row count"))?;
            let arity: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| WireError::proto("ROWS missing arity"))?;
            let mut rel = Relation::empty(arity);
            let mut lines = body.lines();
            for i in 0..n {
                let row = lines
                    .next()
                    .ok_or_else(|| WireError::proto(format!("ROWS truncated at row {i}")))?;
                let t = decode_tuple(row, i + 1)
                    .map_err(|e| WireError::proto(format!("bad row {i}: {e}")))?;
                rel.insert(t)
                    .map_err(|e| WireError::proto(format!("bad row {i}: {e}")))?;
            }
            return Ok(Reply::Rows(rel));
        }
        if line == "TEXT" {
            return Ok(Reply::Text(body.to_string()));
        }
        if let Some(code) = line.strip_prefix("ERR ") {
            let code = ErrCode::parse_code(code.trim())
                .ok_or_else(|| WireError::proto(format!("unknown error code {code:?}")))?;
            return Ok(Reply::Err(WireError {
                code,
                message: body.to_string(),
            }));
        }
        Err(WireError::proto(format!("unparseable reply line {line:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypoquery_storage::tuple;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r, 1024).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, 1024).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r, 1024).unwrap().is_none()); // clean EOF
    }

    #[test]
    fn frame_limit_enforced_before_payload() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[b'x'; 100]).unwrap();
        let mut r = io::Cursor::new(buf);
        match read_frame(&mut r, 10) {
            Err(FrameError::TooLarge { len: 100, max: 10 }) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frames_detected() {
        // Length prefix promises 8 bytes, stream has 3.
        let buf = [0u8, 0, 0, 8, 1, 2, 3];
        let mut r = io::Cursor::new(&buf[..]);
        assert!(matches!(
            read_frame(&mut r, 1024),
            Err(FrameError::Truncated)
        ));
        // Partial length prefix.
        let buf = [0u8, 0];
        let mut r = io::Cursor::new(&buf[..]);
        assert!(matches!(
            read_frame(&mut r, 1024),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn request_roundtrip() {
        for (req, wire) in [
            (Request::new(Verb::Ping, "", ""), "PING"),
            (
                Request::new(Verb::Query, "select #0 > 1 (emp)", ""),
                "QUERY select #0 > 1 (emp)",
            ),
            (
                Request::new(
                    Verb::Branch,
                    "plan_b FROM base",
                    "insert into inv (row(4, 40))",
                ),
                "BRANCH plan_b FROM base\ninsert into inv (row(4, 40))",
            ),
        ] {
            assert_eq!(req.encode(), wire);
            assert_eq!(Request::decode(wire.as_bytes()).unwrap(), req);
        }
        // Case-insensitive verbs, whitespace tolerated.
        assert_eq!(
            Request::decode(b"  query  emp ").unwrap(),
            Request::new(Verb::Query, "emp", "")
        );
    }

    #[test]
    fn request_decode_rejects_garbage() {
        for bad in [&b""[..], b"  ", b"FROBNICATE x", b"\xff\xfe"] {
            let e = Request::decode(bad).unwrap_err();
            assert_eq!(e.code, ErrCode::Proto, "{bad:?}");
        }
    }

    #[test]
    fn request_source_merges_args_and_body() {
        assert_eq!(Request::new(Verb::Query, "emp", "").source(), "emp");
        assert_eq!(Request::new(Verb::Query, "", "emp").source(), "emp");
        assert_eq!(
            Request::new(Verb::Query, "emp when", "{delete from emp (emp)}").source(),
            "emp when\n{delete from emp (emp)}"
        );
    }

    #[test]
    fn reply_roundtrip() {
        let mut rel = Relation::empty(2);
        rel.insert(tuple![1, "tab\there"]).unwrap();
        rel.insert(tuple![2, "line\nbreak"]).unwrap();
        for reply in [
            Reply::ok(),
            Reply::Ok("dropped 3".into()),
            Reply::Rows(rel),
            Reply::Rows(Relation::empty(5)),
            Reply::Text("line one\nline two".into()),
            Reply::Err(WireError::proto("nope")),
        ] {
            let wire = reply.encode();
            assert_eq!(Reply::decode(wire.as_bytes()).unwrap(), reply, "{wire:?}");
        }
    }

    #[test]
    fn reply_decode_rejects_garbage() {
        for bad in [
            &b"NOPE"[..],
            b"ROWS",
            b"ROWS x y",
            b"ERR gibberish\nmsg",
            b"\xff",
        ] {
            assert!(Reply::decode(bad).is_err(), "{bad:?}");
        }
        // Truncated row list.
        assert!(Reply::decode(b"ROWS 2 1\n5").is_err());
    }

    /// Satellite: every [`EngineError`] variant serializes into a
    /// protocol error reply and back without loss — the variant (code)
    /// and the display text both survive exactly.
    #[test]
    fn engine_error_display_roundtrip_table() {
        use hypoquery_engine::Database;

        let db = {
            let mut db = Database::new();
            db.define_named("emp", ["id", "salary"]).unwrap();
            db.load("emp", vec![hypoquery_storage::tuple![1, 100]])
                .unwrap();
            db
        };
        // One live instance of each variant, produced by the real engine
        // paths where practical so messages are realistic.
        let table: Vec<(ErrCode, EngineError)> = vec![
            (ErrCode::Parse, db.prepare("select (").unwrap_err()),
            (ErrCode::Type, db.prepare("emp union nosuch").unwrap_err()),
            (ErrCode::Eval, {
                // `sum` over strings fails at eval time.
                let mut db2 = Database::new();
                db2.define_named("tags", ["id", "label"]).unwrap();
                db2.load("tags", vec![hypoquery_storage::tuple![1, "x"]])
                    .unwrap();
                db2.query("aggregate [id; sum label] (tags)").unwrap_err()
            }),
            (
                ErrCode::Storage,
                EngineError::Storage(hypoquery_storage::StorageError::ArityMismatch {
                    context: "insert",
                    expected: 2,
                    found: 3,
                }),
            ),
            (ErrCode::Enf, {
                let mut db2 = Database::new();
                db2.define("emp", 2).unwrap();
                db2.query_with(
                    "emp when {select #1 > 100 (emp) / emp}",
                    hypoquery_engine::Strategy::Delta,
                )
                .unwrap_err()
            }),
            (
                ErrCode::Constraint,
                EngineError::ConstraintViolation {
                    constraint: "salary_cap".into(),
                    violations: 7,
                },
            ),
            (
                ErrCode::Duplicate,
                EngineError::DuplicateName("branch_a".into()),
            ),
            (
                ErrCode::Unknown,
                EngineError::UnknownName("no_such_branch".into()),
            ),
        ];
        for (want_code, e) in &table {
            let wire = WireError::from_engine(e);
            assert_eq!(wire.code, *want_code, "{e:?}");
            let frame = Reply::Err(wire.clone()).encode();
            let back = match Reply::decode(frame.as_bytes()).unwrap() {
                Reply::Err(w) => w,
                other => panic!("expected ERR, got {other:?}"),
            };
            // Lossless: code identifies the variant, message is the full
            // display text — even when it contains newlines/quotes.
            assert_eq!(back, wire, "{e:?}");
            assert_eq!(back.message, e.to_string(), "{e:?}");
            // And a second trip is a fixpoint.
            let again = Reply::Err(back.clone()).encode();
            assert_eq!(again, frame);
        }
        // The table covers every variant (compile-time nudge: update this
        // match and the table together when adding a variant).
        for (_, e) in &table {
            match e {
                EngineError::Parse(_)
                | EngineError::Type(_)
                | EngineError::Eval(_)
                | EngineError::Storage(_)
                | EngineError::Enf(_)
                | EngineError::ConstraintViolation { .. }
                | EngineError::DuplicateName(_)
                | EngineError::UnknownName(_) => {}
            }
        }
        assert_eq!(table.len(), 8, "one row per EngineError variant");
    }
}
