//! The threaded TCP server: a fixed pool of workers, each blocking in
//! `accept` on its own clone of one listener.
//!
//! A worker accepts a connection, serves it to the end, then accepts
//! again, so the pool size (default [`hypoquery_eval::num_workers`], so
//! `HYPOQUERY_THREADS` governs both) caps concurrent sessions.
//! Connections beyond the pool wait in the kernel's listen backlog, which
//! is bounded (128 in std): a flood beyond it is left to the kernel to
//! refuse, instead of piling up as accepted sockets.
//!
//! Robustness rules, all tested over loopback:
//!
//! * a request frame larger than the advertised limit ⇒ `ERR too-large`,
//!   connection closed (the unread payload would desync framing);
//! * a request that stalls mid-frame past the read timeout ⇒
//!   `ERR timeout`, connection closed — a slow-loris client costs one
//!   worker for at most the timeout;
//! * malformed requests (bad UTF-8, unknown verb) ⇒ `ERR proto`, the
//!   connection stays usable;
//! * `SHUTDOWN` (or [`ServerHandle::shutdown`]) ⇒ stop accepting, let
//!   in-flight requests finish, close waiting connections unserved, exit.
//!   Idle sessions notice at their next read-timeout tick. Workers
//!   blocked in `accept` are woken by a connection to the server's own
//!   port (loopback when it listens on an unspecified address); each
//!   worker that wakes into shutdown connects once more before it exits,
//!   so one wake-up reaches the whole pool however small the backlog.

use std::io::{self, BufReader, Read};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use hypoquery_engine::{Database, MAX_DEPTH_STACK};

use crate::metrics::Metrics;
use crate::proto::{
    read_frame, write_frame, ErrCode, FrameError, Reply, Request, Verb, WireError,
    DEFAULT_MAX_REQUEST_BYTES, HELLO_PREFIX,
};
use crate::session::{Control, Session};

/// Everything tunable about a server.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port — tests).
    pub addr: String,
    /// Worker pool size; also the concurrent-session cap.
    pub workers: usize,
    /// Per-connection socket read timeout. Bounds how long a stalled
    /// request can hold a worker.
    pub read_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// How long a connection may sit idle *between* requests before the
    /// server hangs up.
    pub idle_timeout: Duration,
    /// Largest accepted request frame, bytes.
    pub max_request_bytes: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: format!("127.0.0.1:{}", crate::proto::DEFAULT_PORT),
            workers: hypoquery_eval::num_workers().max(2),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(300),
            max_request_bytes: DEFAULT_MAX_REQUEST_BYTES,
        }
    }
}

struct Shared {
    base: Database,
    config: ServerConfig,
    metrics: Metrics,
    shutdown: AtomicBool,
    /// Where a shutdown wake-up connects.
    wake_addr: SocketAddr,
}

impl Shared {
    fn trigger_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            self.wake_a_worker();
        }
    }

    fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Connect to the listener so one worker blocked in `accept` returns.
    /// Best effort: if the backlog is full, the connections filling it
    /// wake workers just as well.
    fn wake_a_worker(&self) {
        let _ = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1));
    }
}

/// A running server: its address, metrics, and shutdown/join controls.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
}

/// Bind and start serving `base`. Every session works on a copy-on-write
/// snapshot of `base`; the server never mutates it.
pub fn serve(config: ServerConfig, base: Database) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(resolve(&config.addr)?)?;
    let addr = listener.local_addr()?;
    let mut wake_addr = addr;
    if addr.ip().is_unspecified() {
        wake_addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let workers = config.workers.max(1);
    let shared = Arc::new(Shared {
        base,
        config,
        metrics: Metrics::new(),
        shutdown: AtomicBool::new(false),
        wake_addr,
    });

    let threads = (0..workers)
        .map(|i| {
            let listener = listener.try_clone()?;
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name(format!("hq-worker-{i}"))
                .stack_size(MAX_DEPTH_STACK)
                .spawn(move || worker_loop(&listener, &shared))
        })
        .collect::<io::Result<_>>()?;
    Ok(ServerHandle {
        addr,
        shared,
        workers: Mutex::new(threads),
    })
}

fn resolve(addr: &str) -> io::Result<SocketAddr> {
    addr.to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable address"))
}

impl ServerHandle {
    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Whether shutdown has been triggered (by this handle or the
    /// `SHUTDOWN` verb).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.is_shutting_down()
    }

    /// Trigger a graceful shutdown: stop accepting, finish in-flight
    /// requests, stop workers. Idempotent, and returns immediately; pair
    /// with [`ServerHandle::join`].
    pub fn shutdown(&self) {
        self.shared.trigger_shutdown();
    }

    /// Block until every worker has exited (after a shutdown was
    /// triggered — by this handle, from any thread, or by a client's
    /// `SHUTDOWN` verb).
    pub fn join(&self) {
        for t in self.workers.lock().unwrap().drain(..) {
            let _ = t.join();
        }
    }
}

fn worker_loop(listener: &TcpListener, shared: &Shared) {
    while !shared.is_shutting_down() {
        match listener.accept() {
            Ok((stream, _peer)) if !shared.is_shutting_down() => {
                shared.metrics.connections.fetch_add(1, Ordering::Relaxed);
                serve_connection(stream, shared);
            }
            // Accepted into shutdown: a wake-up, or a client that came
            // too late. Close it unserved and pass the wake-up on.
            Ok((stream, _peer)) => {
                drop(stream);
                shared.wake_a_worker();
                return;
            }
            Err(_) if shared.is_shutting_down() => return,
            // Out of file descriptors and the like: back off, don't spin.
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn serve_connection(stream: TcpStream, shared: &Shared) {
    shared.metrics.active.fetch_add(1, Ordering::Relaxed);
    let _ = serve_connection_inner(&stream, shared);
    shared.metrics.active.fetch_sub(1, Ordering::Relaxed);
}

fn serve_connection_inner(stream: &TcpStream, shared: &Shared) -> io::Result<()> {
    let cfg = &shared.config;
    stream.set_read_timeout(Some(cfg.read_timeout))?;
    stream.set_write_timeout(Some(cfg.write_timeout))?;
    stream.set_nodelay(true).ok();

    let greeting = format!("{HELLO_PREFIX}{}", cfg.max_request_bytes);
    send(stream, greeting.as_bytes(), shared)?;

    // Requests are read through a buffer, so that a frame's length and
    // payload usually arrive in one `read` call; replies are written
    // straight to the stream.
    let mut reader = BufReader::new(stream);
    let mut session = Session::new(shared.base.clone());
    let mut idle_since = Instant::now();
    loop {
        if shared.is_shutting_down() {
            let bye = Reply::Err(WireError {
                code: ErrCode::Shutdown,
                message: "server shutting down".into(),
            });
            let _ = send(stream, bye.encode().as_bytes(), shared);
            return Ok(());
        }
        let payload = match read_frame(&mut reader, cfg.max_request_bytes) {
            Ok(Some(p)) => p,
            Ok(None) => return Ok(()), // clean disconnect
            Err(FrameError::Io(e))
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // Idle between requests: allowed up to idle_timeout.
                if idle_since.elapsed() >= cfg.idle_timeout {
                    return Ok(());
                }
                continue;
            }
            Err(FrameError::TooLarge { len, max }) => {
                // The oversized payload desyncs framing, so answer and
                // hang up. Drain the declared payload first (bounded by
                // one read timeout): closing with unread bytes in the
                // receive buffer makes the kernel answer with RST, which
                // can destroy the error reply before the client reads it.
                let e = WireError {
                    code: ErrCode::TooLarge,
                    message: format!("request of {len} bytes exceeds the {max}-byte limit"),
                };
                shared.metrics.record_request(None, 0, true);
                let _ = send(stream, Reply::Err(e).encode().as_bytes(), shared);
                let mut remaining = len as u64;
                let mut sink = [0u8; 8192];
                let deadline = Instant::now() + cfg.read_timeout;
                while remaining > 0 && Instant::now() < deadline {
                    match reader.read(&mut sink) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => remaining = remaining.saturating_sub(n as u64),
                    }
                }
                return Ok(());
            }
            Err(FrameError::Stalled) => {
                let e = WireError {
                    code: ErrCode::Timeout,
                    message: format!(
                        "request stalled mid-frame past the {:?} read timeout",
                        cfg.read_timeout
                    ),
                };
                shared.metrics.record_request(None, 0, true);
                let _ = send(stream, Reply::Err(e).encode().as_bytes(), shared);
                return Ok(());
            }
            Err(FrameError::Truncated) | Err(FrameError::Io(_)) => return Ok(()),
        };
        shared
            .metrics
            .bytes_in
            .fetch_add(4 + payload.len() as u64, Ordering::Relaxed);

        let started = Instant::now();
        let (verb, reply, control) = match Request::decode(&payload) {
            Err(e) => (None, Reply::Err(e), Control::Continue),
            Ok(req) if req.verb == Verb::Stats => (
                Some(Verb::Stats),
                Reply::Text(shared.metrics.render(shared.base.index_counters())),
                Control::Continue,
            ),
            Ok(req) => {
                let (reply, control) = session.handle(&req);
                (Some(req.verb), reply, control)
            }
        };
        let errored = matches!(reply, Reply::Err(_));
        shared.metrics.record_request(
            verb,
            started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
            errored,
        );
        // Flip the flag before acknowledging: a client that has read the
        // SHUTDOWN reply must observe the server already shutting down.
        if matches!(control, Control::Shutdown) {
            shared.trigger_shutdown();
        }
        send(stream, reply.encode().as_bytes(), shared)?;
        idle_since = Instant::now();
        match control {
            Control::Continue => {}
            Control::Close | Control::Shutdown => return Ok(()),
        }
    }
}

fn send(mut stream: &TcpStream, payload: &[u8], shared: &Shared) -> io::Result<()> {
    write_frame(&mut stream, payload)?;
    shared
        .metrics
        .bytes_out
        .fetch_add(4 + payload.len() as u64, Ordering::Relaxed);
    Ok(())
}
