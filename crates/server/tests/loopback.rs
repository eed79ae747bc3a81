//! Loopback integration tests: a real server on `127.0.0.1:0`, real
//! `hypoquery_client::Client`s, and adversarial raw sockets.
//!
//! Covers the acceptance bar for the service layer: ≥8 concurrent
//! clients whose branch results match in-process [`WhatIfTree`]
//! evaluation exactly; `STATS` counters that reconcile with the requests
//! actually sent; malformed / oversized / stalled requests answered (or
//! hung up on) within the configured timeout; graceful shutdown.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use hypoquery_client::{Client, ClientError};
use hypoquery_engine::{Database, Strategy, WhatIfTree, MAX_DEPTH};
use hypoquery_server::proto::{read_frame, write_frame, ErrCode, FrameError, Reply, HELLO_PREFIX};
use hypoquery_server::{serve, ServerConfig, ServerHandle};
use hypoquery_storage::tuple;

fn base_db() -> Database {
    let mut db = Database::new();
    db.define_named("inv", ["item", "qty"]).unwrap();
    db.load(
        "inv",
        (1..=8).map(|i| tuple![i, 10 * i]).collect::<Vec<_>>(),
    )
    .unwrap();
    db
}

fn start(config: ServerConfig) -> ServerHandle {
    let mut config = config;
    config.addr = "127.0.0.1:0".into();
    serve(config, base_db()).unwrap()
}

fn quick_config() -> ServerConfig {
    ServerConfig {
        read_timeout: Duration::from_millis(200),
        write_timeout: Duration::from_millis(500),
        idle_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    }
}

/// Read the greeting frame off a raw socket.
fn eat_hello(stream: &mut TcpStream) {
    let hello = read_frame(stream, u32::MAX).unwrap().unwrap();
    assert!(String::from_utf8_lossy(&hello).starts_with(HELLO_PREFIX));
}

fn reply_of(stream: &mut TcpStream) -> Reply {
    let payload = read_frame(stream, u32::MAX).unwrap().unwrap();
    Reply::decode(&payload).unwrap()
}

#[test]
fn concurrent_clients_match_in_process_whatif_evaluation() {
    const CLIENTS: usize = 8;
    let handle = start(ServerConfig {
        workers: CLIENTS, // every client gets a live worker at once
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    // Exercise every strategy across the fleet.
    let strategies = [
        Strategy::Auto,
        Strategy::Lazy,
        Strategy::Hql2,
        Strategy::Delta,
    ];

    let threads: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let cutoff = 15 + 10 * (c as i64 % 4); // 15/25/35/45
                let strategy = strategies[c % strategies.len()];
                let cut = format!("delete from inv (select qty < {cutoff} (inv))");
                let restock = format!("insert into inv (row({}, {}))", 100 + c, 5 * c + 1);

                let mut client = Client::connect(addr).unwrap();
                client.strategy(&strategy.to_string()).unwrap();
                client.branch("cut", None, &cut).unwrap();
                client.branch("restock", Some("cut"), &restock).unwrap();
                client.switch(Some("restock")).unwrap();
                let on_branch = client.query("inv").unwrap();
                let summed = client.query("aggregate [; count, sum qty] (inv)").unwrap();
                client.switch(None).unwrap();
                let at_root = client.query("inv").unwrap();
                client.bye().unwrap();

                // The oracle: the same branch tree evaluated in-process
                // on a CoW snapshot of the same base.
                let db = base_db();
                let mut tree = WhatIfTree::new();
                tree.branch(&db, "cut", None, &cut).unwrap();
                tree.branch(&db, "restock", Some("cut"), &restock).unwrap();
                let want_branch = tree.query_at(&db, "restock", "inv", strategy).unwrap();
                let want_summed = tree
                    .query_at(
                        &db,
                        "restock",
                        "aggregate [; count, sum qty] (inv)",
                        strategy,
                    )
                    .unwrap();
                assert_eq!(on_branch, want_branch, "client {c} ({strategy})");
                assert_eq!(summed, want_summed, "client {c} ({strategy})");
                assert_eq!(at_root, db.query("inv").unwrap(), "client {c} root");
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    // Base data on the server never moved, and every session was seen.
    let m = handle.metrics();
    assert_eq!(
        m.connections.load(std::sync::atomic::Ordering::Relaxed),
        CLIENTS as u64
    );
    assert_eq!(m.errors.load(std::sync::atomic::Ordering::Relaxed), 0);
    let mut probe = Client::connect(addr).unwrap();
    assert_eq!(probe.query("inv").unwrap().len(), 8);

    probe.shutdown().unwrap();
    handle.join();
}

#[test]
fn stats_reconcile_with_request_count() {
    // Workers cap concurrent sessions; we hold three connections open.
    let handle = start(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    // Sequential traffic so the expected totals are exact.
    let mut clients: Vec<Client> = (0..3).map(|_| Client::connect(addr).unwrap()).collect();
    for c in clients.iter_mut() {
        c.ping().unwrap();
        c.query("inv").unwrap();
        c.query("select qty >= 20 (inv)").unwrap();
    }
    // One error, deliberately.
    assert!(clients[0].query("select (").is_err());

    // 3×3 fine requests + 1 error = 10 before this STATS (the render
    // happens before the STATS request itself is recorded).
    let stats = clients[0].stats_map().unwrap();
    assert_eq!(stats["server.requests"], 10);
    assert_eq!(stats["server.errors"], 1);
    assert_eq!(stats["server.connections"], 3);
    assert_eq!(stats["verb.PING.count"], 3);
    assert_eq!(stats["verb.QUERY.count"], 7);
    assert_eq!(stats["verb.QUERY.errors"], 1);
    assert!(stats["server.bytes_in"] > 0);
    assert!(stats["server.bytes_out"] > 0);
    assert!(stats.contains_key("verb.QUERY.p50_us"), "{stats:?}");
    assert!(stats.contains_key("verb.QUERY.p99_us"), "{stats:?}");

    // The live registry agrees (now including the STATS request).
    let m = handle.metrics();
    assert_eq!(m.requests.load(std::sync::atomic::Ordering::Relaxed), 11);
    assert_eq!(
        m.verb(hypoquery_server::Verb::Stats)
            .count
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );

    let c = clients.pop().unwrap();
    c.shutdown().unwrap();
    handle.join();
    // The connections that woke idle workers for shutdown were not
    // clients.
    assert_eq!(m.connections.load(std::sync::atomic::Ordering::Relaxed), 3);
}

#[test]
fn index_verbs_roundtrip_and_stats_counters_reconcile() {
    let handle = start(ServerConfig::default());
    let addr = handle.addr();
    let mut c = Client::connect(addr).unwrap();

    // The index counters belong to the served database; reconcile deltas
    // around this test's own traffic rather than absolute values.
    let before = c.stats_map().unwrap();
    for key in ["index.hits", "index.misses", "index.builds"] {
        assert!(before.contains_key(key), "{before:?}");
    }

    // Declare by attribute name; the note names the resolved position.
    assert_eq!(c.create_index("inv", "qty").unwrap(), "index inv.1");
    assert!(c
        .create_index("inv", "1")
        .unwrap()
        .contains("already declared"));

    // First point query builds the index (one miss, one build) …
    assert_eq!(c.query("select qty = 40 (inv)").unwrap().len(), 1);
    // … the second is answered from cache (a hit), zero new builds.
    assert_eq!(c.query("select qty = 40 (inv)").unwrap().len(), 1);
    let after = c.stats_map().unwrap();
    let delta = |k: &str| after[k] - before[k];
    assert!(delta("index.builds") >= 1, "{after:?}");
    assert!(delta("index.hits") >= 1, "{after:?}");
    // Every build was requested through a miss: misses keep pace.
    assert!(delta("index.misses") >= delta("index.builds"), "{after:?}");

    // UNINDEX round-trip.
    assert_eq!(c.drop_index("inv", "qty").unwrap(), "dropped index inv.1");
    assert_eq!(c.drop_index("inv", "1").unwrap(), "no index inv.1");

    // Error replies: unknown relation and out-of-range column, both verbs.
    for (rel, col) in [("nosuch", "0"), ("inv", "9")] {
        let e = c.create_index(rel, col).unwrap_err();
        assert_eq!(e.code(), Some(ErrCode::Storage), "{e}");
        let e = c.drop_index(rel, col).unwrap_err();
        assert_eq!(e.code(), Some(ErrCode::Storage), "{e}");
    }
    // Malformed argument shapes are protocol errors.
    let e = c.create_index("inv", "").unwrap_err();
    assert_eq!(e.code(), Some(ErrCode::Proto), "{e}");
    let e = c.create_index("inv", "qty extra").unwrap_err();
    assert_eq!(e.code(), Some(ErrCode::Proto), "{e}");

    c.shutdown().unwrap();
    handle.join();
}

#[test]
fn malformed_requests_answer_and_keep_the_connection() {
    let handle = start(quick_config());
    let addr = handle.addr();

    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    eat_hello(&mut s);

    // Unknown verb.
    write_frame(&mut s, b"BOGUS do things").unwrap();
    match reply_of(&mut s) {
        Reply::Err(e) => assert_eq!(e.code, ErrCode::Proto, "{e}"),
        other => panic!("{other:?}"),
    }
    // Not UTF-8.
    write_frame(&mut s, &[0xff, 0xfe, 0x00]).unwrap();
    match reply_of(&mut s) {
        Reply::Err(e) => assert_eq!(e.code, ErrCode::Proto, "{e}"),
        other => panic!("{other:?}"),
    }
    // Empty payload.
    write_frame(&mut s, b"").unwrap();
    match reply_of(&mut s) {
        Reply::Err(e) => assert_eq!(e.code, ErrCode::Proto, "{e}"),
        other => panic!("{other:?}"),
    }
    // ... and the connection still works.
    write_frame(&mut s, b"PING").unwrap();
    assert!(matches!(reply_of(&mut s), Reply::Ok(n) if n == "pong"));

    let m = handle.metrics();
    assert_eq!(m.errors.load(std::sync::atomic::Ordering::Relaxed), 3);
    drop(s);
    handle.shutdown();
    handle.join();
}

/// A query nested past the parser's limit is an `ERR parse`, not a stack
/// overflow that aborts the process: the same connection, and a new one,
/// are still served.
#[test]
fn deep_query_is_refused_and_the_server_lives() {
    let handle = start(quick_config());
    let mut c = Client::connect(handle.addr()).unwrap();
    let chain: String = (0..3000)
        .map(|i| format!(" union select #0 = {i} (inv)"))
        .collect();
    for deep in [
        format!("{}inv{}", "(".repeat(1000), ")".repeat(1000)),
        format!("inv{chain}"),
    ] {
        match c.query(&deep) {
            Err(ClientError::Server(e)) => {
                assert_eq!(e.code, ErrCode::Parse, "{e}");
                assert!(e.message.contains(&format!("limit of {MAX_DEPTH}")), "{e}");
            }
            other => panic!("{other:?}"),
        }
        c.ping().unwrap();
    }
    assert_eq!(c.query("inv").unwrap().len(), 8);
    Client::connect(handle.addr()).unwrap().ping().unwrap();
    handle.shutdown();
    handle.join();
}

#[test]
fn oversized_request_is_refused_and_connection_closed() {
    let handle = start(ServerConfig {
        max_request_bytes: 256,
        ..quick_config()
    });
    let addr = handle.addr();

    // The well-behaved client refuses to send it at all (it saw the
    // advertised limit in the greeting).
    let mut polite = Client::connect(addr).unwrap();
    assert_eq!(polite.server_max_request_bytes(), 256);
    let huge = format!("QUERY {}", "x".repeat(1024));
    let err = polite.raw_line(&huge).unwrap_err();
    assert_eq!(err.code(), Some(ErrCode::TooLarge), "{err}");

    // A rude client gets told and hung up on — without the server ever
    // reading the kilobyte.
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    eat_hello(&mut s);
    s.write_all(&(1024u32).to_be_bytes()).unwrap();
    s.write_all(&[b'x'; 1024]).unwrap();
    match reply_of(&mut s) {
        Reply::Err(e) => {
            assert_eq!(e.code, ErrCode::TooLarge, "{e}");
            assert!(e.message.contains("256"), "{e}");
        }
        other => panic!("{other:?}"),
    }
    // Closed: the next read sees EOF (or, if the kernel raced the
    // server's payload drain, a reset — either way the connection is
    // gone).
    match read_frame(&mut s, u32::MAX) {
        Ok(None) => {}
        Err(FrameError::Io(e)) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("expected closed connection, got {other:?}"),
    }

    handle.shutdown();
    handle.join();
}

#[test]
fn stalled_request_times_out_within_the_configured_window() {
    let config = quick_config(); // 200 ms read timeout
    let read_timeout = config.read_timeout;
    let handle = start(config);
    let addr = handle.addr();

    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    eat_hello(&mut s);

    // Claim 100 bytes, send 5, then stall.
    s.write_all(&(100u32).to_be_bytes()).unwrap();
    s.write_all(b"QUERY").unwrap();
    let started = Instant::now();
    match reply_of(&mut s) {
        Reply::Err(e) => assert_eq!(e.code, ErrCode::Timeout, "{e}"),
        other => panic!("{other:?}"),
    }
    let waited = started.elapsed();
    assert!(
        waited >= read_timeout && waited < read_timeout + Duration::from_secs(2),
        "timed out after {waited:?} (configured {read_timeout:?})"
    );
    // And the connection is gone.
    let mut rest = Vec::new();
    assert_eq!(s.read_to_end(&mut rest).unwrap(), 0);

    handle.shutdown();
    handle.join();
}

#[test]
fn idle_connection_is_hung_up_after_idle_timeout() {
    let handle = start(ServerConfig {
        read_timeout: Duration::from_millis(50),
        idle_timeout: Duration::from_millis(150),
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    eat_hello(&mut s);
    // Stay silent past the idle window: the server hangs up (EOF), no
    // error frame owed.
    let mut rest = Vec::new();
    assert_eq!(s.read_to_end(&mut rest).unwrap(), 0);

    handle.shutdown();
    handle.join();
}

#[test]
fn shutdown_verb_stops_the_server_gracefully() {
    let handle = start(quick_config());
    let addr = handle.addr();

    let mut c1 = Client::connect(addr).unwrap();
    c1.query("inv").unwrap();
    let c2 = Client::connect(addr).unwrap();
    c2.shutdown().unwrap();

    assert!(handle.is_shutting_down());
    handle.join(); // all threads exit; would hang the test otherwise

    // New connections are refused (or accepted-and-dropped, never served).
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut s) => {
            s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let mut buf = Vec::new();
            assert_eq!(s.read_to_end(&mut buf).unwrap_or(0), 0, "{buf:?}");
        }
    }
}

#[test]
fn connections_beyond_the_pool_wait_for_a_worker() {
    let handle = start(ServerConfig {
        workers: 1,
        ..quick_config()
    });
    let addr = handle.addr();

    let mut a = Client::connect(addr).unwrap();
    a.ping().unwrap();
    // B's connection completes in the kernel's backlog, but the one
    // worker is busy with A: no greeting.
    let mut b = TcpStream::connect(addr).unwrap();
    b.set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    match read_frame(&mut b, u32::MAX) {
        Err(FrameError::Io(e))
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) => {}
        other => panic!("expected no greeting while A holds the worker, got {other:?}"),
    }
    // A leaves; the worker takes B.
    a.bye().unwrap();
    b.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    eat_hello(&mut b);
    write_frame(&mut b, b"PING").unwrap();
    assert!(matches!(reply_of(&mut b), Reply::Ok(n) if n == "pong"));

    drop(b);
    handle.shutdown();
    handle.join();
}

#[test]
fn shutdown_wakes_idle_workers() {
    for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
        let config = ServerConfig {
            addr: addr.into(),
            workers: 4,
            ..quick_config()
        };
        let handle = serve(config, base_db()).unwrap();
        // Give every worker time to block in `accept`.
        std::thread::sleep(Duration::from_millis(100));
        let started = Instant::now();
        let (done, joined) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            handle.shutdown();
            handle.join();
            done.send(handle).unwrap();
        });
        let handle = joined
            .recv_timeout(Duration::from_secs(1))
            .unwrap_or_else(|_| panic!("{addr}: join did not return within 1 s"));
        assert!(started.elapsed() < Duration::from_secs(1), "{addr}");
        // Wake-ups are not clients.
        let m = handle.metrics();
        assert_eq!(m.connections.load(std::sync::atomic::Ordering::Relaxed), 0);
    }
}
