//! `hypoquery-serve` — serve a database over the HQL wire protocol.
//!
//! ```text
//! hypoquery-serve [--addr HOST:PORT] [--workers N] [--load DUMP_FILE]
//!                 [--read-timeout-ms N] [--idle-timeout-ms N]
//!                 [--max-request-bytes N]
//! ```
//!
//! Starts empty unless `--load` points at a `hypoquery_storage::dump`
//! file. Stops on the `SHUTDOWN` verb from any client, or on a
//! `shutdown` line on stdin (the dependency-free stand-in for signal
//! handling — wire a process supervisor to either).

use std::io::BufRead;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use hypoquery_engine::Database;
use hypoquery_server::{serve, ServerConfig};

fn usage() -> ExitCode {
    eprintln!(
        "usage: hypoquery-serve [--addr HOST:PORT] [--workers N] [--load DUMP_FILE]\n\
         \u{20}                      [--read-timeout-ms N] [--idle-timeout-ms N]\n\
         \u{20}                      [--max-request-bytes N]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut config = ServerConfig::default();
    let mut load: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut take = |name: &str| -> Option<String> {
            let v = args.next();
            if v.is_none() {
                eprintln!("{name} needs a value");
            }
            v
        };
        match flag.as_str() {
            "--addr" => match take("--addr") {
                Some(v) => config.addr = v,
                None => return usage(),
            },
            "--workers" => match take("--workers").and_then(|v| v.parse().ok()) {
                Some(n) => config.workers = n,
                None => return usage(),
            },
            "--load" => match take("--load") {
                Some(v) => load = Some(v),
                None => return usage(),
            },
            "--read-timeout-ms" => match take("--read-timeout-ms").and_then(|v| v.parse().ok()) {
                Some(ms) => config.read_timeout = Duration::from_millis(ms),
                None => return usage(),
            },
            "--idle-timeout-ms" => match take("--idle-timeout-ms").and_then(|v| v.parse().ok()) {
                Some(ms) => config.idle_timeout = Duration::from_millis(ms),
                None => return usage(),
            },
            "--max-request-bytes" => {
                match take("--max-request-bytes").and_then(|v| v.parse().ok()) {
                    Some(n) => config.max_request_bytes = n,
                    None => return usage(),
                }
            }
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown flag {other:?}");
                return usage();
            }
        }
    }

    let db = match &load {
        None => Database::new(),
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match Database::restore(&text) {
                Ok(db) => db,
                Err(e) => {
                    eprintln!("cannot load {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    let handle = match serve(config, db) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cannot start server: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("hypoquery-serve listening on {}", handle.addr());
    if let Some(path) = load {
        println!("loaded {path}");
    }
    println!("send the SHUTDOWN verb (or type `shutdown`) to stop");

    // Stdin watcher: `shutdown`/`quit` stops the server; EOF (e.g. when
    // daemonized with stdin closed) just stops watching. `join` returns
    // after this or a client's SHUTDOWN verb.
    let handle = Arc::new(handle);
    {
        let handle = Arc::clone(&handle);
        std::thread::spawn(move || {
            let mut lines = std::io::stdin().lock().lines().map_while(Result::ok);
            if lines.any(|l| matches!(l.trim(), "shutdown" | "quit" | "exit")) {
                handle.shutdown();
            }
        });
    }
    handle.join();
    println!("bye");
    ExitCode::SUCCESS
}
