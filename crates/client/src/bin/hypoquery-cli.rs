//! `hypoquery-cli` — the interactive HQL shell.
//!
//! ```text
//! hypoquery-cli [--addr HOST:PORT] [--local]
//! ```
//!
//! Connects to a running `hypoquery-serve` (default `127.0.0.1:7877`).
//! With `--local`, or when no explicit `--addr` was given and nothing is
//! listening, it drives an in-process session instead — same commands,
//! private database.
//!
//! Reads commands from stdin; set `HQL_INTERACTIVE=1` for a `hql>`
//! prompt. Try `help` once inside.

use std::io;
use std::process::ExitCode;
use std::thread;

use hypoquery_client::repl::{Backend, Repl};
use hypoquery_engine::MAX_DEPTH_STACK;
use hypoquery_server::proto::DEFAULT_PORT;

fn main() -> ExitCode {
    let mut addr: Option<String> = None;
    let mut local = false;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--addr" => match args.next() {
                Some(v) => addr = Some(v),
                None => {
                    eprintln!("--addr needs a value");
                    return ExitCode::from(2);
                }
            },
            "--local" => local = true,
            "--help" | "-h" => {
                println!("usage: hypoquery-cli [--addr HOST:PORT] [--local]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown flag {other:?}");
                eprintln!("usage: hypoquery-cli [--addr HOST:PORT] [--local]");
                return ExitCode::from(2);
            }
        }
    }

    let backend = if local {
        println!("hypoquery shell (in-process) — `help` for commands");
        Backend::local()
    } else if let Some(addr) = addr {
        // Explicit address: failing to reach it is an error, not a
        // silent fallback.
        match Backend::connect(&addr) {
            Ok(b) => {
                println!("connected to {addr} — `help` for commands");
                b
            }
            Err(e) => {
                eprintln!("cannot connect to {addr}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let default = format!("127.0.0.1:{DEFAULT_PORT}");
        let (b, remote) = Backend::connect_or_local(&default);
        if remote {
            println!("connected to {default} — `help` for commands");
        } else {
            println!("no server at {default}; in-process session — `help` for commands");
        }
        b
    };

    let prompt = std::env::var("HQL_INTERACTIVE").is_ok();
    // An in-process session parses and runs queries on this thread: give
    // it the stack a query at the nesting limit needs.
    let repl = thread::Builder::new()
        .stack_size(MAX_DEPTH_STACK)
        .spawn(move || {
            let stdin = io::stdin();
            let mut input = stdin.lock();
            Repl::new(backend).run(&mut input, &mut io::stdout(), prompt)
        });
    match repl.map(|t| t.join()) {
        Ok(Ok(Ok(()))) => ExitCode::SUCCESS,
        Ok(Ok(Err(e))) => {
            eprintln!("i/o error: {e}");
            ExitCode::FAILURE
        }
        Ok(Err(_)) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("cannot start the shell: {e}");
            ExitCode::FAILURE
        }
    }
}
