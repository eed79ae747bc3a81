//! Served what-if benchmark for hypoquery.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload scan|branch --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run generates a data set and an operation pool from `--seed`,
//! serves the data over the HQL wire protocol on a loopback socket, and
//! drives it with a closed loop of one client connection for `--seconds`.
//! Every reply is checked against an answer computed without the engine.
//! `--trace 0` reports end-to-end metrics; `--trace 1` reports per-layer
//! ones, from spans this harness records around the calls into each layer.
//! The last line of standard output is the JSON report.

mod pace;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hypoquery_client::Client;
use hypoquery_engine::Database;
use hypoquery_server::{serve, Reply, ServerConfig, ServerHandle};
use hypoquery_storage::{Relation, Value};

use pace::Reference;
use workload::{Data, Expect, Op, Rng, Workload};

/// Set-ups before the measurement, and again after it; `setup_s` is the
/// median of all of them, so it samples the host at two moments.
const SETUPS: usize = 10;

/// Reference chunks timed before and after a one-off measurement.
const PACE_CHUNKS: usize = 8;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload scan|branch --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match pace::pin_to_one_cpu().and_then(|()| run(&args)) {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Totals over a set of operations.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

fn run(args: &Args) -> Result<String, String> {
    let mut rng = Rng::new(args.seed);
    let data = Data::generate(&mut rng);
    let dump = data.dump();
    let pool = args.workload.pool(&data, &mut rng);
    drop(data);

    let mut pace = Reference::new();
    let mut setup_s = Vec::new();
    let setups = if args.trace { 1 } else { SETUPS };
    let mut served = set_up(&dump, &pool, setups, &mut pace, &mut setup_s)?;

    let mut tally = Tally::default();
    let warmup = Duration::from_secs_f64((args.seconds / 10.0).min(1.0));
    tally.add(&served.drive(&mut pace, &pool, warmup)?.tally);

    let seconds = Duration::from_secs_f64(args.seconds);
    let report = if args.trace {
        let before = served.stats()?;
        let loaded = served.drive(&mut pace, &pool, seconds / 2)?;
        let after = served.stats()?;
        let ping_us = served.ping_us(&mut pace)?;
        let base = served.base.clone();
        served.stop();
        tally.add(&loaded.tally);
        let replay = trace::replay(&base, &pool, &mut pace, seconds / 2)?;
        tally.add(&replay.tally);

        let ops = loaded.lat_us.len() as f64;
        let delta = |key: &str| {
            (after.get(key).copied().unwrap_or(0) as f64
                - before.get(key).copied().unwrap_or(0) as f64)
                / ops
        };
        let served_us = loaded.lat_us.iter().sum::<f64>() / ops;
        let l = &replay.layers;
        let in_process = l.parse_us + l.plan_us + l.lower_us + l.exec_us + l.codec_us;
        render(
            &tally,
            &[
                ("parse_us", l.parse_us, "us"),
                ("plan_us", l.plan_us, "us"),
                ("lower_us", l.lower_us, "us"),
                ("exec_us", l.exec_us, "us"),
                ("codec_us", l.codec_us, "us"),
                ("served_us", served_us, "us"),
                ("wire_us", served_us - in_process, "us"),
                ("ping_us", ping_us, "us"),
                ("rows_moved", l.rows_moved, "count"),
                ("operators", l.operators, "count"),
                ("result_rows", l.result_rows, "count"),
                ("index_hits", delta("index.hits"), "count"),
                (
                    "wire_bytes",
                    delta("server.bytes_in") + delta("server.bytes_out"),
                    "bytes",
                ),
            ],
        )?
    } else {
        let loaded = served.drive(&mut pace, &pool, seconds)?;
        served.stop();
        set_up(&dump, &pool, setups, &mut pace, &mut setup_s)?.stop();
        tally.add(&loaded.tally);
        let mut lat = loaded.lat_us;
        lat.sort_by(f64::total_cmp);
        render(
            &tally,
            &[
                ("p50_ms", quantile(&lat, 0.50) / 1e3, "ms"),
                ("p90_ms", quantile(&lat, 0.90) / 1e3, "ms"),
                (
                    "throughput",
                    lat.len() as f64 / (lat.iter().sum::<f64>() / 1e6),
                    "1/s",
                ),
                ("setup_s", median(&mut setup_s), "s"),
            ],
        )?
    };
    Ok(report)
}

/// Set up `n` times in a row, recording each set-up's time (scaled by the
/// host pace just before and after it, see [`pace`]), and keep the last
/// server running.
fn set_up(
    dump: &str,
    pool: &[Op],
    n: usize,
    pace: &mut Reference,
    times: &mut Vec<f64>,
) -> Result<Served, String> {
    let mut served: Option<Served> = None;
    for _ in 0..n {
        if let Some(old) = served.take() {
            old.stop();
        }
        times.push(pace.scaled(PACE_CHUNKS, || {
            let t = Instant::now();
            served = Some(Served::start(dump, pool)?);
            Ok(t.elapsed().as_secs_f64())
        })?);
    }
    served.ok_or_else(|| "no set-up ran".to_string())
}

/// A running server over the seeded data, with its one connected client.
/// The load is a closed loop: the client sends its next request only after
/// the previous reply. A second client on the 2-vCPU tuning host made the
/// program's own threads compete for the cores, and tail latencies were
/// then mostly scheduling noise.
struct Served {
    handle: ServerHandle,
    client: Client,
    /// The database the server was started with (for in-process replay).
    base: Database,
}

/// What a closed-loop drive measured: the latencies in µs, scaled by the
/// host pace, of the operations in the faster half of its windows (see
/// [`Reference::paced`]).
struct Loaded {
    tally: Tally,
    lat_us: Vec<f64>,
}

impl Served {
    /// The set-up a deployment pays before answering: restore the dump,
    /// declare the key indexes, start the server, connect the client and
    /// get its first answer (which builds the lazily built indexes).
    fn start(dump: &str, pool: &[Op]) -> Result<Served, String> {
        let mut db = Database::restore(dump).map_err(|e| format!("restore: {e}"))?;
        for rel in ["R", "S"] {
            db.create_index(rel, 0)
                .map_err(|e| format!("index {rel}: {e}"))?;
        }
        let base = db.clone();
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            ..ServerConfig::default()
        };
        let handle = serve(config, db).map_err(|e| format!("serve: {e}"))?;
        let client = match Client::connect_with(handle.addr(), Duration::from_secs(60)) {
            Ok(client) => client,
            Err(e) => {
                handle.shutdown();
                handle.join();
                return Err(format!("connect: {e}"));
            }
        };
        let mut served = Served {
            handle,
            client,
            base,
        };
        if !run_op(&mut served.client, &pool[0]).1 {
            served.stop();
            return Err("wrong or failed first answer".into());
        }
        Ok(served)
    }

    /// Close the connection, then stop the server and wait for its threads.
    fn stop(self) {
        drop(self.client);
        self.handle.shutdown();
        self.handle.join();
    }

    /// Run the closed loop for `dur`, walking the pool in order.
    fn drive(
        &mut self,
        pace: &mut Reference,
        pool: &[Op],
        dur: Duration,
    ) -> Result<Loaded, String> {
        let mut tally = Tally::default();
        let client = &mut self.client;
        let samples = pace.paced(dur, |i| {
            let (took, ok) = run_op(client, &pool[i % pool.len()]);
            tally.attempted += 1;
            tally.failed += u64::from(!ok);
            Ok((took.as_secs_f64() * 1e6, ()))
        })?;
        Ok(Loaded {
            tally,
            lat_us: samples
                .into_iter()
                .map(|(scale, us, ())| us * scale)
                .collect(),
        })
    }

    fn stats(&mut self) -> Result<std::collections::BTreeMap<String, u64>, String> {
        self.client.stats_map().map_err(|e| format!("stats: {e}"))
    }

    /// Mean round trip of a thousand `PING`s: the transport floor.
    fn ping_us(&mut self, pace: &mut Reference) -> Result<f64, String> {
        const PINGS: u32 = 1000;
        pace.scaled(PACE_CHUNKS, || {
            let t = Instant::now();
            for _ in 0..PINGS {
                self.client.ping().map_err(|e| format!("ping: {e}"))?;
            }
            Ok(t.elapsed().as_secs_f64() * 1e6 / f64::from(PINGS))
        })
    }
}

/// Send every request of `op`; the time covers the requests only, not the
/// checks. `false` when a request failed or a reply was wrong.
fn run_op(client: &mut Client, op: &Op) -> (Duration, bool) {
    let mut took = Duration::ZERO;
    for step in &op.steps {
        let t = Instant::now();
        let reply = client.request(&step.req);
        took += t.elapsed();
        match reply {
            Ok(reply) if reply_matches(&reply, &step.expect) => {}
            _ => return (took, false),
        }
    }
    (took, true)
}

pub(crate) fn reply_matches(reply: &Reply, expect: &Expect) -> bool {
    match (reply, expect) {
        (Reply::Ok(_), Expect::Ok) => true,
        (Reply::Rows(rel), Expect::Rows(rows)) => int_rows(rel).as_ref() == Some(rows),
        _ => false,
    }
}

/// The relation's rows as sorted integer vectors (`None` if a value is not
/// an integer).
fn int_rows(rel: &Relation) -> Option<Vec<Vec<i64>>> {
    let mut rows = rel
        .iter()
        .map(|t| t.fields().iter().map(Value::as_int).collect())
        .collect::<Option<Vec<Vec<i64>>>>()?;
    rows.sort();
    Some(rows)
}

/// Nearest-rank quantile of sorted values.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len().max(1));
    sorted.get(rank - 1).copied().unwrap_or(f64::NAN)
}

pub(crate) fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// The report line: `{"correct", "attempted", "failed", "metrics"}`.
fn render(tally: &Tally, metrics: &[(&str, f64, &str)]) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a number ({value})"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    Ok(out)
}
