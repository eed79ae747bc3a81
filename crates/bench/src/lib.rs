//! # hypoquery-bench
//!
//! Benchmark harness reproducing every quantitative claim of
//! Griffin & Hull (SIGMOD 1997). The paper is an extended abstract with no
//! measured tables; each experiment regenerates a *claim* from the examples
//! or §5.5 — see DESIGN.md §5 for the experiment index and EXPERIMENTS.md
//! for paper-vs-measured results.
//!
//! The `report` binary is the one experiment runner: `cargo run --release
//! -p hypoquery-bench --bin report [eN …]` prints the tables recorded in
//! EXPERIMENTS.md and writes each experiment's metrics to `BENCH_eN.json`.

#![warn(missing_docs)]

pub mod workload;
