//! # hypoquery-eval
//!
//! Evaluation engines for HQL, spanning the paper's eager/lazy spectrum:
//!
//! * [`direct`] — the reference semantics `[[Q]]`, `[[U]]`, `[[η]]`
//!   (§3.1, §4.2) and `apply(DB, ρ)` (§3.3);
//! * [`xsub`] — xsub-values with `apply` and smash `!` (§5.3);
//! * [`filter1`](mod@filter1) — Figure 3 / Algorithm HQL-1 (node-at-a-time eager);
//! * [`filter2`](mod@filter2) — Algorithm HQL-2 over collapsed trees (clustered eager);
//! * [`delta`] — Heraclitus-style delta values, delta smash, the
//!   six-operand `join-when`, and delta-filtered evaluation (§5.5);
//! * [`filter3`](mod@filter3) — Figure 4 / Algorithm HQL-3 (delta-based eager);
//! * [`exec`] — scoped-thread fan-out for independent scenarios
//!   (copy-on-write snapshots make branches share-nothing writers);
//! * [`physical`] — the pipelined executor every strategy lowers to;
//! * [`aggregate`] — the streaming group accumulator shared by the
//!   evaluators above and the pipeline.
//!
//! The lazy strategy needs no engine of its own: `hypoquery-core::red`
//! produces a pure RA query evaluated by [`direct::eval_pure`].

#![warn(missing_docs)]

pub mod aggregate;
pub mod bag;
mod chain;
pub mod delta;
pub mod direct;
pub mod error;
pub mod exec;
pub mod filter1;
pub mod filter2;
pub mod filter3;
pub mod join;
pub mod physical;
pub mod xsub;

pub use bag::{apply_bag_subst, eval_bag_query, eval_bag_state, eval_bag_update, BagState};
pub use delta::{eval_filter_d, join_when, DeltaValue, RelDelta};
pub use direct::{apply_subst, eval_pure, eval_query, eval_state, eval_update, Resolver};
pub use error::EvalError;
pub use exec::{num_workers, parallel_map, try_parallel_map};
pub use filter1::{algorithm_hql1, filter1};
pub use filter2::{algorithm_hql2, eval_filter_x, filter2};
pub use filter3::{algorithm_hql3, filter3};
pub use physical::{DeltaAtom, ExecMetrics, OpStats, PhysNode, PhysOp, PhysPlan, Side};
pub use xsub::{materialize_subst, XsubValue};
