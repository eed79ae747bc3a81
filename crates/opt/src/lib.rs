//! # hypoquery-opt
//!
//! The conventional optimizer substrate plus the strategy planner:
//!
//! * [`implication`] — sound partial implication/unsatisfiability for
//!   comparison predicates (powers the paper's "algebraic simplification"
//!   steps);
//! * [`rewrite`] — a normalizing relational-algebra rewriter (the
//!   "conventional techniques" the lazy strategy hands off to), counting
//!   rule firings in [`hypoquery_core::RewriteTrace`];
//! * [`stats`] — cardinality statistics and a unit-cost model;
//! * [`planner`] — picks lazy / eager-xsub / eager-delta / hybrid per
//!   query, the spectrum §5 of the paper describes; the only code that
//!   gives a query its strategy's shape;
//! * [`lower`] — compiles a planned query (`&plan.query`) to a physical
//!   plan.

#![warn(missing_docs)]

pub mod implication;
pub mod lower;
pub mod planner;
pub mod rewrite;
pub mod stats;

pub use implication::{pred_implies, pred_unsat};
pub use lower::{lower_query, lower_under_xsub};
pub use planner::{plan, plan_as, Plan, PlannedStrategy};
pub use rewrite::optimize;
pub use stats::{estimate_cost, estimate_rows, Statistics};
