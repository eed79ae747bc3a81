//! # hypoquery-engine
//!
//! The public facade of the `hypoquery` framework:
//!
//! * [`Database`] — schema definition, loading, real (constraint-checked)
//!   updates, and hypothetical queries with a selectable evaluation
//!   [`Strategy`] spanning the paper's eager↔lazy spectrum, plus
//!   `EXPLAIN`;
//! * [`WhatIfTree`] — named trees of hypothetical updates (the
//!   decision-support scenario of Example 2.1);
//! * [`PreparedState`] — Example 2.2's families of queries over one
//!   prepared hypothetical state (`PREPARE`/`EXEC`), planned by the same
//!   planner as every other query;
//! * [`ext`] — §6 extensions: temporary tables as substitutions and
//!   `η₁ when η₂`.

#![warn(missing_docs)]

pub mod database;
pub mod error;
pub mod ext;
pub mod prepared;
pub mod savepoint;
pub mod whatif;

pub use database::{render_table, Constraint, Database, Strategy};
pub use error::EngineError;
pub use ext::{state_when, TempTables};
/// The query AST that [`Database::parse`] and [`Database::prepare`] return.
pub use hypoquery_algebra::Query;
/// The deepest nesting a query may have: past it, parsing or running it
/// is a [`EngineError::Parse`] naming the limit.
pub use hypoquery_algebra::MAX_DEPTH;
/// The stack a thread needs to run any query within [`MAX_DEPTH`]: run a
/// [`Database`] that takes untrusted input on a thread of this size.
pub use hypoquery_algebra::MAX_DEPTH_STACK;
/// Reads `LOAD`'s inline rows, `(v, …) (v, …)`, with the query
/// language's literals.
pub use hypoquery_parser::parse_rows;
pub use prepared::PreparedState;
pub use savepoint::Transaction;
pub use whatif::WhatIfTree;
