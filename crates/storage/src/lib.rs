//! # hypoquery-storage
//!
//! Relational storage substrate for the `hypoquery` reproduction of
//! Griffin & Hull, *A Framework for Implementing Hypothetical Queries*
//! (SIGMOD 1997).
//!
//! Provides the objects §3.1 of the paper quantifies over:
//!
//! * [`Value`] / [`Tuple`] — scalar domains and fixed-arity rows;
//! * [`Relation`] — finite sets of same-arity tuples with the standard set
//!   operations (set semantics, deterministic sorted iteration);
//! * [`Catalog`] — a database schema Σ: relation names with fixed arities;
//! * [`DatabaseState`] — a state `DB : Σ → R`, with the functional update
//!   `DB[R ← V]` used throughout the paper's semantics.

#![warn(missing_docs)]

pub mod bag;
pub mod chain;
pub mod database;
pub mod dump;
pub mod error;
pub mod index;
pub mod relation;
pub mod schema;
pub mod tuple;
pub mod value;

pub use bag::BagRelation;
pub use chain::KeyedRows;
pub use database::DatabaseState;
pub use dump::{decode_tuple, dump_state, encode_tuple, load_state, DumpError};
pub use error::StorageError;
pub use index::{distinct_counts, lookup_or_build_index, IndexCounters, IndexStats};
pub use relation::{KeyRange, Relation};
pub use schema::{Catalog, RelName, RelSchema};
pub use tuple::{Row, Tuple};
pub use value::{Value, ValueType};
