//! # hypoquery-algebra
//!
//! Abstract syntax for HQL — the Hypothetical Query Language of
//! Griffin & Hull (SIGMOD 1997) — together with its scoping and typing
//! rules.
//!
//! * [`Query`] — relational algebra extended with `when` at any nesting
//!   level (the paper's RA_hyp, §4.1);
//! * [`Update`] — the update language `U` (§3.1), plus the §6 conditional
//!   extension;
//! * [`StateExpr`] / [`ExplicitSubst`] — hypothetical-state expressions `η`
//!   and explicit substitutions `ε` (§4.1);
//! * [`scope`] — the `free`/`dom` functions of Figure 2;
//! * [`typing`] — the "usual" arity typing rules made explicit.
//!
//! The semantics of all of these live in `hypoquery-eval`; the substitution
//! calculus (`sub`, `#`, `slice`, `red`) and the EQUIV_when rewriting system
//! live in `hypoquery-core`.

#![warn(missing_docs)]

pub mod attrs;
pub mod depth;
pub mod predicate;
pub mod query;
pub mod scope;
pub mod state_expr;
pub mod typing;
pub mod update;

pub use attrs::{attrs_of, position_of};
pub use depth::{MAX_DEPTH, MAX_DEPTH_STACK};
pub use predicate::{CmpOp, Predicate, ScalarExpr};
pub use query::{AggExpr, Query};
pub use state_expr::{ExplicitSubst, StateExpr};
pub use typing::TypeError;
pub use update::Update;
