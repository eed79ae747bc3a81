//! # hypoquery-core
//!
//! The primary contribution of Griffin & Hull (SIGMOD 1997): the
//! substitution calculus connecting hypothetical states to explicit
//! substitutions, the reduction function underlying the lazy strategy, the
//! EQUIV_when equational theory, and the normal forms the evaluation
//! algorithms consume.
//!
//! * [`subst`] — `sub`, composition `#` (Lemma 3.2), `slice` (§3.4);
//! * [`red`] — the reduction function `red` of §4.3 (Theorems 3.10 / 4.1);
//! * [`lazy`] — `red` as a traced rewrite derivation, with the
//!   binding-removal optimization of Example 2.3;
//! * [`equiv`] — the EQUIV_when rule family of Figure 1, ENF
//!   normalization (§5.2), and [`RewriteTrace`], the per-rule firing
//!   counts every rewriter in the workspace records into;
//! * [`enf`] — collapsed syntax trees (§5.4) and modified ENF (§5.5).

#![warn(missing_docs)]

pub mod enf;
pub mod equiv;
pub mod lazy;
pub mod red;
pub mod subst;

pub use enf::{collapse, is_mod_enf, to_mod_enf, CollapsedTree, EnfError};
pub use equiv::{is_enf_query, simplify_enf, to_enf_query, to_enf_state, RewriteTrace, Rule};
pub use lazy::{fully_lazy, lazy_state, Simplify};
pub use red::{red_query, red_state, red_update};
pub use subst::{compose_pure, compose_suspended, slice, slice_hql, sub_query, SubstError};
