//! The update language `U` (§3.1).
//!
//! ```text
//! U ::= ins(R, Q)   insert the value of Q into R
//!     | del(R, Q)   delete the value of Q from R
//!     | (U ; U)     sequence
//! ```
//!
//! Plus the §6 extension [`Update::Cond`]: a conditional update guarded by
//! the non-emptiness of a query. The paper notes such constructs "don't
//! extend the expressive power of the update language, but … dramatically
//! increase the conciseness"; `hypoquery-core::slice` compiles conditionals
//! away into pure substitutions using 0-ary guard relations, preserving
//! Theorem 3.10.

use std::fmt;

use hypoquery_storage::RelName;

use crate::query::Query;

/// An update expression.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Update {
    /// `ins(R, Q)`: `R ← R ∪ Q`.
    Insert(RelName, Query),
    /// `del(R, Q)`: `R ← R − Q`.
    Delete(RelName, Query),
    /// `(U₁ ; U₂)`: run `U₁`, then `U₂`.
    Seq(Box<Update>, Box<Update>),
    /// §6 extension: if `guard` is non-empty run `then_u`, else `else_u`.
    Cond {
        /// Guard query; tested for non-emptiness.
        guard: Query,
        /// Branch taken when the guard is non-empty.
        then_u: Box<Update>,
        /// Branch taken when the guard is empty.
        else_u: Box<Update>,
    },
}

impl Update {
    /// `ins(R, Q)`.
    pub fn insert(rel: impl Into<RelName>, q: Query) -> Update {
        Update::Insert(rel.into(), q)
    }

    /// `del(R, Q)`.
    pub fn delete(rel: impl Into<RelName>, q: Query) -> Update {
        Update::Delete(rel.into(), q)
    }

    /// `(self ; next)`.
    pub fn then(self, next: Update) -> Update {
        Update::Seq(Box::new(self), Box::new(next))
    }

    /// Fold a non-empty list of updates into a left-nested sequence.
    ///
    /// Panics on an empty list — the grammar has no empty update.
    pub fn seq(updates: impl IntoIterator<Item = Update>) -> Update {
        let mut it = updates.into_iter();
        let first = it.next().expect("Update::seq requires at least one update");
        it.fold(first, Update::then)
    }

    /// Conditional update (§6 extension).
    pub fn cond(guard: Query, then_u: Update, else_u: Update) -> Update {
        Update::Cond {
            guard,
            then_u: Box::new(then_u),
            else_u: Box::new(else_u),
        }
    }

    /// Whether this update is a single atomic insert or delete — the shape
    /// required inside mod-ENF hypothetical updates (§5.5).
    pub fn is_atomic(&self) -> bool {
        matches!(self, Update::Insert(_, _) | Update::Delete(_, _))
    }

    /// Flatten a sequence tree into the list of its leaf updates, in
    /// execution order.
    pub fn flatten(&self) -> Vec<&Update> {
        match self {
            Update::Seq(a, b) => {
                let mut v = a.flatten();
                v.extend(b.flatten());
                v
            }
            u => vec![u],
        }
    }

    /// Whether every leaf of this update is atomic (i.e. the update is a
    /// sequence `A₁; …; Aₙ` of atomic inserts/deletes — mod-ENF shape).
    pub fn is_atomic_sequence(&self) -> bool {
        self.flatten().iter().all(|u| u.is_atomic())
    }

    /// Node count, for blow-up measurements.
    pub fn node_count(&self) -> usize {
        match self {
            Update::Insert(_, q) | Update::Delete(_, q) => 1 + q.node_count(),
            Update::Seq(a, b) => 1 + a.node_count() + b.node_count(),
            Update::Cond {
                guard,
                then_u,
                else_u,
            } => 1 + guard.node_count() + then_u.node_count() + else_u.node_count(),
        }
    }
}

/// HQL surface syntax. `;` parses left-associatively, so a right-nested
/// sequence is parenthesized and every update's tree round-trips.
impl fmt::Display for Update {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Update::Insert(r, q) => write!(f, "insert into {r} ({q})"),
            Update::Delete(r, q) => write!(f, "delete from {r} ({q})"),
            Update::Seq(a, b) if matches!(**b, Update::Seq(_, _)) => write!(f, "{a}; ({b})"),
            Update::Seq(a, b) => write!(f, "{a}; {b}"),
            Update::Cond {
                guard,
                then_u,
                else_u,
            } => write!(f, "if {guard} then {then_u} else {else_u} end"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{CmpOp, Predicate};

    #[test]
    fn builders_and_display() {
        let u = Update::insert(
            "R",
            Query::base("S").select(Predicate::col_cmp(0, CmpOp::Gt, 30)),
        )
        .then(Update::delete("S", Query::base("S")));
        assert_eq!(
            u.to_string(),
            "insert into R (select #0 > 30 (S)); delete from S (S)"
        );
    }

    #[test]
    fn seq_folds_left() {
        let u = Update::seq([
            Update::insert("A", Query::base("X")),
            Update::insert("B", Query::base("X")),
            Update::insert("C", Query::base("X")),
        ]);
        match &u {
            Update::Seq(ab, c) => {
                assert!(matches!(**ab, Update::Seq(_, _)));
                assert!(matches!(**c, Update::Insert(_, _)));
            }
            _ => panic!("expected sequence"),
        }
        assert_eq!(u.flatten().len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one update")]
    fn empty_seq_panics() {
        Update::seq([]);
    }

    #[test]
    fn atomicity_checks() {
        let a = Update::insert("R", Query::base("S"));
        assert!(a.is_atomic());
        assert!(a.is_atomic_sequence());
        let s = a.clone().then(Update::delete("R", Query::base("S")));
        assert!(!s.is_atomic());
        assert!(s.is_atomic_sequence());
        let c = Update::cond(Query::base("G"), a.clone(), a.clone());
        assert!(!c.is_atomic());
        assert!(!c.is_atomic_sequence());
        let with_cond = a.then(c);
        assert!(!with_cond.is_atomic_sequence());
    }

    #[test]
    fn node_count() {
        let u = Update::insert("R", Query::base("S"));
        assert_eq!(u.node_count(), 2);
        let c = Update::cond(Query::base("G"), u.clone(), u.clone());
        assert_eq!(c.node_count(), 6);
    }
}
