//! Hypothetical-state expressions `η` and explicit substitutions `ε` (§4.1).
//!
//! ```text
//! η ::= ε            explicit substitution
//!     | {U}          hypothetical state reached by U
//!     | η # η        composition
//!
//! ε ::= {Q₁/S₁, …, Qⱼ/Sⱼ}   (j ≥ 0, Sᵢ distinct, Qᵢ ∈ RA_hyp)
//! ```
//!
//! An explicit substitution's bindings may themselves contain `when` — the
//! bound queries are full HQL queries. Bindings are kept sorted by relation
//! name, which makes structural equality of substitutions independent of
//! the order bindings were written in.

use std::fmt;

use hypoquery_storage::RelName;

use crate::query::Query;
use crate::update::Update;

/// An explicit substitution `{Q₁/S₁, …, Qⱼ/Sⱼ}`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ExplicitSubst {
    /// Bindings sorted by relation name; names are distinct.
    bindings: Vec<(RelName, Query)>,
}

impl ExplicitSubst {
    /// The empty substitution `{}`.
    pub fn empty() -> Self {
        ExplicitSubst::default()
    }

    /// Build from bindings. Later bindings for the same name replace
    /// earlier ones (names must be distinct in the formal syntax; this
    /// constructor normalizes instead of erroring).
    pub fn new(bindings: impl IntoIterator<Item = (RelName, Query)>) -> Self {
        let mut s = ExplicitSubst::empty();
        for (name, q) in bindings {
            s.bind(name, q);
        }
        s
    }

    /// Single binding `{q/name}`.
    pub fn single(name: impl Into<RelName>, q: Query) -> Self {
        ExplicitSubst {
            bindings: vec![(name.into(), q)],
        }
    }

    /// Add or replace the binding for `name`.
    pub fn bind(&mut self, name: impl Into<RelName>, q: Query) {
        let name = name.into();
        match self.bindings.binary_search_by(|(n, _)| n.cmp(&name)) {
            Ok(i) => self.bindings[i].1 = q,
            Err(i) => self.bindings.insert(i, (name, q)),
        }
    }

    /// The query bound to `name`, if any.
    pub fn get(&self, name: &RelName) -> Option<&Query> {
        self.bindings
            .binary_search_by(|(n, _)| n.cmp(name))
            .ok()
            .map(|i| &self.bindings[i].1)
    }

    /// `ε₋R`: this substitution with the binding for `name` (if any)
    /// removed — the binding-removal operation of Example 2.3 and the
    /// substitution-simplification rules of Figure 1.
    pub fn without(&self, name: &RelName) -> ExplicitSubst {
        ExplicitSubst {
            bindings: self
                .bindings
                .iter()
                .filter(|(n, _)| n != name)
                .cloned()
                .collect(),
        }
    }

    /// Whether there are no bindings.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// Iterate bindings in name order as `(name, query)`.
    pub fn iter(&self) -> impl Iterator<Item = (&RelName, &Query)> {
        self.bindings.iter().map(|(n, q)| (n, q))
    }

    /// The domain `dom(ε)`: names with a binding, in order.
    pub fn names(&self) -> impl Iterator<Item = &RelName> {
        self.bindings.iter().map(|(n, _)| n)
    }

    /// Consume into the binding vector.
    pub fn into_bindings(self) -> Vec<(RelName, Query)> {
        self.bindings
    }

    /// Remove and return the binding for `name`, if any.
    pub fn remove(&mut self, name: &RelName) -> Option<Query> {
        let i = self.bindings.binary_search_by(|(n, _)| n.cmp(name)).ok()?;
        Some(self.bindings.remove(i).1)
    }

    /// This substitution with every bound query transformed by `f`, in
    /// name order.
    pub fn map_queries(mut self, mut f: impl FnMut(Query) -> Query) -> ExplicitSubst {
        for (_, q) in &mut self.bindings {
            *q = f(std::mem::replace(q, Query::Empty { arity: 0 }));
        }
        self
    }

    /// Whether any bound query contains a `when`.
    pub fn contains_when(&self) -> bool {
        self.bindings.iter().any(|(_, q)| q.contains_when())
    }

    /// Node count, for blow-up measurements.
    pub fn node_count(&self) -> usize {
        1 + self
            .bindings
            .iter()
            .map(|(_, q)| q.node_count())
            .sum::<usize>()
    }
}

impl FromIterator<(RelName, Query)> for ExplicitSubst {
    fn from_iter<T: IntoIterator<Item = (RelName, Query)>>(iter: T) -> Self {
        ExplicitSubst::new(iter)
    }
}

/// HQL surface syntax: `{q / R, …}`, `{}` when empty.
impl fmt::Display for ExplicitSubst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (n, q)) in self.bindings.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{q} / {n}")?;
        }
        write!(f, "}}")
    }
}

/// A hypothetical-state expression `η`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum StateExpr {
    /// `{U}` — the hypothetical state reached by executing `U`.
    Update(Update),
    /// An explicit substitution.
    Subst(ExplicitSubst),
    /// `η₁ # η₂` — composition: reach `η₁`'s state, then apply `η₂` in it.
    Compose(Box<StateExpr>, Box<StateExpr>),
}

impl StateExpr {
    /// `{U}`.
    pub fn update(u: Update) -> StateExpr {
        StateExpr::Update(u)
    }

    /// Explicit substitution state.
    pub fn subst(s: ExplicitSubst) -> StateExpr {
        StateExpr::Subst(s)
    }

    /// `self # other`.
    pub fn compose(self, other: StateExpr) -> StateExpr {
        StateExpr::Compose(Box::new(self), Box::new(other))
    }

    /// Whether this expression is already an explicit substitution — the
    /// shape ENF requires of every hypothetical-state expression (§5.2).
    pub fn is_explicit(&self) -> bool {
        matches!(self, StateExpr::Subst(_))
    }

    /// If explicit, borrow the substitution.
    pub fn as_subst(&self) -> Option<&ExplicitSubst> {
        match self {
            StateExpr::Subst(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this is `{U}` with `U` a sequence of atomic inserts/deletes —
    /// the shape mod-ENF requires (§5.5).
    pub fn is_atomic_update(&self) -> bool {
        matches!(self, StateExpr::Update(u) if u.is_atomic_sequence())
    }

    /// Node count, for blow-up measurements.
    pub fn node_count(&self) -> usize {
        match self {
            StateExpr::Update(u) => 1 + u.node_count(),
            StateExpr::Subst(s) => s.node_count(),
            StateExpr::Compose(a, b) => 1 + a.node_count() + b.node_count(),
        }
    }
}

impl From<Update> for StateExpr {
    fn from(u: Update) -> Self {
        StateExpr::Update(u)
    }
}

impl From<ExplicitSubst> for StateExpr {
    fn from(s: ExplicitSubst) -> Self {
        StateExpr::Subst(s)
    }
}

/// HQL surface syntax: `{U}`, `{q / R, …}` or `(η # η)`.
impl fmt::Display for StateExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateExpr::Update(u) => write!(f, "{{{u}}}"),
            StateExpr::Subst(s) => write!(f, "{s}"),
            StateExpr::Compose(a, b) => write!(f, "({a} # {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{CmpOp, Predicate};

    fn q() -> Query {
        Query::base("S").select(Predicate::col_cmp(0, CmpOp::Gt, 30))
    }

    #[test]
    fn bindings_sorted_and_distinct() {
        let s = ExplicitSubst::new([
            ("S".into(), Query::base("A")),
            ("R".into(), Query::base("B")),
            ("S".into(), Query::base("C")),
        ]);
        assert_eq!(s.len(), 2);
        let names: Vec<_> = s.names().map(|n| n.as_str().to_string()).collect();
        assert_eq!(names, ["R", "S"]);
        assert_eq!(s.get(&"S".into()), Some(&Query::base("C")));
        assert_eq!(s.get(&"Z".into()), None);
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let a = ExplicitSubst::new([("R".into(), q()), ("S".into(), Query::base("T"))]);
        let b = ExplicitSubst::new([("S".into(), Query::base("T")), ("R".into(), q())]);
        assert_eq!(a, b);
    }

    #[test]
    fn without_removes_binding() {
        let s = ExplicitSubst::new([("R".into(), q()), ("S".into(), Query::base("T"))]);
        let s2 = s.without(&"R".into());
        assert_eq!(s2.len(), 1);
        assert!(s2.get(&"R".into()).is_none());
        // removing an absent name is a no-op
        assert_eq!(s.without(&"Z".into()), s);
    }

    #[test]
    fn display_forms() {
        let s = ExplicitSubst::new([("R".into(), Query::base("R").union(q()))]);
        assert_eq!(s.to_string(), "{(R union select #0 > 30 (S)) / R}");
        let eta = StateExpr::subst(s.clone()).compose(StateExpr::update(Update::delete(
            "S",
            Query::base("S").select(Predicate::col_cmp(0, CmpOp::Lt, 60)),
        )));
        assert_eq!(
            eta.to_string(),
            "({(R union select #0 > 30 (S)) / R} # {delete from S (select #0 < 60 (S))})"
        );
    }

    #[test]
    fn shape_predicates() {
        let atomic = StateExpr::update(Update::insert("R", q()));
        assert!(atomic.is_atomic_update());
        assert!(!atomic.is_explicit());
        let explicit = StateExpr::subst(ExplicitSubst::single("R", q()));
        assert!(explicit.is_explicit());
        assert!(explicit.as_subst().is_some());
        let composed = atomic.clone().compose(explicit);
        assert!(!composed.is_explicit());
        assert!(!composed.is_atomic_update());
    }

    #[test]
    fn contains_when_inside_bindings() {
        let inner = Query::base("R").when(StateExpr::update(Update::insert("R", q())));
        let s = ExplicitSubst::single("T", inner);
        assert!(s.contains_when());
        assert!(!ExplicitSubst::single("T", q()).contains_when());
    }
}
