//! The HQL query AST: relational algebra extended with `when` (RA_hyp).
//!
//! §3.1 gives the relational algebra grammar; §4.1 extends it with
//! `Q when η` at any nesting level. Two deliberate additions beyond the
//! paper's grammar, both flagged in DESIGN.md:
//!
//! * [`Query::Empty`] — the paper freely writes `∅` as a query value in its
//!   derivations (Examples 2.1(b), 2.4(b)); making it a node lets the
//!   rewrite engine *produce* it.
//! * [`Query::Aggregate`] — §6 says the framework "extends to query languages
//!   that include bags and aggregation"; we carry grouped aggregation over
//!   set semantics so the `when`-distribution rules can be exercised on it.

use std::fmt;

use hypoquery_storage::{RelName, Tuple};

use crate::predicate::Predicate;
use crate::state_expr::StateExpr;

/// An aggregate expression over a group of tuples (§6 extension).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum AggExpr {
    /// Number of tuples in the group.
    Count,
    /// Sum of an integer column.
    Sum(usize),
    /// Minimum of a column (by value order).
    Min(usize),
    /// Maximum of a column (by value order).
    Max(usize),
}

impl AggExpr {
    /// Column referenced, if any.
    pub fn col(&self) -> Option<usize> {
        match self {
            AggExpr::Count => None,
            AggExpr::Sum(c) | AggExpr::Min(c) | AggExpr::Max(c) => Some(*c),
        }
    }
}

/// An HQL query (the paper's RA_hyp).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Query {
    /// Base relation `R`.
    Base(RelName),
    /// Singleton set `{t}`.
    Singleton(Tuple),
    /// The empty relation of a given arity (`∅`).
    Empty {
        /// Arity of the (empty) result.
        arity: usize,
    },
    /// Selection `σ_p(Q)`.
    Select(Box<Query>, Predicate),
    /// Projection `π_cols(Q)` (positions; may reorder/duplicate).
    Project(Box<Query>, Vec<usize>),
    /// Union `Q ∪ Q`.
    Union(Box<Query>, Box<Query>),
    /// Intersection `Q ∩ Q`.
    Intersect(Box<Query>, Box<Query>),
    /// Cartesian product `Q × Q`.
    Product(Box<Query>, Box<Query>),
    /// Theta-join `Q ⋈_p Q` (predicate over the concatenated tuple).
    Join(Box<Query>, Box<Query>, Predicate),
    /// Difference `Q − Q`.
    Diff(Box<Query>, Box<Query>),
    /// Hypothetical query `Q when η` (§4.1).
    When(Box<Query>, Box<StateExpr>),
    /// Grouped aggregation (§6 extension). Output tuple =
    /// group-by columns followed by one value per aggregate.
    Aggregate {
        /// Input query.
        input: Box<Query>,
        /// Grouping column positions.
        group_by: Vec<usize>,
        /// Aggregates computed per group.
        aggs: Vec<AggExpr>,
    },
}

impl Query {
    /// Base relation reference.
    pub fn base(name: impl Into<RelName>) -> Query {
        Query::Base(name.into())
    }

    /// Singleton `{t}`.
    pub fn singleton(t: Tuple) -> Query {
        Query::Singleton(t)
    }

    /// Empty relation of the given arity.
    pub fn empty(arity: usize) -> Query {
        Query::Empty { arity }
    }

    /// `σ_p(self)`.
    pub fn select(self, p: Predicate) -> Query {
        Query::Select(Box::new(self), p)
    }

    /// `π_cols(self)`.
    pub fn project(self, cols: impl Into<Vec<usize>>) -> Query {
        Query::Project(Box::new(self), cols.into())
    }

    /// `self ∪ other`.
    pub fn union(self, other: Query) -> Query {
        Query::Union(Box::new(self), Box::new(other))
    }

    /// `self ∩ other`.
    pub fn intersect(self, other: Query) -> Query {
        Query::Intersect(Box::new(self), Box::new(other))
    }

    /// `self × other`.
    pub fn product(self, other: Query) -> Query {
        Query::Product(Box::new(self), Box::new(other))
    }

    /// `self ⋈_p other`.
    pub fn join(self, other: Query, p: Predicate) -> Query {
        Query::Join(Box::new(self), Box::new(other), p)
    }

    /// `self − other`.
    pub fn diff(self, other: Query) -> Query {
        Query::Diff(Box::new(self), Box::new(other))
    }

    /// `self when η`.
    pub fn when(self, eta: impl Into<StateExpr>) -> Query {
        Query::When(Box::new(self), Box::new(eta.into()))
    }

    /// Grouped aggregation over `self`.
    pub fn aggregate(
        self,
        group_by: impl Into<Vec<usize>>,
        aggs: impl Into<Vec<AggExpr>>,
    ) -> Query {
        Query::Aggregate {
            input: Box::new(self),
            group_by: group_by.into(),
            aggs: aggs.into(),
        }
    }

    /// Whether this query is pure relational algebra — i.e. contains no
    /// `when` anywhere (the paper's RA ⊂ RA_hyp). The reduction function
    /// `red` of §4.3 always returns a pure query (Theorem 4.1).
    pub fn is_pure(&self) -> bool {
        !self.contains_when()
    }

    /// Whether a `when` occurs anywhere in this query.
    pub fn contains_when(&self) -> bool {
        match self {
            Query::Base(_) | Query::Singleton(_) | Query::Empty { .. } => false,
            Query::Select(q, _) | Query::Project(q, _) => q.contains_when(),
            Query::Union(a, b)
            | Query::Intersect(a, b)
            | Query::Product(a, b)
            | Query::Join(a, b, _)
            | Query::Diff(a, b) => a.contains_when() || b.contains_when(),
            Query::When(_, _) => true,
            Query::Aggregate { input, .. } => input.contains_when(),
        }
    }

    /// Number of AST nodes (queries, state expressions, updates). Used to
    /// measure the exponential blow-up of Example 2.4.
    pub fn node_count(&self) -> usize {
        match self {
            Query::Base(_) | Query::Singleton(_) | Query::Empty { .. } => 1,
            Query::Select(q, _) | Query::Project(q, _) => 1 + q.node_count(),
            Query::Union(a, b)
            | Query::Intersect(a, b)
            | Query::Product(a, b)
            | Query::Join(a, b, _)
            | Query::Diff(a, b) => 1 + a.node_count() + b.node_count(),
            Query::When(q, eta) => 1 + q.node_count() + eta.node_count(),
            Query::Aggregate { input, .. } => 1 + input.node_count(),
        }
    }

    /// Rebuild this node with subqueries transformed by `f`. One level only;
    /// does **not** descend into state expressions (rewrites that cross the
    /// `when` scope boundary must go through the EQUIV_when rules).
    pub fn map_subqueries(self, mut f: impl FnMut(Query) -> Query) -> Query {
        // Children are rewritten in their boxes, so a walk that rebuilds
        // every node allocates nothing for the nodes it keeps.
        let mut g = |mut q: Box<Query>| {
            *q = f(std::mem::replace(&mut *q, Query::Empty { arity: 0 }));
            q
        };
        match self {
            q @ (Query::Base(_) | Query::Singleton(_) | Query::Empty { .. }) => q,
            Query::Select(q, p) => Query::Select(g(q), p),
            Query::Project(q, cols) => Query::Project(g(q), cols),
            Query::Union(a, b) => Query::Union(g(a), g(b)),
            Query::Intersect(a, b) => Query::Intersect(g(a), g(b)),
            Query::Product(a, b) => Query::Product(g(a), g(b)),
            Query::Join(a, b, p) => Query::Join(g(a), g(b), p),
            Query::Diff(a, b) => Query::Diff(g(a), g(b)),
            Query::When(q, eta) => Query::When(g(q), eta),
            Query::Aggregate {
                input,
                group_by,
                aggs,
            } => Query::Aggregate {
                input: g(input),
                group_by,
                aggs,
            },
        }
    }
}

impl fmt::Display for AggExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggExpr::Count => write!(f, "count"),
            AggExpr::Sum(c) => write!(f, "sum {c}"),
            AggExpr::Min(c) => write!(f, "min {c}"),
            AggExpr::Max(c) => write!(f, "max {c}"),
        }
    }
}

/// Write `items` separated by `, `.
fn comma_list<T: fmt::Display>(f: &mut fmt::Formatter<'_>, items: &[T]) -> fmt::Result {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{item}")?;
    }
    Ok(())
}

/// HQL surface syntax, fully parenthesized so that precedence never
/// matters: `parse_query(&q.to_string()) == q` for every query whose
/// relation names are not keywords (property-tested in the parser's
/// `tests/roundtrip.rs`).
impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Query::Base(name) => write!(f, "{name}"),
            Query::Singleton(t) => write!(f, "row{t}"),
            Query::Empty { arity } => write!(f, "empty({arity})"),
            Query::Select(q, p) => write!(f, "select {p} ({q})"),
            Query::Project(q, cols) => {
                write!(f, "project ")?;
                comma_list(f, cols)?;
                let gap = if cols.is_empty() { "" } else { " " };
                write!(f, "{gap}({q})")
            }
            Query::Union(a, b) => write!(f, "({a} union {b})"),
            Query::Intersect(a, b) => write!(f, "({a} intersect {b})"),
            Query::Product(a, b) => write!(f, "({a} times {b})"),
            Query::Join(a, b, p) => write!(f, "({a} join {b} on {p})"),
            Query::Diff(a, b) => write!(f, "({a} except {b})"),
            Query::When(q, eta) => write!(f, "({q} when {eta})"),
            Query::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                write!(f, "aggregate [")?;
                comma_list(f, group_by)?;
                write!(f, "; ")?;
                comma_list(f, aggs)?;
                write!(f, "] ({input})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
    use crate::state_expr::StateExpr;
    use crate::update::Update;
    use hypoquery_storage::tuple;

    fn sel60() -> Predicate {
        Predicate::col_cmp(0, CmpOp::Ge, 60)
    }

    #[test]
    fn builders_compose() {
        let q = Query::base("R")
            .select(sel60())
            .union(Query::base("S"))
            .project([0]);
        assert_eq!(q.to_string(), "project 0 ((select #0 >= 60 (R) union S))");
    }

    #[test]
    fn purity_detection() {
        let pure = Query::base("R").join(Query::base("S"), Predicate::True);
        assert!(pure.is_pure());
        let hyp = pure
            .clone()
            .when(StateExpr::update(Update::insert("R", Query::base("S"))));
        assert!(!hyp.is_pure());
        assert!(hyp.contains_when());
        // when nested under an operator is still detected
        let nested = Query::base("T").union(hyp);
        assert!(!nested.is_pure());
    }

    #[test]
    fn node_count_counts_structure() {
        let q = Query::base("R").select(sel60());
        assert_eq!(q.node_count(), 2);
        let q2 = q.clone().union(q);
        assert_eq!(q2.node_count(), 5);
    }

    #[test]
    fn map_subqueries_is_one_level() {
        let q = Query::base("R").union(Query::base("S"));
        let swapped = q.map_subqueries(|_| Query::base("T"));
        assert_eq!(swapped, Query::base("T").union(Query::base("T")));
    }

    #[test]
    fn display_of_special_nodes() {
        assert_eq!(Query::empty(2).to_string(), "empty(2)");
        assert_eq!(
            Query::singleton(tuple![1, "a"]).to_string(),
            "row(1, \"a\")"
        );
        let agg = Query::base("R").aggregate([0], [AggExpr::Count, AggExpr::Sum(1)]);
        assert_eq!(agg.to_string(), "aggregate [0; count, sum 1] (R)");
        let global = Query::base("R").aggregate(Vec::<usize>::new(), [AggExpr::Count]);
        assert_eq!(global.to_string(), "aggregate [; count] (R)");
        assert_eq!(
            Query::base("R").project(Vec::<usize>::new()).to_string(),
            "project (R)"
        );
    }
}
