//! Selection and join predicates.
//!
//! The paper "omits discussion of the particular syntax for specifying
//! selection and projection conditions" (§3.1); we fix a concrete predicate
//! language: boolean combinations of comparisons between column references
//! (by position, as in the formal language) and constants. This is rich
//! enough for every example in the paper (e.g. `σ_{A>30}`, `σ_{A<60}`,
//! join conditions) and simple enough that the optimizer in `hypoquery-opt`
//! can decide implication between comparisons.

use std::fmt;

use hypoquery_storage::{Row, Value};

/// A scalar term inside a predicate: a column of the input tuple or a
/// constant.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ScalarExpr {
    /// Column reference by position (0-based).
    Col(usize),
    /// Constant value.
    Const(Value),
}

impl ScalarExpr {
    /// Evaluate against a row. Out-of-range columns return `None`
    /// (arity checking in `typing` prevents this for well-typed queries).
    pub fn eval<'a, R: Row + ?Sized>(&'a self, t: &'a R) -> Option<&'a Value> {
        match self {
            ScalarExpr::Col(i) => t.get(*i),
            ScalarExpr::Const(v) => Some(v),
        }
    }

    /// Shift column references right by `offset` (used when moving a
    /// predicate over the right operand of a product/join).
    pub fn shift(&self, offset: usize) -> ScalarExpr {
        match self {
            ScalarExpr::Col(i) => ScalarExpr::Col(i + offset),
            c @ ScalarExpr::Const(_) => c.clone(),
        }
    }

    /// The highest column index referenced, if any.
    pub fn max_col(&self) -> Option<usize> {
        match self {
            ScalarExpr::Col(i) => Some(*i),
            ScalarExpr::Const(_) => None,
        }
    }
}

/// Comparison operators.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The operator equivalent to `NOT (a op b)`.
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// The operator equivalent to `b op a` (swap sides).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            op => op,
        }
    }

    /// Apply the comparison to two values using the total order on
    /// [`Value`].
    pub fn apply(self, a: &Value, b: &Value) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

/// A boolean predicate over one tuple.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Predicate {
    /// Always true.
    True,
    /// Always false.
    False,
    /// Comparison between two scalar terms.
    Cmp(ScalarExpr, CmpOp, ScalarExpr),
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `col <op> const` — the common shape in the paper's examples
    /// (e.g. `A > 30`).
    pub fn col_cmp(col: usize, op: CmpOp, v: impl Into<Value>) -> Predicate {
        Predicate::Cmp(ScalarExpr::Col(col), op, ScalarExpr::Const(v.into()))
    }

    /// `colA <op> colB` — the common join-condition shape.
    pub fn col_col(a: usize, op: CmpOp, b: usize) -> Predicate {
        Predicate::Cmp(ScalarExpr::Col(a), op, ScalarExpr::Col(b))
    }

    /// Conjunction builder.
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// Disjunction builder.
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// Negation builder.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Predicate {
        Predicate::Not(Box::new(self))
    }

    /// Evaluate against a row. Comparisons involving out-of-range columns
    /// evaluate to `false`.
    pub fn eval<R: Row + ?Sized>(&self, t: &R) -> bool {
        match self {
            Predicate::True => true,
            Predicate::False => false,
            Predicate::Cmp(a, op, b) => match (a.eval(t), b.eval(t)) {
                (Some(a), Some(b)) => op.apply(a, b),
                _ => false,
            },
            Predicate::And(a, b) => a.eval(t) && b.eval(t),
            Predicate::Or(a, b) => a.eval(t) || b.eval(t),
            Predicate::Not(a) => !a.eval(t),
        }
    }

    /// Shift every column reference right by `offset`.
    pub fn shift(&self, offset: usize) -> Predicate {
        match self {
            Predicate::True => Predicate::True,
            Predicate::False => Predicate::False,
            Predicate::Cmp(a, op, b) => Predicate::Cmp(a.shift(offset), *op, b.shift(offset)),
            Predicate::And(a, b) => a.shift(offset).and(b.shift(offset)),
            Predicate::Or(a, b) => a.shift(offset).or(b.shift(offset)),
            Predicate::Not(a) => a.shift(offset).not(),
        }
    }

    /// Shift every column reference left by `offset`.
    ///
    /// Panics (in debug) if any referenced column is `< offset`; callers
    /// check [`Predicate::min_col`] first. Used when pushing a
    /// right-operand-only join conjunct down into the right operand.
    pub fn unshift(&self, offset: usize) -> Predicate {
        match self {
            Predicate::True => Predicate::True,
            Predicate::False => Predicate::False,
            Predicate::Cmp(a, op, b) => {
                let un = |s: &ScalarExpr| match s {
                    ScalarExpr::Col(i) => {
                        debug_assert!(*i >= offset, "unshift below zero");
                        ScalarExpr::Col(i - offset)
                    }
                    c @ ScalarExpr::Const(_) => c.clone(),
                };
                Predicate::Cmp(un(a), *op, un(b))
            }
            Predicate::And(a, b) => a.unshift(offset).and(b.unshift(offset)),
            Predicate::Or(a, b) => a.unshift(offset).or(b.unshift(offset)),
            Predicate::Not(a) => a.unshift(offset).not(),
        }
    }

    /// The lowest column index referenced, if any.
    pub fn min_col(&self) -> Option<usize> {
        match self {
            Predicate::True | Predicate::False => None,
            Predicate::Cmp(a, _, b) => match (a.max_col(), b.max_col()) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, y) => x.or(y),
            },
            Predicate::And(a, b) | Predicate::Or(a, b) => match (a.min_col(), b.min_col()) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, y) => x.or(y),
            },
            Predicate::Not(a) => a.min_col(),
        }
    }

    /// The highest column index referenced, if any. Used for arity checking.
    pub fn max_col(&self) -> Option<usize> {
        match self {
            Predicate::True | Predicate::False => None,
            Predicate::Cmp(a, _, b) => a.max_col().max(b.max_col()),
            Predicate::And(a, b) | Predicate::Or(a, b) => a.max_col().max(b.max_col()),
            Predicate::Not(a) => a.max_col(),
        }
    }

    /// Whether every column reference is `< arity`.
    pub fn in_arity(&self, arity: usize) -> bool {
        self.max_col().is_none_or(|m| m < arity)
    }

    /// Logical negation pushed through the structure (negation normal form
    /// step): comparisons flip their operator, `And`/`Or` dualize.
    pub fn negated(&self) -> Predicate {
        match self {
            Predicate::True => Predicate::False,
            Predicate::False => Predicate::True,
            Predicate::Cmp(a, op, b) => Predicate::Cmp(a.clone(), op.negate(), b.clone()),
            Predicate::And(a, b) => a.negated().or(b.negated()),
            Predicate::Or(a, b) => a.negated().and(b.negated()),
            Predicate::Not(a) => (**a).clone(),
        }
    }
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Col(i) => write!(f, "#{i}"),
            ScalarExpr::Const(v) => write!(f, "{v}"),
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => write!(f, "true"),
            Predicate::False => write!(f, "false"),
            Predicate::Cmp(a, op, b) => write!(f, "{a} {op} {b}"),
            Predicate::And(a, b) => write!(f, "({a} and {b})"),
            Predicate::Or(a, b) => write!(f, "({a} or {b})"),
            Predicate::Not(a) => write!(f, "not ({a})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypoquery_storage::tuple;

    #[test]
    fn comparisons_evaluate() {
        let t = tuple![10, 20];
        assert!(Predicate::col_cmp(0, CmpOp::Eq, 10).eval(&t));
        assert!(Predicate::col_cmp(1, CmpOp::Gt, 15).eval(&t));
        assert!(!Predicate::col_cmp(1, CmpOp::Lt, 15).eval(&t));
        assert!(Predicate::col_col(0, CmpOp::Lt, 1).eval(&t));
    }

    #[test]
    fn boolean_connectives() {
        let t = tuple![1];
        let p = Predicate::col_cmp(0, CmpOp::Ge, 0).and(Predicate::col_cmp(0, CmpOp::Le, 2));
        assert!(p.eval(&t));
        assert!(!p.clone().not().eval(&t));
        assert!(Predicate::False.or(p).eval(&t));
    }

    #[test]
    fn out_of_range_column_is_false() {
        let t = tuple![1];
        assert!(!Predicate::col_cmp(5, CmpOp::Eq, 1).eval(&t));
        // ... and its negation via Not is true (three-valued logic is NOT
        // modeled; well-typed queries never hit this).
        assert!(Predicate::col_cmp(5, CmpOp::Eq, 1).not().eval(&t));
    }

    #[test]
    fn shift_moves_columns() {
        let p = Predicate::col_col(0, CmpOp::Eq, 1).shift(2);
        assert_eq!(p, Predicate::col_col(2, CmpOp::Eq, 3));
        let t = tuple![9, 9, 5, 5];
        assert!(p.eval(&t));
    }

    #[test]
    fn negate_op_table() {
        assert_eq!(CmpOp::Lt.negate(), CmpOp::Ge);
        assert_eq!(CmpOp::Ge.negate(), CmpOp::Lt);
        assert_eq!(CmpOp::Eq.negate(), CmpOp::Ne);
        assert_eq!(CmpOp::Le.flip(), CmpOp::Ge);
        assert_eq!(CmpOp::Eq.flip(), CmpOp::Eq);
    }

    #[test]
    fn negated_is_complement() {
        let t1 = tuple![10];
        let t2 = tuple![70];
        let p = Predicate::col_cmp(0, CmpOp::Lt, 60);
        for t in [&t1, &t2] {
            assert_eq!(p.negated().eval(t), !p.eval(t));
        }
        let q = p.clone().and(Predicate::col_cmp(0, CmpOp::Gt, 0));
        for t in [&t1, &t2] {
            assert_eq!(q.negated().eval(t), !q.eval(t));
        }
    }

    #[test]
    fn unshift_and_min_col() {
        let p = Predicate::col_col(2, CmpOp::Eq, 3).and(Predicate::col_cmp(4, CmpOp::Gt, 1));
        assert_eq!(p.min_col(), Some(2));
        let un = p.unshift(2);
        assert_eq!(
            un,
            Predicate::col_col(0, CmpOp::Eq, 1).and(Predicate::col_cmp(2, CmpOp::Gt, 1))
        );
        // unshift inverts shift.
        assert_eq!(un.shift(2), p);
        // Constants and nullary predicates have no min_col.
        assert_eq!(Predicate::True.min_col(), None);
        assert_eq!(
            Predicate::Cmp(
                ScalarExpr::Const(Value::int(1)),
                CmpOp::Lt,
                ScalarExpr::Const(Value::int(2))
            )
            .min_col(),
            None
        );
    }

    #[test]
    fn max_col_and_arity() {
        let p = Predicate::col_col(1, CmpOp::Eq, 3).and(Predicate::True);
        assert_eq!(p.max_col(), Some(3));
        assert!(p.in_arity(4));
        assert!(!p.in_arity(3));
        assert!(Predicate::True.in_arity(0));
    }

    #[test]
    fn display_forms() {
        let p = Predicate::col_cmp(0, CmpOp::Ge, 60);
        assert_eq!(p.to_string(), "#0 >= 60");
        assert_eq!(
            p.clone().and(Predicate::True).to_string(),
            "(#0 >= 60 and true)"
        );
    }
}
