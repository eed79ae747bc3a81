//! Tuples: fixed-arity sequences of [`Value`]s.

use std::fmt;
use std::ops::Index;
use std::sync::Arc;

use crate::value::Value;

/// An immutable tuple of scalar values.
///
/// Backed by `Arc<[Value]>` so that cloning a tuple — which the set-algebraic
/// operators do for every row they move between relations — is a reference
/// count bump, never a payload copy.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple {
    fields: Arc<[Value]>,
}

impl Tuple {
    /// Build a tuple from an iterator of values.
    pub fn new(fields: impl IntoIterator<Item = Value>) -> Self {
        Tuple {
            fields: fields.into_iter().collect(),
        }
    }

    /// The empty (0-ary) tuple.
    pub fn empty() -> Self {
        Tuple::new([])
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// Field at position `i`, if in range.
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.fields.get(i)
    }

    /// All fields as a slice.
    pub fn fields(&self) -> &[Value] {
        &self.fields
    }

    /// Concatenate two tuples (used by cartesian product and join).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        Tuple {
            fields: self
                .fields
                .iter()
                .chain(other.fields.iter())
                .cloned()
                .collect(),
        }
    }

    /// Project this tuple onto the given column positions.
    ///
    /// Positions may repeat or reorder columns. Panics if a position is out
    /// of range — callers are expected to have arity-checked the projection
    /// list (the `hypoquery-algebra` typing pass guarantees this).
    pub fn project(&self, cols: &[usize]) -> Tuple {
        Tuple {
            fields: cols.iter().map(|&c| self.fields[c].clone()).collect(),
        }
    }
}

/// Read access to the columns of a row, shared by stored [`Tuple`]s and
/// the executor's borrowed row views (a join pair or a projection that is
/// never copied into a tuple of its own). Predicates, hashing and
/// aggregation read rows through it, so they accept either.
pub trait Row {
    /// Number of columns.
    fn arity(&self) -> usize;

    /// Column `i`. Panics if `i` is out of range.
    fn col(&self, i: usize) -> &Value;

    /// Column `i`, if in range.
    fn get(&self, i: usize) -> Option<&Value> {
        (i < self.arity()).then(|| self.col(i))
    }

    /// The row as an owned tuple: a stored tuple is shared, any other
    /// row is copied into one new allocation.
    fn to_tuple(&self) -> Tuple;
}

impl Row for Tuple {
    #[inline]
    fn arity(&self) -> usize {
        self.fields.len()
    }

    #[inline]
    fn col(&self, i: usize) -> &Value {
        &self.fields[i]
    }

    #[inline]
    fn get(&self, i: usize) -> Option<&Value> {
        self.fields.get(i)
    }

    #[inline]
    fn to_tuple(&self) -> Tuple {
        self.clone()
    }
}

impl Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        &self.fields[i]
    }
}

impl<V: Into<Value>> FromIterator<V> for Tuple {
    fn from_iter<T: IntoIterator<Item = V>>(iter: T) -> Self {
        Tuple::new(iter.into_iter().map(Into::into))
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Convenience macro for building tuples from literals:
/// `tuple![1, "a", true]`.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::new([$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_and_indexing() {
        let t = tuple![1, "a", true];
        assert_eq!(t.arity(), 3);
        assert_eq!(t[0], Value::int(1));
        assert_eq!(t[1], Value::str("a"));
        assert_eq!(t.get(3), None);
    }

    #[test]
    fn concat_appends_fields() {
        let t = tuple![1, 2].concat(&tuple![3]);
        assert_eq!(t, tuple![1, 2, 3]);
    }

    #[test]
    fn project_reorders_and_duplicates() {
        let t = tuple![10, 20, 30];
        assert_eq!(t.project(&[2, 0, 0]), tuple![30, 10, 10]);
        assert_eq!(t.project(&[]), Tuple::empty());
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(tuple![1, 2] < tuple![1, 3]);
        assert!(tuple![1] < tuple![1, 0]);
        assert!(tuple![0, 9] < tuple![1, 0]);
    }

    #[test]
    fn display_form() {
        assert_eq!(tuple![1, "x"].to_string(), "(1, \"x\")");
        assert_eq!(Tuple::empty().to_string(), "()");
    }

    #[test]
    fn from_iterator_of_convertibles() {
        let t: Tuple = [1i64, 2, 3].into_iter().collect();
        assert_eq!(t, tuple![1, 2, 3]);
    }
}
