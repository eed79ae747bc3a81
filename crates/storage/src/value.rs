//! Scalar values stored in relation fields.
//!
//! The paper works over abstract relations; the concrete domains we provide
//! are 64-bit integers, strings, and booleans. All three are totally ordered
//! and hashable, which the sort-merge operators in `hypoquery-eval` and the
//! `BTreeSet`-backed relations rely on.

use std::fmt::{self, Write as _};
use std::sync::Arc;

/// A scalar value in a tuple field.
///
/// Values are immutable. `Str` uses `Arc<str>` so that cloning tuples (which
/// happens constantly when moving tuples between relation sets) never copies
/// string payloads.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// UTF-8 string (shared, immutable).
    Str(Arc<str>),
    /// Boolean.
    Bool(bool),
}

/// The type of a [`Value`]; used for schema/arity-level sanity checks and
/// error messages.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ValueType {
    /// 64-bit signed integer.
    Int,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
}

impl Value {
    /// Construct an integer value.
    pub fn int(v: i64) -> Self {
        Value::Int(v)
    }

    /// Construct a string value.
    pub fn str(v: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(v.as_ref()))
    }

    /// Construct a boolean value.
    pub fn bool(v: bool) -> Self {
        Value::Bool(v)
    }

    /// The runtime type of this value.
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::Int(_) => ValueType::Int,
            Value::Str(_) => ValueType::Str,
            Value::Bool(_) => ValueType::Bool,
        }
    }

    /// Return the integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Return the string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Return the boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// The HQL literal: an integer, `true`/`false`, or a double-quoted
/// string with the dump format's `\"`, `\\`, `\t` and `\n` escapes.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Str(v) => {
                f.write_char('"')?;
                for c in v.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        '\t' => f.write_str("\\t")?,
                        '\n' => f.write_str("\\n")?,
                        other => f.write_char(other)?,
                    }
                }
                f.write_char('"')
            }
            Value::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueType::Int => write!(f, "int"),
            ValueType::Str => write!(f, "str"),
            ValueType::Bool => write!(f, "bool"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_ordering_is_numeric() {
        assert!(Value::int(-3) < Value::int(2));
        assert!(Value::int(2) < Value::int(10));
    }

    #[test]
    fn values_of_different_types_have_total_order() {
        // The derived order is by variant then payload; all we need is that
        // it is total and consistent.
        let mut vs = vec![
            Value::str("b"),
            Value::int(1),
            Value::bool(true),
            Value::str("a"),
        ];
        vs.sort();
        let mut again = vs.clone();
        again.sort();
        assert_eq!(vs, again);
    }

    #[test]
    fn accessors_match_variants() {
        assert_eq!(Value::int(7).as_int(), Some(7));
        assert_eq!(Value::int(7).as_str(), None);
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::bool(true).as_bool(), Some(true));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::int(42).to_string(), "42");
        assert_eq!(Value::str("hi").to_string(), "\"hi\"");
        assert_eq!(
            Value::str("a\"b\\c\td\ne").to_string(),
            r#""a\"b\\c\td\ne""#
        );
        assert_eq!(Value::bool(false).to_string(), "false");
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(5i64), Value::int(5));
        assert_eq!(Value::from(5i32), Value::int(5));
        assert_eq!(Value::from("s"), Value::str("s"));
        assert_eq!(Value::from(true), Value::bool(true));
    }

    #[test]
    fn value_type_reporting() {
        assert_eq!(Value::int(0).value_type(), ValueType::Int);
        assert_eq!(Value::str("").value_type(), ValueType::Str);
        assert_eq!(Value::bool(true).value_type(), ValueType::Bool);
        assert_eq!(ValueType::Int.to_string(), "int");
    }

    #[test]
    fn string_clone_shares_payload() {
        let a = Value::str("shared");
        let b = a.clone();
        match (&a, &b) {
            (Value::Str(x), Value::Str(y)) => assert!(Arc::ptr_eq(x, y)),
            _ => unreachable!(),
        }
    }
}
