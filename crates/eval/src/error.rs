//! Evaluation errors.

use std::fmt;

use hypoquery_storage::StorageError;

/// Errors raised during query/update evaluation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EvalError {
    /// A storage-level failure (unknown relation, arity mismatch).
    Storage(StorageError),
    /// An aggregate was applied to a value of the wrong type
    /// (e.g. `sum` over strings).
    AggregateType {
        /// Which aggregate.
        agg: &'static str,
        /// Display of the offending value.
        value: String,
    },
    /// An aggregate's result left the 64-bit integer range (e.g. a `sum`
    /// past `i64::MAX`).
    AggregateOverflow {
        /// Which aggregate.
        agg: &'static str,
    },
    /// A query shape the called evaluator does not accept (e.g. `when`
    /// reaching a pure-only evaluator, or a non-explicit state expression
    /// reaching `filter1`). Indicates a missing normalization step.
    UnsupportedShape(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Storage(e) => write!(f, "{e}"),
            EvalError::AggregateType { agg, value } => {
                write!(f, "aggregate {agg} applied to non-numeric value {value}")
            }
            EvalError::AggregateOverflow { agg } => {
                write!(f, "aggregate {agg} overflowed the 64-bit integer range")
            }
            EvalError::UnsupportedShape(s) => {
                write!(
                    f,
                    "evaluator does not accept this shape (normalize first): {s}"
                )
            }
        }
    }
}

impl std::error::Error for EvalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvalError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for EvalError {
    fn from(e: StorageError) -> Self {
        EvalError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = EvalError::from(StorageError::UnknownRelation("R".into()));
        assert_eq!(e.to_string(), "unknown relation R");
        assert!(std::error::Error::source(&e).is_some());
        let a = EvalError::AggregateType {
            agg: "sum",
            value: "\"x\"".into(),
        };
        assert!(a.to_string().contains("sum"));
        assert!(std::error::Error::source(&a).is_none());
        let o = EvalError::AggregateOverflow { agg: "sum" };
        assert!(o.to_string().contains("sum overflowed"));
    }
}
