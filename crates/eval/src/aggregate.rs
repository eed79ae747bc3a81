//! Grouped aggregation (§6 extension): one streaming accumulator shared by
//! the legacy evaluators and the physical pipeline.
//!
//! `AggState` takes rows one at a time and keeps, per group, a running
//! `count`/`sum`/`min`/`max`; no input row is collected, sorted or grouped
//! into a vector, and no input row is built into a tuple. Rows are read
//! through [`Row`], so the pipeline folds a join's row views straight in.
//! Groups are found through a keyed hash table ([`ChainTable`]) over
//! the group-by columns; each group keeps only its key values, so a row
//! that joins an existing group allocates nothing. A `sum` that leaves the
//! 64-bit range fails with [`EvalError::AggregateOverflow`] instead of
//! wrapping.
//!
//! Aggregation is over a *set*: every row pushed must be distinct. The
//! legacy evaluators push the rows of a [`Relation`]; the pipeline pushes
//! its input stream directly when the plan proves it duplicate-free and
//! through a dedup set otherwise.

use hypoquery_storage::chain::ChainTable;
use hypoquery_storage::{Relation, Row, Tuple, Value};

use hypoquery_algebra::AggExpr;

use crate::error::EvalError;

/// Running state of one aggregate within one group.
enum Acc {
    Count(i64),
    Sum(usize, i64),
    Min(usize, Value),
    Max(usize, Value),
}

impl Acc {
    /// The state after the group's first row.
    fn first<R: Row + ?Sized>(agg: &AggExpr, t: &R) -> Result<Acc, EvalError> {
        Ok(match *agg {
            AggExpr::Count => Acc::Count(1),
            AggExpr::Sum(c) => Acc::Sum(c, int_for_sum(t.col(c))?),
            AggExpr::Min(c) => Acc::Min(c, t.col(c).clone()),
            AggExpr::Max(c) => Acc::Max(c, t.col(c).clone()),
        })
    }

    #[inline]
    fn update<R: Row + ?Sized>(&mut self, t: &R) -> Result<(), EvalError> {
        match self {
            Acc::Count(n) => *n += 1,
            Acc::Sum(c, total) => *total = checked_sum(*total, int_for_sum(t.col(*c))?)?,
            Acc::Min(c, m) => {
                if t.col(*c) < m {
                    *m = t.col(*c).clone();
                }
            }
            Acc::Max(c, m) => {
                if t.col(*c) > m {
                    *m = t.col(*c).clone();
                }
            }
        }
        Ok(())
    }

    fn value(&self) -> Value {
        match self {
            Acc::Count(n) | Acc::Sum(_, n) => Value::int(*n),
            Acc::Min(_, v) | Acc::Max(_, v) => v.clone(),
        }
    }
}

fn int_for_sum(v: &Value) -> Result<i64, EvalError> {
    v.as_int().ok_or_else(|| EvalError::AggregateType {
        agg: "sum",
        value: v.to_string(),
    })
}

/// `total + v`, or [`EvalError::AggregateOverflow`] outside the `i64`
/// range.
pub(crate) fn checked_sum(total: i64, v: i64) -> Result<i64, EvalError> {
    total
        .checked_add(v)
        .ok_or(EvalError::AggregateOverflow { agg: "sum" })
}

/// Streaming accumulator for `aggregate [group_by; aggs]` over a set of
/// rows.
///
/// Set semantics; an empty input yields an empty output (including when
/// there are no grouping columns — we do not emit SQL's global zero-row).
pub(crate) struct AggState<'a> {
    group_by: &'a [usize],
    aggs: &'a [AggExpr],
    /// Groups by hash of their group-by columns; unused when `group_by`
    /// is empty (then there is at most one group).
    table: ChainTable,
    /// `group_by.len()` key values per group, group-major.
    keys: Vec<Value>,
    /// Number of groups opened.
    groups: usize,
    /// `aggs.len()` accumulators per group, group-major.
    accs: Vec<Acc>,
}

impl<'a> AggState<'a> {
    /// An accumulator with no groups yet.
    pub(crate) fn new(group_by: &'a [usize], aggs: &'a [AggExpr]) -> AggState<'a> {
        AggState {
            group_by,
            aggs,
            table: ChainTable::new(),
            keys: Vec::new(),
            groups: 0,
            accs: Vec::new(),
        }
    }

    /// Fold one row into its group. Rows must be distinct across calls.
    /// Fails with [`EvalError::AggregateType`] when a `sum` column holds
    /// a non-integer, and with [`EvalError::AggregateOverflow`] when a
    /// sum leaves the `i64` range.
    #[inline]
    pub(crate) fn push<R: Row + ?Sized>(&mut self, t: &R) -> Result<(), EvalError> {
        let n = self.aggs.len();
        if self.group_by.is_empty() {
            if self.groups == 0 {
                return self.open_group(t, None);
            }
            return self.accs.iter_mut().try_for_each(|a| a.update(t));
        }
        let k = self.group_by.len();
        let hash = self.table.hash_cols(t, self.group_by);
        let found = self.table.matches(hash).find(|&g| {
            self.keys[g * k..(g + 1) * k]
                .iter()
                .zip(self.group_by)
                .all(|(v, &c)| v == t.col(c))
        });
        match found {
            Some(g) => self.accs[g * n..(g + 1) * n]
                .iter_mut()
                .try_for_each(|a| a.update(t)),
            None => self.open_group(t, Some(hash)),
        }
    }

    fn open_group<R: Row + ?Sized>(&mut self, t: &R, hash: Option<u64>) -> Result<(), EvalError> {
        for agg in self.aggs {
            self.accs.push(Acc::first(agg, t)?);
        }
        if let Some(h) = hash {
            self.table.push(h);
        }
        self.keys
            .extend(self.group_by.iter().map(|&c| t.col(c).clone()));
        self.groups += 1;
        Ok(())
    }

    /// The result relation: one row per group, group-by values then
    /// aggregate values.
    pub(crate) fn finish(self) -> Result<Relation, EvalError> {
        let (k, n) = (self.group_by.len(), self.aggs.len());
        let rows = (0..self.groups).map(|g| {
            let key = self.keys[g * k..(g + 1) * k].iter().cloned();
            Tuple::new(key.chain(self.accs[g * n..(g + 1) * n].iter().map(Acc::value)))
        });
        Ok(Relation::from_tuple_set(k + n, rows.collect())?)
    }
}

/// Grouped aggregation over a materialized relation — `AggState` fed
/// every row of `input`.
pub fn eval_aggregate(
    input: &Relation,
    group_by: &[usize],
    aggs: &[AggExpr],
) -> Result<Relation, EvalError> {
    let mut st = AggState::new(group_by, aggs);
    for t in input.iter() {
        st.push(t)?;
    }
    st.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypoquery_storage::tuple;

    fn rel(rows: &[[i64; 2]]) -> Relation {
        Relation::from_rows(2, rows.iter().map(|&[a, b]| tuple![a, b])).unwrap()
    }

    #[test]
    fn grouped_running_aggregates() {
        let r = rel(&[[1, 10], [1, 30], [2, 5], [3, 7], [3, 1], [3, 9]]);
        let aggs = [
            AggExpr::Count,
            AggExpr::Sum(1),
            AggExpr::Min(1),
            AggExpr::Max(1),
        ];
        let out = eval_aggregate(&r, &[0], &aggs).unwrap();
        let expected = Relation::from_rows(
            5,
            [
                tuple![1, 2, 40, 10, 30],
                tuple![2, 1, 5, 5, 5],
                tuple![3, 3, 17, 1, 9],
            ],
        )
        .unwrap();
        assert_eq!(out, expected);
    }

    #[test]
    fn many_groups_survive_table_growth() {
        let rows: Vec<Tuple> = (0..5000i64).map(|i| tuple![i % 701, i]).collect();
        let r = Relation::from_rows(2, rows).unwrap();
        let out = eval_aggregate(&r, &[0], &[AggExpr::Count]).unwrap();
        assert_eq!(out.len(), 701);
        assert!(out.contains(&tuple![0, 8]));
        assert!(out.contains(&tuple![700, 7]));
    }

    #[test]
    fn empty_input_and_key_only_grouping() {
        let empty = Relation::empty(2);
        assert!(eval_aggregate(&empty, &[], &[AggExpr::Count])
            .unwrap()
            .is_empty());
        assert!(eval_aggregate(&empty, &[1], &[AggExpr::Sum(0)])
            .unwrap()
            .is_empty());
        // No aggregates: the distinct group keys.
        let r = rel(&[[1, 10], [1, 30], [2, 5]]);
        let out = eval_aggregate(&r, &[0], &[]).unwrap();
        assert_eq!(out, Relation::from_rows(1, [tuple![1], tuple![2]]).unwrap());
    }

    #[test]
    fn sum_overflow_errors_in_any_group() {
        let r = rel(&[[1, i64::MAX], [2, 1]]);
        for group_by in [&[][..], &[1][..]] {
            let out = eval_aggregate(&r, group_by, &[AggExpr::Sum(1)]);
            if group_by.is_empty() {
                assert_eq!(out, Err(EvalError::AggregateOverflow { agg: "sum" }));
            } else {
                // One row per group: no sum overflows.
                assert_eq!(out.unwrap().len(), 2);
            }
        }
        let r = rel(&[[1, i64::MIN], [1, -1], [2, 5]]);
        assert_eq!(
            eval_aggregate(&r, &[0], &[AggExpr::Count, AggExpr::Sum(1)]),
            Err(EvalError::AggregateOverflow { agg: "sum" })
        );
    }

    #[test]
    fn sum_over_non_integer_errors_in_any_group() {
        let r = Relation::from_rows(2, [tuple![1, 5], tuple![2, "x"]]).unwrap();
        for group_by in [&[][..], &[0][..]] {
            assert!(matches!(
                eval_aggregate(&r, group_by, &[AggExpr::Sum(1)]),
                Err(EvalError::AggregateType { agg: "sum", .. })
            ));
        }
    }
}
