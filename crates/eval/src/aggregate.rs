//! Grouped aggregation (§6 extension): one streaming accumulator shared by
//! the legacy evaluators and the physical pipeline.
//!
//! `AggState` takes rows one at a time and keeps, per group, a running
//! `count`/`sum`/`min`/`max`; no input row is collected, sorted or grouped
//! into a vector, and no input row is built into a tuple. Rows are read
//! through [`Row`], so the pipeline folds a join's row views straight in.
//! Groups are found through a keyed hash table ([`ChainTable`]) over
//! the group-by columns; each group keeps only its key values, so a row
//! that joins an existing group allocates nothing.
//!
//! A `sum` accumulates in `i128` and is checked against the 64-bit range
//! once, when the group's row is built: a total outside it fails with
//! [`EvalError::AggregateOverflow`] instead of wrapping, and whether it
//! fails does not depend on the order the rows arrive in.
//!
//! `RunFold` is the group join's way in: it folds whole blocks of join
//! pairs — a run of left rows of one key, each paired with one right row —
//! into the same accumulators, adding the block's size, its precomputed
//! total or `size × value`, and its extreme, without building a pair.
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
    Sum(i128),
    Min(Value),
    Max(Value),
}

/// What a block of rows adds to one aggregate: its number of rows
/// (`count`), its total in the summed column (`sum`), or its least or
/// greatest value in the column (`min`/`max`). A single row is a block.
#[derive(Clone, Copy)]
enum Part<'v> {
    Rows(i64),
    Total(i128),
    Extreme(&'v Value),
}

impl Part<'_> {
    /// Row `t` as a block of one, for `agg`.
    #[inline]
    fn of<'v, R: Row + ?Sized>(agg: &AggExpr, t: &'v R) -> Result<Part<'v>, EvalError> {
        Ok(match *agg {
            AggExpr::Count => Part::Rows(1),
            AggExpr::Sum(c) => Part::Total(int_for_sum(t.col(c))?.into()),
            AggExpr::Min(c) | AggExpr::Max(c) => Part::Extreme(t.col(c)),
        })
    }
}

impl Acc {
    /// The state after the group's first block.
    fn first(agg: &AggExpr, p: Part<'_>) -> Acc {
        match (agg, p) {
            (AggExpr::Count, Part::Rows(n)) => Acc::Count(n),
            (AggExpr::Sum(_), Part::Total(s)) => Acc::Sum(s),
            (AggExpr::Min(_), Part::Extreme(v)) => Acc::Min(v.clone()),
            (AggExpr::Max(_), Part::Extreme(v)) => Acc::Max(v.clone()),
            _ => unreachable!("a part is made for its aggregate"),
        }
    }

    #[inline]
    fn add(&mut self, p: Part<'_>) {
        match (self, p) {
            (Acc::Count(n), Part::Rows(k)) => *n += k,
            // A block's total is below 2⁹⁶ in magnitude (under 2³² rows
            // times an `i64`), so the sum can saturate only after 2³¹ such
            // blocks, and a saturated total is still outside the `i64`
            // range `value` checks.
            (Acc::Sum(total), Part::Total(s)) => *total = total.saturating_add(s),
            (Acc::Min(m), Part::Extreme(v)) => {
                if v < m {
                    *m = v.clone();
                }
            }
            (Acc::Max(m), Part::Extreme(v)) => {
                if v > m {
                    *m = v.clone();
                }
            }
            _ => unreachable!("a part is made for its aggregate"),
        }
    }

    fn value(&self) -> Result<Value, EvalError> {
        Ok(match self {
            Acc::Count(n) => Value::int(*n),
            Acc::Sum(total) => sum_value(*total)?,
            Acc::Min(v) | Acc::Max(v) => v.clone(),
        })
    }
}

const OVERFLOW: EvalError = EvalError::AggregateOverflow { agg: "sum" };

fn int_for_sum(v: &Value) -> Result<i64, EvalError> {
    v.as_int().ok_or_else(|| EvalError::AggregateType {
        agg: "sum",
        value: v.to_string(),
    })
}

/// A finished `sum` as a value, or [`EvalError::AggregateOverflow`]
/// outside the `i64` range.
pub(crate) fn sum_value(total: i128) -> Result<Value, EvalError> {
    i64::try_from(total).map(Value::int).map_err(|_| OVERFLOW)
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
    /// is empty (then there is at most one group) and by [`RunFold`]
    /// (whose groups arrive in order).
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
    /// a non-integer.
    #[inline]
    pub(crate) fn push<R: Row + ?Sized>(&mut self, t: &R) -> Result<(), EvalError> {
        let g = if self.group_by.is_empty() {
            if self.groups == 0 {
                return self.open_group(t, None);
            }
            0
        } else {
            let k = self.group_by.len();
            let hash = self.table.hash_cols(t, self.group_by);
            let found = self.table.matches(hash).find(|&g| {
                self.keys[g * k..(g + 1) * k]
                    .iter()
                    .zip(self.group_by)
                    .all(|(v, &c)| v == t.col(c))
            });
            match found {
                Some(g) => g,
                None => return self.open_group(t, Some(hash)),
            }
        };
        self.fold(g, |_, agg| Part::of(agg, t))
    }

    fn open_group<R: Row + ?Sized>(&mut self, t: &R, hash: Option<u64>) -> Result<(), EvalError> {
        if let Some(h) = hash {
            self.table.push(h);
        }
        self.keys
            .extend(self.group_by.iter().map(|&c| t.col(c).clone()));
        self.open_with(|_, agg| Part::of(agg, t))
    }

    /// Open a group whose key values are already in `keys`, with its
    /// first block: `part(i, agg)` is what it adds to aggregate `i`.
    fn open_with<'v>(
        &mut self,
        part: impl Fn(usize, &AggExpr) -> Result<Part<'v>, EvalError>,
    ) -> Result<(), EvalError> {
        for (i, agg) in self.aggs.iter().enumerate() {
            self.accs.push(Acc::first(agg, part(i, agg)?));
        }
        self.groups += 1;
        Ok(())
    }

    /// Fold a block into group `g`, as `open_with` opens one.
    #[inline]
    fn fold<'v>(
        &mut self,
        g: usize,
        part: impl Fn(usize, &AggExpr) -> Result<Part<'v>, EvalError>,
    ) -> Result<(), EvalError> {
        let n = self.aggs.len();
        let accs = &mut self.accs[g * n..(g + 1) * n];
        for (i, (a, agg)) in accs.iter_mut().zip(self.aggs).enumerate() {
            a.add(part(i, agg)?);
        }
        Ok(())
    }

    /// The result relation: one row per group, group-by values then
    /// aggregate values. Fails with [`EvalError::AggregateOverflow`] when
    /// a group's sum lies outside the `i64` range.
    pub(crate) fn finish(self) -> Result<Relation, EvalError> {
        let (k, n) = (self.group_by.len(), self.aggs.len());
        let rows = (0..self.groups)
            .map(|g| {
                let key = self.keys[g * k..(g + 1) * k].iter().cloned().map(Ok);
                let accs = self.accs[g * n..(g + 1) * n].iter().map(Acc::value);
                key.chain(accs)
                    .collect::<Result<Vec<Value>, _>>()
                    .map(Tuple::new)
            })
            .collect::<Result<Vec<Tuple>, _>>()?;
        Ok(Relation::from_tuple_set(k + n, rows)?)
    }
}

/// The aggregates of a group join: `aggregate [group_by; aggs]` over the
/// pairs of an equi-join on column 0 of both sides, `group_by` naming only
/// the two key columns (`#0` and `#split`) or nothing. The join hands it
/// every right row with its *run*, the left rows of the same key, and it
/// folds the run × row block whole: `count` adds the run's size, a `sum`
/// over a right column `size × value`, a `sum` over a left column the
/// run's total (computed once per run), and `min`/`max` the run's extreme
/// or the right row's value. Keys arrive in order, so a new run is a new
/// group (when grouping), with no hash lookup.
pub(crate) struct RunFold<'a, 's> {
    st: AggState<'a>,
    /// The left operand's arity: columns from here on are the right row's.
    split: usize,
    /// For each aggregate over a left column, the current run's part.
    run: Vec<Part<'s>>,
}

impl<'a, 's> RunFold<'a, 's> {
    /// A fold with no groups yet.
    pub(crate) fn new(group_by: &'a [usize], aggs: &'a [AggExpr], split: usize) -> Self {
        RunFold {
            st: AggState::new(group_by, aggs),
            split,
            run: Vec::with_capacity(aggs.len()),
        }
    }

    /// Fold the pairs of `run` (non-empty, every row of one key) with the
    /// right row `t` of that key. `fresh` says the run is not the one of
    /// the previous call. Fails with [`EvalError::AggregateType`] when a
    /// summed column of a pair holds a non-integer.
    pub(crate) fn push(
        &mut self,
        run: &[&'s Tuple],
        fresh: bool,
        t: &'s Tuple,
    ) -> Result<(), EvalError> {
        let split = self.split;
        if fresh {
            self.run.clear();
            for agg in self.st.aggs {
                self.run.push(match *agg {
                    AggExpr::Sum(c) if c < split => {
                        let mut total = 0i128;
                        for m in run {
                            total += i128::from(int_for_sum(&m[c])?);
                        }
                        Part::Total(total)
                    }
                    AggExpr::Min(c) if c < split => Part::Extreme(
                        run.iter()
                            .map(|&m| &m[c])
                            .min()
                            .expect("runs are non-empty"),
                    ),
                    AggExpr::Max(c) if c < split => Part::Extreme(
                        run.iter()
                            .map(|&m| &m[c])
                            .max()
                            .expect("runs are non-empty"),
                    ),
                    // Read off the right row (or the run's size) per call.
                    _ => Part::Rows(0),
                });
            }
        }
        let n = run.len() as i64;
        let run_parts = &self.run;
        let part = |i: usize, agg: &AggExpr| {
            Ok(match *agg {
                AggExpr::Count => Part::Rows(n),
                AggExpr::Sum(c) if c >= split => {
                    Part::Total(i128::from(n) * i128::from(int_for_sum(&t[c - split])?))
                }
                AggExpr::Min(c) | AggExpr::Max(c) if c >= split => Part::Extreme(&t[c - split]),
                _ => run_parts[i],
            })
        };
        if self.st.groups == 0 || (fresh && !self.st.group_by.is_empty()) {
            let k = self.st.group_by.len();
            self.st.keys.extend(std::iter::repeat_n(&t[0], k).cloned());
            self.st.open_with(part)
        } else {
            self.st.fold(self.st.groups - 1, part)
        }
    }

    /// The result relation, in key order: see [`AggState::finish`].
    pub(crate) fn finish(self) -> Result<Relation, EvalError> {
        self.st.finish()
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
