//! Delta values (§5.5), in the spirit of Heraclitus.
//!
//! A delta value `Δ` maps relation names to pairs `(R∇, RΔ)` of deleted and
//! inserted tuples, with
//!
//! ```text
//! apply(DB, Δ)(R) = (DB(R) − R∇) ∪ RΔ
//! ```
//!
//! Unlike Heraclitus we do *not* require `R∇ ∩ RΔ = ∅` (the paper drops the
//! condition too). The smash `Δ₁ ! Δ₂` combines deltas so that applying the
//! smash equals applying `Δ₁` then `Δ₂`.
//!
//! [`eval_filter_d`] evaluates a pure RA query against `apply(DB, Δ)`
//! *without materializing* the hypothetical relations: base scans stream
//! `(DB(R) − R∇) ∪ RΔ` via a sorted three-way merge, and joins use
//! [`join_when`] — the six-operand join operator of §5.5, here realized as
//! a hash join over the two effective streams. For small deltas the cost is
//! only nominally above a plain join, which is exactly the Heraclitus
//! rule-of-thumb bench E5 reproduces.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

use hypoquery_storage::{DatabaseState, KeyRange, RelName, Relation, Tuple};

use hypoquery_algebra::{Predicate, Query};

use crate::error::EvalError;
use crate::join::join_iter;
use crate::xsub::XsubValue;

/// A delta for one relation: `(deleted, inserted)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RelDelta {
    /// Tuples removed from the base (`R∇`).
    pub deleted: Relation,
    /// Tuples added (`RΔ`).
    pub inserted: Relation,
}

impl RelDelta {
    /// The empty delta of a given arity.
    pub fn empty(arity: usize) -> Self {
        RelDelta {
            deleted: Relation::empty(arity),
            inserted: Relation::empty(arity),
        }
    }

    /// A pure-deletion delta.
    pub fn deletion(deleted: Relation) -> Self {
        let arity = deleted.arity();
        RelDelta {
            deleted,
            inserted: Relation::empty(arity),
        }
    }

    /// A pure-insertion delta.
    pub fn insertion(inserted: Relation) -> Self {
        let arity = inserted.arity();
        RelDelta {
            deleted: Relation::empty(arity),
            inserted,
        }
    }

    /// Number of tuples in the delta (|R∇| + |RΔ|).
    pub fn len(&self) -> usize {
        self.deleted.len() + self.inserted.len()
    }

    /// Whether both sides are empty.
    pub fn is_empty(&self) -> bool {
        self.deleted.is_empty() && self.inserted.is_empty()
    }
}

/// A delta value: a partial map from relation names to [`RelDelta`]s.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct DeltaValue {
    map: BTreeMap<RelName, RelDelta>,
}

impl DeltaValue {
    /// The empty delta value.
    pub fn empty() -> Self {
        DeltaValue::default()
    }

    /// Build from bindings.
    pub fn new(bindings: impl IntoIterator<Item = (RelName, RelDelta)>) -> Self {
        DeltaValue {
            map: bindings.into_iter().collect(),
        }
    }

    /// Bind (or replace) the delta for `name`.
    pub fn bind(&mut self, name: impl Into<RelName>, delta: RelDelta) {
        self.map.insert(name.into(), delta);
    }

    /// The delta for `name`, if present.
    pub fn get(&self, name: &RelName) -> Option<&RelDelta> {
        self.map.get(name)
    }

    /// Whether no names are bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total tuples held across all deltas — the materialization footprint
    /// of the delta representation (compare [`XsubValue::total_tuples`]).
    pub fn total_tuples(&self) -> usize {
        self.map.values().map(RelDelta::len).sum()
    }

    /// Iterate bindings in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&RelName, &RelDelta)> {
        self.map.iter()
    }

    /// `apply(DB, Δ)`: the state with `R ↦ (DB(R) − R∇) ∪ RΔ`.
    pub fn apply(&self, db: &DatabaseState) -> Result<DatabaseState, EvalError> {
        let mut out = db.clone();
        for (name, d) in &self.map {
            let base = db.get(name)?;
            out.set(
                name.clone(),
                base.difference(&d.deleted)?.union(&d.inserted)?,
            )?;
        }
        Ok(out)
    }

    /// The value of `R` under this delta in `db`, materialized.
    pub fn relation_under(
        &self,
        name: &RelName,
        db: &DatabaseState,
    ) -> Result<Relation, EvalError> {
        let base = db.get(name)?;
        match self.map.get(name) {
            None => Ok(base),
            Some(d) => Ok(base.difference(&d.deleted)?.union(&d.inserted)?),
        }
    }

    /// The smash `Δ₁ ! Δ₂` (§5.5):
    ///
    /// ```text
    /// R∇ = (R∇₁ − RΔ₂) ∪ R∇₂        RΔ = (RΔ₁ − R∇₂) ∪ RΔ₂
    /// ```
    ///
    /// so that `apply(DB, Δ₁!Δ₂) = apply(apply(DB, Δ₁), Δ₂)`.
    pub fn smash(&self, other: &DeltaValue) -> Result<DeltaValue, EvalError> {
        let mut map = self.map.clone();
        for (name, d2) in &other.map {
            let merged = match map.get(name) {
                None => d2.clone(),
                Some(d1) => RelDelta {
                    deleted: d1.deleted.difference(&d2.inserted)?.union(&d2.deleted)?,
                    inserted: d1.inserted.difference(&d2.deleted)?.union(&d2.inserted)?,
                },
            };
            map.insert(name.clone(), merged);
        }
        Ok(DeltaValue { map })
    }

    /// The *precise* delta capturing xsub-value `E` in `db` (§5.5):
    /// `R∇ = DB(R) − E(R)`, `RΔ = E(R) − DB(R)`. Always captures `E`
    /// (`apply(DB, Δ) = apply(DB, E)`), at the cost of computing both
    /// differences.
    pub fn capture_xsub(e: &XsubValue, db: &DatabaseState) -> Result<DeltaValue, EvalError> {
        let mut out = DeltaValue::empty();
        for (name, target) in e.iter() {
            let base = db.get(name)?;
            out.bind(
                name.clone(),
                RelDelta {
                    deleted: base.difference(target)?,
                    inserted: target.difference(&base)?,
                },
            );
        }
        Ok(out)
    }
}

impl fmt::Display for DeltaValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (name, d)) in self.map.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "(−{}, +{})/{name}", d.deleted.len(), d.inserted.len())?;
        }
        write!(f, "}}")
    }
}

/// Iterate the *effective* relation `(base − deleted) ∪ inserted` in sorted
/// order without materializing it: a three-way merge over the operands'
/// sorted tuple slices, by position, with no per-row lookup. This is the
/// streaming core of the §5.5 delta-filtered operators. With a `range`,
/// each operand walks only its column-0 slice ([`Relation::range_slice`])
/// and the merge is the same: the slices of sorted relations are sorted.
/// With no delta the deleted and inserted slices are empty and the walk
/// is the base slice's.
pub fn effective_iter<'a>(
    base: &'a Relation,
    delta: Option<&'a RelDelta>,
    range: Option<&'a KeyRange>,
) -> EffectiveIter<'a> {
    let slice = |rel: &'a Relation| match range {
        Some(r) => rel.range_slice(r),
        None => rel.as_slice(),
    };
    EffectiveIter {
        base: slice(base),
        deleted: delta.map_or(&[][..], |d| slice(&d.deleted)),
        inserted: delta.map_or(&[][..], |d| slice(&d.inserted)),
    }
}

/// The iterator of [`effective_iter`]: the unread rest of each sorted,
/// duplicate-free operand slice.
pub struct EffectiveIter<'a> {
    base: &'a [Tuple],
    deleted: &'a [Tuple],
    inserted: &'a [Tuple],
}

impl<'a> Iterator for EffectiveIter<'a> {
    type Item = &'a Tuple;

    fn next(&mut self) -> Option<&'a Tuple> {
        // The next base row not deleted: the deleted rows below it are
        // passed over, one equal to it drops it.
        let mut survivor = None;
        'base: while let Some((x, rest)) = self.base.split_first() {
            while let Some((d, more)) = self.deleted.split_first() {
                match d.cmp(x) {
                    Ordering::Less => self.deleted = more,
                    Ordering::Equal => {
                        self.deleted = more;
                        self.base = rest;
                        continue 'base;
                    }
                    Ordering::Greater => break,
                }
            }
            survivor = Some((x, rest));
            break;
        }
        // Then the smaller of it and the next inserted row (both, if equal).
        match (survivor, self.inserted.split_first()) {
            (None, None) => None,
            (Some((x, rest)), None) => {
                self.base = rest;
                Some(x)
            }
            (None, Some((y, more))) => {
                self.inserted = more;
                Some(y)
            }
            (Some((x, rest)), Some((y, more))) => {
                match x.cmp(y) {
                    Ordering::Less => self.base = rest,
                    Ordering::Greater => {
                        self.inserted = more;
                        return Some(y);
                    }
                    Ordering::Equal => {
                        self.base = rest;
                        self.inserted = more;
                    }
                }
                Some(x)
            }
        }
    }
}

/// The six-operand `join-when` operator of §5.5: computes
///
/// ```text
/// [(L − L∇) ∪ LΔ] ⋈_p [(R − R∇) ∪ RΔ]
/// ```
///
/// by streaming both effective relations into the join pipeline — neither
/// hypothetical relation is materialized. (Heraclitus used a sort-merge
/// variant; our equi-join core is hash-based with the same streaming
/// contract and the same small-delta cost profile.)
pub fn join_when(
    left_base: &Relation,
    left_delta: Option<&RelDelta>,
    right_base: &Relation,
    right_delta: Option<&RelDelta>,
    pred: &Predicate,
) -> Relation {
    let left = effective_iter(left_base, left_delta, None);
    let right: Vec<&Tuple> = effective_iter(right_base, right_delta, None).collect();
    join_iter(
        left,
        left_base.arity(),
        right.into_iter(),
        right_base.arity(),
        pred,
    )
}

/// `eval_filter_d(Q, Δ)`: evaluate a **pure** RA query against
/// `apply(DB, Δ)` using delta-filtered scans and `join-when` — the
/// [`filter3`](crate::filter3::filter3) walk restricted to `when`-free
/// queries.
pub fn eval_filter_d(
    q: &Query,
    delta: &DeltaValue,
    db: &DatabaseState,
) -> Result<Relation, EvalError> {
    if !q.is_pure() {
        return Err(EvalError::UnsupportedShape(q.to_string()));
    }
    crate::filter3::filter3(q, delta, db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypoquery_algebra::CmpOp;
    use hypoquery_storage::{tuple, Catalog, Value};
    use std::ops::Bound;

    fn rel(vals: &[i64]) -> Relation {
        Relation::from_rows(1, vals.iter().map(|&v| tuple![v])).unwrap()
    }

    fn db() -> DatabaseState {
        let mut cat = Catalog::new();
        cat.declare_arity("R", 2).unwrap();
        cat.declare_arity("S", 2).unwrap();
        let mut db = DatabaseState::new(cat);
        db.insert_rows("R", [tuple![1, 10], tuple![2, 20], tuple![3, 30]])
            .unwrap();
        db.insert_rows("S", [tuple![2, 200], tuple![3, 300], tuple![4, 400]])
            .unwrap();
        db
    }

    fn rel2(rows: &[[i64; 2]]) -> Relation {
        Relation::from_rows(2, rows.iter().map(|&[a, b]| tuple![a, b])).unwrap()
    }

    #[test]
    fn apply_delta() {
        let db = db();
        let d = DeltaValue::new([(
            "R".into(),
            RelDelta {
                deleted: rel2(&[[1, 10]]),
                inserted: rel2(&[[9, 90]]),
            },
        )]);
        let out = d.apply(&db).unwrap();
        assert_eq!(
            out.get(&"R".into()).unwrap(),
            rel2(&[[2, 20], [3, 30], [9, 90]])
        );
        assert_eq!(out.get(&"S".into()).unwrap(), db.get(&"S".into()).unwrap());
    }

    #[test]
    fn smash_equals_sequential_application() {
        let db = db();
        let d1 = DeltaValue::new([(
            "R".into(),
            RelDelta {
                deleted: rel2(&[[1, 10]]),
                inserted: rel2(&[[9, 90]]),
            },
        )]);
        let d2 = DeltaValue::new([(
            "R".into(),
            RelDelta {
                deleted: rel2(&[[9, 90], [2, 20]]),
                inserted: rel2(&[[1, 10]]),
            },
        )]);
        let smashed = d1.smash(&d2).unwrap();
        let lhs = smashed.apply(&db).unwrap();
        let rhs = d2.apply(&d1.apply(&db).unwrap()).unwrap();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn capture_xsub_is_precise() {
        let db = db();
        let e = XsubValue::new([("R".into(), rel2(&[[2, 20], [9, 90]]))]);
        let d = DeltaValue::capture_xsub(&e, &db).unwrap();
        let rd = d.get(&"R".into()).unwrap();
        assert_eq!(rd.deleted, rel2(&[[1, 10], [3, 30]]));
        assert_eq!(rd.inserted, rel2(&[[9, 90]]));
        assert_eq!(d.apply(&db).unwrap(), e.apply(&db).unwrap());
    }

    #[test]
    fn effective_iter_streams_sorted_dedup() {
        let base = rel(&[1, 2, 3, 5]);
        let d = RelDelta {
            deleted: rel(&[2]),
            inserted: rel(&[3, 4, 6]),
        };
        let vals = |delta, range| -> Vec<i64> {
            effective_iter(&base, delta, range)
                .map(|t| t[0].as_int().unwrap())
                .collect()
        };
        assert_eq!(vals(Some(&d), None), [1, 3, 4, 5, 6]);
        // Deleted rows the base lacks are passed over; a row both deleted
        // and inserted is in.
        let d2 = RelDelta {
            deleted: rel(&[0, 2, 4, 7]),
            inserted: rel(&[2, 3, 8]),
        };
        assert_eq!(vals(Some(&d2), None), [1, 2, 3, 5, 8]);
        // No delta: base order.
        assert_eq!(vals(None, None), [1, 2, 3, 5]);
        // A range slices all three operands before the merge.
        let r = KeyRange::full()
            .with_lo(Bound::Excluded(Value::int(1)))
            .with_hi(Bound::Included(Value::int(4)));
        assert_eq!(vals(Some(&d), Some(&r)), [3, 4]);
        assert_eq!(vals(None, Some(&r)), [2, 3]);
    }

    #[test]
    fn join_when_matches_materialized_join() {
        let db = db();
        let rd = RelDelta {
            deleted: rel2(&[[2, 20]]),
            inserted: rel2(&[[4, 40]]),
        };
        let sd = RelDelta {
            deleted: rel2(&[[4, 400]]),
            inserted: rel2(&[[1, 100]]),
        };
        let p = Predicate::col_col(0, CmpOp::Eq, 2);
        let fast = join_when(
            &db.get(&"R".into()).unwrap(),
            Some(&rd),
            &db.get(&"S".into()).unwrap(),
            Some(&sd),
            &p,
        );
        // Oracle: materialize both effective relations, then join.
        let left = rel2(&[[1, 10], [3, 30], [4, 40]]);
        let right = rel2(&[[2, 200], [3, 300], [1, 100]]);
        let slow = crate::join::join(&left, &right, &p);
        assert_eq!(fast, slow);
        // Matches: (1,10)-(1,100) and (3,30)-(3,300).
        assert_eq!(fast.len(), 2);
    }

    #[test]
    fn eval_filter_d_equals_eval_in_applied_state() {
        let db = db();
        let d = DeltaValue::new([
            (
                "R".into(),
                RelDelta {
                    deleted: rel2(&[[1, 10]]),
                    inserted: rel2(&[[4, 44]]),
                },
            ),
            ("S".into(), RelDelta::insertion(rel2(&[[1, 111]]))),
        ]);
        let q = Query::base("R")
            .join(Query::base("S"), Predicate::col_col(0, CmpOp::Eq, 2))
            .project([0, 3]);
        let fast = eval_filter_d(&q, &d, &db).unwrap();
        let slow = crate::direct::eval_query(&q, &d.apply(&db).unwrap()).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn eval_filter_d_rejects_when() {
        let db = db();
        let q = Query::base("R").when(hypoquery_algebra::StateExpr::subst(
            hypoquery_algebra::ExplicitSubst::empty(),
        ));
        assert!(matches!(
            eval_filter_d(&q, &DeltaValue::empty(), &db),
            Err(EvalError::UnsupportedShape(_))
        ));
    }

    #[test]
    fn display_shows_delta_sizes() {
        let d = DeltaValue::new([(
            "R".into(),
            RelDelta {
                deleted: rel(&[1]),
                inserted: rel(&[2, 3]),
            },
        )]);
        assert_eq!(d.to_string(), "{(−1, +2)/R}");
        assert_eq!(d.total_tuples(), 3);
    }
}
