//! Cardinality statistics and a simple cost model.
//!
//! The paper leaves "techniques for estimating the cost of execution plans
//! involving xsub-values and delta values" as future work (§6); what the
//! planner needs today is a coarse, monotone estimator good enough to
//! choose between lazy, eager-xsub and eager-delta shapes. We use textbook
//! selectivity constants over exact base cardinalities.
//!
//! [`estimate`] computes a query's rows, cost and output arity in one
//! bottom-up walk; [`estimate_rows`] and [`estimate_cost`] read one field
//! of it. Index paths are priced with the tests the lowering uses to take
//! them (`point_eq_conjuncts` for probes, `split_equi_pairs` for index
//! joins), but the estimator is not shadow-aware. Inside a `when` body
//! the lowering takes an index join on a delta-rebound name (probing the
//! stored index through the delta), so the estimate holds there; it
//! still prices two paths the lowering will scan instead: an index join
//! on an xsub-rebound name, and an index probe on any rebound name.
//! The lowering's other access path, a column-0 range scan
//! (`key_range`), is not priced: a range predicate costs `SEL_RANGE`
//! rows over a full scan either way.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

use hypoquery_storage::{distinct_counts, DatabaseState, KeyRange, RelName, Value};

use hypoquery_algebra::{CmpOp, Predicate, Query, ScalarExpr, StateExpr, Update};
use hypoquery_eval::join::{split_equi_pairs, EquiPair};

use crate::implication::{any_conjunct, conjuncts};

/// Selectivity assumed for equality predicates.
pub const SEL_EQ: f64 = 0.1;
/// Selectivity assumed for range predicates.
pub const SEL_RANGE: f64 = 0.33;
/// Selectivity assumed for inequality (`<>`) predicates.
pub const SEL_NE: f64 = 0.9;
/// Matching fraction assumed for join predicates beyond the equi-core.
pub const SEL_JOIN: f64 = 0.1;

/// Base-relation statistics, snapshotted from a state: exact
/// cardinalities, declared arities, per-column distinct counts, and which
/// columns carry a declared secondary index.
#[derive(Clone, Debug, Default)]
pub struct Statistics {
    cards: BTreeMap<RelName, f64>,
    arities: BTreeMap<RelName, usize>,
    distincts: BTreeMap<(RelName, usize), f64>,
    indexed: BTreeMap<RelName, BTreeSet<usize>>,
}

impl Statistics {
    /// Snapshot statistics from a database state. Distinct counts are
    /// cached in each relation's shared storage
    /// (`hypoquery_storage::distinct_counts`), so repeated snapshots of
    /// unchanged relations cost one pass total.
    pub fn of(db: &DatabaseState) -> Self {
        let mut cards = BTreeMap::new();
        let mut arities = BTreeMap::new();
        let mut distincts = BTreeMap::new();
        for (name, schema) in db.catalog().iter() {
            arities.insert(name.clone(), schema.arity);
            if let Ok(rel) = db.get(name) {
                cards.insert(name.clone(), rel.len() as f64);
                if !rel.is_empty() {
                    for (col, &n) in distinct_counts(&rel).iter().enumerate() {
                        distincts.insert((name.clone(), col), n as f64);
                    }
                }
            }
        }
        let mut indexed: BTreeMap<RelName, BTreeSet<usize>> = BTreeMap::new();
        for (name, col) in db.index_decls() {
            indexed.entry(name.clone()).or_default().insert(col);
        }
        Statistics {
            cards,
            arities,
            distincts,
            indexed,
        }
    }

    /// Build from explicit `(name, cardinality)` pairs.
    pub fn from_cards(cards: impl IntoIterator<Item = (RelName, f64)>) -> Self {
        Statistics {
            cards: cards.into_iter().collect(),
            ..Statistics::default()
        }
    }

    /// Cardinality of a base relation (0 if unknown). Sanitized: a
    /// non-finite or negative stored value (possible with hand-built
    /// [`Statistics::from_cards`]) reads as 0.
    pub fn card(&self, name: &RelName) -> f64 {
        let c = self.cards.get(name).copied().unwrap_or(0.0);
        if c.is_finite() {
            c.max(0.0)
        } else {
            0.0
        }
    }

    /// Declared arity of a base relation, if known.
    pub fn arity(&self, name: &RelName) -> Option<usize> {
        self.arities.get(name).copied()
    }

    /// Distinct values in a base column, if measured.
    pub fn distinct(&self, name: &RelName, col: usize) -> Option<f64> {
        self.distincts.get(&(name.clone(), col)).copied()
    }

    /// Whether a secondary index is declared on `name.col`.
    pub fn has_index(&self, name: &RelName, col: usize) -> bool {
        self.indexed.get(name).is_some_and(|s| s.contains(&col))
    }

    /// Builder: record an arity (for hand-built test statistics).
    pub fn with_arity(mut self, name: impl Into<RelName>, arity: usize) -> Self {
        self.arities.insert(name.into(), arity);
        self
    }

    /// Builder: record a distinct count (for hand-built test statistics).
    pub fn with_distinct(mut self, name: impl Into<RelName>, col: usize, n: f64) -> Self {
        self.distincts.insert((name.into(), col), n);
        self
    }

    /// Builder: record an index declaration (for hand-built test
    /// statistics).
    pub fn with_index(mut self, name: impl Into<RelName>, col: usize) -> Self {
        self.indexed.entry(name.into()).or_default().insert(col);
        self
    }
}

/// Estimated selectivity of a predicate over a *known base relation*:
/// point equalities `#c = const` use the measured distinct count of the
/// column (`1/V(R,c)`, the textbook uniform estimate) when available,
/// falling back to the flat [`SEL_EQ`] constant otherwise. With `base`
/// `None` this is exactly [`selectivity`].
pub fn selectivity_over(p: &Predicate, base: Option<&RelName>, stats: &Statistics) -> f64 {
    let sel = |q: &Predicate| selectivity_over(q, base, stats);
    clamp01(match p {
        Predicate::True => 1.0,
        Predicate::False => 0.0,
        Predicate::Cmp(ScalarExpr::Col(c), CmpOp::Eq, ScalarExpr::Const(_))
        | Predicate::Cmp(ScalarExpr::Const(_), CmpOp::Eq, ScalarExpr::Col(c)) => base
            .and_then(|n| stats.distinct(n, *c))
            .map(|d| (1.0 / d.max(1.0)).min(1.0))
            .unwrap_or(SEL_EQ),
        Predicate::Cmp(_, CmpOp::Eq, _) => SEL_EQ,
        Predicate::Cmp(_, CmpOp::Ne, _) => SEL_NE,
        Predicate::Cmp(_, _, _) => SEL_RANGE,
        Predicate::And(a, b) => sel(a) * sel(b),
        Predicate::Or(a, b) => {
            let (sa, sb) = (sel(a), sel(b));
            (sa + sb - sa * sb).min(1.0)
        }
        Predicate::Not(a) => 1.0 - sel(a),
    })
}

/// Estimated selectivity of a predicate, with no base-relation knowledge.
pub fn selectivity(p: &Predicate) -> f64 {
    selectivity_over(p, None, &Statistics::default())
}

/// Clamp a selectivity into `[0, 1]`; non-finite values (conceivable
/// only with degenerate injected statistics) read as 1 — "no filtering
/// knowledge", the conservative choice.
fn clamp01(s: f64) -> f64 {
    if s.is_finite() {
        s.clamp(0.0, 1.0)
    } else {
        1.0
    }
}

/// Final guard for row estimates: never negative, never NaN (reads as
/// 0 — an estimate derived from nothing), `+∞` capped to `f64::MAX` so
/// downstream arithmetic stays ordered under `total_cmp`.
fn sanitize_rows(r: f64) -> f64 {
    if r.is_nan() {
        0.0
    } else if r == f64::INFINITY {
        f64::MAX
    } else {
        r.max(0.0)
    }
}

/// Final guard for cost estimates: never negative; NaN/`+∞` read as
/// `f64::MAX` so an un-costable candidate loses every comparison
/// instead of winning it by NaN ordering.
fn sanitize_cost(c: f64) -> f64 {
    if !c.is_finite() {
        f64::MAX
    } else {
        c.max(0.0)
    }
}

/// Row count, cost and output arity of one query node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Estimate {
    /// Estimated output cardinality.
    pub rows: f64,
    /// Estimated evaluation cost: total tuples flowing through all
    /// operators (a unit-cost-per-tuple model).
    pub cost: f64,
    /// Output arity, when derivable from the statistics' declared arities
    /// (needed to rebase join-predicate columns).
    pub arity: Option<usize>,
}

/// Estimated output cardinality of a query (see [`estimate`]).
pub fn estimate_rows(q: &Query, stats: &Statistics) -> f64 {
    estimate(q, stats).rows
}

/// Estimated evaluation cost of a query (see [`estimate`]).
pub fn estimate_cost(q: &Query, stats: &Statistics) -> f64 {
    estimate(q, stats).cost
}

/// Estimate rows, cost and arity of a query in one bottom-up walk.
///
/// `when` bodies are estimated as if the hypothetical update left
/// cardinalities unchanged, except that names bound by the state
/// expression are re-estimated from the binding/update shape — coarse, but
/// monotone in the base sizes, which is all the planner relies on. A
/// `when` costs its body under the adjusted statistics plus the cost of
/// materializing the state's bindings once.
///
/// Declared secondary indexes change the access path: a point-equality
/// select over an indexed base costs its output (a probe), and an
/// equi-join whose base operand is indexed on the full equi-core skips
/// the hash build and iterates only the other side. Without index
/// declarations the model is unchanged.
pub fn estimate(q: &Query, stats: &Statistics) -> Estimate {
    let (rows, cost, arity) = match q {
        Query::Base(name) => {
            let c = stats.card(name);
            (c, c, stats.arity(name))
        }
        Query::Singleton(t) => (1.0, 1.0, Some(t.arity())),
        Query::Empty { arity } => (0.0, 1.0, Some(*arity)),
        Query::Select(inner, p) => {
            let i = estimate(inner, stats);
            let base = match &**inner {
                Query::Base(name) => Some(name),
                _ => None,
            };
            let rows = sanitize_rows(i.rows * selectivity_over(p, base, stats));
            let probe = base.is_some_and(|name| {
                point_eq_conjuncts(p)
                    .iter()
                    .any(|(c, _)| stats.has_index(name, *c))
            });
            // An index probe pays for the matching rows only.
            let cost = if probe {
                rows.max(1.0)
            } else {
                i.cost + i.rows
            };
            (rows, cost, i.arity)
        }
        Query::Project(inner, cols) => {
            let i = estimate(inner, stats);
            (i.rows, i.cost + i.rows, Some(cols.len()))
        }
        Query::Union(a, b) | Query::Intersect(a, b) | Query::Diff(a, b) => {
            let (ea, eb) = (estimate(a, stats), estimate(b, stats));
            let rows = match q {
                Query::Union(..) => ea.rows + eb.rows,
                Query::Intersect(..) => ea.rows.min(eb.rows),
                _ => ea.rows,
            };
            (rows, ea.cost + eb.cost + ea.rows + eb.rows, ea.arity)
        }
        Query::Product(a, b) => {
            let (ea, eb) = (estimate(a, stats), estimate(b, stats));
            let rows = ea.rows * eb.rows;
            (
                rows,
                ea.cost + eb.cost + rows,
                ea.arity.zip(eb.arity).map(|(x, y)| x + y),
            )
        }
        Query::Join(a, b, p) => {
            let (ea, eb) = (estimate(a, stats), estimate(b, stats));
            let (l, r) = (ea.rows, eb.rows);
            // Equi-joins get the textbook foreign-key estimate
            // max(|L|, |R|); pure theta-joins fall back to a selectivity
            // fraction of the cross product.
            let has_equi = crate::implication::conjuncts(p).iter().any(|c| {
                matches!(
                    c,
                    Predicate::Cmp(ScalarExpr::Col(_), CmpOp::Eq, ScalarExpr::Col(_))
                )
            });
            let out = sanitize_rows(if has_equi {
                l.max(r)
            } else {
                l * r * selectivity(p).max(SEL_JOIN / 10.0)
            });
            // Indexed build side: no hash build, iterate only the probe
            // side (the executor picks the cheaper one when both are
            // available). Otherwise a hash join: build + probe + output.
            let probe = ea.arity.and_then(|left_arity| {
                let (pairs, _) = split_equi_pairs(p, left_arity);
                let indexed = |q: &Query, col: fn(&EquiPair) -> usize| {
                    !pairs.is_empty()
                        && matches!(q, Query::Base(n)
                            if pairs.iter().all(|pair| stats.has_index(n, col(pair))))
                };
                match (indexed(a, |e| e.left), indexed(b, |e| e.right)) {
                    (true, true) => Some(l.min(r)),
                    (true, false) => Some(r),
                    (false, true) => Some(l),
                    (false, false) => None,
                }
            });
            let cost = match probe {
                Some(probe) => ea.cost + eb.cost + probe + out,
                None => ea.cost + eb.cost + l + r + out,
            };
            (out, cost, ea.arity.zip(eb.arity).map(|(x, y)| x + y))
        }
        Query::When(inner, eta) => {
            let (adjusted, materialize) = enter_state(eta, stats);
            let i = estimate(inner, &adjusted);
            (i.rows, i.cost + materialize, i.arity)
        }
        Query::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let i = estimate(input, stats);
            let n = i.rows;
            let rows = if group_by.is_empty() {
                n.min(1.0)
            } else {
                // Assume grouping reduces to ~sqrt of the input.
                n.sqrt().max(1.0).min(n)
            };
            (rows, i.cost + i.rows, Some(group_by.len() + aggs.len()))
        }
    };
    Estimate {
        rows: sanitize_rows(rows),
        cost: sanitize_cost(cost),
        arity,
    }
}

/// Re-estimate base cardinalities under a hypothetical state expression,
/// and estimate the cost of materializing it (the eager strategy's
/// up-front payment: evaluating every binding/update query), in one walk
/// over `eta`.
fn enter_state(eta: &StateExpr, stats: &Statistics) -> (Statistics, f64) {
    match eta {
        StateExpr::Update(u) => {
            let mut out = stats.clone();
            let cost = apply_update(u, &mut out);
            (out, cost)
        }
        StateExpr::Subst(eps) => {
            let mut out = stats.clone();
            let mut cost = 0.0;
            for (name, bq) in eps.iter() {
                let e = estimate(bq, stats);
                cost += e.cost + e.rows;
                out.cards.insert(name.clone(), e.rows);
            }
            (out, cost)
        }
        StateExpr::Compose(a, b) => {
            let (after_a, cost_a) = enter_state(a, stats);
            let (after_b, cost_b) = enter_state(b, &after_a);
            (after_b, cost_a + cost_b)
        }
    }
}

/// Resize `stats` for the update `u` and return the cost of evaluating
/// its queries. A conditional is sized as its then-branch (good enough
/// for sizing) and costed as its guard plus the dearer branch.
fn apply_update(u: &Update, stats: &mut Statistics) -> f64 {
    match u {
        Update::Insert(name, q) | Update::Delete(name, q) => {
            let e = estimate(q, stats);
            let cur = stats.card(name);
            let next = match u {
                Update::Insert(..) => cur + e.rows,
                _ => (cur - e.rows).max(0.0),
            };
            stats.cards.insert(name.clone(), next);
            e.cost + e.rows
        }
        Update::Seq(a, b) => apply_update(a, stats) + apply_update(b, stats),
        Update::Cond {
            guard,
            then_u,
            else_u,
        } => {
            let guard = estimate_cost(guard, stats);
            let mut other = stats.clone();
            let then_cost = apply_update(then_u, stats);
            guard + then_cost.max(apply_update(else_u, &mut other))
        }
    }
}

/// The top-level `#i op const` conjuncts of `p` as `(i, op, const)`, a
/// `const op #i` flipped to that form. Only `And` is descended: under a
/// disjunction or negation a comparison is not guaranteed, so it is
/// ignored. These are the predicates index probes and key ranges serve.
fn col_const_conjuncts(p: &Predicate) -> impl Iterator<Item = (usize, CmpOp, Value)> {
    conjuncts(p).into_iter().filter_map(|c| match c {
        Predicate::Cmp(ScalarExpr::Col(i), op, ScalarExpr::Const(v)) => Some((i, op, v)),
        Predicate::Cmp(ScalarExpr::Const(v), op, ScalarExpr::Col(i)) => Some((i, op.flip(), v)),
        _ => None,
    })
}

/// The point-equality conjuncts `#i = const` of `p`: what an index probe
/// can serve.
pub(crate) fn point_eq_conjuncts(p: &Predicate) -> Vec<(usize, Value)> {
    col_const_conjuncts(p)
        .filter(|(_, op, _)| *op == CmpOp::Eq)
        .map(|(i, _, v)| (i, v))
        .collect()
}

/// The column-0 range that every row satisfying `p` lies in, from its
/// `#0 op const` conjuncts (`=`, `<`, `<=`, `>`, `>=`; `<>` bounds
/// nothing). `None` when no conjunct bounds column 0. `CmpOp::apply`
/// compares with `Value`'s total order, the order relations are sorted
/// in, so the bounds hold whatever the constants' types.
pub(crate) fn key_range(p: &Predicate) -> Option<KeyRange> {
    let range = col_const_conjuncts(p).filter(|(col, _, _)| *col == 0).fold(
        KeyRange::full(),
        |r, (_, op, v)| match op {
            CmpOp::Eq => r
                .with_lo(Bound::Included(v.clone()))
                .with_hi(Bound::Included(v)),
            CmpOp::Lt => r.with_hi(Bound::Excluded(v)),
            CmpOp::Le => r.with_hi(Bound::Included(v)),
            CmpOp::Gt => r.with_lo(Bound::Excluded(v)),
            CmpOp::Ge => r.with_lo(Bound::Included(v)),
            CmpOp::Ne => r,
        },
    );
    (!range.is_full()).then_some(range)
}

/// Whether [`key_range`] bounds every conjunct of `p`: each is a
/// `#0 op const` with `op ≠ <>`, so a scan of the range yields exactly
/// the rows satisfying `p` and needs no filter above it.
pub(crate) fn key_range_is_exact(p: &Predicate) -> bool {
    use ScalarExpr::{Col, Const};
    !any_conjunct(p, &mut |c| {
        !matches!(c, Predicate::Cmp(Col(0), op, Const(_)) | Predicate::Cmp(Const(_), op, Col(0))
            if *op != CmpOp::Ne)
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hypoquery_algebra::{ExplicitSubst, Predicate};
    use hypoquery_storage::{tuple, Catalog};

    fn stats() -> Statistics {
        Statistics::from_cards([("R".into(), 1000.0), ("S".into(), 100.0)])
    }

    #[test]
    fn snapshot_from_state() {
        let mut cat = Catalog::new();
        cat.declare_arity("R", 2).unwrap();
        let mut db = DatabaseState::new(cat);
        db.insert_rows("R", [tuple![1, 7], tuple![2, 7], tuple![2, 8]])
            .unwrap();
        db.declare_index("R", 0).unwrap();
        let s = Statistics::of(&db);
        assert_eq!(s.card(&"R".into()), 3.0);
        assert_eq!(s.card(&"Z".into()), 0.0);
        assert_eq!(s.arity(&"R".into()), Some(2));
        // Per-column distinct counts come from the data.
        assert_eq!(s.distinct(&"R".into(), 0), Some(2.0));
        assert_eq!(s.distinct(&"R".into(), 1), Some(2.0));
        assert_eq!(s.distinct(&"Z".into(), 0), None);
        // Index declarations are visible.
        assert!(s.has_index(&"R".into(), 0));
        assert!(!s.has_index(&"R".into(), 1));
    }

    #[test]
    fn distinct_counts_refine_equality_selectivity() {
        // 1000-row R whose column 0 has 500 distinct values: a point
        // select matches ~2 rows, not the flat 10%.
        let st = Statistics::from_cards([("R".into(), 1000.0)]).with_distinct("R", 0, 500.0);
        let q = Query::base("R").select(Predicate::col_cmp(0, CmpOp::Eq, 7));
        assert!((estimate_rows(&q, &st) - 2.0).abs() < 1e-9);
        // Unknown column falls back to SEL_EQ.
        let q1 = Query::base("R").select(Predicate::col_cmp(1, CmpOp::Eq, 7));
        assert!((estimate_rows(&q1, &st) - 1000.0 * SEL_EQ).abs() < 1e-9);
        // Non-base inputs keep the flat constant.
        let q2 = Query::base("R")
            .union(Query::base("R"))
            .select(Predicate::col_cmp(0, CmpOp::Eq, 7));
        assert!((estimate_rows(&q2, &st) - 2000.0 * SEL_EQ).abs() < 1e-9);
    }

    #[test]
    fn point_conjuncts_both_orders_through_and() {
        let p = Predicate::col_cmp(0, CmpOp::Eq, 3)
            .and(Predicate::Cmp(
                ScalarExpr::Const(Value::int(5)),
                CmpOp::Eq,
                ScalarExpr::Col(1),
            ))
            .and(Predicate::col_cmp(1, CmpOp::Gt, 0));
        let pts = point_eq_conjuncts(&p);
        assert_eq!(pts, vec![(0, Value::int(3)), (1, Value::int(5))]);
        // Disjunctions are not conjuncts.
        let p = Predicate::col_cmp(0, CmpOp::Eq, 3).or(Predicate::True);
        assert!(point_eq_conjuncts(&p).is_empty());
    }

    #[test]
    fn key_range_intersects_column0_bounds() {
        let c0 = |op, v: i64| Predicate::col_cmp(0, op, v);
        let flipped =
            |v: i64, op| Predicate::Cmp(ScalarExpr::Const(Value::int(v)), op, ScalarExpr::Col(0));
        // `3 < #0` is `#0 > 3`; other columns and `<>` bound nothing.
        let p = flipped(3, CmpOp::Lt)
            .and(c0(CmpOp::Le, 9))
            .and(c0(CmpOp::Lt, 12))
            .and(c0(CmpOp::Ne, 5))
            .and(Predicate::col_cmp(1, CmpOp::Lt, 0));
        let r = key_range(&p).unwrap();
        assert_eq!(r.to_string(), "#0 > 3 and #0 <= 9");
        assert_eq!(key_range(&c0(CmpOp::Eq, 4)).unwrap().to_string(), "#0 = 4");
        assert_eq!(
            key_range(&flipped(4, CmpOp::Ge)).unwrap().to_string(),
            "#0 <= 4"
        );
        // No bound: `<>`, disjunctions, negations, column comparisons.
        for p in [
            c0(CmpOp::Ne, 5),
            c0(CmpOp::Lt, 5).or(c0(CmpOp::Gt, 9)),
            c0(CmpOp::Lt, 5).not(),
            Predicate::col_col(0, CmpOp::Lt, 1),
            Predicate::col_cmp(1, CmpOp::Eq, 2),
        ] {
            assert_eq!(key_range(&p), None, "{p}");
        }
    }

    #[test]
    fn index_makes_point_select_cheap() {
        let plain = Statistics::from_cards([("R".into(), 1000.0)]).with_arity("R", 2);
        let indexed = plain.clone().with_index("R", 0);
        let q = Query::base("R").select(Predicate::col_cmp(0, CmpOp::Eq, 7));
        let scan_cost = estimate_cost(&q, &plain);
        let probe_cost = estimate_cost(&q, &indexed);
        assert!(probe_cost < scan_cost);
        // A range select can't use the index; cost is unchanged.
        let r = Query::base("R").select(Predicate::col_cmp(0, CmpOp::Lt, 7));
        assert_eq!(estimate_cost(&r, &plain), estimate_cost(&r, &indexed));
    }

    #[test]
    fn index_makes_equi_join_cheaper() {
        let plain = Statistics::from_cards([("R".into(), 1000.0), ("S".into(), 100.0)])
            .with_arity("R", 2)
            .with_arity("S", 2);
        let indexed = plain.clone().with_index("S", 0);
        let q = Query::base("R").join(Query::base("S"), Predicate::col_col(0, CmpOp::Eq, 2));
        assert!(estimate_cost(&q, &indexed) < estimate_cost(&q, &plain));
        // An index on a non-equi column changes nothing.
        let off = plain.clone().with_index("S", 1);
        assert_eq!(estimate_cost(&q, &off), estimate_cost(&q, &plain));
    }

    #[test]
    fn selectivity_shapes() {
        let eq = Predicate::col_cmp(0, CmpOp::Eq, 1);
        let range = Predicate::col_cmp(0, CmpOp::Lt, 1);
        assert!(selectivity(&eq) < selectivity(&range));
        assert!(selectivity(&eq.clone().and(range.clone())) < selectivity(&eq));
        assert!(selectivity(&eq.clone().or(range.clone())) > selectivity(&eq));
        assert_eq!(selectivity(&Predicate::True), 1.0);
        assert_eq!(selectivity(&Predicate::False), 0.0);
    }

    #[test]
    fn row_estimates_are_monotone_in_base_size() {
        let st = stats();
        let q = Query::base("R").select(Predicate::col_cmp(0, CmpOp::Lt, 5));
        let est = estimate_rows(&q, &st);
        assert!(est > 0.0 && est < 1000.0);
        let bigger = Statistics::from_cards([("R".into(), 10_000.0), ("S".into(), 100.0)]);
        assert!(estimate_rows(&q, &bigger) > est);
    }

    #[test]
    fn when_adjusts_cardinalities() {
        let st = stats();
        // R when {S/R}: R now looks like S (100 rows).
        let eps = ExplicitSubst::single("R", Query::base("S"));
        let q = Query::base("R").when(StateExpr::subst(eps));
        assert_eq!(estimate_rows(&q, &st), 100.0);
        // Insert grows the estimate.
        let q = Query::base("R").when(StateExpr::update(Update::insert("R", Query::base("S"))));
        assert_eq!(estimate_rows(&q, &st), 1100.0);
    }

    #[test]
    fn cost_grows_with_plan_size() {
        let st = stats();
        let scan = Query::base("R");
        let join = Query::base("R").join(Query::base("S"), Predicate::col_col(0, CmpOp::Eq, 2));
        assert!(estimate_cost(&join, &st) > estimate_cost(&scan, &st));
    }

    #[test]
    fn materialization_cost_of_composition_accumulates() {
        let st = stats();
        let e1 = StateExpr::update(Update::insert("R", Query::base("S")));
        let e2 = StateExpr::update(Update::delete("S", Query::base("S")));
        let cost = |eta: &StateExpr| enter_state(eta, &st).1;
        let c = cost(&e1.clone().compose(e2.clone()));
        assert!(c >= cost(&e1));
        assert!(c >= cost(&e2));
    }

    /// A handful of query shapes that exercise every cost-model branch.
    pub(crate) fn probe_queries() -> Vec<Query> {
        let point = Query::base("R").select(Predicate::col_cmp(0, CmpOp::Eq, 1));
        let join = Query::base("R").join(Query::base("S"), Predicate::col_col(0, CmpOp::Eq, 2));
        let noteq = Query::base("R").select(
            Predicate::col_cmp(0, CmpOp::Eq, 1)
                .or(Predicate::col_cmp(1, CmpOp::Lt, 5))
                .not(),
        );
        let agg = Query::base("R").aggregate(vec![0], vec![hypoquery_algebra::AggExpr::Count]);
        let when = Query::base("R").when(StateExpr::update(Update::delete(
            "R",
            Query::base("R").select(Predicate::col_cmp(0, CmpOp::Gt, 3)),
        )));
        vec![point, join, noteq, agg, when, Query::base("Missing")]
    }

    fn assert_finite_nonnegative_estimates(st: &Statistics) {
        for q in probe_queries() {
            let Estimate { rows, cost, .. } = estimate(&q, st);
            assert!(rows.is_finite() && rows >= 0.0, "rows for {q}: {rows}");
            assert!(cost.is_finite() && cost >= 0.0, "cost for {q}: {cost}");
        }
    }

    #[test]
    fn zero_row_statistics_yield_finite_nonnegative_estimates() {
        let st = Statistics::from_cards([("R".into(), 0.0), ("S".into(), 0.0)]);
        assert_finite_nonnegative_estimates(&st);
    }

    #[test]
    fn missing_relation_statistics_yield_finite_nonnegative_estimates() {
        assert_finite_nonnegative_estimates(&Statistics::default());
    }

    #[test]
    fn degenerate_injected_cards_are_sanitized() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -42.0] {
            let st = Statistics::from_cards([("R".into(), bad), ("S".into(), 10.0)]);
            assert!(st.card(&"R".into()) >= 0.0 && st.card(&"R".into()).is_finite());
            assert_finite_nonnegative_estimates(&st);
        }
    }

    #[test]
    fn selectivities_stay_in_unit_interval() {
        let preds = [
            Predicate::True.not(),
            Predicate::col_cmp(0, CmpOp::Ne, 1)
                .or(Predicate::col_cmp(1, CmpOp::Ne, 2))
                .not(),
            Predicate::col_cmp(0, CmpOp::Eq, 1).and(Predicate::col_cmp(1, CmpOp::Eq, 2)),
        ];
        let st = Statistics::default().with_distinct("R", 0, 0.0);
        for p in &preds {
            let s = selectivity(p);
            assert!((0.0..=1.0).contains(&s), "{p}: {s}");
            let s = selectivity_over(p, Some(&"R".into()), &st);
            assert!((0.0..=1.0).contains(&s), "{p} over R: {s}");
        }
    }
}
