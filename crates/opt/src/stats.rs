//! Cardinality statistics and a simple cost model.
//!
//! The paper leaves "techniques for estimating the cost of execution plans
//! involving xsub-values and delta values" as future work (§6); what the
//! planner needs today is a coarse, monotone estimator good enough to
//! choose between lazy, eager-xsub and eager-delta shapes. We use textbook
//! selectivity constants over exact base cardinalities.

use std::collections::{BTreeMap, BTreeSet};

use hypoquery_storage::{distinct_counts, DatabaseState, RelName};

use hypoquery_algebra::scope::dom_state_expr;
use hypoquery_algebra::{CmpOp, Predicate, Query, ScalarExpr, StateExpr, Update};

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
    clamp01(match p {
        Predicate::And(a, b) => selectivity_over(a, base, stats) * selectivity_over(b, base, stats),
        Predicate::Or(a, b) => {
            let (sa, sb) = (
                selectivity_over(a, base, stats),
                selectivity_over(b, base, stats),
            );
            (sa + sb - sa * sb).min(1.0)
        }
        Predicate::Not(a) => 1.0 - selectivity_over(a, base, stats),
        Predicate::Cmp(ScalarExpr::Col(c), CmpOp::Eq, ScalarExpr::Const(_))
        | Predicate::Cmp(ScalarExpr::Const(_), CmpOp::Eq, ScalarExpr::Col(c)) => base
            .and_then(|n| stats.distinct(n, *c))
            .map(|d| (1.0 / d.max(1.0)).min(1.0))
            .unwrap_or(SEL_EQ),
        other => selectivity(other),
    })
}

/// Estimated selectivity of a predicate.
pub fn selectivity(p: &Predicate) -> f64 {
    clamp01(match p {
        Predicate::True => 1.0,
        Predicate::False => 0.0,
        Predicate::Cmp(_, CmpOp::Eq, _) => SEL_EQ,
        Predicate::Cmp(_, CmpOp::Ne, _) => SEL_NE,
        Predicate::Cmp(_, _, _) => SEL_RANGE,
        Predicate::And(a, b) => selectivity(a) * selectivity(b),
        Predicate::Or(a, b) => {
            let (sa, sb) = (selectivity(a), selectivity(b));
            (sa + sb - sa * sb).min(1.0)
        }
        Predicate::Not(a) => 1.0 - selectivity(a),
    })
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

/// Estimated output cardinality of a query.
///
/// `when` bodies are estimated as if the hypothetical update left
/// cardinalities unchanged, except that names bound by the state
/// expression are re-estimated from the binding/update shape — coarse, but
/// monotone in the base sizes, which is all the planner relies on.
pub fn estimate_rows(q: &Query, stats: &Statistics) -> f64 {
    sanitize_rows(match q {
        Query::Base(name) => stats.card(name),
        Query::Singleton(_) => 1.0,
        Query::Empty { .. } => 0.0,
        Query::Select(inner, p) => {
            let base = match &**inner {
                Query::Base(name) => Some(name),
                _ => None,
            };
            estimate_rows(inner, stats) * selectivity_over(p, base, stats)
        }
        Query::Project(inner, _) => estimate_rows(inner, stats),
        Query::Union(a, b) => estimate_rows(a, stats) + estimate_rows(b, stats),
        Query::Intersect(a, b) => estimate_rows(a, stats).min(estimate_rows(b, stats)),
        Query::Diff(a, _) => estimate_rows(a, stats),
        Query::Product(a, b) => estimate_rows(a, stats) * estimate_rows(b, stats),
        Query::Join(a, b, p) => {
            let (l, r) = (estimate_rows(a, stats), estimate_rows(b, stats));
            // Equi-joins get the textbook foreign-key estimate
            // max(|L|, |R|); pure theta-joins fall back to a selectivity
            // fraction of the cross product.
            let has_equi = crate::implication::conjuncts(p).iter().any(|c| {
                matches!(
                    c,
                    Predicate::Cmp(
                        hypoquery_algebra::ScalarExpr::Col(_),
                        CmpOp::Eq,
                        hypoquery_algebra::ScalarExpr::Col(_)
                    )
                )
            });
            if has_equi {
                l.max(r)
            } else {
                l * r * selectivity(p).max(SEL_JOIN / 10.0)
            }
        }
        Query::When(inner, eta) => {
            let adjusted = adjust_stats_for_state(eta, stats);
            estimate_rows(inner, &adjusted)
        }
        Query::Aggregate {
            input, group_by, ..
        } => {
            let n = estimate_rows(input, stats);
            if group_by.is_empty() {
                n.min(1.0)
            } else {
                // Assume grouping reduces to ~sqrt of the input.
                n.sqrt().max(1.0).min(n)
            }
        }
    })
}

/// Re-estimate base cardinalities under a hypothetical state expression.
pub fn adjust_stats_for_state(eta: &StateExpr, stats: &Statistics) -> Statistics {
    let mut out = stats.clone();
    match eta {
        StateExpr::Update(u) => adjust_for_update(u, &mut out),
        StateExpr::Subst(eps) => {
            for (name, bq) in eps.iter() {
                let est = estimate_rows(bq, stats);
                out.cards.insert(name.clone(), est);
            }
        }
        StateExpr::Compose(a, b) => {
            out = adjust_stats_for_state(a, &out);
            out = adjust_stats_for_state(b, &out);
        }
    }
    out
}

fn adjust_for_update(u: &Update, stats: &mut Statistics) {
    match u {
        Update::Insert(name, q) => {
            let added = estimate_rows(q, stats);
            let cur = stats.card(name);
            stats.cards.insert(name.clone(), cur + added);
        }
        Update::Delete(name, q) => {
            let removed = estimate_rows(q, stats);
            let cur = stats.card(name);
            stats.cards.insert(name.clone(), (cur - removed).max(0.0));
        }
        Update::Seq(a, b) => {
            adjust_for_update(a, stats);
            adjust_for_update(b, stats);
        }
        Update::Cond { then_u, .. } => {
            // Assume the then-branch; good enough for sizing.
            adjust_for_update(then_u, stats);
        }
    }
}

/// Columns constrained to a constant by the top-level conjunction of `p`.
fn point_eq_cols(p: &Predicate) -> Vec<usize> {
    match p {
        Predicate::And(a, b) => {
            let mut cols = point_eq_cols(a);
            cols.extend(point_eq_cols(b));
            cols
        }
        Predicate::Cmp(ScalarExpr::Col(c), CmpOp::Eq, ScalarExpr::Const(_))
        | Predicate::Cmp(ScalarExpr::Const(_), CmpOp::Eq, ScalarExpr::Col(c)) => vec![*c],
        _ => Vec::new(),
    }
}

/// Cross-operand equality pairs `(left_col, right_col)` in a join
/// predicate, with the right column rebased. Mirrors the executor's
/// equi-core extraction (`hypoquery-eval::join::split_equi_pairs`).
fn cross_equi_pairs(p: &Predicate, left_arity: usize) -> Vec<(usize, usize)> {
    match p {
        Predicate::And(a, b) => {
            let mut pairs = cross_equi_pairs(a, left_arity);
            pairs.extend(cross_equi_pairs(b, left_arity));
            pairs
        }
        Predicate::Cmp(ScalarExpr::Col(x), CmpOp::Eq, ScalarExpr::Col(y)) => {
            let (lo, hi) = if x < y { (*x, *y) } else { (*y, *x) };
            if lo < left_arity && hi >= left_arity {
                vec![(lo, hi - left_arity)]
            } else {
                Vec::new()
            }
        }
        _ => Vec::new(),
    }
}

/// Output arity of a query, when derivable from the statistics' declared
/// arities (needed to rebase join-predicate columns).
fn query_arity(q: &Query, stats: &Statistics) -> Option<usize> {
    match q {
        Query::Base(name) => stats.arity(name),
        Query::Singleton(t) => Some(t.arity()),
        Query::Empty { arity } => Some(*arity),
        Query::Select(inner, _) | Query::When(inner, _) => query_arity(inner, stats),
        Query::Project(_, cols) => Some(cols.len()),
        Query::Union(a, _) | Query::Intersect(a, _) | Query::Diff(a, _) => query_arity(a, stats),
        Query::Product(a, b) | Query::Join(a, b, _) => {
            Some(query_arity(a, stats)? + query_arity(b, stats)?)
        }
        Query::Aggregate { group_by, aggs, .. } => Some(group_by.len() + aggs.len()),
    }
}

/// Estimated evaluation *cost* of a pure query: total tuples flowing
/// through all operators (a unit-cost-per-tuple model). Declared secondary
/// indexes change the access path: a point-equality select over an indexed
/// base costs its output (a probe), and an equi-join whose base operand is
/// indexed on the full equi-core skips the hash build and iterates only
/// the other side. Without index declarations the model is unchanged.
pub fn estimate_cost(q: &Query, stats: &Statistics) -> f64 {
    sanitize_cost(match q {
        Query::Base(name) => stats.card(name),
        Query::Singleton(_) | Query::Empty { .. } => 1.0,
        Query::Select(inner, p) => {
            if let Query::Base(name) = &**inner {
                if point_eq_cols(p).iter().any(|c| stats.has_index(name, *c)) {
                    // Index probe: pay for the matching rows only.
                    return sanitize_cost(estimate_rows(q, stats).max(1.0));
                }
            }
            estimate_cost(inner, stats) + estimate_rows(inner, stats)
        }
        Query::Project(inner, _) => estimate_cost(inner, stats) + estimate_rows(inner, stats),
        Query::Union(a, b) | Query::Intersect(a, b) | Query::Diff(a, b) => {
            estimate_cost(a, stats)
                + estimate_cost(b, stats)
                + estimate_rows(a, stats)
                + estimate_rows(b, stats)
        }
        Query::Product(a, b) => {
            estimate_cost(a, stats)
                + estimate_cost(b, stats)
                + estimate_rows(a, stats) * estimate_rows(b, stats)
        }
        Query::Join(a, b, p) => {
            let (ca, cb) = (estimate_cost(a, stats), estimate_cost(b, stats));
            let (ra, rb) = (estimate_rows(a, stats), estimate_rows(b, stats));
            let out = estimate_rows(q, stats);
            if let Some(left_arity) = query_arity(a, stats) {
                let pairs = cross_equi_pairs(p, left_arity);
                if !pairs.is_empty() {
                    let left_ok = matches!(&**a, Query::Base(n)
                        if pairs.iter().all(|&(lc, _)| stats.has_index(n, lc)));
                    let right_ok = matches!(&**b, Query::Base(n)
                        if pairs.iter().all(|&(_, rc)| stats.has_index(n, rc)));
                    if left_ok || right_ok {
                        // Indexed build side: no hash build, iterate only
                        // the probe side (the executor picks the cheaper
                        // one when both are available).
                        let probe = match (left_ok, right_ok) {
                            (true, true) => ra.min(rb),
                            (true, false) => rb,
                            _ => ra,
                        };
                        return sanitize_cost(ca + cb + probe + out);
                    }
                }
            }
            // Hash join: build + probe + output.
            ca + cb + ra + rb + out
        }
        Query::When(inner, eta) => {
            // Lazy view of a when: cost of the body under adjusted stats
            // plus the cost of the state's bindings once.
            let adjusted = adjust_stats_for_state(eta, stats);
            estimate_cost(inner, &adjusted) + state_materialization_cost(eta, stats)
        }
        Query::Aggregate { input, .. } => estimate_cost(input, stats) + estimate_rows(input, stats),
    })
}

/// Estimated cost of materializing a state expression (the eager
/// strategy's up-front payment): evaluating every binding/update query.
pub fn state_materialization_cost(eta: &StateExpr, stats: &Statistics) -> f64 {
    match eta {
        StateExpr::Update(u) => update_cost(u, stats),
        StateExpr::Subst(eps) => eps
            .iter()
            .map(|(_, bq)| estimate_cost(bq, stats) + estimate_rows(bq, stats))
            .sum(),
        StateExpr::Compose(a, b) => {
            state_materialization_cost(a, stats)
                + state_materialization_cost(b, &adjust_stats_for_state(a, stats))
        }
    }
}

fn update_cost(u: &Update, stats: &Statistics) -> f64 {
    match u {
        Update::Insert(_, q) | Update::Delete(_, q) => {
            estimate_cost(q, stats) + estimate_rows(q, stats)
        }
        Update::Seq(a, b) => {
            let mut s = stats.clone();
            adjust_for_update(a, &mut s);
            update_cost(a, stats) + update_cost(b, &s)
        }
        Update::Cond {
            guard,
            then_u,
            else_u,
        } => {
            estimate_cost(guard, stats) + update_cost(then_u, stats).max(update_cost(else_u, stats))
        }
    }
}

/// Count occurrences of any of the given names as base references in a
/// query — the Example 2.1(c) heuristic signal: many occurrences of
/// affected relations favor eager materialization.
pub fn count_occurrences(q: &Query, names: &std::collections::BTreeSet<RelName>) -> usize {
    match q {
        Query::Base(name) => usize::from(names.contains(name)),
        Query::Singleton(_) | Query::Empty { .. } => 0,
        Query::Select(inner, _) | Query::Project(inner, _) => count_occurrences(inner, names),
        Query::Union(a, b)
        | Query::Intersect(a, b)
        | Query::Product(a, b)
        | Query::Join(a, b, _)
        | Query::Diff(a, b) => count_occurrences(a, names) + count_occurrences(b, names),
        Query::When(inner, eta) => {
            // Occurrences under an inner when that rebinds the name do not
            // read the outer hypothetical state.
            let inner_dom = dom_state_expr(eta);
            let visible: std::collections::BTreeSet<RelName> =
                names.difference(&inner_dom).cloned().collect();
            count_occurrences(inner, &visible)
        }
        Query::Aggregate { input, .. } => count_occurrences(input, names),
    }
}

#[cfg(test)]
mod tests {
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
    fn occurrence_counting_respects_shadowing() {
        let names: std::collections::BTreeSet<RelName> = [RelName::new("R")].into();
        let q = Query::base("R")
            .union(Query::base("R"))
            .join(Query::base("S"), Predicate::True);
        assert_eq!(count_occurrences(&q, &names), 2);
        // An inner when that rebinds R shadows the outer hypothetical.
        let inner = Query::base("R").when(StateExpr::subst(ExplicitSubst::single(
            "R",
            Query::base("S"),
        )));
        let q = Query::base("R").union(inner);
        assert_eq!(count_occurrences(&q, &names), 1);
    }

    #[test]
    fn materialization_cost_of_composition_accumulates() {
        let st = stats();
        let e1 = StateExpr::update(Update::insert("R", Query::base("S")));
        let e2 = StateExpr::update(Update::delete("S", Query::base("S")));
        let c = state_materialization_cost(&e1.clone().compose(e2.clone()), &st);
        assert!(c >= state_materialization_cost(&e1, &st));
        assert!(c >= state_materialization_cost(&e2, &st));
    }

    /// A handful of query shapes that exercise every cost-model branch.
    fn probe_queries() -> Vec<Query> {
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

    #[test]
    fn zero_row_statistics_yield_finite_nonnegative_estimates() {
        let st = Statistics::from_cards([("R".into(), 0.0), ("S".into(), 0.0)]);
        for q in probe_queries() {
            let rows = estimate_rows(&q, &st);
            let cost = estimate_cost(&q, &st);
            assert!(rows.is_finite() && rows >= 0.0, "rows for {q}: {rows}");
            assert!(cost.is_finite() && cost >= 0.0, "cost for {q}: {cost}");
        }
    }

    #[test]
    fn missing_relation_statistics_yield_finite_nonnegative_estimates() {
        let st = Statistics::default();
        for q in probe_queries() {
            let rows = estimate_rows(&q, &st);
            let cost = estimate_cost(&q, &st);
            assert!(rows.is_finite() && rows >= 0.0, "rows for {q}: {rows}");
            assert!(cost.is_finite() && cost >= 0.0, "cost for {q}: {cost}");
        }
    }

    #[test]
    fn degenerate_injected_cards_are_sanitized() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -42.0] {
            let st = Statistics::from_cards([("R".into(), bad), ("S".into(), 10.0)]);
            assert!(st.card(&"R".into()) >= 0.0 && st.card(&"R".into()).is_finite());
            for q in probe_queries() {
                let rows = estimate_rows(&q, &st);
                let cost = estimate_cost(&q, &st);
                assert!(rows.is_finite() && rows >= 0.0, "rows for {q}: {rows}");
                assert!(cost.is_finite() && cost >= 0.0, "cost for {q}: {cost}");
            }
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
