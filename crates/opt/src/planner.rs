//! The strategy planner: choosing a point on the eager↔lazy spectrum.
//!
//! §5 frames the choice of an equivalent ENF query as "the choice of how
//! eager or lazy the evaluation" is. This module is the one place that
//! builds each strategy's shape of a query: [`plan`] builds up to four
//! candidates and picks the cheapest under the cost model of
//! [`crate::stats`]; [`plan_as`] builds only the candidate of a fixed
//! strategy.
//!
//! * **Lazy** — `fully_lazy` reduction with the RA optimizer as its
//!   simplification step (each binding is optimized before it is
//!   substituted), then RA optimization of the result; evaluate the pure
//!   result conventionally. Wins when hypothetical relations are referenced
//!   rarely, or when rewriting proves the result (near-)empty — Ex. 2.1(b).
//!   In Ex. 2.4(b) a binding optimized to `∅` leaves no free name in the
//!   body, so every enclosing binding is dropped instead of substituted
//!   and the exponential lazy form is never built.
//! * **EagerXsub** — normalize to ENF, materialize substitutions, filter
//!   (Algorithm HQL-2). Wins when affected names occur many times in the
//!   query — Ex. 2.1(c) — because the cost model charges lazy for every
//!   inlined copy of a binding and eager only once.
//! * **EagerDelta** — normalize to mod-ENF and run Algorithm HQL-3. Wins
//!   when the updates touch a small fraction of the data — §5.5.
//! * **Hybrid** — per-`when` greedy mix: reduce a `when` lazily where that
//!   is estimated cheaper, keep it for materialization where not —
//!   Ex. 2.1(c)'s mixed strategy. Built only when the ENF body itself
//!   holds a `when`: a `when` over a pure body, whatever its bindings,
//!   could only become the ENF query or its lazy form, which are already
//!   candidates.
//!
//! Each candidate's rewrites run once, on trees the planner owns: the
//! normal form one step produces is handed by value to the next, so no
//! step copies its input.

use std::fmt;

use hypoquery_storage::{Catalog, DatabaseState, Relation};

use hypoquery_algebra::Query;
use hypoquery_core::{
    fully_lazy, is_mod_enf, simplify_enf, to_enf_query, to_mod_enf, EnfError, RewriteTrace,
};
use hypoquery_eval::{algorithm_hql2, algorithm_hql3, eval_pure, EvalError};

use crate::rewrite::optimize_owned;
use crate::stats::{estimate_cost, Statistics};

/// Which evaluation strategy a plan uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlannedStrategy {
    /// Reduce to pure RA and evaluate conventionally.
    Lazy,
    /// ENF + xsub materialization (Algorithm HQL-2).
    EagerXsub,
    /// mod-ENF + delta values (Algorithm HQL-3).
    EagerDelta,
    /// Partially reduced ENF: some `when`s inlined, others materialized
    /// (executed by Algorithm HQL-2).
    Hybrid,
}

impl fmt::Display for PlannedStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PlannedStrategy::Lazy => "lazy",
            PlannedStrategy::EagerXsub => "eager-xsub",
            PlannedStrategy::EagerDelta => "eager-delta",
            PlannedStrategy::Hybrid => "hybrid",
        };
        write!(f, "{s}")
    }
}

/// A prepared execution plan.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The chosen strategy.
    pub strategy: PlannedStrategy,
    /// The query to execute, already in the shape the strategy expects
    /// (pure for Lazy; ENF for EagerXsub/Hybrid; mod-ENF for EagerDelta).
    pub query: Query,
    /// The estimated cost of the chosen plan.
    pub est_cost: f64,
    /// Every candidate considered, with its estimated cost (for EXPLAIN).
    pub candidates: Vec<(PlannedStrategy, f64)>,
    /// EQUIV_when rule counts of every listed candidate's derivation.
    pub when_trace: RewriteTrace,
    /// RA rule counts of the chosen plan's optimization.
    pub ra_trace: RewriteTrace,
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "strategy: {} (est. cost {:.1})",
            self.strategy, self.est_cost
        )?;
        for (s, c) in &self.candidates {
            writeln!(f, "  candidate {s}: est. cost {c:.1}")?;
        }
        // The Fig. 1 rewrite path: EQUIV_when rule counts (in first-use
        // order), then RA rule counts.
        for (title, trace) in [
            ("EQUIV_when rewrites", &self.when_trace),
            ("RA rewrites", &self.ra_trace),
        ] {
            if trace.total() > 0 {
                writeln!(f, "{title}: {} step(s)", trace.total())?;
                for (name, c) in &trace.counts {
                    writeln!(f, "  {name} \u{d7} {c}")?;
                }
            }
        }
        write!(f, "plan: {}", self.query)
    }
}

impl Plan {
    /// Run the plan through the legacy tree-walking oracle of its
    /// strategy: `eval_pure` for lazy, Algorithm HQL-2 for eager-xsub and
    /// hybrid, Algorithm HQL-3 for eager-delta.
    pub fn execute_legacy(&self, db: &DatabaseState) -> Result<Relation, EvalError> {
        match self.strategy {
            PlannedStrategy::Lazy => eval_pure(&self.query, db),
            PlannedStrategy::EagerXsub | PlannedStrategy::Hybrid => algorithm_hql2(&self.query, db),
            PlannedStrategy::EagerDelta => algorithm_hql3(&self.query, db),
        }
    }
}

/// Build `strategy`'s candidate plan for `q`: optimized pure RA for
/// lazy, optimized ENF for eager-xsub, optimized mod-ENF for eager-delta.
/// The RA optimizer keeps a mod-ENF query mod-ENF: it never rewrites an
/// update's queries and never creates or changes a `when`'s state
/// expression. Errs only for eager-delta on a query with no mod-ENF. The
/// hybrid is not built here: only [`plan`] builds it, from the eager-xsub
/// candidate.
fn candidate(
    q: &Query,
    strategy: PlannedStrategy,
    catalog: &Catalog,
    stats: &Statistics,
    trace: &mut RewriteTrace,
) -> Result<Plan, EnfError> {
    let (query, ra_trace) = match strategy {
        PlannedStrategy::Lazy => lazy_form(q, catalog, trace),
        PlannedStrategy::EagerXsub => {
            optimize_owned(simplify_enf(to_enf_query(q, trace), trace), catalog)
        }
        PlannedStrategy::EagerDelta => optimize_owned(to_mod_enf(q)?, catalog),
        PlannedStrategy::Hybrid => unreachable!("the hybrid cannot be forced"),
    };
    debug_assert!(strategy != PlannedStrategy::EagerDelta || is_mod_enf(&query));
    Ok(costed(strategy, query, ra_trace, stats))
}

/// The lazy form of `q`: `fully_lazy` with the RA optimizer as its
/// simplification step (so an `∅` binding stops the substitutions above it,
/// Ex. 2.4(b)), then the RA optimizer on the result. Returns the RA rule
/// counts of both.
fn lazy_form(q: &Query, catalog: &Catalog, trace: &mut RewriteTrace) -> (Query, RewriteTrace) {
    let mut ra_trace = RewriteTrace::new();
    let mut optimize = |q| {
        let (q, t) = optimize_owned(q, catalog);
        ra_trace.merge(t);
        q
    };
    let reduced = fully_lazy(q, &mut optimize, trace);
    let query = optimize(reduced);
    (query, ra_trace)
}

/// A single-candidate plan of `query` (the caller fills in the
/// EQUIV_when trace).
fn costed(
    strategy: PlannedStrategy,
    query: Query,
    ra_trace: RewriteTrace,
    stats: &Statistics,
) -> Plan {
    let est_cost = estimate_cost(&query, stats);
    Plan {
        strategy,
        query,
        est_cost,
        candidates: vec![(strategy, est_cost)],
        when_trace: RewriteTrace::new(),
        ra_trace,
    }
}

/// Plan a query against the given statistics: cost every candidate and
/// pick the cheapest.
pub fn plan(q: &Query, catalog: &Catalog, stats: &Statistics) -> Plan {
    let mut trace = RewriteTrace::new();
    let build = |strategy, trace: &mut RewriteTrace| candidate(q, strategy, catalog, stats, trace);
    let lazy = build(PlannedStrategy::Lazy, &mut trace).expect("every query has a lazy form");
    let mut cands = vec![lazy];
    if !q.is_pure() {
        let xsub = build(PlannedStrategy::EagerXsub, &mut trace).expect("every query has an ENF");
        let delta = build(PlannedStrategy::EagerDelta, &mut trace).ok();
        // The hybrid's derivation is traced only if the hybrid is listed.
        let hybrid = can_mix(&xsub.query)
            .then(|| {
                let (mut when, mut ra) = (RewriteTrace::new(), RewriteTrace::new());
                let h = hybridize(xsub.query.clone(), catalog, stats, &mut when, &mut ra);
                (h, when, ra)
            })
            .filter(|(h, _, _)| *h != xsub.query && *h != cands[0].query)
            .map(|(h, when, ra)| {
                trace.merge(when);
                costed(PlannedStrategy::Hybrid, h, ra, stats)
            });
        cands.push(xsub);
        cands.extend(delta);
        cands.extend(hybrid);
    }
    let candidates = cands.iter().map(|c| (c.strategy, c.est_cost)).collect();
    // Pick the cheapest; ties prefer the earlier candidate (lazy first —
    // it needs no materialization machinery).
    let mut best = cands
        .into_iter()
        .min_by(|a, b| a.est_cost.total_cmp(&b.est_cost))
        .expect("at least the lazy candidate exists");
    best.candidates = candidates;
    best.when_trace = trace;
    best
}

/// Plan a query under a fixed strategy, building only that strategy's
/// candidate, the one [`plan`] would list for it. Errs when `strategy` is
/// eager-delta and the query has no mod-ENF.
///
/// # Panics
///
/// If `strategy` is [`PlannedStrategy::Hybrid`], which only [`plan`]
/// chooses.
pub fn plan_as(
    q: &Query,
    catalog: &Catalog,
    stats: &Statistics,
    strategy: PlannedStrategy,
) -> Result<Plan, EnfError> {
    let mut trace = RewriteTrace::new();
    let mut p = candidate(q, strategy, catalog, stats, &mut trace)?;
    p.when_trace = trace;
    Ok(p)
}

/// Whether hybridizing the ENF query `enf` can mix strategies. A `when`
/// over a pure body cannot, whatever its bindings are: [`hybridize`] does
/// not descend into bindings, so it would return either `enf` itself or
/// its fully lazy form. A hybrid is built only when the ENF body itself
/// holds a `when`.
fn can_mix(enf: &Query) -> bool {
    match enf {
        Query::When(body, _) => !body.is_pure(),
        other => !other.is_pure(),
    }
}

/// Greedy hybrid: walk the ENF query; at each `when`, inline it lazily if
/// the reduced form is estimated cheaper than keeping it for
/// materialization. Records the RA rule counts of the lazy forms it
/// inlines in `ra_trace`.
fn hybridize(
    q: Query,
    catalog: &Catalog,
    stats: &Statistics,
    trace: &mut RewriteTrace,
    ra_trace: &mut RewriteTrace,
) -> Query {
    let rebuilt = q.map_subqueries(|sub| hybridize(sub, catalog, stats, trace, ra_trace));
    if let Query::When(_, _) = &rebuilt {
        let eager_cost = estimate_cost(&rebuilt, stats);
        let (lazy, lazy_trace) = lazy_form(&rebuilt, catalog, trace);
        if estimate_cost(&lazy, stats) <= eager_cost {
            ra_trace.merge(lazy_trace);
            return lazy;
        }
    }
    rebuilt
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::estimate;
    use hypoquery_algebra::{CmpOp, ExplicitSubst, Predicate, StateExpr, Update};
    use hypoquery_testkit::{example_2_4, Levels};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.declare_arity("R", 2).unwrap();
        c.declare_arity("S", 2).unwrap();
        c
    }

    fn stats(r: f64, s: f64) -> Statistics {
        Statistics::from_cards([("R".into(), r), ("S".into(), s)])
    }

    fn hypo_query(occurrences: usize) -> Query {
        // Body references R `occurrences` times via self-join chains that
        // no rewrite rule collapses, under ins(R, σ(S)).
        let mut body = Query::base("R");
        for _ in 1..occurrences {
            body = body
                .join(Query::base("R"), Predicate::col_col(0, CmpOp::Eq, 2))
                .project([0, 3]);
        }
        body.when(StateExpr::update(Update::insert(
            "R",
            Query::base("S").select(Predicate::col_cmp(0, CmpOp::Gt, 30)),
        )))
    }

    #[test]
    fn pure_queries_plan_lazy() {
        let q = Query::base("R").union(Query::base("S"));
        let p = plan(&q, &catalog(), &stats(100.0, 100.0));
        assert_eq!(p.strategy, PlannedStrategy::Lazy);
        assert!(p.query.is_pure());
        assert_eq!(p.candidates.len(), 1);
    }

    #[test]
    fn single_occurrence_prefers_lazy_or_delta() {
        let p = plan(&hypo_query(1), &catalog(), &stats(1000.0, 1000.0));
        // One occurrence: materializing R ∪ σ(S) buys nothing.
        assert_ne!(p.strategy, PlannedStrategy::EagerXsub);
    }

    #[test]
    fn many_occurrences_prefer_eager() {
        let p = plan(&hypo_query(12), &catalog(), &stats(1000.0, 1000.0));
        assert!(
            matches!(
                p.strategy,
                PlannedStrategy::EagerXsub | PlannedStrategy::EagerDelta
            ),
            "expected eager for 12 occurrences, got {} \n{p}",
            p.strategy
        );
        // Both eager candidates were costed.
        assert!(p.candidates.len() >= 3);
    }

    #[test]
    fn plan_display_renders_rewrite_traces() {
        let p = plan(&hypo_query(3), &catalog(), &stats(100.0, 100.0));
        let s = p.to_string();
        assert!(s.contains("strategy:") && s.contains("candidate"), "{s}");
        // Normalizing a hypothetical query always takes EQUIV_when steps;
        // each recorded rule shows up with its step count.
        assert!(p.when_trace.total() > 0);
        assert!(
            s.contains("EQUIV_when rewrites:"),
            "missing when trace:\n{s}"
        );
        let (first_rule, _) = p.when_trace.counts[0];
        assert!(s.contains(first_rule), "missing rule `{first_rule}`:\n{s}");
        if p.ra_trace.total() > 0 {
            assert!(s.contains("RA rewrites:"), "missing RA trace:\n{s}");
        }
    }

    #[test]
    fn planned_query_shape_matches_strategy() {
        let p = plan(&hypo_query(12), &catalog(), &stats(1000.0, 1000.0));
        match p.strategy {
            PlannedStrategy::Lazy => assert!(p.query.is_pure()),
            PlannedStrategy::EagerXsub | PlannedStrategy::Hybrid => {
                assert!(hypoquery_core::is_enf_query(&p.query))
            }
            PlannedStrategy::EagerDelta => assert!(is_mod_enf(&p.query)),
        }
    }

    /// perfbench's `scan` query, and the `branch` workload's key lookup
    /// and range aggregate wrapped in the branch's state.
    fn served_queries() -> Vec<Query> {
        use hypoquery_algebra::AggExpr;
        let sel = |rel: &str, col, op, v| Query::base(rel).select(Predicate::col_cmp(col, op, v));
        let count_sum = vec![AggExpr::Count, AggExpr::Sum(1)];
        let scan = Query::base("R")
            .join(Query::base("S"), Predicate::col_col(0, CmpOp::Eq, 2))
            .aggregate(vec![], count_sum.clone())
            .when(StateExpr::update(
                Update::delete("S", sel("S", 1, CmpOp::Lt, 300))
                    .then(Update::insert("R", sel("S", 0, CmpOp::Lt, 150))),
            ));
        let branch = StateExpr::update(
            Update::delete("R", sel("R", 1, CmpOp::Lt, 300))
                .then(Update::insert("R", sel("S", 0, CmpOp::Ge, 2900))),
        );
        let lookup = sel("R", 0, CmpOp::Eq, 1234).when(branch.clone());
        let range = sel("R", 0, CmpOp::Lt, 200)
            .aggregate(vec![], count_sum)
            .when(branch);
        vec![scan, lookup, range]
    }

    /// Golden values of the cost model and the planner's choices over a
    /// fixed corpus: each query's rows and cost; `plan`'s chosen strategy;
    /// and the rows and cost of every listed non-hybrid candidate, both as
    /// `plan` lists it and as [`plan_as`] builds it. Compared exactly.
    #[test]
    fn estimates_and_choices_match_golden_values() {
        use PlannedStrategy::{EagerDelta, EagerXsub, Lazy};
        type Candidates = &'static [(PlannedStrategy, f64, f64)];
        #[rustfmt::skip]
        const GOLDEN: &[(f64, f64, PlannedStrategy, Candidates)] = &[
            (2.313030069390902, 2.313030069390902, Lazy, &[(Lazy, 2.313030069390902, 2.313030069390902)]), // 0
            (6000.0, 24000.0, Lazy, &[(Lazy, 6000.0, 24000.0)]), // 1
            (4018.4502698535075, 12000.0, Lazy, &[(Lazy, 1782.0000000000002, 12000.0)]), // 2
            (77.45966692414834, 12000.0, Lazy, &[(Lazy, 77.45966692414834, 12000.0)]), // 3
            (4020.0, 18000.0, Lazy, &[(Lazy, 1980.0, 12000.0), (EagerXsub, 1980.0, 15960.0), (EagerDelta, 4020.0, 18000.0)]), // 4
            (0.0, 0.0, Lazy, &[(Lazy, 0.0, 0.0)]), // 5
            (7980.0, 21960.0, EagerDelta, &[(Lazy, 7980.0, 25980.0), (EagerXsub, 7980.0, 41940.0), (EagerDelta, 7980.0, 21960.0)]), // 6
            (7980.0, 53880.0, EagerDelta, &[(Lazy, 7980.0, 83880.0), (EagerXsub, 7980.0, 73860.0), (EagerDelta, 7980.0, 53880.0)]), // 7
            (7980.0, 85800.0, EagerDelta, &[(Lazy, 7980.0, 141780.0), (EagerXsub, 7980.0, 105780.0), (EagerDelta, 7980.0, 85800.0)]), // 8
            (7980.0, 117720.0, EagerDelta, &[(Lazy, 7980.0, 199680.0), (EagerXsub, 7980.0, 137700.0), (EagerDelta, 7980.0, 117720.0)]), // 9
            (7980.0, 149640.0, EagerDelta, &[(Lazy, 7980.0, 257580.0), (EagerXsub, 7980.0, 169620.0), (EagerDelta, 7980.0, 149640.0)]), // 10
            (7980.0, 181560.0, EagerDelta, &[(Lazy, 7980.0, 315480.0), (EagerXsub, 7980.0, 201540.0), (EagerDelta, 7980.0, 181560.0)]), // 11
            (7980.0, 213480.0, EagerDelta, &[(Lazy, 7980.0, 373380.0), (EagerXsub, 7980.0, 233460.0), (EagerDelta, 7980.0, 213480.0)]), // 12
            (7980.0, 245400.0, EagerDelta, &[(Lazy, 7980.0, 431280.0), (EagerXsub, 7980.0, 265380.0), (EagerDelta, 7980.0, 245400.0)]), // 13
            (7980.0, 277320.0, EagerDelta, &[(Lazy, 7980.0, 489180.0), (EagerXsub, 7980.0, 297300.0), (EagerDelta, 7980.0, 277320.0)]), // 14
            (7980.0, 309240.0, EagerDelta, &[(Lazy, 7980.0, 547080.0), (EagerXsub, 7980.0, 329220.0), (EagerDelta, 7980.0, 309240.0)]), // 15
            (7980.0, 341160.0, EagerDelta, &[(Lazy, 7980.0, 604980.0), (EagerXsub, 7980.0, 361140.0), (EagerDelta, 7980.0, 341160.0)]), // 16
            (7980.0, 373080.0, EagerDelta, &[(Lazy, 7980.0, 662880.0), (EagerXsub, 7980.0, 393060.0), (EagerDelta, 7980.0, 373080.0)]), // 17
            (1.0, 53366.4, EagerDelta, &[(Lazy, 1.0, 58593.600000000006), (EagerXsub, 1.0, 75147.0), (EagerDelta, 1.0, 53366.4)]), // 18
            (2.313030069390902, 27962.313030069392, Lazy, &[(Lazy, 0.7632999228989977, 1.0), (EagerXsub, 1.5265998457979952, 35881.5265998458), (EagerDelta, 2.313030069390902, 27962.313030069392)]), // 19
            (1.0, 41940.0, Lazy, &[(Lazy, 1.0, 12653.4), (EagerXsub, 1.0, 45106.8), (EagerDelta, 1.0, 41940.0)]), // 20
        ];
        let st = Statistics::from_cards([("R".into(), 6000.0), ("S".into(), 6000.0)])
            .with_arity("R", 2)
            .with_arity("S", 2)
            .with_distinct("R", 0, 2594.0)
            .with_distinct("R", 1, 6000.0)
            .with_distinct("S", 0, 2594.0)
            .with_distinct("S", 1, 6000.0)
            .with_index("R", 0)
            .with_index("S", 0);
        let mut corpus = crate::stats::tests::probe_queries();
        corpus.extend((1..=12).map(hypo_query));
        corpus.extend(served_queries());
        assert_eq!(corpus.len(), GOLDEN.len());
        for (q, &(rows, cost, chosen, cands)) in corpus.iter().zip(GOLDEN) {
            let e = estimate(q, &st);
            assert_eq!((e.rows, e.cost), (rows, cost), "{q}");
            let p = plan(q, &catalog(), &st);
            assert_eq!(p.strategy, chosen, "{q}");
            let listed = p
                .candidates
                .iter()
                .filter(|c| c.0 != PlannedStrategy::Hybrid);
            let expected = cands.iter().map(|&(s, _, c)| (s, c));
            assert!(listed.copied().eq(expected), "{q}: {:?}", p.candidates);
            for &(s, rows, cost) in cands {
                let forced = plan_as(q, &catalog(), &st, s).unwrap();
                let e = estimate(&forced.query, &st);
                assert_eq!((e.rows, e.cost), (rows, cost), "{s} form of {q}");
            }
        }
    }

    /// `plan`'s EQUIV_when trace holds exactly the derivations of the
    /// candidates it lists: their `plan_as` traces merged in order.
    #[test]
    fn when_trace_holds_only_listed_candidates() {
        let st = stats(6000.0, 6000.0);
        for q in served_queries() {
            let p = plan(&q, &catalog(), &st);
            let mut expected = RewriteTrace::new();
            for &(s, _) in &p.candidates {
                expected.merge(plan_as(&q, &catalog(), &st, s).unwrap().when_trace);
            }
            assert_eq!(p.when_trace, expected, "{q}");
        }
    }

    /// Queries `body when η` with a pure body: their ENF candidate is
    /// mostly a `when` over a pure body, where [`can_mix`] builds no
    /// hybrid.
    fn when_over_pure_body() -> impl proptest::strategy::Strategy<Value = Query> {
        use hypoquery_testkit::{arb_pure_query, arb_state_expr, Universe};
        use proptest::strategy::Strategy;
        let u = Universe::standard();
        (arb_pure_query(&u, 2, 3), arb_state_expr(&u, 2)).prop_map(|(body, eta)| body.when(eta))
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(256))]

        /// Simplifying bindings during the reduction changes no lazy
        /// plan: the lazy candidate is the optimized plain reduction.
        #[test]
        fn lazy_candidate_is_the_optimized_plain_reduction(
            q in hypoquery_testkit::arb_query(&hypoquery_testkit::Universe::standard(), 2, 3),
        ) {
            let u = hypoquery_testkit::Universe::standard();
            let st = Statistics::default();
            let lazy = plan_as(&q, &u.catalog, &st, PlannedStrategy::Lazy).unwrap().query;
            let plain = fully_lazy(&q, &mut |q| q, &mut RewriteTrace::new());
            proptest::prop_assert_eq!(lazy, optimize_owned(plain, &u.catalog).0, "{}", q);
        }

        /// Where the ENF candidate is a `when` over a pure body, the
        /// hybrid `plan` no longer builds could not have changed its
        /// choice: it is the ENF query, the lazy candidate, or a query
        /// that costs more than the chosen plan.
        #[test]
        fn unbuilt_hybrid_never_wins(
            q in when_over_pure_body(),
            cards in proptest::collection::vec(0usize..5, 5),
        ) {
            let u = hypoquery_testkit::Universe::standard();
            let sizes = [0.0, 1.0, 10.0, 1000.0, 50_000.0];
            let mut st = Statistics::from_cards(
                u.names.iter().zip(&cards).map(|((n, _), &c)| (n.clone(), sizes[c])),
            );
            for (n, a) in &u.names {
                st = st.with_arity(n.clone(), *a).with_index(n.clone(), 0);
            }
            let enf = plan_as(&q, &u.catalog, &st, PlannedStrategy::EagerXsub).unwrap().query;
            let Query::When(body, eta) = &enf else { return Ok(()) };
            if !body.is_pure() || eta.as_subst().is_none() {
                return Ok(());
            }
            proptest::prop_assert!(!can_mix(&enf));
            let lazy = plan_as(&q, &u.catalog, &st, PlannedStrategy::Lazy).unwrap().query;
            let chosen = plan(&q, &u.catalog, &st);
            let h = hybridize(
                enf.clone(),
                &u.catalog,
                &st,
                &mut RewriteTrace::new(),
                &mut RewriteTrace::new(),
            );
            proptest::prop_assert!(
                h == enf || h == lazy || estimate_cost(&h, &st) > chosen.est_cost,
                "hybrid {} of {} would win over {}", h, q, chosen
            );
        }
    }

    /// Example 2.4(a): with no `∅` to find, the lazy form stays
    /// exponential in the nesting depth.
    #[test]
    fn example_2_4a_lazy_form_is_exponential() {
        let (q, catalog) = example_2_4(8, None, Levels::Products);
        assert!(q.node_count() < 100, "input is linear in n");
        for reduced in [
            hypoquery_core::red_query(&q).unwrap(),
            plan_as(&q, &catalog, &Statistics::default(), PlannedStrategy::Lazy)
                .unwrap()
                .query,
        ] {
            assert!(
                reduced.node_count() > (1 << 8),
                "fully lazy output should be exponential, got {}",
                reduced.node_count()
            );
        }
    }

    /// Example 2.4(b): the lazy candidate is `∅`, whether the empty
    /// binding sits at the innermost level (found before any blow-up) or
    /// at the outermost (the body blew up below it, but substituting `∅`
    /// collapses it).
    #[test]
    fn example_2_4b_lazy_candidate_is_empty() {
        for (n, level) in [(10, 1), (6, 6)] {
            let (q, catalog) = example_2_4(n, Some(level), Levels::Products);
            let p = plan_as(&q, &catalog, &Statistics::default(), PlannedStrategy::Lazy).unwrap();
            assert_eq!(p.query, Query::empty(1 << n), "∅ at level {level} of {n}");
        }
    }

    /// The simplified reduction means what the plain one does.
    #[test]
    fn example_2_4b_lazy_candidate_agrees_with_red() {
        use hypoquery_storage::tuple;
        let (q, catalog) = example_2_4(3, Some(2), Levels::Products);
        let mut db = DatabaseState::new(catalog.clone());
        db.insert_row("R3", tuple![1]).unwrap();
        db.insert_rows("R2", [tuple![1, 2]]).unwrap();
        let lazy = plan_as(&q, &catalog, &Statistics::of(&db), PlannedStrategy::Lazy).unwrap();
        let plain = hypoquery_core::red_query(&q).unwrap();
        assert_eq!(
            eval_pure(&lazy.query, &db).unwrap(),
            eval_pure(&plain, &db).unwrap()
        );
    }

    /// `plan` serves Ex. 2.4(b) at a depth whose plain lazy form would
    /// have 2⁴⁸ nodes: the `∅` binding at level 1 removes every binding
    /// above it.
    #[test]
    fn plan_finds_the_empty_answer_of_a_deep_example_2_4b() {
        use hypoquery_core::Rule;
        for n in [8, 48] {
            let (q, catalog) = example_2_4(n, Some(1), Levels::Joins);
            let st = Statistics::from_cards(catalog.iter().map(|(n, _)| (n.clone(), 100.0)));
            // Only the `∅` binding is substituted; every binding above it
            // is dropped. Checked at depth 8 first, so a lost rescue fails
            // there instead of building a 2⁴⁸-node tree.
            let lazy = plan_as(&q, &catalog, &st, PlannedStrategy::Lazy).unwrap();
            let applied = lazy.when_trace.count(Rule::ApplySubstitution.name());
            assert_eq!(applied, 1, "depth {n}");
            let p = plan(&q, &catalog, &st);
            assert_eq!(p.strategy, PlannedStrategy::Lazy, "{p}");
            assert_eq!(p.query, Query::empty(2));
        }
    }

    #[test]
    fn hybrid_is_built_only_where_it_can_mix() {
        let has_hybrid = |p: &Plan| p.candidates.iter().any(|c| c.0 == PlannedStrategy::Hybrid);
        // One `when` over a pure body with pure bindings: no hybrid.
        for k in [1, 3, 12] {
            let p = plan(&hypo_query(k), &catalog(), &stats(1000.0, 1000.0));
            assert!(!has_hybrid(&p), "{p}");
        }
        // A `when` whose binding is read eight times beside one read once:
        // materializing the first and inlining the second mixes.
        let rebind = StateExpr::subst(ExplicitSubst::single("R", Query::base("S")));
        let q = hypo_query(8).union(Query::base("R").when(rebind));
        let p = plan(&q, &catalog(), &stats(1000.0, 1000.0));
        assert_eq!(p.strategy, PlannedStrategy::Hybrid, "{p}");
        assert!(hypoquery_core::is_enf_query(&p.query));
    }
}
