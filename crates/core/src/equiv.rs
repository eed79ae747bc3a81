//! The EQUIV_when equational theory (Figure 1) as a traced rewriting system.
//!
//! Every rule of Figure 1 is exposed as a standalone `rule_*` function that
//! either fires at the root of the given expression (returning the rewritten
//! form) or returns `None`. Soundness of each rule is property-tested in
//! `hypoquery-eval` against the direct semantics.
//!
//! On top of the individual rules, [`to_enf_query`] normalizes a query to
//! Evaluable Normal Form (§5.2): no composition `#` and no `{U}` remain —
//! every hypothetical-state expression is an explicit substitution. The
//! choice of *which* equivalent ENF query to evaluate is the choice of how
//! eager or lazy to be; normalization here is the minimal (most eager-
//! friendly) one that leaves `when`s in place.

use std::fmt;

use hypoquery_algebra::scope::{dom_state_expr, free_query, free_state_expr};
use hypoquery_algebra::{ExplicitSubst, Query, StateExpr, Update};
use hypoquery_storage::RelName;

use crate::subst::{compose_suspended, slice_hql};

/// Names of the EQUIV_when rules (Figure 1), used in rewrite traces.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Rule {
    /// `R when ε ≡ Q` if `Q/R ∈ ε`.
    WhenBaseBound,
    /// `R when ε ≡ R` if `R` has no binding in `ε`.
    WhenBaseUnbound,
    /// `{t} when η ≡ {t}`.
    WhenSingleton,
    /// `∅ when η ≡ ∅` (extension: Empty is our explicit ∅ node).
    WhenEmpty,
    /// `(u-op(Q)) when η ≡ u-op(Q when η)`.
    PushWhenUnary,
    /// `(Q₁ b-op Q₂) when η ≡ (Q₁ when η) b-op (Q₂ when η)`.
    PushWhenBinary,
    /// `{ins(R, Q)} ≡ {(R ∪ Q)/R}`.
    ConvertInsert,
    /// `{del(R, Q)} ≡ {(R − Q)/R}`.
    ConvertDelete,
    /// `{(U₁; U₂)} ≡ {U₁} # {U₂}`.
    ConvertSeq,
    /// §6 extension: `{if G then U₁ else U₂}` to guarded bindings.
    ConvertCond,
    /// `(Q when η₁) when η₂ ≡ Q when (η₂ # η₁)`.
    ReplaceNestedWhen,
    /// `(η₁ # η₂) # η₃ ≡ η₁ # (η₂ # η₃)`.
    ComposeAssoc,
    /// `ε₁ # ε₂` computed into a single explicit substitution.
    ComputeComposition,
    /// `Q when ε ≡ Q when ε₋R` if `R ∉ free(Q)`.
    DropUnusedBinding,
    /// `Q when ε ≡ Q when ε₋R` if `(R/R) ∈ ε`.
    DropIdentityBinding,
    /// `Q when {} ≡ Q`.
    DropEmptySubst,
    /// `(Q when η₁) when η₂ ≡ (Q when η₂) when η₁` under disjointness.
    CommuteHypotheticals,
    /// Macro-step: exhaustive application of the push-when and when-base
    /// rules, i.e. `sub(Q, ε)` performed in one go (used by the lazy
    /// strategy's trace; one entry stands for a whole family of Figure 1
    /// firings).
    ApplySubstitution,
}

impl Rule {
    /// Human-readable rule name, as used in `EXPLAIN` output.
    pub fn name(self) -> &'static str {
        match self {
            Rule::WhenBaseBound => "when-base (bound)",
            Rule::WhenBaseUnbound => "when-base (unbound)",
            Rule::WhenSingleton => "when-singleton",
            Rule::WhenEmpty => "when-empty",
            Rule::PushWhenUnary => "push-when-unary",
            Rule::PushWhenBinary => "push-when-binary",
            Rule::ConvertInsert => "convert-insert",
            Rule::ConvertDelete => "convert-delete",
            Rule::ConvertSeq => "convert-seq",
            Rule::ConvertCond => "convert-cond",
            Rule::ReplaceNestedWhen => "replace-nested-when",
            Rule::ComposeAssoc => "compose-assoc",
            Rule::ComputeComposition => "compute-composition",
            Rule::DropUnusedBinding => "drop-unused-binding",
            Rule::DropIdentityBinding => "drop-identity-binding",
            Rule::DropEmptySubst => "drop-empty-subst",
            Rule::CommuteHypotheticals => "commute-hypotheticals",
            Rule::ApplySubstitution => "apply-substitution",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// How many times each rewrite rule fired, in first-use order: the one
/// bookkeeping type of every rewriter (EQUIV_when rules record under
/// [`Rule::name`], the RA rewriter under its own rule names). `EXPLAIN`
/// prints it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RewriteTrace {
    /// `(rule name, firings)` pairs in first-use order.
    pub counts: Vec<(&'static str, usize)>,
}

impl RewriteTrace {
    /// An empty trace.
    pub fn new() -> Self {
        RewriteTrace::default()
    }

    /// Record one firing of `rule`.
    pub fn record(&mut self, rule: &'static str) {
        self.add(rule, 1);
    }

    fn add(&mut self, rule: &'static str, n: usize) {
        match self.counts.iter_mut().find(|(r, _)| *r == rule) {
            Some((_, c)) => *c += n,
            None => self.counts.push((rule, n)),
        }
    }

    /// How many times `rule` fired.
    pub fn count(&self, rule: &str) -> usize {
        self.counts
            .iter()
            .find(|(r, _)| *r == rule)
            .map_or(0, |(_, n)| *n)
    }

    /// Total number of rule firings.
    pub fn total(&self) -> usize {
        self.counts.iter().map(|(_, n)| n).sum()
    }

    /// Add `other`'s firings, as if they were recorded here after this
    /// trace's own.
    pub fn merge(&mut self, other: RewriteTrace) {
        for (rule, n) in other.counts {
            self.add(rule, n);
        }
    }
}

// ---------------------------------------------------------------------------
// Individual rules. Each fires at the root only.
// ---------------------------------------------------------------------------

/// `R when ε ≡ ε(R)` (bound) / `R` (unbound); `{t} when η ≡ {t}`;
/// `∅ when η ≡ ∅`. Fires on `When` whose body is a leaf.
pub fn rule_when_leaf(q: &Query) -> Option<(Query, Rule)> {
    let Query::When(body, eta) = q else {
        return None;
    };
    match (&**body, &**eta) {
        (Query::Singleton(_), _) => Some(((**body).clone(), Rule::WhenSingleton)),
        (Query::Empty { .. }, _) => Some(((**body).clone(), Rule::WhenEmpty)),
        (Query::Base(name), StateExpr::Subst(eps)) => match eps.get(name) {
            Some(bound) => Some((bound.clone(), Rule::WhenBaseBound)),
            None => Some(((**body).clone(), Rule::WhenBaseUnbound)),
        },
        _ => None,
    }
}

/// Push `when` through unary and binary algebra operators
/// (*push-when-into-algebra-expressions*, Fig. 1).
pub fn rule_push_when(q: &Query) -> Option<(Query, Rule)> {
    let Query::When(body, eta) = q else {
        return None;
    };
    let eta = (**eta).clone();
    match (**body).clone() {
        Query::Select(inner, p) => Some((inner.when(eta).select(p), Rule::PushWhenUnary)),
        Query::Project(inner, cols) => Some((inner.when(eta).project(cols), Rule::PushWhenUnary)),
        Query::Aggregate {
            input,
            group_by,
            aggs,
        } => Some((
            input.when(eta).aggregate(group_by, aggs),
            Rule::PushWhenUnary,
        )),
        Query::Union(a, b) => Some((a.when(eta.clone()).union(b.when(eta)), Rule::PushWhenBinary)),
        Query::Intersect(a, b) => Some((
            a.when(eta.clone()).intersect(b.when(eta)),
            Rule::PushWhenBinary,
        )),
        Query::Product(a, b) => Some((
            a.when(eta.clone()).product(b.when(eta)),
            Rule::PushWhenBinary,
        )),
        Query::Join(a, b, p) => Some((
            a.when(eta.clone()).join(b.when(eta), p),
            Rule::PushWhenBinary,
        )),
        Query::Diff(a, b) => Some((a.when(eta.clone()).diff(b.when(eta)), Rule::PushWhenBinary)),
        _ => None,
    }
}

/// *convert-to-explicit-substitutions* (Fig. 1): rewrite a `{U}` state
/// expression one step towards explicit form.
pub fn rule_convert_update(eta: &StateExpr) -> Option<(StateExpr, Rule)> {
    let StateExpr::Update(u) = eta else {
        return None;
    };
    match u {
        Update::Insert(_, _) => Some((StateExpr::subst(slice_hql(u)), Rule::ConvertInsert)),
        Update::Delete(_, _) => Some((StateExpr::subst(slice_hql(u)), Rule::ConvertDelete)),
        Update::Seq(u1, u2) => Some((
            StateExpr::update((**u1).clone()).compose(StateExpr::update((**u2).clone())),
            Rule::ConvertSeq,
        )),
        Update::Cond { .. } => Some((StateExpr::subst(slice_hql(u)), Rule::ConvertCond)),
    }
}

/// `(Q when η₁) when η₂ ≡ Q when (η₂ # η₁)` (*replace-nested-when*).
pub fn rule_replace_nested_when(q: &Query) -> Option<(Query, Rule)> {
    let Query::When(body, eta2) = q else {
        return None;
    };
    let Query::When(inner, eta1) = &**body else {
        return None;
    };
    Some((
        inner
            .clone()
            .when((**eta2).clone().compose((**eta1).clone())),
        Rule::ReplaceNestedWhen,
    ))
}

/// `(η₁ # η₂) # η₃ ≡ η₁ # (η₂ # η₃)` (*associativity*).
pub fn rule_compose_assoc(eta: &StateExpr) -> Option<(StateExpr, Rule)> {
    let StateExpr::Compose(ab, c) = eta else {
        return None;
    };
    let StateExpr::Compose(a, b) = &**ab else {
        return None;
    };
    Some((
        (**a).clone().compose((**b).clone().compose((**c).clone())),
        Rule::ComposeAssoc,
    ))
}

/// `ε₁ # ε₂` computed into one explicit substitution
/// (*compute-composition*, via [`compose_suspended`]).
pub fn rule_compute_composition(eta: &StateExpr) -> Option<(StateExpr, Rule)> {
    let StateExpr::Compose(a, b) = eta else {
        return None;
    };
    let (StateExpr::Subst(e1), StateExpr::Subst(e2)) = (&**a, &**b) else {
        return None;
    };
    Some((
        StateExpr::subst(compose_suspended(e1, e2)),
        Rule::ComputeComposition,
    ))
}

/// *substitution-simplification* (Fig. 1), first applicable of:
/// drop a binding for a name not free in the body; drop an identity
/// binding `R/R`; drop an empty substitution entirely.
pub fn rule_simplify_subst(q: &Query) -> Option<(Query, Rule)> {
    let Query::When(body, eta) = q else {
        return None;
    };
    let StateExpr::Subst(eps) = &**eta else {
        return None;
    };
    match droppable_binding(body, eps)? {
        (None, rule) => Some(((**body).clone(), rule)),
        (Some(name), rule) => Some((
            body.clone().when(StateExpr::subst(eps.without(&name))),
            rule,
        )),
    }
}

/// What *substitution-simplification* drops first from `body when eps`:
/// a binding (`Some(name)`) or, if `eps` is empty, the whole substitution
/// (`None`), with the rule that fires.
fn droppable_binding(body: &Query, eps: &ExplicitSubst) -> Option<(Option<RelName>, Rule)> {
    if eps.is_empty() {
        return Some((None, Rule::DropEmptySubst));
    }
    let free = free_query(body);
    eps.iter().find_map(|(name, bound)| {
        let rule = if !free.contains(name) {
            Rule::DropUnusedBinding
        } else if matches!(bound, Query::Base(n) if n == name) {
            Rule::DropIdentityBinding
        } else {
            return None;
        };
        Some((Some(name.clone()), rule))
    })
}

/// *commute-hypotheticals* (Fig. 1): `(Q when η₁) when η₂ ≡
/// (Q when η₂) when η₁` when the three disjointness conditions hold:
/// `dom(η₁) ∩ dom(η₂) = dom(η₁) ∩ free(η₂) = dom(η₂) ∩ free(η₁) = ∅`.
pub fn rule_commute_hypotheticals(q: &Query) -> Option<(Query, Rule)> {
    let Query::When(body, eta2) = q else {
        return None;
    };
    let Query::When(inner, eta1) = &**body else {
        return None;
    };
    let d1 = dom_state_expr(eta1);
    let d2 = dom_state_expr(eta2);
    let f1 = free_state_expr(eta1);
    let f2 = free_state_expr(eta2);
    let disjoint = d1.intersection(&d2).next().is_none()
        && d1.intersection(&f2).next().is_none()
        && d2.intersection(&f1).next().is_none();
    if !disjoint {
        return None;
    }
    Some((
        inner.clone().when((**eta2).clone()).when((**eta1).clone()),
        Rule::CommuteHypotheticals,
    ))
}

// ---------------------------------------------------------------------------
// ENF normalization (§5.2)
// ---------------------------------------------------------------------------

/// Whether a state expression is in explicit form, recursively (its
/// bindings' queries must themselves be ENF).
fn state_is_enf(eta: &StateExpr) -> bool {
    match eta {
        StateExpr::Subst(eps) => eps.iter().all(|(_, q)| is_enf_query(q)),
        _ => false,
    }
}

/// Whether a query is in Evaluable Normal Form: no `#`, no `{U}` anywhere.
pub fn is_enf_query(q: &Query) -> bool {
    match q {
        Query::Base(_) | Query::Singleton(_) | Query::Empty { .. } => true,
        Query::Select(inner, _) | Query::Project(inner, _) => is_enf_query(inner),
        Query::Union(a, b)
        | Query::Intersect(a, b)
        | Query::Product(a, b)
        | Query::Join(a, b, _)
        | Query::Diff(a, b) => is_enf_query(a) && is_enf_query(b),
        Query::When(body, eta) => is_enf_query(body) && state_is_enf(eta),
        Query::Aggregate { input, .. } => is_enf_query(input),
    }
}

/// Normalize a state expression to an explicit substitution by exhaustively
/// applying *convert-to-explicit-substitutions*, *associativity* and
/// *compute-composition*, recording each firing in `trace`.
pub fn to_enf_state(eta: &StateExpr, trace: &mut RewriteTrace) -> ExplicitSubst {
    enf_state(eta.clone(), trace)
}

fn enf_state(eta: StateExpr, trace: &mut RewriteTrace) -> ExplicitSubst {
    match eta {
        StateExpr::Update(_) => {
            let (next, rule) = rule_convert_update(&eta).expect("convert rules are total on {U}");
            trace.record(rule.name());
            enf_state(next, trace)
        }
        StateExpr::Subst(eps) => eps.map_queries(|q| enf_query(q, trace)),
        StateExpr::Compose(a, b) => {
            let ea = enf_state(*a, trace);
            let eb = enf_state(*b, trace);
            trace.record(Rule::ComputeComposition.name());
            compose_suspended(&ea, &eb)
        }
    }
}

fn enf_query(q: Query, trace: &mut RewriteTrace) -> Query {
    let mut q = q.map_subqueries(|sub| enf_query(sub, trace));
    if let Query::When(_, eta) = &mut q {
        let eta_in = std::mem::replace(&mut **eta, StateExpr::subst(ExplicitSubst::empty()));
        **eta = StateExpr::subst(enf_state(eta_in, trace));
    }
    q
}

/// Normalize a query to ENF (§5.2): every hypothetical-state expression in
/// it (including inside substitution bindings) becomes an explicit
/// substitution. `when`s are left in place — this is the eager-friendly
/// normal form; pushing `when`s further (towards lazy) is a separate,
/// planner-driven choice.
pub fn to_enf_query(q: &Query, trace: &mut RewriteTrace) -> Query {
    let out = enf_query(q.clone(), trace);
    debug_assert!(is_enf_query(&out));
    out
}

/// Simplify every `when` node in an ENF query with
/// *substitution-simplification* until no more bindings can be dropped.
/// This is the binding-removal optimization of Example 2.3. Takes the
/// query by value and rewrites it in place.
pub fn simplify_enf(q: Query, trace: &mut RewriteTrace) -> Query {
    let mut current = q.map_subqueries(|sub| simplify_enf(sub, trace));
    // At a When node, also simplify inside bindings, then drop bindings.
    if let Query::When(_, eta) = &mut current {
        if let StateExpr::Subst(eps) = &mut **eta {
            *eps = std::mem::take(eps).map_queries(|bq| simplify_enf(bq, trace));
        }
    }
    loop {
        let step = match &current {
            Query::When(body, eta) => match &**eta {
                StateExpr::Subst(eps) => droppable_binding(body, eps),
                _ => None,
            },
            _ => None,
        };
        let Some((dropped, rule)) = step else {
            return current;
        };
        trace.record(rule.name());
        let Query::When(body, mut eta) = current else {
            unreachable!("a step fires only at a `when`")
        };
        current = match (dropped, &mut *eta) {
            (Some(name), StateExpr::Subst(eps)) => {
                eps.remove(&name);
                Query::When(body, eta)
            }
            _ => *body,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypoquery_algebra::{CmpOp, Predicate};
    use hypoquery_storage::tuple;

    fn ins_r() -> StateExpr {
        StateExpr::update(Update::insert(
            "R",
            Query::base("S").select(Predicate::col_cmp(0, CmpOp::Gt, 30)),
        ))
    }

    fn del_s() -> StateExpr {
        StateExpr::update(Update::delete(
            "S",
            Query::base("S").select(Predicate::col_cmp(0, CmpOp::Lt, 60)),
        ))
    }

    #[test]
    fn when_leaf_rules() {
        let eps = ExplicitSubst::single("R", Query::base("S"));
        let bound = Query::base("R").when(StateExpr::subst(eps.clone()));
        let (out, rule) = rule_when_leaf(&bound).unwrap();
        assert_eq!(out, Query::base("S"));
        assert_eq!(rule, Rule::WhenBaseBound);

        let unbound = Query::base("T").when(StateExpr::subst(eps));
        let (out, rule) = rule_when_leaf(&unbound).unwrap();
        assert_eq!(out, Query::base("T"));
        assert_eq!(rule, Rule::WhenBaseUnbound);

        let single = Query::singleton(tuple![1]).when(ins_r());
        let (out, rule) = rule_when_leaf(&single).unwrap();
        assert_eq!(out, Query::singleton(tuple![1]));
        assert_eq!(rule, Rule::WhenSingleton);

        let empty = Query::empty(2).when(ins_r());
        assert_eq!(rule_when_leaf(&empty).unwrap().1, Rule::WhenEmpty);

        // Base under a non-explicit state expr: leaf rule does not fire.
        assert!(rule_when_leaf(&Query::base("R").when(ins_r())).is_none());
    }

    #[test]
    fn push_when_rules() {
        let eta = ins_r();
        let q = Query::base("R").union(Query::base("S")).when(eta.clone());
        let (out, rule) = rule_push_when(&q).unwrap();
        assert_eq!(rule, Rule::PushWhenBinary);
        assert_eq!(
            out,
            Query::base("R")
                .when(eta.clone())
                .union(Query::base("S").when(eta.clone()))
        );

        let q2 = Query::base("R").project([0]).when(eta.clone());
        let (out2, rule2) = rule_push_when(&q2).unwrap();
        assert_eq!(rule2, Rule::PushWhenUnary);
        assert_eq!(out2, Query::base("R").when(eta.clone()).project([0]));

        // Leaf body: push rule does not fire.
        assert!(rule_push_when(&Query::base("R").when(eta)).is_none());
    }

    #[test]
    fn convert_rules() {
        let (out, rule) = rule_convert_update(&ins_r()).unwrap();
        assert_eq!(rule, Rule::ConvertInsert);
        let eps = out.as_subst().unwrap();
        assert!(eps.get(&"R".into()).is_some());

        let seq = StateExpr::update(
            Update::insert("R", Query::base("S")).then(Update::delete("S", Query::base("S"))),
        );
        let (out, rule) = rule_convert_update(&seq).unwrap();
        assert_eq!(rule, Rule::ConvertSeq);
        assert!(matches!(out, StateExpr::Compose(_, _)));
    }

    #[test]
    fn replace_nested_when_order() {
        // (Q when η1) when η2 ≡ Q when (η2 # η1)
        let q = Query::base("R").when(ins_r()).when(del_s());
        let (out, rule) = rule_replace_nested_when(&q).unwrap();
        assert_eq!(rule, Rule::ReplaceNestedWhen);
        match out {
            Query::When(_, eta) => match *eta {
                StateExpr::Compose(a, b) => {
                    assert_eq!(*a, del_s());
                    assert_eq!(*b, ins_r());
                }
                other => panic!("expected composition, got {other}"),
            },
            other => panic!("expected when, got {other}"),
        }
    }

    #[test]
    fn compose_assoc() {
        let e = ins_r().compose(del_s()).compose(ins_r());
        let (out, _) = rule_compose_assoc(&e).unwrap();
        assert_eq!(out, ins_r().compose(del_s().compose(ins_r())));
        assert!(rule_compose_assoc(&out).is_none());
    }

    #[test]
    fn simplify_drops_unused_binding_only() {
        // S is not free in the body, so its binding is droppable; R's
        // binding is used and non-identity, so it must survive.
        let eps = ExplicitSubst::new([
            ("R".into(), Query::base("R").union(Query::base("T"))),
            ("S".into(), Query::base("T")),
        ]);
        let q = Query::base("R").when(StateExpr::subst(eps.clone()));
        let (out, rule) = rule_simplify_subst(&q).unwrap();
        assert_eq!(rule, Rule::DropUnusedBinding);
        assert_eq!(
            out,
            Query::base("R").when(StateExpr::subst(eps.without(&"S".into())))
        );
        // No further simplification applies.
        assert!(rule_simplify_subst(&out).is_none());
    }

    #[test]
    fn simplify_identity_and_empty() {
        let eps = ExplicitSubst::single("R", Query::base("R"));
        let q = Query::base("R").when(StateExpr::subst(eps));
        let (out, rule) = rule_simplify_subst(&q).unwrap();
        assert_eq!(rule, Rule::DropIdentityBinding);
        let (out2, rule2) = rule_simplify_subst(&out).unwrap();
        assert_eq!(rule2, Rule::DropEmptySubst);
        assert_eq!(out2, Query::base("R"));
    }

    #[test]
    fn commute_requires_disjointness() {
        // η1 touches R reading S; η2 touches T reading V → commutable.
        let e1 = StateExpr::update(Update::insert("R", Query::base("S")));
        let e2 = StateExpr::update(Update::insert("T", Query::base("V")));
        let q = Query::base("R")
            .union(Query::base("T"))
            .when(e1.clone())
            .when(e2.clone());
        let (out, rule) = rule_commute_hypotheticals(&q).unwrap();
        assert_eq!(rule, Rule::CommuteHypotheticals);
        assert_eq!(
            out,
            Query::base("R")
                .union(Query::base("T"))
                .when(e2.clone())
                .when(e1.clone())
        );

        // η2 reads R which η1 defines → not commutable.
        let e3 = StateExpr::update(Update::insert("T", Query::base("R")));
        let q2 = Query::base("R").when(e1).when(e3);
        assert!(rule_commute_hypotheticals(&q2).is_none());
    }

    #[test]
    fn enf_normalization() {
        let q = Query::base("R")
            .join(Query::base("S"), Predicate::True)
            .when(ins_r())
            .when(del_s());
        assert!(!is_enf_query(&q));
        let mut trace = RewriteTrace::new();
        let enf = to_enf_query(&q, &mut trace);
        assert!(is_enf_query(&enf));
        assert!(trace.count(Rule::ConvertInsert.name()) >= 1);
        assert!(trace.count(Rule::ConvertDelete.name()) >= 1);
        // The original query is untouched.
        assert!(!is_enf_query(&q));
    }

    #[test]
    fn enf_of_composition_computes_it() {
        let eta = ins_r().compose(del_s());
        let q = Query::base("R").when(eta);
        let mut trace = RewriteTrace::new();
        let enf = to_enf_query(&q, &mut trace);
        assert!(is_enf_query(&enf));
        assert_eq!(trace.count(Rule::ComputeComposition.name()), 1);
        // The resulting single substitution binds both R and S.
        match &enf {
            Query::When(_, eta) => {
                let eps = eta.as_subst().unwrap();
                assert!(eps.get(&"R".into()).is_some());
                assert!(eps.get(&"S".into()).is_some());
            }
            other => panic!("expected when, got {other}"),
        }
    }

    #[test]
    fn trace_counts_per_rule_in_first_use_order() {
        let mut t = RewriteTrace::new();
        t.record(Rule::ConvertInsert.name());
        t.record(Rule::ComputeComposition.name());
        t.record(Rule::ConvertInsert.name());
        let mut more = RewriteTrace::new();
        more.record(Rule::DropEmptySubst.name());
        more.record(Rule::ComputeComposition.name());
        t.merge(more);
        assert_eq!(
            t.counts,
            [
                ("convert-insert", 2),
                ("compute-composition", 2),
                ("drop-empty-subst", 1)
            ]
        );
        assert_eq!(t.total(), 5);
        assert_eq!(t.count("convert-seq"), 0);
    }
}
