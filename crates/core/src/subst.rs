//! The substitution calculus of §3.2–§3.4.
//!
//! * [`sub_query`] — `sub(Q, ρ)`: apply a substitution to a pure relational
//!   algebra query (the paper defines `sub` on Σ(RA); scope-crossing
//!   rewrites on full HQL go through the EQUIV_when rules instead).
//! * [`compose_pure`] — `ρ₁ # ρ₂` for substitutions with pure bindings
//!   (Lemma 3.2's defining equation).
//! * [`compose_suspended`] — the *compute-composition* rule of Figure 1:
//!   composition at the syntactic level, valid for arbitrary HQL bindings,
//!   where `sub(P, ε₁)` is represented as the suspended `P when ε₁`.
//! * [`slice`](fn@slice) — `slice(U)`: the substitution with the same effect as
//!   update `U` (§3.4), including the §6 conditional-update extension.

use std::fmt;

use hypoquery_storage::Tuple;

use hypoquery_algebra::{ExplicitSubst, Query, StateExpr, Update};

/// Errors from the substitution calculus.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SubstError {
    /// `sub` was applied to a query containing `when`. The paper's `sub` is
    /// defined on pure RA only; reduce with `red` first, or rewrite with
    /// the EQUIV_when rules.
    ImpureQuery(String),
}

impl fmt::Display for SubstError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubstError::ImpureQuery(q) => {
                write!(f, "sub(Q, ρ) requires a pure RA query, got: {q}")
            }
        }
    }
}

impl std::error::Error for SubstError {}

/// `sub(Q, ρ)`: replace every occurrence of a name `S ∈ dom(ρ)` in the pure
/// RA query `Q` by `ρ(S)` (§3.2).
///
/// The bindings of `ρ` may be arbitrary HQL queries (they are spliced in
/// verbatim), but `Q` itself must be pure — an `Err` is returned otherwise.
pub fn sub_query(q: &Query, rho: &ExplicitSubst) -> Result<Query, SubstError> {
    match q {
        Query::Base(name) => Ok(match rho.get(name) {
            Some(bound) => bound.clone(),
            None => q.clone(),
        }),
        Query::Singleton(_) | Query::Empty { .. } => Ok(q.clone()),
        Query::Select(inner, p) => Ok(sub_query(inner, rho)?.select(p.clone())),
        Query::Project(inner, cols) => Ok(sub_query(inner, rho)?.project(cols.clone())),
        Query::Union(a, b) => Ok(sub_query(a, rho)?.union(sub_query(b, rho)?)),
        Query::Intersect(a, b) => Ok(sub_query(a, rho)?.intersect(sub_query(b, rho)?)),
        Query::Product(a, b) => Ok(sub_query(a, rho)?.product(sub_query(b, rho)?)),
        Query::Join(a, b, p) => Ok(sub_query(a, rho)?.join(sub_query(b, rho)?, p.clone())),
        Query::Diff(a, b) => Ok(sub_query(a, rho)?.diff(sub_query(b, rho)?)),
        Query::When(_, _) => Err(SubstError::ImpureQuery(q.to_string())),
        Query::Aggregate {
            input,
            group_by,
            aggs,
        } => Ok(sub_query(input, rho)?.aggregate(group_by.clone(), aggs.clone())),
    }
}

/// `ρ₁ # ρ₂` on abstract substitutions (Lemma 3.2):
///
/// ```text
/// dom(ρ₁#ρ₂) = dom(ρ₁) ∪ dom(ρ₂)
/// (ρ₁#ρ₂)(S) = sub(ρ₂(S), ρ₁)   if S ∈ dom(ρ₂)
///            = ρ₁(S)            otherwise
/// ```
///
/// Requires `ρ₂`'s bindings to be pure (they flow through `sub`).
/// Viewed as updates, `ρ₁#ρ₂` means "`ρ₁` first, then `ρ₂`" (Lemma 3.6).
pub fn compose_pure(
    rho1: &ExplicitSubst,
    rho2: &ExplicitSubst,
) -> Result<ExplicitSubst, SubstError> {
    let mut out = ExplicitSubst::empty();
    for (name, q) in rho1.iter() {
        if rho2.get(name).is_none() {
            out.bind(name.clone(), q.clone());
        }
    }
    for (name, q) in rho2.iter() {
        out.bind(name.clone(), sub_query(q, rho1)?);
    }
    Ok(out)
}

/// The *compute-composition* rule of Figure 1: `ε₁ # ε₂` computed
/// syntactically, with `sub(P, ε₁)` left suspended as `P when ε₁`.
///
/// Valid for arbitrary HQL bindings; the price is that the resulting
/// bindings contain `when` (ENF permits this — `when` may occur inside the
/// bound queries of an explicit substitution).
pub fn compose_suspended(eps1: &ExplicitSubst, eps2: &ExplicitSubst) -> ExplicitSubst {
    let mut out = ExplicitSubst::empty();
    for (name, q) in eps1.iter() {
        if eps2.get(name).is_none() {
            out.bind(name.clone(), q.clone());
        }
    }
    for (name, q) in eps2.iter() {
        if eps1.is_empty() {
            out.bind(name.clone(), q.clone());
        } else {
            out.bind(name.clone(), q.clone().when(StateExpr::subst(eps1.clone())));
        }
    }
    out
}

/// `slice(U)`: the substitution with the same effect as `U` (§3.4):
///
/// ```text
/// slice(ins(R, Q)) = {(R ∪ Q)/R}
/// slice(del(R, Q)) = {(R − Q)/R}
/// slice(U₁; U₂)    = slice(U₁) # slice(U₂)
/// ```
///
/// The queries inside `U` must be pure (reduce with `red` first when they
/// are not); the result is then a pure substitution, and Lemma 3.9 /
/// Theorem 3.10 hold: `[[Q when {U}]] = [[sub(Q, slice(U))]]`.
///
/// §6 extension — conditionals: `slice(if G then U₁ else U₂)` binds, for
/// each `R ∈ dom(U₁) ∪ dom(U₂)`,
///
/// ```text
/// R ↦ (slice(U₁)(R) × g) ∪ (slice(U₂)(R) × ({()} − g))    g = π∅(G)
/// ```
///
/// where `g` is the 0-ary projection of the guard: `{()}` when `G` is
/// non-empty and `∅` otherwise. A product with a 0-ary relation is identity
/// or annihilation, so the binding selects the right branch's slice — the
/// conditional never escapes the substitution framework.
pub fn slice(u: &Update) -> Result<ExplicitSubst, SubstError> {
    match u {
        Update::Insert(r, q) => Ok(ExplicitSubst::single(
            r.clone(),
            Query::base(r.clone()).union(q.clone()),
        )),
        Update::Delete(r, q) => Ok(ExplicitSubst::single(
            r.clone(),
            Query::base(r.clone()).diff(q.clone()),
        )),
        Update::Seq(u1, u2) => compose_pure(&slice(u1)?, &slice(u2)?),
        Update::Cond {
            guard,
            then_u,
            else_u,
        } => {
            let s_then = slice(then_u)?;
            let s_else = slice(else_u)?;
            if !guard.is_pure() {
                return Err(SubstError::ImpureQuery(guard.to_string()));
            }
            // g = π∅(guard): the 0-ary guard relation.
            let g = guard.clone().project(Vec::<usize>::new());
            let not_g = Query::singleton(Tuple::empty()).diff(g.clone());
            let mut out = ExplicitSubst::empty();
            let mut names: Vec<_> = s_then.names().cloned().collect();
            names.extend(s_else.names().cloned());
            names.sort();
            names.dedup();
            for name in names {
                let q_then = s_then
                    .get(&name)
                    .cloned()
                    .unwrap_or_else(|| Query::base(name.clone()));
                let q_else = s_else
                    .get(&name)
                    .cloned()
                    .unwrap_or_else(|| Query::base(name.clone()));
                out.bind(
                    name,
                    q_then
                        .product(g.clone())
                        .union(q_else.product(not_g.clone())),
                );
            }
            Ok(out)
        }
    }
}

/// Total variant of [`slice`](fn@slice) for updates whose queries may contain `when`:
/// sequences compose with [`compose_suspended`] instead of [`compose_pure`],
/// so no purity requirement arises. The resulting bindings may contain
/// `when` (with explicit substitutions), which ENF permits.
pub fn slice_hql(u: &Update) -> ExplicitSubst {
    match u {
        Update::Insert(r, q) => {
            ExplicitSubst::single(r.clone(), Query::base(r.clone()).union(q.clone()))
        }
        Update::Delete(r, q) => {
            ExplicitSubst::single(r.clone(), Query::base(r.clone()).diff(q.clone()))
        }
        Update::Seq(u1, u2) => compose_suspended(&slice_hql(u1), &slice_hql(u2)),
        Update::Cond {
            guard,
            then_u,
            else_u,
        } => {
            let s_then = slice_hql(then_u);
            let s_else = slice_hql(else_u);
            let g = guard.clone().project(Vec::<usize>::new());
            let not_g = Query::singleton(Tuple::empty()).diff(g.clone());
            let mut out = ExplicitSubst::empty();
            let mut names: Vec<_> = s_then.names().cloned().collect();
            names.extend(s_else.names().cloned());
            names.sort();
            names.dedup();
            for name in names {
                let q_then = s_then
                    .get(&name)
                    .cloned()
                    .unwrap_or_else(|| Query::base(name.clone()));
                let q_else = s_else
                    .get(&name)
                    .cloned()
                    .unwrap_or_else(|| Query::base(name.clone()));
                out.bind(
                    name,
                    q_then
                        .product(g.clone())
                        .union(q_else.product(not_g.clone())),
                );
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypoquery_algebra::{CmpOp, Predicate};

    fn sigma_p(q: Query) -> Query {
        q.select(Predicate::col_cmp(0, CmpOp::Gt, 0))
    }

    /// Example 3.1: ρ = {(S − R)/R, σp(R)/S}, Q = π₂(R × S) ∪ V.
    /// sub(Q, ρ) = (π₂((S − R) × σp(R))) ∪ V.
    #[test]
    fn example_3_1() {
        let rho = ExplicitSubst::new([
            ("R".into(), Query::base("S").diff(Query::base("R"))),
            ("S".into(), sigma_p(Query::base("R"))),
        ]);
        let q = Query::base("R")
            .product(Query::base("S"))
            .project([2])
            .union(Query::base("V"));
        let expected = Query::base("S")
            .diff(Query::base("R"))
            .product(sigma_p(Query::base("R")))
            .project([2])
            .union(Query::base("V"));
        assert_eq!(sub_query(&q, &rho).unwrap(), expected);
    }

    /// Example 3.3: ρ₁ = {(S−R)/R, σq(R)/S}, ρ₂ = {π(R ⋈ T)/S, σp(S)/V}.
    /// ρ₁#ρ₂ = {(S−R)/R, π((S−R) ⋈ T)/S, σp(σq(R))/V}.
    #[test]
    fn example_3_3() {
        let sigma_q = |q: Query| q.select(Predicate::col_cmp(0, CmpOp::Lt, 9));
        let rho1 = ExplicitSubst::new([
            ("R".into(), Query::base("S").diff(Query::base("R"))),
            ("S".into(), sigma_q(Query::base("R"))),
        ]);
        let join = |a: Query, b: Query| a.join(b, Predicate::col_col(0, CmpOp::Eq, 1));
        let rho2 = ExplicitSubst::new([
            (
                "S".into(),
                join(Query::base("R"), Query::base("T")).project([0]),
            ),
            ("V".into(), sigma_p(Query::base("S"))),
        ]);
        let composed = compose_pure(&rho1, &rho2).unwrap();
        assert_eq!(
            composed.get(&"R".into()),
            Some(&Query::base("S").diff(Query::base("R")))
        );
        assert_eq!(
            composed.get(&"S".into()),
            Some(&join(Query::base("S").diff(Query::base("R")), Query::base("T")).project([0]))
        );
        assert_eq!(
            composed.get(&"V".into()),
            Some(&sigma_p(sigma_q(Query::base("R"))))
        );
    }

    /// Lemma 3.2 (syntactic half): sub(Q, ρ₁#ρ₂) = sub(sub(Q, ρ₂), ρ₁).
    #[test]
    fn lemma_3_2_sub_through_composition() {
        let rho1 = ExplicitSubst::new([
            ("R".into(), Query::base("S").diff(Query::base("R"))),
            ("S".into(), sigma_p(Query::base("R"))),
        ]);
        let rho2 = ExplicitSubst::new([
            ("S".into(), Query::base("R").union(Query::base("T"))),
            ("V".into(), Query::base("S")),
        ]);
        let q = Query::base("R")
            .union(Query::base("S"))
            .union(Query::base("V"));
        let lhs = sub_query(&q, &compose_pure(&rho1, &rho2).unwrap()).unwrap();
        let rhs = sub_query(&sub_query(&q, &rho2).unwrap(), &rho1).unwrap();
        assert_eq!(lhs, rhs);
    }

    /// Lemma 3.2: associativity of #.
    #[test]
    fn lemma_3_2_associativity() {
        let r1 = ExplicitSubst::single("R", Query::base("S"));
        let r2 = ExplicitSubst::single("S", Query::base("R").union(Query::base("T")));
        let r3 = ExplicitSubst::new([
            ("T".into(), Query::base("R")),
            ("R".into(), sigma_p(Query::base("R"))),
        ]);
        let left = compose_pure(&compose_pure(&r1, &r2).unwrap(), &r3).unwrap();
        let right = compose_pure(&r1, &compose_pure(&r2, &r3).unwrap()).unwrap();
        assert_eq!(left, right);
    }

    /// Example 3.8: U = (ins(R, Q₁); del(S, σp(R))).
    /// slice(U) = {(R ∪ Q₁)/R, (S − σp(R ∪ Q₁))/S}.
    #[test]
    fn example_3_8() {
        let q1 = Query::base("Q1");
        let u =
            Update::insert("R", q1.clone()).then(Update::delete("S", sigma_p(Query::base("R"))));
        let s = slice(&u).unwrap();
        assert_eq!(
            s.get(&"R".into()),
            Some(&Query::base("R").union(q1.clone()))
        );
        assert_eq!(
            s.get(&"S".into()),
            Some(&Query::base("S").diff(sigma_p(Query::base("R").union(q1))))
        );
    }

    #[test]
    fn sub_rejects_impure_query() {
        let q = Query::base("R").when(StateExpr::update(Update::insert("R", Query::base("S"))));
        let err = sub_query(&q, &ExplicitSubst::empty()).unwrap_err();
        assert!(matches!(err, SubstError::ImpureQuery(_)));
        assert!(err.to_string().contains("requires a pure RA query"));
    }

    #[test]
    fn compose_suspended_wraps_with_when() {
        let e1 = ExplicitSubst::single("R", Query::base("S"));
        let e2 = ExplicitSubst::new([
            ("S".into(), Query::base("R")),
            ("T".into(), Query::base("T")),
        ]);
        let c = compose_suspended(&e1, &e2);
        // R ∈ dom(ε1) − dom(ε2): copied from ε1.
        assert_eq!(c.get(&"R".into()), Some(&Query::base("S")));
        // S, T ∈ dom(ε2): suspended under when ε1.
        assert_eq!(
            c.get(&"S".into()),
            Some(&Query::base("R").when(StateExpr::subst(e1.clone())))
        );
        assert_eq!(
            c.get(&"T".into()),
            Some(&Query::base("T").when(StateExpr::subst(e1.clone())))
        );
        // Composing with an empty ε1 is the identity on ε2.
        assert_eq!(compose_suspended(&ExplicitSubst::empty(), &e2), e2);
    }

    #[test]
    fn slice_of_cond_builds_guarded_bindings() {
        let u = Update::cond(
            Query::base("G"),
            Update::insert("R", Query::base("S")),
            Update::delete("R", Query::base("S")),
        );
        let s = slice(&u).unwrap();
        let binding = s.get(&"R".into()).unwrap();
        // Shape: ((R ∪ S) × π∅(G)) ∪ ((R − S) × ({()} − π∅(G)))
        let g = Query::base("G").project(Vec::<usize>::new());
        let not_g = Query::singleton(Tuple::empty()).diff(g.clone());
        let expected = Query::base("R")
            .union(Query::base("S"))
            .product(g)
            .union(Query::base("R").diff(Query::base("S")).product(not_g));
        assert_eq!(binding, &expected);
    }

    #[test]
    fn slice_of_cond_with_impure_guard_errors() {
        let impure =
            Query::base("G").when(StateExpr::update(Update::insert("G", Query::base("S"))));
        let u = Update::cond(
            impure,
            Update::insert("R", Query::base("S")),
            Update::delete("R", Query::base("S")),
        );
        assert!(slice(&u).is_err());
    }
}
