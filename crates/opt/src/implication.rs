//! Decision procedures for comparison predicates over integer constants.
//!
//! The paper's derivations lean on "algebraic simplification" steps such as
//!
//! ```text
//! S − σ_{A<60}(S)        ≡ σ_{A≥60}(S)          (difference → negation)
//! σ_{A>30}(σ_{A≥60}(S))  ≡ σ_{A≥60}(S)          (implied conjunct)
//! σ_{A≥60}(S) ∩ σ_{A<60}(S) ≡ ∅                 (unsatisfiable)
//! ```
//!
//! This module provides the sound (and deliberately partial) reasoning that
//! powers them: implication and unsatisfiability for atoms of the shape
//! `col op integer-constant` and their conjunctions. Anything outside that
//! fragment conservatively answers "don't know" (`false`), which simply
//! disables the rewrite.

use hypoquery_algebra::{CmpOp, Predicate, ScalarExpr};
use hypoquery_storage::Value;

/// An atom `col op c` over an integer constant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Atom {
    /// Column position.
    pub col: usize,
    /// Comparison operator.
    pub op: CmpOp,
    /// Integer constant.
    pub value: i64,
}

impl Atom {
    /// Extract an atom from a predicate, if it has the right shape
    /// (including the flipped form `c op col`).
    pub fn from_pred(p: &Predicate) -> Option<Atom> {
        match p {
            Predicate::Cmp(ScalarExpr::Col(col), op, ScalarExpr::Const(Value::Int(v))) => {
                Some(Atom {
                    col: *col,
                    op: *op,
                    value: *v,
                })
            }
            Predicate::Cmp(ScalarExpr::Const(Value::Int(v)), op, ScalarExpr::Col(col)) => {
                Some(Atom {
                    col: *col,
                    op: op.flip(),
                    value: *v,
                })
            }
            _ => None,
        }
    }

    /// The solution set of this atom as an integer interval with an
    /// optional excluded point: `[lo, hi] \ {exclude}` (bounds in `i128` to
    /// avoid overflow at the `i64` extremes).
    fn solution(&self) -> IntSet {
        let c = self.value as i128;
        match self.op {
            CmpOp::Eq => IntSet {
                lo: c,
                hi: c,
                exclude: None,
            },
            CmpOp::Ne => IntSet {
                lo: i128::MIN,
                hi: i128::MAX,
                exclude: Some(c),
            },
            CmpOp::Lt => IntSet {
                lo: i128::MIN,
                hi: c - 1,
                exclude: None,
            },
            CmpOp::Le => IntSet {
                lo: i128::MIN,
                hi: c,
                exclude: None,
            },
            CmpOp::Gt => IntSet {
                lo: c + 1,
                hi: i128::MAX,
                exclude: None,
            },
            CmpOp::Ge => IntSet {
                lo: c,
                hi: i128::MAX,
                exclude: None,
            },
        }
    }
}

/// `[lo, hi] \ {exclude}` over the integers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct IntSet {
    lo: i128,
    hi: i128,
    exclude: Option<i128>,
}

impl IntSet {
    fn is_empty(&self) -> bool {
        self.lo > self.hi || (self.lo == self.hi && self.exclude == Some(self.lo))
    }

    /// Whether `self ⊆ other`.
    fn subset_of(&self, other: &IntSet) -> bool {
        if self.is_empty() {
            return true;
        }
        if !(other.lo <= self.lo && self.hi <= other.hi) {
            return false;
        }
        match other.exclude {
            None => true,
            Some(e) => {
                // e must not be a member of self.
                e < self.lo || e > self.hi || self.exclude == Some(e)
            }
        }
    }

    fn intersect(&self, other: &IntSet) -> Option<IntSet> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        // At most one excluded point can be represented; if both sets
        // exclude different in-range points, give up (report None =
        // unknown).
        let ex: Vec<i128> = [self.exclude, other.exclude]
            .into_iter()
            .flatten()
            .filter(|e| *e >= lo && *e <= hi)
            .collect();
        match ex.as_slice() {
            [] => Some(IntSet {
                lo,
                hi,
                exclude: None,
            }),
            [e] => Some(IntSet {
                lo,
                hi,
                exclude: Some(*e),
            }),
            [a, b] if a == b => Some(IntSet {
                lo,
                hi,
                exclude: Some(*a),
            }),
            _ => None,
        }
    }
}

/// Whether atom `a` implies atom `b` (same column required).
pub fn atom_implies(a: &Atom, b: &Atom) -> bool {
    a.col == b.col && a.solution().subset_of(&b.solution())
}

/// Collect the conjuncts of a predicate (flattening nested `And`s).
pub fn conjuncts(p: &Predicate) -> Vec<Predicate> {
    match p {
        Predicate::And(a, b) => {
            let mut out = conjuncts(a);
            out.extend(conjuncts(b));
            out
        }
        Predicate::True => vec![],
        other => vec![other.clone()],
    }
}

/// Whether some conjunct of `p` (as [`conjuncts`] lists them) satisfies
/// `f`, decided without collecting them.
pub fn any_conjunct(p: &Predicate, f: &mut impl FnMut(&Predicate) -> bool) -> bool {
    match p {
        Predicate::And(a, b) => any_conjunct(a, f) || any_conjunct(b, f),
        Predicate::True => false,
        other => f(other),
    }
}

/// Rebuild a conjunction from conjuncts.
pub fn conjoin(mut parts: Vec<Predicate>) -> Predicate {
    match parts.len() {
        0 => Predicate::True,
        _ => {
            let first = parts.remove(0);
            parts.into_iter().fold(first, Predicate::and)
        }
    }
}

/// Sound, partial implication test: does `p` imply `q` in every tuple?
///
/// Handles: syntactic equality, `q = True`, `p = False`, and the
/// atom-conjunction fragment (every conjunct of `q` must be implied by some
/// conjunct of `p`, or be a repeated conjunct of `p`). Returns `false` on
/// anything it cannot decide.
pub fn pred_implies(p: &Predicate, q: &Predicate) -> bool {
    if p == q || *q == Predicate::True || *p == Predicate::False {
        return true;
    }
    if pred_unsat(p) {
        return true;
    }
    let q_parts = conjuncts(q);
    let p_parts = conjuncts(p);
    q_parts.iter().all(|qc| {
        p_parts.iter().any(|pc| {
            pc == qc
                || match (Atom::from_pred(pc), Atom::from_pred(qc)) {
                    (Some(a), Some(b)) => atom_implies(&a, &b),
                    _ => false,
                }
        })
    })
}

/// Sound, partial unsatisfiability test.
///
/// Detects `False`, conjunctions whose per-column interval intersection is
/// empty, and disjunctions of unsatisfiable branches.
pub fn pred_unsat(p: &Predicate) -> bool {
    match p {
        Predicate::False => true,
        Predicate::Or(a, b) => pred_unsat(a) && pred_unsat(b),
        // A single atom always has a solution; `True` and negations are
        // not judged.
        Predicate::True | Predicate::Cmp(..) | Predicate::Not(_) => false,
        Predicate::And(..) => {
            let parts = conjuncts(p);
            if parts.contains(&Predicate::False) {
                return true;
            }
            if parts.iter().any(pred_contains_unsat_or) {
                return false; // give up on nested disjunctions here
            }
            // Intersect atoms per column.
            let mut per_col: std::collections::BTreeMap<usize, IntSet> = Default::default();
            for part in &parts {
                if let Some(atom) = Atom::from_pred(part) {
                    let s = atom.solution();
                    match per_col.get(&atom.col) {
                        None => {
                            per_col.insert(atom.col, s);
                        }
                        Some(prev) => match prev.intersect(&s) {
                            Some(merged) => {
                                per_col.insert(atom.col, merged);
                            }
                            None => return false, // unknown
                        },
                    }
                }
            }
            per_col.values().any(IntSet::is_empty)
        }
    }
}

fn pred_contains_unsat_or(p: &Predicate) -> bool {
    matches!(p, Predicate::Or(_, _) | Predicate::Not(_))
}

/// Drop conjuncts of `p` implied by the remaining ones (redundant-conjunct
/// pruning — the step that turns `A>30 ∧ A≥60` into `A≥60`).
pub fn prune_conjuncts(p: &Predicate) -> Predicate {
    let parts = conjuncts(p);
    if parts.len() <= 1 {
        return p.clone();
    }
    let mut kept: Vec<Predicate> = Vec::new();
    for cand in parts {
        // Skip cand if an already-kept conjunct implies it (including the
        // equal-conjunct case, where the first occurrence wins).
        if kept.iter().any(|k| conj_implies(k, &cand)) {
            continue;
        }
        // Drop kept conjuncts that cand strictly subsumes.
        kept.retain(|k| !conj_implies(&cand, k));
        kept.push(cand);
    }
    conjoin(kept)
}

/// Whether [`prune_conjuncts`] would return `p` unchanged, decided
/// without building anything: `p` has at most one conjunct, or it is the
/// left-deep chain `prune_conjuncts` rebuilds and no conjunct implies
/// another.
pub fn is_pruned(p: &Predicate) -> bool {
    let mut seen = 0;
    let several = any_conjunct(p, &mut |_| {
        seen += 1;
        seen > 1
    });
    if !several {
        return true;
    }
    // The conjuncts hanging off the left spine of `And`s, last first.
    let chain = std::iter::successors(Some(p), |q| match q {
        Predicate::And(l, _) => Some(&**l),
        _ => None,
    })
    .map(|q| match q {
        Predicate::And(_, r) => &**r,
        leaf => leaf,
    });
    if chain
        .clone()
        .any(|c| matches!(c, Predicate::And(..) | Predicate::True))
    {
        return false;
    }
    chain.clone().enumerate().all(|(i, a)| {
        chain
            .clone()
            .skip(i + 1)
            .all(|b| !conj_implies(a, b) && !conj_implies(b, a))
    })
}

fn conj_implies(a: &Predicate, b: &Predicate) -> bool {
    a == b
        || match (Atom::from_pred(a), Atom::from_pred(b)) {
            (Some(a), Some(b)) => atom_implies(&a, &b),
            _ => false,
        }
}

/// Whether [`fold_pred`] would return `p` unchanged, decided without
/// building anything: no const-vs-const comparison, no negation, and no
/// `True`/`False` under a connective.
pub fn is_folded(p: &Predicate) -> bool {
    match p {
        Predicate::Cmp(ScalarExpr::Const(_), _, ScalarExpr::Const(_)) | Predicate::Not(_) => false,
        Predicate::And(a, b) | Predicate::Or(a, b) => {
            let settled =
                |x: &Predicate| !matches!(x, Predicate::True | Predicate::False) && is_folded(x);
            settled(a) && settled(b)
        }
        _ => true,
    }
}

/// Constant-fold a predicate: evaluate const-vs-const comparisons,
/// eliminate `True`/`False` in connectives, push double negations.
pub fn fold_pred(p: &Predicate) -> Predicate {
    match p {
        Predicate::Cmp(ScalarExpr::Const(a), op, ScalarExpr::Const(b)) => {
            if op.apply(a, b) {
                Predicate::True
            } else {
                Predicate::False
            }
        }
        Predicate::And(a, b) => match (fold_pred(a), fold_pred(b)) {
            (Predicate::False, _) | (_, Predicate::False) => Predicate::False,
            (Predicate::True, x) | (x, Predicate::True) => x,
            (x, y) => x.and(y),
        },
        Predicate::Or(a, b) => match (fold_pred(a), fold_pred(b)) {
            (Predicate::True, _) | (_, Predicate::True) => Predicate::True,
            (Predicate::False, x) | (x, Predicate::False) => x,
            (x, y) => x.or(y),
        },
        Predicate::Not(a) => fold_pred(&a.negated()),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom(col: usize, op: CmpOp, v: i64) -> Predicate {
        Predicate::col_cmp(col, op, v)
    }

    #[test]
    fn paper_implication_ge60_implies_gt30() {
        let a = Atom::from_pred(&atom(0, CmpOp::Ge, 60)).unwrap();
        let b = Atom::from_pred(&atom(0, CmpOp::Gt, 30)).unwrap();
        assert!(atom_implies(&a, &b));
        assert!(!atom_implies(&b, &a));
    }

    #[test]
    fn implication_table() {
        use CmpOp::*;
        let cases = [
            ((Eq, 5), (Le, 5), true),
            ((Eq, 5), (Lt, 5), false),
            ((Eq, 5), (Ne, 6), true),
            ((Eq, 5), (Ne, 5), false),
            ((Gt, 10), (Ge, 10), true),
            ((Ge, 10), (Gt, 10), false),
            ((Gt, 10), (Ge, 11), true),
            ((Lt, 0), (Le, 0), true),
            ((Lt, 0), (Ne, 0), true),
            ((Le, 4), (Lt, 5), true),
            ((Ne, 3), (Ne, 3), true),
            ((Ne, 3), (Le, 9), false),
        ];
        for ((op1, v1), (op2, v2), expect) in cases {
            let a = Atom {
                col: 0,
                op: op1,
                value: v1,
            };
            let b = Atom {
                col: 0,
                op: op2,
                value: v2,
            };
            assert_eq!(atom_implies(&a, &b), expect, "{op1:?} {v1} => {op2:?} {v2}");
        }
    }

    #[test]
    fn different_columns_never_imply() {
        let a = Atom {
            col: 0,
            op: CmpOp::Eq,
            value: 1,
        };
        let b = Atom {
            col: 1,
            op: CmpOp::Ge,
            value: 0,
        };
        assert!(!atom_implies(&a, &b));
    }

    #[test]
    fn flipped_atoms_are_normalized() {
        // 60 <= col0 is col0 >= 60.
        let p = Predicate::Cmp(
            ScalarExpr::Const(Value::int(60)),
            CmpOp::Le,
            ScalarExpr::Col(0),
        );
        let a = Atom::from_pred(&p).unwrap();
        assert_eq!(a.op, CmpOp::Ge);
        assert_eq!(a.value, 60);
    }

    #[test]
    fn paper_unsat_ge60_and_lt60() {
        let p = atom(0, CmpOp::Ge, 60).and(atom(0, CmpOp::Lt, 60));
        assert!(pred_unsat(&p));
        let q = atom(0, CmpOp::Ge, 60).and(atom(0, CmpOp::Le, 60));
        assert!(!pred_unsat(&q)); // exactly 60 satisfies it
        let r = atom(0, CmpOp::Eq, 5).and(atom(0, CmpOp::Ne, 5));
        assert!(pred_unsat(&r));
        // Different columns don't clash.
        let s = atom(0, CmpOp::Ge, 60).and(atom(1, CmpOp::Lt, 60));
        assert!(!pred_unsat(&s));
    }

    #[test]
    fn unsat_is_conservative_on_unknown_shapes() {
        let p = Predicate::col_col(0, CmpOp::Lt, 0); // actually unsat, but col-col
        assert!(!pred_unsat(&p)); // conservative "don't know"
        assert!(pred_unsat(&Predicate::False));
        assert!(pred_unsat(&Predicate::False.or(Predicate::False)));
        assert!(!pred_unsat(&Predicate::False.or(Predicate::True)));
    }

    #[test]
    fn pred_implies_conjunction_fragment() {
        let p = atom(0, CmpOp::Ge, 60).and(atom(1, CmpOp::Eq, 3));
        let q = atom(0, CmpOp::Gt, 30);
        assert!(pred_implies(&p, &q));
        assert!(pred_implies(&p, &Predicate::True));
        assert!(pred_implies(&Predicate::False, &q));
        assert!(!pred_implies(&q, &p));
    }

    #[test]
    fn prune_removes_implied_conjunct() {
        // A>30 ∧ A≥60 → A≥60 (the Example 2.1(b) simplification).
        let p = atom(0, CmpOp::Gt, 30).and(atom(0, CmpOp::Ge, 60));
        assert_eq!(prune_conjuncts(&p), atom(0, CmpOp::Ge, 60));
        // Order-independent.
        let p = atom(0, CmpOp::Ge, 60).and(atom(0, CmpOp::Gt, 30));
        assert_eq!(prune_conjuncts(&p), atom(0, CmpOp::Ge, 60));
        // Non-overlapping conjuncts are kept.
        let p = atom(0, CmpOp::Ge, 60).and(atom(1, CmpOp::Lt, 5));
        assert_eq!(prune_conjuncts(&p), p);
    }

    #[test]
    fn prune_keeps_one_of_equal_conjuncts() {
        let a = atom(0, CmpOp::Ge, 60);
        let p = a.clone().and(a.clone());
        assert_eq!(prune_conjuncts(&p), a);
    }

    #[test]
    fn fold_pred_constants() {
        let p = Predicate::Cmp(
            ScalarExpr::Const(Value::int(3)),
            CmpOp::Lt,
            ScalarExpr::Const(Value::int(5)),
        );
        assert_eq!(fold_pred(&p), Predicate::True);
        let q = fold_pred(&p.clone().and(atom(0, CmpOp::Eq, 1)));
        assert_eq!(q, atom(0, CmpOp::Eq, 1));
        assert_eq!(
            fold_pred(&Predicate::True.or(atom(0, CmpOp::Eq, 1))),
            Predicate::True
        );
        assert_eq!(
            fold_pred(&atom(0, CmpOp::Lt, 60).not()),
            atom(0, CmpOp::Ge, 60)
        );
    }

    #[test]
    fn extreme_values_do_not_overflow() {
        let a = Atom {
            col: 0,
            op: CmpOp::Gt,
            value: i64::MAX,
        };
        let b = Atom {
            col: 0,
            op: CmpOp::Lt,
            value: i64::MIN,
        };
        // x > i64::MAX has solutions in i128 space (we model mathematical
        // integers), so it is not unsat per se; just check no panic and
        // sane subset behavior.
        assert!(!atom_implies(&a, &b));
        assert!(atom_implies(
            &a,
            &Atom {
                col: 0,
                op: CmpOp::Ge,
                value: i64::MAX
            }
        ));
    }
}
