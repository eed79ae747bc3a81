//! Bag-semantics evaluation — the §6 extension, executable.
//!
//! §6 claims the framework "extends to query languages that include bags";
//! the reason is that the substitution calculus (`sub`, `slice`, `red`,
//! the EQUIV_when conversions) is purely *syntactic*: Lemmas 3.5/3.9 and
//! Theorem 4.1 only need the semantics to interpret each operator
//! pointwise over relation values, which bag semantics does. This module
//! provides that interpretation; `tests/bag_semantics.rs` property-tests
//! Theorem 4.1 under it.
//!
//! Note the asymmetry with the set path: `red` transfers, but the
//! set-semantics RA *optimizer* does not (`X ∪ X ≡ X` fails in bags) and
//! is never used here.
//!
//! One genuine limit — found by the property tests and matching the
//! paper's §6 caveat that "for some extensions to the update language,
//! Q when U is expressible in RA, but not as a substitution instance" —
//! is the **conditional update**: its slice encodes the guard as the
//! 0-ary projection `π∅(G)`, which under bag semantics carries
//! multiplicity `|G|` rather than 1, so products against it inflate
//! multiplicities. Reduction of conditionals is therefore sound for sets
//! only; the bag property tests quantify over Cond-free updates, and
//! direct bag evaluation of conditionals (this module) remains correct.

use std::collections::{BTreeMap, HashMap};

use hypoquery_storage::{BagRelation, Catalog, RelName, Tuple, Value};

use hypoquery_algebra::{AggExpr, ExplicitSubst, Predicate, Query, StateExpr, Update};

use crate::aggregate::sum_value;
use crate::error::EvalError;
use crate::join::split_equi_pairs;

/// A database state under bag semantics.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BagState {
    catalog: Catalog,
    rels: BTreeMap<RelName, BagRelation>,
}

impl BagState {
    /// The all-empty state over a catalog.
    pub fn new(catalog: Catalog) -> Self {
        BagState {
            catalog,
            rels: BTreeMap::new(),
        }
    }

    /// Build from a set-semantics state (multiplicity 1 everywhere).
    pub fn from_set(db: &hypoquery_storage::DatabaseState) -> Self {
        let mut out = BagState::new(db.catalog().clone());
        for (name, rel) in db.iter() {
            out.rels.insert(name.clone(), BagRelation::from_set(rel));
        }
        out
    }

    /// The schema.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Read `DB(R)`.
    pub fn get(&self, name: &RelName) -> Result<BagRelation, EvalError> {
        let arity = self.catalog.arity(name).map_err(EvalError::Storage)?;
        Ok(self
            .rels
            .get(name)
            .cloned()
            .unwrap_or_else(|| BagRelation::empty(arity)))
    }

    /// Functional binding update.
    pub fn set(&mut self, name: impl Into<RelName>, value: BagRelation) -> Result<(), EvalError> {
        let name = name.into();
        let arity = self.catalog.arity(&name).map_err(EvalError::Storage)?;
        if value.arity() != arity {
            return Err(EvalError::Storage(
                hypoquery_storage::StorageError::ArityMismatch {
                    context: "bag state binding",
                    expected: arity,
                    found: value.arity(),
                },
            ));
        }
        if value.is_empty() {
            // Canonical form, as for set-semantics states: absent and
            // stored-empty are the same function.
            self.rels.remove(&name);
        } else {
            self.rels.insert(name, value);
        }
        Ok(())
    }

    /// Load `count` copies of a row.
    pub fn insert_row(
        &mut self,
        name: impl Into<RelName>,
        row: Tuple,
        count: u64,
    ) -> Result<(), EvalError> {
        let name = name.into();
        let arity = self.catalog.arity(&name).map_err(EvalError::Storage)?;
        let bag = self
            .rels
            .entry(name)
            .or_insert_with(|| BagRelation::empty(arity));
        bag.insert(row, count).map_err(EvalError::Storage)
    }
}

/// `[[Q]]` under bag semantics.
pub fn eval_bag_query(q: &Query, db: &BagState) -> Result<BagRelation, EvalError> {
    match q {
        Query::Base(name) => db.get(name),
        Query::Singleton(t) => Ok(BagRelation::singleton(t.clone())),
        Query::Empty { arity } => Ok(BagRelation::empty(*arity)),
        Query::Select(inner, p) => Ok(eval_bag_query(inner, db)?.select(|t| p.eval(t))),
        Query::Project(inner, cols) => Ok(eval_bag_query(inner, db)?
            .project(cols)
            .map_err(EvalError::Storage)?),
        Query::Union(a, b) => Ok(eval_bag_query(a, db)?
            .union(&eval_bag_query(b, db)?)
            .map_err(EvalError::Storage)?),
        Query::Intersect(a, b) => Ok(eval_bag_query(a, db)?
            .intersect(&eval_bag_query(b, db)?)
            .map_err(EvalError::Storage)?),
        Query::Diff(a, b) => Ok(eval_bag_query(a, db)?
            .difference(&eval_bag_query(b, db)?)
            .map_err(EvalError::Storage)?),
        Query::Product(a, b) => Ok(eval_bag_query(a, db)?.product(&eval_bag_query(b, db)?)),
        Query::Join(a, b, p) => {
            let (va, vb) = (eval_bag_query(a, db)?, eval_bag_query(b, db)?);
            bag_join(&va, &vb, p).map_err(EvalError::Storage)
        }
        Query::When(inner, eta) => {
            let hyp = eval_bag_state(eta, db)?;
            eval_bag_query(inner, &hyp)
        }
        Query::Aggregate {
            input,
            group_by,
            aggs,
        } => eval_bag_aggregate(&eval_bag_query(input, db)?, group_by, aggs),
    }
}

/// `[[U]]` under bag semantics: `ins` adds multiplicities, `del` is monus.
pub fn eval_bag_update(u: &Update, db: &BagState) -> Result<BagState, EvalError> {
    match u {
        Update::Insert(name, q) => {
            let v = eval_bag_query(q, db)?;
            let cur = db.get(name)?;
            let mut out = db.clone();
            out.set(name.clone(), cur.union(&v).map_err(EvalError::Storage)?)?;
            Ok(out)
        }
        Update::Delete(name, q) => {
            let v = eval_bag_query(q, db)?;
            let cur = db.get(name)?;
            let mut out = db.clone();
            out.set(
                name.clone(),
                cur.difference(&v).map_err(EvalError::Storage)?,
            )?;
            Ok(out)
        }
        Update::Seq(a, b) => eval_bag_update(b, &eval_bag_update(a, db)?),
        Update::Cond {
            guard,
            then_u,
            else_u,
        } => {
            if eval_bag_query(guard, db)?.is_empty() {
                eval_bag_update(else_u, db)
            } else {
                eval_bag_update(then_u, db)
            }
        }
    }
}

/// `[[η]]` under bag semantics.
pub fn eval_bag_state(eta: &StateExpr, db: &BagState) -> Result<BagState, EvalError> {
    match eta {
        StateExpr::Update(u) => eval_bag_update(u, db),
        StateExpr::Subst(eps) => apply_bag_subst(db, eps),
        StateExpr::Compose(a, b) => eval_bag_state(b, &eval_bag_state(a, db)?),
    }
}

/// `apply(DB, ρ)` under bag semantics (parallel binding evaluation).
pub fn apply_bag_subst(db: &BagState, eps: &ExplicitSubst) -> Result<BagState, EvalError> {
    let mut values = Vec::with_capacity(eps.len());
    for (name, q) in eps.iter() {
        values.push((name.clone(), eval_bag_query(q, db)?));
    }
    let mut out = db.clone();
    for (name, v) in values {
        out.set(name, v)?;
    }
    Ok(out)
}

/// Bag equi-join: `σ_p(Q₁ × Q₂)` semantics, executed as a hash join on the
/// conjunctive equality core of `p` (as [`crate::join`] does for sets).
/// Output multiplicity is the product of the operand multiplicities; the
/// residual predicate filters candidate pairs. When no equality core
/// exists the evaluation falls back to the literal product-then-select.
fn bag_join(
    left: &BagRelation,
    right: &BagRelation,
    p: &Predicate,
) -> Result<BagRelation, hypoquery_storage::StorageError> {
    let (pairs, residual) = split_equi_pairs(p, left.arity());
    if pairs.is_empty() {
        return Ok(left.product(right).select(|t| p.eval(t)));
    }
    let mut table: HashMap<Vec<Value>, Vec<(&Tuple, u64)>> = HashMap::new();
    for (r, m) in right.iter() {
        let key: Vec<Value> = pairs.iter().map(|pr| r[pr.right].clone()).collect();
        table.entry(key).or_default().push((r, m));
    }
    let mut out = BagRelation::empty(left.arity() + right.arity());
    for (l, ml) in left.iter() {
        let key: Vec<Value> = pairs.iter().map(|pr| l[pr.left].clone()).collect();
        if let Some(matches) = table.get(&key) {
            for (r, mr) in matches {
                let joined = l.concat(r);
                if residual.iter().all(|q| q.eval(&joined)) {
                    out.insert(joined, ml * mr)?;
                }
            }
        }
    }
    Ok(out)
}

fn eval_bag_aggregate(
    input: &BagRelation,
    group_by: &[usize],
    aggs: &[AggExpr],
) -> Result<BagRelation, EvalError> {
    // Group respecting multiplicities: a tuple with multiplicity m counts
    // m times.
    let mut groups: BTreeMap<Tuple, Vec<(&Tuple, u64)>> = BTreeMap::new();
    for (t, m) in input.iter() {
        groups.entry(t.project(group_by)).or_default().push((t, m));
    }
    let mut out = BagRelation::empty(group_by.len() + aggs.len());
    for (key, members) in groups {
        let mut fields: Vec<Value> = key.fields().to_vec();
        for agg in aggs {
            fields.push(match agg {
                AggExpr::Count => Value::int(members.iter().map(|(_, m)| *m as i64).sum()),
                AggExpr::Sum(col) => {
                    // Exact in `i128` (|v × m| < 2¹²⁷); the `i64` range is
                    // checked once, on the total.
                    let mut total = 0i128;
                    for (t, m) in &members {
                        let Some(v) = t[*col].as_int() else {
                            return Err(EvalError::AggregateType {
                                agg: "sum",
                                value: t[*col].to_string(),
                            });
                        };
                        total = total
                            .checked_add(i128::from(v) * i128::from(*m))
                            .ok_or(EvalError::AggregateOverflow { agg: "sum" })?;
                    }
                    sum_value(total)?
                }
                AggExpr::Min(col) => members
                    .iter()
                    .map(|(t, _)| t[*col].clone())
                    .min()
                    .expect("groups are non-empty"),
                AggExpr::Max(col) => members
                    .iter()
                    .map(|(t, _)| t[*col].clone())
                    .max()
                    .expect("groups are non-empty"),
            });
        }
        out.insert(Tuple::new(fields), 1)
            .map_err(EvalError::Storage)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypoquery_algebra::{CmpOp, Predicate};
    use hypoquery_storage::tuple;

    fn db() -> BagState {
        let mut cat = Catalog::new();
        cat.declare_arity("R", 1).unwrap();
        cat.declare_arity("S", 1).unwrap();
        let mut db = BagState::new(cat);
        db.insert_row("R", tuple![1], 2).unwrap();
        db.insert_row("R", tuple![2], 1).unwrap();
        db.insert_row("S", tuple![1], 1).unwrap();
        db
    }

    #[test]
    fn union_when_keeps_duplicates() {
        let db = db();
        // R when {ins(R, S)}: tuple (1) now has multiplicity 3.
        let q = Query::base("R").when(StateExpr::update(Update::insert("R", Query::base("S"))));
        let out = eval_bag_query(&q, &db).unwrap();
        assert_eq!(out.multiplicity(&tuple![1]), 3);
        assert_eq!(out.len(), 4);
        // Underlying state unchanged.
        assert_eq!(db.get(&"R".into()).unwrap().len(), 3);
    }

    #[test]
    fn delete_is_monus() {
        let db = db();
        // del(R, S) removes ONE copy of (1).
        let q = Query::base("R").when(StateExpr::update(Update::delete("R", Query::base("S"))));
        let out = eval_bag_query(&q, &db).unwrap();
        assert_eq!(out.multiplicity(&tuple![1]), 1);
        assert_eq!(out.multiplicity(&tuple![2]), 1);
    }

    #[test]
    fn theorem_4_1_holds_in_bags_on_example() {
        // red(Q when {U}) evaluated in bag semantics equals the direct
        // bag evaluation — the §6 extension claim, concretely.
        let db = db();
        let u = Update::insert("R", Query::base("S")).then(Update::delete("R", Query::base("S")));
        let q = Query::base("R")
            .union(Query::base("R"))
            .when(StateExpr::update(u));
        let direct = eval_bag_query(&q, &db).unwrap();
        let reduced = hypoquery_core::red_query(&q).unwrap();
        let lazy = eval_bag_query(&reduced, &db).unwrap();
        assert_eq!(direct, lazy);
        // And duplicates really are present (R∪R doubles multiplicities).
        assert_eq!(direct.multiplicity(&tuple![2]), 2);
    }

    #[test]
    fn bag_aggregates_count_multiplicity() {
        let db = db();
        let q = Query::base("R").aggregate([], [AggExpr::Count, AggExpr::Sum(0)]);
        let out = eval_bag_query(&q, &db).unwrap();
        // count = 3 (2 copies of 1 + 1 copy of 2); sum = 1+1+2 = 4.
        assert_eq!(out.multiplicity(&tuple![3, 4]), 1);
    }

    #[test]
    fn bag_sum_overflow_is_an_error() {
        let mut cat = Catalog::new();
        cat.declare_arity("R", 2).unwrap();
        let sum = Query::base("R").aggregate([], [AggExpr::Sum(1)]);
        // Overflow across rows, and within one row's multiplicity.
        let mut db = BagState::new(cat.clone());
        db.insert_row("R", tuple![1, i64::MAX], 1).unwrap();
        db.insert_row("R", tuple![2, 1], 1).unwrap();
        let mut dup = BagState::new(cat);
        dup.insert_row("R", tuple![1, i64::MAX / 2 + 1], 2).unwrap();
        for db in [db, dup] {
            assert_eq!(
                eval_bag_query(&sum, &db),
                Err(EvalError::AggregateOverflow { agg: "sum" })
            );
        }
    }

    #[test]
    fn select_and_project_semantics() {
        let db = db();
        let q = Query::base("R").select(Predicate::col_cmp(0, CmpOp::Eq, 1));
        assert_eq!(eval_bag_query(&q, &db).unwrap().len(), 2);
        // Projection keeps duplicates.
        let mut cat = Catalog::new();
        cat.declare_arity("T", 2).unwrap();
        let mut db2 = BagState::new(cat);
        db2.insert_row("T", tuple![1, 10], 1).unwrap();
        db2.insert_row("T", tuple![1, 20], 1).unwrap();
        let q = Query::base("T").project([0]);
        assert_eq!(
            eval_bag_query(&q, &db2).unwrap().multiplicity(&tuple![1]),
            2
        );
    }

    #[test]
    fn bag_join_equals_product_then_select() {
        let mut cat = Catalog::new();
        cat.declare_arity("T", 2).unwrap();
        cat.declare_arity("U", 2).unwrap();
        let mut db = BagState::new(cat);
        db.insert_row("T", tuple![1, 10], 2).unwrap();
        db.insert_row("T", tuple![2, 20], 1).unwrap();
        db.insert_row("T", tuple![3, 99], 1).unwrap();
        db.insert_row("U", tuple![1, 100], 3).unwrap();
        db.insert_row("U", tuple![2, 200], 2).unwrap();
        let p = Predicate::col_col(0, CmpOp::Eq, 2).and(Predicate::col_cmp(1, CmpOp::Lt, 50));
        let joined =
            eval_bag_query(&Query::base("T").join(Query::base("U"), p.clone()), &db).unwrap();
        let product =
            eval_bag_query(&Query::base("T").product(Query::base("U")).select(p), &db).unwrap();
        assert_eq!(joined, product);
        // Multiplicities multiply: 2 copies of (1,10) × 3 copies of (1,100).
        assert_eq!(joined.multiplicity(&tuple![1, 10, 1, 100]), 6);
        assert_eq!(joined.multiplicity(&tuple![2, 20, 2, 200]), 2);
        assert_eq!(joined.len(), 8);
    }

    #[test]
    fn from_set_round_trip() {
        let mut cat = Catalog::new();
        cat.declare_arity("R", 1).unwrap();
        let mut set_db = hypoquery_storage::DatabaseState::new(cat);
        set_db.insert_row("R", tuple![5]).unwrap();
        let bag_db = BagState::from_set(&set_db);
        assert_eq!(bag_db.get(&"R".into()).unwrap().multiplicity(&tuple![5]), 1);
        assert_eq!(bag_db.catalog().len(), 1);
    }
}
