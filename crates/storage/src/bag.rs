//! Bag (multiset) relations — the §6 extension's data model.
//!
//! §6: "the framework extends to query languages that include bags and
//! aggregation." A [`BagRelation`] maps tuples to multiplicities; the
//! operators follow the standard bag semantics:
//!
//! * union is additive (`m₁ + m₂`),
//! * difference is monus (`max(m₁ − m₂, 0)`),
//! * intersection is `min(m₁, m₂)`,
//! * product multiplies multiplicities,
//! * projection does **not** deduplicate.
//!
//! The substitution calculus (`sub`, `slice`, `red`) is purely syntactic,
//! so it transfers to bag semantics unchanged — which
//! `hypoquery-eval::bag` property-tests. The set-semantics RA *optimizer*
//! does NOT transfer (e.g. `X ∪ X ≡ X` fails in bags) and is never
//! applied on the bag path.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::error::StorageError;
use crate::relation::Relation;
use crate::tuple::Tuple;

/// A multiset of same-arity tuples.
///
/// Like [`Relation`], multiplicity storage is `Arc`-shared copy-on-write:
/// clones are O(1) and the first mutation of a shared bag copies the map.
#[derive(Clone, Eq, Debug)]
pub struct BagRelation {
    arity: usize,
    tuples: Arc<BTreeMap<Tuple, u64>>,
}

impl PartialEq for BagRelation {
    fn eq(&self, other: &Self) -> bool {
        self.arity == other.arity
            && (Arc::ptr_eq(&self.tuples, &other.tuples) || self.tuples == other.tuples)
    }
}

impl BagRelation {
    /// The empty bag of the given arity.
    pub fn empty(arity: usize) -> Self {
        BagRelation {
            arity,
            tuples: Arc::new(BTreeMap::new()),
        }
    }

    /// Whether `self` and `other` physically share one multiplicity map.
    pub fn ptr_eq(&self, other: &BagRelation) -> bool {
        self.arity == other.arity && Arc::ptr_eq(&self.tuples, &other.tuples)
    }

    fn from_map(arity: usize, tuples: BTreeMap<Tuple, u64>) -> Self {
        BagRelation {
            arity,
            tuples: Arc::new(tuples),
        }
    }

    /// A single tuple with multiplicity 1.
    pub fn singleton(t: Tuple) -> Self {
        let arity = t.arity();
        let mut tuples = BTreeMap::new();
        tuples.insert(t, 1);
        BagRelation::from_map(arity, tuples)
    }

    /// Convert a set relation into a bag (all multiplicities 1).
    pub fn from_set(rel: &Relation) -> Self {
        BagRelation::from_map(rel.arity(), rel.iter().map(|t| (t.clone(), 1)).collect())
    }

    /// The supporting set (distinct tuples).
    pub fn to_set(&self) -> Relation {
        Relation::from_rows(self.arity, self.tuples.keys().cloned())
            .expect("a bag's rows share its arity")
    }

    /// This bag's arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Total multiplicity (bag cardinality).
    pub fn len(&self) -> u64 {
        self.tuples.values().sum()
    }

    /// Whether the bag has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Multiplicity of `t` (0 if absent).
    pub fn multiplicity(&self, t: &Tuple) -> u64 {
        self.tuples.get(t).copied().unwrap_or(0)
    }

    /// Add `count` copies of `t`.
    pub fn insert(&mut self, t: Tuple, count: u64) -> Result<(), StorageError> {
        if t.arity() != self.arity {
            return Err(StorageError::ArityMismatch {
                context: "bag insert",
                expected: self.arity,
                found: t.arity(),
            });
        }
        if count > 0 {
            *Arc::make_mut(&mut self.tuples).entry(t).or_insert(0) += count;
        }
        Ok(())
    }

    /// Iterate distinct tuples with multiplicities.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, u64)> {
        self.tuples.iter().map(|(t, m)| (t, *m))
    }

    fn check_same_arity(
        &self,
        other: &BagRelation,
        context: &'static str,
    ) -> Result<(), StorageError> {
        if self.arity != other.arity {
            return Err(StorageError::ArityMismatch {
                context,
                expected: self.arity,
                found: other.arity,
            });
        }
        Ok(())
    }

    /// Additive bag union.
    ///
    /// Union with an empty bag returns the other operand as a
    /// shared-storage clone.
    pub fn union(&self, other: &BagRelation) -> Result<BagRelation, StorageError> {
        self.check_same_arity(other, "bag union")?;
        if other.is_empty() {
            return Ok(self.clone());
        }
        if self.is_empty() {
            return Ok(other.clone());
        }
        let mut tuples = (*self.tuples).clone();
        for (t, m) in other.tuples.iter() {
            *tuples.entry(t.clone()).or_insert(0) += m;
        }
        Ok(BagRelation::from_map(self.arity, tuples))
    }

    /// Bag difference (monus).
    pub fn difference(&self, other: &BagRelation) -> Result<BagRelation, StorageError> {
        self.check_same_arity(other, "bag difference")?;
        if other.is_empty() {
            return Ok(self.clone());
        }
        let mut tuples = BTreeMap::new();
        for (t, m) in self.tuples.iter() {
            let rem = m.saturating_sub(other.multiplicity(t));
            if rem > 0 {
                tuples.insert(t.clone(), rem);
            }
        }
        Ok(BagRelation::from_map(self.arity, tuples))
    }

    /// Bag intersection (min of multiplicities).
    pub fn intersect(&self, other: &BagRelation) -> Result<BagRelation, StorageError> {
        self.check_same_arity(other, "bag intersection")?;
        if Arc::ptr_eq(&self.tuples, &other.tuples) {
            return Ok(self.clone());
        }
        let mut tuples = BTreeMap::new();
        for (t, m) in self.tuples.iter() {
            let k = (*m).min(other.multiplicity(t));
            if k > 0 {
                tuples.insert(t.clone(), k);
            }
        }
        Ok(BagRelation::from_map(self.arity, tuples))
    }

    /// Bag cartesian product (multiplicities multiply).
    pub fn product(&self, other: &BagRelation) -> BagRelation {
        let mut tuples = BTreeMap::new();
        for (a, m) in self.tuples.iter() {
            for (b, n) in other.tuples.iter() {
                tuples.insert(a.concat(b), m * n);
            }
        }
        BagRelation::from_map(self.arity + other.arity, tuples)
    }

    /// Selection (keeps multiplicities).
    pub fn select(&self, mut pred: impl FnMut(&Tuple) -> bool) -> BagRelation {
        BagRelation::from_map(
            self.arity,
            self.tuples
                .iter()
                .filter(|(t, _)| pred(t))
                .map(|(t, m)| (t.clone(), *m))
                .collect(),
        )
    }

    /// Projection **without** deduplication: multiplicities of colliding
    /// projected tuples add up.
    pub fn project(&self, cols: &[usize]) -> Result<BagRelation, StorageError> {
        if let Some(&bad) = cols.iter().find(|&&c| c >= self.arity) {
            return Err(StorageError::ArityMismatch {
                context: "bag projection column out of range",
                expected: self.arity,
                found: bad,
            });
        }
        let mut tuples: BTreeMap<Tuple, u64> = BTreeMap::new();
        for (t, m) in self.tuples.iter() {
            *tuples.entry(t.project(cols)).or_insert(0) += m;
        }
        Ok(BagRelation::from_map(cols.len(), tuples))
    }
}

impl fmt::Display for BagRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{|")?;
        for (i, (t, m)) in self.tuples.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if *m == 1 {
                write!(f, "{t}")?;
            } else {
                write!(f, "{t}×{m}")?;
            }
        }
        write!(f, "|}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn bag(rows: &[(i64, u64)]) -> BagRelation {
        let mut b = BagRelation::empty(1);
        for &(v, m) in rows {
            b.insert(tuple![v], m).unwrap();
        }
        b
    }

    #[test]
    fn union_is_additive() {
        let a = bag(&[(1, 2), (2, 1)]);
        let b = bag(&[(1, 3), (3, 1)]);
        let u = a.union(&b).unwrap();
        assert_eq!(u.multiplicity(&tuple![1]), 5);
        assert_eq!(u.multiplicity(&tuple![2]), 1);
        assert_eq!(u.multiplicity(&tuple![3]), 1);
        assert_eq!(u.len(), 7);
    }

    #[test]
    fn difference_is_monus() {
        let a = bag(&[(1, 3), (2, 1)]);
        let b = bag(&[(1, 5), (2, 1)]);
        let d = a.difference(&b).unwrap();
        assert!(d.is_empty());
        let d = b.difference(&a).unwrap();
        assert_eq!(d.multiplicity(&tuple![1]), 2);
        assert_eq!(d.multiplicity(&tuple![2]), 0);
    }

    #[test]
    fn intersection_is_min() {
        let a = bag(&[(1, 3), (2, 2)]);
        let b = bag(&[(1, 1), (3, 9)]);
        let i = a.intersect(&b).unwrap();
        assert_eq!(i.multiplicity(&tuple![1]), 1);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn product_multiplies() {
        let a = bag(&[(1, 2)]);
        let b = bag(&[(9, 3)]);
        let p = a.product(&b);
        assert_eq!(p.multiplicity(&tuple![1, 9]), 6);
        assert_eq!(p.arity(), 2);
    }

    #[test]
    fn project_accumulates() {
        let mut b = BagRelation::empty(2);
        b.insert(tuple![1, 10], 2).unwrap();
        b.insert(tuple![1, 20], 3).unwrap();
        let p = b.project(&[0]).unwrap();
        assert_eq!(p.multiplicity(&tuple![1]), 5);
        assert!(b.project(&[7]).is_err());
    }

    #[test]
    fn set_conversions() {
        let b = bag(&[(1, 3), (2, 1)]);
        let s = b.to_set();
        assert_eq!(s.len(), 2);
        let b2 = BagRelation::from_set(&s);
        assert_eq!(b2.len(), 2);
        assert_eq!(b2.multiplicity(&tuple![1]), 1);
    }

    #[test]
    fn union_not_idempotent() {
        // The rewrite-rule divergence from set semantics, as a fact.
        let a = bag(&[(1, 1)]);
        assert_ne!(a.union(&a).unwrap(), a);
    }

    #[test]
    fn arity_checks() {
        let a = BagRelation::empty(1);
        let b = BagRelation::empty(2);
        assert!(a.union(&b).is_err());
        assert!(a.difference(&b).is_err());
        assert!(a.intersect(&b).is_err());
        let mut a = a;
        assert!(a.insert(tuple![1, 2], 1).is_err());
    }

    #[test]
    fn display_shows_multiplicities() {
        let b = bag(&[(1, 1), (2, 3)]);
        assert_eq!(b.to_string(), "{|(1), (2)×3|}");
    }

    #[test]
    fn clone_shares_storage_until_write() {
        let a = bag(&[(1, 2), (2, 1)]);
        let mut b = a.clone();
        assert!(a.ptr_eq(&b));
        b.insert(tuple![3], 1).unwrap();
        assert!(!a.ptr_eq(&b));
        assert_eq!(a.multiplicity(&tuple![3]), 0);
        let e = BagRelation::empty(1);
        assert!(a.union(&e).unwrap().ptr_eq(&a));
        assert!(a.difference(&e).unwrap().ptr_eq(&a));
    }
}
