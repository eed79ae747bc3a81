//! Relations: finite sets of same-arity tuples.
//!
//! Set semantics, as in the paper. Backed by a `BTreeSet` so iteration is
//! deterministic and already sorted — the sort-merge `join_when` operator in
//! `hypoquery-eval` exploits this, and so does [`Relation::range`], which
//! walks only the tuples whose column 0 lies in a [`KeyRange`].
//!
//! Tuple storage is `Arc`-shared and copy-on-write: `clone()` is a pointer
//! bump, and the first mutation of a shared relation clones the underlying
//! set (`Arc::make_mut`). This is what makes hypothetical snapshots cheap —
//! the k states of a what-if tree or a prepared family all share the
//! untouched base relations physically.
//!
//! The shared allocation (`Store`) also carries the caches derived from
//! the tuples — built column indexes and per-column distinct counts — so
//! snapshots that share storage share those caches by construction.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::ops::Bound;
use std::sync::{Arc, Mutex, OnceLock};

use crate::error::StorageError;
use crate::index::ColumnIndex;
use crate::tuple::Tuple;
use crate::value::Value;

/// A relation: a set of tuples sharing one arity.
///
/// Cloning is O(1) (shared storage); mutating a clone copies the tuple set
/// first (copy-on-write), so clones are fully isolated from each other.
#[derive(Clone, Debug)]
pub struct Relation {
    arity: usize,
    store: Arc<Store>,
}

/// A relation's shared storage: the tuple set plus the caches derived
/// from it (see [`crate::index`]). The caches are only valid for these
/// exact tuples, so every mutation goes through `Relation::tuples_mut`,
/// which clears them, and a copy-on-write clone starts with none.
#[derive(Default)]
pub(crate) struct Store {
    pub(crate) tuples: BTreeSet<Tuple>,
    /// Built column indexes, keyed by column list.
    pub(crate) indexes: Mutex<HashMap<Vec<usize>, Arc<ColumnIndex>>>,
    /// Distinct-value count of every column, filled in one pass.
    pub(crate) distinct: OnceLock<Box<[usize]>>,
}

impl Clone for Store {
    fn clone(&self) -> Self {
        Store {
            tuples: self.tuples.clone(),
            ..Store::default()
        }
    }
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.tuples.fmt(f)
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.arity == other.arity
            && (Arc::ptr_eq(&self.store, &other.store) || self.tuples() == other.tuples())
    }
}

impl Eq for Relation {}

impl Relation {
    /// The empty relation of the given arity.
    pub fn empty(arity: usize) -> Self {
        Relation::from_set(arity, BTreeSet::new())
    }

    /// Whether `self` and `other` physically share one tuple store.
    ///
    /// `true` implies equality; the converse need not hold. This is the
    /// observable half of the copy-on-write contract: snapshots that have
    /// not diverged share storage, and tests assert on it.
    pub fn ptr_eq(&self, other: &Relation) -> bool {
        self.arity == other.arity && Arc::ptr_eq(&self.store, &other.store)
    }

    /// The shared storage, caches included.
    pub(crate) fn store(&self) -> &Store {
        &self.store
    }

    fn tuples(&self) -> &BTreeSet<Tuple> {
        &self.store.tuples
    }

    /// The one gate for mutating tuples: un-shares the storage
    /// (copy-on-write) and clears its caches. Clearing matters when this
    /// relation is the unique owner, because `make_mut` then mutates in
    /// place and the caches would otherwise describe the old tuples.
    fn tuples_mut(&mut self) -> &mut BTreeSet<Tuple> {
        let store = Arc::make_mut(&mut self.store);
        store
            .indexes
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        store.distinct.take();
        &mut store.tuples
    }

    fn from_set(arity: usize, tuples: BTreeSet<Tuple>) -> Self {
        Relation {
            arity,
            store: Arc::new(Store {
                tuples,
                ..Store::default()
            }),
        }
    }

    /// Build a relation from rows, checking that every row has `arity`.
    pub fn from_rows(
        arity: usize,
        rows: impl IntoIterator<Item = Tuple>,
    ) -> Result<Self, StorageError> {
        let mut tuples = BTreeSet::new();
        for row in rows {
            if row.arity() != arity {
                return Err(StorageError::ArityMismatch {
                    context: "relation insert",
                    expected: arity,
                    found: row.arity(),
                });
            }
            tuples.insert(row);
        }
        Ok(Relation::from_set(arity, tuples))
    }

    /// Wrap an already-built tuple set, checking that every row has
    /// `arity`. Unlike per-row [`Relation::insert`], this performs no
    /// membership pre-checks and no copy-on-write bookkeeping — it is the
    /// bulk constructor for operators that accumulate a result set and
    /// seal it once.
    pub fn from_tuple_set(arity: usize, tuples: BTreeSet<Tuple>) -> Result<Self, StorageError> {
        if let Some(t) = tuples.iter().find(|t| t.arity() != arity) {
            return Err(StorageError::ArityMismatch {
                context: "relation from set",
                expected: arity,
                found: t.arity(),
            });
        }
        Ok(Relation::from_set(arity, tuples))
    }

    /// Build a single-tuple relation (the paper's `{t}`).
    pub fn singleton(t: Tuple) -> Self {
        let arity = t.arity();
        let mut tuples = BTreeSet::new();
        tuples.insert(t);
        Relation::from_set(arity, tuples)
    }

    /// This relation's arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples().len()
    }

    /// Whether the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples().is_empty()
    }

    /// Whether `t` is a member.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.tuples().contains(t)
    }

    /// Insert a tuple; errors if its arity differs. Returns whether the
    /// tuple was newly inserted.
    pub fn insert(&mut self, t: Tuple) -> Result<bool, StorageError> {
        if t.arity() != self.arity {
            return Err(StorageError::ArityMismatch {
                context: "relation insert",
                expected: self.arity,
                found: t.arity(),
            });
        }
        if self.contains(&t) {
            // Duplicate insert: never un-share the storage for a no-op.
            return Ok(false);
        }
        Ok(self.tuples_mut().insert(t))
    }

    /// Remove a tuple; returns whether it was present.
    ///
    /// Copy-on-write note: a removal that misses still un-shares the
    /// storage only when the tuple is present — we check membership first
    /// so no-op removes never force a copy of a shared set.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        if !self.contains(t) {
            return false;
        }
        self.tuples_mut().remove(t)
    }

    /// Iterate tuples in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.tuples().iter()
    }

    /// Iterate, in sorted order, the tuples whose column 0 lies in `r`.
    ///
    /// Tuples sort on column 0 first, so this seeks to the lower bound's
    /// one-field prefix and stops at the first tuple past the upper bound:
    /// it touches only the rows it yields (plus, for an exclusive lower
    /// bound, the rows equal to it).
    pub fn range<'a>(&'a self, r: &'a KeyRange) -> impl Iterator<Item = &'a Tuple> + 'a {
        let start = match &r.lo {
            Bound::Included(v) | Bound::Excluded(v) => Bound::Included(Tuple::new([v.clone()])),
            Bound::Unbounded => Bound::Unbounded,
        };
        self.tuples()
            .range((start, Bound::Unbounded))
            .skip_while(move |t| !r.above_lo(t))
            .take_while(move |t| r.below_hi(t))
    }

    /// Set union. Errors on arity mismatch.
    ///
    /// When one operand is empty (or both share storage) the other is
    /// returned as a shared-storage clone — no tuples are copied.
    pub fn union(&self, other: &Relation) -> Result<Relation, StorageError> {
        self.check_same_arity(other, "union")?;
        if other.is_empty() || Arc::ptr_eq(&self.store, &other.store) {
            return Ok(self.clone());
        }
        if self.is_empty() {
            return Ok(other.clone());
        }
        let out: BTreeSet<Tuple> = self.tuples().union(other.tuples()).cloned().collect();
        // other ⊆ self (or vice versa): the union *is* one operand — hand
        // its storage back shared instead of keeping the fresh copy.
        if out.len() == self.tuples().len() {
            return Ok(self.clone());
        }
        if out.len() == other.tuples().len() {
            return Ok(other.clone());
        }
        Ok(Relation::from_set(self.arity, out))
    }

    /// Set intersection. Errors on arity mismatch.
    pub fn intersect(&self, other: &Relation) -> Result<Relation, StorageError> {
        self.check_same_arity(other, "intersection")?;
        if Arc::ptr_eq(&self.store, &other.store) {
            return Ok(self.clone());
        }
        let out: BTreeSet<Tuple> = self
            .tuples()
            .intersection(other.tuples())
            .cloned()
            .collect();
        if out.len() == self.tuples().len() {
            return Ok(self.clone());
        }
        if out.len() == other.tuples().len() {
            return Ok(other.clone());
        }
        Ok(Relation::from_set(self.arity, out))
    }

    /// Set difference (`self − other`). Errors on arity mismatch.
    ///
    /// Subtracting nothing returns `self` as a shared-storage clone.
    pub fn difference(&self, other: &Relation) -> Result<Relation, StorageError> {
        self.check_same_arity(other, "difference")?;
        if other.is_empty() {
            return Ok(self.clone());
        }
        if Arc::ptr_eq(&self.store, &other.store) {
            return Ok(Relation::empty(self.arity));
        }
        let out: BTreeSet<Tuple> = self.tuples().difference(other.tuples()).cloned().collect();
        // Disjoint subtrahend: nothing was removed — keep shared storage.
        if out.len() == self.tuples().len() {
            return Ok(self.clone());
        }
        Ok(Relation::from_set(self.arity, out))
    }

    /// Cartesian product: arity is the sum of operand arities.
    pub fn product(&self, other: &Relation) -> Relation {
        let mut tuples = BTreeSet::new();
        for a in self.tuples().iter() {
            for b in other.tuples().iter() {
                tuples.insert(a.concat(b));
            }
        }
        Relation::from_set(self.arity + other.arity, tuples)
    }

    /// Select: keep tuples satisfying `pred`.
    pub fn select(&self, mut pred: impl FnMut(&Tuple) -> bool) -> Relation {
        Relation::from_set(
            self.arity,
            self.store
                .tuples
                .iter()
                .filter(|t| pred(t))
                .cloned()
                .collect::<BTreeSet<_>>(),
        )
    }

    /// Project onto column positions. Errors if any position is out of range.
    pub fn project(&self, cols: &[usize]) -> Result<Relation, StorageError> {
        if let Some(&bad) = cols.iter().find(|&&c| c >= self.arity) {
            return Err(StorageError::ArityMismatch {
                context: "projection column out of range",
                expected: self.arity,
                found: bad,
            });
        }
        Ok(Relation::from_set(
            cols.len(),
            self.tuples().iter().map(|t| t.project(cols)).collect(),
        ))
    }

    fn check_same_arity(
        &self,
        other: &Relation,
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
}

/// A range of column-0 values: what [`Relation::range`] walks. Bounds
/// compare with [`Value`]'s total order, the order the tuple set is
/// sorted in, so a range over values of another type than the column's is
/// still exact (it is simply empty or everything).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyRange {
    /// Lower bound on column 0.
    pub lo: Bound<Value>,
    /// Upper bound on column 0.
    pub hi: Bound<Value>,
}

impl KeyRange {
    /// The unbounded range: every tuple.
    pub fn full() -> KeyRange {
        KeyRange {
            lo: Bound::Unbounded,
            hi: Bound::Unbounded,
        }
    }

    /// Whether neither side is bounded.
    pub fn is_full(&self) -> bool {
        self.lo == Bound::Unbounded && self.hi == Bound::Unbounded
    }

    /// Intersect with the lower bound `b`: keep the tighter one.
    pub fn with_lo(mut self, b: Bound<Value>) -> KeyRange {
        if tighter(&b, &self.lo, std::cmp::Ordering::Greater) {
            self.lo = b;
        }
        self
    }

    /// Intersect with the upper bound `b`: keep the tighter one.
    pub fn with_hi(mut self, b: Bound<Value>) -> KeyRange {
        if tighter(&b, &self.hi, std::cmp::Ordering::Less) {
            self.hi = b;
        }
        self
    }

    /// Whether `t`'s column 0 is not below the lower bound (a tuple with
    /// no column 0 sorts first, so it is below any bound).
    fn above_lo(&self, t: &Tuple) -> bool {
        match (&self.lo, t.get(0)) {
            (Bound::Unbounded, _) => true,
            (_, None) => false,
            (Bound::Included(b), Some(k)) => k >= b,
            (Bound::Excluded(b), Some(k)) => k > b,
        }
    }

    /// Whether `t`'s column 0 is not past the upper bound.
    fn below_hi(&self, t: &Tuple) -> bool {
        match (&self.hi, t.get(0)) {
            (Bound::Unbounded, _) | (_, None) => true,
            (Bound::Included(b), Some(k)) => k <= b,
            (Bound::Excluded(b), Some(k)) => k < b,
        }
    }
}

/// Whether bound `a` is strictly tighter than `b` on the side where
/// tighter means `toward` (`Greater` for lower bounds, `Less` for upper):
/// a bounded side beats an unbounded one, a value further `toward` wins,
/// and on equal values an exclusive bound wins.
fn tighter(a: &Bound<Value>, b: &Bound<Value>, toward: std::cmp::Ordering) -> bool {
    let (av, a_excl) = match a {
        Bound::Included(v) => (v, false),
        Bound::Excluded(v) => (v, true),
        Bound::Unbounded => return false,
    };
    match b {
        Bound::Unbounded => true,
        Bound::Included(bv) => av.cmp(bv) == toward || (av == bv && a_excl),
        Bound::Excluded(bv) => av.cmp(bv) == toward,
    }
}

/// `#0 >= 5`, `#0 >= 5 and #0 < 9`, `#0 = 4`; `true` for the full range.
impl fmt::Display for KeyRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.lo, &self.hi) {
            (Bound::Included(a), Bound::Included(b)) if a == b => return write!(f, "#0 = {a}"),
            (Bound::Unbounded, Bound::Unbounded) => return write!(f, "true"),
            _ => {}
        }
        let lo = match &self.lo {
            Bound::Included(v) => Some(format!("#0 >= {v}")),
            Bound::Excluded(v) => Some(format!("#0 > {v}")),
            Bound::Unbounded => None,
        };
        let hi = match &self.hi {
            Bound::Included(v) => Some(format!("#0 <= {v}")),
            Bound::Excluded(v) => Some(format!("#0 < {v}")),
            Bound::Unbounded => None,
        };
        let parts: Vec<String> = lo.into_iter().chain(hi).collect();
        write!(f, "{}", parts.join(" and "))
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.tuples().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Tuple> for Relation {
    /// Collect tuples into a relation, inferring arity from the first tuple.
    ///
    /// Contract: **every tuple must have the same arity as the first**. An
    /// empty iterator yields the 0-ary empty relation. A mismatched tuple
    /// panics in debug builds (it would otherwise corrupt set cardinality
    /// silently); in release builds mismatches are skipped for
    /// backward-compatible behavior. Use [`Relation::from_rows`] when
    /// mismatches should surface as recoverable errors.
    fn from_iter<T: IntoIterator<Item = Tuple>>(iter: T) -> Self {
        let mut it = iter.into_iter();
        match it.next() {
            None => Relation::empty(0),
            Some(first) => {
                let arity = first.arity();
                let mut rel = Relation::singleton(first);
                for t in it {
                    debug_assert_eq!(
                        t.arity(),
                        arity,
                        "FromIterator<Tuple> for Relation: tuple arity {} \
                         disagrees with inferred arity {}",
                        t.arity(),
                        arity,
                    );
                    let _ = rel.insert(t);
                }
                rel
            }
        }
    }
}

/// Build an integer unary/short relation quickly in tests and examples:
/// rows given as arrays of `Into<Value>`.
pub fn rel_of<const N: usize>(rows: impl IntoIterator<Item = [Value; N]>) -> Relation {
    let tuples = rows.into_iter().map(Tuple::new);
    Relation::from_rows(N, tuples).expect("fixed-size rows have uniform arity")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn r(rows: &[[i64; 2]]) -> Relation {
        Relation::from_rows(2, rows.iter().map(|&[a, b]| tuple![a, b])).unwrap()
    }

    #[test]
    fn insert_dedups_and_checks_arity() {
        let mut rel = Relation::empty(2);
        assert!(rel.insert(tuple![1, 2]).unwrap());
        assert!(!rel.insert(tuple![1, 2]).unwrap());
        assert_eq!(rel.len(), 1);
        assert!(rel.insert(tuple![1]).is_err());
    }

    #[test]
    fn set_operations() {
        let a = r(&[[1, 1], [2, 2], [3, 3]]);
        let b = r(&[[2, 2], [4, 4]]);
        assert_eq!(a.union(&b).unwrap().len(), 4);
        assert_eq!(a.intersect(&b).unwrap(), r(&[[2, 2]]));
        assert_eq!(a.difference(&b).unwrap(), r(&[[1, 1], [3, 3]]));
    }

    #[test]
    fn set_operations_arity_mismatch() {
        let a = Relation::empty(2);
        let b = Relation::empty(3);
        assert!(a.union(&b).is_err());
        assert!(a.intersect(&b).is_err());
        assert!(a.difference(&b).is_err());
    }

    #[test]
    fn product_concatenates() {
        let a = Relation::from_rows(1, [tuple![1], tuple![2]]).unwrap();
        let b = Relation::from_rows(1, [tuple![10]]).unwrap();
        let p = a.product(&b);
        assert_eq!(p.arity(), 2);
        assert_eq!(p, r(&[[1, 10], [2, 10]]));
    }

    #[test]
    fn product_with_empty_is_empty() {
        let a = r(&[[1, 1]]);
        let e = Relation::empty(1);
        assert!(a.product(&e).is_empty());
        assert_eq!(a.product(&e).arity(), 3);
    }

    #[test]
    fn select_filters() {
        let a = r(&[[1, 10], [2, 20], [3, 30]]);
        let out = a.select(|t| t[1].as_int().unwrap() >= 20);
        assert_eq!(out, r(&[[2, 20], [3, 30]]));
    }

    #[test]
    fn project_dedups() {
        let a = r(&[[1, 10], [1, 20]]);
        let out = a.project(&[0]).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.arity(), 1);
        assert!(a.project(&[5]).is_err());
    }

    #[test]
    fn singleton_and_membership() {
        let s = Relation::singleton(tuple![7, 8]);
        assert_eq!(s.len(), 1);
        assert!(s.contains(&tuple![7, 8]));
        assert!(!s.contains(&tuple![8, 7]));
    }

    #[test]
    fn display_is_sorted() {
        let a = r(&[[2, 2], [1, 1]]);
        assert_eq!(a.to_string(), "{(1, 1), (2, 2)}");
    }

    #[test]
    fn rel_of_helper() {
        let a = rel_of([[Value::int(1), Value::int(2)]]);
        assert_eq!(a.arity(), 2);
        assert_eq!(a.len(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "disagrees with inferred arity")]
    fn from_iter_panics_on_arity_mismatch_in_debug() {
        let _: Relation = [tuple![1, 2], tuple![3]].into_iter().collect();
    }

    #[test]
    fn clone_shares_storage_until_write() {
        let a = r(&[[1, 1], [2, 2]]);
        let mut b = a.clone();
        assert!(a.ptr_eq(&b), "clone must share storage");
        assert!(b.insert(tuple![3, 3]).unwrap());
        assert!(!a.ptr_eq(&b), "first write must un-share");
        assert_eq!(a.len(), 2, "original must be isolated from the write");
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn noop_mutations_keep_sharing() {
        let a = r(&[[1, 1]]);
        let mut b = a.clone();
        assert!(!b.insert(tuple![1, 1]).unwrap(), "duplicate insert");
        assert!(!b.remove(&tuple![9, 9]), "missing remove");
        assert!(a.ptr_eq(&b), "no-op mutations must not copy the set");
    }

    #[test]
    fn range_walks_only_the_column0_interval() {
        let a = r(&[[1, 9], [2, 1], [2, 5], [3, 0], [4, 4], [5, 5]]);
        let keys = |kr: KeyRange| -> Vec<[i64; 2]> {
            a.range(&kr)
                .map(|t| [t[0].as_int().unwrap(), t[1].as_int().unwrap()])
                .collect()
        };
        let v = |i: i64| Value::int(i);
        let kr = KeyRange::full();
        assert_eq!(keys(kr.clone()).len(), 6);
        // An exclusive lower bound skips every row carrying that key; an
        // inclusive upper bound keeps every row carrying it.
        let kr2 = kr.clone().with_lo(Bound::Excluded(v(2)));
        assert_eq!(keys(kr2.with_hi(Bound::Included(v(4)))), [[3, 0], [4, 4]]);
        let kr3 = kr.clone().with_lo(Bound::Included(v(2)));
        assert_eq!(keys(kr3.with_hi(Bound::Excluded(v(3)))), [[2, 1], [2, 5]]);
        // Contradictory and cross-type ranges are empty, never a panic.
        let empty = kr
            .clone()
            .with_lo(Bound::Excluded(v(5)))
            .with_hi(Bound::Excluded(v(3)));
        assert!(keys(empty).is_empty());
        assert!(keys(kr.clone().with_lo(Bound::Included(Value::Bool(false)))).is_empty());
        assert_eq!(keys(kr.with_hi(Bound::Excluded(Value::str("a")))).len(), 6);
    }

    #[test]
    fn key_range_keeps_the_tighter_bound() {
        let v = |i: i64| Value::int(i);
        let kr = KeyRange::full()
            .with_lo(Bound::Included(v(2)))
            .with_lo(Bound::Excluded(v(2)))
            .with_lo(Bound::Included(v(1)))
            .with_hi(Bound::Included(v(9)))
            .with_hi(Bound::Excluded(v(9)))
            .with_hi(Bound::Included(v(10)));
        assert_eq!(kr.lo, Bound::Excluded(v(2)));
        assert_eq!(kr.hi, Bound::Excluded(v(9)));
        assert_eq!(kr.to_string(), "#0 > 2 and #0 < 9");
        let point = KeyRange::full()
            .with_lo(Bound::Included(v(4)))
            .with_hi(Bound::Included(v(4)));
        assert_eq!(point.to_string(), "#0 = 4");
        assert!(KeyRange::full().is_full() && !point.is_full());
    }

    #[test]
    fn empty_operand_set_ops_share_storage() {
        let a = r(&[[1, 1], [2, 2]]);
        let e = Relation::empty(2);
        assert!(a.union(&e).unwrap().ptr_eq(&a));
        assert!(e.union(&a).unwrap().ptr_eq(&a));
        assert!(a.difference(&e).unwrap().ptr_eq(&a));
        assert!(a.intersect(&a.clone()).unwrap().ptr_eq(&a));
        assert!(a.difference(&a.clone()).unwrap().is_empty());
    }
}
