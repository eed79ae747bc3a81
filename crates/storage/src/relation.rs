//! Relations: finite sets of same-arity tuples.
//!
//! Set semantics, as in the paper. The tuples are kept as one sorted,
//! duplicate-free `Vec`, so iteration is deterministic and already in
//! order, and a scan reads a flat slice. [`Relation::range`] exploits the
//! order: it finds the slice of tuples whose column 0 lies in a
//! [`KeyRange`] by binary search (`partition_point`), and so does the
//! streaming merge of a base with a delta in `hypoquery-eval`. Membership
//! is a binary search, the set operations are linear merges of two sorted
//! slices, and the bulk constructors sort and deduplicate once. A point
//! [`Relation::insert`]/[`Relation::remove`] shifts the tail (O(n)), so
//! loaders build a relation from all of its rows at once
//! ([`Relation::from_rows`], [`DatabaseState::insert_rows`](crate::DatabaseState::insert_rows))
//! instead of inserting them one by one.
//!
//! Tuple storage is `Arc`-shared and copy-on-write: `clone()` is a pointer
//! bump, and the first mutation of a shared relation clones the underlying
//! vector (`Arc::make_mut`). This is what makes hypothetical snapshots cheap —
//! the k states of a what-if tree or a prepared family all share the
//! untouched base relations physically.
//!
//! The shared allocation (`Store`) also carries the caches derived from
//! the tuples — built column indexes and per-column distinct counts — so
//! snapshots that share storage share those caches by construction.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::ops::Bound;
use std::sync::{Arc, Mutex, OnceLock};

use crate::chain::KeyedRows;
use crate::error::StorageError;
use crate::tuple::Tuple;
use crate::value::Value;

/// A relation: a set of tuples sharing one arity.
///
/// Cloning is O(1) (shared storage); mutating a clone copies the tuples
/// first (copy-on-write), so clones are fully isolated from each other.
#[derive(Clone, Debug)]
pub struct Relation {
    arity: usize,
    store: Arc<Store>,
}

/// A relation's shared storage: the tuples, sorted and duplicate-free,
/// plus the caches derived from them (see [`crate::index`]). The caches
/// are only valid for these exact tuples, so every mutation goes through
/// `Relation::tuples_mut`, which clears them, and a copy-on-write clone
/// starts with none.
#[derive(Default)]
pub(crate) struct Store {
    pub(crate) tuples: Vec<Tuple>,
    /// Built column indexes, keyed by column list.
    pub(crate) indexes: Mutex<HashMap<Vec<usize>, Arc<KeyedRows>>>,
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
        f.debug_set().entries(&self.tuples).finish()
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
        Relation::from_sorted(arity, Vec::new())
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

    fn tuples(&self) -> &[Tuple] {
        &self.store.tuples
    }

    /// The one gate for mutating tuples: un-shares the storage
    /// (copy-on-write) and clears its caches. Clearing matters when this
    /// relation is the unique owner, because `make_mut` then mutates in
    /// place and the caches would otherwise describe the old tuples.
    fn tuples_mut(&mut self) -> &mut Vec<Tuple> {
        let store = Arc::make_mut(&mut self.store);
        store
            .indexes
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        store.distinct.take();
        &mut store.tuples
    }

    /// Wrap tuples that are already sorted and duplicate-free.
    fn from_sorted(arity: usize, tuples: Vec<Tuple>) -> Self {
        debug_assert!(is_strictly_sorted(&tuples));
        Relation {
            arity,
            store: Arc::new(Store {
                tuples,
                ..Store::default()
            }),
        }
    }

    /// Sort and deduplicate `tuples` (skipping the sort when they already
    /// are), checking that every row has `arity`.
    fn from_vec(
        arity: usize,
        mut tuples: Vec<Tuple>,
        context: &'static str,
    ) -> Result<Self, StorageError> {
        if let Some(t) = tuples.iter().find(|t| t.arity() != arity) {
            return Err(StorageError::ArityMismatch {
                context,
                expected: arity,
                found: t.arity(),
            });
        }
        if !is_strictly_sorted(&tuples) {
            tuples.sort_unstable();
            tuples.dedup();
        }
        Ok(Relation::from_sorted(arity, tuples))
    }

    /// Build a relation from rows in any order, duplicates allowed,
    /// checking that every row has `arity`. Sorts once.
    pub fn from_rows(
        arity: usize,
        rows: impl IntoIterator<Item = Tuple>,
    ) -> Result<Self, StorageError> {
        Relation::from_vec(arity, rows.into_iter().collect(), "relation insert")
    }

    /// Seal rows an operator has accumulated, checking that every row has
    /// `arity`: [`Relation::from_rows`] for a vector already in hand. The
    /// rows may repeat and come in any order; rows that arrive sorted (an
    /// aggregate's ordered groups, a scan's survivors) are not sorted
    /// again.
    pub fn from_tuple_set(arity: usize, tuples: Vec<Tuple>) -> Result<Self, StorageError> {
        Relation::from_vec(arity, tuples, "relation from set")
    }

    /// Build a single-tuple relation (the paper's `{t}`).
    pub fn singleton(t: Tuple) -> Self {
        Relation::from_sorted(t.arity(), vec![t])
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

    /// Whether `t` is a member (a binary search).
    pub fn contains(&self, t: &Tuple) -> bool {
        self.tuples().binary_search(t).is_ok()
    }

    /// Insert a tuple; errors if its arity differs. Returns whether the
    /// tuple was newly inserted. O(n): the tuples after it shift by one,
    /// so bulk loads go through [`Relation::from_rows`] or
    /// [`Relation::union`] instead.
    pub fn insert(&mut self, t: Tuple) -> Result<bool, StorageError> {
        if t.arity() != self.arity {
            return Err(StorageError::ArityMismatch {
                context: "relation insert",
                expected: self.arity,
                found: t.arity(),
            });
        }
        match self.tuples().binary_search(&t) {
            // Duplicate insert: never un-share the storage for a no-op.
            Ok(_) => Ok(false),
            Err(at) => {
                self.tuples_mut().insert(at, t);
                Ok(true)
            }
        }
    }

    /// Remove a tuple; returns whether it was present. O(n), like
    /// [`Relation::insert`].
    ///
    /// Copy-on-write note: membership is checked first, so a removal that
    /// misses never forces a copy of a shared store.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        match self.tuples().binary_search(t) {
            Ok(at) => {
                self.tuples_mut().remove(at);
                true
            }
            Err(_) => false,
        }
    }

    /// Iterate tuples in sorted order.
    pub fn iter(&self) -> std::slice::Iter<'_, Tuple> {
        self.tuples().iter()
    }

    /// The tuples in sorted order, as one slice.
    pub fn as_slice(&self) -> &[Tuple] {
        self.tuples()
    }

    /// Iterate, in sorted order, the tuples whose column 0 lies in `r`.
    ///
    /// Tuples sort on column 0 first, so those tuples are one slice of the
    /// sorted vector ([`Relation::range_slice`]): this touches only the
    /// rows it yields, plus the O(log n) probes of two binary searches.
    pub fn range(&self, r: &KeyRange) -> std::slice::Iter<'_, Tuple> {
        self.range_slice(r).iter()
    }

    /// The slice of tuples whose column 0 lies in `r`, found by binary
    /// search on each bound.
    pub fn range_slice(&self, r: &KeyRange) -> &[Tuple] {
        let all = self.tuples();
        let start = all.partition_point(|t| !r.above_lo(t));
        let rest = &all[start..];
        &rest[..rest.partition_point(|t| r.below_hi(t))]
    }

    /// Set union, a linear merge. Errors on arity mismatch.
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
        let out = merge(self.tuples(), other.tuples(), true, true, true);
        // other ⊆ self (or vice versa): the union *is* one operand — hand
        // its storage back shared instead of keeping the fresh copy.
        if out.len() == self.len() {
            return Ok(self.clone());
        }
        if out.len() == other.len() {
            return Ok(other.clone());
        }
        Ok(Relation::from_sorted(self.arity, out))
    }

    /// Set intersection, a linear merge. Errors on arity mismatch.
    pub fn intersect(&self, other: &Relation) -> Result<Relation, StorageError> {
        self.check_same_arity(other, "intersection")?;
        if Arc::ptr_eq(&self.store, &other.store) {
            return Ok(self.clone());
        }
        let out = merge(self.tuples(), other.tuples(), false, true, false);
        if out.len() == self.len() {
            return Ok(self.clone());
        }
        if out.len() == other.len() {
            return Ok(other.clone());
        }
        Ok(Relation::from_sorted(self.arity, out))
    }

    /// Set difference (`self − other`), a linear merge. Errors on arity
    /// mismatch.
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
        let out = merge(self.tuples(), other.tuples(), true, false, false);
        // Disjoint subtrahend: nothing was removed — keep shared storage.
        if out.len() == self.len() {
            return Ok(self.clone());
        }
        Ok(Relation::from_sorted(self.arity, out))
    }

    /// Cartesian product: arity is the sum of operand arities. Pairs come
    /// out sorted (every left tuple has one arity), so nothing is sorted.
    pub fn product(&self, other: &Relation) -> Relation {
        let tuples = self
            .tuples()
            .iter()
            .flat_map(|a| other.tuples().iter().map(move |b| a.concat(b)))
            .collect();
        Relation::from_sorted(self.arity + other.arity, tuples)
    }

    /// Select: keep tuples satisfying `pred`. The survivors stay sorted.
    pub fn select(&self, mut pred: impl FnMut(&Tuple) -> bool) -> Relation {
        let tuples = self.tuples().iter().filter(|t| pred(t)).cloned().collect();
        Relation::from_sorted(self.arity, tuples)
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
        let rows = self.tuples().iter().map(|t| t.project(cols)).collect();
        Relation::from_vec(cols.len(), rows, "projection")
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

/// Whether `tuples` ascend strictly: sorted, with no repeats.
fn is_strictly_sorted(tuples: &[Tuple]) -> bool {
    tuples.windows(2).all(|w| w[0] < w[1])
}

/// One linear merge of two sorted, duplicate-free slices, keeping the
/// tuples only in `a` (`only_a`), in both (`both`) and only in `b`
/// (`only_b`): union, intersection and difference are its three settings.
fn merge(a: &[Tuple], b: &[Tuple], only_a: bool, both: bool, only_b: bool) -> Vec<Tuple> {
    let mut out =
        Vec::with_capacity(if only_a { a.len() } else { 0 } + if only_b { b.len() } else { 0 });
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => {
                if only_a {
                    out.push(a[i].clone());
                }
                i += 1;
            }
            Ordering::Greater => {
                if only_b {
                    out.push(b[j].clone());
                }
                j += 1;
            }
            Ordering::Equal => {
                if both {
                    out.push(a[i].clone());
                }
                i += 1;
                j += 1;
            }
        }
    }
    if only_a {
        out.extend_from_slice(&a[i..]);
    }
    if only_b {
        out.extend_from_slice(&b[j..]);
    }
    out
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
