//! A keyed, chained hash table over an external arena of entries.
//!
//! The pipeline breakers that group rows by some of their columns — the
//! hash join's build side and the aggregate's groups — keep their entries
//! in a plain `Vec` and use a [`ChainTable`] only to find candidate
//! entries by hash. Key columns are hashed in place, so no `Vec<Value>`
//! key is allocated per row; callers confirm a candidate by comparing its
//! key columns ([`cols_eq`]). Columns are read through [`Row`], so a probe
//! can be a borrowed row view. A [`RowSet`] is the same table keyed on
//! whole rows: the dedup sets and the right operand of a set difference
//! or intersection, looked up by view and built only on a miss.
//!
//! Row values come from clients, so every table hashes with its own keyed
//! SipHash ([`RandomState`]): with an unkeyed hash a client could choose
//! values that all land in one chain and make every probe linear.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash, Hasher};

use hypoquery_storage::{Row, Tuple, Value};

/// Feed one key value to a table's hasher. An integer is hashed as its
/// eight bytes alone, without the enum tag `Value`'s own `Hash` writes
/// first: SipHash's cost grows with every eight-byte word, and integer
/// keys are the common case. Equal values still hash equally, and values
/// of different types that happen to collide are told apart by the key
/// comparison every caller makes.
#[inline]
fn hash_value(v: &Value, h: &mut impl Hasher) {
    match v {
        Value::Int(i) => h.write_i64(*i),
        v => v.hash(h),
    }
}

/// End of a chain. Entry indexes are positions in `Vec`s, which never
/// reach `usize::MAX`.
const NIL: usize = usize::MAX;

/// Smallest non-empty bucket array.
const MIN_BUCKETS: usize = 16;

/// Hash chains over entries numbered `0, 1, …` in push order; entry `i`
/// is whatever the caller stored at position `i` of its own arena.
pub(crate) struct ChainTable {
    state: RandomState,
    /// Per-entry hash, kept so growing relinks without rehashing values.
    hashes: Vec<u64>,
    /// Per-entry next entry in the same bucket, or [`NIL`].
    next: Vec<usize>,
    /// Per-bucket first entry, or [`NIL`]; the length is zero or a power
    /// of two, and at least the number of entries.
    heads: Vec<usize>,
}

impl ChainTable {
    pub(crate) fn new() -> ChainTable {
        ChainTable {
            state: RandomState::new(),
            hashes: Vec::new(),
            next: Vec::new(),
            heads: Vec::new(),
        }
    }

    /// Hash columns `cols` of `t`, in order, with this table's key.
    #[inline]
    pub(crate) fn hash_cols<R: Row + ?Sized>(&self, t: &R, cols: &[usize]) -> u64 {
        let mut h = self.state.build_hasher();
        for &c in cols {
            hash_value(t.col(c), &mut h);
        }
        h.finish()
    }

    /// Hash every column of `t`, in order, with this table's key.
    #[inline]
    fn hash_row<R: Row + ?Sized>(&self, t: &R) -> u64 {
        let mut h = self.state.build_hasher();
        for c in 0..t.arity() {
            hash_value(t.col(c), &mut h);
        }
        h.finish()
    }

    /// Link the next entry under `hash`, returning its index (the number
    /// of entries pushed before it).
    pub(crate) fn push(&mut self, hash: u64) -> usize {
        let i = self.hashes.len();
        if i == self.heads.len() {
            self.grow();
        }
        let b = self.bucket(hash);
        self.hashes.push(hash);
        self.next.push(self.heads[b]);
        self.heads[b] = i;
        i
    }

    /// Entries stored under exactly `hash` (most recent first). Callers
    /// still compare key columns: distinct keys may share a hash.
    #[inline]
    pub(crate) fn matches(&self, hash: u64) -> Matches<'_> {
        let cur = if self.heads.is_empty() {
            NIL
        } else {
            self.heads[self.bucket(hash)]
        };
        Matches {
            table: self,
            hash,
            cur,
        }
    }

    #[inline]
    fn bucket(&self, hash: u64) -> usize {
        // Truncating the hash to the bucket mask is the point here.
        (hash as usize) & (self.heads.len() - 1)
    }

    /// Double the bucket array and relink every entry from its stored
    /// hash.
    fn grow(&mut self) {
        let n = (self.heads.len() * 2).max(MIN_BUCKETS);
        self.heads.clear();
        self.heads.resize(n, NIL);
        for i in 0..self.hashes.len() {
            let b = self.bucket(self.hashes[i]);
            self.next[i] = self.heads[b];
            self.heads[b] = i;
        }
    }
}

/// Iterator over the entries of one hash; see [`ChainTable::matches`].
#[derive(Clone)]
pub(crate) struct Matches<'a> {
    table: &'a ChainTable,
    hash: u64,
    cur: usize,
}

impl Iterator for Matches<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.cur != NIL {
            let i = self.cur;
            self.cur = self.table.next[i];
            if self.table.hashes[i] == self.hash {
                return Some(i);
            }
        }
        None
    }
}

/// Whether columns `a_cols` of `a` equal columns `b_cols` of `b`,
/// pairwise.
#[inline]
pub(crate) fn cols_eq<A: Row + ?Sized, B: Row + ?Sized>(
    a: &A,
    a_cols: &[usize],
    b: &B,
    b_cols: &[usize],
) -> bool {
    a_cols
        .iter()
        .zip(b_cols)
        .all(|(&i, &j)| a.col(i) == b.col(j))
}

/// A set of same-arity rows, probed with any [`Row`]: the tuple for a row
/// is built only when the row is not already in the set.
pub(crate) struct RowSet {
    table: ChainTable,
    rows: Vec<Tuple>,
}

impl RowSet {
    pub(crate) fn new() -> RowSet {
        RowSet {
            table: ChainTable::new(),
            rows: Vec::new(),
        }
    }

    fn find<R: Row + ?Sized>(&self, t: &R, hash: u64) -> bool {
        self.table
            .matches(hash)
            .any(|i| (0..t.arity()).all(|c| self.rows[i].col(c) == t.col(c)))
    }

    /// Whether a row equal to `t` is in the set.
    #[inline]
    pub(crate) fn contains<R: Row + ?Sized>(&self, t: &R) -> bool {
        self.find(t, self.table.hash_row(t))
    }

    /// Add `t` unless an equal row is already in the set, building its
    /// tuple with `build` only then. Returns whether it was added.
    #[inline]
    pub(crate) fn insert_with<R: Row + ?Sized>(
        &mut self,
        t: &R,
        build: impl FnOnce(&R) -> Tuple,
    ) -> bool {
        let hash = self.table.hash_row(t);
        if self.find(t, hash) {
            return false;
        }
        self.table.push(hash);
        self.rows.push(build(t));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypoquery_storage::tuple;

    #[test]
    fn finds_every_entry_across_growth() {
        let mut table = ChainTable::new();
        let rows: Vec<Tuple> = (0..1000i64).map(|i| tuple![i % 97, i]).collect();
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(table.push(table.hash_cols(r, &[0])), i);
        }
        for k in 0..97i64 {
            let probe = tuple![k];
            let hits: Vec<usize> = table
                .matches(table.hash_cols(&probe, &[0]))
                .filter(|&i| cols_eq(&rows[i], &[0], &probe, &[0]))
                .collect();
            let expected = (0..1000i64).filter(|i| i % 97 == k).count();
            assert_eq!(hits.len(), expected, "key {k}");
        }
        assert_eq!(ChainTable::new().matches(0).count(), 0);
    }

    #[test]
    fn hash_depends_only_on_key_columns() {
        let table = ChainTable::new();
        let a = tuple![1, 2, 3];
        let b = tuple![9, 3, 2];
        assert_eq!(table.hash_cols(&a, &[1, 2]), table.hash_cols(&b, &[2, 1]));
        assert!(cols_eq(&a, &[1, 2], &b, &[2, 1]));
        assert!(!cols_eq(&a, &[0], &b, &[0]));
    }

    #[test]
    fn row_set_builds_only_on_a_miss() {
        let mut set = RowSet::new();
        let mut built = 0;
        for i in 0..1000i64 {
            let t = tuple![i % 300, 1];
            set.insert_with(&t, |t| {
                built += 1;
                t.clone()
            });
        }
        assert_eq!(built, 300);
        assert!(set.contains(&tuple![299, 1]));
        assert!(!set.contains(&tuple![300, 1]));
        assert!(!set.contains(&tuple![0, 2]));
    }
}
