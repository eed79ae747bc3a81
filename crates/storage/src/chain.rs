//! Keyed, chained hash tables over external arenas, and the one table of
//! rows by key built on them.
//!
//! A [`ChainTable`] only finds candidate entries by hash: entries are
//! numbered in push order and kept by the caller in a plain `Vec`. Key
//! columns are hashed in place, so no `Vec<Value>` key is allocated per
//! entry; callers confirm a candidate by comparing its key columns.
//! Columns are read through [`Row`], so a probe can be a borrowed row
//! view.
//!
//! [`KeyedRows`] is that arena for rows: rows plus a `ChainTable` over
//! their key columns, probed by any [`Row`]. It is the one structure the
//! executor finds rows by key with: a relation's cached index
//! ([`crate::index`]), a hash join's build side, an index join's delta
//! patch, and — keyed on whole rows — the seen sets of dedup, aggregation
//! and set difference/intersection. The aggregate's groups use a
//! `ChainTable` directly, since their entries are groups, not rows.
//!
//! Row values come from clients, so every table hashes with its own keyed
//! SipHash ([`RandomState`]): with an unkeyed hash a client could choose
//! values that all land in one chain and make every probe linear. Tables
//! made with [`KeyedRows::empty_like`] share a key, so one hash of a probe
//! finds its entries in each of them.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash, Hasher};

use crate::tuple::{Row, Tuple};
use crate::value::Value;

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
pub struct ChainTable {
    state: RandomState,
    /// Per entry: its hash, kept so growing relinks without rehashing
    /// values, and the next entry in the same bucket, or [`NIL`]. Side by
    /// side, so a chain step reads one cache line.
    entries: Vec<(u64, usize)>,
    /// Per-bucket first entry, or [`NIL`]; the length is zero or a power
    /// of two, and at least the number of entries.
    heads: Vec<usize>,
}

impl Default for ChainTable {
    fn default() -> Self {
        ChainTable::new()
    }
}

impl ChainTable {
    /// An empty table with a fresh hash key.
    pub fn new() -> ChainTable {
        ChainTable::keyed(RandomState::new())
    }

    fn keyed(state: RandomState) -> ChainTable {
        ChainTable {
            state,
            entries: Vec::new(),
            heads: Vec::new(),
        }
    }

    /// Hash columns `cols` of `t`, in order, with this table's key.
    #[inline]
    pub fn hash_cols<R: Row + ?Sized>(&self, t: &R, cols: &[usize]) -> u64 {
        let mut h = self.state.build_hasher();
        for &c in cols {
            hash_value(t.col(c), &mut h);
        }
        h.finish()
    }

    /// Link the next entry under `hash`, returning its index (the number
    /// of entries pushed before it).
    pub fn push(&mut self, hash: u64) -> usize {
        let i = self.entries.len();
        if i == self.heads.len() {
            self.grow();
        }
        let b = self.bucket(hash);
        self.entries.push((hash, self.heads[b]));
        self.heads[b] = i;
        i
    }

    /// Entries stored under exactly `hash` (most recent first). Callers
    /// still compare key columns: distinct keys may share a hash.
    #[inline]
    pub fn matches(&self, hash: u64) -> impl Iterator<Item = usize> + Clone + '_ {
        let head = self.heads.get(self.bucket(hash)).copied();
        let linked = |i: usize| (i != NIL).then_some(i);
        std::iter::successors(head.and_then(linked), move |&i| linked(self.entries[i].1))
            .filter(move |&i| self.entries[i].0 == hash)
    }

    #[inline]
    fn bucket(&self, hash: u64) -> usize {
        // Truncating the hash to the bucket mask is the point here; with
        // no buckets yet the mask wraps, and `matches` finds nothing.
        (hash as usize) & self.heads.len().wrapping_sub(1)
    }

    /// Double the bucket array and relink every entry from its stored
    /// hash.
    fn grow(&mut self) {
        let n = (self.heads.len() * 2).max(MIN_BUCKETS);
        self.heads.clear();
        self.heads.resize(n, NIL);
        for i in 0..self.entries.len() {
            let b = self.bucket(self.entries[i].0);
            self.entries[i].1 = self.heads[b];
            self.heads[b] = i;
        }
    }
}

/// Whether columns `a_cols` of `a` equal columns `b_cols` of `b`,
/// pairwise.
#[inline]
fn cols_eq<A: Row + ?Sized, B: Row + ?Sized>(
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

/// Rows found by the values of their key columns: an arena of rows plus
/// a [`ChainTable`] over their keys. A probe is any [`Row`] together with
/// the columns of it that line up with the key; with no key columns every
/// row matches every probe (a nested loop's build rows).
///
/// Immutable once built when it serves as a relation's index, shared
/// behind an `Arc` by every snapshot whose relation still points at the
/// indexed storage.
pub struct KeyedRows {
    /// Key columns of the stored rows.
    key: Vec<usize>,
    /// Entry `i` is `rows[i]`.
    table: ChainTable,
    rows: Vec<Tuple>,
}

impl KeyedRows {
    /// An empty table keyed on columns `key` of its rows.
    pub fn new(key: Vec<usize>) -> KeyedRows {
        KeyedRows {
            key,
            table: ChainTable::new(),
            rows: Vec::new(),
        }
    }

    /// An empty table keyed on every column of `arity`-column rows: a
    /// set of rows.
    pub fn set(arity: usize) -> KeyedRows {
        KeyedRows::new((0..arity).collect())
    }

    /// An empty table with `self`'s key columns and hash key, so a hash
    /// computed for a probe of either table probes both.
    pub fn empty_like(&self) -> KeyedRows {
        KeyedRows {
            key: self.key.clone(),
            table: ChainTable::keyed(self.table.state.clone()),
            rows: Vec::new(),
        }
    }

    /// Add `row`, whatever rows are already stored under its key.
    pub fn push(&mut self, row: Tuple) {
        self.table.push(self.table.hash_cols(&row, &self.key));
        self.rows.push(row);
    }

    /// The hash of a probe: columns `cols` of `probe`, aligned with the
    /// key columns.
    #[inline]
    pub fn hash<R: Row + ?Sized>(&self, probe: &R, cols: &[usize]) -> u64 {
        self.table.hash_cols(probe, cols)
    }

    /// The rows whose key equals columns `cols` of `probe`, given the
    /// probe's [`hash`](KeyedRows::hash) (most recently pushed first).
    #[inline]
    pub fn get<'a, R: Row + ?Sized>(
        &'a self,
        hash: u64,
        probe: &'a R,
        cols: &'a [usize],
    ) -> impl Iterator<Item = &'a Tuple> + Clone + 'a {
        self.table
            .matches(hash)
            .map(|i| &self.rows[i])
            .filter(move |t| cols_eq(*t, &self.key, probe, cols))
    }

    /// The rows whose key equals columns `cols` of `probe`.
    #[inline]
    pub fn matches<'a, R: Row + ?Sized>(
        &'a self,
        probe: &'a R,
        cols: &'a [usize],
    ) -> impl Iterator<Item = &'a Tuple> + Clone + 'a {
        self.get(self.hash(probe, cols), probe, cols)
    }

    /// The rows whose key columns equal `key`, in the key's order.
    pub fn probe(&self, key: &[Value]) -> Vec<Tuple> {
        let (key, at) = (Tuple::new(key.to_vec()), Vec::from_iter(0..key.len()));
        self.matches(&key, &at).cloned().collect()
    }

    /// Whether a row is stored whose key equals `row`'s own key columns.
    #[inline]
    pub fn contains<R: Row + ?Sized>(&self, row: &R) -> bool {
        self.matches(row, &self.key).next().is_some()
    }

    /// Add the row `build(row)` unless a row with `row`'s key is already
    /// stored: `build` runs only on a miss. Returns whether it added.
    #[inline]
    pub fn insert_with<R: Row + ?Sized>(
        &mut self,
        row: &R,
        build: impl FnOnce(&R) -> Tuple,
    ) -> bool {
        let hash = self.hash(row, &self.key);
        if self.get(hash, row, &self.key).next().is_some() {
            return false;
        }
        self.table.push(hash);
        self.rows.push(build(row));
        true
    }
}

impl Extend<Tuple> for KeyedRows {
    fn extend<I: IntoIterator<Item = Tuple>>(&mut self, rows: I) {
        for row in rows {
            self.push(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

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

    fn keyed(key: Vec<usize>, rows: impl IntoIterator<Item = Tuple>) -> KeyedRows {
        let mut t = KeyedRows::new(key);
        t.extend(rows);
        t
    }

    fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
        rows.sort();
        rows
    }

    /// What the integer fast path of the hash could get wrong: an `Int`
    /// hashes as its bare eight bytes, everything else with its type tag.
    #[test]
    fn keyed_rows_tell_keys_apart() {
        // Keys of three types in one column never match each other.
        let mixed = keyed(
            vec![0],
            [
                tuple![1, 10],
                tuple!["1", 20],
                tuple![true, 30],
                tuple![0, 40],
                tuple![false, 50],
            ],
        );
        assert_eq!(mixed.probe(&[Value::int(1)]), [tuple![1, 10]]);
        assert_eq!(mixed.probe(&[Value::str("1")]), [tuple!["1", 20]]);
        assert_eq!(mixed.probe(&[Value::bool(true)]), [tuple![true, 30]]);
        assert_eq!(mixed.probe(&[Value::int(0)]), [tuple![0, 40]]);
        assert_eq!(mixed.probe(&[Value::bool(false)]), [tuple![false, 50]]);
        assert!(mixed.probe(&[Value::str("true")]).is_empty());

        // Two-column keys, probed in the key's order or by a wider row
        // whose columns line up with the key.
        let pairs = keyed(
            vec![1, 0],
            [
                tuple![1, 2, 0],
                tuple![2, 1, 0],
                tuple![1, 2, 9],
                tuple![1, 1, 1],
            ],
        );
        let key = [Value::int(2), Value::int(1)];
        assert_eq!(
            sorted(pairs.probe(&key)),
            [tuple![1, 2, 0], tuple![1, 2, 9]]
        );
        let probe = tuple!["x", 1, "y", 2];
        assert_eq!(pairs.matches(&probe, &[3, 1]).count(), 2);
        assert_eq!(pairs.matches(&probe, &[1, 3]).count(), 1);
        assert!(pairs.probe(&[Value::int(2), Value::str("1")]).is_empty());

        // Duplicate keys: every row under the key, none of another key.
        let dups = keyed(vec![0], (0..300i64).map(|i| tuple![i % 3, i]));
        for k in 0..3i64 {
            let rows = dups.probe(&[Value::int(k)]);
            assert_eq!(rows.len(), 100, "key {k}");
            assert!(rows.iter().all(|t| t[0] == Value::int(k)));
        }

        // Absent keys, and the empty relation.
        assert!(dups.probe(&[Value::int(3)]).is_empty());
        assert!(dups.probe(&[Value::str("0")]).is_empty());
        let empty = KeyedRows::new(vec![0]);
        assert!(empty.probe(&[Value::int(0)]).is_empty());
        assert!(!empty.contains(&tuple![0]));
    }

    #[test]
    fn one_hash_probes_tables_made_alike() {
        let index = keyed(vec![0], [tuple![1, 10], tuple![2, 20]]);
        let mut patch = index.empty_like();
        patch.push(tuple![2, 21]);
        let probe = tuple![0, 2];
        let hash = index.hash(&probe, &[1]);
        assert_eq!(index.get(hash, &probe, &[1]).count(), 1);
        assert_eq!(
            patch.get(hash, &probe, &[1]).collect::<Vec<_>>(),
            [&tuple![2, 21]]
        );
    }

    #[test]
    fn with_no_key_every_row_matches() {
        let all = keyed(vec![], [tuple![1], tuple![2], tuple![3]]);
        assert_eq!(all.matches(&tuple![9, 9], &[]).count(), 3);
        assert_eq!(all.probe(&[]).len(), 3);
    }

    #[test]
    fn row_set_builds_only_on_a_miss() {
        let mut set = KeyedRows::set(2);
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
