//! Per-column hash indexes that ride the copy-on-write storage design.
//!
//! An index is a [`KeyedRows`] table over a relation's tuples, keyed on a
//! fixed column list: the same table a hash join builds, probed by any
//! row. A built index is cached *inside the relation's shared storage*
//! (next to its tuples), so every CoW snapshot
//! that still physically shares a base relation ([`Relation::ptr_eq`])
//! finds the same cached index for free. Any mutation un-shares or
//! rewrites the storage and clears its caches, so a stale index is never
//! seen. The per-column distinct counts the planner reads are cached the
//! same way.
//!
//! Hit and build counters live in an [`IndexStats`] handle that each
//! [`DatabaseState`](crate::DatabaseState) carries and its snapshots share,
//! so two databases in one process count independently. The server's
//! `STATS` verb and the E11 bench read them.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::chain::KeyedRows;
use crate::relation::Relation;
use crate::value::Value;

/// Snapshot of one [`IndexStats`] handle (monotone since it was made).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexCounters {
    /// Probes answered by a cached index.
    pub hits: u64,
    /// Probes that found no valid cached index, and so built one.
    pub builds: u64,
}

/// The live index counters of one database: every probe through
/// [`lookup_or_build_index`] bumps the handle it is given.
#[derive(Debug, Default)]
pub struct IndexStats {
    hits: AtomicU64,
    builds: AtomicU64,
}

impl IndexStats {
    /// Read the counters.
    pub fn counters(&self) -> IndexCounters {
        IndexCounters {
            hits: self.hits.load(Ordering::Relaxed),
            builds: self.builds.load(Ordering::Relaxed),
        }
    }
}

/// The index over `rel` keyed on `cols`, building and caching it in the
/// relation's storage on first use. A cached answer counts as a hit in
/// `stats`, building as a build.
pub fn lookup_or_build_index(rel: &Relation, cols: &[usize], stats: &IndexStats) -> Arc<KeyedRows> {
    let mut cache = rel
        .store()
        .indexes
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    if let Some(idx) = cache.get(cols) {
        stats.hits.fetch_add(1, Ordering::Relaxed);
        return Arc::clone(idx);
    }
    // Built under the lock: concurrent first probes of one store wait
    // for a single build instead of each building their own.
    stats.builds.fetch_add(1, Ordering::Relaxed);
    let mut idx = KeyedRows::new(cols.to_vec());
    idx.extend(rel.iter().cloned());
    let idx = Arc::new(idx);
    cache.insert(cols.to_vec(), Arc::clone(&idx));
    idx
}

/// The number of distinct values in each column of `rel`, computed in one
/// pass and cached in the relation's storage, so repeated planning over an
/// unmutated relation never rescans. Does not touch the index counters
/// (planning must not read as query probes in `STATS`).
pub fn distinct_counts(rel: &Relation) -> &[usize] {
    rel.store().distinct.get_or_init(|| {
        let mut seen: Vec<HashSet<&Value>> = vec![HashSet::new(); rel.arity()];
        for t in rel.iter() {
            for (col, set) in seen.iter_mut().enumerate() {
                set.insert(&t[col]);
            }
        }
        seen.iter().map(HashSet::len).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::rel_of;
    use crate::tuple;

    fn r3() -> Relation {
        rel_of([
            [Value::int(1), Value::int(10)],
            [Value::int(2), Value::int(20)],
            [Value::int(2), Value::int(21)],
        ])
    }

    fn lookup(rel: &Relation, cols: &[usize]) -> Arc<KeyedRows> {
        lookup_or_build_index(rel, cols, &IndexStats::default())
    }

    #[test]
    fn build_and_probe() {
        let rel = r3();
        let idx = lookup(&rel, &[0]);
        assert_eq!(idx.probe(&[Value::int(2)]).len(), 2);
        assert_eq!(idx.probe(&[Value::int(1)]).len(), 1);
        assert_eq!(idx.probe(&[Value::int(9)]).len(), 0);
        let idx = lookup(&rel, &[0, 1]);
        assert_eq!(idx.probe(&[Value::int(2), Value::int(20)]).len(), 1);
    }

    #[test]
    fn snapshots_share_caches_until_a_write() {
        let base = r3();
        let mut snap = base.clone();
        let idx = lookup(&base, &[0]);
        assert!(Arc::ptr_eq(&idx, &lookup(&snap, &[0])));
        assert!(std::ptr::eq(distinct_counts(&base), distinct_counts(&snap)));
        // The write copies the storage; the copy starts with no caches.
        snap.insert(tuple![7, 70]).unwrap();
        assert!(snap.store().indexes.lock().unwrap().is_empty());
        assert!(snap.store().distinct.get().is_none());
        assert_eq!(lookup(&snap, &[0]).probe(&[Value::int(7)]).len(), 1);
        // The base keeps its cache.
        assert!(Arc::ptr_eq(&idx, &lookup(&base, &[0])));
    }

    #[test]
    fn mutating_a_unique_owner_clears_its_caches() {
        // No other snapshot shares `rel`, so `make_mut` mutates in place:
        // the built index and distinct counts must not survive the write.
        let mut rel = r3();
        assert!(lookup(&rel, &[0]).probe(&[Value::int(7)]).is_empty());
        assert_eq!(distinct_counts(&rel), &[2, 3]);
        rel.insert(tuple![7, 70]).unwrap();
        let idx = lookup(&rel, &[0]);
        assert_eq!(idx.probe(&[Value::int(7)]), [tuple![7, 70]]);
        assert_eq!(distinct_counts(&rel), &[3, 4]);
        assert!(rel.remove(&tuple![1, 10]));
        assert!(lookup(&rel, &[0]).probe(&[Value::int(1)]).is_empty());
        assert_eq!(distinct_counts(&rel), &[2, 3]);
    }

    #[test]
    fn counters_count_into_the_given_handle_only() {
        let rel = r3();
        let (mine, other) = (IndexStats::default(), IndexStats::default());
        let _ = lookup_or_build_index(&rel, &[1], &mine);
        let _ = lookup_or_build_index(&rel, &[1], &mine);
        let want = IndexCounters { hits: 1, builds: 1 };
        assert_eq!(mine.counters(), want);
        assert_eq!(other.counters(), IndexCounters::default());
        // A shared cache is a hit for whoever probes it.
        let _ = lookup_or_build_index(&rel, &[1], &other);
        assert_eq!(other.counters().hits, 1);
        assert_eq!(other.counters().builds, 0);
    }

    #[test]
    fn distinct_counts_of_an_empty_relation() {
        assert_eq!(distinct_counts(&Relation::empty(2)), &[0, 0]);
    }
}
