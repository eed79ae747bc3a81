//! The snapshot-sharing invariant the index cache is built on: the cache
//! lives in a relation's shared storage, so physically shared storage
//! resolves to the *same* built index, and a mutated (un-shared) snapshot
//! gets a fresh one. (That declaring indexes never changes results is
//! checked where indexes are used, by the pipelined-vs-oracle suite in
//! `physical_consistency.rs`.)

use std::sync::Arc;

use proptest::prelude::*;

use hypoquery_storage::{lookup_or_build_index, tuple, RelName};
use hypoquery_testkit::{arb_db, Universe};

fn universe() -> Universe {
    Universe::standard()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cache contract: snapshots that physically share a relation's
    /// storage share the built index (same `Arc`), and a mutation —
    /// which un-shares the storage — yields a fresh index that reflects
    /// the new contents.
    #[test]
    fn shared_storage_shares_index(
        db in arb_db(&universe(), 6),
        col in 0usize..2,
    ) {
        let mut db = db;
        let r = RelName::new("R");
        // An empty binding is synthesized fresh on every read and shares
        // nothing; make sure R is physically stored.
        db.insert_row("R", tuple![0, 0]).unwrap();
        let base = db.get(&r).unwrap();
        let snapshot = db.clone();
        let in_snapshot = snapshot.get(&r).unwrap();
        prop_assert!(base.ptr_eq(&in_snapshot));
        let stats = db.index_stats();
        let i1 = lookup_or_build_index(&base, &[col], stats);
        let i2 = lookup_or_build_index(&in_snapshot, &[col], stats);
        prop_assert!(Arc::ptr_eq(&i1, &i2), "shared storage must share the index");

        // Mutate the snapshot: storage un-shares, the index follows.
        let mut mutated = db.clone();
        mutated.insert_row("R", tuple![99, 99]).unwrap();
        let in_mutated = mutated.get(&r).unwrap();
        prop_assert!(!base.ptr_eq(&in_mutated));
        let i3 = lookup_or_build_index(&in_mutated, &[col], stats);
        prop_assert!(!Arc::ptr_eq(&i1, &i3), "mutated snapshot must get a fresh index");
        // And the fresh index sees the mutation.
        let probed = i3.probe(&[hypoquery_storage::Value::int(99)]);
        prop_assert_eq!(probed, &[tuple![99, 99]]);

        // The base's index is untouched by the branch's mutation.
        let i4 = lookup_or_build_index(&base, &[col], stats);
        prop_assert!(Arc::ptr_eq(&i1, &i4));
        prop_assert!(i1.probe(&[hypoquery_storage::Value::int(99)]).is_empty());

        // Every snapshot counted into the one handle: two builds, two hits.
        let c = stats.counters();
        prop_assert_eq!((c.hits, c.builds), (2, 2));
    }
}
