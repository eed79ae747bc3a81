//! Model test of [`Relation`]'s sorted-vector storage against a
//! `BTreeSet<Tuple>`: bulk construction from unsorted rows with repeats,
//! point inserts and removes on shared and uniquely owned storage (with
//! the copy-on-write and cache-clearing contract), membership, the three
//! set operations and the storage they share, ranges over every bound
//! kind with Int/Str/Bool keys in column 0, and iteration order.

use std::collections::BTreeSet;
use std::ops::Bound;

use proptest::prelude::*;

use hypoquery_storage::{
    distinct_counts, lookup_or_build_index, IndexStats, KeyRange, Relation, Tuple, Value,
};

type Model = BTreeSet<Tuple>;

/// A value of any type, out of a handful, so keys repeat and one column
/// mixes types.
fn arb_value() -> BoxedStrategy<Value> {
    prop_oneof![
        3 => (0i64..6).prop_map(Value::int),
        1 => prop::sample::select(vec!["a", "b", "c"]).prop_map(Value::str),
        1 => any::<bool>().prop_map(Value::bool),
    ]
    .boxed()
}

fn arb_row() -> BoxedStrategy<Tuple> {
    (arb_value(), 0i64..3)
        .prop_map(|(k, v)| Tuple::new(vec![k, Value::int(v)]))
        .boxed()
}

/// Up to 12 rows in any order, repeats allowed.
fn arb_rows() -> BoxedStrategy<Vec<Tuple>> {
    prop::collection::vec(arb_row(), 0..=12).boxed()
}

fn arb_bound() -> BoxedStrategy<Bound<Value>> {
    prop_oneof![
        1 => Just(Bound::Unbounded),
        2 => arb_value().prop_map(Bound::Included),
        2 => arb_value().prop_map(Bound::Excluded),
    ]
    .boxed()
}

/// A point insert (`true`) or remove of a row.
fn arb_ops() -> BoxedStrategy<Vec<(bool, Tuple)>> {
    prop::collection::vec((any::<bool>(), arb_row()), 0..=8).boxed()
}

fn rows(rel: &Relation) -> Vec<Tuple> {
    rel.iter().cloned().collect()
}

fn model_rows(m: &Model) -> Vec<Tuple> {
    m.iter().cloned().collect()
}

fn in_range(k: &Value, lo: &Bound<Value>, hi: &Bound<Value>) -> bool {
    let above = match lo {
        Bound::Unbounded => true,
        Bound::Included(b) => k >= b,
        Bound::Excluded(b) => k > b,
    };
    let below = match hi {
        Bound::Unbounded => true,
        Bound::Included(b) => k <= b,
        Bound::Excluded(b) => k < b,
    };
    above && below
}

/// Per-column distinct counts of the model.
fn model_distinct(m: &Model) -> Vec<usize> {
    (0..2)
        .map(|c| m.iter().map(|t| &t[c]).collect::<BTreeSet<_>>().len())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Bulk construction, iteration order, length and membership.
    #[test]
    fn from_rows_sorts_and_dedups(rs in arb_rows(), probes in arb_rows()) {
        let model: Model = rs.iter().cloned().collect();
        let rel = Relation::from_rows(2, rs.clone()).unwrap();
        prop_assert_eq!(rows(&rel), model_rows(&model));
        prop_assert_eq!(rel.len(), model.len());
        prop_assert_eq!(rel.is_empty(), model.is_empty());
        prop_assert_eq!(rel.as_slice(), &model_rows(&model)[..]);
        prop_assert_eq!(&Relation::from_tuple_set(2, rs).unwrap(), &rel);
        for t in probes.iter().chain(&model_rows(&model)) {
            prop_assert_eq!(rel.contains(t), model.contains(t), "{}", t);
        }
        // A row of another arity is refused.
        prop_assert!(Relation::from_rows(2, [Tuple::new(vec![Value::int(1)])]).is_err());
    }

    /// Point inserts and removes match the model's answers. On shared
    /// storage a no-op keeps sharing and a change un-shares, leaving the
    /// other clone as it was; on uniquely owned storage the change is in
    /// place. Either way the cached index and distinct counts describe
    /// the new rows.
    #[test]
    fn point_updates_keep_copy_on_write_and_clear_caches(
        rs in arb_rows(),
        ops in arb_ops(),
        shared in any::<bool>(),
    ) {
        let mut model: Model = rs.iter().cloned().collect();
        let mut rel = Relation::from_rows(2, rs).unwrap();
        let stats = IndexStats::default();
        for (insert, t) in ops {
            // Fill both caches before the update.
            lookup_or_build_index(&rel, &[0], &stats);
            distinct_counts(&rel);
            let kept = shared.then(|| rel.clone());
            let before = model.clone();
            let changed = if insert {
                let got = rel.insert(t.clone()).unwrap();
                prop_assert_eq!(got, model.insert(t.clone()));
                got
            } else {
                let got = rel.remove(&t);
                prop_assert_eq!(got, model.remove(&t));
                got
            };
            prop_assert_eq!(rows(&rel), model_rows(&model));
            if let Some(kept) = kept {
                prop_assert_eq!(kept.ptr_eq(&rel), !changed);
                prop_assert_eq!(rows(&kept), model_rows(&before));
            }
            // A changed store builds its index anew, over the new rows.
            let builds = stats.counters().builds;
            let idx = lookup_or_build_index(&rel, &[0], &stats);
            prop_assert_eq!(stats.counters().builds - builds, u64::from(changed));
            let key = Tuple::new(vec![t[0].clone()]);
            let matches: BTreeSet<Tuple> = idx.matches(&key, &[0]).cloned().collect();
            let want: BTreeSet<Tuple> = model.iter().filter(|m| m[0] == t[0]).cloned().collect();
            prop_assert_eq!(matches, want);
            prop_assert_eq!(distinct_counts(&rel), &model_distinct(&model)[..]);
        }
        // A row of another arity is refused and changes nothing.
        prop_assert!(rel.insert(Tuple::new(vec![Value::int(1)])).is_err());
        prop_assert_eq!(rows(&rel), model_rows(&model));
    }

    /// Union, intersection and difference match the model, and hand back
    /// an operand's storage whenever the answer is that operand.
    #[test]
    fn set_operations_match_the_model(a in arb_rows(), b in arb_rows(), sub in any::<bool>()) {
        let ma: Model = a.iter().cloned().collect();
        // Sometimes a subset of `a`, so the shared returns come up.
        let mb: Model = if sub {
            ma.iter().filter(|t| b.contains(t)).cloned().collect()
        } else {
            b.iter().cloned().collect()
        };
        let (ra, rb) = (
            Relation::from_rows(2, a).unwrap(),
            Relation::from_rows(2, mb.iter().cloned()).unwrap(),
        );
        let union = ra.union(&rb).unwrap();
        let inter = ra.intersect(&rb).unwrap();
        let diff = ra.difference(&rb).unwrap();
        let m_union: Model = ma.union(&mb).cloned().collect();
        let m_inter: Model = ma.intersection(&mb).cloned().collect();
        let m_diff: Model = ma.difference(&mb).cloned().collect();
        prop_assert_eq!(rows(&union), model_rows(&m_union));
        prop_assert_eq!(rows(&inter), model_rows(&m_inter));
        prop_assert_eq!(rows(&diff), model_rows(&m_diff));
        // An answer equal to an operand is that operand's storage.
        if m_union == ma {
            prop_assert!(union.ptr_eq(&ra));
        } else if m_union == mb {
            prop_assert!(union.ptr_eq(&rb));
        }
        if m_inter == ma {
            prop_assert!(inter.ptr_eq(&ra));
        } else if m_inter == mb {
            prop_assert!(inter.ptr_eq(&rb));
        }
        if m_diff == ma {
            prop_assert!(diff.ptr_eq(&ra));
        }
        // Against itself (shared storage) and the empty relation.
        let same = ra.clone();
        let empty = Relation::empty(2);
        prop_assert!(ra.union(&same).unwrap().ptr_eq(&ra));
        prop_assert!(ra.intersect(&same).unwrap().ptr_eq(&ra));
        prop_assert!(ra.difference(&same).unwrap().is_empty());
        prop_assert!(ra.union(&empty).unwrap().ptr_eq(&ra));
        prop_assert!(ra.is_empty() || empty.union(&ra).unwrap().ptr_eq(&ra));
        prop_assert!(ra.difference(&empty).unwrap().ptr_eq(&ra));
        prop_assert_eq!(rows(&ra.intersect(&empty).unwrap()), Vec::<Tuple>::new());
    }

    /// A column-0 range holds exactly the rows whose key lies in it, in
    /// order, for every bound kind and key type (cross-type bounds
    /// included).
    #[test]
    fn range_matches_the_model(rs in arb_rows(), lo in arb_bound(), hi in arb_bound()) {
        let model: Model = rs.iter().cloned().collect();
        let rel = Relation::from_rows(2, rs).unwrap();
        let kr = KeyRange { lo: lo.clone(), hi: hi.clone() };
        let want: Vec<Tuple> = model.iter().filter(|t| in_range(&t[0], &lo, &hi)).cloned().collect();
        prop_assert_eq!(rel.range(&kr).cloned().collect::<Vec<_>>(), want.clone());
        prop_assert_eq!(rel.range_slice(&kr), &want[..]);
    }
}
