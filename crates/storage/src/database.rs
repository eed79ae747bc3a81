//! Database states: total functions from relation names to relations.
//!
//! §3.1: "A (database) state is a function DB mapping every relation name
//! S ∈ Σ to a relation DB(S) of the appropriate arity." Undeclared names are
//! errors; declared names with no stored rows read as the empty relation of
//! the catalog arity.
//!
//! States are persistent snapshots: both the catalog and the binding map
//! are `Arc`-shared, so `clone()` is two pointer bumps and the first write
//! to a cloned state copies only the *map* (each entry an O(1)
//! shared-storage [`Relation`] clone) — never the tuples of untouched
//! relations. This is the storage half of the multi-scenario executor:
//! k hypothetical branches over an n-tuple base share the base physically.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use crate::error::StorageError;
use crate::index::IndexStats;
use crate::relation::Relation;
use crate::schema::{Catalog, RelName};
use crate::tuple::Tuple;

/// A database state over a fixed [`Catalog`].
///
/// Cloning is O(1); mutating a clone copies the binding map on first write
/// (O(#relations) pointer bumps), leaving all untouched relations
/// physically shared with the original.
#[derive(Clone, Debug)]
pub struct DatabaseState {
    catalog: Arc<Catalog>,
    rels: Arc<BTreeMap<RelName, Relation>>,
    /// Declared secondary indexes: relation → indexed columns. Physical
    /// metadata only — excluded from `PartialEq`, which compares the
    /// logical state function the paper quantifies over.
    indexes: Arc<BTreeMap<RelName, BTreeSet<usize>>>,
    /// Index hit and build counters, shared by every snapshot of this
    /// state (also physical metadata).
    index_stats: Arc<IndexStats>,
}

impl PartialEq for DatabaseState {
    fn eq(&self, other: &Self) -> bool {
        self.catalog == other.catalog && self.rels == other.rels
    }
}

impl Eq for DatabaseState {}

impl DatabaseState {
    /// The state mapping every declared relation to the empty relation.
    pub fn new(catalog: Catalog) -> Self {
        DatabaseState {
            catalog: Arc::new(catalog),
            rels: Arc::new(BTreeMap::new()),
            indexes: Arc::new(BTreeMap::new()),
            index_stats: Arc::default(),
        }
    }

    /// The schema this state is over.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Whether `self` and `other` physically share their entire binding
    /// map (implies equality of the stored bindings). Diagnostic/test hook
    /// for the copy-on-write contract.
    pub fn shares_storage_with(&self, other: &DatabaseState) -> bool {
        Arc::ptr_eq(&self.rels, &other.rels)
    }

    /// Read `DB(R)`. Errors if `R` is not declared.
    pub fn get(&self, name: &RelName) -> Result<Relation, StorageError> {
        let arity = self.catalog.arity(name)?;
        Ok(self
            .rels
            .get(name)
            .cloned()
            .unwrap_or_else(|| Relation::empty(arity)))
    }

    /// Borrowing read of `DB(R)` when rows exist; `None` either means empty
    /// or undeclared — use [`DatabaseState::get`] to distinguish.
    pub fn get_ref(&self, name: &RelName) -> Option<&Relation> {
        self.rels.get(name)
    }

    /// The functional update `DB[R ← V]` (§3.1): a new state identical to
    /// this one except that `R` maps to `value`.
    pub fn with_binding(
        &self,
        name: impl Into<RelName>,
        value: Relation,
    ) -> Result<DatabaseState, StorageError> {
        let name = name.into();
        let arity = self.catalog.arity(&name)?;
        if value.arity() != arity {
            return Err(StorageError::ArityMismatch {
                context: "state binding",
                expected: arity,
                found: value.arity(),
            });
        }
        let mut next = self.clone();
        if value.is_empty() {
            // Canonical form: a state is a *function*; an explicitly
            // stored empty relation and an absent one are the same state,
            // and PartialEq should agree. Only un-share the map if there
            // is actually an entry to drop.
            if next.rels.contains_key(&name) {
                Arc::make_mut(&mut next.rels).remove(&name);
            }
        } else {
            Arc::make_mut(&mut next.rels).insert(name, value);
        }
        Ok(next)
    }

    /// In-place variant of [`DatabaseState::with_binding`].
    pub fn set(&mut self, name: impl Into<RelName>, value: Relation) -> Result<(), StorageError> {
        let name = name.into();
        let arity = self.catalog.arity(&name)?;
        if value.arity() != arity {
            return Err(StorageError::ArityMismatch {
                context: "state binding",
                expected: arity,
                found: value.arity(),
            });
        }
        if value.is_empty() {
            if self.rels.contains_key(&name) {
                Arc::make_mut(&mut self.rels).remove(&name);
            }
        } else {
            Arc::make_mut(&mut self.rels).insert(name, value);
        }
        Ok(())
    }

    /// Insert one tuple into `R` (load helper for tests/examples/benches).
    pub fn insert_row(&mut self, name: impl Into<RelName>, row: Tuple) -> Result<(), StorageError> {
        let name = name.into();
        let arity = self.catalog.arity(&name)?;
        let rel = Arc::make_mut(&mut self.rels)
            .entry(name)
            .or_insert_with(|| Relation::empty(arity));
        rel.insert(row)?;
        Ok(())
    }

    /// Bulk-load rows into `R`, all or nothing: every row is checked
    /// against the catalog before any is inserted. The batch, in any order
    /// and with repeats, is sorted once and merged into the stored rows in
    /// one pass (a point insert would shift the stored rows per row).
    pub fn insert_rows(
        &mut self,
        name: impl Into<RelName> + Clone,
        rows: impl IntoIterator<Item = Tuple>,
    ) -> Result<(), StorageError> {
        let name = name.into();
        let arity = self.catalog.arity(&name)?;
        let batch = Relation::from_rows(arity, rows)?;
        let merged = self.get(&name)?.union(&batch)?;
        self.set(name, merged)
    }

    /// Declare a hash index on column `col` of `name`. Errors if `name`
    /// is undeclared or `col` is out of range for its arity. Returns
    /// whether the declaration is new.
    ///
    /// Declarations are *intent*, not data structures: the index itself is
    /// built lazily on first probe and cached in the relation's shared
    /// storage (see [`crate::index`]), so CoW snapshots made after
    /// this call inherit the declaration by pointer bump and share the
    /// built index for free.
    pub fn declare_index(
        &mut self,
        name: impl Into<RelName>,
        col: usize,
    ) -> Result<bool, StorageError> {
        let name = name.into();
        let arity = self.catalog.arity(&name)?;
        if col >= arity {
            return Err(StorageError::ArityMismatch {
                context: "index column out of range",
                expected: arity,
                found: col,
            });
        }
        Ok(Arc::make_mut(&mut self.indexes)
            .entry(name)
            .or_default()
            .insert(col))
    }

    /// Drop the index declaration on `(name, col)`. Returns whether it
    /// existed. The cached index (if built) dies with its storage; this
    /// only stops future probes from consulting it.
    pub fn undeclare_index(&mut self, name: &RelName, col: usize) -> bool {
        if !self.has_index(name, col) {
            // No-op: never un-share the registry map for nothing.
            return false;
        }
        let map = Arc::make_mut(&mut self.indexes);
        let Some(cols) = map.get_mut(name) else {
            return false;
        };
        let removed = cols.remove(&col);
        if cols.is_empty() {
            map.remove(name);
        }
        removed
    }

    /// Whether an index is declared on column `col` of `name`.
    pub fn has_index(&self, name: &RelName, col: usize) -> bool {
        self.indexes
            .get(name)
            .is_some_and(|cols| cols.contains(&col))
    }

    /// The columns of `name` with a declared index, sorted (empty when
    /// none).
    pub fn indexed_columns(&self, name: &RelName) -> Vec<usize> {
        self.indexes
            .get(name)
            .map(|cols| cols.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Iterate every index declaration as a `(relation, column)` pair.
    pub fn index_decls(&self) -> impl Iterator<Item = (&RelName, usize)> {
        self.indexes
            .iter()
            .flat_map(|(name, cols)| cols.iter().map(move |&c| (name, c)))
    }

    /// The index counters this state and its snapshots count into.
    pub fn index_stats(&self) -> &IndexStats {
        &self.index_stats
    }

    /// Count index probes into `from`'s counters from now on: a state
    /// rebuilt or reloaded on behalf of the same database keeps its
    /// counts.
    pub fn share_index_stats(&mut self, from: &DatabaseState) {
        self.index_stats = Arc::clone(&from.index_stats);
    }

    /// Total number of stored tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.rels.values().map(Relation::len).sum()
    }

    /// Iterate over (name, relation) pairs that have stored rows.
    pub fn iter(&self) -> impl Iterator<Item = (&RelName, &Relation)> {
        self.rels.iter()
    }
}

impl fmt::Display for DatabaseState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, schema) in self.catalog.iter() {
            let rel = self
                .rels
                .get(name)
                .cloned()
                .unwrap_or_else(|| Relation::empty(schema.arity));
            writeln!(f, "{name}/{} = {rel}", schema.arity)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn cat() -> Catalog {
        let mut c = Catalog::new();
        c.declare_arity("R", 2).unwrap();
        c.declare_arity("S", 1).unwrap();
        c
    }

    #[test]
    fn fresh_state_reads_empty() {
        let db = DatabaseState::new(cat());
        let r = db.get(&"R".into()).unwrap();
        assert!(r.is_empty());
        assert_eq!(r.arity(), 2);
        assert!(db.get(&"Z".into()).is_err());
    }

    #[test]
    fn with_binding_is_functional() {
        let db = DatabaseState::new(cat());
        let v = Relation::from_rows(2, [tuple![1, 2]]).unwrap();
        let db2 = db.with_binding("R", v.clone()).unwrap();
        assert!(db.get(&"R".into()).unwrap().is_empty());
        assert_eq!(db2.get(&"R".into()).unwrap(), v);
        // Other names unchanged.
        assert!(db2.get(&"S".into()).unwrap().is_empty());
    }

    #[test]
    fn binding_checks_arity_and_declaration() {
        let db = DatabaseState::new(cat());
        assert!(db.with_binding("R", Relation::empty(3)).is_err());
        assert!(db.with_binding("Z", Relation::empty(1)).is_err());
    }

    #[test]
    fn insert_rows_accumulates() {
        let mut db = DatabaseState::new(cat());
        db.insert_rows("S", [tuple![1], tuple![2], tuple![1]])
            .unwrap();
        assert_eq!(db.get(&"S".into()).unwrap().len(), 2);
        assert_eq!(db.total_tuples(), 2);
        assert!(db.insert_row("S", tuple![1, 2]).is_err());
    }

    #[test]
    fn insert_rows_is_all_or_nothing() {
        let mut db = DatabaseState::new(cat());
        db.insert_row("R", tuple![1, 2]).unwrap();
        let before = db.clone();
        let bad = [tuple![3, 4], tuple![5], tuple![6, 7]];
        assert!(matches!(
            db.insert_rows("R", bad),
            Err(StorageError::ArityMismatch { found: 1, .. })
        ));
        assert_eq!(db, before);
        assert!(db.insert_rows("Z", [tuple![1]]).is_err());
        assert_eq!(db, before);
    }

    #[test]
    fn insert_rows_merges_an_unsorted_batch_once() {
        let mut db = DatabaseState::new(cat());
        db.insert_rows("R", [tuple![2, 2], tuple![4, 4]]).unwrap();
        let before = db.get(&"R".into()).unwrap();
        // Unsorted, repeating itself, overlapping the stored rows.
        let batch = [
            tuple![5, 5],
            tuple![1, 1],
            tuple![4, 4],
            tuple![3, 3],
            tuple![1, 1],
            tuple![2, 2],
        ];
        db.insert_rows("R", batch).unwrap();
        let after = db.get(&"R".into()).unwrap();
        let rows: Vec<Tuple> = after.iter().cloned().collect();
        assert_eq!(rows, (1..=5).map(|k| tuple![k, k]).collect::<Vec<_>>());
        assert_eq!(db.total_tuples(), 5);
        // The stored rows it replaced are untouched.
        assert_eq!(before.len(), 2);
        // A batch of stored rows only keeps the storage shared.
        db.insert_rows("R", [tuple![3, 3], tuple![1, 1]]).unwrap();
        assert!(db.get(&"R".into()).unwrap().ptr_eq(&after));
    }

    #[test]
    fn clone_is_shared_until_write() {
        let mut db = DatabaseState::new(cat());
        db.insert_rows("S", [tuple![1], tuple![2]]).unwrap();
        db.insert_row("R", tuple![1, 2]).unwrap();

        let snap = db.clone();
        assert!(snap.shares_storage_with(&db), "clone must share the map");

        // Writing one relation in the clone un-shares the *map* but every
        // untouched relation must still share tuple storage with the base.
        let mut branch = db.clone();
        branch.insert_row("S", tuple![3]).unwrap();
        assert!(!branch.shares_storage_with(&db));
        let base_r = db.get_ref(&"R".into()).unwrap();
        let branch_r = branch.get_ref(&"R".into()).unwrap();
        assert!(
            base_r.ptr_eq(branch_r),
            "untouched relation must not be deep-copied by a state write"
        );
        // And the touched one diverged without disturbing the base.
        assert_eq!(db.get(&"S".into()).unwrap().len(), 2);
        assert_eq!(branch.get(&"S".into()).unwrap().len(), 3);
    }

    #[test]
    fn with_binding_shares_untouched_relations() {
        let mut db = DatabaseState::new(cat());
        db.insert_rows("S", [tuple![1]]).unwrap();
        db.insert_row("R", tuple![1, 2]).unwrap();
        let v = Relation::from_rows(1, [tuple![9]]).unwrap();
        let db2 = db.with_binding("S", v).unwrap();
        assert!(db
            .get_ref(&"R".into())
            .unwrap()
            .ptr_eq(db2.get_ref(&"R".into()).unwrap()));
    }

    #[test]
    fn noop_empty_binding_keeps_sharing() {
        let db = DatabaseState::new(cat());
        let db2 = db.with_binding("R", Relation::empty(2)).unwrap();
        assert!(
            db2.shares_storage_with(&db),
            "removing an absent entry is a no-op"
        );
    }

    #[test]
    fn index_declarations_validate_and_inherit() {
        let mut db = DatabaseState::new(cat());
        assert!(db.declare_index("R", 1).unwrap());
        assert!(!db.declare_index("R", 1).unwrap(), "re-declare is a no-op");
        assert!(db.declare_index("R", 2).is_err(), "column out of range");
        assert!(db.declare_index("Z", 0).is_err(), "unknown relation");
        assert!(db.has_index(&"R".into(), 1));
        assert_eq!(db.indexed_columns(&"R".into()), vec![1]);
        assert_eq!(db.indexed_columns(&"S".into()), Vec::<usize>::new());

        // CoW snapshots inherit declarations.
        let snap = db.clone();
        assert!(snap.has_index(&"R".into(), 1));
        assert_eq!(snap.index_decls().count(), 1);

        assert!(db.undeclare_index(&"R".into(), 1));
        assert!(!db.undeclare_index(&"R".into(), 1));
        assert!(!db.has_index(&"R".into(), 1));
        // The snapshot's registry is isolated from the drop.
        assert!(snap.has_index(&"R".into(), 1));
    }

    #[test]
    fn index_declarations_do_not_affect_state_equality() {
        let mut a = DatabaseState::new(cat());
        let b = a.clone();
        a.declare_index("R", 0).unwrap();
        assert_eq!(a, b, "indexes are physical metadata, not state");
    }

    #[test]
    fn display_lists_catalog_order() {
        let mut db = DatabaseState::new(cat());
        db.insert_row("S", tuple![5]).unwrap();
        let s = db.to_string();
        assert!(s.contains("R/2 = {}"));
        assert!(s.contains("S/1 = {(5)}"));
    }
}
