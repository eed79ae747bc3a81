//! The pipelined physical operator layer.
//!
//! Every strategy on the paper's eager↔lazy spectrum — pure RA (lazy),
//! ENF filtering (HQL-1/HQL-2), and mod-ENF delta filtering (HQL-3) —
//! bottoms out in the same relational work: scans, selections,
//! projections, joins, set operations. The legacy evaluators
//! ([`crate::direct`], [`crate::filter1`](mod@crate::filter1), [`crate::filter2`](mod@crate::filter2),
//! [`crate::filter3`](mod@crate::filter3)) each implement that work as a recursive tree walk
//! that materializes a full [`Relation`] at *every* node. This module
//! replaces all of them on the default path with one executable IR,
//! [`PhysPlan`], whose operators stream tuples through a pipeline:
//! selections, projections, join probe sides, and delta-filtered scans
//! never materialize an intermediate result.
//!
//! # Execution model
//!
//! Operators execute in the Volcano spirit (one row at a time through an
//! operator tree), realized **push-based**: each operator drives its
//! children and hands produced rows to a consumer callback. Push
//! composition sidesteps the self-referential-iterator problem that a
//! pull-based design hits with `Arc`-shared relation storage, while
//! keeping the same pipelining property — a row flows from its scan
//! through every streaming operator above it before the next row is
//! produced. A scan reads its relation's sorted tuple slice (or the
//! column-0 sub-slice of a range) front to back.
//!
//! Two operators pull instead: [`PhysOp::MergeJoin`] and
//! [`PhysOp::GroupJoin`]. Their operands are *ordered sources*
//! ([`is_ordered_source`]) — a scan, or filters over one — whose rows
//! arrive in column-0 order, so they resolve both scans in their own
//! frame, hold their two iterators (the same [`effective_iter`] streams a
//! `Scan` pushes), and advance whichever is behind; both share one walk
//! (`merge_runs`), which hands each right row its run of equal-key left
//! rows. They count each child's `rows_out` as they pull. The merge join
//! pushes each pair of the run on; the group join folds the run whole into
//! its aggregates and pushes only its groups.
//!
//! A row is handed on as a borrowed *view* (`RowView`), not a tuple: a
//! stored tuple, a join pair of two views, or a projection of a view.
//! Filters, projections, joins (hash, nested-loop and merge) and unions
//! pass views on and allocate nothing per row; predicates, key hashing
//! and aggregate accumulators read columns through the
//! [`Row`] trait that both views and tuples implement. A three-way join's
//! row is a pair whose one side is itself a pair, read in place.
//!
//! # Where tuples are built
//!
//! A view lives only for the consumer call it is passed to, so a tuple is
//! built exactly where a row outlives that call — a pipeline *breaker* or
//! the output:
//!
//! * a hash join's build side (and a nested loop's build rows);
//! * `Dedup`'s seen set and the seen set of an `Aggregate` over a
//!   non-[`distinct`](PhysNode::distinct) input — looked up by view first,
//!   built only on a miss;
//! * the right operand of `Diff`/`Intersect`, likewise built only for a
//!   row not seen before;
//! * the bindings of [`PhysOp::XsubRebind`] and the atoms of
//!   [`PhysOp::DeltaApply`], materialized into relations;
//! * the plan sink, which collects the result relation.
//!
//! Building a view of a stored tuple shares it (a reference-count bump);
//! building a join pair or a projection allocates one tuple. `Aggregate`
//! and `GroupJoin` keep no input row at all, only each group's key values
//! and running accumulators. Every build is counted in [`OpStats::built`]
//! of the operator whose output row was kept, so `EXPLAIN ANALYZE` shows
//! where materialization happens. Set semantics are restored at every breaker
//! and at the output — streaming segments may carry duplicates in flight
//! (see [`PhysOp::Dedup`] for where the lowering chooses to collapse them
//! early).
//!
//! # Duplicate-freedom
//!
//! Each node carries a static [`PhysNode::distinct`] flag: `true` when
//! its output stream provably never repeats a row. Sources, `Dedup`,
//! `Aggregate` and `GroupJoin` are distinct; filters, set
//! differences/intersections and the hypothetical wrappers inherit it
//! from their streaming input; joins
//! are distinct when every streamed input is; `Project` and `Union` are
//! not. The lowering puts a `Dedup` under a join operand exactly when the
//! operand is not distinct, and `Aggregate` folds a distinct input
//! straight into its accumulators, skipping its own dedup set.
//!
//! # Hash tables
//!
//! Every operator that finds rows by key uses one table,
//! [`KeyedRows`]: an arena of rows plus a chained hash table over their
//! key columns, hashed in place with a per-table keyed SipHash and
//! compared on a hash match, so no operator allocates a key per row. It
//! is the hash join's build side, the stored index a *stored* hash join
//! takes in its place (cached in the relation's storage), that index's
//! per-execution delta patch, and — keyed on whole rows — every seen set
//! (`Dedup`, a non-distinct `Aggregate`, the right operand of
//! `Diff`/`Intersect`). A hash join probes either table through one
//! routine (`JoinProbe`). The aggregate's groups use the bare chained
//! table. The merge and group joins build no
//! table at all: equal keys meet because both inputs are sorted, and the
//! one thing they keep is the current key's run of left rows, as
//! references; the group join's groups arrive in key order, so it needs
//! no group table either.
//!
//! # Hypothetical operators
//!
//! The two `when` strategies become plan operators instead of separate
//! interpreters:
//!
//! * [`PhysOp::XsubRebind`] is `filter1`'s `when` rule: materialize an
//!   explicit substitution's bindings under the *current* environment,
//!   smash, and run the body with base scans rebound — HQL-1 and HQL-2
//!   lower to identical plans, which is the point: the distinction
//!   between them is traversal bookkeeping that dissolves in a physical
//!   IR.
//! * [`PhysOp::DeltaApply`] is `filter3`'s atomic-update rule: each
//!   atom's source query is evaluated under the accumulated delta, the
//!   resulting [`RelDelta`]s are smashed left-to-right, and the body's
//!   base scans stream `(base − ∇) ∪ Δ` via [`effective_iter`] without
//!   materializing the hypothetical state. A [`PhysOp::MergeJoin`] or
//!   [`PhysOp::GroupJoin`] walks two such streams side by side (the
//!   paper's sort-merge `join-when`, with no sort: every stream is already
//!   in order). A stored [`PhysOp::HashJoin`] on an updated name probes
//!   the stored index and patches the matches of each probe key with the
//!   ∇ and Δ rows of that key.
//!
//! # Instrumentation
//!
//! Every plan runs one way: [`PhysPlan::execute`] is
//! [`PhysPlan::execute_analyze`] with the metrics dropped. An operator
//! counts only what cannot be derived afterwards — the rows it pushes on
//! ([`OpStats::rows_out`], a `Cell` bump each) and the rows of its output
//! that are built ([`OpStats::built`]). [`OpStats::rows_in`] is derived
//! from the plan's shape: the sum of `rows_out` over the inputs an
//! operator consumes. No operator reads a clock; `EXPLAIN ANALYZE` times
//! the phases around execution instead, where one pair of clock reads
//! costs nothing next to the work it measures.

use std::borrow::Cow;
use std::cell::Cell;
use std::cmp::Ordering;
use std::fmt::Write as _;
use std::sync::Arc;

use hypoquery_storage::{
    lookup_or_build_index, DatabaseState, KeyRange, KeyedRows, RelName, Relation, Row, Tuple, Value,
};

use hypoquery_algebra::{AggExpr, Predicate};

use crate::aggregate::{AggState, RunFold};
use crate::delta::{effective_iter, DeltaValue, RelDelta};
use crate::error::EvalError;
use crate::join::EquiPair;
use crate::view::RowView;
use crate::xsub::XsubValue;

/// Which operand of a binary operator plays a given role.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Side {
    /// The left operand.
    Left,
    /// The right operand.
    Right,
}

impl Side {
    /// The other side.
    pub fn flip(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }

    /// Whichever of `left` and `right` this side names.
    pub fn pick<T>(self, left: T, right: T) -> T {
        match self {
            Side::Left => left,
            Side::Right => right,
        }
    }
}

/// An atom of a [`PhysOp::DeltaApply`]: one `insert into`/`delete from`
/// whose source rows come from a sub-plan.
#[derive(Clone, Debug)]
pub struct DeltaAtom {
    /// The updated relation.
    pub name: RelName,
    /// `true` for an insertion, `false` for a deletion.
    pub insert: bool,
    /// Plan producing the inserted/deleted rows.
    pub input: PhysNode,
}

/// A physical operator. Children are embedded [`PhysNode`]s.
#[derive(Clone, Debug)]
pub enum PhysOp {
    /// Stream a base relation: its xsub binding in the environment
    /// (whole-relation replacement), else the stored base, merged with
    /// any delta binding via the streaming three-way merge of
    /// [`effective_iter`]. With a `range`, every one of those sorted
    /// relations is walked only over its column-0 slice
    /// ([`Relation::range`]); any relation the name resolves to is sorted,
    /// so no shadow gate applies.
    Scan {
        /// The relation scanned.
        name: RelName,
        /// Column-0 range to walk; `None` walks everything. Exactly the
        /// rows the range bounds; the lowering puts a `Filter` above it
        /// when the selection also tests something else.
        range: Option<KeyRange>,
    },
    /// Probe a declared single-column index of an (unrebound) base
    /// relation with a point value, re-applying the full predicate to
    /// candidates. Only lowered when static shadow analysis proves no
    /// enclosing hypothetical operator can rebind `name`.
    IndexProbe {
        /// The indexed base relation.
        name: RelName,
        /// Indexed column probed.
        col: usize,
        /// Probe key.
        value: Value,
        /// Full selection predicate (re-checked on candidates).
        pred: Predicate,
    },
    /// Stream a constant relation (singletons, empties).
    Const {
        /// The constant value.
        rel: Relation,
    },
    /// Streaming selection `σ_pred`.
    Filter {
        /// Input plan.
        input: Box<PhysNode>,
        /// Selection predicate.
        pred: Predicate,
    },
    /// Streaming projection `π_cols` (may reorder/duplicate columns).
    Project {
        /// Input plan.
        input: Box<PhysNode>,
        /// Output column positions.
        cols: Vec<usize>,
    },
    /// Hash join (or, with no equi pairs, a nested-loop product). The
    /// `build` side is materialized into a hash table (resp. vector);
    /// the other side streams through as the probe. Output columns are
    /// always `left ++ right` regardless of build side.
    ///
    /// A `stored` join (an index join) does not run its build child, a
    /// whole `Scan` of a base relation that no xsub rebinds with declared
    /// indexes on its equi columns: it probes the relation's cached index
    /// instead — the same [`KeyedRows`] table a build makes. A delta on
    /// that name in scope patches each probe's matches: the ∇ rows of its
    /// key are dropped and the Δ⁺ rows of its key added (§5.5's
    /// `join-when`), found with the probe's one hash.
    HashJoin {
        /// Left operand.
        left: Box<PhysNode>,
        /// Right operand.
        right: Box<PhysNode>,
        /// Cross-side equality columns (`right` rebased).
        pairs: Vec<EquiPair>,
        /// Residual conjuncts over the concatenated tuple.
        residual: Vec<Predicate>,
        /// Which side is materialized.
        build: Side,
        /// Whether the build side's table is its relation's stored index.
        stored: bool,
    },
    /// Merge join on column 0 of two *ordered sources* (see
    /// [`is_ordered_source`]): a `Scan`, or a `Filter` over one, whose
    /// rows arrive in column-0 order — every relation a scan resolves to
    /// is sorted, and [`effective_iter`] merges a delta in order.
    /// It pulls instead of being pushed to (as does the group join): it
    /// walks both streams by key in its own frame, keeps the left side's
    /// run of rows with the current key as references, and pushes each
    /// pair that passes `residual` on as a view, so it hashes and builds
    /// nothing (§5.5's sort-merge `join-when`, with no sort). Output
    /// columns are `left ++ right`.
    MergeJoin {
        /// Left operand (an ordered source).
        left: Box<PhysNode>,
        /// Right operand (an ordered source).
        right: Box<PhysNode>,
        /// Residual conjuncts over the concatenated tuple, among them any
        /// equi pair other than column 0 of both sides.
        residual: Vec<Predicate>,
    },
    /// Grouped aggregation over a residual-free [`PhysOp::MergeJoin`] of
    /// the same operands, grouped by nothing or by the key columns only
    /// (`#0` and `#left.arity`): the groupjoin of Moerkotte & Neumann,
    /// with no sort. It walks the operands exactly as the merge join does,
    /// but folds each right row with its whole run of left rows into the
    /// accumulators — the run's size, its precomputed sum, or
    /// `size × value` — so no pair is built, pushed or even formed. Groups
    /// come out in key order. A full pipeline breaker, like `Aggregate`.
    GroupJoin {
        /// Left operand (an ordered source).
        left: Box<PhysNode>,
        /// Right operand (an ordered source).
        right: Box<PhysNode>,
        /// Grouping columns, each `0` or `left.arity`, over `left ++ right`.
        group_by: Vec<usize>,
        /// Aggregates per group, over `left ++ right`.
        aggs: Vec<AggExpr>,
    },
    /// Streaming union (both children pushed through; duplicates collapse
    /// at the next breaker or the sink).
    Union {
        /// Left operand.
        left: Box<PhysNode>,
        /// Right operand.
        right: Box<PhysNode>,
    },
    /// Set difference; the right side is materialized, the left streams.
    Diff {
        /// Left operand (streams).
        left: Box<PhysNode>,
        /// Right operand (materialized).
        right: Box<PhysNode>,
    },
    /// Set intersection; the right side is materialized, the left streams.
    Intersect {
        /// Left operand (streams).
        left: Box<PhysNode>,
        /// Right operand (materialized).
        right: Box<PhysNode>,
    },
    /// Explicit duplicate elimination. Not required for correctness (set
    /// semantics are restored at every pipeline breaker); the lowering
    /// inserts one where letting duplicates flow would multiply work,
    /// e.g. under a join operand whose stream may carry duplicates.
    Dedup {
        /// Input plan.
        input: Box<PhysNode>,
    },
    /// Grouped aggregation (§6 extension). A full pipeline breaker that
    /// folds each input row into its group's running accumulators
    /// (`AggState`); only a non-[`distinct`](PhysNode::distinct) input
    /// first passes a dedup set, restoring set semantics for `COUNT` and
    /// `SUM`.
    Aggregate {
        /// Input plan.
        input: Box<PhysNode>,
        /// Grouping columns.
        group_by: Vec<usize>,
        /// Aggregates per group.
        aggs: Vec<AggExpr>,
    },
    /// `filter1`'s `when ε`: materialize each binding under the current
    /// environment, smash onto the xsub value, run the body (with the
    /// deltas in scope dropped for the rebound names — the bindings
    /// already saw them).
    XsubRebind {
        /// Bindings `Qᵢ/Rᵢ`, each a sub-plan.
        bindings: Vec<(RelName, PhysNode)>,
        /// Body plan, whose scans see the rebindings.
        body: Box<PhysNode>,
    },
    /// `filter3`'s `when {U}` for an atomic-update sequence: fold the
    /// atoms into a delta value (each atom evaluated under the
    /// accumulated delta), run the body with scans delta-filtered.
    DeltaApply {
        /// The flattened atomic updates, in order.
        atoms: Vec<DeltaAtom>,
        /// Body plan, whose scans see the accumulated delta.
        body: Box<PhysNode>,
    },
}

/// The operator-to-children match, written once and expanded for both
/// shared (`iter`) and exclusive (`iter_mut`, `mut`) borrows.
macro_rules! child_nodes {
    ($op:expr, $iter:ident $(, $mut:tt)?) => {
        match $op {
            PhysOp::Scan { .. } | PhysOp::IndexProbe { .. } | PhysOp::Const { .. } => Vec::new(),
            PhysOp::Filter { input, .. }
            | PhysOp::Project { input, .. }
            | PhysOp::Dedup { input }
            | PhysOp::Aggregate { input, .. } => vec![input],
            PhysOp::HashJoin { left, right, .. }
            | PhysOp::MergeJoin { left, right, .. }
            | PhysOp::GroupJoin { left, right, .. }
            | PhysOp::Union { left, right }
            | PhysOp::Diff { left, right }
            | PhysOp::Intersect { left, right } => vec![left, right],
            PhysOp::XsubRebind { bindings, body } => bindings
                .$iter()
                .map(|(_, n)| n)
                .chain(std::iter::once(&$($mut)? **body))
                .collect(),
            PhysOp::DeltaApply { atoms, body } => atoms
                .$iter()
                .map(|a| &$($mut)? a.input)
                .chain(std::iter::once(&$($mut)? **body))
                .collect(),
        }
    };
}

/// A node of a physical plan: an operator plus its plan-wide id (index
/// into the metrics table), output arity and duplicate-freedom.
#[derive(Clone, Debug)]
pub struct PhysNode {
    /// Dense per-plan id, assigned by [`PhysPlan::new`].
    pub id: usize,
    /// Output arity.
    pub arity: usize,
    /// Whether the output stream provably never repeats a row, computed
    /// from the children by [`PhysNode::new`].
    pub distinct: bool,
    /// The operator.
    pub op: PhysOp,
}

impl PhysNode {
    /// A node with the given output arity; its `id` is assigned when the
    /// node is installed into a [`PhysPlan`].
    pub fn new(arity: usize, op: PhysOp) -> PhysNode {
        let distinct = match &op {
            PhysOp::Scan { .. }
            | PhysOp::IndexProbe { .. }
            | PhysOp::Const { .. }
            | PhysOp::Dedup { .. }
            | PhysOp::Aggregate { .. }
            | PhysOp::GroupJoin { .. } => true,
            PhysOp::Filter { input, .. } => input.distinct,
            PhysOp::Diff { left, .. } | PhysOp::Intersect { left, .. } => left.distinct,
            PhysOp::XsubRebind { body, .. } | PhysOp::DeltaApply { body, .. } => body.distinct,
            // Distinct pairs of input rows concatenate to distinct rows
            // (a stored join's table is a base relation, or one patched
            // by a delta: still a set).
            PhysOp::HashJoin { left, right, .. } | PhysOp::MergeJoin { left, right, .. } => {
                left.distinct && right.distinct
            }
            PhysOp::Project { .. } | PhysOp::Union { .. } => false,
        };
        PhysNode {
            id: 0,
            arity,
            distinct,
            op,
        }
    }

    fn children(&self) -> Vec<&PhysNode> {
        child_nodes!(&self.op, iter)
    }

    fn children_mut(&mut self) -> Vec<&mut PhysNode> {
        child_nodes!(&mut self.op, iter_mut, mut)
    }
}

/// An executable physical plan.
#[derive(Clone, Debug)]
pub struct PhysPlan {
    /// Root operator.
    pub root: PhysNode,
    /// Number of nodes (ids are `0..node_count`, pre-order).
    pub node_count: usize,
}

impl PhysPlan {
    /// Install `root` as a plan, assigning dense pre-order ids.
    pub fn new(mut root: PhysNode) -> PhysPlan {
        fn assign(n: &mut PhysNode, next: &mut usize) {
            n.id = *next;
            *next += 1;
            for c in n.children_mut() {
                assign(c, next);
            }
        }
        let mut next = 0;
        assign(&mut root, &mut next);
        PhysPlan {
            root,
            node_count: next,
        }
    }

    /// Output arity of the plan.
    pub fn arity(&self) -> usize {
        self.root.arity
    }

    /// Execute against `db`, returning the result relation.
    pub fn execute(&self, db: &DatabaseState) -> Result<Relation, EvalError> {
        self.execute_analyze(db).map(|(rel, _)| rel)
    }

    /// Execute against `db`, returning the result relation and each
    /// operator's row counts.
    pub fn execute_analyze(
        &self,
        db: &DatabaseState,
    ) -> Result<(Relation, ExecMetrics), EvalError> {
        let ctx = Ctx {
            db,
            ctrs: (0..self.node_count).map(|_| NodeCtr::default()).collect(),
        };
        let env = Env::empty();
        // Buffer rows and build the result set once: one sort and dedup,
        // far cheaper than a per-row sorted insert.
        let mut out: Vec<Tuple> = Vec::new();
        run(&self.root, &ctx, &env, &mut |v| {
            out.push(ctx.keep(self.root.id, v));
            Ok(())
        })?;
        let rel = Relation::from_tuple_set(self.root.arity, out)?;
        Ok((rel, ctx.into_metrics(&self.root)))
    }

    /// Render the plan tree, one operator per line. With `metrics`, each
    /// line carries `rows in/out` and `built` — the `EXPLAIN ANALYZE`
    /// output.
    pub fn render(&self, metrics: Option<&ExecMetrics>) -> String {
        let mut s = String::new();
        render_node(&self.root, 0, metrics, &mut s);
        s
    }
}

/// Per-operator execution statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Tuples received from the inputs the operator consumes: every
    /// child but the body of an `XsubRebind`/`DeltaApply`, whose rows
    /// pass through uncounted (0 for sources).
    pub rows_in: u64,
    /// Tuples pushed to the parent.
    pub rows_out: u64,
    /// Rows of this operator's output that were built into owned tuples
    /// because a consumer keeps them: a hash join's build side, a dedup
    /// set, a `Diff`/`Intersect` right operand, an xsub binding, a delta
    /// atom, or the plan sink. A join's or projection's row that streams
    /// on as a view counts none (a kept stored row is shared, not copied).
    pub built: u64,
}

/// Execution statistics for every operator of a plan, indexed by node id.
#[derive(Clone, Debug, Default)]
pub struct ExecMetrics {
    per_node: Vec<OpStats>,
}

impl ExecMetrics {
    /// Statistics for node `id`.
    pub fn node(&self, id: usize) -> &OpStats {
        &self.per_node[id]
    }

    /// Number of instrumented nodes.
    pub fn len(&self) -> usize {
        self.per_node.len()
    }

    /// Whether there are no instrumented nodes.
    pub fn is_empty(&self) -> bool {
        self.per_node.is_empty()
    }
}

// ---------------------------------------------------------------------
// Execution internals
// ---------------------------------------------------------------------

/// The runtime environment threaded down the operator tree: the current
/// xsub rebindings and delta bindings, extended by the hypothetical
/// wrapper operators. Push execution is synchronous recursion, so plain
/// references suffice — no shared ownership.
#[derive(Clone)]
struct Env {
    xsub: XsubValue,
    delta: DeltaValue,
}

impl Env {
    fn empty() -> Env {
        Env {
            xsub: XsubValue::empty(),
            delta: DeltaValue::empty(),
        }
    }
}

#[derive(Default)]
struct NodeCtr {
    rows_out: Cell<u64>,
    built: Cell<u64>,
}

struct Ctx<'a> {
    db: &'a DatabaseState,
    ctrs: Vec<NodeCtr>,
}

impl Ctx<'_> {
    #[inline]
    fn row_out(&self, id: usize) {
        let c = &self.ctrs[id].rows_out;
        c.set(c.get() + 1);
    }

    /// Keep a row of node `producer`'s output as an owned tuple, counting
    /// it in `producer`'s [`OpStats::built`].
    #[inline]
    fn keep(&self, producer: usize, row: &RowView<'_>) -> Tuple {
        let c = &self.ctrs[producer].built;
        c.set(c.get() + 1);
        row.to_tuple()
    }

    /// The counters as statistics, each operator's `rows_in` summed from
    /// the `rows_out` of the inputs it consumes.
    fn into_metrics(self, root: &PhysNode) -> ExecMetrics {
        fn derive(n: &PhysNode, per_node: &mut [OpStats]) {
            let kids = n.children();
            // A wrapper's body, its last child, passes through uncounted.
            let inputs = match n.op {
                PhysOp::XsubRebind { .. } | PhysOp::DeltaApply { .. } => kids.len() - 1,
                _ => kids.len(),
            };
            per_node[n.id].rows_in = kids[..inputs].iter().map(|c| per_node[c.id].rows_out).sum();
            for c in kids {
                derive(c, per_node);
            }
        }
        let mut per_node: Vec<OpStats> = self
            .ctrs
            .into_iter()
            .map(|c| OpStats {
                rows_in: 0,
                rows_out: c.rows_out.get(),
                built: c.built.get(),
            })
            .collect();
        derive(root, &mut per_node);
        ExecMetrics { per_node }
    }
}

/// The row consumer operators push into. The view lives only for the
/// call; a consumer that keeps the row builds a tuple ([`Ctx::keep`]).
type Sink<'s> = dyn FnMut(&RowView<'_>) -> Result<(), EvalError> + 's;

/// Drain a source iterator into `out` as node `id`'s output. Generic so
/// the common direct-scan path is monomorphized with no boxed-iterator
/// indirection.
fn scan_emit<'a>(
    id: usize,
    ctx: &Ctx<'_>,
    it: impl Iterator<Item = &'a Tuple>,
    out: &mut Sink<'_>,
) -> Result<(), EvalError> {
    for t in it {
        ctx.row_out(id);
        out(&RowView::Stored(t))?;
    }
    Ok(())
}

fn run(node: &PhysNode, ctx: &Ctx<'_>, env: &Env, out: &mut Sink<'_>) -> Result<(), EvalError> {
    let id = node.id;
    match &node.op {
        PhysOp::Scan { name, range } => {
            let base = scan_base(name, ctx, env)?;
            let base = &*base;
            // The delta-free cases skip the merge's checks per row.
            match (env.delta.get(name), range) {
                (None, None) => scan_emit(id, ctx, base.iter(), out),
                (None, Some(r)) => scan_emit(id, ctx, base.range(r), out),
                (delta, range) => {
                    scan_emit(id, ctx, effective_iter(base, delta, range.as_ref()), out)
                }
            }
        }
        PhysOp::IndexProbe {
            name,
            col,
            value,
            pred,
        } => {
            let base = ctx.db.get(name)?;
            let idx = lookup_or_build_index(&base, &[*col], ctx.db.index_stats());
            for t in idx.matches(&Tuple::new([value.clone()]), &[0]) {
                if pred.eval(t) {
                    ctx.row_out(id);
                    out(&RowView::Stored(t))?;
                }
            }
            Ok(())
        }
        PhysOp::Const { rel } => {
            for t in rel.iter() {
                ctx.row_out(id);
                out(&RowView::Stored(t))?;
            }
            Ok(())
        }
        PhysOp::Filter { input, pred } => run(input, ctx, env, &mut |v| {
            if pred.eval(v) {
                ctx.row_out(id);
                out(v)
            } else {
                Ok(())
            }
        }),
        PhysOp::Project { input, cols } => run(input, ctx, env, &mut |v| {
            ctx.row_out(id);
            out(&RowView::Project { input: v, cols })
        }),
        PhysOp::HashJoin {
            left,
            right,
            pairs,
            residual,
            build,
            stored,
        } => {
            // The build rows are kept in a keyed table, or a stored join
            // takes its relation's index; the other side streams through
            // as probes, on the opposite side of the output. No equi
            // pairs means no key: a nested loop.
            let probe_side = build.flip();
            let (build_child, probe_child) =
                (build.pick(left, right), probe_side.pick(left, right));
            let cols = |side: Side| -> Vec<usize> {
                pairs.iter().map(|p| side.pick(p.left, p.right)).collect()
            };
            let (table, patch) = if *stored {
                let PhysOp::Scan { name, range: None } = &build_child.op else {
                    return Err(EvalError::UnsupportedShape(format!(
                        "stored join side {} is not a whole base scan",
                        op_label(build_child)
                    )));
                };
                // The lowering never stores an xsub-rebound name: a
                // binding replaces the stored base whose index this reads.
                debug_assert!(
                    env.xsub.get(name).is_none(),
                    "stored join on xsub-rebound {name}"
                );
                let base = ctx.db.get(name)?;
                let index = lookup_or_build_index(&base, &cols(*build), ctx.db.index_stats());
                let patch = env.delta.get(name).map(|d| DeltaPatch::new(&index, d));
                (index, patch)
            } else {
                let mut table = KeyedRows::new(cols(*build));
                run(build_child, ctx, env, &mut |v| {
                    table.push(ctx.keep(build_child.id, v));
                    Ok(())
                })?;
                (Arc::new(table), None)
            };
            let join = JoinProbe {
                id,
                table: &table,
                patch,
                cols: &cols(probe_side),
                side: probe_side,
                residual,
            };
            run(probe_child, ctx, env, &mut |v| join.probe(ctx, v, out))
        }
        PhysOp::MergeJoin {
            left,
            right,
            residual,
        } => {
            let (l, r) = (
                OrderedSource::new(left, ctx, env)?,
                OrderedSource::new(right, ctx, env)?,
            );
            merge_runs(l.rows(ctx), r.rows(ctx), |run, _, t| {
                let right_row = RowView::Stored(t);
                for m in run {
                    let left_row = RowView::Stored(m);
                    let joined = RowView::pair(&left_row, &right_row);
                    if residual.iter().all(|p| p.eval(&joined)) {
                        ctx.row_out(id);
                        out(&joined)?;
                    }
                }
                Ok(())
            })
        }
        PhysOp::GroupJoin {
            left,
            right,
            group_by,
            aggs,
        } => {
            let (l, r) = (
                OrderedSource::new(left, ctx, env)?,
                OrderedSource::new(right, ctx, env)?,
            );
            let mut fold = RunFold::new(group_by, aggs, left.arity);
            merge_runs(l.rows(ctx), r.rows(ctx), |run, fresh, t| {
                fold.push(run, fresh, t)
            })?;
            for t in fold.finish()?.iter() {
                ctx.row_out(id);
                out(&RowView::Stored(t))?;
            }
            Ok(())
        }
        PhysOp::Union { left, right } => {
            for child in [left.as_ref(), right.as_ref()] {
                run(child, ctx, env, &mut |v| {
                    ctx.row_out(id);
                    out(v)
                })?;
            }
            Ok(())
        }
        PhysOp::Diff { left, right } | PhysOp::Intersect { left, right } => {
            let keep_present = matches!(node.op, PhysOp::Intersect { .. });
            // The right operand is probed per left row, so O(1)
            // membership beats a binary search.
            let mut rset = KeyedRows::set(right.arity);
            run(right, ctx, env, &mut |v| {
                rset.insert_with(v, |v| ctx.keep(right.id, v));
                Ok(())
            })?;
            run(left, ctx, env, &mut |v| {
                if rset.contains(v) == keep_present {
                    ctx.row_out(id);
                    out(v)
                } else {
                    Ok(())
                }
            })
        }
        PhysOp::Dedup { input } => {
            let mut seen = KeyedRows::set(input.arity);
            run(input, ctx, env, &mut |v| {
                if !seen.insert_with(v, |v| ctx.keep(input.id, v)) {
                    return Ok(());
                }
                ctx.row_out(id);
                out(v)
            })
        }
        PhysOp::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let mut st = AggState::new(group_by, aggs);
            if input.distinct {
                run(input, ctx, env, &mut |v| st.push(v))?;
            } else {
                let mut seen = KeyedRows::set(input.arity);
                run(input, ctx, env, &mut |v| {
                    if seen.insert_with(v, |v| ctx.keep(input.id, v)) {
                        st.push(v)
                    } else {
                        Ok(())
                    }
                })?;
            }
            let result = st.finish()?;
            for t in result.iter() {
                ctx.row_out(id);
                out(&RowView::Stored(t))?;
            }
            Ok(())
        }
        PhysOp::XsubRebind { bindings, body } => {
            // filter1's `when` rule: materialize bindings under the
            // *current* environment, then smash.
            let mut f = XsubValue::empty();
            for (name, plan) in bindings {
                f.bind(name.clone(), materialize(plan, ctx, env)?);
            }
            // The bindings already saw the deltas in scope; the body must
            // not apply those deltas to the rebound names a second time.
            let kept = env.delta.iter().filter(|(n, _)| f.get(n).is_none());
            let inner = Env {
                xsub: env.xsub.smash(&f),
                delta: DeltaValue::new(kept.map(|(n, d)| (n.clone(), d.clone()))),
            };
            run(body, ctx, &inner, &mut |v| {
                ctx.row_out(id);
                out(v)
            })
        }
        PhysOp::DeltaApply { atoms, body } => {
            // filter3's update rule, with the Seq recursion unrolled:
            // atom i sees the incoming delta smashed with the deltas of
            // atoms 0..i.
            let mut acc = DeltaValue::empty();
            for atom in atoms {
                let inner = Env {
                    xsub: env.xsub.clone(),
                    delta: env.delta.smash(&acc)?,
                };
                let rel = materialize(&atom.input, ctx, &inner)?;
                let d = if atom.insert {
                    RelDelta::insertion(rel)
                } else {
                    RelDelta::deletion(rel)
                };
                let step = DeltaValue::new([(atom.name.clone(), d)]);
                acc = acc.smash(&step)?;
            }
            let inner = Env {
                xsub: env.xsub.clone(),
                delta: env.delta.smash(&acc)?,
            };
            run(body, ctx, &inner, &mut |v| {
                ctx.row_out(id);
                out(v)
            })
        }
    }
}

/// The relation a scan of `name` reads before any delta: its xsub binding
/// in `env`, else the stored base. A delta in scope applies on top of an
/// xsub binding: the binding was made outside it (`XsubRebind` drops the
/// deltas its bindings already saw).
fn scan_base<'e>(
    name: &RelName,
    ctx: &Ctx<'_>,
    env: &'e Env,
) -> Result<Cow<'e, Relation>, EvalError> {
    Ok(match env.xsub.get(name) {
        Some(rel) => Cow::Borrowed(rel),
        None => Cow::Owned(ctx.db.get(name)?),
    })
}

/// Whether `node` is an *ordered source*, an operand a
/// [`PhysOp::MergeJoin`] can pull in column-0 order: a `Scan` (ranged or
/// not), or a `Filter` over an ordered source.
pub fn is_ordered_source(node: &PhysNode) -> bool {
    match &node.op {
        PhysOp::Scan { .. } => true,
        PhysOp::Filter { input, .. } => is_ordered_source(input),
        _ => false,
    }
}

/// A [`PhysOp::MergeJoin`] operand, resolved in the join's frame: the
/// relation its scan reads, the delta and range it reads it through, and
/// the filters above the scan, innermost first.
struct OrderedSource<'p> {
    /// The scan's node id.
    scan: usize,
    base: Cow<'p, Relation>,
    delta: Option<&'p RelDelta>,
    range: Option<&'p KeyRange>,
    filters: Vec<(usize, &'p Predicate)>,
}

impl<'p> OrderedSource<'p> {
    fn new(node: &'p PhysNode, ctx: &Ctx<'_>, env: &'p Env) -> Result<Self, EvalError> {
        let mut filters = Vec::new();
        let mut n = node;
        loop {
            match &n.op {
                PhysOp::Filter { input, pred } => {
                    filters.push((n.id, pred));
                    n = input;
                }
                PhysOp::Scan { name, range } => {
                    filters.reverse();
                    return Ok(OrderedSource {
                        scan: n.id,
                        base: scan_base(name, ctx, env)?,
                        delta: env.delta.get(name),
                        range: range.as_ref(),
                        filters,
                    });
                }
                _ => {
                    return Err(EvalError::UnsupportedShape(format!(
                        "merge join operand {} is not an ordered source",
                        op_label(n)
                    )))
                }
            }
        }
    }

    /// The source's rows in column-0 order, each counted in the `rows_out`
    /// of the scan and of every filter it passes as it is pulled.
    fn rows<'s>(&'s self, ctx: &'s Ctx<'_>) -> impl Iterator<Item = &'s Tuple> + 's {
        effective_iter(&self.base, self.delta, self.range)
            .inspect(move |_| ctx.row_out(self.scan))
            .filter(move |t| {
                self.filters.iter().all(|&(id, p)| {
                    let keep = p.eval(*t);
                    if keep {
                        ctx.row_out(id);
                    }
                    keep
                })
            })
    }
}

/// The walk [`PhysOp::MergeJoin`] and [`PhysOp::GroupJoin`] share: pull
/// two column-0-ordered streams by key and call `each(run, fresh, t)` for
/// every right row `t` whose key has left rows, `run` being those left
/// rows in order and `fresh` whether the run changed since the previous
/// call (a new key). A right row with no left rows is skipped; once the
/// left stream is exhausted no further right row is pulled.
fn merge_runs<'s>(
    mut lefts: impl Iterator<Item = &'s Tuple>,
    rights: impl Iterator<Item = &'s Tuple>,
    mut each: impl FnMut(&[&'s Tuple], bool, &'s Tuple) -> Result<(), EvalError>,
) -> Result<(), EvalError> {
    let mut next_left = lefts.next();
    // The left rows whose key is the current right row's.
    let mut run: Vec<&Tuple> = Vec::new();
    for t in rights {
        let key = &t[0];
        let fresh = run.first().is_none_or(|m| &m[0] != key);
        if fresh {
            run.clear();
            while let Some(m) = next_left {
                match m[0].cmp(key) {
                    Ordering::Less => {}
                    Ordering::Equal => run.push(m),
                    Ordering::Greater => break,
                }
                next_left = lefts.next();
            }
            if run.is_empty() {
                if next_left.is_none() {
                    break;
                }
                continue;
            }
        }
        each(&run, fresh, t)?;
    }
    Ok(())
}

/// Materialize a sub-plan into a relation. A constant sub-plan is handed
/// back by `Arc` bump (with the same row counts a streamed copy would
/// record), so a prepared xsub-value bound as constants is reused, not
/// re-collected.
fn materialize(node: &PhysNode, ctx: &Ctx<'_>, env: &Env) -> Result<Relation, EvalError> {
    if let PhysOp::Const { rel } = &node.op {
        let n = rel.len() as u64;
        let c = &ctx.ctrs[node.id];
        for counter in [&c.rows_out, &c.built] {
            counter.set(counter.get() + n);
        }
        return Ok(rel.clone());
    }
    let mut rows: Vec<Tuple> = Vec::new();
    run(node, ctx, env, &mut |v| {
        rows.push(ctx.keep(node.id, v));
        Ok(())
    })?;
    let rel = Relation::from_tuple_set(node.arity, rows)?;
    Ok(rel)
}

/// What a delta on a stored [`PhysOp::HashJoin`]'s relation takes from (∇)
/// and adds to (Δ⁺) the stored index's matches of each probe key (§5.5's
/// `join-when` on a base access path). Both tables are keyed like the
/// index and with its hash key, so one hash of a probe key finds its rows
/// in all three. One pass over the delta per execution, whatever the
/// base's size; its rows are shared, not copied.
struct DeltaPatch {
    deleted: KeyedRows,
    inserted: KeyedRows,
}

impl DeltaPatch {
    fn new(index: &KeyedRows, d: &RelDelta) -> DeltaPatch {
        let keyed = |rel: &Relation| {
            let mut t = index.empty_like();
            t.extend(rel.iter().cloned());
            t
        };
        DeltaPatch {
            deleted: keyed(&d.deleted),
            inserted: keyed(&d.inserted),
        }
    }
}

/// The probe half of a [`PhysOp::HashJoin`], over its build rows or a
/// stored index (patched when a delta rebinds its relation): each probe
/// row meets the rows of `table` whose key equals its `cols`, and every
/// pair that passes `residual` is pushed on as a view.
struct JoinProbe<'p> {
    /// The join's node id.
    id: usize,
    table: &'p KeyedRows,
    patch: Option<DeltaPatch>,
    /// Probe columns, aligned with the table's key columns.
    cols: &'p [usize],
    /// Which side of the output the probe row is on.
    side: Side,
    residual: &'p [Predicate],
}

impl JoinProbe<'_> {
    fn probe(&self, ctx: &Ctx<'_>, v: &RowView<'_>, out: &mut Sink<'_>) -> Result<(), EvalError> {
        let emit = |m: &Tuple, out: &mut Sink<'_>| {
            let m = RowView::Stored(m);
            let joined = match self.side {
                Side::Left => RowView::pair(v, &m),
                Side::Right => RowView::pair(&m, v),
            };
            if self.residual.iter().all(|p| p.eval(&joined)) {
                ctx.row_out(self.id);
                out(&joined)?;
            }
            Ok(())
        };
        let hash = self.table.hash(v, self.cols);
        let matches = self.table.get(hash, v, self.cols);
        let Some(patch) = &self.patch else {
            return matches.clone().try_for_each(|m| emit(m, out));
        };
        // The key's rows under the delta: the matches not in ∇, then the
        // Δ⁺ rows not among those (so the output stays a set).
        let deleted = patch.deleted.get(hash, v, self.cols);
        let dropped = |t: &Tuple| deleted.clone().any(|d| d == t);
        for m in matches.clone() {
            if !dropped(m) {
                emit(m, out)?;
            }
        }
        for t in patch.inserted.get(hash, v, self.cols) {
            if dropped(t) || !matches.clone().any(|m| m == t) {
                emit(t, out)?;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------

fn op_label(node: &PhysNode) -> String {
    match &node.op {
        PhysOp::Scan { name, range: None } => format!("Scan {name}"),
        PhysOp::Scan {
            name,
            range: Some(r),
        } => format!("Scan {name} [{r}]"),
        PhysOp::IndexProbe {
            name, col, value, ..
        } => format!("IndexProbe {name} (#{col} = {value})"),
        PhysOp::Const { rel } => format!("Const ({} row(s), arity {})", rel.len(), rel.arity()),
        PhysOp::Filter { pred, .. } => format!("Filter [{pred}]"),
        PhysOp::Project { cols, .. } => {
            let cs: Vec<String> = cols.iter().map(|c| format!("#{c}")).collect();
            format!("Project [{}]", cs.join(", "))
        }
        PhysOp::HashJoin {
            left,
            right,
            pairs,
            residual,
            build,
            stored,
        } => {
            let keys = |key: &dyn Fn(&EquiPair) -> String, sep| {
                pairs.iter().map(key).collect::<Vec<_>>().join(sep)
            };
            let (build_side, residual) = (side_name(*build), residual.len());
            match &build.pick(left, right).op {
                PhysOp::Scan { name, .. } if *stored => format!(
                    "IndexJoin (probe={}, index {name}[{}])",
                    side_name(build.flip()),
                    keys(&|p| format!("#{}", build.pick(p.left, p.right)), ", ")
                ),
                _ if pairs.is_empty() => {
                    format!("NestedLoop (build={build_side}, residual={residual})")
                }
                _ => format!(
                    "HashJoin (build={build_side}, on {}, residual={residual})",
                    keys(&|p| format!("#{}=#{}", p.left, p.right), " ")
                ),
            }
        }
        PhysOp::MergeJoin { left, residual, .. } => format!(
            "MergeJoin (on #0=#{}, residual={})",
            left.arity,
            residual.len()
        ),
        PhysOp::GroupJoin {
            left,
            group_by,
            aggs,
            ..
        } => format!(
            "GroupJoin (on #0=#{}, group_by={group_by:?}, aggs={})",
            left.arity,
            aggs.len()
        ),
        PhysOp::Union { .. } => "Union".into(),
        PhysOp::Diff { .. } => "Diff".into(),
        PhysOp::Intersect { .. } => "Intersect".into(),
        PhysOp::Dedup { .. } => "Dedup".into(),
        PhysOp::Aggregate { group_by, aggs, .. } => {
            format!("Aggregate (group_by={group_by:?}, aggs={})", aggs.len())
        }
        PhysOp::XsubRebind { bindings, .. } => {
            let ns: Vec<String> = bindings.iter().map(|(n, _)| n.to_string()).collect();
            format!("XsubRebind {{{}}}", ns.join(", "))
        }
        PhysOp::DeltaApply { atoms, .. } => {
            let ns: Vec<String> = atoms
                .iter()
                .map(|a| format!("{}{}", if a.insert { "+" } else { "\u{2212}" }, a.name))
                .collect();
            format!("DeltaApply [{}]", ns.join(", "))
        }
    }
}

fn side_name(s: Side) -> &'static str {
    match s {
        Side::Left => "left",
        Side::Right => "right",
    }
}

fn render_node(node: &PhysNode, depth: usize, metrics: Option<&ExecMetrics>, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    out.push_str(&op_label(node));
    if let Some(m) = metrics {
        let s = m.node(node.id);
        let _ = write!(
            out,
            "  (rows in={} out={} built={})",
            s.rows_in, s.rows_out, s.built
        );
    }
    out.push('\n');
    for c in node.children() {
        render_node(c, depth + 1, metrics, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypoquery_algebra::CmpOp;
    use hypoquery_storage::{tuple, Catalog};

    fn db() -> DatabaseState {
        let mut cat = Catalog::new();
        cat.declare_arity("R", 2).unwrap();
        cat.declare_arity("S", 2).unwrap();
        let mut db = DatabaseState::new(cat);
        db.insert_rows("R", [tuple![1, 10], tuple![2, 20], tuple![3, 30]])
            .unwrap();
        db.insert_rows("S", [tuple![2, 200], tuple![3, 300]])
            .unwrap();
        db
    }

    fn scan(name: &str) -> PhysNode {
        PhysNode::new(
            2,
            PhysOp::Scan {
                name: name.into(),
                range: None,
            },
        )
    }

    #[test]
    fn filter_project_pipeline_streams() {
        let db = db();
        let plan = PhysPlan::new(PhysNode::new(
            1,
            PhysOp::Project {
                input: Box::new(PhysNode::new(
                    2,
                    PhysOp::Filter {
                        input: Box::new(scan("R")),
                        pred: Predicate::col_cmp(0, CmpOp::Ge, 2),
                    },
                )),
                cols: vec![1],
            },
        ));
        let out = plan.execute(&db).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.contains(&tuple![20]) && out.contains(&tuple![30]));
    }

    #[test]
    fn hash_join_matches_either_build_side() {
        let db = db();
        for build in [Side::Left, Side::Right] {
            let plan = PhysPlan::new(PhysNode::new(
                4,
                PhysOp::HashJoin {
                    left: Box::new(scan("R")),
                    right: Box::new(scan("S")),
                    pairs: vec![EquiPair { left: 0, right: 0 }],
                    residual: vec![],
                    build,
                    stored: false,
                },
            ));
            let out = plan.execute(&db).unwrap();
            assert_eq!(out.len(), 2, "build={build:?}");
            assert!(out.contains(&tuple![2, 20, 2, 200]));
            assert!(out.contains(&tuple![3, 30, 3, 300]));
        }
    }

    #[test]
    fn xsub_rebind_overrides_scan() {
        let db = db();
        // R rebound to σ_{#0=2}(R): body Scan R sees only that row.
        let plan = PhysPlan::new(PhysNode::new(
            2,
            PhysOp::XsubRebind {
                bindings: vec![(
                    "R".into(),
                    PhysNode::new(
                        2,
                        PhysOp::Filter {
                            input: Box::new(scan("R")),
                            pred: Predicate::col_cmp(0, CmpOp::Eq, 2),
                        },
                    ),
                )],
                body: Box::new(scan("R")),
            },
        ));
        let out = plan.execute(&db).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple![2, 20]));
    }

    #[test]
    fn delta_apply_streams_effective_relation() {
        let db = db();
        // delete from R where #0 = 1; insert S into R.
        let plan = PhysPlan::new(PhysNode::new(
            2,
            PhysOp::DeltaApply {
                atoms: vec![
                    DeltaAtom {
                        name: "R".into(),
                        insert: false,
                        input: PhysNode::new(
                            2,
                            PhysOp::Filter {
                                input: Box::new(scan("R")),
                                pred: Predicate::col_cmp(0, CmpOp::Eq, 1),
                            },
                        ),
                    },
                    DeltaAtom {
                        name: "R".into(),
                        insert: true,
                        input: scan("S"),
                    },
                ],
                body: Box::new(scan("R")),
            },
        ));
        let out = plan.execute(&db).unwrap();
        // {2,20},{3,30} survive; {2,200},{3,300} inserted.
        assert_eq!(out.len(), 4);
        assert!(!out.contains(&tuple![1, 10]));
        assert!(out.contains(&tuple![2, 200]));
    }

    #[test]
    fn sequential_atoms_see_earlier_deltas() {
        let db = db();
        // insert into S (select R where #0=1); then insert into R (select S).
        // The second atom must see the row the first one added to S.
        let plan = PhysPlan::new(PhysNode::new(
            2,
            PhysOp::DeltaApply {
                atoms: vec![
                    DeltaAtom {
                        name: "S".into(),
                        insert: true,
                        input: PhysNode::new(
                            2,
                            PhysOp::Filter {
                                input: Box::new(scan("R")),
                                pred: Predicate::col_cmp(0, CmpOp::Eq, 1),
                            },
                        ),
                    },
                    DeltaAtom {
                        name: "R".into(),
                        insert: true,
                        input: scan("S"),
                    },
                ],
                body: Box::new(scan("R")),
            },
        ));
        let out = plan.execute(&db).unwrap();
        // R ∪ S' where S' includes {1,10}: R already has {1,10} so the
        // distinctive evidence is {2,200},{3,300} plus base R rows.
        assert_eq!(out.len(), 5);
        assert!(out.contains(&tuple![2, 200]));
    }

    #[test]
    fn analyze_counts_rows_and_time() {
        let db = db();
        let plan = PhysPlan::new(PhysNode::new(
            2,
            PhysOp::Filter {
                input: Box::new(scan("R")),
                pred: Predicate::col_cmp(0, CmpOp::Ge, 2),
            },
        ));
        let (out, m) = plan.execute_analyze(&db).unwrap();
        assert_eq!(out.len(), 2);
        // Node 0 = Filter, node 1 = Scan (pre-order ids).
        assert_eq!(m.node(0).rows_in, 3);
        assert_eq!(m.node(0).rows_out, 2);
        assert_eq!(m.node(1).rows_out, 3);
        let rendered = plan.render(Some(&m));
        assert!(rendered.contains("Filter"));
        assert!(rendered.contains("rows in=3 out=2"));
    }

    #[test]
    fn dedup_and_union_collapse_duplicates_at_sink() {
        let db = db();
        let plan = PhysPlan::new(PhysNode::new(
            2,
            PhysOp::Union {
                left: Box::new(scan("R")),
                right: Box::new(scan("R")),
            },
        ));
        let out = plan.execute(&db).unwrap();
        assert_eq!(out.len(), 3);

        let plan = PhysPlan::new(PhysNode::new(
            2,
            PhysOp::Dedup {
                input: Box::new(PhysNode::new(
                    2,
                    PhysOp::Union {
                        left: Box::new(scan("R")),
                        right: Box::new(scan("R")),
                    },
                )),
            },
        ));
        let (out, m) = plan.execute_analyze(&db).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(m.node(0).rows_in, 6);
        assert_eq!(m.node(0).rows_out, 3);
    }

    fn union(l: PhysNode, r: PhysNode) -> PhysNode {
        PhysNode::new(
            l.arity,
            PhysOp::Union {
                left: Box::new(l),
                right: Box::new(r),
            },
        )
    }

    fn project(input: PhysNode, cols: Vec<usize>) -> PhysNode {
        PhysNode::new(
            cols.len(),
            PhysOp::Project {
                input: Box::new(input),
                cols,
            },
        )
    }

    /// A join on column 0 of both operands, building the right one: a
    /// hash join, or with `stored`, the right one's stored index.
    fn key_join(l: PhysNode, r: PhysNode, stored: bool) -> PhysNode {
        PhysNode::new(
            l.arity + r.arity,
            PhysOp::HashJoin {
                left: Box::new(l),
                right: Box::new(r),
                pairs: vec![EquiPair { left: 0, right: 0 }],
                residual: vec![],
                build: Side::Right,
                stored,
            },
        )
    }

    fn hash_join(l: PhysNode, r: PhysNode) -> PhysNode {
        key_join(l, r, false)
    }

    /// `probe` joined with `S` through `S`'s stored index on `#0`.
    fn index_join(probe: PhysNode) -> PhysNode {
        key_join(probe, scan("S"), true)
    }

    #[test]
    fn distinct_flag_per_operator_kind() {
        let dup = || union(scan("R"), scan("S"));
        let filter = |input: PhysNode| {
            PhysNode::new(
                input.arity,
                PhysOp::Filter {
                    input: Box::new(input),
                    pred: Predicate::col_cmp(0, CmpOp::Ge, 2),
                },
            )
        };
        let aggregate = |input: PhysNode| {
            PhysNode::new(
                1,
                PhysOp::Aggregate {
                    input: Box::new(input),
                    group_by: vec![],
                    aggs: vec![AggExpr::Count],
                },
            )
        };
        let probe = PhysNode::new(
            2,
            PhysOp::IndexProbe {
                name: "R".into(),
                col: 0,
                value: Value::int(1),
                pred: Predicate::col_cmp(0, CmpOp::Eq, 1),
            },
        );
        let konst = PhysNode::new(
            2,
            PhysOp::Const {
                rel: Relation::empty(2),
            },
        );
        let diff = |l: PhysNode, r: PhysNode| {
            PhysNode::new(
                2,
                PhysOp::Diff {
                    left: Box::new(l),
                    right: Box::new(r),
                },
            )
        };
        let intersect = |l: PhysNode, r: PhysNode| {
            PhysNode::new(
                2,
                PhysOp::Intersect {
                    left: Box::new(l),
                    right: Box::new(r),
                },
            )
        };
        let xsub = |body: PhysNode| {
            PhysNode::new(
                body.arity,
                PhysOp::XsubRebind {
                    bindings: vec![("R".into(), dup())],
                    body: Box::new(body),
                },
            )
        };
        let delta = |body: PhysNode| {
            PhysNode::new(
                body.arity,
                PhysOp::DeltaApply {
                    atoms: vec![DeltaAtom {
                        name: "R".into(),
                        insert: true,
                        input: dup(),
                    }],
                    body: Box::new(body),
                },
            )
        };
        let dedup = PhysNode::new(
            2,
            PhysOp::Dedup {
                input: Box::new(dup()),
            },
        );

        // Sources and breakers that restore set semantics.
        for n in [scan("R"), probe, konst, dedup, aggregate(dup())] {
            assert!(n.distinct, "{}", op_label(&n));
        }
        // Duplicate producers.
        assert!(!project(scan("R"), vec![0]).distinct);
        assert!(!union(scan("R"), scan("S")).distinct);
        // Inherit from the streaming input or body only.
        assert!(filter(scan("R")).distinct);
        assert!(!filter(dup()).distinct);
        assert!(diff(scan("R"), dup()).distinct);
        assert!(!diff(dup(), scan("R")).distinct);
        assert!(intersect(scan("R"), dup()).distinct);
        assert!(!intersect(dup(), scan("R")).distinct);
        assert!(xsub(scan("R")).distinct);
        assert!(!xsub(dup()).distinct);
        assert!(delta(scan("R")).distinct);
        assert!(!delta(dup()).distinct);
        // Joins: every streamed input must be distinct.
        assert!(hash_join(scan("R"), scan("S")).distinct);
        assert!(!hash_join(scan("R"), dup()).distinct);
        assert!(!hash_join(dup(), scan("S")).distinct);
        assert!(index_join(scan("R")).distinct);
        assert!(!index_join(dup()).distinct);
        let merge_join = PhysNode::new(
            4,
            PhysOp::MergeJoin {
                left: Box::new(filter(scan("R"))),
                right: Box::new(scan("S")),
                residual: vec![],
            },
        );
        assert!(merge_join.distinct);
        let PhysOp::MergeJoin { left, right, .. } = merge_join.op else {
            unreachable!()
        };
        let group_join = PhysOp::GroupJoin {
            left,
            right,
            group_by: vec![0],
            aggs: vec![AggExpr::Count],
        };
        assert!(PhysNode::new(2, group_join).distinct);
    }

    #[test]
    fn aggregate_restores_set_semantics_on_duplicate_input() {
        let db = db();
        // π₀(R ∪ R) streams every key twice; COUNT and SUM must see each
        // distinct row once.
        let input = project(union(scan("R"), scan("R")), vec![0]);
        assert!(!input.distinct);
        let plan = PhysPlan::new(PhysNode::new(
            2,
            PhysOp::Aggregate {
                input: Box::new(input),
                group_by: vec![],
                aggs: vec![AggExpr::Count, AggExpr::Sum(0)],
            },
        ));
        let (out, m) = plan.execute_analyze(&db).unwrap();
        assert_eq!(out, Relation::singleton(tuple![3, 6]));
        assert_eq!(m.node(0).rows_in, 6);

        // Grouped over a distinct join: straight into the accumulators.
        let plan = PhysPlan::new(PhysNode::new(
            3,
            PhysOp::Aggregate {
                input: Box::new(hash_join(scan("R"), scan("S"))),
                group_by: vec![0],
                aggs: vec![AggExpr::Count, AggExpr::Max(3)],
            },
        ));
        let out = plan.execute(&db).unwrap();
        assert_eq!(
            out,
            Relation::from_rows(3, [tuple![2, 1, 200], tuple![3, 1, 300]]).unwrap()
        );
    }

    #[test]
    fn joined_rows_reach_the_aggregate_unbuilt() {
        // The served `scan` shape: Aggregate(HashJoin(Scan R, Scan S))
        // under a delete-then-insert delta.
        let db = db();
        let atom = |name: &str, insert: bool, bound: i64| DeltaAtom {
            name: name.into(),
            insert,
            input: PhysNode::new(
                2,
                PhysOp::Filter {
                    input: Box::new(scan("S")),
                    pred: Predicate::col_cmp(1, CmpOp::Lt, bound),
                },
            ),
        };
        let body = PhysNode::new(
            2,
            PhysOp::Aggregate {
                input: Box::new(hash_join(scan("R"), scan("S"))),
                group_by: vec![],
                aggs: vec![AggExpr::Count, AggExpr::Sum(1)],
            },
        );
        let plan = PhysPlan::new(PhysNode::new(
            2,
            PhysOp::DeltaApply {
                atoms: vec![atom("S", false, 250), atom("R", true, 1000)],
                body: Box::new(body),
            },
        ));
        let (out, m) = plan.execute_analyze(&db).unwrap();
        // S loses (2,200); R gains (3,300); R ⋈ S on #0 = {(3,30),(3,300)}×{(3,300)}.
        assert_eq!(out, Relation::singleton(tuple![2, 330]));

        let PhysOp::DeltaApply { atoms, body } = &plan.root.op else {
            unreachable!()
        };
        let PhysOp::Aggregate { input: join, .. } = &body.op else {
            unreachable!()
        };
        let PhysOp::HashJoin { right: build, .. } = &join.op else {
            unreachable!()
        };
        assert_eq!(m.node(join.id).rows_out, 2);
        assert_eq!(m.node(join.id).built, 0);
        assert_eq!(m.node(body.id).built, 0);
        assert_eq!(m.node(build.id).rows_out, 1);
        assert_eq!(m.node(build.id).built, 1);
        // The atoms' rows become deltas; the sink keeps the one result.
        assert_eq!(m.node(atoms[0].input.id).built, 1);
        assert_eq!(m.node(atoms[1].input.id).built, 1);
        assert_eq!(m.node(plan.root.id).built, 1);
        let rendered = plan.render(Some(&m));
        let join_line = rendered.lines().find(|l| l.contains("HashJoin")).unwrap();
        assert!(join_line.contains("out=2 built=0"), "{rendered}");
    }

    #[test]
    fn views_nest_through_joins_and_projections() {
        // π(R ⋈ S) ⋈ S under a nested-loop product with a residual, kept
        // by a dedup and the sink: every kept row is built from views of
        // views.
        let db = db();
        let inner = project(hash_join(scan("R"), scan("S")), vec![3, 0, 0]);
        let plan = PhysPlan::new(PhysNode::new(
            5,
            PhysOp::Dedup {
                input: Box::new(PhysNode::new(
                    5,
                    PhysOp::HashJoin {
                        left: Box::new(inner),
                        right: Box::new(scan("S")),
                        pairs: vec![],
                        residual: vec![Predicate::col_col(1, CmpOp::Eq, 3)],
                        build: Side::Left,
                        stored: false,
                    },
                )),
            },
        ));
        let (out, m) = plan.execute_analyze(&db).unwrap();
        assert_eq!(
            out,
            Relation::from_rows(5, [tuple![200, 2, 2, 2, 200], tuple![300, 3, 3, 3, 300]]).unwrap()
        );
        // The product's build side (the projection) and the dedup's
        // input are built; the inner join's rows never are.
        let PhysOp::Dedup { input: product } = &plan.root.op else {
            unreachable!()
        };
        let PhysOp::HashJoin { left: proj, .. } = &product.op else {
            unreachable!()
        };
        let PhysOp::Project { input: join, .. } = &proj.op else {
            unreachable!()
        };
        assert_eq!(m.node(proj.id).built, 2);
        assert_eq!(m.node(product.id).built, 2);
        assert_eq!(m.node(join.id).built, 0);
    }

    /// `rows in` of every operator kind that consumes input: the rows its
    /// inputs pushed to it. An `XsubRebind`'s or `DeltaApply`'s body
    /// streams through uncounted; only its bindings or atoms are input.
    #[test]
    fn rows_in_counts_what_each_operator_consumes() {
        let db = db();
        let filter = |input: PhysNode, pred: Predicate| {
            PhysNode::new(
                input.arity,
                PhysOp::Filter {
                    input: Box::new(input),
                    pred,
                },
            )
        };
        let r_ge_2 = || filter(scan("R"), Predicate::col_cmp(0, CmpOp::Ge, 2));
        let join = |build: Side, pairs: Vec<EquiPair>, residual: Vec<Predicate>| {
            PhysNode::new(
                4,
                PhysOp::HashJoin {
                    left: Box::new(scan("R")),
                    right: Box::new(scan("S")),
                    pairs,
                    residual,
                    build,
                    stored: false,
                },
            )
        };
        let on_key = || vec![EquiPair { left: 0, right: 0 }];
        let merge_join = |left: PhysNode| {
            PhysNode::new(
                4,
                PhysOp::MergeJoin {
                    left: Box::new(left),
                    right: Box::new(scan("S")),
                    residual: vec![],
                },
            )
        };
        let group_join = |group_by: Vec<usize>| {
            PhysNode::new(
                group_by.len() + 1,
                PhysOp::GroupJoin {
                    left: Box::new(scan("R")),
                    right: Box::new(scan("S")),
                    group_by,
                    aggs: vec![AggExpr::Count],
                },
            )
        };
        let set_op = |intersect: bool| {
            let (left, right) = (Box::new(scan("R")), Box::new(r_ge_2()));
            let op = if intersect {
                PhysOp::Intersect { left, right }
            } else {
                PhysOp::Diff { left, right }
            };
            PhysNode::new(2, op)
        };
        let aggregate = |input: PhysNode| {
            PhysNode::new(
                1,
                PhysOp::Aggregate {
                    input: Box::new(input),
                    group_by: vec![],
                    aggs: vec![AggExpr::Count],
                },
            )
        };
        let xsub = |binding: PhysNode| {
            PhysNode::new(
                2,
                PhysOp::XsubRebind {
                    bindings: vec![("R".into(), binding)],
                    body: Box::new(scan("R")),
                },
            )
        };
        let konst = PhysNode::new(
            2,
            PhysOp::Const {
                rel: Relation::from_rows(2, [tuple![7, 70], tuple![8, 80]]).unwrap(),
            },
        );
        // S loses (2, 200) and gains (1, 100); every atom reads one row.
        let delta = |body: PhysNode| {
            PhysNode::new(
                body.arity,
                PhysOp::DeltaApply {
                    atoms: vec![
                        DeltaAtom {
                            name: "S".into(),
                            insert: false,
                            input: filter(scan("S"), Predicate::col_cmp(0, CmpOp::Eq, 2)),
                        },
                        DeltaAtom {
                            name: "S".into(),
                            insert: true,
                            input: PhysNode::new(
                                2,
                                PhysOp::Const {
                                    rel: Relation::singleton(tuple![1, 100]),
                                },
                            ),
                        },
                    ],
                    body: Box::new(body),
                },
            )
        };
        let cases: Vec<(&str, PhysNode, u64, u64)> = vec![
            ("filter", r_ge_2(), 3, 2),
            ("project", project(scan("R"), vec![1]), 3, 3),
            (
                "hash join, build left",
                join(Side::Left, on_key(), vec![]),
                5,
                2,
            ),
            (
                "hash join, build right",
                join(Side::Right, on_key(), vec![]),
                5,
                2,
            ),
            (
                "nested loop",
                join(
                    Side::Left,
                    vec![],
                    vec![Predicate::col_col(0, CmpOp::Lt, 2)],
                ),
                5,
                3,
            ),
            ("index join", index_join(scan("R")), 3, 2),
            ("merge join", merge_join(scan("R")), 5, 2),
            ("merge join, filtered side", merge_join(r_ge_2()), 4, 2),
            ("group join", group_join(vec![]), 5, 1),
            ("group join, by key", group_join(vec![2]), 5, 2),
            ("union", union(scan("R"), scan("S")), 5, 5),
            ("diff", set_op(false), 5, 1),
            ("intersect", set_op(true), 5, 2),
            (
                "dedup",
                PhysNode::new(
                    2,
                    PhysOp::Dedup {
                        input: Box::new(union(scan("R"), scan("R"))),
                    },
                ),
                6,
                3,
            ),
            ("aggregate, distinct input", aggregate(scan("R")), 3, 1),
            (
                "aggregate, duplicate input",
                aggregate(union(scan("R"), scan("R"))),
                6,
                1,
            ),
            ("xsub, const binding", xsub(konst), 2, 2),
            ("xsub, computed binding", xsub(r_ge_2()), 2, 2),
            ("delta", delta(scan("S")), 2, 2),
        ];
        for (what, root, rows_in, rows_out) in cases {
            let plan = PhysPlan::new(root);
            let (_, m) = plan.execute_analyze(&db).unwrap();
            let s = m.node(plan.root.id);
            assert_eq!((s.rows_in, s.rows_out), (rows_in, rows_out), "{what}");
        }

        // An index join whose indexed side a delta patches: R probes
        // S' = {(1, 100), (3, 300)}.
        let plan = PhysPlan::new(delta(index_join(scan("R"))));
        let (out, m) = plan.execute_analyze(&db).unwrap();
        assert_eq!(
            out,
            Relation::from_rows(4, [tuple![1, 10, 1, 100], tuple![3, 30, 3, 300]]).unwrap()
        );
        let PhysOp::DeltaApply { body, .. } = &plan.root.op else {
            unreachable!()
        };
        let (root, join) = (m.node(plan.root.id), m.node(body.id));
        assert_eq!((root.rows_in, root.rows_out), (2, 2));
        assert_eq!((join.rows_in, join.rows_out), (3, 2));
        // The stored side is never scanned: its index answers.
        let rendered = plan.render(Some(&m));
        assert!(
            rendered.contains(
                "  IndexJoin (probe=left, index S[#0])  (rows in=3 out=2 built=0)\n    \
                 Scan R  (rows in=0 out=3 built=0)\n    Scan S  (rows in=0 out=0 built=0)\n"
            ),
            "{rendered}"
        );

        // A merge join pulls both sides through the same delta, R against
        // S', and hands its pairs to the aggregate unbuilt.
        let plan = PhysPlan::new(delta(aggregate(merge_join(scan("R")))));
        let (out, m) = plan.execute_analyze(&db).unwrap();
        assert_eq!(out, Relation::singleton(tuple![2]));
        let PhysOp::DeltaApply { body, .. } = &plan.root.op else {
            unreachable!()
        };
        let PhysOp::Aggregate { input: join, .. } = &body.op else {
            unreachable!()
        };
        let PhysOp::MergeJoin { left, right, .. } = &join.op else {
            unreachable!()
        };
        let s = m.node(join.id);
        assert_eq!((s.rows_in, s.rows_out, s.built), (5, 2, 0));
        assert_eq!(
            (m.node(left.id).rows_out, m.node(right.id).rows_out),
            (3, 2)
        );
        let rendered = plan.render(Some(&m));
        let line = rendered.lines().find(|l| l.contains("MergeJoin")).unwrap();
        assert!(
            line.contains("MergeJoin (on #0=#2, residual=0)  (rows in=5 out=2 built=0)"),
            "{rendered}"
        );

        // The group join walks the same runs and forms no pair: one
        // output row, the count of the two pairs.
        let plan = PhysPlan::new(delta(group_join(vec![])));
        let (out, m) = plan.execute_analyze(&db).unwrap();
        assert_eq!(out, Relation::singleton(tuple![2]));
        let rendered = plan.render(Some(&m));
        let line = rendered.lines().find(|l| l.contains("GroupJoin")).unwrap();
        assert!(
            line.contains("GroupJoin (on #0=#2, group_by=[], aggs=1)  (rows in=5 out=1 built=0)"),
            "{rendered}"
        );
    }

    #[test]
    fn group_join_folds_each_run_whole() {
        // Keys 1 and 3 repeat on both sides; key 2 only on the left, key
        // 4 only on the right.
        let mut cat = Catalog::new();
        cat.declare_arity("A", 2).unwrap();
        cat.declare_arity("B", 2).unwrap();
        let mut db = DatabaseState::new(cat);
        let a = [[1, 10], [1, 11], [2, 20], [3, 30], [3, 31], [3, 32]];
        let b = [[1, 5], [1, 6], [3, 7], [4, 8]];
        db.insert_rows("A", a.map(|[k, v]| tuple![k, v])).unwrap();
        db.insert_rows("B", b.map(|[k, v]| tuple![k, v])).unwrap();
        let aggs = vec![
            AggExpr::Count,
            AggExpr::Sum(1),
            AggExpr::Sum(3),
            AggExpr::Min(1),
            AggExpr::Max(3),
        ];
        for group_by in [vec![], vec![0], vec![2, 0]] {
            let join = |op| PhysNode::new(group_by.len() + aggs.len(), op);
            let grouped = PhysPlan::new(join(PhysOp::GroupJoin {
                left: Box::new(scan("A")),
                right: Box::new(scan("B")),
                group_by: group_by.clone(),
                aggs: aggs.clone(),
            }));
            let paired = PhysPlan::new(join(PhysOp::Aggregate {
                input: Box::new(hash_join(scan("A"), scan("B"))),
                group_by: group_by.clone(),
                aggs: aggs.clone(),
            }));
            let out = grouped.execute(&db).unwrap();
            assert_eq!(out, paired.execute(&db).unwrap(), "{group_by:?}");
            let want = if group_by.is_empty() {
                vec![tuple![7, 2 * 21 + 93, 2 * 11 + 3 * 7, 10, 7]]
            } else {
                let key = |k: i64| vec![Value::int(k); group_by.len()];
                let row =
                    |k, rest: [i64; 5]| Tuple::new(key(k).into_iter().chain(rest.map(Value::int)));
                vec![
                    row(1, [4, 2 * 21, 2 * 11, 10, 6]),
                    row(3, [3, 93, 3 * 7, 30, 7]),
                ]
            };
            assert_eq!(
                out,
                Relation::from_rows(out.arity(), want).unwrap(),
                "{group_by:?}"
            );
        }
    }

    #[test]
    fn sum_overflow_is_an_error_not_a_wrap() {
        let mut cat = Catalog::new();
        cat.declare_arity("R", 2).unwrap();
        let mut db = DatabaseState::new(cat);
        db.insert_rows("R", [tuple![1, i64::MAX], tuple![2, 1]])
            .unwrap();
        for input in [scan("R"), union(scan("R"), scan("R"))] {
            let plan = PhysPlan::new(PhysNode::new(
                1,
                PhysOp::Aggregate {
                    input: Box::new(input),
                    group_by: vec![],
                    aggs: vec![AggExpr::Sum(1)],
                },
            ));
            assert_eq!(
                plan.execute(&db),
                Err(EvalError::AggregateOverflow { agg: "sum" })
            );
        }
    }

    #[test]
    fn hash_join_keys_compare_every_column() {
        let mut cat = Catalog::new();
        cat.declare_arity("A", 2).unwrap();
        cat.declare_arity("B", 2).unwrap();
        let mut db = DatabaseState::new(cat);
        db.insert_rows("A", [tuple![1, 1], tuple![1, 2], tuple![2, 1]])
            .unwrap();
        db.insert_rows("B", [tuple![1, 1], tuple![1, 2], tuple![2, 2]])
            .unwrap();
        let plan = PhysPlan::new(PhysNode::new(
            4,
            PhysOp::HashJoin {
                left: Box::new(scan("A")),
                right: Box::new(scan("B")),
                pairs: vec![
                    EquiPair { left: 0, right: 0 },
                    EquiPair { left: 1, right: 1 },
                ],
                residual: vec![],
                build: Side::Left,
                stored: false,
            },
        ));
        let out = plan.execute(&db).unwrap();
        assert_eq!(
            out,
            Relation::from_rows(4, [tuple![1, 1, 1, 1], tuple![1, 2, 1, 2]]).unwrap()
        );
    }
}
