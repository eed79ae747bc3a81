//! The pipelined physical operator layer.
//!
//! Every strategy on the paper's eager↔lazy spectrum — pure RA (lazy),
//! ENF filtering (HQL-1/HQL-2), and mod-ENF delta filtering (HQL-3) —
//! bottoms out in the same relational work: scans, selections,
//! projections, joins, set operations. The legacy evaluators
//! ([`crate::direct`], [`crate::filter1`], [`crate::filter2`],
//! [`crate::filter3`]) each implement that work as a recursive tree walk
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
//! children and hands produced tuples to a consumer callback. Push
//! composition sidesteps the self-referential-iterator problem that a
//! pull-based design hits with `Arc<BTreeSet>`-backed storage, while
//! keeping the same pipelining property — a tuple flows from its scan
//! through every streaming operator above it before the next tuple is
//! produced.
//!
//! Pipeline *breakers* materialize exactly what they must: a hash join
//! materializes only its build side; `Diff`/`Intersect` only their right
//! operand; `Aggregate` one running accumulator per group; `Dedup` the
//! distinct set seen so far. The plan sink materializes the final result,
//! so set semantics are restored at every breaker and at the output —
//! streaming segments may carry duplicates in flight (see
//! [`PhysOp::Dedup`] for where the lowering chooses to collapse them
//! early).
//!
//! # Duplicate-freedom
//!
//! Each node carries a static [`PhysNode::distinct`] flag: `true` when
//! its output stream provably never repeats a row. Sources, `Dedup` and
//! `Aggregate` are distinct; filters, set differences/intersections and
//! the hypothetical wrappers inherit it from their streaming input; joins
//! are distinct when every streamed input is; `Project` and `Union` are
//! not. The lowering puts a `Dedup` under a join operand exactly when the
//! operand is not distinct, and `Aggregate` folds a distinct input
//! straight into its accumulators, skipping its own dedup set.
//!
//! # Hash tables
//!
//! The hash join's build side and the aggregate's groups live in
//! arena-backed chained tables (`chain::ChainTable`): key
//! columns are hashed in place with a per-table keyed SipHash and
//! compared on a hash match, so neither operator allocates a key per row.
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
//!   materializing the hypothetical state.
//!
//! # Instrumentation
//!
//! Every operator carries rows-in/rows-out counters (always on; two
//! `Cell` bumps per tuple) and an elapsed-time counter that is only
//! exercised under [`PhysPlan::execute_analyze`]. Elapsed time is
//! *exclusive* self-time: the clock runs only around an operator's own
//! work (predicate evaluation, hashing, set probes), never around the
//! downstream consumer, so the per-operator numbers in `EXPLAIN ANALYZE`
//! add up meaningfully even though execution is one fused pipeline.

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use hypoquery_storage::{
    lookup_or_build_index, DatabaseState, KeyRange, RelName, Relation, Tuple, Value,
};

use hypoquery_algebra::{AggExpr, Predicate};

use crate::aggregate::AggState;
use crate::chain::{cols_eq, ChainTable};
use crate::delta::{effective_iter, DeltaValue, RelDelta};
use crate::error::EvalError;
use crate::join::EquiPair;
use crate::xsub::XsubValue;

/// Which operand of a binary operator plays a given role.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Side {
    /// The left operand.
    Left,
    /// The right operand.
    Right,
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
    /// [`effective_iter`]. With a `range`, every one of those sorted sets
    /// is walked only over its column-0 slice ([`Relation::range`]); any
    /// relation the name resolves to is sorted, so no shadow gate applies.
    Scan {
        /// The relation scanned.
        name: RelName,
        /// Column-0 range to walk; `None` walks everything. A superset
        /// of the rows the plan needs: a `Filter` above re-checks them.
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
    },
    /// Index nested-loop join: the build side is an unrebound base scan
    /// with declared indexes on its equi columns, so instead of hashing
    /// it the probe side streams against the shared cached
    /// [`hypoquery_storage::ColumnIndex`]. Output columns are always
    /// `left ++ right`.
    IndexJoin {
        /// The streaming (probe) operand.
        probe: Box<PhysNode>,
        /// Which side of the join the probe operand is.
        probe_side: Side,
        /// The indexed base relation standing in for the other side.
        rel: RelName,
        /// Indexed columns (build side, local coordinates).
        index_cols: Vec<usize>,
        /// Probe-side key columns, aligned with `index_cols`.
        probe_cols: Vec<usize>,
        /// Residual conjuncts over the concatenated tuple.
        residual: Vec<Predicate>,
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
            | PhysOp::Union { left, right }
            | PhysOp::Diff { left, right }
            | PhysOp::Intersect { left, right } => vec![left, right],
            PhysOp::IndexJoin { probe, .. } => vec![probe],
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
            | PhysOp::Aggregate { .. } => true,
            PhysOp::Filter { input, .. } => input.distinct,
            PhysOp::Diff { left, .. } | PhysOp::Intersect { left, .. } => left.distinct,
            PhysOp::XsubRebind { body, .. } | PhysOp::DeltaApply { body, .. } => body.distinct,
            // Distinct pairs of input rows concatenate to distinct rows;
            // an index join's other side is a stored base relation.
            PhysOp::HashJoin { left, right, .. } => left.distinct && right.distinct,
            PhysOp::IndexJoin { probe, .. } => probe.distinct,
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

    /// Execute against `db`, returning the result relation. Row counters
    /// run; the per-operator clock does not.
    pub fn execute(&self, db: &DatabaseState) -> Result<Relation, EvalError> {
        self.run_root(db, false).map(|(rel, _)| rel)
    }

    /// Execute with full instrumentation: row counters plus exclusive
    /// per-operator elapsed time.
    pub fn execute_analyze(
        &self,
        db: &DatabaseState,
    ) -> Result<(Relation, ExecMetrics), EvalError> {
        self.run_root(db, true)
    }

    fn run_root(
        &self,
        db: &DatabaseState,
        timing: bool,
    ) -> Result<(Relation, ExecMetrics), EvalError> {
        let ctx = Ctx {
            db,
            ctrs: (0..self.node_count).map(|_| NodeCtr::default()).collect(),
            timing,
        };
        let env = Env::empty();
        // Buffer rows and bulk-build the result set once: `from_iter`
        // sorts and bulk-loads the tree, far cheaper than a per-row
        // sorted insert.
        let mut out: Vec<Tuple> = Vec::new();
        run(&self.root, &ctx, &env, &mut |t| {
            out.push(t.into_owned());
            Ok(())
        })?;
        let rel = Relation::from_tuple_set(self.root.arity, out.into_iter().collect())?;
        Ok((rel, ctx.into_metrics()))
    }

    /// Render the plan tree, one operator per line. With `metrics`, each
    /// line carries `rows in/out` and (when timed) exclusive elapsed
    /// time — the `EXPLAIN ANALYZE` output.
    pub fn render(&self, metrics: Option<&ExecMetrics>) -> String {
        let mut s = String::new();
        render_node(&self.root, 0, metrics, &mut s);
        s
    }
}

/// Per-operator execution statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Tuples received from children (0 for sources).
    pub rows_in: u64,
    /// Tuples pushed to the parent.
    pub rows_out: u64,
    /// Exclusive self-time (zero unless executed under
    /// [`PhysPlan::execute_analyze`]).
    pub elapsed: Duration,
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

    /// Sum of exclusive self-times — the pipeline's total measured work.
    pub fn total_elapsed(&self) -> Duration {
        self.per_node.iter().map(|s| s.elapsed).sum()
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
    rows_in: Cell<u64>,
    rows_out: Cell<u64>,
    nanos: Cell<u64>,
}

struct Ctx<'a> {
    db: &'a DatabaseState,
    ctrs: Vec<NodeCtr>,
    timing: bool,
}

impl Ctx<'_> {
    #[inline]
    fn row_in(&self, id: usize) {
        let c = &self.ctrs[id].rows_in;
        c.set(c.get() + 1);
    }

    #[inline]
    fn row_out(&self, id: usize) {
        let c = &self.ctrs[id].rows_out;
        c.set(c.get() + 1);
    }

    /// Run `f` with node `id`'s clock on. Only the operator's *own* work
    /// goes through here — never the downstream `out` call — so elapsed
    /// stays exclusive.
    #[inline]
    fn timed<R>(&self, id: usize, f: impl FnOnce() -> R) -> R {
        if !self.timing {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        let c = &self.ctrs[id].nanos;
        c.set(c.get() + t0.elapsed().as_nanos() as u64);
        r
    }

    fn into_metrics(self) -> ExecMetrics {
        ExecMetrics {
            per_node: self
                .ctrs
                .into_iter()
                .map(|c| OpStats {
                    rows_in: c.rows_in.get(),
                    rows_out: c.rows_out.get(),
                    elapsed: Duration::from_nanos(c.nanos.get()),
                })
                .collect(),
        }
    }
}

/// The tuple consumer operators push into.
type Sink<'s> = dyn FnMut(Cow<'_, Tuple>) -> Result<(), EvalError> + 's;

/// Drain a source iterator into `out`, charging each `next` to node
/// `id`. Generic so the common direct-scan path is monomorphized with no
/// boxed-iterator indirection.
fn scan_emit<'a>(
    id: usize,
    ctx: &Ctx<'_>,
    mut it: impl Iterator<Item = &'a Tuple>,
    out: &mut Sink<'_>,
) -> Result<(), EvalError> {
    loop {
        let Some(t) = ctx.timed(id, || it.next()) else {
            return Ok(());
        };
        ctx.row_out(id);
        out(Cow::Borrowed(t))?;
    }
}

fn run(node: &PhysNode, ctx: &Ctx<'_>, env: &Env, out: &mut Sink<'_>) -> Result<(), EvalError> {
    let id = node.id;
    match &node.op {
        PhysOp::Scan { name, range } => {
            // A delta in scope applies on top of an xsub binding: the
            // binding was made outside it (`XsubRebind` drops the deltas
            // its bindings already saw).
            let stored;
            let base = match env.xsub.get(name) {
                Some(rel) => rel,
                None => {
                    stored = ctx.db.get(name)?;
                    &stored
                }
            };
            // The delta-free cases skip the boxed merge iterator.
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
            let idx = ctx.timed(id, || {
                lookup_or_build_index(&base, &[*col], ctx.db.index_stats())
            });
            let candidates = idx.probe(std::slice::from_ref(value));
            for t in candidates {
                if ctx.timed(id, || pred.eval(t)) {
                    ctx.row_out(id);
                    out(Cow::Borrowed(t))?;
                }
            }
            Ok(())
        }
        PhysOp::Const { rel } => {
            for t in rel.iter() {
                ctx.row_out(id);
                out(Cow::Borrowed(t))?;
            }
            Ok(())
        }
        PhysOp::Filter { input, pred } => run(input, ctx, env, &mut |t| {
            ctx.row_in(id);
            if ctx.timed(id, || pred.eval(&t)) {
                ctx.row_out(id);
                out(t)
            } else {
                Ok(())
            }
        }),
        PhysOp::Project { input, cols } => run(input, ctx, env, &mut |t| {
            ctx.row_in(id);
            let proj = ctx.timed(id, || t.project(cols));
            ctx.row_out(id);
            out(Cow::Owned(proj))
        }),
        PhysOp::HashJoin {
            left,
            right,
            pairs,
            residual,
            build,
        } => run_hash_join(node, left, right, pairs, residual, *build, ctx, env, out),
        PhysOp::IndexJoin {
            probe,
            probe_side,
            rel,
            index_cols,
            probe_cols,
            residual,
        } => {
            let base = ctx.db.get(rel)?;
            let idx = ctx.timed(id, || {
                lookup_or_build_index(&base, index_cols, ctx.db.index_stats())
            });
            // One key column probes with the row's own field; wider keys
            // reuse one buffer.
            let mut buf: Vec<Value> = Vec::with_capacity(probe_cols.len());
            run(probe, ctx, env, &mut |t| {
                ctx.row_in(id);
                let matches = ctx.timed(id, || match probe_cols.as_slice() {
                    [c] => idx.probe(std::slice::from_ref(&t[*c])),
                    cols => {
                        buf.clear();
                        buf.extend(cols.iter().map(|&c| t[c].clone()));
                        idx.probe(&buf)
                    }
                });
                for m in matches {
                    let joined = ctx.timed(id, || match probe_side {
                        Side::Left => t.concat(m),
                        Side::Right => m.concat(&t),
                    });
                    if ctx.timed(id, || residual.iter().all(|p| p.eval(&joined))) {
                        ctx.row_out(id);
                        out(Cow::Owned(joined))?;
                    }
                }
                Ok(())
            })
        }
        PhysOp::Union { left, right } => {
            for child in [left.as_ref(), right.as_ref()] {
                run(child, ctx, env, &mut |t| {
                    ctx.row_in(id);
                    ctx.row_out(id);
                    out(t)
                })?;
            }
            Ok(())
        }
        PhysOp::Diff { left, right } => {
            let rset = collect_set(right, ctx, env, id)?;
            run(left, ctx, env, &mut |t| {
                ctx.row_in(id);
                if ctx.timed(id, || !rset.contains(t.as_ref())) {
                    ctx.row_out(id);
                    out(t)
                } else {
                    Ok(())
                }
            })
        }
        PhysOp::Intersect { left, right } => {
            let rset = collect_set(right, ctx, env, id)?;
            run(left, ctx, env, &mut |t| {
                ctx.row_in(id);
                if ctx.timed(id, || rset.contains(t.as_ref())) {
                    ctx.row_out(id);
                    out(t)
                } else {
                    Ok(())
                }
            })
        }
        PhysOp::Dedup { input } => {
            let mut seen: HashSet<Tuple> = HashSet::new();
            run(input, ctx, env, &mut |t| {
                ctx.row_in(id);
                // One hash per row: a clone is a reference-count bump.
                let owned = t.into_owned();
                if !ctx.timed(id, || seen.insert(owned.clone())) {
                    return Ok(());
                }
                ctx.row_out(id);
                out(Cow::Owned(owned))
            })
        }
        PhysOp::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let mut st = AggState::new(group_by, aggs);
            if input.distinct {
                run(input, ctx, env, &mut |t| {
                    ctx.row_in(id);
                    ctx.timed(id, || st.push(&t))
                })?;
            } else {
                let mut seen: HashSet<Tuple> = HashSet::new();
                run(input, ctx, env, &mut |t| {
                    ctx.row_in(id);
                    ctx.timed(id, || {
                        if seen.insert(t.as_ref().clone()) {
                            st.push(&t)
                        } else {
                            Ok(())
                        }
                    })
                })?;
            }
            let result = ctx.timed(id, || st.finish())?;
            for t in result.iter() {
                ctx.row_out(id);
                out(Cow::Borrowed(t))?;
            }
            Ok(())
        }
        PhysOp::XsubRebind { bindings, body } => {
            // filter1's `when` rule: materialize bindings under the
            // *current* environment, then smash.
            let mut f = XsubValue::empty();
            for (name, plan) in bindings {
                f.bind(name.clone(), materialize(plan, ctx, env, id)?);
            }
            // The bindings already saw the deltas in scope; the body must
            // not apply those deltas to the rebound names a second time.
            let kept = env.delta.iter().filter(|(n, _)| f.get(n).is_none());
            let inner = Env {
                xsub: env.xsub.smash(&f),
                delta: DeltaValue::new(kept.map(|(n, d)| (n.clone(), d.clone()))),
            };
            run(body, ctx, &inner, &mut |t| {
                ctx.row_out(id);
                out(t)
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
                let rel = materialize(&atom.input, ctx, &inner, id)?;
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
            run(body, ctx, &inner, &mut |t| {
                ctx.row_out(id);
                out(t)
            })
        }
    }
}

/// Materialize a sub-plan into a relation, charging its rows to operator
/// `id`. A constant sub-plan is handed back by `Arc` bump (with the same
/// row counts a streamed copy would record), so a prepared xsub-value
/// bound as constants is reused, not re-collected.
fn materialize(
    node: &PhysNode,
    ctx: &Ctx<'_>,
    env: &Env,
    id: usize,
) -> Result<Relation, EvalError> {
    if let PhysOp::Const { rel } = &node.op {
        let n = rel.len() as u64;
        let (out, into) = (&ctx.ctrs[node.id].rows_out, &ctx.ctrs[id].rows_in);
        out.set(out.get() + n);
        into.set(into.get() + n);
        return Ok(rel.clone());
    }
    let mut rows: Vec<Tuple> = Vec::new();
    run(node, ctx, env, &mut |t| {
        ctx.row_in(id);
        rows.push(t.into_owned());
        Ok(())
    })?;
    let rel = Relation::from_tuple_set(node.arity, rows.into_iter().collect())?;
    Ok(rel)
}

/// Materialize a sub-plan into a hash set (the right operand of `Diff` /
/// `Intersect` — probed per left row, so O(1) membership beats a sorted
/// set), charging rows and build time to operator `id`.
fn collect_set(
    node: &PhysNode,
    ctx: &Ctx<'_>,
    env: &Env,
    id: usize,
) -> Result<HashSet<Tuple>, EvalError> {
    let mut set: HashSet<Tuple> = HashSet::new();
    run(node, ctx, env, &mut |t| {
        ctx.row_in(id);
        ctx.timed(id, || set.insert(t.into_owned()));
        Ok(())
    })?;
    Ok(set)
}

#[allow(clippy::too_many_arguments)]
fn run_hash_join(
    node: &PhysNode,
    left: &PhysNode,
    right: &PhysNode,
    pairs: &[EquiPair],
    residual: &[Predicate],
    build: Side,
    ctx: &Ctx<'_>,
    env: &Env,
    out: &mut Sink<'_>,
) -> Result<(), EvalError> {
    let id = node.id;
    let (build_child, probe_child) = match build {
        Side::Left => (left, right),
        Side::Right => (right, left),
    };
    let build_is_left = build == Side::Left;

    if pairs.is_empty() {
        // Nested loop (product, possibly with residual theta conjuncts).
        let mut rows: Vec<Tuple> = Vec::new();
        run(build_child, ctx, env, &mut |t| {
            ctx.row_in(id);
            rows.push(t.into_owned());
            Ok(())
        })?;
        return run(probe_child, ctx, env, &mut |t| {
            ctx.row_in(id);
            for b in &rows {
                let joined = ctx.timed(id, || {
                    if build_is_left {
                        b.concat(&t)
                    } else {
                        t.concat(b)
                    }
                });
                if ctx.timed(id, || residual.iter().all(|p| p.eval(&joined))) {
                    ctx.row_out(id);
                    out(Cow::Owned(joined))?;
                }
            }
            Ok(())
        });
    }

    let build_cols: Vec<usize> = pairs
        .iter()
        .map(|p| if build_is_left { p.left } else { p.right })
        .collect();
    let probe_cols: Vec<usize> = pairs
        .iter()
        .map(|p| if build_is_left { p.right } else { p.left })
        .collect();

    // Build rows live in an arena; the chained table maps key hashes to
    // arena positions (entry `i` of the table is `rows[i]`).
    let mut table = ChainTable::new();
    let mut rows: Vec<Tuple> = Vec::new();
    run(build_child, ctx, env, &mut |t| {
        ctx.row_in(id);
        ctx.timed(id, || {
            table.push(table.hash_cols(&t, &build_cols));
            rows.push(t.into_owned());
        });
        Ok(())
    })?;

    run(probe_child, ctx, env, &mut |t| {
        ctx.row_in(id);
        let hash = ctx.timed(id, || table.hash_cols(&t, &probe_cols));
        for i in table.matches(hash) {
            let b = &rows[i];
            let joined = ctx.timed(id, || {
                if !cols_eq(b, &build_cols, &t, &probe_cols) {
                    return None;
                }
                let joined = if build_is_left {
                    b.concat(&t)
                } else {
                    t.concat(b)
                };
                residual.iter().all(|p| p.eval(&joined)).then_some(joined)
            });
            if let Some(joined) = joined {
                ctx.row_out(id);
                out(Cow::Owned(joined))?;
            }
        }
        Ok(())
    })
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
            pairs,
            residual,
            build,
            ..
        } => {
            if pairs.is_empty() {
                format!(
                    "NestedLoop (build={}, residual={})",
                    side_name(*build),
                    residual.len()
                )
            } else {
                let ks: Vec<String> = pairs
                    .iter()
                    .map(|p| format!("#{}=#{}", p.left, p.right))
                    .collect();
                format!(
                    "HashJoin (build={}, on {}, residual={})",
                    side_name(*build),
                    ks.join(" "),
                    residual.len()
                )
            }
        }
        PhysOp::IndexJoin {
            probe_side,
            rel,
            index_cols,
            ..
        } => {
            let cs: Vec<String> = index_cols.iter().map(|c| format!("#{c}")).collect();
            format!(
                "IndexJoin (probe={}, index {rel}[{}])",
                side_name(*probe_side),
                cs.join(", ")
            )
        }
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

fn fmt_elapsed(d: Duration) -> String {
    let n = d.as_nanos();
    if n >= 1_000_000 {
        format!("{:.2}ms", n as f64 / 1.0e6)
    } else {
        format!("{:.1}\u{b5}s", n as f64 / 1.0e3)
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
            "  (rows in={} out={}, time={})",
            s.rows_in,
            s.rows_out,
            fmt_elapsed(s.elapsed)
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

    fn hash_join(l: PhysNode, r: PhysNode) -> PhysNode {
        PhysNode::new(
            l.arity + r.arity,
            PhysOp::HashJoin {
                left: Box::new(l),
                right: Box::new(r),
                pairs: vec![EquiPair { left: 0, right: 0 }],
                residual: vec![],
                build: Side::Right,
            },
        )
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
        let index_join = |probe: PhysNode| {
            PhysNode::new(
                4,
                PhysOp::IndexJoin {
                    probe: Box::new(probe),
                    probe_side: Side::Left,
                    rel: "S".into(),
                    index_cols: vec![0],
                    probe_cols: vec![0],
                    residual: vec![],
                },
            )
        };
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
            },
        ));
        let out = plan.execute(&db).unwrap();
        assert_eq!(
            out,
            Relation::from_rows(4, [tuple![1, 1, 1, 1], tuple![1, 2, 1, 2]]).unwrap()
        );
    }
}
