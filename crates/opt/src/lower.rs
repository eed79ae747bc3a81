//! Lowering: logical queries → executable [`PhysPlan`]s.
//!
//! This is the bridge between the planner's strategy choice and the
//! pipelined executor of [`hypoquery_eval::physical`]. Each
//! [`PlannedStrategy`](crate::planner::PlannedStrategy) prepares the
//! query into a different *shape* — pure RA for lazy, ENF (`when ε`
//! only) for eager-xsub/hybrid, mod-ENF (`when {U}` with atomic-update
//! sequences) for eager-delta — but the lowering is shape-agnostic: it
//! walks whatever it is given and emits the one physical operator set,
//! turning `when ε` into [`PhysOp::XsubRebind`] and `when {U}` into
//! [`PhysOp::DeltaApply`]. HQL-1 and HQL-2 therefore lower to
//! *identical* plans: their difference (node-at-a-time vs. clustered
//! traversal) is interpreter bookkeeping with no physical counterpart.
//!
//! # Access-path selection
//!
//! Every relation stores its tuples as one sorted vector, so it is sorted
//! on column 0.
//! The lowering picks an access path for a `Select` directly over a base
//! name (one of the first three below) and for each side of a join:
//!
//! * **Index probe.** The predicate carries a point-equality conjunct
//!   (`stats::point_eq_conjuncts`) on a declared indexed column, and the
//!   name is provably unrebound (see *Shadow analysis*): an
//!   [`PhysOp::IndexProbe`], which re-checks the full predicate.
//! * **Ranged scan.** Otherwise, the predicate's `#0 op const` conjuncts
//!   (`=`, `<`, `<=`, `>`, `>=`, either operand order; `stats::key_range`)
//!   bound a column-0 [`KeyRange`]: a [`PhysOp::Scan`] that walks only
//!   that range, under a [`PhysOp::Filter`] with the **full** predicate.
//!   The range only needs to contain every answer, so correctness never
//!   rests on how tight it is. When those bounds are every conjunct
//!   (`stats::key_range_is_exact`), the scan stands alone: `CmpOp::apply`
//!   and the stored order are the same total order on values, so the
//!   range holds exactly the rows the predicate keeps. A ranged scan
//!   needs no shadow gate: whatever the name resolves to at run time —
//!   the stored base, an xsub binding, or either merged with a delta —
//!   is a sorted relation the scan can range.
//! * **Full scan.** A predicate with no column-0 bound (`<>`, `or`,
//!   `not`, column-to-column) filters a plain `Scan`.
//! * **Joins.** An equi pair on column 0 of both sides, each an *ordered
//!   source* (a scan, ranged or not, maybe under filters — whatever the
//!   name resolves to at run time is sorted on column 0), makes the join a
//!   [`PhysOp::MergeJoin`]; the other pairs become residual conjuncts.
//!   Equal keys share every bound, so a column-0 range on one side's scan
//!   is copied to the other's (both walk the intersection of two). The
//!   merge replaces the hash join wherever it qualifies: both read every
//!   row, but the merge hashes nothing.
//!
//!   Every other join is one [`PhysOp::HashJoin`]. A side that is a base
//!   scan with declared indexes on all its equi columns, and that no xsub
//!   rebinds, may be its *stored* side (an index join): the executor takes
//!   that relation's stored index as the join's table instead of building
//!   one. A delta-rebound side qualifies: each probe's matches are patched
//!   with the delta's ∇ and Δ⁺ rows of that key (§5.5's `join-when` on a
//!   base access path). With both sides qualifying, the side no delta
//!   rebinds is stored (its probes need no patch), and between equals the
//!   *larger* (estimated) side, leaving the smaller to stream — the same
//!   cost-based policy the planner assumes. The merge replaces that stored
//!   join too, unless the stored side's estimate exceeds
//!   `MERGE_MAX_RATIO` (2, from `report e11`'s sweep) times the probe
//!   side's: then reading all of the stored side costs more than probing
//!   it. Otherwise the hash join builds the smaller (estimated) side.
//!
//! * **Group joins.** An `aggregate` over a merge join with no residual,
//!   grouped by nothing or by the join's key columns only (`#0` and the
//!   right side's `#0`), lowers to one [`PhysOp::GroupJoin`]: the merge's
//!   walk folds each key's run of left rows with each right row into the
//!   accumulators, and no pair is formed. A residual, or a grouping column
//!   that is not a key, keeps the `Aggregate` over the `MergeJoin`.
//!
//! The cost model ([`crate::stats::estimate`]) prices the two index
//! paths, but without the shadow analysis below, so it can price a path
//! the lowering does not take in two cases: a stored join on an
//! xsub-rebound name, and an index probe on any rebound name (a point
//! select under a delta stays a ranged scan). It also streams the smaller
//! side where the lowering keeps a delta-rebound larger side streaming,
//! and it prices neither ranges nor merge joins.
//!
//! **Shadow analysis.** An index path must read the stored base
//! relation, or the base patched by a delta. During lowering we track
//! the set of names bound by each enclosing `XsubRebind` and the set
//! updated by each enclosing `DeltaApply` (and the names of a prepared
//! xsub-value, see [`lower_under_xsub`]); wrappers only ever add their
//! statically-known domains to the environment, so gating on these sets
//! is sound. A name in neither set is *guaranteed* unrebound in every
//! execution and may take either index path. A name only in the delta
//! set may still be a join's stored side, which applies whatever delta is
//! in scope at run time. An xsub binding replaces the base outright, so a
//! name in the xsub set takes neither. This is the only place index
//! access paths are chosen: the legacy evaluators
//! (`filter1`/`filter2`/`filter3`) are index-free oracles.
//!
//! Duplicate semantics: streamed segments may carry duplicates (set
//! semantics are restored at pipeline breakers); a join operand whose
//! node is not [`distinct`](PhysNode::distinct) gets an explicit
//! [`PhysOp::Dedup`], so duplicates never multiply join work.

use hypoquery_storage::{Catalog, KeyRange, RelName};

use hypoquery_algebra::scope::NameSet;
use hypoquery_algebra::{AggExpr, CmpOp, Predicate, Query, StateExpr, Update};

use hypoquery_eval::join::{split_equi_pairs, EquiPair};
use hypoquery_eval::physical::{is_ordered_source, DeltaAtom, PhysNode, PhysOp, PhysPlan, Side};
use hypoquery_eval::{EvalError, XsubValue};

use crate::stats::{estimate_rows, key_range, key_range_is_exact, point_eq_conjuncts, Statistics};

/// Lower any normalized query (pure, ENF, or mod-ENF — `when` bodies
/// must be explicit substitutions or atomic-update sequences) to a
/// physical plan. A [`Plan`](crate::Plan)'s query is already in the shape
/// its strategy prepared, so lowering a plan is lowering `&plan.query`.
pub fn lower_query(
    q: &Query,
    catalog: &Catalog,
    stats: &Statistics,
) -> Result<PhysPlan, EvalError> {
    let lw = Lowerer { catalog, stats };
    let root = lw.lower(q, &Shadow::default())?;
    Ok(PhysPlan::new(root))
}

/// Lower any planned shape (as [`lower_query`] takes) to run in the state
/// `apply(DB, e)` of an already materialized xsub-value (a prepared
/// hypothetical state, Example 2.2):
/// the plan is an [`PhysOp::XsubRebind`] whose bindings are `e`'s
/// relations as [`PhysOp::Const`]s, bound by reference at run time.
pub fn lower_under_xsub(
    q: &Query,
    e: &XsubValue,
    catalog: &Catalog,
    stats: &Statistics,
) -> Result<PhysPlan, EvalError> {
    let bindings = e
        .iter()
        .map(|(name, rel)| {
            let op = PhysOp::Const { rel: rel.clone() };
            (name.clone(), PhysNode::new(rel.arity(), op))
        })
        .collect();
    let root = Lowerer { catalog, stats }.lower_rebind(bindings, q, &Shadow::default())?;
    Ok(PhysPlan::new(root))
}

/// How many times the probe side's estimated rows the stored side's may
/// be before a stored join beats a merge join on the same operands (see
/// *Joins* above). `report e11`'s `merge_vs_index_*` sweep (2000 probe
/// rows under a 1% delta, `BENCH_e11.json`) has the merge 1.31× as fast
/// as the index join at 1× and 0.88× at 4×, crossing at
/// `merge_vs_index_crossover` ≈ 2.6× (2.2× in another full run); 2 stays
/// below both.
const MERGE_MAX_RATIO: f64 = 2.0;

/// Names that an enclosing hypothetical wrapper may rebind at runtime.
#[derive(Clone, Default)]
struct Shadow {
    xsub: NameSet,
    delta: NameSet,
}

impl Shadow {
    fn unshadowed(&self, name: &RelName) -> bool {
        !self.xsub.contains(name) && !self.delta.contains(name)
    }
}

struct Lowerer<'a> {
    catalog: &'a Catalog,
    stats: &'a Statistics,
}

impl Lowerer<'_> {
    fn lower(&self, q: &Query, sh: &Shadow) -> Result<PhysNode, EvalError> {
        match q {
            Query::Base(name) => self.scan(name, None),
            Query::Singleton(t) => Ok(PhysNode::new(
                t.arity(),
                PhysOp::Const {
                    rel: hypoquery_storage::Relation::singleton(t.clone()),
                },
            )),
            Query::Empty { arity } => Ok(PhysNode::new(
                *arity,
                PhysOp::Const {
                    rel: hypoquery_storage::Relation::empty(*arity),
                },
            )),
            Query::Select(inner, p) => {
                let input = match inner.as_ref() {
                    Query::Base(name) => {
                        // Index probe: point-equality over a declared
                        // index of an unrebound base scan.
                        let probe = point_eq_conjuncts(p)
                            .into_iter()
                            .find(|(c, _)| sh.unshadowed(name) && self.stats.has_index(name, *c));
                        if let Some((col, value)) = probe {
                            let arity = self.catalog.arity(name)?;
                            return Ok(PhysNode::new(
                                arity,
                                PhysOp::IndexProbe {
                                    name: name.clone(),
                                    col,
                                    value,
                                    pred: p.clone(),
                                },
                            ));
                        }
                        // Otherwise walk only the column-0 range the
                        // predicate bounds; the filter keeps all of `p`,
                        // unless the range is all of it.
                        let range = key_range(p);
                        if range.is_some() && key_range_is_exact(p) {
                            return self.scan(name, range);
                        }
                        self.scan(name, range)?
                    }
                    _ => self.lower(inner, sh)?,
                };
                Ok(PhysNode::new(
                    input.arity,
                    PhysOp::Filter {
                        input: Box::new(input),
                        pred: p.clone(),
                    },
                ))
            }
            Query::Project(inner, cols) => {
                let input = self.lower(inner, sh)?;
                if let Some(&bad) = cols.iter().find(|&&c| c >= input.arity) {
                    return Err(EvalError::UnsupportedShape(format!(
                        "projection column #{bad} out of range for arity {}",
                        input.arity
                    )));
                }
                Ok(PhysNode::new(
                    cols.len(),
                    PhysOp::Project {
                        input: Box::new(input),
                        cols: cols.clone(),
                    },
                ))
            }
            Query::Union(a, b) => {
                self.lower_setop(a, b, sh, |l, r| PhysOp::Union { left: l, right: r })
            }
            Query::Intersect(a, b) => {
                self.lower_setop(a, b, sh, |l, r| PhysOp::Intersect { left: l, right: r })
            }
            Query::Diff(a, b) => {
                self.lower_setop(a, b, sh, |l, r| PhysOp::Diff { left: l, right: r })
            }
            Query::Product(a, b) => self.lower_join(a, b, None, sh),
            Query::Join(a, b, p) => self.lower_join(a, b, Some(p), sh),
            Query::When(body, eta) => self.lower_when(body, eta, sh),
            Query::Aggregate {
                input,
                group_by,
                aggs,
            } => Ok(aggregate(
                self.lower(input, sh)?,
                group_by.clone(),
                aggs.clone(),
            )),
        }
    }

    fn scan(&self, name: &RelName, range: Option<KeyRange>) -> Result<PhysNode, EvalError> {
        let arity = self.catalog.arity(name)?;
        let name = name.clone();
        Ok(PhysNode::new(arity, PhysOp::Scan { name, range }))
    }

    fn lower_setop(
        &self,
        a: &Query,
        b: &Query,
        sh: &Shadow,
        make: impl FnOnce(Box<PhysNode>, Box<PhysNode>) -> PhysOp,
    ) -> Result<PhysNode, EvalError> {
        let l = self.lower(a, sh)?;
        let r = self.lower(b, sh)?;
        if l.arity != r.arity {
            return Err(EvalError::UnsupportedShape(format!(
                "set operation over mismatched arities {} and {}",
                l.arity, r.arity
            )));
        }
        let arity = l.arity;
        Ok(PhysNode::new(arity, make(Box::new(l), Box::new(r))))
    }

    /// Lower a join (`pred = None` for a plain product): a merge join, or
    /// a hash join whose table is the stored index of a qualifying side
    /// or else built from the smaller estimated side.
    fn lower_join(
        &self,
        a: &Query,
        b: &Query,
        pred: Option<&Predicate>,
        sh: &Shadow,
    ) -> Result<PhysNode, EvalError> {
        let l = self.lower(a, sh)?;
        let r = self.lower(b, sh)?;
        let arity = l.arity + r.arity;
        let (pairs, residual) = match pred {
            Some(p) => split_equi_pairs(p, l.arity),
            None => (Vec::new(), Vec::new()),
        };
        let est_l = estimate_rows(a, self.stats);
        let est_r = estimate_rows(b, self.stats);

        // A merge needs an equi pair on column 0 of both sides, each an
        // ordered source; the other pairs become residual conjuncts.
        let merge = pairs.contains(&EquiPair { left: 0, right: 0 })
            && is_ordered_source(&l)
            && is_ordered_source(&r);

        // A side's stored index stands in for its table when it is a base
        // scan with every equi column declared that no xsub rebinds: a
        // binding replaces the stored base, while a delta only patches it
        // (the executor's `DeltaPatch`).
        let qualifies = |q: &Query, side: Side| match q {
            Query::Base(name) => {
                !pairs.is_empty()
                    && !sh.xsub.contains(name)
                    && pairs
                        .iter()
                        .all(|p| self.stats.has_index(name, side.pick(p.left, p.right)))
            }
            _ => false,
        };
        let (left_ok, right_ok) = (qualifies(a, Side::Left), qualifies(b, Side::Right));
        // With both sides indexed, store the one no delta rebinds (its
        // probes need no patch), then the larger: only the smaller side
        // streams.
        let undelta = |q: &Query| !matches!(q, Query::Base(n) if sh.delta.contains(n));
        let store_left = left_ok && (!right_ok || (undelta(a), est_l) >= (undelta(b), est_r));
        // A merge hashes nothing, but reads every row of both sides where
        // a stored join reads only the probe side's: it keeps the stored
        // join once the stored side is `MERGE_MAX_RATIO` times the probe
        // side.
        let (est_stored, est_probe) = if store_left {
            (est_l, est_r)
        } else {
            (est_r, est_l)
        };
        let stored =
            (store_left || right_ok) && !(merge && est_stored <= MERGE_MAX_RATIO * est_probe);
        if merge && !stored {
            return Ok(merge_join(l, r, pairs, residual));
        }

        // The stored side is the build side; a built table (or, with no
        // equi pairs, a nested loop's rows) comes from the smaller
        // estimated side, ties keeping the legacy build-on-right default.
        let build_left = if stored { store_left } else { est_l < est_r };
        let build = if build_left { Side::Left } else { Side::Right };
        Ok(PhysNode::new(
            arity,
            PhysOp::HashJoin {
                left: Box::new(dedup_if_dup_stream(l)),
                right: Box::new(dedup_if_dup_stream(r)),
                pairs,
                residual,
                build,
                stored,
            },
        ))
    }

    /// An [`PhysOp::XsubRebind`] of `bindings` around `body`, which is
    /// lowered with the bound names shadowed.
    fn lower_rebind(
        &self,
        bindings: Vec<(RelName, PhysNode)>,
        body: &Query,
        sh: &Shadow,
    ) -> Result<PhysNode, EvalError> {
        let mut inner = sh.clone();
        inner
            .xsub
            .extend(bindings.iter().map(|(name, _)| name.clone()));
        let body = self.lower(body, &inner)?;
        Ok(PhysNode::new(
            body.arity,
            PhysOp::XsubRebind {
                bindings,
                body: Box::new(body),
            },
        ))
    }

    fn lower_when(
        &self,
        body: &Query,
        eta: &StateExpr,
        sh: &Shadow,
    ) -> Result<PhysNode, EvalError> {
        match eta {
            StateExpr::Subst(eps) => {
                // Bindings are evaluated under the *current* environment
                // (filter1's rule), so they lower under the current
                // shadow; only the body sees the new names.
                let mut bindings = Vec::with_capacity(eps.len());
                for (name, q) in eps.iter() {
                    bindings.push((name.clone(), self.lower(q, sh)?));
                }
                self.lower_rebind(bindings, body, sh)
            }
            StateExpr::Update(u) if u.is_atomic_sequence() => {
                let mut atoms = Vec::new();
                let mut inner = sh.clone();
                for atom in u.flatten() {
                    let (name, src, insert) = match atom {
                        Update::Insert(name, q) => (name, q, true),
                        Update::Delete(name, q) => (name, q, false),
                        _ => unreachable!("flatten() of an atomic sequence yields atoms"),
                    };
                    // The atom's source sees the deltas of *earlier*
                    // atoms (filter3's Seq rule), so lower it under the
                    // shadow accumulated so far, then extend.
                    let input = self.lower(src, &inner)?;
                    inner.delta.insert(name.clone());
                    atoms.push(DeltaAtom {
                        name: name.clone(),
                        insert,
                        input,
                    });
                }
                let body = self.lower(body, &inner)?;
                Ok(PhysNode::new(
                    body.arity,
                    PhysOp::DeltaApply {
                        atoms,
                        body: Box::new(body),
                    },
                ))
            }
            _ => Err(EvalError::UnsupportedShape(format!(
                "cannot lower `when {eta}`: normalize to ENF (explicit substitution) \
                 or mod-ENF (atomic-update sequence) first"
            ))),
        }
    }
}

/// A [`PhysOp::MergeJoin`] of two ordered sources on column 0: every
/// other equi pair joins the residual, and a column-0 range on either
/// side's scan narrows the other's too, since equal keys share every
/// bound.
fn merge_join(
    mut l: PhysNode,
    mut r: PhysNode,
    pairs: Vec<EquiPair>,
    mut residual: Vec<Predicate>,
) -> PhysNode {
    let split = l.arity;
    let others = pairs.into_iter().filter(|p| (p.left, p.right) != (0, 0));
    residual.extend(others.map(|p| Predicate::col_col(p.left, CmpOp::Eq, split + p.right)));
    let range = match (scan_range(&mut l).take(), scan_range(&mut r).take()) {
        (Some(a), Some(b)) => Some(a.with_lo(b.lo).with_hi(b.hi)),
        (a, b) => a.or(b),
    };
    *scan_range(&mut l) = range.clone();
    *scan_range(&mut r) = range;
    PhysNode::new(
        split + r.arity,
        PhysOp::MergeJoin {
            left: Box::new(l),
            right: Box::new(r),
            residual,
        },
    )
}

/// An [`PhysOp::Aggregate`] over `input` — or, when `input` is a merge
/// join with no residual and `group_by` names only its key columns (`#0`
/// and the right side's `#0`) or nothing, the [`PhysOp::GroupJoin`] that
/// folds each key's runs in the join's own walk instead of aggregating its
/// pairs. A residual decides pair by pair, and any other grouping column
/// splits a run, so both keep the plain aggregate.
fn aggregate(input: PhysNode, group_by: Vec<usize>, aggs: Vec<AggExpr>) -> PhysNode {
    let arity = group_by.len() + aggs.len();
    match input.op {
        PhysOp::MergeJoin {
            left,
            right,
            residual,
        } if residual.is_empty() && group_by.iter().all(|&c| c == 0 || c == left.arity) => {
            let op = PhysOp::GroupJoin {
                left,
                right,
                group_by,
                aggs,
            };
            PhysNode::new(arity, op)
        }
        op => {
            let input = Box::new(PhysNode { op, ..input });
            let op = PhysOp::Aggregate {
                input,
                group_by,
                aggs,
            };
            PhysNode::new(arity, op)
        }
    }
}

/// The range of the scan at the bottom of an ordered source.
fn scan_range(node: &mut PhysNode) -> &mut Option<KeyRange> {
    match &mut node.op {
        PhysOp::Scan { range, .. } => range,
        PhysOp::Filter { input, .. } => scan_range(input),
        op => unreachable!("not an ordered source: {op:?}"),
    }
}

/// Wrap `node` in a [`PhysOp::Dedup`] when its output stream may carry
/// duplicates (it is not [`distinct`](PhysNode::distinct)) that would
/// multiply downstream join work.
fn dedup_if_dup_stream(node: PhysNode) -> PhysNode {
    if node.distinct {
        return node;
    }
    PhysNode::new(
        node.arity,
        PhysOp::Dedup {
            input: Box::new(node),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypoquery_algebra::CmpOp;
    use hypoquery_eval::eval_query;
    use hypoquery_storage::{tuple, DatabaseState, Relation};

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

    fn lower_in(db: &DatabaseState, q: &Query) -> PhysPlan {
        lower_query(q, db.catalog(), &Statistics::of(db)).unwrap()
    }

    #[test]
    fn point_select_lowers_to_index_probe_when_declared() {
        let mut db = db();
        let q = Query::base("R").select(Predicate::col_cmp(0, CmpOp::Eq, 2));
        let plan = lower_in(&db, &q);
        assert_eq!(ranged(&plan.root), (Some("#0 = 2".into()), None));

        db.declare_index("R", 0).unwrap();
        let plan = lower_in(&db, &q);
        assert!(matches!(plan.root.op, PhysOp::IndexProbe { .. }));
        let out = plan.execute(&db).unwrap();
        assert_eq!(out, eval_query(&q, &db).unwrap());
    }

    #[test]
    fn shadowed_scan_never_probes_an_index() {
        let mut db = db();
        db.declare_index("R", 0).unwrap();
        // R is rebound by the substitution, so σ over it must not touch
        // the stored index.
        let sel = Query::base("R").select(Predicate::col_cmp(0, CmpOp::Eq, 2));
        let q = sel
            .clone()
            .when(StateExpr::subst(hypoquery_algebra::ExplicitSubst::single(
                "R",
                Query::base("S"),
            )));
        let plan = lower_in(&db, &q);
        let PhysOp::XsubRebind { body, .. } = &plan.root.op else {
            panic!("expected XsubRebind root, got {:?}", plan.root.op);
        };
        assert_eq!(ranged(body), (Some("#0 = 2".into()), None));
        // The unshadowed S *binding* under the same plan may still probe.
        let out = plan.execute(&db).unwrap();
        assert_eq!(out, eval_query(&q, &db).unwrap());
    }

    /// The range of the scan at or under `node`, and the predicate of the
    /// filter over it, if any.
    fn ranged(node: &PhysNode) -> (Option<String>, Option<&Predicate>) {
        let (scan, pred) = match &node.op {
            PhysOp::Filter { input, pred } => (input.as_ref(), Some(pred)),
            _ => (node, None),
        };
        let PhysOp::Scan { range, .. } = &scan.op else {
            panic!("expected Scan, got {:?}", scan.op);
        };
        (range.as_ref().map(|r| r.to_string()), pred)
    }

    #[test]
    fn exact_range_needs_no_filter() {
        let db = db();
        // Every conjunct bounds column 0: the ranged scan is the answer.
        let exact = Predicate::col_cmp(0, CmpOp::Ge, 2).and(Predicate::col_cmp(0, CmpOp::Lt, 3));
        // A `#1` conjunct next to the bound: the filter stays.
        let mixed = Predicate::col_cmp(0, CmpOp::Lt, 3).and(Predicate::col_cmp(1, CmpOp::Gt, 10));
        for (p, range, filter) in [
            (&exact, "#0 >= 2 and #0 < 3", None),
            (&mixed, "#0 < 3", Some(&mixed)),
        ] {
            let q = Query::base("R").select(p.clone());
            let plan = lower_in(&db, &q);
            assert_eq!(ranged(&plan.root), (Some(range.into()), filter), "{p}");
            assert_eq!(plan.render(None).contains("Filter"), filter.is_some());
            assert_eq!(plan.execute(&db).unwrap(), eval_query(&q, &db).unwrap());
        }
    }

    #[test]
    fn range_aggregate_lowers_to_ranged_scan() {
        let db = db();
        // The `branch` workload's range aggregate after rewriting: a bound
        // on the sort key next to a bound on another column.
        let p = Predicate::col_cmp(1, CmpOp::Ge, 20).and(Predicate::col_cmp(0, CmpOp::Lt, 3));
        let q = Query::base("R")
            .select(p.clone())
            .aggregate(vec![], vec![hypoquery_algebra::AggExpr::Count]);
        let plan = lower_in(&db, &q);
        let PhysOp::Aggregate { input, .. } = &plan.root.op else {
            panic!("expected Aggregate, got {:?}", plan.root.op);
        };
        // The filter keeps the full predicate above the range.
        assert_eq!(ranged(input), (Some("#0 < 3".into()), Some(&p)));
        assert!(plan.render(None).contains("Scan R [#0 < 3]"));
        let (out, m) = plan.execute_analyze(&db).unwrap();
        assert_eq!(out, eval_query(&q, &db).unwrap());
        // Node 2 is the scan: it walked rows 1 and 2, not row 3.
        assert_eq!(m.node(2).rows_out, 2);
    }

    #[test]
    fn shadowed_scan_is_still_ranged() {
        let mut db = db();
        db.declare_index("R", 0).unwrap();
        let p = Predicate::col_cmp(0, CmpOp::Eq, 3);
        let s_for_r = StateExpr::subst(hypoquery_algebra::ExplicitSubst::single(
            "R",
            Query::base("S"),
        ));
        let ins = StateExpr::update(Update::insert("R", Query::singleton(tuple![3, 33])));
        for q in [
            Query::base("R").select(p.clone()).when(s_for_r.clone()),
            Query::base("R").select(p.clone()).when(ins.clone()),
            Query::base("R").select(p.clone()).when(ins).when(s_for_r),
        ] {
            let plan = lower_in(&db, &q);
            let mut body = &plan.root;
            while let PhysOp::XsubRebind { body: b, .. } | PhysOp::DeltaApply { body: b, .. } =
                &body.op
            {
                body = b;
            }
            // R is rebound, so no index probe — but the range stays.
            assert_eq!(ranged(body), (Some("#0 = 3".into()), None), "{q}");
            assert_eq!(
                plan.execute(&db).unwrap(),
                eval_query(&q, &db).unwrap(),
                "{q}"
            );
        }
    }

    #[test]
    fn ne_and_or_predicates_stay_unranged() {
        let db = db();
        for p in [
            Predicate::col_cmp(0, CmpOp::Ne, 2),
            Predicate::col_cmp(0, CmpOp::Lt, 2).or(Predicate::col_cmp(0, CmpOp::Gt, 2)),
            Predicate::col_cmp(0, CmpOp::Lt, 2).not(),
            Predicate::col_col(0, CmpOp::Lt, 1),
        ] {
            let q = Query::base("R").select(p.clone());
            let plan = lower_in(&db, &q);
            assert_eq!(ranged(&plan.root), (None, Some(&p)));
            assert_eq!(plan.execute(&db).unwrap(), eval_query(&q, &db).unwrap());
        }
    }

    /// `R` and `S` with second columns that meet (`R.#1` is 10, 20, 30;
    /// `S` is `(7, 10)`, `(8, 30)`), indexed on `#1` where `indexed` says:
    /// a join on `#1 = #3` takes no merge, so the index-join rules decide.
    fn value_join_db(indexed: &[&str]) -> DatabaseState {
        let mut cat = Catalog::new();
        cat.declare_arity("R", 2).unwrap();
        cat.declare_arity("S", 2).unwrap();
        let mut db = DatabaseState::new(cat);
        db.insert_rows("R", [tuple![1, 10], tuple![2, 20], tuple![3, 30]])
            .unwrap();
        db.insert_rows("S", [tuple![7, 10], tuple![8, 30]]).unwrap();
        for name in indexed {
            db.declare_index(*name, 1).unwrap();
        }
        db
    }

    fn r_join_s_on_values() -> Query {
        Query::base("R").join(Query::base("S"), Predicate::col_col(1, CmpOp::Eq, 3))
    }

    /// The relation whose stored index `op` joins with and the probe
    /// side, if `op` is a stored hash join.
    fn stored_join(op: &PhysOp) -> Option<(&str, Side)> {
        let PhysOp::HashJoin {
            left,
            right,
            build,
            stored: true,
            ..
        } = op
        else {
            return None;
        };
        let PhysOp::Scan { name, range: None } = &build.pick(left, right).op else {
            panic!("stored side is not a whole scan: {op:?}");
        };
        Some((name.as_str(), build.flip()))
    }

    #[test]
    fn join_uses_declared_index_side() {
        let db = value_join_db(&["S"]);
        let q = r_join_s_on_values();
        let plan = lower_in(&db, &q);
        assert_eq!(
            stored_join(&plan.root.op),
            Some(("S", Side::Left)),
            "{}",
            plan.render(None)
        );
        let out = plan.execute(&db).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out, eval_query(&q, &db).unwrap());
    }

    /// The operator under `node`'s hypothetical wrappers.
    fn under_wrappers(node: &PhysNode) -> &PhysOp {
        match &node.op {
            PhysOp::XsubRebind { body, .. } | PhysOp::DeltaApply { body, .. } => {
                under_wrappers(body)
            }
            op => op,
        }
    }

    fn r_join_s() -> Query {
        Query::base("R").join(Query::base("S"), Predicate::col_col(0, CmpOp::Eq, 2))
    }

    #[test]
    fn delta_rebound_indexed_side_lowers_to_index_join() {
        let db = value_join_db(&["S"]);
        let del_s = Update::delete(
            "S",
            Query::base("S").select(Predicate::col_cmp(1, CmpOp::Lt, 20)),
        );
        let ins_s = Update::insert("S", Query::singleton(tuple![9, 20]));
        for u in [del_s.clone(), ins_s.clone(), del_s.then(ins_s)] {
            let q = r_join_s_on_values().when(StateExpr::update(u));
            let plan = lower_in(&db, &q);
            assert_eq!(
                stored_join(under_wrappers(&plan.root)),
                Some(("S", Side::Left)),
                "{}",
                plan.render(None)
            );
            assert_eq!(
                plan.execute(&db).unwrap(),
                eval_query(&q, &db).unwrap(),
                "{q}"
            );
        }
    }

    #[test]
    fn xsub_rebound_side_still_hash_joins() {
        let db = value_join_db(&["R", "S"]);
        let s_for_r = StateExpr::subst(hypoquery_algebra::ExplicitSubst::new([
            ("R".into(), Query::base("S")),
            ("S".into(), Query::base("R")),
        ]));
        let ins = StateExpr::update(
            Update::insert("R", Query::singleton(tuple![2, 21]))
                .then(Update::insert("S", Query::singleton(tuple![1, 11]))),
        );
        // A binding replaces the stored base; a delta inside it patches
        // the binding, not the base.
        for q in [
            r_join_s_on_values().when(s_for_r.clone()),
            r_join_s_on_values().when(ins).when(s_for_r),
        ] {
            let plan = lower_in(&db, &q);
            assert!(
                matches!(
                    under_wrappers(&plan.root),
                    PhysOp::HashJoin { stored: false, .. }
                ),
                "{q}: {}",
                plan.render(None)
            );
            assert_eq!(
                plan.execute(&db).unwrap(),
                eval_query(&q, &db).unwrap(),
                "{q}"
            );
        }
        // A prepared xsub-value binds its names the same way.
        let e = XsubValue::new([
            ("R".into(), db.get(&"S".into()).unwrap()),
            ("S".into(), db.get(&"R".into()).unwrap()),
        ]);
        let q = r_join_s_on_values();
        let plan = lower_under_xsub(&q, &e, db.catalog(), &Statistics::of(&db)).unwrap();
        assert!(matches!(
            under_wrappers(&plan.root),
            PhysOp::HashJoin { stored: false, .. }
        ));
        let applied = e.apply(&db).unwrap();
        assert_eq!(
            plan.execute(&db).unwrap(),
            eval_query(&q, &applied).unwrap()
        );
    }

    #[test]
    fn join_indexes_the_side_no_delta_rebinds() {
        let db = value_join_db(&["R", "S"]);
        // R is the larger side either way, so only the delta rule sends
        // the index to S.
        let q = r_join_s_on_values().when(StateExpr::update(Update::insert(
            "R",
            Query::singleton(tuple![4, 40]),
        )));
        let plan = lower_in(&db, &q);
        assert_eq!(
            stored_join(under_wrappers(&plan.root)),
            Some(("S", Side::Left)),
            "{}",
            plan.render(None)
        );
        assert_eq!(plan.execute(&db).unwrap(), eval_query(&q, &db).unwrap());
        // Without the delta, both sides are stored bases: the larger, R,
        // is indexed.
        let plan = lower_in(&db, &r_join_s_on_values());
        assert_eq!(
            stored_join(&plan.root.op),
            Some(("R", Side::Right)),
            "{}",
            plan.render(None)
        );
    }

    /// The residual count of the merge join under `plan`'s hypothetical
    /// wrappers, if that is a merge join.
    fn merged(plan: &PhysPlan) -> Option<usize> {
        match under_wrappers(&plan.root) {
            PhysOp::MergeJoin { residual, .. } => Some(residual.len()),
            _ => None,
        }
    }

    #[test]
    fn merge_join_takes_column_0_of_two_ordered_sources() {
        let db = db();
        let on = |l: usize, r: usize| Predicate::col_col(l, CmpOp::Eq, 2 + r);
        let r_gt = Query::base("R").select(Predicate::col_cmp(1, CmpOp::Gt, 10));
        let s_for_r = StateExpr::subst(hypoquery_algebra::ExplicitSubst::single(
            "R",
            Query::base("S"),
        ));
        let ins = StateExpr::update(Update::insert("S", Query::singleton(tuple![1, 11])));
        // (query, residual conjuncts of the merge, or no merge)
        let cases = [
            (r_join_s(), Some(0)),
            (
                Query::base("R").join(Query::base("S"), on(0, 0).and(on(1, 1))),
                Some(1),
            ),
            (
                Query::base("R").join(
                    Query::base("S"),
                    on(0, 0).and(Predicate::col_col(1, CmpOp::Lt, 3)),
                ),
                Some(1),
            ),
            (
                r_gt.clone().join(
                    r_gt.clone().select(Predicate::col_cmp(1, CmpOp::Lt, 30)),
                    on(0, 0),
                ),
                Some(0),
            ),
            (r_join_s().when(s_for_r), Some(0)),
            (r_join_s().when(ins), Some(0)),
            // Not column 0 of both sides.
            (Query::base("R").join(Query::base("S"), on(0, 1)), None),
            (Query::base("R").join(Query::base("S"), on(1, 1)), None),
            (Query::base("R").product(Query::base("S")), None),
            // A projection is not an ordered source.
            (
                Query::base("R")
                    .project(vec![1, 0])
                    .join(Query::base("S"), on(0, 0)),
                None,
            ),
        ];
        for (q, residual) in cases {
            let plan = lower_in(&db, &q);
            assert_eq!(merged(&plan), residual, "{q}: {}", plan.render(None));
            assert_eq!(
                plan.execute(&db).unwrap(),
                eval_query(&q, &db).unwrap(),
                "{q}"
            );
        }
    }

    #[test]
    fn aggregate_over_a_merge_join_lowers_to_a_group_join() {
        let db = db();
        let agg = |q: Query, group_by: Vec<usize>| {
            q.aggregate(
                group_by,
                vec![AggExpr::Count, AggExpr::Sum(3), AggExpr::Min(1)],
            )
        };
        let with_residual = Query::base("R").join(
            Query::base("S"),
            Predicate::col_col(0, CmpOp::Eq, 2).and(Predicate::col_col(1, CmpOp::Lt, 3)),
        );
        let ins = StateExpr::update(Update::insert("S", Query::singleton(tuple![1, 11])));
        // (query, whether it groups the merge's runs)
        let cases = [
            (agg(r_join_s(), vec![]), true),
            (agg(r_join_s(), vec![0]), true),
            (agg(r_join_s(), vec![2]), true),
            (agg(r_join_s(), vec![0, 2]), true),
            (agg(r_join_s(), vec![]).when(ins), true),
            // A residual decides pair by pair.
            (agg(with_residual, vec![]), false),
            // A non-key grouping column splits a key's run.
            (agg(r_join_s(), vec![1]), false),
            (agg(r_join_s(), vec![0, 3]), false),
        ];
        for (q, grouped) in cases {
            let plan = lower_in(&db, &q);
            let shape = plan.render(None);
            match under_wrappers(&plan.root) {
                PhysOp::GroupJoin { .. } => assert!(grouped, "{q}: {shape}"),
                PhysOp::Aggregate { input, .. } => {
                    assert!(!grouped, "{q}: {shape}");
                    assert!(matches!(input.op, PhysOp::MergeJoin { .. }), "{q}: {shape}");
                }
                _ => panic!("{q}: {shape}"),
            }
            assert_eq!(
                plan.execute(&db).unwrap(),
                eval_query(&q, &db).unwrap(),
                "{q}"
            );
        }
    }

    #[test]
    fn merge_join_copies_a_key_range_to_the_other_side() {
        let db = db();
        let below = |k: i64| Predicate::col_cmp(0, CmpOp::Lt, k);
        let q = Query::base("S")
            .select(below(150))
            .join(Query::base("R"), Predicate::col_col(0, CmpOp::Eq, 2));
        let plan = lower_in(&db, &q);
        let shape = plan.render(None);
        assert!(
            shape.starts_with("MergeJoin (on #0=#2, residual=0)"),
            "{shape}"
        );
        assert!(shape.contains("Scan S [#0 < 150]"), "{shape}");
        assert!(shape.contains("Scan R [#0 < 150]"), "{shape}");
        assert_eq!(plan.execute(&db).unwrap(), eval_query(&q, &db).unwrap());
        // Two ranges: both sides walk their intersection.
        let q = Query::base("R")
            .select(below(3).and(Predicate::col_cmp(1, CmpOp::Gt, 10)))
            .join(
                Query::base("S").select(Predicate::col_cmp(0, CmpOp::Ge, 2)),
                Predicate::col_col(0, CmpOp::Eq, 2),
            );
        let plan = lower_in(&db, &q);
        let shape = plan.render(None);
        assert!(shape.contains("Scan R [#0 >= 2 and #0 < 3]"), "{shape}");
        assert!(shape.contains("Scan S [#0 >= 2 and #0 < 3]"), "{shape}");
        let (out, m) = plan.execute_analyze(&db).unwrap();
        assert_eq!(out, eval_query(&q, &db).unwrap());
        assert_eq!(out.len(), 1);
        // Node 2 scans R, node 3 scans S: one row each.
        assert_eq!((m.node(2).rows_out, m.node(3).rows_out), (1, 1), "{shape}");
    }

    #[test]
    fn merge_join_gives_way_to_an_index_join_on_a_much_larger_side() {
        // S is the probe side; R is indexed and `big` times its size.
        for (big, index) in [(1, false), (100, true)] {
            let mut db = db();
            db.insert_rows("R", (4..2 * big).map(|k| tuple![k, k]))
                .unwrap();
            db.declare_index("R", 0).unwrap();
            let q = Query::base("S").join(Query::base("R"), Predicate::col_col(0, CmpOp::Eq, 2));
            let plan = lower_in(&db, &q);
            let op = under_wrappers(&plan.root);
            assert_eq!(
                stored_join(op),
                index.then_some(("R", Side::Left)),
                "{big}×: {}",
                plan.render(None)
            );
            assert_eq!(matches!(op, PhysOp::MergeJoin { .. }), !index, "{big}×");
            assert_eq!(plan.execute(&db).unwrap(), eval_query(&q, &db).unwrap());
        }
    }

    #[test]
    fn when_update_lowers_to_delta_apply() {
        let db = db();
        let q = Query::base("R")
            .union(Query::base("S"))
            .when(StateExpr::update(Update::insert(
                "R",
                Query::base("S").select(Predicate::col_cmp(0, CmpOp::Gt, 2)),
            )));
        let plan = lower_in(&db, &q);
        assert!(matches!(plan.root.op, PhysOp::DeltaApply { .. }));
        let out = plan.execute(&db).unwrap();
        assert_eq!(out, eval_query(&q, &db).unwrap());
    }

    #[test]
    fn delta_inside_xsub_rebinding_of_the_same_name() {
        let db = db();
        let ins = StateExpr::update(Update::insert("R", Query::singleton(tuple![9, 90])));
        let s_for_r = StateExpr::subst(hypoquery_algebra::ExplicitSubst::single(
            "R",
            Query::base("S"),
        ));
        // The insert applies on top of R's rebinding to S ...
        let q = Query::base("R").when(ins.clone()).when(s_for_r.clone());
        let expected = Relation::from_rows(2, [tuple![2, 200], tuple![3, 300], tuple![9, 90]]);
        assert_eq!(lower_in(&db, &q).execute(&db).unwrap(), expected.unwrap());
        assert_eq!(lower_in(&db, &q).execute(&db), eval_query(&q, &db));
        // ... while a rebinding made inside the insert replaces R outright.
        let q = Query::base("R").when(s_for_r).when(ins);
        assert_eq!(
            lower_in(&db, &q).execute(&db).unwrap(),
            db.get(&"S".into()).unwrap()
        );
        assert_eq!(lower_in(&db, &q).execute(&db), eval_query(&q, &db));
    }

    #[test]
    fn prepared_xsub_binds_constants() {
        let db = db();
        let e = XsubValue::new([("R".into(), db.get(&"S".into()).unwrap())]);
        let q = Query::base("R").select(Predicate::col_cmp(0, CmpOp::Eq, 2));
        let plan = lower_under_xsub(&q, &e, db.catalog(), &Statistics::of(&db)).unwrap();
        let PhysOp::XsubRebind { bindings, body } = &plan.root.op else {
            panic!("expected XsubRebind root, got {:?}", plan.root.op);
        };
        assert!(matches!(bindings[0].1.op, PhysOp::Const { .. }));
        assert_eq!(ranged(body), (Some("#0 = 2".into()), None));
        let applied = e.apply(&db).unwrap();
        assert_eq!(
            plan.execute(&db).unwrap(),
            eval_query(&q, &applied).unwrap()
        );
    }

    #[test]
    fn composition_is_rejected() {
        let db = db();
        let eta = StateExpr::update(Update::insert("R", Query::base("S")))
            .compose(StateExpr::update(Update::delete("S", Query::base("S"))));
        let q = Query::base("R").when(eta);
        assert!(matches!(
            lower_query(&q, db.catalog(), &Statistics::of(&db)),
            Err(EvalError::UnsupportedShape(_))
        ));
    }

    #[test]
    fn projected_join_side_gets_dedup() {
        let db = db();
        let projected = Query::base("R").project(vec![0]);
        // A filter over a projection still carries duplicates.
        let filtered = projected
            .clone()
            .select(Predicate::col_cmp(0, CmpOp::Ge, 2));
        for side in [projected, filtered] {
            let q = side.product(Query::base("S"));
            let plan = lower_in(&db, &q);
            let PhysOp::HashJoin { left, right, .. } = &plan.root.op else {
                panic!("expected HashJoin, got {:?}", plan.root.op);
            };
            assert!(matches!(left.op, PhysOp::Dedup { .. }));
            assert!(matches!(right.op, PhysOp::Scan { .. }));
            assert!(plan.root.distinct);
            let out = plan.execute(&db).unwrap();
            assert_eq!(out, eval_query(&q, &db).unwrap());
        }
    }
}
