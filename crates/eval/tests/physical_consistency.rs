//! Differential property tests for the pipelined physical operator
//! layer: for random databases, queries, and hypothetical updates, the
//! lowered [`PhysPlan`] must produce exactly what the legacy tree-walking
//! evaluators produce, under every strategy's prepared form (lazy-reduced,
//! ENF for HQL-1/HQL-2, modified ENF for HQL-3), with and without
//! declared secondary indexes, and on duplicate-producing ("bag")
//! workloads where the streaming segments carry duplicates internally.
//! Aggregates run over inputs the plan proves duplicate-free (folded
//! straight into the accumulators) and over duplicate-carrying ones
//! (deduplicated first), with and without grouping columns. Joins of
//! joins (rows that are views of views) feed every operator that keeps a
//! row as a tuple. Joins of indexed base names under `when {U}` probe the
//! stored index through the delta's ∇/Δ⁺ patch and must match the same
//! query run with no index declared. Merge joins on column 0 must match a
//! hash join over the same operands and the direct semantics, and so must
//! the group join that aggregates a merge join's runs.

use proptest::prelude::*;

use hypoquery_algebra::scope::dom_update;
use hypoquery_algebra::{AggExpr, CmpOp, ExplicitSubst, Predicate, Query, StateExpr, Update};
use hypoquery_core::{fully_lazy, to_enf_query, to_mod_enf, RewriteTrace};
use hypoquery_eval::join::EquiPair;
use hypoquery_eval::{
    algorithm_hql1, algorithm_hql2, algorithm_hql3, eval_bag_query, eval_pure, eval_query,
    BagState, EvalError, PhysNode, PhysOp, PhysPlan, Side,
};
use hypoquery_opt::{lower_query, plan, Statistics};
use hypoquery_storage::{DatabaseState, RelName, Relation, Tuple, Value};
use hypoquery_testkit::{
    arb_agg, arb_atomic_update_seq, arb_db, arb_int_value, arb_predicate, arb_pure_query,
    arb_pure_subst, arb_query, arb_tuple, arb_update, Universe,
};

fn universe() -> Universe {
    Universe::standard()
}

/// `db` with an index declared on every column of every relation — the
/// adversarial extreme: every probe/index-join gate that *can* fire does.
fn declare_all(db: &DatabaseState) -> DatabaseState {
    declare_every_column(db, None)
}

/// `db` with an index declared on every column of `only`, or of every
/// relation when `only` is `None`.
fn declare_every_column(db: &DatabaseState, only: Option<&RelName>) -> DatabaseState {
    let mut out = db.clone();
    let decls: Vec<(RelName, usize)> = out
        .catalog()
        .iter()
        .filter(|(name, _)| only.is_none_or(|o| o == *name))
        .flat_map(|(name, schema)| (0..schema.arity).map(move |c| (name.clone(), c)))
        .collect();
    for (name, col) in decls {
        out.declare_index(name, col).unwrap();
    }
    out
}

/// Lower and execute through the physical pipeline — the path
/// `engine::Database::execute` takes for every explicit strategy.
fn pipelined(q: &Query, db: &DatabaseState) -> Result<Relation, TestCaseError> {
    let phys: PhysPlan = lower_query(q, db.catalog(), &Statistics::of(db))
        .map_err(|e| TestCaseError::fail(format!("lowering failed: {e}")))?;
    phys.execute(db)
        .map_err(|e| TestCaseError::fail(format!("execution failed: {e}")))
}

/// Positive relational algebra only — select / project / union /
/// product / join over base relations and literals. On these shapes the
/// support of bag evaluation equals set evaluation, so the legacy bag
/// interpreter is a second independent oracle for the physical layer's
/// handling of duplicate-carrying streams (projections and unions emit
/// duplicates between pipeline breakers).
fn arb_positive_query(universe: &Universe, arity: usize, depth: u32) -> BoxedStrategy<Query> {
    let names = universe.names_of_arity(arity);
    let mut leaves: Vec<BoxedStrategy<Query>> =
        vec![arb_tuple(arity).prop_map(Query::singleton).boxed()];
    if !names.is_empty() {
        leaves.push(prop::sample::select(names).prop_map(Query::Base).boxed());
    }
    let leaf = prop::strategy::Union::new(leaves).boxed();
    if depth == 0 {
        return leaf;
    }
    let sub = arb_positive_query(universe, arity, depth - 1);
    let mut options: Vec<BoxedStrategy<Query>> = vec![
        leaf,
        (sub.clone(), arb_predicate(arity, 1))
            .prop_map(|(q, p)| q.select(p))
            .boxed(),
        (sub.clone(), sub).prop_map(|(a, b)| a.union(b)).boxed(),
    ];
    // Duplicate-heavy projections from wider inputs.
    for src_arity in universe.arities() {
        if src_arity >= arity && src_arity > 0 {
            let inner = arb_positive_query(universe, src_arity, depth - 1);
            let cols = prop::collection::vec(0..src_arity, arity);
            options.push((inner, cols).prop_map(|(q, cols)| q.project(cols)).boxed());
        }
    }
    for la in 1..arity {
        let ra = arity - la;
        let l = arb_positive_query(universe, la, depth - 1);
        let r = arb_positive_query(universe, ra, depth - 1);
        options.push(
            (l.clone(), r.clone())
                .prop_map(|(a, b)| a.product(b))
                .boxed(),
        );
        options.push(
            (l, r, arb_predicate(arity, 1))
                .prop_map(|(a, b, p)| a.join(b, p))
                .boxed(),
        );
    }
    prop::strategy::Union::new(options).boxed()
}

/// `aggregate [group_by; aggs] (input)` over an arity-`arity` input:
/// zero to two grouping columns, one to three aggregates.
fn arb_aggregate_over(input: BoxedStrategy<Query>, arity: usize) -> BoxedStrategy<Query> {
    (
        input,
        prop::collection::vec(0..arity, 0..=2),
        prop::collection::vec(arb_agg(arity), 1..=3),
    )
        .prop_map(|(q, group_by, aggs)| q.aggregate(group_by, aggs))
        .boxed()
}

/// Inputs mostly lowered to duplicate-free plans — base scans, joins of
/// them, `when` bodies over them — plus arbitrary standard queries.
fn arb_distinct_input(universe: &Universe) -> BoxedStrategy<Query> {
    let base = prop::sample::select(universe.names_of_arity(2)).prop_map(Query::Base);
    let unary = prop::sample::select(universe.names_of_arity(1)).prop_map(Query::Base);
    prop_oneof![
        base.clone().boxed(),
        (unary.clone(), unary, arb_predicate(2, 1))
            .prop_map(|(a, b, p)| a.join(b, p))
            .boxed(),
        (base, arb_update(universe, 1))
            .prop_map(|(q, u)| q.when(StateExpr::update(u)))
            .boxed(),
        arb_query(universe, 2, 2),
    ]
    .boxed()
}

/// An arity-2 aggregate (`[c; agg]`), for use as an operand.
fn arb_aggregate2(universe: &Universe) -> BoxedStrategy<Query> {
    (arb_query(universe, 2, 2), 0..2usize, arb_agg(2))
        .prop_map(|(q, c, agg)| q.aggregate([c], [agg]))
        .boxed()
}

/// A join of `l` (arity `la`) and `r` (arity `ra`): an equi-join on one
/// column pair plus a random residual, or (for the nested loop) a product
/// filtered by the residual alone.
fn arb_join_of(
    l: BoxedStrategy<Query>,
    la: usize,
    r: BoxedStrategy<Query>,
    ra: usize,
) -> BoxedStrategy<Query> {
    (l, r, 0..la, 0..ra, arb_predicate(la + ra, 1), any::<bool>())
        .prop_map(move |(l, r, i, j, residual, equi)| {
            let p = if equi {
                Predicate::col_col(i, CmpOp::Eq, la + j).and(residual)
            } else {
                residual
            };
            l.join(r, p)
        })
        .boxed()
}

/// A join operand: mostly a base relation, sometimes a small query.
fn arb_operand(universe: &Universe, arity: usize) -> BoxedStrategy<Query> {
    prop_oneof![
        2 => prop::sample::select(universe.names_of_arity(arity)).prop_map(Query::Base),
        1 => arb_query(universe, arity, 1),
    ]
    .boxed()
}

/// Three binary operands joined left-deep or right-deep (arity 6).
fn arb_join3(universe: &Universe) -> BoxedStrategy<Query> {
    let op = || arb_operand(universe, 2);
    prop_oneof![
        arb_join_of(arb_join_of(op(), 2, op(), 2), 4, op(), 2),
        arb_join_of(op(), 2, arb_join_of(op(), 2, op(), 2), 4),
    ]
    .boxed()
}

/// Pipelined == every legacy evaluator, on the strategy's own prepared
/// query form, over one database state.
fn check_all_strategies(q: &Query, db: &DatabaseState) -> Result<(), TestCaseError> {
    let expected = eval_query(q, db)
        .map_err(|e| TestCaseError::fail(format!("direct evaluation failed: {e}")))?;

    // Lazy: reduce to pure RA, then the pipeline must match `eval_pure`.
    let reduced = fully_lazy(q, &mut |q| q, &mut RewriteTrace::new());
    let lazy = pipelined(&reduced, db)?;
    prop_assert_eq!(&lazy, &eval_pure(&reduced, db).unwrap());
    prop_assert_eq!(&lazy, &expected);

    // HQL-1 / HQL-2 share one physical plan over the ENF form.
    let enf = to_enf_query(q, &mut RewriteTrace::new());
    let eager = pipelined(&enf, db)?;
    prop_assert_eq!(&eager, &algorithm_hql1(&enf, db).unwrap());
    prop_assert_eq!(&eager, &algorithm_hql2(&enf, db).unwrap());
    prop_assert_eq!(&eager, &expected);

    // HQL-3 over modified ENF (not every state expression qualifies).
    if let Ok(modq) = to_mod_enf(q) {
        let delta = pipelined(&modq, db)?;
        prop_assert_eq!(&delta, &algorithm_hql3(&modq, db).unwrap());
        prop_assert_eq!(&delta, &expected);
    }

    // Auto: whatever the planner picks, lowered as a whole plan.
    let stats = Statistics::of(db);
    let p = plan(q, db.catalog(), &stats);
    let phys = lower_query(&p.query, db.catalog(), &stats)
        .map_err(|e| TestCaseError::fail(format!("plan lowering failed: {e}")))?;
    let auto = phys
        .execute(db)
        .map_err(|e| TestCaseError::fail(format!("plan execution failed: {e}")))?;
    prop_assert_eq!(&auto, &expected);

    Ok(())
}

/// A binary name that the join-when tests join and update.
fn arb_joined_name() -> BoxedStrategy<RelName> {
    prop::sample::select(vec![RelName::from("R"), RelName::from("S")]).boxed()
}

/// An equi-join of two such base names (possibly the same one) on one
/// column pair or on both, sometimes with a residual conjunct.
fn arb_base_equi_join() -> BoxedStrategy<Query> {
    (
        arb_joined_name(),
        arb_joined_name(),
        (0..2usize, 0..2usize),
        any::<bool>(),
        any::<bool>(),
        arb_predicate(4, 1),
    )
        .prop_map(|(a, b, (i, j), two_keys, residual, r)| {
            let mut p = Predicate::col_col(i, CmpOp::Eq, 2 + j);
            if two_keys {
                p = p.and(Predicate::col_col(1 - i, CmpOp::Eq, 3 - j));
            }
            if residual {
                p = p.and(r);
            }
            Query::Base(a).join(Query::Base(b), p)
        })
        .boxed()
}

/// The rows of one update atom: a literal row whose key may or may not
/// be in the base, every row of one key (already in the base when the
/// atom updates the same name), a filtered base, or a join of the joined
/// names (under earlier atoms, itself a join-when).
fn arb_atom_source() -> BoxedStrategy<Query> {
    let name = || prop::sample::select(universe().names_of_arity(2)).prop_map(Query::Base);
    prop_oneof![
        arb_tuple(2).prop_map(Query::singleton).boxed(),
        (name(), 0i64..10)
            .prop_map(|(q, k)| q.select(Predicate::col_cmp(0, CmpOp::Eq, k)))
            .boxed(),
        (name(), arb_predicate(2, 1))
            .prop_map(|(q, p)| q.select(p))
            .boxed(),
        (arb_base_equi_join(), 0..4usize, 0..4usize)
            .prop_map(|(j, a, b)| j.project(vec![a, b]))
            .boxed(),
    ]
    .boxed()
}

/// An atomic-update sequence over the joined names: one to three steps,
/// each an insert or delete, or a key deleted and then re-inserted with
/// a (maybe different) row.
fn arb_join_when_update() -> BoxedStrategy<Update> {
    let atom = (arb_joined_name(), any::<bool>(), arb_atom_source()).prop_map(|(n, ins, q)| {
        if ins {
            Update::insert(n, q)
        } else {
            Update::delete(n, q)
        }
    });
    let reinsert = (arb_joined_name(), 0i64..10, 0i64..10).prop_map(|(n, k, v)| {
        let key = Query::Base(n.clone()).select(Predicate::col_cmp(0, CmpOp::Eq, k));
        let row = Query::singleton(Tuple::new(vec![Value::int(k), Value::int(v)]));
        Update::delete(n.clone(), key).then(Update::insert(n, row))
    });
    prop::collection::vec(prop_oneof![2 => atom.boxed(), 1 => reinsert.boxed()], 1..=3)
        .prop_map(Update::seq)
        .boxed()
}

/// `plan` with every [`PhysOp::MergeJoin`] replaced by what `make` builds
/// from its operands and residual, and every [`PhysOp::GroupJoin`] by an
/// [`PhysOp::Aggregate`] over what `make` builds from its operands,
/// installed anew with [`PhysPlan::new`]; and how many joins it replaced.
fn swap_merge_joins(
    plan: &PhysPlan,
    make: fn(PhysNode, PhysNode, Vec<Predicate>) -> PhysOp,
) -> (PhysPlan, usize) {
    fn walk(n: &mut PhysNode, make: fn(PhysNode, PhysNode, Vec<Predicate>) -> PhysOp) -> usize {
        match &n.op {
            PhysOp::MergeJoin {
                left,
                right,
                residual,
            } => {
                n.op = make((**left).clone(), (**right).clone(), residual.clone());
                return 1;
            }
            PhysOp::GroupJoin {
                left,
                right,
                group_by,
                aggs,
            } => {
                let arity = left.arity + right.arity;
                let join = make((**left).clone(), (**right).clone(), Vec::new());
                n.op = PhysOp::Aggregate {
                    input: Box::new(PhysNode::new(arity, join)),
                    group_by: group_by.clone(),
                    aggs: aggs.clone(),
                };
                return 1;
            }
            _ => {}
        }
        match &mut n.op {
            PhysOp::Scan { .. }
            | PhysOp::IndexProbe { .. }
            | PhysOp::Const { .. }
            | PhysOp::MergeJoin { .. }
            | PhysOp::GroupJoin { .. } => 0,
            PhysOp::Filter { input, .. }
            | PhysOp::Project { input, .. }
            | PhysOp::Dedup { input }
            | PhysOp::Aggregate { input, .. } => walk(input, make),
            PhysOp::HashJoin { left, right, .. }
            | PhysOp::Union { left, right }
            | PhysOp::Diff { left, right }
            | PhysOp::Intersect { left, right } => walk(left, make) + walk(right, make),
            PhysOp::XsubRebind { bindings, body } => {
                bindings
                    .iter_mut()
                    .map(|(_, b)| walk(b, make))
                    .sum::<usize>()
                    + walk(body, make)
            }
            PhysOp::DeltaApply { atoms, body } => {
                atoms
                    .iter_mut()
                    .map(|a| walk(&mut a.input, make))
                    .sum::<usize>()
                    + walk(body, make)
            }
        }
    }
    let mut root = plan.root.clone();
    let swapped = walk(&mut root, make);
    (PhysPlan::new(root), swapped)
}

/// A merge join on column 0 of both operands, as the lowering builds one.
fn merge_join_on_key(left: PhysNode, right: PhysNode, residual: Vec<Predicate>) -> PhysOp {
    PhysOp::MergeJoin {
        left: Box::new(left),
        right: Box::new(right),
        residual,
    }
}

/// A hash join on column 0 of both operands, building the right one, or
/// with `stored`, taking the right one's stored index as its table.
fn key_join(left: PhysNode, right: PhysNode, residual: Vec<Predicate>, stored: bool) -> PhysOp {
    PhysOp::HashJoin {
        left: Box::new(left),
        right: Box::new(right),
        pairs: vec![EquiPair { left: 0, right: 0 }],
        residual,
        build: Side::Right,
        stored,
    }
}

/// A hash join on column 0 of both operands, building the right one.
fn hash_join_on_key(left: PhysNode, right: PhysNode, residual: Vec<Predicate>) -> PhysOp {
    key_join(left, right, residual, false)
}

/// An index join on column 0 of both operands: the left one probes the
/// index of the base relation the right one scans whole, patched by any
/// delta in scope.
fn index_join_on_key(left: PhysNode, right: PhysNode, residual: Vec<Predicate>) -> PhysOp {
    key_join(left, right, residual, true)
}

/// A value of any type, so that one column mixes them: a merge walks
/// keys in `Value`'s total order across types.
fn arb_mixed_value() -> BoxedStrategy<Value> {
    prop_oneof![
        3 => arb_int_value(),
        1 => prop::sample::select(vec!["a", "b"]).prop_map(Value::str),
        1 => any::<bool>().prop_map(Value::bool),
    ]
    .boxed()
}

/// `R` and `S` (up to 8 rows each, mixed-type keys out of a handful so
/// keys repeat, either may be empty) over the standard universe.
fn arb_mixed_db() -> BoxedStrategy<DatabaseState> {
    let rel = || {
        prop::collection::vec((arb_mixed_value(), arb_mixed_value()), 0..=8).prop_map(|rows| {
            let rows = rows.into_iter().map(|(k, v)| Tuple::new(vec![k, v]));
            Relation::from_rows(2, rows).unwrap()
        })
    };
    (rel(), rel())
        .prop_map(|(r, s)| {
            let mut db = DatabaseState::new(universe().catalog);
            db.set("R", r).unwrap();
            db.set("S", s).unwrap();
            db
        })
        .boxed()
}

/// A bound on column 0 by a constant of any type.
fn arb_key_bound() -> BoxedStrategy<Predicate> {
    let op = prop::sample::select(vec![CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge]);
    (op, arb_mixed_value())
        .prop_map(|(op, v)| Predicate::col_cmp(0, op, v))
        .boxed()
}

/// A join operand that lowers to an ordered source: a bare base name, a
/// ranged one, a filtered one, or both.
fn arb_ordered_operand() -> BoxedStrategy<Query> {
    let name = || arb_joined_name().prop_map(Query::Base);
    prop_oneof![
        2 => name(),
        1 => (name(), arb_key_bound()).prop_map(|(q, b)| q.select(b)),
        1 => (name(), arb_predicate(2, 1)).prop_map(|(q, p)| q.select(p)),
        1 => (name(), arb_key_bound(), arb_predicate(2, 1))
            .prop_map(|(q, b, p)| q.select(b.and(p))),
    ]
    .boxed()
}

/// A join of two ordered operands on `#0 = #2`, sometimes with the
/// second equi pair `#1 = #3` and sometimes with a residual.
fn arb_merge_join() -> BoxedStrategy<Query> {
    (
        arb_ordered_operand(),
        arb_ordered_operand(),
        any::<bool>(),
        any::<bool>(),
        arb_predicate(4, 1),
    )
        .prop_map(|(a, b, second, residual, r)| {
            let mut p = Predicate::col_col(0, CmpOp::Eq, 2);
            if second {
                p = p.and(Predicate::col_col(1, CmpOp::Eq, 3));
            }
            if residual {
                p = p.and(r);
            }
            a.join(b, p)
        })
        .boxed()
}

/// A value for a summed column: mostly a small int, sometimes one near
/// the `i64` bounds (so sums leave the range, or only pass through it),
/// sometimes a string or a boolean (so a `sum` over it fails).
fn arb_sum_value() -> BoxedStrategy<Value> {
    let big = vec![
        i64::MAX,
        i64::MAX - 1,
        i64::MIN,
        i64::MIN + 1,
        i64::MAX / 2 + 1,
        -(i64::MAX / 2),
    ];
    prop_oneof![
        4 => arb_int_value(),
        2 => prop::sample::select(big).prop_map(Value::int),
        1 => prop::sample::select(vec!["a", "b"]).prop_map(Value::str),
        1 => any::<bool>().prop_map(Value::bool),
    ]
    .boxed()
}

/// `R` and `S` (up to 8 rows each, mixed-type keys that repeat on both
/// sides, either may be empty) whose column 1 is an [`arb_sum_value`].
fn arb_group_join_db() -> BoxedStrategy<DatabaseState> {
    let rel = || {
        prop::collection::vec((arb_mixed_value(), arb_sum_value()), 0..=8).prop_map(|rows| {
            let rows = rows.into_iter().map(|(k, v)| Tuple::new(vec![k, v]));
            Relation::from_rows(2, rows).unwrap()
        })
    };
    (rel(), rel())
        .prop_map(|(r, s)| {
            let mut db = DatabaseState::new(universe().catalog);
            db.set("R", r).unwrap();
            db.set("S", s).unwrap();
            db
        })
        .boxed()
}

/// What a query answers, with an error reduced to its kind: which value
/// a failing `sum` meets first depends on the order the rows arrive in.
fn outcome(r: Result<Relation, EvalError>) -> Result<Relation, String> {
    r.map_err(|e| match e {
        EvalError::AggregateType { agg, .. } => format!("{agg}: not an integer"),
        e => e.to_string(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hypothetical queries (`body when {update}`): the pipeline matches
    /// every legacy strategy, with and without declared indexes.
    #[test]
    fn pipelined_matches_legacy_hypothetical(
        body in arb_query(&universe(), 2, 2),
        u in arb_update(&universe(), 2),
        db in arb_db(&universe(), 6),
    ) {
        let q = body.when(StateExpr::update(u));
        check_all_strategies(&q, &db)?;
        check_all_strategies(&q, &declare_all(&db))?;
    }

    /// Arbitrary queries (hypothetical contexts may appear at any depth,
    /// including under set operations and joins).
    #[test]
    fn pipelined_matches_legacy_nested(
        q in arb_query(&universe(), 2, 3),
        db in arb_db(&universe(), 6),
    ) {
        check_all_strategies(&q, &db)?;
        check_all_strategies(&q, &declare_all(&db))?;
    }

    /// Duplicate-heavy positive-RA workloads: the physical layer streams
    /// segments that carry duplicates between pipeline breakers; its
    /// answer must match both the set-semantics oracle and the support
    /// of the independent bag-semantics interpreter.
    #[test]
    fn pipelined_matches_bag_support_on_positive_queries(
        q in arb_positive_query(&universe(), 2, 3),
        db in arb_db(&universe(), 6),
    ) {
        let expected = eval_query(&q, &db).unwrap();
        let got = pipelined(&q, &db)?;
        prop_assert_eq!(&got, &expected);
        prop_assert_eq!(&pipelined(&q, &declare_all(&db))?, &expected);
        let bag = eval_bag_query(&q, &BagState::from_set(&db)).unwrap();
        prop_assert_eq!(bag.to_set(), expected);
    }

    /// Aggregates over duplicate-free inputs, at top level and under a
    /// hypothetical update; grouped and ungrouped; inputs may be empty.
    #[test]
    fn pipelined_matches_legacy_aggregate_over_distinct_inputs(
        q in arb_aggregate_over(arb_distinct_input(&universe()), 2),
        wide in arb_aggregate_over(
            (arb_query(&universe(), 2, 1), arb_query(&universe(), 2, 1), arb_predicate(4, 1))
                .prop_map(|(a, b, p)| a.join(b, p))
                .boxed(),
            4,
        ),
        u in arb_update(&universe(), 1),
        db in arb_db(&universe(), 6),
    ) {
        for q in [q.clone(), wide, q.when(StateExpr::update(u))] {
            check_all_strategies(&q, &db)?;
            check_all_strategies(&q, &declare_all(&db))?;
        }
    }

    /// Aggregates over streams that carry duplicates (projections and
    /// unions underneath): set semantics for `COUNT`/`SUM` must hold.
    #[test]
    fn pipelined_matches_legacy_aggregate_over_duplicate_streams(
        q in arb_aggregate_over(arb_positive_query(&universe(), 2, 3), 2),
        unary in arb_aggregate_over(arb_positive_query(&universe(), 1, 2), 1),
        db in arb_db(&universe(), 6),
    ) {
        for q in [q, unary] {
            check_all_strategies(&q, &db)?;
            check_all_strategies(&q, &declare_all(&db))?;
        }
    }

    /// Hypothetical operators nested both ways around the same names: an
    /// ENF query (`when ε`) inside a mod-ENF `when {U}`, and a mod-ENF
    /// query inside an explicit substitution. Lowered as given, both
    /// must match the direct semantics.
    #[test]
    fn pipelined_nested_enf_and_mod_enf_match_direct(
        body in arb_query(&universe(), 2, 2),
        pure_body in arb_pure_query(&universe(), 2, 2),
        u in arb_atomic_update_seq(&universe(), 2),
        eps in arb_pure_subst(&universe(), 1),
        db in arb_db(&universe(), 6),
    ) {
        // Rebind every updated name too (to itself unless `eps` binds
        // it), so the update's deltas meet rebindings of the names they
        // touch.
        let mut eps = eps;
        for name in dom_update(&u) {
            if eps.get(&name).is_none() {
                eps.bind(name.clone(), Query::Base(name));
            }
        }
        let enf = to_enf_query(&body.when(StateExpr::subst(eps.clone())), &mut RewriteTrace::new());
        let modq = to_mod_enf(&pure_body.when(StateExpr::update(u.clone()))).unwrap();
        for q in [
            enf.when(StateExpr::update(u)),
            modq.when(StateExpr::subst(eps)),
        ] {
            let expected = eval_query(&q, &db).unwrap();
            prop_assert_eq!(&pipelined(&q, &db)?, &expected);
            prop_assert_eq!(&pipelined(&q, &declare_all(&db))?, &expected);
        }
    }

    /// Aggregates as operands: joined, unioned, and as the source rows
    /// of a hypothetical insertion.
    #[test]
    fn pipelined_matches_legacy_aggregate_operands(
        agg in arb_aggregate2(&universe()),
        other in arb_query(&universe(), 2, 2),
        body in arb_query(&universe(), 2, 1),
        p in arb_predicate(4, 1),
        db in arb_db(&universe(), 6),
    ) {
        let queries = [
            agg.clone().join(other.clone(), p),
            agg.clone().union(other),
            body.when(StateExpr::update(Update::insert("R", agg))),
        ];
        for q in queries {
            check_all_strategies(&q, &db)?;
            check_all_strategies(&q, &declare_all(&db))?;
        }
    }

    /// Joins of joins, so rows are views inside views: three-way joins
    /// (equi and nested-loop, with residuals), under a filter and a
    /// projection, and fed into every operator that keeps a row as a
    /// tuple — a hash join's build side, a dedup set, the right operand
    /// of a difference or intersection, grouped and non-distinct
    /// aggregates, an xsub binding, a delta atom and the plan sink.
    #[test]
    fn pipelined_matches_legacy_on_nested_join_views(
        join3 in arb_join3(&universe()),
        other3 in arb_join3(&universe()),
        pair in arb_join_of(arb_operand(&universe(), 1), 1, arb_operand(&universe(), 1), 1),
        pred in arb_predicate(6, 1),
        cols in prop::collection::vec(0..6usize, 2),
        other in arb_operand(&universe(), 2),
        p in arb_predicate(4, 1),
        group_by in prop::collection::vec(0..6usize, 0..=2),
        aggs in prop::collection::vec(arb_agg(6), 1..=2),
        agg in arb_agg(2),
        body in arb_query(&universe(), 2, 1),
        insert in any::<bool>(),
        db in arb_db(&universe(), 6),
    ) {
        // Arity 2: a three-way join's rows read through a filter and a
        // projection (not duplicate-free).
        let narrow = join3.clone().select(pred).project(cols);
        let eps = ExplicitSubst::new([("R".into(), pair.clone()), ("S".into(), narrow.clone())]);
        let atom = |q: Query| if insert { Update::insert("R", q) } else { Update::delete("R", q) };
        let queries = [
            join3,
            narrow.clone(),
            pair.clone().join(other.clone(), p.clone()),
            other.clone().join(narrow.clone(), p.clone()),
            pair.clone().union(narrow.clone()).join(other.clone(), p),
            other.clone().diff(pair.clone()),
            other.clone().intersect(narrow.clone()),
            other3.aggregate(group_by, aggs),
            narrow.clone().aggregate([], [agg.clone()]),
            pair.clone().union(narrow.clone()).aggregate([0], [agg]),
            body.clone().when(StateExpr::subst(eps)),
            body.when(StateExpr::update(atom(pair).then(Update::insert("S", narrow)))),
        ];
        for q in queries {
            check_all_strategies(&q, &db)?;
            check_all_strategies(&q, &declare_all(&db))?;
        }
    }

    /// Equi-joins of indexed base names under `when {U}` (§5.5's
    /// `join-when`): the index join probes the stored index, drops the ∇
    /// rows and adds the Δ⁺ rows with each probe's key. It must match the
    /// direct semantics and the same query with no index declared (a hash
    /// join over the merged scans), under the aggregate of the served
    /// `scan` query, a filter, and a second `when` around the first.
    /// Indexes are declared on both relations, or on `only` one: then the
    /// side that scans it is the stored one whether or not the delta
    /// rebinds it, on the left or on the right.
    #[test]
    fn index_join_when_matches_unindexed(
        join in arb_base_equi_join(),
        u in arb_join_when_update(),
        outer in arb_join_when_update(),
        shape in 0..4usize,
        p in arb_predicate(4, 1),
        only in prop::sample::select(vec![None, Some(RelName::from("R")), Some(RelName::from("S"))]),
        db in arb_db(&universe(), 8),
    ) {
        let Query::Join(a, b, _) = &join else { unreachable!() };
        // Whether a side scans an indexed relation, so the lowering must
        // store or merge it.
        let indexed_side = [a, b].iter().any(|side| match side.as_ref() {
            Query::Base(name) => only.as_ref().is_none_or(|o| o == name),
            _ => false,
        });
        let when = |q: Query| q.when(StateExpr::update(u.clone()));
        let q = match shape {
            0 => when(join),
            1 => when(join.aggregate([], [AggExpr::Count, AggExpr::Sum(1)])),
            2 => when(join.select(p)),
            _ => when(join).when(StateExpr::update(outer)),
        };
        let expected = eval_query(&q, &db).unwrap();
        let indexed = declare_every_column(&db, only.as_ref());
        let phys = lower_query(&q, indexed.catalog(), &Statistics::of(&indexed)).unwrap();
        let shape = phys.render(None);
        prop_assert!(
            !indexed_side
                || ["IndexJoin", "MergeJoin", "GroupJoin"].iter().any(|op| shape.contains(op)),
            "{}",
            shape
        );
        // Where the merge takes a column-0 key, the patched index join on
        // that key runs in its place, built by hand.
        let (by_index, _) = swap_merge_joins(&phys, index_join_on_key);
        let shape = by_index.render(None);
        prop_assert!(
            (!indexed_side || shape.contains("IndexJoin"))
                && !shape.contains("MergeJoin")
                && !shape.contains("GroupJoin"),
            "{}",
            shape
        );
        prop_assert_eq!(&by_index.execute(&indexed).unwrap(), &expected);
        for d in [&db, &indexed] {
            prop_assert_eq!(&pipelined(&q, d)?, &expected);
        }
        check_all_strategies(&q, &indexed)?;
    }

    /// Merge joins on column 0 of two ordered sources — bare, ranged
    /// (the lowering copies one side's range to the other), filtered,
    /// xsub-bound and delta-rebound scans, with a second equi pair and a
    /// residual — over keys of mixed types that repeat on both sides: the
    /// lowered merge, the same plan with a hash join in its place, and the
    /// direct semantics agree.
    #[test]
    fn merge_join_matches_hash_join(
        join in arb_merge_join(),
        u in arb_join_when_update(),
        binding in arb_ordered_operand(),
        bound in arb_joined_name(),
        shape in 0..4usize,
        db in arb_mixed_db(),
    ) {
        let eps = || StateExpr::subst(ExplicitSubst::single(bound.clone(), binding.clone()));
        let q = match shape {
            0 => join,
            1 => join.when(StateExpr::update(u)),
            2 => join.when(eps()),
            _ => join.when(StateExpr::update(u)).when(eps()),
        };
        let expected = eval_query(&q, &db).unwrap();
        let phys = lower_query(&q, db.catalog(), &Statistics::of(&db)).unwrap();
        let (hashed, swapped) = swap_merge_joins(&phys, hash_join_on_key);
        prop_assert!(swapped >= 1, "{}", phys.render(None));
        prop_assert_eq!(&phys.execute(&db).unwrap(), &expected);
        prop_assert_eq!(&hashed.execute(&db).unwrap(), &expected);
        check_all_strategies(&q, &db)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Aggregates over a residual-free merge join on column 0, grouped by
    /// nothing or by the key columns, lower to a group join. Over ordered
    /// operands of every kind (bare, ranged, filtered, xsub-bound,
    /// delta-rebound, with deletes and re-inserts of one key), keys that
    /// repeat on both sides, empty sides, summed columns holding a
    /// non-integer or values near the `i64` bounds: the group join, an
    /// `Aggregate` over a hand-built `MergeJoin` and over a `HashJoin` of
    /// the same operands, and the direct semantics give one answer — or
    /// fail alike.
    #[test]
    fn group_join_matches_aggregate_over_joins(
        a in arb_ordered_operand(),
        b in arb_ordered_operand(),
        group_by in prop::sample::select(vec![vec![], vec![0], vec![2], vec![0, 2], vec![2, 0]]),
        aggs in prop::collection::vec(arb_agg(4), 1..=3),
        u in arb_join_when_update(),
        binding in arb_ordered_operand(),
        bound in arb_joined_name(),
        shape in 0..4usize,
        db in arb_group_join_db(),
    ) {
        let join = a.join(b, Predicate::col_col(0, CmpOp::Eq, 2));
        let eps = || StateExpr::subst(ExplicitSubst::single(bound.clone(), binding.clone()));
        let agg = join.aggregate(group_by, aggs);
        let q = match shape {
            0 => agg,
            1 => agg.when(StateExpr::update(u)),
            2 => agg.when(eps()),
            _ => agg.when(StateExpr::update(u)).when(eps()),
        };
        let expected = outcome(eval_query(&q, &db));
        let phys = lower_query(&q, db.catalog(), &Statistics::of(&db)).unwrap();
        let shape = phys.render(None);
        // Under the `when` wrappers (whose atoms may join too).
        let mut body = &phys.root;
        while let PhysOp::XsubRebind { body: inner, .. } | PhysOp::DeltaApply { body: inner, .. } =
            &body.op
        {
            body = inner;
        }
        prop_assert!(matches!(body.op, PhysOp::GroupJoin { .. }), "{}", shape);
        prop_assert_eq!(&outcome(phys.execute(&db)), &expected, "{}", shape);
        for make in [merge_join_on_key as fn(_, _, _) -> _, hash_join_on_key] {
            let (swapped, _) = swap_merge_joins(&phys, make);
            let shape = swapped.render(None);
            prop_assert!(!shape.contains("GroupJoin"), "{}", shape);
            prop_assert_eq!(&outcome(swapped.execute(&db)), &expected, "{}", shape);
        }
    }
}
