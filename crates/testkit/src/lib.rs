//! # hypoquery-testkit
//!
//! Shared proptest strategies for the hypoquery workspace: arity-correct
//! random relations, database states, predicates, pure and hypothetical
//! queries, updates, and state expressions over a small fixed universe of
//! relation names.
//!
//! Every strategy keeps value domains small (integers 0..10) so that
//! selections, joins and set operations collide often — random inputs that
//! never produce matches would test nothing.

#![warn(missing_docs)]

use proptest::prelude::*;

use hypoquery_storage::{BagRelation, Catalog, DatabaseState, RelName, Relation, Tuple, Value};

use hypoquery_algebra::{
    AggExpr, CmpOp, ExplicitSubst, Predicate, Query, ScalarExpr, StateExpr, Update,
};

/// The fixed universe random expressions range over.
#[derive(Clone, Debug)]
pub struct Universe {
    /// The catalog (declared names with arities).
    pub catalog: Catalog,
    /// `(name, arity)` pairs, for strategy construction.
    pub names: Vec<(RelName, usize)>,
}

impl Universe {
    /// The standard test universe: three binary relations `R`, `S`, `T`
    /// and two unary relations `U1`, `V`.
    pub fn standard() -> Self {
        let specs: Vec<(RelName, usize)> = vec![
            ("R".into(), 2),
            ("S".into(), 2),
            ("T".into(), 2),
            ("U1".into(), 1),
            ("V".into(), 1),
        ];
        let mut catalog = Catalog::new();
        for (name, arity) in &specs {
            catalog
                .declare_arity(name.clone(), *arity)
                .expect("fresh names");
        }
        Universe {
            catalog,
            names: specs,
        }
    }

    /// Names having the given arity.
    pub fn names_of_arity(&self, arity: usize) -> Vec<RelName> {
        self.names
            .iter()
            .filter(|(_, a)| *a == arity)
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// All distinct arities in the universe.
    pub fn arities(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self.names.iter().map(|(_, a)| *a).collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Strategy for integer-only values (used where predicates must be able to
/// compare meaningfully).
pub fn arb_int_value() -> impl Strategy<Value = Value> {
    (0i64..10).prop_map(Value::int)
}

/// Strategy for tuples of the given arity (integer fields).
pub fn arb_tuple(arity: usize) -> impl Strategy<Value = Tuple> {
    prop::collection::vec(arb_int_value(), arity).prop_map(Tuple::new)
}

/// Strategy for relations of the given arity with up to `max_rows` rows.
pub fn arb_relation(arity: usize, max_rows: usize) -> impl Strategy<Value = Relation> {
    prop::collection::vec(arb_tuple(arity), 0..=max_rows).prop_map(move |rows| {
        Relation::from_rows(arity, rows).expect("generated rows have uniform arity")
    })
}

/// Strategy for a full database state over the universe, with up to
/// `max_rows` rows per relation.
pub fn arb_db(universe: &Universe, max_rows: usize) -> impl Strategy<Value = DatabaseState> {
    let catalog = universe.catalog.clone();
    let rels: Vec<_> = universe
        .names
        .iter()
        .map(|(name, arity)| (Just(name.clone()), arb_relation(*arity, max_rows)))
        .collect();
    rels.prop_map(move |bindings| {
        let mut db = DatabaseState::new(catalog.clone());
        for (name, rel) in bindings {
            db.set(name, rel).expect("declared names, matching arity");
        }
        db
    })
}

/// Strategy for a bag relation of the given arity: up to `max_rows`
/// distinct tuples, each with multiplicity 1..=`max_mult`.
pub fn arb_bag_relation(
    arity: usize,
    max_rows: usize,
    max_mult: u64,
) -> impl Strategy<Value = BagRelation> {
    prop::collection::vec((arb_tuple(arity), 1..=max_mult), 0..=max_rows).prop_map(move |rows| {
        let mut bag = BagRelation::empty(arity);
        for (t, m) in rows {
            bag.insert(t, m).expect("generated rows have uniform arity");
        }
        bag
    })
}

/// Strategy for scalar terms over `arity` columns.
fn arb_scalar(arity: usize) -> BoxedStrategy<ScalarExpr> {
    if arity == 0 {
        arb_int_value().prop_map(ScalarExpr::Const).boxed()
    } else {
        prop_oneof![
            (0..arity).prop_map(ScalarExpr::Col),
            arb_int_value().prop_map(ScalarExpr::Const),
        ]
        .boxed()
    }
}

/// Strategy for comparison operators.
pub fn arb_cmp_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

/// Strategy for predicates over tuples of the given arity, depth-limited.
pub fn arb_predicate(arity: usize, depth: u32) -> BoxedStrategy<Predicate> {
    let leaf = prop_oneof![
        1 => Just(Predicate::True),
        1 => Just(Predicate::False),
        6 => (arb_scalar(arity), arb_cmp_op(), arb_scalar(arity))
            .prop_map(|(a, op, b)| Predicate::Cmp(a, op, b)),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let sub = arb_predicate(arity, depth - 1);
    prop_oneof![
        4 => leaf,
        1 => (sub.clone(), sub.clone()).prop_map(|(a, b)| a.and(b)),
        1 => (sub.clone(), sub.clone()).prop_map(|(a, b)| a.or(b)),
        1 => sub.prop_map(Predicate::not),
    ]
    .boxed()
}

/// Strategy for **pure** RA queries of the given arity over the universe.
pub fn arb_pure_query(universe: &Universe, arity: usize, depth: u32) -> BoxedStrategy<Query> {
    arb_query_impl(universe, arity, depth, false)
}

/// Strategy for full HQL queries (may contain `when` at any level) of the
/// given arity.
pub fn arb_query(universe: &Universe, arity: usize, depth: u32) -> BoxedStrategy<Query> {
    arb_query_impl(universe, arity, depth, true)
}

fn arb_query_impl(
    universe: &Universe,
    arity: usize,
    depth: u32,
    hypothetical: bool,
) -> BoxedStrategy<Query> {
    let names = universe.names_of_arity(arity);
    let mut leaves: Vec<BoxedStrategy<Query>> = vec![
        arb_tuple(arity).prop_map(Query::singleton).boxed(),
        Just(Query::empty(arity)).boxed(),
    ];
    if !names.is_empty() {
        leaves.push(prop::sample::select(names).prop_map(Query::Base).boxed());
        // Weight base relations higher: they make interesting queries.
        leaves.push(
            prop::sample::select(universe.names_of_arity(arity))
                .prop_map(Query::Base)
                .boxed(),
        );
    }
    let leaf = prop::strategy::Union::new(leaves).boxed();
    if depth == 0 {
        return leaf;
    }

    let sub = arb_query_impl(universe, arity, depth - 1, hypothetical);
    let mut options: Vec<BoxedStrategy<Query>> = vec![
        leaf.clone(),
        leaf,
        (sub.clone(), arb_predicate(arity, 1))
            .prop_map(|(q, p)| q.select(p))
            .boxed(),
        (sub.clone(), sub.clone())
            .prop_map(|(a, b)| a.union(b))
            .boxed(),
        (sub.clone(), sub.clone())
            .prop_map(|(a, b)| a.intersect(b))
            .boxed(),
        (sub.clone(), sub.clone())
            .prop_map(|(a, b)| a.diff(b))
            .boxed(),
    ];
    // Projection from a (possibly) wider input.
    for src_arity in universe.arities() {
        if src_arity >= arity && src_arity > 0 {
            let inner = arb_query_impl(universe, src_arity, depth - 1, hypothetical);
            let cols = prop::collection::vec(0..src_arity, arity);
            options.push((inner, cols).prop_map(|(q, cols)| q.project(cols)).boxed());
        }
    }
    // Product/join splitting the arity.
    for la in 1..arity {
        let ra = arity - la;
        let l = arb_query_impl(universe, la, depth - 1, hypothetical);
        let r = arb_query_impl(universe, ra, depth - 1, hypothetical);
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
    if hypothetical {
        let body = arb_query_impl(universe, arity, depth - 1, true);
        let eta = arb_state_expr(universe, depth - 1);
        options.push((body, eta).prop_map(|(q, e)| q.when(e)).boxed());
    }
    prop::strategy::Union::new(options).boxed()
}

/// Strategy for updates over the universe, depth-limited. Queries inside
/// updates may be hypothetical when `depth > 0`.
pub fn arb_update(universe: &Universe, depth: u32) -> BoxedStrategy<Update> {
    let atomic = {
        let choices: Vec<BoxedStrategy<Update>> = universe
            .names
            .iter()
            .map(|(name, arity)| {
                let n = name.clone();
                let q = arb_query_impl(universe, *arity, depth.min(1), depth > 0);
                (Just(n), q, any::<bool>())
                    .prop_map(|(n, q, ins)| {
                        if ins {
                            Update::insert(n, q)
                        } else {
                            Update::delete(n, q)
                        }
                    })
                    .boxed()
            })
            .collect();
        prop::strategy::Union::new(choices).boxed()
    };
    if depth == 0 {
        return atomic;
    }
    let sub = arb_update(universe, depth - 1);
    let guard = arb_query_impl(universe, 1, 1, false);
    prop_oneof![
        3 => atomic,
        1 => (sub.clone(), sub.clone()).prop_map(|(a, b)| a.then(b)),
        1 => (guard, sub.clone(), sub).prop_map(|(g, a, b)| Update::cond(g, a, b)),
    ]
    .boxed()
}

/// Strategy for atomic-sequence updates (mod-ENF shape): `A₁; …; Aₙ` with
/// each `Aᵢ` an atomic insert/delete over pure queries.
pub fn arb_atomic_update_seq(universe: &Universe, max_len: usize) -> BoxedStrategy<Update> {
    let atomic = {
        let choices: Vec<BoxedStrategy<Update>> = universe
            .names
            .iter()
            .map(|(name, arity)| {
                let n = name.clone();
                let q = arb_pure_query(universe, *arity, 1);
                (Just(n), q, any::<bool>())
                    .prop_map(|(n, q, ins)| {
                        if ins {
                            Update::insert(n, q)
                        } else {
                            Update::delete(n, q)
                        }
                    })
                    .boxed()
            })
            .collect();
        prop::strategy::Union::new(choices).boxed()
    };
    prop::collection::vec(atomic, 1..=max_len)
        .prop_map(Update::seq)
        .boxed()
}

/// Strategy for explicit substitutions with arity-correct bindings
/// (bindings may contain `when` when `depth > 0`).
pub fn arb_subst(universe: &Universe, depth: u32) -> BoxedStrategy<ExplicitSubst> {
    subst_impl(universe, depth, depth > 0)
}

/// Strategy for pure-binding explicit substitutions (abstract
/// substitutions over Σ(RA), §3.2).
pub fn arb_pure_subst(universe: &Universe, depth: u32) -> BoxedStrategy<ExplicitSubst> {
    subst_impl(universe, depth, false)
}

fn subst_impl(universe: &Universe, depth: u32, hypothetical: bool) -> BoxedStrategy<ExplicitSubst> {
    let per_name: Vec<BoxedStrategy<Option<(RelName, Query)>>> = universe
        .names
        .iter()
        .map(|(name, arity)| {
            let n = name.clone();
            let q = arb_query_impl(universe, *arity, depth, hypothetical);
            prop_oneof![
                2 => Just(None),
                1 => q.prop_map(move |q| Some((n.clone(), q))),
            ]
            .boxed()
        })
        .collect();
    per_name
        .prop_map(|bindings| ExplicitSubst::new(bindings.into_iter().flatten()))
        .boxed()
}

/// Strategy for hypothetical-state expressions, depth-limited.
pub fn arb_state_expr(universe: &Universe, depth: u32) -> BoxedStrategy<StateExpr> {
    let leaf = prop_oneof![
        arb_update(universe, depth.min(1)).prop_map(StateExpr::update),
        arb_subst(universe, depth.min(1)).prop_map(StateExpr::subst),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let sub = arb_state_expr(universe, depth - 1);
    prop_oneof![
        3 => leaf,
        1 => (sub.clone(), sub).prop_map(|(a, b)| a.compose(b)),
    ]
    .boxed()
}

/// Strategy for aggregate expressions over the given input arity.
pub fn arb_agg(arity: usize) -> BoxedStrategy<AggExpr> {
    if arity == 0 {
        Just(AggExpr::Count).boxed()
    } else {
        prop_oneof![
            Just(AggExpr::Count),
            (0..arity).prop_map(AggExpr::Sum),
            (0..arity).prop_map(AggExpr::Min),
            (0..arity).prop_map(AggExpr::Max),
        ]
        .boxed()
    }
}

/// What each level of [`example_2_4`]'s query binds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Levels {
    /// The paper's `Eᵢ(Rᵢ) = Rᵢ × Rᵢ`: `Rᵢ` has arity `2^(n-i)`, so `n`
    /// stays small.
    Products,
    /// `Eᵢ(Rᵢ) = π₀,₃(Rᵢ ⋈_{#1 = #2} Rᵢ)`: every `Rᵢ` is binary, so any
    /// depth types.
    Joins,
}

/// Example 2.4's query and its catalog: the depth-`n` nest
/// `(… (R0 when {E1(R1)/R0}) … when {En(Rn)/R(n-1)})`, with `Eⱼ` replaced
/// by `Eⱼ − Eⱼ` at `empty_level` (2.4(b); the paper writes `Rⱼ − Rⱼ` with
/// arities "inferred from the context"). Its fully lazy form has about
/// 2ⁿ nodes.
pub fn example_2_4(n: usize, empty_level: Option<usize>, levels: Levels) -> (Query, Catalog) {
    let rel = |i: usize| RelName::new(format!("R{i}"));
    let mut catalog = Catalog::new();
    for i in 0..=n {
        let arity = match levels {
            Levels::Products => 1usize << (n - i),
            Levels::Joins => 2,
        };
        catalog.declare_arity(rel(i), arity).expect("fresh names");
    }
    let mut q = Query::base(rel(0));
    for lvl in 1..=n {
        let (a, b) = (Query::base(rel(lvl)), Query::base(rel(lvl)));
        let e = match levels {
            Levels::Products => a.product(b),
            Levels::Joins => a
                .join(b, Predicate::col_col(1, CmpOp::Eq, 2))
                .project([0, 3]),
        };
        let e = if empty_level == Some(lvl) {
            e.clone().diff(e)
        } else {
            e
        };
        q = q.when(StateExpr::subst(ExplicitSubst::single(rel(lvl - 1), e)));
    }
    (q, catalog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypoquery_algebra::typing::{arity_of, check_state_expr, check_update};

    #[test]
    fn example_2_4_types_at_every_level_shape() {
        for empty in [None, Some(1), Some(5)] {
            let (q, catalog) = example_2_4(5, empty, Levels::Products);
            assert_eq!(arity_of(&q, &catalog), Ok(32));
            let (q, catalog) = example_2_4(5, empty, Levels::Joins);
            assert_eq!(arity_of(&q, &catalog), Ok(2));
        }
    }

    proptest! {
        #[test]
        fn generated_queries_are_well_typed(
            q in arb_query(&Universe::standard(), 2, 3)
        ) {
            let u = Universe::standard();
            prop_assert_eq!(arity_of(&q, &u.catalog), Ok(2));
        }

        #[test]
        fn generated_pure_queries_are_pure(
            q in arb_pure_query(&Universe::standard(), 1, 3)
        ) {
            prop_assert!(q.is_pure());
            let u = Universe::standard();
            prop_assert_eq!(arity_of(&q, &u.catalog), Ok(1));
        }

        #[test]
        fn generated_updates_are_well_typed(
            up in arb_update(&Universe::standard(), 2)
        ) {
            let u = Universe::standard();
            prop_assert!(check_update(&up, &u.catalog).is_ok());
        }

        #[test]
        fn generated_state_exprs_are_well_typed(
            eta in arb_state_expr(&Universe::standard(), 2)
        ) {
            let u = Universe::standard();
            prop_assert!(check_state_expr(&eta, &u.catalog).is_ok());
        }

        #[test]
        fn atomic_sequences_are_atomic(
            up in arb_atomic_update_seq(&Universe::standard(), 4)
        ) {
            prop_assert!(up.is_atomic_sequence());
        }

        #[test]
        fn pure_substs_are_pure(
            s in arb_pure_subst(&Universe::standard(), 2)
        ) {
            prop_assert!(!s.contains_when());
        }

        #[test]
        fn generated_db_respects_catalog(
            db in arb_db(&Universe::standard(), 6)
        ) {
            for (name, arity) in Universe::standard().names {
                let rel = db.get(&name).unwrap();
                prop_assert_eq!(rel.arity(), arity);
                prop_assert!(rel.len() <= 6);
            }
        }
    }
}
