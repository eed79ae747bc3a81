//! The one nesting limit, and a syntax-tree height computed without
//! recursion.
//!
//! Every walk over a query — type checking, the EQUIV_when rewrites, the
//! RA optimizer, lowering, execution, even dropping the tree — recurses
//! once per level of nesting, so a deep enough query overflows the
//! thread's stack, which aborts the whole process. The parser stops at
//! [`MAX_DEPTH`] levels of its own recursion and of the trees it builds,
//! and the engine checks [`height`] of every query it is about to
//! type-check (a branch-wrapped query included) against the same limit.

use crate::{Predicate, Query, StateExpr, Update};

/// The deepest nesting accepted: of the parser's recursion, and of any
/// syntax tree measured by [`height`]. Sized from measured stack use: at
/// this depth the costliest shape, nested parentheses, takes ~1 MB of
/// stack in a release build and ~8 MB in a debug build (where a 2 MiB
/// thread overflowed at ~900 and ~145 levels).
///
/// The limit keeps a query from overflowing only a thread with
/// [`MAX_DEPTH_STACK`] bytes of stack: a debug build on a smaller stack
/// (a spawned thread's 2 MiB default, or an 8 MiB main thread) can still
/// overflow below it.
pub const MAX_DEPTH: usize = 512;

/// The stack a thread needs to parse, plan and run any query within
/// [`MAX_DEPTH`], in a debug build too (~8 MB at the limit, doubled for
/// margin). Server workers and the command-line shell run on threads of
/// this size.
pub const MAX_DEPTH_STACK: usize = 16 << 20;

/// The message for a nesting past [`MAX_DEPTH`].
pub fn too_deep() -> String {
    format!("nesting deeper than the limit of {MAX_DEPTH} levels")
}

/// A node of any of the syntax trees a query holds.
enum Node<'a> {
    Query(&'a Query),
    State(&'a StateExpr),
    Update(&'a Update),
    Pred(&'a Predicate),
}

/// The height of `q`'s syntax tree, counting query, state-expression,
/// update and predicate nodes alike (a leaf has height 1). Walks the tree
/// with an explicit stack, so any height can be measured.
pub fn height(q: &Query) -> usize {
    let mut stack = vec![(Node::Query(q), 1)];
    let mut max = 0;
    while let Some((node, depth)) = stack.pop() {
        max = max.max(depth);
        let below = depth + 1;
        match node {
            Node::Query(q) => match q {
                Query::Base(_) | Query::Singleton(_) | Query::Empty { .. } => {}
                Query::Select(q, p) => {
                    stack.push((Node::Query(q), below));
                    stack.push((Node::Pred(p), below));
                }
                Query::Project(q, _) | Query::Aggregate { input: q, .. } => {
                    stack.push((Node::Query(q), below))
                }
                Query::Union(a, b)
                | Query::Intersect(a, b)
                | Query::Product(a, b)
                | Query::Diff(a, b) => {
                    stack.push((Node::Query(a), below));
                    stack.push((Node::Query(b), below));
                }
                Query::Join(a, b, p) => {
                    stack.push((Node::Query(a), below));
                    stack.push((Node::Query(b), below));
                    stack.push((Node::Pred(p), below));
                }
                Query::When(q, eta) => {
                    stack.push((Node::Query(q), below));
                    stack.push((Node::State(eta), below));
                }
            },
            Node::State(eta) => match eta {
                StateExpr::Update(u) => stack.push((Node::Update(u), below)),
                StateExpr::Subst(eps) => {
                    stack.extend(eps.iter().map(|(_, q)| (Node::Query(q), below)))
                }
                StateExpr::Compose(a, b) => {
                    stack.push((Node::State(a), below));
                    stack.push((Node::State(b), below));
                }
            },
            Node::Update(u) => match u {
                Update::Insert(_, q) | Update::Delete(_, q) => stack.push((Node::Query(q), below)),
                Update::Seq(a, b) => {
                    stack.push((Node::Update(a), below));
                    stack.push((Node::Update(b), below));
                }
                Update::Cond {
                    guard,
                    then_u,
                    else_u,
                } => {
                    stack.push((Node::Query(guard), below));
                    stack.push((Node::Update(then_u), below));
                    stack.push((Node::Update(else_u), below));
                }
            },
            Node::Pred(p) => match p {
                Predicate::True | Predicate::False | Predicate::Cmp(..) => {}
                Predicate::And(a, b) | Predicate::Or(a, b) => {
                    stack.push((Node::Pred(a), below));
                    stack.push((Node::Pred(b), below));
                }
                Predicate::Not(a) => stack.push((Node::Pred(a), below)),
            },
        }
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CmpOp, ExplicitSubst};

    #[test]
    fn height_counts_every_kind_of_node() {
        let r = || Query::base("R");
        assert_eq!(height(&r()), 1);
        assert_eq!(height(&r().union(r()).union(r())), 3);
        // σ over a two-level predicate: the predicate is the taller child.
        let p = Predicate::col_cmp(0, CmpOp::Eq, 1).and(Predicate::True);
        assert_eq!(height(&r().select(p)), 3);
        // R when {ins(R, R ∪ R)}: when, update state, insert, union, R.
        let eta = StateExpr::update(Update::insert("R", r().union(r())));
        assert_eq!(height(&r().when(eta.clone())), 5);
        // A composition adds one level above both sides.
        assert_eq!(height(&r().when(eta.clone().compose(eta))), 6);
        let eps = ExplicitSubst::single("R", r().union(r()));
        assert_eq!(height(&r().when(StateExpr::subst(eps))), 4);
    }

    #[test]
    fn height_measures_trees_too_deep_to_recurse_over() {
        // A left-deep union chain a recursive walk could not measure on a
        // small stack; taken apart level by level so dropping it does not
        // recurse either.
        let mut q = Query::base("R");
        for _ in 0..200_000 {
            q = q.union(Query::base("R"));
        }
        assert_eq!(height(&q), 200_001);
        while let Query::Union(a, _) = q {
            q = *a;
        }
    }
}
