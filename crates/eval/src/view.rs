//! Borrowed row views: the rows the physical pipeline hands from one
//! operator to the next.
//!
//! A join's output row is its two input rows side by side, and a
//! projection's is its input row read through a column list. Building
//! either as a [`Tuple`] allocates and clones every field, only for the
//! next operator (usually a filter or an aggregate) to read a few columns
//! and drop it. A [`RowView`] describes the row instead and reads each
//! column from where it already lives; a tuple is built
//! ([`Row::to_tuple`]) only where a row is kept.

use hypoquery_storage::{Row, Tuple, Value};

/// A row as one of: a stored tuple, a join pair of two views, or a
/// projection of a view. Views nest (a three-way join's row is a pair
/// whose left side is a pair) and borrow everything they read.
#[derive(Clone, Copy)]
pub(crate) enum RowView<'a> {
    /// A tuple that already exists (a stored row, a build-side row, an
    /// aggregate's result row).
    Stored(&'a Tuple),
    /// `left ++ right`; `split` is the left side's arity.
    Pair {
        /// Columns `0..split`.
        left: &'a RowView<'a>,
        /// Columns `split..`.
        right: &'a RowView<'a>,
        /// Arity of `left`.
        split: usize,
    },
    /// Column `i` is column `cols[i]` of `input`.
    Project {
        /// The projected row.
        input: &'a RowView<'a>,
        /// Output column positions in `input`.
        cols: &'a [usize],
    },
}

impl<'a> RowView<'a> {
    /// `left ++ right`.
    #[inline]
    pub(crate) fn pair(left: &'a RowView<'a>, right: &'a RowView<'a>) -> RowView<'a> {
        RowView::Pair {
            left,
            right,
            split: left.arity(),
        }
    }
}

impl Row for RowView<'_> {
    fn arity(&self) -> usize {
        match self {
            RowView::Stored(t) => t.arity(),
            RowView::Pair { right, split, .. } => split + right.arity(),
            RowView::Project { cols, .. } => cols.len(),
        }
    }

    #[inline]
    fn col(&self, i: usize) -> &Value {
        match self {
            RowView::Stored(t) => &t[i],
            RowView::Pair { left, right, split } => {
                if i < *split {
                    left.col(i)
                } else {
                    right.col(i - split)
                }
            }
            RowView::Project { input, cols } => input.col(cols[i]),
        }
    }

    /// Bounds-checked at the stored tuple, without the arity walk the
    /// default does first: predicates read every column through this.
    #[inline]
    fn get(&self, i: usize) -> Option<&Value> {
        match self {
            RowView::Stored(t) => t.get(i),
            RowView::Pair { left, right, split } => {
                if i < *split {
                    left.get(i)
                } else {
                    right.get(i - split)
                }
            }
            RowView::Project { input, cols } => cols.get(i).and_then(|&c| input.get(c)),
        }
    }

    fn to_tuple(&self) -> Tuple {
        match self {
            RowView::Stored(t) => (*t).clone(),
            _ => Tuple::new((0..self.arity()).map(|i| self.col(i).clone())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypoquery_storage::tuple;

    #[test]
    fn nested_views_read_through_to_stored_columns() {
        let (a, b, c) = (tuple![1, 2], tuple![3], tuple![4, 5]);
        let (va, vb, vc) = (
            RowView::Stored(&a),
            RowView::Stored(&b),
            RowView::Stored(&c),
        );
        let ab = RowView::pair(&va, &vb);
        let abc = RowView::pair(&ab, &vc);
        assert_eq!(abc.arity(), 5);
        assert_eq!(abc.to_tuple(), tuple![1, 2, 3, 4, 5]);
        assert_eq!(abc.get(5), None);

        let cols = [4, 0, 4];
        let proj = RowView::Project {
            input: &abc,
            cols: &cols,
        };
        assert_eq!(proj.to_tuple(), tuple![5, 1, 5]);
        assert_eq!(proj.get(3), None);
        let right = RowView::pair(&vc, &proj);
        assert_eq!(right.col(4), &Value::int(5));
        assert_eq!(right.to_tuple(), tuple![4, 5, 5, 1, 5]);
    }
}
