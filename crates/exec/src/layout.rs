//! Output column layouts: which `(leaf, column)` each position of an
//! intermediate result row holds. Join order varies per plan, so layouts
//! are computed per node and columns are resolved through them.

use reopt_common::FxHashMap;
use reopt_expr::{LeafCol, LeafId, QuerySpec};

/// Column layout of an intermediate result.
#[derive(Clone, Debug, Default)]
pub struct Layout {
    cols: Vec<LeafCol>,
    index: FxHashMap<LeafCol, usize>,
}

impl Layout {
    /// Layout of a single leaf: all of its table's columns in order.
    pub fn for_leaf(q: &QuerySpec, leaf: LeafId, n_cols: usize) -> Layout {
        let _ = q;
        let cols: Vec<LeafCol> = (0..n_cols as u32)
            .map(|c| LeafCol {
                leaf,
                col: reopt_catalog::ColId(c),
            })
            .collect();
        Layout::from_cols(cols)
    }

    pub fn from_cols(cols: Vec<LeafCol>) -> Layout {
        let index = cols.iter().enumerate().map(|(i, c)| (*c, i)).collect();
        Layout { cols, index }
    }

    /// Concatenation (join output = left columns then right columns).
    pub fn concat(&self, other: &Layout) -> Layout {
        let mut cols = self.cols.clone();
        cols.extend(other.cols.iter().copied());
        Layout::from_cols(cols)
    }

    /// Position of a column; panics if absent (planner bug).
    pub fn pos(&self, col: LeafCol) -> usize {
        *self
            .index
            .get(&col)
            .unwrap_or_else(|| panic!("column {col:?} not in layout {:?}", self.cols))
    }

    pub fn cols(&self) -> &[LeafCol] {
        &self.cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_and_lookup() {
        let a = Layout::from_cols(vec![LeafCol::new(0, 0), LeafCol::new(0, 1)]);
        let b = Layout::from_cols(vec![LeafCol::new(1, 0)]);
        let ab = a.concat(&b);
        assert_eq!(ab.cols().len(), 3);
        assert_eq!(ab.pos(LeafCol::new(1, 0)), 2);
        assert_eq!(ab.pos(LeafCol::new(0, 1)), 1);
    }

    #[test]
    #[should_panic(expected = "not in layout")]
    fn missing_column_panics() {
        Layout::default().pos(LeafCol::new(0, 0));
    }
}
