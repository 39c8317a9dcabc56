//! Physical operators — the `PhyOp` column of the paper's `SearchSpace`
//! relation (Table 1): local scan, index scan, pipelined-hash join,
//! sort-merge join, indexed nested-loop join; plus the `Sort` enforcer
//! (Volcano-style) and the aggregation roots.

use std::fmt;

use crate::query::{EdgeId, LeafCol};

/// A physical operator rooted at a plan node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PhysOp {
    /// Full ("local") scan of a base leaf.
    FullScan,
    /// Index scan of a base leaf via the index on `col`; produces both
    /// `Indexed(col)` and `Sorted(col)` access.
    IndexScan { col: LeafCol },
    /// Pipelined (symmetric) hash join on all edges across the cut.
    /// Left = build side, right = probe side.
    HashJoin,
    /// Sort-merge join merging on `edge`; requires children sorted on the
    /// edge endpoints and produces output sorted on the left endpoint.
    SortMergeJoin { edge: EdgeId },
    /// Indexed nested-loop join on `edge`. Following Table 1 of the
    /// paper, the *left* child is the indexed inner (requires
    /// `Indexed(col)` on it) and the right child is the outer.
    IndexNLJoin { edge: EdgeId },
    /// Sort enforcer: same expression, sorts its input on `col`.
    Sort { col: LeafCol },
    /// Hash aggregation root.
    HashAgg,
    /// Sort-based aggregation root; requires input sorted on the first
    /// group-by column.
    SortAgg,
}

impl PhysOp {
    /// The paper's `LogOp` column: the logical operator this implements.
    pub fn logical_name(self) -> &'static str {
        match self {
            PhysOp::FullScan | PhysOp::IndexScan { .. } => "scan",
            PhysOp::HashJoin | PhysOp::SortMergeJoin { .. } | PhysOp::IndexNLJoin { .. } => "join",
            PhysOp::Sort { .. } => "sort",
            PhysOp::HashAgg | PhysOp::SortAgg => "agg",
        }
    }
}

impl fmt::Display for PhysOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhysOp::FullScan => write!(f, "local-scan"),
            PhysOp::IndexScan { col } => write!(f, "index-scan(l{}.c{})", col.leaf.0, col.col.0),
            PhysOp::HashJoin => write!(f, "pipelined-hash"),
            PhysOp::SortMergeJoin { edge } => write!(f, "sort-merge(e{})", edge.0),
            PhysOp::IndexNLJoin { edge } => write!(f, "indexed-nl(e{})", edge.0),
            PhysOp::Sort { col } => write!(f, "sort(l{}.c{})", col.leaf.0, col.col.0),
            PhysOp::HashAgg => write!(f, "hash-agg"),
            PhysOp::SortAgg => write!(f, "sort-agg"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_names_match_paper_logop_column() {
        assert_eq!(PhysOp::FullScan.logical_name(), "scan");
        assert_eq!(PhysOp::HashJoin.logical_name(), "join");
        assert_eq!(
            PhysOp::IndexNLJoin { edge: EdgeId(1) }.logical_name(),
            "join"
        );
        assert_eq!(PhysOp::SortAgg.logical_name(), "agg");
    }
}
