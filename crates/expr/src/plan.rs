//! Extracted physical plan trees — the optimizer's output (the paper's
//! `BestPlan` closure over the and-or graph) and the executor's input.

use std::fmt;

use crate::ops::PhysOp;
use crate::props::PhysProp;
use crate::query::ExprId;

/// A node of a fully resolved physical plan.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanNode {
    pub expr: ExprId,
    pub prop: PhysProp,
    pub op: PhysOp,
    pub children: Vec<PlanNode>,
}

impl PlanNode {
    /// Number of nodes in the tree.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(PlanNode::size).sum::<usize>()
    }

    /// A stable structural fingerprint: two plans with the same shape and
    /// operators produce the same fingerprint. Used to detect plan
    /// switches in the adaptive driver.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = reopt_common::FxHasher::default();
        self.hash_into(&mut h);
        h.finish()
    }

    fn hash_into<H: std::hash::Hasher>(&self, h: &mut H) {
        use std::hash::Hash;
        self.expr.rel.0.hash(h);
        self.expr.agg.hash(h);
        self.op.hash(h);
        for c in &self.children {
            c.hash_into(h);
        }
    }

    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        writeln!(
            f,
            "{:indent$}{} [{} {}]",
            "",
            self.op,
            self.expr.rel,
            self.prop,
            indent = depth * 2
        )?;
        for c in &self.children {
            c.fmt_indented(f, depth + 1)?;
        }
        Ok(())
    }
}

impl fmt::Display for PlanNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indented(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relset::RelSet;

    fn leaf(i: u32) -> PlanNode {
        PlanNode {
            expr: ExprId::rel(RelSet::singleton(i)),
            prop: PhysProp::Any,
            op: PhysOp::FullScan,
            children: vec![],
        }
    }

    fn join(l: PlanNode, r: PlanNode) -> PlanNode {
        PlanNode {
            expr: ExprId::rel(l.expr.rel.union(r.expr.rel)),
            prop: PhysProp::Any,
            op: PhysOp::HashJoin,
            children: vec![l, r],
        }
    }

    #[test]
    fn size_and_ops() {
        let p = join(leaf(0), join(leaf(1), leaf(2)));
        assert_eq!(p.size(), 5);
        fn preorder(p: &PlanNode, out: &mut Vec<PhysOp>) {
            out.push(p.op);
            p.children.iter().for_each(|c| preorder(c, out));
        }
        let mut ops = Vec::new();
        preorder(&p, &mut ops);
        assert_eq!(
            ops,
            vec![
                PhysOp::HashJoin,
                PhysOp::FullScan,
                PhysOp::HashJoin,
                PhysOp::FullScan,
                PhysOp::FullScan
            ]
        );
    }

    #[test]
    fn fingerprint_distinguishes_shapes() {
        let a = join(leaf(0), join(leaf(1), leaf(2)));
        let b = join(join(leaf(0), leaf(1)), leaf(2));
        let a2 = join(leaf(0), join(leaf(1), leaf(2)));
        assert_eq!(a.fingerprint(), a2.fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn display_is_indented() {
        let p = join(leaf(0), leaf(1));
        let s = p.to_string();
        assert!(s.contains("pipelined-hash"));
        assert!(s.contains("  local-scan"));
    }
}
