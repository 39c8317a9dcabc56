//! Hand-forced physical plans: a random join tree over a query's join
//! graph with a chosen physical operator at every join node — the plans
//! no optimizer would pick are the ones that exercise residual
//! predicates, index-NL joins over intermediate inners and sort
//! enforcers everywhere.

use rand::rngs::StdRng;
use rand::Rng;
use reopt_expr::{
    EdgeId, ExprId, JoinGraph, LeafCol, PhysOp, PhysProp, PlanNode, QuerySpec, RelSet,
};

#[derive(Clone, Copy, Debug)]
pub enum JoinKind {
    Hash,
    SortMerge,
    IndexNl,
}

pub const JOIN_KINDS: [JoinKind; 3] = [JoinKind::Hash, JoinKind::SortMerge, JoinKind::IndexNl];

/// Draws plans for one query.
pub struct PlanGen<'a> {
    pub q: &'a QuerySpec,
    pub g: &'a JoinGraph,
    pub rng: &'a mut StdRng,
    /// The operator at every join node; drawn per node when `None`.
    pub force: Option<JoinKind>,
}

impl PlanGen<'_> {
    /// A join tree over `rels` (connected in the join graph).
    pub fn tree(&mut self, rels: RelSet) -> PlanNode {
        if rels.is_singleton() {
            return PlanNode {
                expr: ExprId::rel(rels),
                prop: PhysProp::Any,
                op: PhysOp::FullScan,
                children: vec![],
            };
        }
        let splits: Vec<RelSet> = rels
            .proper_subsets()
            .filter(|&l| {
                let r = rels.minus(l);
                self.g.is_connected(l) && self.g.is_connected(r) && self.g.are_joined(l, r)
            })
            .collect();
        let l = splits[self.rng.gen_range(0..splits.len())];
        let r = rels.minus(l);
        let edges: Vec<EdgeId> = self.q.edges_across(l, r).collect();
        let edge = edges[self.rng.gen_range(0..edges.len())];
        let kind = self
            .force
            .unwrap_or_else(|| JOIN_KINDS[self.rng.gen_range(0..JOIN_KINDS.len())]);
        let (op, children) = match kind {
            JoinKind::Hash => (PhysOp::HashJoin, vec![self.tree(l), self.tree(r)]),
            JoinKind::IndexNl => (
                PhysOp::IndexNLJoin { edge },
                vec![self.tree(l), self.tree(r)],
            ),
            JoinKind::SortMerge => {
                let (lc, rc) = self
                    .q
                    .edge(edge)
                    .across(l, r)
                    .expect("edge crosses the cut");
                (
                    PhysOp::SortMergeJoin { edge },
                    vec![self.sorted(l, lc), self.sorted(r, rc)],
                )
            }
        };
        PlanNode {
            expr: ExprId::rel(rels),
            prop: PhysProp::Any,
            op,
            children,
        }
    }

    /// A plan for `rels` that promises `Sorted(col)`: a sorted index
    /// scan for some leaves, a sort enforcer otherwise.
    pub fn sorted(&mut self, rels: RelSet, col: LeafCol) -> PlanNode {
        let prop = PhysProp::Sorted(col);
        if rels.is_singleton() && self.rng.gen_bool(0.5) {
            return PlanNode {
                expr: ExprId::rel(rels),
                prop,
                op: PhysOp::IndexScan { col },
                children: vec![],
            };
        }
        PlanNode {
            expr: ExprId::rel(rels),
            prop,
            op: PhysOp::Sort { col },
            children: vec![self.tree(rels)],
        }
    }

    /// The query's aggregate over a join tree of all leaves.
    pub fn aggregated(&mut self) -> PlanNode {
        let op = if self.rng.gen_bool(0.5) {
            PhysOp::HashAgg
        } else {
            PhysOp::SortAgg
        };
        PlanNode {
            expr: self.q.root_expr(),
            prop: PhysProp::Any,
            op,
            children: vec![self.tree(self.q.all_rels())],
        }
    }
}

/// Every node's expression, root first.
pub fn exprs(plan: &PlanNode) -> Vec<ExprId> {
    let mut out = vec![plan.expr];
    for c in &plan.children {
        out.extend(exprs(c));
    }
    out
}
