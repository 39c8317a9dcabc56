//! The interned and-or graph the optimizer's state lives on.
//!
//! Structure only — costs, liveness, bounds are [`crate::state`]. Groups
//! are the paper's "OR" nodes (`(expression, property)` pairs keying the
//! `SearchSpace`/`BestCost` relations); alternatives are the "AND" nodes
//! (`SearchSpace`/`PlanCost` tuples, keyed by `*Expr,*Prop,*Index` in
//! Table 1).

use reopt_common::FxHashMap;
use reopt_expr::{
    AltSpec, ExprId, JoinGraph, PhysOp, PhysProp, QuerySpec, Space,
};

/// Group ("OR" node) id — dense index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u32);

/// Alternative ("AND" node) id — dense global index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AltId(pub u32);

/// Static data of one alternative.
#[derive(Clone, Debug)]
pub struct AltDef {
    pub op: PhysOp,
    pub group: GroupId,
    pub left: Option<GroupId>,
    pub right: Option<GroupId>,
    /// The original enumeration record (children with property
    /// requirements) — needed for cost calls and plan extraction.
    pub spec: AltSpec,
}

impl AltDef {
    /// The child groups, copied out: the iterator borrows nothing, so a
    /// caller may mutate optimizer state while walking them.
    pub fn children(&self) -> impl Iterator<Item = GroupId> {
        self.left.into_iter().chain(self.right)
    }

    /// The sibling of `child` in a binary alternative, if any.
    pub fn sibling(&self, child: GroupId) -> Option<GroupId> {
        match (self.left, self.right) {
            (Some(l), Some(r)) if l == child => Some(r),
            (Some(l), Some(r)) if r == child => Some(l),
            _ => None,
        }
    }
}

/// Static data of one group.
#[derive(Clone, Debug)]
pub struct GroupDefC {
    pub expr: ExprId,
    pub prop: PhysProp,
    /// Dense range into [`Memo::alts`].
    pub alts_start: u32,
    pub alts_end: u32,
}

/// The interned and-or graph.
#[derive(Clone, Debug)]
pub struct Memo {
    pub groups: Vec<GroupDefC>,
    pub alts: Vec<AltDef>,
    /// Per group: alternatives referencing it as a child (the reverse
    /// edges reference counting and bound propagation walk).
    pub parents: Vec<Vec<AltId>>,
    pub root: GroupId,
    index: FxHashMap<(ExprId, PhysProp), GroupId>,
}

impl Memo {
    /// Builds the memo by exploring the full reachable space (rules
    /// R1–R5 run to fixpoint with no pruning; what the pruning
    /// strategies then reclaim is *state*, tracked in `OptimizerState`).
    pub fn build(q: &QuerySpec, g: &JoinGraph) -> Memo {
        let space = Space::explore(q, g);
        // The space's group order is BFS from the root; re-index groups
        // in topo order so dense ids are bottom-up: every child of an
        // alternative has a smaller id than the alternative's group.
        let order = space.topo_order().to_vec();
        let mut remap: FxHashMap<(ExprId, PhysProp), GroupId> = FxHashMap::default();
        for (new_idx, gi) in order.iter().enumerate() {
            let def = space.group(*gi);
            remap.insert((def.expr, def.prop), GroupId(new_idx as u32));
        }
        let mut groups = Vec::with_capacity(order.len());
        let mut alts: Vec<AltDef> = Vec::new();
        for (new_idx, gi) in order.iter().enumerate() {
            let def = space.group(*gi);
            let start = alts.len() as u32;
            for spec in &def.alts {
                alts.push(AltDef {
                    op: spec.op,
                    group: GroupId(new_idx as u32),
                    left: spec.left.map(|c| remap[&(c.expr, c.prop)]),
                    right: spec.right.map(|c| remap[&(c.expr, c.prop)]),
                    spec: *spec,
                });
            }
            groups.push(GroupDefC {
                expr: def.expr,
                prop: def.prop,
                alts_start: start,
                alts_end: alts.len() as u32,
            });
        }
        let mut parents = vec![Vec::new(); groups.len()];
        for (ai, alt) in alts.iter().enumerate() {
            for child in alt.children() {
                parents[child.0 as usize].push(AltId(ai as u32));
            }
        }
        let root = remap[&(q.root_expr(), PhysProp::Any)];
        Memo {
            groups,
            alts,
            parents,
            root,
            index: remap,
        }
    }

    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    pub fn n_alts(&self) -> usize {
        self.alts.len()
    }

    pub fn group(&self, g: GroupId) -> &GroupDefC {
        &self.groups[g.0 as usize]
    }

    pub fn alt(&self, a: AltId) -> &AltDef {
        &self.alts[a.0 as usize]
    }

    pub fn lookup(&self, expr: ExprId, prop: PhysProp) -> Option<GroupId> {
        self.index.get(&(expr, prop)).copied()
    }

    /// Alternative ids of a group.
    pub fn alts_of(&self, g: GroupId) -> impl Iterator<Item = AltId> {
        let def = self.group(g);
        (def.alts_start..def.alts_end).map(AltId)
    }

    /// Alternatives referencing `g` as a child.
    pub fn parents_of(&self, g: GroupId) -> &[AltId] {
        &self.parents[g.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{chain_query, fixture_catalog};

    #[test]
    fn memo_ids_are_topo_ordered() {
        let c = fixture_catalog();
        let q = chain_query(&c, 4);
        let g = JoinGraph::new(&q);
        let memo = Memo::build(&q, &g);
        for alt in &memo.alts {
            for child in alt.children() {
                assert!(
                    child.0 < alt.group.0,
                    "child {:?} not before parent group {:?}",
                    child,
                    alt.group
                );
            }
        }
        // Root is the last-ish group (largest expr) and looked up
        // consistently.
        assert_eq!(
            memo.lookup(q.root_expr(), PhysProp::Any),
            Some(memo.root)
        );
    }

    #[test]
    fn parent_edges_invert_child_edges() {
        let c = fixture_catalog();
        let q = chain_query(&c, 3);
        let g = JoinGraph::new(&q);
        let memo = Memo::build(&q, &g);
        for gi in 0..memo.n_groups() as u32 {
            let gid = GroupId(gi);
            for &pa in memo.parents_of(gid) {
                assert!(
                    memo.alt(pa).children().any(|ch| ch == gid),
                    "parent edge without matching child edge"
                );
            }
        }
        let child_edge_count: usize = memo.alts.iter().map(|a| a.children().count()).sum();
        let parent_edge_count: usize = (0..memo.n_groups() as u32)
            .map(|g| memo.parents_of(GroupId(g)).len())
            .sum();
        assert_eq!(child_edge_count, parent_edge_count);
    }

    #[test]
    fn alts_of_ranges_partition_all_alts() {
        let c = fixture_catalog();
        let q = chain_query(&c, 4);
        let g = JoinGraph::new(&q);
        let memo = Memo::build(&q, &g);
        let mut seen = vec![false; memo.n_alts()];
        for gi in 0..memo.n_groups() as u32 {
            for a in memo.alts_of(GroupId(gi)) {
                assert!(!seen[a.0 as usize], "alt in two groups");
                seen[a.0 as usize] = true;
                assert_eq!(memo.alt(a).group, GroupId(gi));
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
