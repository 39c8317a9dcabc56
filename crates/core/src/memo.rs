//! The interned and-or graph the optimizer's state lives on.
//!
//! Structure only — costs, liveness, bounds are [`crate::state`]. Groups
//! are the paper's "OR" nodes (`(expression, property)` pairs keying the
//! `SearchSpace`/`BestCost` relations); alternatives are the "AND" nodes
//! (`SearchSpace`/`PlanCost` tuples, keyed by `*Expr,*Prop,*Index` in
//! Table 1).

use reopt_common::FxHashMap;
use reopt_expr::{
    enumerate_alts, AltSpec, ChildRef, ExprId, JoinGraph, PhysOp, PhysProp, QuerySpec,
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
pub struct GroupDef {
    pub expr: ExprId,
    pub prop: PhysProp,
    /// Dense range into [`Memo::alts`].
    pub alts_start: u32,
    pub alts_end: u32,
}

/// The interned and-or graph.
#[derive(Clone, Debug)]
pub struct Memo {
    pub groups: Vec<GroupDef>,
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
        // Breadth-first from the root demand, each group enumerated once
        // (`Fn_split`); groups and children carry discovery ids here.
        let root_key = (q.root_expr(), PhysProp::Any);
        let mut index = FxHashMap::default();
        index.insert(root_key, GroupId(0));
        let mut found = vec![GroupDef {
            expr: root_key.0,
            prop: root_key.1,
            alts_start: 0,
            alts_end: 0,
        }];
        let mut found_alts: Vec<AltDef> = Vec::new();
        let mut next = 0;
        while next < found.len() {
            let (expr, prop) = (found[next].expr, found[next].prop);
            let mut child_id = |c: ChildRef| {
                *index.entry((c.expr, c.prop)).or_insert_with(|| {
                    found.push(GroupDef {
                        expr: c.expr,
                        prop: c.prop,
                        alts_start: 0,
                        alts_end: 0,
                    });
                    GroupId(found.len() as u32 - 1)
                })
            };
            let start = found_alts.len() as u32;
            for spec in enumerate_alts(q, g, expr, prop) {
                found_alts.push(AltDef {
                    op: spec.op,
                    group: GroupId(next as u32),
                    left: spec.left.map(&mut child_id),
                    right: spec.right.map(&mut child_id),
                    spec,
                });
            }
            found[next].alts_start = start;
            found[next].alts_end = found_alts.len() as u32;
            next += 1;
        }
        // Re-number groups bottom-up with a stable sort on size, so every
        // child of an alternative has a smaller id than its group; `rank`
        // maps discovery ids to final ones.
        let mut order: Vec<usize> = (0..found.len()).collect();
        order.sort_by_key(|&i| {
            let def = &found[i];
            (def.expr.rel.len(), def.expr.agg, def.prop != PhysProp::Any)
        });
        let mut rank = vec![GroupId(0); found.len()];
        for (new_idx, &i) in order.iter().enumerate() {
            rank[i] = GroupId(new_idx as u32);
        }
        let renumber = |c: GroupId| rank[c.0 as usize];
        let mut groups = Vec::with_capacity(found.len());
        let mut alts = Vec::with_capacity(found_alts.len());
        for &i in &order {
            let def = &found[i];
            let start = alts.len() as u32;
            for alt in &found_alts[def.alts_start as usize..def.alts_end as usize] {
                alts.push(AltDef {
                    group: rank[i],
                    left: alt.left.map(renumber),
                    right: alt.right.map(renumber),
                    ..*alt
                });
            }
            groups.push(GroupDef {
                alts_start: start,
                alts_end: alts.len() as u32,
                ..*def
            });
        }
        for id in index.values_mut() {
            *id = rank[id.0 as usize];
        }
        let mut parents = vec![Vec::new(); groups.len()];
        for (ai, alt) in alts.iter().enumerate() {
            for child in alt.children() {
                parents[child.0 as usize].push(AltId(ai as u32));
            }
        }
        Memo {
            groups,
            alts,
            parents,
            root: rank[0],
            index,
        }
    }

    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    pub fn n_alts(&self) -> usize {
        self.alts.len()
    }

    pub fn group(&self, g: GroupId) -> &GroupDef {
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
    use crate::fixtures::{
        agg_chain_query, chain_query, cycle_query, fixture_catalog, shaped_query, star_query,
    };

    /// Every `fixtures` shape: chain, aggregate chain, cycle, star and
    /// a clique.
    fn memos() -> Vec<(QuerySpec, JoinGraph, Memo)> {
        let c = fixture_catalog();
        [
            chain_query(&c, 4),
            agg_chain_query(&c, 4),
            cycle_query(&c),
            star_query(&c),
            shaped_query(&c, "clique", 5),
        ]
        .into_iter()
        .map(|q| {
            let g = JoinGraph::new(&q);
            let memo = Memo::build(&q, &g);
            (q, g, memo)
        })
        .collect()
    }

    #[test]
    fn topo_order_puts_children_first() {
        // Every child an alternative names resolves, by its (expr, prop),
        // to a group that precedes the parent in id order.
        for (q, _, memo) in memos() {
            for alt in &memo.alts {
                for child in alt.children() {
                    let def = memo.group(child);
                    let ci = memo.lookup(def.expr, def.prop).unwrap();
                    assert_eq!(ci, child, "{}: {def:?} looks up elsewhere", q.name);
                    assert!(
                        ci.0 < alt.group.0,
                        "{}: child {def:?} after parent {:?}",
                        q.name,
                        memo.group(alt.group)
                    );
                }
            }
        }
    }

    #[test]
    fn memo_ids_are_topo_ordered() {
        for (q, _, memo) in memos() {
            for alt in &memo.alts {
                for child in alt.children() {
                    assert!(
                        child.0 < alt.group.0,
                        "{}: child {child:?} not before parent group {:?}",
                        q.name,
                        alt.group
                    );
                }
            }
            // Ids follow the size key the growth pins and the lowest-id
            // tie-breaks rest on.
            let key = |d: &GroupDef| (d.expr.rel.len(), d.expr.agg, d.prop != PhysProp::Any);
            assert!(
                memo.groups.windows(2).all(|w| key(&w[0]) <= key(&w[1])),
                "{}: group ids out of size order",
                q.name
            );
            assert_eq!(memo.group(memo.root).expr, q.root_expr());
            assert_eq!(memo.lookup(q.root_expr(), PhysProp::Any), Some(memo.root));
        }
    }

    #[test]
    fn every_connected_subset_has_an_any_group() {
        for (q, g, memo) in memos() {
            let all = q.all_rels();
            for rel in all.proper_subsets().chain([all]) {
                if g.is_connected(rel) {
                    assert!(
                        memo.lookup(ExprId::rel(rel), PhysProp::Any).is_some(),
                        "{}: missing group for {rel}",
                        q.name
                    );
                }
            }
        }
    }

    #[test]
    fn every_group_has_alternatives() {
        // A group only exists because some parent demanded it, and every
        // demanded property is satisfiable (the Sort enforcer guarantees
        // it for Sorted; Indexed is only demanded where an index exists).
        for (q, _, memo) in memos() {
            for (gi, def) in memo.groups.iter().enumerate() {
                assert!(
                    memo.alts_of(GroupId(gi as u32)).next().is_some(),
                    "{}: group ({:?},{}) has no alternatives",
                    q.name,
                    def.expr,
                    def.prop
                );
            }
        }
    }

    #[test]
    fn memo_size_grows_with_query_size() {
        let c = fixture_catalog();
        let sizes: Vec<usize> = (2..=5)
            .map(|n| {
                let q = chain_query(&c, n);
                Memo::build(&q, &JoinGraph::new(&q)).n_alts()
            })
            .collect();
        assert!(sizes.windows(2).all(|w| w[0] < w[1]), "{sizes:?}");
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
