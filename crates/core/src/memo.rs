//! The interned and-or graph the optimizer's state lives on.
//!
//! Structure only — costs, liveness, bounds are [`crate::state`]. Groups
//! are the paper's "OR" nodes (`(expression, property)` pairs keying the
//! `SearchSpace`/`BestCost` relations); alternatives are the "AND" nodes
//! (`SearchSpace`/`PlanCost` tuples, keyed by `*Expr,*Prop,*Index` in
//! Table 1).

use std::ops::Range;

use reopt_common::FxHashMap;
use reopt_expr::{
    elaborate, AltSpec, ExprId, JoinGraph, PhysOp, PhysProp, QuerySpec, SplitTable,
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
    pub root: GroupId,
    /// Per group `g`: `parent_alts[parent_start[g]..parent_start[g + 1]]`
    /// are the alternatives referencing it as a child, by id (the
    /// reverse edges reference counting and bound propagation walk).
    parent_start: Vec<u32>,
    parent_alts: Vec<AltId>,
    /// Per expression its slot, per slot and property id its group
    /// ([`NONE`] where there is none): what [`Memo::lookup`] reads.
    slot_of: FxHashMap<ExprId, u32>,
    props: PropIds,
    slot_groups: Vec<u32>,
}

/// An absent group or child.
const NONE: u32 = u32::MAX;

/// Dense ids of the properties a group can be asked for: `Any` is 0,
/// then `Sorted` and `Indexed` on every column of every leaf up to the
/// highest one an edge or the grouping key names. An expression's
/// groups sit in a row of that width, so placing a child group costs
/// no hash lookup, and the rows grow with the expressions, not with
/// `2^leaves`.
#[derive(Clone, Debug)]
struct PropIds {
    /// Per leaf, the index of its column 0 among all leaves' columns;
    /// one entry more, the total.
    first: Vec<u32>,
}

impl PropIds {
    fn new(q: &QuerySpec) -> PropIds {
        let mut first = vec![0u32; q.n_leaves() as usize + 1];
        let group_key = q.aggregate.as_ref().and_then(|a| a.group_by.first());
        let cols = q.edges.iter().flat_map(|e| [e.l, e.r]).chain(group_key.copied());
        for c in cols {
            let width = &mut first[c.leaf.0 as usize + 1];
            *width = (*width).max(c.col.0 + 1);
        }
        for leaf in 1..first.len() {
            first[leaf] += first[leaf - 1];
        }
        PropIds { first }
    }

    /// Ids per expression.
    fn width(&self) -> usize {
        1 + 2 * *self.first.last().unwrap() as usize
    }

    fn id(&self, prop: PhysProp) -> Option<usize> {
        let (c, indexed) = match prop {
            PhysProp::Any => return Some(0),
            PhysProp::Sorted(c) => (c, 0),
            PhysProp::Indexed(c) => (c, 1),
        };
        let leaf = c.leaf.0 as usize;
        let (first, end) = (*self.first.get(leaf)?, *self.first.get(leaf + 1)?);
        (c.col.0 < end - first).then(|| 1 + 2 * (first + c.col.0) as usize + indexed)
    }
}

/// An expression while the memo is explored, with its splits in the
/// [`SplitTable`] once listed.
struct ExprSlot {
    expr: ExprId,
    splits: Option<Range<usize>>,
}

/// A group in discovery order: its expression slot and its
/// alternatives' range in [`Explored::specs`].
struct Found {
    slot: u32,
    prop: PhysProp,
    alts: (u32, u32),
}

/// The reachable space in discovery order: what [`Memo::build`]
/// numbers.
struct Explored {
    props: PropIds,
    slots: Vec<ExprSlot>,
    slot_of: FxHashMap<ExprId, u32>,
    /// Per slot, a row of [`PropIds::width`] discovery ids.
    slot_groups: Vec<u32>,
    groups: Vec<Found>,
    /// Per alternative: its enumeration record and its children's
    /// discovery ids.
    specs: Vec<AltSpec>,
    kids: Vec<[u32; 2]>,
}

impl Explored {
    /// Explores the and-or graph breadth-first from the root demand
    /// (rules R1–R5 to fixpoint), returning it with the split table it
    /// was elaborated from: every group is elaborated once, from its
    /// expression's splits, listed when the expression's first group
    /// is.
    fn new(q: &QuerySpec, g: &JoinGraph) -> (Explored, SplitTable) {
        let mut x = Explored {
            props: PropIds::new(q),
            slots: Vec::new(),
            slot_of: FxHashMap::default(),
            slot_groups: Vec::new(),
            groups: Vec::new(),
            specs: Vec::new(),
            kids: Vec::new(),
        };
        let mut table = SplitTable::default();
        // Per split in `table`: the slots of its two sides.
        let mut sides: Vec<[u32; 2]> = Vec::new();
        let root = x.slot(q.root_expr());
        x.place(root, PhysProp::Any);
        let mut next = 0;
        while next < x.groups.len() {
            let Found { slot, prop, .. } = x.groups[next];
            let expr = x.slots[slot as usize].expr;
            let splits = match &x.slots[slot as usize].splits {
                Some(splits) => splits.clone(),
                None => {
                    let splits = table.push(q, g, expr);
                    // The list is symmetric: look each pair up once.
                    sides.resize(splits.end, [NONE; 2]);
                    let listed = &table.splits()[splits.clone()];
                    for (k, split) in listed[..listed.len() / 2].iter().enumerate() {
                        let l = x.slot(ExprId::rel(split.left));
                        let r = x.slot(ExprId::rel(split.right));
                        sides[splits.start + k] = [l, r];
                        sides[splits.end - 1 - k] = [r, l];
                    }
                    x.slots[slot as usize].splits = Some(splits.clone());
                    splits
                }
            };
            let start = x.specs.len() as u32;
            elaborate(q, expr, prop, &table, splits, |spec, split| {
                let [l, r] = match split {
                    Some(i) => sides[i],
                    // A Sort enforcer reads its own expression, an
                    // aggregate the join below it.
                    None => match spec.left {
                        Some(c) if c.expr == expr => [slot, NONE],
                        Some(c) => [x.slot(c.expr), NONE],
                        None => [NONE; 2],
                    },
                };
                let l = spec.left.map_or(NONE, |c| x.place(l, c.prop));
                let r = spec.right.map_or(NONE, |c| x.place(r, c.prop));
                x.specs.push(spec);
                x.kids.push([l, r]);
            });
            x.groups[next].alts = (start, x.specs.len() as u32);
            next += 1;
        }
        (x, table)
    }

    /// The slot of `expr`, made on first sight.
    fn slot(&mut self, expr: ExprId) -> u32 {
        let (slots, slot_groups) = (&mut self.slots, &mut self.slot_groups);
        let width = self.props.width();
        *self.slot_of.entry(expr).or_insert_with(|| {
            slots.push(ExprSlot { expr, splits: None });
            slot_groups.resize(slot_groups.len() + width, NONE);
            slots.len() as u32 - 1
        })
    }

    /// The discovery id of group `(slot, prop)`, made on first sight.
    fn place(&mut self, slot: u32, prop: PhysProp) -> u32 {
        let id = self.props.id(prop).expect("a child property names an edge or grouping column");
        let at = &mut self.slot_groups[slot as usize * self.props.width() + id];
        if *at == NONE {
            *at = self.groups.len() as u32;
            self.groups.push(Found {
                slot,
                prop,
                alts: (0, 0),
            });
        }
        *at
    }
}

impl Memo {
    /// Builds the memo by exploring the full reachable space (rules
    /// R1–R5 run to fixpoint with no pruning; what the pruning
    /// strategies then reclaim is *state*, tracked in `OptimizerState`).
    /// Each join expression's splits are listed once
    /// ([`SplitTable::push`]) and every group of it is elaborated from
    /// them; groups are then numbered bottom-up and every alternative
    /// is written once, at its final id.
    pub fn build(q: &QuerySpec, g: &JoinGraph) -> Memo {
        Memo::number(Explored::new(q, g).0)
    }

    /// Numbers groups bottom-up with a stable sort on size, so every
    /// child of an alternative has a smaller id than its group; ties
    /// keep discovery order.
    fn number(x: Explored) -> Memo {
        let Explored {
            props,
            slots,
            slot_of,
            mut slot_groups,
            groups: found,
            specs,
            kids,
        } = x;
        let expr_of = |f: &Found| slots[f.slot as usize].expr;
        let mut order: Vec<u32> = (0..found.len() as u32).collect();
        order.sort_by_cached_key(|&i| {
            let f = &found[i as usize];
            let expr = expr_of(f);
            (expr.rel.len(), expr.agg, f.prop != PhysProp::Any)
        });
        let mut rank = vec![0u32; found.len()];
        for (new_id, &i) in order.iter().enumerate() {
            rank[i as usize] = new_id as u32;
        }
        let group_id = |i: u32| (i != NONE).then(|| GroupId(rank[i as usize]));
        let mut groups = Vec::with_capacity(found.len());
        let mut alts = Vec::with_capacity(specs.len());
        let mut parent_start = vec![0u32; found.len() + 1];
        for &i in &order {
            let f = &found[i as usize];
            let start = alts.len() as u32;
            for k in f.alts.0 as usize..f.alts.1 as usize {
                let [l, r] = kids[k];
                let (left, right) = (group_id(l), group_id(r));
                for child in left.into_iter().chain(right) {
                    parent_start[child.0 as usize + 1] += 1;
                }
                alts.push(AltDef {
                    op: specs[k].op,
                    group: GroupId(rank[i as usize]),
                    left,
                    right,
                    spec: specs[k],
                });
            }
            groups.push(GroupDef {
                expr: expr_of(f),
                prop: f.prop,
                alts_start: start,
                alts_end: alts.len() as u32,
            });
        }
        for g in &mut slot_groups {
            if *g != NONE {
                *g = rank[*g as usize];
            }
        }
        // Parents by alternative id: counted above, placed here.
        for g in 1..parent_start.len() {
            parent_start[g] += parent_start[g - 1];
        }
        let mut fill = parent_start.clone();
        let mut parent_alts = vec![AltId(0); *parent_start.last().unwrap() as usize];
        for (ai, alt) in alts.iter().enumerate() {
            for child in alt.children() {
                let at = &mut fill[child.0 as usize];
                parent_alts[*at as usize] = AltId(ai as u32);
                *at += 1;
            }
        }
        Memo {
            groups,
            alts,
            root: GroupId(rank[0]),
            parent_start,
            parent_alts,
            slot_of,
            props,
            slot_groups,
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
        let slot = *self.slot_of.get(&expr)? as usize;
        let g = self.slot_groups[slot * self.props.width() + self.props.id(prop)?];
        (g != NONE).then_some(GroupId(g))
    }

    /// Alternative ids of a group.
    pub fn alts_of(&self, g: GroupId) -> impl Iterator<Item = AltId> {
        let def = self.group(g);
        (def.alts_start..def.alts_end).map(AltId)
    }

    /// Alternatives referencing `g` as a child.
    pub fn parents_of(&self, g: GroupId) -> &[AltId] {
        let g = g.0 as usize;
        &self.parent_alts[self.parent_start[g] as usize..self.parent_start[g + 1] as usize]
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

    /// Every `fixtures` shape (chain, star and clique at several sizes,
    /// aggregate chain, cycle), TPC-H Q5 and Linear Road SegTollS.
    fn spec_queries() -> Vec<QuerySpec> {
        let c = fixture_catalog();
        let mut qs = vec![
            chain_query(&c, 5),
            agg_chain_query(&c, 4),
            cycle_query(&c),
            star_query(&c),
            shaped_query(&c, "chain", 8),
            shaped_query(&c, "star", 8),
            shaped_query(&c, "clique", 5),
        ];
        let tpch = reopt_workloads::TpchGen {
            sf: 0.001,
            zipf_theta: 0.0,
            seed: 7,
            buckets: 8,
        };
        qs.push(reopt_workloads::QueryId::Q5.build(&tpch.generate().0));
        let mut lr = reopt_catalog::Catalog::new();
        reopt_workloads::LinearRoadGen::new(11).register(&mut lr);
        qs.push(reopt_workloads::seg_toll_query(&lr));
        qs
    }

    #[test]
    fn every_group_holds_its_per_group_enumeration() {
        // The builder elaborates each group from its expression's
        // split list: the result is what `enumerate_alts` returns for
        // the group alone, in order, and each child reference names
        // the group `lookup` finds for it.
        for q in spec_queries() {
            let g = JoinGraph::new(&q);
            let memo = Memo::build(&q, &g);
            for gi in 0..memo.n_groups() as u32 {
                let def = memo.group(GroupId(gi));
                let got: Vec<AltSpec> = memo.alts_of(GroupId(gi)).map(|a| memo.alt(a).spec).collect();
                let want = reopt_expr::enumerate_alts(&q, &g, def.expr, def.prop);
                assert_eq!(got, want, "{}: group ({:?},{})", q.name, def.expr, def.prop);
                for a in memo.alts_of(GroupId(gi)) {
                    let alt = memo.alt(a);
                    let resolve = |c: Option<reopt_expr::ChildRef>| {
                        c.map(|c| memo.lookup(c.expr, c.prop).expect("a child is a group"))
                    };
                    assert_eq!(alt.op, alt.spec.op);
                    assert_eq!(alt.group, GroupId(gi));
                    assert_eq!((alt.left, alt.right), (resolve(alt.spec.left), resolve(alt.spec.right)));
                }
            }
        }
    }

    #[test]
    fn the_split_table_lists_each_expression_once() {
        // One entry per multi-leaf expression, holding exactly its
        // connected, edge-joined, ordered splits in `proper_subsets`
        // order, each with the edges crossing it by id.
        for q in spec_queries() {
            let g = JoinGraph::new(&q);
            let (x, table) = Explored::new(&q, &g);
            let mut listed = 0;
            for slot in &x.slots {
                let rel = slot.expr.rel;
                let splits = slot.splits.clone().expect("every expression is elaborated");
                if slot.expr.agg || rel.len() < 2 {
                    assert!(splits.is_empty());
                    continue;
                }
                listed += splits.len();
                let got: Vec<_> = table.splits()[splits]
                    .iter()
                    .map(|s| {
                        let crosses: Vec<_> =
                            table.crosses(s).iter().map(|c| (c.edge, c.left, c.right)).collect();
                        (s.left, s.right, crosses)
                    })
                    .collect();
                let want: Vec<_> = rel
                    .proper_subsets()
                    .map(|l| (l, rel.minus(l)))
                    .filter(|&(l, r)| g.is_connected(l) && g.is_connected(r) && g.are_joined(l, r))
                    .map(|(l, r)| {
                        let crosses: Vec<_> = q
                            .edges_across(l, r)
                            .map(|e| {
                                let (lc, rc) = q.edge(e).across(l, r).unwrap();
                                (e, lc, rc)
                            })
                            .collect();
                        (l, r, crosses)
                    })
                    .collect();
                assert_eq!(got, want, "{}: splits of {rel}", q.name);
            }
            assert_eq!(listed, table.splits().len(), "{}: an expression listed twice", q.name);
        }
        let c = fixture_catalog();
        let q = shaped_query(&c, "star", 8);
        let g = JoinGraph::new(&q);
        let (x, table) = Explored::new(&q, &g);
        let joins = x.slots.iter().filter(|s| s.expr.rel.len() > 1).count();
        assert_eq!((joins, table.splits().len()), (127, 896));
    }

    #[test]
    fn the_split_listing_examines_a_pinned_number_of_candidates() {
        // Candidate sides examined (each tested once for a connected
        // complement): only the connected sets without the expression's
        // lowest leaf. Scanning every proper subset once per group
        // examined 11 448 on this star-8 (13 428 on the benchmark's,
        // which has more sort-order groups), 32 268 on chain-12 and
        // 3 662 on clique-6.
        let c = fixture_catalog();
        for (shape, n, examined) in [("star", 8, 448), ("chain", 12, 1001), ("clique", 6, 301)] {
            let q = shaped_query(&c, shape, n);
            let (_, table) = Explored::new(&q, &JoinGraph::new(&q));
            assert_eq!(table.examined(), examined, "{shape}-{n}");
        }
    }
}
