//! `Fn_split`: given an expression and a required physical property,
//! enumerate every alternative (an "AND" node): all algebraically
//! equivalent splits *and* the physical operators implementing them with
//! their child property requirements (paper §2.1, rules R1–R5).
//!
//! Logical and physical enumeration are merged in one function, exactly
//! as §2.3 prescribes, in two steps: [`SplitTable::push`] lists an
//! expression's connected, edge-joined, ordered splits with the edges
//! crossing each, and [`elaborate`] turns them into one property
//! group's alternatives. [`enumerate_alts`] is the second applied to
//! the first. The memo, `reopt_core::Memo`, lists each expression's
//! splits once and elaborates every group of the expression from them
//! ("we use caching to memoize the results of Fn_nonscansummary and
//! Fn_split"); Volcano calls [`enumerate_alts`] per group.

use std::ops::Range;

use crate::graph::JoinGraph;
use crate::ops::PhysOp;
use crate::props::PhysProp;
use crate::query::{EdgeId, ExprId, LeafCol, LeafId, QuerySpec};
use crate::relset::RelSet;

/// A reference to a child group: `(expression, required property)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChildRef {
    pub expr: ExprId,
    pub prop: PhysProp,
}

impl ChildRef {
    pub fn new(expr: ExprId, prop: PhysProp) -> ChildRef {
        ChildRef { expr, prop }
    }
}

/// One enumerated alternative: the root physical operator and its child
/// group references. Scans have no children; unary operators have only
/// `left`; joins have both (left = build side / indexed inner, matching
/// Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AltSpec {
    pub op: PhysOp,
    pub left: Option<ChildRef>,
    pub right: Option<ChildRef>,
}

impl AltSpec {
    fn leaf(op: PhysOp) -> AltSpec {
        AltSpec {
            op,
            left: None,
            right: None,
        }
    }

    fn unary(op: PhysOp, child: ChildRef) -> AltSpec {
        AltSpec {
            op,
            left: Some(child),
            right: None,
        }
    }

    fn binary(op: PhysOp, left: ChildRef, right: ChildRef) -> AltSpec {
        AltSpec {
            op,
            left: Some(left),
            right: Some(right),
        }
    }

    pub fn children(&self) -> impl Iterator<Item = ChildRef> + '_ {
        self.left.into_iter().chain(self.right)
    }
}

/// An equi-join edge crossing a [`Split`], oriented to it: `left` is
/// its endpoint on the split's left side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cross {
    pub edge: EdgeId,
    pub left: LeafCol,
    pub right: LeafCol,
}

/// One connected, edge-joined, ordered split `left | right` of a join
/// expression (rules R1–R3); its crossing edges are
/// [`SplitTable::crosses`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Split {
    pub left: RelSet,
    pub right: RelSet,
    crosses: (u32, u32),
}

/// `Fn_split`'s logical half: the splits of one or more expressions,
/// each listed once by [`SplitTable::push`] and elaborated into every
/// property group of the expression by [`elaborate`].
#[derive(Clone, Debug, Default)]
pub struct SplitTable {
    splits: Vec<Split>,
    crosses: Vec<Cross>,
    examined: u64,
}

impl SplitTable {
    /// Appends the splits of `expr` — none unless it joins two or more
    /// leaves and is connected — and returns their range in
    /// [`SplitTable::splits`]. Left sides come in
    /// [`RelSet::proper_subsets`] order, each split's crossing edges by
    /// id. The order is symmetric: complements within `expr` reverse
    /// it, so the `k`-th split from the end is the `k`-th one mirrored.
    pub fn push(&mut self, q: &QuerySpec, g: &JoinGraph, expr: ExprId) -> Range<usize> {
        let start = self.splits.len();
        let rel = expr.rel;
        if expr.agg || rel.len() < 2 || !g.is_connected(rel) {
            return start..start;
        }
        // Complementary connected sides of a connected set are joined by
        // an edge, and exactly one of them lacks its lowest leaf: only
        // the connected sets without that leaf are candidates.
        let rest = RelSet(rel.0 & (rel.0 - 1));
        let (splits, examined) = (&mut self.splits, &mut self.examined);
        g.for_each_connected(rest, &mut |right| {
            *examined += 1;
            let left = rel.minus(right);
            if g.is_connected(left) {
                for (left, right) in [(left, right), (right, left)] {
                    splits.push(Split {
                        left,
                        right,
                        crosses: (0, 0),
                    });
                }
            }
        });
        self.splits[start..].sort_unstable_by_key(|s| std::cmp::Reverse(s.left));
        for split in &mut self.splits[start..] {
            let from = self.crosses.len() as u32;
            for (i, e) in q.edges.iter().enumerate() {
                if let Some((left, right)) = e.across(split.left, split.right) {
                    self.crosses.push(Cross {
                        edge: EdgeId(i as u32),
                        left,
                        right,
                    });
                }
            }
            split.crosses = (from, self.crosses.len() as u32);
        }
        start..self.splits.len()
    }

    /// Every split listed so far, expression after expression.
    pub fn splits(&self) -> &[Split] {
        &self.splits
    }

    /// The edges crossing `split`, by id.
    pub fn crosses(&self, split: &Split) -> &[Cross] {
        &self.crosses[split.crosses.0 as usize..split.crosses.1 as usize]
    }

    /// Candidate sides examined so far (each tested once for a
    /// connected complement): a deterministic measure of the listing's
    /// work.
    pub fn examined(&self) -> u64 {
        self.examined
    }
}

/// Enumerates all alternatives for `(expr, prop)`: [`elaborate`] over
/// the expression's [`SplitTable`].
pub fn enumerate_alts(
    q: &QuerySpec,
    g: &JoinGraph,
    expr: ExprId,
    prop: PhysProp,
) -> Vec<AltSpec> {
    let mut table = SplitTable::default();
    let splits = table.push(q, g, expr);
    let mut alts = Vec::new();
    elaborate(q, expr, prop, &table, splits, |alt, _| alts.push(alt));
    alts
}

/// `Fn_split`'s physical half: emits the alternatives of group
/// `(expr, prop)` in enumeration order, given `splits`, the range of
/// `table` [`SplitTable::push`] returned for `expr`. A join alternative
/// comes with the index of its split in `table`.
pub fn elaborate(
    q: &QuerySpec,
    expr: ExprId,
    prop: PhysProp,
    table: &SplitTable,
    splits: Range<usize>,
    mut emit: impl FnMut(AltSpec, Option<usize>),
) {
    if expr.agg {
        elaborate_agg(q, expr, prop, |alt| emit(alt, None));
    } else if expr.rel.is_singleton() {
        elaborate_scan(q, expr, prop, |alt| emit(alt, None));
    } else {
        elaborate_join(q, expr, prop, table, splits, emit);
    }
}

/// Aggregate root group (only the full relation set carries `agg`).
fn elaborate_agg(q: &QuerySpec, expr: ExprId, prop: PhysProp, mut emit: impl FnMut(AltSpec)) {
    debug_assert_eq!(expr.rel, q.all_rels(), "aggregate applies at the root");
    if prop != PhysProp::Any {
        return;
    }
    let input = ExprId::rel(expr.rel);
    emit(AltSpec::unary(
        PhysOp::HashAgg,
        ChildRef::new(input, PhysProp::Any),
    ));
    if let Some(agg) = &q.aggregate {
        if let Some(&g0) = agg.group_by.first() {
            emit(AltSpec::unary(
                PhysOp::SortAgg,
                ChildRef::new(input, PhysProp::Sorted(g0)),
            ));
        }
    }
}

/// Leaf access paths (rules R4/R5 + `Fn_phyOp`).
fn elaborate_scan(q: &QuerySpec, expr: ExprId, prop: PhysProp, mut emit: impl FnMut(AltSpec)) {
    let leaf_id = expr.rel.leaf();
    let leaf = q.leaf(LeafId(leaf_id));
    // Windowed stream leaves have neither indexes nor clustering: their
    // contents are transient.
    let windowed = leaf.window.is_some();
    match prop {
        PhysProp::Any => {
            emit(AltSpec::leaf(PhysOp::FullScan));
            if !windowed {
                for &col in &leaf.indexed_cols {
                    let col = LeafCol {
                        leaf: LeafId(leaf_id),
                        col,
                    };
                    emit(AltSpec::leaf(PhysOp::IndexScan { col }));
                }
            }
        }
        PhysProp::Sorted(c) if c.leaf.0 == leaf_id => {
            if !windowed && table_has_index(q, leaf_id, c) {
                emit(AltSpec::leaf(PhysOp::IndexScan { col: c }));
            }
            if !windowed && is_clustered_on(q, leaf_id, c) {
                emit(AltSpec::leaf(PhysOp::FullScan));
            }
            // Sort enforcer over the unordered scan.
            emit(AltSpec::unary(
                PhysOp::Sort { col: c },
                ChildRef::new(expr, PhysProp::Any),
            ));
        }
        PhysProp::Indexed(c) if c.leaf.0 == leaf_id
            && !windowed && table_has_index(q, leaf_id, c) => {
                emit(AltSpec::leaf(PhysOp::IndexScan { col: c }));
            }
        // A property referring to another leaf's column is unsatisfiable.
        _ => {}
    }
}

/// Join splits (rules R1–R3): each of the expression's splits,
/// elaborated with each applicable physical operator.
fn elaborate_join(
    q: &QuerySpec,
    expr: ExprId,
    prop: PhysProp,
    table: &SplitTable,
    splits: Range<usize>,
    mut emit: impl FnMut(AltSpec, Option<usize>),
) {
    if let PhysProp::Indexed(_) = prop {
        return; // only leaves can satisfy an index requirement
    }
    for i in splits {
        let split = &table.splits[i];
        let (l, r) = (split.left, split.right);
        let (le, re) = (ExprId::rel(l), ExprId::rel(r));
        if prop == PhysProp::Any {
            // Pipelined hash join: build on left, probe on right.
            emit(
                AltSpec::binary(
                    PhysOp::HashJoin,
                    ChildRef::new(le, PhysProp::Any),
                    ChildRef::new(re, PhysProp::Any),
                ),
                Some(i),
            );
        }
        for &Cross { edge, left: lc, right: rc } in table.crosses(split) {
            // Sort-merge join produces output sorted on the left merge
            // column: usable for Any or for exactly Sorted(lc).
            if PhysProp::Sorted(lc).satisfies(prop) {
                emit(
                    AltSpec::binary(
                        PhysOp::SortMergeJoin { edge },
                        ChildRef::new(le, PhysProp::Sorted(lc)),
                        ChildRef::new(re, PhysProp::Sorted(rc)),
                    ),
                    Some(i),
                );
            }
            // Indexed nested-loop: left child must be a single indexed
            // base leaf (the inner), per Table 1.
            if prop == PhysProp::Any
                && l.is_singleton()
                && table_has_index(q, l.leaf(), lc)
                && q.leaf(lc.leaf).window.is_none()
            {
                emit(
                    AltSpec::binary(
                        PhysOp::IndexNLJoin { edge },
                        ChildRef::new(le, PhysProp::Indexed(lc)),
                        ChildRef::new(re, PhysProp::Any),
                    ),
                    Some(i),
                );
            }
        }
    }
    if let PhysProp::Sorted(c) = prop {
        // Sort enforcer over the unordered join result.
        emit(
            AltSpec::unary(PhysOp::Sort { col: c }, ChildRef::new(expr, PhysProp::Any)),
            None,
        );
    }
}

fn table_has_index(q: &QuerySpec, leaf_id: u32, c: LeafCol) -> bool {
    q.leaf(LeafId(leaf_id)).indexed_cols.contains(&c.col)
}

fn is_clustered_on(q: &QuerySpec, leaf_id: u32, c: LeafCol) -> bool {
    q.leaf(LeafId(leaf_id)).clustered_on == Some(c.col)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{AggFunc, AggSpec, QuerySpec};
    use reopt_catalog::{Catalog, ColumnStats, TableBuilder, TableStats};

    /// Catalog with three tables; `b` is indexed + clustered on `k`.
    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let stats = |n: usize| TableStats {
            row_count: 100.0,
            columns: (0..n).map(|_| ColumnStats::uniform_key(100.0)).collect(),
        };
        c.add_table(
            |id| TableBuilder::new("a").int_col("k").build(id),
            stats(1),
        );
        c.add_table(
            |id| {
                TableBuilder::new("b")
                    .int_col("k")
                    .int_col("j")
                    .index_on("k")
                    .clustered_on("k")
                    .build(id)
            },
            stats(2),
        );
        c.add_table(
            |id| TableBuilder::new("c").int_col("j").build(id),
            stats(1),
        );
        c
    }

    /// a ⋈ b ⋈ c chain (a.k = b.k, b.j = c.j).
    fn chain() -> QuerySpec {
        let cat = catalog();
        let mut qb = QuerySpec::builder("chain");
        let a = qb.leaf(&cat, "a");
        let b = qb.leaf(&cat, "b");
        let c = qb.leaf(&cat, "c");
        qb.join(&cat, a, "k", b, "k");
        qb.join(&cat, b, "j", c, "j");
        qb.build()
    }

    fn alts(q: &QuerySpec, expr: ExprId, prop: PhysProp) -> Vec<AltSpec> {
        let g = JoinGraph::new(q);
        enumerate_alts(q, &g, expr, prop)
    }

    #[test]
    fn leaf_any_enumerates_access_paths() {
        let q = chain();
        // `a`: full scan only.
        let a = alts(&q, ExprId::rel(RelSet::singleton(0)), PhysProp::Any);
        assert_eq!(a, vec![AltSpec::leaf(PhysOp::FullScan)]);
        // `b`: full scan + index scan on k.
        let b = alts(&q, ExprId::rel(RelSet::singleton(1)), PhysProp::Any);
        assert_eq!(b.len(), 2);
        assert!(b.iter().any(|s| matches!(s.op, PhysOp::IndexScan { .. })));
    }

    #[test]
    fn leaf_sorted_prop_uses_index_clustering_and_enforcer() {
        let q = chain();
        let bk = LeafCol::new(1, 0);
        let got = alts(&q, ExprId::rel(RelSet::singleton(1)), PhysProp::Sorted(bk));
        // index scan (sorted), clustered full scan, sort enforcer.
        assert_eq!(got.len(), 3);
        assert!(got.iter().any(|s| s.op == PhysOp::IndexScan { col: bk }));
        assert!(got.iter().any(|s| s.op == PhysOp::FullScan));
        assert!(got.iter().any(|s| s.op == PhysOp::Sort { col: bk }));
        // Unindexed column: enforcer only.
        let bj = LeafCol::new(1, 1);
        let got = alts(&q, ExprId::rel(RelSet::singleton(1)), PhysProp::Sorted(bj));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].op, PhysOp::Sort { col: bj });
    }

    #[test]
    fn indexed_prop_only_on_indexed_leaf() {
        let q = chain();
        let bk = LeafCol::new(1, 0);
        let got = alts(&q, ExprId::rel(RelSet::singleton(1)), PhysProp::Indexed(bk));
        assert_eq!(got, vec![AltSpec::leaf(PhysOp::IndexScan { col: bk })]);
        let ak = LeafCol::new(0, 0);
        let got = alts(&q, ExprId::rel(RelSet::singleton(0)), PhysProp::Indexed(ak));
        assert!(got.is_empty());
        // Composite expressions cannot satisfy Indexed.
        let got = alts(&q, ExprId::rel(RelSet(0b011)), PhysProp::Indexed(bk));
        assert!(got.is_empty());
    }

    #[test]
    fn two_way_join_alternatives() {
        let q = chain();
        let ab = ExprId::rel(RelSet(0b011));
        let got = alts(&q, ab, PhysProp::Any);
        // Splits (a|b) and (b|a), each: hash join + SMJ; plus INLJ with b
        // as indexed inner (only when b is on the left). a has no index.
        let hash = got.iter().filter(|s| s.op == PhysOp::HashJoin).count();
        let smj = got
            .iter()
            .filter(|s| matches!(s.op, PhysOp::SortMergeJoin { .. }))
            .count();
        let inlj = got
            .iter()
            .filter(|s| matches!(s.op, PhysOp::IndexNLJoin { .. }))
            .count();
        assert_eq!((hash, smj, inlj), (2, 2, 1));
        // INLJ's left child requires the Indexed property.
        let inlj_alt = got
            .iter()
            .find(|s| matches!(s.op, PhysOp::IndexNLJoin { .. }))
            .unwrap();
        assert!(matches!(
            inlj_alt.left.unwrap().prop,
            PhysProp::Indexed(c) if c.leaf.0 == 1
        ));
    }

    #[test]
    fn no_cross_products() {
        let q = chain();
        // {a,c} is not connected: a join group over it yields nothing.
        let got = alts(&q, ExprId::rel(RelSet(0b101)), PhysProp::Any);
        assert!(got.is_empty());
        // The 3-way join never splits into {a,c} | {b}.
        let got = alts(&q, ExprId::rel(RelSet(0b111)), PhysProp::Any);
        for s in &got {
            let l = s.left.unwrap().expr.rel;
            assert_ne!(l, RelSet(0b101), "cross-product split leaked: {s:?}");
        }
    }

    #[test]
    fn sorted_join_prop_restricts_to_matching_smj_plus_enforcer() {
        let q = chain();
        let ab = ExprId::rel(RelSet(0b011));
        let ak = LeafCol::new(0, 0);
        let got = alts(&q, ab, PhysProp::Sorted(ak));
        // SMJ with left=a on edge0 produces Sorted(a.k); plus enforcer.
        assert_eq!(got.len(), 2);
        assert!(got
            .iter()
            .any(|s| matches!(s.op, PhysOp::SortMergeJoin { .. })
                && s.left.unwrap().prop == PhysProp::Sorted(ak)));
        assert!(got.iter().any(|s| s.op == PhysOp::Sort { col: ak }));
    }

    #[test]
    fn agg_root_enumerates_hash_and_sort_agg() {
        let mut q = chain();
        let g0 = LeafCol::new(0, 0);
        q.aggregate = Some(AggSpec {
            group_by: vec![g0],
            aggs: vec![AggFunc::CountStar],
        });
        let root = q.root_expr();
        assert!(root.agg);
        let got = alts(&q, root, PhysProp::Any);
        assert_eq!(got.len(), 2);
        assert!(got.iter().any(|s| s.op == PhysOp::HashAgg
            && s.left.unwrap().prop == PhysProp::Any
            && !s.left.unwrap().expr.agg));
        assert!(got
            .iter()
            .any(|s| s.op == PhysOp::SortAgg && s.left.unwrap().prop == PhysProp::Sorted(g0)));
        // Scalar aggregate (no group-by): hash agg only.
        q.aggregate = Some(AggSpec {
            group_by: vec![],
            aggs: vec![AggFunc::CountStar],
        });
        let got = alts(&q, q.root_expr(), PhysProp::Any);
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn windowed_leaf_loses_index_access() {
        let mut q = chain();
        q.leaves[1].window = Some(crate::query::WindowSpec::Time { seconds: 30.0 });
        let b = alts(&q, ExprId::rel(RelSet::singleton(1)), PhysProp::Any);
        assert_eq!(b, vec![AltSpec::leaf(PhysOp::FullScan)]);
        let bk = LeafCol::new(1, 0);
        let got = alts(&q, ExprId::rel(RelSet::singleton(1)), PhysProp::Indexed(bk));
        assert!(got.is_empty());
        // And the INLJ alternative over it disappears.
        let got = alts(&q, ExprId::rel(RelSet(0b011)), PhysProp::Any);
        assert!(!got
            .iter()
            .any(|s| matches!(s.op, PhysOp::IndexNLJoin { .. })));
    }

    #[test]
    fn split_lists_are_the_connected_joined_subsets_in_order() {
        // A 4-cycle with a chord, by brute force over every expression;
        // a disconnected expression has no splits, scans and aggregates
        // none; each list reads the same backwards, mirrored.
        let cat = catalog();
        let mut qb = QuerySpec::builder("cycle");
        let l: Vec<_> = (0..4).map(|_| qb.leaf(&cat, "b")).collect();
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)] {
            qb.join(&cat, l[a], "k", l[b], "j");
        }
        let q = qb.build();
        let g = JoinGraph::new(&q);
        let mut table = SplitTable::default();
        let all = q.all_rels();
        for rel in all.proper_subsets().chain([all]) {
            let range = table.push(&q, &g, ExprId::rel(rel));
            let got: Vec<_> = table.splits()[range.clone()].iter().map(|s| (s.left, s.right)).collect();
            let want: Vec<_> = rel
                .proper_subsets()
                .map(|l| (l, rel.minus(l)))
                .filter(|&(l, r)| g.is_connected(l) && g.is_connected(r) && g.are_joined(l, r))
                .collect();
            assert_eq!(got, want, "splits of {rel}");
            let mirrored: Vec<_> = got.iter().rev().map(|&(l, r)| (r, l)).collect();
            assert_eq!(got, mirrored);
            for s in &table.splits()[range] {
                let ids: Vec<EdgeId> = table.crosses(s).iter().map(|c| c.edge).collect();
                assert_eq!(ids, q.edges_across(s.left, s.right).collect::<Vec<_>>());
            }
        }
        let mut chain = SplitTable::default();
        let q = self::chain();
        let g = JoinGraph::new(&q);
        assert!(chain.push(&q, &g, ExprId::rel(RelSet(0b101))).is_empty());
        assert!(chain.push(&q, &g, ExprId::rel(RelSet(0b001))).is_empty());
        assert!(chain.push(&q, &g, ExprId { rel: RelSet(0b111), agg: true }).is_empty());
        assert_eq!(chain.push(&q, &g, ExprId::rel(RelSet(0b111))).len(), 4);
    }
}
