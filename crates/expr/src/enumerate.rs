//! `Fn_split`: given an expression and a required physical property,
//! enumerate every alternative (an "AND" node): all algebraically
//! equivalent splits *and* the physical operators implementing them with
//! their child property requirements (paper §2.1, rules R1–R5).
//!
//! Logical and physical enumeration are merged in one function, exactly
//! as §2.3 prescribes. The memo is `reopt_core::Memo`, which calls
//! [`enumerate_alts`] once per group ("we use caching to memoize the
//! results of Fn_nonscansummary and Fn_split").

use crate::graph::JoinGraph;
use crate::ops::PhysOp;
use crate::props::PhysProp;
use crate::query::{ExprId, LeafCol, LeafId, QuerySpec};

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

/// Enumerates all alternatives for `(expr, prop)`.
pub fn enumerate_alts(
    q: &QuerySpec,
    g: &JoinGraph,
    expr: ExprId,
    prop: PhysProp,
) -> Vec<AltSpec> {
    if expr.agg {
        return enumerate_agg(q, expr, prop);
    }
    if expr.rel.is_singleton() {
        return enumerate_scan(q, expr, prop);
    }
    enumerate_join(q, g, expr, prop)
}

/// Aggregate root group (only the full relation set carries `agg`).
fn enumerate_agg(q: &QuerySpec, expr: ExprId, prop: PhysProp) -> Vec<AltSpec> {
    debug_assert_eq!(expr.rel, q.all_rels(), "aggregate applies at the root");
    if prop != PhysProp::Any {
        return Vec::new();
    }
    let input = ExprId::rel(expr.rel);
    let mut alts = vec![AltSpec::unary(
        PhysOp::HashAgg,
        ChildRef::new(input, PhysProp::Any),
    )];
    if let Some(agg) = &q.aggregate {
        if let Some(&g0) = agg.group_by.first() {
            alts.push(AltSpec::unary(
                PhysOp::SortAgg,
                ChildRef::new(input, PhysProp::Sorted(g0)),
            ));
        }
    }
    alts
}

/// Leaf access paths (rules R4/R5 + `Fn_phyOp`).
fn enumerate_scan(q: &QuerySpec, expr: ExprId, prop: PhysProp) -> Vec<AltSpec> {
    let leaf_id = expr.rel.leaf();
    let leaf = q.leaf(LeafId(leaf_id));
    // Windowed stream leaves have neither indexes nor clustering: their
    // contents are transient.
    let windowed = leaf.window.is_some();
    let mut alts = Vec::new();
    match prop {
        PhysProp::Any => {
            alts.push(AltSpec::leaf(PhysOp::FullScan));
            if !windowed {
                for &col in &indexed_cols(q, leaf_id) {
                    alts.push(AltSpec::leaf(PhysOp::IndexScan { col }));
                }
            }
        }
        PhysProp::Sorted(c) if c.leaf.0 == leaf_id => {
            if !windowed && table_has_index(q, leaf_id, c) {
                alts.push(AltSpec::leaf(PhysOp::IndexScan { col: c }));
            }
            if !windowed && is_clustered_on(q, leaf_id, c) {
                alts.push(AltSpec::leaf(PhysOp::FullScan));
            }
            // Sort enforcer over the unordered scan.
            alts.push(AltSpec::unary(
                PhysOp::Sort { col: c },
                ChildRef::new(expr, PhysProp::Any),
            ));
        }
        PhysProp::Indexed(c) if c.leaf.0 == leaf_id
            && !windowed && table_has_index(q, leaf_id, c) => {
                alts.push(AltSpec::leaf(PhysOp::IndexScan { col: c }));
            }
        // A property referring to another leaf's column is unsatisfiable.
        _ => {}
    }
    alts
}

/// Join splits (rules R1–R3): every connected, edge-joined, ordered split
/// of the leaf set, elaborated with each applicable physical operator.
fn enumerate_join(q: &QuerySpec, g: &JoinGraph, expr: ExprId, prop: PhysProp) -> Vec<AltSpec> {
    let mut alts = Vec::new();
    if let PhysProp::Indexed(_) = prop {
        return alts; // only leaves can satisfy an index requirement
    }
    for l in expr.rel.proper_subsets() {
        let r = expr.rel.minus(l);
        if !g.is_connected(l) || !g.is_connected(r) || !g.are_joined(l, r) {
            continue;
        }
        let (le, re) = (ExprId::rel(l), ExprId::rel(r));
        if prop == PhysProp::Any {
            // Pipelined hash join: build on left, probe on right.
            alts.push(AltSpec::binary(
                PhysOp::HashJoin,
                ChildRef::new(le, PhysProp::Any),
                ChildRef::new(re, PhysProp::Any),
            ));
        }
        for eid in q.edges_across(l, r) {
            let (lc, rc) = q.edge(eid).across(l, r).expect("edge crosses the cut");
            // Sort-merge join produces output sorted on the left merge
            // column: usable for Any or for exactly Sorted(lc).
            if PhysProp::Sorted(lc).satisfies(prop) {
                alts.push(AltSpec::binary(
                    PhysOp::SortMergeJoin { edge: eid },
                    ChildRef::new(le, PhysProp::Sorted(lc)),
                    ChildRef::new(re, PhysProp::Sorted(rc)),
                ));
            }
            // Indexed nested-loop: left child must be a single indexed
            // base leaf (the inner), per Table 1.
            if prop == PhysProp::Any
                && l.is_singleton()
                && table_has_index(q, l.leaf(), lc)
                && q.leaf(lc.leaf).window.is_none()
            {
                alts.push(AltSpec::binary(
                    PhysOp::IndexNLJoin { edge: eid },
                    ChildRef::new(le, PhysProp::Indexed(lc)),
                    ChildRef::new(re, PhysProp::Any),
                ));
            }
        }
    }
    if let PhysProp::Sorted(c) = prop {
        // Sort enforcer over the unordered join result.
        alts.push(AltSpec::unary(
            PhysOp::Sort { col: c },
            ChildRef::new(expr, PhysProp::Any),
        ));
    }
    alts
}

fn indexed_cols(q: &QuerySpec, leaf_id: u32) -> Vec<LeafCol> {
    q.leaf(LeafId(leaf_id))
        .indexed_cols
        .iter()
        .map(|&col| LeafCol {
            leaf: LeafId(leaf_id),
            col,
        })
        .collect()
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
    use crate::relset::RelSet;
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
}
