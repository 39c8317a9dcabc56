//! Parameter → memo index: where a [`reopt_cost::ParamDelta`] can move a
//! local cost.
//!
//! [`CostContext::alt_affected`](reopt_cost::CostContext::alt_affected)
//! is the specification; this is the same predicate inverted once per
//! memo, so an epoch starts from the lists of what changed instead of
//! asking every alternative. A cardinality or selectivity change
//! reaches an alternative through its group's expression alone (every
//! alternative of a group containing the leaf, or covering the edge, is
//! affected), so those two lists hold groups; a scan-cost change
//! reaches only the leaf's access paths and the indexed nested-loop
//! joins probing it, so that list holds alternatives.

use reopt_cost::AffectedSet;
use reopt_expr::{EdgeId, LeafId, PhysOp, QuerySpec};

use crate::memo::{AltId, GroupId, Memo};

/// The inverted `alt_affected` predicate of one memo.
#[derive(Clone, Debug)]
pub struct ParamIndex {
    by_leaf: Vec<Vec<GroupId>>,
    by_edge: Vec<Vec<GroupId>>,
    scan_alts: Vec<Vec<AltId>>,
}

impl ParamIndex {
    /// One pass over the memo's groups, in id (bottom-up) order.
    pub fn build(memo: &Memo, q: &QuerySpec) -> ParamIndex {
        let n_leaves = q.n_leaves() as usize;
        let edge_ends: Vec<_> = q.edges.iter().map(|e| e.rels()).collect();
        let mut idx = ParamIndex {
            by_leaf: vec![Vec::new(); n_leaves],
            by_edge: vec![Vec::new(); edge_ends.len()],
            scan_alts: vec![Vec::new(); n_leaves],
        };
        for (gi, def) in memo.groups.iter().enumerate() {
            let g = GroupId(gi as u32);
            let rel = def.expr.rel;
            for l in rel.iter() {
                idx.by_leaf[l as usize].push(g);
            }
            for (e, ends) in edge_ends.iter().enumerate() {
                if ends.is_subset_of(rel) {
                    idx.by_edge[e].push(g);
                }
            }
            for a in memo.alts_of(g) {
                let alt = memo.alt(a);
                let probed = match alt.op {
                    PhysOp::FullScan | PhysOp::IndexScan { .. } => Some(rel),
                    PhysOp::IndexNLJoin { .. } => alt.left.map(|c| memo.group(c).expr.rel),
                    _ => None,
                };
                if let Some(leaf) = probed.filter(|r| r.is_singleton()) {
                    idx.scan_alts[leaf.leaf() as usize].push(a);
                }
            }
        }
        idx
    }

    /// Groups whose expression contains leaf `l` (a cardinality change
    /// affects every alternative of each).
    pub fn groups_with_leaf(&self, l: LeafId) -> &[GroupId] {
        &self.by_leaf[l.0 as usize]
    }

    /// Groups whose expression holds both ends of edge `e` (a
    /// selectivity change affects every alternative of each).
    pub fn groups_covering_edge(&self, e: EdgeId) -> &[GroupId] {
        &self.by_edge[e.0 as usize]
    }

    /// The alternatives a scan-cost change of leaf `l` affects: its
    /// scans and the indexed nested-loop joins whose inner it is.
    pub fn scan_alts(&self, l: LeafId) -> &[AltId] {
        &self.scan_alts[l.0 as usize]
    }

    /// The groups all of whose alternatives `affected` reaches: the
    /// lists of its cardinalities and selectivities, one after another
    /// (a group two parameters reach comes up twice).
    pub fn affected_groups<'a>(
        &'a self,
        affected: &'a AffectedSet,
    ) -> impl Iterator<Item = GroupId> + 'a {
        let by_leaf = (affected.leaves_card.iter()).flat_map(|&l| self.groups_with_leaf(l));
        let by_edge = (affected.edges.iter()).flat_map(|&e| self.groups_covering_edge(e));
        by_leaf.chain(by_edge).copied()
    }

    /// The single alternatives the scan costs of `affected` reach.
    pub fn affected_scan_alts<'a>(
        &'a self,
        affected: &'a AffectedSet,
    ) -> impl Iterator<Item = AltId> + 'a {
        (affected.leaves_scan.iter())
            .flat_map(|&l| self.scan_alts(l))
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{agg_chain_query, chain_query, cycle_query, fixture_catalog, star_query};
    use reopt_cost::CostContext;
    use reopt_expr::JoinGraph;

    /// The index lists exactly what `alt_affected` accepts, parameter by
    /// parameter. (An id the query does not have reaches neither:
    /// `Factors::apply` reports only the query's own parameters.)
    #[test]
    fn the_index_is_alt_affected_inverted() {
        let c = fixture_catalog();
        for q in [
            chain_query(&c, 2),
            chain_query(&c, 5),
            agg_chain_query(&c, 4),
            cycle_query(&c),
            star_query(&c),
        ] {
            let memo = Memo::build(&q, &JoinGraph::new(&q));
            let ctx = CostContext::new(&c, &q);
            let idx = ParamIndex::build(&memo, &q);
            let sweep = |affected: &AffectedSet| -> Vec<AltId> {
                (0..memo.n_alts() as u32)
                    .map(AltId)
                    .filter(|&a| {
                        ctx.alt_affected(memo.group(memo.alt(a).group).expr, &memo.spec(a), affected)
                    })
                    .collect()
            };
            let alts_of = |groups: &[GroupId]| -> Vec<AltId> {
                groups.iter().flat_map(|&g| memo.alts_of(g)).collect()
            };
            for l in (0..q.n_leaves()).map(LeafId) {
                let card = AffectedSet {
                    leaves_card: vec![l],
                    ..AffectedSet::default()
                };
                assert_eq!(
                    alts_of(idx.groups_with_leaf(l)),
                    sweep(&card),
                    "{} card {l:?}",
                    q.name
                );
                let scan = AffectedSet {
                    leaves_scan: vec![l],
                    ..AffectedSet::default()
                };
                assert_eq!(idx.scan_alts(l), sweep(&scan), "{} scan {l:?}", q.name);
            }
            for e in (0..q.edges.len() as u32).map(EdgeId) {
                let sel = AffectedSet {
                    edges: vec![e],
                    ..AffectedSet::default()
                };
                assert_eq!(
                    alts_of(idx.groups_covering_edge(e)),
                    sweep(&sel),
                    "{} edge {e:?}",
                    q.name
                );
            }
        }
    }
}
