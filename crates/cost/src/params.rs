//! Runtime-updatable cost parameters.
//!
//! The paper's re-optimization scenarios (§4, §5.2) perturb exactly three
//! kinds of values at runtime: join selectivity estimates (Fig 5),
//! cardinalities observed from execution (Fig 6), and scan costs (Fig 8).
//! [`ParamDelta`] captures those as multiplicative factors relative to
//! the catalog-derived base estimates; a batch of deltas is the input to
//! `reoptimize`.

use reopt_common::FxHashMap;
use reopt_expr::{EdgeId, LeafId, RelSet};

/// Unit costs combining "CPU, I/O, bandwidth and energy into a single
/// cost metric" (paper §2.2). Values are per tuple unless noted.
#[derive(Clone, Debug, PartialEq)]
pub struct UnitCosts {
    /// Sequential read of one tuple (local scan).
    pub seq_scan: f64,
    /// Random index probe of one tuple.
    pub index_probe: f64,
    /// Fixed index lookup overhead per access path use.
    pub index_base: f64,
    /// Evaluating one predicate on one tuple.
    pub predicate: f64,
    /// Inserting one tuple into a hash table (build side).
    pub hash_build: f64,
    /// Probing the hash table with one tuple.
    pub hash_probe: f64,
    /// Advancing one tuple through a merge join.
    pub merge: f64,
    /// Per-tuple-per-comparison sort weight (multiplied by log2 n).
    pub sort: f64,
    /// Aggregating one input tuple (hash aggregation).
    pub agg_hash: f64,
    /// Aggregating one input tuple when the input is pre-sorted.
    pub agg_sorted: f64,
    /// Materializing one output tuple.
    pub output: f64,
}

impl Default for UnitCosts {
    fn default() -> UnitCosts {
        UnitCosts {
            seq_scan: 1.0,
            index_probe: 4.0,
            index_base: 50.0,
            predicate: 0.2,
            hash_build: 2.0,
            hash_probe: 1.0,
            merge: 0.8,
            sort: 0.35,
            agg_hash: 1.5,
            agg_sorted: 0.6,
            output: 0.5,
        }
    }
}

/// One runtime update to a cost parameter. All factors are multiplicative
/// *absolute* settings relative to the base estimate (setting the same
/// factor twice is idempotent, matching how observed statistics replace —
/// not compound — earlier ones).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ParamDelta {
    /// Scale the estimated selectivity of a join edge (Fig 5: "change to
    /// join selectivity estimate").
    EdgeSelectivity(EdgeId, f64),
    /// Scale the estimated output cardinality of a leaf, after filters
    /// (Fig 6: observed cardinalities from execution).
    LeafCardinality(LeafId, f64),
    /// Scale the per-tuple scan cost of a leaf (Fig 8: "Orders has
    /// updated scan cost").
    LeafScanCost(LeafId, f64),
}

/// Which parts of the query a batch of deltas touched; the optimizer uses
/// this to seed its dirty sets.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AffectedSet {
    pub leaves_card: Vec<LeafId>,
    pub edges: Vec<EdgeId>,
    pub leaves_scan: Vec<LeafId>,
}

impl AffectedSet {
    pub fn is_empty(&self) -> bool {
        self.leaves_card.is_empty() && self.edges.is_empty() && self.leaves_scan.is_empty()
    }

    /// Leaf-set whose row estimates changed (cardinality factors and edge
    /// selectivities change `rows(rel)` for any rel containing them).
    pub fn rows_dirty_rels(&self, edge_rels: impl Fn(EdgeId) -> RelSet) -> Vec<RelSet> {
        let mut out: Vec<RelSet> = self
            .leaves_card
            .iter()
            .map(|l| RelSet::singleton(l.0))
            .collect();
        out.extend(self.edges.iter().map(|&e| edge_rels(e)));
        out
    }
}

/// The mutable factor store.
#[derive(Clone, Debug, Default)]
pub struct Factors {
    pub edge_sel: FxHashMap<EdgeId, f64>,
    pub leaf_card: FxHashMap<LeafId, f64>,
    pub leaf_scan: FxHashMap<LeafId, f64>,
}

impl Factors {
    pub fn edge_sel(&self, e: EdgeId) -> f64 {
        self.edge_sel.get(&e).copied().unwrap_or(1.0)
    }

    pub fn leaf_card(&self, l: LeafId) -> f64 {
        self.leaf_card.get(&l).copied().unwrap_or(1.0)
    }

    pub fn leaf_scan(&self, l: LeafId) -> f64 {
        self.leaf_scan.get(&l).copied().unwrap_or(1.0)
    }

    /// Applies a batch, returning the parameters whose value actually
    /// changed (unchanged settings produce no dirty work, mirroring the
    /// delta semantics of §4).
    pub fn apply(&mut self, deltas: &[ParamDelta]) -> AffectedSet {
        let mut out = AffectedSet::default();
        for d in deltas {
            match *d {
                ParamDelta::EdgeSelectivity(e, f) => {
                    if self.edge_sel(e) != f {
                        self.edge_sel.insert(e, f);
                        out.edges.push(e);
                    }
                }
                ParamDelta::LeafCardinality(l, f) => {
                    if self.leaf_card(l) != f {
                        self.leaf_card.insert(l, f);
                        out.leaves_card.push(l);
                    }
                }
                ParamDelta::LeafScanCost(l, f) => {
                    if self.leaf_scan(l) != f {
                        self.leaf_scan.insert(l, f);
                        out.leaves_scan.push(l);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_one() {
        let f = Factors::default();
        assert_eq!(f.edge_sel(EdgeId(3)), 1.0);
        assert_eq!(f.leaf_card(LeafId(1)), 1.0);
        assert_eq!(f.leaf_scan(LeafId(0)), 1.0);
    }

    #[test]
    fn apply_reports_only_real_changes() {
        let mut f = Factors::default();
        let a = f.apply(&[
            ParamDelta::EdgeSelectivity(EdgeId(0), 2.0),
            ParamDelta::LeafScanCost(LeafId(1), 1.0), // no-op: already 1.0
        ]);
        assert_eq!(a.edges, vec![EdgeId(0)]);
        assert!(a.leaves_scan.is_empty());
        // Re-applying the same factor is a no-op.
        let b = f.apply(&[ParamDelta::EdgeSelectivity(EdgeId(0), 2.0)]);
        assert!(b.is_empty());
        // Changing it back is a change.
        let c = f.apply(&[ParamDelta::EdgeSelectivity(EdgeId(0), 1.0)]);
        assert_eq!(c.edges, vec![EdgeId(0)]);
    }

    #[test]
    fn factors_are_absolute_not_compounding() {
        let mut f = Factors::default();
        f.apply(&[ParamDelta::LeafCardinality(LeafId(2), 4.0)]);
        f.apply(&[ParamDelta::LeafCardinality(LeafId(2), 0.5)]);
        assert_eq!(f.leaf_card(LeafId(2)), 0.5);
    }
}
