//! Runtime-updatable cost parameters.
//!
//! The paper's re-optimization scenarios (§4, §5.2) perturb exactly three
//! kinds of values at runtime: join selectivity estimates (Fig 5),
//! cardinalities observed from execution (Fig 6), and scan costs (Fig 8).
//! [`ParamDelta`] captures those as multiplicative factors relative to
//! the catalog-derived base estimates; a batch of deltas is the input to
//! `reoptimize`.

use reopt_expr::{EdgeId, LeafId};

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
}

/// The runtime factors of one query's parameters, one per edge and two
/// per leaf, each 1.0 until a delta sets it: the only copy of the
/// parameters an engine's estimates are a function of.
#[derive(Clone, Debug, PartialEq)]
pub struct Factors {
    edge_sel: Vec<f64>,
    leaf_card: Vec<f64>,
    leaf_scan: Vec<f64>,
}

impl Factors {
    /// Every parameter of a query of `leaves` leaves and `edges` join
    /// edges at its base estimate.
    pub fn new(leaves: usize, edges: usize) -> Factors {
        Factors {
            edge_sel: vec![1.0; edges],
            leaf_card: vec![1.0; leaves],
            leaf_scan: vec![1.0; leaves],
        }
    }

    pub fn edge_sel(&self, e: EdgeId) -> f64 {
        self.edge_sel[e.0 as usize]
    }

    pub fn leaf_card(&self, l: LeafId) -> f64 {
        self.leaf_card[l.0 as usize]
    }

    pub fn leaf_scan(&self, l: LeafId) -> f64 {
        self.leaf_scan[l.0 as usize]
    }

    /// Applies a batch, returning the parameters whose value actually
    /// changed (unchanged settings produce no dirty work, mirroring the
    /// delta semantics of §4). An id the query does not have names no
    /// parameter: it changes nothing and is not reported.
    pub fn apply(&mut self, deltas: &[ParamDelta]) -> AffectedSet {
        let mut out = AffectedSet::default();
        for d in deltas {
            let (slot, f) = match *d {
                ParamDelta::EdgeSelectivity(e, f) => (self.edge_sel.get_mut(e.0 as usize), f),
                ParamDelta::LeafCardinality(l, f) => (self.leaf_card.get_mut(l.0 as usize), f),
                ParamDelta::LeafScanCost(l, f) => (self.leaf_scan.get_mut(l.0 as usize), f),
            };
            match slot {
                Some(v) if *v != f => *v = f,
                _ => continue,
            }
            match *d {
                ParamDelta::EdgeSelectivity(e, _) => out.edges.push(e),
                ParamDelta::LeafCardinality(l, _) => out.leaves_card.push(l),
                ParamDelta::LeafScanCost(l, _) => out.leaves_scan.push(l),
            }
        }
        out
    }

    /// Every parameter as the delta that sets it, in (kind, id) order:
    /// the edges' selectivities, the leaves' cardinalities, then their
    /// scan costs.
    pub fn deltas(&self) -> Vec<ParamDelta> {
        let edges = self.edge_sel.iter().enumerate();
        let edges = edges.map(|(e, &f)| ParamDelta::EdgeSelectivity(EdgeId(e as u32), f));
        let cards = self.leaf_card.iter().enumerate();
        let cards = cards.map(|(l, &f)| ParamDelta::LeafCardinality(LeafId(l as u32), f));
        let scans = self.leaf_scan.iter().enumerate();
        let scans = scans.map(|(l, &f)| ParamDelta::LeafScanCost(LeafId(l as u32), f));
        edges.chain(cards).chain(scans).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_one() {
        let f = Factors::new(3, 4);
        assert_eq!(f.edge_sel(EdgeId(3)), 1.0);
        assert_eq!(f.leaf_card(LeafId(1)), 1.0);
        assert_eq!(f.leaf_scan(LeafId(0)), 1.0);
    }

    #[test]
    fn apply_reports_only_real_changes() {
        let mut f = Factors::new(3, 2);
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

    /// Ids one past the query's change nothing and are not reported,
    /// beside a real change in the same batch.
    #[test]
    fn apply_ignores_ids_the_query_does_not_have() {
        let mut f = Factors::new(3, 2);
        let a = f.apply(&[
            ParamDelta::EdgeSelectivity(EdgeId(2), 2.0),
            ParamDelta::LeafCardinality(LeafId(3), 4.0),
            ParamDelta::LeafScanCost(LeafId(3), 4.0),
            ParamDelta::LeafCardinality(LeafId(2), 4.0),
        ]);
        let want = AffectedSet {
            leaves_card: vec![LeafId(2)],
            ..AffectedSet::default()
        };
        assert_eq!(a, want);
        let mut only = Factors::new(3, 2);
        only.apply(&[ParamDelta::LeafCardinality(LeafId(2), 4.0)]);
        assert_eq!(f, only);
    }

    #[test]
    fn factors_are_absolute_not_compounding() {
        let mut f = Factors::new(3, 2);
        f.apply(&[ParamDelta::LeafCardinality(LeafId(2), 4.0)]);
        f.apply(&[ParamDelta::LeafCardinality(LeafId(2), 0.5)]);
        assert_eq!(f.leaf_card(LeafId(2)), 0.5);
    }

    /// `deltas` lists every parameter once, in (kind, id) order, and
    /// applying it to base factors gives the factors back.
    #[test]
    fn deltas_list_every_parameter_in_kind_and_id_order() {
        let mut f = Factors::new(2, 1);
        f.apply(&[
            ParamDelta::LeafScanCost(LeafId(0), 3.0),
            ParamDelta::EdgeSelectivity(EdgeId(0), 0.5),
        ]);
        let want = [
            ParamDelta::EdgeSelectivity(EdgeId(0), 0.5),
            ParamDelta::LeafCardinality(LeafId(0), 1.0),
            ParamDelta::LeafCardinality(LeafId(1), 1.0),
            ParamDelta::LeafScanCost(LeafId(0), 3.0),
            ParamDelta::LeafScanCost(LeafId(1), 1.0),
        ];
        assert_eq!(f.deltas(), want);
        let mut back = Factors::new(2, 1);
        back.apply(&want);
        assert_eq!(back, f);
    }
}
