//! Seeded input generation: the parameter walks of the `param_*` and
//! `durable_q5` workloads. The same seed gives the same inputs; the
//! program under test only ever sees the generated batches.

use crate::layers::{EdgeId, LeafId, ParamDelta};

/// The paper's ratio sweep (Figs 5 and 8).
pub const RATIOS: [f64; 7] = [0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0];

/// SplitMix64 — the benchmark's own generator, so its inputs do not
/// move when the repository's `rand` stand-in does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at
    /// the sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[derive(Clone, Copy)]
enum Kind {
    ScanCost,
    EdgeSel,
    LeafCard,
}

/// A random walk over a query's parameters that remembers the factor
/// each one holds, so every drawn delta is a real change (a repeated
/// factor would be an empty epoch) and two deltas of one batch never
/// hit the same parameter.
pub struct ParamWalk {
    rng: Rng,
    scan: Vec<f64>,
    card: Vec<f64>,
    edge: Vec<f64>,
}

impl ParamWalk {
    pub fn new(seed: u64, n_leaves: usize, n_edges: usize) -> ParamWalk {
        ParamWalk {
            rng: Rng::new(seed),
            scan: vec![1.0; n_leaves],
            card: vec![1.0; n_leaves],
            edge: vec![1.0; n_edges],
        }
    }

    fn draw(&mut self, kind: Kind, taken: &[usize]) -> (usize, ParamDelta) {
        let slots = match kind {
            Kind::ScanCost => &mut self.scan,
            Kind::EdgeSel => &mut self.edge,
            Kind::LeafCard => &mut self.card,
        };
        let id = loop {
            let id = self.rng.below(slots.len());
            if !taken.contains(&id) {
                break id;
            }
        };
        let factor = loop {
            let f = RATIOS[self.rng.below(RATIOS.len())];
            if f != slots[id] {
                break f;
            }
        };
        slots[id] = factor;
        let delta = match kind {
            Kind::ScanCost => ParamDelta::LeafScanCost(LeafId(id as u32), factor),
            Kind::EdgeSel => ParamDelta::EdgeSelectivity(EdgeId(id as u32), factor),
            Kind::LeafCard => ParamDelta::LeafCardinality(LeafId(id as u32), factor),
        };
        (id, delta)
    }

    /// One parameter per epoch: 70% scan cost, 15% join selectivity,
    /// 15% leaf cardinality.
    pub fn points(mut self, epochs: usize) -> Vec<Vec<ParamDelta>> {
        (0..epochs)
            .map(|_| {
                let kind = match self.rng.unit() {
                    u if u < 0.70 => Kind::ScanCost,
                    u if u < 0.85 => Kind::EdgeSel,
                    _ => Kind::LeafCard,
                };
                vec![self.draw(kind, &[]).1]
            })
            .collect()
    }

    /// Four parameters per epoch, shaped like executor feedback: two
    /// leaf cardinalities and two join selectivities.
    pub fn bursts(mut self, epochs: usize) -> Vec<Vec<ParamDelta>> {
        (0..epochs)
            .map(|_| {
                let (l0, a) = self.draw(Kind::LeafCard, &[]);
                let (_, b) = self.draw(Kind::LeafCard, &[l0]);
                let (e0, c) = self.draw(Kind::EdgeSel, &[]);
                let (_, d) = self.draw(Kind::EdgeSel, &[e0]);
                vec![a, b, c, d]
            })
            .collect()
    }
}

/// One batch that puts every parameter back to its base estimate.
pub fn reset(n_leaves: usize, n_edges: usize) -> Vec<ParamDelta> {
    let leaves = (0..n_leaves as u32).map(LeafId);
    leaves
        .clone()
        .map(|l| ParamDelta::LeafScanCost(l, 1.0))
        .chain(leaves.map(|l| ParamDelta::LeafCardinality(l, 1.0)))
        .chain((0..n_edges as u32).map(|e| ParamDelta::EdgeSelectivity(EdgeId(e), 1.0)))
        .collect()
}

/// The durability tail's epochs: the same for every seed, one leaf
/// cardinality each, going round the leaves between 3 and 1/3 so that
/// every batch is a change from a [`reset`] state.
pub fn tail(n_leaves: usize, epochs: usize) -> Vec<Vec<ParamDelta>> {
    (0..epochs)
        .map(|i| {
            let factor = if (i / n_leaves).is_multiple_of(2) {
                3.0
            } else {
                1.0 / 3.0
            };
            vec![ParamDelta::LeafCardinality(
                LeafId((i % n_leaves) as u32),
                factor,
            )]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_always_changes_the_leaf_it_hits() {
        let mut card = [1.0; 5];
        for batch in tail(5, 23) {
            let [ParamDelta::LeafCardinality(l, f)] = batch[..] else {
                panic!("one cardinality per tail epoch");
            };
            assert_ne!(card[l.0 as usize], f);
            card[l.0 as usize] = f;
        }
        assert_eq!(reset(5, 4).len(), 14);
    }

    #[test]
    fn same_seed_same_walk_other_seed_other_walk() {
        let a = ParamWalk::new(7, 6, 6).points(200);
        let b = ParamWalk::new(7, 6, 6).points(200);
        let c = ParamWalk::new(8, 6, 6).points(200);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn every_point_is_a_change_and_the_mix_holds() {
        let mut scan = [1.0; 6];
        let mut n_scan = 0;
        let walk = ParamWalk::new(1, 6, 6).points(4000);
        for batch in &walk {
            assert_eq!(batch.len(), 1);
            if let ParamDelta::LeafScanCost(l, f) = batch[0] {
                assert_ne!(scan[l.0 as usize], f, "repeated factor");
                scan[l.0 as usize] = f;
                n_scan += 1;
            }
        }
        let share = n_scan as f64 / walk.len() as f64;
        assert!((share - 0.70).abs() < 0.03, "scan share {share}");
    }

    #[test]
    fn bursts_hit_four_distinct_parameters() {
        for batch in ParamWalk::new(3, 8, 7).bursts(500) {
            let key = |d: &ParamDelta| match *d {
                ParamDelta::LeafCardinality(l, _) => (0, l.0),
                ParamDelta::EdgeSelectivity(e, _) => (1, e.0),
                ParamDelta::LeafScanCost(l, _) => (2, l.0),
            };
            let mut keys: Vec<_> = batch.iter().map(key).collect();
            keys.dedup();
            assert_eq!(keys.len(), 4);
            assert_eq!(keys.iter().filter(|k| k.0 == 0).count(), 2);
            assert_eq!(keys.iter().filter(|k| k.0 == 1).count(), 2);
        }
    }

    #[test]
    fn unit_stays_in_range() {
        let mut r = Rng::new(42);
        for _ in 0..10_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
