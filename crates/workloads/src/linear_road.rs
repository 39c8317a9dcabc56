//! Linear Road stream workload \[3\] and the modified `SegTollS` query
//! (paper Table 2).
//!
//! The generator synthesizes `CarLocStr(carid, expway, dir, seg, xpos)`
//! position reports "whose characteristics frequently change" (§5.4):
//! a congestion hotspot drifts across segments over time and the report
//! rate is bursty, so per-window statistics differ slice to slice and
//! different plans win on different slices.
//!
//! Reproduction note: the paper's `SegTollS` includes the range
//! predicate `r2_seg < r3_seg < r2_seg + 10`; this engine supports
//! equi-join edges plus leaf predicates, so the query here uses the
//! equi-join skeleton of the same 5-way self-join. The adaptive
//! behaviour under study — per-slice statistics drift driving plan
//! changes — is unaffected.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use reopt_catalog::{Catalog, CmpOp, ColId, Datum, TableBuilder, TableStats};
use reopt_exec::StreamTuple;
use reopt_expr::{AggFunc, AggSpec, LeafCol, QuerySpec, WindowSpec};

/// Stream generator configuration.
#[derive(Clone, Debug)]
pub struct LinearRoadGen {
    pub seed: u64,
    pub n_expressways: i64,
    pub n_segments: i64,
    pub n_cars: i64,
    /// Mean reports per second.
    pub rate: f64,
    /// Congestion drift speed (segments per second).
    pub hotspot_speed: f64,
    /// Burstiness: rate multiplier amplitude (0 = steady).
    pub burstiness: f64,
    rng: StdRng,
}

impl LinearRoadGen {
    pub fn new(seed: u64) -> LinearRoadGen {
        LinearRoadGen {
            seed,
            n_expressways: 4,
            n_segments: 100,
            n_cars: 500,
            rate: 200.0,
            hotspot_speed: 2.0,
            burstiness: 0.8,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Registers the `CarLocStr` stream in a catalog. `row_count` is the
    /// arrival rate (tuples/second), the convention the cost model uses
    /// for windowed leaves.
    pub fn register(&self, catalog: &mut Catalog) {
        let columns = |ndv: f64| reopt_catalog::ColumnStats::uniform_key(ndv);
        catalog.add_table(
            |id| {
                TableBuilder::new("CarLocStr")
                    .int_col("carid")
                    .int_col("expway")
                    .int_col("dir")
                    .int_col("seg")
                    .int_col("xpos")
                    .build(id)
            },
            TableStats {
                row_count: self.rate,
                columns: vec![
                    columns(self.n_cars as f64),
                    columns(self.n_expressways as f64),
                    columns(2.0),
                    columns(self.n_segments as f64),
                    columns(1000.0),
                ],
            },
        );
    }

    /// Generates the tuples arriving during `[start, start + dur)`.
    ///
    /// Drift comes from three coupled effects, all present in the Linear
    /// Road scenario: a bursty report rate, a congestion hotspot moving
    /// across segments, and cars entering/leaving the expressway (the
    /// *active pool* of distinct cars swells and shrinks with traffic,
    /// and its membership rotates over time).
    pub fn slice(&mut self, start: f64, dur: f64) -> Vec<StreamTuple> {
        // Bursty rate: a slow sinusoid.
        let phase = (start / 17.0).sin();
        let mult = (1.0 + self.burstiness * phase).max(0.1);
        let n = ((self.rate * dur * mult) as usize).max(1);
        // The congestion hotspot drifts across segments; most reports
        // cluster near it (skewed seg distribution whose mode moves).
        let hotspot =
            ((start * self.hotspot_speed) as i64).rem_euclid(self.n_segments);
        // Active car pool: size tracks traffic volume, membership
        // rotates (cars enter at one end of the id space and leave at
        // the other).
        let pool = (((self.n_cars as f64 / 4.0) * (1.0 + self.burstiness * phase)) as i64)
            .clamp(5, self.n_cars);
        let pool_start = (start * self.n_cars as f64 / 240.0) as i64;
        (0..n)
            .map(|i| {
                let ts = start + dur * (i as f64 / n as f64);
                let car = (pool_start + self.rng.gen_range(0..pool)).rem_euclid(self.n_cars);
                let expway = self.rng.gen_range(0..self.n_expressways);
                let dir = if self.rng.gen_bool(0.7) { 0 } else { 1 };
                let near_hotspot = self.rng.gen_bool(0.6);
                let seg = if near_hotspot {
                    (hotspot + self.rng.gen_range(-3i64..=3)).rem_euclid(self.n_segments)
                } else {
                    self.rng.gen_range(0..self.n_segments)
                };
                StreamTuple {
                    ts,
                    row: vec![
                        Datum::Int(car),
                        Datum::Int(expway),
                        Datum::Int(dir),
                        Datum::Int(seg),
                        Datum::Int(seg * 5280 + self.rng.gen_range(0..5280)),
                    ],
                }
            })
            .collect()
    }
}

/// The modified `SegTollS` query (Table 2): a 5-way self-join of
/// `CarLocStr` with per-alias windows and a distinct-count aggregate.
///
/// - r1: `[size 300 time]`
/// - r2: `[size 1 tuple partition by expway, dir, seg]`
/// - r3: `[size 1 tuple partition by carid]`
/// - r4: `[size 30 time]`
/// - r5: `[size 4 tuple partition by carid]`
pub fn seg_toll_query(c: &Catalog) -> QuerySpec {
    let t = c
        .table_by_name("CarLocStr")
        .expect("register the stream first");
    let col = |name: &str| t.col(name).unwrap();
    let mut b = QuerySpec::builder("SegTollS");
    let r1 = b.leaf_aliased(c, "CarLocStr", "r1");
    let r2 = b.leaf_aliased(c, "CarLocStr", "r2");
    let r3 = b.leaf_aliased(c, "CarLocStr", "r3");
    let r4 = b.leaf_aliased(c, "CarLocStr", "r4");
    let r5 = b.leaf_aliased(c, "CarLocStr", "r5");
    b.window(r1, WindowSpec::Time { seconds: 300.0 });
    b.window(
        r2,
        WindowSpec::PartitionedTuples {
            cols: vec![col("expway"), col("dir"), col("seg")],
            count: 1,
        },
    );
    b.window(
        r3,
        WindowSpec::PartitionedTuples {
            cols: vec![col("carid")],
            count: 1,
        },
    );
    b.window(r4, WindowSpec::Time { seconds: 30.0 });
    b.window(
        r5,
        WindowSpec::PartitionedTuples {
            cols: vec![col("carid")],
            count: 4,
        },
    );
    // Equi-join skeleton of the paper's predicate set.
    b.join(c, r2, "expway", r3, "expway");
    b.join(c, r2, "seg", r3, "seg");
    b.join(c, r3, "carid", r4, "carid");
    b.join(c, r3, "carid", r5, "carid");
    b.join(c, r1, "expway", r2, "expway");
    b.join(c, r1, "dir", r2, "dir");
    b.join(c, r1, "seg", r2, "seg");
    b.filter(c, r2, "dir", CmpOp::Eq, Datum::Int(0));
    b.filter(c, r3, "dir", CmpOp::Eq, Datum::Int(0));
    b.aggregate(AggSpec {
        group_by: vec![
            LeafCol {
                leaf: reopt_expr::LeafId(0),
                col: ColId(1), // r1.expway
            },
            LeafCol {
                leaf: reopt_expr::LeafId(0),
                col: ColId(2), // r1.dir
            },
            LeafCol {
                leaf: reopt_expr::LeafId(0),
                col: ColId(3), // r1.seg
            },
        ],
        aggs: vec![AggFunc::CountDistinct(LeafCol {
            leaf: reopt_expr::LeafId(4),
            col: ColId(4), // r5.xpos
        })],
    });
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use reopt_expr::JoinGraph;

    fn setup() -> (Catalog, LinearRoadGen) {
        let mut c = Catalog::new();
        let gen = LinearRoadGen::new(3);
        gen.register(&mut c);
        (c, gen)
    }

    #[test]
    fn generator_respects_rate_and_burstiness() {
        let (_c, mut gen) = setup();
        let sizes: Vec<usize> = (0..20)
            .map(|i| gen.slice(i as f64 * 5.0, 5.0).len())
            .collect();
        let min = *sizes.iter().min().unwrap() as f64;
        let max = *sizes.iter().max().unwrap() as f64;
        assert!(max / min > 1.5, "no burstiness: {sizes:?}");
        let total: usize = sizes.iter().sum();
        let expected = 200.0 * 100.0;
        assert!((total as f64) > expected * 0.3 && (total as f64) < expected * 3.0);
    }

    #[test]
    fn hotspot_drifts_over_time() {
        let (_c, mut gen) = setup();
        let mode = |tuples: &[StreamTuple]| {
            let mut counts = std::collections::HashMap::new();
            for t in tuples {
                *counts.entry(t.row[3].as_int()).or_insert(0usize) += 1;
            }
            counts.into_iter().max_by_key(|(_, c)| *c).unwrap().0
        };
        let early = gen.slice(0.0, 5.0);
        let late = gen.slice(30.0, 5.0);
        assert_ne!(mode(&early), mode(&late));
    }

    #[test]
    fn seg_toll_query_is_connected_and_windowed() {
        let (c, _gen) = setup();
        let q = seg_toll_query(&c);
        assert_eq!(q.n_leaves(), 5);
        let g = JoinGraph::new(&q);
        assert!(g.is_connected(q.all_rels()));
        assert!(q.leaves.iter().all(|l| l.window.is_some()));
        assert!(q.aggregate.is_some());
    }

    #[test]
    fn seg_toll_is_optimizable_and_executable() {
        let (c, mut gen) = setup();
        let q = seg_toll_query(&c);
        let g = JoinGraph::new(&q);
        let mut ctx = reopt_cost::CostContext::new(&c, &q);
        let plan = reopt_baselines::optimize_system_r(&q, &g, &mut ctx).plan;
        let mut se = reopt_exec::StreamExecutor::new(&q);
        se.ingest(&gen.slice(0.0, 10.0));
        let r = se.execute(&plan);
        // Results exist (cars reported in dir 0 joined across windows).
        assert!(r.window_sizes.iter().all(|&s| s > 0));
        let _ = r.out_rows;
    }
}
