//! The streaming adaptation loop.

use std::time::{Duration, Instant};

use reopt_baselines::optimize_volcano;
use reopt_catalog::Catalog;
use reopt_core::{IncrementalOptimizer, PruningConfig, RunMetrics};
use reopt_cost::{CostContext, ParamDelta};
use reopt_exec::{observed_deltas, ExecStats, StreamExecutor, StreamTuple};
use reopt_expr::{JoinGraph, PlanNode, QuerySpec};

/// Which re-optimizer runs at each split point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReoptMode {
    /// The paper's contribution: incremental re-optimization.
    Incremental,
    /// Tukwila-style: a full Volcano optimization from scratch.
    FromScratch,
    /// No adaptation: keep the initial plan (the static baselines of
    /// Fig 10).
    Never,
}

/// How observed statistics are folded in (Fig 10's AQP-Cumulative vs
/// AQP-NonCumulative).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StatsMode {
    /// Blend each observation into the running estimate.
    Cumulative,
    /// Jump straight to the latest slice's observation.
    NonCumulative,
}

impl StatsMode {
    fn damping(self) -> f64 {
        match self {
            StatsMode::Cumulative => 0.5,
            StatsMode::NonCumulative => 1.0,
        }
    }
}

/// Driver configuration.
#[derive(Clone, Copy, Debug)]
pub struct AqpConfig {
    pub mode: ReoptMode,
    pub stats: StatsMode,
    pub pruning: PruningConfig,
}

impl Default for AqpConfig {
    fn default() -> AqpConfig {
        AqpConfig {
            mode: ReoptMode::Incremental,
            stats: StatsMode::Cumulative,
            pruning: PruningConfig::default(),
        }
    }
}

/// Per-slice measurements (one row of Fig 9/10).
#[derive(Clone, Debug)]
pub struct SliceReport {
    pub slice: usize,
    /// Ingest and execute: the windows are regrouped as tuples enter
    /// and leave them, so that work is timed with the scans it serves.
    pub exec_time: Duration,
    pub reopt_time: Duration,
    pub out_rows: usize,
    pub plan_changed: bool,
    pub migrated_rows: usize,
    /// The parameters fed back at the split point: only estimates more
    /// than [`reopt_exec::feedback::Q`]× off an observation.
    pub deltas: Vec<ParamDelta>,
    pub run: RunMetrics,
    pub window_rows: usize,
    /// What each operator of the executed plan observed.
    pub stats: ExecStats,
}

/// The adaptive execution loop for one continuous query.
pub struct AqpDriver {
    q: QuerySpec,
    graph: JoinGraph,
    cfg: AqpConfig,
    exec: StreamExecutor,
    optimizer: IncrementalOptimizer,
    /// Parallel context for the from-scratch comparator (kept in sync
    /// with the same deltas).
    scratch_ctx: CostContext,
    plan: PlanNode,
    slice_no: usize,
}

impl AqpDriver {
    /// Starts with a cold optimization on whatever statistics the
    /// catalog carries ("the optimizer starts with zero statistical
    /// information on the data" is modelled by generic defaults).
    pub fn new(catalog: &Catalog, q: QuerySpec, cfg: AqpConfig) -> AqpDriver {
        let graph = JoinGraph::new(&q);
        let mut optimizer = IncrementalOptimizer::new(catalog, q.clone(), cfg.pruning);
        let initial = optimizer.optimize();
        let scratch_ctx = CostContext::new(catalog, &q);
        AqpDriver {
            exec: StreamExecutor::new(&q),
            graph,
            cfg,
            optimizer,
            scratch_ctx,
            plan: initial.plan,
            q,
            slice_no: 0,
        }
    }

    /// Installs an explicit plan and disables adaptation (static
    /// baseline runs).
    pub fn pin_plan(&mut self, plan: PlanNode) {
        self.plan = plan;
        self.cfg.mode = ReoptMode::Never;
    }

    pub fn current_plan(&self) -> &PlanNode {
        &self.plan
    }

    pub fn query(&self) -> &QuerySpec {
        &self.q
    }

    /// Current cardinality factor for one leaf (diagnostics).
    pub fn optimizer_ctx_factors(&self, leaf: reopt_expr::LeafId) -> f64 {
        self.optimizer.cost_context().factors().leaf_card(leaf)
    }

    /// Ingests and executes one slice, then re-optimizes at the split
    /// point (unless the plan is pinned).
    pub fn run_slice(&mut self, tuples: &[StreamTuple]) -> SliceReport {
        self.slice_no += 1;
        let t0 = Instant::now();
        self.exec.ingest(tuples);
        let result = self.exec.execute(&self.plan);
        let exec_time = t0.elapsed();
        let mut run = RunMetrics::default();
        let mut reopt_time = Duration::ZERO;
        let mut plan_changed = false;
        let mut deltas = Vec::new();
        if self.cfg.mode != ReoptMode::Never {
            deltas = observed_deltas(
                &self.q,
                self.optimizer.cost_context(),
                &result.stats,
                self.cfg.stats.damping(),
            );
            let t1 = Instant::now();
            let new_plan = match self.cfg.mode {
                ReoptMode::Incremental => {
                    let out = self.optimizer.reoptimize(&deltas);
                    run = out.run;
                    out.plan
                }
                ReoptMode::FromScratch => {
                    self.scratch_ctx.apply(&deltas);
                    optimize_volcano(&self.q, &self.graph, &mut self.scratch_ctx).plan
                }
                ReoptMode::Never => unreachable!(),
            };
            reopt_time = t1.elapsed();
            plan_changed = new_plan.fingerprint() != self.plan.fingerprint();
            if plan_changed {
                self.plan = new_plan;
            }
        }
        SliceReport {
            slice: self.slice_no,
            exec_time,
            reopt_time,
            out_rows: result.out_rows,
            plan_changed,
            migrated_rows: result.migrated_rows,
            deltas,
            run,
            window_rows: result.window_sizes.iter().sum(),
            stats: result.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reopt_workloads::{seg_toll_query, LinearRoadGen};

    fn setup() -> (Catalog, QuerySpec, LinearRoadGen) {
        let mut c = Catalog::new();
        let mut gen = LinearRoadGen::new(11);
        gen.rate = 30.0;
        gen.n_cars = 400;
        gen.n_segments = 20;
        gen.register(&mut c);
        let q = seg_toll_query(&c);
        (c, q, gen)
    }

    #[test]
    fn adaptive_loop_runs_and_adapts() {
        // The 300s/30s time windows fill at different speeds, so the
        // relative leaf cardinalities — and with them the best join
        // order — evolve as the stream warms up.
        let (c, q, mut gen) = setup();
        let mut driver = AqpDriver::new(&c, q, AqpConfig::default());
        let mut any_change = false;
        let mut any_work = false;
        for i in 0..14 {
            let tuples = gen.slice(i as f64 * 15.0, 15.0);
            let r = driver.run_slice(&tuples);
            any_change |= r.plan_changed;
            any_work |= r.run.touched_groups > 0;
            assert!(r.window_rows > 0);
        }
        assert!(any_work, "feedback never produced optimizer work");
        assert!(any_change, "no plan change across drifting slices");
    }

    #[test]
    fn an_empty_first_slice_returns_a_report() {
        // Nothing has arrived yet: every window is empty, every operator
        // observes zero rows, and the loop still closes.
        let (c, q, _gen) = setup();
        let mut driver = AqpDriver::new(&c, q, AqpConfig::default());
        let r = driver.run_slice(&[]);
        assert_eq!((r.slice, r.out_rows, r.window_rows), (1, 0, 0));
        assert_eq!(r.migrated_rows, 0);
    }

    #[test]
    fn incremental_work_decays_when_statistics_stabilize() {
        // Run past the largest (300s) window so the stream becomes
        // stationary, then compare early vs late optimizer work.
        let (c, q, mut gen) = setup();
        gen.burstiness = 0.0;
        gen.hotspot_speed = 0.0;
        gen.rate = 30.0;
        let mut driver = AqpDriver::new(&c, q, AqpConfig::default());
        let mut touched = Vec::new();
        for i in 0..15 {
            let tuples = gen.slice(i as f64 * 30.0, 30.0);
            let r = driver.run_slice(&tuples);
            touched.push(r.run.touched_alts);
        }
        // Fig 9's shape: warm-up slices recompute much more than the
        // saturated tail.
        let early: u64 = touched[..4].iter().sum();
        let late: u64 = touched[11..].iter().sum();
        assert!(
            late < early,
            "incremental work did not decay: {touched:?}"
        );
    }

    #[test]
    fn a_stationary_stream_feeds_back_nothing_once_the_windows_fill() {
        // The stream above, for 30 slices: once the largest (300 s)
        // window has filled, every observation is within `Q` of its
        // estimate, so no parameter is fed back and no alternative is
        // re-costed — Fig 9's "drops to nearly zero", at zero.
        let (c, q, mut gen) = setup();
        gen.burstiness = 0.0;
        gen.hotspot_speed = 0.0;
        let mut driver = AqpDriver::new(&c, q, AqpConfig::default());
        let work: Vec<(usize, u64)> = (0..30)
            .map(|i| {
                let r = driver.run_slice(&gen.slice(i as f64 * 30.0, 30.0));
                (r.deltas.len(), r.run.touched_alts)
            })
            .collect();
        assert!(work[..10].iter().any(|&(d, t)| d > 0 && t > 0), "{work:?}");
        assert!(work[10..].iter().all(|&w| w == (0, 0)), "{work:?}");
    }

    #[test]
    fn pinned_plan_never_changes() {
        let (c, q, mut gen) = setup();
        let mut driver = AqpDriver::new(&c, q, AqpConfig::default());
        let plan = driver.current_plan().clone();
        driver.pin_plan(plan.clone());
        for i in 0..4 {
            let r = driver.run_slice(&gen.slice(i as f64 * 5.0, 5.0));
            assert!(!r.plan_changed);
            assert_eq!(r.reopt_time, Duration::ZERO);
        }
        assert_eq!(driver.current_plan().fingerprint(), plan.fingerprint());
    }

    #[test]
    fn from_scratch_mode_matches_incremental_plan_quality() {
        let (c, q, mut gen) = setup();
        let mut inc = AqpDriver::new(&c, q.clone(), AqpConfig::default());
        let mut scratch = AqpDriver::new(
            &c,
            q,
            AqpConfig {
                mode: ReoptMode::FromScratch,
                ..Default::default()
            },
        );
        for i in 0..6 {
            let tuples = gen.slice(i as f64 * 5.0, 5.0);
            let a = inc.run_slice(&tuples);
            let b = scratch.run_slice(&tuples);
            // Same stream, same statistics pipeline: both report the
            // same result cardinality.
            assert_eq!(a.out_rows, b.out_rows, "slice {i}");
        }
    }
}
