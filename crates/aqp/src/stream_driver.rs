//! The streaming adaptation loop.

use std::time::{Duration, Instant};

use reopt_catalog::Catalog;
use reopt_core::{IncrementalOptimizer, Outcome, PruningConfig, Reoptimizer};
use reopt_cost::ParamDelta;
use reopt_exec::{observed_deltas, ExecStats, StreamExecutor, StreamTuple};
use reopt_expr::{PlanNode, QuerySpec};

/// How observed statistics are folded in (Fig 10's AQP-Cumulative vs
/// AQP-NonCumulative).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StatsMode {
    /// Blend each observation into the running estimate.
    #[default]
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

/// Driver configuration. The re-optimizer is not configured here: it is
/// the driver's engine type.
#[derive(Clone, Copy, Debug, Default)]
pub struct AqpConfig {
    pub stats: StatsMode,
}

/// Per-slice measurements (one row of Fig 9/10). `O` is the engine's
/// report type.
#[derive(Clone, Debug)]
pub struct SliceReport<O = Outcome> {
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
    /// The engine's report of the split point's re-optimization; `None`
    /// while the plan is pinned.
    pub outcome: Option<O>,
    pub window_rows: usize,
    /// What each operator of the executed plan observed.
    pub stats: ExecStats,
}

/// The adaptive execution loop for one continuous query, re-optimized
/// by the engine `R`.
pub struct AqpDriver<R: Reoptimizer = IncrementalOptimizer> {
    engine: R,
    cfg: AqpConfig,
    exec: StreamExecutor,
    plan: PlanNode,
    /// Set by [`AqpDriver::pin_plan`]: no feedback, no re-optimization.
    pinned: bool,
    slice_no: usize,
}

impl AqpDriver<IncrementalOptimizer> {
    /// The hand-rolled engine under the default pruning. Starts with a
    /// cold optimization on whatever statistics the catalog carries ("the
    /// optimizer starts with zero statistical information on the data"
    /// is modelled by generic defaults).
    pub fn new(catalog: &Catalog, q: QuerySpec, cfg: AqpConfig) -> AqpDriver {
        let engine = IncrementalOptimizer::new(catalog, q, PruningConfig::default());
        AqpDriver::with_engine(engine, cfg)
    }
}

impl<R: Reoptimizer> AqpDriver<R> {
    /// Starts the loop on `engine`'s initial optimization.
    pub fn with_engine(mut engine: R, cfg: AqpConfig) -> AqpDriver<R> {
        let plan = R::plan(&engine.optimize()).clone();
        AqpDriver {
            exec: StreamExecutor::new(engine.query()),
            engine,
            cfg,
            plan,
            pinned: false,
            slice_no: 0,
        }
    }

    /// Installs an explicit plan and disables adaptation (static
    /// baseline runs).
    pub fn pin_plan(&mut self, plan: PlanNode) {
        self.plan = plan;
        self.pinned = true;
    }

    pub fn current_plan(&self) -> &PlanNode {
        &self.plan
    }

    /// Ingests and executes one slice, then re-optimizes at the split
    /// point (unless the plan is pinned).
    pub fn run_slice(&mut self, tuples: &[StreamTuple]) -> SliceReport<R::Outcome> {
        self.slice_no += 1;
        let t0 = Instant::now();
        self.exec.ingest(tuples);
        let result = self.exec.execute(&self.plan);
        let exec_time = t0.elapsed();
        let mut reopt_time = Duration::ZERO;
        let mut plan_changed = false;
        let mut deltas = Vec::new();
        let mut outcome = None;
        if !self.pinned {
            deltas = observed_deltas(
                self.engine.query(),
                self.engine.cost_context(),
                &result.stats,
                self.cfg.stats.damping(),
            );
            let t1 = Instant::now();
            let out = self.engine.reoptimize(&deltas);
            reopt_time = t1.elapsed();
            let new_plan = R::plan(&out);
            plan_changed = new_plan.fingerprint() != self.plan.fingerprint();
            if plan_changed {
                self.plan = new_plan.clone();
            }
            outcome = Some(out);
        }
        SliceReport {
            slice: self.slice_no,
            exec_time,
            reopt_time,
            out_rows: result.out_rows,
            plan_changed,
            migrated_rows: result.migrated_rows,
            deltas,
            outcome,
            window_rows: result.window_sizes.iter().sum(),
            stats: result.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reopt_baselines::{optimize_volcano, FromScratch};
    use reopt_bridge::DataflowOptimizer;
    use reopt_expr::JoinGraph;
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

    /// The hand-rolled engine's work at an adaptive slice.
    fn run_of(r: SliceReport) -> reopt_core::RunMetrics {
        r.outcome.expect("an adaptive slice re-optimizes").run
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
            assert!(r.window_rows > 0);
            any_work |= run_of(r).touched_groups > 0;
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
            touched.push(run_of(driver.run_slice(&tuples)).touched_alts);
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
                (r.deltas.len(), run_of(r).touched_alts)
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
            assert!(r.outcome.is_none() && r.deltas.is_empty());
            assert_eq!(r.reopt_time, Duration::ZERO);
        }
        assert_eq!(driver.current_plan().fingerprint(), plan.fingerprint());
    }

    /// The plan `d` has installed costs, under its engine's own
    /// estimates, what a from-scratch Volcano run on them finds.
    fn assert_installed_plan_is_optimal<R: Reoptimizer>(d: &AqpDriver<R>, engine: &str, i: usize) {
        let (q, ctx) = (d.engine.query(), d.engine.cost_context());
        let installed = ctx.clone().plan_cost(q, &d.plan);
        let best = optimize_volcano(q, &JoinGraph::new(q), &mut ctx.clone()).cost;
        assert!(
            installed.approx_eq(best),
            "slice {i}, {engine}: installed {installed:?}, optimum {best:?}"
        );
    }

    #[test]
    fn from_scratch_mode_matches_incremental_plan_quality() {
        // Every engine behind the one loop, on the same stream: the
        // answer does not depend on the plan, and each engine installs a
        // plan that is optimal under its own estimates (plans that tie
        // may differ, so fingerprints are not compared).
        let (c, q, mut gen) = setup();
        let cfg = AqpConfig::default();
        let mut hr = AqpDriver::new(&c, q.clone(), cfg);
        let mut decl = AqpDriver::with_engine(DataflowOptimizer::new(&c, q.clone()), cfg);
        let mut scratch = AqpDriver::with_engine(FromScratch::new(&c, q), cfg);
        for i in 0..30 {
            let tuples = gen.slice(i as f64 * 5.0, 5.0);
            let rows = [
                hr.run_slice(&tuples).out_rows,
                decl.run_slice(&tuples).out_rows,
                scratch.run_slice(&tuples).out_rows,
            ];
            assert!(rows.iter().all(|&r| r == rows[0]), "slice {i}: {rows:?}");
            assert_installed_plan_is_optimal(&hr, "hand-rolled", i);
            assert_installed_plan_is_optimal(&decl, "declarative", i);
            assert_installed_plan_is_optimal(&scratch, "from-scratch", i);
        }
    }
}
