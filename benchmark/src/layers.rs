//! The only module that calls into the crates under test. Every call is
//! wrapped in a span named `layer.function` (layer = crate) and leaves
//! its work counts in [`Counts`] at the same boundary, so the timing and
//! the counting of a layer happen in exactly one place each, and an API
//! change in a layer (ROADMAP items 2 and 4) is a one-file follow-up
//! here.

use std::path::{Path, PathBuf};
use std::time::Duration;

use reopt_aqp::{AqpConfig, AqpDriver};
use reopt_baselines::optimize_volcano;
use reopt_bridge::{durable, AuditMode, DataflowOptimizer, DataflowOutcome, RecoveryPath};
use reopt_catalog::{ColumnStats, Datum, TableBuilder, TableStats};
use reopt_core::{IncrementalOptimizer, Outcome, PruningConfig};
use reopt_exec::{observed_deltas, ExecStats, SliceResult, StreamExecutor};
use reopt_workloads::{seg_toll_query, LinearRoadGen, QueryId, TpchGen};

pub use reopt_catalog::Catalog;
pub use reopt_common::Cost;
pub use reopt_cost::{CostContext, ParamDelta};
pub use reopt_exec::StreamTuple;
pub use reopt_expr::{EdgeId, JoinGraph, LeafId, PlanNode, QuerySpec};

use crate::gen::Rng;
use crate::trace::{span, Tracer};

/// Declares [`Counts`]: one `u64` per count metric, listed with the
/// metric name it is reported under.
macro_rules! counts {
    ($($field:ident => $name:literal,)*) => {
        /// Work counted at the layer boundaries over one round. Rounds
        /// replay identical inputs from fresh engines, so two rounds of
        /// one run must agree on every field — the determinism check.
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct Counts { $(pub $field: u64,)* }

        impl Counts {
            pub fn pairs(&self) -> Vec<(&'static str, u64)> {
                vec![$(($name, self.$field),)*]
            }
        }
    };
}

counts! {
    cost_applies => "cost.applies",
    cost_affected_params => "cost.affected_params",
    core_epochs => "core.epochs",
    core_touched_alts => "core.touched_alts",
    core_touched_groups => "core.touched_groups",
    core_queue_pops => "core.queue_pops",
    core_revived_groups => "core.revived_groups",
    core_tombstoned_groups => "core.tombstoned_groups",
    core_total_alts => "core.total_alts",
    core_total_groups => "core.total_groups",
    core_pruned_alts => "core.pruned_alts",
    core_pruned_groups => "core.pruned_groups",
    core_default_suboptimal_epochs => "core.default.suboptimal_epochs",
    bridge_epochs => "bridge.epochs",
    bridge_unclean_epochs => "bridge.unclean_epochs",
    bridge_pruned_alternatives => "bridge.pruned_alternatives",
    bridge_search_space_rows => "bridge.search_space_rows",
    bridge_network_nodes => "bridge.network_nodes",
    bridge_arrangements => "bridge.arrangements",
    bridge_wal_records => "bridge.wal_records",
    bridge_wal_bytes => "bridge.wal_bytes",
    bridge_checkpoint_bytes => "bridge.checkpoint_bytes",
    bridge_recover_restored => "bridge.recover_restored",
    bridge_recover_degraded => "bridge.recover_degraded",
    datalog_deltas_processed => "datalog.deltas_processed",
    datalog_batches_processed => "datalog.batches_processed",
    datalog_deltas_emitted => "datalog.deltas_emitted",
    datalog_join_probes => "datalog.join_probes",
    datalog_join_probe_deltas => "datalog.join_probe_deltas",
    datalog_fused_stages_saved => "datalog.fused_stages_saved",
    datalog_rollbacks => "datalog.rollbacks",
    exec_slices => "exec.slices",
    exec_out_rows => "exec.out_rows",
    exec_migrated_rows => "exec.migrated_rows",
    exec_window_rows_peak => "exec.window_rows_peak",
    exec_plan_switches => "exec.plan_switches",
    aqp_deltas_leaf_card => "aqp.deltas_leaf_card",
    aqp_deltas_edge_sel => "aqp.deltas_edge_sel",
    baselines_volcano_runs => "baselines.volcano_runs",
    baselines_volcano_groups_created => "baselines.volcano_groups_created",
}

/// What every layer call gets handed: the span recorder and the round's
/// counts.
pub struct Meter {
    pub tr: Tracer,
    pub counts: Counts,
}

impl Meter {
    pub fn new() -> Meter {
        Meter {
            tr: Tracer::new(),
            counts: Counts::default(),
        }
    }
}

// ------------------------------------------------------------ engines

/// What an engine answers to one op: its best plan, that plan's cost,
/// how long the call took, and whether it got there without recovery.
pub struct Reply {
    pub cost: Cost,
    pub plan: PlanNode,
    pub took: Duration,
    pub clean: bool,
}

/// The surface both engines under test share (the repository has no
/// such trait yet — ROADMAP item 2); it lets the epoch and slice loops
/// be written once.
pub trait Engine: Sized {
    /// Fresh construct + initial `optimize`; `took` covers both.
    fn build(m: &mut Meter, catalog: &Catalog, q: &QuerySpec) -> (Self, Reply);
    /// Deltas in → best plan out.
    fn reoptimize(&mut self, m: &mut Meter, deltas: &[ParamDelta]) -> Reply;
    fn best_plan(&self) -> PlanNode;
}

/// `hr`: the hand-rolled engine. Exact under `all_strict()`; the shipped
/// default `all()` runs as an uncounted shadow (`core.default.*`).
pub struct Hr {
    opt: IncrementalOptimizer,
    shadow: bool,
}

impl Hr {
    fn with_config(m: &mut Meter, catalog: &Catalog, q: &QuerySpec, shadow: bool) -> (Hr, Reply) {
        let cfg = if shadow {
            PruningConfig::all()
        } else {
            PruningConfig::all_strict()
        };
        let (mut opt, t_new) = span!(
            m.tr,
            "core.new",
            IncrementalOptimizer::new(catalog, q.clone(), cfg)
        );
        let (out, t_opt) = span!(m.tr, "core.optimize", opt.optimize(), |o: &Outcome| o
            .run
            .touched_alts);
        let reply = Reply {
            cost: out.cost,
            plan: out.plan,
            took: t_new + t_opt,
            clean: true,
        };
        (Hr { opt, shadow }, reply)
    }

    /// The shipped default configuration, `PruningConfig::all()`.
    pub fn build_default(m: &mut Meter, catalog: &Catalog, q: &QuerySpec) -> Hr {
        Hr::with_config(m, catalog, q, true).0
    }
}

impl Engine for Hr {
    fn build(m: &mut Meter, catalog: &Catalog, q: &QuerySpec) -> (Hr, Reply) {
        Hr::with_config(m, catalog, q, false)
    }

    fn reoptimize(&mut self, m: &mut Meter, deltas: &[ParamDelta]) -> Reply {
        let name = if self.shadow {
            "core.default.reoptimize"
        } else {
            "core.reoptimize"
        };
        let (out, took) = span!(m.tr, name, self.opt.reoptimize(deltas), |o: &Outcome| o
            .run
            .touched_alts);
        if !self.shadow {
            let c = &mut m.counts;
            c.core_epochs += 1;
            c.core_touched_alts += out.run.touched_alts;
            c.core_touched_groups += out.run.touched_groups;
            c.core_queue_pops += out.run.queue_pops;
            c.core_revived_groups += out.run.revived_groups;
            c.core_tombstoned_groups += out.run.tombstoned_groups;
            c.core_total_alts += out.state.total_alts;
            c.core_total_groups += out.state.total_groups;
            c.core_pruned_alts += out.state.pruned_alts;
            c.core_pruned_groups += out.state.pruned_groups;
        }
        Reply {
            cost: out.cost,
            plan: out.plan,
            took,
            clean: true,
        }
    }

    fn best_plan(&self) -> PlanNode {
        self.opt.best_plan()
    }
}

/// `decl`: the declarative engine, `DataflowOptimizer::new` (pruning on).
pub struct Decl(DataflowOptimizer);

impl Decl {
    fn reply(out: DataflowOutcome, took: Duration, clean: bool) -> Reply {
        Reply {
            cost: out.cost,
            plan: out.plan,
            took,
            clean,
        }
    }
}

impl Engine for Decl {
    fn build(m: &mut Meter, catalog: &Catalog, q: &QuerySpec) -> (Decl, Reply) {
        let (mut opt, t_new) = span!(
            m.tr,
            "bridge.new",
            DataflowOptimizer::new(catalog, q.clone())
        );
        // The audit samples epochs by an environment variable; pin it
        // off so a stray REOPT_AUDIT cannot change what is measured.
        opt.set_audit_mode(AuditMode::Off);
        let (out, t_opt) = span!(
            m.tr,
            "bridge.optimize",
            opt.optimize(),
            |o: &DataflowOutcome| o.stats.deltas_processed
        );
        let clean = out.recovery.is_clean();
        (Decl(opt), Decl::reply(out, t_new + t_opt, clean))
    }

    fn reoptimize(&mut self, m: &mut Meter, deltas: &[ParamDelta]) -> Reply {
        // An armed engine appends to the WAL and fsyncs inside the call.
        let armed = self.0.durable_dir().is_some();
        let name = if armed {
            "bridge.reoptimize_durable"
        } else {
            "bridge.reoptimize"
        };
        let (out, took) = span!(
            m.tr,
            name,
            self.0.reoptimize(deltas),
            |o: &DataflowOutcome| o.stats.deltas_processed
        );
        let clean = out.recovery.is_clean();
        let c = &mut m.counts;
        c.bridge_epochs += 1;
        c.bridge_unclean_epochs += u64::from(!clean);
        c.bridge_wal_records += u64::from(armed);
        c.datalog_deltas_processed += out.stats.deltas_processed;
        c.datalog_batches_processed += out.stats.batches_processed;
        c.datalog_deltas_emitted += out.stats.deltas_emitted;
        c.datalog_join_probes += out.stats.join_probes;
        c.datalog_join_probe_deltas += out.stats.join_probe_deltas;
        c.datalog_fused_stages_saved += out.stats.fused_stages_saved;
        c.datalog_rollbacks = c.datalog_rollbacks.max(out.stats.rollbacks);
        Decl::reply(out, took, clean)
    }

    fn best_plan(&self) -> PlanNode {
        self.0.best_plan()
    }
}

impl Decl {
    /// Records the network's size gauges (end-of-round state).
    pub fn gauges(&self, m: &mut Meter) {
        let c = &mut m.counts;
        c.bridge_pruned_alternatives = self.0.pruned_alternatives() as u64;
        c.bridge_search_space_rows = self.0.search_space_size() as u64;
        c.bridge_network_nodes = self.0.network_nodes() as u64;
        c.bridge_arrangements = self.0.arrangements() as u64;
    }

    /// Arms durability: from here on every `reoptimize` appends to the
    /// fsynced WAL in `dir` before it runs.
    pub fn arm(&mut self, m: &mut Meter, dir: &Path) -> std::io::Result<()> {
        span!(m.tr, "bridge.set_durable_dir", self.0.set_durable_dir(dir)).0
    }

    /// Cuts a durable checkpoint; returns how long it took.
    pub fn checkpoint(&mut self, m: &mut Meter) -> std::io::Result<Duration> {
        let (r, took) = span!(
            m.tr,
            "bridge.checkpoint_durable",
            self.0.checkpoint_durable()
        );
        r?;
        let dir = self.0.durable_dir().expect("armed");
        m.counts.bridge_checkpoint_bytes = file_len(&dir.join(durable::CHECKPOINT_FILE));
        Ok(took)
    }

    /// Records how many bytes the WAL holds now.
    pub fn gauge_wal(&self, m: &mut Meter) {
        let dir = self.0.durable_dir().expect("armed");
        m.counts.bridge_wal_bytes = file_len(&dir.join(durable::WAL_FILE));
    }

    /// A restart: restores the checkpoint in `dir` and replays the WAL
    /// tail. The reply is clean only if the incremental state survived
    /// (`RestoredFromCheckpoint`, no absorbed errors).
    pub fn recover(
        m: &mut Meter,
        catalog: &Catalog,
        q: &QuerySpec,
        dir: &Path,
    ) -> std::io::Result<(Decl, Reply)> {
        let (r, took) = span!(
            m.tr,
            "bridge.recover",
            DataflowOptimizer::recover(catalog, q.clone(), dir)
        );
        let (mut opt, out) = r?;
        opt.set_audit_mode(AuditMode::Off);
        let restored = out.recovery.path == RecoveryPath::RestoredFromCheckpoint;
        m.counts.bridge_recover_restored += u64::from(restored);
        m.counts.bridge_recover_degraded += u64::from(!restored);
        let clean = restored && out.recovery.errors.is_empty();
        Ok((Decl(opt), Decl::reply(out, took, clean)))
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |md| md.len())
}

/// A WAL of its own beside the engine's, to time `durable::wal_append`
/// alone on the same batches (traced runs only).
pub struct WalTwin {
    path: PathBuf,
    seq: u64,
}

impl WalTwin {
    pub fn create(dir: &Path) -> std::io::Result<WalTwin> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(durable::WAL_FILE);
        durable::wal_init(&path)?;
        Ok(WalTwin { path, seq: 0 })
    }

    pub fn append(&mut self, m: &mut Meter, deltas: &[ParamDelta]) -> std::io::Result<()> {
        let r = span!(
            m.tr,
            "bridge.wal_append",
            durable::wal_append(&self.path, self.seq, deltas)
        )
        .0;
        self.seq += 1;
        r
    }
}

// ------------------------------------------------- oracle and costing

/// From-scratch optimum under `ctx`'s parameters — the oracle every
/// engine reply is held against, and the paper's Volcano reference.
pub fn volcano(m: &mut Meter, q: &QuerySpec, g: &JoinGraph, ctx: &CostContext) -> Cost {
    // On a clone: Volcano warms the row-estimate cache, and each run
    // must start from the state the engines saw.
    let mut ctx = ctx.clone();
    let (out, _) = span!(
        m.tr,
        "baselines.volcano",
        optimize_volcano(q, g, &mut ctx),
        |o: &reopt_baselines::OptResult| o.metrics.groups_created
    );
    m.counts.baselines_volcano_runs += 1;
    m.counts.baselines_volcano_groups_created += out.metrics.groups_created;
    out.cost
}

pub fn ctx_new(catalog: &Catalog, q: &QuerySpec) -> CostContext {
    CostContext::new(catalog, q)
}

pub fn ctx_apply(m: &mut Meter, ctx: &mut CostContext, deltas: &[ParamDelta]) {
    let (affected, _) = span!(m.tr, "cost.apply", ctx.apply(deltas));
    let n = affected.leaves_card.len() + affected.edges.len() + affected.leaves_scan.len();
    m.counts.cost_applies += 1;
    m.counts.cost_affected_params += n as u64;
}

pub fn plan_cost(m: &mut Meter, ctx: &mut CostContext, q: &QuerySpec, plan: &PlanNode) -> Cost {
    span!(m.tr, "cost.plan_cost", ctx.plan_cost(q, plan)).0
}

// ------------------------------------------------------------ executor

pub struct Stream(StreamExecutor);

impl Stream {
    pub fn new(q: &QuerySpec) -> Stream {
        Stream(StreamExecutor::new(q))
    }

    pub fn ingest(&mut self, m: &mut Meter, tuples: &[StreamTuple]) {
        span!(m.tr, "exec.ingest", self.0.ingest(tuples), |_| tuples.len()
            as u64);
    }

    pub fn execute(&mut self, m: &mut Meter, plan: &PlanNode) -> SliceResult {
        let (res, _) = span!(
            m.tr,
            "exec.execute",
            self.0.execute(plan),
            |r: &SliceResult| r.out_rows as u64
        );
        let c = &mut m.counts;
        c.exec_slices += 1;
        c.exec_out_rows += res.out_rows as u64;
        c.exec_migrated_rows += res.migrated_rows as u64;
        let window: usize = res.window_sizes.iter().sum();
        c.exec_window_rows_peak = c.exec_window_rows_peak.max(window as u64);
        res
    }
}

/// Executor feedback → parameter deltas, with the cumulative mode's
/// damping (0.5), as the shipped driver does.
pub fn feedback(
    m: &mut Meter,
    q: &QuerySpec,
    ctx: &CostContext,
    stats: &ExecStats,
) -> Vec<ParamDelta> {
    let (deltas, _) = span!(
        m.tr,
        "exec.observed_deltas",
        observed_deltas(q, ctx, stats, 0.5),
        |d: &Vec<ParamDelta>| d.len() as u64
    );
    for d in &deltas {
        match d {
            ParamDelta::LeafCardinality(..) => m.counts.aqp_deltas_leaf_card += 1,
            ParamDelta::EdgeSelectivity(..) => m.counts.aqp_deltas_edge_sel += 1,
            ParamDelta::LeafScanCost(..) => {}
        }
    }
    deltas
}

/// The shipped adaptive loop (hand-rolled engine, default pruning), as
/// a per-layer reference for the loops the benchmark composes itself.
pub struct ShippedDriver(AqpDriver);

impl ShippedDriver {
    pub fn new(catalog: &Catalog, q: &QuerySpec) -> ShippedDriver {
        ShippedDriver(AqpDriver::new(catalog, q.clone(), AqpConfig::default()))
    }

    /// Returns the slice's `out_rows`.
    pub fn run_slice(&mut self, m: &mut Meter, tuples: &[StreamTuple]) -> usize {
        span!(
            m.tr,
            "aqp.run_slice",
            self.0.run_slice(tuples),
            |r: &reopt_aqp::SliceReport| r.out_rows as u64
        )
        .0
        .out_rows
    }
}

// --------------------------------------------------------------- inputs

// The seed of a run decides the *values* an engine sees — which
// parameter moves to which factor, which car is which — not the shape of
// the catalog or the stream: data sizes and statistics are constants, so
// that two seeds give two samples of one workload, not two workloads.

/// TPC-H Q5 over skewed data (sf 0.002, Zipf 0.5, the repository's
/// default generator seed).
pub fn tpch_q5() -> (Catalog, QuerySpec) {
    let gen = TpchGen {
        sf: 0.002,
        zipf_theta: 0.5,
        seed: 7,
        buckets: 32,
    };
    let (catalog, _db) = gen.generate();
    let q = QueryId::Q5.build(&catalog);
    (catalog, q)
}

/// An 8-relation star the benchmark builds itself: a fact table `f` of
/// a million rows with one key per dimension, seven dimensions `d0..d6`
/// from 10 to 100k rows, every other one indexed on its key.
pub fn star8() -> (Catalog, QuerySpec) {
    const DIM_ROWS: [f64; 7] = [10.0, 100.0, 1e3, 1e4, 1e5, 50.0, 5e3];
    let mut c = Catalog::new();
    c.add_table(
        |id| {
            let mut b = TableBuilder::new("f");
            for i in 0..DIM_ROWS.len() {
                b = b.int_col(&format!("k{i}"));
            }
            b.build(id)
        },
        TableStats {
            row_count: 1e6,
            columns: DIM_ROWS
                .iter()
                .map(|&r| ColumnStats::uniform_key(r))
                .collect(),
        },
    );
    for (i, &rows) in DIM_ROWS.iter().enumerate() {
        c.add_table(
            |id| {
                let mut b = TableBuilder::new(format!("d{i}")).int_col("a").int_col("b");
                if i % 2 == 0 {
                    b = b.index_on("a");
                }
                b.build(id)
            },
            TableStats {
                row_count: rows,
                columns: vec![ColumnStats::uniform_key(rows); 2],
            },
        );
    }
    let mut b = QuerySpec::builder("star8");
    let f = b.leaf(&c, "f");
    for i in 0..DIM_ROWS.len() {
        let d = b.leaf(&c, &format!("d{i}"));
        b.join(&c, f, &format!("k{i}"), d, "a");
    }
    (c, b.build())
}

/// Linear Road `SegTollS` and its stream, cut into slices. The traffic
/// pattern is the repository's default stream (generator seed 11); the
/// run's seed relabels the cars, which keeps every window, join and
/// plan decision the same size while changing every join key.
pub fn seg_toll(
    seed: u64,
    slices: usize,
    slice_secs: f64,
) -> (Catalog, QuerySpec, Vec<Vec<StreamTuple>>) {
    let mut gen = LinearRoadGen::new(11);
    gen.rate = 10.0;
    gen.n_cars = 400;
    gen.n_segments = 25;
    let mut c = Catalog::new();
    gen.register(&mut c);
    let q = seg_toll_query(&c);
    // Fisher-Yates over the car ids.
    let mut rng = Rng::new(seed);
    let mut relabel: Vec<i64> = (0..gen.n_cars).collect();
    for i in (1..relabel.len()).rev() {
        relabel.swap(i, rng.below(i + 1));
    }
    let stream = (0..slices)
        .map(|i| {
            let mut tuples = gen.slice(i as f64 * slice_secs, slice_secs);
            for t in &mut tuples {
                if let Datum::Int(car) = t.row[0] {
                    t.row[0] = Datum::Int(relabel[car as usize]);
                }
            }
            tuples
        })
        .collect();
    (c, q, stream)
}
