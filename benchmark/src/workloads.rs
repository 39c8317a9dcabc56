//! The four workloads. Each is a sequence of identical *rounds*: a round
//! builds fresh engines, replays the workload's inputs through `hr` and
//! `decl` in lockstep, and holds every reply against the from-scratch
//! oracle. Sizes are fixed counts; how many rounds a run makes is
//! decided by `--seconds` in `main.rs`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::gen::{self, ParamWalk};
use crate::layers::{
    self, Catalog, Cost, CostContext, Decl, Engine, Hr, JoinGraph, Meter, ParamDelta, PlanNode,
    QuerySpec, Reply, ShippedDriver, Stream, StreamTuple, WalTwin,
};

pub const NAMES: [&str; 4] = [
    "param_point_q5",
    "param_burst_star8",
    "aqp_segtoll",
    "durable_q5",
];

/// Fixed counts of one round, tuned once so that a round takes one to
/// three seconds on the reference box and a run repeats every op about
/// ten times or more.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Epochs (`param_*`, `durable_q5`) or slices (`aqp_segtoll`).
    pub steps: usize,
    /// Fresh construct + `optimize` samples per engine.
    pub initial_reps: usize,
    /// Durable epochs of the durability tail.
    pub tail_epochs: usize,
    /// Checkpoint and restart samples of the durability tail.
    pub tail_reps: usize,
    /// `durable_q5`: checkpoint every this many epochs, and restart
    /// every `2 × ckpt_every`, half an interval past a checkpoint.
    pub ckpt_every: usize,
}

impl Sizes {
    pub fn of(workload: &str, smoke: bool) -> Sizes {
        let (steps, initial_reps, tail_epochs, tail_reps, ckpt_every) = match (workload, smoke) {
            ("param_point_q5", false) => (1500, 5, 20, 5, 0),
            ("param_burst_star8", false) => (100, 3, 10, 3, 0),
            ("aqp_segtoll", false) => (60, 5, 20, 5, 0),
            ("durable_q5", false) => (800, 5, 0, 0, 100),
            ("durable_q5", true) => (40, 1, 0, 0, 10),
            ("aqp_segtoll", true) => (8, 1, 3, 1, 0),
            (_, true) => (20, 1, 3, 1, 0),
            _ => unreachable!("unknown workload"),
        };
        Sizes {
            steps,
            initial_reps,
            tail_epochs,
            tail_reps,
            ckpt_every,
        }
    }
}

/// Stream time per slice of `aqp_segtoll`, seconds: sixty slices fill
/// the query's largest (300 s) window once.
const SLICE_SECS: f64 = 5.0;

/// Timing samples of one round, microseconds, in op order: sample `i`
/// of a kind is the same work in every round.
#[derive(Default)]
pub struct Samples {
    pub hr_initial: Vec<f64>,
    pub decl_initial: Vec<f64>,
    pub hr_op: Vec<f64>,
    pub decl_op: Vec<f64>,
    pub durable_op: Vec<f64>,
    pub checkpoint: Vec<f64>,
    pub recover: Vec<f64>,
}

/// What one round measured.
pub struct Round {
    pub samples: Samples,
    /// Mean regret of the default-config shadow (diagnostics only).
    pub default_regret: Option<f64>,
    pub ops: u64,
    pub failed: u64,
}

pub trait Workload {
    /// `diagnostics` adds the per-layer references the traced run
    /// reports: the default-config shadow, the WAL twin, the shipped
    /// AQP driver.
    fn round(&mut self, m: &mut Meter, diagnostics: bool) -> Round;
}

/// Builds the workload's inputs from the seed, compiles both engines
/// and runs their first `optimize` — everything `setup_s` covers.
pub fn setup(name: &str, seed: u64, sizes: Sizes) -> Box<dyn Workload> {
    match name {
        "param_point_q5" | "durable_q5" => {
            let (catalog, q) = layers::tpch_q5();
            let walk = ParamWalk::new(seed, q.leaves.len(), q.edges.len()).points(sizes.steps);
            Box::new(Param {
                base: Base::new(catalog, q, sizes),
                walk,
            })
        }
        "param_burst_star8" => {
            let (catalog, q) = layers::star8();
            let walk = ParamWalk::new(seed, q.leaves.len(), q.edges.len()).bursts(sizes.steps);
            Box::new(Param {
                base: Base::new(catalog, q, sizes),
                walk,
            })
        }
        "aqp_segtoll" => {
            let (catalog, q, stream) = layers::seg_toll(seed, sizes.steps, SLICE_SECS);
            Box::new(Aqp {
                base: Base::new(catalog, q, sizes),
                stream,
            })
        }
        _ => unreachable!("unknown workload"),
    }
}

// ---------------------------------------------------------------- shared

#[derive(Default)]
struct Tally {
    ops: u64,
    failed: u64,
}

impl Tally {
    fn op(&mut self, ok: bool) {
        self.ops += 1;
        self.failed += u64::from(!ok);
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh, empty directory under `./.bench_tmp` (the benchmark writes
/// nowhere outside the directory it is run from).
fn scratch_dir() -> PathBuf {
    let n = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = PathBuf::from(".bench_tmp").join(format!("{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

/// From-scratch optimum under `ctx`. The oracle has to run for any
/// result to mean anything: if it cannot, the benchmark stops without
/// one.
fn oracle(m: &mut Meter, q: &QuerySpec, g: &JoinGraph, ctx: &CostContext) -> Cost {
    match catch_unwind(AssertUnwindSafe(|| layers::volcano(m, q, g, ctx))) {
        Ok(cost) if cost.is_finite() => cost,
        _ => {
            eprintln!("benchmark: the oracle (optimize_volcano) could not produce a finite plan");
            std::process::exit(2);
        }
    }
}

/// Catalog, query and sizes — what every workload holds — and the parts
/// of a round every workload shares.
struct Base {
    catalog: Catalog,
    q: QuerySpec,
    g: JoinGraph,
    sizes: Sizes,
}

impl Base {
    fn new(catalog: Catalog, q: QuerySpec, sizes: Sizes) -> Base {
        let g = JoinGraph::new(&q);
        // The first optimize of both engines belongs to set-up.
        let mut m = Meter::new();
        Hr::build(&mut m, &catalog, &q);
        Decl::build(&mut m, &catalog, &q);
        Base {
            catalog,
            q,
            g,
            sizes,
        }
    }

    /// An engine reply is right if it is the optimum (equal to the
    /// oracle's cost under the same parameters), if the plan it returned
    /// really costs what it said, and if it needed no recovery.
    fn verify(&self, m: &mut Meter, ctx: &mut CostContext, want: Cost, reply: &Reply) -> bool {
        let priced = layers::plan_cost(m, ctx, &self.q, &reply.plan);
        reply.clean && reply.cost.approx_eq(want) && priced.approx_eq(reply.cost)
    }

    /// A context holding the base estimates, and the optimum under it.
    /// The benchmark keeps contexts of its own, fed the same deltas as
    /// the engines but never seen by one, for the oracle to run on.
    fn fresh_oracle(&self, m: &mut Meter) -> (CostContext, Cost) {
        let ctx = layers::ctx_new(&self.catalog, &self.q);
        let want = oracle(m, &self.q, &self.g, &ctx);
        (ctx, want)
    }

    /// Applies `deltas` to the oracle's context; returns the new optimum.
    fn advance(&self, m: &mut Meter, ctx: &mut CostContext, deltas: &[ParamDelta]) -> Cost {
        layers::ctx_apply(m, ctx, deltas);
        oracle(m, &self.q, &self.g, ctx)
    }

    /// Fresh construct + `optimize`, `initial_reps` times per engine;
    /// the last pair built runs the round.
    fn initial(&self, m: &mut Meter, s: &mut Samples, tally: &mut Tally) -> (Hr, Decl) {
        let (mut ctx, want) = self.fresh_oracle(m);
        let mut built = None;
        for _ in 0..self.sizes.initial_reps {
            let (hr, r) = Hr::build(m, &self.catalog, &self.q);
            tally.op(self.verify(m, &mut ctx, want, &r));
            s.hr_initial.push(us(r.took));
            let (decl, r) = Decl::build(m, &self.catalog, &self.q);
            tally.op(self.verify(m, &mut ctx, want, &r));
            s.decl_initial.push(us(r.took));
            built = Some((hr, decl));
        }
        built.expect("initial_reps >= 1")
    }

    /// One timed checkpoint; an op that fails if the write does.
    fn checkpoint(&self, m: &mut Meter, decl: &mut Decl, s: &mut Samples, tally: &mut Tally) {
        let took = decl.checkpoint(m);
        tally.op(took.is_ok());
        s.checkpoint.extend(took.ok().map(us));
    }

    /// One timed restart from `dir`; an op that fails unless the
    /// checkpoint was restored cleanly and the engine comes back with
    /// the optimum under the parameters it held before the crash.
    fn recover(
        &self,
        m: &mut Meter,
        dir: &Path,
        ctx: &mut CostContext,
        want: Cost,
        s: &mut Samples,
        tally: &mut Tally,
    ) -> Option<Decl> {
        let Ok((decl, r)) = Decl::recover(m, &self.catalog, &self.q, dir) else {
            tally.op(false);
            return None;
        };
        tally.op(self.verify(m, ctx, want, &r));
        s.recover.push(us(r.took));
        Some(decl)
    }

    /// Durability cost of this workload's optimizer state, for the
    /// workloads that do not run durably themselves. The same for every
    /// seed: put every parameter back to its base estimate, arm a fresh
    /// directory, cut `tail_reps` checkpoints, run `tail_epochs` durable
    /// epochs (WAL append + fsync, then re-optimize) that a restart has
    /// to replay, then restart `tail_reps` times.
    fn durability_tail(&self, m: &mut Meter, mut decl: Decl, s: &mut Samples, tally: &mut Tally) {
        let (n_leaves, n_edges) = (self.q.leaves.len(), self.q.edges.len());
        let (mut ctx, mut want) = self.fresh_oracle(m);
        let r = decl.reoptimize(m, &gen::reset(n_leaves, n_edges));
        let dir = scratch_dir();
        tally.op(self.verify(m, &mut ctx, want, &r) && decl.arm(m, &dir).is_ok());
        for _ in 0..self.sizes.tail_reps {
            self.checkpoint(m, &mut decl, s, tally);
        }
        for batch in gen::tail(n_leaves, self.sizes.tail_epochs) {
            let r = decl.reoptimize(m, &batch);
            s.durable_op.push(us(r.took));
            want = self.advance(m, &mut ctx, &batch);
            tally.op(self.verify(m, &mut ctx, want, &r));
        }
        decl.gauge_wal(m);
        drop(decl); // the crash
        for _ in 0..self.sizes.tail_reps {
            self.recover(m, &dir, &mut ctx, want, s, tally);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ------------------------------------------- param_* and durable_q5

/// A parameter walk replayed through both engines, one batch per epoch.
/// With `sizes.ckpt_every > 0` (`durable_q5`) the walk is then replayed
/// once more through a durable declarative engine — WAL append + fsync
/// before every epoch, checkpoints and restarts on the way. The in-memory
/// pass comes first and is the control: it does in `durable_q5` what it
/// does in `param_point_q5`. (In lockstep with the durable lane it ran
/// 14% slower and three times less steadily — every epoch then starts
/// on a core that has just come back from an fsync.)
struct Param {
    base: Base,
    walk: Vec<Vec<ParamDelta>>,
}

impl Param {
    fn durable_pass(&self, m: &mut Meter, diagnostics: bool, s: &mut Samples, tally: &mut Tally) {
        let b = &self.base;
        let ckpt_every = b.sizes.ckpt_every;
        let dir = scratch_dir();
        let (mut ctx, want) = b.fresh_oracle(m);
        let (mut engine, r) = Decl::build(m, &b.catalog, &b.q);
        tally.op(b.verify(m, &mut ctx, want, &r) && engine.arm(m, &dir).is_ok());
        let mut twin = diagnostics
            .then(|| WalTwin::create(&dir.join("twin")).ok())
            .flatten();
        for (i, deltas) in self.walk.iter().enumerate() {
            m.tr.next_op();
            let epoch = m.tr.enter("bench.durable_epoch");
            let r = engine.reoptimize(m, deltas);
            s.durable_op.push(us(r.took));
            let want = b.advance(m, &mut ctx, deltas);
            tally.op(b.verify(m, &mut ctx, want, &r));
            if let Some(twin) = twin.as_mut() {
                let _ = twin.append(m, deltas);
            }
            if (i + 1) % ckpt_every == 0 {
                b.checkpoint(m, &mut engine, s, tally);
            }
            if (i + 1) % (2 * ckpt_every) == ckpt_every + ckpt_every / 2 {
                engine.gauge_wal(m);
                drop(engine); // the crash
                match b.recover(m, &dir, &mut ctx, want, s, tally) {
                    Some(recovered) => engine = recovered,
                    // Counted as a failed op; nothing left to run on.
                    None => break,
                }
            }
            m.tr.exit(epoch, deltas.len() as u64);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

impl Workload for Param {
    fn round(&mut self, m: &mut Meter, diagnostics: bool) -> Round {
        let b = &self.base;
        let mut s = Samples::default();
        let mut tally = Tally::default();
        let (mut hr, mut decl) = b.initial(m, &mut s, &mut tally);
        let mut shadow = diagnostics.then(|| Hr::build_default(m, &b.catalog, &b.q));
        let mut regret = 0.0;
        let mut ctx = layers::ctx_new(&b.catalog, &b.q);
        for deltas in &self.walk {
            m.tr.next_op();
            let epoch = m.tr.enter("bench.epoch");
            let want = b.advance(m, &mut ctx, deltas);
            let r = hr.reoptimize(m, deltas);
            tally.op(b.verify(m, &mut ctx, want, &r));
            s.hr_op.push(us(r.took));
            let r = decl.reoptimize(m, deltas);
            tally.op(b.verify(m, &mut ctx, want, &r));
            s.decl_op.push(us(r.took));
            if let Some(shadow) = shadow.as_mut() {
                let d = shadow.reoptimize(m, deltas);
                m.counts.core_default_suboptimal_epochs += u64::from(!d.cost.approx_eq(want));
                regret += d.cost.value() / want.value() - 1.0;
            }
            m.tr.exit(epoch, deltas.len() as u64);
        }
        decl.gauges(m);
        if b.sizes.ckpt_every > 0 {
            drop((hr, decl));
            self.durable_pass(m, diagnostics, &mut s, &mut tally);
        } else {
            b.durability_tail(m, decl, &mut s, &mut tally);
        }
        Round {
            samples: s,
            default_regret: diagnostics.then(|| regret / self.walk.len() as f64),
            ops: tally.ops,
            failed: tally.failed,
        }
    }
}

// ------------------------------------------------------------ aqp_segtoll

/// The adaptive loop of Figs 9/10, composed from public pieces once per
/// engine: ingest → execute → feedback → re-optimize → maybe switch.
struct Aqp {
    base: Base,
    stream: Vec<Vec<StreamTuple>>,
}

/// One engine's copy of the loop: its executor and installed plan.
struct Lane<E: Engine> {
    engine: E,
    exec: Stream,
    plan: PlanNode,
    /// The oracle's context for this lane (lanes that pick different
    /// plans of equal cost observe, and feed back, different things).
    ctx: CostContext,
}

impl<E: Engine> Lane<E> {
    fn new(b: &Base, engine: E) -> Lane<E> {
        Lane {
            plan: engine.best_plan(),
            exec: Stream::new(&b.q),
            ctx: layers::ctx_new(&b.catalog, &b.q),
            engine,
        }
    }
}

impl Aqp {
    /// One slice on one engine; returns the slice's `out_rows`.
    fn slice<E: Engine>(
        &self,
        m: &mut Meter,
        lane: &mut Lane<E>,
        tuples: &[StreamTuple],
        samples: &mut Vec<f64>,
        tally: &mut Tally,
    ) -> usize {
        let b = &self.base;
        m.tr.next_op();
        let slice = m.tr.enter("bench.slice");
        lane.exec.ingest(m, tuples);
        let res = lane.exec.execute(m, &lane.plan);
        let deltas = layers::feedback(m, &b.q, &lane.ctx, &res.stats);
        let r = lane.engine.reoptimize(m, &deltas);
        if r.plan.fingerprint() != lane.plan.fingerprint() {
            lane.plan = r.plan.clone();
            m.counts.exec_plan_switches += 1;
        }
        // Ingest to plan installed.
        samples.push(us(m.tr.exit(slice, tuples.len() as u64)));
        let want = b.advance(m, &mut lane.ctx, &deltas);
        tally.op(b.verify(m, &mut lane.ctx, want, &r));
        res.out_rows
    }
}

impl Workload for Aqp {
    fn round(&mut self, m: &mut Meter, diagnostics: bool) -> Round {
        let b = &self.base;
        let mut s = Samples::default();
        let mut tally = Tally::default();
        let (hr, decl) = b.initial(m, &mut s, &mut tally);
        let mut hr = Lane::new(b, hr);
        let mut decl = Lane::new(b, decl);
        let mut shipped = diagnostics.then(|| ShippedDriver::new(&b.catalog, &b.q));
        for tuples in &self.stream {
            let hr_rows = self.slice(m, &mut hr, tuples, &mut s.hr_op, &mut tally);
            let decl_rows = self.slice(m, &mut decl, tuples, &mut s.decl_op, &mut tally);
            // The query's answer does not depend on the plan.
            let mut same = hr_rows == decl_rows;
            if let Some(shipped) = shipped.as_mut() {
                same &= shipped.run_slice(m, tuples) == hr_rows;
            }
            tally.op(same);
        }
        decl.engine.gauges(m);
        b.durability_tail(m, decl.engine, &mut s, &mut tally);
        Round {
            samples: s,
            default_regret: None,
            ops: tally.ops,
            failed: tally.failed,
        }
    }
}
