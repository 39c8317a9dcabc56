//! The dataflow graph and its fixpoint scheduler.
//!
//! A [`Dataflow`] is a directed graph of operators which may contain
//! cycles (recursive rules). Execution is queue-driven and pipelined,
//! with no synchronization barriers between "strata" — matching the
//! paper's execution strategy (§2.3: "we leverage a pipelined push-based
//! query processor to execute the rules in an incremental fashion ...
//! without synchronization or blocking").
//!
//! The scheduler is *batched*: the work queue carries
//! `(node, port, Vec<Delta>)` entries. All deltas bound for the same
//! destination port that accumulate before that port is serviced are
//! merged into one batch, and each batch is coalesced (same-tuple deltas
//! summed, cancelled pairs dropped) immediately before processing — so a
//! `+t`/`-t` pair produced by a cascade dies in the queue instead of
//! amplifying through a join. Dirty destinations are serviced in
//! topological-rank order (SCCs share a rank), draining each layer
//! before its consumers so stateful operators see whole waves at once,
//! and a batch bound for a sole stateless consumer is *chained* through
//! it inside the producing dispatch, with no queue round trip
//! (`Dataflow::dispatch`). Inside one SCC a
//! destination may declare a *release order*
//! ([`Dataflow::set_release_order`]): its pending deltas are held per
//! stratum and the lowest stratum is released only once the rest of the
//! component has drained, so a recursive aggregate over well-founded
//! data re-derives each row once instead of once per wave. Per-delta
//! FIFO execution (the original semantics) remains available via
//! [`SchedulerMode::PerDelta`] and is property-tested observationally
//! identical across the whole mode matrix (`tests/differential.rs`).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use reopt_common::{FxHashMap, FxHashSet};

use crate::agg::OrderedMultiset;
use crate::delta::{coalesce, CoalesceScratch, ConsolidatorFootprint, Delta};
use crate::error::{DataflowError, FaultPlan};
use crate::ops::Operator;
use crate::relation::Multiset;
use crate::value::{Tuple, Val};

/// Node handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

/// Sink handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SinkId(usize);

enum NodeKind {
    /// External input: forwards pushed deltas downstream.
    Input,
    Op(Box<dyn Operator>),
    /// Materialization point; contents readable via [`Dataflow::sink`].
    Sink(usize),
}

struct Node {
    kind: NodeKind,
    /// Downstream edges: `(target node, target port)`.
    downstream: Vec<(usize, usize)>,
    /// Whether incoming batches are coalesced before processing
    /// ([`Operator::coalesces_input`]; inputs always coalesce so
    /// cancelling external deltas die before entering the graph).
    coalesce_input: bool,
    /// Whether this node's output must reach every consumer within the
    /// producing dispatch ([`Operator::sync_fanout`]; `Arrange` nodes —
    /// the shared-index update and the attached joins' probes must be
    /// atomic with respect to all other scheduling).
    sync_fanout: bool,
    label: String,
    /// Release order of this node's pending deltas, if declared
    /// ([`Dataflow::set_release_order`]).
    release: Option<ReleaseOrder>,
    /// Lifetime batch/delta counters for [`Dataflow::node_stats`] —
    /// three adds per serviced batch, cheap enough to keep always-on.
    stat_batches: u64,
    stat_deltas: u64,
    stat_emitted: u64,
}

/// How the fixpoint loop schedules work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedulerMode {
    /// Destination-merged batches, coalesced before processing (the
    /// default).
    #[default]
    Batched,
    /// One delta per queue entry in strict FIFO order — the original
    /// execution model, kept as the semantic reference.
    PerDelta,
}

/// A destination's release order: a pending delta whose tuple holds
/// `Int(v)` in `column` waits in stratum `strata[v]`; every other
/// delta is stratum 0.
struct ReleaseOrder {
    column: usize,
    strata: Vec<u32>,
}

impl ReleaseOrder {
    fn stratum(&self, t: &Tuple) -> u32 {
        if self.column >= t.len() {
            return 0;
        }
        match t.get(self.column) {
            Val::Int(v) => usize::try_from(v)
                .ok()
                .and_then(|i| self.strata.get(i).copied())
                .unwrap_or(0),
            _ => 0,
        }
    }
}

/// How many spent batch buffers the scheduler retains for reuse.
const BATCH_POOL_CAP: usize = 32;

/// A dirty destination's heap key: `(SCC rank, stratum, node, port)`.
type Slot = (u32, u32, usize, usize);

/// Pending deltas per dirty `(node, port, stratum)`.
type Pending = FxHashMap<(usize, usize, u32), Vec<Delta>>;

/// The work queue: batched destination-merged entries serviced in
/// topological-rank order, or strict per-delta FIFO.
enum Queue {
    Batched {
        /// Dirty destinations. Servicing the lowest rank first drains
        /// each dataflow layer before its consumers run, so downstream
        /// stateful operators (grouped aggregates especially) see one
        /// big batch per wave instead of several partial ones — fewer
        /// update pairs, less re-cascade. Within a rank (one SCC) the
        /// stratum decides: destinations without a release order are
        /// stratum 0, so a held stratum is released only once the rest
        /// of its component has drained, and until then its deltas keep
        /// coalescing (`−old +t1`, `−t1 +t2` → `−old +t2`). Any service
        /// order reaches the same fixpoint; this one reaches it with
        /// the least churn.
        order: BinaryHeap<Reverse<Slot>>,
        pending: Pending,
        /// Spent batch buffers, recycled to avoid per-batch allocation.
        pool: Vec<Vec<Delta>>,
    },
    PerDelta(VecDeque<(usize, usize, Delta)>),
}

/// The pending batch of one `(node, port, stratum)`, marking the
/// destination dirty on first use.
fn bucket<'a>(
    order: &mut BinaryHeap<Reverse<Slot>>,
    pending: &'a mut Pending,
    pool: &mut Vec<Vec<Delta>>,
    (rank, stratum, node, port): Slot,
) -> &'a mut Vec<Delta> {
    pending.entry((node, port, stratum)).or_insert_with(|| {
        order.push(Reverse((rank, stratum, node, port)));
        pool.pop().unwrap_or_default()
    })
}

impl Queue {
    fn new(mode: SchedulerMode) -> Queue {
        match mode {
            SchedulerMode::Batched => Queue::Batched {
                order: BinaryHeap::new(),
                pending: FxHashMap::default(),
                pool: Vec::new(),
            },
            SchedulerMode::PerDelta => Queue::PerDelta(VecDeque::new()),
        }
    }

    /// Queues `deltas` for `(node, port)`, bucketed by the
    /// destination's release order if it declares one (batched mode
    /// only — per-delta mode is the hint-free reference).
    fn push(
        &mut self,
        rank: u32,
        node: usize,
        port: usize,
        release: Option<&ReleaseOrder>,
        deltas: impl Iterator<Item = Delta>,
    ) {
        match self {
            Queue::Batched {
                order,
                pending,
                pool,
            } => match release {
                None => bucket(order, pending, pool, (rank, 0, node, port)).extend(deltas),
                Some(release) => {
                    for d in deltas {
                        let stratum = release.stratum(&d.tuple);
                        bucket(order, pending, pool, (rank, stratum, node, port)).push(d);
                    }
                }
            },
            Queue::PerDelta(q) => {
                for d in deltas {
                    q.push_back((node, port, d));
                }
            }
        }
    }

    /// Pops the next batch.
    fn pop(&mut self) -> Option<(usize, usize, Vec<Delta>)> {
        match self {
            Queue::Batched { order, pending, .. } => {
                let Reverse((_, stratum, node, port)) = order.pop()?;
                let batch = pending
                    .remove(&(node, port, stratum))
                    .expect("dirty destination without pending deltas");
                Some((node, port, batch))
            }
            Queue::PerDelta(q) => {
                let (node, port, d) = q.pop_front()?;
                Some((node, port, vec![d]))
            }
        }
    }

    fn is_batched(&self) -> bool {
        matches!(self, Queue::Batched { .. })
    }

    /// Returns a spent batch buffer to the pool.
    fn recycle(&mut self, mut batch: Vec<Delta>) {
        if let Queue::Batched { pool, .. } = self {
            if pool.len() < BATCH_POOL_CAP {
                batch.clear();
                pool.push(batch);
            }
        }
    }
}

/// Execution statistics for one fixpoint run.
///
/// Lifecycle: every successful [`Dataflow::run`] reports exactly the
/// work performed by that call — the scheduler tallies are locals and
/// the per-operator counters ([`crate::ops::OpCounters`]) are drained
/// into the result at the end of the run. A failed run (any
/// [`DataflowError`]) reports nothing and poisons the dataflow, so no
/// later run drains what it left in the operators.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Individual deltas dequeued and processed (post-coalescing).
    pub deltas_processed: u64,
    /// Batches dequeued (equals `deltas_processed` in per-delta mode).
    pub batches_processed: u64,
    /// Deltas emitted by operators.
    pub deltas_emitted: u64,
    /// Join-input deltas that needed the opposite index consulted.
    pub join_probe_deltas: u64,
    /// Always `join_probe_deltas`: every join delta probes the opposite
    /// index once. Kept for readers of the field.
    pub join_probes: u64,
    /// Always 0: the scheduler chains a batch through a sole stateless
    /// consumer instead of merging operators at build time, and counts
    /// each chained hop as a batch. Kept for readers of the field.
    pub fused_stages_saved: u64,
    /// The committed-epoch number this run produced (1-based, counting
    /// only successful runs over the dataflow's lifetime).
    pub epoch: u64,
    /// Always 0: a failed run poisons the dataflow instead of rolling
    /// back, so no successful run follows one. Kept for readers of the
    /// field.
    pub rollbacks: u64,
}

/// One node's lifetime service counters (see [`Dataflow::node_stats`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeStats {
    /// The operator name, tagged with its rule or relation by the
    /// compiler (`join[D8]`, `distinct[PlanCost]`).
    pub label: String,
    /// Batches the node serviced.
    pub batches: u64,
    /// Deltas in those batches, after coalescing. Summed over all
    /// nodes this is [`RunStats::deltas_processed`] summed over all
    /// runs, failed ones included.
    pub deltas: u64,
    /// Deltas the node emitted (each counted once, however many
    /// consumers it has).
    pub emitted: u64,
    /// Rows the node holds right now ([`Operator::state_rows`], or a
    /// sink's contents); 0 for stateless nodes.
    pub state_rows: u64,
    /// Whether batches queued for the node are coalesced first — false
    /// for stateless operators and for ports
    /// [`Dataflow::prove_consolidated`] proved consolidated.
    pub coalesces: bool,
}

/// A (possibly cyclic) dataflow of delta-processing operators.
pub struct Dataflow {
    nodes: Vec<Node>,
    sinks: Vec<Multiset>,
    queue: Queue,
    /// Reused by batch coalescing; trimmed once per run, so it holds
    /// no more than the last run's largest batch needed.
    scratch: CoalesceScratch,
    max_steps: u64,
    /// Set by graph mutations; cleared by
    /// [`Dataflow::prove_consolidated`].
    graph_dirty: bool,
    /// Topological service rank per node (lower = closer to the
    /// sources; members of one strongly connected component share a
    /// rank). Drives the batched queue's service order.
    ranks: Vec<u32>,
    /// Set by graph mutations; cleared by [`Dataflow::ensure_ranks`].
    ranks_dirty: bool,
    /// Committed epochs (successful runs) so far.
    epoch: u64,
    /// The first error a run returned. Once set, every later run
    /// returns it without dispatching anything.
    poisoned: Option<DataflowError>,
    /// Armed chaos-testing fault injector (see [`FaultPlan`]).
    fault_plan: Option<FaultPlan>,
}

impl Default for Dataflow {
    fn default() -> Dataflow {
        Dataflow::new()
    }
}

impl Dataflow {
    pub fn new() -> Dataflow {
        Dataflow::with_mode(SchedulerMode::Batched)
    }

    /// Builds a dataflow with an explicit scheduler mode.
    pub fn with_mode(mode: SchedulerMode) -> Dataflow {
        Dataflow {
            nodes: Vec::new(),
            sinks: Vec::new(),
            queue: Queue::new(mode),
            scratch: CoalesceScratch::default(),
            max_steps: 50_000_000,
            graph_dirty: false,
            ranks: Vec::new(),
            ranks_dirty: false,
            epoch: 0,
            poisoned: None,
            fault_plan: None,
        }
    }

    /// Overrides the non-termination guard.
    pub fn set_max_steps(&mut self, max: u64) {
        self.max_steps = max;
    }

    /// Arms (or with `None` disarms) a deterministic fault injector:
    /// the next run(s) fail with [`DataflowError::InjectedFault`] when
    /// the plan's trigger step is reached. The failed run poisons the
    /// dataflow exactly like any other error.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault_plan = plan;
    }

    /// Declares a release order on `node` (batched mode; per-delta mode
    /// ignores it): a delta pending for the node whose tuple holds
    /// `Int(v)` in `column` is held in stratum `strata[v]` (0 for any
    /// other value), and among the pending work of one strongly
    /// connected component the lowest stratum is serviced first —
    /// nodes without a release order count as stratum 0. Deltas held
    /// for a later stratum keep coalescing, so when `strata` follows
    /// the data's well-founded order (everything a row is derived from
    /// sits in a lower stratum) the node never sees a transient. It is
    /// purely a schedule: any table reaches the same fixpoint.
    pub fn set_release_order(&mut self, node: NodeId, column: usize, strata: Vec<u32>) {
        self.nodes[node.0].release = Some(ReleaseOrder { column, strata });
    }

    /// Committed epochs (successful runs) so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Declares an external input relation.
    pub fn add_input(&mut self, label: &str) -> NodeId {
        self.push_node(NodeKind::Input, true, false, label)
    }

    /// Adds an operator wired so that `inputs[i]` feeds port `i`.
    pub fn add_op(&mut self, op: impl Operator + 'static, inputs: &[NodeId]) -> NodeId {
        assert_eq!(
            op.arity(),
            inputs.len(),
            "operator `{}` expects {} inputs",
            op.name(),
            op.arity()
        );
        let label = op.name().to_string();
        let coalesce = op.coalesces_input();
        let fanout = op.sync_fanout();
        let id = self.push_node(NodeKind::Op(Box::new(op)), coalesce, fanout, &label);
        for (port, input) in inputs.iter().enumerate() {
            self.connect(*input, id, port);
        }
        id
    }

    /// Adds an operator with *no* inputs wired yet — used to build cycles
    /// (connect the back-edge afterwards with [`Dataflow::connect`]).
    pub fn add_op_unwired(&mut self, op: impl Operator + 'static) -> NodeId {
        let label = op.name().to_string();
        let coalesce = op.coalesces_input();
        let fanout = op.sync_fanout();
        self.push_node(NodeKind::Op(Box::new(op)), coalesce, fanout, &label)
    }

    /// Wires `from`'s output into `to`'s input `port`. Cycles are
    /// allowed.
    pub fn connect(&mut self, from: NodeId, to: NodeId, port: usize) {
        self.graph_dirty = true;
        self.ranks_dirty = true;
        self.nodes[from.0].downstream.push((to.0, port));
    }

    /// Adds a materialization sink reading `from`.
    pub fn add_sink(&mut self, from: NodeId) -> SinkId {
        let sink_idx = self.sinks.len();
        self.sinks.push(Multiset::new());
        let id = self.push_node(NodeKind::Sink(sink_idx), false, false, "sink");
        self.connect(from, id, 0);
        SinkId(sink_idx)
    }

    fn push_node(
        &mut self,
        kind: NodeKind,
        coalesce_input: bool,
        sync_fanout: bool,
        label: &str,
    ) -> NodeId {
        self.graph_dirty = true;
        self.ranks_dirty = true;
        self.nodes.push(Node {
            kind,
            downstream: Vec::new(),
            coalesce_input,
            sync_fanout,
            label: label.to_string(),
            release: None,
            stat_batches: 0,
            stat_deltas: 0,
            stat_emitted: 0,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Queues a batch of deltas on an input relation (processed by the
    /// next [`Dataflow::run`]): one target check, one rank refresh and
    /// one queue bucket for all of them. Fails with
    /// [`DataflowError::InvalidWiring`] if the target is not an input
    /// node.
    pub fn try_extend(
        &mut self,
        input: NodeId,
        deltas: impl Iterator<Item = Delta>,
    ) -> Result<(), DataflowError> {
        if !matches!(self.nodes[input.0].kind, NodeKind::Input) {
            return Err(DataflowError::InvalidWiring(format!(
                "push target `{}` is not an input",
                self.nodes[input.0].label
            )));
        }
        // An empty batch must not mark the input dirty.
        let mut deltas = deltas.peekable();
        if deltas.peek().is_some() {
            self.ensure_ranks();
            self.enqueue(input.0, 0, deltas);
        }
        Ok(())
    }

    /// [`Dataflow::try_extend`] with one delta.
    pub fn try_push(&mut self, input: NodeId, delta: Delta) -> Result<(), DataflowError> {
        self.try_extend(input, std::iter::once(delta))
    }

    /// Queues `deltas` for `(node, port)` under the node's service rank
    /// and release order (ranks must be current).
    fn enqueue(&mut self, node: usize, port: usize, deltas: impl Iterator<Item = Delta>) {
        let rank = self.ranks.get(node).copied().unwrap_or(0);
        let release = self.nodes[node].release.as_ref();
        self.queue.push(rank, node, port, release, deltas);
    }

    /// Panicking convenience over [`Dataflow::try_push`].
    pub fn push(&mut self, input: NodeId, delta: Delta) {
        self.try_push(input, delta).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Recomputes topological service ranks if the graph changed:
    /// Tarjan's algorithm (iterative) finds strongly connected
    /// components in reverse topological order of the condensation;
    /// every node of one component shares its rank.
    fn ensure_ranks(&mut self) {
        if !self.ranks_dirty && self.ranks.len() == self.nodes.len() {
            return;
        }
        self.ranks_dirty = false;
        let n = self.nodes.len();
        const UNDISCOVERED: u32 = u32::MAX;
        let mut index = vec![UNDISCOVERED; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut scc_of = vec![0u32; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut call: Vec<(usize, usize)> = Vec::new();
        let mut next_index = 0u32;
        let mut scc_count = 0u32;
        for start in 0..n {
            if index[start] != UNDISCOVERED {
                continue;
            }
            index[start] = next_index;
            low[start] = next_index;
            next_index += 1;
            stack.push(start);
            on_stack[start] = true;
            call.push((start, 0));
            while let Some((v, ei)) = call.last_mut() {
                let v = *v;
                if *ei < self.nodes[v].downstream.len() {
                    let (w, _) = self.nodes[v].downstream[*ei];
                    *ei += 1;
                    if index[w] == UNDISCOVERED {
                        index[w] = next_index;
                        low[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        call.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    call.pop();
                    if let Some(&(u, _)) = call.last() {
                        low[u] = low[u].min(low[v]);
                    }
                    if low[v] == index[v] {
                        loop {
                            let w = stack.pop().expect("SCC stack underflow");
                            on_stack[w] = false;
                            scc_of[w] = scc_count;
                            if w == v {
                                break;
                            }
                        }
                        scc_count += 1;
                    }
                }
            }
        }
        // Components were emitted consumers-first; invert so sources
        // get the lowest rank.
        self.ranks = scc_of.iter().map(|&s| scc_count - 1 - s).collect();
    }

    pub fn insert(&mut self, input: NodeId, tuple: Tuple) {
        self.push(input, Delta::insert(tuple));
    }

    pub fn delete(&mut self, input: NodeId, tuple: Tuple) {
        self.push(input, Delta::delete(tuple));
    }

    /// The build-time proof over the wired graph: a port whose only
    /// producer emits consolidated batches (an input, an
    /// [`Operator::emits_consolidated`] operator) and that holds no
    /// release order stops coalescing, since nothing could merge.
    /// Idempotent; [`Dataflow::run`] calls it in batched mode whenever
    /// the graph changed since the last call.
    pub fn prove_consolidated(&mut self) {
        self.graph_dirty = false;
        let n = self.nodes.len();
        let mut fed_by_one = vec![false; n];
        // Whether every incoming edge so far comes from a consolidated
        // producer, one producer per port.
        let mut consolidated = vec![true; n];
        let mut fed: FxHashSet<(usize, usize)> = FxHashSet::default();
        for node in &self.nodes {
            let emits = match &node.kind {
                NodeKind::Input => true,
                NodeKind::Op(op) => op.emits_consolidated(),
                NodeKind::Sink(_) => false,
            };
            for &(t, p) in &node.downstream {
                fed_by_one[t] = true;
                if !emits || !fed.insert((t, p)) {
                    consolidated[t] = false;
                }
            }
        }
        for (i, node) in self.nodes.iter_mut().enumerate() {
            let proven = fed_by_one[i] && consolidated[i] && node.release.is_none();
            if let NodeKind::Op(op) = &node.kind {
                node.coalesce_input = op.coalesces_input() && !proven;
            }
        }
    }

    /// Per-node lifetime service counters in node order — the
    /// profiling view behind "where do epochs spend their deltas".
    /// They count work attempted, a failed run's included.
    pub fn node_stats(&self) -> Vec<NodeStats> {
        self.nodes
            .iter()
            .map(|n| NodeStats {
                label: n.label.clone(),
                batches: n.stat_batches,
                deltas: n.stat_deltas,
                emitted: n.stat_emitted,
                state_rows: match &n.kind {
                    NodeKind::Op(op) => op.state_rows() as u64,
                    NodeKind::Sink(idx) => self.sinks[*idx].len() as u64,
                    NodeKind::Input => 0,
                },
                coalesces: n.coalesce_input,
            })
            .collect()
    }

    /// What the batch consolidator holds (diagnostic): bounded by the
    /// largest batch of the last run, whatever ran before it.
    pub fn consolidator_footprint(&self) -> ConsolidatorFootprint {
        self.scratch.footprint()
    }

    /// Runs to fixpoint (empty queue) as one **epoch**. On any
    /// [`DataflowError`] the dataflow is **poisoned**: operator state is
    /// left wherever the failure found it, the error is kept, and every
    /// later call returns that same error without dispatching anything,
    /// so no partial state is ever run on. A caller recovers by building
    /// a fresh dataflow.
    pub fn run(&mut self) -> Result<RunStats, DataflowError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        let batched = self.queue.is_batched();
        if batched && self.graph_dirty {
            self.prove_consolidated();
        }
        self.ensure_ranks();
        let mut stats = RunStats::default();
        let result = self.fixpoint(batched, &mut stats);
        self.scratch.trim();
        if let Err(e) = result {
            self.poisoned = Some(e.clone());
            return Err(e);
        }
        self.epoch += 1;
        stats.epoch = self.epoch;
        for node in &mut self.nodes {
            if let NodeKind::Op(op) = &mut node.kind {
                let c = op.take_counters();
                stats.join_probe_deltas += c.join_probe_deltas;
            }
        }
        stats.join_probes = stats.join_probe_deltas;
        Ok(stats)
    }

    /// Books a batch of `n` deltas `node` is about to service — popped
    /// from the queue or handed over inside [`Dataflow::dispatch`] — on
    /// the run and on the node, and checks the step budget and the
    /// armed fault plan.
    fn admit(
        &mut self,
        node: usize,
        n: usize,
        stats: &mut RunStats,
        armed: bool,
    ) -> Result<(), DataflowError> {
        stats.batches_processed += 1;
        stats.deltas_processed += n as u64;
        self.nodes[node].stat_batches += 1;
        self.nodes[node].stat_deltas += n as u64;
        let step = stats.deltas_processed;
        if step > self.max_steps {
            return Err(DataflowError::FixpointOverrun {
                steps: self.max_steps,
            });
        }
        if armed && self.fault_plan.as_mut().is_some_and(|plan| plan.fire(step)) {
            return Err(DataflowError::InjectedFault { step });
        }
        Ok(())
    }

    /// The fixpoint loop proper. Any error leaves partially-applied
    /// operator state behind — the caller ([`Dataflow::run`]) poisons
    /// the dataflow before surfacing it.
    fn fixpoint(&mut self, batched: bool, stats: &mut RunStats) -> Result<(), DataflowError> {
        let mut out: Vec<Delta> = Vec::new();
        let mut chain: Vec<Delta> = Vec::new();
        // Armed-ness cannot change mid-run; a local flag keeps the
        // disarmed hot path to one predictable branch per batch.
        let armed = self.fault_plan.is_some();
        while let Some((node, port, mut batch)) = self.queue.pop() {
            if batched && self.nodes[node].coalesce_input {
                coalesce(&mut batch, &mut self.scratch);
                if batch.is_empty() {
                    self.queue.recycle(batch);
                    continue;
                }
            }
            self.admit(node, batch.len(), stats, armed)?;
            out.clear();
            match &mut self.nodes[node].kind {
                // Inputs and pass-through operators forward the batch by
                // move — no per-delta clone.
                NodeKind::Input => out.append(&mut batch),
                NodeKind::Op(op) if op.is_passthrough() => {
                    assert!(port < op.arity(), "port {port} out of range");
                    out.append(&mut batch);
                }
                NodeKind::Op(op) => op.on_batch(port, &batch, &mut out)?,
                NodeKind::Sink(idx) => {
                    let sink = &mut self.sinks[*idx];
                    for d in &batch {
                        sink.apply(d);
                    }
                    self.queue.recycle(batch);
                    continue;
                }
            }
            self.queue.recycle(batch);
            self.dispatch(node, &mut out, &mut chain, stats, armed)?;
        }
        Ok(())
    }

    /// Routes an output batch downstream. Sinks absorb it in place (they
    /// emit nothing, so a queue round trip would only copy). A sole
    /// non-sink consumer that is a stateless non-coalescing operator
    /// (`Map`, `ExternalFn`, `Union`) is *chained*: processed immediately in this
    /// scheduling step, with no queue round trip — the loop then
    /// continues from that operator's output. Everything else is
    /// enqueued; the last non-sink edge takes the deltas by move.
    fn dispatch(
        &mut self,
        from: usize,
        out: &mut Vec<Delta>,
        chain: &mut Vec<Delta>,
        stats: &mut RunStats,
        armed: bool,
    ) -> Result<(), DataflowError> {
        let mut node = from;
        while !out.is_empty() {
            stats.deltas_emitted += out.len() as u64;
            self.nodes[node].stat_emitted += out.len() as u64;
            // Lent out for the step and handed back whatever happens:
            // a failed step must not cost the graph its edges.
            let downstream = std::mem::take(&mut self.nodes[node].downstream);
            let next = self.route(node, &downstream, out, chain, stats, armed);
            self.nodes[node].downstream = downstream;
            match next? {
                Some(target) => node = target,
                None => break,
            }
        }
        Ok(())
    }

    /// One step of [`Dataflow::dispatch`] over `node`'s edges. Returns
    /// the consumer `out` was chained through (it then holds that
    /// consumer's output), or `None` once the batch is fully delivered.
    fn route(
        &mut self,
        node: usize,
        downstream: &[(usize, usize)],
        out: &mut Vec<Delta>,
        chain: &mut Vec<Delta>,
        stats: &mut RunStats,
        armed: bool,
    ) -> Result<Option<usize>, DataflowError> {
        for &(target, _) in downstream {
            if let NodeKind::Sink(idx) = self.nodes[target].kind {
                let sink = &mut self.sinks[idx];
                for d in out.iter() {
                    sink.apply(d);
                }
            }
        }
        let queued = |nodes: &[Node], t: usize| !matches!(nodes[t].kind, NodeKind::Sink(_));
        // Sync fanout: the producer (an `Arrange`) requires its batch
        // to reach every consumer within this same dispatch, so the
        // shared-index update it just applied and the attached joins'
        // probes form one atomic step — under any scheduler mode.
        // Each consumer's own output is routed recursively; recursion
        // depth is bounded by the number of arrange nodes on an
        // acyclic path (consumers themselves enqueue normally).
        if self.nodes[node].sync_fanout {
            for &(target, tport) in downstream {
                if matches!(self.nodes[target].kind, NodeKind::Sink(_)) {
                    continue; // sinks absorbed above
                }
                self.admit(target, out.len(), stats, armed)?;
                let mut fan_out: Vec<Delta> = Vec::new();
                match &mut self.nodes[target].kind {
                    NodeKind::Op(op) if !op.is_passthrough() => {
                        op.on_batch(tport, out, &mut fan_out)?
                    }
                    _ => fan_out.extend(out.iter().cloned()),
                }
                self.dispatch(target, &mut fan_out, &mut Vec::new(), stats, armed)?;
            }
            out.clear();
            return Ok(None);
        }
        let mut non_sink = downstream.iter().filter(|&&(t, _)| queued(&self.nodes, t));
        // Chain through a sole stateless consumer (batched mode only —
        // per-delta mode keeps the reference FIFO schedule).
        if let (true, Some(&(target, tport)), None) =
            (self.queue.is_batched(), non_sink.next(), non_sink.next())
        {
            if matches!(&self.nodes[target].kind, NodeKind::Op(op) if !op.coalesces_input()) {
                self.admit(target, out.len(), stats, armed)?;
                if let NodeKind::Op(op) = &mut self.nodes[target].kind {
                    assert!(tport < op.arity(), "port {tport} out of range");
                    if !op.is_passthrough() {
                        chain.clear();
                        op.on_batch(tport, out, chain)?;
                        std::mem::swap(out, chain);
                    }
                }
                return Ok(Some(target));
            }
        }
        let last_queued = downstream.iter().rposition(|&(t, _)| queued(&self.nodes, t));
        for (i, &(target, tport)) in downstream.iter().enumerate() {
            if !queued(&self.nodes, target) {
                continue;
            }
            if Some(i) == last_queued {
                self.enqueue(target, tport, out.drain(..));
            } else {
                self.enqueue(target, tport, out.iter().cloned());
            }
        }
        Ok(None)
    }

    /// Reads a sink's current contents.
    pub fn sink(&self, id: SinkId) -> &Multiset {
        &self.sinks[id.0]
    }

    fn operator(&self, node: NodeId) -> Option<&dyn Operator> {
        match &self.nodes[node.0].kind {
            NodeKind::Op(op) => Some(op.as_ref()),
            _ => None,
        }
    }

    /// The ordered state the `GroupAgg` at `node` holds for the group
    /// at `key` ([`Operator::group_state`]); `None` at any other node.
    /// Like [`Dataflow::sink`], a read of committed state between runs.
    pub fn group_state(&self, node: NodeId, key: &Tuple) -> Option<&OrderedMultiset> {
        self.operator(node)?.group_state(key)
    }

    /// The counted relation the `Distinct` at `node` gates
    /// ([`Operator::distinct_state`]); `None` at any other node.
    pub fn distinct_state(&self, node: NodeId) -> Option<&Multiset> {
        self.operator(node)?.distinct_state()
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Appends `suffix` to the display label of every node from index
    /// `first` on (e.g. the compiler tags each rule's operators with
    /// the rule label, so profiling output reads `join[D8]` instead of
    /// a bare `join`).
    pub fn label_suffix_from(&mut self, first: usize, suffix: &str) {
        for n in &mut self.nodes[first..] {
            n.label.push('[');
            n.label.push_str(suffix);
            n.label.push(']');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggKind;
    use crate::ops::{Arrange, Distinct, GroupAgg, HashJoin, Map, Union};
    use crate::value::ints;

    #[test]
    fn linear_pipeline_filter_project() {
        let mut df = Dataflow::new();
        let input = df.add_input("r");
        let filtered = df.add_op(Map::filter(|t| t.get(0).as_int() % 2 == 0), &[input]);
        let projected = df.add_op(Map::project(vec![1]), &[filtered]);
        let sink = df.add_sink(projected);
        for i in 0..6 {
            df.insert(input, ints(&[i, i * 10]));
        }
        df.run().unwrap();
        assert_eq!(
            df.sink(sink).sorted(),
            vec![ints(&[0]), ints(&[20]), ints(&[40])]
        );
    }

    #[test]
    fn incremental_join_matches_naive_semantics() {
        let mut df = Dataflow::new();
        let r = df.add_input("r");
        let s = df.add_input("s");
        let j = df.add_op(HashJoin::new(vec![0], vec![0]), &[r, s]);
        let sink = df.add_sink(j);
        df.insert(r, ints(&[1, 10]));
        df.insert(s, ints(&[1, 100]));
        df.insert(s, ints(&[2, 200]));
        df.run().unwrap();
        assert_eq!(df.sink(sink).sorted(), vec![ints(&[1, 10, 1, 100])]);
        // Add a matching left tuple for key 2; retract the key-1 right.
        df.insert(r, ints(&[2, 20]));
        df.delete(s, ints(&[1, 100]));
        df.run().unwrap();
        assert_eq!(df.sink(sink).sorted(), vec![ints(&[2, 20, 2, 200])]);
    }

    #[test]
    fn node_stats_report_the_rows_each_node_holds() {
        let mut df = Dataflow::new();
        let r = df.add_input("r");
        let s = df.add_input("s");
        let d = df.add_op(Distinct::new(), &[r]);
        let j = df.add_op(HashJoin::new(vec![0], vec![0]), &[d, s]);
        let agg = df.add_op(GroupAgg::new(vec![0], 1, AggKind::Min), &[s]);
        df.add_sink(j);
        df.add_sink(agg);
        for t in [[1, 10], [1, 10], [2, 20]] {
            df.insert(r, ints(&t));
        }
        for t in [[1, 5], [1, 6], [3, 7]] {
            df.insert(s, ints(&t));
        }
        df.run().unwrap();
        let rows: Vec<(String, u64)> = df
            .node_stats()
            .into_iter()
            .map(|n| (n.label, n.state_rows))
            .collect();
        let want = [
            // Inputs hold nothing.
            ("r", 0),
            ("s", 0),
            ("distinct", 2),  // (1,10), (2,20)
            ("join", 2 + 3),  // both owned sides
            ("group-agg", 3), // values 5 and 6 under key 1, 7 under key 3
            ("sink", 2),      // (1,10) ⋈ {(1,5), (1,6)}
            ("sink", 2),      // min per key
        ];
        assert_eq!(
            rows,
            want.map(|(l, n)| (l.to_string(), n)),
            "label → state_rows"
        );
        // Retractions give the rows back.
        df.delete(s, ints(&[1, 5]));
        df.delete(s, ints(&[1, 6]));
        df.run().unwrap();
        // distinct 2, join 2 + 1, group-agg 1, join sink 0, agg sink 1.
        let held: u64 = df.node_stats().iter().map(|n| n.state_rows).sum();
        assert_eq!(held, 7);
    }

    #[test]
    fn node_stats_account_for_every_serviced_delta() {
        // Also for consumers serviced inside `dispatch`: a join behind
        // its `Arrange`, the chained `Map`s behind the join and the gate.
        let mut df = Dataflow::new();
        let (r, s) = (df.add_input("r"), df.add_input("s"));
        let arrange = Arrange::new(vec![0]);
        let join = HashJoin::new(vec![0], vec![0]).share_left(arrange.handle());
        let arranged = df.add_op(arrange, &[r]);
        let joined = df.add_op(join, &[arranged, s]);
        let tail = df.add_op(Map::project(vec![1, 3]), &[joined]);
        let gate = df.add_op(Distinct::new(), &[tail]);
        let chained = df.add_op(Map::project(vec![0]), &[gate]);
        df.add_sink(chained);
        let mut processed = 0;
        for k in 0..4 {
            df.insert(r, ints(&[k % 2, k]));
            df.insert(s, ints(&[k % 2, 10 + k]));
            processed += df.run().unwrap().deltas_processed;
        }
        let stats = df.node_stats();
        assert_eq!(stats.iter().map(|n| n.deltas).sum::<u64>(), processed);
        assert!(stats[joined.0].deltas > 0 && stats[chained.0].deltas > 0);
        // The join's tail serviced exactly what the join emitted, and
        // the gate exactly what the tail emitted.
        assert_eq!(stats[tail.0].label, "map");
        assert_eq!(stats[tail.0].deltas, stats[joined.0].emitted);
        assert_eq!(stats[tail.0].emitted, stats[gate.0].deltas);
    }

    #[test]
    fn coalescing_stops_only_where_the_producer_proves_it() {
        let mut df = Dataflow::new();
        let r = df.add_input("r");
        let agg = || GroupAgg::new(vec![0], 1, AggKind::Min);
        let set = df.add_op(Distinct::new(), &[r]); // fed by an input alone
        let best = df.add_op(agg(), &[set]); // fed by a `Distinct` alone
        let held = df.add_op(agg(), &[set]); // the same, behind a release order
        df.set_release_order(held, 0, vec![1]);
        let both = df.add_op(Union::new(2), &[set, best]);
        let merged = df.add_op(Distinct::new(), &[both]); // two producers
        let join = df.add_op(HashJoin::new(vec![0], vec![0]), &[set, best]);
        let joined = df.add_op(Distinct::new(), &[join]); // a join proves nothing
        df.prove_consolidated();
        let stats = df.node_stats();
        let coalesces = [set, best, held, merged, join, joined].map(|n| stats[n.0].coalesces);
        assert_eq!(coalesces, [false, false, true, true, false, true]);
    }

    /// Builds the classic transitive-closure program:
    /// `path(x,y) :- edge(x,y)`,
    /// `path(x,z) :- path(x,y), edge(y,z)`.
    fn tc_mode(mode: SchedulerMode) -> (Dataflow, NodeId, SinkId) {
        let mut df = Dataflow::with_mode(mode);
        let edge = df.add_input("edge");
        let union = df.add_op_unwired(Union::new(2));
        df.connect(edge, union, 0);
        let path = df.add_op(Distinct::new(), &[union]);
        // join path(x,y) [port 0, key col 1=y] with edge(y,z) [port 1,
        // key col 0=y] -> (x,y,y,z), project (x,z), feed back.
        let join = df.add_op_unwired(HashJoin::new(vec![1], vec![0]));
        df.connect(path, join, 0);
        df.connect(edge, join, 1);
        let proj = df.add_op(Map::project(vec![0, 3]), &[join]);
        df.connect(proj, union, 1);
        let sink = df.add_sink(path);
        (df, edge, sink)
    }

    fn tc() -> (Dataflow, NodeId, SinkId) {
        tc_mode(SchedulerMode::Batched)
    }

    #[test]
    fn transitive_closure_chain() {
        let (mut df, edge, sink) = tc();
        df.insert(edge, ints(&[1, 2]));
        df.insert(edge, ints(&[2, 3]));
        df.insert(edge, ints(&[3, 4]));
        df.run().unwrap();
        let got = df.sink(sink).sorted();
        assert_eq!(got.len(), 6); // 12,13,14,23,24,34
        assert!(got.contains(&ints(&[1, 4])));
    }

    #[test]
    fn transitive_closure_incremental_insert() {
        let (mut df, edge, sink) = tc();
        df.insert(edge, ints(&[1, 2]));
        df.insert(edge, ints(&[3, 4]));
        df.run().unwrap();
        assert_eq!(df.sink(sink).len(), 2);
        // Bridging edge triggers recursive derivations.
        df.insert(edge, ints(&[2, 3]));
        let stats = df.run().unwrap();
        assert!(stats.deltas_processed > 0);
        assert_eq!(df.sink(sink).len(), 6);
    }

    #[test]
    fn transitive_closure_incremental_delete_on_dag() {
        let (mut df, edge, sink) = tc();
        for (a, b) in [(1, 2), (2, 3), (3, 4), (1, 3)] {
            df.insert(edge, ints(&[a, b]));
        }
        df.run().unwrap();
        assert_eq!(df.sink(sink).len(), 6);
        // Deleting 2->3 removes path(2,3), path(2,4); but 1->3, 1->4
        // survive through the 1->3 edge (counting handles the multiple
        // derivations).
        df.delete(edge, ints(&[2, 3]));
        df.run().unwrap();
        let got = df.sink(sink).sorted();
        assert_eq!(
            got,
            vec![
                ints(&[1, 2]),
                ints(&[1, 3]),
                ints(&[1, 4]),
                ints(&[3, 4]),
            ]
        );
    }

    #[test]
    fn cyclic_data_insertions_terminate_via_distinct() {
        let (mut df, edge, sink) = tc();
        df.insert(edge, ints(&[1, 2]));
        df.insert(edge, ints(&[2, 1]));
        df.run().unwrap();
        let got = df.sink(sink).sorted();
        assert_eq!(
            got,
            vec![ints(&[1, 1]), ints(&[1, 2]), ints(&[2, 1]), ints(&[2, 2])]
        );
    }

    #[test]
    fn per_delta_mode_reaches_same_closure() {
        for mode in [SchedulerMode::Batched, SchedulerMode::PerDelta] {
            let (mut df, edge, sink) = tc_mode(mode);
            for (a, b) in [(1, 2), (2, 3), (3, 4), (1, 3)] {
                df.insert(edge, ints(&[a, b]));
            }
            df.run().unwrap();
            df.delete(edge, ints(&[2, 3]));
            df.run().unwrap();
            assert_eq!(df.sink(sink).len(), 4, "{mode:?}");
            assert!(!df.sink(sink).has_negative_counts(), "{mode:?}");
        }
    }

    #[test]
    fn batching_coalesces_cancelling_external_deltas() {
        // An insert+delete of the same tuple queued before one `run`
        // cancels in the queue: the batched scheduler does no work.
        let (mut df, edge, _sink) = tc();
        df.insert(edge, ints(&[1, 2]));
        df.delete(edge, ints(&[1, 2]));
        let stats = df.run().unwrap();
        assert_eq!(stats.deltas_processed, 0);
        assert_eq!(stats.batches_processed, 0);
    }

    #[test]
    fn batching_merges_same_destination_deltas() {
        // 64 edge inserts become ONE input batch (and far fewer queue
        // pops than the per-delta scheduler's one-entry-per-delta).
        let (mut df, edge, sink) = tc();
        let (mut pd, pd_edge, pd_sink) = tc_mode(SchedulerMode::PerDelta);
        for i in 0..16 {
            df.insert(edge, ints(&[i, i + 1]));
            pd.insert(pd_edge, ints(&[i, i + 1]));
        }
        let b = df.run().unwrap();
        let p = pd.run().unwrap();
        assert_eq!(df.sink(sink).sorted(), pd.sink(pd_sink).sorted());
        assert!(
            b.batches_processed * 4 < p.batches_processed,
            "batching didn't shrink scheduling: {} vs {}",
            b.batches_processed,
            p.batches_processed
        );
    }

    #[test]
    fn min_view_maintenance_end_to_end() {
        // min-cost per key, maintained under insert/delete.
        let mut df = Dataflow::new();
        let costs = df.add_input("costs");
        let agg = df.add_op(GroupAgg::new(vec![0], 1, AggKind::Min), &[costs]);
        let sink = df.add_sink(agg);
        df.insert(costs, ints(&[1, 30]));
        df.insert(costs, ints(&[1, 10]));
        df.insert(costs, ints(&[1, 20]));
        df.run().unwrap();
        assert_eq!(df.sink(sink).sorted(), vec![ints(&[1, 10])]);
        df.delete(costs, ints(&[1, 10]));
        df.run().unwrap();
        assert_eq!(df.sink(sink).sorted(), vec![ints(&[1, 20])]);
    }

    #[test]
    fn overrun_guard_reports_nontermination() {
        // A pathological self-amplifying loop: map feeding itself.
        let mut df = Dataflow::new();
        let input = df.add_input("r");
        let echo = df.add_op_unwired(Map::new(|t| Some(t.clone())));
        df.connect(input, echo, 0);
        df.connect(echo, echo, 0); // no distinct gate: never terminates
        df.set_max_steps(10_000);
        df.insert(input, ints(&[1]));
        assert!(df.run().is_err());
    }

    /// A join+distinct network for the stats-lifecycle tests.
    fn join_net() -> (Dataflow, NodeId, NodeId, SinkId) {
        let mut df = Dataflow::new();
        let l = df.add_input("l");
        let r = df.add_input("r");
        let j = df.add_op(HashJoin::new(vec![0], vec![0]), &[l, r]);
        let d = df.add_op(Distinct::new(), &[j]);
        let sink = df.add_sink(d);
        (df, l, r, sink)
    }

    #[test]
    fn run_stats_cover_exactly_one_successful_run() {
        let (mut df, l, r, _sink) = join_net();
        df.insert(r, ints(&[1, 20]));
        df.insert(l, ints(&[1, 10]));
        let stats = df.run().unwrap();
        assert!(stats.join_probe_deltas >= 2);
        assert_eq!(stats.join_probes, stats.join_probe_deltas);
        // An empty follow-up run reports no counters: nothing leaked
        // out of the operators from the previous run.
        let expected = RunStats {
            epoch: 2,
            ..RunStats::default()
        };
        assert_eq!(df.run().unwrap(), expected);
    }

    /// A failed run keeps its error: every later run returns it and
    /// services nothing, whatever the budget, the fault plan or the
    /// input queued since — in both scheduler modes.
    #[test]
    fn a_failed_run_poisons_the_dataflow() {
        let serviced = |df: &Dataflow| df.node_stats().iter().map(|n| n.batches).sum::<u64>();
        for mode in [SchedulerMode::Batched, SchedulerMode::PerDelta] {
            let (mut df, edge, sink) = tc_mode(mode);
            df.insert(edge, ints(&[1, 2]));
            df.run().unwrap();
            df.insert(edge, ints(&[2, 3]));
            df.set_fault_plan(Some(FaultPlan::one_shot(2)));
            let err = df.run().unwrap_err();
            assert!(matches!(err, DataflowError::InjectedFault { .. }), "{mode:?}: {err:?}");
            let before = (serviced(&df), df.sink(sink).sorted());
            df.set_fault_plan(None);
            df.set_max_steps(1_000_000);
            df.insert(edge, ints(&[3, 4]));
            for _ in 0..2 {
                assert_eq!(df.run().unwrap_err(), err, "{mode:?}");
            }
            assert_eq!((serviced(&df), df.sink(sink).sorted()), before, "{mode:?}");
            assert_eq!(df.epoch(), 1, "{mode:?}");
        }
        // An overrun poisons the same way.
        let (mut df, l, r, _sink) = join_net();
        df.set_max_steps(2);
        df.insert(l, ints(&[1, 10]));
        df.insert(r, ints(&[1, 20]));
        let err = df.run().unwrap_err();
        assert_eq!(err, DataflowError::FixpointOverrun { steps: 2 });
        df.set_max_steps(1_000_000);
        assert_eq!(df.run().unwrap_err(), err);
    }

    #[test]
    fn epoch_counters_track_commits_and_rollbacks() {
        // `epoch` counts successful runs only; `rollbacks` stays 0, as a
        // failed run poisons the dataflow instead of rolling it back.
        let (mut df, edge, _sink) = tc();
        assert_eq!(df.epoch(), 0);
        for (n, row) in [[1, 2], [2, 3]].iter().enumerate() {
            df.insert(edge, ints(row));
            let stats = df.run().unwrap();
            assert_eq!((stats.epoch, stats.rollbacks), (n as u64 + 1, 0));
        }
        df.insert(edge, ints(&[3, 4]));
        df.set_fault_plan(Some(FaultPlan::one_shot(1)));
        assert!(df.run().is_err());
        assert_eq!(df.epoch(), 2);
    }

    #[test]
    fn per_delta_mode_services_one_batch_per_hop() {
        let mut df = Dataflow::with_mode(SchedulerMode::PerDelta);
        let input = df.add_input("r");
        let a = df.add_op(Map::project(vec![0]), &[input]);
        let b = df.add_op(Map::project(vec![0]), &[a]);
        let sink = df.add_sink(b);
        df.insert(input, ints(&[7]));
        let stats = df.run().unwrap();
        // One batch per hop: the input, `a` and `b`.
        assert_eq!((stats.batches_processed, stats.fused_stages_saved), (3, 0));
        assert_eq!(df.sink(sink).sorted(), vec![ints(&[7])]);
    }

    #[test]
    fn push_to_non_input_panics() {
        let mut df = Dataflow::new();
        let input = df.add_input("r");
        let m = df.add_op(Map::project(vec![0]), &[input]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            df.push(m, Delta::insert(ints(&[1])));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn try_variants_return_invalid_wiring_instead_of_panicking() {
        let mut df = Dataflow::new();
        let input = df.add_input("r");
        let a = df.add_op(Map::project(vec![0]), &[input]);
        let b = df.add_op(Map::project(vec![0]), &[a]);
        df.add_sink(b);
        // Pushing to a non-input is a typed error.
        let err = df.try_push(b, Delta::insert(ints(&[1]))).unwrap_err();
        assert!(matches!(err, DataflowError::InvalidWiring(_)));
        assert!(err.to_string().contains("not an input"), "{err}");
        // Nothing was queued: the run services no batch.
        assert_eq!(df.run().unwrap().batches_processed, 0);
        // A push to an input still succeeds through the try API.
        df.try_push(input, Delta::insert(ints(&[1]))).unwrap();
        assert_eq!(df.run().unwrap().batches_processed, 3);
    }
}
