//! The declarative optimizer, executed on the dataflow substrate.
//!
//! Where `reopt_core::IncrementalOptimizer` hand-rolls the propagation
//! of rules R1–R10 as typed delta queues over the and-or graph, this
//! module *compiles the rules and runs them*: the network below is the
//! executable elaboration of the paper's program, instantiated on
//! `reopt-datalog`'s batched delta engine.
//!
//! ## From the paper's rules to the executable program
//!
//! The paper rules ([`reopt_core::rules`], parsed by
//! [`reopt_core::rules_ir`]) elaborate as follows:
//!
//! - **D1–D3 ≙ R1–R5** (plan enumeration). `Fn_split` is the external
//!   function of R1–R3, backed by the interned [`Memo`] (the memoization
//!   of `Fn_split`/`Fn_nonscansummary` that §2.3 prescribes); it returns
//!   scan alternatives for leaves too, folding in R4/R5's `Fn_phyOp`,
//!   and returns nothing for `null` child slots, folding in the
//!   `Fn_isleaf` guards. The `Expr` base relation seeds the root
//!   `(expr, prop)` demand. D2 and D3 project every `SearchSpace` row to
//!   one of its child slots — a bag: a group is the child of many rows —
//!   so the compiler's demand pass (`compile.rs`) puts one counted set,
//!   `demand:D2+D3`, between the two projections and the one `Fn_split`
//!   they now share: a group is enumerated once, when it is first
//!   demanded, not once per parent row and slot.
//! - **D6–D8 ≙ R6–R8** (cost estimation) after two standard rewrites:
//!   the summary/cost externals (`Fn_scansummary`, `Fn_scancost`,
//!   `Fn_nonscansummary`, `Fn_nonscancost`) collapse into a `LocalCost`
//!   *base relation* maintained from [`CostContext`] — §4's runtime
//!   updates arrive as deltas to exactly this relation — and the child
//!   `PlanCost` body atoms read `BestCost` instead, the paper's own §3.1
//!   aggregate-selection strategy (a plan's total uses its children's
//!   *best* costs). `Fn_sum` remains the external it is in R7/R8.
//! - **D9–D10 ≙ R9–R10** (plan selection). D9, the grouped `min<>`
//!   aggregate, is compiled and maintained: D7 and D8 read `BestCost`
//!   every epoch. D10 ([`BEST_PLAN_RULE`]), the join
//!   back onto `PlanCost`, is *not* compiled: nothing in the program
//!   reads `BestPlan`, and the driver asks for it once per epoch for
//!   the groups on the chosen tree only. [`DataflowOptimizer::best_plan`]
//!   evaluates the rule top-down with exactly that demand — per group,
//!   `BestCost(expr,prop)` read by key from D9's aggregate, then
//!   `PlanCost(expr,prop,a,cost)` point-probed in the rows
//!   `distinct[PlanCost]` holds over the memo's alternatives of the
//!   group (the memo is `Fn_split`, so it is the index on `index`) —
//!   instead of maintaining second copies of `BestCost` and `PlanCost`
//!   in two arrangements beside the ones D9, D7 and D8 already hold.
//!   The plan is read from the network's relations, never from the
//!   driver's DP mirror below: the mirror decides what to *withhold*
//!   from the network, and an answer taken from it would leave the
//!   network decorative and every differential against it vacuous.
//!
//! ## Pruning (§3.3)
//!
//! Recursive bounding (the paper's r1–r4, Figure 3) runs in the driver,
//! not in the network: a deterministic DP over the `LocalCost` mirror
//! computes every group's exact best cost bottom-up and its bound
//! top-down, and every alternative whose total exceeds its group's
//! bound — except each group's argmin, which keeps `BestCost` and the
//! extracted plan exact — is *excluded from the network's `LocalCost`
//! relation*. `SearchSpace` stays complete (enumeration is not pruned,
//! only costing), so the declarative engine skips the cost propagation
//! for hopeless alternatives exactly like the hand-rolled pruned
//! engine. On every reoptimize the driver recomputes the prune set from
//! the post-delta mirror and feeds the network the difference, so a
//! pruned alternative that becomes viable is re-costed and a newly
//! hopeless one is retracted. The network compiles D1–D9 only; the
//! rules r1–r4 themselves are executed verbatim on the substrate by
//! `compile.rs`'s `paper_bound_rules_execute_on_the_substrate`, the
//! way the differential suite holds [`BEST_PLAN_RULE`] to its text.
//!
//! Column encoding: `expr` packs an [`ExprId`] (`rel` bits and the `agg`
//! flag) into an `Int`; `prop` is a dense index into the query's
//! property table; `index` is the global [`AltId`]; `logOp`/`phyOp` are
//! interned symbols; absent children are the shared `null` symbol, which
//! never joins `BestCost` — D6/D7/D8 partition the alternatives by arity
//! through their `null` patterns and the `Fn_present` guards that reject
//! a `null` slot where the row is scanned rather than at that join.

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use reopt_catalog::Catalog;
use reopt_common::{Cost, FxHashMap};
use reopt_core::memo::{AltId, GroupId, Memo};
use reopt_core::rules_ir::{parse_rules, Rule};
use reopt_core::{IncrementalOptimizer, ParamIndex, PruningConfig};
use reopt_cost::{CostContext, ParamDelta};
use reopt_datalog::{
    ConsolidatorFootprint, DataflowError, Delta, FaultPlan, Multiset, NodeStats, RunStats, Tuple,
    Val,
};
use reopt_expr::{ExprId, JoinGraph, PhysOp, PhysProp, PlanNode, QuerySpec};

use crate::compile::{null_value, NetworkBuilder, RuleNetwork};
use crate::durable;

/// The executable elaboration of the paper's rule program (see the
/// module docs for the R→D mapping).
pub const DATAFLOW_RULES: [&str; 7] = [
    "D1: SearchSpace(expr,prop,index,logOp,phyOp,lExpr,lProp,rExpr,rProp) :- \
     Expr(expr,prop), Fn_split(expr,prop,index,logOp,phyOp,lExpr,lProp,rExpr,rProp);",
    "D2: SearchSpace(expr,prop,index,logOp,phyOp,lExpr,lProp,rExpr,rProp) :- \
     SearchSpace(-,-,-,-,-,expr,prop,-,-), \
     Fn_split(expr,prop,index,logOp,phyOp,lExpr,lProp,rExpr,rProp);",
    "D3: SearchSpace(expr,prop,index,logOp,phyOp,lExpr,lProp,rExpr,rProp) :- \
     SearchSpace(-,-,-,-,-,-,-,expr,prop), \
     Fn_split(expr,prop,index,logOp,phyOp,lExpr,lProp,rExpr,rProp);",
    "D6: PlanCost(expr,prop,index,cost) :- \
     SearchSpace(expr,prop,index,-,-,null,null,null,null), \
     LocalCost(expr,prop,index,cost);",
    // D7/D8 join `LocalCost` *before* the `BestCost` atoms: the driver
    // expresses pruning by withholding `LocalCost` rows, so putting it
    // first makes the (static) `SearchSpace ⋈ LocalCost` prefix a
    // live-alternatives filter. `BestCost` deltas — the hot traffic of
    // every reoptimization epoch — then probe an index that holds only
    // unpruned alternatives, and the prefix join sits outside the
    // recursive D6–D9 component. Joins are commutative, so the derived
    // tuples (and the `Fn_sum` evaluation order) are unchanged.
    // `Fn_present` rejects a `null` child slot where the row is scanned.
    // `BestCost` holds no `null` key, so the join on that slot would
    // reject the row anyway — after its `LocalCost` deltas (and, in D8,
    // its left child's `BestCost` deltas) had travelled the joins before
    // it. Each static prefix now carries its own arity only.
    "D7: PlanCost(expr,prop,index,cost) :- \
     SearchSpace(expr,prop,index,-,-,lExpr,lProp,null,null), Fn_present(lExpr), \
     LocalCost(expr,prop,index,localCost), BestCost(lExpr,lProp,lCost), \
     Fn_sum(lCost,null,localCost,cost);",
    "D8: PlanCost(expr,prop,index,cost) :- \
     SearchSpace(expr,prop,index,-,-,lExpr,lProp,rExpr,rProp), Fn_present(rExpr), \
     LocalCost(expr,prop,index,localCost), \
     BestCost(lExpr,lProp,lCost), BestCost(rExpr,rProp,rCost), \
     Fn_sum(lCost,rCost,localCost,cost);",
    "D9: BestCost(expr,prop,min<cost>) :- PlanCost(expr,prop,index,cost);",
];

/// Rule D10 (the paper's R10) — the specification
/// [`DataflowOptimizer::best_plan`] evaluates on demand and no network
/// compiles (see the module docs). The differential suite compiles this
/// text into a test-only network and holds the on-demand read to it.
pub const BEST_PLAN_RULE: &str = "D10: BestPlan(expr,prop,index,cost) :- \
     BestCost(expr,prop,cost), PlanCost(expr,prop,index,cost);";

/// The executable program in IR form.
pub fn dataflow_program() -> Vec<Rule> {
    program().to_vec()
}

/// [`DATAFLOW_RULES`], parsed once per process.
fn program() -> &'static [Rule] {
    static PROGRAM: OnceLock<Vec<Rule>> = OnceLock::new();
    PROGRAM.get_or_init(|| {
        parse_rules(DATAFLOW_RULES).expect("the executable rules parse (pinned by tests)")
    })
}

/// The relations a network materializes for the driver.
const SINKS: [&str; 2] = ["SearchSpace", "BestCost"];

/// Every relation the audit looks at: the sinks, and the `PlanCost`
/// rows plan extraction probes.
fn views(net: &RuleNetwork) -> impl Iterator<Item = (&'static str, &Multiset)> {
    let sinks = SINKS.iter().map(move |&name| {
        let sink = net.sink(name);
        (name, sink.expect("build_network materializes every view the driver reads"))
    });
    sinks.chain(std::iter::once(("PlanCost", plan_cost_rows(net))))
}

/// The rows of `PlanCost`, where the network keeps them.
fn plan_cost_rows(net: &RuleNetwork) -> &Multiset {
    net.distinct_state("PlanCost")
        .expect("`PlanCost` has three rules and a release order: it keeps its `Distinct`")
}

/// Dense encoding of the physical-property column. Interior mutability
/// because the table is shared (`Rc`) with the `Fn_split` closure and
/// must keep assigning ids after the network is built: a `PhysProp`
/// first introduced by later reoptimization gets a fresh dense id on
/// first encode instead of panicking on the build-time map.
struct PropTable {
    by_prop: std::cell::RefCell<FxHashMap<PhysProp, i64>>,
    props: std::cell::RefCell<Vec<PhysProp>>,
}

impl PropTable {
    fn new(memo: &Memo) -> PropTable {
        let t = PropTable {
            by_prop: std::cell::RefCell::new(FxHashMap::default()),
            props: std::cell::RefCell::new(Vec::new()),
        };
        for g in &memo.groups {
            t.encode(g.prop);
        }
        t
    }

    /// The dense id of `p`, assigned on first sight (insert-on-miss).
    fn encode(&self, p: PhysProp) -> Val {
        if let Some(&i) = self.by_prop.borrow().get(&p) {
            return Val::Int(i);
        }
        let mut by_prop = self.by_prop.borrow_mut();
        let mut props = self.props.borrow_mut();
        let i = props.len() as i64;
        by_prop.insert(p, i);
        props.push(p);
        Val::Int(i)
    }

    /// The property behind a dense id (the `Fn_split` decode path).
    fn decode(&self, i: i64) -> PhysProp {
        self.props.borrow()[i as usize]
    }
}

fn encode_expr(e: ExprId) -> Val {
    Val::Int(((e.rel.0 as i64) << 1) | e.agg as i64)
}

fn decode_expr(e: i64) -> ExprId {
    ExprId {
        rel: reopt_expr::RelSet((e >> 1) as u32),
        agg: e & 1 == 1,
    }
}

/// Result of one dataflow (re)optimization fixpoint.
#[derive(Clone, Debug)]
pub struct DataflowOutcome {
    pub cost: Cost,
    pub plan: PlanNode,
    /// Substrate-level execution statistics for the run.
    pub stats: RunStats,
    /// How the epoch reached its committed fixpoint, including any
    /// failures absorbed along the way and the sampled audit verdict.
    pub recovery: RecoveryReport,
    /// The epoch's durability layer: writing its WAL record, and waiting
    /// for the record's fsync once the epoch's own work was done (zero
    /// when the fsync was hidden behind it). Both zero unless durability
    /// is armed.
    pub wal_write: Duration,
    pub wal_wait: Duration,
}

/// How a (re)optimization epoch reached its committed fixpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryPath {
    /// The epoch committed on the first attempt.
    Committed,
    /// The first attempt failed; the substrate rolled back to the last
    /// committed fixpoint and a retry under a raised step budget
    /// replayed the same deltas to a committed fixpoint.
    RetriedAfterRollback,
    /// The retry failed too; the network was rebuilt from scratch from
    /// the memo and the `LocalCost` mirror (which already reflects every
    /// applied parameter delta), then evaluated fresh.
    RebuiltFromScratch,
    /// A restart found an intact checkpoint: its parameter log plus the
    /// WAL tail past its watermark were loaded and optimized once — the
    /// replay was bounded by the checkpoint.
    RestoredFromCheckpoint,
    /// A restart found the durable checkpoint torn, truncated, corrupt,
    /// of another format or query, or ahead of the WAL; it was discarded
    /// and the *whole* WAL loaded instead. Slower, never wrong.
    RebuiltAfterCorruptCheckpoint,
}

/// Verdict of the sampled post-epoch audit (see [`AuditMode`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuditOutcome {
    /// This epoch was not in the sample.
    NotSampled,
    /// The audited state matched a from-scratch recompute and every
    /// cross-engine invariant.
    Passed,
    /// The audit caught drift; the report carries the violation.
    Failed(DataflowError),
}

/// What happened on the way to the outcome the caller sees. Callers
/// always get a correct committed fixpoint; this reports how it was
/// reached.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryReport {
    pub path: RecoveryPath,
    /// Every epoch failure absorbed along the way, in order.
    pub errors: Vec<DataflowError>,
    pub audit: AuditOutcome,
}

impl RecoveryReport {
    fn committed() -> RecoveryReport {
        RecoveryReport {
            path: RecoveryPath::Committed,
            errors: Vec::new(),
            audit: AuditOutcome::NotSampled,
        }
    }

    /// True iff the epoch needed no recovery and no audit flagged it.
    pub fn is_clean(&self) -> bool {
        self.path == RecoveryPath::Committed
            && self.errors.is_empty()
            && !matches!(self.audit, AuditOutcome::Failed(_))
    }
}

/// Post-epoch audit sampling policy. The constructor default comes from
/// the `REOPT_AUDIT` environment variable: unset, `0`, `off` or `false`
/// disable auditing; `1` audits every epoch; any other integer `n`
/// audits every `n`-th epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AuditMode {
    Off,
    Every(u64),
}

impl AuditMode {
    pub fn from_env() -> AuditMode {
        match std::env::var("REOPT_AUDIT") {
            Err(_) => AuditMode::Off,
            Ok(v) => match v.trim() {
                "" | "0" | "off" | "false" => AuditMode::Off,
                s => AuditMode::Every(s.parse().unwrap_or(1).max(1)),
            },
        }
    }
}

/// The optimizer-as-a-view: rules compiled onto the dataflow substrate,
/// maintained incrementally under [`ParamDelta`] base-relation deltas.
pub struct DataflowOptimizer {
    q: QuerySpec,
    memo: Rc<Memo>,
    ctx: CostContext,
    props: Rc<PropTable>,
    net: RuleNetwork,
    /// Mirror of the `LocalCost` base relation, per [`AltId`] — the
    /// old value is needed to emit the retraction half of an update,
    /// and a from-scratch rebuild re-seeds the relation from it.
    local: Vec<Cost>,
    /// The [`CostContext::alt_affected`] predicate inverted (the
    /// hand-rolled engine's index): parameter → what it can touch, so a
    /// reoptimize visits candidates directly instead of scanning every
    /// alternative. Built by the first `reoptimize`; neither `optimize`
    /// nor a restart reads it.
    param_index: Option<ParamIndex>,
    /// Per group: an applied parameter reaches all its alternatives.
    /// Set and taken back within one `reoptimize`.
    reached: Vec<bool>,
    initialized: bool,
    /// Kept so the audit can stand up an independent hand-rolled
    /// optimizer against pristine statistics.
    catalog: Catalog,
    /// Deduped log of every applied [`ParamDelta`] (factors are
    /// absolute, so per parameter only the last write matters) — the
    /// audit replays it on the shadow engine.
    applied: Vec<ParamDelta>,
    audit: AuditMode,
    epochs_seen: u64,
    /// Durable-directory state, armed by [`DataflowOptimizer::set_durable_dir`]
    /// (or by [`DataflowOptimizer::recover`]). `None` keeps the optimizer
    /// purely in-memory, exactly as before.
    durable: Option<Durable>,
    /// Per [`AltId`]: excluded from the network's `LocalCost` relation
    /// by driver-side pruning (see the module docs).
    pruned: Vec<bool>,
    /// Cached [`topo_order`] of the (immutable) memo, reused by every
    /// per-epoch [`BoundDp::compute`].
    topo: Vec<GroupId>,
    /// [`plan_cost_strata`] of the memo: the `PlanCost` release order
    /// every network built for this query declares.
    strata: Vec<u32>,
    /// `PlanCost` point probes made by plan extraction so far (see
    /// [`DataflowOptimizer::plan_cost_probes`]).
    plan_cost_probes: Cell<u64>,
}

/// WAL bookkeeping for a durably armed optimizer.
struct Durable {
    dir: PathBuf,
    /// Next WAL record sequence number = acknowledged records on disk;
    /// a checkpoint stores this as its replay watermark.
    wal_seq: u64,
    wal: durable::WalWriter,
}

impl Durable {
    fn new(dir: PathBuf, wal_seq: u64) -> Durable {
        let wal = durable::WalWriter::new(dir.join(durable::WAL_FILE));
        Durable { dir, wal_seq, wal }
    }
}

/// The driver's DP of rules r1–r4 over the `LocalCost` mirror (see the
/// module docs): exact best cost per group bottom-up, bound per group
/// top-down, over every alternative — pruned ones included, so one
/// re-enters the moment a delta makes it viable.
struct BoundDp {
    /// Total cost per alternative (`Fn_sum` association order, so the
    /// values agree bit-for-bit with the network's `PlanCost`).
    alt_cost: Vec<Cost>,
    /// Best total per group, and the alternative achieving it.
    best: Vec<Cost>,
    argmin: Vec<Option<AltId>>,
    /// `min(best, max over parent allowances)`; the root's is its best.
    /// `None` for a group no parent alternative bounds.
    bound: Vec<Option<Cost>>,
}

/// Postorder topological order of the memo's groups from the root:
/// children before parents. The memo is immutable after construction,
/// so the driver computes this once and reuses it for every per-epoch
/// [`BoundDp::compute`].
fn topo_order(memo: &Memo) -> Vec<GroupId> {
    let n_groups = memo.n_groups();
    let mut order: Vec<GroupId> = Vec::with_capacity(n_groups);
    let mut seen = vec![false; n_groups];
    let mut stack: Vec<(GroupId, bool)> = vec![(memo.root, false)];
    while let Some((g, expanded)) = stack.pop() {
        if expanded {
            order.push(g);
            continue;
        }
        // Expansion marks `seen`, not the push: a group pushed
        // before being reached again deeper in the DAG must still
        // be expanded at its deepest position so every child
        // precedes every parent in the postorder.
        if seen[g.0 as usize] {
            continue;
        }
        seen[g.0 as usize] = true;
        stack.push((g, true));
        for a in memo.alts_of(g) {
            for c in memo.alt(a).children() {
                if !seen[c.0 as usize] {
                    stack.push((c, false));
                }
            }
        }
    }
    order
}

/// The release order of `PlanCost` deltas, per [`AltId`]: 1 + the
/// longest-path depth of the alternative's group (`order` is
/// [`topo_order`], children first). Every row an alternative's total is
/// derived from — its children's `BestCost` — belongs to a strictly
/// shallower group, sort-enforcer alternatives included, so releasing
/// `PlanCost` in this order hands D9 each group's final rows in one
/// batch: a `PlanCost` row and a `BestCost` group change at most once
/// per epoch instead of once per wave of the D7/D8→D9 cycle.
fn plan_cost_strata(memo: &Memo, order: &[GroupId]) -> Vec<u32> {
    let mut depth = vec![0u32; memo.n_groups()];
    for &g in order {
        for a in memo.alts_of(g) {
            for c in memo.alt(a).children() {
                depth[g.0 as usize] = depth[g.0 as usize].max(depth[c.0 as usize] + 1);
            }
        }
    }
    (0..memo.n_alts() as u32)
        .map(|a| 1 + depth[memo.alt(AltId(a)).group.0 as usize])
        .collect()
}

impl BoundDp {
    /// `order` must be [`topo_order`] of the same memo (postorder:
    /// children before parents; its reverse visits parents first).
    fn compute(memo: &Memo, local: &[Cost], order: &[GroupId]) -> BoundDp {
        let n_groups = memo.n_groups();
        let mut dp = BoundDp {
            alt_cost: vec![Cost::INFINITY; memo.n_alts()],
            best: vec![Cost::INFINITY; n_groups],
            argmin: vec![None; n_groups],
            bound: vec![None; n_groups],
        };
        for &g in order {
            for a in memo.alts_of(g) {
                let alt = memo.alt(a);
                // Fn_sum's association order: local, then left, right.
                let mut c = local[a.0 as usize];
                if let Some(l) = alt.left {
                    c += dp.best[l.0 as usize];
                }
                if let Some(r) = alt.right {
                    c += dp.best[r.0 as usize];
                }
                dp.alt_cost[a.0 as usize] = c;
                let gi = g.0 as usize;
                if c < dp.best[gi] {
                    dp.best[gi] = c;
                    dp.argmin[gi] = Some(a);
                }
            }
        }
        // Top-down: each group's bound is fixed before its children's
        // allowances are derived from it (reverse topological order).
        let mut max_bound: Vec<Option<Cost>> = vec![None; n_groups];
        let relax = |mb: &mut Option<Cost>, allowance: Cost| match mb {
            Some(prev) if *prev >= allowance => {}
            _ => *mb = Some(allowance),
        };
        for &g in order.iter().rev() {
            let gi = g.0 as usize;
            dp.bound[gi] = if g == memo.root {
                // The root's bound, which Figure 3 seeds: never settle
                // for worse than the best plan already known.
                Some(dp.best[gi])
            } else {
                // r4: min(minCost, maxBound); ties keep the first
                // argument, matching the scalar combine.
                max_bound[gi].map(|mb| if mb < dp.best[gi] { mb } else { dp.best[gi] })
            };
            let Some(b) = dp.bound[gi] else { continue };
            for a in memo.alts_of(g) {
                let alt = memo.alt(a);
                let local_cost = local[a.0 as usize];
                match (alt.left, alt.right) {
                    (Some(l), Some(r)) => {
                        // r1/r2 subtraction chains, in rule order.
                        let al = b - dp.best[r.0 as usize] - local_cost;
                        relax(&mut max_bound[l.0 as usize], al);
                        let ar = b - dp.best[l.0 as usize] - local_cost;
                        relax(&mut max_bound[r.0 as usize], ar);
                    }
                    (Some(l), None) => {
                        // The single child gets the full remainder.
                        relax(&mut max_bound[l.0 as usize], b - local_cost);
                    }
                    _ => {}
                }
            }
        }
        dp
    }

    /// The prune decision for alternative `a` of group `g`: costlier
    /// than the group's bound and not the group's argmin (so `BestCost`
    /// stays exact and plan extraction finds a row per group).
    fn prunes(&self, g: GroupId, a: AltId) -> bool {
        let argmin = self.argmin[g.0 as usize] == Some(a);
        self.bound[g.0 as usize].is_some_and(|b| self.alt_cost[a.0 as usize] > b && !argmin)
    }
}

impl DataflowOptimizer {
    pub fn new(catalog: &Catalog, q: QuerySpec) -> DataflowOptimizer {
        let graph = JoinGraph::new(&q);
        let memo = Rc::new(Memo::build(&q, &graph));
        let ctx = CostContext::new(catalog, &q);
        let props = Rc::new(PropTable::new(&memo));
        let topo = topo_order(&memo);
        let strata = plan_cost_strata(&memo, &topo);
        let net = build_network(Rc::clone(&memo), Rc::clone(&props), &strata);
        let local = vec![Cost::INFINITY; memo.n_alts()];
        let reached = vec![false; memo.n_groups()];
        let pruned = vec![false; memo.n_alts()];
        DataflowOptimizer {
            q,
            memo,
            ctx,
            props,
            net,
            local,
            param_index: None,
            reached,
            initialized: false,
            catalog: catalog.clone(),
            applied: Vec::new(),
            audit: AuditMode::from_env(),
            epochs_seen: 0,
            durable: None,
            pruned,
            topo,
            strata,
            plan_cost_probes: Cell::new(0),
        }
    }

    pub fn memo(&self) -> &Memo {
        &self.memo
    }

    pub fn cost_context(&self) -> &CostContext {
        &self.ctx
    }

    /// Initial evaluation: seed the `Expr` root demand and the full
    /// `LocalCost` relation, then run the network to fixpoint.
    pub fn optimize(&mut self) -> DataflowOutcome {
        if !self.initialized {
            self.initialized = true;
            for (_, a, c) in local_costs(&self.memo, &mut self.ctx, &self.q) {
                self.local[a.0 as usize] = c;
            }
            self.seed_network();
        }
        let (stats, recovery) = self.run_recovering();
        self.outcome(stats, recovery)
    }

    /// Incremental re-optimization (§4): apply the parameter deltas to
    /// the cost context, re-evaluate the affected local costs, and feed
    /// the changes to the network as `LocalCost` base-relation deltas.
    /// With durability armed the batch is acknowledged — durable — when
    /// this returns.
    pub fn reoptimize(&mut self, deltas: &[ParamDelta]) -> DataflowOutcome {
        // A fresh engine evaluates the initial program first, exactly
        // as an explicit `optimize()` would have.
        let mut absorbed = if self.initialized {
            Vec::new()
        } else {
            self.optimize().recovery.errors
        };
        // Write-ahead, pipelined: the record is written before any of
        // the batch's effects touch the network, its fsync runs on the
        // writer's helper thread while the epoch computes, and the batch
        // is acknowledged — `wal_seq` advances — only once both are
        // done. A crash before that loses a batch nobody was told about,
        // whose effects lived only in memory. A failed append is cut
        // back off the log, degrades to in-memory operation for this
        // batch and is reported, never panicked on.
        let begun = self.durable.as_mut().map(|d| {
            let clock = Instant::now();
            (d.wal.begin(d.wal_seq, deltas), clock.elapsed())
        });
        let mut out = self.apply_batch(deltas);
        if let (Some(d), Some((begun, wal_write))) = (self.durable.as_mut(), begun) {
            let clock = Instant::now();
            match begun.and_then(|()| d.wal.finish()) {
                Ok(()) => d.wal_seq += 1,
                Err(e) => absorbed.push(DataflowError::StateCorruption(format!(
                    "WAL append failed, operating in-memory for this batch: {e}"
                ))),
            }
            out.wal_write = wal_write;
            out.wal_wait = clock.elapsed();
        }
        out.recovery.errors.splice(0..0, absorbed);
        out
    }

    /// The epoch of [`DataflowOptimizer::reoptimize`], from applying the
    /// batch to the outcome.
    fn apply_batch(&mut self, deltas: &[ParamDelta]) -> DataflowOutcome {
        // The applied log keeps the last write per parameter: replaying
        // it reproduces the current [`CostContext`].
        fold_last_writes(&mut self.applied, deltas);
        let affected = self.ctx.apply(deltas);
        if affected.is_empty() {
            return self.outcome(RunStats::default(), RecoveryReport::committed());
        }
        // What the changed parameters reach, straight from the inverted
        // index — equivalent to testing `alt_affected` on every
        // alternative (each predicate branch distributes over the
        // affected set). A group several parameters reach is marked
        // once, and the walk below takes the marks back in group order:
        // alternative ids are dense in that order, so the candidates
        // come up in `AltId` order with nothing to sort but the few
        // single alternatives a scan cost reaches.
        let index = self
            .param_index
            .get_or_insert_with(|| ParamIndex::build(&self.memo, &self.q));
        for g in index.affected_groups(&affected) {
            self.reached[g.0 as usize] = true;
        }
        let mut scan_alts: Vec<AltId> = index.affected_scan_alts(&affected).collect();
        scan_alts.sort_unstable();
        let mut scan_alts = scan_alts.into_iter().peekable();
        // Re-evaluate the candidates' local costs in the mirror first;
        // `old_values` remembers what the network currently holds for
        // the alternatives whose value changed, in `AltId` order.
        let mut old_values: Vec<(AltId, Cost)> = Vec::new();
        for (def, reached) in self.memo.groups.iter().zip(&mut self.reached) {
            let mut reprice = |a: AltId| {
                let spec = &self.memo.alt(a).spec;
                let new = self.ctx.local_cost(&self.q, def.expr, def.prop, spec);
                let old = std::mem::replace(&mut self.local[a.0 as usize], new);
                if new != old {
                    old_values.push((a, old));
                }
            };
            let in_group = |a: &AltId| a.0 < def.alts_end;
            if std::mem::take(reached) {
                while scan_alts.next_if(in_group).is_some() {}
                (def.alts_start..def.alts_end).map(AltId).for_each(reprice);
            } else {
                while let Some(a) = scan_alts.next_if(in_group) {
                    reprice(a);
                }
            }
        }
        // All network deltas — value updates, prune retractions and
        // re-assertions — flow through one diffing pass so the network
        // always mirrors the driver state.
        self.push_pruned_diff(&old_values);
        let (stats, recovery) = self.run_recovering();
        self.outcome(stats, recovery)
    }

    /// Runs the network to fixpoint behind the degradation ladder. The
    /// substrate already guarantees that a failed epoch rolls back to
    /// the last committed fixpoint with its input deltas re-queued, so
    /// each rung replays exactly the same epoch:
    ///
    /// 1. first attempt under the current step budget;
    /// 2. one retry under a ×4 budget (covers genuine fixpoint
    ///    overruns; the raise sticks so a workload that legitimately
    ///    outgrew the budget does not fail every subsequent epoch);
    /// 3. a from-scratch rebuild — fresh network from the memo,
    ///    re-seeded from the post-delta `LocalCost` mirror — which
    ///    leaves every trace of the poisoned instance behind.
    ///
    /// Callers always get a committed fixpoint plus a report of the
    /// failures absorbed on the way.
    fn run_recovering(&mut self) -> (RunStats, RecoveryReport) {
        let mut report = RecoveryReport::committed();
        let stats = match self.net.run() {
            Ok(stats) => stats,
            Err(first) => {
                report.errors.push(first);
                let budget = self.net.max_steps();
                self.net.set_max_steps(budget.saturating_mul(4));
                match self.net.run() {
                    Ok(stats) => {
                        report.path = RecoveryPath::RetriedAfterRollback;
                        stats
                    }
                    Err(second) => {
                        report.errors.push(second);
                        report.path = RecoveryPath::RebuiltFromScratch;
                        self.rebuild_from_scratch()
                    }
                }
            }
        };
        self.epochs_seen += 1;
        report.audit = self.maybe_audit();
        (stats, report)
    }

    /// The ladder's last rung: discard the poisoned network (and with
    /// it any armed fault plan or exhausted budget), compile a fresh
    /// one from the memo, and re-seed it from the `LocalCost` mirror —
    /// which already reflects every applied parameter delta, so the
    /// fresh fixpoint equals the one the incremental epoch should have
    /// produced.
    fn rebuild_from_scratch(&mut self) -> RunStats {
        self.net = self.fresh_network();
        self.seed_network();
        self.net
            .run()
            .expect("a fresh fault-free network converges")
    }

    /// A new, unseeded network for this query.
    fn fresh_network(&self) -> RuleNetwork {
        build_network(Rc::clone(&self.memo), Rc::clone(&self.props), &self.strata)
    }

    /// Seeds a freshly built network with everything the driver state
    /// implies: the root `Expr` demand, then — as the diff against a
    /// network that has been fed nothing — the unpruned slice of the
    /// `LocalCost` mirror.
    fn seed_network(&mut self) {
        let root = self.group_key(self.memo.root);
        self.net.insert("Expr", Tuple::from_slice(&root));
        self.pruned.fill(true);
        self.push_pruned_diff(&[]);
    }

    /// Recomputes the prune set from the post-delta mirror and feeds
    /// the network the difference, in one pass over the memo: value
    /// updates for surviving alternatives, retractions for newly pruned
    /// ones and assertions for newly viable ones. `old_values` holds, in `AltId` order, what the
    /// network holds for the alternatives whose mirror value this batch
    /// changed. The driver is the pruning authority — the DP runs over
    /// *all* alternatives, so an alternative the network never costed
    /// still re-enters the moment a delta makes it viable.
    fn push_pruned_diff(&mut self, old_values: &[(AltId, Cost)]) {
        let dp = BoundDp::compute(&self.memo, &self.local, &self.topo);
        // Alternative ids are dense in group order, so the memo walk
        // and `old_values` advance in step.
        let mut changed = old_values.iter().peekable();
        let mut deltas: Vec<Delta> = Vec::new();
        for gi in 0..self.memo.n_groups() as u32 {
            let g = GroupId(gi);
            let key = self.group_key(g);
            for a in self.memo.alts_of(g) {
                let i = a.0 as usize;
                let was_in = !self.pruned[i];
                let now_in = !dp.prunes(g, a);
                self.pruned[i] = !now_in;
                let nv = self.local[i];
                // What the network holds for a present row: the
                // pre-delta value for this batch's candidates, the
                // (unchanged) mirror value for everything else.
                let ov = changed.next_if(|(c, _)| *c == a).map_or(nv, |&(_, ov)| ov);
                if was_in && (!now_in || ov != nv) {
                    deltas.push(Delta::delete(local_tuple(key, a, ov)));
                }
                if now_in && (!was_in || ov != nv) {
                    deltas.push(Delta::insert(local_tuple(key, a, nv)));
                }
            }
        }
        self.net.extend("LocalCost", deltas);
        debug_assert!(changed.next().is_none(), "`old_values` is not in `AltId` order");
    }

    /// Loads recovered parameters into this engine before its first
    /// `optimize()`: the checkpoint's deduped `log`, then the WAL
    /// `tail` past it. Factors are absolute, so the context ends up
    /// holding the last write per parameter — everything the optimizer's
    /// state is a function of. The epoch counter starts at the
    /// checkpoint's `epochs_seen` and advances as replaying the tail
    /// record by record would have advanced it: once per record that
    /// changed a parameter.
    fn load_parameters(
        &mut self,
        epochs_seen: u64,
        log: Vec<ParamDelta>,
        tail: &[Vec<ParamDelta>],
    ) {
        debug_assert!(!self.initialized, "parameters load before the first optimize");
        self.epochs_seen = epochs_seen;
        self.ctx.apply(&log);
        self.applied = log;
        for record in tail {
            fold_last_writes(&mut self.applied, record);
            self.epochs_seen += u64::from(!self.ctx.apply(record).is_empty());
        }
    }

    fn maybe_audit(&mut self) -> AuditOutcome {
        let every = match self.audit {
            AuditMode::Off => return AuditOutcome::NotSampled,
            AuditMode::Every(n) => n.max(1),
        };
        if !self.epochs_seen.is_multiple_of(every) {
            return AuditOutcome::NotSampled;
        }
        match self.audit_now() {
            Ok(()) => AuditOutcome::Passed,
            Err(e) => AuditOutcome::Failed(e),
        }
    }

    /// The audit itself, independent of sampling. Three checks, each
    /// surfacing as [`DataflowError::InvariantViolation`]:
    ///
    /// 1. no residual negative counts in any view — the sinks and the
    ///    `PlanCost` rows (a torn rollback would leave the retraction
    ///    half of an update);
    /// 2. the live views match a from-scratch recompute on a fresh
    ///    network whose `LocalCost` rows are re-derived from the
    ///    [`CostContext`] (catches both substrate drift and a torn
    ///    mirror);
    /// 3. a shadow hand-rolled [`IncrementalOptimizer`] replaying the
    ///    deduped delta log passes its own structural invariants
    ///    ([`IncrementalOptimizer::check_invariants`]) and agrees on
    ///    the best cost.
    fn audit_now(&mut self) -> Result<(), DataflowError> {
        for (name, view) in views(&self.net) {
            if view.has_negative_counts() {
                return Err(DataflowError::InvariantViolation(format!(
                    "audit: residual negative counts in {name}"
                )));
            }
        }
        let mut fresh = self.fresh_network();
        let root = self.group_key(self.memo.root);
        fresh.insert("Expr", Tuple::from_slice(&root));
        let recomputed: Vec<_> = local_costs(&self.memo, &mut self.ctx, &self.q).collect();
        for (g, a, c) in recomputed {
            if c != self.local[a.0 as usize] {
                return Err(DataflowError::InvariantViolation(format!(
                    "audit: LocalCost mirror for alt {} holds {:?} but recompute gives {c:?}",
                    a.0, self.local[a.0 as usize]
                )));
            }
            // The fresh network seeds the same prune set as the live
            // one — the driver is the pruning authority, so an
            // equal-state recompute excludes the same rows.
            if !self.pruned[a.0 as usize] {
                fresh.insert("LocalCost", local_tuple(self.group_key(g), a, c));
            }
        }
        fresh.run().map_err(|e| {
            DataflowError::InvariantViolation(format!("audit: from-scratch recompute failed: {e}"))
        })?;
        for ((name, live), (_, want)) in views(&self.net).zip(views(&fresh)) {
            let (live, want) = (counted(live), counted(want));
            if live != want {
                return Err(DataflowError::InvariantViolation(format!(
                    "audit: {name} diverged from from-scratch recompute \
                     ({} live vs {} recomputed tuples)",
                    live.len(),
                    want.len()
                )));
            }
        }
        let mut shadow = IncrementalOptimizer::new(&self.catalog, self.q.clone(), PruningConfig::none());
        let mut want = shadow.optimize();
        if !self.applied.is_empty() {
            let applied = self.applied.clone();
            want = shadow.reoptimize(&applied);
        }
        shadow
            .check_invariants()
            .map_err(|m| DataflowError::InvariantViolation(format!("audit: shadow engine: {m}")))?;
        if !want.cost.approx_eq(self.best_cost()) {
            return Err(DataflowError::InvariantViolation(format!(
                "audit: best cost {:?} disagrees with shadow engine {:?}",
                self.best_cost(),
                want.cost
            )));
        }
        Ok(())
    }

    /// Arms the substrate's deterministic fault injector (chaos tests).
    pub fn inject_fault(&mut self, plan: FaultPlan) {
        self.net.set_fault_plan(Some(plan));
    }

    /// Arms a one-shot WAL writer failure (crash tests); a no-op unless
    /// durability is armed.
    pub fn inject_wal_fault(&mut self, fault: durable::WalFault) {
        if let Some(d) = self.durable.as_mut() {
            d.wal.inject_fault(fault);
        }
    }

    /// Overrides the audit sampling policy (the constructor default is
    /// [`AuditMode::from_env`]).
    pub fn set_audit_mode(&mut self, mode: AuditMode) {
        self.audit = mode;
    }

    /// Runs the full audit immediately, regardless of sampling.
    pub fn audit(&mut self) -> Result<(), DataflowError> {
        self.audit_now()
    }

    /// Step-budget control, exposed for overrun-recovery tests.
    pub fn set_max_steps(&mut self, steps: u64) {
        self.net.set_max_steps(steps);
    }

    /// A materialized sink relation, by name (`None` for a relation
    /// the network does not materialize) — chaos tests compare these
    /// across recovery paths.
    pub fn sink(&self, relation: &str) -> Option<&Multiset> {
        self.net.sink(relation)
    }

    /// One of the sinks [`build_network`] requests ([`SINKS`]).
    fn view(&self, relation: &str) -> &Multiset {
        self.net
            .sink(relation)
            .expect("build_network materializes every view the driver reads")
    }

    /// Lifetime count of substrate epoch rollbacks (resets when a
    /// rebuild replaces the network).
    pub fn rollbacks(&self) -> u64 {
        self.net.rollbacks()
    }

    /// Arms durability: every subsequent [`DataflowOptimizer::reoptimize`]
    /// batch is appended to `<dir>/wal.bin` (written before the network
    /// is touched, fsynced before `reoptimize` returns) and
    /// [`DataflowOptimizer::checkpoint_durable`] writes
    /// `<dir>/checkpoint.bin`. The directory is opened by
    /// [`durable::open_dir`]: an existing WAL is adopted — appends
    /// continue after its intact records, and a torn tail from an
    /// earlier crash is truncated away first; an unreadable WAL is
    /// reinitialized empty (a later [`DataflowOptimizer::recover`] will
    /// then degrade rather than trust a stale checkpoint against it).
    pub fn set_durable_dir(&mut self, dir: impl Into<PathBuf>) -> std::io::Result<()> {
        let dir = dir.into();
        let wal_seq = durable::open_dir(&dir)?.next_seq;
        self.durable = Some(Durable::new(dir, wal_seq));
        Ok(())
    }

    /// The armed durable directory, if any.
    pub fn durable_dir(&self) -> Option<&Path> {
        self.durable.as_ref().map(|d| d.dir.as_path())
    }

    /// Cuts a durable checkpoint: the applied-parameter log (the last
    /// write per parameter), the WAL watermark it covers, `epochs_seen`
    /// and the query's leaf and edge counts — the parameters, of which
    /// all other state is a function ([`durable`] has the format and
    /// the argument) — committed atomically (tmp + fsync + rename).
    /// Fails with `InvalidInput` unless
    /// [`DataflowOptimizer::set_durable_dir`] armed a directory first.
    pub fn checkpoint_durable(&mut self) -> std::io::Result<()> {
        let Some(d) = self.durable.as_ref() else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "checkpoint_durable needs set_durable_dir first",
            ));
        };
        let bytes = durable::encode_checkpoint(
            d.wal_seq,
            self.epochs_seen,
            self.q.n_leaves(),
            self.q.edges.len() as u32,
            &self.applied,
        );
        durable::write_atomic(&d.dir.join(durable::CHECKPOINT_FILE), &bytes)
    }

    /// Restarts an optimizer from a durable directory, the one way a
    /// first boot builds state: the recovered parameters — an intact
    /// checkpoint's log and the WAL records past its watermark, else
    /// the whole WAL — are folded to the last write per parameter and
    /// loaded into a fresh engine's [`CostContext`], then exactly one
    /// `optimize()` runs, whatever the WAL's length. What was found on
    /// disk decides the label:
    ///
    /// 1. an intact checkpoint whose watermark the WAL covers →
    ///    [`RecoveryPath::RestoredFromCheckpoint`];
    /// 2. a checkpoint that is torn, corrupt, of another format or
    ///    query, or ahead of the WAL → discarded, the whole WAL replayed
    ///    → [`RecoveryPath::RebuiltAfterCorruptCheckpoint`];
    /// 3. no checkpoint but WAL history (crashed before the first
    ///    checkpoint) → [`RecoveryPath::RebuiltFromScratch`];
    /// 4. empty directory → a plain first boot →
    ///    [`RecoveryPath::Committed`].
    ///
    /// State damage never panics and never returns `Err`; it degrades
    /// down the ladder with every absorbed error in the report. `Err`
    /// is reserved for failing to arm the directory itself. The
    /// recovery epoch is an epoch like any other: it runs behind the
    /// degradation ladder and is audited when `REOPT_AUDIT` samples it.
    pub fn recover(
        catalog: &Catalog,
        q: QuerySpec,
        dir: impl AsRef<Path>,
    ) -> std::io::Result<(DataflowOptimizer, DataflowOutcome)> {
        let dir = dir.as_ref();
        let wal = durable::open_dir(dir)?;
        // A torn tail is history too: bytes past the header mean an
        // append was at least attempted (or a record's length field was
        // damaged), which a clean first boot never shows.
        let had_history = !wal.batches.is_empty() || wal.error.is_some() || wal.torn;
        let mut errors: Vec<DataflowError> = wal.error.into_iter().collect();

        let (leaves, edges) = (q.n_leaves(), q.edges.len() as u32);
        let decoded = std::fs::read(dir.join(durable::CHECKPOINT_FILE))
            .ok()
            .map(|bytes| durable::decode_checkpoint(&bytes, leaves, edges));
        let had_checkpoint = decoded.is_some();
        let checkpoint = match decoded {
            Some(Ok(c)) if c.watermark <= wal.next_seq => Some(c),
            Some(Ok(c)) => {
                errors.push(DataflowError::StateCorruption(format!(
                    "checkpoint watermark {} is beyond the {} intact WAL records",
                    c.watermark, wal.next_seq
                )));
                None
            }
            Some(Err(e)) => {
                errors.push(e);
                None
            }
            None => None,
        };

        let mut opt = DataflowOptimizer::new(catalog, q);
        let path = match checkpoint {
            Some(c) => {
                let tail = &wal.batches[c.watermark as usize..];
                opt.load_parameters(c.epochs_seen, c.log, tail);
                RecoveryPath::RestoredFromCheckpoint
            }
            None => {
                opt.load_parameters(0, Vec::new(), &wal.batches);
                if had_checkpoint {
                    RecoveryPath::RebuiltAfterCorruptCheckpoint
                } else if had_history {
                    RecoveryPath::RebuiltFromScratch
                } else {
                    RecoveryPath::Committed
                }
            }
        };
        opt.durable = Some(Durable::new(dir.to_path_buf(), wal.next_seq));
        let mut outcome = opt.optimize();
        outcome.recovery.path = path;
        outcome.recovery.errors.splice(0..0, errors);
        Ok((opt, outcome))
    }

    /// The `(expr, prop)` columns every row about group `g` starts with.
    fn group_key(&self, g: GroupId) -> [Val; 2] {
        let d = self.memo.group(g);
        [encode_expr(d.expr), self.props.encode(d.prop)]
    }

    /// Hands the epoch's result to the caller. The plan is extracted
    /// here, so a network whose relations contradict each other is
    /// caught while the ladder can still answer: the failure joins the
    /// report and the rebuild rung recomputes every relation from the
    /// memo and the `LocalCost` mirror.
    fn outcome(&mut self, mut stats: RunStats, mut recovery: RecoveryReport) -> DataflowOutcome {
        let plan = self.try_best_plan().unwrap_or_else(|e| {
            recovery.errors.push(e);
            recovery.path = RecoveryPath::RebuiltFromScratch;
            stats = self.rebuild_from_scratch();
            self.best_plan()
        });
        DataflowOutcome {
            cost: self.best_cost(),
            plan,
            stats,
            recovery,
            wal_write: Duration::ZERO,
            wal_wait: Duration::ZERO,
        }
    }

    /// `BestCost(expr,prop)` of group `g`, read by key from the state
    /// D9's aggregate holds.
    fn group_best(&self, key: [Val; 2]) -> Option<Val> {
        let group = self.net.group_state("BestCost", &Tuple::from_slice(&key))?;
        group.min().copied()
    }

    /// The root's `BestCost` value.
    pub fn best_cost(&self) -> Cost {
        self.group_best(self.group_key(self.memo.root))
            .map_or(Cost::INFINITY, |c| c.as_cost())
    }

    /// Rule D10 for one `BestCost(expr,prop,cost)` row: the alternatives
    /// of `g` — the memo is `Fn_split`, so this is the index on `index`,
    /// in ascending [`AltId`] — whose `PlanCost` row carries `cost`. One
    /// point probe per alternative visited; a pruned alternative has no
    /// row to hit.
    fn best_alts<'a>(
        &'a self,
        plan_cost: &'a Multiset,
        g: GroupId,
        key: [Val; 2],
        cost: Val,
    ) -> impl Iterator<Item = AltId> + 'a {
        self.memo.alts_of(g).filter(move |a| {
            self.plan_cost_probes.set(self.plan_cost_probes.get() + 1);
            plan_cost.contains(&Tuple::from_slice(&[key[0], key[1], Val::Int(a.0 as i64), cost]))
        })
    }

    /// The best plan: rule D10 ([`BEST_PLAN_RULE`]) evaluated top-down
    /// from the root over the groups of the chosen tree only, each
    /// group's ties broken towards the lowest alternative id. Work is
    /// the plan's size times the alternatives per group: no relation is
    /// swept, nothing but the plan is allocated.
    ///
    /// Every epoch ends by extracting its plan (and rebuilding the
    /// network if that fails), so this cannot fail on an optimizer that
    /// has run one; it panics if called before the first `optimize`.
    pub fn best_plan(&self) -> PlanNode {
        self.try_best_plan()
            .unwrap_or_else(|e| panic!("no plan to extract (was `optimize` run?): {e}"))
    }

    fn try_best_plan(&self) -> Result<PlanNode, DataflowError> {
        self.extract(plan_cost_rows(&self.net), self.memo.root)
    }

    fn extract(&self, plan_cost: &Multiset, g: GroupId) -> Result<PlanNode, DataflowError> {
        let def = self.memo.group(g);
        let key = self.group_key(g);
        let best = self.group_best(key);
        let Some(a) = best.and_then(|cost| self.best_alts(plan_cost, g, key, cost).next()) else {
            return Err(DataflowError::InvariantViolation(format!(
                "plan extraction: group {g:?} ({:?}) is on the chosen tree but `BestCost` \
                 holds {best:?} for it and no `PlanCost` row carries that cost",
                def.expr
            )));
        };
        let alt = self.memo.alt(a);
        Ok(PlanNode {
            expr: def.expr,
            prop: def.prop,
            op: alt.op,
            children: alt
                .children()
                .map(|c| self.extract(plan_cost, c))
                .collect::<Result<_, _>>()?,
        })
    }

    /// Rule D10's whole relation, sorted (tests and diagnostics): the
    /// evaluation [`DataflowOptimizer::best_plan`] runs per group, run
    /// over every `BestCost` row and keeping every hit.
    pub fn best_plan_rows(&self) -> Vec<Tuple> {
        let plan_cost = plan_cost_rows(&self.net);
        let mut rows = Vec::new();
        for (t, _) in self.view("BestCost").iter() {
            let key = [t.get(0), t.get(1)];
            let g = self
                .memo
                .lookup(decode_expr(key[0].as_int()), self.props.decode(key[1].as_int()))
                .expect("`BestCost` holds memo groups only");
            rows.extend(self.best_alts(plan_cost, g, key, t.get(2)).map(|a| {
                Tuple::from_slice(&[key[0], key[1], Val::Int(a.0 as i64), t.get(2)])
            }));
        }
        rows.sort();
        rows
    }

    /// `PlanCost` point probes plan extraction has made over this
    /// optimizer's lifetime (diagnostics; the work-bound test reads the
    /// difference around one [`DataflowOptimizer::best_plan`]).
    pub fn plan_cost_probes(&self) -> u64 {
        self.plan_cost_probes.get()
    }

    /// The `LocalCost` relation as the network holds it — the mirror
    /// less the pruned alternatives — in `AltId` order (diagnostics; the
    /// D10 differential feeds its reference network from this).
    pub fn local_cost_rows(&self) -> Vec<Tuple> {
        (0..self.memo.n_alts() as u32)
            .filter(|&a| !self.pruned[a as usize])
            .map(|a| {
                let key = self.group_key(self.memo.alt(AltId(a)).group);
                local_tuple(key, AltId(a), self.local[a as usize])
            })
            .collect()
    }

    /// Distinct `SearchSpace` tuples the network derived — compared by
    /// tests against the memo's alternative count.
    pub fn search_space_size(&self) -> usize {
        self.view("SearchSpace").len()
    }

    /// Dataflow node count (diagnostics).
    pub fn network_nodes(&self) -> usize {
        self.net.node_count()
    }

    /// Operator nodes the compiler absorbed into fused chains
    /// (diagnostics).
    pub fn fused_nodes(&self) -> usize {
        self.net.fused_node_count()
    }

    /// Shared arrangements the compiler built for the executable
    /// program (diagnostics).
    pub fn arrangements(&self) -> usize {
        self.net.arrangement_count()
    }

    /// Per-node lifetime service counters of the live network
    /// (profiling diagnostics).
    pub fn node_stats(&self) -> Vec<NodeStats> {
        self.net.node_stats()
    }

    /// Epochs run so far, counting the epochs a restart replayed
    /// (diagnostics; the audit samples on it).
    pub fn epochs_seen(&self) -> u64 {
        self.epochs_seen
    }

    /// The applied-delta log: the last write per parameter, in
    /// first-write order (diagnostics; checkpoints persist it).
    pub fn applied_log(&self) -> &[ParamDelta] {
        &self.applied
    }

    /// The live network's batch-consolidator footprint (diagnostics):
    /// bounded by the last epoch's largest batch, not by history.
    pub fn consolidator_footprint(&self) -> ConsolidatorFootprint {
        self.net.consolidator_footprint()
    }

    /// Alternatives currently excluded from the network's `LocalCost`
    /// relation by driver-side pruning (diagnostics).
    pub fn pruned_alternatives(&self) -> usize {
        self.pruned.iter().filter(|&&p| p).count()
    }
}

/// `LocalCost` of every alternative, recomputed from the context, in
/// [`AltId`] order (alternative ids are dense in group order).
fn local_costs<'a>(
    memo: &'a Memo,
    ctx: &'a mut CostContext,
    q: &'a QuerySpec,
) -> impl Iterator<Item = (GroupId, AltId, Cost)> + 'a {
    (0..memo.n_alts() as u32).map(AltId).map(move |a| {
        let alt = memo.alt(a);
        let d = memo.group(alt.group);
        (alt.group, a, ctx.local_cost(q, d.expr, d.prop, &alt.spec))
    })
}

/// Dedup key for the applied-delta log: parameter kind plus id.
fn applied_key(d: &ParamDelta) -> (u8, u32) {
    match d {
        ParamDelta::EdgeSelectivity(e, _) => (0, e.0),
        ParamDelta::LeafCardinality(l, _) => (1, l.0),
        ParamDelta::LeafScanCost(l, _) => (2, l.0),
    }
}

/// Folds `deltas` into `log`, which holds one entry per parameter in
/// first-write order: factors are absolute, so only the last write to
/// a parameter matters.
fn fold_last_writes(log: &mut Vec<ParamDelta>, deltas: &[ParamDelta]) {
    for d in deltas {
        let key = applied_key(d);
        match log.iter_mut().find(|e| applied_key(e) == key) {
            Some(slot) => *slot = *d,
            None => log.push(*d),
        }
    }
}

/// The `LocalCost(expr,prop,index,cost)` row of alternative `a`, whose
/// group's columns are `key` ([`DataflowOptimizer::group_key`]).
fn local_tuple(key: [Val; 2], a: AltId, c: Cost) -> Tuple {
    Tuple::from_slice(&[key[0], key[1], Val::Int(a.0 as i64), Val::Cost(c)])
}

/// A sink's contents as a comparable `tuple → count` map.
fn counted(sink: &Multiset) -> FxHashMap<Tuple, i64> {
    sink.iter().map(|(t, c)| (t.clone(), c)).collect()
}

/// Compiles [`DATAFLOW_RULES`] with the memo-backed externals and the
/// `PlanCost` release order `strata` ([`plan_cost_strata`]).
fn build_network(memo: Rc<Memo>, props: Rc<PropTable>, strata: &[u32]) -> RuleNetwork {
    let split_memo = Rc::clone(&memo);
    let split_props = Rc::clone(&props);
    // Pre-encode Fn_split's output rows once per alternative: the
    // function sits on the network's hottest path (every enumeration
    // delta re-invokes it), so its emissions must not re-intern symbols
    // or format operator names per call — nor may this loop: a memo
    // holds a dozen distinct operators however many alternatives, so
    // the `logOp`/`phyOp` symbols are interned once per operator.
    let null = null_value();
    let mut op_names: FxHashMap<PhysOp, [Val; 2]> = FxHashMap::default();
    let split_rows: Vec<[Val; 7]> = (0..memo.n_alts() as u32)
        .map(|ai| {
            let alt = memo.alt(AltId(ai));
            let child = |c: Option<GroupId>| -> (Val, Val) {
                match c {
                    None => (null, null),
                    Some(cg) => {
                        let d = memo.group(cg);
                        (encode_expr(d.expr), props.encode(d.prop))
                    }
                }
            };
            let (le, lp) = child(alt.left);
            let (re, rp) = child(alt.right);
            let [log_op, phy_op] = *op_names.entry(alt.op).or_insert_with(|| {
                [Val::str(alt.op.logical_name()), Val::str(&alt.op.to_string())]
            });
            [
                Val::Int(ai as i64),
                log_op,
                phy_op,
                le,
                lp,
                re,
                rp,
            ]
        })
        .collect();
    let mut builder = NetworkBuilder::new().input("Expr", 2).input("LocalCost", 4);
    for name in SINKS {
        builder = builder.sink(name);
    }
    builder
        .rules(program().iter().cloned())
        // `PlanCost(expr,prop,index,cost)`, held by `index`.
        .release_order("PlanCost", 2, strata.to_vec())
        // Fn_split(expr,prop | index,logOp,phyOp,lExpr,lProp,rExpr,rProp):
        // every alternative of the demanded (expr,prop) group, from the
        // interned memo (the §2.3 memoization). `null` demands — the
        // child slots of scan tuples fed back by D2/D3 — expand to
        // nothing, which is the Fn_isleaf guard of R1–R3.
        .external("Fn_split", 2, move |args, emit| {
            let (Val::Int(e), Val::Int(p)) = (args[0], args[1]) else {
                return;
            };
            let Some(g) = split_memo.lookup(decode_expr(e), split_props.decode(p)) else {
                return;
            };
            for a in split_memo.alts_of(g) {
                emit(&split_rows[a.0 as usize]);
            }
        })
        // Fn_present(x |): holds unless `x` is the `null` of an absent
        // child slot (the paper's `Fn_isleaf` guards, negated).
        .external("Fn_present", 1, move |args, emit| {
            if args[0] != null {
                emit(&[]);
            }
        })
        // Fn_sum(lCost,rCost,localCost | cost): R7/R8's total, summed in
        // the same association order as the hand-rolled optimizer
        // (local, then left, then right) so totals agree bit-for-bit.
        // Non-cost operands (the `null` of R7) contribute nothing.
        .external("Fn_sum", 3, move |args, emit| {
            let mut total = args[2].as_cost();
            if let Val::Cost(l) = args[0] {
                total += l;
            }
            if let Val::Cost(r) = args[1] {
                total += r;
            }
            emit(&[Val::Cost(total)]);
        })
        .build()
        .expect("the executable program compiles (pinned by tests)")
}

#[cfg(test)]
mod tests {
    use super::*;
    use reopt_core::fixtures::{
        agg_chain_query, chain_query, cycle_query, fixture_catalog, shaped_query, star_query,
    };
    use reopt_core::{IncrementalOptimizer, PruningConfig};
    use reopt_expr::{EdgeId, LeafId};

    fn fixture_queries() -> Vec<QuerySpec> {
        let c = fixture_catalog();
        vec![
            chain_query(&c, 2),
            chain_query(&c, 3),
            chain_query(&c, 5),
            agg_chain_query(&c, 4),
            cycle_query(&c),
            star_query(&c),
        ]
    }

    /// Asserts both engines agree on the current best cost, and that the
    /// dataflow engine's extracted plan re-prices to that cost.
    fn assert_agree(df: &DataflowOutcome, hand: &reopt_core::Outcome, what: &str) {
        assert!(
            df.cost.approx_eq(hand.cost),
            "{what}: dataflow {:?} vs hand-rolled {:?}",
            df.cost,
            hand.cost
        );
    }

    #[test]
    fn the_executable_program_parses_and_compiles() {
        assert_eq!(dataflow_program().len(), 7);
        parse_rules([BEST_PLAN_RULE]).expect("the specification of `best_plan` parses");
        let c = fixture_catalog();
        let opt = DataflowOptimizer::new(&c, chain_query(&c, 3));
        assert!(opt.network_nodes() > 10);
        // What the compiler's proofs leave of it: `BestCost` is read
        // off D9's aggregate, the joins run `Fn_sum` themselves, and of
        // the cost loop only the held, three-rule `PlanCost` coalesces.
        // D10 is answered on demand: none of its nodes is built.
        let nodes = opt.node_stats();
        let live = |label: &str| nodes.iter().find(|n| n.label == label);
        for gone in ["distinct[BestCost]", "distinct[BestPlan]", "map[D9]"] {
            assert!(live(gone).is_none(), "{gone}");
        }
        assert!(!nodes.iter().any(|n| n.label.contains("D10")), "{nodes:?}");
        assert_eq!(opt.arrangements(), 2);
        assert!(opt.sink("BestPlan").is_none());
        assert!(!nodes.iter().any(|n| n.label.starts_with("Fn_sum")));
        assert!(live("fused:Fn_sum[D8]").is_some());
        assert!(live("distinct[PlanCost]").unwrap().coalesces);
        for proven in ["group-agg[D9]", "arrange[D6]", "arrange[D7]"] {
            assert!(!live(proven).unwrap().coalesces, "{proven}");
        }
    }

    #[test]
    fn initial_optimization_matches_hand_rolled_on_fixtures() {
        let c = fixture_catalog();
        for q in fixture_queries() {
            let mut df = DataflowOptimizer::new(&c, q.clone());
            let mut hand = IncrementalOptimizer::new(&c, q.clone(), PruningConfig::none());
            let got = df.optimize();
            let want = hand.optimize();
            assert_agree(&got, &want, &q.name);
            // The network derived the full SearchSpace: one tuple per
            // memo alternative (rules R1–R5 at fixpoint).
            assert_eq!(df.search_space_size(), df.memo().n_alts(), "{}", q.name);
            // The extracted plan re-prices to the claimed cost.
            let mut ctx = CostContext::new(&c, &q);
            assert!(ctx.plan_cost(&q, &got.plan).approx_eq(got.cost), "{}", q.name);
        }
    }

    #[test]
    fn three_kinds_of_incremental_updates_match_hand_rolled() {
        // The acceptance gate: cardinality, cost-parameter (scan) and
        // selectivity deltas, singly and batched, on every fixture.
        let c = fixture_catalog();
        let batches: Vec<Vec<ParamDelta>> = vec![
            vec![ParamDelta::LeafCardinality(LeafId(1), 4.0)],
            vec![ParamDelta::LeafScanCost(LeafId(0), 6.0)],
            vec![ParamDelta::EdgeSelectivity(EdgeId(0), 8.0)],
            vec![
                ParamDelta::EdgeSelectivity(EdgeId(0), 0.25),
                ParamDelta::LeafScanCost(LeafId(1), 3.0),
                ParamDelta::LeafCardinality(LeafId(0), 0.5),
            ],
        ];
        for q in fixture_queries() {
            for batch in &batches {
                let mut df = DataflowOptimizer::new(&c, q.clone());
                let mut hand =
                    IncrementalOptimizer::new(&c, q.clone(), PruningConfig::none());
                df.optimize();
                hand.optimize();
                let got = df.reoptimize(batch);
                let want = hand.reoptimize(batch);
                assert_agree(&got, &want, &format!("{} after {batch:?}", q.name));
            }
        }
    }

    #[test]
    fn update_sequences_stay_in_lockstep() {
        let c = fixture_catalog();
        let q = chain_query(&c, 5);
        let mut df = DataflowOptimizer::new(&c, q.clone());
        let mut hand = IncrementalOptimizer::new(&c, q.clone(), PruningConfig::none());
        assert_agree(&df.optimize(), &hand.optimize(), "initial");
        let seq: Vec<Vec<ParamDelta>> = vec![
            vec![ParamDelta::EdgeSelectivity(EdgeId(1), 8.0)],
            vec![ParamDelta::LeafCardinality(LeafId(2), 0.2)],
            vec![ParamDelta::LeafScanCost(LeafId(4), 5.0)],
            vec![ParamDelta::EdgeSelectivity(EdgeId(1), 1.0)], // revert
            vec![ParamDelta::LeafScanCost(LeafId(4), 0.5)],
        ];
        for (i, batch) in seq.iter().enumerate() {
            let got = df.reoptimize(batch);
            let want = hand.reoptimize(batch);
            assert_agree(&got, &want, &format!("step {i}"));
        }
    }

    #[test]
    fn plan_switch_is_tracked_incrementally() {
        // Blowing up a selectivity makes the previously best plan
        // expensive; the maintained view must land on the new optimum
        // (priced by an independent context) without re-seeding.
        let c = fixture_catalog();
        let q = chain_query(&c, 5);
        let mut df = DataflowOptimizer::new(&c, q.clone());
        let initial = df.optimize();
        let batch = vec![ParamDelta::EdgeSelectivity(EdgeId(1), 8.0)];
        let out = df.reoptimize(&batch);
        assert!(out.cost > initial.cost);
        let mut ctx = CostContext::new(&c, &q);
        ctx.apply(&batch);
        assert!(ctx.plan_cost(&q, &out.plan).approx_eq(out.cost));
    }

    #[test]
    fn compiled_network_collapses_work_visibly() {
        // The tentpole's observability: the compiler fused chains
        // (Fn_split scan chains), and runs report shared probes.
        let c = fixture_catalog();
        let mut df = DataflowOptimizer::new(&c, chain_query(&c, 5));
        assert!(
            df.network_nodes() > df.memo().n_alts() / 10,
            "sanity: network exists"
        );
        assert!(df.arrangements() > 0, "compiler shared no arrangements");
        let init = df.optimize();
        assert!(init.stats.fused_stages_saved > 0, "{:?}", init.stats);
        assert!(
            init.stats.join_probes < init.stats.join_probe_deltas,
            "batch probing shared nothing: {:?}",
            init.stats
        );
        let re = df.reoptimize(&[ParamDelta::LeafCardinality(LeafId(2), 2.0)]);
        assert!(
            re.stats.join_probes < re.stats.join_probe_deltas,
            "incremental probing shared nothing: {:?}",
            re.stats
        );
    }

    #[test]
    fn scheduler_matrix_agrees_on_the_executable_program() {
        // The same DATAFLOW_RULES network under {batched+fusion,
        // batched, per-delta} — pinned here at the optimizer level; the
        // generic-network matrix lives in reopt-datalog's differential
        // suite. The compiler path is exercised via NetworkBuilder
        // options inside build_network only for the default, so this
        // compares DataflowOptimizer (fused default) against the
        // hand-rolled engine after a mixed update sequence — and the
        // fused network against its own unfused node diagnostics.
        let c = fixture_catalog();
        let q = chain_query(&c, 4);
        let mut df = DataflowOptimizer::new(&c, q.clone());
        df.optimize();
        assert!(df.fused_nodes() > 0, "compiler emitted no fused chains");
        let mut hand = IncrementalOptimizer::new(&c, q, PruningConfig::none());
        hand.optimize();
        for batch in [
            vec![ParamDelta::LeafScanCost(LeafId(0), 2.0)],
            vec![ParamDelta::EdgeSelectivity(EdgeId(1), 4.0)],
            vec![ParamDelta::LeafCardinality(LeafId(3), 0.25)],
            vec![ParamDelta::EdgeSelectivity(EdgeId(1), 1.0)],
        ] {
            let got = df.reoptimize(&batch);
            let want = hand.reoptimize(&batch);
            assert_agree(&got, &want, &format!("{batch:?}"));
        }
    }

    #[test]
    fn unchanged_parameters_cause_no_work() {
        let c = fixture_catalog();
        let q = chain_query(&c, 4);
        let mut df = DataflowOptimizer::new(&c, q);
        df.optimize();
        let first = df.reoptimize(&[ParamDelta::LeafScanCost(LeafId(0), 2.0)]);
        assert!(first.stats.deltas_processed > 0);
        // Same factor again: no affected parameters, no deltas pushed,
        // nothing propagates (Fig 9's quiescence).
        let second = df.reoptimize(&[ParamDelta::LeafScanCost(LeafId(0), 2.0)]);
        assert_eq!(second.stats.deltas_processed, 0);
        assert_eq!(second.cost, first.cost);
    }

    #[test]
    fn injected_fault_recovers_via_rollback_and_retry() {
        // One shot: the epoch aborts mid-flight, the substrate rolls
        // back, and the retry replays the same deltas to the same
        // fixpoint a fault-free twin reaches.
        let c = fixture_catalog();
        let q = chain_query(&c, 4);
        let mut oracle = DataflowOptimizer::new(&c, q.clone());
        oracle.optimize();
        let mut victim = DataflowOptimizer::new(&c, q.clone());
        victim.optimize();
        let batch = vec![ParamDelta::EdgeSelectivity(EdgeId(1), 6.0)];
        let want = oracle.reoptimize(&batch);
        victim.inject_fault(reopt_datalog::FaultPlan::one_shot(3));
        let got = victim.reoptimize(&batch);
        assert_eq!(got.recovery.path, RecoveryPath::RetriedAfterRollback);
        assert_eq!(got.recovery.errors.len(), 1);
        assert!(matches!(
            got.recovery.errors[0],
            DataflowError::InjectedFault { .. }
        ));
        assert_eq!(victim.rollbacks(), 1);
        assert!(got.cost.approx_eq(want.cost), "{:?} vs {:?}", got.cost, want.cost);
        assert_eq!(got.plan, want.plan);
        for name in ["SearchSpace", "BestCost"] {
            assert_eq!(
                counted(victim.sink(name).unwrap()),
                counted(oracle.sink(name).unwrap()),
                "{name}"
            );
        }
        assert_eq!(victim.best_plan_rows(), oracle.best_plan_rows());
    }

    #[test]
    fn repeated_faults_degrade_to_a_from_scratch_rebuild() {
        // Two shots kill the retry too; the ladder's last rung rebuilds
        // the network from the memo + mirror and still converges to the
        // oracle's fixpoint.
        let c = fixture_catalog();
        let q = chain_query(&c, 4);
        let mut oracle = DataflowOptimizer::new(&c, q.clone());
        oracle.optimize();
        let mut victim = DataflowOptimizer::new(&c, q.clone());
        victim.optimize();
        let batch = vec![ParamDelta::LeafCardinality(LeafId(2), 0.2)];
        let want = oracle.reoptimize(&batch);
        victim.inject_fault(reopt_datalog::FaultPlan::with_shots(2, 2));
        let got = victim.reoptimize(&batch);
        assert_eq!(got.recovery.path, RecoveryPath::RebuiltFromScratch);
        assert_eq!(got.recovery.errors.len(), 2);
        assert!(got.cost.approx_eq(want.cost));
        assert_eq!(got.plan, want.plan);
        for name in ["SearchSpace", "BestCost"] {
            assert_eq!(
                counted(victim.sink(name).unwrap()),
                counted(oracle.sink(name).unwrap()),
                "{name}"
            );
        }
        assert_eq!(victim.best_plan_rows(), oracle.best_plan_rows());
        // The rebuilt instance is fully serviceable: further updates and
        // a full audit behave as if the faults never happened.
        let b2 = vec![ParamDelta::LeafScanCost(LeafId(0), 4.0)];
        let got2 = victim.reoptimize(&b2);
        let want2 = oracle.reoptimize(&b2);
        assert_eq!(got2.recovery.path, RecoveryPath::Committed);
        assert!(got2.cost.approx_eq(want2.cost));
        victim.audit().expect("rebuilt state passes the audit");
    }

    #[test]
    fn budget_starvation_degrades_to_a_rebuild_with_default_budget() {
        // A budget so tight even the ×4 retry overruns: the rebuild
        // comes up with the compiled default and converges.
        let c = fixture_catalog();
        let q = chain_query(&c, 4);
        let mut oracle = DataflowOptimizer::new(&c, q.clone());
        oracle.optimize();
        let mut victim = DataflowOptimizer::new(&c, q.clone());
        victim.optimize();
        let batch = vec![ParamDelta::EdgeSelectivity(EdgeId(0), 9.0)];
        let want = oracle.reoptimize(&batch);
        victim.set_max_steps(1);
        let got = victim.reoptimize(&batch);
        assert_eq!(got.recovery.path, RecoveryPath::RebuiltFromScratch);
        assert!(got
            .recovery
            .errors
            .iter()
            .all(|e| matches!(e, DataflowError::FixpointOverrun { .. })));
        assert!(got.cost.approx_eq(want.cost));
        assert_eq!(got.plan, want.plan);
    }

    #[test]
    fn audit_passes_on_every_fixture_and_epoch() {
        let c = fixture_catalog();
        for q in fixture_queries() {
            let mut df = DataflowOptimizer::new(&c, q.clone());
            df.set_audit_mode(AuditMode::Every(1));
            let init = df.optimize();
            assert_eq!(init.recovery.audit, AuditOutcome::Passed, "{}", q.name);
            assert!(init.recovery.is_clean());
            let re = df.reoptimize(&[ParamDelta::LeafCardinality(LeafId(0), 3.0)]);
            assert_eq!(re.recovery.audit, AuditOutcome::Passed, "{}", q.name);
        }
    }

    #[test]
    fn audit_catches_a_torn_local_cost_mirror() {
        // Hand-corrupt the mirror behind the network's back: the audit
        // must flag the divergence instead of silently drifting.
        let c = fixture_catalog();
        let q = chain_query(&c, 3);
        let mut df = DataflowOptimizer::new(&c, q);
        df.optimize();
        df.local[0] = Cost::new(12345.0);
        let err = df.audit().expect_err("torn mirror must fail the audit");
        match err {
            DataflowError::InvariantViolation(m) => {
                assert!(m.contains("LocalCost mirror"), "{m}")
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn audit_sampling_respects_the_period() {
        let c = fixture_catalog();
        let q = chain_query(&c, 3);
        let mut df = DataflowOptimizer::new(&c, q);
        df.set_audit_mode(AuditMode::Every(2));
        // Epochs are 1-based: epoch 1 is off-sample, epoch 2 audits.
        let first = df.optimize();
        assert_eq!(first.recovery.audit, AuditOutcome::NotSampled);
        let second = df.reoptimize(&[ParamDelta::LeafScanCost(LeafId(0), 2.0)]);
        assert_eq!(second.recovery.audit, AuditOutcome::Passed);
    }

    #[test]
    fn incremental_updates_touch_a_fraction_of_the_network() {
        // A single-leaf scan-cost tweak must not re-derive the space:
        // the incremental run processes far fewer deltas than the
        // initial evaluation.
        let c = fixture_catalog();
        let q = chain_query(&c, 5);
        let mut df = DataflowOptimizer::new(&c, q);
        let init = df.optimize();
        let out = df.reoptimize(&[ParamDelta::LeafScanCost(LeafId(4), 1.3)]);
        assert!(
            out.stats.deltas_processed * 3 < init.stats.deltas_processed,
            "incremental {} vs initial {}",
            out.stats.deltas_processed,
            init.stats.deltas_processed
        );
    }

    #[test]
    fn prop_table_interns_unseen_properties_instead_of_panicking() {
        // Regression: `encode` used to index a map frozen at build time
        // and panicked on any property the memo's groups never carried
        // (reachable through probe paths that price foreign interesting
        // orders). It now interns on miss with a stable fresh id.
        let c = fixture_catalog();
        let q = chain_query(&c, 3);
        let memo = Memo::build(&q, &JoinGraph::new(&q));
        let props = PropTable::new(&memo);
        let alien = PhysProp::Sorted(reopt_expr::LeafCol::new(97, 42));
        let Val::Int(id) = props.encode(alien) else {
            panic!("encode yields dense Int ids")
        };
        assert_eq!(props.encode(alien), Val::Int(id), "fresh ids are stable");
        assert_eq!(props.decode(id), alien);
        let Val::Int(any) = props.encode(PhysProp::Any) else {
            panic!("encode yields dense Int ids")
        };
        assert_ne!(any, id, "known properties keep their dense ids");
        assert_eq!(props.decode(any), PhysProp::Any);
    }

    #[test]
    fn pruned_and_unpruned_builds_agree_with_hand_rolled() {
        // The pruning differential: driver-side pruning must be purely
        // an optimization — costs stay exact against the unpruned
        // hand-rolled engine across every fixture and a mixed update
        // sequence (including a revert), while SearchSpace stays
        // complete so Fn_split demand is unaffected.
        let c = fixture_catalog();
        let batches: Vec<Vec<ParamDelta>> = vec![
            vec![ParamDelta::EdgeSelectivity(EdgeId(0), 7.0)],
            vec![ParamDelta::LeafCardinality(LeafId(1), 0.3)],
            vec![ParamDelta::LeafScanCost(LeafId(0), 5.0)],
            vec![ParamDelta::EdgeSelectivity(EdgeId(0), 1.0)], // revert
        ];
        let mut ever_pruned = 0usize;
        for q in fixture_queries() {
            let mut pruned = DataflowOptimizer::new(&c, q.clone());
            let mut hand = IncrementalOptimizer::new(&c, q.clone(), PruningConfig::none());
            let w = hand.optimize();
            assert_agree(&pruned.optimize(), &w, &q.name);
            assert_eq!(pruned.search_space_size(), pruned.memo().n_alts(), "{}", q.name);
            ever_pruned += pruned.pruned_alternatives();
            for batch in &batches {
                let got = pruned.reoptimize(batch);
                let want = hand.reoptimize(batch);
                assert_agree(&got, &want, &format!("{} pruned after {batch:?}", q.name));
                assert_eq!(
                    pruned.search_space_size(),
                    pruned.memo().n_alts(),
                    "{}: pruning leaked into SearchSpace",
                    q.name
                );
            }
            pruned.audit().expect("pruned state passes the audit");
        }
        assert!(ever_pruned > 0, "pruning never excluded an alternative");
    }

    #[test]
    fn a_fresh_engine_given_deltas_optimizes_first() {
        // Regression: `reoptimize` before `optimize` used to panic on
        // an `assert!`. It now runs the initial evaluation itself and
        // lands exactly where the explicit two-step call does.
        let c = fixture_catalog();
        let batch = vec![
            ParamDelta::EdgeSelectivity(EdgeId(0), 8.0),
            ParamDelta::LeafCardinality(LeafId(1), 0.25),
        ];
        for q in fixture_queries() {
            let mut lazy = DataflowOptimizer::new(&c, q.clone());
            let mut eager = DataflowOptimizer::new(&c, q.clone());
            eager.optimize();
            let got = lazy.reoptimize(&batch);
            let want = eager.reoptimize(&batch);
            assert!(got.recovery.is_clean(), "{}: {:?}", q.name, got.recovery);
            assert_eq!(got.cost, want.cost, "{}", q.name);
            assert_eq!(got.plan, want.plan, "{}", q.name);
            assert_eq!(lazy.best_plan(), eager.best_plan(), "{}", q.name);
        }
    }

    #[test]
    fn parameters_the_query_does_not_have_reach_no_alternative() {
        // The candidates come from the hand-rolled engine's index, which
        // lists nothing for ids one past the query's: the network is fed
        // no delta.
        let c = fixture_catalog();
        for q in fixture_queries() {
            let mut df = DataflowOptimizer::new(&c, q.clone());
            let first = df.optimize();
            let out = df.reoptimize(&[
                ParamDelta::LeafScanCost(LeafId(q.n_leaves()), 3.0),
                ParamDelta::LeafCardinality(LeafId(q.n_leaves()), 0.5),
                ParamDelta::EdgeSelectivity(EdgeId(q.edges.len() as u32), 0.25),
            ]);
            assert!(out.recovery.is_clean(), "{}: {:?}", q.name, out.recovery);
            assert_eq!(out.stats.deltas_processed, 0, "{}", q.name);
            assert_eq!((out.cost, &out.plan), (first.cost, &first.plan), "{}", q.name);
        }
    }

    #[test]
    fn an_unknown_sink_is_none_not_a_panic() {
        let c = fixture_catalog();
        let mut df = DataflowOptimizer::new(&c, chain_query(&c, 3));
        df.optimize();
        assert!(df.sink("BestCost").is_some());
        // `PlanCost` exists but is not materialized, `BestPlan` is
        // answered on demand (`best_plan_rows`); `Typo` does not exist.
        assert!(df.sink("PlanCost").is_none());
        assert!(df.sink("BestPlan").is_none());
        assert!(!df.best_plan_rows().is_empty());
        assert!(df.sink("Typo").is_none());
    }

    #[test]
    fn checkpoint_durable_without_a_directory_is_an_error() {
        let c = fixture_catalog();
        let mut df = DataflowOptimizer::new(&c, chain_query(&c, 3));
        df.optimize();
        let err = df
            .checkpoint_durable()
            .expect_err("no durable directory armed");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    /// A restart is a first boot on the recovered parameters: whatever
    /// the WAL tail's length it runs one epoch, and the substrate
    /// services exactly the deltas and batches it services for a fresh
    /// engine whose context was handed the same factors.
    #[test]
    fn a_restart_does_the_work_of_a_first_boot_whatever_the_tail_length() {
        let c = fixture_catalog();
        let q = chain_query(&c, 5);
        for tail_len in [0u32, 1, 40] {
            let dir = std::env::temp_dir().join(format!(
                "reopt-bridge-work-equivalence-{}-{tail_len}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let mut victim = DataflowOptimizer::new(&c, q.clone());
            victim.set_durable_dir(&dir).unwrap();
            victim.optimize();
            victim.reoptimize(&[ParamDelta::EdgeSelectivity(EdgeId(1), 2.0)]);
            victim.reoptimize(&[ParamDelta::LeafScanCost(LeafId(4), 4.0)]);
            victim.checkpoint_durable().unwrap();
            // Two parameters walked through values they do not hold at
            // the checkpoint, so every record is a real change.
            for i in 0..tail_len {
                let factor = f64::from(i % 3 + 3);
                victim.reoptimize(&[ParamDelta::LeafCardinality(LeafId(i % 2), factor)]);
            }
            let epochs = victim.epochs_seen();
            drop(victim); // the crash

            let (rec, out) = DataflowOptimizer::recover(&c, q.clone(), &dir).unwrap();
            assert_eq!(out.recovery.path, RecoveryPath::RestoredFromCheckpoint);
            assert!(out.recovery.errors.is_empty(), "{:?}", out.recovery.errors);
            assert_eq!(rec.applied_log().len(), 2 + tail_len.min(2) as usize);
            // The tail's epochs, plus the one the restart ran.
            assert_eq!(rec.epochs_seen(), epochs + 1);

            let mut fresh = DataflowOptimizer::new(&c, q.clone());
            fresh.ctx.apply(rec.applied_log());
            let want = fresh.optimize();
            assert_eq!(out.stats.epoch, 1, "tail of {tail_len}");
            assert_eq!(
                (out.stats.deltas_processed, out.stats.batches_processed),
                (want.stats.deltas_processed, want.stats.batches_processed),
                "tail of {tail_len}"
            );
            assert_eq!((out.cost, &out.plan), (want.cost, &want.plan));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// The write-ahead contract under the pipelined WAL: when
    /// `reoptimize` returns, the log scans clean to exactly `wal_seq`
    /// records in sequence, the last of them this batch — no-op batches
    /// (the early return) included.
    #[test]
    fn every_acknowledged_batch_is_the_logs_last_record() {
        let c = fixture_catalog();
        let dir = std::env::temp_dir().join(format!("reopt-bridge-acked-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut df = DataflowOptimizer::new(&c, chain_query(&c, 5));
        df.set_audit_mode(AuditMode::Off);
        let out = df.reoptimize(&[ParamDelta::LeafCardinality(LeafId(0), 2.0)]);
        assert_eq!((out.wal_write, out.wal_wait), (Duration::ZERO, Duration::ZERO));
        df.set_durable_dir(&dir).unwrap();
        let mut logged: Vec<Vec<ParamDelta>> = Vec::new();
        for i in 0..12u32 {
            let batch = match i % 4 {
                3 => logged.last().unwrap().clone(),
                _ => vec![ParamDelta::EdgeSelectivity(EdgeId(i % 4), f64::from(i % 3 + 2))],
            };
            let out = df.reoptimize(&batch);
            assert!(out.recovery.is_clean(), "{:?}", out.recovery);
            assert!(out.wal_write > Duration::ZERO);
            logged.push(batch);
            let wal = durable::open_dir(&dir).unwrap();
            let wal_seq = df.durable.as_ref().unwrap().wal_seq;
            assert_eq!((wal.next_seq, wal.torn, wal.error), (wal_seq, false, None));
            assert_eq!(wal.batches, logged, "epoch {i}");
        }
        drop(df);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Plan extraction reads two relations of the network against each
    /// other. A network that holds no `PlanCost` row for a group on the
    /// chosen tree — here a fresh one nothing was seeded into — is a
    /// reported error answered from the rebuild rung, not a panic in
    /// `best_plan`, and the rebuilt network is the live one.
    #[test]
    fn a_chosen_group_without_its_plan_cost_row_is_an_error_and_a_rebuild() {
        let c = fixture_catalog();
        let q = chain_query(&c, 5);
        let batch = [ParamDelta::EdgeSelectivity(EdgeId(1), 2.0)];
        let mut oracle = DataflowOptimizer::new(&c, q.clone());
        oracle.optimize();
        let want = oracle.reoptimize(&batch);

        let mut df = DataflowOptimizer::new(&c, q);
        df.optimize();
        df.reoptimize(&batch);
        df.net = df.fresh_network();
        let out = df.outcome(RunStats::default(), RecoveryReport::committed());
        assert_eq!(out.recovery.path, RecoveryPath::RebuiltFromScratch);
        assert!(
            matches!(
                out.recovery.errors.as_slice(),
                [DataflowError::InvariantViolation(m)] if m.contains("no `PlanCost` row")
            ),
            "{:?}",
            out.recovery.errors
        );
        assert_eq!((out.cost, &out.plan), (want.cost, &want.plan));
        assert_eq!(df.best_plan_rows(), oracle.best_plan_rows());
        // The rebuilt network is the live one: the next epoch is clean.
        let next = [ParamDelta::LeafCardinality(LeafId(2), 0.5)];
        let (got, want) = (df.reoptimize(&next), oracle.reoptimize(&next));
        assert!(got.recovery.is_clean(), "{:?}", got.recovery);
        assert_eq!((got.cost, &got.plan), (want.cost, &want.plan));
        df.audit().expect("the rebuilt state passes the audit");
    }

    /// The first run's enumeration bound: `Fn_split` expands each group
    /// once — D1 the root, D2 and D3 every other group behind their
    /// shared demand set — so what it emits *is* `SearchSpace`.
    #[test]
    fn the_first_run_enumerates_each_group_once() {
        let c = fixture_catalog();
        for shape in ["chain", "star", "clique"] {
            for n in 3..=8 {
                let mut df = DataflowOptimizer::new(&c, shaped_query(&c, shape, n));
                df.set_audit_mode(AuditMode::Off);
                let out = df.optimize();
                let nodes = df.node_stats();
                let memo = df.memo();
                let child = |g: Option<GroupId>| g.map_or([null_value(); 2], |g| df.group_key(g));
                let mut want: Vec<Tuple> = (0..memo.n_alts() as u32)
                    .map(|ai| {
                        let alt = memo.alt(AltId(ai));
                        let ([e, p], [le, lp], [re, rp]) =
                            (df.group_key(alt.group), child(alt.left), child(alt.right));
                        let log_op = Val::str(alt.op.logical_name());
                        let phy_op = Val::str(&alt.op.to_string());
                        Tuple::from_slice(&[e, p, Val::Int(ai as i64), log_op, phy_op, le, lp, re, rp])
                    })
                    .collect();
                want.sort();
                let space = df.sink("SearchSpace").unwrap();
                assert_eq!(space.sorted(), want, "{shape}{n}");
                assert!(space.iter().all(|(_, count)| count == 1), "{shape}{n}");
                let splits: Vec<u64> = (nodes.iter())
                    .filter(|node| node.label.starts_with("Fn_split"))
                    .map(|node| node.emitted)
                    .collect();
                assert_eq!(splits.len(), 2, "{nodes:?}");
                assert_eq!(splits.iter().sum::<u64>(), want.len() as u64, "{shape}{n}");
                // One demand per distinct child, the `null` child slots
                // of scan and one-child rows included.
                let mut children: Vec<Option<GroupId>> =
                    memo.alts.iter().flat_map(|alt| [alt.left, alt.right]).collect();
                children.sort_unstable();
                children.dedup();
                let demand = nodes.iter().find(|node| node.label == "distinct[demand:D2+D3]");
                assert_eq!(demand.unwrap().state_rows, children.len() as u64, "{shape}{n}");
                if (shape, n) == ("star", 8) {
                    assert_eq!((want.len(), children.len()), (2590, 450));
                    // 53 311 while every parent row re-ran the expansion.
                    assert!(out.stats.deltas_processed <= 35_000, "{:?}", out.stats);
                }
            }
        }
    }

    #[test]
    fn an_epoch_re_derives_each_alternative_and_group_once() {
        // The incremental claim, pinned by counts. Per epoch:
        // - the `PlanCost` distinct services at most a retraction and an
        //   assertion per alternative whose row really changed (or that
        //   entered or left the prune set), and D9's aggregate — which
        //   emits `BestCost` — at most the same per group whose best
        //   cost really changed, however deep the memo (without the
        //   depth release order: about 4× and 7× these on star-8);
        // - D8's static prefix (`SearchSpace ⋈ LocalCost`) lets out at
        //   most a pair per *binary* alternative whose `LocalCost` row
        //   changed or entered or left the prune set;
        // - the whole network services at most 40 deltas per changed
        //   `PlanCost` row (over this matrix: median 22, worst 37; with
        //   unary alternatives carried through D8 and every set
        //   re-gated, median 36 and worst 56).
        fn stat(df: &DataflowOptimizer, label: &str) -> NodeStats {
            let mut hits = df.node_stats().into_iter().filter(|r| r.label == label);
            let row = hits
                .next()
                .unwrap_or_else(|| panic!("no node labelled {label}"));
            assert!(hits.next().is_none(), "{label} is ambiguous");
            row
        }
        // The network's `PlanCost` rows (absent for pruned alternatives)
        // and `BestCost` values, from the driver's DP mirror.
        fn rows(df: &DataflowOptimizer) -> (Vec<Option<Cost>>, Vec<Cost>) {
            let dp = BoundDp::compute(&df.memo, &df.local, &df.topo);
            let plan_cost = (0..df.memo.n_alts())
                .map(|a| (!df.pruned[a]).then_some(dp.alt_cost[a]))
                .collect();
            (plan_cost, dp.best)
        }
        let c = fixture_catalog();
        for shape in ["chain", "star", "clique"] {
            for n in 3..=8 {
                let q = shaped_query(&c, shape, n);
                let last = LeafId(n as u32 - 1);
                let batches = [
                    vec![ParamDelta::LeafScanCost(LeafId(0), 6.0)],
                    vec![ParamDelta::EdgeSelectivity(EdgeId(0), 8.0)],
                    vec![ParamDelta::LeafCardinality(last, 0.1)],
                    vec![
                        ParamDelta::LeafCardinality(LeafId(1), 4.0),
                        ParamDelta::LeafCardinality(last, 2.0),
                        ParamDelta::EdgeSelectivity(EdgeId(0), 0.5),
                        ParamDelta::EdgeSelectivity(EdgeId(1), 3.0),
                    ],
                    vec![ParamDelta::LeafScanCost(LeafId(0), 1.0)],
                ];
                let mut df = DataflowOptimizer::new(&c, q.clone());
                df.optimize();
                for batch in &batches {
                    let (plan_before, best_before) = rows(&df);
                    let local_before = df.local.clone();
                    let pruned_before = df.pruned.clone();
                    let work = |df: &DataflowOptimizer| {
                        [
                            stat(df, "distinct[PlanCost]").deltas,
                            stat(df, "group-agg[D9]").emitted,
                            stat(df, "join[LocalCost][D8]").emitted,
                        ]
                    };
                    let before = work(&df);
                    let out = df.reoptimize(batch);
                    assert!(out.recovery.is_clean(), "{}: {:?}", q.name, out.recovery);
                    let (plan_after, best_after) = rows(&df);
                    let differs = |a: &usize| plan_before[*a] != plan_after[*a];
                    let moved = |a: &usize| pruned_before[*a] != df.pruned[*a];
                    let fed = |a: &usize| {
                        df.memo.alt(AltId(*a as u32)).right.is_some()
                            && (local_before[*a] != df.local[*a] || moved(a))
                    };
                    let alts = 0..df.memo.n_alts();
                    let changed =
                        alts.clone().filter(differs).count() + alts.clone().filter(moved).count();
                    let groups = 0..df.memo.n_groups();
                    let bounds = [
                        2 * changed,
                        2 * groups.filter(|&g| best_before[g] != best_after[g]).count(),
                        2 * alts.filter(fed).count(),
                    ];
                    let after = work(&df);
                    let what = ["distinct[PlanCost] serviced", "D9 emitted", "D8's prefix emitted"];
                    for (i, what) in what.iter().enumerate() {
                        let (did, bound) = (after[i] - before[i], bounds[i] as u64);
                        assert!(
                            did <= bound,
                            "{} after {batch:?}: {what} {did} deltas for a bound of {bound}",
                            q.name
                        );
                    }
                    assert!(
                        out.stats.deltas_processed <= 40 * changed as u64,
                        "{} after {batch:?}: {} deltas serviced for {changed} changed rows",
                        q.name,
                        out.stats.deltas_processed
                    );
                }
            }
        }
    }
}
