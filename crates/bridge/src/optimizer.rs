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
//!   the groups on the chosen tree only. [`DataflowEngine::best_plan`]
//!   evaluates the rule top-down with exactly that demand — per group,
//!   `BestCost(expr,prop)` read by key from D9's aggregate, then
//!   `PlanCost(expr,prop,a,cost)` point-probed in the rows
//!   `distinct[PlanCost]` holds over the memo's alternatives of the
//!   group (the memo is `Fn_split`, so it is the index on `index`) —
//!   instead of maintaining second copies of `BestCost` and `PlanCost`
//!   in two arrangements beside the ones D9, D7 and D8 already hold.
//!   The plan is read from the network's relations, never from the
//!   pruning authority below: it decides what to *withhold* from the
//!   network, and an answer taken from it would leave the network
//!   decorative and every differential against it vacuous.
//!
//! ## Pruning (§3.2, §3.3)
//!
//! Recursive bounding (the paper's r1–r4, Figure 3) and reference
//! counting (§3.2) are not re-derived here: the driver owns an
//! [`IncrementalOptimizer`] under [`PruningConfig::all`], which
//! maintains both incrementally, and the network holds that engine's
//! *held* set ([`IncrementalOptimizer::held`]) as its `LocalCost`
//! relation — every alternative live in a live group, the groups that
//! can still reach the root's plan. An alternative lives if its total is
//! within its group's bound or it is the group's argmin, so every held
//! group keeps its argmin, whose children are held too: `BestCost` is
//! exact on every group plan extraction visits, and the plan is still
//! read from the network. The network holds only that region (17 of the
//! 2 523 alternatives of `param_burst_star8`'s 8-relation star).
//! `SearchSpace` stays complete (enumeration is not pruned, only
//! costing).
//!
//! An epoch runs the engine's fixpoint
//! ([`IncrementalOptimizer::propagate`]), drains its change list —
//! each alternative whose held value may have moved, with the value it
//! had before — and feeds the network one retraction/assertion pair per
//! alternative whose held value did move. Its work is the region's, not
//! the memo's. The declarative engine is thereby the executable D1–D9
//! specification: it re-derives the costs of the held region from the
//! rules, and the audit holds it to the engine every epoch it samples.
//! The rules r1–r4 themselves are executed verbatim on the substrate by
//! `compile.rs`'s `paper_bound_rules_execute_on_the_substrate`, the way
//! the differential suite holds [`BEST_PLAN_RULE`] to its text.
//!
//! Column encoding: `expr` packs an [`ExprId`] (`rel` bits and the `agg`
//! flag) into an `Int`; `prop` is a dense index into the query's
//! property table; `index` is the global [`AltId`]; `logOp`/`phyOp` are
//! interned symbols; absent children are the shared `null` symbol, which
//! never joins `BestCost` — D6/D7/D8 partition the alternatives by arity
//! through their `null` patterns and the `Fn_present` guards that reject
//! a `null` slot where the row is scanned rather than at that join.

use std::cell::Cell;
use std::path::Path;
use std::rc::Rc;
use std::sync::OnceLock;

use reopt_catalog::Catalog;
use reopt_common::{Cost, FxHashMap};
use reopt_core::memo::{AltId, GroupId, Memo};
use reopt_core::rules_ir::{parse_rules, Rule};
use reopt_core::{IncrementalOptimizer, PruningConfig, Reoptimizer};
use reopt_cost::{CostContext, ParamDelta};
use reopt_datalog::{
    ConsolidatorFootprint, DataflowError, Delta, FaultPlan, Multiset, NodeStats, RunStats,
    SchedulerMode, Tuple, Val,
};
use reopt_expr::{ExprId, PhysOp, PhysProp, PlanNode, QuerySpec};

use crate::compile::{null_value, NetworkBuilder, RuleNetwork};
use crate::durable::{Durable, WriteReport};

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
/// [`DataflowEngine::best_plan`] evaluates on demand and no network
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

/// Dense encoding of the physical-property column. The memo is built
/// once and never grows, so the table assigns every id it will ever
/// need at construction: each property some memo group carries, in
/// first-seen order.
struct PropTable {
    by_prop: FxHashMap<PhysProp, i64>,
    props: Vec<PhysProp>,
}

impl PropTable {
    fn new(memo: &Memo) -> PropTable {
        let mut by_prop = FxHashMap::default();
        let mut props = Vec::new();
        for g in &memo.groups {
            by_prop.entry(g.prop).or_insert_with(|| {
                props.push(g.prop);
                props.len() as i64 - 1
            });
        }
        PropTable { by_prop, props }
    }

    /// The dense id of `p`, a property some memo group carries.
    fn encode(&self, p: PhysProp) -> Val {
        Val::Int(self.by_prop[&p])
    }

    /// The property behind a dense id (the `Fn_split` decode path).
    fn decode(&self, i: i64) -> PhysProp {
        self.props[i as usize]
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
}

impl WriteReport for DataflowOutcome {
    fn write_failed(&mut self, error: DataflowError) {
        self.recovery.errors.insert(0, error);
    }
}

/// How a (re)optimization epoch reached its committed fixpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryPath {
    /// The epoch committed on the first attempt.
    Committed,
    /// The attempt failed, poisoning the network; a fresh one was built
    /// from the memo and the pruning authority's held set (which already
    /// reflects every applied parameter delta) and evaluated, as a
    /// restart would.
    RebuiltFromScratch,
    /// A restart found a usable parameter image — the newest, or the
    /// other slot's beside a damaged newest one — loaded its log and
    /// optimized once. Every acknowledged epoch wrote an image, so this
    /// is the state the last acknowledged epoch left.
    RestoredFromCheckpoint,
    /// A restart found no usable image but a damaged one — torn,
    /// truncated, bit-flipped, of another format, version or query — in
    /// both slots or the only written one. Nothing is left to restore
    /// from, so the engine is rebuilt at base estimates, and a
    /// `StateCorruption` error says that every parameter was lost.
    RebuiltAfterCorruptCheckpoint,
}

/// Verdict of the sampled post-epoch audit (see [`AuditMode`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuditOutcome {
    /// This epoch was not in the sample.
    NotSampled,
    /// The audited state matched a from-scratch recompute and the
    /// pruning authority's invariants.
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
pub struct DataflowEngine {
    /// The pruning authority (see the module docs): it owns the query,
    /// the [`CostContext`] and the memo, which `memo` shares.
    core: IncrementalOptimizer,
    memo: Rc<Memo>,
    props: Rc<PropTable>,
    net: RuleNetwork,
    initialized: bool,
    audit: AuditMode,
    /// Epochs run so far: the audit samples on it.
    epochs: u64,
    /// [`plan_cost_strata`] of the memo: the `PlanCost` release order
    /// every network built for this query declares.
    strata: Vec<u32>,
    /// `PlanCost` point probes made by plan extraction so far (see
    /// [`DataflowEngine::plan_cost_probes`]).
    plan_cost_probes: Cell<u64>,
    /// Change-list entries the driver has visited so far (see
    /// [`DataflowEngine::visited_alternatives`]).
    visited: u64,
}

/// The declarative engine made durable ([`Durable`]): what the
/// benchmark and the adaptive loop run. Unarmed it is the engine plus
/// the parameter log a checkpoint would persist.
pub type DataflowOptimizer = Durable<DataflowEngine>;

impl DataflowOptimizer {
    pub fn new(catalog: &Catalog, q: QuerySpec) -> DataflowOptimizer {
        Durable::from(DataflowEngine::new(catalog, q))
    }

    /// [`Durable::restart`] on the declarative engine, with what the
    /// restart found on disk reported in the outcome's
    /// [`RecoveryReport`]: its label, and its errors ahead of the
    /// epoch's own. The restart's epoch is an epoch like any other: it
    /// runs behind the recovery ladder and is audited when `REOPT_AUDIT`
    /// samples it.
    pub fn recover(
        catalog: &Catalog,
        q: QuerySpec,
        dir: impl AsRef<Path>,
    ) -> std::io::Result<(DataflowOptimizer, DataflowOutcome)> {
        let build = |log: &[ParamDelta]| {
            let mut engine = DataflowEngine::new(catalog, q.clone());
            engine.preload(log);
            engine
        };
        let (opt, mut outcome, restart) = Durable::restart(dir, &q, build)?;
        outcome.recovery.path = restart.path;
        outcome.recovery.errors.splice(0..0, restart.errors);
        Ok((opt, outcome))
    }
}

/// The release order of `PlanCost` deltas, per [`AltId`]: 1 + the
/// longest-path depth of the alternative's group (group ids are
/// bottom-up, so walking them visits children first). Every row an
/// alternative's total is derived from — its children's `BestCost` —
/// belongs to a strictly
/// shallower group, sort-enforcer alternatives included, so releasing
/// `PlanCost` in this order hands D9 each group's final rows in one
/// batch: a `PlanCost` row and a `BestCost` group change at most once
/// per epoch instead of once per wave of the D7/D8→D9 cycle.
fn plan_cost_strata(memo: &Memo) -> Vec<u32> {
    let mut depth = vec![0u32; memo.n_groups()];
    for g in (0..memo.n_groups() as u32).map(GroupId) {
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

impl DataflowEngine {
    pub fn new(catalog: &Catalog, q: QuerySpec) -> DataflowEngine {
        let core = IncrementalOptimizer::new(catalog, q, PruningConfig::all());
        let memo = core.shared_memo();
        let props = Rc::new(PropTable::new(&memo));
        let strata = plan_cost_strata(&memo);
        let net = build_network(
            Rc::clone(&memo),
            Rc::clone(&props),
            &strata,
            SchedulerMode::Batched,
        );
        DataflowEngine {
            core,
            memo,
            props,
            net,
            initialized: false,
            audit: AuditMode::from_env(),
            epochs: 0,
            strata,
            plan_cost_probes: Cell::new(0),
            visited: 0,
        }
    }

    pub fn memo(&self) -> &Memo {
        &self.memo
    }

    /// The epoch of [`DataflowEngine::reoptimize`], from applying the
    /// batch to the outcome.
    fn apply_batch(&mut self, deltas: &[ParamDelta]) -> DataflowOutcome {
        if !self.core.propagate(deltas) {
            return self.outcome(RunStats::default(), RecoveryReport::committed());
        }
        // The change list comes in the order the fixpoint wrote it; the
        // network is fed in `AltId` order, a retraction before its
        // assertion.
        let mut changes = self.core.drain_changes();
        changes.sort_unstable_by_key(|&(a, _)| a);
        self.visited += changes.len() as u64;
        let mut rows: Vec<Delta> = Vec::new();
        for (a, before) in changes {
            let after = self.core.held(a);
            if before == after {
                continue;
            }
            let key = self.group_key(self.memo.alt(a).group);
            rows.extend(before.map(|c| Delta::delete(local_tuple(key, a, c))));
            rows.extend(after.map(|c| Delta::insert(local_tuple(key, a, c))));
        }
        self.net.extend("LocalCost", rows);
        let (stats, recovery) = self.run_recovering();
        self.outcome(stats, recovery)
    }

    /// Runs the network to fixpoint behind the recovery ladder, which
    /// has two rungs:
    ///
    /// 1. the attempt, under the network's step budget;
    /// 2. on any error — which poisons the network — a from-scratch
    ///    rebuild ([`DataflowEngine::rebuild_from_scratch`]).
    ///
    /// Callers always get a committed fixpoint plus a report of the
    /// failure absorbed on the way.
    fn run_recovering(&mut self) -> (RunStats, RecoveryReport) {
        let mut report = RecoveryReport::committed();
        let stats = self.net.run().unwrap_or_else(|e| {
            report.errors.push(e);
            report.path = RecoveryPath::RebuiltFromScratch;
            self.rebuild_from_scratch()
        });
        self.epochs += 1;
        report.audit = self.maybe_audit();
        (stats, report)
    }

    /// The ladder's rebuild rung, which is what a restart does: discard
    /// the poisoned network (and with it any armed fault plan or
    /// starved budget), compile a fresh one from the memo under the
    /// default budget, and re-seed it from the pruning authority's held
    /// set — which already reflects every applied parameter delta, so
    /// the fresh fixpoint equals the one the incremental epoch should
    /// have produced.
    fn rebuild_from_scratch(&mut self) -> RunStats {
        self.net = self.fresh_network();
        self.seed_network();
        self.net
            .run()
            .expect("a fresh fault-free network converges")
    }

    /// A new, unseeded network for this query.
    fn fresh_network(&self) -> RuleNetwork {
        let (memo, props) = (Rc::clone(&self.memo), Rc::clone(&self.props));
        build_network(memo, props, &self.strata, SchedulerMode::Batched)
    }

    /// Seeds a freshly built network with everything the driver state
    /// implies: the root `Expr` demand and the held set's `LocalCost`
    /// rows.
    fn seed_network(&mut self) {
        let (root, rows) = self.seed();
        self.net.insert("Expr", root);
        self.net.extend("LocalCost", rows);
    }

    /// What a network fed nothing yet is seeded with.
    fn seed(&self) -> (Tuple, Vec<Delta>) {
        let root = Tuple::from_slice(&self.group_key(self.memo.root));
        (root, self.local_cost_rows().into_iter().map(Delta::insert).collect())
    }

    /// Loads parameters before the first `optimize()` (a restart's
    /// recovered log, [`Durable::restart`]).
    pub fn preload(&mut self, deltas: &[ParamDelta]) {
        self.core.preload(deltas);
    }

    fn maybe_audit(&mut self) -> AuditOutcome {
        let every = match self.audit {
            AuditMode::Off => return AuditOutcome::NotSampled,
            AuditMode::Every(n) => n.max(1),
        };
        if !self.epochs.is_multiple_of(every) {
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
    ///    `PlanCost` rows (a torn epoch would leave the retraction half
    ///    of an update);
    /// 2. the live views match a from-scratch recompute on a fresh
    ///    network seeded from the pruning authority's held set (catches
    ///    substrate drift and a `LocalCost` relation torn from it);
    /// 3. the pruning authority passes its own structural invariants
    ///    ([`IncrementalOptimizer::check_invariants`], which re-derive
    ///    every local cost from the [`CostContext`]), and the network's
    ///    root `BestCost` is its best cost.
    fn audit_now(&mut self) -> Result<(), DataflowError> {
        for (name, view) in views(&self.net) {
            if view.has_negative_counts() {
                return Err(DataflowError::InvariantViolation(format!(
                    "audit: residual negative counts in {name}"
                )));
            }
        }
        let mut fresh = self.fresh_network();
        let (root, rows) = self.seed();
        fresh.insert("Expr", root);
        fresh.extend("LocalCost", rows);
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
        self.core
            .check_invariants()
            .map_err(|m| DataflowError::InvariantViolation(format!("audit: pruning authority: {m}")))?;
        if self.best_cost() != self.core.best_cost() {
            return Err(DataflowError::InvariantViolation(format!(
                "audit: root BestCost {:?} is not the pruning authority's best cost {:?}",
                self.best_cost(),
                self.core.best_cost()
            )));
        }
        Ok(())
    }

    /// Arms the substrate's deterministic fault injector (chaos tests).
    pub fn inject_fault(&mut self, plan: FaultPlan) {
        self.net.set_fault_plan(Some(plan));
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

    /// The `(expr, prop)` columns every row about group `g` starts with.
    fn group_key(&self, g: GroupId) -> [Val; 2] {
        let d = self.memo.group(g);
        [encode_expr(d.expr), self.props.encode(d.prop)]
    }

    /// Hands the epoch's result to the caller. The plan is extracted
    /// here, so a network whose relations contradict each other is
    /// caught while the ladder can still answer: the failure joins the
    /// report and the rebuild rung recomputes every relation from the
    /// memo and the held set.
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
    /// evaluation [`DataflowEngine::best_plan`] runs per group, run
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
    /// difference around one [`DataflowEngine::best_plan`]).
    pub fn plan_cost_probes(&self) -> u64 {
        self.plan_cost_probes.get()
    }

    /// The `LocalCost` relation the network holds — the pruning
    /// authority's held set — in `AltId` order (the seed, the audit and
    /// diagnostics; the D10 differential feeds its reference network
    /// from this).
    pub fn local_cost_rows(&self) -> Vec<Tuple> {
        (0..self.memo.n_alts() as u32)
            .map(AltId)
            .filter_map(|a| {
                let c = self.core.held(a)?;
                Some(local_tuple(self.group_key(self.memo.alt(a).group), a, c))
            })
            .collect()
    }

    /// Change-list entries the driver has visited so far, one per
    /// alternative whose held value an epoch may have moved
    /// (diagnostics; the work-bound test reads the difference around
    /// one [`DataflowEngine::reoptimize`]).
    pub fn visited_alternatives(&self) -> u64 {
        self.visited
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

    /// The live network's batch-consolidator footprint (diagnostics):
    /// bounded by the last epoch's largest batch, not by history.
    pub fn consolidator_footprint(&self) -> ConsolidatorFootprint {
        self.net.consolidator_footprint()
    }

    /// Alternatives currently excluded from the network's `LocalCost`
    /// relation by the pruning authority (diagnostics).
    pub fn pruned_alternatives(&self) -> usize {
        self.core.state_metrics().pruned_alts as usize
    }
}

impl Reoptimizer for DataflowEngine {
    type Outcome = DataflowOutcome;

    fn query(&self) -> &QuerySpec {
        self.core.query()
    }

    fn cost_context(&self) -> &CostContext {
        self.core.cost_context()
    }

    /// Initial evaluation: the pruning authority's first fixpoint, then
    /// the `Expr` root demand and its held set seeded into the network,
    /// run to fixpoint.
    fn optimize(&mut self) -> DataflowOutcome {
        if !self.initialized {
            self.initialized = true;
            self.core.optimize();
            // The seed is the whole held set; the boot's change list
            // (every alternative) says nothing more.
            self.core.drain_changes();
            self.seed_network();
        }
        let (stats, recovery) = self.run_recovering();
        self.outcome(stats, recovery)
    }

    /// Incremental re-optimization (§4): apply the parameter deltas to
    /// the pruning authority, and feed the changes to its held set to
    /// the network as `LocalCost` base-relation deltas.
    fn reoptimize(&mut self, deltas: &[ParamDelta]) -> DataflowOutcome {
        // A fresh engine evaluates the initial program first, exactly
        // as an explicit `optimize()` would have.
        let boot = if self.initialized {
            Vec::new()
        } else {
            self.optimize().recovery.errors
        };
        let mut out = self.apply_batch(deltas);
        out.recovery.errors.splice(0..0, boot);
        out
    }

    fn plan(outcome: &DataflowOutcome) -> &PlanNode {
        &outcome.plan
    }
}

/// The `LocalCost(expr,prop,index,cost)` row of alternative `a`, whose
/// group's columns are `key` ([`DataflowEngine::group_key`]).
fn local_tuple(key: [Val; 2], a: AltId, c: Cost) -> Tuple {
    Tuple::from_slice(&[key[0], key[1], Val::Int(a.0 as i64), Val::Cost(c)])
}

/// A sink's contents as a comparable `tuple → count` map.
fn counted(sink: &Multiset) -> FxHashMap<Tuple, i64> {
    sink.iter().map(|(t, c)| (t.clone(), c)).collect()
}

/// Compiles [`DATAFLOW_RULES`] under the scheduler `mode` with the
/// memo-backed externals and the `PlanCost` release order `strata`
/// ([`plan_cost_strata`]).
fn build_network(
    memo: Rc<Memo>,
    props: Rc<PropTable>,
    strata: &[u32],
    mode: SchedulerMode,
) -> RuleNetwork {
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
    let mut builder = NetworkBuilder::new()
        .scheduler_mode(mode)
        .input("Expr", 2)
        .input("LocalCost", 4);
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
    use reopt_expr::{EdgeId, JoinGraph, LeafId};

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
        let opt = DataflowEngine::new(&c, chain_query(&c, 3));
        assert_eq!(opt.network_nodes(), 30);
        // What the compiler's proofs leave of it: `BestCost` is read
        // off D9's aggregate, each join's `Fn_sum` is a stateless node
        // the scheduler chains behind it, and of the cost loop only the
        // held, three-rule `PlanCost` coalesces.
        // D10 is answered on demand: none of its nodes is built.
        let nodes = opt.node_stats();
        let live = |label: &str| nodes.iter().find(|n| n.label == label);
        for gone in ["distinct[BestCost]", "distinct[BestPlan]", "map[D9]"] {
            assert!(live(gone).is_none(), "{gone}");
        }
        assert!(!nodes.iter().any(|n| n.label.contains("D10")), "{nodes:?}");
        assert_eq!(opt.arrangements(), 2);
        assert!(opt.sink("BestPlan").is_none());
        for chained in ["Fn_sum[D7]", "Fn_sum[D8]"] {
            assert!(!live(chained).unwrap().coalesces, "{chained}");
        }
        assert!(live("distinct[PlanCost]").unwrap().coalesces);
        for proven in ["group-agg[D9]", "arrange[D6]", "arrange[D7]"] {
            assert!(!live(proven).unwrap().coalesces, "{proven}");
        }
    }

    #[test]
    fn initial_optimization_matches_hand_rolled_on_fixtures() {
        let c = fixture_catalog();
        for q in fixture_queries() {
            let mut df = DataflowEngine::new(&c, q.clone());
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
                let mut df = DataflowEngine::new(&c, q.clone());
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
        let mut df = DataflowEngine::new(&c, q.clone());
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
        let mut df = DataflowEngine::new(&c, q.clone());
        let initial = df.optimize();
        let batch = vec![ParamDelta::EdgeSelectivity(EdgeId(1), 8.0)];
        let out = df.reoptimize(&batch);
        assert!(out.cost > initial.cost);
        let mut ctx = CostContext::new(&c, &q);
        ctx.apply(&batch);
        assert!(ctx.plan_cost(&q, &out.plan).approx_eq(out.cost));
    }

    /// The engine over the same program compiled for the per-delta
    /// scheduler, the substrate's semantic reference.
    fn per_delta_engine(c: &Catalog, q: QuerySpec) -> DataflowEngine {
        let mut df = DataflowEngine::new(c, q);
        let (memo, props) = (Rc::clone(&df.memo), Rc::clone(&df.props));
        df.net = build_network(memo, props, &df.strata, SchedulerMode::PerDelta);
        df
    }

    #[test]
    fn compiled_network_collapses_work_visibly() {
        // Batching collapses the boot's dispatch against the per-delta
        // reference, which services one batch per delta.
        let c = fixture_catalog();
        let mut df = DataflowEngine::new(&c, chain_query(&c, 5));
        assert!(
            df.network_nodes() > df.memo().n_alts() / 10,
            "sanity: network exists"
        );
        assert!(df.arrangements() > 0, "compiler shared no arrangements");
        let init = df.optimize();
        let reference = per_delta_engine(&c, chain_query(&c, 5)).optimize();
        assert_eq!((init.cost, &init.plan), (reference.cost, &reference.plan));
        assert!(
            init.stats.batches_processed * 10 < reference.stats.batches_processed,
            "{:?} vs {:?}",
            init.stats,
            reference.stats
        );
    }

    #[test]
    fn scheduler_matrix_agrees_on_the_executable_program() {
        // The same DATAFLOW_RULES network under {batched, per-delta} —
        // pinned here at the optimizer level; the generic-network
        // matrix lives in reopt-datalog's differential suite. Both
        // engines agree with the hand-rolled engine after every batch
        // of a mixed update sequence, and with each other on the plan
        // and on every view the driver reads, counts included.
        let c = fixture_catalog();
        let q = chain_query(&c, 4);
        let mut df = DataflowEngine::new(&c, q.clone());
        let mut per_delta = per_delta_engine(&c, q.clone());
        let mut hand = IncrementalOptimizer::new(&c, q, PruningConfig::none());
        fn epoch<R: Reoptimizer>(engine: &mut R, batch: Option<&[ParamDelta]>) -> R::Outcome {
            match batch {
                Some(batch) => engine.reoptimize(batch),
                None => engine.optimize(),
            }
        }
        let batches = [
            vec![ParamDelta::LeafScanCost(LeafId(0), 2.0)],
            vec![ParamDelta::EdgeSelectivity(EdgeId(1), 4.0)],
            vec![ParamDelta::LeafCardinality(LeafId(3), 0.25)],
            vec![ParamDelta::EdgeSelectivity(EdgeId(1), 1.0)],
        ];
        for batch in std::iter::once(None).chain(batches.iter().map(|b| Some(b.as_slice()))) {
            let want = epoch(&mut hand, batch);
            let got = epoch(&mut df, batch);
            let other = epoch(&mut per_delta, batch);
            assert!(other.recovery.is_clean(), "{batch:?}: {:?}", other.recovery);
            assert_agree(&got, &want, &format!("{batch:?}"));
            assert_eq!((got.cost, &got.plan), (other.cost, &other.plan), "{batch:?}");
            for name in SINKS {
                assert_eq!(counted(df.view(name)), counted(per_delta.view(name)), "{name}");
            }
        }
    }

    #[test]
    fn unchanged_parameters_cause_no_work() {
        let c = fixture_catalog();
        let q = chain_query(&c, 4);
        let mut df = DataflowEngine::new(&c, q);
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
    fn injected_fault_recovers_via_a_rebuild() {
        // One shot: the epoch aborts mid-flight and poisons the network,
        // and the rebuild rung lands on the fixpoint a fault-free twin
        // reaches — with the fault in the report, and nothing of it
        // left for the next epoch.
        let c = fixture_catalog();
        let q = chain_query(&c, 4);
        let mut oracle = DataflowEngine::new(&c, q.clone());
        oracle.optimize();
        let mut victim = DataflowEngine::new(&c, q.clone());
        victim.optimize();
        let batch = vec![ParamDelta::EdgeSelectivity(EdgeId(1), 6.0)];
        let want = oracle.reoptimize(&batch);
        victim.inject_fault(reopt_datalog::FaultPlan::one_shot(3));
        let got = victim.reoptimize(&batch);
        assert_eq!(got.recovery.path, RecoveryPath::RebuiltFromScratch);
        assert!(
            matches!(got.recovery.errors.as_slice(), [DataflowError::InjectedFault { .. }]),
            "{:?}",
            got.recovery.errors
        );
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
        let next = [ParamDelta::LeafCardinality(LeafId(2), 0.5)];
        let (got, want) = (victim.reoptimize(&next), oracle.reoptimize(&next));
        assert_eq!(got.recovery.path, RecoveryPath::Committed);
        assert_eq!((got.cost, &got.plan), (want.cost, &want.plan));
    }

    #[test]
    fn repeated_faults_degrade_to_a_from_scratch_rebuild() {
        // A fault in two epochs running — the second in the network the
        // first one rebuilt: each epoch takes the rebuild rung from the
        // memo + held set and still converges to the oracle's fixpoint. A
        // plan's unspent second shot dies with the network it poisoned.
        let c = fixture_catalog();
        let q = chain_query(&c, 4);
        let mut oracle = DataflowEngine::new(&c, q.clone());
        oracle.optimize();
        let mut victim = DataflowEngine::new(&c, q.clone());
        victim.optimize();
        let mut absorbed = 0;
        for batch in [
            vec![ParamDelta::LeafCardinality(LeafId(2), 0.2)],
            vec![ParamDelta::EdgeSelectivity(EdgeId(0), 3.0)],
        ] {
            let want = oracle.reoptimize(&batch);
            victim.inject_fault(reopt_datalog::FaultPlan::with_shots(2, 2));
            let got = victim.reoptimize(&batch);
            assert_eq!(got.recovery.path, RecoveryPath::RebuiltFromScratch);
            assert_eq!(got.recovery.errors.len(), 1, "{:?}", got.recovery.errors);
            absorbed += got.recovery.errors.len();
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
        }
        assert_eq!(absorbed, 2);
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
        // A budget so tight the attempt overruns: the rebuild comes up
        // with the compiled default and converges.
        let c = fixture_catalog();
        let q = chain_query(&c, 4);
        let mut oracle = DataflowEngine::new(&c, q.clone());
        oracle.optimize();
        let mut victim = DataflowEngine::new(&c, q.clone());
        victim.optimize();
        let batch = vec![ParamDelta::EdgeSelectivity(EdgeId(0), 9.0)];
        let want = oracle.reoptimize(&batch);
        victim.set_max_steps(1);
        let got = victim.reoptimize(&batch);
        assert_eq!(got.recovery.path, RecoveryPath::RebuiltFromScratch);
        assert!(
            matches!(got.recovery.errors.as_slice(), [DataflowError::FixpointOverrun { .. }]),
            "{:?}",
            got.recovery.errors
        );
        assert!(got.cost.approx_eq(want.cost));
        assert_eq!(got.plan, want.plan);
    }

    #[test]
    fn audit_passes_on_every_fixture_and_epoch() {
        let c = fixture_catalog();
        for q in fixture_queries() {
            let mut df = DataflowEngine::new(&c, q.clone());
            df.set_audit_mode(AuditMode::Every(1));
            let init = df.optimize();
            assert_eq!(init.recovery.audit, AuditOutcome::Passed, "{}", q.name);
            assert!(init.recovery.is_clean());
            let re = df.reoptimize(&[ParamDelta::LeafCardinality(LeafId(0), 3.0)]);
            assert_eq!(re.recovery.audit, AuditOutcome::Passed, "{}", q.name);
        }
    }

    #[test]
    fn audit_catches_a_local_cost_relation_torn_from_the_held_set() {
        // A stray `LocalCost` row behind the driver's back: a scan the
        // pruning authority does not hold, in a group it does. The
        // network derives a `PlanCost` row for it, and the audit must
        // name that view instead of silently drifting.
        let c = fixture_catalog();
        let q = chain_query(&c, 3);
        let mut df = DataflowEngine::new(&c, q);
        df.optimize();
        let stray = (0..df.memo.n_alts() as u32)
            .map(AltId)
            .find(|&a| {
                let alt = df.memo.alt(a);
                df.core.held(a).is_none()
                    && df.core.group_state(alt.group).live
                    && alt.children().next().is_none()
            })
            .expect("chain-3 prunes a scan of a held group");
        let key = df.group_key(df.memo.alt(stray).group);
        let row = local_tuple(key, stray, df.core.alt_state(stray).local);
        df.net.insert("LocalCost", row);
        df.net.run().unwrap();
        match df.audit().expect_err("a stray row must fail the audit") {
            DataflowError::InvariantViolation(m) => assert!(m.contains("PlanCost diverged"), "{m}"),
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn audit_catches_a_damaged_pruning_authority() {
        // Damage the pruning authority's state where the held set does
        // not see it: only its own invariant check can report it.
        let c = fixture_catalog();
        let mut df = DataflowEngine::new(&c, chain_query(&c, 3));
        df.optimize();
        let root = df.memo.root;
        df.core.group_state_mut(root).refs += 1;
        match df.audit().expect_err("damaged state must fail the audit") {
            DataflowError::InvariantViolation(m) => {
                assert!(m.contains("pruning authority: refcount mismatch"), "{m}")
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn audit_sampling_respects_the_period() {
        let c = fixture_catalog();
        let q = chain_query(&c, 3);
        let mut df = DataflowEngine::new(&c, q);
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
        let mut df = DataflowEngine::new(&c, q);
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
    fn prop_table_encodes_every_memo_property_densely() {
        // Every property a memo group carries has an id in
        // `0..props.len()`, and ids decode back to their property.
        let c = fixture_catalog();
        let q = agg_chain_query(&c, 4);
        let memo = Memo::build(&q, &JoinGraph::new(&q));
        let props = PropTable::new(&memo);
        let mut seen = vec![false; props.props.len()];
        for g in &memo.groups {
            let Val::Int(id) = props.encode(g.prop) else {
                panic!("encode yields dense Int ids")
            };
            assert_eq!(props.decode(id), g.prop);
            seen[id as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "an id no group carries");
        assert!(props.props.len() > 1, "sanity: interesting orders exist");
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
            let mut pruned = DataflowEngine::new(&c, q.clone());
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
            let mut lazy = DataflowEngine::new(&c, q.clone());
            let mut eager = DataflowEngine::new(&c, q.clone());
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
            let mut df = DataflowEngine::new(&c, q.clone());
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
        let mut df = DataflowEngine::new(&c, chain_query(&c, 3));
        df.optimize();
        assert!(df.sink("BestCost").is_some());
        // `PlanCost` exists but is not materialized, `BestPlan` is
        // answered on demand (`best_plan_rows`); `Typo` does not exist.
        assert!(df.sink("PlanCost").is_none());
        assert!(df.sink("BestPlan").is_none());
        assert!(!df.best_plan_rows().is_empty());
        assert!(df.sink("Typo").is_none());
    }

    /// A restart is a first boot on the recovered parameters: whatever
    /// the number of epochs since the last `checkpoint_durable` (0, 1 or
    /// 40, each writing its image) it runs one epoch, and the substrate
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
            // the checkpoint, so every epoch is a real change.
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

            let mut fresh = DataflowEngine::new(&c, q.clone());
            fresh.preload(rec.applied_log());
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
        let mut oracle = DataflowEngine::new(&c, q.clone());
        oracle.optimize();
        let want = oracle.reoptimize(&batch);

        let mut df = DataflowEngine::new(&c, q);
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
                let mut df = DataflowEngine::new(&c, shaped_query(&c, shape, n));
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

    /// The parameter walk the work-shape tests run on an `n`-relation
    /// query: a scan cost, a selectivity, a cardinality, a mixed batch
    /// and a revert.
    fn walk(n: usize) -> [Vec<ParamDelta>; 5] {
        let last = LeafId(n as u32 - 1);
        [
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
        ]
    }

    /// §3.2 in the network: after every epoch the groups holding
    /// `LocalCost` rows are exactly the root and the children of the
    /// alternatives that hold one, every such alternative derives its
    /// `PlanCost` row, `BestCost` holds exactly those groups, and cost
    /// and plan are the hand-rolled engine's under `all()`.
    #[test]
    fn the_network_holds_only_referenced_groups() {
        fn group_of(df: &DataflowEngine, t: &Tuple) -> GroupId {
            let e = decode_expr(t.get(0).as_int());
            let p = df.props.decode(t.get(1).as_int());
            df.memo.lookup(e, p).expect("rows name memo groups")
        }
        fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
            v.sort_unstable();
            v.dedup();
            v
        }
        fn check(df: &DataflowEngine, hand: &reopt_core::Outcome, got: &DataflowOutcome) {
            let local = df.local_cost_rows();
            let live: Vec<AltId> = local
                .iter()
                .map(|t| AltId(t.get(2).as_int() as u32))
                .collect();
            let holders = sorted(local.iter().map(|t| group_of(df, t)).collect());
            let referenced = sorted(
                std::iter::once(df.memo.root)
                    .chain(live.iter().flat_map(|&a| df.memo.alt(a).children()))
                    .collect(),
            );
            assert_eq!(holders, referenced, "LocalCost holders");
            let best = df.view("BestCost").iter().map(|(t, _)| group_of(df, t));
            assert_eq!(sorted(best.collect()), referenced, "BestCost groups");
            let plan_cost = plan_cost_rows(&df.net).iter();
            let derived = plan_cost.map(|(t, _)| AltId(t.get(2).as_int() as u32));
            assert_eq!(sorted(derived.collect()), live, "PlanCost rows");
            assert_agree(got, hand, "cost");
            assert_eq!(got.plan, hand.plan);
        }
        let c = fixture_catalog();
        for shape in ["chain", "star", "clique"] {
            for n in 3..=8 {
                let q = shaped_query(&c, shape, n);
                let mut df = DataflowEngine::new(&c, q.clone());
                let mut hand = IncrementalOptimizer::new(&c, q.clone(), PruningConfig::all());
                let got = df.optimize();
                check(&df, &hand.optimize(), &got);
                for batch in &walk(n) {
                    let got = df.reoptimize(batch);
                    check(&df, &hand.reoptimize(batch), &got);
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
        //   `PlanCost` row (over this matrix: median 13, worst 30; 22
        //   and 37 while every group kept its argmin row; with unary
        //   alternatives carried through D8 and every set re-gated,
        //   median 36 and worst 56).
        fn stat(df: &DataflowEngine, label: &str) -> NodeStats {
            let mut hits = df.node_stats().into_iter().filter(|r| r.label == label);
            let row = hits
                .next()
                .unwrap_or_else(|| panic!("no node labelled {label}"));
            assert!(hits.next().is_none(), "{label} is ambiguous");
            row
        }
        // The network's `PlanCost` rows (absent for pruned alternatives)
        // and `BestCost` rows (absent for groups holding none), from the
        // pruning authority's state.
        fn rows(df: &DataflowEngine) -> (Vec<Option<Cost>>, Vec<Option<Cost>>) {
            let plan_cost = (0..df.memo.n_alts() as u32)
                .map(AltId)
                .map(|a| df.core.held(a).map(|_| df.core.alt_state(a).total))
                .collect();
            let best = (0..df.memo.n_groups() as u32)
                .map(|g| df.core.group_state(GroupId(g)))
                .map(|s| s.live.then_some(s.best))
                .collect();
            (plan_cost, best)
        }
        fn locals(df: &DataflowEngine) -> Vec<Cost> {
            let alts = (0..df.memo.n_alts() as u32).map(AltId);
            alts.map(|a| df.core.alt_state(a).local).collect()
        }
        let c = fixture_catalog();
        for shape in ["chain", "star", "clique"] {
            for n in 3..=8 {
                let q = shaped_query(&c, shape, n);
                let mut df = DataflowEngine::new(&c, q.clone());
                df.optimize();
                for batch in &walk(n) {
                    let (plan_before, best_before) = rows(&df);
                    let local_before = locals(&df);
                    let work = |df: &DataflowEngine| {
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
                    let local_after = locals(&df);
                    let differs = |a: &usize| plan_before[*a] != plan_after[*a];
                    let moved = |a: &usize| plan_before[*a].is_some() != plan_after[*a].is_some();
                    let fed = |a: &usize| {
                        df.memo.alt(AltId(*a as u32)).right.is_some()
                            && (local_before[*a] != local_after[*a] || moved(a))
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

    /// The driver's work per epoch is the region's, not the memo's: it
    /// visits the change list of the pruning authority, which holds at
    /// most as many alternatives as were held before the epoch, are held
    /// after it and belong to the groups the epoch revived or tombstoned
    /// (an alternative may be held for part of an epoch only) — on an
    /// 8-relation star or clique, under a quarter of the memo (every
    /// alternative, while the driver re-derived the prune set itself).
    #[test]
    fn the_driver_visits_only_the_region() {
        fn held(df: &DataflowEngine) -> u64 {
            let alts = (0..df.memo.n_alts() as u32).map(AltId);
            alts.filter(|&a| df.core.held(a).is_some()).count() as u64
        }
        let c = fixture_catalog();
        for shape in ["chain", "star", "clique"] {
            for n in 3..=10 {
                let q = shaped_query(&c, shape, n);
                let mut df = DataflowEngine::new(&c, q.clone());
                df.set_audit_mode(AuditMode::Off);
                df.optimize();
                for batch in &walk(n) {
                    let held_before = held(&df);
                    let visited = df.visited_alternatives();
                    df.reoptimize(batch);
                    let visits = df.visited_alternatives() - visited;
                    let flipped = (0..df.memo.n_groups() as u32)
                        .map(GroupId)
                        .filter(|&g| df.core.flipped(g))
                        .map(|g| df.memo.alts_of(g).count() as u64)
                        .sum::<u64>();
                    let bound = held_before + held(&df) + flipped;
                    assert!(
                        visits <= bound,
                        "{} after {batch:?}: visited {visits}, bound {bound}",
                        q.name
                    );
                    if shape != "chain" && n == 8 {
                        let quarter = df.memo.n_alts() as u64 / 4;
                        assert!(visits < quarter, "{} after {batch:?}: {visits}", q.name);
                    }
                }
            }
        }
    }
}
