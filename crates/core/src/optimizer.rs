//! The incremental re-optimizer: delta propagation over the and-or
//! graph, implementing rules R6–R10 (cost estimation and plan selection)
//! with the three pruning strategies of §3 and the incremental
//! maintenance of §4.
//!
//! Execution model. Two work queues drive a fixpoint, with no constraint
//! on external update order (§3: "our solutions are valid for any
//! execution order"). Each queue is a set of group ids drained in id
//! order (`IdSet`); since the memo numbers groups bottom-up (every
//! child's id is below its parent's), id order *is* topological order:
//! - a **cost queue**, drained lowest id first (children before
//!   parents), refreshes `PlanCost` totals and `BestCost` aggregates
//!   (rules R6–R9, and the incremental cases 1–4 of §4.1 via the
//!   maintained cost-ordered state) in one pass over each group's
//!   alternatives;
//! - a **bound queue**, drained highest id first (parents before
//!   children), refreshes `MaxBound`/`Bound` (rules r1–r4) and
//!   re-evaluates suppression (§4.3 cases 1–3), which in turn adjusts
//!   reference counts and revives or tombstones groups (§4.2).
//!
//! Row estimates are maintained state too (§2.3's memoized
//! `Fn_nonscansummary`): one per group, filled by the first `optimize`
//! and refreshed for exactly the groups [`ParamIndex`] lists for a
//! changed cardinality or selectivity. A local cost is the cost model's
//! one formula ([`CostContext::local_cost_of`]) over the estimates of
//! the group and its children.

use std::rc::Rc;

use reopt_catalog::Catalog;
use reopt_common::Cost;
use reopt_cost::{CostContext, ParamDelta};
use reopt_expr::{JoinGraph, PlanNode, QuerySpec};

use crate::config::PruningConfig;
use crate::id_set::IdSet;
use crate::memo::{AltId, GroupId, Memo};
use crate::metrics::{RunMetrics, StateMetrics};
use crate::param_index::ParamIndex;
use crate::state::{AltState, GroupState};

/// Result of one (re)optimization fixpoint.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub cost: Cost,
    pub plan: PlanNode,
    pub run: RunMetrics,
    pub state: StateMetrics,
}

/// The incremental declarative optimizer.
pub struct IncrementalOptimizer {
    q: QuerySpec,
    memo: Rc<Memo>,
    ctx: CostContext,
    cfg: PruningConfig,
    groups: Vec<GroupState>,
    /// Per group: its expression's output row estimate, kept equal to
    /// `ctx.expr_rows` (see the module docs).
    rows: Vec<f64>,
    alts: Vec<AltState>,
    cost_queue: IdSet,
    bound_queue: IdSet,
    run: RunMetrics,
    epoch: u32,
    group_epoch: Vec<u32>,
    alt_epoch: Vec<u32>,
    /// Epoch in which a group's alternatives were last all seeded.
    group_seeded: Vec<u32>,
    initialized: bool,
    /// Where a parameter change lands in the memo; `optimize` never
    /// reads it, so the first `reoptimize` builds it.
    index: Option<ParamIndex>,
    /// Groups with `live` set, and alternatives with `live` set in such
    /// a group — [`StateMetrics`] without a sweep, adjusted wherever a
    /// flag flips.
    live_groups: u64,
    live_alts: u64,
    /// This epoch's changes to the *held* set (see [`Self::held`]):
    /// each alternative whose held value may have moved, once, with the
    /// value it had before the epoch. Recorded where the flags and local
    /// costs are written, the way `live_alts` is adjusted; cleared when
    /// an epoch begins, drained by [`Self::drain_changes`].
    changes: Vec<(AltId, Option<Cost>)>,
    /// Per alternative: the epoch `changes` last recorded it in.
    alt_noted: Vec<u32>,
    /// Per group: the epoch that last revived or tombstoned it.
    group_flipped: Vec<u32>,
}

impl IncrementalOptimizer {
    pub fn new(catalog: &Catalog, q: QuerySpec, cfg: PruningConfig) -> IncrementalOptimizer {
        let memo = Rc::new(Memo::build(&q, &JoinGraph::new(&q)));
        let ctx = CostContext::new(catalog, &q);
        let n_groups = memo.n_groups();
        let n_alts = memo.n_alts();
        let mut groups = vec![GroupState::default(); n_groups];
        // Initial reference counts: every alternative is live, so refs =
        // parent-edge count; the root gets an extra pin.
        for (gi, g) in groups.iter_mut().enumerate() {
            g.refs = memo.parents_of(GroupId(gi as u32)).len() as u32;
        }
        groups[memo.root.0 as usize].refs += 1;
        IncrementalOptimizer {
            q,
            memo,
            ctx,
            cfg,
            groups,
            rows: vec![f64::NAN; n_groups],
            alts: vec![AltState::default(); n_alts],
            cost_queue: IdSet::new(n_groups),
            bound_queue: IdSet::new(n_groups),
            run: RunMetrics::default(),
            epoch: 0,
            group_epoch: vec![0; n_groups],
            alt_epoch: vec![0; n_alts],
            group_seeded: vec![0; n_groups],
            initialized: false,
            index: None,
            live_groups: n_groups as u64,
            live_alts: n_alts as u64,
            changes: Vec::new(),
            alt_noted: vec![0; n_alts],
            group_flipped: vec![0; n_groups],
        }
    }

    pub fn query(&self) -> &QuerySpec {
        &self.q
    }

    pub fn config(&self) -> PruningConfig {
        self.cfg
    }

    pub fn memo(&self) -> &Memo {
        &self.memo
    }

    /// The memo, shared: an engine layered on this one (the declarative
    /// driver) builds on it instead of enumerating the query again.
    pub fn shared_memo(&self) -> Rc<Memo> {
        Rc::clone(&self.memo)
    }

    pub fn cost_context(&self) -> &CostContext {
        &self.ctx
    }

    /// Initial optimization: derives the full space bottom-up, then lets
    /// suppression / reference counting / bounding collapse the state.
    pub fn optimize(&mut self) -> Outcome {
        self.begin_run();
        if !self.initialized {
            self.initialized = true;
            for gi in 0..self.memo.n_groups() as u32 {
                self.refresh_rows(GroupId(gi));
                self.push_cost(GroupId(gi));
            }
        }
        self.process();
        self.outcome()
    }

    /// Incremental re-optimization under a batch of cost/cardinality
    /// updates (§4): [`Self::propagate`], then the outcome.
    pub fn reoptimize(&mut self, deltas: &[ParamDelta]) -> Outcome {
        self.propagate(deltas);
        self.outcome()
    }

    /// The fixpoint of [`Self::reoptimize`] without building an
    /// [`Outcome`]; `false` when no parameter changed. Only state in the
    /// affected cone is recomputed: the epoch is seeded from the
    /// [`ParamIndex`] lists of the parameters that changed, never from a
    /// walk over the memo — tombstoned groups included, whose costs are
    /// kept current like any other's.
    pub fn propagate(&mut self, deltas: &[ParamDelta]) -> bool {
        // A fresh engine evaluates the initial program first, exactly
        // as an explicit `optimize()` would have.
        if !self.initialized {
            self.optimize();
        }
        self.begin_run();
        let affected = self.ctx.apply(deltas);
        if affected.is_empty() {
            return false;
        }
        let index = self
            .index
            .take()
            .unwrap_or_else(|| ParamIndex::build(&self.memo, &self.q));
        for g in index.affected_groups(&affected) {
            // A group several changed parameters reach is seeded once.
            if self.group_seeded[g.0 as usize] == self.epoch {
                continue;
            }
            self.group_seeded[g.0 as usize] = self.epoch;
            // These lists are exactly the groups whose row estimate a
            // cardinality or selectivity change can move.
            self.refresh_rows(g);
            for a in self.memo.alts_of(g) {
                self.seed(a);
            }
            self.push_cost(g);
        }
        for a in index.affected_scan_alts(&affected) {
            self.seed(a);
            self.push_cost(self.memo.alt(a).group);
        }
        self.index = Some(index);
        self.process();
        true
    }

    /// Loads parameters into an engine before its first `optimize()` (a
    /// restart's recovered log); `false` when none changed.
    pub fn preload(&mut self, deltas: &[ParamDelta]) -> bool {
        debug_assert!(!self.initialized, "parameters load before the first optimize");
        !self.ctx.apply(deltas).is_empty()
    }

    /// The `LocalCost` value alternative `a` holds in the live plan
    /// table, if it holds one: `a` is live in a live group. The held set
    /// is the pruned search space — what the declarative driver feeds
    /// its network.
    pub fn held(&self, a: AltId) -> Option<Cost> {
        let s = &self.alts[a.0 as usize];
        (s.live && self.groups[self.memo.alt(a).group.0 as usize].live).then_some(s.local)
    }

    /// Takes the last epoch's change list: every alternative whose
    /// [`Self::held`] value may have changed, once, with its value
    /// before the epoch (the first `optimize` lists every alternative).
    pub fn drain_changes(&mut self) -> Vec<(AltId, Option<Cost>)> {
        std::mem::take(&mut self.changes)
    }

    /// True iff the last epoch revived or tombstoned `g`, once or more
    /// (diagnostics: what bounds its change list besides the held set).
    pub fn flipped(&self, g: GroupId) -> bool {
        self.group_flipped[g.0 as usize] == self.epoch
    }

    /// Current best cost at the root.
    pub fn best_cost(&self) -> Cost {
        self.groups[self.memo.root.0 as usize].best
    }

    /// Extracts the current best plan tree (the `BestPlan` closure).
    pub fn best_plan(&self) -> PlanNode {
        self.extract(self.memo.root)
    }

    /// State snapshot for the pruning-ratio metrics, read off the
    /// counters kept where `live` flips.
    pub fn state_metrics(&self) -> StateMetrics {
        let total_groups = self.memo.n_groups() as u64;
        let total_alts = self.memo.n_alts() as u64;
        StateMetrics {
            total_groups,
            total_alts,
            pruned_groups: total_groups - self.live_groups,
            pruned_alts: total_alts - self.live_alts,
        }
    }

    // ----- internals -------------------------------------------------

    fn begin_run(&mut self) {
        self.epoch += 1;
        self.run = RunMetrics::default();
        self.changes.clear();
    }

    /// Records `a`'s held value in this epoch's change list, unless it
    /// is there already. Called before every write that can change it.
    fn note(&mut self, a: AltId) {
        if self.alt_noted[a.0 as usize] != self.epoch {
            self.alt_noted[a.0 as usize] = self.epoch;
            self.changes.push((a, self.held(a)));
        }
    }

    fn outcome(&self) -> Outcome {
        Outcome {
            cost: self.best_cost(),
            plan: self.best_plan(),
            run: self.run,
            state: self.state_metrics(),
        }
    }

    /// A parameter of alternative `a`'s local cost changed.
    fn seed(&mut self, a: AltId) {
        let s = &mut self.alts[a.0 as usize];
        s.local_dirty = true;
        s.dirty = true;
        self.run.seeded_alts += 1;
    }

    fn refresh_rows(&mut self, g: GroupId) {
        self.rows[g.0 as usize] = self.recompute_rows(g);
    }

    fn push_cost(&mut self, g: GroupId) {
        self.cost_queue.insert(g.0);
    }

    /// A tombstoned group derives no bound (`process_bound` would drop
    /// it); [`Self::revive`] queues the group itself.
    fn push_bound(&mut self, g: GroupId) {
        if self.cfg.recursive_bounding && self.groups[g.0 as usize].live {
            self.bound_queue.insert(g.0);
        }
    }

    fn touch_group(&mut self, g: GroupId) {
        if self.group_epoch[g.0 as usize] != self.epoch {
            self.group_epoch[g.0 as usize] = self.epoch;
            self.run.touched_groups += 1;
        }
    }

    fn touch_alt(&mut self, a: AltId) {
        if self.alt_epoch[a.0 as usize] != self.epoch {
            self.alt_epoch[a.0 as usize] = self.epoch;
            self.run.touched_alts += 1;
        }
    }

    /// Main fixpoint loop: drain cost work bottom-up, then bound work
    /// top-down, until both queues are empty.
    fn process(&mut self) {
        let guard_limit = 10_000u64 * (self.memo.n_groups() as u64 + 10);
        let mut guard = 0u64;
        loop {
            guard += 1;
            assert!(
                guard < guard_limit,
                "optimizer fixpoint did not converge (bug): {} pops",
                self.run.queue_pops
            );
            if let Some(g) = self.cost_queue.pop_min() {
                self.refresh_group(GroupId(g));
                continue;
            }
            if let Some(g) = self.bound_queue.pop_max() {
                self.process_bound(GroupId(g));
                continue;
            }
            break;
        }
    }

    /// Rules R6–R9 for one group: recompute dirty `PlanCost` totals and
    /// the `BestCost` aggregate in one pass; propagate changes to parents
    /// (cost) and dependents (bounds); re-evaluate suppression.
    ///
    /// The cost half runs for a tombstoned group too, and through
    /// alternatives with tombstoned children — every total and every
    /// best stays current (§4.1: the aggregate keeps "all the computed,
    /// even pruned" tuples), so nothing is ever revived to be re-priced.
    /// What a tombstone reclaims is the bound/liveness half below, and
    /// the references it held.
    fn refresh_group(&mut self, g: GroupId) {
        self.run.queue_pops += 1;
        let live = self.groups[g.0 as usize].live;
        let (expr, prop) = (self.memo.group(g).expr, self.memo.group(g).prop);
        let out = self.rows[g.0 as usize];
        // Rule R9: BestCost = min over *all* retained totals — the
        // paper's aggregate keeps every PlanCost tuple in its internal
        // queue, pruned or not. The argmin is taken in the same pass
        // that refreshes the dirty totals (a total reads only its own
        // local cost and its children's bests, never a sibling's).
        let mut best = Cost::INFINITY;
        let mut best_alt = None;
        for a in self.memo.alts_of(g) {
            let ai = a.0 as usize;
            if self.alts[ai].dirty {
                self.alts[ai].dirty = false;
                if self.alts[ai].local_dirty {
                    self.alts[ai].local_dirty = false;
                    let alt = self.memo.alt(a);
                    let rows_of = |c: Option<GroupId>| c.map_or(0.0, |c| self.rows[c.0 as usize]);
                    let new_local = self.ctx.local_cost_of(
                        expr,
                        prop,
                        &alt.spec,
                        out,
                        rows_of(alt.left),
                        rows_of(alt.right),
                    );
                    if new_local != self.alts[ai].local {
                        if live && self.alts[ai].live {
                            self.note(a);
                        }
                        self.alts[ai].local = new_local;
                        // The children's ParentBound through `a` moved
                        // (r1/r2) — a derivation only a live group has.
                        if live {
                            for c in self.memo.alt(a).children() {
                                self.push_bound(c);
                            }
                        }
                    }
                }
                // Fn_sum(localCost, lBest, rBest) — rules R6/R7/R8.
                let mut total = self.alts[ai].local;
                for c in self.memo.alt(a).children() {
                    total += self.groups[c.0 as usize].best;
                }
                if total != self.alts[ai].total {
                    self.alts[ai].total = total;
                    self.touch_alt(a);
                }
            }
            let t = self.alts[ai].total;
            if t < best {
                best = t;
                best_alt = Some(a);
            }
        }
        let best_changed = best != self.groups[g.0 as usize].best;
        self.groups[g.0 as usize].best = best;
        self.groups[g.0 as usize].best_alt = best_alt;
        if best_changed {
            self.touch_group(g);
        }
        if live {
            self.recompute_bound_value(g);
            self.refresh_liveness(g);
        }
        if best_changed {
            // Parents' PlanCost totals depend on this BestCost (R7/R8
            // incremental joins).
            for i in 0..self.memo.parents_of(g).len() {
                let pa = self.memo.parents_of(g)[i];
                let pg = self.memo.alt(pa).group;
                self.alts[pa.0 as usize].dirty = true;
                self.push_cost(pg);
                // Sibling bounds depend on this best (r1/r2).
                if self.groups[pg.0 as usize].live && self.alts[pa.0 as usize].live {
                    if let Some(sib) = self.memo.alt(pa).sibling(g) {
                        self.push_bound(sib);
                    }
                }
            }
            // bound(g) = min(best, mpb) may have changed: children's
            // parent-bounds depend on it.
            if live {
                self.push_children_bounds(g);
            }
        }
    }

    /// Rules r1–r4 for one group: recompute `MaxBound` from live parent
    /// plans and `Bound`; on change, re-evaluate suppression and push
    /// the children.
    fn process_bound(&mut self, g: GroupId) {
        self.run.queue_pops += 1;
        if !self.groups[g.0 as usize].live || !self.cfg.recursive_bounding {
            return;
        }
        let mut mpb = if g == self.memo.root {
            Cost::INFINITY
        } else {
            // r1/r2: ParentBound = parent bound − sibling best − local;
            // r3: MaxBound = max over parent plans. No live parent
            // derivations ⇒ unconstrained (the paper's MaxBound simply
            // has no tuples, so Bound falls back to BestCost via r4).
            let mut any = false;
            let mut m = Cost::ZERO;
            for &pa in self.memo.parents_of(g) {
                let pg = self.memo.alt(pa).group;
                if !self.groups[pg.0 as usize].live || !self.alts[pa.0 as usize].live {
                    continue;
                }
                let parent_bound = self.groups[pg.0 as usize].bound;
                let sibling_best = self
                    .memo
                    .alt(pa)
                    .sibling(g)
                    .map_or(Cost::ZERO, |s| self.groups[s.0 as usize].best);
                let allowance = parent_bound - sibling_best - self.alts[pa.0 as usize].local;
                if !any || allowance > m {
                    m = allowance;
                    any = true;
                }
            }
            if any {
                m
            } else {
                Cost::INFINITY
            }
        };
        // Bounds never constrain below zero in a non-negative cost model;
        // clamping avoids chasing meaningless negative allowances.
        mpb = mpb.max(Cost::ZERO);
        self.groups[g.0 as usize].mpb = mpb;
        let new_bound = self.groups[g.0 as usize].best.min(mpb);
        if new_bound != self.groups[g.0 as usize].bound {
            self.groups[g.0 as usize].bound = new_bound;
            self.touch_group(g);
            self.refresh_liveness(g);
            self.push_children_bounds(g);
        }
    }

    fn push_children_bounds(&mut self, g: GroupId) {
        if !self.cfg.recursive_bounding {
            return;
        }
        for a in self.memo.alts_of(g) {
            if self.alts[a.0 as usize].live {
                for c in self.memo.alt(a).children() {
                    self.push_bound(c);
                }
            }
        }
    }

    fn recompute_bound_value(&mut self, g: GroupId) {
        let gs = &mut self.groups[g.0 as usize];
        gs.bound = if self.cfg.recursive_bounding {
            gs.best.min(gs.mpb)
        } else {
            gs.best
        };
    }

    /// Aggregate selection (§3.1) / bound pruning (§3.3): re-evaluate
    /// which alternatives are live against the current threshold, with
    /// reference-count side effects (§3.2). Re-introduction of
    /// previously suppressed state (§4.1/§4.3 cases) happens here too:
    /// a suppressed alternative whose (maintained) cost now passes the
    /// threshold flips back to live, re-adding its references. The
    /// group's argmin always lives: bounds come out of subtraction
    /// chains (r1/r2), whose rounding could otherwise suppress it and
    /// disconnect the chosen plan tree.
    fn refresh_liveness(&mut self, g: GroupId) {
        if !self.cfg.aggregate_selection || !self.groups[g.0 as usize].live {
            return;
        }
        let threshold = if self.cfg.recursive_bounding {
            self.groups[g.0 as usize].bound
        } else {
            self.groups[g.0 as usize].best
        };
        let best_alt = self.groups[g.0 as usize].best_alt;
        for a in self.memo.alts_of(g) {
            let should_live = self.alts[a.0 as usize].total <= threshold || best_alt == Some(a);
            if should_live == self.alts[a.0 as usize].live {
                continue;
            }
            self.note(a);
            self.alts[a.0 as usize].live = should_live;
            self.touch_alt(a);
            if should_live {
                self.live_alts += 1;
            } else {
                self.live_alts -= 1;
            }
            for c in self.memo.alt(a).children() {
                if self.cfg.source_suppression {
                    if should_live {
                        self.on_ref_inc(c);
                    } else {
                        self.on_ref_dec(c);
                    }
                }
                // A ParentBound derivation (r1/r2) appeared or
                // disappeared: the child's MaxBound must be
                // re-aggregated.
                self.push_bound(c);
            }
        }
    }

    fn on_ref_inc(&mut self, g: GroupId) {
        self.groups[g.0 as usize].refs += 1;
        if self.groups[g.0 as usize].refs == 1
            && !self.groups[g.0 as usize].live
            && self.cfg.ref_counting
        {
            self.revive(g);
        }
    }

    fn on_ref_dec(&mut self, g: GroupId) {
        let gs = &mut self.groups[g.0 as usize];
        debug_assert!(gs.refs > 0, "reference count underflow on {g:?}");
        gs.refs -= 1;
        if gs.refs == 0 && self.cfg.ref_counting && g != self.memo.root {
            self.tombstone(g);
        }
    }

    /// §4.2, count 1→0: reclaim the group's state — its references to
    /// its children, its ParentBound derivations and its place in
    /// [`StateMetrics`]. Its costs are retained and kept current.
    fn tombstone(&mut self, g: GroupId) {
        if !self.groups[g.0 as usize].live {
            return;
        }
        self.note_live_alts(g);
        self.groups[g.0 as usize].live = false;
        self.live_groups -= 1;
        self.run.tombstoned_groups += 1;
        self.touch_group(g);
        for a in self.memo.alts_of(g) {
            if self.alts[a.0 as usize].live {
                self.live_alts -= 1;
                for c in self.memo.alt(a).children() {
                    self.on_ref_dec(c);
                    // This group's ParentBound derivations vanish.
                    self.push_bound(c);
                }
            }
        }
    }

    /// §4.2, count 0→1. Where the paper must "recompute all of the
    /// physical plans associated with this expression-property pair",
    /// they are already current here: a revival only takes back what
    /// the tombstone gave up — references, bound derivations, a
    /// liveness verdict.
    fn revive(&mut self, g: GroupId) {
        if self.groups[g.0 as usize].live {
            return;
        }
        self.note_live_alts(g);
        self.groups[g.0 as usize].live = true;
        self.live_groups += 1;
        self.run.revived_groups += 1;
        self.touch_group(g);
        for a in self.memo.alts_of(g) {
            if self.alts[a.0 as usize].live {
                self.live_alts += 1;
                for c in self.memo.alt(a).children() {
                    self.on_ref_inc(c);
                    self.push_bound(c);
                }
            }
        }
        // The liveness verdicts and the bound are as the tombstone left
        // them: re-evaluate both.
        self.push_cost(g);
        self.push_bound(g);
    }

    /// A tombstone or a revival of `g` flips whether its live
    /// alternatives are held.
    fn note_live_alts(&mut self, g: GroupId) {
        self.group_flipped[g.0 as usize] = self.epoch;
        for a in self.memo.alts_of(g) {
            if self.alts[a.0 as usize].live {
                self.note(a);
            }
        }
    }

    fn extract(&self, g: GroupId) -> PlanNode {
        let def = self.memo.group(g);
        let best_alt = self.groups[g.0 as usize]
            .best_alt
            .unwrap_or_else(|| panic!("no plan for group {:?} ({:?})", g, def.expr));
        let alt = self.memo.alt(best_alt);
        PlanNode {
            expr: def.expr,
            prop: def.prop,
            op: alt.op,
            children: alt.children().map(|c| self.extract(c)).collect(),
        }
    }

    /// Group `g`'s maintained state (tests and diagnostics).
    pub fn group_state(&self, g: GroupId) -> &GroupState {
        &self.groups[g.0 as usize]
    }

    /// Alternative `a`'s maintained state (tests and diagnostics).
    pub fn alt_state(&self, a: AltId) -> &AltState {
        &self.alts[a.0 as usize]
    }

    // Corruption hooks for the invariant-checker tests (this crate's,
    // and the bridge audit's under the `test-hooks` feature): hand-
    // damaging converged state is the only way to prove each check can
    // fire.
    #[cfg(any(test, feature = "test-hooks"))]
    pub fn group_state_mut(&mut self, g: GroupId) -> &mut GroupState {
        &mut self.groups[g.0 as usize]
    }

    #[cfg(any(test, feature = "test-hooks"))]
    pub fn alt_state_mut(&mut self, a: AltId) -> &mut AltState {
        &mut self.alts[a.0 as usize]
    }

    /// Group `g`'s maintained output row estimate (invariant checking).
    pub(crate) fn group_rows(&self, g: GroupId) -> f64 {
        self.rows[g.0 as usize]
    }

    #[cfg(test)]
    pub(crate) fn group_rows_mut(&mut self, g: GroupId) -> &mut f64 {
        &mut self.rows[g.0 as usize]
    }

    /// A group's row estimate, read off the cost context (what
    /// [`Self::refresh_rows`] stores, and what the invariant checker
    /// holds the stored one to).
    pub(crate) fn recompute_rows(&mut self, g: GroupId) -> f64 {
        self.ctx.expr_rows(&self.q, self.memo.group(g).expr)
    }

    /// Recomputes an alternative's local cost from the cost context
    /// (invariant checking).
    pub(crate) fn recompute_local(
        &mut self,
        q: &QuerySpec,
        g: GroupId,
        spec: &reopt_expr::AltSpec,
    ) -> Cost {
        let (expr, prop) = {
            let d = self.memo.group(g);
            (d.expr, d.prop)
        };
        self.ctx.local_cost(q, expr, prop, spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{
        agg_chain_query, all_configs, chain_query, cycle_query, fixture_catalog, shaped_query,
        star_query,
    };
    use reopt_baselines::optimize_system_r;
    use reopt_common::FxHashSet;
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

    /// Reference optimum on the *current* parameters of a fresh context
    /// with the same deltas applied.
    fn reference_cost(q: &QuerySpec, deltas: &[ParamDelta]) -> Cost {
        let c = fixture_catalog();
        let g = JoinGraph::new(q);
        let mut ctx = CostContext::new(&c, q);
        ctx.apply(deltas);
        optimize_system_r(q, &g, &mut ctx).cost
    }

    #[test]
    fn initial_optimization_is_optimal_under_every_config() {
        for q in fixture_queries() {
            let want = reference_cost(&q, &[]);
            for cfg in all_configs() {
                let c = fixture_catalog();
                let mut opt = IncrementalOptimizer::new(&c, q.clone(), cfg);
                let out = opt.optimize();
                assert!(
                    out.cost.approx_eq(want),
                    "{} under {}: got {:?}, want {want:?}",
                    q.name,
                    cfg.label(),
                    out.cost
                );
                opt.check_invariants()
                    .unwrap_or_else(|e| panic!("{} under {}: {e}", q.name, cfg.label()));
            }
        }
    }

    #[test]
    fn full_pruning_collapses_state_to_the_optimal_plan_tree() {
        // Paper §3.2: "by the end of the process, the combination of
        // aggregate selection and reference counts ensure SearchSpace
        // and PlanCost only contain those plans that are on the final
        // optimal plan tree."
        let c = fixture_catalog();
        let q = chain_query(&c, 5);
        let mut opt = IncrementalOptimizer::new(&c, q, PruningConfig::all());
        let out = opt.optimize();
        let mut tree_groups: FxHashSet<(reopt_expr::ExprId, reopt_expr::PhysProp)> =
            FxHashSet::default();
        let mut stack = vec![&out.plan];
        while let Some(n) = stack.pop() {
            tree_groups.insert((n.expr, n.prop));
            stack.extend(n.children.iter());
        }
        for gi in 0..opt.memo().n_groups() as u32 {
            let g = GroupId(gi);
            let live = opt.group_state(g).live;
            let def = opt.memo().group(g);
            let in_tree = tree_groups.contains(&(def.expr, def.prop));
            assert_eq!(
                live, in_tree,
                "group {:?}/{} live={live} but in_tree={in_tree}",
                def.expr, def.prop
            );
        }
        // And every surviving alternative is (tied-)optimal for its
        // group: exact cost ties may keep more than one alternative, but
        // nothing worse than the best survives.
        for gi in 0..opt.memo().n_groups() as u32 {
            let g = GroupId(gi);
            if !opt.group_state(g).live {
                continue;
            }
            let best = opt.group_state(g).best;
            for a in opt.memo().alts_of(g).collect::<Vec<_>>() {
                if opt.alt_state(a).live {
                    assert!(opt.alt_state(a).total <= best, "suboptimal live alternative {a:?}");
                }
            }
        }
        let live_alts = opt.memo().n_alts() as u64 - out.state.pruned_alts;
        assert!(live_alts as usize >= tree_groups.len());
    }

    #[test]
    fn evita_raced_never_prunes_plan_table_entries() {
        // Fig 4(b): the Evita-Raced strategy's plan-table pruning is 0.
        let c = fixture_catalog();
        let q = chain_query(&c, 4);
        let mut opt = IncrementalOptimizer::new(&c, q, PruningConfig::evita_raced());
        let out = opt.optimize();
        assert_eq!(out.state.pruned_groups, 0);
        assert!(out.state.pruned_alts > 0, "aggregate selection inactive");
    }

    #[test]
    fn aggsel_without_refcount_keeps_groups() {
        let c = fixture_catalog();
        let q = chain_query(&c, 4);
        for cfg in [PruningConfig::aggsel(), PruningConfig::aggsel_bounding()] {
            let mut opt = IncrementalOptimizer::new(&c, q.clone(), cfg);
            let out = opt.optimize();
            assert_eq!(out.state.pruned_groups, 0, "{}", cfg.label());
            assert!(out.state.pruned_alts > 0);
        }
    }

    #[test]
    fn pruning_strictly_increases_across_the_ablation() {
        // Fig 7(c): each technique adds pruning capability.
        let c = fixture_catalog();
        let q = chain_query(&c, 5);
        let ratios: Vec<f64> = [
            PruningConfig::evita_raced(),
            PruningConfig::aggsel_refcount(),
            PruningConfig::all(),
        ]
        .into_iter()
        .map(|cfg| {
            let mut opt = IncrementalOptimizer::new(&c, q.clone(), cfg);
            opt.optimize().state.alt_pruning_ratio()
        })
        .collect();
        assert!(
            ratios.windows(2).all(|w| w[0] <= w[1] + 1e-12),
            "{ratios:?}"
        );
        assert!(ratios[2] > 0.5, "All config prunes most alternatives");
    }

    #[test]
    fn reoptimize_cost_increase_matches_reference_under_every_config() {
        let c = fixture_catalog();
        for q in fixture_queries() {
            // Increase every kind of parameter, one at a time.
            let batches: Vec<Vec<ParamDelta>> = vec![
                vec![ParamDelta::EdgeSelectivity(EdgeId(0), 8.0)],
                vec![ParamDelta::LeafCardinality(LeafId(1), 4.0)],
                vec![ParamDelta::LeafScanCost(LeafId(0), 6.0)],
                vec![
                    ParamDelta::EdgeSelectivity(EdgeId(0), 8.0),
                    ParamDelta::LeafScanCost(LeafId(2), 3.0),
                ],
            ];
            for cfg in all_configs() {
                for batch in &batches {
                    let mut opt = IncrementalOptimizer::new(&c, q.clone(), cfg);
                    opt.optimize();
                    let out = opt.reoptimize(batch);
                    let want = reference_cost(&q, batch);
                    assert!(
                        out.cost.approx_eq(want),
                        "{} under {} after {batch:?}: got {:?}, want {want:?}",
                        q.name,
                        cfg.label(),
                        out.cost
                    );
                    opt.check_invariants()
                        .unwrap_or_else(|e| panic!("{} under {}: {e}", q.name, cfg.label()));
                }
            }
        }
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
            for cfg in all_configs() {
                let mut lazy = IncrementalOptimizer::new(&c, q.clone(), cfg);
                let mut eager = IncrementalOptimizer::new(&c, q.clone(), cfg);
                eager.optimize();
                let got = lazy.reoptimize(&batch);
                let want = eager.reoptimize(&batch);
                assert_eq!(got.cost, want.cost, "{} under {}", q.name, cfg.label());
                assert_eq!(got.plan, want.plan, "{} under {}", q.name, cfg.label());
                lazy.check_invariants()
                    .unwrap_or_else(|e| panic!("{} under {}: {e}", q.name, cfg.label()));
            }
        }
    }

    #[test]
    fn reoptimize_cost_decrease_matches_reference_without_tombstones() {
        // Every group's costs are maintained, tombstoned or not, so
        // arbitrary (including decreasing) updates stay exact.
        let c = fixture_catalog();
        let q = chain_query(&c, 5);
        let batch = vec![
            ParamDelta::EdgeSelectivity(EdgeId(2), 0.125),
            ParamDelta::LeafScanCost(LeafId(3), 0.25),
        ];
        for cfg in all_configs() {
            let mut opt = IncrementalOptimizer::new(&c, q.clone(), cfg);
            opt.optimize();
            let out = opt.reoptimize(&batch);
            let want = reference_cost(&q, &batch);
            assert!(
                out.cost.approx_eq(want),
                "under {}: got {:?}, want {want:?}",
                cfg.label(),
                out.cost
            );
            opt.check_invariants().unwrap();
        }
    }

    #[test]
    fn reoptimize_triggers_plan_switch_and_revival() {
        // Make the currently chosen plan drastically worse; the
        // optimizer must re-introduce previously pruned state (§4) and
        // land on the reference optimum.
        let c = fixture_catalog();
        let q = chain_query(&c, 5);
        let mut opt = IncrementalOptimizer::new(&c, q.clone(), PruningConfig::all());
        let initial = opt.optimize();
        // Find an edge actually used early in the chosen plan and blow
        // up its selectivity.
        let batch = vec![ParamDelta::EdgeSelectivity(EdgeId(1), 8.0)];
        let out = opt.reoptimize(&batch);
        let want = reference_cost(&q, &batch);
        assert!(out.cost.approx_eq(want), "got {:?} want {want:?}", out.cost);
        assert!(out.cost > initial.cost);
        assert!(
            out.run.revived_groups > 0 || out.plan.fingerprint() == initial.plan.fingerprint(),
            "plan changed without revivals under full pruning"
        );
        opt.check_invariants().unwrap();
    }

    #[test]
    fn incremental_update_touches_a_fraction_of_state() {
        let c = fixture_catalog();
        let q = chain_query(&c, 5);
        let mut opt = IncrementalOptimizer::new(&c, q, PruningConfig::all());
        let init = opt.optimize();
        // Initial run touches everything.
        assert_eq!(init.run.touched_groups, init.state.total_groups);
        // A scan-cost tweak on one leaf touches only its cone.
        let out = opt.reoptimize(&[ParamDelta::LeafScanCost(LeafId(4), 1.3)]);
        assert!(
            out.run.touched_alts < init.state.total_alts / 2,
            "touched {} of {}",
            out.run.touched_alts,
            init.state.total_alts
        );
    }

    #[test]
    fn empty_delta_batch_is_a_noop() {
        let c = fixture_catalog();
        let q = chain_query(&c, 3);
        let mut opt = IncrementalOptimizer::new(&c, q, PruningConfig::all());
        let first = opt.optimize();
        let out = opt.reoptimize(&[]);
        assert_eq!(out.run.touched_groups, 0);
        assert_eq!(out.run.touched_alts, 0);
        assert_eq!(out.cost, first.cost);
        // Re-applying an already-set factor is also a no-op.
        opt.reoptimize(&[ParamDelta::LeafScanCost(LeafId(0), 2.0)]);
        let again = opt.reoptimize(&[ParamDelta::LeafScanCost(LeafId(0), 2.0)]);
        assert_eq!(again.run.touched_alts, 0);
    }

    #[test]
    fn repeated_reoptimization_converges_to_quiescence() {
        // Fig 9's shape: once parameters stop changing, incremental
        // re-optimization cost drops to (near) zero.
        let c = fixture_catalog();
        let q = chain_query(&c, 5);
        let mut opt = IncrementalOptimizer::new(&c, q, PruningConfig::all());
        opt.optimize();
        let mut pops = Vec::new();
        for round in 0..5 {
            // Same factor every round: only round 0 changes anything.
            let out = opt.reoptimize(&[ParamDelta::EdgeSelectivity(EdgeId(0), 2.0)]);
            pops.push(out.run.queue_pops);
            if round > 0 {
                assert_eq!(out.run.queue_pops, 0, "round {round}: {pops:?}");
            }
        }
        assert!(pops[0] > 0);
    }

    #[test]
    fn updates_applied_in_sequence_match_fresh_optimizer() {
        let c = fixture_catalog();
        let q = star_query(&c);
        let mut opt = IncrementalOptimizer::new(&c, q.clone(), PruningConfig::all());
        opt.optimize();
        let seq: Vec<Vec<ParamDelta>> = vec![
            vec![ParamDelta::EdgeSelectivity(EdgeId(0), 4.0)],
            vec![ParamDelta::LeafCardinality(LeafId(2), 0.2)],
            vec![ParamDelta::LeafScanCost(LeafId(0), 5.0)],
            vec![ParamDelta::EdgeSelectivity(EdgeId(0), 0.5)],
        ];
        let mut cumulative: Vec<ParamDelta> = Vec::new();
        for batch in seq {
            cumulative.retain(|d| {
                !batch.iter().any(|b| {
                    std::mem::discriminant(b) == std::mem::discriminant(d)
                        && match (b, d) {
                            (
                                ParamDelta::EdgeSelectivity(x, _),
                                ParamDelta::EdgeSelectivity(y, _),
                            ) => x == y,
                            (
                                ParamDelta::LeafCardinality(x, _),
                                ParamDelta::LeafCardinality(y, _),
                            ) => x == y,
                            (ParamDelta::LeafScanCost(x, _), ParamDelta::LeafScanCost(y, _)) => {
                                x == y
                            }
                            _ => false,
                        }
                })
            });
            cumulative.extend(batch.iter().copied());
            let out = opt.reoptimize(&batch);
            let want = reference_cost(&q, &cumulative);
            assert!(
                out.cost.approx_eq(want),
                "after {cumulative:?}: got {:?} want {want:?}",
                out.cost
            );
            opt.check_invariants().unwrap();
        }
    }

    #[test]
    fn an_epoch_is_seeded_from_the_index_lists_never_the_memo() {
        // The work bound on seeding: an epoch marks at most the
        // alternatives the index lists for the parameters that changed
        // — for one scan cost, the leaf's access paths and the INLJs
        // probing it — however large the memo around them.
        let c = fixture_catalog();
        for shape in ["chain", "star", "clique"] {
            for n in 3..=8 {
                let q = shaped_query(&c, shape, n);
                let mut opt = IncrementalOptimizer::new(&c, q.clone(), PruningConfig::all());
                opt.optimize();
                let index = ParamIndex::build(opt.memo(), &q);
                let alts_in = |groups: &[GroupId]| -> u64 {
                    groups
                        .iter()
                        .map(|&g| opt.memo().alts_of(g).count() as u64)
                        .sum()
                };
                let last = LeafId(n as u32 - 1);
                let listed = [
                    index.scan_alts(last).len() as u64,
                    alts_in(index.groups_covering_edge(EdgeId(0))),
                    alts_in(index.groups_with_leaf(LeafId(1))),
                ];
                let n_alts = opt.memo().n_alts() as u64;
                let out = opt.reoptimize(&[ParamDelta::LeafScanCost(last, 6.0)]);
                assert!(
                    0 < out.run.seeded_alts && out.run.seeded_alts <= listed[0],
                    "{}: seeded {} of {} listed",
                    q.name,
                    out.run.seeded_alts,
                    listed[0]
                );
                assert!(
                    listed[0] < n_alts / 2,
                    "{}: {} of {n_alts}",
                    q.name,
                    listed[0]
                );
                let out = opt.reoptimize(&[ParamDelta::EdgeSelectivity(EdgeId(0), 0.5)]);
                assert!(out.run.seeded_alts <= listed[1], "{}", q.name);
                let out = opt.reoptimize(&[ParamDelta::LeafCardinality(LeafId(1), 3.0)]);
                assert!(out.run.seeded_alts <= listed[2], "{}", q.name);
                opt.check_invariants()
                    .unwrap_or_else(|e| panic!("{}: {e}", q.name));
            }
        }
    }

    #[test]
    fn every_preset_lands_on_the_optimum_of_the_counter_example() {
        // t0 ⋈ t1 ⋈ t2, scanning t2 gets 8× cheaper. Under full pruning
        // the alternatives that gain sit in groups reference counting
        // reclaimed; the paper's rules froze their costs and kept the
        // plan they had, 5 476. Every preset keeps them current and
        // lands on the hand-computed optimum, 4 436.
        let c = fixture_catalog();
        let q = chain_query(&c, 3);
        let step = [ParamDelta::LeafScanCost(LeafId(2), 0.125)];
        let want = reference_cost(&q, &step);
        assert_eq!(want.value().round(), 4436.0, "{want:?}");
        for cfg in all_configs() {
            let mut opt = IncrementalOptimizer::new(&c, q.clone(), cfg);
            let before = opt.optimize();
            let out = opt.reoptimize(&step);
            assert!(out.cost < before.cost, "{}", cfg.label());
            assert_eq!(out.cost.value().round(), 4436.0, "{}: {:?}", cfg.label(), out.cost);
            opt.check_invariants()
                .unwrap_or_else(|e| panic!("{}: {e}", cfg.label()));
        }
    }

    #[test]
    fn a_decrease_inside_a_tombstoned_group_is_seen_only_by_the_exact_mode() {
        // The counter-example above under full pruning, the one preset
        // whose reclaimed groups hold the gaining alternatives. `all()`
        // is the exact mode (`all_strict()` names the same config): it
        // sees the decrease and leaves the plan it had. The freezing
        // mode that did not see it is gone.
        let c = fixture_catalog();
        let q = chain_query(&c, 3);
        let step = [ParamDelta::LeafScanCost(LeafId(2), 0.125)];
        assert_eq!(PruningConfig::all(), PruningConfig::all_strict());
        let mut opt = IncrementalOptimizer::new(&c, q.clone(), PruningConfig::all());
        let before = opt.optimize();
        let index = ParamIndex::build(opt.memo(), &q);
        assert!(
            index
                .scan_alts(LeafId(2))
                .iter()
                .any(|&a| !opt.group_state(opt.memo().alt(a).group).live),
            "the decrease must land in a tombstoned group"
        );
        let want = reference_cost(&q, &step);
        let out = opt.reoptimize(&step);
        assert!(out.cost.approx_eq(want), "{:?} vs {want:?}", out.cost);
        assert!(out.cost < before.cost);
        assert_ne!(out.plan.fingerprint(), before.plan.fingerprint());
        opt.check_invariants().unwrap();
    }

    #[test]
    fn the_default_configuration_finds_the_optimum_of_the_counter_example() {
        // The shipped optimizer: the step above lands on the optimum, 4 436.
        let c = fixture_catalog();
        let q = chain_query(&c, 3);
        let step = [ParamDelta::LeafScanCost(LeafId(2), 0.125)];
        let mut opt = IncrementalOptimizer::new(&c, q.clone(), PruningConfig::default());
        opt.optimize();
        let out = opt.reoptimize(&step);
        assert_eq!(out.cost.value().round(), 4436.0, "{:?}", out.cost);
        assert!(out.cost.approx_eq(reference_cost(&q, &step)));
        opt.check_invariants().unwrap();
    }

    #[test]
    fn parameters_the_query_does_not_have_are_no_ops() {
        // Callers do feed `LeafId(n_leaves)` / `EdgeId(n_edges)`; the
        // index lists nothing for them, so the epoch seeds nothing.
        let c = fixture_catalog();
        for q in fixture_queries() {
            for cfg in all_configs() {
                let mut opt = IncrementalOptimizer::new(&c, q.clone(), cfg);
                let first = opt.optimize();
                let out = opt.reoptimize(&[
                    ParamDelta::LeafScanCost(LeafId(q.n_leaves()), 3.0),
                    ParamDelta::LeafCardinality(LeafId(q.n_leaves()), 0.5),
                    ParamDelta::EdgeSelectivity(EdgeId(q.edges.len() as u32), 0.25),
                ]);
                assert_eq!((out.cost, &out.plan), (first.cost, &first.plan));
                assert_eq!(out.run, RunMetrics::default(), "{} {}", q.name, cfg.label());
                opt.check_invariants()
                    .unwrap_or_else(|e| panic!("{} under {}: {e}", q.name, cfg.label()));
            }
        }
    }

    #[test]
    fn the_change_list_replays_the_held_set() {
        // A copy of the held set that takes each epoch's change list —
        // every entry once, its value before being the copy's — is the
        // held set after the epoch: what the declarative driver's
        // network relies on.
        let c = fixture_catalog();
        for shape in ["chain", "star", "clique"] {
            for n in 3..=6 {
                let q = shaped_query(&c, shape, n);
                let mut opt = IncrementalOptimizer::new(&c, q.clone(), PruningConfig::all());
                opt.optimize();
                let held = |opt: &IncrementalOptimizer| -> Vec<Option<Cost>> {
                    (0..opt.memo().n_alts() as u32).map(|a| opt.held(AltId(a))).collect()
                };
                let mut copy = held(&opt);
                let last = LeafId(n as u32 - 1);
                for batch in [
                    vec![ParamDelta::EdgeSelectivity(EdgeId(0), 8.0)],
                    vec![ParamDelta::LeafCardinality(last, 0.1)],
                    vec![ParamDelta::LeafScanCost(LeafId(1), 5.0)],
                    vec![ParamDelta::EdgeSelectivity(EdgeId(0), 1.0)],
                ] {
                    assert!(opt.propagate(&batch));
                    let mut seen = FxHashSet::default();
                    for (a, before) in opt.drain_changes() {
                        assert!(seen.insert(a), "{}: {a:?} listed twice", q.name);
                        assert_eq!(before, copy[a.0 as usize], "{}: {a:?}", q.name);
                        copy[a.0 as usize] = opt.held(a);
                    }
                    assert_eq!(copy, held(&opt), "{} after {batch:?}", q.name);
                }
                assert!(!opt.propagate(&[ParamDelta::EdgeSelectivity(EdgeId(0), 1.0)]));
                assert!(opt.drain_changes().is_empty());
            }
        }
    }
}
