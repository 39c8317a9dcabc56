//! The incremental re-optimizer: delta propagation over the and-or
//! graph, implementing rules R6–R10 (cost estimation and plan selection)
//! with the three pruning strategies of §3 and the incremental
//! maintenance of §4.
//!
//! Execution model. Two work queues drive a fixpoint, with no constraint
//! on external update order (§3: "our solutions are valid for any
//! execution order"):
//! - a **cost queue**, drained in ascending topological order, refreshes
//!   `PlanCost` totals and `BestCost` aggregates (rules R6–R9, and the
//!   incremental cases 1–4 of §4.1 via the maintained cost-ordered
//!   state);
//! - a **bound queue**, drained in descending topological order,
//!   refreshes `MaxBound`/`Bound` (rules r1–r4) and re-evaluates
//!   suppression (§4.3 cases 1–3), which in turn adjusts reference
//!   counts and revives or tombstones groups (§4.2).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use reopt_catalog::Catalog;
use reopt_common::Cost;
use reopt_cost::{CostContext, ParamDelta};
use reopt_expr::{JoinGraph, PlanNode, QuerySpec};

use crate::config::PruningConfig;
use crate::memo::{AltId, GroupId, Memo};
use crate::metrics::{RunMetrics, StateMetrics};
use crate::state::{le_with_slack, AltState, GroupState};

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
    graph: JoinGraph,
    memo: Memo,
    ctx: CostContext,
    cfg: PruningConfig,
    groups: Vec<GroupState>,
    alts: Vec<AltState>,
    cost_queue: BinaryHeap<Reverse<u32>>,
    bound_queue: BinaryHeap<u32>,
    in_cost_queue: Vec<bool>,
    in_bound_queue: Vec<bool>,
    run: RunMetrics,
    epoch: u32,
    group_epoch: Vec<u32>,
    alt_epoch: Vec<u32>,
    initialized: bool,
    /// Union of every parameter ever changed: a revived group only needs
    /// its local costs recomputed where this union touches them (params
    /// outside it cannot have changed while the group was tombstoned).
    dirty_union: reopt_cost::AffectedSet,
}

impl IncrementalOptimizer {
    pub fn new(catalog: &Catalog, q: QuerySpec, cfg: PruningConfig) -> IncrementalOptimizer {
        let graph = JoinGraph::new(&q);
        let memo = Memo::build(&q, &graph);
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
            graph,
            memo,
            ctx,
            cfg,
            groups,
            alts: vec![AltState::default(); n_alts],
            cost_queue: BinaryHeap::new(),
            bound_queue: BinaryHeap::new(),
            in_cost_queue: vec![false; n_groups],
            in_bound_queue: vec![false; n_groups],
            run: RunMetrics::default(),
            epoch: 0,
            group_epoch: vec![0; n_groups],
            alt_epoch: vec![0; n_alts],
            initialized: false,
            dirty_union: reopt_cost::AffectedSet::default(),
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

    /// The query's join graph (connectivity the enumeration respected —
    /// rendered by `explain_join_graph`).
    pub fn join_graph(&self) -> &JoinGraph {
        &self.graph
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
                self.push_cost(GroupId(gi));
            }
        }
        self.process();
        self.outcome()
    }

    /// Incremental re-optimization under a batch of cost/cardinality
    /// updates (§4). Only state in the affected cone is recomputed.
    pub fn reoptimize(&mut self, deltas: &[ParamDelta]) -> Outcome {
        // A fresh engine evaluates the initial program first, exactly
        // as an explicit `optimize()` would have.
        if !self.initialized {
            self.optimize();
        }
        self.begin_run();
        let affected = self.ctx.apply(deltas);
        if affected.is_empty() {
            return self.outcome();
        }
        self.dirty_union
            .leaves_card
            .extend(affected.leaves_card.iter().copied());
        self.dirty_union
            .edges
            .extend(affected.edges.iter().copied());
        self.dirty_union
            .leaves_scan
            .extend(affected.leaves_scan.iter().copied());
        let mut pinned: Vec<GroupId> = Vec::new();
        if self.cfg.strict_revalidation {
            // Conservative completeness: revive (and pin) any reclaimed
            // group whose own parameters changed, and any reclaimed
            // child of an *affected frozen* alternative — its stale total
            // would otherwise never be revalidated against the change.
            let mut to_revive: Vec<GroupId> = Vec::new();
            for gi in 0..self.memo.n_groups() as u32 {
                let g = GroupId(gi);
                let expr = self.memo.group(g).expr;
                if !self.groups[gi as usize].live {
                    // A tombstoned group anywhere in the dependency cone
                    // (its expression contains a changed leaf or edge)
                    // may hold a stale best; revive the whole cone so
                    // changes cascade through dead ancestors too.
                    let in_cone = affected
                        .leaves_card
                        .iter()
                        .chain(affected.leaves_scan.iter())
                        .any(|l| expr.rel.contains(l.0))
                        || affected
                            .edges
                            .iter()
                            .any(|&e| self.ctx.edge_rels(e).is_subset_of(expr.rel));
                    if in_cone {
                        to_revive.push(g);
                    }
                    continue;
                }
                for a in self.memo.alts_of(g) {
                    if !self
                        .ctx
                        .alt_affected(expr, &self.memo.alt(a).spec, &affected)
                    {
                        continue;
                    }
                    // An affected *frozen* alternative: revive its dead
                    // children so its stale total gets revalidated.
                    for c in self.memo.alt(a).children() {
                        if !self.groups[c.0 as usize].live {
                            to_revive.push(c);
                        }
                    }
                }
            }
            for g in to_revive {
                if !self.groups[g.0 as usize].live {
                    self.revive(g);
                    self.groups[g.0 as usize].refs += 1; // pin
                    pinned.push(g);
                }
            }
        }
        for gi in 0..self.memo.n_groups() as u32 {
            let g = GroupId(gi);
            let expr = self.memo.group(g).expr;
            if !self.groups[gi as usize].live {
                continue;
            }
            let mut any = false;
            for a in self.memo.alts_of(g) {
                if self
                    .ctx
                    .alt_affected(expr, &self.memo.alt(a).spec, &affected)
                {
                    let s = &mut self.alts[a.0 as usize];
                    s.local_dirty = true;
                    s.dirty = true;
                    any = true;
                }
            }
            if any {
                self.push_cost(g);
            }
        }
        self.process();
        // Remove pins; anything no longer referenced is reclaimed again.
        for g in pinned {
            let gs = &mut self.groups[g.0 as usize];
            gs.refs -= 1;
            if gs.refs == 0 && self.cfg.ref_counting && g != self.memo.root {
                self.tombstone(g);
            }
        }
        self.process();
        self.outcome()
    }

    /// Current best cost at the root.
    pub fn best_cost(&self) -> Cost {
        self.groups[self.memo.root.0 as usize].best
    }

    /// Extracts the current best plan tree (the `BestPlan` closure).
    pub fn best_plan(&self) -> PlanNode {
        self.extract(self.memo.root)
    }

    /// State snapshot for the pruning-ratio metrics.
    pub fn state_metrics(&self) -> StateMetrics {
        let total_groups = self.memo.n_groups() as u64;
        let total_alts = self.memo.n_alts() as u64;
        let pruned_groups = self.groups.iter().filter(|g| !g.live).count() as u64;
        let live_alts = self
            .memo
            .alts
            .iter()
            .enumerate()
            .filter(|(ai, a)| {
                self.groups[a.group.0 as usize].live && self.alts[*ai].live
            })
            .count() as u64;
        StateMetrics {
            total_groups,
            total_alts,
            pruned_groups,
            pruned_alts: total_alts - live_alts,
        }
    }

    // ----- internals -------------------------------------------------

    fn begin_run(&mut self) {
        self.epoch += 1;
        self.run = RunMetrics::default();
    }

    fn outcome(&mut self) -> Outcome {
        self.validate_chosen_tree();
        Outcome {
            cost: self.best_cost(),
            plan: self.best_plan(),
            run: self.run,
            state: self.state_metrics(),
        }
    }

    fn push_cost(&mut self, g: GroupId) {
        if !self.in_cost_queue[g.0 as usize] {
            self.in_cost_queue[g.0 as usize] = true;
            self.cost_queue.push(Reverse(g.0));
        }
    }

    fn push_bound(&mut self, g: GroupId) {
        if self.cfg.recursive_bounding && !self.in_bound_queue[g.0 as usize] {
            self.in_bound_queue[g.0 as usize] = true;
            self.bound_queue.push(g.0);
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
            if let Some(Reverse(g)) = self.cost_queue.pop() {
                self.in_cost_queue[g as usize] = false;
                self.refresh_group(GroupId(g));
                continue;
            }
            if let Some(g) = self.bound_queue.pop() {
                self.in_bound_queue[g as usize] = false;
                self.process_bound(GroupId(g));
                continue;
            }
            break;
        }
    }

    /// Rules R6–R9 for one group: recompute dirty `PlanCost` totals and
    /// the `BestCost` aggregate; propagate changes to parents (cost) and
    /// dependents (bounds); re-evaluate suppression.
    fn refresh_group(&mut self, g: GroupId) {
        self.run.queue_pops += 1;
        if !self.groups[g.0 as usize].live {
            return;
        }
        let def_expr = self.memo.group(g).expr;
        let def_prop = self.memo.group(g).prop;
        let mut local_changed_children: Vec<GroupId> = Vec::new();
        for a in self.memo.alts_of(g) {
            if !self.alts[a.0 as usize].dirty {
                continue;
            }
            // Frozen alternatives (a child group tombstoned) keep their
            // stale totals and their dirty flags: they are recomputed on
            // revival. Under strict revalidation a dirty frozen
            // alternative unfreezes on demand — its dead children are
            // revived so the recomputation can happen exactly (covers
            // cost changes arriving through its *live* children).
            let frozen_children: Vec<GroupId> = self
                .memo
                .alt(a)
                .children()
                .filter(|c| !self.groups[c.0 as usize].live)
                .collect();
            if !frozen_children.is_empty() {
                if self.cfg.strict_revalidation {
                    for c in frozen_children {
                        self.revive(c);
                    }
                    self.push_cost(g);
                }
                continue;
            }
            self.alts[a.0 as usize].dirty = false;
            if self.alts[a.0 as usize].local_dirty {
                self.alts[a.0 as usize].local_dirty = false;
                let new_local =
                    self.ctx
                        .local_cost(&self.q, def_expr, def_prop, &self.memo.alt(a).spec);
                if new_local != self.alts[a.0 as usize].local {
                    self.alts[a.0 as usize].local = new_local;
                    local_changed_children.extend(self.memo.alt(a).children());
                }
            }
            // Fn_sum(localCost, lBest, rBest) — rules R6/R7/R8.
            let mut total = self.alts[a.0 as usize].local;
            for c in self.memo.alt(a).children() {
                total += self.groups[c.0 as usize].best;
            }
            if total != self.alts[a.0 as usize].total {
                self.alts[a.0 as usize].total = total;
                self.touch_alt(a);
            }
        }
        // Rule R9: BestCost = min over *all* retained totals — the
        // paper's aggregate keeps every PlanCost tuple in its internal
        // queue, pruned or not, so frozen alternatives participate with
        // their last-known (stale) values. If a stale value wins, plan
        // extraction revalidates it (`validate_chosen_tree`), reviving
        // and re-pricing the subtree until the chosen tree is exact.
        let mut best = Cost::INFINITY;
        let mut best_alt = None;
        for a in self.memo.alts_of(g) {
            let t = self.alts[a.0 as usize].total;
            if t < best {
                best = t;
                best_alt = Some(a);
            }
        }
        let best_changed = best != self.groups[g.0 as usize].best;
        if best_changed {
            self.groups[g.0 as usize].best = best;
            self.groups[g.0 as usize].best_alt = best_alt;
            self.touch_group(g);
        } else {
            self.groups[g.0 as usize].best_alt = best_alt;
        }
        self.recompute_bound_value(g);
        self.refresh_liveness(g);
        if best_changed {
            // Parents' PlanCost totals depend on this BestCost (R7/R8
            // incremental joins).
            let parents = self.memo.parents_of(g).to_vec();
            for pa in parents {
                let pg = self.memo.alt(pa).group;
                if self.groups[pg.0 as usize].live {
                    self.alts[pa.0 as usize].dirty = true;
                    self.push_cost(pg);
                    // Sibling bounds depend on this best (r1/r2).
                    if self.alts[pa.0 as usize].live {
                        if let Some(sib) = self.memo.alt(pa).sibling(g) {
                            self.push_bound(sib);
                        }
                    }
                }
            }
            // bound(g) = min(best, mpb) may have changed: children's
            // parent-bounds depend on it.
            self.push_children_bounds(g);
        }
        for c in local_changed_children {
            self.push_bound(c);
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
        let alts: Vec<AltId> = self.memo.alts_of(g).collect();
        for a in alts {
            if self.alts[a.0 as usize].live {
                let children: Vec<GroupId> = self.memo.alt(a).children().collect();
                for c in children {
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
    /// a suppressed alternative whose (possibly stale) cost now passes
    /// the threshold flips back to live, re-adding references and
    /// triggering recomputation.
    fn refresh_liveness(&mut self, g: GroupId) {
        if !self.cfg.aggregate_selection || !self.groups[g.0 as usize].live {
            return;
        }
        let threshold = if self.cfg.recursive_bounding {
            self.groups[g.0 as usize].bound
        } else {
            self.groups[g.0 as usize].best
        };
        let alts: Vec<AltId> = self.memo.alts_of(g).collect();
        for a in alts {
            let should_live = le_with_slack(self.alts[a.0 as usize].total, threshold);
            if should_live == self.alts[a.0 as usize].live {
                continue;
            }
            self.alts[a.0 as usize].live = should_live;
            self.touch_alt(a);
            if should_live {
                // Re-introduction: undo tuple source suppression
                // (§4.1: "propagate an insertion to the previous
                // stage"). Recompute after any revived children settle.
                self.alts[a.0 as usize].dirty = true;
                self.push_cost(g);
            }
            let children: Vec<GroupId> = self.memo.alt(a).children().collect();
            if self.cfg.source_suppression {
                for &c in &children {
                    if should_live {
                        self.on_ref_inc(c);
                    } else {
                        self.on_ref_dec(c);
                    }
                }
            }
            // A ParentBound derivation (r1/r2) appeared or disappeared:
            // the children's MaxBound must be re-aggregated.
            for c in children {
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

    /// §4.2, count 1→0: reclaim the group's state. Its last costs are
    /// retained (frozen) for later re-introduction checks.
    fn tombstone(&mut self, g: GroupId) {
        if !self.groups[g.0 as usize].live {
            return;
        }
        self.groups[g.0 as usize].live = false;
        self.run.tombstoned_groups += 1;
        self.touch_group(g);
        let alts: Vec<AltId> = self.memo.alts_of(g).collect();
        for a in alts {
            if self.alts[a.0 as usize].live {
                let children: Vec<GroupId> = self.memo.alt(a).children().collect();
                for c in children {
                    self.on_ref_dec(c);
                    // This group's ParentBound derivations vanish.
                    self.push_bound(c);
                }
            }
        }
    }

    /// §4.2, count 0→1: "recompute all of the physical plans associated
    /// with this expression-property pair".
    fn revive(&mut self, g: GroupId) {
        if self.groups[g.0 as usize].live {
            return;
        }
        self.groups[g.0 as usize].live = true;
        self.run.revived_groups += 1;
        self.touch_group(g);
        let expr = self.memo.group(g).expr;
        let alts: Vec<AltId> = self.memo.alts_of(g).collect();
        for a in alts {
            self.alts[a.0 as usize].dirty = true;
            if self
                .ctx
                .alt_affected(expr, &self.memo.alt(a).spec, &self.dirty_union)
            {
                self.alts[a.0 as usize].local_dirty = true;
            }
            if self.alts[a.0 as usize].live {
                let children: Vec<GroupId> = self.memo.alt(a).children().collect();
                for c in children {
                    self.on_ref_inc(c);
                    self.push_bound(c);
                }
            }
        }
        // Parents referencing this group had frozen totals; let them
        // recompute against the refreshed best.
        let parents = self.memo.parents_of(g).to_vec();
        for pa in parents {
            let pg = self.memo.alt(pa).group;
            if self.groups[pg.0 as usize].live {
                self.alts[pa.0 as usize].dirty = true;
                self.push_cost(pg);
            }
        }
        self.push_cost(g);
        self.push_bound(g);
    }

    /// The chosen plan tree must consist of live, non-frozen
    /// alternatives; at a converged fixpoint this holds by construction
    /// (bound(root) = best(root) and the equality telescopes down the
    /// tree). The loop is a safety net: if a frozen alternative is ever
    /// chosen (floating-point corner), revive its children and re-run.
    fn validate_chosen_tree(&mut self) {
        // Each iteration permanently de-stales at least one frozen
        // alternative (its total becomes exact for the current
        // parameters), so the loop terminates within |alts| rounds.
        let cap = self.memo.n_alts() + 64;
        for _ in 0..cap {
            match self.find_frozen_in_chosen_tree(self.memo.root) {
                None => return,
                Some(alt) => {
                    let children: Vec<GroupId> = self.memo.alt(alt).children().collect();
                    for c in children {
                        if !self.groups[c.0 as usize].live {
                            self.revive(c);
                        }
                    }
                    let pg = self.memo.alt(alt).group;
                    self.alts[alt.0 as usize].dirty = true;
                    self.push_cost(pg);
                    self.process();
                }
            }
        }
        panic!("chosen plan tree failed to validate (bug)");
    }

    fn find_frozen_in_chosen_tree(&self, g: GroupId) -> Option<AltId> {
        let best_alt = self.groups[g.0 as usize].best_alt?;
        for c in self.memo.alt(best_alt).children() {
            if !self.groups[c.0 as usize].live {
                return Some(best_alt);
            }
            if let Some(f) = self.find_frozen_in_chosen_tree(c) {
                return Some(f);
            }
        }
        None
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

    // Test/diagnostic accessors.
    pub(crate) fn group_state(&self, g: GroupId) -> &GroupState {
        &self.groups[g.0 as usize]
    }

    pub(crate) fn alt_state(&self, a: AltId) -> &AltState {
        &self.alts[a.0 as usize]
    }

    // Corruption hooks for the invariant-checker tests: hand-damaging
    // converged state is the only way to prove each check can fire.
    #[cfg(test)]
    pub(crate) fn group_state_mut(&mut self, g: GroupId) -> &mut GroupState {
        &mut self.groups[g.0 as usize]
    }

    #[cfg(test)]
    pub(crate) fn alt_state_mut(&mut self, a: AltId) -> &mut AltState {
        &mut self.alts[a.0 as usize]
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
    use crate::fixtures::{agg_chain_query, chain_query, cycle_query, fixture_catalog, star_query};
    use reopt_baselines::optimize_system_r;
    use reopt_common::FxHashSet;
    use reopt_expr::{EdgeId, LeafId};

    fn all_configs() -> Vec<PruningConfig> {
        vec![
            PruningConfig::none(),
            PruningConfig::evita_raced(),
            PruningConfig::aggsel(),
            PruningConfig::aggsel_refcount(),
            PruningConfig::aggsel_bounding(),
            PruningConfig::all(),
            PruningConfig::all_strict(),
        ]
    }

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
                    assert!(
                        crate::state::le_with_slack(opt.alt_state(a).total, best),
                        "suboptimal live alternative {a:?}"
                    );
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
        // Without reference counting every group stays maintained, so
        // arbitrary (including decreasing) updates stay exact.
        let c = fixture_catalog();
        let q = chain_query(&c, 5);
        let batch = vec![
            ParamDelta::EdgeSelectivity(EdgeId(2), 0.125),
            ParamDelta::LeafScanCost(LeafId(3), 0.25),
        ];
        for cfg in [
            PruningConfig::none(),
            PruningConfig::evita_raced(),
            PruningConfig::aggsel(),
            PruningConfig::aggsel_bounding(),
            PruningConfig::all_strict(),
        ] {
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
        let mut opt = IncrementalOptimizer::new(&c, q.clone(), PruningConfig::all_strict());
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
}
