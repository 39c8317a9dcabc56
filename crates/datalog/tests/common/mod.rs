//! Shared generators for the differential and chaos harnesses: random
//! operator networks over all operator kinds, instantiated under any
//! scheduler mode, plus set-like input event streams.
#![allow(dead_code)]

use std::collections::HashMap;

use proptest::prelude::*;

use reopt_datalog::value::{ints, Tuple, Val};
use reopt_datalog::{
    AggKind, Arrange, ArrangementHandle, Dataflow, Distinct, GroupAgg, HashJoin, Map, NodeId,
    SchedulerMode, SinkId, Union,
};

/// The scheduler matrix every harness runs, per-delta last — it is the
/// semantic reference.
pub const MATRIX: [SchedulerMode; 2] = [SchedulerMode::Batched, SchedulerMode::PerDelta];

/// One randomly generated operator stage. Input indices select from the
/// pool `[input0, input1, stage0, stage1, ...]` (mod pool size), so
/// every generated graph is a well-formed DAG over binary tuples.
#[derive(Clone, Debug)]
pub enum StageGen {
    /// Column swap — a pure projection.
    Swap(u8),
    /// Parity filter on column 0.
    Filter(u8, bool),
    /// Arithmetic map: `(c0, c1 + k)`.
    Shift(u8, i8),
    /// Equi-join on column 0 with an in-join output projection back to
    /// a binary tuple.
    Join(u8, u8),
    Union(u8, u8),
    Distinct(u8),
    Agg(u8, u8),
}

/// A full network description: stages plus which stage outputs get
/// materialized (the last stage always does).
#[derive(Clone, Debug)]
pub struct NetGen {
    pub stages: Vec<StageGen>,
    pub sink_flags: Vec<bool>,
}

pub fn stage_gen() -> impl Strategy<Value = StageGen> {
    (0u8..7, any::<u8>(), any::<u8>(), any::<bool>(), any::<i8>()).prop_map(
        |(kind, a, b, flag, k)| match kind {
            0 => StageGen::Swap(a),
            1 => StageGen::Filter(a, flag),
            2 => StageGen::Shift(a, k),
            3 => StageGen::Join(a, b),
            4 => StageGen::Union(a, b),
            5 => StageGen::Distinct(a),
            _ => StageGen::Agg(a, b),
        },
    )
}

pub fn net_gen(max_stages: usize) -> impl Strategy<Value = NetGen> {
    (1..=max_stages).prop_flat_map(move |n| {
        (
            proptest::collection::vec(stage_gen(), n),
            proptest::collection::vec(any::<bool>(), n),
        )
            .prop_map(|(stages, sink_flags)| NetGen { stages, sink_flags })
    })
}

/// Instantiates the described network under one scheduler/
/// arrangement-sharing mode. With `sharing` on, every join input gets
/// an [`Arrange`] node (keyed on column 0, deduplicated per source
/// node) and the join attaches the shared index instead of building an
/// owned copy — except a self-join's right side, which stays owned (the
/// same arrangement must never feed both ports of one join).
pub fn build(
    gen: &NetGen,
    mode: SchedulerMode,
    sharing: bool,
) -> (Dataflow, [NodeId; 2], Vec<SinkId>) {
    build_eliding(gen, mode, sharing, false)
}

/// [`build`], optionally with the eliminations a compiler may infer
/// from the network's shape. With `elide`, a `Distinct` stage over a
/// stream that can only carry a set — an input (the harnesses feed
/// set-like streams), a `Distinct` or grouped aggregate, or a
/// one-to-one map or a filter of one — is not built: its consumers read
/// the stream itself. (The wiring-level elimination — consolidated
/// ports that skip coalescing — is inferred by
/// `Dataflow::prove_consolidated` under every batched build.)
pub fn build_eliding(
    gen: &NetGen,
    mode: SchedulerMode,
    sharing: bool,
    elide: bool,
) -> (Dataflow, [NodeId; 2], Vec<SinkId>) {
    let mut df = Dataflow::with_mode(mode);
    let inputs = [df.add_input("r"), df.add_input("s")];
    let mut pool: Vec<NodeId> = inputs.to_vec();
    // Per pool entry: can the stream only ever carry a set?
    let mut is_set = vec![true; 2];
    let mut sinks = Vec::new();
    let mut arrangements: HashMap<NodeId, (NodeId, ArrangementHandle)> = HashMap::new();
    let last = gen.stages.len() - 1;
    for (i, stage) in gen.stages.iter().enumerate() {
        let pick = |sel: u8| pool[sel as usize % pool.len()];
        let set_at = |sel: u8| is_set[sel as usize % pool.len()];
        let stage_is_set = match stage {
            StageGen::Swap(a) | StageGen::Filter(a, _) | StageGen::Shift(a, _) => set_at(*a),
            StageGen::Distinct(_) | StageGen::Agg(..) => true,
            StageGen::Join(..) | StageGen::Union(..) => false,
        };
        let node = match stage {
            StageGen::Swap(a) => df.add_op(Map::project(vec![1, 0]), &[pick(*a)]),
            StageGen::Filter(a, parity) => {
                let want = i64::from(*parity);
                df.add_op(
                    Map::filter(move |t| t.get(0).as_int().rem_euclid(2) == want),
                    &[pick(*a)],
                )
            }
            StageGen::Shift(a, k) => {
                let k = *k as i64;
                df.add_op(
                    Map::new(move |t| {
                        Some(Tuple::new(vec![t.get(0), Val::Int(t.get(1).as_int() + k)]))
                    }),
                    &[pick(*a)],
                )
            }
            StageGen::Join(a, b) => {
                let (l, r) = (pick(*a), pick(*b));
                // Key on column 0; project the virtual concat back to a
                // binary tuple (left payload, right payload).
                let join = HashJoin::with_projection(vec![0], vec![0], vec![1, 3]);
                if sharing {
                    let (l_node, l_handle) = arrangements
                        .entry(l)
                        .or_insert_with(|| {
                            let op = Arrange::new(vec![0]);
                            let h = op.handle();
                            (df.add_op(op, &[l]), h)
                        })
                        .clone();
                    let join = join.share_left(l_handle);
                    let (join, r_node) = if r == l {
                        (join, r)
                    } else {
                        let (r_node, r_handle) = arrangements
                            .entry(r)
                            .or_insert_with(|| {
                                let op = Arrange::new(vec![0]);
                                let h = op.handle();
                                (df.add_op(op, &[r]), h)
                            })
                            .clone();
                        (join.share_right(r_handle), r_node)
                    };
                    df.add_op(join, &[l_node, r_node])
                } else {
                    df.add_op(join, &[l, r])
                }
            }
            StageGen::Union(a, b) => df.add_op(Union::new(2), &[pick(*a), pick(*b)]),
            StageGen::Distinct(a) if elide && set_at(*a) => pick(*a),
            StageGen::Distinct(a) => df.add_op(Distinct::new(), &[pick(*a)]),
            StageGen::Agg(a, kind) => {
                let kind = match kind % 4 {
                    0 => AggKind::Min,
                    1 => AggKind::Max,
                    2 => AggKind::Sum,
                    _ => AggKind::Count,
                };
                df.add_op(GroupAgg::new(vec![0], 1, kind), &[pick(*a)])
            }
        };
        if gen.sink_flags[i] || i == last {
            sinks.push(df.add_sink(node));
        }
        pool.push(node);
        is_set.push(stage_is_set);
    }
    (df, inputs, sinks)
}

/// Sink contents with multiplicities, sorted — the observational state
/// all modes must agree on.
pub fn sink_counted(df: &Dataflow, sink: SinkId) -> Vec<(Tuple, i64)> {
    let mut v: Vec<(Tuple, i64)> = df.sink(sink).iter().map(|(t, c)| (t.clone(), c)).collect();
    v.sort();
    v
}

/// A raw event: (input selector, key, payload, insert?).
pub type Event = (bool, u8, u8, bool);

pub fn events(max: usize) -> impl Strategy<Value = Vec<Event>> {
    proptest::collection::vec((any::<bool>(), 0u8..4, 0u8..6, any::<bool>()), 1..max)
}

/// The optimizer's recursive cost loop in miniature (rules D6–D9):
/// alternative `i` of group `g` costs its local cost plus the best cost
/// of each child group, and a group's best cost is the minimum over its
/// alternatives. Children always belong to lower-numbered groups, so
/// the data is well-founded however the network schedules it.
#[derive(Clone, Debug)]
pub struct CostLoopGen {
    /// Per alternative: `(group, left child, right child)`.
    pub alts: Vec<(usize, Option<usize>, Option<usize>)>,
}

pub fn cost_loop_gen() -> impl Strategy<Value = CostLoopGen> {
    (
        2usize..7,
        proptest::collection::vec((any::<u8>(), 0u8..3, any::<u8>(), any::<u8>()), 3..16),
    )
        .prop_map(|(n_groups, raw)| CostLoopGen {
            alts: raw
                .into_iter()
                .map(|(g, kind, l, r)| {
                    let g = g as usize % n_groups;
                    let child = |sel: u8| Some(sel as usize % g);
                    match kind {
                        _ if g == 0 => (g, None, None),
                        0 => (g, None, None),
                        1 => (g, child(l), None),
                        _ => (g, child(l), child(r)),
                    }
                })
                .collect(),
        })
}

/// A release order to declare on the cost loop's `PlanCost` relation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Release {
    None,
    /// 1 + the alternative's group depth: the well-founded order.
    Depth,
    /// The well-founded order backwards — the worst schedule.
    Reversed,
    Constant,
    /// An arbitrary scramble of the alternative id.
    Hashed,
}

pub const RELEASES: [Release; 5] = [
    Release::None,
    Release::Depth,
    Release::Reversed,
    Release::Constant,
    Release::Hashed,
];

impl CostLoopGen {
    fn n_groups(&self) -> usize {
        self.alts.iter().map(|a| a.0 + 1).max().unwrap_or(0)
    }

    /// Longest-path depth of every group (groups are already in
    /// children-first order).
    fn depths(&self) -> Vec<u32> {
        let mut depth = vec![0u32; self.n_groups()];
        for g in 0..depth.len() {
            for (_, l, r) in self.alts.iter().filter(|a| a.0 == g) {
                for c in [l, r].into_iter().flatten() {
                    depth[g] = depth[g].max(depth[*c] + 1);
                }
            }
        }
        depth
    }

    /// The stratum of every alternative under `release` (`None` for no
    /// declaration at all).
    pub fn strata(&self, release: Release) -> Option<Vec<u32>> {
        if release == Release::None {
            return None;
        }
        let depth = self.depths();
        let deepest = depth.iter().copied().max().unwrap_or(0);
        let strata = self.alts.iter().enumerate().map(|(i, alt)| match release {
            Release::Depth => 1 + depth[alt.0],
            Release::Reversed => 1 + deepest - depth[alt.0],
            Release::None | Release::Constant => 3,
            Release::Hashed => (i as u32).wrapping_mul(2_654_435_761) >> 29,
        });
        Some(strata.collect())
    }

    /// Every group's best cost under the live local costs, recomputed
    /// bottom-up — what the `Best` sink must hold at any fixpoint.
    pub fn best_costs(&self, local: &[Option<i64>]) -> Vec<(Tuple, i64)> {
        let mut best: Vec<Option<i64>> = vec![None; self.n_groups()];
        for g in 0..best.len() {
            for (i, (_, l, r)) in self.alts.iter().enumerate().filter(|(_, a)| a.0 == g) {
                let mut total = local[i];
                for c in [l, r].into_iter().flatten() {
                    total = total.zip(best[*c]).map(|(t, b)| t + b);
                }
                best[g] = match (best[g], total) {
                    (Some(b), Some(t)) => Some(b.min(t)),
                    (b, t) => b.or(t),
                };
            }
        }
        let mut rows: Vec<(Tuple, i64)> = best
            .iter()
            .enumerate()
            .filter_map(|(g, b)| b.map(|b| (ints(&[g as i64, b]), 1)))
            .collect();
        rows.sort();
        rows
    }
}

/// An instantiated cost loop: `Alt` rows are pushed at build time (the
/// static search space); `Local` rows are the maintained base relation.
pub struct CostLoop {
    pub df: Dataflow,
    pub local_in: NodeId,
    /// Position of the `PlanCost` distinct in [`Dataflow::node_stats`].
    pub plan_index: usize,
    /// The `PlanCost` and `Best` relations.
    pub sinks: [SinkId; 2],
}

impl CostLoop {
    pub fn build(
        gen: &CostLoopGen,
        mode: SchedulerMode,
        sharing: bool,
        release: Release,
    ) -> CostLoop {
        const NONE: i64 = -1;
        let int = |t: &Tuple, i: usize| t.get(i).as_int();
        let mut df = Dataflow::with_mode(mode);
        let alt_in = df.add_input("alt"); // (alt, group, left, right)
        let local_in = df.add_input("local"); // (alt, cost)
        // (alt, group, left, right, cost)
        let costed = df.add_op(
            HashJoin::with_projection(vec![0], vec![0], vec![0, 1, 2, 3, 5]),
            &[alt_in, local_in],
        );
        let plan_union = df.add_op_unwired(Union::new(3));
        let plan_index = df.node_count();
        let plan = df.add_op(Distinct::new(), &[plan_union]); // (group, alt, cost)
        if let Some(strata) = gen.strata(release) {
            df.set_release_order(plan, 1, strata);
        }
        let best_agg = df.add_op(GroupAgg::new(vec![0], 2, AggKind::Min), &[plan]);
        let best = df.add_op(Distinct::new(), &[best_agg]); // (group, cost)

        // Joins a child column against `Best`, appending the child's
        // best cost; with `sharing` all three probe one arrangement.
        let mut arranged: Option<(NodeId, ArrangementHandle)> = None;
        let mut join_best = |df: &mut Dataflow, left: NodeId, child_col: usize, width: usize| {
            let mut proj: Vec<usize> = (0..width).collect();
            proj.push(width + 1);
            let join = HashJoin::with_projection(vec![child_col], vec![0], proj);
            if sharing {
                let (node, handle) = arranged
                    .get_or_insert_with(|| {
                        let op = Arrange::new(vec![0]);
                        let handle = op.handle();
                        (df.add_op(op, &[best]), handle)
                    })
                    .clone();
                df.add_op(join.share_right(handle), &[left, node])
            } else {
                df.add_op(join, &[left, best])
            }
        };
        // D6: no children.
        let leaf = df.add_op(
            Map::new(move |t| {
                (int(t, 2) == NONE).then(|| Tuple::new(vec![t.get(1), t.get(0), t.get(4)]))
            }),
            &[costed],
        );
        // D7: one child.
        let unary = df.add_op(
            Map::filter(move |t| int(t, 2) != NONE && int(t, 3) == NONE),
            &[costed],
        );
        let unary = join_best(&mut df, unary, 2, 5);
        let unary = df.add_op(
            Map::new(move |t| {
                let total = Val::Int(int(t, 4) + int(t, 5));
                Some(Tuple::new(vec![t.get(1), t.get(0), total]))
            }),
            &[unary],
        );
        // D8: two children.
        let binary = df.add_op(Map::filter(move |t| int(t, 3) != NONE), &[costed]);
        let binary = join_best(&mut df, binary, 2, 5);
        let binary = join_best(&mut df, binary, 3, 6);
        let binary = df.add_op(
            Map::new(move |t| {
                let total = Val::Int(int(t, 4) + int(t, 5) + int(t, 6));
                Some(Tuple::new(vec![t.get(1), t.get(0), total]))
            }),
            &[binary],
        );
        for (port, node) in [leaf, unary, binary].into_iter().enumerate() {
            df.connect(node, plan_union, port);
        }
        let sinks = [df.add_sink(plan), df.add_sink(best)];
        for (i, (g, l, r)) in gen.alts.iter().enumerate() {
            let child = |c: &Option<usize>| c.map_or(NONE, |c| c as i64);
            let row = [i as i64, *g as i64, child(l), child(r)];
            df.insert(alt_in, ints(&row));
        }
        CostLoop {
            df,
            local_in,
            plan_index,
            sinks,
        }
    }

    /// Moves alternative `alt`'s local cost from `old` to `new` (`None`
    /// = no row, the way the optimizer withholds pruned alternatives).
    pub fn set_local(&mut self, alt: usize, old: Option<i64>, new: Option<i64>) {
        let row = |c: i64| ints(&[alt as i64, c]);
        if let Some(c) = old {
            self.df.delete(self.local_in, row(c));
        }
        if let Some(c) = new {
            self.df.insert(self.local_in, row(c));
        }
    }
}

/// A raw cost-loop event: (alternative selector, new local cost, row
/// present?).
pub type CostEvent = (u8, u8, bool);

pub fn cost_events(max: usize) -> impl Strategy<Value = Vec<CostEvent>> {
    proptest::collection::vec((any::<u8>(), 0u8..20, any::<bool>()), 1..max)
}

/// Resolves raw events into `(alt, old, new)` local-cost moves, skipping
/// no-ops, so every network of a matrix applies the same sequence.
pub fn cost_moves(gen: &CostLoopGen, evts: &[CostEvent]) -> Vec<(usize, Option<i64>, Option<i64>)> {
    let mut live: Vec<Option<i64>> = vec![None; gen.alts.len()];
    let mut moves = Vec::new();
    for (sel, cost, present) in evts {
        let alt = *sel as usize % live.len();
        let new = present.then_some(*cost as i64);
        if live[alt] != new {
            moves.push((alt, live[alt], new));
            live[alt] = new;
        }
    }
    moves
}
