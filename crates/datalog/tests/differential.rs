//! Differential harness for the scheduler-mode matrix: random operator
//! networks (joins, maps, unions, distinct, grouped aggregation) are
//! executed under both of {`Batched`, `PerDelta`},
//! each with and without shared arrangements and with and without the
//! eliminations a compiler infers from the network, and must produce
//! identical sink multisets — counts included — with zero residual
//! negative counts at every fixpoint.
//!
//! This pins the tentpole invariant of the batched substrate: the
//! scheduler's service order, batch grouping, chaining,
//! shared arrangements and coalescing are *performance* choices;
//! the per-delta FIFO execution with owned per-join indexes remains the
//! semantic reference. The recursive networks add the release-order
//! axis: any stratum table declared on a relation inside the cycle —
//! the well-founded one, its reverse, a constant, a scramble — reaches
//! the same fixpoint as none.

use proptest::prelude::*;

use reopt_datalog::value::ints;
use reopt_datalog::{Dataflow, Distinct, HashJoin, Map, NodeId, SchedulerMode, SinkId, Union};

mod common;
use common::{
    build_eliding, cost_events, cost_loop_gen, cost_moves, events, net_gen, sink_counted, CostLoop,
    CostLoopGen, Release, MATRIX, RELEASES,
};

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The full matrix: {Batched, PerDelta} on random
    /// DAGs of all operator kinds agree on every materialized sink and
    /// leave no residual negative counts, under random set-like
    /// insert/delete streams with interleaved fixpoints.
    #[test]
    fn scheduler_modes_agree_on_random_networks(
        gen in net_gen(5),
        evts in events(24),
        run_every in 1usize..6,
    ) {
        let matrix = [
            (SchedulerMode::Batched, false, false),
            (SchedulerMode::PerDelta, false, false),
            // Arrangement-sharing variants: every join probes shared
            // indexes maintained once per source; must be
            // observationally identical to per-join owned indexes.
            (SchedulerMode::Batched, true, false),
            (SchedulerMode::PerDelta, true, false),
            // The inferred eliminations: no `Distinct` over a stream
            // that can only carry a set.
            (SchedulerMode::Batched, false, true),
            (SchedulerMode::Batched, true, true),
            (SchedulerMode::PerDelta, true, true),
        ];
        let mut nets: Vec<(Dataflow, [NodeId; 2], Vec<SinkId>)> = matrix
            .iter()
            .map(|&(m, s, e)| build_eliding(&gen, m, s, e))
            .collect();
        // Set-like inputs (delete only present tuples) keep every
        // operator's fixpoint state non-negative.
        let mut live: [Vec<(i64, i64)>; 2] = [Vec::new(), Vec::new()];
        for (step, (which, key, val, insert)) in evts.iter().enumerate() {
            let side = *which as usize;
            let row = (*key as i64, *val as i64);
            let present = live[side].contains(&row);
            if *insert == present {
                continue;
            }
            if *insert {
                live[side].push(row);
            } else {
                let at = live[side].iter().position(|r| *r == row).unwrap();
                live[side].swap_remove(at);
            }
            let tup = ints(&[row.0, row.1]);
            for (df, inputs, _) in nets.iter_mut() {
                if *insert {
                    df.insert(inputs[side], tup.clone());
                } else {
                    df.delete(inputs[side], tup.clone());
                }
            }
            if step % run_every == 0 {
                for (df, _, _) in nets.iter_mut() {
                    df.run().unwrap();
                }
            }
        }
        for (df, _, _) in nets.iter_mut() {
            df.run().unwrap();
        }
        let (reference, rest) = nets.split_first().unwrap();
        for (i, (df, _, sinks)) in rest.iter().enumerate() {
            for (s_ref, s) in reference.2.iter().zip(sinks) {
                prop_assert!(
                    !df.sink(*s).has_negative_counts(),
                    "negative counts in {:?}", matrix[i + 1]
                );
                prop_assert_eq!(
                    sink_counted(&reference.0, *s_ref),
                    sink_counted(df, *s),
                    "sink mismatch: {:?} vs {:?}", matrix[0], matrix[i + 1]
                );
            }
        }
    }

    /// The release-order axis: the recursive cost loop (a grouped `min`
    /// feeding the joins that feed it) under {none, depth, reversed,
    /// constant, hashed} × {Batched, PerDelta} ×
    /// sharing. Every network holds the bottom-up recomputed best costs
    /// at every fixpoint, all agree on both sinks counts included, and
    /// none keeps a negative count.
    #[test]
    fn release_orders_agree_on_the_recursive_cost_loop(
        gen in cost_loop_gen(),
        evts in cost_events(32),
        run_every in 1usize..8,
    ) {
        let moves = cost_moves(&gen, &evts);
        let mut reference = None;
        for release in RELEASES {
            for mode in MATRIX {
                for sharing in [false, true] {
                    let what = format!("{release:?}/{mode:?}/sharing={sharing}");
                    let mut net = CostLoop::build(&gen, mode, sharing, release);
                    let mut live = vec![None; gen.alts.len()];
                    for (step, (alt, old, new)) in moves.iter().enumerate() {
                        net.set_local(*alt, *old, *new);
                        live[*alt] = *new;
                        if step % run_every == 0 {
                            net.df.run().unwrap();
                            prop_assert_eq!(
                                sink_counted(&net.df, net.sinks[1]),
                                gen.best_costs(&live),
                                "best costs drifted mid-stream under {}", what
                            );
                        }
                    }
                    net.df.run().unwrap();
                    let got = net.sinks.map(|s| sink_counted(&net.df, s));
                    prop_assert_eq!(&got[1], &gen.best_costs(&live), "{}", what);
                    for s in net.sinks {
                        prop_assert!(!net.df.sink(s).has_negative_counts(), "{}", what);
                    }
                    let reference = reference.get_or_insert_with(|| got.clone());
                    prop_assert_eq!(&*reference, &got, "sinks differ under {}", what);
                }
            }
        }
    }
}

/// The recursive transitive-closure network — cyclic, so it exercises
/// chaining + rank scheduling + counting deletions together — run under
/// the full mode matrix on a fixed churn script, with `Path` released
/// by its target vertex under several stratum tables (closure has no
/// well-founded order to follow; every table is just a schedule).
#[test]
fn scheduler_modes_agree_on_recursive_closure() {
    let tc = |mode: SchedulerMode, strata: &[u32]| {
        let mut df = Dataflow::with_mode(mode);
        let edge = df.add_input("edge");
        let union = df.add_op_unwired(Union::new(2));
        df.connect(edge, union, 0);
        let path = df.add_op(Distinct::new(), &[union]);
        if !strata.is_empty() {
            df.set_release_order(path, 1, strata.to_vec());
        }
        let join = df.add_op_unwired(HashJoin::new(vec![1], vec![0]));
        df.connect(path, join, 0);
        df.connect(edge, join, 1);
        let proj = df.add_op(Map::project(vec![0, 3]), &[join]);
        df.connect(proj, union, 1);
        let sink = df.add_sink(path);
        (df, edge, sink)
    };
    let script: &[(i64, i64, bool)] = &[
        (1, 2, true),
        (2, 3, true),
        (3, 4, true),
        (1, 3, true),
        (2, 3, false),
        (2, 4, true),
        (1, 3, false),
    ];
    let tables: [&[u32]; 5] = [
        &[],
        &[0, 1, 2, 3, 4],
        &[4, 3, 2, 1, 0],
        &[2; 5],
        &[3, 0, 4, 1, 1],
    ];
    let mut nets: Vec<_> = tables
        .iter()
        .flat_map(|strata| MATRIX.map(|mode| tc(mode, strata)))
        .collect();
    for &(a, b, insert) in script {
        for (df, edge, _) in nets.iter_mut() {
            if insert {
                df.insert(*edge, ints(&[a, b]));
            } else {
                df.delete(*edge, ints(&[a, b]));
            }
            df.run().unwrap();
        }
    }
    let reference = sink_counted(&nets[0].0, nets[0].2);
    for (df, _, sink) in &nets[1..] {
        assert!(!df.sink(*sink).has_negative_counts());
        assert_eq!(reference, sink_counted(df, *sink));
    }
}

/// What the well-founded table buys, as a count: on a ladder where
/// group `g` has a two-child alternative over `g-1, g-2` and a
/// one-child alternative over `g-1`, one leaf-cost change moves every
/// `PlanCost` row once. Released by depth, the `PlanCost` distinct
/// services exactly one retraction and one assertion per row; with no
/// release order it also services the transients of every wave.
#[test]
fn depth_release_services_each_plan_cost_row_once() {
    let mut alts = vec![(0, None, None), (1, Some(0), None)];
    for g in 2..8 {
        alts.push((g, Some(g - 1), Some(g - 2)));
        alts.push((g, Some(g - 1), None));
    }
    let gen = CostLoopGen { alts };
    let serviced = |release: Release| {
        let mut net = CostLoop::build(&gen, SchedulerMode::Batched, true, release);
        for alt in 0..gen.alts.len() {
            net.set_local(alt, None, Some(10));
        }
        net.df.run().unwrap();
        let before = net.df.node_stats()[net.plan_index].deltas;
        net.set_local(0, Some(10), Some(7));
        net.df.run().unwrap();
        net.df.node_stats()[net.plan_index].deltas - before
    };
    let rows = gen.alts.len() as u64;
    assert_eq!(serviced(Release::Depth), 2 * rows);
    assert!(
        serviced(Release::None) > 2 * rows,
        "the unhinted schedule no longer re-derives rows per wave: {}",
        serviced(Release::None)
    );
}
