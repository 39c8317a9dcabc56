//! Chaos differential harness: random operator networks under random
//! insert/delete streams, with a fault injected at a random step of a
//! random run — either a deterministic injected fault or a starved step
//! budget. A failed epoch must roll back to the last committed
//! fixpoint, and a disarmed re-run must land on exactly the fixpoint a
//! fault-free twin reaches, across the full scheduler/fusion matrix,
//! with zero residual negative counts. The recursive cost loop runs
//! the same trial with a drawn release order, so faults also land while
//! strata are held in the queue.

use proptest::prelude::*;

use reopt_datalog::value::ints;
use reopt_datalog::{Dataflow, DataflowError, FaultPlan};

mod common;
use common::{
    build, cost_events, cost_loop_gen, cost_moves, events, net_gen, sink_counted, CostLoop, Event,
    MATRIX, RELEASES,
};

/// Which failure the chaos run arms on the victim.
#[derive(Clone, Copy, Debug)]
enum Arm {
    /// `FaultPlan` fires once at the first run reaching the fault step.
    Injected,
    /// Step budget lowered to the fault step; restored after the overrun.
    Starved,
}

/// Runs the victim once; on failure, checks the error matches what was
/// armed, disarms, and re-runs — the rollback + replay that the bridge
/// ladder automates. Returns how many faults were absorbed (0 or 1).
fn run_victim(victim: &mut Dataflow, arm: Arm, budget: u64) -> u64 {
    match victim.run() {
        Ok(_) => 0,
        Err(e) => {
            match (arm, &e) {
                (Arm::Injected, DataflowError::InjectedFault { .. }) => {
                    victim.set_fault_plan(None)
                }
                (Arm::Starved, DataflowError::FixpointOverrun { .. }) => {
                    victim.set_max_steps(budget)
                }
                other => panic!("fault does not match what was armed: {other:?}"),
            }
            victim
                .run()
                .expect("the disarmed replay of a rolled-back epoch converges");
            1
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The chaos matrix: {Batched, Batched+fusion, PerDelta}, each mode
    /// running a fault-free oracle and a victim with one armed fault.
    /// After recovery the victim's every materialized sink must equal
    /// the oracle's, counts included.
    #[test]
    fn faulted_runs_recover_to_the_fault_free_fixpoint(
        gen in net_gen(5),
        evts in events(24),
        run_every in 1usize..6,
        fault_step in 1u64..40,
        starve in any::<bool>(),
        sharing in any::<bool>(),
    ) {
        for (mode, fusion) in MATRIX {
            let (mut oracle, o_in, o_sinks) = build(&gen, mode, fusion, sharing);
            let (mut victim, v_in, v_sinks) = build(&gen, mode, fusion, sharing);
            let budget = victim.max_steps();
            let arm = if starve {
                victim.set_max_steps(fault_step);
                Arm::Starved
            } else {
                victim.set_fault_plan(Some(FaultPlan::one_shot(fault_step)));
                Arm::Injected
            };
            let mut faults = 0u64;
            // Set-like inputs (delete only present tuples) keep every
            // fixpoint's state non-negative.
            let mut live: [Vec<(i64, i64)>; 2] = [Vec::new(), Vec::new()];
            for (step, ev) in evts.iter().enumerate() {
                let (which, key, val, insert): Event = *ev;
                let side = which as usize;
                let row = (key as i64, val as i64);
                let present = live[side].contains(&row);
                if insert == present {
                    continue;
                }
                if insert {
                    live[side].push(row);
                } else {
                    let at = live[side].iter().position(|r| *r == row).unwrap();
                    live[side].swap_remove(at);
                }
                let tup = ints(&[row.0, row.1]);
                if insert {
                    oracle.insert(o_in[side], tup.clone());
                    victim.insert(v_in[side], tup);
                } else {
                    oracle.delete(o_in[side], tup.clone());
                    victim.delete(v_in[side], tup);
                }
                if step % run_every == 0 {
                    oracle.run().unwrap();
                    faults += run_victim(&mut victim, arm, budget);
                }
            }
            oracle.run().unwrap();
            faults += run_victim(&mut victim, arm, budget);
            prop_assert!(faults <= 1, "the single armed fault fired {faults} times");
            prop_assert_eq!(victim.rollbacks(), faults, "rollbacks != absorbed faults");
            for (o_sink, v_sink) in o_sinks.iter().zip(&v_sinks) {
                prop_assert!(
                    !victim.sink(*v_sink).has_negative_counts(),
                    "residual negative counts after recovery ({mode:?}, fusion={fusion})"
                );
                prop_assert_eq!(
                    sink_counted(&oracle, *o_sink),
                    sink_counted(&victim, *v_sink),
                    "recovered sink diverged from the fault-free oracle \
                     ({:?}, fusion={})", mode, fusion
                );
            }
        }
    }

    /// The same trial on the recursive cost loop with a drawn release
    /// order: most of an epoch's steps there run while later strata are
    /// held, so the fault aborts the epoch with deltas parked in the
    /// queue. Rollback must drop them with the rest of the epoch and
    /// the replay must park and release them again to the fault-free
    /// fixpoint.
    #[test]
    fn faults_while_strata_are_held_recover_to_the_fault_free_fixpoint(
        gen in cost_loop_gen(),
        evts in cost_events(32),
        run_every in 1usize..8,
        fault_step in 1u64..60,
        starve in any::<bool>(),
        sharing in any::<bool>(),
        release_sel in 0usize..5,
    ) {
        let release = RELEASES[release_sel];
        let moves = cost_moves(&gen, &evts);
        for (mode, fusion) in MATRIX {
            let mut oracle = CostLoop::build(&gen, mode, fusion, sharing, release);
            let mut victim = CostLoop::build(&gen, mode, fusion, sharing, release);
            let budget = victim.df.max_steps();
            let arm = if starve {
                victim.df.set_max_steps(fault_step);
                Arm::Starved
            } else {
                victim.df.set_fault_plan(Some(FaultPlan::one_shot(fault_step)));
                Arm::Injected
            };
            let mut faults = 0u64;
            for (step, (alt, old, new)) in moves.iter().enumerate() {
                oracle.set_local(*alt, *old, *new);
                victim.set_local(*alt, *old, *new);
                if step % run_every == 0 {
                    oracle.df.run().unwrap();
                    faults += run_victim(&mut victim.df, arm, budget);
                }
            }
            oracle.df.run().unwrap();
            faults += run_victim(&mut victim.df, arm, budget);
            prop_assert!(faults <= 1, "the single armed fault fired {faults} times");
            prop_assert_eq!(victim.df.rollbacks(), faults, "rollbacks != absorbed faults");
            for (o_sink, v_sink) in oracle.sinks.iter().zip(&victim.sinks) {
                prop_assert!(
                    !victim.df.sink(*v_sink).has_negative_counts(),
                    "residual negative counts after recovery \
                     ({:?}, fusion={}, {:?})", mode, fusion, release
                );
                prop_assert_eq!(
                    sink_counted(&oracle.df, *o_sink),
                    sink_counted(&victim.df, *v_sink),
                    "recovered sink diverged from the fault-free oracle \
                     ({:?}, fusion={}, {:?})", mode, fusion, release
                );
            }
        }
    }
}
