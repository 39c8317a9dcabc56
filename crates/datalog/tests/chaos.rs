//! Chaos differential harness: random operator networks under random
//! insert/delete streams, with a fault armed on a victim twin — either a
//! deterministic injected fault or a starved step budget. Until the
//! fault fires, every victim run must land on exactly the fixpoint a
//! fault-free oracle reaches, across the full scheduler matrix,
//! with zero residual negative counts. The run it fires in must return
//! the armed error, and that error poisons the victim: every later run
//! returns the same error and services no batch. Recovery is what the
//! optimizer does: a fresh twin fed the live inputs must land on the
//! oracle's fixpoint. The recursive cost loop runs the same trial with a
//! drawn release order, so faults also land while strata are held in
//! the queue.

use proptest::prelude::*;

use reopt_datalog::value::ints;
use reopt_datalog::{Dataflow, DataflowError, FaultPlan, SinkId};

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
    /// Step budget lowered to the fault step.
    Starved,
}

impl Arm {
    fn new(starve: bool, victim: &mut Dataflow, fault_step: u64) -> Arm {
        if starve {
            victim.set_max_steps(fault_step);
            Arm::Starved
        } else {
            victim.set_fault_plan(Some(FaultPlan::one_shot(fault_step)));
            Arm::Injected
        }
    }

    fn armed(self, e: &DataflowError) -> bool {
        matches!(
            (self, e),
            (Arm::Injected, DataflowError::InjectedFault { .. })
                | (Arm::Starved, DataflowError::FixpointOverrun { .. })
        )
    }
}

/// Batches the dataflow has serviced over its lifetime.
fn serviced(df: &Dataflow) -> u64 {
    df.node_stats().iter().map(|n| n.batches).sum()
}

/// Every victim sink equals the oracle's, counts included, with no
/// residual negative counts.
fn assert_same_fixpoint(
    (oracle, o_sinks): (&Dataflow, &[SinkId]),
    (victim, v_sinks): (&Dataflow, &[SinkId]),
    what: &str,
) {
    for (o_sink, v_sink) in o_sinks.iter().zip(v_sinks) {
        assert!(
            !victim.sink(*v_sink).has_negative_counts(),
            "residual negative counts ({what})"
        );
        assert_eq!(
            sink_counted(oracle, *o_sink),
            sink_counted(victim, *v_sink),
            "sink diverged from the fault-free oracle ({what})"
        );
    }
}

/// One victim run beside the oracle's. Until the armed fault fires the
/// run succeeds on the oracle's fixpoint; the run it fires in returns
/// the armed error, kept in `fired`; every run after that returns the
/// same error without servicing a batch.
fn run_victim(
    oracle: (&Dataflow, &[SinkId]),
    (victim, v_sinks): (&mut Dataflow, &[SinkId]),
    arm: Arm,
    fired: &mut Option<DataflowError>,
    what: &str,
) {
    let before = serviced(victim);
    match (victim.run(), fired.as_ref()) {
        (Ok(_), None) => assert_same_fixpoint(oracle, (victim, v_sinks), what),
        (Err(e), None) => {
            assert!(arm.armed(&e), "fault does not match what was armed: {arm:?} vs {e:?} ({what})");
            *fired = Some(e);
        }
        (Err(e), Some(first)) => {
            assert_eq!(&e, first, "a poisoned dataflow changed its error ({what})");
            assert_eq!(serviced(victim), before, "a poisoned dataflow serviced a batch ({what})");
        }
        (Ok(stats), Some(first)) => {
            panic!("a dataflow poisoned by {first} ran again: {stats:?} ({what})")
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The chaos matrix: {Batched, PerDelta}, each mode
    /// running a fault-free oracle and a victim with one armed fault.
    #[test]
    fn faulted_runs_recover_to_the_fault_free_fixpoint(
        gen in net_gen(5),
        evts in events(24),
        run_every in 1usize..6,
        fault_step in 1u64..40,
        starve in any::<bool>(),
        sharing in any::<bool>(),
    ) {
        for mode in MATRIX {
            let what = format!("{mode:?}");
            let (mut oracle, o_in, o_sinks) = build(&gen, mode, sharing);
            let (mut victim, v_in, v_sinks) = build(&gen, mode, sharing);
            let arm = Arm::new(starve, &mut victim, fault_step);
            let mut fired = None;
            let run = |oracle: &mut Dataflow, victim: &mut Dataflow, fired: &mut _| {
                oracle.run().unwrap();
                run_victim((oracle, &o_sinks), (victim, &v_sinks), arm, fired, &what);
            };
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
                    run(&mut oracle, &mut victim, &mut fired);
                }
            }
            // Two more: a fault fired by the last run is refused twice.
            run(&mut oracle, &mut victim, &mut fired);
            run(&mut oracle, &mut victim, &mut fired);
            if fired.is_some() {
                let (mut fresh, f_in, f_sinks) = build(&gen, mode, sharing);
                for (side, rows) in live.iter().enumerate() {
                    for &(k, v) in rows {
                        fresh.insert(f_in[side], ints(&[k, v]));
                    }
                }
                fresh.run().unwrap();
                assert_same_fixpoint((&oracle, &o_sinks), (&fresh, &f_sinks), &what);
            }
        }
    }

    /// The same trial on the recursive cost loop with a drawn release
    /// order: most of an epoch's steps there run while later strata are
    /// held, so the fault stops the run with deltas parked in the queue,
    /// and they must stay parked.
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
        for mode in MATRIX {
            let what = format!("{mode:?}, {release:?}");
            let mut oracle = CostLoop::build(&gen, mode, sharing, release);
            let mut victim = CostLoop::build(&gen, mode, sharing, release);
            let arm = Arm::new(starve, &mut victim.df, fault_step);
            let mut fired = None;
            let run = |oracle: &mut CostLoop, victim: &mut CostLoop, fired: &mut _| {
                oracle.df.run().unwrap();
                run_victim(
                    (&oracle.df, &oracle.sinks),
                    (&mut victim.df, &victim.sinks),
                    arm,
                    fired,
                    &what,
                );
            };
            let mut local: Vec<Option<i64>> = vec![None; gen.alts.len()];
            for (step, &(alt, old, new)) in moves.iter().enumerate() {
                oracle.set_local(alt, old, new);
                victim.set_local(alt, old, new);
                local[alt] = new;
                if step % run_every == 0 {
                    run(&mut oracle, &mut victim, &mut fired);
                }
            }
            run(&mut oracle, &mut victim, &mut fired);
            run(&mut oracle, &mut victim, &mut fired);
            if fired.is_some() {
                let mut fresh = CostLoop::build(&gen, mode, sharing, release);
                for (alt, &cost) in local.iter().enumerate() {
                    fresh.set_local(alt, None, cost);
                }
                fresh.df.run().unwrap();
                assert_same_fixpoint(
                    (&oracle.df, &oracle.sinks),
                    (&fresh.df, &fresh.sinks),
                    &what,
                );
            }
        }
    }
}
