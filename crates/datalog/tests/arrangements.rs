//! Shared-arrangement fixtures: one `Arrange` node maintains a keyed
//! index once per epoch and several `HashJoin`s probe it, replacing the
//! per-join owned copies. These hand-built nets pin the observational
//! contract — identical sinks to owned-index twins in every scheduler
//! mode — plus the wiring bans (same arrangement on both ports,
//! key-signature mismatch).

use reopt_datalog::value::ints;
use reopt_datalog::{Arrange, Dataflow, HashJoin, NodeId, SchedulerMode, SinkId};

const MODES: [SchedulerMode; 2] = [SchedulerMode::Batched, SchedulerMode::PerDelta];

/// Three inputs; one arrangement over `a` (keyed on column 0) probed by
/// three joins — twice on the left port, once on the right — or, with
/// `sharing` off, the identical graph with owned per-join indexes.
fn fixture(mode: SchedulerMode, sharing: bool) -> (Dataflow, [NodeId; 3], [SinkId; 3]) {
    let mut df = Dataflow::with_mode(mode);
    let a = df.add_input("a");
    let b = df.add_input("b");
    let c = df.add_input("c");
    let join = || HashJoin::with_projection(vec![0], vec![0], vec![1, 3]);
    let (j1, j2, j3) = if sharing {
        let arr = Arrange::new(vec![0]);
        let h = arr.handle();
        let arr_n = df.add_op(arr, &[a]);
        (
            df.add_op(join().share_left(h.clone()), &[arr_n, b]),
            df.add_op(join().share_left(h.clone()), &[arr_n, c]),
            df.add_op(join().share_right(h), &[b, arr_n]),
        )
    } else {
        (
            df.add_op(join(), &[a, b]),
            df.add_op(join(), &[a, c]),
            df.add_op(join(), &[b, a]),
        )
    };
    let sinks = [df.add_sink(j1), df.add_sink(j2), df.add_sink(j3)];
    (df, [a, b, c], sinks)
}

/// (input index, key, payload, insert?) — exercises inserts, updates
/// landing in the same batch, and deletions of previously joined rows.
const SCRIPT: [(usize, i64, i64, bool); 12] = [
    (0, 1, 10, true),
    (1, 1, 20, true),
    (2, 1, 30, true),
    (0, 2, 11, true),
    (1, 2, 21, true),
    (0, 1, 12, true),
    (1, 1, 20, false),
    (2, 2, 31, true),
    (0, 1, 10, false),
    (1, 1, 22, true),
    (0, 3, 13, true),
    (2, 1, 30, false),
];

fn drive(df: &mut Dataflow, inputs: &[NodeId; 3], upto: usize, run_every: usize) {
    for (step, &(side, k, v, insert)) in SCRIPT[..upto].iter().enumerate() {
        let t = ints(&[k, v]);
        if insert {
            df.insert(inputs[side], t);
        } else {
            df.delete(inputs[side], t);
        }
        if step % run_every == 0 {
            df.run().unwrap();
        }
    }
    df.run().unwrap();
}

fn sink_counted(df: &Dataflow, sink: SinkId) -> Vec<(reopt_datalog::Tuple, i64)> {
    let mut v: Vec<_> = df.sink(sink).iter().map(|(t, c)| (t.clone(), c)).collect();
    v.sort();
    v
}

#[test]
fn shared_joins_match_owned_joins() {
    for mode in MODES {
        for run_every in [1, 3, SCRIPT.len()] {
            let (mut shared, s_in, s_sinks) = fixture(mode, true);
            let (mut owned, o_in, o_sinks) = fixture(mode, false);
            drive(&mut shared, &s_in, SCRIPT.len(), run_every);
            drive(&mut owned, &o_in, SCRIPT.len(), run_every);
            for (s, o) in s_sinks.iter().zip(&o_sinks) {
                assert!(!shared.sink(*s).has_negative_counts());
                assert_eq!(
                    sink_counted(&shared, *s),
                    sink_counted(&owned, *o),
                    "shared/owned divergence under {mode:?}, run_every={run_every}"
                );
            }
        }
    }
}

/// The same arrangement on both ports of one join would count the
/// current batch's delta×delta contribution twice — banned at wiring.
#[test]
#[should_panic(expected = "both ports")]
fn same_arrangement_on_both_ports_is_rejected() {
    let arr = Arrange::new(vec![0]);
    let h = arr.handle();
    let _ = HashJoin::new(vec![0], vec![0])
        .share_left(h.clone())
        .share_right(h);
}

/// An arrangement keyed differently from the join port it feeds would
/// probe the wrong buckets — banned at wiring.
#[test]
#[should_panic(expected = "key")]
fn key_signature_mismatch_is_rejected() {
    let arr = Arrange::new(vec![1]);
    let _ = HashJoin::new(vec![0], vec![0]).share_left(arr.handle());
}
