//! Crash-point differential harness for durable checkpoints: a network
//! is killed at a random point in its event stream, its last checkpoint
//! restored into a freshly built process image, and the remaining
//! events replayed — the survivor must be observationally identical to
//! an uninterrupted oracle, across the whole scheduler/fusion matrix.
//!
//! Also pins the corruption taxonomy: every single-bit flip and every
//! truncation of a checkpoint file must surface as
//! [`DataflowError::StateCorruption`] — never a panic, never a silent
//! restore of drifted state — and the cross-process tests prove that
//! interned symbols survive a restart whose interner assigned different
//! ids.

use proptest::prelude::*;

use reopt_datalog::checkpoint::write_atomic;
use reopt_datalog::value::{ints, tup, Tuple, Val};
use reopt_datalog::{
    AggKind, Dataflow, DataflowError, Distinct, GroupAgg, NodeId, SchedulerMode, SinkId,
};

mod common;
use common::{
    build, events, net_gen, sink_counted, CostLoop, CostLoopGen, Event, Release, MATRIX,
};

/// Resolves the raw event stream against set-like semantics once, so
/// the oracle and the victim apply byte-identical operation sequences.
fn effective_ops(evts: &[Event]) -> Vec<(usize, Tuple, bool)> {
    let mut live: [Vec<(i64, i64)>; 2] = [Vec::new(), Vec::new()];
    let mut ops = Vec::new();
    for (which, key, val, insert) in evts {
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
        ops.push((side, ints(&[row.0, row.1]), *insert));
    }
    ops
}

fn apply(df: &mut Dataflow, inputs: &[NodeId; 2], op: &(usize, Tuple, bool)) {
    if op.2 {
        df.insert(inputs[op.0], op.1.clone());
    } else {
        df.delete(inputs[op.0], op.1.clone());
    }
}

/// Drives `ops[range]` with a fixpoint every `run_every` steps (step
/// indices are global, so oracle and survivor share one run schedule).
fn drive(
    df: &mut Dataflow,
    inputs: &[NodeId; 2],
    ops: &[(usize, Tuple, bool)],
    range: std::ops::Range<usize>,
    run_every: usize,
) {
    for step in range {
        apply(df, inputs, &ops[step]);
        if step % run_every == 0 {
            df.run().unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The tentpole differential: kill the process at event `split`,
    /// restore the checkpoint into a freshly built network, replay the
    /// rest — sinks, epoch counters, and negative-count hygiene must
    /// match the uninterrupted oracle in every scheduler/fusion mode.
    /// The checkpoint is taken *between* runs, so whenever `split` does
    /// not land on a fixpoint step the file also carries queue residue
    /// (externals pushed but not yet run) that must survive the crash.
    #[test]
    fn restored_networks_match_the_uninterrupted_oracle(
        gen in net_gen(5),
        evts in events(24),
        run_every in 1usize..6,
        split_sel in any::<u16>(),
        sharing in any::<bool>(),
    ) {
        let ops = effective_ops(&evts);
        let split = split_sel as usize % (ops.len() + 1);
        for (mode, fusion) in MATRIX {
            // Uninterrupted oracle.
            let (mut oracle, o_in, o_sinks) = build(&gen, mode, fusion, sharing);
            drive(&mut oracle, &o_in, &ops, 0..ops.len(), run_every);
            oracle.run().unwrap();

            // Victim: runs to `split`, checkpoints, dies.
            let (mut victim, v_in, _) = build(&gen, mode, fusion, sharing);
            drive(&mut victim, &v_in, &ops, 0..split, run_every);
            let bytes = victim.checkpoint();
            let epoch_at_crash = victim.epoch();
            drop(victim);

            // Survivor: fresh graph, restore, replay the tail.
            let (mut survivor, s_in, s_sinks) = build(&gen, mode, fusion, sharing);
            let restored_epoch = survivor.restore(&bytes).unwrap();
            prop_assert_eq!(restored_epoch, epoch_at_crash);
            drive(&mut survivor, &s_in, &ops, split..ops.len(), run_every);
            survivor.run().unwrap();

            prop_assert_eq!(
                survivor.epoch(), oracle.epoch(),
                "epoch drift after restore under {:?}/fusion={}", mode, fusion
            );
            for (o, s) in o_sinks.iter().zip(&s_sinks) {
                prop_assert!(
                    !survivor.sink(*s).has_negative_counts(),
                    "negative counts after restore under {:?}/fusion={}", mode, fusion
                );
                prop_assert_eq!(
                    sink_counted(&oracle, *o),
                    sink_counted(&survivor, *s),
                    "sink mismatch after restore under {:?}/fusion={}", mode, fusion
                );
            }
        }
    }

    /// Seeded corruption: a random byte of a random network's checkpoint
    /// is bit-flipped; restore must refuse with `StateCorruption` (the
    /// CRC catches payload damage, the parser everything structural) and
    /// must never panic.
    #[test]
    fn seeded_bit_flips_are_always_detected(
        gen in net_gen(4),
        evts in events(16),
        byte_sel in any::<u32>(),
        bit in 0u8..8,
        sharing in any::<bool>(),
    ) {
        let ops = effective_ops(&evts);
        let (mut df, inputs, _) = build(&gen, SchedulerMode::Batched, true, sharing);
        drive(&mut df, &inputs, &ops, 0..ops.len(), 1);
        let mut bytes = df.checkpoint();
        let at = byte_sel as usize % bytes.len();
        bytes[at] ^= 1 << bit;
        let (mut fresh, _, _) = build(&gen, SchedulerMode::Batched, true, sharing);
        prop_assert!(
            matches!(fresh.restore(&bytes), Err(DataflowError::StateCorruption(_))),
            "flip of bit {} at byte {}/{} slipped through", bit, at, bytes.len()
        );
    }
}

/// A small fixed network with every stateful operator kind, warmed with
/// string-bearing tuples — the corruption and cross-process fixtures.
fn sym_net(mode: SchedulerMode) -> (Dataflow, NodeId, SinkId, SinkId) {
    let mut df = Dataflow::with_mode(mode);
    let input = df.add_input("r");
    let distinct = df.add_op(Distinct::new(), &[input]);
    let agg = df.add_op(GroupAgg::new(vec![0], 1, AggKind::Min), &[distinct]);
    let d_sink = df.add_sink(distinct);
    let a_sink = df.add_sink(agg);
    (df, input, d_sink, a_sink)
}

fn warm_sym_net(df: &mut Dataflow, input: NodeId) {
    for (k, v) in [
        ("alpha", "omega"),
        ("alpha", "beta"),
        ("gamma", "delta"),
        ("gamma", "epsilon"),
    ] {
        df.insert(input, tup([Val::str(k), Val::str(v)]));
    }
    df.run().unwrap();
    df.delete(input, tup([Val::str("alpha"), Val::str("beta")]));
    df.run().unwrap();
}

/// Exhaustive single-bit-flip sweep over a whole checkpoint file: every
/// one of the 8·len corrupted images must be rejected as
/// `StateCorruption` without panicking.
#[test]
fn every_bit_flip_in_a_checkpoint_is_detected() {
    let (mut df, input, _, _) = sym_net(SchedulerMode::Batched);
    warm_sym_net(&mut df, input);
    let bytes = df.checkpoint();
    for at in 0..bytes.len() {
        for bit in 0..8 {
            let mut evil = bytes.clone();
            evil[at] ^= 1 << bit;
            let (mut fresh, _, _, _) = sym_net(SchedulerMode::Batched);
            assert!(
                matches!(fresh.restore(&evil), Err(DataflowError::StateCorruption(_))),
                "flip of bit {bit} at byte {at} slipped through"
            );
        }
    }
}

/// Exhaustive truncation sweep: every torn prefix of a checkpoint —
/// the on-disk image a crash mid-write would leave without the atomic
/// rename protocol — is rejected, never partially restored into a
/// network that then reports success.
#[test]
fn every_truncation_of_a_checkpoint_is_detected() {
    let (mut df, input, _, _) = sym_net(SchedulerMode::Batched);
    warm_sym_net(&mut df, input);
    let bytes = df.checkpoint();
    for cut in 0..bytes.len() {
        let (mut fresh, _, _, _) = sym_net(SchedulerMode::Batched);
        assert!(
            matches!(
                fresh.restore(&bytes[..cut]),
                Err(DataflowError::StateCorruption(_))
            ),
            "truncation at {cut}/{} restored successfully",
            bytes.len()
        );
    }
}

/// A checkpoint of one topology must refuse to restore into another.
#[test]
fn topology_mismatch_is_corruption_not_misrestore() {
    let (mut df, input, _, _) = sym_net(SchedulerMode::Batched);
    warm_sym_net(&mut df, input);
    let bytes = df.checkpoint();
    let mut other = Dataflow::new();
    let oi = other.add_input("r");
    other.add_sink(oi);
    assert!(matches!(
        other.restore(&bytes),
        Err(DataflowError::StateCorruption(_))
    ));
}

/// Cross-process symbol remap: a child process — whose interner is
/// seeded with decoy strings so every shared string lands on a
/// *different* id — writes a checkpoint of the warmed fixture; the
/// parent restores it and must observe the same sinks as its own
/// uninterrupted oracle. Without the remap-on-restore pass the child's
/// symbol ids would resolve to the parent's decoys (or nothing at all).
#[test]
fn checkpoint_symbols_survive_a_process_boundary() {
    if let Ok(path) = std::env::var("REOPT_CRASH_CHILD_OUT") {
        // Child role: shift the interner's id space, warm, checkpoint.
        for i in 0..23 {
            reopt_datalog::Sym::intern(&format!("child-decoy-{i}"));
        }
        let (mut df, input, _, _) = sym_net(SchedulerMode::Batched);
        warm_sym_net(&mut df, input);
        write_atomic(std::path::Path::new(&path), &df.checkpoint()).unwrap();
        return;
    }

    let dir = std::env::temp_dir().join(format!("reopt-crash-xproc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("child.ckpt");
    let status = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["checkpoint_symbols_survive_a_process_boundary", "--exact"])
        .env("REOPT_CRASH_CHILD_OUT", &path)
        .status()
        .expect("re-exec the test binary as the child process");
    assert!(status.success(), "child process failed");
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    // Parent oracle: same fixture, uninterrupted, in *this* process.
    let (mut oracle, o_in, o_d, o_a) = sym_net(SchedulerMode::Batched);
    warm_sym_net(&mut oracle, o_in);

    let (mut restored, _, r_d, r_a) = sym_net(SchedulerMode::Batched);
    restored.restore(&bytes).unwrap();
    assert_eq!(sink_counted(&oracle, o_d), sink_counted(&restored, r_d));
    assert_eq!(sink_counted(&oracle, o_a), sink_counted(&restored, r_a));
    // Resolve one value all the way to its string to make the remap
    // visible: the MIN aggregate for key "alpha" is "omega" after the
    // deletion of "beta" (next-best recovery), whatever the ids were.
    let alpha = Val::str("alpha");
    let min_for_alpha = restored
        .sink(r_a)
        .iter()
        .find(|(t, _)| t.get(0) == alpha)
        .map(|(t, _)| t.get(1).as_sym().resolve())
        .expect("alpha group present");
    assert_eq!(&*min_for_alpha, "omega");
}

/// Restoring with checkpointed queue residue: deltas pushed but not yet
/// run at crash time survive the restart and reach the same fixpoint.
#[test]
fn queue_residue_survives_restore() {
    for (mode, fusion) in MATRIX {
        let (mut victim, input, _, _) = sym_net(mode);
        victim.set_fusion(fusion);
        warm_sym_net(&mut victim, input);
        // Pushed but never run: lives only in the queue.
        victim.insert(input, tup([Val::str("alpha"), Val::str("aardvark")]));
        let bytes = victim.checkpoint();
        drop(victim);

        let (mut survivor, _, s_d, s_a) = sym_net(mode);
        survivor.set_fusion(fusion);
        survivor.restore(&bytes).unwrap();
        survivor.run().unwrap();

        let (mut oracle, o_in, o_d, o_a) = sym_net(mode);
        oracle.set_fusion(fusion);
        warm_sym_net(&mut oracle, o_in);
        oracle.insert(o_in, tup([Val::str("alpha"), Val::str("aardvark")]));
        oracle.run().unwrap();

        assert_eq!(sink_counted(&oracle, o_d), sink_counted(&survivor, s_d));
        assert_eq!(sink_counted(&oracle, o_a), sink_counted(&survivor, s_a));
    }
}

/// Residue with held strata: the flat `(node, port, delta)` triples a
/// checkpoint persists carry no stratum, so a restore must re-bucket
/// them through the destination's release order. Local-cost moves at
/// three depths are pushed (never run) onto a `Local` input released by
/// depth; the survivor reaches the oracle's fixpoint, and checkpointing
/// it again reproduces the file byte for byte — the re-bucketed queue
/// is the queue that was checkpointed.
#[test]
fn held_strata_in_the_residue_survive_restore() {
    let gen = CostLoopGen {
        alts: vec![
            (0, None, None),
            (1, Some(0), None),
            (1, None, None),
            (2, Some(1), Some(0)),
            (2, Some(0), None),
        ],
    };
    let build = |mode, fusion| {
        let mut net = CostLoop::build(&gen, mode, fusion, true, Release::Depth);
        let strata = gen.strata(Release::Depth).unwrap();
        net.df.set_release_order(net.local_in, 0, strata);
        net
    };
    let warm = |net: &mut CostLoop| {
        for alt in 0..gen.alts.len() {
            net.set_local(alt, None, Some(10 + alt as i64));
        }
        net.df.run().unwrap();
    };
    // One move per depth: three strata pending at the checkpoint.
    let pending = |net: &mut CostLoop| {
        net.set_local(3, Some(13), Some(2));
        net.set_local(0, Some(10), Some(4));
        net.set_local(2, Some(12), None);
    };
    for (mode, fusion) in MATRIX {
        let mut victim = build(mode, fusion);
        warm(&mut victim);
        pending(&mut victim);
        let bytes = victim.df.checkpoint();
        drop(victim);

        let mut survivor = build(mode, fusion);
        survivor.df.restore(&bytes).unwrap();
        assert_eq!(survivor.df.checkpoint(), bytes, "{mode:?}/fusion={fusion}");
        survivor.df.run().unwrap();

        let mut oracle = build(mode, fusion);
        warm(&mut oracle);
        pending(&mut oracle);
        oracle.df.run().unwrap();
        for (o, s) in oracle.sinks.iter().zip(&survivor.sinks) {
            assert!(!survivor.df.sink(*s).has_negative_counts());
            assert_eq!(sink_counted(&oracle.df, *o), sink_counted(&survivor.df, *s));
        }
        assert_eq!(
            sink_counted(&survivor.df, survivor.sinks[1]),
            gen.best_costs(&[Some(4), Some(11), None, Some(2), Some(14)])
        );
    }
}

/// A join's post-stage (the stateless tail `Dataflow::fuse` moves into
/// it) is not state: the join checkpoints and rolls back exactly what
/// it would without one, and a checkpoint cut by a fused network
/// restores into a freshly built one that fuses on its first run.
#[test]
fn a_join_post_stage_adds_nothing_to_checkpoints_or_rollback() {
    use reopt_datalog::checkpoint::Enc;
    use reopt_datalog::{Delta, HashJoin, Map, Operator};
    let state = |join: &HashJoin| {
        let mut e = Enc::new();
        join.checkpoint_state(&mut e);
        e.into_bytes()
    };
    let mut plain = HashJoin::new(vec![0], vec![0]);
    let mut tailed = HashJoin::new(vec![0], vec![0]);
    tailed.absorb_tail(Map::project(vec![1, 3]).take_fuse_stages().unwrap());
    let feed = |join: &mut HashJoin, port: usize, row: [i64; 2]| {
        let mut out = Vec::new();
        join.on_batch(port, &[Delta::insert(ints(&row))], &mut out).unwrap();
        out
    };
    for join in [&mut plain, &mut tailed] {
        feed(join, 0, [1, 10]);
        feed(join, 1, [1, 20]);
    }
    assert_eq!(feed(&mut plain, 0, [1, 11]), [Delta::insert(ints(&[1, 11, 1, 20]))]);
    assert_eq!(feed(&mut tailed, 0, [1, 11]), [Delta::insert(ints(&[11, 20]))]);
    assert_eq!(state(&plain), state(&tailed));
    let committed = state(&tailed);
    tailed.begin_epoch();
    feed(&mut tailed, 1, [1, 21]);
    assert_ne!(state(&tailed), committed);
    tailed.rollback_epoch();
    assert_eq!(state(&tailed), committed);

    // Whole-network: fused writer, unfused reader.
    let build = || {
        let mut df = Dataflow::new();
        let (l, r) = (df.add_input("l"), df.add_input("r"));
        let join = df.add_op(HashJoin::new(vec![0], vec![0]), &[l, r]);
        let tail = df.add_op(Map::project(vec![1, 3]), &[join]);
        let sink = df.add_sink(tail);
        (df, l, r, sink)
    };
    let (mut writer, l, r, sink) = build();
    writer.insert(l, ints(&[1, 10]));
    writer.insert(r, ints(&[1, 20]));
    writer.run().unwrap();
    assert_eq!(writer.fused_node_count(), 1);
    let (mut reader, rl, _, rsink) = build();
    reader.restore(&writer.checkpoint()).unwrap();
    for (df, l) in [(&mut writer, l), (&mut reader, rl)] {
        df.insert(l, ints(&[1, 11]));
        df.run().unwrap();
    }
    assert_eq!(sink_counted(&writer, sink), sink_counted(&reader, rsink));
    assert_eq!(reader.sink(rsink).len(), 2);
}
