//! Crash-recovery tests for the durable [`DataflowOptimizer`]: a victim
//! optimizer is checkpointed (and WAL-logged) at a random point of a
//! random delta sequence, "crashed" (dropped), and recovered in a fresh
//! instance — which must land byte-identical to an oracle that never
//! crashed. Corruption variants seed damage into the on-disk files and
//! require detection plus graceful degradation, never a panic and never
//! a silently wrong plan.

mod common;

use proptest::prelude::*;

use reopt_bridge::{AuditMode, DataflowOptimizer, RecoveryPath};
use reopt_cost::ParamDelta;
use reopt_datalog::{DataflowError, Delta, Multiset, Val};

use common::{
    assert_sinks_match, build, chain5, chain5_batches, crashed_victim, deltas_for, fresh_dir,
    query_gen, record_by_record_restart,
};

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The bridge lockstep variant of the substrate crash suite: a
    /// victim checkpoints after a random prefix of a random delta
    /// sequence, keeps going (those batches reach only the WAL), and
    /// crashes. Recovery must restore + replay to the exact state of an
    /// uninterrupted oracle — best cost, extracted plan, and every
    /// materialized sink with counts — and then resume incrementally in
    /// lockstep.
    #[test]
    fn recovered_optimizer_matches_the_uninterrupted_oracle(
        gen in query_gen(5),
        seq in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..8),
        ckpt_sel in any::<u8>(),
        resume in (any::<u8>(), any::<u8>(), any::<u8>()),
    ) {
        let (c, q) = build(&gen);
        let dir = fresh_dir("lockstep");
        let ckpt_at = ckpt_sel as usize % (seq.len() + 1);

        let mut oracle = DataflowOptimizer::new(&c, q.clone());
        oracle.set_audit_mode(AuditMode::Off);
        oracle.optimize();

        let mut victim = DataflowOptimizer::new(&c, q.clone());
        victim.set_audit_mode(AuditMode::Off);
        victim.set_durable_dir(&dir).unwrap();
        victim.optimize();
        for (i, &raw) in seq.iter().enumerate() {
            if i == ckpt_at {
                victim.checkpoint_durable().unwrap();
            }
            let deltas = deltas_for(&q, raw);
            oracle.reoptimize(&deltas);
            victim.reoptimize(&deltas);
        }
        if ckpt_at == seq.len() {
            victim.checkpoint_durable().unwrap();
        }
        drop(victim); // the crash

        let (mut rec, out) = DataflowOptimizer::recover(&c, q.clone(), &dir).unwrap();
        rec.set_audit_mode(AuditMode::Off);
        prop_assert_eq!(out.recovery.path, RecoveryPath::RestoredFromCheckpoint);
        prop_assert!(out.recovery.errors.is_empty(),
            "unexpected recovery errors: {:?}", out.recovery.errors);
        prop_assert!(out.cost.approx_eq(oracle.best_cost()),
            "recovered cost {:?} vs oracle {:?}", out.cost, oracle.best_cost());
        prop_assert_eq!(&out.plan, &oracle.best_plan(), "recovered BestPlan diverged");
        assert_sinks_match(&rec, &oracle, "after recovery");

        // Recovery is not a dead end: the next epoch stays in lockstep.
        let deltas = deltas_for(&q, resume);
        let got = rec.reoptimize(&deltas);
        let want = oracle.reoptimize(&deltas);
        prop_assert!(got.cost.approx_eq(want.cost),
            "post-recovery epoch: {:?} vs oracle {:?}", got.cost, want.cost);
        assert_sinks_match(&rec, &oracle, "after post-recovery epoch");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// A seeded bit flip anywhere in the checkpoint file must be
    /// detected (per-record CRC, bounds checks) and degrade to a
    /// from-scratch rebuild plus full WAL replay that still matches the
    /// oracle exactly — corruption costs time, never correctness.
    #[test]
    fn flipped_checkpoint_bits_degrade_to_an_exact_rebuild(
        gen in query_gen(4),
        seq in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..5),
        byte_sel in any::<u32>(),
        bit in 0u8..8,
    ) {
        let (c, q) = build(&gen);
        let dir = fresh_dir("flip");

        let mut oracle = DataflowOptimizer::new(&c, q.clone());
        oracle.set_audit_mode(AuditMode::Off);
        oracle.optimize();
        let mut victim = DataflowOptimizer::new(&c, q.clone());
        victim.set_audit_mode(AuditMode::Off);
        victim.set_durable_dir(&dir).unwrap();
        victim.optimize();
        for &raw in &seq {
            let deltas = deltas_for(&q, raw);
            oracle.reoptimize(&deltas);
            victim.reoptimize(&deltas);
        }
        victim.checkpoint_durable().unwrap();
        drop(victim);

        let path = dir.join("checkpoint.bin");
        let mut bytes = std::fs::read(&path).unwrap();
        let at = byte_sel as usize % bytes.len();
        bytes[at] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();

        let (rec, out) = DataflowOptimizer::recover(&c, q.clone(), &dir).unwrap();
        prop_assert_eq!(
            out.recovery.path, RecoveryPath::RebuiltAfterCorruptCheckpoint,
            "flip of bit {} at byte {}/{} went undetected", bit, at, bytes.len()
        );
        prop_assert!(!out.recovery.errors.is_empty(), "degradation must be reported");
        prop_assert!(out.cost.approx_eq(oracle.best_cost()),
            "rebuilt cost {:?} vs oracle {:?}", out.cost, oracle.best_cost());
        assert_sinks_match(&rec, &oracle, "after degraded rebuild");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Damage to the WAL must also never panic and never yield an
    /// inconsistent optimizer: whatever ladder rung recovery lands on,
    /// the full audit (from-scratch recompute + shadow engine replaying
    /// the recovered delta log) must pass. Acknowledged batches past
    /// the damage may be lost — that loss is *reported*, not silent.
    #[test]
    fn flipped_wal_bits_recover_to_a_consistent_state(
        gen in query_gen(4),
        seq in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..5),
        byte_sel in any::<u32>(),
        bit in 0u8..8,
        with_checkpoint in any::<bool>(),
    ) {
        let (c, q) = build(&gen);
        let dir = fresh_dir("walflip");
        let mut victim = DataflowOptimizer::new(&c, q.clone());
        victim.set_audit_mode(AuditMode::Off);
        victim.set_durable_dir(&dir).unwrap();
        victim.optimize();
        if with_checkpoint {
            victim.checkpoint_durable().unwrap();
        }
        for &raw in &seq {
            victim.reoptimize(&deltas_for(&q, raw));
        }
        drop(victim);

        let path = dir.join("wal.bin");
        let mut bytes = std::fs::read(&path).unwrap();
        let at = byte_sel as usize % bytes.len();
        bytes[at] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();

        let (mut rec, out) = DataflowOptimizer::recover(&c, q.clone(), &dir).unwrap();
        prop_assert_ne!(out.recovery.path, RecoveryPath::Committed,
            "damaged history cannot look like a clean first boot");
        prop_assert!(rec.audit().is_ok(),
            "recovered state failed the full audit after WAL damage at byte {at}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn flip_checkpoint_bit(dir: &std::path::Path, byte_sel: u32, bit: u8) {
    let path = dir.join("checkpoint.bin");
    let mut bytes = std::fs::read(&path).unwrap();
    let at = byte_sel as usize % bytes.len();
    bytes[at] ^= 1 << bit;
    std::fs::write(&path, &bytes).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// `recover` folds the WAL tail into one net batch and runs one
    /// epoch; the record-by-record replay it replaced (kept in
    /// `common`) is the reference. Random checkpoint position, a tail
    /// of 0–40 records that keep hitting the same few parameters, an
    /// optional torn last record, and an optionally corrupted
    /// checkpoint (the degraded rung folds the whole WAL): both must
    /// agree on every sink with counts, the best cost and plan, the
    /// applied log and `epochs_seen`.
    #[test]
    fn folded_replay_equals_record_by_record_replay(
        gen in query_gen(5),
        before in proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..3), 0..5),
        tail in proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), 0u8..3, any::<u8>()), 1..4), 0..41),
        torn in any::<bool>(),
        corrupt in any::<bool>(),
        byte_sel in any::<u32>(),
        bit in 0u8..8,
    ) {
        let (c, q) = build(&gen);
        let records = |raw: &[Vec<(u8, u8, u8)>]| -> Vec<Vec<ParamDelta>> {
            raw.iter()
                .map(|r| r.iter().flat_map(|&d| deltas_for(&q, d)).collect())
                .collect()
        };
        let (before, tail) = (records(&before), records(&tail));
        let (dir, _) = crashed_victim(&c, &q, "fold", &before, &tail);
        let mut intact = tail.as_slice();
        if torn && !tail.is_empty() {
            // Tear the final record: it was never acknowledged durable.
            let path = dir.join("wal.bin");
            let bytes = std::fs::read(&path).unwrap();
            std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
            intact = &tail[..tail.len() - 1];
        }
        if corrupt {
            flip_checkpoint_bit(&dir, byte_sel, bit);
        }

        let (rec, out) = DataflowOptimizer::recover(&c, q.clone(), &dir).unwrap();
        let want = record_by_record_restart(&c, &q, &before, intact, !corrupt);
        let path = if corrupt {
            RecoveryPath::RebuiltAfterCorruptCheckpoint
        } else {
            RecoveryPath::RestoredFromCheckpoint
        };
        prop_assert_eq!(out.recovery.path, path);
        prop_assert_eq!(out.cost, want.best_cost(), "best cost diverged");
        prop_assert_eq!(&out.plan, &want.best_plan(), "best plan diverged");
        assert_sinks_match(&rec, &want, "folded vs record-by-record");
        prop_assert_eq!(rec.applied_log(), want.applied_log(), "applied log diverged");
        prop_assert_eq!(rec.epochs_seen(), want.epochs_seen(), "epochs_seen diverged");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The work a restart does is bounded whatever the tail's length:
/// restoring runs the residue flush and, if there is a tail, one
/// `reoptimize`; the degraded rungs run one `optimize` and one
/// `reoptimize`. `stats.epoch` counts the substrate's committed epochs
/// (a checkpoint carries it), so it counts those runs exactly. Record-
/// by-record replay ran one epoch per record: 40 here.
#[test]
fn a_restart_runs_at_most_two_epochs_whatever_the_tail_length() {
    let (c, q) = chain5();
    let before = chain5_batches(&q);
    // 40 records walking two parameters through values they do not
    // hold at the checkpoint, so the net batch is a real change.
    let tail: Vec<Vec<ParamDelta>> = (0u8..40)
        .map(|i| deltas_for(&q, (1, i % 2, i % 3 + 4)))
        .collect();

    let (dir, at_checkpoint) = crashed_victim(&c, &q, "bound-tail", &before, &tail);
    let (_, out) = DataflowOptimizer::recover(&c, q.clone(), &dir).unwrap();
    assert_eq!(out.recovery.path, RecoveryPath::RestoredFromCheckpoint);
    assert_eq!(
        out.stats.epoch,
        at_checkpoint + 2,
        "flush + one folded epoch"
    );

    // Degraded rung: the whole WAL (4 + 40 records) folds into one epoch
    // after the from-scratch optimize.
    flip_checkpoint_bit(&dir, 40, 3);
    let (_, out) = DataflowOptimizer::recover(&c, q.clone(), &dir).unwrap();
    assert_eq!(
        out.recovery.path,
        RecoveryPath::RebuiltAfterCorruptCheckpoint
    );
    assert_eq!(out.stats.epoch, 2, "one optimize + one folded epoch");
    std::fs::remove_file(dir.join("checkpoint.bin")).unwrap();
    let (_, out) = DataflowOptimizer::recover(&c, q.clone(), &dir).unwrap();
    assert_eq!(out.recovery.path, RecoveryPath::RebuiltFromScratch);
    assert_eq!(out.stats.epoch, 2, "one optimize + one folded epoch");
    let _ = std::fs::remove_dir_all(&dir);

    // Nothing past the checkpoint: the flush is the only epoch.
    let (dir, at_checkpoint) = crashed_victim(&c, &q, "bound-empty", &before, &[]);
    let (_, out) = DataflowOptimizer::recover(&c, q.clone(), &dir).unwrap();
    assert_eq!(out.recovery.path, RecoveryPath::RestoredFromCheckpoint);
    assert_eq!(out.stats.epoch, at_checkpoint + 1, "the residue flush only");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptance scenario, pinned deterministically: warm a chain-5
/// optimizer through several epochs, checkpoint mid-sequence, keep
/// going, crash, recover — byte-identical `BestPlan` and sink multisets
/// versus the uninterrupted run, then lockstep resume.
#[test]
fn chain5_restart_resumes_from_checkpoint_and_wal_tail() {
    let (c, q) = chain5();
    let dir = fresh_dir("chain5");
    let batches = chain5_batches(&q);

    let mut oracle = DataflowOptimizer::new(&c, q.clone());
    oracle.set_audit_mode(AuditMode::Off);
    oracle.optimize();
    let mut victim = DataflowOptimizer::new(&c, q.clone());
    victim.set_audit_mode(AuditMode::Off);
    victim.set_durable_dir(&dir).unwrap();
    victim.optimize();
    for (i, batch) in batches.iter().enumerate() {
        oracle.reoptimize(batch);
        victim.reoptimize(batch);
        if i == 1 {
            victim.checkpoint_durable().unwrap();
        }
    }
    drop(victim);

    let (mut rec, out) = DataflowOptimizer::recover(&c, q.clone(), &dir).unwrap();
    rec.set_audit_mode(AuditMode::Off);
    assert_eq!(out.recovery.path, RecoveryPath::RestoredFromCheckpoint);
    assert!(out.recovery.errors.is_empty(), "{:?}", out.recovery.errors);
    assert!(out.cost.approx_eq(oracle.best_cost()));
    assert_eq!(out.plan, oracle.best_plan());
    assert_sinks_match(&rec, &oracle, "after chain5 recovery");

    let extra = deltas_for(&q, (1, 0, 6));
    let got = rec.reoptimize(&extra);
    let want = oracle.reoptimize(&extra);
    assert!(got.cost.approx_eq(want.cost));
    assert_sinks_match(&rec, &oracle, "after chain5 resume");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An empty durable directory is a plain first boot, not a recovery.
#[test]
fn recover_on_an_empty_dir_is_a_plain_first_boot() {
    let (c, q) = chain5();
    let dir = fresh_dir("boot");
    let (_rec, out) = DataflowOptimizer::recover(&c, q.clone(), &dir).unwrap();
    assert_eq!(out.recovery.path, RecoveryPath::Committed);
    assert!(out.recovery.errors.is_empty());
    let mut fresh = DataflowOptimizer::new(&c, q);
    let want = fresh.optimize();
    assert!(out.cost.approx_eq(want.cost));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crashing before the first checkpoint still loses nothing: the WAL
/// alone replays every acknowledged batch onto a from-scratch build.
#[test]
fn crash_before_any_checkpoint_replays_the_whole_wal() {
    let (c, q) = chain5();
    let dir = fresh_dir("nockpt");
    let batches = chain5_batches(&q);

    let mut oracle = DataflowOptimizer::new(&c, q.clone());
    oracle.set_audit_mode(AuditMode::Off);
    oracle.optimize();
    let mut victim = DataflowOptimizer::new(&c, q.clone());
    victim.set_audit_mode(AuditMode::Off);
    victim.set_durable_dir(&dir).unwrap();
    victim.optimize();
    for batch in &batches {
        oracle.reoptimize(batch);
        victim.reoptimize(batch);
    }
    drop(victim);

    let (rec, out) = DataflowOptimizer::recover(&c, q.clone(), &dir).unwrap();
    assert_eq!(out.recovery.path, RecoveryPath::RebuiltFromScratch);
    assert!(out.cost.approx_eq(oracle.best_cost()));
    assert_eq!(out.plan, oracle.best_plan());
    assert_sinks_match(&rec, &oracle, "after WAL-only recovery");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn WAL tail — the image of a crash mid-append — is truncated
/// away on recovery; the batches before it replay normally and new
/// appends continue cleanly from the cut.
#[test]
fn torn_wal_tail_is_discarded_and_the_log_heals() {
    let (c, q) = chain5();
    let dir = fresh_dir("torn");
    let batches = chain5_batches(&q);

    let mut oracle = DataflowOptimizer::new(&c, q.clone());
    oracle.set_audit_mode(AuditMode::Off);
    oracle.optimize();
    let mut victim = DataflowOptimizer::new(&c, q.clone());
    victim.set_audit_mode(AuditMode::Off);
    victim.set_durable_dir(&dir).unwrap();
    victim.optimize();
    for (i, batch) in batches.iter().enumerate() {
        victim.reoptimize(batch);
        if i + 1 < batches.len() {
            // The last batch is the one that will be torn away.
            oracle.reoptimize(batch);
        }
    }
    drop(victim);

    // Tear the final record: chop a few bytes off the WAL.
    let path = dir.join("wal.bin");
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

    let (mut rec, out) = DataflowOptimizer::recover(&c, q.clone(), &dir).unwrap();
    rec.set_audit_mode(AuditMode::Off);
    assert_eq!(out.recovery.path, RecoveryPath::RebuiltFromScratch);
    assert!(out.cost.approx_eq(oracle.best_cost()));
    assert_sinks_match(&rec, &oracle, "after torn-tail recovery");

    // The healed log accepts new appends and a later recovery sees them.
    let extra = deltas_for(&q, (2, 4, 0));
    rec.reoptimize(&extra);
    oracle.reoptimize(&extra);
    drop(rec);
    let (rec2, out2) = DataflowOptimizer::recover(&c, q.clone(), &dir).unwrap();
    assert_eq!(out2.recovery.path, RecoveryPath::RebuiltFromScratch);
    assert_sinks_match(&rec2, &oracle, "after healed-log recovery");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash between "write `checkpoint.tmp`" and "rename over
/// `checkpoint.bin`": the stranded staging file must be swept on every
/// startup path, never read as state. Three crash points are staged —
/// a torn tmp next to a good checkpoint, a torn tmp with no checkpoint
/// at all (crash during the very first snapshot), and re-arming a live
/// directory — and in each the recovered optimizer matches the oracle
/// while the orphan is gone from disk.
#[test]
fn stale_checkpoint_tmp_files_are_swept_on_startup() {
    let (c, q) = chain5();
    let batches = chain5_batches(&q);
    let tmp_name = "checkpoint.tmp"; // what write_atomic stages

    let mut oracle = DataflowOptimizer::new(&c, q.clone());
    oracle.set_audit_mode(AuditMode::Off);
    oracle.optimize();
    for batch in &batches {
        oracle.reoptimize(batch);
    }

    // Crash point A: a later checkpoint died after staging its tmp but
    // before the rename — the old checkpoint.bin is still the truth.
    let dir = fresh_dir("tmp-sweep-a");
    let mut victim = DataflowOptimizer::new(&c, q.clone());
    victim.set_audit_mode(AuditMode::Off);
    victim.set_durable_dir(&dir).unwrap();
    victim.optimize();
    for (i, batch) in batches.iter().enumerate() {
        victim.reoptimize(batch);
        if i == 1 {
            victim.checkpoint_durable().unwrap();
        }
    }
    drop(victim);
    std::fs::write(dir.join(tmp_name), b"torn half-written snapshot").unwrap();
    let (rec, out) = DataflowOptimizer::recover(&c, q.clone(), &dir).unwrap();
    assert_eq!(out.recovery.path, RecoveryPath::RestoredFromCheckpoint);
    assert!(out.cost.approx_eq(oracle.best_cost()));
    assert_sinks_match(&rec, &oracle, "recovery next to a torn tmp");
    assert!(!dir.join(tmp_name).exists(), "orphaned tmp survived recover()");
    let _ = std::fs::remove_dir_all(&dir);

    // Crash point B: the very first checkpoint never completed — only
    // the WAL and the stranded tmp exist. Recovery replays the WAL and
    // must not mistake the tmp for a checkpoint.
    let dir = fresh_dir("tmp-sweep-b");
    let mut victim = DataflowOptimizer::new(&c, q.clone());
    victim.set_audit_mode(AuditMode::Off);
    victim.set_durable_dir(&dir).unwrap();
    victim.optimize();
    for batch in &batches {
        victim.reoptimize(batch);
    }
    drop(victim);
    // Stage a *valid* snapshot under the tmp name (cut by a twin in a
    // scratch dir) — sweeping must win even when the orphan would
    // parse, because the rename is what commits a checkpoint.
    let scratch = fresh_dir("tmp-sweep-b-scratch");
    let mut twin = DataflowOptimizer::new(&c, q.clone());
    twin.set_audit_mode(AuditMode::Off);
    twin.set_durable_dir(&scratch).unwrap();
    twin.optimize();
    for batch in &batches {
        twin.reoptimize(batch);
    }
    twin.checkpoint_durable().unwrap();
    drop(twin);
    std::fs::copy(scratch.join("checkpoint.bin"), dir.join(tmp_name)).unwrap();
    let _ = std::fs::remove_dir_all(&scratch);
    let (rec, out) = DataflowOptimizer::recover(&c, q.clone(), &dir).unwrap();
    assert_eq!(out.recovery.path, RecoveryPath::RebuiltFromScratch);
    assert!(out.cost.approx_eq(oracle.best_cost()));
    assert_sinks_match(&rec, &oracle, "WAL-only recovery next to a full tmp");
    assert!(!dir.join(tmp_name).exists(), "orphaned tmp survived recover()");
    let _ = std::fs::remove_dir_all(&dir);

    // Crash point C: arming durability on a directory holding an
    // orphan (the process died before ever reading it back) sweeps it
    // too — the sweep is a startup invariant, not a recover() detail.
    let dir = fresh_dir("tmp-sweep-c");
    std::fs::write(dir.join(tmp_name), b"stray").unwrap();
    let mut fresh = DataflowOptimizer::new(&c, q.clone());
    fresh.set_durable_dir(&dir).unwrap();
    assert!(!dir.join(tmp_name).exists(), "orphaned tmp survived set_durable_dir()");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cross-process restart: a child process (fresh interner) warms and
/// checkpoints a durable optimizer, then exits; the parent — whose
/// interner is deliberately shifted by decoy strings — recovers from
/// the same directory. The embedded symbol table must remap every
/// interned operator name, or the restored sinks would be garbage.
#[test]
fn durable_state_survives_a_process_boundary() {
    const ENV: &str = "REOPT_BRIDGE_CRASH_DIR";
    let (c, q) = chain5();
    let batches = chain5_batches(&q);

    if let Ok(dir) = std::env::var(ENV) {
        // Child: warm, checkpoint mid-sequence, log the rest, "crash".
        let mut victim = DataflowOptimizer::new(&c, q.clone());
        victim.set_audit_mode(AuditMode::Off);
        victim.set_durable_dir(&dir).unwrap();
        victim.optimize();
        for (i, batch) in batches.iter().enumerate() {
            victim.reoptimize(batch);
            if i == 2 {
                victim.checkpoint_durable().unwrap();
            }
        }
        std::process::exit(0);
    }

    // Parent: shift the interner so the child's symbol ids are wrong
    // here unless the checkpoint's table remaps them.
    for i in 0..37 {
        reopt_datalog::Sym::intern(&format!("parent-decoy-{i}"));
    }

    let dir = fresh_dir("xproc");
    let exe = std::env::current_exe().unwrap();
    let status = std::process::Command::new(exe)
        .args(["--exact", "durable_state_survives_a_process_boundary"])
        .env(ENV, &dir)
        .status()
        .unwrap();
    assert!(status.success(), "child process failed");

    let mut oracle = DataflowOptimizer::new(&c, q.clone());
    oracle.set_audit_mode(AuditMode::Off);
    oracle.optimize();
    for batch in &batches {
        oracle.reoptimize(batch);
    }

    let (mut rec, out) = DataflowOptimizer::recover(&c, q, &dir).unwrap();
    rec.set_audit_mode(AuditMode::Off);
    assert_eq!(out.recovery.path, RecoveryPath::RestoredFromCheckpoint);
    assert!(out.recovery.errors.is_empty(), "{:?}", out.recovery.errors);
    assert!(out.cost.approx_eq(oracle.best_cost()));
    assert_eq!(out.plan, oracle.best_plan());
    assert_sinks_match(&rec, &oracle, "across the process boundary");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Re-frames an optimizer snapshot with the node records of its
/// embedded network checkpoint — `(label, state payload)` in node
/// order — rewritten by `edit`, one more sink record per `extra_sinks`
/// entry, and the node and sink counts in its meta record to match.
/// Valid framing, valid CRCs: only the topology is another build's.
fn with_node_records(
    snapshot: &[u8],
    extra_sinks: &[&Multiset],
    edit: impl FnOnce(Vec<(String, Vec<u8>)>) -> Vec<(String, Vec<u8>)>,
) -> Vec<u8> {
    use reopt_datalog::checkpoint::{
        encode_multiset, Dec, Enc, RecordReader, RecordWriter, SymRemap, MAGIC,
    };
    fn copy(record: &[u8]) -> Enc {
        let mut e = Enc::new();
        e.raw(record);
        e
    }
    let remap = SymRemap::identity();
    let mut outer = RecordReader::new(snapshot, MAGIC).unwrap();
    let mut records = std::iter::from_fn(|| outer.next_record().unwrap());
    let mut out = RecordWriter::new(MAGIC);
    for _ in 0..3 {
        // Snapshot meta, delta log, `LocalCost` mirror.
        out.record(copy(records.next().unwrap()));
    }
    // The embedded network checkpoint: symbols, meta, one record per
    // node, then sinks and queue residue.
    let mut inner = RecordReader::new(records.next().unwrap(), MAGIC).unwrap();
    let mut net = RecordWriter::new(MAGIC);
    net.record(copy(inner.next_record().unwrap().unwrap()));
    let mut d = Dec::new(inner.next_record().unwrap().unwrap(), &remap);
    let [epoch, rollbacks, nodes, sinks] = [(); 4].map(|()| d.u64().unwrap());
    let nodes: Vec<(String, Vec<u8>)> = (0..nodes)
        .map(|_| {
            let mut d = Dec::new(inner.next_record().unwrap().unwrap(), &remap);
            (d.str().unwrap().to_string(), d.rest().to_vec())
        })
        .collect();
    let nodes = edit(nodes);
    let mut meta = Enc::new();
    for v in [epoch, rollbacks, nodes.len() as u64, sinks + extra_sinks.len() as u64] {
        meta.u64(v);
    }
    net.record(meta);
    for (label, state) in &nodes {
        let mut e = Enc::new();
        e.str(label);
        e.raw(state);
        net.record(e);
    }
    for _ in 0..sinks {
        net.record(copy(inner.next_record().unwrap().unwrap()));
    }
    for sink in extra_sinks {
        let mut e = Enc::new();
        encode_multiset(&mut e, sink);
        net.record(e);
    }
    // The queue residue.
    net.record(copy(inner.next_record().unwrap().unwrap()));
    assert!(inner.next_record().unwrap().is_none());
    out.record(copy(&net.into_bytes()));
    out.into_bytes()
}

/// A snapshot the way a build from before the per-relation labels
/// would have cut it: every `union[Rel]` / `distinct[Rel]` node record
/// carries the bare operator name.
fn with_bare_relation_labels(snapshot: &[u8]) -> Vec<u8> {
    with_node_records(snapshot, &[], |mut nodes| {
        let mut relabelled = 0;
        for (label, _) in &mut nodes {
            let bare = ["union", "distinct"]
                .into_iter()
                .find(|op| label.starts_with(&format!("{op}[")));
            if let Some(bare) = bare {
                *label = bare.to_string();
                relabelled += 1;
            }
        }
        assert!(relabelled > 0, "no per-relation labels found to strip");
        nodes
    })
}

/// A snapshot with the node records of the network PR 15 compiled: no
/// `Fn_present` guards, and `BestCost`/`BestPlan` behind their own
/// `Union → Distinct` (each `Distinct` holding what the relation's sink
/// holds), with D9's projecting scan in front of its aggregate.
fn with_the_pr15_network_shape(snapshot: &[u8], sets: [&Multiset; 2]) -> Vec<u8> {
    use reopt_datalog::checkpoint::{encode_multiset, Enc};
    with_node_records(snapshot, &[], |mut nodes| {
        nodes.retain(|(label, _)| !label.starts_with("Fn_present"));
        for (relation, set) in ["BestCost", "BestPlan"].into_iter().zip(sets) {
            let mut state = Enc::new();
            encode_multiset(&mut state, set);
            nodes.push((format!("union[{relation}]"), Vec::new()));
            nodes.push((format!("distinct[{relation}]"), state.into_bytes()));
        }
        nodes.push(("map[D9]".to_string(), Vec::new()));
        nodes
    })
}

/// A snapshot with D10 maintained in the network, the way every build
/// up to PR 17 cut it: the rule's two arrangements (`BestCost` and
/// `PlanCost` by expr, prop, cost — the second holding what
/// `distinct[PlanCost]` holds), its join, the head projection the join
/// absorbed, and the `BestPlan` sink.
fn with_d10_maintained(snapshot: &[u8], best_cost: &Multiset, best_plan: &Multiset) -> Vec<u8> {
    use reopt_datalog::checkpoint::{encode_multiset, Enc};
    with_node_records(snapshot, &[best_plan], |mut nodes| {
        let plan_cost = nodes.iter().find(|(label, _)| label == "distinct[PlanCost]");
        let plan_cost = plan_cost.expect("`PlanCost` keeps its `Distinct`").1.clone();
        let mut arranged = Enc::new();
        encode_multiset(&mut arranged, best_cost);
        nodes.push(("arrange[D10]".to_string(), arranged.into_bytes()));
        nodes.push(("arrange[D10]".to_string(), plan_cost));
        for stateless in ["join[PlanCost][D10]", "map[D10]", "sink"] {
            nodes.push((stateless.to_string(), Vec::new()));
        }
        nodes
    })
}

/// `BestPlan` as a relation: what the sink D10 fed used to hold.
fn best_plan_set(opt: &DataflowOptimizer) -> Multiset {
    let mut set = Multiset::new();
    for row in opt.best_plan_rows() {
        set.apply(&Delta::insert(row));
    }
    set
}

/// Node labels are part of the restore-time topology check, so a
/// checkpoint cut before the per-relation `union[Rel]`/`distinct[Rel]`
/// labels existed is refused as a node mismatch. That costs one
/// from-scratch rebuild plus a full WAL replay on the first restart
/// after the upgrade (`RebuiltAfterCorruptCheckpoint`), never a wrong
/// plan.
#[test]
fn a_checkpoint_with_the_old_node_labels_degrades_to_an_exact_rebuild() {
    let (c, q) = chain5();
    let dir = fresh_dir("relabel");
    let batches = chain5_batches(&q);

    let mut oracle = DataflowOptimizer::new(&c, q.clone());
    oracle.set_audit_mode(AuditMode::Off);
    oracle.optimize();
    let mut victim = DataflowOptimizer::new(&c, q.clone());
    victim.set_audit_mode(AuditMode::Off);
    victim.set_durable_dir(&dir).unwrap();
    victim.optimize();
    for batch in &batches {
        oracle.reoptimize(batch);
        victim.reoptimize(batch);
    }
    victim.checkpoint_durable().unwrap();
    drop(victim);

    let path = dir.join("checkpoint.bin");
    let old = with_bare_relation_labels(&std::fs::read(&path).unwrap());
    std::fs::write(&path, old).unwrap();

    let (rec, out) = DataflowOptimizer::recover(&c, q.clone(), &dir).unwrap();
    assert_eq!(
        out.recovery.path,
        RecoveryPath::RebuiltAfterCorruptCheckpoint
    );
    assert!(
        out.recovery
            .errors
            .iter()
            .any(|e| e.to_string().contains("node mismatch")),
        "{:?}",
        out.recovery.errors
    );
    assert!(out.cost.approx_eq(oracle.best_cost()));
    assert_eq!(out.plan, oracle.best_plan());
    assert_sinks_match(&rec, &oracle, "after the relabel rebuild");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A WAL whose only record is torn replays nothing, but it is still
/// history — an append was attempted — so recovery must not report the
/// clean first boot of an empty directory. (The pinned-seed WAL bit-flip
/// property found this through a damaged length field.)
#[test]
fn a_wal_holding_only_a_torn_record_is_not_a_clean_first_boot() {
    let (c, q) = chain5();
    let dir = fresh_dir("torn-only");
    let mut victim = DataflowOptimizer::new(&c, q.clone());
    victim.set_audit_mode(AuditMode::Off);
    victim.set_durable_dir(&dir).unwrap();
    victim.optimize();
    victim.reoptimize(&chain5_batches(&q)[0]);
    drop(victim);
    let path = dir.join("wal.bin");
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

    let (mut rec, out) = DataflowOptimizer::recover(&c, q.clone(), &dir).unwrap();
    assert_eq!(out.recovery.path, RecoveryPath::RebuiltFromScratch);
    let mut fresh = DataflowOptimizer::new(&c, q);
    assert!(out.cost.approx_eq(fresh.optimize().cost));
    rec.audit().expect("the torn batch was never applied");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pruned builds stopped compiling the bound rules B1–B5 (and their
/// `Bound` input and sink), and node topology is part of the restore
/// check — so a checkpoint cut by a build that still compiled all 13
/// rules is refused as a topology mismatch. That costs one from-scratch
/// rebuild plus the folded WAL on the first restart after the upgrade
/// (`RebuiltAfterCorruptCheckpoint`), never a wrong plan. An unpruned
/// build still compiles exactly that older network, so it cuts the
/// stand-in checkpoint.
#[test]
fn a_checkpoint_with_the_bound_rules_compiled_degrades_to_an_exact_rebuild() {
    let (c, q) = chain5();
    let dir = fresh_dir("bound-rules");
    let batches = chain5_batches(&q);

    let mut oracle = DataflowOptimizer::new(&c, q.clone());
    oracle.set_audit_mode(AuditMode::Off);
    oracle.optimize();
    let mut old = DataflowOptimizer::with_pruning(&c, q.clone(), false);
    old.set_audit_mode(AuditMode::Off);
    old.set_durable_dir(&dir).unwrap();
    old.optimize();
    for batch in &batches {
        oracle.reoptimize(batch);
        old.reoptimize(batch);
    }
    old.checkpoint_durable().unwrap();
    assert!(old.network_nodes() > oracle.network_nodes());
    drop(old);

    let (rec, out) = DataflowOptimizer::recover(&c, q.clone(), &dir).unwrap();
    assert_eq!(
        out.recovery.path,
        RecoveryPath::RebuiltAfterCorruptCheckpoint
    );
    assert!(
        out.recovery
            .errors
            .iter()
            .any(|e| e.to_string().contains("topology mismatch")),
        "{:?}",
        out.recovery.errors
    );
    assert!(out.cost.approx_eq(oracle.best_cost()));
    assert_eq!(out.plan, oracle.best_plan());
    assert_sinks_match(&rec, &oracle, "after the 13-rule checkpoint rebuild");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The property pass read `BestCost` and `BestPlan` straight off their
/// rules' outputs, so the network lost four nodes, two of them stateful
/// (and D9's projecting scan; the `Fn_present` guards came in). A
/// checkpoint cut by the PR 15 network — which also maintained D10 —
/// is therefore refused as a topology mismatch on the first restart
/// after the upgrade and degrades to the exact rebuild plus the folded
/// WAL — it is never mis-restored into the nodes that happen to share
/// a position.
#[test]
fn a_checkpoint_with_the_set_gates_built_degrades_to_an_exact_rebuild() {
    let (c, q) = chain5();
    let batches = chain5_batches(&q);
    let (dir, _) = crashed_victim(&c, &q, "set-gates", &batches[..2], &batches[2..]);
    let mut oracle = DataflowOptimizer::new(&c, q.clone());
    oracle.set_audit_mode(AuditMode::Off);
    oracle.optimize();
    for batch in &batches[..2] {
        oracle.reoptimize(batch);
    }
    let path = dir.join("checkpoint.bin");
    let sets = [oracle.sink("BestCost").unwrap(), &best_plan_set(&oracle)];
    let old = with_d10_maintained(&std::fs::read(&path).unwrap(), sets[0], sets[1]);
    std::fs::write(&path, with_the_pr15_network_shape(&old, sets)).unwrap();
    for batch in &batches[2..] {
        oracle.reoptimize(batch);
    }

    let (rec, out) = DataflowOptimizer::recover(&c, q.clone(), &dir).unwrap();
    assert_eq!(
        out.recovery.path,
        RecoveryPath::RebuiltAfterCorruptCheckpoint
    );
    assert!(
        out.recovery
            .errors
            .iter()
            .any(|e| e.to_string().contains("topology mismatch: checkpoint has 37 nodes")),
        "{:?}",
        out.recovery.errors
    );
    assert!(out.cost.approx_eq(oracle.best_cost()));
    assert_eq!(out.plan, oracle.best_plan());
    assert_sinks_match(&rec, &oracle, "after the PR 15 checkpoint rebuild");
    let _ = std::fs::remove_dir_all(&dir);
}

/// D10 is answered on demand, so the network lost the rule's two
/// arrangements, its join (and the head it ran) and the `BestPlan`
/// sink. A checkpoint cut by a build that maintained them — 34 node
/// records and three sinks — is refused as a topology mismatch on the
/// first restart after the upgrade and degrades to the exact rebuild
/// plus the folded WAL, with the oracle's cost and plan.
#[test]
fn a_checkpoint_with_d10_maintained_degrades_to_an_exact_rebuild() {
    let (c, q) = chain5();
    let batches = chain5_batches(&q);
    let (dir, _) = crashed_victim(&c, &q, "d10", &batches[..2], &batches[2..]);
    let mut oracle = DataflowOptimizer::new(&c, q.clone());
    oracle.set_audit_mode(AuditMode::Off);
    oracle.optimize();
    for batch in &batches[..2] {
        oracle.reoptimize(batch);
    }
    let path = dir.join("checkpoint.bin");
    let old = with_d10_maintained(
        &std::fs::read(&path).unwrap(),
        oracle.sink("BestCost").unwrap(),
        &best_plan_set(&oracle),
    );
    std::fs::write(&path, old).unwrap();
    for batch in &batches[2..] {
        oracle.reoptimize(batch);
    }

    let (rec, out) = DataflowOptimizer::recover(&c, q.clone(), &dir).unwrap();
    assert_eq!(
        out.recovery.path,
        RecoveryPath::RebuiltAfterCorruptCheckpoint
    );
    assert!(
        out.recovery.errors.iter().any(|e| e
            .to_string()
            .contains("topology mismatch: checkpoint has 34 nodes/3 sinks")),
        "{:?}",
        out.recovery.errors
    );
    assert!(out.cost.approx_eq(oracle.best_cost()));
    assert_eq!(out.plan, oracle.best_plan());
    assert_sinks_match(&rec, &oracle, "after the D10 checkpoint rebuild");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Plan extraction reads two relations of the network against each
/// other, and a checkpoint restores each from its own record. One whose
/// `distinct[PlanCost]` record lost the rows at the root's best cost —
/// valid framing, valid CRCs, the best cost itself intact, so the
/// post-restore check passes — leaves a group on the chosen tree with
/// no `PlanCost` row at its `BestCost`. That used to be a panic in
/// `best_plan`; it is a reported error answered from the rebuild rung.
#[test]
fn a_chosen_group_without_its_plan_cost_row_is_an_error_and_a_rebuild() {
    use reopt_datalog::checkpoint::{decode_multiset, encode_multiset, Dec, Enc, SymRemap};
    let (c, q) = chain5();
    let batches = chain5_batches(&q);
    let (dir, _) = crashed_victim(&c, &q, "no-row", &batches, &[]);
    let mut oracle = DataflowOptimizer::new(&c, q.clone());
    oracle.set_audit_mode(AuditMode::Off);
    oracle.optimize();
    for batch in &batches {
        oracle.reoptimize(batch);
    }
    let best = Val::Cost(oracle.best_cost());
    let path = dir.join("checkpoint.bin");
    let torn = with_node_records(&std::fs::read(&path).unwrap(), &[], |mut nodes| {
        let record = nodes.iter_mut().find(|(label, _)| label == "distinct[PlanCost]");
        let (_, state) = record.expect("`PlanCost` keeps its `Distinct`");
        let mut rows = Multiset::new();
        decode_multiset(&mut Dec::new(state, &SymRemap::identity()), &mut rows).unwrap();
        let mut kept = Multiset::new();
        for (row, n) in rows.iter().filter(|(row, _)| row.get(3) != best) {
            kept.apply(&Delta::with_count(row.clone(), n));
        }
        assert!(kept.len() < rows.len(), "no `PlanCost` row at the best cost");
        let mut e = Enc::new();
        encode_multiset(&mut e, &kept);
        *state = e.into_bytes();
        nodes
    });
    std::fs::write(&path, torn).unwrap();

    let (mut rec, out) = DataflowOptimizer::recover(&c, q.clone(), &dir).unwrap();
    rec.set_audit_mode(AuditMode::Off);
    assert_eq!(out.recovery.path, RecoveryPath::RebuiltFromScratch);
    assert!(
        matches!(
            out.recovery.errors.as_slice(),
            [DataflowError::InvariantViolation(m)] if m.contains("no `PlanCost` row")
        ),
        "{:?}",
        out.recovery.errors
    );
    assert!(out.cost.approx_eq(oracle.best_cost()));
    assert_eq!(out.plan, oracle.best_plan());
    assert_sinks_match(&rec, &oracle, "after the rebuild rung");
    // The rebuilt network is the live one: the next epoch is clean.
    let next = deltas_for(&q, (1, 2, 6));
    let got = rec.reoptimize(&next);
    let want = oracle.reoptimize(&next);
    assert!(got.recovery.is_clean(), "{:?}", got.recovery);
    assert_eq!((got.cost, &got.plan), (want.cost, &want.plan));
    rec.audit().expect("the rebuilt state passes the audit");
    let _ = std::fs::remove_dir_all(&dir);
}
