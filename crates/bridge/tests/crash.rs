//! Crash-recovery tests for the durable [`DataflowOptimizer`]: a victim
//! optimizer is checkpointed (and WAL-logged) at a random point of a
//! random delta sequence, "crashed" (dropped), and recovered in a fresh
//! instance — which must land byte-identical to an oracle that never
//! crashed. Corruption variants seed damage into the on-disk files and
//! require detection plus graceful degradation, never a panic and never
//! a silently wrong plan.

mod common;

use proptest::prelude::*;

use reopt_bridge::{durable, AuditMode, DataflowOptimizer, RecoveryPath};
use reopt_cost::ParamDelta;
use reopt_datalog::DataflowError;
use reopt_expr::LeafId;

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

    /// `recover` loads the net effect of the checkpoint's log and the
    /// WAL tail — the last write per parameter — and optimizes once;
    /// replaying the tail one `reoptimize` per record (kept in `common`)
    /// is the reference. Random checkpoint position, a tail of 0–40
    /// records that keep hitting the same few parameters, an optional
    /// torn last record, and an optionally corrupted checkpoint (the
    /// degraded rung loads the whole WAL): both must agree on every
    /// sink with counts, the best cost and plan, the applied log and
    /// `epochs_seen`.
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
        let dir = crashed_victim(&c, &q, "fold", &before, &tail);
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
/// the same directory. Nothing on disk names an interned symbol — the
/// files hold parameters — so the recovered sinks are the oracle's.
#[test]
fn durable_state_survives_a_process_boundary() {
    across_a_process_boundary("durable_state_survives_a_process_boundary", false);
}

/// The same child, killed by `abort()` the moment its last `reoptimize`
/// returns — no checkpoint, no destructor after it: a returned
/// `reoptimize` is an acknowledged batch, so recovery replays it.
#[test]
fn an_acknowledged_batch_survives_an_abort() {
    across_a_process_boundary("an_acknowledged_batch_survives_an_abort", true);
}

/// The two tests above: `test` re-runs itself as the child, which
/// applies `chain5_batches` (checkpointing after the third) and then
/// exits — or aborts, with `abort`.
fn across_a_process_boundary(test: &str, abort: bool) {
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
        if abort {
            std::process::abort();
        }
        std::process::exit(0);
    }

    // Parent: shift the interner so the child's symbol ids would be
    // wrong here, had any reached the disk.
    for i in 0..37 {
        reopt_datalog::Sym::intern(&format!("parent-decoy-{i}"));
    }

    let dir = fresh_dir("xproc");
    let exe = std::env::current_exe().unwrap();
    let status = std::process::Command::new(exe)
        .args(["--exact", test])
        .env(ENV, &dir)
        .status()
        .unwrap();
    if abort {
        // Killed by the signal, not failed before reaching it.
        assert_eq!(status.code(), None, "the child did not abort: {status}");
    } else {
        assert!(status.success(), "child process failed");
    }

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
    rec.audit().expect("the torn batch, never acknowledged, is not replayed");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failed fsync must not leave its record in the log. The batch is
/// reported as in-memory only, its record is cut back off, and the next
/// append reuses its sequence number — so after more epochs and a
/// crash the WAL scans clean and in sequence, and recovery replays
/// every acknowledged batch. (Left in place, the record made the next
/// open see a sequence gap and replace the whole log by an empty one.)
#[test]
fn a_failed_fsync_is_cut_back_off_the_log() {
    let (c, q) = chain5();
    let dir = fresh_dir("fsync-fault");
    let batches = chain5_batches(&q);
    let failed = 1;
    let mut victim = DataflowOptimizer::new(&c, q.clone());
    victim.set_audit_mode(AuditMode::Off);
    victim.set_durable_dir(&dir).unwrap();
    victim.optimize();
    victim.inject_wal_fault(durable::WalFault {
        record: failed as u64,
        truncate_too: false,
    });
    let mut acked = Vec::new();
    for (i, batch) in batches.iter().enumerate() {
        let errors = victim.reoptimize(batch).recovery.errors;
        if i == failed {
            assert!(
                matches!(errors.as_slice(),
                    [DataflowError::StateCorruption(m)] if m.contains("in-memory for this batch")),
                "{errors:?}"
            );
        } else {
            assert!(errors.is_empty(), "{errors:?}");
            acked.push(batch.clone());
        }
    }
    drop(victim); // the crash

    let wal = durable::open_dir(&dir).unwrap();
    assert_eq!((&wal.batches, wal.torn, &wal.error), (&acked, false, &None));
    let (rec, out) = DataflowOptimizer::recover(&c, q.clone(), &dir).unwrap();
    assert_eq!(out.recovery.path, RecoveryPath::RebuiltFromScratch);
    assert!(out.recovery.errors.is_empty(), "{:?}", out.recovery.errors);
    let oracle = oracle_after(&c, &q, &acked);
    assert!(out.cost.approx_eq(oracle.best_cost()));
    assert_sinks_match(&rec, &oracle, "after a failed fsync and a crash");
    let _ = std::fs::remove_dir_all(&dir);
}


/// An oracle that applied `batches` and never crashed.
fn oracle_after(
    c: &reopt_catalog::Catalog,
    q: &reopt_expr::QuerySpec,
    batches: &[Vec<ParamDelta>],
) -> DataflowOptimizer {
    let mut oracle = DataflowOptimizer::new(c, q.clone());
    oracle.set_audit_mode(AuditMode::Off);
    oracle.optimize();
    for batch in batches {
        oracle.reoptimize(batch);
    }
    oracle
}

/// Recovers `dir`, which must degrade to
/// [`RecoveryPath::RebuiltAfterCorruptCheckpoint`] reporting an error
/// that mentions `why`, and still land on `oracle` — the whole WAL was
/// replayed, not only the records past the refused checkpoint.
fn assert_degrades_to_the_whole_wal(
    c: &reopt_catalog::Catalog,
    q: &reopt_expr::QuerySpec,
    dir: &std::path::Path,
    oracle: &DataflowOptimizer,
    why: &str,
) {
    let (rec, out) = DataflowOptimizer::recover(c, q.clone(), dir).unwrap();
    assert_eq!(out.recovery.path, RecoveryPath::RebuiltAfterCorruptCheckpoint);
    assert!(
        matches!(
            out.recovery.errors.as_slice(),
            [DataflowError::StateCorruption(m)] if m.contains(why)
        ),
        "{:?}",
        out.recovery.errors
    );
    assert!(out.cost.approx_eq(oracle.best_cost()));
    assert_eq!(out.plan, oracle.best_plan());
    assert_sinks_match(&rec, oracle, why);
    assert_eq!(rec.applied_log(), oracle.applied_log());
}

/// The checkpoints older builds cut were network images: four records
/// (meta, delta log, `LocalCost` mirror, embedded network) under the
/// magic `RCKP`. One left in a durable directory across the upgrade is
/// refused by its magic and answered from the whole WAL.
#[test]
fn an_old_network_image_degrades_to_an_exact_rebuild() {
    let (c, q) = chain5();
    let batches = chain5_batches(&q);
    let dir = crashed_victim(&c, &q, "old-image", &batches[..2], &batches[2..]);
    let mut image = b"RCKP".to_vec();
    image.extend_from_slice(&1u32.to_le_bytes());
    let records: [&[u8]; 4] = [&[0; 32], &[], &[0; 8], b"RCKP\x01\0\0\0"];
    for payload in records {
        image.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        image.extend_from_slice(&durable::crc32(payload).to_le_bytes());
        image.extend_from_slice(payload);
    }
    std::fs::write(dir.join(durable::CHECKPOINT_FILE), image).unwrap();
    let oracle = oracle_after(&c, &q, &batches);
    assert_degrades_to_the_whole_wal(&c, &q, &dir, &oracle, "bad checkpoint magic");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A well-formed checkpoint that is not this query's — cut for another
/// shape, or logging a leaf the query lacks — is corruption, never
/// loaded: the shape guard and the range check on every logged
/// parameter refuse it, and the whole WAL answers.
#[test]
fn a_checkpoint_of_another_query_is_corruption_not_misrestore() {
    let (c, q) = chain5();
    let batches = chain5_batches(&q);
    let oracle = oracle_after(&c, &q, &batches);
    let (leaves, edges) = (q.n_leaves(), q.edges.len() as u32);
    let stray = [ParamDelta::LeafCardinality(LeafId(leaves), 2.0)];
    for (image, why) in [
        (durable::encode_checkpoint(2, 3, leaves + 1, edges, &[]), "leaves"),
        (durable::encode_checkpoint(2, 3, leaves, edges - 1, &[]), "edges"),
        (durable::encode_checkpoint(2, 3, leaves, edges, &stray), "outside this query"),
        // Its own query's, but ahead of the log it claims to cover.
        (durable::encode_checkpoint(9, 3, leaves, edges, &[]), "beyond the 4 intact WAL records"),
    ] {
        let dir = crashed_victim(&c, &q, "other-query", &batches[..2], &batches[2..]);
        std::fs::write(dir.join(durable::CHECKPOINT_FILE), image).unwrap();
        assert_degrades_to_the_whole_wal(&c, &q, &dir, &oracle, why);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The checkpoint file a warmed chain-5 victim cut, and its query shape.
fn chain5_checkpoint() -> (Vec<u8>, u32, u32) {
    let (c, q) = chain5();
    let dir = crashed_victim(&c, &q, "format", &chain5_batches(&q), &[]);
    let bytes = std::fs::read(dir.join(durable::CHECKPOINT_FILE)).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    (bytes, q.n_leaves(), q.edges.len() as u32)
}

/// Every single-bit flip of a checkpoint file — magic, version, frame,
/// payload — is [`DataflowError::StateCorruption`], exhaustively: never
/// a panic, never a checkpoint that decodes to something else.
#[test]
fn every_bit_flip_in_a_checkpoint_is_detected() {
    let (bytes, leaves, edges) = chain5_checkpoint();
    let intact = durable::decode_checkpoint(&bytes, leaves, edges).unwrap();
    assert_eq!((intact.watermark, intact.log.len()), (4, 4));
    for bit in 0..bytes.len() * 8 {
        let mut evil = bytes.clone();
        evil[bit / 8] ^= 1 << (bit % 8);
        let r = durable::decode_checkpoint(&evil, leaves, edges);
        assert!(
            matches!(r, Err(DataflowError::StateCorruption(_))),
            "flip of bit {bit} slipped through: {r:?}"
        );
    }
}

/// Every truncation of a checkpoint file, and anything appended to one,
/// is [`DataflowError::StateCorruption`].
#[test]
fn every_truncation_of_a_checkpoint_is_detected() {
    let (mut bytes, leaves, edges) = chain5_checkpoint();
    for cut in 0..bytes.len() {
        let r = durable::decode_checkpoint(&bytes[..cut], leaves, edges);
        assert!(
            matches!(r, Err(DataflowError::StateCorruption(_))),
            "truncation at {cut} slipped through: {r:?}"
        );
    }
    bytes.push(0);
    let r = durable::decode_checkpoint(&bytes, leaves, edges);
    assert!(matches!(r, Err(DataflowError::StateCorruption(_))), "{r:?}");
}
