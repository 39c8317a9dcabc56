//! Crash-recovery tests for durable engines, each run for the
//! hand-rolled engine (`hr`, `Durable<IncrementalOptimizer>`) and the
//! declarative one (`decl`, `DataflowOptimizer`): a victim is
//! checkpointed (and WAL-logged) at a random point of a random delta
//! sequence, "crashed" (dropped), and restarted in a fresh instance —
//! which must land on exactly the state of an oracle that never crashed.
//! Corruption variants seed damage into the on-disk files and require
//! detection plus graceful degradation, never a panic and never a
//! silently wrong plan.

mod common;

use std::path::Path;

use proptest::prelude::*;

use reopt_bridge::{durable, DataflowEngine, RecoveryPath, Restart};
use reopt_catalog::Catalog;
use reopt_core::fixtures::deltas_for;
use reopt_core::IncrementalOptimizer;
use reopt_cost::ParamDelta;
use reopt_datalog::DataflowError;
use reopt_expr::{LeafId, QuerySpec};

use common::{
    build, chain5, chain5_batches, checkpointed_victim, crashed_victim, fresh_dir, oracle_after,
    query_gen, record_by_record_restart, Engine, QueryGen,
};

/// `check` for both engines.
macro_rules! for_both_engines {
    ($check:ident $(, $arg:expr)*) => {{
        $check::<IncrementalOptimizer>($($arg),*);
        $check::<DataflowEngine>($($arg),*);
    }};
}

/// Flips bit `bit` of the byte `byte_sel` selects in the WAL in `dir`,
/// among its records and the 8-byte zero frame that ends them, not the
/// rest of its zero tail.
fn flip_wal_bit(dir: &Path, byte_sel: u32, bit: u8) {
    let path = dir.join(durable::WAL_FILE);
    let mut bytes = std::fs::read(&path).unwrap();
    let span = bytes.len().min(wal_end(dir) + 8);
    bytes[byte_sel as usize % span] ^= 1 << bit;
    std::fs::write(&path, &bytes).unwrap();
}

/// Where the record in a checkpoint slot image ends: magic, version,
/// the record's length and CRC, then the payload its length claims.
fn record_end(slot: &[u8]) -> usize {
    16 + u32::from_le_bytes(slot[8..12].try_into().unwrap()) as usize
}

/// Flips bit `bit` of a byte of checkpoint slot `slot` in `dir`: an
/// even `byte_sel` selects a byte of its record (magic and version
/// included), an odd one a byte of the zero padding behind it.
fn flip_slot_bit(dir: &Path, slot: usize, byte_sel: u32, bit: u8) {
    let path = dir.join(durable::CHECKPOINT_FILE);
    let mut bytes = std::fs::read(&path).unwrap();
    let slot_len = bytes.len() / 2;
    let image = &mut bytes[slot * slot_len..(slot + 1) * slot_len];
    let (end, sel) = (record_end(image), byte_sel as usize / 2);
    let at = match byte_sel % 2 {
        0 => sel % end,
        _ => end + sel % (slot_len - end),
    };
    image[at] ^= 1 << bit;
    std::fs::write(&path, &bytes).unwrap();
}

/// Overwrites checkpoint slot `slot` in `dir` with the slot image `image`.
fn write_slot(dir: &Path, slot: usize, image: &[u8]) {
    use std::os::unix::fs::FileExt as _;
    let path = dir.join(durable::CHECKPOINT_FILE);
    let slot_len = std::fs::metadata(&path).unwrap().len() / 2;
    assert_eq!(image.len() as u64, slot_len, "a slot image of another length");
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.write_all_at(image, slot as u64 * slot_len).unwrap();
}

/// The logical end of the intact WAL in `dir`: header plus records.
fn wal_end(dir: &Path) -> usize {
    let wal = durable::open_dir(dir).unwrap();
    assert!(!wal.torn && wal.error.is_none());
    wal.len as usize
}

/// Zeroes the last three bytes of the WAL's final record in `dir`, in
/// place: the record is torn, the image of a crash mid-append.
fn tear_wal(dir: &Path) {
    let end = wal_end(dir);
    let path = dir.join(durable::WAL_FILE);
    let mut bytes = std::fs::read(&path).unwrap();
    assert!(bytes[end - 3..end].iter().any(|&b| b != 0), "nothing to tear");
    bytes[end - 3..end].fill(0);
    std::fs::write(&path, &bytes).unwrap();
}

/// Cuts the WAL in `dir` three bytes short of its final record's end:
/// the image of a crash that lost the write that grew the file.
fn cut_wal(dir: &Path) {
    let end = wal_end(dir);
    let path = dir.join(durable::WAL_FILE);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..end - 3]).unwrap();
}

/// A clean restart from a checkpoint.
fn restored() -> Restart {
    Restart {
        path: RecoveryPath::RestoredFromCheckpoint,
        errors: Vec::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The bridge lockstep variant of the substrate crash suite: a
    /// victim checkpoints after a random prefix of a random delta
    /// sequence, keeps going (those batches reach only the WAL), and
    /// crashes. Recovery must restore + replay to the exact state of an
    /// uninterrupted oracle and then resume incrementally in lockstep.
    #[test]
    fn recovered_optimizer_matches_the_uninterrupted_oracle(
        gen in query_gen(5),
        seq in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..8),
        ckpt_sel in any::<u8>(),
        resume in (any::<u8>(), any::<u8>(), any::<u8>()),
    ) {
        fn check<E: Engine>(
            gen: &QueryGen,
            seq: &[(u8, u8, u8)],
            ckpt_sel: u8,
            resume: (u8, u8, u8),
        ) {
            let (c, q) = build(gen);
            let dir = fresh_dir("lockstep");
            let ckpt_at = ckpt_sel as usize % (seq.len() + 1);
            let mut oracle = oracle_after::<E>(&c, &q, &[]);
            let mut victim = E::fresh(&c, &q);
            victim.set_durable_dir(&dir).unwrap();
            victim.optimize();
            for (i, &raw) in seq.iter().enumerate() {
                if i == ckpt_at {
                    victim.checkpoint_durable().unwrap();
                }
                let deltas = deltas_for(&q, &[raw], false);
                oracle.reoptimize(&deltas);
                victim.reoptimize(&deltas);
            }
            if ckpt_at == seq.len() {
                victim.checkpoint_durable().unwrap();
            }
            drop(victim); // the crash

            let (mut rec, restart) = E::restart(&c, &q, &dir);
            prop_assert_eq!(restart, restored());
            E::assert_same(&rec, &oracle, "after recovery");

            // Recovery is not a dead end: the next epoch stays in lockstep.
            let deltas = deltas_for(&q, &[resume], false);
            rec.reoptimize(&deltas);
            oracle.reoptimize(&deltas);
            E::assert_same(&rec, &oracle, "after post-recovery epoch");
            let _ = std::fs::remove_dir_all(&dir);
        }
        for_both_engines!(check, &gen, &seq, ckpt_sel, resume);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// A seeded bit flip in a written checkpoint slot — in its record
    /// or in its zero padding — must be detected (per-record CRC, bounds
    /// checks, the padding read as zeros) and reported, and costs time,
    /// never correctness. In the only written slot it degrades to a
    /// from-scratch rebuild plus full WAL replay; beside a second
    /// checkpoint, the newest or the older one flipped, the restart
    /// restores from the other slot. Either way it matches the oracle
    /// exactly.
    #[test]
    fn flipped_checkpoint_bits_degrade_to_an_exact_rebuild(
        gen in query_gen(4),
        seq in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..5),
        second in any::<bool>(),
        newest in any::<bool>(),
        byte_sel in any::<u32>(),
        bit in 0u8..8,
    ) {
        fn check<E: Engine>(
            gen: &QueryGen,
            seq: &[(u8, u8, u8)],
            second: bool,
            newest: bool,
            byte_sel: u32,
            bit: u8,
        ) {
            let (c, q) = build(gen);
            let batches: Vec<_> = seq.iter().map(|&raw| deltas_for(&q, &[raw], false)).collect();
            // A checkpoint after the first batch, and one after the last.
            let cuts: &[usize] = if second { &[1, batches.len()] } else { &[1] };
            let dir = checkpointed_victim::<E>(&c, &q, "flip", &batches, cuts);
            flip_slot_bit(&dir, usize::from(second && newest), byte_sel, bit);

            let (rec, restart) = E::restart(&c, &q, &dir);
            let path = if second {
                RecoveryPath::RestoredFromCheckpoint
            } else {
                RecoveryPath::RebuiltAfterCorruptCheckpoint
            };
            prop_assert_eq!(
                restart.path, path,
                "{}: flip of bit {} of byte {} went undetected", E::NAME, bit, byte_sel
            );
            prop_assert_eq!(restart.errors.len(), 1, "the damage must be reported");
            E::assert_same(&rec, &oracle_after(&c, &q, &batches), "after a flipped slot");
            let _ = std::fs::remove_dir_all(&dir);
        }
        for_both_engines!(check, &gen, &seq, second, newest, byte_sel, bit);
    }

    /// Damage to the WAL must also never panic and never yield an
    /// inconsistent engine: whatever ladder rung recovery lands on, the
    /// engine's full audit must pass. Acknowledged batches past the
    /// damage may be lost — that loss is *reported*, not silent.
    #[test]
    fn flipped_wal_bits_recover_to_a_consistent_state(
        gen in query_gen(4),
        seq in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..5),
        byte_sel in any::<u32>(),
        bit in 0u8..8,
        with_checkpoint in any::<bool>(),
    ) {
        fn check<E: Engine>(
            gen: &QueryGen,
            seq: &[(u8, u8, u8)],
            byte_sel: u32,
            bit: u8,
            with_checkpoint: bool,
        ) {
            let (c, q) = build(gen);
            let dir = fresh_dir("walflip");
            let mut victim = E::fresh(&c, &q);
            victim.set_durable_dir(&dir).unwrap();
            victim.optimize();
            if with_checkpoint {
                victim.checkpoint_durable().unwrap();
            }
            for &raw in seq {
                victim.reoptimize(&deltas_for(&q, &[raw], false));
            }
            drop(victim);
            flip_wal_bit(&dir, byte_sel, bit);

            let (mut rec, restart) = E::restart(&c, &q, &dir);
            prop_assert_ne!(restart.path, RecoveryPath::Committed,
                "damaged history cannot look like a clean first boot");
            let audit = E::audit(&mut rec);
            let name = E::NAME;
            prop_assert!(audit.is_ok(), "{name}: WAL damage at byte {byte_sel}: {audit:?}");
            let _ = std::fs::remove_dir_all(&dir);
        }
        for_both_engines!(check, &gen, &seq, byte_sel, bit, with_checkpoint);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// A restart loads the net effect of the checkpoint's log and the
    /// WAL tail — the last write per parameter — and optimizes once;
    /// replaying the tail one `reoptimize` per record (kept in `common`)
    /// is the reference. Random checkpoint position, a tail of 0–40
    /// records that keep hitting the same few parameters, an optional
    /// torn last record, and an optionally corrupted checkpoint (a bit
    /// flipped in its slot, the only one written: the degraded rung
    /// loads the whole WAL): both must agree on the
    /// engine's state, the applied log and `epochs_seen`.
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
        #[allow(clippy::too_many_arguments)]
        fn check<E: Engine>(
            gen: &QueryGen,
            before: &[Vec<(u8, u8, u8)>],
            tail: &[Vec<(u8, u8, u8)>],
            torn: bool,
            corrupt: bool,
            byte_sel: u32,
            bit: u8,
        ) {
            let (c, q) = build(gen);
            let records = |raw: &[Vec<(u8, u8, u8)>]| -> Vec<Vec<ParamDelta>> {
                raw.iter().map(|r| deltas_for(&q, r, false)).collect()
            };
            let (before, tail) = (records(before), records(tail));
            let dir = crashed_victim::<E>(&c, &q, "fold", &before, &tail);
            let mut intact = tail.as_slice();
            if torn && !tail.is_empty() {
                // The torn final record was never acknowledged durable.
                tear_wal(&dir);
                intact = &tail[..tail.len() - 1];
            }
            if corrupt {
                flip_slot_bit(&dir, 0, byte_sel, bit);
            }

            let (rec, restart) = E::restart(&c, &q, &dir);
            let want = record_by_record_restart::<E>(&c, &q, &before, intact, !corrupt);
            let path = if corrupt {
                RecoveryPath::RebuiltAfterCorruptCheckpoint
            } else {
                RecoveryPath::RestoredFromCheckpoint
            };
            prop_assert_eq!(restart.path, path);
            E::assert_same(&rec, &want, "folded vs record-by-record");
            prop_assert_eq!(rec.applied_log(), want.applied_log(), "applied log diverged");
            prop_assert_eq!(rec.epochs_seen(), want.epochs_seen(), "epochs_seen diverged");
            let _ = std::fs::remove_dir_all(&dir);
        }
        for_both_engines!(check, &gen, &before, &tail, torn, corrupt, byte_sel, bit);
    }
}

/// The acceptance scenario, pinned deterministically: warm a chain-5
/// engine through several epochs, checkpoint mid-sequence, keep going,
/// crash, recover — exactly the uninterrupted run's state, then
/// lockstep resume.
#[test]
fn chain5_restart_resumes_from_checkpoint_and_wal_tail() {
    fn check<E: Engine>() {
        let (c, q) = chain5();
        let batches = chain5_batches(&q);
        let dir = crashed_victim::<E>(&c, &q, "chain5", &batches[..2], &batches[2..]);
        let mut oracle = oracle_after::<E>(&c, &q, &batches);

        let (mut rec, restart) = E::restart(&c, &q, &dir);
        assert_eq!(restart, restored(), "{}", E::NAME);
        E::assert_same(&rec, &oracle, "after chain5 recovery");

        let extra = deltas_for(&q, &[(1, 0, 6)], false);
        rec.reoptimize(&extra);
        oracle.reoptimize(&extra);
        E::assert_same(&rec, &oracle, "after chain5 resume");
        let _ = std::fs::remove_dir_all(&dir);
    }
    for_both_engines!(check);
}

/// An empty durable directory is a plain first boot, not a recovery.
#[test]
fn recover_on_an_empty_dir_is_a_plain_first_boot() {
    fn check<E: Engine>() {
        let (c, q) = chain5();
        let dir = fresh_dir("boot");
        let (rec, restart) = E::restart(&c, &q, &dir);
        let boot = Restart {
            path: RecoveryPath::Committed,
            errors: Vec::new(),
        };
        assert_eq!(restart, boot, "{}", E::NAME);
        E::assert_same(&rec, &oracle_after(&c, &q, &[]), "first boot");
        let _ = std::fs::remove_dir_all(&dir);
    }
    for_both_engines!(check);
}

/// Crashing before the first checkpoint still loses nothing: the WAL
/// alone replays every acknowledged batch onto a from-scratch build.
#[test]
fn crash_before_any_checkpoint_replays_the_whole_wal() {
    fn check<E: Engine>() {
        let (c, q) = chain5();
        let dir = fresh_dir("nockpt");
        let batches = chain5_batches(&q);
        let mut victim = E::fresh(&c, &q);
        victim.set_durable_dir(&dir).unwrap();
        victim.optimize();
        for batch in &batches {
            victim.reoptimize(batch);
        }
        drop(victim);

        let (rec, restart) = E::restart(&c, &q, &dir);
        assert_eq!(restart.path, RecoveryPath::RebuiltFromScratch, "{}", E::NAME);
        E::assert_same(&rec, &oracle_after(&c, &q, &batches), "after WAL-only recovery");
        let _ = std::fs::remove_dir_all(&dir);
    }
    for_both_engines!(check);
}

/// A torn WAL tail — the image of a crash mid-append, torn in place or
/// cut short — is zeroed away on recovery; the batches before it replay
/// normally and new appends continue cleanly from the cut.
#[test]
fn torn_wal_tail_is_discarded_and_the_log_heals() {
    fn check<E: Engine>(tear: fn(&Path)) {
        let (c, q) = chain5();
        let dir = fresh_dir("torn");
        let batches = chain5_batches(&q);
        let mut victim = E::fresh(&c, &q);
        victim.set_durable_dir(&dir).unwrap();
        victim.optimize();
        for batch in &batches {
            victim.reoptimize(batch);
        }
        drop(victim);
        tear(&dir);

        // The last batch is the one torn away.
        let mut oracle = oracle_after::<E>(&c, &q, &batches[..batches.len() - 1]);
        let (mut rec, restart) = E::restart(&c, &q, &dir);
        assert_eq!(restart.path, RecoveryPath::RebuiltFromScratch, "{}", E::NAME);
        E::assert_same(&rec, &oracle, "after torn-tail recovery");
        let healed = durable::open_dir(&dir).unwrap();
        assert!(!healed.torn, "{}: the restart left the torn bytes", E::NAME);

        // The healed log accepts new appends and a later recovery sees them.
        let extra = deltas_for(&q, &[(2, 4, 0)], false);
        rec.reoptimize(&extra);
        oracle.reoptimize(&extra);
        drop(rec);
        let (rec2, restart) = E::restart(&c, &q, &dir);
        assert_eq!(restart.path, RecoveryPath::RebuiltFromScratch, "{}", E::NAME);
        E::assert_same(&rec2, &oracle, "after healed-log recovery");
        let _ = std::fs::remove_dir_all(&dir);
    }
    for tear in [tear_wal, cut_wal] {
        for_both_engines!(check, tear);
    }
}

/// Older builds committed a checkpoint by writing `checkpoint.tmp` and
/// renaming it over `checkpoint.bin`, so a crash between the two left a
/// staging file that a directory they wrote may still hold: it must be
/// swept on every startup path, never read as state. Three such
/// directories are staged — a torn tmp next to a good checkpoint, a
/// torn tmp with no checkpoint at all (crash during the very first
/// snapshot), and arming a fresh directory — and in each the recovered
/// engine matches the oracle while the orphan is gone from disk.
#[test]
fn stale_checkpoint_tmp_files_are_swept_on_startup() {
    fn check<E: Engine>() {
        let (c, q) = chain5();
        let batches = chain5_batches(&q);
        let tmp_name = "checkpoint.tmp"; // what older builds staged
        let oracle = oracle_after::<E>(&c, &q, &batches);

        // Crash point A: a later checkpoint died after staging its tmp
        // but before the rename — the old checkpoint.bin is still the
        // truth.
        let dir = crashed_victim::<E>(&c, &q, "tmp-sweep-a", &batches[..2], &batches[2..]);
        std::fs::write(dir.join(tmp_name), b"torn half-written snapshot").unwrap();
        let (rec, restart) = E::restart(&c, &q, &dir);
        assert_eq!(restart.path, RecoveryPath::RestoredFromCheckpoint, "{}", E::NAME);
        E::assert_same(&rec, &oracle, "recovery next to a torn tmp");
        assert!(!dir.join(tmp_name).exists(), "orphaned tmp survived the restart");
        let _ = std::fs::remove_dir_all(&dir);

        // Crash point B: the very first checkpoint never completed —
        // only the WAL and the stranded tmp exist. Recovery replays the
        // WAL and must not mistake the tmp for a checkpoint, even when
        // the orphan would parse (a twin's full checkpoint file).
        let dir = fresh_dir("tmp-sweep-b");
        let mut victim = E::fresh(&c, &q);
        victim.set_durable_dir(&dir).unwrap();
        victim.optimize();
        for batch in &batches {
            victim.reoptimize(batch);
        }
        drop(victim);
        let scratch = crashed_victim::<E>(&c, &q, "tmp-sweep-b-scratch", &batches, &[]);
        std::fs::copy(scratch.join(durable::CHECKPOINT_FILE), dir.join(tmp_name)).unwrap();
        let _ = std::fs::remove_dir_all(&scratch);
        let (rec, restart) = E::restart(&c, &q, &dir);
        assert_eq!(restart.path, RecoveryPath::RebuiltFromScratch, "{}", E::NAME);
        E::assert_same(&rec, &oracle, "WAL-only recovery next to a full tmp");
        assert!(!dir.join(tmp_name).exists(), "orphaned tmp survived the restart");
        let _ = std::fs::remove_dir_all(&dir);

        // Crash point C: arming durability on a directory holding an
        // orphan (the process died before ever reading it back) sweeps
        // it too — the sweep is a startup invariant, not a restart
        // detail.
        let dir = fresh_dir("tmp-sweep-c");
        std::fs::write(dir.join(tmp_name), b"stray").unwrap();
        let mut fresh = E::fresh(&c, &q);
        fresh.set_durable_dir(&dir).unwrap();
        assert!(!dir.join(tmp_name).exists(), "orphaned tmp survived set_durable_dir()");
        let _ = std::fs::remove_dir_all(&dir);
    }
    for_both_engines!(check);
}

/// Cross-process restart: a child process (fresh interner) warms and
/// checkpoints a durable engine, then exits; the parent — whose
/// interner is deliberately shifted by decoy strings — recovers from
/// the same directory. Nothing on disk names an interned symbol — the
/// files hold parameters — so the recovered state is the oracle's.
#[test]
fn durable_state_survives_a_process_boundary() {
    let test = "durable_state_survives_a_process_boundary";
    for_both_engines!(across_a_process_boundary, test, false);
}

/// The same child, killed by `abort()` the moment its last `reoptimize`
/// returns — no checkpoint, no destructor after it: a returned
/// `reoptimize` is an acknowledged batch, so recovery replays it.
#[test]
fn an_acknowledged_batch_survives_an_abort() {
    let test = "an_acknowledged_batch_survives_an_abort";
    for_both_engines!(across_a_process_boundary, test, true);
}

/// The two tests above: `test` re-runs itself as the child, which runs
/// engine `E` through `chain5_batches` (checkpointing after the third)
/// and then exits — or aborts, with `abort`.
fn across_a_process_boundary<E: Engine>(test: &str, abort: bool) {
    const DIR: &str = "REOPT_BRIDGE_CRASH_DIR";
    const ENGINE: &str = "REOPT_BRIDGE_CRASH_ENGINE";
    let (c, q) = chain5();
    let batches = chain5_batches(&q);

    if let Ok(dir) = std::env::var(DIR) {
        if std::env::var(ENGINE).as_deref() != Ok(E::NAME) {
            return; // the child of the other engine's run
        }
        // Child: warm, checkpoint mid-sequence, log the rest, "crash".
        let mut victim = E::fresh(&c, &q);
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
        .env(DIR, &dir)
        .env(ENGINE, E::NAME)
        .status()
        .unwrap();
    if abort {
        // Killed by the signal, not failed before reaching it.
        assert_eq!(status.code(), None, "{}: the child did not abort: {status}", E::NAME);
    } else {
        assert!(status.success(), "{}: child process failed", E::NAME);
    }

    let (rec, restart) = E::restart(&c, &q, &dir);
    assert_eq!(restart, restored(), "{}", E::NAME);
    E::assert_same(&rec, &oracle_after(&c, &q, &batches), "across the process boundary");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A WAL whose only record is torn replays nothing, but it is still
/// history — an append was attempted — so recovery must not report the
/// clean first boot of an empty directory. (The pinned-seed WAL bit-flip
/// property found this through a damaged length field.)
#[test]
fn a_wal_holding_only_a_torn_record_is_not_a_clean_first_boot() {
    fn check<E: Engine>(tear: fn(&Path)) {
        let (c, q) = chain5();
        let dir = fresh_dir("torn-only");
        let mut victim = E::fresh(&c, &q);
        victim.set_durable_dir(&dir).unwrap();
        victim.optimize();
        victim.reoptimize(&chain5_batches(&q)[0]);
        drop(victim);
        tear(&dir);

        let (mut rec, restart) = E::restart(&c, &q, &dir);
        assert_eq!(restart.path, RecoveryPath::RebuiltFromScratch, "{}", E::NAME);
        // The torn batch, never acknowledged, is not replayed.
        E::assert_same(&rec, &oracle_after(&c, &q, &[]), "after a torn-only WAL");
        E::audit(&mut rec).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
    for tear in [tear_wal, cut_wal] {
        for_both_engines!(check, tear);
    }
}

/// A WAL in the layout of older builds — version 1: the same records,
/// running to the end of the file with no zero tail — is refused by its
/// version, the way an `RCKP` checkpoint is refused by its magic: the
/// refusal is reported, nothing of it is replayed, and the directory
/// gets a fresh log.
#[test]
fn a_version_1_wal_is_refused_by_its_version() {
    fn check<E: Engine>() {
        let (c, q) = chain5();
        let dir = fresh_dir("wal-v1");
        let mut victim = E::fresh(&c, &q);
        victim.set_durable_dir(&dir).unwrap();
        victim.optimize();
        for batch in &chain5_batches(&q) {
            victim.reoptimize(batch);
        }
        drop(victim);
        let end = wal_end(&dir);
        let path = dir.join(durable::WAL_FILE);
        let mut v1 = std::fs::read(&path).unwrap();
        v1.truncate(end);
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &v1).unwrap();

        let (rec, restart) = E::restart(&c, &q, &dir);
        assert_eq!(restart.path, RecoveryPath::RebuiltFromScratch, "{}", E::NAME);
        assert!(
            matches!(restart.errors.as_slice(),
                [DataflowError::StateCorruption(m)] if m.contains("unsupported WAL version 1")),
            "{}: {:?}",
            E::NAME,
            restart.errors
        );
        E::assert_same(&rec, &oracle_after(&c, &q, &[]), "after a refused version-1 WAL");
        let wal = durable::open_dir(&dir).unwrap();
        assert!(wal.batches.is_empty() && !wal.torn && wal.error.is_none(), "{}", E::NAME);
        let _ = std::fs::remove_dir_all(&dir);
    }
    for_both_engines!(check);
}

/// A failed fsync must not leave its record in the log. The batch is
/// reported as in-memory only, its record is cut back off, and the next
/// append reuses its sequence number — so after more epochs and a
/// crash the WAL scans clean and in sequence, and recovery replays
/// every acknowledged batch. (Left in place, the record made the next
/// open see a sequence gap and replace the whole log by an empty one.)
#[test]
fn a_failed_fsync_is_cut_back_off_the_log() {
    fn check<E: Engine>() {
        let (c, q) = chain5();
        let dir = fresh_dir("fsync-fault");
        let batches = chain5_batches(&q);
        let failed = 1;
        let mut victim = E::fresh(&c, &q);
        victim.set_durable_dir(&dir).unwrap();
        victim.optimize();
        victim.inject_wal_fault(durable::WalFault {
            record: failed as u64,
            truncate_too: false,
        });
        let mut acked = Vec::new();
        for (i, batch) in batches.iter().enumerate() {
            victim.reoptimize(batch);
            let error = &victim.last_wal().error;
            if i == failed {
                assert!(
                    matches!(error, Some(DataflowError::StateCorruption(m))
                        if m.contains("in-memory for this batch")),
                    "{}: {error:?}",
                    E::NAME
                );
            } else {
                assert_eq!(error, &None, "{}", E::NAME);
                acked.push(batch.clone());
            }
        }
        drop(victim); // the crash

        let wal = durable::open_dir(&dir).unwrap();
        assert_eq!((&wal.batches, wal.torn, &wal.error), (&acked, false, &None));
        let (rec, restart) = E::restart(&c, &q, &dir);
        let rebuilt = Restart {
            path: RecoveryPath::RebuiltFromScratch,
            errors: Vec::new(),
        };
        assert_eq!(restart, rebuilt, "{}", E::NAME);
        E::assert_same(&rec, &oracle_after(&c, &q, &acked), "after a failed fsync and a crash");
        let _ = std::fs::remove_dir_all(&dir);
    }
    for_both_engines!(check);
    // The declarative engine's outcome carries the failure too, where
    // its recovery report counts it as unclean.
    let (c, q) = chain5();
    let dir = fresh_dir("fsync-fault-outcome");
    let mut victim = DataflowEngine::fresh(&c, &q);
    victim.set_durable_dir(&dir).unwrap();
    victim.inject_wal_fault(durable::WalFault {
        record: 0,
        truncate_too: false,
    });
    let out = victim.reoptimize(&chain5_batches(&q)[0]);
    assert!(
        matches!(out.recovery.errors.as_slice(),
            [DataflowError::StateCorruption(m)] if m.contains("in-memory for this batch")),
        "{:?}",
        out.recovery.errors
    );
    drop(victim);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Arming adopts a directory's history only if it is the engine's. An
/// engine that crashed after two batches leaves a directory a fresh
/// engine must not arm: its next batch would be logged behind history
/// it never held, and a restart would rebuild a state it never held
/// (the live cost 276 227.0 against a restart's 88 827.3 on the
/// declarative engine, with no error reported). Refused with
/// `InvalidInput`, the engine stays unarmed and the directory
/// untouched; the engine restarted from it arms it again.
#[test]
fn arming_a_directory_another_engine_wrote_is_refused() {
    fn check<E: Engine>() {
        let (c, q) = chain5();
        let batches = chain5_batches(&q);
        let dir = fresh_dir("foreign-history");
        let mut a = E::fresh(&c, &q);
        a.set_durable_dir(&dir).unwrap();
        a.optimize();
        a.reoptimize(&batches[0]);
        a.reoptimize(&batches[1]);
        drop(a); // the crash
        let wal = std::fs::read(dir.join(durable::WAL_FILE)).unwrap();

        let mut b = E::fresh(&c, &q);
        let err = b.set_durable_dir(&dir).expect_err("a history that is not the engine's");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{}", E::NAME);
        assert!(b.durable_dir().is_none(), "{}", E::NAME);
        b.reoptimize(&batches[2]);
        assert_eq!(std::fs::read(dir.join(durable::WAL_FILE)).unwrap(), wal);

        let (mut rec, _) = E::restart(&c, &q, &dir);
        rec.set_durable_dir(&dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
    for_both_engines!(check);
}

/// The other way round: an engine that applied a batch in memory must
/// not arm a fresh directory, which a restart would answer with the
/// base estimates (88 408.3 against the live 88 527.3 after the next
/// batch, on the declarative engine). Writing the parameter back to its
/// base value makes the engine's parameters the fresh directory's
/// again, and arming succeeds.
#[test]
fn arming_an_engine_that_applied_batches_in_memory_is_refused() {
    fn check<E: Engine>() {
        let (c, q) = chain5();
        let batches = chain5_batches(&q);
        let dir = fresh_dir("in-memory-history");
        let mut opt = E::fresh(&c, &q);
        opt.optimize();
        opt.reoptimize(&batches[0]);
        let err = opt.set_durable_dir(&dir).expect_err("parameters no file holds");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{}", E::NAME);
        assert!(opt.durable_dir().is_none(), "{}", E::NAME);

        let reset: Vec<ParamDelta> = batches[0].iter().map(|d| at_base(*d)).collect();
        opt.reoptimize(&reset);
        opt.set_durable_dir(&dir).unwrap();
        opt.reoptimize(&batches[1]);
        drop(opt);
        let (rec, restart) = E::restart(&c, &q, &dir);
        assert_eq!(restart.path, RecoveryPath::RebuiltFromScratch, "{}", E::NAME);
        E::assert_same(&rec, &oracle_after(&c, &q, &batches[1..2]), "armed after a reset");
        let _ = std::fs::remove_dir_all(&dir);
    }
    for_both_engines!(check);
}

/// `d` writing its parameter's base value.
fn at_base(d: ParamDelta) -> ParamDelta {
    match d {
        ParamDelta::EdgeSelectivity(e, _) => ParamDelta::EdgeSelectivity(e, 1.0),
        ParamDelta::LeafCardinality(l, _) => ParamDelta::LeafCardinality(l, 1.0),
        ParamDelta::LeafScanCost(l, _) => ParamDelta::LeafScanCost(l, 1.0),
    }
}

/// The files hold parameters only: a directory a durable `hr` wrote
/// restarts `decl` (through `DataflowOptimizer::recover`) to the
/// writer's applied log, epoch count (plus the restart's own), cost and
/// plan, and the other way round.
#[test]
fn a_directory_one_engine_wrote_restarts_the_other() {
    fn check<W: Engine, R: Engine>() {
        let (c, q) = chain5();
        let batches = chain5_batches(&q);
        let dir = fresh_dir("cross-engine");
        let mut writer = W::fresh(&c, &q);
        writer.set_durable_dir(&dir).unwrap();
        writer.optimize();
        for (i, batch) in batches.iter().enumerate() {
            writer.reoptimize(batch);
            if i == 1 {
                writer.checkpoint_durable().unwrap();
            }
        }
        let (log, epochs) = (writer.applied_log().to_vec(), writer.epochs_seen());
        let (cost, plan) = W::best(&writer);
        drop(writer);

        let (rec, restart) = R::restart(&c, &q, &dir);
        let what = format!("{} wrote, {} restarted", W::NAME, R::NAME);
        assert_eq!(restart, restored(), "{what}");
        assert_eq!(rec.applied_log(), log, "{what}");
        assert_eq!(rec.epochs_seen(), epochs + 1, "{what}");
        let (got_cost, got_plan) = R::best(&rec);
        assert!(got_cost.approx_eq(cost), "{what}: {got_cost:?} vs {cost:?}");
        assert_eq!(got_plan, plan, "{what}");
        let _ = std::fs::remove_dir_all(&dir);
    }
    check::<IncrementalOptimizer, DataflowEngine>();
    check::<DataflowEngine, IncrementalOptimizer>();
}

/// Restarts `dir` with engine `E` and checks that it degraded to
/// [`RecoveryPath::RebuiltAfterCorruptCheckpoint`], reporting one
/// error that mentions `why`, and still landed on the oracle that
/// applied `batches` — the whole WAL was replayed, not only the records
/// past the refused checkpoint.
fn assert_degrades_to_the_whole_wal<E: Engine>(
    c: &Catalog,
    q: &QuerySpec,
    dir: &Path,
    batches: &[Vec<ParamDelta>],
    why: &str,
) {
    let (rec, restart) = E::restart(c, q, dir);
    assert_eq!(restart.path, RecoveryPath::RebuiltAfterCorruptCheckpoint, "{}", E::NAME);
    assert!(
        matches!(
            restart.errors.as_slice(),
            [DataflowError::StateCorruption(m)] if m.contains(why)
        ),
        "{}: {:?}",
        E::NAME,
        restart.errors
    );
    let oracle = oracle_after::<E>(c, q, batches);
    E::assert_same(&rec, &oracle, why);
    assert_eq!(rec.applied_log(), oracle.applied_log());
}

/// The checkpoints older builds cut were network images: four records
/// (meta, delta log, `LocalCost` mirror, embedded network) under the
/// magic `RCKP`. One left in a durable directory across the upgrade is
/// refused by its magic, answered from the whole WAL and replaced by
/// two empty slots. The same image in the newest slot of a directory
/// holding two checkpoints is refused there, and the restart restores
/// from the older slot.
#[test]
fn an_old_network_image_degrades_to_an_exact_rebuild() {
    fn check<E: Engine>() {
        let (c, q) = chain5();
        let batches = chain5_batches(&q);
        let dir = crashed_victim::<E>(&c, &q, "old-image", &batches[..2], &batches[2..]);
        let path = dir.join(durable::CHECKPOINT_FILE);
        let allocated = std::fs::metadata(&path).unwrap().len();
        let mut image = b"RCKP".to_vec();
        image.extend_from_slice(&1u32.to_le_bytes());
        let records: [&[u8]; 4] = [&[0; 32], &[], &[0; 8], b"RCKP\x01\0\0\0"];
        for payload in records {
            image.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            image.extend_from_slice(&durable::crc32(payload).to_le_bytes());
            image.extend_from_slice(payload);
        }
        std::fs::write(&path, &image).unwrap();
        assert_degrades_to_the_whole_wal::<E>(&c, &q, &dir, &batches, "bad checkpoint magic");
        assert_eq!(std::fs::read(&path).unwrap(), vec![0; allocated as usize], "{}", E::NAME);
        let _ = std::fs::remove_dir_all(&dir);

        let dir = checkpointed_victim::<E>(&c, &q, "old-image-slot", &batches, &[2, 4]);
        image.resize(allocated as usize / 2, 0);
        write_slot(&dir, 1, &image);
        assert_restores_beside_a_refused_slot::<E>(&c, &q, &dir, &batches, "bad checkpoint magic");
        let _ = std::fs::remove_dir_all(&dir);
    }
    for_both_engines!(check);
}

/// Restarts `dir` with engine `E` and checks that it restored from a
/// checkpoint, reporting one error that mentions `why` (the refused
/// slot), and landed on the oracle that applied `batches`.
fn assert_restores_beside_a_refused_slot<E: Engine>(
    c: &Catalog,
    q: &QuerySpec,
    dir: &Path,
    batches: &[Vec<ParamDelta>],
    why: &str,
) {
    let (rec, restart) = E::restart(c, q, dir);
    assert_eq!(restart.path, RecoveryPath::RestoredFromCheckpoint, "{}", E::NAME);
    assert!(
        matches!(
            restart.errors.as_slice(),
            [DataflowError::StateCorruption(m)] if m.contains(why)
        ),
        "{}: {:?}",
        E::NAME,
        restart.errors
    );
    E::assert_same(&rec, &oracle_after::<E>(c, q, batches), why);
}

/// A well-formed checkpoint that is not this query's — cut for another
/// shape, or logging a leaf the query lacks — is corruption, never
/// loaded, whatever its generation: the shape guard and the range check
/// on every logged parameter refuse it. In the only written slot the
/// whole WAL answers; in the newest of two, the older slot does.
#[test]
fn a_checkpoint_of_another_query_is_corruption_not_misrestore() {
    fn check<E: Engine>() {
        let (c, q) = chain5();
        let batches = chain5_batches(&q);
        let (leaves, edges) = (q.n_leaves(), q.edges.len() as u32);
        let stray = [ParamDelta::LeafCardinality(LeafId(leaves), 2.0)];
        for (image, why) in [
            (durable::encode_checkpoint(3, 2, 3, leaves + 1, edges, &[]), "leaves"),
            (durable::encode_checkpoint(3, 2, 3, leaves, edges - 1, &[]), "edges"),
            (durable::encode_checkpoint(3, 2, 3, leaves, edges, &stray), "outside this query"),
            // Its own query's, but ahead of the log it claims to cover.
            (
                durable::encode_checkpoint(3, 9, 3, leaves, edges, &[]),
                "beyond the 4 intact WAL records",
            ),
        ] {
            let dir = crashed_victim::<E>(&c, &q, "other-query", &batches[..2], &batches[2..]);
            write_slot(&dir, 0, &image);
            assert_degrades_to_the_whole_wal::<E>(&c, &q, &dir, &batches, why);
            let _ = std::fs::remove_dir_all(&dir);

            let dir = checkpointed_victim::<E>(&c, &q, "other-query-slot", &batches, &[2, 4]);
            write_slot(&dir, 1, &image);
            assert_restores_beside_a_refused_slot::<E>(&c, &q, &dir, &batches, why);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    for_both_engines!(check);
}

/// The checkpoint file a chain-5 engine `E` leaves after running
/// `chain5_batches`, cutting a checkpoint after the first `n` of them
/// for each `n` in `cuts`.
fn chain5_checkpoint<E: Engine>(cuts: &[usize]) -> Vec<u8> {
    let (c, q) = chain5();
    let dir = checkpointed_victim::<E>(&c, &q, "format", &chain5_batches(&q), cuts);
    let bytes = std::fs::read(dir.join(durable::CHECKPOINT_FILE)).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

/// What a restart reads in checkpoint file image `file` of chain 5,
/// whose WAL holds the 4 records of `chain5_batches`.
fn chain5_slots(file: &[u8]) -> durable::Slots {
    let (_, q) = chain5();
    durable::read_slots(file, q.n_leaves(), q.edges.len() as u32, 4)
}

/// Slot `slot` of checkpoint file image `file` as a restart would read
/// it if it were the only slot: `None` when empty.
fn slot_of(file: &[u8], slot: usize) -> Option<(usize, durable::Checkpoint)> {
    let (_, q) = chain5();
    let slot_len = file.len() / 2;
    let image = &file[slot * slot_len..(slot + 1) * slot_len];
    let c = durable::decode_checkpoint(image, q.n_leaves(), q.edges.len() as u32).unwrap();
    c.map(|c| (slot, c))
}

/// Both engines cut the same checkpoint file for the same history, and
/// every single-bit flip of a written slot is
/// [`DataflowError::StateCorruption`] — every bit of its record (magic,
/// version, frame, payload) and one in every byte of its zero padding:
/// never a panic, never a checkpoint that decodes to something else.
/// With the only written slot flipped the file holds no checkpoint; with
/// either of two flipped, a restart reads exactly the other.
#[test]
fn every_bit_flip_in_a_checkpoint_is_detected() {
    let (_, q) = chain5();
    let (leaves, edges) = (q.n_leaves(), q.edges.len() as u32);
    for cuts in [&[4][..], &[2, 4]] {
        let file = chain5_checkpoint::<DataflowEngine>(cuts);
        assert_eq!(chain5_checkpoint::<IncrementalOptimizer>(cuts), file);
        let intact = chain5_slots(&file);
        let (newest, c) = intact.chosen.as_ref().unwrap();
        assert_eq!((*newest, c.generation), (cuts.len() - 1, cuts.len() as u64));
        assert_eq!((c.watermark, c.log.len(), intact.refused.len()), (4, 4, 0));
        let slot_len = file.len() / 2;
        for slot in 0..cuts.len() {
            let start = slot * slot_len;
            let end = record_end(&file[start..]);
            let padding = (end..slot_len).map(|at| at * 8 + at % 8);
            for bit in (0..end * 8).chain(padding) {
                let mut evil = file.clone();
                evil[start + bit / 8] ^= 1 << (bit % 8);
                let r = durable::decode_checkpoint(&evil[start..start + slot_len], leaves, edges);
                assert!(
                    matches!(r, Err(DataflowError::StateCorruption(_))),
                    "{cuts:?}: flip of bit {bit} of slot {slot} slipped through: {r:?}"
                );
                let slots = chain5_slots(&evil);
                assert!(matches!(slots.refused.as_slice(), [(s, _)] if *s == slot));
                assert_eq!(slots.chosen, slot_of(&file, 1 - slot), "{cuts:?}: bit {bit}");
            }
        }
    }
}

/// Every truncation of a checkpoint file, and anything appended to one,
/// refuses the file as a whole (an empty file is a missing one). Every
/// cut of a slot's write — its first `k` bytes landed, the zeros they
/// replace behind them — is [`DataflowError::StateCorruption`] unless
/// nothing landed: in the only written slot the file then holds no
/// checkpoint, beside a second one a restart reads exactly the other.
#[test]
fn every_truncation_of_a_checkpoint_is_detected() {
    for cuts in [&[4][..], &[2, 4]] {
        let mut file = chain5_checkpoint::<IncrementalOptimizer>(cuts);
        assert_eq!(chain5_checkpoint::<DataflowEngine>(cuts), file);
        assert_eq!(chain5_slots(&[]), durable::Slots::default());
        for cut in 1..file.len() {
            let slots = chain5_slots(&file[..cut]);
            assert!(slots.chosen.is_none(), "truncation at {cut} slipped through");
            let refused = matches!(
                slots.refused.as_slice(),
                [(0, DataflowError::StateCorruption(_))]
            );
            assert!(refused, "truncation at {cut}: {:?}", slots.refused);
        }
        let slot_len = file.len() / 2;
        let newest = cuts.len() - 1;
        let start = newest * slot_len;
        for k in 0..record_end(&file[start..]) {
            let mut torn = file.clone();
            torn[start + k..start + slot_len].fill(0);
            let slots = chain5_slots(&torn);
            let refused: Vec<usize> = slots.refused.iter().map(|&(i, _)| i).collect();
            assert_eq!(refused, if k == 0 { vec![] } else { vec![newest] }, "{cuts:?}: k = {k}");
            assert_eq!(slots.chosen, slot_of(&file, 1 - newest), "{cuts:?}: k = {k}");
        }
        file.push(0);
        let slots = chain5_slots(&file);
        assert!(slots.chosen.is_none() && slots.refused.len() == 1, "{:?}", slots.refused);
    }
}

/// For every cut of the newest slot's write — its first `k` bytes
/// landed over the generation it replaces, the rest not — a restart
/// restores from the older slot, reports the damage (unless the image
/// is one of the two whole checkpoints) and lands on the uninterrupted
/// oracle.
#[test]
fn every_cut_of_the_newest_checkpoint_restores_from_the_older_slot() {
    fn check<E: Engine>() {
        let (c, q) = chain5();
        let batches = chain5_batches(&q);
        let dir = fresh_dir("torn-slot");
        let path = dir.join(durable::CHECKPOINT_FILE);
        let mut victim = E::fresh(&c, &q);
        victim.set_durable_dir(&dir).unwrap();
        victim.optimize();
        // Generations 1 and 2 in slots 0 and 1, then 3 over 1.
        for batch in &batches[..2] {
            victim.reoptimize(batch);
            victim.checkpoint_durable().unwrap();
        }
        victim.reoptimize(&batches[2]);
        let old = std::fs::read(&path).unwrap();
        victim.checkpoint_durable().unwrap();
        victim.reoptimize(&batches[3]);
        drop(victim); // the crash
        let new = std::fs::read(&path).unwrap();
        let slot_len = new.len() / 2;
        assert_eq!(new[slot_len..], old[slot_len..], "{}", E::NAME);
        let oracle = oracle_after::<E>(&c, &q, &batches);
        for k in 0..=record_end(&new) {
            let mut image = old.clone();
            image[..k].copy_from_slice(&new[..k]);
            std::fs::write(&path, &image).unwrap();
            let (rec, restart) = E::restart(&c, &q, &dir);
            let what = format!("{}: {k} bytes of the newest checkpoint landed", E::NAME);
            assert_eq!(restart.path, RecoveryPath::RestoredFromCheckpoint, "{what}");
            let whole = image == old || image == new;
            assert_eq!(restart.errors.len(), usize::from(!whole), "{what}");
            E::assert_same(&rec, &oracle, &what);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    for_both_engines!(check);
}

/// A restart followed by a checkpoint writes the other slot, never the
/// one it restored from — the newest one, or the older one when the
/// newest is torn — and after that checkpoint a second crash restores
/// from the new one.
#[test]
fn a_restart_never_overwrites_the_slot_it_restored_from() {
    fn check<E: Engine>() {
        let (c, q) = chain5();
        let (leaves, edges) = (q.n_leaves(), q.edges.len() as u32);
        let batches = chain5_batches(&q);
        for torn in [false, true] {
            let dir = checkpointed_victim::<E>(&c, &q, "restored-slot", &batches[..2], &[1, 2]);
            let path = dir.join(durable::CHECKPOINT_FILE);
            if torn {
                let mut file = std::fs::read(&path).unwrap();
                let slot_len = file.len() / 2;
                let end = slot_len + record_end(&file[slot_len..]);
                file[end - 3..end].fill(0);
                std::fs::write(&path, &file).unwrap();
            }
            let what = format!("{} (newest torn: {torn})", E::NAME);
            let (mut rec, restart) = E::restart(&c, &q, &dir);
            assert_eq!(restart.path, RecoveryPath::RestoredFromCheckpoint, "{what}");
            assert_eq!(restart.errors.len(), usize::from(torn), "{what}");
            let from = usize::from(!torn);
            let before = std::fs::read(&path).unwrap();
            rec.reoptimize(&batches[2]);
            rec.checkpoint_durable().unwrap();
            rec.reoptimize(&batches[3]);
            drop(rec); // the second crash
            let after = std::fs::read(&path).unwrap();
            let slot_len = after.len() / 2;
            let restored_from = from * slot_len..(from + 1) * slot_len;
            assert_eq!(after[restored_from.clone()], before[restored_from], "{what}");
            let slots = durable::read_slots(&after, leaves, edges, 4);
            let (slot, ckpt) = slots.chosen.unwrap();
            let generation = if torn { 2 } else { 3 };
            let got = (slot, ckpt.generation, ckpt.watermark);
            assert_eq!(got, (1 - from, generation, 3), "{what}");
            let (rec, restart) = E::restart(&c, &q, &dir);
            assert_eq!(restart, restored(), "{what}");
            E::assert_same(&rec, &oracle_after(&c, &q, &batches), &what);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    for_both_engines!(check);
}

/// A newest slot whose watermark is beyond the intact WAL is refused —
/// reported, and zeroed so a log grown past it later cannot make it
/// usable — and the restart restores from the older slot.
#[test]
fn a_newest_slot_beyond_the_wal_falls_back_to_the_older_slot() {
    fn check<E: Engine>() {
        let (c, q) = chain5();
        let (leaves, edges) = (q.n_leaves(), q.edges.len() as u32);
        let batches = chain5_batches(&q);
        let dir = checkpointed_victim::<E>(&c, &q, "beyond", &batches, &[2, 4]);
        let image = durable::encode_checkpoint(3, 9, 5, leaves, edges, &[]);
        write_slot(&dir, 1, &image);
        let why = "beyond the 4 intact WAL records";
        assert_restores_beside_a_refused_slot::<E>(&c, &q, &dir, &batches, why);
        let file = std::fs::read(dir.join(durable::CHECKPOINT_FILE)).unwrap();
        assert!(file[image.len()..].iter().all(|&b| b == 0), "{}", E::NAME);
        let _ = std::fs::remove_dir_all(&dir);
    }
    for_both_engines!(check);
}

/// A checkpoint in the layout of older builds — version 1: one record
/// without a generation, the whole file — is refused by its version,
/// answered from the whole WAL, and replaced by two empty slots, which
/// the next restart reads as no checkpoint at all.
#[test]
fn a_version_1_checkpoint_is_refused_by_its_version() {
    fn check<E: Engine>() {
        let (c, q) = chain5();
        let batches = chain5_batches(&q);
        let dir = crashed_victim::<E>(&c, &q, "ckpt-v1", &batches[..2], &batches[2..]);
        let path = dir.join(durable::CHECKPOINT_FILE);
        let allocated = std::fs::metadata(&path).unwrap().len() as usize;
        let mut payload = Vec::new();
        for word in [2u64, 3] {
            payload.extend_from_slice(&word.to_le_bytes());
        }
        for word in [q.n_leaves(), q.edges.len() as u32, 0] {
            payload.extend_from_slice(&word.to_le_bytes());
        }
        let mut v1 = b"RPRM".to_vec();
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        v1.extend_from_slice(&durable::crc32(&payload).to_le_bytes());
        v1.extend_from_slice(&payload);
        std::fs::write(&path, &v1).unwrap();
        let why = "unsupported checkpoint version 1";
        assert_degrades_to_the_whole_wal::<E>(&c, &q, &dir, &batches, why);
        assert_eq!(std::fs::read(&path).unwrap(), vec![0; allocated], "{}", E::NAME);
        let (_, restart) = E::restart(&c, &q, &dir);
        let rebuilt = Restart {
            path: RecoveryPath::RebuiltFromScratch,
            errors: Vec::new(),
        };
        assert_eq!(restart, rebuilt, "{}", E::NAME);
        let _ = std::fs::remove_dir_all(&dir);
    }
    for_both_engines!(check);
}
