//! Crash-recovery tests for durable engines, each run for the
//! hand-rolled engine (`hr`, `Durable<IncrementalOptimizer>`) and the
//! declarative one (`decl`, `DataflowOptimizer`): every epoch that
//! changes a parameter writes the parameter image into one of the two
//! slots of the directory's checkpoint file, the victim is "crashed"
//! (dropped) at a random point of a random delta sequence, and a fresh
//! instance restarts from the file — which must land on exactly the
//! state of an oracle that never crashed. Corruption variants seed
//! damage into the file and require detection plus graceful
//! degradation, never a panic and never a silently wrong plan.

mod common;

use std::path::Path;

use proptest::prelude::*;

use reopt_bridge::{durable, DataflowEngine, RecoveryPath, Restart};
use reopt_catalog::Catalog;
use reopt_core::fixtures::deltas_for;
use reopt_core::IncrementalOptimizer;
use reopt_cost::ParamDelta;
use reopt_datalog::DataflowError;
use reopt_expr::{EdgeId, LeafId, QuerySpec};

use common::{
    build, chain5, chain5_batches, crashed_victim, fresh_dir, oracle_after, query_gen, Engine,
    QueryGen,
};

/// `check` for both engines.
macro_rules! for_both_engines {
    ($check:ident $(, $arg:expr)*) => {{
        $check::<IncrementalOptimizer>($($arg),*);
        $check::<DataflowEngine>($($arg),*);
    }};
}

/// Where the record in a slot image ends: magic, version, the record's
/// length and CRC, then the payload its length claims.
fn record_end(slot: &[u8]) -> usize {
    16 + u32::from_le_bytes(slot[8..12].try_into().unwrap()) as usize
}

/// Flips bit `bit` of a byte of slot `slot` in `dir`: an even `byte_sel`
/// selects a byte of its record (magic and version included), an odd one
/// a byte of the zero padding behind it.
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

/// Overwrites slot `slot` in `dir` with `image`, zero-padded.
fn write_slot(dir: &Path, slot: usize, image: &[u8]) {
    use std::os::unix::fs::FileExt as _;
    let path = dir.join(durable::CHECKPOINT_FILE);
    let slot_len = std::fs::metadata(&path).unwrap().len() as usize / 2;
    assert!(image.len() <= slot_len, "an image longer than its slot");
    let mut padded = image.to_vec();
    padded.resize(slot_len, 0);
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.write_all_at(&padded, (slot * slot_len) as u64).unwrap();
}

/// What a restart of query `q` reads in the checkpoint file in `dir`.
fn slots_in(dir: &Path, q: &QuerySpec) -> durable::Slots {
    let file = std::fs::read(dir.join(durable::CHECKPOINT_FILE)).unwrap();
    durable::read_slots(&file, q.n_leaves(), q.edges.len() as u32)
}

/// Slot `slot` of the checkpoint file in `dir` for query `q`, decoded:
/// `None` when empty.
fn slot_image(dir: &Path, q: &QuerySpec, slot: usize) -> Option<durable::Checkpoint> {
    let file = std::fs::read(dir.join(durable::CHECKPOINT_FILE)).unwrap();
    let image = &file[slot * file.len() / 2..(slot + 1) * file.len() / 2];
    durable::decode_checkpoint(image, q.n_leaves(), q.edges.len() as u32).unwrap()
}

/// A clean restart from an image.
fn restored() -> Restart {
    Restart {
        path: RecoveryPath::RestoredFromCheckpoint,
        errors: Vec::new(),
    }
}

/// Whether `errors` are exactly the refusals of the damaged slots — each
/// mentioning its `why` — and the report that the restart is at base
/// estimates.
fn refused_then_lost(errors: &[DataflowError], whys: &[&str]) -> bool {
    let Some((lost, refusals)) = errors.split_last() else {
        return false;
    };
    let mentions = |e: &DataflowError, why: &str| {
        matches!(e, DataflowError::StateCorruption(m) if m.contains(why))
    };
    refusals.len() == whys.len()
        && refusals.iter().zip(whys).all(|(e, why)| mentions(e, why))
        && mentions(lost, "restarts at its base estimate")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The bridge lockstep variant of the substrate crash suite: a
    /// victim runs a random delta sequence, with `checkpoint_durable`
    /// called at a random point, and crashes. Recovery must land on the
    /// exact state of an uninterrupted oracle, with the victim's epoch
    /// count (plus its own), and then resume incrementally in lockstep.
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
            let epochs = victim.epochs_seen();
            drop(victim); // the crash

            let (mut rec, restart) = E::restart(&c, &q, &dir);
            prop_assert_eq!(restart, restored());
            E::assert_same(&rec, &oracle, "after recovery");
            prop_assert_eq!(rec.epochs_seen(), epochs + 1, "epochs_seen diverged");

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

    /// A seeded bit flip in a written slot — in its record or in its
    /// zero padding — must be detected (CRC, bounds checks, the padding
    /// read as zeros) and reported, and costs time, never correctness.
    /// Beside a second image, the newest or the older one flipped, the
    /// restart restores exactly the other; in the only written slot it
    /// rebuilds at base estimates and says so.
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
            let dir = fresh_dir("flip");
            let mut victim = E::fresh(&c, &q);
            victim.set_durable_dir(&dir).unwrap();
            victim.optimize();
            let applied = &batches[..if second { batches.len() } else { 1 }];
            for batch in applied {
                victim.reoptimize(batch);
            }
            victim.checkpoint_durable().unwrap(); // at least one image
            drop(victim);
            let (newest_slot, _) = slots_in(&dir, &q).chosen.unwrap();
            let older = slot_image(&dir, &q, 1 - newest_slot);
            let flipped = if older.is_some() && !newest { 1 - newest_slot } else { newest_slot };
            flip_slot_bit(&dir, flipped, byte_sel, bit);

            let (rec, restart) = E::restart(&c, &q, &dir);
            let what = format!("{}: flip of bit {bit} of byte {byte_sel}", E::NAME);
            // What the slot left intact holds: nothing, the older image,
            // or every batch applied.
            let want = match older {
                None => {
                    let path = RecoveryPath::RebuiltAfterCorruptCheckpoint;
                    prop_assert_eq!(restart.path, path, "{}", what);
                    let reported = refused_then_lost(&restart.errors, &["slot"]);
                    prop_assert!(reported, "{}: {:?}", what, restart.errors);
                    Vec::new()
                }
                Some(older) => {
                    prop_assert_eq!(restart.path, RecoveryPath::RestoredFromCheckpoint, "{}", what);
                    prop_assert_eq!(restart.errors.len(), 1, "{}: the damage must be reported", what);
                    if flipped == newest_slot { vec![older.log] } else { applied.to_vec() }
                }
            };
            E::assert_same(&rec, &oracle_after(&c, &q, &want), &what);
            let _ = std::fs::remove_dir_all(&dir);
        }
        for_both_engines!(check, &gen, &seq, second, newest, byte_sel, bit);
    }

    /// The one guarantee a damaged file cannot keep: with both slots
    /// damaged nothing is left to restore from, so the restart rebuilds
    /// at base estimates as `RebuiltAfterCorruptCheckpoint`, reporting
    /// each slot and that every parameter restarts at its base estimate
    /// — never a panic, never an inconsistent engine — and the directory
    /// it re-arms takes new images that the next restart restores.
    #[test]
    fn damage_to_both_slots_rebuilds_at_base_estimates(
        gen in query_gen(4),
        seq in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 2..5),
        byte_sel in (any::<u32>(), any::<u32>()),
        bit in (0u8..8, 0u8..8),
        resume in (any::<u8>(), any::<u8>(), any::<u8>()),
    ) {
        fn check<E: Engine>(
            gen: &QueryGen,
            seq: &[(u8, u8, u8)],
            byte_sel: (u32, u32),
            bit: (u8, u8),
            resume: (u8, u8, u8),
        ) {
            let (c, q) = build(gen);
            let batches: Vec<_> = seq.iter().map(|&raw| deltas_for(&q, &[raw], false)).collect();
            let dir = fresh_dir("both-slots");
            let mut victim = E::fresh(&c, &q);
            victim.set_durable_dir(&dir).unwrap();
            victim.optimize();
            victim.checkpoint_durable().unwrap();
            for batch in &batches {
                victim.reoptimize(batch);
            }
            drop(victim);
            // An empty slot (no batch changed a parameter) is damaged too.
            flip_slot_bit(&dir, 0, byte_sel.0, bit.0);
            flip_slot_bit(&dir, 1, byte_sel.1, bit.1);

            let (mut rec, restart) = E::restart(&c, &q, &dir);
            let name = E::NAME;
            prop_assert_eq!(restart.path, RecoveryPath::RebuiltAfterCorruptCheckpoint, "{}", name);
            let reported = refused_then_lost(&restart.errors, &["slot 0", "slot 1"]);
            prop_assert!(reported, "{}: {:?}", name, restart.errors);
            E::assert_same(&rec, &oracle_after(&c, &q, &[]), "at base estimates");
            let audit = E::audit(&mut rec);
            prop_assert!(audit.is_ok(), "{}: {:?}", name, audit);

            let deltas = deltas_for(&q, &[resume], false);
            rec.reoptimize(&deltas);
            rec.checkpoint_durable().unwrap();
            drop(rec);
            let (rec, restart) = E::restart(&c, &q, &dir);
            prop_assert_eq!(restart, restored());
            E::assert_same(&rec, &oracle_after(&c, &q, &[deltas]), "after the rebuilt one's epoch");
            let _ = std::fs::remove_dir_all(&dir);
        }
        for_both_engines!(check, &gen, &seq, byte_sel, bit, resume);
    }
}

/// The acceptance scenario, pinned deterministically: warm a chain-5
/// engine through several epochs (a `checkpoint_durable` midway writes
/// nothing), crash, recover — exactly the uninterrupted run's state,
/// then lockstep resume.
#[test]
fn chain5_restart_resumes_from_the_last_epoch() {
    fn check<E: Engine>() {
        let (c, q) = chain5();
        let batches = chain5_batches(&q);
        let dir = fresh_dir("chain5");
        let mut victim = E::fresh(&c, &q);
        victim.set_durable_dir(&dir).unwrap();
        victim.optimize();
        for (i, batch) in batches.iter().enumerate() {
            victim.reoptimize(batch);
            if i == 1 {
                victim.checkpoint_durable().unwrap();
            }
        }
        drop(victim);
        let mut oracle = oracle_after::<E>(&c, &q, &batches);

        let (mut rec, restart) = E::restart(&c, &q, &dir);
        assert_eq!(restart, restored(), "{}", E::NAME);
        E::assert_same(&rec, &oracle, "after chain5 recovery");
        let (chosen, image) = slots_in(&dir, &q).chosen.unwrap();
        assert_eq!((chosen, image.generation), (1, 4), "{}: one image per epoch", E::NAME);

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

/// Crashing before `checkpoint_durable` was ever called loses nothing:
/// every acknowledged epoch already wrote its image.
#[test]
fn a_crash_before_any_checkpoint_call_loses_nothing() {
    fn check<E: Engine>() {
        let (c, q) = chain5();
        let batches = chain5_batches(&q);
        let dir = crashed_victim::<E>(&c, &q, "nockpt", &batches);
        let (rec, restart) = E::restart(&c, &q, &dir);
        assert_eq!(restart, restored(), "{}", E::NAME);
        E::assert_same(&rec, &oracle_after(&c, &q, &batches), "with no checkpoint call");
        let _ = std::fs::remove_dir_all(&dir);
    }
    for_both_engines!(check);
}

/// Cross-process restart: a child process (fresh interner) warms a
/// durable engine, then exits; the parent — whose interner is
/// deliberately shifted by decoy strings — recovers from the same
/// directory. Nothing on disk names an interned symbol — the file holds
/// parameters — so the recovered state is the oracle's.
#[test]
fn durable_state_survives_a_process_boundary() {
    let test = "durable_state_survives_a_process_boundary";
    for_both_engines!(across_a_process_boundary, test, false);
}

/// The same child, killed by `abort()` the moment its last `reoptimize`
/// returns — no destructor after it: a returned `reoptimize` is an
/// acknowledged batch, so recovery restores it.
#[test]
fn an_acknowledged_batch_survives_an_abort() {
    let test = "an_acknowledged_batch_survives_an_abort";
    for_both_engines!(across_a_process_boundary, test, true);
}

/// The two tests above: `test` re-runs itself as the child, which runs
/// engine `E` through `chain5_batches` (calling `checkpoint_durable`
/// after the third) and then exits — or aborts, with `abort`.
fn across_a_process_boundary<E: Engine>(test: &str, abort: bool) {
    const DIR: &str = "REOPT_BRIDGE_CRASH_DIR";
    const ENGINE: &str = "REOPT_BRIDGE_CRASH_ENGINE";
    let (c, q) = chain5();
    let batches = chain5_batches(&q);

    if let Ok(dir) = std::env::var(DIR) {
        if std::env::var(ENGINE).as_deref() != Ok(E::NAME) {
            return; // the child of the other engine's run
        }
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

/// A failed write or sync is cut back off the file — its own slot
/// zeroed — and never touches the slot that holds the last acknowledged
/// image. The second image's sync fails: the batch is reported as
/// in-memory only, its slot is zeroed, and a crash then
/// restores the first epoch; the next epoch writes an image holding the
/// failed batch too, which a crash then restores. When zeroing fails as
/// well (faked: the image it could not zero stays, holding the batch
/// the engine applied in memory), nothing more is written — not by an
/// epoch, not by `checkpoint_durable`.
#[test]
fn a_failed_fsync_is_cut_back_off_the_log() {
    fn check<E: Engine>() {
        let (c, q) = chain5();
        let batches = chain5_batches(&q);
        for zero_too in [false, true] {
            let dir = fresh_dir("sync-fault");
            let path = dir.join(durable::CHECKPOINT_FILE);
            let what = format!("{} (zeroing fails too: {zero_too})", E::NAME);
            let mut victim = E::fresh(&c, &q);
            victim.set_durable_dir(&dir).unwrap();
            victim.optimize();
            victim.reoptimize(&batches[0]);
            let acked = std::fs::read(&path).unwrap();
            let slot_len = acked.len() / 2;
            victim.inject_write_fault(durable::WriteFault { generation: 2, zero_too });
            victim.reoptimize(&batches[1]);
            let error = &victim.last_write().error;
            let stops = if zero_too { "image writes stop" } else { "injected image sync failure" };
            assert!(
                matches!(error, Some(DataflowError::StateCorruption(m))
                    if m.contains("in-memory for this batch") && m.contains(stops)),
                "{what}: {error:?}"
            );
            let after = std::fs::read(&path).unwrap();
            assert_eq!(after[..slot_len], acked[..slot_len], "{what}: the acknowledged slot");
            let zeroed = after[slot_len..].iter().all(|&b| b == 0);
            assert_eq!(zeroed, !zero_too, "{what}");
            let kept = if zero_too { 2 } else { 1 };
            let (rec, restart) = E::restart(&c, &q, &dir);
            assert_eq!(restart, restored(), "{what}");
            E::assert_same(&rec, &oracle_after(&c, &q, &batches[..kept]), &what);
            drop(rec);

            victim.reoptimize(&batches[2]);
            let checkpoint = victim.checkpoint_durable();
            let error = victim.last_write().error.clone();
            drop(victim);
            let (rec, restart) = E::restart(&c, &q, &dir);
            assert_eq!(restart, restored(), "{what}");
            if zero_too {
                let stopped = matches!(&error, Some(DataflowError::StateCorruption(m))
                    if m.contains("image writes stopped"));
                assert!(stopped, "{what}: {error:?}");
                assert!(checkpoint.is_err(), "{what}");
                assert_eq!(std::fs::read(&path).unwrap(), after, "{what}: written after a stop");
                E::assert_same(&rec, &oracle_after(&c, &q, &batches[..kept]), &what);
            } else {
                assert_eq!((error, checkpoint.ok()), (None, Some(())), "{what}");
                E::assert_same(&rec, &oracle_after(&c, &q, &batches[..3]), &what);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    for_both_engines!(check);
    // The declarative engine's outcome carries the failure too, where
    // its recovery report counts it as unclean.
    let (c, q) = chain5();
    let dir = fresh_dir("sync-fault-outcome");
    let mut victim = DataflowEngine::fresh(&c, &q);
    victim.set_durable_dir(&dir).unwrap();
    victim.inject_write_fault(durable::WriteFault { generation: 1, zero_too: false });
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
/// engine must not arm: a restart would rebuild a state it never held
/// (the live cost 276 227.0 against a restart's 88 827.3 on the
/// declarative engine, with no error reported, while the directory held
/// a log). Refused with `InvalidInput`, the engine stays unarmed and the
/// file untouched; the engine restarted from it arms it again.
#[test]
fn arming_a_directory_another_engine_wrote_is_refused() {
    fn check<E: Engine>() {
        let (c, q) = chain5();
        let batches = chain5_batches(&q);
        let dir = crashed_victim::<E>(&c, &q, "foreign-history", &batches[..2]);
        let file = std::fs::read(dir.join(durable::CHECKPOINT_FILE)).unwrap();

        let mut b = E::fresh(&c, &q);
        let err = b.set_durable_dir(&dir).expect_err("a history that is not the engine's");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{}", E::NAME);
        assert!(b.durable_dir().is_none(), "{}", E::NAME);
        b.reoptimize(&batches[2]);
        assert_eq!(std::fs::read(dir.join(durable::CHECKPOINT_FILE)).unwrap(), file);

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
        assert_eq!(restart, restored(), "{}", E::NAME);
        E::assert_same(&rec, &oracle_after(&c, &q, &batches[1..2]), "armed after a reset");
        let _ = std::fs::remove_dir_all(&dir);
    }
    for_both_engines!(check);
}

/// An image an older build wrote — of the same format and version, but
/// listing only the parameters ever written, each once, in first-write
/// order — restores as the state it describes; the next image, which
/// lists every parameter, is written over it whole, and restores too.
#[test]
fn an_image_of_the_last_writes_alone_restores() {
    fn check<E: Engine>() {
        let (c, q) = chain5();
        let batches = chain5_batches(&q);
        let (leaves, edges) = (q.n_leaves(), q.edges.len() as u32);
        let dir = crashed_victim::<E>(&c, &q, "older-image", &batches[..2]);
        let written = slot_image(&dir, &q, 1).unwrap();
        // One delta per parameter written, in the order of a first-write
        // log whose batches came newest first: not (kind, id) order.
        let mut last_writes: Vec<ParamDelta> = Vec::new();
        for &d in batches[..2].iter().rev().flatten() {
            if !last_writes.iter().any(|w| same_parameter(*w, d)) {
                last_writes.push(d);
            }
        }
        assert!(last_writes.len() < written.log.len(), "{}", E::NAME);
        let older = durable::encode_checkpoint(2, written.epochs_seen, leaves, edges, &last_writes);
        write_slot(&dir, 1, &older);

        let (mut rec, restart) = E::restart(&c, &q, &dir);
        assert_eq!(restart, restored(), "{}", E::NAME);
        let oracle = oracle_after::<E>(&c, &q, &batches[..2]);
        E::assert_same(&rec, &oracle, "an older build's image");
        assert_eq!(rec.cost_context().factors(), oracle.cost_context().factors(), "{}", E::NAME);
        // Images 3 (slot 0) and 4 (slot 1, over the older build's).
        rec.reoptimize(&batches[2]);
        rec.reoptimize(&batches[3]);
        drop(rec);
        let (slot, image) = slots_in(&dir, &q).chosen.unwrap();
        assert_eq!((slot, image.generation, image.log.len()), (1, 4, written.log.len()));
        let (rec, restart) = E::restart(&c, &q, &dir);
        assert_eq!(restart, restored(), "{}", E::NAME);
        E::assert_same(&rec, &oracle_after(&c, &q, &batches), "over an older build's image");
        let _ = std::fs::remove_dir_all(&dir);
    }
    for_both_engines!(check);
}

/// Whether `a` and `b` write the same parameter.
fn same_parameter(a: ParamDelta, b: ParamDelta) -> bool {
    at_base(a) == at_base(b)
}

/// A delta naming an id the query does not have sets no parameter, so
/// no image lists it: a durable walk whose batches mix real deltas with
/// ids one past the query's acknowledges every epoch and restarts as
/// `RestoredFromCheckpoint` on the oracle that applied only the real
/// deltas (an image listing the stray id was refused as "outside this
/// query", losing every acknowledged parameter to a rebuild at base
/// estimates).
#[test]
fn ids_the_query_does_not_have_are_never_imaged() {
    fn check<E: Engine>() {
        use ParamDelta::{EdgeSelectivity as Sel, LeafCardinality as Card, LeafScanCost as Scan};
        let (c, q) = chain5();
        let (leaf, edge) = (LeafId(q.n_leaves()), EdgeId(q.edges.len() as u32));
        let batches = [
            vec![Sel(EdgeId(0), 2.0)],
            vec![Sel(edge, 2.0), Card(LeafId(1), 4.0)],
            vec![Card(leaf, 0.5), Scan(leaf, 3.0)],
            vec![Card(LeafId(0), 3.0), Scan(leaf, 2.0)],
        ];
        let dir = fresh_dir("stray-ids");
        let mut victim = E::fresh(&c, &q);
        victim.set_durable_dir(&dir).unwrap();
        victim.optimize();
        for batch in &batches {
            victim.reoptimize(batch);
            assert_eq!(victim.last_write().error, None, "{}: {batch:?}", E::NAME);
        }
        drop(victim);
        let in_query = |d: &ParamDelta| match *d {
            Sel(e, _) => e.0 < edge.0,
            Card(l, _) | Scan(l, _) => l.0 < leaf.0,
        };
        let real: Vec<Vec<ParamDelta>> =
            batches.iter().map(|b| b.iter().copied().filter(in_query).collect()).collect();
        let (rec, restart) = E::restart(&c, &q, &dir);
        assert_eq!(restart, restored(), "{}", E::NAME);
        let oracle = oracle_after::<E>(&c, &q, &real);
        E::assert_same(&rec, &oracle, "real deltas only");
        assert_eq!(rec.cost_context().factors(), oracle.cost_context().factors(), "{}", E::NAME);
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

/// The file holds parameters only: a directory a durable `hr` wrote
/// restarts `decl` (through `DataflowOptimizer::recover`) to the
/// writer's parameters, epoch count (plus the restart's own), cost and
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
        for batch in &batches {
            writer.reoptimize(batch);
        }
        let (factors, epochs) = (writer.cost_context().factors().clone(), writer.epochs_seen());
        let (cost, plan) = W::best(&writer);
        drop(writer);

        let (rec, restart) = R::restart(&c, &q, &dir);
        let what = format!("{} wrote, {} restarted", W::NAME, R::NAME);
        assert_eq!(restart, restored(), "{what}");
        assert_eq!(rec.cost_context().factors(), &factors, "{what}");
        assert_eq!(rec.epochs_seen(), epochs + 1, "{what}");
        let (got_cost, got_plan) = R::best(&rec);
        assert!(got_cost.approx_eq(cost), "{what}: {got_cost:?} vs {cost:?}");
        assert_eq!(got_plan, plan, "{what}");
        let _ = std::fs::remove_dir_all(&dir);
    }
    check::<IncrementalOptimizer, DataflowEngine>();
    check::<DataflowEngine, IncrementalOptimizer>();
}

/// Restarts `dir` with engine `E` and checks that it rebuilt at base
/// estimates as [`RecoveryPath::RebuiltAfterCorruptCheckpoint`],
/// reporting the refusal (mentioning `why`) and the lost parameters.
fn assert_rebuilds_at_base<E: Engine>(c: &Catalog, q: &QuerySpec, dir: &Path, why: &str) {
    let (rec, restart) = E::restart(c, q, dir);
    assert_eq!(restart.path, RecoveryPath::RebuiltAfterCorruptCheckpoint, "{}", E::NAME);
    assert!(refused_then_lost(&restart.errors, &[why]), "{}: {:?}", E::NAME, restart.errors);
    let oracle = oracle_after::<E>(c, q, &[]);
    E::assert_same(&rec, &oracle, why);
    assert_eq!(rec.cost_context().factors(), oracle.cost_context().factors(), "{}", E::NAME);
}

/// Restarts `dir` with engine `E` and checks that it restored from an
/// image, reporting one error that mentions `why` (the refused slot),
/// and landed on the oracle that applied `batches`.
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

/// The checkpoints older builds cut were network images: four records
/// (meta, delta log, `LocalCost` mirror, embedded network) under the
/// magic `RCKP`. One left in a durable directory is refused by its
/// magic, rebuilt from at base estimates and replaced by two empty
/// slots. The same image in the newest slot is refused there, and the
/// restart restores the older slot: the epoch before the last.
#[test]
fn an_old_network_image_degrades_to_an_exact_rebuild() {
    fn check<E: Engine>() {
        let (c, q) = chain5();
        let batches = chain5_batches(&q);
        let dir = crashed_victim::<E>(&c, &q, "old-image", &batches);
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
        assert_rebuilds_at_base::<E>(&c, &q, &dir, "bad checkpoint magic");
        assert_eq!(std::fs::read(&path).unwrap(), vec![0; allocated as usize], "{}", E::NAME);
        let _ = std::fs::remove_dir_all(&dir);

        let dir = crashed_victim::<E>(&c, &q, "old-image-slot", &batches);
        image.resize(allocated as usize / 2, 0);
        write_slot(&dir, 1, &image);
        let why = "bad checkpoint magic";
        assert_restores_beside_a_refused_slot::<E>(&c, &q, &dir, &batches[..3], why);
        let _ = std::fs::remove_dir_all(&dir);
    }
    for_both_engines!(check);
}

/// A well-formed image that is not this query's — written for another
/// shape, or logging a leaf the query lacks — is corruption, never
/// loaded, whatever its generation: the shape guard and the range check
/// on every logged parameter refuse it. In the only written slot the
/// restart rebuilds at base estimates; in the newest of two, the older
/// slot answers.
#[test]
fn a_checkpoint_of_another_query_is_corruption_not_misrestore() {
    fn check<E: Engine>() {
        let (c, q) = chain5();
        let batches = chain5_batches(&q);
        let (leaves, edges) = (q.n_leaves(), q.edges.len() as u32);
        let stray = [ParamDelta::LeafCardinality(LeafId(leaves), 2.0)];
        for (image, why) in [
            (durable::encode_checkpoint(9, 3, leaves + 1, edges, &[]), "leaves"),
            (durable::encode_checkpoint(9, 3, leaves, edges - 1, &[]), "edges"),
            (durable::encode_checkpoint(9, 3, leaves, edges, &stray), "outside this query"),
        ] {
            let dir = crashed_victim::<E>(&c, &q, "other-query", &batches[..1]);
            write_slot(&dir, 0, &image);
            assert_rebuilds_at_base::<E>(&c, &q, &dir, why);
            let _ = std::fs::remove_dir_all(&dir);

            let dir = crashed_victim::<E>(&c, &q, "other-query-slot", &batches);
            write_slot(&dir, 1, &image);
            assert_restores_beside_a_refused_slot::<E>(&c, &q, &dir, &batches[..3], why);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    for_both_engines!(check);
}

/// The checkpoint file a chain-5 engine `E` leaves after the first `n`
/// of `chain5_batches`.
fn chain5_file<E: Engine>(n: usize) -> Vec<u8> {
    let (c, q) = chain5();
    let dir = crashed_victim::<E>(&c, &q, "format", &chain5_batches(&q)[..n]);
    let bytes = std::fs::read(dir.join(durable::CHECKPOINT_FILE)).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

/// What a restart reads in checkpoint file image `file` of chain 5.
fn chain5_slots(file: &[u8]) -> durable::Slots {
    let (_, q) = chain5();
    durable::read_slots(file, q.n_leaves(), q.edges.len() as u32)
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

/// Both engines write the same file for the same history, and every
/// single-bit flip in either slot is [`DataflowError::StateCorruption`]
/// — every bit of its record (magic, version, frame, payload) and one in
/// every byte of its zero padding: never a panic, never an image that
/// decodes to something else. With the only written slot flipped the
/// file holds no image; with either of two flipped, a restart reads
/// exactly the other.
#[test]
fn every_bit_flip_in_a_checkpoint_is_detected() {
    let (_, q) = chain5();
    let (leaves, edges) = (q.n_leaves(), q.edges.len() as u32);
    for n in [1, 4] {
        let file = chain5_file::<DataflowEngine>(n);
        assert_eq!(chain5_file::<IncrementalOptimizer>(n), file);
        let intact = chain5_slots(&file);
        let (newest, c) = intact.chosen.as_ref().unwrap();
        assert_eq!((*newest, c.generation), ((n + 1) % 2, n as u64));
        let params = q.edges.len() + 2 * leaves as usize;
        assert_eq!((c.log.len(), intact.refused.len()), (params, 0));
        let slot_len = file.len() / 2;
        for slot in 0..n.min(2) {
            let start = slot * slot_len;
            let end = record_end(&file[start..]);
            let padding = (end..slot_len).map(|at| at * 8 + at % 8);
            for bit in (0..end * 8).chain(padding) {
                let mut evil = file.clone();
                evil[start + bit / 8] ^= 1 << (bit % 8);
                let r = durable::decode_checkpoint(&evil[start..start + slot_len], leaves, edges);
                assert!(
                    matches!(r, Err(DataflowError::StateCorruption(_))),
                    "{n} epochs: flip of bit {bit} of slot {slot} slipped through: {r:?}"
                );
                let slots = chain5_slots(&evil);
                assert!(matches!(slots.refused.as_slice(), [(s, _)] if *s == slot));
                assert_eq!(slots.chosen, slot_of(&file, 1 - slot), "{n} epochs: bit {bit}");
            }
        }
    }
}

/// Every truncation of a checkpoint file, and anything appended to one,
/// refuses the file as a whole (an empty file is a missing one). Every
/// cut of a slot's write — its first `k` bytes landed, the zeros they
/// replace behind them — is [`DataflowError::StateCorruption`] unless
/// nothing landed: in the only written slot the file then holds no
/// image, beside a second one a restart reads exactly the other.
#[test]
fn every_truncation_of_a_checkpoint_is_detected() {
    for n in [1, 2] {
        let mut file = chain5_file::<IncrementalOptimizer>(n);
        assert_eq!(chain5_file::<DataflowEngine>(n), file);
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
        let newest = n - 1;
        let start = newest * slot_len;
        for k in 0..record_end(&file[start..]) {
            let mut torn = file.clone();
            torn[start + k..start + slot_len].fill(0);
            let slots = chain5_slots(&torn);
            let refused: Vec<usize> = slots.refused.iter().map(|&(i, _)| i).collect();
            assert_eq!(refused, if k == 0 { vec![] } else { vec![newest] }, "{n}: k = {k}");
            assert_eq!(slots.chosen, slot_of(&file, 1 - newest), "{n}: k = {k}");
        }
        file.push(0);
        let slots = chain5_slots(&file);
        assert!(slots.chosen.is_none() && slots.refused.len() == 1, "{:?}", slots.refused);
    }
}

/// For every cut of the in-flight image — its first `k` bytes landed
/// over the slot it overwrites, the rest not — a restart restores the
/// previous epoch exactly, reporting the damage unless the slot holds
/// one of the two whole images; once every byte landed it restores the
/// new epoch. The first image of a directory is in flight over an empty
/// slot: a cut of it rebuilds at base estimates — never the clean first
/// boot of an empty file, once anything landed.
#[test]
fn every_cut_of_the_newest_checkpoint_restores_from_the_older_slot() {
    fn check<E: Engine>() {
        let (c, q) = chain5();
        let batches = chain5_batches(&q);
        for n in [0, 3] {
            let dir = crashed_victim::<E>(&c, &q, "torn-slot", &batches[..n]);
            let path = dir.join(durable::CHECKPOINT_FILE);
            let old = std::fs::read(&path).unwrap();
            let (mut victim, _) = E::restart(&c, &q, &dir);
            victim.reoptimize(&batches[n]); // the image in flight
            drop(victim);
            let new = std::fs::read(&path).unwrap();
            let slot_len = new.len() / 2;
            // Image n + 1 goes to slot n % 2; the other slot stays as it was.
            let (at, other) = ((n % 2) * slot_len, (1 - n % 2) * slot_len);
            assert_eq!(new[other..other + slot_len], old[other..other + slot_len], "{}", E::NAME);
            let before = oracle_after::<E>(&c, &q, &batches[..n]);
            let after = oracle_after::<E>(&c, &q, &batches[..=n]);
            let ends = [&old, &new].map(|f| record_end(&f[at..]));
            for k in 0..=ends[0].max(ends[1]) {
                let mut image = old.clone();
                image[at..at + k].copy_from_slice(&new[at..at + k]);
                std::fs::write(&path, &image).unwrap();
                let (rec, restart) = E::restart(&c, &q, &dir);
                let what = format!("{}: {k} bytes of image {} landed", E::NAME, n + 1);
                if image == new {
                    assert_eq!(restart, restored(), "{what}");
                    E::assert_same(&rec, &after, &what);
                    continue;
                }
                let whole = image == old;
                let path = match n {
                    0 if whole => RecoveryPath::Committed,
                    0 => RecoveryPath::RebuiltAfterCorruptCheckpoint,
                    _ => RecoveryPath::RestoredFromCheckpoint,
                };
                assert_eq!(restart.path, path, "{what}");
                let errors = if whole { 0 } else if n == 0 { 2 } else { 1 };
                assert_eq!(restart.errors.len(), errors, "{what}: {:?}", restart.errors);
                E::assert_same(&rec, &before, &what);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    for_both_engines!(check);
}

/// A restart followed by an epoch writes the other slot, never the one
/// it restored from — the newest one, or the older one when the newest
/// is torn — and a second crash then restores that epoch.
#[test]
fn a_restart_never_overwrites_the_slot_it_restored_from() {
    fn check<E: Engine>() {
        let (c, q) = chain5();
        let batches = chain5_batches(&q);
        for torn in [false, true] {
            let dir = crashed_victim::<E>(&c, &q, "restored-slot", &batches[..2]);
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
            drop(rec); // the second crash
            let after = std::fs::read(&path).unwrap();
            let slot_len = after.len() / 2;
            let restored_from = from * slot_len..(from + 1) * slot_len;
            assert_eq!(after[restored_from.clone()], before[restored_from], "{what}");
            let (slot, image) = slots_in(&dir, &q).chosen.unwrap();
            let generation = if torn { 2 } else { 3 };
            assert_eq!((slot, image.generation), (1 - from, generation), "{what}");
            let (rec, restart) = E::restart(&c, &q, &dir);
            assert_eq!(restart, restored(), "{what}");
            let history = [&batches[..2 - usize::from(torn)], &batches[2..3]].concat();
            E::assert_same(&rec, &oracle_after(&c, &q, &history), &what);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    for_both_engines!(check);
}

/// A checkpoint file in the layout of older builds is refused by its
/// version, never misread: version 1 (one record, no generation, the
/// whole file) is refused as a whole and replaced by two empty slots,
/// which the next restart reads as a first boot; a version-2 slot (a
/// checkpoint a write-ahead log completed) is refused in its slot. In
/// the only written slot either rebuilds at base estimates.
#[test]
fn a_version_1_checkpoint_is_refused_by_its_version() {
    fn check<E: Engine>() {
        let (c, q) = chain5();
        let batches = chain5_batches(&q);
        let dir = crashed_victim::<E>(&c, &q, "ckpt-v1", &batches);
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
        assert_rebuilds_at_base::<E>(&c, &q, &dir, "unsupported checkpoint version 1");
        assert_eq!(std::fs::read(&path).unwrap(), vec![0; allocated], "{}", E::NAME);
        let (_, restart) = E::restart(&c, &q, &dir);
        let boot = Restart {
            path: RecoveryPath::Committed,
            errors: Vec::new(),
        };
        assert_eq!(restart, boot, "{}", E::NAME);
        let _ = std::fs::remove_dir_all(&dir);

        let dir = crashed_victim::<E>(&c, &q, "ckpt-v2", &batches[..1]);
        let mut slot = std::fs::read(dir.join(durable::CHECKPOINT_FILE)).unwrap();
        slot.truncate(allocated / 2);
        slot[4..8].copy_from_slice(&2u32.to_le_bytes());
        write_slot(&dir, 0, &slot);
        assert_rebuilds_at_base::<E>(&c, &q, &dir, "unsupported checkpoint version 2");
        let _ = std::fs::remove_dir_all(&dir);
    }
    for_both_engines!(check);
}
