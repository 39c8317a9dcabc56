//! Durability for any re-optimizer: [`Durable`] wraps an engine behind
//! the [`Reoptimizer`] seam and owns the write-ahead log, the
//! checkpoint and the restart; the rest of this module is the two files
//! and everything that reads or writes them.
//!
//! **What is persisted, and why only that.** Every engine's state is a
//! function of its [`CostContext`]'s parameter factors: state =
//! f(catalog, query, last write to each parameter). So the durable
//! state is the parameters and nothing else, and no engine writes a
//! line of durability code. Every [`ParamDelta`] batch is appended to
//! the WAL as one CRC-framed record, written before the engine is
//! handed the batch and fsynced before `reoptimize` returns
//! (`WalWriter`: the fsync runs on a helper thread while the epoch
//! computes), so a crash loses nothing that was acknowledged; a
//! checkpoint is the deduped log of those writes (one entry per
//! parameter) plus a *watermark*, the number of WAL records it covers.
//! A restart folds `checkpoint log ⊕ wal[watermark..]` (or the whole
//! WAL, without an intact checkpoint) to the last write per parameter,
//! hands that to a factory that builds a fresh engine on it and runs
//! one `optimize()` — the one way state is ever built. What a
//! checkpoint buys is a *bounded replay* (the tail past the watermark
//! instead of the whole history), not a saved computation: no image of
//! an engine is kept, so no engine or compiler change can invalidate a
//! file on disk, and a directory one engine wrote restarts another.
//! Arming a directory adopts its history only if that history is the
//! engine's: the parameters a restart would recover from it must be the
//! ones the engine holds, or arming is refused.
//!
//! **No WAL compaction.** The WAL grows by one record per epoch and no
//! acknowledged record is ever rewritten. Compacting it behind a
//! checkpoint would bound its size. The two checkpoint slots are the
//! second generation such a log would fall back on — a damaged newest
//! checkpoint is answered from the older one and the records past *its*
//! watermark — but with both slots damaged a restart still needs the
//! whole WAL, so compaction stays unbuilt: the bytes it would save (13
//! per parameter written plus 20 per epoch) are not worth a history
//! that two damaged slots could lose.
//!
//! File layouts (all integers little-endian):
//!
//! ```text
//! wal        := "RWAL" version(u32) record* zero*   -- zero-filled tail
//! checkpoint := slot slot                             -- slot_len bytes each
//! slot       := "RPRM" version(u32) record zero*      -- zero-padded
//!             | zero*                                 -- empty
//! record     := len(u32) crc32(u32, over payload) payload[len]
//!
//! wal payload        := seq(u64) count(u32) delta*
//! checkpoint payload := generation(u64) watermark(u64) epochs_seen(u64)
//!                       leaves(u32) edges(u32) count(u32) delta*
//! delta              := tag(u8) id(u32) factor(f64 bits)
//! ```
//!
//! `seq` is the record's zero-based position; a mismatch means records
//! were lost or reordered and is reported as corruption. The WAL file
//! is allocated in zero-filled chunks of `WAL_CHUNK` bytes, and each
//! record is written in place, with one positioned write, at the log's
//! *logical end*; a record that runs past the allocated end carries the
//! zeros up to the next chunk boundary in the same write. So most
//! appends leave the file's size alone and their fsync commits data
//! only. The log ends at the first position that does not frame a
//! valid record — a zero frame (`len` 0, CRC 0) never does, since a WAL
//! payload is at least 12 bytes. Only zeros from there to the end of the
//! file are a clean end. Any non-zero byte there is a torn final record,
//! the image of a crash mid-append, which is discarded and reported
//! ([`OpenWal::torn`]): its batch was never acknowledged, and whatever of
//! it was applied lived only in the memory that died with the process.
//! But only the last record can be torn: a valid record carrying the
//! next sequence number framed anywhere behind the broken one (at its
//! claimed end, say, behind a failed CRC) makes it damage in the middle
//! of the log, as is any sequence gap — [`DataflowError::StateCorruption`].
//! The one case the file cannot tell apart is damage confined to the
//! last record: it reads as a reported torn tail, as a length field
//! flipped past the end of the file always has. A torn tail, and a
//! failed append's own record, are zeroed in place and synced — the
//! logical log is cut back, the file keeps its length — and opening an
//! intact log writes nothing.
//!
//! `leaves`/`edges` are the shape of the query the checkpoint was cut
//! for — a guard that depends on neither the memo nor the compiled
//! network — and every logged parameter must name a leaf or edge inside
//! it. The checkpoint file is two slots of `slot_len(leaves, edges)`
//! bytes: the largest checkpoint the shape can produce (one delta per
//! parameter) rounded up to whole 4 KiB pages, so a slot is never
//! resized and a write to one never touches the other's page. The file
//! is allocated where the shape is known — arming and restarting — with
//! real zeros, not a sparse hole, which would make the first checkpoint
//! allocate blocks and commit metadata; it is synced with its directory
//! entry.
//!
//! A restart uses the slot of the highest `generation` that decodes,
//! fits the query and has a watermark the intact WAL covers. An all-zero
//! slot is empty. Every other slot it cannot use — a flipped bit, a torn
//! write, another query's checkpoint, a watermark past the WAL — is
//! reported ([`Restart::errors`]) and zeroed in place, so a log that
//! later grows past a stale watermark cannot make it usable; beside a
//! usable slot the restart still restores, from that one, with a
//! bounded replay. Each checkpoint is written into the slot a restart
//! would *not* use, as the next generation: one positioned write of the
//! whole slot and `sync_data` — no new file, rename or directory sync,
//! and the file's length never changes — so a crash mid-write leaves
//! the other slot's checkpoint to restart from. A file that is not two
//! slots of the query's length (a version-1 checkpoint, an `RCKP`
//! network image) is refused as a whole and replaced by a zeroed one.
//!
//! [`CostContext`]: reopt_cost::CostContext

use std::fs::File;
use std::io::{Read as _, Seek as _, Write as _};
use std::ops::{Deref, DerefMut};
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use reopt_core::Reoptimizer;
use reopt_cost::{CostContext, Factors, ParamDelta};
use reopt_datalog::DataflowError;
use reopt_expr::{EdgeId, LeafId, PlanNode, QuerySpec};

use crate::RecoveryPath;

/// File magic of the write-ahead log.
pub const WAL_MAGIC: [u8; 4] = *b"RWAL";
/// File magic of the parameter checkpoint. Not the `RCKP` of the
/// network images older builds cut: those are refused by magic.
const CHECKPOINT_MAGIC: [u8; 4] = *b"RPRM";
/// WAL file name inside a durable directory.
pub const WAL_FILE: &str = "wal.bin";
/// Checkpoint file name inside a durable directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.bin";

/// On-disk format versions; readers reject what they do not speak.
/// WAL version 1 grew its file by every append and had no zero tail;
/// checkpoint version 1 was one record in a file replaced by a rename.
const WAL_VERSION: u32 = 2;
const CHECKPOINT_VERSION: u32 = 2;

/// The WAL file grows in zero-filled chunks of this many bytes, and a
/// checkpoint slot is a whole number of them.
const WAL_CHUNK: u64 = 4096;

/// Bytes of `magic version`, and of a record's `len crc32` frame.
const HEADER_LEN: usize = 8;
const FRAME_LEN: usize = 8;
/// Encoded bytes of one [`ParamDelta`], and its tags.
const DELTA_LEN: usize = 13;
/// Bytes of a checkpoint payload ahead of its deltas.
const CHECKPOINT_FIXED_LEN: usize = 3 * 8 + 3 * 4;
const TAG_EDGE_SELECTIVITY: u8 = 0;
const TAG_LEAF_CARDINALITY: u8 = 1;
const TAG_LEAF_SCAN_COST: u8 = 2;

fn corrupt(msg: impl Into<String>) -> DataflowError {
    DataflowError::StateCorruption(msg.into())
}

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over `bytes`.
/// Hand-rolled because the container has no crates.io access. Eight
/// bytes a step through eight tables (slicing-by-8), built once at first
/// use: every standalone append scans the whole log, so the CRC is most
/// of what that scan costs.
pub fn crc32(bytes: &[u8]) -> u32 {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    let t = TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    });
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().unwrap()) ^ u64::from(crc);
        crc = (0..8).fold(0, |acc, i| acc ^ t[7 - i][((w >> (8 * i)) & 0xFF) as usize]);
    }
    !words.remainder().iter().fold(crc, |crc, &b| {
        t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8)
    })
}

/// Payload encoder: little-endian scalars appended to a buffer.
#[derive(Default)]
struct Enc(Vec<u8>);

impl Enc {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn delta(&mut self, d: &ParamDelta) {
        let ((tag, id), factor) = key_and_factor(d);
        self.u8(tag);
        self.u32(id);
        self.f64(factor);
    }

    /// Frames the payload as one record: length, CRC, payload.
    fn into_record(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.0.len() + FRAME_LEN);
        out.extend_from_slice(&(self.0.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&self.0).to_le_bytes());
        out.extend_from_slice(&self.0);
        out
    }
}

/// Payload decoder. Every read bounds-checks against the remaining
/// buffer and surfaces [`DataflowError::StateCorruption`] on truncation,
/// so a damaged payload can never panic or over-allocate.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], DataflowError> {
        let bytes = self.buf[self.pos..]
            .first_chunk::<N>()
            .ok_or_else(|| corrupt("payload truncated"))?;
        self.pos += N;
        Ok(*bytes)
    }

    fn u8(&mut self) -> Result<u8, DataflowError> {
        Ok(self.take::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32, DataflowError> {
        Ok(u32::from_le_bytes(self.take()?))
    }

    fn u64(&mut self) -> Result<u64, DataflowError> {
        Ok(u64::from_le_bytes(self.take()?))
    }

    fn f64(&mut self) -> Result<f64, DataflowError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn delta(&mut self) -> Result<ParamDelta, DataflowError> {
        let tag = self.u8()?;
        let id = self.u32()?;
        let factor = self.f64()?;
        match tag {
            TAG_EDGE_SELECTIVITY => Ok(ParamDelta::EdgeSelectivity(EdgeId(id), factor)),
            TAG_LEAF_CARDINALITY => Ok(ParamDelta::LeafCardinality(LeafId(id), factor)),
            TAG_LEAF_SCAN_COST => Ok(ParamDelta::LeafScanCost(LeafId(id), factor)),
            t => Err(corrupt(format!("unknown parameter-delta tag {t}"))),
        }
    }

    /// `count(u32) delta*` filling the rest of the payload exactly. The
    /// count is checked against the bytes present before anything is
    /// allocated for it.
    fn deltas(&mut self, what: &str) -> Result<Vec<ParamDelta>, DataflowError> {
        let count = self.u32()? as usize;
        if (self.buf.len() - self.pos) != count.saturating_mul(DELTA_LEN) {
            return Err(corrupt(format!(
                "{what} announces {count} deltas over {} bytes",
                self.buf.len() - self.pos
            )));
        }
        (0..count).map(|_| self.delta()).collect()
    }
}

fn header(magic: [u8; 4], version: u32) -> [u8; HEADER_LEN] {
    let mut h = [0; HEADER_LEN];
    h[..4].copy_from_slice(&magic);
    h[4..].copy_from_slice(&version.to_le_bytes());
    h
}

/// Checks the `magic version` that opens `what`.
fn check_header(
    bytes: &[u8],
    magic: [u8; 4],
    version: u32,
    what: &str,
) -> Result<(), DataflowError> {
    let Some(head) = bytes.first_chunk::<HEADER_LEN>() else {
        return Err(corrupt(format!("{what} shorter than its header")));
    };
    if head[..4] != magic {
        return Err(corrupt(format!(
            "bad {what} magic {:?} (want {magic:?})",
            &head[..4]
        )));
    }
    let found = u32::from_le_bytes(head[4..].try_into().unwrap());
    if found != version {
        return Err(corrupt(format!(
            "unsupported {what} version {found} (reader speaks {version})"
        )));
    }
    Ok(())
}

/// The record framed at `pos`: its payload and the offset just past it.
/// `Ok(None)` for a frame that runs past the end of the file — a torn
/// write; `Err` for a payload that fails its CRC.
fn read_record(bytes: &[u8], pos: usize) -> Result<Option<(&[u8], usize)>, DataflowError> {
    let Some(frame) = bytes[pos..].first_chunk::<FRAME_LEN>() else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
    let want_crc = u32::from_le_bytes(frame[4..].try_into().unwrap());
    let start = pos + FRAME_LEN;
    let Some(end) = start.checked_add(len).filter(|&e| e <= bytes.len()) else {
        return Ok(None);
    };
    let payload = &bytes[start..end];
    let got_crc = crc32(payload);
    if got_crc != want_crc {
        return Err(corrupt(format!(
            "record at byte {pos} failed its CRC (stored {want_crc:#010x}, computed {got_crc:#010x})"
        )));
    }
    Ok(Some((payload, end)))
}

/// Fsyncs `path`'s directory so a file just created there keeps its
/// entry across power loss. Best effort — some filesystems do not
/// support directory fsync.
fn sync_parent(path: &Path) {
    if let Some(dir) = path.parent() {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
}

/// Sweeps orphaned `*.tmp` staging files out of a durable directory.
/// Older builds committed a checkpoint by writing `checkpoint.tmp`,
/// fsyncing, then renaming it — a crash between the write and the
/// rename stranded the staging file, which a directory they wrote may
/// still hold. An orphan is never live state, but left behind it is one
/// `mv` away from masquerading as a checkpoint, so every startup path
/// removes it. Unreadable entries are skipped rather than failing the
/// boot.
fn sweep_tmp(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for path in entries.flatten().map(|e| e.path()) {
        if path.extension().is_some_and(|e| e == "tmp") && path.is_file() {
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// What a checkpoint slot holds (see the module docs).
#[derive(Debug, PartialEq)]
pub struct Checkpoint {
    /// One more than the generation of the checkpoint a restart would
    /// have used when this one was cut: of two usable slots, a restart
    /// uses the higher.
    pub generation: u64,
    /// WAL records the log already covers; replay starts here.
    pub watermark: u64,
    /// The optimizer's epoch counter when the checkpoint was cut.
    pub epochs_seen: u64,
    /// The last write per parameter, in first-write order.
    pub log: Vec<ParamDelta>,
}

/// The length of each checkpoint slot for a query of `leaves` leaves
/// and `edges` join edges: the largest checkpoint that shape can
/// produce — one delta per parameter — rounded up to whole pages.
fn slot_len(leaves: u32, edges: u32) -> usize {
    let params = edges as usize + 2 * leaves as usize;
    let largest = HEADER_LEN + FRAME_LEN + CHECKPOINT_FIXED_LEN + params * DELTA_LEN;
    largest.next_multiple_of(WAL_CHUNK as usize)
}

/// Encodes a checkpoint of `log` for a query of `leaves` leaves and
/// `edges` join edges as the slot image a checkpoint writes: `magic
/// version record`, zero-padded to the shape's slot length (longer only
/// for a log naming parameters outside the query, which no slot holds).
pub fn encode_checkpoint(
    generation: u64,
    watermark: u64,
    epochs_seen: u64,
    leaves: u32,
    edges: u32,
    log: &[ParamDelta],
) -> Vec<u8> {
    let mut e = Enc::default();
    e.u64(generation);
    e.u64(watermark);
    e.u64(epochs_seen);
    e.u32(leaves);
    e.u32(edges);
    e.u32(log.len() as u32);
    for d in log {
        e.delta(d);
    }
    let mut out = header(CHECKPOINT_MAGIC, CHECKPOINT_VERSION).to_vec();
    out.extend_from_slice(&e.into_record());
    out.resize(out.len().max(slot_len(leaves, edges)), 0);
    out
}

/// Decodes one checkpoint slot for a query of `leaves` leaves and
/// `edges` join edges: `None` for an all-zero slot. Anything but a
/// well-formed checkpoint of exactly that shape whose every parameter
/// is in range, followed by zeros only — a foreign or older format, a
/// flipped bit, a torn write, another query's checkpoint — is
/// [`DataflowError::StateCorruption`].
pub fn decode_checkpoint(
    slot: &[u8],
    leaves: u32,
    edges: u32,
) -> Result<Option<Checkpoint>, DataflowError> {
    if slot.iter().all(|&b| b == 0) {
        return Ok(None);
    }
    check_header(slot, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint")?;
    let Some((payload, end)) = read_record(slot, HEADER_LEN)? else {
        return Err(corrupt("checkpoint record truncated"));
    };
    if slot[end..].iter().any(|&b| b != 0) {
        return Err(corrupt("non-zero byte after the checkpoint record"));
    }
    let mut d = Dec::new(payload);
    let generation = d.u64()?;
    let watermark = d.u64()?;
    let epochs_seen = d.u64()?;
    let shape = (d.u32()?, d.u32()?);
    if shape != (leaves, edges) {
        return Err(corrupt(format!(
            "checkpoint is of a query with {} leaves and {} edges, this one has {leaves} and {edges}",
            shape.0, shape.1
        )));
    }
    let log = d.deltas("checkpoint")?;
    for delta in &log {
        let in_range = match *delta {
            ParamDelta::EdgeSelectivity(e, _) => e.0 < edges,
            ParamDelta::LeafCardinality(l, _) | ParamDelta::LeafScanCost(l, _) => l.0 < leaves,
        };
        if !in_range {
            return Err(corrupt(format!(
                "checkpoint log references a parameter outside this query: {delta:?}"
            )));
        }
    }
    Ok(Some(Checkpoint {
        generation,
        watermark,
        epochs_seen,
        log,
    }))
}

/// What a restart finds in a checkpoint file (see the module docs).
#[derive(Debug, Default, PartialEq)]
pub struct Slots {
    /// The checkpoint a restart uses and its slot: the highest
    /// generation among the slots that decode, fit the query and have a
    /// watermark the WAL covers.
    pub chosen: Option<(usize, Checkpoint)>,
    /// Every slot that is neither empty nor usable, with why. A file
    /// that is not two slots of the query's length is refused as a
    /// whole, as slot 0.
    pub refused: Vec<(usize, DataflowError)>,
}

/// Reads a checkpoint file image for a query of `leaves` leaves and
/// `edges` join edges whose WAL holds `wal_records` intact records.
pub fn read_slots(file: &[u8], leaves: u32, edges: u32, wal_records: u64) -> Slots {
    let slot_len = slot_len(leaves, edges);
    let mut slots = Slots::default();
    if file.len() != 2 * slot_len {
        if file.iter().any(|&b| b != 0) {
            let e = check_header(file, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint")
                .err()
                .unwrap_or_else(|| {
                    let len = file.len();
                    corrupt(format!("checkpoint file is {len} bytes, not two slots of {slot_len}"))
                });
            slots.refused.push((0, e));
        }
        return slots;
    }
    for (i, slot) in file.chunks_exact(slot_len).enumerate() {
        let read = decode_checkpoint(slot, leaves, edges).and_then(|c| match c {
            Some(c) if c.watermark > wal_records => Err(corrupt(format!(
                "checkpoint watermark {} is beyond the {wal_records} intact WAL records",
                c.watermark
            ))),
            c => Ok(c),
        });
        match read {
            Ok(None) => {}
            Ok(Some(c)) => {
                if slots.chosen.as_ref().is_none_or(|(_, best)| c.generation > best.generation) {
                    slots.chosen = Some((i, c));
                }
            }
            Err(DataflowError::StateCorruption(m)) => {
                slots.refused.push((i, corrupt(format!("checkpoint slot {i}: {m}"))));
            }
            Err(e) => slots.refused.push((i, e)),
        }
    }
    slots
}

/// An armed directory's checkpoint file, open, and where the next
/// checkpoint goes.
struct CheckpointFile {
    file: File,
    slot_len: u64,
    /// The slot the next checkpoint is written into — never the one a
    /// restart would use — and its generation.
    next: usize,
    generation: u64,
}

impl CheckpointFile {
    /// Opens the checkpoint file in `dir` for a query of `leaves` leaves
    /// and `edges` join edges whose WAL holds `wal_records` intact
    /// records, and returns it with what a restart finds in it
    /// ([`read_slots`]). A file that is missing or not two slots of this
    /// shape is allocated anew: real zeros, synced with its directory
    /// entry. Every slot the restart refuses is zeroed in place and
    /// synced; an intact file is only read.
    fn open(
        dir: &Path,
        leaves: u32,
        edges: u32,
        wal_records: u64,
    ) -> std::io::Result<(CheckpointFile, Slots)> {
        let path = dir.join(CHECKPOINT_FILE);
        let slot_len = slot_len(leaves, edges);
        let opened = File::options().read(true).write(true).open(&path);
        let mut bytes = Vec::new();
        if let Ok(mut f) = opened.as_ref() {
            f.read_to_end(&mut bytes)?;
        }
        let slots = read_slots(&bytes, leaves, edges, wal_records);
        let file = match opened {
            Ok(f) if bytes.len() == 2 * slot_len => {
                for &(i, _) in &slots.refused {
                    f.write_all_at(&vec![0; slot_len], (i * slot_len) as u64)?;
                }
                if !slots.refused.is_empty() {
                    f.sync_data()?;
                }
                f
            }
            _ => {
                let mut f = File::options()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(true)
                    .open(&path)?;
                f.write_all(&vec![0; 2 * slot_len])?;
                f.sync_all()?;
                sync_parent(&path);
                f
            }
        };
        let (next, generation) = match &slots.chosen {
            Some((i, c)) => (1 - i, c.generation + 1),
            None => (0, 1),
        };
        let ckpt = CheckpointFile {
            file,
            slot_len: slot_len as u64,
            next,
            generation,
        };
        Ok((ckpt, slots))
    }

    /// Writes the slot image `slot` into the next slot and syncs its
    /// data; from then on a restart uses it, and the slot after it is
    /// the other one. A failed write leaves the next slot where it was.
    fn write(&mut self, slot: &[u8]) -> std::io::Result<()> {
        if slot.len() as u64 != self.slot_len {
            let (len, slot_len) = (slot.len(), self.slot_len);
            let msg = format!("a checkpoint of {len} bytes does not fit its slot of {slot_len}");
            return Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, msg));
        }
        self.file.write_all_at(slot, self.next as u64 * self.slot_len)?;
        self.file.sync_data()?;
        self.next = 1 - self.next;
        self.generation += 1;
        Ok(())
    }
}

/// Creates (or truncates to) an empty WAL: the header and a zeroed
/// tail up to the first chunk boundary, fsynced — file and directory
/// entry — so the armed log survives a crash that follows immediately.
pub fn wal_init(path: &Path) -> std::io::Result<()> {
    let mut chunk = vec![0; WAL_CHUNK as usize];
    chunk[..HEADER_LEN].copy_from_slice(&header(WAL_MAGIC, WAL_VERSION));
    let mut f = std::fs::File::create(path)?;
    f.write_all(&chunk)?;
    f.sync_all()?;
    sync_parent(path);
    Ok(())
}

/// Writes `deltas` as WAL record `seq` at `end`, the log's logical end
/// in `file` — the one framing and the one write every append goes
/// through — and returns the record's length. A record that runs past
/// `allocated`, the file's length, carries the zeros up to the next
/// chunk boundary in the same write, and `allocated` grows to it.
/// Nothing is fsynced here.
fn write_record(
    file: &File,
    seq: u64,
    deltas: &[ParamDelta],
    end: u64,
    allocated: &mut u64,
) -> std::io::Result<u64> {
    let mut e = Enc::default();
    e.u64(seq);
    e.u32(deltas.len() as u32);
    for d in deltas {
        e.delta(d);
    }
    let mut record = e.into_record();
    let len = record.len() as u64;
    if end + len > *allocated {
        record.resize(((end + len).next_multiple_of(WAL_CHUNK) - end) as usize, 0);
    }
    file.write_all_at(&record, end)?;
    *allocated = (*allocated).max(end + record.len() as u64);
    Ok(len)
}

/// Zeroes `file` from `from` to its end and syncs it: the logical log
/// is cut back to `from`, the file keeps its length, which is returned.
fn zero_tail(mut file: &File, from: u64) -> std::io::Result<u64> {
    let len = file.metadata()?.len();
    file.seek(std::io::SeekFrom::Start(from))?;
    std::io::copy(&mut std::io::repeat(0).take(len.saturating_sub(from)), &mut file)?;
    file.sync_data()?;
    Ok(len)
}

/// Appends one batch as record `seq`, fsyncing before returning: once
/// this returns, recovery will replay the batch. A standalone append;
/// an armed optimizer appends through its `WalWriter`. The logical end
/// is found by the scan a restart runs; a log that does not scan clean,
/// or whose next record is not `seq`, is refused (`InvalidData`,
/// `InvalidInput`) and left as it is.
pub fn wal_append(path: &Path, seq: u64, deltas: &[ParamDelta]) -> std::io::Result<()> {
    use std::io::{Error, ErrorKind};
    let file = std::fs::OpenOptions::new().read(true).write(true).open(path)?;
    let mut bytes = Vec::new();
    (&file).read_to_end(&mut bytes)?;
    let mut records = 0;
    let scanned = scan_wal(&bytes, |_| {
        records += 1;
        Ok(())
    });
    let (end, torn) = scanned.map_err(|e| Error::new(ErrorKind::InvalidData, e))?;
    if torn {
        let msg = "the WAL ends in a torn record; open_dir heals it";
        return Err(Error::new(ErrorKind::InvalidData, msg));
    }
    if records != seq {
        let msg = format!("the WAL's next record is {records}, not {seq}");
        return Err(Error::new(ErrorKind::InvalidInput, msg));
    }
    let mut allocated = bytes.len() as u64;
    write_record(&file, seq, deltas, end as u64, &mut allocated)?;
    file.sync_data()
}

/// A failure the WAL writer fakes, for crash tests
/// ([`Durable::inject_wal_fault`]): the fsync of record `record`
/// reports an error, once, and with `truncate_too` so does cutting that
/// record back off the log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalFault {
    pub record: u64,
    pub truncate_too: bool,
}

/// Stack of the fsync helper thread, which only calls `sync_data` and
/// passes unit requests and results over two bounded channels.
const SYNC_HELPER_STACK: usize = 32 * 1024;

/// The log's open handle and the thread that fsyncs it.
struct SyncHelper {
    file: Arc<File>,
    request: SyncSender<()>,
    synced: Receiver<std::io::Result<()>>,
    thread: JoinHandle<()>,
}

impl SyncHelper {
    /// Opens the log for writing and starts the helper; also returns
    /// the file's length at the start.
    fn start(path: &Path) -> std::io::Result<(SyncHelper, u64)> {
        let file = Arc::new(std::fs::OpenOptions::new().write(true).open(path)?);
        let len = file.metadata()?.len();
        // Both channels are made here, on the caller's side: the helper
        // allocates nothing of its own.
        let (request, requests) = sync_channel::<()>(1);
        let (done, synced) = sync_channel(1);
        let log = Arc::clone(&file);
        let thread = std::thread::Builder::new()
            .name("wal-fsync".into())
            .stack_size(SYNC_HELPER_STACK)
            .spawn(move || {
                for () in requests {
                    if done.send(log.sync_data()).is_err() {
                        break;
                    }
                }
            })?;
        let helper = SyncHelper {
            file,
            request,
            synced,
            thread,
        };
        Ok((helper, len))
    }
}

/// The appender of an armed directory's WAL. An append is two halves
/// around the epoch that applies its batch: [`WalWriter::begin`] writes
/// the record and hands its fsync to a helper thread, and
/// [`WalWriter::finish`] waits for that fsync — the disk's latency
/// overlaps the epoch's compute, and the batch is acknowledged only
/// when both are done. A failed append is cut back off the log (zeroed
/// from the acknowledged end on, fsynced) before it is reported, so the
/// next record is written where it was and keeps the sequence
/// contiguous; if the cut fails too, the writer refuses every later
/// append. The open
/// handle and the helper are made by the first append — arming and
/// recovering pay for neither — and the helper is joined on drop.
struct WalWriter {
    dir: PathBuf,
    /// Acknowledged records on disk = the next record's sequence
    /// number; a checkpoint stores this as its replay watermark.
    wal_seq: u64,
    helper: Option<SyncHelper>,
    /// Header plus acknowledged records: the log's logical end, where
    /// the next record is written and what a failed append cuts back to.
    acked_len: u64,
    /// The file's length, zero tail included (read by the first append).
    allocated: u64,
    /// Length of the record written and not yet acknowledged.
    pending: Option<u64>,
    /// A failed record could not be cut back off: nothing more is
    /// appended behind it.
    stopped: bool,
    fault: Option<WalFault>,
}

impl WalWriter {
    /// A writer for the log in `dir`, which [`open_dir`] left holding
    /// exactly its `wal_seq` intact records in its first `len` bytes.
    fn new(dir: PathBuf, wal_seq: u64, len: u64) -> WalWriter {
        WalWriter {
            dir,
            wal_seq,
            helper: None,
            acked_len: len,
            allocated: 0,
            pending: None,
            stopped: false,
            fault: None,
        }
    }

    /// Writes `deltas` as the next record and hands its fsync to the
    /// helper; [`WalWriter::finish`] must follow before the batch is
    /// acknowledged.
    fn begin(&mut self, deltas: &[ParamDelta]) -> std::io::Result<()> {
        if self.stopped {
            return Err(std::io::Error::other(
                "appends stopped: an earlier failed record could not be cut back off the log",
            ));
        }
        let helper = match &mut self.helper {
            Some(helper) => helper,
            None => {
                let (helper, allocated) = SyncHelper::start(&self.dir.join(WAL_FILE))?;
                self.allocated = allocated;
                self.helper.insert(helper)
            }
        };
        let end = self.acked_len;
        let written = write_record(&helper.file, self.wal_seq, deltas, end, &mut self.allocated);
        let handed_off = written.and_then(|len| {
            helper.request.send(()).map_err(std::io::Error::other)?;
            Ok(len)
        });
        match handed_off {
            Ok(len) => {
                self.pending = Some(len);
                Ok(())
            }
            Err(e) => Err(self.cut_back(e, false)),
        }
    }

    /// Waits for the fsync [`WalWriter::begin`] handed off; `Ok` means
    /// the record is durable and acknowledged, `Err` that it was cut
    /// back off the log.
    fn finish(&mut self) -> std::io::Result<()> {
        let Some(len) = self.pending.take() else {
            return Ok(());
        };
        let helper = self.helper.as_ref().expect("a pending record has a helper");
        let mut synced = helper
            .synced
            .recv()
            .unwrap_or_else(|_| Err(std::io::Error::other("the WAL fsync helper exited")));
        let fault = self.fault.filter(|f| f.record == self.wal_seq);
        if fault.is_some() {
            self.fault = None;
            synced = Err(std::io::Error::other("injected WAL fsync failure"));
        }
        match synced {
            Ok(()) => {
                self.acked_len += len;
                self.wal_seq += 1;
                Ok(())
            }
            Err(e) => Err(self.cut_back(e, fault.is_some_and(|f| f.truncate_too))),
        }
    }

    /// Zeroes the log from its acknowledged end on and fsyncs the cut,
    /// returning `cause` to report; a failed cut (or a faked one,
    /// `fake_failure`) stops the writer and is reported with it.
    fn cut_back(&mut self, cause: std::io::Error, fake_failure: bool) -> std::io::Error {
        let helper = self.helper.as_ref().expect("only a started writer cuts");
        let cut = if fake_failure {
            Err(std::io::Error::other("injected WAL cut-back failure"))
        } else {
            zero_tail(&helper.file, self.acked_len)
        };
        match cut {
            Ok(allocated) => {
                self.allocated = allocated;
                cause
            }
            Err(e) => {
                self.stopped = true;
                let msg = format!("{cause}; cutting it back off failed too, so appends stop: {e}");
                std::io::Error::new(cause.kind(), msg)
            }
        }
    }
}

impl Drop for WalWriter {
    fn drop(&mut self) {
        if let Some(helper) = self.helper.take() {
            // Closing the request channel ends the helper's loop.
            drop(helper.request);
            let _ = helper.thread.join();
        }
    }
}

/// The result of scanning a WAL file.
struct WalScan {
    /// Every intact batch, in append order (index = record seq).
    batches: Vec<Vec<ParamDelta>>,
    /// Bytes covered by the header plus intact records: the log's
    /// logical end.
    valid_len: usize,
    /// Whether a non-zero byte follows the logical end: a torn final
    /// record from a crash mid-append.
    torn: bool,
}

/// Scans a WAL image into its batches ([`scan_wal`]).
fn wal_records(bytes: &[u8]) -> Result<WalScan, DataflowError> {
    let mut batches = Vec::new();
    let (valid_len, torn) = scan_wal(bytes, |mut d| {
        batches.push(d.deltas("WAL record")?);
        Ok(())
    })?;
    Ok(WalScan {
        batches,
        valid_len,
        torn,
    })
}

/// Scans a WAL image up to its logical end (see the module docs),
/// handing each intact record's `count delta*` to `record` in append
/// order, and returns the logical end and whether a torn record follows
/// it. A sequence gap, or a broken record with the next one framed
/// after it, is real damage and fails the scan.
fn scan_wal<'a>(
    bytes: &'a [u8],
    mut record: impl FnMut(Dec<'a>) -> Result<(), DataflowError>,
) -> Result<(usize, bool), DataflowError> {
    check_header(bytes, WAL_MAGIC, WAL_VERSION, "WAL")?;
    let mut records = 0u64;
    let mut pos = HEADER_LEN;
    while let Some((payload, end)) = wal_record(bytes, pos) {
        let mut d = Dec::new(payload);
        let seq = d.u64()?;
        if seq != records {
            return Err(corrupt(format!("WAL sequence gap: record {records} carries seq {seq}")));
        }
        record(d)?;
        records += 1;
        pos = end;
    }
    // The last non-zero byte, if it lies past the logical end.
    let torn_to = bytes[pos..].iter().rposition(|&b| b != 0).map(|i| pos + i);
    if let Some(last) = torn_to {
        // Only the last record can be torn: one framed behind it means
        // the broken record is damage in the middle of the log.
        let after = (records + 1).to_le_bytes();
        let carries_after = |at: usize| {
            bytes[at..].get(FRAME_LEN..FRAME_LEN + 8) == Some(&after[..])
                && wal_record(bytes, at).is_some()
        };
        if let Some(at) = (pos + 1..last).find(|&at| carries_after(at)) {
            return Err(corrupt(format!(
                "WAL record {records} at byte {pos} is damaged and record {} follows at byte {at}",
                records + 1
            )));
        }
    }
    Ok((pos, torn_to.is_some()))
}

/// The WAL record framed at `pos`: its payload and the offset just past
/// it. `None` for a zero frame, a frame that runs past the end of the
/// file and a payload that fails its CRC: the log ends there.
fn wal_record(bytes: &[u8], pos: usize) -> Option<(&[u8], usize)> {
    read_record(bytes, pos)
        .ok()
        .flatten()
        .filter(|(payload, _)| !payload.is_empty())
}

/// A durable directory's WAL, opened for appending ([`open_dir`]).
pub struct OpenWal {
    /// Every intact batch on disk, in append order.
    pub batches: Vec<Vec<ParamDelta>>,
    /// The sequence number the next [`wal_append`] must carry.
    pub next_seq: u64,
    /// The log's logical length — the header plus its intact records,
    /// where the next record is written; the file's zero tail follows.
    pub len: u64,
    /// Whether a torn final record was found (and zeroed in place): an
    /// append was at least attempted, so the directory has history even
    /// if `batches` is empty.
    pub torn: bool,
    /// Why an unreadable WAL was replaced by an empty one, if it was.
    pub error: Option<DataflowError>,
}

/// Opens a durable directory the one way every startup path does: the
/// directory is created if missing, stranded `*.tmp` staging files are
/// swept, and `<dir>/wal.bin` is made appendable — an intact log is
/// adopted as it is (nothing is written or synced; appends continue at
/// its logical end), a torn tail from a crash mid-append is zeroed in
/// place and synced first, a missing log is created empty, and a
/// damaged one is replaced by an empty log with the scan error handed
/// back: the caller decides what losing it means. `Err` is for failing
/// to create the directory or to repair or create the file.
pub fn open_dir(dir: &Path) -> std::io::Result<OpenWal> {
    std::fs::create_dir_all(dir)?;
    sweep_tmp(dir);
    let path = dir.join(WAL_FILE);
    let scanned = std::fs::read(&path).ok().map(|bytes| wal_records(&bytes));
    match scanned {
        Some(Ok(scan)) => {
            if scan.torn {
                let f = std::fs::OpenOptions::new().write(true).open(&path)?;
                zero_tail(&f, scan.valid_len as u64)?;
            }
            Ok(OpenWal {
                next_seq: scan.batches.len() as u64,
                batches: scan.batches,
                len: scan.valid_len as u64,
                torn: scan.torn,
                error: None,
            })
        }
        missing_or_damaged => {
            wal_init(&path)?;
            Ok(OpenWal {
                batches: Vec::new(),
                next_seq: 0,
                len: HEADER_LEN as u64,
                torn: false,
                error: missing_or_damaged.and_then(Result::err),
            })
        }
    }
}

/// A parameter write's key — its tag and id — and its factor.
fn key_and_factor(d: &ParamDelta) -> ((u8, u32), f64) {
    match *d {
        ParamDelta::EdgeSelectivity(e, f) => ((TAG_EDGE_SELECTIVITY, e.0), f),
        ParamDelta::LeafCardinality(l, f) => ((TAG_LEAF_CARDINALITY, l.0), f),
        ParamDelta::LeafScanCost(l, f) => ((TAG_LEAF_SCAN_COST, l.0), f),
    }
}

/// Folds `deltas` into `log`, which holds one entry per parameter in
/// first-write order: factors are absolute, so only the last write to
/// a parameter matters. `true` when a write changed a parameter's value
/// (an absent one reads 1.0) — when an engine handed the same batch
/// sees its estimates change.
fn fold_last_writes(log: &mut Vec<ParamDelta>, deltas: &[ParamDelta]) -> bool {
    let mut changed = false;
    for d in deltas {
        let (key, factor) = key_and_factor(d);
        let slot = log.iter().position(|e| key_and_factor(e).0 == key);
        changed |= slot.map_or(1.0, |i| key_and_factor(&log[i]).1) != factor;
        match slot {
            Some(i) => log[i] = *d,
            None => log.push(*d),
        }
    }
    changed
}

/// Whether the log of last writes `log` leaves every parameter at the
/// value `held` reads (an absent one reads 1.0 in both).
fn holds(held: &Factors, log: &[ParamDelta]) -> bool {
    let mut logged = Factors::default();
    logged.apply(log);
    let within = |a: &Factors, b: &Factors| {
        a.edge_sel.iter().all(|(&e, &f)| b.edge_sel(e) == f)
            && a.leaf_card.iter().all(|(&l, &f)| b.leaf_card(l) == f)
            && a.leaf_scan.iter().all(|(&l, &f)| b.leaf_scan(l) == f)
    };
    within(held, &logged) && within(&logged, held)
}

/// What a restart found on disk.
#[derive(Clone, Debug, PartialEq)]
pub struct Restart {
    /// How far the files could be trusted (see [`Durable::restart`]).
    pub path: RecoveryPath,
    /// Every damage found on the way, in order.
    pub errors: Vec<DataflowError>,
}

/// A durable directory's history for one query: the parameters a
/// restart recovers from it, folded to the last write per parameter,
/// the epoch count that history reached, and the WAL and the checkpoint
/// file open for writing.
struct History {
    log: Vec<ParamDelta>,
    epochs_seen: u64,
    wal: WalWriter,
    checkpoint: CheckpointFile,
    restart: Restart,
}

/// Reads the history of `dir` for a query of `leaves` leaves and `edges`
/// join edges, opening the directory by [`open_dir`] and its checkpoint
/// file by `CheckpointFile::open`. The epoch count starts at the chosen
/// checkpoint's and advances as replaying the tail record by record
/// would have: once per record that changed a parameter.
fn history(dir: &Path, leaves: u32, edges: u32) -> std::io::Result<History> {
    let wal = open_dir(dir)?;
    // A torn tail is history too: bytes past the header mean an append
    // was at least attempted (or a record's length field was damaged),
    // which a clean first boot never shows.
    let had_history = !wal.batches.is_empty() || wal.error.is_some() || wal.torn;
    let mut errors: Vec<DataflowError> = wal.error.into_iter().collect();
    let (checkpoint, slots) = CheckpointFile::open(dir, leaves, edges, wal.next_seq)?;
    let refused = !slots.refused.is_empty();
    errors.extend(slots.refused.into_iter().map(|(_, e)| e));
    let whole = &wal.batches[..];
    let (path, mut log, mut epochs_seen, tail) = match slots.chosen {
        Some((_, c)) => {
            let tail = &whole[c.watermark as usize..];
            (RecoveryPath::RestoredFromCheckpoint, c.log, c.epochs_seen, tail)
        }
        None if refused => (RecoveryPath::RebuiltAfterCorruptCheckpoint, Vec::new(), 0, whole),
        None if had_history => (RecoveryPath::RebuiltFromScratch, Vec::new(), 0, whole),
        None => (RecoveryPath::Committed, Vec::new(), 0, whole),
    };
    for record in tail {
        epochs_seen += u64::from(fold_last_writes(&mut log, record));
    }
    Ok(History {
        log,
        epochs_seen,
        wal: WalWriter::new(dir.to_path_buf(), wal.next_seq, wal.len),
        checkpoint,
        restart: Restart { path, errors },
    })
}

/// The durable layer's share of one epoch: all zero unless a directory
/// is armed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WalEpoch {
    /// Writing the epoch's WAL record.
    pub write: Duration,
    /// Waiting for the record's fsync once the engine's epoch was done
    /// (zero when the epoch outlasted the fsync).
    pub wait: Duration,
    /// Why the record was not acknowledged: the batch was applied in
    /// memory only.
    pub error: Option<DataflowError>,
}

/// An engine outcome a failed WAL append is reported into, ahead of the
/// epoch's own failures.
pub trait WalReport {
    fn wal_failed(&mut self, error: DataflowError);
}

/// The hand-rolled engine's outcome has no error list: a failed append
/// is read off [`Durable::last_wal`].
impl WalReport for reopt_core::Outcome {
    fn wal_failed(&mut self, _: DataflowError) {}
}

/// A re-optimizer made durable (see the module docs). Armed with a
/// directory, every batch is logged before the engine is handed it and
/// acknowledged when `reoptimize` returns. Unarmed, it keeps the
/// parameter log and the epoch count a checkpoint would hold. It
/// dereferences to the engine for everything else.
pub struct Durable<R> {
    engine: R,
    /// The last write to each parameter, in first-write order: what the
    /// engine's estimates are a function of.
    applied: Vec<ParamDelta>,
    /// Epochs run, counting those a restart replayed: each `optimize`,
    /// and each batch that changed a parameter.
    epochs_seen: u64,
    wal: Option<WalWriter>,
    /// Armed with the WAL.
    checkpoint: Option<CheckpointFile>,
    last_wal: WalEpoch,
}

/// Wraps an engine that has applied no parameter yet (arming refuses
/// one whose estimates the wrapper did not log).
impl<R> From<R> for Durable<R> {
    fn from(engine: R) -> Durable<R> {
        Durable {
            engine,
            applied: Vec::new(),
            epochs_seen: 0,
            wal: None,
            checkpoint: None,
            last_wal: WalEpoch::default(),
        }
    }
}

impl<R> Deref for Durable<R> {
    type Target = R;

    fn deref(&self) -> &R {
        &self.engine
    }
}

impl<R> DerefMut for Durable<R> {
    fn deref_mut(&mut self) -> &mut R {
        &mut self.engine
    }
}

impl<R: Reoptimizer<Outcome: WalReport>> Durable<R> {
    /// The engine's `optimize`, counted as an epoch.
    pub fn optimize(&mut self) -> R::Outcome {
        self.epochs_seen += 1;
        self.engine.optimize()
    }

    /// With a directory armed, the batch is acknowledged — durable —
    /// when this returns, or the failure is in [`Durable::last_wal`]
    /// and reported into the outcome.
    pub fn reoptimize(&mut self, deltas: &[ParamDelta]) -> R::Outcome {
        // Write-ahead: the record is written before the engine is handed
        // the batch, which is acknowledged (`wal_seq` advances) only once
        // the epoch and the record's fsync are both done. A failed append
        // leaves this batch in memory only and is reported, never
        // panicked on.
        let begun = self.wal.as_mut().map(|w| {
            let clock = Instant::now();
            (w.begin(deltas), clock.elapsed())
        });
        let mut out = self.engine.reoptimize(deltas);
        self.epochs_seen += u64::from(fold_last_writes(&mut self.applied, deltas));
        self.last_wal = match (self.wal.as_mut(), begun) {
            (Some(w), Some((begun, write))) => {
                let clock = Instant::now();
                let failed = begun.and_then(|()| w.finish()).err();
                let error = failed.map(|e| {
                    corrupt(format!("WAL append failed, operating in-memory for this batch: {e}"))
                });
                WalEpoch { write, wait: clock.elapsed(), error }
            }
            _ => WalEpoch::default(),
        };
        if let Some(e) = &self.last_wal.error {
            out.wal_failed(e.clone());
        }
        out
    }

    /// Arms durability: every later [`Durable::reoptimize`] batch is
    /// appended to `<dir>/wal.bin` and [`Durable::checkpoint_durable`]
    /// writes a slot of `<dir>/checkpoint.bin`. The directory is opened
    /// by [`open_dir`], the checkpoint file is allocated if it is not
    /// this query's, and the history is adopted only if it is this
    /// engine's: the parameters [`Durable::restart`] would recover from
    /// it must be, value for value, the ones the engine holds (a fresh
    /// directory for an engine that has applied no parameter, or the
    /// directory its own history wrote). Otherwise a later restart would
    /// rebuild a state the engine never held, so arming fails with
    /// `InvalidInput`, the engine stays unarmed and the parameters the
    /// directory recovers stay as they were.
    pub fn set_durable_dir(&mut self, dir: impl Into<PathBuf>) -> std::io::Result<()> {
        let dir = dir.into();
        let q = self.engine.query();
        let found = history(&dir, q.n_leaves(), q.edges.len() as u32)?;
        let held = self.engine.cost_context().factors();
        if !holds(held, &found.log) || !holds(held, &self.applied) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "{}: the parameters a restart would recover from it are not the ones this \
                     engine holds",
                    dir.display()
                ),
            ));
        }
        self.wal = Some(found.wal);
        self.checkpoint = Some(found.checkpoint);
        Ok(())
    }

    /// The armed durable directory, if any.
    pub fn durable_dir(&self) -> Option<&Path> {
        self.wal.as_ref().map(|w| w.dir.as_path())
    }

    /// Cuts a durable checkpoint: the applied-parameter log, the WAL
    /// watermark it covers, `epochs_seen` and the query's leaf and edge
    /// counts, as the next generation. It is one positioned write into
    /// the slot a restart would not use, then `sync_data` on the file
    /// the directory was armed with; once it returns, a restart uses
    /// it. Fails with `InvalidInput` unless a directory is armed.
    pub fn checkpoint_durable(&mut self) -> std::io::Result<()> {
        let (Some(w), Some(ckpt)) = (self.wal.as_ref(), self.checkpoint.as_mut()) else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "checkpoint_durable needs set_durable_dir first",
            ));
        };
        let q = self.engine.query();
        let slot = encode_checkpoint(
            ckpt.generation,
            w.wal_seq,
            self.epochs_seen,
            q.n_leaves(),
            q.edges.len() as u32,
            &self.applied,
        );
        ckpt.write(&slot)
    }

    /// Restarts from the durable directory `dir` of query `q`, the one
    /// way a first boot builds state: the recovered parameters are
    /// handed to `build`, which returns a fresh engine holding them,
    /// and exactly one `optimize()` runs, whatever the WAL's length;
    /// the directory is armed. What was found on disk decides the
    /// [`RecoveryPath`]: `RestoredFromCheckpoint` from the newest usable
    /// slot (a damaged slot beside it is reported, not fatal), the whole
    /// WAL when no slot is usable but one is damaged or foreign
    /// (`RebuiltAfterCorruptCheckpoint`) or when both are empty
    /// (`RebuiltFromScratch`), or `Committed` for an empty directory. State damage never panics and never returns
    /// `Err`; it degrades down that ladder with every absorbed error in
    /// the [`Restart`]. `Err` is for failing to open the directory.
    pub fn restart(
        dir: impl AsRef<Path>,
        q: &QuerySpec,
        build: impl FnOnce(&[ParamDelta]) -> R,
    ) -> std::io::Result<(Durable<R>, R::Outcome, Restart)> {
        let found = history(dir.as_ref(), q.n_leaves(), q.edges.len() as u32)?;
        let mut durable = Durable::from(build(&found.log));
        durable.applied = found.log;
        durable.epochs_seen = found.epochs_seen;
        durable.wal = Some(found.wal);
        durable.checkpoint = Some(found.checkpoint);
        let outcome = durable.optimize();
        Ok((durable, outcome, found.restart))
    }

    /// Arms a one-shot WAL writer failure (crash tests); a no-op unless
    /// a directory is armed.
    pub fn inject_wal_fault(&mut self, fault: WalFault) {
        if let Some(w) = self.wal.as_mut() {
            w.fault = Some(fault);
        }
    }

    /// The last `reoptimize`'s WAL record: its timings, and why it
    /// failed if it did.
    pub fn last_wal(&self) -> &WalEpoch {
        &self.last_wal
    }

    /// Epochs run so far, counting the epochs a restart replayed.
    pub fn epochs_seen(&self) -> u64 {
        self.epochs_seen
    }

    /// The applied-parameter log: the last write per parameter, in
    /// first-write order (what a checkpoint persists).
    pub fn applied_log(&self) -> &[ParamDelta] {
        &self.applied
    }
}

impl<R: Reoptimizer<Outcome: WalReport>> Reoptimizer for Durable<R> {
    type Outcome = R::Outcome;

    fn query(&self) -> &QuerySpec {
        self.engine.query()
    }

    fn cost_context(&self) -> &CostContext {
        self.engine.cost_context()
    }

    fn optimize(&mut self) -> R::Outcome {
        Durable::optimize(self)
    }

    fn reoptimize(&mut self, deltas: &[ParamDelta]) -> R::Outcome {
        Durable::reoptimize(self, deltas)
    }

    fn plan(outcome: &R::Outcome) -> &PlanNode {
        R::plan(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AuditMode, DataflowOptimizer};
    use reopt_catalog::Catalog;
    use reopt_core::fixtures::{chain_query, fixture_catalog};
    use reopt_core::{IncrementalOptimizer, PruningConfig};

    fn sample_batches() -> Vec<Vec<ParamDelta>> {
        vec![
            vec![ParamDelta::EdgeSelectivity(EdgeId(1), 8.0)],
            vec![
                ParamDelta::LeafCardinality(LeafId(2), 0.5),
                ParamDelta::LeafScanCost(LeafId(0), 3.25),
            ],
            vec![],
        ]
    }

    fn scratch_dir(label: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "reopt-durable-test-{label}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn written_wal(label: &str, batches: &[Vec<ParamDelta>]) -> Vec<u8> {
        let dir = scratch_dir(label);
        let path = dir.join(WAL_FILE);
        wal_init(&path).unwrap();
        for (i, b) in batches.iter().enumerate() {
            wal_append(&path, i as u64, b).unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        bytes
    }

    /// Where each of the first `n` records of a WAL image starts, and
    /// where the last of them ends, read off their length fields.
    fn record_bounds(bytes: &[u8], n: usize) -> Vec<usize> {
        let mut bounds = vec![HEADER_LEN];
        for _ in 0..n {
            let pos = *bounds.last().unwrap();
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            bounds.push(pos + FRAME_LEN + len);
        }
        bounds
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The catalogue value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Every length and alignment against the bit-at-a-time definition.
        let bitwise = |bytes: &[u8]| {
            !bytes.iter().fold(!0u32, |crc, &b| {
                (0..8).fold(crc ^ u32::from(b), |c, _| {
                    if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 }
                })
            })
        };
        let data: Vec<u8> = (0..200u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for start in 0..8 {
            for end in start..data.len() {
                assert_eq!(crc32(&data[start..end]), bitwise(&data[start..end]), "{start}..{end}");
            }
        }
    }

    #[test]
    fn scalars_round_trip() {
        let mut e = Enc::default();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX);
        e.f64(f64::INFINITY);
        let mut d = Dec::new(&e.0);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.f64().unwrap(), f64::INFINITY);
        assert_eq!(d.pos, e.0.len());
    }

    #[test]
    fn truncated_payload_is_corruption_not_panic() {
        let mut e = Enc::default();
        e.u32(1);
        e.delta(&ParamDelta::LeafCardinality(LeafId(3), 1e9));
        for cut in 0..e.0.len() {
            let r = Dec::new(&e.0[..cut]).deltas("test");
            assert!(
                matches!(r, Err(DataflowError::StateCorruption(_))),
                "cut at {cut} must not decode"
            );
        }
    }

    #[test]
    fn every_delta_kind_round_trips() {
        for d in [
            ParamDelta::EdgeSelectivity(EdgeId(7), 0.125),
            ParamDelta::LeafCardinality(LeafId(3), 1e9),
            ParamDelta::LeafScanCost(LeafId(0), f64::MIN_POSITIVE),
        ] {
            let mut e = Enc::default();
            e.delta(&d);
            assert_eq!(e.0.len(), DELTA_LEN);
            assert_eq!(Dec::new(&e.0).delta().unwrap(), d);
        }
    }

    #[test]
    fn record_stream_round_trips() {
        let mut bytes = header(WAL_MAGIC, WAL_VERSION).to_vec();
        for v in [42u64, 7] {
            let mut e = Enc::default();
            e.u64(v);
            bytes.extend_from_slice(&e.into_record());
        }
        check_header(&bytes, WAL_MAGIC, WAL_VERSION, "test").unwrap();
        let (p1, end) = read_record(&bytes, HEADER_LEN).unwrap().unwrap();
        assert_eq!(Dec::new(p1).u64().unwrap(), 42);
        let (p2, end) = read_record(&bytes, end).unwrap().unwrap();
        assert_eq!(Dec::new(p2).u64().unwrap(), 7);
        assert_eq!(end, bytes.len());
    }

    #[test]
    fn checkpoint_round_trips_and_guards_its_query_shape() {
        let log = sample_batches().concat();
        let bytes = encode_checkpoint(5, 9, 12, 3, 2, &log);
        assert_eq!(bytes.len(), slot_len(3, 2));
        assert_eq!(bytes.len() as u64, WAL_CHUNK);
        let want = Checkpoint {
            generation: 5,
            watermark: 9,
            epochs_seen: 12,
            log,
        };
        assert_eq!(decode_checkpoint(&bytes, 3, 2).unwrap(), Some(want));
        assert_eq!(decode_checkpoint(&vec![0; bytes.len()], 3, 2).unwrap(), None);
        // Another query's checkpoint; a log naming leaf 2 of a 2-leaf
        // query.
        for (leaves, edges) in [(4, 2), (3, 3)] {
            let r = decode_checkpoint(&bytes, leaves, edges);
            assert!(matches!(r, Err(DataflowError::StateCorruption(_))));
        }
        let r = decode_checkpoint(&encode_checkpoint(5, 9, 12, 2, 2, &sample_batches()[1]), 2, 2);
        assert!(
            matches!(&r, Err(DataflowError::StateCorruption(m)) if m.contains("outside this query")),
            "{r:?}"
        );
    }

    /// A slot holds the largest checkpoint its shape can produce, and a
    /// shape's slots are whole pages.
    #[test]
    fn a_slot_holds_a_write_to_every_parameter() {
        for (leaves, edges) in [(1, 0), (5, 4), (8, 28), (40, 300)] {
            let log: Vec<ParamDelta> = (0..edges)
                .map(|e| ParamDelta::EdgeSelectivity(EdgeId(e), 2.0))
                .chain((0..leaves).map(|l| ParamDelta::LeafCardinality(LeafId(l), 2.0)))
                .chain((0..leaves).map(|l| ParamDelta::LeafScanCost(LeafId(l), 2.0)))
                .collect();
            let slot = encode_checkpoint(1, 0, 0, leaves, edges, &log);
            let len = slot_len(leaves, edges);
            assert_eq!((slot.len(), len % WAL_CHUNK as usize), (len, 0), "{leaves} x {edges}");
            let tight = HEADER_LEN + FRAME_LEN + CHECKPOINT_FIXED_LEN + log.len() * DELTA_LEN;
            assert!(len - tight < WAL_CHUNK as usize, "{leaves} x {edges}");
            assert_eq!(decode_checkpoint(&slot, leaves, edges).unwrap().unwrap().log, log);
        }
    }

    /// A two-slot file image holding `a` and `b` (`None`: empty) for a
    /// 3-leaf, 2-edge query.
    fn slots_image(a: Option<(u64, u64)>, b: Option<(u64, u64)>) -> Vec<u8> {
        let log = sample_batches().concat();
        [a, b]
            .into_iter()
            .flat_map(|slot| match slot {
                Some((generation, watermark)) => {
                    encode_checkpoint(generation, watermark, generation, 3, 2, &log)
                }
                None => vec![0; slot_len(3, 2)],
            })
            .collect()
    }

    /// Which slot a restart uses: the highest generation among the
    /// slots that decode, fit and are covered by the WAL (here 4
    /// records); every other non-empty slot is refused and reported.
    #[test]
    fn a_restart_uses_the_newest_usable_slot() {
        let chosen = |image: &[u8]| {
            let slots = read_slots(image, 3, 2, 4);
            let refused: Vec<usize> = slots.refused.iter().map(|&(i, _)| i).collect();
            (slots.chosen.map(|(i, c)| (i, c.generation)), refused)
        };
        assert_eq!(chosen(&[]), (None, vec![]));
        assert_eq!(chosen(&slots_image(None, None)), (None, vec![]));
        assert_eq!(chosen(&slots_image(Some((1, 2)), None)), (Some((0, 1)), vec![]));
        assert_eq!(chosen(&slots_image(None, Some((1, 2)))), (Some((1, 1)), vec![]));
        // The newer generation wins, in either slot.
        assert_eq!(chosen(&slots_image(Some((3, 4)), Some((2, 2)))), (Some((0, 3)), vec![]));
        assert_eq!(chosen(&slots_image(Some((2, 2)), Some((3, 4)))), (Some((1, 3)), vec![]));
        // A newer slot whose watermark the WAL does not cover is refused.
        assert_eq!(chosen(&slots_image(Some((3, 5)), Some((2, 2)))), (Some((1, 2)), vec![0]));
        assert_eq!(chosen(&slots_image(Some((3, 5)), None)), (None, vec![0]));
        // A damaged slot is refused, not empty, beside a good one or not.
        let mut image = slots_image(Some((2, 2)), Some((3, 4)));
        image[slot_len(3, 2) + HEADER_LEN + FRAME_LEN] ^= 1;
        assert_eq!(chosen(&image), (Some((0, 2)), vec![1]));
        image[HEADER_LEN + FRAME_LEN] ^= 1;
        assert_eq!(chosen(&image), (None, vec![0, 1]));
        let mut image = slots_image(None, None);
        image[slot_len(3, 2) - 1] = 1;
        assert_eq!(chosen(&image), (None, vec![0]));
        // A file of another length is refused as a whole.
        let image = slots_image(Some((2, 2)), Some((3, 4)));
        assert_eq!(chosen(&image[..slot_len(3, 2)]), (None, vec![0]));
        assert_eq!(chosen(&[image.as_slice(), &[0]].concat()), (None, vec![0]));
        assert_eq!(chosen(&[0; 100]), (None, vec![]));
    }

    /// Arming allocates the checkpoint file — two zeroed slots, real
    /// blocks — and ten checkpoints then write the slots by turns, each
    /// a generation past the last, leaving the file's length and the
    /// directory's entries as they were, with no staging file ever.
    #[test]
    fn checkpoints_take_the_slots_by_turns_in_place() {
        let c = fixture_catalog();
        let q = chain_query(&c, 5);
        by_turns(hr(&c, &q), "hr");
        by_turns(decl(&c, &q), "decl");
    }

    /// The test above for one engine.
    fn by_turns<R: Reoptimizer<Outcome: WalReport>>(mut opt: Durable<R>, label: &str) {
        use std::os::unix::fs::MetadataExt as _;
        let dir = scratch_dir(&format!("turns-{label}"));
        let path = dir.join(CHECKPOINT_FILE);
        let (leaves, edges) = (opt.query().n_leaves(), opt.query().edges.len() as u32);
        let slot = slot_len(leaves, edges);
        let entries = || {
            let mut names: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .collect();
            names.sort();
            names
        };
        opt.set_durable_dir(&dir).unwrap();
        opt.optimize();
        let armed = entries();
        let meta = std::fs::metadata(&path).unwrap();
        assert_eq!(meta.len(), 2 * slot as u64, "{label}");
        assert!(meta.blocks() * 512 >= meta.len(), "{label}: a sparse file");
        assert!(std::fs::read(&path).unwrap().iter().all(|&b| b == 0), "{label}");
        for k in 1..=10u64 {
            let batch = [ParamDelta::EdgeSelectivity(EdgeId((k % 4) as u32), (k + 1) as f64)];
            opt.reoptimize(&batch);
            let before = std::fs::read(&path).unwrap();
            opt.checkpoint_durable().unwrap();
            let image = std::fs::read(&path).unwrap();
            assert_eq!(entries(), armed, "{label} checkpoint {k}");
            assert_eq!(image.len(), 2 * slot, "{label} checkpoint {k}");
            let slots = read_slots(&image, leaves, edges, k);
            let (i, ckpt) = slots.chosen.unwrap();
            assert!(slots.refused.is_empty(), "{label} checkpoint {k}");
            assert_eq!((i as u64, ckpt.generation, ckpt.watermark), ((k - 1) % 2, k, k));
            // The other slot is untouched.
            let other = (1 - i) * slot..(2 - i) * slot;
            assert_eq!(image[other.clone()], before[other], "{label} checkpoint {k}");
        }
        drop(opt);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_round_trips_batches_in_order() {
        let batches = sample_batches();
        let bytes = written_wal("round-trip", &batches);
        let scan = wal_records(&bytes).unwrap();
        assert_eq!((&scan.batches, scan.torn), (&batches, false));
        assert_eq!(scan.valid_len, record_bounds(&bytes, 3)[3]);
        // Three small records leave the first chunk's zero tail in place.
        assert_eq!(bytes.len() as u64, WAL_CHUNK);
        assert!(bytes[scan.valid_len..].iter().all(|&b| b == 0));
    }

    /// A file cut short mid-record — the image of a crash that lost the
    /// write that grew the file.
    #[test]
    fn torn_tail_is_discarded_but_intact_prefix_survives() {
        let batches = sample_batches();
        let bytes = written_wal("torn", &batches);
        let bounds = record_bounds(&bytes, 3);
        // Cut mid-record-2: records 0 and 1 survive, the tail is torn.
        for cut in bounds[2] + 1..bounds[3] {
            let scan = wal_records(&bytes[..cut]).unwrap();
            assert_eq!(scan.batches, batches[..2].to_vec(), "cut at {cut}");
            assert_eq!((scan.valid_len, scan.torn), (bounds[2], true), "cut at {cut}");
        }
    }

    #[test]
    fn mid_file_damage_is_corruption_not_silent_loss() {
        let bytes = written_wal("damage", &sample_batches());
        // Flip a payload byte of the first record (skip header + frame).
        let mut evil = bytes.clone();
        evil[HEADER_LEN + FRAME_LEN + 2] ^= 0x40;
        assert!(matches!(
            wal_records(&evil),
            Err(DataflowError::StateCorruption(_))
        ));
    }

    /// Whether `scan` holds a strict prefix of `batches`, never a record
    /// that was not written: what a cut, or a length field damaged into
    /// running past the end, leaves.
    fn is_strict_prefix(scan: &WalScan, batches: &[Vec<ParamDelta>]) -> bool {
        scan.batches.len() < batches.len() && scan.batches == batches[..scan.batches.len()]
    }

    /// Every bit of the log and of the zero frame that ends it: a flip
    /// in the header or in any record but the last is corruption; one in
    /// the last record is a reported torn tail holding a strict prefix
    /// (the file cannot tell it from a crash mid-append); one in the
    /// zero frame is a reported torn tail holding every record (as is
    /// any non-zero byte further into the zero tail, checked below).
    #[test]
    fn every_single_bit_flip_is_detected() {
        let batches = sample_batches();
        let bytes = written_wal("flip", &batches);
        let bounds = record_bounds(&bytes, 3);
        let (last, end) = (bounds[2], bounds[3]);
        for bit in 0..(end + FRAME_LEN) * 8 {
            let at = bit / 8;
            let mut evil = bytes.clone();
            evil[at] ^= 1 << (bit % 8);
            let detected = match wal_records(&evil) {
                Err(DataflowError::StateCorruption(_)) => at < last,
                Err(_) => false,
                Ok(_) if at < last => false,
                Ok(scan) if at < end => scan.torn && is_strict_prefix(&scan, &batches),
                Ok(scan) => scan.torn && scan.batches == batches,
            };
            assert!(detected, "flip of bit {bit} slipped through");
        }
    }

    #[test]
    fn truncation_at_every_length_is_detected() {
        let batches = sample_batches();
        let bytes = written_wal("truncate", &batches);
        let end = record_bounds(&bytes, 3)[3];
        for cut in 0..bytes.len() {
            match wal_records(&bytes[..cut]) {
                Err(e) => assert!(cut < HEADER_LEN, "cut at {cut}: {e}"),
                // A cut on a record boundary is a shorter intact log:
                // the checkpoint's watermark is what notices that one.
                Ok(scan) if cut < end => assert!(
                    scan.valid_len <= cut && is_strict_prefix(&scan, &batches),
                    "cut at {cut} produced a record"
                ),
                // A cut in the zero tail loses nothing.
                Ok(scan) => assert!(!scan.torn && scan.batches == batches, "cut at {cut}"),
            }
        }
    }

    /// The crash images of an append into a preallocated log, with each
    /// record of a three-record log in flight in turn, and the last of
    /// 124 one-delta records, which crosses the first chunk's end: the
    /// acknowledged records, the in-flight record's first `k`
    /// bytes for every `k` (or the whole record but one zeroed byte),
    /// then the zero tail — and, for the record that crosses, the file
    /// cut at its old length too. Each scans to exactly the acknowledged
    /// batches, torn unless nothing of the record reached the disk;
    /// where the missing bytes are zeros anyway the image is the whole
    /// record, which scans as written.
    #[test]
    fn every_crash_image_of_a_preallocated_log_scans_to_its_acknowledged_batches() {
        let crossing: Vec<Vec<ParamDelta>> = (0..124)
            .map(|i| vec![ParamDelta::LeafCardinality(LeafId(i), 2.0)])
            .collect();
        for (label, batches) in [("images", sample_batches()), ("images-crossing", crossing)] {
            let full = written_wal(label, &batches);
            let n = batches.len();
            let bounds = record_bounds(&full, n);
            let grown_by_chunks = (bounds[n] as u64).next_multiple_of(WAL_CHUNK);
            assert_eq!(full.len() as u64, grown_by_chunks, "{label}");
            let first_in_flight = if n > 3 { n - 1 } else { 0 };
            for last in first_in_flight..n {
                let (start, end) = (bounds[last], bounds[last + 1]);
                let record = &full[start..end];
                let check = |image: &[u8], missing: &[u8], what: &str| {
                    let scan = wal_records(image).unwrap_or_else(|e| panic!("{what}: {e}"));
                    if missing.iter().all(|&b| b == 0) {
                        assert_eq!(scan.batches, batches[..=last], "{what}");
                        return;
                    }
                    assert_eq!(scan.batches, batches[..last], "{what}");
                    assert_eq!(scan.valid_len, start, "{what}");
                    let written = image[start..].iter().any(|&b| b != 0);
                    assert_eq!(scan.torn, written, "{what}");
                };
                let mut image = full.clone();
                image[bounds[last + 1]..].fill(0);
                for k in 0..=record.len() {
                    image[start..end].copy_from_slice(record);
                    image[start + k..end].fill(0);
                    check(&image, &record[k..], &format!("{label} record {last}, k = {k}"));
                    if end > WAL_CHUNK as usize && start + k <= WAL_CHUNK as usize {
                        let what = format!("{label} record {last}, k = {k}, file cut");
                        check(&image[..WAL_CHUNK as usize], &record[k..], &what);
                    }
                }
                for i in 0..record.len() {
                    image[start..end].copy_from_slice(record);
                    image[start + i] = 0;
                    let what = format!("{label} record {last}, byte {i} zeroed");
                    check(&image, &record[i..=i], &what);
                }
            }
        }
    }

    /// Beside an append torn mid-record, damage to a record before the
    /// last acknowledged one is still corruption; and a non-zero byte
    /// anywhere in the zero tail of an intact log is a reported torn
    /// tail that keeps every record.
    #[test]
    fn damage_before_a_torn_record_and_in_the_zero_tail_is_reported() {
        let batches = sample_batches();
        let full = written_wal("damage-images", &batches);
        let bounds = record_bounds(&full, 3);
        let mut torn = full.clone();
        torn[bounds[2] + 5..bounds[3]].fill(0);
        for bit in HEADER_LEN * 8..bounds[1] * 8 {
            let mut evil = torn.clone();
            evil[bit / 8] ^= 1 << (bit % 8);
            let r = wal_records(&evil);
            assert!(matches!(r, Err(DataflowError::StateCorruption(_))), "bit {bit}");
        }
        for at in bounds[3]..full.len() {
            let mut evil = full.clone();
            evil[at] = 0x5A;
            let scan = wal_records(&evil).unwrap();
            assert!(scan.torn && scan.batches == batches, "byte {at}");
            assert_eq!(scan.valid_len, bounds[3], "byte {at}");
        }
    }

    /// The pipelined writer frames exactly what `wal_append` frames; a
    /// record whose fsync fails is cut back off before the failure is
    /// reported, so the retry reuses its sequence number and the log
    /// stays contiguous; a cut that fails too stops the writer.
    #[test]
    fn a_failed_append_is_cut_back_off_the_log() {
        let batches = sample_batches();
        let dir = scratch_dir("writer");
        let path = dir.join(WAL_FILE);
        wal_init(&path).unwrap();
        let mut w = WalWriter::new(dir.clone(), 0, HEADER_LEN as u64);
        let append =
            |w: &mut WalWriter, deltas: &[ParamDelta]| w.begin(deltas).and_then(|()| w.finish());
        let scanned = || {
            let scan = wal_records(&std::fs::read(&path).unwrap()).unwrap();
            assert!(!scan.torn);
            (scan.batches, scan.valid_len)
        };
        w.fault = Some(WalFault {
            record: 1,
            truncate_too: false,
        });
        append(&mut w, &batches[0]).unwrap();
        let acked = scanned();
        assert!(append(&mut w, &batches[1]).is_err());
        assert_eq!(scanned(), acked, "the failed record stayed");
        // The fault is one-shot: the retry carries the same number.
        append(&mut w, &batches[1]).unwrap();
        append(&mut w, &batches[2]).unwrap();
        let reference = written_wal("writer-ref", &batches);
        let scan = wal_records(&reference).unwrap();
        assert_eq!(scanned(), (scan.batches, scan.valid_len));
        assert_eq!(std::fs::read(&path).unwrap(), reference);

        w.fault = Some(WalFault {
            record: 3,
            truncate_too: true,
        });
        let e = append(&mut w, &batches[0]).unwrap_err();
        assert!(e.to_string().contains("appends stop"), "{e}");
        let e = append(&mut w, &batches[0]).unwrap_err();
        assert!(e.to_string().contains("appends stopped"), "{e}");
        drop(w);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn opening_a_wal_adopts_heals_or_replaces_it() {
        let dir = scratch_dir("open");
        let path = dir.join(WAL_FILE);
        // Missing: created empty, no error, no history.
        let wal = open_dir(&dir).unwrap();
        assert!(wal.batches.is_empty() && !wal.torn && wal.error.is_none());
        let empty = std::fs::read(&path).unwrap();
        assert_eq!(empty.len() as u64, WAL_CHUNK);
        assert_eq!(empty[..HEADER_LEN], header(WAL_MAGIC, WAL_VERSION));
        assert_eq!((wal.len, wal_records(&empty).unwrap().valid_len), (8, HEADER_LEN));
        // Intact: adopted as it is — not written, so its modification
        // time stays put — and appends continue after it.
        let batches = sample_batches();
        for (i, b) in batches.iter().enumerate() {
            wal_append(&path, i as u64, b).unwrap();
        }
        let intact = std::fs::read(&path).unwrap();
        let bounds = record_bounds(&intact, 3);
        let long_ago = std::time::SystemTime::UNIX_EPOCH + Duration::from_secs(1 << 30);
        File::options().write(true).open(&path).unwrap().set_modified(long_ago).unwrap();
        let wal = open_dir(&dir).unwrap();
        assert_eq!((wal.batches, wal.next_seq, wal.torn), (batches.clone(), 3, false));
        assert_eq!(wal.len, bounds[3] as u64);
        assert_eq!(std::fs::metadata(&path).unwrap().modified().unwrap(), long_ago);
        assert_eq!(std::fs::read(&path).unwrap(), intact);
        // Torn in place, or cut short: the torn record is zeroed where
        // it lies, the prefix adopted, the file keeps its length.
        let mut torn_in_place = intact.clone();
        torn_in_place[bounds[2] + 4..bounds[3]].fill(0);
        for image in [torn_in_place, intact[..bounds[3] - 3].to_vec()] {
            std::fs::write(&path, &image).unwrap();
            let wal = open_dir(&dir).unwrap();
            assert_eq!((wal.batches.len(), wal.next_seq, wal.torn), (2, 2, true));
            assert_eq!((wal.len, &wal.error), (bounds[2] as u64, &None));
            let healed = std::fs::read(&path).unwrap();
            assert_eq!(healed.len(), image.len());
            let scan = wal_records(&healed).unwrap();
            assert_eq!((&scan.batches[..], scan.torn), (&batches[..2], false));
            // The next append lands where the torn record began.
            wal_append(&path, 2, &batches[2]).unwrap();
            assert_eq!(wal_records(&std::fs::read(&path).unwrap()).unwrap().batches, batches);
        }
        // An appender refuses a torn log, and a sequence number that is
        // not the next, leaving the file as it is.
        std::fs::write(&path, &intact[..bounds[3] - 3]).unwrap();
        let e = wal_append(&path, 2, &batches[2]).unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
        std::fs::write(&path, &intact).unwrap();
        let e = wal_append(&path, 2, &batches[2]).unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{e}");
        assert_eq!(std::fs::read(&path).unwrap(), intact);
        // Damaged: replaced by an empty log, the scan error handed back.
        let mut evil = intact.clone();
        evil[HEADER_LEN + FRAME_LEN + 2] ^= 0x40;
        std::fs::write(&path, &evil).unwrap();
        let wal = open_dir(&dir).unwrap();
        assert!(wal.batches.is_empty() && wal.next_seq == 0);
        assert!(matches!(wal.error, Some(DataflowError::StateCorruption(_))));
        assert_eq!(std::fs::read(&path).unwrap(), empty);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The hand-rolled engine, durable.
    fn hr(c: &Catalog, q: &QuerySpec) -> Durable<IncrementalOptimizer> {
        Durable::from(IncrementalOptimizer::new(c, q.clone(), PruningConfig::default()))
    }

    /// The declarative engine, durable, its audit off.
    fn decl(c: &Catalog, q: &QuerySpec) -> DataflowOptimizer {
        let mut opt = DataflowOptimizer::new(c, q.clone());
        opt.set_audit_mode(AuditMode::Off);
        opt
    }

    /// The epoch count follows the engine's: a batch counts iff it
    /// changes a parameter's value, which is when `Factors::apply`
    /// reports it — a write of 1.0 to a parameter never written, the
    /// same value twice, a batch that writes a value and takes it back.
    #[test]
    fn the_fold_changes_when_the_estimates_do() {
        let (e, l) = (EdgeId(1), LeafId(0));
        let batches = [
            vec![ParamDelta::EdgeSelectivity(e, 1.0)],
            vec![ParamDelta::EdgeSelectivity(e, 2.0)],
            vec![ParamDelta::EdgeSelectivity(e, 2.0)],
            vec![ParamDelta::LeafCardinality(l, 3.0), ParamDelta::LeafCardinality(l, 1.0)],
            vec![ParamDelta::LeafScanCost(l, 1.0), ParamDelta::EdgeSelectivity(e, 2.0)],
            vec![ParamDelta::EdgeSelectivity(e, 1.0), ParamDelta::LeafScanCost(l, 0.5)],
            vec![],
        ];
        let (mut log, mut factors) = (Vec::new(), Factors::default());
        for batch in &batches {
            let changed = fold_last_writes(&mut log, batch);
            assert_eq!(changed, !factors.apply(batch).is_empty(), "{batch:?}");
            assert!(holds(&factors, &log), "{batch:?}");
        }
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn checkpoint_durable_without_a_directory_is_an_error() {
        let c = fixture_catalog();
        let q = chain_query(&c, 3);
        let (mut hr, mut decl) = (hr(&c, &q), decl(&c, &q));
        hr.optimize();
        decl.optimize();
        for err in [hr.checkpoint_durable(), decl.checkpoint_durable()] {
            let err = err.expect_err("no durable directory armed");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        }
    }

    /// The write-ahead contract under the pipelined WAL, for both
    /// engines: when `reoptimize` returns, the log scans clean to
    /// exactly `wal_seq` records in sequence, the last of them this
    /// batch — batches that change nothing included. Unarmed, the WAL
    /// costs nothing.
    #[test]
    fn every_acknowledged_batch_is_the_logs_last_record() {
        let c = fixture_catalog();
        let q = chain_query(&c, 5);
        every_batch_is_logged(|| hr(&c, &q), |_| true, "hr");
        every_batch_is_logged(|| decl(&c, &q), |out| out.recovery.is_clean(), "decl");
    }

    /// The test above for one engine; `clean` holds an epoch's outcome
    /// to the engine's own report.
    fn every_batch_is_logged<R: Reoptimizer<Outcome: WalReport>>(
        make: impl Fn() -> Durable<R>,
        clean: impl Fn(&R::Outcome) -> bool,
        label: &str,
    ) {
        let mut unarmed = make();
        unarmed.reoptimize(&[ParamDelta::LeafCardinality(LeafId(0), 2.0)]);
        assert_eq!(unarmed.last_wal(), &WalEpoch::default(), "{label}");
        let dir = scratch_dir(&format!("acked-{label}"));
        let mut opt = make();
        opt.set_durable_dir(&dir).unwrap();
        let mut logged: Vec<Vec<ParamDelta>> = Vec::new();
        for i in 0..12u32 {
            let batch = match i % 4 {
                3 => logged.last().unwrap().clone(),
                _ => vec![ParamDelta::EdgeSelectivity(EdgeId(i % 4), f64::from(i % 3 + 2))],
            };
            assert!(clean(&opt.reoptimize(&batch)), "{label} epoch {i}");
            assert_eq!(opt.last_wal().error, None, "{label}");
            assert!(opt.last_wal().write > Duration::ZERO, "{label}");
            logged.push(batch);
            let wal = open_dir(&dir).unwrap();
            let wal_seq = opt.wal.as_ref().unwrap().wal_seq;
            assert_eq!((wal.next_seq, wal.torn, wal.error), (wal_seq, false, None));
            assert_eq!(wal.batches, logged, "{label} epoch {i}");
        }
        drop(opt);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
