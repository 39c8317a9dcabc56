//! Durability for any re-optimizer: [`Durable`] wraps an engine behind
//! the [`Reoptimizer`] seam and owns the one file it persists and the
//! restart.
//!
//! Every engine's state is a function of its [`CostContext`]'s
//! parameter factors, so the durable state is the folded parameter log:
//! the last write to each parameter. Every epoch whose batch changes a
//! parameter is a checkpoint: the log with the batch folded in is
//! written whole, as an *image*, into the slot a restart would not use
//! before the engine is handed the batch; its `sync_data` runs on a
//! helper thread while the epoch computes, and `reoptimize` returns —
//! the batch acknowledged — once both are done. A restart builds a
//! fresh engine on the newest usable image and runs one `optimize()`;
//! nothing is replayed, and since no engine state is kept, a directory
//! one engine wrote restarts another.
//!
//! The file, `checkpoint.bin` (integers little-endian):
//!
//! ```text
//! file    := slot slot                        -- slot_len bytes each
//! slot    := "RPRM" version(u32) record zero* -- version 3
//!          | zero*                            -- empty
//! record  := len(u32) crc32(u32, over payload) payload[len]
//! payload := generation(u64) epochs_seen(u64) leaves(u32) edges(u32)
//!            count(u32) delta*
//! delta   := tag(u8) id(u32) factor(f64 bits)
//! ```
//!
//! A slot holds the largest image the query's shape can produce in whole
//! 4 KiB pages (one page holds about 310 parameters; clique-12 has 90),
//! so a write never touches the other slot's page. The file is allocated
//! with real zeros (a sparse hole's first write would commit metadata).
//! A restart uses the slot of the highest `generation` that decodes and
//! fits; a crash mid-write tears only the slot being written, whose
//! epoch was not acknowledged, so the other slot restores the last
//! acknowledged one. A failed write or sync zeroes its own slot, so the
//! acknowledged image is never touched. With no usable slot but a
//! damaged one the restart is at base estimates, and says so.
//!
//! [`CostContext`]: reopt_cost::CostContext

use std::fs::File;
use std::io::{self, Write as _};
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

/// The file an armed directory holds: two image slots.
pub const CHECKPOINT_FILE: &str = "checkpoint.bin";
/// The write-ahead log's name, which the per-epoch image replaced: an
/// armed directory holds no such file, but [`wal_append`] times one
/// image write in it.
pub const WAL_FILE: &str = "wal.bin";

/// Slot magic (older builds' `RCKP` network images are refused by it).
const MAGIC: [u8; 4] = *b"RPRM";
/// The only version read. Version 2 was a checkpoint a write-ahead
/// log's tail completed, version 1 one checkpoint filling the file.
const VERSION: u32 = 3;
const PAGE: usize = 4096;
/// Bytes of `magic version`, of a record's `len crc32` frame, of a
/// payload ahead of its deltas and of one delta.
const HEADER_LEN: usize = 8;
const FRAME_LEN: usize = 8;
const FIXED_LEN: usize = 2 * 8 + 3 * 4;
const DELTA_LEN: usize = 13;
const TAG_EDGE_SELECTIVITY: u8 = 0;
const TAG_LEAF_CARDINALITY: u8 = 1;
const TAG_LEAF_SCAN_COST: u8 = 2;

fn corrupt(msg: impl Into<String>) -> DataflowError {
    DataflowError::StateCorruption(msg.into())
}

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over `bytes`,
/// eight bytes a step (slicing-by-8): every durable epoch checksums its
/// whole image before writing it.
pub fn crc32(bytes: &[u8]) -> u32 {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    let t = TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        t[0] = std::array::from_fn(|i| {
            (0..8).fold(i as u32, |c, _| if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 })
        });
        for k in 1..8 {
            t[k] = std::array::from_fn(|i| (t[k - 1][i] >> 8) ^ t[0][(t[k - 1][i] & 0xFF) as usize]);
        }
        t
    });
    let mut words = bytes.chunks_exact(8);
    let crc = (&mut words).fold(!0u32, |crc, word| {
        let w = u64::from_le_bytes(word.try_into().unwrap()) ^ u64::from(crc);
        (0..8).fold(0, |acc, i| acc ^ t[7 - i][((w >> (8 * i)) & 0xFF) as usize])
    });
    !words.remainder().iter().fold(crc, |crc, &b| t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8))
}

/// Payload decoder: every read is bounds-checked, so a damaged payload
/// is [`DataflowError::StateCorruption`], never a panic.
struct Dec<'a>(&'a [u8]);

impl Dec<'_> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], DataflowError> {
        let (head, rest) = self.0.split_first_chunk().ok_or_else(|| corrupt("payload truncated"))?;
        self.0 = rest;
        Ok(*head)
    }

    fn u32(&mut self) -> Result<u32, DataflowError> {
        Ok(u32::from_le_bytes(self.take()?))
    }

    fn u64(&mut self) -> Result<u64, DataflowError> {
        Ok(u64::from_le_bytes(self.take()?))
    }
}

/// Checks the `magic version` that opens a slot.
fn check_header(bytes: &[u8]) -> Result<(), DataflowError> {
    let Some(head) = bytes.first_chunk::<HEADER_LEN>() else {
        return Err(corrupt("checkpoint shorter than its header"));
    };
    if head[..4] != MAGIC {
        return Err(corrupt(format!("bad checkpoint magic {:?} (want {MAGIC:?})", &head[..4])));
    }
    let found = u32::from_le_bytes(head[4..].try_into().unwrap());
    if found != VERSION {
        let msg = format!("unsupported checkpoint version {found} (reader speaks {VERSION})");
        return Err(corrupt(msg));
    }
    Ok(())
}

/// The record framed at `pos`: its payload and the offset just past it.
/// A frame that runs past the end of `bytes` (a torn write) or a payload
/// that fails its CRC is [`DataflowError::StateCorruption`].
fn read_record(bytes: &[u8], pos: usize) -> Result<(&[u8], usize), DataflowError> {
    let truncated = || corrupt("checkpoint record truncated");
    let frame = bytes[pos..].first_chunk::<FRAME_LEN>().ok_or_else(truncated)?;
    let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
    let want_crc = u32::from_le_bytes(frame[4..].try_into().unwrap());
    let start = pos + FRAME_LEN;
    let end = start.checked_add(len).filter(|&e| e <= bytes.len()).ok_or_else(truncated)?;
    let got_crc = crc32(&bytes[start..end]);
    if got_crc != want_crc {
        return Err(corrupt(format!(
            "record at byte {pos} failed its CRC (stored {want_crc:#010x}, computed {got_crc:#010x})"
        )));
    }
    Ok((&bytes[start..end], end))
}

/// Creates `path` as `len` zero bytes — real blocks, not a sparse hole —
/// synced with its directory entry (best effort).
fn allocate(path: &Path, len: usize) -> io::Result<File> {
    let mut f = File::options().write(true).create(true).truncate(true).open(path)?;
    f.write_all(&vec![0; len])?;
    f.sync_all()?;
    let _ = path.parent().map(|dir| File::open(dir).and_then(|d| d.sync_all()));
    Ok(f)
}

/// What an image slot holds: its generation (one past the image a
/// restart would have used when it was written; of two usable slots, a
/// restart uses the higher), the optimizer's epoch count then, and the
/// last write per parameter, in first-write order.
#[derive(Debug, PartialEq)]
pub struct Checkpoint {
    pub generation: u64,
    pub epochs_seen: u64,
    pub log: Vec<ParamDelta>,
}

/// The slot length for a query of `leaves` leaves and `edges` join edges:
/// its largest image (one delta per parameter) in whole pages.
fn slot_len(leaves: u32, edges: u32) -> usize {
    let params = edges as usize + 2 * leaves as usize;
    (HEADER_LEN + FRAME_LEN + FIXED_LEN + params * DELTA_LEN).next_multiple_of(PAGE)
}

/// Encodes the image of `log` for a query of `leaves` leaves and `edges`
/// join edges as the bytes a slot starts with, `magic version record`;
/// the rest of the slot is zeros.
pub fn encode_checkpoint(
    generation: u64,
    epochs_seen: u64,
    leaves: u32,
    edges: u32,
    log: &[ParamDelta],
) -> Vec<u8> {
    const AT: usize = HEADER_LEN + FRAME_LEN; // where the payload starts
    let mut out = Vec::with_capacity(AT + FIXED_LEN + log.len() * DELTA_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&[0; FRAME_LEN]); // filled in below
    out.extend_from_slice(&generation.to_le_bytes());
    out.extend_from_slice(&epochs_seen.to_le_bytes());
    for word in [leaves, edges, log.len() as u32] {
        out.extend_from_slice(&word.to_le_bytes());
    }
    for d in log {
        let ((tag, id), factor) = key_and_factor(d);
        out.push(tag);
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&factor.to_bits().to_le_bytes());
    }
    let (len, crc) = ((out.len() - AT) as u32, crc32(&out[AT..]));
    out[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&len.to_le_bytes());
    out[HEADER_LEN + 4..AT].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Decodes one slot for a query of `leaves` leaves and `edges` join
/// edges: `None` for an all-zero slot. Anything but a well-formed image
/// of exactly that shape whose every parameter is in range, followed by
/// zeros only, is [`DataflowError::StateCorruption`]; the delta count is
/// checked against the bytes present before anything is allocated.
pub fn decode_checkpoint(
    slot: &[u8],
    leaves: u32,
    edges: u32,
) -> Result<Option<Checkpoint>, DataflowError> {
    if slot.iter().all(|&b| b == 0) {
        return Ok(None);
    }
    check_header(slot)?;
    let (payload, end) = read_record(slot, HEADER_LEN)?;
    if slot[end..].iter().any(|&b| b != 0) {
        return Err(corrupt("non-zero byte after the checkpoint record"));
    }
    let mut d = Dec(payload);
    let (generation, epochs_seen) = (d.u64()?, d.u64()?);
    let shape = (d.u32()?, d.u32()?);
    if shape != (leaves, edges) {
        return Err(corrupt(format!(
            "checkpoint is of a query with {} leaves and {} edges, this one has {leaves} and {edges}",
            shape.0, shape.1
        )));
    }
    let count = d.u32()? as usize;
    if d.0.len() != count.saturating_mul(DELTA_LEN) {
        let left = d.0.len();
        return Err(corrupt(format!("checkpoint announces {count} deltas over {left} bytes")));
    }
    let mut log = Vec::with_capacity(count);
    for _ in 0..count {
        let [tag] = d.take()?;
        let (id, factor) = (d.u32()?, f64::from_bits(d.u64()?));
        log.push(match tag {
            TAG_EDGE_SELECTIVITY if id < edges => ParamDelta::EdgeSelectivity(EdgeId(id), factor),
            TAG_LEAF_CARDINALITY if id < leaves => ParamDelta::LeafCardinality(LeafId(id), factor),
            TAG_LEAF_SCAN_COST if id < leaves => ParamDelta::LeafScanCost(LeafId(id), factor),
            0..=2 => return Err(corrupt(format!("parameter {tag}:{id} is outside this query"))),
            t => return Err(corrupt(format!("unknown parameter-delta tag {t}"))),
        });
    }
    Ok(Some(Checkpoint { generation, epochs_seen, log }))
}

/// What a restart finds in a checkpoint file: the usable slot of the
/// highest generation and its image, and every slot neither empty nor
/// usable, with why (a file that is not two slots of the query's length
/// is refused whole, as slot 0).
#[derive(Debug, Default, PartialEq)]
pub struct Slots {
    pub chosen: Option<(usize, Checkpoint)>,
    pub refused: Vec<(usize, DataflowError)>,
}

/// Reads a checkpoint file for a query of `leaves` leaves, `edges` edges.
pub fn read_slots(file: &[u8], leaves: u32, edges: u32) -> Slots {
    let slot_len = slot_len(leaves, edges);
    let mut slots = Slots::default();
    if file.len() != 2 * slot_len {
        if file.iter().any(|&b| b != 0) {
            let e = check_header(file).err().unwrap_or_else(|| {
                let len = file.len();
                corrupt(format!("checkpoint file is {len} bytes, not two slots of {slot_len}"))
            });
            slots.refused.push((0, e));
        }
        return slots;
    }
    for (i, slot) in file.chunks_exact(slot_len).enumerate() {
        match decode_checkpoint(slot, leaves, edges) {
            Ok(Some(c)) if slots.chosen.as_ref().is_none_or(|b| c.generation > b.1.generation) => {
                slots.chosen = Some((i, c));
            }
            Ok(_) => {}
            Err(DataflowError::StateCorruption(m)) => {
                slots.refused.push((i, corrupt(format!("checkpoint slot {i}: {m}"))));
            }
            Err(e) => slots.refused.push((i, e)),
        }
    }
    slots
}

/// A one-shot failure for crash tests ([`Durable::inject_write_fault`]):
/// the sync of image `generation` fails, and with `zero_too` so does
/// zeroing its slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteFault {
    pub generation: u64,
    pub zero_too: bool,
}

/// The thread that syncs an armed directory's file over two bounded
/// channels, both made on the caller's side.
struct SyncHelper {
    request: SyncSender<()>,
    synced: Receiver<io::Result<()>>,
    thread: JoinHandle<()>,
}

impl SyncHelper {
    fn start(file: Arc<File>) -> io::Result<SyncHelper> {
        let (request, requests) = sync_channel::<()>(1);
        let (done, synced) = sync_channel(1);
        let thread = std::thread::Builder::new()
            .name("image-sync".into())
            .stack_size(32 * 1024)
            .spawn(move || {
                for () in requests {
                    if done.send(file.sync_data()).is_err() {
                        break;
                    }
                }
            })?;
        Ok(SyncHelper { request, synced, thread })
    }
}

/// An armed directory's checkpoint file and where the next image goes.
/// The sync helper is made by the first write and joined on drop.
struct SlotWriter {
    dir: PathBuf,
    file: Arc<File>,
    shape: (u32, u32),
    slot_len: u64,
    /// Where each slot's last non-zero byte ends: an image written into
    /// it writes its record and zeros up to there, not the whole slot.
    ends: [usize; 2],
    /// The slot the next image goes to — never the one a restart would
    /// use — and its generation.
    next: usize,
    generation: u64,
    /// An acknowledged image holds what the wrapper holds: not in a
    /// directory armed without a usable image, nor after a failed write.
    current: bool,
    helper: Option<SyncHelper>,
    /// A failed image could not be zeroed: nothing more is written.
    stopped: bool,
    fault: Option<WriteFault>,
}

impl SlotWriter {
    /// Opens the checkpoint file in `dir` (both made if missing) with what
    /// a restart finds in it. A file that is not two slots of this shape
    /// is allocated anew and a refused slot zeroed; an intact one is read.
    fn open(dir: &Path, leaves: u32, edges: u32) -> io::Result<(SlotWriter, Slots)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(CHECKPOINT_FILE);
        let slot_len = slot_len(leaves, edges);
        let bytes = match std::fs::read(&path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            read => read?,
        };
        let slots = read_slots(&bytes, leaves, edges);
        let mut ends = [0; 2];
        let file = if bytes.len() == 2 * slot_len {
            let f = File::options().write(true).open(&path)?;
            for (i, slot) in bytes.chunks_exact(slot_len).enumerate() {
                ends[i] = slot.iter().rposition(|&b| b != 0).map_or(0, |at| at + 1);
            }
            for &(i, _) in &slots.refused {
                f.write_all_at(&vec![0; slot_len], (i * slot_len) as u64)?;
                ends[i] = 0;
            }
            if !slots.refused.is_empty() {
                f.sync_data()?;
            }
            f
        } else {
            allocate(&path, 2 * slot_len)?
        };
        let chosen = slots.chosen.as_ref();
        let (next, generation) = chosen.map_or((0, 1), |(i, c)| (1 - i, c.generation + 1));
        let writer = SlotWriter {
            dir: dir.to_path_buf(),
            file: Arc::new(file),
            shape: (leaves, edges),
            slot_len: slot_len as u64,
            ends,
            next,
            generation,
            current: chosen.is_some(),
            helper: None,
            stopped: false,
            fault: None,
        };
        Ok((writer, slots))
    }

    /// Writes the image of `log` after `epochs_seen` epochs into the next
    /// slot and hands its sync to the helper; [`SlotWriter::finish`] acks.
    fn begin(&mut self, epochs_seen: u64, log: &[ParamDelta]) -> io::Result<()> {
        use io::Error;
        self.current = false;
        if self.stopped {
            return Err(Error::other("image writes stopped: a failed image could not be zeroed"));
        }
        let ((leaves, edges), generation) = (self.shape, self.generation);
        let mut image = encode_checkpoint(generation, epochs_seen, leaves, edges, log);
        let end = image.len();
        if end as u64 > self.slot_len {
            let msg = format!("an image of {end} bytes does not fit its slot");
            return Err(Error::new(io::ErrorKind::InvalidInput, msg));
        }
        image.resize(end.max(self.ends[self.next]), 0);
        let helper = match &mut self.helper {
            Some(helper) => helper,
            None => self.helper.insert(SyncHelper::start(Arc::clone(&self.file))?),
        };
        let written = self.file.write_all_at(&image, self.next as u64 * self.slot_len);
        self.ends[self.next] = end;
        let handed_off = written.and_then(|()| helper.request.send(()).map_err(Error::other));
        handed_off.map_err(|e| self.zero_next(e, false))
    }

    /// Waits for the sync a successful [`SlotWriter::begin`] handed off:
    /// `Ok` once the image is durable, `Err` once its slot is zeroed.
    fn finish(&mut self) -> io::Result<()> {
        let helper = self.helper.as_ref().expect("a written image has a helper");
        let exited = |_| Err(io::Error::other("the sync helper exited"));
        let mut synced = helper.synced.recv().unwrap_or_else(exited);
        let fault = self.fault.take_if(|f| f.generation == self.generation);
        if fault.is_some() {
            synced = Err(io::Error::other("injected image sync failure"));
        }
        match synced {
            Ok(()) => {
                self.next = 1 - self.next;
                self.generation += 1;
                self.current = true;
                Ok(())
            }
            Err(e) => Err(self.zero_next(e, fault.is_some_and(|f| f.zero_too))),
        }
    }

    /// Zeroes the next slot and syncs it, returning `cause`; a failed (or
    /// faked, `fake_failure`) zeroing stops the writer and says so.
    fn zero_next(&mut self, cause: io::Error, fake_failure: bool) -> io::Error {
        let zeroed = if fake_failure {
            Err(io::Error::other("injected zeroing failure"))
        } else {
            self.ends[self.next] = 0;
            let zeros = vec![0; self.slot_len as usize];
            let at = self.next as u64 * self.slot_len;
            self.file.write_all_at(&zeros, at).and_then(|()| self.file.sync_data())
        };
        match zeroed {
            Ok(()) => cause,
            Err(e) => {
                self.stopped = true;
                let msg = format!("{cause}; zeroing its slot failed too, so image writes stop: {e}");
                io::Error::new(cause.kind(), msg)
            }
        }
    }
}

impl Drop for SlotWriter {
    fn drop(&mut self) {
        if let Some(helper) = self.helper.take() {
            // Closing the request channel ends the helper's loop.
            drop(helper.request);
            let _ = helper.thread.join();
        }
    }
}

/// Creates `path` as two zeroed one-page slots for [`wal_append`].
pub fn wal_init(path: &Path) -> io::Result<()> {
    allocate(path, 2 * PAGE).map(drop)
}

/// One image write on its own, as an armed epoch makes it: `deltas`,
/// folded, as the image of generation `seq + 1` for the smallest query
/// shape that holds them, written in place over slot `seq % 2` of the
/// file [`wal_init`] made — the whole slot, as nothing is read to tell
/// where its old content ends — then `sync_data`.
pub fn wal_append(path: &Path, seq: u64, deltas: &[ParamDelta]) -> io::Result<()> {
    let mut log = Vec::new();
    fold_last_writes(&mut log, deltas);
    let (leaves, edges) = log.iter().fold((0, 0), |(l, e), d| match *d {
        ParamDelta::EdgeSelectivity(x, _) => (l, e.max(x.0 + 1)),
        ParamDelta::LeafCardinality(x, _) | ParamDelta::LeafScanCost(x, _) => (l.max(x.0 + 1), e),
    });
    let mut image = encode_checkpoint(seq + 1, seq + 1, leaves, edges, &log);
    image.resize(slot_len(leaves, edges), 0);
    let file = File::options().write(true).open(path)?;
    file.write_all_at(&image, seq % 2 * image.len() as u64)?;
    file.sync_data()
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
/// first-write order: factors are absolute, so only the last write to a
/// parameter matters. `true` when a write changed a parameter's value
/// (an absent one reads 1.0) — when an engine handed the same batch sees
/// its estimates change.
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

/// What a restart found on disk: how far the file could be trusted (see
/// [`Durable::restart`]), and every damage found on the way, in order.
#[derive(Clone, Debug, PartialEq)]
pub struct Restart {
    pub path: RecoveryPath,
    pub errors: Vec<DataflowError>,
}

/// The history of `dir` for query `q`: the parameters and the epoch
/// count a restart recovers from it, what it found, and the open file.
fn history(dir: &Path, q: &QuerySpec) -> io::Result<(Vec<ParamDelta>, u64, Restart, SlotWriter)> {
    let (leaves, edges) = (q.n_leaves(), q.edges.len() as u32);
    let (writer, found) = SlotWriter::open(dir, leaves, edges)?;
    let mut errors: Vec<DataflowError> = found.refused.into_iter().map(|(_, e)| e).collect();
    let (path, log, epochs_seen) = match found.chosen {
        Some((_, c)) => (RecoveryPath::RestoredFromCheckpoint, c.log, c.epochs_seen),
        None if errors.is_empty() => (RecoveryPath::Committed, Vec::new(), 0),
        None => {
            errors.push(corrupt(format!(
                "no usable parameter image: every cardinality and scan cost of the {leaves} leaves \
                 and every selectivity of the {edges} edges restarts at its base estimate"
            )));
            (RecoveryPath::RebuiltAfterCorruptCheckpoint, Vec::new(), 0)
        }
    };
    Ok((log, epochs_seen, Restart { path, errors }, writer))
}

/// The durable layer's share of one epoch (zero unless it wrote an image).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EpochWrite {
    /// Writing the epoch's image.
    pub write: Duration,
    /// Waiting for its sync after the epoch (zero if the epoch outlasted it).
    pub wait: Duration,
    /// Why the image was not acknowledged: the batch is in memory only.
    pub error: Option<DataflowError>,
}

/// An outcome a failed image write is reported into, ahead of its own.
pub trait WriteReport {
    fn write_failed(&mut self, error: DataflowError);
}

/// No error list here: a failed write is read off [`Durable::last_write`].
impl WriteReport for reopt_core::Outcome {
    fn write_failed(&mut self, _: DataflowError) {}
}

/// A re-optimizer made durable (see the module docs); unarmed, it keeps
/// the log and the epoch count an image would hold. It dereferences to
/// the engine for everything else.
pub struct Durable<R> {
    engine: R,
    /// The last write to each parameter, in first-write order: what the
    /// engine's estimates are a function of.
    applied: Vec<ParamDelta>,
    /// Epochs run, counting those before a restart: each `optimize`, and
    /// each batch that changed a parameter.
    epochs_seen: u64,
    /// Armed: the directory's checkpoint file.
    slots: Option<SlotWriter>,
    last_write: EpochWrite,
}

/// Wraps an engine that has applied no parameter yet (arming refuses one
/// whose estimates the wrapper did not log).
impl<R> From<R> for Durable<R> {
    fn from(engine: R) -> Durable<R> {
        Durable {
            engine,
            applied: Vec::new(),
            epochs_seen: 0,
            slots: None,
            last_write: EpochWrite::default(),
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

impl<R: Reoptimizer<Outcome: WriteReport>> Durable<R> {
    /// The engine's `optimize`, counted as an epoch.
    pub fn optimize(&mut self) -> R::Outcome {
        self.epochs_seen += 1;
        self.engine.optimize()
    }

    /// With a directory armed, the batch is acknowledged — durable — when
    /// this returns, or the failure is in [`Durable::last_write`] and
    /// reported into the outcome.
    pub fn reoptimize(&mut self, deltas: &[ParamDelta]) -> R::Outcome {
        // The image is written before the engine is handed the batch. A
        // failed write leaves the batch in memory only and is reported,
        // never panicked on; the next image holds it again.
        let changed = fold_last_writes(&mut self.applied, deltas);
        self.epochs_seen += u64::from(changed);
        let begun = self.slots.as_mut().filter(|_| changed).map(|s| {
            let clock = Instant::now();
            (s.begin(self.epochs_seen, &self.applied), clock.elapsed())
        });
        let mut out = self.engine.reoptimize(deltas);
        self.last_write = match (self.slots.as_mut(), begun) {
            (Some(s), Some((begun, write))) => {
                let clock = Instant::now();
                let error = begun.and_then(|()| s.finish()).err().map(|e| {
                    corrupt(format!("image write failed, operating in-memory for this batch: {e}"))
                });
                EpochWrite { write, wait: clock.elapsed(), error }
            }
            _ => EpochWrite::default(),
        };
        if let Some(e) = &self.last_write.error {
            out.write_failed(e.clone());
        }
        out
    }

    /// Arms durability: every later [`Durable::reoptimize`] that changes a
    /// parameter writes an image into `<dir>/checkpoint.bin`. Refused with
    /// `InvalidInput`, the engine left unarmed, unless the parameters a
    /// restart would recover from `dir` are, value for value, the
    /// engine's: else a restart would rebuild a state it never held.
    pub fn set_durable_dir(&mut self, dir: impl Into<PathBuf>) -> io::Result<()> {
        let dir = dir.into();
        let (log, _, _, writer) = history(&dir, self.engine.query())?;
        let held = self.engine.cost_context().factors();
        if !holds(held, &log) || !holds(held, &self.applied) {
            let msg = "the parameters a restart would recover are not this engine's";
            let msg = format!("{}: {msg}", dir.display());
            return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
        }
        self.slots = Some(writer);
        Ok(())
    }

    /// The armed durable directory, if any.
    pub fn durable_dir(&self) -> Option<&Path> {
        self.slots.as_ref().map(|s| s.dir.as_path())
    }

    /// Makes sure an acknowledged image holds the applied parameters.
    /// Every epoch that changes one writes its image, so this returns at
    /// once unless none does — a directory armed without a usable image,
    /// or a failed write. `InvalidInput` unless a directory is armed.
    pub fn checkpoint_durable(&mut self) -> io::Result<()> {
        let Some(s) = self.slots.as_mut() else {
            let msg = "checkpoint_durable needs set_durable_dir first";
            return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
        };
        if s.current {
            return Ok(());
        }
        s.begin(self.epochs_seen, &self.applied)?;
        s.finish()
    }

    /// Restarts from directory `dir` of query `q` as a first boot: `build`
    /// makes an engine holding the recovered parameters, one `optimize()`
    /// runs, `dir` is armed. [`RecoveryPath`]: `RestoredFromCheckpoint`
    /// (newest usable slot), `Committed` (empty file), or, at base
    /// estimates, `RebuiltAfterCorruptCheckpoint` (no usable slot but a
    /// damaged one). Damage is reported, never `Err` or a panic.
    pub fn restart(
        dir: impl AsRef<Path>,
        q: &QuerySpec,
        build: impl FnOnce(&[ParamDelta]) -> R,
    ) -> io::Result<(Durable<R>, R::Outcome, Restart)> {
        let (log, epochs_seen, restart, writer) = history(dir.as_ref(), q)?;
        let mut durable = Durable::from(build(&log));
        durable.applied = log;
        durable.epochs_seen = epochs_seen;
        durable.slots = Some(writer);
        let outcome = durable.optimize();
        Ok((durable, outcome, restart))
    }

    /// Arms a one-shot image write failure (crash tests); a no-op unless
    /// a directory is armed.
    pub fn inject_write_fault(&mut self, fault: WriteFault) {
        if let Some(s) = self.slots.as_mut() {
            s.fault = Some(fault);
        }
    }

    /// The last `reoptimize`'s image write: its timings, and why it
    /// failed if it did.
    pub fn last_write(&self) -> &EpochWrite {
        &self.last_write
    }

    /// Epochs run so far, counting those before a restart.
    pub fn epochs_seen(&self) -> u64 {
        self.epochs_seen
    }

    /// The applied-parameter log: the last write per parameter, in
    /// first-write order (what an image persists).
    pub fn applied_log(&self) -> &[ParamDelta] {
        &self.applied
    }
}

impl<R: Reoptimizer<Outcome: WriteReport>> Reoptimizer for Durable<R> {
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

    fn sample_log() -> Vec<ParamDelta> {
        vec![
            ParamDelta::EdgeSelectivity(EdgeId(1), 8.0),
            ParamDelta::LeafCardinality(LeafId(2), 0.5),
            ParamDelta::LeafScanCost(LeafId(0), 3.25),
        ]
    }

    fn scratch_dir(label: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("reopt-durable-test-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
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
                    if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    }
                })
            })
        };
        let data: Vec<u8> = (0..200u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for start in 0..8 {
            for end in start..data.len() {
                assert_eq!(
                    crc32(&data[start..end]),
                    bitwise(&data[start..end]),
                    "{start}..{end}"
                );
            }
        }
    }

    /// `payload` framed as a slot image of a 1-leaf, 1-edge query under
    /// a valid CRC: what a decoder meets when only the payload is wrong.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut slot = MAGIC.to_vec();
        slot.extend(
            [VERSION, payload.len() as u32, crc32(payload)]
                .iter()
                .flat_map(|w| w.to_le_bytes()),
        );
        slot.extend_from_slice(payload);
        slot.resize(PAGE, 0);
        slot
    }

    /// The extreme values of every scalar an image holds read back bit
    /// for bit (ids up to the shape's last leaf and edge).
    #[test]
    fn scalars_round_trip() {
        let log = [
            ParamDelta::EdgeSelectivity(EdgeId(299), f64::INFINITY),
            ParamDelta::LeafCardinality(LeafId(99), f64::MIN_POSITIVE),
            ParamDelta::LeafScanCost(LeafId(99), -0.0),
            ParamDelta::EdgeSelectivity(EdgeId(0), f64::MAX),
        ];
        let image = encode_checkpoint(u64::MAX, u64::MAX - 1, 100, 300, &log);
        let got = decode_checkpoint(&image, 100, 300).unwrap().unwrap();
        assert_eq!((got.generation, got.epochs_seen), (u64::MAX, u64::MAX - 1));
        let bits = |log: &[ParamDelta]| {
            log.iter().map(|d| key_and_factor(d).1.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!((&got.log[..], bits(&got.log)), (&log[..], bits(&log)));
    }

    #[test]
    fn truncated_payload_is_corruption_not_panic() {
        let whole = encode_checkpoint(1, 1, 1, 1, &[ParamDelta::LeafCardinality(LeafId(0), 1e9)]);
        let len = u32::from_le_bytes(whole[8..12].try_into().unwrap()) as usize;
        let payload = &whole[HEADER_LEN + FRAME_LEN..][..len];
        assert!(decode_checkpoint(&framed(payload), 1, 1).is_ok());
        for cut in 0..len {
            let r = decode_checkpoint(&framed(&payload[..cut]), 1, 1);
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
            let image = encode_checkpoint(1, 1, 4, 8, &[d]);
            let len = u32::from_le_bytes(image[8..12].try_into().unwrap()) as usize;
            assert_eq!(len, FIXED_LEN + DELTA_LEN);
            assert_eq!(decode_checkpoint(&image, 4, 8).unwrap().unwrap().log, [d]);
        }
        // An unknown tag, under a valid CRC.
        let mut image =
            encode_checkpoint(1, 1, 4, 8, &[ParamDelta::EdgeSelectivity(EdgeId(1), 2.0)]);
        image[HEADER_LEN + FRAME_LEN + FIXED_LEN] = 3;
        let payload = image[HEADER_LEN + FRAME_LEN..][..FIXED_LEN + DELTA_LEN].to_vec();
        let r = decode_checkpoint(&framed(&payload), 4, 8);
        assert!(
            matches!(&r, Err(DataflowError::StateCorruption(m)) if m.contains("tag 3")),
            "{r:?}"
        );
    }

    /// Records framed back to back read back in order, and a frame cut
    /// short anywhere is corruption.
    #[test]
    fn record_stream_round_trips() {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        for v in [42u64, 7] {
            let payload = v.to_le_bytes();
            bytes.extend(
                [payload.len() as u32, crc32(&payload)]
                    .iter()
                    .flat_map(|w| w.to_le_bytes()),
            );
            bytes.extend_from_slice(&payload);
        }
        check_header(&bytes).unwrap();
        let (p1, end) = read_record(&bytes, HEADER_LEN).unwrap();
        assert_eq!(Dec(p1).u64().unwrap(), 42);
        let (p2, end) = read_record(&bytes, end).unwrap();
        assert_eq!(Dec(p2).u64().unwrap(), 7);
        assert_eq!(end, bytes.len());
        for cut in HEADER_LEN..end - FRAME_LEN - 8 {
            let r = read_record(&bytes[..cut], HEADER_LEN);
            assert!(
                matches!(r, Err(DataflowError::StateCorruption(_))),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn checkpoint_round_trips_and_guards_its_query_shape() {
        let log = sample_log();
        let bytes = encode_checkpoint(5, 12, 3, 2, &log);
        assert_eq!(bytes.len(), HEADER_LEN + FRAME_LEN + FIXED_LEN + 3 * DELTA_LEN);
        assert_eq!(slot_len(3, 2), PAGE);
        let want = Checkpoint {
            generation: 5,
            epochs_seen: 12,
            log,
        };
        assert_eq!(decode_checkpoint(&bytes, 3, 2).unwrap(), Some(want));
        assert_eq!(
            decode_checkpoint(&vec![0; bytes.len()], 3, 2).unwrap(),
            None
        );
        // Another query's image; a log naming leaf 2 of a 2-leaf query.
        for (leaves, edges) in [(4, 2), (3, 3)] {
            let r = decode_checkpoint(&bytes, leaves, edges);
            assert!(matches!(r, Err(DataflowError::StateCorruption(_))));
        }
        let r = decode_checkpoint(&encode_checkpoint(5, 12, 2, 2, &sample_log()[1..]), 2, 2);
        assert!(
            matches!(&r, Err(DataflowError::StateCorruption(m)) if m.contains("outside this query")),
            "{r:?}"
        );
    }

    /// A slot holds the largest image its shape can produce, and a
    /// shape's slots are whole pages.
    #[test]
    fn a_slot_holds_a_write_to_every_parameter() {
        for (leaves, edges) in [(1, 0), (5, 4), (8, 28), (40, 300)] {
            let log: Vec<ParamDelta> = (0..edges)
                .map(|e| ParamDelta::EdgeSelectivity(EdgeId(e), 2.0))
                .chain((0..leaves).map(|l| ParamDelta::LeafCardinality(LeafId(l), 2.0)))
                .chain((0..leaves).map(|l| ParamDelta::LeafScanCost(LeafId(l), 2.0)))
                .collect();
            let mut slot = encode_checkpoint(1, 0, leaves, edges, &log);
            let len = slot_len(leaves, edges);
            let tight = HEADER_LEN + FRAME_LEN + FIXED_LEN + log.len() * DELTA_LEN;
            assert_eq!((slot.len(), len % PAGE), (tight, 0), "{leaves} x {edges}");
            assert!(len >= tight && len - tight < PAGE, "{leaves} x {edges}");
            slot.resize(len, 0);
            assert_eq!(decode_checkpoint(&slot, leaves, edges).unwrap().unwrap().log, log);
        }
    }

    /// A two-slot file image holding the generations `a` and `b`
    /// (`None`: empty) for a 3-leaf, 2-edge query.
    fn slots_image(a: Option<u64>, b: Option<u64>) -> Vec<u8> {
        [a, b]
            .into_iter()
            .flat_map(|slot| match slot {
                Some(generation) => {
                    let mut image = encode_checkpoint(generation, generation, 3, 2, &sample_log());
                    image.resize(slot_len(3, 2), 0);
                    image
                }
                None => vec![0; slot_len(3, 2)],
            })
            .collect()
    }

    /// Which slot a restart uses: the highest generation among the
    /// slots that decode and fit; every other non-empty slot is refused
    /// and reported.
    #[test]
    fn a_restart_uses_the_newest_usable_slot() {
        let chosen = |image: &[u8]| {
            let slots = read_slots(image, 3, 2);
            let refused: Vec<usize> = slots.refused.iter().map(|&(i, _)| i).collect();
            (slots.chosen.map(|(i, c)| (i, c.generation)), refused)
        };
        assert_eq!(chosen(&[]), (None, vec![]));
        assert_eq!(chosen(&slots_image(None, None)), (None, vec![]));
        assert_eq!(chosen(&slots_image(Some(1), None)), (Some((0, 1)), vec![]));
        assert_eq!(chosen(&slots_image(None, Some(1))), (Some((1, 1)), vec![]));
        // The newer generation wins, in either slot.
        assert_eq!(
            chosen(&slots_image(Some(3), Some(2))),
            (Some((0, 3)), vec![])
        );
        assert_eq!(
            chosen(&slots_image(Some(2), Some(3))),
            (Some((1, 3)), vec![])
        );
    }

    /// The slot `read_slots` chose, by index and generation, and the
    /// slots it refused, each as [`DataflowError::StateCorruption`].
    fn chosen_and_refused(file: &[u8]) -> (Option<(usize, u64)>, Vec<usize>) {
        let slots = read_slots(file, 3, 2);
        let refused = slots.refused.iter().map(|(i, e)| {
            assert!(matches!(e, DataflowError::StateCorruption(_)), "{e:?}");
            *i
        });
        let refused = refused.collect();
        (slots.chosen.map(|(i, c)| (i, c.generation)), refused)
    }

    /// Where the image of [`sample_log`] ends in its slot.
    fn sample_end() -> usize {
        encode_checkpoint(1, 1, 3, 2, &sample_log()).len()
    }

    /// A damaged slot is refused and reported, never read as empty: the
    /// newest beside an intact older one, the older beside the newest,
    /// or both.
    #[test]
    fn mid_file_damage_is_corruption_not_silent_loss() {
        let intact = slots_image(Some(2), Some(3));
        let payload_byte = |slot: usize| slot * slot_len(3, 2) + HEADER_LEN + FRAME_LEN + 2;
        let cases = [(vec![1], Some((0, 2))), (vec![0], Some((1, 3))), (vec![0, 1], None)];
        for (damaged, chosen) in cases {
            let mut image = intact.clone();
            for &slot in &damaged {
                image[payload_byte(slot)] ^= 0x40;
            }
            assert_eq!(chosen_and_refused(&image), (chosen, damaged));
        }
    }

    /// Every single-bit flip of an image holding every kind of delta —
    /// every bit of its magic, version, frame and payload, and one in
    /// every byte of the zeros after it — is corruption, never an image
    /// that decodes to something else.
    #[test]
    fn every_single_bit_flip_is_detected() {
        let mut slot = encode_checkpoint(4, 9, 3, 2, &sample_log());
        let end = slot.len();
        slot.resize(slot_len(3, 2), 0);
        let padding = (end..slot.len()).map(|at| at * 8 + at % 8);
        for bit in (0..end * 8).chain(padding) {
            slot[bit / 8] ^= 1 << (bit % 8);
            let r = decode_checkpoint(&slot, 3, 2);
            assert!(
                matches!(r, Err(DataflowError::StateCorruption(_))),
                "flip of bit {bit} slipped through: {r:?}"
            );
            slot[bit / 8] ^= 1 << (bit % 8);
        }
        assert!(decode_checkpoint(&slot, 3, 2).is_ok());
    }

    /// A file of any length but two slots — every truncation of one, or
    /// one with a byte appended — is refused as a whole, as slot 0, and
    /// nothing in it is used; an empty or all-zero one is a first boot.
    #[test]
    fn truncation_at_every_length_is_detected() {
        let image = slots_image(Some(2), Some(3));
        for cut in 1..image.len() {
            assert_eq!(chosen_and_refused(&image[..cut]), (None, vec![0]), "cut at {cut}");
        }
        let longer = [image.as_slice(), &[0]].concat();
        assert_eq!(chosen_and_refused(&longer), (None, vec![0]));
        assert_eq!(read_slots(&[], 3, 2), Slots::default());
        assert_eq!(read_slots(&[0; 100], 3, 2), Slots::default());
    }

    /// The newest image cut short mid-record — in the file's tail slot or
    /// its head slot — is discarded and reported, and the intact older
    /// image survives; a cut before its first byte leaves an empty slot.
    #[test]
    fn torn_tail_is_discarded_but_intact_prefix_survives() {
        let len = slot_len(3, 2);
        for (image, newest) in [
            (slots_image(Some(2), Some(3)), 1),
            (slots_image(Some(3), Some(2)), 0),
        ] {
            for cut in 0..sample_end() {
                let mut torn = image.clone();
                torn[newest * len + cut..(newest + 1) * len].fill(0);
                let refused = if cut == 0 { vec![] } else { vec![newest] };
                let want = (Some((1 - newest, 2)), refused);
                assert_eq!(chosen_and_refused(&torn), want, "slot {newest} cut at {cut}");
            }
        }
    }

    /// Beside a newest image torn mid-record, every bit flip in the older
    /// image is reported too, leaving no usable slot (a loss a restart
    /// reports, not an empty file); and a non-zero byte anywhere in a
    /// slot's zeros — after an intact record, or in an empty slot —
    /// refuses that slot.
    #[test]
    fn damage_before_a_torn_record_and_in_the_zero_tail_is_reported() {
        let (len, end) = (slot_len(3, 2), sample_end());
        let mut torn = slots_image(Some(2), Some(3));
        torn[len + end - 5..].fill(0);
        for bit in 0..end * 8 {
            torn[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(chosen_and_refused(&torn), (None, vec![0, 1]), "bit {bit}");
            torn[bit / 8] ^= 1 << (bit % 8);
        }
        let intact = [(slots_image(Some(2), Some(3)), end), (slots_image(None, None), 0)];
        for (mut image, written) in intact {
            for slot in 0..2 {
                let other = (written > 0).then(|| (1 - slot, 3 - slot as u64));
                for at in slot * len + written..(slot + 1) * len {
                    image[at] = 0x5A;
                    assert_eq!(chosen_and_refused(&image), (other, vec![slot]), "byte {at}");
                    image[at] = 0;
                }
            }
        }
    }

    /// The hand-rolled engine, durable.
    fn hr(c: &Catalog, q: &QuerySpec) -> Durable<IncrementalOptimizer> {
        Durable::from(IncrementalOptimizer::new(
            c,
            q.clone(),
            PruningConfig::default(),
        ))
    }

    /// The declarative engine, durable, its audit off.
    fn decl(c: &Catalog, q: &QuerySpec) -> DataflowOptimizer {
        let mut opt = DataflowOptimizer::new(c, q.clone());
        opt.set_audit_mode(AuditMode::Off);
        opt
    }

    /// Arming allocates the checkpoint file — two zeroed slots, real
    /// blocks — and ten epochs then write the slots by turns, each a
    /// generation past the last, each leaving the other slot untouched.
    #[test]
    fn checkpoints_take_the_slots_by_turns_in_place() {
        let c = fixture_catalog();
        let q = chain_query(&c, 5);
        by_turns(hr(&c, &q), "hr");
        by_turns(decl(&c, &q), "decl");
    }

    /// The test above for one engine.
    fn by_turns<R: Reoptimizer<Outcome: WriteReport>>(mut opt: Durable<R>, label: &str) {
        use std::os::unix::fs::MetadataExt as _;
        let dir = scratch_dir(&format!("turns-{label}"));
        let path = dir.join(CHECKPOINT_FILE);
        let (leaves, edges) = (opt.query().n_leaves(), opt.query().edges.len() as u32);
        let slot = slot_len(leaves, edges);
        opt.set_durable_dir(&dir).unwrap();
        opt.optimize();
        let meta = std::fs::metadata(&path).unwrap();
        assert_eq!(meta.len(), 2 * slot as u64, "{label}");
        assert!(meta.blocks() * 512 >= meta.len(), "{label}: a sparse file");
        let mut before = std::fs::read(&path).unwrap();
        assert!(before.iter().all(|&b| b == 0), "{label}");
        for k in 1..=10u64 {
            let batch = [ParamDelta::EdgeSelectivity(
                EdgeId((k % 4) as u32),
                (k + 1) as f64,
            )];
            opt.reoptimize(&batch);
            let image = std::fs::read(&path).unwrap();
            let slots = read_slots(&image, leaves, edges);
            let (i, ckpt) = slots.chosen.unwrap();
            assert!(slots.refused.is_empty(), "{label} epoch {k}");
            assert_eq!(
                (i as u64, ckpt.generation),
                ((k - 1) % 2, k),
                "{label} epoch {k}"
            );
            let other = (1 - i) * slot..(2 - i) * slot;
            assert_eq!(image[other.clone()], before[other], "{label} epoch {k}");
            before = image;
        }
        drop(opt);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The claim, counted: over ten epochs that change a parameter and
    /// one that does not, exactly ten images land, by turns, each the
    /// applied log and epoch count the engine then holds, in a
    /// directory that holds only the checkpoint file at one length. A
    /// `checkpoint_durable` after an acknowledged epoch writes nothing —
    /// the file's bytes and modification time stay put — and on a
    /// freshly armed directory it writes once, so that a restart then
    /// restores. Unarmed, nothing is written or timed.
    #[test]
    fn every_epoch_is_a_checkpoint() {
        let c = fixture_catalog();
        let q = chain_query(&c, 5);
        epochs_are_checkpoints(|| hr(&c, &q), |_| true, "hr");
        epochs_are_checkpoints(|| decl(&c, &q), |out| out.recovery.is_clean(), "decl");
    }

    /// The test above for one engine; `clean` holds an epoch's outcome
    /// to the engine's own report.
    fn epochs_are_checkpoints<R: Reoptimizer<Outcome: WriteReport>>(
        make: impl Fn() -> Durable<R>,
        clean: impl Fn(&R::Outcome) -> bool,
        label: &str,
    ) {
        let mut unarmed = make();
        unarmed.reoptimize(&[ParamDelta::LeafCardinality(LeafId(0), 2.0)]);
        assert_eq!(unarmed.last_write(), &EpochWrite::default(), "{label}");
        let dir = scratch_dir(&format!("epochs-{label}"));
        let path = dir.join(CHECKPOINT_FILE);
        let long_ago = std::time::SystemTime::UNIX_EPOCH + Duration::from_secs(1 << 30);
        let untouched = |what: &str, before: &[u8]| {
            assert_eq!(std::fs::read(&path).unwrap(), before, "{label}: {what}");
            let modified = std::fs::metadata(&path).unwrap().modified().unwrap();
            assert_eq!(modified, long_ago, "{label}: {what}");
        };
        let mut opt = make();
        opt.set_durable_dir(&dir).unwrap();
        opt.optimize();
        let (leaves, edges) = (opt.query().n_leaves(), opt.query().edges.len() as u32);
        let len = 2 * slot_len(leaves, edges);
        let (mut last, mut batch) = (None, Vec::new());
        for k in 0..11u32 {
            // Epoch 6 writes again what epoch 5 wrote: it changes nothing.
            if k != 6 {
                batch = vec![ParamDelta::EdgeSelectivity(EdgeId(k % 4), f64::from(k + 2))];
            }
            let before = std::fs::read(&path).unwrap();
            File::options()
                .write(true)
                .open(&path)
                .unwrap()
                .set_modified(long_ago)
                .unwrap();
            assert!(clean(&opt.reoptimize(&batch)), "{label} epoch {k}");
            assert_eq!(opt.last_write().error, None, "{label}");
            if k == 6 {
                assert_eq!(opt.last_write(), &EpochWrite::default(), "{label}");
                untouched("an epoch that changed nothing", &before);
                continue;
            }
            assert!(opt.last_write().write > Duration::ZERO, "{label}");
            let image = std::fs::read(&path).unwrap();
            assert_eq!(image.len(), len, "{label} epoch {k}");
            let (slot, ckpt) = read_slots(&image, leaves, edges).chosen.unwrap();
            assert_eq!(
                slot,
                last.map_or(0, |s| 1 - s),
                "{label} epoch {k}: not by turns"
            );
            last = Some(slot);
            assert_eq!(ckpt.log, opt.applied_log(), "{label} epoch {k}");
            assert_eq!(ckpt.epochs_seen, opt.epochs_seen(), "{label} epoch {k}");
            File::options()
                .write(true)
                .open(&path)
                .unwrap()
                .set_modified(long_ago)
                .unwrap();
            opt.checkpoint_durable().unwrap();
            untouched("a checkpoint after an acknowledged epoch", &image);
        }
        let file = std::fs::read(&path).unwrap();
        let generation = read_slots(&file, leaves, edges)
            .chosen
            .unwrap()
            .1
            .generation;
        assert_eq!(generation, 10, "{label}: exactly ten images");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, [CHECKPOINT_FILE], "{label}");
        drop(opt);
        std::fs::remove_dir_all(&dir).unwrap();

        // A freshly armed directory: the first checkpoint writes.
        let dir = scratch_dir(&format!("fresh-{label}"));
        let mut opt = make();
        opt.set_durable_dir(&dir).unwrap();
        opt.optimize();
        let empty = std::fs::read(dir.join(CHECKPOINT_FILE)).unwrap();
        opt.checkpoint_durable().unwrap();
        let once = std::fs::read(dir.join(CHECKPOINT_FILE)).unwrap();
        assert_ne!(
            once, empty,
            "{label}: a fresh directory's checkpoint wrote nothing"
        );
        opt.checkpoint_durable().unwrap();
        assert_eq!(
            std::fs::read(dir.join(CHECKPOINT_FILE)).unwrap(),
            once,
            "{label}"
        );
        let q = opt.query().clone();
        drop(opt);
        let (_, _, restart) = Durable::restart(&dir, &q, |_| make().engine).unwrap();
        assert_eq!(
            restart.path,
            RecoveryPath::RestoredFromCheckpoint,
            "{label}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// When `reoptimize` returns, the newest image is the last write to
    /// each parameter of every batch so far, in first-write order, with
    /// the count of epochs that changed one — for batches of every delta
    /// kind, rewrites, and a batch that changes nothing — on both engines.
    #[test]
    fn every_acknowledged_batch_is_the_logs_last_record() {
        let c = fixture_catalog();
        let q = chain_query(&c, 5);
        every_batch_is_imaged(|| hr(&c, &q), "hr");
        every_batch_is_imaged(|| decl(&c, &q), "decl");
    }

    /// The test above for one engine.
    fn every_batch_is_imaged<R: Reoptimizer<Outcome: WriteReport>>(
        make: impl Fn() -> Durable<R>,
        label: &str,
    ) {
        use ParamDelta::{EdgeSelectivity as Sel, LeafCardinality as Card, LeafScanCost as Scan};
        let (e, l) = (EdgeId, LeafId);
        let batches_and_epochs = [
            (vec![Sel(e(0), 2.0)], 2),
            (vec![Card(l(1), 3.0), Scan(l(2), 0.5)], 3),
            (vec![Sel(e(0), 2.0)], 3),
            (vec![Sel(e(3), 0.25), Scan(l(0), 1.0), Card(l(1), 4.0)], 4),
            (vec![Sel(e(0), 1.0)], 5),
        ];
        let dir = scratch_dir(&format!("acked-{label}"));
        let mut opt = make();
        opt.set_durable_dir(&dir).unwrap();
        opt.optimize();
        let (leaves, edges) = (opt.query().n_leaves(), opt.query().edges.len() as u32);
        let mut last_writes: Vec<ParamDelta> = Vec::new();
        for (batch, epochs) in batches_and_epochs {
            opt.reoptimize(&batch);
            assert_eq!(opt.last_write().error, None, "{label}");
            for d in batch {
                let key = key_and_factor(&d).0;
                match last_writes.iter_mut().find(|w| key_and_factor(w).0 == key) {
                    Some(w) => *w = d,
                    None => last_writes.push(d),
                }
            }
            let file = std::fs::read(dir.join(CHECKPOINT_FILE)).unwrap();
            let (_, image) = read_slots(&file, leaves, edges).chosen.unwrap();
            assert_eq!((&image.log[..], image.epochs_seen), (&last_writes[..], epochs), "{label}");
            let held = (opt.applied_log(), opt.epochs_seen());
            assert_eq!(held, (&last_writes[..], epochs), "{label}");
        }
        drop(opt);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The crash images of each epoch's write into the preallocated file:
    /// the image in flight over its slot, its first `k` bytes landed for
    /// every `k`, the rest of the slot as it was. Each reads back to the
    /// acknowledged parameters — the last epoch's until every byte that
    /// differs has landed, then the new one's — reporting the slot unless
    /// it holds one of the two whole images. Before the first image there
    /// is nothing to read back: a cut of it is a reported loss.
    #[test]
    fn every_crash_image_of_a_preallocated_log_scans_to_its_acknowledged_batches() {
        let c = fixture_catalog();
        let q = chain_query(&c, 5);
        let (leaves, edges) = (q.n_leaves(), q.edges.len() as u32);
        let dir = scratch_dir("crash-images");
        let path = dir.join(CHECKPOINT_FILE);
        let mut opt = hr(&c, &q);
        opt.set_durable_dir(&dir).unwrap();
        opt.optimize();
        let mut acked = (std::fs::read(&path).unwrap(), Vec::new());
        for k in 0..6u32 {
            opt.reoptimize(&[
                ParamDelta::EdgeSelectivity(EdgeId(k % 4), 2.0),
                ParamDelta::LeafCardinality(LeafId(k % 3), f64::from(k + 2)),
            ]);
            let now = (std::fs::read(&path).unwrap(), opt.applied_log().to_vec());
            let len = now.0.len() / 2;
            let slot = usize::from(now.0[..len] == acked.0[..len]);
            let (at, other) = (slot * len, (1 - slot) * len);
            assert_eq!(now.0[other..other + len], acked.0[other..other + len], "epoch {k}");
            for landed in 0..=len {
                let mut image = acked.0.clone();
                image[at..at + landed].copy_from_slice(&now.0[at..at + landed]);
                let what = format!("epoch {k}, {landed} bytes landed");
                let torn = &image[at..at + len];
                let whole = torn == &acked.0[at..at + len] || torn == &now.0[at..at + len];
                let slots = read_slots(&image, leaves, edges);
                let read_back = slots.chosen.map(|(_, c)| c.log);
                let want = match image == now.0 {
                    true => Some(&now.1),
                    false => Some(&acked.1).filter(|_| k > 0),
                };
                assert_eq!(read_back.as_ref(), want, "{what}");
                let refused: Vec<usize> = slots.refused.iter().map(|&(i, _)| i).collect();
                assert_eq!(refused, if whole { vec![] } else { vec![slot] }, "{what}");
            }
            acked = now;
        }
        drop(opt);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A failed image is cut back off the file before the failure is
    /// reported: its slot zeroed, the other untouched. The retry carries
    /// the same generation into the same slot, so images stay by turns;
    /// a cut that fails too stops the writer, and every later write
    /// says so.
    #[test]
    fn a_failed_append_is_cut_back_off_the_log() {
        let dir = scratch_dir("cut-back");
        let path = dir.join(CHECKPOINT_FILE);
        let (mut w, found) = SlotWriter::open(&dir, 3, 2).unwrap();
        assert_eq!(found, Slots::default());
        let write = |w: &mut SlotWriter, epochs: u64| {
            w.begin(epochs, &sample_log()).and_then(|()| w.finish())
        };
        let newest = || {
            let slots = read_slots(&std::fs::read(&path).unwrap(), 3, 2);
            assert!(slots.refused.is_empty());
            slots.chosen.map(|(i, c)| (i, c.generation, c.epochs_seen))
        };
        write(&mut w, 1).unwrap();
        let acked = std::fs::read(&path).unwrap();
        w.fault = Some(WriteFault { generation: 2, zero_too: false });
        assert!(write(&mut w, 2).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), acked, "the failed image stayed");
        // The fault is one-shot: the retry is generation 2, in slot 1.
        write(&mut w, 2).unwrap();
        assert_eq!(newest(), Some((1, 2, 2)));
        write(&mut w, 3).unwrap();
        assert_eq!(newest(), Some((0, 3, 3)));
        w.fault = Some(WriteFault { generation: 4, zero_too: true });
        let err = write(&mut w, 4).unwrap_err();
        assert!(err.to_string().contains("image writes stop"), "{err}");
        let kept = std::fs::read(&path).unwrap();
        let err = write(&mut w, 5).unwrap_err();
        assert!(err.to_string().contains("image writes stopped"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), kept);
        drop(w);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The standalone write the benchmark times: each batch lands as
    /// the next generation's image, by turns, and reads back in order.
    #[test]
    fn wal_round_trips_batches_in_order() {
        let dir = scratch_dir("standalone");
        let path = dir.join(WAL_FILE);
        wal_init(&path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), vec![0; 2 * PAGE]);
        let log = sample_log();
        for seq in 0..4u64 {
            wal_append(&path, seq, &log).unwrap();
            let slots = read_slots(&std::fs::read(&path).unwrap(), 3, 2);
            let (slot, ckpt) = slots.chosen.unwrap();
            assert_eq!(
                (slot as u64, ckpt.generation, &ckpt.log),
                (seq % 2, seq + 1, &log)
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
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
            vec![
                ParamDelta::LeafCardinality(l, 3.0),
                ParamDelta::LeafCardinality(l, 1.0),
            ],
            vec![
                ParamDelta::LeafScanCost(l, 1.0),
                ParamDelta::EdgeSelectivity(e, 2.0),
            ],
            vec![
                ParamDelta::EdgeSelectivity(e, 1.0),
                ParamDelta::LeafScanCost(l, 0.5),
            ],
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
}
