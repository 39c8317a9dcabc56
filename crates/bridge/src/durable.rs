//! The optimizer's two durable files — the write-ahead log and the
//! checkpoint — and everything that reads or writes them.
//!
//! **What is persisted, and why only that.** Everything a
//! [`DataflowOptimizer`] holds is a view over `LocalCost`, itself a
//! function of the [`CostContext`]'s parameter factors: optimizer state
//! = f(catalog, query, last write per parameter). So the durable state
//! is the parameters and nothing else. Every applied [`ParamDelta`]
//! batch is appended to the WAL as one CRC-framed record, written
//! before the network is touched and fsynced before `reoptimize`
//! returns (`WalWriter`: the fsync runs on a helper thread while the
//! epoch computes), so a crash loses nothing that was acknowledged;
//! a checkpoint is the deduped log of those writes (one
//! entry per parameter) plus a *watermark*, the number of WAL records it
//! covers. A restart folds `checkpoint log ⊕ wal[watermark..]` (or the
//! whole WAL, without an intact checkpoint) to the last write per
//! parameter, loads that into a fresh engine's context and runs one
//! `optimize()` — the one way state is ever built. What a checkpoint
//! buys is a *bounded replay* (the tail past the watermark instead of
//! the whole history), not a saved computation: no image of the compiled
//! network is kept, so no compiler change can invalidate a file on disk.
//!
//! File layouts (all integers little-endian):
//!
//! ```text
//! wal        := "RWAL" version(u32) record*
//! checkpoint := "RPRM" version(u32) record            -- exactly one
//! record     := len(u32) crc32(u32, over payload) payload[len]
//!
//! wal payload        := seq(u64) count(u32) delta*
//! checkpoint payload := watermark(u64) epochs_seen(u64)
//!                       leaves(u32) edges(u32) count(u32) delta*
//! delta              := tag(u8) id(u32) factor(f64 bits)
//! ```
//!
//! `seq` is the record's zero-based position; a mismatch means records
//! were lost or reordered and is reported as corruption. The WAL is
//! never rewritten in place; the one cut is a failed append's own
//! record, truncated back off before the failure is reported. A torn
//! final record — the image of a crash mid-append — is discarded: its
//! batch was never acknowledged, and whatever of it was applied lived
//! only in the memory that died with the process. Damage anywhere
//! earlier is
//! [`DataflowError::StateCorruption`]. `leaves`/`edges` are the shape of
//! the query the checkpoint was cut for — a guard that depends on
//! neither the memo nor the compiled network — and every logged
//! parameter must name a leaf or edge inside it. A checkpoint is
//! committed atomically ([`write_atomic`]); any single flipped bit or
//! truncation of it is detected and answered from the whole WAL.
//!
//! [`DataflowOptimizer`]: crate::DataflowOptimizer
//! [`CostContext`]: reopt_cost::CostContext

use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

use reopt_cost::ParamDelta;
use reopt_datalog::DataflowError;
use reopt_expr::{EdgeId, LeafId};

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
const WAL_VERSION: u32 = 1;
const CHECKPOINT_VERSION: u32 = 1;

/// Bytes of `magic version`, and of a record's `len crc32` frame.
const HEADER_LEN: usize = 8;
const FRAME_LEN: usize = 8;
/// Encoded bytes of one [`ParamDelta`], and its tags.
const DELTA_LEN: usize = 13;
const TAG_EDGE_SELECTIVITY: u8 = 0;
const TAG_LEAF_CARDINALITY: u8 = 1;
const TAG_LEAF_SCAN_COST: u8 = 2;

fn corrupt(msg: impl Into<String>) -> DataflowError {
    DataflowError::StateCorruption(msg.into())
}

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over `bytes`.
/// Hand-rolled because the container has no crates.io access; the table
/// is built once at first use.
pub fn crc32(bytes: &[u8]) -> u32 {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let t = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        t
    });
    !bytes.iter().fold(!0u32, |crc, &b| {
        t[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8)
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
        let (tag, id, factor) = match d {
            ParamDelta::EdgeSelectivity(e, f) => (TAG_EDGE_SELECTIVITY, e.0, *f),
            ParamDelta::LeafCardinality(l, f) => (TAG_LEAF_CARDINALITY, l.0, *f),
            ParamDelta::LeafScanCost(l, f) => (TAG_LEAF_SCAN_COST, l.0, *f),
        };
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

/// Fsyncs `path`'s directory so a file just created or renamed there
/// keeps its entry across power loss. Best effort — some filesystems
/// do not support directory fsync.
fn sync_parent(path: &Path) {
    if let Some(dir) = path.parent() {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
}

/// Atomically commits `bytes` to `path`: write to `<path>.tmp`, fsync,
/// rename over the final name, then fsync the parent directory. A crash
/// at any point leaves either the complete old file or the complete new
/// one; a torn `.tmp` is never the live checkpoint.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    sync_parent(path);
    Ok(())
}

/// Sweeps orphaned `*.tmp` staging files out of a durable directory.
/// The atomic-checkpoint protocol writes `checkpoint.tmp`, fsyncs, then
/// renames — a crash between the write and the rename strands the
/// staging file. An orphan is never live state (the rename is what
/// commits), but left behind it accumulates across crashes and is one
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

/// What a checkpoint file holds (see the module docs).
#[derive(Debug, PartialEq)]
pub struct Checkpoint {
    /// WAL records the log already covers; replay starts here.
    pub watermark: u64,
    /// The optimizer's epoch counter when the checkpoint was cut.
    pub epochs_seen: u64,
    /// The last write per parameter, in first-write order.
    pub log: Vec<ParamDelta>,
}

/// Encodes a checkpoint of `log` for a query of `leaves` leaves and
/// `edges` join edges.
pub fn encode_checkpoint(
    watermark: u64,
    epochs_seen: u64,
    leaves: u32,
    edges: u32,
    log: &[ParamDelta],
) -> Vec<u8> {
    let mut e = Enc::default();
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
    out
}

/// Decodes a checkpoint file for a query of `leaves` leaves and `edges`
/// join edges. Anything but a well-formed checkpoint of exactly that
/// shape whose every parameter is in range — a foreign or older format,
/// a flipped bit, a truncation, trailing bytes, another query's file —
/// is [`DataflowError::StateCorruption`].
pub fn decode_checkpoint(
    bytes: &[u8],
    leaves: u32,
    edges: u32,
) -> Result<Checkpoint, DataflowError> {
    check_header(bytes, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint")?;
    let Some((payload, end)) = read_record(bytes, HEADER_LEN)? else {
        return Err(corrupt("checkpoint record truncated"));
    };
    if end != bytes.len() {
        return Err(corrupt("trailing bytes after the checkpoint record"));
    }
    let mut d = Dec::new(payload);
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
    Ok(Checkpoint {
        watermark,
        epochs_seen,
        log,
    })
}

/// Creates (or truncates to) an empty WAL: just the header, fsynced —
/// file and directory entry — so the armed log survives a crash that
/// follows immediately.
pub fn wal_init(path: &Path) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(&header(WAL_MAGIC, WAL_VERSION))?;
    f.sync_all()?;
    sync_parent(path);
    Ok(())
}

/// Writes `deltas` as WAL record `seq` at the end of the log open on
/// `file` — the one framing and the one write every append goes
/// through — and returns the record's length. Nothing is fsynced here.
fn write_record(mut file: &File, seq: u64, deltas: &[ParamDelta]) -> std::io::Result<u64> {
    let mut e = Enc::default();
    e.u64(seq);
    e.u32(deltas.len() as u32);
    for d in deltas {
        e.delta(d);
    }
    let record = e.into_record();
    file.write_all(&record)?;
    Ok(record.len() as u64)
}

/// Appends one batch as record `seq`, fsyncing before returning: once
/// this returns, recovery will replay the batch. A standalone append;
/// an armed optimizer appends through its `WalWriter`.
pub fn wal_append(path: &Path, seq: u64, deltas: &[ParamDelta]) -> std::io::Result<()> {
    let f = std::fs::OpenOptions::new().append(true).open(path)?;
    write_record(&f, seq, deltas)?;
    f.sync_all()
}

/// A failure the WAL writer fakes, for crash tests
/// ([`DataflowOptimizer::inject_wal_fault`]): the fsync of record
/// `record` reports an error, once, and with `truncate_too` so does
/// cutting that record back off the log.
///
/// [`DataflowOptimizer::inject_wal_fault`]: crate::DataflowOptimizer::inject_wal_fault
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalFault {
    pub record: u64,
    pub truncate_too: bool,
}

/// Stack of the fsync helper thread, which only calls `sync_all` and
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
    /// Opens the log for appending and starts the helper; also returns
    /// the log's length at the start.
    fn start(path: &Path) -> std::io::Result<(SyncHelper, u64)> {
        let file = Arc::new(std::fs::OpenOptions::new().append(true).open(path)?);
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
                    if done.send(log.sync_all()).is_err() {
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

/// The appender of an armed optimizer's WAL. An append is two halves
/// around the epoch that applies its batch: [`WalWriter::begin`] writes
/// the record and hands its fsync to a helper thread, and
/// [`WalWriter::finish`] waits for that fsync — the disk's latency
/// overlaps the epoch's compute, and the batch is acknowledged only
/// when both are done. A failed append is cut back off the log
/// (truncated to the acknowledged length, fsynced) before it is
/// reported, so the next record keeps the sequence contiguous; if the
/// cut fails too, the writer refuses every later append. The open
/// handle and the helper are made by the first append — arming and
/// recovering pay for neither — and the helper is joined on drop.
pub(crate) struct WalWriter {
    path: PathBuf,
    helper: Option<SyncHelper>,
    /// Header plus fsynced records: what a failed append cuts back to.
    acked_len: u64,
    /// `(seq, length)` of the record written and not yet acknowledged.
    pending: Option<(u64, u64)>,
    /// A failed record could not be cut back off: nothing more is
    /// appended behind it.
    stopped: bool,
    fault: Option<WalFault>,
}

impl WalWriter {
    /// A writer for the log at `path`, which [`open_dir`] left holding
    /// exactly its intact records.
    pub fn new(path: PathBuf) -> WalWriter {
        WalWriter {
            path,
            helper: None,
            acked_len: 0,
            pending: None,
            stopped: false,
            fault: None,
        }
    }

    /// Arms a one-shot [`WalFault`].
    pub fn inject_fault(&mut self, fault: WalFault) {
        self.fault = Some(fault);
    }

    /// Writes `deltas` as record `seq` and hands its fsync to the
    /// helper; [`WalWriter::finish`] must follow before the batch is
    /// acknowledged.
    pub fn begin(&mut self, seq: u64, deltas: &[ParamDelta]) -> std::io::Result<()> {
        if self.stopped {
            return Err(std::io::Error::other(
                "appends stopped: an earlier failed record could not be cut back off the log",
            ));
        }
        let helper = match &mut self.helper {
            Some(helper) => helper,
            None => {
                let (helper, len) = SyncHelper::start(&self.path)?;
                self.acked_len = len;
                self.helper.insert(helper)
            }
        };
        let handed_off = write_record(&helper.file, seq, deltas).and_then(|len| {
            helper.request.send(()).map_err(std::io::Error::other)?;
            Ok(len)
        });
        match handed_off {
            Ok(len) => {
                self.pending = Some((seq, len));
                Ok(())
            }
            Err(e) => Err(self.cut_back(e, false)),
        }
    }

    /// Waits for the fsync [`WalWriter::begin`] handed off; `Ok` means
    /// the record is durable and acknowledged, `Err` that it was cut
    /// back off the log.
    pub fn finish(&mut self) -> std::io::Result<()> {
        let Some((seq, len)) = self.pending.take() else {
            return Ok(());
        };
        let helper = self.helper.as_ref().expect("a pending record has a helper");
        let mut synced = helper
            .synced
            .recv()
            .unwrap_or_else(|_| Err(std::io::Error::other("the WAL fsync helper exited")));
        let fault = self.fault.filter(|f| f.record == seq);
        if fault.is_some() {
            self.fault = None;
            synced = Err(std::io::Error::other("injected WAL fsync failure"));
        }
        match synced {
            Ok(()) => {
                self.acked_len += len;
                Ok(())
            }
            Err(e) => Err(self.cut_back(e, fault.is_some_and(|f| f.truncate_too))),
        }
    }

    /// Truncates the log back to its acknowledged length and fsyncs the
    /// cut, returning `cause` to report; a failed cut (or a faked one,
    /// `fake_failure`) stops the writer and is reported with it.
    fn cut_back(&mut self, cause: std::io::Error, fake_failure: bool) -> std::io::Error {
        let helper = self.helper.as_ref().expect("only a started writer cuts");
        let file = &helper.file;
        let cut = if fake_failure {
            Err(std::io::Error::other("injected WAL truncation failure"))
        } else {
            file.set_len(self.acked_len).and_then(|()| file.sync_all())
        };
        match cut {
            Ok(()) => cause,
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
    /// Bytes covered by the header plus intact records; anything past
    /// this is a torn tail from a crash mid-append.
    valid_len: usize,
}

/// Scans a WAL image. A record whose framed length runs past the end
/// of the file is a torn tail — discarded, because its batch was never
/// acknowledged (see the module docs). A CRC mismatch or a sequence
/// gap *within* the intact region is real damage and fails the scan.
fn wal_records(bytes: &[u8]) -> Result<WalScan, DataflowError> {
    check_header(bytes, WAL_MAGIC, WAL_VERSION, "WAL")?;
    let mut batches: Vec<Vec<ParamDelta>> = Vec::new();
    let mut pos = HEADER_LEN;
    while pos < bytes.len() {
        let Some((payload, end)) = read_record(bytes, pos)? else {
            break;
        };
        let mut d = Dec::new(payload);
        let seq = d.u64()?;
        if seq != batches.len() as u64 {
            return Err(corrupt(format!(
                "WAL sequence gap: record {} carries seq {seq}",
                batches.len()
            )));
        }
        batches.push(d.deltas("WAL record")?);
        pos = end;
    }
    // After a torn break `pos` still points at the torn record's start;
    // on a clean scan it equals the file length.
    Ok(WalScan {
        batches,
        valid_len: pos,
    })
}

/// A durable directory's WAL, opened for appending ([`open_dir`]).
pub struct OpenWal {
    /// Every intact batch on disk, in append order.
    pub batches: Vec<Vec<ParamDelta>>,
    /// The sequence number the next [`wal_append`] must carry.
    pub next_seq: u64,
    /// Whether a torn final record was cut away: an append was at least
    /// attempted, so the directory has history even if `batches` is
    /// empty.
    pub torn: bool,
    /// Why an unreadable WAL was replaced by an empty one, if it was.
    pub error: Option<DataflowError>,
}

/// Opens a durable directory the one way every startup path does: the
/// directory is created if missing, stranded `*.tmp` staging files are
/// swept, and `<dir>/wal.bin` is made appendable — an intact log is
/// adopted (appends continue after its records), a torn tail from a
/// crash mid-append is truncated away first, a missing log is created
/// empty, and a damaged one is replaced by an empty log with the scan
/// error handed back: the caller decides what losing it means. `Err` is
/// for failing to create the directory or to repair or create the file.
pub fn open_dir(dir: &Path) -> std::io::Result<OpenWal> {
    std::fs::create_dir_all(dir)?;
    sweep_tmp(dir);
    let path = dir.join(WAL_FILE);
    let scanned = std::fs::read(&path).ok().map(|bytes| {
        let len = bytes.len();
        wal_records(&bytes).map(|scan| (scan, len))
    });
    match scanned {
        Some(Ok((scan, len))) => {
            let torn = scan.valid_len < len;
            if torn {
                let f = std::fs::OpenOptions::new().write(true).open(&path)?;
                f.set_len(scan.valid_len as u64)?;
                f.sync_all()?;
            }
            Ok(OpenWal {
                next_seq: scan.batches.len() as u64,
                batches: scan.batches,
                torn,
                error: None,
            })
        }
        missing_or_damaged => {
            wal_init(&path)?;
            Ok(OpenWal {
                batches: Vec::new(),
                next_seq: 0,
                torn: false,
                error: missing_or_damaged.and_then(Result::err),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn crc32_matches_known_vectors() {
        // The catalogue value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
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
    fn atomic_write_replaces_whole_files() {
        let dir = scratch_dir("atomic");
        let path = dir.join("atomic.bin");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second, longer").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer");
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_round_trips_and_guards_its_query_shape() {
        let log = sample_batches().concat();
        let bytes = encode_checkpoint(9, 12, 3, 2, &log);
        let want = Checkpoint {
            watermark: 9,
            epochs_seen: 12,
            log,
        };
        assert_eq!(decode_checkpoint(&bytes, 3, 2).unwrap(), want);
        // Another query's file; a log naming leaf 2 of a 2-leaf query.
        for (leaves, edges) in [(4, 2), (3, 3)] {
            let r = decode_checkpoint(&bytes, leaves, edges);
            assert!(matches!(r, Err(DataflowError::StateCorruption(_))));
        }
        let r = decode_checkpoint(&encode_checkpoint(9, 12, 2, 2, &want.log), 2, 2);
        assert!(
            matches!(&r, Err(DataflowError::StateCorruption(m)) if m.contains("outside this query")),
            "{r:?}"
        );
    }

    #[test]
    fn wal_round_trips_batches_in_order() {
        let batches = sample_batches();
        let bytes = written_wal("round-trip", &batches);
        let scan = wal_records(&bytes).unwrap();
        assert_eq!(scan.batches, batches);
        assert_eq!(scan.valid_len, bytes.len());
    }

    #[test]
    fn torn_tail_is_discarded_but_intact_prefix_survives() {
        let batches = sample_batches();
        let bytes = written_wal("torn", &batches);
        let intact_two = {
            // Find where record 2 starts by re-scanning lengths.
            let mut pos = HEADER_LEN;
            for _ in 0..2 {
                let len =
                    u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
                pos += FRAME_LEN + len;
            }
            pos
        };
        // Cut mid-record-2: records 0 and 1 survive, the tail is torn.
        for cut in intact_two + 1..bytes.len() {
            let scan = wal_records(&bytes[..cut]).unwrap();
            assert_eq!(scan.batches, batches[..2].to_vec(), "cut at {cut}");
            assert_eq!(scan.valid_len, intact_two);
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

    #[test]
    fn every_single_bit_flip_is_detected() {
        let batches = sample_batches();
        let bytes = written_wal("flip", &batches);
        for bit in 0..bytes.len() * 8 {
            let mut evil = bytes.clone();
            evil[bit / 8] ^= 1 << (bit % 8);
            // A failed scan, or a tail cut off as torn — which the
            // caller sees (`valid_len` short of the file).
            let detected = match wal_records(&evil) {
                Err(DataflowError::StateCorruption(_)) => true,
                Err(_) => false,
                Ok(scan) => scan.valid_len < evil.len() && is_strict_prefix(&scan, &batches),
            };
            assert!(detected, "flip of bit {bit} slipped through");
        }
    }

    #[test]
    fn truncation_at_every_length_is_detected() {
        let batches = sample_batches();
        let bytes = written_wal("truncate", &batches);
        for cut in 0..bytes.len() {
            match wal_records(&bytes[..cut]) {
                Err(e) => assert!(cut < HEADER_LEN, "cut at {cut}: {e}"),
                // A cut on a record boundary is a shorter intact log:
                // the checkpoint's watermark is what notices that one.
                Ok(scan) => assert!(
                    scan.valid_len <= cut && is_strict_prefix(&scan, &batches),
                    "cut at {cut} produced a record"
                ),
            }
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
        let mut w = WalWriter::new(path.clone());
        let append = |w: &mut WalWriter, seq: u64, deltas: &[ParamDelta]| {
            w.begin(seq, deltas).and_then(|()| w.finish())
        };
        w.inject_fault(WalFault {
            record: 1,
            truncate_too: false,
        });
        append(&mut w, 0, &batches[0]).unwrap();
        let acked = std::fs::read(&path).unwrap();
        assert!(append(&mut w, 1, &batches[1]).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), acked, "the failed record stayed");
        // The fault is one-shot: the retry carries the same number.
        append(&mut w, 1, &batches[1]).unwrap();
        append(&mut w, 2, &batches[2]).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), written_wal("writer-ref", &batches));

        w.inject_fault(WalFault {
            record: 3,
            truncate_too: true,
        });
        let e = append(&mut w, 3, &batches[0]).unwrap_err();
        assert!(e.to_string().contains("appends stop"), "{e}");
        let e = append(&mut w, 3, &batches[0]).unwrap_err();
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
        assert_eq!(std::fs::read(&path).unwrap(), header(WAL_MAGIC, WAL_VERSION));
        // Intact: adopted, appends continue after it.
        let batches = sample_batches();
        for (i, b) in batches.iter().enumerate() {
            wal_append(&path, i as u64, b).unwrap();
        }
        let intact = std::fs::read(&path).unwrap();
        let wal = open_dir(&dir).unwrap();
        assert_eq!((wal.batches, wal.next_seq, wal.torn), (batches.clone(), 3, false));
        // Torn: the tail is cut off the file, the prefix adopted.
        std::fs::write(&path, &intact[..intact.len() - 3]).unwrap();
        let wal = open_dir(&dir).unwrap();
        assert_eq!((wal.batches.len(), wal.next_seq, wal.torn), (2, 2, true));
        assert!(wal.error.is_none());
        assert_eq!(wal_records(&std::fs::read(&path).unwrap()).unwrap().batches, batches[..2]);
        // Damaged: replaced by an empty log, the scan error handed back.
        let mut evil = intact.clone();
        evil[HEADER_LEN + FRAME_LEN + 2] ^= 0x40;
        std::fs::write(&path, &evil).unwrap();
        let wal = open_dir(&dir).unwrap();
        assert!(wal.batches.is_empty() && wal.next_seq == 0);
        assert!(matches!(wal.error, Some(DataflowError::StateCorruption(_))));
        assert_eq!(std::fs::read(&path).unwrap(), header(WAL_MAGIC, WAL_VERSION));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
