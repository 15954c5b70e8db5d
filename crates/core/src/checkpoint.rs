//! Durable checkpoint journal for streaming campaigns: an append-only,
//! fsync'd record of which slots have been folded, so a SIGKILL'd (or
//! OOM-killed, or preempted) shard can resume and produce a merged
//! [`StreamReport`](crate::StreamReport) byte-identical to an
//! uninterrupted run.
//!
//! # Record format
//!
//! One record per line, length-prefixed and checksummed:
//!
//! ```text
//! {len} {fnv1a64:016x} {payload}\n
//! ```
//!
//! where `len` is the payload's byte length in decimal, the checksum is
//! FNV-1a over the payload bytes, and the payload is one canonical
//! `hvsim-obs` JSONL trace event (the same codec `trace validate`
//! enforces). Two record kinds, distinguished by the event path:
//!
//! | path             | meaning                   |
//! |------------------|---------------------------|
//! | `journal/header` | grid + shard (+ chaos seed); first record, synced before any cell runs |
//! | `journal/fold`   | a worker's cumulative fold + the batch of slots it covers since that worker's previous fold |
//!
//! A fold record's `slots` attribute lists its batch in claim order,
//! comma-separated. Each maximal ascending run of three or more slots
//! with one stride is written `a-b` (stride 1) or `a-b/s`; any other
//! slot is a plain decimal. A worker claims 64 contiguous shard-local
//! indices at a time, so a batch of 1024 slots is about 16 runs whose
//! stride is the shard count: `0-63,128-191` unsharded, `1-127/2` for
//! shard 1 of 2. Decoding accepts both forms, so journals written
//! before runs existed (plain lists only) still load, and it refuses a
//! run that would grow the batch past 1024 slots (`FOLD_INTERVAL`).
//!
//! # Durability
//!
//! Workers encode their own fold records and hand each line to the
//! journal's one writer thread without waiting. The writer appends
//! every line queued, then syncs once for the whole group (group
//! commit), so a record is durable shortly after it is queued and no
//! later than the end of the run: the engine closes the writer after
//! its workers join and before it merges their folds. Recovery reads
//! only fold records: the done-set is the union of their slot batches,
//! and each worker's last fold record is its exact cumulative state. A
//! crash loses the records still queued, and their slots re-run like
//! any slot of a batch not yet recorded. Each worker queues a record
//! every 1024 slots (`FOLD_INTERVAL`) and when it runs out of work.
//!
//! # Crash model
//!
//! A crash can tear the final record (partial write, no trailing
//! newline, bad checksum). Recovery scans from the start and stops at
//! the **first** invalid record, truncating the journal there before
//! appending — the torn-tail policy. Everything before the cut is
//! internally consistent by construction; everything after it is
//! conservatively re-run. Re-running a slot is always safe: every cell
//! is a pure function of its [`CellSpec`](crate::CellSpec), and every
//! report aggregate is a commutative monoid, so "at least the recorded
//! slots are done" is exactly the invariant resume needs.

use crate::chaos::{ChaosPolicy, ChaosSink};
use crate::error::CheckpointError;
use crate::stream::{PartialFold, Shard, SpecGrid};
use hvsim_obs::{encode_event, parse_line, EventKind, TraceEvent};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

/// Slots a worker folds between two durable fold records. Larger
/// intervals sync less often; smaller ones lose less work on a crash.
pub(crate) const FOLD_INTERVAL: u64 = 1024;

/// FNV-1a 64-bit: the journal's checksum. Deliberately simple — the
/// journal defends against torn writes, not adversarial corruption.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Where journal bytes go. The production implementation is
/// [`FileSink`]; under chaos a [`ChaosSink`] wraps it and tears writes,
/// which is why this is a trait and not a `File`.
pub(crate) trait JournalSink: Send {
    /// Appends bytes (one framed record) to the journal.
    ///
    /// # Errors
    ///
    /// The underlying I/O failure; the writer degrades to a no-op
    /// rather than failing the campaign.
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()>;

    /// Makes previously appended bytes durable (fsync or equivalent).
    ///
    /// # Errors
    ///
    /// The underlying I/O failure.
    fn sync(&mut self) -> std::io::Result<()>;
}

/// The production sink: a plain append-mode file, `sync_data` on
/// [`JournalSink::sync`].
pub(crate) struct FileSink {
    file: File,
}

impl JournalSink for FileSink {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.file.write_all(bytes)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_data()
    }
}

/// The journal's identity record: which campaign grid, shard and chaos
/// seed the journal belongs to. Resume refuses any mismatch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalHeader {
    /// The campaign grid.
    pub grid: SpecGrid,
    /// The shard the journal's run covered (`None` = whole grid).
    pub shard: Option<Shard>,
    /// The run's chaos seed (`None` = no chaos), written as a `chaos`
    /// attribute only when set: a journal without it has no chaos.
    pub chaos: Option<u64>,
}

impl JournalHeader {
    /// Renders the grid, shard and chaos seed for mismatch diagnostics.
    pub(crate) fn render(&self) -> String {
        let shard = self.shard.map_or_else(|| "unsharded".to_owned(), |s| format!("shard {s}"));
        let chaos = self.chaos.map_or_else(String::new, |seed| format!(", chaos seed {seed}"));
        format!("{}, {shard}{chaos}", self.grid)
    }
}

/// One decoded journal record.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum JournalRecord {
    /// First record of every journal.
    Header(JournalHeader),
    /// `worker`'s cumulative fold, covering `slots` since its previous
    /// fold record — the durable unit of recovery.
    Fold {
        worker: u64,
        seq: u64,
        slots: Vec<u64>,
        fold: Box<PartialFold>,
    },
}

fn attr<'a>(event: &'a TraceEvent, key: &str) -> Result<&'a str, String> {
    event
        .attrs
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
        .ok_or_else(|| format!("record is missing attr \"{key}\""))
}

/// The last index of the ascending one-stride run that starts at
/// `start` (`start` itself when the next slot does not ascend).
fn run_end(slots: &[u64], start: usize) -> usize {
    let Some(stride) = slots
        .get(start + 1)
        .and_then(|next| next.checked_sub(slots[start]))
        .filter(|&stride| stride > 0)
    else {
        return start;
    };
    let mut end = start + 1;
    while slots.get(end + 1).and_then(|next| next.checked_sub(slots[end])) == Some(stride) {
        end += 1;
    }
    end
}

/// Appends a fold record's slot batch: runs of three or more as `a-b`
/// or `a-b/s`, other slots as plain numbers (see the module docs). A
/// batch longer than [`FOLD_INTERVAL`], which no worker writes, is
/// written as a plain list, so [`parse_slots`] reads back every batch.
fn push_slots(out: &mut String, slots: &[u64]) {
    let runs = slots.len() as u64 <= FOLD_INTERVAL;
    let mut i = 0;
    while i < slots.len() {
        if i > 0 {
            out.push(',');
        }
        let (first, end) = (slots[i], if runs { run_end(slots, i) } else { i });
        if end >= i + 2 {
            let (last, stride) = (slots[end], slots[i + 1] - first);
            let _ = if stride == 1 {
                write!(out, "{first}-{last}")
            } else {
                write!(out, "{first}-{last}/{stride}")
            };
            i = end + 1;
        } else {
            let _ = write!(out, "{first}");
            i += 1;
        }
    }
}

/// Parses a fold record's slot batch, plain numbers and runs alike. A
/// run must ascend (`a < b`), have a nonzero stride that divides
/// `b - a`, and not grow the batch past [`FOLD_INTERVAL`] slots: a
/// corrupt record whose checksum happens to hold must not make resume
/// allocate without bound.
fn parse_slots(text: &str) -> Result<Vec<u64>, String> {
    let mut slots = Vec::new();
    if text.is_empty() {
        return Ok(slots);
    }
    let bad = |part: &str| format!("bad slot '{part}' in batch");
    for part in text.split(',') {
        let Some((first, rest)) = part.split_once('-') else {
            slots.push(part.parse().map_err(|_| bad(part))?);
            continue;
        };
        let (last, stride) = rest.split_once('/').unwrap_or((rest, "1"));
        let parse = |n: &str| n.parse::<u64>().map_err(|_| bad(part));
        let (first, last, stride) = (parse(first)?, parse(last)?, parse(stride)?);
        if stride == 0 || first >= last || (last - first) % stride != 0 {
            return Err(bad(part));
        }
        // The run holds `steps + 1` slots.
        let steps = (last - first) / stride;
        if steps >= FOLD_INTERVAL.saturating_sub(slots.len() as u64) {
            return Err(format!("run '{part}' grows the batch past {FOLD_INTERVAL} slots"));
        }
        slots.extend((0..=steps).map(|k| first + k * stride));
    }
    Ok(slots)
}

impl JournalRecord {
    /// Encodes this record as one framed journal line (with trailing
    /// newline).
    ///
    /// # Errors
    ///
    /// Serializer failures (unreachable for this data model).
    pub(crate) fn encode(&self) -> Result<String, String> {
        let event = match self {
            JournalRecord::Header(JournalHeader { grid, shard, chaos }) => {
                let mut attrs = vec![
                    ("grid".to_owned(), serde_json::to_string(grid).map_err(|e| e.to_string())?),
                    ("shard".to_owned(), shard.map_or_else(|| "-".to_owned(), |s| s.to_string())),
                ];
                attrs.extend(chaos.map(|seed| ("chaos".to_owned(), seed.to_string())));
                TraceEvent {
                    shard: 0,
                    seq: 0,
                    kind: EventKind::Point,
                    path: "journal/header".to_owned(),
                    wall_us: 0,
                    attrs,
                }
            }
            JournalRecord::Fold { worker, seq, slots, fold } => {
                let mut joined = String::new();
                push_slots(&mut joined, slots);
                TraceEvent {
                    shard: *worker,
                    seq: *seq,
                    kind: EventKind::Point,
                    path: "journal/fold".to_owned(),
                    wall_us: 0,
                    attrs: vec![
                        ("slots".to_owned(), joined),
                        (
                            "fold".to_owned(),
                            serde_json::to_string(fold.as_ref()).map_err(|e| e.to_string())?,
                        ),
                    ],
                }
            }
        };
        let payload = encode_event(&event);
        Ok(format!("{} {:016x} {payload}\n", payload.len(), fnv64(payload.as_bytes())))
    }

    /// Decodes one journal line (without its trailing newline),
    /// verifying framing, checksum, codec, and record schema.
    pub(crate) fn decode(line: &[u8]) -> Result<Self, String> {
        let text = std::str::from_utf8(line).map_err(|_| "record is not UTF-8".to_owned())?;
        let (len_text, rest) =
            text.split_once(' ').ok_or_else(|| "missing length prefix".to_owned())?;
        let (sum_text, payload) =
            rest.split_once(' ').ok_or_else(|| "missing checksum".to_owned())?;
        let len: usize =
            len_text.parse().map_err(|_| format!("bad length prefix '{len_text}'"))?;
        let sum = u64::from_str_radix(sum_text, 16)
            .map_err(|_| format!("bad checksum '{sum_text}'"))?;
        if payload.len() != len {
            return Err(format!("length mismatch: prefix {len}, payload {}", payload.len()));
        }
        if fnv64(payload.as_bytes()) != sum {
            return Err("checksum mismatch".to_owned());
        }
        let event = parse_line(payload).map_err(|e| e.to_string())?;
        match event.path.as_str() {
            "journal/header" => {
                let grid: SpecGrid = serde_json::from_str(attr(&event, "grid")?)
                    .map_err(|e| format!("bad grid fingerprint: {e}"))?;
                let shard_text = attr(&event, "shard")?;
                let shard = if shard_text == "-" {
                    None
                } else {
                    Some(Shard::parse(shard_text).map_err(|e| format!("bad shard: {e}"))?)
                };
                let chaos = attr(&event, "chaos").ok().map(str::parse).transpose();
                let chaos = chaos.map_err(|e| format!("bad chaos seed: {e}"))?;
                Ok(JournalRecord::Header(JournalHeader { grid, shard, chaos }))
            }
            "journal/fold" => {
                let slots = parse_slots(attr(&event, "slots")?)?;
                let fold: PartialFold = serde_json::from_str(attr(&event, "fold")?)
                    .map_err(|e| format!("bad fold snapshot: {e}"))?;
                Ok(JournalRecord::Fold {
                    worker: event.shard,
                    seq: event.seq,
                    slots,
                    fold: Box::new(fold),
                })
            }
            other => Err(format!("unknown journal record path \"{other}\"")),
        }
    }
}

/// Everything recovery extracts from a journal file, tolerating a torn
/// tail: the header, each worker's last durable fold, the union of
/// folded slots, and the byte offset of the first invalid record (where
/// resume truncates before appending).
pub(crate) struct JournalState {
    pub(crate) header: JournalHeader,
    /// Each worker's last valid cumulative fold, keyed by worker id.
    pub(crate) folds: BTreeMap<u64, PartialFold>,
    /// Every slot covered by a valid fold record.
    pub(crate) done: BTreeSet<u64>,
    /// One past the highest worker id seen (resume generations continue
    /// from here so journal lines stay attributable).
    pub(crate) next_worker: u64,
    /// Length of the valid prefix, in bytes.
    pub(crate) valid_bytes: u64,
}

impl JournalState {
    /// Loads and validates a journal, stopping at the first invalid
    /// record (the torn-tail policy — a short tail is expected after a
    /// crash, never an error).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the file cannot be read;
    /// [`CheckpointError::Header`] when the leading header record is
    /// missing or malformed (the file was never a journal).
    pub(crate) fn load(path: &Path) -> Result<Self, CheckpointError> {
        let bytes = std::fs::read(path).map_err(|e| CheckpointError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        let first = bytes.iter().position(|&b| b == b'\n');
        let header = decode_header(path, first.map(|nl| &bytes[..nl]))?;
        let mut offset = first.map_or(0, |nl| nl + 1);
        let mut folds: BTreeMap<u64, PartialFold> = BTreeMap::new();
        let mut done: BTreeSet<u64> = BTreeSet::new();
        let mut next_worker = 1u64;
        while let Some(nl) = bytes[offset..].iter().position(|&b| b == b'\n') {
            match JournalRecord::decode(&bytes[offset..offset + nl]) {
                Ok(JournalRecord::Fold { worker, slots, fold, .. }) => {
                    next_worker = next_worker.max(worker + 1);
                    done.extend(slots);
                    folds.insert(worker, *fold);
                }
                // A second header is not ours; like a torn tail, it
                // ends the valid prefix.
                Ok(JournalRecord::Header(_)) | Err(_) => break,
            }
            offset += nl + 1;
        }
        Ok(Self { header, folds, done, next_worker, valid_bytes: offset as u64 })
    }
}

/// The header a journal's first line (`None` when the file holds no
/// complete line) carries.
fn decode_header(path: &Path, first_line: Option<&[u8]>) -> Result<JournalHeader, CheckpointError> {
    let error = |message: String| CheckpointError::Header {
        path: path.display().to_string(),
        message,
    };
    let line = first_line.ok_or_else(|| error("journal is empty".to_owned()))?;
    match JournalRecord::decode(line).map_err(error)? {
        JournalRecord::Header(header) => Ok(header),
        JournalRecord::Fold { .. } => Err(error("first record is not a journal header".to_owned())),
    }
}

/// Reads just the identity of a checkpoint journal — what the CLI
/// `campaign resume` uses to configure the campaign (trials, shard,
/// chaos seed) before the full resume validates the whole header. It reads
/// and decodes the first line only.
///
/// # Errors
///
/// [`CheckpointError`] when the file is unreadable or is not a journal.
pub fn read_header(path: &Path) -> Result<JournalHeader, CheckpointError> {
    let io = |e: std::io::Error| CheckpointError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    };
    let mut line = Vec::new();
    BufReader::new(File::open(path).map_err(io)?).read_until(b'\n', &mut line).map_err(io)?;
    let complete = line.pop() == Some(b'\n');
    decode_header(path, complete.then_some(&line[..]))
}

/// Counter snapshot of a journal writer, for the
/// `campaign.checkpoint.*` metrics fold.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct CheckpointCounters {
    pub(crate) folds: u64,
    pub(crate) syncs: u64,
    pub(crate) bytes: u64,
    pub(crate) write_errors: u64,
    /// Worker time spent encoding fold records, µs (rounded up).
    pub(crate) encode_us: u64,
    /// Writer time spent appending and syncing, µs (rounded up).
    pub(crate) sync_us: u64,
}

/// What the workers and the writer thread share: the fail-soft latch
/// and the counters.
#[derive(Default)]
struct WriterState {
    failed: AtomicBool,
    folds: AtomicU64,
    syncs: AtomicU64,
    bytes: AtomicU64,
    write_errors: AtomicU64,
    encode_ns: AtomicU64,
    sync_ns: AtomicU64,
}

impl WriterState {
    fn trip(&self) {
        if !self.failed.swap(true, Ordering::Relaxed) {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Appends one group of lines and syncs it once. Errors trip the
    /// fail-soft latch instead of propagating.
    fn commit(&self, sink: &mut dyn JournalSink, group: impl Iterator<Item = String>) {
        for line in group {
            if sink.append(line.as_bytes()).is_err() {
                self.trip();
                return;
            }
            self.bytes.fetch_add(line.len() as u64, Ordering::Relaxed);
            self.folds.fetch_add(1, Ordering::Relaxed);
        }
        if sink.sync().is_err() {
            self.trip();
            return;
        }
        self.syncs.fetch_add(1, Ordering::Relaxed);
    }
}

/// Elapsed nanoseconds since `start`, saturating.
fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The journal's writer: workers encode fold records and queue the
/// lines; one writer thread owns the sink, appends every queued line
/// and syncs once per group. **Fail-soft**: the first I/O error
/// disables it for the rest of the run (counted in `write_errors`) — a
/// broken journal must degrade durability, never the campaign itself.
pub(crate) struct CheckpointWriter {
    state: Arc<WriterState>,
    /// The writer thread's queue; `None` once closed.
    lines: Option<mpsc::Sender<String>>,
    thread: Option<JoinHandle<()>>,
}

impl CheckpointWriter {
    /// Starts the writer thread on `sink`, which already holds
    /// `header_bytes` bytes.
    pub(crate) fn new(mut sink: Box<dyn JournalSink>, header_bytes: u64) -> Self {
        let state = Arc::new(WriterState::default());
        state.bytes.store(header_bytes, Ordering::Relaxed);
        let (lines, queue) = mpsc::channel::<String>();
        let thread = {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("journal-writer".to_owned())
                .spawn(move || {
                    while let Ok(first) = queue.recv() {
                        if state.failed.load(Ordering::Relaxed) {
                            continue; // Drain and drop: journaling is off.
                        }
                        let start = Instant::now();
                        state.commit(sink.as_mut(), std::iter::once(first).chain(queue.try_iter()));
                        state.sync_ns.fetch_add(nanos_since(start), Ordering::Relaxed);
                    }
                })
                .ok()
        };
        let writer = Self { state, lines: Some(lines), thread };
        if writer.thread.is_none() {
            writer.state.trip(); // No thread, no journal: fail soft.
        }
        writer
    }

    /// `true` once an I/O error has switched journaling off.
    pub(crate) fn failed(&self) -> bool {
        self.state.failed.load(Ordering::Relaxed)
    }

    /// Encodes one fold record and queues it for the writer thread,
    /// without waiting for it to be appended or synced. Does nothing
    /// once the latch has tripped.
    fn append_fold(&self, fold: &JournalRecord) {
        if self.failed() {
            return;
        }
        let start = Instant::now();
        let line = fold.encode();
        self.state.encode_ns.fetch_add(nanos_since(start), Ordering::Relaxed);
        let queued = match (line, &self.lines) {
            (Ok(line), Some(lines)) => lines.send(line).is_ok(),
            _ => false,
        };
        if !queued {
            self.state.trip();
        }
    }

    /// Waits until every queued record is appended and synced, then
    /// stops the writer thread. Later calls do nothing.
    pub(crate) fn close(&mut self) {
        self.lines = None;
        if let Some(thread) = self.thread.take() {
            if thread.join().is_err() {
                self.state.trip(); // The sink panicked.
            }
        }
    }

    pub(crate) fn counters(&self) -> CheckpointCounters {
        let s = &*self.state;
        CheckpointCounters {
            folds: s.folds.load(Ordering::Relaxed),
            syncs: s.syncs.load(Ordering::Relaxed),
            bytes: s.bytes.load(Ordering::Relaxed),
            write_errors: s.write_errors.load(Ordering::Relaxed),
            encode_us: s.encode_ns.load(Ordering::Relaxed).div_ceil(1000),
            sync_us: s.sync_ns.load(Ordering::Relaxed).div_ceil(1000),
        }
    }
}

impl Drop for CheckpointWriter {
    fn drop(&mut self) {
        self.close();
    }
}

/// The writer's sink for a journal file: the file itself, or under
/// chaos the file behind a [`ChaosSink`] that tears a seeded fraction
/// of the fold records.
fn writer_sink(file: FileSink, chaos: Option<Arc<ChaosPolicy>>) -> Box<dyn JournalSink> {
    match chaos {
        Some(policy) => Box::new(ChaosSink { inner: Box::new(file), policy }),
        None => Box::new(file),
    }
}

/// One campaign run's attachment to a journal: the writer plus the
/// recovered state a resumed run starts from (empty for a fresh run).
pub(crate) struct CheckpointSession {
    pub(crate) writer: CheckpointWriter,
    /// Slots already covered by durable fold records — workers skip
    /// these after claiming them.
    pub(crate) done: BTreeSet<u64>,
    /// Each prior worker's last cumulative fold, merged into the final
    /// report exactly as if those cells had just run.
    pub(crate) recovered: Vec<PartialFold>,
    /// First worker id for this run's workers (continues past prior
    /// generations so journal lines stay attributable).
    pub(crate) first_worker: u64,
}

impl CheckpointSession {
    /// Starts a fresh journal at `path` (truncating any existing file)
    /// and makes the header durable before any cell runs. The header
    /// goes straight to the file; only then does `chaos`, when set, wrap
    /// the sink, so chaos never tears the record that identifies the
    /// journal.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the journal cannot be created or
    /// its header cannot be written — a checkpointed campaign refuses
    /// to start without a durable journal.
    pub(crate) fn create(
        path: &Path,
        header: JournalHeader,
        chaos: Option<Arc<ChaosPolicy>>,
    ) -> Result<Self, CheckpointError> {
        let io_err = |e: std::io::Error| CheckpointError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        };
        let mut sink = FileSink { file: File::create(path).map_err(io_err)? };
        let line = JournalRecord::Header(header).encode().map_err(|message| CheckpointError::Io {
            path: path.display().to_string(),
            message,
        })?;
        sink.append(line.as_bytes()).map_err(io_err)?;
        sink.sync().map_err(io_err)?;
        Ok(Self {
            writer: CheckpointWriter::new(writer_sink(sink, chaos), line.len() as u64),
            done: BTreeSet::new(),
            recovered: Vec::new(),
            first_worker: 1,
        })
    }

    /// Reopens a journal for resume: loads the valid prefix, verifies
    /// the grid, shard and chaos seed, truncates the torn tail, and
    /// positions the sink for appending, behind a [`ChaosSink`] when
    /// `chaos` is set.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] when the journal is unreadable, is not a
    /// journal, or belongs to a different campaign grid, shard or chaos
    /// seed.
    pub(crate) fn resume(
        path: &Path,
        header: &JournalHeader,
        chaos: Option<Arc<ChaosPolicy>>,
    ) -> Result<Self, CheckpointError> {
        let state = JournalState::load(path)?;
        if state.header != *header {
            return Err(CheckpointError::GridMismatch {
                journal: state.header.render(),
                campaign: header.render(),
            });
        }
        let io_err = |e: std::io::Error| CheckpointError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        };
        let mut file = OpenOptions::new().write(true).open(path).map_err(io_err)?;
        file.set_len(state.valid_bytes).map_err(io_err)?;
        file.seek(SeekFrom::End(0)).map_err(io_err)?;
        Ok(Self {
            writer: CheckpointWriter::new(writer_sink(FileSink { file }, chaos), 0),
            done: state.done,
            recovered: state.folds.into_values().collect(),
            first_worker: state.next_worker,
        })
    }

    /// `true` when a durable fold record already covers this slot.
    pub(crate) fn is_done(&self, slot: u64) -> bool {
        self.done.contains(&slot)
    }

    /// Number of slots recovered from the journal (skipped on resume).
    pub(crate) fn resumed_slots(&self) -> u64 {
        self.done.len() as u64
    }

    /// Queues a worker's cumulative fold covering `slots` since its
    /// previous fold record. Those slots survive any crash once the
    /// writer has synced the record, which is no later than
    /// [`CheckpointWriter::close`].
    pub(crate) fn record_fold(&self, worker: u64, seq: u64, slots: Vec<u64>, fold: PartialFold) {
        self.writer.append_fold(&JournalRecord::Fold {
            worker,
            seq,
            slots,
            fold: Box::new(fold),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Mode;
    use hvsim::XenVersion;

    fn fingerprint() -> SpecGrid {
        SpecGrid {
            use_cases: vec!["XSA-212-crash".into()],
            versions: vec![XenVersion::V4_6, XenVersion::V4_13],
            modes: vec![Mode::Injection],
            trials: 7,
        }
    }

    fn header(shard: Option<Shard>) -> JournalHeader {
        JournalHeader { grid: fingerprint(), shard, chaos: None }
    }

    #[test]
    fn records_round_trip_through_the_frame() {
        let records = [
            JournalRecord::Header(header(Some(Shard { index: 1, count: 4 }))),
            JournalRecord::Header(header(None)),
            JournalRecord::Header(JournalHeader { chaos: Some(7), ..header(None) }),
            JournalRecord::Fold {
                worker: 2,
                seq: 4,
                slots: vec![1, 5, 9],
                fold: Box::new(PartialFold::default()),
            },
            JournalRecord::Fold { worker: 1, seq: 1, slots: vec![], fold: Box::default() },
        ];
        for record in records {
            let line = record.encode().unwrap();
            assert!(line.ends_with('\n'));
            let back = JournalRecord::decode(line.trim_end().as_bytes()).unwrap();
            assert_eq!(back, record);
        }
    }

    /// A header without a chaos seed encodes exactly as before the
    /// `chaos` attribute existed; one with a seed carries it last.
    #[test]
    fn the_chaos_attribute_is_written_only_for_a_chaos_run() {
        let plain = JournalRecord::Header(header(None)).encode().unwrap();
        assert!(!plain.contains("chaos"), "{plain}");
        assert!(plain.trim_end().ends_with(r#""shard":"-"}}"#), "{plain}");
        let seeded = JournalHeader { chaos: Some(u64::MAX), ..header(None) };
        let line = JournalRecord::Header(seeded.clone()).encode().unwrap();
        assert!(line.trim_end().ends_with(r#""shard":"-","chaos":"18446744073709551615"}}"#), "{line}");
        let back = JournalRecord::decode(line.trim_end().as_bytes()).unwrap();
        assert_eq!(back, JournalRecord::Header(seeded));
    }

    #[test]
    fn decode_rejects_torn_and_corrupt_frames() {
        let line =
            JournalRecord::Fold { worker: 1, seq: 1, slots: vec![7], fold: Box::default() }
                .encode()
                .unwrap();
        let whole = line.trim_end();
        // Torn: any strict prefix must fail (length or checksum).
        for cut in 1..whole.len() {
            assert!(JournalRecord::decode(&whole.as_bytes()[..cut]).is_err(), "cut at {cut}");
        }
        // Flipped payload byte: checksum catches it.
        let mut flipped = whole.as_bytes().to_vec();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(JournalRecord::decode(&flipped).is_err());
        assert!(JournalRecord::decode(b"not a record").is_err());
    }

    #[test]
    fn load_recovers_the_valid_prefix_of_a_torn_journal() {
        let dir = std::env::temp_dir().join(format!("hvsim-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.journal");
        let header = JournalRecord::Header(header(None));
        let fold_a = JournalRecord::Fold {
            worker: 1,
            seq: 2,
            slots: vec![0, 2, 4],
            fold: Box::new(PartialFold::default()),
        };
        let fold_b = JournalRecord::Fold {
            worker: 2,
            seq: 2,
            slots: vec![1, 3],
            fold: Box::new(PartialFold::default()),
        };
        let mut bytes = Vec::new();
        bytes.extend_from_slice(header.encode().unwrap().as_bytes());
        bytes.extend_from_slice(fold_a.encode().unwrap().as_bytes());
        let valid = bytes.len() as u64;
        // Torn tail: half of a valid record, no newline needed to trip.
        let torn = fold_b.encode().unwrap();
        bytes.extend_from_slice(&torn.as_bytes()[..torn.len() / 2]);
        bytes.push(b'\n');
        std::fs::write(&path, &bytes).unwrap();
        let state = JournalState::load(&path).unwrap();
        assert_eq!(state.valid_bytes, valid);
        assert_eq!(state.done, [0u64, 2, 4].into_iter().collect());
        assert_eq!(state.folds.len(), 1);
        assert_eq!(state.next_worker, 2);
        assert_eq!(state.header.shard, None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_rejects_non_journals() {
        let dir = std::env::temp_dir().join(format!("hvsim-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("not-a.journal");
        std::fs::write(&path, b"hello world\n").unwrap();
        assert!(matches!(
            JournalState::load(&path),
            Err(CheckpointError::Header { .. })
        ));
        std::fs::write(&path, b"").unwrap();
        assert!(matches!(
            JournalState::load(&path),
            Err(CheckpointError::Header { .. })
        ));
        assert!(matches!(
            JournalState::load(&dir.join("missing.journal")),
            Err(CheckpointError::Io { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn read_header_decodes_the_first_line_only() {
        let dir = std::env::temp_dir().join(format!("hvsim-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage-folds.journal");
        let shard = Some(Shard { index: 1, count: 4 });
        let mut bytes = JournalRecord::Header(header(shard)).encode().unwrap().into_bytes();
        bytes.extend_from_slice(b"not a record\n\xff\xfe garbage\n");
        std::fs::write(&path, &bytes).unwrap();
        let read = read_header(&path).unwrap();
        assert_eq!((read.grid, read.shard), (fingerprint(), shard));
        // What `load` refuses as a header, `read_header` refuses too.
        for not_a_journal in [&b"hello world\n"[..], b"", b"no newline"] {
            std::fs::write(&path, not_a_journal).unwrap();
            assert!(matches!(read_header(&path), Err(CheckpointError::Header { .. })));
        }
        let fold = JournalRecord::Fold {
            worker: 1,
            seq: 1,
            slots: vec![0],
            fold: Box::new(PartialFold::default()),
        };
        std::fs::write(&path, fold.encode().unwrap()).unwrap();
        assert!(matches!(
            read_header(&path),
            Err(CheckpointError::Header { message, .. }) if message == "first record is not a journal header"
        ));
        assert!(matches!(read_header(&dir.join("missing.journal")), Err(CheckpointError::Io { .. })));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_refuses_a_different_grid_or_shard() {
        let dir = std::env::temp_dir().join(format!("hvsim-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("grid.journal");
        let session = CheckpointSession::create(&path, header(None), None).unwrap();
        drop(session);
        let mut other = header(None);
        other.grid.trials = 99;
        assert!(matches!(
            CheckpointSession::resume(&path, &other, None),
            Err(CheckpointError::GridMismatch { .. })
        ));
        assert!(matches!(
            CheckpointSession::resume(&path, &header(Some(Shard { index: 0, count: 2 })), None),
            Err(CheckpointError::GridMismatch { .. })
        ));
        let ok = CheckpointSession::resume(&path, &header(None), None).unwrap();
        assert_eq!(ok.resumed_slots(), 0);
        assert_eq!(ok.first_worker, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_refuses_a_different_chaos_seed() {
        let dir = std::env::temp_dir().join(format!("hvsim-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("chaos.journal");
        let seeded = |chaos| JournalHeader { chaos, ..header(None) };
        drop(CheckpointSession::create(&path, seeded(Some(7)), None).unwrap());
        for chaos in [None, Some(8)] {
            let refused = CheckpointSession::resume(&path, &seeded(chaos), None).err();
            let message = refused.as_ref().map(ToString::to_string).unwrap_or_default();
            assert!(
                matches!(refused, Some(CheckpointError::GridMismatch { .. }))
                    && message.contains("(journal [XSA-212-crash] x 2 version(s) x 1 mode(s) x 7 trial(s), unsharded, chaos seed 7, campaign"),
                "{chaos:?}: {message}"
            );
        }
        assert_eq!(read_header(&path).unwrap(), seeded(Some(7)));
        CheckpointSession::resume(&path, &seeded(Some(7)), None).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn writer_fails_soft_on_io_errors() {
        struct BrokenSink {
            appends: u64,
        }
        impl JournalSink for BrokenSink {
            fn append(&mut self, _bytes: &[u8]) -> std::io::Result<()> {
                self.appends += 1;
                Err(std::io::Error::other("disk on fire"))
            }
            fn sync(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut writer = CheckpointWriter::new(Box::new(BrokenSink { appends: 0 }), 0);
        let fold =
            JournalRecord::Fold { worker: 1, seq: 1, slots: vec![0], fold: Box::default() };
        writer.append_fold(&fold);
        writer.append_fold(&fold);
        writer.close();
        let counters = writer.counters();
        assert_eq!(counters.write_errors, 1, "first error latches");
        assert_eq!(counters.folds, 0);
        assert_eq!(counters.bytes, 0);
    }

    #[test]
    fn create_then_resume_round_trips_fold_state() {
        let dir = std::env::temp_dir().join(format!("hvsim-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.journal");
        let mut session = CheckpointSession::create(&path, header(None), None).unwrap();
        session.record_fold(1, 1, vec![3], PartialFold::default());
        session.writer.close();
        let counters = session.writer.counters();
        assert_eq!(counters.folds, 1);
        assert!(counters.syncs >= 1);
        drop(session);
        let journal = std::fs::read_to_string(&path).unwrap();
        assert_eq!(journal.lines().count(), 2, "the journal holds the header and one fold");
        let resumed = CheckpointSession::resume(&path, &header(None), None).unwrap();
        assert!(resumed.is_done(3));
        assert!(!resumed.is_done(4));
        assert_eq!(resumed.resumed_slots(), 1);
        assert_eq!(resumed.recovered.len(), 1);
        assert_eq!(resumed.first_worker, 2);
        std::fs::remove_file(&path).unwrap();
    }

    /// A fold record framed like [`JournalRecord::encode`] frames one,
    /// with `slots` as its raw batch text.
    fn framed_fold(slots: &str) -> String {
        let payload = encode_event(&TraceEvent {
            shard: 1,
            seq: 1,
            kind: EventKind::Point,
            path: "journal/fold".to_owned(),
            wall_us: 0,
            attrs: vec![
                ("slots".to_owned(), slots.to_owned()),
                ("fold".to_owned(), serde_json::to_string(&PartialFold::default()).unwrap()),
            ],
        });
        format!("{} {:016x} {payload}", payload.len(), fnv64(payload.as_bytes()))
    }

    fn decoded_slots(slots: &str) -> Result<Vec<u64>, String> {
        match JournalRecord::decode(framed_fold(slots).as_bytes())? {
            JournalRecord::Fold { slots, .. } => Ok(slots),
            JournalRecord::Header { .. } => Err("not a fold record".to_owned()),
        }
    }

    #[test]
    fn slot_batches_are_written_as_runs() {
        let mut out = String::new();
        push_slots(&mut out, &[0, 1, 2, 3, 5, 7, 9, 20, 22, 30, 29, 28, 4, 4, 4]);
        assert_eq!(out, "0-3,5-9/2,20,22,30,29,28,4,4,4");
        // One worker's claims on shard 1 of 2: 64 shard-local indices
        // each, so one run per claim with the shard count as stride.
        let shard: Vec<u64> = (0..64).chain(128..192).map(|i| i * 2 + 1).collect();
        out.clear();
        push_slots(&mut out, &shard);
        assert_eq!(out, "1-127/2,257-383/2");
    }

    #[test]
    fn a_plain_list_and_its_run_form_decode_to_the_same_slots() {
        let plain = decoded_slots("0,1,2,3,5,7,9,12").unwrap();
        assert_eq!(plain, vec![0, 1, 2, 3, 5, 7, 9, 12]);
        assert_eq!(decoded_slots("0-3,5-9/2,12").unwrap(), plain);
        assert_eq!(decoded_slots("").unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn decode_rejects_malformed_and_oversized_runs() {
        let too_long = format!("0-{FOLD_INTERVAL}");
        let too_long_together = format!("0-{},{}-{}", FOLD_INTERVAL - 2, FOLD_INTERVAL, FOLD_INTERVAL + 1);
        for bad in [
            "5-3",
            "3-3",
            "1-5/0",
            "1-6/2",
            "-4",
            "4-",
            "1-2-3",
            "0-18446744073709551616",
            "18446744073709551616",
            "0-18446744073709551615",
            too_long.as_str(),
            too_long_together.as_str(),
        ] {
            assert!(decoded_slots(bad).is_err(), "'{bad}' must not decode");
        }
        // The largest run a batch can hold still decodes.
        let whole = format!("0-{}", FOLD_INTERVAL - 1);
        assert_eq!(decoded_slots(&whole).unwrap().len() as u64, FOLD_INTERVAL);
    }

    /// One piece of a generated slot batch: `(kind, start, stride, len)`.
    type Piece = (u8, u64, u64, u64);

    fn batch_of(pieces: &[Piece]) -> Vec<u64> {
        let mut slots = Vec::new();
        for &(kind, start, stride, len) in pieces {
            match kind {
                // Ascending runs: stride 1, a shard count, or any stride.
                0 => slots.extend((0..len).map_while(|k| start.checked_add(k))),
                1 => slots.extend((0..len).map_while(|k| start.checked_add(k * stride))),
                2 => slots.push(start),
                3 => slots.extend([start, start.wrapping_add(stride)]),
                // Descending runs are written as plain numbers.
                4 => slots.extend((0..len).map_while(|k| start.checked_sub(k * stride))),
                // Runs that end at, or stop short of, `u64::MAX`.
                _ => slots.extend((0..len).map_while(|k| (u64::MAX - 64).checked_add(k * stride))),
            }
        }
        slots
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Every slot sequence survives the record codec in order, runs
        /// or no runs, including batches longer than a worker writes.
        #[test]
        fn slot_batches_round_trip_through_the_record(
            pieces in proptest::collection::vec(
                (0u8..6, proptest::prelude::any::<u64>(), 1u64..9, 1u64..80),
                0..40,
            ),
        ) {
            let slots = batch_of(&pieces);
            let record = JournalRecord::Fold { worker: 3, seq: 9, slots, fold: Box::default() };
            let line = record.encode().unwrap();
            let back = JournalRecord::decode(line.trim_end().as_bytes()).unwrap();
            proptest::prop_assert_eq!(back, record);
        }
    }

    /// One call a [`RecordingSink`] saw.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Op {
        Append,
        Sync,
    }

    /// Records every call; `sync` fails when `fail_sync` is set.
    struct RecordingSink {
        ops: Arc<std::sync::Mutex<Vec<Op>>>,
        fail_sync: bool,
    }

    impl JournalSink for RecordingSink {
        fn append(&mut self, _bytes: &[u8]) -> std::io::Result<()> {
            self.ops.lock().unwrap().push(Op::Append);
            Ok(())
        }

        fn sync(&mut self) -> std::io::Result<()> {
            self.ops.lock().unwrap().push(Op::Sync);
            if self.fail_sync {
                return Err(std::io::Error::other("sync failed"));
            }
            Ok(())
        }
    }

    fn recording_writer(fail_sync: bool) -> (CheckpointWriter, Arc<std::sync::Mutex<Vec<Op>>>) {
        let ops = Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = RecordingSink { ops: Arc::clone(&ops), fail_sync };
        (CheckpointWriter::new(Box::new(sink), 0), ops)
    }

    #[test]
    fn closed_writer_has_synced_every_append() {
        let (mut writer, ops) = recording_writer(false);
        std::thread::scope(|scope| {
            for worker in 1..=4u64 {
                let writer = &writer;
                scope.spawn(move || {
                    for seq in 1..=50 {
                        writer.append_fold(&JournalRecord::Fold {
                            worker,
                            seq,
                            slots: vec![seq],
                            fold: Box::default(),
                        });
                    }
                });
            }
        });
        writer.close();
        let ops = ops.lock().unwrap().clone();
        let appends = ops.iter().filter(|&&op| op == Op::Append).count();
        let syncs = ops.iter().filter(|&&op| op == Op::Sync).count();
        assert_eq!(appends, 200, "every queued record is appended");
        assert_eq!(ops.last(), Some(&Op::Sync), "nothing is appended after the last sync");
        assert!(ops.windows(2).all(|w| w != [Op::Sync, Op::Sync]), "a sync follows appends");
        assert!((1..=appends).contains(&syncs));
        let counters = writer.counters();
        assert_eq!(counters.folds, 200);
        assert_eq!(counters.syncs, syncs as u64);
        assert_eq!(counters.write_errors, 0);
        assert!(counters.encode_us > 0 && counters.sync_us > 0);
    }

    #[test]
    fn close_is_idempotent() {
        let (mut writer, ops) = recording_writer(false);
        writer.append_fold(&JournalRecord::Fold {
            worker: 1,
            seq: 1,
            slots: vec![0],
            fold: Box::default(),
        });
        writer.close();
        let counters = writer.counters();
        writer.close();
        drop(writer);
        assert_eq!(counters.folds, 1);
        assert_eq!(*ops.lock().unwrap(), [Op::Append, Op::Sync]);
    }

    #[test]
    fn a_failing_sync_trips_the_latch_once() {
        let (mut writer, ops) = recording_writer(true);
        let fold =
            JournalRecord::Fold { worker: 1, seq: 1, slots: vec![0], fold: Box::default() };
        writer.append_fold(&fold);
        // Wait until the writer has tripped, so the next record is
        // refused by the worker-side latch rather than dropped by it.
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while !writer.failed() {
            assert!(Instant::now() < deadline, "the failed sync never tripped the latch");
            std::thread::yield_now();
        }
        writer.append_fold(&fold);
        writer.close();
        let counters = writer.counters();
        assert_eq!(counters.write_errors, 1, "first error latches");
        assert_eq!(counters.syncs, 0);
        assert_eq!(counters.folds, 1);
        assert_eq!(*ops.lock().unwrap(), [Op::Append, Op::Sync], "nothing after the error");
    }
}
