//! The streaming campaign pipeline: an index-addressable cell grid,
//! batched slot claiming, and merge-associative partial reports.
//!
//! Every campaign run goes through one worker loop; runs differ only in
//! what each worker does with a finished cell. A streamed run
//! ([`Campaign::run_streaming`](crate::Campaign::run_streaming), the
//! default) folds each cell into its worker's partial report and drops
//! it, keeping one cell per worker resident — what the million-cell
//! grids the taxonomy implies need:
//!
//! ```text
//!  SlotClaims (one AtomicU64)          N workers
//!  claim batch i..i+B ──────────▶ slot = shard.index + i·shard.count
//!                                  SpecGrid::decode(slot) → run cell ─┐
//!                                                                      ▼
//!                                                       PartialFold (per worker)
//!                                                                      │
//!                                 ordered merge (by first slot) ◀──────┘
//!                                            │
//!                                            ▼
//!                                      StreamReport
//! ```
//!
//! There is no generator thread and no queue: [`SpecGrid`] decodes any
//! slot from its index, so a worker that claims a batch of shard-local
//! indices from the shared slot counter can build every cell spec itself.
//!
//! The [`StreamReport`] is the one report the artefacts render from:
//! Table III and Figs. 2/4 read its per-key aggregates. A collecting
//! run ([`Campaign::run_with_jobs`](crate::Campaign::run_with_jobs))
//! keeps one [`CellResult`] per cell instead, O(cells) memory, for the
//! security benchmark, which reads every cell. With a metrics registry
//! attached it also folds each cell's totals on its worker, as a
//! streamed run does, and publishes the merged fold.
//!
//! Determinism: a cell's result depends only on its [`CellSpec`] (every
//! cell starts from a pristine world), and every aggregate in a
//! [`StreamReport`] is a commutative monoid — sums, exact histogram
//! bucket merges, and unions of maps keyed by slot or by grid key whose
//! key sets are disjoint across shards. So the merged report is
//! independent of worker count and of how slots were partitioned into
//! shards; after [`StreamReport::normalized`] zeroes wall-clock values
//! it is byte-identical across schedules.

use crate::campaign::CellResult;
use crate::error::{CampaignError, CellOutcome};
use crate::report::{TextTable, CHECK, SHIELD};
use crate::scenario::Mode;
use hvsim::XenVersion;
use hvsim_obs::{Histogram, HistogramSummary};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// One cell of a campaign grid, identified by its global slot index.
///
/// `slot` encodes the cell's grid coordinates positionally
/// (use-case-major, trial fastest-varying), so any subset of slots can
/// be regenerated independently — the basis for deterministic sharding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellSpec {
    /// Global slot index in `0..grid.len()`.
    pub slot: u64,
    /// Index into the campaign's use-case list.
    pub use_case: usize,
    /// Version under test.
    pub version: XenVersion,
    /// Exploit or injection.
    pub mode: Mode,
    /// Trial index in `0..trials` — the parameter-grid axis. Classic
    /// single-shot campaigns use trial 0.
    pub trial: u64,
}

/// The cartesian campaign grid: use cases × versions × modes × trials,
/// enumerated lazily by slot index. Reports and journals carry it as
/// their identity, so reports of different campaigns refuse to merge
/// and a journal refuses to resume the wrong campaign.
///
/// `slot = ((uc · V + v) · M + m) · T + t` — identical to the classic
/// runner's work order when `trials == 1`, so streamed and classic runs
/// visit cells in the same logical order. Cell `slot` belongs to grid
/// key `slot / T`.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpecGrid {
    /// Use-case names, in grid order.
    pub use_cases: Vec<String>,
    /// Versions axis, in grid order.
    pub versions: Vec<XenVersion>,
    /// Modes axis, in grid order.
    pub modes: Vec<Mode>,
    /// Trials axis (≥ 1 for any real grid).
    pub trials: u64,
}

impl SpecGrid {
    /// Total number of cells in the grid.
    pub fn len(&self) -> u64 {
        self.use_cases.len() as u64
            * self.versions.len() as u64
            * self.modes.len() as u64
            * self.trials
    }

    /// `true` when any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The versions axis, in grid order.
    pub fn versions(&self) -> &[XenVersion] {
        &self.versions
    }

    /// The modes axis, in grid order.
    pub fn modes(&self) -> &[Mode] {
        &self.modes
    }

    /// The key index of a slot: its position among the grid's
    /// `use_case/version/mode` keys ([`SpecGrid::key_names`]).
    pub(crate) fn key_index(&self, slot: u64) -> usize {
        (slot / self.trials) as usize
    }

    /// The `by_key` name of every grid key, indexed by key: the name of
    /// the key's first slot.
    pub(crate) fn key_names(&self) -> Vec<String> {
        let firsts = (0..self.len()).step_by(self.trials.max(1) as usize);
        let specs = firsts.filter_map(|slot| self.decode(slot));
        specs.map(|s| grid_key(&self.use_cases[s.use_case], s.version, s.mode)).collect()
    }

    /// Decodes a slot index back into its grid coordinates.
    pub fn decode(&self, slot: u64) -> Option<CellSpec> {
        if slot >= self.len() {
            return None;
        }
        let trial = slot % self.trials;
        let rest = slot / self.trials;
        let m = (rest % self.modes.len() as u64) as usize;
        let rest = rest / self.modes.len() as u64;
        let v = (rest % self.versions.len() as u64) as usize;
        let use_case = (rest / self.versions.len() as u64) as usize;
        Some(CellSpec {
            slot,
            use_case,
            version: self.versions[v],
            mode: self.modes[m],
            trial,
        })
    }

    /// Decodes the `i`-th slot of a shard: slot `index + i·count` (slot
    /// `i` when `shard` is `None`). `None` past the shard's end.
    pub(crate) fn shard_decode(&self, shard: Option<Shard>, i: u64) -> Option<CellSpec> {
        let Shard { index, count } = shard.unwrap_or(Shard { index: 0, count: 1 });
        self.decode(i.checked_mul(count)?.checked_add(index)?)
    }

    /// Lazily iterates the whole grid in slot order.
    pub fn iter(&self) -> impl Iterator<Item = CellSpec> + '_ {
        self.shard_iter(None)
    }

    /// Lazily iterates one shard: slots `index, index + count,
    /// index + 2·count, …`. `None` iterates the whole grid. The `n`
    /// shards of any grid partition it exactly, which is what makes
    /// merged shard reports reproduce the unsharded report.
    pub fn shard_iter(&self, shard: Option<Shard>) -> impl Iterator<Item = CellSpec> + '_ {
        (0..self.shard_len(shard)).filter_map(move |i| self.shard_decode(shard, i))
    }

    /// Number of slots a shard of this grid contains.
    pub fn shard_len(&self, shard: Option<Shard>) -> u64 {
        match shard {
            None => self.len(),
            Some(s) if s.index >= self.len() => 0,
            Some(s) => 1 + (self.len() - 1 - s.index) / s.count,
        }
    }
}

/// Indices a worker takes per claim: enough that the shared counter is
/// touched once per many cells, few enough that the last batches of a
/// run still spread across workers.
pub(crate) const CLAIM_BATCH: u64 = 64;

/// Hands out the shard-local indices `0..len` in batches from one
/// shared counter — the only coordination between campaign workers.
/// Every index is claimed exactly once whatever the interleaving, and a
/// worker holds at most one cell at a time, so resident memory is one
/// cell per worker by construction.
pub(crate) struct SlotClaims {
    next: AtomicU64,
    len: u64,
    batch: u64,
}

impl SlotClaims {
    /// Claims over `0..len` for `workers` workers. Batches are
    /// [`CLAIM_BATCH`] indices, shrunk on small grids so every worker
    /// still gets a share.
    pub(crate) fn new(len: u64, workers: usize) -> Self {
        let batch = CLAIM_BATCH.min(len.div_ceil(workers.max(1) as u64)).max(1);
        Self { next: AtomicU64::new(0), len, batch }
    }

    /// The next unclaimed batch, or `None` once every index is taken.
    fn claim(&self) -> Option<Range<u64>> {
        // Relaxed: the counter only partitions indices. It publishes no
        // data — workers read inputs set up before they were spawned
        // and hand results back through mutexes and the scope join.
        let start = self.next.fetch_add(self.batch, Ordering::Relaxed);
        (start < self.len).then(|| start..(start + self.batch).min(self.len))
    }

    /// Calls `f` on every index this worker claims, batch by batch,
    /// until the range is exhausted.
    pub(crate) fn drain(&self, mut f: impl FnMut(u64)) {
        while let Some(batch) = self.claim() {
            batch.for_each(&mut f);
        }
    }

    /// Indices claimed so far (a live gauge, clamped to `len`).
    pub(crate) fn claimed(&self) -> u64 {
        self.next.load(Ordering::Relaxed).min(self.len)
    }
}

/// One shard of a campaign grid: this process runs slots congruent to
/// `index` modulo `count`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Shard {
    /// Shard index in `0..count`.
    pub index: u64,
    /// Total number of shards.
    pub count: u64,
}

/// Why a shard assignment could not be built or parsed. A CLI usage
/// error (exit code 2), never a campaign failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardError {
    /// `count == 0`: zero shards cannot partition anything.
    ZeroCount,
    /// `index >= count`.
    IndexOutOfRange {
        /// The offending index.
        index: u64,
        /// The shard count it must stay below.
        count: u64,
    },
    /// The CLI text is not of the `i/n` form.
    Malformed {
        /// The text as given.
        text: String,
    },
    /// The index half of `i/n` is not a number.
    BadIndex {
        /// The index text as given.
        text: String,
    },
    /// The count half of `i/n` is not a number.
    BadCount {
        /// The count text as given.
        text: String,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::ZeroCount => f.write_str("shard count must be at least 1"),
            ShardError::IndexOutOfRange { index, count } => {
                write!(f, "shard index {index} out of range for {count} shards")
            }
            ShardError::Malformed { text } => {
                write!(f, "'{text}' is not of the form i/n (e.g. 0/2)")
            }
            ShardError::BadIndex { text } => write!(f, "bad shard index '{text}'"),
            ShardError::BadCount { text } => write!(f, "bad shard count '{text}'"),
        }
    }
}

impl std::error::Error for ShardError {}

impl Shard {
    /// Validates and builds a shard assignment.
    ///
    /// # Errors
    ///
    /// [`ShardError`] when `count == 0` or `index >= count`.
    pub fn new(index: u64, count: u64) -> Result<Self, ShardError> {
        if count == 0 {
            return Err(ShardError::ZeroCount);
        }
        if index >= count {
            return Err(ShardError::IndexOutOfRange { index, count });
        }
        Ok(Self { index, count })
    }

    /// Parses the CLI form `i/n` (e.g. `0/2`).
    ///
    /// # Errors
    ///
    /// [`ShardError`] on malformed input.
    pub fn parse(text: &str) -> Result<Self, ShardError> {
        let (index, count) = text
            .split_once('/')
            .ok_or_else(|| ShardError::Malformed { text: text.to_owned() })?;
        let index: u64 = index
            .trim()
            .parse()
            .map_err(|_| ShardError::BadIndex { text: index.to_owned() })?;
        let count: u64 = count
            .trim()
            .parse()
            .map_err(|_| ShardError::BadCount { text: count.to_owned() })?;
        Self::new(index, count)
    }
}

impl std::fmt::Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Per-key aggregate in a [`StreamReport`], keyed by
/// `use_case/version/mode` — enough to render Table III-style summaries
/// without retaining per-cell results.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KeySummary {
    /// Cells run under this key (= trials that reached a worker).
    pub cells: u64,
    /// Cells that completed cleanly.
    pub completed: u64,
    /// Cells on which the harness degraded.
    pub degraded: u64,
    /// Cells that induced the erroneous state.
    pub erroneous_states: u64,
    /// Cells with at least one security violation.
    pub violated: u64,
    /// Cells where the state was induced but handled (the shield).
    pub handled: u64,
    /// Hypercalls executed under this key.
    pub hypercalls: u64,
}

/// The `by_key` key of one grid key: `use_case/version/mode`.
fn grid_key(use_case: &str, version: XenVersion, mode: Mode) -> String {
    format!("{use_case}/{version}/{mode}")
}

/// One column's mark over a key's cells: ✓ when every one of the `n`
/// cells has the property, x when none has, `k/n` when they disagree
/// (more than one trial, or a degraded cell).
fn tally(k: u64, n: u64) -> String {
    match k {
        0 => "x".to_owned(),
        k if k == n => CHECK.to_owned(),
        k => format!("{k}/{n}"),
    }
}

impl KeySummary {
    /// Table III's violation mark, which also shields a handled state:
    /// 🛡 when every cell handled it, else the violated cells' tally.
    fn table3_mark(&self) -> String {
        match self.handled {
            0 => tally(self.violated, self.cells),
            h if h == self.cells => SHIELD.to_owned(),
            _ => format!("{}/{}", self.violated, self.cells),
        }
    }

    /// Counts one finished cell under this key.
    pub(crate) fn tally(&mut self, cell: &CellResult) {
        self.cells += 1;
        if cell.degraded() {
            self.degraded += 1;
        } else {
            self.completed += 1;
        }
        if cell.erroneous_state {
            self.erroneous_states += 1;
        }
        if cell.violated() {
            self.violated += 1;
        }
        if cell.handled {
            self.handled += 1;
        }
        self.hypercalls += cell.hypercalls;
    }

    fn absorb(&mut self, other: &KeySummary) {
        self.cells += other.cells;
        self.completed += other.completed;
        self.degraded += other.degraded;
        self.erroneous_states += other.erroneous_states;
        self.violated += other.violated;
        self.handled += other.handled;
        self.hypercalls += other.hypercalls;
    }
}

/// The retained record of one degraded cell, keyed by slot. Streaming
/// drops completed cells after folding them, but a degraded cell is an
/// actionable harness failure — the report keeps every one, exactly
/// attributable via its slot.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DegradedSlot {
    /// Use-case name.
    pub use_case: String,
    /// Version under test.
    pub version: XenVersion,
    /// Exploit or injection.
    pub mode: Mode,
    /// Trial index within the key.
    pub trial: u64,
    /// How far the cell got.
    pub outcome: CellOutcome,
    /// The typed failure.
    pub error: Option<CampaignError>,
}

/// Completed/degraded histogram summaries for one cell phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseLatency {
    /// Summary over cells that completed cleanly.
    pub completed: HistogramSummary,
    /// Summary over cells on which the harness degraded.
    pub degraded: HistogramSummary,
}

/// Per-phase latency summaries (p50/p95/max), split completed vs
/// degraded — the latency block of a [`StreamReport`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyBreakdown {
    /// World acquisition.
    pub boot: PhaseLatency,
    /// Scenario body.
    pub inject: PhaseLatency,
    /// Violation monitoring.
    pub monitor: PhaseLatency,
}

impl std::fmt::Display for SpecGrid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] x {} version(s) x {} mode(s) x {} trial(s)",
            self.use_cases.join(", "),
            self.versions.len(),
            self.modes.len(),
            self.trials.max(1),
        )
    }
}

/// Why two [`StreamReport`]s refused to merge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MergeError {
    /// The reports were produced from different campaign grids; their
    /// aggregates are not comparable, let alone summable.
    GridMismatch {
        /// Left grid, rendered.
        left: String,
        /// Right grid, rendered.
        right: String,
    },
    /// Two shards cover at least one common slot — merging would
    /// double-count every shared cell.
    Overlap {
        /// A covered shard of the left report.
        left: Shard,
        /// An overlapping covered shard of the right report.
        right: Shard,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::GridMismatch { left, right } => {
                write!(f, "reports come from different campaign grids: {left} vs {right}")
            }
            MergeError::Overlap { left, right } => write!(
                f,
                "shards {left} and {right} overlap; merging would double-count shared slots"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// Why a serialized [`StreamReport`] could not be read.
#[derive(Debug)]
pub enum ReportError {
    /// The text is not a report.
    Json(serde_json::Error),
    /// A coverage shard has a zero count or an index out of range.
    Coverage(ShardError),
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportError::Json(e) => e.fmt(f),
            ReportError::Coverage(e) => write!(f, "bad coverage shard: {e}"),
        }
    }
}

impl std::error::Error for ReportError {}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// `true` when the two congruence classes `index mod count` share a
/// slot: by CRT, exactly when the indices agree modulo the gcd of the
/// counts. (Grid length is ignored — for tiny grids this is stricter
/// than necessary, which errs on the loud side.)
fn shards_overlap(a: Shard, b: Shard) -> bool {
    let g = gcd(a.count, b.count);
    a.index % g == b.index % g
}

/// Canonicalizes a disjoint shard union: if the classes cover every
/// residue modulo the lcm of their counts, the union *is* the whole
/// grid and collapses to `[0/1]`; otherwise the list is sorted and
/// deduplicated. Canonical form is what keeps a full run and the merge
/// of its shards byte-identical.
fn canonical_coverage(mut shards: Vec<Shard>) -> Vec<Shard> {
    shards.sort_by_key(|s| (s.count, s.index));
    shards.dedup();
    if shards.is_empty() {
        return shards;
    }
    let mut lcm = 1u64;
    for s in &shards {
        match (lcm / gcd(lcm, s.count)).checked_mul(s.count) {
            Some(l) if l <= 1 << 20 => lcm = l,
            // Pathological counts: skip the collapse, keep the list.
            _ => return shards,
        }
    }
    let covered = (0..lcm).all(|r| shards.iter().any(|s| r % s.count == s.index));
    if covered {
        vec![Shard { index: 0, count: 1 }]
    } else {
        shards
    }
}

/// A complete, merge-associative streaming campaign report.
///
/// Every field is a sum, an exact histogram merge, or a union of maps
/// whose key sets are disjoint across shards — so
/// [`StreamReport::merge`] is associative and commutative, and merging
/// the reports of `n` shards reproduces the unsharded report.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StreamReport {
    /// Cells run.
    pub cells: u64,
    /// Cells that completed cleanly (failed injection attempts
    /// included — they are assessment data).
    pub completed: u64,
    /// Cells on which the harness degraded.
    pub degraded: u64,
    /// Cells that induced their erroneous state.
    pub erroneous_states: u64,
    /// Cells with at least one security violation.
    pub violated_cells: u64,
    /// Individual violations observed (a cell can have several).
    pub violations: u64,
    /// Cells whose induced state was handled cleanly.
    pub handled: u64,
    /// Cells whose world never booted.
    pub boot_failed: u64,
    /// Cells where a panic escaped the cell body.
    pub crashed: u64,
    /// Hypercalls executed across all cells.
    pub hypercalls: u64,
    /// Sum of per-cell wall-clock time, µs (zeroed by `normalized`).
    pub wall_time_us: u64,
    /// Frames privatized by copy-on-write across all cell worlds
    /// (schedule-dependent; zeroed by `normalized`).
    pub frames_copied: u64,
    /// Per-phase latency summaries, completed vs degraded.
    pub latency: LatencyBreakdown,
    /// Aggregates per `use_case/version/mode` key.
    pub by_key: BTreeMap<String, KeySummary>,
    /// Every degraded cell, keyed by global slot index.
    pub degraded_slots: BTreeMap<u64, DegradedSlot>,
    /// Which campaign grid produced this report (empty for a
    /// never-run default report).
    pub grid: SpecGrid,
    /// Which shards of the grid this report covers, in canonical form:
    /// a full run (or a merge that reassembled one) is `[0/1]`.
    pub coverage: Vec<Shard>,
}

impl StreamReport {
    /// The report with every wall-clock and schedule-dependent value
    /// zeroed; counts survive. Normalized reports are byte-identical
    /// across worker counts and shardings.
    #[must_use]
    pub fn normalized(&self) -> Self {
        let norm_phase = |p: &PhaseLatency| PhaseLatency {
            completed: p.completed.normalized(),
            degraded: p.degraded.normalized(),
        };
        Self {
            wall_time_us: 0,
            frames_copied: 0,
            latency: LatencyBreakdown {
                boot: norm_phase(&self.latency.boot),
                inject: norm_phase(&self.latency.inject),
                monitor: norm_phase(&self.latency.monitor),
            },
            ..self.clone()
        }
    }

    /// Merges two reports (e.g. of two shards). Associative and
    /// commutative; quantiles are summarized per input, so merged
    /// quantiles take the max (exact after `normalized`, which zeroes
    /// them anyway).
    #[must_use]
    pub fn merge(&self, other: &Self) -> Self {
        let merge_summary = |a: HistogramSummary, b: HistogramSummary| HistogramSummary {
            count: a.count + b.count,
            p50_us: a.p50_us.max(b.p50_us),
            p95_us: a.p95_us.max(b.p95_us),
            max_us: a.max_us.max(b.max_us),
        };
        let merge_phase = |a: &PhaseLatency, b: &PhaseLatency| PhaseLatency {
            completed: merge_summary(a.completed, b.completed),
            degraded: merge_summary(a.degraded, b.degraded),
        };
        let mut by_key = self.by_key.clone();
        for (key, summary) in &other.by_key {
            by_key.entry(key.clone()).or_default().absorb(summary);
        }
        let mut degraded_slots = self.degraded_slots.clone();
        degraded_slots.extend(other.degraded_slots.iter().map(|(k, v)| (*k, v.clone())));
        Self {
            cells: self.cells + other.cells,
            completed: self.completed + other.completed,
            degraded: self.degraded + other.degraded,
            erroneous_states: self.erroneous_states + other.erroneous_states,
            violated_cells: self.violated_cells + other.violated_cells,
            violations: self.violations + other.violations,
            handled: self.handled + other.handled,
            boot_failed: self.boot_failed + other.boot_failed,
            crashed: self.crashed + other.crashed,
            hypercalls: self.hypercalls + other.hypercalls,
            wall_time_us: self.wall_time_us + other.wall_time_us,
            frames_copied: self.frames_copied + other.frames_copied,
            latency: LatencyBreakdown {
                boot: merge_phase(&self.latency.boot, &other.latency.boot),
                inject: merge_phase(&self.latency.inject, &other.latency.inject),
                monitor: merge_phase(&self.latency.monitor, &other.latency.monitor),
            },
            by_key,
            degraded_slots,
            grid: if self.grid == SpecGrid::default() { &other.grid } else { &self.grid }.clone(),
            coverage: canonical_coverage(
                self.coverage.iter().chain(&other.coverage).copied().collect(),
            ),
        }
    }

    /// [`StreamReport::merge`], but refusing to merge reports that
    /// cannot legitimately be summed: different campaign grids, or
    /// shards that cover a common slot (which would silently
    /// double-count every shared cell). A default (never-run) report is
    /// the merge identity and is always accepted, so folds can start
    /// from `StreamReport::default()`.
    ///
    /// # Errors
    ///
    /// [`MergeError`] on a grid mismatch or shard overlap.
    pub fn try_merge(&self, other: &Self) -> Result<Self, MergeError> {
        if self.cells == 0 && self.grid == SpecGrid::default() && self.coverage.is_empty() {
            return Ok(other.clone());
        }
        if other.cells == 0 && other.grid == SpecGrid::default() && other.coverage.is_empty() {
            return Ok(self.clone());
        }
        if self.grid != other.grid {
            return Err(MergeError::GridMismatch {
                left: self.grid.to_string(),
                right: other.grid.to_string(),
            });
        }
        for &a in &self.coverage {
            for &b in &other.coverage {
                if shards_overlap(a, b) {
                    return Err(MergeError::Overlap { left: a, right: b });
                }
            }
        }
        Ok(self.merge(other))
    }

    /// `true` when any cell degraded — CLI exit code 2.
    pub fn is_degraded(&self) -> bool {
        self.degraded > 0
    }

    /// `true` when any cell observed a violation — CLI exit code 1.
    pub fn has_violations(&self) -> bool {
        self.violated_cells > 0
    }

    /// Serializes to pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates serializer errors (unreachable for this data model).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a report serialized by [`StreamReport::to_json`] and
    /// checks every coverage shard with [`Shard::new`].
    ///
    /// # Errors
    ///
    /// [`ReportError`] on malformed input or an invalid coverage shard.
    pub fn from_json(text: &str) -> Result<Self, ReportError> {
        let report: Self = serde_json::from_str(text).map_err(ReportError::Json)?;
        for shard in &report.coverage {
            Shard::new(shard.index, shard.count).map_err(ReportError::Coverage)?;
        }
        Ok(report)
    }

    /// The aggregate of one grid key, when any of its cells ran.
    pub fn key(&self, use_case: &str, version: XenVersion, mode: Mode) -> Option<&KeySummary> {
        self.by_key.get(&grid_key(use_case, version, mode))
    }

    /// Renders Table III: the injection campaign on the non-vulnerable
    /// versions, one row per use case in grid order. A check marks a
    /// correctly induced property, the shield an erroneous state the
    /// system handled, `-` a key no cell of this report ran, and `k/n`
    /// a key whose cells disagree.
    pub fn render_table3(&self) -> String {
        let mut table = TextTable::new([
            "Use Case",
            "4.8 Err. State",
            "4.8 Sec. Viol.",
            "4.13 Err. State",
            "4.13 Sec. Viol.",
        ])
        .title(
            "TABLE III: injection campaign in non-vulnerable versions \
             (check = property induced, shield = erroneous state handled)",
        );
        for use_case in &self.grid.use_cases {
            let mut row = vec![use_case.clone()];
            for version in [XenVersion::V4_8, XenVersion::V4_13] {
                match self.key(use_case, version, Mode::Injection) {
                    Some(s) => row.extend([tally(s.erroneous_states, s.cells), s.table3_mark()]),
                    None => row.extend(["-".to_owned(), "-".to_owned()]),
                }
            }
            table.row(row);
        }
        table.to_string()
    }

    /// Renders the Fig. 4 comparison: on the vulnerable version, does
    /// the injection reproduce the exploit's erroneous state *and*
    /// security violation? The two are equivalent when they induce the
    /// state and the violation in the same share of their cells.
    pub fn render_fig4(&self) -> String {
        let mut table = TextTable::new([
            "Use Case",
            "exploit err/viol (4.6)",
            "injection err/viol (4.6)",
            "equivalent",
        ])
        .title("FIG. 4: experimental validation on the vulnerable version (Xen 4.6)");
        let marks = |s: Option<&KeySummary>| match s {
            Some(s) => {
                format!("{}/{}", tally(s.erroneous_states, s.cells), tally(s.violated, s.cells))
            }
            None => "-".to_owned(),
        };
        for use_case in &self.grid.use_cases {
            let e = self.key(use_case, XenVersion::V4_6, Mode::Exploit);
            let i = self.key(use_case, XenVersion::V4_6, Mode::Injection);
            let equivalent = e.zip(i).is_some_and(|(e, i)| {
                e.erroneous_states * i.cells == i.erroneous_states * e.cells
                    && e.violated * i.cells == i.violated * e.cells
            });
            table.row([
                use_case.clone(),
                marks(e),
                marks(i),
                if equivalent { "yes" } else { "NO" }.to_owned(),
            ]);
        }
        table.to_string()
    }

    /// Renders the Fig. 2 methodology view for one use case on one
    /// version: the traditional path vs the injection path. A key whose
    /// cells disagree says in how many of them each outcome happened.
    pub fn render_fig2(&self, use_case: &str, version: XenVersion) -> String {
        let mut out = format!("FIG. 2: methodology paths for {use_case} on Xen {version}\n");
        for (mode, label) in [
            (Mode::Exploit, "traditional: attack -> vulnerability -> intrusion"),
            (Mode::Injection, "injection:   intrusion injector (intrusion model)"),
        ] {
            let Some(s) = self.key(use_case, version, mode) else { continue };
            let n = s.cells;
            let state = match s.erroneous_states {
                0 => "not induced".to_owned(),
                k if k == n => "induced".to_owned(),
                k => format!("induced in {k}/{n}"),
            };
            let terminal = match (s.violated, s.handled) {
                (v, _) if v == n => "security violation".to_owned(),
                (_, h) if h == n => "erroneous state handled".to_owned(),
                (0, 0) => "no erroneous state".to_owned(),
                (v, h) => format!("security violation in {v}/{n}, handled in {h}/{n}"),
            };
            out.push_str(&format!("  {label} -> erroneous state: {state} -> {terminal}\n"));
        }
        out
    }

    /// Renders the per-key summary table: every grid key's counts.
    pub fn render_keys(&self) -> String {
        let mut table = TextTable::new([
            "use case / version / mode",
            "cells",
            "err. state",
            "violated",
            "handled",
            "degraded",
        ])
        .title("streamed campaign summary (aggregates per grid key)");
        for (key, s) in &self.by_key {
            table.row([
                key.clone(),
                s.cells.to_string(),
                s.erroneous_states.to_string(),
                s.violated.to_string(),
                s.handled.to_string(),
                s.degraded.to_string(),
            ]);
        }
        table.to_string()
    }
}

/// Run-shape measurements of one streaming execution. Deliberately kept
/// outside [`StreamReport`]: all of this is schedule- and wall-clock
/// dependent, and determinism diffs compare reports only.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StreamRunStats {
    /// Worker threads used.
    pub workers: u64,
    /// End-to-end elapsed time, µs.
    pub elapsed_us: u64,
    /// Cells this run completed per second of elapsed time; a resumed
    /// run does not count the cells recovered from its journal.
    pub cells_per_sec: f64,
    /// Time spent merging per-worker partial reports, µs.
    pub merge_us: u64,
}

/// What a streaming run returns: the mergeable report plus the
/// run-shape stats.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StreamOutcome {
    /// The deterministic, mergeable assessment report.
    pub report: StreamReport,
    /// Schedule-dependent measurements of this particular run.
    pub stats: StreamRunStats,
}

/// Per-worker raw fold state: full histograms (not summaries) so the
/// final merge is exact, plus the worker's first slot so partial folds
/// merge in a deterministic order.
///
/// Serializable because checkpointing persists each worker's cumulative
/// fold — the round trip is lossless, so a resumed campaign folds the
/// recovered state exactly as if the cells had just run.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub(crate) struct PartialFold {
    first_slot: Option<u64>,
    report: StreamReport,
    phases: PhaseHistograms,
}

/// The six per-phase histograms (completed/degraded × boot/inject/
/// monitor) accumulated in full resolution during a streaming run.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub(crate) struct PhaseHistograms {
    pub(crate) boot_completed: Histogram,
    pub(crate) boot_degraded: Histogram,
    pub(crate) inject_completed: Histogram,
    pub(crate) inject_degraded: Histogram,
    pub(crate) monitor_completed: Histogram,
    pub(crate) monitor_degraded: Histogram,
}

impl PhaseHistograms {
    fn merge(&mut self, other: &PhaseHistograms) {
        self.boot_completed.merge(&other.boot_completed);
        self.boot_degraded.merge(&other.boot_degraded);
        self.inject_completed.merge(&other.inject_completed);
        self.inject_degraded.merge(&other.inject_degraded);
        self.monitor_completed.merge(&other.monitor_completed);
        self.monitor_degraded.merge(&other.monitor_degraded);
    }

    fn breakdown(&self) -> LatencyBreakdown {
        LatencyBreakdown {
            boot: PhaseLatency {
                completed: self.boot_completed.summary(),
                degraded: self.boot_degraded.summary(),
            },
            inject: PhaseLatency {
                completed: self.inject_completed.summary(),
                degraded: self.inject_degraded.summary(),
            },
            monitor: PhaseLatency {
                completed: self.monitor_completed.summary(),
                degraded: self.monitor_degraded.summary(),
            },
        }
    }

    /// Named histograms in registry naming, for the metrics fold.
    pub(crate) fn named(&self) -> [(&'static str, &Histogram); 6] {
        [
            ("campaign.boot_us.completed", &self.boot_completed),
            ("campaign.boot_us.degraded", &self.boot_degraded),
            ("campaign.inject_us.completed", &self.inject_completed),
            ("campaign.inject_us.degraded", &self.inject_degraded),
            ("campaign.monitor_us.completed", &self.monitor_completed),
            ("campaign.monitor_us.degraded", &self.monitor_degraded),
        ]
    }
}

impl PartialFold {
    /// Folds one finished cell, looking its key up by name, per cell:
    /// the reference the index-keyed fold workers run
    /// ([`PartialFold::fold_totals`] and [`PartialFold::name_keys`]) is
    /// tested against.
    #[cfg(test)]
    pub(crate) fn fold(&mut self, spec: &CellSpec, cell: &CellResult) {
        self.fold_totals(spec, cell);
        let key = grid_key(&cell.use_case, cell.version, cell.mode);
        self.report.by_key.entry(key).or_default().tally(cell);
    }

    /// Folds everything of one finished cell but its `by_key` entry.
    pub(crate) fn fold_totals(&mut self, spec: &CellSpec, cell: &CellResult) {
        if self.first_slot.is_none() {
            self.first_slot = Some(spec.slot);
        }
        let r = &mut self.report;
        let degraded = cell.degraded();
        r.cells += 1;
        if degraded {
            r.degraded += 1;
            r.degraded_slots.insert(
                spec.slot,
                DegradedSlot {
                    use_case: cell.use_case.to_string(),
                    version: cell.version,
                    mode: cell.mode,
                    trial: spec.trial,
                    outcome: cell.outcome.clone(),
                    error: cell.error.clone(),
                },
            );
        } else {
            r.completed += 1;
        }
        if cell.erroneous_state {
            r.erroneous_states += 1;
        }
        if cell.violated() {
            r.violated_cells += 1;
        }
        r.violations += cell.violations.len() as u64;
        if cell.handled {
            r.handled += 1;
        }
        match &cell.outcome {
            CellOutcome::BootFailed => r.boot_failed += 1,
            CellOutcome::Crashed { .. } => r.crashed += 1,
            CellOutcome::Completed => {}
        }
        r.hypercalls += cell.hypercalls;
        r.wall_time_us += cell.wall_time_us;
        r.frames_copied += cell.snapshot.frames_copied;
        let (boot, inject, monitor) = if degraded {
            (&mut self.phases.boot_degraded, &mut self.phases.inject_degraded, &mut self.phases.monitor_degraded)
        } else {
            (&mut self.phases.boot_completed, &mut self.phases.inject_completed, &mut self.phases.monitor_completed)
        };
        if let Some(v) = cell.phase_us.boot_us {
            boot.record(v);
        }
        if let Some(v) = cell.phase_us.inject_us {
            inject.record(v);
        }
        if let Some(v) = cell.phase_us.monitor_us {
            monitor.record(v);
        }
    }

    /// Adds per-key tallies kept by key index to `by_key`: `keys[i]` is
    /// named `names[i]` ([`SpecGrid::key_names`]). Keys no cell
    /// reached stay out.
    pub(crate) fn name_keys(&mut self, keys: &[KeySummary], names: &[String]) {
        for (summary, name) in keys.iter().zip(names).filter(|(s, _)| s.cells > 0) {
            self.report.by_key.entry(name.clone()).or_default().absorb(summary);
        }
    }

    /// Cells of this fold that completed cleanly.
    pub(crate) fn completed(&self) -> u64 {
        self.report.completed
    }

    /// Merges worker folds into one, absorbing them in first-slot order.
    /// All aggregates commute, so the order is for reproducibility of
    /// intermediate states, not correctness.
    pub(crate) fn merge_in_slot_order(mut parts: Vec<PartialFold>) -> PartialFold {
        parts.sort_by_key(|fold| fold.first_slot.unwrap_or(u64::MAX));
        let mut whole = PartialFold::default();
        for part in &parts {
            whole.absorb(part);
        }
        whole
    }

    /// Absorbs another fold (all aggregates commute; ordering is only
    /// for reproducibility of intermediate states).
    pub(crate) fn absorb(&mut self, other: &PartialFold) {
        if self.first_slot.is_none() {
            self.first_slot = other.first_slot;
        }
        self.report = self.report.merge(&other.report);
        self.phases.merge(&other.phases);
    }

    /// Finalizes into the report (with exact latency summaries) and the
    /// raw histograms for the metrics fold.
    pub(crate) fn finish(mut self) -> (StreamReport, PhaseHistograms) {
        self.report.latency = self.phases.breakdown();
        (self.report, self.phases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A grid of `use_cases` use cases named `uc0`, `uc1`, ….
    fn spec_grid(use_cases: usize, versions: &[XenVersion], modes: &[Mode], trials: u64) -> SpecGrid {
        SpecGrid {
            use_cases: (0..use_cases).map(|i| format!("uc{i}")).collect(),
            versions: versions.to_vec(),
            modes: modes.to_vec(),
            trials,
        }
    }

    fn grid() -> SpecGrid {
        spec_grid(2, &[XenVersion::V4_6, XenVersion::V4_13], &[Mode::Exploit, Mode::Injection], 3)
    }

    #[test]
    fn grid_len_and_decode_round_trip() {
        let g = grid();
        assert_eq!(g.len(), 2 * 2 * 2 * 3);
        for (i, spec) in g.iter().enumerate() {
            assert_eq!(spec.slot, i as u64);
            assert_eq!(g.decode(spec.slot), Some(spec));
        }
        assert_eq!(g.decode(g.len()), None);
        // Slot order is use-case-major, trial fastest-varying.
        let first = g.decode(0).unwrap();
        assert_eq!((first.use_case, first.trial), (0, 0));
        let second = g.decode(1).unwrap();
        assert_eq!((second.use_case, second.trial), (0, 1));
        assert_eq!(second.version, first.version);
        let last = g.decode(g.len() - 1).unwrap();
        assert_eq!((last.use_case, last.trial), (1, 2));
    }

    #[test]
    fn trials_one_matches_classic_work_order() {
        let g = spec_grid(2, &[XenVersion::V4_6, XenVersion::V4_8], &[Mode::Exploit, Mode::Injection], 1);
        let streamed: Vec<(usize, XenVersion, Mode)> =
            g.iter().map(|s| (s.use_case, s.version, s.mode)).collect();
        let mut classic = Vec::new();
        for uc in 0..2 {
            for &version in &[XenVersion::V4_6, XenVersion::V4_8] {
                for &mode in &[Mode::Exploit, Mode::Injection] {
                    classic.push((uc, version, mode));
                }
            }
        }
        assert_eq!(streamed, classic);
    }

    #[test]
    fn shards_partition_the_grid_exactly() {
        let g = grid();
        for n in [1u64, 2, 3, 5, 7] {
            let mut seen = Vec::new();
            let mut total = 0;
            for i in 0..n {
                let shard = Some(Shard::new(i, n).unwrap());
                let slots: Vec<u64> = g.shard_iter(shard).map(|s| s.slot).collect();
                assert_eq!(slots.len() as u64, g.shard_len(shard));
                total += slots.len();
                seen.extend(slots);
            }
            seen.sort_unstable();
            assert_eq!(total as u64, g.len(), "{n} shards must cover the grid");
            assert_eq!(seen, (0..g.len()).collect::<Vec<_>>(), "no overlap, no gap");
        }
    }

    #[test]
    fn shard_parse_and_validate() {
        assert_eq!(Shard::parse("0/2").unwrap(), Shard { index: 0, count: 2 });
        assert_eq!(Shard::parse("4/5").unwrap().to_string(), "4/5");
        assert!(Shard::parse("2/2").is_err());
        assert!(Shard::parse("1").is_err());
        assert!(Shard::parse("a/b").is_err());
        assert!(Shard::new(0, 0).is_err());
    }

    #[test]
    fn a_report_with_an_invalid_coverage_shard_is_refused() {
        let json = StreamReport::default().to_json().unwrap();
        for (coverage, why) in [
            (r#"[{"index":0,"count":0}]"#, "shard count must be at least 1"),
            (r#"[{"index":7,"count":2}]"#, "shard index 7 out of range for 2 shards"),
        ] {
            let text = json.replace(r#""coverage": []"#, &format!(r#""coverage": {coverage}"#));
            let err = StreamReport::from_json(&text).unwrap_err();
            assert_eq!(err.to_string(), format!("bad coverage shard: {why}"));
        }
        let text = json.replace(r#""coverage": []"#, r#""coverage": [{"index":1,"count":2}]"#);
        assert_eq!(StreamReport::from_json(&text).unwrap().coverage, [Shard::new(1, 2).unwrap()]);
    }

    #[test]
    fn empty_grid() {
        let g = spec_grid(0, &[XenVersion::V4_6], &[Mode::Exploit], 1);
        assert!(g.is_empty());
        assert_eq!(g.iter().count(), 0);
        assert_eq!(g.shard_len(Some(Shard { index: 0, count: 2 })), 0);
    }

    #[test]
    fn claims_hand_out_every_shard_slot_exactly_once() {
        let b = CLAIM_BATCH as usize;
        let shards = [None, Some(Shard { index: 0, count: 3 }), Some(Shard { index: 2, count: 3 })];
        for len in [0, 1, b - 1, b, b + 1] {
            let g = spec_grid(len, &[XenVersion::V4_6], &[Mode::Exploit], 1);
            for shard in shards {
                let expected: Vec<u64> = g.shard_iter(shard).map(|s| s.slot).collect();
                // Every third slot counts as already done, as a resumed
                // checkpoint session would report it.
                let done = |slot: u64| slot % 3 == 1;
                for threads in [1, 2, 8] {
                    let claims = SlotClaims::new(g.shard_len(shard), threads);
                    let ran = std::sync::Mutex::new(Vec::new());
                    let skipped = AtomicU64::new(0);
                    std::thread::scope(|scope| {
                        for _ in 0..threads {
                            scope.spawn(|| {
                                let mut mine = Vec::new();
                                claims.drain(|i| {
                                    let spec = g.shard_decode(shard, i).unwrap();
                                    if done(spec.slot) {
                                        skipped.fetch_add(1, Ordering::Relaxed);
                                    } else {
                                        mine.push(spec.slot);
                                    }
                                });
                                ran.lock().unwrap().extend(mine);
                            });
                        }
                    });
                    let mut ran = ran.into_inner().unwrap();
                    ran.sort_unstable();
                    let want: Vec<u64> = expected.iter().copied().filter(|&s| !done(s)).collect();
                    let case = format!("len {len}, shard {shard:?}, {threads} threads");
                    assert_eq!(ran, want, "{case}: each live slot runs exactly once");
                    assert_eq!(
                        skipped.into_inner(),
                        expected.len() as u64 - want.len() as u64,
                        "{case}: done slots are skipped"
                    );
                    assert_eq!(claims.claimed(), g.shard_len(shard), "{case}: gauge clamps");
                    assert_eq!(claims.claim(), None, "{case}: exhausted");
                }
            }
        }
    }

    #[test]
    fn merge_is_associative_and_normalizes() {
        let mut fold_a = PartialFold::default();
        let mut fold_b = PartialFold::default();
        let g = grid();
        // Synthesize folds directly from specs (no worlds needed).
        for spec in g.iter() {
            let cell = CellResult {
                use_case: ["uc0", "uc1"][spec.use_case].into(),
                version: spec.version,
                mode: spec.mode,
                erroneous_state: spec.trial % 2 == 0,
                violations: Vec::new(),
                handled: spec.trial % 2 == 0,
                notes: Vec::new(),
                error: None,
                outcome: CellOutcome::Completed,
                wall_time_us: 10 + spec.slot,
                hypercalls: 3,
                phase_us: crate::campaign::PhaseTimings {
                    boot_us: Some(1),
                    inject_us: Some(2),
                    monitor_us: Some(3),
                },
                snapshot: hvsim::SnapshotStats::default(),
            };
            if spec.slot % 2 == 0 {
                fold_a.fold(&spec, &cell);
            } else {
                fold_b.fold(&spec, &cell);
            }
        }
        let (a, _) = {
            let mut whole = PartialFold::default();
            whole.absorb(&fold_a);
            whole.absorb(&fold_b);
            whole.finish()
        };
        let (ra, _) = fold_a.finish();
        let (rb, _) = fold_b.finish();
        assert_eq!(ra.merge(&rb).normalized(), a.normalized());
        assert_eq!(rb.merge(&ra).normalized(), a.normalized(), "merge commutes");
        assert_eq!(a.cells, g.len());
        assert_eq!(a.hypercalls, 3 * g.len());
        let json = a.normalized().to_json().unwrap();
        assert_eq!(StreamReport::from_json(&json).unwrap(), a.normalized());
    }

    #[test]
    fn degraded_cells_are_retained_by_slot() {
        let g = grid();
        let spec = g.decode(5).unwrap();
        let cell = CellResult {
            use_case: "uc".into(),
            version: spec.version,
            mode: spec.mode,
            erroneous_state: false,
            violations: Vec::new(),
            handled: false,
            notes: Vec::new(),
            error: Some(CampaignError::Boot { message: "-ENOMEM".into() }),
            outcome: CellOutcome::BootFailed,
            wall_time_us: 5,
            hypercalls: 0,
            phase_us: crate::campaign::PhaseTimings::default(),
            snapshot: hvsim::SnapshotStats::default(),
        };
        let mut fold = PartialFold::default();
        fold.fold(&spec, &cell);
        let (report, _) = fold.finish();
        assert!(report.is_degraded());
        assert_eq!(report.boot_failed, 1);
        let slot = report.degraded_slots.get(&5).unwrap();
        assert_eq!(slot.outcome, CellOutcome::BootFailed);
        assert_eq!(slot.trial, spec.trial);
        assert!(report.render_keys().contains("uc/"));
    }

    #[test]
    fn disagreeing_trials_render_as_k_of_n() {
        let versions = XenVersion::ALL;
        let modes = [Mode::Exploit, Mode::Injection];
        let g = SpecGrid {
            use_cases: vec!["uc".into()],
            versions: versions.to_vec(),
            modes: modes.to_vec(),
            trials: 3,
        };
        let mut fold = PartialFold::default();
        for spec in g.iter() {
            // Every trial induces the state. On 4.13 every trial handles
            // it; elsewhere trial 0 violates and trials 1 and 2 handle it.
            let violated = spec.version != XenVersion::V4_13 && spec.trial == 0;
            let violations = if violated {
                vec![crate::SecurityViolation::HypervisorCrash { message: "x".into() }]
            } else {
                Vec::new()
            };
            let cell = CellResult {
                use_case: "uc".into(),
                version: spec.version,
                mode: spec.mode,
                erroneous_state: true,
                violations,
                handled: !violated,
                notes: Vec::new(),
                error: None,
                outcome: CellOutcome::Completed,
                wall_time_us: 0,
                hypercalls: 1,
                phase_us: crate::campaign::PhaseTimings::default(),
                snapshot: hvsim::SnapshotStats::default(),
            };
            fold.fold(&spec, &cell);
        }
        let (mut report, _) = fold.finish();
        report.grid = g;
        let row = |table: String| -> Vec<String> {
            let line = table.lines().find(|l| l.starts_with("| uc ")).unwrap().to_owned();
            line.split('|').map(|c| c.trim().to_owned()).filter(|c| !c.is_empty()).collect()
        };
        assert_eq!(row(report.render_table3()), ["uc", CHECK, "1/3", CHECK, SHIELD]);
        let fig4 = row(report.render_fig4());
        assert_eq!(fig4, ["uc", "\u{2713}/1/3", "\u{2713}/1/3", "yes"]);
        let fig2 = report.render_fig2("uc", XenVersion::V4_6);
        assert!(fig2.contains("induced -> security violation in 1/3, handled in 2/3"), "{fig2}");
        let fig2 = report.render_fig2("uc", XenVersion::V4_13);
        assert!(fig2.contains("induced -> erroneous state handled"), "{fig2}");
    }
}
