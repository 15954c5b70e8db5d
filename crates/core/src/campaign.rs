//! The assessment campaign runner: every use case × version × mode, with
//! monitoring — the machinery behind the paper's Tables II/III and
//! Figs. 2/4.

use crate::checkpoint::{CheckpointSession, JournalHeader, FOLD_INTERVAL};
use crate::error::{contain, CampaignError, CellId, CellOutcome, CheckpointError};
use crate::injector::ArbitraryAccessInjector;
use crate::monitor::SecurityViolation;
use crate::obs_bridge;
use crate::scenario::{Mode, Note, UseCase};
use crate::stream::{
    CellSpec, KeySummary, PartialFold, Shard, SlotClaims, SpecGrid, StreamOutcome, StreamRunStats,
};
use crate::telemetry::{self, Telemetry};
use guestos::{BootError, World, WorldBuilder};
use hvsim::{SnapshotStats, XenVersion};
use hvsim_obs::{MetricsRegistry, MetricsTimeline, TraceCtx, Tracer};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Builds a fresh world for one campaign cell: `(version,
/// injector_enabled)` — the paper keeps everything else identical across
/// runs ("the build and experimental environment are kept the same",
/// §V-B). Shared across worker threads, hence `Arc + Send + Sync`.
/// Boot failures are data: the campaign records them per cell instead of
/// aborting.
pub type WorldFactory = Arc<dyn Fn(XenVersion, bool) -> Result<World, BootError> + Send + Sync>;

/// The default worker count: one per available hardware thread.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The world used throughout the evaluation: privileged dom0 (`xen3`)
/// plus guests `xen2` and `guest03`; `guest03` is the compromised guest
/// the exploits run in.
///
/// # Errors
///
/// Propagates [`BootError`] from world construction.
pub fn standard_world(version: XenVersion, injector: bool) -> Result<World, BootError> {
    WorldBuilder::new(version)
        .injector(injector)
        .guest("xen2", 64)
        .guest("guest03", 64)
        .build()
}

/// Name of the attacker guest in the standard world.
pub const ATTACKER_GUEST: &str = "guest03";

/// Wall-clock time spent in each cell phase, in microseconds. `None`
/// means the phase was never reached; a phase that crashed records the
/// time it consumed before dying, so a degraded cell is attributable to
/// boot vs inject vs monitor. Which phases are `Some`
/// is deterministic for a fixed workload; the durations themselves are
/// wall-clock and are zeroed by [`CampaignReport::normalized`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// World acquisition (snapshot clone or factory boot).
    pub boot_us: Option<u64>,
    /// The scenario body (exploit or injection path).
    pub inject_us: Option<u64>,
    /// Monitoring for security violations.
    pub monitor_us: Option<u64>,
}

impl PhaseTimings {
    /// The timings with every recorded duration zeroed, preserving
    /// which phases ran.
    #[must_use]
    pub fn normalized(self) -> Self {
        Self {
            boot_us: self.boot_us.map(|_| 0),
            inject_us: self.inject_us.map(|_| 0),
            monitor_us: self.monitor_us.map(|_| 0),
        }
    }
}

/// One campaign cell: a use case run in one mode on one version.
#[derive(Clone, Debug, PartialEq)]
pub struct CellResult {
    /// Use-case name (e.g. `XSA-212-crash`), borrowed from the use case.
    pub use_case: Cow<'static, str>,
    /// Version under test.
    pub version: XenVersion,
    /// Exploit or injection.
    pub mode: Mode,
    /// Whether the erroneous state was induced.
    pub erroneous_state: bool,
    /// Violations observed afterwards.
    pub violations: Vec<SecurityViolation>,
    /// State induced but no violation — the system *handled* it (the
    /// shield of Table III).
    pub handled: bool,
    /// The run's log.
    pub notes: Vec<Note>,
    /// What went wrong, as the typed campaign taxonomy: a failed
    /// injection attempt (assessment data), or a harness failure (boot,
    /// monitor, crash).
    pub error: Option<CampaignError>,
    /// How far the cell got: completed, boot-failed, or crashed.
    pub outcome: CellOutcome,
    /// Wall-clock time spent on this cell (world acquisition + run +
    /// monitoring), in microseconds. Non-deterministic;
    /// [`CampaignReport::normalized`] zeroes it for run-to-run
    /// comparisons.
    pub wall_time_us: u64,
    /// Hypercalls executed while running this cell (deterministic for a
    /// given configuration). Kept for report compatibility; campaign
    /// totals are also published as the `campaign.hypercalls` registry
    /// counter when metrics are enabled (see [`Campaign::metrics`]).
    pub hypercalls: u64,
    /// Per-phase wall-clock breakdown — recorded for degraded cells
    /// too, so a crash is attributable to a phase.
    pub phase_us: PhaseTimings,
    /// Copy-on-write accounting of the cell's world at collection time.
    /// `frames_copied` depends on whether the world was cloned or
    /// freshly booted, so the whole record is zeroed by
    /// [`CampaignReport::normalized`].
    pub snapshot: SnapshotStats,
}

impl CellResult {
    /// `true` if at least one security violation was observed.
    pub fn violated(&self) -> bool {
        !self.violations.is_empty()
    }

    /// `true` when the harness (not the system under test) degraded on
    /// this cell: it crashed, never booted, or lost part of its
    /// observation. Failed injection attempts are *not* degradation
    /// — they are the paper's fixed-version data points.
    pub fn degraded(&self) -> bool {
        self.outcome.is_degraded()
            || self.error.as_ref().is_some_and(CampaignError::is_harness_failure)
    }
}

/// The per-cell result list of a collecting run
/// ([`Campaign::run_with_jobs`]): the security benchmark reads every
/// cell. Every rendered artefact reads the streamed [`StreamReport`](crate::StreamReport)
/// instead.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CampaignReport {
    cells: Vec<CellResult>,
}

impl CampaignReport {
    /// Builds a report from pre-computed cells.
    pub fn from_cells(cells: Vec<CellResult>) -> Self {
        Self { cells }
    }

    /// All cells.
    pub fn cells(&self) -> &[CellResult] {
        &self.cells
    }

    /// Looks up one cell.
    pub fn cell(&self, use_case: &str, version: XenVersion, mode: Mode) -> Option<&CellResult> {
        self.cells
            .iter()
            .find(|c| c.use_case == use_case && c.version == version && c.mode == mode)
    }

    /// A copy with every wall-clock timing zeroed — per-cell totals and
    /// per-phase breakdowns. Timing is the only non-deterministic part
    /// of a report; the normalized form is identical across runs and
    /// worker counts for the same configuration.
    #[must_use]
    pub fn normalized(&self) -> Self {
        let mut report = self.clone();
        for cell in &mut report.cells {
            cell.wall_time_us = 0;
            cell.phase_us = cell.phase_us.normalized();
            // COW accounting depends on whether the cell's world was
            // cloned or freshly booted (snapshot reuse); it is not part
            // of the assessment result.
            cell.snapshot = SnapshotStats::default();
        }
        report
    }

    /// `true` when any cell degraded — the CLI maps this to exit code 2.
    pub fn is_degraded(&self) -> bool {
        self.cells.iter().any(CellResult::degraded)
    }

    /// `true` when any cell observed a security violation — the CLI
    /// maps this to exit code 1 (when nothing degraded).
    pub fn has_violations(&self) -> bool {
        self.cells.iter().any(CellResult::violated)
    }
}

/// The campaign: use cases × versions × modes. Every setting has one
/// default, set by [`Campaign::new`]; the builder methods change them.
pub struct Campaign {
    use_cases: Vec<Box<dyn UseCase>>,
    /// The cell grid; its use-case axis names `use_cases`.
    grid: SpecGrid,
    factory: WorldFactory,
    jobs: Option<usize>,
    reuse_snapshots: bool,
    shard: Option<Shard>,
    progress: bool,
    tracer: Tracer,
    metrics: Option<MetricsRegistry>,
    timeline: Option<MetricsTimeline>,
}

impl Campaign {
    /// A campaign over all three versions and both modes, using the
    /// standard world, snapshot reuse, and one worker per hardware
    /// thread: one trial per key, the whole grid. Tracing,
    /// metrics and telemetry are off until attached.
    pub fn new() -> Self {
        Self {
            use_cases: Vec::new(),
            grid: SpecGrid {
                use_cases: Vec::new(),
                versions: XenVersion::ALL.to_vec(),
                modes: vec![Mode::Exploit, Mode::Injection],
                trials: 1,
            },
            factory: Arc::new(standard_world),
            jobs: None,
            reuse_snapshots: true,
            shard: None,
            progress: false,
            tracer: Tracer::disabled(),
            metrics: None,
            timeline: None,
        }
    }

    /// Adds a use case.
    #[must_use]
    pub fn with_use_case(mut self, uc: Box<dyn UseCase>) -> Self {
        self.grid.use_cases.push(uc.name().to_owned());
        self.use_cases.push(uc);
        self
    }

    /// Restricts the versions under test.
    #[must_use]
    pub fn versions(mut self, versions: &[XenVersion]) -> Self {
        self.grid.versions = versions.to_vec();
        self
    }

    /// Restricts the modes.
    #[must_use]
    pub fn modes(mut self, modes: &[Mode]) -> Self {
        self.grid.modes = modes.to_vec();
        self
    }

    /// Replaces the world factory.
    #[must_use]
    pub fn world_factory(mut self, factory: WorldFactory) -> Self {
        self.factory = factory;
        self
    }

    /// Sets the worker count used by [`Campaign::run_streaming`] and
    /// the checkpointed runs. `0` or unset means one worker per
    /// hardware thread.
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = (jobs > 0).then_some(jobs);
        self
    }

    /// Enables or disables world-snapshot reuse. When enabled (the
    /// default), each `(version, injector_enabled)` base world boots
    /// once and every cell starts from a copy of it (a worker's world,
    /// reset to the base before each cell); when disabled,
    /// every cell boots its own world through the factory, like the
    /// paper's original setup. Booting is deterministic, so both paths
    /// produce identical reports.
    #[must_use]
    pub fn reuse_snapshots(mut self, reuse: bool) -> Self {
        self.reuse_snapshots = reuse;
        self
    }

    /// Sets the trials per `(use_case, version, mode)` key — the
    /// parameter-grid axis of the campaign grid. Each trial is its own
    /// cell; use cases see the trial index via
    /// [`UseCase::run_injection_trial`].
    /// `0` is treated as 1.
    #[must_use]
    pub fn trials(mut self, trials: u64) -> Self {
        self.grid.trials = trials.max(1);
        self
    }

    /// Restricts the run to one shard of the grid (slots congruent to
    /// `index` modulo `count`). Merging the `n` shard reports
    /// reproduces the unsharded report byte-for-byte after
    /// normalization.
    #[must_use]
    pub fn shard(mut self, shard: Shard) -> Self {
        self.shard = Some(shard);
        self
    }

    /// Redraws a live progress line (done/total, cells/s, ETA, degraded
    /// count) on stderr every sampling tick.
    #[must_use]
    pub fn progress(mut self, enabled: bool) -> Self {
        self.progress = enabled;
        self
    }

    /// Attaches a timeline the supervisor pushes one live sample into
    /// every 200 ms and once after the last cell; drain it
    /// after the run (see [`MetricsTimeline::to_jsonl`]).
    #[must_use]
    pub fn timeline(mut self, timeline: MetricsTimeline) -> Self {
        self.timeline = Some(timeline);
        self
    }

    /// The campaign's use cases, in grid order.
    pub fn use_cases(&self) -> &[Box<dyn UseCase>] {
        &self.use_cases
    }

    /// The campaign's cell grid: use cases × versions × modes × trials,
    /// and its identity in streamed reports and checkpoint journals.
    pub fn grid(&self) -> &SpecGrid {
        &self.grid
    }

    /// The identity a checkpoint journal of this campaign carries: its
    /// grid and shard.
    fn journal_header(&self) -> JournalHeader {
        JournalHeader { grid: self.grid.clone(), shard: self.shard }
    }

    /// Attaches a tracer: campaign setup, every cell phase, guest boot
    /// stages and hypervisor audit events are recorded as structured
    /// trace events (drain the tracer after the run). A disabled tracer
    /// (the default) costs one branch per instrumentation point.
    #[must_use]
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Attaches a metrics registry: at the end of a run the campaign
    /// folds `campaign.*` counters and per-phase latency histograms
    /// into it. The registry is the one place a run's metrics live.
    #[must_use]
    pub fn metrics(mut self, registry: MetricsRegistry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Runs every cell on exactly `jobs` worker threads, keeping every
    /// [`CellResult`]. Workers tag each cell with its shard-local index
    /// and the cells are put in index order after the join, so the
    /// report's cell order — and, because each cell starts from a
    /// pristine world, the cells themselves — are identical for every
    /// worker count. It runs the worker loop of
    /// [`Campaign::run_streaming_with_jobs`], so both degrade the same
    /// slots. With a metrics registry attached, each worker also
    /// folds its cells' totals as a streamed run's workers do, and the
    /// run publishes the merged fold; without one, nothing is folded.
    pub fn run_with_jobs(&self, jobs: usize) -> CampaignReport {
        let sinks = self.run_workers(jobs, None, |_| Collected {
            cells: Vec::new(),
            fold: self.metrics.is_some().then(PartialFold::default),
        });
        if sinks.is_empty() {
            return CampaignReport::default();
        }
        // Cells are boxed while they wait, so the tagged list stays
        // small and the report's vector is the only other copy.
        let mut tagged: Vec<(u64, Box<CellResult>)> = Vec::new();
        let mut folds = Vec::new();
        for sink in sinks {
            tagged.extend(sink.cells);
            folds.extend(sink.fold);
        }
        tagged.sort_unstable_by_key(|&(index, _)| index);
        let cells: Vec<CellResult> = tagged.into_iter().map(|(_, cell)| *cell).collect();
        if let Some(registry) = &self.metrics {
            let (report, phases) = PartialFold::merge_in_slot_order(folds).finish();
            obs_bridge::record_fold_metrics(&report, &phases, registry);
        }
        CampaignReport { cells }
    }

    /// Whether this run needs the telemetry supervisor thread.
    fn supervisor_wanted(&self) -> bool {
        self.progress || self.timeline.is_some()
    }

    /// The run's telemetry supervisor.
    fn supervisor(&self) -> telemetry::Supervisor<'_> {
        telemetry::Supervisor {
            progress: self.progress,
            timeline: self.timeline.as_ref(),
            registry: self.metrics.as_ref(),
        }
    }

    /// Runs every cell of the (possibly sharded) grid with the
    /// configured worker count — the campaign's default engine. Exploit
    /// cells run on a stock build, injection cells on an injector build,
    /// exactly like the paper's setup; each cell gets a pristine world
    /// (a snapshot clone, or a fresh boot when snapshot reuse is off),
    /// runs its scenario, then monitors for violations.
    ///
    /// The run is fail-soft: a panicking world, injector, or monitor, or
    /// a failed boot degrades *that cell* (recorded in the report's
    /// `degraded_slots`) and the rest of the campaign completes. See [`Campaign::run_streaming_with_jobs`].
    pub fn run_streaming(&self) -> StreamOutcome {
        self.run_streaming_with_jobs(self.jobs.unwrap_or_else(default_jobs))
    }

    /// Streams the grid on exactly `jobs` workers with one cell per
    /// worker resident: each worker claims batches of slots, decodes
    /// each [`CellSpec`] from its index, folds the finished cell into a
    /// per-worker partial report and drops it, and the partials merge —
    /// ordered by first slot — into one [`StreamReport`](crate::StreamReport).
    ///
    /// Every aggregate in the report is a commutative monoid over
    /// per-cell values that depend only on the cell's spec, so the
    /// normalized report is byte-identical for every worker count and
    /// sharding.
    pub fn run_streaming_with_jobs(&self, jobs: usize) -> StreamOutcome {
        self.stream_impl(jobs, None)
    }

    /// Streams the grid like [`Campaign::run_streaming`], journaling
    /// durable progress to `path` so a killed run can
    /// [`Campaign::resume`] and still produce a byte-identical merged
    /// report. The journal is created fresh (any existing file is
    /// truncated) and its header is made durable before any cell runs.
    /// Workers queue their fold records for one writer thread that
    /// syncs them in groups; by the time this returns, every record is
    /// appended and synced.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the journal cannot be created — a
    /// checkpointed campaign refuses to run without durability. Journal
    /// errors *after* startup are fail-soft: journaling stops (counted
    /// in `campaign.checkpoint.write_errors`) and the run completes.
    pub fn run_streaming_checkpointed(&self, path: &Path) -> Result<StreamOutcome, CheckpointError> {
        let session = CheckpointSession::create(path, self.journal_header())?;
        Ok(self.stream_impl(self.jobs.unwrap_or_else(default_jobs), Some(session)))
    }

    /// Resumes a checkpointed streaming run from its journal: reloads
    /// the valid prefix (truncating a torn tail), runs only the slots
    /// no durable fold record covers, and merges the recovered
    /// folds with the fresh ones — so the final normalized report is
    /// byte-identical to an uninterrupted run of the same campaign.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] when the journal is unreadable, is not a
    /// journal, or was written by a different campaign grid or shard.
    pub fn resume(&self, path: &Path) -> Result<StreamOutcome, CheckpointError> {
        let session = CheckpointSession::resume(path, &self.journal_header())?;
        Ok(self.stream_impl(self.jobs.unwrap_or_else(default_jobs), Some(session)))
    }

    /// The streaming engine body shared by plain, checkpointed, and
    /// resumed runs: the worker loop with a [`FoldSink`] per worker,
    /// then the ordered merge of the fresh and recovered folds.
    fn stream_impl(&self, jobs: usize, mut session: Option<CheckpointSession>) -> StreamOutcome {
        let run_start = Instant::now();
        let first_worker = session.as_ref().map_or(1, |s| s.first_worker);
        let key_names = self.grid.key_names();
        let sinks = self.run_workers(jobs, session.as_ref(), |index| {
            FoldSink::new(session.as_ref(), first_worker + index as u64, &self.grid, &key_names)
        });
        let mut parts: Vec<PartialFold> = sinks.into_iter().map(|sink| sink.fold).collect();
        // Every fold record is appended and synced, and the counters
        // are final, before the merge.
        if let Some(s) = &mut session {
            s.writer.close();
        }
        // A shard with no cells has no parts; its report is still
        // stamped with the grid and coverage, so it merges like any
        // other shard.
        let workers = parts.len() as u64;
        let merge_start = Instant::now();
        // Only the cells this run executed: a resumed run's recovered
        // folds ran in an earlier process.
        let ran: u64 = parts.iter().map(PartialFold::completed).sum();
        if let Some(s) = &mut session {
            parts.append(&mut s.recovered);
        }
        let whole = PartialFold::merge_in_slot_order(parts);
        let merge_us = merge_start.elapsed().as_micros() as u64;
        let (mut report, phases) = whole.finish();
        report.grid = self.grid.clone();
        report.coverage = vec![self.shard.unwrap_or(Shard { index: 0, count: 1 })];
        let elapsed_us = (run_start.elapsed().as_micros() as u64).max(1);
        let stats = StreamRunStats {
            workers,
            elapsed_us,
            cells_per_sec: ran as f64 * 1_000_000.0 / elapsed_us as f64,
            merge_us,
        };
        if let Some(registry) = &self.metrics {
            obs_bridge::record_fold_metrics(&report, &phases, registry);
            registry.add(obs_bridge::M_MERGE_US, merge_us);
            if let Some(s) = &session {
                obs_bridge::record_checkpoint_metrics(
                    &s.writer.counters(),
                    s.resumed_slots(),
                    registry,
                );
            }
        }
        StreamOutcome { report, stats }
    }

    /// The crate's one worker loop, shared by collecting, streamed,
    /// checkpointed and resumed runs and by randomized campaigns
    /// (`RandomizedCampaign` runs as a one-key grid). Workers claim shard-local indices
    /// from one shared counter, decode their slots themselves, run each
    /// cell through [`Campaign::run_slot`], and hand it to their own
    /// sink. With a session, claimed slots already covered by durable
    /// fold records are skipped. Returns the sinks in worker order;
    /// none when the shard has no cells.
    pub(crate) fn run_workers<S: CellSink>(
        &self,
        jobs: usize,
        session: Option<&CheckpointSession>,
        new_sink: impl Fn(usize) -> S + Sync,
    ) -> Vec<S> {
        let grid = &self.grid;
        let shard = self.shard;
        let total = grid.shard_len(shard);
        if total == 0 {
            return Vec::new();
        }
        // Shard 0 of the trace belongs to campaign setup; the cell in
        // grid slot s uses trace shard s + 1. Shard assignment is
        // positional, so the trace's logical structure is independent
        // of the worker count.
        let setup_ctx = self.tracer.ctx(0);
        let _campaign_span = setup_ctx.span("campaign");
        let base_worlds =
            self.reuse_snapshots.then(|| self.boot_base_worlds(&setup_ctx));
        let workers = jobs.max(1).min(usize::try_from(total).unwrap_or(usize::MAX));
        let claims = SlotClaims::new(total, workers);
        // Workers write telemetry only for a supervisor to read.
        let telemetry = self.supervisor_wanted().then(|| {
            let live = total.saturating_sub(session.map_or(0, CheckpointSession::resumed_slots));
            Telemetry::new(live, workers)
        });
        std::thread::scope(|scope| {
            let (claims, new_sink) = (&claims, &new_sink);
            let telemetry = telemetry.as_ref();
            let base_worlds = base_worlds.as_ref();
            let handles: Vec<_> = (0..workers)
                .map(|index| {
                    scope.spawn(move || {
                        let worker_worlds = base_worlds.map(unshared_copy);
                        let base_worlds = worker_worlds.as_ref();
                        // The worker's one cell world, reset per cell.
                        let mut scratch = None;
                        let mut sink = new_sink(index);
                        claims.drain(|i| {
                            let Some(spec) = grid.shard_decode(shard, i) else { return };
                            if session.is_some_and(|s| s.is_done(spec.slot)) {
                                return;
                            }
                            if let Some(t) = telemetry {
                                t.beat(index, spec.slot);
                            }
                            let ctx = self.tracer.ctx(spec.slot + 1);
                            let cell = self.run_slot(&ctx, spec, base_worlds, &mut scratch);
                            if let Some(t) = telemetry {
                                t.cell_done(index, cell.degraded());
                            }
                            sink.push(i, &spec, cell, &ctx);
                        });
                        sink.finish();
                        if let Some(t) = telemetry {
                            t.worker_finished(index);
                        }
                        sink
                    })
                })
                .collect();
            if let Some(telemetry) = telemetry {
                let supervisor = self.supervisor();
                scope.spawn(move || {
                    supervisor.run(telemetry, |values| {
                        values.push(("stream.claimed".to_owned(), claims.claimed()));
                        if let Some(s) = session {
                            let counters = s.writer.counters();
                            values.push(("checkpoint.folds".to_owned(), counters.folds));
                            values.push(("checkpoint.syncs".to_owned(), counters.syncs));
                            values.push(("checkpoint.bytes".to_owned(), counters.bytes));
                        }
                    });
                });
            }
            handles
                .into_iter()
                .map(|handle| handle.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
    }

    /// Re-runs one grid slot on the calling thread exactly as the
    /// campaign runs it — the same contained cell, under the slot's own
    /// trace shard (`slot + 1`). Only the base world the slot needs is
    /// booted, under setup context 0. Every cell is a pure function of
    /// (grid, slot), so with a tracer attached this reproduces a
    /// degraded cell's events on demand. Slots are global: the shard
    /// setting is ignored. Returns `None` past the grid's end.
    pub fn replay(&self, slot: u64) -> Option<CellResult> {
        let spec = self.grid.decode(slot)?;
        let base_worlds = self.reuse_snapshots.then(|| {
            let key = (spec.version, spec.mode == Mode::Injection);
            BaseWorldMap::from([(key, self.boot_base_world(&self.tracer.ctx(0), key))])
        });
        let ctx = self.tracer.ctx(slot + 1);
        Some(self.run_slot(&ctx, spec, base_worlds.as_ref(), &mut None))
    }

    /// Runs one claimed slot, the contained cell, on `scratch`, the
    /// calling worker's cell world. A degraded verdict is a trace point
    /// in the slot's shard.
    fn run_slot(
        &self,
        ctx: &TraceCtx,
        spec: CellSpec,
        base_worlds: Option<&BaseWorldMap>,
        scratch: &mut Option<World>,
    ) -> CellResult {
        let key = (spec.version, spec.mode == Mode::Injection);
        let base = base_worlds.and_then(|worlds| worlds.get(&key));
        let cell = self.run_cell_contained(ctx, &spec, base, scratch);
        if cell.degraded() {
            ctx.point("cell/degraded", 0, || {
                let error = cell.error.as_ref().map_or_else(String::new, ToString::to_string);
                vec![("error".to_owned(), error)]
            });
        }
        cell
    }

    /// Boots every `(version, injector_enabled)` base world the grid
    /// can need, under the setup trace context. A base world that fails
    /// to boot (or panics the factory) poisons only the cells that need
    /// it — the error is cloned into each. The map never changes after
    /// this; each worker resets its cell world from its own unshared
    /// copy.
    fn boot_base_worlds(&self, setup_ctx: &TraceCtx) -> BaseWorldMap {
        let mut worlds = BaseWorldMap::new();
        for &version in &self.grid.versions {
            for &mode in &self.grid.modes {
                let key = (version, mode == Mode::Injection);
                worlds.entry(key).or_insert_with(|| self.boot_base_world(setup_ctx, key));
            }
        }
        worlds
    }

    /// Boots one `(version, injector_enabled)` base world under the
    /// setup trace context.
    fn boot_base_world(
        &self,
        setup_ctx: &TraceCtx,
        (version, injector): (XenVersion, bool),
    ) -> Result<World, CampaignError> {
        let _span = setup_ctx.span_with("campaign/snapshot_boot", || {
            vec![
                ("version".to_owned(), version.to_string()),
                ("injector".to_owned(), injector.to_string()),
            ]
        });
        let world = boot_contained(|| (self.factory)(version, injector));
        if let Ok(world) = &world {
            obs_bridge::bridge_boot_stages(setup_ctx, "campaign/snapshot_boot", world.boot_trace());
        }
        setup_ctx.point("campaign/snapshot_boot/result", 0, || {
            vec![("ok".to_owned(), world.is_ok().to_string())]
        });
        world
    }

    /// Runs one cell on the calling thread with panic containment
    /// around each phase: world acquisition, the scenario body, and
    /// monitoring. Never panics; every failure becomes a typed cell.
    ///
    /// The cell runs on `scratch`, the worker's world: with a base
    /// world, acquisition resets it to the base (`clone_from`, which
    /// undoes the previous cell's writes) or clones the base into it on
    /// the worker's first cell; a fresh boot replaces it. A cell that
    /// panics leaves it mid-cell, which the next reset undoes like any
    /// other write.
    ///
    /// Each phase runs under a trace span and records its wall-clock
    /// duration in the cell's [`PhaseTimings`] — degraded cells too, so
    /// a crash is attributable to the phase that ate the time. Audit
    /// events the cell generated (everything past the acquired world's
    /// baseline) are bridged into the trace before every return.
    fn run_cell_contained(
        &self,
        ctx: &TraceCtx,
        spec: &CellSpec,
        base: Option<&Result<World, CampaignError>>,
        scratch: &mut Option<World>,
    ) -> CellResult {
        let uc = &*self.use_cases[spec.use_case];
        let (version, mode) = (spec.version, spec.mode);
        // One clock chain: each phase ends where the next begins, so the
        // phases tile the cell's wall time from `start` to the end of
        // monitoring.
        let start = Instant::now();
        let mut phases = PhaseTimings::default();
        let _cell_span = ctx.span_with("cell", || {
            vec![
                ("use_case".to_owned(), uc.name().to_owned()),
                ("version".to_owned(), version.to_string()),
                ("mode".to_owned(), mode.to_string()),
            ]
        });
        // Phase 1: world acquisition.
        let boot_span = ctx.span("cell/boot");
        let fresh_boot = base.is_none();
        let world = match base {
            Some(Ok(base)) => reset_contained(scratch, base),
            Some(Err(e)) => Err(e.clone()),
            None => boot_contained(|| (self.factory)(version, mode == Mode::Injection))
                .map(|world| scratch.insert(world)),
        };
        let booted = Instant::now();
        phases.boot_us = Some(micros(start, booted));
        ctx.point("cell/boot/result", 0, || {
            vec![
                ("source".to_owned(), if fresh_boot { "boot" } else { "snapshot" }.to_owned()),
                ("ok".to_owned(), world.is_ok().to_string()),
            ]
        });
        drop(boot_span);
        let world = match world {
            Ok(world) => world,
            Err(error) => {
                let wall = micros(start, booted);
                return self.degraded_cell(uc, version, mode, error, wall, phases);
            }
        };
        if fresh_boot {
            obs_bridge::bridge_boot_stages(ctx, "cell/boot", world.boot_trace());
        }
        let base_hypercalls = world.hv().hypercall_count();
        // Audit events up to here belong to the world's boot (or to the
        // snapshot it was cloned from); everything past this baseline is
        // this cell's doing and gets bridged into its trace shard.
        let audit_baseline = world.hv().audit().events().len();
        let bridge_audit = |world: &World| {
            obs_bridge::bridge_audit(ctx, world.hv().audit().events().skip(audit_baseline));
        };
        let Some(attacker) =
            world.domain_by_name(ATTACKER_GUEST).or_else(|| world.domains().next_back())
        else {
            let error = CampaignError::Boot { message: "world booted with no domains".to_owned() };
            let wall = micros(start, booted);
            return self.degraded_cell(uc, version, mode, error, wall, phases);
        };

        // Phase 2: the scenario body. The world is this worker's alone,
        // so a panicking exploit/injector takes only its own world down,
        // and the next cell's reset undoes whatever it left behind.
        let inject_span = ctx.span("cell/inject");
        let outcome = contain(|| match mode {
            Mode::Exploit => uc.run_exploit_trial(world, attacker, spec.trial),
            Mode::Injection => {
                uc.run_injection_trial(world, attacker, &ArbitraryAccessInjector, spec.trial)
            }
        });
        let injected = Instant::now();
        phases.inject_us = Some(micros(booted, injected));
        drop(inject_span);
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(payload) => {
                let error = CampaignError::HarnessCrash { payload };
                let wall = micros(start, injected);
                bridge_audit(world);
                return self.degraded_cell(uc, version, mode, error, wall, phases);
            }
        };

        // Phase 3: monitoring, with per-detector containment — one
        // panicking detector costs its own observations, not the cell's.
        let monitor_span = ctx.span("cell/monitor");
        let observed = contain(|| uc.monitor(world, attacker).observe_contained(world));
        let monitored = Instant::now();
        phases.monitor_us = Some(micros(injected, monitored));
        let wall = micros(start, monitored);
        drop(monitor_span);
        let (observation, detector_failures) = match observed {
            Ok(observed) => observed,
            Err(message) => {
                let error = CampaignError::Monitor { message };
                bridge_audit(world);
                return self.degraded_cell(uc, version, mode, error, wall, phases);
            }
        };
        let error = if detector_failures.is_empty() {
            outcome.error.map(|message| CampaignError::Injection { message })
        } else {
            Some(CampaignError::Monitor { message: detector_failures.join("; ") })
        };

        bridge_audit(world);
        let handled = outcome.erroneous_state && observation.is_clean();
        CellResult {
            use_case: Cow::Borrowed(uc.name()),
            version,
            mode,
            erroneous_state: outcome.erroneous_state,
            violations: observation.violations,
            handled,
            notes: outcome.notes,
            error,
            outcome: CellOutcome::Completed,
            wall_time_us: wall,
            hypercalls: world.hv().hypercall_count().saturating_sub(base_hypercalls),
            phase_us: phases,
            snapshot: world.snapshot_stats(),
        }
    }

    /// A cell record for a harness failure (boot / crash / monitor).
    fn degraded_cell(
        &self,
        uc: &dyn UseCase,
        version: XenVersion,
        mode: Mode,
        error: CampaignError,
        wall_time_us: u64,
        phases: PhaseTimings,
    ) -> CellResult {
        let cell_id =
            || CellId { use_case: uc.name().to_owned(), version, mode };
        let outcome = match &error {
            CampaignError::Boot { .. } => CellOutcome::BootFailed,
            CampaignError::HarnessCrash { payload } => {
                CellOutcome::Crashed { payload: payload.clone(), cell: cell_id() }
            }
            CampaignError::Monitor { message } => {
                CellOutcome::Crashed { payload: message.clone(), cell: cell_id() }
            }
            CampaignError::Injection { .. } => CellOutcome::Completed,
        };
        CellResult {
            use_case: Cow::Borrowed(uc.name()),
            version,
            mode,
            erroneous_state: false,
            violations: Vec::new(),
            handled: false,
            notes: Vec::new(),
            error: Some(error),
            outcome,
            wall_time_us,
            hypercalls: 0,
            phase_us: phases,
            snapshot: SnapshotStats::default(),
        }
    }
}

/// The campaign's pre-booted base worlds, keyed by `(version,
/// injector_enabled)`. A boot error poisons only the cells that need
/// that world.
type BaseWorldMap = BTreeMap<(XenVersion, bool), Result<World, CampaignError>>;

/// Resets `scratch` to `base` (cloning `base` into it if it holds no
/// world yet) with panic containment. A panic mid-reset drops the taken
/// world inside the boundary, so a half-reset world is never reused:
/// the next cell clones afresh. Containment is sound because the base is
/// only read.
fn reset_contained<'w>(
    scratch: &'w mut Option<World>,
    base: &World,
) -> Result<&'w mut World, CampaignError> {
    let world = contain(|| match scratch.take() {
        Some(mut world) => {
            world.clone_from(base);
            world
        }
        None => base.clone(),
    })
    .map_err(|payload| CampaignError::HarnessCrash { payload })?;
    Ok(scratch.insert(world))
}

/// A worker's own copy of the base worlds, each [`World::unshare`]d so
/// that no two workers' resets bump the same reference counts.
fn unshared_copy(worlds: &BaseWorldMap) -> BaseWorldMap {
    worlds
        .iter()
        .map(|(&key, world)| {
            let world = world.as_ref().map(|base| {
                let mut copy = base.clone();
                copy.unshare();
                copy
            });
            (key, world.map_err(Clone::clone))
        })
        .collect()
}

/// Where a worker puts its finished cells — the one difference between
/// a collecting run, a streamed one and a randomized campaign's trials.
/// Everything else is the shared worker loop ([`Campaign::run_workers`]).
pub(crate) trait CellSink: Send {
    /// Takes one finished cell; `index` is its shard-local index.
    fn push(&mut self, index: u64, spec: &CellSpec, cell: CellResult, ctx: &TraceCtx);

    /// Called once after the worker's last cell.
    fn finish(&mut self) {}
}

/// A collecting run's sink: every cell, tagged with its shard-local
/// index so the report can put them back in grid order, and — when the
/// run publishes metrics — the worker's fold of their totals (the
/// metrics read no per-key tally).
struct Collected {
    cells: Vec<(u64, Box<CellResult>)>,
    fold: Option<PartialFold>,
}

impl CellSink for Collected {
    fn push(&mut self, index: u64, spec: &CellSpec, cell: CellResult, _ctx: &TraceCtx) {
        if let Some(fold) = &mut self.fold {
            fold.fold_totals(spec, &cell);
        }
        self.cells.push((index, Box::new(cell)));
    }
}

/// A streamed run's sink: folds each cell into the worker's partial
/// report and drops it. With a checkpoint session it also journals the
/// worker's progress: it encodes a fold record every [`FOLD_INTERVAL`]
/// slots and at the end, and queues it for the journal's writer thread.
///
/// The per-key tally is kept by key index ([`SpecGrid::key_index`])
/// beside the fold, not by name inside it; keys get their names only
/// when a fold record is written and at [`CellSink::finish`], so the
/// fold and its journal records are the same as a by-name fold's.
struct FoldSink<'a> {
    session: Option<&'a CheckpointSession>,
    worker_id: u64,
    fold: PartialFold,
    /// The run's grid, which maps a slot to its key.
    grid: &'a SpecGrid,
    /// Per-key tallies, indexed by key.
    keys: Vec<KeySummary>,
    /// `by_key` name of each key ([`SpecGrid::key_names`]).
    key_names: &'a [String],
    /// Fold records this worker has journaled.
    seq: u64,
    batch: Vec<u64>,
}

impl<'a> FoldSink<'a> {
    fn new(
        session: Option<&'a CheckpointSession>,
        worker_id: u64,
        grid: &'a SpecGrid,
        key_names: &'a [String],
    ) -> Self {
        Self {
            session,
            worker_id,
            fold: PartialFold::default(),
            grid,
            keys: vec![KeySummary::default(); key_names.len()],
            key_names,
            seq: 0,
            batch: Vec::new(),
        }
    }

    fn record_fold(&mut self, session: &CheckpointSession) {
        self.seq += 1;
        let batch = std::mem::take(&mut self.batch);
        if session.writer.failed() {
            return;
        }
        let mut named = self.fold.clone();
        named.name_keys(&self.keys, self.key_names);
        session.record_fold(self.worker_id, self.seq, batch, named);
    }
}

impl CellSink for FoldSink<'_> {
    fn push(&mut self, _index: u64, spec: &CellSpec, cell: CellResult, ctx: &TraceCtx) {
        self.fold.fold_totals(spec, &cell);
        self.keys[self.grid.key_index(spec.slot)].tally(&cell);
        let Some(session) = self.session else { return };
        let _journal_span = ctx.span("cell/journal");
        self.batch.push(spec.slot);
        if self.batch.len() as u64 >= FOLD_INTERVAL {
            self.record_fold(session);
        }
    }

    fn finish(&mut self) {
        if let Some(session) = self.session {
            if !self.batch.is_empty() {
                self.record_fold(session);
            }
        }
        let keys = std::mem::take(&mut self.keys);
        self.fold.name_keys(&keys, self.key_names);
    }
}

/// Boots through `boot` once, with panic containment: a boot error
/// becomes [`CampaignError::Boot`] and a panic
/// [`CampaignError::HarnessCrash`].
pub(crate) fn boot_contained<T>(
    boot: impl FnOnce() -> Result<T, BootError>,
) -> Result<T, CampaignError> {
    contain(boot)
        .map_err(|payload| CampaignError::HarnessCrash { payload })?
        .map_err(|boot| CampaignError::Boot { message: boot.to_string() })
}

/// Whole microseconds from `from` to `to`.
fn micros(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_micros() as u64
}

impl Default for Campaign {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{CheckpointWriter, JournalSink};
    use crate::erroneous_state::ErroneousStateSpec;
    use crate::injector::Injector;
    use crate::model::IntrusionModel;
    use crate::report::CHECK;
    use crate::scenario::ScenarioOutcome;
    use crate::taxonomy::AbusiveFunctionality;
    use hvsim_mem::DomainId;

    /// A synthetic use case: injects IDT corruption and triggers a fault.
    struct CrashCase;

    impl UseCase for CrashCase {
        fn name(&self) -> &'static str {
            "synthetic-crash"
        }

        fn intrusion_model(&self) -> IntrusionModel {
            IntrusionModel::guest_hypercall_memory(
                "IM-test",
                AbusiveFunctionality::WriteUnauthorizedArbitraryMemory,
                &["XSA-212"],
            )
        }

        fn run_exploit(&self, world: &mut World, attacker: DomainId) -> ScenarioOutcome {
            // "Exploit" stand-in: only works where XSA-212 exists.
            let vulnerable = world.hv().version().is_vulnerable();
            if !vulnerable {
                return ScenarioOutcome::failed("-EFAULT (bad address)");
            }
            let spec = ErroneousStateSpec::OverwriteIdtGate { cpu: 0, vector: 14, value: 0x41 };
            let gate_va = world.hv().sidt(0).offset(14 * 16);
            let args = hvsim::ExchangeArgs::write_what_where(gate_va, 0x41, 0);
            let _ = world.hv_mut().hc_memory_exchange(attacker, &args);
            let audit = spec.audit(world);
            let mut out = ScenarioOutcome {
                erroneous_state: audit.present,
                state_audit: Some(audit),
                notes: vec![],
                error: None,
            };
            let mut buf = [0u8; 1];
            let _ = world
                .hv_mut()
                .guest_read_va(attacker, hvsim_mem::VirtAddr::new(0x7f00_0000_0000), &mut buf);
            out.note("triggered page fault");
            out
        }

        fn run_injection(
            &self,
            world: &mut World,
            attacker: DomainId,
            injector: &dyn Injector,
        ) -> ScenarioOutcome {
            let spec = ErroneousStateSpec::OverwriteIdtGate { cpu: 0, vector: 14, value: 0x41 };
            match injector.inject(world, attacker, &spec) {
                Ok(ev) => {
                    let mut buf = [0u8; 1];
                    let _ = world.hv_mut().guest_read_va(
                        attacker,
                        hvsim_mem::VirtAddr::new(0x7f00_0000_0000),
                        &mut buf,
                    );
                    ScenarioOutcome {
                        erroneous_state: true,
                        state_audit: Some(ev.audit),
                        notes: vec!["injected and triggered".into()],
                        error: None,
                    }
                }
                Err(e) => ScenarioOutcome::failed(e.to_string()),
            }
        }
    }

    #[test]
    fn campaign_produces_full_matrix() {
        let report = Campaign::new().with_use_case(Box::new(CrashCase)).run_with_jobs(2);
        assert_eq!(report.cells().len(), 6, "3 versions x 2 modes");
        // Exploit works only on 4.6.
        let e46 = report.cell("synthetic-crash", XenVersion::V4_6, Mode::Exploit).unwrap();
        assert!(e46.erroneous_state);
        assert!(e46.violated());
        let e48 = report.cell("synthetic-crash", XenVersion::V4_8, Mode::Exploit).unwrap();
        assert!(!e48.erroneous_state);
        assert_eq!(
            e48.error,
            Some(CampaignError::Injection { message: "-EFAULT (bad address)".into() })
        );
        assert_eq!(e48.outcome, CellOutcome::Completed);
        assert!(!e48.degraded(), "a failed exploit attempt is data, not degradation");
        // Injection works everywhere and the crash follows everywhere.
        for v in XenVersion::ALL {
            let c = report.cell("synthetic-crash", v, Mode::Injection).unwrap();
            assert!(c.erroneous_state, "injection on {v}");
            assert!(c.violated(), "crash on {v}");
            assert!(!c.handled);
        }
    }

    #[test]
    fn report_renderers_produce_tables() {
        let campaign = Campaign::new().with_use_case(Box::new(CrashCase));
        let report = campaign.run_streaming().report;
        let t2 = crate::report::render_table2(campaign.use_cases());
        assert!(t2.contains("synthetic-crash"));
        assert!(t2.contains("Write Unauthorized Arbitrary Memory"));
        let t3 = report.render_table3();
        assert!(t3.contains("4.13 Sec. Viol."));
        assert!(t3.contains(CHECK));
        let f4 = report.render_fig4();
        assert!(f4.contains("yes"), "exploit and injection equivalent on 4.6:\n{f4}");
        let f2 = report.render_fig2("synthetic-crash", XenVersion::V4_6);
        assert!(f2.contains("traditional"));
        assert!(f2.contains("injection"));
        let json = report.to_json().unwrap();
        assert!(json.contains("\"synthetic-crash/4.6/exploit\""));
    }

    #[test]
    fn worker_count_and_snapshot_reuse_do_not_change_the_report() {
        let campaign = Campaign::new().with_use_case(Box::new(CrashCase));
        let serial = campaign.run_with_jobs(1).normalized();
        let parallel = campaign.run_with_jobs(8).normalized();
        assert_eq!(serial, parallel, "jobs=1 and jobs=8 reports must be identical");
        let booted = Campaign::new()
            .with_use_case(Box::new(CrashCase))
            .reuse_snapshots(false)
            .run_with_jobs(2)
            .normalized();
        assert_eq!(serial, booted, "snapshot clones must equal fresh boots");
    }

    #[test]
    fn snapshot_cells_record_cow_stats() {
        let report = Campaign::new().with_use_case(Box::new(CrashCase)).run_with_jobs(1);
        for c in report.cells() {
            assert!(c.snapshot.frames_total > 0, "cells report their world size");
            assert!(
                c.snapshot.frames_copied < c.snapshot.frames_total / 4,
                "COW must materialize a small fraction of the world, got {}/{}",
                c.snapshot.frames_copied,
                c.snapshot.frames_total
            );
        }
        let copied: u64 = report.cells().iter().map(|c| c.snapshot.frames_copied).sum();
        assert!(copied > 0, "cells that write dirty shared frames via COW");
        // Normalization zeroes the schedule-dependent stats.
        for c in report.normalized().cells() {
            assert_eq!(c.snapshot, hvsim::SnapshotStats::default());
        }
        assert!(
            report.cells().iter().all(|c| c.snapshot.frames_total == 4096),
            "the standard world's frame count"
        );
        // The streamed report sums them.
        let streamed =
            Campaign::new().with_use_case(Box::new(CrashCase)).run_streaming_with_jobs(1).report;
        assert_eq!(streamed.frames_copied, copied);
    }

    #[test]
    fn hypercall_counter_matches_canonical_per_cell_sum() {
        // The per-cell sum in the report is the canonical count; the
        // `campaign.hypercalls` registry counter is derived from it and
        // the two must always agree.
        let registry = MetricsRegistry::new();
        let report = Campaign::new()
            .with_use_case(Box::new(CrashCase))
            .metrics(registry.clone())
            .run_with_jobs(2);
        let canonical: u64 = report.cells().iter().map(|c| c.hypercalls).sum();
        let snapshot = registry.snapshot();
        let counter = snapshot
            .counters
            .iter()
            .find(|c| c.name == crate::obs_bridge::M_HYPERCALLS)
            .expect("campaign.hypercalls counter");
        assert_eq!(counter.value, canonical, "registry counter must equal the canonical sum");
        assert!(canonical > 0);
    }

    #[test]
    fn cells_record_timing_and_hypercalls() {
        let report = Campaign::new().with_use_case(Box::new(CrashCase)).run_with_jobs(2);
        // Every injection cell goes through the injector's hypercalls.
        for c in report.cells().iter().filter(|c| c.mode == Mode::Injection) {
            assert!(c.hypercalls > 0, "injection on {} made no hypercalls", c.version);
        }
        assert!(report.cells().iter().map(|c| c.wall_time_us).sum::<u64>() > 0);
        // Normalization zeroes the only non-deterministic field.
        assert!(report.normalized().cells().iter().all(|c| c.wall_time_us == 0));
        // The streamed report counts the same cells and hypercalls.
        let streamed = Campaign::new().with_use_case(Box::new(CrashCase)).run_streaming().report;
        assert_eq!(streamed.cells as usize, report.cells().len());
        assert_eq!(streamed.completed, streamed.cells, "clean run: all cells complete");
        assert_eq!(streamed.degraded, 0);
        assert_eq!(streamed.hypercalls, report.cells().iter().map(|c| c.hypercalls).sum::<u64>());
        assert!(streamed.hypercalls > 0);
    }

    #[test]
    fn cells_record_phase_timings() {
        let report = Campaign::new().with_use_case(Box::new(CrashCase)).run_with_jobs(2);
        for c in report.cells() {
            assert!(c.phase_us.boot_us.is_some(), "boot phase timed on {}", c.version);
            assert!(c.phase_us.inject_us.is_some(), "inject phase timed on {}", c.version);
            assert!(c.phase_us.monitor_us.is_some(), "monitor phase timed on {}", c.version);
        }
        // Normalization keeps phase presence but zeroes the durations.
        for c in report.normalized().cells() {
            assert_eq!(c.phase_us.boot_us, Some(0));
            assert_eq!(c.phase_us.inject_us, Some(0));
            assert_eq!(c.phase_us.monitor_us, Some(0));
        }
        let latency =
            Campaign::new().with_use_case(Box::new(CrashCase)).run_streaming().report.latency;
        assert_eq!(latency.boot.completed.count as usize, report.cells().len());
        assert_eq!(latency.monitor.degraded.count, 0, "clean run: no degraded latencies");
    }

    #[test]
    fn tracer_and_metrics_capture_the_campaign() {
        let tracer = Tracer::enabled();
        let registry = MetricsRegistry::new();
        let report = Campaign::new()
            .with_use_case(Box::new(CrashCase))
            .tracer(tracer.clone())
            .metrics(registry.clone())
            .run_with_jobs(2);
        let events = tracer.drain();
        assert!(!events.is_empty());
        let paths: Vec<&str> = events.iter().map(|e| e.path.as_str()).collect();
        assert!(paths.contains(&"campaign"), "root span missing: {paths:?}");
        assert!(paths.contains(&"campaign/snapshot_boot"));
        assert!(paths.contains(&"cell"));
        assert!(paths.contains(&"cell/boot"));
        assert!(paths.contains(&"cell/inject"));
        assert!(paths.contains(&"cell/monitor"));
        assert!(
            paths.iter().any(|p| p.starts_with("audit/")),
            "audit events should be bridged: {paths:?}"
        );
        // The campaign folded its own counters into the registry.
        let snapshot = registry.snapshot();
        let cells = snapshot
            .counters
            .iter()
            .find(|c| c.name == crate::obs_bridge::M_CELLS)
            .expect("campaign.cells counter");
        assert_eq!(cells.value as usize, report.cells().len());
        let hypercalls = snapshot
            .counters
            .iter()
            .find(|c| c.name == crate::obs_bridge::M_HYPERCALLS)
            .expect("campaign.hypercalls counter");
        assert_eq!(hypercalls.value, report.cells().iter().map(|c| c.hypercalls).sum::<u64>());
        assert!(
            snapshot.histograms.iter().any(|h| h.name == "campaign.boot_us.completed"),
            "phase histograms snapshotted"
        );
        // A second drain sees nothing: drain clears the sink.
        assert!(tracer.drain().is_empty());
    }

    #[test]
    fn restricted_campaign() {
        let report = Campaign::new()
            .with_use_case(Box::new(CrashCase))
            .versions(&[XenVersion::V4_13])
            .modes(&[Mode::Injection])
            .run_with_jobs(2);
        assert_eq!(report.cells().len(), 1);
        assert_eq!(report.cells()[0].version, XenVersion::V4_13);
    }

    /// A factory that panics for one specific `(version, injector)`
    /// combination and boots the standard world everywhere else.
    fn panicking_factory(bad: (XenVersion, bool)) -> WorldFactory {
        Arc::new(move |version, injector| {
            assert!(
                (version, injector) != bad,
                "factory panic for ({version}, injector={injector})"
            );
            standard_world(version, injector)
        })
    }

    #[test]
    fn panicking_factory_cell_is_contained() {
        for reuse in [true, false] {
            let report = Campaign::new()
                .with_use_case(Box::new(CrashCase))
                .world_factory(panicking_factory((XenVersion::V4_8, true)))
                .reuse_snapshots(reuse)
                .run_with_jobs(2);
            assert_eq!(report.cells().len(), 6, "the campaign still completes (reuse={reuse})");
            let bad = report.cell("synthetic-crash", XenVersion::V4_8, Mode::Injection).unwrap();
            assert!(bad.degraded());
            assert!(
                matches!(&bad.outcome, CellOutcome::Crashed { payload, cell }
                    if payload.contains("factory panic") && cell.version == XenVersion::V4_8),
                "got {:?}",
                bad.outcome
            );
            assert!(matches!(&bad.error, Some(CampaignError::HarnessCrash { .. })));
            // Every other cell is untouched.
            for cell in report.cells() {
                if cell.version == XenVersion::V4_8 && cell.mode == Mode::Injection {
                    continue;
                }
                assert!(!cell.degraded(), "{} {} {} degraded", cell.use_case, cell.version, cell.mode);
            }
            assert!(report.is_degraded());
            assert_eq!(report.cells().iter().filter(|c| c.degraded()).count(), 1);
        }
    }

    #[test]
    fn contained_crashes_are_deterministic_across_worker_counts() {
        let campaign = Campaign::new()
            .with_use_case(Box::new(CrashCase))
            .world_factory(panicking_factory((XenVersion::V4_6, false)));
        let serial = campaign.run_with_jobs(1).normalized();
        let parallel = campaign.run_with_jobs(8).normalized();
        assert_eq!(serial, parallel, "degraded cells must be identical at any -j");
    }

    #[test]
    fn a_failing_boot_degrades_its_cell_after_one_call() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&calls);
        let report = Campaign::new()
            .with_use_case(Box::new(CrashCase))
            .world_factory(Arc::new(move |_, _| {
                counted.fetch_add(1, Ordering::SeqCst);
                Err(guestos::BootError::new("create dom0", "no frames left"))
            }))
            .reuse_snapshots(false)
            .versions(&[XenVersion::V4_13])
            .modes(&[Mode::Injection])
            .run_with_jobs(2);
        assert_eq!(calls.load(Ordering::SeqCst), 1, "a failed boot is not called again");
        let cell = report.cells().first().unwrap();
        assert_eq!(cell.outcome, CellOutcome::BootFailed);
        assert!(matches!(
            &cell.error,
            Some(CampaignError::Boot { message }) if message.contains("no frames left")
        ));
        assert!(cell.degraded());
    }

    /// A detector that always panics, for monitor containment tests.
    struct ExplodingDetector;

    impl crate::monitor::Detector for ExplodingDetector {
        fn name(&self) -> &'static str {
            "exploding"
        }

        fn observe(&self, _world: &World) -> Vec<SecurityViolation> {
            panic!("detector exploded")
        }
    }

    /// CrashCase with a monitor whose first detector panics.
    struct BadMonitorCase;

    impl UseCase for BadMonitorCase {
        fn name(&self) -> &'static str {
            "synthetic-bad-monitor"
        }

        fn intrusion_model(&self) -> IntrusionModel {
            CrashCase.intrusion_model()
        }

        fn run_exploit(&self, world: &mut World, attacker: DomainId) -> ScenarioOutcome {
            CrashCase.run_exploit(world, attacker)
        }

        fn run_injection(
            &self,
            world: &mut World,
            attacker: DomainId,
            injector: &dyn Injector,
        ) -> ScenarioOutcome {
            CrashCase.run_injection(world, attacker, injector)
        }

        fn monitor(&self, _world: &World, _attacker: DomainId) -> crate::monitor::Monitor {
            crate::monitor::Monitor::standard().with(Box::new(ExplodingDetector))
        }
    }

    #[test]
    fn panicking_detector_degrades_but_keeps_other_observations() {
        let report = Campaign::new()
            .with_use_case(Box::new(BadMonitorCase))
            .versions(&[XenVersion::V4_6])
            .modes(&[Mode::Injection])
            .run_with_jobs(2);
        let cell = report.cells().first().unwrap();
        assert!(
            matches!(&cell.error, Some(CampaignError::Monitor { message })
                if message.contains("exploding") && message.contains("detector exploded")),
            "got {:?}",
            cell.error
        );
        assert!(cell.degraded(), "a partial observation is harness degradation");
        assert!(cell.violated(), "the surviving detectors still observed the crash");
    }

    #[test]
    fn replaying_a_degraded_slot_reproduces_its_cell_and_trace() {
        let tracer = Tracer::enabled();
        let campaign = Campaign::new()
            .with_use_case(Box::new(CrashCase))
            .world_factory(panicking_factory((XenVersion::V4_8, true)))
            .tracer(tracer.clone());
        let report = campaign.run_with_jobs(2);
        let full_trace = tracer.drain();
        // Unsharded, so a collected cell's index is its slot.
        let degraded: Vec<u64> =
            (0u64..).zip(report.cells()).filter(|(_, c)| c.degraded()).map(|(s, _)| s).collect();
        assert_eq!(degraded.len(), 1, "only the (4.8, injector) cell degrades");
        let shard = |events: &[hvsim_obs::TraceEvent], slot: u64| -> Vec<hvsim_obs::TraceEvent> {
            events.iter().filter(|e| e.shard == slot + 1).map(|e| e.normalized()).collect()
        };
        for slot in degraded {
            let cell = &report.cells()[slot as usize];
            let replayed = campaign.replay(slot).expect("slot inside the grid");
            assert_eq!(replayed.outcome, cell.outcome);
            assert_eq!(replayed.error, cell.error);
            let replay_trace = tracer.drain();
            assert_eq!(shard(&replay_trace, slot), shard(&full_trace, slot), "slot {slot}");
            let verdict = replay_trace.iter().find(|e| e.path == "cell/degraded").unwrap();
            assert!(verdict.attrs[0].1.contains("factory panic"), "{verdict:?}");
        }
        assert!(campaign.replay(report.cells().len() as u64).is_none(), "past the grid's end");
    }

    /// SplitMix64, the test's source of random bits.
    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// A cell of key `spec` with outcome, verdicts and timings drawn
    /// from `bits`.
    fn random_cell(use_case: &'static str, spec: &CellSpec, bits: u64) -> CellResult {
        let kind = bits % 6;
        let error = match kind {
            0 => Some(CampaignError::Boot { message: "x".into() }),
            1 => Some(CampaignError::HarnessCrash { payload: "x".into() }),
            2 => Some(CampaignError::Injection { message: "-EFAULT".into() }),
            _ => None,
        };
        let outcome = match kind {
            0 => CellOutcome::BootFailed,
            1 => CellOutcome::Crashed {
                payload: "x".into(),
                cell: CellId { use_case: use_case.to_owned(), version: spec.version, mode: spec.mode },
            },
            _ => CellOutcome::Completed,
        };
        let violated = bits & 0x10 != 0;
        CellResult {
            use_case: use_case.into(),
            version: spec.version,
            mode: spec.mode,
            erroneous_state: bits & 0x20 != 0,
            violations: if violated {
                vec![SecurityViolation::HypervisorCrash { message: "x".into() }]
            } else {
                Vec::new()
            },
            handled: !violated && bits & 0x20 != 0,
            notes: Vec::new(),
            error,
            outcome,
            wall_time_us: (bits >> 8) % 1_000,
            hypercalls: (bits >> 18) % 9,
            phase_us: PhaseTimings {
                boot_us: Some((bits >> 24) % 50),
                inject_us: (kind != 0).then_some((bits >> 32) % 50),
                monitor_us: (kind > 2).then_some((bits >> 40) % 50),
            },
            snapshot: SnapshotStats { frames_total: 4096, frames_copied: (bits >> 48) % 4 },
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Random cells folded by key index on several sinks, whose folds
        /// are absorbed in a shuffled order, give exactly the by-name fold
        /// of the same cells.
        #[test]
        fn index_keyed_fold_equals_the_by_name_fold(
            seed in proptest::prelude::any::<u64>(),
            trials in 1u64..5,
            sinks in 1usize..5,
        ) {
            const NAMES: [&str; 3] = ["uc-a", "uc-b", "uc-c"];
            let use_cases = NAMES.map(str::to_owned).to_vec();
            let modes = [Mode::Exploit, Mode::Injection];
            let grid = SpecGrid {
                use_cases,
                versions: XenVersion::ALL.to_vec(),
                modes: modes.to_vec(),
                trials,
            };
            let key_names = grid.key_names();
            let ctx = Tracer::disabled().ctx(0);
            let mut reference = PartialFold::default();
            let mut parts: Vec<FoldSink<'_>> =
                (0..sinks).map(|w| FoldSink::new(None, w as u64, &grid, &key_names)).collect();
            let mut bits = seed;
            for spec in grid.iter() {
                bits = splitmix64(bits);
                // Some slots, and so on small grids whole keys, never run.
                if bits.is_multiple_of(5) {
                    continue;
                }
                let cell = random_cell(NAMES[spec.use_case], &spec, bits >> 3);
                reference.fold(&spec, &cell);
                parts[(bits >> 56) as usize % sinks].push(spec.slot, &spec, cell, &ctx);
            }
            let mut folds: Vec<PartialFold> = parts
                .into_iter()
                .map(|mut sink| {
                    sink.finish();
                    sink.fold
                })
                .collect();
            for i in (1..folds.len()).rev() {
                bits = splitmix64(bits);
                folds.swap(i, (bits % (i as u64 + 1)) as usize);
            }
            let mut whole = PartialFold::default();
            for fold in &folds {
                whole.absorb(fold);
            }
            proptest::prop_assert_eq!(whole.finish(), reference.finish());
        }
    }

    #[test]
    fn supervisor_samples_the_timeline() {
        let timeline = MetricsTimeline::new();
        let registry = MetricsRegistry::new();
        // The (4.8, injector) base world panics, so one cell degrades.
        let report = Campaign::new()
            .with_use_case(Box::new(CrashCase))
            .world_factory(panicking_factory((XenVersion::V4_8, true)))
            .timeline(timeline.clone())
            .metrics(registry.clone())
            .run_with_jobs(2);
        // The supervisor's final tick runs after the last worker
        // finishes, so even a run shorter than one sampling interval
        // has a complete sample.
        assert!(!timeline.is_empty(), "at least the final sample lands");
        let samples = timeline.samples();
        let last = samples.last().unwrap();
        let value =
            |name: &str| last.values.iter().find(|(k, _)| k == name).map(|&(_, v)| v);
        let total = report.cells().len() as u64;
        assert_eq!(value("progress.total"), Some(total));
        assert_eq!(value("progress.done"), Some(total));
        assert_eq!(value("progress.degraded"), Some(1), "the live gauge counts the crash");
        assert!(value("workers.busy").is_some());
        assert!(value("throughput.cells_per_sec_x1000").is_some());
        // The stall counter is pre-registered as an explicit zero.
        let snapshot = registry.snapshot();
        let stalled = snapshot
            .counters
            .iter()
            .find(|c| c.name == crate::obs_bridge::M_WORKER_STALLED)
            .expect("campaign.worker.stalled pre-registered");
        assert_eq!(stalled.value, 0);
    }

    fn counter_of(registry: &MetricsRegistry, name: &str) -> Option<u64> {
        registry.snapshot().counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    fn scratch_journal(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("hvsim-campaign-{}-{name}", std::process::id()))
    }

    #[test]
    fn checkpointed_runs_publish_the_journal_cost() {
        let journal = scratch_journal("cost.journal");
        let campaign = || Campaign::new().with_use_case(Box::new(CrashCase)).trials(64).jobs(2);
        let costs = [obs_bridge::M_CKPT_ENCODE_US, obs_bridge::M_CKPT_SYNC_US];
        let registry = MetricsRegistry::new();
        campaign().metrics(registry.clone()).run_streaming_checkpointed(&journal).unwrap();
        for name in costs {
            assert!(counter_of(&registry, name) > Some(0), "{name} published and above 0");
        }
        let plain = MetricsRegistry::new();
        campaign().metrics(plain.clone()).run_streaming_with_jobs(2);
        for name in costs {
            assert_eq!(counter_of(&plain, name), None, "a plain run publishes no {name}");
        }
        std::fs::remove_file(&journal).ok();
    }

    #[test]
    fn a_journal_whose_sync_fails_leaves_the_report_unchanged() {
        /// Takes every append and fails every sync.
        struct FailingSync;
        impl JournalSink for FailingSync {
            fn append(&mut self, _bytes: &[u8]) -> std::io::Result<()> {
                Ok(())
            }
            fn sync(&mut self) -> std::io::Result<()> {
                Err(std::io::Error::other("sync failed"))
            }
        }
        let registry = MetricsRegistry::new();
        let campaign =
            Campaign::new().with_use_case(Box::new(CrashCase)).trials(64).metrics(registry.clone());
        // A session past its synced header, whose later syncs all fail.
        let session = CheckpointSession {
            writer: CheckpointWriter::new(Box::new(FailingSync), 0),
            done: std::collections::BTreeSet::new(),
            recovered: Vec::new(),
            first_worker: 1,
        };
        let outcome = campaign.stream_impl(2, Some(session));
        assert_eq!(
            outcome.report.normalized(),
            campaign.run_streaming_with_jobs(2).report.normalized(),
            "a broken journal degrades durability, never the report"
        );
        assert_eq!(counter_of(&registry, obs_bridge::M_CKPT_WRITE_ERRORS), Some(1));
        assert_eq!(counter_of(&registry, obs_bridge::M_CKPT_SYNCS), Some(0));
    }
}
