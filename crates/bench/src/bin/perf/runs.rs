//! One measured run of a workload (tracing off, end-to-end metrics) and
//! one traced run (per-layer metrics).

use crate::layers::{self, LATENCIES, SAMPLE_CELLS};
use crate::measure::Host;
use crate::stats::{median, percentile_sorted};
use crate::workloads::{Prepared, References, Verdict, Workload, WorldKey};
use guestos::World;
use hvsim_obs::Tracer;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups timed before each engine call; `setup_s` is their median
/// over the run.
const SETUPS_PER_CALL: usize = 3;

/// Engine calls a measured run makes at least, however short its time.
const MIN_CALLS: usize = 3;

/// Trials per grid key of the checkpoint probe's synthetic calls.
pub const CHECKPOINT_PROBE_TRIALS: u64 = 10_000;

/// What a run shares with the runs before it in the same process.
pub struct Session {
    pub seed: u64,
    /// Seconds of engine calls a run measures.
    pub seconds: f64,
    pub refs: References,
    /// Where checkpointed calls journal; each call removes its journal.
    pub journal: PathBuf,
}

impl Session {
    pub fn new(seed: u64, seconds: f64) -> Self {
        Session {
            seed,
            seconds,
            refs: References::default(),
            journal: PathBuf::from(format!("perf-{}.journal", std::process::id())),
        }
    }
}

/// One run's result: what `--out` stores and the one-run form prints.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    pub workload: String,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

/// A results file: every run in the order it ran, the per-layer
/// metrics of one traced run per workload, and where it all ran.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Results {
    pub host: Host,
    pub seed: u64,
    pub seconds: f64,
    pub runs: Vec<RunRecord>,
    pub layers: BTreeMap<String, BTreeMap<String, f64>>,
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, verdict: Verdict, workload: Workload) {
        self.attempted += verdict.attempted;
        self.failed += verdict.failed;
        for problem in verdict.problems.iter().take(5) {
            eprintln!("perf: {}: check failed: {problem}", workload.name());
        }
    }
}

/// Timed set-ups of one workload. A set-up builds the workload's
/// campaign and boots every base world the engine boots before its
/// first cell.
#[derive(Default)]
struct SetUps {
    seconds: Vec<f64>,
    boot_ms: Vec<f64>,
}

impl SetUps {
    fn time_one(
        &mut self,
        workload: Workload,
        seed: u64,
        trials: u64,
    ) -> Result<(Prepared, BTreeMap<WorldKey, World>), String> {
        let start = Instant::now();
        let prepared = Prepared::new(workload, seed, trials);
        let (worlds, boots) = prepared.boot_worlds()?;
        self.seconds.push(start.elapsed().as_secs_f64());
        self.boot_ms.extend(boots);
        Ok((prepared, worlds))
    }
}

/// One checked engine call, reduced to its per-cell measurements.
struct Sample {
    cells_per_s: f64,
    cpu_us_per_cell: f64,
    peak_rss_mb: f64,
    journal_bytes_per_cell: f64,
}

fn checked_call(
    prepared: &Prepared,
    session: &mut Session,
    tally: &mut Tally,
) -> Result<Sample, String> {
    let call = prepared.call(&session.journal)?;
    tally.add(
        prepared.check(&call.output, &mut session.refs),
        prepared.workload,
    );
    let cells = call.cells as f64;
    Ok(Sample {
        cells_per_s: cells / call.wall_s,
        cpu_us_per_cell: call.cpu_s / cells * 1e6,
        peak_rss_mb: call.peak_rss_mb,
        journal_bytes_per_cell: call.journal_bytes as f64 / cells,
    })
}

/// Engine calls until `budget` runs out, at least `min_calls` of them,
/// each after `SETUPS_PER_CALL` timed set-ups. Spreading the set-ups
/// over the run lets a burst of host noise hit them as it hits the
/// calls, instead of all of them or none.
fn engine_calls(
    prepared: &Prepared,
    session: &mut Session,
    setups: &mut SetUps,
    budget: Duration,
    min_calls: usize,
    tally: &mut Tally,
) -> Result<Vec<Sample>, String> {
    let deadline = Instant::now() + budget;
    let mut samples = Vec::new();
    while samples.len() < min_calls || Instant::now() < deadline {
        for _ in 0..SETUPS_PER_CALL {
            setups.time_one(prepared.workload, prepared.seed, prepared.trials)?;
        }
        samples.push(checked_call(prepared, session, tally)?);
    }
    Ok(samples)
}

fn median_of(samples: &[Sample], f: fn(&Sample) -> f64) -> f64 {
    median(&samples.iter().map(f).collect::<Vec<_>>())
}

/// One measured run with tracing off: engine calls of `trials` per grid
/// key and set-ups, for the session's seconds. Every metric is a median.
pub fn measure_run(
    workload: Workload,
    session: &mut Session,
    trials: u64,
) -> Result<RunRecord, String> {
    let mut setups = SetUps::default();
    let (prepared, _) = setups.time_one(workload, session.seed, trials)?;
    prepared.ensure_reference(&mut session.refs);
    let mut tally = Tally::default();
    let budget = Duration::from_secs_f64(session.seconds);
    let samples = engine_calls(
        &prepared,
        session,
        &mut setups,
        budget,
        MIN_CALLS,
        &mut tally,
    )?;
    let metrics = BTreeMap::from([
        (
            "cells_per_s".to_owned(),
            median_of(&samples, |s| s.cells_per_s),
        ),
        (
            "cpu_us_per_cell".to_owned(),
            median_of(&samples, |s| s.cpu_us_per_cell),
        ),
        (
            "peak_rss_mb".to_owned(),
            median_of(&samples, |s| s.peak_rss_mb),
        ),
        ("setup_s".to_owned(), median(&setups.seconds)),
    ]);
    Ok(RunRecord {
        workload: workload.name().to_owned(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

/// The journal's cost per cell, measured the same way on every
/// workload: the synthetic grid streamed without and then with a
/// checkpoint journal, three such pairs, median of the pairs' CPU per
/// cell differences. Returns (CPU µs per cell, journal bytes per cell).
fn checkpoint_cost(
    session: &mut Session,
    trials: u64,
    tally: &mut Tally,
) -> Result<(f64, f64), String> {
    let plain = Prepared::new(Workload::SyntheticStream, session.seed, trials);
    let journaled = Prepared::new(Workload::SyntheticCheckpoint, session.seed, trials);
    let (mut extra_us, mut bytes) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let without = checked_call(&plain, session, tally)?;
        let with = checked_call(&journaled, session, tally)?;
        extra_us.push(with.cpu_us_per_cell - without.cpu_us_per_cell);
        bytes.push(with.journal_bytes_per_cell);
    }
    Ok((median(&extra_us), median(&bytes)))
}

/// One traced run: the engine's CPU per cell from untraced calls over
/// half the session's seconds; an untraced, a traced and a second
/// untraced replay of `SAMPLE_CELLS` cells; the probes; and the
/// journal's cost on `checkpoint_trials` synthetic trials. Span events
/// land in `tracer` under shards `shard_base + 1 ..`. Returns the
/// per-layer metrics and the sample count behind each latency family.
pub fn trace_run(
    workload: Workload,
    session: &mut Session,
    tracer: &Tracer,
    shard_base: u64,
    trials: u64,
    checkpoint_trials: u64,
) -> Result<(RunRecord, BTreeMap<String, u64>), String> {
    let mut setups = SetUps::default();
    let (prepared, worlds) = setups.time_one(workload, session.seed, trials)?;
    prepared.ensure_reference(&mut session.refs);
    let mut tally = Tally::default();
    let budget = Duration::from_secs_f64(session.seconds / 2.0);
    let calls = engine_calls(&prepared, session, &mut setups, budget, 2, &mut tally)?;
    let engine_cpu_us = median_of(&calls, |s| s.cpu_us_per_cell);

    // The traced replay sits between two untraced ones, so warm-up
    // favours neither side of the overhead comparison.
    let untraced = Tracer::disabled();
    let before = layers::replay(&prepared, &worlds, &untraced, 0);
    let traced = layers::replay(&prepared, &worlds, tracer, shard_base);
    let after = layers::replay(&prepared, &worlds, &untraced, 0);
    tally.attempted += traced.cells;
    tally.failed += traced.failed;
    for problem in traced.problems.iter().take(5) {
        eprintln!("perf: {}: {problem}", workload.name());
    }

    let mut metrics = BTreeMap::new();
    let mut counts = BTreeMap::new();
    for family in LATENCIES {
        let mut values = traced.latencies.get(family).cloned().unwrap_or_default();
        if values.is_empty() && family == "hv.inject_us" {
            values = layers::inject_twins(&prepared, tracer, shard_base + SAMPLE_CELLS)?;
        }
        values.sort_by(f64::total_cmp);
        metrics.insert(format!("{family}.p50"), percentile_sorted(&values, 0.5));
        metrics.insert(format!("{family}.p999"), percentile_sorted(&values, 0.999));
        counts.insert(family.to_owned(), values.len() as u64);
    }
    metrics.insert("guest.boot_ms.p50".to_owned(), median(&setups.boot_ms));
    counts.insert("guest.boot_ms".to_owned(), setups.boot_ms.len() as u64);
    let cells = traced.cells as f64;
    metrics.insert(
        "hv.hypercalls_per_cell".to_owned(),
        traced.hypercalls as f64 / cells,
    );
    metrics.insert(
        "hv.audit_events_per_cell".to_owned(),
        traced.audit_events as f64 / cells,
    );
    metrics.insert(
        "mem.frames_copied_per_cell".to_owned(),
        traced.frames_copied as f64 / cells,
    );
    let probe_version = prepared.world_keys()[0].0;
    for (name, ns) in layers::probes(probe_version)? {
        metrics.insert(name.to_owned(), ns);
    }
    let replay_cpu_us = (before.cpu_s + after.cpu_s) / 2.0 / cells * 1e6;
    metrics.insert("core.engine_cpu_us_per_cell".to_owned(), engine_cpu_us);
    metrics.insert("core.replay_cpu_us_per_cell".to_owned(), replay_cpu_us);
    metrics.insert(
        "core.harness_us_per_cell".to_owned(),
        engine_cpu_us - replay_cpu_us,
    );
    let (journal_us, journal_bytes) = checkpoint_cost(session, checkpoint_trials, &mut tally)?;
    metrics.insert("core.checkpoint_us_per_cell".to_owned(), journal_us);
    metrics.insert("core.journal_bytes_per_cell".to_owned(), journal_bytes);
    let traced_cpu_us = traced.cpu_s / cells * 1e6;
    metrics.insert(
        "trace_overhead_pct".to_owned(),
        (traced_cpu_us / replay_cpu_us - 1.0) * 100.0,
    );

    let record = RunRecord {
        workload: workload.name().to_owned(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    };
    Ok((record, counts))
}
