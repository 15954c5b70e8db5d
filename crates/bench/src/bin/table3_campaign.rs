//! Regenerates **Table III**: the injection campaign across all
//! versions, plus the RQ1/RQ2/RQ3 summaries of §VI–§VIII, and records
//! campaign throughput in `BENCH_campaign.json`.
//!
//! By default the campaign runs once per jobs level (1, 4, 8) and
//! `BENCH_campaign.json` holds the throughput entries under `table3`
//! (one per level, with COW snapshot stats)
//! plus a `stream` array: the streamed engine on the same grid per
//! level and — for the default sweep — a synthetic ~100k-cell grid
//! entry measuring streamed throughput at scale. `--jobs N`
//! restricts the sweep to one level (and skips the synthetic entry
//! unless `--synthetic-cells` asks for it, and always skips the
//! flight-recorder overhead gate).
//!
//! Flags:
//!
//! * `--jobs N` — run a single worker count instead of the 1/4/8 sweep
//! * `--stream` — run the campaign through the streaming engine instead
//!   of the collect-everything engine; prints the per-key summary and
//!   pipeline stats, and `--report-out` writes the normalized
//!   `StreamReport` (mergeable across shards)
//! * `--shard i/n` — run only slots `i, i+n, i+2n, …` of the grid;
//!   shard reports merge back to the unsharded report byte-for-byte
//! * `--synthetic-cells N` — size of the synthetic streamed grid entry
//!   in `BENCH_campaign.json` (rounded up to a multiple of 3; 0
//!   disables; default ~100k for the full sweep, 0 with `--jobs`)
//! * `--chunk-frames N` — COW chunk-directory granularity in frames
//!   (the report must not change; rounded up to a power of two)
//! * `--report-out FILE` — write the *normalized* report as JSON
//!   (what CI diffs across jobs levels, chunk sizes, and shardings)
//! * `--trace-out FILE` — write the campaign's structured trace as JSONL
//! * `--metrics-out FILE` — write the metrics-registry snapshot as JSON
//! * `--json` — also print the full report as JSON

use bench::{attack_world, paper_campaign, synthetic_campaign};
use hvsim::{MmuUpdate, PteFlags, XenVersion};
use hvsim_mem::{MachineMemory, Mfn, DEFAULT_CHUNK_FRAMES};
use hvsim_paging::PageTableEntry;
use hvsim_obs::{to_jsonl, MetricsRegistry, Tracer, DEFAULT_FLIGHT_CAPACITY};
use intrusion_core::{
    standard_world_factory, Campaign, CampaignReport, CampaignThroughput, Mode, PhaseLatency,
    Shard, StreamBench, StreamOutcome,
};
use std::process::exit;
use std::time::Instant;

/// Deterministic seed for the synthetic streamed grid entry.
const SYNTHETIC_SEED: u64 = 0xD5_2023;

struct Options {
    /// `None` runs the default 1/4/8 sweep.
    jobs: Option<usize>,
    stream: bool,
    shard: Option<Shard>,
    /// `None` = default policy (~100k for the full sweep, 0 otherwise).
    synthetic_cells: Option<u64>,
    /// COW chunk-directory granularity override (`None` = default).
    chunk_frames: Option<usize>,
    report_out: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    json: bool,
}

fn parse_args() -> Options {
    let mut opts = Options {
        jobs: None,
        stream: false,
        shard: None,
        synthetic_cells: None,
        chunk_frames: None,
        report_out: None,
        trace_out: None,
        metrics_out: None,
        json: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                exit(2);
            })
        };
        match arg.as_str() {
            "--jobs" => {
                let raw = value("--jobs");
                opts.jobs = Some(raw.parse().unwrap_or_else(|_| {
                    eprintln!("--jobs needs a positive integer, got '{raw}'");
                    exit(2);
                }));
            }
            "--stream" => opts.stream = true,
            "--shard" => {
                let raw = value("--shard");
                opts.shard = Some(Shard::parse(&raw).unwrap_or_else(|e| {
                    eprintln!("--shard: {e}");
                    exit(2);
                }));
            }
            "--synthetic-cells" => {
                let raw = value("--synthetic-cells");
                opts.synthetic_cells = Some(raw.parse().unwrap_or_else(|_| {
                    eprintln!("--synthetic-cells needs an integer, got '{raw}'");
                    exit(2);
                }));
            }
            "--chunk-frames" => {
                let raw = value("--chunk-frames");
                opts.chunk_frames = Some(raw.parse().ok().filter(|&c| c > 0).unwrap_or_else(|| {
                    eprintln!("--chunk-frames needs a positive integer, got '{raw}'");
                    exit(2);
                }));
            }
            "--report-out" => opts.report_out = Some(value("--report-out")),
            "--trace-out" => opts.trace_out = Some(value("--trace-out")),
            "--metrics-out" => opts.metrics_out = Some(value("--metrics-out")),
            "--json" => opts.json = true,
            other => {
                eprintln!("unknown argument '{other}'");
                eprintln!(
                    "usage: table3_campaign [--jobs N] [--stream] [--shard i/n] \
                     [--synthetic-cells N] [--chunk-frames N] \
                     [--report-out FILE] [--trace-out FILE] [--metrics-out FILE] [--json]"
                );
                exit(2);
            }
        }
    }
    opts
}

fn print_phase(name: &str, phase: &PhaseLatency) {
    println!(
        "  {name:<8} completed n={:<3} p50={:<8} p95={:<8} max={:<8} us   \
         degraded n={:<3} p50={:<8} p95={:<8} max={} us",
        phase.completed.count,
        phase.completed.p50_us,
        phase.completed.p95_us,
        phase.completed.max_us,
        phase.degraded.count,
        phase.degraded.p50_us,
        phase.degraded.p95_us,
        phase.degraded.max_us,
    );
}

fn print_throughput(t: &CampaignThroughput) {
    println!(
        "throughput: {} completed + {} degraded of {} cells in {:.1} ms on {} workers \
         ({:.0} cells/sec, {} us cell time, {} hypercalls)",
        t.completed_cells,
        t.degraded_cells,
        t.cells,
        t.elapsed_us as f64 / 1000.0,
        t.workers,
        t.cells_per_sec,
        t.total_cell_wall_time_us,
        t.total_hypercalls,
    );
    println!(
        "  snapshot: {} frames, {} shared at peak, {} COW-copied, {} chunks privatized",
        t.snapshot.frames_total,
        t.snapshot.frames_shared,
        t.snapshot.frames_copied,
        t.snapshot.chunks_privatized,
    );
}

fn print_report(report: &CampaignReport) {
    println!("{}", report.render_table3());

    println!("RQ1 (reproduce exploit effects on the vulnerable version):");
    for cell in report.cells().iter().filter(|c| c.version == XenVersion::V4_6) {
        println!(
            "  {:<13} {:<9} -> state {} violation {}",
            cell.use_case,
            cell.mode.to_string(),
            cell.erroneous_state,
            cell.violated()
        );
    }

    println!("\nRQ2 (inject states on non-vulnerable versions): all Err. State cells above");
    println!("RQ3 (assessment): Xen 4.13 handles XSA-212-priv and XSA-182-test — the");
    println!("post-XSA-213 hardening removed the RWX linear-pagetable mapping and");
    println!("rejects writable self-maps during walks.\n");

    // Exploit failure signatures on fixed versions (§VII).
    println!("exploit attempts on fixed versions:");
    for cell in report
        .cells()
        .iter()
        .filter(|c| c.mode == Mode::Exploit && c.version != XenVersion::V4_6)
    {
        println!(
            "  {:<13} on {:<4} -> {}",
            cell.use_case,
            cell.version.to_string(),
            cell.error
                .as_ref()
                .map(ToString::to_string)
                .unwrap_or_else(|| "(succeeded?!)".to_owned())
        );
    }

    // Harness degradation is reported separately from assessment data:
    // a crashed or timed-out cell tells us nothing about the version
    // under test, so it must not be silently folded into the tables.
    let degraded: Vec<_> = report.degraded_cells().collect();
    if !degraded.is_empty() {
        println!("\ndegraded cells (harness failures, excluded from assessment):");
        for cell in &degraded {
            println!(
                "  {:<13} on {:<4} {:<9} -> {}",
                cell.use_case,
                cell.version.to_string(),
                cell.mode.to_string(),
                cell.error
                    .as_ref()
                    .map(ToString::to_string)
                    .unwrap_or_else(|| format!("{:?}", cell.outcome))
            );
        }
    }
}

/// The paper campaign with every grid/engine option applied.
fn configured_campaign(opts: &Options, workers: usize) -> Campaign {
    let mut campaign = paper_campaign().jobs(workers);
    if let Some(chunk) = opts.chunk_frames {
        campaign = campaign.world_factory(standard_world_factory(Some(chunk)));
    }
    if let Some(shard) = opts.shard {
        campaign = campaign.shard(shard);
    }
    campaign
}

fn print_stream(outcome: &StreamOutcome) {
    let r = &outcome.report;
    println!("{}", r.render_keys());
    println!(
        "stream totals: {} cells ({} completed, {} degraded), {} erroneous states, \
         {} violated, {} handled, {} hypercalls",
        r.cells, r.completed, r.degraded, r.erroneous_states, r.violated_cells, r.handled,
        r.hypercalls,
    );
    let s = outcome.stats;
    println!(
        "  pipeline: {} workers, {:.1} ms, {:.0} cells/sec; merge {} us",
        s.workers,
        s.elapsed_us as f64 / 1000.0,
        s.cells_per_sec,
        s.merge_us,
    );
}

/// `BENCH_campaign.json`: the classic throughput sweep under `table3`,
/// streamed-engine records under `stream`, the checkpoint-journal
/// overhead measurement under `checkpoint`, the always-on
/// flight-recorder overhead measurement under `flight`, and the
/// memory-substrate microbenchmarks (chunked COW privatization and
/// batched `mmu_update`) under `mem`.
#[derive(serde::Serialize)]
struct BenchFile {
    table3: Vec<CampaignThroughput>,
    stream: Vec<StreamBench>,
    checkpoint: Vec<CheckpointBench>,
    flight: Vec<FlightBench>,
    mem: Vec<MemBench>,
}

/// Memory-substrate microbenchmarks, regenerated with the campaign so
/// the committed numbers track the committed code.
///
/// * Privatization: after a COW snapshot of a fully-materialized
///   `frames`-frame memory, the first write must copy one chunk, not
///   the world. `monolithic_privatize_ns` pins the pre-chunking
///   behaviour (one world-sized chunk); the chunked path is gated ≥5×
///   faster.
/// * Batching: one 64-entry `mmu_update` hypercall vs 64 singleton
///   calls doing identical validation work (informational, not gated).
#[derive(serde::Serialize)]
struct MemBench {
    frames: u64,
    chunk_frames: u64,
    /// ns per snapshot-clone + 1-frame write, default chunking.
    chunked_privatize_ns: f64,
    /// ns per snapshot-clone + 1-frame write, one world-sized chunk.
    monolithic_privatize_ns: f64,
    /// `monolithic_privatize_ns / chunked_privatize_ns` (gated ≥ 5).
    privatize_speedup: f64,
    batch_entries: u64,
    /// ns to apply the 64 updates as 64 singleton hypercalls.
    singleton_batch_ns: f64,
    /// ns to apply the same 64 updates as one batched hypercall.
    batched_batch_ns: f64,
    /// `singleton_batch_ns / batched_batch_ns`.
    batch_speedup: f64,
}

/// ns per COW-snapshot + single-frame write at a given chunk size,
/// best-of-`rounds` to shrug off scheduler noise. Every frame of the
/// base memory is materialized first so the privatization pays the
/// real per-frame copy, not the all-zero shortcut.
fn privatize_ns(frames: usize, chunk_frames: usize, iters: u32, rounds: u32) -> f64 {
    let mut base = MachineMemory::with_chunk_frames(frames, chunk_frames);
    for f in 0..frames {
        base.write(Mfn::new(f as u64).base(), &[1u8]).expect("frame in range");
    }
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let start = Instant::now();
        for i in 0..iters {
            let mut snap = base.clone();
            snap.write_u64(Mfn::new(8).base().offset(8), u64::from(i)).expect("frame in range");
            std::hint::black_box(&snap);
        }
        best = best.min(start.elapsed().as_nanos() as f64 / f64::from(iters));
    }
    best
}

/// ns to apply 64 valid L1 `mmu_update`s, either as one batched
/// hypercall or as 64 singletons, best-of-`rounds`.
fn mmu_update_ns(batch: bool, iters: u32, rounds: u32) -> f64 {
    const LINK: PteFlags = PteFlags::PRESENT.union(PteFlags::RW).union(PteFlags::USER);
    let (mut world, attacker) = attack_world(XenVersion::V4_8, false);
    let (hv, kernel) = world.hv_and_kernel_mut(attacker).expect("attacker has a kernel");
    let (_, data, _) = kernel.alloc_heap_page(hv).expect("heap page allocates");
    let l1 = kernel.tables().l1;
    let updates: Vec<MmuUpdate> = (300..364)
        .map(|i| {
            MmuUpdate::normal(
                l1.base().offset(i * 8).raw(),
                PageTableEntry::new(data, LINK).raw(),
            )
        })
        .collect();
    let hv = world.hv_mut();
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let start = Instant::now();
        for _ in 0..iters {
            if batch {
                hv.hc_mmu_update(attacker, &updates).expect("batch validates");
            } else {
                for u in &updates {
                    hv.hc_mmu_update(attacker, std::slice::from_ref(u)).expect("update validates");
                }
            }
        }
        best = best.min(start.elapsed().as_nanos() as f64 / f64::from(iters));
    }
    best
}

/// One flight-recorder overhead measurement: the synthetic grid
/// streamed with the recorder at its default capacity vs disabled.
/// The recorder is always-on in production, so its cost is gated
/// < 5% of the recorder-off baseline.
#[derive(serde::Serialize)]
struct FlightBench {
    cells: u64,
    workers: u64,
    /// Per-worker ring capacity of the recorder-on side.
    capacity: u64,
    recorder_off_cells_per_sec: f64,
    recorder_on_cells_per_sec: f64,
    /// Throughput lost to the recorder, percent of the off baseline.
    overhead_pct: f64,
}

/// One checkpoint-overhead measurement: the synthetic grid streamed
/// with and without journaling at the default fold interval. Two
/// entries land in the bench file: the default configuration (gated
/// < 10%) and an informational run with the opt-in `--journal-slots`
/// forensic sidecar.
#[derive(serde::Serialize)]
struct CheckpointBench {
    cells: u64,
    workers: u64,
    interval: u64,
    /// Whether the opt-in per-cell forensic sidecar was enabled.
    journal_slots: bool,
    plain_cells_per_sec: f64,
    checkpointed_cells_per_sec: f64,
    /// Throughput lost to journaling, percent of the plain run.
    overhead_pct: f64,
    journal_bytes: u64,
    /// Bytes in the never-synced `<journal>.slots` forensic sidecar.
    sidecar_bytes: u64,
    fsyncs: u64,
}

fn main() {
    let opts = parse_args();
    let jobs_levels: Vec<usize> = match opts.jobs {
        Some(n) => vec![n],
        None => vec![1, 4, 8],
    };
    let tracer = if opts.trace_out.is_some() { Tracer::enabled() } else { Tracer::disabled() };
    let registry = MetricsRegistry::new();

    let mut entries: Vec<CampaignThroughput> = Vec::new();
    let mut stream_entries: Vec<StreamBench> = Vec::new();
    let mut checkpoint_entries: Vec<CheckpointBench> = Vec::new();
    let mut flight_entries: Vec<FlightBench> = Vec::new();
    let shard_note = opts.shard.map(|s| format!(", shard {s}")).unwrap_or_default();

    // The normalized report written by `--report-out`: a classic
    // CampaignReport or a mergeable StreamReport depending on engine.
    let report_json: Option<String>;

    if opts.stream {
        let mut last_outcome: Option<StreamOutcome> = None;
        for (i, &workers) in jobs_levels.iter().enumerate() {
            // The trace and metrics hooks are attached to the last
            // level only, so `--trace-out` / `--metrics-out` describe
            // one run instead of interleaving the whole sweep.
            let last = i == jobs_levels.len() - 1;
            let mut campaign = configured_campaign(&opts, workers);
            if last {
                campaign = campaign.tracer(tracer.clone()).metrics(registry.clone());
            }
            eprintln!(
                "streaming the full campaign ({} cells, {workers} workers{shard_note}) ...",
                campaign.grid().shard_len(opts.shard),
            );
            let outcome = campaign.run_streaming_with_jobs(workers);
            stream_entries.push(outcome.bench_entry("table3"));
            if last {
                last_outcome = Some(outcome);
            }
        }
        let outcome = last_outcome.expect("at least one jobs level ran");
        print_stream(&outcome);
        report_json = opts
            .report_out
            .is_some()
            .then(|| outcome.report.normalized().to_json().expect("report serializes"));
        if opts.json {
            println!("\n{}", outcome.report.to_json().expect("report serializes"));
        }
    } else {
        let mut last_report: Option<CampaignReport> = None;
        for (i, &workers) in jobs_levels.iter().enumerate() {
            let last = i == jobs_levels.len() - 1;
            let mut campaign = configured_campaign(&opts, workers);
            if last {
                campaign = campaign.tracer(tracer.clone()).metrics(registry.clone());
            }
            eprintln!(
                "running the full campaign ({} cells, {workers} workers{shard_note}) ...",
                campaign.grid().shard_len(opts.shard),
            );
            let start = Instant::now();
            let report = campaign.run();
            let elapsed = start.elapsed();
            entries.push(CampaignThroughput::new(&report, workers, elapsed.as_micros() as u64));
            if last {
                last_report = Some(report);
            }
        }
        let report = last_report.expect("at least one jobs level ran");
        print_report(&report);

        // Throughput summary: one entry per jobs level.
        println!();
        for t in &entries {
            print_throughput(t);
        }
        println!("per-phase latency of the last run (completed vs degraded cells):");
        let final_entry = entries.last().expect("entries is non-empty");
        print_phase("boot", &final_entry.latency.boot);
        print_phase("inject", &final_entry.latency.inject);
        print_phase("monitor", &final_entry.latency.monitor);
        report_json = opts
            .report_out
            .is_some()
            .then(|| report.normalized().to_json().expect("report serializes"));
        if opts.json {
            println!("\n{}", report.to_json().expect("report serializes"));
        }
    }

    // Flight-recorder overhead on the Table III grid: the per-worker
    // forensic ring is always-on (default capacity 256), so its cost is
    // gated < 5% against a recorder-off baseline on real campaign
    // cells. Trials are boosted so one run is long enough to time, and
    // each side is measured best-of-3 with the runs interleaved (up to
    // best-of-6 if the gate would otherwise fail): a single
    // back-to-back pair is dominated by scheduler noise on shared
    // machines, and the paired minima estimate each pipeline's true
    // floor. Like the synthetic grid below, the measurement runs on the
    // full sweep only: a timing gate inside the `--jobs` determinism
    // steps would fail them on noisy hosts.
    if opts.jobs.is_none() {
        let flight_workers = 4;
        let flight_campaign = || paper_campaign().trials(100).jobs(flight_workers);
        eprintln!(
            "measuring flight-recorder overhead (paper grid x100 trials, \
             {flight_workers} workers) ..."
        );
        let baseline = flight_campaign().flight_capacity(0).run_streaming_with_jobs(flight_workers);
        let reference = baseline.report.normalized().to_json().expect("report serializes");
        let mut off_best = baseline.stats.cells_per_sec;
        let mut on_best = 0.0f64;
        let mut flight_pairs = 0u64;
        loop {
            let on = flight_campaign().run_streaming_with_jobs(flight_workers);
            assert_eq!(
                on.report.normalized().to_json().expect("report serializes"),
                reference,
                "the flight recorder must not change the report"
            );
            on_best = on_best.max(on.stats.cells_per_sec);
            let off = flight_campaign().flight_capacity(0).run_streaming_with_jobs(flight_workers);
            off_best = off_best.max(off.stats.cells_per_sec);
            flight_pairs += 1;
            let settled = on_best >= off_best * 0.95;
            if (flight_pairs >= 3 && settled) || flight_pairs >= 6 {
                break;
            }
        }
        let flight_overhead_pct = 100.0 * (1.0 - on_best / off_best);
        println!(
            "\nflight-recorder overhead: {off_best:.0} -> {on_best:.0} cells/sec \
             ({flight_overhead_pct:+.1}%) at ring capacity {DEFAULT_FLIGHT_CAPACITY}",
        );
        assert!(
            flight_overhead_pct < 5.0,
            "the always-on flight recorder must cost < 5% throughput, \
             measured {flight_overhead_pct:.1}%"
        );
        flight_entries.push(FlightBench {
            cells: baseline.report.cells,
            workers: baseline.stats.workers,
            capacity: DEFAULT_FLIGHT_CAPACITY as u64,
            recorder_off_cells_per_sec: off_best,
            recorder_on_cells_per_sec: on_best,
            overhead_pct: flight_overhead_pct,
        });
    }

    // The synthetic ~100k-cell streamed grid: streamed throughput at a
    // scale where the engine and harness dominate. Default-on for the full sweep, off for explicit `--jobs` runs (CI
    // determinism steps stay fast); `--synthetic-cells` overrides.
    let synthetic_cells = opts.synthetic_cells.unwrap_or(if opts.jobs.is_none() { 100_002 } else { 0 });
    if synthetic_cells > 0 {
        let trials = synthetic_cells.div_ceil(3);
        let workers = opts.jobs.unwrap_or(4);
        // Both the plain and the checkpointed run carry a metrics
        // registry so the overhead comparison isolates the journal
        // writes (per-cell metrics recording is not free and must be
        // paid identically on both sides).
        let plain_registry = MetricsRegistry::new();
        let campaign =
            synthetic_campaign(SYNTHETIC_SEED, trials).metrics(plain_registry.clone());
        eprintln!("streaming the synthetic grid ({} cells, {workers} workers) ...", trials * 3);
        let outcome = campaign.run_streaming_with_jobs(workers);
        let stats = outcome.stats;
        println!(
            "\nsynthetic streamed grid: {} cells at {:.0} cells/sec on {} workers",
            outcome.report.cells, stats.cells_per_sec, stats.workers,
        );
        stream_entries.push(outcome.bench_entry(format!("synthetic_{}", trials * 3)));

        // Checkpoint overhead on the same grid: journaling at the
        // default fold interval must cost < 10% of throughput. The
        // journal reuses the plain run's worker count so the two
        // pipelines differ only in the journal writes. Each side is
        // measured best-of-3 with the runs interleaved: shared machines
        // see multi-hundred-millisecond scheduler noise on a ~1.5 s
        // run, so a single back-to-back pair routinely reports 2-25%
        // for the same binary. The paired minima estimate the true
        // floor of each pipeline; the gate compares those.
        let journal = std::env::temp_dir()
            .join(format!("hvsim-table3-{}.journal", std::process::id()));
        eprintln!("streaming the synthetic grid again with a checkpoint journal ...");
        let ckpt_registry = MetricsRegistry::new();
        let mut plain_best = stats.cells_per_sec;
        let mut ckpt_best = 0.0f64;
        let mut journal_bytes;
        let mut ckpt_runs = 0u64;
        // Best-of-3 interleaved pairs, extended up to best-of-6 when
        // the gate would otherwise fail: on a busy shared machine all
        // three checkpointed runs can be unlucky at once, and extra
        // paired samples converge both minima to their true floors.
        loop {
            let ckpt = synthetic_campaign(SYNTHETIC_SEED, trials)
                .jobs(workers)
                .metrics(ckpt_registry.clone())
                .run_streaming_checkpointed(&journal)
                .expect("checkpoint journal opens in temp dir");
            assert_eq!(
                ckpt.report.normalized().to_json().expect("report serializes"),
                outcome.report.normalized().to_json().expect("report serializes"),
                "journaling must not change the report"
            );
            ckpt_best = ckpt_best.max(ckpt.stats.cells_per_sec);
            ckpt_runs += 1;
            journal_bytes = std::fs::metadata(&journal).map(|m| m.len()).unwrap_or(0);
            let rerun = synthetic_campaign(SYNTHETIC_SEED, trials)
                .metrics(plain_registry.clone())
                .run_streaming_with_jobs(workers);
            plain_best = plain_best.max(rerun.stats.cells_per_sec);
            let settled = ckpt_best >= plain_best * 0.90;
            if (ckpt_runs >= 3 && settled) || ckpt_runs >= 6 {
                break;
            }
        }
        let snapshot = ckpt_registry.snapshot();
        // All checkpointed runs fed one registry; report one run's syncs.
        let fsyncs = snapshot
            .counters
            .iter()
            .find(|c| c.name == "campaign.checkpoint.syncs")
            .map_or(0, |c| c.value / ckpt_runs.max(1));
        let overhead_pct = 100.0 * (1.0 - ckpt_best / plain_best);
        println!(
            "checkpoint overhead: {plain_best:.0} -> {ckpt_best:.0} cells/sec \
             ({overhead_pct:+.1}%), {journal_bytes} journal bytes, {fsyncs} fsyncs",
        );
        assert!(
            overhead_pct < 10.0,
            "checkpoint journaling at the default interval must cost < 10% throughput, \
             measured {overhead_pct:.1}%"
        );
        checkpoint_entries.push(CheckpointBench {
            cells: outcome.report.cells,
            workers: stats.workers,
            interval: 1024,
            journal_slots: false,
            plain_cells_per_sec: plain_best,
            checkpointed_cells_per_sec: ckpt_best,
            overhead_pct,
            journal_bytes,
            sidecar_bytes: 0,
            fsyncs,
        });

        // One informational run with the opt-in per-cell forensic
        // sidecar (`--journal-slots`): its cost is reported, not gated —
        // unsynced per-cell writes are storage-dependent and the
        // default path above is what the < 10% contract covers.
        eprintln!("streaming once more with the --journal-slots sidecar ...");
        let slots_registry = MetricsRegistry::new();
        let slots = synthetic_campaign(SYNTHETIC_SEED, trials)
            .jobs(workers)
            .journal_slots(true)
            .metrics(slots_registry.clone())
            .run_streaming_checkpointed(&journal)
            .expect("checkpoint journal opens in temp dir");
        let sidecar = format!("{}.slots", journal.display());
        let sidecar_bytes = std::fs::metadata(&sidecar).map(|m| m.len()).unwrap_or(0);
        let slots_journal_bytes = std::fs::metadata(&journal).map(|m| m.len()).unwrap_or(0);
        std::fs::remove_file(&journal).ok();
        std::fs::remove_file(&sidecar).ok();
        let slots_overhead = 100.0 * (1.0 - slots.stats.cells_per_sec / plain_best);
        println!(
            "  with --journal-slots: {:.0} cells/sec ({slots_overhead:+.1}%), \
             +{sidecar_bytes} sidecar bytes",
            slots.stats.cells_per_sec,
        );
        checkpoint_entries.push(CheckpointBench {
            cells: slots.report.cells,
            workers: slots.stats.workers,
            interval: 1024,
            journal_slots: true,
            plain_cells_per_sec: plain_best,
            checkpointed_cells_per_sec: slots.stats.cells_per_sec,
            overhead_pct: slots_overhead,
            journal_bytes: slots_journal_bytes,
            sidecar_bytes,
            fsyncs: slots_registry
                .snapshot()
                .counters
                .iter()
                .find(|c| c.name == "campaign.checkpoint.syncs")
                .map_or(0, |c| c.value),
        });
    }

    // Memory-substrate microbenchmarks: fast enough to run on every
    // invocation, so the committed numbers always track the code.
    let mem_entries = {
        const FRAMES: usize = 4096;
        eprintln!("measuring chunked-COW privatization and mmu_update batching ...");
        let chunked = privatize_ns(FRAMES, DEFAULT_CHUNK_FRAMES, 200, 3);
        let monolithic = privatize_ns(FRAMES, FRAMES, 200, 3);
        let privatize_speedup = monolithic / chunked;
        let singleton = mmu_update_ns(false, 100, 3);
        let batched = mmu_update_ns(true, 100, 3);
        println!(
            "\nframe privatization (1 touched frame, {FRAMES}-frame world): \
             {monolithic:.0} ns monolithic -> {chunked:.0} ns chunked ({privatize_speedup:.1}x)",
        );
        println!(
            "mmu_update (64 entries): {singleton:.0} ns as singletons -> {batched:.0} ns \
             batched ({:.2}x)",
            singleton / batched,
        );
        assert!(
            privatize_speedup >= 5.0,
            "chunked COW privatization must be >= 5x faster than the monolithic \
             baseline for a 1-touched-frame snapshot, measured {privatize_speedup:.1}x"
        );
        vec![MemBench {
            frames: FRAMES as u64,
            chunk_frames: DEFAULT_CHUNK_FRAMES as u64,
            chunked_privatize_ns: chunked,
            monolithic_privatize_ns: monolithic,
            privatize_speedup,
            batch_entries: 64,
            singleton_batch_ns: singleton,
            batched_batch_ns: batched,
            batch_speedup: singleton / batched,
        }]
    };

    let bench = serde_json::to_string_pretty(&BenchFile {
        table3: entries,
        stream: stream_entries,
        checkpoint: checkpoint_entries,
        flight: flight_entries,
        mem: mem_entries,
    })
    .expect("throughput serializes");
    match std::fs::write("BENCH_campaign.json", bench) {
        Ok(()) => eprintln!("wrote BENCH_campaign.json"),
        Err(e) => eprintln!("could not write BENCH_campaign.json: {e}"),
    }

    if let Some(path) = &opts.report_out {
        // The *normalized* report: per-cell timing and COW stats
        // zeroed, so runs at different jobs levels or chunk sizes must
        // produce byte-identical files (CI diffs them), and normalized
        // streamed shard reports merge into normalized wholes.
        let json = report_json.expect("report captured when --report-out is set");
        match std::fs::write(path, json) {
            Ok(()) => eprintln!("wrote normalized report to {path}"),
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                exit(1);
            }
        }
    }
    if let Some(path) = &opts.trace_out {
        let events = tracer.drain();
        match std::fs::write(path, to_jsonl(&events)) {
            Ok(()) => eprintln!("wrote {} trace events to {path}", events.len()),
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                exit(1);
            }
        }
    }
    if let Some(path) = &opts.metrics_out {
        let snapshot =
            serde_json::to_string_pretty(&registry.snapshot()).expect("snapshot serializes");
        match std::fs::write(path, snapshot) {
            Ok(()) => eprintln!("wrote metrics snapshot to {path}"),
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                exit(1);
            }
        }
    }
}
