//! Regenerates **Table III**: the injection campaign across all
//! versions, plus the RQ1/RQ2/RQ3 summaries of §VI–§VIII, the exploit
//! failure signatures of §VII, and any degraded cells. One run, with a
//! throughput line for it; the `perf` benchmark is where throughput is
//! measured and compared.
//!
//! Flags:
//!
//! * `--jobs N` — worker threads (default: one per hardware thread)
//! * `--stream` — run the campaign through the streaming engine instead
//!   of the collect-everything engine; prints the per-key summary and
//!   pipeline stats, and `--report-out` writes the normalized
//!   `StreamReport` (mergeable across shards)
//! * `--shard i/n` — run only slots `i, i+n, i+2n, …` of the grid;
//!   shard reports merge back to the unsharded report byte-for-byte
//! * `--report-out FILE` — write the *normalized* report as JSON
//!   (what CI diffs across jobs levels and shardings)
//! * `--trace-out FILE` — write the campaign's structured trace as JSONL
//! * `--metrics-out FILE` — write the metrics-registry snapshot as JSON
//! * `--json` — also print the full report as JSON

use bench::paper_campaign;
use hvsim::XenVersion;
use hvsim_obs::{to_jsonl, MetricsRegistry, Tracer};
use intrusion_core::{
    default_jobs, CampaignReport, CampaignThroughput, Mode, PhaseLatency, Shard, StreamOutcome,
};
use std::process::exit;
use std::time::Instant;

#[derive(Default)]
struct Options {
    jobs: Option<usize>,
    stream: bool,
    shard: Option<Shard>,
    report_out: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    json: bool,
}

fn parse_args() -> Options {
    let mut opts = Options::default();
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
                opts.jobs = Some(raw.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
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
            "--report-out" => opts.report_out = Some(value("--report-out")),
            "--trace-out" => opts.trace_out = Some(value("--trace-out")),
            "--metrics-out" => opts.metrics_out = Some(value("--metrics-out")),
            "--json" => opts.json = true,
            other => {
                eprintln!("unknown argument '{other}'");
                eprintln!(
                    "usage: table3_campaign [--jobs N] [--stream] [--shard i/n] \
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
        "  snapshot: {} frames, {} COW-copied",
        t.snapshot.frames_total, t.snapshot.frames_copied,
    );
    println!("per-phase latency (completed vs degraded cells):");
    print_phase("boot", &t.latency.boot);
    print_phase("inject", &t.latency.inject);
    print_phase("monitor", &t.latency.monitor);
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

/// Writes `contents` to `path`, exiting 1 when it cannot.
fn write_or_exit(path: &str, contents: String, what: &str) {
    match std::fs::write(path, contents) {
        Ok(()) => eprintln!("wrote {what} to {path}"),
        Err(e) => {
            eprintln!("could not write {path}: {e}");
            exit(1);
        }
    }
}

fn main() {
    let opts = parse_args();
    let workers = opts.jobs.unwrap_or_else(default_jobs);
    let tracer = if opts.trace_out.is_some() { Tracer::enabled() } else { Tracer::disabled() };
    let registry = MetricsRegistry::new();
    let mut campaign =
        paper_campaign().jobs(workers).tracer(tracer.clone()).metrics(registry.clone());
    if let Some(shard) = opts.shard {
        campaign = campaign.shard(shard);
    }
    let shard_note = opts.shard.map(|s| format!(", shard {s}")).unwrap_or_default();
    let cells = campaign.grid().shard_len(opts.shard);

    // The normalized report: a classic CampaignReport or a mergeable
    // StreamReport depending on the engine. Per-cell timing and COW
    // stats are zeroed, so runs at different jobs levels must produce
    // byte-identical files (CI diffs them), and normalized streamed
    // shard reports merge into normalized wholes.
    let normalized = if opts.stream {
        eprintln!("streaming the full campaign ({cells} cells, {workers} workers{shard_note}) ...");
        let outcome = campaign.run_streaming_with_jobs(workers);
        print_stream(&outcome);
        if opts.json {
            println!("\n{}", outcome.report.to_json().expect("report serializes"));
        }
        outcome.report.normalized().to_json()
    } else {
        eprintln!("running the full campaign ({cells} cells, {workers} workers{shard_note}) ...");
        let start = Instant::now();
        let report = campaign.run_with_jobs(workers);
        let elapsed_us = start.elapsed().as_micros() as u64;
        print_report(&report);
        println!();
        print_throughput(&CampaignThroughput::new(&report, workers, elapsed_us));
        if opts.json {
            println!("\n{}", report.to_json().expect("report serializes"));
        }
        report.normalized().to_json()
    };

    if let Some(path) = &opts.report_out {
        write_or_exit(path, normalized.expect("report serializes"), "normalized report");
    }
    if let Some(path) = &opts.trace_out {
        let events = tracer.drain();
        write_or_exit(path, to_jsonl(&events), &format!("{} trace events", events.len()));
    }
    if let Some(path) = &opts.metrics_out {
        let snapshot =
            serde_json::to_string_pretty(&registry.snapshot()).expect("snapshot serializes");
        write_or_exit(path, snapshot, "metrics snapshot");
    }
}
