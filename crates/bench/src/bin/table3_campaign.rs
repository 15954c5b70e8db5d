//! Regenerates **Table III**: the injection campaign across all
//! versions, plus the RQ1/RQ2/RQ3 summaries of §VI–§VIII, the exploit
//! failure signatures of §VII, and any degraded cells. One streamed
//! run, with a throughput line and per-phase latency for it; the `perf`
//! benchmark is where throughput is measured and compared.
//!
//! Flags:
//!
//! * `--jobs N` — worker threads (default: one per hardware thread)
//! * `--shard i/n` — run only slots `i, i+n, i+2n, …` of the grid;
//!   shard reports merge back to the unsharded report byte-for-byte
//! * `--report-out FILE` — write the *normalized* `StreamReport` as JSON
//!   (what CI diffs across jobs levels and shardings)
//! * `--trace-out FILE` — write the campaign's structured trace as JSONL
//! * `--metrics-out FILE` — write the metrics-registry snapshot as JSON
//! * `--json` — also print the full `StreamReport` as JSON

use bench::paper_campaign;
use hvsim::XenVersion;
use hvsim_obs::{to_jsonl, MetricsRegistry, Tracer};
use intrusion_core::{
    default_jobs, Campaign, Mode, PhaseLatency, Shard, StreamOutcome, StreamReport,
};
use std::process::exit;

#[derive(Default)]
struct Options {
    jobs: Option<usize>,
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
                    "usage: table3_campaign [--jobs N] [--shard i/n] \
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

fn print_run(outcome: &StreamOutcome) {
    let (r, s) = (&outcome.report, outcome.stats);
    println!(
        "throughput: {} completed + {} degraded of {} cells in {:.1} ms on {} workers \
         ({:.0} cells/sec, {} us cell time, {} hypercalls, {} frames COW-copied; merge {} us)",
        r.completed,
        r.degraded,
        r.cells,
        s.elapsed_us as f64 / 1000.0,
        s.workers,
        s.cells_per_sec,
        r.wall_time_us,
        r.hypercalls,
        r.frames_copied,
        s.merge_us,
    );
    println!("per-phase latency (completed vs degraded cells):");
    print_phase("boot", &r.latency.boot);
    print_phase("inject", &r.latency.inject);
    print_phase("monitor", &r.latency.monitor);
}

/// Prints Table III, the RQ summaries, the §VII exploit failure
/// signatures and the degraded cells. The signatures are per-cell
/// detail the streamed report does not keep, so each of those slots is
/// replayed on `untraced` — a copy of the campaign with no tracer or
/// registry attached, which leaves the run's trace and metrics as they
/// were.
fn print_report(report: &StreamReport, untraced: &Campaign, shard: Option<Shard>) {
    println!("{}", report.render_table3());

    println!("RQ1 (reproduce exploit effects on the vulnerable version):");
    for use_case in &report.grid.use_cases {
        for mode in [Mode::Exploit, Mode::Injection] {
            if let Some(key) = report.key(use_case, XenVersion::V4_6, mode) {
                println!(
                    "  {:<13} {:<9} -> state {} violation {}",
                    use_case,
                    mode.to_string(),
                    key.erroneous_states == key.cells,
                    key.violated == key.cells,
                );
            }
        }
    }

    println!("\nRQ2 (inject states on non-vulnerable versions): all Err. State cells above");
    println!("RQ3 (assessment): Xen 4.13 handles XSA-212-priv and XSA-182-test — the");
    println!("post-XSA-213 hardening removed the RWX linear-pagetable mapping and");
    println!("rejects writable self-maps during walks.\n");

    // Exploit failure signatures on fixed versions (§VII).
    println!("exploit attempts on fixed versions:");
    let grid = untraced.grid();
    for spec in grid.shard_iter(shard) {
        if spec.mode != Mode::Exploit || spec.version == XenVersion::V4_6 {
            continue;
        }
        let Some(cell) = untraced.replay(spec.slot) else { continue };
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
    if !report.degraded_slots.is_empty() {
        println!("\ndegraded cells (harness failures, excluded from assessment):");
        for cell in report.degraded_slots.values() {
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

    eprintln!("running the full campaign ({cells} cells, {workers} workers{shard_note}) ...");
    let outcome = campaign.run_streaming_with_jobs(workers);
    print_report(&outcome.report, &paper_campaign(), opts.shard);
    println!();
    print_run(&outcome);
    if opts.json {
        println!("\n{}", outcome.report.to_json().expect("report serializes"));
    }

    if let Some(path) = &opts.report_out {
        // Per-cell timing and COW counts are zeroed, so runs at different
        // jobs levels write byte-identical files (CI diffs them), and
        // normalized shard reports merge into normalized wholes.
        let normalized = outcome.report.normalized().to_json().expect("report serializes");
        write_or_exit(path, normalized, "normalized report");
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
