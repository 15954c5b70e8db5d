//! `perf`: the campaign benchmark. Six workloads, end-to-end metrics
//! measured with tracing off, and an outside-in per-layer trace. See
//! `README.md` beside this file for the metrics, the workloads and how
//! to read a comparison.
//!
//! ```text
//! perf --workload W [--seed S] [--seconds N] [--trace 0|1]
//! perf run [--workload W]... [--seed S] [--out FILE]
//! perf trace [--workload W]... [--seed S] [--trace-out FILE]
//! perf compare BASE.json NEW.json
//! ```
//!
//! The first form is one run of one workload; the last line it prints
//! is a JSON object with `correct`, `attempted`, `failed` and the
//! end-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics.

mod compare;
mod layers;
mod measure;
mod metrics;
mod runs;
mod stats;
mod workloads;

use measure::Host;
use metrics::{unit_of, END_TO_END, PER_LAYER};
use runs::{measure_run, trace_run, Results, RunRecord, Session, CHECKPOINT_PROBE_TRIALS};
use serde::{Deserialize, Serialize};
use stats::{median, quartiles};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::{exit, Command};
use workloads::{Workload, DEFAULT_SEED};

/// Seconds of engine calls per run when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 5.0;

/// Interleaved repetitions of every workload in `perf run`.
const REPS: u64 = 5;

const USAGE: &str = "usage:
  perf --workload W [--seed S] [--seconds N] [--trace 0|1]
  perf run [--workload W]... [--seed S] [--out FILE]
  perf trace [--workload W]... [--seed S] [--trace-out FILE]
  perf compare BASE.json NEW.json
workloads: paper_stream paper_collect synthetic_stream synthetic_checkpoint
  xsa148_scan randomized_pt";

#[derive(Debug)]
struct Opts {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    trace_out: Option<String>,
    positional: Vec<String>,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

/// Parses `args`, accepting only the flags in `allowed`.
fn parse(args: &[String], allowed: &[&str]) -> Result<Opts, String> {
    let mut opts = Opts {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        trace_out: None,
        positional: Vec::new(),
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            opts.positional.push(arg.clone());
            continue;
        }
        if !allowed.contains(&arg.as_str()) {
            return Err(format!("unknown option {arg}\n{USAGE}"));
        }
        let value = args.next().ok_or_else(|| format!("{arg} needs a value"))?;
        let bad = || format!("bad value for {arg}: {value}");
        match arg.as_str() {
            "--workload" => opts.workloads.push(
                Workload::parse(value)
                    .ok_or_else(|| format!("unknown workload {value}\n{USAGE}"))?,
            ),
            "--seed" => opts.seed = parse_u64(value).ok_or_else(bad)?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => opts.out = Some(value.clone()),
            "--trace-out" => opts.trace_out = Some(value.clone()),
            _ => unreachable!("every allowed option is handled"),
        }
    }
    if opts.workloads.is_empty() {
        opts.workloads = Workload::ALL.to_vec();
    }
    Ok(opts)
}

#[derive(Serialize, Deserialize)]
struct Reported {
    value: f64,
    unit: String,
}

#[derive(Serialize, Deserialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Reported>,
}

/// The one-line JSON result of a single run.
fn result_line(record: &RunRecord) -> String {
    let metrics = record
        .metrics
        .iter()
        .map(|(name, &value)| {
            let unit = unit_of(name)
                .expect("every reported metric is declared")
                .to_owned();
            (name.clone(), Reported { value, unit })
        })
        .collect();
    let line = ResultLine {
        correct: record.failed == 0,
        attempted: record.attempted,
        failed: record.failed,
        metrics,
    };
    serde_json::to_string(&line).expect("the result line serializes")
}

/// One run of one workload, reported on the last line of stdout.
fn cmd_single(args: &[String]) -> Result<i32, String> {
    let opts = parse(args, &["--workload", "--seed", "--seconds", "--trace"])?;
    let [workload] = opts.workloads[..] else {
        return Err(format!("give exactly one --workload\n{USAGE}"));
    };
    if !opts.positional.is_empty() {
        return Err(format!(
            "unexpected argument {}\n{USAGE}",
            opts.positional[0]
        ));
    }
    let mut session = Session::new(opts.seed, opts.seconds);
    let record = if opts.trace {
        let tracer = hvsim_obs::Tracer::enabled();
        let trials = workload.default_trials();
        trace_run(
            workload,
            &mut session,
            &tracer,
            0,
            trials,
            CHECKPOINT_PROBE_TRIALS,
        )?
        .0
    } else {
        measure_run(workload, &mut session, workload.default_trials())?
    };
    for (name, value) in &record.metrics {
        eprintln!("{:<30} {value:>16.4} {}", name, unit_of(name).unwrap_or(""));
    }
    println!("{}", result_line(&record));
    Ok(0)
}

fn print_summary(results: &Results, workloads: &[Workload]) {
    println!(
        "{:<22} {:<16} {:<8} {:<7} {:>13} {:>13} {:>13} {:>13} {:>13} {:>3}",
        "workload", "metric", "unit", "better", "median", "q1", "q3", "min", "max", "n"
    );
    for w in workloads {
        for metric in &END_TO_END {
            let v: Vec<f64> = results
                .runs
                .iter()
                .filter(|r| r.workload == w.name())
                .filter_map(|r| r.metrics.get(metric.name).copied())
                .collect();
            let (q1, q3) = quartiles(&v);
            let min = v.iter().copied().fold(f64::INFINITY, f64::min);
            let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            println!(
                "{:<22} {:<16} {:<8} {:<7} {:>13.4} {:>13.4} {:>13.4} {:>13.4} {:>13.4} {:>3}",
                w.name(),
                metric.name,
                metric.unit,
                metric.better.label(),
                median(&v),
                q1,
                q3,
                min,
                max,
                v.len()
            );
        }
        let (failed, attempted) = results
            .runs
            .iter()
            .filter(|r| r.workload == w.name())
            .fold((0, 0), |(f, a), r| (f + r.failed, a + r.attempted));
        println!(
            "{:<22} {:<16} {failed} of {attempted} cells",
            w.name(),
            "failed"
        );
    }
}

fn print_layers(workload: Workload, record: &RunRecord, samples: &BTreeMap<String, u64>) {
    println!("{} (traced):", workload.name());
    for (name, unit, _) in PER_LAYER {
        let family = name.trim_end_matches(".p50").trim_end_matches(".p999");
        let n = samples
            .get(family)
            .map(|n| format!("  n={n}"))
            .unwrap_or_default();
        println!("  {name:<30} {:>14.4} {unit}{n}", record.metrics[name]);
    }
}

/// One run in a child process: this binary in its one-run form, so no
/// run inherits the heap (and so the resident set) of the runs before
/// it, and every number is what that form reports.
fn child_run(w: Workload, opts: &Opts, trace: bool) -> Result<RunRecord, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            w.name(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .args([
            "--seed",
            &opts.seed.to_string(),
            "--seconds",
            &opts.seconds.to_string(),
        ])
        .output()
        .map_err(|e| format!("starting the {} run: {e}", w.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .filter(|_| out.status.success())
        .ok_or_else(|| {
            let stderr = String::from_utf8_lossy(&out.stderr);
            format!("the {} run failed ({}): {stderr}", w.name(), out.status)
        })?;
    let result: ResultLine = serde_json::from_str(line)
        .map_err(|e| format!("the {} run printed {line}: {e}", w.name()))?;
    Ok(RunRecord {
        workload: w.name().to_owned(),
        attempted: result.attempted,
        failed: result.failed,
        metrics: result
            .metrics
            .into_iter()
            .map(|(name, m)| (name, m.value))
            .collect(),
    })
}

/// Every workload, round-robin, `REPS` times; then one traced run of
/// each for the per-layer metrics.
fn cmd_run(args: &[String]) -> Result<i32, String> {
    let opts = parse(args, &["--workload", "--seed", "--out"])?;
    let mut results = Results {
        host: Host::detect(),
        seed: opts.seed,
        seconds: opts.seconds,
        runs: Vec::new(),
        layers: BTreeMap::new(),
    };
    for rep in 0..REPS {
        for &w in &opts.workloads {
            let record = child_run(w, &opts, false)?;
            eprintln!(
                "rep {}/{} {:<22} {:>10.0} cells/s {:>8.3} us/cell {:>8.1} MiB {:.4} s set-up",
                rep + 1,
                REPS,
                w.name(),
                record.metrics["cells_per_s"],
                record.metrics["cpu_us_per_cell"],
                record.metrics["peak_rss_mb"],
                record.metrics["setup_s"],
            );
            results.runs.push(record);
        }
    }
    let mut failed_traced = 0;
    for &w in &opts.workloads {
        eprintln!("tracing {} ...", w.name());
        let record = child_run(w, &opts, true)?;
        failed_traced += record.failed;
        results.layers.insert(w.name().to_owned(), record.metrics);
    }
    print_summary(&results, &opts.workloads);
    if let Some(path) = &opts.out {
        let json = serde_json::to_string_pretty(&results).expect("results serialize");
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    let failed: u64 = results.runs.iter().map(|r| r.failed).sum::<u64>() + failed_traced;
    Ok(i32::from(failed > 0))
}

/// One traced run per workload; prints the per-layer metrics and can
/// write every span as JSONL, one workload after another.
fn cmd_trace(args: &[String]) -> Result<i32, String> {
    let opts = parse(args, &["--workload", "--seed", "--trace-out"])?;
    let mut session = Session::new(opts.seed, opts.seconds);
    let mut out = match &opts.trace_out {
        Some(path) => Some((
            std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?,
            path,
        )),
        None => None,
    };
    let mut failed = 0;
    for (index, &w) in opts.workloads.iter().enumerate() {
        // Each workload's cells get their own range of trace shards.
        let shard_base = (index as u64 + 1) * 1_000_000;
        let tracer = hvsim_obs::Tracer::enabled();
        let trials = w.default_trials();
        let (record, samples) = trace_run(
            w,
            &mut session,
            &tracer,
            shard_base,
            trials,
            CHECKPOINT_PROBE_TRIALS,
        )?;
        print_layers(w, &record, &samples);
        failed += record.failed;
        if let Some((file, path)) = &mut out {
            let events = tracer.drain();
            file.write_all(hvsim_obs::to_jsonl(&events).as_bytes())
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {} {} trace events to {path}", events.len(), w.name());
        }
    }
    if let Some((file, path)) = out {
        file.sync_all()
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(i32::from(failed > 0))
}

fn cmd_compare(args: &[String]) -> Result<i32, String> {
    let opts = parse(args, &[])?;
    let [base, new] = &opts.positional[..] else {
        return Err(format!("compare needs two results files\n{USAGE}"));
    };
    let load = |path: &str| -> Result<Results, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))
    };
    let (text, regressed) = compare::compare(&load(base)?, &load(new)?);
    print!("{text}");
    Ok(i32::from(regressed))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("help" | "--help" | "-h") => {
            println!("{USAGE}");
            Ok(0)
        }
        _ => cmd_single(&args),
    };
    match outcome {
        Ok(code) => exit(code),
        Err(message) => {
            eprintln!("perf: {message}");
            exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    /// `BENCHMARK.json` at the repository root.
    fn benchmark_json() -> Value {
        serde_json::from_str(include_str!("../../../../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses")
    }

    fn field<'a>(object: &'a Value, key: &str) -> &'a Value {
        object
            .as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no {key} in {object:?}"))
    }

    fn declared(list: &str) -> Vec<(String, String, String)> {
        field(&benchmark_json(), list)
            .as_seq()
            .expect("a list")
            .iter()
            .map(|m| {
                let text = |k| field(m, k).as_str().expect("a string").to_owned();
                (text("name"), text("unit"), text("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    m.unit.to_owned(),
                    m.better.label().to_owned(),
                )
            })
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.label().to_owned()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
        let bounds: Vec<f64> = field(&benchmark_json(), "end_to_end")
            .as_seq()
            .expect("a list")
            .iter()
            .map(|m| match field(m, "bound") {
                Value::Float(b) => *b,
                other => panic!("bound {other:?}"),
            })
            .collect();
        assert_eq!(
            bounds,
            END_TO_END.iter().map(|m| m.bound).collect::<Vec<_>>()
        );
        let json = benchmark_json();
        let workloads: Vec<&str> = field(&json, "workloads")
            .as_seq()
            .expect("a list")
            .iter()
            .map(|w| field(w, "name").as_str().expect("a string"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn every_name_is_well_formed() {
        let names = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|l| l.0))
            .chain(Workload::ALL.iter().map(|w| w.name()));
        let mut seen = std::collections::BTreeSet::new();
        for name in names {
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(seen.insert(name), "{name} is used twice");
        }
    }

    #[test]
    fn options_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let o = parse(
            &args("--workload xsa148_scan --seed 0x10 --seconds 2 --trace 1"),
            &["--workload", "--seed", "--seconds", "--trace"],
        )
        .unwrap();
        assert_eq!(
            (o.workloads, o.seed, o.seconds, o.trace),
            (vec![Workload::Xsa148Scan], 16, 2.0, true)
        );
        assert!(parse(&args("--trace 2"), &["--trace"]).is_err());
        assert!(parse(&args("--out f"), &["--trace"]).is_err());
        assert!(parse(&args("--workload nope"), &["--workload"]).is_err());
        assert_eq!(parse(&[], &[]).unwrap().workloads, Workload::ALL.to_vec());
    }

    /// The workload at a few dozen cells passes its checks in a measured
    /// and a traced run, reports exactly the declared metrics, all
    /// finite, and traces valid JSONL.
    fn small_run_passes_and_reports_the_declared_metrics(w: Workload, trials: u64) {
        let mut session = Session::new(7, 0.01);
        session.journal = format!("perf-test-{}-{}.journal", std::process::id(), w.name()).into();
        let record = measure_run(w, &mut session, trials).unwrap();
        assert!(record.attempted > 0 && record.failed == 0, "{record:?}");
        let names: Vec<&str> = record.metrics.keys().map(String::as_str).collect();
        let mut want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        want.sort_unstable();
        assert_eq!(names, want);
        assert!(
            record.metrics.values().all(|v| v.is_finite() && *v > 0.0),
            "{record:?}"
        );

        let tracer = hvsim_obs::Tracer::enabled();
        let (traced, _) = trace_run(w, &mut session, &tracer, 0, trials, 30).unwrap();
        assert_eq!(traced.failed, 0, "{traced:?}");
        let names: Vec<&str> = traced.metrics.keys().map(String::as_str).collect();
        let mut want: Vec<&str> = PER_LAYER.iter().map(|l| l.0).collect();
        want.sort_unstable();
        assert_eq!(names, want);
        assert!(traced.metrics.values().all(|v| v.is_finite()), "{traced:?}");
        assert!(result_line(&traced).starts_with("{\"correct\":true,"));
        let events = tracer.drain();
        hvsim_obs::parse_jsonl(&hvsim_obs::to_jsonl(&events)).expect("the trace is valid JSONL");
        assert!(events.iter().any(|e| e.path == "cell/world_clone"));
    }

    #[test]
    fn small_paper_stream_run() {
        small_run_passes_and_reports_the_declared_metrics(Workload::PaperStream, 2);
    }

    #[test]
    fn small_paper_collect_run() {
        small_run_passes_and_reports_the_declared_metrics(Workload::PaperCollect, 2);
    }

    #[test]
    fn small_synthetic_stream_run() {
        small_run_passes_and_reports_the_declared_metrics(Workload::SyntheticStream, 30);
    }

    #[test]
    fn small_synthetic_checkpoint_run() {
        small_run_passes_and_reports_the_declared_metrics(Workload::SyntheticCheckpoint, 30);
    }

    #[test]
    fn small_xsa148_scan_run() {
        small_run_passes_and_reports_the_declared_metrics(Workload::Xsa148Scan, 20);
    }

    #[test]
    fn small_randomized_pt_run() {
        small_run_passes_and_reports_the_declared_metrics(Workload::RandomizedPt, 60);
    }
}
