//! The Table III campaign through `intrusion-injector campaign`: its
//! normalized report does not depend on the worker count or on how the
//! grid is sharded, and its trace audits every hypercall it counts.

use hvsim_obs::{parse_jsonl, EventKind, MetricsSnapshot};
use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh scratch directory for one test's output files.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// Runs `intrusion-injector` and returns its exit code.
fn run(args: &[&str]) -> Option<i32> {
    let output = Command::new(env!("CARGO_BIN_EXE_intrusion-injector"))
        .args(args)
        .output()
        .expect("the CLI runs");
    output.status.code()
}

/// Runs `campaign <flags> --report-out <dir>/<name>` and returns the
/// report's bytes. The vulnerable versions violate, so it exits 1.
fn report(dir: &Path, name: &str, flags: &[&str]) -> Vec<u8> {
    let path = dir.join(name);
    let path = path.to_str().expect("UTF-8 path");
    let mut args = vec!["campaign"];
    args.extend_from_slice(flags);
    args.extend_from_slice(&["--report-out", path]);
    assert_eq!(run(&args), Some(1), "campaign {flags:?}");
    std::fs::read(path).expect("report written")
}

#[test]
fn reports_agree_across_jobs_levels_and_shards() {
    let dir = scratch("reports_agree_across_jobs_levels_and_shards");
    let jobs4 = report(&dir, "jobs4.json", &["--jobs", "4"]);
    let jobs1 = report(&dir, "jobs1.json", &["--jobs", "1"]);
    report(&dir, "shard0.json", &["--jobs", "4", "--shard", "0/2"]);
    report(&dir, "shard1.json", &["--jobs", "4", "--shard", "1/2"]);
    let [merged, shard0, shard1] =
        ["merged.json", "shard0.json", "shard1.json"].map(|f| dir.join(f).display().to_string());
    assert_eq!(run(&["report", "merge", &merged, &shard0, &shard1]), Some(0));
    let merged = std::fs::read(&merged).expect("merged report written");
    assert!(jobs4 == jobs1, "--jobs 1 and --jobs 4 reports differ");
    assert!(jobs4 == merged, "the merged shard reports differ from the unsharded one");
}

#[test]
fn every_counted_hypercall_has_one_audit_point() {
    let dir = scratch("every_counted_hypercall_has_one_audit_point");
    let (trace, metrics) = (dir.join("trace.jsonl"), dir.join("metrics.json"));
    let code = run(&[
        "campaign",
        "--jobs",
        "4",
        "--trace-out",
        trace.to_str().expect("UTF-8 path"),
        "--metrics-out",
        metrics.to_str().expect("UTF-8 path"),
    ]);
    assert_eq!(code, Some(1), "the vulnerable versions violate");

    let trace = std::fs::read_to_string(trace).expect("trace written");
    let points = parse_jsonl(&trace)
        .expect("the trace parses")
        .iter()
        .filter(|event| event.kind == EventKind::Point && event.path == "audit/hypercall")
        .count();
    let metrics: MetricsSnapshot =
        serde_json::from_str(&std::fs::read_to_string(metrics).expect("metrics written"))
            .expect("the metrics snapshot parses");
    let calls = metrics
        .counters
        .iter()
        .find(|c| c.name == "campaign.hypercalls")
        .map(|c| c.value)
        .expect("campaign.hypercalls counter");
    assert!(calls > 0);
    assert_eq!(points as u64, calls);
}

/// `report diff` keys a list of named maps by name: two metrics
/// snapshots that differ by one counter differ in that counter's leaves
/// alone, not in every counter listed after it.
#[test]
fn report_diff_keys_named_list_elements_by_name() {
    let dir = scratch("report_diff_keys_named_list_elements_by_name");
    let (full, short) = (dir.join("full.json"), dir.join("short.json"));
    let full = full.to_str().expect("UTF-8 path");
    let short = short.to_str().expect("UTF-8 path");
    assert_eq!(run(&["campaign", "--jobs", "2", "--metrics-out", full]), Some(1));
    let mut metrics: MetricsSnapshot =
        serde_json::from_str(&std::fs::read_to_string(full).expect("metrics written"))
            .expect("the metrics snapshot parses");
    let gone = metrics.counters.remove(1);
    assert!(metrics.counters.len() > 2, "counters follow the removed one");
    std::fs::write(short, serde_json::to_string(&metrics).expect("serializes")).expect("written");

    let output = Command::new(env!("CARGO_BIN_EXE_intrusion-injector"))
        .args(["report", "diff", full, short])
        .output()
        .expect("the CLI runs");
    assert_eq!(output.status.code(), Some(1), "the snapshots differ");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let differing: Vec<&str> =
        stdout.lines().filter(|line| line.starts_with(['-', '+', '~'])).collect();
    let key = format!("counters[{}]", gone.name);
    assert_eq!(
        differing,
        [
            format!("- {key}.name = {:?}", gone.name),
            format!("- {key}.value = {}", gone.value),
        ],
        "{stdout}"
    );
    let last = stdout.lines().last().unwrap_or_default();
    assert!(last.starts_with("2 leaves differ, "), "{stdout}");
}
