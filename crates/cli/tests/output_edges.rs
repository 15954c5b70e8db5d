//! The CLI at the edges of its outputs: a closed stdout is a clean
//! exit, `report merge` never overwrites a file, a panic the campaign
//! contains is reported as a degraded slot, not by the panic hook, and
//! an output file that cannot be created stops a command before it
//! runs anything.

use intrusion_core::{CellOutcome, StreamReport};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh scratch directory for one test's output files.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_intrusion-injector"))
}

fn run(args: &[&str]) -> Output {
    cli().args(args).output().expect("the CLI runs")
}

fn path(dir: &Path, name: &str) -> String {
    dir.join(name).to_str().expect("UTF-8 path").to_owned()
}

/// `report diff a b | head -2`, with the reader gone before the first
/// write: the pipe is closed before the CLI starts, so every write
/// fails.
#[test]
fn a_closed_stdout_is_a_clean_exit() {
    let dir = scratch("a_closed_stdout_is_a_clean_exit");
    let (a, b) = (path(&dir, "a.json"), path(&dir, "b.json"));
    std::fs::write(&a, r#"{"cells":3,"tag":"x"}"#).expect("written");
    std::fs::write(&b, r#"{"cells":5,"tag":"y"}"#).expect("written");
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let output = cli()
        .args(["report", "diff", &a, &b])
        .stdout(writer)
        .output()
        .expect("the CLI runs");
    assert_eq!(output.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&output.stderr), "");
}

#[test]
fn report_merge_never_overwrites_a_file() {
    let dir = scratch("report_merge_never_overwrites_a_file");
    let [s0, s1, merged] = ["s0.json", "s1.json", "merged.json"].map(|f| path(&dir, f));
    for (shard, out) in [("0/2", &s0), ("1/2", &s1)] {
        let output = run(&["campaign", "--jobs", "2", "--shard", shard, "--report-out", out]);
        assert_eq!(output.status.code(), Some(1), "the vulnerable versions violate");
    }
    let shard0 = std::fs::read(&s0).expect("shard written");

    // `<out>` forgotten: the first shard would be the output.
    let output = run(&["report", "merge", &s0, &s1]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains(&s0), "the refusal names the file: {stderr}");
    assert_eq!(std::fs::read(&s0).expect("shard kept"), shard0, "the shard is untouched");

    assert_eq!(run(&["report", "merge", &merged, &s0, &s1]).status.code(), Some(0));
    let first = std::fs::read(&merged).expect("merge written");
    assert_eq!(run(&["report", "merge", &merged, &s0, &s1]).status.code(), Some(2));
    assert_eq!(std::fs::read(&merged).expect("merge kept"), first, "an old merge is kept");
}

/// A chaos run lists each contained panic as a degraded slot and
/// nothing else; replaying a crashed slot still shows the panic.
#[test]
fn contained_panics_are_listed_as_slots_not_printed() {
    let dir = scratch("contained_panics_are_listed_as_slots_not_printed");
    let report = path(&dir, "chaos.json");
    let chaos = ["--chaos-seed", "7", "--trials", "32"];
    let output =
        run(&[&["campaign"][..], &chaos, &["--jobs", "2", "--report-out", &report]].concat());
    assert_eq!(output.status.code(), Some(2), "chaos degrades the run");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked at"), "{stderr}");
    let report = StreamReport::from_json(&std::fs::read_to_string(&report).expect("written"))
        .expect("the report parses");
    let listed = stderr.lines().filter(|line| line.contains("! slot")).count();
    assert_eq!(listed, report.degraded_slots.len(), "one line per degraded slot: {stderr}");

    let crashed = report
        .degraded_slots
        .iter()
        .find(|(_, cell)| matches!(cell.outcome, CellOutcome::Crashed { .. }))
        .map(|(slot, _)| slot.to_string())
        .expect("seed 7 crashes a slot");
    let trace = path(&dir, "replay.jsonl");
    let output =
        run(&[&["campaign", "replay", &crashed][..], &chaos, &["--trace-out", &trace]].concat());
    assert_eq!(output.status.code(), Some(2), "the replayed cell crashes again");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("panicked at"), "replay keeps the default hook: {stderr}");
}

/// Every output file is created before the first cell runs, so a path
/// that cannot be created fails the command before the run starts.
#[test]
fn an_unwritable_output_is_refused_before_the_run() {
    let dir = scratch("an_unwritable_output_is_refused_before_the_run");
    let missing = path(&dir, "no/such/dir/out");
    let commands: [&[&str]; 7] = [
        &["campaign", "--trials", "64", "--report-out"],
        &["campaign", "--trials", "64", "--metrics-out"],
        &["campaign", "--trials", "64", "--trace-out"],
        &["campaign", "--trials", "64", "--timeline-out"],
        &["campaign", "replay", "3", "--trace-out"],
        &["benchmark", "--metrics-out"],
        &["benchmark", "--trace-out"],
    ];
    for command in commands {
        let output = run(&[command, &[&missing]].concat());
        assert_eq!(output.status.code(), Some(2), "{command:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        let option = command.last().expect("an option");
        assert!(stderr.contains(&missing) && stderr.contains(option), "{command:?}: {stderr}");
        assert!(!stderr.contains("running"), "{command:?} runs nothing: {stderr}");
        assert!(output.stdout.is_empty(), "{command:?}");
    }
}
