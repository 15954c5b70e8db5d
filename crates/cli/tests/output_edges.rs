//! The CLI at the edges of its outputs: a closed stdout is a clean
//! exit, except for `report diff`, which still exits with its answer,
//! `report merge` never overwrites a file and refuses a report whose
//! coverage holds an invalid shard, and an output file that cannot be
//! created stops a command before it runs anything.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

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

/// `models | head -2`, with the reader gone before the first write:
/// the pipe is closed before the CLI starts, so every write fails.
#[test]
fn a_closed_stdout_is_a_clean_exit() {
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let output = cli().arg("models").stdout(writer).output().expect("the CLI runs");
    assert_eq!(output.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&output.stderr), "");
}

/// `report diff a b | head -1`: the reader takes the first byte and
/// goes while the CLI is still writing (the diff is larger than a pipe
/// holds), and the exit code still says that the files differ.
#[test]
fn a_diff_read_in_part_still_exits_with_its_answer() {
    let dir = scratch("a_diff_read_in_part_still_exits_with_its_answer");
    let (a, b) = (path(&dir, "a.json"), path(&dir, "b.json"));
    let doc = |value: u32| {
        let leaves: Vec<String> = (0..20_000).map(|i| format!("\"leaf{i}\":{value}")).collect();
        format!("{{{}}}", leaves.join(","))
    };
    std::fs::write(&a, doc(0)).expect("written");
    std::fs::write(&b, doc(1)).expect("written");
    let mut child = cli()
        .args(["report", "diff", &a, &b])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the CLI runs");
    let mut stdout = child.stdout.take().expect("a stdout pipe");
    stdout.read_exact(&mut [0; 1]).expect("the diff's first byte");
    drop(stdout);
    let output = child.wait_with_output().expect("the CLI exits");
    assert_eq!(output.status.code(), Some(1), "the files differ");
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

/// A coverage shard with a zero count or an index out of range is
/// refused when the report is read, alone or merged with another copy,
/// with exit 2 naming the file and no panic.
#[test]
fn report_merge_refuses_an_invalid_coverage_shard() {
    let dir = scratch("report_merge_refuses_an_invalid_coverage_shard");
    let report = path(&dir, "r.json");
    assert_eq!(run(&["campaign", "--report-out", &report]).status.code(), Some(1));
    let text = std::fs::read_to_string(&report).expect("report written");
    let full = r#""coverage": [
    {
      "index": 0,
      "count": 1
    }
  ]"#;
    assert!(text.contains(full), "a full run covers 0/1: {text}");
    let shards = [r#"{"index":0,"count":0}"#, r#"{"index":7,"count":2}"#];
    for (i, shard) in shards.into_iter().enumerate() {
        let bad = path(&dir, &format!("bad{i}.json"));
        std::fs::write(&bad, text.replace(full, &format!(r#""coverage": [{shard}]"#)))
            .expect("written");
        for copies in [1, 2] {
            let out = path(&dir, &format!("merged{i}-{copies}.json"));
            let inputs = vec![bad.as_str(); copies];
            let output = run(&[&["report", "merge", &out][..], &inputs].concat());
            assert_eq!(output.status.code(), Some(2), "{shard} x{copies}");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(stderr.contains(&bad) && stderr.contains("bad coverage shard"), "{stderr}");
            assert!(!stderr.contains("panicked"), "{stderr}");
            assert!(!Path::new(&out).exists(), "nothing is merged");
        }
    }
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
