//! `campaign resume` takes the run's settings from its journal alone,
//! and refuses, before any output file is created, a journal it cannot
//! continue: one of a chaos run, which older builds wrote, and one of a
//! grid the CLI does not build.

use intrusion_core::{Campaign, Mode};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use xsa_exploits::paper_use_cases;

/// `campaign --chaos-seed 7 --trials 2 --jobs 1 --checkpoint`, written
/// by the last build that had chaos: a header with a `chaos` attribute
/// and one fold record holding a crashed and a boot-failed slot.
const CHAOS_JOURNAL: &[u8] = include_bytes!("fixtures/chaos-seed-7-trials-2.journal");

/// A fresh scratch directory for one test's output files.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_intrusion-injector"))
        .args(args)
        .output()
        .expect("the CLI runs")
}

fn path(dir: &Path, name: &str) -> String {
    dir.join(name).to_str().expect("UTF-8 path").to_owned()
}

/// Resuming a chaos run's journal would mix its faulted folds with
/// fault-free ones, so it is refused with exit 2, naming the reason.
#[test]
fn a_chaos_journal_is_refused_before_any_output() {
    let dir = scratch("a_chaos_journal_is_refused_before_any_output");
    let [journal, report, trace] = ["chaos.journal", "r.json", "t.jsonl"].map(|f| path(&dir, f));
    std::fs::write(&journal, CHAOS_JOURNAL).expect("written");
    let output =
        run(&["campaign", "resume", &journal, "--report-out", &report, "--trace-out", &trace]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("chaos run (seed 7)") && !stderr.contains("resuming the"), "{stderr}");
    assert!(!Path::new(&report).exists() && !Path::new(&trace).exists(), "no output is created");
    assert_eq!(std::fs::read(&journal).expect("journal kept"), CHAOS_JOURNAL);
}

/// `--chaos-seed` is not an option of `campaign resume`, so no seed
/// can be set for a journal, with chaos or without: the command is
/// refused before anything runs and both journals are kept. The plain
/// journal still resumes when the option is left out.
#[test]
fn resume_with_a_chaos_seed_is_refused_and_keeps_the_journal() {
    let dir = scratch("resume_with_a_chaos_seed_is_refused_and_keeps_the_journal");
    let [chaos, plain, report] = ["chaos.journal", "plain.journal", "r.json"].map(|f| path(&dir, f));
    std::fs::write(&chaos, CHAOS_JOURNAL).expect("written");
    let output = run(&["campaign", "--checkpoint", &plain, "--trials", "2", "--jobs", "1"]);
    assert_eq!(output.status.code(), Some(1), "the vulnerable versions violate");
    let before = [&chaos, &plain].map(|j| std::fs::read(j).expect("journal written"));

    for (journal, seed) in [(&chaos, "8"), (&chaos, "7"), (&plain, "7")] {
        let output =
            run(&["campaign", "resume", journal, "--chaos-seed", seed, "--report-out", &report]);
        assert_eq!(output.status.code(), Some(2));
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("--chaos-seed"), "the refusal names the option: {stderr}");
        assert!(!stderr.contains("resuming"), "nothing runs: {stderr}");
        assert!(!Path::new(&report).exists(), "no output is created");
    }
    assert_eq!([&chaos, &plain].map(|j| std::fs::read(j).expect("journal kept")), before);

    let output = run(&["campaign", "resume", &plain]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("resuming"), "{stderr}");
}

/// A journal of a grid the CLI does not build (here: injection cells
/// only) is refused before any output file is created.
#[test]
fn a_journal_of_another_grid_is_refused_before_any_output() {
    let dir = scratch("a_journal_of_another_grid_is_refused_before_any_output");
    let [journal, report] = ["injection.journal", "r.json"].map(|f| path(&dir, f));
    let campaign = paper_use_cases().into_iter().fold(Campaign::new(), Campaign::with_use_case);
    let campaign = campaign.modes(&[Mode::Injection]).jobs(1);
    campaign.run_streaming_checkpointed(Path::new(&journal)).expect("journal written");
    let output = run(&["campaign", "resume", &journal, "--report-out", &report]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("grid") && !stderr.contains("resuming"), "{stderr}");
    assert!(!Path::new(&report).exists(), "no output is created");
}
