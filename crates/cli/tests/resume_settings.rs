//! `campaign resume` takes the run's settings from its journal: a cut
//! chaos journal resumed with no flags reproduces the uninterrupted
//! report and lists its degraded slots with the journal's seed, and a
//! `--chaos-seed` or a grid that disagrees with the journal is refused.

use intrusion_core::{read_header, Campaign, Mode};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use xsa_exploits::paper_use_cases;

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

/// The journal's first `lines` lines: a run killed after it synced them.
fn cut(journal: &str, lines: usize) {
    let text = std::fs::read_to_string(journal).expect("journal written");
    let kept: String = text.split_inclusive('\n').take(lines).collect();
    assert!(kept.len() < text.len(), "the cut drops fold records");
    std::fs::write(journal, kept).expect("journal cut");
}

#[test]
fn a_cut_chaos_journal_resumes_with_no_flags() {
    let dir = scratch("a_cut_chaos_journal_resumes_with_no_flags");
    let [journal, full, resumed] = ["c.journal", "full.json", "resumed.json"].map(|f| path(&dir, f));
    let output = run(&[
        "campaign", "--chaos-seed", "7", "--trials", "128", "--jobs", "1", "--checkpoint",
        &journal, "--report-out", &full,
    ]);
    assert_eq!(output.status.code(), Some(2), "chaos degrades the run");
    assert_eq!(read_header(Path::new(&journal)).expect("a journal").chaos, Some(7));
    // The header and the first of the worker's fold records survive.
    cut(&journal, 2);
    let output = run(&["campaign", "resume", &journal, "--report-out", &resumed]);
    assert_eq!(output.status.code(), Some(2));
    assert_eq!(
        std::fs::read(&resumed).expect("report written"),
        std::fs::read(&full).expect("report written"),
        "the resumed run replays the journal's fault schedule"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    let slots: Vec<&str> = stderr.lines().filter(|line| line.contains("! slot")).collect();
    assert!(!slots.is_empty(), "{stderr}");
    for line in slots {
        assert!(line.ends_with("--trials 128 --chaos-seed 7"), "replayed under the seed: {line}");
    }
}

#[test]
fn resume_refuses_a_conflicting_chaos_seed() {
    let dir = scratch("resume_refuses_a_conflicting_chaos_seed");
    let [chaos, plain, report] = ["chaos.journal", "plain.journal", "r.json"].map(|f| path(&dir, f));
    let trials = ["--trials", "2", "--jobs", "1"];
    let checkpoint = |journal: &str, flags: &[&str]| {
        run(&[&["campaign", "--checkpoint", journal][..], &trials, flags].concat())
    };
    assert_eq!(checkpoint(&chaos, &["--chaos-seed", "7"]).status.code(), Some(2));
    assert_eq!(checkpoint(&plain, &[]).status.code(), Some(1));
    let before = [&chaos, &plain].map(|j| std::fs::read(j).expect("journal written"));

    // A differing seed, and any seed for a journal written without chaos.
    for (journal, seed) in [(&chaos, "8"), (&plain, "7")] {
        let output =
            run(&["campaign", "resume", journal, "--chaos-seed", seed, "--report-out", &report]);
        assert_eq!(output.status.code(), Some(2));
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("--chaos-seed"), "the refusal names the option: {stderr}");
        assert!(!stderr.contains("resuming"), "nothing runs: {stderr}");
        assert!(!Path::new(&report).exists(), "no output is created");
    }
    assert_eq!([&chaos, &plain].map(|j| std::fs::read(j).expect("journal kept")), before);

    // The journal's own seed is the run's setting, so repeating it is
    // accepted.
    let output = run(&["campaign", "resume", &chaos, "--chaos-seed", "7"]);
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
