//! The regenerators print the paper's artefacts exactly as the
//! collect-everything engine rendered them. The fixtures are described
//! in `fixtures/README.md`.

use std::process::Command;

const FIG2: &str = include_str!("fixtures/rendered/fig2_methodology.txt");
const FIG4: &str = include_str!("fixtures/rendered/fig4_validation.txt");
const TABLE3: &str = include_str!("fixtures/rendered/table3_campaign.txt");

/// Runs a regenerator and returns its stdout.
fn stdout_of(bin: &str, args: &[&str]) -> String {
    let output = Command::new(bin).args(args).output().expect("regenerator runs");
    assert!(output.status.success(), "{bin} {args:?} failed: {output:?}");
    String::from_utf8(output.stdout).expect("stdout is UTF-8")
}

#[test]
fn fig2_methodology_matches_its_fixture() {
    assert_eq!(stdout_of(env!("CARGO_BIN_EXE_fig2_methodology"), &[]), FIG2);
}

#[test]
fn fig4_validation_matches_its_fixture() {
    assert_eq!(stdout_of(env!("CARGO_BIN_EXE_fig4_validation"), &[]), FIG4);
}

#[test]
fn table3_campaign_report_matches_its_fixture() {
    // Everything before the run's timing block is pinned.
    let out = stdout_of(env!("CARGO_BIN_EXE_table3_campaign"), &["--jobs", "2"]);
    assert_eq!(out.get(..TABLE3.len()).unwrap_or(&out), TABLE3);
}
