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
    assert_eq!(stdout_of(env!("CARGO_BIN_EXE_table3_campaign"), &[]), TABLE3);
}

#[test]
fn table3_campaign_rejects_run_flags() {
    let output = Command::new(env!("CARGO_BIN_EXE_table3_campaign"))
        .args(["--jobs", "2"])
        .output()
        .expect("regenerator runs");
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    let stderr = String::from_utf8(output.stderr).expect("stderr is UTF-8");
    assert!(stderr.contains("intrusion-injector campaign"), "{stderr}");
}

#[test]
fn every_regenerator_rejects_any_argument() {
    for bin in [
        env!("CARGO_BIN_EXE_fig1_avi_chain"),
        env!("CARGO_BIN_EXE_fig2_methodology"),
        env!("CARGO_BIN_EXE_fig3_intrusion_model"),
        env!("CARGO_BIN_EXE_fig4_validation"),
        env!("CARGO_BIN_EXE_table1_abusive_functionalities"),
        env!("CARGO_BIN_EXE_table2_use_cases"),
        env!("CARGO_BIN_EXE_table3_campaign"),
        env!("CARGO_BIN_EXE_security_benchmark"),
    ] {
        let output = Command::new(bin).arg("--bogus").output().expect("regenerator runs");
        assert_eq!(output.status.code(), Some(2), "{bin} --bogus: {output:?}");
        assert!(output.stdout.is_empty(), "{bin} --bogus printed to stdout: {output:?}");
        let stderr = String::from_utf8(output.stderr).expect("stderr is UTF-8");
        assert!(stderr.contains("takes no arguments, got '--bogus'"), "{stderr}");
        assert!(stderr.contains("usage: "), "{stderr}");
    }
}
