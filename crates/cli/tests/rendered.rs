//! `campaign` prints Table II, Fig. 4 and Table III exactly as the
//! collect-everything engine rendered them (the fixtures in `fixtures/`
//! are that engine's stdout); the per-key summary follows them.

use std::process::Command;

const CAMPAIGN: &str = include_str!("fixtures/campaign.txt");
const EXTENSIONS: &str = include_str!("fixtures/campaign-extensions.txt");

/// Runs `intrusion-injector` and returns its exit code and stdout.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_intrusion-injector"))
        .args(args)
        .output()
        .expect("the CLI runs");
    (output.status.code(), String::from_utf8(output.stdout).expect("stdout is UTF-8"))
}

fn assert_starts_with(out: &str, fixture: &str) {
    assert_eq!(out.get(..fixture.len()).unwrap_or(out), fixture);
}

#[test]
fn campaign_tables_match_their_fixture() {
    let (code, out) = run(&["campaign", "--jobs", "2"]);
    assert_eq!(code, Some(1), "the vulnerable versions violate");
    assert_starts_with(&out, CAMPAIGN);
}

#[test]
fn extension_campaign_tables_match_their_fixture() {
    let (code, out) = run(&["campaign", "--extensions", "--jobs", "2"]);
    assert_eq!(code, Some(1), "the vulnerable versions violate");
    assert_starts_with(&out, EXTENSIONS);
}
