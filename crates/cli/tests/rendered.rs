//! `campaign` prints Table II, Fig. 4 and Table III exactly as the
//! collect-everything engine rendered them (the fixtures in `fixtures/`
//! are that engine's stdout); the per-key summary follows them. `run`
//! prints each paper cell's notes, shell output and audit evidence
//! exactly as the eagerly formatting guest layer did.

use std::process::Command;

const CAMPAIGN: &str = include_str!("fixtures/campaign.txt");
const EXTENSIONS: &str = include_str!("fixtures/campaign-extensions.txt");
const RUN_TRANSCRIPTS: &str = include_str!("fixtures/run-transcripts.txt");

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

/// Every paper cell through `run`: for each use case, version and mode,
/// the command line, its stdout and its exit code, in the fixture's
/// order.
#[test]
fn run_transcripts_match_their_fixture() {
    let mut out = String::new();
    for use_case in ["XSA-212-crash", "XSA-212-priv", "XSA-148-priv", "XSA-182-test"] {
        for version in ["4.6", "4.8", "4.13"] {
            for mode in ["exploit", "injection"] {
                let args = ["run", "--use-case", use_case, "--version", version, "--mode", mode];
                let (code, stdout) = run(&args);
                out += &format!("$ intrusion-injector {}\n{stdout}exit {}\n", args.join(" "), code.expect("exits"));
            }
        }
    }
    assert_eq!(out, RUN_TRANSCRIPTS);
}
