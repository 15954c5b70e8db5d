//! Reports and journals written before the overlay memory model still
//! load: both carry the retired `chunks_privatized`, `retries` and
//! `timed_out` keys, which readers ignore. The fixtures are described in
//! `fixtures/README.md`. A chaos run's report still loads and is written
//! back byte for byte, although no run writes one any more.

use bench::paper_campaign;
use hvsim_obs::MetricsRegistry;
use intrusion_core::{read_header, Shard, StreamReport};

const SHARD0: &str = include_str!("fixtures/chunked-shard0-of-2.json");
const JOURNAL: &[u8] = include_bytes!("fixtures/chunked-50-trials.journal");
/// `campaign --chaos-seed 7 --trials 2 --jobs 1 --report-out`: one
/// `BootFailed` and one `Crashed` slot.
const CHAOS: &str = include_str!("../../cli/tests/fixtures/chaos-seed-7-trials-2.json");

#[test]
fn chunked_era_report_merges_with_a_new_shard() {
    let old = StreamReport::from_json(SHARD0).expect("old report parses");
    for retired in ["chunks_privatized", "retries", "timed_out"] {
        assert!(SHARD0.contains(retired), "the fixture carries the retired {retired} key");
    }
    let campaign = || paper_campaign().trials(2).jobs(2);
    let shard1 = campaign().shard(Shard::new(1, 2).unwrap()).run_streaming().report;
    let merged = old.try_merge(&shard1.normalized()).expect("old and new shards merge");
    assert_eq!(
        merged.to_json().unwrap(),
        campaign().run_streaming().report.normalized().to_json().unwrap(),
        "an old shard merged with a new one reproduces the unsharded report"
    );
}

#[test]
fn chunked_era_journal_resumes() {
    let text = String::from_utf8_lossy(JOURNAL);
    for retired in ["chunks_privatized", "retries", "timed_out"] {
        assert!(text.contains(retired), "the journal carries the retired {retired} key");
    }
    let journal = std::env::temp_dir().join(format!("hvsim-compat-{}.journal", std::process::id()));
    std::fs::write(&journal, JOURNAL).unwrap();
    let campaign = || paper_campaign().trials(50).jobs(2);
    assert_eq!(&read_header(&journal).unwrap().grid, campaign().grid(), "the old header reads");
    let registry = MetricsRegistry::new();
    let resumed = campaign().metrics(registry.clone()).resume(&journal).unwrap();
    std::fs::remove_file(&journal).ok();
    let skipped = registry
        .snapshot()
        .counters
        .iter()
        .find(|c| c.name == "campaign.checkpoint.resumed_slots")
        .map(|c| c.value);
    assert!(skipped > Some(0), "the journal's fold record covers slots: {skipped:?}");
    assert_eq!(
        resumed.report.normalized().to_json().unwrap(),
        campaign().run_streaming().report.normalized().to_json().unwrap(),
        "the resumed run equals an uninterrupted one"
    );
}

/// Every key, variant and field order of `StreamReport`, `CellOutcome`,
/// `CellId` and `CampaignError` is pinned: the report reads back into
/// the bytes `--report-out` wrote.
#[test]
fn a_chaos_report_is_written_back_byte_for_byte() {
    let report = StreamReport::from_json(CHAOS).expect("the chaos report parses");
    assert_eq!(report.degraded_slots.len(), 2);
    assert_eq!(report.to_json().unwrap() + "\n", CHAOS);
}

#[test]
fn deadline_era_reports_load_unless_a_slot_timed_out() {
    // The chaos report as written while the cell deadline existed: the
    // same report with a `timed_out` count.
    let old = CHAOS.replacen("\"crashed\": 1,", "\"crashed\": 1,\n  \"timed_out\": 0,", 1);
    assert_ne!(old, CHAOS);
    assert_eq!(
        StreamReport::from_json(&old).expect("the retired key is ignored"),
        StreamReport::from_json(CHAOS).unwrap()
    );
    // A slot the deadline relabelled came from a run no one can
    // reproduce, so such a report is refused.
    let timed_out = CHAOS.replacen(
        "\"outcome\": \"BootFailed\"",
        "\"outcome\": {\"TimedOut\": {\"deadline_us\": 1000}}",
        1,
    );
    assert_ne!(timed_out, CHAOS);
    assert!(StreamReport::from_json(&timed_out).is_err(), "a TimedOut slot does not parse");
}
