//! Crash-safety tests for the checkpoint/resume journal at ≥100k-cell
//! scale: a checkpointed streaming campaign that is hard-killed (here:
//! its journal truncated at an arbitrary byte offset, leaving a torn
//! final record) must resume to a merged normalized [`StreamReport`]
//! byte-identical to the uninterrupted run — per shard and across
//! `report merge`-style [`StreamReport::try_merge`].
//!
//! A fold record is written in the same JSON as the by-name fold wrote
//! it, so journals resume across the change to an index-keyed fold.

use bench::{paper_campaign, synthetic_campaign};
use hvsim_obs::MetricsRegistry;
use intrusion_core::{read_header, Campaign, Shard};
use std::path::PathBuf;

const SEED: u64 = 0xD5_2023;
// 3 versions × 33,334 trials = 100,002 cells.
const TRIALS: u64 = 33_334;

fn campaign() -> Campaign {
    synthetic_campaign(SEED, TRIALS).jobs(4)
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hvsim-ckpt-{}-{name}", std::process::id()))
}

/// Truncates the journal to `keep` of its bytes — almost always mid-
/// record, so recovery must also tolerate the torn final record.
fn hard_kill(journal: &PathBuf, keep: f64) {
    let bytes = std::fs::read(journal).unwrap();
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let cut = (bytes.len() as f64 * keep) as usize;
    std::fs::write(journal, &bytes[..cut]).unwrap();
}

fn counter(registry: &MetricsRegistry, name: &str) -> u64 {
    registry.snapshot().counters.iter().find(|c| c.name == name).map_or(0, |c| c.value)
}

#[test]
fn killed_checkpointed_campaign_resumes_byte_identically() {
    let journal = scratch("full.journal");
    let outcome = campaign().run_streaming_checkpointed(&journal).unwrap();
    assert_eq!(outcome.report.cells, 100_002);
    assert_eq!(outcome.report.completed, outcome.report.cells);
    let uninterrupted = outcome.report.normalized().to_json().unwrap();

    // Hard-kill simulation: drop the last third of the journal, leaving
    // a torn record at the new tail. Resume must recover the valid
    // prefix, re-run only the uncovered slots, and reproduce the report.
    hard_kill(&journal, 0.67);
    let registry = MetricsRegistry::new();
    let resumed = campaign().metrics(registry.clone()).resume(&journal).unwrap();
    assert_eq!(
        resumed.report.normalized().to_json().unwrap(),
        uninterrupted,
        "resumed report must be byte-identical to the uninterrupted run"
    );
    let skipped = counter(&registry, "campaign.checkpoint.resumed_slots");
    assert!(skipped > 0, "resume must skip slots covered by durable fold records");
    assert!(skipped < 100_002, "a truncated journal cannot cover the whole grid");
    assert!(counter(&registry, "campaign.checkpoint.folds") > 0);
    assert_eq!(counter(&registry, "campaign.checkpoint.write_errors"), 0);

    // A second resume of the now-complete journal re-runs only the tail
    // beyond the last durable fold batch and still agrees.
    let again = campaign().resume(&journal).unwrap();
    assert_eq!(again.report.normalized().to_json().unwrap(), uninterrupted);
    std::fs::remove_file(&journal).ok();
}

#[test]
fn killed_shards_resume_and_merge_to_the_unsharded_report() {
    let unsharded = campaign().run_streaming().report.normalized().to_json().unwrap();
    let mut shard_reports = Vec::new();
    for index in 0..2 {
        let journal = scratch(&format!("shard{index}.journal"));
        let shard = Shard::new(index, 2).unwrap();
        let full = campaign().shard(shard).run_streaming_checkpointed(&journal).unwrap();
        // Kill each shard at a different point in its journal.
        hard_kill(&journal, if index == 0 { 0.5 } else { 0.85 });
        let resumed = campaign().shard(shard).resume(&journal).unwrap();
        assert_eq!(
            resumed.report.normalized().to_json().unwrap(),
            full.report.normalized().to_json().unwrap(),
            "shard {index} resume must match its uninterrupted run"
        );
        shard_reports.push(resumed.report);
        std::fs::remove_file(&journal).ok();
        }
    let merged = shard_reports[0].try_merge(&shard_reports[1]).unwrap();
    assert_eq!(
        merged.normalized().to_json().unwrap(),
        unsharded,
        "resumed shard reports must merge to the unsharded report byte-for-byte"
    );
}

#[test]
fn resume_refuses_the_wrong_campaign_or_shard() {
    let journal = scratch("mismatch.journal");
    let small = || synthetic_campaign(SEED, 100).jobs(2);
    small().run_streaming_checkpointed(&journal).unwrap();
    // Different trials axis: different grid fingerprint.
    let err = synthetic_campaign(SEED, 101).jobs(2).resume(&journal).unwrap_err().to_string();
    assert!(err.contains("different campaign"), "grid mismatch is loud and typed: {err}");
    // Same grid, wrong shard.
    let err =
        small().shard(Shard::new(0, 2).unwrap()).resume(&journal).unwrap_err().to_string();
    assert!(err.contains("different campaign"), "shard mismatch is loud and typed: {err}");
    std::fs::remove_file(&journal).ok();
}

#[test]
fn a_resumed_run_counts_only_the_cells_it_ran() {
    let journal = scratch("throughput.journal");
    let small = || synthetic_campaign(SEED, 2_000).jobs(2);
    small().run_streaming_checkpointed(&journal).unwrap();
    hard_kill(&journal, 0.5);
    let registry = MetricsRegistry::new();
    let resumed = small().metrics(registry.clone()).resume(&journal).unwrap();
    let skipped = counter(&registry, "campaign.checkpoint.resumed_slots");
    assert!(
        skipped > 0 && skipped < resumed.report.cells,
        "the cut journal covers part of the grid"
    );
    let ran = resumed.report.completed - skipped;
    let stats = resumed.stats;
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let counted = (stats.cells_per_sec * stats.elapsed_us as f64 / 1e6).round() as u64;
    assert_eq!(counted, ran, "throughput counts the cells this run executed, not recovered ones");
    // Every slot is now covered: a second resume runs nothing.
    let again = small().resume(&journal).unwrap();
    assert_eq!(again.report.normalized(), resumed.report.normalized());
    assert_eq!(again.stats.cells_per_sec, 0.0, "no cell ran");
    std::fs::remove_file(&journal).ok();
}

/// The fold record of a journal, as the JSON text the journal carries.
fn fold_record(journal: &str) -> String {
    let line = journal.lines().nth(1).expect("a header and a fold record");
    // Each line is `<length> <checksum> <trace event>`.
    let event = line.splitn(3, ' ').nth(2).unwrap();
    let event = hvsim_obs::parse_line(event).unwrap();
    event.attrs.into_iter().find(|(k, _)| k == "fold").map(|(_, v)| v).unwrap()
}

/// Every object key of a JSON text, with repeats, sorted.
fn json_keys(json: &str) -> Vec<&str> {
    let mut keys: Vec<&str> = json
        .match_indices("\":")
        .map(|(end, _)| &json[json[..end].rfind('"').unwrap() + 1..end])
        .collect();
    keys.sort_unstable();
    keys
}

#[test]
fn fold_records_keep_the_by_name_folds_json() {
    // Written by the engine that folded every cell by key name:
    // `campaign --checkpoint j.journal --trials 2 --jobs 1`.
    let old = include_str!("fixtures/by-name-fold-2-trials.journal");
    let journal = scratch("keys.journal");
    let campaign = || paper_campaign().trials(2).jobs(1);
    let fresh = campaign().run_streaming_checkpointed(&journal).unwrap();
    let new = std::fs::read_to_string(&journal).unwrap();
    assert_eq!(new.lines().next(), old.lines().next(), "the header line is unchanged");
    let (old_fold, new_fold) = (fold_record(old), fold_record(&new));
    // The old fold's keys, minus the retired `retries` and `timed_out`
    // counts.
    let mut old_keys = json_keys(&old_fold);
    for retired in ["retries", "timed_out"] {
        assert!(old_keys.contains(&retired), "the fixture carries the retired {retired} key");
    }
    old_keys.retain(|&key| key != "retries" && key != "timed_out");
    assert_eq!(json_keys(&new_fold), old_keys);
    let by_key = |fold: &str| {
        let (start, end) =
            (fold.find("\"by_key\"").unwrap(), fold.find("\"degraded_slots\"").unwrap());
        fold[start..end].to_owned()
    };
    assert_eq!(by_key(&new_fold), by_key(&old_fold), "the per-key tallies agree");
    // The old journal covers every slot; resuming it runs nothing and
    // reproduces the fresh run's report.
    std::fs::write(&journal, old).unwrap();
    assert_eq!(read_header(&journal).unwrap().chaos, None, "a header without a seed has no chaos");
    let resumed = campaign().resume(&journal).unwrap();
    assert_eq!(resumed.report.normalized(), fresh.report.normalized());
    assert_eq!(resumed.stats.cells_per_sec, 0.0);
    std::fs::remove_file(&journal).ok();
}
