//! End-to-end tests for the streaming campaign pipeline at scale: a
//! ≥100k-cell synthetic campaign must finish without retaining per-cell
//! results, and its normalized report must be byte-identical across
//! worker counts and across shard/merge decompositions, whichever way
//! the shards are cut, ordered and grouped.

use bench::{paper_campaign, synthetic_campaign};
use intrusion_core::{Shard, StreamReport};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Mutex;

#[test]
fn hundred_thousand_cell_campaign_is_bounded_and_deterministic() {
    // 3 versions × 33,334 trials = 100,002 cells.
    let trials = 33_334;
    let seed = 0xD5_2023;

    let wide = synthetic_campaign(seed, trials);
    let jobs8 = wide.run_streaming_with_jobs(8);
    assert_eq!(jobs8.report.cells, 100_002);
    assert_eq!(jobs8.report.completed, jobs8.report.cells, "synthetic grid never degrades");
    assert!(jobs8.report.erroneous_states > 0);
    assert_eq!(jobs8.report.by_key.len(), 3, "one key per version");
    assert!(jobs8.stats.cells_per_sec > 0.0);

    let jobs1 = wide.run_streaming_with_jobs(1);
    let unsharded = jobs8.report.normalized().to_json().unwrap();
    assert_eq!(
        unsharded,
        jobs1.report.normalized().to_json().unwrap(),
        "jobs=1 and jobs=8 streamed reports must be byte-identical"
    );

    // Two deterministic shards, run as independent campaigns at jobs=4,
    // merge back to the unsharded report byte-for-byte.
    let half0 = synthetic_campaign(seed, trials)
        .shard(Shard::new(0, 2).unwrap())
        .run_streaming_with_jobs(4);
    let half1 = synthetic_campaign(seed, trials)
        .shard(Shard::new(1, 2).unwrap())
        .run_streaming_with_jobs(4);
    assert_eq!(half0.report.cells + half1.report.cells, 100_002);
    let merged = half0.report.merge(&half1.report);
    assert_eq!(
        unsharded,
        merged.normalized().to_json().unwrap(),
        "merged shard reports must reproduce the unsharded report"
    );
}

#[test]
fn merge_misuse_fails_loudly_instead_of_double_counting() {
    let report = |trials: u64, shard: Option<Shard>| {
        let mut campaign = synthetic_campaign(7, trials);
        if let Some(shard) = shard {
            campaign = campaign.shard(shard);
        }
        campaign.run_streaming_with_jobs(2).report
    };
    // Different grids (trials axis differs): refused, named in the error.
    let four = report(4, None);
    let five = report(5, None);
    let err = four.try_merge(&five).unwrap_err().to_string();
    assert!(err.contains("different campaign grids"), "grid mismatch is loud: {err}");
    // The same shard twice: every slot would be double-counted.
    let half0 = report(4, Some(Shard::new(0, 2).unwrap()));
    let err = half0.try_merge(&half0.clone()).unwrap_err().to_string();
    assert!(err.contains("overlap"), "identical shards overlap: {err}");
    // Overlap through different denominators: 0/2 covers slots 2/4 does.
    let quarter2 = report(4, Some(Shard::new(2, 4).unwrap()));
    let err = half0.try_merge(&quarter2).unwrap_err().to_string();
    assert!(err.contains("overlap"), "0/2 and 2/4 overlap: {err}");
    // Disjoint shards and the default-identity report still merge.
    let half1 = report(4, Some(Shard::new(1, 2).unwrap()));
    let merged = StreamReport::default().try_merge(&half0).unwrap().try_merge(&half1).unwrap();
    assert_eq!(merged.cells, four.cells);
    // Deserializing non-reports fails instead of yielding zeroed data.
    assert!(StreamReport::from_json("{}").is_err());
    assert!(StreamReport::from_json("not a report").is_err());
}

/// The synthetic grid the merge property cuts: 3 versions × 8 trials.
const MERGE_TRIALS: u64 = 8;

/// The report of one shard of the synthetic grid, run once per test
/// binary and shared by every case.
fn shard_report(shard: Shard) -> StreamReport {
    static RUNS: Mutex<BTreeMap<(u64, u64), StreamReport>> = Mutex::new(BTreeMap::new());
    let mut runs = RUNS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let run = || synthetic_campaign(7, MERGE_TRIALS).shard(shard).run_streaming_with_jobs(1).report;
    runs.entry((shard.index, shard.count)).or_insert_with(run).clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cut the grid into a random partition of shards (each split turns
    /// `i/n` into the `k` shards `i + j·n / k·n`), merge the shard
    /// reports in a random order and grouping, and get the unsharded
    /// report. A shard merged twice, a shard of another grid and a
    /// report whose coverage holds a zero-count shard are refused.
    #[test]
    fn any_merge_of_a_shard_partition_is_the_unsharded_report(
        splits in proptest::collection::vec((0usize..16, 2u64..4), 0..5),
        picks in proptest::collection::vec(0usize..64, 32..33),
    ) {
        let mut shards = vec![Shard::new(0, 1).unwrap()];
        for (pick, k) in splits {
            let cut = shards.remove(pick % shards.len());
            let piece = |j| Shard::new(cut.index + j * cut.count, cut.count * k).unwrap();
            shards.extend((0..k).map(piece));
        }
        let mut reports: Vec<StreamReport> = shards.iter().map(|&s| shard_report(s)).collect();
        let mut picks = picks.into_iter().cycle();
        let mut pick = |len: usize| picks.next().unwrap() % len;

        let twice = reports[pick(reports.len())].clone();
        let other_grid = synthetic_campaign(7, MERGE_TRIALS + 1)
            .shard(shards[pick(shards.len())])
            .run_streaming_with_jobs(1)
            .report;
        while reports.len() > 1 {
            let a = reports.swap_remove(pick(reports.len()));
            let b = reports.swap_remove(pick(reports.len()));
            reports.push(a.try_merge(&b).unwrap());
        }
        let merged = reports.pop().unwrap();
        let whole = shard_report(Shard::new(0, 1).unwrap());
        prop_assert_eq!(merged.coverage.clone(), vec![Shard::new(0, 1).unwrap()]);
        prop_assert_eq!(
            merged.normalized().to_json().unwrap(),
            whole.normalized().to_json().unwrap()
        );
        let err = merged.try_merge(&twice).unwrap_err().to_string();
        prop_assert!(err.contains("overlap"), "{}", err);
        let err = merged.try_merge(&other_grid).unwrap_err().to_string();
        prop_assert!(err.contains("different campaign grids"), "{}", err);

        let json = twice.to_json().unwrap();
        let (head, coverage) = json.split_at(json.rfind("\"coverage\"").unwrap());
        let covered = format!("\"count\": {}", twice.coverage[0].count);
        prop_assert!(coverage.contains(&covered), "{}", coverage);
        let zero = format!("{head}{}", coverage.replacen(&covered, "\"count\": 0", 1));
        let err = StreamReport::from_json(&zero).unwrap_err();
        prop_assert!(err.to_string().contains("bad coverage shard"), "{}", err);
    }
}

#[test]
fn paper_campaign_streamed_aggregates_match_the_classic_report() {
    let campaign = paper_campaign();
    let classic = campaign.run_with_jobs(2);
    let streamed = campaign.run_streaming_with_jobs(2);
    assert_eq!(streamed.report.cells as usize, classic.cells().len());
    let degraded = classic.cells().iter().filter(|c| c.degraded()).count();
    assert_eq!(streamed.report.completed as usize, classic.cells().len() - degraded);
    assert_eq!(streamed.report.degraded as usize, degraded);
    assert_eq!(
        streamed.report.erroneous_states as usize,
        classic.cells().iter().filter(|c| c.erroneous_state).count()
    );
    assert_eq!(
        streamed.report.violated_cells as usize,
        classic.cells().iter().filter(|c| c.violated()).count()
    );
    assert_eq!(
        streamed.report.hypercalls,
        classic.cells().iter().map(|c| c.hypercalls).sum::<u64>()
    );
    assert_eq!(streamed.report.by_key.len(), 24, "use_case/version/mode keys");
}

/// Shard 0/2 of `synthetic_campaign(7, 2)`, normalized, as written by
/// `--report-out` before the software-TLB counters were removed from
/// `StreamReport` (counter values set non-zero to show they are
/// ignored, not merely zero).
const PRE_TLB_REMOVAL_SHARD0: &str = r#"{
    "cells": 3, "completed": 3, "degraded": 0, "erroneous_states": 0,
    "violated_cells": 0, "violations": 0, "handled": 0, "boot_failed": 0,
    "crashed": 0, "timed_out": 0, "retries": 0, "hypercalls": 0,
    "wall_time_us": 0, "frames_copied": 0,
    "tlb_hits": 41, "tlb_misses": 97,
    "chunks_privatized": 0,
    "tlb_fill_conflicts": 3,
    "latency": {
        "boot": {"completed": {"count": 3, "p50_us": 0, "p95_us": 0, "max_us": 0},
                 "degraded": {"count": 0, "p50_us": 0, "p95_us": 0, "max_us": 0}},
        "inject": {"completed": {"count": 3, "p50_us": 0, "p95_us": 0, "max_us": 0},
                   "degraded": {"count": 0, "p50_us": 0, "p95_us": 0, "max_us": 0}},
        "monitor": {"completed": {"count": 3, "p50_us": 0, "p95_us": 0, "max_us": 0},
                    "degraded": {"count": 0, "p50_us": 0, "p95_us": 0, "max_us": 0}}
    },
    "by_key": {
        "synthetic-grid/4.13/injection": {"cells": 1, "completed": 1, "degraded": 0,
            "erroneous_states": 0, "violated": 0, "handled": 0, "hypercalls": 0},
        "synthetic-grid/4.6/injection": {"cells": 1, "completed": 1, "degraded": 0,
            "erroneous_states": 0, "violated": 0, "handled": 0, "hypercalls": 0},
        "synthetic-grid/4.8/injection": {"cells": 1, "completed": 1, "degraded": 0,
            "erroneous_states": 0, "violated": 0, "handled": 0, "hypercalls": 0}
    },
    "degraded_slots": {},
    "grid": {"use_cases": ["synthetic-grid"], "versions": ["V4_6", "V4_8", "V4_13"],
             "modes": ["Injection"], "trials": 2},
    "coverage": [{"index": 0, "count": 2}]
}"#;

/// Shard 0/2 of `synthetic_campaign(7, 24)` under `--chaos-seed 7`,
/// normalized, in the shape written before the flight recorder was
/// removed: its degraded slot carries a `flight` forensic tail, as
/// checkpoint fold records of that era persist it. The chaos run that
/// wrote it no longer exists, so it can still be read and merged, but
/// no run reproduces its faults.
const PRE_REPLAY_CHAOS_SHARD0: &str = r#"{
    "cells": 36, "completed": 35, "degraded": 1, "erroneous_states": 21,
    "violated_cells": 0, "violations": 0, "handled": 21, "boot_failed": 1,
    "crashed": 0, "timed_out": 0, "retries": 0, "hypercalls": 0,
    "wall_time_us": 0, "frames_copied": 0, "chunks_privatized": 0,
    "latency": {
        "boot": {"completed": {"count": 35, "p50_us": 0, "p95_us": 0, "max_us": 0},
                 "degraded": {"count": 1, "p50_us": 0, "p95_us": 0, "max_us": 0}},
        "inject": {"completed": {"count": 35, "p50_us": 0, "p95_us": 0, "max_us": 0},
                   "degraded": {"count": 0, "p50_us": 0, "p95_us": 0, "max_us": 0}},
        "monitor": {"completed": {"count": 35, "p50_us": 0, "p95_us": 0, "max_us": 0},
                    "degraded": {"count": 0, "p50_us": 0, "p95_us": 0, "max_us": 0}}
    },
    "by_key": {
        "synthetic-grid/4.13/injection": {"cells": 12, "completed": 11, "degraded": 1,
            "erroneous_states": 7, "violated": 0, "handled": 7, "hypercalls": 0},
        "synthetic-grid/4.6/injection": {"cells": 12, "completed": 12, "degraded": 0,
            "erroneous_states": 7, "violated": 0, "handled": 7, "hypercalls": 0},
        "synthetic-grid/4.8/injection": {"cells": 12, "completed": 12, "degraded": 0,
            "erroneous_states": 7, "violated": 0, "handled": 7, "hypercalls": 0}
    },
    "degraded_slots": {
        "60": {
            "use_case": "synthetic-grid", "version": "V4_13", "mode": "Injection",
            "trial": 12, "outcome": "BootFailed",
            "error": {"Boot": {"message":
                "boot failed at chaos: injected boot failure",
                "attempts": 1}},
            "flight": [
                {"slot": 60, "seq": 0, "path": "chaos/transient_boots", "wall_us": 0,
                 "detail": "faults=2"},
                {"slot": 60, "seq": 1, "path": "cell/start", "wall_us": 0,
                 "detail": "synthetic-grid/4.13/injection trial=12"},
                {"slot": 60, "seq": 2, "path": "cell/boot/result", "wall_us": 2,
                 "detail": "attempts=1 source=boot ok=false"},
                {"slot": 60, "seq": 3, "path": "cell/degraded", "wall_us": 0,
                 "detail": "boot failed after 1 attempt(s): boot failed at chaos: injected transient boot failure (transient)"}
            ]
        }
    },
    "grid": {"use_cases": ["synthetic-grid"], "versions": ["V4_6", "V4_8", "V4_13"],
             "modes": ["Injection"], "trials": 24},
    "coverage": [{"index": 0, "count": 2}]
}"#;

#[test]
fn reports_written_with_tlb_counters_still_load_and_merge() {
    // `report merge` and `campaign resume` read reports and journals
    // written by older builds; retired keys — the software-TLB counters,
    // a degraded slot's flight tail — must be ignored.
    let cases = [(PRE_TLB_REMOVAL_SHARD0, 3, 2, true), (PRE_REPLAY_CHAOS_SHARD0, 36, 24, false)];
    for (json, cells, trials, reproducible) in cases {
        let old = StreamReport::from_json(json).expect("old report parses");
        assert_eq!(old.cells, cells);
        let campaign = || synthetic_campaign(7, trials);
        let shard1 = campaign().shard(Shard::new(1, 2).unwrap()).run_streaming_with_jobs(1).report;
        let merged = old.try_merge(&shard1).expect("old and new shards merge");
        assert_eq!(merged.cells, 3 * trials, "the two shards cover the grid");
        if reproducible {
            let whole = campaign().run_streaming_with_jobs(1).report;
            assert_eq!(
                merged.normalized().to_json().unwrap(),
                whole.normalized().to_json().unwrap(),
                "an old shard merged with a new one reproduces the unsharded report"
            );
        }
    }
}
