//! Regression tests for the parallel campaign engine: the real paper
//! campaign (4 use cases × 3 versions × 2 modes) must produce
//! byte-identical normalized reports regardless of worker count or
//! snapshot reuse (the extension use cases too), and the randomized
//! sweep must be schedule-independent.

use bench::{attack_world, paper_campaign, synthetic_campaign};
use hvsim::XenVersion;
use intrusion_core::{Campaign, RandomizedCampaign, Shard, StreamReport, TargetRegion};
use proptest::prelude::*;
use xsa_exploits::extension_use_cases;

#[test]
fn paper_campaign_report_is_worker_count_independent() {
    let serial = paper_campaign().run_with_jobs(1);
    let parallel = paper_campaign().run_with_jobs(8);
    assert_eq!(
        serial.normalized(),
        parallel.normalized(),
        "jobs=1 and jobs=8 must produce identical reports"
    );
}

#[test]
fn paper_campaign_snapshots_match_boot_per_cell() {
    let snapshots = paper_campaign().run_with_jobs(2);
    let booted = paper_campaign().reuse_snapshots(false).run_with_jobs(2);
    assert_eq!(
        snapshots.normalized(),
        booted.normalized(),
        "a snapshot clone must behave exactly like a fresh boot"
    );
}

/// The same check with the extension use cases on and several trials
/// per cell. Those cells write to dom0 and to cross-domain grant and
/// event-channel state, so a fork privatizes several of the domains it
/// shares with its base world.
#[test]
fn extension_campaign_snapshots_match_boot_per_cell() {
    let campaign = || {
        extension_use_cases()
            .into_iter()
            .fold(paper_campaign(), Campaign::with_use_case)
            .trials(4)
    };
    let snapshots = campaign().run_with_jobs(2);
    let booted = campaign().reuse_snapshots(false).run_with_jobs(2);
    assert_eq!(snapshots.cells().len(), 8 * 3 * 2 * 4);
    assert_eq!(
        snapshots.normalized(),
        booted.normalized(),
        "a snapshot clone must behave exactly like a fresh boot"
    );
}

#[test]
fn paper_campaign_records_cell_metrics() {
    let report = paper_campaign().run_with_jobs(2);
    assert_eq!(report.cells().len(), 24);
    assert!(report.cells().iter().map(|c| c.hypercalls).sum::<u64>() > 0);
    assert!(report.cells().iter().map(|c| c.wall_time_us).sum::<u64>() > 0);
    // The COW stats ride along on every cell.
    assert!(report.cells().iter().all(|c| c.snapshot.frames_total > 0));
}

/// Each cell reads the clock once at its start and once after each
/// phase, so boot, inject and monitor tile its wall time; rounding each
/// of the three to whole µs loses at most 2 µs.
#[test]
fn phases_tile_each_cells_wall_time() {
    let report = paper_campaign().trials(4).run_with_jobs(2);
    for cell in report.cells().iter().filter(|c| !c.degraded()) {
        let p = cell.phase_us;
        let phases = p.boot_us.unwrap() + p.inject_us.unwrap() + p.monitor_us.unwrap();
        let slack = cell.wall_time_us.checked_sub(phases);
        assert!(
            matches!(slack, Some(0..=2)),
            "{} {} {}: wall {} µs, phases {p:?}",
            cell.use_case,
            cell.version,
            cell.mode,
            cell.wall_time_us
        );
    }
}

#[test]
fn randomized_sweep_is_worker_count_independent() {
    let campaign = RandomizedCampaign::new(TargetRegion::IdtGates { cpu: 0 }, 16, 7);
    let factory = || Ok(attack_world(XenVersion::V4_8, true));
    let (s1, o1) = campaign.run_with_jobs(factory, 1).unwrap();
    let (s4, o4) = campaign.run_with_jobs(factory, 8).unwrap();
    assert_eq!(s1, s4);
    assert_eq!(o1, o4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For random grids, seeds, and worker counts, running the campaign
    /// as n independent shards (n ∈ {2, 3, 5}) and merging the shard
    /// reports reproduces the unsharded streamed report byte-for-byte.
    #[test]
    fn sharded_streaming_reports_merge_to_the_unsharded_report(
        seed in any::<u64>(),
        trials in 1u64..40,
        jobs in 1usize..5,
        shard_jobs in 1usize..5,
    ) {
        let unsharded = synthetic_campaign(seed, trials)
            .run_streaming_with_jobs(jobs)
            .report
            .normalized()
            .to_json()
            .unwrap();
        for count in [2u64, 3, 5] {
            let merged = (0..count)
                .map(|index| {
                    synthetic_campaign(seed, trials)
                        .shard(Shard::new(index, count).unwrap())
                        .run_streaming_with_jobs(shard_jobs)
                        .report
                })
                .fold(StreamReport::default(), |acc, part| acc.merge(&part));
            prop_assert_eq!(
                &unsharded,
                &merged.normalized().to_json().unwrap(),
                "{} shards at jobs={} must merge to the jobs={} report",
                count, shard_jobs, jobs
            );
        }
    }
}
