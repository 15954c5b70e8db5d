//! Regression tests for the parallel campaign engine: the real paper
//! campaign (4 use cases × 3 versions × 2 modes) must produce
//! byte-identical normalized reports regardless of worker count or
//! snapshot reuse, and the randomized sweep must be schedule-independent.

use bench::{attack_world, paper_campaign, synthetic_campaign};
use hvsim::XenVersion;
use intrusion_core::{
    standard_world_factory, RandomizedCampaign, Shard, StreamReport, TargetRegion,
};
use proptest::prelude::*;

#[test]
fn paper_campaign_report_is_worker_count_independent() {
    let serial = paper_campaign().run_with_jobs(1);
    let parallel = paper_campaign().run_with_jobs(8);
    assert_eq!(
        serial.normalized().to_json().unwrap(),
        parallel.normalized().to_json().unwrap(),
        "jobs=1 and jobs=8 must produce byte-identical reports"
    );
}

#[test]
fn paper_campaign_snapshots_match_boot_per_cell() {
    let snapshots = paper_campaign().run_with_jobs(2);
    let booted = paper_campaign().reuse_snapshots(false).run_with_jobs(2);
    assert_eq!(
        snapshots.normalized().to_json().unwrap(),
        booted.normalized().to_json().unwrap(),
        "a snapshot clone must behave exactly like a fresh boot"
    );
}

#[test]
fn paper_campaign_report_is_chunk_size_independent() {
    // The COW chunk directory is pure mechanism: shrinking chunks to a
    // single frame (maximum privatization granularity) or inflating
    // them past the whole world (the old monolithic behaviour) must
    // not change a single byte of the normalized report.
    let default_chunks = paper_campaign().run_with_jobs(2);
    for chunk in [1usize, 1 << 20] {
        let resized = paper_campaign()
            .world_factory(standard_world_factory(Some(chunk)))
            .run_with_jobs(2);
        assert_eq!(
            default_chunks.normalized().to_json().unwrap(),
            resized.normalized().to_json().unwrap(),
            "chunk size {chunk} must produce a byte-identical report"
        );
    }
}

#[test]
fn paper_campaign_records_cell_metrics() {
    let report = paper_campaign().run();
    assert_eq!(report.cells().len(), 24);
    assert!(report.total_hypercalls() > 0);
    assert!(report.total_wall_time_us() > 0);
    // The COW stats ride along on every cell and aggregate into the
    // throughput record.
    assert!(report.cells().iter().all(|c| c.snapshot.frames_total > 0));
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
