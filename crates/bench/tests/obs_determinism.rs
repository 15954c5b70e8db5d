//! End-to-end acceptance test for the observability layer: a campaign
//! mixing a panicking use case, a slow use case, and a failing boot
//! must produce a trace and metrics snapshot
//! that are (after normalization) byte-identical at any worker count,
//! schema-valid line by line, and summarizable — and degraded cells must
//! carry per-phase timings so the failure is attributable.

mod common;
#[path = "common/fault_plan.rs"]
mod fault_plan;

use common::{messy_campaign, QuietCase};
use fault_plan::FaultPlan;
use hvsim::XenVersion;
use hvsim_obs::{
    normalized_jsonl, parse_jsonl, to_jsonl, MetricsRegistry, TraceEvent, TraceSummary, Tracer,
};
use intrusion_core::{Campaign, CampaignReport, CellOutcome, Mode};

/// A quiet run — one do-nothing cell — must still publish the
/// copy-on-write and hypercall counters as explicit zeros, so a
/// dashboard can tell "nothing happened" from "counter missing".
#[test]
fn quiet_runs_publish_explicit_zero_perf_counters() {
    let registry = MetricsRegistry::new();
    let _report = Campaign::new()
        .with_use_case(Box::new(QuietCase))
        .modes(&[Mode::Injection])
        .metrics(registry.clone())
        .run_with_jobs(1);
    let snapshot = registry.snapshot();
    let value = |name: &str| snapshot.counters.iter().find(|c| c.name == name).map(|c| c.value);
    for name in ["mem.frames_copied", "campaign.hypercalls"] {
        assert_eq!(value(name), Some(0), "{name} published on every run");
    }
}

/// A collecting run folds its cells exactly as a streamed run does, so
/// both publish the same metrics, degraded cells included; only the
/// streamed run's merge time is its own.
#[test]
fn collecting_and_streamed_runs_publish_the_same_metrics() {
    let plan = FaultPlan {
        panics: vec![(XenVersion::V4_8, Mode::Exploit, 1), (XenVersion::V4_6, Mode::Injection, 0)],
        boot_failures: vec![(XenVersion::V4_13, true)],
    };
    let planned = plan.campaign(&XenVersion::ALL, 2);
    let planned = planned.grid().iter().filter(|spec| plan.outcome(spec).is_degraded()).count();
    let check = |name: &str, campaign: &dyn Fn() -> Campaign, degraded: usize| {
        let published = |collect: bool| {
            let registry = MetricsRegistry::new();
            let campaign = campaign().metrics(registry.clone());
            if collect {
                campaign.run_with_jobs(2);
            } else {
                campaign.run_streaming_with_jobs(2);
            }
            let mut snapshot = registry.snapshot().normalized();
            snapshot.counters.retain(|c| c.name != "campaign.stream.merge_us");
            snapshot
        };
        let collected = published(true);
        let counter = collected.counters.iter().find(|c| c.name == "campaign.cells_degraded");
        assert_eq!(counter.map(|c| c.value), Some(degraded as u64), "{name}");
        let collected = serde_json::to_string(&collected).unwrap();
        assert!(collected.contains("campaign.hypercalls"), "{collected}");
        assert_eq!(collected, serde_json::to_string(&published(false)).unwrap(), "{name}");
    };
    check("the messy campaign", &messy_campaign, 4);
    check("a fault plan", &|| plan.campaign(&XenVersion::ALL, 2), planned);
}

/// Runs the messy campaign with obs attached; returns (report, trace
/// JSONL, metrics snapshot JSON).
fn observed_run(jobs: usize) -> (CampaignReport, String, String) {
    let tracer = Tracer::enabled();
    let registry = MetricsRegistry::new();
    let report = messy_campaign()
        .tracer(tracer.clone())
        .metrics(registry.clone())
        .run_with_jobs(jobs);
    let jsonl = to_jsonl(&tracer.drain());
    let metrics = serde_json::to_string(&registry.snapshot().normalized()).unwrap();
    (report, jsonl, metrics)
}

#[test]
fn traces_and_metrics_are_schedule_independent() {
    let (serial_report, serial_jsonl, serial_metrics) = observed_run(1);
    let (parallel_report, parallel_jsonl, parallel_metrics) = observed_run(8);

    // The report stays schedule-independent with obs attached.
    assert_eq!(
        serial_report.normalized(),
        parallel_report.normalized(),
        "normalized reports must be identical at jobs=1 and jobs=8"
    );

    // Every line of the raw trace is schema-valid.
    let serial_events = parse_jsonl(&serial_jsonl).expect("serial trace validates");
    let parallel_events = parse_jsonl(&parallel_jsonl).expect("parallel trace validates");
    assert!(!serial_events.is_empty());
    assert_eq!(serial_events.len(), parallel_events.len());

    // Normalized (wall-clock zeroed) traces are byte-identical: the
    // logical clock is positional, not scheduling-dependent.
    assert_eq!(
        normalized_jsonl(&serial_events),
        normalized_jsonl(&parallel_events),
        "normalized traces must be byte-identical at jobs=1 and jobs=8"
    );

    // So are the normalized metrics snapshots.
    assert_eq!(serial_metrics, parallel_metrics);
}

#[test]
fn degraded_cells_carry_phase_timings() {
    let report = messy_campaign().run_with_jobs(2);

    // The slow cell completed, and its time is attributable: the sleepy
    // exploit burned it in the inject phase, and the timing says so.
    let slow = report.cell("sleepy", XenVersion::V4_13, Mode::Exploit).unwrap();
    assert_eq!(slow.outcome, CellOutcome::Completed);
    let inject_us = slow.phase_us.inject_us.expect("a completed cell keeps inject timing");
    assert!(
        inject_us >= 300_000,
        "the 400 ms sleep must show up in the inject phase, got {inject_us} us"
    );
    assert!(slow.phase_us.boot_us.is_some());

    // The panicking cell records how far it got: boot and inject are
    // timed, the monitor phase was never entered.
    let crashed = report.cell("panicky", XenVersion::V4_8, Mode::Injection).unwrap();
    assert!(matches!(crashed.outcome, CellOutcome::Crashed { .. }));
    assert!(crashed.phase_us.boot_us.is_some());
    assert!(crashed.phase_us.inject_us.is_some(), "elapsed-until-panic is recorded");
    assert_eq!(crashed.phase_us.monitor_us, None, "monitor never ran");

    // The streamed report's latency breakdown splits the populations.
    let latency = messy_campaign().run_streaming_with_jobs(2).report.latency;
    assert_eq!(latency.inject.degraded.count, 1, "panicky");
    // Panicky never reached the monitor.
    assert_eq!(latency.monitor.degraded.count, 0);
    assert_eq!(latency.boot.completed.count, 14);
    // The three cells of the failed world stopped at boot.
    assert_eq!(latency.boot.degraded.count, 4);
    assert!(latency.inject.completed.max_us >= 300_000, "sleepy is a completed cell");
}

/// The normalized events of one trace shard, as canonical JSONL.
fn shard_jsonl(events: &[TraceEvent], shard: u64) -> String {
    let shard: Vec<TraceEvent> = events.iter().filter(|e| e.shard == shard).cloned().collect();
    normalized_jsonl(&shard)
}

#[test]
fn replayed_degraded_slots_reproduce_their_cells_and_trace_shards() {
    let (serial, serial_jsonl, _) = observed_run(1);
    let (parallel, parallel_jsonl, _) = observed_run(8);
    // Unsharded collecting runs keep cells in slot order.
    let degraded: Vec<u64> =
        (0u64..).zip(serial.cells()).filter(|(_, c)| c.degraded()).map(|(s, _)| s).collect();
    assert!(!degraded.is_empty(), "the messy campaign degrades cells");
    for slot in degraded {
        let tracer = Tracer::enabled();
        let replayed = messy_campaign().tracer(tracer.clone()).replay(slot).unwrap();
        let replay_trace = shard_jsonl(&tracer.drain(), slot + 1);
        assert!(replay_trace.contains("cell/degraded"), "slot {slot}: {replay_trace}");
        for (report, jsonl) in [(&serial, &serial_jsonl), (&parallel, &parallel_jsonl)] {
            let cell = &report.cells()[slot as usize];
            assert_eq!(replayed.outcome, cell.outcome, "slot {slot}");
            assert_eq!(replayed.error, cell.error, "slot {slot}");
            assert_eq!(
                replay_trace,
                shard_jsonl(&parse_jsonl(jsonl).unwrap(), slot + 1),
                "replaying slot {slot} must reproduce its trace shard byte-for-byte"
            );
        }
    }
}

#[test]
fn trace_summary_profiles_the_campaign() {
    let (_, jsonl, _) = observed_run(4);
    let events = parse_jsonl(&jsonl).unwrap();
    let summary = TraceSummary::compute(&events);
    let rendered = summary.render(5);
    assert!(rendered.contains("per-path self-time profile"), "{rendered}");
    assert!(rendered.contains("cell/inject"), "{rendered}");
    assert!(rendered.contains("cell/monitor"), "{rendered}");
    assert!(rendered.contains("slowest cells"), "{rendered}");
    // The sleepy cell dominates wall time.
    assert!(
        rendered.contains("sleepy / Xen 4.13 / exploit"),
        "the slowest cell is the sleeper:\n{rendered}"
    );
}
