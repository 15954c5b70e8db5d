//! Deterministic chaos-harness tests: a fixed `--chaos-seed` must
//! produce the *same* faults at any worker count, every injected fault
//! must surface as a typed degradation (never a hung run or a silent
//! mis-count), and chaos must compose with checkpoint/resume — torn
//! journal writes included.

use bench::synthetic_campaign;
use hvsim_obs::MetricsRegistry;
use intrusion_core::{Campaign, CellOutcome, ChaosPolicy};
use std::collections::BTreeMap;

const SEED: u64 = 0xD5_2023;
// 3 versions × 1,000 trials = 3,000 cells: enough for every fault class
// to fire many times at the standard permille rates.
const TRIALS: u64 = 1_000;
const CHAOS_SEED: u64 = 7;

fn chaotic() -> Campaign {
    synthetic_campaign(SEED, TRIALS).chaos(CHAOS_SEED)
}

#[test]
fn chaos_is_schedule_independent_and_every_fault_is_typed() {
    let jobs1 = chaotic().run_streaming_with_jobs(1);
    let jobs8 = chaotic().run_streaming_with_jobs(8);
    assert_eq!(
        jobs1.report.normalized().to_json().unwrap(),
        jobs8.report.normalized().to_json().unwrap(),
        "a fixed chaos seed must produce byte-identical reports at jobs=1 and jobs=8"
    );

    // Replay the policy's slot-keyed decisions to predict exactly which
    // cells degrade and how. Precedence mirrors the engine: a failed
    // boot never reaches the scenario body, so its panic never fires.
    let policy = ChaosPolicy::new(CHAOS_SEED);
    let (mut boot_failed, mut crashed) = (0u64, 0u64);
    for slot in 0..jobs1.report.cells {
        if policy.boot_failure(slot) {
            boot_failed += 1;
        } else if policy.worker_panic(slot) {
            crashed += 1;
        }
    }
    let report = &jobs1.report;
    assert_eq!(report.cells, 3_000);
    assert!(boot_failed > 0 && crashed > 0, "every fault class fired");
    assert_eq!(report.boot_failed, boot_failed, "injected boot failures are typed BootFailed");
    assert_eq!(report.crashed, crashed, "injected panics are typed Crashed");
    assert_eq!(report.degraded, boot_failed + crashed, "no untyped degradation");
    assert!(report.is_degraded(), "a chaotic run reports degradation (CLI exit 2)");
    for (id, slot) in &report.degraded_slots {
        assert!(slot.error.is_some(), "degraded slot {id} carries a typed error: {slot:?}");
        // Every degraded cell is reproducible from its slot alone.
        let replayed = chaotic().replay(*id).expect("degraded slots lie inside the grid");
        assert_eq!(replayed.outcome, slot.outcome, "replay of slot {id}");
        assert_eq!(replayed.error, slot.error, "replay of slot {id}");
    }
}

#[test]
fn collecting_runs_inject_the_streamed_runs_faults() {
    let jobs1 = chaotic().run_with_jobs(1);
    let jobs8 = chaotic().run_with_jobs(8);
    assert_eq!(
        jobs1.normalized(),
        jobs8.normalized(),
        "a fixed chaos seed must produce identical collected reports at jobs=1 and jobs=8"
    );

    // The unsharded grid's cells are in slot order, so a collected
    // cell's index is its slot: the same slots degrade, the same way,
    // as in a streamed run of the same campaign.
    let collected: BTreeMap<u64, CellOutcome> = (0u64..)
        .zip(jobs1.cells())
        .filter(|(_, cell)| cell.degraded())
        .map(|(slot, cell)| (slot, cell.outcome.clone()))
        .collect();
    let streamed: BTreeMap<u64, CellOutcome> = chaotic()
        .run_streaming_with_jobs(2)
        .report
        .degraded_slots
        .into_iter()
        .map(|(slot, degraded)| (slot, degraded.outcome))
        .collect();
    assert!(!collected.is_empty(), "chaos fired on the collecting run");
    assert_eq!(collected, streamed, "collected and streamed runs degrade the same slots");
}

#[test]
fn chaos_counters_are_published_even_when_no_fault_fires() {
    // Pick a seed whose standard policy draws no fault on any of the
    // six slots of this small grid: "chaos quiet" must still publish
    // every `campaign.chaos.*` counter as an explicit zero, so a
    // dashboard can tell it apart from "chaos off" (counters absent).
    let cells = 6u64;
    let quiet_seed = (0..10_000u64)
        .find(|&seed| {
            let probe = ChaosPolicy::new(seed);
            (0..cells).all(|slot| !probe.boot_failure(slot) && !probe.worker_panic(slot))
        })
        .expect("some seed in 0..10_000 is quiet over six slots");
    let registry = MetricsRegistry::new();
    let outcome = synthetic_campaign(SEED, 2)
        .chaos(quiet_seed)
        .metrics(registry.clone())
        .run_streaming_with_jobs(2);
    assert_eq!(outcome.report.cells, cells);
    assert_eq!(outcome.report.degraded, 0, "seed {quiet_seed} fired a fault after all");
    let snapshot = registry.snapshot();
    for name in [
        "campaign.chaos.worker_panics",
        "campaign.chaos.boot_failures",
        "campaign.chaos.torn_writes",
    ] {
        let counter = snapshot
            .counters
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("{name} must be published on a quiet chaos run"));
        assert_eq!(counter.value, 0, "{name} must be an explicit zero");
    }
}

#[test]
fn chaos_composes_with_checkpoint_resume_despite_torn_writes() {
    let journal =
        std::env::temp_dir().join(format!("hvsim-chaos-{}.journal", std::process::id()));
    let full = chaotic().jobs(4).run_streaming_checkpointed(&journal).unwrap();
    // The standard policy tears ~10% of journal records mid-write; the
    // run itself must still complete and report every cell.
    assert_eq!(full.report.cells, 3_000);
    let uninterrupted = full.report.normalized().to_json().unwrap();

    // Truncate (hard kill) and resume with the same chaos seed: the
    // loader skips torn records, the engine re-runs uncovered slots with
    // the same slot-keyed faults, and the report comes back identical.
    let bytes = std::fs::read(&journal).unwrap();
    std::fs::write(&journal, &bytes[..bytes.len() / 2]).unwrap();
    // The journal names its seed, so no other schedule may resume it.
    let calm = synthetic_campaign(SEED, TRIALS).jobs(4);
    for other in [calm.resume(&journal), calm.chaos(CHAOS_SEED + 1).resume(&journal)] {
        let err = other.unwrap_err().to_string();
        assert!(err.contains(&format!("chaos seed {CHAOS_SEED}")), "{err}");
    }
    let resumed = chaotic().jobs(4).resume(&journal).unwrap();
    assert_eq!(
        resumed.report.normalized().to_json().unwrap(),
        uninterrupted,
        "chaos + kill + resume must reproduce the uninterrupted report"
    );
    std::fs::remove_file(&journal).ok();
}
