//! The harness's own faults, every placement enumerated: an inject-phase
//! panic at each slot of a small grid, a boot failure at each base
//! world, and each pair of panics on a smaller grid. Under every plan
//! exactly the planned slots degrade, with the planned outcome, and the
//! report stays a function of the grid alone: the same at any worker
//! count, across shards, through replay, through checkpoint and resume,
//! and for collecting and streamed runs.
//!
//! The third harness fault, a torn journal write, is a file: every crash
//! state of a journal is built and resumed.

#[path = "common/fault_plan.rs"]
mod fault_plan;

use fault_plan::FaultPlan;
use guestos::World;
use hvsim::XenVersion;
use hvsim_mem::DomainId;
use hvsim_obs::MetricsRegistry;
use intrusion_core::{
    quiet_contained_panics, Campaign, CellOutcome, CheckpointError, Injector, IntrusionModel,
    Mode, Monitor, ScenarioOutcome, Shard, StreamReport, UseCase,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};

/// The small grid: every version × both modes × two trials, 12 slots.
const VERSIONS: [XenVersion; 3] = XenVersion::ALL;
/// The smaller grid of the pairs: two versions, 8 slots.
const PAIR_VERSIONS: [XenVersion; 2] = [XenVersion::V4_6, XenVersion::V4_13];
const TRIALS: u64 = 2;

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hvsim-fault-plans-{}-{name}", std::process::id()))
}

fn normalized(report: &StreamReport) -> String {
    report.normalized().to_json().expect("a report serializes")
}

/// The byte offset just past each line of `bytes`.
fn line_ends(bytes: &[u8]) -> Vec<usize> {
    (0..bytes.len()).filter(|&i| bytes[i] == b'\n').map(|i| i + 1).collect()
}

/// Runs every check on the campaign of `plan` over `versions`.
fn check(plan: &FaultPlan, versions: &[XenVersion], journal: &PathBuf) {
    let campaign = || plan.campaign(versions, TRIALS);
    let planned: BTreeMap<u64, CellOutcome> = campaign()
        .grid()
        .iter()
        .map(|spec| (spec.slot, plan.outcome(&spec)))
        .filter(|(_, outcome)| outcome.is_degraded())
        .collect();
    assert!(!planned.is_empty(), "{plan:?} degrades a slot");

    let reference = campaign().run_streaming_with_jobs(1).report;
    let want = normalized(&reference);
    assert_eq!(normalized(&campaign().run_streaming_with_jobs(4).report), want, "{plan:?}");

    // Exactly the planned slots degrade, with the planned outcome.
    let degraded: BTreeMap<u64, CellOutcome> = reference
        .degraded_slots
        .iter()
        .map(|(&slot, cell)| (slot, cell.outcome.clone()))
        .collect();
    assert_eq!(degraded, planned, "{plan:?}");
    assert_eq!(reference.degraded, planned.len() as u64, "{plan:?}");

    let shard = |index| campaign().shard(Shard::new(index, 2).unwrap()).run_streaming_with_jobs(2);
    let merged = shard(0).report.try_merge(&shard(1).report).expect("the shards merge");
    assert_eq!(normalized(&merged), want, "{plan:?}: merged shards");

    for (&slot, outcome) in &planned {
        let cell = campaign().replay(slot).expect("a planned slot lies inside the grid");
        assert_eq!(&cell.outcome, outcome, "{plan:?}: replay of slot {slot}");
        assert_eq!(cell.error, reference.degraded_slots[&slot].error, "{plan:?}: slot {slot}");
    }

    let full = campaign().jobs(4).run_streaming_checkpointed(journal).unwrap();
    assert_eq!(normalized(&full.report), want, "{plan:?}: checkpointed");
    let bytes = std::fs::read(journal).unwrap();
    for end in line_ends(&bytes) {
        std::fs::write(journal, &bytes[..end]).unwrap();
        let resumed = campaign().jobs(4).resume(journal).unwrap();
        assert_eq!(normalized(&resumed.report), want, "{plan:?}: resumed from byte {end}");
    }
    std::fs::remove_file(journal).ok();

    for jobs in [1, 4] {
        let collected = campaign().run_with_jobs(jobs);
        // Unsharded, so a collected cell's index is its slot.
        let degraded: BTreeMap<u64, CellOutcome> = (0u64..)
            .zip(collected.cells())
            .filter(|(_, cell)| cell.degraded())
            .map(|(slot, cell)| (slot, cell.outcome.clone()))
            .collect();
        assert_eq!(degraded, planned, "{plan:?}: collected at jobs {jobs}");
        if jobs == 4 {
            assert_eq!(collected.normalized(), campaign().run_with_jobs(1).normalized());
        }
    }
}

#[test]
fn every_single_panic_degrades_exactly_its_slot() {
    quiet_contained_panics();
    let journal = scratch("single.journal");
    for spec in FaultPlan::default().campaign(&VERSIONS, TRIALS).grid().iter() {
        let panics = vec![(spec.version, spec.mode, spec.trial)];
        let plan = FaultPlan { panics, ..FaultPlan::default() };
        check(&plan, &VERSIONS, &journal);
    }
}

#[test]
fn every_boot_failure_degrades_exactly_its_base_worlds_cells() {
    let journal = scratch("boot.journal");
    for version in VERSIONS {
        for injector in [false, true] {
            let boot_failures = vec![(version, injector)];
            let plan = FaultPlan { boot_failures, ..FaultPlan::default() };
            check(&plan, &VERSIONS, &journal);
        }
    }
}

#[test]
fn every_pair_of_panics_degrades_exactly_its_two_slots() {
    quiet_contained_panics();
    let journal = scratch("pairs.journal");
    let cells: Vec<_> = FaultPlan::default()
        .campaign(&PAIR_VERSIONS, TRIALS)
        .grid()
        .iter()
        .map(|spec| (spec.version, spec.mode, spec.trial))
        .collect();
    for (i, &first) in cells.iter().enumerate() {
        for &second in &cells[i + 1..] {
            let plan = FaultPlan { panics: vec![first, second], ..FaultPlan::default() };
            check(&plan, &PAIR_VERSIONS, &journal);
        }
    }
}

/// A use case whose workers meet before their first cell runs, so that
/// each of them has claimed its batch first: at `jobs` workers on a grid
/// of `jobs` batches, every worker writes exactly one fold record.
struct Rendezvous {
    inner: Box<dyn UseCase>,
    barrier: Arc<Barrier>,
}

thread_local! {
    static MET: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

impl Rendezvous {
    fn meet(&self) {
        if !MET.replace(true) {
            self.barrier.wait();
        }
    }
}

impl UseCase for Rendezvous {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn intrusion_model(&self) -> IntrusionModel {
        self.inner.intrusion_model()
    }

    fn run_exploit(&self, world: &mut World, attacker: DomainId) -> ScenarioOutcome {
        self.run_exploit_trial(world, attacker, 0)
    }

    fn run_injection(
        &self,
        world: &mut World,
        attacker: DomainId,
        injector: &dyn Injector,
    ) -> ScenarioOutcome {
        self.run_injection_trial(world, attacker, injector, 0)
    }

    fn run_exploit_trial(
        &self,
        world: &mut World,
        attacker: DomainId,
        trial: u64,
    ) -> ScenarioOutcome {
        self.meet();
        self.inner.run_exploit_trial(world, attacker, trial)
    }

    fn run_injection_trial(
        &self,
        world: &mut World,
        attacker: DomainId,
        injector: &dyn Injector,
        trial: u64,
    ) -> ScenarioOutcome {
        self.meet();
        self.inner.run_injection_trial(world, attacker, injector, trial)
    }

    fn monitor(&self, world: &World, attacker: DomainId) -> Monitor {
        self.inner.monitor(world, attacker)
    }
}

/// The slots a journal line's fold record covers: its `slots` batch,
/// plain numbers and `a-b` or `a-b/s` runs.
fn record_slots(line: &[u8]) -> Vec<u64> {
    let line = std::str::from_utf8(line).unwrap();
    let event = hvsim_obs::parse_line(line.splitn(3, ' ').nth(2).unwrap()).unwrap();
    let batch = event.attrs.iter().find(|(k, _)| k == "slots").map(|(_, v)| v.clone()).unwrap();
    let mut slots = Vec::new();
    for part in batch.split(',').filter(|part| !part.is_empty()) {
        let Some((first, rest)) = part.split_once('-') else {
            slots.push(part.parse().unwrap());
            continue;
        };
        let (last, stride) = rest.split_once('/').unwrap_or((rest, "1"));
        let (first, last, stride): (u64, u64, u64) =
            (first.parse().unwrap(), last.parse().unwrap(), stride.parse().unwrap());
        slots.extend((first..=last).step_by(stride as usize));
    }
    slots
}

fn resumed_slots(registry: &MetricsRegistry) -> Option<u64> {
    let snapshot = registry.snapshot();
    let counter = snapshot.counters.iter().find(|c| c.name == "campaign.checkpoint.resumed_slots");
    counter.map(|c| c.value)
}

#[test]
fn every_crash_state_of_a_journal_resumes_to_the_uninterrupted_report() {
    const JOBS: usize = 4;
    let plan = FaultPlan::default();
    // One key of 16 slots, four batches of four: one fold record per
    // worker.
    let campaign = || plan.campaign(&[XenVersion::V4_6], 16).modes(&[Mode::Injection]);
    let journal = scratch("crash-states.journal");
    let meeting = Campaign::new()
        .with_use_case(Box::new(Rendezvous {
            inner: plan.use_case(),
            barrier: Arc::new(Barrier::new(JOBS)),
        }))
        .versions(&[XenVersion::V4_6])
        .modes(&[Mode::Injection])
        .trials(16)
        .world_factory(plan.world_factory())
        .jobs(JOBS);
    let want = normalized(&meeting.run_streaming_checkpointed(&journal).unwrap().report);
    assert_eq!(normalized(&campaign().run_streaming_with_jobs(1).report), want);
    let bytes = std::fs::read(&journal).unwrap();
    let ends = line_ends(&bytes);
    assert_eq!(ends.len(), JOBS + 1, "a header and one fold record per worker");
    assert_eq!(ends.last(), Some(&bytes.len()));
    // `done[k]`: the slots of the first `k` fold records.
    let mut done = vec![BTreeSet::new()];
    for pair in ends.windows(2) {
        let mut slots = done.last().unwrap().clone();
        slots.extend(record_slots(&bytes[pair[0]..pair[1] - 1]));
        done.push(slots);
    }
    assert_eq!(done[JOBS].len(), 16, "the records cover the grid");

    // Every crash state with the number of fold records before its
    // first bad line.
    let mut states: Vec<(String, Vec<u8>, usize)> = Vec::new();
    for (records, &end) in ends.iter().enumerate() {
        states.push((format!("cut after record {records}"), bytes[..end].to_vec(), records));
    }
    let last = ends[JOBS - 1];
    for cut in last + 1..bytes.len() {
        states.push((format!("cut at byte {cut}"), bytes[..cut].to_vec(), JOBS - 1));
    }
    // A torn write followed by a whole one: the first half of record 2
    // runs into record 3 on one line.
    let (start, end) = (ends[1], ends[2]);
    let spliced = [&bytes[..start + (end - start) / 2], &bytes[end..]].concat();
    states.push(("half a record spliced before the next".to_owned(), spliced, 1));
    let zeroed = [&bytes[..], &[0; 4096]].concat();
    states.push(("a zero-filled tail".to_owned(), zeroed, JOBS));

    for (state, file, records) in states {
        std::fs::write(&journal, &file).unwrap();
        let registry = MetricsRegistry::new();
        let resumed = campaign().jobs(1).metrics(registry.clone()).resume(&journal).unwrap();
        assert_eq!(normalized(&resumed.report), want, "{state}");
        let expected = done[records].len() as u64;
        assert_eq!(resumed_slots(&registry), Some(expected), "{state}");
        // The resume cut the bad tail before appending: the journal is
        // its valid prefix and whole fold records.
        let kept = ends[records];
        let resumed = std::fs::read(&journal).unwrap();
        assert_eq!(resumed[..kept], bytes[..kept], "{state}");
        for line in resumed[kept..].split_inclusive(|&b| b == b'\n') {
            let whole = line.strip_suffix(b"\n").expect("a whole line");
            assert!(!record_slots(whole).is_empty(), "{state}: a fold record follows");
        }
    }

    // A cut inside the header leaves no journal to resume.
    for cut in 0..ends[0] {
        std::fs::write(&journal, &bytes[..cut]).unwrap();
        let refused = campaign().resume(&journal).err();
        let refused = matches!(refused, Some(CheckpointError::Header { .. }));
        assert!(refused, "a cut at byte {cut} is not a journal");
        assert_eq!(std::fs::read(&journal).unwrap(), &bytes[..cut], "the file is kept");
    }
    std::fs::remove_file(&journal).ok();
}
