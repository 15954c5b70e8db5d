//! End-to-end acceptance test for the fault-contained campaign engine:
//! a single campaign mixing a panicking use case, a deadline-overrunning
//! use case, and a transiently-failing boot must run to completion,
//! report each failure through the typed taxonomy, and stay
//! schedule-independent.

use guestos::{BootError, World};
use hvsim::XenVersion;
use hvsim_mem::DomainId;
use intrusion_core::campaign::standard_world;
use intrusion_core::{
    AbusiveFunctionality, Campaign, CampaignError, CellOutcome, Injector, IntrusionModel, Mode,
    ScenarioOutcome, UseCase,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn model() -> IntrusionModel {
    IntrusionModel::guest_hypercall_memory(
        "IM-fault-containment",
        AbusiveFunctionality::WriteUnauthorizedArbitraryMemory,
        &[],
    )
}

/// A well-behaved use case: induces nothing, violates nothing.
struct QuietCase;

impl UseCase for QuietCase {
    fn name(&self) -> &'static str {
        "quiet"
    }

    fn intrusion_model(&self) -> IntrusionModel {
        model()
    }

    fn run_exploit(&self, _world: &mut World, _attacker: DomainId) -> ScenarioOutcome {
        ScenarioOutcome::failed("-ENOSYS (not attempted)")
    }

    fn run_injection(
        &self,
        _world: &mut World,
        _attacker: DomainId,
        _injector: &dyn Injector,
    ) -> ScenarioOutcome {
        ScenarioOutcome::default()
    }
}

/// Panics (only) when injecting on Xen 4.8 — a buggy harness component.
struct PanickyCase;

impl UseCase for PanickyCase {
    fn name(&self) -> &'static str {
        "panicky"
    }

    fn intrusion_model(&self) -> IntrusionModel {
        model()
    }

    fn run_exploit(&self, _world: &mut World, _attacker: DomainId) -> ScenarioOutcome {
        ScenarioOutcome::failed("-ENOSYS (not attempted)")
    }

    fn run_injection(
        &self,
        world: &mut World,
        _attacker: DomainId,
        _injector: &dyn Injector,
    ) -> ScenarioOutcome {
        if world.hv().version() == XenVersion::V4_8 {
            panic!("injector blew up");
        }
        ScenarioOutcome::default()
    }
}

/// Overruns the cell deadline (only) when exploiting Xen 4.13.
struct SleepyCase;

impl UseCase for SleepyCase {
    fn name(&self) -> &'static str {
        "sleepy"
    }

    fn intrusion_model(&self) -> IntrusionModel {
        model()
    }

    fn run_exploit(&self, world: &mut World, _attacker: DomainId) -> ScenarioOutcome {
        if world.hv().version() == XenVersion::V4_13 {
            std::thread::sleep(Duration::from_millis(400));
        }
        ScenarioOutcome::failed("-ENOSYS (not attempted)")
    }

    fn run_injection(
        &self,
        _world: &mut World,
        _attacker: DomainId,
        _injector: &dyn Injector,
    ) -> ScenarioOutcome {
        ScenarioOutcome::default()
    }
}

/// Builds the messy campaign: boots of `(4.6, injector)` fail
/// transiently twice before succeeding, one cell panics, one overruns
/// its deadline. Fresh failure counters per call so repeated runs see
/// identical fault schedules.
fn messy_campaign() -> Campaign {
    let boot_attempts: Mutex<BTreeMap<(XenVersion, bool), u32>> = Mutex::new(BTreeMap::new());
    Campaign::new()
        .with_use_case(Box::new(QuietCase))
        .with_use_case(Box::new(PanickyCase))
        .with_use_case(Box::new(SleepyCase))
        .world_factory(Arc::new(move |version, injector| {
            if version == XenVersion::V4_6 && injector {
                let mut attempts = boot_attempts.lock().unwrap();
                let n = attempts.entry((version, injector)).or_insert(0);
                *n += 1;
                if *n <= 2 {
                    return Err(BootError::transient("create dom0", "out of memory"));
                }
            }
            standard_world(version, injector)
        }))
        .retries(2)
        .cell_deadline(Duration::from_millis(100))
}

#[test]
fn mixed_failure_campaign_completes_with_typed_outcomes() {
    let report = messy_campaign().run_with_jobs(2);

    // Every cell of the 3 × 3 × 2 matrix is reported, none is lost.
    assert_eq!(report.cells().len(), 18);

    // The panicking cell is contained as a typed crash.
    let crashed = report.cell("panicky", XenVersion::V4_8, Mode::Injection).unwrap();
    match &crashed.outcome {
        CellOutcome::Crashed { payload, cell } => {
            assert_eq!(payload, "injector blew up");
            assert_eq!(cell.use_case, "panicky");
            assert_eq!(cell.version, XenVersion::V4_8);
            assert_eq!(cell.mode, Mode::Injection);
        }
        other => panic!("expected Crashed, got {other:?}"),
    }
    assert!(crashed.degraded());
    assert!(matches!(crashed.error, Some(CampaignError::HarnessCrash { .. })));

    // The overrunning cell is reported against its deadline.
    let slow = report.cell("sleepy", XenVersion::V4_13, Mode::Exploit).unwrap();
    assert_eq!(slow.outcome, CellOutcome::TimedOut { deadline_us: 100_000 });
    assert!(slow.degraded());

    // The transiently-failing boots recovered: every (4.6, injection)
    // cell completed despite two boot failures.
    for cell in report.cells().iter().filter(|c| {
        c.version == XenVersion::V4_6 && c.mode == Mode::Injection
    }) {
        assert_eq!(cell.outcome, CellOutcome::Completed, "{} did not recover", cell.use_case);
        assert!(!cell.degraded(), "{} degraded", cell.use_case);
    }

    // Exactly the two injected harness faults degraded the run; this is
    // what maps to CLI exit code 2.
    assert!(report.is_degraded());
    assert_eq!(report.cells().iter().filter(|c| c.degraded()).count(), 2);

    // The streamed report separates the populations the same way.
    let streamed = messy_campaign().run_streaming_with_jobs(2).report;
    assert_eq!((streamed.cells, streamed.completed, streamed.degraded), (18, 16, 2));
}

#[test]
fn mixed_failure_campaign_is_schedule_independent() {
    let serial = messy_campaign().run_with_jobs(1).normalized();
    let parallel = messy_campaign().run_with_jobs(8).normalized();
    assert_eq!(
        serial, parallel,
        "contained failures must be reported identically at jobs=1 and jobs=8"
    );
}
