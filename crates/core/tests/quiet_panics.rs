//! The quiet panic hook, in process: after [`quiet_contained_panics`], a
//! panic the campaign contains reaches no hook (the run lists it as a
//! degraded slot), and any other panic still reaches the hook that was
//! installed before. A panic hook is process-wide, which is why this is
//! a test binary of its own, with one test.

use guestos::World;
use hvsim::XenVersion;
use hvsim_mem::DomainId;
use intrusion_core::{
    quiet_contained_panics, AbusiveFunctionality, Campaign, CellOutcome, Injector,
    IntrusionModel, Mode, ScenarioOutcome, UseCase,
};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Panics in the inject phase of one cell of its grid: the exploit on
/// Xen 4.8.
struct PanicsOnce;

impl UseCase for PanicsOnce {
    fn name(&self) -> &'static str {
        "panics-once"
    }

    fn intrusion_model(&self) -> IntrusionModel {
        IntrusionModel::guest_hypercall_memory(
            "IM-panics-once",
            AbusiveFunctionality::WriteUnauthorizedArbitraryMemory,
            &[],
        )
    }

    fn run_exploit(&self, world: &mut World, _attacker: DomainId) -> ScenarioOutcome {
        assert!(world.hv().version() != XenVersion::V4_8, "planned panic");
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

#[test]
fn contained_panics_reach_no_hook_and_other_panics_do() {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    std::panic::set_hook(Box::new(|_| {
        CALLS.fetch_add(1, Ordering::SeqCst);
    }));
    quiet_contained_panics();

    let campaign = Campaign::new().with_use_case(Box::new(PanicsOnce));
    let report = campaign.run_streaming_with_jobs(2).report;
    let crashed: Vec<_> = report.degraded_slots.values().map(|cell| &cell.outcome).collect();
    let planned = (XenVersion::V4_8, Mode::Exploit);
    assert!(
        matches!(crashed[..], [CellOutcome::Crashed { payload, cell }]
            if payload == "planned panic" && (cell.version, cell.mode) == planned),
        "{crashed:?}"
    );
    assert_eq!(CALLS.load(Ordering::SeqCst), 0, "a contained panic reaches no hook");

    assert!(std::panic::catch_unwind(|| panic!("not contained")).is_err());
    assert_eq!(CALLS.load(Ordering::SeqCst), 1, "any other panic reaches the earlier hook");
}
