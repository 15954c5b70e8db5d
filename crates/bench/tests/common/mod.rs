//! Harness-fault fixtures shared by `fault_containment.rs` and
//! `obs_determinism.rs`: a well-behaved use case, a panicking one, a
//! slow one, and the campaign that mixes them with a failing boot.

use guestos::{BootError, World};
use hvsim::XenVersion;
use hvsim_mem::DomainId;
use intrusion_core::campaign::standard_world;
use intrusion_core::{
    AbusiveFunctionality, Campaign, Injector, IntrusionModel, ScenarioOutcome, UseCase,
};
use std::sync::Arc;
use std::time::Duration;

fn model() -> IntrusionModel {
    IntrusionModel::guest_hypercall_memory(
        "IM-harness-fault",
        AbusiveFunctionality::WriteUnauthorizedArbitraryMemory,
        &[],
    )
}

/// A well-behaved use case: induces nothing, violates nothing.
pub struct QuietCase;

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
pub struct PanickyCase;

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

/// Sleeps 400 ms (only) when exploiting Xen 4.13: the campaign's
/// slowest cell, which still completes.
pub struct SleepyCase;

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

/// Builds the messy campaign: the `(4.6, injector)` world fails to
/// boot, one cell panics, one is slow.
pub fn messy_campaign() -> Campaign {
    Campaign::new()
        .with_use_case(Box::new(QuietCase))
        .with_use_case(Box::new(PanickyCase))
        .with_use_case(Box::new(SleepyCase))
        .world_factory(Arc::new(move |version, injector| {
            if version == XenVersion::V4_6 && injector {
                return Err(BootError::new("create dom0", "out of memory"));
            }
            standard_world(version, injector)
        }))
}
