//! Interrupt and management-interface intrusion models — the paper's
//! stated prototype expansion ("IMs related with malicious interrupts
//! and activities originating from the management interface", §IX-C).
//!
//! [`EvtchnStorm`] covers the *Uncontrolled Arbitrary Interrupts
//! Requests* functionality of Table I: spurious events raised on ports a
//! victim never bound. [`MgmtPause`] covers an availability state from
//! the management interface: a domain paused without any legitimate
//! request. The latter has **no exploit path on any simulated version**
//! — which is precisely the case the paper argues intrusion injection
//! exists for: assessing the impact of vulnerabilities that are not
//! (yet) known to exist.

use guestos::World;
use hvsim::EventChannelOp;
use hvsim_mem::DomainId;
use intrusion_core::monitor::{SpuriousInterruptDetector, UnexpectedPauseDetector};
use intrusion_core::{
    AbusiveFunctionality, AttackInterface, ErroneousStateSpec, Injector, IntrusionModel, Monitor,
    ScenarioOutcome, TargetComponent, TriggeringSource, UseCase,
};

/// Ports the storm cases raise on the victim.
const STORM_PORTS: [u16; 4] = [41, 99, 200, 377];

fn victim_of(world: &World) -> DomainId {
    world.dom0()
}

/// **Evtchn-storm**: raise virtual interrupts on ports the victim never
/// bound.
#[derive(Clone, Copy, Debug, Default)]
pub struct EvtchnStorm;

impl UseCase for EvtchnStorm {
    fn name(&self) -> &'static str {
        "EVTCHN-storm"
    }

    fn intrusion_model(&self) -> IntrusionModel {
        IntrusionModel {
            name: "IM-uncontrolled-interrupts".into(),
            description: "unprivileged guest uses the event-channel hypercall to raise \
                          arbitrary virtual interrupts on other domains"
                .into(),
            triggering_source: TriggeringSource::UnprivilegedGuest,
            target_component: TargetComponent::InterruptHandling,
            interface: AttackInterface::Hypercall,
            abusive_functionality: AbusiveFunctionality::UncontrolledArbitraryInterrupts,
            related_advisories: vec!["CVE-2020-27672".into()],
        }
    }

    fn run_exploit(&self, world: &mut World, attacker: DomainId) -> ScenarioOutcome {
        let mut outcome = ScenarioOutcome::default();
        // Spray sends on ports the attacker never bound; the vulnerable
        // build trusts the port number.
        let mut accepted = 0;
        for port in 0..64u16 {
            if world
                .hv_mut()
                .hc_event_channel_op(attacker, EventChannelOp::Send { port })
                .is_ok()
            {
                accepted += 1;
            }
        }
        if accepted == 0 {
            return ScenarioOutcome::failed(
                "-EPERM: evtchn_send validates port bindings (fixed)",
            );
        }
        outcome.note(format!("{accepted} unbound sends accepted"));
        // The erroneous state: someone now has spurious pending events.
        let spurious: Vec<(DomainId, Vec<u16>)> = world
            .domains()
            .map(|d| (d, world.hv().spurious_pending_ports(d)))
            .filter(|(_, p)| !p.is_empty())
            .collect();
        outcome.erroneous_state = !spurious.is_empty();
        for (d, ports) in &spurious {
            outcome.note(format!("{d} has spurious pending ports {ports:?}"));
        }
        outcome
    }

    fn run_injection(
        &self,
        world: &mut World,
        attacker: DomainId,
        injector: &dyn Injector,
    ) -> ScenarioOutcome {
        let mut outcome = ScenarioOutcome::default();
        let victim = victim_of(world);
        let spec = ErroneousStateSpec::SpuriousPendingEvents {
            dom: victim,
            ports: STORM_PORTS.to_vec(),
        };
        match injector.inject(world, attacker, &spec) {
            Ok(ev) => {
                outcome.erroneous_state = true;
                outcome.note(format!(
                    "injected pending bits into {victim}'s shared-info frame"
                ));
                outcome.state_audit = Some(ev.audit);
            }
            Err(e) => return ScenarioOutcome::failed(e.to_string()),
        }
        outcome
    }

    fn monitor(&self, _world: &World, _attacker: DomainId) -> Monitor {
        Monitor::standard().with(Box::new(SpuriousInterruptDetector))
    }
}

/// **Mgmt-pause**: a domain is paused without any legitimate management
/// request — the availability erroneous state of a compromised
/// toolstack.
#[derive(Clone, Copy, Debug, Default)]
pub struct MgmtPause;

impl UseCase for MgmtPause {
    fn name(&self) -> &'static str {
        "MGMT-pause"
    }

    fn intrusion_model(&self) -> IntrusionModel {
        IntrusionModel {
            name: "IM-mgmt-availability".into(),
            description: "compromised management interface pauses a victim domain"
                .into(),
            triggering_source: TriggeringSource::ManagementInterface,
            target_component: TargetComponent::Scheduler,
            interface: AttackInterface::Hypercall,
            abusive_functionality: AbusiveFunctionality::InduceHangState,
            related_advisories: Vec::new(),
        }
    }

    fn run_exploit(&self, world: &mut World, attacker: DomainId) -> ScenarioOutcome {
        // There is no vulnerability on any simulated version that lets an
        // unprivileged guest drive domctl: the exploit path fails
        // everywhere. This is the "unknown vulnerability" case the
        // injection path below still assesses.
        let victim = victim_of(world);
        match world
            .hv_mut()
            .hc_domctl(attacker, victim, hvsim::DomctlOp::Pause)
        {
            Ok(_) => {
                let mut outcome = ScenarioOutcome {
                    erroneous_state: true,
                    ..Default::default()
                };
                outcome.note("unprivileged domctl accepted?!");
                outcome
            }
            Err(e) => ScenarioOutcome::failed(format!(
                "domctl privilege check rejected the pause: {e}"
            )),
        }
    }

    fn run_injection(
        &self,
        world: &mut World,
        attacker: DomainId,
        injector: &dyn Injector,
    ) -> ScenarioOutcome {
        let mut outcome = ScenarioOutcome::default();
        let victim = victim_of(world);
        let spec = ErroneousStateSpec::ForcePause { dom: victim };
        match injector.inject(world, attacker, &spec) {
            Ok(ev) => {
                outcome.erroneous_state = true;
                outcome.note(format!("{victim} paused via injected scheduler state"));
                outcome.state_audit = Some(ev.audit);
            }
            Err(e) => return ScenarioOutcome::failed(e.to_string()),
        }
        outcome
    }

    fn monitor(&self, _world: &World, _attacker: DomainId) -> Monitor {
        Monitor::standard().with(Box::new(UnexpectedPauseDetector))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intrusion_core::campaign::standard_world;
    use intrusion_core::{ArbitraryAccessInjector, SecurityViolation};
    use hvsim::XenVersion;

    fn attacker(world: &World) -> DomainId {
        world.domain_by_name("guest03").unwrap()
    }

    #[test]
    fn storm_exploit_only_on_vulnerable_version() {
        let mut w = standard_world(XenVersion::V4_6, false).unwrap();
        let a = attacker(&w);
        let outcome = EvtchnStorm.run_exploit(&mut w, a);
        assert!(outcome.erroneous_state);
        let obs = EvtchnStorm.monitor(&w, a).observe(&w);
        assert!(obs
            .violations
            .iter()
            .any(|v| matches!(v, SecurityViolation::UncontrolledInterrupts { .. })));

        for version in [XenVersion::V4_8, XenVersion::V4_13] {
            let mut w = standard_world(version, false).unwrap();
            let a = attacker(&w);
            let outcome = EvtchnStorm.run_exploit(&mut w, a);
            assert!(!outcome.erroneous_state, "{version}");
            assert!(outcome.error.unwrap().contains("-EPERM"));
        }
    }

    #[test]
    fn storm_injection_on_every_version() {
        for version in XenVersion::ALL {
            let mut w = standard_world(version, true).unwrap();
            let a = attacker(&w);
            let outcome = EvtchnStorm.run_injection(&mut w, a, &ArbitraryAccessInjector);
            assert!(outcome.erroneous_state, "{version}");
            let obs = EvtchnStorm.monitor(&w, a).observe(&w);
            assert!(
                obs.violations
                    .iter()
                    .any(|v| matches!(v, SecurityViolation::UncontrolledInterrupts { .. })),
                "{version}"
            );
        }
    }

    #[test]
    fn mgmt_pause_has_no_exploit_path_anywhere() {
        for version in XenVersion::ALL {
            let mut w = standard_world(version, false).unwrap();
            let a = attacker(&w);
            let outcome = MgmtPause.run_exploit(&mut w, a);
            assert!(!outcome.erroneous_state, "{version}");
        }
    }

    #[test]
    fn mgmt_pause_injection_assesses_the_unknown_vulnerability() {
        let mut w = standard_world(XenVersion::V4_13, true).unwrap();
        let a = attacker(&w);
        let outcome = MgmtPause.run_injection(&mut w, a, &ArbitraryAccessInjector);
        assert!(outcome.erroneous_state);
        let dom0 = w.dom0();
        assert!(w.hv().domain(dom0).unwrap().is_paused());
        let obs = MgmtPause.monitor(&w, a).observe(&w);
        assert!(obs
            .violations
            .iter()
            .any(|v| matches!(v, SecurityViolation::AvailabilityLoss { .. })));
    }

    #[test]
    fn intrusion_models_describe_the_new_sources() {
        let im = EvtchnStorm.intrusion_model();
        assert_eq!(im.target_component, TargetComponent::InterruptHandling);
        let im = MgmtPause.intrusion_model();
        assert_eq!(im.triggering_source, TriggeringSource::ManagementInterface);
        assert_eq!(im.target_component, TargetComponent::Scheduler);
    }
}
