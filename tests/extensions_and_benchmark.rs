//! Integration tests for the extension subsystems: event channels,
//! the management interface, both injector implementations, the
//! PV-invariant detector, and the security benchmark — all exercised
//! through the full World stack.

use intrusion_core::campaign::standard_world;
use intrusion_core::monitor::{PvInvariantDetector, SpuriousInterruptDetector, UnexpectedPauseDetector};
use intrusion_core::{
    default_jobs, ArbitraryAccessInjector, Campaign, DebugStubInjector, Detector,
    ErroneousStateSpec, Injector, Mode, Monitor, SecurityAttribute, SecurityBenchmark,
    SecurityViolation, UseCase,
};
use guestos::World;
use hvsim::{DomctlOp, EventChannelOp, XenVersion};
use hvsim_mem::DomainId;
use xsa_exploits::{extension_use_cases, paper_use_cases, EvtchnStorm, MgmtPause};

fn attacker(world: &World) -> DomainId {
    world.domain_by_name("guest03").unwrap()
}

#[test]
fn event_channels_work_across_the_world() {
    let mut w = standard_world(XenVersion::V4_13, false).unwrap();
    let a = attacker(&w);
    let dom0 = w.dom0();
    // dom0 allocates a port for the guest; the guest binds and signals.
    let rp = w
        .hv_mut()
        .hc_event_channel_op(dom0, EventChannelOp::AllocUnbound { remote: a })
        .unwrap() as u16;
    let lp = w
        .hv_mut()
        .hc_event_channel_op(a, EventChannelOp::BindInterdomain { remote: dom0, remote_port: rp })
        .unwrap() as u16;
    w.hv_mut().hc_event_channel_op(a, EventChannelOp::Send { port: lp }).unwrap();
    assert_eq!(w.hv().pending_ports(dom0), vec![rp]);
    // Legitimate traffic is not flagged by the spurious detector.
    assert!(SpuriousInterruptDetector.observe(&w).is_empty());
}

#[test]
fn injected_interrupt_state_equals_exploited_interrupt_state() {
    // The interrupt-IM analogue of the paper's equivalence argument:
    // the spurious-pending shape induced by the vulnerable hypercall on
    // 4.6 can be injected verbatim on 4.13.
    let mut vulnerable = standard_world(XenVersion::V4_6, false).unwrap();
    let a = attacker(&vulnerable);
    EvtchnStorm.run_exploit(&mut vulnerable, a);
    let victim_states: Vec<(DomainId, Vec<u16>)> = vulnerable
        .domains()
        .map(|d| (d, vulnerable.hv().spurious_pending_ports(d)))
        .filter(|(_, p)| !p.is_empty())
        .collect();
    assert!(!victim_states.is_empty());

    let mut hardened = standard_world(XenVersion::V4_13, true).unwrap();
    let a = attacker(&hardened);
    for (dom, ports) in &victim_states {
        let spec = ErroneousStateSpec::SpuriousPendingEvents {
            dom: *dom,
            ports: ports.clone(),
        };
        ArbitraryAccessInjector.inject(&mut hardened, a, &spec).unwrap();
    }
    for (dom, ports) in &victim_states {
        assert_eq!(&hardened.hv().spurious_pending_ports(*dom), ports);
    }
}

#[test]
fn management_interface_privileges_hold_across_world() {
    let mut w = standard_world(XenVersion::V4_8, false).unwrap();
    let a = attacker(&w);
    let dom0 = w.dom0();
    let xen2 = w.domain_by_name("xen2").unwrap();
    // dom0 may pause guests; guests may not touch each other.
    w.hv_mut().hc_domctl(dom0, xen2, DomctlOp::Pause).unwrap();
    assert!(w.hv().domain(xen2).unwrap().is_paused());
    w.hv_mut().hc_domctl(dom0, xen2, DomctlOp::Unpause).unwrap();
    assert!(w.hv_mut().hc_domctl(a, xen2, DomctlOp::Pause).is_err());
    assert!(UnexpectedPauseDetector.observe(&w).is_empty());
}

#[test]
fn pv_invariant_detector_surfaces_latent_states() {
    // Inject a state that causes no externally visible violation yet —
    // the invariant detector still reports it.
    let mut w = standard_world(XenVersion::V4_8, true).unwrap();
    let a = attacker(&w);
    let l4 = w.hv().domain(a).unwrap().cr3().unwrap();
    // Install an RO self-map legitimately, then inject RW.
    let ptr = l4.base().offset(42 * 8).raw();
    let entry = hvsim::PageTableEntry::new(
        l4,
        hvsim::PteFlags::PRESENT | hvsim::PteFlags::USER,
    );
    w.hv_mut()
        .hc_mmu_update(a, &[hvsim::MmuUpdate::normal(ptr, entry.raw())])
        .unwrap();
    let spec = ErroneousStateSpec::SetL4EntryRw { l4, index: 42 };
    ArbitraryAccessInjector.inject(&mut w, a, &spec).unwrap();
    let violations = PvInvariantDetector.observe(&w);
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, SecurityViolation::IntegrityLoss { what } if what.contains("self-map"))),
        "latent writable self-map detected: {violations:?}"
    );
}

#[test]
fn both_injectors_drive_a_full_use_case_identically() {
    for injector in [&ArbitraryAccessInjector as &dyn Injector, &DebugStubInjector] {
        let mut w = standard_world(XenVersion::V4_13, true).unwrap();
        let a = attacker(&w);
        let outcome = xsa_exploits::Xsa182Test.run_injection(&mut w, a, injector);
        assert!(outcome.erroneous_state, "{}", injector.name());
        // Hardened 4.13 handles the state regardless of how it got there.
        let obs = xsa_exploits::Xsa182Test.monitor(&w, a).observe(&w);
        assert!(obs.is_clean(), "{}: {:?}", injector.name(), obs.violations);
    }
}

#[test]
fn debug_stub_injector_on_stock_hardened_build() {
    // The intrusiveness tradeoff of §IX-D, demonstrated: a stock 4.13
    // build (no injector hypercall) can still be assessed via the debug
    // stub.
    let mut w = standard_world(XenVersion::V4_13, false).unwrap();
    let a = attacker(&w);
    let outcome = xsa_exploits::Xsa212Crash.run_injection(&mut w, a, &DebugStubInjector);
    assert!(outcome.erroneous_state);
    assert!(w.hv().is_crashed());
}

#[test]
fn extended_campaign_and_benchmark() {
    let mut campaign = Campaign::new();
    for uc in paper_use_cases().into_iter().chain(extension_use_cases()) {
        campaign = campaign.with_use_case(uc);
    }
    let report = campaign.run_with_jobs(default_jobs());
    assert_eq!(report.cells().len(), 8 * 3 * 2);

    // The extension cells behave as designed.
    for version in XenVersion::ALL {
        let storm = report.cell("EVTCHN-storm", version, Mode::Injection).unwrap();
        assert!(storm.erroneous_state, "storm injection on {version}");
        assert!(storm.violated(), "storm violation on {version}");
        let pause = report.cell("MGMT-pause", version, Mode::Injection).unwrap();
        assert!(pause.erroneous_state && pause.violated(), "pause on {version}");
        let pause_exploit = report.cell("MGMT-pause", version, Mode::Exploit).unwrap();
        assert!(!pause_exploit.erroneous_state, "no mgmt exploit path on {version}");
    }
    // Storm exploit only on 4.6.
    assert!(report.cell("EVTCHN-storm", XenVersion::V4_6, Mode::Exploit).unwrap().erroneous_state);
    assert!(!report.cell("EVTCHN-storm", XenVersion::V4_8, Mode::Exploit).unwrap().erroneous_state);

    // Benchmark: 4.13 ranks first, with availability hits from the
    // unshielded interrupt/pause states.
    let benchmark = SecurityBenchmark::from_report(&report);
    let ranking = benchmark.ranking();
    assert_eq!(ranking[0].0, XenVersion::V4_13);
    assert!(ranking[0].1 > ranking[1].1);
    let s13 = benchmark.version(XenVersion::V4_13).unwrap();
    assert_eq!(s13.assessed, 8);
    assert_eq!(s13.handled, 2, "the two Table III shields");
    assert!(s13.attribute_hits[&SecurityAttribute::Availability] >= 2);
}

#[test]
fn monitors_for_new_violations_render() {
    let mut w = standard_world(XenVersion::V4_6, true).unwrap();
    let a = attacker(&w);
    let dom0 = w.dom0();
    ArbitraryAccessInjector
        .inject(&mut w, a, &ErroneousStateSpec::ForcePause { dom: dom0 })
        .unwrap();
    let obs = Monitor::new().with(Box::new(UnexpectedPauseDetector)).observe(&w);
    assert_eq!(obs.violations.len(), 1);
    assert!(obs.violations[0].to_string().contains("availability loss"));
}

#[test]
fn mgmt_pause_monitor_is_quiet_without_injection() {
    let w = standard_world(XenVersion::V4_13, true).unwrap();
    let a = attacker(&w);
    let obs = MgmtPause.monitor(&w, a).observe(&w);
    assert!(obs.is_clean());
}
