//! Cross-crate integration tests: the full stack (machine memory →
//! paging → hypervisor → guests → intrusion tooling) wired together in
//! ways the per-crate unit tests do not cover.

use intrusion_core::campaign::standard_world;
use intrusion_core::{
    default_jobs, ArbitraryAccessInjector, ErroneousStateSpec, Injector, Monitor,
    RandomizedCampaign, SecurityViolation, TargetRegion, ThreatChain, ThreatStage,
};
use guestos::{TxnStore, Uid, WorldBuilder};
use hvsim::{AccessMode, AuditEvent, XenVersion};
use hvsim_mem::{Pfn, VirtAddr};

#[test]
fn worlds_boot_identically_across_versions() {
    // The paper keeps every environmental aspect identical except the
    // version; so must the simulator.
    let mut layouts = Vec::new();
    for version in XenVersion::ALL {
        let w = standard_world(version, true).unwrap();
        assert_eq!(w.domains().len(), 3);
        let per_domain: Vec<(String, usize)> = w
            .domains()
            .map(|d| {
                let dom = w.hv().domain(d).unwrap();
                (dom.name().to_owned(), dom.p2m_len())
            })
            .collect();
        layouts.push(per_domain);
    }
    assert!(layouts.windows(2).all(|w| w[0] == w[1]), "identical memory layouts");
}

#[test]
fn injector_activity_is_fully_audited() {
    let mut w = standard_world(XenVersion::V4_8, true).unwrap();
    let attacker = w.domain_by_name("guest03").unwrap();
    let spec = ErroneousStateSpec::OverwriteIdtGate {
        cpu: 0,
        vector: 99,
        value: 0x1234,
    };
    ArbitraryAccessInjector.inject(&mut w, attacker, &spec).unwrap();
    let injector_events = w
        .hv()
        .audit()
        .events()
        .filter(|e| matches!(e, AuditEvent::InjectorAccess { .. }))
        .count();
    assert!(injector_events >= 1, "injection leaves an audit trail");
    let hv_writes = w
        .hv()
        .audit()
        .events()
        .any(|e| matches!(e, AuditEvent::HypervisorWrite { .. }));
    assert!(hv_writes);
}

#[test]
fn threat_chain_can_be_reconstructed_from_a_run() {
    let mut w = standard_world(XenVersion::V4_6, true).unwrap();
    let attacker = w.domain_by_name("guest03").unwrap();
    let spec = ErroneousStateSpec::OverwriteIdtGate {
        cpu: 0,
        vector: 14,
        value: 0x41,
    };
    ArbitraryAccessInjector.inject(&mut w, attacker, &spec).unwrap();
    let mut buf = [0u8; 1];
    let _ = w
        .hv_mut()
        .guest_read_va(attacker, VirtAddr::new(0x7f00_0000_0000), &mut buf);

    let mut chain = ThreatChain::new();
    chain.push(
        ThreatStage::INJECTION_ENTRY,
        "injector overwrote the #PF gate",
    );
    if w.hv().is_crashed() {
        chain.push(ThreatStage::SecurityViolation, "double fault panic");
    } else {
        chain.push(ThreatStage::Handled, "fault delivered normally");
    }
    assert!(chain.violated());
    assert_eq!(chain.entry_stage(), Some(ThreatStage::ErroneousState));
}

#[test]
fn monitors_compose_over_multiple_simultaneous_violations() {
    let mut w = standard_world(XenVersion::V4_6, true).unwrap();
    let attacker = w.domain_by_name("guest03").unwrap();
    // Violation 1: cross-domain retained access.
    let dom0 = w.dom0();
    let foreign = w.hv().domain(dom0).unwrap().p2m(Pfn::new(9)).unwrap();
    w.hv_mut().inject_retain_access(attacker, foreign).unwrap();
    // Violation 2: crash.
    w.hv_mut().crash("test panic");
    let obs = Monitor::standard().observe(&w);
    assert!(obs
        .violations
        .iter()
        .any(|v| matches!(v, SecurityViolation::CrossDomainAccess { .. })));
    assert!(obs
        .violations
        .iter()
        .any(|v| matches!(v, SecurityViolation::HypervisorCrash { .. })));
}

#[test]
fn txn_store_survives_unrelated_injections() {
    // Corrupting *another* guest's memory must not affect the store:
    // isolation of the workload itself.
    let mut w = WorldBuilder::new(XenVersion::V4_13)
        .injector(true)
        .guest("app", 64)
        .guest("evil", 64)
        .build()
        .unwrap();
    let app = w.domain_by_name("app").unwrap();
    let evil = w.domain_by_name("evil").unwrap();
    let store = TxnStore::create(&mut w, app, 16).unwrap();
    for k in 1..=10 {
        store.put(&mut w, k, k * 7).unwrap();
    }
    // Inject into the attacker's own frames.
    let own = w.hv().domain(evil).unwrap().p2m(Pfn::new(10)).unwrap();
    let spec = ErroneousStateSpec::WriteFrame {
        mfn: own,
        offset: 0,
        bytes: vec![0xff; 64],
    };
    ArbitraryAccessInjector.inject(&mut w, evil, &spec).unwrap();
    let report = store.check(&mut w).unwrap();
    assert!(report.is_consistent());
    assert_eq!(store.get(&mut w, 5).unwrap(), Some(35));
}

#[test]
fn randomized_campaigns_run_on_all_regions_and_versions() {
    for version in XenVersion::ALL {
        for region in [
            TargetRegion::IdtGates { cpu: 0 },
            TargetRegion::SharedL3,
            TargetRegion::DomainPageTables,
            TargetRegion::DomainFrames,
        ] {
            let (summary, outcomes) = RandomizedCampaign::new(region, 4, 11)
                .run_with_jobs(
                    || {
                        let w = standard_world(version, true)?;
                        let a = w.domain_by_name("guest03").unwrap();
                        Ok((w, a))
                    },
                    default_jobs(),
                )
                .unwrap();
            assert_eq!(summary.total, 4);
            assert_eq!(outcomes.len(), 4);
        }
    }
}

#[test]
fn crashed_world_rejects_everything_gracefully() {
    let mut w = standard_world(XenVersion::V4_6, true).unwrap();
    let attacker = w.domain_by_name("guest03").unwrap();
    w.hv_mut().crash("test");
    // Hypercalls fail with Crashed, not panics.
    let mut data = vec![0u8; 8];
    assert!(w
        .hv_mut()
        .hc_arbitrary_access(attacker, 0, &mut data, AccessMode::PhysRead)
        .is_err());
    assert!(w.hv_mut().hc_console_io(attacker, "hello").is_err());
    assert_eq!(w.tick_vdso().len(), 0);
    // Monitoring still works.
    let obs = Monitor::standard().observe(&w);
    assert!(!obs.is_clean());
}

#[test]
fn full_stack_shell_pipeline() {
    // Backdoor -> reverse shell -> command execution -> permission model,
    // end to end on the hardened version (the XSA-148 injection path).
    let mut w = standard_world(XenVersion::V4_13, true).unwrap();
    let attacker = w.domain_by_name("guest03").unwrap();
    let outcome = intrusion_core::UseCase::run_injection(
        &xsa_exploits::Xsa148Priv,
        &mut w,
        attacker,
        &ArbitraryAccessInjector,
    );
    assert!(outcome.erroneous_state);
    let sid = {
        let sessions = w.remote().sessions();
        assert!(!sessions.is_empty());
        guestos::SessionId(0)
    };
    // Root can read the secret; the user running bash in a guest cannot.
    let out = w.shell_exec(sid, "cat /root/root_msg").unwrap();
    assert_eq!(out.to_string(), "Confidential content in root folder!");
    let listing = w.shell_exec(sid, "ls /root").unwrap();
    assert!(listing.to_string().contains("/root/root_msg"));
}

#[test]
fn dispatch_interface_equivalent_to_direct_calls() {
    // The uniform Hypercall dispatcher and the typed methods must agree.
    let mut w1 = standard_world(XenVersion::V4_8, true).unwrap();
    let mut w2 = standard_world(XenVersion::V4_8, true).unwrap();
    let a1 = w1.domain_by_name("guest03").unwrap();
    let a2 = w2.domain_by_name("guest03").unwrap();
    let gate = w1.hv().sidt(0).offset(14 * 16);

    let mut call = hvsim::Hypercall::ArbitraryAccess {
        addr: gate.raw(),
        data: 0xdeadu64.to_le_bytes().to_vec(),
        mode: AccessMode::LinearWrite,
    };
    w1.hv_mut().dispatch(a1, &mut call).unwrap();
    let mut data = 0xdeadu64.to_le_bytes().to_vec();
    w2.hv_mut()
        .hc_arbitrary_access(a2, gate.raw(), &mut data, AccessMode::LinearWrite)
        .unwrap();

    let g1 = w1.hv().idt_entry(0, 14).unwrap();
    let g2 = w2.hv().idt_entry(0, 14).unwrap();
    assert_eq!(g1, g2);
}

#[test]
fn non_root_backdoor_sessions_are_not_privilege_escalations() {
    // A guest user process tripping a backdoor yields a non-root shell;
    // the monitor must not report a root-shell violation.
    let mut w = standard_world(XenVersion::V4_8, true).unwrap();
    w.remote_mut().listen();
    let guest = w.domain_by_name("xen2").unwrap();
    let vdso = w.kernel(guest).unwrap().vdso_mfn(w.hv()).unwrap();
    let backdoor = guestos::Backdoor {
        host: w.remote().host().into(),
        port: w.remote().port(),
    };
    let attacker = w.domain_by_name("guest03").unwrap();
    let mut blob = backdoor.to_bytes();
    w.hv_mut()
        .hc_arbitrary_access(
            attacker,
            vdso.base().offset(guestos::VDSO_ENTRY_OFFSET as u64).raw(),
            &mut blob,
            AccessMode::PhysWrite,
        )
        .unwrap();
    let sessions: Vec<_> = w.tick_vdso().collect();
    // xen2's vdso-calling process is the unprivileged bash user.
    assert!(!sessions.is_empty());
    assert!(w.remote().sessions().iter().all(|s| s.domain != w.dom0()));
    let violations = Monitor::standard().observe(&w);
    assert!(
        !violations
            .violations
            .iter()
            .any(|v| matches!(v, SecurityViolation::RemoteRootShell { .. })),
        "user shell is not a root-shell violation"
    );
    // But it is still a shell: whoami says user1000.
    let out = w.shell_exec(sessions[0], "whoami").unwrap();
    assert_eq!(out.to_string(), Uid::new(1000).name());
}
