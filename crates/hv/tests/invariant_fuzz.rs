//! Adversarial property tests: **no sequence of guest hypercalls may
//! break the PV memory-safety invariants on a fixed build** — while on
//! the vulnerable build the known attack sequences must break them.
//!
//! This is the simulator-level statement of why intrusion injection is
//! needed at all: on fixed versions the attack surface is closed, so the
//! only way to reach the erroneous states is to inject them.

use hvsim::{
    AuditEvent, BuildConfig, ExchangeArgs, HvError, Hypercall, Hypervisor, InvariantViolation,
    MmuExtOp, MmuUpdate, PageType, PteFlags, XenVersion,
};
use hvsim_mem::{DomainId, Mfn, Pfn, VirtAddr};
use hvsim_paging::PageTableEntry;
use proptest::prelude::*;

const LINK: PteFlags = PteFlags::PRESENT.union(PteFlags::RW).union(PteFlags::USER);

/// A guest with pinned page tables ready for adversarial hypercalls.
struct Rig {
    hv: Hypervisor,
    dom: DomainId,
    l4: Mfn,
    l3: Mfn,
    l2: Mfn,
    l1: Mfn,
    data: Vec<Mfn>,
    /// Hypercalls issued through [`Rig::call`], setup included.
    hypercalls: u64,
}

impl Rig {
    fn call(&mut self, mut call: Hypercall) -> Result<u64, HvError> {
        self.hypercalls += 1;
        self.hv.dispatch(self.dom, &mut call)
    }

    /// `hypercall_count` and the number of audited hypercalls: each
    /// must equal [`Rig::hypercalls`].
    fn accounting(&self) -> (u64, u64) {
        let audited = self
            .hv
            .audit()
            .events()
            .filter(|e| matches!(e, AuditEvent::Hypercall { .. }))
            .count();
        (self.hv.hypercall_count(), audited as u64)
    }
}

fn rig(version: XenVersion) -> Rig {
    let mut hv = Hypervisor::new(BuildConfig::new(version));
    let dom = hv.create_domain("fuzz", false, 24).unwrap();
    let mfn_of = |hv: &Hypervisor, p: u64| hv.domain(dom).unwrap().p2m(Pfn::new(p)).unwrap();
    let (l4, l3, l2, l1) = (mfn_of(&hv, 1), mfn_of(&hv, 2), mfn_of(&hv, 3), mfn_of(&hv, 4));
    let w = |hv: &mut Hypervisor, t: Mfn, i: usize, e: PageTableEntry| {
        hv.guest_write_frame(dom, t, i * 8, &e.raw().to_le_bytes()).unwrap();
    };
    w(&mut hv, l4, 0, PageTableEntry::new(l3, LINK));
    w(&mut hv, l3, 0, PageTableEntry::new(l2, LINK));
    w(&mut hv, l2, 0, PageTableEntry::new(l1, LINK));
    let data: Vec<Mfn> = (5..16).map(|p| mfn_of(&hv, p)).collect();
    for (i, &d) in data.iter().enumerate() {
        w(&mut hv, l1, i, PageTableEntry::new(d, LINK));
    }
    let mut r = Rig {
        hv,
        dom,
        l4,
        l3,
        l2,
        l1,
        data,
        hypercalls: 0,
    };
    r.call(Hypercall::MmuExtOp(vec![MmuExtOp::Pin { level: 4, mfn: l4 }])).unwrap();
    r.call(Hypercall::MmuExtOp(vec![MmuExtOp::NewBaseptr { mfn: l4 }])).unwrap();
    r
}

/// One adversarial action the fuzzer may attempt.
#[derive(Clone, Debug)]
enum Action {
    /// Arbitrary mmu_update against one of the guest's tables.
    MmuUpdate { table: u8, index: usize, target: u8, flags: u64 },
    /// memory_exchange with an arbitrary out handle.
    Exchange { gmfn: u64, out: u64 },
    /// decrease_reservation with/without cache maintenance.
    Decrease { pfn: u64, acm: bool },
    /// Direct write attempt against a table frame.
    DirectWrite { table: u8, offset: usize, value: u64 },
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (0u8..4, 0usize..512, 0u8..16, any::<u64>()).prop_map(|(table, index, target, flags)| {
            Action::MmuUpdate { table, index, target, flags }
        }),
        (any::<u64>(), any::<u64>()).prop_map(|(gmfn, out)| Action::Exchange { gmfn, out }),
        (0u64..32, any::<bool>()).prop_map(|(pfn, acm)| Action::Decrease { pfn, acm }),
        (0u8..4, 0usize..4088, any::<u64>()).prop_map(|(table, offset, value)| {
            Action::DirectWrite { table, offset, value }
        }),
    ]
}

fn table_of(rig: &Rig, sel: u8) -> Mfn {
    match sel % 4 {
        0 => rig.l4,
        1 => rig.l3,
        2 => rig.l2,
        _ => rig.l1,
    }
}

fn target_of(rig: &Rig, sel: u8) -> Mfn {
    // Mix of legal data frames, the guest's own tables, and privileged
    // frames (hypervisor text, shared L3, IDT).
    match sel % 8 {
        0 => rig.l4,
        1 => rig.l1,
        2 => Mfn::new(0),
        3 => rig.hv.shared_l3_mfn(),
        _ => rig.data[(sel as usize) % rig.data.len()],
    }
}

/// Applies `action`: every action but `DirectWrite` is a [`Hypercall`]
/// value routed through `dispatch`.
fn apply(rig: &mut Rig, action: &Action) -> Result<(), HvError> {
    let call = match *action {
        Action::MmuUpdate { table, index, target, flags } => {
            let ptr = table_of(rig, table).base().offset(index as u64 * 8).raw();
            let entry = PageTableEntry::new(
                target_of(rig, target),
                PteFlags::from_bits_truncate(flags) | PteFlags::PRESENT,
            );
            Hypercall::MmuUpdate(vec![MmuUpdate::normal(ptr, entry.raw())])
        }
        Action::Exchange { gmfn, out } => {
            Hypercall::MemoryExchange(ExchangeArgs::new(vec![gmfn], VirtAddr::new(out)))
        }
        Action::Decrease { pfn, acm } => Hypercall::DecreaseReservation {
            pfns: vec![Pfn::new(pfn)],
            after_cache_maintenance: acm,
        },
        Action::DirectWrite { table, offset, value } => {
            let t = table_of(rig, table);
            return rig.hv.guest_write_frame(rig.dom, t, offset, &value.to_le_bytes());
        }
    };
    rig.call(call).map(|_| ())
}

/// Violations the fuzz rig itself can cause legally: exchanging its own
/// data frames away makes previously mapped L1 entries point at frames
/// that return to the allocator (and later to other owners). Real Xen
/// prevents this with per-frame mapping counts the simulator models as
/// `retained_access`; exchange in the simulator clears the p2m but not
/// stale L1 entries. Those dangle as *not-present-owner* targets, which
/// the audit reports as ForeignFrameMapped with `owner == None` targets.
/// We therefore accept ForeignFrameMapped findings whose target has no
/// owner (a dangling-but-unreachable mapping), and reject everything
/// else.
fn is_tolerated(hv: &Hypervisor, v: &InvariantViolation) -> bool {
    match v {
        InvariantViolation::ForeignFrameMapped { target, .. } => hv
            .mem()
            .info(*target)
            .map(|i| i.owner().is_none())
            .unwrap_or(true),
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fixed versions uphold every PV invariant under arbitrary
    /// guest-reachable hypercall sequences.
    #[test]
    fn fixed_versions_uphold_invariants(
        actions in proptest::collection::vec(action_strategy(), 1..24),
        version in prop_oneof![Just(XenVersion::V4_8), Just(XenVersion::V4_13)],
    ) {
        let mut r = rig(version);
        for action in &actions {
            let _ = apply(&mut r, action);
        }
        let violations: Vec<_> = r
            .hv
            .audit_pv_invariants()
            .into_iter()
            .filter(|v| !is_tolerated(&r.hv, v))
            .collect();
        prop_assert!(
            violations.is_empty(),
            "version {version}: {actions:?} broke {violations:?}"
        );
        prop_assert_eq!(r.accounting(), (r.hypercalls, r.hypercalls));
    }

    /// Freshly built rigs are always sound, on every version.
    #[test]
    fn fresh_rig_is_sound(version in prop_oneof![
        Just(XenVersion::V4_6), Just(XenVersion::V4_8), Just(XenVersion::V4_13)
    ]) {
        let r = rig(version);
        let violations = r.hv.audit_pv_invariants();
        prop_assert!(violations.is_empty(), "{violations:?}");
        prop_assert_eq!(r.accounting(), (r.hypercalls, r.hypercalls));
    }
}

/// On the vulnerable version, the *specific* known sequences do break
/// the invariants the fuzzer can't break on fixed builds.
#[test]
fn vulnerable_version_breaks_under_known_sequences() {
    // XSA-148: PSE superpage over privileged frames.
    let mut r = rig(XenVersion::V4_6);
    let ptr = r.l2.base().offset(9 * 8).raw();
    let entry = PageTableEntry::new(Mfn::new(0), LINK | PteFlags::PSE);
    r.hv.hc_mmu_update(r.dom, &[MmuUpdate::normal(ptr, entry.raw())]).unwrap();
    assert!(r
        .hv
        .audit_pv_invariants()
        .iter()
        .any(|v| matches!(v, InvariantViolation::SuperpageOverPrivilegedFrames { .. })));

    // XSA-182: writable self-map via the fast path.
    let mut r = rig(XenVersion::V4_6);
    let ptr = r.l4.base().offset(42 * 8).raw();
    let ro = PageTableEntry::new(r.l4, LINK.difference(PteFlags::RW));
    r.hv.hc_mmu_update(r.dom, &[MmuUpdate::normal(ptr, ro.raw())]).unwrap();
    let rw = PageTableEntry::new(r.l4, LINK);
    r.hv.hc_mmu_update(r.dom, &[MmuUpdate::normal(ptr, rw.raw())]).unwrap();
    assert!(r
        .hv
        .audit_pv_invariants()
        .iter()
        .any(|v| matches!(v, InvariantViolation::WritableSelfMap { .. })));

    // XSA-212: IDT corruption via the exchange write primitive.
    let mut r = rig(XenVersion::V4_6);
    let gate = r.hv.sidt(0).offset(14 * 16);
    let _ = r.hv.hc_memory_exchange(
        r.dom,
        &ExchangeArgs::write_what_where(gate, 0x4141_4141, 0),
    );
    assert!(r
        .hv
        .audit_pv_invariants()
        .iter()
        .any(|v| matches!(v, InvariantViolation::CorruptIdtGate { .. })));
}

/// Mixed workloads on the vulnerable version never crash the *simulator*
/// (panics are bugs; hypervisor crashes are modelled states).
#[test]
fn vulnerable_version_never_panics_the_simulator() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..16 {
        let mut r = rig(XenVersion::V4_6);
        for _ in 0..32 {
            let action = match rng.gen_range(0..4) {
                0 => Action::MmuUpdate {
                    table: rng.gen(),
                    index: rng.gen_range(0..512),
                    target: rng.gen(),
                    flags: rng.gen(),
                },
                1 => Action::Exchange {
                    gmfn: rng.gen_range(0..64),
                    out: rng.gen(),
                },
                2 => Action::Decrease {
                    pfn: rng.gen_range(0..32),
                    acm: rng.gen(),
                },
                _ => Action::DirectWrite {
                    table: rng.gen(),
                    offset: rng.gen_range(0..4088),
                    value: rng.gen(),
                },
            };
            let _ = apply(&mut r, &action);
        }
        // Audit always completes.
        let _ = r.hv.audit_pv_invariants();
    }
}

/// Guards against PageType confusion: allocator reuse after exchange
/// never leaves stale type state behind.
#[test]
fn exchange_recycles_frames_cleanly() {
    let mut r = rig(XenVersion::V4_8);
    let out_va = VirtAddr::new(5 * 4096); // data[5], mapped at l1 index 5
    for round in 0..8u64 {
        let n = r
            .hv
            .hc_memory_exchange(r.dom, &ExchangeArgs::new(vec![16 + (round % 4)], out_va))
            .unwrap();
        assert_eq!(n, 1);
    }
    for raw in 0..r.hv.mem().frame_count() {
        let info = r.hv.mem().info(Mfn::new(raw)).unwrap();
        if info.owner().is_none() && info.page_type() != PageType::Hypervisor {
            assert_eq!(info.page_type(), PageType::None, "frame {raw} leaked type");
        }
    }
}

/// The M2P table stays the exact inverse of every domain's P2M under
/// arbitrary legal and adversarial activity.
#[test]
fn m2p_is_inverse_of_p2m() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(4242);
    for version in [XenVersion::V4_6, XenVersion::V4_8] {
        let mut r = rig(version);
        for _ in 0..48 {
            match rng.gen_range(0..3) {
                0 => {
                    let _ = r.hv.alloc_domain_frame(r.dom, PageType::Writable);
                }
                1 => {
                    let pfn = rng.gen_range(0..40u64);
                    let _ = r.hv.hc_decrease_reservation(r.dom, &[Pfn::new(pfn)], false);
                }
                _ => {
                    let gmfn = rng.gen_range(5..40u64);
                    let out = VirtAddr::new(5 * 4096);
                    let _ = r
                        .hv
                        .hc_memory_exchange(r.dom, &ExchangeArgs::new(vec![gmfn], out));
                }
            }
        }
        // Forward: every P2M entry has the matching M2P entry.
        let pairs: Vec<_> = r.hv.domain(r.dom).unwrap().p2m_iter().collect();
        for (pfn, mfn) in pairs {
            assert_eq!(r.hv.machine_to_phys(mfn), Some(pfn), "{version}: m2p({mfn})");
        }
        // Backward: every valid M2P entry appears in some domain's P2M.
        for raw in 0..r.hv.mem().frame_count() {
            let mfn = Mfn::new(raw);
            if let Some(pfn) = r.hv.machine_to_phys(mfn) {
                let backed = r
                    .hv
                    .domains()
                    .any(|d| d.p2m(pfn) == Some(mfn));
                assert!(backed, "{version}: stale m2p entry {mfn} -> {pfn}");
            }
        }
    }
}

/// Guests can read the M2P window but never write it, and the content
/// matches the hypervisor's own accounting.
#[test]
fn guest_reads_m2p_window_read_only() {
    let mut r = rig(XenVersion::V4_13);
    let data_mfn = r.data[0];
    let va = VirtAddr::new(
        hvsim::Hypervisor::M2P_VIRT_START + data_mfn.raw() * 8,
    );
    let mut buf = [0u8; 8];
    r.hv.guest_read_ro_window(r.dom, va, &mut buf).unwrap();
    let pfn = u64::from_le_bytes(buf);
    assert_eq!(r.hv.domain(r.dom).unwrap().p2m(Pfn::new(pfn)), Some(data_mfn));
    // Writes are vetoed by the layout.
    let err = r.hv.guest_write_va(r.dom, va, &buf).unwrap_err();
    assert!(matches!(err, HvError::GuestFault(_)));
    assert!(!r.hv.is_crashed(), "a vetoed M2P write must not crash the hypervisor");
}

/// User-mode (ring 3) accesses respect the USER bit at every level; the
/// XSA-182 PoC's final flourish — adding the USER flag so *user space*
/// can write the page directory — is meaningful because of this check.
#[test]
fn user_mode_respects_supervisor_only_mappings() {
    let mut r = rig(XenVersion::V4_6);
    // Map a supervisor-only page at l1 slot 20.
    let sup = PteFlags::PRESENT | PteFlags::RW;
    let (_, fresh) = r.hv.alloc_domain_frame(r.dom, PageType::Writable).unwrap();
    let ptr = r.l1.base().offset(20 * 8).raw();
    r.hv.hc_mmu_update(r.dom, &[MmuUpdate::normal(ptr, PageTableEntry::new(fresh, sup).raw())])
        .unwrap();
    let va = VirtAddr::new(20 * 4096);
    // Kernel mode works, user mode faults.
    let mut buf = [0u8; 4];
    r.hv.guest_read_va(r.dom, va, &mut buf).unwrap();
    let err = r.hv.guest_read_va_user(r.dom, va, &mut buf).unwrap_err();
    assert!(matches!(err, HvError::GuestFault(_)));
    assert!(r.hv.guest_write_va_user(r.dom, va, &buf).is_err());
    // Remap with USER: ring 3 can now access it.
    let usr = sup | PteFlags::USER;
    r.hv.hc_mmu_update(r.dom, &[MmuUpdate::normal(ptr, PageTableEntry::new(fresh, usr).raw())])
        .unwrap();
    r.hv.guest_read_va_user(r.dom, va, &mut buf).unwrap();
    r.hv.guest_write_va_user(r.dom, va, &buf).unwrap();
}
