//! Property-based tests over the guest layer: the transactional store's
//! ACID checker, world determinism, fork equivalence, and shell-session
//! behaviour under arbitrary command sequences.

use guestos::{FileMode, TxnStore, Uid, World, WorldBuilder};
use hvsim::{
    AccessMode, DomctlOp, EventChannelOp, ExchangeArgs, Hypercall, MmuUpdate, PageType, PteFlags,
    XenVersion,
};
use hvsim_mem::{DomainId, Mfn, Pfn, VirtAddr};
use hvsim_paging::PageTableEntry;
use proptest::prelude::*;

fn app_world() -> (World, hvsim_mem::DomainId) {
    let w = WorldBuilder::new(XenVersion::V4_8)
        .injector(true)
        .guest("app", 64)
        .build()
        .unwrap();
    let dom = w.domain_by_name("app").unwrap();
    (w, dom)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any sequence of puts leaves the store consistent, with every
    /// committed value readable.
    #[test]
    fn txn_store_consistent_under_random_puts(
        ops in proptest::collection::vec((1u64..64, any::<u64>()), 1..40),
    ) {
        let (mut w, dom) = app_world();
        let store = TxnStore::create(&mut w, dom, 64).unwrap();
        let mut model = std::collections::BTreeMap::new();
        for (k, v) in &ops {
            store.put(&mut w, *k, *v).unwrap();
            model.insert(*k, *v);
        }
        let report = store.check(&mut w).unwrap();
        prop_assert!(report.is_consistent(), "{report:?}");
        prop_assert_eq!(report.occupied_slots, model.len());
        for (k, v) in model {
            prop_assert_eq!(store.get(&mut w, k).unwrap(), Some(v));
        }
    }

    /// Single-byte corruption anywhere in an occupied data slot is
    /// always detected (no silent checksum collisions for byte flips).
    #[test]
    fn txn_store_detects_any_single_byte_flip(
        key in 1u64..16,
        value in 1u64..u64::MAX,
        offset in 0usize..24,
        flip in 1u8..=255,
    ) {
        let (mut w, dom) = app_world();
        let store = TxnStore::create(&mut w, dom, 16).unwrap();
        store.put(&mut w, key, value).unwrap();
        // Corrupt one byte of slot 0 directly in machine memory.
        let base = store.data_mfn().base().offset(offset as u64);
        let mut byte = [0u8; 1];
        w.hv().mem().read(base, &mut byte).unwrap();
        let corrupted = [byte[0] ^ flip];
        let attacker = dom;
        w.hv_mut()
            .hc_arbitrary_access(attacker, base.raw(), &mut corrupted.clone().to_vec(), hvsim::AccessMode::PhysWrite)
            .unwrap();
        let report = store.check(&mut w).unwrap();
        prop_assert!(
            !report.is_consistent() || report.occupied_slots == 0,
            "flip of byte {offset} by {flip:#x} went undetected: {report:?}"
        );
    }

    /// Shell sessions never panic on arbitrary command strings and never
    /// leak root-only content to unprivileged sessions.
    #[test]
    fn shell_is_total_and_respects_privileges(
        cmds in proptest::collection::vec("[ -~]{0,40}", 1..12),
    ) {
        let (mut w, _) = app_world();
        w.remote_mut().listen();
        let dom0 = w.dom0();
        w.kernel_mut(dom0)
            .unwrap()
            .vfs_mut()
            .write("/root/secret", Uid::ROOT, FileMode::OwnerOnly, b"TOPSECRET")
            .unwrap();
        let sid = w.remote_mut().accept(dom0, Uid::new(1000), "peer").unwrap();
        for cmd in &cmds {
            let out = w.shell_exec(sid, cmd).unwrap();
            prop_assert!(!out.contains("TOPSECRET"), "cmd {cmd:?} leaked: {out}");
        }
        // And root sessions do read it.
        let root_sid = w.remote_mut().accept(dom0, Uid::ROOT, "peer").unwrap();
        let out = w.shell_exec(root_sid, "cat /root/secret").unwrap();
        prop_assert_eq!(out, "TOPSECRET");
    }
}

/// Two worlds built from the same configuration are byte-for-byte
/// deterministic: same frame layout, same p2m maps, same vDSO frames.
#[test]
fn world_construction_is_deterministic() {
    let build = || {
        WorldBuilder::new(XenVersion::V4_13)
            .injector(true)
            .guest("a", 48)
            .guest("b", 32)
            .build()
            .unwrap()
    };
    let w1 = build();
    let w2 = build();
    assert_eq!(w1.domains(), w2.domains());
    for d in w1.domains() {
        let p1: Vec<_> = w1.hv().domain(d).unwrap().p2m_iter().collect();
        let p2: Vec<_> = w2.hv().domain(d).unwrap().p2m_iter().collect();
        assert_eq!(p1, p2, "{d} p2m");
        assert_eq!(
            w1.kernel(d).unwrap().tables(),
            w2.kernel(d).unwrap().tables(),
            "{d} tables"
        );
    }
    // Full machine memory comparison.
    let frames = w1.hv().mem().frame_count();
    let mut b1 = [0u8; 4096];
    let mut b2 = [0u8; 4096];
    for f in 0..frames {
        w1.hv().mem().read_frame(hvsim_mem::Mfn::new(f), &mut b1).unwrap();
        w2.hv().mem().read_frame(hvsim_mem::Mfn::new(f), &mut b2).unwrap();
        assert_eq!(b1, b2, "frame {f} differs");
    }
}

/// Kernel logs carry monotonically non-decreasing timestamps.
#[test]
fn klog_timestamps_monotonic() {
    let (mut w, dom) = app_world();
    let k = w.kernel_mut(dom).unwrap();
    for i in 0..50 {
        k.klog(format!("line {i}"));
    }
    let stamps: Vec<&str> = k
        .log()
        .iter()
        .map(|l| l.split(']').next().unwrap())
        .collect();
    let mut sorted = stamps.clone();
    sorted.sort();
    assert_eq!(stamps, sorted);
}

/// The fork-equivalence world: dom0 and two guests, so cross-domain
/// grant and event-channel calls have a peer.
fn fork_world(version: XenVersion) -> World {
    WorldBuilder::new(version)
        .injector(true)
        .guest("a", 48)
        .guest("b", 32)
        .build()
        .unwrap()
}

/// Resolves one generated step into a concrete `(caller, hypercall)`
/// against `world`'s layout: targets are the caller's own page tables
/// and frames, or a peer domain.
fn fork_step(world: &World, (caller, kind, a, b, c): (u8, u8, u64, u64, u64)) -> (DomainId, Hypercall) {
    let doms = world.domains();
    let dom = doms[caller as usize % doms.len()];
    let peer = doms[(caller as usize + 1 + (a as usize % 2)) % doms.len()];
    let kernel = world.kernel(dom).unwrap();
    let domain = world.hv().domain(dom).unwrap();
    let pfn = Pfn::new(a % domain.p2m_len() as u64);
    let mfn = domain.p2m(pfn).unwrap_or(Mfn::new(a % 4096));
    let call = match kind % 11 {
        0 | 1 => {
            let t = kernel.tables();
            let table = [t.l4, t.l3, t.l2, t.l1][b as usize % 4];
            let flags = [
                PteFlags::PRESENT | PteFlags::RW | PteFlags::USER,
                PteFlags::PRESENT | PteFlags::USER,
                PteFlags::PRESENT | PteFlags::RW,
                PteFlags::empty(),
            ][c as usize % 4];
            let ptr = table.base().raw() + (b >> 2) % 512 * 8;
            Hypercall::MmuUpdate(vec![MmuUpdate::normal(ptr, PageTableEntry::new(mfn, flags).raw())])
        }
        2 => Hypercall::MemoryExchange(ExchangeArgs::new(
            vec![pfn.raw()],
            kernel.va_of_pfn(Pfn::new(b % domain.p2m_len() as u64)),
        )),
        3 => Hypercall::DecreaseReservation { pfns: vec![pfn], after_cache_maintenance: b % 2 == 0 },
        4 => Hypercall::EventChannelOp(EventChannelOp::AllocUnbound { remote: peer }),
        5 => Hypercall::EventChannelOp(EventChannelOp::BindInterdomain {
            remote: peer,
            remote_port: (b % 8) as u16,
        }),
        6 => Hypercall::EventChannelOp(EventChannelOp::Send { port: (b % 8) as u16 }),
        7 => Hypercall::GrantAccess { grantee: peer, mfn, writable: b % 2 == 0 },
        8 => {
            let grants = world.hv().domain(peer).unwrap().grant_table().entries().len();
            Hypercall::GrantMap { granter: peer, gref: b as usize % grants.max(1) }
        }
        9 => Hypercall::SetTrapTable(vec![((b % 256) as u8, VirtAddr::new(c & 0x7fff_ffff_f000))]),
        _ => match b % 3 {
            0 => Hypercall::ConsoleIo(format!("line {c:x}")),
            1 => Hypercall::ArbitraryAccess {
                addr: mfn.base().raw() + c % 4088,
                data: c.to_le_bytes().to_vec(),
                mode: AccessMode::PhysWrite,
            },
            _ => Hypercall::Domctl {
                target: peer,
                op: if c % 2 == 0 { DomctlOp::Pause } else { DomctlOp::Unpause },
            },
        },
    };
    (dom, call)
}

/// Asserts that two worlds agree on everything a hypercall can change:
/// every frame's contents and accounting, each domain's state (p2m,
/// traps, ports, grants, retained set) and allocated page count, the
/// allocator's free count and its next 16 allocations, the audit log,
/// the console and the hypercall count.
fn assert_same_hypervisor_state(a: &World, b: &World) -> Result<(), TestCaseError> {
    let (ha, hb) = (a.hv(), b.hv());
    let mut fa = [0u8; 4096];
    let mut fb = [0u8; 4096];
    for raw in 0..ha.mem().frame_count() {
        let mfn = Mfn::new(raw);
        ha.mem().read_frame(mfn, &mut fa).unwrap();
        hb.mem().read_frame(mfn, &mut fb).unwrap();
        prop_assert!(fa == fb, "frame {raw} contents differ");
        prop_assert_eq!(ha.mem().info(mfn).unwrap(), hb.mem().info(mfn).unwrap());
    }
    prop_assert_eq!(ha.domain_ids(), hb.domain_ids());
    for dom in ha.domain_ids() {
        prop_assert_eq!(
            serde_json::to_string(ha.domain(dom).unwrap()).unwrap(),
            serde_json::to_string(hb.domain(dom).unwrap()).unwrap()
        );
        prop_assert_eq!(ha.pages_of(dom), hb.pages_of(dom), "{} page count differs", dom);
    }
    prop_assert_eq!(ha.free_frames(), hb.free_frames());
    let (mut na, mut nb) = (a.clone(), b.clone());
    let doms = ha.domain_ids();
    for i in 0..16 {
        let dom = doms[i % doms.len()];
        prop_assert_eq!(
            na.hv_mut().alloc_domain_frame(dom, PageType::Writable),
            nb.hv_mut().alloc_domain_frame(dom, PageType::Writable)
        );
    }
    prop_assert_eq!(ha.audit().events(), hb.audit().events());
    prop_assert_eq!(ha.console(), hb.console());
    prop_assert_eq!(ha.hypercall_count(), hb.hypercall_count());
    Ok(())
}

/// Asserts that two worlds' guest kernels agree: filesystems, logs,
/// processes and page-table layout.
fn assert_same_kernels(a: &World, b: &World) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.domains(), b.domains());
    for dom in a.domains() {
        prop_assert_eq!(
            serde_json::to_string(a.kernel(dom).unwrap()).unwrap(),
            serde_json::to_string(b.kernel(dom).unwrap()).unwrap()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A fork is a fresh boot: the same random hypercall sequence,
    /// across three domains, drives a clone of a booted world and a
    /// freshly booted one to the same state. The parent of the clone
    /// still equals a third fresh boot afterwards, so no write leaked
    /// through state the fork shared with it — nor did the guest-level
    /// writes (files, kernel log lines) made in the clone alone. With
    /// `via_worker`, the clone forks from an unshared copy of the parent,
    /// as a campaign worker's cells do, and that copy must stay
    /// untouched too. Extends `prop_snapshot_and_parent_never_alias`
    /// (machine memory) to whole worlds.
    #[test]
    fn prop_forked_world_matches_fresh_boot(
        version in prop_oneof![Just(XenVersion::V4_6), Just(XenVersion::V4_8), Just(XenVersion::V4_13)],
        via_worker in any::<bool>(),
        steps in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u64>(), any::<u64>(), any::<u64>()),
            1..32,
        ),
        guest_writes in proptest::collection::vec((any::<u8>(), 0u8..4, any::<u64>()), 1..6),
    ) {
        let parent = fork_world(version);
        let worker = via_worker.then(|| {
            let mut copy = parent.clone();
            copy.unshare();
            copy
        });
        let mut child = worker.as_ref().unwrap_or(&parent).clone();
        let mut fresh = fork_world(version);
        for &step in &steps {
            let (dom, call) = fork_step(&fresh, step);
            let mut on_child = call.clone();
            let mut on_fresh = call;
            prop_assert_eq!(
                child.hv_mut().dispatch(dom, &mut on_child),
                fresh.hv_mut().dispatch(dom, &mut on_fresh)
            );
        }
        assert_same_hypervisor_state(&child, &fresh)?;

        for &(caller, file, value) in &guest_writes {
            let doms = child.domains();
            let kernel = child.kernel_mut(doms[caller as usize % doms.len()]).unwrap();
            kernel
                .vfs_mut()
                .write(&format!("/tmp/fork-{file}"), Uid::ROOT, FileMode::PublicRead, &value.to_le_bytes())
                .unwrap();
            kernel.klog(format!("fork write {value:x}"));
        }
        let untouched = fork_world(version);
        for source in std::iter::once(&parent).chain(worker.as_ref()) {
            assert_same_hypervisor_state(source, &untouched)?;
            assert_same_kernels(source, &untouched)?;
            for dom in source.domains() {
                let kernel = source.kernel(dom).unwrap();
                prop_assert!(kernel.vfs().paths().all(|p| !p.starts_with("/tmp/fork-")));
                prop_assert!(!kernel.log_contains("fork write"));
            }
        }
    }
}
