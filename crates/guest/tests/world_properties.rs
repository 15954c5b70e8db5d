//! Property-based tests over the guest layer: the transactional store's
//! ACID checker, world determinism, fork equivalence, and shell-session
//! behaviour under arbitrary command sequences.

use guestos::{
    FileMode, GuestKernel, HandlerOutcome, Payload, PayloadCommand, TxnStore, Uid, World,
    WorldBuilder,
};
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
            let out = w.shell_exec(sid, cmd.clone()).unwrap().to_string();
            prop_assert!(!out.contains("TOPSECRET"), "cmd {cmd:?} leaked: {out}");
        }
        // And root sessions do read it.
        let root_sid = w.remote_mut().accept(dom0, Uid::ROOT, "peer").unwrap();
        let out = w.shell_exec(root_sid, "cat /root/secret").unwrap();
        prop_assert_eq!(out.to_string(), "TOPSECRET");
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
    assert!(w1.domains().eq(w2.domains()));
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
    let stamps: Vec<String> = k
        .log()
        .map(|l| l.split(']').next().unwrap().to_owned())
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
    let doms: Vec<_> = world.domains().collect();
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
        prop_assert_eq!(ha.domain(dom).unwrap(), hb.domain(dom).unwrap());
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
    prop_assert!(ha.audit().events().eq(hb.audit().events()));
    prop_assert!(ha.console().eq(hb.console()));
    prop_assert_eq!(ha.hypercall_count(), hb.hypercall_count());
    Ok(())
}

/// Asserts that two worlds' guest kernels agree: filesystems, logs,
/// processes and page-table layout.
fn assert_same_kernels(a: &World, b: &World) -> Result<(), TestCaseError> {
    prop_assert!(a.domains().eq(b.domains()));
    for dom in a.domains() {
        prop_assert_eq!(a.kernel(dom).unwrap(), b.kernel(dom).unwrap());
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
            let doms: Vec<_> = child.domains().collect();
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

/// Kernel log lines are stored as (tick, message) and rendered when
/// read, and listener lines as what happened; both render exactly as
/// the eagerly formatted lines did (the literals are that output).
#[test]
fn rendered_klog_and_listener_lines_match_their_literals() {
    let mut w = WorldBuilder::new(XenVersion::V4_6).injector(true).guest("guest03", 64).build().unwrap();
    let (dom0, guest) = (w.dom0(), w.domain_by_name("guest03").unwrap());
    let k = w.kernel_mut(dom0).unwrap();
    for i in 0..11 {
        k.klog(format!("line {i}"));
    }
    let mut want = vec!["[  100.1268] kernel booted (direct paging, tables pinned)".to_owned()];
    want.extend((0..8).map(|i| format!("[  100.{}268] line {i}", i + 2)));
    want.extend(["[  101.0268] line 8", "[  101.1268] line 9", "[  101.2268] line 10"].map(String::from));
    assert_eq!(k.log().collect::<Vec<_>>(), want);
    assert!(w.kernel(guest).unwrap().log().eq(["[  100.1268] kernel booted (direct paging, tables pinned)".to_owned()]));

    w.remote_mut().listen();
    w.remote_mut().accept(dom0, Uid::ROOT, "10.3.1.181");
    w.remote_mut().accept(guest, Uid::new(1000), "peer");
    assert_eq!(
        w.remote().log().collect::<Vec<_>>(),
        [
            "Listening on [0.0.0.0] (family 0, port 1234)",
            "Connection from [10.3.1.181] port 1234 [tcp/*] (dom0, uid 0)",
            "Connection from [peer] port 1234 [tcp/*] (dom1, uid 1000)",
        ]
    );
}

/// The vector the isolation test's payload handler is registered on.
const PAYLOAD_VECTOR: u8 = 0x80;

/// Links a payload page into every domain's address space through the
/// injector (as XSA-212-priv's injection does) and registers it on
/// [`PAYLOAD_VECTOR`]; returns the attacker-side address to write
/// payload blobs at.
fn install_payload_handler(w: &mut World, attacker: DomainId) -> VirtAddr {
    let payload_va = VirtAddr::new(hvsim_paging::LINEAR_PT_START);
    let idx = hvsim_paging::VaIndices::of(payload_va);
    let link = PteFlags::PRESENT | PteFlags::RW | PteFlags::USER;
    let (hv, kernel) = w.hv_and_kernel_mut(attacker).unwrap();
    let (_, pmd, _) = kernel.alloc_heap_page(hv).unwrap();
    let (_, pt, _) = kernel.alloc_heap_page(hv).unwrap();
    let (_, payload_frame, payload_heap_va) = kernel.alloc_heap_page(hv).unwrap();
    hv.guest_write_frame(attacker, pt, idx.l1 * 8, &PageTableEntry::new(payload_frame, link).raw().to_le_bytes())
        .unwrap();
    hv.guest_write_frame(attacker, pmd, idx.l2 * 8, &PageTableEntry::new(pt, link).raw().to_le_bytes())
        .unwrap();
    let l3_slot = hv.shared_l3_mfn().base().offset(idx.l3 as u64 * 8).raw();
    let mut entry = PageTableEntry::new(pmd, link).raw().to_le_bytes().to_vec();
    hv.hc_arbitrary_access(attacker, l3_slot, &mut entry, AccessMode::PhysWrite).unwrap();
    let gate = hvsim::IdtEntry { offset: payload_va, selector: hvsim::IdtEntry::XEN_CS, dpl: 3, present: true };
    let gate_va = hv.sidt(0).offset(hvsim::IdtEntry::slot_offset(PAYLOAD_VECTOR) as u64);
    let mut packed = gate.pack().to_vec();
    hv.hc_arbitrary_access(attacker, gate_va.raw(), &mut packed, AccessMode::LinearWrite).unwrap();
    payload_heap_va
}

/// A guest kernel as the eager kernel kept it: every log line formatted
/// as it was logged, the process table and the files as plain owned
/// values. The isolation test's reference.
#[derive(Debug, PartialEq)]
struct EagerKernel {
    log: Vec<String>,
    processes: Vec<(u32, Uid, String, bool)>,
    files: std::collections::BTreeMap<String, (Option<Uid>, Vec<u8>)>,
}

impl EagerKernel {
    /// Deep-copies what `kernel` shows through its API.
    fn of(kernel: &guestos::GuestKernel) -> Self {
        Self {
            log: kernel.log().collect(),
            processes: kernel.processes().iter().map(|p| (p.pid, p.uid, p.name.to_string(), p.calls_vdso)).collect(),
            files: kernel
                .vfs()
                .paths()
                .map(|p| (p.to_owned(), (kernel.vfs().owner(p), kernel.vfs().read(p, Uid::ROOT).unwrap().to_vec())))
                .collect(),
        }
    }

    fn klog(&mut self, msg: &str) {
        let tick = self.log.len() as u64 + 1;
        self.log.push(format!("[{:5}.{:04}] {msg}", 100 + tick / 10, (tick % 10) * 1000 + 268));
    }
}

/// Paths the isolation test writes: one the parent has, two it has not.
const PATHS: [&str; 3] = ["/root/root_msg", "/tmp/a", "/tmp/injector_log"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A fork's first write copies only the kernel part it writes, and
    /// what it shares stays shared correctly: random log lines (fixed
    /// and formatted), spawns, file writes, heap pages and payload runs
    /// on a fork of an unshared parent leave every domain's rendered
    /// log, process table and files equal to an eager deep copy driven
    /// the same way, and the parent, its base and a second fork of the
    /// parent unchanged.
    #[test]
    fn prop_split_kernel_fork_matches_an_eager_copy(
        version in prop_oneof![Just(XenVersion::V4_6), Just(XenVersion::V4_8), Just(XenVersion::V4_13)],
        ops in proptest::collection::vec((0u8..6, any::<u8>(), any::<u16>()), 1..24),
    ) {
        let mut base = fork_world(version);
        let attacker = base.domain_by_name("b").unwrap();
        let payload_va = install_payload_handler(&mut base, attacker);
        let mut parent = base.clone();
        parent.unshare();
        let snapshot = |w: &World| -> Vec<GuestKernel> {
            w.domains().map(|d| w.kernel(d).unwrap().clone()).collect()
        };
        let (base_before, parent_before) = (snapshot(&base), snapshot(&parent));
        let sibling = parent.clone();
        let mut fork = parent.clone();
        let doms: Vec<DomainId> = fork.domains().collect();
        let mut eager: Vec<EagerKernel> = doms.iter().map(|&d| EagerKernel::of(fork.kernel(d).unwrap())).collect();
        for (kind, at, value) in ops {
            let i = usize::from(at) % doms.len();
            let dom = doms[i];
            match kind {
                0 => {
                    fork.kernel_mut(dom).unwrap().klog("fixed line");
                    eager[i].klog("fixed line");
                }
                1 => {
                    fork.kernel_mut(dom).unwrap().klog(format!("line {value:x}"));
                    eager[i].klog(&format!("line {value:x}"));
                }
                2 => {
                    let (uid, calls) = (Uid::new(u32::from(value % 3) * 500), value % 2 == 0);
                    let pid = fork.kernel_mut(dom).unwrap().spawn(&format!("p{value}"), uid, calls);
                    prop_assert_eq!(pid, eager[i].processes.last().unwrap().0 + 1);
                    eager[i].processes.push((pid, uid, format!("p{value}"), calls));
                }
                3 => {
                    let path = PATHS[usize::from(value) % PATHS.len()];
                    let data = value.to_le_bytes();
                    fork.kernel_mut(dom).unwrap().vfs_mut().write(path, Uid::ROOT, FileMode::PublicRead, &data).unwrap();
                    eager[i].files.insert(path.to_owned(), (Some(Uid::ROOT), data.to_vec()));
                }
                4 => {
                    let (hv, kernel) = fork.hv_and_kernel_mut(dom).unwrap();
                    let _ = kernel.alloc_heap_page(hv);
                }
                _ => {
                    let payload = if value % 2 == 0 {
                        Payload::drop_root_file(PATHS[usize::from(value / 2) % PATHS.len()], "|$(id)|@$(hostname)$(")
                    } else {
                        Payload { command: PayloadCommand::KlogMarker { marker: "m$(id)" } }
                    };
                    fork.hv_mut().guest_write_va(attacker, payload_va, &payload.to_bytes()).unwrap();
                    for (d, outcome) in fork.invoke_interrupt(attacker, PAYLOAD_VECTOR).unwrap() {
                        if outcome != HandlerOutcome::Executed {
                            continue;
                        }
                        let j = doms.iter().position(|&x| x == d).unwrap();
                        match payload.command {
                            PayloadCommand::DropRootFile { path, template } => {
                                let hostname = fork.kernel(d).unwrap().hostname();
                                let text = template.replace("$(id)", &Uid::ROOT.id_string()).replace("$(hostname)", hostname);
                                eager[j].files.insert(path.to_owned(), (Some(Uid::ROOT), text.into_bytes()));
                            }
                            PayloadCommand::KlogMarker { marker } => eager[j].klog(&format!("payload: {marker}")),
                            _ => unreachable!("the test builds only these two"),
                        }
                    }
                }
            }
        }
        for (&d, want) in doms.iter().zip(&eager) {
            prop_assert_eq!(&EagerKernel::of(fork.kernel(d).unwrap()), want, "{}", d);
        }
        prop_assert_eq!(snapshot(&base), base_before);
        prop_assert_eq!(snapshot(&parent), parent_before.clone());
        prop_assert_eq!(snapshot(&sibling), parent_before);
    }
}

/// One campaign cell: a use case's trial in one mode on a world whose
/// base is `(version, injector)`.
struct Cell {
    use_case: Box<dyn intrusion_core::UseCase>,
    version: XenVersion,
    mode: intrusion_core::Mode,
    trial: u64,
}

/// Runs `cell` on `world` and builds its result the way the campaign
/// engine does, minus the wall-clock timings.
fn run_cell(cell: &Cell, world: &mut World) -> intrusion_core::CellResult {
    use intrusion_core::{ArbitraryAccessInjector, CampaignError, CellOutcome, Mode};
    let uc = &*cell.use_case;
    let attacker = world.domain_by_name(intrusion_core::campaign::ATTACKER_GUEST).unwrap();
    let hypercalls = world.hv().hypercall_count();
    let outcome = match cell.mode {
        Mode::Exploit => uc.run_exploit_trial(world, attacker, cell.trial),
        Mode::Injection => uc.run_injection_trial(world, attacker, &ArbitraryAccessInjector, cell.trial),
    };
    let (observation, failures) = uc.monitor(world, attacker).observe_contained(world);
    assert!(failures.is_empty(), "{failures:?}");
    intrusion_core::CellResult {
        use_case: uc.name().into(),
        version: cell.version,
        mode: cell.mode,
        erroneous_state: outcome.erroneous_state,
        handled: outcome.erroneous_state && observation.is_clean(),
        violations: observation.violations,
        notes: outcome.notes,
        error: outcome.error.map(|message| CampaignError::Injection { message }),
        outcome: CellOutcome::Completed,
        wall_time_us: 0,
        hypercalls: world.hv().hypercall_count() - hypercalls,
        phase_us: Default::default(),
        snapshot: world.snapshot_stats(),
    }
}

/// A campaign worker runs every cell on one scratch world, reset to the
/// cell's base world with `clone_from`, instead of on a fresh clone of
/// the base. Every paper and extension use case in every version and
/// mode, and one randomized trial per target region, run in a seeded
/// random order on one scratch world. After each reset the scratch
/// world must show exactly what a fresh clone shows (its `Debug` text
/// and copy-on-write stats), the base's reference counts must read as
/// with one clone of it alive, and the cell must give the result it
/// gives on a fresh clone: a reset that misses state the previous cell
/// left (a shell session, an audit event, a written frame) fails here.
#[test]
fn a_reset_world_runs_every_cell_as_a_fresh_clone_does() {
    use intrusion_core::{campaign::standard_world, Mode, RandomizedCampaign, TargetRegion};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let versions = [XenVersion::V4_6, XenVersion::V4_8, XenVersion::V4_13];
    let mut cells = Vec::new();
    for make in [xsa_exploits::paper_use_cases, xsa_exploits::extension_use_cases] {
        for index in 0..make().len() {
            for version in versions {
                for mode in [Mode::Exploit, Mode::Injection] {
                    let use_case = make().swap_remove(index);
                    cells.push(Cell { use_case, version, mode, trial: 0 });
                }
            }
        }
    }
    let regions = [
        TargetRegion::IdtGates { cpu: 0 },
        TargetRegion::SharedL3,
        TargetRegion::DomainPageTables,
        TargetRegion::DomainFrames,
    ];
    // The base worlds, each unshared as a worker's copy is, with the
    // reference counts each shows while one clone of it is alive.
    let bases: std::collections::BTreeMap<(XenVersion, bool), (World, Vec<usize>)> = versions
        .iter()
        .flat_map(|&v| [(v, false), (v, true)])
        .map(|(version, injector)| {
            let mut base = standard_world(version, injector).unwrap();
            base.unshare();
            let counts = {
                let _clone = base.clone();
                base.share_counts()
            };
            ((version, injector), (base, counts))
        })
        .collect();
    let attacker = bases[&(XenVersion::V4_8, true)].0.domain_by_name("guest03").unwrap();
    for (trial, region) in (3..).zip(regions) {
        let use_case = RandomizedCampaign::new(region, 1, 7).use_case(attacker);
        cells.push(Cell { use_case, version: XenVersion::V4_8, mode: Mode::Injection, trial });
    }
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for i in (1..cells.len()).rev() {
        cells.swap(i, rng.gen_range(0..=i));
    }

    let mut scratch: Option<World> = None;
    for cell in &cells {
        let what = format!("{} on Xen {}, {}", cell.use_case.name(), cell.version, cell.mode);
        let (base, counts) = &bases[&(cell.version, cell.mode == Mode::Injection)];
        let world = match &mut scratch {
            Some(world) => {
                world.clone_from(base);
                world
            }
            None => scratch.insert(base.clone()),
        };
        assert_eq!(&base.share_counts(), counts, "the base's counts after the reset for {what}");
        let mut fresh = base.clone();
        assert_eq!(format!("{world:?}"), format!("{fresh:?}"), "the reset world for {what}");
        assert_eq!(world.snapshot_stats(), fresh.snapshot_stats(), "{what}");
        assert_eq!(run_cell(cell, world), run_cell(cell, &mut fresh), "{what}");
    }
}
