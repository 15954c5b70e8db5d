//! The hypervisor proper: boot, domains, guest memory access, exception
//! delivery, and the non-MMU hypercalls including the injector.

use crate::audit::{AuditEvent, AuditLog, WriteOrigin};
use crate::domain::{Domain, StartInfo};
use crate::exchange::ExchangeArgs;
use crate::grants::{GrantEntry, GrantTableVersion};
use crate::idt::{IdtEntry, DOUBLE_FAULT_VECTOR, PAGE_FAULT_VECTOR};
use crate::injector::AccessMode;
use crate::shared_log::SharedLog;
use crate::version::{VulnConfig, XenVersion};
use crate::HvError;
use hvsim_mem::{
    clone_arc_from, DomainId, FrameAllocator, MachineMemory, Mfn, PageType, Pfn, PhysAddr,
    VirtAddr, PAGE_SIZE,
};
use hvsim_paging::{walk, AccessKind, MemoryLayout, PageFault, Region, Translation, WalkPolicy};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The M2P value marking a frame with no pseudo-physical mapping.
const INVALID_M2P: u64 = u64::MAX;

/// Installed machine frames of every build (16 MiB).
const MACHINE_FRAMES: usize = 4096;

/// Simulated CPUs of every build, each with its own IDT.
const CPUS: usize = 2;

/// Build-time configuration of a simulated hypervisor instance.
///
/// Mirrors the paper's experimental setup: the same build environment with
/// only the Xen version varying, plus the choice of whether the injector
/// hypercall is compiled in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BuildConfig {
    /// The Xen version being simulated.
    pub version: XenVersion,
    /// Whether the `arbitrary_access` injector hypercall is compiled in.
    pub injector_enabled: bool,
}

impl BuildConfig {
    /// A stock build of `version` (no injector), 16 MiB, 2 CPUs: every
    /// build has the same machine, only the version and the injector
    /// vary.
    pub fn new(version: XenVersion) -> Self {
        Self { version, injector_enabled: false }
    }

    /// Enables or disables the injector hypercall.
    #[must_use]
    pub fn injector(mut self, enabled: bool) -> Self {
        self.injector_enabled = enabled;
        self
    }
}

/// Details of a hypervisor panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrashInfo {
    /// Panic message, as printed on the console; the audit log's
    /// [`AuditEvent::Crash`] shares it.
    pub message: Arc<str>,
}

/// The result of a guest software interrupt: the gate that was dispatched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InterruptDispatch {
    /// The invoked vector.
    pub vector: u8,
    /// Handler linear address from the IDT gate.
    pub handler: VirtAddr,
}

/// The simulated hypervisor.
///
/// See the [crate-level documentation](crate) for an overview. All guest
/// interaction goes through hypercall methods (`hc_*`) or the explicit
/// guest memory-access API ([`Hypervisor::guest_read_va`] and friends);
/// the intrusion injector is [`Hypervisor::hc_arbitrary_access`].
///
/// Every container a booted hypervisor carries sits behind an `Arc`, so
/// a clone (a campaign cell's world fork) allocates nothing: it shares
/// machine memory, the domain map and each domain, the allocator's
/// quotas, the IDT and M2P frame lists, the console and the audit log
/// until its first write to one of them, which copies that one (the
/// console and the audit log copy nothing: a fork's lines and events go
/// to lists of its own). A domain's copy in turn shares its p2m and
/// event-port table.
///
/// `clone_from` resets a hypervisor to a fork of another in place: it
/// re-points each shared container only when it differs from the
/// source's and keeps the capacity of the memory overlay and the fork's
/// own log lists, so resetting a fork that wrote a few containers
/// allocates nothing and touches only those containers' counts.
#[derive(Debug)]
pub struct Hypervisor {
    pub(crate) mem: MachineMemory,
    pub(crate) alloc: FrameAllocator,
    /// The domain map, and each domain in it, shared until first write.
    domains: Arc<BTreeMap<DomainId, Arc<Domain>>>,
    next_domid: u16,
    version: XenVersion,
    pub(crate) vulns: VulnConfig,
    layout: MemoryLayout,
    injector_enabled: bool,
    xen_text: Mfn,
    shared_l3: Mfn,
    /// Fixed at boot; nothing writes these lists afterwards.
    idt_frames: Arc<[Mfn]>,
    m2p_frames: Arc<[Mfn]>,
    crashed: Option<CrashInfo>,
    console: SharedLog<Cow<'static, str>>,
    pub(crate) audit: AuditLog,
    pub(crate) hypercall_count: u64,
}

impl Clone for Hypervisor {
    fn clone(&self) -> Self {
        let Self {
            mem,
            alloc,
            domains,
            next_domid,
            version,
            vulns,
            layout,
            injector_enabled,
            xen_text,
            shared_l3,
            idt_frames,
            m2p_frames,
            crashed,
            console,
            audit,
            hypercall_count,
        } = self;
        Self {
            mem: mem.clone(),
            alloc: alloc.clone(),
            domains: Arc::clone(domains),
            next_domid: *next_domid,
            version: *version,
            vulns: *vulns,
            layout: *layout,
            injector_enabled: *injector_enabled,
            xen_text: *xen_text,
            shared_l3: *shared_l3,
            idt_frames: Arc::clone(idt_frames),
            m2p_frames: Arc::clone(m2p_frames),
            crashed: crashed.clone(),
            console: console.clone(),
            audit: audit.clone(),
            hypercall_count: *hypercall_count,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let Self {
            mem,
            alloc,
            domains,
            next_domid,
            version,
            vulns,
            layout,
            injector_enabled,
            xen_text,
            shared_l3,
            idt_frames,
            m2p_frames,
            crashed,
            console,
            audit,
            hypercall_count,
        } = self;
        mem.clone_from(&source.mem);
        alloc.clone_from(&source.alloc);
        clone_arc_from(domains, &source.domains);
        *next_domid = source.next_domid;
        *version = source.version;
        *vulns = source.vulns;
        *layout = source.layout;
        *injector_enabled = source.injector_enabled;
        *xen_text = source.xen_text;
        *shared_l3 = source.shared_l3;
        clone_arc_from(idt_frames, &source.idt_frames);
        clone_arc_from(m2p_frames, &source.m2p_frames);
        crashed.clone_from(&source.crashed);
        console.clone_from(&source.console);
        audit.clone_from(&source.audit);
        *hypercall_count = source.hypercall_count;
    }
}

impl Hypervisor {
    /// Boots a simulated hypervisor.
    ///
    /// Frame 0 holds the hypervisor text (exception handler stubs); the
    /// next frame is the shared hypervisor L3 page stitched into every
    /// guest's L4; then one IDT frame per CPU. Remaining frames form the
    /// domain heap.
    // Boot-time invariant checks: every `expect` below touches a frame
    // this constructor just reserved out of a heap it just sized, so a
    // failure is a bug in the simulator itself, not a recoverable
    // condition. Campaign code wraps world construction in its own
    // panic boundary, so even these aborts are contained per-cell.
    #[allow(clippy::expect_used)]
    pub fn new(config: BuildConfig) -> Self {
        let mut mem = MachineMemory::new(MACHINE_FRAMES);
        let xen_text = Mfn::new(0);
        mem.info_mut(xen_text)
            .expect("frame 0 installed")
            .set_type_unchecked(PageType::Hypervisor);
        mem.write(xen_text.base(), format!("XEN-{} text", config.version).as_bytes())
            .expect("write xen text header");

        let shared_l3 = Mfn::new(1);
        mem.info_mut(shared_l3)
            .expect("frame 1 installed")
            .set_type_unchecked(PageType::Hypervisor);

        let layout = config.version.layout();
        let mut idt_frames = Vec::with_capacity(CPUS);
        for cpu in 0..CPUS {
            let mfn = Mfn::new(2 + cpu as u64);
            mem.info_mut(mfn)
                .expect("idt frame installed")
                .set_type_unchecked(PageType::Hypervisor);
            // Install handler stubs for the 32 architectural vectors.
            for vector in 0..32u8 {
                let handler = layout.directmap_va(vector as u64 * 16);
                let gate = IdtEntry::gate(handler);
                mem.write(
                    mfn.base().offset(IdtEntry::slot_offset(vector) as u64),
                    &gate.pack(),
                )
                .expect("write idt gate");
            }
            idt_frames.push(mfn);
        }

        // The machine-to-phys table: 8 bytes per installed frame, in
        // Xen-owned frames exposed read-only to guests at the bottom of
        // the hypervisor range (as in real Xen's RO MPT).
        let m2p_entry_bytes = 8usize;
        let m2p_frame_count = (MACHINE_FRAMES * m2p_entry_bytes).div_ceil(PAGE_SIZE);
        let mut m2p_frames = Vec::with_capacity(m2p_frame_count);
        for i in 0..m2p_frame_count {
            let mfn = Mfn::new(2 + CPUS as u64 + i as u64);
            mem.info_mut(mfn)
                .expect("m2p frame installed")
                .set_type_unchecked(PageType::Hypervisor);
            m2p_frames.push(mfn);
        }
        // All entries start invalid: one write per M2P frame, not one
        // per entry, because every write pays the copy-on-write checks.
        let per_frame = PAGE_SIZE / m2p_entry_bytes;
        for (i, frame) in m2p_frames.iter().enumerate() {
            let entries = (MACHINE_FRAMES - i * per_frame).min(per_frame);
            mem.write(frame.base(), &INVALID_M2P.to_le_bytes().repeat(entries))
                .expect("m2p init");
        }

        let heap_start = Mfn::new(2 + CPUS as u64 + m2p_frame_count as u64);
        let alloc = FrameAllocator::new(heap_start, Mfn::new(MACHINE_FRAMES as u64));

        let mut hv = Self {
            mem,
            alloc,
            domains: Default::default(),
            next_domid: 0,
            version: config.version,
            vulns: config.version.vulns(),
            layout,
            injector_enabled: config.injector_enabled,
            xen_text,
            shared_l3,
            idt_frames: idt_frames.into(),
            m2p_frames: m2p_frames.into(),
            crashed: None,
            console: SharedLog::default(),
            audit: AuditLog::new(),
            hypercall_count: 0,
        };
        hv.console_line(format!(
            "Xen version {} (injector {})",
            config.version,
            if config.injector_enabled { "enabled" } else { "disabled" }
        ));
        hv
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The simulated Xen version.
    pub fn version(&self) -> XenVersion {
        self.version
    }

    /// The virtual memory layout in effect.
    pub fn layout(&self) -> MemoryLayout {
        self.layout
    }

    /// The page-walk policy in effect.
    pub fn walk_policy(&self) -> WalkPolicy {
        self.version.walk_policy()
    }

    /// Whether the injector hypercall is compiled in.
    pub fn injector_enabled(&self) -> bool {
        self.injector_enabled
    }

    /// Read-only view of machine memory (for monitors and audits).
    pub fn mem(&self) -> &MachineMemory {
        &self.mem
    }

    /// The machine frame holding the shared hypervisor L3 table (the page
    /// the XSA-212-priv strategy links its forged PMD into).
    pub fn shared_l3_mfn(&self) -> Mfn {
        self.shared_l3
    }

    /// The crash record, if the hypervisor has panicked.
    pub fn crash_info(&self) -> Option<&CrashInfo> {
        self.crashed.as_ref()
    }

    /// `true` once the hypervisor has panicked.
    pub fn is_crashed(&self) -> bool {
        self.crashed.is_some()
    }

    /// The console ring (every line ever printed), oldest first.
    pub fn console(&self) -> impl Iterator<Item = &str> {
        self.console.iter().map(|line| &**line)
    }

    /// The audit log.
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    /// Total hypercalls executed, failed ones included, whether issued
    /// through a typed `hc_*` method or [`Hypervisor::dispatch`].
    pub fn hypercall_count(&self) -> u64 {
        self.hypercall_count
    }

    /// Frames left in the domain heap.
    pub fn free_frames(&self) -> usize {
        self.alloc.free_frames()
    }

    /// Frames currently allocated to `dom` (its `tot_pages`).
    pub fn pages_of(&self, dom: DomainId) -> u64 {
        self.alloc.pages_of(dom)
    }

    /// Looks up a domain.
    ///
    /// # Errors
    ///
    /// [`HvError::NoDomain`] if the id is unknown.
    pub fn domain(&self, id: DomainId) -> Result<&Domain, HvError> {
        self.domains.get(&id).map(|d| &**d).ok_or(HvError::NoDomain)
    }

    /// Mutable domain access; copies the domain map and then the domain
    /// while either is still shared with a snapshot. A domain copy
    /// shares its p2m and event-port table until it writes them.
    pub(crate) fn domain_mut(&mut self, id: DomainId) -> Result<&mut Domain, HvError> {
        Arc::make_mut(&mut self.domains).get_mut(&id).map(Arc::make_mut).ok_or(HvError::NoDomain)
    }

    /// Gives this hypervisor its own handle on machine memory and its
    /// own copy of every other shared container (each domain included),
    /// so forks of it bump no reference count that forks of the
    /// hypervisor it was cloned from bump (see
    /// [`MachineMemory::unshare`]).
    pub fn unshare(&mut self) {
        self.mem.unshare();
        self.alloc.unshare();
        self.audit.unshare();
        self.domains =
            Arc::new(self.domains.iter().map(|(&id, d)| (id, Arc::new(d.unshared()))).collect());
        self.idt_frames = Arc::from(&self.idt_frames[..]);
        self.m2p_frames = Arc::from(&self.m2p_frames[..]);
        self.console.unshare();
    }

    /// The reference count of every container this hypervisor shares
    /// with its clones, in a fixed order: the memory handle, the
    /// allocator's quotas, the audit log, the domain map, each domain
    /// followed by its p2m, event-port table and name, the IDT and M2P frame
    /// lists and the console. After
    /// [`unshare`](Self::unshare), forking a clone of this hypervisor
    /// leaves every one of them unchanged.
    pub fn share_counts(&self) -> Vec<usize> {
        let mut counts = vec![
            self.mem.share_count(),
            self.alloc.share_count(),
            self.audit.share_count(),
            Arc::strong_count(&self.domains),
        ];
        for d in self.domains.values() {
            counts.push(Arc::strong_count(d));
            counts.extend(d.table_share_counts());
            counts.push(d.name_share_count());
        }
        counts.extend([
            Arc::strong_count(&self.idt_frames),
            Arc::strong_count(&self.m2p_frames),
            self.console.share_count(),
        ]);
        counts
    }

    /// Iterates all domains in id order.
    pub fn domains(&self) -> impl Iterator<Item = &Domain> {
        self.domains.values().map(|d| &**d)
    }

    /// Ids of all domains, in order.
    pub fn domain_ids(&self) -> Vec<DomainId> {
        self.domains.keys().copied().collect()
    }

    pub(crate) fn console_line(&mut self, line: impl Into<Cow<'static, str>>) {
        self.console.push(line.into());
    }

    // ------------------------------------------------------------------
    // The machine-to-phys table
    // ------------------------------------------------------------------

    /// The guest virtual address of the machine-to-phys table: the very
    /// start of the guest-read-only hypervisor range (the
    /// `0xffff8000_00000000` range the paper quotes as "read-only for
    /// guest domains" — in real Xen that is the RO MPT).
    pub const M2P_VIRT_START: u64 = hvsim_paging::HYPERVISOR_VIRT_START;

    fn m2p_slot(&self, mfn: Mfn) -> Option<(Mfn, usize)> {
        let byte = (mfn.raw() as usize).checked_mul(8)?;
        let frame = self.m2p_frames.get(byte / PAGE_SIZE)?;
        Some((*frame, byte % PAGE_SIZE))
    }

    pub(crate) fn m2p_set(&mut self, mfn: Mfn, pfn: Option<Pfn>) {
        if let Some((frame, offset)) = self.m2p_slot(mfn) {
            let value = pfn.map(|p| p.raw()).unwrap_or(INVALID_M2P);
            let _ = self.mem.write_u64(frame.base().offset(offset as u64), value);
        }
    }

    /// The pseudo-physical frame recorded for `mfn` in the M2P table.
    pub fn machine_to_phys(&self, mfn: Mfn) -> Option<Pfn> {
        let (frame, offset) = self.m2p_slot(mfn)?;
        let raw = self.mem.read_u64(frame.base().offset(offset as u64)).ok()?;
        (raw != INVALID_M2P).then(|| Pfn::new(raw))
    }

    /// Resolves a virtual address inside the guest-read-only M2P window
    /// to its backing physical address.
    pub(crate) fn resolve_guest_ro(&self, va: VirtAddr) -> Option<PhysAddr> {
        let raw = va.raw();
        let size = (self.m2p_frames.len() * PAGE_SIZE) as u64;
        if !(Self::M2P_VIRT_START..Self::M2P_VIRT_START + size).contains(&raw) {
            return None;
        }
        let offset = raw - Self::M2P_VIRT_START;
        let frame = self.m2p_frames[(offset / PAGE_SIZE as u64) as usize];
        Some(frame.base().offset(offset % PAGE_SIZE as u64))
    }

    // ------------------------------------------------------------------
    // Domain lifecycle
    // ------------------------------------------------------------------

    /// Creates a domain with `pages` frames of pseudo-physical memory
    /// (plus the start-info frame at pfn 0).
    ///
    /// # Errors
    ///
    /// [`HvError::NoMem`] if the heap cannot satisfy the allocation;
    /// [`HvError::Crashed`] after a panic.
    pub fn create_domain(
        &mut self,
        name: &str,
        privileged: bool,
        pages: u64,
    ) -> Result<DomainId, HvError> {
        if self.crashed.is_some() {
            return Err(HvError::Crashed);
        }
        let id = DomainId::new(self.next_domid);
        self.next_domid += 1;
        self.alloc.set_quota(id, pages * 2 + 16);

        let start_info_mfn = self
            .alloc
            .alloc(&mut self.mem, id, PageType::Writable)
            .map_err(|_| HvError::NoMem)?;
        let si = StartInfo {
            domid: id,
            flags: StartInfo::flags_for(privileged),
            name: name.to_owned(),
            nr_pages: pages,
        };
        self.mem.write(start_info_mfn.base(), &si.to_bytes())?;

        let shared_info_mfn = self
            .alloc
            .alloc(&mut self.mem, id, PageType::Writable)
            .map_err(|_| HvError::NoMem)?;
        let mut dom = Domain::new(id, name, privileged, start_info_mfn);
        dom.set_shared_info_mfn(shared_info_mfn);
        dom.p2m_insert(Pfn::new(0), start_info_mfn);
        self.m2p_set(start_info_mfn, Some(Pfn::new(0)));
        for i in 0..pages {
            let mfn = self
                .alloc
                .alloc(&mut self.mem, id, PageType::Writable)
                .map_err(|_| HvError::NoMem)?;
            dom.p2m_insert(Pfn::new(1 + i), mfn);
            self.m2p_set(mfn, Some(Pfn::new(1 + i)));
        }
        Arc::make_mut(&mut self.domains).insert(id, Arc::new(dom));
        self.console_line(format!("created {id} ('{name}', {pages} pages)"));
        Ok(id)
    }

    /// Allocates one additional frame to a domain (models
    /// `XENMEM_populate_physmap`). Returns the new `(pfn, mfn)` pair.
    ///
    /// # Errors
    ///
    /// [`HvError::NoMem`] on quota or heap exhaustion.
    pub fn alloc_domain_frame(
        &mut self,
        dom: DomainId,
        page_type: PageType,
    ) -> Result<(Pfn, Mfn), HvError> {
        self.check_alive(dom)?;
        let mfn = self
            .alloc
            .alloc(&mut self.mem, dom, page_type)
            .map_err(|_| HvError::NoMem)?;
        let d = self.domain_mut(dom)?;
        let pfn = d.next_free_pfn();
        d.p2m_insert(pfn, mfn);
        self.m2p_set(mfn, Some(pfn));
        Ok((pfn, mfn))
    }

    /// Fails with [`HvError::Crashed`] after a panic and
    /// [`HvError::NoDomain`] for an unknown or dead domain.
    pub(crate) fn check_alive(&self, dom: DomainId) -> Result<(), HvError> {
        self.live_domain(dom).map(drop)
    }

    /// The domain, if the hypervisor is up and the domain alive; fails
    /// as [`check_alive`](Self::check_alive) does.
    fn live_domain(&self, dom: DomainId) -> Result<&Domain, HvError> {
        if self.crashed.is_some() {
            return Err(HvError::Crashed);
        }
        let d = self.domain(dom)?;
        if d.is_dead() {
            return Err(HvError::NoDomain);
        }
        Ok(d)
    }

    // ------------------------------------------------------------------
    // Guest memory access (frame-addressed)
    // ------------------------------------------------------------------

    /// `true` if `dom` may access `mfn` directly: it owns the frame, or
    /// it has retained (possibly stale) access to it.
    pub fn frame_access_allowed(&self, dom: DomainId, mfn: Mfn) -> bool {
        let owner = self.mem.info(mfn).ok().and_then(|i| i.owner());
        owner == Some(dom)
            || self
                .domain(dom)
                .map(|d| d.retains_access(mfn))
                .unwrap_or(false)
    }

    /// Reads from a frame the domain owns (or retains access to).
    ///
    /// # Errors
    ///
    /// [`HvError::Perm`] if the domain has no access to the frame.
    pub fn guest_read_frame(
        &self,
        dom: DomainId,
        mfn: Mfn,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<(), HvError> {
        if !self.frame_access_allowed(dom, mfn) {
            return Err(HvError::Perm);
        }
        self.mem.read(mfn.base().offset(offset as u64), buf)?;
        Ok(())
    }

    /// Writes to a frame the domain owns (or retains access to).
    ///
    /// Direct writes to the domain's *own* page-table-typed frames are
    /// refused — in PV direct paging all page-table updates must go
    /// through `mmu_update`. Writes through *retained* (stale) access are
    /// not filtered: they model still-live hardware mappings.
    ///
    /// # Errors
    ///
    /// [`HvError::Perm`] on access violations.
    pub fn guest_write_frame(
        &mut self,
        dom: DomainId,
        mfn: Mfn,
        offset: usize,
        bytes: &[u8],
    ) -> Result<(), HvError> {
        self.check_alive(dom)?;
        let info = self.mem.info(mfn)?;
        let owns = info.owner() == Some(dom);
        let retained = self.domain(dom)?.retains_access(mfn);
        if !owns && !retained {
            return Err(HvError::Perm);
        }
        if owns && info.page_type().is_page_table() {
            self.audit.push(AuditEvent::ValidationRejected {
                dom,
                check: "direct_pt_write",
                detail: format!("direct write to {}-typed frame {mfn}", info.page_type()),
            });
            return Err(HvError::Perm);
        }
        self.mem.write(mfn.base().offset(offset as u64), bytes)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Guest memory access (virtually-addressed)
    // ------------------------------------------------------------------

    /// Translates `va` in `dom`'s context (layout veto + page walk).
    ///
    /// # Errors
    ///
    /// [`HvError::GuestFault`] carrying the structured page fault;
    /// [`HvError::Inval`] if the domain has no page tables installed.
    pub fn guest_translate(&self, dom: DomainId, va: VirtAddr) -> Result<Translation, HvError> {
        let d = self.domain(dom)?;
        let cr3 = d.cr3().ok_or(HvError::Inval)?;
        let policy = self.walk_policy();
        Ok(walk(&self.mem, cr3, va, &policy)?)
    }

    /// Reads from the guest-read-only hypervisor window (the M2P table).
    ///
    /// # Errors
    ///
    /// [`HvError::GuestFault`] outside the mapped window.
    pub fn guest_read_ro_window(
        &mut self,
        dom: DomainId,
        va: VirtAddr,
        buf: &mut [u8],
    ) -> Result<(), HvError> {
        self.check_alive(dom)?;
        if let Err(denial) = self.layout.guest_may(va, AccessKind::Read) {
            let pf: PageFault = denial.into();
            self.deliver_page_fault(&pf);
            return Err(HvError::GuestFault(pf));
        }
        let Some(phys) = self.resolve_guest_ro(va) else {
            let pf = PageFault::new(
                va,
                AccessKind::Read,
                hvsim_paging::PageFaultKind::NotPresent { level: 4 },
            );
            self.deliver_page_fault(&pf);
            return Err(HvError::GuestFault(pf));
        };
        self.mem.read(phys, buf)?;
        Ok(())
    }

    /// Walks `va` in `dom`'s context and checks `access`, delivering any
    /// fault. `pick` reads what the caller needs from the translation in
    /// place, so a plain read or write copies out only the physical
    /// address.
    #[inline]
    fn guest_access<T>(
        &mut self,
        dom: DomainId,
        va: VirtAddr,
        access: AccessKind,
        user_mode: bool,
        pick: impl FnOnce(&Translation) -> T,
    ) -> Result<T, HvError> {
        // One domain lookup serves the liveness check and the walk.
        let cr3 = self.live_domain(dom)?.cr3();
        if let Err(denial) = self.layout.guest_may(va, access) {
            let pf: PageFault = denial.into();
            self.deliver_page_fault(&pf);
            return Err(HvError::GuestFault(pf));
        }
        let cr3 = cr3.ok_or(HvError::Inval)?;
        let walked = walk(&self.mem, cr3, va, &self.walk_policy());
        let checked = match &walked {
            Ok(t) => t.check(access, user_mode).map(|()| pick(t)),
            Err(pf) => Err(pf.clone()),
        };
        checked.map_err(|pf| {
            self.deliver_page_fault(&pf);
            HvError::GuestFault(pf)
        })
    }

    /// Reads guest-virtual memory in kernel (ring ≤ 1) context.
    ///
    /// # Errors
    ///
    /// [`HvError::GuestFault`] on translation or permission failure; the
    /// fault is *delivered* (a corrupted IDT therefore escalates).
    pub fn guest_read_va(
        &mut self,
        dom: DomainId,
        va: VirtAddr,
        buf: &mut [u8],
    ) -> Result<(), HvError> {
        let phys = self.guest_access(dom, va, AccessKind::Read, false, |t| t.phys)?;
        self.mem.read(phys, buf)?;
        Ok(())
    }

    /// Writes guest-virtual memory in kernel context.
    ///
    /// # Errors
    ///
    /// See [`Hypervisor::guest_read_va`].
    pub fn guest_write_va(
        &mut self,
        dom: DomainId,
        va: VirtAddr,
        bytes: &[u8],
    ) -> Result<(), HvError> {
        let phys = self.guest_access(dom, va, AccessKind::Write, false, |t| t.phys)?;
        self.mem.write(phys, bytes)?;
        Ok(())
    }

    /// Reads guest-virtual memory in **user mode** (ring 3): every level
    /// of the translation must carry the USER bit.
    ///
    /// # Errors
    ///
    /// See [`Hypervisor::guest_read_va`]; additionally faults with
    /// `NotUser` through supervisor-only mappings.
    pub fn guest_read_va_user(
        &mut self,
        dom: DomainId,
        va: VirtAddr,
        buf: &mut [u8],
    ) -> Result<(), HvError> {
        let phys = self.guest_access(dom, va, AccessKind::Read, true, |t| t.phys)?;
        self.mem.read(phys, buf)?;
        Ok(())
    }

    /// Writes guest-virtual memory in **user mode** (ring 3).
    ///
    /// # Errors
    ///
    /// See [`Hypervisor::guest_read_va_user`].
    pub fn guest_write_va_user(
        &mut self,
        dom: DomainId,
        va: VirtAddr,
        bytes: &[u8],
    ) -> Result<(), HvError> {
        let phys = self.guest_access(dom, va, AccessKind::Write, true, |t| t.phys)?;
        self.mem.write(phys, bytes)?;
        Ok(())
    }

    /// Checks that `va` is executable in `dom`'s context and returns the
    /// translation (the caller fetches and interprets the "code").
    ///
    /// # Errors
    ///
    /// See [`Hypervisor::guest_read_va`].
    pub fn guest_exec_va(&mut self, dom: DomainId, va: VirtAddr) -> Result<Translation, HvError> {
        self.guest_access(dom, va, AccessKind::Execute, false, Translation::clone)
    }

    // ------------------------------------------------------------------
    // Hypervisor-privileged copies (the XSA-212 surface)
    // ------------------------------------------------------------------

    /// Resolves a linear address the way hypervisor code would: direct
    /// map first, then (for guest-half addresses) the current domain's
    /// page tables.
    pub(crate) fn resolve_hv_va(&self, dom: DomainId, va: VirtAddr) -> Option<PhysAddr> {
        if let Some(phys) = self.layout.directmap_phys(va) {
            return Some(PhysAddr::new(phys));
        }
        match self.layout.region_of(va) {
            Region::GuestVirtual | Region::LinearPtWindow => self
                .domain(dom)
                .ok()
                .and_then(|d| d.cr3())
                .and_then(|cr3| walk(&self.mem, cr3, va, &self.walk_policy()).map(|t| t.phys).ok()),
            _ => None,
        }
    }

    /// The *checked* guest copy (fixed-version behaviour): the handle
    /// must be an ordinary guest address, mapped writable.
    pub(crate) fn copy_to_guest_checked(
        &mut self,
        dom: DomainId,
        va: VirtAddr,
        bytes: &[u8],
    ) -> Result<(), HvError> {
        if self.layout.region_of(va) != Region::GuestVirtual {
            self.audit.push(AuditEvent::ValidationRejected {
                dom,
                check: "guest_handle",
                detail: format!("handle {va} is not a guest address"),
            });
            return Err(HvError::Fault);
        }
        let t = self.guest_translate(dom, va)?;
        t.check(AccessKind::Write, false).map_err(HvError::GuestFault)?;
        self.mem.write(t.phys, bytes)?;
        Ok(())
    }

    /// The *unchecked* copy of vulnerable builds: whatever the address
    /// resolves to in hypervisor context gets written, with hypervisor
    /// privileges.
    pub(crate) fn copy_to_guest_unchecked(
        &mut self,
        dom: DomainId,
        va: VirtAddr,
        bytes: &[u8],
    ) -> Result<(), HvError> {
        let phys = self.resolve_hv_va(dom, va).ok_or(HvError::Fault)?;
        self.mem.write(phys, bytes)?;
        self.audit.push(AuditEvent::HypervisorWrite {
            dom,
            phys,
            len: bytes.len(),
            origin: WriteOrigin::UncheckedCopy,
        });
        Ok(())
    }

    // ------------------------------------------------------------------
    // IDT and exceptions
    // ------------------------------------------------------------------

    /// The linear IDT base for `cpu`, as the (unprivileged, untrapped)
    /// `sidt` instruction would reveal it to a PV guest.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn sidt(&self, cpu: usize) -> VirtAddr {
        self.layout.directmap_va(self.idt_frames[cpu].base().raw())
    }

    /// Number of simulated CPUs.
    pub fn cpu_count(&self) -> usize {
        self.idt_frames.len()
    }

    /// Reads an IDT gate.
    ///
    /// # Errors
    ///
    /// [`HvError::Inval`] for an out-of-range cpu.
    pub fn idt_entry(&self, cpu: usize, vector: u8) -> Result<IdtEntry, HvError> {
        let mfn = *self.idt_frames.get(cpu).ok_or(HvError::Inval)?;
        let mut buf = [0u8; 16];
        self.mem
            .read(mfn.base().offset(IdtEntry::slot_offset(vector) as u64), &mut buf)?;
        Ok(IdtEntry::unpack(&buf))
    }

    /// Whether `va` points into the hypervisor's exception-handler stubs.
    pub fn is_valid_handler(&self, va: VirtAddr) -> bool {
        let base = self.layout.directmap_va(self.xen_text.base().raw()).raw();
        (base..base + PAGE_SIZE as u64).contains(&va.raw())
    }

    /// Delivers a page fault through the (possibly corrupted) IDT.
    ///
    /// Returns `true` if the fault was delivered normally. If the #PF
    /// gate has been corrupted, delivery escalates to a double fault and
    /// the hypervisor panics — the XSA-212-crash violation.
    pub fn deliver_page_fault(&mut self, pf: &PageFault) -> bool {
        if self.crashed.is_some() {
            return false;
        }
        let gate = match self.idt_entry(0, PAGE_FAULT_VECTOR) {
            Ok(g) => g,
            Err(_) => {
                self.double_fault(pf);
                return false;
            }
        };
        if gate.present && self.is_valid_handler(gate.offset) {
            self.audit.push(AuditEvent::Exception {
                vector: PAGE_FAULT_VECTOR,
                addr: Some(pf.va),
                delivered: true,
            });
            true
        } else {
            self.audit.push(AuditEvent::Exception {
                vector: PAGE_FAULT_VECTOR,
                addr: Some(pf.va),
                delivered: false,
            });
            self.double_fault(pf);
            false
        }
    }

    fn double_fault(&mut self, pf: &PageFault) {
        self.audit.push(AuditEvent::Exception {
            vector: DOUBLE_FAULT_VECTOR,
            addr: Some(pf.va),
            delivered: false,
        });
        self.console_line("(XEN) *** DOUBLE FAULT ***");
        self.console_line(format!(
            "(XEN) Faulting linear address: {:#018x}",
            pf.va.raw()
        ));
        self.console_line("(XEN) Panic on CPU 0:");
        self.console_line("(XEN) DOUBLE FAULT -- system shutdown");
        self.crash("DOUBLE FAULT -- system shutdown");
    }

    /// Panics the hypervisor: all domains die, all further hypercalls
    /// return [`HvError::Crashed`].
    pub fn crash(&mut self, message: &str) {
        if self.crashed.is_some() {
            return;
        }
        let message: Arc<str> = message.into();
        self.audit.push(AuditEvent::Crash { message: Arc::clone(&message) });
        self.crashed = Some(CrashInfo { message });
        for d in Arc::make_mut(&mut self.domains).values_mut() {
            Arc::make_mut(d).kill();
        }
    }

    /// A guest issues `int <vector>`: reads the gate and reports what the
    /// CPU would dispatch to. Code execution semantics live above the
    /// hypervisor (the guest world interprets the handler address).
    ///
    /// # Errors
    ///
    /// [`HvError::Inval`] if the gate is not present.
    pub fn software_interrupt(
        &mut self,
        dom: DomainId,
        vector: u8,
    ) -> Result<InterruptDispatch, HvError> {
        self.check_alive(dom)?;
        let gate = self.idt_entry(0, vector)?;
        if !gate.present {
            return Err(HvError::Inval);
        }
        self.audit.push(AuditEvent::Exception {
            vector,
            addr: Some(gate.offset),
            delivered: true,
        });
        Ok(InterruptDispatch {
            vector,
            handler: gate.offset,
        })
    }

    // ------------------------------------------------------------------
    // Hypercalls (non-MMU; the MMU family lives in validate.rs)
    // ------------------------------------------------------------------

    /// `HYPERVISOR_console_io`: appends a guest-tagged line to the
    /// hypervisor console.
    ///
    /// # Errors
    ///
    /// [`HvError::Crashed`] / [`HvError::NoDomain`] per the usual checks.
    pub fn hc_console_io(&mut self, dom: DomainId, line: &str) -> Result<u64, HvError> {
        self.enter(dom, "console_io", |hv| {
            hv.console_line(format!("[{dom}] {line}"));
            Ok(0)
        })
    }

    /// `HYPERVISOR_set_trap_table`: registers guest exception handlers.
    ///
    /// # Errors
    ///
    /// Standard liveness checks.
    pub fn hc_set_trap_table(
        &mut self,
        dom: DomainId,
        entries: &[(u8, VirtAddr)],
    ) -> Result<u64, HvError> {
        self.enter(dom, "set_trap_table", |hv| {
            let d = hv.domain_mut(dom)?;
            for &(vector, va) in entries {
                d.set_trap_handler(vector, va);
            }
            Ok(0)
        })
    }

    /// `XENMEM_exchange`. See [`ExchangeArgs`] for the XSA-212 mechanics.
    ///
    /// # Errors
    ///
    /// [`HvError::Fault`] for bad handles (fixed builds) or bad input
    /// gmfns (all builds — on vulnerable builds the error write-back has
    /// already happened by then, which *is* the vulnerability).
    pub fn hc_memory_exchange(
        &mut self,
        dom: DomainId,
        args: &ExchangeArgs,
    ) -> Result<u64, HvError> {
        self.enter(dom, "memory_exchange", |hv| {
            let unchecked = hv.vulns.xsa212_exchange_unchecked_handle;
            if !unchecked && hv.layout.region_of(args.out_extent_start) != Region::GuestVirtual {
                hv.audit.push(AuditEvent::ValidationRejected {
                    dom,
                    check: "exchange_handle",
                    detail: format!("out.extent_start {} rejected", args.out_extent_start),
                });
                return Err(HvError::Fault);
            }
            let mut exchanged = 0u64;
            for (i, &gmfn) in args.in_gmfns.iter().enumerate() {
                let slot = args.out_slot(i);
                let backing = hv.domain(dom)?.p2m(Pfn::new(gmfn));
                match backing {
                    Some(old_mfn) => {
                        let new_mfn = hv
                            .alloc
                            .alloc(&mut hv.mem, dom, PageType::Writable)
                            .map_err(|_| HvError::NoMem)?;
                        let d = hv.domain_mut(dom)?;
                        d.p2m_remove(Pfn::new(gmfn));
                        d.p2m_insert(Pfn::new(gmfn), new_mfn);
                        hv.m2p_set(old_mfn, None);
                        hv.m2p_set(new_mfn, Some(Pfn::new(gmfn)));
                        hv.alloc.free(&mut hv.mem, old_mfn)?;
                        hv.exchange_copy(dom, slot, new_mfn.raw(), unchecked)?;
                        exchanged += 1;
                    }
                    None => {
                        // Error path: Xen writes the offending input extent
                        // back through the (possibly unchecked) handle before
                        // failing. On vulnerable builds this is the
                        // write-what-where.
                        hv.exchange_copy(dom, slot, gmfn, unchecked)?;
                        return Err(HvError::Fault);
                    }
                }
            }
            Ok(exchanged)
        })
    }

    fn exchange_copy(
        &mut self,
        dom: DomainId,
        va: VirtAddr,
        value: u64,
        unchecked: bool,
    ) -> Result<(), HvError> {
        let bytes = value.to_le_bytes();
        if unchecked {
            self.copy_to_guest_unchecked(dom, va, &bytes)
        } else {
            self.copy_to_guest_checked(dom, va, &bytes)
        }
    }

    /// `XENMEM_decrease_reservation`: returns frames to the hypervisor.
    ///
    /// On XSA-393-vulnerable builds, a preceding cache-maintenance
    /// operation leaves the guest's mapping live: the frame is freed (and
    /// may be re-allocated to another domain) while the guest can still
    /// reach it — the *Keep Page Access* erroneous state.
    ///
    /// # Errors
    ///
    /// None of its own: unknown pfns are skipped, and the return value
    /// counts the frames released (as in Xen).
    pub fn hc_decrease_reservation(
        &mut self,
        dom: DomainId,
        pfns: &[Pfn],
        after_cache_maintenance: bool,
    ) -> Result<u64, HvError> {
        self.enter(dom, "decrease_reservation", |hv| {
            let vulnerable = hv.vulns.xsa393_decrease_reservation_keeps_mapping;
            let mut done = 0u64;
            for &pfn in pfns {
                let Some(mfn) = hv.domain_mut(dom)?.p2m_remove(pfn) else {
                    continue;
                };
                if vulnerable && after_cache_maintenance {
                    hv.domain_mut(dom)?.retain_access(mfn);
                    hv.audit.push(AuditEvent::DanglingReference {
                        dom,
                        mfn,
                        detail: "decrease_reservation left mapping live (XSA-393)".into(),
                    });
                } else {
                    hv.domain_mut(dom)?.drop_retained_access(mfn);
                }
                hv.m2p_set(mfn, None);
                hv.alloc.free(&mut hv.mem, mfn)?;
                done += 1;
            }
            Ok(done)
        })
    }

    /// `GNTTABOP_set_version`.
    ///
    /// Switching v1 → v2 allocates Xen-owned status frames and maps them
    /// into the guest. Switching v2 → v1 must release them; XSA-387
    /// vulnerable builds leak the guest's access instead.
    ///
    /// # Errors
    ///
    /// [`HvError::NoMem`] if status frames cannot be allocated.
    pub fn hc_grant_table_set_version(
        &mut self,
        dom: DomainId,
        version: GrantTableVersion,
    ) -> Result<u64, HvError> {
        self.enter(dom, "grant_table_set_version", |hv| {
            let current = hv.domain(dom)?.grant_table().version();
            match (current, version) {
                (GrantTableVersion::V1, GrantTableVersion::V2) => {
                    // Status frames are hypervisor pages mapped into the guest.
                    let mfn = hv
                        .alloc
                        .alloc(&mut hv.mem, dom, PageType::GrantTable)
                        .map_err(|_| HvError::NoMem)?;
                    hv.mem.info_mut(mfn)?.set_owner_unchecked(None);
                    hv.mem.info_mut(mfn)?.set_type_unchecked(PageType::GrantTable);
                    let d = hv.domain_mut(dom)?;
                    d.grant_table_mut().add_status_frame(mfn);
                    d.grant_table_mut().set_version(GrantTableVersion::V2);
                    d.retain_access(mfn);
                    Ok(0)
                }
                (GrantTableVersion::V2, GrantTableVersion::V1) => {
                    let vulnerable = hv.vulns.xsa387_gnttab_v2_status_leak;
                    let frames = hv.domain_mut(dom)?.grant_table_mut().take_status_frames();
                    for mfn in frames {
                        if vulnerable {
                            // The guest's mapping of the status page survives
                            // the switch: Keep Page Reference.
                            hv.audit.push(AuditEvent::DanglingReference {
                                dom,
                                mfn,
                                detail: "gnttab v2->v1 left status page mapped (XSA-387)".into(),
                            });
                        } else {
                            hv.domain_mut(dom)?.drop_retained_access(mfn);
                        }
                        hv.mem.info_mut(mfn)?.release();
                        hv.alloc.free(&mut hv.mem, mfn)?;
                    }
                    hv.domain_mut(dom)?
                        .grant_table_mut()
                        .set_version(GrantTableVersion::V1);
                    Ok(0)
                }
                _ => Ok(0),
            }
        })
    }

    /// Grants `grantee` (read or read/write) access to one of `dom`'s
    /// frames, returning the grant reference.
    ///
    /// # Errors
    ///
    /// [`HvError::Perm`] if `dom` does not own `mfn`.
    pub fn hc_grant_access(
        &mut self,
        dom: DomainId,
        grantee: DomainId,
        mfn: Mfn,
        writable: bool,
    ) -> Result<u64, HvError> {
        self.enter(dom, "grant_access", |hv| {
            if hv.mem.info(mfn)?.owner() != Some(dom) {
                return Err(HvError::Perm);
            }
            let gref = hv.domain_mut(dom)?.grant_table_mut().add_entry(GrantEntry {
                domid: grantee,
                frame: mfn,
                writable,
                mapped: false,
            }) as u64;
            Ok(gref)
        })
    }

    /// Maps a grant: `grantee` gains access to the granted frame.
    ///
    /// # Errors
    ///
    /// [`HvError::Inval`] for unknown grant references,
    /// [`HvError::Perm`] if the grant names a different grantee.
    pub fn hc_grant_map(
        &mut self,
        grantee: DomainId,
        granter: DomainId,
        gref: usize,
    ) -> Result<Mfn, HvError> {
        self.enter(grantee, "grant_map", |hv| {
            let entry = *hv.domain(granter)?.grant_table().entry(gref).ok_or(HvError::Inval)?;
            if entry.domid != grantee {
                return Err(HvError::Perm);
            }
            hv.domain_mut(granter)?
                .grant_table_mut()
                .entry_mut(gref)
                .ok_or(HvError::Inval)?
                .mapped = true;
            hv.domain_mut(grantee)?.retain_access(entry.frame);
            Ok(entry.frame.raw())
        })
        .map(Mfn::new)
    }

    /// Host-debugger physical access (a gdbsx/JTAG-style stub): reads or
    /// writes machine memory from *outside* any domain context. Unlike
    /// [`Hypervisor::hc_arbitrary_access`] this requires **no patched
    /// hypercall** — it models the less-intrusive injector implementation
    /// the paper's §IX-D trades off against ("choosing adequate injection
    /// solutions"). Always available, audited separately.
    ///
    /// # Errors
    ///
    /// [`HvError::Mem`] for out-of-range accesses.
    pub fn debug_stub_access(
        &mut self,
        addr: PhysAddr,
        data: &mut [u8],
        write: bool,
    ) -> Result<(), HvError> {
        if write {
            self.mem.write(addr, data)?;
            self.audit.push(AuditEvent::HypervisorWrite {
                dom: DomainId::new(u16::MAX),
                phys: addr,
                len: data.len(),
                origin: WriteOrigin::Injector,
            });
        } else {
            self.mem.read(addr, data)?;
        }
        Ok(())
    }

    /// Resolves a linear address for the debug stub: direct map, or a
    /// walk through `dom`'s page tables for guest-half addresses.
    pub fn debug_stub_resolve(&self, dom: DomainId, va: VirtAddr) -> Option<PhysAddr> {
        self.resolve_hv_va(dom, va)
    }

    /// Injector-only: grants `dom` retained access to `mfn` without any
    /// ownership transfer — directly inducing the *Keep Page Reference*
    /// erroneous-state family (the states XSA-387/XSA-393 leak into
    /// existence) on builds where those bugs are fixed.
    ///
    /// # Errors
    ///
    /// [`HvError::NoSys`] when the injector is not compiled in.
    pub fn inject_retain_access(&mut self, dom: DomainId, mfn: Mfn) -> Result<(), HvError> {
        if !self.injector_enabled {
            return Err(HvError::NoSys);
        }
        self.check_alive(dom)?;
        if !self.mem.contains(mfn) {
            return Err(HvError::Fault);
        }
        self.domain_mut(dom)?.retain_access(mfn);
        self.audit.push(AuditEvent::DanglingReference {
            dom,
            mfn,
            detail: "injected retained access (keep page reference)".into(),
        });
        Ok(())
    }

    /// The paper's injector hypercall:
    /// `arbitrary_access(addr, buff, n, action)`.
    ///
    /// Reads fill `data`; writes consume it. Linear addresses resolve via
    /// the direct map or (for guest-half addresses) the calling domain's
    /// page tables — with **no permission checks**, which is the point.
    /// Physical addresses are mapped and accessed directly, mirroring the
    /// prototype's `map into Xen linear address space and perform the
    /// operation` path (§V-B).
    ///
    /// # Errors
    ///
    /// [`HvError::NoSys`] when the build does not include the injector;
    /// [`HvError::Fault`] for unresolvable addresses.
    pub fn hc_arbitrary_access(
        &mut self,
        dom: DomainId,
        addr: u64,
        data: &mut [u8],
        mode: AccessMode,
    ) -> Result<u64, HvError> {
        self.enter(dom, "arbitrary_access", |hv| {
            if !hv.injector_enabled {
                return Err(HvError::NoSys);
            }
            let phys = if mode.is_linear() {
                hv.resolve_hv_va(dom, VirtAddr::new(addr)).ok_or(HvError::Fault)?
            } else {
                PhysAddr::new(addr)
            };
            hv.audit.push(AuditEvent::InjectorAccess {
                dom,
                addr,
                len: data.len(),
                mode: mode.label(),
            });
            if mode.is_write() {
                hv.mem.write(phys, data)?;
                hv.audit.push(AuditEvent::HypervisorWrite {
                    dom,
                    phys,
                    len: data.len(),
                    origin: WriteOrigin::Injector,
                });
            } else {
                hv.mem.read(phys, data)?;
            }
            Ok(data.len() as u64)
        })
    }
}

#[cfg(test)]
impl Hypervisor {
    /// Test-only raw frame write (stands in for an injector PhysWrite).
    pub(crate) fn mem_write_for_test(&mut self, mfn: Mfn, offset: usize, bytes: &[u8]) {
        self.mem
            .write(mfn.base().offset(offset as u64), bytes)
            .expect("test write");
    }
}
