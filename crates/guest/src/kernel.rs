//! The simulated PV guest kernel.
//!
//! A paravirtualized kernel under direct paging builds and maintains its
//! own page tables, but every update goes through the hypervisor. The
//! boot sequence here mirrors the real flow: write the table frames while
//! they are still plain data, then `MMUEXT_PIN_L4_TABLE` (the hypervisor
//! validates and retypes the tree), then `MMUEXT_NEW_BASEPTR`.
//!
//! The kernel maps every pseudo-physical page except its page tables at
//! `KERNEL_BASE + pfn * 4096`, keeps a timestamped kernel log (the medium
//! the paper's exploit transcripts are printed in), and hosts processes,
//! a VFS and the vDSO page.

use crate::process::{Process, Uid};
use crate::vdso;
use crate::vfs::Vfs;
use hvsim::{Hypervisor, HvError, MmuExtOp, MmuUpdate, PageTableEntry, PteFlags, SharedLog};
use hvsim_mem::{DomainId, Mfn, PageType, Pfn, VirtAddr, PAGE_SIZE};
use hvsim_paging::VaIndices;
use std::borrow::Cow;
use std::sync::Arc;

/// Base virtual address of the kernel's linear mapping of guest memory.
///
/// Real PV Linux places this in the Xen-assigned portion of the upper
/// canonical half; the simulator uses a lower-half address (L4 slot 192)
/// because the upper half belongs to the hypervisor layout model. The
/// mapping is the same concept: `va = KERNEL_BASE + pfn * PAGE_SIZE`.
pub const KERNEL_BASE: u64 = 0x6000_0000_0000;

/// Pseudo-physical frame numbers with fixed roles (pfn 0 is start-info).
const PFN_L4: u64 = 1;
const PFN_L3: u64 = 2;
const PFN_L2: u64 = 3;
const PFN_L1: u64 = 4;
pub(crate) const PFN_VDSO: u64 = 5;
/// First pfn available to the kernel heap.
const PFN_HEAP: u64 = 6;

const LINK: PteFlags = PteFlags::PRESENT.union(PteFlags::RW).union(PteFlags::USER);

/// The machine frames holding the kernel's four page-table levels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableMfns {
    /// Top-level (PGD) frame — the domain's cr3.
    pub l4: Mfn,
    /// The PUD frame.
    pub l3: Mfn,
    /// The PMD frame.
    pub l2: Mfn,
    /// The PTE frame.
    pub l1: Mfn,
}

/// A kernel log line; its `[secs.frac]` stamp is rendered when read.
#[derive(Clone, Debug, PartialEq, Eq)]
struct LogLine {
    tick: u64,
    msg: Cow<'static, str>,
}

impl LogLine {
    fn render(&self) -> String {
        format!("[{:5}.{:04}] {}", 100 + self.tick / 10, (self.tick % 10) * 1000 + 268, self.msg)
    }
}

/// A simulated PV guest kernel.
///
/// A copy shares the hostname, the process table, the filesystem and
/// the log's boot lines until it writes one of them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GuestKernel {
    dom: DomainId,
    hostname: Arc<str>,
    tables: TableMfns,
    heap_next: u64,
    processes: Arc<Vec<Process>>,
    next_pid: u32,
    vfs: Vfs,
    klog: SharedLog<LogLine>,
    tick: u64,
}

impl GuestKernel {
    /// Boots a kernel inside an existing domain: builds the 4-level page
    /// tables from the domain's own frames, pins them, installs them, and
    /// writes the vDSO image.
    ///
    /// # Errors
    ///
    /// Propagates hypervisor errors; [`HvError::Inval`] if the domain has
    /// fewer than 8 pages.
    pub fn boot(hv: &mut Hypervisor, dom: DomainId) -> Result<Self, HvError> {
        let domain = hv.domain(dom)?;
        if domain.p2m_len() < 8 {
            return Err(HvError::Inval);
        }
        if domain.p2m_len() > 512 {
            // A single L1 covers 512 pages; enough for every experiment.
            return Err(HvError::Inval);
        }
        let hostname = domain.name().into();
        let mfn_of = |hv: &Hypervisor, pfn: u64| -> Result<Mfn, HvError> {
            hv.domain(dom)?.p2m(Pfn::new(pfn)).ok_or(HvError::Inval)
        };
        let tables = TableMfns {
            l4: mfn_of(hv, PFN_L4)?,
            l3: mfn_of(hv, PFN_L3)?,
            l2: mfn_of(hv, PFN_L2)?,
            l1: mfn_of(hv, PFN_L1)?,
        };
        let idx = VaIndices::of(VirtAddr::new(KERNEL_BASE));

        let write_entry =
            |hv: &mut Hypervisor, table: Mfn, i: usize, e: PageTableEntry| -> Result<(), HvError> {
                hv.guest_write_frame(dom, table, i * 8, &e.raw().to_le_bytes())
            };
        write_entry(hv, tables.l4, idx.l4, PageTableEntry::new(tables.l3, LINK))?;
        write_entry(hv, tables.l3, idx.l3, PageTableEntry::new(tables.l2, LINK))?;
        write_entry(hv, tables.l2, idx.l2, PageTableEntry::new(tables.l1, LINK))?;
        // Map every non-table pfn.
        let pairs: Vec<(u64, Mfn)> = hv
            .domain(dom)?
            .p2m_iter()
            .map(|(p, m)| (p.raw(), m))
            .collect();
        let mut heap_next = PFN_HEAP;
        for (pfn, mfn) in pairs {
            if (PFN_L4..=PFN_L1).contains(&pfn) {
                continue;
            }
            write_entry(hv, tables.l1, pfn as usize, PageTableEntry::new(mfn, LINK))?;
            heap_next = heap_next.max(pfn + 1);
        }
        hv.hc_mmuext_op(dom, &[MmuExtOp::Pin { level: 4, mfn: tables.l4 }])?;
        hv.hc_mmuext_op(dom, &[MmuExtOp::NewBaseptr { mfn: tables.l4 }])?;

        // Install the vDSO image through the freshly built mapping.
        hv.guest_write_va(dom, Self::va_of_pfn_raw(PFN_VDSO), &vdso::vdso_image())?;

        let mut kernel = Self {
            dom,
            hostname,
            tables,
            heap_next,
            processes: Arc::default(),
            next_pid: 1,
            vfs: Vfs::new(),
            klog: SharedLog::default(),
            tick: 0,
        };
        kernel.spawn("init", Uid::ROOT, false);
        kernel.klog("kernel booted (direct paging, tables pinned)");
        Ok(kernel)
    }

    fn va_of_pfn_raw(pfn: u64) -> VirtAddr {
        VirtAddr::new(KERNEL_BASE + pfn * PAGE_SIZE as u64)
    }

    /// The virtual address the kernel maps `pfn` at.
    pub fn va_of_pfn(&self, pfn: Pfn) -> VirtAddr {
        Self::va_of_pfn_raw(pfn.raw())
    }

    /// The domain this kernel runs in.
    pub fn dom(&self) -> DomainId {
        self.dom
    }

    /// The guest's hostname (its domain name).
    pub fn hostname(&self) -> &str {
        &self.hostname
    }

    /// The hostname as the kernel's copies share it.
    pub(crate) fn hostname_shared(&self) -> &Arc<str> {
        &self.hostname
    }

    /// The kernel's page-table frames.
    pub fn tables(&self) -> TableMfns {
        self.tables
    }

    /// The vDSO page's machine frame.
    ///
    /// # Errors
    ///
    /// [`HvError::Inval`] if the p2m entry vanished.
    pub fn vdso_mfn(&self, hv: &Hypervisor) -> Result<Mfn, HvError> {
        hv.domain(self.dom)?
            .p2m(Pfn::new(PFN_VDSO))
            .ok_or(HvError::Inval)
    }

    /// Allocates and maps a fresh heap page; returns `(pfn, mfn, va)`.
    ///
    /// # Errors
    ///
    /// [`HvError::NoMem`] when the domain quota is exhausted or the
    /// kernel's single L1 table is full.
    pub fn alloc_heap_page(
        &mut self,
        hv: &mut Hypervisor,
    ) -> Result<(Pfn, Mfn, VirtAddr), HvError> {
        let (pfn, mfn) = hv.alloc_domain_frame(self.dom, PageType::Writable)?;
        if pfn.raw() >= 512 {
            return Err(HvError::NoMem);
        }
        let ptr = self.tables.l1.base().offset(pfn.raw() * 8).raw();
        hv.hc_mmu_update(
            self.dom,
            &[MmuUpdate::normal(ptr, PageTableEntry::new(mfn, LINK).raw())],
        )?;
        self.heap_next = self.heap_next.max(pfn.raw() + 1);
        Ok((pfn, mfn, Self::va_of_pfn_raw(pfn.raw())))
    }

    /// Reads kernel-virtual memory.
    ///
    /// # Errors
    ///
    /// Propagates translation faults.
    pub fn read(&self, hv: &mut Hypervisor, va: VirtAddr, buf: &mut [u8]) -> Result<(), HvError> {
        hv.guest_read_va(self.dom, va, buf)
    }

    /// Writes kernel-virtual memory.
    ///
    /// # Errors
    ///
    /// Propagates translation faults.
    pub fn write(&self, hv: &mut Hypervisor, va: VirtAddr, bytes: &[u8]) -> Result<(), HvError> {
        hv.guest_write_va(self.dom, va, bytes)
    }

    /// Appends a timestamped line to the kernel log.
    pub fn klog(&mut self, msg: impl Into<Cow<'static, str>>) {
        self.tick += 1;
        self.klog.push(LogLine { tick: self.tick, msg: msg.into() });
    }

    /// The kernel log, oldest first, each line rendered as
    /// `[  secs.frac] message`.
    pub fn log(&self) -> impl DoubleEndedIterator<Item = String> + '_ {
        self.klog.iter().map(LogLine::render)
    }

    /// `true` if any log line contains `needle`.
    pub fn log_contains(&self, needle: &str) -> bool {
        self.log().any(|l| l.contains(needle))
    }

    /// Spawns a process.
    pub fn spawn(&mut self, name: &str, uid: Uid, calls_vdso: bool) -> u32 {
        let pid = self.next_pid;
        self.next_pid += 1;
        Arc::make_mut(&mut self.processes).push(Process::new(pid, uid, name, calls_vdso));
        pid
    }

    /// The process table.
    pub fn processes(&self) -> &[Process] {
        &self.processes
    }

    /// The guest filesystem.
    pub fn vfs(&self) -> &Vfs {
        &self.vfs
    }

    /// Mutable access to the guest filesystem.
    pub fn vfs_mut(&mut self) -> &mut Vfs {
        &mut self.vfs
    }

    /// A copy of this kernel that shares no part with it.
    pub(crate) fn unshared(&self) -> Self {
        let mut k = self.clone();
        k.hostname = Arc::from(&*self.hostname);
        let copy = |p: &Process| Process { name: Arc::from(&*p.name), ..p.clone() };
        k.processes = Arc::new(self.processes.iter().map(copy).collect());
        k.vfs.unshare();
        k.klog.unshare();
        k
    }

    /// The reference counts of the parts [`unshared`](Self::unshared)
    /// copies, in that order.
    pub(crate) fn share_counts(&self, counts: &mut Vec<usize>) {
        counts.extend([Arc::strong_count(&self.hostname), Arc::strong_count(&self.processes)]);
        counts.extend(self.processes.iter().map(|p| Arc::strong_count(&p.name)));
        self.vfs.share_counts(counts);
        counts.push(self.klog.share_count());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvsim::{BuildConfig, XenVersion};

    fn boot_one() -> (Hypervisor, GuestKernel) {
        let mut hv = Hypervisor::new(BuildConfig::new(XenVersion::V4_8));
        let dom = hv.create_domain("testguest", false, 32).unwrap();
        let k = GuestKernel::boot(&mut hv, dom).unwrap();
        (hv, k)
    }

    #[test]
    fn boot_builds_working_address_space() {
        let (mut hv, k) = boot_one();
        let va = k.va_of_pfn(Pfn::new(8));
        k.write(&mut hv, va, b"kernel data").unwrap();
        let mut buf = [0u8; 11];
        k.read(&mut hv, va, &mut buf).unwrap();
        assert_eq!(&buf, b"kernel data");
        // Page tables got typed by the pin.
        assert_eq!(
            hv.mem().info(k.tables().l4).unwrap().page_type(),
            PageType::L4PageTable
        );
    }

    #[test]
    fn vdso_is_mapped_and_fingerprintable() {
        let (mut hv, k) = boot_one();
        let mut head = [0u8; 8];
        k.read(&mut hv, k.va_of_pfn(Pfn::new(PFN_VDSO)), &mut head).unwrap();
        assert_eq!(&head, vdso::VDSO_MAGIC);
        // And it is visible in raw machine memory at the vdso mfn.
        let mfn = k.vdso_mfn(&hv).unwrap();
        let mut raw = [0u8; 8];
        hv.mem().read(mfn.base(), &mut raw).unwrap();
        assert_eq!(&raw, vdso::VDSO_MAGIC);
    }

    #[test]
    fn heap_allocation_extends_mapping() {
        let (mut hv, mut k) = boot_one();
        let (pfn, _mfn, va) = k.alloc_heap_page(&mut hv).unwrap();
        assert!(pfn.raw() >= 6);
        k.write(&mut hv, va, b"heap").unwrap();
        let mut buf = [0u8; 4];
        k.read(&mut hv, va, &mut buf).unwrap();
        assert_eq!(&buf, b"heap");
    }

    #[test]
    fn start_info_mapped_at_pfn_zero() {
        let (mut hv, k) = boot_one();
        let mut magic = [0u8; 16];
        k.read(&mut hv, k.va_of_pfn(Pfn::new(0)), &mut magic).unwrap();
        assert_eq!(&magic, hvsim::START_INFO_MAGIC);
    }

    #[test]
    fn page_table_vas_not_mapped() {
        let (mut hv, k) = boot_one();
        let mut buf = [0u8; 1];
        // pfn 1..=4 are the tables and are deliberately unmapped.
        assert!(k.read(&mut hv, k.va_of_pfn(Pfn::new(2)), &mut buf).is_err());
    }

    #[test]
    fn klog_formats_timestamps() {
        let (_, mut k) = boot_one();
        k.klog("xen_exploit: start_dump ok");
        assert!(k.log_contains("xen_exploit: start_dump ok"));
        assert!(k.log().last().unwrap().starts_with('['));
    }

    #[test]
    fn spawn_assigns_pids() {
        let (_, mut k) = boot_one();
        let a = k.spawn("sshd", Uid::ROOT, false);
        let b = k.spawn("bash", Uid::new(1000), false);
        assert_ne!(a, b);
        assert_eq!(k.processes().len(), 3, "init plus two");
    }

    #[test]
    fn boot_requires_enough_pages() {
        let mut hv = Hypervisor::new(BuildConfig::new(XenVersion::V4_8));
        let dom = hv.create_domain("tiny", false, 4).unwrap();
        assert_eq!(GuestKernel::boot(&mut hv, dom).unwrap_err(), HvError::Inval);
    }
}
