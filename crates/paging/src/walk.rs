//! The 4-level software page walk.

use crate::{AccessKind, PageFault, PageFaultKind, PageTableEntry, PteFlags, VaIndices};
use hvsim_mem::{MachineMemory, Mfn, PhysAddr, VirtAddr};

/// Size class of a completed mapping.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MappingLevel {
    /// 4 KiB page mapped by an L1 entry.
    Page4K,
    /// 2 MiB superpage mapped by an L2 entry with `PSE`.
    Page2M,
    /// 1 GiB superpage mapped by an L3 entry with `PSE`.
    Page1G,
}

/// One visited page-table entry during a walk. The sequence of steps is the
/// "page-table walk audit" the paper uses to prove injected erroneous
/// states equal exploit-induced ones (§VI-C, §VII).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkStep {
    /// Paging level of the table (4 down to 1).
    pub level: u8,
    /// The frame holding the table.
    pub table: Mfn,
    /// Index of the entry within the table.
    pub index: usize,
    /// The entry's value.
    pub entry: PageTableEntry,
}

/// Policy knobs applied during translation, derived from the target
/// hypervisor version's hardening level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalkPolicy {
    /// Reject translations passing through a *writable self-referencing*
    /// page-table entry (Xen ≥ 4.9 hardening; defeats the XSA-182 abuse
    /// of an injected writable self-map).
    pub forbid_writable_selfmap: bool,
}

impl WalkStep {
    /// Fills the unvisited slots of a [`Translation`]'s step array.
    const UNVISITED: WalkStep = WalkStep {
        level: 0,
        table: Mfn::new(0),
        index: 0,
        entry: PageTableEntry::from_raw(0),
    };
}

/// A successful translation.
///
/// The visited entries sit inline (a walk visits at most four levels),
/// so a translation never touches the heap.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Translation {
    /// The translated virtual address.
    pub va: VirtAddr,
    /// Machine frame of the final mapping (base frame for superpages).
    pub mfn: Mfn,
    /// Final physical byte address.
    pub phys: PhysAddr,
    /// Size class of the mapping.
    pub level: MappingLevel,
    steps: [WalkStep; 4],
    depth: u8,
}

impl Translation {
    /// Every entry visited, top-down: four for a 4 KiB page, three for
    /// a 2 MiB superpage, two for a 1 GiB one.
    pub fn steps(&self) -> &[WalkStep] {
        &self.steps[..usize::from(self.depth)]
    }

    /// `true` if every visited level permits writes.
    pub fn writable(&self) -> bool {
        self.steps().iter().all(|s| s.entry.flags().contains(PteFlags::RW))
    }

    /// `true` if every visited level permits user-mode access.
    pub fn user_accessible(&self) -> bool {
        self.steps().iter().all(|s| s.entry.flags().contains(PteFlags::USER))
    }

    /// `true` if no visited level sets `NX`.
    pub fn executable(&self) -> bool {
        !self.steps().iter().any(|s| s.entry.flags().contains(PteFlags::NX))
    }

    /// Validates an access against the accumulated permissions.
    ///
    /// # Errors
    ///
    /// Returns the [`PageFault`] real hardware would raise: `NotWritable`
    /// for a write through a read-only level, `NotUser` for a user access
    /// through a supervisor level, `NoExecute` for a fetch through `NX`.
    pub fn check(&self, access: AccessKind, user_mode: bool) -> Result<(), PageFault> {
        if user_mode {
            if let Some(s) = self
                .steps()
                .iter()
                .find(|s| !s.entry.flags().contains(PteFlags::USER))
            {
                return Err(PageFault::new(
                    self.va,
                    access,
                    PageFaultKind::NotUser { level: s.level },
                ));
            }
        }
        match access {
            AccessKind::Read => Ok(()),
            AccessKind::Write => match self
                .steps()
                .iter()
                .find(|s| !s.entry.flags().contains(PteFlags::RW))
            {
                Some(s) => Err(PageFault::new(
                    self.va,
                    access,
                    PageFaultKind::NotWritable { level: s.level },
                )),
                None => Ok(()),
            },
            AccessKind::Execute => {
                if self.executable() {
                    Ok(())
                } else {
                    Err(PageFault::new(self.va, access, PageFaultKind::NoExecute))
                }
            }
        }
    }
}

fn read_entry(
    mem: &MachineMemory,
    table: Mfn,
    index: usize,
    level: u8,
    va: VirtAddr,
    access: AccessKind,
) -> Result<PageTableEntry, PageFault> {
    let slot = table.base().offset(index as u64 * 8);
    let raw = mem
        .read_u64(slot)
        .map_err(|_| PageFault::new(va, access, PageFaultKind::BadFrame { level }))?;
    Ok(PageTableEntry::from_raw(raw))
}

/// Translates `va` through the 4-level page tables rooted at `cr3`.
///
/// Performs no permission checks beyond structural validity; call
/// [`Translation::check`] for access checks. This mirrors hardware, where
/// the walk and the permission fault are distinct steps.
///
/// # Errors
///
/// Returns a [`PageFault`] if the address is non-canonical, an entry is
/// not present, a referenced frame is not installed, or (under a hardened
/// [`WalkPolicy`]) a writable self-referencing page-table entry is used.
pub fn walk(
    mem: &MachineMemory,
    cr3: Mfn,
    va: VirtAddr,
    policy: &WalkPolicy,
) -> Result<Translation, PageFault> {
    let access = AccessKind::Read; // faults during the structural walk report as reads
    if !va.is_canonical() {
        return Err(PageFault::new(va, access, PageFaultKind::NonCanonical));
    }
    let idx = VaIndices::of(va);
    let mut steps = [WalkStep::UNVISITED; 4];
    let mut table = cr3;

    for level in (1..=4u8).rev() {
        let index = idx.at_level(level);
        let entry = read_entry(mem, table, index, level, va, access)?;
        if !entry.is_present() {
            return Err(PageFault::new(va, access, PageFaultKind::NotPresent { level }));
        }
        if policy.forbid_writable_selfmap
            && entry.mfn() == table
            && entry.flags().contains(PteFlags::RW)
        {
            return Err(PageFault::new(
                va,
                access,
                PageFaultKind::HardenedSelfMap { level },
            ));
        }
        // Level 4 is the first step, level 1 the fourth.
        steps[usize::from(4 - level)] = WalkStep {
            level,
            table,
            index,
            entry,
        };
        let depth = 5 - level;
        let next = entry.mfn();
        let pse = entry.flags().contains(PteFlags::PSE);
        match (level, pse) {
            (3, true) => {
                let offset = ((idx.l2 as u64) << 21) | ((idx.l1 as u64) << 12) | idx.offset as u64;
                let phys = next.base().offset(offset);
                check_installed(mem, phys, va, level)?;
                return Ok(Translation {
                    va,
                    mfn: phys.frame(),
                    phys,
                    level: MappingLevel::Page1G,
                    steps,
                    depth,
                });
            }
            (2, true) => {
                let offset = ((idx.l1 as u64) << 12) | idx.offset as u64;
                let phys = next.base().offset(offset);
                check_installed(mem, phys, va, level)?;
                return Ok(Translation {
                    va,
                    mfn: phys.frame(),
                    phys,
                    level: MappingLevel::Page2M,
                    steps,
                    depth,
                });
            }
            (1, _) => {
                let phys = next.base().offset(idx.offset as u64);
                check_installed(mem, phys, va, level)?;
                return Ok(Translation {
                    va,
                    mfn: next,
                    phys,
                    level: MappingLevel::Page4K,
                    steps,
                    depth,
                });
            }
            _ => {
                if !mem.contains(next) {
                    return Err(PageFault::new(va, access, PageFaultKind::BadFrame { level }));
                }
                table = next;
            }
        }
    }
    unreachable!("4-level walk always terminates at level 1")
}

fn check_installed(
    mem: &MachineMemory,
    phys: PhysAddr,
    va: VirtAddr,
    level: u8,
) -> Result<(), PageFault> {
    if mem.contains(phys.frame()) {
        Ok(())
    } else {
        Err(PageFault::new(
            va,
            AccessKind::Read,
            PageFaultKind::BadFrame { level },
        ))
    }
}

/// Returns the physical slot address and current value of the page-table
/// entry that maps `va` at `level`, without requiring the leaf mapping to
/// exist below that level.
///
/// This is the audit primitive behind "a page-table walk to audit the same
/// erroneous state was performed" (paper §VI-C3): tests and monitors use
/// it to compare exploit-induced and injected page-table states.
///
/// # Errors
///
/// Returns a [`PageFault`] if the walk cannot reach `level`.
pub fn pte_slot(
    mem: &MachineMemory,
    cr3: Mfn,
    va: VirtAddr,
    level: u8,
) -> Result<(PhysAddr, PageTableEntry), PageFault> {
    assert!((1..=4).contains(&level), "paging level {level} out of range");
    if !va.is_canonical() {
        return Err(PageFault::new(va, AccessKind::Read, PageFaultKind::NonCanonical));
    }
    let idx = VaIndices::of(va);
    let mut table = cr3;
    for cur in (level..=4u8).rev() {
        let index = idx.at_level(cur);
        let slot = table.base().offset(index as u64 * 8);
        let entry = read_entry(mem, table, index, cur, va, AccessKind::Read)?;
        if cur == level {
            return Ok((slot, entry));
        }
        if !entry.is_present() {
            return Err(PageFault::new(
                va,
                AccessKind::Read,
                PageFaultKind::NotPresent { level: cur },
            ));
        }
        if !mem.contains(entry.mfn()) {
            return Err(PageFault::new(
                va,
                AccessKind::Read,
                PageFaultKind::BadFrame { level: cur },
            ));
        }
        table = entry.mfn();
    }
    unreachable!("loop returns at the requested level")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose_va;

    const LINK: PteFlags = PteFlags::PRESENT.union(PteFlags::RW).union(PteFlags::USER);

    struct Harness {
        mem: MachineMemory,
        cr3: Mfn,
        next_free: u64,
    }

    impl Harness {
        fn new() -> Self {
            Self {
                mem: MachineMemory::new(64),
                cr3: Mfn::new(1),
                next_free: 2,
            }
        }

        fn fresh(&mut self) -> Mfn {
            let mfn = Mfn::new(self.next_free);
            self.next_free += 1;
            mfn
        }

        fn write_entry(&mut self, table: Mfn, index: usize, entry: PageTableEntry) {
            self.mem
                .write_u64(table.base().offset(index as u64 * 8), entry.raw())
                .unwrap();
        }

        /// Builds the full chain for `va` -> `target` with per-level flags.
        fn map(&mut self, va: VirtAddr, target: Mfn, flags: [PteFlags; 4]) {
            let idx = VaIndices::of(va);
            let l3 = self.fresh();
            let l2 = self.fresh();
            let l1 = self.fresh();
            self.write_entry(self.cr3, idx.l4, PageTableEntry::new(l3, flags[3]));
            self.write_entry(l3, idx.l3, PageTableEntry::new(l2, flags[2]));
            self.write_entry(l2, idx.l2, PageTableEntry::new(l1, flags[1]));
            self.write_entry(l1, idx.l1, PageTableEntry::new(target, flags[0]));
        }
    }

    #[test]
    fn walk_4k_mapping() {
        let mut h = Harness::new();
        let va = VirtAddr::new(0x40_0000_1abc);
        h.map(va, Mfn::new(50), [LINK; 4]);
        let t = walk(&h.mem, h.cr3, va, &WalkPolicy::default()).unwrap();
        assert_eq!(t.mfn, Mfn::new(50));
        assert_eq!(t.phys, Mfn::new(50).base().offset(0xabc));
        assert_eq!(t.level, MappingLevel::Page4K);
        let levels: Vec<u8> = t.steps().iter().map(|s| s.level).collect();
        assert_eq!(levels, [4, 3, 2, 1], "top-down, one step per level");
        assert_eq!(t.steps()[0].table, h.cr3);
        assert_eq!(t.steps()[3].entry.mfn(), Mfn::new(50));
        assert!(t.writable());
        assert!(t.user_accessible());
        assert!(t.executable());
    }

    #[test]
    fn walk_rejects_non_canonical() {
        let h = Harness::new();
        let err = walk(
            &h.mem,
            h.cr3,
            VirtAddr::new(0x8000_0000_0000_0000),
            &WalkPolicy::default(),
        )
        .unwrap_err();
        assert_eq!(err.kind, PageFaultKind::NonCanonical);
    }

    #[test]
    fn walk_not_present_reports_level() {
        let mut h = Harness::new();
        let va = VirtAddr::new(0x1000);
        // Only the L4 entry exists.
        let l3 = h.fresh();
        h.write_entry(h.cr3, 0, PageTableEntry::new(l3, LINK));
        let err = walk(&h.mem, h.cr3, va, &WalkPolicy::default()).unwrap_err();
        assert_eq!(err.kind, PageFaultKind::NotPresent { level: 3 });
    }

    #[test]
    fn walk_2m_superpage() {
        let mut h = Harness::new();
        // Map a PSE entry at L2 index 3 of va 0x0060_xxxx.
        let va = VirtAddr::new((3 << 21) | 0x5123);
        let idx = VaIndices::of(va);
        let l3 = h.fresh();
        let l2 = h.fresh();
        h.write_entry(h.cr3, idx.l4, PageTableEntry::new(l3, LINK));
        h.write_entry(l3, idx.l3, PageTableEntry::new(l2, LINK));
        h.write_entry(l2, idx.l2, PageTableEntry::new(Mfn::new(32), LINK | PteFlags::PSE));
        let t = walk(&h.mem, h.cr3, va, &WalkPolicy::default()).unwrap();
        assert_eq!(t.level, MappingLevel::Page2M);
        assert_eq!(t.phys, Mfn::new(32).base().offset(((idx.l1 as u64) << 12) | 0x123));
        let levels: Vec<u8> = t.steps().iter().map(|s| s.level).collect();
        assert_eq!(levels, [4, 3, 2], "L4, L3 and the PSE L2 entry are visited");
    }

    #[test]
    fn walk_1g_superpage() {
        let mut h = Harness::new();
        let va = VirtAddr::new(0x4000_5123);
        let idx = VaIndices::of(va);
        let l3 = h.fresh();
        h.write_entry(h.cr3, idx.l4, PageTableEntry::new(l3, LINK));
        h.write_entry(l3, idx.l3, PageTableEntry::new(Mfn::new(0), LINK | PteFlags::PSE));
        let t = walk(&h.mem, h.cr3, va, &WalkPolicy::default()).unwrap();
        assert_eq!(t.level, MappingLevel::Page1G);
        assert_eq!(t.steps().len(), 2, "L4 and the PSE L3 entry are visited");
        // phys = l2 index << 21 | l1 << 12 | offset relative to frame 0.
        assert_eq!(t.phys.raw(), ((idx.l2 as u64) << 21) | ((idx.l1 as u64) << 12) | 0x123);
    }

    #[test]
    fn permission_checks_report_limiting_level() {
        let mut h = Harness::new();
        let va = VirtAddr::new(0x2000);
        let ro_l2 = [LINK, LINK.difference(PteFlags::RW), LINK, LINK];
        h.map(va, Mfn::new(40), ro_l2);
        let t = walk(&h.mem, h.cr3, va, &WalkPolicy::default()).unwrap();
        assert!(!t.writable());
        let err = t.check(AccessKind::Write, false).unwrap_err();
        assert_eq!(err.kind, PageFaultKind::NotWritable { level: 2 });
        assert!(t.check(AccessKind::Read, false).is_ok());
    }

    #[test]
    fn supervisor_only_mapping_faults_user_access() {
        let mut h = Harness::new();
        let va = VirtAddr::new(0x3000);
        let sup_l1 = [LINK.difference(PteFlags::USER), LINK, LINK, LINK];
        h.map(va, Mfn::new(41), sup_l1);
        let t = walk(&h.mem, h.cr3, va, &WalkPolicy::default()).unwrap();
        let err = t.check(AccessKind::Read, true).unwrap_err();
        assert_eq!(err.kind, PageFaultKind::NotUser { level: 1 });
        assert!(t.check(AccessKind::Read, false).is_ok());
    }

    #[test]
    fn nx_blocks_execute() {
        let mut h = Harness::new();
        let va = VirtAddr::new(0x4000);
        h.map(va, Mfn::new(42), [LINK | PteFlags::NX, LINK, LINK, LINK]);
        let t = walk(&h.mem, h.cr3, va, &WalkPolicy::default()).unwrap();
        assert_eq!(
            t.check(AccessKind::Execute, false).unwrap_err().kind,
            PageFaultKind::NoExecute
        );
    }

    #[test]
    fn hardened_policy_rejects_writable_selfmap() {
        let mut h = Harness::new();
        // L4 entry 42 points back at the L4 itself, writable: XSA-182's state.
        h.write_entry(h.cr3, 42, PageTableEntry::new(h.cr3, LINK));
        let va = compose_va(42, 42, 42, 42, 0);
        // Classic policy: the walk loops through the same frame and terminates.
        assert!(walk(&h.mem, h.cr3, va, &WalkPolicy::default()).is_ok());
        // Hardened policy: rejected at L4.
        let err = walk(
            &h.mem,
            h.cr3,
            va,
            &WalkPolicy {
                forbid_writable_selfmap: true,
            },
        )
        .unwrap_err();
        assert_eq!(err.kind, PageFaultKind::HardenedSelfMap { level: 4 });
    }

    #[test]
    fn hardened_policy_allows_readonly_selfmap() {
        let mut h = Harness::new();
        h.write_entry(h.cr3, 42, PageTableEntry::new(h.cr3, LINK.difference(PteFlags::RW)));
        let va = compose_va(42, 42, 42, 42, 0);
        assert!(walk(
            &h.mem,
            h.cr3,
            va,
            &WalkPolicy {
                forbid_writable_selfmap: true
            }
        )
        .is_ok());
    }

    #[test]
    fn bad_frame_in_entry_faults() {
        let mut h = Harness::new();
        let va = VirtAddr::new(0x5000);
        let idx = VaIndices::of(va);
        h.write_entry(h.cr3, idx.l4, PageTableEntry::new(Mfn::new(9999), LINK));
        let err = walk(&h.mem, h.cr3, va, &WalkPolicy::default()).unwrap_err();
        assert_eq!(err.kind, PageFaultKind::BadFrame { level: 4 });
    }

    #[test]
    fn pte_slot_returns_entry_location() {
        let mut h = Harness::new();
        let va = VirtAddr::new(0x40_0000_1abc);
        h.map(va, Mfn::new(50), [LINK; 4]);
        let idx = VaIndices::of(va);
        // L4 slot lives in the cr3 frame.
        let (slot4, e4) = pte_slot(&h.mem, h.cr3, va, 4).unwrap();
        assert_eq!(slot4, h.cr3.base().offset(idx.l4 as u64 * 8));
        assert!(e4.is_present());
        // L1 slot holds the final mapping.
        let (_, e1) = pte_slot(&h.mem, h.cr3, va, 1).unwrap();
        assert_eq!(e1.mfn(), Mfn::new(50));
    }

    #[test]
    fn pte_slot_fault_above_requested_level() {
        let h = Harness::new();
        let err = pte_slot(&h.mem, h.cr3, VirtAddr::new(0x1000), 1).unwrap_err();
        assert_eq!(err.kind, PageFaultKind::NotPresent { level: 4 });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pte_slot_rejects_level_zero() {
        let h = Harness::new();
        let _ = pte_slot(&h.mem, h.cr3, VirtAddr::new(0), 0);
    }
}
