//! Page-table validation: the MMU hypercall family.
//!
//! This module is the security heart of the simulator. Xen's PV memory
//! safety rests on one invariant: **a guest must never hold a writable
//! mapping of a page-table frame**. Every `mmu_update` /
//! `update_va_mapping` / pin operation funnels through the validation in
//! this file, and each of the reproduced vulnerabilities is a *specific
//! missing check* here:
//!
//! * **XSA-148** — the L2 PSE path accepts superpage entries without any
//!   frame-range or ownership validation,
//! * **XSA-182** — the L4 fast path accepts *any* flags-only change
//!   (including adding `RW` to a self-referencing entry) without
//!   re-validation.
//!
//! Fixed builds enforce the full rules; the difference is driven entirely
//! by [`VulnConfig`](crate::VulnConfig), never by exploit-specific code.

use crate::audit::{AuditEvent, WriteOrigin};
use crate::hypercall::{MmuExtOp, MmuUpdate};
use crate::hypervisor::Hypervisor;
use crate::HvError;
use hvsim_mem::{DomainId, Mfn, PageType, VirtAddr};
use hvsim_paging::{pte_slot, PageTableEntry, PteFlags, ENTRIES_PER_TABLE};
#[cfg(test)]
use hvsim_paging::VaIndices;
use std::collections::BTreeSet;

/// First L4 slot reserved for the hypervisor half of the address space.
pub(crate) const L4_HYPERVISOR_SLOT: usize = 256;

impl Hypervisor {
    /// `HYPERVISOR_mmu_update`: batched page-table updates, each
    /// validated per the simulated version's rules.
    ///
    /// # Errors
    ///
    /// Stops at the first rejected update with its error; prior updates
    /// remain applied (as in Xen).
    pub fn hc_mmu_update(&mut self, dom: DomainId, updates: &[MmuUpdate]) -> Result<u64, HvError> {
        self.enter(dom, "mmu_update", |hv| {
            for u in updates {
                if u.ptr & 0x3 != 0 {
                    // Only MMU_NORMAL_PT_UPDATE is modelled.
                    return Err(HvError::Inval);
                }
                let table = Mfn::new(u.ptr >> 12);
                let index = ((u.ptr & 0xfff) / 8) as usize;
                hv.validate_and_write_pte(dom, table, index, PageTableEntry::from_raw(u.val))?;
            }
            Ok(updates.len() as u64)
        })
    }

    /// `HYPERVISOR_update_va_mapping`: updates the L1 entry that maps
    /// `va` in the calling domain's current page tables.
    ///
    /// # Errors
    ///
    /// [`HvError::Inval`] without installed page tables;
    /// [`HvError::GuestFault`] if the walk to the L1 slot faults;
    /// validation errors as for [`Hypervisor::hc_mmu_update`].
    pub fn hc_update_va_mapping(
        &mut self,
        dom: DomainId,
        va: VirtAddr,
        val: u64,
    ) -> Result<u64, HvError> {
        self.enter(dom, "update_va_mapping", |hv| {
            let cr3 = hv.domain(dom)?.cr3().ok_or(HvError::Inval)?;
            let (slot, _) = pte_slot(&hv.mem, cr3, va, 1)?;
            let table = slot.frame();
            let index = slot.page_offset() / 8;
            hv.validate_and_write_pte(dom, table, index, PageTableEntry::from_raw(val))?;
            Ok(0)
        })
    }

    /// `HYPERVISOR_mmuext_op`: pin/unpin page tables and install a new
    /// top-level table.
    ///
    /// # Errors
    ///
    /// Per-operation validation errors; processing stops at the first
    /// failure.
    pub fn hc_mmuext_op(&mut self, dom: DomainId, ops: &[MmuExtOp]) -> Result<u64, HvError> {
        self.enter(dom, "mmuext_op", |hv| {
            let mut done = 0u64;
            for op in ops {
                match *op {
                    MmuExtOp::Pin { level, mfn } => hv.pin_table(dom, mfn, level)?,
                    MmuExtOp::Unpin { mfn } => hv.unpin_table(dom, mfn)?,
                    MmuExtOp::NewBaseptr { mfn } => hv.new_baseptr(dom, mfn)?,
                }
                done += 1;
            }
            Ok(done)
        })
    }

    fn reject(&mut self, dom: DomainId, check: &'static str, detail: String) -> HvError {
        self.audit.push(AuditEvent::ValidationRejected { dom, check, detail });
        HvError::Inval
    }

    /// Core of `mmu_update`: validate `new` for the slot `table[index]`
    /// and, if accepted, write it.
    pub(crate) fn validate_and_write_pte(
        &mut self,
        dom: DomainId,
        table: Mfn,
        index: usize,
        new: PageTableEntry,
    ) -> Result<(), HvError> {
        if index >= ENTRIES_PER_TABLE {
            return Err(HvError::Inval);
        }
        let info = self.mem.info(table)?.clone();
        let Some(level) = info.page_type().page_table_level() else {
            return Err(self.reject(
                dom,
                "pt_target",
                format!("frame {table} is {} (not a page table)", info.page_type()),
            ));
        };
        if info.owner() != Some(dom) {
            self.audit.push(AuditEvent::ValidationRejected {
                dom,
                check: "pt_owner",
                detail: format!("frame {table} not owned by {dom}"),
            });
            return Err(HvError::Perm);
        }
        if level == 4 && index >= L4_HYPERVISOR_SLOT {
            self.audit.push(AuditEvent::ValidationRejected {
                dom,
                check: "l4_hypervisor_slot",
                detail: format!("L4 slot {index} is hypervisor-reserved"),
            });
            return Err(HvError::Perm);
        }
        let slot = table.base().offset(index as u64 * 8);
        let old = PageTableEntry::from_raw(self.mem.read_u64(slot)?);

        let origin = self.validate_entry(dom, table, level, old, new)?;
        self.release_old_reference(table, level, old, new);
        self.mem.write_u64(slot, new.raw())?;
        self.audit.push(AuditEvent::PteWritten {
            dom,
            slot,
            old: old.raw(),
            new: new.raw(),
            origin,
        });
        Ok(())
    }

    /// Decides whether `new` may be installed over `old` in a level-
    /// `level` table. Returns how the write is classified for the audit
    /// log.
    fn validate_entry(
        &mut self,
        dom: DomainId,
        table: Mfn,
        level: u8,
        old: PageTableEntry,
        new: PageTableEntry,
    ) -> Result<WriteOrigin, HvError> {
        // Clearing an entry is always fine.
        if !new.is_present() {
            return Ok(WriteOrigin::Validated);
        }

        // --- L4 fast path (the XSA-182 surface) --------------------------
        // A flags-only change (same target frame) skips revalidation.
        if level == 4 && old.is_present() && old.mfn() == new.mfn() {
            if self.vulns.xsa182_l4_fastpath_unrestricted {
                // Vulnerable: *any* flag difference is waved through,
                // including RW on a self-referencing entry.
                return Ok(WriteOrigin::VulnerableFastPath);
            }
            let diff = PteFlags::from_bits_truncate(old.diff_bits(new));
            if PteFlags::FASTPATH_SAFE.contains(diff) {
                return Ok(WriteOrigin::Validated);
            }
            // Unsafe flag change: fall through to full validation.
        }

        // --- L2 PSE superpages (the XSA-148 surface) ----------------------
        if level == 2 && new.flags().contains(PteFlags::PSE) {
            if self.vulns.xsa148_l2_pse_unchecked {
                // Vulnerable: the superpage's target range is not
                // validated at all — a 2 MiB window over arbitrary
                // machine memory, page tables included.
                return Ok(WriteOrigin::VulnerableFastPath);
            }
            return Err(self.reject(
                dom,
                "l2_pse",
                format!("PSE superpage entry {new:#x} rejected for PV guest"),
            ));
        }

        let target = new.mfn();
        if !self.mem.contains(target) {
            return Err(self.reject(dom, "bad_target", format!("entry references bad frame {target}")));
        }

        // Self-referencing L4 entries: the legitimate read-only linear
        // self-map is allowed; a writable one is exactly the state the
        // PV invariant forbids.
        if level == 4 && target == table {
            if new.flags().contains(PteFlags::RW) {
                return Err(self.reject(
                    dom,
                    "l4_selfmap_rw",
                    "writable self-referencing L4 entry rejected".into(),
                ));
            }
            return Ok(WriteOrigin::Validated);
        }

        let tinfo = self.mem.info(target)?.clone();
        let owned = tinfo.owner() == Some(dom);
        let retained = self.domain(dom)?.retains_access(target);
        if !owned && !retained {
            self.audit.push(AuditEvent::ValidationRejected {
                dom,
                check: "foreign_frame",
                detail: format!("entry targets foreign frame {target}"),
            });
            return Err(HvError::Perm);
        }

        match level {
            1 => {
                // Data mapping: must not create a writable view of a
                // page-table (or descriptor) frame.
                if new.flags().contains(PteFlags::RW)
                    && (tinfo.page_type().is_page_table()
                        || tinfo.page_type() == PageType::SegDesc)
                {
                    return Err(self.reject(
                        dom,
                        "l1_rw_pagetable",
                        format!(
                            "writable L1 mapping of {}-typed frame {target} rejected",
                            tinfo.page_type()
                        ),
                    ));
                }
                if new.flags().contains(PteFlags::RW) {
                    // Take the PGT_writable_page type reference; this is
                    // what later blocks the frame from being promoted to
                    // a page table while the writable mapping lives.
                    self.mem
                        .info_mut(target)?
                        .get_type(PageType::Writable)
                        .map_err(|e| self.reject(dom, "type_conflict", e.to_string()))?;
                }
                Ok(WriteOrigin::Validated)
            }
            2..=4 => {
                // `level` is 2..=4 here, so `level - 1` is always a
                // page-table level; `Inval` is unreachable but keeps the
                // hot validation path panic-free.
                let wanted =
                    PageType::from_page_table_level(level - 1).ok_or(HvError::Inval)?;
                self.mem
                    .info_mut(target)?
                    .get_type(wanted)
                    .map_err(|e| self.reject(dom, "type_conflict", e.to_string()))?;
                Ok(WriteOrigin::Validated)
            }
            _ => Err(HvError::Inval),
        }
    }

    /// Drops the type reference the *old* entry held, mirroring Xen's
    /// `put_page_type` on PTE replacement. Best-effort: entries written
    /// through vulnerable paths may carry no reference to drop.
    fn release_old_reference(
        &mut self,
        table: Mfn,
        level: u8,
        old: PageTableEntry,
        new: PageTableEntry,
    ) {
        if !old.is_present() {
            return;
        }
        if level == 2 && old.flags().contains(PteFlags::PSE) {
            return; // PSE entries never took a reference
        }
        let target = old.mfn();
        if !self.mem.contains(target) || target == table {
            return; // bad frame or self-map: no reference held
        }
        if target == new.mfn() {
            // Flags-only change: only the L1 RW->RO transition drops the
            // writable reference (the RO->RW side took one above).
            if level == 1
                && old.flags().contains(PteFlags::RW)
                && !new.flags().contains(PteFlags::RW)
            {
                if let Ok(info) = self.mem.info_mut(target) {
                    let _ = info.put_type();
                }
            }
            return;
        }
        let held = match level {
            1 => old.flags().contains(PteFlags::RW),
            _ => true,
        };
        if held {
            if let Ok(info) = self.mem.info_mut(target) {
                let _ = info.put_type();
            }
        }
    }

    /// `MMUEXT_PIN_LnTABLE`: recursively validates a page-table tree and
    /// pins its root at the given level.
    fn pin_table(&mut self, dom: DomainId, mfn: Mfn, level: u8) -> Result<(), HvError> {
        if !(1..=4).contains(&level) {
            return Err(HvError::Inval);
        }
        let mut visited = BTreeSet::new();
        self.validate_table(dom, mfn, level, &mut visited)?;
        self.mem.info_mut(mfn)?.pin();
        Ok(())
    }

    fn unpin_table(&mut self, dom: DomainId, mfn: Mfn) -> Result<(), HvError> {
        let info = self.mem.info(mfn)?;
        if info.owner() != Some(dom) {
            return Err(HvError::Perm);
        }
        self.mem.info_mut(mfn)?.unpin();
        Ok(())
    }

    /// Recursive content validation for pinning (Xen's
    /// `alloc_lN_table` family, condensed).
    fn validate_table(
        &mut self,
        dom: DomainId,
        mfn: Mfn,
        level: u8,
        visited: &mut BTreeSet<Mfn>,
    ) -> Result<(), HvError> {
        if !visited.insert(mfn) {
            return Ok(());
        }
        let info = self.mem.info(mfn)?.clone();
        if info.owner() != Some(dom) {
            self.audit.push(AuditEvent::ValidationRejected {
                dom,
                check: "pin_owner",
                detail: format!("cannot pin foreign frame {mfn}"),
            });
            return Err(HvError::Perm);
        }
        let wanted = PageType::from_page_table_level(level).ok_or(HvError::Inval)?;
        self.mem
            .info_mut(mfn)?
            .get_type(wanted)
            .map_err(|e| self.reject(dom, "pin_type", e.to_string()))?;

        for index in 0..ENTRIES_PER_TABLE {
            let raw = self.mem.read_u64(mfn.base().offset(index as u64 * 8))?;
            let entry = PageTableEntry::from_raw(raw);
            if !entry.is_present() {
                continue;
            }
            if level == 4 && index >= L4_HYPERVISOR_SLOT {
                return Err(self.reject(
                    dom,
                    "pin_l4_hypervisor_slot",
                    format!("guest L4 populates hypervisor slot {index}"),
                ));
            }
            if level == 4 && entry.mfn() == mfn {
                if entry.flags().contains(PteFlags::RW) {
                    return Err(self.reject(
                        dom,
                        "l4_selfmap_rw",
                        "writable self-referencing L4 entry rejected at pin".into(),
                    ));
                }
                continue;
            }
            if level == 2 && entry.flags().contains(PteFlags::PSE) {
                if self.vulns.xsa148_l2_pse_unchecked {
                    continue;
                }
                return Err(self.reject(
                    dom,
                    "l2_pse",
                    format!("PSE entry at pin time rejected (index {index})"),
                ));
            }
            if level == 1 {
                let target = entry.mfn();
                if !self.mem.contains(target) {
                    return Err(self.reject(dom, "bad_target", format!("bad frame {target}")));
                }
                let tinfo = self.mem.info(target)?;
                if entry.flags().contains(PteFlags::RW) && tinfo.page_type().is_page_table() {
                    return Err(self.reject(
                        dom,
                        "l1_rw_pagetable",
                        format!("writable mapping of page-table frame {target} at pin"),
                    ));
                }
                if entry.flags().contains(PteFlags::RW) {
                    self.mem
                        .info_mut(target)?
                        .get_type(PageType::Writable)
                        .map_err(|e| self.reject(dom, "pin_type", e.to_string()))?;
                }
                continue;
            }
            self.validate_table(dom, entry.mfn(), level - 1, visited)?;
        }
        self.mem.info_mut(mfn)?.set_validated(true);
        Ok(())
    }

    /// `MMUEXT_NEW_BASEPTR`: installs a validated L4 as the domain's
    /// current page table and stitches the hypervisor half into it.
    fn new_baseptr(&mut self, dom: DomainId, mfn: Mfn) -> Result<(), HvError> {
        let info = self.mem.info(mfn)?.clone();
        if info.owner() != Some(dom) {
            return Err(HvError::Perm);
        }
        if info.page_type() != PageType::L4PageTable || !info.validated() {
            return Err(self.reject(
                dom,
                "baseptr_unvalidated",
                format!("frame {mfn} is not a validated L4 table"),
            ));
        }
        // Stitch the shared hypervisor L3 into slot 256. Pre-hardening
        // layouts map it RWX into the guest (the linear page-table
        // window); the hardened layout still links the structures but the
        // layout veto makes the window unreachable from guests.
        let entry = PageTableEntry::new(
            self.shared_l3_mfn(),
            PteFlags::PRESENT | PteFlags::RW | PteFlags::USER,
        );
        let slot = mfn.base().offset(L4_HYPERVISOR_SLOT as u64 * 8);
        let old = self.mem.read_u64(slot)?;
        self.mem.write_u64(slot, entry.raw())?;
        self.audit.push(AuditEvent::PteWritten {
            dom,
            slot,
            old,
            new: entry.raw(),
            origin: WriteOrigin::Validated,
        });
        self.domain_mut(dom)?.set_cr3(mfn);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BuildConfig, ExchangeArgs, Hypercall, IdtEntry, XenVersion};
    use hvsim_mem::{Pfn, VirtAddr};
    use hvsim_paging::{compose_va, selfmap_va, walk, AccessKind, PageFaultKind};

    const LINK: PteFlags = PteFlags::PRESENT.union(PteFlags::RW).union(PteFlags::USER);

    /// A guest with a minimal 4-level address space mapping
    /// `VA 0x0000_0000_0040_0000` (l4=0,l3=0,l2=2) onto one data frame.
    struct Guest {
        hv: Hypervisor,
        dom: DomainId,
        l4: Mfn,
        l3: Mfn,
        l2: Mfn,
        l1: Mfn,
        data: Mfn,
        data_va: VirtAddr,
    }

    fn boot(version: XenVersion, injector: bool) -> Guest {
        let mut hv = Hypervisor::new(BuildConfig::new(version).injector(injector));
        let dom = hv.create_domain("guest", false, 16).unwrap();
        // Use dedicated frames from the domain's allocation for tables.
        let (_, l4) = hv.alloc_domain_frame(dom, PageType::Writable).unwrap();
        let (_, l3) = hv.alloc_domain_frame(dom, PageType::Writable).unwrap();
        let (_, l2) = hv.alloc_domain_frame(dom, PageType::Writable).unwrap();
        let (_, l1) = hv.alloc_domain_frame(dom, PageType::Writable).unwrap();
        let (_, data) = hv.alloc_domain_frame(dom, PageType::Writable).unwrap();
        let data_va = VirtAddr::new(0x40_0000); // l4=0 l3=0 l2=2 l1=0
        let idx = VaIndices::of(data_va);
        // Build tables with direct writes while frames are untyped.
        let w = |hv: &mut Hypervisor, t: Mfn, i: usize, e: PageTableEntry| {
            hv.guest_write_frame(dom, t, i * 8, &e.raw().to_le_bytes()).unwrap();
        };
        w(&mut hv, l4, idx.l4, PageTableEntry::new(l3, LINK));
        w(&mut hv, l3, idx.l3, PageTableEntry::new(l2, LINK));
        w(&mut hv, l2, idx.l2, PageTableEntry::new(l1, LINK));
        w(&mut hv, l1, idx.l1, PageTableEntry::new(data, LINK));
        hv.hc_mmuext_op(dom, &[MmuExtOp::Pin { level: 4, mfn: l4 }]).unwrap();
        hv.hc_mmuext_op(dom, &[MmuExtOp::NewBaseptr { mfn: l4 }]).unwrap();
        Guest {
            hv,
            dom,
            l4,
            l3,
            l2,
            l1,
            data,
            data_va,
        }
    }

    #[test]
    fn boot_guest_and_access_memory() {
        let mut g = boot(XenVersion::V4_6, false);
        g.hv.guest_write_va(g.dom, g.data_va.offset(16), b"hello").unwrap();
        let mut buf = [0u8; 5];
        g.hv.guest_read_va(g.dom, g.data_va.offset(16), &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        // Page-table frames got typed by the pin.
        assert_eq!(g.hv.mem().info(g.l4).unwrap().page_type(), PageType::L4PageTable);
        assert_eq!(g.hv.mem().info(g.l1).unwrap().page_type(), PageType::L1PageTable);
    }

    #[test]
    fn direct_write_to_page_table_refused_after_pin() {
        let mut g = boot(XenVersion::V4_6, false);
        let err = g
            .hv
            .guest_write_frame(g.dom, g.l1, 0, &[0u8; 8])
            .unwrap_err();
        assert_eq!(err, HvError::Perm);
    }

    #[test]
    fn mmu_update_legitimate_remap() {
        let mut g = boot(XenVersion::V4_8, false);
        let (_, new_data) = g.hv.alloc_domain_frame(g.dom, PageType::Writable).unwrap();
        let idx = VaIndices::of(g.data_va);
        let ptr = g.l1.base().offset(idx.l1 as u64 * 8).raw();
        g.hv
            .hc_mmu_update(g.dom, &[MmuUpdate::normal(ptr, PageTableEntry::new(new_data, LINK).raw())])
            .unwrap();
        let t = g.hv.guest_translate(g.dom, g.data_va).unwrap();
        assert_eq!(t.mfn, new_data);
    }

    #[test]
    fn mmu_update_batch_matches_singleton_updates() {
        let mut g = boot(XenVersion::V4_8, false);
        let updates: Vec<MmuUpdate> = (64..128)
            .map(|i| {
                let ptr = g.l1.base().offset(i as u64 * 8).raw();
                MmuUpdate::normal(ptr, PageTableEntry::new(g.data, LINK).raw())
            })
            .collect();
        let pte_events = |g: &Guest| {
            g.hv
                .audit()
                .events()
                .filter(|e| matches!(e, AuditEvent::PteWritten { .. }))
                .count()
        };
        let events_before = pte_events(&g);
        assert_eq!(g.hv.hc_mmu_update(g.dom, &updates).unwrap(), 64);
        assert_eq!(pte_events(&g) - events_before, 64, "audit events stay per-entry");
        // The entry-at-a-time loop applies the identical updates, audits
        // them identically, and lands on identical memory.
        let mut s = boot(XenVersion::V4_8, false);
        assert_eq!((s.l1, s.data), (g.l1, g.data), "boot is deterministic");
        let events_before = pte_events(&s);
        for u in &updates {
            s.hv.hc_mmu_update(s.dom, std::slice::from_ref(u)).unwrap();
        }
        assert_eq!(pte_events(&s) - events_before, 64);
        let mut batch_l1 = [0u8; hvsim_mem::PAGE_SIZE];
        let mut single_l1 = [0u8; hvsim_mem::PAGE_SIZE];
        g.hv.mem().read_frame(g.l1, &mut batch_l1).unwrap();
        s.hv.mem().read_frame(s.l1, &mut single_l1).unwrap();
        assert_eq!(batch_l1[..], single_l1[..]);
    }

    #[test]
    fn mmu_update_batch_first_failure_matches_singleton_loop() {
        // Entry 3 of 6 attempts a writable mapping of the L1 table
        // itself — the core PV invariant violation, rejected by every
        // build. The batch must stop there with the same error the
        // singleton loop hits, leaving entries 0..3 applied.
        let make_updates = |g: &Guest| -> Vec<MmuUpdate> {
            (0..6u64)
                .map(|i| {
                    let ptr = g.l1.base().offset((100 + i) * 8).raw();
                    let target = if i == 3 { g.l1 } else { g.data };
                    MmuUpdate::normal(ptr, PageTableEntry::new(target, LINK).raw())
                })
                .collect()
        };
        let mut batch = boot(XenVersion::V4_8, false);
        let updates = make_updates(&batch);
        let batch_err = batch.hv.hc_mmu_update(batch.dom, &updates).unwrap_err();
        let rejected = |g: &Guest| {
            g.hv
                .audit()
                .events()
                .filter(|e| matches!(e, AuditEvent::ValidationRejected { .. }))
                .count()
        };
        assert_eq!(rejected(&batch), 1, "exactly the failing entry is audited as rejected");

        let mut single = boot(XenVersion::V4_8, false);
        let mut applied = 0u64;
        let mut single_err = None;
        for u in &updates {
            match single.hv.hc_mmu_update(single.dom, std::slice::from_ref(u)) {
                Ok(n) => applied += n,
                Err(e) => {
                    single_err = Some(e);
                    break;
                }
            }
        }
        assert_eq!(applied, 3, "updates before the failure stay applied");
        assert_eq!(batch_err, single_err.unwrap(), "identical first-failure error");
        // Identical resulting page-table bytes: prior updates applied,
        // the rejected entry and everything after it not.
        let mut batch_l1 = [0u8; hvsim_mem::PAGE_SIZE];
        let mut single_l1 = [0u8; hvsim_mem::PAGE_SIZE];
        batch.hv.mem().read_frame(batch.l1, &mut batch_l1).unwrap();
        single.hv.mem().read_frame(single.l1, &mut single_l1).unwrap();
        assert_eq!(batch_l1[..], single_l1[..]);
        // A misaligned pointer mid-batch also matches the singleton loop.
        let bad = MmuUpdate::normal(batch.l1.base().offset(106 * 8).raw() | 0x2, 0);
        let e1 = batch.hv.hc_mmu_update(batch.dom, &[bad]).unwrap_err();
        let e2 = single.hv.hc_mmu_update(single.dom, &[bad]).unwrap_err();
        assert_eq!(e1, HvError::Inval);
        assert_eq!(e1, e2);
    }

    #[test]
    fn mmu_update_rejects_writable_map_of_page_table() {
        let mut g = boot(XenVersion::V4_8, false);
        let idx = VaIndices::of(g.data_va);
        let ptr = g.l1.base().offset(idx.l1 as u64 * 8).raw();
        // Try to map the L2 frame writable at L1 — the PV invariant.
        let err = g
            .hv
            .hc_mmu_update(g.dom, &[MmuUpdate::normal(ptr, PageTableEntry::new(g.l2, LINK).raw())])
            .unwrap_err();
        assert_eq!(err, HvError::Inval);
        // Read-only is fine.
        g.hv
            .hc_mmu_update(
                g.dom,
                &[MmuUpdate::normal(
                    ptr,
                    PageTableEntry::new(g.l2, LINK.difference(PteFlags::RW)).raw(),
                )],
            )
            .unwrap();
    }

    #[test]
    fn mmu_update_rejects_foreign_frames() {
        let mut g = boot(XenVersion::V4_8, false);
        let dom2 = g.hv.create_domain("other", false, 4).unwrap();
        let other_frame = g.hv.domain(dom2).unwrap().p2m(Pfn::new(1)).unwrap();
        let idx = VaIndices::of(g.data_va);
        let ptr = g.l1.base().offset(idx.l1 as u64 * 8).raw();
        let err = g
            .hv
            .hc_mmu_update(g.dom, &[MmuUpdate::normal(ptr, PageTableEntry::new(other_frame, LINK).raw())])
            .unwrap_err();
        assert_eq!(err, HvError::Perm);
    }

    #[test]
    fn mmu_update_rejects_hypervisor_l4_slots() {
        let mut g = boot(XenVersion::V4_6, false);
        let ptr = g.l4.base().offset(300 * 8).raw();
        let err = g
            .hv
            .hc_mmu_update(g.dom, &[MmuUpdate::normal(ptr, PageTableEntry::new(g.l3, LINK).raw())])
            .unwrap_err();
        assert_eq!(err, HvError::Perm);
    }

    #[test]
    fn mmu_update_on_non_pagetable_frame_rejected() {
        let mut g = boot(XenVersion::V4_6, false);
        let err = g
            .hv
            .hc_mmu_update(g.dom, &[MmuUpdate::normal(g.data.base().raw(), 0)])
            .unwrap_err();
        assert_eq!(err, HvError::Inval);
    }

    // ------------------------------------------------------------------
    // XSA-148: L2 PSE superpages
    // ------------------------------------------------------------------

    #[test]
    fn xsa148_vulnerable_accepts_arbitrary_pse_superpage() {
        let mut g = boot(XenVersion::V4_6, false);
        let idx = VaIndices::of(g.data_va);
        // Point a PSE superpage at machine frame 0 (the hypervisor text!).
        let ptr = g.l2.base().offset(idx.l2 as u64 * 8).raw();
        let entry = PageTableEntry::new(Mfn::new(0), LINK | PteFlags::PSE);
        g.hv.hc_mmu_update(g.dom, &[MmuUpdate::normal(ptr, entry.raw())]).unwrap();
        // The guest can now read hypervisor memory through the window.
        let mut buf = [0u8; 8];
        g.hv.guest_read_va(g.dom, g.data_va, &mut buf).unwrap();
        assert_eq!(&buf, b"XEN-4.6 ");
    }

    #[test]
    fn xsa148_fixed_rejects_pse_superpage() {
        for version in [XenVersion::V4_8, XenVersion::V4_13] {
            let mut g = boot(version, false);
            let idx = VaIndices::of(g.data_va);
            let ptr = g.l2.base().offset(idx.l2 as u64 * 8).raw();
            let entry = PageTableEntry::new(Mfn::new(0), LINK | PteFlags::PSE);
            let err = g
                .hv
                .hc_mmu_update(g.dom, &[MmuUpdate::normal(ptr, entry.raw())])
                .unwrap_err();
            assert_eq!(err, HvError::Inval, "version {version} must reject PSE");
        }
    }

    // ------------------------------------------------------------------
    // XSA-182: L4 fast path
    // ------------------------------------------------------------------

    fn setup_ro_selfmap(g: &mut Guest, slot: usize) -> u64 {
        let ptr = g.l4.base().offset(slot as u64 * 8).raw();
        let ro = PageTableEntry::new(g.l4, LINK.difference(PteFlags::RW));
        g.hv.hc_mmu_update(g.dom, &[MmuUpdate::normal(ptr, ro.raw())]).unwrap();
        ptr
    }

    #[test]
    fn xsa182_vulnerable_fastpath_allows_rw_selfmap() {
        let mut g = boot(XenVersion::V4_6, false);
        let ptr = setup_ro_selfmap(&mut g, 42);
        let rw = PageTableEntry::new(g.l4, LINK);
        g.hv.hc_mmu_update(g.dom, &[MmuUpdate::normal(ptr, rw.raw())]).unwrap();
        // The guest can now write its own page tables through the self-map.
        let va = selfmap_va(42, 0);
        let t = walk(g.hv.mem(), g.l4, va, &g.hv.walk_policy()).unwrap();
        assert!(t.writable());
    }

    #[test]
    fn xsa182_fixed_rejects_rw_selfmap_via_fastpath() {
        for version in [XenVersion::V4_8, XenVersion::V4_13] {
            let mut g = boot(version, false);
            let ptr = setup_ro_selfmap(&mut g, 42);
            let rw = PageTableEntry::new(g.l4, LINK);
            let err = g
                .hv
                .hc_mmu_update(g.dom, &[MmuUpdate::normal(ptr, rw.raw())])
                .unwrap_err();
            assert_eq!(err, HvError::Inval, "version {version}");
        }
    }

    #[test]
    fn fixed_fastpath_still_allows_safe_flag_changes() {
        let mut g = boot(XenVersion::V4_13, false);
        let ptr = setup_ro_selfmap(&mut g, 42);
        let accessed = PageTableEntry::new(g.l4, LINK.difference(PteFlags::RW) | PteFlags::ACCESSED);
        g.hv.hc_mmu_update(g.dom, &[MmuUpdate::normal(ptr, accessed.raw())]).unwrap();
    }

    #[test]
    fn rw_selfmap_rejected_on_slow_path_everywhere() {
        // Even on the vulnerable version, *creating* an RW self-map from
        // scratch (not via the fast path) is rejected: XSA-182 is strictly
        // a fast-path bug.
        let mut g = boot(XenVersion::V4_6, false);
        let ptr = g.l4.base().offset(43 * 8).raw();
        let rw = PageTableEntry::new(g.l4, LINK);
        let err = g
            .hv
            .hc_mmu_update(g.dom, &[MmuUpdate::normal(ptr, rw.raw())])
            .unwrap_err();
        assert_eq!(err, HvError::Inval);
    }

    // ------------------------------------------------------------------
    // XSA-212: memory_exchange
    // ------------------------------------------------------------------

    #[test]
    fn memory_exchange_legitimate_use() {
        let mut g = boot(XenVersion::V4_8, false);
        // Use a guest buffer for the out handle.
        let out = g.data_va;
        let old = g.hv.domain(g.dom).unwrap().p2m(Pfn::new(6)).unwrap();
        let n = g
            .hv
            .hc_memory_exchange(g.dom, &ExchangeArgs::new(vec![6], out))
            .unwrap();
        assert_eq!(n, 1);
        let new = g.hv.domain(g.dom).unwrap().p2m(Pfn::new(6)).unwrap();
        assert_ne!(old, new);
        // The new MFN was reported through the handle.
        let mut buf = [0u8; 8];
        g.hv.guest_read_va(g.dom, out, &mut buf).unwrap();
        assert_eq!(u64::from_le_bytes(buf), new.raw());
    }

    #[test]
    fn xsa212_vulnerable_write_what_where() {
        let mut g = boot(XenVersion::V4_6, false);
        // Target: the page-fault IDT gate, located via sidt.
        let idt_va = g.hv.sidt(0).offset(IdtEntry::slot_offset(crate::PAGE_FAULT_VECTOR) as u64);
        let args = ExchangeArgs::write_what_where(idt_va, 0xdead_beef_dead_beef, 4);
        let err = g.hv.hc_memory_exchange(g.dom, &args).unwrap_err();
        assert_eq!(err, HvError::Fault, "the call errors but the write landed");
        let gate = g.hv.idt_entry(0, crate::PAGE_FAULT_VECTOR).unwrap();
        assert!(!g.hv.is_valid_handler(gate.offset), "gate corrupted");
    }

    #[test]
    fn xsa212_fixed_returns_efault_without_write() {
        for version in [XenVersion::V4_8, XenVersion::V4_13] {
            let mut g = boot(version, false);
            let idt_va = g.hv.sidt(0).offset(IdtEntry::slot_offset(crate::PAGE_FAULT_VECTOR) as u64);
            let args = ExchangeArgs::write_what_where(idt_va, 0xdead_beef, 4);
            let err = g.hv.hc_memory_exchange(g.dom, &args).unwrap_err();
            assert!(err.is_fault());
            let gate = g.hv.idt_entry(0, crate::PAGE_FAULT_VECTOR).unwrap();
            assert!(g.hv.is_valid_handler(gate.offset), "gate intact on {version}");
        }
    }

    #[test]
    fn corrupted_pf_gate_escalates_to_double_fault_crash() {
        let mut g = boot(XenVersion::V4_6, false);
        let idt_va = g.hv.sidt(0).offset(IdtEntry::slot_offset(crate::PAGE_FAULT_VECTOR) as u64);
        let args = ExchangeArgs::write_what_where(idt_va, 0x4141_4141_4141_4141, 0);
        let _ = g.hv.hc_memory_exchange(g.dom, &args);
        // Any faulting access now kills the hypervisor.
        let mut buf = [0u8; 1];
        let err = g.hv.guest_read_va(g.dom, VirtAddr::new(0x7f00_0000_0000), &mut buf).unwrap_err();
        assert!(matches!(err, HvError::GuestFault(_)));
        assert!(g.hv.is_crashed());
        assert!(g.hv.console().any(|l| l.contains("DOUBLE FAULT")));
        assert!(g.hv.domain(g.dom).unwrap().is_dead());
        // Further hypercalls are refused.
        assert_eq!(g.hv.hc_console_io(g.dom, "hi").unwrap_err(), HvError::Crashed);
    }

    // ------------------------------------------------------------------
    // Injector hypercall
    // ------------------------------------------------------------------

    #[test]
    fn injector_absent_on_stock_builds() {
        let mut g = boot(XenVersion::V4_6, false);
        let mut data = vec![0u8; 8];
        let err = g
            .hv
            .hc_arbitrary_access(g.dom, g.hv.sidt(0).raw(), &mut data, crate::AccessMode::LinearRead)
            .unwrap_err();
        assert_eq!(err, HvError::NoSys);
    }

    #[test]
    fn injector_linear_write_bypasses_all_checks() {
        for version in XenVersion::ALL {
            let mut g = boot(version, true);
            let idt_va = g.hv.sidt(0).offset(IdtEntry::slot_offset(crate::PAGE_FAULT_VECTOR) as u64);
            let mut data = 0x4141_4141_4141_4141u64.to_le_bytes().to_vec();
            g.hv
                .hc_arbitrary_access(g.dom, idt_va.raw(), &mut data, crate::AccessMode::LinearWrite)
                .unwrap();
            let gate = g.hv.idt_entry(0, crate::PAGE_FAULT_VECTOR).unwrap();
            assert!(!g.hv.is_valid_handler(gate.offset), "gate corrupted on {version}");
        }
    }

    #[test]
    fn injector_physical_roundtrip() {
        let mut g = boot(XenVersion::V4_13, true);
        let phys = g.data.base().offset(64).raw();
        let mut wbuf = b"injected".to_vec();
        g.hv.hc_arbitrary_access(g.dom, phys, &mut wbuf, crate::AccessMode::PhysWrite).unwrap();
        let mut rbuf = vec![0u8; 8];
        g.hv.hc_arbitrary_access(g.dom, phys, &mut rbuf, crate::AccessMode::PhysRead).unwrap();
        assert_eq!(rbuf, b"injected");
    }

    #[test]
    fn injector_resolves_guest_half_linear_addresses() {
        let mut g = boot(XenVersion::V4_6, true);
        g.hv.guest_write_va(g.dom, g.data_va, b"guestpage").unwrap();
        let mut buf = vec![0u8; 9];
        g.hv
            .hc_arbitrary_access(g.dom, g.data_va.raw(), &mut buf, crate::AccessMode::LinearRead)
            .unwrap();
        assert_eq!(buf, b"guestpage");
    }

    // ------------------------------------------------------------------
    // Keep-page-reference family
    // ------------------------------------------------------------------

    #[test]
    fn xsa393_vulnerable_decrease_reservation_keeps_access() {
        let mut g = boot(XenVersion::V4_6, false);
        let mfn = g.hv.domain(g.dom).unwrap().p2m(Pfn::new(7)).unwrap();
        g.hv.hc_decrease_reservation(g.dom, &[Pfn::new(7)], true).unwrap();
        assert!(g.hv.domain(g.dom).unwrap().retains_access(mfn));
        // The frame can be re-allocated to a victim...
        let victim = g.hv.create_domain("victim", false, 4).unwrap();
        let mut granted = g
            .hv
            .domain(victim)
            .unwrap()
            .p2m_iter()
            .map(|(_, m)| m)
            .find(|&m| m == mfn);
        for _ in 0..8 {
            if granted.is_some() {
                break;
            }
            let (_, m) = g.hv.alloc_domain_frame(victim, PageType::Writable).unwrap();
            if m == mfn {
                granted = Some(m);
            }
        }
        let reused = granted.expect("freed frame is reused");
        // ...and the attacker still reads/writes it.
        g.hv.guest_write_frame(g.dom, reused, 0, b"leak").unwrap();
        let mut buf = [0u8; 4];
        g.hv.guest_read_frame(victim, reused, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"leak");
    }

    #[test]
    fn xsa393_fixed_decrease_reservation_drops_access() {
        let mut g = boot(XenVersion::V4_8, false);
        let mfn = g.hv.domain(g.dom).unwrap().p2m(Pfn::new(7)).unwrap();
        g.hv.hc_decrease_reservation(g.dom, &[Pfn::new(7)], true).unwrap();
        assert!(!g.hv.domain(g.dom).unwrap().retains_access(mfn));
        let mut buf = [0u8; 1];
        assert_eq!(
            g.hv.guest_read_frame(g.dom, mfn, 0, &mut buf).unwrap_err(),
            HvError::Perm
        );
    }

    #[test]
    fn xsa387_vulnerable_gnttab_version_switch_leaks_status_page() {
        let mut g = boot(XenVersion::V4_6, false);
        g.hv.hc_grant_table_set_version(g.dom, crate::GrantTableVersion::V2).unwrap();
        let status = g.hv.domain(g.dom).unwrap().grant_table().status_frames()[0];
        g.hv.hc_grant_table_set_version(g.dom, crate::GrantTableVersion::V1).unwrap();
        assert!(
            g.hv.domain(g.dom).unwrap().retains_access(status),
            "guest keeps the Xen status page after the switch"
        );
    }

    #[test]
    fn xsa387_fixed_gnttab_version_switch_releases_status_page() {
        let mut g = boot(XenVersion::V4_8, false);
        g.hv.hc_grant_table_set_version(g.dom, crate::GrantTableVersion::V2).unwrap();
        let status = g.hv.domain(g.dom).unwrap().grant_table().status_frames()[0];
        g.hv.hc_grant_table_set_version(g.dom, crate::GrantTableVersion::V1).unwrap();
        assert!(!g.hv.domain(g.dom).unwrap().retains_access(status));
    }

    #[test]
    fn grant_map_gives_crossdomain_access() {
        let mut g = boot(XenVersion::V4_8, false);
        let dom2 = g.hv.create_domain("peer", false, 4).unwrap();
        let gref = g.hv.hc_grant_access(g.dom, dom2, g.data, true).unwrap();
        let mapped = g.hv.hc_grant_map(dom2, g.dom, gref as usize).unwrap();
        assert_eq!(mapped, g.data);
        g.hv.guest_write_frame(dom2, g.data, 0, b"shared").unwrap();
        let mut buf = [0u8; 6];
        g.hv.guest_read_frame(g.dom, g.data, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"shared");
        // A third domain has no access.
        let dom3 = g.hv.create_domain("third", false, 4).unwrap();
        assert_eq!(
            g.hv.guest_write_frame(dom3, g.data, 0, b"x").unwrap_err(),
            HvError::Perm
        );
    }

    // ------------------------------------------------------------------
    // Layout / hardening behaviour through the hypervisor API
    // ------------------------------------------------------------------

    #[test]
    fn hardened_walk_policy_defeats_injected_rw_selfmap() {
        // Inject the XSA-182 erroneous state (RW self-map) on all three
        // versions via the injector and observe who handles it.
        for (version, expect_violation) in [
            (XenVersion::V4_6, true),
            (XenVersion::V4_8, true),
            (XenVersion::V4_13, false),
        ] {
            let mut g = boot(version, true);
            setup_ro_selfmap(&mut g, 42);
            // Inject the RW bit directly into the L4 slot (physical mode).
            let slot_phys = g.l4.base().offset(42 * 8).raw();
            let mut cur = vec![0u8; 8];
            g.hv.hc_arbitrary_access(g.dom, slot_phys, &mut cur, crate::AccessMode::PhysRead).unwrap();
            let mut entry = PageTableEntry::from_raw(u64::from_le_bytes(cur.clone().try_into().unwrap()));
            entry = entry.with_flags(PteFlags::RW);
            let mut new = entry.raw().to_le_bytes().to_vec();
            g.hv.hc_arbitrary_access(g.dom, slot_phys, &mut new, crate::AccessMode::PhysWrite).unwrap();
            // Erroneous state present on every version:
            let (_, e) = pte_slot(g.hv.mem(), g.l4, selfmap_va(42, 0), 4).unwrap();
            assert!(e.flags().contains(PteFlags::RW), "state injected on {version}");
            // Abusing it only works pre-hardening:
            let va = selfmap_va(42, 8 * 42);
            let result = g.hv.guest_write_va(g.dom, va, &0u64.to_le_bytes());
            if expect_violation {
                assert!(result.is_ok(), "write through self-map on {version}");
            } else {
                let err = result.unwrap_err();
                match err {
                    HvError::GuestFault(pf) => {
                        assert_eq!(pf.kind, PageFaultKind::HardenedSelfMap { level: 4 })
                    }
                    other => panic!("unexpected error {other:?}"),
                }
            }
        }
    }

    #[test]
    fn linear_pt_window_reachable_only_pre_hardening() {
        // Map a data frame at the linear-PT window VA by linking through
        // the shared hypervisor L3 (what XSA-212-priv does with its
        // write primitive), then check guest reachability per version.
        for (version, reachable) in [(XenVersion::V4_8, true), (XenVersion::V4_13, false)] {
            let mut g = boot(version, true);
            let (_, pmd) = g.hv.alloc_domain_frame(g.dom, PageType::Writable).unwrap();
            let (_, pt) = g.hv.alloc_domain_frame(g.dom, PageType::Writable).unwrap();
            let (_, payload) = g.hv.alloc_domain_frame(g.dom, PageType::Writable).unwrap();
            let va = VirtAddr::new(hvsim_paging::LINEAR_PT_START);
            let idx = VaIndices::of(va);
            // Forge PMD and PT contents in guest frames (plain data writes).
            g.hv.guest_write_frame(g.dom, pt, idx.l1 * 8, &PageTableEntry::new(payload, LINK).raw().to_le_bytes()).unwrap();
            g.hv.guest_write_frame(g.dom, pmd, idx.l2 * 8, &PageTableEntry::new(pt, LINK).raw().to_le_bytes()).unwrap();
            // Link the PMD into the shared L3 via the injector (the
            // "crafted PUD entry written" step).
            let l3_slot = g.hv.shared_l3_mfn().base().offset(idx.l3 as u64 * 8).raw();
            let mut e = PageTableEntry::new(pmd, LINK).raw().to_le_bytes().to_vec();
            g.hv.hc_arbitrary_access(g.dom, l3_slot, &mut e, crate::AccessMode::PhysWrite).unwrap();
            // Payload content.
            g.hv.guest_write_frame(g.dom, payload, 0, b"PAYLOAD!").unwrap();

            let mut buf = [0u8; 8];
            let res = g.hv.guest_read_va(g.dom, va, &mut buf);
            if reachable {
                res.unwrap();
                assert_eq!(&buf, b"PAYLOAD!");
                // And it is executable (the window is RWX pre-hardening).
                assert!(g.hv.guest_exec_va(g.dom, va).is_ok());
            } else {
                assert!(res.is_err(), "hardened layout must refuse the window");
                assert!(g.hv.guest_exec_va(g.dom, va).is_err());
            }
        }
    }

    /// The typed `hc_*` call that `dispatch` must be equivalent to.
    fn typed(hv: &mut Hypervisor, dom: DomainId, call: &mut Hypercall) -> Result<u64, HvError> {
        match call {
            Hypercall::MmuUpdate(updates) => hv.hc_mmu_update(dom, updates),
            Hypercall::MmuExtOp(ops) => hv.hc_mmuext_op(dom, ops),
            Hypercall::UpdateVaMapping { va, val } => hv.hc_update_va_mapping(dom, *va, *val),
            Hypercall::MemoryExchange(args) => hv.hc_memory_exchange(dom, args),
            Hypercall::DecreaseReservation { pfns, after_cache_maintenance } => {
                hv.hc_decrease_reservation(dom, pfns, *after_cache_maintenance)
            }
            Hypercall::GrantTableSetVersion(v) => hv.hc_grant_table_set_version(dom, *v),
            Hypercall::SetTrapTable(entries) => hv.hc_set_trap_table(dom, entries),
            Hypercall::ConsoleIo(line) => hv.hc_console_io(dom, line),
            Hypercall::ArbitraryAccess { addr, data, mode } => {
                hv.hc_arbitrary_access(dom, *addr, data, *mode)
            }
            Hypercall::GrantAccess { grantee, mfn, writable } => {
                hv.hc_grant_access(dom, *grantee, *mfn, *writable)
            }
            Hypercall::GrantMap { granter, gref } => {
                hv.hc_grant_map(dom, *granter, *gref).map(Mfn::raw)
            }
            Hypercall::EventChannelOp(op) => hv.hc_event_channel_op(dom, *op),
            Hypercall::Domctl { target, op } => hv.hc_domctl(dom, *target, *op),
        }
    }

    /// Every [`Hypercall`] variant, on a success and a failure path: the
    /// call is counted once and audited once with its name and errno, and
    /// its result and the hypervisor state equal the typed call's.
    #[test]
    fn dispatch_audits_and_counts() {
        use crate::{AccessMode, DomctlOp, EventChannelOp, GrantTableVersion};
        let mut g = boot(XenVersion::V4_8, true);
        let guest = g.dom;
        let dom0 = g.hv.create_domain("dom0", true, 16).unwrap();
        let nobody = DomainId::new(99);
        let (_, fresh) = g.hv.alloc_domain_frame(guest, PageType::Writable).unwrap();
        let dom0_frame = g.hv.domain(dom0).unwrap().p2m(Pfn::new(1)).unwrap();
        let gref = g.hv.hc_grant_access(dom0, guest, dom0_frame, false).unwrap() as usize;
        let unbound = EventChannelOp::AllocUnbound { remote: guest };
        let unbound_port = g.hv.hc_event_channel_op(dom0, unbound).unwrap() as u16;
        let l1_slot = g.l1.base().offset(VaIndices::of(g.data_va).l1 as u64 * 8).raw();
        let remap = PageTableEntry::new(fresh, LINK).raw();
        let unmapped = VirtAddr::new(0x7f00_dead_0000);
        let decrease = Hypercall::DecreaseReservation {
            pfns: vec![Pfn::new(10)],
            after_cache_maintenance: false,
        };
        let access = |addr, mode| Hypercall::ArbitraryAccess { addr, data: vec![0; 8], mode };
        let grant = |mfn| Hypercall::GrantAccess { grantee: dom0, mfn, writable: true };
        let evtchn = Hypercall::EventChannelOp;
        let base = g.hv;

        use HvError::*;
        let cases: Vec<(DomainId, Hypercall, Result<u64, HvError>)> = vec![
            (guest, Hypercall::MmuUpdate(vec![MmuUpdate::normal(l1_slot, remap)]), Ok(1)),
            (guest, Hypercall::MmuUpdate(vec![MmuUpdate::normal(l1_slot | 1, remap)]), Err(Inval)),
            (guest, Hypercall::MmuExtOp(vec![MmuExtOp::Pin { level: 1, mfn: fresh }]), Ok(1)),
            (guest, Hypercall::MmuExtOp(vec![MmuExtOp::Pin { level: 5, mfn: fresh }]), Err(Inval)),
            (guest, Hypercall::UpdateVaMapping { va: g.data_va, val: remap }, Ok(0)),
            (
                guest,
                Hypercall::UpdateVaMapping { va: unmapped, val: remap },
                Err(GuestFault(hvsim_paging::PageFault::new(
                    unmapped,
                    AccessKind::Read,
                    PageFaultKind::NotPresent { level: 4 },
                ))),
            ),
            (guest, Hypercall::MemoryExchange(ExchangeArgs::new(vec![10], g.data_va)), Ok(1)),
            (guest, Hypercall::MemoryExchange(ExchangeArgs::new(vec![999], g.data_va)), Err(Fault)),
            (guest, decrease.clone(), Ok(1)),
            (nobody, decrease, Err(NoDomain)),
            (guest, Hypercall::GrantTableSetVersion(GrantTableVersion::V2), Ok(0)),
            (nobody, Hypercall::GrantTableSetVersion(GrantTableVersion::V2), Err(NoDomain)),
            (guest, Hypercall::SetTrapTable(vec![(14, g.data_va)]), Ok(0)),
            (nobody, Hypercall::SetTrapTable(vec![(14, g.data_va)]), Err(NoDomain)),
            (guest, Hypercall::ConsoleIo("ping".into()), Ok(0)),
            (nobody, Hypercall::ConsoleIo("ping".into()), Err(NoDomain)),
            (guest, access(0, AccessMode::PhysRead), Ok(8)),
            (guest, access(unmapped.raw(), AccessMode::LinearRead), Err(Fault)),
            (guest, grant(g.data), Ok(0)),
            (guest, grant(Mfn::new(0)), Err(Perm)),
            (guest, Hypercall::GrantMap { granter: dom0, gref }, Ok(dom0_frame.raw())),
            (guest, Hypercall::GrantMap { granter: dom0, gref: 999 }, Err(Inval)),
            (guest, evtchn(EventChannelOp::AllocUnbound { remote: dom0 }), Ok(1)),
            (
                guest,
                evtchn(EventChannelOp::BindInterdomain {
                    remote: dom0,
                    remote_port: unbound_port,
                }),
                Ok(1),
            ),
            (
                guest,
                evtchn(EventChannelOp::BindInterdomain {
                    remote: dom0,
                    remote_port: unbound_port + 1,
                }),
                Err(Inval),
            ),
            (guest, Hypercall::Domctl { target: guest, op: DomctlOp::Pause }, Ok(0)),
            (dom0, Hypercall::Domctl { target: guest, op: DomctlOp::Destroy }, Ok(0)),
            (dom0, Hypercall::Domctl { target: dom0, op: DomctlOp::Destroy }, Err(Inval)),
            (guest, Hypercall::Domctl { target: dom0, op: DomctlOp::Pause }, Err(Perm)),
        ];

        let mut covered = BTreeSet::new();
        for (caller, call, expected) in cases {
            let (mut routed, mut direct) = (base.clone(), base.clone());
            let (mut routed_call, mut direct_call) = (call.clone(), call);
            let result = routed.dispatch(caller, &mut routed_call);
            let audited: Vec<_> = routed.audit().events().skip(base.audit().events().len())
                .filter(|e| matches!(e, AuditEvent::Hypercall { .. }))
                .collect();
            // The call's name is the one its single audit event records.
            let name = match audited[..] {
                [&AuditEvent::Hypercall { name, .. }] => name,
                _ => panic!("{routed_call:?} from {caller} is audited once: {audited:?}"),
            };
            covered.insert(name);
            assert_eq!(result, expected, "{name} from {caller}");
            assert_eq!(result, typed(&mut direct, caller, &mut direct_call), "{name}");
            assert_eq!(routed_call, direct_call, "{name}: in/out arguments");
            assert_eq!(format!("{routed:?}"), format!("{direct:?}"), "{name}: state");

            match (&routed_call, &result) {
                (Hypercall::ConsoleIo(line), Ok(_)) => {
                    assert_eq!(routed.console().last(), Some(format!("[{caller}] {line}").as_str()));
                }
                (Hypercall::Domctl { .. }, Err(Perm)) => {
                    assert!(routed.audit().events().any(|e| matches!(
                        e,
                        AuditEvent::ValidationRejected { check: "domctl_privilege", .. }
                    )));
                }
                _ => {}
            }
            assert_eq!(routed.hypercall_count(), base.hypercall_count() + 1, "{name}");
            let errno = result.map_or_else(|e| e.errno(), |v| v as i64);
            assert_eq!(
                audited,
                [&AuditEvent::Hypercall { dom: caller, name, result: errno }],
                "{name} from {caller}"
            );
        }
        assert_eq!(covered.len(), 13, "every Hypercall variant is exercised: {covered:?}");
    }

    #[test]
    fn update_va_mapping_flows_through_validation() {
        let mut g = boot(XenVersion::V4_8, false);
        let (_, fresh) = g.hv.alloc_domain_frame(g.dom, PageType::Writable).unwrap();
        g.hv
            .hc_update_va_mapping(g.dom, g.data_va, PageTableEntry::new(fresh, LINK).raw())
            .unwrap();
        assert_eq!(g.hv.guest_translate(g.dom, g.data_va).unwrap().mfn, fresh);
        // And it rejects the PV invariant violation too.
        let err = g
            .hv
            .hc_update_va_mapping(g.dom, g.data_va, PageTableEntry::new(g.l4, LINK).raw())
            .unwrap_err();
        assert_eq!(err, HvError::Inval);
    }

    #[test]
    fn pin_rejects_bad_trees() {
        let mut g = boot(XenVersion::V4_8, false);
        let (_, bad_l4) = g.hv.alloc_domain_frame(g.dom, PageType::Writable).unwrap();
        // Entry 0 points at a foreign frame (the hypervisor text).
        g.hv.guest_write_frame(g.dom, bad_l4, 0, &PageTableEntry::new(Mfn::new(0), LINK).raw().to_le_bytes()).unwrap();
        let err = g
            .hv
            .hc_mmuext_op(g.dom, &[MmuExtOp::Pin { level: 4, mfn: bad_l4 }])
            .unwrap_err();
        assert_eq!(err, HvError::Perm);
    }

    #[test]
    fn new_baseptr_requires_validated_l4() {
        let mut g = boot(XenVersion::V4_8, false);
        let (_, raw) = g.hv.alloc_domain_frame(g.dom, PageType::Writable).unwrap();
        let err = g
            .hv
            .hc_mmuext_op(g.dom, &[MmuExtOp::NewBaseptr { mfn: raw }])
            .unwrap_err();
        assert_eq!(err, HvError::Inval);
    }

    #[test]
    fn software_interrupt_reads_gate() {
        let mut g = boot(XenVersion::V4_6, true);
        // Forge a gate for vector 0x80 pointing at an arbitrary VA.
        let handler = VirtAddr::new(0xffff_8040_0000_0000);
        let gate = IdtEntry {
            offset: handler,
            selector: IdtEntry::XEN_CS,
            dpl: 3,
            present: true,
        };
        let gate_addr = g.hv.sidt(0).offset(IdtEntry::slot_offset(0x80) as u64);
        let mut bytes = gate.pack().to_vec();
        g.hv.hc_arbitrary_access(g.dom, gate_addr.raw(), &mut bytes, crate::AccessMode::LinearWrite).unwrap();
        let dispatch = g.hv.software_interrupt(g.dom, 0x80).unwrap();
        assert_eq!(dispatch.handler, handler);
        // Unregistered vectors are rejected.
        assert_eq!(g.hv.software_interrupt(g.dom, 0x81).unwrap_err(), HvError::Inval);
    }

    #[test]
    fn start_info_fingerprint_scannable() {
        let g = boot(XenVersion::V4_6, false);
        let d = g.hv.domain(g.dom).unwrap();
        let si = d.read_start_info(g.hv.mem()).unwrap().unwrap();
        assert_eq!(si.domid, g.dom);
        assert_eq!(si.name, "guest");
        assert!(!si.is_privileged());
    }

    #[test]
    fn compose_va_helper_consistency() {
        // Guard the relationship the exploits rely on between compose_va
        // and the walker's index extraction.
        let va = compose_va(0, 0, 2, 0, 0);
        assert_eq!(va, VirtAddr::new(0x40_0000));
        let idx = VaIndices::of(va);
        assert_eq!((idx.l4, idx.l3, idx.l2, idx.l1), (0, 0, 2, 0));
    }

    #[test]
    fn guest_access_checks_layout_before_tables() {
        let mut g = boot(XenVersion::V4_13, false);
        // Directmap addresses are never guest-accessible.
        let va = g.hv.layout().directmap_va(0);
        let mut buf = [0u8; 1];
        let err = g.hv.guest_read_va(g.dom, va, &mut buf).unwrap_err();
        assert!(matches!(err, HvError::GuestFault(_)));
    }

    #[test]
    fn exchange_error_path_writes_back_via_checked_copy_on_fixed() {
        // On fixed versions a *valid guest handle* still gets the error
        // write-back — proving the fix is the handle check, not the
        // write-back removal.
        let mut g = boot(XenVersion::V4_8, false);
        let args = ExchangeArgs::new(vec![0xdead], g.data_va);
        let err = g.hv.hc_memory_exchange(g.dom, &args).unwrap_err();
        assert!(err.is_fault());
        let mut buf = [0u8; 8];
        g.hv.guest_read_va(g.dom, g.data_va, &mut buf).unwrap();
        assert_eq!(u64::from_le_bytes(buf), 0xdead);
    }

    #[test]
    fn access_kind_reexport_smoke() {
        // Keep the re-exports honest.
        let _ = AccessKind::Read;
    }

    // ------------------------------------------------------------------
    // Translation after injection
    // ------------------------------------------------------------------

    #[test]
    fn translation_after_injected_pte_write_sees_the_forged_frame() {
        use crate::injector::AccessMode;
        // XSA-148 audit-walk semantics: inject a corrupted PTE through
        // the injector hypercall at the slot `pte_slot` locates, and the
        // very next translation must see the corruption. A false negative
        // here would invalidate every monitor verdict in the campaign.
        let mut g = boot(XenVersion::V4_6, true);
        let cr3 = g.hv.domain(g.dom).unwrap().cr3().unwrap();
        let before = g.hv.guest_translate(g.dom, g.data_va).unwrap();
        assert_eq!(before.mfn, g.data);
        // Locate the L1 slot and inject a PTE redirecting data_va.
        let (slot, old) = pte_slot(g.hv.mem(), cr3, g.data_va, 1).unwrap();
        assert_eq!(old.mfn(), g.data);
        let (_, evil) = g.hv.alloc_domain_frame(g.dom, PageType::Writable).unwrap();
        let forged = PageTableEntry::new(evil, LINK);
        let mut bytes = forged.raw().to_le_bytes();
        g.hv.hc_arbitrary_access(g.dom, slot.raw(), &mut bytes, AccessMode::PhysWrite)
            .unwrap();
        let after = g.hv.guest_translate(g.dom, g.data_va).unwrap();
        assert_eq!(after.mfn, evil, "the translation after injection must see the corruption");
        // And the hypervisor's view agrees with a raw audit walk.
        let raw = walk(g.hv.mem(), cr3, g.data_va, &g.hv.walk_policy()).unwrap();
        assert_eq!(after, raw);
    }
}
