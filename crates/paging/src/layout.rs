//! The Xen virtual-address-space layout, per hardening level.
//!
//! Xen's x86-64 memory layout reserves the upper canonical half for the
//! hypervisor and carves it into ranges with architecturally-defined guest
//! permissions. Two ranges matter for the experiments reproduced here:
//!
//! * `0xffff8000_00000000 ..= 0xffff807f_ffffffff` — **read-only for guest
//!   domains** (quoted verbatim in the paper, §V-A),
//! * `0xffff8040_00000000 ..` — the **linear page-table window**, an RWX
//!   mapping of the page tables that pre-4.9 Xen exposed into every PV
//!   guest. The XSA-212-priv exploit hides its payload here precisely
//!   because *every* guest can reach it. The XSA-213-followup hardening
//!   ([XSAs 213-215 followups], Xen ≥ 4.9) removed this mapping, which is
//!   why Xen 4.13 *handles* the injected erroneous states of XSA-212-priv
//!   and XSA-182-test instead of suffering the violation.

use crate::{AccessKind, PageFault, PageFaultKind};
use hvsim_mem::VirtAddr;
use std::fmt;

/// First hypervisor-owned virtual address.
pub const HYPERVISOR_VIRT_START: u64 = 0xffff_8000_0000_0000;
/// Last byte of the range that is read-only for guest domains.
pub const GUEST_RO_END: u64 = 0xffff_807f_ffff_ffff;
/// Start of the linear page-table window (pre-hardening layouts only).
pub const LINEAR_PT_START: u64 = 0xffff_8040_0000_0000;
/// Size of the linear page-table window in bytes (256 GiB of the 512 GiB
/// L4 slot is guest-visible; the paper's exploit uses
/// `0xffff804000000000..=0xffff80403fffffff`).
pub const LINEAR_PT_SIZE: u64 = 0x40_0000_0000;
/// Start of the hypervisor's 1:1 direct map of machine memory.
pub const DIRECTMAP_START: u64 = 0xffff_8300_0000_0000;
/// Size of the direct map window.
pub const DIRECTMAP_SIZE: u64 = 0x100_0000_0000;

/// Which architectural region a virtual address falls into.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Region {
    /// Lower canonical half: ordinary guest virtual addresses.
    GuestVirtual,
    /// Hypervisor range that guests may read but never write.
    XenGuestReadOnly,
    /// The RWX linear page-table window (only mapped pre-hardening).
    LinearPtWindow,
    /// The hypervisor's direct map of machine memory.
    DirectMap,
    /// Any other hypervisor-private range.
    XenPrivate,
    /// Non-canonical hole.
    NonCanonical,
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Region::GuestVirtual => "guest virtual",
            Region::XenGuestReadOnly => "xen guest-read-only",
            Region::LinearPtWindow => "linear page-table window",
            Region::DirectMap => "direct map",
            Region::XenPrivate => "xen private",
            Region::NonCanonical => "non-canonical",
        })
    }
}

/// Why the layout denied a guest access.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LayoutDenial {
    /// The denied address.
    pub va: VirtAddr,
    /// The attempted access.
    pub access: AccessKind,
    /// The region the address falls into.
    pub region: Region,
}

impl fmt::Display for LayoutDenial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "layout denies guest {} at {} ({} region)",
            self.access, self.va, self.region
        )
    }
}

impl std::error::Error for LayoutDenial {}

impl From<LayoutDenial> for PageFault {
    fn from(d: LayoutDenial) -> PageFault {
        let kind = match d.access {
            AccessKind::Write => PageFaultKind::NotWritable { level: 4 },
            _ => PageFaultKind::NotPresent { level: 4 },
        };
        PageFault::new(d.va, d.access, kind)
    }
}

/// The hypervisor's virtual memory layout for a given hardening level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryLayout {
    hardened: bool,
}

impl MemoryLayout {
    /// The pre-4.9 layout: linear page-table window mapped RWX into every
    /// PV guest.
    pub const fn classic() -> Self {
        Self { hardened: false }
    }

    /// The post-XSA-213-followup layout (Xen ≥ 4.9): the linear page-table
    /// window is unmapped and self-referencing writable page-table
    /// mappings are rejected during walks.
    pub const fn hardened() -> Self {
        Self { hardened: true }
    }

    /// Whether this is the hardened layout.
    pub const fn is_hardened(self) -> bool {
        self.hardened
    }

    /// Classifies a virtual address.
    pub fn region_of(self, va: VirtAddr) -> Region {
        let raw = va.raw();
        if !va.is_canonical() {
            Region::NonCanonical
        } else if raw < 0x0000_8000_0000_0000 {
            Region::GuestVirtual
        } else if (LINEAR_PT_START..LINEAR_PT_START + LINEAR_PT_SIZE).contains(&raw) {
            if self.hardened {
                Region::XenPrivate
            } else {
                Region::LinearPtWindow
            }
        } else if (HYPERVISOR_VIRT_START..=GUEST_RO_END).contains(&raw) {
            Region::XenGuestReadOnly
        } else if (DIRECTMAP_START..DIRECTMAP_START + DIRECTMAP_SIZE).contains(&raw) {
            Region::DirectMap
        } else {
            Region::XenPrivate
        }
    }

    /// Checks whether a *guest* may perform `access` at `va` as far as the
    /// architectural layout is concerned (page tables still apply on top).
    ///
    /// # Errors
    ///
    /// Returns a [`LayoutDenial`] describing the refused access.
    pub fn guest_may(self, va: VirtAddr, access: AccessKind) -> Result<(), LayoutDenial> {
        let region = self.region_of(va);
        let allowed = match region {
            Region::GuestVirtual => true,
            // The linear-PT window was mapped RWX into every guest.
            Region::LinearPtWindow => true,
            Region::XenGuestReadOnly => access == AccessKind::Read,
            Region::DirectMap | Region::XenPrivate | Region::NonCanonical => false,
        };
        if allowed {
            Ok(())
        } else {
            Err(LayoutDenial { va, access, region })
        }
    }

    /// The direct-map virtual address of a physical byte address.
    pub fn directmap_va(self, phys: u64) -> VirtAddr {
        VirtAddr::new(DIRECTMAP_START + phys)
    }

    /// Inverts [`MemoryLayout::directmap_va`]: the physical address behind
    /// a direct-map virtual address, if it is one.
    pub fn directmap_phys(self, va: VirtAddr) -> Option<u64> {
        let raw = va.raw();
        if (DIRECTMAP_START..DIRECTMAP_START + DIRECTMAP_SIZE).contains(&raw) {
            Some(raw - DIRECTMAP_START)
        } else {
            None
        }
    }
}

impl Default for MemoryLayout {
    fn default() -> Self {
        Self::classic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAYLOAD_VA: u64 = 0xffff_8040_0000_0000;

    #[test]
    fn classic_layout_exposes_linear_pt_window() {
        let l = MemoryLayout::classic();
        assert_eq!(l.region_of(VirtAddr::new(PAYLOAD_VA)), Region::LinearPtWindow);
        assert!(l.guest_may(VirtAddr::new(PAYLOAD_VA), AccessKind::Write).is_ok());
        assert!(l.guest_may(VirtAddr::new(PAYLOAD_VA), AccessKind::Execute).is_ok());
    }

    #[test]
    fn hardened_layout_removes_linear_pt_window() {
        let l = MemoryLayout::hardened();
        assert_eq!(l.region_of(VirtAddr::new(PAYLOAD_VA)), Region::XenPrivate);
        let err = l
            .guest_may(VirtAddr::new(PAYLOAD_VA), AccessKind::Execute)
            .unwrap_err();
        assert_eq!(err.region, Region::XenPrivate);
    }

    #[test]
    fn guest_ro_range_is_read_only() {
        for l in [MemoryLayout::classic(), MemoryLayout::hardened()] {
            let va = VirtAddr::new(0xffff_8000_0000_1000);
            assert_eq!(l.region_of(va), Region::XenGuestReadOnly);
            assert!(l.guest_may(va, AccessKind::Read).is_ok());
            assert!(l.guest_may(va, AccessKind::Write).is_err());
        }
    }

    #[test]
    fn guest_virtual_always_allowed_by_layout() {
        let l = MemoryLayout::hardened();
        let va = VirtAddr::new(0x7fff_dead_b000);
        assert!(l.guest_may(va, AccessKind::Write).is_ok());
    }

    #[test]
    fn directmap_denied_to_guests_and_roundtrips() {
        let l = MemoryLayout::classic();
        let va = l.directmap_va(0x1234_5000);
        assert_eq!(l.region_of(va), Region::DirectMap);
        assert!(l.guest_may(va, AccessKind::Read).is_err());
        assert_eq!(l.directmap_phys(va), Some(0x1234_5000));
        assert_eq!(l.directmap_phys(VirtAddr::new(0x1000)), None);
    }

    #[test]
    fn non_canonical_region() {
        let l = MemoryLayout::classic();
        assert_eq!(l.region_of(VirtAddr::new(0x1234_0000_0000_0000)), Region::NonCanonical);
        assert!(l.guest_may(VirtAddr::new(0x1234_0000_0000_0000), AccessKind::Read).is_err());
    }

    #[test]
    fn denial_converts_to_page_fault() {
        let l = MemoryLayout::hardened();
        let denial = l
            .guest_may(VirtAddr::new(PAYLOAD_VA), AccessKind::Write)
            .unwrap_err();
        let pf: PageFault = denial.into();
        assert_eq!(pf.kind, PageFaultKind::NotWritable { level: 4 });
    }

    #[test]
    fn denial_display() {
        let l = MemoryLayout::hardened();
        let d = l
            .guest_may(VirtAddr::new(PAYLOAD_VA), AccessKind::Execute)
            .unwrap_err();
        assert!(d.to_string().contains("denies guest execute"));
    }
}
