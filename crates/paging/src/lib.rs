//! x86-64 4-level paging for the `hvsim` hypervisor simulator.
//!
//! This crate implements the translation machinery that Xen's
//! paravirtualized (PV) memory management is built on — and that the
//! memory-corruption exploits reproduced by this project abuse:
//!
//! * [`PteFlags`] / [`PageTableEntry`] — bit-accurate x86-64 page-table
//!   entries (present/RW/user/PSE/NX, 40-bit frame numbers),
//! * [`walk`] — a 4-level software page walk with superpage (PSE) support,
//!   returning either a [`Translation`] or a structured [`PageFault`],
//! * [`MemoryLayout`] — the Xen virtual-address-space layout, including the
//!   guest-read-only hypervisor range and the RWX linear-page-table window
//!   whose removal was part of the Xen 4.9+ hardening (the reason Xen 4.13
//!   *handles* two of the paper's injected erroneous states),
//! * index/compose helpers for crafting virtual addresses from page-table
//!   indices (used by the XSA-182 self-mapping exploit).
//!
//! # Example
//!
//! ```
//! use hvsim_mem::{MachineMemory, Mfn, VirtAddr};
//! use hvsim_paging::{walk, PageTableEntry, PteFlags, WalkPolicy};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut mem = MachineMemory::new(16);
//! // Build a 4-level mapping of 0x1000 -> frame 9 by hand.
//! let (l4, l3, l2, l1, data) = (Mfn::new(1), Mfn::new(2), Mfn::new(3), Mfn::new(4), Mfn::new(9));
//! let link = PteFlags::PRESENT | PteFlags::RW | PteFlags::USER;
//! mem.write_u64(l4.base(), PageTableEntry::new(l3, link).raw())?;
//! mem.write_u64(l3.base(), PageTableEntry::new(l2, link).raw())?;
//! mem.write_u64(l2.base(), PageTableEntry::new(l1, link).raw())?;
//! mem.write_u64(l1.base().offset(8), PageTableEntry::new(data, link).raw())?;
//! let t = walk(&mem, l4, VirtAddr::new(0x1abc), &WalkPolicy::default())?;
//! assert_eq!(t.phys.raw(), 9 * 4096 + 0xabc);
//! # Ok(())
//! # }
//! ```

mod entry;
mod fault;
mod layout;
mod vaddr;
mod walk;

pub use entry::{PageTableEntry, PteFlags, PTE_ADDR_MASK};
pub use fault::{AccessKind, PageFault, PageFaultKind};
pub use layout::{
    LayoutDenial, MemoryLayout, Region, DIRECTMAP_START, GUEST_RO_END, HYPERVISOR_VIRT_START,
    LINEAR_PT_SIZE, LINEAR_PT_START,
};
pub use vaddr::{compose_va, selfmap_va, VaIndices, ENTRIES_PER_TABLE};
pub use walk::{pte_slot, walk, MappingLevel, Translation, WalkPolicy, WalkStep};
