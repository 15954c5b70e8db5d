//! Machine memory substrate for the `hvsim` paravirtualized hypervisor
//! simulator.
//!
//! This crate models the *physical* side of a virtualized host, mirroring the
//! structures the Xen hypervisor uses to multiplex machine memory between
//! domains:
//!
//! * [`MachineMemory`] — a byte-accurate array of 4 KiB machine frames with
//!   typed load/store accessors,
//! * [`PageInfo`] — per-frame accounting (owner domain, page *type*, typed
//!   reference count), the simulator's equivalent of Xen's
//!   `struct page_info`,
//! * [`FrameAllocator`] — a free-list allocator with per-domain accounting,
//! * strongly-typed addresses and frame numbers ([`Mfn`], [`Pfn`],
//!   [`PhysAddr`], [`VirtAddr`]).
//!
//! Everything above this crate (page-table walks, hypercalls, guests,
//! intrusion injection) manipulates memory exclusively through these types,
//! so an "erroneous state" injected by the intrusion-injection tooling is a
//! real, observable mutation of the bytes and accounting kept here.
//!
//! # Example
//!
//! ```
//! use hvsim_mem::{DomainId, MachineMemory, Mfn, PageType};
//!
//! # fn main() -> Result<(), hvsim_mem::MemError> {
//! let mut mem = MachineMemory::new(64);
//! let dom = DomainId::new(1);
//! let mfn = Mfn::new(3);
//! mem.info_mut(mfn)?.assign(dom, PageType::Writable);
//! mem.write_u64(mfn.base().offset(8), 0xdead_beef)?;
//! assert_eq!(mem.read_u64(mfn.base().offset(8))?, 0xdead_beef);
//! # Ok(())
//! # }
//! ```

mod addr;
mod alloc;
mod error;
mod machine;
mod page_info;

pub use addr::{Mfn, Pfn, PhysAddr, VirtAddr, PAGE_MASK, PAGE_SHIFT, PAGE_SIZE};
pub use alloc::FrameAllocator;
pub use error::MemError;
pub use machine::{MachineMemory, SnapshotStats};
pub use page_info::{DomainId, PageInfo, PageType};

use std::sync::Arc;

/// Points `dst` at `src`'s value, the way `Clone::clone_from` resets a
/// shared container: when `dst` already points there it is left alone,
/// so resetting a container a world never wrote touches no reference
/// count.
pub fn clone_arc_from<T: ?Sized>(dst: &mut Arc<T>, src: &Arc<T>) {
    if !Arc::ptr_eq(dst, src) {
        *dst = Arc::clone(src);
    }
}
