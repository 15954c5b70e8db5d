//! A deterministic paravirtualized hypervisor simulator, modelled on Xen's
//! x86-64 PV interface.
//!
//! `hvsim` is the system-under-test substrate for the intrusion-injection
//! reproduction: a hypervisor whose memory-management state machine is rich
//! enough that the real Xen exploit strategies (XSA-148, XSA-182, XSA-212)
//! and the paper's injector hypercall both *work mechanically*, not as
//! hard-coded outcomes.
//!
//! The simulator provides:
//!
//! * **domains** with machine-frame ownership, pseudo-physical (P2M) maps,
//!   per-domain page quotas and PV page tables ([`Domain`]),
//! * **hypercalls** — `mmu_update`, `memory_exchange`,
//!   `update_va_mapping`, `mmuext_op` (pin/unpin/new-baseptr),
//!   grant-table ops, `decrease_reservation`, `set_trap_table`, console
//!   I/O — each validating its arguments the way the corresponding Xen
//!   version does ([`Hypervisor`]),
//! * **page-type validation** (`get_page_type`-style promotion rules and
//!   per-level PTE validation) with the three reproduced vulnerabilities
//!   as faithful *omissions* of specific checks ([`XenVersion`],
//!   [`VulnConfig`]),
//! * a simulated **IDT** per CPU with page-fault/double-fault escalation,
//!   so corrupting the #PF vector crashes the hypervisor the same way the
//!   XSA-212-crash PoC does,
//! * the paper's **injector hypercall**
//!   [`Hypervisor::hc_arbitrary_access`] — compiled in only when
//!   [`BuildConfig::injector_enabled`] is set, mirroring the authors'
//!   patched Xen builds,
//! * an **audit log** recording validation rejections, PTE writes,
//!   exceptions and injector activity, used by monitors to compare
//!   erroneous states across runs.
//!
//! # Versions
//!
//! [`XenVersion`] selects which vulnerabilities exist and whether the
//! post-XSA-213-followup hardened memory layout is used:
//!
//! | version | XSA-148 | XSA-182 | XSA-212 | hardened layout |
//! |---------|---------|---------|---------|-----------------|
//! | 4.6     | vulnerable | vulnerable | vulnerable | no |
//! | 4.8     | fixed   | fixed   | fixed   | no |
//! | 4.13    | fixed   | fixed   | fixed   | **yes** |
//!
//! # Example
//!
//! ```
//! use hvsim::{BuildConfig, Hypervisor, XenVersion};
//!
//! # fn main() -> Result<(), hvsim::HvError> {
//! let mut hv = Hypervisor::new(BuildConfig::new(XenVersion::V4_6).injector(true));
//! let dom = hv.create_domain("guest", false, 64)?;
//! assert!(!hv.domain(dom)?.is_privileged());
//! # Ok(())
//! # }
//! ```

// Hot hypercall paths must return `HvError` instead of panicking: a
// panicking hypervisor aborts a whole assessment campaign. The few
// remaining `expect`s are boot-time invariant checks, each annotated
// with an `#[allow]` and a justification at the use site. Tests keep
// their unwraps.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod audit;
mod domain;
mod domctl;
mod error;
mod events;
mod exchange;
mod grants;
mod hypercall;
mod hypervisor;
mod idt;
mod injector;
mod invariants;
mod shared_log;
mod validate;
mod version;

pub use audit::{AuditEvent, AuditLog};
pub use domain::{Domain, StartInfo, START_INFO_MAGIC};
pub use domctl::DomctlOp;
pub use error::HvError;
pub use events::{EventChannelOp, PortState, EVTCHN_PORTS, MASK_OFFSET, PENDING_OFFSET};
pub use exchange::ExchangeArgs;
pub use grants::{GrantEntry, GrantTable, GrantTableVersion};
pub use hypercall::{Hypercall, MmuExtOp, MmuUpdate};
pub use hypervisor::{BuildConfig, CrashInfo, Hypervisor, InterruptDispatch};
pub use idt::{IdtEntry, DOUBLE_FAULT_VECTOR, IDT_ENTRIES, PAGE_FAULT_VECTOR};
pub use injector::AccessMode;
pub use invariants::InvariantViolation;
pub use shared_log::SharedLog;
pub use version::{VulnConfig, XenVersion};

// Re-export the vocabulary types users inevitably need alongside this crate.
pub use hvsim_mem::{
    DomainId, MachineMemory, MemError, Mfn, PageType, Pfn, PhysAddr, SnapshotStats, VirtAddr,
};
pub use hvsim_paging::{
    AccessKind, MemoryLayout, PageFault, PageFaultKind, PageTableEntry, PteFlags, WalkPolicy,
};
