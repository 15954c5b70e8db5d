//! The one hypercall entry point, and the [`Hypercall`] request type.
//!
//! Every hypercall, whether issued through a typed `hc_*` method on
//! [`Hypervisor`] or as a [`Hypercall`] value through
//! [`Hypervisor::dispatch`], runs through `Hypervisor::enter` exactly
//! once. It counts the call, fails it with [`HvError::Crashed`] after a
//! hypervisor panic or [`HvError::NoDomain`] for an unknown or dead
//! caller, runs the call's body (`domctl`'s body starts with its
//! privilege check), and audits the errno-style result as one
//! [`AuditEvent::Hypercall`], whatever the outcome.

use crate::audit::AuditEvent;
use crate::domctl::DomctlOp;
use crate::events::EventChannelOp;
use crate::exchange::ExchangeArgs;
use crate::grants::GrantTableVersion;
use crate::hypervisor::Hypervisor;
use crate::injector::AccessMode;
use crate::HvError;
use hvsim_mem::{DomainId, Mfn, Pfn, VirtAddr};

/// One `mmu_update` request: write `val` into the page-table entry at
/// machine byte address `ptr`.
///
/// As in Xen, the low two bits of `ptr` encode the update type; only
/// `MMU_NORMAL_PT_UPDATE` (0) is modelled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MmuUpdate {
    /// Machine byte address of the target PTE (low 2 bits: update type).
    pub ptr: u64,
    /// The raw new entry value.
    pub val: u64,
}

impl MmuUpdate {
    /// A normal page-table update.
    pub fn normal(ptr: u64, val: u64) -> Self {
        Self { ptr, val }
    }
}

/// Extended MMU operations (`HYPERVISOR_mmuext_op`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MmuExtOp {
    /// Pin a frame as a level-`level` page table, validating its contents.
    Pin {
        /// Page-table level (1..=4).
        level: u8,
        /// The frame to pin.
        mfn: Mfn,
    },
    /// Unpin a previously pinned page-table frame.
    Unpin {
        /// The frame to unpin.
        mfn: Mfn,
    },
    /// Install a new top-level page table for the calling domain.
    NewBaseptr {
        /// The L4 frame to load.
        mfn: Mfn,
    },
}

/// A hypercall request, for uniform dispatch.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Hypercall {
    /// Batched page-table updates.
    MmuUpdate(Vec<MmuUpdate>),
    /// Extended MMU operations.
    MmuExtOp(Vec<MmuExtOp>),
    /// Single-entry leaf update addressed by virtual address.
    UpdateVaMapping {
        /// The virtual address whose L1 entry is updated.
        va: VirtAddr,
        /// The raw new entry value.
        val: u64,
    },
    /// `XENMEM_exchange`.
    MemoryExchange(ExchangeArgs),
    /// `XENMEM_decrease_reservation`.
    DecreaseReservation {
        /// Pseudo-physical frames to release.
        pfns: Vec<Pfn>,
        /// Whether a cache-maintenance op preceded the call (the XSA-393
        /// trigger condition).
        after_cache_maintenance: bool,
    },
    /// `GNTTABOP_set_version`.
    GrantTableSetVersion(GrantTableVersion),
    /// Register guest trap handlers.
    SetTrapTable(Vec<(u8, VirtAddr)>),
    /// Emit a line on the hypervisor console.
    ConsoleIo(String),
    /// The paper's injector hypercall (present only in injector builds).
    ///
    /// `data` is an in/out buffer: filled on reads, consumed on writes.
    ArbitraryAccess {
        /// Target address (linear or physical per `mode`).
        addr: u64,
        /// In/out data buffer; its length is the access length.
        data: Vec<u8>,
        /// Operation and address mode.
        mode: AccessMode,
    },
    /// Grant `grantee` access to one of the caller's frames.
    GrantAccess {
        /// The domain being granted access.
        grantee: DomainId,
        /// The caller's frame.
        mfn: Mfn,
        /// Whether the grant allows writes.
        writable: bool,
    },
    /// Map a grant that `granter` issued to the caller.
    GrantMap {
        /// The granting domain.
        granter: DomainId,
        /// The grant reference in `granter`'s table.
        gref: usize,
    },
    /// `HYPERVISOR_event_channel_op`.
    EventChannelOp(EventChannelOp),
    /// `HYPERVISOR_domctl` against `target`.
    Domctl {
        /// The controlled domain.
        target: DomainId,
        /// The operation.
        op: DomctlOp,
    },
}

impl Hypercall {
    /// The hypercall's name, as recorded in the audit log. Each must match
    /// the literal its typed `hc_*` method passes to `Hypervisor::enter`.
    pub fn name(&self) -> &'static str {
        match self {
            Hypercall::MmuUpdate(_) => "mmu_update",
            Hypercall::MmuExtOp(_) => "mmuext_op",
            Hypercall::UpdateVaMapping { .. } => "update_va_mapping",
            Hypercall::MemoryExchange(_) => "memory_exchange",
            Hypercall::DecreaseReservation { .. } => "decrease_reservation",
            Hypercall::GrantTableSetVersion(_) => "grant_table_set_version",
            Hypercall::SetTrapTable(_) => "set_trap_table",
            Hypercall::ConsoleIo(_) => "console_io",
            Hypercall::ArbitraryAccess { .. } => "arbitrary_access",
            Hypercall::GrantAccess { .. } => "grant_access",
            Hypercall::GrantMap { .. } => "grant_map",
            Hypercall::EventChannelOp(_) => "event_channel_op",
            Hypercall::Domctl { .. } => "domctl",
        }
    }
}

impl Hypervisor {
    /// The one hypercall entry point (see the module docs): runs `body`
    /// for `dom` between the checks and the audit.
    pub(crate) fn enter(
        &mut self,
        dom: DomainId,
        name: &'static str,
        body: impl FnOnce(&mut Self) -> Result<u64, HvError>,
    ) -> Result<u64, HvError> {
        self.hypercall_count += 1;
        let result = self.check_alive(dom).and_then(|()| body(self));
        self.audit.push(AuditEvent::Hypercall {
            dom,
            name,
            result: result.as_ref().map_or_else(HvError::errno, |&v| v as i64),
        });
        result
    }

    /// Routes a [`Hypercall`] to its typed `hc_*` method, which counts,
    /// checks and audits it. `ArbitraryAccess` reads fill `data` in place.
    ///
    /// # Errors
    ///
    /// Propagates the callee's error.
    pub fn dispatch(&mut self, dom: DomainId, call: &mut Hypercall) -> Result<u64, HvError> {
        match call {
            Hypercall::MmuUpdate(updates) => self.hc_mmu_update(dom, updates),
            Hypercall::MmuExtOp(ops) => self.hc_mmuext_op(dom, ops),
            Hypercall::UpdateVaMapping { va, val } => self.hc_update_va_mapping(dom, *va, *val),
            Hypercall::MemoryExchange(args) => self.hc_memory_exchange(dom, args),
            Hypercall::DecreaseReservation { pfns, after_cache_maintenance: acm } => {
                self.hc_decrease_reservation(dom, pfns, *acm)
            }
            Hypercall::GrantTableSetVersion(v) => self.hc_grant_table_set_version(dom, *v),
            Hypercall::SetTrapTable(entries) => self.hc_set_trap_table(dom, entries),
            Hypercall::ConsoleIo(line) => self.hc_console_io(dom, line),
            Hypercall::ArbitraryAccess { addr, data, mode } => {
                self.hc_arbitrary_access(dom, *addr, data, *mode)
            }
            Hypercall::GrantAccess { grantee, mfn, writable } => {
                self.hc_grant_access(dom, *grantee, *mfn, *writable)
            }
            Hypercall::GrantMap { granter, gref } => {
                self.hc_grant_map(dom, *granter, *gref).map(Mfn::raw)
            }
            Hypercall::EventChannelOp(op) => self.hc_event_channel_op(dom, *op),
            Hypercall::Domctl { target, op } => self.hc_domctl(dom, *target, *op),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(Hypercall::MmuUpdate(vec![]).name(), "mmu_update");
        assert_eq!(
            Hypercall::ArbitraryAccess {
                addr: 0,
                data: vec![],
                mode: AccessMode::LinearRead,
            }
            .name(),
            "arbitrary_access"
        );
    }

    #[test]
    fn mmu_update_normal_constructor() {
        let u = MmuUpdate::normal(0x1000, 0x2003);
        assert_eq!(u.ptr, 0x1000);
        assert_eq!(u.val, 0x2003);
    }
}
