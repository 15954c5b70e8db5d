//! The hypervisor audit log.
//!
//! Every security-relevant event — validation rejections, page-table
//! writes, exception deliveries, injector activity — is recorded here.
//! The intrusion-injection monitor replays this log to decide whether an
//! injected erroneous state equals an exploit-induced one (the paper's
//! "page-table walk audit" plus console-output comparison, §VI-C).

use crate::shared_log::SharedLog;
use hvsim_mem::{DomainId, Mfn, PhysAddr, VirtAddr};
use std::fmt;
use std::sync::Arc;

/// How a page-table entry came to be written.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteOrigin {
    /// Through validated `mmu_update` / `update_va_mapping`.
    Validated,
    /// Through a vulnerable fast path that skipped validation.
    VulnerableFastPath,
    /// Through the unchecked hypervisor write primitive of XSA-212.
    UncheckedCopy,
    /// Through the injector hypercall.
    Injector,
}

/// One audited event.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum AuditEvent {
    /// A hypercall was dispatched.
    Hypercall {
        /// Calling domain.
        dom: DomainId,
        /// Hypercall name.
        name: &'static str,
        /// errno-style result (0 on success).
        result: i64,
    },
    /// A validation check rejected a request.
    ValidationRejected {
        /// Calling domain.
        dom: DomainId,
        /// The check that fired (e.g. `"l2_pse"`, `"l4_fastpath"`).
        check: &'static str,
        /// Human-readable detail.
        detail: String,
    },
    /// A page-table entry was written.
    PteWritten {
        /// Domain whose tables changed.
        dom: DomainId,
        /// Physical slot that was written.
        slot: PhysAddr,
        /// Previous raw value.
        old: u64,
        /// New raw value.
        new: u64,
        /// How the write happened.
        origin: WriteOrigin,
    },
    /// Hypervisor memory was written outside page-table maintenance.
    HypervisorWrite {
        /// Domain that caused the write.
        dom: DomainId,
        /// Target physical address.
        phys: PhysAddr,
        /// Length in bytes.
        len: usize,
        /// How the write happened.
        origin: WriteOrigin,
    },
    /// An exception was delivered.
    Exception {
        /// Vector number (14 = #PF, 8 = #DF).
        vector: u8,
        /// Faulting/linear address if applicable.
        addr: Option<VirtAddr>,
        /// Whether delivery succeeded (a corrupted IDT makes it escalate).
        delivered: bool,
    },
    /// The hypervisor panicked.
    Crash {
        /// Panic message (mirrors the Xen console output), shared with
        /// the hypervisor's crash record.
        message: Arc<str>,
    },
    /// The injector hypercall performed an access.
    InjectorAccess {
        /// Calling domain.
        dom: DomainId,
        /// Raw target address (linear or physical per `mode`).
        addr: u64,
        /// Access length.
        len: usize,
        /// Mode name (`"linear"`/`"physical"`, `"read"`/`"write"`).
        mode: &'static str,
    },
    /// A frame changed owner or was freed while references remained —
    /// the "keep page reference" family of erroneous states.
    DanglingReference {
        /// Domain holding the stale reference.
        dom: DomainId,
        /// The frame concerned.
        mfn: Mfn,
        /// Detail (which operation leaked it).
        detail: String,
    },
}

impl AuditEvent {
    /// Stable kebab-case kind label, used as the span-path suffix when
    /// audit events are bridged into a trace stream (one adapter in
    /// `intrusion-core` — downstream code matches on this instead of
    /// re-implementing the variant bookkeeping).
    pub fn kind(&self) -> &'static str {
        match self {
            AuditEvent::Hypercall { .. } => "hypercall",
            AuditEvent::ValidationRejected { .. } => "validation-rejected",
            AuditEvent::PteWritten { .. } => "pte-written",
            AuditEvent::HypervisorWrite { .. } => "hypervisor-write",
            AuditEvent::Exception { .. } => "exception",
            AuditEvent::Crash { .. } => "crash",
            AuditEvent::InjectorAccess { .. } => "injector-access",
            AuditEvent::DanglingReference { .. } => "dangling-reference",
        }
    }
}

impl fmt::Display for AuditEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditEvent::Hypercall { dom, name, result } => {
                write!(f, "[{dom}] hypercall {name} -> {result}")
            }
            AuditEvent::ValidationRejected { dom, check, detail } => {
                write!(f, "[{dom}] validation '{check}' rejected: {detail}")
            }
            AuditEvent::PteWritten { dom, slot, old, new, origin } => {
                write!(f, "[{dom}] pte @{slot} {old:#x} -> {new:#x} ({origin:?})")
            }
            AuditEvent::HypervisorWrite { dom, phys, len, origin } => {
                write!(f, "[{dom}] hv write {len}B @{phys} ({origin:?})")
            }
            AuditEvent::Exception { vector, addr, delivered } => {
                write!(f, "exception vec={vector} addr={addr:?} delivered={delivered}")
            }
            AuditEvent::Crash { message } => write!(f, "CRASH: {message}"),
            AuditEvent::InjectorAccess { dom, addr, len, mode } => {
                write!(f, "[{dom}] injector {mode} {len}B @{addr:#x}")
            }
            AuditEvent::DanglingReference { dom, mfn, detail } => {
                write!(f, "[{dom}] dangling reference to {mfn}: {detail}")
            }
        }
    }
}

/// A bounded in-order log of [`AuditEvent`]s.
///
/// The events are a [`SharedLog`]: a clone (a campaign cell's world)
/// shares the boot-time prefix and appends to a list of its own, so its
/// first append copies no boot event, and later appends touch no
/// reference count. `clone_from` drops the clone's own events and keeps
/// their room.
#[derive(Debug, Default)]
pub struct AuditLog {
    events: SharedLog<AuditEvent, { AuditLog::FORK_HEADROOM }>,
    dropped: u64,
}

impl Clone for AuditLog {
    fn clone(&self) -> Self {
        let Self { events, dropped } = self;
        Self { events: events.clone(), dropped: *dropped }
    }

    fn clone_from(&mut self, source: &Self) {
        let Self { events, dropped } = self;
        events.clone_from(&source.events);
        *dropped = source.dropped;
    }
}

impl AuditLog {
    /// Maximum retained events.
    pub const DEFAULT_CAPACITY: usize = 65_536;

    /// Events a fork's own list takes before it reallocates.
    const FORK_HEADROOM: usize = 32;

    /// Creates an empty log retaining at most
    /// [`AuditLog::DEFAULT_CAPACITY`] events; further events are counted
    /// but dropped.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gives this log its own copy of the events, so its clones bump a
    /// reference count that clones of the log it was cloned from do not.
    pub(crate) fn unshare(&mut self) {
        self.events.unshare();
    }

    /// The reference count of the shared events (how many logs share
    /// them).
    pub(crate) fn share_count(&self) -> usize {
        self.events.share_count()
    }

    /// Appends an event.
    pub fn push(&mut self, event: AuditEvent) {
        if self.events.iter().len() < Self::DEFAULT_CAPACITY {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// All retained events, oldest first.
    pub fn events(&self) -> impl DoubleEndedIterator<Item = &AuditEvent> + ExactSizeIterator {
        self.events.iter()
    }

    /// Number of events dropped due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates events matching a predicate.
    pub fn filter<'a, P>(&'a self, pred: P) -> impl Iterator<Item = &'a AuditEvent>
    where
        P: FnMut(&&'a AuditEvent) -> bool + 'a,
    {
        self.events().filter(pred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_filter() {
        let mut log = AuditLog::new();
        log.push(AuditEvent::Hypercall {
            dom: DomainId::DOM0,
            name: "mmu_update",
            result: 0,
        });
        log.push(AuditEvent::Crash {
            message: "DOUBLE FAULT".into(),
        });
        assert_eq!(log.events().len(), 2);
        let crashes: Vec<_> = log
            .filter(|e| matches!(e, AuditEvent::Crash { .. }))
            .collect();
        assert_eq!(crashes.len(), 1);
    }

    #[test]
    fn capacity_bound_drops_and_counts() {
        let mut log = AuditLog::new();
        for i in 0..AuditLog::DEFAULT_CAPACITY as i64 + 3 {
            log.push(AuditEvent::Hypercall {
                dom: DomainId::DOM0,
                name: "noop",
                result: i,
            });
        }
        assert_eq!(log.events().len(), AuditLog::DEFAULT_CAPACITY);
        assert_eq!(log.dropped(), 3);
    }

    #[test]
    fn display_is_greppable() {
        let e = AuditEvent::InjectorAccess {
            dom: DomainId::new(3),
            addr: 0xffff_8300_0000_0000,
            len: 8,
            mode: "linear write",
        };
        let s = e.to_string();
        assert!(s.contains("injector"));
        assert!(s.contains("dom3"));
    }

    #[test]
    fn kinds_are_stable_labels() {
        let e = AuditEvent::Hypercall { dom: DomainId::DOM0, name: "mmu_update", result: 0 };
        assert_eq!(e.kind(), "hypercall");
        let e = AuditEvent::Crash { message: "DOUBLE FAULT".into() };
        assert_eq!(e.kind(), "crash");
        let e = AuditEvent::DanglingReference {
            dom: DomainId::DOM0,
            mfn: Mfn::new(7),
            detail: "x".into(),
        };
        assert_eq!(e.kind(), "dangling-reference");
    }
}
