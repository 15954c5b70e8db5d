//! Structured page-fault information.

use hvsim_mem::{MemError, VirtAddr};
use std::error::Error;
use std::fmt;

/// The kind of memory access being attempted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Execute,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::Execute => "execute",
        })
    }
}

/// Why a translation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum PageFaultKind {
    /// The address is not canonical (#GP on real hardware).
    NonCanonical,
    /// A table entry at `level` was not present.
    NotPresent {
        /// Paging level of the missing entry (1..=4).
        level: u8,
    },
    /// Write attempted through a read-only mapping.
    NotWritable {
        /// Paging level whose entry lacked `RW`.
        level: u8,
    },
    /// User access attempted through a supervisor-only mapping.
    NotUser {
        /// Paging level whose entry lacked `USER`.
        level: u8,
    },
    /// Instruction fetch through a no-execute mapping.
    NoExecute,
    /// An entry referenced a frame beyond installed memory.
    BadFrame {
        /// Paging level of the bad entry.
        level: u8,
    },
    /// Hardened layout: translation passed through a writable
    /// self-referencing page-table mapping, which Xen ≥ 4.9 forbids.
    HardenedSelfMap {
        /// Paging level of the rejected self-map.
        level: u8,
    },
}

/// A failed translation: the faulting address, the access kind, and why.
///
/// In the simulator these propagate to the hypervisor's exception-delivery
/// path (`#PF`), which is exactly the surface the XSA-212-crash use case
/// corrupts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageFault {
    /// Faulting virtual address.
    pub va: VirtAddr,
    /// The attempted access.
    pub access: AccessKind,
    /// The reason.
    pub kind: PageFaultKind,
}

impl PageFault {
    /// Convenience constructor.
    pub fn new(va: VirtAddr, access: AccessKind, kind: PageFaultKind) -> Self {
        Self { va, access, kind }
    }
}

impl fmt::Display for PageFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page fault: {} at {}: ", self.access, self.va)?;
        match &self.kind {
            PageFaultKind::NonCanonical => f.write_str("non-canonical address"),
            PageFaultKind::NotPresent { level } => write!(f, "L{level} entry not present"),
            PageFaultKind::NotWritable { level } => write!(f, "L{level} entry not writable"),
            PageFaultKind::NotUser { level } => write!(f, "L{level} entry supervisor-only"),
            PageFaultKind::NoExecute => f.write_str("no-execute mapping"),
            PageFaultKind::BadFrame { level } => write!(f, "L{level} entry references bad frame"),
            PageFaultKind::HardenedSelfMap { level } => {
                write!(f, "L{level} writable self-map rejected by hardened layout")
            }
        }
    }
}

impl Error for PageFault {}

impl From<(VirtAddr, AccessKind, MemError)> for PageFault {
    fn from((va, access, _): (VirtAddr, AccessKind, MemError)) -> Self {
        PageFault::new(va, access, PageFaultKind::BadFrame { level: 0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let pf = PageFault::new(
            VirtAddr::new(0xffff_8040_0000_0000),
            AccessKind::Write,
            PageFaultKind::NotWritable { level: 4 },
        );
        let s = pf.to_string();
        assert!(s.contains("write"));
        assert!(s.contains("0xffff804000000000"));
        assert!(s.contains("L4"));
    }

    #[test]
    fn access_kind_display() {
        assert_eq!(AccessKind::Execute.to_string(), "execute");
    }

    #[test]
    fn error_trait_object_compatible() {
        fn takes_err<E: Error + Send + Sync + 'static>(_: E) {}
        takes_err(PageFault::new(
            VirtAddr::new(0),
            AccessKind::Read,
            PageFaultKind::NonCanonical,
        ));
    }
}
