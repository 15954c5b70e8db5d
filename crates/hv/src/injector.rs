//! The intrusion-injection hypercall's access modes.
//!
//! The paper's prototype exposes (§V-B):
//!
//! ```c
//! long arbitrary_access(void* addr, void* buff, size_t n, action_t action);
//! ```
//!
//! where `action` selects read/write and linear/physical address mode. The
//! simulator mirrors the interface exactly; the implementation lives in
//! [`Hypervisor::hc_arbitrary_access`](crate::Hypervisor::hc_arbitrary_access).

use std::fmt;

/// Operation and address mode of an `arbitrary_access` call — the paper's
/// `action_t`.
///
/// A *linear* address is already mapped in the hypervisor (e.g. what
/// `sidt` returns, or a direct-map address); a *physical* address names
/// hardware memory and is mapped by the injector prior to the access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessMode {
    /// `ARBITRARY_READ_LINEAR`.
    LinearRead,
    /// `ARBITRARY_WRITE_LINEAR`.
    LinearWrite,
    /// `ARBITRARY_READ_PHYS`.
    PhysRead,
    /// `ARBITRARY_WRITE_PHYS`.
    PhysWrite,
}

impl AccessMode {
    /// `true` for the write modes.
    pub const fn is_write(self) -> bool {
        matches!(self, AccessMode::LinearWrite | AccessMode::PhysWrite)
    }

    /// `true` for the linear-address modes.
    pub const fn is_linear(self) -> bool {
        matches!(self, AccessMode::LinearRead | AccessMode::LinearWrite)
    }

    /// Audit-log label.
    pub const fn label(self) -> &'static str {
        match self {
            AccessMode::LinearRead => "linear read",
            AccessMode::LinearWrite => "linear write",
            AccessMode::PhysRead => "physical read",
            AccessMode::PhysWrite => "physical write",
        }
    }
}

impl fmt::Display for AccessMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_predicates() {
        assert!(AccessMode::LinearWrite.is_write());
        assert!(AccessMode::LinearWrite.is_linear());
        assert!(!AccessMode::PhysRead.is_write());
        assert!(!AccessMode::PhysRead.is_linear());
    }

    #[test]
    fn labels() {
        assert_eq!(AccessMode::PhysWrite.to_string(), "physical write");
        assert_eq!(AccessMode::LinearRead.label(), "linear read");
    }
}
