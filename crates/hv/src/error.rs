//! Hypervisor error type with Xen-style errno mapping.

use hvsim_mem::MemError;
use hvsim_paging::PageFault;
use std::error::Error;
use std::fmt;

/// Errors returned by hypercalls and hypervisor operations.
///
/// The variants mirror the errno values Xen hypercalls return; the paper's
/// experiments observe them directly (e.g. the XSA-212 exploit "fails with
/// a return code of `-EFAULT`" on fixed versions).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum HvError {
    /// `-EFAULT`: bad address (the canonical "exploit fails on a fixed
    /// version" return code).
    Fault,
    /// `-EINVAL`: validation rejected the request.
    Inval,
    /// `-EPERM`: the calling domain lacks the required privilege.
    Perm,
    /// `-ENOMEM`: out of frames or quota.
    NoMem,
    /// `-ENOSYS`: hypercall not compiled into this build (e.g. the
    /// injector hypercall on a stock build).
    NoSys,
    /// `-ESRCH`: no such domain.
    NoDomain,
    /// The hypervisor has crashed; no further hypercalls are served.
    Crashed,
    /// A guest-context page fault surfaced through a hypercall path.
    GuestFault(PageFault),
    /// An internal machine-memory error (bad frame, out of range).
    Mem(MemError),
}

impl HvError {
    /// The Xen/Linux errno value for this error (negative, as returned in
    /// hypercall result registers). [`HvError::Crashed`] maps to `-EIO`.
    pub fn errno(&self) -> i64 {
        match self {
            HvError::Fault | HvError::GuestFault(_) => -14,
            HvError::Inval => -22,
            HvError::Perm => -1,
            HvError::NoMem => -12,
            HvError::NoSys => -38,
            HvError::NoDomain => -3,
            HvError::Crashed => -5,
            HvError::Mem(_) => -14,
        }
    }

    /// `true` for `-EFAULT`-class errors (bad address), the signature the
    /// paper reports for fixed-version exploit attempts.
    pub fn is_fault(&self) -> bool {
        self.errno() == -14
    }
}

impl fmt::Display for HvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HvError::Fault => f.write_str("bad address (-EFAULT)"),
            HvError::Inval => f.write_str("invalid argument (-EINVAL)"),
            HvError::Perm => f.write_str("operation not permitted (-EPERM)"),
            HvError::NoMem => f.write_str("out of memory (-ENOMEM)"),
            HvError::NoSys => f.write_str("hypercall not implemented (-ENOSYS)"),
            HvError::NoDomain => f.write_str("no such domain (-ESRCH)"),
            HvError::Crashed => f.write_str("hypervisor has crashed"),
            HvError::GuestFault(pf) => write!(f, "guest fault: {pf}"),
            HvError::Mem(e) => write!(f, "machine memory error: {e}"),
        }
    }
}

impl Error for HvError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            HvError::GuestFault(pf) => Some(pf),
            HvError::Mem(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MemError> for HvError {
    fn from(e: MemError) -> Self {
        HvError::Mem(e)
    }
}

impl From<PageFault> for HvError {
    fn from(pf: PageFault) -> Self {
        HvError::GuestFault(pf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvsim_mem::VirtAddr;
    use hvsim_paging::{AccessKind, PageFaultKind};

    #[test]
    fn errno_values_match_xen() {
        assert_eq!(HvError::Fault.errno(), -14);
        assert_eq!(HvError::Inval.errno(), -22);
        assert_eq!(HvError::NoSys.errno(), -38);
        assert_eq!(HvError::NoMem.errno(), -12);
        assert!(HvError::Fault.is_fault());
        assert!(!HvError::Inval.is_fault());
    }

    #[test]
    fn guest_fault_wraps_page_fault() {
        let pf = PageFault::new(VirtAddr::new(0x1000), AccessKind::Write, PageFaultKind::NotPresent { level: 1 });
        let err: HvError = pf.clone().into();
        assert!(err.is_fault());
        assert!(err.to_string().contains("guest fault"));
        assert!(Error::source(&err).is_some());
        assert_eq!(err, HvError::GuestFault(pf));
    }

    #[test]
    fn mem_error_converts() {
        let err: HvError = MemError::NoFreeFrames.into();
        assert_eq!(err.errno(), -14);
        assert!(err.to_string().contains("machine memory"));
    }
}
