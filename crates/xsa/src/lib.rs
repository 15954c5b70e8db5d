//! The paper's evaluation material: four publicly disclosed Xen exploits
//! re-implemented as guest attack programs, their intrusion-injection
//! counterparts, keep-page-reference extension cases, and the
//! 100-advisory abusive-functionality dataset behind Table I.
//!
//! # The four use cases (paper §VI-A, Table II)
//!
//! | use case | abusive functionality | strategy |
//! |---|---|---|
//! | [`Xsa212Crash`] | Write Arbitrary Memory | corrupt the IDT #PF gate via the unchecked `memory_exchange` handle; the next fault double-faults and panics Xen |
//! | [`Xsa212Priv`]  | Write Arbitrary Memory | hide a payload in physical memory, link a forged PMD into the shared hypervisor L3 so every guest maps it, register it as an interrupt handler, invoke it everywhere |
//! | [`Xsa148Priv`]  | Write Page Table Entries | forge a PSE superpage window over machine memory, scan for dom0's start-info, patch a backdoor into dom0's vDSO, catch a root reverse shell |
//! | [`Xsa182Test`]  | Write Page Table Entries | create a read-only L4 self-map, flip its RW bit through the vulnerable fast path, prove writability through the crafted address |
//!
//! Each type implements [`intrusion_core::UseCase`] with both the
//! *exploit* path (succeeds only on Xen 4.6, where the vulnerabilities
//! exist) and the *injection* path (the same erroneous state induced with
//! the `arbitrary_access` injector, on any version).
//!
//! # Example
//!
//! ```
//! use intrusion_core::{Campaign, Mode};
//! use hvsim::XenVersion;
//! use xsa_exploits::Xsa212Crash;
//!
//! let report = Campaign::new()
//!     .with_use_case(Box::new(Xsa212Crash))
//!     .versions(&[XenVersion::V4_6])
//!     .modes(&[Mode::Exploit])
//!     .run_streaming()
//!     .report;
//! let cell = report.key("XSA-212-crash", XenVersion::V4_6, Mode::Exploit).unwrap();
//! assert_eq!((cell.erroneous_states, cell.violated), (1, 1));
//! ```

pub mod advisories;
mod exploits;
mod extensions;
mod interrupts;

pub use exploits::{
    primitives, Xsa148Priv, Xsa182Test, Xsa212Crash, Xsa212Priv, SELFMAP_INDEX,
};
pub use extensions::{Xsa387Keep, Xsa393Keep};
pub use interrupts::{EvtchnStorm, MgmtPause};

use intrusion_core::UseCase;

/// The paper's four use cases, in Table II order.
pub fn paper_use_cases() -> Vec<Box<dyn UseCase>> {
    vec![
        Box::new(Xsa212Crash),
        Box::new(Xsa212Priv),
        Box::new(Xsa148Priv),
        Box::new(Xsa182Test),
    ]
}

/// The keep-page-reference extension cases (§IV-B's XSA-387/XSA-393
/// discussion, beyond the paper's Table III).
pub fn extension_use_cases() -> Vec<Box<dyn UseCase>> {
    vec![
        Box::new(Xsa393Keep),
        Box::new(Xsa387Keep),
        Box::new(EvtchnStorm),
        Box::new(MgmtPause),
    ]
}
