//! Simulated paravirtualized guest kernels and the [`World`] harness.
//!
//! The paper's experiments need more than a hypervisor: the exploits
//! fingerprint dom0's start-info page, patch the vDSO shared library to
//! install a backdoor, open reverse shells to a remote host, and drop
//! root-owned files into every domain. This crate provides the guest-side
//! substrate those observable effects live in:
//!
//! * [`GuestKernel`] — a PV kernel that builds its own page tables through
//!   `mmu_update`/pin/`new_baseptr` hypercalls (direct paging), manages a
//!   tiny virtual address space, and keeps a kernel log,
//! * [`Vfs`] / [`Process`] — a minimal in-memory filesystem with uid-based
//!   permissions and processes to exercise them,
//! * [`vdso_image`] / [`Backdoor`] — the fingerprintable vDSO page mapped into every process,
//!   the target the XSA-148 exploit backdoors,
//! * [`RemoteHost`] — the attacker's listener (`nc -l -p 1234`) that
//!   backdoored guests connect reverse shells to,
//! * [`Payload`] — the recognizable "shellcode" blob whose execution in
//!   every domain is the XSA-212-priv privilege escalation,
//! * [`World`] — hypervisor + guests + network in one deterministic unit,
//!   with interrupt-dispatch and vDSO-call semantics,
//! * [`TxnStore`] — a transactional key-value workload used to assess
//!   ACID properties under hypervisor intrusion (paper §III-C).
//!
//! # Example
//!
//! ```
//! use guestos::WorldBuilder;
//! use hvsim::XenVersion;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut world = WorldBuilder::new(XenVersion::V4_6)
//!     .injector(true)
//!     .guest("guest01", 64)
//!     .build()?;
//! let dom = world.domain_by_name("guest01").unwrap();
//! world.kernel_mut(dom)?.klog("hello from the guest kernel");
//! # Ok(())
//! # }
//! ```

mod kernel;
mod net;
mod payload;
mod process;
mod txn;
mod vdso;
mod vfs;
mod world;

pub use kernel::{GuestKernel, TableMfns, KERNEL_BASE};
pub use net::{RemoteHost, SessionId, ShellOutput, ShellReply, ShellSession};
pub use payload::{Payload, PayloadCommand, PAYLOAD_MAGIC};
pub use process::{Process, Uid};
pub use txn::{TxnCheckReport, TxnStore};
pub use vdso::{is_vdso_page, vdso_image, Backdoor, BACKDOOR_MAGIC, VDSO_ENTRY_OFFSET, VDSO_MAGIC};
pub use vfs::{FileMode, Vfs, VfsError};
pub use world::{BootError, BootStage, HandlerOutcome, World, WorldBuilder, WorldError};
