//! System monitoring: security-violation detectors.
//!
//! "As a security violation may happen or not, depending on the capacity
//! of the system to deal with intrusions, system monitoring is needed to
//! evaluate how the system behaves in the presence of the erroneous
//! state." (§IV-A). Each [`Detector`] checks one observable violation
//! class; a [`Monitor`] runs a set of them and merges the findings.

use guestos::{Uid, World};
use hvsim_mem::{DomainId, Mfn, VirtAddr};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// An observed security violation (a failure affecting a security
/// attribute).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SecurityViolation {
    /// The hypervisor panicked (availability).
    HypervisorCrash {
        /// The panic message, shared with the hypervisor's crash record.
        message: Arc<str>,
    },
    /// A root-owned artifact appeared in every domain (integrity +
    /// confidentiality: arbitrary code ran as root everywhere).
    PrivilegeEscalationAllDomains {
        /// The artifact path.
        path: Cow<'static, str>,
    },
    /// A root reverse shell was established from a domain.
    RemoteRootShell {
        /// The compromised domain.
        domain: DomainId,
    },
    /// A guest holds a writable mapping of its own page tables.
    GuestWritablePageTable {
        /// The virtual address of the writable self-map.
        va: VirtAddr,
    },
    /// A domain accessed a frame owned by another domain.
    CrossDomainAccess {
        /// The accessing domain.
        dom: DomainId,
        /// The foreign frame.
        mfn: Mfn,
    },
    /// Application-level integrity was lost (e.g. the ACID checker found
    /// corrupted transactions).
    IntegrityLoss {
        /// What was corrupted.
        what: String,
    },
    /// A domain received virtual interrupts on ports it never bound.
    UncontrolledInterrupts {
        /// The victim domain.
        dom: DomainId,
        /// The spurious ports.
        ports: Vec<u16>,
    },
    /// A domain was paused/stopped without a legitimate request.
    AvailabilityLoss {
        /// The affected domain.
        dom: DomainId,
    },
}

impl fmt::Display for SecurityViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SecurityViolation::HypervisorCrash { message } => {
                write!(f, "hypervisor crash: {message}")
            }
            SecurityViolation::PrivilegeEscalationAllDomains { path } => {
                write!(f, "privilege escalation in all domains ({path})")
            }
            SecurityViolation::RemoteRootShell { domain } => {
                write!(f, "remote root shell into {domain}")
            }
            SecurityViolation::GuestWritablePageTable { va } => {
                write!(f, "guest-writable page table at {va}")
            }
            SecurityViolation::CrossDomainAccess { dom, mfn } => {
                write!(f, "{dom} accessed foreign frame {mfn}")
            }
            SecurityViolation::IntegrityLoss { what } => write!(f, "integrity loss: {what}"),
            SecurityViolation::UncontrolledInterrupts { dom, ports } => {
                write!(f, "{dom} received uncontrolled interrupts on ports {ports:?}")
            }
            SecurityViolation::AvailabilityLoss { dom } => {
                write!(f, "availability loss: {dom} paused without request")
            }
        }
    }
}

/// One violation detector.
///
/// `Send + Sync` so monitors can be built and consulted on campaign
/// worker threads.
pub trait Detector: Send + Sync {
    /// Detector name for reports.
    fn name(&self) -> &'static str;
    /// Inspects the world and reports violations.
    fn observe(&self, world: &World) -> Vec<SecurityViolation>;
}

/// Detects a hypervisor panic.
#[derive(Clone, Copy, Debug, Default)]
pub struct CrashDetector;

impl Detector for CrashDetector {
    fn name(&self) -> &'static str {
        "crash"
    }

    fn observe(&self, world: &World) -> Vec<SecurityViolation> {
        world
            .hv()
            .crash_info()
            .map(|c| {
                vec![SecurityViolation::HypervisorCrash {
                    message: Arc::clone(&c.message),
                }]
            })
            .unwrap_or_default()
    }
}

/// Detects the XSA-212-priv outcome: a root-owned file present in every
/// domain.
#[derive(Clone, Copy, Debug)]
pub struct PrivEscFileDetector {
    /// The artifact path to look for.
    pub path: &'static str,
}

impl PrivEscFileDetector {
    /// Watches for `path` in every domain.
    pub const fn new(path: &'static str) -> Self {
        Self { path }
    }
}

impl Detector for PrivEscFileDetector {
    fn name(&self) -> &'static str {
        "privilege-escalation-file"
    }

    fn observe(&self, world: &World) -> Vec<SecurityViolation> {
        let all = world.file_in_all_domains(self.path);
        let root_owned = world.domains().all(|d| {
            world
                .kernel(d)
                .ok()
                .and_then(|k| k.vfs().owner(self.path))
                .map(|o| o == Uid::ROOT)
                .unwrap_or(false)
        });
        if all && root_owned {
            vec![SecurityViolation::PrivilegeEscalationAllDomains {
                path: self.path.into(),
            }]
        } else {
            Vec::new()
        }
    }
}

/// Detects established root reverse shells.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReverseShellDetector;

impl Detector for ReverseShellDetector {
    fn name(&self) -> &'static str {
        "reverse-shell"
    }

    fn observe(&self, world: &World) -> Vec<SecurityViolation> {
        world
            .remote()
            .sessions()
            .iter()
            .filter(|s| s.uid.is_root())
            .map(|s| SecurityViolation::RemoteRootShell { domain: s.domain })
            .collect()
    }
}

/// Detects a *usable* writable page-table self-map: the erroneous state
/// of XSA-182, counted as a violation only if the guest can actually
/// write through it (the hardened layout shields the injected state).
#[derive(Clone, Copy, Debug)]
pub struct WritablePageTableDetector {
    /// The domain under test.
    pub dom: DomainId,
    /// The self-map virtual address to probe.
    pub va: VirtAddr,
}

impl Detector for WritablePageTableDetector {
    fn name(&self) -> &'static str {
        "writable-page-table"
    }

    fn observe(&self, world: &World) -> Vec<SecurityViolation> {
        // Probe without side effects: translate and check writability.
        match world.hv().guest_translate(self.dom, self.va) {
            Ok(t) if t.writable() => {
                // The mapping must actually reach a page-table frame.
                let is_pt = world
                    .hv()
                    .mem()
                    .info(t.mfn)
                    .map(|i| i.page_type().is_page_table())
                    .unwrap_or(false);
                if is_pt {
                    vec![SecurityViolation::GuestWritablePageTable { va: self.va }]
                } else {
                    Vec::new()
                }
            }
            _ => Vec::new(),
        }
    }
}

/// Detects retained access to frames now owned by someone else.
#[derive(Clone, Copy, Debug, Default)]
pub struct CrossDomainAccessDetector;

impl Detector for CrossDomainAccessDetector {
    fn name(&self) -> &'static str {
        "cross-domain-access"
    }

    fn observe(&self, world: &World) -> Vec<SecurityViolation> {
        let mut found = Vec::new();
        for dom in world.domains() {
            let Ok(d) = world.hv().domain(dom) else { continue };
            for mfn in d.retained_frames() {
                let owner = world.hv().mem().info(mfn).ok().and_then(|i| i.owner());
                match owner {
                    Some(o) if o != dom => {
                        found.push(SecurityViolation::CrossDomainAccess { dom, mfn })
                    }
                    _ => {}
                }
            }
        }
        found
    }
}

/// Detects spurious pending events (interrupts on never-bound ports)
/// across all domains.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpuriousInterruptDetector;

impl Detector for SpuriousInterruptDetector {
    fn name(&self) -> &'static str {
        "spurious-interrupts"
    }

    fn observe(&self, world: &World) -> Vec<SecurityViolation> {
        world
            .domains()
            .filter_map(|dom| {
                let ports = world.hv().spurious_pending_ports(dom);
                if ports.is_empty() {
                    None
                } else {
                    Some(SecurityViolation::UncontrolledInterrupts { dom, ports })
                }
            })
            .collect()
    }
}

/// Detects domains that are paused although the test harness issued no
/// pause — the availability erroneous state of the management-interface
/// intrusion models.
#[derive(Clone, Copy, Debug, Default)]
pub struct UnexpectedPauseDetector;

impl Detector for UnexpectedPauseDetector {
    fn name(&self) -> &'static str {
        "unexpected-pause"
    }

    fn observe(&self, world: &World) -> Vec<SecurityViolation> {
        world
            .domains()
            .filter(|&d| {
                world
                    .hv()
                    .domain(d)
                    .map(|dom| dom.is_paused())
                    .unwrap_or(false)
            })
            .map(|dom| SecurityViolation::AvailabilityLoss { dom })
            .collect()
    }
}

/// Runs the hypervisor's exhaustive PV-invariant audit and reports any
/// violated invariant as an erroneous state observation. This detector
/// surfaces *latent* erroneous states — injected or leaked states that
/// have not yet produced an externally visible violation.
#[derive(Clone, Copy, Debug, Default)]
pub struct PvInvariantDetector;

impl Detector for PvInvariantDetector {
    fn name(&self) -> &'static str {
        "pv-invariants"
    }

    fn observe(&self, world: &World) -> Vec<SecurityViolation> {
        world
            .hv()
            .audit_pv_invariants()
            .into_iter()
            .map(|v| SecurityViolation::IntegrityLoss { what: v.to_string() })
            .collect()
    }
}

/// The standard detector set every campaign runs, shared by every
/// monitor built from [`Monitor::standard`].
static STANDARD: [&dyn Detector; 4] = [
    &CrashDetector,
    &PrivEscFileDetector::new("/tmp/injector_log"),
    &ReverseShellDetector,
    &CrossDomainAccessDetector,
];

/// A set of detectors run together: a shared static set (empty or
/// [`Monitor::standard`]'s) followed by the detectors added to this
/// monitor. Building the standard monitor allocates nothing.
#[derive(Default)]
pub struct Monitor {
    shared: &'static [&'static dyn Detector],
    added: Vec<Box<dyn Detector>>,
}

impl fmt::Debug for Monitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Monitor")
            .field("detectors", &self.detectors().map(|d| d.name()).collect::<Vec<_>>())
            .finish()
    }
}

/// The merged result of a monitoring pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Observation {
    /// All violations found, in detector order.
    pub violations: Vec<SecurityViolation>,
}

impl Observation {
    /// `true` if no violation was observed (the state was handled).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl Monitor {
    /// An empty monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a detector.
    #[must_use]
    pub fn with(mut self, detector: Box<dyn Detector>) -> Self {
        self.added.push(detector);
        self
    }

    /// The standard detector set every campaign runs (crash, priv-esc
    /// file, reverse shell, cross-domain access).
    pub fn standard() -> Self {
        Monitor { shared: &STANDARD, added: Vec::new() }
    }

    /// Every detector, in the order they run.
    fn detectors(&self) -> impl Iterator<Item = &dyn Detector> {
        self.shared.iter().copied().chain(self.added.iter().map(|d| &**d))
    }

    /// Runs every detector.
    pub fn observe(&self, world: &World) -> Observation {
        let mut violations = Vec::new();
        for d in self.detectors() {
            append(&mut violations, d.observe(world));
        }
        Observation { violations }
    }

    /// Runs every detector with per-detector panic containment: a
    /// panicking detector loses its own observations but not the rest
    /// of the monitor's. Returns the observation plus one
    /// `"name: payload"` record per failed detector — the campaign
    /// surfaces those as [`crate::error::CampaignError::Monitor`].
    ///
    /// Containment is sound: detectors only read `&World`, and a
    /// world is plain owned data that cannot be left half-mutated by a
    /// `&`-borrow.
    pub fn observe_contained(&self, world: &World) -> (Observation, Vec<String>) {
        let mut violations = Vec::new();
        let mut failures = Vec::new();
        for d in self.detectors() {
            match crate::error::contain(|| d.observe(world)) {
                Ok(observed) => append(&mut violations, observed),
                Err(payload) => failures.push(format!("{}: {payload}", d.name())),
            }
        }
        (Observation { violations }, failures)
    }
}

/// Appends one detector's findings, taking over its `Vec` when nothing
/// was found before it.
fn append(violations: &mut Vec<SecurityViolation>, observed: Vec<SecurityViolation>) {
    if violations.is_empty() {
        *violations = observed;
    } else {
        violations.extend(observed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guestos::{FileMode, WorldBuilder};
    use hvsim::XenVersion;

    fn world() -> World {
        WorldBuilder::new(XenVersion::V4_6)
            .injector(true)
            .guest("a", 32)
            .guest("b", 32)
            .build()
            .unwrap()
    }

    #[test]
    fn clean_world_observes_nothing() {
        let w = world();
        let obs = Monitor::standard().observe(&w);
        assert!(obs.is_clean());
    }

    #[test]
    fn crash_detector_fires_after_panic() {
        let mut w = world();
        w.hv_mut().crash("DOUBLE FAULT -- system shutdown");
        let obs = Monitor::new().with(Box::new(CrashDetector)).observe(&w);
        assert_eq!(obs.violations.len(), 1);
        assert!(matches!(
            &obs.violations[0],
            SecurityViolation::HypervisorCrash { message } if message.contains("DOUBLE FAULT")
        ));
    }

    #[test]
    fn privesc_detector_requires_every_domain_and_root_owner() {
        let mut w = world();
        let det = PrivEscFileDetector::new("/tmp/injector_log");
        // Present in one domain only: no violation.
        let d0 = w.dom0();
        w.kernel_mut(d0)
            .unwrap()
            .vfs_mut()
            .write("/tmp/injector_log", Uid::ROOT, FileMode::PublicRead, b"x")
            .unwrap();
        assert!(det.observe(&w).is_empty());
        // Present everywhere as root: violation.
        for d in w.domains().collect::<Vec<_>>() {
            w.kernel_mut(d)
                .unwrap()
                .vfs_mut()
                .write("/tmp/injector_log", Uid::ROOT, FileMode::PublicRead, b"x")
                .unwrap();
        }
        assert_eq!(det.observe(&w).len(), 1);
    }

    #[test]
    fn privesc_detector_ignores_non_root_files() {
        let mut w = world();
        for d in w.domains().collect::<Vec<_>>() {
            w.kernel_mut(d)
                .unwrap()
                .vfs_mut()
                .write("/tmp/x", Uid::new(1000), FileMode::Public, b"x")
                .unwrap();
        }
        assert!(PrivEscFileDetector::new("/tmp/x").observe(&w).is_empty());
    }

    #[test]
    fn reverse_shell_detector_only_counts_root() {
        let mut w = world();
        w.remote_mut().listen();
        let a = w.domain_by_name("a").unwrap();
        w.remote_mut().accept(a, Uid::new(1000), "p");
        assert!(ReverseShellDetector.observe(&w).is_empty());
        w.remote_mut().accept(a, Uid::ROOT, "p");
        let v = ReverseShellDetector.observe(&w);
        assert_eq!(v, vec![SecurityViolation::RemoteRootShell { domain: a }]);
    }

    #[test]
    fn cross_domain_detector_fires_on_foreign_retained_frames() {
        let mut w = world();
        let a = w.domain_by_name("a").unwrap();
        let b = w.domain_by_name("b").unwrap();
        let bs_frame = w.hv().domain(b).unwrap().p2m(hvsim_mem::Pfn::new(8)).unwrap();
        w.hv_mut().inject_retain_access(a, bs_frame).unwrap();
        let v = CrossDomainAccessDetector.observe(&w);
        assert_eq!(v, vec![SecurityViolation::CrossDomainAccess { dom: a, mfn: bs_frame }]);
    }

    #[test]
    fn monitor_debug_lists_detectors() {
        let m = Monitor::standard();
        let dbg = format!("{m:?}");
        assert!(dbg.contains("crash"));
        assert!(dbg.contains("reverse-shell"));
    }

    #[test]
    fn violation_display() {
        let v = SecurityViolation::GuestWritablePageTable {
            va: VirtAddr::new(0x1000),
        };
        assert!(v.to_string().contains("guest-writable page table"));
    }
}
