//! **Intrusion injection for virtualized systems** — a full reproduction
//! of the DSN 2023 paper *"Intrusion Injection for Virtualized Systems:
//! Concepts and Approach"* (Gonçalves, Antunes, Vieira).
//!
//! # The idea
//!
//! Fault injection validates fault tolerance by injecting *errors* (the
//! effects of faults) instead of root faults. Intrusion injection applies
//! the same move to security: instead of attacking a hypervisor through a
//! real exploit chain, **inject the erroneous state a successful
//! intrusion would leave behind**, then observe whether the system
//! suffers a security violation or handles the state. This decouples
//! security assessment from the availability of working exploits and
//! covers (potentially unknown) vulnerabilities that lead to the same
//! states.
//!
//! # What this crate provides
//!
//! * [`avi`] — the chain-of-dependability-threats / extended-AVI model
//!   vocabulary (attack → vulnerability → intrusion → erroneous state →
//!   security violation), Fig. 1 of the paper,
//! * [`taxonomy`] — the **abusive functionality** taxonomy of Table I
//!   (15 functionalities in 4 classes over 100 Xen CVEs),
//! * [`model`] — **intrusion models**: triggering source, target
//!   component, attack interface, abusive functionality (§IV-B/C), plus
//!   the internal-vs-abstracted state traces of Fig. 3,
//! * [`erroneous_state`] — machine-checkable erroneous-state
//!   specifications with audits (the paper's page-table-walk audits),
//! * [`injector`] — the [`Injector`] trait and the
//!   [`ArbitraryAccessInjector`] driving the prototype's
//!   `arbitrary_access()` hypercall,
//! * [`monitor`] — security-violation detectors (crash, privilege
//!   escalation, reverse shell, guest-writable page tables,
//!   cross-domain access),
//! * [`scenario`] — the [`UseCase`] abstraction tying an intrusion model
//!   to an exploit path and an injection path,
//! * [`campaign`] — the assessment campaign runner,
//! * [`stream`] — the streamed campaign report that Table III and
//!   Figs. 2/4 render from,
//! * [`randomized`] — fuzz-style randomized injection within an
//!   intrusion model's constraints (§IV-C's "randomize inputs to an
//!   injector"),
//! * [`report`] — plain-text table rendering shared by the regenerators.
//!
//! # Quickstart
//!
//! ```
//! use guestos::WorldBuilder;
//! use hvsim::XenVersion;
//! use intrusion_core::{ArbitraryAccessInjector, ErroneousStateSpec, Injector};
//! use hvsim::AccessMode;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut world = WorldBuilder::new(XenVersion::V4_13)
//!     .injector(true)
//!     .guest("guest03", 64)
//!     .build()?;
//! let attacker = world.domain_by_name("guest03").unwrap();
//!
//! // Inject the XSA-212-crash erroneous state: corrupt the #PF gate.
//! let gate = world.hv().sidt(0).offset(14 * 16);
//! let spec = ErroneousStateSpec::OverwriteIdtGate {
//!     cpu: 0,
//!     vector: 14,
//!     value: 0x4141_4141_4141_4141,
//! };
//! let evidence = ArbitraryAccessInjector.inject(&mut world, attacker, &spec)?;
//! assert!(evidence.audit.present);
//! # let _ = gate; let _ = AccessMode::LinearRead;
//! # Ok(())
//! # }
//! ```

// The campaign engine must be fail-soft: library paths return the
// typed taxonomy in [`error`] instead of panicking. Tests keep their
// unwraps; the few deliberate exceptions are annotated in place.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod avi;
pub mod benchmark;
pub mod campaign;
pub mod chaos;
pub mod checkpoint;
pub mod erroneous_state;
pub mod error;
pub mod injector;
pub mod model;
pub mod monitor;
pub mod obs_bridge;
pub mod randomized;
pub mod report;
pub mod scenario;
pub mod stream;
pub mod taxonomy;
mod telemetry;

pub use avi::{ThreatChain, ThreatLink, ThreatStage};
pub use benchmark::{SecurityAttribute, SecurityBenchmark, VersionScore};
pub use campaign::{default_jobs, Campaign, CampaignReport, CellResult, PhaseTimings, WorldFactory};
pub use chaos::ChaosPolicy;
pub use checkpoint::{read_header, JournalHeader};
pub use error::{quiet_contained_panics, CampaignError, CellId, CellOutcome, CheckpointError};
pub use erroneous_state::{AuditEvidence, ErroneousStateSpec, StateAudit};
pub use injector::{ArbitraryAccessInjector, DebugStubInjector, InjectError, InjectionEvidence, Injector};
pub use model::{AttackInterface, IntrusionModel, StateTrace, TargetComponent, TriggeringSource};
pub use monitor::{Detector, Monitor, Observation, SecurityViolation};
pub use randomized::{RandomizedCampaign, RandomizedOutcome, RandomizedSummary, TargetRegion};
pub use report::{render_table2, TextTable};
pub use scenario::{Mode, Note, ScenarioOutcome, UseCase};
pub use stream::{
    CellSpec, DegradedSlot, KeySummary, LatencyBreakdown, MergeError, PhaseLatency, Shard,
    ShardError, SpecGrid, StreamOutcome, StreamReport, StreamRunStats,
};
pub use taxonomy::{AbusiveFunctionality, FunctionalityClass};
