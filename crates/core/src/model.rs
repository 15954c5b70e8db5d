//! Intrusion models (paper §IV-B and §IV-C) and the state traces of
//! Fig. 3.
//!
//! An **intrusion model** abstracts how an erroneous state is achieved
//! when using an abusive functionality through a given interface. Its
//! instantiation fixes a *triggering source* (who), a *target component*
//! (where) and an *interaction interface* (how), plus the abusive
//! functionality itself. A single model is representative of every
//! (known and unknown) vulnerability whose exploitation leads to the same
//! erroneous state.

use crate::taxonomy::AbusiveFunctionality;
use std::fmt;

/// Who triggers the intrusion.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TriggeringSource {
    /// A privileged user inside an unprivileged guest VM.
    UnprivilegedGuest,
    /// A privileged guest (dom0) under an untrusted-dom0 threat model.
    PrivilegedGuest,
    /// A compromised device driver.
    DeviceDriver,
    /// The management interface / toolstack.
    ManagementInterface,
}

impl fmt::Display for TriggeringSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TriggeringSource::UnprivilegedGuest => "unprivileged guest",
            TriggeringSource::PrivilegedGuest => "privileged guest (dom0)",
            TriggeringSource::DeviceDriver => "device driver",
            TriggeringSource::ManagementInterface => "management interface",
        })
    }
}

/// The virtualization-layer component the intrusion targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TargetComponent {
    /// The memory-management component (page tables, P2M, heap).
    MemoryManagement,
    /// Interrupt/exception handling (IDT, event channels).
    InterruptHandling,
    /// Grant tables.
    GrantTables,
    /// Scheduling.
    Scheduler,
    /// Emulated devices.
    DeviceEmulation,
}

impl fmt::Display for TargetComponent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TargetComponent::MemoryManagement => "memory management",
            TargetComponent::InterruptHandling => "interrupt handling",
            TargetComponent::GrantTables => "grant tables",
            TargetComponent::Scheduler => "scheduler",
            TargetComponent::DeviceEmulation => "device emulation",
        })
    }
}

/// The interface the adversary interacts through.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AttackInterface {
    /// A hypercall (the PV "system call").
    Hypercall,
    /// An I/O request to an emulated device.
    IoRequest,
    /// Shared memory (grant mappings, rings).
    SharedMemory,
}

impl fmt::Display for AttackInterface {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AttackInterface::Hypercall => "hypercall",
            AttackInterface::IoRequest => "I/O request",
            AttackInterface::SharedMemory => "shared memory",
        })
    }
}

/// An instantiated intrusion model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IntrusionModel {
    /// Short identifier (e.g. `"IM-write-arbitrary-memory"`).
    pub name: String,
    /// Prose description.
    pub description: String,
    /// Who triggers it.
    pub triggering_source: TriggeringSource,
    /// The component attacked.
    pub target_component: TargetComponent,
    /// The interaction interface.
    pub interface: AttackInterface,
    /// The abusive functionality the adversary acquires.
    pub abusive_functionality: AbusiveFunctionality,
    /// Advisories this model generalizes (e.g. `["XSA-148", "XSA-182"]`).
    pub related_advisories: Vec<String>,
}

impl IntrusionModel {
    /// The full instantiation used by all four of the paper's use cases:
    /// *"an unprivileged guest virtual machine that uses an hypercall to
    /// target the memory management component in the virtualization
    /// layer"* (§VI-A), parameterized by the abusive functionality.
    pub fn guest_hypercall_memory(
        name: &str,
        functionality: AbusiveFunctionality,
        advisories: &[&str],
    ) -> Self {
        Self {
            name: name.to_owned(),
            description: format!(
                "unprivileged guest VM uses a hypercall to target the memory \
                 management component, acquiring: {functionality}"
            ),
            triggering_source: TriggeringSource::UnprivilegedGuest,
            target_component: TargetComponent::MemoryManagement,
            interface: AttackInterface::Hypercall,
            abusive_functionality: functionality,
            related_advisories: advisories.iter().map(|s| (*s).to_owned()).collect(),
        }
    }
}

impl fmt::Display for IntrusionModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} -> {} via {} [{}]",
            self.name,
            self.triggering_source,
            self.target_component,
            self.interface,
            self.abusive_functionality
        )
    }
}

/// A state-machine trace: Fig. 3's two equivalent views of an intrusion.
///
/// The *internal* view walks every intermediate state the system passes
/// through while the exploit runs; the *abstracted* view collapses the
/// whole path into one **abusive functionality** transition from the
/// initial state to the erroneous state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StateTrace {
    states: Vec<String>,
    transitions: Vec<(usize, String, usize)>,
}

impl StateTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a state, returning its index.
    pub fn state(&mut self, label: impl Into<String>) -> usize {
        self.states.push(label.into());
        self.states.len() - 1
    }

    /// Adds a labelled transition between two states.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn transition(&mut self, from: usize, label: impl Into<String>, to: usize) {
        assert!(from < self.states.len() && to < self.states.len());
        self.transitions.push((from, label.into(), to));
    }

    /// The states.
    pub fn states(&self) -> &[String] {
        &self.states
    }

    /// The transitions as `(from, label, to)` index triples.
    pub fn transitions(&self) -> &[(usize, String, usize)] {
        &self.transitions
    }

    /// Collapses the trace into the abstracted (attacker's) view: initial
    /// state --[abusive functionality]--> erroneous state.
    pub fn abstracted(&self, functionality: AbusiveFunctionality) -> StateTrace {
        let mut t = StateTrace::new();
        let s0 = t.state(self.states.first().cloned().unwrap_or_else(|| "initial".into()));
        let s1 = t.state(
            self.states
                .last()
                .cloned()
                .unwrap_or_else(|| "erroneous state".into()),
        );
        t.transition(s0, format!("abusive functionality: {functionality}"), s1);
        t
    }

    /// Renders the trace as indented text (used by the Fig. 3
    /// regenerator).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (from, label, to) in &self.transitions {
            out.push_str(&format!(
                "  ({}) --[{}]--> ({})\n",
                self.states[*from], label, self.states[*to]
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_instantiation() {
        let im = IntrusionModel::guest_hypercall_memory(
            "IM-write-pte",
            AbusiveFunctionality::GuestWritablePageTableEntry,
            &["XSA-148", "XSA-182"],
        );
        assert_eq!(im.triggering_source, TriggeringSource::UnprivilegedGuest);
        assert_eq!(im.target_component, TargetComponent::MemoryManagement);
        assert_eq!(im.interface, AttackInterface::Hypercall);
        assert_eq!(im.related_advisories, vec!["XSA-148", "XSA-182"]);
        let s = im.to_string();
        assert!(s.contains("unprivileged guest"));
        assert!(s.contains("hypercall"));
    }

    #[test]
    fn trace_and_abstraction() {
        let mut t = StateTrace::new();
        let s1 = t.state("state 1 (initial)");
        let s2 = t.state("state 2");
        let s3 = t.state("erroneous state");
        t.transition(s1, "instruction set a", s2);
        t.transition(s2, "vulnerability activation", s3);
        assert_eq!(t.states().len(), 3);
        assert_eq!(t.transitions().len(), 2);

        let a = t.abstracted(AbusiveFunctionality::WriteUnauthorizedArbitraryMemory);
        assert_eq!(a.states().len(), 2);
        assert_eq!(a.transitions().len(), 1);
        assert!(a.render().contains("abusive functionality"));
        assert!(a.render().contains("state 1 (initial)"));
    }

    #[test]
    #[should_panic]
    fn bad_transition_index_panics() {
        let mut t = StateTrace::new();
        let s = t.state("only");
        t.transition(s, "bad", 7);
    }

    #[test]
    fn display_impls() {
        assert_eq!(TriggeringSource::UnprivilegedGuest.to_string(), "unprivileged guest");
        assert_eq!(TargetComponent::GrantTables.to_string(), "grant tables");
        assert_eq!(AttackInterface::Hypercall.to_string(), "hypercall");
    }
}
