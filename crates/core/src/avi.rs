//! The chain of dependability threats with the extended-AVI model
//! (paper Fig. 1).
//!
//! The classic chain is *fault → error → failure*. The AVI (Attack,
//! Vulnerability, Intrusion) composite fault model specializes the fault
//! end for malicious faults: an **attack** (intentional external fault)
//! activates a **vulnerability** (internal fault), causing an
//! **intrusion**, whose first effect is an **erroneous state**; if the
//! system does not handle that state, a **security violation** (a failure
//! affecting a security attribute) follows.

use std::fmt;

/// One stage of the extended-AVI threat chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ThreatStage {
    /// The intentional act against the system (malicious external fault).
    Attack,
    /// The internal fault the attack activates.
    Vulnerability,
    /// Attack meets vulnerability: the adversary is "inside".
    Intrusion,
    /// The intrusion's first effect on system state.
    ErroneousState,
    /// The failure: a security attribute is violated.
    SecurityViolation,
    /// Alternative terminal: the system processed the erroneous state.
    Handled,
}

impl ThreatStage {
    /// The stage intrusion injection enters the chain at: it skips
    /// attack/vulnerability/intrusion and produces the erroneous state
    /// directly (the red dotted arrow of Fig. 2).
    pub const INJECTION_ENTRY: ThreatStage = ThreatStage::ErroneousState;
}

impl fmt::Display for ThreatStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ThreatStage::Attack => "attack",
            ThreatStage::Vulnerability => "vulnerability",
            ThreatStage::Intrusion => "intrusion",
            ThreatStage::ErroneousState => "erroneous state",
            ThreatStage::SecurityViolation => "security violation",
            ThreatStage::Handled => "handled",
        })
    }
}

/// One concrete link in a threat chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreatLink {
    /// The stage this link instantiates.
    pub stage: ThreatStage,
    /// What concretely happened (e.g. "`memory_exchange` hypercall with
    /// crafted out handle").
    pub what: String,
}

/// A concrete instantiation of the threat chain, buildable from a real
/// run of an exploit or an injection.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ThreatChain {
    links: Vec<ThreatLink>,
}

impl ThreatChain {
    /// An empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a link. Stages must be non-decreasing (the chain flows
    /// left to right in Fig. 1).
    ///
    /// # Panics
    ///
    /// Panics if `stage` precedes the last link's stage.
    pub fn push(&mut self, stage: ThreatStage, what: impl Into<String>) -> &mut Self {
        if let Some(last) = self.links.last() {
            assert!(
                stage >= last.stage,
                "threat chain must be ordered: {stage} after {}",
                last.stage
            );
        }
        self.links.push(ThreatLink {
            stage,
            what: what.into(),
        });
        self
    }

    /// The links, in order.
    pub fn links(&self) -> &[ThreatLink] {
        &self.links
    }

    /// `true` if the chain ends in a security violation.
    pub fn violated(&self) -> bool {
        self.links
            .last()
            .is_some_and(|l| l.stage == ThreatStage::SecurityViolation)
    }

    /// `true` if the chain was handled (the paper's shield).
    pub fn handled(&self) -> bool {
        self.links.last().is_some_and(|l| l.stage == ThreatStage::Handled)
    }

    /// The stage the chain begins at — [`ThreatStage::Attack`] for a
    /// traditional run, [`ThreatStage::ErroneousState`] for an injection.
    pub fn entry_stage(&self) -> Option<ThreatStage> {
        self.links.first().map(|l| l.stage)
    }

    /// The generic chain of Fig. 1, instantiated with the paper's running
    /// VENOM (XSA-133) example.
    pub fn fig1_example() -> ThreatChain {
        let mut c = ThreatChain::new();
        c.push(
            ThreatStage::Attack,
            "malicious guest sends oversized buffer to the QEMU floppy disk controller",
        )
        .push(
            ThreatStage::Vulnerability,
            "XSA-133 (VENOM): FDC does not restrict operations on its input",
        )
        .push(ThreatStage::Intrusion, "FDC internal buffer overflows")
        .push(
            ThreatStage::ErroneousState,
            "memory that should be inaccessible is corrupted",
        )
        .push(
            ThreatStage::SecurityViolation,
            "privilege escalation on the host",
        );
        c
    }
}

impl fmt::Display for ThreatChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, link) in self.links.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            write!(f, "[{}] {}", link.stage, link.what)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_example_is_complete_and_ordered() {
        let c = ThreatChain::fig1_example();
        assert_eq!(c.links().len(), 5);
        assert!(c.violated());
        assert!(!c.handled());
        assert_eq!(c.entry_stage(), Some(ThreatStage::Attack));
        let stages: Vec<_> = c.links().iter().map(|l| l.stage).collect();
        let mut sorted = stages.clone();
        sorted.sort();
        assert_eq!(stages, sorted);
    }

    #[test]
    fn injection_chain_enters_at_erroneous_state() {
        let mut c = ThreatChain::new();
        c.push(ThreatStage::INJECTION_ENTRY, "IDT #PF gate overwritten via injector")
            .push(ThreatStage::SecurityViolation, "double fault -> hypervisor crash");
        assert_eq!(c.entry_stage(), Some(ThreatStage::ErroneousState));
        assert!(c.violated());
    }

    #[test]
    fn handled_chain() {
        let mut c = ThreatChain::new();
        c.push(ThreatStage::ErroneousState, "RW self-map injected")
            .push(ThreatStage::Handled, "hardened walk rejects the self-map");
        assert!(c.handled());
        assert!(!c.violated());
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn out_of_order_chain_panics() {
        let mut c = ThreatChain::new();
        c.push(ThreatStage::ErroneousState, "x")
            .push(ThreatStage::Attack, "y");
    }

    #[test]
    fn display_renders_arrows() {
        let c = ThreatChain::fig1_example();
        let s = c.to_string();
        assert!(s.contains("[attack]"));
        assert!(s.contains(" -> [security violation]"));
    }
}
