//! Use cases: an intrusion model with an exploit path and an injection
//! path.
//!
//! Each of the paper's four use cases (Table II) is a [`UseCase`]: it
//! carries the instantiated [`IntrusionModel`], can run the original
//! third-party exploit strategy, and can inject the equivalent erroneous
//! state with an [`Injector`] and then attempt the same abuse.

use crate::erroneous_state::StateAudit;
use crate::injector::Injector;
use crate::model::IntrusionModel;
use crate::monitor::Monitor;
use guestos::World;
use hvsim_mem::DomainId;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;

/// Whether a run used the original exploit or the injector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Mode {
    /// Run the real exploit (works only where the vulnerability exists).
    Exploit,
    /// Inject the erroneous state with the intrusion injector.
    Injection,
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Mode::Exploit => "exploit",
            Mode::Injection => "injection",
        })
    }
}

/// What a use-case run reported about itself.
///
/// The *security violation* judgment is made separately by the
/// [`Monitor`]; the outcome reports whether the erroneous state was
/// induced, with the audit evidence, plus the run's log.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScenarioOutcome {
    /// Whether the erroneous state was induced (per the audit).
    pub erroneous_state: bool,
    /// The state audit, when one was performed.
    pub state_audit: Option<StateAudit>,
    /// Noteworthy steps (mirrors the exploit transcripts in the paper);
    /// a fixed note is borrowed, not copied.
    pub notes: Vec<Cow<'static, str>>,
    /// Why the run failed to induce the state, if it did (e.g.
    /// "memory_exchange returned -EFAULT (bad address)").
    pub error: Option<String>,
}

impl ScenarioOutcome {
    /// A failed run with an error message.
    pub fn failed(error: impl Into<String>) -> Self {
        Self {
            erroneous_state: false,
            state_audit: None,
            notes: Vec::new(),
            error: Some(error.into()),
        }
    }

    /// Appends a note.
    pub fn note(&mut self, line: impl Into<Cow<'static, str>>) {
        self.notes.push(line.into());
    }
}

/// One use case of the evaluation (paper Table II).
///
/// `Send + Sync` because campaign cells run on worker threads sharing
/// the use-case objects by reference.
pub trait UseCase: Send + Sync {
    /// The use-case name as printed in the paper (e.g. `XSA-212-crash`).
    fn name(&self) -> &'static str;

    /// The instantiated intrusion model.
    fn intrusion_model(&self) -> IntrusionModel;

    /// Runs the original exploit strategy as `attacker`.
    fn run_exploit(&self, world: &mut World, attacker: DomainId) -> ScenarioOutcome;

    /// Injects the equivalent erroneous state with `injector` and then
    /// attempts the same abuse the exploit would perform on top of it.
    fn run_injection(
        &self,
        world: &mut World,
        attacker: DomainId,
        injector: &dyn Injector,
    ) -> ScenarioOutcome;

    /// Runs the exploit for one trial of a parameter grid. The default
    /// ignores the trial index and delegates to [`UseCase::run_exploit`]
    /// — the paper's use cases are single-shot; grid-style cases
    /// override this to vary their parameters by trial.
    fn run_exploit_trial(
        &self,
        world: &mut World,
        attacker: DomainId,
        trial: u64,
    ) -> ScenarioOutcome {
        let _ = trial;
        self.run_exploit(world, attacker)
    }

    /// Runs the injection path for one trial of a parameter grid; the
    /// default ignores the trial index and delegates to
    /// [`UseCase::run_injection`].
    fn run_injection_trial(
        &self,
        world: &mut World,
        attacker: DomainId,
        injector: &dyn Injector,
        trial: u64,
    ) -> ScenarioOutcome {
        let _ = trial;
        self.run_injection(world, attacker, injector)
    }

    /// The monitor configuration appropriate for this use case.
    fn monitor(&self, world: &World, attacker: DomainId) -> Monitor {
        let _ = (world, attacker);
        Monitor::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_display() {
        assert_eq!(Mode::Exploit.to_string(), "exploit");
        assert_eq!(Mode::Injection.to_string(), "injection");
    }

    #[test]
    fn outcome_helpers() {
        let mut o = ScenarioOutcome::failed("-EFAULT");
        assert!(!o.erroneous_state);
        assert_eq!(o.error.as_deref(), Some("-EFAULT"));
        o.note("step 1");
        assert_eq!(o.notes, vec!["step 1"]);
    }
}
