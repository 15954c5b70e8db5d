//! Shared helpers for the benchmark harness and the table/figure
//! regenerators.
//!
//! Every table and figure of the paper has a binary that regenerates it:
//!
//! | artefact | binary |
//! |---|---|
//! | Fig. 1 (threat chain / extended AVI) | `fig1_avi_chain` |
//! | Fig. 2 (methodology overview) | `fig2_methodology` |
//! | Fig. 3 (intrusion model abstraction) | `fig3_intrusion_model` |
//! | Table I (abusive functionalities) | `table1_abusive_functionalities` |
//! | Table II (use cases) | `table2_use_cases` |
//! | Fig. 4 (validation on Xen 4.6) | `fig4_validation` |
//! | Table III (non-vulnerable versions) | `table3_campaign` |
//!
//! Run one with `cargo run -p bench --bin <name>`; none takes an argument
//! (see [`reject_arguments`]). Criterion benches live under `benches/`
//! (`cargo bench -p bench`).

use guestos::World;
use hvsim::XenVersion;
use hvsim_mem::DomainId;
use intrusion_core::campaign::standard_world;
use intrusion_core::{
    AbusiveFunctionality, Campaign, ErroneousStateSpec, Injector, IntrusionModel, Mode, Monitor,
    ScenarioOutcome, StreamReport, UseCase,
};
use xsa_exploits::paper_use_cases;

/// Exits 2 with a usage line if the regenerator `name` got any
/// argument. Every regenerator takes none, so a flag it would ignore is
/// refused instead of looking as if it had taken effect; `hint` says
/// where such flags do exist.
pub fn reject_arguments(name: &str, hint: Option<&str>) {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("{name} takes no arguments, got '{arg}'");
        match hint {
            Some(hint) => eprintln!("usage: {name} ({hint})"),
            None => eprintln!("usage: {name}"),
        }
        std::process::exit(2);
    }
}

/// Builds the standard world plus the attacker handle used everywhere.
///
/// The regenerators are batch tools, not the fail-soft campaign engine:
/// a boot failure here is unrecoverable, so this panics instead of
/// threading `BootError` through every binary.
pub fn attack_world(version: XenVersion, injector: bool) -> (World, DomainId) {
    let world = standard_world(version, injector).expect("standard world boots");
    let attacker = world.domain_by_name("guest03").expect("standard world has guest03");
    (world, attacker)
}

/// The full paper campaign (4 use cases × 3 versions × 2 modes), ready
/// to configure (worker count, snapshot reuse) and run.
pub fn paper_campaign() -> Campaign {
    let mut campaign = Campaign::new();
    for uc in paper_use_cases() {
        campaign = campaign.with_use_case(uc);
    }
    campaign
}

/// Runs the full paper campaign with the default configuration and
/// returns the streamed report the artefacts render from.
pub fn run_paper_campaign() -> StreamReport {
    paper_campaign().run_streaming().report
}

/// SplitMix64 — the deterministic per-trial mixer behind
/// [`SyntheticCase`]. Good enough dispersion for synthetic outcome
/// classification; not a CSPRNG and not meant to be.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A cheap, fully deterministic grid use case for exercising the
/// streaming pipeline at ≥100k-cell scale.
///
/// Each trial classifies itself from a SplitMix64 hash of `seed ^
/// trial`: 1 in 16 trials performs a *real* IDT-gate injection through
/// the injector hypercall (so the hot path still exercises world
/// clones, hypercalls, and audits), the rest synthesize their outcome
/// directly; some report an injection error (assessment data, not
/// degradation). The monitor is empty, so per-cell cost stays near the
/// world-clone floor and throughput numbers measure the pipeline, not
/// the detectors.
pub struct SyntheticCase {
    seed: u64,
}

impl SyntheticCase {
    /// A synthetic case whose trial stream is derived from `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }
}

impl UseCase for SyntheticCase {
    fn name(&self) -> &'static str {
        "synthetic-grid"
    }

    fn intrusion_model(&self) -> IntrusionModel {
        IntrusionModel::guest_hypercall_memory(
            "IM-synthetic-grid",
            AbusiveFunctionality::WriteUnauthorizedArbitraryMemory,
            &[],
        )
    }

    fn run_exploit(&self, _world: &mut World, _attacker: DomainId) -> ScenarioOutcome {
        ScenarioOutcome::failed("-ENOSYS (synthetic grid has no exploit path)")
    }

    fn run_injection(
        &self,
        world: &mut World,
        attacker: DomainId,
        injector: &dyn Injector,
    ) -> ScenarioOutcome {
        self.run_injection_trial(world, attacker, injector, 0)
    }

    fn run_injection_trial(
        &self,
        world: &mut World,
        attacker: DomainId,
        injector: &dyn Injector,
        trial: u64,
    ) -> ScenarioOutcome {
        let x = splitmix64(self.seed ^ trial);
        if x.is_multiple_of(16) {
            // A real injection so the grid still exercises the
            // hypercall/audit path end to end.
            let spec = ErroneousStateSpec::OverwriteIdtGate {
                cpu: 0,
                vector: (x >> 8) as u8,
                value: x | 1,
            };
            return match injector.inject(world, attacker, &spec) {
                Ok(evidence) => ScenarioOutcome {
                    erroneous_state: evidence.audit.present,
                    state_audit: Some(evidence.audit),
                    notes: Vec::new(),
                    error: None,
                },
                Err(e) => ScenarioOutcome::failed(e.to_string()),
            };
        }
        ScenarioOutcome {
            erroneous_state: !x.is_multiple_of(3),
            state_audit: None,
            notes: Vec::new(),
            error: x.is_multiple_of(5).then(|| format!("-EAGAIN (synthetic trial {trial})")),
        }
    }

    fn monitor(&self, _world: &World, _attacker: DomainId) -> Monitor {
        Monitor::new()
    }
}

/// A synthetic streaming campaign: one [`SyntheticCase`] × all three
/// versions × injection mode × `trials` — `3 × trials` cells total.
pub fn synthetic_campaign(seed: u64, trials: u64) -> Campaign {
    Campaign::new()
        .with_use_case(Box::new(SyntheticCase::new(seed)))
        .modes(&[Mode::Injection])
        .trials(trials)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attack_world_boots() {
        let (world, attacker) = attack_world(XenVersion::V4_6, true);
        assert!(world.hv().injector_enabled());
        assert_eq!(world.kernel(attacker).unwrap().hostname(), "guest03");
    }
}
