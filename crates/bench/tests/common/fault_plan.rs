//! Fault plans: harness faults a test places at chosen cells and base
//! worlds of the synthetic grid, through seams every campaign has — a
//! use case whose inject phase panics, and a world factory whose boot
//! fails. Each placement is named, so a test can enumerate them all and
//! knows exactly which slots must degrade, and how.

use bench::SyntheticCase;
use guestos::{BootError, World};
use hvsim::XenVersion;
use hvsim_mem::DomainId;
use intrusion_core::campaign::standard_world;
use intrusion_core::{
    Campaign, CellId, CellOutcome, CellSpec, Injector, IntrusionModel, Mode, Monitor,
    ScenarioOutcome, UseCase, WorldFactory,
};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// One cell of a one-use-case grid. It names the cell's slot exactly.
pub type Cell = (XenVersion, Mode, u64);

/// One base world: `(version, injector enabled)`.
pub type BaseWorld = (XenVersion, bool);

/// The payload of every planned panic.
pub const PANIC: &str = "fault plan: injected panic";

/// Where a campaign's harness faults go.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Cells whose inject phase panics.
    pub panics: Vec<Cell>,
    /// Base worlds whose boot fails. The factory never sees a slot, so
    /// a boot failure degrades every cell of its base world.
    pub boot_failures: Vec<BaseWorld>,
}

impl FaultPlan {
    /// The synthetic use case on `versions` × both modes × `trials`,
    /// with this plan's faults.
    pub fn campaign(&self, versions: &[XenVersion], trials: u64) -> Campaign {
        Campaign::new()
            .with_use_case(self.use_case())
            .versions(versions)
            .trials(trials)
            .world_factory(self.world_factory())
    }

    /// The synthetic use case, panicking in the inject phase of the
    /// planned cells.
    pub fn use_case(&self) -> Box<dyn UseCase> {
        Box::new(PlannedPanics { inner: SyntheticCase::new(7), panics: self.panics.clone() })
    }

    /// The standard world, except that the planned base worlds fail to
    /// boot.
    pub fn world_factory(&self) -> WorldFactory {
        let failing = self.boot_failures.clone();
        Arc::new(move |version, injector| {
            if failing.contains(&(version, injector)) {
                return Err(BootError::new("fault plan", "injected boot failure"));
            }
            Ok(booted(version, injector))
        })
    }

    /// The outcome this plan gives the cell of `spec`. A failed boot
    /// comes first: its cell never reaches the inject phase.
    pub fn outcome(&self, spec: &CellSpec) -> CellOutcome {
        let (version, mode) = (spec.version, spec.mode);
        if self.boot_failures.contains(&(version, mode == Mode::Injection)) {
            CellOutcome::BootFailed
        } else if self.panics.contains(&(version, mode, spec.trial)) {
            let cell = CellId { use_case: "synthetic-grid".to_owned(), version, mode };
            CellOutcome::Crashed { payload: PANIC.to_owned(), cell }
        } else {
            CellOutcome::Completed
        }
    }
}

/// A copy of the standard world of `(version, injector)`, booted once
/// per process. Booting is deterministic, so the copy is the world a
/// fresh boot gives; the enumerations run hundreds of campaigns.
fn booted(version: XenVersion, injector: bool) -> World {
    static WORLDS: OnceLock<BTreeMap<BaseWorld, World>> = OnceLock::new();
    let worlds = WORLDS.get_or_init(|| {
        let keys = XenVersion::ALL.into_iter().flat_map(|v| [(v, false), (v, true)]);
        keys.map(|(v, i)| ((v, i), standard_world(v, i).expect("the standard world boots")))
            .collect()
    });
    worlds[&(version, injector)].clone()
}

/// The synthetic use case, panicking in the inject phase of the
/// planned cells.
struct PlannedPanics {
    inner: SyntheticCase,
    panics: Vec<Cell>,
}

impl PlannedPanics {
    fn check(&self, world: &World, mode: Mode, trial: u64) {
        if self.panics.contains(&(world.hv().version(), mode, trial)) {
            panic!("{PANIC}");
        }
    }
}

impl UseCase for PlannedPanics {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn intrusion_model(&self) -> IntrusionModel {
        self.inner.intrusion_model()
    }

    fn run_exploit(&self, world: &mut World, attacker: DomainId) -> ScenarioOutcome {
        self.run_exploit_trial(world, attacker, 0)
    }

    fn run_injection(
        &self,
        world: &mut World,
        attacker: DomainId,
        injector: &dyn Injector,
    ) -> ScenarioOutcome {
        self.run_injection_trial(world, attacker, injector, 0)
    }

    fn run_exploit_trial(
        &self,
        world: &mut World,
        attacker: DomainId,
        trial: u64,
    ) -> ScenarioOutcome {
        self.check(world, Mode::Exploit, trial);
        self.inner.run_exploit_trial(world, attacker, trial)
    }

    fn run_injection_trial(
        &self,
        world: &mut World,
        attacker: DomainId,
        injector: &dyn Injector,
        trial: u64,
    ) -> ScenarioOutcome {
        self.check(world, Mode::Injection, trial);
        self.inner.run_injection_trial(world, attacker, injector, trial)
    }

    fn monitor(&self, world: &World, attacker: DomainId) -> Monitor {
        self.inner.monitor(world, attacker)
    }
}
