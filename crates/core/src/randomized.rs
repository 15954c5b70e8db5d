//! Randomized injection inputs within an intrusion model's constraints.
//!
//! "One possibility is to randomize inputs to an injector, creating an
//! approach that resembles fuzzing testing but in another level of
//! interaction, in a post-attack phase." (§IV-C). A [`RandomizedCampaign`]
//! samples erroneous states from a [`TargetRegion`] (the IM's target
//! component made concrete), injects each into a fresh world, exercises
//! the system, and classifies the outcome.
//!
//! A trial is the same experiment as a Table III cell, so it runs on the
//! same engine: the campaign is a one-key grid, `(randomized, <version>,
//! injection)` × `trials`, whose use case samples, injects and shakes
//! per trial index. Containment, claiming and cloning are the grid's.

use crate::campaign::{boot_contained, Campaign, CellResult, CellSink};
use crate::erroneous_state::ErroneousStateSpec;
use crate::error::CampaignError;
use crate::injector::Injector;
use crate::model::IntrusionModel;
use crate::monitor::SecurityViolation;
use crate::report::TextTable;
use crate::scenario::{Mode, Note, ScenarioOutcome, UseCase};
use crate::stream::CellSpec;
use crate::taxonomy::AbusiveFunctionality;
use guestos::{BootError, World};
use hvsim::IDT_ENTRIES;
use hvsim_mem::{DomainId, VirtAddr};
use hvsim_obs::TraceCtx;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::Arc;

/// Where randomized injections land — the concrete footprint of an
/// intrusion model's target component.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TargetRegion {
    /// The IDT gates of one CPU (interrupt-handling component).
    IdtGates {
        /// The CPU whose IDT is sampled.
        cpu: usize,
    },
    /// The shared hypervisor L3 page (memory-management component).
    SharedL3,
    /// The attacker domain's own page-table frames.
    DomainPageTables,
    /// The attacker domain's data frames (application-level corruption).
    DomainFrames,
}

impl TargetRegion {
    /// Samples one erroneous-state specification from this region.
    pub fn sample(self, world: &World, attacker: DomainId, rng: &mut StdRng) -> ErroneousStateSpec {
        let value: u64 = rng.gen();
        match self {
            TargetRegion::IdtGates { cpu } => {
                let vector = rng.gen_range(0..IDT_ENTRIES as u16) as u8;
                ErroneousStateSpec::OverwriteIdtGate { cpu, vector, value }
            }
            TargetRegion::SharedL3 => {
                let index = rng.gen_range(0..512usize);
                ErroneousStateSpec::LinkPmdIntoSharedL3 { index, entry: value }
            }
            TargetRegion::DomainPageTables => {
                let cr3 = world
                    .hv()
                    .domain(attacker)
                    .ok()
                    .and_then(|d| d.cr3())
                    .unwrap_or(hvsim_mem::Mfn::new(0));
                let offset = rng.gen_range(0..512usize) * 8;
                ErroneousStateSpec::WriteFrame {
                    mfn: cr3,
                    offset,
                    bytes: value.to_le_bytes().to_vec(),
                }
            }
            TargetRegion::DomainFrames => {
                let domain = world.hv().domain(attacker).ok();
                // A domain with an empty P2M degrades to frame 0 (the
                // injector will then report the failure) instead of
                // panicking the trial.
                let pick = rng.gen_range(0..domain.map_or(0, |d| d.p2m_len()).max(1));
                let mfn = domain
                    .and_then(|d| d.p2m_iter().nth(pick))
                    .map_or(hvsim_mem::Mfn::new(0), |(_, mfn)| mfn);
                let offset = rng.gen_range(0..4096 - 8);
                ErroneousStateSpec::WriteFrame {
                    mfn,
                    offset,
                    bytes: value.to_le_bytes().to_vec(),
                }
            }
        }
    }

    /// Region label for summaries.
    pub fn label(self) -> &'static str {
        match self {
            TargetRegion::IdtGates { .. } => "IDT gates",
            TargetRegion::SharedL3 => "shared hypervisor L3",
            TargetRegion::DomainPageTables => "domain page tables",
            TargetRegion::DomainFrames => "domain data frames",
        }
    }
}

/// Classification of one randomized trial.
#[derive(Clone, Debug)]
pub struct RandomizedOutcome {
    /// What was injected (label + evidence).
    pub spec: String,
    /// Whether the injector verified the state.
    pub injected: bool,
    /// Whether the hypervisor crashed during activation.
    pub crashed: bool,
    /// Number of security violations observed.
    pub violations: usize,
    /// Wall-clock time for this trial (world clone + injection +
    /// activation + monitoring), in microseconds.
    pub wall_time_us: u64,
    /// Hypercalls executed during this trial (deterministic for a given
    /// seed).
    pub hypercalls: u64,
    /// Set when the harness degraded on this trial (a contained panic,
    /// as for any grid cell); the other fields then carry no assessment
    /// data.
    pub error: Option<CampaignError>,
}

impl RandomizedOutcome {
    /// The outcome of the trial that ran as `cell`.
    fn from_cell(cell: &CellResult, region: TargetRegion) -> Self {
        Self {
            spec: cell.notes.first().map_or_else(
                || format!("(degraded) ({})", region.label()),
                ToString::to_string,
            ),
            injected: cell.erroneous_state,
            crashed: crashed(cell),
            violations: cell.violations.len(),
            wall_time_us: cell.wall_time_us,
            hypercalls: cell.hypercalls,
            error: cell.degraded().then(|| cell.error.clone()).flatten(),
        }
    }
}

/// Whether the trial's monitor saw the hypervisor crash.
fn crashed(cell: &CellResult) -> bool {
    cell.violations
        .iter()
        .any(|v| matches!(v, SecurityViolation::HypervisorCrash { .. }))
}

/// Equality ignores `wall_time_us`: timing is the only
/// non-deterministic field, and reproducibility checks compare
/// outcomes across runs and worker counts.
impl PartialEq for RandomizedOutcome {
    fn eq(&self, other: &Self) -> bool {
        self.spec == other.spec
            && self.injected == other.injected
            && self.crashed == other.crashed
            && self.violations == other.violations
            && self.hypercalls == other.hypercalls
            && self.error == other.error
    }
}

impl Eq for RandomizedOutcome {}

/// Aggregated trial counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RandomizedSummary {
    /// Trials run.
    pub total: usize,
    /// States successfully injected and verified.
    pub injected: usize,
    /// Trials ending in a hypervisor crash.
    pub crashes: usize,
    /// Trials with at least one non-crash violation.
    pub violated: usize,
    /// States injected but fully handled.
    pub handled: usize,
    /// Trials on which the harness degraded (contained panics).
    /// Hypervisor crashes are assessment data, never degradation.
    pub degraded: usize,
}

impl RandomizedSummary {
    /// Counts the trial that ran as `cell`: the one definition of
    /// degraded/crashed/violated/handled that every run uses.
    fn count(&mut self, cell: &CellResult) {
        self.total += 1;
        if cell.degraded() {
            self.degraded += 1;
            return;
        }
        if cell.erroneous_state {
            self.injected += 1;
        }
        if crashed(cell) {
            self.crashes += 1;
        } else if cell.violated() {
            self.violated += 1;
        } else if cell.handled {
            self.handled += 1;
        }
    }

    /// Sums two summaries. Every field is a count of per-trial
    /// indicators, so merging per-worker (or per-shard) summaries is
    /// exact, associative, and commutative.
    #[must_use]
    pub fn merge(&self, other: &Self) -> Self {
        Self {
            total: self.total + other.total,
            injected: self.injected + other.injected,
            crashes: self.crashes + other.crashes,
            violated: self.violated + other.violated,
            handled: self.handled + other.handled,
            degraded: self.degraded + other.degraded,
        }
    }
}

impl fmt::Display for RandomizedSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new([
            "total", "injected", "crashes", "violated", "handled", "degraded",
        ]);
        t.row([
            self.total.to_string(),
            self.injected.to_string(),
            self.crashes.to_string(),
            self.violated.to_string(),
            self.handled.to_string(),
            self.degraded.to_string(),
        ]);
        write!(f, "{t}")
    }
}

/// A randomized injection campaign over one target region.
#[derive(Clone, Copy, Debug)]
pub struct RandomizedCampaign {
    /// The sampled region.
    pub region: TargetRegion,
    /// Number of trials.
    pub trials: usize,
    /// RNG seed (campaigns are reproducible).
    pub seed: u64,
}

impl RandomizedCampaign {
    /// A campaign of `trials` reproducible trials.
    pub fn new(region: TargetRegion, trials: usize, seed: u64) -> Self {
        Self { region, trials, seed }
    }

    /// Runs the campaign on exactly `jobs` worker threads, keeping every
    /// trial's outcome in trial order.
    ///
    /// The factory is called once; every trial starts from a clone of
    /// that base world (booting is deterministic, so a clone is
    /// indistinguishable from a fresh boot). Trial `t` draws from its
    /// own generator seeded `seed ^ t`, so the sampled inputs — and
    /// therefore the outcomes and summary — are identical for every
    /// worker count and every scheduling order.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Boot`] / [`CampaignError::HarnessCrash`] when no
    /// base world could be produced. Per-trial failures are contained
    /// and reported in the outcomes/summary instead.
    pub fn run_with_jobs(
        &self,
        factory: impl Fn() -> Result<(World, DomainId), BootError> + Send + Sync,
        jobs: usize,
    ) -> Result<(RandomizedSummary, Vec<RandomizedOutcome>), CampaignError> {
        let (summary, mut outcomes) = self.run_trials(factory, jobs, true)?;
        outcomes.sort_unstable_by_key(|&(trial, _)| trial);
        Ok((summary, outcomes.into_iter().map(|(_, outcome)| outcome).collect()))
    }

    /// Runs the trials on exactly `jobs` workers, counting each trial
    /// into a per-worker summary and dropping it — O(workers) resident
    /// memory, no retained outcomes. Each trial's classification depends
    /// only on its deterministic seed, and every summary field is a
    /// sum, so the merged summary is identical to
    /// [`RandomizedCampaign::run_with_jobs`]'s for every worker count.
    ///
    /// # Errors
    ///
    /// See [`RandomizedCampaign::run_with_jobs`].
    pub fn run_streaming_summary(
        &self,
        factory: impl Fn() -> Result<(World, DomainId), BootError> + Send + Sync,
        jobs: usize,
    ) -> Result<RandomizedSummary, CampaignError> {
        Ok(self.run_trials(factory, jobs, false)?.0)
    }

    /// The campaign's trials as a use case on worlds whose attacker is
    /// `attacker`: its injection trial `t` samples from the generator
    /// seeded `seed ^ t`, injects and shakes the world, exactly as the
    /// campaign's trial `t` does, so one trial can run on a world of
    /// one's own.
    pub fn use_case(&self, attacker: DomainId) -> Box<dyn UseCase> {
        Box::new(RandomTrial { region: self.region, seed: self.seed, attacker })
    }

    /// Runs the trials as a one-key grid on `jobs` workers through one
    /// [`Trials`] sink each and merges the workers' counts; with `keep`,
    /// also returns every trial's outcome tagged with its trial index, in
    /// worker order. The factory's base world boots once and the grid
    /// clones it; with no trials the factory is never called.
    fn run_trials(
        &self,
        factory: impl Fn() -> Result<(World, DomainId), BootError>,
        jobs: usize,
        keep: bool,
    ) -> Result<(RandomizedSummary, Vec<(u64, RandomizedOutcome)>), CampaignError> {
        let mut summary = RandomizedSummary::default();
        let mut outcomes = Vec::new();
        if self.trials == 0 {
            return Ok((summary, outcomes));
        }
        let (world, attacker) = boot_contained(factory)?;
        let grid = Campaign::new()
            .with_use_case(self.use_case(attacker))
            .versions(&[world.hv().version()])
            .modes(&[Mode::Injection])
            .trials(self.trials as u64)
            .world_factory(Arc::new(move |_, _| Ok(world.clone())));
        let sinks = grid.run_workers(jobs, None, |_| Trials {
            region: self.region,
            summary: RandomizedSummary::default(),
            outcomes: keep.then(Vec::new),
        });
        for sink in sinks {
            summary = summary.merge(&sink.summary);
            outcomes.extend(sink.outcomes.into_iter().flatten());
        }
        Ok((summary, outcomes))
    }
}

/// A randomized run's sink: the worker's trial counts and, when the run
/// keeps them, each trial's outcome tagged with its trial index (the
/// grid is one unsharded key, so a trial's index is its slot).
struct Trials {
    region: TargetRegion,
    summary: RandomizedSummary,
    outcomes: Option<Vec<(u64, RandomizedOutcome)>>,
}

impl CellSink for Trials {
    fn push(&mut self, index: u64, _spec: &CellSpec, cell: CellResult, _ctx: &TraceCtx) {
        self.summary.count(&cell);
        if let Some(outcomes) = &mut self.outcomes {
            outcomes.push((index, RandomizedOutcome::from_cell(&cell, self.region)));
        }
    }
}

/// One randomized trial as a grid use case. `attacker` is the domain the
/// campaign's factory named.
struct RandomTrial {
    region: TargetRegion,
    seed: u64,
    attacker: DomainId,
}

impl UseCase for RandomTrial {
    fn name(&self) -> &'static str {
        "randomized"
    }

    fn intrusion_model(&self) -> IntrusionModel {
        IntrusionModel::guest_hypercall_memory(
            "IM-randomized",
            AbusiveFunctionality::WriteUnauthorizedArbitraryMemory,
            &[],
        )
    }

    fn run_exploit(&self, _world: &mut World, _attacker: DomainId) -> ScenarioOutcome {
        ScenarioOutcome::failed("-ENOSYS (randomized trials have no exploit path)")
    }

    fn run_injection(
        &self,
        world: &mut World,
        attacker: DomainId,
        injector: &dyn Injector,
    ) -> ScenarioOutcome {
        self.run_injection_trial(world, attacker, injector, 0)
    }

    /// Trial `t`: sample from the trial's own generator, seeded
    /// `seed ^ t`, inject, shake. The spec label is the outcome's one
    /// note.
    fn run_injection_trial(
        &self,
        world: &mut World,
        _attacker: DomainId,
        injector: &dyn Injector,
        trial: u64,
    ) -> ScenarioOutcome {
        let mut rng = StdRng::seed_from_u64(self.seed ^ trial);
        let spec = self.region.sample(world, self.attacker, &mut rng);
        let injected = injector.inject(world, self.attacker, &spec).is_ok();
        shake(world, self.attacker);
        ScenarioOutcome {
            erroneous_state: injected,
            state_audit: None,
            notes: vec![Note::Trial { spec: spec.label(), region: self.region.label() }],
            error: None,
        }
    }
}

/// Post-injection activation: exercise the system so latent erroneous
/// states can propagate — ordinary guest memory activity, a page fault
/// (exercising the IDT), and a vDSO tick.
fn shake(world: &mut World, attacker: DomainId) {
    let probe = world
        .kernel(attacker)
        .map(|k| k.va_of_pfn(hvsim_mem::Pfn::new(8)))
        .unwrap_or(VirtAddr::new(0x6000_0000_8000));
    let mut buf = [0u8; 8];
    let _ = world.hv_mut().guest_read_va(attacker, probe, &mut buf);
    let _ = world.hv_mut().guest_write_va(attacker, probe, &buf);
    // A deliberate fault to exercise exception delivery.
    let _ = world
        .hv_mut()
        .guest_read_va(attacker, VirtAddr::new(0x7f00_dead_0000), &mut buf);
    let _ = world.tick_vdso();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{default_jobs, standard_world};
    use hvsim::XenVersion;

    fn factory(version: XenVersion) -> impl Fn() -> Result<(World, DomainId), BootError> {
        move || {
            let w = standard_world(version, true)?;
            let attacker = w.domain_by_name("guest03").unwrap();
            Ok((w, attacker))
        }
    }

    #[test]
    fn idt_campaign_finds_crashes() {
        let campaign = RandomizedCampaign::new(TargetRegion::IdtGates { cpu: 0 }, 12, 7);
        let (summary, outcomes) =
            campaign.run_with_jobs(factory(XenVersion::V4_8), default_jobs()).unwrap();
        assert_eq!(summary.total, 12);
        assert_eq!(outcomes.len(), 12);
        assert!(summary.injected > 0);
        // Randomly corrupting IDT gates crashes the box whenever the #PF
        // gate (or an exercised vector) is hit; with 12 trials over 256
        // vectors at least the bookkeeping must be consistent.
        assert_eq!(
            summary.crashes + summary.violated + summary.handled
                + (summary.total - summary.injected)
                - outcomes.iter().filter(|o| !o.injected && (o.crashed || o.violations > 0)).count(),
            summary.total
        );
    }

    #[test]
    fn campaign_is_reproducible() {
        let campaign = RandomizedCampaign::new(TargetRegion::DomainFrames, 6, 42);
        let (s1, o1) = campaign.run_with_jobs(factory(XenVersion::V4_13), default_jobs()).unwrap();
        let (s2, o2) = campaign.run_with_jobs(factory(XenVersion::V4_13), default_jobs()).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(o1, o2);
    }

    #[test]
    fn worker_count_does_not_change_summary_or_outcomes() {
        let campaign = RandomizedCampaign::new(TargetRegion::IdtGates { cpu: 0 }, 10, 99);
        let (s1, o1) = campaign.run_with_jobs(factory(XenVersion::V4_8), 1).unwrap();
        let (s4, o4) = campaign.run_with_jobs(factory(XenVersion::V4_8), 4).unwrap();
        assert_eq!(s1, s4, "jobs=1 and jobs=4 summaries must match");
        assert_eq!(o1, o4, "jobs=1 and jobs=4 outcomes must match, in order");
    }

    #[test]
    fn streaming_summary_matches_classic_at_any_worker_count() {
        // Enough trials for several claim batches, so workers really
        // interleave instead of one batch swallowing the whole run.
        let trials = 3 * crate::stream::CLAIM_BATCH as usize + 5;
        for region in [TargetRegion::IdtGates { cpu: 0 }, TargetRegion::DomainPageTables] {
            let campaign = RandomizedCampaign::new(region, trials, 99);
            let (classic, _) = campaign.run_with_jobs(factory(XenVersion::V4_8), 2).unwrap();
            assert_eq!(classic.total, trials);
            for jobs in [1, 2, 8] {
                let streamed =
                    campaign.run_streaming_summary(factory(XenVersion::V4_8), jobs).unwrap();
                assert_eq!(streamed, classic, "{} streamed at jobs={jobs}", region.label());
            }
        }
    }

    #[test]
    fn page_table_region_injections_verify() {
        let campaign = RandomizedCampaign::new(TargetRegion::DomainPageTables, 4, 3);
        let (summary, _) =
            campaign.run_with_jobs(factory(XenVersion::V4_8), default_jobs()).unwrap();
        assert_eq!(summary.injected, 4, "physical PT writes always land");
    }

    #[test]
    fn summary_display_is_a_table() {
        let s = RandomizedSummary {
            total: 10,
            injected: 9,
            crashes: 2,
            violated: 1,
            handled: 6,
            degraded: 0,
        };
        let rendered = s.to_string();
        assert!(rendered.contains("crashes"));
        assert!(rendered.contains("degraded"));
        assert!(rendered.contains("10"));
    }

    #[test]
    fn panicking_factory_degrades_to_a_typed_error() {
        let campaign = RandomizedCampaign::new(TargetRegion::SharedL3, 3, 1);
        let err = campaign
            .run_with_jobs(
                || -> Result<(World, DomainId), BootError> { panic!("factory exploded") },
                default_jobs(),
            )
            .unwrap_err();
        assert_eq!(err, CampaignError::HarnessCrash { payload: "factory exploded".into() });
    }

    #[test]
    fn region_verdicts_are_pinned() {
        // The verdicts are assessment data: how the engine schedules,
        // contains or counts trials must not move any of them.
        let handled = |crashes: usize| RandomizedSummary {
            total: 256,
            injected: 256,
            crashes,
            violated: 0,
            handled: 256 - crashes,
            degraded: 0,
        };
        for (region, expected, crashing_trials) in [
            (TargetRegion::IdtGates { cpu: 0 }, handled(2), vec![19, 88]),
            (TargetRegion::SharedL3, handled(0), vec![]),
            (TargetRegion::DomainPageTables, handled(0), vec![]),
            (TargetRegion::DomainFrames, handled(0), vec![]),
        ] {
            let campaign = RandomizedCampaign::new(region, 256, 7);
            let (summary, outcomes) = campaign.run_with_jobs(factory(XenVersion::V4_8), 2).unwrap();
            assert_eq!(summary, expected, "{}", region.label());
            let crashed: Vec<usize> =
                outcomes.iter().enumerate().filter(|(_, o)| o.crashed).map(|(t, _)| t).collect();
            assert_eq!(crashed, crashing_trials, "{}", region.label());
        }
    }

    #[test]
    fn zero_trials_never_call_the_factory() {
        let campaign = RandomizedCampaign::new(TargetRegion::SharedL3, 0, 1);
        let unreachable = || -> Result<(World, DomainId), BootError> {
            panic!("a 0-trial campaign must not boot")
        };
        let (summary, outcomes) = campaign.run_with_jobs(unreachable, default_jobs()).unwrap();
        assert_eq!(summary, RandomizedSummary::default());
        assert!(outcomes.is_empty());
        let streamed = campaign.run_streaming_summary(unreachable, 4).unwrap();
        assert_eq!(streamed, RandomizedSummary::default());
    }

    #[test]
    fn a_failing_boot_fails_the_campaign_after_one_call() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let calls = AtomicU32::new(0);
        let campaign = RandomizedCampaign::new(TargetRegion::SharedL3, 2, 1);
        let err = campaign
            .run_with_jobs(
                || -> Result<(World, DomainId), BootError> {
                    calls.fetch_add(1, Ordering::SeqCst);
                    Err(BootError::new("create dom0", "deterministic failure"))
                },
                default_jobs(),
            )
            .unwrap_err();
        assert_eq!(calls.load(Ordering::SeqCst), 1, "the factory is called once");
        match err {
            CampaignError::Boot { message } => assert!(message.contains("deterministic failure")),
            other => panic!("expected a boot error, got {other:?}"),
        }
    }
}
