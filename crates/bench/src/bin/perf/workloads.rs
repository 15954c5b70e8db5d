//! The six workloads: what one engine call runs, the set-up it needs,
//! and the checks its outputs must pass.
//!
//! Every workload is closed-loop: the engine's workers pull the next
//! cell when they free up. A call is sized to take about half a second
//! on a 2-vCPU host, so one measured run holds several calls and reports
//! their median.

use bench::SyntheticCase;
use guestos::{BootError, World};
use hvsim::XenVersion;
use intrusion_core::campaign::{standard_world, ATTACKER_GUEST};
use intrusion_core::{
    Campaign, CampaignReport, KeySummary, Mode, RandomizedCampaign, RandomizedSummary,
    StreamReport, TargetRegion, UseCase,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use xsa_exploits::{paper_use_cases, Xsa148Priv};

use crate::measure::{peak_rss_mb, process_cpu_s, reset_peak_rss};

/// Engine worker threads. Fixed rather than `nproc`, so the workload is
/// the same on every host; the host fingerprint records `nproc`.
pub const WORKERS: usize = 2;

/// Seed of the synthetic and randomized inputs when none is given.
pub const DEFAULT_SEED: u64 = 0xD5_2023;

/// The Xen version the randomized campaign attacks.
pub const RANDOMIZED_VERSION: XenVersion = XenVersion::V4_8;

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    PaperStream,
    PaperCollect,
    SyntheticStream,
    SyntheticCheckpoint,
    Xsa148Scan,
    RandomizedPt,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::PaperStream,
        Workload::PaperCollect,
        Workload::SyntheticStream,
        Workload::SyntheticCheckpoint,
        Workload::Xsa148Scan,
        Workload::RandomizedPt,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperStream => "paper_stream",
            Workload::PaperCollect => "paper_collect",
            Workload::SyntheticStream => "synthetic_stream",
            Workload::SyntheticCheckpoint => "synthetic_checkpoint",
            Workload::Xsa148Scan => "xsa148_scan",
            Workload::RandomizedPt => "randomized_pt",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The use cases of a grid workload in grid order; none for the
    /// randomized one.
    pub fn use_cases(self, seed: u64) -> Vec<Box<dyn UseCase>> {
        match self {
            Workload::PaperStream | Workload::PaperCollect => paper_use_cases(),
            Workload::SyntheticStream | Workload::SyntheticCheckpoint => {
                vec![Box::new(SyntheticCase::new(seed))]
            }
            Workload::Xsa148Scan => vec![Box::new(Xsa148Priv)],
            Workload::RandomizedPt => Vec::new(),
        }
    }

    /// Trials per grid key (randomized: trials) in one engine call.
    pub fn default_trials(self) -> u64 {
        match self {
            Workload::PaperStream => 2_000,
            Workload::PaperCollect => 1_600,
            Workload::SyntheticStream | Workload::SyntheticCheckpoint => 20_000,
            Workload::Xsa148Scan => 36_000,
            Workload::RandomizedPt => 80_000,
        }
    }
}

/// Per-key verdict counts: the unit every grid check compares.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KeyCounts {
    pub cells: u64,
    pub degraded: u64,
    pub erroneous: u64,
    pub violated: u64,
    pub handled: u64,
    pub hypercalls: u64,
}

impl From<&KeySummary> for KeyCounts {
    fn from(s: &KeySummary) -> Self {
        KeyCounts {
            cells: s.cells,
            degraded: s.degraded,
            erroneous: s.erroneous_states,
            violated: s.violated,
            handled: s.handled,
            hypercalls: s.hypercalls,
        }
    }
}

/// One trial of each Table III key as `table3_campaign` prints it:
/// (key, erroneous state, violated, handled, hypercalls).
pub const TABLE3: [(&str, u64, u64, u64, u64); 24] = [
    ("XSA-148-priv/4.13/exploit", 0, 0, 0, 1),
    ("XSA-148-priv/4.13/injection", 1, 1, 0, 20),
    ("XSA-148-priv/4.6/exploit", 1, 1, 0, 3),
    ("XSA-148-priv/4.6/injection", 1, 1, 0, 20),
    ("XSA-148-priv/4.8/exploit", 0, 0, 0, 1),
    ("XSA-148-priv/4.8/injection", 1, 1, 0, 20),
    ("XSA-182-test/4.13/exploit", 0, 0, 0, 2),
    ("XSA-182-test/4.13/injection", 1, 0, 1, 2),
    ("XSA-182-test/4.6/exploit", 1, 1, 0, 2),
    ("XSA-182-test/4.6/injection", 1, 1, 0, 2),
    ("XSA-182-test/4.8/exploit", 0, 0, 0, 2),
    ("XSA-182-test/4.8/injection", 1, 1, 0, 2),
    ("XSA-212-crash/4.13/exploit", 0, 0, 0, 1),
    ("XSA-212-crash/4.13/injection", 1, 1, 0, 1),
    ("XSA-212-crash/4.6/exploit", 1, 1, 0, 1),
    ("XSA-212-crash/4.6/injection", 1, 1, 0, 1),
    ("XSA-212-crash/4.8/exploit", 0, 0, 0, 1),
    ("XSA-212-crash/4.8/injection", 1, 1, 0, 1),
    ("XSA-212-priv/4.13/exploit", 0, 0, 0, 4),
    ("XSA-212-priv/4.13/injection", 1, 0, 1, 5),
    ("XSA-212-priv/4.6/exploit", 1, 1, 0, 6),
    ("XSA-212-priv/4.6/injection", 1, 1, 0, 5),
    ("XSA-212-priv/4.8/exploit", 0, 0, 0, 4),
    ("XSA-212-priv/4.8/injection", 1, 1, 0, 5),
];

/// The key a cell of `use_case` × `version` × `mode` is reported under.
pub fn cell_key(use_case: &str, version: XenVersion, mode: Mode) -> String {
    format!("{use_case}/{version}/{mode}")
}

/// The expected Table III row of `key` for one trial.
pub fn table3_row(key: &str) -> Option<KeyCounts> {
    TABLE3
        .iter()
        .find(|row| row.0 == key)
        .map(|&(_, erroneous, violated, handled, hypercalls)| KeyCounts {
            cells: 1,
            degraded: 0,
            erroneous,
            violated,
            handled,
            hypercalls,
        })
}

/// A (version, injector-enabled) base world key.
pub type WorldKey = (XenVersion, bool);

// One value per prepared workload or per call, so the size gap between
// variants costs nothing worth boxing for.
#[allow(clippy::large_enum_variant)]
enum Engine {
    Grid(Campaign),
    Randomized(RandomizedCampaign),
}

/// A workload built for one seed and call size.
pub struct Prepared {
    pub workload: Workload,
    pub seed: u64,
    pub trials: u64,
    engine: Engine,
}

/// What one engine call returned.
#[allow(clippy::large_enum_variant)]
pub enum Output {
    Stream(StreamReport),
    Collect(CampaignReport),
    Randomized(RandomizedSummary),
}

/// One engine call, timed from outside.
pub struct Call {
    pub cells: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    pub journal_bytes: u64,
    pub output: Output,
}

/// Outputs earlier calls produced, which later calls must reproduce:
/// normalized synthetic reports and randomized summaries, keyed by
/// (seed, trials).
#[derive(Default)]
pub struct References {
    synthetic: BTreeMap<(u64, u64), String>,
    randomized: BTreeMap<(u64, u64), RandomizedSummary>,
}

/// A call's check: cells attempted, cells failed (degraded or with a
/// wrong verdict), and what was wrong.
#[derive(Debug, Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

fn randomized_world() -> Result<(World, hvsim_mem::DomainId), BootError> {
    let world = standard_world(RANDOMIZED_VERSION, true)?;
    let attacker = world
        .domain_by_name(ATTACKER_GUEST)
        .ok_or_else(|| BootError::new("attacker", "standard world has no attacker guest"))?;
    Ok((world, attacker))
}

impl Prepared {
    /// Builds the workload's campaign: the first half of a set-up.
    pub fn new(workload: Workload, seed: u64, trials: u64) -> Self {
        if workload == Workload::RandomizedPt {
            let campaign = RandomizedCampaign::new(
                TargetRegion::DomainPageTables,
                usize::try_from(trials).expect("trial count fits in usize"),
                seed,
            );
            return Prepared {
                workload,
                seed,
                trials,
                engine: Engine::Randomized(campaign),
            };
        }
        let mut campaign = Campaign::new();
        for uc in workload.use_cases(seed) {
            campaign = campaign.with_use_case(uc);
        }
        campaign = match workload {
            Workload::SyntheticStream | Workload::SyntheticCheckpoint => {
                campaign.modes(&[Mode::Injection])
            }
            Workload::Xsa148Scan => campaign
                .versions(&[XenVersion::V4_6])
                .modes(&[Mode::Exploit]),
            _ => campaign,
        };
        let engine = Engine::Grid(campaign.trials(trials).jobs(WORKERS));
        Prepared {
            workload,
            seed,
            trials,
            engine,
        }
    }

    /// The grid campaign, for grid workloads.
    pub fn campaign(&self) -> Option<&Campaign> {
        match &self.engine {
            Engine::Grid(campaign) => Some(campaign),
            Engine::Randomized(_) => None,
        }
    }

    /// Cells one call runs.
    pub fn cells(&self) -> u64 {
        match &self.engine {
            Engine::Grid(campaign) => campaign.grid().len(),
            Engine::Randomized(_) => self.trials,
        }
    }

    /// Every base world the engine boots before its first cell.
    pub fn world_keys(&self) -> Vec<WorldKey> {
        match &self.engine {
            Engine::Grid(campaign) => {
                let grid = campaign.grid();
                grid.versions()
                    .iter()
                    .flat_map(|&v| grid.modes().iter().map(move |&m| (v, m == Mode::Injection)))
                    .collect()
            }
            Engine::Randomized(_) => vec![(RANDOMIZED_VERSION, true)],
        }
    }

    /// Boots the base worlds, timing each boot in milliseconds: the
    /// second half of a set-up.
    pub fn boot_worlds(&self) -> Result<(BTreeMap<WorldKey, World>, Vec<f64>), String> {
        let mut worlds = BTreeMap::new();
        let mut boot_ms = Vec::new();
        for (version, injector) in self.world_keys() {
            let start = Instant::now();
            let world = standard_world(version, injector)
                .map_err(|e| format!("standard world {version} (injector {injector}): {e}"))?;
            boot_ms.push(start.elapsed().as_secs_f64() * 1e3);
            worlds.insert((version, injector), world);
        }
        Ok((worlds, boot_ms))
    }

    /// Runs one engine call, measuring its wall-clock, the process's CPU
    /// time and its peak RSS. A checkpointed call journals to `journal`,
    /// which is removed afterwards.
    pub fn call(&self, journal: &Path) -> Result<Call, String> {
        reset_peak_rss().map_err(|e| format!("resetting VmHWM: {e}"))?;
        let cpu_start = process_cpu_s();
        let start = Instant::now();
        let output = match &self.engine {
            Engine::Grid(campaign) => match self.workload {
                Workload::PaperCollect => Output::Collect(campaign.run_with_jobs(WORKERS)),
                Workload::SyntheticCheckpoint => Output::Stream(
                    campaign
                        .run_streaming_checkpointed(journal)
                        .map_err(|e| format!("checkpoint journal {}: {e}", journal.display()))?
                        .report,
                ),
                _ => Output::Stream(campaign.run_streaming_with_jobs(WORKERS).report),
            },
            Engine::Randomized(campaign) => Output::Randomized(
                campaign
                    .run_streaming_summary(randomized_world, WORKERS)
                    .map_err(|e| format!("randomized campaign: {e}"))?,
            ),
        };
        let wall_s = start.elapsed().as_secs_f64();
        let cpu_s = process_cpu_s() - cpu_start;
        let peak_rss_mb = peak_rss_mb().map_err(|e| format!("reading VmHWM: {e}"))?;
        let journal_bytes = if self.workload == Workload::SyntheticCheckpoint {
            let bytes = std::fs::metadata(journal).map(|m| m.len()).unwrap_or(0);
            std::fs::remove_file(journal)
                .map_err(|e| format!("removing {}: {e}", journal.display()))?;
            bytes
        } else {
            0
        };
        Ok(Call {
            cells: self.cells(),
            wall_s,
            cpu_s,
            peak_rss_mb,
            journal_bytes,
            output,
        })
    }

    /// Makes sure a checkpointed workload has the plain streaming
    /// engine's report to compare against, running that engine once
    /// (untimed) if no earlier call produced it.
    pub fn ensure_reference(&self, refs: &mut References) {
        if self.workload != Workload::SyntheticCheckpoint
            || refs.synthetic.contains_key(&(self.seed, self.trials))
        {
            return;
        }
        if let Some(campaign) = self.campaign() {
            let report = campaign.run_streaming_with_jobs(WORKERS).report;
            refs.synthetic
                .insert((self.seed, self.trials), normalized_json(&report));
        }
    }

    /// Checks one call's output.
    pub fn check(&self, output: &Output, refs: &mut References) -> Verdict {
        let attempted = self.cells();
        let mut verdict = Verdict {
            attempted,
            ..Verdict::default()
        };
        match output {
            Output::Stream(report) if self.is_synthetic() => {
                let json = normalized_json(report);
                let reference = refs
                    .synthetic
                    .entry((self.seed, self.trials))
                    .or_insert_with(|| json.clone());
                if *reference != json {
                    verdict.fail(attempted, "streamed report differs from the reference run");
                } else if report.degraded > 0 {
                    verdict.fail(
                        report.degraded,
                        format!("{} degraded cells", report.degraded),
                    );
                }
            }
            Output::Stream(report) => {
                let actual = report
                    .by_key
                    .iter()
                    .map(|(k, s)| (k.clone(), KeyCounts::from(s)));
                self.check_grid(actual.collect(), &mut verdict);
            }
            Output::Collect(report) => {
                let mut actual: BTreeMap<String, KeyCounts> = BTreeMap::new();
                for cell in report.cells() {
                    let c = actual
                        .entry(cell_key(&cell.use_case, cell.version, cell.mode))
                        .or_default();
                    c.cells += 1;
                    c.degraded += u64::from(cell.degraded());
                    c.erroneous += u64::from(cell.erroneous_state);
                    c.violated += u64::from(cell.violated());
                    c.handled += u64::from(cell.handled);
                    c.hypercalls += cell.hypercalls;
                }
                self.check_grid(actual, &mut verdict);
            }
            Output::Randomized(summary) => {
                let reference = refs
                    .randomized
                    .entry((self.seed, self.trials))
                    .or_insert(*summary);
                if reference != summary {
                    verdict.fail(
                        attempted,
                        "randomized summary differs from the reference run",
                    );
                } else if summary.total as u64 != attempted {
                    let ran = summary.total;
                    verdict.fail(attempted, format!("ran {ran} of {attempted} trials"));
                } else if summary.degraded > 0 {
                    let degraded = summary.degraded as u64;
                    verdict.fail(degraded, format!("{degraded} degraded trials"));
                }
            }
        }
        verdict
    }

    fn is_synthetic(&self) -> bool {
        matches!(
            self.workload,
            Workload::SyntheticStream | Workload::SyntheticCheckpoint
        )
    }

    /// The per-key counts a paper or XSA-148 call must produce.
    fn expected_keys(&self) -> BTreeMap<String, KeyCounts> {
        let keys: Vec<&str> = match self.workload {
            Workload::Xsa148Scan => vec!["XSA-148-priv/4.6/exploit"],
            _ => TABLE3.iter().map(|row| row.0).collect(),
        };
        keys.into_iter()
            .map(|key| {
                let one = table3_row(key).expect("key is in Table III");
                let t = self.trials;
                let counts = KeyCounts {
                    cells: t,
                    degraded: 0,
                    erroneous: one.erroneous * t,
                    violated: one.violated * t,
                    handled: one.handled * t,
                    hypercalls: one.hypercalls * t,
                };
                (key.to_owned(), counts)
            })
            .collect()
    }

    fn check_grid(&self, actual: BTreeMap<String, KeyCounts>, verdict: &mut Verdict) {
        let expected = self.expected_keys();
        for (key, want) in &expected {
            let got = actual.get(key).copied().unwrap_or_default();
            if got != *want {
                verdict.fail(
                    want.cells.max(got.cells),
                    format!("{key}: expected {want:?}, got {got:?}"),
                );
            }
        }
        for (key, got) in actual
            .iter()
            .filter(|(key, _)| !expected.contains_key(*key))
        {
            verdict.fail(got.cells, format!("{key}: unexpected key"));
        }
    }
}

impl Verdict {
    fn fail(&mut self, cells: u64, problem: impl Into<String>) {
        self.failed = (self.failed + cells).min(self.attempted);
        self.problems.push(problem.into());
    }
}

fn normalized_json(report: &StreamReport) -> String {
    report
        .normalized()
        .to_json()
        .expect("stream reports serialize")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_totals_match_the_paper_campaign() {
        let total = |f: fn(&(&str, u64, u64, u64, u64)) -> u64| TABLE3.iter().map(f).sum::<u64>();
        assert_eq!(total(|r| r.1), 16, "erroneous states");
        assert_eq!(total(|r| r.2), 14, "violated");
        assert_eq!(total(|r| r.3), 2, "handled");
        assert_eq!(total(|r| r.4), 112, "hypercalls");
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn a_wrong_verdict_fails_its_key() {
        let prepared = Prepared::new(Workload::Xsa148Scan, DEFAULT_SEED, 3);
        let mut refs = References::default();
        let mut report = StreamReport::default();
        let want = KeySummary {
            cells: 3,
            completed: 3,
            erroneous_states: 3,
            violated: 3,
            hypercalls: 9,
            ..KeySummary::default()
        };
        report
            .by_key
            .insert("XSA-148-priv/4.6/exploit".to_owned(), want);
        let ok = prepared.check(&Output::Stream(report.clone()), &mut refs);
        assert_eq!((ok.attempted, ok.failed), (3, 0), "{:?}", ok.problems);
        report.by_key.insert(
            "XSA-148-priv/4.6/exploit".to_owned(),
            KeySummary {
                violated: 2,
                ..want
            },
        );
        let bad = prepared.check(&Output::Stream(report), &mut refs);
        assert_eq!(bad.failed, 3);
    }
}
