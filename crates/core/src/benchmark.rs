//! Security benchmarking on top of intrusion injection.
//!
//! The paper's conclusion sets the goal: "we expect to apply it in
//! assessing the security attributes of hypervisors and establish a
//! **security benchmark** for virtualized infrastructures". This module
//! turns a [`CampaignReport`] into exactly that: a per-version score
//! derived from how each system *handles* injected erroneous states,
//! with per-security-attribute breakdowns.
//!
//! Scoring model (documented, deliberately simple):
//!
//! * every injection cell contributes 1 point of weight;
//! * a **handled** state scores 1.0 (the system processed the intrusion
//!   effect), a **violated** state scores 0.0, a state that could not be
//!   injected is excluded (nothing was assessed);
//! * violations are attributed to security attributes (availability for
//!   crashes/hangs, integrity+confidentiality for privilege escalation
//!   and memory exposure) so the report can say *which* attribute a
//!   version is weak on.

use crate::campaign::CampaignReport;
use crate::monitor::SecurityViolation;
use crate::report::TextTable;
use crate::scenario::Mode;
use hvsim::XenVersion;
use std::collections::BTreeMap;
use std::fmt;

/// The classic security attributes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SecurityAttribute {
    /// Confidentiality: unauthorized information disclosure.
    Confidentiality,
    /// Integrity: unauthorized state modification.
    Integrity,
    /// Availability: loss of service.
    Availability,
}

impl SecurityAttribute {
    /// All attributes.
    pub const ALL: [SecurityAttribute; 3] = [
        SecurityAttribute::Confidentiality,
        SecurityAttribute::Integrity,
        SecurityAttribute::Availability,
    ];

    /// Attributes a violation impacts.
    pub fn of_violation(v: &SecurityViolation) -> &'static [SecurityAttribute] {
        match v {
            SecurityViolation::HypervisorCrash { .. } => &[SecurityAttribute::Availability],
            SecurityViolation::PrivilegeEscalationAllDomains { .. } => &[
                SecurityAttribute::Confidentiality,
                SecurityAttribute::Integrity,
            ],
            SecurityViolation::RemoteRootShell { .. } => &[
                SecurityAttribute::Confidentiality,
                SecurityAttribute::Integrity,
            ],
            SecurityViolation::GuestWritablePageTable { .. } => &[
                SecurityAttribute::Confidentiality,
                SecurityAttribute::Integrity,
            ],
            SecurityViolation::CrossDomainAccess { .. } => &[
                SecurityAttribute::Confidentiality,
                SecurityAttribute::Integrity,
            ],
            SecurityViolation::IntegrityLoss { .. } => &[SecurityAttribute::Integrity],
            SecurityViolation::UncontrolledInterrupts { .. } => {
                &[SecurityAttribute::Availability]
            }
            SecurityViolation::AvailabilityLoss { .. } => &[SecurityAttribute::Availability],
            // The enum is non_exhaustive; default future variants to
            // integrity until they are classified.
            #[allow(unreachable_patterns)]
            _ => &[SecurityAttribute::Integrity],
        }
    }
}

impl fmt::Display for SecurityAttribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SecurityAttribute::Confidentiality => "confidentiality",
            SecurityAttribute::Integrity => "integrity",
            SecurityAttribute::Availability => "availability",
        })
    }
}

/// One version's benchmark result.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VersionScore {
    /// Injection cells where the state landed (the assessed set).
    pub assessed: usize,
    /// States the version handled.
    pub handled: usize,
    /// States that became violations.
    pub violated: usize,
    /// Violation counts per security attribute.
    pub attribute_hits: BTreeMap<SecurityAttribute, usize>,
}

impl VersionScore {
    /// The handling ratio in `[0, 1]`; `None` when nothing was assessed.
    pub fn score(&self) -> Option<f64> {
        if self.assessed == 0 {
            None
        } else {
            Some(self.handled as f64 / self.assessed as f64)
        }
    }
}

/// The benchmark over a campaign report.
#[derive(Clone, Debug, Default)]
pub struct SecurityBenchmark {
    scores: BTreeMap<XenVersion, VersionScore>,
}

impl SecurityBenchmark {
    /// Scores every version present in the report's injection cells.
    pub fn from_report(report: &CampaignReport) -> Self {
        let mut scores: BTreeMap<XenVersion, VersionScore> = BTreeMap::new();
        for cell in report.cells() {
            if cell.mode != Mode::Injection || !cell.erroneous_state {
                continue;
            }
            let entry = scores.entry(cell.version).or_default();
            entry.assessed += 1;
            if cell.violations.is_empty() {
                entry.handled += 1;
            } else {
                entry.violated += 1;
                for v in &cell.violations {
                    for &attr in SecurityAttribute::of_violation(v) {
                        *entry.attribute_hits.entry(attr).or_default() += 1;
                    }
                }
            }
        }
        Self { scores }
    }

    /// One version's score.
    pub fn version(&self, version: XenVersion) -> Option<&VersionScore> {
        self.scores.get(&version)
    }

    /// Versions ranked best (highest handling ratio) first.
    pub fn ranking(&self) -> Vec<(XenVersion, f64)> {
        let mut ranked: Vec<(XenVersion, f64)> = self
            .scores
            .iter()
            .filter_map(|(&v, s)| s.score().map(|sc| (v, sc)))
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        ranked
    }

    /// Renders the benchmark table.
    pub fn render(&self) -> String {
        let mut table = TextTable::new([
            "Version",
            "assessed",
            "handled",
            "violated",
            "score",
            "conf hits",
            "integ hits",
            "avail hits",
        ])
        .title("security benchmark: erroneous-state handling per version");
        for (&version, s) in &self.scores {
            let hit = |a| s.attribute_hits.get(&a).copied().unwrap_or(0).to_string();
            table.row([
                format!("Xen {version}"),
                s.assessed.to_string(),
                s.handled.to_string(),
                s.violated.to_string(),
                s.score().map(|v| format!("{v:.2}")).unwrap_or_else(|| "-".into()),
                hit(SecurityAttribute::Confidentiality),
                hit(SecurityAttribute::Integrity),
                hit(SecurityAttribute::Availability),
            ]);
        }
        table.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CellResult;
    use crate::scenario::Mode;

    fn cell(version: XenVersion, state: bool, violations: Vec<SecurityViolation>) -> CellResult {
        let handled = state && violations.is_empty();
        CellResult {
            use_case: "t".into(),
            version,
            mode: Mode::Injection,
            erroneous_state: state,
            violations,
            handled,
            notes: vec![],
            error: None,
            outcome: crate::error::CellOutcome::Completed,
            wall_time_us: 0,
            hypercalls: 0,
            phase_us: crate::campaign::PhaseTimings::default(),
            snapshot: hvsim::SnapshotStats::default(),
        }
    }

    #[test]
    fn scores_and_ranking() {
        let r = CampaignReport::from_cells(vec![
            cell(XenVersion::V4_6, true, vec![SecurityViolation::HypervisorCrash { message: "x".into() }]),
            cell(XenVersion::V4_6, true, vec![SecurityViolation::PrivilegeEscalationAllDomains { path: "p".into() }]),
            cell(XenVersion::V4_13, true, vec![]),
            cell(XenVersion::V4_13, true, vec![SecurityViolation::HypervisorCrash { message: "x".into() }]),
        ]);
        let b = SecurityBenchmark::from_report(&r);
        assert_eq!(b.version(XenVersion::V4_6).unwrap().score(), Some(0.0));
        assert_eq!(b.version(XenVersion::V4_13).unwrap().score(), Some(0.5));
        let ranking = b.ranking();
        assert_eq!(ranking[0].0, XenVersion::V4_13);
        // Attribute attribution.
        let s46 = b.version(XenVersion::V4_6).unwrap();
        assert_eq!(s46.attribute_hits[&SecurityAttribute::Availability], 1);
        assert_eq!(s46.attribute_hits[&SecurityAttribute::Integrity], 1);
        assert_eq!(s46.attribute_hits[&SecurityAttribute::Confidentiality], 1);
    }

    #[test]
    fn uninjected_cells_are_excluded() {
        let r = CampaignReport::from_cells(vec![cell(XenVersion::V4_8, false, vec![])]);
        let b = SecurityBenchmark::from_report(&r);
        assert!(b.version(XenVersion::V4_8).is_none());
        assert!(b.ranking().is_empty());
    }

    #[test]
    fn render_contains_scores() {
        let r = CampaignReport::from_cells(vec![cell(XenVersion::V4_13, true, vec![])]);
        let b = SecurityBenchmark::from_report(&r);
        let t = b.render();
        assert!(t.contains("Xen 4.13"));
        assert!(t.contains("1.00"));
    }

    #[test]
    fn attribute_display() {
        assert_eq!(SecurityAttribute::Availability.to_string(), "availability");
    }
}
