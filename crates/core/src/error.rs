//! The campaign-level error taxonomy: what went wrong with a cell, as
//! structured data instead of a dead worker thread.
//!
//! The paper's campaigns deliberately drive the hypervisor into crashing
//! states — a hypervisor crash is an *assessment result* (a security
//! violation the monitors record), never a harness failure. The taxonomy
//! here covers the harness side: worlds that failed to boot, injections
//! that could not establish the erroneous state, monitors that died while
//! observing, and panics that escaped a cell body. Every variant
//! serializes into reports, so a degraded campaign still produces a
//! complete, machine-readable record.

use crate::scenario::Mode;
use hvsim::XenVersion;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Why a campaign cell (or randomized trial) did not produce a clean
/// assessment result.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CampaignError {
    /// The world factory failed to produce a bootable world.
    Boot {
        /// The failure message.
        message: String,
    },
    /// The scenario could not establish the erroneous state — the
    /// paper's "exploit fails with `-EFAULT` on a fixed version" class.
    /// This is assessment data, not harness degradation.
    Injection {
        /// The scenario's failure message (typically an errno string).
        message: String,
    },
    /// A security-violation detector failed while observing the
    /// post-injection world; the cell's observation is incomplete.
    Monitor {
        /// Which detector(s) failed and how.
        message: String,
    },
    /// A panic escaped the cell body (world clone, scenario, or
    /// factory) and was captured at the containment boundary.
    HarnessCrash {
        /// The downcast panic payload.
        payload: String,
    },
}

impl CampaignError {
    /// `true` for errors that degrade the *harness* (boot, monitor,
    /// crash) as opposed to recording an assessment outcome
    /// (a failed injection attempt is paper data).
    pub fn is_harness_failure(&self) -> bool {
        !matches!(self, CampaignError::Injection { .. })
    }
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Boot { message } => write!(f, "boot failed: {message}"),
            // Printed verbatim: this is the exploit/injection failure
            // signature the paper reports (e.g. "-EFAULT (bad address)").
            CampaignError::Injection { message } => f.write_str(message),
            CampaignError::Monitor { message } => write!(f, "monitor failed: {message}"),
            CampaignError::HarnessCrash { payload } => write!(f, "harness crashed: {payload}"),
        }
    }
}

impl Error for CampaignError {}

/// Why a checkpoint journal could not be written, read, or applied.
///
/// Torn *tails* are not errors — recovery truncates to the last valid
/// record by design (that is the crash model). This taxonomy covers the
/// cases where the journal as a whole cannot be trusted or used.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// The journal file could not be created, read, written, or synced.
    Io {
        /// Journal path.
        path: String,
        /// Underlying I/O failure.
        message: String,
    },
    /// The journal's leading header record is missing or unreadable —
    /// this file was never a checkpoint journal (or lost its first
    /// record, which fsync ordering makes impossible short of media
    /// corruption).
    Header {
        /// Journal path.
        path: String,
        /// What was wrong with the header.
        message: String,
    },
    /// The journal was written by a campaign with a different grid (use
    /// cases, versions, modes, trials) or shard: resuming
    /// would silently mix two runs, so it fails loudly instead.
    GridMismatch {
        /// The journal's header, rendered.
        journal: String,
        /// The resuming campaign's header, rendered.
        campaign: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, message } => {
                write!(f, "checkpoint journal {path}: {message}")
            }
            CheckpointError::Header { path, message } => {
                write!(f, "{path} is not a checkpoint journal: {message}")
            }
            CheckpointError::GridMismatch { journal, campaign } => write!(
                f,
                "checkpoint journal was written by a different campaign \
                 (journal {journal}, campaign {campaign})"
            ),
        }
    }
}

impl Error for CheckpointError {}

/// Identity of one campaign cell, carried inside [`CellOutcome`] so a
/// crash record is self-describing even outside its report row.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellId {
    /// Use-case name.
    pub use_case: String,
    /// Version under test.
    pub version: XenVersion,
    /// Exploit or injection.
    pub mode: Mode,
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} / Xen {} / {}", self.use_case, self.version, self.mode)
    }
}

/// How far a campaign cell got.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellOutcome {
    /// The cell ran its scenario and was monitored.
    Completed,
    /// The world never booted; the cell has no assessment data.
    BootFailed,
    /// A panic escaped the cell body and was captured at the
    /// containment boundary.
    Crashed {
        /// The downcast panic payload.
        payload: String,
        /// Which cell crashed.
        cell: CellId,
    },
}

impl CellOutcome {
    /// `true` unless the cell completed.
    pub fn is_degraded(&self) -> bool {
        !matches!(self, CellOutcome::Completed)
    }
}

/// Renders a panic payload captured by `std::panic::catch_unwind` as a
/// string: `&str` and `String` payloads (everything `panic!` produces)
/// verbatim, anything else as an opaque marker.
fn panic_payload(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

thread_local! {
    /// Whether this thread runs a phase of [`contain`].
    static CONTAINED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `f` as a contained phase of a cell: a panic becomes its rendered
/// payload, for the caller to type as a degraded cell. Each caller
/// documents why what `f` touches is not reused half-updated. Inlined,
/// because out of line it copied each phase's result through its frame.
#[inline(always)]
pub(crate) fn contain<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    let outer = CONTAINED.replace(true);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    CONTAINED.set(outer);
    result.map_err(|p| panic_payload(p.as_ref()))
}

/// Installs, once per process, a panic hook that prints nothing for a
/// panic inside a contained phase of a cell (the run reports it as a
/// degraded cell) and defers to the previous hook for any other panic.
pub fn quiet_contained_panics() {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !CONTAINED.get() {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_separates_harness_failures_from_assessment_data() {
        assert!(CampaignError::Boot { message: "x".into() }.is_harness_failure());
        assert!(CampaignError::Monitor { message: "x".into() }.is_harness_failure());
        assert!(CampaignError::HarnessCrash { payload: "x".into() }.is_harness_failure());
        assert!(!CampaignError::Injection { message: "-EFAULT".into() }.is_harness_failure());
    }

    #[test]
    fn injection_errors_display_verbatim() {
        let e = CampaignError::Injection { message: "-EFAULT (bad address)".into() };
        assert_eq!(e.to_string(), "-EFAULT (bad address)");
        let b = CampaignError::Boot { message: "no frames".into() };
        assert_eq!(b.to_string(), "boot failed: no frames");
    }

    #[test]
    fn outcomes_round_trip_through_serde() {
        let out = CellOutcome::Crashed {
            payload: "boom".into(),
            cell: CellId {
                use_case: "XSA-212-crash".into(),
                version: XenVersion::V4_8,
                mode: Mode::Injection,
            },
        };
        let json = serde_json::to_string(&out).unwrap();
        let back: CellOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(out, back);
        assert!(out.is_degraded());
        assert!(!CellOutcome::Completed.is_degraded());
    }

    #[test]
    fn panic_payloads_downcast() {
        let p: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(panic_payload(p.as_ref()), "static str");
        let p: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_payload(p.as_ref()), "owned");
        let p: Box<dyn std::any::Any + Send> = Box::new(17u32);
        assert_eq!(panic_payload(p.as_ref()), "non-string panic payload");
    }
}
