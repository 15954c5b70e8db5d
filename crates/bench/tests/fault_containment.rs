//! End-to-end acceptance test for the fault-contained campaign engine:
//! a single campaign mixing a panicking use case, a slow use case, and a
//! failing boot must run to completion, report each failure through the
//! typed taxonomy, and stay schedule-independent.

mod common;

use common::messy_campaign;
use hvsim::XenVersion;
use intrusion_core::{CampaignError, CellOutcome, Mode};

#[test]
fn mixed_failure_campaign_completes_with_typed_outcomes() {
    let report = messy_campaign().run_with_jobs(2);

    // Every cell of the 3 × 3 × 2 matrix is reported, none is lost.
    assert_eq!(report.cells().len(), 18);

    // The panicking cell is contained as a typed crash.
    let crashed = report.cell("panicky", XenVersion::V4_8, Mode::Injection).unwrap();
    match &crashed.outcome {
        CellOutcome::Crashed { payload, cell } => {
            assert_eq!(payload, "injector blew up");
            assert_eq!(cell.use_case, "panicky");
            assert_eq!(cell.version, XenVersion::V4_8);
            assert_eq!(cell.mode, Mode::Injection);
        }
        other => panic!("expected Crashed, got {other:?}"),
    }
    assert!(crashed.degraded());
    assert!(matches!(crashed.error, Some(CampaignError::HarnessCrash { .. })));

    // The slow cell is not a harness fault: it completes, and its
    // inject phase holds the time it slept.
    let slow = report.cell("sleepy", XenVersion::V4_13, Mode::Exploit).unwrap();
    assert_eq!(slow.outcome, CellOutcome::Completed);
    assert!(!slow.degraded());
    assert!(slow.phase_us.inject_us.is_some_and(|us| us >= 300_000), "{:?}", slow.phase_us);

    // The failing boot degrades every (4.6, injection) cell, and only
    // those, with the factory's message.
    for cell in report.cells().iter().filter(|c| {
        c.version == XenVersion::V4_6 && c.mode == Mode::Injection
    }) {
        assert_eq!(cell.outcome, CellOutcome::BootFailed, "{}", cell.use_case);
        assert!(matches!(
            &cell.error,
            Some(CampaignError::Boot { message }) if message.contains("out of memory")
        ));
    }

    // The three boot failures and the panic degraded the run; this is
    // what maps to CLI exit code 2.
    assert!(report.is_degraded());
    assert_eq!(report.cells().iter().filter(|c| c.degraded()).count(), 4);

    // The streamed report separates the populations the same way.
    let streamed = messy_campaign().run_streaming_with_jobs(2).report;
    assert_eq!((streamed.cells, streamed.completed, streamed.degraded), (18, 14, 4));
    assert_eq!(streamed.boot_failed, 3);
}

#[test]
fn mixed_failure_campaign_is_schedule_independent() {
    let serial = messy_campaign().run_with_jobs(1).normalized();
    let parallel = messy_campaign().run_with_jobs(8).normalized();
    assert_eq!(
        serial, parallel,
        "contained failures must be reported identically at jobs=1 and jobs=8"
    );
}
