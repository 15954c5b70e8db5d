//! The headline reproduction test: the full campaign must reproduce the
//! paper's Table III and the §VI/§VII/§VIII findings cell by cell.
//!
//! Paper ground truth:
//!
//! * exploits succeed **only** on Xen 4.6 (RQ1 setup / §VII);
//! * injections induce the erroneous state on **all** versions (RQ2);
//! * security violations (Table III):
//!   - Xen 4.8: all four use cases violate;
//!   - Xen 4.13: XSA-212-crash and XSA-148-priv violate, while
//!     XSA-212-priv and XSA-182-test are *handled* (the shield).

use intrusion_core::{render_table2, Campaign, CampaignReport, Mode, StreamReport};
use hvsim::XenVersion;
use xsa_exploits::paper_use_cases;

fn full_campaign() -> Campaign {
    paper_use_cases().into_iter().fold(Campaign::new(), Campaign::with_use_case)
}

/// The per-cell list, for the cell-by-cell checks.
fn run_full_campaign() -> CampaignReport {
    full_campaign().run_with_jobs(2)
}

/// The streamed report, which every artefact renders from.
fn stream_full_campaign() -> StreamReport {
    full_campaign().run_streaming().report
}

const USE_CASES: [&str; 4] = [
    "XSA-212-crash",
    "XSA-212-priv",
    "XSA-148-priv",
    "XSA-182-test",
];

#[test]
fn full_campaign_reproduces_paper_tables() {
    let report = run_full_campaign();
    assert_eq!(report.cells().len(), 24, "4 use cases x 3 versions x 2 modes");

    // --- RQ1: exploits on the vulnerable version induce state + violation.
    for uc in USE_CASES {
        let cell = report.cell(uc, XenVersion::V4_6, Mode::Exploit).unwrap();
        assert!(cell.erroneous_state, "{uc} exploit state on 4.6");
        assert!(cell.violated(), "{uc} exploit violation on 4.6");
    }

    // --- exploits fail everywhere else (vulnerabilities fixed).
    for uc in USE_CASES {
        for version in [XenVersion::V4_8, XenVersion::V4_13] {
            let cell = report.cell(uc, version, Mode::Exploit).unwrap();
            assert!(!cell.erroneous_state, "{uc} exploit must fail on {version}");
            assert!(!cell.violated(), "{uc} no violation on {version}");
            assert!(cell.error.is_some(), "{uc} reports its failure on {version}");
        }
    }

    // --- RQ1 (injection side): injection reproduces state + violation on 4.6.
    for uc in USE_CASES {
        let cell = report.cell(uc, XenVersion::V4_6, Mode::Injection).unwrap();
        assert!(cell.erroneous_state, "{uc} injected state on 4.6");
        assert!(cell.violated(), "{uc} injected violation on 4.6");
    }

    // --- RQ2: erroneous states injectable on every version (Table III
    //     "Err. State" columns are all checks).
    for uc in USE_CASES {
        for version in [XenVersion::V4_8, XenVersion::V4_13] {
            let cell = report.cell(uc, version, Mode::Injection).unwrap();
            assert!(cell.erroneous_state, "{uc} injected state on {version}");
        }
    }

    // --- RQ3 / Table III "Sec. Viol." columns.
    // Xen 4.8: every injected state leads to the violation.
    for uc in USE_CASES {
        let cell = report.cell(uc, XenVersion::V4_8, Mode::Injection).unwrap();
        assert!(cell.violated(), "{uc} violation on 4.8");
        assert!(!cell.handled, "{uc} not handled on 4.8");
    }
    // Xen 4.13: crash and 148-priv violate; 212-priv and 182-test are
    // handled by the post-XSA-213 hardening.
    for (uc, expect_violation) in [
        ("XSA-212-crash", true),
        ("XSA-212-priv", false),
        ("XSA-148-priv", true),
        ("XSA-182-test", false),
    ] {
        let cell = report.cell(uc, XenVersion::V4_13, Mode::Injection).unwrap();
        assert_eq!(cell.violated(), expect_violation, "{uc} violation on 4.13");
        assert_eq!(cell.handled, !expect_violation, "{uc} shield on 4.13");
    }
}

#[test]
fn rendered_table3_shows_shields_for_handled_states() {
    let report = stream_full_campaign();
    let table3 = report.render_table3();
    // Structural checks on the rendered artefact.
    for uc in USE_CASES {
        assert!(table3.contains(uc), "row for {uc}");
    }
    assert!(table3.contains('\u{2713}'), "check marks present");
    assert!(table3.contains('\u{1F6E1}'), "shield present (4.13 handled cells)");
    // Exactly two shields: XSA-212-priv and XSA-182-test on 4.13.
    assert_eq!(table3.matches('\u{1F6E1}').count(), 2, "table:\n{table3}");
}

#[test]
fn fig4_reports_exploit_injection_equivalence_on_4_6() {
    let report = stream_full_campaign();
    let fig4 = report.render_fig4();
    for uc in USE_CASES {
        assert!(fig4.contains(uc));
    }
    assert!(!fig4.contains("NO"), "all four cases equivalent:\n{fig4}");
}

#[test]
fn table2_maps_use_cases_to_paper_functionalities() {
    let t2 = render_table2(full_campaign().use_cases());
    assert!(t2.contains("XSA-212-crash"));
    assert!(t2.contains("Write Unauthorized Arbitrary Memory"));
    assert!(t2.contains("Guest-Writable Page Table Entry"));
}

#[test]
fn campaign_report_serializes() {
    let report = Campaign::new()
        .with_use_case(Box::new(xsa_exploits::Xsa182Test))
        .versions(&[XenVersion::V4_13])
        .run_streaming()
        .report;
    let json = report.to_json().unwrap();
    assert!(json.contains("XSA-182-test/4.13/injection"));
    assert_eq!(StreamReport::from_json(&json).unwrap(), report);
}
