//! Regenerates **Table III**: the injection campaign across all
//! versions, plus the RQ1/RQ2/RQ3 summaries of §VI–§VIII, the exploit
//! failure signatures of §VII, and any degraded cells, from one
//! streamed run. It takes no arguments: `intrusion-injector campaign`
//! runs the same campaign with worker counts, shards and report, trace
//! and metrics files, and the `perf` benchmark measures its throughput.

use bench::paper_campaign;
use hvsim::XenVersion;
use intrusion_core::Mode;

fn main() {
    bench::reject_arguments(
        "table3_campaign",
        Some(
            "for --jobs, --shard, --report-out, --trace-out, --metrics-out and --json, \
             run `intrusion-injector campaign`",
        ),
    );

    eprintln!("running the full campaign ...");
    let campaign = paper_campaign();
    let report = campaign.run_streaming().report;
    println!("{}", report.render_table3());

    println!("RQ1 (reproduce exploit effects on the vulnerable version):");
    for use_case in &report.grid.use_cases {
        for mode in [Mode::Exploit, Mode::Injection] {
            if let Some(key) = report.key(use_case, XenVersion::V4_6, mode) {
                println!(
                    "  {:<13} {:<9} -> state {} violation {}",
                    use_case,
                    mode.to_string(),
                    key.erroneous_states == key.cells,
                    key.violated == key.cells,
                );
            }
        }
    }

    println!("\nRQ2 (inject states on non-vulnerable versions): all Err. State cells above");
    println!("RQ3 (assessment): Xen 4.13 handles XSA-212-priv and XSA-182-test — the");
    println!("post-XSA-213 hardening removed the RWX linear-pagetable mapping and");
    println!("rejects writable self-maps during walks.\n");

    // Exploit failure signatures on fixed versions (§VII). They are
    // per-cell detail the streamed report does not keep, so each of
    // those slots is replayed on the campaign that just ran.
    println!("exploit attempts on fixed versions:");
    let grid = campaign.grid();
    for spec in grid.iter() {
        if spec.mode != Mode::Exploit || spec.version == XenVersion::V4_6 {
            continue;
        }
        let Some(cell) = campaign.replay(spec.slot) else { continue };
        println!(
            "  {:<13} on {:<4} -> {}",
            cell.use_case,
            cell.version.to_string(),
            cell.error
                .as_ref()
                .map(ToString::to_string)
                .unwrap_or_else(|| "(succeeded?!)".to_owned())
        );
    }

    // Harness degradation is reported separately from assessment data:
    // a crashed or timed-out cell tells us nothing about the version
    // under test, so it must not be silently folded into the tables.
    if !report.degraded_slots.is_empty() {
        println!("\ndegraded cells (harness failures, excluded from assessment):");
        for cell in report.degraded_slots.values() {
            println!(
                "  {:<13} on {:<4} {:<9} -> {}",
                cell.use_case,
                cell.version.to_string(),
                cell.mode.to_string(),
                cell.error
                    .as_ref()
                    .map(ToString::to_string)
                    .unwrap_or_else(|| format!("{:?}", cell.outcome))
            );
        }
    }
}
