//! "Porting erroneous states" (paper §III-C): evaluate how hypervisor A
//! would handle a vulnerability class discovered in hypervisor B, by
//! injecting B's erroneous states into A.
//!
//! Here the "foreign" states are the keep-page-reference leaks of
//! XSA-387/XSA-393 (discovered years after 4.8 shipped): we inject them
//! into every simulated version — including ones where those bugs never
//! existed — and compare handling.
//!
//! ```sh
//! cargo run -p intrusion-core --example porting_erroneous_states
//! ```

use intrusion_core::{default_jobs, Campaign, Mode, TextTable};
use xsa_exploits::extension_use_cases;

fn main() {
    let mut campaign = Campaign::new().modes(&[Mode::Injection]);
    for uc in extension_use_cases() {
        campaign = campaign.with_use_case(uc);
    }
    let report = campaign.run_with_jobs(default_jobs());

    let mut table = TextTable::new(["Use Case", "Version", "Err. State", "Violations", "Handled"])
        .title("porting keep-page-reference states across versions");
    for cell in report.cells() {
        table.row([
            cell.use_case.to_string(),
            format!("Xen {}", cell.version),
            cell.erroneous_state.to_string(),
            cell.violations.len().to_string(),
            cell.handled.to_string(),
        ]);
    }
    println!("{table}");

    println!("observations:");
    println!(
        "  - the *states* port everywhere: every version accepts the injected\n\
         \x20   stale reference, because nothing in the PV design revokes live\n\
         \x20   mappings when a frame changes owner;"
    );
    println!(
        "  - unlike the XSA-212-priv / XSA-182 states, the 4.13 hardening does\n\
         \x20   not shield this family — an assessment finding the paper's\n\
         \x20   approach is designed to surface."
    );

    for cell in report.cells() {
        if !cell.notes.is_empty() {
            println!("\n{} on Xen {}:", cell.use_case, cell.version);
            for n in &cell.notes {
                println!("  {n}");
            }
        }
    }
}
