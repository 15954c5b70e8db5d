//! The full assessment campaign of the paper's evaluation: all four use
//! cases, both modes, all three Xen versions — then the reproduced
//! Tables II/III and Figs. 2/4.
//!
//! ```sh
//! cargo run -p intrusion-core --example assessment_campaign
//! ```

use hvsim::XenVersion;
use intrusion_core::{render_table2, Campaign, Mode};
use xsa_exploits::paper_use_cases;

fn main() {
    let mut campaign = Campaign::new();
    for uc in paper_use_cases() {
        campaign = campaign.with_use_case(uc);
    }
    println!("running 4 use cases x 3 versions x 2 modes = 24 cells ...\n");
    let report = campaign.run_streaming().report;

    println!("{}", render_table2(campaign.use_cases()));
    println!("{}", report.render_fig4());
    println!("{}", report.render_table3());
    println!(
        "{}",
        report.render_fig2("XSA-212-crash", XenVersion::V4_6)
    );

    // The assessment signal (RQ3): which versions handle which states?
    println!("security assessment summary:");
    for version in XenVersion::ALL {
        let handled: Vec<_> = report
            .grid
            .use_cases
            .iter()
            .filter(|uc| {
                report
                    .key(uc, version, Mode::Injection)
                    .is_some_and(|key| key.handled > 0)
            })
            .map(String::as_str)
            .collect();
        println!(
            "  Xen {version}: handles {} of 4 injected erroneous states {:?}",
            handled.len(),
            handled
        );
    }
}
