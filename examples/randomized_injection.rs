//! Fuzz-style randomized injection (paper §IV-C): sample erroneous
//! states within an intrusion model's target component and classify the
//! outcomes — a risk-assessment sweep over system components (§III-C's
//! hardening-strategy scenario).
//!
//! ```sh
//! cargo run -p intrusion-core --example randomized_injection
//! ```

use intrusion_core::campaign::standard_world;
use intrusion_core::{default_jobs, RandomizedCampaign, TargetRegion, TextTable};
use hvsim::XenVersion;

fn main() {
    let regions = [
        TargetRegion::IdtGates { cpu: 0 },
        TargetRegion::SharedL3,
        TargetRegion::DomainPageTables,
        TargetRegion::DomainFrames,
    ];
    for version in [XenVersion::V4_8, XenVersion::V4_13] {
        println!("=== randomized injection sweep on Xen {version} (24 trials/region) ===");
        let mut table = TextTable::new([
            "target region",
            "injected",
            "crashes",
            "violated",
            "handled",
        ]);
        for region in regions {
            let campaign = RandomizedCampaign::new(region, 24, 0xDEAD_BEEF);
            let (summary, _) = campaign
                .run_with_jobs(
                    || {
                        let w = standard_world(version, true)?;
                        let attacker = w.domain_by_name("guest03").unwrap();
                        Ok((w, attacker))
                    },
                    default_jobs(),
                )
                .expect("sweep completes");
            table.row([
                region.label().to_owned(),
                summary.injected.to_string(),
                summary.crashes.to_string(),
                summary.violated.to_string(),
                summary.handled.to_string(),
            ]);
        }
        println!("{table}");
    }
    println!(
        "risk ranking: components whose random corruption crashes or violates\n\
         most often are the first candidates for hardening (paper §III-C)."
    );
}
