//! The security benchmark the paper's conclusion targets: score every
//! version by how it handles the full injected erroneous-state corpus
//! (the paper's four use cases plus the extension IMs), then rank.

use intrusion_core::{default_jobs, Campaign, SecurityBenchmark};
use xsa_exploits::{extension_use_cases, paper_use_cases};

fn main() {
    bench::reject_arguments("security_benchmark", None);
    eprintln!("running the extended campaign (paper + extension use cases) ...");
    let mut campaign = Campaign::new();
    for uc in paper_use_cases().into_iter().chain(extension_use_cases()) {
        campaign = campaign.with_use_case(uc);
    }
    let report = campaign.run_with_jobs(default_jobs());
    let benchmark = SecurityBenchmark::from_report(&report);
    println!("{}", benchmark.render());

    println!("ranking (higher = handles more injected erroneous states):");
    for (i, (version, score)) in benchmark.ranking().iter().enumerate() {
        println!("  {}. Xen {version}  score {score:.2}", i + 1);
    }
    println!(
        "\nnote: the keep-page-reference and interrupt IMs are not shielded by\n\
         the 4.13 hardening, which is why even the best-ranked version does\n\
         not reach 1.00 — the assessment signal a hardening roadmap needs."
    );
}
