//! Regenerates **Table II**: the four use cases and the abusive
//! functionality their intrusion models carry.

use intrusion_core::render_table2;
use xsa_exploits::paper_use_cases;

fn main() {
    bench::reject_arguments("table2_use_cases", None);
    println!("{}", render_table2(&paper_use_cases()));
    println!("full instantiation shared by all four (paper §VI-A):");
    let im = paper_use_cases()[0].intrusion_model();
    println!(
        "  triggering source: {}\n  target component:  {}\n  interface:         {}",
        im.triggering_source, im.target_component, im.interface
    );
}
