//! Regenerates **Fig. 4**: the experimental validation strategy —
//! compare the security violation of the original PoC against the
//! violation after injecting the equivalent erroneous state, on the same
//! (vulnerable) Xen version.

use bench::run_paper_campaign;

fn main() {
    bench::reject_arguments("fig4_validation", None);
    eprintln!("running the full campaign ...");
    let report = run_paper_campaign();
    println!("{}", report.render_fig4());
    println!(
        "equivalent = the injection induced the same erroneous state and the\n\
         same security violation as the original exploit (RQ1, §VI-C)."
    );
}
