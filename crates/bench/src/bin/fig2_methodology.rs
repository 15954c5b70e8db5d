//! Regenerates **Fig. 2**: the methodology overview — the traditional
//! (attack) path and the injection path side by side, for every use
//! case, from live runs.

use bench::run_paper_campaign;
use hvsim::XenVersion;

fn main() {
    bench::reject_arguments("fig2_methodology", None);
    eprintln!("running the full campaign ...");
    let report = run_paper_campaign();
    for uc in [
        "XSA-212-crash",
        "XSA-212-priv",
        "XSA-148-priv",
        "XSA-182-test",
    ] {
        println!("{}", report.render_fig2(uc, XenVersion::V4_6));
    }
    println!("and on the hardened version, where the injector still reaches the");
    println!("erroneous state but the system may handle it:\n");
    for uc in ["XSA-212-priv", "XSA-182-test"] {
        println!("{}", report.render_fig2(uc, XenVersion::V4_13));
    }
}
