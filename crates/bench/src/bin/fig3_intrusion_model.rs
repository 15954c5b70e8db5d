//! Regenerates **Fig. 3**: the internal state transitions of an
//! intrusion (left) and their abstraction into a single abusive
//! functionality (right), built from the XSA-182 strategy.

use intrusion_core::{AbusiveFunctionality, StateTrace, UseCase};
use xsa_exploits::Xsa182Test;

fn main() {
    bench::reject_arguments("fig3_intrusion_model", None);
    println!("FIG. 3: intrusion internal impact (left) vs intrusion-model abstraction (right)\n");

    // Left: the internal view — every state the system passes through
    // while the XSA-182 exploit runs.
    let mut internal = StateTrace::new();
    let s1 = internal.state("state 1 (initial: PV guest running)");
    let s2 = internal.state("state 2 (read-only L4 self-map installed)");
    let s3 = internal.state("state 3 (fast-path mmu_update queued)");
    let s4 = internal.state("erroneous state (writable self-referencing L4 entry)");
    internal.transition(s1, "instruction set a: mmu_update(L4[42] := self, RO)", s2);
    internal.transition(s2, "instruction set b: mmu_update(L4[42] += RW)", s3);
    internal.transition(s3, "vulnerability activation: XSA-182 fast path skips revalidation", s4);
    println!("internal view:");
    println!("{}", internal.render());

    // Right: the abstracted (attacker's) view.
    let abstracted = internal.abstracted(AbusiveFunctionality::GuestWritablePageTableEntry);
    println!("abstracted view (what the intrusion model captures):");
    println!("{}", abstracted.render());

    let im = Xsa182Test.intrusion_model();
    println!("the intrusion model that abstraction instantiates:");
    println!("  {im}");
    println!("  generalizes: {:?}", im.related_advisories);
    println!(
        "\nboth views are equivalent in functionality: a given input places the\n\
         system directly into the erroneous state (paper §IV-B)."
    );
}
