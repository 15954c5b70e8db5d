//! Regenerates **Fig. 1**: the chain of dependability threats with the
//! extended-AVI model — as the paper's static diagram, then instantiated
//! live from a real exploit run and a real injection run.

use bench::attack_world;
use intrusion_core::{ThreatChain, ThreatStage, UseCase};
use hvsim::XenVersion;
use xsa_exploits::Xsa212Crash;

fn main() {
    bench::reject_arguments("fig1_avi_chain", None);
    println!("FIG. 1: chain of dependability threats with the extended-AVI model\n");
    println!("generic chain (the paper's VENOM/XSA-133 running example):");
    println!("  {}\n", ThreatChain::fig1_example());

    // Instantiated from a live exploit run.
    let (mut world, attacker) = attack_world(XenVersion::V4_6, false);
    let outcome = Xsa212Crash.run_exploit(&mut world, attacker);
    let mut chain = ThreatChain::new();
    chain
        .push(ThreatStage::Attack, "guest issues memory_exchange with crafted out handle")
        .push(ThreatStage::Vulnerability, "XSA-212: insufficient check on the handle")
        .push(ThreatStage::Intrusion, "error write-back runs with hypervisor privileges");
    if outcome.erroneous_state {
        chain.push(ThreatStage::ErroneousState, "IDT #PF gate corrupted");
    }
    if world.hv().is_crashed() {
        chain.push(ThreatStage::SecurityViolation, "double fault -> hypervisor panic");
    }
    println!("instantiated from a live XSA-212-crash exploit run (Xen 4.6):");
    println!("  {chain}\n");

    // The injection path enters the chain at the erroneous state.
    let (mut world, attacker) = attack_world(XenVersion::V4_13, true);
    let outcome = intrusion_core::UseCase::run_injection(
        &Xsa212Crash,
        &mut world,
        attacker,
        &intrusion_core::ArbitraryAccessInjector,
    );
    let mut chain = ThreatChain::new();
    if outcome.erroneous_state {
        chain.push(
            ThreatStage::INJECTION_ENTRY,
            "intrusion injector corrupts the #PF gate directly",
        );
    }
    if world.hv().is_crashed() {
        chain.push(ThreatStage::SecurityViolation, "double fault -> hypervisor panic");
    } else {
        chain.push(ThreatStage::Handled, "fault delivered normally");
    }
    println!("instantiated from a live injection run (Xen 4.13):");
    println!("  {chain}");
    println!(
        "\nthe injection chain enters at '{}' — skipping attack, vulnerability\nand intrusion (the red dotted arrow of Fig. 2).",
        ThreatStage::INJECTION_ENTRY
    );
}
