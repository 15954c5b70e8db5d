//! Quickstart: boot a simulated Xen, run a real exploit, then inject the
//! same erroneous state — the paper's core idea in one file.
//!
//! ```sh
//! cargo run -p intrusion-core --example quickstart
//! ```

use intrusion_core::campaign::standard_world;
use intrusion_core::{ArbitraryAccessInjector, Mode, UseCase};
use hvsim::XenVersion;
use xsa_exploits::Xsa212Crash;

fn main() {
    // ---------------------------------------------------------------
    // 1. The traditional path: the XSA-212-crash exploit on Xen 4.6.
    // ---------------------------------------------------------------
    println!("=== exploit path (Xen 4.6, vulnerable) ===");
    let mut world = standard_world(XenVersion::V4_6, false).expect("standard world boots");
    let attacker = world.domain_by_name("guest03").expect("attacker guest");
    let outcome = Xsa212Crash.run_exploit(&mut world, attacker);
    for note in &outcome.notes {
        println!("  {note}");
    }
    println!("  erroneous state induced: {}", outcome.erroneous_state);
    println!("  hypervisor crashed:      {}", world.hv().is_crashed());
    for line in world.hv().console().filter(|l| l.contains("XEN")) {
        println!("  {line}");
    }

    // ---------------------------------------------------------------
    // 2. The same exploit on a fixed version fails with -EFAULT.
    // ---------------------------------------------------------------
    println!("\n=== exploit path (Xen 4.13, fixed) ===");
    let mut world = standard_world(XenVersion::V4_13, false).expect("standard world boots");
    let attacker = world.domain_by_name("guest03").expect("attacker guest");
    let outcome = Xsa212Crash.run_exploit(&mut world, attacker);
    println!("  erroneous state induced: {}", outcome.erroneous_state);
    println!("  exploit error:           {}", outcome.error.as_deref().unwrap_or("-"));

    // ---------------------------------------------------------------
    // 3. Intrusion injection: the same erroneous state on Xen 4.13,
    //    no vulnerability needed.
    // ---------------------------------------------------------------
    println!("\n=== injection path (Xen 4.13, injector build) ===");
    let mut world = standard_world(XenVersion::V4_13, true).expect("standard world boots");
    let attacker = world.domain_by_name("guest03").expect("attacker guest");
    let outcome = Xsa212Crash.run_injection(&mut world, attacker, &ArbitraryAccessInjector);
    for note in &outcome.notes {
        println!("  {note}");
    }
    println!("  erroneous state induced: {}", outcome.erroneous_state);
    println!("  hypervisor crashed:      {}", world.hv().is_crashed());
    println!(
        "\nSame erroneous state, same security violation — on a version where \
         the vulnerability does not exist ({} mode).",
        Mode::Injection
    );
}
