//! Intrusion injectors.
//!
//! "The intrusion injector is the component that injects the erroneous
//! state into the hypervisor (based on the IM), thus reproducing the
//! effects of a hypothetical intrusion. Several alternatives may exist to
//! implement such an injector." (§IV-A). The trait keeps the campaign
//! machinery independent of the mechanism; [`ArbitraryAccessInjector`]
//! is the paper's prototype — the patched-in `arbitrary_access()`
//! hypercall of §V.

use crate::erroneous_state::{ErroneousStateSpec, StateAudit};
use guestos::World;
use hvsim::HvError;
use hvsim_mem::DomainId;
use std::error::Error;
use std::fmt;

/// Why an injection failed.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum InjectError {
    /// The target build has no injector hypercall compiled in.
    NotCompiledIn,
    /// The hypervisor rejected an injector operation.
    Hv(HvError),
    /// All operations succeeded but the audit could not find the state.
    Unverified(StateAudit),
}

impl fmt::Display for InjectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InjectError::NotCompiledIn => {
                f.write_str("injector hypercall not compiled into this build")
            }
            InjectError::Hv(e) => write!(f, "injector hypercall failed: {e}"),
            InjectError::Unverified(a) => {
                write!(f, "erroneous state not verified after injection: {}", a.evidence)
            }
        }
    }
}

impl Error for InjectError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            InjectError::Hv(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HvError> for InjectError {
    fn from(e: HvError) -> Self {
        match e {
            HvError::NoSys => InjectError::NotCompiledIn,
            other => InjectError::Hv(other),
        }
    }
}

/// Evidence returned by a successful injection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InjectionEvidence {
    /// Number of injector operations performed.
    pub ops: usize,
    /// The post-injection audit of the target state.
    pub audit: StateAudit,
}

/// An intrusion injector: takes a state specification and makes it true.
pub trait Injector {
    /// Human-readable injector name for reports.
    fn name(&self) -> &'static str;

    /// Injects the erroneous state as `dom` (the triggering source), and
    /// audits it.
    ///
    /// # Errors
    ///
    /// [`InjectError`] on hypercall failure or failed verification.
    fn inject(
        &self,
        world: &mut World,
        dom: DomainId,
        spec: &ErroneousStateSpec,
    ) -> Result<InjectionEvidence, InjectError>;
}

/// The paper's prototype injector: drives the `arbitrary_access()`
/// hypercall (plus the accounting interface for keep-page-reference
/// states).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArbitraryAccessInjector;

impl Injector for ArbitraryAccessInjector {
    fn name(&self) -> &'static str {
        "arbitrary_access"
    }

    fn inject(
        &self,
        world: &mut World,
        dom: DomainId,
        spec: &ErroneousStateSpec,
    ) -> Result<InjectionEvidence, InjectError> {
        let ops = spec.lower(world);
        let mut performed = 0usize;
        for (mode, addr, mut bytes) in ops {
            world
                .hv_mut()
                .hc_arbitrary_access(dom, addr, &mut bytes, mode)?;
            performed += 1;
        }
        finish_injection(world, spec, performed)
    }
}

/// A debugger-stub injector: applies the same erroneous-state
/// specifications through a host-side debug interface (gdbsx/JTAG style)
/// instead of a patched-in hypercall.
///
/// The paper's §IX-D names intrusiveness as a drawback of injector
/// implementations that modify the system; this injector is the
/// non-intrusive alternative: it works on **stock builds** (no
/// `arbitrary_access` hypercall compiled in), at the cost of requiring
/// host-level debug access and of not being able to exercise the
/// guest-visible hypercall path. Accounting-level states
/// (keep-page-reference, forced pause) still need the injector build.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DebugStubInjector;

impl Injector for DebugStubInjector {
    fn name(&self) -> &'static str {
        "debug_stub"
    }

    fn inject(
        &self,
        world: &mut World,
        dom: DomainId,
        spec: &ErroneousStateSpec,
    ) -> Result<InjectionEvidence, InjectError> {
        let ops = spec.lower(world);
        let mut performed = 0usize;
        for (mode, addr, mut bytes) in ops {
            let phys = if mode.is_linear() {
                world
                    .hv()
                    .debug_stub_resolve(dom, hvsim_mem::VirtAddr::new(addr))
                    .ok_or(InjectError::Hv(HvError::Fault))?
            } else {
                hvsim_mem::PhysAddr::new(addr)
            };
            world
                .hv_mut()
                .debug_stub_access(phys, &mut bytes, mode.is_write())
                .map_err(InjectError::Hv)?;
            performed += 1;
        }
        finish_injection(world, spec, performed)
    }
}

/// The tail both injectors share once their memory writes are done:
/// the accounting-level states (keep-page-reference, forced pause),
/// which only the injector interface can set, then the audit that
/// verifies the state. `performed` counts the writes already made.
fn finish_injection(
    world: &mut World,
    spec: &ErroneousStateSpec,
    mut performed: usize,
) -> Result<InjectionEvidence, InjectError> {
    if let ErroneousStateSpec::RetainFrameAccess { dom: target, mfn } = spec {
        world.hv_mut().inject_retain_access(*target, *mfn)?;
        performed += 1;
    }
    if let ErroneousStateSpec::ForcePause { dom: target } = spec {
        world.hv_mut().inject_pause_state(*target, true)?;
        performed += 1;
    }
    let audit = spec.audit(world);
    if audit.present {
        Ok(InjectionEvidence {
            ops: performed,
            audit,
        })
    } else {
        Err(InjectError::Unverified(audit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guestos::WorldBuilder;
    use hvsim::XenVersion;
    use hvsim_mem::Mfn;

    fn world(injector: bool) -> (World, DomainId) {
        let w = WorldBuilder::new(XenVersion::V4_13)
            .injector(injector)
            .guest("g", 32)
            .build()
            .unwrap();
        let dom = w.domain_by_name("g").unwrap();
        (w, dom)
    }

    #[test]
    fn injects_and_verifies_idt_corruption() {
        let (mut w, dom) = world(true);
        let spec = ErroneousStateSpec::OverwriteIdtGate {
            cpu: 0,
            vector: 14,
            value: 0x4141_4141_4141_4141,
        };
        let evidence = ArbitraryAccessInjector.inject(&mut w, dom, &spec).unwrap();
        assert_eq!(evidence.ops, 1);
        assert!(evidence.audit.present);
    }

    #[test]
    fn stock_build_reports_not_compiled_in() {
        let (mut w, dom) = world(false);
        let spec = ErroneousStateSpec::OverwriteIdtGate {
            cpu: 0,
            vector: 14,
            value: 0x41,
        };
        assert_eq!(
            ArbitraryAccessInjector.inject(&mut w, dom, &spec).unwrap_err(),
            InjectError::NotCompiledIn
        );
    }

    #[test]
    fn retain_access_goes_through_accounting_interface() {
        let (mut w, dom) = world(true);
        let victim_frame = Mfn::new(100);
        let spec = ErroneousStateSpec::RetainFrameAccess {
            dom,
            mfn: victim_frame,
        };
        let evidence = ArbitraryAccessInjector.inject(&mut w, dom, &spec).unwrap();
        assert_eq!(evidence.ops, 1);
        assert!(w.hv().domain(dom).unwrap().retains_access(victim_frame));
    }

    #[test]
    fn debug_stub_works_on_stock_builds() {
        // The non-intrusive injector needs no patched hypercall.
        let (mut w, dom) = world(false);
        assert!(!w.hv().injector_enabled());
        let spec = ErroneousStateSpec::OverwriteIdtGate {
            cpu: 0,
            vector: 14,
            value: 0x4242_4242_4242_4242,
        };
        let ev = DebugStubInjector.inject(&mut w, dom, &spec).unwrap();
        assert!(ev.audit.present);
    }

    #[test]
    fn debug_stub_and_hypercall_injector_induce_identical_states() {
        let spec = |w: &World| {
            let dom = w.domain_by_name("g").unwrap();
            let l4 = w.hv().domain(dom).unwrap().cr3().unwrap();
            ErroneousStateSpec::SetL4EntryRw { l4, index: 256 }
        };
        let (mut w1, d1) = world(true);
        let s1 = spec(&w1);
        ArbitraryAccessInjector.inject(&mut w1, d1, &s1).unwrap();
        let (mut w2, d2) = world(true);
        let s2 = spec(&w2);
        DebugStubInjector.inject(&mut w2, d2, &s2).unwrap();
        assert_eq!(s1.audit(&w1).evidence, s2.audit(&w2).evidence);
    }

    #[test]
    fn debug_stub_accounting_states_still_need_injector_build() {
        let (mut w, dom) = world(false);
        let spec = ErroneousStateSpec::RetainFrameAccess {
            dom,
            mfn: Mfn::new(50),
        };
        assert_eq!(
            DebugStubInjector.inject(&mut w, dom, &spec).unwrap_err(),
            InjectError::NotCompiledIn
        );
    }

    #[test]
    fn error_messages_are_useful() {
        assert!(InjectError::NotCompiledIn.to_string().contains("not compiled"));
        let e: InjectError = HvError::Fault.into();
        assert!(matches!(e, InjectError::Hv(HvError::Fault)));
        let e: InjectError = HvError::NoSys.into();
        assert_eq!(e, InjectError::NotCompiledIn);
    }
}
