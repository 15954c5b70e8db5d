//! The management interface: `domctl`-style privileged domain control.
//!
//! The paper's intrusion-model instantiation lists "activities
//! originating from the management interface" as a triggering source the
//! prototype was being extended toward. This module provides that
//! surface: domain-control operations that only the privileged domain
//! may invoke — pause/unpause, quota changes, destruction. Erroneous
//! states of the *availability* family ("a domain you didn't pause is
//! paused") become injectable and monitorable.

use crate::audit::AuditEvent;
use crate::hypervisor::Hypervisor;
use crate::HvError;
use hvsim_mem::DomainId;

/// A domain-control operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DomctlOp {
    /// Stop scheduling the target domain.
    Pause,
    /// Resume the target domain.
    Unpause,
    /// Change the target's maximum page quota.
    SetMaxMem {
        /// New quota in pages.
        max_pages: u64,
    },
    /// Destroy the target domain.
    Destroy,
}

impl DomctlOp {
    /// The operation's name for the audit log.
    pub fn name(self) -> &'static str {
        match self {
            DomctlOp::Pause => "pause",
            DomctlOp::Unpause => "unpause",
            DomctlOp::SetMaxMem { .. } => "set_max_mem",
            DomctlOp::Destroy => "destroy",
        }
    }
}

impl Hypervisor {
    /// `HYPERVISOR_domctl`: privileged domain control.
    ///
    /// # Errors
    ///
    /// [`HvError::Perm`] unless the caller is the privileged domain (a
    /// domain may always pause/unpause itself, as in Xen);
    /// [`HvError::NoDomain`] for unknown targets.
    pub fn hc_domctl(
        &mut self,
        caller: DomainId,
        target: DomainId,
        op: DomctlOp,
    ) -> Result<u64, HvError> {
        self.enter(caller, "domctl", |hv| {
            hv.check_domctl_privilege(caller, target, op)?;
            match op {
                DomctlOp::Pause => hv.domain_mut(target)?.set_paused(true),
                DomctlOp::Unpause => hv.domain_mut(target)?.set_paused(false),
                DomctlOp::SetMaxMem { max_pages } => {
                    hv.domain(target)?;
                    hv.alloc.set_quota(target, max_pages);
                }
                DomctlOp::Destroy if target == caller => return Err(HvError::Inval),
                DomctlOp::Destroy => hv.domain_mut(target)?.kill(),
            }
            Ok(0)
        })
    }

    /// The one privilege check: the privileged domain only, except that a
    /// domain may always pause or unpause itself. Rejections are audited.
    fn check_domctl_privilege(
        &mut self,
        caller: DomainId,
        target: DomainId,
        op: DomctlOp,
    ) -> Result<(), HvError> {
        let self_directed = caller == target && matches!(op, DomctlOp::Pause | DomctlOp::Unpause);
        if self.domain(caller)?.is_privileged() || self_directed {
            return Ok(());
        }
        self.audit.push(AuditEvent::ValidationRejected {
            dom: caller,
            check: "domctl_privilege",
            detail: format!("{caller} attempted {} on {target}", op.name()),
        });
        Err(HvError::Perm)
    }

    /// Injector-only: force a domain's scheduler state (paused flag)
    /// without any privilege check — the *availability* erroneous state
    /// a compromised management interface would leave behind.
    ///
    /// # Errors
    ///
    /// [`HvError::NoSys`] when the injector is not compiled in.
    pub fn inject_pause_state(&mut self, target: DomainId, paused: bool) -> Result<(), HvError> {
        if !self.injector_enabled() {
            return Err(HvError::NoSys);
        }
        self.domain_mut(target)?.set_paused(paused);
        self.audit.push(AuditEvent::InjectorAccess {
            dom: target,
            addr: 0,
            len: 0,
            mode: if paused { "inject pause" } else { "inject unpause" },
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BuildConfig, XenVersion};

    fn setup() -> (Hypervisor, DomainId, DomainId) {
        let mut hv = Hypervisor::new(BuildConfig::new(XenVersion::V4_8).injector(true));
        let dom0 = hv.create_domain("dom0", true, 16).unwrap();
        let guest = hv.create_domain("guest", false, 16).unwrap();
        (hv, dom0, guest)
    }

    #[test]
    fn dom0_controls_guests() {
        let (mut hv, dom0, guest) = setup();
        hv.hc_domctl(dom0, guest, DomctlOp::Pause).unwrap();
        assert!(hv.domain(guest).unwrap().is_paused());
        hv.hc_domctl(dom0, guest, DomctlOp::Unpause).unwrap();
        assert!(!hv.domain(guest).unwrap().is_paused());
        hv.hc_domctl(dom0, guest, DomctlOp::SetMaxMem { max_pages: 8 }).unwrap();
        hv.hc_domctl(dom0, guest, DomctlOp::Destroy).unwrap();
        assert!(hv.domain(guest).unwrap().is_dead());
    }

    #[test]
    fn guests_cannot_control_others() {
        let (mut hv, dom0, guest) = setup();
        assert_eq!(hv.hc_domctl(guest, dom0, DomctlOp::Pause).unwrap_err(), HvError::Perm);
        assert_eq!(
            hv.hc_domctl(guest, dom0, DomctlOp::Destroy).unwrap_err(),
            HvError::Perm
        );
        // But may pause themselves.
        hv.hc_domctl(guest, guest, DomctlOp::Pause).unwrap();
        assert!(hv.domain(guest).unwrap().is_paused());
    }

    #[test]
    fn dom0_cannot_destroy_itself() {
        let (mut hv, dom0, _) = setup();
        assert_eq!(
            hv.hc_domctl(dom0, dom0, DomctlOp::Destroy).unwrap_err(),
            HvError::Inval
        );
    }

    #[test]
    fn inject_pause_state_bypasses_privilege() {
        let (mut hv, dom0, _) = setup();
        hv.inject_pause_state(dom0, true).unwrap();
        assert!(hv.domain(dom0).unwrap().is_paused());
        // Not available on stock builds.
        let mut stock = Hypervisor::new(BuildConfig::new(XenVersion::V4_8));
        let d = stock.create_domain("g", false, 16).unwrap();
        assert_eq!(stock.inject_pause_state(d, true).unwrap_err(), HvError::NoSys);
    }

    #[test]
    fn privilege_rejections_audited() {
        let (mut hv, dom0, guest) = setup();
        let _ = hv.hc_domctl(guest, dom0, DomctlOp::Pause);
        assert!(hv.audit().events().iter().any(|e| matches!(
            e,
            AuditEvent::ValidationRejected { check: "domctl_privilege", .. }
        )));
    }
}
