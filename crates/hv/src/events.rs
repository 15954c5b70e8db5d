//! Event channels: Xen's virtual-interrupt mechanism.
//!
//! The paper's future work — "we are expanding our prototype to cover
//! IMs related with malicious interrupts" — needs a substrate: in Xen,
//! interrupts delivered to guests are *event channels*, and their
//! pending/mask state lives in each domain's **shared-info page**, i.e.
//! in machine memory the injector hypercall can reach. This module
//! models exactly that:
//!
//! * each domain owns a shared-info frame with `evtchn_pending` and
//!   `evtchn_mask` bitmaps at architecturally fixed offsets,
//! * `hc_event_channel_op` implements alloc-unbound / bind-interdomain /
//!   send / close with per-version validation (the vulnerable build
//!   skips the port-ownership check on send — an *Uncontrolled
//!   Arbitrary Interrupts Requests* hole),
//! * monitors detect *spurious pending events*: pending bits on ports
//!   that were never bound, the observable erroneous state of the
//!   interrupt intrusion models.

use crate::audit::AuditEvent;
use crate::hypervisor::Hypervisor;
use crate::HvError;
use hvsim_mem::{DomainId, Mfn};

/// Number of event ports per domain.
pub const EVTCHN_PORTS: usize = 512;
/// Byte offset of the pending bitmap within the shared-info frame.
pub const PENDING_OFFSET: usize = 0;
/// Byte offset of the mask bitmap within the shared-info frame.
pub const MASK_OFFSET: usize = 64;

/// State of one event port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PortState {
    /// Free for allocation.
    Free,
    /// Allocated, waiting for a remote domain to bind.
    Unbound {
        /// The domain allowed to bind.
        remote: DomainId,
    },
    /// Connected to a remote domain's port.
    Interdomain {
        /// The peer domain.
        remote: DomainId,
        /// The peer's port number.
        remote_port: u16,
    },
}

/// An event-channel operation (`EVTCHNOP_*`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventChannelOp {
    /// Allocate a port that `remote` may later bind to.
    AllocUnbound {
        /// The domain allowed to bind.
        remote: DomainId,
    },
    /// Bind a local port to a remote domain's unbound port.
    BindInterdomain {
        /// The peer domain.
        remote: DomainId,
        /// The peer's unbound port.
        remote_port: u16,
    },
    /// Raise an event on a local port (delivers to the bound peer).
    Send {
        /// The local port.
        port: u16,
    },
    /// Close a local port.
    Close {
        /// The local port.
        port: u16,
    },
}

impl Hypervisor {
    /// `HYPERVISOR_event_channel_op`.
    ///
    /// Returns the allocated port for `AllocUnbound`/`BindInterdomain`,
    /// 0 otherwise.
    ///
    /// # Errors
    ///
    /// [`HvError::Inval`] for bad ports or states; on *fixed* builds,
    /// [`HvError::Perm`] when sending on a port the caller has not
    /// bound (the vulnerable build omits that check).
    pub fn hc_event_channel_op(
        &mut self,
        dom: DomainId,
        op: EventChannelOp,
    ) -> Result<u64, HvError> {
        self.enter(dom, "event_channel_op", |hv| match op {
            EventChannelOp::AllocUnbound { remote } => {
                hv.domain(remote)?;
                let d = hv.domain_mut(dom)?;
                let port = d.alloc_event_port(PortState::Unbound { remote })?;
                Ok(port as u64)
            }
            EventChannelOp::BindInterdomain { remote, remote_port } => {
                // The remote port must be unbound-for-us.
                match hv.domain(remote)?.event_port(remote_port) {
                    Some(PortState::Unbound { remote: allowed }) if allowed == dom => {}
                    _ => return Err(HvError::Inval),
                }
                let local = hv
                    .domain_mut(dom)?
                    .alloc_event_port(PortState::Interdomain {
                        remote,
                        remote_port,
                    })?;
                hv.domain_mut(remote)?.set_event_port(
                    remote_port,
                    PortState::Interdomain {
                        remote: dom,
                        remote_port: local,
                    },
                )?;
                Ok(local as u64)
            }
            EventChannelOp::Send { port } => {
                let state = hv.domain(dom)?.event_port(port);
                match state {
                    Some(PortState::Interdomain { remote, remote_port }) => {
                        hv.deliver_event(remote, remote_port)?;
                        Ok(0)
                    }
                    _ if !hv.vulns.xsa_evtchn_unvalidated_send => {
                        hv.audit.push(AuditEvent::ValidationRejected {
                            dom,
                            check: "evtchn_send",
                            detail: format!("send on unbound port {port}"),
                        });
                        Err(HvError::Perm)
                    }
                    _ => {
                        // Vulnerable: the port number is trusted and used
                        // as a (domain, port) pair raw — a guest can raise
                        // arbitrary events on arbitrary domains.
                        let victims = hv.domain_ids();
                        let victim = victims
                            .get((port as usize) % victims.len().max(1))
                            .copied()
                            .ok_or(HvError::NoDomain)?;
                        hv.deliver_event(victim, port % EVTCHN_PORTS as u16)?;
                        Ok(0)
                    }
                }
            }
            EventChannelOp::Close { port } => {
                let state = hv.domain(dom)?.event_port(port).ok_or(HvError::Inval)?;
                if let PortState::Interdomain { remote, remote_port } = state {
                    if let Ok(r) = hv.domain_mut(remote) {
                        let _ = r.set_event_port(remote_port, PortState::Unbound { remote: dom });
                    }
                }
                hv.domain_mut(dom)?.set_event_port(port, PortState::Free)?;
                Ok(0)
            }
        })
    }

    /// Sets the pending bit for `(dom, port)` in the domain's
    /// shared-info frame.
    pub(crate) fn deliver_event(&mut self, dom: DomainId, port: u16) -> Result<(), HvError> {
        let shared = self.domain(dom)?.shared_info_mfn().ok_or(HvError::Inval)?;
        set_bit(self, shared, PENDING_OFFSET, port)?;
        self.audit.push(AuditEvent::Exception {
            vector: 0x20,
            addr: None,
            delivered: true,
        });
        self.domain_mut(dom)?.count_event();
        Ok(())
    }

    /// Reads a domain's pending bitmap (64 bytes).
    ///
    /// # Errors
    ///
    /// [`HvError::Inval`] if the domain has no shared-info frame.
    pub fn pending_bitmap(&self, dom: DomainId) -> Result<[u8; 64], HvError> {
        let shared = self.domain(dom)?.shared_info_mfn().ok_or(HvError::Inval)?;
        let mut buf = [0u8; 64];
        self.mem
            .read(shared.base().offset(PENDING_OFFSET as u64), &mut buf)?;
        Ok(buf)
    }

    /// Ports with the pending bit set in a domain's shared-info frame.
    pub fn pending_ports(&self, dom: DomainId) -> Vec<u16> {
        let Ok(bitmap) = self.pending_bitmap(dom) else {
            return Vec::new();
        };
        let mut ports = Vec::new();
        for (byte_idx, byte) in bitmap.iter().enumerate() {
            for bit in 0..8 {
                if byte & (1 << bit) != 0 {
                    ports.push((byte_idx * 8 + bit) as u16);
                }
            }
        }
        ports
    }

    /// Pending ports that are **not bound** — spurious events, the
    /// observable erroneous state of the interrupt intrusion models.
    pub fn spurious_pending_ports(&self, dom: DomainId) -> Vec<u16> {
        let Ok(d) = self.domain(dom) else { return Vec::new() };
        self.pending_ports(dom)
            .into_iter()
            .filter(|&p| {
                !matches!(
                    d.event_port(p),
                    Some(PortState::Interdomain { .. }) | Some(PortState::Unbound { .. })
                )
            })
            .collect()
    }
}

fn set_bit(hv: &mut Hypervisor, frame: Mfn, base: usize, port: u16) -> Result<(), HvError> {
    if port as usize >= EVTCHN_PORTS {
        return Err(HvError::Inval);
    }
    let byte = base + (port as usize) / 8;
    let addr = frame.base().offset(byte as u64);
    let mut cur = [0u8; 1];
    hv.mem.read(addr, &mut cur)?;
    cur[0] |= 1 << (port % 8);
    hv.mem.write(addr, &cur)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BuildConfig, XenVersion};

    fn setup(version: XenVersion) -> (Hypervisor, DomainId, DomainId) {
        let mut hv = Hypervisor::new(BuildConfig::new(version));
        let a = hv.create_domain("a", false, 16).unwrap();
        let b = hv.create_domain("b", false, 16).unwrap();
        (hv, a, b)
    }

    #[test]
    fn alloc_bind_send_close_roundtrip() {
        let (mut hv, a, b) = setup(XenVersion::V4_8);
        let remote_port = hv
            .hc_event_channel_op(a, EventChannelOp::AllocUnbound { remote: b })
            .unwrap() as u16;
        let local = hv
            .hc_event_channel_op(
                b,
                EventChannelOp::BindInterdomain {
                    remote: a,
                    remote_port,
                },
            )
            .unwrap() as u16;
        // b sends: a's pending bit rises on remote_port.
        hv.hc_event_channel_op(b, EventChannelOp::Send { port: local }).unwrap();
        assert_eq!(hv.pending_ports(a), vec![remote_port]);
        assert!(hv.spurious_pending_ports(a).is_empty(), "bound events are not spurious");
        // Close tears both sides down.
        hv.hc_event_channel_op(b, EventChannelOp::Close { port: local }).unwrap();
        assert!(matches!(
            hv.domain(a).unwrap().event_port(remote_port),
            Some(PortState::Unbound { .. })
        ));
    }

    #[test]
    fn bind_requires_matching_unbound_port() {
        let (mut hv, a, b) = setup(XenVersion::V4_8);
        // Nothing allocated yet.
        assert_eq!(
            hv.hc_event_channel_op(
                b,
                EventChannelOp::BindInterdomain { remote: a, remote_port: 5 }
            )
            .unwrap_err(),
            HvError::Inval
        );
        // Allocated for someone else.
        let c = hv.create_domain("c", false, 16).unwrap();
        let port = hv
            .hc_event_channel_op(a, EventChannelOp::AllocUnbound { remote: c })
            .unwrap() as u16;
        assert_eq!(
            hv.hc_event_channel_op(
                b,
                EventChannelOp::BindInterdomain { remote: a, remote_port: port }
            )
            .unwrap_err(),
            HvError::Inval
        );
    }

    #[test]
    fn fixed_versions_reject_unbound_send() {
        for version in [XenVersion::V4_8, XenVersion::V4_13] {
            let (mut hv, a, _) = setup(version);
            assert_eq!(
                hv.hc_event_channel_op(a, EventChannelOp::Send { port: 77 }).unwrap_err(),
                HvError::Perm,
                "{version}"
            );
        }
    }

    #[test]
    fn vulnerable_send_raises_arbitrary_events() {
        let (mut hv, a, b) = setup(XenVersion::V4_6);
        // a sends on a port it never bound; some domain receives a
        // spurious event.
        hv.hc_event_channel_op(a, EventChannelOp::Send { port: 100 }).unwrap();
        let spurious: usize = [a, b]
            .iter()
            .chain(hv.domain_ids().iter())
            .map(|&d| hv.spurious_pending_ports(d).len())
            .sum();
        assert!(spurious > 0, "uncontrolled interrupt landed somewhere");
    }

    #[test]
    fn send_on_crashed_hypervisor_fails() {
        let (mut hv, a, _) = setup(XenVersion::V4_6);
        hv.crash("test");
        assert_eq!(
            hv.hc_event_channel_op(a, EventChannelOp::Send { port: 0 }).unwrap_err(),
            HvError::Crashed
        );
    }

    #[test]
    fn pending_bitmap_lives_in_injectable_memory() {
        // The whole point: the erroneous state is reachable by the
        // injector because it is machine memory.
        let (mut hv, a, _) = setup(XenVersion::V4_13);
        let shared = hv.domain(a).unwrap().shared_info_mfn().unwrap();
        // Direct write = what the injector's PhysWrite does.
        hv.mem_write_for_test(shared, PENDING_OFFSET, &[0b0000_1010]);
        assert_eq!(hv.pending_ports(a), vec![1, 3]);
        assert_eq!(hv.spurious_pending_ports(a), vec![1, 3]);
    }

    #[test]
    fn event_counter_increments() {
        let (mut hv, a, b) = setup(XenVersion::V4_8);
        let rp = hv
            .hc_event_channel_op(a, EventChannelOp::AllocUnbound { remote: b })
            .unwrap() as u16;
        let lp = hv
            .hc_event_channel_op(b, EventChannelOp::BindInterdomain { remote: a, remote_port: rp })
            .unwrap() as u16;
        for _ in 0..5 {
            hv.hc_event_channel_op(b, EventChannelOp::Send { port: lp }).unwrap();
        }
        assert_eq!(hv.domain(a).unwrap().events_received(), 5);
    }
}
