//! Whole-system PV memory-safety invariant auditing.
//!
//! Xen's PV security reduces to a handful of global invariants over the
//! page-type system. This module checks them *exhaustively* over machine
//! memory — the simulator-side analogue of the paper's "check if an
//! erroneous state is detectable, understandable, interpreted and
//! considered by the system as undesired behavior" (§III-C). Monitors
//! use it to detect erroneous states that have not (yet) caused an
//! observable violation.

use crate::hypervisor::Hypervisor;
use crate::validate::L4_HYPERVISOR_SLOT;
use hvsim_mem::{DomainId, Mfn, PageType};
use hvsim_paging::{PageTableEntry, PteFlags, ENTRIES_PER_TABLE};
use std::fmt;

/// One violated PV invariant.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum InvariantViolation {
    /// An L1 entry maps a page-table (or descriptor) frame writable —
    /// the core PV invariant, broken by XSA-148-style states.
    WritableMappingOfPageTable {
        /// The L1 table holding the entry.
        table: Mfn,
        /// Entry index.
        index: usize,
        /// The page-table frame exposed.
        target: Mfn,
    },
    /// A superpage (PSE) entry whose 2 MiB span covers page-table or
    /// hypervisor frames.
    SuperpageOverPrivilegedFrames {
        /// The L2 table holding the entry.
        table: Mfn,
        /// Entry index.
        index: usize,
        /// First privileged frame covered.
        covers: Mfn,
    },
    /// A writable self-referencing L4 entry (XSA-182's state).
    WritableSelfMap {
        /// The L4 frame.
        table: Mfn,
        /// Entry index.
        index: usize,
    },
    /// A guest-reserved L4 slot (≥ 256) points somewhere other than the
    /// shared hypervisor L3.
    HypervisorSlotHijacked {
        /// The L4 frame.
        table: Mfn,
        /// Slot index.
        index: usize,
        /// Where it points.
        target: Mfn,
    },
    /// A page-table entry targets a frame owned by another domain
    /// without a grant.
    ForeignFrameMapped {
        /// The table's owner.
        owner: DomainId,
        /// The table frame.
        table: Mfn,
        /// Entry index.
        index: usize,
        /// The foreign frame.
        target: Mfn,
    },
    /// A domain retains access to a frame it does not own (keep page
    /// reference).
    StaleRetainedAccess {
        /// The domain holding stale access.
        dom: DomainId,
        /// The frame.
        mfn: Mfn,
    },
    /// An IDT gate points outside the hypervisor's handler stubs.
    CorruptIdtGate {
        /// CPU index.
        cpu: usize,
        /// Vector number.
        vector: u8,
    },
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::WritableMappingOfPageTable { table, index, target } => write!(
                f,
                "L1 {table}[{index}] maps page-table frame {target} writable"
            ),
            InvariantViolation::SuperpageOverPrivilegedFrames { table, index, covers } => write!(
                f,
                "PSE entry {table}[{index}] covers privileged frame {covers}"
            ),
            InvariantViolation::WritableSelfMap { table, index } => {
                write!(f, "writable self-map at L4 {table}[{index}]")
            }
            InvariantViolation::HypervisorSlotHijacked { table, index, target } => {
                write!(f, "hypervisor L4 slot {table}[{index}] hijacked -> {target}")
            }
            InvariantViolation::ForeignFrameMapped { owner, table, index, target } => write!(
                f,
                "{owner}'s table {table}[{index}] maps foreign frame {target}"
            ),
            InvariantViolation::StaleRetainedAccess { dom, mfn } => {
                write!(f, "{dom} retains stale access to {mfn}")
            }
            InvariantViolation::CorruptIdtGate { cpu, vector } => {
                write!(f, "IDT gate cpu{cpu}/vec{vector} corrupted")
            }
        }
    }
}

impl Hypervisor {
    /// Audits every PV memory-safety invariant over all installed
    /// frames, all domains and all IDTs. An empty result means the
    /// system is in a (memory-wise) architecturally sound state.
    ///
    /// This is intentionally exhaustive rather than fast; campaigns run
    /// it between injections, not per hypercall.
    pub fn audit_pv_invariants(&self) -> Vec<InvariantViolation> {
        let mut found = Vec::new();
        let frames = self.mem.frame_count();
        for raw in 0..frames {
            let mfn = Mfn::new(raw);
            let info = match self.mem.info(mfn) {
                Ok(i) => i.clone(),
                Err(_) => continue,
            };
            let Some(level) = info.page_type().page_table_level() else {
                continue;
            };
            let owner = info.owner();
            for index in 0..ENTRIES_PER_TABLE {
                let Ok(val) = self.mem.read_u64(mfn.base().offset(index as u64 * 8)) else {
                    continue;
                };
                let entry = PageTableEntry::from_raw(val);
                if !entry.is_present() {
                    continue;
                }
                let target = entry.mfn();
                let rw = entry.flags().contains(PteFlags::RW);
                match level {
                    1 => {
                        if rw {
                            if let Ok(tinfo) = self.mem.info(target) {
                                if tinfo.page_type().is_page_table()
                                    || tinfo.page_type() == PageType::SegDesc
                                {
                                    found.push(InvariantViolation::WritableMappingOfPageTable {
                                        table: mfn,
                                        index,
                                        target,
                                    });
                                }
                            }
                        }
                        self.check_foreign(owner, mfn, index, target, &mut found);
                    }
                    2 if entry.flags().contains(PteFlags::PSE) => {
                        // A 2 MiB superpage covers 512 frames; find the
                        // first privileged one it exposes.
                        for off in 0..512u64 {
                            let covered = target.add(off);
                            let Ok(cinfo) = self.mem.info(covered) else { break };
                            let privileged = cinfo.page_type().is_page_table()
                                || cinfo.page_type() == PageType::Hypervisor
                                || (owner.is_some() && cinfo.owner() != owner);
                            if privileged {
                                found.push(InvariantViolation::SuperpageOverPrivilegedFrames {
                                    table: mfn,
                                    index,
                                    covers: covered,
                                });
                                break;
                            }
                        }
                    }
                    4 => {
                        if index >= L4_HYPERVISOR_SLOT {
                            if target != self.shared_l3_mfn() {
                                found.push(InvariantViolation::HypervisorSlotHijacked {
                                    table: mfn,
                                    index,
                                    target,
                                });
                            }
                            continue;
                        }
                        if target == mfn && rw {
                            found.push(InvariantViolation::WritableSelfMap { table: mfn, index });
                            continue;
                        }
                        self.check_foreign(owner, mfn, index, target, &mut found);
                    }
                    _ => {
                        self.check_foreign(owner, mfn, index, target, &mut found);
                    }
                }
            }
        }
        // Stale retained access across all domains.
        for dom in self.domains() {
            for mfn in dom.retained_frames() {
                let owner = self.mem.info(mfn).ok().and_then(|i| i.owner());
                if owner != Some(dom.id()) {
                    found.push(InvariantViolation::StaleRetainedAccess {
                        dom: dom.id(),
                        mfn,
                    });
                }
            }
        }
        // IDT gate integrity.
        for cpu in 0..self.cpu_count() {
            for vector in 0..32u8 {
                if let Ok(gate) = self.idt_entry(cpu, vector) {
                    if !gate.present || !self.is_valid_handler(gate.offset) {
                        found.push(InvariantViolation::CorruptIdtGate { cpu, vector });
                    }
                }
            }
        }
        found
    }

    fn check_foreign(
        &self,
        owner: Option<DomainId>,
        table: Mfn,
        index: usize,
        target: Mfn,
        found: &mut Vec<InvariantViolation>,
    ) {
        let Some(owner) = owner else { return };
        let Ok(tinfo) = self.mem.info(target) else { return };
        let target_owner = tinfo.owner();
        if target_owner == Some(owner) || tinfo.page_type() == PageType::Hypervisor {
            return;
        }
        let granted = self
            .domain(owner)
            .map(|d| d.retains_access(target))
            .unwrap_or(false);
        if !granted {
            found.push(InvariantViolation::ForeignFrameMapped {
                owner,
                table,
                index,
                target,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BuildConfig, XenVersion};

    #[test]
    fn fresh_hypervisor_is_sound() {
        let hv = Hypervisor::new(BuildConfig::new(XenVersion::V4_6));
        assert!(hv.audit_pv_invariants().is_empty());
    }

    #[test]
    fn idt_corruption_detected() {
        let mut hv = Hypervisor::new(BuildConfig::new(XenVersion::V4_6).injector(true));
        let dom = hv.create_domain("g", false, 16).unwrap();
        let gate_va = hv.sidt(0).offset(14 * 16);
        let mut garbage = 0x4141u64.to_le_bytes().to_vec();
        hv.hc_arbitrary_access(dom, gate_va.raw(), &mut garbage, crate::AccessMode::LinearWrite)
            .unwrap();
        let violations = hv.audit_pv_invariants();
        assert!(violations
            .iter()
            .any(|v| matches!(v, InvariantViolation::CorruptIdtGate { cpu: 0, vector: 14 })));
    }

    #[test]
    fn stale_retained_access_detected() {
        let mut hv = Hypervisor::new(BuildConfig::new(XenVersion::V4_13).injector(true));
        let dom = hv.create_domain("g", false, 16).unwrap();
        let dom2 = hv.create_domain("h", false, 16).unwrap();
        let foreign = hv.domain(dom2).unwrap().p2m(hvsim_mem::Pfn::new(3)).unwrap();
        hv.inject_retain_access(dom, foreign).unwrap();
        let violations = hv.audit_pv_invariants();
        assert!(violations
            .iter()
            .any(|v| matches!(v, InvariantViolation::StaleRetainedAccess { .. })));
    }

    #[test]
    fn display_renders() {
        let v = InvariantViolation::WritableSelfMap {
            table: Mfn::new(7),
            index: 42,
        };
        assert!(v.to_string().contains("writable self-map"));
    }
}
