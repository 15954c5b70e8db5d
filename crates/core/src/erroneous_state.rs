//! Machine-checkable erroneous-state specifications.
//!
//! A specification says *what state to induce* (lowered to injector
//! operations) and *how to audit that it is present* — the paper's
//! equivalence test between exploit-induced and injected states
//! ("a page-table walk to audit the same erroneous state was performed",
//! §VI-C).

use guestos::World;
use hvsim::{AccessMode, HvError, IdtEntry, PteFlags};
use hvsim_mem::{DomainId, MachineMemory, Mfn, PhysAddr, VirtAddr};
use hvsim_paging::PageTableEntry;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Deref;

/// The result of auditing a state specification against a world.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StateAudit {
    /// Whether the erroneous state is present.
    pub present: bool,
    /// Evidence (what was read and compared).
    pub evidence: AuditEvidence,
}

/// What an audit read and compared. An audit records the values and
/// formats nothing; `Display` renders the line reports print.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum AuditEvidence {
    /// An IDT gate read back for [`ErroneousStateSpec::OverwriteIdtGate`].
    IdtGate {
        /// Gate vector.
        vector: u8,
        /// The handler address the gate now holds.
        offset: VirtAddr,
        /// The value the specification wrote.
        value: u64,
        /// Whether the gate still points at a hypervisor handler stub.
        valid_handler: bool,
    },
    /// An installed gate's handler, for
    /// [`ErroneousStateSpec::InstallIdtGate`].
    IdtHandler {
        /// Gate vector.
        vector: u8,
        /// The handler address the gate holds.
        handler: VirtAddr,
    },
    /// The IDT could not be read.
    IdtUnreadable(HvError),
    /// A shared L3 slot read back.
    SharedL3 {
        /// L3 slot index.
        index: usize,
        /// The value read.
        read: u64,
        /// The value the specification wrote.
        expected: u64,
    },
    /// An L4 entry read back.
    L4Entry {
        /// Entry index.
        index: usize,
        /// The raw entry read.
        entry: u64,
    },
    /// Bytes of a machine frame compared with the specification's.
    Frame {
        /// The frame.
        mfn: Mfn,
        /// Byte offset within the frame.
        offset: usize,
        /// Bytes compared.
        len: usize,
    },
    /// A linear address compared through the direct map.
    Linear {
        /// The linear address.
        addr: u64,
        /// Its physical address.
        phys: u64,
    },
    /// A linear address outside the direct map.
    LinearUnauditable {
        /// The linear address.
        addr: u64,
    },
    /// Whether a domain retains access to a frame.
    RetainedAccess {
        /// The domain.
        dom: DomainId,
        /// The frame.
        mfn: Mfn,
        /// Whether it does.
        retained: bool,
    },
    /// A domain's spurious pending ports.
    SpuriousPorts {
        /// The victim domain.
        dom: DomainId,
        /// The ports pending without a binding.
        ports: Vec<u16>,
    },
    /// Whether a domain is paused.
    Paused {
        /// The domain.
        dom: DomainId,
        /// Whether it is.
        paused: bool,
    },
}

impl fmt::Display for AuditEvidence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditEvidence::IdtGate { vector, offset, value, valid_handler } => write!(
                f,
                "gate {vector} offset {offset} (expected corruption from {value:#x}), \
                 valid handler: {valid_handler}"
            ),
            AuditEvidence::IdtHandler { vector, handler } => {
                write!(f, "gate {vector} -> handler {handler}")
            }
            AuditEvidence::IdtUnreadable(e) => write!(f, "idt read failed: {e}"),
            AuditEvidence::SharedL3 { index, read, expected } => {
                write!(f, "shared L3[{index}] = {read:#018x} (expected {expected:#018x})")
            }
            AuditEvidence::L4Entry { index, entry } => {
                write!(f, "page_directory[{index}] = {entry:#018x}")
            }
            AuditEvidence::Frame { mfn, offset, len } => {
                write!(f, "frame {mfn}+{offset:#x}: {len} bytes compared")
            }
            AuditEvidence::Linear { addr, phys } => {
                write!(f, "linear {addr:#x} -> phys {phys:#x} compared")
            }
            AuditEvidence::LinearUnauditable { addr } => {
                write!(f, "linear {addr:#x} not auditable via direct map")
            }
            AuditEvidence::RetainedAccess { dom, mfn, retained } => {
                write!(f, "{dom} retains access to {mfn}: {retained}")
            }
            AuditEvidence::SpuriousPorts { dom, ports } => {
                write!(f, "{dom} spurious pending ports: {ports:?}")
            }
            AuditEvidence::Paused { dom, paused } => write!(f, "{dom} paused: {paused}"),
        }
    }
}

/// Whether memory at `at` holds exactly `expected`, read back through
/// a stack buffer; a range memory cannot read compares unequal.
fn memory_holds(mem: &MachineMemory, mut at: PhysAddr, expected: &[u8]) -> bool {
    let mut buf = [0u8; 64];
    mem.read(at, &mut []).is_ok()
        && expected.chunks(buf.len()).all(|chunk| {
            let read = &mut buf[..chunk.len()];
            let same = mem.read(at, read).is_ok() && read == chunk;
            at = at.offset(chunk.len() as u64);
            same
        })
}

/// A specification of one erroneous state.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ErroneousStateSpec {
    /// Overwrite the first 8 bytes of an IDT gate with `value`
    /// (XSA-212-crash: gate 14 gets garbage).
    OverwriteIdtGate {
        /// CPU whose IDT is targeted.
        cpu: usize,
        /// Gate vector.
        vector: u8,
        /// The 8 bytes written over the gate.
        value: u64,
    },
    /// Install a full 16-byte IDT gate (XSA-212-priv registers its
    /// payload handler this way).
    InstallIdtGate {
        /// CPU whose IDT is targeted.
        cpu: usize,
        /// Gate vector.
        vector: u8,
        /// The packed gate bytes.
        gate: [u8; 16],
    },
    /// Write a page-table entry into the shared hypervisor L3 page
    /// (XSA-212-priv's "crafted PUD entry written" / "linked PMD into
    /// target PUD").
    LinkPmdIntoSharedL3 {
        /// L3 slot index.
        index: usize,
        /// The entry value to write.
        entry: u64,
    },
    /// Set the `RW` bit on an L4 entry (XSA-182's writable self-map).
    SetL4EntryRw {
        /// The L4 table frame.
        l4: Mfn,
        /// Entry index.
        index: usize,
    },
    /// Write bytes into an arbitrary machine frame (XSA-148's vDSO patch
    /// and general memory corruption).
    WriteFrame {
        /// Target frame.
        mfn: Mfn,
        /// Byte offset within the frame.
        offset: usize,
        /// Bytes to write.
        bytes: Vec<u8>,
    },
    /// Raw write at a hypervisor linear address.
    WriteLinear {
        /// Target linear address.
        addr: u64,
        /// Bytes to write.
        bytes: Vec<u8>,
    },
    /// Give a domain retained access to a frame it does not own
    /// (Keep Page Reference / Keep Page Access).
    RetainFrameAccess {
        /// The domain keeping access.
        dom: DomainId,
        /// The frame.
        mfn: Mfn,
    },
    /// Raise pending event bits for ports the victim never bound —
    /// spurious virtual interrupts (Uncontrolled Arbitrary Interrupts).
    SpuriousPendingEvents {
        /// The victim domain.
        dom: DomainId,
        /// Ports whose pending bits are set.
        ports: Vec<u16>,
    },
    /// Force a domain's scheduler pause flag — the availability state a
    /// compromised management interface leaves behind.
    ForcePause {
        /// The paused domain.
        dom: DomainId,
    },
}

impl ErroneousStateSpec {
    /// A short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            ErroneousStateSpec::OverwriteIdtGate { .. } => "overwrite IDT gate",
            ErroneousStateSpec::InstallIdtGate { .. } => "install IDT gate",
            ErroneousStateSpec::LinkPmdIntoSharedL3 { .. } => "link PMD into shared L3",
            ErroneousStateSpec::SetL4EntryRw { .. } => "set RW on L4 entry",
            ErroneousStateSpec::WriteFrame { .. } => "write machine frame",
            ErroneousStateSpec::WriteLinear { .. } => "write linear address",
            ErroneousStateSpec::RetainFrameAccess { .. } => "retain frame access",
            ErroneousStateSpec::SpuriousPendingEvents { .. } => "spurious pending events",
            ErroneousStateSpec::ForcePause { .. } => "force pause state",
        }
    }

    /// Lowers the specification to `arbitrary_access` operations and
    /// hands each `(mode, address, bytes)` to `write`, in order, as it
    /// is lowered, and returns how many were written; the first error
    /// stops the walk. [`RetainFrameAccess`] lowers to no operation: it
    /// is applied through the injector's accounting interface instead.
    /// `write` gets the world back, so an injector can apply each write
    /// as it comes without a list of operations or a byte vector per
    /// operation. Lowering an operation reads only what no earlier
    /// operation of the same specification writes, so writing as it
    /// goes lowers the same operations.
    ///
    /// [`RetainFrameAccess`]: ErroneousStateSpec::RetainFrameAccess
    pub(crate) fn each_write<W: Deref<Target = World>, E>(
        &self,
        mut world: W,
        mut write: impl FnMut(&mut W, AccessMode, u64, &[u8]) -> Result<(), E>,
    ) -> Result<usize, E> {
        let idt_slot = |world: &W, cpu: usize, vector: u8| {
            world.hv().sidt(cpu).offset(IdtEntry::slot_offset(vector) as u64).raw()
        };
        match self {
            ErroneousStateSpec::OverwriteIdtGate { cpu, vector, value } => {
                let addr = idt_slot(&world, *cpu, *vector);
                write(&mut world, AccessMode::LinearWrite, addr, &value.to_le_bytes())?;
            }
            ErroneousStateSpec::InstallIdtGate { cpu, vector, gate } => {
                let addr = idt_slot(&world, *cpu, *vector);
                write(&mut world, AccessMode::LinearWrite, addr, gate)?;
            }
            ErroneousStateSpec::LinkPmdIntoSharedL3 { index, entry } => {
                let addr = world.hv().shared_l3_mfn().base().offset(*index as u64 * 8);
                write(&mut world, AccessMode::PhysWrite, addr.raw(), &entry.to_le_bytes())?;
            }
            ErroneousStateSpec::SetL4EntryRw { l4, index } => {
                let slot = l4.base().offset(*index as u64 * 8);
                let current = world.hv().mem().read_u64(slot).unwrap_or(0);
                let new = PageTableEntry::from_raw(current).with_flags(PteFlags::RW).raw();
                write(&mut world, AccessMode::PhysWrite, slot.raw(), &new.to_le_bytes())?;
            }
            ErroneousStateSpec::WriteFrame { mfn, offset, bytes } => {
                let addr = mfn.base().offset(*offset as u64).raw();
                write(&mut world, AccessMode::PhysWrite, addr, bytes)?;
            }
            ErroneousStateSpec::WriteLinear { addr, bytes } => {
                write(&mut world, AccessMode::LinearWrite, *addr, bytes)?;
            }
            ErroneousStateSpec::RetainFrameAccess { .. } | ErroneousStateSpec::ForcePause { .. } => {
                return Ok(0)
            }
            ErroneousStateSpec::SpuriousPendingEvents { dom, ports } => {
                // The pending bitmap lives in the victim's shared-info
                // frame: one write per byte, raising each of its bits.
                let Some(shared) =
                    world.hv().domain(*dom).ok().and_then(|d| d.shared_info_mfn())
                else {
                    return Ok(0);
                };
                let mut by_byte: BTreeMap<usize, u8> = BTreeMap::new();
                for &port in ports {
                    let byte = hvsim::PENDING_OFFSET + (port as usize) / 8;
                    *by_byte.entry(byte).or_default() |= 1 << (port % 8);
                }
                for (&byte, &mask) in &by_byte {
                    let addr = shared.base().offset(byte as u64);
                    let current =
                        world.hv().mem().read_u64(addr).map(|v| (v & 0xff) as u8).unwrap_or(0);
                    write(&mut world, AccessMode::PhysWrite, addr.raw(), &[current | mask])?;
                }
                return Ok(by_byte.len());
            }
        }
        Ok(1)
    }

    /// Audits whether the state is present in `world`.
    pub fn audit(&self, world: &World) -> StateAudit {
        let hv = world.hv();
        let (present, evidence) = match self {
            ErroneousStateSpec::OverwriteIdtGate { cpu, vector, value } => {
                match hv.idt_entry(*cpu, *vector) {
                    Ok(gate) => {
                        let corrupted = !hv.is_valid_handler(gate.offset) || !gate.present;
                        let evidence = AuditEvidence::IdtGate {
                            vector: *vector,
                            offset: gate.offset,
                            value: *value,
                            valid_handler: !corrupted,
                        };
                        (corrupted, evidence)
                    }
                    Err(e) => (false, AuditEvidence::IdtUnreadable(e)),
                }
            }
            ErroneousStateSpec::InstallIdtGate { cpu, vector, gate } => {
                match hv.idt_entry(*cpu, *vector) {
                    Ok(read) => (
                        read == IdtEntry::unpack(gate),
                        AuditEvidence::IdtHandler { vector: *vector, handler: read.offset },
                    ),
                    Err(e) => (false, AuditEvidence::IdtUnreadable(e)),
                }
            }
            ErroneousStateSpec::LinkPmdIntoSharedL3 { index, entry } => {
                let addr = hv.shared_l3_mfn().base().offset(*index as u64 * 8);
                let read = hv.mem().read_u64(addr).unwrap_or(0);
                (read == *entry, AuditEvidence::SharedL3 { index: *index, read, expected: *entry })
            }
            ErroneousStateSpec::SetL4EntryRw { l4, index } => {
                let slot = l4.base().offset(*index as u64 * 8);
                let read = PageTableEntry::from_raw(hv.mem().read_u64(slot).unwrap_or(0));
                let present = read.is_present() && read.flags().contains(PteFlags::RW);
                (present, AuditEvidence::L4Entry { index: *index, entry: read.raw() })
            }
            ErroneousStateSpec::WriteFrame { mfn, offset, bytes } => (
                memory_holds(hv.mem(), mfn.base().offset(*offset as u64), bytes),
                AuditEvidence::Frame { mfn: *mfn, offset: *offset, len: bytes.len() },
            ),
            ErroneousStateSpec::WriteLinear { addr, bytes } => {
                // Audit through the direct map when possible.
                match hv.layout().directmap_phys(VirtAddr::new(*addr)) {
                    Some(p) => (
                        memory_holds(hv.mem(), PhysAddr::new(p), bytes),
                        AuditEvidence::Linear { addr: *addr, phys: p },
                    ),
                    None => (false, AuditEvidence::LinearUnauditable { addr: *addr }),
                }
            }
            ErroneousStateSpec::RetainFrameAccess { dom, mfn } => {
                let retained = hv.domain(*dom).map(|d| d.retains_access(*mfn)).unwrap_or(false);
                (retained, AuditEvidence::RetainedAccess { dom: *dom, mfn: *mfn, retained })
            }
            ErroneousStateSpec::SpuriousPendingEvents { dom, ports: wanted } => {
                let ports = hv.spurious_pending_ports(*dom);
                let present = wanted.iter().all(|p| ports.contains(p));
                (present, AuditEvidence::SpuriousPorts { dom: *dom, ports })
            }
            ErroneousStateSpec::ForcePause { dom } => {
                let paused = hv.domain(*dom).map(|d| d.is_paused()).unwrap_or(false);
                (paused, AuditEvidence::Paused { dom: *dom, paused })
            }
        };
        StateAudit { present, evidence }
    }
}

impl fmt::Display for ErroneousStateSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guestos::WorldBuilder;
    use hvsim::XenVersion;
    use std::convert::Infallible;

    /// The `(mode, address, bytes)` operations `each_write` hands out.
    fn lower(spec: &ErroneousStateSpec, world: &World) -> Vec<(AccessMode, u64, Vec<u8>)> {
        let mut ops = Vec::new();
        let _ = spec.each_write(world, |_, mode, addr, bytes| {
            ops.push((mode, addr, bytes.to_vec()));
            Ok::<(), Infallible>(())
        });
        ops
    }

    fn world() -> World {
        WorldBuilder::new(XenVersion::V4_6)
            .injector(true)
            .guest("g", 32)
            .build()
            .unwrap()
    }

    #[test]
    fn idt_gate_spec_lowers_to_sidt_address() {
        let w = world();
        let spec = ErroneousStateSpec::OverwriteIdtGate {
            cpu: 0,
            vector: 14,
            value: 0x41,
        };
        let ops = lower(&spec, &w);
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].0, AccessMode::LinearWrite);
        assert_eq!(ops[0].1, w.hv().sidt(0).raw() + 14 * 16);
        // Pristine gate: audit reports absent.
        assert!(!spec.audit(&w).present);
    }

    #[test]
    fn write_frame_spec_roundtrip() {
        let mut w = world();
        let dom = w.domain_by_name("g").unwrap();
        let mfn = w.hv().domain(dom).unwrap().p2m(hvsim_mem::Pfn::new(8)).unwrap();
        let spec = ErroneousStateSpec::WriteFrame {
            mfn,
            offset: 16,
            bytes: b"evil".to_vec(),
        };
        assert!(!spec.audit(&w).present);
        for (mode, addr, mut bytes) in lower(&spec, &w) {
            w.hv_mut().hc_arbitrary_access(dom, addr, &mut bytes, mode).unwrap();
        }
        assert!(spec.audit(&w).present);
    }

    #[test]
    fn retain_access_spec_has_no_memory_ops() {
        let w = world();
        let dom = w.domain_by_name("g").unwrap();
        let spec = ErroneousStateSpec::RetainFrameAccess {
            dom,
            mfn: Mfn::new(3),
        };
        assert!(lower(&spec, &w).is_empty());
        assert!(!spec.audit(&w).present);
    }

    #[test]
    fn l4_rw_spec_audit_reads_entry() {
        let w = world();
        let dom = w.domain_by_name("g").unwrap();
        let l4 = w.hv().domain(dom).unwrap().cr3().unwrap();
        // Slot 300 holds nothing -> audit absent; slot 256 holds the
        // (present, RW) hypervisor stitch -> audit present.
        let absent = ErroneousStateSpec::SetL4EntryRw { l4, index: 300 };
        assert!(!absent.audit(&w).present);
        let present = ErroneousStateSpec::SetL4EntryRw { l4, index: 256 };
        assert!(present.audit(&w).present);
        assert!(present.audit(&w).evidence.to_string().contains("page_directory[256]"));
    }

    #[test]
    fn labels_are_stable() {
        let spec = ErroneousStateSpec::WriteLinear {
            addr: 0,
            bytes: vec![],
        };
        assert_eq!(spec.label(), "write linear address");
        assert_eq!(spec.to_string(), "write linear address");
    }

    /// Every specification variant on a fresh world (absent) and after
    /// the injector induced it (present), with the audit's rendering.
    fn evidence_cases() -> Vec<(&'static str, bool, String)> {
        use crate::injector::{ArbitraryAccessInjector, Injector};
        let w = world();
        let dom = w.domain_by_name("g").unwrap();
        let l4 = w.hv().domain(dom).unwrap().cr3().unwrap();
        let frame = w.hv().domain(dom).unwrap().p2m(hvsim_mem::Pfn::new(8)).unwrap();
        let linear = w.hv().layout().directmap_va(frame.base().offset(64).raw()).raw();
        let gate = IdtEntry::gate(w.hv().layout().directmap_va(0x30)).pack();
        let specs = [
            ("overwrite IDT gate", ErroneousStateSpec::OverwriteIdtGate { cpu: 0, vector: 14, value: 0x4141_4141_4141_4141 }),
            ("overwrite IDT gate, no such CPU", ErroneousStateSpec::OverwriteIdtGate { cpu: 9, vector: 14, value: 1 }),
            ("install IDT gate", ErroneousStateSpec::InstallIdtGate { cpu: 0, vector: 0x82, gate }),
            ("install IDT gate, no such CPU", ErroneousStateSpec::InstallIdtGate { cpu: 9, vector: 0x82, gate }),
            ("link PMD into shared L3", ErroneousStateSpec::LinkPmdIntoSharedL3 { index: 300, entry: 0x0000_0000_0123_4067 }),
            ("set RW on an empty L4 entry", ErroneousStateSpec::SetL4EntryRw { l4, index: 300 }),
            ("set RW on the hypervisor's L4 entry", ErroneousStateSpec::SetL4EntryRw { l4, index: 256 }),
            ("write machine frame", ErroneousStateSpec::WriteFrame { mfn: frame, offset: 16, bytes: b"evil".to_vec() }),
            ("write linear address", ErroneousStateSpec::WriteLinear { addr: linear, bytes: b"evil".to_vec() }),
            ("write linear address, outside the direct map", ErroneousStateSpec::WriteLinear { addr: 0x1000, bytes: b"evil".to_vec() }),
            ("retain frame access", ErroneousStateSpec::RetainFrameAccess { dom, mfn: Mfn::new(3) }),
            ("spurious pending events", ErroneousStateSpec::SpuriousPendingEvents { dom, ports: vec![5, 9] }),
            ("force pause state", ErroneousStateSpec::ForcePause { dom }),
        ];
        let mut cases = Vec::new();
        for (name, spec) in specs {
            let mut w = w.clone();
            let before = spec.audit(&w);
            cases.push((name, before.present, before.evidence.to_string()));
            // Lowering an IDT write for a CPU the build lacks panics:
            // those specifications are audited, never injected.
            if !name.ends_with("no such CPU") {
                let _ = ArbitraryAccessInjector.inject(&mut w, dom, &spec);
                let after = spec.audit(&w);
                cases.push((name, after.present, after.evidence.to_string()));
            }
        }
        cases
    }

    /// Typed evidence renders the text the audit used to format,
    /// byte for byte, for every variant both before and after the
    /// injector induced it. The literals are that text.
    #[test]
    fn evidence_renders_the_text_audits_printed() {
        let expected = [
            ("overwrite IDT gate", false, "gate 14 offset 0xffff8300000000e0 (expected corruption from 0x4141414141414141), valid handler: true"),
            ("overwrite IDT gate", true, "gate 14 offset 0xffff830041414141 (expected corruption from 0x4141414141414141), valid handler: false"),
            ("overwrite IDT gate, no such CPU", false, "idt read failed: invalid argument (-EINVAL)"),
            ("install IDT gate", false, "gate 130 -> handler 0x0000000000000000"),
            ("install IDT gate", true, "gate 130 -> handler 0xffff830000000030"),
            ("install IDT gate, no such CPU", false, "idt read failed: invalid argument (-EINVAL)"),
            ("link PMD into shared L3", false, "shared L3[300] = 0x0000000000000000 (expected 0x0000000001234067)"),
            ("link PMD into shared L3", true, "shared L3[300] = 0x0000000001234067 (expected 0x0000000001234067)"),
            ("set RW on an empty L4 entry", false, "page_directory[300] = 0x0000000000000000"),
            ("set RW on an empty L4 entry", false, "page_directory[300] = 0x0000000000000002"),
            ("set RW on the hypervisor's L4 entry", true, "page_directory[256] = 0x0000000000001007"),
            ("set RW on the hypervisor's L4 entry", true, "page_directory[256] = 0x0000000000001007"),
            ("write machine frame", false, "frame 0x77+0x10: 4 bytes compared"),
            ("write machine frame", true, "frame 0x77+0x10: 4 bytes compared"),
            ("write linear address", false, "linear 0xffff830000077040 -> phys 0x77040 compared"),
            ("write linear address", true, "linear 0xffff830000077040 -> phys 0x77040 compared"),
            ("write linear address, outside the direct map", false, "linear 0x1000 not auditable via direct map"),
            ("write linear address, outside the direct map", false, "linear 0x1000 not auditable via direct map"),
            ("retain frame access", false, "dom1 retains access to 0x3: false"),
            ("retain frame access", true, "dom1 retains access to 0x3: true"),
            ("spurious pending events", false, "dom1 spurious pending ports: []"),
            ("spurious pending events", true, "dom1 spurious pending ports: [5, 9]"),
            ("force pause state", false, "dom1 paused: false"),
            ("force pause state", true, "dom1 paused: true"),
        ];
        let cases = evidence_cases();
        assert_eq!(cases.len(), expected.len());
        for (case, want) in cases.iter().zip(expected) {
            assert_eq!((case.0, case.1, case.2.as_str()), want);
        }
    }
}
