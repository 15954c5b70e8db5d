//! The simulated per-CPU Interrupt Descriptor Table.
//!
//! Each CPU's IDT lives in a hypervisor-owned machine frame, laid out as
//! 256 × 16-byte x86-64 interrupt gates. The frame's *linear* address (via
//! the direct map) is what the unprivileged `sidt` instruction leaks to PV
//! guests — which is how the XSA-212-crash PoC finds its target: it
//! overwrites the page-fault gate, so the next fault escalates to a double
//! fault and panics the hypervisor.

use hvsim_mem::VirtAddr;

/// Number of gates in an IDT.
pub const IDT_ENTRIES: usize = 256;
/// Vector of the page-fault exception (#PF).
pub const PAGE_FAULT_VECTOR: u8 = 14;
/// Vector of the double-fault exception (#DF).
pub const DOUBLE_FAULT_VECTOR: u8 = 8;

/// One x86-64 interrupt gate, in unpacked form.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IdtEntry {
    /// Handler linear address.
    pub offset: VirtAddr,
    /// Code segment selector.
    pub selector: u16,
    /// Descriptor privilege level (0..=3).
    pub dpl: u8,
    /// Present bit.
    pub present: bool,
}

impl IdtEntry {
    /// Xen's hypervisor code selector.
    pub const XEN_CS: u16 = 0xe008;

    /// A present ring-0 gate for `handler`.
    pub fn gate(handler: VirtAddr) -> Self {
        Self {
            offset: handler,
            selector: Self::XEN_CS,
            dpl: 0,
            present: true,
        }
    }

    /// Packs the gate into its 16-byte hardware format.
    pub fn pack(&self) -> [u8; 16] {
        let off = self.offset.raw();
        let mut b = [0u8; 16];
        b[0..2].copy_from_slice(&(off as u16).to_le_bytes());
        b[2..4].copy_from_slice(&self.selector.to_le_bytes());
        b[4] = 0; // IST
        let type_attr = 0x0e | ((self.dpl & 0x3) << 5) | ((self.present as u8) << 7);
        b[5] = type_attr;
        b[6..8].copy_from_slice(&(((off >> 16) as u16).to_le_bytes()));
        b[8..12].copy_from_slice(&(((off >> 32) as u32).to_le_bytes()));
        b
    }

    /// Unpacks a gate from its 16-byte hardware format.
    pub fn unpack(b: &[u8; 16]) -> Self {
        let low = u16::from_le_bytes([b[0], b[1]]) as u64;
        let mid = u16::from_le_bytes([b[6], b[7]]) as u64;
        let high = u32::from_le_bytes([b[8], b[9], b[10], b[11]]) as u64;
        let offset = VirtAddr::new(low | (mid << 16) | (high << 32));
        Self {
            offset,
            selector: u16::from_le_bytes([b[2], b[3]]),
            dpl: (b[5] >> 5) & 0x3,
            present: b[5] & 0x80 != 0,
        }
    }

    /// Byte offset of a vector's gate within the IDT frame.
    pub fn slot_offset(vector: u8) -> usize {
        vector as usize * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn gate_pack_unpack_roundtrip() {
        let gate = IdtEntry::gate(VirtAddr::new(0xffff_8300_0000_1230));
        let packed = gate.pack();
        assert_eq!(IdtEntry::unpack(&packed), gate);
        assert_eq!(packed[5], 0x8e, "present ring-0 interrupt gate");
    }

    #[test]
    fn dpl_and_present_encode() {
        let mut gate = IdtEntry::gate(VirtAddr::new(0x1000));
        gate.dpl = 3;
        gate.present = false;
        let u = IdtEntry::unpack(&gate.pack());
        assert_eq!(u.dpl, 3);
        assert!(!u.present);
    }

    #[test]
    fn slot_offsets() {
        assert_eq!(IdtEntry::slot_offset(0), 0);
        assert_eq!(IdtEntry::slot_offset(PAGE_FAULT_VECTOR), 224);
        assert_eq!(IdtEntry::slot_offset(255), 4080);
    }

    #[test]
    fn corrupted_gate_parses_as_garbage_not_panic() {
        // Overwriting a gate with an arbitrary u64 (the XSA-212-crash
        // write) must still unpack without panicking.
        let mut raw = [0u8; 16];
        raw[..8].copy_from_slice(&0xdead_beef_dead_beefu64.to_le_bytes());
        let e = IdtEntry::unpack(&raw);
        assert_ne!(e.offset, VirtAddr::new(0xdead_beef_dead_beef));
    }

    proptest! {
        #[test]
        fn prop_pack_unpack(off in any::<u64>(), sel in any::<u16>(), dpl in 0u8..4, present: bool) {
            let gate = IdtEntry { offset: VirtAddr::new(off & 0x0000_ffff_ffff_ffff), selector: sel, dpl, present };
            prop_assert_eq!(IdtEntry::unpack(&gate.pack()), gate);
        }
    }
}
