//! Virtual-address decomposition and composition.

use hvsim_mem::VirtAddr;

/// Number of 8-byte entries in one page-table page.
pub const ENTRIES_PER_TABLE: usize = 512;

/// The four page-table indices plus page offset of a virtual address.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct VaIndices {
    /// Index into the L4 (top-level) table, bits 47..=39.
    pub l4: usize,
    /// Index into the L3 table, bits 38..=30.
    pub l3: usize,
    /// Index into the L2 table, bits 29..=21.
    pub l2: usize,
    /// Index into the L1 table, bits 20..=12.
    pub l1: usize,
    /// Byte offset within the 4 KiB page, bits 11..=0.
    pub offset: usize,
}

impl VaIndices {
    /// Decomposes a virtual address into its table indices.
    pub const fn of(va: VirtAddr) -> Self {
        let raw = va.raw();
        Self {
            l4: ((raw >> 39) & 0x1ff) as usize,
            l3: ((raw >> 30) & 0x1ff) as usize,
            l2: ((raw >> 21) & 0x1ff) as usize,
            l1: ((raw >> 12) & 0x1ff) as usize,
            offset: (raw & 0xfff) as usize,
        }
    }

    /// Index for the given paging level (1..=4).
    ///
    /// # Panics
    ///
    /// Panics if `level` is not in `1..=4`.
    pub fn at_level(&self, level: u8) -> usize {
        match level {
            1 => self.l1,
            2 => self.l2,
            3 => self.l3,
            4 => self.l4,
            _ => panic!("paging level {level} out of range 1..=4"),
        }
    }
}

/// Composes a canonical virtual address from four table indices and an
/// in-page offset.
///
/// # Panics
///
/// Panics if any index is ≥ 512 or `offset` ≥ 4096 (debug builds assert;
/// release builds mask).
pub fn compose_va(l4: usize, l3: usize, l2: usize, l1: usize, offset: usize) -> VirtAddr {
    debug_assert!(l4 < ENTRIES_PER_TABLE && l3 < ENTRIES_PER_TABLE);
    debug_assert!(l2 < ENTRIES_PER_TABLE && l1 < ENTRIES_PER_TABLE);
    debug_assert!(offset < 4096);
    let raw = ((l4 as u64 & 0x1ff) << 39)
        | ((l3 as u64 & 0x1ff) << 30)
        | ((l2 as u64 & 0x1ff) << 21)
        | ((l1 as u64 & 0x1ff) << 12)
        | (offset as u64 & 0xfff);
    VirtAddr::canonicalize(raw)
}

/// The virtual address that reaches the L4 page *itself* through a
/// self-referencing L4 entry at `index` — the construction at the heart of
/// the XSA-182 exploit ("create a self-mapping L4 page, then craft a
/// virtual address to point to it with writable permissions").
pub fn selfmap_va(index: usize, offset: usize) -> VirtAddr {
    compose_va(index, index, index, index, offset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn decompose_known_address() {
        // 0xffff_8040_0000_0000: l4 = 256 (hypervisor half), l3 = 256
        // (0x40_0000_0000 = 256 GiB, and each L3 slot spans 1 GiB).
        let idx = VaIndices::of(VirtAddr::new(0xffff_8040_0000_0000));
        assert_eq!(idx.l4, 256);
        assert_eq!(idx.l3, 256);
        assert_eq!(idx.l2, 0);
        assert_eq!(idx.l1, 0);
        assert_eq!(idx.offset, 0);
    }

    #[test]
    fn at_level_matches_fields() {
        let idx = VaIndices::of(VirtAddr::new(0x0000_7fab_cdef_1234));
        assert_eq!(idx.at_level(4), idx.l4);
        assert_eq!(idx.at_level(3), idx.l3);
        assert_eq!(idx.at_level(2), idx.l2);
        assert_eq!(idx.at_level(1), idx.l1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn at_level_rejects_bad_level() {
        VaIndices::of(VirtAddr::new(0)).at_level(5);
    }

    #[test]
    fn compose_is_canonical_for_upper_half() {
        let va = compose_va(256, 0, 0, 0, 0);
        assert_eq!(va.raw(), 0xffff_8000_0000_0000);
        assert!(va.is_canonical());
    }

    #[test]
    fn selfmap_repeats_index() {
        let va = selfmap_va(42, 8 * 42);
        let idx = VaIndices::of(va);
        assert_eq!((idx.l4, idx.l3, idx.l2, idx.l1), (42, 42, 42, 42));
        assert_eq!(idx.offset, 8 * 42);
        assert!(va.is_canonical());
    }

    proptest! {
        #[test]
        fn prop_compose_decompose_roundtrip(
            l4 in 0usize..512, l3 in 0usize..512,
            l2 in 0usize..512, l1 in 0usize..512,
            offset in 0usize..4096,
        ) {
            let va = compose_va(l4, l3, l2, l1, offset);
            let idx = VaIndices::of(va);
            prop_assert_eq!(idx, VaIndices { l4, l3, l2, l1, offset });
            prop_assert!(va.is_canonical());
        }
    }
}
