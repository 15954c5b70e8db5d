//! Bit-accurate x86-64 page-table entries.

use bitflags::bitflags;
use hvsim_mem::Mfn;
use std::fmt;

/// Mask of the frame-address bits (51..=12) within a PTE.
pub const PTE_ADDR_MASK: u64 = 0x000f_ffff_ffff_f000;

bitflags! {
    /// x86-64 page-table entry flag bits.
    ///
    /// The names follow the Intel SDM; `PSE` (bit 7) marks a superpage
    /// mapping at L2 (2 MiB) or L3 (1 GiB). Setting `PSE` on an entry the
    /// hypervisor failed to validate is the core of XSA-148.
    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
    pub struct PteFlags: u64 {
        /// Entry is valid.
        const PRESENT  = 1 << 0;
        /// Writes allowed (subject to every level agreeing).
        const RW       = 1 << 1;
        /// User-mode (CPL 3) access allowed.
        const USER     = 1 << 2;
        /// Write-through caching.
        const PWT      = 1 << 3;
        /// Cache disabled.
        const PCD      = 1 << 4;
        /// Set by hardware on access.
        const ACCESSED = 1 << 5;
        /// Set by hardware on write.
        const DIRTY    = 1 << 6;
        /// Page-size: this entry maps a superpage (L2/L3 only).
        const PSE      = 1 << 7;
        /// Translation survives CR3 reload.
        const GLOBAL   = 1 << 8;
        /// Software-available bit 9 (Xen uses these for bookkeeping).
        const AVAIL0   = 1 << 9;
        /// Software-available bit 10.
        const AVAIL1   = 1 << 10;
        /// Software-available bit 11.
        const AVAIL2   = 1 << 11;
        /// No-execute.
        const NX       = 1 << 63;
    }
}

impl PteFlags {
    /// Flag bits that Xen's fast-path `mmu_update` treats as "safe to
    /// toggle without re-validation": accessed/dirty plus the
    /// software-available bits.
    ///
    /// XSA-182 existed because the *RW bit on a self-referencing L4 entry*
    /// slipped through a fast path that should have been restricted to
    /// these bits.
    pub const FASTPATH_SAFE: PteFlags = PteFlags::ACCESSED
        .union(PteFlags::DIRTY)
        .union(PteFlags::AVAIL0)
        .union(PteFlags::AVAIL1)
        .union(PteFlags::AVAIL2);
}

/// One 64-bit page-table entry: a frame number plus [`PteFlags`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PageTableEntry(u64);

impl PageTableEntry {
    /// An all-zeroes (not-present) entry.
    pub const EMPTY: PageTableEntry = PageTableEntry(0);

    /// Creates an entry pointing at `mfn` with `flags`.
    pub fn new(mfn: Mfn, flags: PteFlags) -> Self {
        Self(((mfn.raw() << 12) & PTE_ADDR_MASK) | flags.bits())
    }

    /// Reinterprets a raw 64-bit value as an entry.
    pub const fn from_raw(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw 64-bit value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The frame this entry points at.
    pub fn mfn(self) -> Mfn {
        Mfn::new((self.0 & PTE_ADDR_MASK) >> 12)
    }

    /// The entry's flag bits (unknown bits are dropped).
    pub fn flags(self) -> PteFlags {
        PteFlags::from_bits_truncate(self.0)
    }

    /// `true` if the present bit is set.
    pub fn is_present(self) -> bool {
        self.flags().contains(PteFlags::PRESENT)
    }

    /// Returns a copy with `flags` added.
    #[must_use]
    pub fn with_flags(self, flags: PteFlags) -> Self {
        Self(self.0 | flags.bits())
    }

    /// Bits that differ between `self` and `other`, as a raw mask.
    pub fn diff_bits(self, other: PageTableEntry) -> u64 {
        self.0 ^ other.0
    }
}

impl fmt::Debug for PageTableEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pte({:#018x} -> {} {:?})", self.0, self.mfn(), self.flags())
    }
}

impl fmt::Display for PageTableEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#018x}", self.0)
    }
}

impl fmt::LowerHex for PageTableEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<PageTableEntry> for u64 {
    fn from(e: PageTableEntry) -> u64 {
        e.raw()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn entry_packs_mfn_and_flags() {
        let e = PageTableEntry::new(Mfn::new(0x82da9), PteFlags::PRESENT | PteFlags::RW | PteFlags::USER);
        // The value from the paper's XSA-182 output: page_directory[42] = 0x82da9007.
        assert_eq!(e.raw(), 0x0000_0000_82da_9007);
        assert_eq!(e.mfn(), Mfn::new(0x82da9));
        assert!(e.is_present());
        assert!(e.flags().contains(PteFlags::RW));
    }

    #[test]
    fn high_mfn_bits_masked() {
        let e = PageTableEntry::new(Mfn::new(u64::MAX), PteFlags::empty());
        assert_eq!(e.raw() & !PTE_ADDR_MASK, 0);
    }

    #[test]
    fn with_without_flags() {
        let e = PageTableEntry::new(Mfn::new(5), PteFlags::PRESENT);
        let rw = e.with_flags(PteFlags::RW);
        assert!(rw.flags().contains(PteFlags::RW));
        assert_eq!(e.diff_bits(rw), PteFlags::RW.bits());
    }

    #[test]
    fn nx_bit_is_bit_63() {
        let e = PageTableEntry::new(Mfn::new(1), PteFlags::PRESENT | PteFlags::NX);
        assert_eq!(e.raw() >> 63, 1);
    }

    #[test]
    fn fastpath_safe_excludes_rw_and_present() {
        assert!(!PteFlags::FASTPATH_SAFE.contains(PteFlags::RW));
        assert!(!PteFlags::FASTPATH_SAFE.contains(PteFlags::PRESENT));
        assert!(PteFlags::FASTPATH_SAFE.contains(PteFlags::ACCESSED));
    }

    #[test]
    fn empty_entry_not_present() {
        assert!(!PageTableEntry::EMPTY.is_present());
        assert_eq!(PageTableEntry::EMPTY.raw(), 0);
    }

    proptest! {
        #[test]
        fn prop_mfn_flags_roundtrip(mfn in 0u64..(1 << 40), bits in any::<u64>()) {
            let flags = PteFlags::from_bits_truncate(bits);
            let e = PageTableEntry::new(Mfn::new(mfn), flags);
            prop_assert_eq!(e.mfn(), Mfn::new(mfn));
            prop_assert_eq!(e.flags(), flags);
        }

        #[test]
        fn prop_raw_roundtrip(raw in any::<u64>()) {
            prop_assert_eq!(PageTableEntry::from_raw(raw).raw(), raw);
        }
    }
}
