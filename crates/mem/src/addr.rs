//! Strongly-typed addresses and frame numbers.
//!
//! The simulator distinguishes the three address spaces a paravirtualized
//! hypervisor juggles:
//!
//! * **machine** addresses ([`PhysAddr`]) and frame numbers ([`Mfn`]) — real
//!   hardware memory,
//! * **pseudo-physical** frame numbers ([`Pfn`]) — the per-domain contiguous
//!   view Xen presents to PV guests via the P2M/M2P tables,
//! * **virtual** (linear) addresses ([`VirtAddr`]) — what software
//!   dereferences; translated by 4-level page tables.
//!
//! Mixing these up is precisely the class of bug several Xen XSAs are about,
//! so the newtypes are deliberately non-interchangeable (C-NEWTYPE).

use std::fmt;

/// Size of one machine frame / page in bytes (4 KiB).
pub const PAGE_SIZE: usize = 4096;
/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;
/// Mask selecting the offset-within-page bits of an address.
pub const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

macro_rules! frame_number {
    ($(#[$doc:meta])* $name:ident, $addr:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(u64);

        impl $name {
            /// Wraps a raw frame number.
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw frame number.
            pub const fn raw(self) -> u64 {
                self.0
            }

            /// Returns the address of the first byte of this frame.
            pub const fn base(self) -> $addr {
                $addr::new(self.0 << PAGE_SHIFT)
            }

            /// Returns the frame `n` frames after this one.
            pub const fn add(self, n: u64) -> Self {
                Self(self.0 + n)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({:#x})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl fmt::LowerHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl From<$name> for u64 {
            fn from(v: $name) -> u64 {
                v.0
            }
        }
    };
}

frame_number!(
    /// A **machine frame number**: an index into real host memory.
    ///
    /// One `Mfn` addresses one 4 KiB frame of [`crate::MachineMemory`].
    Mfn,
    PhysAddr
);

frame_number!(
    /// A **pseudo-physical frame number**: a guest's view of one of its own
    /// frames, translated to an [`Mfn`] through the domain's P2M table.
    Pfn,
    PhysAddr
);

macro_rules! address {
    ($(#[$doc:meta])* $name:ident, $frame:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(u64);

        impl $name {
            /// Wraps a raw 64-bit address.
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw address value.
            pub const fn raw(self) -> u64 {
                self.0
            }

            /// Returns the frame containing this address.
            pub const fn frame(self) -> $frame {
                $frame::new(self.0 >> PAGE_SHIFT)
            }

            /// Returns the offset of this address within its frame.
            pub const fn page_offset(self) -> usize {
                (self.0 & PAGE_MASK) as usize
            }

            /// Returns the address `n` bytes after this one (wrapping).
            pub const fn offset(self, n: u64) -> Self {
                Self(self.0.wrapping_add(n))
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({:#x})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#018x}", self.0)
            }
        }

        impl fmt::LowerHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl From<$name> for u64 {
            fn from(v: $name) -> u64 {
                v.0
            }
        }
    };
}

address!(
    /// A **machine (physical) address** into host memory.
    PhysAddr,
    Mfn
);

address!(
    /// A **virtual (linear) address**, translated by 4-level page tables.
    VirtAddr,
    Mfn
);

impl VirtAddr {
    /// Returns `true` if the address is canonical on x86-64 (bits 63..=48
    /// are copies of bit 47).
    ///
    /// Non-canonical addresses fault with #GP on real hardware; the
    /// simulator's page walker refuses to translate them.
    pub const fn is_canonical(self) -> bool {
        let upper = self.0 >> 47;
        upper == 0 || upper == (1 << 17) - 1
    }

    /// Sign-extends bits 47.. from bit 47, producing the canonical form of
    /// an address assembled from page-table indices.
    pub const fn canonicalize(raw: u64) -> Self {
        let low = raw & 0x0000_ffff_ffff_ffff;
        if low & (1 << 47) != 0 {
            Self(low | 0xffff_0000_0000_0000)
        } else {
            Self(low)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_and_offset_roundtrip() {
        let addr = PhysAddr::new(0x3_2abc);
        assert_eq!(addr.frame(), Mfn::new(0x32));
        assert_eq!(addr.page_offset(), 0xabc);
        assert_eq!(addr.frame().base().offset(0xabc), addr);
    }

    #[test]
    fn mfn_base_is_page_aligned() {
        assert_eq!(Mfn::new(7).base().page_offset(), 0);
    }

    #[test]
    fn canonical_detection() {
        assert!(VirtAddr::new(0x0000_7fff_ffff_ffff).is_canonical());
        assert!(VirtAddr::new(0xffff_8000_0000_0000).is_canonical());
        assert!(!VirtAddr::new(0x0000_8000_0000_0000).is_canonical());
        assert!(!VirtAddr::new(0xdead_0000_0000_0000).is_canonical());
    }

    #[test]
    fn canonicalize_sign_extends() {
        let va = VirtAddr::canonicalize(0x0000_8000_0000_0000);
        assert_eq!(va.raw(), 0xffff_8000_0000_0000);
        assert!(va.is_canonical());
        let low = VirtAddr::canonicalize(0x0000_1234_5678_9abc);
        assert_eq!(low.raw(), 0x0000_1234_5678_9abc);
    }

    #[test]
    fn display_formats_hex() {
        assert_eq!(format!("{}", Mfn::new(0x1f)), "0x1f");
        assert_eq!(
            format!("{}", VirtAddr::new(0xffff_8000_0000_0000)),
            "0xffff800000000000"
        );
        assert_eq!(format!("{:x}", Pfn::new(255)), "ff");
    }

    #[test]
    fn debug_is_nonempty_and_named() {
        assert_eq!(format!("{:?}", Mfn::new(2)), "Mfn(0x2)");
        assert_eq!(format!("{:?}", PhysAddr::new(0)), "PhysAddr(0x0)");
    }

    #[test]
    fn offset_wraps() {
        let a = VirtAddr::new(u64::MAX);
        assert_eq!(a.offset(1).raw(), 0);
    }
}
