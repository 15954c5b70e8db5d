//! Per-frame accounting: the simulator's `struct page_info`.
//!
//! Xen tracks, for every machine frame, which domain owns it, what *type*
//! the frame currently has (writable data, level-N page table, segment
//! descriptor page, ...), and two reference counts. The type system is the
//! heart of PV memory safety: a frame validated as an L2 page table must not
//! simultaneously be writable by a guest, otherwise the guest could forge
//! translations. Several of the vulnerabilities reproduced by this project
//! (XSA-148, XSA-182) are precisely failures to uphold these invariants.

use crate::MemError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a domain (virtual machine). Domain 0 is the privileged
/// control domain, like Xen's dom0.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct DomainId(u16);

impl DomainId {
    /// The privileged control domain.
    pub const DOM0: DomainId = DomainId(0);

    /// Creates a domain id from a raw value.
    pub const fn new(raw: u16) -> Self {
        Self(raw)
    }

    /// Returns the raw id.
    pub const fn raw(self) -> u16 {
        self.0
    }

    /// Returns `true` for the control domain (dom0).
    pub const fn is_dom0(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Debug for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dom{}", self.0)
    }
}

impl fmt::Display for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dom{}", self.0)
    }
}

impl From<u16> for DomainId {
    fn from(raw: u16) -> Self {
        Self(raw)
    }
}

/// The current *type* of a machine frame, in the sense of Xen's
/// `PGT_*` page types.
///
/// A frame's type constrains how it may be referenced: page-table frames
/// must never be writable from guest context, and a frame can only change
/// type when its type count has dropped to zero.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, Serialize, Deserialize)]
pub enum PageType {
    /// No type yet; the frame may be promoted to any type.
    #[default]
    None,
    /// Ordinary guest-writable data page.
    Writable,
    /// Level-1 page table (PTE page).
    L1PageTable,
    /// Level-2 page table (PMD page).
    L2PageTable,
    /// Level-3 page table (PUD page).
    L3PageTable,
    /// Level-4 page table (PGD / top-level page).
    L4PageTable,
    /// Segment-descriptor page (GDT/LDT/IDT backing store).
    SegDesc,
    /// Grant-table page shared with another domain.
    GrantTable,
    /// Frame owned by the hypervisor itself (Xen text/data/heap).
    Hypervisor,
}

impl PageType {
    /// Returns `true` if this type is one of the four page-table types.
    pub const fn is_page_table(self) -> bool {
        matches!(
            self,
            PageType::L1PageTable
                | PageType::L2PageTable
                | PageType::L3PageTable
                | PageType::L4PageTable
        )
    }

    /// Returns the page-table level (1..=4) for page-table types.
    pub const fn page_table_level(self) -> Option<u8> {
        match self {
            PageType::L1PageTable => Some(1),
            PageType::L2PageTable => Some(2),
            PageType::L3PageTable => Some(3),
            PageType::L4PageTable => Some(4),
            _ => None,
        }
    }

    /// Returns the page-table type for a level (1..=4).
    pub const fn from_page_table_level(level: u8) -> Option<PageType> {
        match level {
            1 => Some(PageType::L1PageTable),
            2 => Some(PageType::L2PageTable),
            3 => Some(PageType::L3PageTable),
            4 => Some(PageType::L4PageTable),
            _ => None,
        }
    }
}

impl fmt::Display for PageType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PageType::None => "none",
            PageType::Writable => "writable",
            PageType::L1PageTable => "l1_page_table",
            PageType::L2PageTable => "l2_page_table",
            PageType::L3PageTable => "l3_page_table",
            PageType::L4PageTable => "l4_page_table",
            PageType::SegDesc => "seg_desc",
            PageType::GrantTable => "grant_table",
            PageType::Hypervisor => "hypervisor",
        };
        f.write_str(s)
    }
}

/// Accounting record for one machine frame.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageInfo {
    owner: Option<DomainId>,
    page_type: PageType,
    type_count: u32,
    ref_count: u32,
    pinned: bool,
    validated: bool,
}

impl PageInfo {
    /// A fresh, unowned, untyped frame.
    pub fn new() -> Self {
        Self::default()
    }

    /// The domain owning this frame, if any.
    pub fn owner(&self) -> Option<DomainId> {
        self.owner
    }

    /// The frame's current page type.
    pub fn page_type(&self) -> PageType {
        self.page_type
    }

    /// Number of outstanding *typed* references (e.g. page-table links).
    pub fn type_count(&self) -> u32 {
        self.type_count
    }

    /// Number of outstanding general references.
    pub fn ref_count(&self) -> u32 {
        self.ref_count
    }

    /// Whether the frame is pinned to its current type.
    pub fn pinned(&self) -> bool {
        self.pinned
    }

    /// Whether the frame's contents have passed type validation.
    pub fn validated(&self) -> bool {
        self.validated
    }

    /// Assigns the frame to `owner` with the given initial type.
    ///
    /// Resets both reference counts; used when (re-)allocating a frame.
    pub fn assign(&mut self, owner: DomainId, page_type: PageType) {
        self.owner = Some(owner);
        self.page_type = page_type;
        self.type_count = 0;
        self.ref_count = 1;
        self.pinned = false;
        self.validated = !page_type.is_page_table();
    }

    /// Releases the frame from its owner, returning it to the free pool.
    pub fn release(&mut self) {
        *self = PageInfo::new();
    }

    /// Takes a typed reference, promoting the frame to `wanted` if untyped.
    ///
    /// Mirrors Xen's `get_page_type()`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::TypeConflict`] if the frame already has a
    /// different type with outstanding references.
    pub fn get_type(&mut self, wanted: PageType) -> Result<(), MemError> {
        if self.page_type == wanted {
            self.type_count += 1;
            return Ok(());
        }
        if self.type_count == 0 && !self.pinned {
            self.page_type = wanted;
            self.type_count = 1;
            self.validated = false;
            return Ok(());
        }
        Err(MemError::TypeConflict {
            have: self.page_type,
            wanted,
        })
    }

    /// Drops a typed reference; demotes the frame to untyped when the last
    /// reference is gone (unless pinned). Mirrors Xen's `put_page_type()`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::RefUnderflow`] if no typed reference is held.
    pub fn put_type(&mut self) -> Result<(), MemError> {
        if self.type_count == 0 {
            return Err(MemError::RefUnderflow);
        }
        self.type_count -= 1;
        if self.type_count == 0 && !self.pinned {
            self.page_type = PageType::None;
            self.validated = false;
        }
        Ok(())
    }

    /// Takes a general reference. Mirrors Xen's `get_page()`.
    pub fn get_ref(&mut self) {
        self.ref_count += 1;
    }

    /// Drops a general reference.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::RefUnderflow`] if no reference is held.
    pub fn put_ref(&mut self) -> Result<(), MemError> {
        if self.ref_count == 0 {
            return Err(MemError::RefUnderflow);
        }
        self.ref_count -= 1;
        Ok(())
    }

    /// Pins the frame to its current type (Xen's `MMUEXT_PIN_*`).
    pub fn pin(&mut self) {
        self.pinned = true;
    }

    /// Unpins the frame.
    pub fn unpin(&mut self) {
        self.pinned = false;
    }

    /// Marks the frame contents as having passed type validation.
    pub fn set_validated(&mut self, validated: bool) {
        self.validated = validated;
    }

    /// Overwrites the page type without any checks.
    ///
    /// This is the *unchecked* mutation used by the intrusion injector to
    /// create erroneous accounting states; normal hypervisor paths go
    /// through [`PageInfo::get_type`].
    pub fn set_type_unchecked(&mut self, page_type: PageType) {
        self.page_type = page_type;
    }

    /// Overwrites the owner without any checks (injector use only).
    pub fn set_owner_unchecked(&mut self, owner: Option<DomainId>) {
        self.owner = owner;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_and_release() {
        let mut info = PageInfo::new();
        assert_eq!(info.owner(), None);
        info.assign(DomainId::new(3), PageType::Writable);
        assert_eq!(info.owner(), Some(DomainId::new(3)));
        assert_eq!(info.page_type(), PageType::Writable);
        assert_eq!(info.ref_count(), 1);
        assert!(info.validated());
        info.release();
        assert_eq!(info, PageInfo::new());
    }

    #[test]
    fn page_table_assignment_needs_validation() {
        let mut info = PageInfo::new();
        info.assign(DomainId::DOM0, PageType::L2PageTable);
        assert!(!info.validated());
    }

    #[test]
    fn get_type_promotes_untyped_frame() {
        let mut info = PageInfo::new();
        info.assign(DomainId::new(1), PageType::None);
        info.get_type(PageType::L1PageTable).unwrap();
        assert_eq!(info.page_type(), PageType::L1PageTable);
        assert_eq!(info.type_count(), 1);
    }

    #[test]
    fn get_type_conflict_is_rejected() {
        let mut info = PageInfo::new();
        info.assign(DomainId::new(1), PageType::None);
        info.get_type(PageType::L1PageTable).unwrap();
        let err = info.get_type(PageType::Writable).unwrap_err();
        assert!(matches!(
            err,
            MemError::TypeConflict {
                have: PageType::L1PageTable,
                wanted: PageType::Writable
            }
        ));
    }

    #[test]
    fn put_type_demotes_at_zero() {
        let mut info = PageInfo::new();
        info.assign(DomainId::new(1), PageType::None);
        info.get_type(PageType::L3PageTable).unwrap();
        info.get_type(PageType::L3PageTable).unwrap();
        info.put_type().unwrap();
        assert_eq!(info.page_type(), PageType::L3PageTable);
        info.put_type().unwrap();
        assert_eq!(info.page_type(), PageType::None);
        assert!(matches!(info.put_type(), Err(MemError::RefUnderflow)));
    }

    #[test]
    fn pinned_frame_keeps_type() {
        let mut info = PageInfo::new();
        info.assign(DomainId::new(1), PageType::None);
        info.get_type(PageType::L4PageTable).unwrap();
        info.pin();
        info.put_type().unwrap();
        assert_eq!(info.page_type(), PageType::L4PageTable);
        // And a conflicting re-type is refused even at count zero.
        assert!(info.get_type(PageType::Writable).is_err());
        info.unpin();
        info.get_type(PageType::Writable).unwrap();
    }

    #[test]
    fn ref_counting() {
        let mut info = PageInfo::new();
        info.assign(DomainId::new(1), PageType::Writable);
        info.get_ref();
        assert_eq!(info.ref_count(), 2);
        info.put_ref().unwrap();
        info.put_ref().unwrap();
        assert!(matches!(info.put_ref(), Err(MemError::RefUnderflow)));
    }

    #[test]
    fn page_table_level_roundtrip() {
        for level in 1..=4u8 {
            let ty = PageType::from_page_table_level(level).unwrap();
            assert!(ty.is_page_table());
            assert_eq!(ty.page_table_level(), Some(level));
        }
        assert_eq!(PageType::from_page_table_level(5), None);
        assert_eq!(PageType::Writable.page_table_level(), None);
    }

    #[test]
    fn domain_id_display() {
        assert_eq!(DomainId::DOM0.to_string(), "dom0");
        assert_eq!(format!("{:?}", DomainId::new(4)), "dom4");
        assert!(DomainId::DOM0.is_dom0());
        assert!(!DomainId::new(1).is_dom0());
    }
}
