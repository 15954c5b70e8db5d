//! Minimal grant tables, enough to express the "keep page reference"
//! erroneous-state family.
//!
//! Xen grant tables let a domain share pages with another domain. Version 2
//! adds *status frames* owned by Xen. The paper's motivating examples
//! XSA-387 ("status pages should be released to Xen when a guest switches
//! from grant table v2 to v1") and XSA-393 (`XENMEM_decrease_reservation`
//! after a cache-maintenance operation) both leave a guest holding a
//! reference to pages it should have lost — the *Keep Page Reference*
//! abusive functionality of §IV-B.

use hvsim_mem::{DomainId, Mfn};

/// Grant table interface version.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GrantTableVersion {
    /// Classic v1 layout (no status frames).
    V1,
    /// v2 layout with separate status frames.
    V2,
}

/// One grant entry: `domid` may map `frame`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GrantEntry {
    /// Domain the grant is extended to.
    pub domid: DomainId,
    /// The granted frame.
    pub frame: Mfn,
    /// Whether the grantee may write.
    pub writable: bool,
    /// Whether the grant is currently mapped by the grantee.
    pub mapped: bool,
}

/// Per-domain grant table state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GrantTable {
    version: GrantTableVersion,
    entries: Vec<GrantEntry>,
    status_frames: Vec<Mfn>,
}

impl GrantTable {
    /// A fresh v1 grant table with no entries.
    pub fn new() -> Self {
        Self {
            version: GrantTableVersion::V1,
            entries: Vec::new(),
            status_frames: Vec::new(),
        }
    }

    /// Current interface version.
    pub fn version(&self) -> GrantTableVersion {
        self.version
    }

    pub(crate) fn set_version(&mut self, version: GrantTableVersion) {
        self.version = version;
    }

    /// All grant entries.
    pub fn entries(&self) -> &[GrantEntry] {
        &self.entries
    }

    /// Adds a grant entry, returning its reference number.
    pub(crate) fn add_entry(&mut self, entry: GrantEntry) -> usize {
        self.entries.push(entry);
        self.entries.len() - 1
    }

    /// Looks up a grant entry by reference.
    pub fn entry(&self, gref: usize) -> Option<&GrantEntry> {
        self.entries.get(gref)
    }

    pub(crate) fn entry_mut(&mut self, gref: usize) -> Option<&mut GrantEntry> {
        self.entries.get_mut(gref)
    }

    /// Status frames currently held (v2 only; should be empty after a
    /// switch back to v1 — XSA-387 is exactly these frames leaking).
    pub fn status_frames(&self) -> &[Mfn] {
        &self.status_frames
    }

    pub(crate) fn add_status_frame(&mut self, mfn: Mfn) {
        self.status_frames.push(mfn);
    }

    pub(crate) fn take_status_frames(&mut self) -> Vec<Mfn> {
        std::mem::take(&mut self.status_frames)
    }
}

impl Default for GrantTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_table_is_v1_and_empty() {
        let t = GrantTable::new();
        assert_eq!(t.version(), GrantTableVersion::V1);
        assert!(t.entries().is_empty());
        assert!(t.status_frames().is_empty());
    }

    #[test]
    fn entries_get_sequential_refs() {
        let mut t = GrantTable::new();
        let e = GrantEntry {
            domid: DomainId::new(2),
            frame: Mfn::new(7),
            writable: true,
            mapped: false,
        };
        assert_eq!(t.add_entry(e), 0);
        assert_eq!(t.add_entry(e), 1);
        assert_eq!(t.entry(1), Some(&e));
        assert_eq!(t.entry(2), None);
    }

    #[test]
    fn status_frames_take_empties() {
        let mut t = GrantTable::new();
        t.set_version(GrantTableVersion::V2);
        t.add_status_frame(Mfn::new(9));
        t.add_status_frame(Mfn::new(10));
        let taken = t.take_status_frames();
        assert_eq!(taken, vec![Mfn::new(9), Mfn::new(10)]);
        assert!(t.status_frames().is_empty());
    }
}
