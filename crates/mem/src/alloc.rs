//! Free-list frame allocator with per-domain accounting.

use crate::{DomainId, MachineMemory, MemError, Mfn, PageType};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// Allocates machine frames to domains and tracks per-domain usage against
/// a quota, mirroring Xen's `max_pages`/`tot_pages` accounting.
///
/// Allocation order is deterministic — important both for reproducible
/// experiments and for exploits that fingerprint physical memory:
///
/// 1. a freed frame is reused before any never-allocated one, the most
///    recently freed first (LIFO);
/// 2. otherwise the lowest-numbered never-allocated frame is handed out.
///
/// The never-allocated frames are one range and the quotas sit behind an
/// `Arc` until the first allocation or free after a clone, so cloning a
/// booted allocator (a campaign cell's world fork) allocates nothing: the
/// freed stack is empty at boot. `clone_from` keeps the freed stack's
/// capacity and re-points the quotas only when they differ.
#[derive(Debug)]
pub struct FrameAllocator {
    /// Never-allocated frames, handed out lowest first.
    fresh: Range<u64>,
    /// Freed frames, reused last-freed first, before any fresh frame.
    freed: Vec<Mfn>,
    quotas: Arc<BTreeMap<DomainId, Quota>>,
}

#[derive(Clone, Copy, Debug, Default)]
struct Quota {
    max_pages: u64,
    tot_pages: u64,
}

impl Clone for FrameAllocator {
    fn clone(&self) -> Self {
        let Self { fresh, freed, quotas } = self;
        Self { fresh: fresh.clone(), freed: freed.clone(), quotas: Arc::clone(quotas) }
    }

    fn clone_from(&mut self, source: &Self) {
        let Self { fresh, freed, quotas } = self;
        *fresh = source.fresh.clone();
        freed.clone_from(&source.freed);
        crate::clone_arc_from(quotas, &source.quotas);
    }
}

impl FrameAllocator {
    /// Creates an allocator managing frames `first..limit`.
    ///
    /// Frames below `first` are typically reserved for the hypervisor
    /// image itself and never enter the free pool.
    pub fn new(first: Mfn, limit: Mfn) -> Self {
        Self {
            fresh: first.raw()..limit.raw(),
            freed: Vec::new(),
            quotas: Arc::default(),
        }
    }

    /// Gives this allocator its own copy of the quotas, so its clones
    /// bump a reference count that clones of the allocator it was cloned
    /// from do not.
    pub fn unshare(&mut self) {
        self.quotas = Arc::new((*self.quotas).clone());
    }

    /// The reference count of the shared quotas (how many allocators
    /// share them).
    pub fn share_count(&self) -> usize {
        Arc::strong_count(&self.quotas)
    }

    /// Number of frames currently free.
    pub fn free_frames(&self) -> usize {
        self.fresh.end.saturating_sub(self.fresh.start) as usize + self.freed.len()
    }

    /// Sets a domain's maximum page quota.
    pub fn set_quota(&mut self, dom: DomainId, max_pages: u64) {
        Arc::make_mut(&mut self.quotas).entry(dom).or_default().max_pages = max_pages;
    }

    /// Pages currently allocated to `dom`.
    pub fn pages_of(&self, dom: DomainId) -> u64 {
        self.quotas.get(&dom).map_or(0, |q| q.tot_pages)
    }

    /// Allocates one frame to `dom` with the given initial page type, in
    /// the order the [type-level docs](FrameAllocator) give.
    ///
    /// The frame is zeroed (a fresh allocation must never leak a previous
    /// owner's data — the "Read Unauthorized Memory" abusive functionality
    /// is exactly a violation of this rule).
    ///
    /// # Errors
    ///
    /// [`MemError::NoFreeFrames`] when the pool is empty,
    /// [`MemError::DomainQuotaExceeded`] when `dom` is at its quota.
    pub fn alloc(
        &mut self,
        mem: &mut MachineMemory,
        dom: DomainId,
        page_type: PageType,
    ) -> Result<Mfn, MemError> {
        let quota = Arc::make_mut(&mut self.quotas).entry(dom).or_default();
        if quota.max_pages != 0 && quota.tot_pages >= quota.max_pages {
            return Err(MemError::DomainQuotaExceeded);
        }
        let mfn = self
            .freed
            .pop()
            .or_else(|| self.fresh.next().map(Mfn::new))
            .ok_or(MemError::NoFreeFrames)?;
        quota.tot_pages += 1;
        mem.zero_frame(mfn)?;
        mem.info_mut(mfn)?.assign(dom, page_type);
        Ok(mfn)
    }

    /// Frees a frame, returning it to the pool; it is the next frame
    /// [`alloc`](Self::alloc) hands out.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadFrame`] for uninstalled frames.
    pub fn free(&mut self, mem: &mut MachineMemory, mfn: Mfn) -> Result<(), MemError> {
        let owner = mem.info(mfn)?.owner();
        if let Some(dom) = owner {
            if let Some(q) = Arc::make_mut(&mut self.quotas).get_mut(&dom) {
                q.tot_pages = q.tot_pages.saturating_sub(1);
            }
        }
        mem.info_mut(mfn)?.release();
        self.freed.push(mfn);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (MachineMemory, FrameAllocator) {
        let mem = MachineMemory::new(16);
        let alloc = FrameAllocator::new(Mfn::new(4), Mfn::new(16));
        (mem, alloc)
    }

    #[test]
    fn alloc_lowest_first_and_zeroed() {
        let (mut mem, mut alloc) = setup();
        mem.write_u64(Mfn::new(4).base(), 0x4141).unwrap();
        let mfn = alloc.alloc(&mut mem, DomainId::DOM0, PageType::Writable).unwrap();
        assert_eq!(mfn, Mfn::new(4));
        assert_eq!(mem.read_u64(mfn.base()).unwrap(), 0, "fresh frames are scrubbed");
        assert_eq!(mem.info(mfn).unwrap().owner(), Some(DomainId::DOM0));
    }

    #[test]
    fn quota_enforced() {
        let (mut mem, mut alloc) = setup();
        let dom = DomainId::new(2);
        alloc.set_quota(dom, 2);
        alloc.alloc(&mut mem, dom, PageType::Writable).unwrap();
        alloc.alloc(&mut mem, dom, PageType::Writable).unwrap();
        assert!(matches!(
            alloc.alloc(&mut mem, dom, PageType::Writable),
            Err(MemError::DomainQuotaExceeded)
        ));
        assert_eq!(alloc.pages_of(dom), 2);
    }

    #[test]
    fn free_returns_frame_and_credits_quota() {
        let (mut mem, mut alloc) = setup();
        let dom = DomainId::new(1);
        let before = alloc.free_frames();
        let mfn = alloc.alloc(&mut mem, dom, PageType::Writable).unwrap();
        assert_eq!(alloc.free_frames(), before - 1);
        alloc.free(&mut mem, mfn).unwrap();
        assert_eq!(alloc.free_frames(), before);
        assert_eq!(alloc.pages_of(dom), 0);
        assert_eq!(mem.info(mfn).unwrap().owner(), None);
    }

    #[test]
    fn pool_exhaustion() {
        let mut mem = MachineMemory::new(6);
        let mut alloc = FrameAllocator::new(Mfn::new(4), Mfn::new(6));
        alloc.alloc(&mut mem, DomainId::DOM0, PageType::Writable).unwrap();
        alloc.alloc(&mut mem, DomainId::DOM0, PageType::Writable).unwrap();
        assert!(matches!(
            alloc.alloc(&mut mem, DomainId::DOM0, PageType::Writable),
            Err(MemError::NoFreeFrames)
        ));
    }

    #[test]
    fn freed_frames_are_reused_before_fresh_ones() {
        let (mut mem, mut alloc) = setup();
        let dom = DomainId::DOM0;
        let a = alloc.alloc(&mut mem, dom, PageType::Writable).unwrap();
        let b = alloc.alloc(&mut mem, dom, PageType::Writable).unwrap();
        let c = alloc.alloc(&mut mem, dom, PageType::Writable).unwrap();
        assert_eq!((a, b, c), (Mfn::new(4), Mfn::new(5), Mfn::new(6)));
        alloc.free(&mut mem, a).unwrap();
        alloc.free(&mut mem, c).unwrap();
        // Last freed first, then the other freed frame, and only then
        // the lowest never-allocated frame.
        let order: Vec<Mfn> = (0..3)
            .map(|_| alloc.alloc(&mut mem, dom, PageType::Writable).unwrap())
            .collect();
        assert_eq!(order, vec![c, a, Mfn::new(7)]);
    }

    #[test]
    fn zero_quota_means_unlimited() {
        let (mut mem, mut alloc) = setup();
        let dom = DomainId::new(3);
        for _ in 0..12 {
            alloc.alloc(&mut mem, dom, PageType::Writable).unwrap();
        }
        assert_eq!(alloc.pages_of(dom), 12);
    }

    /// The allocator before its never-allocated frames became a range:
    /// one `Vec` sorted descending, whose `pop` yields the next frame and
    /// whose `push` takes a freed one. Kept as the reference the
    /// range-plus-stack allocator must match step for step.
    struct VecAllocator {
        free: Vec<Mfn>,
        quotas: BTreeMap<DomainId, Quota>,
    }

    impl VecAllocator {
        fn new(first: Mfn, limit: Mfn) -> Self {
            let free = (first.raw()..limit.raw()).rev().map(Mfn::new).collect();
            Self { free, quotas: BTreeMap::new() }
        }

        fn free_frames(&self) -> usize {
            self.free.len()
        }

        fn set_quota(&mut self, dom: DomainId, max_pages: u64) {
            self.quotas.entry(dom).or_default().max_pages = max_pages;
        }

        fn pages_of(&self, dom: DomainId) -> u64 {
            self.quotas.get(&dom).map_or(0, |q| q.tot_pages)
        }

        fn alloc(
            &mut self,
            mem: &mut MachineMemory,
            dom: DomainId,
            page_type: PageType,
        ) -> Result<Mfn, MemError> {
            let quota = self.quotas.entry(dom).or_default();
            if quota.max_pages != 0 && quota.tot_pages >= quota.max_pages {
                return Err(MemError::DomainQuotaExceeded);
            }
            let mfn = self.free.pop().ok_or(MemError::NoFreeFrames)?;
            quota.tot_pages += 1;
            mem.zero_frame(mfn)?;
            mem.info_mut(mfn)?.assign(dom, page_type);
            Ok(mfn)
        }

        fn free(&mut self, mem: &mut MachineMemory, mfn: Mfn) -> Result<(), MemError> {
            let owner = mem.info(mfn)?.owner();
            if let Some(dom) = owner {
                if let Some(q) = self.quotas.get_mut(&dom) {
                    q.tot_pages = q.tot_pages.saturating_sub(1);
                }
            }
            mem.info_mut(mfn)?.release();
            self.free.push(mfn);
            Ok(())
        }
    }

    mod model {
        use super::*;
        use proptest::prelude::*;

        /// One allocator step: `(kind, domain, argument)`. Kinds 0–5
        /// allocate (so runs exhaust the 12-frame fresh range), 6–7 free
        /// an arbitrary frame — a live one, a free one (double free) or
        /// an uninstalled one — and 8 sets a quota.
        fn step() -> impl Strategy<Value = (u8, u16, u64)> {
            (0u8..9, 0u16..3, 0u64..20)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Random alloc/free/quota sequences hand out the same
            /// frames, fail with the same errors and report the same
            /// free count and per-domain pages as the descending-`Vec`
            /// reference, through and past exhaustion of the fresh range.
            #[test]
            fn prop_allocator_matches_descending_vec_reference(
                steps in proptest::collection::vec(step(), 1..64),
            ) {
                let (first, limit) = (Mfn::new(4), Mfn::new(16));
                let mut mem = MachineMemory::new(16);
                let mut ref_mem = MachineMemory::new(16);
                let mut alloc = FrameAllocator::new(first, limit);
                let mut reference = VecAllocator::new(first, limit);
                for &(kind, dom, arg) in &steps {
                    let dom = DomainId::new(dom);
                    match kind {
                        0..=5 => prop_assert_eq!(
                            alloc.alloc(&mut mem, dom, PageType::Writable),
                            reference.alloc(&mut ref_mem, dom, PageType::Writable)
                        ),
                        6 | 7 => prop_assert_eq!(
                            alloc.free(&mut mem, Mfn::new(arg)),
                            reference.free(&mut ref_mem, Mfn::new(arg))
                        ),
                        _ => {
                            alloc.set_quota(dom, arg % 8);
                            reference.set_quota(dom, arg % 8);
                        }
                    }
                    prop_assert_eq!(alloc.free_frames(), reference.free_frames());
                    for d in 0..3 {
                        let d = DomainId::new(d);
                        prop_assert_eq!(alloc.pages_of(d), reference.pages_of(d));
                    }
                }
                for raw in 0..16 {
                    prop_assert_eq!(
                        mem.info(Mfn::new(raw)).unwrap(),
                        ref_mem.info(Mfn::new(raw)).unwrap()
                    );
                }
            }
        }
    }
}
