//! The byte-accurate machine memory array.
//!
//! A memory image is a **frozen shared base** plus a **per-image
//! overlay**. The base holds every installed frame, its contents and its
//! [`PageInfo`] accounting, behind one [`Arc`]. The overlay holds the
//! frames this image wrote while the base was shared, one entry per
//! frame (contents plus accounting), sorted by frame index.
//!
//! - While the base is uniquely owned, as during boot, writes go straight
//!   into it ([`Arc::get_mut`]).
//! - Once a clone shares the base, the first write to a frame copies that
//!   one frame's entry into the overlay, and every later write to the
//!   frame lands there. An overlay entry keeps shadowing the base even
//!   after the base becomes uniquely owned again.
//! - Reads check the overlay first. A 64-bit mask of the overlay's frame
//!   indices modulo 64 lets reads of frames this image never wrote skip
//!   the search.
//! - A clone bumps the base's reference count and copies the overlay, so
//!   a fork of a fork holds one flat overlay rather than a chain. A drop
//!   frees only the overlay. `clone_from` resets an image in place: it
//!   empties the overlay (keeping its capacity) and bumps the base's
//!   count only when the image points at another base.
//! - The base sits behind a per-image *handle*, a second [`Arc`] that
//!   clones share. [`MachineMemory::unshare`] gives an image a handle of
//!   its own in O(1), so threads that each fork their own unshared copy
//!   of one image never bump the same reference count.
//!
//! A campaign cell runs on an image reset to a booted base (empty
//! overlay) and writes a frame or two, so it pays one entry copy plus a
//! 4 KiB copy for each materialized frame it writes. The write copies the
//! base page's bytes into a new page without touching the base page's
//! count, which every image forked from the base shares. Frame contents
//! are `Arc<[u8; PAGE_SIZE]>` shared until written, and a never-written
//! frame holds no page at all, so an image costs O(touched pages) of real
//! memory over its lifetime.

use crate::{MemError, Mfn, PageInfo, PhysAddr, PAGE_SIZE};
use std::sync::Arc;

/// One machine frame: its contents and its accounting, copied into an
/// overlay together on the frame's first write after a fork.
#[derive(Clone, Debug, Default)]
struct Frame {
    /// `None` until first written (reads see zeroes); materialized
    /// contents are shared copy-on-write between images.
    data: Option<Arc<[u8; PAGE_SIZE]>>,
    info: PageInfo,
}

/// The frames of one base, shared by every handle on it. A newtype so
/// that a handle (`Arc<Frames>`) and the frames it points at keep
/// separate reference counts (see [`MachineMemory::unshare`]).
#[derive(Clone, Debug)]
struct Frames(Arc<Vec<Frame>>);

/// Copy-on-write accounting for one memory image, reported per campaign
/// cell so a run shows how much of a snapshot the cell had to copy.
/// Every field is a counter the image keeps as it goes, so taking the
/// stats is O(1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Installed frames.
    pub frames_total: u64,
    /// Frames this image privatized via copy-on-write since it was
    /// cloned (zero-frame materializations are not copies and are not
    /// counted).
    pub frames_copied: u64,
}

/// All installed machine memory: frame contents plus per-frame accounting.
///
/// This is the single source of truth every other subsystem (page walks,
/// hypercalls, guests, the intrusion injector) reads and mutates.
#[derive(Debug)]
pub struct MachineMemory {
    /// Every installed frame, behind this image's handle (the outer
    /// `Arc`, shared by its clones). Written in place only while this
    /// image owns both the handle and the frames alone.
    base: Arc<Frames>,
    /// The frames this image wrote while its base was shared, sorted by
    /// frame index. They shadow the base.
    overlay: Vec<(usize, Frame)>,
    /// Bit `idx % 64` is set once frame `idx` has an overlay entry.
    overlay_mask: u64,
    /// Copy-on-write frame breaks since this image was created or cloned.
    frames_copied: u64,
}

impl Clone for MachineMemory {
    /// A copy-on-write snapshot: one reference-count bump on the base
    /// plus a copy of the overlay, which is empty for a booted world. The
    /// clone starts its own [`SnapshotStats::frames_copied`] count at
    /// zero.
    fn clone(&self) -> Self {
        let Self { base, overlay, overlay_mask, frames_copied: _ } = self;
        Self {
            base: Arc::clone(base),
            overlay: overlay.clone(),
            overlay_mask: *overlay_mask,
            frames_copied: 0,
        }
    }

    /// Resets this image to a snapshot of `source`: the frames it wrote
    /// are dropped, the overlay keeps its capacity, and the base handle
    /// is re-pointed only if it differs from `source`'s.
    fn clone_from(&mut self, source: &Self) {
        let Self { base, overlay, overlay_mask, frames_copied } = self;
        crate::clone_arc_from(base, &source.base);
        overlay.clone_from(&source.overlay);
        *overlay_mask = source.overlay_mask;
        *frames_copied = 0;
    }
}

/// What a frame's first write after a fork does with the base's page
/// when it copies the frame's entry into the overlay.
#[derive(Clone, Copy)]
enum Privatize {
    /// Share the page (an accounting update leaves the bytes alone).
    Share,
    /// Copy the page's bytes into a page of the image's own (a write is
    /// about to change them). Sharing the page instead would bump a
    /// count that every image forked from the base bumps, only for the
    /// write to copy the page anyway.
    Copy,
}

impl MachineMemory {
    /// Creates a machine with `frames` installed 4 KiB frames, all zeroed
    /// and unowned.
    pub fn new(frames: usize) -> Self {
        Self {
            base: Arc::new(Frames(Arc::new(vec![Frame::default(); frames]))),
            overlay: Vec::new(),
            overlay_mask: 0,
            frames_copied: 0,
        }
    }

    /// Number of installed frames.
    pub fn frame_count(&self) -> u64 {
        self.base.0.len() as u64
    }

    /// Total installed bytes.
    pub fn size_bytes(&self) -> u64 {
        self.frame_count() * PAGE_SIZE as u64
    }

    /// Returns `true` if `mfn` addresses an installed frame.
    pub fn contains(&self, mfn: Mfn) -> bool {
        mfn.raw() < self.frame_count()
    }

    fn check_frame(&self, mfn: Mfn) -> Result<usize, MemError> {
        if self.contains(mfn) {
            Ok(mfn.raw() as usize)
        } else {
            Err(MemError::BadFrame {
                mfn,
                limit: self.frame_count(),
            })
        }
    }

    fn check_range(&self, addr: PhysAddr, len: usize) -> Result<(), MemError> {
        match addr.raw().checked_add(len as u64) {
            Some(end) if end <= self.size_bytes() => Ok(()),
            _ => Err(MemError::OutOfRange { addr, len }),
        }
    }

    fn overlay_pos(&self, idx: usize) -> Result<usize, usize> {
        self.overlay.binary_search_by_key(&idx, |&(i, _)| i)
    }

    /// The frame this image sees at `idx`.
    #[inline]
    fn frame(&self, idx: usize) -> &Frame {
        if self.overlay_mask & (1 << (idx % 64)) != 0 {
            if let Ok(pos) = self.overlay_pos(idx) {
                return &self.overlay[pos].1;
            }
        }
        &self.base.0[idx]
    }

    /// The frame a write to `idx` lands in: its overlay entry if it has
    /// one, else the base while this image owns it alone, else a new
    /// overlay entry copied from the base, whose page `page` says what
    /// to do with. A copied page counts in
    /// [`SnapshotStats::frames_copied`].
    fn frame_mut(&mut self, idx: usize, page: Privatize) -> &mut Frame {
        let pos = match self.overlay_pos(idx) {
            Ok(pos) => return &mut self.overlay[pos].1,
            Err(pos) => pos,
        };
        if Arc::get_mut(&mut self.base).and_then(|f| Arc::get_mut(&mut f.0)).is_some() {
            // Unique, so `make_mut` copies nothing. (Returning the
            // `get_mut` borrow directly fails the borrow checker on the
            // fall-through path.)
            return &mut Arc::make_mut(&mut Arc::make_mut(&mut self.base).0)[idx];
        }
        let base = &self.base.0[idx];
        let frame = match page {
            Privatize::Share => base.clone(),
            Privatize::Copy => {
                self.frames_copied += u64::from(base.data.is_some());
                let data = base.data.as_deref().map(|bytes| Arc::new(*bytes));
                Frame { data, info: base.info.clone() }
            }
        };
        self.overlay.insert(pos, (idx, frame));
        self.overlay_mask |= 1 << (idx % 64);
        &mut self.overlay[pos].1
    }

    /// Gives this image its own handle on the shared base, in O(1)
    /// memory: its clones then bump a reference count that clones of the
    /// image it was cloned from do not. Frames stay shared.
    pub fn unshare(&mut self) {
        self.base = Arc::new(Frames(Arc::clone(&self.base.0)));
    }

    /// The reference count of this image's handle on its base (how many
    /// images share the handle).
    pub fn share_count(&self) -> usize {
        Arc::strong_count(&self.base)
    }

    /// Copy-on-write accounting for this image, in O(1).
    pub fn snapshot_stats(&self) -> SnapshotStats {
        SnapshotStats {
            frames_total: self.frame_count(),
            frames_copied: self.frames_copied,
        }
    }

    /// Accounting record for a frame.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadFrame`] for uninstalled frames.
    pub fn info(&self, mfn: Mfn) -> Result<&PageInfo, MemError> {
        let idx = self.check_frame(mfn)?;
        Ok(&self.frame(idx).info)
    }

    /// Mutable accounting record for a frame.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadFrame`] for uninstalled frames.
    pub fn info_mut(&mut self, mfn: Mfn) -> Result<&mut PageInfo, MemError> {
        let idx = self.check_frame(mfn)?;
        Ok(&mut self.frame_mut(idx, Privatize::Share).info)
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// The access may cross frame boundaries but not the end of installed
    /// memory.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfRange`] if the access crosses the end of
    /// installed memory.
    pub fn read(&self, addr: PhysAddr, buf: &mut [u8]) -> Result<(), MemError> {
        self.check_range(addr, buf.len())?;
        let mut cursor = addr;
        let mut filled = 0usize;
        while filled < buf.len() {
            let off = cursor.page_offset();
            let len = (PAGE_SIZE - off).min(buf.len() - filled);
            let out = &mut buf[filled..filled + len];
            match &self.frame(cursor.frame().raw() as usize).data {
                Some(bytes) => out.copy_from_slice(&bytes[off..off + len]),
                None => out.fill(0),
            }
            filled += len;
            cursor = cursor.offset(len as u64);
        }
        Ok(())
    }

    /// Writes `buf` starting at `addr`.
    ///
    /// All-zero data landing in a never-written frame is a no-op: the
    /// frame stays unmaterialized (no 4 KiB allocation, no overlay
    /// entry).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfRange`] if the access crosses the end of
    /// installed memory.
    pub fn write(&mut self, addr: PhysAddr, buf: &[u8]) -> Result<(), MemError> {
        self.check_range(addr, buf.len())?;
        let mut cursor = addr;
        let mut written = 0usize;
        while written < buf.len() {
            let idx = cursor.frame().raw() as usize;
            let off = cursor.page_offset();
            let len = (PAGE_SIZE - off).min(buf.len() - written);
            let src = &buf[written..written + len];
            if self.frame(idx).data.is_some() || src.iter().any(|&b| b != 0) {
                let data = &mut self.frame_mut(idx, Privatize::Copy).data;
                // Contents another image can still read are a COW copy.
                let copied = data.as_ref().is_some_and(|d| Arc::strong_count(d) > 1);
                let bytes = data.get_or_insert_with(|| Arc::new([0u8; PAGE_SIZE]));
                Arc::make_mut(bytes)[off..off + len].copy_from_slice(src);
                self.frames_copied += u64::from(copied);
            }
            written += len;
            cursor = cursor.offset(len as u64);
        }
        Ok(())
    }

    /// Reads a little-endian `u64` at `addr`. A word inside one frame is
    /// read in place (every page-walk step reads one); only a word that
    /// straddles two frames goes through [`read`](Self::read).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfRange`] if the access crosses the end of
    /// installed memory.
    #[inline]
    pub fn read_u64(&self, addr: PhysAddr) -> Result<u64, MemError> {
        let (idx, off) = (addr.frame().raw(), addr.page_offset());
        if off > PAGE_SIZE - 8 || idx >= self.frame_count() {
            let mut buf = [0u8; 8];
            self.read(addr, &mut buf)?;
            return Ok(u64::from_le_bytes(buf));
        }
        Ok(match &self.frame(idx as usize).data {
            Some(bytes) => u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes")),
            None => 0,
        })
    }

    /// Writes a little-endian `u64` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfRange`] if the access crosses the end of
    /// installed memory.
    pub fn write_u64(&mut self, addr: PhysAddr, value: u64) -> Result<(), MemError> {
        self.write(addr, &value.to_le_bytes())
    }

    /// Zeroes an entire frame.
    ///
    /// The frame reverts to the unmaterialized zero representation.
    /// Zeroing a frame that is already unmaterialized is a complete no-op
    /// (no overlay entry).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadFrame`] for uninstalled frames.
    pub fn zero_frame(&mut self, mfn: Mfn) -> Result<(), MemError> {
        let idx = self.check_frame(mfn)?;
        if self.frame(idx).data.is_some() {
            self.frame_mut(idx, Privatize::Share).data = None;
        }
        Ok(())
    }

    /// Copies a full frame's contents into `out`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadFrame`] for uninstalled frames.
    pub fn read_frame(&self, mfn: Mfn, out: &mut [u8; PAGE_SIZE]) -> Result<(), MemError> {
        let idx = self.check_frame(mfn)?;
        match &self.frame(idx).data {
            Some(bytes) => out.copy_from_slice(&bytes[..]),
            None => out.fill(0),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DomainId, PageType};
    use proptest::prelude::*;

    /// Frames holding materialized contents, as this image sees them.
    fn materialized_frames(mem: &MachineMemory) -> usize {
        (0..mem.base.0.len()).filter(|&idx| mem.frame(idx).data.is_some()).count()
    }

    #[test]
    fn fresh_memory_reads_zero() {
        let mem = MachineMemory::new(4);
        let mut buf = [0xffu8; 32];
        mem.read(PhysAddr::new(100), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn read_write_roundtrip_within_frame() {
        let mut mem = MachineMemory::new(4);
        mem.write(PhysAddr::new(16), b"hello world").unwrap();
        let mut buf = [0u8; 11];
        mem.read(PhysAddr::new(16), &mut buf).unwrap();
        assert_eq!(&buf, b"hello world");
    }

    #[test]
    fn read_write_across_frame_boundary() {
        let mut mem = MachineMemory::new(4);
        let addr = PhysAddr::new(PAGE_SIZE as u64 - 4);
        mem.write(addr, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        assert_eq!(mem.read_u64(addr).unwrap(), u64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8]));
    }

    #[test]
    fn out_of_range_access_rejected() {
        let mut mem = MachineMemory::new(2);
        let end = mem.size_bytes();
        assert!(matches!(
            mem.write(PhysAddr::new(end - 4), &[0u8; 8]),
            Err(MemError::OutOfRange { .. })
        ));
        let mut buf = [0u8; 1];
        assert!(mem.read(PhysAddr::new(end), &mut buf).is_err());
        // Address arithmetic overflow is also rejected, not wrapped.
        assert!(mem.read(PhysAddr::new(u64::MAX), &mut buf).is_err());
    }

    #[test]
    fn bad_frame_rejected() {
        let mut mem = MachineMemory::new(2);
        assert!(mem.info(Mfn::new(2)).is_err());
        assert!(mem.info_mut(Mfn::new(2)).is_err());
        assert!(mem.zero_frame(Mfn::new(99)).is_err());
        assert!(mem.info(Mfn::new(1)).is_ok());
    }

    #[test]
    fn zero_frame_clears_content() {
        let mut mem = MachineMemory::new(2);
        mem.write_u64(PhysAddr::new(0), 0x1122_3344).unwrap();
        mem.zero_frame(Mfn::new(0)).unwrap();
        assert_eq!(mem.read_u64(PhysAddr::new(0)).unwrap(), 0);
    }

    #[test]
    fn read_frame_full_copy() {
        let mut mem = MachineMemory::new(2);
        mem.write(PhysAddr::new(4096 + 7), b"frame1").unwrap();
        let mut out = [0u8; PAGE_SIZE];
        mem.read_frame(Mfn::new(1), &mut out).unwrap();
        assert_eq!(&out[7..13], b"frame1");
        mem.read_frame(Mfn::new(0), &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn clone_shares_frames_until_written() {
        let mut parent = MachineMemory::new(8);
        parent.write(PhysAddr::new(0), b"parent data").unwrap();
        parent.write_u64(Mfn::new(3).base(), 0xabcd).unwrap();
        let mut child = parent.clone();
        let stats = child.snapshot_stats();
        assert_eq!(stats.frames_total, 8);
        assert_eq!(stats.frames_copied, 0, "nothing written through the clone yet");
        // The parent sees the same sharing: its first post-clone write to
        // a materialized frame is a copy, and the child keeps the old
        // contents.
        parent.write(PhysAddr::new(0), b"PARENT").unwrap();
        assert_eq!(parent.snapshot_stats().frames_copied, 1);
        let mut buf = [0u8; 11];
        child.read(PhysAddr::new(0), &mut buf).unwrap();
        assert_eq!(&buf, b"parent data");
        // Both materialized frames were shared: the child's write to the
        // other one is a copy too.
        child.write_u64(Mfn::new(3).base(), 0x1234).unwrap();
        assert_eq!(child.snapshot_stats().frames_copied, 1);
        assert_eq!(parent.read_u64(Mfn::new(3).base()).unwrap(), 0xabcd);
    }

    #[test]
    fn cow_write_breaks_sharing_for_one_frame_only() {
        let mut parent = MachineMemory::new(8);
        parent.write(PhysAddr::new(0), b"original").unwrap();
        parent.write(Mfn::new(1).base(), b"second").unwrap();
        let mut child = parent.clone();
        child.write(PhysAddr::new(0), b"modified").unwrap();
        let mut buf = [0u8; 8];
        parent.read(PhysAddr::new(0), &mut buf).unwrap();
        assert_eq!(&buf, b"original", "the parent never sees the child's write");
        child.read(PhysAddr::new(0), &mut buf).unwrap();
        assert_eq!(&buf, b"modified");
        let stats = child.snapshot_stats();
        assert_eq!(stats.frames_copied, 1, "only the written frame was privatized");
        // The child still shares the parent's base, so the parent's
        // writes to both frames copy them into its own overlay: two
        // copies, neither visible to the child.
        parent.write(Mfn::new(1).base(), b"SECOND").unwrap();
        parent.write(PhysAddr::new(0), b"ORIGINAL").unwrap();
        assert_eq!(parent.snapshot_stats().frames_copied, 2);
        child.read(PhysAddr::new(0), &mut buf).unwrap();
        assert_eq!(&buf, b"modified");
        let mut second = [0u8; 6];
        child.read(Mfn::new(1).base(), &mut second).unwrap();
        assert_eq!(&second, b"second");
    }

    #[test]
    fn write_after_siblings_drop_lands_in_the_overlay() {
        let mut parent = MachineMemory::new(4);
        parent.write(PhysAddr::new(0), b"base").unwrap();
        let mut child = parent.clone();
        child.write(PhysAddr::new(0), b"kid1").unwrap();
        child.info_mut(Mfn::new(1)).unwrap().assign(DomainId::new(3), PageType::Writable);
        // The parent goes: the child owns the base alone again, but its
        // overlay still shadows frames 0 and 1. Writes to them must land
        // in the overlay, writes elsewhere go straight into the base.
        drop(parent);
        child.write(PhysAddr::new(0), b"kid2").unwrap();
        child.info_mut(Mfn::new(1)).unwrap().pin();
        child.write(Mfn::new(2).base(), b"new!").unwrap();
        let mut buf = [0u8; 4];
        child.read(PhysAddr::new(0), &mut buf).unwrap();
        assert_eq!(&buf, b"kid2");
        let info = child.info(Mfn::new(1)).unwrap();
        assert_eq!((info.owner(), info.pinned()), (Some(DomainId::new(3)), true));
        child.read(Mfn::new(2).base(), &mut buf).unwrap();
        assert_eq!(&buf, b"new!");
        assert_eq!(child.overlay.len(), 2, "frame 2 was written in place");
    }

    #[test]
    fn unshared_handle_shares_frames_and_writes_into_its_overlay() {
        let mut base = MachineMemory::new(4);
        base.write(PhysAddr::new(0), b"base").unwrap();
        let mut worker = base.clone();
        worker.unshare();
        assert!(!Arc::ptr_eq(&worker.base, &base.base), "a handle of its own");
        assert!(Arc::ptr_eq(&worker.base.0, &base.base.0), "the same frames");
        // The handle is unique but the frames behind it are not: the
        // write lands in the overlay instead of copying the whole base.
        worker.write(PhysAddr::new(0), b"work").unwrap();
        assert!(Arc::ptr_eq(&worker.base.0, &base.base.0));
        assert_eq!(worker.overlay.len(), 1);
        let mut buf = [0u8; 4];
        base.read(PhysAddr::new(0), &mut buf).unwrap();
        assert_eq!(&buf, b"base");
    }

    /// A write's first privatization copies the base page's bytes into
    /// a page of the image's own and counts the copy, without bumping
    /// the base page's count; an accounting update shares the page.
    #[test]
    fn a_write_copies_the_base_page_and_an_info_update_shares_it() {
        let mut base = MachineMemory::new(4);
        base.write(PhysAddr::new(0), b"page zero").unwrap();
        base.write(Mfn::new(1).base(), b"page one").unwrap();
        let page = |mem: &MachineMemory, idx: usize| Arc::clone(mem.base.0[idx].data.as_ref().unwrap());
        let mut fork = base.clone();
        fork.write(PhysAddr::new(5), b"ZERO").unwrap();
        assert_eq!(Arc::strong_count(&page(&base, 0)), 2, "the base page alone, plus this probe");
        assert_eq!(fork.snapshot_stats().frames_copied, 1);
        let mut buf = [0u8; 9];
        fork.read(PhysAddr::new(0), &mut buf).unwrap();
        assert_eq!(&buf, b"page ZERO");
        fork.info_mut(Mfn::new(1)).unwrap().assign(DomainId::new(1), PageType::Writable);
        assert_eq!(Arc::strong_count(&page(&base, 1)), 3, "the fork's overlay shares the page");
        assert_eq!(fork.snapshot_stats().frames_copied, 1);
        // The shared page is copied, and counted, on the first write.
        fork.write(Mfn::new(1).base(), b"PAGE").unwrap();
        assert_eq!(fork.snapshot_stats().frames_copied, 2);
        assert_eq!(Arc::strong_count(&page(&base, 1)), 2);
    }

    /// `clone_from` resets an image to a snapshot of another: what the
    /// image wrote is gone, its overlay keeps its capacity, its copy
    /// count restarts, and a base it already points at is not bumped.
    #[test]
    fn clone_from_resets_an_image_in_place() {
        let mut base = MachineMemory::new(8);
        base.write(PhysAddr::new(0), b"base").unwrap();
        let mut image = base.clone();
        for frame in 0..8 {
            image.write_u64(Mfn::new(frame).base(), 0x4141).unwrap();
        }
        let room = image.overlay.capacity();
        image.clone_from(&base);
        assert!(image.overlay.is_empty());
        assert_eq!((image.overlay.capacity(), image.overlay_mask), (room, 0));
        assert_eq!(image.snapshot_stats(), base.clone().snapshot_stats());
        assert_eq!(base.share_count(), 2, "the base handle, not bumped again");
        let mut buf = [0u8; 4];
        image.read(PhysAddr::new(0), &mut buf).unwrap();
        assert_eq!(&buf, b"base");
        assert_eq!(image.read_u64(Mfn::new(3).base()).unwrap(), 0);
        // An image of another base is re-pointed.
        let mut other = MachineMemory::new(8);
        other.clone_from(&base);
        assert!(Arc::ptr_eq(&other.base, &base.base));
        assert_eq!(base.share_count(), 3);
    }

    #[test]
    fn zero_frame_fast_path_survives_cow() {
        let mut parent = MachineMemory::new(4);
        parent.write(PhysAddr::new(0), b"data").unwrap();
        let mut child = parent.clone();
        // Reading an untouched zero frame materializes nothing and
        // copies nothing, in either image.
        let mut out = [0xffu8; PAGE_SIZE];
        child.read_frame(Mfn::new(2), &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
        assert_eq!(child.snapshot_stats().frames_copied, 0);
        // Writing a zero frame in the child materializes a private page
        // that is not a COW copy and stays invisible to the parent.
        child.write(Mfn::new(2).base(), b"child").unwrap();
        assert_eq!(child.snapshot_stats().frames_copied, 0);
        parent.read_frame(Mfn::new(2), &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0), "the parent's frame is still zero");
        // zero_frame returns the child's frame to the unmaterialized
        // representation.
        child.zero_frame(Mfn::new(2)).unwrap();
        child.read_frame(Mfn::new(2), &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn zero_writes_do_not_materialize_zero_frames() {
        let mut mem = MachineMemory::new(4);
        // All-zero stores into never-touched frames keep the zero
        // representation: no 4 KiB allocation for a no-op write.
        mem.write_u64(PhysAddr::new(8), 0).unwrap();
        mem.write(PhysAddr::new(100), &[0u8; 200]).unwrap();
        let span = vec![0u8; PAGE_SIZE + 64];
        mem.write(PhysAddr::new(PAGE_SIZE as u64 - 32), &span).unwrap();
        assert_eq!(materialized_frames(&mem), 0);
        // ...and a cloned image copies nothing into its overlay either.
        let mut child = mem.clone();
        child.write_u64(PhysAddr::new(16), 0).unwrap();
        assert!(child.overlay.is_empty());
        assert_eq!(materialized_frames(&child), 0);
        // A non-zero store still materializes exactly the touched frame,
        // and zero stores into materialized frames land normally.
        child.write_u64(PhysAddr::new(8), 0x4141).unwrap();
        assert_eq!(materialized_frames(&child), 1);
        child.write_u64(PhysAddr::new(8), 0).unwrap();
        assert_eq!(child.read_u64(PhysAddr::new(8)).unwrap(), 0);
        assert_eq!(materialized_frames(&child), 1);
    }

    proptest! {
        #[test]
        fn prop_roundtrip_arbitrary_spans(
            offset in 0u64..(3 * PAGE_SIZE as u64),
            data in proptest::collection::vec(any::<u8>(), 1..256),
        ) {
            let mut mem = MachineMemory::new(4);
            mem.write(PhysAddr::new(offset), &data).unwrap();
            let mut out = vec![0u8; data.len()];
            mem.read(PhysAddr::new(offset), &mut out).unwrap();
            prop_assert_eq!(out, data);
        }

        #[test]
        fn prop_u64_roundtrip(offset in 0u64..(4 * PAGE_SIZE as u64 - 8), value: u64) {
            let mut mem = MachineMemory::new(4);
            mem.write_u64(PhysAddr::new(offset), value).unwrap();
            prop_assert_eq!(mem.read_u64(PhysAddr::new(offset)).unwrap(), value);
        }

        #[test]
        fn prop_disjoint_writes_do_not_interfere(
            a in 0u64..1024, b in 2048u64..4000, va: u64, vb: u64,
        ) {
            let mut mem = MachineMemory::new(4);
            mem.write_u64(PhysAddr::new(a), va).unwrap();
            mem.write_u64(PhysAddr::new(b), vb).unwrap();
            prop_assert_eq!(mem.read_u64(PhysAddr::new(a)).unwrap(), va);
            prop_assert_eq!(mem.read_u64(PhysAddr::new(b)).unwrap(), vb);
        }

        /// COW aliasing: interleaved writes on a snapshot and its parent
        /// never observe each other, regardless of order or overlap.
        #[test]
        fn prop_snapshot_and_parent_never_alias(
            ops in proptest::collection::vec(
                (any::<bool>(), 0u64..(4 * PAGE_SIZE as u64 - 8), any::<u64>()),
                1..24,
            ),
        ) {
            let mut parent = MachineMemory::new(4);
            parent.write_u64(PhysAddr::new(0), 0x5eed).unwrap();
            let mut child = parent.clone();
            // Shadow models: what each image should contain.
            let mut parent_model = std::collections::BTreeMap::new();
            let mut child_model = std::collections::BTreeMap::new();
            parent_model.insert(0u64, 0x5eedu64);
            child_model.insert(0u64, 0x5eedu64);
            for &(to_child, addr, value) in &ops {
                // Keep writes 8-byte aligned so the shadow model stays a
                // simple map of independent u64 slots.
                let addr = addr & !7;
                if to_child {
                    child.write_u64(PhysAddr::new(addr), value).unwrap();
                    child_model.insert(addr, value);
                } else {
                    parent.write_u64(PhysAddr::new(addr), value).unwrap();
                    parent_model.insert(addr, value);
                }
            }
            for (&addr, &value) in &parent_model {
                prop_assert_eq!(parent.read_u64(PhysAddr::new(addr)).unwrap(), value);
            }
            for (&addr, &value) in &child_model {
                prop_assert_eq!(child.read_u64(PhysAddr::new(addr)).unwrap(), value);
            }
        }

        /// Overlay-COW equivalence: arbitrary interleavings of clones,
        /// drops, handle unsharing, writes across frame boundaries,
        /// accounting updates and frame zeroing read back exactly like a
        /// flat deep-copied reference image. Dropping images makes a base
        /// uniquely owned again while surviving overlays still shadow
        /// some of its frames; an unshared handle is unique while the
        /// frames behind it are not.
        #[test]
        fn prop_overlay_cow_matches_flat_reference(
            ops in proptest::collection::vec(
                // (op, image, addr, data)
                (0u8..8, any::<u16>(), 0u64..(8 * PAGE_SIZE as u64 - 24),
                 proptest::collection::vec(any::<u8>(), 1..24)),
                1..48,
            ),
        ) {
            const FRAMES: usize = 8;
            let mut images = vec![MachineMemory::new(FRAMES)];
            // The reference model: a plain flat byte image plus per-frame
            // (owner, type) per snapshot, deep-copied on clone — trivially
            // correct COW semantics.
            type Model = (Vec<u8>, Vec<(Option<DomainId>, PageType)>);
            let mut models: Vec<Model> =
                vec![(vec![0u8; FRAMES * PAGE_SIZE], vec![(None, PageType::None); FRAMES])];
            for (op, image, addr, data) in &ops {
                let i = usize::from(*image) % images.len();
                let (addr, frame) = (*addr as usize, *addr as usize / PAGE_SIZE);
                match op {
                    0 if images.len() < 8 => {
                        images.push(images[i].clone());
                        models.push(models[i].clone());
                    }
                    1 if images.len() > 1 => {
                        images.remove(i);
                        models.remove(i);
                    }
                    2 => {
                        let (owner, ty) = (DomainId::new(u16::from(data[0])), PageType::Writable);
                        images[i].info_mut(Mfn::new(frame as u64)).unwrap().assign(owner, ty);
                        models[i].1[frame] = (Some(owner), ty);
                    }
                    3 => {
                        images[i].zero_frame(Mfn::new(frame as u64)).unwrap();
                        models[i].0[frame * PAGE_SIZE..(frame + 1) * PAGE_SIZE].fill(0);
                    }
                    4 => images[i].unshare(),
                    _ => {
                        images[i].write(PhysAddr::new(addr as u64), data).unwrap();
                        models[i].0[addr..addr + data.len()].copy_from_slice(data);
                    }
                }
            }
            for (image, (bytes, infos)) in images.iter().zip(&models) {
                let mut out = [0u8; PAGE_SIZE];
                for frame in 0..FRAMES {
                    image.read_frame(Mfn::new(frame as u64), &mut out).unwrap();
                    prop_assert_eq!(
                        &out[..], &bytes[frame * PAGE_SIZE..(frame + 1) * PAGE_SIZE],
                        "frame {} diverged from the flat reference", frame
                    );
                    let info = image.info(Mfn::new(frame as u64)).unwrap();
                    prop_assert_eq!((info.owner(), info.page_type()), infos[frame]);
                }
            }
        }
    }

    proptest! {
        // Every case reads each of the 16 Ki offsets twice.
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The in-place word read equals a byte-by-byte read at every
        /// offset of a frame, the 7 that straddle into the next frame
        /// included, through materialized, unmaterialized and overlay
        /// frames alike, and fails past the end of memory as `read` does.
        #[test]
        fn prop_read_u64_matches_a_byte_read(
            words in proptest::collection::vec((0u64..4 * PAGE_SIZE as u64 - 8, any::<u64>()), 0..8),
            forked in any::<bool>(),
            fork_words in proptest::collection::vec((0u64..4 * PAGE_SIZE as u64 - 8, any::<u64>()), 0..4),
        ) {
            let mut mem = MachineMemory::new(4);
            for &(addr, value) in &words {
                mem.write_u64(PhysAddr::new(addr), value).unwrap();
            }
            if forked {
                // The fork's writes land in its overlay.
                let mut fork = mem.clone();
                for &(addr, value) in &fork_words {
                    fork.write_u64(PhysAddr::new(addr), value).unwrap();
                }
                mem = fork;
            }
            let byte_read = |addr: u64| -> Result<u64, MemError> {
                let mut word = [0u8; 8];
                for (i, byte) in word.iter_mut().enumerate() {
                    let mut one = [0u8; 1];
                    mem.read(PhysAddr::new(addr + i as u64), &mut one)?;
                    *byte = one[0];
                }
                Ok(u64::from_le_bytes(word))
            };
            let end = mem.size_bytes();
            for addr in 0..end - 7 {
                let word = mem.read_u64(PhysAddr::new(addr)).ok();
                prop_assert_eq!(word, byte_read(addr).ok(), "at {:#x}", addr);
            }
            for addr in end - 7..end + 8 {
                let word = mem.read_u64(PhysAddr::new(addr));
                let overrun = matches!(word, Err(MemError::OutOfRange { .. }));
                prop_assert!(overrun, "a word at {:#x} crosses the end of memory", addr);
            }
            prop_assert!(mem.read_u64(PhysAddr::new(u64::MAX - 3)).is_err());
        }
    }
}
