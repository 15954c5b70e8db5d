//! The byte-accurate machine memory array.
//!
//! Frames are stored copy-on-write at **three levels**: frames (and their
//! `PageInfo` accounting) are grouped into fixed-size chunks, each chunk
//! behind an [`Arc`], and the image holds a small directory of chunk
//! pointers, itself behind an [`Arc`]. Cloning a [`MachineMemory`] is one
//! reference-count bump, whatever the installed memory. The first
//! mutation after a clone copies the directory (one bump per chunk, 32
//! for the standard 4096-frame world) and privatizes only the *touched
//! chunk* ([`Arc::make_mut`]; one pointer copy per frame in that chunk),
//! so a clone that is only read never pays either. A shared directory
//! also keeps workers that fork one base image from contending on 32
//! chunk reference counts per fork. Each materialized frame is itself an
//! `Arc<[u8; PAGE_SIZE]>` shared until written, so a snapshot still
//! costs only O(touched pages) of real memory over its lifetime — the
//! behaviour a real MMU gives fork-style snapshots. Before chunking,
//! the first write after a clone copied the entire frame-pointer vector
//! (O(installed frames) per campaign cell); the `frame_privatize` bench
//! measures the difference.

use crate::{MemError, Mfn, PageInfo, PhysAddr, PAGE_SIZE};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Frames per chunk when no explicit chunk size is configured. 128
/// frames keeps the directory for the standard 4096-frame world at 32
/// entries while capping the cost of a first-write privatization at a
/// 128-pointer copy.
pub const DEFAULT_CHUNK_FRAMES: usize = 128;

/// One machine frame's contents.
///
/// Frames start life as all-zeroes and are only materialized on first
/// write, so large simulated machines stay cheap until touched. The
/// materialized representation is shared between clones until written.
#[derive(Clone, Debug, Default)]
enum FrameData {
    /// The frame has never been written; reads see zeroes.
    #[default]
    Zero,
    /// Materialized contents, shared copy-on-write between snapshots.
    Data(Arc<[u8; PAGE_SIZE]>),
}

impl FrameData {
    fn bytes(&self) -> Option<&[u8; PAGE_SIZE]> {
        match self {
            FrameData::Zero => None,
            FrameData::Data(b) => Some(b),
        }
    }
}

/// A fixed run of frames plus their accounting, shared whole between
/// snapshots until either image mutates a frame inside it. Contents and
/// accounting live in the same chunk so one privatization covers both;
/// splitting them would double the `Arc` traffic of a first write that
/// touches both.
#[derive(Clone, Debug)]
struct Chunk {
    frames: Vec<FrameData>,
    info: Vec<PageInfo>,
}

/// Copy-on-write accounting for one memory image, reported per campaign
/// cell so a run shows how much of a snapshot the cell had to copy.
/// Every field is a counter the image keeps as it goes, so taking the
/// stats is O(1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotStats {
    /// Installed frames.
    pub frames_total: u64,
    /// Frames this image privatized via copy-on-write since it was
    /// cloned (zero-frame materializations are not copies and are not
    /// counted).
    pub frames_copied: u64,
    /// Chunks of the frame directory this image privatized since it was
    /// cloned — each is one O(chunk) pointer copy, the unit cost the
    /// chunked directory caps first-write privatization at.
    pub chunks_privatized: u64,
}

/// All installed machine memory: frame contents plus per-frame accounting.
///
/// This is the single source of truth every other subsystem (page walks,
/// hypercalls, guests, the intrusion injector) reads and mutates.
#[derive(Debug)]
pub struct MachineMemory {
    /// The chunk directory, itself shared between clones until either
    /// image mutates a chunk: a clone is one reference-count bump.
    chunks: Arc<Vec<Arc<Chunk>>>,
    /// Frames per chunk; always a power of two so frame→chunk indexing
    /// is a shift and a mask.
    chunk_frames: usize,
    chunk_shift: u32,
    frames: u64,
    /// Copy-on-write frame breaks since this image was created or cloned.
    frames_copied: u64,
    /// Chunk privatizations since this image was created or cloned.
    chunks_privatized: u64,
}

impl Clone for MachineMemory {
    /// A copy-on-write snapshot: one reference-count bump on the chunk
    /// directory, independent of installed memory size. The directory,
    /// frame contents and accounting are shared until either image
    /// mutates them. The clone starts its own
    /// [`SnapshotStats::frames_copied`] / `chunks_privatized` counts at
    /// zero.
    fn clone(&self) -> Self {
        Self {
            chunks: self.chunks.clone(),
            chunk_frames: self.chunk_frames,
            chunk_shift: self.chunk_shift,
            frames: self.frames,
            frames_copied: 0,
            chunks_privatized: 0,
        }
    }
}

impl MachineMemory {
    /// Creates a machine with `frames` installed 4 KiB frames, all zeroed
    /// and unowned, grouped into [`DEFAULT_CHUNK_FRAMES`]-frame chunks.
    pub fn new(frames: usize) -> Self {
        Self::with_chunk_frames(frames, DEFAULT_CHUNK_FRAMES)
    }

    /// Creates a machine with an explicit copy-on-write chunk size.
    /// `chunk_frames` is rounded up to a power of two and clamped to at
    /// least 1; a chunk size of 1 degenerates to per-frame directory
    /// entries (the worst case the chunked-COW proptest checks against
    /// a flat reference), and a chunk size ≥ `frames` reproduces the old
    /// monolithic-vector behaviour (the `frame_privatize` bench
    /// baseline).
    pub fn with_chunk_frames(frames: usize, chunk_frames: usize) -> Self {
        let chunk_frames = chunk_frames.max(1).next_power_of_two();
        let chunk_shift = chunk_frames.trailing_zeros();
        let chunks = (0..frames)
            .step_by(chunk_frames)
            .map(|start| {
                let len = chunk_frames.min(frames - start);
                Arc::new(Chunk {
                    frames: (0..len).map(|_| FrameData::Zero).collect(),
                    info: vec![PageInfo::new(); len],
                })
            })
            .collect::<Vec<_>>();
        let chunks = Arc::new(chunks);
        Self {
            chunks,
            chunk_frames,
            chunk_shift,
            frames: frames as u64,
            frames_copied: 0,
            chunks_privatized: 0,
        }
    }

    /// Frames per copy-on-write chunk.
    pub fn chunk_frames(&self) -> usize {
        self.chunk_frames
    }

    /// Number of installed frames.
    pub fn frame_count(&self) -> u64 {
        self.frames
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

    /// Splits a frame index into (chunk index, offset within chunk).
    #[inline]
    fn chunk_of(&self, idx: usize) -> (usize, usize) {
        (idx >> self.chunk_shift, idx & (self.chunk_frames - 1))
    }

    /// Shared view of one frame's contents.
    #[inline]
    fn frame(&self, idx: usize) -> &FrameData {
        let (c, o) = self.chunk_of(idx);
        &self.chunks[c].frames[o]
    }

    /// Privatizes chunk `c` if it is still shared with a sibling image,
    /// counting the break; the returned chunk is exclusively owned.
    fn chunk_mut(&mut self, c: usize) -> &mut Chunk {
        let chunks = Arc::make_mut(&mut self.chunks);
        if Arc::strong_count(&chunks[c]) > 1 {
            self.chunks_privatized += 1;
        }
        Arc::make_mut(&mut chunks[c])
    }

    /// Copy-on-write accounting for this image, in O(1).
    pub fn snapshot_stats(&self) -> SnapshotStats {
        SnapshotStats {
            frames_total: self.frame_count(),
            frames_copied: self.frames_copied,
            chunks_privatized: self.chunks_privatized,
        }
    }

    /// Frames currently holding materialized (non-zero-representation)
    /// contents. Zero writes into zero frames must not grow this — the
    /// regression guard for the zero-write fast path.
    pub fn materialized_frames(&self) -> u64 {
        self.chunks
            .iter()
            .map(|c| {
                c.frames
                    .iter()
                    .filter(|f| matches!(f, FrameData::Data(_)))
                    .count() as u64
            })
            .sum()
    }

    /// Gives this image its own chunk directory if it still shares one
    /// with a clone. Clones of this image then share the directory with
    /// it alone: threads that each fork their own unshared copy of one
    /// base image never bump the same reference count. Chunks and frames
    /// stay shared.
    pub fn unshare(&mut self) {
        Arc::make_mut(&mut self.chunks);
    }

    /// A clone that materializes a private copy of every frame — the
    /// pre-COW snapshot behaviour, kept as the baseline the
    /// `snapshot_cow` bench compares reference-count cloning against.
    pub fn deep_copy(&self) -> Self {
        Self {
            chunks: self
                .chunks
                .iter()
                .map(|chunk| {
                    Arc::new(Chunk {
                        frames: chunk
                            .frames
                            .iter()
                            .map(|f| match f {
                                FrameData::Zero => FrameData::Zero,
                                FrameData::Data(b) => FrameData::Data(Arc::new(**b)),
                            })
                            .collect(),
                        info: chunk.info.clone(),
                    })
                })
                .collect::<Vec<_>>()
                .into(),
            chunk_frames: self.chunk_frames,
            chunk_shift: self.chunk_shift,
            frames: self.frames,
            frames_copied: 0,
            chunks_privatized: 0,
        }
    }

    /// Mutable view of one frame's bytes, materializing zero frames and
    /// breaking copy-on-write sharing as needed. The first mutation
    /// after a clone also privatizes the frame's chunk (which bumps
    /// every materialized frame's refcount in that chunk, so a later
    /// write to any of them still copies); sibling chunks stay shared.
    fn frame_bytes_mut(&mut self, idx: usize) -> &mut [u8; PAGE_SIZE] {
        let (c, o) = self.chunk_of(idx);
        // A frame is a COW copy if its own Arc is shared, or if the
        // whole chunk is still shared (privatizing the chunk bumps every
        // materialized frame's refcount, so both cases mean a sibling
        // can still read the old contents). Privatizing a shared
        // directory first bumps every chunk's refcount the same way.
        let chunks = Arc::make_mut(&mut self.chunks);
        let chunk_shared = Arc::strong_count(&chunks[c]) > 1;
        if chunk_shared {
            self.chunks_privatized += 1;
        }
        if let FrameData::Data(arc) = &chunks[c].frames[o] {
            if chunk_shared || Arc::strong_count(arc) > 1 {
                self.frames_copied += 1;
            }
        }
        let slot = &mut Arc::make_mut(&mut chunks[c]).frames[o];
        if matches!(slot, FrameData::Zero) {
            *slot = FrameData::Data(Arc::new([0u8; PAGE_SIZE]));
        }
        match slot {
            FrameData::Data(arc) => Arc::make_mut(arc),
            FrameData::Zero => unreachable!("frame was just materialized"),
        }
    }

    /// Accounting record for a frame.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadFrame`] for uninstalled frames.
    pub fn info(&self, mfn: Mfn) -> Result<&PageInfo, MemError> {
        let idx = self.check_frame(mfn)?;
        let (c, o) = self.chunk_of(idx);
        Ok(&self.chunks[c].info[o])
    }

    /// Mutable accounting record for a frame.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadFrame`] for uninstalled frames.
    pub fn info_mut(&mut self, mfn: Mfn) -> Result<&mut PageInfo, MemError> {
        let idx = self.check_frame(mfn)?;
        let (c, o) = self.chunk_of(idx);
        Ok(&mut self.chunk_mut(c).info[o])
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
        let end = addr
            .raw()
            .checked_add(buf.len() as u64)
            .ok_or(MemError::OutOfRange { addr, len: buf.len() })?;
        if end > self.size_bytes() {
            return Err(MemError::OutOfRange { addr, len: buf.len() });
        }
        let mut cursor = addr;
        let mut filled = 0usize;
        while filled < buf.len() {
            let frame = cursor.frame();
            let off = cursor.page_offset();
            let chunk = (PAGE_SIZE - off).min(buf.len() - filled);
            match self.frame(frame.raw() as usize).bytes() {
                Some(bytes) => buf[filled..filled + chunk].copy_from_slice(&bytes[off..off + chunk]),
                None => buf[filled..filled + chunk].fill(0),
            }
            filled += chunk;
            cursor = cursor.offset(chunk as u64);
        }
        Ok(())
    }

    /// Writes `buf` starting at `addr`.
    ///
    /// All-zero data landing in a still-unmaterialized zero frame is a
    /// no-op: the frame keeps its zero representation (no 4 KiB
    /// allocation, no chunk privatization).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfRange`] if the access crosses the end of
    /// installed memory.
    pub fn write(&mut self, addr: PhysAddr, buf: &[u8]) -> Result<(), MemError> {
        let end = addr
            .raw()
            .checked_add(buf.len() as u64)
            .ok_or(MemError::OutOfRange { addr, len: buf.len() })?;
        if end > self.size_bytes() {
            return Err(MemError::OutOfRange { addr, len: buf.len() });
        }
        let mut cursor = addr;
        let mut written = 0usize;
        while written < buf.len() {
            let frame = cursor.frame();
            let idx = frame.raw() as usize;
            let off = cursor.page_offset();
            let chunk = (PAGE_SIZE - off).min(buf.len() - written);
            let src = &buf[written..written + chunk];
            let zero_noop =
                matches!(self.frame(idx), FrameData::Zero) && src.iter().all(|&b| b == 0);
            if !zero_noop {
                self.frame_bytes_mut(idx)[off..off + chunk].copy_from_slice(src);
            }
            written += chunk;
            cursor = cursor.offset(chunk as u64);
        }
        Ok(())
    }

    /// Reads a little-endian `u64` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfRange`] if the access crosses the end of
    /// installed memory.
    pub fn read_u64(&self, addr: PhysAddr) -> Result<u64, MemError> {
        let mut buf = [0u8; 8];
        self.read(addr, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
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
    /// The frame reverts to the unmaterialized zero representation, so
    /// a snapshot's untouched zero frames stay free after cloning.
    /// Zeroing a frame that is already in the zero representation is a
    /// complete no-op (no privatization).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadFrame`] for uninstalled frames.
    pub fn zero_frame(&mut self, mfn: Mfn) -> Result<(), MemError> {
        let idx = self.check_frame(mfn)?;
        if matches!(self.frame(idx), FrameData::Zero) {
            return Ok(());
        }
        let (c, o) = self.chunk_of(idx);
        self.chunk_mut(c).frames[o] = FrameData::Zero;
        Ok(())
    }

    /// Copies a full frame's contents into `out`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadFrame`] for uninstalled frames.
    pub fn read_frame(&self, mfn: Mfn, out: &mut [u8; PAGE_SIZE]) -> Result<(), MemError> {
        let idx = self.check_frame(mfn)?;
        match self.frame(idx).bytes() {
            Some(bytes) => out.copy_from_slice(bytes),
            None => out.fill(0),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        assert_eq!(stats.chunks_privatized, 0);
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
        // Frame 1 is still shared: the parent's write to it is a copy
        // that the child never sees, while its write to frame 0 (no
        // longer shared) copies nothing.
        parent.write(Mfn::new(1).base(), b"SECOND").unwrap();
        parent.write(PhysAddr::new(0), b"ORIGINAL").unwrap();
        assert_eq!(parent.snapshot_stats().frames_copied, 1);
        let mut second = [0u8; 6];
        child.read(Mfn::new(1).base(), &mut second).unwrap();
        assert_eq!(&second, b"second");
    }

    #[test]
    fn first_write_privatizes_one_chunk_not_the_directory() {
        // 1024 frames in 64-frame chunks: a single write after a clone
        // must break exactly one chunk, leaving the other 15 shared.
        let mut parent = MachineMemory::with_chunk_frames(1024, 64);
        parent.write(Mfn::new(0).base(), b"a").unwrap();
        parent.write(Mfn::new(512).base(), b"b").unwrap();
        let mut child = parent.clone();
        child.write_u64(Mfn::new(3).base(), 7).unwrap();
        let stats = child.snapshot_stats();
        assert_eq!(stats.chunks_privatized, 1, "one O(chunk) copy, not O(frames)");
        // A second write into the same chunk privatizes nothing new.
        child.write_u64(Mfn::new(5).base(), 8).unwrap();
        assert_eq!(child.snapshot_stats().chunks_privatized, 1);
        assert_eq!(child.snapshot_stats().frames_copied, 0, "frames 3 and 5 were zero");
        // A write into a different chunk breaks exactly one more. Frame
        // 512's chunk was untouched, so its frame was still shared
        // through the shared chunk Arc: the write is a copy, and the
        // parent keeps its contents.
        child.write_u64(Mfn::new(512).base(), 9).unwrap();
        assert_eq!(child.snapshot_stats().chunks_privatized, 2);
        assert_eq!(child.snapshot_stats().frames_copied, 1);
        let mut buf = [0u8; 1];
        parent.read(Mfn::new(512).base(), &mut buf).unwrap();
        assert_eq!(&buf, b"b");
    }

    #[test]
    fn chunk_size_one_and_oversized_chunks_behave_identically() {
        for chunk in [1usize, 2, 8, 4096] {
            let mut parent = MachineMemory::with_chunk_frames(16, chunk);
            parent.write(PhysAddr::new(0), b"seed").unwrap();
            let mut child = parent.clone();
            child.write(Mfn::new(9).base(), b"child").unwrap();
            let mut buf = [0u8; 5];
            child.read(Mfn::new(9).base(), &mut buf).unwrap();
            assert_eq!(&buf, b"child");
            let mut out = [0u8; PAGE_SIZE];
            parent.read_frame(Mfn::new(9), &mut out).unwrap();
            assert!(out.iter().all(|&b| b == 0), "chunk={chunk}: parent unaffected");
        }
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
        assert_eq!(mem.materialized_frames(), 0);
        // ...and a cloned image privatizes nothing for them either.
        let mut child = mem.clone();
        child.write_u64(PhysAddr::new(16), 0).unwrap();
        let stats = child.snapshot_stats();
        assert_eq!(stats.chunks_privatized, 0);
        assert_eq!(child.materialized_frames(), 0);
        // A non-zero store still materializes exactly the touched frame,
        // and zero stores into materialized frames land normally.
        child.write_u64(PhysAddr::new(8), 0x4141).unwrap();
        assert_eq!(child.materialized_frames(), 1);
        child.write_u64(PhysAddr::new(8), 0).unwrap();
        assert_eq!(child.read_u64(PhysAddr::new(8)).unwrap(), 0);
        assert_eq!(child.materialized_frames(), 1);
    }

    #[test]
    fn deep_copy_shares_nothing() {
        let mut parent = MachineMemory::new(4);
        parent.write(PhysAddr::new(0), b"data").unwrap();
        let mut deep = parent.deep_copy();
        let mut buf = [0u8; 4];
        deep.read(PhysAddr::new(0), &mut buf).unwrap();
        assert_eq!(&buf, b"data");
        // Neither image shares a chunk or a frame with the other, so
        // writes on both sides copy nothing and stay invisible across.
        deep.write(PhysAddr::new(0), b"DEEP").unwrap();
        parent.write(PhysAddr::new(0), b"PRNT").unwrap();
        for image in [&deep, &parent] {
            let stats = image.snapshot_stats();
            assert_eq!((stats.frames_copied, stats.chunks_privatized), (0, 0));
        }
        deep.read(PhysAddr::new(0), &mut buf).unwrap();
        assert_eq!(&buf, b"DEEP");
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

        /// Chunked-COW equivalence: arbitrary interleavings of clones
        /// and writes, across chunk boundaries and at every chunk size,
        /// read back exactly like a flat deep-copied reference image.
        #[test]
        fn prop_chunked_cow_matches_flat_reference(
            chunk_frames in prop_oneof![Just(1usize), Just(2), Just(4), Just(64)],
            ops in proptest::collection::vec(
                // (clone source image, write target image, addr, data)
                (any::<u16>(), any::<u16>(), 0u64..(8 * PAGE_SIZE as u64 - 24),
                 proptest::collection::vec(any::<u8>(), 1..24)),
                1..32,
            ),
            interleave in proptest::collection::vec(any::<bool>(), 1..32),
        ) {
            const FRAMES: usize = 8;
            let mut images = vec![MachineMemory::with_chunk_frames(FRAMES, chunk_frames)];
            // The reference model: a plain flat byte image per snapshot,
            // deep-copied on clone — trivially correct COW semantics.
            let mut models = vec![vec![0u8; FRAMES * PAGE_SIZE]];
            for (i, (clone_src, write_tgt, addr, data)) in ops.iter().enumerate() {
                let do_clone = interleave.get(i).copied().unwrap_or(false);
                if do_clone && images.len() < 8 {
                    let src = (*clone_src as usize) % images.len();
                    images.push(images[src].clone());
                    models.push(models[src].clone());
                }
                let tgt = (*write_tgt as usize) % images.len();
                images[tgt].write(PhysAddr::new(*addr), data).unwrap();
                models[tgt][*addr as usize..*addr as usize + data.len()]
                    .copy_from_slice(data);
            }
            for (image, model) in images.iter().zip(&models) {
                let mut out = [0u8; PAGE_SIZE];
                for frame in 0..FRAMES {
                    image.read_frame(Mfn::new(frame as u64), &mut out).unwrap();
                    prop_assert_eq!(
                        &out[..], &model[frame * PAGE_SIZE..(frame + 1) * PAGE_SIZE],
                        "chunk={} image diverged from flat reference", chunk_frames
                    );
                }
            }
        }
    }
}
