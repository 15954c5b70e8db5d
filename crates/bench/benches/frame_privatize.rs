//! First-write cost under the overlay COW memory: after a snapshot,
//! writing one frame copies that frame's entry into the snapshot's
//! overlay plus its 4 KiB of contents, and nothing else. Reads of frames
//! the snapshot never wrote go straight to the shared base.

use criterion::{criterion_group, criterion_main, Criterion};
use hvsim_mem::{MachineMemory, Mfn};
use std::hint::black_box;

const FRAMES: usize = 4096;

/// A fully materialized memory: every frame holds nonzero bytes, so a
/// privatization pays the real per-frame copy, not the never-written
/// shortcut.
fn materialized() -> MachineMemory {
    let mut mem = MachineMemory::new(FRAMES);
    for f in 0..FRAMES {
        mem.write(Mfn::new(f as u64).base(), &[1u8]).expect("frame in range");
    }
    mem
}

/// Clones `base` and writes 64 bytes into each of `frames`.
fn touch(base: &MachineMemory, frames: &[Mfn]) -> MachineMemory {
    let mut snap = base.clone();
    for f in frames {
        snap.write(f.base(), black_box(&[0xAAu8; 64])).unwrap();
    }
    snap
}

fn bench_clone(c: &mut Criterion) {
    // The snapshot itself: one reference-count bump and an empty overlay.
    let base = materialized();
    c.bench_function("frame_privatize/clone", |b| b.iter(|| black_box(base.clone())));
}

fn bench_one_touch(c: &mut Criterion) {
    let base = materialized();
    let frames = [Mfn::new(8)];
    c.bench_function("frame_privatize/1_touch", |b| b.iter(|| black_box(touch(&base, &frames))));
}

fn bench_scatter_touch(c: &mut Criterion) {
    // Eight writes scattered across the world: eight overlay entries,
    // each inserted into the sorted overlay.
    let base = materialized();
    let frames: Vec<Mfn> = (0..8).map(|i| Mfn::new(i * 512 + 3)).collect();
    c.bench_function("frame_privatize/8_scattered", |b| {
        b.iter(|| black_box(touch(&base, &frames)))
    });
}

fn bench_read_through_overlay(c: &mut Criterion) {
    // One read of a frame the snapshot never wrote, while its overlay
    // holds eight entries: the price the overlay adds to every read.
    let base = materialized();
    let frames: Vec<Mfn> = (0..8).map(|i| Mfn::new(i * 512 + 3)).collect();
    let snap = touch(&base, &frames);
    let addr = Mfn::new(1000).base().offset(8);
    c.bench_function("frame_privatize/read_unwritten_via_overlay", |b| {
        b.iter(|| black_box(snap.read_u64(black_box(addr)).unwrap()))
    });
}

criterion_group!(
    benches,
    bench_clone,
    bench_one_touch,
    bench_scatter_touch,
    bench_read_through_overlay
);
criterion_main!(benches);
