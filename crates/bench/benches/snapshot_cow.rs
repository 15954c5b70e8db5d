//! Copy-on-write snapshot cost. Cloning a booted world's machine memory
//! must be one reference-count bump on the frozen memory base, not a
//! page-by-page copy: the acceptance floor is a ≥10× win of
//! `MachineMemory::clone` over `deep_copy` on the standard 4096-frame
//! world. A whole-world fork shares every other container too, so its
//! cost is what a campaign cell pays before and after it writes.

use bench::attack_world;
use criterion::{criterion_group, criterion_main, Criterion};
use hvsim::{VirtAddr, XenVersion};
use std::hint::black_box;

fn bench_cow_clone(c: &mut Criterion) {
    let (world, _) = attack_world(XenVersion::V4_8, true);
    let mem = world.hv().mem();
    c.bench_function("snapshot_cow/cow_clone", |b| b.iter(|| black_box(mem.clone())));
}

fn bench_deep_copy(c: &mut Criterion) {
    // The pre-COW baseline: every materialized frame gets a fresh 4 KiB
    // allocation. This is what `clone` used to cost.
    let (world, _) = attack_world(XenVersion::V4_8, true);
    let mem = world.hv().mem();
    c.bench_function("snapshot_cow/deep_copy", |b| b.iter(|| black_box(mem.deep_copy())));
}

fn bench_world_clone(c: &mut Criterion) {
    // The campaign's snapshot operation: the whole world. Every
    // container (memory, the domain and kernel maps, the allocator's
    // quotas, the IDT and M2P frame lists, the console, the audit log,
    // the boot trace and the listener's host name) is a reference-count
    // bump; the allocator's freed stack and the listener's sessions are
    // empty after boot, so nothing is allocated.
    let (world, _) = attack_world(XenVersion::V4_8, true);
    c.bench_function("snapshot_cow/world_clone", |b| b.iter(|| black_box(world.clone())));
}

fn bench_world_clone_drop(c: &mut Criterion) {
    // One cell's fork and its drop, with nothing written in between:
    // what a cell that never touches the simulator pays.
    let (world, _) = attack_world(XenVersion::V4_8, true);
    c.bench_function("snapshot_cow/world_clone_drop", |b| {
        b.iter(|| drop(black_box(world.clone())))
    });
}

fn bench_world_first_domain_write(c: &mut Criterion) {
    // The cost that sharing on write defers to the first write: a fork,
    // one write to a domain (a trap-table hypercall copies the domain
    // map, the attacker's domain, the audit log's boot prefix) and one
    // to its kernel (a log line copies the kernel map and the kernel),
    // then the drop.
    let (world, attacker) = attack_world(XenVersion::V4_8, true);
    let handler = VirtAddr::new(0xffff_8000_0000_1000);
    c.bench_function("snapshot_cow/world_first_domain_write", |b| {
        b.iter(|| {
            let mut fork = world.clone();
            fork.hv_mut().hc_set_trap_table(attacker, &[(0x80, handler)]).unwrap();
            fork.kernel_mut(attacker).unwrap().klog("first write");
            drop(black_box(fork))
        })
    });
}

fn bench_first_write_after_clone(c: &mut Criterion) {
    // Cost of privatizing one frame after a snapshot: one overlay entry,
    // the COW fault path (one page copy) and the write.
    let (world, _) = attack_world(XenVersion::V4_8, true);
    let base = world.hv().mem();
    let frame = hvsim_mem::Mfn::new(8);
    c.bench_function("snapshot_cow/first_write_after_clone", |b| {
        b.iter(|| {
            let mut snap = base.clone();
            snap.write(frame.base(), black_box(&[0xAAu8; 64])).unwrap();
            black_box(snap)
        })
    });
}

criterion_group!(
    benches,
    bench_cow_clone,
    bench_deep_copy,
    bench_world_clone,
    bench_world_clone_drop,
    bench_world_first_domain_write,
    bench_first_write_after_clone
);
criterion_main!(benches);
