//! A campaign cell's fork allocates nothing, and what a cell does
//! first allocates only what it writes.
//!
//! Every cell forks a base world, so the fork is on the hot path of
//! every campaign. A booted world keeps each of its containers behind
//! an `Arc` that the fork's first write copies, so cloning and dropping
//! a worker's `unshare`d copy must not touch the heap at all. The
//! XSA-212 cells then parse a payload in every domain or crash the
//! hypervisor, and those are pinned here too. This test counts
//! allocations with its own global allocator, which is why it is a test
//! binary of its own: a global allocator applies to the whole binary.

use guestos::{Payload, PayloadCommand, World};
use hvsim::XenVersion;
use intrusion_core::campaign::standard_world;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocations made on threads that switched counting on, each
/// thread on its own counter, so neither the test harness's threads
/// nor tests running side by side disturb a count.
struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(Cell::get) - before
}

/// A campaign worker's copy of a base world: a clone, `unshare`d.
fn worker_copy(version: XenVersion, injector: bool) -> World {
    let base = standard_world(version, injector).expect("standard world boots");
    let mut copy = base.clone();
    copy.unshare();
    copy
}

#[test]
fn forking_an_unshared_standard_world_allocates_nothing() {
    for version in [XenVersion::V4_6, XenVersion::V4_8, XenVersion::V4_13] {
        for injector in [false, true] {
            let copy = worker_copy(version, injector);
            let forks = allocations_in(|| {
                for _ in 0..100 {
                    drop(std::hint::black_box(copy.clone()));
                }
            });
            assert_eq!(forks, 0, "100 forks of Xen {version} (injector {injector}) allocated");

            // The counter sees a fork's first write, so the zero above
            // is not the counter failing to count.
            let mut fork = copy.clone();
            let dom0 = fork.dom0();
            let first_write = allocations_in(|| {
                fork.kernel_mut(dom0).expect("dom0 kernel").klog("first write");
            });
            assert!(first_write > 0, "a first write copies what it writes");
        }
    }
}

/// Parsing the XSA-212-priv blob, which every domain does when the
/// handler runs, allocates the command's two strings and nothing else.
#[test]
fn parsing_the_xsa212_payload_allocates_only_its_strings() {
    let blob = Payload::drop_root_file("/tmp/injector_log", "|$(id)|@$(hostname)").to_bytes();
    let mut parsed = None;
    let allocations = allocations_in(|| parsed = Payload::parse(&blob));
    assert!(matches!(
        parsed.map(|p| p.command),
        Some(PayloadCommand::DropRootFile { path, template })
            if path == "/tmp/injector_log" && template == "|$(id)|@$(hostname)"
    ));
    assert_eq!(allocations, 2, "one allocation per string");
}

/// Crashing a fork copies each domain to mark it dead, and each domain
/// copy shares its p2m and event-port table with the base world. Before
/// those tables sat behind their own `Arc`, `crash` plus the drop made
/// 53 allocations here, most of them the three p2m `BTreeMap`s and
/// 512-entry port tables.
#[test]
fn crashing_a_fork_copies_no_domain_table() {
    for version in [XenVersion::V4_6, XenVersion::V4_8, XenVersion::V4_13] {
        let copy = worker_copy(version, true);
        let allocations = allocations_in(|| {
            let mut fork = copy.clone();
            fork.hv_mut().crash("pinned");
            assert!(fork.hv().domains().all(|d| d.is_dead()));
            drop(fork);
        });
        assert_eq!(allocations, 13, "crash and drop of a Xen {version} fork");
        assert!(copy.hv().domains().all(|d| !d.is_dead()), "the fork's crash stays in the fork");
    }
}
