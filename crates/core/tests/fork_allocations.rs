//! A campaign cell's fork allocates nothing.
//!
//! Every cell forks a base world, so the fork is on the hot path of
//! every campaign. A booted world keeps each of its containers behind
//! an `Arc` that the fork's first write copies, so cloning and dropping
//! a worker's `unshare`d copy must not touch the heap at all. This test
//! counts allocations with its own global allocator, which is why it is
//! a test binary of its own: a global allocator applies to the whole
//! binary.

use guestos::World;
use hvsim::XenVersion;
use intrusion_core::campaign::standard_world;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts allocations made on threads that switched counting on, so the
/// test harness's own threads do not disturb the count.
struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.load(Ordering::Relaxed) - before
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
