//! A campaign cell's world costs no allocation to fork or reset, and a
//! cell allocates little beyond the state it writes.
//!
//! Every cell starts from a base world, so getting that world is on the
//! hot path of every campaign. A booted world keeps each of its
//! containers behind an `Arc` that a fork's first write copies, so
//! cloning and dropping a worker's `unshare`d copy must not touch the
//! heap at all, and neither must resetting a written fork to it (a
//! worker's world is reset that way before each cell). What the cells
//! then do is pinned as exact allocation budgets: the 24 paper cells,
//! the XSA-148-priv and XSA-212-priv exploit cells, a cell on a warm,
//! reused world, a randomized page-table trial, a crash, a fork's first
//! kernel log line, the XSA-212-priv payload parse and a cell's notes. A
//! new allocation in any of them fails here. This test counts allocations with its own global
//! allocator, which is why it is a test binary of its own: a global
//! allocator applies to the whole binary.

use guestos::{Payload, PayloadCommand, World};
use hvsim::XenVersion;
use intrusion_core::campaign::{standard_world, ATTACKER_GUEST};
use hvsim_mem::{DomainId, Mfn, VirtAddr};
use intrusion_core::{
    ArbitraryAccessInjector, Mode, Note, RandomizedCampaign, TargetRegion, UseCase,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Counts allocations made on threads that switched counting on, each
/// thread on its own counter, and, while [`EVERY_THREAD`] is set, those
/// of every thread on one process-wide counter (for runs whose work
/// happens on worker threads).
struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

static EVERY_THREAD: AtomicBool = AtomicBool::new(false);
static PROCESS_ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

fn count() {
    if EVERY_THREAD.load(Ordering::Relaxed) {
        PROCESS_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
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

/// Runs the tests one at a time: a process-wide count must not see
/// another test's allocations.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Heap allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(Cell::get) - before
}

/// Heap allocations every thread makes while `f` runs, the threads `f`
/// starts included. Only as exact as the process is quiet: the test
/// harness may allocate now and then on its own threads.
fn process_allocations_in(f: impl FnOnce()) -> usize {
    let before = PROCESS_ALLOCATIONS.load(Ordering::SeqCst);
    EVERY_THREAD.store(true, Ordering::SeqCst);
    f();
    EVERY_THREAD.store(false, Ordering::SeqCst);
    PROCESS_ALLOCATIONS.load(Ordering::SeqCst) - before
}

/// A campaign worker's copy of a base world: a clone, `unshare`d.
fn worker_copy(version: XenVersion, injector: bool) -> World {
    let base = standard_world(version, injector).expect("standard world boots");
    let mut copy = base.clone();
    copy.unshare();
    copy
}

/// One campaign cell on a worker's copy, run on a fresh fork: fork, the
/// use case's trial 0, its monitor, and the drop; returns the
/// allocations it made.
fn cell_allocations(uc: &dyn UseCase, copy: &World, mode: Mode) -> usize {
    allocations_in(|| {
        let mut world = copy.clone();
        run_cell(uc, &mut world, mode);
        drop(world);
    })
}

/// The use case's trial 0 in `mode` on `world`, and its monitor.
fn run_cell(uc: &dyn UseCase, world: &mut World, mode: Mode) {
    let attacker = world.domain_by_name(ATTACKER_GUEST).expect("standard worlds have it");
    let outcome = match mode {
        Mode::Exploit => uc.run_exploit_trial(world, attacker, 0),
        Mode::Injection => uc.run_injection_trial(world, attacker, &ArbitraryAccessInjector, 0),
    };
    let observed = uc.monitor(world, attacker).observe_contained(world);
    drop((outcome, observed));
}

#[test]
fn forking_an_unshared_standard_world_allocates_nothing() {
    let _serial = serial();
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
            // Resetting the written fork drops what it wrote and
            // re-points the containers at the copy's.
            let reset = allocations_in(|| fork.clone_from(&copy));
            assert_eq!(reset, 0, "resetting a written Xen {version} fork allocated");
        }
    }
}

/// A fork's first kernel log line copies the kernel map (the `Arc` and
/// its one node), then makes the kernel's `Arc` and the log's own tail;
/// the kernel's hostname, processes, files and boot lines stay shared,
/// and the fixed message is borrowed. A second line allocates nothing,
/// and a first line in another kernel of the same fork skips the map.
/// These were 16, 3 and 11 when a kernel copy copied every part and a
/// line was formatted as it was logged.
#[test]
fn a_forks_first_klog_line_copies_only_the_kernel_map_and_arc() {
    let _serial = serial();
    for version in [XenVersion::V4_6, XenVersion::V4_8, XenVersion::V4_13] {
        let copy = worker_copy(version, false);
        let mut fork = copy.clone();
        let (dom0, attacker) = (fork.dom0(), fork.domain_by_name(ATTACKER_GUEST).expect("guest"));
        let mut klog = |dom, line: &'static str| {
            allocations_in(|| fork.kernel_mut(dom).expect("kernel").klog(line))
        };
        let counts = [klog(dom0, "first line"), klog(dom0, "second line"), klog(attacker, "first line")];
        assert_eq!(counts, [4, 0, 2], "first, second and other-kernel klog lines of a Xen {version} fork");
    }
}

/// Parsing the XSA-212-priv blob, which every domain does when the
/// handler runs, borrows the command's two strings from the code bytes
/// and allocates nothing; it made one allocation per string before.
#[test]
fn parsing_the_xsa212_payload_allocates_nothing() {
    let _serial = serial();
    let blob = Payload::drop_root_file("/tmp/injector_log", "|$(id)|@$(hostname)").to_bytes();
    let mut parsed = None;
    let allocations = allocations_in(|| parsed = Payload::parse(&blob));
    assert!(matches!(
        parsed.map(|p| p.command),
        Some(PayloadCommand::DropRootFile { path, template })
            if path == "/tmp/injector_log" && template == "|$(id)|@$(hostname)"
    ));
    assert_eq!(allocations, 0, "the strings are borrowed");
}

/// A note of fixed text, numbers, ids, addresses or a shell reply holds
/// its values and allocates nothing; its text exists only when read.
#[test]
fn a_note_of_values_allocates_nothing() {
    let _serial = serial();
    let mut world = worker_copy(XenVersion::V4_6, false);
    world.remote_mut().listen();
    let dom0 = world.dom0();
    let session = world.remote_mut().accept(dom0, guestos::Uid::ROOT, "peer").expect("listening");
    let reply = world.shell_exec(session, "whoami && hostname").expect("session");
    let mut notes = Vec::with_capacity(8);
    let allocations = allocations_in(|| {
        notes.extend([
            Note::from("xen_exploit: dom0!"),
            Note::Sidt(VirtAddr::new(0xffff_8300_0000_2000)),
            Note::GateOverwritten { ops: 1 },
            Note::StartInfoPage(Mfn::new(0xc)),
            Note::XenVersion(XenVersion::V4_6),
            Note::HandlerRan { dom: DomainId::DOM0, outcome: guestos::HandlerOutcome::Executed },
            Note::Shell { session, command: "whoami && hostname", reply: reply.clone() },
            Note::Trial { spec: "set RW on L4 entry", region: "domain page tables" },
        ]);
    });
    assert_eq!(allocations, 0, "notes of values");
    assert_eq!(notes[6].to_string(), "shell[session#0]: whoami && hostname -> root xen3");
}

/// Crashing a fork copies each domain to mark it dead, and each domain
/// copy shares its p2m, event-port table and name with the base world.
/// Before those tables sat behind their own `Arc`, `crash` plus the drop
/// made 53 allocations here, most of them the three p2m `BTreeMap`s and
/// 512-entry port tables; 13 before the audit log's first append made
/// its copy with room to grow; 12 before the domain copies shared their
/// names and the crash record and its audit event one message; 8 before
/// a fork's audit events went to a list of its own instead of a copy of
/// the boot events in a new `Arc`.
#[test]
fn crashing_a_fork_copies_no_domain_table() {
    let _serial = serial();
    for version in [XenVersion::V4_6, XenVersion::V4_8, XenVersion::V4_13] {
        let copy = worker_copy(version, true);
        let allocations = allocations_in(|| {
            let mut fork = copy.clone();
            fork.hv_mut().crash("pinned");
            assert!(fork.hv().domains().all(|d| d.is_dead()));
            drop(fork);
        });
        assert_eq!(allocations, 7, "crash and drop of a Xen {version} fork");
        assert!(copy.hv().domains().all(|d| !d.is_dead()), "the fork's crash stays in the fork");
    }
}

/// The 24 paper cells (4 use cases x 3 versions x 2 modes), each run on
/// a fork of its key's unshared base world, allocate 376 times in all.
/// They made 1,210 allocations before page walks kept their steps
/// inline, the standard monitor stopped building its detector list,
/// audits stopped formatting their evidence, injections stopped listing
/// their writes, the p2m became one flat vector and the logs stopped
/// copying on every fork's first line; 832 before a kernel copy shared
/// its parts, payloads borrowed their strings, fixed notes were
/// borrowed, log lines were formatted only when read and the reverse
/// shell stopped copying its output; 497 before notes, shell replies,
/// handler faults and the listener's log kept values instead of text;
/// 376 before a fork's audit events went to a list of its own (one
/// allocation less in each cell that audits anything).
/// Each cell is counted twice, so a count that depends on what ran
/// before fails too.
#[test]
fn the_paper_cells_allocate_their_budget() {
    let _serial = serial();
    let mut total = 0;
    for uc in xsa_exploits::paper_use_cases() {
        for version in [XenVersion::V4_6, XenVersion::V4_8, XenVersion::V4_13] {
            for mode in [Mode::Exploit, Mode::Injection] {
                let copy = worker_copy(version, mode == Mode::Injection);
                let first = cell_allocations(uc.as_ref(), &copy, mode);
                let again = cell_allocations(uc.as_ref(), &copy, mode);
                assert_eq!(first, again, "{} on Xen {version}, {mode}", uc.name());
                total += first;
            }
        }
    }
    assert_eq!(total, 352, "the 24 paper cells");
}

/// The XSA-148-priv exploit on Xen 4.6 walks guest page tables most of
/// all the paper cells: 76 allocations before walks held their steps
/// inline, 20 of them the walks' step vectors; 47 before the backdoor
/// borrowed its host, the listener stopped formatting its lines and the
/// shell stopped copying its output; 29 before its notes and shell
/// replies kept values, its transcript was sized up front, the listener
/// and the vDSO tick stopped keeping lists of their own, and the
/// backdoor was encoded once; 12 before its audit events went to a list
/// of its own.
#[test]
fn the_xsa148_exploit_cell_allocates_its_budget() {
    let _serial = serial();
    let copy = worker_copy(XenVersion::V4_6, false);
    let allocations = cell_allocations(&xsa_exploits::Xsa148Priv, &copy, Mode::Exploit);
    assert_eq!(allocations, 11, "the XSA-148-priv exploit cell on Xen 4.6");
}

/// A worker runs its cells on one world, reset to the base before each
/// cell instead of forked and dropped. Warm, the world keeps the room
/// its lists grew in earlier cells (memory overlay, audit and log
/// tails, shell sessions), so the XSA-148-priv exploit cell, reset
/// included, allocates 8 times where it allocates 11 on a fresh fork.
/// It is counted on three consecutive resets, so a count that depends
/// on what ran before fails too.
#[test]
fn a_cell_on_a_warm_reused_world_allocates_its_budget() {
    let _serial = serial();
    let copy = worker_copy(XenVersion::V4_6, false);
    let mut world = copy.clone();
    run_cell(&xsa_exploits::Xsa148Priv, &mut world, Mode::Exploit);
    let warm = [(); 3].map(|()| {
        allocations_in(|| {
            world.clone_from(&copy);
            run_cell(&xsa_exploits::Xsa148Priv, &mut world, Mode::Exploit);
        })
    });
    assert_eq!(warm, [8; 3], "the XSA-148-priv exploit cell on a warm Xen 4.6 world");
}

/// The XSA-212-priv exploit on Xen 4.6 writes a guest kernel in every
/// domain: the attacker's staging and log lines, then the payload's
/// root file in each domain. It made 108 allocations when each kernel
/// copy copied its processes, files and log, the payload parse copied
/// its strings and the template expanded through two owned strings; 49
/// before its notes kept values; 44 before its audit events went to a
/// list of its own.
#[test]
fn the_xsa212_priv_exploit_cell_allocates_its_budget() {
    let _serial = serial();
    let copy = worker_copy(XenVersion::V4_6, false);
    let allocations = cell_allocations(&xsa_exploits::Xsa212Priv, &copy, Mode::Exploit);
    assert_eq!(allocations, 43, "the XSA-212-priv exploit cell on Xen 4.6");
}

/// One randomized page-table trial, engine and harness included, is
/// the difference between two streamed runs 512 trials apart, divided
/// and rounded, so the boot, the worker thread and any stray harness
/// allocation fall out. It was 23 before the walks, the monitor, the
/// audit, the spec label and the injection's writes stopped allocating,
/// 8 before the trial's note kept the two labels and its cell borrowed
/// the use-case name, and 6 before each worker reset one world per cell
/// instead of forking and dropping one (the world's lists keep their
/// room, and a fork's audit events no longer copy the boot events).
#[test]
fn a_randomized_page_table_trial_allocates_its_budget() {
    let _serial = serial();
    let run = |trials: usize| {
        process_allocations_in(|| {
            let factory = || {
                let world = standard_world(XenVersion::V4_8, true)?;
                let attacker = world.domain_by_name(ATTACKER_GUEST).expect("standard worlds have it");
                Ok((world, attacker))
            };
            let summary = RandomizedCampaign::new(TargetRegion::DomainPageTables, trials, 7)
                .run_streaming_summary(factory, 1)
                .expect("the base world boots");
            assert_eq!(summary.total, trials);
        })
    };
    const APART: usize = 512;
    let (small, large) = (run(64), run(64 + APART));
    let per_trial = (large.saturating_sub(small) + APART / 2) / APART;
    assert_eq!(per_trial, 3, "one randomized page-table trial ({small} vs {large} allocations)");
}
