//! The outside-in per-layer trace. A sample of a workload's cells is
//! replayed through the layers' public functions, each call wrapped in
//! one of the benchmark's own `hvsim-obs` spans and timed, and the
//! hypercalls the use cases issue are probed one by one. Nothing here
//! reaches inside the engine: what the engine spends beyond the replay
//! is the harness residual, reported whole.

use crate::stats::median;
use crate::workloads::{cell_key, table3_row, Prepared, Workload, WorldKey};
use guestos::World;
use hvsim::{AccessMode, ExchangeArgs, MmuUpdate, PteFlags, XenVersion};
use hvsim_mem::{DomainId, Mfn, Pfn, VirtAddr};
use hvsim_obs::{TraceCtx, Tracer};
use hvsim_paging::{PageTableEntry, DIRECTMAP_START};
use intrusion_core::campaign::{standard_world, ATTACKER_GUEST};
use intrusion_core::{
    ArbitraryAccessInjector, ErroneousStateSpec, InjectError, InjectionEvidence, Injector, Mode,
    Monitor, UseCase,
};
use std::cell::RefCell;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Cells replayed per workload: enough that a p999 has 20 samples
/// beyond it.
pub const SAMPLE_CELLS: u64 = 20_000;

/// The span-timed latency families, in output order.
pub const LATENCIES: [&str; 6] = [
    "guest.world_clone_us",
    "guest.world_drop_us",
    "xsa.scenario_us",
    "hv.inject_us",
    "mem.snapshot_stats_us",
    "core.monitor_us",
];

/// What a replay pass collected.
#[derive(Default)]
pub struct Replay {
    /// Per-call latencies in µs, keyed by a [`LATENCIES`] name.
    pub latencies: BTreeMap<&'static str, Vec<f64>>,
    pub cells: u64,
    pub hypercalls: u64,
    pub audit_events: u64,
    pub frames_copied: u64,
    /// Process CPU seconds the pass took.
    pub cpu_s: f64,
    /// Replayed cells whose verdict differs from Table III.
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Replay {
    fn record(&mut self, family: &'static str, us: f64) {
        self.latencies.entry(family).or_default().push(us);
    }
}

/// Runs `f` inside a span at `path`, returning its result and its
/// duration in µs.
fn timed<T>(ctx: &TraceCtx, path: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = ctx.span(path);
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as f64 / 1e3)
}

/// The paper's injector, timed: what the replay hands the use case.
struct TimedInjector<'a> {
    ctx: &'a TraceCtx,
    calls_us: RefCell<Vec<f64>>,
}

impl<'a> TimedInjector<'a> {
    fn new(ctx: &'a TraceCtx) -> Self {
        TimedInjector {
            ctx,
            calls_us: RefCell::new(Vec::new()),
        }
    }

    fn total_us(&self) -> f64 {
        self.calls_us.borrow().iter().sum()
    }
}

impl Injector for TimedInjector<'_> {
    fn name(&self) -> &'static str {
        ArbitraryAccessInjector.name()
    }

    fn inject(
        &self,
        world: &mut World,
        dom: DomainId,
        spec: &ErroneousStateSpec,
    ) -> Result<InjectionEvidence, InjectError> {
        let (result, us) = timed(self.ctx, "cell/scenario/inject", || {
            ArbitraryAccessInjector.inject(world, dom, spec)
        });
        self.calls_us.borrow_mut().push(us);
        result
    }
}

fn attacker_of(world: &World) -> DomainId {
    world
        .domain_by_name(ATTACKER_GUEST)
        .expect("standard worlds have the attacker guest")
}

fn counters(world: &World) -> (u64, u64) {
    (
        world.hv().hypercall_count(),
        world.hv().audit().events().len() as u64,
    )
}

/// The part every replayed cell shares after its scenario: the monitor
/// has run; count, snapshot, drop.
fn finish_cell(ctx: &TraceCtx, world: World, before: (u64, u64), out: &mut Replay) -> u64 {
    let (hypercalls, audit) = counters(&world);
    let hypercalls = hypercalls - before.0;
    out.hypercalls += hypercalls;
    out.audit_events += audit.saturating_sub(before.1);
    let (stats, us) = timed(ctx, "cell/snapshot_stats", || world.snapshot_stats());
    out.record("mem.snapshot_stats_us", us);
    out.frames_copied += stats.frames_copied;
    let ((), us) = timed(ctx, "cell/world_drop", || drop(world));
    out.record("guest.world_drop_us", us);
    out.cells += 1;
    hypercalls
}

/// Replays one grid cell the way the engine runs it: clone the base
/// world, run the trial, monitor. Returns (erroneous state, violated,
/// handled, hypercalls).
fn replay_grid_cell(
    ctx: &TraceCtx,
    uc: &dyn UseCase,
    mode: Mode,
    trial: u64,
    base: &World,
    out: &mut Replay,
) -> (bool, bool, bool, u64) {
    let (mut world, us) = timed(ctx, "cell/world_clone", || base.clone());
    out.record("guest.world_clone_us", us);
    let attacker = attacker_of(&world);
    let before = counters(&world);
    let injector = TimedInjector::new(ctx);
    let (outcome, scenario_us) = timed(ctx, "cell/scenario", || match mode {
        Mode::Exploit => uc.run_exploit_trial(&mut world, attacker, trial),
        Mode::Injection => uc.run_injection_trial(&mut world, attacker, &injector, trial),
    });
    out.record("xsa.scenario_us", scenario_us - injector.total_us());
    for &us in injector.calls_us.borrow().iter() {
        out.record("hv.inject_us", us);
    }
    let ((observation, _), us) = timed(ctx, "cell/monitor", || {
        uc.monitor(&world, attacker).observe_contained(&world)
    });
    out.record("core.monitor_us", us);
    let violated = !observation.violations.is_empty();
    let handled = outcome.erroneous_state && !violated;
    let hypercalls = finish_cell(ctx, world, before, out);
    (outcome.erroneous_state, violated, handled, hypercalls)
}

/// The randomized engine's activation after an injection: ordinary
/// guest memory traffic, a deliberate page fault, and a vDSO tick.
fn shake(world: &mut World, attacker: DomainId) {
    let probe = world
        .kernel(attacker)
        .map(|k| k.va_of_pfn(Pfn::new(8)))
        .unwrap_or(VirtAddr::new(0x6000_0000_8000));
    let mut buf = [0u8; 8];
    let _ = world.hv_mut().guest_read_va(attacker, probe, &mut buf);
    let _ = world.hv_mut().guest_write_va(attacker, probe, &buf);
    let _ = world
        .hv_mut()
        .guest_read_va(attacker, VirtAddr::new(0x7f00_dead_0000), &mut buf);
    let _ = world.tick_vdso();
}

/// Replays one randomized trial: the same shape as the engine's page-
/// table trial (one 8-byte `WriteFrame` into the attacker's L4, then the
/// shake), with the slot and value picked by a seeded hash instead of
/// the engine's generator.
fn replay_trial(ctx: &TraceCtx, seed: u64, trial: u64, base: &World, out: &mut Replay) {
    let (mut world, us) = timed(ctx, "cell/world_clone", || base.clone());
    out.record("guest.world_clone_us", us);
    let attacker = attacker_of(&world);
    let before = counters(&world);
    let injector = TimedInjector::new(ctx);
    let ((), scenario_us) = timed(ctx, "cell/scenario", || {
        let l4 = world
            .hv()
            .domain(attacker)
            .ok()
            .and_then(|d| d.cr3())
            .unwrap_or(Mfn::new(0));
        // A multiplicative hash spreads the sampled trials over the L4.
        let x = (seed ^ trial).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let spec = ErroneousStateSpec::WriteFrame {
            mfn: l4,
            offset: (x >> 55) as usize * 8,
            bytes: x.to_le_bytes().to_vec(),
        };
        let _ = injector.inject(&mut world, attacker, &spec);
        shake(&mut world, attacker);
    });
    out.record("xsa.scenario_us", scenario_us - injector.total_us());
    for &us in injector.calls_us.borrow().iter() {
        out.record("hv.inject_us", us);
    }
    let (_, us) = timed(ctx, "cell/monitor", || Monitor::standard().observe(&world));
    out.record("core.monitor_us", us);
    finish_cell(ctx, world, before, out);
}

/// Replays `SAMPLE_CELLS` evenly spaced cells of one call of the
/// workload (slot = i · len / n), each under its own trace context
/// `shard_base + i + 1`. With a disabled tracer the spans cost one
/// branch each.
pub fn replay(
    prepared: &Prepared,
    worlds: &BTreeMap<WorldKey, World>,
    tracer: &Tracer,
    shard_base: u64,
) -> Replay {
    let mut out = Replay::default();
    let len = prepared.cells();
    let n = SAMPLE_CELLS.min(len);
    let cpu_start = crate::measure::process_cpu_s();
    let slots = (0..n).map(|i| (i, i * len / n));
    match prepared.campaign() {
        Some(campaign) => {
            let grid = campaign.grid();
            let use_cases = prepared.workload.use_cases(prepared.seed);
            let check = matches!(
                prepared.workload,
                Workload::PaperStream | Workload::PaperCollect | Workload::Xsa148Scan
            );
            for (i, slot) in slots {
                let spec = grid
                    .decode(slot)
                    .expect("sampled slots lie inside the grid");
                let uc = &*use_cases[spec.use_case];
                let base = &worlds[&(spec.version, spec.mode == Mode::Injection)];
                let ctx = tracer.ctx(shard_base + i + 1);
                let _cell = ctx.span_with("cell", || {
                    vec![
                        ("use_case".to_owned(), uc.name().to_owned()),
                        ("version".to_owned(), spec.version.to_string()),
                        ("mode".to_owned(), spec.mode.to_string()),
                    ]
                });
                let (erroneous, violated, handled, hypercalls) =
                    replay_grid_cell(&ctx, uc, spec.mode, spec.trial, base, &mut out);
                if check {
                    let key = cell_key(uc.name(), spec.version, spec.mode);
                    let want = table3_row(&key).expect("paper keys are in Table III");
                    let got = (
                        u64::from(erroneous),
                        u64::from(violated),
                        u64::from(handled),
                    );
                    if got != (want.erroneous, want.violated, want.handled)
                        || hypercalls != want.hypercalls
                    {
                        out.failed += 1;
                        out.problems.push(format!(
                            "replayed {key} trial {}: wrong verdict",
                            spec.trial
                        ));
                    }
                }
            }
        }
        None => {
            let base = worlds
                .values()
                .next()
                .expect("the randomized workload boots one world");
            for (i, trial) in slots {
                let ctx = tracer.ctx(shard_base + i + 1);
                let _cell = ctx.span_with("cell", || vec![("trial".to_owned(), trial.to_string())]);
                replay_trial(&ctx, prepared.seed, trial, base, &mut out);
            }
        }
    }
    out.cpu_s = crate::measure::process_cpu_s() - cpu_start;
    out
}

/// Injector latencies for a workload whose cells never inject
/// (`xsa148_scan` runs exploits only): the same sampled cells run in
/// injection mode on an injector world of their version, keeping only
/// the time inside `Injector::inject`. Without this the metric would
/// have no samples at all.
pub fn inject_twins(
    prepared: &Prepared,
    tracer: &Tracer,
    shard_base: u64,
) -> Result<Vec<f64>, String> {
    let Some(campaign) = prepared.campaign() else {
        return Ok(Vec::new());
    };
    let grid = campaign.grid();
    let use_cases = prepared.workload.use_cases(prepared.seed);
    let mut twins: BTreeMap<XenVersion, World> = BTreeMap::new();
    let len = grid.len();
    let n = SAMPLE_CELLS.min(len);
    let mut samples = Vec::new();
    for i in 0..n {
        let spec = grid
            .decode(i * len / n)
            .expect("sampled slots lie inside the grid");
        let base = match twins.entry(spec.version) {
            Entry::Occupied(booted) => booted.into_mut(),
            Entry::Vacant(slot) => slot.insert(
                standard_world(spec.version, true)
                    .map_err(|e| format!("injector world {}: {e}", spec.version))?,
            ),
        };
        let ctx = tracer.ctx(shard_base + i + 1);
        let _cell = ctx.span_with("cell", || {
            vec![(
                "inject_twin".to_owned(),
                use_cases[spec.use_case].name().to_owned(),
            )]
        });
        let mut world = base.clone();
        let attacker = attacker_of(&world);
        let injector = TimedInjector::new(&ctx);
        let _ = use_cases[spec.use_case]
            .run_injection_trial(&mut world, attacker, &injector, spec.trial);
        samples.extend(injector.calls_us.borrow().iter().copied());
    }
    Ok(samples)
}

/// Median ns per call of `f`: the call count per round doubles until a
/// round takes at least a millisecond, then 15 rounds are timed.
fn per_call_ns(mut f: impl FnMut()) -> f64 {
    let mut iters = 1u32;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        if start.elapsed() >= Duration::from_millis(1) || iters >= 1 << 20 {
            break;
        }
        iters *= 2;
    }
    let rounds: Vec<f64> = (0..15)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    median(&rounds)
}

/// The L2 slot of the attacker's kernel PMD that holds the XSA-148
/// superpage window.
const WINDOW_L2_INDEX: u64 = 9;

/// Per-call probes of the hypercalls, walks and copy-on-write step the
/// use cases exercise, on a fresh injector world of `version`. The
/// XSA-148 window is installed the injection way (a PSE entry written
/// with `arbitrary_access`), so it exists on every version.
pub fn probes(version: XenVersion) -> Result<Vec<(&'static str, f64)>, String> {
    const LINK: PteFlags = PteFlags::PRESENT.union(PteFlags::RW).union(PteFlags::USER);
    let mut world = standard_world(version, true).map_err(|e| format!("probe world: {e}"))?;
    let attacker = attacker_of(&world);
    let (hv, kernel) = world
        .hv_and_kernel_mut(attacker)
        .map_err(|e| e.to_string())?;
    let (_, data, _) = kernel
        .alloc_heap_page(hv)
        .map_err(|e| format!("heap page: {e}"))?;
    let tables = kernel.tables();
    let page_va = kernel.va_of_pfn(Pfn::new(8));
    let cr3 = hv
        .domain(attacker)
        .ok()
        .and_then(|d| d.cr3())
        .ok_or("attacker has no cr3")?;
    let window_va = VirtAddr::new(guestos::KERNEL_BASE + WINDOW_L2_INDEX * (2 << 20));
    let pse = PageTableEntry::new(Mfn::new(0), LINK | PteFlags::PSE).raw();
    hv.hc_arbitrary_access(
        attacker,
        tables.l2.base().offset(WINDOW_L2_INDEX * 8).raw(),
        &mut pse.to_le_bytes(),
        AccessMode::PhysWrite,
    )
    .map_err(|e| format!("installing the superpage window: {e}"))?;
    let policy = hv.walk_policy();
    for va in [page_va, window_va] {
        hvsim_paging::walk(hv.mem(), cr3, va, &policy)
            .map_err(|e| format!("probe walk of {va}: {e}"))?;
    }

    let updates: Vec<MmuUpdate> = (300..364)
        .map(|i| {
            MmuUpdate::normal(
                tables.l1.base().offset(i * 8).raw(),
                PageTableEntry::new(data, LINK).raw(),
            )
        })
        .collect();
    // The XSA-212 write-what-where: `-EFAULT` on every version, after
    // the write on 4.6 and at the handle check on later ones.
    let exchange =
        ExchangeArgs::write_what_where(VirtAddr::new(DIRECTMAP_START + 0x800), 0xfeed_f00d, 4);
    // The other probes must time the calls' success paths.
    hv.hc_mmu_update(attacker, &updates)
        .map_err(|e| format!("probe mmu_update: {e}"))?;
    hv.hc_arbitrary_access(
        attacker,
        data.base().raw(),
        &mut [0u8; 8],
        AccessMode::PhysWrite,
    )
    .map_err(|e| format!("probe arbitrary_access: {e}"))?;
    hv.guest_translate(attacker, window_va)
        .map_err(|e| format!("probe translate: {e}"))?;
    let mut probes = vec![
        (
            "hv.mmu_update_ns",
            per_call_ns(|| {
                black_box(hv.hc_mmu_update(attacker, &updates[..1]).ok());
            }),
        ),
        (
            "hv.mmu_update_batch64_ns",
            per_call_ns(|| {
                black_box(hv.hc_mmu_update(attacker, &updates).ok());
            }),
        ),
        (
            "hv.memory_exchange_ns",
            per_call_ns(|| {
                black_box(hv.hc_memory_exchange(attacker, &exchange).ok());
            }),
        ),
        (
            "hv.arbitrary_access_ns",
            per_call_ns(|| {
                let mut bytes = [0x41u8; 8];
                black_box(
                    hv.hc_arbitrary_access(
                        attacker,
                        data.base().raw(),
                        &mut bytes,
                        AccessMode::PhysWrite,
                    )
                    .ok(),
                );
            }),
        ),
    ];
    let mut page = 0u64;
    probes.push((
        "hv.translate_ns",
        per_call_ns(|| {
            page = (page + 1) % 512;
            black_box(
                hv.guest_translate(attacker, window_va.offset(page * 4096))
                    .ok(),
            );
        }),
    ));
    let mem = hv.mem();
    probes.push((
        "paging.walk_4k_ns",
        per_call_ns(|| {
            black_box(hvsim_paging::walk(mem, cr3, page_va, &policy).ok());
        }),
    ));
    probes.push((
        "paging.walk_2m_ns",
        per_call_ns(|| {
            black_box(hvsim_paging::walk(mem, cr3, window_va.offset(5 * 4096), &policy).ok());
        }),
    ));
    let mut value = 0u64;
    probes.push((
        "mem.privatize_ns",
        per_call_ns(|| {
            let mut snapshot = mem.clone();
            value += 1;
            snapshot
                .write_u64(data.base().offset(8), value)
                .expect("the heap frame is installed");
            black_box(&snapshot);
        }),
    ));
    Ok(probes)
}
