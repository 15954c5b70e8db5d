//! Every metric the benchmark reports, with its unit and direction.
//! `BENCHMARK.json` at the repository root declares the same lists; a
//! unit test keeps the two in step.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric, measured with tracing off. `bound` is the
/// share of the baseline median by which it may worsen before a change
/// counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// The bounds sit above the spread ten runs show on a shared 2-vCPU
/// host (README.md, "Why these bounds"): up to ~24% IQR over median for
/// throughput and CPU, ~5% for RSS. `setup_s` gets the widest.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "cells_per_s",
        unit: "cells/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_cell",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric from the traced run: (name, unit, better).
pub type Layer = (&'static str, &'static str, Better);

pub const PER_LAYER: [Layer; 30] = [
    ("guest.world_clone_us.p50", "us", Better::Lower),
    ("guest.world_clone_us.p999", "us", Better::Lower),
    ("guest.world_drop_us.p50", "us", Better::Lower),
    ("guest.world_drop_us.p999", "us", Better::Lower),
    ("guest.boot_ms.p50", "ms", Better::Lower),
    ("xsa.scenario_us.p50", "us", Better::Lower),
    ("xsa.scenario_us.p999", "us", Better::Lower),
    ("hv.inject_us.p50", "us", Better::Lower),
    ("hv.inject_us.p999", "us", Better::Lower),
    ("hv.hypercalls_per_cell", "count", Better::Lower),
    ("hv.audit_events_per_cell", "count", Better::Lower),
    ("hv.mmu_update_ns", "ns", Better::Lower),
    ("hv.mmu_update_batch64_ns", "ns", Better::Lower),
    ("hv.memory_exchange_ns", "ns", Better::Lower),
    ("hv.arbitrary_access_ns", "ns", Better::Lower),
    ("hv.translate_ns", "ns", Better::Lower),
    ("paging.walk_4k_ns", "ns", Better::Lower),
    ("paging.walk_2m_ns", "ns", Better::Lower),
    ("mem.privatize_ns", "ns", Better::Lower),
    ("mem.frames_copied_per_cell", "count", Better::Lower),
    ("mem.snapshot_stats_us.p50", "us", Better::Lower),
    ("mem.snapshot_stats_us.p999", "us", Better::Lower),
    ("core.monitor_us.p50", "us", Better::Lower),
    ("core.monitor_us.p999", "us", Better::Lower),
    ("core.engine_cpu_us_per_cell", "us", Better::Lower),
    ("core.replay_cpu_us_per_cell", "us", Better::Lower),
    ("core.harness_us_per_cell", "us", Better::Lower),
    ("core.checkpoint_us_per_cell", "us", Better::Lower),
    ("core.journal_bytes_per_cell", "bytes", Better::Lower),
    ("trace_overhead_pct", "%", Better::Lower),
];

/// The unit of a declared metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|&(name, unit, _)| (name, unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
}
