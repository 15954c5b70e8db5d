//! Adapters between the simulator's existing evidence streams and the
//! `hvsim-obs` layer.
//!
//! The hypervisor's [`AuditLog`](hvsim::AuditLog) and the guest's boot
//! trace are recorded *inside the world* regardless of observability
//! settings; this module is the single place where those records are
//! re-emitted as trace events, so neither `hvsim` nor `guestos` grows a
//! dependency on the obs crate and no event is ever counted twice.

use crate::stream::StreamReport;
use guestos::BootStage;
use hvsim::AuditEvent;
use hvsim_obs::{MetricsRegistry, TraceCtx};

/// Counter: cells the campaign scheduled.
pub const M_CELLS: &str = "campaign.cells";
/// Counter: cells that completed cleanly.
pub const M_CELLS_COMPLETED: &str = "campaign.cells_completed";
/// Counter: cells on which the harness degraded.
pub const M_CELLS_DEGRADED: &str = "campaign.cells_degraded";
/// Counter: cells whose world never booted.
pub const M_BOOT_FAILURES: &str = "campaign.boot_failures";
/// Counter: cells where a panic escaped the cell body.
pub const M_CRASHES: &str = "campaign.crashes";
/// Counter: hypercalls executed across all cells, derived at the end of
/// a run from the report's sum
/// [`StreamReport::hypercalls`](crate::StreamReport::hypercalls), which
/// is authoritative: it exists whether or not a registry is attached.
pub const M_HYPERCALLS: &str = "campaign.hypercalls";
/// Counter: frames privatized by copy-on-write across all cell worlds.
pub const M_FRAMES_COPIED: &str = "mem.frames_copied";
/// Counter (streaming only): time spent merging per-worker partial
/// reports, µs.
pub const M_MERGE_US: &str = "campaign.stream.merge_us";
/// Counter (checkpointing only): durable fold records journaled.
pub const M_CKPT_FOLDS: &str = "campaign.checkpoint.folds";
/// Counter (checkpointing only): fsyncs issued on the journal.
pub const M_CKPT_SYNCS: &str = "campaign.checkpoint.syncs";
/// Counter (checkpointing only): bytes appended to the journal.
pub const M_CKPT_BYTES: &str = "campaign.checkpoint.bytes";
/// Counter (checkpointing only): journal write errors (fail-soft — the
/// run continues unjournaled after the first).
pub const M_CKPT_WRITE_ERRORS: &str = "campaign.checkpoint.write_errors";
/// Counter (checkpointing only): worker time spent encoding fold
/// records, µs (rounded up). Two clock reads per record.
pub const M_CKPT_ENCODE_US: &str = "campaign.checkpoint.encode_us";
/// Counter (checkpointing only): the journal writer's time in append
/// plus sync, µs (rounded up). Two clock reads per group commit.
pub const M_CKPT_SYNC_US: &str = "campaign.checkpoint.sync_us";
/// Counter (resume only): slots skipped because a durable fold record
/// already covered them.
pub const M_CKPT_RESUMED_SLOTS: &str = "campaign.checkpoint.resumed_slots";
/// Counter: stall episodes the supervisor flagged — a busy worker
/// whose heartbeat age exceeded the stall threshold. Wall-clock
/// shaped, so it lives outside determinism diffs like the
/// `campaign.stream.*` family. Pre-registered at 0 whenever the
/// supervisor runs, so "no stalls" is an explicit value.
pub const M_WORKER_STALLED: &str = "campaign.worker.stalled";

/// Re-emits hypervisor audit events as trace points under
/// `audit/<kind>`, one per event, with the human-readable rendering in
/// the `detail` attribute. Callers pass the events *after* their
/// baseline index so world-boot events are not re-attributed to the
/// cell that merely cloned the world.
pub fn bridge_audit<'a>(ctx: &TraceCtx, events: impl IntoIterator<Item = &'a AuditEvent>) {
    if !ctx.is_enabled() {
        return;
    }
    for event in events {
        ctx.point(&format!("audit/{}", event.kind()), 0, || {
            vec![("detail".to_owned(), event.to_string())]
        });
    }
}

/// Re-emits the guest boot trace as points under `<parent>/<stage>`,
/// carrying each stage's externally measured duration in `wall_us`.
pub fn bridge_boot_stages(ctx: &TraceCtx, parent: &str, stages: &[BootStage]) {
    if !ctx.is_enabled() {
        return;
    }
    for stage in stages {
        ctx.point(&format!("{parent}/{}", stage.stage), stage.wall_us, Vec::new);
    }
}

/// Folds a run's merged cell fold into the registry: the `campaign.*`
/// counters and the six per-phase latency histograms (completed vs
/// degraded), merged exactly. Collecting and streamed runs both record
/// through here, from a fold that is complete before any counter moves,
/// so updates never depend on worker scheduling. Phases no cell
/// reached publish explicit zero-count histograms.
pub(crate) fn record_fold_metrics(
    report: &StreamReport,
    phases: &crate::stream::PhaseHistograms,
    registry: &MetricsRegistry,
) {
    registry.add(M_CELLS, report.cells);
    registry.add(M_CELLS_COMPLETED, report.completed);
    registry.add(M_CELLS_DEGRADED, report.degraded);
    registry.add(M_BOOT_FAILURES, report.boot_failed);
    registry.add(M_CRASHES, report.crashed);
    registry.add(M_HYPERCALLS, report.hypercalls);
    registry.add(M_FRAMES_COPIED, report.frames_copied);
    for (name, histogram) in phases.named() {
        registry.observe_histogram(name, histogram);
    }
}

/// Folds a finished checkpoint session into the registry. The counts
/// are schedule-*shaped* (batch boundaries move with worker
/// interleaving) and the `_us` pair is wall-clock, so they live outside
/// determinism diffs like the `campaign.stream.*` family.
pub(crate) fn record_checkpoint_metrics(
    counters: &crate::checkpoint::CheckpointCounters,
    resumed_slots: u64,
    registry: &MetricsRegistry,
) {
    registry.add(M_CKPT_FOLDS, counters.folds);
    registry.add(M_CKPT_SYNCS, counters.syncs);
    registry.add(M_CKPT_BYTES, counters.bytes);
    registry.add(M_CKPT_WRITE_ERRORS, counters.write_errors);
    registry.add(M_CKPT_ENCODE_US, counters.encode_us);
    registry.add(M_CKPT_SYNC_US, counters.sync_us);
    registry.add(M_CKPT_RESUMED_SLOTS, resumed_slots);
}
