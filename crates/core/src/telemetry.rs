//! Live campaign telemetry: worker heartbeats, stall detection, the
//! metrics-timeline sampler, and the `--progress` line.
//!
//! A supervisor runs only for `--progress` or `--timeline-out`, and
//! only then do workers get a [`Telemetry`]: each worker stamps its own
//! cache-line-aligned [`WorkerSlot`] — the time and the slot it just
//! claimed, and its done/degraded counts — at every slot boundary, and
//! the supervisor thread wakes every [`SAMPLE_INTERVAL`] to (1) push a
//! [`TimelineSample`] of live counters and gauges, (2) compare every
//! worker's heartbeat age against [`STALL_AFTER`] — flagging a
//! wedged worker once per stall episode via the
//! `campaign.worker.stalled` counter and a `worker <w> stalled on slot
//! <s>` line on stderr, which `campaign replay <s>` reproduces — and
//! (3) redraw the live progress line on stderr.
//!
//! Everything here is wall-clock shaped by construction and therefore
//! lives *outside* the determinism contract: timelines, progress
//! lines, and stall reports are diagnostics, never part of normalized
//! reports.

use hvsim_obs::{MetricsRegistry, MetricsTimeline};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How often the supervisor samples the timeline, checks for stalls and
/// redraws the progress line.
pub(crate) const SAMPLE_INTERVAL: Duration = Duration::from_millis(200);

/// Heartbeat age beyond which a busy worker counts as stalled: ten
/// sampling ticks, far past any cell a healthy worker runs.
pub(crate) const STALL_AFTER: Duration = Duration::from_secs(2);

/// Heartbeat value meaning "this worker is idle" (finished its stream
/// or waiting for work) — idle workers are never stall candidates.
const IDLE: u64 = u64::MAX;

/// One worker's live counters, alone on a cache line so that no two
/// workers' per-cell writes land on the same line. Only its worker
/// writes it; the supervisor reads and sums every slot.
#[repr(align(64))]
struct WorkerSlot {
    /// Milliseconds since the run started when the worker last crossed
    /// a slot boundary, or [`IDLE`].
    heartbeat: AtomicU64,
    /// The slot claimed at the last heartbeat.
    slot: AtomicU64,
    /// Cells this worker finished.
    done: AtomicU64,
    /// Of those, cells on which the harness degraded.
    degraded: AtomicU64,
}

/// Shared live state of one supervised campaign run: one
/// [`WorkerSlot`] per worker. Created only when a supervisor will read
/// it; written by workers on the slot boundary (relaxed atomic stores),
/// read by the supervisor.
pub(crate) struct Telemetry {
    start: Instant,
    total: u64,
    workers: Vec<WorkerSlot>,
    /// Workers that ran out of work and exited — the supervisor's
    /// shutdown condition, airtight even when the cell count drifts
    /// (resumed slots, early closes). Written once per worker.
    finished_workers: AtomicU64,
}

impl Telemetry {
    pub(crate) fn new(total: u64, workers: usize) -> Self {
        Self {
            start: Instant::now(),
            total,
            workers: (0..workers)
                .map(|_| WorkerSlot {
                    heartbeat: AtomicU64::new(IDLE),
                    slot: AtomicU64::new(0),
                    done: AtomicU64::new(0),
                    degraded: AtomicU64::new(0),
                })
                .collect(),
            finished_workers: AtomicU64::new(0),
        }
    }

    /// Milliseconds since the run started.
    pub(crate) fn elapsed_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// Stamps `worker`'s heartbeat: it just claimed `slot`.
    pub(crate) fn beat(&self, worker: usize, slot: u64) {
        if let Some(w) = self.workers.get(worker) {
            w.slot.store(slot, Ordering::Relaxed);
            w.heartbeat.store(self.elapsed_ms().min(IDLE - 1), Ordering::Relaxed);
        }
    }

    /// Marks `worker` idle (waiting or done); idle workers never stall.
    pub(crate) fn idle(&self, worker: usize) {
        if let Some(w) = self.workers.get(worker) {
            w.heartbeat.store(IDLE, Ordering::Relaxed);
        }
    }

    /// Marks `worker` permanently done. The supervisor exits once every
    /// worker has finished.
    pub(crate) fn worker_finished(&self, worker: usize) {
        self.idle(worker);
        self.finished_workers.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one cell `worker` finished.
    pub(crate) fn cell_done(&self, worker: usize, degraded: bool) {
        if let Some(w) = self.workers.get(worker) {
            if degraded {
                w.degraded.fetch_add(1, Ordering::Relaxed);
            }
            w.done.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Cells finished across all workers.
    fn done(&self) -> u64 {
        self.workers.iter().map(|w| w.done.load(Ordering::Relaxed)).sum()
    }

    /// Degraded cells across all workers.
    fn degraded(&self) -> u64 {
        self.workers.iter().map(|w| w.degraded.load(Ordering::Relaxed)).sum()
    }

    fn finished(&self) -> bool {
        self.finished_workers.load(Ordering::Relaxed) >= self.workers.len() as u64
    }

    /// Each busy worker's heartbeat age in ms and the slot it holds
    /// (`None` = idle).
    fn heartbeats(&self, now_ms: u64) -> Vec<Option<Heartbeat>> {
        self.workers
            .iter()
            .map(|w| match w.heartbeat.load(Ordering::Relaxed) {
                IDLE => None,
                beat => Some(Heartbeat {
                    age_ms: now_ms.saturating_sub(beat),
                    slot: w.slot.load(Ordering::Relaxed),
                }),
            })
            .collect()
    }
}

/// A busy worker's last heartbeat, as the supervisor sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Heartbeat {
    /// Milliseconds since the worker claimed `slot`.
    pub age_ms: u64,
    /// The grid slot the worker holds.
    pub slot: u64,
}

/// `(worker, slot)` for every worker whose heartbeat age exceeds the
/// threshold. Pure so the stall policy is unit-testable without
/// threads.
pub(crate) fn stalled_workers(beats: &[Option<Heartbeat>], threshold_ms: u64) -> Vec<(usize, u64)> {
    beats
        .iter()
        .enumerate()
        .filter_map(|(worker, beat)| {
            beat.filter(|b| b.age_ms > threshold_ms).map(|b| (worker, b.slot))
        })
        .collect()
}

/// The stderr line for one stall episode; the slot is what `campaign
/// replay` takes.
pub(crate) fn stall_line(worker: usize, slot: u64) -> String {
    format!("worker {worker} stalled on slot {slot}")
}

/// The `--progress` line: done/total, percent, throughput, ETA, and
/// the degraded count.
pub(crate) fn progress_line(done: u64, total: u64, degraded: u64, elapsed_ms: u64) -> String {
    let percent = if total == 0 { 100.0 } else { done as f64 * 100.0 / total as f64 };
    let rate = if elapsed_ms == 0 { 0.0 } else { done as f64 * 1000.0 / elapsed_ms as f64 };
    let eta = if rate > 0.0 && done < total {
        format!("{:.0}s", (total - done) as f64 / rate)
    } else {
        "-".to_owned()
    };
    format!(
        "cells {done}/{total} ({percent:.1}%) | {rate:.1} cells/s | eta {eta} | degraded {degraded}"
    )
}

/// Everything the supervisor thread needs, borrowed from the engine's
/// scope so the thread can live inside `std::thread::scope`.
pub(crate) struct Supervisor<'a> {
    /// Redraw the live progress line on stderr every tick.
    pub progress: bool,
    /// Timeline the samples are pushed into, when attached.
    pub timeline: Option<&'a MetricsTimeline>,
    /// Registry the `campaign.worker.stalled` counter is folded into.
    pub registry: Option<&'a MetricsRegistry>,
}

impl Supervisor<'_> {
    /// Runs the supervisor loop until the run finishes: a timeline
    /// sample, a stall sweep, and a progress redraw per tick, plus one
    /// final sample after the last cell so even sub-interval runs
    /// produce a non-empty timeline.
    ///
    /// `extra` appends run-specific gauges (claimed slots, checkpoint
    /// counters, chaos tallies) to each sample.
    pub(crate) fn run(&self, telemetry: &Telemetry, extra: impl Fn(&mut Vec<(String, u64)>)) {
        if let Some(registry) = self.registry {
            // Pre-register the stall counter so "no stalls" is an
            // explicit 0 in every snapshot, not an absent name.
            registry.add(crate::obs_bridge::M_WORKER_STALLED, 0);
        }
        let mut flagged = vec![false; telemetry.workers.len()];
        loop {
            let finished = self.sleep_interval(telemetry);
            self.tick(telemetry, &extra, &mut flagged);
            if finished {
                break;
            }
        }
        if self.progress {
            eprintln!();
        }
    }

    /// Sleeps one interval in short chunks, returning early (true)
    /// once the run is finished.
    fn sleep_interval(&self, telemetry: &Telemetry) -> bool {
        let chunk = Duration::from_millis(10);
        let deadline = Instant::now() + SAMPLE_INTERVAL;
        while Instant::now() < deadline {
            if telemetry.finished() {
                return true;
            }
            std::thread::sleep(chunk);
        }
        telemetry.finished()
    }

    fn tick(
        &self,
        telemetry: &Telemetry,
        extra: &impl Fn(&mut Vec<(String, u64)>),
        flagged: &mut [bool],
    ) {
        let now_ms = telemetry.elapsed_ms();
        let done = telemetry.done();
        let degraded = telemetry.degraded();
        let beats = telemetry.heartbeats(now_ms);
        let busy = beats.iter().filter(|beat| beat.is_some()).count() as u64;
        let stalled = stalled_workers(&beats, STALL_AFTER.as_millis() as u64);
        for &(worker, slot) in &stalled {
            if !flagged[worker] {
                flagged[worker] = true;
                if let Some(registry) = self.registry {
                    registry.add(crate::obs_bridge::M_WORKER_STALLED, 1);
                }
                // Start a fresh line when a progress line is being redrawn.
                let lead = if self.progress { "\n" } else { "" };
                eprintln!("{lead}{}", stall_line(worker, slot));
            }
        }
        // A worker that beats again ends its stall episode; the next
        // episode counts (and reports) anew.
        for (worker, beat) in beats.iter().enumerate() {
            if beat.is_some() && !stalled.iter().any(|&(w, _)| w == worker) {
                flagged[worker] = false;
            }
        }
        if let Some(timeline) = self.timeline {
            let mut values = vec![
                ("progress.done".to_owned(), done),
                ("progress.total".to_owned(), telemetry.total),
                ("progress.degraded".to_owned(), degraded),
                ("workers.busy".to_owned(), busy),
                ("workers.stalled".to_owned(), stalled.len() as u64),
                (
                    "throughput.cells_per_sec_x1000".to_owned(),
                    done.saturating_mul(1_000_000).checked_div(now_ms).unwrap_or(0),
                ),
            ];
            extra(&mut values);
            timeline.push(now_ms, values);
        }
        if self.progress {
            eprint!("\r{}", progress_line(done, telemetry.total, degraded, now_ms));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_detection_ignores_idle_and_fresh_workers() {
        let beat = |age_ms, slot| Some(Heartbeat { age_ms, slot });
        let beats = vec![beat(10, 0), None, beat(5_000, 17), beat(2_001, 4), None];
        assert_eq!(stalled_workers(&beats, 2_000), vec![(2, 17), (3, 4)]);
        assert!(stalled_workers(&beats, 10_000).is_empty());
        assert!(stalled_workers(&[], 1).is_empty());
        // Each stall is reported by the slot its worker holds.
        let lines: Vec<String> = stalled_workers(&beats, 4_000)
            .into_iter()
            .map(|(worker, slot)| stall_line(worker, slot))
            .collect();
        assert_eq!(lines, vec!["worker 2 stalled on slot 17".to_owned()]);
    }

    #[test]
    fn heartbeats_round_trip_through_ages() {
        let t = Telemetry::new(4, 2);
        t.beat(0, 3);
        let beats = t.heartbeats(t.elapsed_ms() + 50);
        let beat = beats[0].unwrap();
        assert!(beat.age_ms >= 50);
        assert_eq!(beat.slot, 3, "the heartbeat carries the claimed slot");
        assert_eq!(beats[1], None, "a worker that never beat is idle");
        t.beat(1, 9);
        let slots: Vec<Option<u64>> =
            t.heartbeats(t.elapsed_ms()).iter().map(|b| b.map(|b| b.slot)).collect();
        assert_eq!(slots, vec![Some(3), Some(9)], "each worker holds its own slot");
        t.idle(0);
        t.idle(1);
        assert_eq!(t.heartbeats(1_000), vec![None, None]);
        // Out-of-range worker indices are ignored, not a panic.
        t.beat(7, 0);
        t.idle(7);
        t.cell_done(7, true);
        assert_eq!((t.done(), t.degraded()), (0, 0));
    }

    #[test]
    fn progress_counters_accumulate() {
        let t = Telemetry::new(3, 2);
        assert!(!t.finished());
        t.cell_done(0, false);
        t.cell_done(1, true);
        t.cell_done(0, false);
        assert_eq!(t.workers[0].done.load(Ordering::Relaxed), 2, "each worker counts its own");
        assert_eq!(t.workers[1].done.load(Ordering::Relaxed), 1);
        assert_eq!(t.done(), 3, "the supervisor sums the workers");
        assert_eq!(t.degraded(), 1);
        t.worker_finished(0);
        assert!(!t.finished(), "one of two workers still running");
        t.worker_finished(1);
        assert!(t.finished());
    }

    #[test]
    fn worker_slots_never_share_a_cache_line() {
        assert!(std::mem::align_of::<WorkerSlot>() >= 64);
        let t = Telemetry::new(0, 4);
        for pair in t.workers.windows(2) {
            let [a, b] = [&pair[0], &pair[1]].map(|w| w as *const WorkerSlot as usize);
            assert_eq!(a % 64, 0, "each slot starts a line");
            assert!(b - a >= 64, "adjacent slots sit {} bytes apart", b - a);
        }
    }

    #[test]
    fn progress_line_formats_rate_and_eta() {
        let line = progress_line(50, 100, 3, 10_000);
        assert_eq!(line, "cells 50/100 (50.0%) | 5.0 cells/s | eta 10s | degraded 3");
        assert!(progress_line(0, 100, 0, 0).contains("eta -"));
        assert!(progress_line(100, 100, 0, 10_000).contains("eta -"));
        assert!(progress_line(0, 0, 0, 5).contains("100.0%"));
    }
}
