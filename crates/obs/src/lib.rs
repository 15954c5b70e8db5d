//! **hvsim-obs** — deterministic structured tracing and metrics for the
//! intrusion-injection pipeline.
//!
//! The assessment campaign deliberately runs the same workload at any
//! `--jobs` count and demands byte-identical reports, so this crate
//! splits every record into:
//!
//! * a **logical part** — span paths, per-context sequence numbers,
//!   attributes, counter values, histogram *counts* — identical for a
//!   fixed workload regardless of scheduling, and
//! * a **wall-clock part** — span durations, histogram quantiles —
//!   carried in dedicated fields that `normalized()` zeroes before any
//!   determinism comparison.
//!
//! The pieces:
//!
//! * [`Tracer`] / [`TraceCtx`] / [`Span`] — a trace sink whose contexts
//!   keep their own events and hand them over when dropped, with RAII
//!   span guards ([`trace`]),
//! * [`MetricsRegistry`] — named counters and fixed-bucket latency
//!   histograms snapshotted into reports ([`metrics`]),
//! * [`jsonl`] — the stable-field-order JSONL wire format plus the
//!   strict line validator behind `trace validate`,
//! * [`TraceSummary`] — flamegraph-style self-time aggregation and the
//!   top-N slowest-cells table behind `trace summary` ([`summary`]),
//! * [`MetricsTimeline`] — wall-clock time series of live pipeline
//!   state, sampled every 200 ms ([`metrics`]).
//!
//! A disabled [`Tracer`] is a true no-op: one branch per call site, no
//! allocation, attribute closures never run.
//!
//! # Example
//!
//! ```
//! use hvsim_obs::{jsonl, Tracer, TraceSummary};
//!
//! let tracer = Tracer::enabled();
//! let ctx = tracer.ctx(1);
//! {
//!     let _cell = ctx.span_with("cell", || vec![("use_case".into(), "demo".into())]);
//!     let _boot = ctx.span("cell/boot");
//! }
//! // A context's events reach the tracer when the context is dropped.
//! drop(ctx);
//! let events = tracer.drain();
//! let text = jsonl::to_jsonl(&events);
//! let back = jsonl::parse_jsonl(&text).unwrap();
//! let profile = TraceSummary::compute(&back);
//! assert_eq!(profile.slowest_cells.len(), 1);
//! ```

// Observability must never take the harness down: library paths return
// errors or recover poisoned locks instead of panicking. Tests keep
// their unwraps.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod jsonl;
pub mod metrics;
pub mod summary;
pub mod trace;

pub use jsonl::{encode_event, normalized_jsonl, parse_jsonl, parse_line, to_jsonl, ParseError};
pub use metrics::{
    CounterSnapshot, Histogram, HistogramSnapshot, HistogramSummary, MetricsRegistry,
    MetricsSnapshot, MetricsTimeline, TimelineSample,
};
pub use summary::{CellTiming, SummaryRow, TraceSummary};
pub use trace::{EventKind, Span, TraceCtx, TraceEvent, Tracer};

use std::sync::{Mutex, MutexGuard};

/// Locks `mutex` even if a holder panicked: observability must not take
/// the harness down, and the event lists, counters and samples guarded
/// here stay usable after an interrupted update.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
