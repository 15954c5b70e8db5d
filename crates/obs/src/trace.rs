//! The trace sink: sharded, lock-poisoning-safe collection of span and
//! point events.
//!
//! Ordering is carried by a **logical sequence clock**, allocated
//! per-[`TraceCtx`] (one context per campaign cell, or per other unit of
//! deterministic work). Wall-clock durations ride along in a separate
//! `wall_us` field that [`TraceEvent::normalized`] zeroes, so a trace
//! sorted by `(shard, seq)` and normalized is byte-identical no matter
//! how many worker threads interleaved while producing it.
//!
//! The disabled path is a no-op: a disabled [`Tracer`] holds no sink,
//! every span/point call takes an early return before any allocation,
//! and attribute closures are never invoked.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Number of independently locked storage shards inside a [`Tracer`].
/// Events are routed by `ctx_shard % STORAGE_SHARDS`, so contexts on
/// different workers rarely contend on the same mutex.
const STORAGE_SHARDS: usize = 16;

/// Recovers a mutex guard even if a holder panicked mid-push. Trace
/// events are append-only `Vec` pushes, so a poisoned shard still holds
/// a consistent prefix of events.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The kind of a trace event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span was entered (`wall_us` is always 0).
    SpanEnter,
    /// A span was exited (`wall_us` is the span's wall-clock duration).
    SpanExit,
    /// An instantaneous event (`wall_us` is caller-supplied, often an
    /// externally measured duration being bridged in).
    Point,
}

impl EventKind {
    /// The stable wire label used in JSONL export.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::SpanEnter => "span_enter",
            EventKind::SpanExit => "span_exit",
            EventKind::Point => "point",
        }
    }

    /// Parses a wire label back into a kind.
    pub fn parse(label: &str) -> Option<Self> {
        match label {
            "span_enter" => Some(EventKind::SpanEnter),
            "span_exit" => Some(EventKind::SpanExit),
            "point" => Some(EventKind::Point),
            _ => None,
        }
    }
}

/// One trace event.
///
/// `(shard, seq)` is the deterministic ordering key: `shard` identifies
/// the logical context (cell index + 1; shard 0 is campaign setup) and
/// `seq` its per-context logical clock. `wall_us` is the only
/// nondeterministic field and is excluded by [`TraceEvent::normalized`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Logical context id (not the storage shard index).
    pub shard: u64,
    /// Per-context logical sequence number, starting at 0.
    pub seq: u64,
    /// Enter / exit / point.
    pub kind: EventKind,
    /// Slash-separated span path, e.g. `"cell/inject"`.
    pub path: String,
    /// Wall-clock microseconds (0 for enters; duration for exits).
    pub wall_us: u64,
    /// Free-form key/value attributes, in insertion order.
    pub attrs: Vec<(String, String)>,
}

impl TraceEvent {
    /// The event with its wall-clock field zeroed; everything that
    /// remains is deterministic for a fixed workload.
    pub fn normalized(&self) -> Self {
        Self { wall_us: 0, ..self.clone() }
    }
}

#[derive(Debug, Default)]
struct Sink {
    shards: Vec<Mutex<Vec<TraceEvent>>>,
}

impl Sink {
    fn new() -> Self {
        Self {
            shards: (0..STORAGE_SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    fn push(&self, event: TraceEvent) {
        let idx = (event.shard as usize) % self.shards.len();
        lock_recover(&self.shards[idx]).push(event);
    }

    fn drain(&self) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        for shard in &self.shards {
            events.append(&mut lock_recover(shard));
        }
        events.sort_by_key(|a| (a.shard, a.seq));
        events
    }
}

/// Handle to a trace sink, or to nothing at all.
///
/// Cloning is cheap (an `Arc` bump); a default-constructed or
/// [`Tracer::disabled`] tracer records nothing and costs one branch per
/// call site.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    inner: Option<Arc<Sink>>,
}

impl Tracer {
    /// A tracer that records events.
    pub fn enabled() -> Self {
        Self { inner: Some(Arc::new(Sink::new())) }
    }

    /// A tracer that drops everything (the default).
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// `true` when events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A logical context feeding this tracer. `shard` is the context's
    /// identity in the trace — give each deterministic unit of work
    /// (campaign cell, setup phase) its own.
    pub fn ctx(&self, shard: u64) -> TraceCtx {
        TraceCtx {
            sink: self.inner.clone(),
            shard,
            seq: self.inner.as_ref().map(|_| Arc::new(AtomicU64::new(0))),
        }
    }

    /// Removes and returns all recorded events, sorted by
    /// `(shard, seq)`. Returns an empty vec on a disabled tracer.
    pub fn drain(&self) -> Vec<TraceEvent> {
        match &self.inner {
            Some(sink) => sink.drain(),
            None => Vec::new(),
        }
    }
}

/// A logical trace context: owns the per-context sequence clock.
///
/// The clock lives here — not in the storage shard — so the numbering
/// of a context's events depends only on the order of its own calls,
/// never on which other contexts happened to share a storage mutex.
/// A disabled context has no clock, so creating one allocates nothing.
#[derive(Clone, Debug)]
pub struct TraceCtx {
    sink: Option<Arc<Sink>>,
    shard: u64,
    seq: Option<Arc<AtomicU64>>,
}

impl TraceCtx {
    /// `true` when this context records events.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// The logical shard id this context stamps on its events.
    pub fn shard(&self) -> u64 {
        self.shard
    }

    fn emit(&self, kind: EventKind, path: String, wall_us: u64, attrs: Vec<(String, String)>) {
        if let (Some(sink), Some(seq)) = (&self.sink, &self.seq) {
            let seq = seq.fetch_add(1, Ordering::Relaxed);
            sink.push(TraceEvent { shard: self.shard, seq, kind, path, wall_us, attrs });
        }
    }

    /// Opens a span. The guard emits `span_enter` now and `span_exit`
    /// (with the measured duration) on drop — including drops during
    /// panic unwinding, so crashed phases still close their spans.
    pub fn span(&self, path: &str) -> Span {
        self.span_with(path, Vec::new)
    }

    /// Opens a span with attributes. The closure runs only when the
    /// context is enabled, so disabled call sites allocate nothing.
    pub fn span_with<F>(&self, path: &str, attrs: F) -> Span
    where
        F: FnOnce() -> Vec<(String, String)>,
    {
        if self.sink.is_none() {
            return Span { ctx: None, path: String::new(), started: None };
        }
        self.emit(EventKind::SpanEnter, path.to_owned(), 0, attrs());
        Span {
            ctx: Some(self.clone()),
            path: path.to_owned(),
            started: Some(Instant::now()),
        }
    }

    /// Emits an instantaneous event. `wall_us` may carry an externally
    /// measured duration (e.g. a bridged boot-stage timing); it is
    /// normalized away like span durations.
    pub fn point<F>(&self, path: &str, wall_us: u64, attrs: F)
    where
        F: FnOnce() -> Vec<(String, String)>,
    {
        if self.sink.is_none() {
            return;
        }
        self.emit(EventKind::Point, path.to_owned(), wall_us, attrs());
    }
}

/// RAII span guard returned by [`TraceCtx::span`].
#[derive(Debug)]
pub struct Span {
    ctx: Option<TraceCtx>,
    path: String,
    started: Option<Instant>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(ctx) = &self.ctx {
            let wall_us = self
                .started
                .map(|s| s.elapsed().as_micros() as u64)
                .unwrap_or(0);
            ctx.emit(EventKind::SpanExit, std::mem::take(&mut self.path), wall_us, Vec::new());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_a_no_op() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        let ctx = tracer.ctx(7);
        assert!(!ctx.is_enabled());
        assert!(ctx.seq.is_none(), "a disabled context allocates no clock");
        let span = ctx.span_with("cell", || panic!("attrs closure must not run"));
        ctx.point("cell/event", 3, || panic!("attrs closure must not run"));
        drop(span);
        assert!(tracer.drain().is_empty());
    }

    #[test]
    fn default_tracer_is_disabled() {
        assert!(!Tracer::default().is_enabled());
    }

    #[test]
    fn spans_nest_and_sequence_per_context() {
        let tracer = Tracer::enabled();
        let ctx = tracer.ctx(1);
        {
            let _outer = ctx.span("cell");
            let _inner = ctx.span_with("cell/boot", || vec![("source".into(), "boot".into())]);
            ctx.point("cell/boot/create dom0", 12, Vec::new);
        }
        let events = tracer.drain();
        let shape: Vec<(u64, EventKind, &str)> =
            events.iter().map(|e| (e.seq, e.kind, e.path.as_str())).collect();
        assert_eq!(
            shape,
            vec![
                (0, EventKind::SpanEnter, "cell"),
                (1, EventKind::SpanEnter, "cell/boot"),
                (2, EventKind::Point, "cell/boot/create dom0"),
                (3, EventKind::SpanExit, "cell/boot"),
                (4, EventKind::SpanExit, "cell"),
            ]
        );
        assert_eq!(events[1].attrs, vec![("source".to_owned(), "boot".to_owned())]);
        assert_eq!(events[2].wall_us, 12);
        // Drain clears.
        assert!(tracer.drain().is_empty());
    }

    #[test]
    fn drain_orders_by_shard_then_seq() {
        let tracer = Tracer::enabled();
        // Interleave contexts whose shards collide modulo the storage
        // shard count, so storage order differs from logical order.
        let a = tracer.ctx(2);
        let b = tracer.ctx(2 + STORAGE_SHARDS as u64);
        b.point("b0", 0, Vec::new);
        a.point("a0", 0, Vec::new);
        b.point("b1", 0, Vec::new);
        a.point("a1", 0, Vec::new);
        let events = tracer.drain();
        let keys: Vec<(u64, u64, &str)> =
            events.iter().map(|e| (e.shard, e.seq, e.path.as_str())).collect();
        assert_eq!(
            keys,
            vec![
                (2, 0, "a0"),
                (2, 1, "a1"),
                (2 + STORAGE_SHARDS as u64, 0, "b0"),
                (2 + STORAGE_SHARDS as u64, 1, "b1"),
            ]
        );
    }

    #[test]
    fn span_exit_fires_during_unwind() {
        let tracer = Tracer::enabled();
        let ctx = tracer.ctx(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _span = ctx.span("cell/inject");
            panic!("injected crash");
        }));
        assert!(result.is_err());
        let events = tracer.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].kind, EventKind::SpanExit);
        assert_eq!(events[1].path, "cell/inject");
    }

    #[test]
    fn normalization_zeroes_wall_clock_only() {
        let e = TraceEvent {
            shard: 3,
            seq: 9,
            kind: EventKind::SpanExit,
            path: "cell".into(),
            wall_us: 1234,
            attrs: vec![("k".into(), "v".into())],
        };
        let n = e.normalized();
        assert_eq!(n.wall_us, 0);
        assert_eq!((n.shard, n.seq, n.kind, n.path.as_str()), (3, 9, EventKind::SpanExit, "cell"));
        assert_eq!(n.attrs, e.attrs);
    }

    #[test]
    fn poisoned_shard_still_drains() {
        let tracer = Tracer::enabled();
        let ctx = tracer.ctx(0);
        ctx.point("before", 0, Vec::new);
        // Poison a storage shard by panicking while holding its lock.
        let sink = tracer.inner.as_ref().map(Arc::clone);
        let sink = match sink {
            Some(s) => s,
            None => unreachable!("enabled tracer has a sink"),
        };
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = sink.shards[0].lock();
            panic!("poison");
        }));
        ctx.point("after", 0, Vec::new);
        let events = tracer.drain();
        assert_eq!(events.len(), 2);
    }
}
