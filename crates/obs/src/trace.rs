//! The trace sink: span and point events, kept by the context that
//! emits them.
//!
//! Ordering is carried by a **logical sequence number**: each
//! [`TraceCtx`] (one per campaign cell, or per other unit of
//! deterministic work) numbers its own events from 0. Wall-clock
//! durations ride along in a separate `wall_us` field that
//! [`TraceEvent::normalized`] zeroes, so a trace sorted by
//! `(shard, seq)` and normalized is byte-identical no matter how many
//! worker threads interleaved while producing it.
//!
//! A context keeps its events without a lock and hands them to its
//! [`Tracer`] in one push when it is dropped, so [`Tracer::drain`]
//! returns the events of the contexts that have ended.
//!
//! The disabled path is a no-op: a disabled [`Tracer`] holds no sink,
//! every span/point call takes an early return before any allocation,
//! and attribute closures are never invoked.

use crate::lock_recover;
use std::cell::RefCell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

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
    /// Logical context id.
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

/// The events of every context that has ended.
type Sink = Mutex<Vec<TraceEvent>>;

/// Handle to a trace sink, or to nothing at all.
///
/// Cloning is cheap (an `Arc` bump); a default-constructed or
/// [`Tracer::disabled`] tracer records nothing and costs one branch per
/// call site.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    sink: Option<Arc<Sink>>,
}

impl Tracer {
    /// A tracer that records events.
    pub fn enabled() -> Self {
        Self { sink: Some(Arc::default()) }
    }

    /// A tracer that drops everything (the default).
    pub fn disabled() -> Self {
        Self { sink: None }
    }

    /// `true` when events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// A logical context feeding this tracer. `shard` is the context's
    /// identity in the trace — give each deterministic unit of work
    /// (campaign cell, setup phase) its own.
    pub fn ctx(&self, shard: u64) -> TraceCtx {
        TraceCtx { sink: self.sink.clone(), shard, events: RefCell::default() }
    }

    /// Removes and returns the events of every context dropped so far,
    /// sorted by `(shard, seq)`. Returns an empty vec on a disabled
    /// tracer.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let Some(sink) = &self.sink else { return Vec::new() };
        let mut events = std::mem::take(&mut *lock_recover(sink));
        events.sort_by_key(|e| (e.shard, e.seq));
        events
    }
}

/// A logical trace context: numbers and keeps its own events, and
/// hands them to the tracer when dropped.
///
/// The numbering of a context's events depends only on the order of
/// its own calls, never on other contexts. A disabled context keeps an
/// empty list, so creating one allocates nothing.
#[derive(Debug)]
pub struct TraceCtx {
    sink: Option<Arc<Sink>>,
    shard: u64,
    events: RefCell<Vec<TraceEvent>>,
}

impl TraceCtx {
    /// `true` when this context records events.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    fn emit(&self, kind: EventKind, path: &str, wall_us: u64, attrs: Vec<(String, String)>) {
        let mut events = self.events.borrow_mut();
        let seq = events.len() as u64;
        let (shard, path) = (self.shard, path.to_owned());
        events.push(TraceEvent { shard, seq, kind, path, wall_us, attrs });
    }

    /// Opens a span. The guard emits `span_enter` now and `span_exit`
    /// (with the measured duration) on drop — including drops during
    /// panic unwinding, so crashed phases still close their spans.
    pub fn span<'a>(&'a self, path: &'a str) -> Span<'a> {
        self.span_with(path, Vec::new)
    }

    /// Opens a span with attributes. The closure runs only when the
    /// context is enabled, so disabled call sites allocate nothing.
    pub fn span_with<'a, F>(&'a self, path: &'a str, attrs: F) -> Span<'a>
    where
        F: FnOnce() -> Vec<(String, String)>,
    {
        let started = self.is_enabled().then(|| {
            self.emit(EventKind::SpanEnter, path, 0, attrs());
            Instant::now()
        });
        Span { ctx: self, path, started }
    }

    /// Emits an instantaneous event. `wall_us` may carry an externally
    /// measured duration (e.g. a bridged boot-stage timing); it is
    /// normalized away like span durations.
    pub fn point<F>(&self, path: &str, wall_us: u64, attrs: F)
    where
        F: FnOnce() -> Vec<(String, String)>,
    {
        if self.is_enabled() {
            self.emit(EventKind::Point, path, wall_us, attrs());
        }
    }
}

impl Drop for TraceCtx {
    fn drop(&mut self) {
        if let Some(sink) = &self.sink {
            lock_recover(sink).append(self.events.get_mut());
        }
    }
}

/// RAII span guard returned by [`TraceCtx::span`].
#[derive(Debug)]
pub struct Span<'a> {
    ctx: &'a TraceCtx,
    path: &'a str,
    /// When the span was entered; `None` on a disabled context.
    started: Option<Instant>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(started) = self.started {
            let wall_us = started.elapsed().as_micros() as u64;
            self.ctx.emit(EventKind::SpanExit, self.path, wall_us, Vec::new());
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
        let span = ctx.span_with("cell", || panic!("attrs closure must not run"));
        ctx.point("cell/event", 3, || panic!("attrs closure must not run"));
        drop(span);
        assert_eq!(ctx.events.borrow().capacity(), 0, "a disabled context allocates nothing");
        drop(ctx);
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
        drop(ctx);
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
    fn a_contexts_events_reach_the_tracer_when_it_is_dropped() {
        let tracer = Tracer::enabled();
        let ctx = tracer.ctx(1);
        ctx.point("cell", 0, Vec::new);
        assert!(tracer.drain().is_empty(), "a live context keeps its events");
        drop(ctx);
        assert_eq!(tracer.drain().len(), 1);
    }

    #[test]
    fn drain_orders_by_shard_then_seq() {
        let tracer = Tracer::enabled();
        // Interleave two contexts and drop the later shard first, so
        // the sink receives them out of logical order.
        let a = tracer.ctx(2);
        let b = tracer.ctx(18);
        b.point("b0", 0, Vec::new);
        a.point("a0", 0, Vec::new);
        b.point("b1", 0, Vec::new);
        a.point("a1", 0, Vec::new);
        drop(b);
        drop(a);
        let events = tracer.drain();
        let keys: Vec<(u64, u64, &str)> =
            events.iter().map(|e| (e.shard, e.seq, e.path.as_str())).collect();
        assert_eq!(keys, vec![(2, 0, "a0"), (2, 1, "a1"), (18, 0, "b0"), (18, 1, "b1")]);
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
        drop(ctx);
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
    fn poisoned_sink_still_drains() {
        let tracer = Tracer::enabled();
        let ctx = tracer.ctx(0);
        ctx.point("before", 0, Vec::new);
        drop(ctx);
        // Poison the sink by panicking while holding its lock.
        let sink = tracer.sink.clone().expect("enabled tracer has a sink");
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = sink.lock();
            panic!("poison");
        }));
        let ctx = tracer.ctx(1);
        ctx.point("after", 0, Vec::new);
        drop(ctx);
        let events = tracer.drain();
        assert_eq!(events.len(), 2);
    }
}
