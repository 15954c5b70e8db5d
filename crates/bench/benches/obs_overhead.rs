//! Observability overhead: the full Table-III campaign with tracing and
//! metrics disabled (the default), with a disabled-but-attached tracer,
//! and with both fully enabled. The disabled path must be a no-op — the
//! tracer holds no sink and every attribute closure goes uncalled — so
//! the first two configurations should be statistically identical; the
//! third bounds what `--trace-out` costs.
//!
//! The always-on flight recorder gets its own group: one clean cell's
//! worth of ring pushes at the default capacity against a disabled
//! handle. It is the recorder's whole per-cell cost on a clean cell,
//! which records no audit events.

use bench::paper_campaign;
use criterion::{criterion_group, criterion_main, Criterion};
use hvsim_obs::{FlightHandle, MetricsRegistry, Tracer, DEFAULT_FLIGHT_CAPACITY};
use std::fmt::Write as _;
use std::hint::black_box;

fn bench_obs_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_overhead/full_table3");
    group.sample_size(10);
    group.bench_function("no_obs", |b| b.iter(|| paper_campaign().run()));
    group.bench_function("tracer_disabled", |b| {
        b.iter(|| paper_campaign().tracer(Tracer::disabled()).run())
    });
    group.bench_function("tracer_and_metrics_enabled", |b| {
        b.iter(|| {
            let tracer = Tracer::enabled();
            let report = paper_campaign()
                .tracer(tracer.clone())
                .metrics(MetricsRegistry::new())
                .run();
            // Drain inside the measurement: producing the event stream
            // is part of what "enabled" costs.
            (report, tracer.drain().len())
        })
    });
    group.finish();
}

/// The events a clean, snapshot-cloned cell records into its worker's
/// flight ring, with the same paths and detail shapes the campaign
/// engine writes: start, boot result, inject, monitor, done.
fn record_clean_cell(flight: &FlightHandle, slot: u64) {
    flight.record_with(slot, "cell/start", 0, |d| {
        let _ = write!(d, "XSA-212-crash/4.13/injection trial={slot}");
    });
    flight.record_with(slot, "cell/boot/result", 40, |d| {
        d.push_str("attempts=1 source=snapshot ok=true");
    });
    flight.record_with(slot, "cell/inject", 25, |d| d.push_str("ok=true"));
    flight.record_with(slot, "cell/monitor", 10, |d| d.push_str("ok=true"));
    flight.record_with(slot, "cell/done", 0, |d| {
        d.push_str("erroneous_state=true violations=1 handled=false");
    });
}

fn bench_flight_recorder(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_overhead/flight_clean_cell");
    for (name, flight) in [
        ("recorder_default_capacity", FlightHandle::new(DEFAULT_FLIGHT_CAPACITY)),
        ("recorder_disabled", FlightHandle::disabled()),
    ] {
        let mut slot = 0u64;
        group.bench_function(name, |b| {
            b.iter(|| {
                // Successive slots, like a worker's stream: the ring
                // wraps and recycles its event buffers.
                slot += 1;
                record_clean_cell(black_box(&flight), slot);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_obs_overhead, bench_flight_recorder);
criterion_main!(benches);
