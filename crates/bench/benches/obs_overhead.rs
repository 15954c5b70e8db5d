//! Observability overhead: the full Table-III campaign with tracing and
//! metrics disabled (the default), with a disabled-but-attached tracer,
//! and with both fully enabled. The disabled path must be a no-op — the
//! tracer holds no sink and every attribute closure goes uncalled — so
//! the first two configurations should be statistically identical; the
//! third bounds what `--trace-out` costs.

use bench::paper_campaign;
use criterion::{criterion_group, criterion_main, Criterion};
use hvsim_obs::{MetricsRegistry, Tracer};

fn bench_obs_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_overhead/full_table3");
    group.sample_size(10);
    group.bench_function("no_obs", |b| b.iter(|| paper_campaign().run_streaming()));
    group.bench_function("tracer_disabled", |b| {
        b.iter(|| paper_campaign().tracer(Tracer::disabled()).run_streaming())
    });
    group.bench_function("tracer_and_metrics_enabled", |b| {
        b.iter(|| {
            let tracer = Tracer::enabled();
            let report = paper_campaign()
                .tracer(tracer.clone())
                .metrics(MetricsRegistry::new())
                .run_streaming();
            // Drain inside the measurement: producing the event stream
            // is part of what "enabled" costs.
            (report, tracer.drain().len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
