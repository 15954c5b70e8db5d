//! The parallel-engine speedup story: the full Table-III campaign run
//! the way the paper did it (boot a fresh world per cell, one cell at a
//! time) against snapshot reuse and the multi-worker engine. All three
//! configurations produce byte-identical normalized reports — see the
//! determinism tests — so this measures pure overhead.

use bench::paper_campaign;
use criterion::{criterion_group, criterion_main, Criterion};
use intrusion_core::default_jobs;

fn bench_engine_configurations(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign_parallel/full_table3");
    group.sample_size(10);
    group.bench_function("boot_per_cell_serial", |b| {
        b.iter(|| paper_campaign().reuse_snapshots(false).jobs(1).run_streaming())
    });
    group.bench_function("snapshot_reuse_serial", |b| {
        b.iter(|| paper_campaign().jobs(1).run_streaming())
    });
    group.bench_function(format!("snapshot_reuse_{}_workers", default_jobs()), |b| {
        b.iter(|| paper_campaign().run_streaming())
    });
    group.finish();
}

criterion_group!(benches, bench_engine_configurations);
criterion_main!(benches);
