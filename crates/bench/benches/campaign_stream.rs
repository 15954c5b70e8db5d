//! Streaming-pipeline throughput: the classic collect-everything engine
//! against the bounded-memory streaming runner on a synthetic grid.
//! Reports are byte-identical across engines (see the streaming tests),
//! so this measures pure pipeline overhead. The `perf` benchmark's
//! `synthetic_stream` workload measures the same grid end to end.

use bench::synthetic_campaign;
use criterion::{criterion_group, criterion_main, Criterion};

/// 3 versions × 400 trials = 1,200 cells per iteration — big enough to
/// amortize base-world boots, small enough for criterion's sample count.
const TRIALS: u64 = 400;
const SEED: u64 = 0xD5_2023;

fn bench_stream_vs_classic(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign_stream/1200_cells");
    group.sample_size(10);
    group.bench_function("classic_collect_jobs4", |b| {
        b.iter(|| synthetic_campaign(SEED, TRIALS).run_with_jobs(4))
    });
    group.bench_function("streaming_jobs4", |b| {
        b.iter(|| synthetic_campaign(SEED, TRIALS).run_streaming_with_jobs(4))
    });
    group.bench_function("streaming_jobs1", |b| {
        b.iter(|| synthetic_campaign(SEED, TRIALS).run_streaming_with_jobs(1))
    });
    group.finish();
}

criterion_group!(benches, bench_stream_vs_classic);
criterion_main!(benches);
