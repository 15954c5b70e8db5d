//! Checkpoint-journal overhead on the streaming hot path: the same
//! synthetic grid with journaling off and on (a durable fsync'd fold
//! record every 1024 slots per worker). The `perf` benchmark's
//! `synthetic_checkpoint` workload and `core.checkpoint_us_per_cell`
//! metric judge this cost end to end; this bench exists to localize a
//! regression they report.

use bench::synthetic_campaign;
use criterion::{criterion_group, criterion_main, Criterion};

/// 3 versions × 400 trials = 1,200 cells per iteration.
const TRIALS: u64 = 400;
const SEED: u64 = 0xD5_2023;

fn bench_checkpoint_overhead(c: &mut Criterion) {
    let journal = std::env::temp_dir().join(format!("hvsim-bench-{}.journal", std::process::id()));
    let mut group = c.benchmark_group("checkpoint_overhead/1200_cells");
    group.sample_size(10);
    group.bench_function("no_journal_jobs4", |b| {
        b.iter(|| synthetic_campaign(SEED, TRIALS).jobs(4).run_streaming())
    });
    group.bench_function("journal_jobs4", |b| {
        b.iter(|| {
            synthetic_campaign(SEED, TRIALS)
                .jobs(4)
                .run_streaming_checkpointed(&journal)
                .expect("journal opens in temp dir")
        })
    });
    group.finish();
    std::fs::remove_file(&journal).ok();
}

criterion_group!(benches, bench_checkpoint_overhead);
criterion_main!(benches);
