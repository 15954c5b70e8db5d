//! Campaign-level wall-clock costs: world boot, one full Table-III
//! campaign, and per-version single-cell costs.

use bench::{attack_world, run_paper_campaign};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hvsim::XenVersion;
use intrusion_core::{Campaign, Mode};
use xsa_exploits::Xsa182Test;

fn bench_world_boot(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign/world_boot");
    for version in XenVersion::ALL {
        group.bench_function(format!("xen_{version}"), |b| {
            b.iter(|| attack_world(version, true))
        });
    }
    group.finish();
}

fn bench_single_cell(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign/single_cell_xsa182");
    group.sample_size(20);
    for version in XenVersion::ALL {
        group.bench_function(format!("injection_xen_{version}"), |b| {
            b.iter_batched(
                || {
                    Campaign::new()
                        .with_use_case(Box::new(Xsa182Test))
                        .versions(&[version])
                        .modes(&[Mode::Injection])
                },
                |campaign| campaign.run_streaming(),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_full_campaign(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign/full_table3");
    group.sample_size(10);
    group.bench_function("24_cells", |b| b.iter(run_paper_campaign));
    group.finish();
}

criterion_group!(benches, bench_world_boot, bench_single_cell, bench_full_campaign);
criterion_main!(benches);
