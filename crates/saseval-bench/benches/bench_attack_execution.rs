//! Benchmarks of executable attack runs (Tables VI/VII) and the nominal
//! simulations they perturb.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use attack_engine::builtin::{ad08_cases, ad20_cases, full_campaign};
use attack_engine::campaign::{run_campaign, run_campaign_parallel};
use attack_engine::executor::execute;
use saseval_obs::Obs;
use saseval_types::SimTime;
use vehicle_sim::construction::{ConstructionConfig, ConstructionWorld};
use vehicle_sim::keyless::{KeylessConfig, KeylessWorld};

fn bench_nominal_worlds(c: &mut Criterion) {
    let mut group = c.benchmark_group("nominal");
    group.sample_size(20);
    group.bench_function("construction_approach", |b| {
        b.iter(|| black_box(ConstructionWorld::new(ConstructionConfig::default()).run_nominal()));
    });
    group.bench_function("keyless_open_close", |b| {
        b.iter(|| {
            let mut world = KeylessWorld::new(KeylessConfig::default());
            world.schedule_owner_open(SimTime::from_secs(1));
            world.schedule_owner_close(SimTime::from_secs(5));
            black_box(world.run_nominal())
        });
    });
    group.finish();
}

fn bench_table_vi(c: &mut Criterion) {
    let cases = ad20_cases();
    let mut group = c.benchmark_group("table_vi_ad20");
    group.sample_size(10);
    for case in &cases {
        group.bench_with_input(BenchmarkId::from_parameter(&case.label), case, |b, case| {
            b.iter(|| black_box(execute(case)));
        });
    }
    group.finish();
}

fn bench_table_vii(c: &mut Criterion) {
    let cases = ad08_cases();
    let mut group = c.benchmark_group("table_vii_ad08");
    group.sample_size(10);
    for case in &cases {
        group.bench_with_input(BenchmarkId::from_parameter(&case.label), case, |b, case| {
            b.iter(|| black_box(execute(case)));
        });
    }
    group.finish();
}

fn bench_campaign(c: &mut Criterion) {
    let cases = full_campaign();
    let mut group = c.benchmark_group("campaign");
    group.sample_size(10);
    group.bench_function("serial", |b| b.iter(|| black_box(run_campaign(&cases))));
    group.bench_function("parallel_4", |b| {
        b.iter(|| black_box(run_campaign_parallel(&cases, 4, &Obs::noop())));
    });
    group.finish();
}

criterion_group!(benches, bench_nominal_worlds, bench_table_vi, bench_table_vii, bench_campaign);
criterion_main!(benches);
