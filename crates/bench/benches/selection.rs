//! Selector-layer benchmarks (Sec. 4.2).
//!
//! The Selector is the hot edge of the system — every device check-in,
//! accepted or rejected, passes through it. These benchmarks price the
//! check-in decision (including the pace-steering suggestion on the
//! rejection path) and the reservoir-sampled forwarding.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fl_core::{DeviceId, PopulationName};
use fl_ml::rng;
use fl_server::pace::PaceSteering;
use fl_server::selector::Selector;
use std::hint::black_box;

fn bench_checkin_throughput(c: &mut Criterion) {
    let pop = PopulationName::new("bench/pop");
    let mut group = c.benchmark_group("checkin");
    group.throughput(Throughput::Elements(10_000));
    // Mostly-rejecting selector (quota far below arrivals) — the common
    // large-population case where pace steering runs per rejection.
    group.bench_function("10k_mostly_rejected", |b| {
        b.iter(|| {
            let mut s = Selector::new(PaceSteering::new(60_000, 130), 1_000_000, 1);
            s.set_population_quota(pop.clone(), 130);
            for i in 0..10_000u64 {
                black_box(s.on_checkin_for(&pop, DeviceId(i), i, 1.0));
            }
            s.counters_for(&pop)
        });
    });
    group.bench_function("10k_all_accepted", |b| {
        b.iter(|| {
            let mut s = Selector::new(PaceSteering::new(60_000, 130), 1_000_000, 1);
            s.set_population_quota(pop.clone(), 10_000);
            for i in 0..10_000u64 {
                black_box(s.on_checkin_for(&pop, DeviceId(i), i, 1.0));
            }
            s.counters_for(&pop)
        });
    });
    group.finish();
}

fn bench_forwarding(c: &mut Criterion) {
    let pop = PopulationName::new("bench/pop");
    let mut group = c.benchmark_group("forward");
    for pool in [1_000usize, 10_000] {
        group.bench_with_input(BenchmarkId::new("sample_130_of", pool), &pool, |b, &pool| {
            // The vendored criterion has no `iter_with_setup`; fold the
            // setup into the timed closure — fill cost dwarfs the drain
            // equally across pool sizes, so the comparison stands.
            b.iter(|| {
                let mut s = Selector::new(PaceSteering::new(60_000, 130), 1_000_000, 1);
                s.set_population_quota(pop.clone(), pool);
                for i in 0..pool as u64 {
                    s.on_checkin_for(&pop, DeviceId(i), 0, 1.0);
                }
                black_box(s.forward_devices_for(&pop, 130, 0))
            });
        });
    }
    group.finish();
}

fn bench_reservoir(c: &mut Criterion) {
    let mut group = c.benchmark_group("reservoir_sample");
    for n in [10_000usize, 100_000] {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut r = rng::seeded(1);
            b.iter(|| black_box(rng::reservoir_sample(&mut r, n, 130)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_checkin_throughput, bench_forwarding, bench_reservoir);
criterion_main!(benches);
