//! Scaling benches: synthesizer cost as a function of population size `n`,
//! window width `k`, and horizon `T` — the knobs a deployment would turn.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use longsynth::{
    ContinualSynthesizer, CumulativeConfig, CumulativeSynthesizer, FixedWindowConfig,
    FixedWindowSynthesizer,
};
use longsynth_bench::bench_panel;
use longsynth_dp::budget::Rho;
use longsynth_dp::rng::{rng_from_seed, RngFork};

fn bench_scaling_n(c: &mut Criterion) {
    let mut group = c.benchmark_group("alg1_scaling_n");
    group.sample_size(10);
    for n in [1_000usize, 10_000, 100_000] {
        let panel = bench_panel(n, 12);
        group.throughput(Throughput::Elements(n as u64 * 12));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter_batched(
                || {
                    let config = FixedWindowConfig::new(12, 3, Rho::new(0.005).unwrap()).unwrap();
                    FixedWindowSynthesizer::new(config, rng_from_seed(18))
                },
                |mut synth| {
                    for (_, col) in panel.stream() {
                        synth.step(col).unwrap();
                    }
                    synth.n_star()
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_scaling_k(c: &mut Criterion) {
    let mut group = c.benchmark_group("alg1_scaling_k");
    group.sample_size(10);
    let panel = bench_panel(10_000, 16);
    for k in [1usize, 3, 6, 10] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter_batched(
                || {
                    let config = FixedWindowConfig::new(16, k, Rho::new(0.005).unwrap()).unwrap();
                    FixedWindowSynthesizer::new(config, rng_from_seed(19))
                },
                |mut synth| {
                    for (_, col) in panel.stream() {
                        synth.step(col).unwrap();
                    }
                    synth.n_star()
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_scaling_horizon(c: &mut Criterion) {
    let mut group = c.benchmark_group("alg2_scaling_horizon");
    group.sample_size(10);
    for horizon in [12usize, 48, 96] {
        let panel = bench_panel(5_000, horizon);
        group.bench_with_input(
            BenchmarkId::from_parameter(horizon),
            &horizon,
            |b, &horizon| {
                b.iter_batched(
                    || {
                        let config =
                            CumulativeConfig::new(horizon, Rho::new(0.01).unwrap()).unwrap();
                        CumulativeSynthesizer::new(config, RngFork::new(20), rng_from_seed(21))
                    },
                    |mut synth| {
                        for (_, col) in panel.stream() {
                            synth.step(col).unwrap();
                        }
                        synth.round()
                    },
                    BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_scaling_n,
    bench_scaling_k,
    bench_scaling_horizon
);
criterion_main!(benches);
