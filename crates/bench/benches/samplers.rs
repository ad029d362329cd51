//! Microbenches: the exact samplers at the bottom of the stack. Every
//! histogram bin and tree node pays one discrete Gaussian draw per release,
//! so draw throughput bounds the whole system's step latency.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use longsynth_dp::bernoulli::sample_bernoulli_exp_neg;
use longsynth_dp::discrete_gaussian::sample_discrete_gaussian;
use longsynth_dp::geometric::sample_discrete_laplace_int;
use longsynth_dp::rng::rng_from_seed;
use longsynth_dp::DiscreteGaussianSampler;
use std::hint::black_box;

fn bench_samplers(c: &mut Criterion) {
    let mut group = c.benchmark_group("discrete_gaussian");
    for sigma2 in [1.0f64, 100.0, 1_000.0, 100_000.0] {
        group.bench_with_input(
            BenchmarkId::from_parameter(sigma2),
            &sigma2,
            |b, &sigma2| {
                let mut rng = rng_from_seed(1);
                b.iter(|| sample_discrete_gaussian(&mut rng, black_box(sigma2)))
            },
        );
    }
    group.finish();

    // The batched-fill comparison the perf campaign tracks: seed-style
    // scalar loop (constants re-derived per draw) vs reused sampler vs the
    // pooled `fill` path. Same distribution, ≥2x throughput expected for
    // fill (see BENCH_samplers.json for the committed trajectory).
    const BATCH: usize = 1024;
    let mut group = c.benchmark_group("discrete_gaussian_batched");
    group.throughput(criterion::Throughput::Elements(BATCH as u64));
    for sigma2 in [1.0f64, 100.0, 100_000.0] {
        group.bench_with_input(
            BenchmarkId::new("scalar_loop", sigma2),
            &sigma2,
            |b, &sigma2| {
                let mut rng = rng_from_seed(21);
                b.iter(|| {
                    let mut acc = 0i64;
                    for _ in 0..BATCH {
                        acc =
                            acc.wrapping_add(sample_discrete_gaussian(&mut rng, black_box(sigma2)));
                    }
                    acc
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("sampler_loop", sigma2),
            &sigma2,
            |b, &sigma2| {
                let sampler = DiscreteGaussianSampler::new(sigma2);
                let mut rng = rng_from_seed(21);
                b.iter(|| {
                    let mut acc = 0i64;
                    for _ in 0..BATCH {
                        acc = acc.wrapping_add(sampler.sample(&mut rng));
                    }
                    acc
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("sampler_fill", sigma2),
            &sigma2,
            |b, &sigma2| {
                let sampler = DiscreteGaussianSampler::new(sigma2);
                let mut rng = rng_from_seed(21);
                let mut buf = vec![0i64; BATCH];
                b.iter(|| {
                    sampler.fill(&mut rng, &mut buf);
                    black_box(buf[BATCH - 1])
                })
            },
        );
    }
    group.finish();

    let mut group = c.benchmark_group("discrete_laplace");
    group.bench_function("int_scale_10", |b| {
        let mut rng = rng_from_seed(2);
        b.iter(|| sample_discrete_laplace_int(&mut rng, black_box(10)))
    });
    group.finish();

    let mut group = c.benchmark_group("bernoulli_exp");
    for gamma in [0.1f64, 1.0, 5.0] {
        group.bench_with_input(BenchmarkId::from_parameter(gamma), &gamma, |b, &gamma| {
            let mut rng = rng_from_seed(4);
            b.iter(|| sample_bernoulli_exp_neg(&mut rng, black_box(gamma)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_samplers);
criterion_main!(benches);
