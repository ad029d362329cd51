//! Ablation: Algorithm 2's runtime across stream-counter families and
//! budget splits (§1.1 invites swapping counters; accuracy ablations are in
//! `run_experiments ablations`), plus raw counter throughput.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use longsynth::{BudgetSplit, ContinualSynthesizer, CumulativeConfig, CumulativeSynthesizer};
use longsynth_bench::bench_panel;
use longsynth_counters::CounterKind;
use longsynth_dp::budget::Rho;
use longsynth_dp::rng::{rng_from_seed, RngFork};

fn bench_counter_kinds(c: &mut Criterion) {
    let mut group = c.benchmark_group("alg2_by_counter");
    group.sample_size(10);
    let panel = bench_panel(10_000, 12);
    for kind in CounterKind::all() {
        group.bench_with_input(BenchmarkId::from_parameter(kind), &kind, |b, &kind| {
            b.iter_batched(
                || {
                    let config = CumulativeConfig::new(12, Rho::new(0.005).unwrap())
                        .unwrap()
                        .with_counter(kind);
                    CumulativeSynthesizer::new(config, RngFork::new(12), rng_from_seed(13))
                },
                |mut synth| {
                    for (_, col) in panel.stream() {
                        synth.step(col).unwrap();
                    }
                    synth.estimate_fraction(11, 3).unwrap()
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();

    let mut group = c.benchmark_group("alg2_by_split");
    group.sample_size(10);
    for (name, split) in [
        ("uniform", BudgetSplit::Uniform),
        ("corollary_b1", BudgetSplit::CorollaryB1),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let config = CumulativeConfig::new(12, Rho::new(0.005).unwrap())
                        .unwrap()
                        .with_split(split);
                    CumulativeSynthesizer::new(config, RngFork::new(14), rng_from_seed(15))
                },
                |mut synth| {
                    for (_, col) in panel.stream() {
                        synth.step(col).unwrap();
                    }
                    synth.round()
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();

    // Raw counter throughput over a long stream.
    let mut group = c.benchmark_group("counter_feed_throughput_t4096");
    for kind in CounterKind::all() {
        group.bench_with_input(BenchmarkId::from_parameter(kind), &kind, |b, &kind| {
            b.iter_batched(
                || kind.build(4096, Rho::new(0.5).unwrap(), rng_from_seed(16)),
                |mut counter| {
                    let mut acc = 0i64;
                    for t in 0..4096u64 {
                        acc ^= counter.feed(t % 3);
                    }
                    acc
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_counter_kinds);
criterion_main!(benches);
