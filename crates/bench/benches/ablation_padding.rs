//! Ablation: padding rules and record-selection strategies for Algorithm 1
//! (DESIGN.md's design-choice ablations; the accuracy sides live in
//! `run_experiments ablations` and the integration tests).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use longsynth::{
    ContinualSynthesizer, FixedWindowConfig, FixedWindowSynthesizer, PaddingPolicy,
    SelectionStrategy,
};
use longsynth_bench::bench_panel;
use longsynth_dp::budget::Rho;
use longsynth_dp::rng::rng_from_seed;

fn run_once(config: FixedWindowConfig, panel: &longsynth_data::LongitudinalDataset) -> usize {
    let mut synth = FixedWindowSynthesizer::new(config, rng_from_seed(17));
    for (_, col) in panel.stream() {
        synth.step(col).unwrap();
    }
    synth.n_star()
}

fn bench_padding(c: &mut Criterion) {
    let panel = bench_panel(10_000, 12);
    let rho = Rho::new(0.005).unwrap();

    let mut group = c.benchmark_group("alg1_by_padding_policy");
    group.sample_size(10);
    for (name, policy) in [
        ("recommended", PaddingPolicy::Recommended { beta: 0.05 }),
        ("heuristic", PaddingPolicy::Heuristic { beta: 0.05 }),
        ("none", PaddingPolicy::None),
    ] {
        group.bench_function(name, |b| {
            let config = FixedWindowConfig::new(12, 3, rho)
                .unwrap()
                .with_padding(policy);
            b.iter_batched(
                || config,
                |config| run_once(config, &panel),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();

    let mut group = c.benchmark_group("alg1_by_selection");
    group.sample_size(10);
    for (name, selection) in [
        ("uniform", SelectionStrategy::Uniform),
        ("stratified", SelectionStrategy::Stratified),
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(name),
            &selection,
            |b, &selection| {
                let config = FixedWindowConfig::new(12, 3, rho)
                    .unwrap()
                    .with_selection(selection);
                b.iter_batched(
                    || config,
                    |config| run_once(config, &panel),
                    BatchSize::SmallInput,
                )
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_padding);
criterion_main!(benches);
