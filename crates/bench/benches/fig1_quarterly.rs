//! Bench: regenerate Figure 1 (SIPP quarterly poverty, synthetic-data
//! answers, ρ = 0.005) — the full single-run synthesis at paper scale and
//! the repeated-experiment harness at reduced reps.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use longsynth::{ContinualSynthesizer, FixedWindowConfig, FixedWindowSynthesizer};
use longsynth_bench::{bench_panel, BENCH_REPS};
use longsynth_dp::budget::Rho;
use longsynth_dp::rng::rng_from_seed;
use longsynth_experiments::figures::fig1;

fn bench_fig1(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig1_quarterly");
    group.sample_size(10);

    // One full synthesis pass at the paper's n = 23 374.
    let panel = bench_panel(23_374, 12);
    group.bench_function("single_run_n23374", |b| {
        b.iter_batched(
            || {
                let config = FixedWindowConfig::new(12, 3, Rho::new(fig1::RHO).unwrap()).unwrap();
                FixedWindowSynthesizer::new(config, rng_from_seed(1))
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

    // The experiment harness end to end (reduced reps).
    group.bench_function("experiment_reps5", |b| {
        b.iter(|| fig1::run(&panel, BENCH_REPS, 2))
    });
    group.finish();
}

criterion_group!(benches, bench_fig1);
criterion_main!(benches);
