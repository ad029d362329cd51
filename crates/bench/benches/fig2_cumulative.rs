//! Bench: regenerate Figure 2 (SIPP ≥3-months poverty, cumulative,
//! ρ = 0.005) — Algorithm 2 at paper scale.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use longsynth::{ContinualSynthesizer, CumulativeConfig, CumulativeSynthesizer};
use longsynth_bench::{bench_panel, BENCH_REPS};
use longsynth_dp::budget::Rho;
use longsynth_dp::rng::{rng_from_seed, RngFork};
use longsynth_experiments::figures::fig2;

fn bench_fig2(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig2_cumulative");
    group.sample_size(10);

    let panel = bench_panel(23_374, 12);
    group.bench_function("single_run_n23374", |b| {
        b.iter_batched(
            || {
                let config = CumulativeConfig::new(12, Rho::new(fig2::RHO).unwrap()).unwrap();
                CumulativeSynthesizer::new(config, RngFork::new(3), rng_from_seed(4))
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

    group.bench_function("experiment_reps5", |b| {
        b.iter(|| fig2::run(&panel, fig2::RHO, fig2::THRESHOLD_B, BENCH_REPS, 5))
    });
    group.finish();
}

criterion_group!(benches, bench_fig2);
criterion_main!(benches);
