//! Bench: population-query accuracy per aggregation policy.
//!
//! For shards ∈ {1, 2, 4, 8}, runs the paper-parameter fixed-window
//! release (T = 12, k = 3, ρ = 0.005) under both aggregation policies and
//! reports the **mean absolute error of population-level window queries**
//! (quarterly battery, debiased estimates vs the true panel) relative to
//! the 1-shard baseline — the accuracy side of the sharding trade that
//! `engine_scaling` measures the latency side of.
//!
//! Expected shape (and what the `aggregation_policies` statistical test
//! asserts at 4 shards): per-shard noise degrades like `√shards` (~2× at
//! 4 shards), shared noise stays flat at `√(1/population_share) ≈ 1.12×`
//! regardless of shard count. The table prints on stderr; criterion times
//! the 4-shard engine runs.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use longsynth::{FixedWindowConfig, FixedWindowSynthesizer};
use longsynth_bench::bench_panel;
use longsynth_data::LongitudinalDataset;
use longsynth_dp::budget::Rho;
use longsynth_dp::rng::RngFork;
use longsynth_engine::{AggregationPolicy, PanelSchedule, ShardedEngine, SlotRole};
use longsynth_queries::window::quarterly_battery;
use longsynth_queries::{AccuracyComparison, ErrorSummary};

const HORIZON: usize = 12;
const WINDOW: usize = 3;
const RHO: f64 = 0.005;
const POPULATION: usize = 40_000;

fn build_engine(
    panel_n: usize,
    shards: usize,
    policy: AggregationPolicy,
    seed: u64,
) -> ShardedEngine<FixedWindowSynthesizer> {
    let (cohort_share, _) = policy.budget_shares(shards);
    let schedule = PanelSchedule::uniform(
        panel_n,
        shards,
        HORIZON,
        Rho::new(RHO * cohort_share).expect("positive share"),
        Rho::new(RHO).expect("positive budget"),
    )
    .expect("valid schedule");
    let fork = RngFork::new(seed);
    ShardedEngine::with_schedule(schedule, policy, |slot| {
        let config = FixedWindowConfig::new(HORIZON, WINDOW, slot.budget).expect("valid config");
        let stream = match slot.role {
            SlotRole::Shard(s) => s as u64,
            SlotRole::Population => 0xA110,
        };
        FixedWindowSynthesizer::new(config, fork.child(stream))
    })
    .expect("uniform shards")
}

/// Run one engine to the horizon and summarise population-level debiased
/// estimates against the true panel over the quarterly battery.
fn population_error(
    panel: &LongitudinalDataset,
    shards: usize,
    policy: AggregationPolicy,
    seed: u64,
) -> ErrorSummary {
    let mut engine = build_engine(panel.individuals(), shards, policy, seed);
    for (_, column) in panel.stream() {
        engine.step(column).expect("in-horizon step");
    }
    let n = panel.individuals() as f64;
    let mut estimates = Vec::new();
    let mut truths = Vec::new();
    for t in (WINDOW - 1)..HORIZON {
        for query in quarterly_battery(WINDOW) {
            let estimate = match engine.population_synthesizer() {
                Some(population) => population.estimate_debiased(t, &query).unwrap(),
                None => {
                    (0..shards)
                        .map(|s| {
                            engine.shard(s).estimate_debiased(t, &query).unwrap()
                                * engine.plan().cohort_size(s) as f64
                        })
                        .sum::<f64>()
                        / n
                }
            };
            estimates.push(estimate);
            truths.push(query.evaluate_true(panel, t));
        }
    }
    ErrorSummary::from_pairs(&estimates, &truths)
}

fn bench_aggregation_accuracy(c: &mut Criterion) {
    let panel = bench_panel(POPULATION, HORIZON);

    // Accuracy table (computed once, outside criterion timing): MAE per
    // policy and shard count, relative to the 1-shard baseline.
    let baseline = population_error(&panel, 1, AggregationPolicy::PerShardNoise, 0xACC);
    let mut comparison = AccuracyComparison::against("1 shard (baseline)", baseline);
    for shards in [2usize, 4, 8] {
        comparison.add(
            format!("per-shard, {shards} shards"),
            population_error(&panel, shards, AggregationPolicy::PerShardNoise, 0xACC),
        );
        comparison.add(
            format!("shared,    {shards} shards"),
            population_error(&panel, shards, AggregationPolicy::shared(), 0xACC),
        );
    }
    eprintln!(
        "aggregation_accuracy: population window-query MAE \
         (n = {POPULATION}, T = {HORIZON}, k = {WINDOW}, rho = {RHO}):\n{comparison}"
    );

    // Timed side: the full 12-round engine run per policy at 4 shards —
    // what the shared-noise population finalize costs over plain merging.
    let mut group = c.benchmark_group("aggregation_accuracy");
    group.sample_size(10);
    for (label, policy) in [
        ("per-shard", AggregationPolicy::PerShardNoise),
        ("shared", AggregationPolicy::shared()),
    ] {
        group.bench_with_input(
            BenchmarkId::new("full_run_4_shards", label),
            &policy,
            |b, &policy| {
                b.iter_batched(
                    || build_engine(POPULATION, 4, policy, 0xACC),
                    |mut engine| {
                        for (_, column) in panel.stream() {
                            engine.step(column).expect("in-horizon step");
                        }
                        engine.rounds_fed()
                    },
                    BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_aggregation_accuracy);
criterion_main!(benches);
