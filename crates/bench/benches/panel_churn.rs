//! Bench: dynamic-panel round latency and population accuracy under
//! cohort churn — per-shard noise vs **windowed shared noise**.
//!
//! Five regimes over the same active population (cumulative family,
//! T = 12): a static lockstep panel (0% churn), 4-wave and 2-wave
//! rotating panels (25% / 50% of the active set replaced each round)
//! under per-shard noise, and the same two rotating panels under the
//! shared-noise policy — whose population slot is the **windowed
//! population synthesizer** (one population-level noise draw per round,
//! retiring cohorts forgotten). The table on stderr reports the **mean
//! absolute error of active-set population cumulative queries**
//! (thresholds 1..=3, every round, estimates vs the cohorts' true
//! observed panels, size-weighted) relative to the static baseline, plus
//! the windowed-shared : per-shard MAE ratio per churn level; criterion
//! times the full 12-round engine run per regime.
//!
//! Expected shape: latency stays flat (the active set is the same size —
//! churn only changes *which* cohorts step and where the noise goes).
//! Under per-shard noise MAE *drops* with churn (a rotating cohort's
//! budget concentrates over its short membership window) at the cost of
//! scope; the windowed-shared arm answers the same active-set battery
//! from a single population draw per round at the `p = 0.8` budget
//! share, competitive with pooling `waves` full-budget cohort draws.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use longsynth::{CumulativeConfig, CumulativeSynthesizer};
use longsynth_data::generators::iid_bernoulli;
use longsynth_data::{BitColumn, LongitudinalDataset};
use longsynth_dp::budget::Rho;
use longsynth_dp::rng::{rng_from_seed, RngFork};
use longsynth_engine::{AggregationPolicy, PanelSchedule, ShardedEngine, SlotRole};
use longsynth_queries::cumulative::cumulative_counts;
use longsynth_queries::{active_weighted_mean, AccuracyComparison, ErrorSummary};

const HORIZON: usize = 12;
const ACTIVE: usize = 24_000;
const RHO: f64 = 0.02;
const MAX_B: usize = 3;

/// One benched configuration: a schedule plus the aggregation policy it
/// runs under (`window` set for the windowed-shared arms).
struct Regime {
    label: &'static str,
    id: &'static str,
    schedule: PanelSchedule,
    policy: AggregationPolicy,
    window: Option<usize>,
}

fn rotating_schedule(waves: usize, cohort_share: f64) -> PanelSchedule {
    let wave_size = ACTIVE / waves;
    let population = wave_size * (waves + HORIZON - 1);
    let cohort_rho = Rho::new(RHO * cohort_share).unwrap();
    PanelSchedule::rotating(
        population,
        HORIZON,
        waves,
        cohort_rho,
        Rho::new(RHO).unwrap(),
    )
    .unwrap()
}

fn regimes() -> Vec<Regime> {
    let rho = Rho::new(RHO).unwrap();
    let shared_cohort_share = 1.0 - AggregationPolicy::DEFAULT_POPULATION_SHARE;
    vec![
        Regime {
            label: "churn  0% per-shard (static, 4 cohorts)",
            id: "0",
            schedule: PanelSchedule::uniform(ACTIVE, 4, HORIZON, rho, rho).unwrap(),
            policy: AggregationPolicy::PerShardNoise,
            window: None,
        },
        Regime {
            label: "churn 25% per-shard (rotating, 4 waves)",
            id: "25",
            schedule: rotating_schedule(4, 1.0),
            policy: AggregationPolicy::PerShardNoise,
            window: None,
        },
        Regime {
            label: "churn 50% per-shard (rotating, 2 waves)",
            id: "50",
            schedule: rotating_schedule(2, 1.0),
            policy: AggregationPolicy::PerShardNoise,
            window: None,
        },
        Regime {
            label: "churn 25% windowed-shared (4 waves)",
            id: "25-shared",
            schedule: rotating_schedule(4, shared_cohort_share),
            policy: AggregationPolicy::shared(),
            window: Some(4),
        },
        Regime {
            label: "churn 50% windowed-shared (2 waves)",
            id: "50-shared",
            schedule: rotating_schedule(2, shared_cohort_share),
            policy: AggregationPolicy::shared(),
            window: Some(2),
        },
    ]
}

/// One true sub-panel per cohort, spanning the cohort's own window.
/// Depends only on the cohort sizes and horizons, so paired per-shard /
/// windowed-shared arms at the same churn see identical data.
fn cohort_panels(schedule: &PanelSchedule, seed: u64) -> Vec<LongitudinalDataset> {
    (0..schedule.cohorts())
        .map(|c| {
            iid_bernoulli(
                &mut rng_from_seed(seed ^ (0xDA7A + c as u64)),
                schedule.cohort_size(c),
                schedule.cohort(c).horizon,
                0.25,
            )
        })
        .collect()
}

fn build_engine(regime: &Regime, seed: u64) -> ShardedEngine<CumulativeSynthesizer> {
    let fork = RngFork::new(seed);
    let window = regime.window;
    ShardedEngine::with_schedule(regime.schedule.clone(), regime.policy, move |slot| {
        let config = CumulativeConfig::new(slot.horizon, slot.budget).expect("scheduled slot");
        let (config, stream) = match slot.role {
            SlotRole::Shard(s) => (config, 1 + s as u64),
            SlotRole::Population => (
                config
                    .with_window(window.expect("population slots only exist for shared arms"))
                    .expect("wave length fits the horizon"),
                0,
            ),
        };
        CumulativeSynthesizer::new(config, fork.subfork(stream), rng_from_seed(seed ^ stream))
    })
    .expect("schedule-validated engine")
}

/// Drive a full run; returns the engine for estimation.
fn run(
    regime: &Regime,
    panels: &[LongitudinalDataset],
    seed: u64,
) -> ShardedEngine<CumulativeSynthesizer> {
    let mut engine = build_engine(regime, seed);
    let schedule = &regime.schedule;
    for round in 0..HORIZON {
        let columns: Vec<&BitColumn> = schedule
            .active(round)
            .into_iter()
            .map(|c| panels[c].column(round - schedule.cohort(c).entry_round))
            .collect();
        let column = BitColumn::concat(columns);
        engine.step(&column).expect("in-horizon step");
        assert!(
            engine.budget().within_cap(schedule.total_budget()),
            "budget invariant at round {round}"
        );
    }
    engine
}

/// Active-set population MAE over the cumulative battery: the windowed
/// population synthesizer's estimates under shared noise, the
/// size-weighted cohort pool under per-shard noise.
fn population_error(
    schedule: &PanelSchedule,
    panels: &[LongitudinalDataset],
    engine: &ShardedEngine<CumulativeSynthesizer>,
) -> ErrorSummary {
    let mut estimates = Vec::new();
    let mut truths = Vec::new();
    for t in 0..HORIZON {
        for b in 1..=MAX_B.min(t + 1) {
            let covering = (0..schedule.cohorts()).filter(|&c| schedule.cohort(c).is_active(t));
            let estimate = match engine.population_synthesizer() {
                Some(population) => population.estimate_fraction(t, b).unwrap(),
                None => active_weighted_mean(covering.clone().map(|c| {
                    let local = t - schedule.cohort(c).entry_round;
                    (
                        engine.shard(c).estimate_fraction(local, b).unwrap(),
                        schedule.cohort_size(c),
                    )
                }))
                .expect("every round has covering cohorts"),
            };
            let truth = active_weighted_mean(covering.map(|c| {
                let local = t - schedule.cohort(c).entry_round;
                let count = cumulative_counts(&panels[c], local)
                    .get(b)
                    .copied()
                    .unwrap_or(0);
                (
                    count as f64 / schedule.cohort_size(c) as f64,
                    schedule.cohort_size(c),
                )
            }))
            .expect("every round has covering cohorts");
            estimates.push(estimate);
            truths.push(truth);
        }
    }
    ErrorSummary::from_pairs(&estimates, &truths)
}

fn bench_panel_churn(c: &mut Criterion) {
    // Accuracy table, computed once outside criterion timing.
    let mut comparison: Option<AccuracyComparison> = None;
    let prepared: Vec<(Regime, Vec<LongitudinalDataset>)> = regimes()
        .into_iter()
        .map(|regime| {
            let panels = cohort_panels(&regime.schedule, 0xC0DE);
            (regime, panels)
        })
        .collect();
    for (regime, panels) in &prepared {
        let engine = run(regime, panels, 0xBEEF);
        if let Some(retired) = engine.retired_cohorts() {
            assert!(retired > 0, "rotation retires cohorts");
        }
        let summary = population_error(&regime.schedule, panels, &engine);
        match &mut comparison {
            None => comparison = Some(AccuracyComparison::against(regime.label, summary)),
            Some(comparison) => comparison.add(regime.label, summary),
        }
    }
    let comparison = comparison.expect("at least one regime");
    eprintln!(
        "panel_churn: active-set population cumulative MAE \
         (active n = {ACTIVE}, T = {HORIZON}, b <= {MAX_B}, rho = {RHO}):\n{comparison}"
    );
    // Pair the arms by regime id ("25" vs "25-shared"), so label edits
    // cannot desynchronize the ratio report.
    let label_of = |id: &str| {
        prepared
            .iter()
            .find(|(regime, _)| regime.id == id)
            .map(|(regime, _)| regime.label)
            .expect("regime ran")
    };
    for churn in [25, 50] {
        let shared = comparison
            .summary(label_of(&format!("{churn}-shared")))
            .expect("shared arm ran");
        let per_shard = comparison
            .summary(label_of(&format!("{churn}")))
            .expect("per-shard arm ran");
        eprintln!(
            "panel_churn: {churn}% churn windowed-shared/per-shard MAE ratio: {:.3}",
            shared.mean / per_shard.mean
        );
    }

    // Timed side: the full 12-round run per regime — what a rotating
    // active set (and the windowed population draw) costs in wall-clock.
    let mut group = c.benchmark_group("panel_churn");
    group.sample_size(10);
    for (regime, panels) in &prepared {
        group.bench_with_input(
            BenchmarkId::new("full_run", regime.id),
            &(regime, panels),
            |b, (regime, panels)| {
                b.iter_batched(
                    || build_engine(regime, 0xBEEF),
                    |mut engine| {
                        let schedule = &regime.schedule;
                        for round in 0..HORIZON {
                            let columns: Vec<&BitColumn> = schedule
                                .active(round)
                                .into_iter()
                                .map(|c| panels[c].column(round - schedule.cohort(c).entry_round))
                                .collect();
                            let column = BitColumn::concat(columns);
                            engine.step(&column).expect("in-horizon step");
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

criterion_group!(benches, bench_panel_churn);
criterion_main!(benches);
