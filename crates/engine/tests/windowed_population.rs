//! Shared noise under rotating panels: acceptance tests.
//!
//! The load-bearing trio:
//!
//! * **One population path** — a full-horizon static schedule runs the
//!   same population synthesizer with nothing to retire
//!   (`retired_cohorts()` is `None`); bit-identity against a hand
//!   composition is pinned by `shared_noise_engine_equals_manual_composition`.
//! * **Retirement bookkeeping** — each sealed cohort is forgotten once,
//!   rotating `step` equals a hand composition of the same synthesizers,
//!   and a failed retirement is an `EngineError::Population` that is not
//!   counted.
//! * **Rotating accuracy** — windowed-shared active-set population
//!   estimates beat (or at worst match) the per-shard-noise pooled
//!   estimates at 25–50% per-round churn, while the two-level budget
//!   invariant holds every round.

use longsynth::{
    ContinualSynthesizer, CumulativeAggregate, CumulativeConfig, CumulativeSynthesizer, SynthError,
};
use longsynth_data::generators::iid_bernoulli;
use longsynth_data::{BitColumn, LongitudinalDataset};
use longsynth_dp::budget::Rho;
use longsynth_dp::rng::{rng_from_seed, RngFork};
use longsynth_engine::{
    AggregationPolicy, EngineError, MergeAggregate, PanelSchedule, PanelSlot, ShardableInput,
    ShardedEngine, SlotRole,
};
use longsynth_queries::cumulative::cumulative_counts;
use longsynth_queries::{active_weighted_mean, ErrorSummary};

/// A full-horizon **static** shared schedule runs the one population
/// path with nothing to retire: `retired_cohorts()` is `None` before and
/// after the run.
#[test]
fn static_shared_engine_retires_no_cohorts() {
    let (n, shards, horizon, rho, seed) = (96, 3, 6, 0.2, 41u64);
    let data = iid_bernoulli(&mut rng_from_seed(4), n, horizon, 0.3);
    let fork = RngFork::new(seed);
    let cohort_rho = rho * (1.0 - AggregationPolicy::DEFAULT_POPULATION_SHARE);
    let schedule = PanelSchedule::uniform(
        n,
        shards,
        horizon,
        Rho::new(cohort_rho).unwrap(),
        Rho::new(rho).unwrap(),
    )
    .unwrap();
    let mut engine = ShardedEngine::with_schedule(schedule, AggregationPolicy::shared(), |slot| {
        let config = CumulativeConfig::new(slot.horizon, slot.budget).unwrap();
        let stream = match slot.role {
            SlotRole::Shard(s) => 1 + s as u64,
            SlotRole::Population => 0,
        };
        CumulativeSynthesizer::new(config, fork.subfork(stream), rng_from_seed(seed ^ stream))
    })
    .unwrap();
    assert!(engine.population_synthesizer().is_some());
    assert_eq!(engine.retired_cohorts(), None);
    for (_, col) in data.stream() {
        assert_eq!(engine.step(col).unwrap().len(), n);
    }
    assert!(engine.budget().exhausted());
    assert_eq!(engine.retired_cohorts(), None);
}

/// The slot factory of a rotating engine over `schedule`: cohort slots
/// run plain cumulative synthesizers, and the population slot (shared
/// noise only) runs windowed release mode, bounded by the longest
/// membership window. Calling it twice on one slot builds identical
/// synthesizers, so hand compositions can mirror an engine.
fn rotating_slot_factory(
    schedule: &PanelSchedule,
    seed: u64,
) -> impl Fn(PanelSlot) -> CumulativeSynthesizer {
    let fork = RngFork::new(seed);
    let window = (0..schedule.cohorts())
        .map(|c| schedule.cohort(c).horizon)
        .max()
        .expect("schedules have cohorts");
    move |slot| {
        let config = CumulativeConfig::new(slot.horizon, slot.budget).unwrap();
        let (config, stream) = match slot.role {
            SlotRole::Shard(s) => (config, 1 + s as u64),
            SlotRole::Population => (config.with_window(window).unwrap(), 0),
        };
        CumulativeSynthesizer::new(config, fork.subfork(stream), rng_from_seed(seed ^ stream))
    }
}

/// Build a rotating shared-noise engine over `schedule` (cohort budgets
/// already carry the cohort share; the population slot gets the rest).
fn rotating_shared_engine(
    schedule: &PanelSchedule,
    seed: u64,
) -> ShardedEngine<CumulativeSynthesizer> {
    ShardedEngine::with_schedule(
        schedule.clone(),
        AggregationPolicy::shared(),
        rotating_slot_factory(schedule, seed),
    )
    .unwrap()
}

fn rotating_shared_schedule(
    active: usize,
    horizon: usize,
    waves: usize,
    rho: f64,
) -> PanelSchedule {
    let wave_size = active / waves;
    let population = wave_size * (waves + horizon - 1);
    let cohort_rho = Rho::new(rho * (1.0 - AggregationPolicy::DEFAULT_POPULATION_SHARE)).unwrap();
    PanelSchedule::rotating(
        population,
        horizon,
        waves,
        cohort_rho,
        Rho::new(rho).unwrap(),
    )
    .unwrap()
}

/// One true sub-panel per cohort over its own window.
fn cohort_panels(schedule: &PanelSchedule, seed: u64, p: f64) -> Vec<LongitudinalDataset> {
    (0..schedule.cohorts())
        .map(|c| {
            iid_bernoulli(
                &mut rng_from_seed(seed ^ (0xDA7A + c as u64)),
                schedule.cohort_size(c),
                schedule.cohort(c).horizon,
                p,
            )
        })
        .collect()
}

fn active_column(
    schedule: &PanelSchedule,
    panels: &[LongitudinalDataset],
    round: usize,
) -> BitColumn {
    BitColumn::concat(
        schedule
            .active(round)
            .into_iter()
            .map(|c| panels[c].column(round - schedule.cohort(c).entry_round))
            .collect::<Vec<_>>()
            .iter()
            .copied(),
    )
}

/// A population window bound smaller than the schedule's longest cohort
/// horizon is a construction-time error — not a mid-run failure after
/// budget has been spent.
#[test]
fn too_small_population_window_fails_at_construction() {
    let schedule = rotating_shared_schedule(60, 6, 3, 0.3);
    let fork = RngFork::new(2);
    let err = ShardedEngine::with_schedule(schedule, AggregationPolicy::shared(), |slot| {
        let config = CumulativeConfig::new(slot.horizon, slot.budget).unwrap();
        let (config, stream) = match slot.role {
            SlotRole::Shard(s) => (config, 1 + s as u64),
            // One round short of the 3-round wave length.
            SlotRole::Population => (config.with_window(2).unwrap(), 0),
        };
        CumulativeSynthesizer::new(config, fork.subfork(stream), rng_from_seed(stream))
    })
    .unwrap_err();
    assert!(matches!(err, EngineError::InvalidSchedule(_)));
    assert!(err.to_string().contains("membership-window bound"), "{err}");
    assert!(err.to_string().contains("at least 3"), "{err}");
}

/// Rotating + shared runs end to end: constant-size active-set releases,
/// the two-level budget invariant every round, and one retirement per
/// sealed cohort.
#[test]
fn rotating_shared_noise_runs_end_to_end() {
    let (horizon, waves, rho) = (6, 2, 0.3);
    let schedule = rotating_shared_schedule(60, horizon, waves, rho);
    let active = schedule.active_population(0);
    let panels = cohort_panels(&schedule, 5, 0.3);
    let mut engine = rotating_shared_engine(&schedule, 17);
    assert_eq!(engine.retired_cohorts(), Some(0));
    for round in 0..horizon {
        let column = active_column(&schedule, &panels, round);
        let release = engine.step(&column).unwrap();
        assert_eq!(release.len(), active, "round {round}");
        assert!(engine.budget().within_cap(schedule.total_budget()));
    }
    // Every cohort sealed before the final round was forgotten.
    let sealed_before_end = (0..schedule.cohorts())
        .filter(|&c| {
            let cohort = schedule.cohort(c);
            cohort.entry_round + cohort.horizon < horizon
        })
        .count();
    assert_eq!(engine.retired_cohorts(), Some(sealed_before_end));
    let budget = engine.budget();
    assert!(budget.has_population_level());
    assert!((budget.population_total().value() - 0.8 * rho).abs() < 1e-9);
    assert!(budget.exhausted());
    // The population synthesizer's estimates are active-set-scoped and
    // stay within [0, 1] — no saturation drift.
    let population = engine.population_synthesizer().unwrap();
    for t in 0..horizon {
        for b in 1..=waves.min(t + 1) {
            let est = population.estimate_fraction(t, b).unwrap();
            assert!((0.0..=1.0).contains(&est), "t={t}, b={b}: {est}");
        }
    }
}

/// Determinism: the whole rotating shared pipeline (including random
/// demotions at retirement) is a function of the seed.
#[test]
fn rotating_shared_noise_is_deterministic() {
    let schedule = rotating_shared_schedule(48, 5, 2, 0.3);
    let panels = cohort_panels(&schedule, 9, 0.35);
    let run = |seed: u64| {
        let mut engine = rotating_shared_engine(&schedule, seed);
        (0..5)
            .map(|round| {
                engine
                    .step(&active_column(&schedule, &panels, round))
                    .unwrap()
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(21), run(21));
    assert_ne!(run(21), run(22));
}

/// A rotating engine's `step` equals a hand composition of the same
/// synthesizers, round by round, under both policies. Each round's
/// active column splits by `schedule.active_layout(round)`. Per-shard
/// noise: the active cohorts step and their releases concatenate. Shared
/// noise: each active cohort prepares and finalizes its own release, its
/// aggregate joins the cohort's lifetime view, every cohort sealed at
/// this round boundary is forgotten by the population synthesizer, and
/// the population synthesizer finalizes the aligned sum.
#[test]
fn rotating_step_equals_hand_composition() {
    let horizon = 6;
    let schedule = rotating_shared_schedule(48, horizon, 2, 0.3);
    let panels = cohort_panels(&schedule, 13, 0.3);
    for policy in [
        AggregationPolicy::PerShardNoise,
        AggregationPolicy::shared(),
    ] {
        let make = rotating_slot_factory(&schedule, 33);
        let mut engine = ShardedEngine::with_schedule(schedule.clone(), policy, &make).unwrap();
        let mut cohorts: Vec<CumulativeSynthesizer> = (0..schedule.cohorts())
            .map(|c| {
                make(PanelSlot {
                    role: SlotRole::Shard(c),
                    size: schedule.cohort_size(c),
                    entry_round: schedule.cohort(c).entry_round,
                    horizon: schedule.cohort(c).horizon,
                    budget: schedule.cohort(c).budget,
                })
            })
            .collect();
        let mut population = policy
            .population_budget(schedule.cohorts(), schedule.total_budget())
            .map(|budget| {
                make(PanelSlot {
                    role: SlotRole::Population,
                    size: schedule.active_population(0),
                    entry_round: 0,
                    horizon,
                    budget,
                })
            });
        let mut lifetime: Vec<Option<CumulativeAggregate>> = vec![None; schedule.cohorts()];
        let mut retired = 0;
        for round in 0..horizon {
            let column = active_column(&schedule, &panels, round);
            let via_engine = engine.step(&column).unwrap();
            let active = schedule.active(round);
            let parts = column.split(&schedule.active_layout(round).unwrap());
            let by_hand = match &mut population {
                None => BitColumn::concat(
                    active
                        .iter()
                        .zip(&parts)
                        .map(|(&c, part)| cohorts[c].step(part).unwrap())
                        .collect::<Vec<_>>()
                        .iter(),
                ),
                Some(population) => {
                    let mut aggregates = Vec::new();
                    for (&c, part) in active.iter().zip(&parts) {
                        let aggregate = cohorts[c].prepare(part).unwrap();
                        cohorts[c].finalize(aggregate.clone()).unwrap();
                        match &mut lifetime[c] {
                            slot @ None => *slot = Some(aggregate.clone()),
                            Some(view) => view.absorb_round(&aggregate).unwrap(),
                        }
                        aggregates.push(aggregate.align_to_round(round + 1));
                    }
                    for (c, view) in lifetime.iter_mut().enumerate() {
                        let cohort = schedule.cohort(c);
                        if cohort.entry_round + cohort.horizon == round {
                            population.forget_cohort(view.take().unwrap()).unwrap();
                            retired += 1;
                        }
                    }
                    population
                        .finalize(CumulativeAggregate::merge(aggregates).unwrap())
                        .unwrap()
                }
            };
            assert_eq!(via_engine, by_hand, "{policy}, round {round}");
        }
        let expected_retired = population.is_some().then_some(retired);
        assert_eq!(engine.retired_cohorts(), expected_retired, "{policy}");
    }
}

/// A windowed cumulative synthesizer whose `forget_cohort` always fails.
struct ForgetFails(CumulativeSynthesizer);

impl ContinualSynthesizer for ForgetFails {
    type Input = BitColumn;
    type Release = BitColumn;
    type Aggregate = CumulativeAggregate;

    fn prepare(&mut self, input: &BitColumn) -> Result<CumulativeAggregate, SynthError> {
        self.0.prepare(input)
    }

    fn finalize(&mut self, aggregate: CumulativeAggregate) -> Result<BitColumn, SynthError> {
        self.0.finalize(aggregate)
    }

    fn round(&self) -> usize {
        ContinualSynthesizer::round(&self.0)
    }

    fn horizon(&self) -> usize {
        ContinualSynthesizer::horizon(&self.0)
    }

    fn cohort_retirement_window(&self) -> Option<usize> {
        ContinualSynthesizer::cohort_retirement_window(&self.0)
    }

    fn forget_cohort(&mut self, _view: CumulativeAggregate) -> Result<(), SynthError> {
        Err(SynthError::InvalidConfig("forget refused".to_string()))
    }

    fn budget_spent(&self) -> Rho {
        ContinualSynthesizer::budget_spent(&self.0)
    }

    fn budget_total(&self) -> Rho {
        ContinualSynthesizer::budget_total(&self.0)
    }
}

/// A retirement the population synthesizer refuses fails the round with
/// `EngineError::Population` and is not counted.
#[test]
fn a_failed_retirement_is_not_counted() {
    let (horizon, waves) = (6, 2);
    let schedule = rotating_shared_schedule(48, horizon, waves, 0.3);
    let panels = cohort_panels(&schedule, 13, 0.3);
    let fork = RngFork::new(3);
    let mut engine =
        ShardedEngine::with_schedule(schedule.clone(), AggregationPolicy::shared(), |slot| {
            let config = CumulativeConfig::new(slot.horizon, slot.budget).unwrap();
            let (config, stream) = match slot.role {
                SlotRole::Shard(s) => (config, 1 + s as u64),
                SlotRole::Population => (config.with_window(waves).unwrap(), 0),
            };
            ForgetFails(CumulativeSynthesizer::new(
                config,
                fork.subfork(stream),
                rng_from_seed(stream),
            ))
        })
        .unwrap();
    assert_eq!(engine.retired_cohorts(), Some(0));
    // The first edge cohort lives one round, so its retirement is due at
    // the round-1 boundary.
    let first_due = (0..schedule.cohorts())
        .map(|c| schedule.cohort(c).entry_round + schedule.cohort(c).horizon)
        .min()
        .unwrap();
    assert_eq!(first_due, 1);
    engine.step(&active_column(&schedule, &panels, 0)).unwrap();
    let err = engine
        .step(&active_column(&schedule, &panels, first_due))
        .unwrap_err();
    assert!(matches!(err, EngineError::Population { .. }), "{err}");
    assert_eq!(engine.retired_cohorts(), Some(0));
}

/// Active-set population cumulative MAE of an engine's estimates against
/// the cohorts' true observed panels (size-weighted), thresholds
/// `1..=max_b`, every round.
fn population_mae(
    schedule: &PanelSchedule,
    panels: &[LongitudinalDataset],
    estimate: impl Fn(usize, usize) -> f64,
    max_b: usize,
) -> ErrorSummary {
    let horizon = schedule.global_horizon();
    let mut estimates = Vec::new();
    let mut truths = Vec::new();
    for t in 0..horizon {
        for b in 1..=max_b.min(t + 1) {
            let covering = (0..schedule.cohorts()).filter(|&c| schedule.cohort(c).is_active(t));
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
            estimates.push(estimate(t, b));
            truths.push(truth);
        }
    }
    ErrorSummary::from_pairs(&estimates, &truths)
}

/// The accuracy claim the windowed synthesizer exists for: under 25–50%
/// per-round churn at the acceptance budget regime, windowed-shared
/// active-set population MAE does not exceed the per-shard-noise pooled
/// MAE — a single population draw at the `p = 0.8` budget share beats
/// averaging `waves` full-budget cohort draws (measured ~0.6x; the
/// `panel_churn` bench records the exact ratios). The assert carries a
/// small statistical margin for seed robustness.
#[test]
fn windowed_shared_beats_per_shard_population_mae_under_churn() {
    let (active, horizon, rho, max_b) = (12_000, 12, 0.02, 3);
    for waves in [4usize, 2] {
        let wave_size = active / waves;
        let population = wave_size * (waves + horizon - 1);
        // Per-shard arm: each cohort carries the full per-individual cap.
        let per_shard_schedule = PanelSchedule::rotating(
            population,
            horizon,
            waves,
            Rho::new(rho).unwrap(),
            Rho::new(rho).unwrap(),
        )
        .unwrap();
        let panels = cohort_panels(&per_shard_schedule, 0xACC, 0.25);
        let fork = RngFork::new(7);
        let mut per_shard = ShardedEngine::with_schedule(
            per_shard_schedule.clone(),
            AggregationPolicy::PerShardNoise,
            |slot| {
                let config = CumulativeConfig::new(slot.horizon, slot.budget).unwrap();
                let SlotRole::Shard(s) = slot.role else {
                    unreachable!("per-shard noise never builds a population slot");
                };
                CumulativeSynthesizer::new(config, fork.subfork(s as u64), rng_from_seed(s as u64))
            },
        )
        .unwrap();
        // Windowed-shared arm: same panels, same cap, shared split.
        let shared_schedule = rotating_shared_schedule(active, horizon, waves, rho);
        let mut shared = rotating_shared_engine(&shared_schedule, 7);
        for round in 0..horizon {
            let column = active_column(&per_shard_schedule, &panels, round);
            per_shard.step(&column).unwrap();
            shared.step(&column).unwrap();
        }
        let per_shard_mae = population_mae(
            &per_shard_schedule,
            &panels,
            |t, b| {
                let covering = (0..per_shard_schedule.cohorts())
                    .filter(|&c| per_shard_schedule.cohort(c).is_active(t));
                active_weighted_mean(covering.map(|c| {
                    let local = t - per_shard_schedule.cohort(c).entry_round;
                    (
                        per_shard.shard(c).estimate_fraction(local, b).unwrap(),
                        per_shard_schedule.cohort_size(c),
                    )
                }))
                .unwrap()
            },
            max_b,
        );
        let population_synth = shared.population_synthesizer().unwrap();
        let shared_mae = population_mae(
            &per_shard_schedule,
            &panels,
            |t, b| population_synth.estimate_fraction(t, b).unwrap(),
            max_b,
        );
        assert!(
            shared_mae.mean <= per_shard_mae.mean * 1.05 + 1e-4,
            "waves={waves}: windowed-shared mae {} should not exceed the per-shard \
             mae {}",
            shared_mae.mean,
            per_shard_mae.mean
        );
    }
}
