//! Dynamic panel lifecycle acceptance tests.
//!
//! The load-bearing pair:
//!
//! * **Static equivalence** — a degenerate [`PanelSchedule`] (uniform
//!   entry/horizon/budget) produces releases bit-identical to the
//!   plan-based (PR 3) engine under *both* aggregation policies, so the
//!   lifecycle refactor costs static panels nothing.
//! * **Rotating churn** — an overlapping-wave panel with cohorts joining
//!   and retiring mid-stream runs end to end, with the generalized budget
//!   invariant (max individual lifetime spend ≤ the schedule's cap)
//!   verified every round.

use longsynth::{
    ContinualSynthesizer, CumulativeConfig, CumulativeSynthesizer, FixedWindowConfig,
    FixedWindowSynthesizer, LifecycleStage,
};
use longsynth_data::generators::iid_bernoulli;
use longsynth_data::{BitColumn, LongitudinalDataset};
use longsynth_dp::budget::Rho;
use longsynth_dp::rng::{rng_from_seed, RngFork};
use longsynth_engine::{
    AggregationPolicy, CohortSchedule, EngineError, PanelSchedule, ShardPlan, ShardedEngine,
    SlotRole,
};

const RHO: f64 = 0.5;

/// One synthetic sub-panel per cohort, each spanning the cohort's own
/// horizon.
fn cohort_panels(schedule: &PanelSchedule, seed: u64, p: f64) -> Vec<LongitudinalDataset> {
    (0..schedule.cohorts())
        .map(|c| {
            iid_bernoulli(
                &mut rng_from_seed(seed ^ (0xC0C0 + c as u64)),
                schedule.cohort_size(c),
                schedule.cohort(c).horizon,
                p,
            )
        })
        .collect()
}

/// The round's input: the active cohorts' local columns concatenated in
/// cohort order — exactly the layout `PanelSchedule::active_layout` names.
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

fn uniform_schedule(n: usize, shards: usize, horizon: usize, cohort_rho: f64) -> PanelSchedule {
    PanelSchedule::uniform(
        n,
        shards,
        horizon,
        Rho::new(cohort_rho).unwrap(),
        Rho::new(RHO).unwrap(),
    )
    .unwrap()
}

/// Degenerate schedule ≡ PR 3 plan-based engine, bit for bit, cumulative
/// family, per-shard noise.
#[test]
fn static_schedule_matches_plan_engine_per_shard() {
    let (n, shards, horizon, seed) = (103, 4, 6, 7u64);
    let data = iid_bernoulli(&mut rng_from_seed(1), n, horizon, 0.3);
    let fork = RngFork::new(seed);
    let mut legacy = ShardedEngine::new(ShardPlan::new(n, shards).unwrap(), |s, _| {
        let config = CumulativeConfig::new(horizon, Rho::new(RHO).unwrap()).unwrap();
        CumulativeSynthesizer::new(
            config,
            fork.subfork(s as u64),
            rng_from_seed(seed ^ s as u64),
        )
    })
    .unwrap();
    let schedule = uniform_schedule(n, shards, horizon, RHO);
    let mut scheduled =
        ShardedEngine::with_schedule(schedule, AggregationPolicy::PerShardNoise, |slot| {
            let config = CumulativeConfig::new(slot.horizon, slot.budget).unwrap();
            let SlotRole::Shard(s) = slot.role else {
                unreachable!("per-shard noise never builds a population slot");
            };
            CumulativeSynthesizer::new(
                config,
                fork.subfork(s as u64),
                rng_from_seed(seed ^ s as u64),
            )
        })
        .unwrap();
    assert!(scheduled.schedule().is_static());
    for (_, col) in data.stream() {
        let a = legacy.step(col).unwrap();
        let b = scheduled.step(col).unwrap();
        assert_eq!(a, b);
    }
    assert_eq!(
        legacy.budget().spent().value(),
        scheduled.budget().spent().value()
    );
    assert!(scheduled.budget().exhausted());
}

/// Fixed-window family: the degenerate schedule is a pass-through as well.
#[test]
fn static_schedule_matches_plan_engine_fixed_window() {
    let (n, shards, horizon, k, seed) = (90, 2, 6, 2, 23u64);
    let data = iid_bernoulli(&mut rng_from_seed(3), n, horizon, 0.4);
    let fork = RngFork::new(seed);
    let config = FixedWindowConfig::new(horizon, k, Rho::new(RHO).unwrap()).unwrap();
    let mut legacy = ShardedEngine::new(ShardPlan::new(n, shards).unwrap(), |s, _| {
        FixedWindowSynthesizer::new(config, fork.child(s as u64))
    })
    .unwrap();
    let schedule = uniform_schedule(n, shards, horizon, RHO);
    let mut scheduled =
        ShardedEngine::with_schedule(schedule, AggregationPolicy::PerShardNoise, |slot| {
            let config = FixedWindowConfig::new(slot.horizon, k, slot.budget).unwrap();
            let SlotRole::Shard(s) = slot.role else {
                unreachable!("per-shard noise never builds a population slot");
            };
            FixedWindowSynthesizer::new(config, fork.child(s as u64))
        })
        .unwrap();
    for (_, col) in data.stream() {
        assert_eq!(legacy.step(col).unwrap(), scheduled.step(col).unwrap());
    }
}

/// The rotating-panel acceptance scenario: overlapping waves, cohorts
/// joining and retiring mid-stream, the budget invariant checked every
/// round, and the lifecycle stages walking fresh → streaming → sealed.
#[test]
fn rotating_panel_runs_end_to_end_with_budget_invariant() {
    let (horizon, waves) = (8, 3);
    // 10 cohorts of 12 — waves + horizon − 1, exactly constant active set.
    let schedule = PanelSchedule::rotating(
        120,
        horizon,
        waves,
        Rho::new(0.2).unwrap(),
        Rho::new(0.2).unwrap(),
    )
    .unwrap();
    assert!(schedule.cohorts() >= 3 + 2, "needs real mid-stream churn");
    let fork = RngFork::new(99);
    let mut engine =
        ShardedEngine::with_schedule(schedule.clone(), AggregationPolicy::PerShardNoise, |slot| {
            let config = CumulativeConfig::new(slot.horizon, slot.budget).unwrap();
            let SlotRole::Shard(s) = slot.role else {
                unreachable!("per-shard noise never builds a population slot");
            };
            CumulativeSynthesizer::new(
                config,
                fork.subfork(s as u64),
                rng_from_seed(700 + s as u64),
            )
        })
        .unwrap();
    let panels = cohort_panels(&schedule, 55, 0.3);
    for round in 0..horizon {
        assert_eq!(engine.active_cohorts(), schedule.active(round));
        let column = active_column(&schedule, &panels, round);
        let release = engine.step(&column).unwrap();
        // The release covers exactly the active population.
        assert_eq!(release.len(), schedule.active_population(round));
        // Generalized parallel composition, verified every round: no
        // individual's lifetime spend above the cap.
        let budget = engine.budget();
        assert!(
            budget.within_cap(schedule.total_budget()),
            "round {round}: lifetime spend {} over cap",
            budget.max_lifetime_spend()
        );
        // Lifecycle bookkeeping matches the schedule.
        for c in 0..schedule.cohorts() {
            let window = schedule.cohort(c).window();
            let expected = if round + 1 >= window.end {
                LifecycleStage::Sealed
            } else if round + 1 > window.start {
                LifecycleStage::Streaming
            } else {
                LifecycleStage::Fresh
            };
            assert_eq!(
                engine.shard(c).lifecycle(),
                expected,
                "cohort {c} round {round}"
            );
        }
    }
    // Every cohort retired; the run is over.
    assert!((0..schedule.cohorts()).all(|c| engine.shard(c).is_sealed()));
    assert!(engine.active_cohorts().is_empty());
    assert!(engine.budget().exhausted());
    let column = active_column(&schedule, &panels, horizon - 1);
    assert!(matches!(
        engine.step(&column),
        Err(EngineError::HorizonExhausted { horizon: 8 })
    ));
}

/// Rotating + shared noise is accepted when the population slot runs a
/// synthesizer with cohort-retirement support (the cumulative family's
/// windowed release mode — behavior is pinned in
/// `tests/windowed_population.rs`), and refused — with a message naming
/// the missing capability — when it does not: a persistent-mode
/// cumulative synthesizer, or the fixed-window family, which has no
/// retirement story at all.
#[test]
fn rotating_shared_noise_needs_cohort_retirement_support() {
    let (horizon, waves) = (6, 2);
    let total = Rho::new(0.3).unwrap();
    let cohort_rho = Rho::new(0.3 * 0.2).unwrap();
    let schedule = PanelSchedule::rotating(70, horizon, waves, cohort_rho, total).unwrap();
    assert!(schedule.constant_active_population());
    assert!(!schedule.is_static());
    // Windowed-mode population slot: constructs.
    let fork = RngFork::new(9);
    let engine =
        ShardedEngine::with_schedule(schedule.clone(), AggregationPolicy::shared(), |slot| {
            let config = CumulativeConfig::new(slot.horizon, slot.budget).unwrap();
            let (config, stream) = match slot.role {
                SlotRole::Shard(s) => (config, 1 + s as u64),
                SlotRole::Population => (config.with_window(waves).unwrap(), 0),
            };
            CumulativeSynthesizer::new(config, fork.subfork(stream), rng_from_seed(stream))
        })
        .unwrap();
    assert!(engine.population_synthesizer().is_some());
    assert_eq!(engine.retired_cohorts(), Some(0));
    // A persistent-mode population slot cannot forget retiring cohorts:
    // refused with a capability-naming error (after the factory ran — the
    // capability is a property of the built synthesizer).
    let fork = RngFork::new(10);
    let err = ShardedEngine::with_schedule(schedule.clone(), AggregationPolicy::shared(), |slot| {
        let config = CumulativeConfig::new(slot.horizon, slot.budget).unwrap();
        let stream = match slot.role {
            SlotRole::Shard(s) => 1 + s as u64,
            SlotRole::Population => 0,
        };
        CumulativeSynthesizer::new(config, fork.subfork(stream), rng_from_seed(stream))
    })
    .unwrap_err();
    assert!(matches!(err, EngineError::InvalidSchedule(_)));
    assert!(err.to_string().contains("forget"), "{err}");
    assert!(err.to_string().contains("per-shard"), "{err}");
    // The fixed-window family cannot forget a cohort either (k = 1 fits
    // the one-round edge cohorts, so only the capability is at fault).
    let err = ShardedEngine::with_schedule(schedule, AggregationPolicy::shared(), |slot| {
        let config = FixedWindowConfig::new(slot.horizon, 1, slot.budget).unwrap();
        let stream = match slot.role {
            SlotRole::Shard(s) => 1 + s as u64,
            SlotRole::Population => 0,
        };
        FixedWindowSynthesizer::new(config, rng_from_seed(stream))
    })
    .unwrap_err();
    assert!(matches!(err, EngineError::InvalidSchedule(_)));
    assert!(err.to_string().contains("forget"), "{err}");
    assert!(err.to_string().contains("per-shard"), "{err}");
}

/// Shared noise over a **static heterogeneous-budget** schedule — the
/// heterogeneity shared noise soundly supports, and something the PR 3
/// plan-based engine could not express at all: cohorts with different
/// lifetime budgets, one population-level noise draw per round, every
/// individual's lifetime spend within the cap.
#[test]
fn shared_noise_supports_static_heterogeneous_budgets() {
    let horizon = 5;
    let total = Rho::new(0.3).unwrap();
    let cohort = |size: usize, budget: f64| {
        (
            size,
            CohortSchedule {
                entry_round: 0,
                horizon,
                budget: Rho::new(budget).unwrap(),
            },
        )
    };
    // ρ_pop = 0.8 · 0.3 = 0.24; cohorts at 0.06 and 0.03 both fit the cap.
    let schedule =
        PanelSchedule::new(vec![cohort(40, 0.06), cohort(25, 0.03)], horizon, total).unwrap();
    assert!(schedule.is_static());
    let fork = RngFork::new(5);
    let mut engine =
        ShardedEngine::with_schedule(schedule.clone(), AggregationPolicy::shared(), |slot| {
            let config = CumulativeConfig::new(slot.horizon, slot.budget).unwrap();
            let stream = match slot.role {
                SlotRole::Shard(s) => 1 + s as u64,
                SlotRole::Population => 0,
            };
            CumulativeSynthesizer::new(config, fork.subfork(stream), rng_from_seed(stream))
        })
        .unwrap();
    assert!(engine.population_synthesizer().is_some());
    let panels = cohort_panels(&schedule, 77, 0.25);
    for round in 0..horizon {
        let column = active_column(&schedule, &panels, round);
        let release = engine.step(&column).unwrap();
        assert_eq!(release.len(), 65);
        assert!(engine.budget().within_cap(total));
    }
    let budget = engine.budget();
    assert!(budget.has_population_level());
    assert!((budget.population_spent().value() - 0.24).abs() < 1e-9);
    // Worst individual: cohort 0's 0.06 plus the population 0.24 = 0.30.
    assert!((budget.max_lifetime_spend().value() - 0.30).abs() < 1e-9);
    assert!(budget.within_cap(total));
    // The plan-based constructors reject exactly this heterogeneity.
    let fork = RngFork::new(6);
    let err = ShardedEngine::new(ShardPlan::from_sizes(&[40, 25]).unwrap(), |s, _| {
        let rho = Rho::new(if s == 0 { 0.06 } else { 0.03 }).unwrap();
        let config = CumulativeConfig::new(horizon, rho).unwrap();
        CumulativeSynthesizer::new(config, fork.subfork(s as u64), rng_from_seed(s as u64))
    })
    .unwrap_err();
    assert!(matches!(err, EngineError::HeterogeneousShards { .. }));
}

/// A factory that does not honor its slot's schedule is named precisely.
#[test]
fn schedule_mismatches_are_descriptive() {
    let schedule =
        PanelSchedule::rotating(40, 4, 2, Rho::new(0.1).unwrap(), Rho::new(0.1).unwrap()).unwrap();
    // Wrong horizon: every cohort gets horizon 4 regardless of schedule.
    let err =
        ShardedEngine::with_schedule(schedule.clone(), AggregationPolicy::PerShardNoise, |slot| {
            let config = CumulativeConfig::new(4, slot.budget).unwrap();
            CumulativeSynthesizer::new(config, RngFork::new(1), rng_from_seed(1))
        })
        .unwrap_err();
    match &err {
        EngineError::ScheduleMismatch { cohort, field, .. } => {
            assert_eq!(*cohort, Some(0));
            assert_eq!(*field, "horizon");
        }
        other => panic!("expected ScheduleMismatch, got {other:?}"),
    }
    // Wrong budget.
    let err =
        ShardedEngine::with_schedule(schedule.clone(), AggregationPolicy::PerShardNoise, |slot| {
            let config = CumulativeConfig::new(slot.horizon, Rho::new(0.05).unwrap()).unwrap();
            CumulativeSynthesizer::new(config, RngFork::new(1), rng_from_seed(1))
        })
        .unwrap_err();
    assert!(matches!(
        err,
        EngineError::ScheduleMismatch {
            field: "total budget",
            ..
        }
    ));
    assert!(err.to_string().contains("schedule requires"), "{err}");
}

/// Shared noise is refused outright when the schedule cannot keep the
/// active population constant, and when budgets over-commit the cap.
#[test]
fn shared_noise_schedule_preconditions_are_validated() {
    let cohort = |entry: usize, horizon: usize, budget: f64| CohortSchedule {
        entry_round: entry,
        horizon,
        budget: Rho::new(budget).unwrap(),
    };
    // Varying active population: a mid-stream entrant grows the panel.
    let varying = PanelSchedule::new(
        vec![(10, cohort(0, 4, 0.02)), (6, cohort(2, 2, 0.02))],
        4,
        Rho::new(0.1).unwrap(),
    )
    .unwrap();
    let err = ShardedEngine::<CumulativeSynthesizer>::with_schedule(
        varying,
        AggregationPolicy::shared(),
        |_| unreachable!("factory must not run for an invalid policy/schedule pair"),
    )
    .unwrap_err();
    assert!(matches!(err, EngineError::InvalidSchedule(_)));
    assert!(
        err.to_string().contains("constant active population"),
        "{err}"
    );
    // Over-commit: cohort budget + population budget exceeds the cap.
    let tight = PanelSchedule::new(
        vec![(10, cohort(0, 4, 0.05)), (10, cohort(0, 4, 0.05))],
        4,
        Rho::new(0.1).unwrap(),
    )
    .unwrap();
    let err = ShardedEngine::<CumulativeSynthesizer>::with_schedule(
        tight,
        AggregationPolicy::shared(),
        |_| unreachable!("factory must not run for an over-committed schedule"),
    )
    .unwrap_err();
    assert!(err.to_string().contains("over-commit"), "{err}");
}

/// A synthesizer whose reported spend overruns its configured total —
/// simulating an accounting bug the engine must catch. Used to pin the
/// always-on budget-cap verification.
struct Overspender {
    horizon: usize,
    budget: Rho,
    rounds: usize,
}

impl ContinualSynthesizer for Overspender {
    type Input = BitColumn;
    type Release = BitColumn;
    type Aggregate = BitColumn;

    fn prepare(&mut self, input: &BitColumn) -> Result<BitColumn, longsynth::SynthError> {
        Ok(input.clone())
    }

    fn finalize(&mut self, aggregate: BitColumn) -> Result<BitColumn, longsynth::SynthError> {
        self.rounds += 1;
        Ok(aggregate)
    }

    fn round(&self) -> usize {
        self.rounds
    }

    fn horizon(&self) -> usize {
        self.horizon
    }

    fn budget_spent(&self) -> Rho {
        // Ten times the configured budget once anything has run.
        Rho::new(self.budget.value() * 10.0 * self.rounds.min(1) as f64).unwrap()
    }

    fn budget_total(&self) -> Rho {
        self.budget
    }
}

/// The per-round lifetime-spend ≤ cap invariant is enforced in **every**
/// build profile. It used to be `debug_assert!`-only, so `--release`
/// binaries ran with no budget-cap enforcement at all — this test (which
/// CI also runs under `--release`) pins the always-on check.
#[test]
fn budget_cap_violation_is_an_error_in_release_builds_too() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    let cap = Rho::new(0.1).unwrap();
    let schedule = PanelSchedule::uniform(20, 2, 3, cap, cap).unwrap();
    let mut engine =
        ShardedEngine::with_schedule(schedule, AggregationPolicy::PerShardNoise, |slot| {
            Overspender {
                horizon: slot.horizon,
                budget: slot.budget,
                rounds: 0,
            }
        })
        .unwrap();
    // An over-budget round errors AND never reaches the sink: the
    // violating release must not land in downstream stores.
    let seen = Arc::new(AtomicUsize::new(0));
    let handle = Arc::clone(&seen);
    engine.set_sink(Box::new(
        move |_: usize, _: &[BitColumn], _: &BitColumn, _: longsynth_engine::PolicyTag| {
            handle.fetch_add(1, Ordering::SeqCst);
        },
    ));
    let err = engine.step(&BitColumn::zeros(20)).unwrap_err();
    match &err {
        EngineError::BudgetCapExceeded { round, spent, cap } => {
            assert_eq!(*round, 0);
            assert!(spent.value() > cap.value());
        }
        other => panic!("expected BudgetCapExceeded, got {other:?}"),
    }
    assert!(err.to_string().contains("budget invariant"), "{err}");
    assert!(err.to_string().contains("cap"), "{err}");
    assert_eq!(seen.load(Ordering::SeqCst), 0, "sink saw no release");

    // A plan-built engine runs the same check: its static schedule's cap
    // is the shard budget, and the violating round never reaches the sink.
    let mut plan_engine = ShardedEngine::new(ShardPlan::new(20, 2).unwrap(), |_, _| Overspender {
        horizon: 3,
        budget: cap,
        rounds: 0,
    })
    .unwrap();
    let plan_seen = Arc::new(AtomicUsize::new(0));
    let plan_handle = Arc::clone(&plan_seen);
    plan_engine.set_sink(Box::new(
        move |_: usize, _: &[BitColumn], _: &BitColumn, _: longsynth_engine::PolicyTag| {
            plan_handle.fetch_add(1, Ordering::SeqCst);
        },
    ));
    let err = plan_engine.step(&BitColumn::zeros(20)).unwrap_err();
    assert!(
        matches!(err, EngineError::BudgetCapExceeded { round: 0, .. }),
        "expected BudgetCapExceeded at round 0, got {err:?}"
    );
    assert_eq!(plan_seen.load(Ordering::SeqCst), 0, "sink saw no release");
}

/// Scheduled rounds validate their input against the *active* population.
#[test]
fn scheduled_rounds_reject_wrong_active_population() {
    let schedule =
        PanelSchedule::rotating(50, 5, 2, Rho::new(0.1).unwrap(), Rho::new(0.1).unwrap()).unwrap();
    let expected = schedule.active_population(0);
    let fork = RngFork::new(3);
    let mut engine =
        ShardedEngine::with_schedule(schedule, AggregationPolicy::PerShardNoise, |slot| {
            let config = CumulativeConfig::new(slot.horizon, slot.budget).unwrap();
            let SlotRole::Shard(s) = slot.role else {
                unreachable!("per-shard noise never builds a population slot");
            };
            CumulativeSynthesizer::new(config, fork.subfork(s as u64), rng_from_seed(s as u64))
        })
        .unwrap();
    let wrong = BitColumn::zeros(expected + 1);
    match engine.step(&wrong) {
        Err(EngineError::PopulationMismatch {
            expected: e,
            actual,
        }) => {
            assert_eq!(e, expected);
            assert_eq!(actual, expected + 1);
        }
        other => panic!("expected PopulationMismatch, got {other:?}"),
    }
    // The rejected round consumed nothing of the schedule's global horizon.
    assert_eq!(engine.horizon(), 5);
    assert_eq!(engine.rounds_fed(), 0);
}
