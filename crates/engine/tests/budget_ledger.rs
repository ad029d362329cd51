//! Privacy-budget audit-ledger acceptance properties.
//!
//! The load-bearing invariant (ISSUE acceptance criterion): the ledger
//! an attached [`EngineObserver`] appends to **replays bit-exactly** to
//! `EngineBudget::{cohort_spent, population_spent, spent,
//! max_lifetime_spend}` after *every* round — plain f64 equality, no
//! tolerance — across every schedule family the engine runs:
//!
//! * static per-shard noise (a plan-built engine's static schedule),
//! * static shared noise (pooled, with a persistent population slot),
//! * rotating panels under per-shard noise,
//! * rotating panels under windowed-shared noise (retirements and a
//!   windowed population synthesizer).
//!
//! Each property also pins that the replay honors the per-individual cap
//! (`within_cap`) whenever the engine does, and that ledger events are
//! well-formed: rounds non-decreasing, marginal ρ > 0, and cohort ids
//! present exactly on cohort-level lines.

use longsynth::{CumulativeConfig, CumulativeSynthesizer};
use longsynth_data::generators::iid_bernoulli;
use longsynth_data::{BitColumn, LongitudinalDataset};
use longsynth_dp::budget::Rho;
use longsynth_dp::rng::{rng_from_seed, RngFork};
use longsynth_engine::{
    AggregationPolicy, EngineObserver, PanelSchedule, ShardPlan, ShardedEngine, SlotRole,
};
use longsynth_obs::{BudgetLevel, MetricsRegistry};
use proptest::prelude::*;

const RHO: f64 = 0.5;

/// Attach a fresh observer (own registry, empty ledger) to `engine`.
fn observe<S>(engine: &mut ShardedEngine<S>) -> MetricsRegistry
where
    S: longsynth::ContinualSynthesizer,
{
    let registry = MetricsRegistry::new();
    engine.set_observer(EngineObserver::new(&registry));
    registry
}

/// The full replay-equivalence check: every budget line, both composed
/// levels, the lifetime totals, and the cap — all after this round.
fn assert_replay_exact<S>(engine: &ShardedEngine<S>, cap: Rho, round: usize)
where
    S: longsynth::ContinualSynthesizer,
{
    let observer = engine.observer().expect("observer attached");
    let budget = engine.budget();
    assert!(
        observer.replay_matches(&budget),
        "round {round}: ledger replay diverged from EngineBudget"
    );
    let replay = observer.ledger().replay();
    assert_eq!(
        replay.within_cap(cap.value()),
        budget.within_cap(cap),
        "round {round}: replay and budget disagree on the cap"
    );
}

/// Structural well-formedness of the append-only event log.
fn assert_events_well_formed(engine_observer: &EngineObserver) {
    let events = engine_observer.ledger().events();
    let mut last_round = 0usize;
    for event in &events {
        assert!(event.round >= last_round, "ledger rounds must not rewind");
        last_round = event.round;
        assert!(event.rho > 0.0, "budget spends are strictly positive");
        assert!(event.spent_after > 0.0);
        match event.level {
            BudgetLevel::Cohort => assert!(event.cohort.is_some()),
            BudgetLevel::Population => assert!(event.cohort.is_none()),
        }
    }
}

fn static_per_shard_engine(
    n: usize,
    shards: usize,
    horizon: usize,
    seed: u64,
) -> ShardedEngine<CumulativeSynthesizer> {
    let fork = RngFork::new(seed);
    ShardedEngine::new(ShardPlan::new(n, shards).unwrap(), |s, _| {
        let config = CumulativeConfig::new(horizon, Rho::new(RHO).unwrap()).unwrap();
        CumulativeSynthesizer::new(
            config,
            fork.subfork(s as u64),
            rng_from_seed(seed ^ s as u64),
        )
    })
    .unwrap()
}

fn static_shared_engine(
    n: usize,
    shards: usize,
    horizon: usize,
    seed: u64,
) -> ShardedEngine<CumulativeSynthesizer> {
    let fork = RngFork::new(seed);
    let policy = AggregationPolicy::shared();
    let (cohort_share, _) = policy.budget_shares(shards);
    let schedule = PanelSchedule::uniform(
        n,
        shards,
        horizon,
        Rho::new(RHO * cohort_share).unwrap(),
        Rho::new(RHO).unwrap(),
    )
    .unwrap();
    ShardedEngine::with_schedule(schedule, policy, |slot| {
        let config = CumulativeConfig::new(horizon, slot.budget).unwrap();
        let stream = match slot.role {
            SlotRole::Shard(s) => 1 + s as u64,
            SlotRole::Population => 0,
        };
        CumulativeSynthesizer::new(config, fork.subfork(stream), rng_from_seed(seed ^ stream))
    })
    .unwrap()
}

fn rotating_per_shard_engine(
    schedule: &PanelSchedule,
    seed: u64,
) -> ShardedEngine<CumulativeSynthesizer> {
    let fork = RngFork::new(seed);
    ShardedEngine::with_schedule(schedule.clone(), AggregationPolicy::PerShardNoise, |slot| {
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
    .unwrap()
}

fn rotating_shared_engine(
    schedule: &PanelSchedule,
    seed: u64,
) -> ShardedEngine<CumulativeSynthesizer> {
    let fork = RngFork::new(seed);
    let window = (0..schedule.cohorts())
        .map(|c| schedule.cohort(c).horizon)
        .max()
        .expect("schedules have cohorts");
    ShardedEngine::with_schedule(schedule.clone(), AggregationPolicy::shared(), |slot| {
        let config = CumulativeConfig::new(slot.horizon, slot.budget).unwrap();
        let (config, stream) = match slot.role {
            SlotRole::Shard(s) => (config, 1 + s as u64),
            SlotRole::Population => (config.with_window(window).unwrap(), 0),
        };
        CumulativeSynthesizer::new(config, fork.subfork(stream), rng_from_seed(seed ^ stream))
    })
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

fn cohort_panels(schedule: &PanelSchedule, seed: u64, p: f64) -> Vec<LongitudinalDataset> {
    (0..schedule.cohorts())
        .map(|c| {
            iid_bernoulli(
                &mut rng_from_seed(seed ^ (0x1ED6 + c as u64)),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Static per-shard noise: one ledger line per cohort, replay exact
    /// after every round of a plan-built engine.
    #[test]
    fn static_per_shard_ledger_replays_exactly(
        seed in any::<u64>(),
        n in 20usize..120,
        shards in 1usize..5,
        horizon in 2usize..7,
    ) {
        let data = iid_bernoulli(&mut rng_from_seed(seed ^ 0xB0), n, horizon, 0.3);
        let mut engine = static_per_shard_engine(n, shards, horizon, seed);
        observe(&mut engine);
        let cap = Rho::new(RHO).unwrap();
        for (round, column) in data.stream().enumerate() {
            engine.step(column.1).unwrap();
            assert_replay_exact(&engine, cap, round);
        }
        let observer = engine.observer().unwrap();
        assert_events_well_formed(observer);
        // Per-shard noise has no population level: every event is a
        // cohort line, one per shard per round.
        let events = observer.ledger().events();
        prop_assert_eq!(events.len(), shards * horizon);
        prop_assert!(events.iter().all(|e| e.level == BudgetLevel::Cohort));
        prop_assert_eq!(observer.ledger().replay().population_spent(), 0.0);
    }

    /// Static shared noise: cohort and population levels both move every
    /// round, and the pooled shared round replays exactly.
    #[test]
    fn static_shared_ledger_replays_exactly(
        seed in any::<u64>(),
        n in 20usize..120,
        shards in 1usize..5,
        horizon in 2usize..7,
    ) {
        let data = iid_bernoulli(&mut rng_from_seed(seed ^ 0xB1), n, horizon, 0.3);
        let mut engine = static_shared_engine(n, shards, horizon, seed);
        observe(&mut engine);
        let cap = Rho::new(RHO).unwrap();
        for (round, column) in data.stream().enumerate() {
            engine.step(column.1).unwrap();
            assert_replay_exact(&engine, cap, round);
        }
        let observer = engine.observer().unwrap();
        assert_events_well_formed(observer);
        let events = observer.ledger().events();
        // shards cohort lines + one population line per round — unless
        // the policy collapsed to a single unsharded stream (one shard),
        // where the whole budget stays on the lone cohort line.
        let levels = if engine.budget().has_population_level() { shards + 1 } else { shards };
        prop_assert_eq!(events.len(), levels * horizon);
        prop_assert_eq!(
            observer.ledger().replay().population_spent() > 0.0,
            engine.budget().has_population_level()
        );
    }

    /// Rotating panels, per-shard noise: cohorts enter and retire
    /// mid-stream; the ledger only ever gains lines for cohorts that
    /// actually spent, and replay stays exact through every transition.
    #[test]
    fn rotating_per_shard_ledger_replays_exactly(
        seed in any::<u64>(),
        horizon in 4usize..9,
        waves in 2usize..4,
    ) {
        let schedule = PanelSchedule::rotating(
            120,
            horizon,
            waves,
            Rho::new(0.2).unwrap(),
            Rho::new(0.2).unwrap(),
        )
        .unwrap();
        let panels = cohort_panels(&schedule, seed, 0.3);
        let mut engine = rotating_per_shard_engine(&schedule, seed);
        observe(&mut engine);
        let cap = schedule.total_budget();
        for round in 0..horizon {
            let column = active_column(&schedule, &panels, round);
            engine.step(&column).unwrap();
            assert_replay_exact(&engine, cap, round);
        }
        let observer = engine.observer().unwrap();
        assert_events_well_formed(observer);
        prop_assert!(observer.ledger().replay().within_cap(cap.value()));
    }

    /// Rotating panels under windowed-shared noise — the retirement path
    /// with a windowed population synthesizer — replays exactly too.
    #[test]
    fn rotating_windowed_shared_ledger_replays_exactly(
        seed in any::<u64>(),
        horizon in 4usize..8,
        waves in 2usize..4,
    ) {
        let schedule = rotating_shared_schedule(60, horizon, waves, 0.3);
        let panels = cohort_panels(&schedule, seed, 0.3);
        let mut engine = rotating_shared_engine(&schedule, seed);
        observe(&mut engine);
        let cap = schedule.total_budget();
        for round in 0..horizon {
            let column = active_column(&schedule, &panels, round);
            engine.step(&column).unwrap();
            assert_replay_exact(&engine, cap, round);
        }
        let observer = engine.observer().unwrap();
        assert_events_well_formed(observer);
        let replay = observer.ledger().replay();
        prop_assert!(replay.population_spent() > 0.0);
        prop_assert!(replay.within_cap(cap.value()));
    }
}

/// An engine with no observer keeps releasing bit-identically to an
/// instrumented twin — instrumentation never touches the RNG streams.
#[test]
fn observer_does_not_perturb_releases() {
    let (n, shards, horizon, seed) = (80, 3, 5, 11u64);
    let data = iid_bernoulli(&mut rng_from_seed(3), n, horizon, 0.3);
    let mut bare = static_shared_engine(n, shards, horizon, seed);
    let mut instrumented = static_shared_engine(n, shards, horizon, seed);
    observe(&mut instrumented);
    for (_, column) in data.stream() {
        let a = bare.step(column).unwrap();
        let b = instrumented.step(column).unwrap();
        assert_eq!(a, b);
    }
    assert_eq!(
        instrumented
            .observer()
            .unwrap()
            .registry()
            .counters()
            .iter()
            .find(|(name, _)| name == "engine_rounds_total")
            .map(|(_, v)| *v),
        Some(horizon as u64)
    );
}
