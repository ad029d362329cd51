//! Replay equivalence: the ingest tier is a *transparent* adapter.
//!
//! Property-pinned contract: take any pre-binned per-round column
//! sequence, explode it into timestamped events, push the events through
//! the full ingest pipeline (producer handles → bounded queue → watermark
//! sealing → binner), and drive the engine with
//! `run_from_ingest` — the release stream must be **bit-identical** to
//! feeding the original columns to `ShardedEngine::run` directly, under
//! static panels (per-shard and shared noise) and rotating schedules,
//! single-threaded or with concurrent producers. Event times sit at 2025
//! Unix-ms magnitudes so the equivalence also exercises the
//! large-timestamp arithmetic end to end.

use longsynth::{CumulativeConfig, CumulativeSynthesizer};
use longsynth_data::generators::iid_bernoulli;
use longsynth_data::{BitColumn, LongitudinalDataset};
use longsynth_dp::budget::Rho;
use longsynth_dp::rng::{rng_from_seed, RngFork};
use longsynth_engine::{
    AggregationPolicy, EngineError, IngestDriver, PanelSchedule, ShardPlan, ShardedEngine, SlotRole,
};
use longsynth_ingest::{
    BitRoundAssembler, Event, IngestConfig, IngestTier, ScheduledBitRoundAssembler, SealedRound,
    WindowSpec,
};
use proptest::prelude::*;
use std::thread;

/// 2025-era Unix-ms stream origin: the equivalence must hold where float
/// boundary math demonstrably fails.
const T0: i64 = 1_760_000_000_000;
const WIDTH_MS: i64 = 60_000;
const RHO: f64 = 0.05;

/// Deterministic in-window event-time offset for (round, individual).
fn jitter(round: usize, individual: usize) -> i64 {
    ((individual as i64 * 7_919) + (round as i64 * 104_729)) % WIDTH_MS
}

/// Explodes pre-binned columns into one timestamped event per
/// (round, individual) — payload = the individual's bit — and replays
/// them through the full ingest tier on the calling thread. The queue is
/// sized to hold everything so the replay is deterministic. Per-round
/// column lengths follow the input (a rotating schedule's active set
/// varies by round), via the schedule-aware assembler.
fn ingest_replay(columns: &[BitColumn]) -> Vec<SealedRound<BitColumn>> {
    let total: usize = columns.iter().map(|c| c.len()).sum();
    let spec = WindowSpec::tumbling(WIDTH_MS, T0).unwrap();
    let mut config = IngestConfig::new(spec);
    config.queue_cap = total.max(1);
    let sizes: Vec<usize> = columns.iter().map(|c| c.len()).collect();
    let tier = IngestTier::new(config, ScheduledBitRoundAssembler::new(sizes));
    let producer = tier.producer();
    for (round, column) in columns.iter().enumerate() {
        let open = spec.window(round as u64).open;
        for i in 0..column.len() {
            producer
                .send(Event {
                    time_ms: open + jitter(round, i),
                    individual: i as u32,
                    payload: column.get(i),
                })
                .unwrap();
        }
    }
    drop(producer);
    let mut rounds = tier.into_rounds().with_min_rounds(columns.len() as u64);
    let sealed: Vec<_> = rounds.by_ref().collect();
    assert_eq!(rounds.stats().late_events, 0);
    assert_eq!(rounds.stats().rejected_events, 0);
    sealed
}

/// Same explosion, but events only for set bits (`payload = true`),
/// partitioned across `producers` concurrent threads by individual range,
/// against a small bounded queue — the realistic deployment shape. The
/// watermark (min across producers) must keep every lane safe from
/// premature seals no matter how the threads interleave.
fn ingest_replay_threaded(columns: &[BitColumn], producers: usize) -> Vec<SealedRound<BitColumn>> {
    let spec = WindowSpec::tumbling(WIDTH_MS, T0).unwrap();
    let mut config = IngestConfig::new(spec);
    config.queue_cap = 64;
    let population = columns.iter().map(|c| c.len()).max().unwrap_or(0);
    let tier = IngestTier::new(config, BitRoundAssembler::new(population));

    let chunk = population.div_ceil(producers);
    let handles: Vec<_> = (0..producers)
        .map(|p| {
            let producer = tier.producer();
            let lo = (p * chunk).min(population);
            let hi = ((p + 1) * chunk).min(population);
            let columns = columns.to_vec();
            thread::spawn(move || {
                for (round, column) in columns.iter().enumerate() {
                    let open = spec.window(round as u64).open;
                    for i in lo..hi {
                        if column.get(i) {
                            producer
                                .send(Event {
                                    time_ms: open + jitter(round, i),
                                    individual: i as u32,
                                    payload: true,
                                })
                                .unwrap();
                        }
                    }
                    // Lanes with no set bits this round still vouch for
                    // the round's close, so the watermark can advance.
                    producer.heartbeat(open + WIDTH_MS - 1);
                }
            })
        })
        .collect();

    let mut rounds = tier.into_rounds().with_min_rounds(columns.len() as u64);
    let sealed: Vec<_> = rounds.by_ref().collect();
    for handle in handles {
        handle.join().unwrap();
    }
    assert_eq!(rounds.stats().late_events, 0);
    sealed
}

fn static_engine(
    n: usize,
    shards: usize,
    horizon: usize,
    seed: u64,
    shared: bool,
) -> ShardedEngine<CumulativeSynthesizer> {
    let fork = RngFork::new(seed);
    let plan = ShardPlan::new(n, shards).unwrap();
    if shared {
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
        ShardedEngine::with_schedule(schedule, policy, move |slot| {
            let config = CumulativeConfig::new(horizon, slot.budget).unwrap();
            let stream = match slot.role {
                SlotRole::Shard(s) => 1 + s as u64,
                SlotRole::Population => 0,
            };
            CumulativeSynthesizer::new(config, fork.subfork(stream), rng_from_seed(seed ^ stream))
        })
        .unwrap()
    } else {
        ShardedEngine::new(plan, move |s, _| {
            let config = CumulativeConfig::new(horizon, Rho::new(RHO).unwrap()).unwrap();
            CumulativeSynthesizer::new(
                config,
                fork.subfork(s as u64),
                rng_from_seed(seed ^ s as u64),
            )
        })
        .unwrap()
    }
}

fn rotating_engine(schedule: &PanelSchedule, seed: u64) -> ShardedEngine<CumulativeSynthesizer> {
    let fork = RngFork::new(seed);
    ShardedEngine::with_schedule(
        schedule.clone(),
        AggregationPolicy::PerShardNoise,
        move |slot| {
            let config = CumulativeConfig::new(slot.horizon, slot.budget).unwrap();
            let SlotRole::Shard(s) = slot.role else {
                unreachable!("per-shard noise never builds a population slot");
            };
            CumulativeSynthesizer::new(
                config,
                fork.subfork(s as u64),
                rng_from_seed(seed ^ s as u64),
            )
        },
    )
    .unwrap()
}

/// Pre-binned active-set column for one global round of a schedule.
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
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Static per-shard panel: ingest replay == lockstep, bit for bit.
    #[test]
    fn static_per_shard_ingest_replay_is_bit_identical(
        seed in any::<u64>(),
        n in 30usize..150,
        shards in 1usize..4,
        horizon in 2usize..7,
    ) {
        let data = iid_bernoulli(&mut rng_from_seed(seed ^ 0x16E5), n, horizon, 0.35);
        let columns: Vec<BitColumn> = data.stream().map(|(_, c)| c.clone()).collect();

        let mut lockstep = static_engine(n, shards, horizon, seed, false);
        let direct = lockstep.run(&columns).unwrap();

        let mut streamed = static_engine(n, shards, horizon, seed, false);
        let replayed = streamed.run_from_ingest(ingest_replay(&columns)).unwrap();

        prop_assert_eq!(&direct, &replayed);
        for s in 0..shards {
            prop_assert_eq!(
                lockstep.shard(s).synthetic(),
                streamed.shard(s).synthetic(),
                "shard {} synthetic population diverged", s
            );
        }
        prop_assert_eq!(
            lockstep.budget().spent().value(),
            streamed.budget().spent().value()
        );
    }

    /// Static shared-noise panel: the single population privatization
    /// sees identical summed aggregates either way.
    #[test]
    fn static_shared_noise_ingest_replay_is_bit_identical(
        seed in any::<u64>(),
        n in 30usize..150,
        shards in 1usize..4,
        horizon in 2usize..6,
    ) {
        let data = iid_bernoulli(&mut rng_from_seed(seed ^ 0x16E6), n, horizon, 0.3);
        let columns: Vec<BitColumn> = data.stream().map(|(_, c)| c.clone()).collect();

        let mut lockstep = static_engine(n, shards, horizon, seed, true);
        let direct = lockstep.run(&columns).unwrap();

        let mut streamed = static_engine(n, shards, horizon, seed, true);
        let replayed = streamed.run_from_ingest(ingest_replay(&columns)).unwrap();

        prop_assert_eq!(&direct, &replayed);
    }

    /// Rotating schedule: events address positions in each round's
    /// active-set layout; staggered entry/retirement must not perturb a
    /// single bit of the release stream.
    #[test]
    fn rotating_schedule_ingest_replay_is_bit_identical(
        seed in any::<u64>(),
        wave_size in 10usize..40,
        waves in 2usize..4,
        extra_rounds in 0usize..3,
    ) {
        // `rotating` requires waves <= global horizon, and divides the
        // population across `waves + horizon - 1` cohorts; keep it even so
        // every cohort has exactly `wave_size` members.
        let horizon = waves + extra_rounds;
        let cohorts = waves + horizon - 1;
        let population = wave_size * cohorts;
        let schedule = PanelSchedule::rotating(
            population,
            horizon,
            waves,
            Rho::new(RHO).unwrap(),
            Rho::new(RHO).unwrap(),
        ).unwrap();
        prop_assert_eq!(schedule.global_horizon(), horizon);
        prop_assert_eq!(schedule.cohorts(), cohorts);
        let panels: Vec<LongitudinalDataset> = (0..schedule.cohorts())
            .map(|c| iid_bernoulli(
                &mut rng_from_seed(seed ^ (0x16E7 + c as u64)),
                schedule.cohort_size(c),
                schedule.cohort(c).horizon,
                0.35,
            ))
            .collect();
        let columns: Vec<BitColumn> = (0..horizon)
            .map(|r| active_column(&schedule, &panels, r))
            .collect();

        let mut lockstep = rotating_engine(&schedule, seed);
        let direct = lockstep.run(&columns).unwrap();

        let mut streamed = rotating_engine(&schedule, seed);
        let replayed = streamed.run_from_ingest(ingest_replay(&columns)).unwrap();

        prop_assert_eq!(&direct, &replayed);
    }

    /// Concurrent producers over a small bounded queue, sparse events
    /// (set bits only): still bit-identical — arrival order, thread
    /// interleaving, and backpressure stalls are all invisible to the
    /// release stream.
    #[test]
    fn threaded_sparse_ingest_replay_is_bit_identical(
        seed in any::<u64>(),
        n in 30usize..120,
        shards in 1usize..4,
        horizon in 2usize..6,
        producers in 1usize..4,
    ) {
        let data = iid_bernoulli(&mut rng_from_seed(seed ^ 0x16E8), n, horizon, 0.4);
        let columns: Vec<BitColumn> = data.stream().map(|(_, c)| c.clone()).collect();

        let mut lockstep = static_engine(n, shards, horizon, seed, false);
        let direct = lockstep.run(&columns).unwrap();

        let mut streamed = static_engine(n, shards, horizon, seed, false);
        let replayed = streamed
            .run_from_ingest(ingest_replay_threaded(&columns, producers))
            .unwrap();

        prop_assert_eq!(&direct, &replayed);
    }
}

/// The clock contract: a sealed round that skips ahead of the engine's
/// round clock is rejected before any budget is spent.
#[test]
fn out_of_order_sealed_round_is_rejected() {
    let n = 16;
    let horizon = 3;
    let data = iid_bernoulli(&mut rng_from_seed(0xBAD5EED), n, horizon, 0.3);
    let columns: Vec<BitColumn> = data.stream().map(|(_, c)| c.clone()).collect();
    let mut sealed = ingest_replay(&columns);
    sealed.remove(1); // splice out round 1: rounds arrive 0, 2, …

    let mut engine = static_engine(n, 2, horizon, 7, false);
    let err = engine.run_from_ingest(sealed).unwrap_err();
    assert_eq!(
        err,
        EngineError::IngestOutOfOrder {
            expected: 1,
            actual: 2
        }
    );
    // Round 0 was stepped; the gap was caught before round 2 ran.
    assert_eq!(engine.rounds_fed(), 1);
}

/// `IngestDriver` drives rounds one at a time with the same contract.
#[test]
fn ingest_driver_steps_rounds_incrementally() {
    let n = 24;
    let horizon = 4;
    let data = iid_bernoulli(&mut rng_from_seed(0xD21F3), n, horizon, 0.35);
    let columns: Vec<BitColumn> = data.stream().map(|(_, c)| c.clone()).collect();
    let sealed = ingest_replay(&columns);

    let mut lockstep = static_engine(n, 2, horizon, 11, false);
    let direct = lockstep.run(&columns).unwrap();

    let mut streamed = static_engine(n, 2, horizon, 11, false);
    let mut driver = IngestDriver::new(&mut streamed);
    for (i, round) in sealed.iter().enumerate() {
        let release = driver.on_sealed(round).unwrap();
        assert_eq!(release, direct[i], "round {i} release diverged");
        assert_eq!(driver.rounds_driven(), i + 1);
    }
}
