//! Aggregation-policy acceptance properties.
//!
//! The load-bearing ones (ISSUE acceptance criteria):
//!
//! 1. `PerShardNoise` — the default — is **bit-exact** with the
//!    pre-policy engine semantics: the default constructor, the explicit
//!    policy constructor, and the hand-driven per-cohort composition all
//!    release identical bytes.
//! 2. `SharedNoise` at one shard is **bit-identical** to the unsharded
//!    synthesizer (the policy collapses; the whole budget stays on the
//!    single release stream).
//! 3. Two-level budget accounting: population + per-cohort spend composes
//!    to the configured total, every round, and both levels spend in
//!    lockstep.
//! 4. Statistically, on a seeded 4-shard 12-round run, shared noise keeps
//!    the mean absolute error of population-level window queries within
//!    1.25× the 1-shard baseline, while per-shard noise sits near the
//!    `√shards ≈ 2×` degradation the policy exists to remove.

use longsynth::{
    ContinualSynthesizer, CumulativeConfig, CumulativeSynthesizer, FixedWindowConfig,
    FixedWindowSynthesizer, Release,
};
use longsynth_data::generators::iid_bernoulli;
use longsynth_data::LongitudinalDataset;
use longsynth_dp::budget::Rho;
use longsynth_dp::rng::{rng_from_seed, RngFork};
use longsynth_engine::{
    AggregationPolicy, MergeRelease, PanelSchedule, ShardPlan, ShardableInput, ShardedEngine,
    SlotRole,
};
use longsynth_queries::window::quarterly_battery;
use longsynth_queries::{AccuracyComparison, ErrorSummary};
use proptest::prelude::*;

const POLICY_RHO: f64 = 0.05;

fn fixed_window_engine(
    n: usize,
    shards: usize,
    horizon: usize,
    window: usize,
    rho: f64,
    policy: AggregationPolicy,
    seed: u64,
) -> ShardedEngine<FixedWindowSynthesizer> {
    let (cohort_share, _) = policy.budget_shares(shards);
    let schedule = PanelSchedule::uniform(
        n,
        shards,
        horizon,
        Rho::new(rho * cohort_share).unwrap(),
        Rho::new(rho).unwrap(),
    )
    .unwrap();
    let fork = RngFork::new(seed);
    ShardedEngine::with_schedule(schedule, policy, |slot| {
        let config = FixedWindowConfig::new(horizon, window, slot.budget).unwrap();
        let stream = match slot.role {
            SlotRole::Shard(s) => s as u64,
            SlotRole::Population => 0xA110,
        };
        FixedWindowSynthesizer::new(config, fork.child(stream))
    })
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// (a) The explicit `PerShardNoise` policy is bit-identical to both
    /// the default constructor and the pre-refactor semantics (hand-driven
    /// per-cohort synthesizers + release concatenation).
    #[test]
    fn per_shard_policy_is_bit_exact_with_pre_refactor_merge(
        seed in any::<u64>(),
        n in 40usize..200,
        shards in 2usize..5,
        horizon in 3usize..8,
    ) {
        let data = iid_bernoulli(&mut rng_from_seed(seed ^ 0xA1), n, horizon, 0.4);
        let k = 2;
        let config = FixedWindowConfig::new(horizon, k, Rho::new(POLICY_RHO).unwrap()).unwrap();
        let plan = ShardPlan::new(n, shards).unwrap();
        let fork = RngFork::new(seed);
        let mut default_engine = ShardedEngine::new(plan.clone(), |s, _| {
            FixedWindowSynthesizer::new(config, fork.child(s as u64))
        })
        .unwrap();
        let rho = Rho::new(POLICY_RHO).unwrap();
        let mut policy_engine = ShardedEngine::with_schedule(
            PanelSchedule::uniform(n, shards, horizon, rho, rho).unwrap(),
            AggregationPolicy::PerShardNoise,
            |slot| {
                let SlotRole::Shard(s) = slot.role else {
                    panic!("per-shard noise must not request a population synthesizer");
                };
                assert_eq!(slot.budget, rho);
                FixedWindowSynthesizer::new(config, fork.child(s as u64))
            },
        )
        .unwrap();
        let mut manual: Vec<FixedWindowSynthesizer> = (0..shards)
            .map(|s| FixedWindowSynthesizer::new(config, fork.child(s as u64)))
            .collect();
        for (_, col) in data.stream() {
            let by_default = default_engine.step(col).unwrap();
            let by_policy = policy_engine.step(col).unwrap();
            let parts = col.split(&plan);
            let hand: Vec<Release> = manual
                .iter_mut()
                .zip(&parts)
                .map(|(synth, part)| synth.step(part).unwrap())
                .collect();
            let hand_merged = Release::merge(&hand).unwrap();
            prop_assert_eq!(&by_default, &by_policy);
            prop_assert_eq!(&by_policy, &hand_merged);
        }
    }

    /// (b) `SharedNoise` at one shard is bit-identical to the unsharded
    /// synthesizer under the same seed and full budget.
    #[test]
    fn shared_noise_at_one_shard_is_bit_identical_to_unsharded(
        seed in any::<u64>(),
        n in 30usize..200,
        horizon in 4usize..9,
        k in 1usize..4,
    ) {
        let data = iid_bernoulli(&mut rng_from_seed(seed ^ 0xA2), n, horizon, 0.35);
        let mut engine = fixed_window_engine(
            n, 1, horizon, k, POLICY_RHO, AggregationPolicy::shared(), seed,
        );
        prop_assert!(engine.population_synthesizer().is_none());
        let config = FixedWindowConfig::new(horizon, k, Rho::new(POLICY_RHO).unwrap()).unwrap();
        // Same stream the 1-shard slot factory used (shard 0).
        let mut direct = FixedWindowSynthesizer::new(config, RngFork::new(seed).child(0));
        for (_, col) in data.stream() {
            let merged = engine.step(col).unwrap();
            let plain = direct.step(col).unwrap();
            prop_assert_eq!(&merged, &plain);
        }
        prop_assert_eq!(engine.shard(0).synthetic(), direct.synthetic());
        prop_assert_eq!(
            engine.budget().spent().value(),
            direct.ledger().spent().value()
        );
    }

    /// (b') The cumulative family collapses identically at one shard.
    #[test]
    fn shared_noise_cumulative_one_shard_passthrough(
        seed in any::<u64>(),
        n in 30usize..150,
        horizon in 2usize..8,
    ) {
        let data = iid_bernoulli(&mut rng_from_seed(seed ^ 0xA3), n, horizon, 0.35);
        let rho = Rho::new(POLICY_RHO).unwrap();
        let config = CumulativeConfig::new(horizon, rho).unwrap();
        let schedule = PanelSchedule::uniform(n, 1, horizon, rho, rho).unwrap();
        let mut engine = ShardedEngine::with_schedule(schedule, AggregationPolicy::shared(), |slot| {
            assert_eq!(slot.budget, rho);
            CumulativeSynthesizer::new(config, RngFork::new(seed), rng_from_seed(seed))
        })
        .unwrap();
        let mut direct =
            CumulativeSynthesizer::new(config, RngFork::new(seed), rng_from_seed(seed));
        for (_, col) in data.stream() {
            prop_assert_eq!(&engine.step(col).unwrap(), &direct.step(col).unwrap());
        }
    }

    /// (c) Two-level budget accounting: every round, both levels spend in
    /// lockstep and compose to the same fraction of the configured total;
    /// at the horizon the composed total equals the configured budget.
    #[test]
    fn two_level_budget_sums_to_configured_total_every_round(
        seed in any::<u64>(),
        n in 60usize..200,
        shards in 2usize..5,
        horizon in 4usize..9,
    ) {
        let data = iid_bernoulli(&mut rng_from_seed(seed ^ 0xA4), n, horizon, 0.3);
        let mut engine = fixed_window_engine(
            n, shards, horizon, 2, POLICY_RHO, AggregationPolicy::shared(), seed,
        );
        // A reference unsharded ledger: what fraction of the budget a
        // single synthesizer has spent by each round.
        let config = FixedWindowConfig::new(horizon, 2, Rho::new(POLICY_RHO).unwrap()).unwrap();
        let mut reference = FixedWindowSynthesizer::new(config, rng_from_seed(seed));
        for (_, col) in data.stream() {
            engine.step(col).unwrap();
            reference.step(col).unwrap();
            let budget = engine.budget();
            // The invariant: population + per-cohort = configured total,
            // pro-rated by the rounds charged so far.
            let expected = reference.ledger().spent().value();
            let composed = budget.cohort_spent().value() + budget.population_spent().value();
            prop_assert!((composed - expected).abs() < 1e-9,
                "round {}: composed {composed} vs reference {expected}",
                engine.rounds_fed());
            prop_assert!((budget.spent().value() - composed).abs() < 1e-12);
            // The two levels spend in lockstep (same fraction of their
            // own totals).
            let cohort_fraction =
                budget.cohort_spent().value() / budget.cohort_total().value();
            let population_fraction =
                budget.population_spent().value() / budget.population_total().value();
            prop_assert!((cohort_fraction - population_fraction).abs() < 1e-9);
        }
        let budget = engine.budget();
        prop_assert!(budget.exhausted());
        prop_assert!((budget.total().value() - POLICY_RHO).abs() < 1e-9);
        prop_assert!((budget.spent().value() - POLICY_RHO).abs() < 1e-9);
    }
}

/// The statistical acceptance criterion: on seeded 4-shard, 12-round
/// fixed-window runs at the paper budget, the mean absolute error of
/// population-level window queries under shared noise stays within 1.25×
/// the 1-shard baseline (averaged over a few seeds to damp noise-draw
/// variance), while per-shard noise sits near the ~2× (`√4`) degradation.
#[test]
fn shared_noise_recovers_population_accuracy_at_four_shards() {
    const N: usize = 20_000;
    const HORIZON: usize = 12;
    const WINDOW: usize = 3;
    const RHO: f64 = 0.005;
    const SEEDS: [u64; 3] = [0xACE1, 0xACE2, 0xACE3];

    let panel = longsynth_data::generators::two_state_markov(
        &mut rng_from_seed(0x5EED),
        N,
        HORIZON,
        longsynth_data::generators::MarkovParams {
            initial_one: 0.11,
            stay_one: 0.82,
            enter_one: 0.022,
        },
    );

    let mean_error = |shards: usize, policy: AggregationPolicy| -> f64 {
        let mut total = 0.0;
        for seed in SEEDS {
            let mut engine = fixed_window_engine(N, shards, HORIZON, WINDOW, RHO, policy, seed);
            for (_, col) in panel.stream() {
                engine.step(col).unwrap();
            }
            total += population_mae(&engine, &panel, shards, WINDOW, HORIZON);
        }
        total / SEEDS.len() as f64
    };

    let baseline = mean_error(1, AggregationPolicy::PerShardNoise);
    let shared = mean_error(4, AggregationPolicy::shared());
    let per_shard = mean_error(4, AggregationPolicy::PerShardNoise);

    let mut comparison = AccuracyComparison::against(
        "1 shard",
        ErrorSummary {
            max: baseline,
            mean: baseline,
            rmse: baseline,
        },
    );
    comparison.add(
        "shared, 4 shards",
        ErrorSummary {
            max: shared,
            mean: shared,
            rmse: shared,
        },
    );
    comparison.add(
        "per-shard, 4 shards",
        ErrorSummary {
            max: per_shard,
            mean: per_shard,
            rmse: per_shard,
        },
    );
    let shared_ratio = comparison.mean_ratio("shared, 4 shards").unwrap();
    let per_shard_ratio = comparison.mean_ratio("per-shard, 4 shards").unwrap();
    assert!(
        shared_ratio <= 1.25,
        "shared-noise population MAE ratio {shared_ratio:.3} exceeds 1.25x \
         the 1-shard baseline\n{comparison}"
    );
    assert!(
        per_shard_ratio >= 1.4,
        "per-shard noise ratio {per_shard_ratio:.3} unexpectedly below the \
         √shards degradation this test pins (~2x)\n{comparison}"
    );
}

fn population_mae(
    engine: &ShardedEngine<FixedWindowSynthesizer>,
    panel: &LongitudinalDataset,
    shards: usize,
    window: usize,
    horizon: usize,
) -> f64 {
    let n = panel.individuals() as f64;
    let mut estimates = Vec::new();
    let mut truths = Vec::new();
    for t in (window - 1)..horizon {
        for query in quarterly_battery(window) {
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
    ErrorSummary::from_pairs(&estimates, &truths).mean
}
