//! Engine equivalence properties.
//!
//! The load-bearing one: a **1-shard engine is a pass-through** — its merged
//! releases are bit-identical to the unsharded synthesizer under the same
//! seed. On top of that, a multi-shard engine must equal the hand-driven
//! composition: running each shard's synthesizer manually on its cohort
//! split and concatenating, in shard order. Under shared noise the
//! hand-driven reference sums the shards' unnoised aggregates and has the
//! population synthesizer privatize the sum once.

use longsynth::{
    ContinualSynthesizer, CumulativeConfig, CumulativeSynthesizer, FixedWindowConfig,
    FixedWindowSynthesizer, Release,
};
use longsynth_data::generators::iid_bernoulli;
use longsynth_data::{BitColumn, LongitudinalDataset};
use longsynth_dp::budget::Rho;
use longsynth_dp::rng::{rng_from_seed, RngFork};
use longsynth_engine::{
    AggregationPolicy, MergeAggregate, MergeRelease, PanelSchedule, ShardPlan, ShardableInput,
    ShardedEngine, SlotRole,
};
use proptest::prelude::*;

/// Drive a shared-noise engine over the uniform schedule of `plan` (cap
/// `rho`) and a hand composition of the same synthesizers side by side,
/// asserting bit-identical releases. The hand composition runs, per
/// round: each shard's `prepare` then `finalize(aggregate.clone())` on its
/// cohort split, `MergeAggregate::merge` of the aggregates in shard order,
/// then the population synthesizer's `finalize` of the sum.
/// `make(role, budget_share)` builds one slot at `rho * budget_share`.
fn assert_shared_engine_matches_hand<S>(
    data: &LongitudinalDataset,
    plan: &ShardPlan,
    rho: f64,
    make: impl Fn(SlotRole, f64) -> S,
) where
    S: ContinualSynthesizer<Input = BitColumn> + Send + 'static,
    S::Release: MergeRelease + Clone + PartialEq + std::fmt::Debug + Send + 'static,
    S::Aggregate: MergeAggregate + Clone + Send + 'static,
{
    let policy = AggregationPolicy::shared();
    let (shard_share, population_share) = policy.budget_shares(plan.shards());
    let population_share = population_share.expect("multi-shard shared noise");
    let schedule = PanelSchedule::uniform(
        plan.population(),
        plan.shards(),
        data.rounds(),
        Rho::new(rho * shard_share).unwrap(),
        Rho::new(rho).unwrap(),
    )
    .unwrap();
    let mut engine = ShardedEngine::with_schedule(schedule, policy, |slot| match slot.role {
        SlotRole::Shard(_) => make(slot.role, shard_share),
        SlotRole::Population => make(slot.role, population_share),
    })
    .unwrap();
    let mut shards: Vec<S> = (0..plan.shards())
        .map(|s| make(SlotRole::Shard(s), shard_share))
        .collect();
    let mut population = make(SlotRole::Population, population_share);
    for (_, col) in data.stream() {
        let merged = engine.step(col).unwrap();
        let aggregates: Vec<S::Aggregate> = shards
            .iter_mut()
            .zip(&col.split(plan))
            .map(|(synth, part)| {
                let aggregate = synth.prepare(part).unwrap();
                synth.finalize(aggregate.clone()).unwrap();
                aggregate
            })
            .collect();
        let hand = population
            .finalize(MergeAggregate::merge(aggregates).unwrap())
            .unwrap();
        assert_eq!(merged, hand);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// 1-shard fixed-window engine == unsharded synthesizer, exactly.
    #[test]
    fn one_shard_fixed_window_is_passthrough(
        seed in any::<u64>(),
        n in 30usize..200,
        horizon in 4usize..9,
        k in 1usize..4,
    ) {
        let data = iid_bernoulli(&mut rng_from_seed(seed ^ 0xF1), n, horizon, 0.35);
        let config = FixedWindowConfig::new(horizon, k, Rho::new(0.05).unwrap()).unwrap();
        let plan = ShardPlan::new(n, 1).unwrap();
        let mut engine =
            ShardedEngine::new(plan, |_, _| FixedWindowSynthesizer::new(config, rng_from_seed(seed)))
                .unwrap();
        let mut direct = FixedWindowSynthesizer::new(config, rng_from_seed(seed));
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

    /// 1-shard cumulative engine == unsharded synthesizer, exactly.
    #[test]
    fn one_shard_cumulative_is_passthrough(
        seed in any::<u64>(),
        n in 30usize..200,
        horizon in 2usize..9,
    ) {
        let data = iid_bernoulli(&mut rng_from_seed(seed ^ 0xF2), n, horizon, 0.35);
        let config = CumulativeConfig::new(horizon, Rho::new(0.05).unwrap()).unwrap();
        let plan = ShardPlan::new(n, 1).unwrap();
        let mut engine = ShardedEngine::new(plan, |_, _| {
            CumulativeSynthesizer::new(config, RngFork::new(seed), rng_from_seed(seed))
        })
        .unwrap();
        let mut direct =
            CumulativeSynthesizer::new(config, RngFork::new(seed), rng_from_seed(seed));
        for (_, col) in data.stream() {
            let merged = engine.step(col).unwrap();
            let plain = direct.step(col).unwrap();
            prop_assert_eq!(&merged, &plain);
        }
        prop_assert_eq!(engine.shard(0).synthetic(), direct.synthetic());
    }

    /// Multi-shard engine == hand-driven per-cohort synthesizers + merge.
    #[test]
    fn sharded_engine_equals_manual_composition(
        seed in any::<u64>(),
        n in 40usize..250,
        shards in 2usize..5,
        horizon in 3usize..8,
    ) {
        let data = iid_bernoulli(&mut rng_from_seed(seed ^ 0xF3), n, horizon, 0.4);
        let k = 2;
        let config = FixedWindowConfig::new(horizon, k, Rho::new(0.05).unwrap()).unwrap();
        let plan = ShardPlan::new(n, shards).unwrap();
        let fork = RngFork::new(seed);
        let mut engine = ShardedEngine::new(plan.clone(), |s, _| {
            FixedWindowSynthesizer::new(config, fork.child(s as u64))
        })
        .unwrap();
        let mut manual: Vec<FixedWindowSynthesizer> = (0..shards)
            .map(|s| FixedWindowSynthesizer::new(config, fork.child(s as u64)))
            .collect();
        for (_, col) in data.stream() {
            let merged = engine.step(col).unwrap();
            let parts = col.split(&plan);
            let hand: Vec<Release> = manual
                .iter_mut()
                .zip(&parts)
                .map(|(synth, part)| synth.step(part).unwrap())
                .collect();
            let hand_merged = Release::merge(&hand).unwrap();
            prop_assert_eq!(&merged, &hand_merged);
        }
        // Per-shard populations also agree with the engine's shards.
        for (s, synth) in manual.iter().enumerate() {
            prop_assert_eq!(engine.shard(s).synthetic(), synth.synthetic());
        }
    }

    /// Shared noise == hand composition (per-shard prepare + finalize,
    /// aggregate merge, one population finalize), bit for bit, for both
    /// the fixed-window and the cumulative family.
    #[test]
    fn shared_noise_engine_equals_manual_composition(
        seed in any::<u64>(),
        n in 40usize..250,
        shards in 2usize..5,
        horizon in 3usize..8,
    ) {
        let data = iid_bernoulli(&mut rng_from_seed(seed ^ 0xF5), n, horizon, 0.4);
        let plan = ShardPlan::new(n, shards).unwrap();
        let fork = RngFork::new(seed);
        let stream = |role: SlotRole| match role {
            SlotRole::Shard(s) => s as u64,
            SlotRole::Population => 0x5EED,
        };
        assert_shared_engine_matches_hand(&data, &plan, 0.05, |role, share| {
            let rho = Rho::new(0.05 * share).unwrap();
            let config = FixedWindowConfig::new(horizon, 2, rho).unwrap();
            FixedWindowSynthesizer::new(config, fork.child(stream(role)))
        });
        assert_shared_engine_matches_hand(&data, &plan, 0.05, |role, share| {
            let rho = Rho::new(0.05 * share).unwrap();
            let config = CumulativeConfig::new(horizon, rho).unwrap();
            let s = stream(role);
            CumulativeSynthesizer::new(config, fork.subfork(s), rng_from_seed(seed ^ s))
        });
    }

    /// Merged releases always cover the whole population, and the engine's
    /// budget is the parallel-composition max.
    #[test]
    fn merged_release_and_budget_invariants(
        seed in any::<u64>(),
        n in 50usize..300,
        shards in 1usize..6,
        horizon in 2usize..7,
    ) {
        let data = iid_bernoulli(&mut rng_from_seed(seed ^ 0xF4), n, horizon, 0.3);
        let config = CumulativeConfig::new(horizon, Rho::new(0.04).unwrap()).unwrap();
        let plan = ShardPlan::new(n, shards).unwrap();
        let fork = RngFork::new(seed);
        let mut engine = ShardedEngine::new(plan, |s, _| {
            CumulativeSynthesizer::new(config, fork.subfork(s as u64), fork.child(s as u64))
        })
        .unwrap();
        for (_, col) in data.stream() {
            let merged: BitColumn = engine.step(col).unwrap();
            prop_assert_eq!(merged.len(), n);
        }
        let budget = engine.budget();
        prop_assert!(budget.exhausted());
        // Parallel composition: overall spend equals one shard's rho.
        prop_assert!((budget.spent().value() - 0.04).abs() < 1e-9);
        // Sequential-sum view scales with the shard count.
        prop_assert!(
            (budget.spent_sequential().value() - 0.04 * shards as f64).abs() < 1e-9
        );
    }
}
