//! The round contract, family by family: a pinned population size, one
//! `prepare` per `finalize`, and at most `T` rounds. Every rejection must
//! leave the synthesizer as it was, so the next valid call still succeeds.

use longsynth::baseline::RecomputeBaseline;
use longsynth::categorical::{CategoricalConfig, CategoricalSynthesizer};
use longsynth::{
    ContinualSynthesizer, CumulativeConfig, CumulativeSynthesizer, FixedWindowConfig,
    FixedWindowSynthesizer, PaddingPolicy, SynthError,
};
use longsynth_data::categorical::CategoricalColumn;
use longsynth_data::BitColumn;
use longsynth_dp::budget::Rho;
use longsynth_dp::rng::{rng_from_seed, RngFork};

const N: usize = 20;
const HORIZON: usize = 3;

/// Drive one family through each rejection of the contract. `twin` runs
/// in lockstep on a population one larger, so its aggregates fit each
/// round's shape but not the pinned population size.
fn check_round_contract<S>(
    family: &str,
    build: impl Fn() -> S,
    input: impl Fn(usize) -> S::Input,
    true_n: impl Fn(&S) -> Option<usize>,
) where
    S: ContinualSynthesizer,
    S::Aggregate: Clone,
{
    let state = |synth: &S| (synth.round(), true_n(synth));
    let (mut synth, mut twin) = (build(), build());
    synth.step(&input(N)).unwrap();
    twin.step(&input(N + 1)).unwrap();
    assert_eq!(state(&synth), (1, Some(N)), "{family}: round 1 pins n");

    // A wrong-length column, and an aggregate over a different population.
    assert!(
        matches!(
            synth.prepare(&input(N + 1)),
            Err(SynthError::ColumnSizeMismatch { expected: N, actual }) if actual == N + 1
        ),
        "{family}: prepare of a wrong-length column"
    );
    let foreign = twin.prepare(&input(N + 1)).unwrap();
    twin.finalize(foreign.clone()).unwrap();
    assert!(
        matches!(
            synth.finalize(foreign),
            Err(SynthError::ColumnSizeMismatch { expected: N, .. })
        ),
        "{family}: finalize of a wrong-population aggregate"
    );
    assert_eq!(state(&synth), (1, Some(N)), "{family}: size rejections");

    // A second prepare while the round awaits finalize.
    let aggregate = synth.prepare(&input(N)).unwrap();
    assert!(
        matches!(synth.prepare(&input(N)), Err(SynthError::OutOfPhase(_))),
        "{family}: double prepare"
    );
    assert_eq!(state(&synth), (1, Some(N)), "{family}: double prepare");
    synth.finalize(aggregate.clone()).unwrap();
    assert_eq!(state(&synth), (2, Some(N)), "{family}: round 2 completes");

    // Past the horizon both phases refuse.
    synth.step(&input(N)).unwrap();
    assert!(synth.is_sealed(), "{family}");
    assert!(
        matches!(
            synth.prepare(&input(N)),
            Err(SynthError::HorizonExceeded { horizon: HORIZON })
        ),
        "{family}: prepare past the horizon"
    );
    assert!(
        matches!(
            synth.finalize(aggregate),
            Err(SynthError::HorizonExceeded { horizon: HORIZON })
        ),
        "{family}: finalize past the horizon"
    );
    assert_eq!(state(&synth), (HORIZON, Some(N)), "{family}: sealed");
}

fn rho() -> Rho {
    Rho::new(0.1).unwrap()
}

#[test]
fn every_family_enforces_the_round_contract() {
    let bits = BitColumn::zeros;

    let config = FixedWindowConfig::new(HORIZON, 2, rho()).unwrap();
    check_round_contract(
        "fixed-window",
        || FixedWindowSynthesizer::new(config, rng_from_seed(1)),
        bits,
        |synth: &FixedWindowSynthesizer| synth.true_n(),
    );

    let config = CumulativeConfig::new(HORIZON, rho()).unwrap();
    check_round_contract(
        "cumulative",
        || CumulativeSynthesizer::new(config, RngFork::new(2), rng_from_seed(2)),
        bits,
        |synth: &CumulativeSynthesizer| synth.true_n(),
    );

    let config = config.with_window(2).unwrap();
    check_round_contract(
        "windowed cumulative",
        || CumulativeSynthesizer::new(config, RngFork::new(3), rng_from_seed(3)),
        bits,
        |synth: &CumulativeSynthesizer| synth.true_n(),
    );

    let config = CategoricalConfig::new(HORIZON, 2, 3, rho()).unwrap();
    check_round_contract(
        "categorical",
        || CategoricalSynthesizer::new(config, rng_from_seed(4)),
        |n| CategoricalColumn::new(vec![1; n], 3).unwrap(),
        |synth: &CategoricalSynthesizer| synth.true_n(),
    );

    check_round_contract(
        "baseline",
        || {
            RecomputeBaseline::new(HORIZON, 2, rho(), PaddingPolicy::Fixed(5), RngFork::new(5))
                .unwrap()
        },
        bits,
        RecomputeBaseline::true_n,
    );
}
