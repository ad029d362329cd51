//! Cross-crate property-based tests: the paper's structural invariants
//! under randomized data, parameters, and seeds.

// Threshold loops index by `b`/`t` to mirror the paper's notation.
#![allow(clippy::needless_range_loop)]

use longsynth::{
    ContinualSynthesizer, CumulativeConfig, CumulativeSynthesizer, FixedWindowConfig,
    FixedWindowSynthesizer, PaddingPolicy, SelectionStrategy,
};
use longsynth_data::generators::iid_bernoulli;
use longsynth_dp::budget::Rho;
use longsynth_dp::rng::{rng_from_seed, RngFork};
use longsynth_queries::cumulative::{cumulative_counts, is_valid_threshold_matrix};
use longsynth_queries::pattern::Pattern;
use longsynth_queries::window::window_histogram;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Algorithm 1, arbitrary data/seeds/k: the §3.1 consistency identity,
    /// population-size invariance, and non-negative targets hold in every
    /// released round.
    #[test]
    fn alg1_structural_invariants(
        seed in any::<u64>(),
        n in 50usize..400,
        horizon in 4usize..10,
        k in 1usize..4,
        p in 0.05f64..0.95,
        stratified in any::<bool>(),
    ) {
        prop_assume!(k <= horizon);
        let data = iid_bernoulli(&mut rng_from_seed(seed), n, horizon, p);
        let selection = if stratified {
            SelectionStrategy::Stratified
        } else {
            SelectionStrategy::Uniform
        };
        let config = FixedWindowConfig::new(horizon, k, Rho::new(0.05).unwrap())
            .unwrap()
            .with_selection(selection);
        let mut synth = FixedWindowSynthesizer::new(config, rng_from_seed(seed ^ 0xABCD));
        for (_, col) in data.stream() {
            synth.step(col).unwrap();
        }
        let n_star = synth.n_star() as i64;
        for t in (k - 1)..horizon {
            let now = synth.histogram_estimate(t).unwrap();
            prop_assert!(now.iter().all(|&v| v >= 0));
            prop_assert_eq!(now.iter().sum::<i64>(), n_star);
            // Bookkeeping matches the records.
            let realised: Vec<i64> =
                window_histogram(synth.synthetic(), t, k).iter().map(|&c| c as i64).collect();
            prop_assert_eq!(now, realised.as_slice());
            if t >= k {
                let prev = synth.histogram_estimate(t - 1).unwrap();
                for z in Pattern::all(k - 1) {
                    let ended = prev[z.prepend(false).code() as usize]
                        + prev[z.prepend(true).code() as usize];
                    let started = now[z.append(false).code() as usize]
                        + now[z.append(true).code() as usize];
                    prop_assert_eq!(ended, started);
                }
            }
        }
    }

    /// Algorithm 2, arbitrary data/seeds: the released matrix is always a
    /// valid threshold matrix, the records realise it exactly, and
    /// synthetic weights move by at most one per round.
    #[test]
    fn alg2_structural_invariants(
        seed in any::<u64>(),
        n in 50usize..300,
        horizon in 2usize..10,
        p in 0.05f64..0.95,
    ) {
        let data = iid_bernoulli(&mut rng_from_seed(seed), n, horizon, p);
        let config = CumulativeConfig::new(horizon, Rho::new(0.05).unwrap()).unwrap();
        let mut synth = CumulativeSynthesizer::new(
            config,
            RngFork::new(seed ^ 0xF00D),
            rng_from_seed(seed ^ 0xBEEF),
        );
        for (_, col) in data.stream() {
            synth.step(col).unwrap();
        }
        let matrix: Vec<Vec<i64>> = (0..horizon)
            .map(|t| synth.threshold_estimates(t).unwrap().to_vec())
            .collect();
        prop_assert!(is_valid_threshold_matrix(&matrix));
        for t in 0..horizon {
            let realised = cumulative_counts(synth.synthetic(), t);
            for b in 0..=(t + 1) {
                prop_assert_eq!(realised.get(b).copied().unwrap_or(0) as i64, matrix[t][b]);
            }
        }
        for record in synth.synthetic().rows() {
            let mut prev = 0usize;
            for t in 1..=record.len() {
                let w = record.prefix_weight(t);
                prop_assert!(w == prev || w == prev + 1);
                prev = w;
            }
        }
    }

    /// Noiseless synthesis is lossless for any data: the synthetic
    /// histograms equal the true histograms exactly, and debiased query
    /// answers equal the truth.
    #[test]
    fn noiseless_synthesis_is_exact(
        seed in any::<u64>(),
        n in 20usize..200,
        horizon in 3usize..8,
        p in 0.0f64..1.0,
    ) {
        let k = 3usize.min(horizon);
        let data = iid_bernoulli(&mut rng_from_seed(seed), n, horizon, p);
        let config = FixedWindowConfig::noiseless(horizon, k, Rho::new(1.0).unwrap())
            .unwrap()
            .with_padding(PaddingPolicy::None);
        let mut synth = FixedWindowSynthesizer::new(config, rng_from_seed(seed ^ 0xA));
        for (_, col) in data.stream() {
            synth.step(col).unwrap();
        }
        for t in (k - 1)..horizon {
            let truth = window_histogram(&data, t, k);
            let est = synth.histogram_estimate(t).unwrap();
            for (s, (&c, &e)) in truth.iter().zip(est).enumerate() {
                prop_assert_eq!(c as i64, e, "t={}, s={}", t, s);
            }
        }
    }

    /// Release streams are deterministic functions of (data, seed): the
    /// foundation for the repetition harness and privacy audits.
    #[test]
    fn releases_are_deterministic(seed in any::<u64>(), n in 20usize..100) {
        let data = iid_bernoulli(&mut rng_from_seed(seed), n, 6, 0.5);
        let run = || {
            let config = FixedWindowConfig::new(6, 2, Rho::new(0.1).unwrap()).unwrap();
            let mut synth = FixedWindowSynthesizer::new(config, rng_from_seed(seed));
            for (_, col) in data.stream() {
                synth.step(col).unwrap();
            }
            synth.synthetic().clone()
        };
        prop_assert_eq!(run(), run());
    }
}
