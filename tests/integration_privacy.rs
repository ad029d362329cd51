//! Privacy-accounting integration: the ledger bookkeeping that turns the
//! paper's composition proofs (Theorems 3.1, 4.1) into executable checks,
//! plus end-to-end determinism (a prerequisite for the seed-based privacy
//! audit in the bench suite).

use longsynth::{
    BudgetSplit, ContinualSynthesizer, CumulativeConfig, CumulativeSynthesizer, FixedWindowConfig,
    FixedWindowSynthesizer,
};
use longsynth_data::generators::iid_bernoulli;
use longsynth_dp::budget::Rho;
use longsynth_dp::rng::{rng_from_seed, RngFork};

#[test]
fn fixed_window_budget_composition_matches_theorem_3_1() {
    // R = T − k + 1 releases, each ρ/R: the ledger must land exactly on ρ.
    for (horizon, window) in [(12usize, 3usize), (8, 1), (6, 6), (20, 5)] {
        let data = iid_bernoulli(&mut rng_from_seed(1), 200, horizon, 0.5);
        let rho = Rho::new(0.005).unwrap();
        let config = FixedWindowConfig::new(horizon, window, rho).unwrap();
        let mut synth = FixedWindowSynthesizer::new(config, rng_from_seed(2));
        for (t, col) in data.stream() {
            synth.step(col).unwrap();
            // Budget is spent monotonically, release by release.
            let expected_steps = (t + 1).saturating_sub(window - 1);
            let expected = rho.value() * expected_steps as f64 / config.update_steps() as f64;
            assert!(
                (synth.ledger().spent().value() - expected).abs() < 1e-12,
                "T={horizon}, k={window}, t={t}"
            );
        }
        assert!(synth.ledger().exhausted());
    }
}

#[test]
fn cumulative_budget_composition_matches_theorem_4_1() {
    // T counters, shares summing to ρ, charged on first activation.
    for split in [BudgetSplit::Uniform, BudgetSplit::CorollaryB1] {
        let horizon = 10;
        let data = iid_bernoulli(&mut rng_from_seed(3), 100, horizon, 0.4);
        let rho = Rho::new(0.02).unwrap();
        let config = CumulativeConfig::new(horizon, rho)
            .unwrap()
            .with_split(split);
        let mut synth = CumulativeSynthesizer::new(config, RngFork::new(4), rng_from_seed(5));
        let mut last_spent = 0.0;
        for (_, col) in data.stream() {
            synth.step(col).unwrap();
            let spent = synth.ledger().spent().value();
            assert!(spent >= last_spent - 1e-15, "{split:?}: spend decreased");
            assert!(
                spent <= rho.value() * (1.0 + 1e-9),
                "{split:?}: overspent {spent}"
            );
            last_spent = spent;
        }
        assert!(synth.ledger().exhausted(), "{split:?}");
    }
}

#[test]
fn end_to_end_determinism_under_fixed_seeds() {
    // Identical seeds ⇒ identical releases, histograms, and records, for
    // both synthesizers. This is what makes the experiment harness's
    // repetition framework (and any privacy audit replaying seeds) sound.
    let data = iid_bernoulli(&mut rng_from_seed(6), 500, 12, 0.3);

    let fw = |seed: u64| {
        let config = FixedWindowConfig::new(12, 3, Rho::new(0.005).unwrap()).unwrap();
        let mut synth = FixedWindowSynthesizer::new(config, rng_from_seed(seed));
        for (_, col) in data.stream() {
            synth.step(col).unwrap();
        }
        (
            synth.synthetic().clone(),
            (2..12)
                .map(|t| synth.histogram_estimate(t).unwrap().to_vec())
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(fw(7), fw(7));
    assert_ne!(fw(7).0, fw(8).0);

    let cu = |seed: u64| {
        let config = CumulativeConfig::new(12, Rho::new(0.005).unwrap()).unwrap();
        let mut synth = CumulativeSynthesizer::new(config, RngFork::new(seed), rng_from_seed(seed));
        for (_, col) in data.stream() {
            synth.step(col).unwrap();
        }
        (
            synth.synthetic().clone(),
            (0..12)
                .map(|t| synth.threshold_estimates(t).unwrap().to_vec())
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(cu(9), cu(9));
    assert_ne!(cu(9).0, cu(10).0);
}

#[test]
fn zcdp_to_approx_dp_reporting() {
    // The conversion analysts quote: ρ = 0.005 at δ = 1e-6 is ε ≈ 0.53 —
    // the number a SIPP release would be described with.
    let rho = Rho::new(0.005).unwrap();
    let eps = rho.to_approx_dp(1e-6).unwrap();
    assert!((0.5..0.56).contains(&eps), "eps {eps}");
    // Composing the paper's three experiment budgets.
    let total = Rho::new(0.001)
        .unwrap()
        .compose(Rho::new(0.005).unwrap())
        .compose(Rho::new(0.05).unwrap());
    assert!((total.value() - 0.056).abs() < 1e-12);
}
