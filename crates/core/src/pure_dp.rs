//! Pure ε-DP configurations of the synthesizers.
//!
//! The paper works in zCDP throughout, but notes (Appendix A) that the
//! tree-based counter "was initially described using Laplace noise,
//! resulting \[in\] a pure (ε, 0)-DP algorithm". This module provides the
//! analogous pure-DP instantiation of Algorithm 1: per-update-step budget
//! `ε/R` with discrete Laplace bin noise of scale `R/ε`, and a padding rule
//! derived from the Laplace tail in place of Theorem 3.2's Gaussian one.
//!
//! Accounting: pure ε-DP implies `ε²/2`-zCDP, so the returned
//! configuration carries `ρ = ε²/2` and the synthesizer's `SpendTracker`
//! tracks that implied (conservative) zCDP budget; the *stated* guarantee
//! of a run under these configs is the pure `ε` one, by basic composition
//! of the `R` Laplace releases.

use crate::error::SynthError;
use crate::fixed_window::FixedWindowConfig;
use crate::padding::PaddingPolicy;
use longsynth_dp::budget::Epsilon;
use longsynth_dp::mechanisms::NoiseDistribution;

/// The padding for a pure-DP run: with per-step Laplace scale `R/ε`, a
/// union bound over the `2^k·R` draws gives
/// `npad = ⌈(R/ε)·ln(2·2^k·R/β) + √R⌉` (the `√R` absorbs the rounding
/// terms, mirroring the `1/√2`-per-step slack in Theorem 3.2).
pub fn pure_dp_npad(horizon: usize, window: usize, epsilon: Epsilon, beta: f64) -> u64 {
    assert!(window >= 1 && window <= horizon, "need 1 <= k <= T");
    assert!(beta > 0.0 && beta < 1.0, "beta in (0,1)");
    let r = (horizon - window + 1) as f64;
    let bins = (1u64 << window) as f64;
    let scale = r / epsilon.value();
    (scale * (2.0 * bins * r / beta).ln() + r.sqrt()).ceil() as u64
}

/// A pure ε-DP fixed-window configuration: Laplace bin noise of scale
/// `R/ε` per step (so the `R` steps compose to ε-DP) and Laplace-tail
/// padding at failure probability `beta`.
pub fn fixed_window_pure_dp(
    horizon: usize,
    window: usize,
    epsilon: Epsilon,
    beta: f64,
) -> Result<FixedWindowConfig, SynthError> {
    let rho = epsilon.to_zcdp();
    let config = FixedWindowConfig::new(horizon, window, rho)?;
    let r = config.update_steps() as f64;
    let per_step_scale = r / epsilon.value();
    Ok(config
        .with_noise_override(NoiseDistribution::DiscreteLaplace {
            scale: per_step_scale,
        })
        .with_padding(PaddingPolicy::Fixed(pure_dp_npad(
            horizon, window, epsilon, beta,
        ))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed_window::FixedWindowSynthesizer;
    use crate::traits::ContinualSynthesizer;
    use longsynth_data::generators::{two_state_markov, MarkovParams};
    use longsynth_dp::rng::rng_from_seed;
    use longsynth_queries::window::quarterly_battery;

    #[test]
    fn npad_rule_scales_sensibly() {
        let e = Epsilon::new(1.0).unwrap();
        let base = pure_dp_npad(12, 3, e, 0.05);
        // Tighter budget needs more padding; looser beta needs less.
        assert!(pure_dp_npad(12, 3, Epsilon::new(0.1).unwrap(), 0.05) > base);
        assert!(pure_dp_npad(12, 3, e, 0.5) < base);
        // Magnitude: scale = 10, ln(2·8·10/0.05) ≈ ln 3200 ≈ 8.07 → ~84.
        assert!((80..=90).contains(&base), "npad {base}");
    }

    #[test]
    fn pure_dp_run_is_feasible_and_accurate() {
        let data = two_state_markov(
            &mut rng_from_seed(1),
            10_000,
            12,
            MarkovParams {
                initial_one: 0.12,
                stay_one: 0.8,
                enter_one: 0.025,
            },
        );
        let epsilon = Epsilon::new(1.0).unwrap();
        let config = fixed_window_pure_dp(12, 3, epsilon, 0.05).unwrap();
        let mut synth = FixedWindowSynthesizer::new(config, rng_from_seed(2));
        for (_, col) in data.stream() {
            synth.step(col).unwrap();
        }
        assert_eq!(synth.failures().total(), 0, "padding must prevent clamps");
        // ε = 1 over 10k people: debiased quarterly answers within 1.5pp.
        for &t in &[2usize, 5, 8, 11] {
            for q in quarterly_battery(3) {
                let est = synth.estimate_debiased(t, &q).unwrap();
                let truth = q.evaluate_true(&data, t);
                assert!(
                    (est - truth).abs() < 0.015,
                    "t={t} {}: {est} vs {truth}",
                    q.name()
                );
            }
        }
        // The implied-zCDP ledger is fully spent.
        assert!(synth.ledger().exhausted());
        assert!((synth.ledger().total().value() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn validation_propagates() {
        let e = Epsilon::new(1.0).unwrap();
        assert!(fixed_window_pure_dp(3, 5, e, 0.05).is_err());
    }
}
