//! The §2.1 reduction: cumulative time queries via fixed windows with
//! `k = T`.
//!
//! Setting the window width to the whole horizon and adopting the
//! convention `x_i^t = 0` for `t ≤ 0`, each cumulative query becomes a sum
//! of window-pattern queries: `c_b^t(x) = Σ_{s : |s| ≥ b} q_s^t(x)`. We
//! realise the convention operationally by prepending `T − 1` all-zero
//! columns to the stream and running Algorithm 1 with `k = T` over the
//! padded horizon `2T − 1`.
//!
//! The paper includes this reduction to show the problems are *related* —
//! and that the tailored Algorithm 2 is much better: the reduction pays a
//! `2^k`-style blow-up (here visible through the `2^T` histogram bins each
//! carrying `npad` padding and fresh noise). The `ablation_counters` bench
//! measures the gap; practicality caps `T ≤ 16`.

// Threshold loops index by `b` to mirror the paper's S_b / z_b notation.
#![allow(clippy::needless_range_loop)]

use crate::error::SynthError;
use crate::fixed_window::{FixedWindowConfig, FixedWindowSynthesizer};
use crate::padding::PaddingPolicy;
use crate::traits::ContinualSynthesizer;
use longsynth_data::BitColumn;
use longsynth_dp::budget::Rho;
use longsynth_dp::rng::StdDpRng;
use longsynth_queries::window::WindowQuery;
use rand::Rng;

/// Cumulative-query synthesizer obtained from Algorithm 1 with `k = T`.
pub struct ReductionSynthesizer<R: Rng = StdDpRng> {
    inner: FixedWindowSynthesizer<R>,
    horizon: usize,
    rounds_fed: usize,
}

impl<R: Rng> ReductionSynthesizer<R> {
    /// Create the reduction for a real horizon `T ≤ 16`.
    pub fn new(horizon: usize, rho: Rho, rng: R) -> Result<Self, SynthError> {
        if horizon == 0 || horizon > 16 {
            return Err(SynthError::InvalidConfig(format!(
                "the k = T reduction needs 1 <= T <= 16 (2^T bins), got {horizon}"
            )));
        }
        let padded_horizon = 2 * horizon - 1;
        let config = FixedWindowConfig::new(padded_horizon, horizon, rho)?
            .with_padding(PaddingPolicy::Recommended { beta: 0.05 });
        Ok(Self {
            inner: FixedWindowSynthesizer::new(config, rng),
            horizon,
            rounds_fed: 0,
        })
    }

    /// Feed the next true column (the zero prefix is injected
    /// automatically on the first call).
    pub fn step(&mut self, column: &BitColumn) -> Result<(), SynthError> {
        if self.rounds_fed >= self.horizon {
            return Err(SynthError::HorizonExceeded {
                horizon: self.horizon,
            });
        }
        if self.rounds_fed == 0 {
            let zeros = BitColumn::zeros(column.len());
            for _ in 0..self.horizon - 1 {
                self.inner.step(&zeros)?;
            }
        }
        self.inner.step(column)?;
        self.rounds_fed += 1;
        Ok(())
    }

    /// Estimate `c_b^t` — the fraction with Hamming weight ≥ `b` through
    /// 0-based round `t` — via the debiased pattern sum.
    pub fn estimate_fraction(&self, t: usize, b: usize) -> Result<f64, SynthError> {
        if t >= self.rounds_fed {
            return Err(SynthError::RoundNotReleased { round: t });
        }
        let padded_t = t + self.horizon - 1;
        let query = WindowQuery::at_least_m_ones(self.horizon, b as u32);
        self.inner.estimate_debiased(padded_t, &query)
    }

    /// Rounds fed so far (real rounds, not counting the zero prefix).
    pub fn rounds_fed(&self) -> usize {
        self.rounds_fed
    }

    /// The underlying Algorithm 1 instance (e.g. to inspect `npad` or the
    /// failure counters).
    pub fn inner(&self) -> &FixedWindowSynthesizer<R> {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use longsynth_data::generators::iid_bernoulli;
    use longsynth_dp::rng::rng_from_seed;
    use longsynth_queries::cumulative::cumulative_counts;

    #[test]
    fn noiseless_reduction_is_exact() {
        // With noise and padding off, the reduction must reproduce every
        // cumulative fraction exactly — this validates the zero-padding
        // convention and the pattern-weight summation.
        let n = 200;
        let horizon = 6;
        let data = iid_bernoulli(&mut rng_from_seed(1), n, horizon, 0.4);
        let config = FixedWindowConfig::noiseless(2 * horizon - 1, horizon, Rho::new(1.0).unwrap())
            .unwrap()
            .with_padding(PaddingPolicy::None);
        let mut synth = ReductionSynthesizer {
            inner: FixedWindowSynthesizer::new(config, rng_from_seed(2)),
            horizon,
            rounds_fed: 0,
        };
        for (_, col) in data.stream() {
            synth.step(col).unwrap();
        }
        for t in 0..horizon {
            let truth = cumulative_counts(&data, t);
            for b in 0..=t + 1 {
                let est = synth.estimate_fraction(t, b).unwrap();
                let tru = truth[b] as f64 / n as f64;
                assert!((est - tru).abs() < 1e-9, "t={t}, b={b}: {est} vs {tru}");
            }
        }
    }

    #[test]
    fn noisy_reduction_tracks_truth_loosely() {
        let n = 5_000;
        let horizon = 8;
        let data = iid_bernoulli(&mut rng_from_seed(3), n, horizon, 0.3);
        let mut synth =
            ReductionSynthesizer::new(horizon, Rho::new(5.0).unwrap(), rng_from_seed(4)).unwrap();
        for (_, col) in data.stream() {
            synth.step(col).unwrap();
        }
        // The reduction works, but with 2^8 bins the noise+padding mass is
        // large — only a loose band is expected even at ρ = 5.
        let truth = cumulative_counts(&data, 7);
        for b in [1usize, 3, 5] {
            let est = synth.estimate_fraction(7, b).unwrap();
            let tru = truth[b] as f64 / n as f64;
            assert!((est - tru).abs() < 0.2, "b={b}: {est} vs {tru}");
        }
    }

    #[test]
    fn validation() {
        assert!(ReductionSynthesizer::new(0, Rho::new(1.0).unwrap(), rng_from_seed(1)).is_err());
        assert!(ReductionSynthesizer::new(17, Rho::new(1.0).unwrap(), rng_from_seed(1)).is_err());
        let mut synth =
            ReductionSynthesizer::new(2, Rho::new(1.0).unwrap(), rng_from_seed(1)).unwrap();
        synth.step(&BitColumn::zeros(5)).unwrap();
        synth.step(&BitColumn::zeros(5)).unwrap();
        assert!(matches!(
            synth.step(&BitColumn::zeros(5)),
            Err(SynthError::HorizonExceeded { .. })
        ));
        assert!(matches!(
            synth.estimate_fraction(5, 1),
            Err(SynthError::RoundNotReleased { .. })
        ));
    }
}
