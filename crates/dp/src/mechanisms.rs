//! Noisy-count mechanisms: the "stage 1" building block of both algorithms.
//!
//! [`NoiseDistribution`] abstracts over the two integer noise families used
//! in the continual-release literature — the discrete Gaussian (zCDP; what
//! the paper uses everywhere) and the discrete Laplace (pure ε-DP; what the
//! original Dwork et al. / Chan et al. tree counters used). Stream counters
//! and synthesizers are generic over it, which is what makes the
//! "swap in a different counter/noise" ablations of EXPERIMENTS.md possible
//! without touching algorithm code.

use crate::budget::{BudgetError, Rho};
use crate::discrete_gaussian::{tail_quantile, DiscreteGaussianSampler};
use crate::geometric::{discrete_laplace_variance, DiscreteLaplaceSampler};
use rand::Rng;

/// An integer-valued, symmetric, zero-mean noise distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NoiseDistribution {
    /// Discrete Gaussian `N_Z(0, σ²)`.
    DiscreteGaussian {
        /// Variance parameter σ².
        sigma2: f64,
    },
    /// Discrete Laplace with `Pr[X = x] ∝ exp(-|x|/scale)`.
    DiscreteLaplace {
        /// Scale parameter (larger = noisier).
        scale: f64,
    },
    /// No noise: the identity mechanism. Used by tests and by non-private
    /// baseline runs; never by a private synthesizer.
    None,
}

impl NoiseDistribution {
    /// Discrete Gaussian noise calibrated so one release of a
    /// sensitivity-`Δ` statistic satisfies ρ-zCDP: `σ² = Δ²/(2ρ)`.
    pub fn gaussian_for_zcdp(rho: Rho, sensitivity: f64) -> Self {
        let sigma2 = rho
            .gaussian_sigma2(sensitivity)
            .expect("calibration requires positive rho and sensitivity");
        NoiseDistribution::DiscreteGaussian { sigma2 }
    }

    /// Fallible variant of [`Self::gaussian_for_zcdp`].
    pub fn try_gaussian_for_zcdp(rho: Rho, sensitivity: f64) -> Result<Self, BudgetError> {
        Ok(NoiseDistribution::DiscreteGaussian {
            sigma2: rho.gaussian_sigma2(sensitivity)?,
        })
    }

    /// Discrete Laplace noise calibrated so one release of a
    /// sensitivity-`Δ` statistic satisfies ε-DP: `scale = Δ/ε`.
    pub fn laplace_for_pure_dp(epsilon: f64, sensitivity: f64) -> Self {
        assert!(epsilon > 0.0 && sensitivity > 0.0);
        NoiseDistribution::DiscreteLaplace {
            scale: sensitivity / epsilon,
        }
    }

    /// Draw one noise value.
    ///
    /// Repeated draws from the same distribution should construct a
    /// [`NoiseSampler`] via [`Self::sampler`] once instead: this
    /// convenience form re-derives the sampling constants on every call.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> i64 {
        self.sampler().sample(rng)
    }

    /// Precompute a reusable sampler for this distribution.
    ///
    /// The returned sampler's [`NoiseSampler::sample`] is bit-stream-
    /// identical to [`Self::sample`], so hoisting construction out of a
    /// per-round loop never changes a seeded output.
    pub fn sampler(&self) -> NoiseSampler {
        match *self {
            NoiseDistribution::DiscreteGaussian { sigma2 } => {
                NoiseSampler::DiscreteGaussian(DiscreteGaussianSampler::new(sigma2))
            }
            NoiseDistribution::DiscreteLaplace { scale } => {
                NoiseSampler::DiscreteLaplace(DiscreteLaplaceSampler::new(scale))
            }
            NoiseDistribution::None => NoiseSampler::None,
        }
    }

    /// (An upper bound on) the variance of one draw.
    pub fn variance(&self) -> f64 {
        match *self {
            NoiseDistribution::DiscreteGaussian { sigma2 } => sigma2,
            NoiseDistribution::DiscreteLaplace { scale } => discrete_laplace_variance(scale),
            NoiseDistribution::None => 0.0,
        }
    }

    /// A deviation `λ` such that `Pr[|X| ≥ λ] ≤ β` for one draw.
    ///
    /// Gaussian: the sub-Gaussian quantile; Laplace: the exponential-tail
    /// quantile `scale·ln(1/β)` (up to the discrete +1 slack, absorbed by
    /// using `ln(2/β)`); `None`: 0.
    pub fn tail_quantile(&self, beta: f64) -> f64 {
        assert!(beta > 0.0 && beta < 1.0);
        match *self {
            NoiseDistribution::DiscreteGaussian { sigma2 } => tail_quantile(sigma2, beta),
            NoiseDistribution::DiscreteLaplace { scale } => scale * (2.0 / beta).ln(),
            NoiseDistribution::None => 0.0,
        }
    }

    /// True when this distribution injects no randomness.
    pub fn is_none(&self) -> bool {
        matches!(self, NoiseDistribution::None)
    }
}

/// A [`NoiseDistribution`] with its per-distribution sampling constants
/// precomputed (one-time cold start instead of per draw).
///
/// Obtained from [`NoiseDistribution::sampler`]. Two draw paths:
/// [`sample`](Self::sample) is bit-stream-identical to
/// [`NoiseDistribution::sample`]; [`fill`](Self::fill) draws the identical
/// distribution through the entropy-lean batched path (different RNG word
/// consumption — not stream-interchangeable with `sample`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NoiseSampler {
    /// Cached discrete Gaussian sampler.
    DiscreteGaussian(DiscreteGaussianSampler),
    /// Cached discrete Laplace sampler.
    DiscreteLaplace(DiscreteLaplaceSampler),
    /// The identity mechanism: every draw is 0.
    None,
}

impl NoiseSampler {
    /// Draw one noise value (stream-identical to
    /// [`NoiseDistribution::sample`]).
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> i64 {
        match self {
            NoiseSampler::DiscreteGaussian(s) => s.sample(rng),
            NoiseSampler::DiscreteLaplace(s) => s.sample(rng),
            NoiseSampler::None => 0,
        }
    }

    /// Fill `out` with independent draws via the fast batched path
    /// (`None` writes zeros).
    pub fn fill<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [i64]) {
        match self {
            NoiseSampler::DiscreteGaussian(s) => s.fill(rng, out),
            NoiseSampler::DiscreteLaplace(s) => s.fill(rng, out),
            NoiseSampler::None => out.fill(0),
        }
    }

    /// True when this sampler injects no randomness.
    pub fn is_none(&self) -> bool {
        matches!(self, NoiseSampler::None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    #[test]
    fn gaussian_calibration() {
        let rho = Rho::new(0.5).unwrap();
        let noise = NoiseDistribution::gaussian_for_zcdp(rho, 1.0);
        match noise {
            NoiseDistribution::DiscreteGaussian { sigma2 } => {
                assert!((sigma2 - 1.0).abs() < 1e-12)
            }
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn laplace_calibration() {
        let noise = NoiseDistribution::laplace_for_pure_dp(0.5, 1.0);
        match noise {
            NoiseDistribution::DiscreteLaplace { scale } => assert!((scale - 2.0).abs() < 1e-12),
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn none_is_identity() {
        let mut rng = rng_from_seed(1);
        let sampler = NoiseDistribution::None.sampler();
        assert!((0..100).all(|_| sampler.sample(&mut rng) == 0));
        assert_eq!(NoiseDistribution::None.variance(), 0.0);
        assert_eq!(NoiseDistribution::None.tail_quantile(0.1), 0.0);
        assert!(NoiseDistribution::None.is_none());
    }

    #[test]
    fn cached_sampler_is_stream_identical_to_distribution_sample() {
        let dists = [
            NoiseDistribution::DiscreteGaussian { sigma2: 9.0 },
            NoiseDistribution::DiscreteLaplace { scale: 3.0 },
            NoiseDistribution::None,
        ];
        for d in dists {
            let sampler = d.sampler();
            let mut rng1 = rng_from_seed(40);
            let mut rng2 = rng_from_seed(40);
            for i in 0..200 {
                assert_eq!(
                    sampler.sample(&mut rng1),
                    d.sample(&mut rng2),
                    "{d:?} draw {i}"
                );
            }
        }
    }

    #[test]
    fn sampler_fill_none_is_zero_and_noise_is_not() {
        let mut rng = rng_from_seed(41);
        let mut buf = [7i64; 64];
        NoiseDistribution::None.sampler().fill(&mut rng, &mut buf);
        assert_eq!(buf, [0i64; 64]);
        assert!(NoiseDistribution::None.sampler().is_none());
        let g = NoiseDistribution::DiscreteGaussian { sigma2: 25.0 }.sampler();
        assert!(!g.is_none());
        g.fill(&mut rng, &mut buf);
        assert!(buf.iter().any(|&x| x != 0));
        let l = NoiseDistribution::DiscreteLaplace { scale: 4.0 }.sampler();
        l.fill(&mut rng, &mut buf);
        assert!(buf.iter().any(|&x| x != 0));
    }

    #[test]
    fn tail_quantiles_are_monotone_in_beta() {
        let g = NoiseDistribution::DiscreteGaussian { sigma2: 4.0 };
        let l = NoiseDistribution::DiscreteLaplace { scale: 2.0 };
        for d in [g, l] {
            assert!(d.tail_quantile(0.001) > d.tail_quantile(0.1));
        }
    }

    #[test]
    fn laplace_empirical_tail_within_quantile() {
        let d = NoiseDistribution::DiscreteLaplace { scale: 3.0 };
        let lambda = d.tail_quantile(0.05);
        let mut rng = rng_from_seed(3);
        let n = 50_000;
        let exceed = (0..n)
            .filter(|_| d.sample(&mut rng).unsigned_abs() as f64 >= lambda)
            .count();
        assert!(
            (exceed as f64) / (n as f64) <= 0.055,
            "rate {}",
            exceed as f64 / n as f64
        );
    }
}
