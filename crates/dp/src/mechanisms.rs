//! Noisy-count mechanisms: the "stage 1" building block of both algorithms.
//!
//! [`NoiseDistribution`] is the release noise of every mechanism: the
//! discrete Gaussian the paper uses throughout (ρ-zCDP, §2.2), or `None`
//! for noiseless test and baseline runs. Stream counters and synthesizers
//! take it as a parameter, so a noiseless run swaps it in without touching
//! algorithm code.

use crate::budget::Rho;
use crate::discrete_gaussian::{tail_quantile, DiscreteGaussianSampler};
use rand::Rng;

/// An integer-valued, symmetric, zero-mean noise distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NoiseDistribution {
    /// Discrete Gaussian `N_Z(0, σ²)`.
    DiscreteGaussian {
        /// Variance parameter σ².
        sigma2: f64,
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
            NoiseDistribution::None => NoiseSampler::None,
        }
    }

    /// (An upper bound on) the variance of one draw.
    pub fn variance(&self) -> f64 {
        match *self {
            NoiseDistribution::DiscreteGaussian { sigma2 } => sigma2,
            NoiseDistribution::None => 0.0,
        }
    }

    /// A deviation `λ` such that `Pr[|X| ≥ λ] ≤ β` for one draw.
    ///
    /// Gaussian: the sub-Gaussian quantile; `None`: 0.
    pub fn tail_quantile(&self, beta: f64) -> f64 {
        assert!(beta > 0.0 && beta < 1.0);
        match *self {
            NoiseDistribution::DiscreteGaussian { sigma2 } => tail_quantile(sigma2, beta),
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
            NoiseSampler::None => 0,
        }
    }

    /// Fill `out` with independent draws via the fast batched path
    /// (`None` writes zeros).
    pub fn fill<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [i64]) {
        match self {
            NoiseSampler::DiscreteGaussian(s) => s.fill(rng, out),
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
    }

    #[test]
    fn tail_quantiles_are_monotone_in_beta() {
        let g = NoiseDistribution::DiscreteGaussian { sigma2: 4.0 };
        assert!(g.tail_quantile(0.001) > g.tail_quantile(0.1));
    }
}
