//! Exact discrete Gaussian sampling and facts about `N_Z(0, σ²)`.
//!
//! The discrete Gaussian with scale σ (Definition 2.2 of the paper) is
//! supported on the integers with `Pr[X = x] ∝ exp(-x²/(2σ²))`. Both of the
//! paper's algorithms add this noise — Algorithm 1 to histogram bins,
//! Algorithm 2/3 to tree-counter nodes — because zCDP composes tightly over
//! Gaussian noise (Theorem 2.1) and integer noise keeps the downstream
//! consistency arithmetic exact.
//!
//! Sampling follows Canonne–Kamath–Steinke (NeurIPS 2020, Algorithm 3):
//! rejection from a discrete Laplace proposal with integer scale
//! `t = ⌊σ⌋ + 1`, accepting with probability
//! `exp(-(|Y| - σ²/t)² / (2σ²))`. The acceptance rate is bounded below by a
//! constant (≈ 0.64 for large σ), so sampling is O(1) expected time.

use crate::bernoulli::sample_bernoulli_exp_neg;
use crate::fastcoin::{bernoulli_exp_neg_pool, laplace_magnitude_pool, uniform_bits, BitPool};
use crate::geometric::sample_discrete_laplace_int;
use rand::{Rng, RngCore};

/// A reusable `N_Z(0, σ²)` sampler with the per-σ² constants precomputed.
///
/// [`sample_discrete_gaussian`] re-derives `t = ⌊σ⌋ + 1`, `σ²/t`, and `2σ²`
/// on every call; when a synthesizer noises k bins per round for T rounds at
/// the same variance, that is k·T cold starts. Constructing a sampler once
/// hoists the derivation, and the engine's per-round noising becomes one
/// sampler reuse.
///
/// Two draw paths, with different stream contracts:
///
/// * [`sample`](Self::sample) is **bit-stream-identical** to
///   [`sample_discrete_gaussian`]: the same RNG words are consumed and the
///   same value returned, so replacing a scalar call site with a cached
///   sampler never changes a seeded output.
/// * [`fill`](Self::fill) draws from **exactly the same distribution** but
///   through the pooled-bit path of the internal `fastcoin` module, consuming roughly
///   an order of magnitude fewer RNG words per draw (one shared
///   `BitPool` amortizes word generation across the whole batch). Use it
///   for bulk noising where no historical stream is pinned; it is *not*
///   stream-interchangeable with `sample`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiscreteGaussianSampler {
    sigma2: f64,
    /// Discrete-Laplace proposal denominator `t = ⌊σ⌋ + 1`.
    t: u64,
    /// Chunk width for the pooled uniform over `[0, t)`.
    t_bits: u32,
    t_f: f64,
    /// `σ²/t`, the center of the acceptance kernel.
    offset: f64,
    /// `2σ²`, the acceptance kernel denominator.
    two_sigma2: f64,
}

impl DiscreteGaussianSampler {
    /// Precompute the sampling constants for variance `sigma2`.
    ///
    /// # Panics
    /// Panics if `sigma2` is not finite and strictly positive.
    pub fn new(sigma2: f64) -> Self {
        assert!(
            sigma2.is_finite() && sigma2 > 0.0,
            "discrete Gaussian variance must be positive and finite, got {sigma2}"
        );
        let sigma = sigma2.sqrt();
        let t = sigma.floor() as u64 + 1;
        let t_f = t as f64;
        DiscreteGaussianSampler {
            sigma2,
            t,
            t_bits: uniform_bits(t),
            t_f,
            offset: sigma2 / t_f,
            two_sigma2: 2.0 * sigma2,
        }
    }

    /// The variance σ² this sampler was built for.
    pub fn sigma2(&self) -> f64 {
        self.sigma2
    }

    /// Draw one value, bit-stream-identical to
    /// [`sample_discrete_gaussian`] at the same σ².
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> i64 {
        loop {
            let y = sample_discrete_laplace_int(rng, self.t);
            let y_abs = y.unsigned_abs() as f64;
            let diff = y_abs - self.offset;
            let gamma = diff * diff / self.two_sigma2;
            if sample_bernoulli_exp_neg(rng, gamma) {
                return y;
            }
        }
    }

    /// Fill `out` with independent draws via the pooled fast path.
    ///
    /// Identical distribution to [`sample`](Self::sample), different RNG
    /// word consumption (see the type-level docs). One `BitPool` is
    /// shared across the whole batch, so per-draw entropy overhead
    /// amortizes toward the information-theoretic floor.
    pub fn fill<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [i64]) {
        let mut pool = BitPool::new();
        for slot in out.iter_mut() {
            *slot = self.sample_pooled(rng, &mut pool);
        }
    }

    /// One draw through the pooled-coin machinery: the CKS rejection loop
    /// with the internal `fastcoin` module primitives replacing `gen_range`/`gen_bool`.
    #[inline]
    fn sample_pooled<R: RngCore + ?Sized>(&self, rng: &mut R, pool: &mut BitPool) -> i64 {
        loop {
            let y = laplace_int_pooled(rng, pool, self.t, self.t_bits, self.t_f);
            let y_abs = y.unsigned_abs() as f64;
            let diff = y_abs - self.offset;
            let gamma = diff * diff / self.two_sigma2;
            if bernoulli_exp_neg_pool(rng, pool, gamma) {
                return y;
            }
        }
    }
}

/// The two-sided discrete-Laplace proposal (CKS Algorithm 2, `s = 1`) over
/// the pooled primitives — same distribution as
/// [`sample_discrete_laplace_int`], lean word consumption.
#[inline]
fn laplace_int_pooled<R: RngCore + ?Sized>(
    rng: &mut R,
    pool: &mut BitPool,
    t: u64,
    t_bits: u32,
    t_f: f64,
) -> i64 {
    loop {
        let magnitude = laplace_magnitude_pool(rng, pool, t, t_bits, t_f);
        let negative = pool.take(rng, 1) == 1;
        if negative && magnitude == 0 {
            continue;
        }
        let magnitude = i64::try_from(magnitude).expect("discrete Laplace magnitude overflow");
        return if negative { -magnitude } else { magnitude };
    }
}

/// Sample from the discrete Gaussian `N_Z(0, σ²)`.
///
/// One-shot form of [`DiscreteGaussianSampler`]: repeated draws at the same
/// σ² should construct a sampler once instead.
///
/// ```
/// use longsynth_dp::discrete_gaussian::sample_discrete_gaussian;
/// use longsynth_dp::rng::rng_from_seed;
///
/// let mut rng = rng_from_seed(1);
/// let draws: Vec<i64> = (0..1000).map(|_| sample_discrete_gaussian(&mut rng, 4.0)).collect();
/// let mean = draws.iter().sum::<i64>() as f64 / 1000.0;
/// assert!(mean.abs() < 0.5); // zero-mean, σ = 2
/// ```
///
/// # Panics
/// Panics if `sigma2` is not finite and strictly positive.
pub fn sample_discrete_gaussian<R: Rng + ?Sized>(rng: &mut R, sigma2: f64) -> i64 {
    DiscreteGaussianSampler::new(sigma2).sample(rng)
}

/// Sub-Gaussian tail bound: `Pr[|X| ≥ λ] ≤ 2·exp(-λ²/(2σ²))`.
///
/// The discrete Gaussian is σ-sub-Gaussian (CKS 2020, Proposition 22 /
/// the paper's §3.1 padding analysis uses exactly this form).
pub fn tail_probability(sigma2: f64, lambda: f64) -> f64 {
    assert!(sigma2 > 0.0 && lambda >= 0.0);
    (2.0 * (-lambda * lambda / (2.0 * sigma2)).exp()).min(1.0)
}

/// The smallest λ with `2·exp(-λ²/(2σ²)) ≤ β`, i.e. the deviation that a
/// single draw exceeds with probability at most β.
pub fn tail_quantile(sigma2: f64, beta: f64) -> f64 {
    assert!(sigma2 > 0.0, "variance must be positive");
    assert!((0.0..1.0).contains(&beta) && beta > 0.0, "beta in (0,1)");
    (2.0 * sigma2 * (2.0 / beta).ln()).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    fn sample_moments(sigma2: f64, n: usize, seed: u64) -> (f64, f64) {
        let mut rng = rng_from_seed(seed);
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let x = sample_discrete_gaussian(&mut rng, sigma2) as f64;
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        (mean, sumsq / n as f64 - mean * mean)
    }

    #[test]
    fn moments_match_theory_across_scales() {
        // For σ² ≳ 1 the discrete Gaussian variance is within ~1e-9 of σ²,
        // so an empirical check against σ² with sampling slack is valid.
        for (seed, sigma2) in [(11u64, 0.5), (12, 1.0), (13, 4.0), (14, 25.0), (15, 400.0)] {
            let n = 60_000;
            let (mean, var) = sample_moments(sigma2, n, seed);
            let sd = sigma2.sqrt();
            // Mean: std-err = σ/√n; allow 5 sigma.
            assert!(
                mean.abs() < 5.0 * sd / (n as f64).sqrt() + 0.01,
                "sigma2={sigma2}: mean {mean}"
            );
            // Variance of the empirical variance ≈ 2σ⁴/n; allow ~6%.
            let expected = if sigma2 >= 1.0 {
                sigma2
            } else {
                // Small σ: discrete variance is strictly below σ²; just
                // check the upper bound.
                assert!(var <= sigma2 * 1.05, "sigma2={sigma2}: var {var}");
                continue;
            };
            assert!(
                (var - expected).abs() / expected < 0.06,
                "sigma2={sigma2}: var {var} vs {expected}"
            );
        }
    }

    #[test]
    fn symmetric_sign() {
        let mut rng = rng_from_seed(20);
        let (mut pos, mut neg) = (0u32, 0u32);
        for _ in 0..100_000 {
            match sample_discrete_gaussian(&mut rng, 9.0).cmp(&0) {
                std::cmp::Ordering::Greater => pos += 1,
                std::cmp::Ordering::Less => neg += 1,
                std::cmp::Ordering::Equal => {}
            }
        }
        let frac = f64::from(pos) / f64::from(pos + neg);
        assert!((frac - 0.5).abs() < 0.01, "sign fraction {frac}");
    }

    #[test]
    fn empirical_tail_within_bound() {
        let sigma2 = 16.0;
        let lambda = tail_quantile(sigma2, 0.01);
        let mut rng = rng_from_seed(21);
        let n = 100_000;
        let exceed = (0..n)
            .filter(|_| sample_discrete_gaussian(&mut rng, sigma2).unsigned_abs() as f64 >= lambda)
            .count();
        // Bound says ≤ 1%; empirical should respect it (with slack for
        // sampling error on a ~1% event).
        assert!(
            (exceed as f64) / (n as f64) < 0.013,
            "tail rate {} above bound",
            exceed as f64 / n as f64
        );
    }

    #[test]
    fn tail_quantile_inverts_probability() {
        for &beta in &[0.5, 0.1, 1e-3, 1e-9] {
            let lambda = tail_quantile(3.0, beta);
            let p = tail_probability(3.0, lambda);
            assert!((p - beta).abs() / beta < 1e-9, "beta={beta} p={p}");
        }
    }

    #[test]
    fn integer_support_is_obvious_but_draws_vary() {
        let mut rng = rng_from_seed(22);
        let draws: Vec<i64> = (0..100)
            .map(|_| sample_discrete_gaussian(&mut rng, 100.0))
            .collect();
        let distinct: std::collections::HashSet<_> = draws.iter().collect();
        assert!(distinct.len() > 10, "σ=10 should give many distinct values");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_variance_panics() {
        let mut rng = rng_from_seed(23);
        sample_discrete_gaussian(&mut rng, 0.0);
    }

    /// The cached sampler must consume the identical RNG stream as the
    /// scalar function: interleaving draws from one shared RNG across many
    /// σ² values must reproduce the scalar sequence exactly.
    #[test]
    fn sampler_is_stream_identical_to_scalar() {
        let sigma2s = [0.3, 1.0, 2.0, 7.5, 100.0, 1e6];
        let samplers: Vec<DiscreteGaussianSampler> = sigma2s
            .iter()
            .map(|&s2| DiscreteGaussianSampler::new(s2))
            .collect();
        let mut rng1 = rng_from_seed(30);
        let mut rng2 = rng_from_seed(30);
        for round in 0..200 {
            let idx = round % sigma2s.len();
            let a = samplers[idx].sample(&mut rng1);
            let b = sample_discrete_gaussian(&mut rng2, sigma2s[idx]);
            assert_eq!(a, b, "round {round}, sigma2 {}", sigma2s[idx]);
        }
    }

    /// Reusing one sampler across many draws matches constructing a fresh
    /// sampler per draw: construction has no sampling side effects.
    #[test]
    fn sampler_reuse_matches_fresh_construction() {
        let mut rng1 = rng_from_seed(31);
        let mut rng2 = rng_from_seed(31);
        let reused = DiscreteGaussianSampler::new(42.0);
        for i in 0..500 {
            let a = reused.sample(&mut rng1);
            let b = DiscreteGaussianSampler::new(42.0).sample(&mut rng2);
            assert_eq!(a, b, "draw {i}");
        }
    }

    #[test]
    fn fill_moments_match_theory_across_scales() {
        for (seed, sigma2) in [(41u64, 1.0), (42, 4.0), (43, 25.0), (44, 400.0)] {
            let sampler = DiscreteGaussianSampler::new(sigma2);
            let mut rng = rng_from_seed(seed);
            let mut buf = vec![0i64; 60_000];
            sampler.fill(&mut rng, &mut buf);
            let n = buf.len() as f64;
            let mean = buf.iter().map(|&x| x as f64).sum::<f64>() / n;
            let var = buf.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n;
            let sd = sigma2.sqrt();
            assert!(
                mean.abs() < 5.0 * sd / n.sqrt() + 0.01,
                "sigma2={sigma2}: mean {mean}"
            );
            assert!(
                (var - sigma2).abs() / sigma2 < 0.06,
                "sigma2={sigma2}: var {var} vs {sigma2}"
            );
        }
    }

    #[test]
    fn fill_sign_symmetry_and_tail() {
        let sigma2 = 16.0;
        let sampler = DiscreteGaussianSampler::new(sigma2);
        let mut rng = rng_from_seed(45);
        let mut buf = vec![0i64; 100_000];
        sampler.fill(&mut rng, &mut buf);
        let (mut pos, mut neg) = (0u32, 0u32);
        for &x in &buf {
            match x.cmp(&0) {
                std::cmp::Ordering::Greater => pos += 1,
                std::cmp::Ordering::Less => neg += 1,
                std::cmp::Ordering::Equal => {}
            }
        }
        let frac = f64::from(pos) / f64::from(pos + neg);
        assert!((frac - 0.5).abs() < 0.01, "sign fraction {frac}");
        let lambda = tail_quantile(sigma2, 0.01);
        let exceed = buf
            .iter()
            .filter(|x| x.unsigned_abs() as f64 >= lambda)
            .count();
        assert!(
            (exceed as f64) / (buf.len() as f64) < 0.013,
            "tail rate {}",
            exceed as f64 / buf.len() as f64
        );
    }

    /// The fast path and the scalar path agree distributionally: compare
    /// per-value frequencies at a small σ² where every bucket is populated.
    #[test]
    fn fill_distribution_matches_scalar_per_value() {
        let sigma2 = 2.0;
        let n = 200_000usize;
        let sampler = DiscreteGaussianSampler::new(sigma2);
        let mut fast_buf = vec![0i64; n];
        sampler.fill(&mut rng_from_seed(46), &mut fast_buf);
        let mut rng = rng_from_seed(47);
        let slow_buf: Vec<i64> = (0..n).map(|_| sampler.sample(&mut rng)).collect();
        let hist = |buf: &[i64]| {
            let mut h = std::collections::HashMap::new();
            for &x in buf {
                *h.entry(x.clamp(-5, 5)).or_insert(0usize) += 1;
            }
            h
        };
        let hf = hist(&fast_buf);
        let hs = hist(&slow_buf);
        for v in -5i64..=5 {
            let f = *hf.get(&v).unwrap_or(&0) as f64 / n as f64;
            let s = *hs.get(&v).unwrap_or(&0) as f64 / n as f64;
            // Each bucket has mass ≥ ~0.2% at σ² = 2; allow 4-sigma-ish
            // binomial slack on the difference of two empirical rates.
            let slack = 6.0 * ((f + s).max(0.001) / n as f64).sqrt();
            assert!((f - s).abs() < slack, "value {v}: fast {f} vs scalar {s}");
        }
    }
}
