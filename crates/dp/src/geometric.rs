//! Exact discrete Laplace (two-sided geometric) sampling.
//!
//! The discrete Laplace distribution with integer scale `t ≥ 1`, written
//! `Lap_Z(t)`, is supported on the integers with `Pr[X = x] ∝ exp(-|x|/t)`.
//! It is the proposal distribution inside the discrete Gaussian rejection
//! sampler ([`crate::discrete_gaussian`]), following Canonne–Kamath–Steinke
//! (2020, Algorithm 2). It is not a release noise of its own: every
//! guarantee in the paper, and every mechanism here, is stated in ρ-zCDP
//! over discrete Gaussian noise.
//!
//! The sampler is exact given exact `Bernoulli(exp(-γ))` draws: it never
//! evaluates the Laplace density against a floating-point uniform.

use crate::bernoulli::{sample_bernoulli, sample_bernoulli_exp_neg};
use rand::Rng;

/// Sample from the discrete Laplace distribution `Pr[X = x] ∝ exp(-|x| / t)`
/// with integer denominator `t ≥ 1` (CKS 2020, Algorithm 2 with `s = 1`).
///
/// # Panics
/// Panics if `t == 0`.
pub fn sample_discrete_laplace_int<R: Rng + ?Sized>(rng: &mut R, t: u64) -> i64 {
    assert!(t >= 1, "discrete Laplace denominator must be >= 1");
    loop {
        // U ~ Uniform{0, …, t-1}, accepted with probability exp(-U/t):
        // together these produce the fractional part of an Exp(1) draw,
        // discretised to multiples of 1/t.
        let u = rng.gen_range(0..t);
        if !sample_bernoulli_exp_neg(rng, u as f64 / t as f64) {
            continue;
        }
        // V ~ Geometric(1 - exp(-1)): the integer part of the Exp(1) draw.
        let mut v: u64 = 0;
        while sample_bernoulli_exp_neg(rng, 1.0) {
            v += 1;
            // Pr[V ≥ 4000] = exp(-4000): unreachable, but bound the loop.
            assert!(v < 4000, "geometric tail overflow");
        }
        let magnitude = u + t * v;
        // Random sign; reject (negative, 0) so zero is not double-counted.
        let negative = sample_bernoulli(rng, 0.5);
        if negative && magnitude == 0 {
            continue;
        }
        let magnitude = i64::try_from(magnitude).expect("discrete Laplace magnitude overflow");
        return if negative { -magnitude } else { magnitude };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    /// Variance of `Lap_Z(t)`: `2·exp(-1/t) / (1 - exp(-1/t))²`.
    fn discrete_laplace_variance(t: f64) -> f64 {
        let a = (-1.0 / t).exp();
        2.0 * a / ((1.0 - a) * (1.0 - a))
    }

    fn moments(samples: &[i64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().map(|&x| x as f64).sum::<f64>() / n;
        let var = samples
            .iter()
            .map(|&x| {
                let d = x as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        (mean, var)
    }

    #[test]
    fn integer_scale_moments_match_theory() {
        for (seed, t) in [(1u64, 1u64), (2, 3), (3, 10)] {
            let mut rng = rng_from_seed(seed);
            let samples: Vec<i64> = (0..120_000)
                .map(|_| sample_discrete_laplace_int(&mut rng, t))
                .collect();
            let (mean, var) = moments(&samples);
            let theory = discrete_laplace_variance(t as f64);
            assert!(mean.abs() < 0.05 * (t as f64), "t={t}: mean {mean}");
            assert!(
                (var - theory).abs() / theory < 0.05,
                "t={t}: var {var} vs {theory}"
            );
        }
    }

    #[test]
    fn symmetric_distribution() {
        let mut rng = rng_from_seed(5);
        let mut pos = 0i64;
        let mut neg = 0i64;
        for _ in 0..100_000 {
            let x = sample_discrete_laplace_int(&mut rng, 4);
            match x.cmp(&0) {
                std::cmp::Ordering::Greater => pos += 1,
                std::cmp::Ordering::Less => neg += 1,
                std::cmp::Ordering::Equal => {}
            }
        }
        let frac = pos as f64 / (pos + neg) as f64;
        assert!((frac - 0.5).abs() < 0.01, "sign asymmetry: {frac}");
    }

    #[test]
    #[should_panic(expected = ">= 1")]
    fn zero_denominator_panics() {
        let mut rng = rng_from_seed(7);
        sample_discrete_laplace_int(&mut rng, 0);
    }
}
