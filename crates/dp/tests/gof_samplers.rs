//! Goodness-of-fit tests for the exact samplers: each draws 200,000 values
//! under a fixed seed and compares their histogram with the exact PMF by a
//! chi-square test.
//!
//! The moment and symmetry tests inside the crate would pass a sampler
//! with the right mean and variance but the wrong shape; these check the
//! whole distribution. Bins hold one integer each where the expected count
//! is at least 5; each tail beyond those is pooled into one bin. The
//! critical value is the chi-square quantile at p ≈ 1e-6, so a correct
//! sampler fails about once in a million seeds. At these seeds a sign coin
//! biased to 0.51 fails both tests, and a Gaussian acceptance kernel with
//! `2σ²` scaled by 1.03 fails the Gaussian one.

use longsynth_dp::geometric::sample_discrete_laplace_int;
use longsynth_dp::rng::rng_from_seed;
use longsynth_dp::DiscreteGaussianSampler;
use std::collections::HashMap;

const DRAWS: usize = 200_000;

/// Standard normal quantile at upper tail ≈ 1e-6.
const Z_CRIT: f64 = 4.75;

/// Upper chi-square quantile with `df` degrees of freedom at the tail
/// `Z_CRIT` stands for (Wilson–Hilferty approximation).
fn chi_square_critical(df: usize) -> f64 {
    let k = df as f64;
    let h = 2.0 / (9.0 * k);
    k * (1.0 - h + Z_CRIT * h.sqrt()).powi(3)
}

/// Chi-square statistic and degrees of freedom of `draws` against `pmf`,
/// whose support is `lo..=hi` (mass outside it must be negligible).
fn chi_square(draws: &[i64], lo: i64, hi: i64, pmf: impl Fn(i64) -> f64) -> (f64, usize) {
    let stray = draws.iter().filter(|&&x| x < lo || x > hi).count();
    assert_eq!(stray, 0, "{stray} draws outside the support {lo}..={hi}");
    let n = draws.len() as f64;
    let mut observed: HashMap<i64, u64> = HashMap::new();
    for &x in draws {
        *observed.entry(x).or_default() += 1;
    }
    // (observed, expected) over a range of values.
    let bin = |xs: std::ops::RangeInclusive<i64>| {
        xs.fold((0.0, 0.0), |(o, e), x| {
            let seen = observed.get(&x).copied().unwrap_or(0) as f64;
            (o + seen, e + n * pmf(x))
        })
    };
    // The PMFs here are unimodal, so the values with expected count ≥ 5
    // form one run `first..=last`, each its own bin.
    let first = (lo..=hi)
        .find(|&x| n * pmf(x) >= 5.0)
        .expect("some value has expected count >= 5");
    let last = (lo..=hi).rev().find(|&x| n * pmf(x) >= 5.0).unwrap();
    let mut bins: Vec<(f64, f64)> = (first..=last).map(|x| bin(x..=x)).collect();
    // Each tail is pooled into one bin, or folded into the run's end on
    // its side when even the pooled tail expects fewer than 5.
    let ends = [0, bins.len() - 1];
    for (tail, end) in [bin(lo..=first - 1), bin(last + 1..=hi)]
        .into_iter()
        .zip(ends)
    {
        if tail.1 >= 5.0 {
            bins.push(tail);
        } else {
            bins[end].0 += tail.0;
            bins[end].1 += tail.1;
        }
    }
    let stat = bins.iter().map(|&(o, e)| (o - e) * (o - e) / e).sum();
    (stat, bins.len() - 1)
}

fn assert_fits(label: &str, draws: &[i64], lo: i64, hi: i64, pmf: impl Fn(i64) -> f64) {
    let (stat, df) = chi_square(draws, lo, hi, pmf);
    let critical = chi_square_critical(df);
    assert!(
        stat < critical,
        "{label}: chi-square {stat:.1} on {df} df exceeds {critical:.1}"
    );
}

#[test]
fn discrete_laplace_int_matches_its_pmf() {
    for (seed, t) in [(11u64, 1u64), (12, 3), (13, 10)] {
        let mut rng = rng_from_seed(seed);
        let draws: Vec<i64> = (0..DRAWS)
            .map(|_| sample_discrete_laplace_int(&mut rng, t))
            .collect();
        // Pr[X = x] = (1 − a)/(1 + a) · a^|x| with a = e^{−1/t}.
        let a = (-1.0 / t as f64).exp();
        let pmf = |x: i64| (1.0 - a) / (1.0 + a) * a.powf(x.unsigned_abs() as f64);
        let reach = 40 * t as i64 + 40;
        assert_fits(&format!("Lap_Z(t = {t})"), &draws, -reach, reach, pmf);
    }
}

#[test]
fn discrete_gaussian_matches_its_pmf() {
    for (seed, sigma2) in [(21u64, 1.0f64), (22, 100.0)] {
        let sampler = DiscreteGaussianSampler::new(sigma2);
        let mut rng = rng_from_seed(seed);
        let draws: Vec<i64> = (0..DRAWS).map(|_| sampler.sample(&mut rng)).collect();
        // Pr[X = x] ∝ exp(−x²/(2σ²)), normalised over |x| ≤ 40σ + 40.
        let reach = (40.0 * sigma2.sqrt()) as i64 + 40;
        let weight = |x: i64| (-((x * x) as f64) / (2.0 * sigma2)).exp();
        let total: f64 = (-reach..=reach).map(weight).sum();
        let pmf = |x: i64| weight(x) / total;
        assert_fits(&format!("N_Z(0, {sigma2})"), &draws, -reach, reach, pmf);
    }
}
