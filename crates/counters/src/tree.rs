//! The binary-tree aggregation mechanism — the paper's Algorithm 3.
//!
//! The implementation follows the paper's register formulation exactly:
//! registers `α_0, …, α_{L-1}` hold exact sums of dyadic blocks, and noisy
//! twins `α̃_j` are refreshed whenever a register is rewritten. At step `t`
//! (1-based) with lowest set bit `i = min{j : Bin_j(t) ≠ 0}`:
//!
//! 1. `α_i ← Σ_{j<i} α_j + zᵗ` (merge the completed sub-blocks),
//! 2. zero `α_j, α̃_j` for `j < i`,
//! 3. `α̃_i ← α_i + N_Z(0, σ²)`,
//! 4. output `S̃ᵗ = Σ_{j: Bin_j(t)=1} α̃_j`.
//!
//! Every stream element enters at most `L = ⌊log₂ T⌋ + 1` released register
//! values over the run, so per-node noise `σ² = L/(2ρ)` gives ρ-zCDP by
//! composition (Theorem A.1). Every prefix sum is a sum of at most
//! `popcount(t) ≤ L` noisy registers, giving the `O(√(log T)·σ)` error of
//! Theorem A.2.

use crate::{tree_levels, StreamCounter};
use longsynth_dp::budget::Rho;
use longsynth_dp::mechanisms::{NoiseDistribution, NoiseSampler};
use longsynth_dp::rng::StdDpRng;
use rand::Rng;

/// Binary-tree (register) stream counter. See module docs.
///
/// ```
/// use longsynth_counters::{tree::TreeCounter, StreamCounter};
/// use longsynth_dp::{budget::Rho, rng::rng_from_seed};
///
/// let mut counter = TreeCounter::for_zcdp(365, Rho::new(1.0).unwrap(), rng_from_seed(7));
/// let mut estimate = 0;
/// for day in 0..365u64 {
///     estimate = counter.feed(day % 2); // ~182 events total
/// }
/// assert!((estimate - 182).abs() < counter.error_bound(0.01) as i64);
/// ```
pub struct TreeCounter<R: Rng = StdDpRng> {
    horizon: usize,
    levels: usize,
    noise: NoiseDistribution,
    /// Cached sampler for `noise` (stream-identical, constants hoisted).
    sampler: NoiseSampler,
    /// Exact register sums `α_j`.
    alpha: Vec<i64>,
    /// Noisy registers `α̃_j`.
    alpha_noisy: Vec<i64>,
    steps: usize,
    rng: R,
}

impl<R: Rng> TreeCounter<R> {
    /// A tree counter with explicit per-node noise.
    pub fn new(horizon: usize, noise: NoiseDistribution, rng: R) -> Self {
        let levels = tree_levels(horizon);
        Self {
            horizon,
            levels,
            noise,
            sampler: noise.sampler(),
            alpha: vec![0; levels],
            alpha_noisy: vec![0; levels],
            steps: 0,
            rng,
        }
    }

    /// ρ-zCDP calibration: `σ² = L/(2ρ)` per node (Appendix A).
    pub fn for_zcdp(horizon: usize, rho: Rho, rng: R) -> Self {
        Self::new(horizon, crate::tree_node_noise(horizon, rho), rng)
    }

    /// Number of register levels `L`.
    pub fn levels(&self) -> usize {
        self.levels
    }
}

impl<R: Rng + Send> StreamCounter for TreeCounter<R> {
    fn feed(&mut self, z: u64) -> i64 {
        assert!(
            self.steps < self.horizon,
            "counter fed beyond its horizon {}",
            self.horizon
        );
        self.steps += 1;
        let t = self.steps;
        let i = t.trailing_zeros() as usize;
        debug_assert!(i < self.levels, "register index within L by t <= T");

        // Merge completed lower registers into register i and refresh noise.
        let merged: i64 = self.alpha[..i].iter().sum::<i64>() + z as i64;
        for j in 0..i {
            self.alpha[j] = 0;
            self.alpha_noisy[j] = 0;
        }
        self.alpha[i] = merged;
        self.alpha_noisy[i] = merged + self.sampler.sample(&mut self.rng);

        // S̃ᵗ = Σ over set bits of t.
        let mut estimate = 0i64;
        for j in 0..self.levels {
            if (t >> j) & 1 == 1 {
                estimate += self.alpha_noisy[j];
            }
        }
        estimate
    }

    fn steps(&self) -> usize {
        self.steps
    }

    fn horizon(&self) -> usize {
        self.horizon
    }

    fn error_bound(&self, beta: f64) -> f64 {
        // Each prefix sums ≤ L noisy nodes: variance ≤ L·σ². Union bound
        // over the T prefixes (the discrete Gaussian is sub-Gaussian).
        let variance = self.levels as f64 * self.noise.variance();
        (2.0 * variance * (2.0 * self.horizon as f64 / beta).ln()).sqrt()
    }

    fn kind(&self) -> &'static str {
        "tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use longsynth_dp::rng::rng_from_seed;

    #[test]
    fn noiseless_tree_is_exact() {
        // With zero noise the register algebra must reproduce every prefix
        // sum exactly — this pins down the Algorithm 3 bookkeeping.
        let mut c = TreeCounter::new(100, NoiseDistribution::None, rng_from_seed(1));
        let mut truth = 0i64;
        for t in 1..=100u64 {
            truth += (t % 7) as i64;
            assert_eq!(c.feed(t % 7), truth, "step {t}");
        }
    }

    #[test]
    fn register_count_is_l() {
        let c = TreeCounter::new(12, NoiseDistribution::None, rng_from_seed(1));
        assert_eq!(c.levels(), 4);
        let c = TreeCounter::new(16, NoiseDistribution::None, rng_from_seed(1));
        assert_eq!(c.levels(), 5);
    }

    #[test]
    fn tree_beats_simple_on_long_streams() {
        // At T = 2^14 the asymptotic gap (√T vs √log T) is unambiguous:
        // simple's worst error ≈ √T·σ ≈ 300+, tree's ≈ 50.
        let rho = Rho::new(0.5).unwrap();
        let horizon = 1 << 14;
        let (mut tree_err, mut simple_err) = (0.0, 0.0);
        for seed in 0..6 {
            let mut tree = TreeCounter::for_zcdp(horizon, rho, rng_from_seed(seed));
            let mut simple =
                crate::simple::SimpleCounter::for_zcdp(horizon, rho, rng_from_seed(500 + seed));
            let mut truth = 0i64;
            let (mut worst_tree, mut worst_simple) = (0.0f64, 0.0f64);
            for _ in 0..horizon {
                truth += 1;
                worst_tree = worst_tree.max((tree.feed(1) - truth).abs() as f64);
                worst_simple = worst_simple.max((simple.feed(1) - truth).abs() as f64);
            }
            tree_err += worst_tree;
            simple_err += worst_simple;
        }
        assert!(
            tree_err * 3.0 < simple_err,
            "tree {tree_err} not clearly better than simple {simple_err}"
        );
    }

    #[test]
    fn empirical_error_within_bound() {
        let rho = Rho::new(0.1).unwrap();
        let bound = TreeCounter::for_zcdp(128, rho, rng_from_seed(0)).error_bound(0.01);
        let mut worst = 0.0f64;
        for seed in 0..50 {
            let mut c = TreeCounter::for_zcdp(128, rho, rng_from_seed(700 + seed));
            let mut truth = 0i64;
            for t in 0..128u64 {
                truth += (t % 3) as i64;
                worst = worst.max((c.feed(t % 3) - truth).abs() as f64);
            }
        }
        assert!(worst <= bound, "worst {worst} above bound {bound}");
    }

    #[test]
    fn error_does_not_accumulate_like_a_random_walk() {
        // The tree's defining property: error at late times is comparable
        // to error at early times (both O(√log T)), unlike SimpleCounter.
        let sigma2 = 100.0;
        let noise = NoiseDistribution::DiscreteGaussian { sigma2 };
        let horizon = 1 << 12;
        let (mut early, mut late) = (0.0, 0.0);
        for seed in 0..40 {
            let mut c = TreeCounter::new(horizon, noise, rng_from_seed(seed));
            let mut truth = 0i64;
            for t in 0..horizon {
                truth += 1;
                let err = (c.feed(1) - truth).abs() as f64;
                if t < 256 {
                    early += err;
                } else if t >= horizon - 256 {
                    late += err;
                }
            }
        }
        // Allow some slack: popcount(t) varies, but no √T blow-up.
        assert!(
            late < 3.0 * early,
            "tree error grew like a walk: early {early}, late {late}"
        );
    }

    #[test]
    #[should_panic(expected = "beyond its horizon")]
    fn overfeeding_panics() {
        let mut c = TreeCounter::new(1, NoiseDistribution::None, rng_from_seed(2));
        c.feed(1);
        c.feed(1);
    }
}
