//! Property-based tests for the DP primitives.
//!
//! These check structural invariants (determinism, budget conservation,
//! bound monotonicity) over randomized parameter ranges. Distributional
//! correctness is covered by the statistical unit tests inside each module.

use longsynth_dp::bernoulli::sample_bernoulli_exp_neg;
use longsynth_dp::budget::Rho;
use longsynth_dp::discrete_gaussian::{sample_discrete_gaussian, tail_probability, tail_quantile};
use longsynth_dp::geometric::sample_discrete_laplace_int;
use longsynth_dp::mechanisms::NoiseDistribution;
use longsynth_dp::rng::{rng_from_seed, RngFork};
use longsynth_dp::tail::{
    corollary_3_3_debiased_bound, recommended_npad, theorem_3_2_lambda, FixedWindowParams,
};
use proptest::prelude::*;

proptest! {
    /// The same seed replays the same discrete Gaussian stream: the whole
    /// experiment harness's reproducibility rests on this.
    #[test]
    fn gaussian_sampler_is_deterministic(seed in any::<u64>(), sigma2 in 0.1f64..1000.0) {
        let mut a = rng_from_seed(seed);
        let mut b = rng_from_seed(seed);
        for _ in 0..8 {
            prop_assert_eq!(
                sample_discrete_gaussian(&mut a, sigma2),
                sample_discrete_gaussian(&mut b, sigma2)
            );
        }
    }

    /// Forked child streams are independent of the label order in which they
    /// are created.
    #[test]
    fn fork_children_order_independent(master in any::<u64>(), l1 in 0u64..1000, l2 in 0u64..1000) {
        prop_assume!(l1 != l2);
        let fork = RngFork::new(master);
        use rand::Rng;
        let a_then_b = {
            let x: u64 = fork.child(l1).gen();
            let y: u64 = fork.child(l2).gen();
            (x, y)
        };
        let b_then_a = {
            let y: u64 = fork.child(l2).gen();
            let x: u64 = fork.child(l1).gen();
            (x, y)
        };
        prop_assert_eq!(a_then_b, b_then_a);
    }

    /// Bernoulli(exp(-0)) is always true; the sampler never panics on the
    /// full finite non-negative range.
    #[test]
    fn bernoulli_exp_total_on_domain(seed in any::<u64>(), gamma in 0.0f64..50.0) {
        let mut rng = rng_from_seed(seed);
        let _ = sample_bernoulli_exp_neg(&mut rng, gamma);
    }

    /// Discrete Laplace magnitudes are symmetric in distribution: the
    /// sampler never returns "negative zero" paths that bias the sign.
    /// (Structural check: output type is a plain i64 and zero is reachable.)
    #[test]
    fn laplace_int_outputs_bounded_magnitude(seed in any::<u64>(), t in 1u64..50) {
        let mut rng = rng_from_seed(seed);
        for _ in 0..32 {
            let x = sample_discrete_laplace_int(&mut rng, t);
            // 4000·t is the hard loop bound inside the sampler.
            prop_assert!(x.unsigned_abs() < 4001 * t);
        }
    }

    /// Splitting a budget always recomposes to the original (Theorem 2.1
    /// run in reverse), for both uniform and Corollary B.1 splits.
    #[test]
    fn budget_splits_recompose(rho in 1e-6f64..10.0, parts in 1usize..64) {
        let budget = Rho::new(rho).unwrap();
        let uniform = budget.split_uniform(parts).unwrap();
        let sum: f64 = uniform.iter().map(|r| r.value()).sum();
        prop_assert!((sum - rho).abs() <= 1e-9 * rho);

        let b1 = budget.split_corollary_b1(parts).unwrap();
        let sum: f64 = b1.iter().map(|r| r.value()).sum();
        prop_assert!((sum - rho).abs() <= 1e-9 * rho);
        // Cor. B.1 weights are non-increasing in b.
        for w in b1.windows(2) {
            prop_assert!(w[0].value() >= w[1].value() - 1e-12 * rho);
        }
    }

    /// λ (Thm 3.2) is positive, finite, and npad = ⌈λ⌉ dominates it.
    #[test]
    fn lambda_and_npad_are_consistent(
        horizon in 2usize..64,
        window_off in 0usize..8,
        rho in 1e-4f64..1.0,
        beta in 1e-6f64..0.5,
    ) {
        let window = (window_off % horizon).max(1).min(horizon).min(10);
        let params = FixedWindowParams::new(horizon, window, Rho::new(rho).unwrap()).unwrap();
        let lambda = theorem_3_2_lambda(&params, beta);
        prop_assert!(lambda.is_finite() && lambda > 0.0);
        let npad = recommended_npad(&params, beta);
        prop_assert!(npad as f64 >= lambda);
        prop_assert!((npad as f64) < lambda + 1.0);
        // The debiased bound is exactly λ/n.
        let n = 1000;
        let debiased = corollary_3_3_debiased_bound(&params, beta, n);
        prop_assert!((debiased - lambda / n as f64).abs() < 1e-12);
    }

    /// Gaussian tail quantile inverts the tail probability on its domain.
    #[test]
    fn tail_quantile_round_trips(sigma2 in 0.01f64..1e4, beta in 1e-9f64..0.9) {
        let lambda = tail_quantile(sigma2, beta);
        let p = tail_probability(sigma2, lambda);
        prop_assert!((p - beta).abs() <= 1e-9 * beta.max(1e-9));
    }

    /// Noise distributions: variance non-negative, tail quantile decreasing
    /// in beta, sampling total.
    #[test]
    fn noise_distribution_contract(seed in any::<u64>(), sigma2 in 0.1f64..100.0) {
        let mut rng = rng_from_seed(seed);
        for dist in [
            NoiseDistribution::DiscreteGaussian { sigma2 },
            NoiseDistribution::None,
        ] {
            prop_assert!(dist.variance() >= 0.0);
            let _ = dist.sample(&mut rng);
            if !dist.is_none() {
                prop_assert!(dist.tail_quantile(0.01) >= dist.tail_quantile(0.1));
            }
        }
    }
}
