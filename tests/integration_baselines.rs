//! The comparative claims: Algorithm 1 vs the recompute strawman, and
//! Algorithm 2 vs the §2.1 reduction.

// Threshold loops index by `b`/`t` to mirror the paper's notation.
#![allow(clippy::needless_range_loop)]

use longsynth::baseline::RecomputeBaseline;
use longsynth::reduction::ReductionSynthesizer;
use longsynth::{
    ContinualSynthesizer, CumulativeConfig, CumulativeSynthesizer, FixedWindowConfig,
    FixedWindowSynthesizer, PaddingPolicy,
};
use longsynth_data::generators::{two_state_markov, MarkovParams};
use longsynth_dp::budget::Rho;
use longsynth_dp::rng::{rng_from_seed, RngFork};
use longsynth_queries::cumulative::cumulative_counts;
use longsynth_queries::pattern::Pattern;

fn panel(n: usize, t: usize, seed: u64) -> longsynth_data::LongitudinalDataset {
    two_state_markov(
        &mut rng_from_seed(seed),
        n,
        t,
        MarkovParams {
            initial_one: 0.12,
            stay_one: 0.8,
            enter_one: 0.025,
        },
    )
}

#[test]
fn algorithm_1_beats_recompute_on_late_round_accuracy() {
    // Both spend total ρ; the strawman splits it across rounds *and* pays
    // the within-round composition again, so its per-round histograms are
    // noisier. Compare max pattern error at the final round, averaged over
    // seeds.
    let data = panel(5_000, 12, 100);
    let rho = Rho::new(0.01).unwrap();
    let mut alg1_err = 0.0;
    let mut strawman_err = 0.0;
    for seed in 0..5 {
        let config = FixedWindowConfig::new(12, 3, rho).unwrap();
        let mut alg1 = FixedWindowSynthesizer::new(config, rng_from_seed(200 + seed));
        let mut strawman = RecomputeBaseline::new(
            12,
            3,
            rho,
            PaddingPolicy::Recommended { beta: 0.05 },
            RngFork::new(300 + seed),
        )
        .unwrap();
        for (_, col) in data.stream() {
            alg1.step(col).unwrap();
            strawman.step(col).unwrap();
        }
        let t = 11;
        for pattern in Pattern::all(3) {
            let truth = longsynth_queries::window::window_histogram(&data, t, 3)
                [pattern.code() as usize] as f64
                / 5_000.0;
            let q = longsynth_queries::window::WindowQuery::pattern(pattern);
            alg1_err += (alg1.estimate_debiased(t, &q).unwrap() - truth).abs();
            strawman_err += (strawman.estimate_debiased_pattern(t, pattern).unwrap() - truth).abs();
        }
    }
    assert!(
        alg1_err < strawman_err,
        "Alg1 {alg1_err} not better than strawman {strawman_err}"
    );
}

#[test]
fn recompute_baseline_breaks_monotone_statistics_alg1_does_not() {
    let data = panel(1_000, 12, 101);
    let rho = Rho::new(0.005).unwrap();
    let mut strawman_violations = 0.0;
    for seed in 0..3 {
        let mut strawman =
            RecomputeBaseline::new(12, 3, rho, PaddingPolicy::None, RngFork::new(400 + seed))
                .unwrap();
        for (_, col) in data.stream() {
            strawman.step(col).unwrap();
        }
        strawman_violations += strawman.monotonicity_violation(2).unwrap();
    }
    assert!(
        strawman_violations > 0.0,
        "strawman should violate monotonicity somewhere across seeds"
    );

    // Algorithm 1's population is persistent: the same statistic is
    // structurally monotone (checked per record prefix).
    let config = FixedWindowConfig::new(12, 3, rho).unwrap();
    let mut alg1 = FixedWindowSynthesizer::new(config, rng_from_seed(500));
    for (_, col) in data.stream() {
        alg1.step(col).unwrap();
    }
    let mut prev = 0usize;
    for t in 3..=12 {
        let count = alg1
            .synthetic()
            .rows()
            .filter(|r| {
                let prefix: longsynth_data::BitStream = r.iter().take(t).collect();
                prefix.has_ones_run(2)
            })
            .count();
        assert!(count >= prev);
        prev = count;
    }
}

#[test]
fn algorithm_2_beats_the_k_equals_t_reduction() {
    // §2.1: the reduction "works" but pays a 2^k-style blow-up. Same data,
    // same total budget; compare worst-case fraction error over b ≤ 4.
    let horizon = 8;
    let data = panel(5_000, horizon, 102);
    let rho = Rho::new(0.05).unwrap();
    let truth: Vec<Vec<u64>> = (0..horizon).map(|t| cumulative_counts(&data, t)).collect();
    let mut alg2_err = 0.0f64;
    let mut reduction_err = 0.0f64;
    for seed in 0..3 {
        let config = CumulativeConfig::new(horizon, rho).unwrap();
        let mut alg2 =
            CumulativeSynthesizer::new(config, RngFork::new(600 + seed), rng_from_seed(seed));
        let mut reduction =
            ReductionSynthesizer::new(horizon, rho, rng_from_seed(700 + seed)).unwrap();
        for (_, col) in data.stream() {
            alg2.step(col).unwrap();
            reduction.step(col).unwrap();
        }
        for t in 0..horizon {
            for b in 1..=4usize.min(t + 1) {
                let tru = truth[t][b] as f64 / 5_000.0;
                alg2_err = alg2_err.max((alg2.estimate_fraction(t, b).unwrap() - tru).abs());
                reduction_err =
                    reduction_err.max((reduction.estimate_fraction(t, b).unwrap() - tru).abs());
            }
        }
    }
    assert!(
        reduction_err > 2.0 * alg2_err,
        "reduction {reduction_err} not clearly worse than Alg2 {alg2_err}"
    );
}
