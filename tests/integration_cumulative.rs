//! End-to-end integration of Algorithm 2: data generation → stream
//! counters → monotonization → record promotion, at realistic scales.

// Threshold loops index by `b`/`t` to mirror the paper's notation.
#![allow(clippy::needless_range_loop)]

use longsynth::{BudgetSplit, ContinualSynthesizer, CumulativeConfig, CumulativeSynthesizer};
use longsynth_counters::CounterKind;
use longsynth_data::sipp::SippConfig;
use longsynth_data::LongitudinalDataset;
use longsynth_dp::budget::Rho;
use longsynth_dp::rng::{rng_from_seed, RngFork};
use longsynth_queries::cumulative::{cumulative_counts, is_valid_threshold_matrix};

fn sipp_run(
    households: usize,
    rho: f64,
    seed: u64,
) -> (CumulativeSynthesizer, LongitudinalDataset) {
    let panel = SippConfig::small(households).simulate(&mut rng_from_seed(2000 + seed));
    let config = CumulativeConfig::new(12, Rho::new(rho).unwrap()).unwrap();
    let mut synth = CumulativeSynthesizer::new(config, RngFork::new(seed), rng_from_seed(seed));
    for (_, col) in panel.stream() {
        synth.step(col).unwrap();
    }
    (synth, panel)
}

#[test]
fn full_sipp_run_tracks_every_threshold() {
    // Paper parameters (n = 23 374, ρ = 0.005): every (b, t) fraction within
    // the synthesizer's own error bound at β = 0.01 per counter.
    let (synth, panel) = sipp_run(23_374, 0.005, 3);
    let n = panel.individuals() as f64;
    let bound = synth.error_bound_counts(0.01) / n;
    for t in 0..12 {
        let truth = cumulative_counts(&panel, t);
        for b in 1..=(t + 1) {
            let est = synth.estimate_fraction(t, b).unwrap();
            let tru = truth[b] as f64 / n;
            assert!(
                (est - tru).abs() <= bound,
                "t={t}, b={b}: |{est} - {tru}| > {bound}"
            );
        }
    }
    assert!(synth.ledger().exhausted());
}

#[test]
fn threshold_matrix_is_always_valid() {
    for seed in 0..3 {
        let (synth, _) = sipp_run(2_000, 0.002, 40 + seed);
        let matrix: Vec<Vec<i64>> = (0..12)
            .map(|t| synth.threshold_estimates(t).unwrap().to_vec())
            .collect();
        assert!(is_valid_threshold_matrix(&matrix), "seed {seed}");
    }
}

#[test]
fn synthetic_records_realise_the_estimates_exactly() {
    // The synthetic population is not a side-car: its weight distribution
    // *is* the released estimate matrix.
    let (synth, _) = sipp_run(5_000, 0.01, 5);
    for t in 0..12 {
        let estimates = synth.threshold_estimates(t).unwrap();
        let realised = cumulative_counts(synth.synthetic(), t);
        for b in 0..=(t + 1) {
            assert_eq!(
                realised.get(b).copied().unwrap_or(0) as i64,
                estimates[b],
                "t={t}, b={b}"
            );
        }
    }
}

#[test]
fn figure2_shape_proportion_three_months() {
    // The Fig. 2 series: zero for the first two months, then increasing,
    // tracking truth to within a couple of points at the paper's scale.
    let (synth, panel) = sipp_run(23_374, 0.005, 6);
    let n = panel.individuals() as f64;
    assert_eq!(synth.estimate_fraction(0, 3).unwrap(), 0.0);
    assert_eq!(synth.estimate_fraction(1, 3).unwrap(), 0.0);
    let mut prev = 0.0;
    for t in 2..12 {
        let est = synth.estimate_fraction(t, 3).unwrap();
        assert!(est >= prev, "t={t}: cumulative estimate decreased");
        prev = est;
        let tru = cumulative_counts(&panel, t)[3] as f64 / n;
        assert!((est - tru).abs() < 0.02, "t={t}: {est} vs {tru}");
    }
}

#[test]
fn counter_families_rank_as_expected_on_average() {
    // Worst-case threshold error, averaged over seeds: the tree should not
    // lose to the simple counter at T = 12 (they are close at such short
    // horizons, but simple must not win decisively).
    let panel = SippConfig::small(5_000).simulate(&mut rng_from_seed(70));
    let mut errors = std::collections::HashMap::new();
    for kind in [CounterKind::Tree, CounterKind::Simple, CounterKind::Honaker] {
        let mut total = 0.0;
        for seed in 0..6 {
            let config = CumulativeConfig::new(12, Rho::new(0.005).unwrap())
                .unwrap()
                .with_counter(kind);
            let mut synth =
                CumulativeSynthesizer::new(config, RngFork::new(80 + seed), rng_from_seed(seed));
            for (_, col) in panel.stream() {
                synth.step(col).unwrap();
            }
            let mut worst = 0i64;
            for t in 0..12 {
                let truth = cumulative_counts(&panel, t);
                let est = synth.threshold_estimates(t).unwrap();
                for b in 1..=(t + 1) {
                    worst = worst.max((est[b] - truth[b] as i64).abs());
                }
            }
            total += worst as f64;
        }
        errors.insert(format!("{kind}"), total);
    }
    let tree = errors["tree"];
    let simple = errors["simple"];
    let honaker = errors["honaker"];
    assert!(
        tree < 1.5 * simple,
        "tree {tree} lost decisively to simple {simple}"
    );
    assert!(
        honaker < 1.2 * tree,
        "honaker {honaker} worse than tree {tree}"
    );
}

#[test]
fn budget_splits_both_complete_and_differ() {
    let panel = SippConfig::small(1_000).simulate(&mut rng_from_seed(90));
    let mut outputs = Vec::new();
    for split in [BudgetSplit::Uniform, BudgetSplit::CorollaryB1] {
        let config = CumulativeConfig::new(12, Rho::new(0.01).unwrap())
            .unwrap()
            .with_split(split);
        let mut synth = CumulativeSynthesizer::new(config, RngFork::new(91), rng_from_seed(92));
        for (_, col) in panel.stream() {
            synth.step(col).unwrap();
        }
        assert!(synth.ledger().exhausted(), "{split:?}");
        outputs.push(synth.threshold_estimates(11).unwrap().to_vec());
    }
    // Same seeds, different noise scales → different releases.
    assert_ne!(outputs[0], outputs[1]);
}
