//! Property-based tests for the query classes.

use longsynth_data::generators::{iid_bernoulli, two_state_markov, MarkovParams};
use longsynth_data::LongitudinalDataset;
use longsynth_dp::rng::rng_from_seed;
use longsynth_queries::cumulative::{
    cumulative_counts, exact_weight_counts, is_valid_threshold_matrix, threshold_increment,
};
use longsynth_queries::pattern::Pattern;
use longsynth_queries::window::{quarterly_battery, window_histogram, WindowQuery};
use proptest::prelude::*;

fn random_panel(seed: u64, n: usize, t: usize) -> LongitudinalDataset {
    iid_bernoulli(&mut rng_from_seed(seed), n, t, 0.4)
}

/// Oracle for [`window_histogram`]: the per-individual loop it replaced.
fn window_histogram_oracle(d: &LongitudinalDataset, t: usize, k: usize) -> Vec<u64> {
    let mut histogram = vec![0u64; Pattern::count(k)];
    for i in 0..d.individuals() {
        histogram[d.suffix_pattern(i, t, k) as usize] += 1;
    }
    histogram
}

/// Oracle for [`cumulative_counts`]: the per-individual loop it replaced.
fn cumulative_counts_oracle(d: &LongitudinalDataset, t: usize) -> Vec<u64> {
    let rounds_elapsed = t + 1;
    let mut by_weight = vec![0u64; rounds_elapsed + 1];
    for i in 0..d.individuals() {
        by_weight[d.prefix_weight(i, t)] += 1;
    }
    let mut counts = vec![0u64; rounds_elapsed + 1];
    let mut acc = 0u64;
    for b in (0..=rounds_elapsed).rev() {
        acc += by_weight[b];
        counts[b] = acc;
    }
    counts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The word-sliced window histogram equals the per-individual loop.
    /// Panel sizes up to 200 records hit empty panels and partial final
    /// words; widths 1 to 17 cross both the ≤ 64-bin sliced branch (k ≤ 6)
    /// and the old width cap of 16.
    #[test]
    fn window_histogram_matches_per_individual_oracle(
        seed in any::<u64>(), n in 0usize..=200, p in 0.0f64..1.0,
    ) {
        let d = iid_bernoulli(&mut rng_from_seed(seed), n, 18, p);
        for k in 1..=17 {
            for round in [k - 1, 17] {
                prop_assert_eq!(
                    window_histogram(&d, round, k),
                    window_histogram_oracle(&d, round, k),
                    "n={} k={} round={}", n, k, round
                );
            }
        }
    }

    /// The word-walk threshold counts equal the per-individual loop.
    #[test]
    fn cumulative_counts_match_per_individual_oracle(
        seed in any::<u64>(), n in 0usize..=200, t in 1usize..20, p in 0.0f64..1.0,
    ) {
        let d = iid_bernoulli(&mut rng_from_seed(seed), n, t, p);
        for round in 0..t {
            prop_assert_eq!(
                cumulative_counts(&d, round),
                cumulative_counts_oracle(&d, round),
                "n={} round={}", n, round
            );
        }
    }
}

proptest! {
    /// Window histograms partition the population at every round.
    #[test]
    fn histograms_partition(seed in any::<u64>(), n in 1usize..60, t in 3usize..10, k in 1usize..4) {
        let d = random_panel(seed, n, t);
        for round in (k - 1)..t {
            let h = window_histogram(&d, round, k);
            prop_assert_eq!(h.len(), 1usize << k);
            prop_assert_eq!(h.iter().sum::<u64>(), n as u64);
        }
    }

    /// Consecutive window histograms satisfy the paper's §3.1 overlap
    /// identity on the *true* data: C^t_{0z} + C^t_{1z} = C^{t+1}_{z0} +
    /// C^{t+1}_{z1} for every overlap z.
    #[test]
    fn true_histograms_satisfy_consistency(seed in any::<u64>(), n in 1usize..60, t in 4usize..10) {
        let k = 3usize;
        let d = random_panel(seed, n, t);
        for round in (k - 1)..(t - 1) {
            let now = window_histogram(&d, round, k);
            let next = window_histogram(&d, round + 1, k);
            for z in Pattern::all(k - 1) {
                let ending_in_z =
                    now[z.prepend(false).code() as usize] + now[z.prepend(true).code() as usize];
                let starting_with_z =
                    next[z.append(false).code() as usize] + next[z.append(true).code() as usize];
                prop_assert_eq!(ending_in_z, starting_with_z, "z={} round={}", z, round);
            }
        }
    }

    /// Every battery query value lies in [0, 1] and the battery is ordered:
    /// ≥1 month ⊇ ≥2 months ⊇ all months, and ≥2 months ⊇ ≥2 consecutive.
    #[test]
    fn battery_is_ordered(seed in any::<u64>(), n in 1usize..80, t in 3usize..8) {
        let d = random_panel(seed, n, t);
        let battery = quarterly_battery(3);
        for round in 2..t {
            let v: Vec<f64> = battery.iter().map(|q| q.evaluate_true(&d, round)).collect();
            for &x in &v {
                prop_assert!((0.0..=1.0).contains(&x));
            }
            prop_assert!(v[0] >= v[1]);
            prop_assert!(v[1] >= v[2]);
            prop_assert!(v[2] >= v[3]);
        }
    }

    /// Lifting a query to a wider window never changes its value.
    #[test]
    fn lifting_is_value_preserving(
        seed in any::<u64>(), n in 1usize..50, t in 5usize..9,
        narrow in 1usize..3,
    ) {
        let wide = 4usize;
        let d = random_panel(seed, n, t);
        let q = WindowQuery::at_least_m_ones(narrow, 1);
        let lifted = q.lift_to_width(wide);
        for round in (wide - 1)..t {
            let direct = q.evaluate_true(&d, round);
            let h: Vec<f64> = window_histogram(&d, round, wide).iter().map(|&c| c as f64).collect();
            let via = lifted.evaluate_histogram(&h, n as f64);
            prop_assert!((direct - via).abs() < 1e-10, "round {}: {} vs {}", round, direct, via);
        }
    }

    /// Cumulative counts: S_0 = n, non-increasing in b, non-decreasing in t,
    /// and valid as a threshold matrix; exact weights partition n.
    #[test]
    fn cumulative_structure(seed in any::<u64>(), n in 1usize..60, t in 1usize..12) {
        let d = two_state_markov(
            &mut rng_from_seed(seed), n, t,
            MarkovParams { initial_one: 0.3, stay_one: 0.8, enter_one: 0.1 },
        );
        let matrix: Vec<Vec<i64>> = (0..t)
            .map(|round| cumulative_counts(&d, round).iter().map(|&c| c as i64).collect())
            .collect();
        for row in &matrix {
            prop_assert_eq!(row[0], n as i64);
        }
        prop_assert!(is_valid_threshold_matrix(&matrix));
        for round in 0..t {
            let exact = exact_weight_counts(&d, round);
            prop_assert_eq!(exact.iter().sum::<u64>(), n as u64);
        }
    }

    /// The increment streams telescope to the threshold counts — the
    /// representation S_b^t = Σ_{r≤t} z_b^r that Algorithm 2 is built on —
    /// and each stream sums to at most n (sensitivity 1 per individual).
    #[test]
    fn increments_telescope(seed in any::<u64>(), n in 1usize..40, t in 1usize..10) {
        let d = random_panel(seed, n, t);
        for b in 1..=t {
            let mut acc = 0u64;
            for round in 0..t {
                acc += threshold_increment(&d, round, b);
                let s = cumulative_counts(&d, round);
                prop_assert_eq!(acc, s.get(b).copied().unwrap_or(0));
            }
            prop_assert!(acc <= n as u64);
        }
    }

    /// Pattern surgeries: append ∘ drop_oldest enumerates exactly the
    /// successor windows, and prepend ∘ drop_oldest the predecessor windows.
    #[test]
    fn pattern_surgery_bijections(width in 1usize..10) {
        // Every width-k pattern has exactly two possible successors and
        // two possible predecessors, and successor sets partition.
        let mut successor_count = vec![0usize; 1usize << width];
        for p in Pattern::all(width) {
            let z = p.drop_oldest();
            for bit in [false, true] {
                successor_count[z.append(bit).code() as usize] += 1;
            }
        }
        // Each pattern is the successor of exactly two patterns (0z and 1z).
        for (code, &c) in successor_count.iter().enumerate() {
            prop_assert_eq!(c, 2, "code {}", code);
        }
    }
}
