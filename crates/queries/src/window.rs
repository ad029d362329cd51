//! Fixed time window queries (paper §2.1, §3, §5).
//!
//! The primitive statistic is the **window histogram**: at round `t` with
//! width `k`, the count `C_s^t` of individuals whose last-`k`-rounds window
//! equals each pattern `s`. Algorithm 1 preserves this histogram privately;
//! any query expressible as a linear combination of patterns of width
//! `k' ≤ k` is then answerable with *no additional privacy cost* — the
//! property §5 demonstrates with the four quarterly poverty queries.

use crate::pattern::Pattern;
use longsynth_data::{BitColumn, LongitudinalDataset};

/// The exact window histogram `(C_s^t)_{s ∈ {0,1}^k}` of `data` at round
/// `t` (0-based; requires `t + 1 ≥ k`), indexed by pattern code. Runs
/// word-sliced through [`BitColumn::pattern_counts`], which bounds `k` to
/// `1..=`[`Pattern::MAX_WIDTH`].
pub fn window_histogram(data: &LongitudinalDataset, t: usize, k: usize) -> Vec<u64> {
    assert!(t < data.rounds(), "round {t} not yet recorded");
    assert!(t + 1 >= k, "window underflows at t={t}, k={k}");
    BitColumn::pattern_counts(&data.columns()[t + 1 - k..=t])
}

/// A linear query over width-`k'` window patterns:
/// `q^t(D) = (1/n) Σ_i w[s(i, t)]` where `s(i, t)` is individual `i`'s
/// window pattern at round `t`.
///
/// ```
/// use longsynth_queries::window::WindowQuery;
/// use longsynth_data::generators::all_ones;
///
/// // "In state 1 at least 2 of the last 3 rounds".
/// let q = WindowQuery::at_least_m_ones(3, 2);
/// let panel = all_ones(100, 5);
/// assert_eq!(q.evaluate_true(&panel, 4), 1.0);
/// assert_eq!(q.support_size(), 4); // patterns 011, 101, 110, 111
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WindowQuery {
    width: usize,
    weights: Vec<f64>,
    name: String,
}

impl WindowQuery {
    /// A custom query from explicit per-pattern weights (length `2^width`).
    ///
    /// # Panics
    /// Panics if `weights.len() != 2^width` or any weight is non-finite.
    pub fn custom(width: usize, weights: Vec<f64>, name: impl Into<String>) -> Self {
        assert!((1..=Pattern::MAX_WIDTH).contains(&width));
        assert_eq!(weights.len(), Pattern::count(width), "weight vector size");
        assert!(
            weights.iter().all(|w| w.is_finite()),
            "weights must be finite"
        );
        Self {
            width,
            weights,
            name: name.into(),
        }
    }

    /// Indicator of a single pattern: the paper's `q_s^t`.
    pub fn pattern(s: Pattern) -> Self {
        let mut weights = vec![0.0; Pattern::count(s.width())];
        weights[s.code() as usize] = 1.0;
        Self {
            width: s.width(),
            weights,
            name: format!("pattern={s}"),
        }
    }

    /// Fraction with **at least `m` ones** in the window — e.g. "in poverty
    /// for at least one/two month(s) of the quarter" (Fig. 1, first two
    /// series, with `k = 3`, `m = 1, 2`).
    pub fn at_least_m_ones(width: usize, m: u32) -> Self {
        Self::from_predicate(width, |p| p.weight() >= m, format!("≥{m} ones of {width}"))
    }

    /// Fraction with **at least `m` consecutive ones** — "in poverty at
    /// least two consecutive months" (Fig. 1, third series, `m = 2`).
    pub fn at_least_m_consecutive_ones(width: usize, m: u32) -> Self {
        Self::from_predicate(
            width,
            |p| p.max_ones_run() >= m,
            format!("≥{m} consecutive ones of {width}"),
        )
    }

    /// Fraction with **all ones** — "in poverty all three months" (Fig. 1,
    /// fourth series).
    pub fn all_ones(width: usize) -> Self {
        Self::from_predicate(
            width,
            |p| p.weight() as usize == width,
            format!("all {width} ones"),
        )
    }

    /// Build from a pattern predicate (weight 1 where the predicate holds).
    pub fn from_predicate<F: Fn(Pattern) -> bool>(
        width: usize,
        predicate: F,
        name: impl Into<String>,
    ) -> Self {
        let weights = Pattern::all(width)
            .map(|p| f64::from(u8::from(predicate(p))))
            .collect();
        Self {
            width,
            weights,
            name: name.into(),
        }
    }

    /// Query width `k'`.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Human-readable name (used in experiment reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Per-pattern weights, indexed by code.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Number of patterns with non-zero weight (the "support size" that
    /// determines the debiasing offset `npad · |supp(q)|`).
    pub fn support_size(&self) -> usize {
        self.weights.iter().filter(|&&w| w != 0.0).count()
    }

    /// ℓ₂ norm of the weight vector (the `‖w‖₂` in the paper's linear-query
    /// error bound `Õ(2^k ‖w‖₂ √T / n)`).
    pub fn weight_l2_norm(&self) -> f64 {
        self.weights.iter().map(|w| w * w).sum::<f64>().sqrt()
    }

    /// Lift to a wider window `k ≥ k'`: a width-`k'` query evaluated at
    /// round `t` depends only on the last `k'` bits of the width-`k`
    /// window, so its weights replicate across the prepended bits. After
    /// lifting, the query can be answered from a width-`k` histogram.
    pub fn lift_to_width(&self, k: usize) -> WindowQuery {
        assert!(k >= self.width, "cannot lift to a narrower window");
        assert!(k <= Pattern::MAX_WIDTH);
        let weights = Pattern::all(k)
            .map(|p| self.weights[p.suffix(self.width).code() as usize])
            .collect();
        WindowQuery {
            width: k,
            weights,
            name: self.name.clone(),
        }
    }

    /// Evaluate against an explicit width-matching histogram of counts,
    /// normalising by `denominator` (the dataset size).
    pub fn evaluate_histogram(&self, histogram: &[f64], denominator: f64) -> f64 {
        self.evaluate_bins(histogram.len(), histogram.iter().copied(), denominator)
    }

    /// [`evaluate_histogram`](Self::evaluate_histogram) of an exact
    /// integer histogram, converting each count as it is read: the same
    /// `f64` bits, with no converted copy of the histogram.
    pub fn evaluate_counts(&self, counts: &[u64], denominator: f64) -> f64 {
        self.evaluate_bins(counts.len(), counts.iter().map(|&c| c as f64), denominator)
    }

    fn evaluate_bins(
        &self,
        bins: usize,
        counts: impl Iterator<Item = f64>,
        denominator: f64,
    ) -> f64 {
        assert_eq!(bins, self.weights.len(), "histogram width mismatch");
        assert!(denominator > 0.0);
        let total: f64 = self.weights.iter().zip(counts).map(|(w, c)| w * c).sum();
        total / denominator
    }

    /// Ground-truth value on the real dataset at round `t` (a fraction of
    /// `n`).
    pub fn evaluate_true(&self, data: &LongitudinalDataset, t: usize) -> f64 {
        let histogram = window_histogram(data, t, self.width);
        self.evaluate_counts(&histogram, data.individuals() as f64)
    }
}

/// The paper's §5 quarterly query battery (for window width `k`): at least
/// one month, at least two months, at least two *consecutive* months, and
/// all months in poverty.
pub fn quarterly_battery(width: usize) -> Vec<WindowQuery> {
    vec![
        WindowQuery::at_least_m_ones(width, 1),
        WindowQuery::at_least_m_ones(width, 2),
        WindowQuery::at_least_m_consecutive_ones(width, 2),
        WindowQuery::all_ones(width),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use longsynth_data::BitStream;

    /// 4 people, 4 rounds:
    ///   p0: 1 1 1 0
    ///   p1: 0 1 1 1
    ///   p2: 0 0 0 0
    ///   p3: 1 0 1 1
    fn sample() -> LongitudinalDataset {
        let rows: Vec<BitStream> = [
            [true, true, true, false],
            [false, true, true, true],
            [false, false, false, false],
            [true, false, true, true],
        ]
        .iter()
        .map(|bits| bits.iter().copied().collect())
        .collect();
        LongitudinalDataset::from_rows(&rows).unwrap()
    }

    #[test]
    fn histogram_counts_patterns() {
        let d = sample();
        // Windows at t=2, k=3: p0=111(7), p1=011(3), p2=000(0), p3=101(5).
        let h = window_histogram(&d, 2, 3);
        assert_eq!(h.iter().sum::<u64>(), 4);
        assert_eq!(h[7], 1);
        assert_eq!(h[3], 1);
        assert_eq!(h[0], 1);
        assert_eq!(h[5], 1);
        // Windows at t=3, k=3: p0=110(6), p1=111(7), p2=000(0), p3=011(3).
        let h = window_histogram(&d, 3, 3);
        assert_eq!(h[6], 1);
        assert_eq!(h[7], 1);
        assert_eq!(h[0], 1);
        assert_eq!(h[3], 1);
    }

    #[test]
    fn quarterly_battery_ground_truth() {
        let d = sample();
        let battery = quarterly_battery(3);
        // At t=2 (patterns 111, 011, 000, 101):
        // ≥1 one: 3/4; ≥2 ones: 3/4; ≥2 consecutive: 2/4 (111, 011); all: 1/4.
        let values: Vec<f64> = battery.iter().map(|q| q.evaluate_true(&d, 2)).collect();
        assert_eq!(values, vec![0.75, 0.75, 0.5, 0.25]);
    }

    #[test]
    fn support_sizes_for_k3() {
        let battery = quarterly_battery(3);
        // ≥1 one: 7 patterns; ≥2 ones: 4 (011,101,110,111);
        // ≥2 consecutive: 3 (011,110,111); all: 1.
        let sizes: Vec<usize> = battery.iter().map(WindowQuery::support_size).collect();
        assert_eq!(sizes, vec![7, 4, 3, 1]);
    }

    #[test]
    fn lifting_preserves_value() {
        let d = sample();
        // A width-2 query answered directly and via lifting to width 3
        // must agree wherever both windows exist (t ≥ 2).
        let narrow = WindowQuery::at_least_m_ones(2, 2);
        let lifted = narrow.lift_to_width(3);
        for t in 2..4 {
            let direct = narrow.evaluate_true(&d, t);
            let via_hist = {
                let h: Vec<f64> = window_histogram(&d, t, 3)
                    .iter()
                    .map(|&c| c as f64)
                    .collect();
                lifted.evaluate_histogram(&h, 4.0)
            };
            assert!(
                (direct - via_hist).abs() < 1e-12,
                "t={t}: {direct} vs {via_hist}"
            );
        }
    }

    #[test]
    fn lifting_multiplies_support() {
        let q = WindowQuery::all_ones(2);
        assert_eq!(q.support_size(), 1);
        let lifted = q.lift_to_width(4);
        // Each width-2 pattern lifts to 2^(4-2) = 4 width-4 patterns.
        assert_eq!(lifted.support_size(), 4);
        assert_eq!(lifted.width(), 4);
    }

    #[test]
    fn pattern_query_is_indicator() {
        let d = sample();
        let q = WindowQuery::pattern(Pattern::parse("111"));
        assert_eq!(q.evaluate_true(&d, 2), 0.25);
        assert_eq!(q.support_size(), 1);
        assert_eq!(q.weight_l2_norm(), 1.0);
    }

    #[test]
    fn custom_query_weights() {
        // Expected number of poverty months in the window, as a weighted
        // query: weight = pattern weight.
        let weights: Vec<f64> = Pattern::all(3).map(|p| f64::from(p.weight())).collect();
        let q = WindowQuery::custom(3, weights, "expected months");
        let d = sample();
        // t=2 windows: 111(3) + 011(2) + 000(0) + 101(2) = 7; /4 = 1.75.
        assert!((q.evaluate_true(&d, 2) - 1.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "weight vector size")]
    fn custom_rejects_wrong_length() {
        WindowQuery::custom(3, vec![1.0; 4], "bad");
    }

    #[test]
    #[should_panic(expected = "narrower")]
    fn lift_rejects_narrowing() {
        WindowQuery::all_ones(3).lift_to_width(2);
    }

    #[test]
    fn names_are_informative() {
        assert!(WindowQuery::at_least_m_ones(3, 2).name().contains('2'));
        assert!(WindowQuery::all_ones(3).name().contains("all"));
    }
}
