//! Cumulative time queries (paper §2.1, §4).
//!
//! The primitive statistic is the vector of **threshold counts**
//! `S_b^t = #{i : x_i^1 + … + x_i^t ≥ b}` for every `b = 0..=t` — e.g.
//! "households in poverty for at least `b` of the first `t` months".
//! Algorithm 2 preserves all of them simultaneously.
//!
//! One kernel computes them: each round's column moves every record with
//! a set bit across one threshold. [`cumulative_counts`] runs it over a
//! stored panel for one round; [`ThresholdCounter`] runs it as columns
//! arrive and keeps every round's counts, so later reads are lookups.

use longsynth_data::{BitColumn, LongitudinalDataset};

/// The one threshold-count kernel: advance `row` by one round.
///
/// On entry `row` holds the previous round's counts `S_0..=S_t` followed by
/// a 0 for the new top threshold (`[n, 0]` before the first round), and
/// `weights` each record's Hamming weight so far. Every set bit of
/// `column`, walked one 64-record word at a time, moves its record across
/// one threshold: a record of weight `w` raises `S_{w+1}` by one (it is one
/// of the `z_{w+1}` crossings of this round) and its weight to `w + 1`. On
/// exit `row` holds this round's counts.
fn advance(weights: &mut [u32], column: &BitColumn, row: &mut [u64]) {
    for (w, &word) in column.as_words().iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let weight = &mut weights[(w << 6) | bits.trailing_zeros() as usize];
            row[*weight as usize + 1] += 1;
            *weight += 1;
            bits &= bits - 1;
        }
    }
}

/// `c_b^t` from the counts of round `t`: 0 past the last threshold.
fn fraction(counts: &[u64], b: usize, individuals: usize) -> f64 {
    let count = counts.get(b).copied().unwrap_or(0);
    count as f64 / individuals as f64
}

/// The threshold counts `S_b^t` at 0-based round `t`, which closes `t + 1`
/// rounds of history: entry `b` of the returned `t + 2` counts is `S_b^t`
/// for `b = 0..=t+1`, so entry 0 is always `n` and entry `t + 1` counts the
/// all-ones histories. Feeds columns `0..=t` through the same kernel as
/// [`ThresholdCounter`], keeping only the latest round's counts.
pub fn cumulative_counts(data: &LongitudinalDataset, t: usize) -> Vec<u64> {
    assert!(t < data.rounds(), "round {t} not yet recorded");
    let mut weights = vec![0u32; data.individuals()];
    let mut row = vec![data.individuals() as u64];
    for round in 0..=t {
        row.push(0);
        advance(&mut weights, data.column(round), &mut row);
    }
    row
}

/// The paper's query `c_b^t`: the *fraction* of individuals with Hamming
/// weight at least `b` after round `t`.
pub fn cumulative_fraction(data: &LongitudinalDataset, t: usize, b: usize) -> f64 {
    fraction(&cumulative_counts(data, t), b, data.individuals())
}

/// Running threshold counts of a panel that grows one column at a time.
///
/// It holds one `u32` weight per record and, for every round pushed, that
/// round's counts `S_0..=S_{t+1}`, appended to one flat vector (round `t`
/// starts at offset `t(t+3)/2`). A push costs one walk over the column's
/// set bits plus a copy of the previous round's `t + 1` counts, and every
/// later [`counts`](Self::counts) or [`fraction`](Self::fraction) is a
/// lookup. [`retire`](Self::retire) drops the weights of a panel that will
/// never grow again and keeps its counts.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdCounter {
    individuals: usize,
    /// Each record's Hamming weight so far; empty once retired.
    weights: Vec<u32>,
    /// The counts of rounds `0..rounds`, back to back.
    counts: Vec<u64>,
    rounds: usize,
}

/// Where round `t`'s `t + 2` counts start in the flat vector.
fn row_offset(t: usize) -> usize {
    t * (t + 3) / 2
}

impl ThresholdCounter {
    /// A counter over `individuals` records with no rounds yet.
    pub fn new(individuals: usize) -> Self {
        Self {
            individuals,
            weights: vec![0; individuals],
            counts: Vec::new(),
            rounds: 0,
        }
    }

    /// A counter fed every column of `data`: one pass yields the threshold
    /// counts of every round.
    pub fn over(data: &LongitudinalDataset) -> Self {
        let mut counter = Self::new(data.individuals());
        for (_, column) in data.stream() {
            counter.push(column);
        }
        counter
    }

    /// Append the next round's column.
    ///
    /// # Panics
    /// Panics if the column's length is not the record count, and on a
    /// retired counter of at least one record.
    pub fn push(&mut self, column: &BitColumn) {
        assert_eq!(
            column.len(),
            self.weights.len(),
            "column length must match the counter's live records"
        );
        let start = self.counts.len();
        match self.rounds {
            0 => self.counts.push(self.individuals as u64),
            t => self.counts.extend_from_within(row_offset(t - 1)..start),
        }
        self.counts.push(0);
        advance(&mut self.weights, column, &mut self.counts[start..]);
        self.rounds += 1;
    }

    /// Drop the per-record weights of a panel that receives no more
    /// columns; every recorded round's counts stay readable.
    pub fn retire(&mut self) {
        self.weights = Vec::new();
        self.counts.shrink_to_fit();
    }

    /// The `t + 2` counts `S_0^t..=S_{t+1}^t` of 0-based round `t`, as
    /// [`cumulative_counts`] returns them.
    ///
    /// # Panics
    /// Panics if round `t` has not been pushed.
    pub fn counts(&self, t: usize) -> &[u64] {
        assert!(t < self.rounds, "round {t} not yet recorded");
        &self.counts[row_offset(t)..row_offset(t + 1)]
    }

    /// `c_b^t`, exactly as [`cumulative_fraction`] computes it.
    pub fn fraction(&self, t: usize, b: usize) -> f64 {
        fraction(self.counts(t), b, self.individuals)
    }
}

/// Exact-weight counts `#{i : weight = b}` at round `t`, derived as
/// `S_b − S_{b+1}` (the identity Algorithm 2's record-extension step relies
/// on).
pub fn exact_weight_counts(data: &LongitudinalDataset, t: usize) -> Vec<u64> {
    let counts = cumulative_counts(data, t);
    counts
        .windows(2)
        .map(|w| w[0] - w[1])
        .chain(std::iter::once(*counts.last().expect("non-empty")))
        .collect()
}

/// The per-round increment stream fed to stream counter `b` (Algorithm 2):
/// `z_b^t = #{i : weight before round t is b−1, and x_i^t = 1}` — the
/// number of individuals *crossing* threshold `b` at round `t`.
///
/// Rounds are 0-based; `b ≥ 1`.
pub fn threshold_increment(data: &LongitudinalDataset, t: usize, b: usize) -> u64 {
    assert!(b >= 1, "threshold increments are defined for b >= 1");
    assert!(t < data.rounds());
    let mut z = 0u64;
    for i in 0..data.individuals() {
        if !data.value(i, t) {
            continue;
        }
        let before = if t == 0 {
            0
        } else {
            data.prefix_weight(i, t - 1)
        };
        if before == b - 1 {
            z += 1;
        }
    }
    z
}

/// How many individuals crossed threshold `b` during the round interval
/// `(t1, t2]` (0-based, `t1 < t2`): `S_b^{t2} − S_b^{t1}`.
///
/// This is the time-window statistic our cumulative machinery answers
/// exactly (each term is a cumulative query); the paper's §1.1 sketches a
/// related reduction for the `CountOcc` queries of Ghazi et al. — see
/// DESIGN.md for how our formulation differs from that shorthand.
pub fn threshold_crossings(data: &LongitudinalDataset, t1: usize, t2: usize, b: usize) -> u64 {
    assert!(t1 < t2, "need t1 < t2");
    let s2 = cumulative_counts(data, t2);
    let s1 = cumulative_counts(data, t1);
    let at_t2 = s2.get(b).copied().unwrap_or(0);
    let at_t1 = s1.get(b).copied().unwrap_or(0);
    at_t2 - at_t1
}

/// Validity predicate for a (possibly privatized) threshold-count matrix:
/// entry `[t][b]` must be non-increasing in `b` (weights ≥ b+1 imply ≥ b),
/// non-decreasing in `t` (weights only grow), and satisfy the Lipschitz
/// cross-constraint `S_b^t ≤ S_{b-1}^{t-1}` (a weight-`b` history at `t`
/// had weight ≥ b−1 at `t−1`). These are the two monotonicity constraints
/// §4.1 enforces.
pub fn is_valid_threshold_matrix(matrix: &[Vec<i64>]) -> bool {
    for (t, row) in matrix.iter().enumerate() {
        for b in 1..row.len() {
            if row[b] > row[b - 1] {
                return false; // increasing in b
            }
        }
        if t > 0 {
            let prev = &matrix[t - 1];
            for b in 0..row.len().min(prev.len()) {
                if row[b] < prev[b] {
                    return false; // decreasing in t
                }
            }
            for b in 1..row.len() {
                if b - 1 < prev.len() && row[b] > prev[b - 1] {
                    return false; // Lipschitz cross-constraint
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use longsynth_data::BitStream;

    /// 4 people, 3 rounds:
    ///   p0: 1 1 1   (weights 1,2,3)
    ///   p1: 0 1 0   (weights 0,1,1)
    ///   p2: 0 0 0   (weights 0,0,0)
    ///   p3: 1 0 1   (weights 1,1,2)
    fn sample() -> LongitudinalDataset {
        let rows: Vec<BitStream> = [
            [true, true, true],
            [false, true, false],
            [false, false, false],
            [true, false, true],
        ]
        .iter()
        .map(|bits| bits.iter().copied().collect())
        .collect();
        LongitudinalDataset::from_rows(&rows).unwrap()
    }

    #[test]
    fn counts_at_each_round() {
        let d = sample();
        // t=0: weights (1,0,0,1) → S_0=4, S_1=2.
        assert_eq!(cumulative_counts(&d, 0), vec![4, 2]);
        // t=1: weights (2,1,0,1) → S_0=4, S_1=3, S_2=1.
        assert_eq!(cumulative_counts(&d, 1), vec![4, 3, 1]);
        // t=2: weights (3,1,0,2) → S_0=4, S_1=3, S_2=2, S_3=1.
        assert_eq!(cumulative_counts(&d, 2), vec![4, 3, 2, 1]);
    }

    #[test]
    fn counter_keeps_every_round_of_the_kernel() {
        let d = sample();
        let counter = ThresholdCounter::over(&d);
        assert_eq!(counter.rounds, 3);
        for t in 0..3 {
            assert_eq!(counter.counts(t), cumulative_counts(&d, t), "t={t}");
            for b in 0..=t + 2 {
                assert_eq!(
                    counter.fraction(t, b).to_bits(),
                    cumulative_fraction(&d, t, b).to_bits()
                );
            }
        }
        // Round t's counts start at t(t+3)/2: 2 + 3 + 4 counts in all.
        assert_eq!(counter.counts.len(), 9);
    }

    #[test]
    fn retired_counter_drops_weights_and_keeps_counts() {
        let d = sample();
        let mut counter = ThresholdCounter::over(&d);
        let before: Vec<Vec<u64>> = (0..3).map(|t| counter.counts(t).to_vec()).collect();
        counter.retire();
        assert!(counter.weights.is_empty());
        for (t, counts) in before.iter().enumerate() {
            assert_eq!(counter.counts(t), counts.as_slice());
        }
    }

    #[test]
    #[should_panic(expected = "live records")]
    fn retired_counter_rejects_columns() {
        let mut counter = ThresholdCounter::over(&sample());
        counter.retire();
        counter.push(&BitColumn::zeros(4));
    }

    #[test]
    fn fractions_normalise() {
        let d = sample();
        assert_eq!(cumulative_fraction(&d, 2, 2), 0.5);
        assert_eq!(cumulative_fraction(&d, 2, 0), 1.0);
        // Threshold beyond history length: zero.
        assert_eq!(cumulative_fraction(&d, 2, 7), 0.0);
    }

    #[test]
    fn exact_weights_partition_population() {
        let d = sample();
        // t=2 weights (3,1,0,2): counts by weight 0..=3 = [1,1,1,1].
        let exact = exact_weight_counts(&d, 2);
        assert_eq!(exact, vec![1, 1, 1, 1]);
        assert_eq!(exact.iter().sum::<u64>(), 4);
    }

    #[test]
    fn increments_telescope_to_counts() {
        let d = sample();
        // S_b^t must equal Σ_{r ≤ t} z_b^r for every b ≥ 1 (the stream
        // representation Algorithm 2 relies on).
        for b in 1..=3usize {
            let mut acc = 0u64;
            for t in 0..3 {
                acc += threshold_increment(&d, t, b);
                let s = cumulative_counts(&d, t);
                assert_eq!(acc, s.get(b).copied().unwrap_or(0), "b={b}, t={t}");
            }
        }
    }

    #[test]
    fn each_individual_contributes_at_most_one_increment_per_threshold() {
        // The sensitivity argument: per b, an individual crosses b at most
        // once over the whole horizon.
        let d = sample();
        for b in 1..=3usize {
            let total: u64 = (0..3).map(|t| threshold_increment(&d, t, b)).sum();
            assert!(total <= 4, "b={b}: total {total} exceeds population");
        }
    }

    #[test]
    fn crossings_between_rounds() {
        let d = sample();
        // S_2 went 0 (t=0) → 1 (t=1) → 2 (t=2).
        assert_eq!(threshold_crossings(&d, 0, 1, 2), 1);
        assert_eq!(threshold_crossings(&d, 0, 2, 2), 2);
        assert_eq!(threshold_crossings(&d, 1, 2, 2), 1);
    }

    #[test]
    fn true_matrix_is_valid() {
        let d = sample();
        let matrix: Vec<Vec<i64>> = (0..3)
            .map(|t| cumulative_counts(&d, t).iter().map(|&c| c as i64).collect())
            .collect();
        assert!(is_valid_threshold_matrix(&matrix));
    }

    #[test]
    fn validity_detects_violations() {
        // Increasing in b.
        assert!(!is_valid_threshold_matrix(&[vec![4, 5]]));
        // Decreasing in t.
        assert!(!is_valid_threshold_matrix(&[vec![4, 3], vec![4, 2]]));
        // Lipschitz: S_2^1 > S_1^0.
        assert!(!is_valid_threshold_matrix(&[vec![4, 1, 0], vec![4, 2, 2]]));
        // A conforming matrix passes.
        assert!(is_valid_threshold_matrix(&[vec![4, 1, 0], vec![4, 2, 1]]));
    }

    #[test]
    #[should_panic(expected = "b >= 1")]
    fn increment_rejects_b0() {
        threshold_increment(&sample(), 0, 0);
    }
}
