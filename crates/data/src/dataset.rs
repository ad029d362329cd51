//! [`LongitudinalDataset`]: the `n × T` boolean panel.
//!
//! Storage is column-major ([`BitColumn`] per round) because that is the
//! order in which data *arrives* in the continual-release model and the
//! order in which the synthesizers consume it. Row (individual) views are
//! provided for ground-truth query evaluation.

use crate::bitstream::BitStream;
use crate::column::BitColumn;
use std::fmt;

/// An `n`-individual, `T`-round boolean panel (`X = {0,1}` in the paper).
#[derive(Clone, PartialEq, Eq)]
pub struct LongitudinalDataset {
    individuals: usize,
    columns: Vec<BitColumn>,
}

impl LongitudinalDataset {
    /// Create an empty panel (zero rounds) over `individuals` people.
    pub fn empty(individuals: usize) -> Self {
        Self {
            individuals,
            columns: Vec::new(),
        }
    }

    /// Build a panel from per-round columns.
    ///
    /// # Errors
    /// Returns an error if the columns disagree on the number of
    /// individuals.
    pub fn from_columns(columns: Vec<BitColumn>) -> Result<Self, DatasetError> {
        let individuals = columns.first().map_or(0, BitColumn::len);
        for (t, col) in columns.iter().enumerate() {
            if col.len() != individuals {
                return Err(DatasetError::RaggedColumns {
                    round: t,
                    expected: individuals,
                    actual: col.len(),
                });
            }
        }
        Ok(Self {
            individuals,
            columns,
        })
    }

    /// Build a panel from per-individual rows (each row one history).
    ///
    /// # Errors
    /// Returns an error if rows have unequal lengths.
    pub fn from_rows(rows: &[BitStream]) -> Result<Self, DatasetError> {
        let horizon = rows.first().map_or(0, BitStream::len);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != horizon {
                return Err(DatasetError::RaggedRows {
                    individual: i,
                    expected: horizon,
                    actual: row.len(),
                });
            }
        }
        let columns = (0..horizon)
            .map(|t| BitColumn::from_iter_bits(rows.iter().map(|r| r.get(t))))
            .collect();
        Ok(Self {
            individuals: rows.len(),
            columns,
        })
    }

    /// Append one round of reports.
    ///
    /// # Errors
    /// Returns an error if `column` covers a different number of
    /// individuals.
    pub fn push_column(&mut self, column: BitColumn) -> Result<(), DatasetError> {
        if column.len() != self.individuals {
            return Err(DatasetError::RaggedColumns {
                round: self.columns.len(),
                expected: self.individuals,
                actual: column.len(),
            });
        }
        self.columns.push(column);
        Ok(())
    }

    /// Number of individuals `n`.
    #[inline]
    pub fn individuals(&self) -> usize {
        self.individuals
    }

    /// Number of recorded rounds (the current `t`; equals `T` for a full
    /// panel).
    #[inline]
    pub fn rounds(&self) -> usize {
        self.columns.len()
    }

    /// The reports of round `t` (0-based).
    ///
    /// # Panics
    /// Panics if `t >= rounds()`.
    #[inline]
    pub fn column(&self, t: usize) -> &BitColumn {
        &self.columns[t]
    }

    /// Every recorded round's reports, oldest first (round `t` at index
    /// `t`).
    #[inline]
    pub fn columns(&self) -> &[BitColumn] {
        &self.columns
    }

    /// Iterate over rounds in arrival order — the continual-release
    /// interface: `for (t, d_t) in data.stream() { synthesizer.step(d_t) }`.
    pub fn stream(&self) -> impl Iterator<Item = (usize, &BitColumn)> + '_ {
        self.columns.iter().enumerate()
    }

    /// The bit of individual `i` in round `t`.
    #[inline]
    pub fn value(&self, i: usize, t: usize) -> bool {
        self.columns[t].get(i)
    }

    /// Reconstruct individual `i`'s history up to (and including) round
    /// `upto` (0-based; pass `rounds()-1` for the full history).
    pub fn row(&self, i: usize, upto: usize) -> BitStream {
        assert!(upto < self.rounds(), "round {upto} out of range");
        (0..=upto).map(|t| self.value(i, t)).collect()
    }

    /// Every individual's full history, each materialized as an owned row
    /// (for analyst-side estimators that follow individuals across rounds).
    pub fn rows(&self) -> impl Iterator<Item = BitStream> + '_ {
        (0..self.individuals).map(move |i| self.columns.iter().map(|c| c.get(i)).collect())
    }

    /// The `k`-wide suffix pattern of individual `i` at round `t`
    /// (`(x_{t-k+1}, …, x_t)` as an integer, oldest bit most significant).
    pub fn suffix_pattern(&self, i: usize, t: usize, k: usize) -> u32 {
        assert!((1..=32).contains(&k), "pattern width {k} unsupported");
        assert!(t < self.rounds(), "round {t} out of range");
        assert!(t + 1 >= k, "window underflows");
        let mut pattern = 0u32;
        for round in (t + 1 - k)..=t {
            pattern = (pattern << 1) | u32::from(self.value(i, round));
        }
        pattern
    }

    /// Hamming weight of individual `i`'s history through round `t`
    /// (inclusive).
    pub fn prefix_weight(&self, i: usize, t: usize) -> usize {
        assert!(t < self.rounds(), "round {t} out of range");
        (0..=t).filter(|&r| self.value(i, r)).count()
    }

    /// Truncate to the first `rounds` rounds (used to replay prefixes).
    pub fn truncated(&self, rounds: usize) -> Self {
        assert!(rounds <= self.rounds());
        Self {
            individuals: self.individuals,
            columns: self.columns[..rounds].to_vec(),
        }
    }
}

impl fmt::Debug for LongitudinalDataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LongitudinalDataset[n={}, T={}]",
            self.individuals,
            self.rounds()
        )
    }
}

/// Errors from panel construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// A column's length disagreed with the panel's individual count.
    RaggedColumns {
        /// Round index of the offending column.
        round: usize,
        /// Expected individual count.
        expected: usize,
        /// Actual column length.
        actual: usize,
    },
    /// A row's length disagreed with the panel's horizon.
    RaggedRows {
        /// Individual index of the offending row.
        individual: usize,
        /// Expected history length.
        expected: usize,
        /// Actual history length.
        actual: usize,
    },
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::RaggedColumns {
                round,
                expected,
                actual,
            } => write!(
                f,
                "column at round {round} has {actual} individuals, expected {expected}"
            ),
            DatasetError::RaggedRows {
                individual,
                expected,
                actual,
            } => write!(
                f,
                "row for individual {individual} has {actual} rounds, expected {expected}"
            ),
        }
    }
}

impl std::error::Error for DatasetError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 3-person, 4-round panel used throughout:
    ///   p0: 1 0 1 1
    ///   p1: 0 0 1 0
    ///   p2: 1 1 1 1
    fn sample() -> LongitudinalDataset {
        let cols = vec![
            BitColumn::from_bools(&[true, false, true]),
            BitColumn::from_bools(&[false, false, true]),
            BitColumn::from_bools(&[true, true, true]),
            BitColumn::from_bools(&[true, false, true]),
        ];
        LongitudinalDataset::from_columns(cols).unwrap()
    }

    #[test]
    fn construction_and_shape() {
        let d = sample();
        assert_eq!(d.individuals(), 3);
        assert_eq!(d.rounds(), 4);
        assert_eq!(format!("{d:?}"), "LongitudinalDataset[n=3, T=4]");
    }

    #[test]
    fn ragged_columns_rejected() {
        let cols = vec![BitColumn::zeros(3), BitColumn::zeros(4)];
        assert!(matches!(
            LongitudinalDataset::from_columns(cols),
            Err(DatasetError::RaggedColumns { round: 1, .. })
        ));
    }

    #[test]
    fn rows_roundtrip_through_columns() {
        let d = sample();
        let rows: Vec<BitStream> = (0..3).map(|i| d.row(i, 3)).collect();
        let d2 = LongitudinalDataset::from_rows(&rows).unwrap();
        assert_eq!(d, d2);
    }

    #[test]
    fn ragged_rows_rejected() {
        let rows = vec![
            [true, false].into_iter().collect::<BitStream>(),
            [true].into_iter().collect::<BitStream>(),
        ];
        assert!(matches!(
            LongitudinalDataset::from_rows(&rows),
            Err(DatasetError::RaggedRows { individual: 1, .. })
        ));
    }

    #[test]
    fn stream_yields_rounds_in_order() {
        let d = sample();
        let ones: Vec<usize> = d.stream().map(|(_, col)| col.count_ones()).collect();
        assert_eq!(ones, vec![2, 1, 3, 2]);
        let indices: Vec<usize> = d.stream().map(|(t, _)| t).collect();
        assert_eq!(indices, vec![0, 1, 2, 3]);
    }

    #[test]
    fn suffix_patterns_match_rows() {
        let d = sample();
        // p0 history 1011; window at t=3, k=3 → (0,1,1) = 0b011.
        assert_eq!(d.suffix_pattern(0, 3, 3), 0b011);
        // p2 history 1111; any width-3 window = 0b111.
        assert_eq!(d.suffix_pattern(2, 2, 3), 0b111);
        assert_eq!(d.suffix_pattern(2, 3, 3), 0b111);
        // Consistency with BitStream::suffix_pattern.
        for i in 0..3 {
            let row = d.row(i, 3);
            for t in 2..4 {
                assert_eq!(d.suffix_pattern(i, t, 3), row.suffix_pattern(t, 3));
            }
        }
    }

    #[test]
    fn rows_keep_their_prefixes_across_pushes() {
        let mut d = sample();
        let before: Vec<BitStream> = d.rows().collect();
        assert_eq!(before, (0..3).map(|i| d.row(i, 3)).collect::<Vec<_>>());
        d.push_column(BitColumn::from_bools(&[true, false, true]))
            .unwrap();
        d.push_column(BitColumn::from_bools(&[false, true, true]))
            .unwrap();
        for (i, row) in d.rows().enumerate() {
            assert_eq!(row.len(), 6);
            let prefix: BitStream = row.iter().take(4).collect();
            assert_eq!(prefix, before[i], "record {i} prefix changed");
        }
        assert_eq!(LongitudinalDataset::empty(2).rows().count(), 2);
    }

    #[test]
    fn prefix_weights() {
        let d = sample();
        assert_eq!(d.prefix_weight(0, 3), 3);
        assert_eq!(d.prefix_weight(1, 3), 1);
        assert_eq!(d.prefix_weight(2, 1), 2);
    }

    #[test]
    fn push_column_grows_and_validates() {
        let mut d = LongitudinalDataset::empty(2);
        d.push_column(BitColumn::from_bools(&[true, false]))
            .unwrap();
        assert_eq!(d.rounds(), 1);
        assert!(d.push_column(BitColumn::zeros(3)).is_err());
    }

    #[test]
    fn truncated_prefix() {
        let d = sample();
        let p = d.truncated(2);
        assert_eq!(p.rounds(), 2);
        assert_eq!(p.column(1), d.column(1));
    }
}
