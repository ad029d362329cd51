//! Merging per-shard releases (and per-shard aggregates) into
//! population-level objects.
//!
//! Because every shard runs the same algorithm under the same configuration
//! and the engine feeds all shards in lockstep, per-shard releases of a
//! round are always structurally aligned (all `Buffered`, all `Initial`
//! with the same window width, or all `Update`). Merging is concatenation
//! in shard order, matching the [`crate::shard::ShardPlan`]'s contiguous
//! cohort layout — so record `i` of the merged release corresponds to the
//! same position a single unsharded run over the concatenated cohorts would
//! produce.
//!
//! [`MergeAggregate`] is the second half of the story: the two-phase
//! `prepare` outputs (unnoised sufficient statistics) of **disjoint
//! cohorts sum** — window histograms add bin-wise, threshold increments
//! add element-wise — so the shared-noise aggregation policy can combine
//! them into one population aggregate and privatize it with a single
//! noise draw.
//!
//! Each trait has one way to combine parts: [`MergeRelease::merge`]
//! borrows the releases, and [`MergeAggregate::merge`] consumes the
//! aggregates.

use longsynth::{CumulativeAggregate, HistogramAggregate, Release};
use longsynth_data::BitColumn;

use crate::EngineError;

/// A per-shard release that can be merged across shards.
pub trait MergeRelease: Sized {
    /// Merge per-shard parts (in shard order) into one population-level
    /// release, leaving the parts in place: the engine still hands them
    /// to the release sink, so the merge borrows — and never clones — the
    /// parts.
    fn merge(parts: &[Self]) -> Result<Self, EngineError>;
}

impl MergeRelease for BitColumn {
    fn merge(parts: &[Self]) -> Result<Self, EngineError> {
        if parts.is_empty() {
            return Err(EngineError::MergeMismatch(
                "no shard releases to merge".to_string(),
            ));
        }
        Ok(BitColumn::concat(parts))
    }
}

impl MergeRelease for Release {
    fn merge(parts: &[Self]) -> Result<Self, EngineError> {
        // All shards run in lockstep, so the variants must agree; validate
        // against the first part, then concatenate borrowed columns in
        // shard order — one output allocation per merged column, no
        // per-shard staging buffers.
        let Some(first) = parts.first() else {
            return Err(EngineError::MergeMismatch(
                "no shard releases to merge".to_string(),
            ));
        };
        match first {
            Release::Buffered => {
                if parts.iter().all(|p| matches!(p, Release::Buffered)) {
                    Ok(Release::Buffered)
                } else {
                    Err(EngineError::MergeMismatch(
                        "shards disagree on buffering phase".to_string(),
                    ))
                }
            }
            Release::Initial(first_columns) => {
                let k = first_columns.len();
                let mut per_part: Vec<&Vec<BitColumn>> = Vec::with_capacity(parts.len());
                for part in parts {
                    let Release::Initial(columns) = part else {
                        return Err(EngineError::MergeMismatch(
                            "mixed Initial/non-Initial shard releases".to_string(),
                        ));
                    };
                    if columns.len() != k {
                        return Err(EngineError::MergeMismatch(format!(
                            "initial release widths disagree: {} vs {k}",
                            columns.len()
                        )));
                    }
                    per_part.push(columns);
                }
                Ok(Release::Initial(
                    (0..k)
                        .map(|t| BitColumn::concat(per_part.iter().map(|columns| &columns[t])))
                        .collect(),
                ))
            }
            Release::Update(_) => {
                let mut columns = Vec::with_capacity(parts.len());
                for part in parts {
                    let Release::Update(column) = part else {
                        return Err(EngineError::MergeMismatch(
                            "mixed Update/non-Update shard releases".to_string(),
                        ));
                    };
                    columns.push(column);
                }
                Ok(Release::Update(BitColumn::concat(columns)))
            }
        }
    }
}

impl MergeRelease for () {
    fn merge(parts: &[Self]) -> Result<Self, EngineError> {
        if parts.is_empty() {
            return Err(EngineError::MergeMismatch(
                "no shard releases to merge".to_string(),
            ));
        }
        Ok(())
    }
}

/// A per-shard **unnoised** aggregate (two-phase `prepare` output) that
/// can be combined across disjoint cohorts into one population-level
/// aggregate — the input to the shared-noise policy's single
/// population-level `finalize`.
pub trait MergeAggregate: Sized {
    /// Fold one disjoint-cohort part into `self` in place — the primitive
    /// [`merge`](Self::merge) is built from.
    fn merge_into(&mut self, part: &Self) -> Result<(), EngineError>;

    /// Combine per-shard aggregates (in shard order) into one
    /// population-level aggregate, consuming them: the first part folds
    /// in every later one with [`merge_into`](Self::merge_into).
    fn merge(parts: impl IntoIterator<Item = Self>) -> Result<Self, EngineError> {
        let mut parts = parts.into_iter();
        let Some(mut merged) = parts.next() else {
            return Err(EngineError::MergeMismatch(
                "no shard aggregates to merge".to_string(),
            ));
        };
        for part in parts {
            merged.merge_into(&part)?;
        }
        Ok(merged)
    }

    /// Lift a cohort-local aggregate onto the global panel clock so that
    /// aggregates of cohorts that *entered at different rounds* can sum
    /// (the dynamic-panel shared-noise path). `round` is the 1-based
    /// global round the summed aggregate will be finalized at.
    ///
    /// The default is the identity — correct for aggregates whose shape
    /// does not depend on the round. The cumulative family overrides it:
    /// a cohort at local round `r < round` zero-pads its threshold
    /// increments, because none of its individuals can have crossed a
    /// threshold above their observed history length.
    fn align_to_round(self, round: usize) -> Self {
        let _ = round;
        self
    }

    /// Fold a **later round of the same cohort** into `self`, turning a
    /// running total into the cohort's lifetime view — what a rotating
    /// shared-noise engine accumulates per cohort so the population
    /// synthesizer can
    /// [`forget_cohort`](longsynth::ContinualSynthesizer::forget_cohort) it
    /// at retirement. Unlike [`merge`](Self::merge) (which sums *disjoint*
    /// populations), the population stays the cohort's own.
    ///
    /// The default errors — only families with cohort-retirement support
    /// need it.
    fn absorb_round(&mut self, later: &Self) -> Result<(), EngineError> {
        let _ = later;
        Err(EngineError::MergeMismatch(
            "this aggregate family does not support lifetime accumulation".to_string(),
        ))
    }
}

/// Window histograms of disjoint cohorts add bin-wise (populations sum).
impl MergeAggregate for HistogramAggregate {
    fn merge_into(&mut self, part: &Self) -> Result<(), EngineError> {
        match (self, part) {
            (HistogramAggregate::Buffered { n }, HistogramAggregate::Buffered { n: part_n }) => {
                *n += *part_n;
                Ok(())
            }
            (
                HistogramAggregate::Counts { n, counts },
                HistogramAggregate::Counts {
                    n: part_n,
                    counts: part_counts,
                },
            ) => {
                if part_counts.len() != counts.len() {
                    return Err(EngineError::MergeMismatch(format!(
                        "histogram widths disagree: {} vs {} bins",
                        counts.len(),
                        part_counts.len()
                    )));
                }
                *n += *part_n;
                for (total, part) in counts.iter_mut().zip(part_counts) {
                    *total += *part;
                }
                Ok(())
            }
            _ => Err(EngineError::MergeMismatch(
                "mixed buffered/histogram shard aggregates".to_string(),
            )),
        }
    }
}

/// Threshold increments of disjoint cohorts add element-wise: each
/// individual crosses threshold `b` at most once regardless of which
/// cohort counts it, so the summed stream keeps per-counter sensitivity 1.
impl MergeAggregate for CumulativeAggregate {
    fn merge_into(&mut self, part: &Self) -> Result<(), EngineError> {
        if part.increments.len() != self.increments.len() {
            return Err(EngineError::MergeMismatch(format!(
                "increment vectors disagree: {} vs {} thresholds",
                self.increments.len(),
                part.increments.len()
            )));
        }
        self.n += part.n;
        for (total, part) in self.increments.iter_mut().zip(&part.increments) {
            *total += *part;
        }
        Ok(())
    }

    /// A cohort observed for `t < round` rounds has increments for
    /// thresholds `1..=t` only; its individuals cannot have crossed any
    /// higher threshold, so the global-round vector extends with zeros.
    fn align_to_round(mut self, round: usize) -> Self {
        if self.increments.len() < round {
            self.increments.resize(round, 0);
        }
        self
    }

    /// Lifetime accumulation for one cohort: the increment vectors add
    /// element-wise (a later round carries one more threshold), the
    /// population stays the cohort's own (and must not change mid-run).
    fn absorb_round(&mut self, later: &Self) -> Result<(), EngineError> {
        if later.n != self.n {
            return Err(EngineError::MergeMismatch(format!(
                "cohort size changed mid-lifetime: {} vs {}",
                self.n, later.n
            )));
        }
        if later.increments.len() < self.increments.len() {
            return Err(EngineError::MergeMismatch(format!(
                "later round carries {} thresholds, lifetime view already has {}",
                later.increments.len(),
                self.increments.len()
            )));
        }
        self.increments.resize(later.increments.len(), 0);
        for (total, part) in self.increments.iter_mut().zip(&later.increments) {
            *total += part;
        }
        Ok(())
    }
}

/// The recompute baseline's "aggregate" is the raw column; disjoint
/// cohorts concatenate back into the population column (shard order).
impl MergeAggregate for BitColumn {
    fn merge_into(&mut self, part: &Self) -> Result<(), EngineError> {
        self.extend_bits(part);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(bits: &[bool]) -> BitColumn {
        BitColumn::from_bools(bits)
    }

    #[test]
    fn bit_columns_concatenate_in_shard_order() {
        let merged: BitColumn =
            MergeRelease::merge(&[col(&[true, false]), col(&[false]), col(&[true])]).unwrap();
        let bits: Vec<bool> = merged.iter().collect();
        assert_eq!(bits, vec![true, false, false, true]);
    }

    #[test]
    fn release_variants_must_align() {
        let buffered = Release::merge(&[Release::Buffered, Release::Buffered]).unwrap();
        assert!(matches!(buffered, Release::Buffered));

        let mixed = Release::merge(&[Release::Buffered, Release::Update(col(&[true]))]);
        assert!(mixed.is_err());
    }

    #[test]
    fn initial_releases_merge_per_round() {
        let a = Release::Initial(vec![col(&[true]), col(&[false])]);
        let b = Release::Initial(vec![col(&[false, false]), col(&[true, true])]);
        let Release::Initial(columns) = Release::merge(&[a, b]).unwrap() else {
            panic!("expected Initial");
        };
        assert_eq!(columns.len(), 2);
        assert_eq!(
            columns[0].iter().collect::<Vec<_>>(),
            vec![true, false, false]
        );
        assert_eq!(
            columns[1].iter().collect::<Vec<_>>(),
            vec![false, true, true]
        );
    }

    #[test]
    fn empty_merge_rejected() {
        assert!(MergeRelease::merge(&[] as &[BitColumn]).is_err());
        assert!(MergeRelease::merge(&[] as &[()]).is_err());
        assert!(MergeAggregate::merge(Vec::<HistogramAggregate>::new()).is_err());
        assert!(MergeAggregate::merge(Vec::<CumulativeAggregate>::new()).is_err());
        assert!(MergeAggregate::merge(Vec::<BitColumn>::new()).is_err());
    }

    #[test]
    fn histogram_aggregates_sum_binwise() {
        let a = HistogramAggregate::Counts {
            n: 3,
            counts: vec![1, 2, 0, 0],
        };
        let b = HistogramAggregate::Counts {
            n: 5,
            counts: vec![0, 1, 4, 0],
        };
        let merged = MergeAggregate::merge(vec![a, b]).unwrap();
        assert_eq!(
            merged,
            HistogramAggregate::Counts {
                n: 8,
                counts: vec![1, 3, 4, 0],
            }
        );
        // Buffered rounds sum populations.
        let merged = MergeAggregate::merge(vec![
            HistogramAggregate::Buffered { n: 2 },
            HistogramAggregate::Buffered { n: 7 },
        ])
        .unwrap();
        assert_eq!(merged, HistogramAggregate::Buffered { n: 9 });
        // Mixed phases and ragged widths are rejected.
        assert!(MergeAggregate::merge(vec![
            HistogramAggregate::Buffered { n: 2 },
            HistogramAggregate::Counts {
                n: 1,
                counts: vec![1]
            },
        ])
        .is_err());
        assert!(MergeAggregate::merge(vec![
            HistogramAggregate::Counts {
                n: 1,
                counts: vec![1]
            },
            HistogramAggregate::Counts {
                n: 1,
                counts: vec![1, 0]
            },
        ])
        .is_err());
    }

    #[test]
    fn cumulative_aggregates_sum_elementwise() {
        let a = CumulativeAggregate {
            n: 4,
            increments: vec![2, 1],
        };
        let b = CumulativeAggregate {
            n: 6,
            increments: vec![3, 0],
        };
        let merged = MergeAggregate::merge(vec![a, b]).unwrap();
        assert_eq!(merged.n, 10);
        assert_eq!(merged.increments, vec![5, 1]);
        // Ragged rounds rejected.
        assert!(MergeAggregate::merge(vec![
            CumulativeAggregate {
                n: 1,
                increments: vec![1]
            },
            CumulativeAggregate {
                n: 1,
                increments: vec![1, 0]
            },
        ])
        .is_err());
    }

    #[test]
    fn cumulative_aggregates_align_across_staggered_entries() {
        // A founding cohort at global round 3 (thresholds 1..=3) and a
        // wave that entered one round ago (threshold 1 only): alignment
        // zero-pads the newcomer, and the sum is the active-set stream.
        let veteran = CumulativeAggregate {
            n: 10,
            increments: vec![4, 2, 1],
        };
        let newcomer = CumulativeAggregate {
            n: 5,
            increments: vec![3],
        };
        let merged =
            MergeAggregate::merge(vec![veteran.align_to_round(3), newcomer.align_to_round(3)])
                .unwrap();
        assert_eq!(merged.n, 15);
        assert_eq!(merged.increments, vec![7, 2, 1]);
        // Identity on already-aligned aggregates (and on histograms).
        let aligned = CumulativeAggregate {
            n: 2,
            increments: vec![1, 0],
        };
        assert_eq!(aligned.clone().align_to_round(2), aligned);
        let histogram = HistogramAggregate::Buffered { n: 9 };
        assert_eq!(histogram.clone().align_to_round(5), histogram);
    }

    #[test]
    fn bit_column_aggregates_concatenate() {
        let merged: BitColumn =
            MergeAggregate::merge(vec![col(&[true, false]), col(&[true])]).unwrap();
        assert_eq!(merged.iter().collect::<Vec<_>>(), vec![true, false, true]);
    }
}
