//! Round aggregates: the **unnoised sufficient statistics** a synthesizer
//! computes from one round of true data, before any privatization.
//!
//! The paper's reduction framework separates *aggregate computation* from
//! *privatization*: every round, each algorithm first condenses the true
//! column into a small sufficient statistic (a window histogram, a vector
//! of threshold increments), and only then adds calibrated noise and
//! extends the synthetic population. The two-phase synthesizer API
//! ([`prepare`](crate::ContinualSynthesizer::prepare) /
//! [`finalize`](crate::ContinualSynthesizer::finalize)) makes that split
//! explicit, and these are the phase-1 outputs.
//!
//! Why this matters for scaling: aggregates from **disjoint cohorts sum**.
//! A sharded engine can add the per-shard aggregates of a round into one
//! population-level aggregate and privatize *that* with a single noise
//! draw — recovering unsharded population accuracy instead of paying the
//! `√shards` noise factor of noising every cohort separately. The
//! `longsynth-engine` crate's `SharedNoise` aggregation policy does exactly
//! this; its `MergeAggregate` impls define the word-level sums.
//!
//! Aggregates are *pre-noise* values derived from true data: they must
//! never be released. Only [`finalize`](crate::ContinualSynthesizer::finalize)
//! outputs (which charge the privacy ledger) are publishable.

use crate::error::SynthError;

/// Phase-1 output of the histogram-family synthesizers
/// ([`FixedWindowSynthesizer`](crate::FixedWindowSynthesizer) over `2^k`
/// bins, [`CategoricalSynthesizer`](crate::categorical::CategoricalSynthesizer)
/// over `V^k` bins): the exact, unnoised window histogram of the round —
/// no padding, no noise, no budget charged yet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HistogramAggregate {
    /// A round inside the buffering prefix (`t < k`): the input was
    /// buffered and there is nothing to privatize this round.
    Buffered {
        /// Number of individuals observed this round.
        n: usize,
    },
    /// The exact window histogram over `n` individuals.
    Counts {
        /// Number of individuals the counts cover.
        n: usize,
        /// Exact per-pattern counts (`2^k` or `V^k` bins, pattern-code
        /// order). Sums to `n`.
        counts: Vec<i64>,
    },
}

impl HistogramAggregate {
    /// Number of individuals this aggregate covers.
    pub fn population(&self) -> usize {
        match self {
            HistogramAggregate::Buffered { n } | HistogramAggregate::Counts { n, .. } => *n,
        }
    }

    /// Check that this aggregate fits 1-based round `t` of a width-`k`
    /// synthesis over `bins` bins: buffered before round `k`, a
    /// `bins`-bin histogram from round `k` on.
    pub(crate) fn check_shape(&self, t: usize, k: usize, bins: usize) -> Result<(), SynthError> {
        let problem = match self {
            HistogramAggregate::Buffered { .. } if t >= k => {
                format!("buffered aggregate at round {t}, but releases start at round {k}")
            }
            HistogramAggregate::Counts { .. } if t < k => {
                format!("histogram aggregate at buffering round {t} (< k = {k})")
            }
            HistogramAggregate::Counts { counts, .. } if counts.len() != bins => format!(
                "aggregate has {} bins, width-{k} synthesis needs {bins}",
                counts.len()
            ),
            _ => return Ok(()),
        };
        Err(SynthError::OutOfPhase(problem))
    }
}

/// Phase-1 output of the [`CumulativeSynthesizer`](crate::CumulativeSynthesizer):
/// the exact threshold increments of the round, before the stream counters
/// see them.
///
/// `increments[b-1]` is `z_b^t = #{i : weight was b−1 and x_i^t = 1}` for
/// `b = 1..=t` — each individual contributes to threshold `b` at most once
/// over the whole stream, which is what keeps the per-counter sensitivity
/// argument intact after cross-cohort summation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CumulativeAggregate {
    /// Number of individuals the increments cover.
    pub n: usize,
    /// Exact increments `z_b^t` for `b = 1..=t` (length grows with the
    /// round).
    pub increments: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_aggregate_reports_population() {
        assert_eq!(HistogramAggregate::Buffered { n: 7 }.population(), 7);
        let counts = HistogramAggregate::Counts {
            n: 5,
            counts: vec![2, 3],
        };
        assert_eq!(counts.population(), 5);
    }
}
