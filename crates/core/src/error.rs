//! Error types for the synthesizers.

use std::fmt;

/// Errors surfaced by the synthesizer APIs.
///
/// Note the deliberate absence of a "noise made a count negative" error:
/// per Theorem 3.2, that event has probability ≤ β under the recommended
/// padding, and production code must not abort a privatized release
/// mid-stream (the noise is already spent). Those events are *clamped and
/// counted* instead — see `FailureStats` on each synthesizer.
#[derive(Debug, Clone, PartialEq)]
pub enum SynthError {
    /// A column's length did not match the population size fixed by the
    /// first round.
    ColumnSizeMismatch {
        /// Expected number of individuals.
        expected: usize,
        /// Received column length.
        actual: usize,
    },
    /// More rounds were fed than the configured horizon `T`.
    HorizonExceeded {
        /// The configured horizon.
        horizon: usize,
    },
    /// Invalid configuration (delegates detail to the inner message).
    InvalidConfig(String),
    /// A queried round has not been released yet (or never will be:
    /// `t < k−1` for fixed-window synthesis).
    RoundNotReleased {
        /// The requested 0-based round.
        round: usize,
    },
    /// A query's width exceeds what the synthesizer can answer from its
    /// histograms and record evaluation was disabled.
    UnsupportedQueryWidth {
        /// Width of the query.
        query_width: usize,
        /// Window width `k` of the synthesizer.
        window: usize,
    },
    /// Two-phase misuse: `prepare`/`finalize` were called out of order
    /// (e.g. a second `prepare` while a round's aggregate still awaits
    /// `finalize`).
    OutOfPhase(String),
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::ColumnSizeMismatch { expected, actual } => {
                write!(f, "column has {actual} individuals, expected {expected}")
            }
            SynthError::HorizonExceeded { horizon } => {
                write!(f, "stream exceeded configured horizon T={horizon}")
            }
            SynthError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SynthError::RoundNotReleased { round } => {
                write!(f, "round {round} has no synthetic release")
            }
            SynthError::UnsupportedQueryWidth {
                query_width,
                window,
            } => write!(
                f,
                "query width {query_width} not answerable from width-{window} histograms"
            ),
            SynthError::OutOfPhase(msg) => {
                write!(f, "two-phase step out of order: {msg}")
            }
        }
    }
}

impl std::error::Error for SynthError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_actionable() {
        let errors: Vec<(SynthError, &str)> = vec![
            (
                SynthError::ColumnSizeMismatch {
                    expected: 10,
                    actual: 9,
                },
                "expected 10",
            ),
            (SynthError::HorizonExceeded { horizon: 12 }, "T=12"),
            (SynthError::InvalidConfig("k > T".into()), "k > T"),
            (SynthError::RoundNotReleased { round: 1 }, "round 1"),
            (
                SynthError::UnsupportedQueryWidth {
                    query_width: 5,
                    window: 3,
                },
                "width-3",
            ),
            (
                SynthError::OutOfPhase("round 3 awaits finalize".into()),
                "awaits finalize",
            ),
        ];
        for (err, needle) in errors {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} missing {needle:?}");
        }
    }
}
