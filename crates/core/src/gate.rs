//! The round contract every synthesizer family shares: a population of
//! `n` individuals, pinned by the first accepted round; at most `T`
//! rounds; and `prepare` then `finalize` within each round.
//!
//! [`RoundGate`] checks a call against that contract before the
//! synthesizer changes anything, so a rejected call leaves it untouched.

use crate::error::SynthError;

/// The pinned population size and the round counters of one synthesizer.
#[derive(Debug, Clone)]
pub(crate) struct RoundGate {
    horizon: usize,
    /// True population size, pinned by the first accepted round.
    n: Option<usize>,
    /// Rounds whose input `prepare` consumed: equals `fed` between rounds
    /// and `fed + 1` while an aggregate awaits `finalize`. Stays 0 on a
    /// finalize-only population synthesizer.
    prepared: usize,
    /// Completed (finalized) rounds.
    fed: usize,
}

impl RoundGate {
    pub(crate) fn new(horizon: usize) -> Self {
        Self {
            horizon,
            n: None,
            prepared: 0,
            fed: 0,
        }
    }

    /// True population size (known after the first accepted round).
    pub(crate) fn n(&self) -> Option<usize> {
        self.n
    }

    /// Completed (finalized) rounds so far.
    pub(crate) fn rounds_fed(&self) -> usize {
        self.fed
    }

    /// The configured time horizon `T`.
    pub(crate) fn horizon(&self) -> usize {
        self.horizon
    }

    /// Errors while a prepared round awaits `finalize`; `next` names the
    /// call that would have to wait.
    pub(crate) fn ensure_idle(&self, next: &str) -> Result<(), SynthError> {
        if self.prepared > self.fed {
            return Err(SynthError::OutOfPhase(format!(
                "round {} awaits finalize before {next}",
                self.prepared
            )));
        }
        Ok(())
    }

    /// Admit a `prepare` of `len` reports: checks phase, horizon and
    /// population size, then pins `n` and returns the 1-based round.
    pub(crate) fn prepare(&mut self, len: usize) -> Result<usize, SynthError> {
        self.ensure_idle("the next prepare")?;
        if self.prepared >= self.horizon {
            return Err(SynthError::HorizonExceeded {
                horizon: self.horizon,
            });
        }
        self.admit(len)?;
        self.prepared += 1;
        Ok(self.prepared)
    }

    /// The 1-based round the next `finalize` covers. Changes nothing.
    pub(crate) fn next_round(&self) -> Result<usize, SynthError> {
        if self.fed >= self.horizon {
            return Err(SynthError::HorizonExceeded {
                horizon: self.horizon,
            });
        }
        Ok(self.fed + 1)
    }

    /// Commit a `finalize` over `n` individuals, after
    /// [`next_round`](Self::next_round) and the family's shape checks
    /// passed: checks the population size, then pins `n` and counts the
    /// round.
    pub(crate) fn finalize(&mut self, n: usize) -> Result<(), SynthError> {
        debug_assert!(self.fed < self.horizon, "next_round checks the horizon");
        self.admit(n)?;
        self.fed += 1;
        Ok(())
    }

    fn admit(&mut self, n: usize) -> Result<(), SynthError> {
        match self.n {
            Some(expected) if expected != n => Err(SynthError::ColumnSizeMismatch {
                expected,
                actual: n,
            }),
            _ => {
                self.n = Some(n);
                Ok(())
            }
        }
    }
}
