//! The unified continual-synthesis interface.
//!
//! The paper's two algorithms, the recompute strawman, and the categorical
//! extension grew up as four unrelated structs with incompatible `step()`
//! signatures. [`ContinualSynthesizer`] is the common contract they all
//! satisfy: feed one true column per round, get back whatever that
//! synthesizer releases, and ask uniform bookkeeping questions (current
//! round, rounds remaining, privacy budget spent).
//!
//! The trait is the substrate the sharded streaming engine
//! (`longsynth-engine`) builds on: an engine shard drives *any*
//! `ContinualSynthesizer` without knowing which algorithm it is, and every
//! future scaling layer (async serving, caching, multi-backend) programs
//! against this interface rather than against concrete structs.
//!
//! Each family implements the trait in its own module, and the trait is
//! its only round API: `prepare` and `finalize` hold the family's round
//! bodies, and every family uses the provided `step`. The round contract
//! itself — pinned population size, phase order, horizon — is checked in
//! one place, the crate-private `RoundGate`. The `release_digests` test
//! suite pins each family's released bytes under fixed seeds, and
//! `round_contract` checks every family's rejections.
//!
//! ## The two-phase path
//!
//! Each round is really two separable phases, and the trait exposes both:
//!
//! 1. [`prepare`](ContinualSynthesizer::prepare) consumes the round's true
//!    column and returns its **unnoised sufficient statistics** (the
//!    [`Aggregate`](ContinualSynthesizer::Aggregate) — a window histogram,
//!    threshold increments, …). No noise, no budget charge.
//! 2. [`finalize`](ContinualSynthesizer::finalize) privatizes an aggregate
//!    (noise + ledger charge) and extends the synthetic population,
//!    returning the round's release.
//!
//! [`step`](ContinualSynthesizer::step) is exactly `prepare` then
//! `finalize`, so single-synthesizer behavior is unchanged. The split
//! exists for aggregation layers: because aggregates of **disjoint cohorts
//! sum**, a sharded engine can add per-shard `prepare` outputs into one
//! population aggregate and `finalize` it on a dedicated population
//! synthesizer with a *single* noise draw — the `SharedNoise` aggregation
//! policy in `longsynth-engine`, which recovers unsharded population
//! accuracy. A finalize-only synthesizer never sees raw data, only summed
//! aggregates.

use crate::error::SynthError;
use longsynth_dp::budget::Rho;
use std::fmt;

/// Where a synthesizer stands in its continual-release lifetime.
///
/// The stages exist for *panel lifecycle* management (dynamic cohorts in
/// `longsynth-engine`): a rotating panel holds synthesizers that have not
/// started yet (late entrants, [`Fresh`](Self::Fresh)), synthesizers
/// mid-stream ([`Streaming`](Self::Streaming)), and synthesizers whose
/// cohort has retired ([`Sealed`](Self::Sealed)). A sealed synthesizer's
/// released prefix stays queryable forever, but it accepts no further
/// rounds — every implementation already enforces this by rejecting
/// post-horizon steps with `HorizonExceeded`, and the stage makes that
/// state inspectable without provoking the error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LifecycleStage {
    /// No rounds consumed yet: safe to treat as a brand-new entrant whose
    /// local round 0 is still ahead.
    Fresh,
    /// Mid-run: some rounds consumed, at least one still accepted.
    Streaming,
    /// All [`horizon`](ContinualSynthesizer::horizon) rounds consumed; the
    /// synthesizer is retired and will reject further input.
    Sealed,
}

impl fmt::Display for LifecycleStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LifecycleStage::Fresh => write!(f, "fresh"),
            LifecycleStage::Streaming => write!(f, "streaming"),
            LifecycleStage::Sealed => write!(f, "sealed"),
        }
    }
}

/// A synthesizer that consumes one true column per round and continually
/// releases synthetic data under a fixed total privacy budget.
///
/// The contract, shared by all four implementations:
///
/// * exactly [`horizon`](Self::horizon) calls to [`step`](Self::step) are
///   accepted; further calls return [`SynthError::HorizonExceeded`];
/// * released prefixes are never rewritten (persistent-record
///   implementations) or are explicitly labelled as recomputed
///   ([`RecomputeBaseline`](crate::baseline::RecomputeBaseline));
/// * [`budget_spent`](Self::budget_spent) is monotone in the round and
///   reaches the configured total by the end of the run.
pub trait ContinualSynthesizer {
    /// One round of true reports (e.g. a `BitColumn` or a
    /// `CategoricalColumn`).
    type Input;
    /// What one `step` call releases.
    type Release;
    /// The round's unnoised sufficient statistics (the phase-1 output of
    /// the two-phase path). Aggregates of disjoint cohorts are designed to
    /// sum; the engine's `MergeAggregate` impls define how.
    type Aggregate;

    /// Phase 1: consume the next true column and return the round's
    /// **unnoised** aggregate. Draws no noise and charges no budget — the
    /// aggregate is raw true-data statistics and must only ever flow into
    /// a [`finalize`](Self::finalize) call, never be released.
    fn prepare(&mut self, input: &Self::Input) -> Result<Self::Aggregate, SynthError>;

    /// Phase 2: privatize an aggregate (noise + ledger charge) and extend
    /// the synthetic population; returns the round's release. Works
    /// standalone on aggregates the synthesizer did not `prepare` itself —
    /// e.g. the sum of per-cohort aggregates, the shared-noise population
    /// path.
    fn finalize(&mut self, aggregate: Self::Aggregate) -> Result<Self::Release, SynthError>;

    /// Feed the next true column; returns this round's release.
    ///
    /// Exactly [`prepare`](Self::prepare) followed by
    /// [`finalize`](Self::finalize); no implementation overrides it.
    fn step(&mut self, input: &Self::Input) -> Result<Self::Release, SynthError> {
        let aggregate = self.prepare(input)?;
        self.finalize(aggregate)
    }

    /// Rounds fed so far (0-based count; equals the 1-based current round
    /// number after a successful `step`).
    fn round(&self) -> usize;

    /// The fixed time horizon `T` this synthesizer was configured with.
    fn horizon(&self) -> usize;

    /// Rounds still accepted before the horizon is exhausted.
    fn rounds_remaining(&self) -> usize {
        self.horizon().saturating_sub(self.round())
    }

    /// Where this synthesizer stands in its lifetime — derived from
    /// [`round`](Self::round) and [`rounds_remaining`](Self::rounds_remaining),
    /// so every implementation gets it for free. Dynamic-panel engines use
    /// the stage to decide which cohorts belong to a round's active set.
    fn lifecycle(&self) -> LifecycleStage {
        if self.rounds_remaining() == 0 {
            LifecycleStage::Sealed
        } else if self.round() == 0 {
            LifecycleStage::Fresh
        } else {
            LifecycleStage::Streaming
        }
    }

    /// True once the synthesizer has consumed its whole horizon: it is
    /// retired (its cohort's releases are final) and rejects further
    /// rounds.
    fn is_sealed(&self) -> bool {
        self.lifecycle() == LifecycleStage::Sealed
    }

    /// The membership-window bound `W` of this synthesizer's **cohort
    /// retirement** support — the longest cohort lifetime its windowed
    /// statistics can represent. `Some(W)` is the one capability signal:
    /// the synthesizer can *forget* a retired cohort's contribution
    /// ([`forget_cohort`](Self::forget_cohort)) and so serve as a rotating
    /// panel's population synthesizer. The default is `None`; the
    /// cumulative family's windowed release mode
    /// (`CumulativeConfig::with_window`) opts in. Engines validate `W`
    /// against the schedule's longest cohort horizon at construction, so
    /// a too-small window fails fast instead of mid-run.
    fn cohort_retirement_window(&self) -> Option<usize> {
        None
    }

    /// Remove a retired cohort's **lifetime contribution** — the
    /// element-wise sum of its per-round phase-1 aggregates — from this
    /// synthesizer's sufficient statistics, so later rounds describe only
    /// the *surviving* active set. This is the windowed population
    /// synthesizer's core operation: like every aggregate, the view is
    /// raw pre-noise data flowing *into* the privatization barrier — the
    /// subtraction happens before any noise is drawn, so a retired
    /// individual's terms cancel exactly and later releases are
    /// independent of their data.
    ///
    /// The default errors — most families have no meaningful subtraction.
    fn forget_cohort(&mut self, view: Self::Aggregate) -> Result<(), SynthError> {
        let _ = view;
        Err(SynthError::InvalidConfig(
            "this synthesizer family does not support cohort retirement \
             (windowed population synthesis needs forget_cohort)"
                .to_string(),
        ))
    }

    /// zCDP budget charged so far across all internal mechanisms.
    fn budget_spent(&self) -> Rho;

    /// The total zCDP budget configured for the whole run.
    fn budget_total(&self) -> Rho;

    /// Drive the synthesizer over a whole input stream, collecting the
    /// per-round releases. Stops at the first error.
    fn run<'a, I>(&mut self, inputs: I) -> Result<Vec<Self::Release>, SynthError>
    where
        Self: Sized,
        I: IntoIterator<Item = &'a Self::Input>,
        Self::Input: 'a,
    {
        inputs.into_iter().map(|input| self.step(input)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cumulative::{CumulativeConfig, CumulativeSynthesizer};
    use crate::fixed_window::{FixedWindowConfig, FixedWindowSynthesizer};
    use longsynth_data::generators::iid_bernoulli;
    use longsynth_data::BitColumn;
    use longsynth_dp::rng::{rng_from_seed, RngFork};

    #[test]
    fn bookkeeping_is_uniform_across_implementations() {
        let data = iid_bernoulli(&mut rng_from_seed(1), 100, 6, 0.4);

        let config = FixedWindowConfig::new(6, 2, Rho::new(0.5).unwrap()).unwrap();
        let mut fixed = FixedWindowSynthesizer::new(config, rng_from_seed(2));
        let config = CumulativeConfig::new(6, Rho::new(0.5).unwrap()).unwrap();
        let mut cumulative = CumulativeSynthesizer::new(config, RngFork::new(3), rng_from_seed(3));

        fn drive<S: ContinualSynthesizer<Input = BitColumn>>(
            synth: &mut S,
            data: &longsynth_data::LongitudinalDataset,
        ) {
            assert_eq!(synth.round(), 0);
            assert_eq!(synth.rounds_remaining(), synth.horizon());
            for (t, col) in data.stream() {
                synth.step(col).unwrap();
                assert_eq!(synth.round(), t + 1);
            }
            assert_eq!(synth.rounds_remaining(), 0);
            assert!(synth.budget_spent().value() > 0.0);
            assert!(
                (synth.budget_spent().value() - synth.budget_total().value()).abs() < 1e-9,
                "budget fully spent at horizon"
            );
        }
        drive(&mut fixed, &data);
        drive(&mut cumulative, &data);
    }

    /// `step` and `prepare`+`finalize` are the same computation: two
    /// instances under the same seed, one stepped and one driven through
    /// the explicit two-phase path, release bit-identical sequences.
    #[test]
    fn step_equals_prepare_then_finalize() {
        let data = iid_bernoulli(&mut rng_from_seed(11), 120, 8, 0.4);
        let config = FixedWindowConfig::new(8, 3, Rho::new(0.02).unwrap()).unwrap();
        let mut stepped = FixedWindowSynthesizer::new(config, rng_from_seed(12));
        let mut phased = FixedWindowSynthesizer::new(config, rng_from_seed(12));
        for (_, col) in data.stream() {
            let via_step = stepped.step(col).unwrap();
            let aggregate = phased.prepare(col).unwrap();
            let via_phases = phased.finalize(aggregate).unwrap();
            assert_eq!(via_step, via_phases);
        }
        assert_eq!(stepped.synthetic(), phased.synthetic());

        let config = CumulativeConfig::new(8, Rho::new(0.02).unwrap()).unwrap();
        let mut stepped = CumulativeSynthesizer::new(config, RngFork::new(13), rng_from_seed(13));
        let mut phased = CumulativeSynthesizer::new(config, RngFork::new(13), rng_from_seed(13));
        for (_, col) in data.stream() {
            let via_step = stepped.step(col).unwrap();
            let aggregate = phased.prepare(col).unwrap();
            let via_phases = phased.finalize(aggregate).unwrap();
            assert_eq!(via_step, via_phases);
        }
        assert_eq!(stepped.synthetic(), phased.synthetic());
    }

    /// A **finalize-only** synthesizer fed another instance's prepared
    /// aggregates is bit-identical to a stepped run under the same seed —
    /// the property the engine's shared-noise population synthesizer
    /// relies on (it only ever sees summed aggregates, never raw data).
    #[test]
    fn finalize_only_drive_matches_stepped_run() {
        let data = iid_bernoulli(&mut rng_from_seed(21), 90, 7, 0.35);
        let config = FixedWindowConfig::new(7, 2, Rho::new(0.05).unwrap()).unwrap();
        let mut stepped = FixedWindowSynthesizer::new(config, rng_from_seed(22));
        // The preparer's own seed is irrelevant: prepare draws no noise.
        let mut preparer = FixedWindowSynthesizer::new(config, rng_from_seed(999));
        let mut population = FixedWindowSynthesizer::new(config, rng_from_seed(22));
        for (_, col) in data.stream() {
            let via_step = stepped.step(col).unwrap();
            let aggregate = preparer.prepare(col).unwrap();
            // Keep the preparer phase-consistent for the next round.
            let _ = preparer.finalize(aggregate.clone()).unwrap();
            let via_finalize = population.finalize(aggregate).unwrap();
            assert_eq!(via_step, via_finalize);
        }
        assert_eq!(stepped.synthetic(), population.synthetic());
        assert_eq!(stepped.round(), population.round());
        assert!((population.ledger().spent().value() - 0.05).abs() < 1e-12);
    }

    /// Double-prepare is rejected; so is an aggregate of the wrong phase.
    #[test]
    fn two_phase_misuse_is_caught() {
        let data = iid_bernoulli(&mut rng_from_seed(31), 40, 5, 0.5);
        let config = FixedWindowConfig::new(5, 2, Rho::new(0.1).unwrap()).unwrap();
        let mut synth = FixedWindowSynthesizer::new(config, rng_from_seed(32));
        let col = data.column(0);
        let aggregate = synth.prepare(col).unwrap();
        assert!(matches!(synth.prepare(col), Err(SynthError::OutOfPhase(_))));
        synth.finalize(aggregate).unwrap();
        // A buffered aggregate once releases have begun is out of phase.
        synth.step(col).unwrap(); // round 2: first release (k = 2)
        assert!(matches!(
            synth.finalize(crate::aggregate::HistogramAggregate::Buffered { n: 40 }),
            Err(SynthError::OutOfPhase(_))
        ));
        // A histogram with the wrong bin count is out of phase too.
        assert!(matches!(
            synth.finalize(crate::aggregate::HistogramAggregate::Counts {
                n: 40,
                counts: vec![0; 8],
            }),
            Err(SynthError::OutOfPhase(_))
        ));
        // The failed finalizes did not consume the round: stepping resumes.
        assert_eq!(synth.round(), 2);
        synth.step(col).unwrap();
        assert_eq!(synth.round(), 3);
    }

    /// A rejected finalize leaves a *fresh* synthesizer untouched — in
    /// particular it must not pin the population size (or, for the
    /// cumulative family, size the synthetic population) from a malformed
    /// aggregate.
    #[test]
    fn rejected_first_finalize_does_not_pin_state() {
        // Fixed-window, finalize-only (the population-synthesizer shape):
        // a wrong-bin-count aggregate at n = 40 is rejected; the real
        // n = 100 stream must still be accepted afterwards.
        let config = FixedWindowConfig::new(5, 2, Rho::new(0.1).unwrap()).unwrap();
        let mut population = FixedWindowSynthesizer::new(config, rng_from_seed(61));
        // Wrong phase for round 1 (k = 2 buffers it), and wrong bin count —
        // both rejected before any state changes.
        assert!(matches!(
            population.finalize(crate::aggregate::HistogramAggregate::Counts {
                n: 40,
                counts: vec![0; 4],
            }),
            Err(SynthError::OutOfPhase(_))
        ));
        assert!(population.true_n().is_none());
        assert_eq!(population.round(), 0);
        let data = iid_bernoulli(&mut rng_from_seed(62), 100, 5, 0.5);
        let mut preparer = FixedWindowSynthesizer::new(config, rng_from_seed(63));
        for (_, col) in data.stream() {
            let aggregate = preparer.prepare(col).unwrap();
            preparer.finalize(aggregate.clone()).unwrap();
            population.finalize(aggregate).unwrap();
        }
        assert_eq!(population.true_n(), Some(100));

        // Cumulative: a wrong-length increment vector must not size the
        // synthetic population or pin n.
        let config = CumulativeConfig::new(4, Rho::new(0.1).unwrap()).unwrap();
        let mut population =
            CumulativeSynthesizer::new(config, RngFork::new(64), rng_from_seed(64));
        assert!(matches!(
            population.finalize(crate::aggregate::CumulativeAggregate {
                n: 40,
                increments: vec![1, 2],
            }),
            Err(SynthError::OutOfPhase(_))
        ));
        assert_eq!(population.round(), 0);
        population
            .finalize(crate::aggregate::CumulativeAggregate {
                n: 100,
                increments: vec![7],
            })
            .unwrap();
        assert_eq!(population.true_n(), Some(100));
        assert_eq!(population.synthetic().individuals(), 100);
    }

    /// The derived lifecycle walks fresh → streaming → sealed, and a
    /// sealed synthesizer rejects further rounds — the contract the
    /// dynamic-panel engine's retirement logic leans on.
    #[test]
    fn lifecycle_progresses_and_seals() {
        use crate::traits::LifecycleStage;
        let data = iid_bernoulli(&mut rng_from_seed(41), 60, 4, 0.4);
        let config = CumulativeConfig::new(4, Rho::new(0.1).unwrap()).unwrap();
        let mut synth = CumulativeSynthesizer::new(config, RngFork::new(42), rng_from_seed(42));
        assert_eq!(synth.lifecycle(), LifecycleStage::Fresh);
        assert!(!synth.is_sealed());
        for (t, col) in data.stream() {
            synth.step(col).unwrap();
            let expected = if t + 1 == 4 {
                LifecycleStage::Sealed
            } else {
                LifecycleStage::Streaming
            };
            assert_eq!(synth.lifecycle(), expected, "after round {}", t + 1);
        }
        assert!(synth.is_sealed());
        assert_eq!(synth.lifecycle().to_string(), "sealed");
        assert!(matches!(
            synth.step(data.column(0)),
            Err(SynthError::HorizonExceeded { .. })
        ));
    }

    #[test]
    fn run_collects_all_releases() {
        let data = iid_bernoulli(&mut rng_from_seed(4), 50, 5, 0.5);
        let config = CumulativeConfig::new(5, Rho::new(0.5).unwrap()).unwrap();
        let mut synth = CumulativeSynthesizer::new(config, RngFork::new(5), rng_from_seed(5));
        let columns: Vec<BitColumn> = data.stream().map(|(_, c)| c.clone()).collect();
        let releases = ContinualSynthesizer::run(&mut synth, columns.iter()).unwrap();
        assert_eq!(releases.len(), 5);
        // And the horizon is now exhausted through the trait too.
        assert!(matches!(
            ContinualSynthesizer::step(&mut synth, &columns[0]),
            Err(SynthError::HorizonExceeded { .. })
        ));
    }
}
