//! # longsynth-engine
//!
//! A sharded multi-cohort streaming engine over the
//! [`ContinualSynthesizer`](longsynth::ContinualSynthesizer) trait — the
//! scaling layer of the `longsynth`
//! workspace.
//!
//! A single synthesizer processes one panel in one thread. Production
//! traffic (the ROADMAP's millions-of-users target) wants the population
//! partitioned into cohorts that synthesize concurrently. This crate does
//! exactly that:
//!
//! * [`shard::ShardPlan`] — partitions `n` individuals into contiguous,
//!   balanced per-shard cohorts;
//! * [`driver::ShardedEngine`] — one synthesizer per shard, driven in
//!   lockstep (pooled workers when `shards > 1`) by
//!   [`step`](driver::ShardedEngine::step), the engine's one round entry,
//!   and aggregated into a population-level release;
//! * [`policy::AggregationPolicy`] — **where the noise goes**: per-shard
//!   noise (cohort releases concatenate; the pre-policy semantics, still
//!   the default and bit-exact) or shared noise (unnoised per-shard
//!   aggregates sum into one population aggregate, privatized once by a
//!   dedicated population synthesizer);
//! * [`merge::MergeRelease`] / [`merge::MergeAggregate`] — how per-shard
//!   releases concatenate and how per-shard aggregates sum;
//! * [`budget::EngineBudget`] — aggregate zCDP accounting: disjoint cohorts
//!   give parallel composition (`max` over shards) at the cohort level,
//!   composed sequentially with the population level under shared noise,
//!   with the conservative sequential sum also exposed.
//!
//! Privacy: sharding is a pure re-arrangement of *who is synthesized
//! together*. Each user's entire history lives in exactly one shard, so the
//! cohort release level is `max_s ρ_s`-zCDP at user level — identical to
//! the unsharded guarantee when all shards share one configuration. Under
//! shared noise the user's data additionally enters the population-level
//! release, and the two levels compose sequentially to the configured
//! total (see the [`policy`] module docs).
//!
//! Accuracy: under per-shard noise, each shard's noise is calibrated to
//! its own release, so merged counts see a `√shards` relative noise
//! increase on population-level queries. Under shared noise the population
//! release carries **one** noise draw at the population budget share `p`,
//! so population-query error is within `√(1/p)` of an unsharded run
//! regardless of the shard count — sharding becomes a pure throughput
//! knob. The `aggregation_accuracy` bench measures both sides;
//! `engine_scaling` measures latency.
//!
//! ```
//! use longsynth::{CumulativeConfig, CumulativeSynthesizer};
//! use longsynth_data::generators::iid_bernoulli;
//! use longsynth_dp::budget::Rho;
//! use longsynth_dp::rng::{rng_from_seed, RngFork};
//! use longsynth_engine::{ShardPlan, ShardedEngine};
//!
//! let panel = iid_bernoulli(&mut rng_from_seed(1), 1_000, 12, 0.2);
//! let plan = ShardPlan::new(1_000, 4).unwrap();
//! let fork = RngFork::new(42);
//! let mut engine = ShardedEngine::new(plan, |s, _| {
//!     let config = CumulativeConfig::new(12, Rho::new(0.5).unwrap()).unwrap();
//!     CumulativeSynthesizer::new(config, fork.subfork(s as u64), rng_from_seed(42 + s as u64))
//! })
//! .unwrap();
//! for (_, column) in panel.stream() {
//!     let release = engine.step(column).unwrap();
//!     assert_eq!(release.len(), 1_000); // population-level release
//! }
//! assert!(engine.budget().exhausted());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod budget;
pub mod driver;
pub mod merge;
pub mod obs;
pub mod policy;
pub mod shard;
pub mod sink;

pub use budget::EngineBudget;
pub use driver::{IngestDriver, ShardedEngine};
pub use merge::{MergeAggregate, MergeRelease};
pub use obs::EngineObserver;
pub use policy::{AggregationPolicy, PolicyTag};
pub use shard::{CohortSchedule, PanelSchedule, PanelSlot, ShardPlan, ShardableInput, SlotRole};
pub use sink::ReleaseSink;

use longsynth::SynthError;
use std::fmt;

/// Errors surfaced by the engine layer.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The shard plan itself is unusable.
    InvalidPlan(String),
    /// An input column's population does not match the engine's plan
    /// (engine-level validation, caught before any shard runs).
    PopulationMismatch {
        /// The plan's population size.
        expected: usize,
        /// The input column's population size.
        actual: usize,
    },
    /// A shard's synthesizer failed.
    Shard {
        /// Which shard failed.
        shard: usize,
        /// The underlying synthesizer error.
        source: SynthError,
    },
    /// The `(shard, size)` factory of [`ShardedEngine::new`] or
    /// [`ShardedEngine::with_pool`] produced differently-configured
    /// synthesizers. Those constructors derive the static schedule from
    /// shard 0's horizon and budget, so the engine names the first shard
    /// that disagrees. To run a heterogeneous panel (per-cohort horizons
    /// or budgets), build a [`PanelSchedule`] and construct with
    /// [`ShardedEngine::with_schedule`].
    HeterogeneousShards {
        /// First shard whose configuration disagrees with shard 0.
        shard: usize,
        /// Which configuration field disagrees (e.g. `horizon`).
        field: &'static str,
        /// Shard 0's value.
        expected: String,
        /// The offending shard's value.
        actual: String,
    },
    /// A [`PanelSchedule`] failed validation: overlapping windows overrun
    /// the run, a zero-length horizon, a coverage gap, or a budget
    /// over-commit. The message names the offending cohort and rule.
    InvalidSchedule(String),
    /// A scheduled engine's factory did not honor a cohort's
    /// [`CohortSchedule`] (wrong horizon or budget), or the population
    /// slot's configuration.
    ScheduleMismatch {
        /// Which cohort disagrees (`None` for the population slot).
        cohort: Option<usize>,
        /// Which configuration field disagrees (e.g. `horizon`).
        field: &'static str,
        /// The schedule's value.
        expected: String,
        /// The synthesizer's value.
        actual: String,
    },
    /// A scheduled engine was stepped past its global horizon.
    HorizonExhausted {
        /// The configured global horizon.
        horizon: usize,
    },
    /// The per-round lifetime-spend invariant failed: after a completed
    /// round, some individual's lifetime zCDP spend exceeded the
    /// schedule's per-individual cap. Checked in **every** build (release
    /// included — it is an O(cohorts) maximum); the exhaustive
    /// cross-checks (lockstep clocks, sealed-cohort sweeps) stay
    /// debug-only.
    BudgetCapExceeded {
        /// The 0-based round that completed when the violation surfaced.
        round: usize,
        /// The worst individual's lifetime spend.
        spent: longsynth_dp::budget::Rho,
        /// The schedule's per-individual cap.
        cap: longsynth_dp::budget::Rho,
    },
    /// Per-shard releases could not be merged (shards out of lockstep).
    MergeMismatch(String),
    /// An aggregation policy was mis-parameterized, or the slot factory
    /// did not honor its budget split.
    InvalidPolicy(String),
    /// The shared-noise population synthesizer failed to finalize the
    /// summed aggregate.
    Population {
        /// The underlying synthesizer error.
        source: SynthError,
    },
    /// An ingest-sealed round arrived out of order: the engine's round
    /// clock is strictly contiguous, and the ingest tier's watermark
    /// sealing guarantees in-order rounds, so a gap means the sealed
    /// stream was filtered, reordered, or spliced before reaching the
    /// engine.
    IngestOutOfOrder {
        /// The round the engine expected next (its `rounds_fed` clock).
        expected: usize,
        /// The round the sealed stream delivered.
        actual: u64,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::InvalidPlan(msg) => write!(f, "invalid shard plan: {msg}"),
            EngineError::PopulationMismatch { expected, actual } => write!(
                f,
                "input column covers {actual} individuals, engine plan covers {expected}"
            ),
            EngineError::Shard { shard, source } => write!(f, "shard {shard}: {source}"),
            EngineError::HeterogeneousShards {
                shard,
                field,
                expected,
                actual,
            } => write!(
                f,
                "shard {shard} has {field} {actual} but shard 0 has {expected}; \
                 a plan-based engine requires all shards configured identically \
                 (run heterogeneous per-cohort panels through a PanelSchedule)"
            ),
            EngineError::InvalidSchedule(msg) => write!(f, "invalid panel schedule: {msg}"),
            EngineError::ScheduleMismatch {
                cohort,
                field,
                expected,
                actual,
            } => {
                match cohort {
                    Some(c) => write!(f, "cohort {c}'s synthesizer")?,
                    None => write!(f, "the population synthesizer")?,
                }
                write!(
                    f,
                    " has {field} {actual} but its schedule requires {expected}; \
                     the factory must configure each slot exactly as scheduled"
                )
            }
            EngineError::HorizonExhausted { horizon } => write!(
                f,
                "the panel's global horizon of {horizon} rounds is exhausted"
            ),
            EngineError::BudgetCapExceeded { round, spent, cap } => write!(
                f,
                "budget invariant violated after round {round}: max individual lifetime \
                 spend {spent} exceeds the schedule's per-individual cap {cap}"
            ),
            EngineError::MergeMismatch(msg) => write!(f, "release merge failed: {msg}"),
            EngineError::InvalidPolicy(msg) => write!(f, "invalid aggregation policy: {msg}"),
            EngineError::Population { source } => {
                write!(f, "population-level synthesizer: {source}")
            }
            EngineError::IngestOutOfOrder { expected, actual } => write!(
                f,
                "ingest stream sealed round {actual} but the engine expected round \
                 {expected}; sealed rounds must arrive contiguously from round 0"
            ),
        }
    }
}

impl std::error::Error for EngineError {}
