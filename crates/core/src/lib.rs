//! # longsynth
//!
//! Continual release of differentially private synthetic data from
//! longitudinal data collections — a complete Rust implementation of
//! Bun, Gaboardi, Neunhoeffer & Zhang, *Proc. ACM Manag. Data* 2(2)
//! (PODS), 2024.
//!
//! In every round, each of `n` study participants reports one new bit
//! (employed this month? household below the poverty line?). The
//! synthesizers in this crate maintain a population of *persistent
//! synthetic individuals* and extend each of their histories by one bit per
//! round, such that
//!
//! * the whole output sequence is **ρ-zCDP at user level** — insensitive to
//!   any one participant's entire history, and
//! * released prefixes are **never rewritten**, so individual-level trends
//!   (spell lengths, cumulative exposure) remain consistent across
//!   releases.
//!
//! ## The two synthesizers
//!
//! * [`FixedWindowSynthesizer`] (the paper's Algorithm 1) preserves, at
//!   every round, the histogram of each individual's last `k` bits — and
//!   therefore *every* query expressible over length-≤`k` windows.
//! * [`CumulativeSynthesizer`] (Algorithm 2) preserves, at every round and
//!   for every threshold `b`, the fraction of individuals whose history
//!   contains at least `b` ones.
//!
//! ## Quickstart
//!
//! ```
//! use longsynth::{ContinualSynthesizer, FixedWindowConfig, FixedWindowSynthesizer, PaddingPolicy};
//! use longsynth_data::generators::{two_state_markov, MarkovParams};
//! use longsynth_dp::budget::Rho;
//! use longsynth_dp::rng::rng_from_seed;
//! use longsynth_queries::window::WindowQuery;
//!
//! // A 1 000-person, 12-month panel with persistent binary states.
//! let params = MarkovParams { initial_one: 0.1, stay_one: 0.8, enter_one: 0.02 };
//! let data = two_state_markov(&mut rng_from_seed(1), 1_000, 12, params);
//!
//! // Synthesize it continually under 0.1-zCDP, preserving quarterly
//! // (width-3) windows.
//! let config = FixedWindowConfig::new(12, 3, Rho::new(0.1).unwrap())
//!     .expect("valid parameters");
//! let mut synth = FixedWindowSynthesizer::new(config, rng_from_seed(2));
//! for (_, column) in data.stream() {
//!     synth.step(column).expect("stream matches config");
//! }
//!
//! // Ask: what fraction was in state 1 all three months of Q4?
//! let query = WindowQuery::all_ones(3);
//! let private = synth.estimate_debiased(11, &query).unwrap();
//! let truth = query.evaluate_true(&data, 11);
//! assert!((private - truth).abs() < 0.2);
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`traits`]       | [`ContinualSynthesizer`] — the unified step/release contract all four synthesizers implement |
//! | [`aggregate`]    | unnoised per-round sufficient statistics (the two-phase `prepare` outputs) |
//! | [`arena`]        | [`GroupArena`] — double-buffered flat id-group storage behind every update-step regrouping |
//! | [`fixed_window`] | Algorithm 1 and its consistency arithmetic |
//! | [`cumulative`]   | Algorithm 2 over pluggable stream counters |
//! | [`padding`]      | `npad` policies and the Theorem 3.2 / Cor. 3.3 bounds |
//! | [`baseline`]     | the recompute-from-scratch strawman (§1) |
//! | [`reduction`]    | cumulative-via-`k=T` reduction (§2.1) |
//! | [`categorical`]  | the `|X| = V` fixed-window extension |
//! | [`error`]        | error types |
//!
//! The scaling layer on top of this crate lives in `longsynth-engine`: a
//! sharded multi-cohort streaming engine that drives one
//! [`ContinualSynthesizer`] per cohort in parallel and merges the per-shard
//! releases into a population-level release under parallel-composition
//! budget accounting.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod aggregate;
pub mod arena;
pub mod baseline;
pub mod categorical;
pub mod cumulative;
pub mod error;
pub mod fixed_window;
mod gate;
pub mod padding;
pub mod reduction;
pub mod traits;

pub use aggregate::{CumulativeAggregate, HistogramAggregate};
pub use arena::GroupArena;
pub use cumulative::{BudgetSplit, CumulativeConfig, CumulativeSynthesizer};
pub use error::SynthError;
pub use fixed_window::{FixedWindowConfig, FixedWindowSynthesizer, Release, SelectionStrategy};
pub use padding::PaddingPolicy;
pub use traits::{ContinualSynthesizer, LifecycleStage};

/// The persistent synthetic population: a panel of the same form as the
/// input, whose released prefix is never rewritten. Each round appends one
/// column (one new bit per synthetic individual) through
/// [`LongitudinalDataset::push_column`](longsynth_data::LongitudinalDataset::push_column).
pub type SyntheticDataset = longsynth_data::LongitudinalDataset;
