//! Differential-privacy primitives for `longsynth`.
//!
//! This crate is the lowest substrate of the workspace: exact integer-valued
//! noise samplers and zero-concentrated differential privacy (zCDP)
//! accounting, as used by the synthesizers of
//! *Continual Release of Differentially Private Synthetic Data from
//! Longitudinal Data Collections* (Bun, Gaboardi, Neunhoeffer, Zhang;
//! PODS 2024).
//!
//! # Contents
//!
//! * [`rng`] — deterministic, forkable randomness so that every repetition,
//!   histogram bin, and stream counter draws from an independent stream.
//! * [`bernoulli`] — exact `Bernoulli(exp(-γ))` sampling
//!   (Canonne–Kamath–Steinke, NeurIPS 2020).
//! * [`geometric`] — exact integer-scale discrete Laplace sampling, the
//!   discrete Gaussian's proposal.
//! * [`discrete_gaussian`] — exact discrete Gaussian `N_Z(0, σ²)` sampling
//!   by rejection from the discrete Laplace, plus moment/tail facts.
//! * [`fastrange`] — pooled-entropy exact bounded sampling
//!   ([`fastrange::RangePool`]) and the batched Fisher–Yates prefix
//!   shuffle the synthesizers' update steps run on.
//! * [`budget`] — the [`budget::Rho`] zCDP budget type, composition,
//!   `(ε, δ)` conversion, and the paper's budget splitters (uniform and the
//!   Corollary B.1 weighting across cumulative-query thresholds).
//! * [`mechanisms`] — the noisy-count building block ("stage 1" of both
//!   algorithms): integer noise calibrated to a sensitivity and a budget.
//! * [`tail`] — sub-Gaussian tail arithmetic, the Theorem 3.2 error
//!   expression `λ(ρ, T, k, β)`, and the padding rule `npad`.
//!
//! # Example
//!
//! ```
//! use longsynth_dp::budget::Rho;
//! use longsynth_dp::mechanisms::NoiseDistribution;
//! use longsynth_dp::rng::rng_from_seed;
//!
//! let rho = Rho::new(0.005).unwrap();
//! // Discrete Gaussian calibrated so that releasing one sensitivity-1 count
//! // satisfies rho-zCDP.
//! let noise = NoiseDistribution::gaussian_for_zcdp(rho, 1.0);
//! let mut rng = rng_from_seed(7);
//! let private_count = 1234 + noise.sample(&mut rng);
//! let _ = private_count;
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod bernoulli;
pub mod budget;
pub mod discrete_gaussian;
mod fastcoin;
pub mod fastrange;
pub mod geometric;
pub mod mechanisms;
pub mod rng;
pub mod tail;

pub use budget::Rho;
pub use discrete_gaussian::DiscreteGaussianSampler;
pub use fastrange::RangePool;
pub use mechanisms::{NoiseDistribution, NoiseSampler};
pub use rng::{rng_from_seed, RngFork};
