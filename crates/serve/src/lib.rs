//! # longsynth-serve
//!
//! The query-serving subsystem of the `longsynth` workspace: everything
//! between "the engine produced a release" and "an online consumer got an
//! answer".
//!
//! In the continual-release deployment model (the source paper's setting,
//! and the streaming follow-ups in PAPERS.md), each round's release must be
//! queryable *immediately and forever after* — and answering from stored
//! releases must never cost a re-synthesis. Three pieces deliver that:
//!
//! * [`store::ReleaseStore`] — an append-only store of per-cohort
//!   synthetic releases, ingested from the engine as rounds complete (via
//!   the engine's `ReleaseSink` hook). A per-shard merged round is the
//!   concatenation of the cohort columns, so it is derived, not stored; a
//!   shared-noise population release is stored beside the cohorts.
//!   Released prefixes are immutable, which is the property everything
//!   above relies on.
//! * [`query::QueryService`] — a cloneable, thread-safe front-end answering
//!   the existing window/cumulative/pattern workloads (`longsynth-queries`)
//!   straight from the store: an answer is one store read. Append-only
//!   releases fix every round's statistics once it is released, so the
//!   store keeps them (threshold counts as columns arrive, window
//!   histograms on their first read) and no answer cache sits in front.
//!   Concurrent batches fan out on a `longsynth-pool` [`WorkerPool`] — the
//!   same pool type (and, if the caller chooses, the same pool instance)
//!   that drives the engine's shards.
//! * [`snapshot`] — JSON snapshot/restore of the store, so a long-running
//!   continual release survives process restarts with bit-identical query
//!   answers.
//!
//! ```
//! use longsynth::{CumulativeConfig, CumulativeSynthesizer};
//! use longsynth_data::generators::iid_bernoulli;
//! use longsynth_dp::budget::Rho;
//! use longsynth_dp::rng::{rng_from_seed, RngFork};
//! use longsynth_engine::{ShardPlan, ShardedEngine};
//! use longsynth_serve::{QueryKind, QueryService, ServeQuery, StoreScope};
//!
//! // Engine run with a serving sink attached.
//! let service = QueryService::new();
//! let panel = iid_bernoulli(&mut rng_from_seed(1), 300, 6, 0.2);
//! let fork = RngFork::new(9);
//! let mut engine = ShardedEngine::new(ShardPlan::new(300, 3).unwrap(), |s, _| {
//!     let config = CumulativeConfig::new(6, Rho::new(0.5).unwrap()).unwrap();
//!     CumulativeSynthesizer::new(config, fork.subfork(s as u64), rng_from_seed(s as u64))
//! })
//! .unwrap();
//! engine.set_sink(service.column_sink());
//! for (_, column) in panel.stream() {
//!     engine.step(column).unwrap();
//! }
//!
//! // Every released round is immediately queryable, and a re-read is
//! // bit-identical.
//! let query = ServeQuery {
//!     scope: StoreScope::Merged,
//!     kind: QueryKind::CumulativeFraction { t: 5, b: 2 },
//! };
//! let first = service.answer(&query).unwrap();
//! let again = service.answer(&query).unwrap();
//! assert_eq!(first.to_bits(), again.to_bits());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod query;
pub mod snapshot;
pub mod store;

pub use query::{mixed_battery, QueryKind, QueryService, ServeQuery};
pub use store::{ReleaseStore, ServeError, StoreScope};

// Re-exported so sinks and stores can be policy-tagged without a direct
// `longsynth-engine` dependency at the call site.
pub use longsynth_engine::PolicyTag;

// Re-exported so `serve` users can size and share pools without a direct
// `longsynth-pool` dependency.
pub use longsynth_pool::WorkerPool;
