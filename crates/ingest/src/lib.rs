//! Event-time ingestion tier for the longsynth engine.
//!
//! The engine's [`ContinualSynthesizer`] world is round-based: one
//! pre-binned input per round, stepped in lockstep. Real traffic is a
//! timestamped event stream from many concurrent producers, out of order
//! and bursty. This crate is the adapter that turns **time into rounds**
//! without changing a single bit of what the engine releases:
//!
//! - [`EventProducer`] — cloneable handles feeding a **bounded queue**
//!   with backpressure (blocking [`EventProducer::send`], rejecting
//!   [`EventProducer::try_send`]), so a producer flood cannot OOM the
//!   sealing side.
//! - [`WindowSpec`] — event-time sliding windows with width/slide
//!   semantics and **pure integer boundary arithmetic**. No `f64`
//!   touches a timestamp anywhere in this crate: float boundary math
//!   silently collapses adjacent windows at Unix-ms magnitudes (the
//!   rsp-rs data-loss bug), and `tests/large_timestamps.rs` pins the
//!   integer math at `t0 ≈ 1.76e12` and near `i64::MAX / 2`.
//! - [`WindowBinner`] — the active-window map. Events are absorbed into
//!   every covering window; rounds seal strictly in order when the
//!   **low watermark** (minimum max-sent timestamp across producers,
//!   [`WatermarkTracker`]) passes a window's close, with
//!   [`LatePolicy`] deciding whether stragglers get a grace period or
//!   are dropped and counted.
//! - [`SealedRound`] — the output: the exact per-round input shape the
//!   synthesizers already take. Replaying pre-binned rounds through the
//!   binner yields **bit-identical releases** to feeding them to the
//!   engine directly (property-pinned in
//!   `crates/engine/tests/ingest_equivalence.rs`).
//!
//! [`ContinualSynthesizer`]: ../longsynth_core/trait.ContinualSynthesizer.html

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod binner;
mod queue;
mod tier;
mod watermark;
mod window;

pub use binner::{
    BitRoundAssembler, Event, LatePolicy, RoundAssembler, RoundSizes, ScheduledBitRoundAssembler,
    SealedRound, WindowBinner,
};
pub use queue::{bounded, Consumer, Producer, RecvResult, SendError, TrySendError};
pub use tier::{EventProducer, IngestConfig, IngestStats, IngestTier, SealedRounds};
pub use watermark::{IdlePolicy, WatermarkSlot, WatermarkTracker};
pub use window::{Cover, WindowInstance, WindowSpec};

use std::fmt;

/// Errors surfaced by the ingest tier's configuration and assembly
/// paths. Hot-path flow control (queue full/closed) uses the dedicated
/// [`TrySendError`]/[`SendError`] types instead, which carry the
/// rejected items back to the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// Invalid window geometry, policy string, or tier configuration.
    InvalidConfig(String),
    /// An event named an individual outside the assembler's population.
    IndividualOutOfRange {
        /// The offending individual index.
        individual: u32,
        /// The assembler's population (valid indices are `0..population`).
        population: usize,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::InvalidConfig(msg) => write!(f, "invalid ingest config: {msg}"),
            IngestError::IndividualOutOfRange {
                individual,
                population,
            } => write!(
                f,
                "event individual {individual} out of range for population {population}"
            ),
        }
    }
}

impl std::error::Error for IngestError {}
