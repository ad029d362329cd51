//! The assembled ingest tier: cloneable producer handles on one side, a
//! blocking iterator of watermark-sealed rounds on the other.
//!
//! ```text
//! EventProducer ─┐
//! EventProducer ─┼─▶ bounded queue ─▶ SealedRounds ─▶ WindowBinner ─▶ SealedRound…
//! EventProducer ─┘      (cap N)        (consumer)      (watermark)
//! ```
//!
//! Each [`EventProducer`] owns a watermark slot; cloning a handle
//! registers a new slot, so the low watermark is the minimum over every
//! live handle. The consumer takes the producers' batches off the queue
//! whole, absorbs each one in place, re-evaluates the watermark, and
//! seals every round the watermark has passed — producing the exact
//! per-round inputs `ShardedEngine` steps on.

use std::collections::VecDeque;
use std::time::Duration;

use longsynth_obs::{IngestMetrics, MetricsRegistry};

use crate::binner::{Event, LatePolicy, RoundAssembler, SealedRound, WindowBinner};
use crate::queue::{self, Consumer, Producer, RecvResult, SendError, TrySendError};
use crate::watermark::{IdlePolicy, WatermarkSlot, WatermarkTracker};
use crate::window::WindowSpec;

/// Ingest tier configuration.
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// Event-time window geometry mapped onto engine rounds.
    pub window: WindowSpec,
    /// Out-of-order / late-event policy.
    pub late: LatePolicy,
    /// Bounded queue capacity in events (backpressure bound).
    pub queue_cap: usize,
    /// Idle-producer watermark policy.
    pub idle: IdlePolicy,
    /// How long the sealing loop blocks on an empty queue before
    /// re-evaluating the watermark (drives `IdlePolicy::ExcludeAfter`).
    pub poll: Duration,
}

impl IngestConfig {
    /// Defaults around a window spec: drop-late, 65 536-event queue,
    /// strict watermark, 10 ms poll.
    pub fn new(window: WindowSpec) -> Self {
        Self {
            window,
            late: LatePolicy::Drop,
            queue_cap: 65_536,
            idle: IdlePolicy::WaitForAll,
            poll: Duration::from_millis(10),
        }
    }
}

/// Cloneable producer handle. The invariant every send path maintains:
/// the watermark slot never runs ahead of any event this handle has yet
/// to enqueue. Single sends advance the slot to their own timestamp
/// before enqueueing (safe: that event's windows close strictly after
/// its timestamp); batch sends advance to the batch min before and the
/// batch max only after the whole batch is enqueued. Sealing therefore
/// can never race ahead of an in-flight in-order event.
pub struct EventProducer<P> {
    queue: Producer<Event<P>>,
    slot: WatermarkSlot,
    tracker: WatermarkTracker,
}

impl<P> Clone for EventProducer<P> {
    fn clone(&self) -> Self {
        EventProducer {
            queue: self.queue.clone(),
            slot: self.tracker.register(),
            tracker: self.tracker.clone(),
        }
    }
}

impl<P> EventProducer<P> {
    /// Blocking send (backpressure: waits while the queue is at
    /// capacity).
    pub fn send(&self, event: Event<P>) -> Result<(), SendError<Event<P>>> {
        self.slot.advance(event.time_ms);
        self.queue.send(event)
    }

    /// Non-blocking send; rejects with [`TrySendError::Full`] at
    /// capacity. The watermark still advances — the caller has *seen*
    /// this timestamp even if it chooses to drop the event.
    pub fn try_send(&self, event: Event<P>) -> Result<(), TrySendError<Event<P>>> {
        self.slot.advance(event.time_ms);
        self.queue.try_send(event)
    }

    /// Blocking batched send; two watermark updates for the whole batch,
    /// which the queue moves in whole when it fits (see
    /// [`Producer::send_batch`]).
    ///
    /// The slot advances to the batch **minimum** before enqueueing and
    /// to the batch **maximum** only after the whole batch is in the
    /// queue. Advancing to the max up front would be wrong: if the batch
    /// exceeds the queue's remaining capacity, `send_batch` blocks
    /// mid-batch, and a watermark already at the batch max would let the
    /// consumer seal windows that the still-unsent suffix belongs to —
    /// late-dropping events sent in order through the blocking path. The
    /// min is safe while blocked (every event of this and later batches
    /// is ≥ it, so its windows close strictly later) and still counts as
    /// activity for [`IdlePolicy::ExcludeAfter`].
    pub fn send_batch(&self, batch: Vec<Event<P>>) -> Result<(), SendError<Vec<Event<P>>>> {
        let mut bounds = None;
        for ts in batch.iter().map(|e| e.time_ms) {
            bounds = Some(bounds.map_or((ts, ts), |(lo, hi): (i64, i64)| (lo.min(ts), hi.max(ts))));
        }
        if let Some((min_ts, _)) = bounds {
            self.slot.advance(min_ts);
        }
        self.queue.send_batch(batch)?;
        if let Some((_, max_ts)) = bounds {
            self.slot.advance(max_ts);
        }
        Ok(())
    }

    /// Advances this producer's watermark without sending an event — an
    /// idle-but-alive signal ("I have observed up to `ts` and have
    /// nothing to report"). Takes effect at the consumer's next poll.
    pub fn heartbeat(&self, ts: i64) {
        self.slot.advance(ts);
    }
}

/// Builder/owner of the ingest pipeline. Mint producers with
/// [`IngestTier::producer`], then consume with
/// [`IngestTier::into_rounds`].
pub struct IngestTier<A: RoundAssembler> {
    config: IngestConfig,
    producer: Producer<Event<A::Payload>>,
    consumer: Consumer<Event<A::Payload>>,
    tracker: WatermarkTracker,
    binner: WindowBinner<A>,
    metrics: Option<IngestMetrics>,
}

impl<A: RoundAssembler> IngestTier<A> {
    /// Creates an uninstrumented tier.
    pub fn new(config: IngestConfig, assembler: A) -> Self {
        Self::build(config, assembler, None)
    }

    /// Creates a tier exporting the `ingest_*` metric family to
    /// `registry`.
    pub fn with_metrics(config: IngestConfig, assembler: A, registry: &MetricsRegistry) -> Self {
        Self::build(config, assembler, Some(IngestMetrics::new(registry)))
    }

    fn build(config: IngestConfig, assembler: A, metrics: Option<IngestMetrics>) -> Self {
        let (producer, consumer) = queue::bounded(config.queue_cap, metrics.clone());
        let mut binner = WindowBinner::new(config.window, config.late, assembler);
        if let Some(m) = metrics.clone() {
            binner = binner.with_metrics(m);
        }
        Self {
            config,
            producer,
            consumer,
            tracker: WatermarkTracker::new(),
            binner,
            metrics,
        }
    }

    /// Mints a new producer handle (its own watermark slot).
    pub fn producer(&self) -> EventProducer<A::Payload> {
        EventProducer {
            queue: self.producer.clone(),
            slot: self.tracker.register(),
            tracker: self.tracker.clone(),
        }
    }

    /// Consumes the tier into the blocking sealed-round iterator. The
    /// tier's internal producer handle is dropped here, so the stream
    /// closes once every handle minted via [`IngestTier::producer`] is
    /// dropped.
    pub fn into_rounds(self) -> SealedRounds<A> {
        SealedRounds {
            consumer: self.consumer,
            tracker: self.tracker,
            binner: self.binner,
            idle: self.config.idle,
            poll: self.config.poll,
            pending: VecDeque::new(),
            batch: Vec::new(),
            min_rounds: None,
            finished: false,
            metrics: self.metrics,
        }
    }
}

/// End-of-run counters for reporting (CLI/bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestStats {
    /// Total events pushed through the binner.
    pub events: u64,
    /// Late events (missed a sealed window, pre-origin, or gap).
    pub late_events: u64,
    /// Events rejected by the assembler (malformed).
    pub rejected_events: u64,
    /// Rounds sealed so far.
    pub rounds_sealed: u64,
    /// Exact high-water mark of the queue depth.
    pub peak_queue_depth: usize,
}

/// Blocking iterator over watermark-sealed rounds.
pub struct SealedRounds<A: RoundAssembler> {
    consumer: Consumer<Event<A::Payload>>,
    tracker: WatermarkTracker,
    binner: WindowBinner<A>,
    idle: IdlePolicy,
    poll: Duration,
    pending: VecDeque<SealedRound<A::Round>>,
    batch: Vec<Vec<Event<A::Payload>>>,
    min_rounds: Option<u64>,
    finished: bool,
    metrics: Option<IngestMetrics>,
}

const RECV_BATCH: usize = 4096;

impl<A: RoundAssembler> SealedRounds<A> {
    /// Guarantees at least `rounds` sealed rounds are emitted: at
    /// end-of-stream, trailing windows that saw no events (and no
    /// watermark) still seal empty through round `rounds − 1`. This is
    /// how a driver with a known horizon keeps the engine's round clock
    /// full-length even when the tail of the stream is silent.
    pub fn with_min_rounds(mut self, rounds: u64) -> Self {
        self.min_rounds = Some(rounds);
        self
    }

    /// Current counters (valid mid-stream and after exhaustion).
    pub fn stats(&self) -> IngestStats {
        IngestStats {
            events: self.binner.events_total(),
            late_events: self.binner.late_events(),
            rejected_events: self.binner.rejected_events(),
            rounds_sealed: self.binner.next_seal(),
            peak_queue_depth: self.consumer.peak_depth(),
        }
    }

    fn sweep(&mut self, watermark: Option<i64>) {
        if let Some(wm) = watermark {
            self.binner.advance(wm, &mut self.pending);
            if let Some(m) = &self.metrics {
                let lag = self.tracker.max_seen().map_or(0, |max| (max - wm).max(0));
                m.watermark_lag_ms.set(lag);
            }
        }
    }

    /// Feeds each received batch straight to the binner's batch entry
    /// and drops it, leaving `self.batch` empty (its capacity retained)
    /// for the next receive.
    fn absorb_batch(&mut self) {
        for batch in self.batch.drain(..) {
            self.binner.push_batch(&batch);
        }
    }

    /// Every producer dropped and the queue drained: the final watermark
    /// is unbounded, so flush every touched window, then pad to the
    /// requested horizon.
    fn finish_stream(&mut self) {
        self.binner.finish(&mut self.pending);
        if let Some(min) = self.min_rounds {
            if min > 0 {
                self.binner.seal_through(min - 1, &mut self.pending);
            }
        }
        self.finished = true;
    }
}

impl<A: RoundAssembler> Iterator for SealedRounds<A> {
    type Item = SealedRound<A::Round>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(sealed) = self.pending.pop_front() {
                return Some(sealed);
            }
            if self.finished {
                return None;
            }
            // Snapshot the watermark BEFORE touching the queue, then
            // absorb every event that was already enqueued at snapshot
            // time before sealing with it. The two-sided safety argument:
            //
            //  * events enqueued AFTER the snapshot: a producer's slot
            //    never runs ahead of an event it has yet to enqueue
            //    (see `EventProducer` — batch sends in particular only
            //    advance to the batch max once the whole batch is in the
            //    queue), so such an event has `time_ms ≥ its producer's
            //    slot at snapshot ≥ snapshot` — a seal at `close ≤
            //    snapshot` can never outrun it;
            //  * events enqueued BEFORE the snapshot may be arbitrarily
            //    older than it (their producer has since raced ahead
            //    inside the queue's capacity), so the whole backlog must
            //    pass through the binner first. A batch's events are
            //    counted in the queue depth under its lock before
            //    `send_batch` returns, and so before the producer
            //    advances its slot to the batch max. FIFO order then
            //    makes "whole batches until at least `depth()` events"
            //    a superset of that set. Reading the depth after the
            //    snapshot, or draining a batch that straddles the count,
            //    over-approximates it: events sent after the snapshot
            //    are absorbed early, which only delays a seal, never
            //    corrupts it.
            let watermark = self.tracker.low_watermark(self.idle);
            let mut backlog = self.consumer.depth();
            if backlog == 0 {
                match self
                    .consumer
                    .recv_many(&mut self.batch, RECV_BATCH, self.poll)
                {
                    RecvResult::Received(_) => {
                        self.absorb_batch();
                        self.sweep(watermark);
                    }
                    // Timeout: no events flowed, but ExcludeAfter may now
                    // drop an idle producer from the minimum —
                    // re-evaluate (the pre-wait snapshot is one poll
                    // stale, which is conservative, never early).
                    RecvResult::TimedOut => self.sweep(watermark),
                    RecvResult::Closed => self.finish_stream(),
                }
                continue;
            }
            let mut closed = false;
            while backlog > 0 {
                match self
                    .consumer
                    .recv_many(&mut self.batch, backlog.min(RECV_BATCH), self.poll)
                {
                    RecvResult::Received(n) => {
                        self.absorb_batch();
                        backlog = backlog.saturating_sub(n);
                    }
                    // Unreachable while the backlog sits in the queue
                    // (recv returns immediately when items are present);
                    // harmless to retry if it ever fires.
                    RecvResult::TimedOut => {}
                    RecvResult::Closed => {
                        closed = true;
                        break;
                    }
                }
            }
            if closed {
                self.finish_stream();
            } else {
                self.sweep(watermark);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binner::BitRoundAssembler;
    use std::thread;

    fn spec(width: i64, t0: i64) -> WindowSpec {
        WindowSpec::tumbling(width, t0).unwrap()
    }

    #[test]
    fn single_producer_stream_seals_all_rounds() {
        let config = IngestConfig::new(spec(100, 0));
        let tier = IngestTier::new(config, BitRoundAssembler::new(4));
        let producer = tier.producer();
        let mut rounds = tier.into_rounds();

        let feeder = thread::spawn(move || {
            for r in 0..5i64 {
                for i in 0..4u32 {
                    producer
                        .send(Event {
                            time_ms: r * 100 + i64::from(i) * 10,
                            individual: i,
                            payload: (i % 2 == 0),
                        })
                        .unwrap();
                }
            }
        });

        let sealed: Vec<_> = rounds.by_ref().collect();
        feeder.join().unwrap();
        assert_eq!(sealed.len(), 5);
        for (r, sr) in sealed.iter().enumerate() {
            assert_eq!(sr.round, r as u64);
            assert_eq!(sr.events, 4);
            assert_eq!(sr.input.count_ones(), 2);
        }
        let stats = rounds.stats();
        assert_eq!(stats.events, 20);
        assert_eq!(stats.late_events, 0);
        assert_eq!(stats.rounds_sealed, 5);
    }

    #[test]
    fn producer_racing_ahead_inside_queue_capacity_loses_nothing() {
        // Regression: with a queue cap larger than the whole stream, the
        // producer finishes before the consumer drains a single batch,
        // so the watermark snapshot is already at end-of-stream while
        // every event still sits in the queue. Sealing must absorb that
        // backlog first — a consumer that seals on the snapshot after
        // draining only one batch counts most of the stream late.
        let mut config = IngestConfig::new(spec(100, 0));
        config.queue_cap = 1 << 16;
        let tier = IngestTier::new(config, BitRoundAssembler::new(500));
        let producer = tier.producer();
        for round in 0..20i64 {
            let batch: Vec<Event<bool>> = (0..500u32)
                .map(|i| Event {
                    time_ms: round * 100 + i64::from(i % 100),
                    individual: i,
                    payload: true,
                })
                .collect();
            producer.send_batch(batch).unwrap();
        }
        drop(producer);

        let mut rounds = tier.into_rounds();
        let sealed: Vec<_> = rounds.by_ref().collect();
        assert_eq!(sealed.len(), 20);
        let stats = rounds.stats();
        assert_eq!(stats.events, 20 * 500);
        assert_eq!(stats.late_events, 0);
        assert_eq!(stats.rounds_sealed, 20);
    }

    #[test]
    fn blocked_batch_send_never_outruns_its_own_tail() {
        // Regression: `send_batch` used to advance the watermark to the
        // batch max BEFORE enqueueing. With a queue cap smaller than the
        // batch, the send blocks mid-batch; the consumer would snapshot
        // the already-maxed watermark, drain only the enqueued prefix,
        // and seal windows the blocked suffix still belongs to — late-
        // dropping in-order events. Cap 1 against a 300-event batch
        // spanning 30 windows forces that interleaving on every push.
        let mut config = IngestConfig::new(spec(100, 0));
        config.queue_cap = 1;
        config.poll = Duration::from_millis(1);
        let tier = IngestTier::new(config, BitRoundAssembler::new(10));
        let producer = tier.producer();
        let mut rounds = tier.into_rounds();

        let feeder = thread::spawn(move || {
            let batch: Vec<Event<bool>> = (0..300u32)
                .map(|i| Event {
                    time_ms: i64::from(i) * 10,
                    individual: i % 10,
                    payload: true,
                })
                .collect();
            producer.send_batch(batch).unwrap();
        });

        let sealed: Vec<_> = rounds.by_ref().collect();
        feeder.join().unwrap();
        assert_eq!(sealed.len(), 30);
        assert!(
            sealed.iter().all(|r| r.events == 10),
            "every window keeps all 10 of its events"
        );
        let stats = rounds.stats();
        assert_eq!(stats.events, 300);
        assert_eq!(stats.late_events, 0, "blocking send path must be lossless");
        assert_eq!(stats.peak_queue_depth, 1);
    }

    #[test]
    fn two_producers_hold_watermark_to_the_slower() {
        let config = IngestConfig::new(spec(100, 0));
        let tier = IngestTier::new(config, BitRoundAssembler::new(2));
        let fast = tier.producer();
        let slow = fast.clone();
        let mut rounds = tier.into_rounds();

        // Fast producer races ahead to round 9; slow stays at round 0.
        for r in 0..10i64 {
            fast.send(Event {
                time_ms: r * 100,
                individual: 0,
                payload: true,
            })
            .unwrap();
        }
        slow.send(Event {
            time_ms: 0,
            individual: 1,
            payload: true,
        })
        .unwrap();
        // Nothing seals until the slow producer closes.
        drop(fast);
        drop(slow);
        let sealed: Vec<_> = rounds.by_ref().collect();
        assert_eq!(sealed.len(), 10);
        assert_eq!(sealed[0].events, 2, "both producers land in round 0");
        assert_eq!(
            rounds.stats().late_events,
            0,
            "watermark protected the slow lane"
        );
    }

    #[test]
    fn min_rounds_pads_silent_tail() {
        let config = IngestConfig::new(spec(100, 0));
        let tier = IngestTier::new(config, BitRoundAssembler::new(1));
        let producer = tier.producer();
        let mut rounds = tier.into_rounds().with_min_rounds(6);
        producer
            .send(Event {
                time_ms: 10,
                individual: 0,
                payload: true,
            })
            .unwrap();
        drop(producer);
        let sealed: Vec<_> = rounds.by_ref().collect();
        assert_eq!(sealed.len(), 6);
        assert!(sealed[1..].iter().all(|r| r.events == 0));
    }

    #[test]
    fn heartbeats_advance_the_watermark_without_events() {
        let config = IngestConfig::new(spec(100, 0));
        let tier = IngestTier::new(config, BitRoundAssembler::new(2));
        let active = tier.producer();
        let quiet = active.clone();
        let mut rounds = tier.into_rounds();
        active
            .send(Event {
                time_ms: 450,
                individual: 0,
                payload: true,
            })
            .unwrap();
        quiet.heartbeat(450);
        drop(active);
        drop(quiet);
        let sealed: Vec<_> = rounds.by_ref().collect();
        // Rounds 0..=4 all seal; only round 4 has the event.
        assert_eq!(sealed.len(), 5);
        assert_eq!(sealed[4].events, 1);
    }

    #[test]
    fn idle_producer_is_excluded_after_timeout() {
        let mut config = IngestConfig::new(spec(100, 0));
        config.idle = IdlePolicy::ExcludeAfter(Duration::from_millis(30));
        config.poll = Duration::from_millis(5);
        let tier = IngestTier::new(config, BitRoundAssembler::new(2));
        let active = tier.producer();
        let idle = active.clone(); // registered, never sends
        let mut rounds = tier.into_rounds();
        active
            .send(Event {
                time_ms: 120,
                individual: 0,
                payload: true,
            })
            .unwrap();
        drop(active);
        // `idle` stays alive: under WaitForAll this would block forever.
        let first = rounds
            .next()
            .expect("round 0 seals once idle lane is excluded");
        assert_eq!(first.round, 0);
        drop(idle);
        assert!(rounds.next().is_some());
        assert!(rounds.next().is_none());
    }
}
