//! Bounded multi-producer / single-consumer event queue with
//! backpressure.
//!
//! The queue is the memory-safety boundary between untrusted producer
//! traffic and the engine: its depth never exceeds the configured
//! capacity, so a producer flood cannot OOM the sealing side. Producers
//! choose their backpressure mode per call: [`Producer::send`] *blocks*
//! until space frees up, [`Producer::try_send`] *rejects* immediately
//! with [`TrySendError::Full`], and [`Producer::send_batch`] amortizes
//! lock traffic for high-throughput feeds while still honouring the cap
//! (it blocks in capacity-sized chunks, never overshooting).
//!
//! Implementation is a `Mutex<VecDeque>` + two condvars — deliberately
//! boring. The workspace has no async runtime (vendored-deps-only
//! build), and at ingest batch sizes the lock is amortized to a few
//! nanoseconds per event (see `BENCH_ingest.json`).

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use longsynth_obs::IngestMetrics;

/// Error returned by [`Producer::try_send`]; carries the rejected item
/// back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The queue is at capacity; retry later or fall back to a blocking
    /// [`Producer::send`].
    Full(T),
    /// The consumer side has been dropped; no send can ever succeed.
    Closed(T),
}

/// Error returned by blocking sends when the consumer has gone away.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Outcome of a draining receive with a timeout.
#[derive(Debug, PartialEq, Eq)]
pub enum RecvResult {
    /// At least one item was moved into the caller's buffer.
    Received(usize),
    /// The timeout elapsed with the queue empty and producers still open.
    TimedOut,
    /// Every producer handle has been dropped and the queue is drained.
    Closed,
}

struct QueueState<T> {
    buf: VecDeque<T>,
    producers: usize,
    consumer_open: bool,
    peak: usize,
}

struct Shared<T> {
    state: Mutex<QueueState<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    cap: usize,
    metrics: Option<IngestMetrics>,
}

impl<T> Shared<T> {
    fn note_depth(&self, state: &mut QueueState<T>) {
        let depth = state.buf.len();
        if depth > state.peak {
            state.peak = depth;
            if let Some(m) = &self.metrics {
                m.queue_peak_depth.set(depth as i64);
            }
        }
        if let Some(m) = &self.metrics {
            m.queue_depth.set(depth as i64);
        }
    }
}

/// Cloneable producer handle for a [`bounded`] queue. Dropping the last
/// clone closes the stream: the consumer drains what remains and then
/// observes [`RecvResult::Closed`].
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
}

/// Single-consumer receiving handle; dropping it wakes and fails all
/// blocked producers.
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
}

/// Creates a bounded queue with the given capacity (clamped to ≥ 1).
/// `metrics`, when present, keeps `ingest_queue_depth` and
/// `ingest_queue_peak_depth` current from inside the lock, so the
/// exported high-water mark is exact, not sampled.
pub fn bounded<T>(cap: usize, metrics: Option<IngestMetrics>) -> (Producer<T>, Consumer<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(QueueState {
            buf: VecDeque::new(),
            producers: 1,
            consumer_open: true,
            peak: 0,
        }),
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
        cap: cap.max(1),
        metrics,
    });
    (
        Producer {
            shared: Arc::clone(&shared),
        },
        Consumer { shared },
    )
}

impl<T> Clone for Producer<T> {
    fn clone(&self) -> Self {
        let mut state = self.shared.state.lock().expect("ingest queue poisoned");
        state.producers += 1;
        drop(state);
        Producer {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().expect("ingest queue poisoned");
        state.producers -= 1;
        let last = state.producers == 0;
        drop(state);
        if last {
            // Wake a consumer blocked on an empty queue so it can observe
            // end-of-stream.
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().expect("ingest queue poisoned");
        state.consumer_open = false;
        drop(state);
        self.shared.not_full.notify_all();
    }
}

impl<T> Producer<T> {
    /// Blocking send: waits while the queue is at capacity. Returns the
    /// item back as `Err` if the consumer has been dropped.
    pub fn send(&self, item: T) -> Result<(), SendError<T>> {
        let mut state = self.shared.state.lock().expect("ingest queue poisoned");
        loop {
            if !state.consumer_open {
                return Err(SendError(item));
            }
            if state.buf.len() < self.shared.cap {
                state.buf.push_back(item);
                self.shared.note_depth(&mut state);
                drop(state);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            state = self
                .shared
                .not_full
                .wait(state)
                .expect("ingest queue poisoned");
        }
    }

    /// Non-blocking send: rejects with [`TrySendError::Full`] when the
    /// queue is at capacity instead of waiting.
    pub fn try_send(&self, item: T) -> Result<(), TrySendError<T>> {
        let mut state = self.shared.state.lock().expect("ingest queue poisoned");
        if !state.consumer_open {
            return Err(TrySendError::Closed(item));
        }
        if state.buf.len() >= self.shared.cap {
            return Err(TrySendError::Full(item));
        }
        state.buf.push_back(item);
        self.shared.note_depth(&mut state);
        drop(state);
        self.shared.not_empty.notify_one();
        Ok(())
    }

    /// Blocking batched send: moves the whole batch in capacity-sized
    /// chunks under a single lock acquisition per chunk. The queue depth
    /// still never exceeds the cap. On a dropped consumer, returns the
    /// not-yet-enqueued remainder.
    pub fn send_batch(&self, batch: Vec<T>) -> Result<(), SendError<Vec<T>>> {
        let mut iter = batch.into_iter();
        let mut state = self.shared.state.lock().expect("ingest queue poisoned");
        loop {
            if !state.consumer_open {
                return Err(SendError(iter.collect()));
            }
            let mut pushed = false;
            while state.buf.len() < self.shared.cap {
                let Some(item) = iter.next() else { break };
                state.buf.push_back(item);
                pushed = true;
            }
            self.shared.note_depth(&mut state);
            // `vec::IntoIter` is exact-size: an empty remainder means the
            // whole batch is queued, including when it exactly filled the
            // queue — waiting for room then would block with nothing left
            // to send.
            if iter.len() == 0 {
                drop(state);
                if pushed {
                    self.shared.not_empty.notify_one();
                }
                return Ok(());
            }
            if pushed {
                self.shared.not_empty.notify_one();
            }
            state = self
                .shared
                .not_full
                .wait(state)
                .expect("ingest queue poisoned");
        }
    }
}

impl<T> Consumer<T> {
    /// Drains up to `max` items into `out`, blocking at most `timeout`
    /// when the queue is empty. The timeout is what lets the sealing loop
    /// re-evaluate the watermark (idle-producer policy) even when no
    /// events are flowing.
    pub fn recv_many(&self, out: &mut Vec<T>, max: usize, timeout: Duration) -> RecvResult {
        let mut state = self.shared.state.lock().expect("ingest queue poisoned");
        loop {
            if !state.buf.is_empty() {
                let take = max.min(state.buf.len());
                out.extend(state.buf.drain(..take));
                self.shared.note_depth(&mut state);
                drop(state);
                self.shared.not_full.notify_all();
                return RecvResult::Received(take);
            }
            if state.producers == 0 {
                return RecvResult::Closed;
            }
            let (next, wait) = self
                .shared
                .not_empty
                .wait_timeout(state, timeout)
                .expect("ingest queue poisoned");
            state = next;
            if wait.timed_out() && state.buf.is_empty() && state.producers > 0 {
                return RecvResult::TimedOut;
            }
        }
    }

    /// The exact high-water mark of the queue depth since creation.
    pub fn peak_depth(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("ingest queue poisoned")
            .peak
    }

    /// Current queue depth.
    pub fn depth(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("ingest queue poisoned")
            .buf
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn try_send_rejects_exactly_at_cap() {
        let (tx, rx) = bounded::<u32>(4, None);
        for i in 0..4 {
            tx.try_send(i).unwrap();
        }
        assert_eq!(tx.try_send(99), Err(TrySendError::Full(99)));
        let mut out = Vec::new();
        assert_eq!(
            rx.recv_many(&mut out, 2, Duration::from_millis(10)),
            RecvResult::Received(2)
        );
        tx.try_send(4).unwrap();
        tx.try_send(5).unwrap();
        assert_eq!(tx.try_send(6), Err(TrySendError::Full(6)));
        assert_eq!(out, vec![0, 1]);
        assert_eq!(rx.peak_depth(), 4);
    }

    #[test]
    fn blocking_send_waits_for_drain_and_preserves_order() {
        let (tx, rx) = bounded::<u32>(2, None);
        let producer = thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        let mut got = Vec::new();
        loop {
            let mut out = Vec::new();
            match rx.recv_many(&mut out, 8, Duration::from_millis(50)) {
                RecvResult::Received(_) => got.extend(out),
                RecvResult::TimedOut => continue,
                RecvResult::Closed => break,
            }
        }
        producer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert!(rx.peak_depth() <= 2);
    }

    #[test]
    fn batch_send_never_overshoots_cap() {
        let (tx, rx) = bounded::<u32>(3, None);
        let producer = thread::spawn(move || {
            tx.send_batch((0..50).collect()).unwrap();
        });
        let mut got = Vec::new();
        loop {
            let mut out = Vec::new();
            match rx.recv_many(&mut out, 4, Duration::from_millis(50)) {
                RecvResult::Received(_) => got.extend(out),
                RecvResult::TimedOut => continue,
                RecvResult::Closed => break,
            }
        }
        producer.join().unwrap();
        assert_eq!(got, (0..50).collect::<Vec<_>>());
        assert!(
            rx.peak_depth() <= 3,
            "peak {} breached cap",
            rx.peak_depth()
        );
    }

    /// A batch that exactly fills the remaining capacity returns at once,
    /// with no consumer draining. Run under a watchdog so a regression
    /// fails instead of hanging the suite.
    #[test]
    fn batch_send_that_exactly_fills_the_queue_returns() {
        let (tx, rx) = bounded::<u32>(4, None);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let sender = thread::spawn(move || {
            let result = tx.send_batch((0..4).collect());
            done_tx.send(result.is_ok()).unwrap();
        });
        let finished = done_rx.recv_timeout(Duration::from_secs(10));
        assert_eq!(finished, Ok(true), "send_batch blocked on a full queue");
        sender.join().unwrap();
        let mut out = Vec::new();
        assert_eq!(
            rx.recv_many(&mut out, 8, Duration::from_millis(10)),
            RecvResult::Received(4)
        );
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn dropping_all_producers_closes_stream() {
        let (tx, rx) = bounded::<u32>(8, None);
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        drop(tx);
        tx2.send(2).unwrap();
        drop(tx2);
        let mut out = Vec::new();
        assert_eq!(
            rx.recv_many(&mut out, 16, Duration::from_millis(10)),
            RecvResult::Received(2)
        );
        assert_eq!(
            rx.recv_many(&mut out, 16, Duration::from_millis(10)),
            RecvResult::Closed
        );
    }

    #[test]
    fn dropped_consumer_fails_senders() {
        let (tx, rx) = bounded::<u32>(1, None);
        tx.try_send(0).unwrap();
        drop(rx);
        assert_eq!(tx.try_send(1), Err(TrySendError::Closed(1)));
        assert_eq!(tx.send(2), Err(SendError(2)));
    }
}
