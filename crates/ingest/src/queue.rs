//! Bounded multi-producer / single-consumer batch queue with
//! backpressure.
//!
//! The queue is the memory-safety boundary between untrusted producer
//! traffic and the engine: its depth, counted in items, never exceeds
//! the configured capacity, so a producer flood cannot OOM the sealing
//! side. Producers choose their backpressure mode per call:
//! [`Producer::send`] *blocks* until space frees up,
//! [`Producer::try_send`] *rejects* immediately with
//! [`TrySendError::Full`], and [`Producer::send_batch`] moves a whole
//! batch under one lock acquisition while still honouring the cap.
//!
//! The queue stores batches, not items: a `VecDeque<Vec<T>>` plus a
//! running item count. A batch that fits the free room moves in whole,
//! without touching its items. One that does not is split at the
//! capacity edge into front chunks of exactly the free room, taken from
//! one draining iterator, so a batch of any size costs O(its length)
//! however many waits it takes. [`Consumer::recv_many`] hands out whole
//! batches, and a single send is a one-item batch. Depth, peak depth and
//! the depth gauges all count items.
//!
//! Implementation is a `Mutex` + two condvars — deliberately boring. The
//! workspace has no async runtime (vendored-deps-only build), and the
//! lock is taken once per batch, not once per item.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
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
    /// At least one batch was moved into the caller's buffer; carries
    /// the number of items moved.
    Received(usize),
    /// The timeout elapsed with the queue empty and producers still open.
    TimedOut,
    /// Every producer handle has been dropped and the queue is drained.
    Closed,
}

struct QueueState<T> {
    /// Queued batches in FIFO order; none is empty.
    buf: VecDeque<Vec<T>>,
    /// Items across `buf`: the depth the cap bounds.
    len: usize,
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
    /// Locks the queue state, recovering the guard if a thread panicked
    /// while holding it. Recovery is sound because no critical section
    /// can leave `buf` and `len` out of step when it unwinds: `push` and
    /// `recv_many` change the two with no step between them that can
    /// panic, and set the depth gauges only afterwards; every other
    /// section writes a single counter or flag.
    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends one non-empty batch, counts its items and wakes the
    /// consumer. The caller has checked that it fits under the cap.
    fn push(&self, state: &mut QueueState<T>, batch: Vec<T>) {
        let items = batch.len();
        state.buf.push_back(batch);
        state.len += items;
        self.note_depth(state);
        self.not_empty.notify_one();
    }

    fn note_depth(&self, state: &mut QueueState<T>) {
        let depth = state.len;
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

/// Creates a bounded queue with the given capacity in items (clamped
/// to ≥ 1). `metrics`, when present, keeps `ingest_queue_depth` and
/// `ingest_queue_peak_depth` current from inside the lock, so the
/// exported high-water mark is exact, not sampled.
pub fn bounded<T>(cap: usize, metrics: Option<IngestMetrics>) -> (Producer<T>, Consumer<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(QueueState {
            buf: VecDeque::new(),
            len: 0,
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
        self.shared.lock().producers += 1;
        Producer {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
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
        self.shared.lock().consumer_open = false;
        self.shared.not_full.notify_all();
    }
}

impl<T> Producer<T> {
    /// Blocking send of one item (a one-item batch): waits while the
    /// queue is at capacity. Returns the item back as `Err` if the
    /// consumer has been dropped.
    pub fn send(&self, item: T) -> Result<(), SendError<T>> {
        // A failed batch send hands back its unsent remainder, which is
        // never empty: here, exactly the one item.
        self.send_batch(vec![item])
            .map_err(|SendError(mut rest)| SendError(rest.swap_remove(0)))
    }

    /// Non-blocking send of one item: rejects with
    /// [`TrySendError::Full`] when the queue is at capacity instead of
    /// waiting.
    pub fn try_send(&self, item: T) -> Result<(), TrySendError<T>> {
        let mut state = self.shared.lock();
        if !state.consumer_open {
            return Err(TrySendError::Closed(item));
        }
        if state.len >= self.shared.cap {
            return Err(TrySendError::Full(item));
        }
        self.shared.push(&mut state, vec![item]);
        Ok(())
    }

    /// Blocking batched send. A batch that fits the free room is moved
    /// into the queue whole. A larger one is split at the capacity edge:
    /// each wait for room ends by enqueueing a front chunk of exactly
    /// the free room, drawn from one draining iterator, so every item
    /// moves once. The queue depth never exceeds the cap. On a dropped
    /// consumer, returns the not-yet-enqueued remainder.
    pub fn send_batch(&self, batch: Vec<T>) -> Result<(), SendError<Vec<T>>> {
        let cap = self.shared.cap;
        let mut state = self.shared.lock();
        if !state.consumer_open {
            return Err(SendError(batch));
        }
        if batch.len() <= cap - state.len {
            // Includes a batch that exactly fills the queue: waiting for
            // room then would block with nothing left to send.
            if !batch.is_empty() {
                self.shared.push(&mut state, batch);
            }
            return Ok(());
        }
        let mut rest = batch.into_iter();
        loop {
            let room = cap - state.len;
            if rest.len() <= room {
                self.shared.push(&mut state, rest.collect());
                return Ok(());
            }
            if room > 0 {
                self.shared
                    .push(&mut state, rest.by_ref().take(room).collect());
            }
            state = self
                .shared
                .not_full
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            if !state.consumer_open {
                return Err(SendError(rest.collect()));
            }
        }
    }
}

impl<T> Consumer<T> {
    /// Moves whole batches from the front of the queue into `out` until
    /// at least `max` items have moved or the queue is empty, blocking at
    /// most `timeout` while it is empty. Moves at least one batch and
    /// never splits one, so the item count it returns may exceed `max`.
    /// The timeout is what lets the sealing loop re-evaluate the
    /// watermark (idle-producer policy) even when no events are flowing.
    pub fn recv_many(&self, out: &mut Vec<Vec<T>>, max: usize, timeout: Duration) -> RecvResult {
        let mut state = self.shared.lock();
        loop {
            if !state.buf.is_empty() {
                let mut moved = 0;
                while moved < max.max(1) {
                    let Some(batch) = state.buf.pop_front() else {
                        break;
                    };
                    state.len -= batch.len();
                    moved += batch.len();
                    out.push(batch);
                }
                self.shared.note_depth(&mut state);
                drop(state);
                self.shared.not_full.notify_all();
                return RecvResult::Received(moved);
            }
            if state.producers == 0 {
                return RecvResult::Closed;
            }
            let (next, wait) = self
                .shared
                .not_empty
                .wait_timeout(state, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            state = next;
            if wait.timed_out() && state.buf.is_empty() && state.producers > 0 {
                return RecvResult::TimedOut;
            }
        }
    }

    /// The exact high-water mark of the queue depth, in items, since
    /// creation.
    pub fn peak_depth(&self) -> usize {
        self.shared.lock().peak
    }

    /// Current queue depth in items.
    pub fn depth(&self) -> usize {
        self.shared.lock().len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// Receives until the stream closes, flattening the batches.
    fn drain_all(rx: &Consumer<u32>, max: usize) -> Vec<u32> {
        let mut got = Vec::new();
        loop {
            let mut out = Vec::new();
            match rx.recv_many(&mut out, max, Duration::from_millis(50)) {
                RecvResult::Received(_) => got.extend(out.into_iter().flatten()),
                RecvResult::TimedOut => continue,
                RecvResult::Closed => return got,
            }
        }
    }

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
        assert_eq!(out.concat(), vec![0, 1]);
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
        let got = drain_all(&rx, 8);
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
        let got = drain_all(&rx, 4);
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
        assert_eq!(out.concat(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn fitting_batch_moves_whole_and_oversized_batch_splits_at_the_edge() {
        let (tx, rx) = bounded::<u32>(4, None);
        let batch: Vec<u32> = (0..3).collect();
        let allocation = batch.as_ptr();
        tx.send_batch(batch).unwrap();
        let mut out = Vec::new();
        assert_eq!(
            rx.recv_many(&mut out, 1, Duration::from_millis(10)),
            RecvResult::Received(3)
        );
        assert_eq!(out, vec![vec![0, 1, 2]]);
        assert_eq!(out[0].as_ptr(), allocation, "the batch was copied");

        // Into the now-empty queue, the first chunk is exactly the cap.
        let producer = thread::spawn(move || tx.send_batch((0..10).collect()).unwrap());
        let mut chunks = Vec::new();
        while rx.recv_many(&mut chunks, 1, Duration::from_millis(50)) != RecvResult::Closed {}
        producer.join().unwrap();
        assert_eq!(chunks[0].len(), 4);
        assert!(chunks.iter().all(|c| !c.is_empty() && c.len() <= 4));
        assert_eq!(chunks.concat(), (0..10).collect::<Vec<_>>());
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
        assert_eq!(tx.send_batch(vec![3, 4]), Err(SendError(vec![3, 4])));
    }

    #[test]
    fn queue_keeps_working_after_a_panic_under_its_lock() {
        let (tx, rx) = bounded::<u32>(3, None);
        tx.send(0).unwrap();
        let shared = Arc::clone(&tx.shared);
        let panicked = thread::spawn(move || {
            let _guard = shared.state.lock().unwrap();
            panic!("deliberate panic while holding the queue lock");
        })
        .join();
        assert!(panicked.is_err());
        assert!(tx.shared.state.is_poisoned());

        tx.send(1).unwrap();
        tx.send_batch(vec![2]).unwrap();
        assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
        assert_eq!(rx.depth(), 3);
        let mut out = Vec::new();
        assert_eq!(
            rx.recv_many(&mut out, 8, Duration::from_millis(10)),
            RecvResult::Received(3)
        );
        assert_eq!(out.concat(), vec![0, 1, 2]);
        assert_eq!(rx.peak_depth(), 3);
        drop(tx);
        assert_eq!(
            rx.recv_many(&mut out, 8, Duration::from_millis(10)),
            RecvResult::Closed
        );
    }
}
