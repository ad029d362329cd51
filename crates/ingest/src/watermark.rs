//! Low-watermark tracking across producers.
//!
//! Each producer handle owns a slot recording the maximum event time it
//! has sent (producers are assumed locally in-order; out-of-order sends
//! within one producer are exactly what the late-event policy absorbs).
//! The **low watermark** is the minimum of those maxima over live
//! producers: no in-order producer can still emit an event earlier than
//! its own maximum, so every window closing at or before the low
//! watermark has seen all the events it will ever see.
//!
//! A producer that registers but never sends pins the watermark at
//! "unknown" and stalls sealing forever; [`IdlePolicy`] decides how long
//! the sealer tolerates that before excluding the silent slot.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How the sealer treats producers that have stopped (or never started)
/// sending while remaining open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdlePolicy {
    /// Strict: the watermark only advances on the slowest open producer.
    /// A silent producer stalls sealing until it sends, heartbeats, or
    /// closes. Never seals early; may wait forever.
    WaitForAll,
    /// A producer with no activity (send, heartbeat, or registration)
    /// for at least this long is excluded from the minimum. If *every*
    /// contributing slot is excluded, the watermark falls back to the
    /// global maximum seen, letting the stream drain fully.
    ExcludeAfter(Duration),
}

struct SlotState {
    max_ts: Option<i64>,
    open: bool,
    last_activity: Instant,
}

struct TrackerState {
    slots: Vec<SlotState>,
}

/// Shared watermark state; cheap to clone (an `Arc` around one mutex that
/// is touched once per producer *batch*, not per event).
#[derive(Clone)]
pub struct WatermarkTracker {
    inner: Arc<Mutex<TrackerState>>,
}

/// A producer's private handle into the tracker.
pub struct WatermarkSlot {
    tracker: WatermarkTracker,
    index: usize,
}

impl Default for WatermarkTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl WatermarkTracker {
    /// Creates an empty tracker (watermark is `None` until the first
    /// slot reports).
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Mutex::new(TrackerState { slots: Vec::new() })),
        }
    }

    /// Locks the shared state, recovering it if a thread panicked while
    /// holding the lock. Recovery is sound because every critical section
    /// is a read, one `push` of a fresh slot, or an update of one slot's
    /// fields, each of which is valid on its own: no panic can leave the
    /// slots out of step with each other. It also keeps
    /// [`WatermarkSlot`]'s `Drop` from panicking during an unwind, which
    /// would abort the process.
    fn lock(&self) -> MutexGuard<'_, TrackerState> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers a new producer slot. Called by `EventProducer::clone`,
    /// so every concurrent handle advances its own maximum.
    pub fn register(&self) -> WatermarkSlot {
        let mut state = self.lock();
        state.slots.push(SlotState {
            max_ts: None,
            open: true,
            last_activity: Instant::now(),
        });
        WatermarkSlot {
            tracker: self.clone(),
            index: state.slots.len() - 1,
        }
    }

    /// The low watermark under `policy`: the minimum `max_ts` over open,
    /// non-excluded slots. `None` when a counted slot has not reported
    /// yet (nothing may seal), falling back to the global maximum when
    /// every open slot is idle-excluded or closed.
    pub fn low_watermark(&self, policy: IdlePolicy) -> Option<i64> {
        let state = self.lock();
        let now = Instant::now();
        let mut min_open: Option<i64> = None;
        let mut any_counted = false;
        let mut stalled = false;
        let mut global_max: Option<i64> = None;
        for slot in &state.slots {
            if let Some(ts) = slot.max_ts {
                global_max = Some(global_max.map_or(ts, |g| g.max(ts)));
            }
            if !slot.open {
                continue;
            }
            if let IdlePolicy::ExcludeAfter(limit) = policy {
                if now.duration_since(slot.last_activity) >= limit {
                    continue;
                }
            }
            any_counted = true;
            match slot.max_ts {
                Some(ts) => min_open = Some(min_open.map_or(ts, |m| m.min(ts))),
                // An open, counted slot that never reported pins the
                // watermark at unknown.
                None => stalled = true,
            }
        }
        if stalled {
            return None;
        }
        if any_counted {
            min_open
        } else {
            // All open slots excluded (or none open): nothing can hold
            // the stream back, so drain to the global maximum.
            global_max
        }
    }

    /// Maximum event time reported by any slot, ever.
    pub fn max_seen(&self) -> Option<i64> {
        let state = self.lock();
        state.slots.iter().filter_map(|s| s.max_ts).max()
    }
}

impl WatermarkSlot {
    /// Records an event time (monotone max) and refreshes the activity
    /// clock. Callers must keep the slot at or below every event they
    /// have yet to enqueue: the watermark may then momentarily equal
    /// `ts`, but the windows containing any still-unsent event close
    /// strictly after it, so they cannot seal ahead of in-flight
    /// in-order traffic (see `EventProducer` in `tier.rs` for the
    /// per-path argument).
    pub fn advance(&self, ts: i64) {
        let mut state = self.tracker.lock();
        let slot = &mut state.slots[self.index];
        slot.max_ts = Some(slot.max_ts.map_or(ts, |m| m.max(ts)));
        slot.last_activity = Instant::now();
    }

    /// Marks the slot closed; a closed producer no longer bounds the
    /// watermark.
    pub fn close(&self) {
        let mut state = self.tracker.lock();
        let slot = &mut state.slots[self.index];
        slot.open = false;
    }
}

impl Drop for WatermarkSlot {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_watermark_is_min_over_open_producers() {
        let tracker = WatermarkTracker::new();
        let a = tracker.register();
        let b = tracker.register();
        assert_eq!(tracker.low_watermark(IdlePolicy::WaitForAll), None);
        a.advance(100);
        // b has not reported: watermark unknown.
        assert_eq!(tracker.low_watermark(IdlePolicy::WaitForAll), None);
        b.advance(40);
        assert_eq!(tracker.low_watermark(IdlePolicy::WaitForAll), Some(40));
        b.advance(250);
        assert_eq!(tracker.low_watermark(IdlePolicy::WaitForAll), Some(100));
        // Out-of-order report does not regress the slot maximum.
        a.advance(10);
        assert_eq!(tracker.low_watermark(IdlePolicy::WaitForAll), Some(100));
    }

    #[test]
    fn closing_a_producer_releases_the_watermark() {
        let tracker = WatermarkTracker::new();
        let a = tracker.register();
        let b = tracker.register();
        a.advance(500);
        b.advance(20);
        drop(b);
        assert_eq!(tracker.low_watermark(IdlePolicy::WaitForAll), Some(500));
        drop(a);
        // Everything closed: drain to the global max.
        assert_eq!(tracker.low_watermark(IdlePolicy::WaitForAll), Some(500));
        assert_eq!(tracker.max_seen(), Some(500));
    }

    #[test]
    fn tracker_keeps_working_after_a_panic_under_its_lock() {
        let tracker = WatermarkTracker::new();
        let a = tracker.register();
        a.advance(100);
        let inner = Arc::clone(&tracker.inner);
        let panicked = std::thread::spawn(move || {
            let _guard = inner.lock().unwrap();
            panic!("deliberate panic while holding the watermark lock");
        })
        .join();
        assert!(panicked.is_err());
        assert!(tracker.inner.is_poisoned());

        let b = tracker.register();
        assert_eq!(tracker.low_watermark(IdlePolicy::WaitForAll), None);
        b.advance(40);
        assert_eq!(tracker.low_watermark(IdlePolicy::WaitForAll), Some(40));
        a.advance(250);
        b.close();
        assert_eq!(tracker.low_watermark(IdlePolicy::WaitForAll), Some(250));
        drop(a);
        assert_eq!(tracker.max_seen(), Some(250));
    }

    #[test]
    fn idle_policy_excludes_silent_producers() {
        let tracker = WatermarkTracker::new();
        let a = tracker.register();
        let _b = tracker.register(); // never sends
        a.advance(1000);
        assert_eq!(tracker.low_watermark(IdlePolicy::WaitForAll), None);
        // A zero idle allowance excludes every slot (including `a`), so
        // the watermark drains to the global maximum.
        assert_eq!(
            tracker.low_watermark(IdlePolicy::ExcludeAfter(Duration::from_secs(0))),
            Some(1000)
        );
        // A generous allowance still counts both; `_b` stalls it.
        assert_eq!(
            tracker.low_watermark(IdlePolicy::ExcludeAfter(Duration::from_secs(3600))),
            None
        );
    }
}
