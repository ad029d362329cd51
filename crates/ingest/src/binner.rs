//! Window binning: turning a timestamped event stream into sealed
//! per-round synthesizer inputs.
//!
//! The binner keeps the CSPARQL-style *active-window map* — every window
//! that has opened but not yet sealed — and absorbs each event into all
//! covering windows. Because rounds seal strictly in order, the map is
//! stored dense: a `VecDeque` of slots indexed by `round − next_seal`.
//!
//! The unit of work is a run, not an event. CSPARQL runs its `scope`
//! step, and then a per-window update, on every event; here
//! [`WindowSpec::cover`] resolves the covering rounds together with the
//! *cell* of event time that shares them, and the binner keeps the last
//! cover. [`WindowBinner::push_batch`] takes a batch as a slice and
//! finds its maximal runs of consecutive events inside one cell by
//! index. A run resolves its cover (one `u64` division, only on a cell
//! miss) and its open slots once, then is absorbed cover by cover: each
//! covering slot begins its accumulator at most once, absorbs the whole
//! run in one tight loop, and adds the accepted count to its counter
//! once. So there is one slot lookup and one counter update per run and
//! cover, and each event costs two comparisons plus one `absorb` per
//! covering round. [`WindowBinner::push`] is the same path with one
//! event.
//!
//! Sealing is watermark-driven: [`WindowBinner::advance`] seals every
//! round whose window closes (plus any grace) at or below the watermark,
//! including windows that received no events — an empty round is real
//! data (nobody reported), so it seals as the assembler's empty value and
//! keeps the round clock contiguous for the engine.

use std::collections::VecDeque;
use std::time::Instant;

use longsynth_data::BitColumn;
use longsynth_obs::IngestMetrics;

use crate::window::{Cover, WindowInstance, WindowSpec};
use crate::IngestError;

/// What happens to events that arrive after their window sealed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatePolicy {
    /// Seal as soon as the watermark passes a window's close; events for
    /// sealed windows are dropped and counted (`ingest_late_events_total`).
    /// This is the default: it keeps seal latency minimal and makes loss
    /// observable instead of silent.
    Drop,
    /// Hold each window open for `grace_ms` of event time past its close
    /// before sealing, absorbing stragglers at the cost of seal latency.
    /// Events later than the grace period are still dropped and counted.
    Grace {
        /// Extra event-time milliseconds a window stays open past close.
        grace_ms: i64,
    },
}

impl LatePolicy {
    /// The event-time grace in ms (0 under [`LatePolicy::Drop`]).
    pub fn grace_ms(&self) -> i64 {
        match self {
            LatePolicy::Drop => 0,
            LatePolicy::Grace { grace_ms } => *grace_ms,
        }
    }

    /// Parses the CLI surface syntax: `drop` or `grace:<ms>`.
    pub fn parse(s: &str) -> Result<Self, IngestError> {
        if s == "drop" {
            return Ok(LatePolicy::Drop);
        }
        if let Some(ms) = s.strip_prefix("grace:") {
            let grace_ms: i64 = ms.parse().map_err(|_| {
                IngestError::InvalidConfig(format!("invalid grace milliseconds: {ms:?}"))
            })?;
            if grace_ms < 0 {
                return Err(IngestError::InvalidConfig(
                    "grace period must be non-negative".into(),
                ));
            }
            return Ok(LatePolicy::Grace { grace_ms });
        }
        Err(IngestError::InvalidConfig(format!(
            "unknown late policy {s:?} (expected `drop` or `grace:<ms>`)"
        )))
    }
}

impl std::fmt::Display for LatePolicy {
    /// Renders the [`LatePolicy::parse`] surface syntax back.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LatePolicy::Drop => write!(f, "drop"),
            LatePolicy::Grace { grace_ms } => write!(f, "grace:{grace_ms}"),
        }
    }
}

/// One timestamped event from a producer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event<P> {
    /// Event time in milliseconds (the stream's clock — Unix ms in the
    /// CLI; any i64 epoch works as long as it matches the window spec).
    pub time_ms: i64,
    /// The reporting individual's index in the engine's population
    /// layout (for scheduled panels: position within the round's active
    /// set).
    pub individual: u32,
    /// Assembler-specific payload (`bool` for [`BitRoundAssembler`]).
    pub payload: P,
}

/// Folds the events of one window into the per-round input shape the
/// synthesizers already take (`S::Input`).
///
/// `begin` must produce the *empty round* — the value a round with zero
/// events seals to. That choice is what makes ingest replay equivalent to
/// the pre-binned lockstep path: a lockstep round whose column is all
/// zeros and an ingest round that saw no events are the same input.
pub trait RoundAssembler {
    /// Per-event payload carried by [`Event`].
    type Payload;
    /// In-progress accumulator for one open window.
    type Acc;
    /// Sealed per-round input handed to the engine.
    type Round;

    /// A fresh, empty accumulator for `round`, which may shape the round's
    /// input (a rotating panel's active set varies per round).
    fn begin(&self, round: u64) -> Self::Acc;
    /// Folds one event into the accumulator. Errors reject the event
    /// (counted, not fatal): a malformed producer must not poison the
    /// stream.
    fn absorb(
        &self,
        acc: &mut Self::Acc,
        individual: u32,
        payload: &Self::Payload,
    ) -> Result<(), IngestError>;
    /// Finishes the accumulator into the engine-facing round input.
    fn seal(&self, acc: Self::Acc) -> Self::Round;
}

/// Round `r`'s column length: one size for every round, or a per-round
/// table whose rounds past the end are empty (the engine rejects them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoundSizes {
    /// Every round has this population (a static panel).
    Constant(usize),
    /// `sizes[r]` is round `r`'s active-set size (a rotating panel).
    PerRound(Vec<usize>),
}

impl From<usize> for RoundSizes {
    fn from(population: usize) -> Self {
        RoundSizes::Constant(population)
    }
}

impl From<Vec<usize>> for RoundSizes {
    fn from(sizes: Vec<usize>) -> Self {
        RoundSizes::PerRound(sizes)
    }
}

/// Assembles boolean events into the engine's `BitColumn` round input:
/// individual `i` reporting `payload` sets bit `i` of a column sized by
/// the [`RoundSizes`] rule. Re-reports within one window overwrite (last
/// write wins); unreported individuals stay 0. On a rotating panel an
/// event's `individual` is its position in the round's active layout
/// (`PanelSchedule::active_layout`).
#[derive(Debug, Clone)]
pub struct BitRoundAssembler {
    rule: RoundSizes,
}

/// [`BitRoundAssembler`] over a per-round size table (rotating panels).
pub type ScheduledBitRoundAssembler = BitRoundAssembler;

impl BitRoundAssembler {
    /// One column length for every round (a `usize`) or a per-round table
    /// (a `Vec<usize>`).
    pub fn new(sizes: impl Into<RoundSizes>) -> Self {
        Self { rule: sizes.into() }
    }
}

impl RoundAssembler for BitRoundAssembler {
    type Payload = bool;
    type Acc = BitColumn;
    type Round = BitColumn;

    fn begin(&self, round: u64) -> BitColumn {
        let size = match &self.rule {
            RoundSizes::Constant(population) => Some(population),
            RoundSizes::PerRound(sizes) => usize::try_from(round).ok().and_then(|r| sizes.get(r)),
        };
        BitColumn::zeros(size.copied().unwrap_or(0))
    }

    fn absorb(
        &self,
        acc: &mut BitColumn,
        individual: u32,
        payload: &bool,
    ) -> Result<(), IngestError> {
        let idx = individual as usize;
        if idx >= acc.len() {
            return Err(IngestError::IndividualOutOfRange {
                individual,
                population: acc.len(),
            });
        }
        acc.set(idx, *payload);
        Ok(())
    }

    fn seal(&self, acc: BitColumn) -> BitColumn {
        acc
    }
}

/// One watermark-sealed round, ready for `ShardedEngine::run_from_ingest`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedRound<R> {
    /// Engine round index (0-based, contiguous).
    pub round: u64,
    /// The event-time window this round covers.
    pub window: WindowInstance,
    /// Events absorbed into this window (re-reports counted each time).
    pub events: u64,
    /// The assembled per-round input.
    pub input: R,
}

/// One open window. Its accumulator is begun by the first event absorbed
/// into it, so rounds an early event skips over cost no allocation.
struct Slot<Acc> {
    acc: Option<Acc>,
    events: u64,
    first_seen: Option<Instant>,
}

impl<Acc> Slot<Acc> {
    fn empty() -> Self {
        Slot {
            acc: None,
            events: 0,
            first_seen: None,
        }
    }
}

/// The active-window map plus the monotone seal cursor.
pub struct WindowBinner<A: RoundAssembler> {
    spec: WindowSpec,
    policy: LatePolicy,
    assembler: A,
    /// The last resolved cover; events inside its cell skip the division.
    cover: Cover,
    /// Dense open-window slots; index `i` is round `next_seal + i`.
    slots: VecDeque<Slot<A::Acc>>,
    next_seal: u64,
    max_round_touched: Option<u64>,
    events_total: u64,
    late_events: u64,
    rejected_events: u64,
    /// Run positions some cover refused, while a run with several covers
    /// is absorbed; empty otherwise, and only touched on a rejection.
    refused_at: Vec<usize>,
    metrics: Option<IngestMetrics>,
}

impl<A: RoundAssembler> WindowBinner<A> {
    /// Creates a binner over `spec` with the given late-event policy.
    pub fn new(spec: WindowSpec, policy: LatePolicy, assembler: A) -> Self {
        Self {
            spec,
            policy,
            assembler,
            cover: Cover {
                rounds: None,
                cell: None,
            },
            slots: VecDeque::new(),
            next_seal: 0,
            max_round_touched: None,
            events_total: 0,
            late_events: 0,
            rejected_events: 0,
            refused_at: Vec::new(),
            metrics: None,
        }
    }

    /// Attaches the `ingest_*` metric handles.
    pub fn with_metrics(mut self, metrics: IngestMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Absorbs one event into every covering open window: the one-event
    /// form of [`WindowBinner::push_batch`].
    ///
    /// Returns `true` when the event was late — it missed at least one
    /// covering window that had already sealed (with overlapping windows
    /// it may still have been absorbed into the rest), arrived before the
    /// stream origin, or fell into an inter-window gap (`width < slide`).
    pub fn push(&mut self, time_ms: i64, individual: u32, payload: &A::Payload) -> bool {
        self.absorb(&[(time_ms, individual, payload)], |&(t, i, p)| (t, i, p)) > 0
    }

    /// Absorbs `events`, in order, into every covering open window, and
    /// returns how many were late (see [`WindowBinner::push`]).
    ///
    /// The slice is split into maximal runs of consecutive events that
    /// share one cover cell ([`WindowSpec::cover`]). Each run resolves its
    /// cover and open slots once, then is absorbed cover by cover: one
    /// slot lookup and one counter update per run and cover, one `absorb`
    /// per event. A late run counts every event late, and an event that
    /// some covering round rejects counts once, however many covers
    /// refuse it.
    pub fn push_batch(&mut self, events: &[Event<A::Payload>]) -> u64 {
        self.absorb(events, |e| (e.time_ms, e.individual, &e.payload))
    }

    /// The one absorb path behind [`WindowBinner::push`] and
    /// [`WindowBinner::push_batch`]; `parts` reads an event's time,
    /// individual and payload.
    fn absorb<E>(&mut self, events: &[E], parts: impl Fn(&E) -> (i64, u32, &A::Payload)) -> u64 {
        let mut late_total = 0;
        let mut rest = events;
        while let Some((head, tail)) = rest.split_first() {
            let time_ms = parts(head).0;
            if !self.cover.contains(time_ms) {
                self.cover = self.spec.cover(time_ms);
            }
            let cover = self.cover;
            // The run is the head event plus every following event inside
            // the cell; a cover without a cell is a run of one.
            let len = 1 + tail
                .iter()
                .position(|e| !cover.contains(parts(e).0))
                .unwrap_or(tail.len());
            let (run, next) = rest.split_at(len);
            rest = next;
            let late = match cover.rounds {
                Some((lo, hi)) if hi >= self.next_seal => {
                    self.absorb_run(lo, hi, run, &parts);
                    lo < self.next_seal
                }
                _ => true,
            };
            let absorbed = len as u64;
            self.events_total += absorbed;
            if let Some(m) = &self.metrics {
                m.events_total.add(absorbed);
            }
            if late {
                late_total += absorbed;
                self.late_events += absorbed;
                if let Some(m) = &self.metrics {
                    m.late_events_total.add(absorbed);
                }
            }
        }
        late_total
    }

    /// Absorbs one run of events into the open slots of rounds
    /// `max(lo, next_seal)..=hi`, cover by cover.
    fn absorb_run<E>(
        &mut self,
        lo: u64,
        hi: u64,
        run: &[E],
        parts: &impl Fn(&E) -> (i64, u32, &A::Payload),
    ) {
        let base = self.next_seal;
        let need = (hi - base + 1) as usize;
        while self.slots.len() < need {
            self.slots.push_back(Slot::empty());
        }
        let first = lo.max(base);
        let covers = &mut self.slots.make_contiguous()[(first - base) as usize..need];
        let shared = covers.len() > 1;
        // The one cover's refusals, unless the run has several covers.
        let mut rejected = 0;
        for (round, slot) in (first..).zip(covers.iter_mut()) {
            let acc = slot.acc.get_or_insert_with(|| self.assembler.begin(round));
            let mut refused = 0;
            for (at, event) in run.iter().enumerate() {
                let (_, individual, payload) = parts(event);
                // A refused event is still offered to the remaining covers:
                // schedule-aware assemblers size each round differently,
                // so an individual out of range for one covering round can
                // still be valid for a later one.
                if self.assembler.absorb(acc, individual, payload).is_err() {
                    refused += 1;
                    if shared {
                        self.refused_at.push(at);
                    }
                }
            }
            let accepted = run.len() as u64 - refused;
            if accepted > 0 && slot.first_seen.is_none() {
                slot.first_seen = Some(Instant::now());
            }
            slot.events += accepted;
            rejected = refused;
        }
        if shared {
            // Several covers may refuse one event; it counts once.
            self.refused_at.sort_unstable();
            self.refused_at.dedup();
            rejected = self.refused_at.len() as u64;
            self.refused_at.clear();
        }
        self.rejected_events += rejected;
        self.max_round_touched = Some(self.max_round_touched.map_or(hi, |m| m.max(hi)));
    }

    /// Seals every round whose window close (+ grace) is at or below
    /// `watermark`, in round order, appending to `out`.
    pub fn advance(&mut self, watermark: i64, out: &mut VecDeque<SealedRound<A::Round>>) {
        if let Some(target) = self
            .spec
            .last_sealable_round(watermark, self.policy.grace_ms())
        {
            self.seal_through(target, out);
        }
    }

    /// Seals every round up to and including `round` (windows that never
    /// saw an event seal empty). The cursor is monotone: already-sealed
    /// rounds are skipped.
    pub fn seal_through(&mut self, round: u64, out: &mut VecDeque<SealedRound<A::Round>>) {
        while self.next_seal <= round {
            let slot = self.slots.pop_front().unwrap_or_else(Slot::empty);
            let acc = slot
                .acc
                .unwrap_or_else(|| self.assembler.begin(self.next_seal));
            let input = self.assembler.seal(acc);
            if let Some(m) = &self.metrics {
                m.rounds_sealed_total.inc();
                if let Some(first) = slot.first_seen {
                    m.seal_ms.observe(first.elapsed().as_secs_f64() * 1_000.0);
                }
            }
            out.push_back(SealedRound {
                round: self.next_seal,
                window: self.spec.window(self.next_seal),
                events: slot.events,
                input,
            });
            self.next_seal += 1;
        }
    }

    /// End-of-stream flush: seals every window that ever saw an event
    /// (plus any earlier empty ones), regardless of the watermark.
    pub fn finish(&mut self, out: &mut VecDeque<SealedRound<A::Round>>) {
        if let Some(max) = self.max_round_touched {
            self.seal_through(max, out);
        }
    }

    /// The currently open windows: `(round, window, events absorbed)`.
    pub fn active_windows(&self) -> Vec<(u64, WindowInstance, u64)> {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                let round = self.next_seal + i as u64;
                (round, self.spec.window(round), slot.events)
            })
            .collect()
    }

    /// Next round index the seal cursor will emit.
    pub fn next_seal(&self) -> u64 {
        self.next_seal
    }

    /// Total events pushed (late and rejected included).
    pub fn events_total(&self) -> u64 {
        self.events_total
    }

    /// Events that missed at least one sealed covering window, arrived
    /// pre-origin, or fell into a gap.
    pub fn late_events(&self) -> u64 {
        self.late_events
    }

    /// Events rejected by the assembler (e.g. individual out of range).
    pub fn rejected_events(&self) -> u64 {
        self.rejected_events
    }

    /// The window geometry this binner runs.
    pub fn spec(&self) -> WindowSpec {
        self.spec
    }

    /// The configured late-event policy.
    pub fn policy(&self) -> LatePolicy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(time_ms: i64, individual: u32, payload: bool) -> Event<bool> {
        Event {
            time_ms,
            individual,
            payload,
        }
    }

    fn bits(sealed: &SealedRound<BitColumn>) -> Vec<bool> {
        (0..sealed.input.len())
            .map(|i| sealed.input.get(i))
            .collect()
    }

    #[test]
    fn tumbling_binning_with_watermark_seals_in_order() {
        let spec = WindowSpec::tumbling(100, 0).unwrap();
        let mut binner = WindowBinner::new(spec, LatePolicy::Drop, BitRoundAssembler::new(3));
        let mut out = VecDeque::new();

        assert!(!binner.push(10, 0, &true));
        assert!(!binner.push(150, 2, &true));
        binner.advance(100, &mut out);
        assert_eq!(out.len(), 1);
        let r0 = out.pop_front().unwrap();
        assert_eq!(r0.round, 0);
        assert_eq!(r0.events, 1);
        assert_eq!(bits(&r0), vec![true, false, false]);

        binner.advance(199, &mut out);
        assert!(out.is_empty(), "round 1 closes at 200, watermark 199");
        binner.advance(200, &mut out);
        let r1 = out.pop_front().unwrap();
        assert_eq!(r1.round, 1);
        assert_eq!(bits(&r1), vec![false, false, true]);
    }

    #[test]
    fn empty_windows_seal_as_zero_rounds() {
        let spec = WindowSpec::tumbling(100, 0).unwrap();
        let mut binner = WindowBinner::new(spec, LatePolicy::Drop, BitRoundAssembler::new(2));
        let mut out = VecDeque::new();
        binner.push(350, 1, &true); // only round 3 sees an event
        binner.advance(400, &mut out);
        let rounds: Vec<u64> = out.iter().map(|r| r.round).collect();
        assert_eq!(rounds, vec![0, 1, 2, 3]);
        assert!(out.iter().take(3).all(|r| r.events == 0));
        assert_eq!(out[3].events, 1);
        assert!(bits(&out[3])[1]);
    }

    #[test]
    fn drop_policy_counts_and_drops_late_events() {
        let spec = WindowSpec::tumbling(100, 0).unwrap();
        let mut binner = WindowBinner::new(spec, LatePolicy::Drop, BitRoundAssembler::new(2));
        let mut out = VecDeque::new();
        binner.push(10, 0, &true);
        binner.advance(100, &mut out); // round 0 sealed
        assert!(binner.push(50, 1, &true), "event for sealed round is late");
        assert_eq!(binner.late_events(), 1);
        binner.push(110, 1, &true);
        binner.advance(200, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(bits(&out[1]), vec![false, true], "late event must not leak");
    }

    #[test]
    fn grace_policy_holds_windows_open_for_stragglers() {
        let spec = WindowSpec::tumbling(100, 0).unwrap();
        let policy = LatePolicy::Grace { grace_ms: 50 };
        let mut binner = WindowBinner::new(spec, policy, BitRoundAssembler::new(2));
        let mut out = VecDeque::new();
        binner.push(10, 0, &true);
        binner.advance(100, &mut out);
        assert!(out.is_empty(), "grace holds round 0 until watermark 150");
        assert!(!binner.push(90, 1, &true), "straggler lands inside grace");
        binner.advance(150, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(bits(&out[0]), vec![true, true]);
        assert_eq!(binner.late_events(), 0);
    }

    #[test]
    fn overlapping_windows_absorb_into_every_cover() {
        // width 200, slide 100: event at t=150 covers rounds 0 and 1.
        let spec = WindowSpec::new(200, 100, 0).unwrap();
        let mut binner = WindowBinner::new(spec, LatePolicy::Drop, BitRoundAssembler::new(1));
        let mut out = VecDeque::new();
        binner.push(150, 0, &true);
        let active = binner.active_windows();
        assert_eq!(active.len(), 2);
        assert_eq!((active[0].0, active[0].2), (0, 1));
        assert_eq!((active[1].0, active[1].2), (1, 1));
        binner.finish(&mut out);
        assert_eq!(out.len(), 2);
        assert!(bits(&out[0])[0] && bits(&out[1])[0]);
    }

    #[test]
    fn partially_sealed_overlap_counts_late_but_keeps_open_covers() {
        let spec = WindowSpec::new(200, 100, 0).unwrap();
        let mut binner = WindowBinner::new(spec, LatePolicy::Drop, BitRoundAssembler::new(1));
        let mut out = VecDeque::new();
        binner.push(10, 0, &false);
        binner.advance(250, &mut out); // seals round 0 only ([0,200))
        assert_eq!(out.len(), 1);
        // t=150 covers rounds 0 (sealed — missed) and 1 (still open).
        assert!(binner.push(150, 0, &true));
        assert_eq!(binner.late_events(), 1);
        binner.finish(&mut out);
        assert!(bits(&out[1])[0], "open cover must still absorb the event");
    }

    #[test]
    fn pre_origin_events_are_late() {
        let spec = WindowSpec::tumbling(100, 1_000).unwrap();
        let mut binner = WindowBinner::new(spec, LatePolicy::Drop, BitRoundAssembler::new(1));
        assert!(binner.push(999, 0, &true));
        assert_eq!(binner.late_events(), 1);
        assert_eq!(binner.events_total(), 1);
    }

    #[test]
    fn out_of_range_individuals_are_rejected_not_fatal() {
        let spec = WindowSpec::tumbling(100, 0).unwrap();
        let mut binner = WindowBinner::new(spec, LatePolicy::Drop, BitRoundAssembler::new(2));
        let mut out = VecDeque::new();
        binner.push(10, 7, &true);
        binner.push(20, 1, &true);
        assert_eq!(binner.rejected_events(), 1);
        binner.finish(&mut out);
        assert_eq!(bits(&out[0]), vec![false, true]);
    }

    #[test]
    fn rejection_by_one_cover_does_not_starve_larger_covers() {
        // width 200, slide 100: t=150 covers rounds 0 and 1. The rotating
        // panel sizes round 0 at 1 individual and round 1 at 2, so
        // individual 1 is out of range for round 0 but valid for round 1
        // — the round-0 rejection must not stop the event reaching
        // round 1, and counts once.
        let spec = WindowSpec::new(200, 100, 0).unwrap();
        let assembler = ScheduledBitRoundAssembler::new(vec![1, 2]);
        let mut binner = WindowBinner::new(spec, LatePolicy::Drop, assembler);
        let mut out = VecDeque::new();
        binner.push(150, 1, &true);
        assert_eq!(binner.rejected_events(), 1);
        binner.finish(&mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].events, 0, "round 0 cannot hold individual 1");
        assert_eq!(out[1].events, 1);
        assert_eq!(bits(&out[1]), vec![false, true]);
    }

    #[test]
    fn an_event_every_cover_refuses_counts_one_rejection() {
        // width 300, slide 100: t=250 covers rounds 0, 1 and 2, each sized
        // for 2 individuals, so individual 5 is refused three times. The
        // run around it is absorbed by every cover.
        let spec = WindowSpec::new(300, 100, 0).unwrap();
        let mut binner = WindowBinner::new(spec, LatePolicy::Drop, BitRoundAssembler::new(2));
        let mut out = VecDeque::new();
        let late = binner.push_batch(&[
            event(250, 0, true),
            event(260, 5, true),
            event(270, 1, true),
        ]);
        assert_eq!(late, 0);
        assert_eq!(binner.events_total(), 3);
        assert_eq!(binner.rejected_events(), 1, "three refusals, one event");
        assert_eq!(binner.active_windows().len(), 3);
        assert!(binner.active_windows().iter().all(|w| w.2 == 2));
        binner.finish(&mut out);
        assert!(out.iter().all(|r| bits(r) == vec![true, true]));
    }

    #[test]
    fn events_in_a_cell_past_i64_max_run_one_at_a_time() {
        // Round 1 closes past i64::MAX, so its cell cannot be cached and
        // every event must still be absorbed as a run of its own.
        let spec = WindowSpec::tumbling(1_000, i64::MAX - 1_500).unwrap();
        assert_eq!(spec.cover(i64::MAX).cell, None);
        let mut binner = WindowBinner::new(spec, LatePolicy::Drop, BitRoundAssembler::new(3));
        let late = binner.push_batch(&[
            event(i64::MAX - 2, 0, true),
            event(i64::MAX - 1, 1, true),
            event(i64::MAX, 2, false),
        ]);
        assert_eq!((late, binner.events_total()), (0, 3));
        assert_eq!(binner.slots[1].events, 3);
        assert_eq!(binner.slots[1].acc.as_ref().unwrap().count_ones(), 2);
    }

    #[test]
    fn round_sizes_are_constant_or_a_table_empty_past_its_end() {
        let constant = BitRoundAssembler::new(3);
        assert_eq!(constant.begin(0).len(), 3);
        assert_eq!(constant.begin(u64::MAX).len(), 3);
        let table = ScheduledBitRoundAssembler::new(vec![1, 2]);
        assert_eq!(table.begin(0).len(), 1);
        assert_eq!(table.begin(1).len(), 2);
        assert_eq!(table.begin(2).len(), 0);
        assert_eq!(table.begin(u64::MAX).len(), 0);
    }

    #[test]
    fn late_policy_parse_round_trips() {
        assert_eq!(LatePolicy::parse("drop").unwrap(), LatePolicy::Drop);
        assert_eq!(
            LatePolicy::parse("grace:250").unwrap(),
            LatePolicy::Grace { grace_ms: 250 }
        );
        assert!(LatePolicy::parse("grace:-1").is_err());
        assert!(LatePolicy::parse("hold").is_err());
    }
}
