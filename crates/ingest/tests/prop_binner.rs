//! Property tests of the window binner's cover-cell cache and run
//! absorb, against a naive reference binner that resolves every event
//! with one `rounds_covering` call and keeps its open windows in a
//! `BTreeMap`.
//!
//! Each case draws a window family (tumbling, overlapping or gapped; t0
//! negative, at Unix-ms magnitudes or near `i64::MAX / 2`), a late
//! policy, an assembler (one population, or a per-round size table that
//! rejects some individuals in some rounds) and a script of operations:
//! batches in time order or shuffled, single pushes, watermark advances
//! and mid-stream `finish` calls. Events straggle behind the stream's
//! clock, so the script produces pre-origin, in-gap, late, out-of-range
//! and re-reported events. A second binner takes each batch as random
//! sub-batches (empty ones included) and each single push as a one-event
//! batch. After every operation all three must agree on the late count it
//! returned, on the events / late / rejected counters and on the events
//! each open window holds; at the end they must have sealed the same
//! rounds.

use std::collections::{BTreeMap, VecDeque};

use longsynth_ingest::{
    BitRoundAssembler, Event, LatePolicy, RoundAssembler, SealedRound, WindowBinner, WindowSpec,
};
use proptest::prelude::*;

/// Realistic stream origin: 2025-10-09 in Unix ms.
const UNIX_MS_T0: i64 = 1_760_000_000_000;
/// Individuals are drawn below this; populations sit just under it.
const INDIVIDUALS: u64 = 10;

/// SplitMix64 step: expands one generated word into many draws.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw from `lo..hi`.
fn between(state: &mut u64, lo: i64, hi: i64) -> i64 {
    lo + (mix(state) % (hi - lo) as u64) as i64
}

/// Tumbling (0), overlapping (1) or gapped (2) windows at one of three
/// origins: negative (0), Unix ms (1) or near `i64::MAX / 2` (2).
fn spec_from(kind: u8, a: i64, b: i64, origin: u8, jitter: u64) -> WindowSpec {
    let (width, slide) = match kind {
        0 => (a, a),
        1 => (a + b, a),
        _ => (a, a + b),
    };
    let jitter = (jitter % 100_000) as i64;
    let t0 = match origin {
        0 => -1_000_000 - jitter,
        1 => UNIX_MS_T0 + jitter,
        _ => i64::MAX / 2 - jitter,
    };
    WindowSpec::new(width, slide, t0).unwrap()
}

/// The naive binner: one `rounds_covering` per event, open windows in a
/// map, counters bumped one event at a time.
struct Reference<A: RoundAssembler> {
    spec: WindowSpec,
    grace: i64,
    assembler: A,
    open: BTreeMap<u64, (Option<A::Acc>, u64)>,
    next_seal: u64,
    max_touched: Option<u64>,
    events: u64,
    late: u64,
    rejected: u64,
}

impl<A: RoundAssembler> Reference<A> {
    fn new(spec: WindowSpec, policy: LatePolicy, assembler: A) -> Self {
        Self {
            spec,
            grace: policy.grace_ms(),
            assembler,
            open: BTreeMap::new(),
            next_seal: 0,
            max_touched: None,
            events: 0,
            late: 0,
            rejected: 0,
        }
    }

    fn push(&mut self, time_ms: i64, individual: u32, payload: &A::Payload) -> bool {
        self.events += 1;
        let Some((lo, hi)) = self.spec.rounds_covering(time_ms) else {
            self.late += 1;
            return true;
        };
        let late = lo < self.next_seal;
        self.late += u64::from(late);
        if hi < self.next_seal {
            return late;
        }
        let mut rejected = false;
        for round in lo.max(self.next_seal)..=hi {
            let (acc, events) = self.open.entry(round).or_insert((None, 0));
            let acc = acc.get_or_insert_with(|| self.assembler.begin(round));
            match self.assembler.absorb(acc, individual, payload) {
                Ok(()) => *events += 1,
                Err(_) => rejected = true,
            }
        }
        self.rejected += u64::from(rejected);
        self.max_touched = Some(self.max_touched.map_or(hi, |m| m.max(hi)));
        late
    }

    fn seal_through(&mut self, round: u64, out: &mut VecDeque<SealedRound<A::Round>>) {
        while self.next_seal <= round {
            let r = self.next_seal;
            let (acc, events) = self.open.remove(&r).unwrap_or((None, 0));
            let acc = acc.unwrap_or_else(|| self.assembler.begin(r));
            out.push_back(SealedRound {
                round: r,
                window: self.spec.window(r),
                events,
                input: self.assembler.seal(acc),
            });
            self.next_seal += 1;
        }
    }

    fn advance(&mut self, watermark: i64, out: &mut VecDeque<SealedRound<A::Round>>) {
        if let Some(target) = self.spec.last_sealable_round(watermark, self.grace) {
            self.seal_through(target, out);
        }
    }

    fn finish(&mut self, out: &mut VecDeque<SealedRound<A::Round>>) {
        if let Some(max) = self.max_touched {
            self.seal_through(max, out);
        }
    }
}

/// One step of a script run through both binners.
#[derive(Debug)]
enum Op {
    Batch(Vec<(i64, u32, bool)>),
    Push(i64, u32, bool),
    Advance(i64),
    Finish,
}

/// Expands generated `(selector, word)` pairs into a script. A stream
/// clock starts a slide before the origin and only moves forward; events
/// and watermarks scatter up to three windows around it, so stragglers
/// arrive pre-origin, in gaps and after their windows sealed. Half the
/// batches are in time order (long runs in one cell), half shuffled.
fn script(spec: WindowSpec, words: &[(u8, u64)]) -> Vec<Op> {
    let slide = spec.slide();
    let reach = spec.width().max(slide);
    let mut clock = spec.t0() - slide;
    let event = |state: &mut u64, clock: i64| {
        let time = clock + between(state, -3 * reach, 3 * reach);
        let individual = (mix(state) % INDIVIDUALS) as u32;
        (time, individual, mix(state) & 1 == 1)
    };
    words
        .iter()
        .map(|&(selector, word)| {
            let mut state = word;
            match selector {
                0..=7 => {
                    let len = 1 + (mix(&mut state) % 40) as usize;
                    let mut batch: Vec<_> = (0..len).map(|_| event(&mut state, clock)).collect();
                    if selector < 4 {
                        batch.sort_by_key(|&(time, _, _)| time);
                    }
                    clock += between(&mut state, 0, 2 * slide);
                    Op::Batch(batch)
                }
                8..=9 => {
                    let (t, i, p) = event(&mut state, clock);
                    Op::Push(t, i, p)
                }
                10..=14 => Op::Advance(clock - between(&mut state, 0, 2 * reach)),
                _ => Op::Finish,
            }
        })
        .collect()
}

/// Scripted `(time, individual, payload)` triples as binner events.
fn to_events(batch: &[(i64, u32, bool)]) -> Vec<Event<bool>> {
    batch
        .iter()
        .map(|&(time_ms, individual, payload)| Event {
            time_ms,
            individual,
            payload,
        })
        .collect()
}

/// `batch` cut at random points into consecutive sub-batches, some empty.
fn split<'b>(batch: &'b [Event<bool>], state: &mut u64) -> Vec<&'b [Event<bool>]> {
    let mut parts = Vec::new();
    let mut rest = batch;
    loop {
        let len = (mix(state) % 8) as usize;
        if len >= rest.len() {
            parts.push(rest);
            return parts;
        }
        let (part, tail) = rest.split_at(len);
        parts.push(part);
        rest = tail;
    }
}

/// The binner's counters, in the order the assertions name them.
fn counters(binner: &WindowBinner<BitRoundAssembler>) -> (u64, u64, u64, u64) {
    (
        binner.events_total(),
        binner.late_events(),
        binner.rejected_events(),
        binner.next_seal(),
    )
}

/// Runs one script through the binner, a sub-batching binner and the
/// reference, and checks they agree after every step and in the sealed
/// rounds; `split_seed` draws the sub-batch cuts. Returns the reference.
fn check_script(
    spec: WindowSpec,
    policy: LatePolicy,
    assembler: BitRoundAssembler,
    script: &[Op],
    mut split_seed: u64,
) -> Reference<BitRoundAssembler> {
    let mut binner = WindowBinner::new(spec, policy, assembler.clone());
    let mut pieces = WindowBinner::new(spec, policy, assembler.clone());
    let mut reference = Reference::new(spec, policy, assembler);
    let (mut got, mut got_pieces, mut want) = (VecDeque::new(), VecDeque::new(), VecDeque::new());
    for (step, op) in script.iter().enumerate() {
        match op {
            Op::Batch(batch) => {
                let batch_events = to_events(batch);
                let late = binner.push_batch(&batch_events);
                let pieces_late: u64 = split(&batch_events, &mut split_seed)
                    .into_iter()
                    .map(|part| pieces.push_batch(part))
                    .sum();
                let want_late: u64 = batch
                    .iter()
                    .map(|(t, i, p)| u64::from(reference.push(*t, *i, p)))
                    .sum();
                assert_eq!(late, want_late, "batch late count at step {step}");
                assert_eq!(
                    pieces_late, want_late,
                    "sub-batch late count at step {step}"
                );
            }
            Op::Push(t, i, p) => {
                let want_late = reference.push(*t, *i, p);
                assert_eq!(binner.push(*t, *i, p), want_late, "step {step}");
                let one = pieces.push_batch(&to_events(&[(*t, *i, *p)]));
                assert_eq!(one, u64::from(want_late), "one-event batch at step {step}");
            }
            Op::Advance(watermark) => {
                binner.advance(*watermark, &mut got);
                pieces.advance(*watermark, &mut got_pieces);
                reference.advance(*watermark, &mut want);
            }
            Op::Finish => {
                binner.finish(&mut got);
                pieces.finish(&mut got_pieces);
                reference.finish(&mut want);
            }
        }
        let want_counters = (
            reference.events,
            reference.late,
            reference.rejected,
            reference.next_seal,
        );
        assert_eq!(
            counters(&binner),
            want_counters,
            "counters after step {step} ({op:?})"
        );
        assert_eq!(
            counters(&pieces),
            want_counters,
            "sub-batch counters after step {step} ({op:?})"
        );
        // Every open reference window is an active window, and every
        // active window holds the reference's count (0 if untouched).
        let active = binner.active_windows();
        for round in reference.open.keys() {
            assert!(
                active.iter().any(|w| w.0 == *round),
                "open round {round} is not active after step {step}"
            );
        }
        for (round, _, count) in &active {
            let want_count = reference.open.get(round).map_or(0, |(_, events)| *events);
            assert_eq!(*count, want_count, "round {round} events after step {step}");
        }
        assert_eq!(
            pieces.active_windows(),
            active,
            "sub-batch open windows after step {step}"
        );
    }
    binner.finish(&mut got);
    pieces.finish(&mut got_pieces);
    reference.finish(&mut want);
    assert_eq!(got, want, "sealed rounds differ");
    assert_eq!(got_pieces, want, "sub-batch sealed rounds differ");
    reference
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn binner_matches_the_naive_reference(
        geometry in (0u8..3, 1i64..40, 1i64..40, 0u8..3, any::<u64>()),
        setup in (0i64..4, 0i64..60, any::<bool>(), any::<u64>()),
        ops in collection::vec((0u8..16, any::<u64>()), 1..200),
        split_seed in any::<u64>(),
    ) {
        let (kind, a, b, origin, jitter) = geometry;
        let spec = spec_from(kind, a, b, origin, jitter);
        let (policy_kind, grace_ms, scheduled, mut sizes_word) = setup;
        let policy = if policy_kind == 0 {
            LatePolicy::Drop
        } else {
            LatePolicy::Grace { grace_ms }
        };
        // Populations just under the drawn individuals, so some events are
        // out of range; a per-round table also empties every round past
        // its end.
        let assembler = if scheduled {
            let sizes: Vec<usize> = (0..300)
                .map(|_| (INDIVIDUALS - 4 + mix(&mut sizes_word) % 4) as usize)
                .collect();
            BitRoundAssembler::new(sizes)
        } else {
            BitRoundAssembler::new(INDIVIDUALS as usize - 1)
        };
        check_script(spec, policy, assembler, &script(spec, &ops), split_seed);
    }

    #[test]
    fn cover_cells_are_maximal_and_exact(
        geometry in (0u8..3, 1i64..40, 1i64..40, 0u8..3, any::<u64>()),
        offset in -200i64..2_000,
        near_max in 0i64..3_000,
    ) {
        let (kind, a, b, origin, jitter) = geometry;
        let spec = spec_from(kind, a, b, origin, jitter);
        // Times around the origin, and times near i64::MAX, where a cell
        // can run past the end of i64.
        for t in [spec.t0() + offset, i64::MAX - near_max] {
            let cover = spec.cover(t);
            prop_assert_eq!(cover.rounds, spec.rounds_covering(t));
            let Some((start, end)) = cover.cell else {
                // No cell only when the true cell runs past i64::MAX.
                prop_assert_eq!(spec.rounds_covering(i64::MAX), cover.rounds);
                continue;
            };
            prop_assert!(start <= t && t < end, "t = {t} outside its cell");
            prop_assert!(cover.contains(start) && cover.contains(end - 1));
            prop_assert!(!cover.contains(end), "the cell end is exclusive");
            // The answer is constant at both ends of the cell …
            prop_assert_eq!(spec.rounds_covering(start), cover.rounds);
            prop_assert_eq!(spec.rounds_covering(end - 1), cover.rounds);
            // … and changes just outside them.
            prop_assert_ne!(spec.rounds_covering(end), cover.rounds);
            if start > i64::MIN {
                prop_assert_ne!(spec.rounds_covering(start - 1), cover.rounds);
            }
        }
    }
}

#[test]
fn scripts_produce_every_event_class() {
    // A narrowed generator would pass the properties vacuously: one fixed
    // script on a gapped spec must hold every event class they claim.
    let spec = spec_from(2, 5, 7, 1, 0); // width 5, slide 12
    let words: Vec<(u8, u64)> = (0..300u64)
        .map(|i| {
            let mut state = i;
            ((mix(&mut state) % 16) as u8, state)
        })
        .collect();
    let script = script(spec, &words);
    let events: Vec<(i64, u32)> = script
        .iter()
        .flat_map(|op| match op {
            Op::Batch(batch) => batch.iter().map(|&(t, i, _)| (t, i)).collect(),
            Op::Push(t, i, _) => vec![(*t, *i)],
            _ => Vec::new(),
        })
        .collect();
    let pre_origin = events.iter().filter(|(t, _)| *t < spec.t0()).count() as u64;
    let in_gap = events
        .iter()
        .filter(|(t, _)| *t >= spec.t0() && spec.rounds_covering(*t).is_none())
        .count() as u64;
    let mut seen = std::collections::HashSet::new();
    let re_reports = events
        .iter()
        .filter(|(t, i)| !seen.insert((spec.rounds_covering(*t), *i)))
        .count();
    let shuffled = script.iter().any(|op| match op {
        Op::Batch(batch) => batch.windows(2).any(|w| w[0].0 > w[1].0),
        _ => false,
    });
    let finishes = script.iter().filter(|op| matches!(op, Op::Finish)).count();
    assert!(pre_origin > 0 && in_gap > 0 && re_reports > 0 && shuffled && finishes > 0);

    let reference = check_script(
        spec,
        LatePolicy::Drop,
        BitRoundAssembler::new(vec![7; 300]),
        &script,
        7,
    );
    assert!(
        reference.late > pre_origin + in_gap,
        "some events miss a sealed round"
    );
    assert!(reference.rejected > 0, "some individuals are out of range");
}

#[test]
fn run_absorb_matches_the_reference_on_long_in_order_runs() {
    // The shape of a real round: every individual reports once, in
    // individual order, spread over one window — one run per batch.
    // Overlapping windows give the run two covers from round 1 on.
    for spec in [
        WindowSpec::tumbling(60_000, UNIX_MS_T0).unwrap(),
        WindowSpec::new(120_000, 60_000, UNIX_MS_T0).unwrap(),
    ] {
        let n = 1_000u32;
        let mut binner =
            WindowBinner::new(spec, LatePolicy::Drop, BitRoundAssembler::new(n as usize));
        let mut reference =
            Reference::new(spec, LatePolicy::Drop, BitRoundAssembler::new(n as usize));
        let (mut got, mut want) = (VecDeque::new(), VecDeque::new());
        for r in 0..6u64 {
            let open = spec.window(r).open;
            let events: Vec<(i64, u32, bool)> = (0..n)
                .map(|i| (open + i64::from(i) * 60, i, i % 3 == 0))
                .collect();
            binner.push_batch(&to_events(&events));
            for (t, i, p) in &events {
                reference.push(*t, *i, p);
            }
            binner.advance(open + 60_000, &mut got);
            reference.advance(open + 60_000, &mut want);
        }
        binner.finish(&mut got);
        reference.finish(&mut want);
        assert_eq!(got, want);
        assert_eq!(binner.events_total(), 6 * u64::from(n));
        assert_eq!(binner.late_events(), 0);
    }
}
