//! Event-time sliding-window arithmetic — **pure integer**, no `f64`
//! anywhere near a timestamp.
//!
//! A [`WindowSpec`] maps engine round `r` to the half-open event-time
//! interval `[t0 + r·slide, t0 + r·slide + width)` (milliseconds). The
//! CSPARQL `scope` computation — "which active windows does this event
//! fall into?" — is done with floor division on `i64` deltas. The
//! floating-point version of this math (`(delta as f64 / slide as f64)`
//! with `ceil`/`floor`) silently loses precision once timestamps reach
//! Unix-ms magnitudes (~1.7e12): `f64` has 52 mantissa bits, so adjacent
//! window boundaries collapse and events vanish without an error. The
//! regression suite in `tests/large_timestamps.rs` pins this class of bug
//! at `t0 ≈ 1.76e12` and near `i64::MAX / 2`.

/// Floor division with a strictly positive divisor.
///
/// Rust's `/` truncates toward zero, which rounds *up* for negative
/// dividends; window arithmetic needs the mathematical floor so that
/// rounds are assigned consistently on both sides of `t0`. Deltas are
/// widened to `i128` by the callers, so `t − t0` can never overflow.
pub(crate) fn div_floor(a: i128, b: i128) -> i128 {
    debug_assert!(b > 0, "div_floor requires a positive divisor");
    let q = a / b;
    if a % b < 0 {
        q - 1
    } else {
        q
    }
}

/// A sliding event-time window family: width, slide, and stream origin.
///
/// Round `r ≥ 0` owns the half-open interval
/// `[t0 + r·slide, t0 + r·slide + width)`. `width == slide` is the
/// tumbling case (each event belongs to exactly one round, which is the
/// configuration whose sealed rounds replay bit-identically against
/// pre-binned lockstep inputs); `width > slide` makes consecutive windows
/// overlap (an event belongs to up to `⌈width/slide⌉` rounds);
/// `width < slide` leaves gaps that no round observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    width: i64,
    slide: i64,
    t0: i64,
}

/// One concrete window instance: the half-open interval `[open, close)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WindowInstance {
    /// Inclusive event-time lower bound (ms).
    pub open: i64,
    /// Exclusive event-time upper bound (ms).
    pub close: i64,
}

impl WindowInstance {
    /// Whether event time `t` falls inside `[open, close)`.
    pub fn contains(&self, t: i64) -> bool {
        self.open <= t && t < self.close
    }
}

/// The rounds covering one event time, and the *cell* of event times
/// that share them ([`WindowSpec::cover`]).
///
/// Cells partition the time line: every event inside `cell` has the same
/// [`WindowSpec::rounds_covering`] answer, so a consumer that keeps the
/// last cover resolves a run of nearby events with two comparisons each
/// instead of a division.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cover {
    /// [`WindowSpec::rounds_covering`] of the event time.
    pub rounds: Option<(u64, u64)>,
    /// The largest half-open interval `[start, end)` of event time that
    /// contains the event time and on which `rounds` stays the same, or
    /// `None` when `end` would not fit in `i64` (then nothing may be
    /// cached). The pre-origin cell starts at `i64::MIN`.
    pub cell: Option<(i64, i64)>,
}

impl Cover {
    /// Whether event time `t` falls inside the cell (`false` without one).
    pub fn contains(&self, t: i64) -> bool {
        self.cell.is_some_and(|(start, end)| start <= t && t < end)
    }
}

impl WindowSpec {
    /// Builds a window family. `width` and `slide` must be positive;
    /// `t0` is the event-time origin of round 0 and may be any `i64`
    /// (negative origins are valid and tested).
    pub fn new(width: i64, slide: i64, t0: i64) -> Result<Self, crate::IngestError> {
        if width <= 0 || slide <= 0 {
            return Err(crate::IngestError::InvalidConfig(format!(
                "window width and slide must be positive (got width={width}, slide={slide})"
            )));
        }
        Ok(Self { width, slide, t0 })
    }

    /// Tumbling convenience: `width == slide`.
    pub fn tumbling(width: i64, t0: i64) -> Result<Self, crate::IngestError> {
        Self::new(width, width, t0)
    }

    /// Window width in ms.
    pub fn width(&self) -> i64 {
        self.width
    }

    /// Slide between consecutive window opens in ms.
    pub fn slide(&self) -> i64 {
        self.slide
    }

    /// Event-time origin of round 0.
    pub fn t0(&self) -> i64 {
        self.t0
    }

    /// The window instance owned by round `r`.
    ///
    /// # Panics
    /// Panics if the boundary `t0 + r·slide + width` overflows `i64` —
    /// callers stay far away from that by construction (Unix-ms horizons
    /// are ~2^41; even `t0 ≈ i64::MAX / 2` leaves 2^62 ms of headroom).
    pub fn window(&self, round: u64) -> WindowInstance {
        let offset = i64::try_from(round)
            .ok()
            .and_then(|r| r.checked_mul(self.slide))
            .expect("window round offset overflows i64");
        let open = self
            .t0
            .checked_add(offset)
            .expect("window open overflows i64");
        let close = open
            .checked_add(self.width)
            .expect("window close overflows i64");
        WindowInstance { open, close }
    }

    /// The inclusive range of rounds whose windows contain event time
    /// `t`, or `None` when no round covers it (before the origin, or in
    /// an inter-window gap when `width < slide`).
    ///
    /// This is the CSPARQL `scope` step, integer-only: the last covering
    /// round is `⌊(t − t0) / slide⌋` and the first is
    /// `⌊(t − t0 − width) / slide⌋ + 1`, both clamped to `≥ 0`. The binner
    /// resolves events through [`WindowSpec::cover`] instead; this
    /// two-division form is the definition the tests check it against.
    pub fn rounds_covering(&self, t: i64) -> Option<(u64, u64)> {
        // Work in i128 so `t − t0` cannot overflow for any (t, t0) pair.
        let delta = i128::from(t) - i128::from(self.t0);
        if delta < 0 {
            return None;
        }
        let slide = i128::from(self.slide);
        let width = i128::from(self.width);
        let hi = div_floor(delta, slide);
        // Gap check (only reachable when width < slide): round `hi` is the
        // last with open ≤ t, but t must also precede its close.
        if delta - hi * slide >= width {
            return None;
        }
        // First r with r·slide > delta − width, i.e. floor + 1 (the strict
        // inequality makes the divisible case land on q + 1), clamped ≥ 0.
        let lo = (div_floor(delta - width, slide) + 1).max(0);
        // delta fits in i64 ⇒ hi ≤ delta/1 fits comfortably in u64.
        Some((lo as u64, hi as u64))
    }

    /// [`WindowSpec::rounds_covering`] of `t` plus the cell around `t` on
    /// which that answer stays the same.
    ///
    /// With covers `(lo, hi)` the cell is
    /// `[max(open(hi), close(lo − 1) if lo > 0), min(open(hi + 1), close(lo)))`:
    /// `hi` changes at a window open and `lo` at a window close. An
    /// uncovered `t` lies in `[i64::MIN, t0)` before the origin, or in the
    /// gap `[close(hi), open(hi + 1))` when `width < slide`.
    ///
    /// This is the cell-miss path of the binner, so it takes one `u64`
    /// division where `rounds_covering` takes two `i128` ones: `t − t0`
    /// is exact in `u64` once `t ≥ t0`, and the covers before `hi` follow
    /// from the offset of `t` into window `hi`. Boundaries are computed
    /// in `i128` and never panic.
    pub fn cover(&self, t: i64) -> Cover {
        if t < self.t0 {
            return Cover {
                rounds: None,
                cell: Some((i64::MIN, self.t0)),
            };
        }
        let (slide, width) = (self.slide as u64, self.width as u64);
        let delta = t.abs_diff(self.t0);
        let (hi, into) = (delta / slide, delta % slide);
        let open_hi = i128::from(t) - i128::from(into);
        let (rounds, start, end) = if into >= width {
            // In the gap after window `hi` closes.
            (
                None,
                open_hi + i128::from(width),
                open_hi + i128::from(slide),
            )
        } else {
            // Window `hi − j` still holds `t` while `j·slide + into < width`.
            let lo = hi.saturating_sub((width - into - 1) / slide);
            let close_lo = open_hi - i128::from(hi - lo) * i128::from(slide) + i128::from(width);
            let start = if lo > 0 {
                open_hi.max(close_lo - i128::from(slide))
            } else {
                open_hi
            };
            let end = (open_hi + i128::from(slide)).min(close_lo);
            (Some((lo, hi)), start, end)
        };
        let cell = i64::try_from(start).ok().zip(i64::try_from(end).ok());
        Cover { rounds, cell }
    }

    /// The last round whose window closes at or before `watermark + 1`
    /// (i.e. `close ≤ watermark` — every event it can still receive has
    /// time `< close ≤ watermark`), or `None` if no round is sealable.
    ///
    /// `grace` extends the seal threshold: a round seals only once
    /// `close + grace ≤ watermark`.
    pub fn last_sealable_round(&self, watermark: i64, grace: i64) -> Option<u64> {
        // close(r) + grace ≤ watermark  ⇔  r·slide ≤ watermark − t0 − width − grace
        let bound = i128::from(watermark)
            - i128::from(self.t0)
            - i128::from(self.width)
            - i128::from(grace);
        if bound < 0 {
            return None;
        }
        Some(div_floor(bound, i128::from(self.slide)) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn div_floor_matches_mathematical_floor() {
        assert_eq!(div_floor(7, 3), 2);
        assert_eq!(div_floor(6, 3), 2);
        assert_eq!(div_floor(0, 3), 0);
        assert_eq!(div_floor(-1, 3), -1);
        assert_eq!(div_floor(-3, 3), -1);
        assert_eq!(div_floor(-4, 3), -2);
        assert_eq!(div_floor(i128::from(i64::MIN), 1), i128::from(i64::MIN));
    }

    #[test]
    fn tumbling_round_assignment_is_exact() {
        let spec = WindowSpec::tumbling(1000, 0).unwrap();
        assert_eq!(spec.rounds_covering(0), Some((0, 0)));
        assert_eq!(spec.rounds_covering(999), Some((0, 0)));
        assert_eq!(spec.rounds_covering(1000), Some((1, 1)));
        assert_eq!(spec.rounds_covering(-1), None);
        assert_eq!(
            spec.window(2),
            WindowInstance {
                open: 2000,
                close: 3000
            }
        );
    }

    #[test]
    fn sliding_windows_overlap() {
        // width 1000, slide 400: event at t=900 is inside windows opening
        // at 0, 400, 800 (rounds 0..=2).
        let spec = WindowSpec::new(1000, 400, 0).unwrap();
        assert_eq!(spec.rounds_covering(900), Some((0, 2)));
        assert_eq!(spec.rounds_covering(399), Some((0, 0)));
        assert_eq!(spec.rounds_covering(1200), Some((1, 3)));
    }

    #[test]
    fn sampling_windows_have_gaps() {
        // width 300, slide 1000: [0,300), [1000,1300), ... — t=500 is
        // covered by no round.
        let spec = WindowSpec::new(300, 1000, 0).unwrap();
        assert_eq!(spec.rounds_covering(100), Some((0, 0)));
        assert_eq!(spec.rounds_covering(500), None);
        assert_eq!(spec.rounds_covering(1000), Some((1, 1)));
    }

    #[test]
    fn boundary_membership_is_half_open() {
        let spec = WindowSpec::new(700, 300, 10_000).unwrap();
        for r in 0..5u64 {
            let w = spec.window(r);
            let (lo, hi) = spec.rounds_covering(w.open).unwrap();
            assert!(lo <= r && r <= hi, "open must belong to its own round");
            if let Some((lo, hi)) = spec.rounds_covering(w.close) {
                assert!(r < lo || r > hi, "close must be excluded from round {r}");
            }
        }
    }

    #[test]
    fn cover_cells_are_the_maximal_runs_of_one_answer() {
        // width 700, slide 300: covers change at every open (t ≡ 0 mod 300)
        // and every close (t ≡ 100 mod 300, from t = 700 on).
        let spec = WindowSpec::new(700, 300, 0).unwrap();
        assert_eq!(spec.cover(0).cell, Some((0, 300)));
        assert_eq!(spec.cover(650).rounds, Some((0, 2)));
        assert_eq!(spec.cover(650).cell, Some((600, 700)));
        assert_eq!(spec.cover(700).rounds, Some((1, 2)));
        assert_eq!(spec.cover(700).cell, Some((700, 900)));
        // Before the origin, and in a gap of a sampling spec.
        assert_eq!(spec.cover(-1).cell, Some((i64::MIN, 0)));
        let gaps = WindowSpec::new(300, 1000, 0).unwrap();
        assert_eq!(
            gaps.cover(500),
            Cover {
                rounds: None,
                cell: Some((300, 1000))
            }
        );
        // A cell whose end passes i64::MAX is not cached.
        let edge = WindowSpec::tumbling(1_000, i64::MAX - 1_500).unwrap();
        assert_eq!(edge.cover(i64::MAX).rounds, Some((1, 1)));
        assert_eq!(edge.cover(i64::MAX).cell, None);
        assert!(!edge.cover(i64::MAX).contains(i64::MAX));
    }

    #[test]
    fn last_sealable_round_tracks_close_plus_grace() {
        let spec = WindowSpec::tumbling(1000, 0).unwrap();
        assert_eq!(spec.last_sealable_round(999, 0), None);
        assert_eq!(spec.last_sealable_round(1000, 0), Some(0));
        assert_eq!(spec.last_sealable_round(1000, 1), None);
        assert_eq!(spec.last_sealable_round(2500, 0), Some(1));
        assert_eq!(spec.last_sealable_round(2500, 500), Some(1));
        assert_eq!(spec.last_sealable_round(2500, 501), Some(0));
    }

    #[test]
    fn rejects_nonpositive_geometry() {
        assert!(WindowSpec::new(0, 10, 0).is_err());
        assert!(WindowSpec::new(10, 0, 0).is_err());
        assert!(WindowSpec::new(-5, 10, 0).is_err());
    }
}
