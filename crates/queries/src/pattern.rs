//! [`Pattern`]: a `k`-bit window pattern `s ∈ {0,1}^k`.
//!
//! Patterns index histogram bins. The encoding is big-endian in time — the
//! *oldest* bit of the window is the most significant — matching
//! `LongitudinalDataset::suffix_pattern`. Under this encoding the paper's
//! two pattern surgeries become cheap bit operations:
//!
//! * the overlap `z` carried from one window to the next (drop the oldest
//!   bit): `code mod 2^(k-1)`;
//! * appending the new round's bit `c` ("`zc`"): `2·z + c`;
//! * prepending a bit `c` ("`cz`"): `c·2^(k-1) + z`.

use longsynth_data::BitColumn;
use std::fmt;

/// A window pattern `s ∈ {0,1}^width`. `width = 0` (the empty pattern) is
/// allowed: it is the overlap object for `k = 1` synthesizers.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pattern {
    code: u32,
    width: u8,
}

impl Pattern {
    /// Maximum supported width (histogram sizes are `2^width`): the
    /// histogram kernel's limit, [`BitColumn::MAX_PATTERN_WIDTH`].
    pub const MAX_WIDTH: usize = BitColumn::MAX_PATTERN_WIDTH;

    /// Construct from an integer code and width.
    ///
    /// # Panics
    /// Panics if `width > 24` or `code` has bits above `width`.
    pub fn new(code: u32, width: usize) -> Self {
        assert!(width <= Self::MAX_WIDTH, "pattern width {width} too large");
        assert!(
            width == 32 || code < (1u32 << width),
            "code {code} does not fit in width {width}"
        );
        Self {
            code,
            width: width as u8,
        }
    }

    /// The empty pattern (width 0).
    pub fn empty() -> Self {
        Self { code: 0, width: 0 }
    }

    /// Parse from a bit string like `"011"` (oldest bit first).
    ///
    /// # Panics
    /// Panics on characters other than '0'/'1' or on over-long strings.
    pub fn parse(s: &str) -> Self {
        assert!(s.len() <= Self::MAX_WIDTH, "pattern string too long");
        let mut code = 0u32;
        for ch in s.chars() {
            code = (code << 1)
                | match ch {
                    '0' => 0,
                    '1' => 1,
                    other => panic!("invalid pattern character {other:?}"),
                };
        }
        Self {
            code,
            width: s.len() as u8,
        }
    }

    /// Integer code (big-endian in time).
    #[inline]
    pub fn code(self) -> u32 {
        self.code
    }

    /// Width `k`.
    #[inline]
    pub fn width(self) -> usize {
        self.width as usize
    }

    /// All `2^width` patterns of a width, in code order.
    pub fn all(width: usize) -> impl Iterator<Item = Pattern> {
        assert!(width <= Self::MAX_WIDTH);
        (0..(1u32 << width)).map(move |code| Pattern {
            code,
            width: width as u8,
        })
    }

    /// Number of patterns of a width (`2^width`).
    pub fn count(width: usize) -> usize {
        assert!(width <= Self::MAX_WIDTH);
        1usize << width
    }

    /// The bit at position `i` (0 = oldest).
    #[inline]
    pub fn bit(self, i: usize) -> bool {
        assert!(i < self.width(), "bit index out of range");
        (self.code >> (self.width() - 1 - i)) & 1 == 1
    }

    /// Hamming weight of the pattern.
    #[inline]
    pub fn weight(self) -> u32 {
        self.code.count_ones()
    }

    /// Length of the longest run of consecutive 1-bits.
    pub fn max_ones_run(self) -> u32 {
        let mut best = 0u32;
        let mut current = 0u32;
        for i in 0..self.width() {
            if self.bit(i) {
                current += 1;
                best = best.max(current);
            } else {
                current = 0;
            }
        }
        best
    }

    /// The overlap carried into the next window: drop the oldest bit
    /// (`s = cz ↦ z`).
    ///
    /// # Panics
    /// Panics on the empty pattern.
    #[inline]
    pub fn drop_oldest(self) -> Pattern {
        assert!(self.width > 0, "cannot shrink the empty pattern");
        let w = self.width - 1;
        Pattern {
            code: self.code & ((1u32 << w) - 1),
            width: w,
        }
    }

    /// Append the new round's bit: `z ↦ zc`.
    #[inline]
    pub fn append(self, bit: bool) -> Pattern {
        assert!(
            self.width() < Self::MAX_WIDTH,
            "pattern would exceed max width"
        );
        Pattern {
            code: (self.code << 1) | u32::from(bit),
            width: self.width + 1,
        }
    }

    /// Prepend a bit at the oldest position: `z ↦ cz`.
    #[inline]
    pub fn prepend(self, bit: bool) -> Pattern {
        assert!(
            self.width() < Self::MAX_WIDTH,
            "pattern would exceed max width"
        );
        Pattern {
            code: (u32::from(bit) << self.width()) | self.code,
            width: self.width + 1,
        }
    }

    /// The newest (most recent) bit.
    #[inline]
    pub fn newest_bit(self) -> bool {
        assert!(self.width > 0);
        self.code & 1 == 1
    }

    /// The suffix of the last `k` bits (most recent `k` rounds).
    pub fn suffix(self, k: usize) -> Pattern {
        assert!(k <= self.width());
        Pattern {
            code: self.code & ((1u32 << k) - 1),
            width: k as u8,
        }
    }
}

impl fmt::Debug for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pattern(\"{self}\")")
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.width == 0 {
            return write!(f, "ε");
        }
        for i in 0..self.width() {
            write!(f, "{}", u8::from(self.bit(i)))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_display_roundtrip() {
        for s in ["0", "1", "011", "1101", "00000000"] {
            assert_eq!(Pattern::parse(s).to_string(), s);
        }
        assert_eq!(Pattern::empty().to_string(), "ε");
    }

    #[test]
    fn encoding_is_big_endian_in_time() {
        let p = Pattern::parse("011");
        assert_eq!(p.code(), 0b011);
        assert!(!p.bit(0)); // oldest
        assert!(p.bit(1));
        assert!(p.bit(2)); // newest
        assert!(p.newest_bit());
    }

    #[test]
    fn enumeration_covers_all_codes() {
        let all: Vec<Pattern> = Pattern::all(3).collect();
        assert_eq!(all.len(), 8);
        assert_eq!(Pattern::count(3), 8);
        for (i, p) in all.iter().enumerate() {
            assert_eq!(p.code(), i as u32);
            assert_eq!(p.width(), 3);
        }
    }

    #[test]
    fn weight_and_runs() {
        assert_eq!(Pattern::parse("0110").weight(), 2);
        assert_eq!(Pattern::parse("0110").max_ones_run(), 2);
        assert_eq!(Pattern::parse("1011").max_ones_run(), 2);
        assert_eq!(Pattern::parse("111").max_ones_run(), 3);
        assert_eq!(Pattern::parse("000").max_ones_run(), 0);
        assert_eq!(Pattern::empty().max_ones_run(), 0);
    }

    #[test]
    fn window_surgeries_compose() {
        // s = 101; overlap z = 01; appending 1 gives 011; prepending 1 to z
        // gives 101 back.
        let s = Pattern::parse("101");
        let z = s.drop_oldest();
        assert_eq!(z, Pattern::parse("01"));
        assert_eq!(z.append(true), Pattern::parse("011"));
        assert_eq!(z.prepend(true), Pattern::parse("101"));
        assert_eq!(z.prepend(false), Pattern::parse("001"));
        // The paper's consistency bookkeeping: the windows "0z" and "1z"
        // share overlap z with "z0" and "z1".
        for w in Pattern::all(3) {
            let overlap = w.drop_oldest();
            assert!(overlap == w.drop_oldest());
            assert_eq!(overlap.width(), 2);
        }
    }

    #[test]
    fn k1_uses_empty_overlap() {
        let one = Pattern::parse("1");
        let z = one.drop_oldest();
        assert_eq!(z, Pattern::empty());
        assert_eq!(z.append(true), Pattern::parse("1"));
        assert_eq!(z.append(false), Pattern::parse("0"));
    }

    #[test]
    fn suffix_takes_most_recent_bits() {
        let p = Pattern::parse("1101");
        assert_eq!(p.suffix(2), Pattern::parse("01"));
        assert_eq!(p.suffix(4), p);
        assert_eq!(p.suffix(0), Pattern::empty());
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_code_rejected() {
        Pattern::new(8, 3);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn oversized_width_rejected() {
        Pattern::new(0, 25);
    }

    #[test]
    fn ordering_follows_codes() {
        let mut v: Vec<Pattern> = Pattern::all(2).collect();
        v.reverse();
        v.sort();
        assert_eq!(v.first().unwrap().code(), 0);
        assert_eq!(v.last().unwrap().code(), 3);
    }
}
