//! [`BitStream`]: one individual's history, growing one bit per round.
//!
//! This is the object the model's consistency requirement is about: once a
//! bit has been appended (released), it never changes. It is the row type
//! of panel I/O: the CSV and SIPP loaders build one `BitStream` per
//! individual and assemble them into a column-major
//! [`LongitudinalDataset`](crate::LongitudinalDataset), and
//! [`LongitudinalDataset::row`](crate::LongitudinalDataset::row) reads one
//! back. The synthesizers work on columns and never hold one.

use std::fmt;

const WORD_BITS: usize = 64;

/// A growable, immutable-prefix bit history.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct BitStream {
    words: Vec<u64>,
    len: usize,
}

impl BitStream {
    /// An empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty history with capacity for `horizon` bits.
    pub fn with_capacity(horizon: usize) -> Self {
        Self {
            words: Vec::with_capacity(horizon.div_ceil(WORD_BITS)),
            len: 0,
        }
    }

    /// Number of rounds recorded so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no rounds have been recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append the next round's bit. This is the *only* mutation: prefixes
    /// are immutable by construction.
    pub fn push(&mut self, bit: bool) {
        let word = self.len / WORD_BITS;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1u64 << (self.len % WORD_BITS);
        }
        self.len += 1;
    }

    /// The bit recorded in round `t` (0-based).
    ///
    /// # Panics
    /// Panics if `t >= len()`.
    #[inline]
    pub fn get(&self, t: usize) -> bool {
        assert!(t < self.len, "round {t} out of range {}", self.len);
        (self.words[t / WORD_BITS] >> (t % WORD_BITS)) & 1 == 1
    }

    /// Hamming weight of the prefix of length `t` (first `t` rounds).
    ///
    /// # Panics
    /// Panics if `t > len()`.
    pub fn prefix_weight(&self, t: usize) -> usize {
        assert!(t <= self.len, "prefix {t} out of range {}", self.len);
        let full_words = t / WORD_BITS;
        let mut w: usize = self.words[..full_words]
            .iter()
            .map(|x| x.count_ones() as usize)
            .sum();
        let rem = t % WORD_BITS;
        if rem > 0 {
            let mask = (1u64 << rem) - 1;
            w += (self.words[full_words] & mask).count_ones() as usize;
        }
        w
    }

    /// The length-`k` suffix ending at round `t` (inclusive, 0-based),
    /// encoded as an integer with the *oldest* bit most significant — the
    /// paper's pattern `s = (x_{t-k+1}, …, x_t)` read left to right.
    ///
    /// # Panics
    /// Panics if the window `[t+1-k, t]` is not fully recorded or `k > 32`.
    pub fn suffix_pattern(&self, t: usize, k: usize) -> u32 {
        assert!((1..=32).contains(&k), "pattern width {k} unsupported");
        assert!(t < self.len, "round {t} out of range {}", self.len);
        assert!(t + 1 >= k, "window [t+1-k, t] underflows at t={t}, k={k}");
        let mut pattern = 0u32;
        for offset in 0..k {
            let round = t + 1 - k + offset;
            pattern = (pattern << 1) | u32::from(self.get(round));
        }
        pattern
    }

    /// Iterate over all recorded bits, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |t| self.get(t))
    }

    /// True if the history contains a run of at least `run` consecutive
    /// 1-bits (e.g. "ever experienced a `run`-month unemployment spell" —
    /// the intro's motivating monotone statistic).
    pub fn has_ones_run(&self, run: usize) -> bool {
        if run == 0 {
            return true;
        }
        let mut current = 0usize;
        for bit in self.iter() {
            if bit {
                current += 1;
                if current >= run {
                    return true;
                }
            } else {
                current = 0;
            }
        }
        false
    }
}

impl fmt::Debug for BitStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitStream[")?;
        for bit in self.iter() {
            write!(f, "{}", u8::from(bit))?;
        }
        write!(f, "]")
    }
}

impl FromIterator<bool> for BitStream {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut stream = BitStream::new();
        for bit in iter {
            stream.push(bit);
        }
        stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(bits: &[u8]) -> BitStream {
        bits.iter().map(|&b| b == 1).collect()
    }

    #[test]
    fn push_and_get() {
        let s = stream(&[1, 0, 1, 1, 0]);
        assert_eq!(s.len(), 5);
        assert!(s.get(0));
        assert!(!s.get(1));
        assert!(s.get(3));
        assert_eq!(s.prefix_weight(s.len()), 3);
    }

    #[test]
    fn prefix_weight_spans_words() {
        let mut s = BitStream::with_capacity(200);
        for i in 0..200 {
            s.push(i % 3 == 0);
        }
        assert_eq!(s.len(), 200);
        assert_eq!(s.prefix_weight(200), 67); // ⌈200/3⌉
        assert_eq!(s.prefix_weight(0), 0);
        assert_eq!(s.prefix_weight(64), 22); // ⌈64/3⌉
        assert_eq!(s.prefix_weight(65), 22);
        assert_eq!(s.prefix_weight(66), 22);
        assert_eq!(s.prefix_weight(67), 23);
    }

    #[test]
    fn suffix_pattern_reads_oldest_first() {
        // bits: t=0:1, t=1:0, t=2:1, t=3:1
        let s = stream(&[1, 0, 1, 1]);
        // window [1..3] = (0,1,1) → 0b011 = 3
        assert_eq!(s.suffix_pattern(3, 3), 0b011);
        // window [2..3] = (1,1) → 0b11
        assert_eq!(s.suffix_pattern(3, 2), 0b11);
        // window [0..2] = (1,0,1) → 0b101
        assert_eq!(s.suffix_pattern(2, 3), 0b101);
        // width 1: just the bit at t.
        assert_eq!(s.suffix_pattern(1, 1), 0);
    }

    #[test]
    #[should_panic(expected = "underflows")]
    fn suffix_pattern_underflow_panics() {
        stream(&[1, 0, 1]).suffix_pattern(1, 3);
    }

    #[test]
    fn ones_run_detection() {
        let s = stream(&[0, 1, 1, 0, 1, 1, 1, 0]);
        assert!(s.has_ones_run(0));
        assert!(s.has_ones_run(1));
        assert!(s.has_ones_run(2));
        assert!(s.has_ones_run(3));
        assert!(!s.has_ones_run(4));
        assert!(!BitStream::new().has_ones_run(1));
    }

    #[test]
    fn from_iterator_and_debug() {
        let s: BitStream = [true, false, true].into_iter().collect();
        assert_eq!(format!("{s:?}"), "BitStream[101]");
    }

    #[test]
    fn prefix_weight_at_every_cut_matches_naive() {
        let mut s = BitStream::new();
        let pattern = [true, true, false, true, false, false, true];
        let mut naive = 0;
        for (i, &b) in pattern.iter().cycle().take(150).enumerate() {
            s.push(b);
            if b {
                naive += 1;
            }
            assert_eq!(s.prefix_weight(i + 1), naive, "cut {}", i + 1);
        }
    }
}
