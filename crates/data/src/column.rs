//! [`BitColumn`]: the vector of reports arriving in one round.
//!
//! A column is the unit of the continual-release interface: in round `t`
//! the synthesizer receives `D_t`, one bit per individual. Bits are packed
//! 64-per-word; at the paper's scale (n ≈ 23 000, T = 12) a full panel is a
//! few kilobytes, and packed storage keeps the per-round histogram updates
//! cache-friendly.

use std::fmt;

const WORD_BITS: usize = 64;

/// Pack up to 64 booleans into one word, the first in the lowest bit.
fn pack_word(chunk: &[bool]) -> u64 {
    chunk
        .iter()
        .enumerate()
        .fold(0, |word, (i, &bit)| word | (u64::from(bit) << i))
}

/// One round of boolean reports, bit-packed.
#[derive(Clone, PartialEq, Eq)]
pub struct BitColumn {
    words: Vec<u64>,
    len: usize,
}

impl BitColumn {
    /// The widest pattern [`pattern_counts`](Self::pattern_counts) bins:
    /// `2^24` bins, 128 MiB of counts. Window queries share this limit.
    pub const MAX_PATTERN_WIDTH: usize = 24;

    /// An all-zero column for `len` individuals.
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// An all-one column for `len` individuals: whole words of ones, with
    /// the bits past `len` cleared.
    pub fn ones(len: usize) -> Self {
        Self::from_words(vec![u64::MAX; len.div_ceil(WORD_BITS)], len)
    }

    /// Build from a slice of booleans, one packed word per 64 of them.
    pub fn from_bools(bits: &[bool]) -> Self {
        Self {
            words: bits.chunks(WORD_BITS).map(pack_word).collect(),
            len: bits.len(),
        }
    }

    /// Build from an iterator of booleans, packing each word as the bits
    /// arrive (no intermediate `Vec<bool>`).
    pub fn from_iter_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let bits = bits.into_iter();
        let mut words = Vec::with_capacity(bits.size_hint().0.div_ceil(WORD_BITS));
        let (mut word, mut filled, mut len) = (0u64, 0usize, 0usize);
        for bit in bits {
            word |= u64::from(bit) << filled;
            filled += 1;
            if filled == WORD_BITS {
                words.push(word);
                len += WORD_BITS;
                (word, filled) = (0, 0);
            }
        }
        if filled > 0 {
            words.push(word);
            len += filled;
        }
        // A short size hint grows the buffer by doubling; keep the exact
        // footprint `zeros` would have, since columns are long-lived.
        words.shrink_to_fit();
        Self { words, len }
    }

    /// Number of individuals in the column.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the column covers zero individuals.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bit for individual `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "individual index {i} out of range {}",
            self.len
        );
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Set the bit for individual `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(
            i < self.len,
            "individual index {i} out of range {}",
            self.len
        );
        // Branch-free: random report bits would mispredict a branch on
        // `value` about half the time.
        let bit = i % WORD_BITS;
        let word = &mut self.words[i / WORD_BITS];
        *word = (*word & !(1u64 << bit)) | (u64::from(value) << bit);
    }

    /// Number of 1-bits (e.g. "households in poverty this month").
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterate over the bits in individual order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// The packed 64-bit words backing this column, least-significant bit
    /// first. Bits at positions `>= len()` in the final word are always
    /// zero (the invariant every mutator maintains).
    #[inline]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuild a column from packed words (the inverse of
    /// [`as_words`](Self::as_words)). Bits beyond `len` in the final word
    /// are masked off, so any word source round-trips safely.
    ///
    /// # Panics
    /// Panics if `words.len() != len.div_ceil(64)`.
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Self {
        assert_eq!(
            words.len(),
            len.div_ceil(WORD_BITS),
            "word count does not match bit length {len}"
        );
        if let Some(last) = words.last_mut() {
            let tail = len % WORD_BITS;
            if tail != 0 {
                *last &= (1u64 << tail) - 1;
            }
        }
        Self { words, len }
    }

    /// Extract the contiguous bit range `range` as a new column — the
    /// word-level splice behind the engine's cohort split.
    ///
    /// Works 64 bits at a time: an aligned start is a straight word copy;
    /// an unaligned start stitches each output word from two input words.
    /// Only the final word needs bit-level masking.
    ///
    /// # Panics
    /// Panics if `range.end > len()` or `range.start > range.end`.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Self {
        assert!(range.start <= range.end, "inverted range");
        assert!(
            range.end <= self.len,
            "range end {} out of range {}",
            range.end,
            self.len
        );
        let len = range.end - range.start;
        let out_words = len.div_ceil(WORD_BITS);
        let start_word = range.start / WORD_BITS;
        let offset = range.start % WORD_BITS;
        let mut words = Vec::with_capacity(out_words);
        if offset == 0 {
            words.extend_from_slice(&self.words[start_word..start_word + out_words]);
        } else {
            for i in 0..out_words {
                let mut w = self.words[start_word + i] >> offset;
                if let Some(&next) = self.words.get(start_word + i + 1) {
                    w |= next << (WORD_BITS - offset);
                }
                words.push(w);
            }
        }
        // Re-establish the zero-tail invariant on the (only) unaligned tail.
        Self::from_words(words, len)
    }

    /// Append all of `other`'s bits after this column's — the word-level
    /// concatenation behind the engine's release merge.
    ///
    /// When this column ends on a word boundary the other column's words
    /// copy straight in; otherwise each incoming word is split across two
    /// output words. `other`'s zero tail guarantees no stray bits.
    pub fn extend_bits(&mut self, other: &Self) {
        let offset = self.len % WORD_BITS;
        if offset == 0 {
            self.words.extend_from_slice(&other.words);
        } else if other.len > 0 {
            for &w in &other.words {
                *self.words.last_mut().expect("offset != 0 implies a word") |= w << offset;
                self.words.push(w >> (WORD_BITS - offset));
            }
        }
        self.len += other.len;
        self.words.truncate(self.len.div_ceil(WORD_BITS));
    }

    /// Concatenate columns in order (word-level).
    pub fn concat<'a, I: IntoIterator<Item = &'a Self>>(parts: I) -> Self {
        let mut out = Self::zeros(0);
        for part in parts {
            out.extend_bits(part);
        }
        out
    }

    /// Joint pattern histogram over `k` equal-length columns: bin
    /// `counts[code]` is the number of individuals whose bits across the
    /// columns spell `code`, with `cols[0]` contributing the **most**
    /// significant bit (matching a front-to-back fold
    /// `code = (code << 1) | bit`).
    ///
    /// For `k ≤ 6` (≤ 64 bins) this runs word-sliced. Per 64 individuals
    /// it ANDs the columns of every non-empty subset `S` of the `k`
    /// columns, each built from a smaller subset with one AND, and
    /// popcounts it into `counts[S]`: `2^k − 1` ANDs and popcounts per
    /// word instead of `64·k` bit extractions. That counts the
    /// individuals whose code is a *superset* of `S`; with `counts[0] = n`,
    /// one superset-Möbius pass (for each bit, `counts[S] -= counts[S | bit]`
    /// over every `S` without it) turns those into exact pattern counts.
    /// No word is complemented, so the zero tail beyond `len` stays zero
    /// and the final word needs no mask. Wider windows fall back to the
    /// per-individual loop, where the scalar cost (`k` per row) is already
    /// below the sliced cost (`2^k/64` per row).
    ///
    /// # Panics
    /// Panics if `cols` is empty, `k >`
    /// [`MAX_PATTERN_WIDTH`](Self::MAX_PATTERN_WIDTH), or the columns
    /// disagree on length.
    pub fn pattern_counts(cols: &[Self]) -> Vec<u64> {
        let k = cols.len();
        assert!(k >= 1, "pattern_counts over zero columns");
        assert!(
            k <= Self::MAX_PATTERN_WIDTH,
            "pattern width {k} out of range (max {})",
            Self::MAX_PATTERN_WIDTH
        );
        let n = cols[0].len();
        for (j, col) in cols.iter().enumerate() {
            assert_eq!(col.len(), n, "column {j} length mismatch");
        }
        let bins = 1usize << k;
        let mut counts = vec![0u64; bins];
        if n == 0 {
            return counts;
        }
        if bins <= WORD_BITS {
            let supersets = match k {
                1 => Self::subset_counts::<1>(cols),
                2 => Self::subset_counts::<2>(cols),
                3 => Self::subset_counts::<3>(cols),
                4 => Self::subset_counts::<4>(cols),
                5 => Self::subset_counts::<5>(cols),
                _ => Self::subset_counts::<6>(cols),
            };
            counts.copy_from_slice(&supersets[..bins]);
            counts[0] = n as u64;
            for b in 0..k {
                let bit = 1 << b;
                for s in (0..bins).filter(|s| s & bit == 0) {
                    counts[s] -= counts[s | bit];
                }
            }
        } else {
            for i in 0..n {
                let mut code = 0usize;
                for col in cols {
                    code = (code << 1) | usize::from(col.get(i));
                }
                counts[code] += 1;
            }
        }
        counts
    }

    /// `counts[S]` for every non-empty subset `S` of the `K ≤ 6` columns:
    /// the individuals whose bit is set in each column of `S`, where
    /// subset bit `b` stands for column `K − 1 − b`. Per word, each subset
    /// with highest bit `b` is the AND of the subset without it and column
    /// `b`'s word. Monomorphised per width so the subset loops unroll.
    fn subset_counts<const K: usize>(cols: &[Self]) -> [u64; WORD_BITS] {
        let words: [&[u64]; K] = std::array::from_fn(|b| cols[K - 1 - b].as_words());
        let mut counts = [0u64; WORD_BITS];
        let mut ands = [0u64; WORD_BITS];
        ands[0] = u64::MAX;
        for w in 0..words[0].len() {
            for (b, col_words) in words.iter().enumerate() {
                let (half, word) = (1 << b, col_words[w]);
                for s in 0..half {
                    ands[half | s] = ands[s] & word;
                }
            }
            for s in 1..1 << K {
                counts[s] += u64::from(ands[s].count_ones());
            }
        }
        counts
    }
}

impl fmt::Debug for BitColumn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitColumn[len={}, ones={}]", self.len, self.count_ones())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = BitColumn::zeros(100);
        assert_eq!(z.len(), 100);
        assert_eq!(z.count_ones(), 0);
        let o = BitColumn::ones(100);
        assert_eq!(o.count_ones(), 100);
        assert!(!z.is_empty());
        assert!(BitColumn::zeros(0).is_empty());
    }

    #[test]
    fn set_get_roundtrip_across_word_boundaries() {
        let mut col = BitColumn::zeros(130);
        for i in [0usize, 1, 63, 64, 65, 127, 128, 129] {
            col.set(i, true);
            assert!(col.get(i), "bit {i}");
        }
        assert_eq!(col.count_ones(), 8);
        col.set(64, false);
        assert!(!col.get(64));
        assert_eq!(col.count_ones(), 7);
    }

    #[test]
    fn from_bools_matches_iter() {
        let bits = [true, false, true, true, false];
        let col = BitColumn::from_bools(&bits);
        let back: Vec<bool> = col.iter().collect();
        assert_eq!(back, bits);
        let col2 = BitColumn::from_iter_bits(bits.iter().copied());
        assert_eq!(col, col2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitColumn::zeros(5).get(5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        BitColumn::zeros(5).set(6, true);
    }

    #[test]
    fn debug_is_compact() {
        let col = BitColumn::from_bools(&[true, true, false]);
        assert_eq!(format!("{col:?}"), "BitColumn[len=3, ones=2]");
    }

    fn reference_slice(col: &BitColumn, range: std::ops::Range<usize>) -> BitColumn {
        BitColumn::from_iter_bits(range.map(|i| col.get(i)))
    }

    #[test]
    fn slice_matches_bit_reference_across_boundaries() {
        let bits: Vec<bool> = (0..200).map(|i| (i * 7) % 3 == 0).collect();
        let col = BitColumn::from_bools(&bits);
        for range in [
            0..0,
            0..64,
            0..65,
            1..64,
            63..129,
            64..128,
            5..200,
            199..200,
        ] {
            assert_eq!(
                col.slice(range.clone()),
                reference_slice(&col, range.clone()),
                "range {range:?}"
            );
        }
    }

    #[test]
    fn extend_bits_matches_bit_reference() {
        for (a_len, b_len) in [(0, 70), (64, 64), (63, 66), (1, 1), (65, 0), (37, 91)] {
            let a_bits: Vec<bool> = (0..a_len).map(|i| i % 2 == 0).collect();
            let b_bits: Vec<bool> = (0..b_len).map(|i| i % 5 != 0).collect();
            let mut joined = BitColumn::from_bools(&a_bits);
            joined.extend_bits(&BitColumn::from_bools(&b_bits));
            let expected: Vec<bool> = a_bits.iter().chain(&b_bits).copied().collect();
            assert_eq!(joined, BitColumn::from_bools(&expected), "{a_len}+{b_len}");
        }
    }

    #[test]
    fn concat_joins_in_order() {
        let parts = [
            BitColumn::from_bools(&[true, false, true]),
            BitColumn::zeros(0),
            BitColumn::ones(70),
        ];
        let joined = BitColumn::concat(parts.iter());
        assert_eq!(joined.len(), 73);
        assert_eq!(joined.count_ones(), 72);
        assert!(!joined.get(1));
        assert!(joined.get(72));
    }

    #[test]
    fn words_roundtrip_and_mask_tail() {
        let col = BitColumn::from_bools(&(0..67).map(|i| i % 2 == 1).collect::<Vec<_>>());
        let back = BitColumn::from_words(col.as_words().to_vec(), col.len());
        assert_eq!(back, col);
        // Dirty tail bits beyond len are masked off on construction.
        let dirty = BitColumn::from_words(vec![u64::MAX], 3);
        assert_eq!(dirty.count_ones(), 3);
    }

    #[test]
    #[should_panic(expected = "word count")]
    fn from_words_rejects_wrong_word_count() {
        BitColumn::from_words(vec![0, 0], 64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_rejects_overrun() {
        BitColumn::zeros(10).slice(5..11);
    }

    fn reference_pattern_counts(cols: &[BitColumn]) -> Vec<u64> {
        let k = cols.len();
        let mut counts = vec![0u64; 1 << k];
        for i in 0..cols[0].len() {
            let mut code = 0usize;
            for col in cols {
                code = (code << 1) | usize::from(col.get(i));
            }
            counts[code] += 1;
        }
        counts
    }

    fn pseudo_column(len: usize, salt: u64) -> BitColumn {
        // Deterministic mixed bits, dense enough to hit every pattern.
        BitColumn::from_iter_bits((0..len).map(|i| {
            let x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
            (x >> 17) & 1 == 1
        }))
    }

    #[test]
    fn pattern_counts_matches_bit_reference() {
        // Lengths on and beside word boundaries; widths on both sides of
        // the sliced/scalar split (2^6 = 64 bins sliced, 2^7 falls back).
        // All-ones and all-zeros columns put every record in bin 2^k − 1
        // or bin 0, the two extremes of the Möbius pass; the mix
        // interleaves constant and varied columns.
        for len in [1usize, 63, 64, 65, 127, 128, 129, 191, 192, 193, 200] {
            for k in 1usize..=7 {
                let varied = |j: usize| pseudo_column(len, j as u64 + 1);
                let mixed = |j: usize| match j % 3 {
                    0 => BitColumn::ones(len),
                    1 => varied(j),
                    _ => BitColumn::zeros(len),
                };
                for (family, cols) in [
                    ("varied", (0..k).map(varied).collect()),
                    ("ones", vec![BitColumn::ones(len); k]),
                    ("zeros", vec![BitColumn::zeros(len); k]),
                    ("mixed", (0..k).map(mixed).collect()),
                ] {
                    let counts = BitColumn::pattern_counts(&cols);
                    let at = format!("{family} len={len} k={k}");
                    assert_eq!(counts, reference_pattern_counts(&cols), "{at}");
                    assert_eq!(counts.iter().sum::<u64>(), len as u64, "{at}");
                }
            }
        }
    }

    #[test]
    fn pattern_counts_empty_columns_and_msb_order() {
        let zero: Vec<BitColumn> = Vec::new();
        let empty = BitColumn::zeros(0);
        assert_eq!(
            BitColumn::pattern_counts(&[empty.clone(), empty]),
            vec![0; 4]
        );
        assert!(std::panic::catch_unwind(|| BitColumn::pattern_counts(&zero)).is_err());
        // cols[0] is the high bit: (1, 0) must land in bin 0b10.
        let hi = BitColumn::ones(3);
        let lo = BitColumn::zeros(3);
        assert_eq!(
            BitColumn::pattern_counts(&[hi.clone(), lo.clone()]),
            vec![0, 0, 3, 0]
        );
        assert_eq!(BitColumn::pattern_counts(&[lo, hi]), vec![0, 3, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn pattern_counts_rejects_ragged_columns() {
        let a = BitColumn::zeros(5);
        let b = BitColumn::zeros(6);
        BitColumn::pattern_counts(&[a, b]);
    }
}
