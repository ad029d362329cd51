//! Pooled-entropy bounded sampling: exact uniform draws over `[0, t)`
//! served from buffered RNG words, and the batched Fisher–Yates prefix
//! shuffle built on them.
//!
//! The vendored `rand` stand-in widens every `gen_range` to `u128` and
//! spends **two** full 64-bit ChaCha words per draw, regardless of the
//! bound. That is invisible for one draw but dominates the synthesizers'
//! update step, which performs one bounded draw per promoted/relocated
//! record (the Fisher–Yates prefix shuffles in `cumulative`,
//! `fixed_window`, and `categorical` synthesis) — at n = 10⁶ records
//! that is hundreds of thousands of RNG words per round spent on draws
//! whose bounds fit in ~20 bits.
//!
//! [`RangePool`] applies the same remedy the `fastcoin` module applied to
//! `gen_bool`: buffer one RNG word in a `BitPool` and serve each draw
//! from `⌈log₂ t⌉` pooled bits via bit-masked rejection (acceptance
//! probability `> ½` per try). The distribution is *exactly* uniform —
//! each `bits`-wide chunk is an independent uniform integer, and
//! rejection conditions it on `[0, t)` — identical to `gen_range`'s
//! widening rejection; only the mapping from raw RNG words to draws
//! differs. A length-`m` prefix shuffle drops from `2m` words to
//! `≈ m·⌈log₂ m⌉/64` words, a 10–20x entropy reduction for the group
//! sizes the update steps see.
//!
//! ## Seeded-stream note
//!
//! Migrating a call site from `gen_range` to [`RangePool`] changes the
//! site's *word consumption*, hence every downstream draw from the same
//! RNG: seeded synthesis output streams shift. The workspace-wide
//! migration (PR 8) made that change once, everywhere, with per-site
//! decision-equivalence replay tests (see the [`replay`] helpers)
//! proving the decision sequence — and therefore the output
//! distribution — is unchanged. No compatibility shim retains the old
//! word mapping.

use crate::fastcoin::{uniform_bits, uniform_pool, BitPool};
use rand::RngCore;

/// A pooled-entropy sampler for bounded uniform draws, the `gen_range`
/// analogue of the fastcoin `BitPool` fast path.
///
/// Construct one per batch of draws (the synthesizers build one per
/// update step) and thread it through every bounded draw in the batch;
/// the pool amortizes one `next_u64` across ~`64/⌈log₂ t⌉` draws.
///
/// Draws are exact: see the module docs for the argument.
#[derive(Debug)]
pub struct RangePool {
    pool: BitPool,
}

impl RangePool {
    /// An empty pool; the first draw refills from the RNG.
    pub fn new() -> Self {
        Self {
            pool: BitPool::new(),
        }
    }

    /// Exact uniform draw from `[0, t)`.
    ///
    /// `t ≤ 1` spends no entropy and returns 0 (matching the
    /// degenerate-range behaviour every shuffle site relied on).
    #[inline]
    pub fn gen_index<R: RngCore + ?Sized>(&mut self, rng: &mut R, t: usize) -> usize {
        if t <= 1 {
            return 0;
        }
        let t = t as u64;
        uniform_pool(rng, &mut self.pool, t, uniform_bits(t)) as usize
    }

    /// Fisher–Yates prefix shuffle: after the call, the first
    /// `k.min(slice.len())` elements are a uniform ordered sample (without
    /// replacement) of the whole slice, exactly as the per-site
    /// `j + gen_range(0..len - j)` loops produced — same decision
    /// distribution, pooled entropy.
    #[inline]
    pub fn partial_shuffle<R: RngCore + ?Sized>(
        &mut self,
        rng: &mut R,
        slice: &mut [u32],
        k: usize,
    ) {
        let len = slice.len();
        // The last position has a single candidate; skip its certain draw.
        let stop = k.min(len.saturating_sub(1));
        for j in 0..stop {
            let pick = j + self.gen_index(rng, len - j);
            slice.swap(j, pick);
        }
    }
}

impl Default for RangePool {
    fn default() -> Self {
        Self::new()
    }
}

/// Test-only word-stream scripting for decision-equivalence replay tests.
///
/// Hidden from docs: these helpers exist so the synthesizer crates can
/// replay a chosen decision sequence through the *real* pooled code path
/// (see the fastcoin `coin_pool` replay test for the pattern). Not a
/// supported API.
#[doc(hidden)]
pub mod replay {
    use super::uniform_bits;
    use rand::RngCore;

    /// An `RngCore` serving a precomputed word stream; panics if a path
    /// draws more words than scripted (over-consumption is a test bug).
    #[derive(Debug)]
    pub struct WordScript {
        words: Vec<u64>,
        next: usize,
    }

    impl WordScript {
        /// Script the given `next_u64` outputs, in order.
        pub fn new(words: Vec<u64>) -> Self {
            Self { words, next: 0 }
        }

        /// True once every scripted word has been served.
        pub fn exhausted(&self) -> bool {
            self.next == self.words.len()
        }

        /// Words served so far.
        pub fn consumed(&self) -> usize {
            self.next
        }
    }

    impl RngCore for WordScript {
        fn next_u32(&mut self) -> u32 {
            panic!("scripted paths draw whole words");
        }

        fn next_u64(&mut self) -> u64 {
            let word = *self
                .words
                .get(self.next)
                .expect("WordScript exhausted: path drew more words than scripted");
            self.next += 1;
            word
        }
    }

    /// Packs a chosen decision sequence into the word stream a
    /// [`super::RangePool`] (plus any interleaved direct draws) will
    /// consume, by mirroring the `BitPool` refill discipline: low bits
    /// first, a request wider than the bits remaining discards the
    /// remainder and starts a fresh word.
    #[derive(Debug, Default)]
    pub struct PoolPacker {
        words: Vec<u64>,
        /// Index into `words` of the pool's current refill word, if any.
        cur: Option<usize>,
        offset: u32,
        avail: u32,
    }

    impl PoolPacker {
        /// An empty stream with an empty pool.
        pub fn new() -> Self {
            Self::default()
        }

        /// Mark a pool boundary: the consumer constructs a fresh
        /// `RangePool`, abandoning any buffered bits (call this wherever
        /// the code under test starts a new update step).
        pub fn reset_pool(&mut self) {
            self.cur = None;
            self.offset = 0;
            self.avail = 0;
        }

        /// Pack one accepted pooled chunk: the pool's next `width`-bit
        /// take reads `value`.
        pub fn take(&mut self, value: u64, width: u32) {
            assert!((1..=63).contains(&width), "pool takes serve 1..=63 bits");
            assert!(value < (1u64 << width), "value wider than the take");
            if self.avail < width {
                self.words.push(0);
                self.cur = Some(self.words.len() - 1);
                self.offset = 0;
                self.avail = 64;
            }
            let cur = self.cur.expect("refilled above");
            self.words[cur] |= value << self.offset;
            self.offset += width;
            self.avail -= width;
        }

        /// Pack one `RangePool::gen_index(.., t)` decision: the draw
        /// reads `value` (accepted first try, since `value < t`).
        /// `t ≤ 1` packs nothing, matching the entropy-free fast path.
        pub fn uniform(&mut self, value: u64, t: u64) {
            assert!(value < t.max(1), "decision out of range");
            if t <= 1 {
                return;
            }
            self.take(value, uniform_bits(t));
        }

        /// Pack one raw `next_u64` drawn *around* the pool (e.g. a
        /// `gen_bool` or scalar `gen_range` call between pooled draws);
        /// the pool's buffered bits survive it, exactly as at runtime.
        pub fn direct(&mut self, word: u64) {
            self.words.push(word);
        }

        /// Pack the two words a vendored scalar `gen_range(0..span)` call
        /// consumes to return `value`: low word `value`, high word 0 —
        /// accepted first try for every `value < span` (the rejection
        /// zone always covers `[0, span)`).
        pub fn gen_range(&mut self, value: u64, span: u64) {
            assert!(value < span, "decision out of range");
            self.direct(value);
            self.direct(0);
        }

        /// The packed stream as a ready-to-draw [`WordScript`].
        pub fn into_script(self) -> WordScript {
            WordScript::new(self.words)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::replay::{PoolPacker, WordScript};
    use super::*;
    use crate::rng::rng_from_seed;
    use rand::Rng;

    /// Counts words drawn, delegating to a real seeded stream.
    struct CountingRng<R> {
        inner: R,
        words: u64,
    }

    impl<R: RngCore> RngCore for CountingRng<R> {
        fn next_u32(&mut self) -> u32 {
            self.inner.next_u32()
        }
        fn next_u64(&mut self) -> u64 {
            self.words += 1;
            self.inner.next_u64()
        }
    }

    #[test]
    fn gen_index_enumerates_exactly_for_non_power_of_two_t() {
        // t = 5 needs 3-bit chunks. Enumerate EVERY possible first chunk
        // x ∈ [0, 8): x < 5 must be returned as-is (identity on the
        // accepted region — this is what makes the draw exactly uniform),
        // x ≥ 5 must be rejected and the retry chunk y returned.
        let t = 5usize;
        let bits = uniform_bits(t as u64);
        assert_eq!(bits, 3);
        for x in 0u64..8 {
            if x < t as u64 {
                let mut rng = WordScript::new(vec![x]);
                let mut pool = RangePool::new();
                assert_eq!(pool.gen_index(&mut rng, t), x as usize, "accept x={x}");
            } else {
                for y in 0u64..t as u64 {
                    // Chunks pack low-bits-first into one refill word.
                    let mut rng = WordScript::new(vec![x | (y << bits)]);
                    let mut pool = RangePool::new();
                    assert_eq!(
                        pool.gen_index(&mut rng, t),
                        y as usize,
                        "reject x={x}, accept y={y}"
                    );
                }
            }
        }
    }

    #[test]
    fn gen_index_decision_matches_gen_range_on_identical_decisions() {
        // The primitive replay equivalence: for a decision d < t, the
        // scalar path reads d from words [d, 0] and the pooled path reads
        // d from a packed chunk; both must return d. Sweep bounds
        // including powers of two and the shuffle-realistic range.
        let mut outer = rng_from_seed(41);
        for _ in 0..2_000 {
            let t = outer.gen_range(2u64..5_000);
            let d = outer.gen_range(0..t);
            let scalar = WordScript::new(vec![d, 0]).gen_range(0..t);
            assert_eq!(scalar, d, "scalar path must read its packed decision");
            let mut packer = PoolPacker::new();
            packer.uniform(d, t);
            let mut script = packer.into_script();
            let mut pool = RangePool::new();
            let pooled = pool.gen_index(&mut script, t as usize) as u64;
            assert!(script.exhausted());
            assert_eq!(pooled, d, "pooled path must read its packed decision");
        }
    }

    #[test]
    fn partial_shuffle_replays_the_gen_range_loop_decisions() {
        // Same decision sequence through both algorithms ⇒ identical
        // permutations: the old per-site loop applied directly, the new
        // pooled loop through the real partial_shuffle.
        let mut outer = rng_from_seed(42);
        for trial in 0..200 {
            let len = 1 + (trial % 40) as usize;
            let k = outer.gen_range(0..=len);
            let decisions: Vec<u64> = (0..k.min(len.saturating_sub(1)))
                .map(|j| outer.gen_range(0..(len - j) as u64))
                .collect();

            // Old path: j + gen_range(0..len - j), applied in place.
            let mut old: Vec<u32> = (0..len as u32).collect();
            for (j, &d) in decisions.iter().enumerate() {
                old.swap(j, j + d as usize);
            }

            // New path: the packed stream through the real shuffle.
            let mut packer = PoolPacker::new();
            for (j, &d) in decisions.iter().enumerate() {
                packer.uniform(d, (len - j) as u64);
            }
            let mut script = packer.into_script();
            let mut new: Vec<u32> = (0..len as u32).collect();
            let mut pool = RangePool::new();
            pool.partial_shuffle(&mut script, &mut new, k);
            assert!(script.exhausted(), "len={len} k={k}");
            assert_eq!(old, new, "len={len} k={k}");
        }
    }

    #[test]
    fn gen_index_bounds_and_frequency() {
        let mut rng = rng_from_seed(43);
        let mut pool = RangePool::new();
        for &t in &[2usize, 3, 5, 6, 7, 12, 100] {
            let n = 120_000usize;
            let mut counts = vec![0u32; t];
            for _ in 0..n {
                counts[pool.gen_index(&mut rng, t)] += 1;
            }
            let expect = n as f64 / t as f64;
            // 5σ binomial band: deterministic seed, so this never flakes,
            // but it scales correctly with t (wider bands for small
            // per-value expectations).
            let tol = 5.0 * (expect * (1.0 - 1.0 / t as f64)).sqrt();
            for (v, &c) in counts.iter().enumerate() {
                let dev = (f64::from(c) - expect).abs();
                assert!(dev < tol, "t={t} value {v}: count {c} vs {expect}");
            }
        }
    }

    #[test]
    fn partial_shuffle_prefix_is_a_uniform_sample() {
        // Selection frequency: every element lands in the k-prefix with
        // probability k/len.
        let mut rng = rng_from_seed(44);
        let (len, k, trials) = (10usize, 3usize, 120_000usize);
        let mut pool = RangePool::new();
        let mut hits = vec![0u32; len];
        for _ in 0..trials {
            let mut ids: Vec<u32> = (0..len as u32).collect();
            pool.partial_shuffle(&mut rng, &mut ids, k);
            for &id in &ids[..k] {
                hits[id as usize] += 1;
            }
        }
        let expect = trials as f64 * k as f64 / len as f64;
        for (id, &h) in hits.iter().enumerate() {
            let dev = (f64::from(h) - expect).abs() / expect;
            assert!(dev < 0.03, "id {id}: {h} vs {expect}");
        }
    }

    #[test]
    fn pooled_shuffle_spends_an_order_of_magnitude_fewer_words() {
        // The whole point: the old loop spends 2 words per pick; the pool
        // ~⌈log₂ len⌉·retries/64. The economy grows as bounds shrink:
        // ~7x at len 4096 (12-bit picks), ~14x at len 256 (8-bit picks).
        for (len, min_economy) in [(4_096usize, 7u64), (256, 12)] {
            let mut old_rng = CountingRng {
                inner: rng_from_seed(45),
                words: 0,
            };
            let mut ids: Vec<u32> = (0..len as u32).collect();
            for j in 0..len - 1 {
                let pick = j + old_rng.gen_range(0..len - j);
                ids.swap(j, pick);
            }
            let old_words = old_rng.words;

            let mut new_rng = CountingRng {
                inner: rng_from_seed(45),
                words: 0,
            };
            let mut ids: Vec<u32> = (0..len as u32).collect();
            let mut pool = RangePool::new();
            pool.partial_shuffle(&mut new_rng, &mut ids, len);
            let new_words = new_rng.words;

            assert_eq!(old_words, 2 * (len as u64 - 1));
            assert!(
                new_words * min_economy <= old_words,
                "len={len}: expected ≥{min_economy}x entropy economy, \
                 got {old_words} vs {new_words}"
            );
        }
    }

    #[test]
    fn degenerate_bounds_spend_no_entropy() {
        struct Panicking;
        impl RngCore for Panicking {
            fn next_u32(&mut self) -> u32 {
                panic!("entropy spent on a certain draw");
            }
            fn next_u64(&mut self) -> u64 {
                panic!("entropy spent on a certain draw");
            }
        }
        let mut pool = RangePool::new();
        assert_eq!(pool.gen_index(&mut Panicking, 0), 0);
        assert_eq!(pool.gen_index(&mut Panicking, 1), 0);
        pool.partial_shuffle(&mut Panicking, &mut [], 3);
        pool.partial_shuffle(&mut Panicking, &mut [7], 1);
    }
}
