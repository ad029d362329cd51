//! Entropy-lean exact Bernoulli coins for the batched sampling fast path.
//!
//! The vendored `rand` stand-in spends 64 bits of ChaCha output on every
//! `gen_bool` (a full 53-bit significand comparison) and 128 bits on every
//! `gen_range` (widening to `u128`). Those costs are invisible for a single
//! draw but dominate the discrete-Gaussian rejection sampler, which flips
//! many coins per output: profiling the CKS stack shows RNG word generation
//! and per-coin overhead are the hot path, not the floating-point
//! arithmetic around it.
//!
//! This module provides *exact* replacements built around a [`BitPool`]
//! that buffers one 64-bit RNG word and serves coins a few bits at a time:
//!
//! * [`coin_pool`] — `Bernoulli(p)` as an integer comparison
//!   `x < ⌈p·2⁵³⌉` over a lazily-extended 53-bit uniform `x`. An 8-bit
//!   probe against the top byte of the threshold decides the coin except
//!   on an exact tie (probability `2⁻⁸`), where 45 more bits resolve it —
//!   so the expected cost is ~8 bits instead of a 64-bit word. The
//!   decision is *bit-for-bit* the same function of the 53 uniform bits as
//!   `gen_bool`'s `x·2⁻⁵³ < p` (the threshold `p·2⁵³` is exact:
//!   multiplying by a power of two never rounds), so the distribution is
//!   identical — only the mapping from raw RNG words to draws differs.
//! * [`uniform_pool`] — uniform over `[0, t)` by rejection on exactly
//!   `⌈log₂ t⌉` pooled bits per try, instead of the 128-bit widening path.
//! * [`bernoulli_exp_neg_pool`] — the CKS alternating-series
//!   `Bernoulli(exp(-γ))` sampler over [`coin_pool`], with the `γ = 1`
//!   coin thresholds served from a precomputed table (the geometric tail
//!   of every discrete-Laplace draw flips those same coins).
//! * [`laplace_magnitude_pool`] — the one-sided discrete-Laplace magnitude
//!   `Pr[X = x] ∝ exp(-x/t)` (CKS Algorithm 2), the proposal core of the
//!   discrete Gaussian's fill path.
//!
//! Everything here is `pub(crate)`: the public API surface is
//! [`crate::discrete_gaussian::DiscreteGaussianSampler`], whose `fill` path
//! routes through this module, and [`crate::fastrange::RangePool`], which
//! draws its bounded uniforms from [`BitPool`]. The scalar `sample` paths
//! intentionally do *not*: they stay bit-stream-identical to the historical
//! per-call samplers so that every seeded synthesis output in the workspace
//! is unchanged.

use rand::RngCore;

/// `2⁵³`, the lattice size of the `gen_bool` comparison.
const COIN_ONE: u64 = 1 << 53;

/// `⌈½·2⁵³⌉`: thresholds equal to this are decided by a single fair bit.
const COIN_HALF: u64 = 1 << 52;

/// The acceptance threshold for [`coin_pool`]: `Bernoulli(p)` succeeds iff
/// a uniform 53-bit integer is `< coin_threshold(p)`.
///
/// `p·2⁵³` is computed exactly (power-of-two multiply), and the
/// truncate-and-bump ceiling makes the integer comparison `x < T`
/// equivalent to the real comparison `x·2⁻⁵³ < p` for every lattice point
/// `x`. Written without `f64::ceil` so baseline x86-64 builds (no SSE4.1
/// `roundsd`) stay call-free on the per-coin path.
#[inline]
pub(crate) const fn coin_threshold(p: f64) -> u64 {
    debug_assert!(0.0 <= p && p <= 1.0, "coin probability out of range");
    let m = p * COIN_ONE as f64;
    let t = m as u64;
    t + ((t as f64) < m) as u64
}

/// Thresholds `⌈(1/k)·2⁵³⌉` for the `γ = 1` alternating series, `k = 1..`.
/// Beyond the table the series has probability `< 1/32!` of still running;
/// the sampler falls back to computing the threshold inline.
const EXP1_THRESHOLDS: [u64; 32] = {
    let mut tab = [0u64; 32];
    let mut k = 0usize;
    while k < 32 {
        tab[k] = coin_threshold(1.0 / (k + 1) as f64);
        k += 1;
    }
    tab
};

/// A buffer over the RNG word stream that serves draws a few bits at a
/// time, amortizing one `next_u64` across many coins.
///
/// Constructed once per `fill` call and threaded through every draw in the
/// batch — this is where the "vectorized" fill path gets its entropy
/// economy: a full discrete-Gaussian draw consumes ~2 words through the
/// pool versus ~40 through the `gen_bool`/`gen_range` path.
///
/// A request larger than the bits remaining discards the remainder and
/// refills; every served chunk is therefore a fresh independent uniform,
/// which is all the exactness arguments need.
#[derive(Debug)]
pub(crate) struct BitPool {
    bits: u64,
    avail: u32,
}

impl BitPool {
    /// An empty pool; the first take refills from the RNG.
    pub(crate) fn new() -> Self {
        BitPool { bits: 0, avail: 0 }
    }

    /// Serve `n` uniform bits (`1 ≤ n ≤ 63`) as the low bits of the return
    /// value.
    #[inline]
    pub(crate) fn take<R: RngCore + ?Sized>(&mut self, rng: &mut R, n: u32) -> u64 {
        debug_assert!((1..=63).contains(&n), "BitPool::take supports 1..=63 bits");
        if self.avail < n {
            self.bits = rng.next_u64();
            self.avail = 64;
        }
        let out = self.bits & ((1u64 << n) - 1);
        self.bits >>= n;
        self.avail -= n;
        out
    }
}

/// Flip `Bernoulli(p)` where `threshold = coin_threshold(p)`.
///
/// Certain coins (`p = 0`, `p = 1`) spend no entropy (matching
/// `gen_bool`), `p = ½`-class thresholds spend one bit, and everything
/// else probes 8 bits against the threshold's top byte, resolving the
/// remaining 45 bits only on an exact tie. Exactly equidistributed with
/// `Rng::gen_bool(p)`.
#[inline]
pub(crate) fn coin_pool<R: RngCore + ?Sized>(
    rng: &mut R,
    pool: &mut BitPool,
    threshold: u64,
) -> bool {
    if threshold >= COIN_ONE {
        return true;
    }
    if threshold == 0 {
        return false;
    }
    if threshold == COIN_HALF {
        return pool.take(rng, 1) == 0;
    }
    let t_hi = threshold >> 45;
    let x_hi = pool.take(rng, 8);
    if x_hi != t_hi {
        return x_hi < t_hi;
    }
    let x_lo = pool.take(rng, 45);
    x_lo < (threshold & ((1 << 45) - 1))
}

/// The bit width a [`uniform_pool`] draw over `[0, t)` must request:
/// `⌈log₂ t⌉`, precomputed once per sampler.
#[inline]
pub(crate) fn uniform_bits(t: u64) -> u32 {
    debug_assert!(t >= 1);
    if t <= 1 {
        1
    } else {
        64 - (t - 1).leading_zeros()
    }
}

/// Uniform draw from `[0, t)` by rejection on `bits`-wide pooled chunks
/// (`bits` from [`uniform_bits`]; acceptance rate `> ½` per try).
///
/// `t ≥ 2⁶³` falls back to whole-word rejection, which [`BitPool::take`]
/// cannot serve; no sampler in the workspace gets near that scale.
#[inline]
pub(crate) fn uniform_pool<R: RngCore + ?Sized>(
    rng: &mut R,
    pool: &mut BitPool,
    t: u64,
    bits: u32,
) -> u64 {
    debug_assert!(t >= 1, "uniform_pool requires t >= 1");
    debug_assert!(t == 1 || bits == uniform_bits(t));
    if t == 1 {
        return 0;
    }
    if bits >= 64 {
        loop {
            let x = rng.next_u64();
            if x < t {
                return x;
            }
        }
    }
    loop {
        let x = pool.take(rng, bits);
        if x < t {
            return x;
        }
    }
}

/// `Bernoulli(exp(-γ))` for any `γ ≥ 0` over the pooled [`coin_pool`].
///
/// Same alternating-series construction as
/// [`crate::bernoulli::sample_bernoulli_exp_neg`] — identical coin
/// probabilities `γ/k`, hence the identical output distribution — but each
/// coin costs ~8 bits instead of 64.
pub(crate) fn bernoulli_exp_neg_pool<R: RngCore + ?Sized>(
    rng: &mut R,
    pool: &mut BitPool,
    gamma: f64,
) -> bool {
    debug_assert!(gamma.is_finite() && gamma >= 0.0);
    if gamma < 1.0 {
        return series_le1_pool(rng, pool, gamma);
    }
    if gamma == 1.0 {
        return series_one_pool(rng, pool);
    }
    // exp(-γ) = exp(-1)^⌊γ⌋ · exp(-(γ - ⌊γ⌋)); `as u64` is ⌊γ⌋ for
    // positive finite γ (saturating far beyond any reachable magnitude).
    let whole = gamma as u64;
    for _ in 0..whole {
        if !series_one_pool(rng, pool) {
            return false;
        }
    }
    series_le1_pool(rng, pool, gamma - whole as f64)
}

/// The `γ ∈ [0, 1)` case: flip coins `Bernoulli(γ/k)` for `k = 1, 2, ...`
/// until the first failure; accept iff its index is odd. The `k = 1` coin
/// needs no division.
fn series_le1_pool<R: RngCore + ?Sized>(rng: &mut R, pool: &mut BitPool, gamma: f64) -> bool {
    debug_assert!((0.0..=1.0).contains(&gamma));
    if !coin_pool(rng, pool, coin_threshold(gamma)) {
        return true;
    }
    let mut k = 2u64;
    loop {
        if !coin_pool(rng, pool, coin_threshold(gamma / k as f64)) {
            return k & 1 == 1;
        }
        k += 1;
        if k > 1_000_000 {
            unreachable!("Bernoulli(exp(-gamma)) sampler failed to terminate");
        }
    }
}

/// The `γ = 1` series over the precomputed [`EXP1_THRESHOLDS`]. The
/// `k = 1` coin is certain (probability `1/1`) and spends nothing, so the
/// cascade starts at `k = 2`.
fn series_one_pool<R: RngCore + ?Sized>(rng: &mut R, pool: &mut BitPool) -> bool {
    let mut k = 2u64;
    loop {
        let threshold = match EXP1_THRESHOLDS.get(k as usize - 1) {
            Some(&t) => t,
            None => coin_threshold(1.0 / k as f64),
        };
        if !coin_pool(rng, pool, threshold) {
            return k & 1 == 1;
        }
        k += 1;
    }
}

/// One-sided discrete-Laplace magnitude `Pr[X = x] ∝ exp(-x/t)` on
/// `x ≥ 0` (CKS Algorithm 2 core) over the pooled primitives — the
/// discrete Gaussian fill path's proposal. Same distribution as the scalar
/// `gen_range` + `sample_bernoulli_exp_neg` construction.
pub(crate) fn laplace_magnitude_pool<R: RngCore + ?Sized>(
    rng: &mut R,
    pool: &mut BitPool,
    t: u64,
    t_bits: u32,
    t_f: f64,
) -> u64 {
    loop {
        let u = uniform_pool(rng, pool, t, t_bits);
        // Bernoulli(exp(-0)) is certain; skipping it spends nothing either
        // way.
        if u != 0 && !series_le1_pool(rng, pool, u as f64 / t_f) {
            continue;
        }
        let mut v: u64 = 0;
        while series_one_pool(rng, pool) {
            v += 1;
            assert!(v < 4000, "geometric tail overflow");
        }
        return u + t * v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;
    use rand::Rng;

    /// Replays a fixed 53-bit lattice point `x` as both the `gen_bool`
    /// word stream (one `next_u64` holding the top 53 bits) and the pooled
    /// coin word stream (one `next_u64` laid out so the pool's low-bits
    ///-first takes reproduce `x`'s probe order), to compare decisions on
    /// identical uniform bits.
    struct Replay53 {
        word: u64,
        calls: u32,
    }
    impl RngCore for Replay53 {
        fn next_u32(&mut self) -> u32 {
            panic!("these paths draw whole words")
        }
        fn next_u64(&mut self) -> u64 {
            self.calls += 1;
            assert_eq!(self.calls, 1, "exactly one word per coin");
            self.word
        }
    }

    /// The pool word that makes [`coin_pool`] read lattice point `x` for a
    /// given threshold: the fair-bit shortcut reads 1 bit, everything else
    /// reads the top byte first, then the low 45 bits.
    fn pool_word_for(x: u64, threshold: u64) -> u64 {
        if threshold == COIN_HALF {
            // take(1): low bit is the complement comparison x < 2^52 ⇔
            // top lattice bit clear.
            x >> 52
        } else {
            // take(8) serves x's top byte, take(45) the rest.
            ((x & ((1 << 45) - 1)) << 8) | (x >> 45)
        }
    }

    #[test]
    fn coin_pool_decision_matches_gen_bool_on_identical_bits() {
        // Sweep probabilities and lattice points, including exact boundary
        // hits where x·2⁻⁵³ == p.
        let mut outer = rng_from_seed(99);
        let probs = [0.0, 1e-17, 0.25, 0.3, 0.5, 1.0 / 3.0, 0.999_999, 1.0];
        for &p in &probs {
            let threshold = coin_threshold(p);
            for trial in 0..2_000u64 {
                let x = if trial == 0 {
                    threshold.min(COIN_ONE - 1)
                } else if trial == 1 {
                    threshold.saturating_sub(1)
                } else {
                    outer.next_u64() >> 11
                };
                let slow = Replay53 {
                    // gen_bool keeps the top 53 bits of its word.
                    word: x << 11,
                    calls: 0,
                }
                .gen_bool(p);
                let mut pool = BitPool::new();
                let fast = coin_pool(
                    &mut Replay53 {
                        word: pool_word_for(x, threshold),
                        calls: 0,
                    },
                    &mut pool,
                    threshold,
                );
                assert_eq!(slow, fast, "p={p} x={x}");
            }
        }
    }

    #[test]
    fn coin_threshold_is_exact_ceiling() {
        let mut rng = rng_from_seed(4);
        for _ in 0..10_000 {
            let p = rng.gen_range(0.0..1.0);
            let reference = (p * COIN_ONE as f64).ceil() as u64;
            assert_eq!(coin_threshold(p), reference, "p={p}");
        }
        assert_eq!(coin_threshold(0.0), 0);
        assert_eq!(coin_threshold(1.0), COIN_ONE);
        assert_eq!(coin_threshold(0.5), COIN_HALF);
    }

    #[test]
    fn exp1_table_matches_inline_thresholds() {
        for k in 1..=32u64 {
            assert_eq!(
                EXP1_THRESHOLDS[k as usize - 1],
                coin_threshold(1.0 / k as f64),
                "k={k}"
            );
        }
    }

    #[test]
    fn coin_certain_outcomes_spend_no_entropy() {
        struct Panicking;
        impl RngCore for Panicking {
            fn next_u32(&mut self) -> u32 {
                panic!("entropy spent on a certain coin")
            }
            fn next_u64(&mut self) -> u64 {
                panic!("entropy spent on a certain coin")
            }
        }
        let mut pool = BitPool::new();
        assert!(coin_pool(&mut Panicking, &mut pool, coin_threshold(1.0)));
        assert!(!coin_pool(&mut Panicking, &mut pool, coin_threshold(0.0)));
    }

    #[test]
    fn coin_frequency_tracks_probability() {
        let mut rng = rng_from_seed(7);
        let mut pool = BitPool::new();
        for &p in &[0.1, 0.5, 0.9] {
            let t = coin_threshold(p);
            let hits = (0..200_000)
                .filter(|_| coin_pool(&mut rng, &mut pool, t))
                .count();
            let rate = hits as f64 / 200_000.0;
            assert!((rate - p).abs() < 0.005, "p={p} rate={rate}");
        }
    }

    #[test]
    fn uniform_pool_bounds_and_coverage() {
        let mut rng = rng_from_seed(8);
        let mut pool = BitPool::new();
        for &t in &[1u64, 2, 3, 7, 8, 100, (1 << 34) + 5] {
            let bits = uniform_bits(t);
            let mut seen_max = 0;
            for _ in 0..20_000 {
                let x = uniform_pool(&mut rng, &mut pool, t, bits);
                assert!(x < t, "t={t} x={x}");
                seen_max = seen_max.max(x);
            }
            if t > 1 {
                assert!(seen_max >= t / 2, "t={t}: draws look truncated");
            }
        }
    }

    #[test]
    fn uniform_pool_is_unbiased_for_small_t() {
        let mut rng = rng_from_seed(9);
        let mut pool = BitPool::new();
        let t = 5u64;
        let bits = uniform_bits(t);
        let mut counts = [0u32; 5];
        let n = 250_000;
        for _ in 0..n {
            counts[uniform_pool(&mut rng, &mut pool, t, bits) as usize] += 1;
        }
        let expect = n as f64 / t as f64;
        for (v, &c) in counts.iter().enumerate() {
            let dev = (f64::from(c) - expect).abs() / expect;
            assert!(dev < 0.02, "value {v}: count {c} vs {expect}");
        }
    }

    #[test]
    fn uniform_bits_covers_every_shape() {
        assert_eq!(uniform_bits(1), 1);
        assert_eq!(uniform_bits(2), 1);
        assert_eq!(uniform_bits(3), 2);
        assert_eq!(uniform_bits(8), 3);
        assert_eq!(uniform_bits(9), 4);
        assert_eq!(uniform_bits(u64::MAX), 64);
    }

    #[test]
    fn pooled_exp_neg_matches_exp() {
        let mut rng = rng_from_seed(10);
        let mut pool = BitPool::new();
        for &gamma in &[0.1, 0.5, 1.0, 2.3, 4.0] {
            let hits = (0..200_000)
                .filter(|_| bernoulli_exp_neg_pool(&mut rng, &mut pool, gamma))
                .count();
            let rate = hits as f64 / 200_000.0;
            let expect = (-gamma).exp();
            assert!(
                (rate - expect).abs() < 0.006,
                "gamma={gamma}: rate {rate} vs {expect}"
            );
        }
    }

    #[test]
    fn laplace_magnitude_pool_matches_geometric_mass() {
        // t = 3: Pr[X = x] = (1 - e^{-1/3}) e^{-x/3}; check the head.
        let mut rng = rng_from_seed(11);
        let mut pool = BitPool::new();
        let (t, t_bits, t_f) = (3u64, uniform_bits(3), 3.0f64);
        let n = 300_000usize;
        let mut counts = [0u64; 6];
        for _ in 0..n {
            let x = laplace_magnitude_pool(&mut rng, &mut pool, t, t_bits, t_f);
            if (x as usize) < counts.len() {
                counts[x as usize] += 1;
            }
        }
        let norm = 1.0 - (-1.0f64 / 3.0).exp();
        for (x, &c) in counts.iter().enumerate() {
            let expect = norm * (-(x as f64) / 3.0).exp();
            let rate = c as f64 / n as f64;
            assert!(
                (rate - expect).abs() < 0.005,
                "x={x}: rate {rate} vs {expect}"
            );
        }
    }
}
