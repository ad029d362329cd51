//! **Algorithm 1**: private synthetic data preserving fixed time window
//! queries (paper §3).
//!
//! Per update step `t = k, …, T` (1-based), two phases:
//!
//! 1. **Noisy statistics.** The width-`k` window histogram of the true data
//!    gets `npad` padding plus independent discrete Gaussian noise per bin:
//!    `Ĉ_s^t = C_s^t + npad + N_Z(0, (T−k+1)/(2ρ))`. Sensitivity is 1 per
//!    bin per step; uniform budget split over the `T−k+1` steps gives
//!    ρ-zCDP overall (Theorem 3.1).
//! 2. **Consistent extension.** Synthetic records that currently share the
//!    (k−1)-bit overlap `z` must collectively move to the bins `z0`/`z1`,
//!    so the new targets are corrected:
//!    `Δ_z = ½(p_{0z} + p_{1z} − (Ĉ_{z0} + Ĉ_{z1}))`, with a fair ±½
//!    rounding term when `Δ_z` is a half-integer (Equations 3–4). Exactly
//!    `p_{z1}` randomly chosen records of overlap `z` get a 1-bit, the rest
//!    a 0-bit.
//!
//! All arithmetic is exact over `i64`; the half-integer case is handled by
//! splitting the *doubled* correction `2Δ_z` into two integer parts.
//!
//! The last `k` raw columns, the overlap classes and the selection scratch
//! serve only the next round, so the `finalize` that completes the horizon
//! drops them. A sealed synthesizer keeps its synthetic population, the
//! released targets, the public padding labels and its ledger.

use crate::aggregate::HistogramAggregate;
use crate::arena::GroupArena;
use crate::error::SynthError;
use crate::gate::RoundGate;
use crate::padding::PaddingPolicy;
use crate::traits::ContinualSynthesizer;
use crate::SyntheticDataset;
use longsynth_data::BitColumn;
use longsynth_dp::budget::{Rho, SpendTracker};
use longsynth_dp::fastrange::RangePool;
use longsynth_dp::mechanisms::{NoiseDistribution, NoiseSampler};
use longsynth_dp::rng::StdDpRng;
use longsynth_dp::tail::FixedWindowParams;
use longsynth_obs::{Histogram, MetricsRegistry};
use longsynth_queries::pattern::Pattern;
use longsynth_queries::window::WindowQuery;
use rand::Rng;
use std::collections::VecDeque;
use std::time::Instant;

/// How the `p_{z1}` records to extend with a 1-bit are chosen from `I_z`.
///
/// The paper leaves this free ("Select p_{z1} indices from I_z"); the
/// choice does not affect the released histograms (or any theorem), but it
/// *does* affect record-level statistics beyond width `k`:
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionStrategy {
    /// Uniformly at random from the whole group — the natural reading and
    /// what the paper's experiments exhibit: padding records churn through
    /// bins, so queries of width `k' > k` accumulate drift over time
    /// (Figure 3, bottom panel).
    #[default]
    Uniform,
    /// Uniformly at random *within* the padding and real strata, steering
    /// exactly `npad` padding records into each successor bin. Keeps the
    /// public padding sub-population's histogram pinned at `npad` per bin
    /// for the whole run, which empirically removes most of the `k' > k`
    /// drift (our extension; see the `ablation_padding` bench).
    Stratified,
}

/// Configuration of a [`FixedWindowSynthesizer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedWindowConfig {
    /// Time horizon `T` (known in advance, as the model requires).
    pub horizon: usize,
    /// Window width `k`.
    pub window: usize,
    /// Total zCDP budget ρ for the whole run.
    pub rho: Rho,
    /// Padding policy (default: Theorem 3.2 at β = 0.05).
    pub padding: PaddingPolicy,
    /// Record selection strategy (default: [`SelectionStrategy::Uniform`]).
    pub selection: SelectionStrategy,
    /// Drop the per-bin noise (tests only, see [`Self::noiseless`]).
    noiseless: bool,
}

impl FixedWindowConfig {
    /// Validated constructor (requires `1 ≤ k ≤ T ≤ 10^6`, ρ > 0,
    /// `k ≤ 20` so histograms fit comfortably in memory).
    pub fn new(horizon: usize, window: usize, rho: Rho) -> Result<Self, SynthError> {
        FixedWindowParams::new(horizon, window, rho)
            .map_err(|e| SynthError::InvalidConfig(e.to_string()))?;
        if window > 20 {
            return Err(SynthError::InvalidConfig(format!(
                "window width {window} exceeds the supported maximum of 20 (2^k bins)"
            )));
        }
        Ok(Self {
            horizon,
            window,
            rho,
            padding: PaddingPolicy::default(),
            selection: SelectionStrategy::default(),
            noiseless: false,
        })
    }

    /// [`new`](Self::new) without the per-bin noise: the releases carry
    /// **no privacy guarantee**. For tests that check the consistency
    /// arithmetic exactly; the budget `rho` still sets the padding rule
    /// and the ledger charges.
    #[doc(hidden)]
    pub fn noiseless(horizon: usize, window: usize, rho: Rho) -> Result<Self, SynthError> {
        Ok(Self {
            noiseless: true,
            ..Self::new(horizon, window, rho)?
        })
    }

    /// Replace the padding policy.
    #[must_use]
    pub fn with_padding(mut self, padding: PaddingPolicy) -> Self {
        self.padding = padding;
        self
    }

    /// Replace the record selection strategy.
    #[must_use]
    pub fn with_selection(mut self, selection: SelectionStrategy) -> Self {
        self.selection = selection;
        self
    }

    /// Number of update steps `R = T − k + 1`.
    pub fn update_steps(&self) -> usize {
        self.horizon - self.window + 1
    }

    /// The paper's calibration `N_Z(0, (T−k+1)/(2ρ))` per bin and step.
    fn derived_noise(&self) -> NoiseDistribution {
        if self.noiseless {
            NoiseDistribution::None
        } else {
            NoiseDistribution::DiscreteGaussian {
                sigma2: self.update_steps() as f64 / (2.0 * self.rho.value()),
            }
        }
    }
}

/// What one round of a [`FixedWindowSynthesizer`] released.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Release {
    /// Rounds `t < k−1`: data buffered, nothing released yet.
    Buffered,
    /// The first release (paper time `t = k`): `k` synthetic columns at
    /// once, seeding `n*` persistent records.
    Initial(Vec<BitColumn>),
    /// One incremental synthetic column (every subsequent round).
    Update(BitColumn),
}

/// Counters for the low-probability events Theorem 3.2 bounds by β.
///
/// Under the recommended padding these stay at zero w.h.p.; a production
/// deployment monitors them instead of crashing (see `error` module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailureStats {
    /// Initial noisy bins that were negative and clamped to zero.
    pub negative_initial_bins: u64,
    /// Update-step extension targets outside `[0, |I_z|]`, clamped.
    pub clamped_extensions: u64,
}

impl FailureStats {
    /// Total clamp events over the run.
    pub fn total(&self) -> u64 {
        self.negative_initial_bins + self.clamped_extensions
    }
}

/// The Algorithm 1 synthesizer. See module docs.
pub struct FixedWindowSynthesizer<R: Rng = StdDpRng> {
    config: FixedWindowConfig,
    /// Cached sampler for the derived noise distribution (constants
    /// hoisted out of the per-bin noising loop).
    sampler: NoiseSampler,
    npad: u64,
    per_step_rho: Rho,
    ledger: SpendTracker,
    gate: RoundGate,
    /// Ring buffer of the last `k` true columns. This and the other
    /// per-record working state (`groups`, `plan_counts`, `strata`,
    /// `strata_meta`) are dropped at the horizon.
    buffer: VecDeque<BitColumn>,
    synthetic: SyntheticDataset,
    /// Record ids grouped by current (k−1)-bit overlap code, stored flat
    /// and regrouped by planned segment moves each round (see [`GroupArena`]).
    groups: GroupArena,
    /// Released histogram targets `p_s^t`, flat with stride `2^k`: round
    /// `r`'s targets are `p_history[r·2^k..(r+1)·2^k]`. Reserved for the
    /// full run at initialization so extends append without allocating.
    p_history: Vec<i64>,
    /// Reusable successor-size scratch for [`GroupArena::plan`].
    plan_counts: Vec<usize>,
    /// Stratified-selection scratch: each group's ids partitioned
    /// (pads first, then reals) in one flat reusable buffer laid out at
    /// the same offsets as the front groups.
    strata: Vec<u32>,
    /// Per-overlap-class `(pads_len, pad_ones)` for the round under
    /// construction (stratified selection only).
    strata_meta: Vec<(usize, usize)>,
    /// `padding_flags[i]` marks record `i` as one of the `npad`-per-bin
    /// "fake people" (§3.1). The flags are public: the whole synthetic
    /// dataset, labels included, is post-processing of the released noisy
    /// counts, so publishing them costs no privacy. Analysts use them for
    /// the appendix figures' debiasing ("subtracting the result of the
    /// query run on the padding data").
    padding_flags: Vec<bool>,
    failures: FailureStats,
    /// Optional `synth_shuffle_ms` histogram (see
    /// [`attach_metrics`](Self::attach_metrics)). `None` (the default)
    /// keeps the extend step entirely clock-free.
    shuffle_ms: Option<Histogram>,
    /// Optional `synth_regroup_ms` histogram: wall time of the planned
    /// segment-move regrouping per update step (same attach semantics).
    regroup_ms: Option<Histogram>,
    rng: R,
}

/// Run one pooled prefix shuffle, accumulating its wall time into `acc`
/// when instrumentation is attached. With `acc = None` (no metrics) the
/// clock is never read — the uninstrumented path stays untouched.
fn shuffle_span<R: Rng>(
    pool: &mut RangePool,
    rng: &mut R,
    slice: &mut [u32],
    k: usize,
    acc: &mut Option<f64>,
) {
    match acc {
        Some(total_ms) => {
            let start = Instant::now();
            pool.partial_shuffle(rng, slice, k);
            *total_ms += start.elapsed().as_secs_f64() * 1e3;
        }
        None => pool.partial_shuffle(rng, slice, k),
    }
}

/// Algorithm 1's initialization, "output any dataset such that the number
/// of people with string s equals Ĉ_s": for each pattern `s`, `counts[s]`
/// records whose first `k` bits spell `s`. Records are laid out in
/// pattern-code order, so ids are contiguous per pattern (the overlap
/// grouping in `initialize` relies on this).
///
/// # Panics
/// Panics if `counts.len() != 2^k` or any count is negative.
fn seed_population(counts: &[i64], k: usize) -> SyntheticDataset {
    assert_eq!(counts.len(), Pattern::count(k), "counts size mismatch");
    for &count in counts {
        assert!(count >= 0, "negative pattern count {count}");
    }
    let columns = (0..k)
        .map(|i| {
            BitColumn::from_iter_bits(counts.iter().enumerate().flat_map(|(code, &count)| {
                let bit = Pattern::new(code as u32, k).bit(i);
                std::iter::repeat_n(bit, count as usize)
            }))
        })
        .collect();
    SyntheticDataset::from_columns(columns).expect("every seeded column covers all records")
}

impl<R: Rng> FixedWindowSynthesizer<R> {
    /// Create a synthesizer drawing all randomness from `rng`.
    pub fn new(config: FixedWindowConfig, rng: R) -> Self {
        let npad = config
            .padding
            .resolve(config.horizon, config.window, config.rho);
        let per_step_rho =
            Rho::new(config.rho.value() / config.update_steps() as f64).expect("validated rho");
        Self {
            sampler: config.derived_noise().sampler(),
            npad,
            per_step_rho,
            ledger: SpendTracker::new(config.rho),
            gate: RoundGate::new(config.horizon),
            buffer: VecDeque::with_capacity(config.window),
            synthetic: SyntheticDataset::empty(0),
            groups: GroupArena::new(),
            p_history: Vec::new(),
            plan_counts: Vec::new(),
            strata: Vec::new(),
            strata_meta: Vec::new(),
            padding_flags: Vec::new(),
            failures: FailureStats::default(),
            shuffle_ms: None,
            regroup_ms: None,
            rng,
            config,
        }
    }

    /// Attach the update-step span metrics: every subsequent update step
    /// observes its total shuffle time (both selection strategies, all
    /// overlap classes of the round pooled into one observation) into
    /// `registry`'s `synth_shuffle_ms` latency histogram, and its
    /// regrouping time (the planned segment moves rebuilding the overlap
    /// groups) into `synth_regroup_ms`.
    ///
    /// Like the engine's [`EngineObserver`] this is construction-time
    /// optional instrumentation: without it no clock is read, and with it
    /// only wall clocks are read — the RNG streams are identical either
    /// way.
    ///
    /// [`EngineObserver`]: https://docs.rs/longsynth-engine
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.shuffle_ms = Some(registry.latency_histogram("synth_shuffle_ms"));
        self.regroup_ms = Some(registry.latency_histogram("synth_regroup_ms"));
    }

    /// `Ĉ_s = C_s + npad + noise`, charged to the ledger.
    fn noisy_histogram(&mut self, mut counts: Vec<i64>) -> Vec<i64> {
        self.ledger
            .charge(self.per_step_rho)
            .expect("per-step charges sum to the configured budget");
        let npad = self.npad as i64;
        for c in counts.iter_mut() {
            *c += npad + self.sampler.sample(&mut self.rng);
        }
        counts
    }

    /// First release: seed `n*` records matching the noisy histogram.
    fn initialize(&mut self, mut noisy: Vec<i64>) -> Release {
        for c in noisy.iter_mut() {
            if *c < 0 {
                self.failures.negative_initial_bins += 1;
                *c = 0;
            }
        }
        let k = self.config.window;
        self.synthetic = seed_population(&noisy, k);

        // Group record ids by overlap (records were created in pattern-code
        // order, so ids are contiguous per pattern). The first
        // min(npad, count) records of each bin carry the public padding
        // flag — the bin's "fake people".
        let overlaps = Pattern::count(k - 1);
        self.plan_counts.clear();
        self.plan_counts.resize(overlaps, 0);
        for (code, &count) in noisy.iter().enumerate() {
            let overlap = Pattern::new(code as u32, k).drop_oldest().code() as usize;
            self.plan_counts[overlap] += count as usize;
        }
        self.groups.clear();
        self.groups.plan(self.plan_counts.iter().copied());
        self.padding_flags.clear();
        let mut next_id = 0u32;
        for (code, &count) in noisy.iter().enumerate() {
            let overlap = Pattern::new(code as u32, k).drop_oldest().code() as usize;
            let padded = (self.npad as i64).min(count);
            for j in 0..count {
                self.groups.push(overlap, next_id);
                self.padding_flags.push(j < padded);
                next_id += 1;
            }
        }
        self.groups.commit();
        // One flat targets store for the whole run, reserved up front so
        // every steady-state extend appends without reallocating.
        self.p_history.clear();
        self.p_history
            .reserve(self.config.update_steps() * Pattern::count(k));
        self.p_history.extend_from_slice(&noisy);
        let columns = (0..k).map(|t| self.synthetic.column(t).clone()).collect();
        Release::Initial(columns)
    }

    /// Update step: consistency-correct the noisy targets and extend.
    ///
    /// Runs in two phases. **Phase A** walks the overlap classes in
    /// order, drawing the rounding coins and prefix shuffles exactly as
    /// the historical per-id push loop did (the RNG word stream is
    /// pinned by the replay tests) and setting the round's 1-bits.
    /// **Phase B** regroups: every successor overlap class is a
    /// concatenation of contiguous segments of the (shuffled) current
    /// classes whose sizes are the already-released targets, so the
    /// [`GroupArena`] plans the successor layout exactly and the ids
    /// move by bulk segment copies — zero steady-state allocations where
    /// the `Vec<Vec<u32>>` rebuild allocated and amortized-grew every
    /// round.
    fn extend(&mut self, noisy: Vec<i64>) -> Release {
        let k = self.config.window;
        let bins = Pattern::count(k);
        let half = bins >> 1;
        let overlap_mask = half.wrapping_sub(1); // 2^(k-1) − 1
        let m = self.synthetic.individuals();

        // This round's targets live at the tail of the flat history
        // (reserved in full at initialization — no reallocation here).
        let p_base = self.p_history.len();
        self.p_history.resize(p_base + bins, 0);
        // The round under construction, packed: only 1-bits need setting,
        // and the m/8-byte column keeps the id-ordered random writes
        // cache-resident where a bool-per-record buffer would not be.
        let mut round = BitColumn::zeros(m);
        let mut pool = RangePool::new();
        let mut shuffle_ms = self.shuffle_ms.as_ref().map(|_| 0.0f64);
        let stratified = self.config.selection == SelectionStrategy::Stratified;
        if stratified {
            self.strata.clear();
            self.strata_meta.clear();
        }

        // Phase A: coins, shuffles, and released 1-bits, in the exact
        // historical order.
        for z in 0..half {
            let avail = self.groups.group(z).len() as i64;
            let c0 = noisy[z << 1];
            let c1 = noisy[(z << 1) | 1];
            // 2Δ_z, kept doubled so the half-integer case stays integral.
            let total_diff = avail - (c0 + c1);
            let (d0, d1) = if total_diff % 2 == 0 {
                (total_diff / 2, total_diff / 2)
            } else if self.rng.gen_bool(0.5) {
                // b_z = −½ on the 0-branch, +½ on the 1-branch — Eq. (3)/(4).
                ((total_diff - 1) / 2, (total_diff + 1) / 2)
            } else {
                ((total_diff + 1) / 2, (total_diff - 1) / 2)
            };
            let p0 = c0 + d0;
            let mut p1 = c1 + d1;
            debug_assert_eq!(p0 + p1, avail, "consistency identity violated");

            // Feasibility clamp (probability ≤ β under recommended npad).
            if p1 < 0 {
                self.failures.clamped_extensions += 1;
                p1 = 0;
            } else if p1 > avail {
                self.failures.clamped_extensions += 1;
                p1 = avail;
            }
            let p1 = p1 as usize;
            let p0 = avail as usize - p1;

            match self.config.selection {
                SelectionStrategy::Uniform => {
                    // Fisher–Yates prefix over the whole group: the first
                    // p1 entries get the 1-bits.
                    let group = self.groups.group_mut(z);
                    shuffle_span(&mut pool, &mut self.rng, group, p1, &mut shuffle_ms);
                    for &id in &group[..p1] {
                        round.set(id as usize, true);
                    }
                }
                SelectionStrategy::Stratified => {
                    // Steer exactly npad padding records into each
                    // successor bin (whenever feasible), selecting uniformly
                    // within each stratum. The strata live in one reusable
                    // flat buffer at the same offsets as the front groups
                    // (pads first, then reals, both in group order).
                    let start = self.strata.len();
                    for &id in self.groups.group(z) {
                        if self.padding_flags[id as usize] {
                            self.strata.push(id);
                        }
                    }
                    let pads_len = self.strata.len() - start;
                    for &id in self.groups.group(z) {
                        if !self.padding_flags[id as usize] {
                            self.strata.push(id);
                        }
                    }
                    let reals_len = avail as usize - pads_len;
                    let pad_ones = (self.npad as usize)
                        .min(pads_len)
                        .min(p1)
                        .max(p1.saturating_sub(reals_len));
                    let real_ones = p1 - pad_ones;
                    let (pads, reals) = self.strata[start..].split_at_mut(pads_len);
                    shuffle_span(&mut pool, &mut self.rng, pads, pad_ones, &mut shuffle_ms);
                    for &id in &pads[..pad_ones] {
                        round.set(id as usize, true);
                    }
                    shuffle_span(&mut pool, &mut self.rng, reals, real_ones, &mut shuffle_ms);
                    for &id in &reals[..real_ones] {
                        round.set(id as usize, true);
                    }
                    self.strata_meta.push((pads_len, pad_ones));
                }
            }
            self.p_history[p_base + (z << 1)] = p0 as i64;
            self.p_history[p_base + ((z << 1) | 1)] = p1 as i64;
        }

        if let (Some(histogram), Some(ms)) = (&self.shuffle_ms, shuffle_ms) {
            histogram.observe(ms);
        }

        // Phase B: plan the successor layout from the released targets
        // (successor class `o` collects exactly the records whose new
        // pattern is `o` or `o + 2^(k−1)`) and move whole segments.
        let regroup_start = self.regroup_ms.as_ref().map(|_| Instant::now());
        self.plan_counts.clear();
        for o in 0..half {
            let count = self.p_history[p_base + o] + self.p_history[p_base + o + half];
            self.plan_counts.push(count as usize);
        }
        self.groups.plan(self.plan_counts.iter().copied());
        for z in 0..half {
            let span = self.groups.group_span(z);
            let p1 = self.p_history[p_base + ((z << 1) | 1)] as usize;
            let one = ((z << 1) | 1) & overlap_mask;
            let zero = (z << 1) & overlap_mask;
            if stratified {
                // Carry order (pads¹, pads⁰, reals¹, reals⁰) matches the
                // historical per-stratum walk, including the k = 1 case
                // where all four segments land in the same class.
                let (pads_len, pad_ones) = self.strata_meta[z];
                let real_ones = p1 - pad_ones;
                let pads = span.start..span.start + pads_len;
                let reals = span.start + pads_len..span.end;
                self.groups
                    .extend(one, &self.strata[pads.start..pads.start + pad_ones]);
                self.groups
                    .extend(zero, &self.strata[pads.start + pad_ones..pads.end]);
                self.groups
                    .extend(one, &self.strata[reals.start..reals.start + real_ones]);
                self.groups
                    .extend(zero, &self.strata[reals.start + real_ones..reals.end]);
            } else {
                self.groups.carry(one, span.start..span.start + p1);
                self.groups.carry(zero, span.start + p1..span.end);
            }
        }
        self.groups.commit();
        if let (Some(histogram), Some(start)) = (&self.regroup_ms, regroup_start) {
            histogram.observe(start.elapsed().as_secs_f64() * 1e3);
        }

        self.synthetic
            .push_column(round.clone())
            .expect("the round covers every synthetic record");
        Release::Update(round)
    }

    /// Drop the state only a further round would read, once the horizon
    /// is complete: the raw window, the overlap classes and the
    /// regrouping and selection scratch.
    fn release_working_state(&mut self) {
        self.buffer = VecDeque::new();
        self.groups = GroupArena::new();
        self.plan_counts = Vec::new();
        self.strata = Vec::new();
        self.strata_meta = Vec::new();
    }

    // ------------------------------------------------------------------
    // Accessors and analyst-side estimation
    // ------------------------------------------------------------------

    /// The configuration this synthesizer runs under.
    pub fn config(&self) -> &FixedWindowConfig {
        &self.config
    }

    /// The resolved per-bin padding (public information).
    pub fn npad(&self) -> u64 {
        self.npad
    }

    /// Size of the synthetic population `n*` (0 before the first release).
    pub fn n_star(&self) -> usize {
        self.synthetic.individuals()
    }

    /// True population size `n` (known after the first round).
    pub fn true_n(&self) -> Option<usize> {
        self.gate.n()
    }

    /// The persistent synthetic population.
    pub fn synthetic(&self) -> &SyntheticDataset {
        &self.synthetic
    }

    /// Clamp-event counters (see [`FailureStats`]).
    pub fn failures(&self) -> &FailureStats {
        &self.failures
    }

    /// The privacy ledger (fully spent after `T` rounds).
    pub fn ledger(&self) -> &SpendTracker {
        &self.ledger
    }

    /// The released histogram targets `p_s^t` for data round `t` (0-based;
    /// first available at `t = k−1`).
    pub fn histogram_estimate(&self, t: usize) -> Result<&[i64], SynthError> {
        let k = self.config.window;
        if t + 1 < k || t >= self.gate.rounds_fed() {
            return Err(SynthError::RoundNotReleased { round: t });
        }
        let bins = Pattern::count(k);
        let base = (t + 1 - k) * bins;
        Ok(&self.p_history[base..base + bins])
    }

    /// Biased estimate: evaluate `query` against the synthetic population
    /// and normalise by `n*` — "calculated on the synthetic data", the
    /// left panels of the paper's Figures 5–7.
    pub fn estimate_biased(&self, t: usize, query: &WindowQuery) -> Result<f64, SynthError> {
        let raw = self.raw_query_count(t, query)?;
        Ok(raw / self.n_star() as f64)
    }

    /// Debiased estimate (Corollary 3.3): subtract the known padding
    /// contribution and normalise by the true `n` — the right panels of
    /// Figures 5–7, and the estimator whose error Theorem 3.2 bounds.
    pub fn estimate_debiased(&self, t: usize, query: &WindowQuery) -> Result<f64, SynthError> {
        let raw = self.raw_query_count(t, query)?;
        let k = self.config.window;
        let weight_sum: f64 = query.weights().iter().sum();
        // Padding contributes npad records per width-k bin; a width-k'
        // query sees npad·2^(k−k') per width-k' bin (uniformly for k' > k).
        let padding_contribution = if query.width() <= k {
            self.npad as f64 * weight_sum * (1u64 << (k - query.width())) as f64
        } else {
            self.npad as f64 * weight_sum * (Pattern::count(k) as f64)
                / Pattern::count(query.width()) as f64
        };
        let n = self
            .true_n()
            .ok_or(SynthError::RoundNotReleased { round: t })?;
        Ok((raw - padding_contribution) / n as f64)
    }

    /// The appendix figures' debiasing: subtract the query answer on the
    /// *padding records* (tracked individually, see `padding_flags`) rather
    /// than the scalar `npad` per bin — exact for **any** query width,
    /// including `k' > k` where per-bin offsets are only approximate.
    pub fn estimate_debiased_records(
        &self,
        t: usize,
        query: &WindowQuery,
    ) -> Result<f64, SynthError> {
        if t >= self.synthetic.rounds() || t + 1 < query.width() {
            return Err(SynthError::RoundNotReleased { round: t });
        }
        let n = self
            .true_n()
            .ok_or(SynthError::RoundNotReleased { round: t })?;
        let weights = query.weights();
        // q(all records) − q(padding records) = q over non-padding records.
        let mut total = 0.0;
        for (i, &is_padding) in self.padding_flags.iter().enumerate() {
            if !is_padding {
                total += weights[self.synthetic.suffix_pattern(i, t, query.width()) as usize];
            }
        }
        Ok(total / n as f64)
    }

    /// The public padding labels (one per synthetic record).
    pub fn padding_flags(&self) -> &[bool] {
        &self.padding_flags
    }

    /// The un-normalised synthetic count `Σ_s w_s · p_s^t`, answering
    /// width-≤k queries from the released histograms and wider queries by
    /// direct record evaluation (supported because records persist — but
    /// *not* covered by any accuracy theorem; Figures 3–4's bottom panels
    /// measure exactly this).
    fn raw_query_count(&self, t: usize, query: &WindowQuery) -> Result<f64, SynthError> {
        let k = self.config.window;
        if query.width() <= k {
            let counts = self.histogram_estimate(t)?;
            let lifted = query.lift_to_width(k);
            Ok(lifted
                .weights()
                .iter()
                .zip(counts)
                .map(|(w, &c)| w * c as f64)
                .sum())
        } else {
            if t >= self.synthetic.rounds() || t + 1 < query.width() {
                return Err(SynthError::RoundNotReleased { round: t });
            }
            let weights = query.weights();
            let mut total = 0.0;
            for i in 0..self.synthetic.individuals() {
                total += weights[self.synthetic.suffix_pattern(i, t, query.width()) as usize];
            }
            Ok(total)
        }
    }
}

impl<R: Rng> ContinualSynthesizer for FixedWindowSynthesizer<R> {
    type Input = BitColumn;
    type Release = Release;
    type Aggregate = HistogramAggregate;

    /// The exact width-`k` window histogram of the last `k` columns
    /// ([`HistogramAggregate::Buffered`] while `t < k`).
    fn prepare(&mut self, column: &BitColumn) -> Result<HistogramAggregate, SynthError> {
        let t = self.gate.prepare(column.len())?;
        let k = self.config.window;
        if self.buffer.len() == k {
            self.buffer.pop_front();
        }
        self.buffer.push_back(column.clone());

        let n = column.len();
        if t < k {
            return Ok(HistogramAggregate::Buffered { n });
        }
        debug_assert_eq!(self.buffer.len(), k);
        // Word-sliced joint histogram: the front (oldest) column is the
        // pattern's high bit, same fold as Pattern's encoding.
        let counts: Vec<i64> = BitColumn::pattern_counts(self.buffer.make_contiguous())
            .into_iter()
            .map(|c| c as i64)
            .collect();
        debug_assert_eq!(counts.len(), Pattern::count(k));
        Ok(HistogramAggregate::Counts { n, counts })
    }

    /// Ledger charge, padding and noise, then the first release (round
    /// `k`) or one consistent extension.
    fn finalize(&mut self, aggregate: HistogramAggregate) -> Result<Release, SynthError> {
        let t = self.gate.next_round()?;
        let k = self.config.window;
        aggregate.check_shape(t, k, Pattern::count(k))?;
        self.gate.finalize(aggregate.population())?;

        let counts = match aggregate {
            HistogramAggregate::Buffered { .. } => return Ok(Release::Buffered),
            HistogramAggregate::Counts { counts, .. } => counts,
        };
        let noisy = self.noisy_histogram(counts);
        let release = if t == k {
            self.initialize(noisy)
        } else {
            self.extend(noisy)
        };
        if t == self.config.horizon {
            self.release_working_state();
        }
        Ok(release)
    }

    fn round(&self) -> usize {
        self.gate.rounds_fed()
    }

    fn horizon(&self) -> usize {
        self.config.horizon
    }

    fn budget_spent(&self) -> Rho {
        self.ledger.spent()
    }

    fn budget_total(&self) -> Rho {
        self.ledger.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use longsynth_data::generators::{all_ones, iid_bernoulli, two_state_markov, MarkovParams};
    use longsynth_data::LongitudinalDataset;
    use longsynth_dp::rng::rng_from_seed;
    use longsynth_queries::window::{quarterly_battery, window_histogram};

    fn run_synth(
        data: &LongitudinalDataset,
        config: FixedWindowConfig,
        seed: u64,
    ) -> FixedWindowSynthesizer {
        let mut synth = FixedWindowSynthesizer::new(config, rng_from_seed(seed));
        for (_, col) in data.stream() {
            synth.step(col).unwrap();
        }
        synth
    }

    fn noiseless_config(horizon: usize, window: usize) -> FixedWindowConfig {
        FixedWindowConfig::noiseless(horizon, window, Rho::new(1.0).unwrap())
            .unwrap()
            .with_padding(PaddingPolicy::None)
    }

    #[test]
    fn seed_population_lays_records_out_in_pattern_code_order() {
        // Width-2 counts: 00→1, 01→2, 10→0, 11→3.
        let population = seed_population(&[1, 2, 0, 3], 2);
        assert_eq!(population.individuals(), 6);
        assert_eq!(population.rounds(), 2);
        let codes: Vec<u32> = (0..6).map(|i| population.suffix_pattern(i, 1, 2)).collect();
        assert_eq!(codes, vec![0b00, 0b01, 0b01, 0b11, 0b11, 0b11]);
        assert_eq!(window_histogram(&population, 1, 2), vec![1, 2, 0, 3]);
    }

    #[test]
    #[should_panic(expected = "negative pattern count")]
    fn seed_population_rejects_negative_counts() {
        seed_population(&[1, -1], 1);
    }

    #[test]
    fn noiseless_run_reproduces_exact_histograms() {
        // With no noise and no padding, Algorithm 1 must track the true
        // histograms exactly at every round — the consistency corrections
        // are all zero.
        let data = two_state_markov(
            &mut rng_from_seed(3),
            500,
            10,
            MarkovParams {
                initial_one: 0.4,
                stay_one: 0.6,
                enter_one: 0.3,
            },
        );
        let synth = run_synth(&data, noiseless_config(10, 3), 4);
        assert_eq!(synth.n_star(), 500);
        for t in 2..10 {
            let truth = window_histogram(&data, t, 3);
            let est = synth.histogram_estimate(t).unwrap();
            for (s, (&c, &p)) in truth.iter().zip(est).enumerate() {
                assert_eq!(c as i64, p, "t={t}, s={s}");
            }
        }
        assert_eq!(synth.failures().total(), 0);
    }

    #[test]
    fn noiseless_synthetic_records_match_histograms() {
        // The records themselves (not just the bookkeeping) must carry the
        // right window patterns.
        let data = iid_bernoulli(&mut rng_from_seed(5), 300, 8, 0.5);
        let synth = run_synth(&data, noiseless_config(8, 3), 6);
        for t in 2..8 {
            let from_records: Vec<i64> = window_histogram(synth.synthetic(), t, 3)
                .iter()
                .map(|&c| c as i64)
                .collect();
            let bookkept = synth.histogram_estimate(t).unwrap();
            assert_eq!(from_records.as_slice(), bookkept, "t={t}");
        }
    }

    #[test]
    fn consistency_identity_holds_with_noise() {
        // p^t_{z0} + p^t_{z1} = p^{t−1}_{0z} + p^{t−1}_{1z} for every z, t —
        // the §3.1 constraint — must hold exactly even under heavy noise.
        let data = iid_bernoulli(&mut rng_from_seed(7), 200, 12, 0.3);
        let config = FixedWindowConfig::new(12, 3, Rho::new(0.005).unwrap()).unwrap();
        let synth = run_synth(&data, config, 8);
        for t in 3..12 {
            let prev = synth.histogram_estimate(t - 1).unwrap();
            let now = synth.histogram_estimate(t).unwrap();
            for z in Pattern::all(2) {
                let ended =
                    prev[z.prepend(false).code() as usize] + prev[z.prepend(true).code() as usize];
                let started =
                    now[z.append(false).code() as usize] + now[z.append(true).code() as usize];
                assert_eq!(ended, started, "t={t}, z={z}");
            }
        }
        // Total synthetic population is invariant over time.
        for t in 2..12 {
            let total: i64 = synth.histogram_estimate(t).unwrap().iter().sum();
            assert_eq!(total, synth.n_star() as i64, "t={t}");
        }
    }

    #[test]
    fn padding_keeps_all_bins_feasible_whp() {
        // Paper parameters (T=12, k=3, ρ=0.005, β=0.05): a single run must
        // complete without clamps (failure prob ≤ 5%; seed chosen fixed).
        let data = two_state_markov(
            &mut rng_from_seed(9),
            2_000,
            12,
            MarkovParams {
                initial_one: 0.1,
                stay_one: 0.8,
                enter_one: 0.02,
            },
        );
        let config = FixedWindowConfig::new(12, 3, Rho::new(0.005).unwrap()).unwrap();
        let synth = run_synth(&data, config, 10);
        assert_eq!(synth.failures().total(), 0, "{:?}", synth.failures());
        // n* = n + 8·npad + noise: bounded sanity check.
        let expected = 2_000 + 8 * synth.npad() as usize;
        let slack = 8 * 150; // ~3.4σ per bin at σ² ≈ 1000
        assert!(
            (synth.n_star() as i64 - expected as i64).unsigned_abs() < slack as u64,
            "n* {} far from {}",
            synth.n_star(),
            expected
        );
    }

    #[test]
    fn no_padding_on_sparse_data_produces_clamps() {
        // All-zero bins + noise without padding must trigger the clamp
        // accounting — the §3.1 motivation for padding.
        let data = all_ones(50, 8); // every bin except 111 is empty
        let config = FixedWindowConfig::new(8, 3, Rho::new(0.005).unwrap())
            .unwrap()
            .with_padding(PaddingPolicy::None);
        let synth = run_synth(&data, config, 11);
        assert!(
            synth.failures().total() > 0,
            "expected clamp events without padding"
        );
    }

    #[test]
    fn debiased_estimates_are_exact_without_noise() {
        let data = iid_bernoulli(&mut rng_from_seed(13), 400, 9, 0.4);
        // Padding but no noise: debiasing must remove the padding exactly.
        let config = FixedWindowConfig::noiseless(9, 3, Rho::new(1.0).unwrap())
            .unwrap()
            .with_padding(PaddingPolicy::Fixed(50));
        let synth = run_synth(&data, config, 14);
        for t in 2..9 {
            for query in quarterly_battery(3) {
                let truth = query.evaluate_true(&data, t);
                let est = synth.estimate_debiased(t, &query).unwrap();
                assert!(
                    (est - truth).abs() < 1e-9,
                    "t={t}, {}: {est} vs {truth}",
                    query.name()
                );
                // And the biased estimate is visibly different (padding).
                let biased = synth.estimate_biased(t, &query).unwrap();
                assert!(biased > truth - 1e-9, "padding inflates counts");
            }
        }
    }

    #[test]
    fn record_debiasing_matches_scalar_debiasing_without_noise() {
        // With no noise and *stratified* selection, the padding records sit
        // at exactly npad per bin for the whole run, so both debiasing
        // methods agree (and equal the truth) for widths ≤ k.
        let data = iid_bernoulli(&mut rng_from_seed(33), 400, 9, 0.4);
        let config = FixedWindowConfig::noiseless(9, 3, Rho::new(1.0).unwrap())
            .unwrap()
            .with_padding(PaddingPolicy::Fixed(30))
            .with_selection(SelectionStrategy::Stratified);
        let synth = run_synth(&data, config, 34);
        // Padding flags: exactly 8 × 30 records flagged.
        let flagged = synth.padding_flags().iter().filter(|&&f| f).count();
        assert_eq!(flagged, 8 * 30);
        for t in 2..9 {
            for query in quarterly_battery(3) {
                let truth = query.evaluate_true(&data, t);
                let by_records = synth.estimate_debiased_records(t, &query).unwrap();
                let by_scalar = synth.estimate_debiased(t, &query).unwrap();
                assert!(
                    (by_records - truth).abs() < 1e-9,
                    "t={t} {}: {by_records} vs {truth}",
                    query.name()
                );
                assert!((by_records - by_scalar).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn narrower_queries_answerable_without_extra_cost() {
        let data = iid_bernoulli(&mut rng_from_seed(15), 400, 9, 0.5);
        let config = FixedWindowConfig::noiseless(9, 3, Rho::new(1.0).unwrap())
            .unwrap()
            .with_padding(PaddingPolicy::Fixed(20));
        let synth = run_synth(&data, config, 16);
        let narrow = WindowQuery::at_least_m_ones(2, 1);
        for t in 2..9 {
            let truth = narrow.evaluate_true(&data, t);
            let est = synth.estimate_debiased(t, &narrow).unwrap();
            assert!((est - truth).abs() < 1e-9, "t={t}: {est} vs {truth}");
        }
    }

    #[test]
    fn wider_queries_evaluate_on_records() {
        let data = iid_bernoulli(&mut rng_from_seed(17), 300, 10, 0.5);
        let config = noiseless_config(10, 3);
        let synth = run_synth(&data, config, 18);
        let wide = WindowQuery::all_ones(4);
        // Answerable (records persist) but with no accuracy guarantee; in
        // the noiseless run it is still exact because the synthesizer
        // reproduces the data distribution only per-window — so here we
        // merely check it returns a sane fraction.
        let est = synth.estimate_biased(9, &wide).unwrap();
        assert!((0.0..=1.0).contains(&est));
        // Too-early round errors.
        assert!(matches!(
            synth.estimate_biased(2, &wide),
            Err(SynthError::RoundNotReleased { .. })
        ));
    }

    #[test]
    fn release_sequence_shapes() {
        let data = iid_bernoulli(&mut rng_from_seed(19), 100, 6, 0.5);
        let config = noiseless_config(6, 3);
        let mut synth = FixedWindowSynthesizer::new(config, rng_from_seed(20));
        let mut releases = Vec::new();
        for (_, col) in data.stream() {
            releases.push(synth.step(col).unwrap());
        }
        assert!(matches!(releases[0], Release::Buffered));
        assert!(matches!(releases[1], Release::Buffered));
        match &releases[2] {
            Release::Initial(cols) => {
                assert_eq!(cols.len(), 3);
                assert_eq!(cols[0].len(), synth.n_star());
            }
            other => panic!("expected Initial, got {other:?}"),
        }
        for r in &releases[3..] {
            assert!(matches!(r, Release::Update(_)));
        }
    }

    #[test]
    fn k1_window_works() {
        // k = 1: the overlap is the empty pattern; all records form one
        // group and the histogram is the per-round 0/1 split.
        let data = iid_bernoulli(&mut rng_from_seed(21), 200, 5, 0.3);
        let synth = run_synth(&data, noiseless_config(5, 1), 22);
        for t in 0..5 {
            let est = synth.histogram_estimate(t).unwrap();
            let ones = data.column(t).count_ones() as i64;
            assert_eq!(est[1], ones, "t={t}");
            assert_eq!(est[0], 200 - ones, "t={t}");
        }
    }

    #[test]
    fn budget_is_fully_spent() {
        let data = iid_bernoulli(&mut rng_from_seed(23), 100, 12, 0.5);
        let config = FixedWindowConfig::new(12, 3, Rho::new(0.005).unwrap()).unwrap();
        let synth = run_synth(&data, config, 24);
        assert!(synth.ledger().exhausted());
        assert!((synth.ledger().spent().value() - 0.005).abs() < 1e-12);
    }

    #[test]
    fn determinism_across_identical_runs() {
        let data = iid_bernoulli(&mut rng_from_seed(25), 150, 8, 0.4);
        let config = FixedWindowConfig::new(8, 2, Rho::new(0.01).unwrap()).unwrap();
        let a = run_synth(&data, config, 26);
        let b = run_synth(&data, config, 26);
        assert_eq!(a.synthetic(), b.synthetic());
        let c = run_synth(&data, config, 27);
        assert_ne!(a.synthetic(), c.synthetic(), "different seeds must differ");
    }

    #[test]
    fn input_validation() {
        let config = noiseless_config(4, 2);
        let mut synth = FixedWindowSynthesizer::new(config, rng_from_seed(28));
        synth.step(&BitColumn::zeros(10)).unwrap();
        // Wrong column size.
        assert!(matches!(
            synth.step(&BitColumn::zeros(11)),
            Err(SynthError::ColumnSizeMismatch {
                expected: 10,
                actual: 11
            })
        ));
        for _ in 0..3 {
            synth.step(&BitColumn::zeros(10)).unwrap();
        }
        // Horizon exhausted.
        assert!(matches!(
            synth.step(&BitColumn::zeros(10)),
            Err(SynthError::HorizonExceeded { horizon: 4 })
        ));
        // Bad configs.
        assert!(FixedWindowConfig::new(4, 5, Rho::new(1.0).unwrap()).is_err());
        assert!(FixedWindowConfig::new(25, 21, Rho::new(1.0).unwrap()).is_err());
    }

    /// Everything a post-run reader sees for rounds `0..rounds`: the
    /// synthetic columns, the released targets, every estimator on the
    /// quarterly battery and a width-4 query, the population sizes and
    /// the public padding labels.
    fn post_run_view(synth: &FixedWindowSynthesizer, rounds: usize) -> String {
        let mut view = format!(
            "n*={} n={:?} npad={} flags={:?}\n",
            synth.n_star(),
            synth.true_n(),
            synth.npad(),
            synth.padding_flags()
        );
        let mut queries = quarterly_battery(3);
        queries.push(WindowQuery::all_ones(4));
        for t in 0..rounds {
            view += &format!(
                "t={t} column {:?} targets {:?}",
                synth.synthetic().column(t),
                synth.histogram_estimate(t)
            );
            for query in &queries {
                view += &format!(
                    " {}: {:?} {:?} {:?}",
                    query.name(),
                    synth.estimate_biased(t, query),
                    synth.estimate_debiased(t, query),
                    synth.estimate_debiased_records(t, query)
                );
            }
            view += "\n";
        }
        view
    }

    /// The working state the horizon drops is gone.
    fn assert_working_state_dropped(synth: &FixedWindowSynthesizer) {
        assert_eq!(synth.buffer.capacity(), 0, "raw window kept");
        assert_eq!(synth.groups.heap_bytes(), 0, "overlap classes kept");
        assert_eq!(synth.strata.capacity(), 0, "strata kept");
        assert_eq!(synth.strata_meta.capacity(), 0, "strata sizes kept");
        assert_eq!(synth.plan_counts.capacity(), 0, "plan scratch kept");
    }

    #[test]
    fn sealed_synthesizer_drops_its_working_state_and_keeps_its_release() {
        let horizon = 8;
        let data = iid_bernoulli(&mut rng_from_seed(35), 300, horizon, 0.4);
        for selection in [SelectionStrategy::Uniform, SelectionStrategy::Stratified] {
            let config = FixedWindowConfig::new(horizon, 3, Rho::new(0.5).unwrap())
                .unwrap()
                .with_selection(selection);
            let mut synth = FixedWindowSynthesizer::new(config, rng_from_seed(36));
            for (_, col) in data.stream().take(horizon - 1) {
                synth.step(col).unwrap();
            }
            assert!(synth.groups.heap_bytes() > 0 && synth.buffer.capacity() > 0);
            let before = post_run_view(&synth, horizon - 1);

            let last = synth.step(data.column(horizon - 1)).unwrap();
            assert!(synth.is_sealed());
            assert_working_state_dropped(&synth);
            assert_eq!(post_run_view(&synth, horizon - 1), before, "{selection:?}");
            // The last release is the synthetic population's last column,
            // and the records carry the last released targets.
            assert_eq!(
                last,
                Release::Update(synth.synthetic().column(horizon - 1).clone())
            );
            let from_records: Vec<i64> = window_histogram(synth.synthetic(), horizon - 1, 3)
                .iter()
                .map(|&c| c as i64)
                .collect();
            assert_eq!(
                synth.histogram_estimate(horizon - 1).unwrap(),
                from_records.as_slice()
            );
            assert!(synth.ledger().exhausted());

            // Further rounds are refused without touching anything.
            let view = post_run_view(&synth, horizon);
            assert!(matches!(
                synth.prepare(data.column(0)),
                Err(SynthError::HorizonExceeded { horizon: 8 })
            ));
            assert!(matches!(
                synth.step(data.column(0)),
                Err(SynthError::HorizonExceeded { horizon: 8 })
            ));
            assert!(matches!(
                synth.finalize(HistogramAggregate::Counts {
                    n: 300,
                    counts: vec![0; 8],
                }),
                Err(SynthError::HorizonExceeded { horizon: 8 })
            ));
            assert_eq!(post_run_view(&synth, horizon), view, "{selection:?}");
            assert_working_state_dropped(&synth);
        }
    }

    #[test]
    fn noisy_estimates_land_near_truth_at_generous_budget() {
        // ρ = 1 on n = 5 000: noise per bin σ ≈ √(10/2) ≈ 2.2 counts, so
        // debiased fractions should be within ~1e-2 of truth.
        let data = two_state_markov(
            &mut rng_from_seed(29),
            5_000,
            12,
            MarkovParams {
                initial_one: 0.2,
                stay_one: 0.7,
                enter_one: 0.1,
            },
        );
        let config = FixedWindowConfig::new(12, 3, Rho::new(1.0).unwrap()).unwrap();
        let synth = run_synth(&data, config, 30);
        for t in [2usize, 5, 8, 11] {
            for query in quarterly_battery(3) {
                let truth = query.evaluate_true(&data, t);
                let est = synth.estimate_debiased(t, &query).unwrap();
                assert!(
                    (est - truth).abs() < 0.02,
                    "t={t} {}: {est} vs {truth}",
                    query.name()
                );
            }
        }
    }
}
