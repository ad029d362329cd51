//! The categorical extension of Algorithm 1 (`|X| = V > 2`).
//!
//! §2 of the paper: "The solutions we develop for fixed time window queries
//! naturally extend to handle categorical data with more than 2
//! categories." This module is that extension, spelled out:
//!
//! * histograms range over `V^k` patterns (base-`V` encoded);
//! * the overlap constraint becomes `Σ_c p^{t}_{cz} = Σ_c p^{t+1}_{zc}` for
//!   every overlap `z ∈ V^{k−1}`;
//! * the correction term generalises to distributing the integer defect
//!   `D_z = |I_z| − Σ_c Ĉ_{zc}` as `⌊D_z/V⌋` to every category plus `+1`
//!   to `D_z mod V` categories chosen uniformly at random — for `V = 2`
//!   this is exactly the paper's `Δ_z ± ½` randomized rounding.
//!
//! Privacy is word-for-word the binary argument: sensitivity 1 per noisy
//! bin per step, uniform split over `T − k + 1` steps ⇒ ρ-zCDP.
//!
//! The rolling window codes, the overlap classes and the selection scratch
//! serve only the next round, so the `finalize` that completes the horizon
//! drops them. A sealed synthesizer keeps its synthetic record values, the
//! released targets and its ledger.

// Threshold loops index by `b` to mirror the paper's S_b / z_b notation.
#![allow(clippy::needless_range_loop)]

use crate::aggregate::HistogramAggregate;
use crate::arena::GroupArena;
use crate::error::SynthError;
use crate::gate::RoundGate;
use crate::traits::ContinualSynthesizer;
use longsynth_data::categorical::CategoricalColumn;
use longsynth_dp::budget::{Rho, SpendTracker};
use longsynth_dp::fastrange::RangePool;
use longsynth_dp::mechanisms::{NoiseDistribution, NoiseSampler};
use longsynth_dp::rng::StdDpRng;
use rand::Rng;

/// Configuration of a [`CategoricalSynthesizer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CategoricalConfig {
    /// Time horizon `T`.
    pub horizon: usize,
    /// Window width `k`.
    pub window: usize,
    /// Number of categories `V ≥ 2`.
    pub categories: u8,
    /// Total zCDP budget.
    pub rho: Rho,
    /// Per-bin padding (`None` derives the Theorem 3.2 analogue at β).
    pub npad_override: Option<u64>,
    /// Failure probability for the padding rule.
    pub beta: f64,
    /// Drop the per-bin noise (tests only, see [`Self::noiseless`]).
    noiseless: bool,
}

impl CategoricalConfig {
    /// Validated constructor. Requires `V^k ≤ 2^20` bins.
    pub fn new(
        horizon: usize,
        window: usize,
        categories: u8,
        rho: Rho,
    ) -> Result<Self, SynthError> {
        if horizon == 0 || window == 0 || window > horizon {
            return Err(SynthError::InvalidConfig(format!(
                "need 1 <= k <= T, got k={window}, T={horizon}"
            )));
        }
        if categories < 2 {
            return Err(SynthError::InvalidConfig(
                "need at least 2 categories".into(),
            ));
        }
        if rho.value() <= 0.0 {
            return Err(SynthError::InvalidConfig("rho must be positive".into()));
        }
        let bins = (categories as f64).powi(window as i32);
        if bins > (1 << 20) as f64 {
            return Err(SynthError::InvalidConfig(format!(
                "V^k = {bins} bins exceeds the supported 2^20"
            )));
        }
        Ok(Self {
            horizon,
            window,
            categories,
            rho,
            npad_override: None,
            beta: 0.05,
            noiseless: false,
        })
    }

    /// [`new`](Self::new) without the per-bin noise: the releases carry
    /// **no privacy guarantee**. For tests that check the consistency
    /// arithmetic exactly; the budget `rho` still sets the padding rule
    /// and the ledger charges.
    #[doc(hidden)]
    pub fn noiseless(
        horizon: usize,
        window: usize,
        categories: u8,
        rho: Rho,
    ) -> Result<Self, SynthError> {
        Ok(Self {
            noiseless: true,
            ..Self::new(horizon, window, categories, rho)?
        })
    }

    /// Override the padding count.
    #[must_use]
    pub fn with_npad(mut self, npad: u64) -> Self {
        self.npad_override = Some(npad);
        self
    }

    /// Number of histogram bins `V^k`.
    pub fn bins(&self) -> usize {
        (self.categories as usize).pow(self.window as u32)
    }

    /// Number of overlap groups `V^(k−1)`.
    pub fn overlaps(&self) -> usize {
        (self.categories as usize).pow(self.window as u32 - 1)
    }

    /// Update steps `R = T − k + 1`.
    pub fn update_steps(&self) -> usize {
        self.horizon - self.window + 1
    }

    /// The Theorem 3.2 analogue over `V^k` bins:
    /// `λ = (√(R/ρ) + 1/√2)·√(ln(V^k·R/β))`.
    pub fn lambda(&self) -> f64 {
        let r = self.update_steps() as f64;
        ((r / self.rho.value()).sqrt() + std::f64::consts::FRAC_1_SQRT_2)
            * ((self.bins() as f64) * r / self.beta).ln().sqrt()
    }

    /// Resolved per-bin padding.
    pub fn npad(&self) -> u64 {
        self.npad_override
            .unwrap_or_else(|| self.lambda().ceil() as u64)
    }
}

/// Categorical fixed-window synthesizer. See module docs.
pub struct CategoricalSynthesizer<R: Rng = StdDpRng> {
    config: CategoricalConfig,
    /// Cached sampler for the per-step Gaussian noise (constants hoisted
    /// out of the per-bin noising loop).
    sampler: NoiseSampler,
    npad: u64,
    ledger: SpendTracker,
    per_step_rho: Rho,
    gate: RoundGate,
    /// Rolling base-`V` window code per true record — the last
    /// `min(t, k)` observed values after round `t`, big-endian. Maintained
    /// incrementally by `prepare` (one O(n) pass per round) instead of
    /// re-encoding a buffered k-wide window per record. This and the other
    /// per-record working state (`groups`, `plan_counts`, `chosen`) are
    /// dropped at the horizon.
    window_codes: Vec<u32>,
    /// Synthetic record values, column-major: `released_values[t][id]` is
    /// record `id`'s base-`V` category at round `t`. Column-major so the
    /// update step can bulk-write shuffled group segments.
    released_values: Vec<Vec<u8>>,
    /// Record ids grouped by overlap code (base-V, width k−1), stored
    /// flat and regrouped by planned segment moves each round (see
    /// [`GroupArena`]).
    groups: GroupArena,
    /// Released histogram targets, flat with stride `V^k`: round `r`'s
    /// targets are `p_history[r·V^k..(r+1)·V^k]`. Reserved for the full
    /// run at initialization so extends append without allocating.
    p_history: Vec<i64>,
    /// Reusable successor-size scratch for [`GroupArena::plan`].
    plan_counts: Vec<usize>,
    /// Reusable category-id scratch for the bonus-category pick.
    chosen: Vec<u32>,
    /// Clamp events (the β-probability failures).
    clamps: u64,
    rng: R,
}

impl<R: Rng> CategoricalSynthesizer<R> {
    /// Create a synthesizer drawing all randomness from `rng`.
    pub fn new(config: CategoricalConfig, rng: R) -> Self {
        let sigma2 = config.update_steps() as f64 / (2.0 * config.rho.value());
        let per_step_rho =
            Rho::new(config.rho.value() / config.update_steps() as f64).expect("validated rho");
        let noise = if config.noiseless {
            NoiseDistribution::None
        } else {
            NoiseDistribution::DiscreteGaussian { sigma2 }
        };
        Self {
            sampler: noise.sampler(),
            npad: config.npad(),
            ledger: SpendTracker::new(config.rho),
            per_step_rho,
            gate: RoundGate::new(config.horizon),
            window_codes: Vec::new(),
            released_values: Vec::new(),
            groups: GroupArena::new(),
            p_history: Vec::new(),
            plan_counts: Vec::new(),
            chosen: Vec::new(),
            clamps: 0,
            rng,
            config,
        }
    }

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

    fn initialize(&mut self, mut noisy: Vec<i64>) {
        let v = self.config.categories as usize;
        let k = self.config.window;
        for c in noisy.iter_mut() {
            if *c < 0 {
                self.clamps += 1;
                *c = 0;
            }
        }
        let overlaps = self.config.overlaps();
        self.plan_counts.clear();
        self.plan_counts.resize(overlaps, 0);
        for (code, &count) in noisy.iter().enumerate() {
            self.plan_counts[code % overlaps] += count as usize;
        }
        self.groups.clear();
        self.groups.plan(self.plan_counts.iter().copied());
        // Column-major seeding, one pattern segment at a time: record ids
        // are contiguous per pattern code, so each round's column is a run
        // of `count` repeated digits and each overlap group a contiguous
        // id range — bulk fills, no per-record pushes.
        let total: usize = noisy.iter().map(|&c| c as usize).sum();
        self.released_values = (0..k).map(|_| Vec::with_capacity(total)).collect();
        let mut next_id = 0u32;
        for (code, &count) in noisy.iter().enumerate() {
            let count = count as usize;
            if count == 0 {
                continue;
            }
            // Decode base-V digits, oldest first.
            let mut digits = vec![0u8; k];
            let mut rest = code;
            for d in (0..k).rev() {
                digits[d] = (rest % v) as u8;
                rest /= v;
            }
            let overlap = code % overlaps;
            for (column, &digit) in self.released_values.iter_mut().zip(&digits) {
                column.resize(column.len() + count, digit);
            }
            for id in next_id..next_id + count as u32 {
                self.groups.push(overlap, id);
            }
            next_id += count as u32;
        }
        self.groups.commit();
        // One flat targets store for the whole run, reserved up front so
        // every steady-state extend appends without reallocating.
        self.p_history.clear();
        self.p_history
            .reserve(self.config.update_steps() * self.config.bins());
        self.p_history.extend_from_slice(&noisy);
    }

    /// Update step, in two phases (mirroring the fixed-window extend):
    /// **Phase A** draws the bonus-category picks and full-group shuffles
    /// in the exact historical order (word stream pinned by the replay
    /// tests) and fixes the round's targets; **Phase B** regroups by
    /// planned segment moves through the [`GroupArena`] — every
    /// successor overlap class is a concatenation of per-category
    /// segments of the shuffled current classes, with sizes equal to the
    /// released targets.
    fn extend(&mut self, noisy: Vec<i64>) {
        let v = self.config.categories as usize;
        let overlaps = self.config.overlaps();
        let bins = self.config.bins();
        // This round's targets live at the tail of the flat history
        // (reserved in full at initialization — no reallocation here).
        let p_base = self.p_history.len();
        self.p_history.resize(p_base + bins, 0);
        let mut column = vec![0u8; self.n_star()];
        let mut pool = RangePool::new();

        // Phase A: bonus picks, target feasibility, full-group shuffles.
        for z in 0..overlaps {
            let avail = self.groups.group(z).len() as i64;
            let base_code = z * v;
            let c_sum: i64 = (0..v).map(|c| noisy[base_code + c]).sum();
            // Defect D_z distributed as ⌊D/V⌋ everywhere + 1 to D mod V
            // random categories.
            let defect = avail - c_sum;
            let share = defect.div_euclid(v as i64);
            let remainder = defect.rem_euclid(v as i64) as usize;
            // Reservoir-free selection of `remainder` distinct categories.
            self.chosen.clear();
            self.chosen.extend(0..v as u32);
            pool.partial_shuffle(&mut self.rng, &mut self.chosen, remainder);

            let targets = &mut self.p_history[p_base + base_code..p_base + base_code + v];
            for (c, target) in targets.iter_mut().enumerate() {
                *target = noisy[base_code + c] + share;
            }
            for &c in self.chosen.iter().take(remainder) {
                targets[c as usize] += 1;
            }
            debug_assert_eq!(targets.iter().sum::<i64>(), avail);

            // Feasibility: clamp negatives to zero, absorbing the excess
            // into the largest bins (keeps the sum exactly |I_z|).
            let mut deficit = 0i64;
            for target in targets.iter_mut() {
                if *target < 0 {
                    self.clamps += 1;
                    deficit += -*target;
                    *target = 0;
                }
            }
            while deficit > 0 {
                let (idx, _) = targets
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &t)| t)
                    .expect("v >= 2");
                let take = deficit.min(targets[idx]);
                // Absorption always terminates: the clamped targets sum to
                // `avail + deficit ≥ deficit > 0`, so a positive target
                // exists while any deficit remains. A stall here means the
                // released targets no longer partition the group — fail
                // loudly in every build profile rather than silently
                // desynchronize the regrouping (the historical code broke
                // out of the loop and corrupted the segment walk).
                assert!(
                    take > 0,
                    "feasibility absorption stalled for overlap group {z}: residual \
                     deficit {deficit} with every target at zero, but clamped targets \
                     must sum to the group size ({avail}) plus the deficit"
                );
                targets[idx] -= take;
                deficit -= take;
            }

            // Shuffle the whole group in place; Phase B slices it into
            // per-category segments.
            let group = self.groups.group_mut(z);
            let len = group.len();
            pool.partial_shuffle(&mut self.rng, group, len);
        }

        // Phase B: plan the successor layout (successor class `o`
        // collects the segments of every pattern code ≡ o mod V^(k−1))
        // and move whole segments.
        self.plan_counts.clear();
        self.plan_counts.resize(overlaps, 0);
        for code in 0..bins {
            self.plan_counts[code % overlaps] += self.p_history[p_base + code] as usize;
        }
        self.groups.plan(self.plan_counts.iter().copied());
        for z in 0..overlaps {
            let span = self.groups.group_span(z);
            let base_code = z * v;
            // The shuffled group's first `target` ids take category c, and
            // the whole segment moves to its successor overlap (z extended
            // by c, oldest digit dropped) in one bulk copy.
            let mut cursor = 0usize;
            for c in 0..v {
                let target = self.p_history[p_base + base_code + c] as usize;
                for &id in &self.groups.group(z)[cursor..cursor + target] {
                    column[id as usize] = c as u8;
                }
                let next_overlap = (base_code + c) % overlaps;
                self.groups.carry(
                    next_overlap,
                    span.start + cursor..span.start + cursor + target,
                );
                cursor += target;
            }
            debug_assert_eq!(cursor, span.len());
        }
        self.groups.commit();
        self.released_values.push(column);
    }

    /// Drop the state only a further round would read, once the horizon
    /// is complete: the window codes, the overlap classes and the
    /// regrouping and selection scratch.
    fn release_working_state(&mut self) {
        self.window_codes = Vec::new();
        self.groups = GroupArena::new();
        self.plan_counts = Vec::new();
        self.chosen = Vec::new();
    }

    // ------------------------------------------------------------------

    /// Released histogram targets for 0-based round `t` (first at
    /// `t = k−1`).
    pub fn histogram_estimate(&self, t: usize) -> Result<&[i64], SynthError> {
        let k = self.config.window;
        if t + 1 < k || t >= self.gate.rounds_fed() {
            return Err(SynthError::RoundNotReleased { round: t });
        }
        let bins = self.config.bins();
        let base = (t + 1 - k) * bins;
        Ok(&self.p_history[base..base + bins])
    }

    /// Debiased fraction of a single width-`k` pattern (base-`V` code).
    pub fn estimate_debiased_bin(&self, t: usize, code: usize) -> Result<f64, SynthError> {
        let hist = self.histogram_estimate(t)?;
        let n = self
            .true_n()
            .ok_or(SynthError::RoundNotReleased { round: t })?;
        Ok((hist[code] as f64 - self.npad as f64) / n as f64)
    }

    /// Debiased marginal fraction of category `c` at round `t` (sums the
    /// patterns whose newest digit is `c`).
    pub fn estimate_category_marginal(&self, t: usize, c: u8) -> Result<f64, SynthError> {
        let v = self.config.categories as usize;
        let hist = self.histogram_estimate(t)?;
        let n = self
            .true_n()
            .ok_or(SynthError::RoundNotReleased { round: t })? as f64;
        let mut total = 0.0;
        let mut bins = 0usize;
        for (code, &count) in hist.iter().enumerate() {
            if code % v == c as usize {
                total += count as f64;
                bins += 1;
            }
        }
        Ok((total - bins as f64 * self.npad as f64) / n)
    }

    /// The configuration this synthesizer runs under.
    pub fn config(&self) -> &CategoricalConfig {
        &self.config
    }

    /// True population size `n` (known after the first round).
    pub fn true_n(&self) -> Option<usize> {
        self.gate.n()
    }

    /// Number of synthetic records `n*`.
    pub fn n_star(&self) -> usize {
        self.released_values.first().map_or(0, Vec::len)
    }

    /// Resolved per-bin padding.
    pub fn npad(&self) -> u64 {
        self.npad
    }

    /// Clamp events over the run.
    pub fn clamps(&self) -> u64 {
        self.clamps
    }

    /// Synthetic record values at released (0-based) round `t`: one
    /// base-`V` category per record, indexed by record id. The first `k`
    /// rounds release together with the initial histogram.
    pub fn round_values(&self, t: usize) -> Result<&[u8], SynthError> {
        self.released_values
            .get(t)
            .map(Vec::as_slice)
            .ok_or(SynthError::RoundNotReleased { round: t })
    }

    /// The privacy ledger.
    pub fn ledger(&self) -> &SpendTracker {
        &self.ledger
    }
}

impl<R: Rng> ContinualSynthesizer for CategoricalSynthesizer<R> {
    type Input = CategoricalColumn;
    type Release = ();
    type Aggregate = HistogramAggregate;

    /// The round's exact `V^k`-bin window histogram
    /// ([`HistogramAggregate::Buffered`] while `t < k`).
    fn prepare(&mut self, column: &CategoricalColumn) -> Result<HistogramAggregate, SynthError> {
        if column.categories() != self.config.categories {
            return Err(SynthError::InvalidConfig(format!(
                "column has {} categories, config says {}",
                column.categories(),
                self.config.categories
            )));
        }
        let t = self.gate.prepare(column.len())?;
        // Roll the window codes forward in one O(n) pass: append the new
        // digit, dropping the oldest once the window is full (`code mod
        // V^(k−1)` strips the big-endian leading digit).
        let v = u32::from(self.config.categories);
        let overlaps = self.config.overlaps() as u32;
        if t == 1 {
            self.window_codes = column.iter().map(u32::from).collect();
        } else if t <= self.config.window {
            for (code, c) in self.window_codes.iter_mut().zip(column.iter()) {
                *code = *code * v + u32::from(c);
            }
        } else {
            for (code, c) in self.window_codes.iter_mut().zip(column.iter()) {
                *code = (*code % overlaps) * v + u32::from(c);
            }
        }

        let n = column.len();
        if t < self.config.window {
            return Ok(HistogramAggregate::Buffered { n });
        }
        let mut counts = vec![0i64; self.config.bins()];
        for &code in &self.window_codes {
            counts[code as usize] += 1;
        }
        Ok(HistogramAggregate::Counts { n, counts })
    }

    /// Ledger charge, padding and noise, then the first release (round
    /// `k`) or one consistent extension of the synthetic records.
    fn finalize(&mut self, aggregate: HistogramAggregate) -> Result<(), SynthError> {
        let t = self.gate.next_round()?;
        let k = self.config.window;
        aggregate.check_shape(t, k, self.config.bins())?;
        self.gate.finalize(aggregate.population())?;
        let counts = match aggregate {
            HistogramAggregate::Buffered { .. } => return Ok(()),
            HistogramAggregate::Counts { counts, .. } => counts,
        };
        let noisy = self.noisy_histogram(counts);
        if t == k {
            self.initialize(noisy);
        } else {
            self.extend(noisy);
        }
        if t == self.config.horizon {
            self.release_working_state();
        }
        Ok(())
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
    use longsynth_data::generators::categorical_markov;
    use longsynth_dp::rng::rng_from_seed;

    fn true_histogram(data: &longsynth_data::CategoricalDataset, t: usize, k: usize) -> Vec<i64> {
        let v = data.categories() as usize;
        let mut hist = vec![0i64; v.pow(k as u32)];
        for i in 0..data.individuals() {
            hist[data.suffix_pattern(i, t, k) as usize] += 1;
        }
        hist
    }

    #[test]
    fn config_validation_and_derived_sizes() {
        let rho = Rho::new(0.1).unwrap();
        let config = CategoricalConfig::new(8, 2, 3, rho).unwrap();
        assert_eq!(config.bins(), 9);
        assert_eq!(config.overlaps(), 3);
        assert_eq!(config.update_steps(), 7);
        assert!(config.npad() > 0);
        assert!(CategoricalConfig::new(8, 0, 3, rho).is_err());
        assert!(CategoricalConfig::new(8, 9, 3, rho).is_err());
        assert!(CategoricalConfig::new(8, 2, 1, rho).is_err());
        assert!(CategoricalConfig::new(30, 15, 4, rho).is_err()); // 4^15 bins
    }

    #[test]
    fn consistency_identity_holds() {
        // Σ_c p^t_{cz} = Σ_c p^{t+1}_{zc} for every overlap z.
        let mut rng = rng_from_seed(1);
        let data = categorical_markov(&mut rng, 400, 8, 3, 0.7);
        let config = CategoricalConfig::new(8, 2, 3, Rho::new(0.05).unwrap()).unwrap();
        let mut synth = CategoricalSynthesizer::new(config, rng_from_seed(2));
        for (_, col) in data.stream() {
            synth.step(col).unwrap();
        }
        let v = 3usize;
        for t in 2..8 {
            let prev = synth.histogram_estimate(t - 1).unwrap();
            let now = synth.histogram_estimate(t).unwrap();
            for z in 0..v {
                // "ends in z" at t−1: patterns cz = c·V + z.
                let ended: i64 = (0..v).map(|c| prev[c * v + z]).sum();
                // "starts with z" at t: patterns zc = z·V + c.
                let started: i64 = (0..v).map(|c| now[z * v + c]).sum();
                assert_eq!(ended, started, "t={t}, z={z}");
            }
            let total: i64 = now.iter().sum();
            assert_eq!(total, synth.n_star() as i64);
        }
    }

    #[test]
    fn records_match_bookkeeping() {
        let mut rng = rng_from_seed(3);
        let data = categorical_markov(&mut rng, 300, 6, 4, 0.6);
        let config = CategoricalConfig::new(6, 2, 4, Rho::new(0.1).unwrap()).unwrap();
        let mut synth = CategoricalSynthesizer::new(config, rng_from_seed(4));
        for (_, col) in data.stream() {
            synth.step(col).unwrap();
        }
        let v = 4usize;
        for t in 1..6 {
            let mut from_records = vec![0i64; 16];
            let prev = synth.round_values(t - 1).unwrap();
            let now = synth.round_values(t).unwrap();
            for (&p, &c) in prev.iter().zip(now.iter()) {
                from_records[p as usize * v + c as usize] += 1;
            }
            assert_eq!(
                from_records.as_slice(),
                synth.histogram_estimate(t).unwrap(),
                "t={t}"
            );
        }
    }

    #[test]
    fn estimates_track_truth_at_generous_budget() {
        let mut rng = rng_from_seed(5);
        let data = categorical_markov(&mut rng, 5_000, 6, 3, 0.8);
        let config = CategoricalConfig::new(6, 2, 3, Rho::new(1.0).unwrap()).unwrap();
        let mut synth = CategoricalSynthesizer::new(config, rng_from_seed(6));
        for (_, col) in data.stream() {
            synth.step(col).unwrap();
        }
        for t in [1usize, 3, 5] {
            let truth = true_histogram(&data, t, 2);
            for code in 0..9 {
                let est = synth.estimate_debiased_bin(t, code).unwrap();
                let tru = truth[code] as f64 / 5_000.0;
                assert!(
                    (est - tru).abs() < 0.02,
                    "t={t}, code={code}: {est} vs {tru}"
                );
            }
            // Marginals sum to ~1 after debiasing.
            let marginal_sum: f64 = (0..3)
                .map(|c| synth.estimate_category_marginal(t, c).unwrap())
                .sum();
            assert!((marginal_sum - 1.0).abs() < 0.02, "t={t}: {marginal_sum}");
        }
        assert!(synth.ledger().exhausted());
    }

    #[test]
    fn empty_group_absorbs_all_zero_targets_without_stalling() {
        // Regression for the feasibility-absorption edge the historical
        // code exited via a silent `break`: an overlap group with **zero
        // members** whose raw targets mix negative and positive entries.
        // Clamping leaves deficit 2 over targets [0, 1, 1]; absorption
        // must drain the deficit down to all-zero targets and terminate
        // (the every-profile invariant asserts each absorption step makes
        // progress).
        let config = CategoricalConfig::noiseless(3, 2, 3, Rho::new(1.0).unwrap())
            .unwrap()
            .with_npad(0);
        let mut synth = CategoricalSynthesizer::new(config, rng_from_seed(9));
        let n = 6usize;
        // Round 1 buffers (t < k).
        synth.finalize(HistogramAggregate::Buffered { n }).unwrap();
        // Round 2 initializes. No mass on codes ≡ 0 (mod 3), so overlap
        // group z = 0 starts empty; groups 1 and 2 hold 4 and 2 records.
        let mut init = vec![0i64; 9];
        init[1] = 2;
        init[2] = 1;
        init[4] = 1;
        init[5] = 1;
        init[7] = 1;
        synth
            .finalize(HistogramAggregate::Counts { n, counts: init })
            .unwrap();
        assert_eq!(synth.n_star(), 6);
        // Round 3: group 0's raw targets [-2, 1, 1] sum to its size (0),
        // clamp to [0, 1, 1] with deficit 2, and absorb to [0, 0, 0].
        // Groups 1 and 2 release exactly their sizes, unclamped.
        let mut counts = vec![0i64; 9];
        counts[0] = -2;
        counts[1] = 1;
        counts[2] = 1;
        counts[3] = 2;
        counts[4] = 1;
        counts[5] = 1;
        counts[6] = 1;
        counts[7] = 1;
        synth
            .finalize(HistogramAggregate::Counts { n, counts })
            .unwrap();
        assert_eq!(synth.clamps(), 1);
        let hist = synth.histogram_estimate(2).unwrap();
        assert_eq!(hist, &[0, 0, 0, 2, 1, 1, 1, 1, 0]);
        assert_eq!(hist.iter().sum::<i64>(), synth.n_star() as i64);
    }

    #[test]
    fn binary_case_agrees_with_specialised_synthesizer_statistically() {
        // V = 2 must behave like Algorithm 1: check the debiased estimates
        // land near truth with the same magnitude of noise.
        let mut rng = rng_from_seed(7);
        let data = categorical_markov(&mut rng, 2_000, 8, 2, 0.7);
        let config = CategoricalConfig::new(8, 3, 2, Rho::new(0.5).unwrap()).unwrap();
        let mut synth = CategoricalSynthesizer::new(config, rng_from_seed(8));
        for (_, col) in data.stream() {
            synth.step(col).unwrap();
        }
        let truth = true_histogram(&data, 7, 3);
        for code in 0..8 {
            let est = synth.estimate_debiased_bin(7, code).unwrap();
            let tru = truth[code] as f64 / 2_000.0;
            assert!((est - tru).abs() < 0.05, "code={code}: {est} vs {tru}");
        }
    }

    /// Everything a post-run reader sees for rounds `0..rounds`: the
    /// synthetic values, the released targets, every estimator, and the
    /// population sizes.
    fn post_run_view(synth: &CategoricalSynthesizer, rounds: usize) -> String {
        let v = synth.config().categories;
        let mut view = format!(
            "n*={} n={:?} npad={}\n",
            synth.n_star(),
            synth.true_n(),
            synth.npad()
        );
        for t in 0..rounds {
            view += &format!(
                "t={t} values {:?} targets {:?}",
                synth.round_values(t),
                synth.histogram_estimate(t)
            );
            for code in 0..synth.config().bins() {
                view += &format!(" b{code}={:?}", synth.estimate_debiased_bin(t, code));
            }
            for c in 0..v {
                view += &format!(" m{c}={:?}", synth.estimate_category_marginal(t, c));
            }
            view += "\n";
        }
        view
    }

    /// The working state the horizon drops is gone.
    fn assert_working_state_dropped(synth: &CategoricalSynthesizer) {
        assert_eq!(synth.window_codes.capacity(), 0, "window codes kept");
        assert_eq!(synth.groups.heap_bytes(), 0, "overlap classes kept");
        assert_eq!(synth.plan_counts.capacity(), 0, "plan scratch kept");
        assert_eq!(synth.chosen.capacity(), 0, "category scratch kept");
    }

    #[test]
    fn sealed_synthesizer_drops_its_working_state_and_keeps_its_release() {
        let horizon = 6;
        let data = categorical_markov(&mut rng_from_seed(37), 300, horizon, 3, 0.7);
        let config = CategoricalConfig::new(horizon, 2, 3, Rho::new(0.5).unwrap()).unwrap();
        let mut synth = CategoricalSynthesizer::new(config, rng_from_seed(38));
        let columns: Vec<_> = data.stream().map(|(_, col)| col.clone()).collect();
        for col in &columns[..horizon - 1] {
            synth.step(col).unwrap();
        }
        assert!(synth.groups.heap_bytes() > 0 && synth.window_codes.capacity() > 0);
        let before = post_run_view(&synth, horizon - 1);

        synth.step(&columns[horizon - 1]).unwrap();
        assert!(synth.is_sealed());
        assert_working_state_dropped(&synth);
        assert_eq!(post_run_view(&synth, horizon - 1), before);
        // The last round's records carry its released targets.
        let mut from_records = vec![0i64; 9];
        let prev = synth.round_values(horizon - 2).unwrap();
        let now = synth.round_values(horizon - 1).unwrap();
        for (&p, &c) in prev.iter().zip(now) {
            from_records[p as usize * 3 + c as usize] += 1;
        }
        assert_eq!(
            synth.histogram_estimate(horizon - 1).unwrap(),
            from_records.as_slice()
        );
        assert!(synth.ledger().exhausted());

        // Further rounds are refused without touching anything.
        let view = post_run_view(&synth, horizon);
        assert!(matches!(
            synth.prepare(&columns[0]),
            Err(SynthError::HorizonExceeded { horizon: 6 })
        ));
        assert!(matches!(
            synth.step(&columns[0]),
            Err(SynthError::HorizonExceeded { horizon: 6 })
        ));
        assert!(matches!(
            synth.finalize(HistogramAggregate::Counts {
                n: 300,
                counts: vec![0; 9],
            }),
            Err(SynthError::HorizonExceeded { horizon: 6 })
        ));
        assert_eq!(post_run_view(&synth, horizon), view);
        assert_working_state_dropped(&synth);
    }

    #[test]
    fn rejects_mismatched_columns() {
        let config = CategoricalConfig::new(4, 2, 3, Rho::new(0.1).unwrap()).unwrap();
        let mut synth = CategoricalSynthesizer::new(config, rng_from_seed(9));
        let col = CategoricalColumn::new(vec![0, 1, 2], 3).unwrap();
        synth.step(&col).unwrap();
        let wrong_v = CategoricalColumn::new(vec![0, 1, 1], 2).unwrap();
        assert!(synth.step(&wrong_v).is_err());
        let wrong_n = CategoricalColumn::new(vec![0, 1], 3).unwrap();
        assert!(matches!(
            synth.step(&wrong_n),
            Err(SynthError::ColumnSizeMismatch { .. })
        ));
    }
}
