//! **Algorithm 2**: private synthetic data preserving cumulative time
//! queries (paper §4).
//!
//! For every Hamming-weight threshold `b = 1..=T` a dedicated stream
//! counter `M_b` tracks `S_b^t = #{i : weight ≥ b by round t}` via the
//! increment stream `z_b^t = #{i : weight was b−1 and x_i^t = 1}` — each
//! individual contributes to `M_b` at most once, so neighbouring datasets
//! induce neighbouring streams and the composition of the `T` counters is
//! ρ-zCDP (Theorem 4.1).
//!
//! The raw counter outputs `S̃_b^t` are **monotonized** across both time and
//! thresholds: `Ŝ_b^t = min(max(S̃_b^t, Ŝ_b^{t−1}), Ŝ_{b−1}^{t−1})`. The
//! lower clamp says weights never decrease; the upper clamp says a weight-`b`
//! history at `t` had weight ≥ b−1 at `t−1`. Lemma 4.2 shows the clamps
//! never increase the worst-case error. Feasibility of the synthetic
//! update is then automatic: exactly `ẑ_b^t = Ŝ_b^t − Ŝ_b^{t−1} ≥ 0`
//! records of current weight `b−1` get a 1-bit, and
//! `Ŝ_{b−1}^{t−1} − Ŝ_b^{t−1} ≥ ẑ_b^t` records are available.
//!
//! The synthetic population has exactly `m = n` records (as printed in
//! Algorithm 2), initialized all-zero. Each round's promoted ids are set
//! straight into a packed column, which is both the release and the
//! synthetic population's new column.
//!
//! The raw panel, the weight classes and the planning scratch serve only
//! the next round, so the `finalize` that completes the horizon drops
//! them. A sealed synthesizer keeps its synthetic population, its
//! estimates, its counters (for [`error_bound_counts`](CumulativeSynthesizer::error_bound_counts)),
//! the windowed mode's exact counts (for
//! [`forget_cohort`](ContinualSynthesizer::forget_cohort)) and its ledger.

// Threshold loops index by `b` to mirror the paper's S_b / z_b notation.
#![allow(clippy::needless_range_loop)]

use crate::aggregate::CumulativeAggregate;
use crate::arena::GroupArena;
use crate::error::SynthError;
use crate::gate::RoundGate;
use crate::traits::ContinualSynthesizer;
use crate::SyntheticDataset;
use longsynth_counters::{CounterKind, StreamCounter};
use longsynth_data::BitColumn;
use longsynth_data::LongitudinalDataset;
use longsynth_dp::budget::{Rho, SpendTracker};
use longsynth_dp::fastrange::RangePool;
use longsynth_dp::rng::RngFork;
use longsynth_queries::cumulative::threshold_increment;
use rand::Rng;

/// How the total budget is divided across the `T` per-threshold counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetSplit {
    /// Equal shares `ρ/T`.
    Uniform,
    /// The paper's Corollary B.1 weights
    /// `ρ_b ∝ max(⌈log₂(T−b+1)⌉, 1)³`, equalizing worst-case counter
    /// errors (the default).
    CorollaryB1,
}

/// Configuration of a [`CumulativeSynthesizer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CumulativeConfig {
    /// Time horizon `T`.
    pub horizon: usize,
    /// Total zCDP budget ρ.
    pub rho: Rho,
    /// Stream counter family for the `M_b` (default: the paper's tree).
    pub counter: CounterKind,
    /// Budget split across thresholds (default: Corollary B.1).
    pub split: BudgetSplit,
    /// **Windowed release mode** (`None` = the paper's persistent
    /// pipeline). `Some(W)` bounds every individual's membership window
    /// to `W` rounds (a rotating panel's wave length): the synthesizer
    /// then tracks only thresholds `1..=W`, maintains *exact* active-set
    /// counts internally, supports [`forget_cohort`](ContinualSynthesizer::forget_cohort)
    /// (retiring cohorts subtract **before** noise), and privatizes each
    /// round's counts with fresh discrete-Gaussian draws at per-coordinate
    /// budget `2ρ/(W(W+1))`: an individual at local round `r` can have
    /// crossed at most `r` thresholds, so over their ≤ `W`-round window
    /// they influence at most `1+2+…+W = W(W+1)/2` released coordinates
    /// (each by ≤ 1), composing to a lifetime cost of exactly `ρ`. The
    /// ledger reports a uniform `ρ/W` per round — a conservative monotone
    /// display whose prefix is always ≥ the exact per-individual cost and
    /// equals `ρ` from round `W` on. This is the windowed population
    /// synthesizer's engine-side configuration; see `longsynth-engine`'s
    /// `window` module.
    pub window: Option<usize>,
}

impl CumulativeConfig {
    /// Validated constructor.
    pub fn new(horizon: usize, rho: Rho) -> Result<Self, SynthError> {
        if horizon == 0 {
            return Err(SynthError::InvalidConfig("horizon must be positive".into()));
        }
        if rho.value() <= 0.0 {
            return Err(SynthError::InvalidConfig(format!(
                "rho must be positive, got {}",
                rho.value()
            )));
        }
        Ok(Self {
            horizon,
            rho,
            counter: CounterKind::Tree,
            split: BudgetSplit::CorollaryB1,
            window: None,
        })
    }

    /// Enable windowed release mode with membership windows of at most
    /// `window` rounds (see the [`window`](Self::window) field docs).
    /// Requires `1 ≤ window ≤ horizon`.
    ///
    /// Windowed mode builds **no stream counters** — each round is a
    /// fresh release — so the [`counter`](Self::counter) and
    /// [`split`](Self::split) knobs apply to the persistent pipeline
    /// only and have no effect here.
    pub fn with_window(mut self, window: usize) -> Result<Self, SynthError> {
        if window == 0 || window > self.horizon {
            return Err(SynthError::InvalidConfig(format!(
                "window bound must be in 1..={}, got {window}",
                self.horizon
            )));
        }
        self.window = Some(window);
        Ok(self)
    }

    /// Use a different counter family (the §1.1 "swap the counter" knob).
    #[must_use]
    pub fn with_counter(mut self, counter: CounterKind) -> Self {
        self.counter = counter;
        self
    }

    /// Use a different budget split.
    #[must_use]
    pub fn with_split(mut self, split: BudgetSplit) -> Self {
        self.split = split;
        self
    }

    fn resolve_split(&self) -> Vec<Rho> {
        match self.split {
            BudgetSplit::Uniform => self
                .rho
                .split_uniform(self.horizon)
                .expect("horizon validated positive"),
            BudgetSplit::CorollaryB1 => self
                .rho
                .split_corollary_b1(self.horizon)
                .expect("horizon validated positive"),
        }
    }
}

/// The Algorithm 2 synthesizer. See module docs.
///
/// ```
/// use longsynth::{ContinualSynthesizer, CumulativeConfig, CumulativeSynthesizer};
/// use longsynth_data::generators::iid_bernoulli;
/// use longsynth_dp::{budget::Rho, rng::{rng_from_seed, RngFork}};
///
/// let panel = iid_bernoulli(&mut rng_from_seed(1), 2_000, 12, 0.3);
/// let config = CumulativeConfig::new(12, Rho::new(0.5).unwrap()).unwrap();
/// let mut synth = CumulativeSynthesizer::new(config, RngFork::new(2), rng_from_seed(3));
/// for (_, column) in panel.stream() {
///     synth.step(column).unwrap();
/// }
/// // Fraction with at least 4 ones by the final round, ±noise.
/// let est = synth.estimate_fraction(11, 4).unwrap();
/// assert!((0.0..=1.0).contains(&est));
/// ```
pub struct CumulativeSynthesizer<R: Rng = longsynth_dp::rng::StdDpRng> {
    config: CumulativeConfig,
    /// `counters[b-1]` is `M_b`, with horizon `T − b + 1` (it only sees
    /// rounds `t ≥ b`, the earliest a weight-`b` history can exist).
    counters: Vec<Box<dyn StreamCounter>>,
    per_counter_rho: Vec<Rho>,
    ledger: SpendTracker,
    gate: RoundGate,
    /// Previous round's monotone estimates `Ŝ_b^{t−1}` for `b = 0..=T`
    /// (dropped at the horizon, like the other working state below).
    s_prev: Vec<i64>,
    /// Windowed-mode state ([`CumulativeConfig::with_window`]): the
    /// **exact** active-set counts `S_b = #{active individuals with ≥ b
    /// ones inside their membership window}` for `b = 0..=W`, maintained
    /// by adding each round's summed increments and subtracting retired
    /// cohorts' exact lifetime totals
    /// ([`forget_cohort`](ContinualSynthesizer::forget_cohort)). Raw pre-noise
    /// bookkeeping — privatized only at release, which is what makes the
    /// exact subtraction sound (a retired individual's terms cancel
    /// before any noise is drawn). Empty in persistent mode.
    exact_s: Vec<i64>,
    /// Windowed-mode per-round ledger charges: `ρ/W` each, charged for
    /// the first `W` rounds. The mechanism's exact per-individual cost is
    /// triangular (per-coordinate `2ρ/(W(W+1))`, at most `min(t, W)`
    /// coordinates per round), which this uniform display dominates at
    /// every prefix and matches exactly at round `W` — both reach `ρ`,
    /// the lifetime cost of any ≤ `W`-round membership window.
    per_round_rho: Vec<Rho>,
    /// Windowed-mode per-threshold noise streams (one independent
    /// discrete-Gaussian stream per `b = 1..=W`).
    window_noise: Vec<longsynth_dp::rng::StdDpRng>,
    /// Windowed-mode cached noise sampler at the per-coordinate variance
    /// `σ²` for budget `2ρ/(W(W+1))` — at local round `r` an individual
    /// can have crossed at most `r` thresholds, so over their ≤ W-round
    /// window they influence at most `1+2+…+W = W(W+1)/2` released
    /// coordinates, each by ≤ 1, composing to ρ total. The variance only
    /// depends on the configuration, so the sampler is built once here
    /// instead of per release. `None` in persistent mode.
    window_sampler: Option<longsynth_dp::DiscreteGaussianSampler>,
    /// Estimate history: `s_history[t][b] = Ŝ_b` at 0-based round `t`.
    s_history: Vec<Vec<i64>>,
    synthetic: SyntheticDataset,
    /// Record ids grouped by current Hamming weight, stored flat in a
    /// double-buffered arena (weight `w` = arena group `w`); each round's
    /// promotion bookkeeping is planned segment moves, not per-group
    /// reallocation.
    weight_groups: GroupArena,
    /// Reusable successor-size scratch for [`GroupArena::plan`].
    plan_counts: Vec<usize>,
    /// True data consumed so far (needed to compute increments `z_b^t`).
    observed: LongitudinalDataset,
    rng: R,
}

impl<R: Rng> CumulativeSynthesizer<R> {
    /// Create a synthesizer. `counter_seeds` derives one independent noise
    /// stream per threshold counter; `rng` drives record selection.
    pub fn new(config: CumulativeConfig, counter_seeds: RngFork, rng: R) -> Self {
        let window_sampler = config.window.map(|window| {
            let coords = (window * (window + 1) / 2) as f64;
            let rho_coord = Rho::new(config.rho.value() / coords).expect("positive share");
            let sigma2 = rho_coord
                .gaussian_sigma2(1.0)
                .expect("unit sensitivity is valid");
            longsynth_dp::DiscreteGaussianSampler::new(sigma2)
        });
        let (per_counter_rho, counters, exact_s, per_round_rho, window_noise) = match config.window
        {
            // Persistent mode: the paper's per-threshold stream counters.
            None => {
                let per_counter_rho = config.resolve_split();
                let counters = per_counter_rho
                    .iter()
                    .enumerate()
                    .map(|(idx, &rho_b)| {
                        let b = idx + 1;
                        let horizon_b = config.horizon - b + 1;
                        config
                            .counter
                            .build(horizon_b, rho_b, counter_seeds.child(b as u64))
                    })
                    .collect();
                (
                    per_counter_rho,
                    counters,
                    Vec::new(),
                    Vec::new(),
                    Vec::new(),
                )
            }
            // Windowed mode: no stream counters — exact active-set counts
            // privatized per round with fresh draws.
            Some(window) => {
                let per_round_rho = config
                    .rho
                    .split_uniform(window)
                    .expect("window validated positive");
                let window_noise = (1..=window)
                    .map(|b| counter_seeds.child(b as u64))
                    .collect();
                (
                    Vec::new(),
                    Vec::new(),
                    vec![0i64; window + 1],
                    per_round_rho,
                    window_noise,
                )
            }
        };
        Self {
            counters,
            per_counter_rho,
            ledger: SpendTracker::new(config.rho),
            gate: RoundGate::new(config.horizon),
            s_prev: Vec::new(),
            exact_s,
            per_round_rho,
            window_noise,
            window_sampler,
            s_history: Vec::new(),
            synthetic: SyntheticDataset::empty(0),
            weight_groups: GroupArena::new(),
            plan_counts: Vec::new(),
            observed: LongitudinalDataset::empty(0),
            rng,
            config,
        }
    }

    /// Persistent-mode phase 2 of round `t`: feed the increments through
    /// the noisy stream counters (charging the ledger), monotonize, and
    /// promote synthetic records.
    fn finalize_persistent(
        &mut self,
        t: usize,
        n: usize,
        aggregate: CumulativeAggregate,
    ) -> BitColumn {
        // Phase 1 per threshold: counter update and monotonization.
        let mut s_now = self.s_prev.clone();
        let mut promotions = vec![0usize; t + 1]; // promotions[b] = ẑ_b^t
        for b in 1..=t {
            let raw = self.counters[b - 1].feed(aggregate.increments[b - 1]);
            if self.counters[b - 1].steps() == 1 {
                // First activation of M_b: charge its share once.
                self.ledger
                    .charge(self.per_counter_rho[b - 1])
                    .expect("per-counter charges sum to the configured budget");
            }
            // Ŝ_b^t = min(max(S̃, Ŝ_b^{t−1}), Ŝ_{b−1}^{t−1}).
            let clamped = raw.max(self.s_prev[b]).min(self.s_prev[b - 1]);
            s_now[b] = clamped;
            promotions[b] = (clamped - self.s_prev[b]) as usize;
        }

        // Phase 2: promote ẑ_b^t randomly chosen records of weight b−1.
        // Selections read the previous round's weight groups (disjoint
        // across b), then all segment moves apply together through the
        // arena's planned successor layout.
        let mut round = BitColumn::zeros(n);
        let mut pool = RangePool::new();
        for b in 1..=t {
            let want = promotions[b];
            if want == 0 {
                continue;
            }
            let group = self.weight_groups.group_mut(b - 1);
            // Every-profile invariant (the PR 5 hardening policy): the
            // monotone clamp Ŝ_b ≤ Ŝ_{b−1} caps promotions at the source
            // class size. A violation would silently corrupt the weight
            // bookkeeping in release builds, so it fails loudly in every
            // profile, not just under debug assertions.
            assert!(
                want <= group.len(),
                "promotion availability invariant violated at round {t}, threshold b={b}: \
                 {want} promotions requested from a weight-{} class of {} records \
                 (the upper clamp must cap promotions at the class size)",
                b - 1,
                group.len()
            );
            // Fisher–Yates prefix: the first `want` entries get promoted.
            pool.partial_shuffle(&mut self.rng, group, want);
            for &id in group.iter().take(want) {
                round.set(id as usize, true);
            }
        }
        // Weight t becomes reachable this round: final class g keeps its
        // own non-promoted suffix and gains the promoted prefix of class
        // g−1, so every successor size is known before any id moves.
        self.plan_counts.clear();
        self.plan_counts.resize(t + 1, 0);
        for g in 0..=t {
            let keep = if g < t {
                self.weight_groups.group(g).len() - promotions[g + 1]
            } else {
                0
            };
            let gain = if g >= 1 { promotions[g] } else { 0 };
            self.plan_counts[g] = keep + gain;
        }
        self.weight_groups.plan(self.plan_counts.iter().copied());
        for g in 0..=t {
            if g < t {
                let span = self.weight_groups.group_span(g);
                self.weight_groups
                    .carry(g, span.start + promotions[g + 1]..span.end);
            }
            if g >= 1 {
                let src = self.weight_groups.group_span(g - 1);
                self.weight_groups
                    .carry(g, src.start..src.start + promotions[g]);
            }
        }
        self.weight_groups.commit();
        self.s_history.push(s_now.clone());
        self.s_prev = s_now;
        self.append_round(round)
    }

    // ------------------------------------------------------------------
    // Accessors and estimation
    // ------------------------------------------------------------------

    /// The configuration this synthesizer runs under.
    pub fn config(&self) -> &CumulativeConfig {
        &self.config
    }

    /// True population size `n` (known after the first round).
    pub fn true_n(&self) -> Option<usize> {
        self.gate.n()
    }

    /// The persistent synthetic population (`m = n` records).
    pub fn synthetic(&self) -> &SyntheticDataset {
        &self.synthetic
    }

    /// The privacy ledger (fully spent once every counter has activated,
    /// i.e. after `T` rounds).
    pub fn ledger(&self) -> &SpendTracker {
        &self.ledger
    }

    /// The monotone threshold estimates `Ŝ_b` at 0-based round `t`,
    /// indexed by `b = 0..=T`.
    pub fn threshold_estimates(&self, t: usize) -> Result<&[i64], SynthError> {
        self.s_history
            .get(t)
            .map(Vec::as_slice)
            .ok_or(SynthError::RoundNotReleased { round: t })
    }

    /// The paper's estimate of `c_b^t`: the fraction of individuals with at
    /// least `b` ones through round `t` (0-based).
    pub fn estimate_fraction(&self, t: usize, b: usize) -> Result<f64, SynthError> {
        let row = self.threshold_estimates(t)?;
        let n = self
            .true_n()
            .ok_or(SynthError::RoundNotReleased { round: t })?;
        let count = row.get(b).copied().unwrap_or(0);
        Ok(count as f64 / n as f64)
    }

    /// Time-window derivative of the cumulative releases (§1.1's
    /// `CountOcc`-style queries): the fraction of individuals who *crossed*
    /// threshold `b` during the round interval `(t1, t2]`, estimated as
    /// `(Ŝ_b^{t2} − Ŝ_b^{t1})/n`. Pure post-processing of already-released
    /// statistics — no extra privacy cost — and non-negative by the
    /// monotonization.
    pub fn estimate_crossings(&self, t1: usize, t2: usize, b: usize) -> Result<f64, SynthError> {
        if self.config.window.is_some() {
            return Err(SynthError::InvalidConfig(
                "crossings estimates need the persistent pipeline: windowed-mode \
                 releases are not monotone across membership boundaries"
                    .to_string(),
            ));
        }
        if t1 >= t2 {
            return Err(SynthError::InvalidConfig(format!(
                "crossings need t1 < t2, got {t1} >= {t2}"
            )));
        }
        let early = self.threshold_estimates(t1)?;
        let late = self.threshold_estimates(t2)?;
        let n = self
            .true_n()
            .ok_or(SynthError::RoundNotReleased { round: t2 })?;
        let diff = late.get(b).copied().unwrap_or(0) - early.get(b).copied().unwrap_or(0);
        debug_assert!(diff >= 0, "monotonization guarantees non-negativity");
        Ok(diff as f64 / n as f64)
    }

    // ------------------------------------------------------------------
    // Windowed release mode (cohort retirement under rotating panels)
    // ------------------------------------------------------------------

    /// Windowed-mode phase 2 of round `t`: fold the round's summed
    /// active-set increments into the exact counts, privatize thresholds
    /// `1..=W` with fresh discrete-Gaussian draws (budget `ρ/W` for each of
    /// the first `W` rounds — the per-individual lifetime cost is `ρ`),
    /// chain the noisy counts into a monotone-in-`b` feasible target, and
    /// reconcile the synthetic population (promotions, plus resets to
    /// weight 0 standing in for panel replacement).
    fn finalize_windowed(
        &mut self,
        t: usize,
        n: usize,
        window: usize,
        aggregate: CumulativeAggregate,
    ) -> BitColumn {
        // Exact bookkeeping, then one fresh draw per tracked threshold.
        for b in 1..=window.min(t) {
            self.exact_s[b] += aggregate.increments[b - 1] as i64;
        }
        if t <= window {
            self.ledger
                .charge(self.per_round_rho[t - 1])
                .expect("per-round charges sum to the configured budget");
        }
        // Per-coordinate noise at `σ²` for budget 2ρ/(W(W+1)); the sampler
        // (and the budget argument for its variance) is fixed at
        // construction — see [`Self::new`].
        let sampler = self
            .window_sampler
            .expect("windowed finalize implies a window sampler");
        let mut targets = vec![0i64; window + 1];
        targets[0] = n as i64;
        for b in 1..=window {
            let noisy = if b <= t {
                self.exact_s[b] + sampler.sample(&mut self.window_noise[b - 1])
            } else {
                0
            };
            // Chain clamp: 0 ≤ Ŝ_W ≤ … ≤ Ŝ_1 ≤ n (post-processing with
            // public constants only).
            targets[b] = noisy.clamp(0, targets[b - 1]);
        }

        // Reconcile the synthetic population to the released targets.
        // Allowed per-round moves per record: keep its weight, gain one
        // (this round's released 1-bit), or reset to weight 0 (a rotated-
        // out record standing in for a fresh entrant). Descending greedy:
        // fill each final weight class from records staying at that
        // weight, then promotions from one below; infeasible remainders
        // shrink the released target (feasibility is part of the release).
        let mut avail: Vec<usize> = (0..=window)
            .map(|w| self.weight_groups.group(w).len())
            .collect();
        let mut stays = vec![0usize; window + 1];
        let mut promotes = vec![0usize; window + 1];
        let mut realized = vec![0i64; window + 2];
        for b in (1..=window).rev() {
            let want = targets[b].max(realized[b + 1]);
            let need = (want - realized[b + 1]) as usize;
            let stay = need.min(avail[b]);
            avail[b] -= stay;
            let promote = (need - stay).min(avail[b - 1]);
            avail[b - 1] -= promote;
            stays[b] = stay;
            promotes[b] = promote;
            realized[b] = realized[b + 1] + (stay + promote) as i64;
        }
        // Apply the plan per source class: random members promote into
        // `w+1`, random members stay at `w`, the rest reset to weight 0.
        // Phase A shuffles each class prefix (highest weight first, the
        // pinned RNG order); phase B moves whole segments through the
        // arena's planned successor layout.
        let mut round = BitColumn::zeros(n);
        let mut pool = RangePool::new();
        for w in (0..=window).rev() {
            let promote = if w < window { promotes[w + 1] } else { 0 };
            let stay = if w >= 1 { stays[w] } else { 0 };
            let group = self.weight_groups.group_mut(w);
            debug_assert!(promote + stay <= group.len(), "plan fits the class");
            pool.partial_shuffle(&mut self.rng, group, promote + stay);
            for &id in group.iter().take(promote) {
                round.set(id as usize, true);
            }
        }
        // Final class g ≥ 1 keeps its stayers and gains the promoted
        // prefix of class g−1; class 0 collects every leftover (rotated
        // out to weight 0, standing in for the replacement entrants —
        // weight-0 leftovers simply remain there).
        self.plan_counts.clear();
        self.plan_counts.resize(window + 1, 0);
        for g in 1..=window {
            self.plan_counts[g] = stays[g] + promotes[g];
        }
        self.plan_counts[0] = n - self.plan_counts[1..].iter().sum::<usize>();
        self.weight_groups.plan(self.plan_counts.iter().copied());
        for w in (0..=window).rev() {
            let span = self.weight_groups.group_span(w);
            let promote = if w < window { promotes[w + 1] } else { 0 };
            let stay = if w >= 1 { stays[w] } else { 0 };
            if promote > 0 {
                self.weight_groups
                    .carry(w + 1, span.start..span.start + promote);
            }
            self.weight_groups
                .carry(w, span.start + promote..span.start + promote + stay);
            self.weight_groups
                .carry(0, span.start + promote + stay..span.end);
        }
        self.weight_groups.commit();
        let mut row = vec![0i64; window + 1];
        row[0] = n as i64;
        row[1..=window].copy_from_slice(&realized[1..=window]);
        self.s_history.push(row.clone());
        self.s_prev = row;
        self.append_round(round)
    }

    /// Append the round's packed column to the synthetic population and
    /// return it as the release.
    fn append_round(&mut self, column: BitColumn) -> BitColumn {
        self.synthetic
            .push_column(column.clone())
            .expect("the round covers every synthetic record");
        column
    }

    /// Drop the state only a further round would read, once the horizon
    /// is complete: the raw panel, the weight classes, their planning
    /// scratch and the previous round's estimates.
    fn release_working_state(&mut self) {
        self.observed = LongitudinalDataset::empty(0);
        self.weight_groups = GroupArena::new();
        self.plan_counts = Vec::new();
        self.s_prev = Vec::new();
    }

    /// A-priori worst-case error bound (in counts) across all thresholds
    /// and rounds, at failure probability β per counter — Theorem 4.4's
    /// `α* · n` with `β* = Σ_b β`.
    pub fn error_bound_counts(&self, beta: f64) -> f64 {
        self.counters
            .iter()
            .map(|c| c.error_bound(beta))
            .fold(0.0, f64::max)
    }
}

impl<R: Rng> ContinualSynthesizer for CumulativeSynthesizer<R> {
    type Input = BitColumn;
    type Release = BitColumn;
    type Aggregate = CumulativeAggregate;

    /// The round's exact threshold increments `z_b^t` for `b = 1..=t` —
    /// what the stream counters would be fed, before any counter noise.
    fn prepare(&mut self, column: &BitColumn) -> Result<CumulativeAggregate, SynthError> {
        let t = self.gate.prepare(column.len())?;
        if t == 1 {
            self.observed = LongitudinalDataset::empty(column.len());
        }
        self.observed
            .push_column(column.clone())
            .expect("the gate pinned the column length");
        let increments = (1..=t)
            .map(|b| threshold_increment(&self.observed, t - 1, b))
            .collect();
        Ok(CumulativeAggregate {
            n: column.len(),
            increments,
        })
    }

    /// Privatizes the increments through the persistent pipeline's noisy
    /// stream counters or, in windowed mode, as fresh draws on the exact
    /// active-set counts; returns the released synthetic column.
    fn finalize(&mut self, aggregate: CumulativeAggregate) -> Result<BitColumn, SynthError> {
        let t = self.gate.next_round()?;
        // Shape checks before any state changes: global-clock increments
        // and, in windowed mode, no mass above the window bound — an
        // individual active for at most `W` rounds cannot cross a higher
        // threshold.
        if aggregate.increments.len() != t {
            return Err(SynthError::OutOfPhase(format!(
                "aggregate carries {} increments, round {t} needs exactly {t}",
                aggregate.increments.len()
            )));
        }
        if let Some(window) = self.config.window {
            if let Some(&bad) = aggregate.increments.iter().skip(window).find(|&&z| z != 0) {
                return Err(SynthError::OutOfPhase(format!(
                    "increment {bad} above threshold {window} violates the window bound \
                     (no individual is active for more than {window} rounds)"
                )));
            }
        }
        self.gate.finalize(aggregate.n)?;
        let n = aggregate.n;
        if t == 1 {
            // All records start at weight 0; Ŝ_0 ≡ n, Ŝ_b = 0 for b ≥ 1.
            let tracked = self.config.window.unwrap_or(self.config.horizon);
            self.synthetic = SyntheticDataset::empty(n);
            self.weight_groups.clear();
            self.weight_groups
                .plan(std::iter::once(n).chain(std::iter::repeat_n(0, tracked)));
            for id in 0..n as u32 {
                self.weight_groups.push(0, id);
            }
            self.weight_groups.commit();
            self.s_prev = vec![0i64; tracked + 1];
            self.s_prev[0] = n as i64;
        }
        let release = match self.config.window {
            None => self.finalize_persistent(t, n, aggregate),
            Some(window) => self.finalize_windowed(t, n, window, aggregate),
        };
        if t == self.config.horizon {
            self.release_working_state();
        }
        Ok(release)
    }

    fn cohort_retirement_window(&self) -> Option<usize> {
        self.config.window
    }

    /// Windowed mode only: subtracts the cohort's **exact** lifetime view
    /// from the active-set counts. `view.increments[b-1]` is the cohort's
    /// total count of members with ≥ `b` ones over its membership window.
    /// The subtraction happens before any noise is drawn, so a retired
    /// individual's terms cancel exactly — which is why the per-round
    /// budget composes to `ρ` over any ≤ `W`-round membership window.
    fn forget_cohort(&mut self, view: CumulativeAggregate) -> Result<(), SynthError> {
        let Some(window) = self.config.window else {
            return Err(SynthError::InvalidConfig(
                "forget_cohort needs windowed release mode (CumulativeConfig::with_window); \
                 the persistent pipeline cannot soundly forget a cohort after noising"
                    .to_string(),
            ));
        };
        self.gate.ensure_idle("forget_cohort")?;
        if view.increments.len() > window {
            return Err(SynthError::OutOfPhase(format!(
                "retirement view spans {} thresholds but the window bound is {window}",
                view.increments.len()
            )));
        }
        if let Some(n) = self.gate.n() {
            if view.n > n {
                return Err(SynthError::ColumnSizeMismatch {
                    expected: n,
                    actual: view.n,
                });
            }
        }
        // Validate before mutating: the view must fit inside the exact
        // counts (it is a true sub-sum of them), so a rejected forget
        // leaves the state untouched.
        for (b, &count) in view.increments.iter().enumerate() {
            if (count as i64) > self.exact_s[b + 1] {
                return Err(SynthError::OutOfPhase(format!(
                    "retirement view count {count} at threshold {} exceeds the window's \
                     exact count {} (the view must be the cohort's true lifetime sum)",
                    b + 1,
                    self.exact_s[b + 1]
                )));
            }
        }
        for (b, &count) in view.increments.iter().enumerate() {
            self.exact_s[b + 1] -= count as i64;
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
    use longsynth_data::generators::{all_zeros, iid_bernoulli, two_state_markov, MarkovParams};
    use longsynth_dp::rng::rng_from_seed;
    use longsynth_queries::cumulative::{cumulative_counts, is_valid_threshold_matrix};

    fn run(
        data: &LongitudinalDataset,
        config: CumulativeConfig,
        seed: u64,
    ) -> CumulativeSynthesizer {
        let mut synth = CumulativeSynthesizer::new(config, RngFork::new(seed), rng_from_seed(seed));
        for (_, col) in data.stream() {
            synth.step(col).unwrap();
        }
        synth
    }

    #[test]
    fn synthetic_population_matches_estimates() {
        // The records' actual weight distribution must equal the Ŝ matrix
        // at every round — the defining consistency of Algorithm 2.
        let data = iid_bernoulli(&mut rng_from_seed(1), 400, 10, 0.3);
        let config = CumulativeConfig::new(10, Rho::new(0.05).unwrap()).unwrap();
        let synth = run(&data, config, 2);
        for t in 0..10 {
            let estimates = synth.threshold_estimates(t).unwrap();
            let from_records = cumulative_counts(synth.synthetic(), t);
            for b in 0..=(t + 1) {
                assert_eq!(
                    from_records.get(b).copied().unwrap_or(0) as i64,
                    estimates[b],
                    "t={t}, b={b}"
                );
            }
        }
    }

    #[test]
    fn estimates_form_valid_threshold_matrix() {
        let data = iid_bernoulli(&mut rng_from_seed(3), 300, 12, 0.4);
        let config = CumulativeConfig::new(12, Rho::new(0.01).unwrap()).unwrap();
        let synth = run(&data, config, 4);
        let matrix: Vec<Vec<i64>> = (0..12)
            .map(|t| synth.threshold_estimates(t).unwrap().to_vec())
            .collect();
        assert!(is_valid_threshold_matrix(&matrix));
    }

    #[test]
    fn estimates_track_truth_at_generous_budget() {
        let data = two_state_markov(
            &mut rng_from_seed(5),
            5_000,
            12,
            MarkovParams {
                initial_one: 0.15,
                stay_one: 0.8,
                enter_one: 0.03,
            },
        );
        let config = CumulativeConfig::new(12, Rho::new(1.0).unwrap()).unwrap();
        let synth = run(&data, config, 6);
        for t in 0..12 {
            let truth = cumulative_counts(&data, t);
            for b in 1..=(t + 1).min(6) {
                let est = synth.estimate_fraction(t, b).unwrap();
                let tru = truth[b] as f64 / 5_000.0;
                assert!((est - tru).abs() < 0.02, "t={t}, b={b}: {est} vs {tru}");
            }
        }
    }

    #[test]
    fn all_zero_data_stays_near_zero() {
        // With no signal, the monotone clamps must not let noise accumulate
        // into runaway counts.
        let data = all_zeros(1_000, 12);
        let config = CumulativeConfig::new(12, Rho::new(0.005).unwrap()).unwrap();
        let synth = run(&data, config, 7);
        let bound = synth.error_bound_counts(0.01);
        for t in 0..12 {
            for b in 1..=t + 1 {
                let est = synth.threshold_estimates(t).unwrap()[b];
                assert!(
                    (est as f64) <= bound,
                    "t={t}, b={b}: estimate {est} above bound {bound}"
                );
            }
        }
    }

    #[test]
    fn synthetic_weights_increase_by_at_most_one_per_round() {
        let data = iid_bernoulli(&mut rng_from_seed(8), 200, 10, 0.5);
        let config = CumulativeConfig::new(10, Rho::new(0.02).unwrap()).unwrap();
        let synth = run(&data, config, 9);
        for record in synth.synthetic().rows() {
            let mut prev_weight = 0;
            for t in 0..record.len() {
                let w = record.prefix_weight(t + 1);
                assert!(w == prev_weight || w == prev_weight + 1);
                prev_weight = w;
            }
        }
    }

    #[test]
    fn budget_fully_spent_after_horizon() {
        let data = iid_bernoulli(&mut rng_from_seed(10), 100, 8, 0.5);
        for split in [BudgetSplit::Uniform, BudgetSplit::CorollaryB1] {
            let config = CumulativeConfig::new(8, Rho::new(0.01).unwrap())
                .unwrap()
                .with_split(split);
            let synth = run(&data, config, 11);
            assert!(synth.ledger().exhausted(), "split {split:?}");
        }
    }

    #[test]
    fn all_counter_kinds_work() {
        let data = iid_bernoulli(&mut rng_from_seed(12), 500, 8, 0.3);
        for kind in CounterKind::all() {
            let config = CumulativeConfig::new(8, Rho::new(0.5).unwrap())
                .unwrap()
                .with_counter(kind);
            let synth = run(&data, config, 13);
            // Valid matrix + rough tracking for every counter family.
            let matrix: Vec<Vec<i64>> = (0..8)
                .map(|t| synth.threshold_estimates(t).unwrap().to_vec())
                .collect();
            assert!(is_valid_threshold_matrix(&matrix), "{kind}");
            let truth = cumulative_counts(&data, 7)[1] as f64 / 500.0;
            let est = synth.estimate_fraction(7, 1).unwrap();
            assert!((est - truth).abs() < 0.15, "{kind}: {est} vs {truth}");
        }
    }

    #[test]
    fn determinism_and_seed_sensitivity() {
        let data = iid_bernoulli(&mut rng_from_seed(14), 150, 6, 0.4);
        let config = CumulativeConfig::new(6, Rho::new(0.05).unwrap()).unwrap();
        let a = run(&data, config, 15);
        let b = run(&data, config, 15);
        assert_eq!(a.synthetic(), b.synthetic());
        let c = run(&data, config, 16);
        assert_ne!(a.synthetic(), c.synthetic());
    }

    #[test]
    fn input_validation() {
        assert!(CumulativeConfig::new(0, Rho::new(1.0).unwrap()).is_err());
        assert!(CumulativeConfig::new(5, Rho::new(0.0).unwrap()).is_err());
        let config = CumulativeConfig::new(2, Rho::new(1.0).unwrap()).unwrap();
        let mut synth = CumulativeSynthesizer::new(config, RngFork::new(1), rng_from_seed(1));
        synth.step(&BitColumn::zeros(5)).unwrap();
        assert!(matches!(
            synth.step(&BitColumn::zeros(6)),
            Err(SynthError::ColumnSizeMismatch { .. })
        ));
        synth.step(&BitColumn::zeros(5)).unwrap();
        assert!(matches!(
            synth.step(&BitColumn::zeros(5)),
            Err(SynthError::HorizonExceeded { horizon: 2 })
        ));
        assert!(matches!(
            synth.estimate_fraction(5, 1),
            Err(SynthError::RoundNotReleased { round: 5 })
        ));
    }

    #[test]
    fn crossings_estimates_match_released_differences_and_truth() {
        use longsynth_queries::cumulative::threshold_crossings;
        let data = two_state_markov(
            &mut rng_from_seed(20),
            5_000,
            12,
            MarkovParams {
                initial_one: 0.15,
                stay_one: 0.8,
                enter_one: 0.03,
            },
        );
        let config = CumulativeConfig::new(12, Rho::new(0.5).unwrap()).unwrap();
        let synth = run(&data, config, 21);
        for (t1, t2, b) in [(2usize, 5usize, 2usize), (0, 11, 1), (5, 8, 3)] {
            let est = synth.estimate_crossings(t1, t2, b).unwrap();
            assert!(est >= 0.0, "monotonization violated");
            let truth = threshold_crossings(&data, t1, t2, b) as f64 / 5_000.0;
            assert!(
                (est - truth).abs() < 0.02,
                "({t1},{t2},{b}): {est} vs {truth}"
            );
        }
        // Validation.
        assert!(synth.estimate_crossings(5, 5, 1).is_err());
        assert!(synth.estimate_crossings(5, 20, 1).is_err());
    }

    fn windowed(horizon: usize, window: usize, rho: f64, seed: u64) -> CumulativeSynthesizer {
        let config = CumulativeConfig::new(horizon, Rho::new(rho).unwrap())
            .unwrap()
            .with_window(window)
            .unwrap();
        CumulativeSynthesizer::new(config, RngFork::new(seed), rng_from_seed(seed))
    }

    fn aligned(n: usize, round: usize, window: usize, per_b: u64) -> CumulativeAggregate {
        CumulativeAggregate {
            n,
            increments: (0..round)
                .map(|b| if b < window { per_b } else { 0 })
                .collect(),
        }
    }

    #[test]
    fn window_bound_is_validated() {
        let config = CumulativeConfig::new(6, Rho::new(0.1).unwrap()).unwrap();
        assert!(config.with_window(0).is_err());
        assert!(config.with_window(7).is_err());
        assert!(config.with_window(6).is_ok());
        assert!(config.with_window(1).is_ok());
    }

    #[test]
    fn windowed_mode_tracks_the_active_set_and_spends_over_the_window() {
        let (horizon, window, n) = (6, 2, 200);
        let mut synth = windowed(horizon, window, 0.4, 21);
        assert_eq!(
            crate::ContinualSynthesizer::cohort_retirement_window(&synth),
            Some(window)
        );
        for t in 1..=horizon {
            let release = synth.finalize(aligned(n, t, window, 10)).unwrap();
            assert_eq!(release.len(), n);
            // The ledger charges ρ/W per round for the first W rounds —
            // any individual's ≤ W-round window costs exactly ρ.
            let expected = 0.4 * (t.min(window) as f64 / window as f64);
            assert!(
                (synth.ledger().spent().value() - expected).abs() < 1e-9,
                "round {t}"
            );
            // Released rows are monotone in b and within [0, n].
            let row = synth.threshold_estimates(t - 1).unwrap();
            assert_eq!(row[0], n as i64);
            for b in 1..row.len() {
                assert!(row[b] <= row[b - 1] && row[b] >= 0, "round {t}, b={b}");
            }
            // The synthetic population realizes the released row exactly.
            let est = synth.estimate_fraction(t - 1, 1).unwrap();
            assert!((0.0..=1.0).contains(&est));
        }
        assert!(synth.ledger().exhausted());
        // Windowed rows only span the tracked thresholds.
        assert_eq!(
            synth.threshold_estimates(horizon - 1).unwrap().len(),
            window + 1
        );
        // Crossings estimates are a persistent-pipeline feature.
        assert!(synth.estimate_crossings(0, 1, 1).is_err());
    }

    #[test]
    fn windowed_finalize_validates_shapes() {
        let mut synth = windowed(5, 2, 0.2, 3);
        // Wrong increment count for the round.
        assert!(matches!(
            synth.finalize(CumulativeAggregate {
                n: 50,
                increments: vec![1, 2],
            }),
            Err(SynthError::OutOfPhase(_))
        ));
        synth.finalize(aligned(50, 1, 2, 5)).unwrap();
        synth.finalize(aligned(50, 2, 2, 5)).unwrap();
        // Mass above the window bound violates the membership invariant.
        let err = synth
            .finalize(CumulativeAggregate {
                n: 50,
                increments: vec![5, 5, 1],
            })
            .unwrap_err();
        assert!(err.to_string().contains("window bound"), "{err}");
        // Population size is pinned by the first round.
        assert!(matches!(
            synth.finalize(aligned(49, 3, 2, 5)),
            Err(SynthError::ColumnSizeMismatch { .. })
        ));
        synth.finalize(aligned(50, 3, 2, 5)).unwrap();
        assert_eq!(synth.round(), 3);
    }

    #[test]
    fn forget_cohort_needs_windowed_mode_and_fitting_views() {
        // Persistent mode refuses: forgetting after noising is unsound.
        let config = CumulativeConfig::new(4, Rho::new(0.1).unwrap()).unwrap();
        let mut persistent = CumulativeSynthesizer::new(config, RngFork::new(1), rng_from_seed(1));
        assert_eq!(
            crate::ContinualSynthesizer::cohort_retirement_window(&persistent),
            None
        );
        let err = persistent
            .forget_cohort(CumulativeAggregate {
                n: 5,
                increments: vec![1],
            })
            .unwrap_err();
        assert!(err.to_string().contains("windowed"), "{err}");

        let mut synth = windowed(5, 2, 0.2, 9);
        synth.finalize(aligned(60, 1, 2, 12)).unwrap();
        // A view wider than the window bound is refused.
        assert!(synth
            .forget_cohort(CumulativeAggregate {
                n: 20,
                increments: vec![1, 1, 1],
            })
            .is_err());
        // A view exceeding the exact window counts is refused untouched.
        assert!(synth
            .forget_cohort(CumulativeAggregate {
                n: 20,
                increments: vec![13],
            })
            .is_err());
        // A true sub-sum subtracts; the next rounds keep working and the
        // released estimates track the shrunken active mass.
        synth
            .forget_cohort(CumulativeAggregate {
                n: 20,
                increments: vec![12],
            })
            .unwrap();
        synth.finalize(aligned(60, 2, 2, 0)).unwrap();
        let row = synth.threshold_estimates(1).unwrap();
        // Exact S_1 is 0 after the forget; the released value can only
        // carry noise, clamped into [0, n].
        assert!(row[1] <= 60, "{row:?}");
    }

    #[test]
    fn windowed_mode_is_deterministic() {
        let run = |seed: u64| {
            let mut synth = windowed(6, 3, 0.1, seed);
            let mut out = Vec::new();
            for t in 1..=6 {
                out.push(synth.finalize(aligned(80, t, 3, 7)).unwrap());
            }
            out
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    /// Everything a post-run reader sees for rounds `0..rounds`: the
    /// synthetic columns, the estimate rows, every fraction and (in
    /// persistent mode) every crossings estimate, and the error bound.
    fn post_run_view(synth: &CumulativeSynthesizer, rounds: usize) -> String {
        let mut view = format!("bound {:?}\n", synth.error_bound_counts(0.05));
        for t in 0..rounds {
            let row = synth.threshold_estimates(t).unwrap();
            view += &format!("t={t} column {:?} row {row:?}", synth.synthetic().column(t));
            for b in 0..row.len() {
                view += &format!(" f{b}={:?}", synth.estimate_fraction(t, b).unwrap());
                if synth.config().window.is_none() {
                    for t1 in 0..t {
                        view += &format!(" x{t1}={:?}", synth.estimate_crossings(t1, t, b));
                    }
                }
            }
            view += "\n";
        }
        view
    }

    /// The working state the horizon drops is gone.
    fn assert_working_state_dropped(synth: &CumulativeSynthesizer) {
        assert_eq!(synth.observed.rounds(), 0, "observed panel kept");
        assert_eq!(synth.observed.individuals(), 0, "observed panel kept");
        assert_eq!(synth.weight_groups.heap_bytes(), 0, "weight classes kept");
        assert_eq!(synth.plan_counts.capacity(), 0, "plan scratch kept");
        assert_eq!(synth.s_prev.capacity(), 0, "previous estimates kept");
    }

    #[test]
    fn sealed_synthesizer_drops_its_working_state_and_keeps_its_release() {
        let horizon = 8;
        let data = iid_bernoulli(&mut rng_from_seed(30), 300, horizon, 0.4);
        let config = CumulativeConfig::new(horizon, Rho::new(0.5).unwrap()).unwrap();
        let mut synth = CumulativeSynthesizer::new(config, RngFork::new(31), rng_from_seed(31));
        for (_, col) in data.stream().take(horizon - 1) {
            synth.step(col).unwrap();
        }
        assert!(synth.weight_groups.heap_bytes() > 0 && synth.observed.rounds() > 0);
        let before = post_run_view(&synth, horizon - 1);

        let last = synth.step(data.column(horizon - 1)).unwrap();
        assert!(synth.is_sealed());
        assert_working_state_dropped(&synth);
        assert_eq!(post_run_view(&synth, horizon - 1), before);
        // The last round's release is the synthetic population's last
        // column, and its estimates are the records' weight counts.
        assert_eq!(synth.synthetic().column(horizon - 1), &last);
        let matrix: Vec<Vec<i64>> = (0..horizon)
            .map(|t| synth.threshold_estimates(t).unwrap().to_vec())
            .collect();
        assert!(is_valid_threshold_matrix(&matrix));
        let counts = cumulative_counts(synth.synthetic(), horizon - 1);
        for (b, &estimate) in matrix[horizon - 1].iter().enumerate() {
            assert_eq!(
                counts.get(b).copied().unwrap_or(0) as i64,
                estimate,
                "b={b}"
            );
        }
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
            synth.finalize(CumulativeAggregate {
                n: 300,
                increments: vec![0; horizon + 1],
            }),
            Err(SynthError::HorizonExceeded { horizon: 8 })
        ));
        assert_eq!(post_run_view(&synth, horizon), view);
        assert_working_state_dropped(&synth);
    }

    #[test]
    fn sealed_windowed_synthesizer_still_forgets_cohorts() {
        let (horizon, window, n) = (5, 2, 60);
        let mut synth = windowed(horizon, window, 0.2, 32);
        for t in 1..horizon {
            synth.finalize(aligned(n, t, window, 6)).unwrap();
        }
        let before = post_run_view(&synth, horizon - 1);
        synth.finalize(aligned(n, horizon, window, 6)).unwrap();
        assert_working_state_dropped(&synth);
        assert_eq!(post_run_view(&synth, horizon - 1), before);
        let sealed = post_run_view(&synth, horizon);
        assert!(matches!(
            synth.finalize(aligned(n, horizon + 1, window, 6)),
            Err(SynthError::HorizonExceeded { horizon: 5 })
        ));

        // Exact counts after five rounds of 6 increments per threshold.
        assert_eq!(synth.exact_s, vec![0, 30, 24]);
        // A view wider than the window, or above the exact counts, is
        // refused untouched; a true sub-sum subtracts.
        assert!(synth
            .forget_cohort(CumulativeAggregate {
                n: 20,
                increments: vec![1, 1, 1],
            })
            .is_err());
        assert!(synth
            .forget_cohort(CumulativeAggregate {
                n: 20,
                increments: vec![31],
            })
            .is_err());
        assert!(matches!(
            synth.forget_cohort(CumulativeAggregate {
                n: n + 1,
                increments: vec![1],
            }),
            Err(SynthError::ColumnSizeMismatch { .. })
        ));
        assert_eq!(synth.exact_s, vec![0, 30, 24]);
        synth
            .forget_cohort(CumulativeAggregate {
                n: 20,
                increments: vec![10, 4],
            })
            .unwrap();
        assert_eq!(synth.exact_s, vec![0, 20, 20]);
        // Forgetting changes only the exact counts, never a release.
        assert_eq!(post_run_view(&synth, horizon), sealed);
    }

    #[test]
    fn released_columns_match_recorded_population() {
        let data = iid_bernoulli(&mut rng_from_seed(17), 50, 6, 0.5);
        let config = CumulativeConfig::new(6, Rho::new(0.5).unwrap()).unwrap();
        let mut synth = CumulativeSynthesizer::new(config, RngFork::new(18), rng_from_seed(18));
        let mut released = Vec::new();
        for (_, col) in data.stream() {
            released.push(synth.step(col).unwrap());
        }
        for (t, col) in released.iter().enumerate() {
            assert_eq!(col, synth.synthetic().column(t), "round {t}");
        }
    }
}
