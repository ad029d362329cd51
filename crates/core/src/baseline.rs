//! The intro's strawman: recompute a fresh synthetic dataset every round.
//!
//! §1 of the paper ("To see what can go wrong…"): one could rerun a
//! single-shot synthetic data generator on the prefix observed so far, every
//! round, splitting the privacy budget across rounds. Composition costs a
//! `√T` accuracy factor — and, worse, the synthetic *records* are fresh
//! every round, so analyses that track individuals across releases break:
//! "the number of synthetic individuals who have ever experienced a 6-month
//! unemployment spell \[can\] *decrease* from time step t to t + 1."
//!
//! [`RecomputeBaseline`] implements exactly that strawman (each round's
//! single-shot generator is our own Algorithm 1 run over the prefix under
//! the round's budget share), plus a violation meter that quantifies the
//! inconsistency. The `integration_baselines` test and the
//! `ablation_counters` bench use it to reproduce the paper's motivating
//! comparison.
//!
//! The raw prefix serves only the next recompute, so the `finalize` that
//! completes the horizon drops it; a sealed baseline keeps its releases.

use crate::error::SynthError;
use crate::fixed_window::{FixedWindowConfig, FixedWindowSynthesizer};
use crate::gate::RoundGate;
use crate::padding::PaddingPolicy;
use crate::traits::ContinualSynthesizer;
use crate::SyntheticDataset;
use longsynth_data::{BitColumn, LongitudinalDataset};
use longsynth_dp::budget::Rho;
use longsynth_dp::rng::RngFork;
use longsynth_queries::pattern::Pattern;
use longsynth_queries::window::window_histogram;

/// Per-round recompute baseline. See module docs.
pub struct RecomputeBaseline {
    window: usize,
    rho: Rho,
    padding: PaddingPolicy,
    /// The raw prefix each recompute replays; dropped at the horizon.
    observed: LongitudinalDataset,
    /// One released population per round `t ≥ k−1`, in round order.
    releases: Vec<SyntheticDataset>,
    seeds: RngFork,
    gate: RoundGate,
}

impl RecomputeBaseline {
    /// Create a baseline with the same knobs as a [`FixedWindowConfig`].
    pub fn new(
        horizon: usize,
        window: usize,
        rho: Rho,
        padding: PaddingPolicy,
        seeds: RngFork,
    ) -> Result<Self, SynthError> {
        // Validate through the real config.
        FixedWindowConfig::new(horizon, window, rho)?;
        Ok(Self {
            window,
            rho,
            padding,
            observed: LongitudinalDataset::empty(0),
            releases: Vec::new(),
            seeds,
            gate: RoundGate::new(horizon),
        })
    }

    /// The fresh population released at 0-based round `t` (first at
    /// `t = k−1`).
    pub fn release(&self, t: usize) -> Result<&SyntheticDataset, SynthError> {
        if t + 1 < self.window {
            return Err(SynthError::RoundNotReleased { round: t });
        }
        self.releases
            .get(t + 1 - self.window)
            .ok_or(SynthError::RoundNotReleased { round: t })
    }

    /// True population size `n` (known after the first round).
    pub fn true_n(&self) -> Option<usize> {
        self.gate.n()
    }

    /// The budget share `ρ/R` each of the `R = T−k+1` recomputes gets.
    fn share(&self) -> f64 {
        self.rho.value() / (self.gate.horizon() - self.window + 1) as f64
    }

    /// The monotone statistic the paper's intro singles out: how many
    /// synthetic individuals have **ever** carried `run` consecutive
    /// 1-bits, in the release of round `t`.
    pub fn ever_run_count(&self, t: usize, run: usize) -> Result<usize, SynthError> {
        Ok(self
            .release(t)?
            .rows()
            .filter(|r| r.has_ones_run(run))
            .count())
    }

    /// Total backwards movement of the `ever_run_count` statistic across
    /// consecutive releases: `Σ_t max(0, M_t − M_{t+1})`, normalised by the
    /// release size. Zero for any consistent (persistent-record)
    /// synthesizer; strictly positive runs demonstrate the strawman's
    /// failure mode.
    pub fn monotonicity_violation(&self, run: usize) -> Result<f64, SynthError> {
        let first = self.window - 1;
        let last = self.gate.rounds_fed();
        let mut violation = 0.0;
        for t in first..last.saturating_sub(1) {
            let now = self.ever_run_count(t, run)? as f64 / self.release(t)?.individuals() as f64;
            let next =
                self.ever_run_count(t + 1, run)? as f64 / self.release(t + 1)?.individuals() as f64;
            violation += (now - next).max(0.0);
        }
        Ok(violation)
    }

    /// Debiased estimate of a single width-`k` pattern fraction from the
    /// release at round `t` (for error comparisons against Algorithm 1).
    pub fn estimate_debiased_pattern(&self, t: usize, pattern: Pattern) -> Result<f64, SynthError> {
        let histogram = window_histogram(self.release(t)?, t, self.window);
        let npad = self
            .padding
            .resolve(self.gate.horizon(), self.window, self.rho) as f64;
        let n = self.gate.n().expect("a released round pinned n") as f64;
        Ok((histogram[pattern.code() as usize] as f64 - npad) / n)
    }
}

impl ContinualSynthesizer for RecomputeBaseline {
    type Input = BitColumn;
    type Release = ();
    type Aggregate = BitColumn;

    /// The strawman has no compact sufficient statistic — it recomputes
    /// from the raw prefix — so its "aggregate" is the validated input
    /// column itself (exactly what an unsharded recompute over
    /// concatenated cohorts consumes).
    fn prepare(&mut self, column: &BitColumn) -> Result<BitColumn, SynthError> {
        self.gate.prepare(column.len())?;
        Ok(column.clone())
    }

    /// Observes the (possibly cross-cohort concatenated) column and
    /// recomputes the round's release under its budget share.
    fn finalize(&mut self, column: BitColumn) -> Result<(), SynthError> {
        let t = self.gate.next_round()?;
        self.gate.finalize(column.len())?;
        if t == 1 {
            self.observed = LongitudinalDataset::empty(column.len());
        }
        self.observed
            .push_column(column)
            .expect("the gate pinned the column length");
        if t < self.window {
            return Ok(());
        }

        // Composition: each of the R = T−k+1 recomputes gets ρ/R. The
        // single-shot generator is Algorithm 1 replayed over the prefix
        // under that share (its own internal split then costs the second
        // factor — the √T hit the paper describes).
        let share = Rho::new(self.share()).expect("validated rho");
        let config = FixedWindowConfig::new(t, self.window, share)?.with_padding(self.padding);
        let mut single_shot = FixedWindowSynthesizer::new(config, self.seeds.child(t as u64));
        for round in 0..t {
            single_shot.step(self.observed.column(round))?;
        }
        self.releases.push(single_shot.synthetic().clone());
        if t == self.gate.horizon() {
            self.observed = LongitudinalDataset::empty(0);
        }
        Ok(())
    }

    fn round(&self) -> usize {
        self.gate.rounds_fed()
    }

    fn horizon(&self) -> usize {
        self.gate.horizon()
    }

    /// zCDP budget consumed so far: each recompute charges its `ρ/R` share
    /// when it runs (user-level composition across the `R` releases).
    fn budget_spent(&self) -> Rho {
        Rho::new(self.share() * self.releases.len() as f64).expect("non-negative spend")
    }

    fn budget_total(&self) -> Rho {
        self.rho
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use longsynth_data::generators::{iid_bernoulli, two_state_markov, MarkovParams};
    use longsynth_dp::rng::rng_from_seed;

    fn markov(n: usize, t: usize, seed: u64) -> LongitudinalDataset {
        two_state_markov(
            &mut rng_from_seed(seed),
            n,
            t,
            MarkovParams {
                initial_one: 0.3,
                stay_one: 0.7,
                enter_one: 0.15,
            },
        )
    }

    fn run(data: &LongitudinalDataset, window: usize, rho: f64, seed: u64) -> RecomputeBaseline {
        let mut baseline = RecomputeBaseline::new(
            data.rounds(),
            window,
            Rho::new(rho).unwrap(),
            PaddingPolicy::Recommended { beta: 0.05 },
            RngFork::new(seed),
        )
        .unwrap();
        for (_, col) in data.stream() {
            baseline.step(col).unwrap();
        }
        baseline
    }

    #[test]
    fn produces_one_release_per_update_round() {
        let data = iid_bernoulli(&mut rng_from_seed(1), 100, 8, 0.4);
        let baseline = run(&data, 3, 0.1, 2);
        assert!(baseline.release(1).is_err());
        for t in 2..8 {
            let release = baseline.release(t).unwrap();
            assert_eq!(release.rounds(), t + 1, "release at t={t} covers prefix");
        }
    }

    #[test]
    fn fresh_records_every_round() {
        // Release sizes (n*) differ across rounds w.h.p. because every
        // round draws fresh noise — there is no persistent population.
        let data = markov(200, 10, 3);
        let baseline = run(&data, 3, 0.05, 4);
        let sizes: Vec<usize> = (2..10)
            .map(|t| baseline.release(t).unwrap().individuals())
            .collect();
        let distinct: std::collections::HashSet<_> = sizes.iter().collect();
        assert!(distinct.len() > 1, "sizes all equal: {sizes:?}");
    }

    #[test]
    fn monotone_statistic_can_decrease() {
        // The paper's motivating inconsistency: with fresh records each
        // round, "ever had a 2-run of poverty" can go backwards. Use sparse
        // data (small true increments) and no padding at a tight budget so
        // noise jitter dominates the trend — the regime where the strawman
        // visibly breaks.
        let data = two_state_markov(
            &mut rng_from_seed(5),
            300,
            12,
            MarkovParams {
                initial_one: 0.1,
                stay_one: 0.5,
                enter_one: 0.05,
            },
        );
        let mut baseline = RecomputeBaseline::new(
            12,
            3,
            Rho::new(0.01).unwrap(),
            PaddingPolicy::None,
            RngFork::new(6),
        )
        .unwrap();
        for (_, col) in data.stream() {
            baseline.step(col).unwrap();
        }
        let violation = baseline.monotonicity_violation(2).unwrap();
        assert!(
            violation > 0.0,
            "expected at least one backwards step, got {violation}"
        );
    }

    #[test]
    fn pattern_estimates_remain_unbiased_but_noisier() {
        // The baseline is still a valid DP release; its per-round estimates
        // are noisy but centred. Check a loose band at moderate budget.
        let data = markov(2_000, 6, 7);
        let baseline = run(&data, 2, 1.0, 8);
        let pattern = Pattern::parse("11");
        for t in 1..6 {
            let est = baseline.estimate_debiased_pattern(t, pattern).unwrap();
            let truth =
                longsynth_queries::window::window_histogram(&data, t, 2)[3] as f64 / 2_000.0;
            assert!((est - truth).abs() < 0.1, "t={t}: {est} vs {truth}");
        }
    }

    /// Everything a post-run reader sees for rounds `0..rounds`: each
    /// release, its run counts and its debiased pattern estimates.
    fn post_run_view(baseline: &RecomputeBaseline, rounds: usize) -> String {
        let mut view = format!("n={:?}\n", baseline.true_n());
        for t in baseline.window - 1..rounds {
            view += &format!("t={t} release {:?}", baseline.release(t));
            for run in 1..=3 {
                view += &format!(" run{run}={:?}", baseline.ever_run_count(t, run));
            }
            for pattern in Pattern::all(baseline.window) {
                view += &format!(
                    " {pattern}={:?}",
                    baseline.estimate_debiased_pattern(t, pattern)
                );
            }
            view += "\n";
        }
        view
    }

    #[test]
    fn sealed_baseline_drops_its_raw_prefix_and_keeps_its_releases() {
        let horizon = 6;
        let data = markov(200, horizon, 9);
        let mut baseline = RecomputeBaseline::new(
            horizon,
            2,
            Rho::new(0.5).unwrap(),
            PaddingPolicy::Recommended { beta: 0.05 },
            RngFork::new(10),
        )
        .unwrap();
        for (_, col) in data.stream().take(horizon - 1) {
            baseline.step(col).unwrap();
        }
        let before = post_run_view(&baseline, horizon - 1);

        baseline.step(data.column(horizon - 1)).unwrap();
        assert!(baseline.is_sealed());
        assert_eq!(baseline.observed.rounds(), 0, "raw prefix kept");
        assert_eq!(baseline.observed.individuals(), 0, "raw prefix kept");
        assert_eq!(post_run_view(&baseline, horizon - 1), before);
        assert_eq!(baseline.release(horizon - 1).unwrap().rounds(), horizon);
        assert!(baseline.monotonicity_violation(1).unwrap() >= 0.0);
        assert!((baseline.budget_spent().value() - 0.5).abs() < 1e-12);

        // Further rounds are refused without touching anything.
        let view = post_run_view(&baseline, horizon);
        assert!(matches!(
            baseline.prepare(data.column(0)),
            Err(SynthError::HorizonExceeded { horizon: 6 })
        ));
        assert!(matches!(
            baseline.step(data.column(0)),
            Err(SynthError::HorizonExceeded { horizon: 6 })
        ));
        assert!(matches!(
            baseline.finalize(data.column(0).clone()),
            Err(SynthError::HorizonExceeded { horizon: 6 })
        ));
        assert_eq!(post_run_view(&baseline, horizon), view);
        assert_eq!(baseline.observed.rounds(), 0);
    }

    #[test]
    fn input_validation() {
        let mut baseline = RecomputeBaseline::new(
            3,
            2,
            Rho::new(0.1).unwrap(),
            PaddingPolicy::None,
            RngFork::new(1),
        )
        .unwrap();
        baseline.step(&BitColumn::zeros(5)).unwrap();
        assert!(baseline.step(&BitColumn::zeros(6)).is_err());
        baseline.step(&BitColumn::zeros(5)).unwrap();
        baseline.step(&BitColumn::zeros(5)).unwrap();
        assert!(matches!(
            baseline.step(&BitColumn::zeros(5)),
            Err(SynthError::HorizonExceeded { .. })
        ));
        assert!(RecomputeBaseline::new(
            3,
            5,
            Rho::new(0.1).unwrap(),
            PaddingPolicy::None,
            RngFork::new(1)
        )
        .is_err());
    }
}
