//! Figure 3: empirical error of Algorithm 1 on the Appendix C.1 simulated
//! data, **with** the debiasing step.
//!
//! Workload: n = 25 000 individuals, T = 12, all updates equal to 1
//! ("rather extreme simulated data"), synthesizer window k = 3, ρ = 0.005.
//! Three panels: the evaluated query width k′ matches the synthesizer
//! (k′ = 3), is smaller (k′ = 2), or exceeds it (k′ = 4). Per repetition
//! and timestep we record the **maximum absolute error over all width-k′
//! pattern fractions**; the figure plots the median and the 2.5/97.5
//! percentiles across repetitions, against the Theorem 3.2 / Corollary 3.3
//! bound.

use crate::report::Series;
use crate::runner::RepetitionRunner;
use crate::stats::summarise_series;
use longsynth::padding::theorem_bound_debiased;
use longsynth::{ContinualSynthesizer, FixedWindowConfig, FixedWindowSynthesizer};
use longsynth_data::generators::all_ones;
use longsynth_data::LongitudinalDataset;
use longsynth_dp::budget::Rho;
use longsynth_queries::pattern::Pattern;
use longsynth_queries::window::WindowQuery;

/// Paper parameters for Figures 3–4.
pub const N: usize = 25_000;
/// Time horizon.
pub const HORIZON: usize = 12;
/// Synthesizer window width.
pub const WINDOW: usize = 3;
/// Privacy budget.
pub const RHO: f64 = 0.005;
/// Failure probability at which the bound lines are drawn.
pub const BETA: f64 = 0.05;

/// The three panels' query widths.
pub const QUERY_WIDTHS: [usize; 3] = [3, 2, 4];

/// Output of a Figure 3/4 run: error series per query width plus the
/// theoretical reference value.
#[derive(Debug, Clone)]
pub struct SimErrorResult {
    /// One series per query width (max-abs-error per timestep).
    pub series: Vec<Series>,
    /// The horizontal reference line (debiased: Corollary 3.3's `λ/n`).
    pub bound: f64,
}

/// Whether to debias the estimates (Figure 3) or read raw synthetic
/// proportions (Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Estimator {
    /// `(count − padding)/n` (Figure 3).
    Debiased,
    /// `count/n*` (Figure 4).
    Biased,
}

/// The extreme panel of Appendix C.1 (size-parameterised for tests).
pub fn extreme_panel(n: usize) -> LongitudinalDataset {
    all_ones(n, HORIZON)
}

/// Run the simulated-data error experiment.
pub fn run(n: usize, reps: usize, estimator: Estimator, master_seed: u64) -> SimErrorResult {
    let panel = extreme_panel(n);
    let rho = Rho::new(RHO).expect("positive rho");
    let runner = RepetitionRunner::new(reps, master_seed);

    // Per repetition: per query width, per timestep, the max pattern error.
    let per_rep: Vec<Vec<Vec<f64>>> = runner.run(|_r, fork| {
        let config = FixedWindowConfig::new(HORIZON, WINDOW, rho).expect("valid config");
        let mut synth = FixedWindowSynthesizer::new(config, fork.child(0));
        for (_, col) in panel.stream() {
            synth.step(col).expect("panel matches config");
        }
        QUERY_WIDTHS
            .iter()
            .map(|&w| {
                timesteps(w)
                    .map(|t| max_pattern_error(&synth, &panel, t, w, estimator))
                    .collect()
            })
            .collect()
    });

    let series = QUERY_WIDTHS
        .iter()
        .enumerate()
        .map(|(wi, &w)| {
            let rows: Vec<Vec<f64>> = per_rep.iter().map(|rep| rep[wi].clone()).collect();
            Series {
                label: format!("query k'={w} (synthesizer k={WINDOW})"),
                x: timesteps(w).map(|t| (t + 1).to_string()).collect(),
                truth: timesteps(w).map(|_| 0.0).collect(), // error truth is 0
                summaries: summarise_series(&rows),
            }
        })
        .collect();

    let bound = match estimator {
        Estimator::Debiased => theorem_bound_debiased(HORIZON, WINDOW, rho, BETA, n),
        Estimator::Biased => {
            longsynth::padding::biased_reference_bound(HORIZON, WINDOW, rho, BETA, n)
        }
    };
    SimErrorResult { series, bound }
}

/// Evaluation rounds for a width-`w` query: every released round with a
/// full window (0-based).
fn timesteps(w: usize) -> impl Iterator<Item = usize> {
    let first = (WINDOW - 1).max(w - 1);
    first..HORIZON
}

fn max_pattern_error(
    synth: &FixedWindowSynthesizer,
    panel: &LongitudinalDataset,
    t: usize,
    width: usize,
    estimator: Estimator,
) -> f64 {
    let mut worst = 0.0f64;
    for pattern in Pattern::all(width) {
        let query = WindowQuery::pattern(pattern);
        // Debiasing is the Corollary 3.3 step: subtract npad per bin
        // (equivalently, the query run on the conceptual static padding
        // data). For k' ≤ k this reads the bookkept histograms — flat error
        // (Theorem 3.2 is time-uniform); for k' = 4 it evaluates the
        // records, where selection churn accumulates — the bottom panel's
        // growing error.
        let est = match estimator {
            Estimator::Debiased => synth.estimate_debiased(t, &query),
            Estimator::Biased => synth.estimate_biased(t, &query),
        }
        .expect("round released");
        let truth = query.evaluate_true(panel, t);
        worst = worst.max((est - truth).abs());
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debiased_error_is_flat_and_below_bound() {
        // Scaled down (n = 5 000, 20 reps) but the two Figure-3 claims are
        // scale-free: (1) error roughly constant over time (Theorem 3.2 is
        // time-uniform); (2) matching-width errors below the bound.
        let result = run(5_000, 20, Estimator::Debiased, 21);
        assert_eq!(result.series.len(), 3);
        let matching = &result.series[0];
        let medians: Vec<f64> = matching.summaries.iter().map(|s| s.median).collect();
        let first = medians.first().copied().unwrap();
        let last = medians.last().copied().unwrap();
        assert!(
            last < 3.0 * first + 1e-4,
            "error drifted over time: {medians:?}"
        );
        // 97.5th percentile below the β = 0.05 bound for the matching width.
        let bound = {
            let rho = Rho::new(RHO).unwrap();
            theorem_bound_debiased(HORIZON, WINDOW, rho, BETA, 5_000)
        };
        for s in &matching.summaries {
            assert!(s.q975 <= bound, "{} above bound {bound}", s.q975);
        }
    }

    #[test]
    fn larger_query_width_is_clearly_worse() {
        // The bottom panel's message: queries beyond the synthesizer's
        // window are not covered by any guarantee and come out worse. The
        // k'=4 windows cross the consistency boundary, picking up the
        // record-selection churn that widths ≤ k never see.
        let result = run(5_000, 20, Estimator::Debiased, 22);
        let matching: f64 = result.series[0]
            .summaries
            .iter()
            .map(|s| s.median)
            .sum::<f64>()
            / result.series[0].summaries.len() as f64;
        let wide: f64 = result.series[2]
            .summaries
            .iter()
            .map(|s| s.median)
            .sum::<f64>()
            / result.series[2].summaries.len() as f64;
        assert!(
            wide > 1.25 * matching,
            "k'=4 error {wide} not clearly above k'=3 error {matching}"
        );
    }

    #[test]
    fn record_debias_reveals_selection_churn_growth() {
        // The same experiment debiased by the *realized* padding records
        // (instead of the scalar npad): under uniform selection the padding
        // drifts, so the error grows with t — the drift the Stratified
        // selection strategy removes (see the ablation_padding bench).
        use longsynth::{FixedWindowConfig, FixedWindowSynthesizer};
        let n = 5_000;
        let panel = extreme_panel(n);
        let rho = Rho::new(RHO).unwrap();
        let mut first_sum = 0.0;
        let mut last_sum = 0.0;
        for seed in 0..8 {
            let config = FixedWindowConfig::new(HORIZON, WINDOW, rho).unwrap();
            let mut synth =
                FixedWindowSynthesizer::new(config, longsynth_dp::rng::rng_from_seed(900 + seed));
            for (_, col) in panel.stream() {
                synth.step(col).unwrap();
            }
            let err_at = |t: usize| {
                Pattern::all(WINDOW)
                    .map(|p| {
                        let q = WindowQuery::pattern(p);
                        let est = synth.estimate_debiased_records(t, &q).unwrap();
                        (est - q.evaluate_true(&panel, t)).abs()
                    })
                    .fold(0.0f64, f64::max)
            };
            first_sum += err_at(WINDOW - 1);
            last_sum += err_at(HORIZON - 1);
        }
        assert!(
            last_sum > 2.0 * first_sum,
            "no churn growth: first {first_sum}, last {last_sum}"
        );
    }
}

#[cfg(test)]
mod probe {
    use super::*;

    #[test]
    #[ignore]
    fn print_medians() {
        for (label, est) in [
            ("debiased", Estimator::Debiased),
            ("biased", Estimator::Biased),
        ] {
            let r = run(25_000, 40, est, 99);
            println!("== {label} bound={:.6}", r.bound);
            for s in &r.series {
                let meds: Vec<String> = s
                    .summaries
                    .iter()
                    .map(|m| format!("{:.5}", m.median))
                    .collect();
                println!("{}: {}", s.label, meds.join(" "));
            }
        }
    }
}
