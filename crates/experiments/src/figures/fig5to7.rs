//! Figures 5–7: SIPP quarterly poverty panels at ρ ∈ {0.001, 0.005, 0.05},
//! biased ("Synthetic Data Results") and debiased panels side by side.
//!
//! This module owns the shared quarterly machinery; Figure 1 (the body
//! figure) is the biased panel at ρ = 0.005 and re-exports from here.

use crate::report::Series;
use crate::runner::RepetitionRunner;
use crate::stats::summarise_series;
use longsynth::{ContinualSynthesizer, FixedWindowConfig, FixedWindowSynthesizer};
use longsynth_data::LongitudinalDataset;
use longsynth_dp::budget::Rho;
use longsynth_queries::window::{quarterly_battery, WindowQuery};

/// Per-repetition result: (biased, debiased) values per (query, quarter).
type RepValues = (Vec<Vec<f64>>, Vec<Vec<f64>>);

/// The quarters of the SIPP year: evaluation rounds (0-based) for `k = 3`.
pub const QUARTER_ROUNDS: [usize; 4] = [2, 5, 8, 11];

/// Both panels of one Figure-5-style column.
#[derive(Debug, Clone)]
pub struct QuarterlyPanels {
    /// Privacy budget used.
    pub rho: f64,
    /// "Synthetic Data Results": `q(synthetic)/n*`, padding bias included.
    pub biased: Vec<Series>,
    /// "Debiased Results": `(q(synthetic) − padding)/n`.
    pub debiased: Vec<Series>,
}

/// Run the quarterly experiment: `reps` independent synthesizer runs over
/// the same panel, evaluating the §5 query battery at every quarter.
pub fn run(
    panel: &LongitudinalDataset,
    rho: f64,
    reps: usize,
    master_seed: u64,
) -> QuarterlyPanels {
    let horizon = panel.rounds();
    let battery = quarterly_battery(3);
    let runner = RepetitionRunner::new(reps, master_seed);

    // Per repetition: biased and debiased values for (query × quarter).
    let per_rep: Vec<RepValues> = runner.run(|_r, fork| {
        let config = FixedWindowConfig::new(horizon, 3, Rho::new(rho).expect("positive rho"))
            .expect("valid config");
        let mut synth = FixedWindowSynthesizer::new(config, fork.child(0));
        for (_, col) in panel.stream() {
            synth.step(col).expect("panel matches config");
        }
        let biased = battery
            .iter()
            .map(|q| {
                QUARTER_ROUNDS
                    .iter()
                    .map(|&t| synth.estimate_biased(t, q).expect("released round"))
                    .collect()
            })
            .collect();
        let debiased = battery
            .iter()
            .map(|q| {
                QUARTER_ROUNDS
                    .iter()
                    .map(|&t| synth.estimate_debiased(t, q).expect("released round"))
                    .collect()
            })
            .collect();
        (biased, debiased)
    });

    let build_panel = |select: &dyn Fn(&RepValues) -> &Vec<Vec<f64>>| {
        battery
            .iter()
            .enumerate()
            .map(|(qi, query)| {
                let rows: Vec<Vec<f64>> =
                    per_rep.iter().map(|rep| select(rep)[qi].clone()).collect();
                Series {
                    label: query.name().to_string(),
                    x: (1..=4).map(|q| q.to_string()).collect(),
                    truth: truth_for(panel, query),
                    summaries: summarise_series(&rows),
                }
            })
            .collect()
    };

    QuarterlyPanels {
        rho,
        biased: build_panel(&|rep| &rep.0),
        debiased: build_panel(&|rep| &rep.1),
    }
}

fn truth_for(panel: &LongitudinalDataset, query: &WindowQuery) -> Vec<f64> {
    QUARTER_ROUNDS
        .iter()
        .map(|&t| query.evaluate_true(panel, t))
        .collect()
}

/// The ρ sweep of Figures 5–7.
pub const RHO_SWEEP: [f64; 3] = [0.001, 0.005, 0.05];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::sipp_panel_small;

    #[test]
    fn shapes_of_the_paper_hold_on_a_small_panel() {
        // 2 000 households, 40 reps keeps the test fast while the effects
        // (bias direction, debiased centring, spread vs rho) are still
        // order-of-magnitude visible.
        let panel = sipp_panel_small(2_000);
        let loose = run(&panel, 0.005, 40, 7);
        loose.biased.iter().for_each(Series::check);
        loose.debiased.iter().for_each(Series::check);

        for (qi, series) in loose.debiased.iter().enumerate() {
            for (i, summary) in series.summaries.iter().enumerate() {
                // Debiased medians centre on truth well within the 95% band.
                let err = (summary.median - series.truth[i]).abs();
                assert!(
                    err < 0.15,
                    "query {qi}, quarter {i}: debiased median {} vs truth {}",
                    summary.median,
                    series.truth[i]
                );
            }
        }
        // Biased answers drift away from truth (padding + n* inflation):
        // for the rare "all three months" query the biased estimate is
        // pushed toward uniform mass, i.e. *upward* relative to truth.
        let rare_biased = &loose.biased[3];
        let med = rare_biased.summaries[0].median;
        assert!(
            med > rare_biased.truth[0],
            "bias direction: {med} vs {}",
            rare_biased.truth[0]
        );

        // Spread shrinks when rho grows by 10x.
        let tight = run(&panel, 0.05, 40, 8);
        let loose_spread: f64 = loose.debiased[0]
            .summaries
            .iter()
            .map(|s| s.spread95())
            .sum();
        let tight_spread: f64 = tight.debiased[0]
            .summaries
            .iter()
            .map(|s| s.spread95())
            .sum();
        assert!(
            tight_spread < loose_spread,
            "spread did not shrink: {tight_spread} vs {loose_spread}"
        );
    }
}
