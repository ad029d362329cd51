//! Figures 2 and 8: proportion of SIPP households in poverty for at least
//! three months up to any given month of 2021, from Algorithm 2's synthetic
//! data, ρ = 0.005.
//!
//! (Figure 8 is the appendix restatement of Figure 2 — same workload, same
//! budget — so one module serves both; the binary emits it under both
//! names.)

use crate::report::Series;
use crate::runner::RepetitionRunner;
use crate::stats::summarise_series;
use longsynth::{ContinualSynthesizer, CumulativeConfig, CumulativeSynthesizer};
use longsynth_data::LongitudinalDataset;
use longsynth_dp::budget::Rho;
use longsynth_queries::cumulative::ThresholdCounter;

/// The paper's budget for Figures 2/8.
pub const RHO: f64 = 0.005;

/// The threshold highlighted in the paper ("at least three months").
pub const THRESHOLD_B: usize = 3;

/// Regenerate the Figure 2 series (one series: the `b = 3` trajectory over
/// all months; Algorithm 2 releases every `b` simultaneously — pass a
/// different `b` to look at the others).
pub fn run(
    panel: &LongitudinalDataset,
    rho: f64,
    b: usize,
    reps: usize,
    master_seed: u64,
) -> Series {
    let horizon = panel.rounds();
    let runner = RepetitionRunner::new(reps, master_seed);
    let per_rep: Vec<Vec<f64>> = runner.run(|_r, fork| {
        let config = CumulativeConfig::new(horizon, Rho::new(rho).expect("positive rho"))
            .expect("valid config");
        let mut synth = CumulativeSynthesizer::new(config, fork.subfork(0), fork.child(1));
        for (_, col) in panel.stream() {
            synth.step(col).expect("panel matches config");
        }
        (0..horizon)
            .map(|t| synth.estimate_fraction(t, b).expect("released round"))
            .collect()
    });
    let counts = ThresholdCounter::over(panel);
    let truth: Vec<f64> = (0..horizon).map(|t| counts.fraction(t, b)).collect();
    Series {
        label: format!("≥{b} months"),
        x: (1..=horizon).map(|m| m.to_string()).collect(),
        truth,
        summaries: summarise_series(&per_rep),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::sipp_panel_small;

    #[test]
    fn trajectory_is_monotone_and_tracks_truth() {
        let panel = sipp_panel_small(3_000);
        let series = run(&panel, 0.005, THRESHOLD_B, 30, 11);
        series.check();
        assert_eq!(series.x.len(), 12);
        // Truth is monotone non-decreasing (cumulative statistic)…
        for w in series.truth.windows(2) {
            assert!(w[1] >= w[0]);
        }
        // …and so is every released median (Algorithm 2's monotonization).
        for w in series.summaries.windows(2) {
            assert!(w[1].median >= w[0].median - 1e-12);
        }
        // First two months are structurally zero (cannot have 3 ones yet).
        assert_eq!(series.truth[0], 0.0);
        assert_eq!(series.truth[1], 0.0);
        // Median error stays small relative to the signal by December.
        let final_err = (series.summaries[11].median - series.truth[11]).abs();
        assert!(final_err < 0.05, "December error {final_err}");
    }
}
