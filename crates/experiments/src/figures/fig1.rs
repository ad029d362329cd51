//! Figure 1: proportions of SIPP households in poverty per quarter (2021),
//! calculated on the synthetic data, ρ = 0.005.
//!
//! This is the biased panel of the [`crate::figures::fig5to7`] machinery at
//! the paper's body-figure budget. Four series: in poverty at least one
//! month / at least two months / at least two consecutive months / all
//! three months of the quarter; X's mark the ground truth.

use crate::figures::fig5to7;
use crate::report::Series;
use longsynth_data::LongitudinalDataset;

/// The paper's Figure 1 budget.
pub const RHO: f64 = 0.005;

/// Regenerate Figure 1's series.
pub fn run(panel: &LongitudinalDataset, reps: usize, master_seed: u64) -> Vec<Series> {
    fig5to7::run(panel, RHO, reps, master_seed).biased
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::sipp_panel_small;

    #[test]
    fn four_series_over_four_quarters() {
        let panel = sipp_panel_small(800);
        let series = run(&panel, 10, 3);
        assert_eq!(series.len(), 4);
        for s in &series {
            assert_eq!(s.x.len(), 4);
            s.check();
            // All proportions live in [0, 1].
            for m in &s.summaries {
                assert!((0.0..=1.0).contains(&m.median), "{}: {}", s.label, m.median);
            }
        }
        // The battery ordering holds for the truth values.
        for q in 0..4 {
            assert!(series[0].truth[q] >= series[1].truth[q]);
            assert!(series[1].truth[q] >= series[2].truth[q]);
            assert!(series[2].truth[q] >= series[3].truth[q]);
        }
    }
}
