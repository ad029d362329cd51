//! One module per reproduced figure / table. See crate docs for the map.

pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5to7;
pub mod theory;

use crate::SIPP_PANEL_SEED;
use longsynth_data::sipp::SippConfig;
use longsynth_data::LongitudinalDataset;
use longsynth_dp::rng::rng_from_seed;

/// A smaller SIPP-like panel for fast tests and smoke runs.
pub fn sipp_panel_small(households: usize) -> LongitudinalDataset {
    SippConfig::small(households).simulate(&mut rng_from_seed(SIPP_PANEL_SEED))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sipp_panel_is_deterministic_and_paper_sized() {
        let a = sipp_panel_small(500);
        let b = sipp_panel_small(500);
        assert_eq!(a, b);
        assert_eq!(a.rounds(), 12);
        assert_eq!(a.individuals(), 500);
    }
}
