//! The paper's §5 case study: quarterly poverty statistics from the Survey
//! of Income and Program Participation, released continually under
//! 0.005-zCDP.
//!
//! Uses the calibrated SIPP simulator by default; point `SIPP_CSV` at a
//! real `pu2021.csv` to run on the actual Census file with the paper's
//! pre-processing.
//!
//! ```sh
//! cargo run --release --example sipp_poverty_quarters
//! SIPP_CSV=/data/pu2021.csv cargo run --release --example sipp_poverty_quarters
//! ```

use longsynth::{ContinualSynthesizer, FixedWindowConfig, FixedWindowSynthesizer};
use longsynth_data::sipp::{load_sipp_csv, SippConfig};
use longsynth_dp::budget::Rho;
use longsynth_dp::rng::rng_from_seed;
use longsynth_queries::window::quarterly_battery;

fn main() {
    let panel = match std::env::var("SIPP_CSV") {
        Ok(path) => {
            println!("loading real SIPP file {path}");
            load_sipp_csv(&path, 12).expect("valid SIPP public-use CSV")
        }
        Err(_) => {
            println!("using the calibrated SIPP simulator (set SIPP_CSV for real data)");
            SippConfig::default().simulate(&mut rng_from_seed(2021))
        }
    };
    println!(
        "panel: {} households x {} months\n",
        panel.individuals(),
        panel.rounds()
    );

    let rho = Rho::new(0.005).expect("valid budget");
    let config = FixedWindowConfig::new(12, 3, rho).expect("valid parameters");
    let mut synthesizer = FixedWindowSynthesizer::new(config, rng_from_seed(7));
    for (_, column) in panel.stream() {
        synthesizer.step(column).expect("panel matches config");
    }
    println!(
        "released a persistent synthetic population of n* = {} records ({} real + padding)\n",
        synthesizer.n_star(),
        panel.individuals()
    );

    // The paper's Figure 1 / Figures 5-7 content: per quarter, the four
    // poverty queries, read both ways.
    println!(
        "{:<34} {:>7} {:>9} {:>9}",
        "query / quarter", "truth", "biased", "debiased"
    );
    for (quarter, &t) in [2usize, 5, 8, 11].iter().enumerate() {
        for query in quarterly_battery(3) {
            let truth = query.evaluate_true(&panel, t);
            let biased = synthesizer.estimate_biased(t, &query).unwrap();
            let debiased = synthesizer.estimate_debiased(t, &query).unwrap();
            println!(
                "Q{} {:<31} {truth:>7.4} {biased:>9.4} {debiased:>9.4}",
                quarter + 1,
                query.name()
            );
        }
        println!();
    }
    println!("note the biased column's systematic offset — the padding is public,");
    println!("so the debiasing step (Corollary 3.3) removes it exactly.");
}
