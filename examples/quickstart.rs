//! Quickstart: continually release DP synthetic data from a longitudinal
//! panel and answer window queries from it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use longsynth::{ContinualSynthesizer, FixedWindowConfig, FixedWindowSynthesizer};
use longsynth_data::generators::{two_state_markov, MarkovParams};
use longsynth_dp::budget::Rho;
use longsynth_dp::rng::rng_from_seed;
use longsynth_queries::window::quarterly_battery;

fn main() {
    // 1. A longitudinal study: 10 000 people report one bit per month for a
    //    year ("were you below the poverty line this month?"). Here we
    //    simulate it with a persistent two-state process.
    let params = MarkovParams {
        initial_one: 0.12,
        stay_one: 0.8,
        enter_one: 0.025,
    };
    let panel = two_state_markov(&mut rng_from_seed(1), 10_000, 12, params);

    // 2. Configure Algorithm 1: horizon T = 12 (known in advance), window
    //    width k = 3 (quarterly statistics), total budget ρ = 0.005-zCDP
    //    for the *entire year* of releases, at user level.
    let rho = Rho::new(0.005).expect("valid budget");
    let config = FixedWindowConfig::new(12, 3, rho).expect("valid parameters");
    let mut synthesizer = FixedWindowSynthesizer::new(config, rng_from_seed(42));
    println!(
        "padding npad = {} fake records per histogram bin (public)",
        synthesizer.npad()
    );

    // 3. Stream the data in, month by month. Each step releases one new
    //    column of the persistent synthetic population.
    for (month, column) in panel.stream() {
        let release = synthesizer.step(column).expect("stream matches config");
        println!("month {:>2}: released {release:?}", month + 1);

        // 4. Analysts can query any already-released round, at any time,
        //    with no further privacy cost.
        if month + 1 == 6 {
            let q = quarterly_battery(3).remove(0); // "≥1 month of the quarter"
            let private = synthesizer.estimate_debiased(5, &q).unwrap();
            let truth = q.evaluate_true(&panel, 5);
            println!("  Q2 '≥1 month in poverty': private {private:.4} vs truth {truth:.4}");
        }
    }

    // 5. End of study: the full battery, debiased, against ground truth.
    println!("\nQ4 battery (debiased vs truth):");
    for q in quarterly_battery(3) {
        let private = synthesizer.estimate_debiased(11, &q).unwrap();
        let truth = q.evaluate_true(&panel, 11);
        println!("  {:<32} {private:.4}  (truth {truth:.4})", q.name());
    }
    println!(
        "\nprivacy: ledger spent {} of {} — fully accounted",
        synthesizer.ledger().spent(),
        synthesizer.ledger().total()
    );
}
