//! Cumulative time queries on an unemployment panel: Algorithm 2 releases,
//! every month, the fraction of workers who have been unemployed for at
//! least `b` months so far — for every `b` simultaneously — while the
//! synthetic individuals' histories stay consistent across releases.
//!
//! The consistency is the point: "number of synthetic individuals who have
//! ever experienced a 6-month unemployment spell" can never decrease
//! between releases (the intro's motivating statistic).
//!
//! ```sh
//! cargo run --release --example unemployment_spells
//! ```

use longsynth::{ContinualSynthesizer, CumulativeConfig, CumulativeSynthesizer};
use longsynth_data::generators::{two_state_markov, MarkovParams};
use longsynth_dp::budget::Rho;
use longsynth_dp::rng::{rng_from_seed, RngFork};
use longsynth_queries::cumulative::cumulative_counts;

fn main() {
    // 30 000 workers, 24 monthly interviews; unemployment is persistent
    // (expected spell length 1/(1-0.75) = 4 months).
    let params = MarkovParams {
        initial_one: 0.06,
        stay_one: 0.75,
        enter_one: 0.015,
    };
    let horizon = 24;
    let n = 30_000;
    let panel = two_state_markov(&mut rng_from_seed(3), n, horizon, params);

    let rho = Rho::new(0.01).expect("valid budget");
    let config = CumulativeConfig::new(horizon, rho).expect("valid parameters");
    let mut synthesizer = CumulativeSynthesizer::new(config, RngFork::new(11), rng_from_seed(12));
    for (_, column) in panel.stream() {
        synthesizer.step(column).expect("panel matches config");
    }

    // Monthly trajectory of "unemployed ≥ b months so far" for b = 3, 6, 12.
    println!(
        "{:<7} {:>9} {:>9}   {:>9} {:>9}   {:>9} {:>9}",
        "month", "≥3 est", "≥3 true", "≥6 est", "≥6 true", "≥12 est", "≥12 true"
    );
    for t in (2..horizon).step_by(3) {
        let truth = cumulative_counts(&panel, t);
        let tru = |b: usize| truth.get(b).copied().unwrap_or(0) as f64 / n as f64;
        println!(
            "{:<7} {:>9.4} {:>9.4}   {:>9.4} {:>9.4}   {:>9.4} {:>9.4}",
            t + 1,
            synthesizer.estimate_fraction(t, 3).unwrap(),
            tru(3),
            synthesizer.estimate_fraction(t, 6).unwrap(),
            tru(6),
            synthesizer.estimate_fraction(t, 12).unwrap(),
            tru(12),
        );
    }

    // The monotone spell statistic on the synthetic records themselves.
    println!("\nsynthetic workers with a ≥6-month *consecutive* spell, by month:");
    let records = synthesizer.synthetic();
    let mut prev = 0usize;
    for t in (5..horizon).step_by(3) {
        let count = records
            .rows()
            .filter(|r| {
                let prefix: longsynth_data::BitStream = r.iter().take(t + 1).collect();
                prefix.has_ones_run(6)
            })
            .count();
        assert!(count >= prev, "consistency violated — impossible by design");
        prev = count;
        println!("  month {:>2}: {count} workers (never decreases)", t + 1);
    }
    println!(
        "\nprivacy: {} spent across {} threshold counters (Corollary B.1 split)",
        synthesizer.ledger().spent(),
        horizon
    );
}
