//! The categorical extension (`|X| = V > 2`): monthly program-participation
//! status with three categories — 0 = no assistance, 1 = food assistance,
//! 2 = unemployment assistance — synthesized continually with width-2
//! windows (month-to-month transitions).
//!
//! The paper's §2 notes the fixed-window solution "naturally extends to
//! handle categorical data"; this example exercises that extension,
//! including transition queries ("entered food assistance this month").
//!
//! ```sh
//! cargo run --release --example categorical_program_participation
//! ```

use longsynth::categorical::{CategoricalConfig, CategoricalSynthesizer};
use longsynth::ContinualSynthesizer;
use longsynth_data::generators::categorical_markov;
use longsynth_dp::budget::Rho;
use longsynth_dp::rng::rng_from_seed;

fn main() {
    let categories = 3u8;
    let horizon = 12;
    let n = 15_000;
    // Sticky statuses: 85% chance of repeating last month's category.
    let panel = categorical_markov(&mut rng_from_seed(5), n, horizon, categories, 0.85);

    let rho = Rho::new(0.01).expect("valid budget");
    let config = CategoricalConfig::new(horizon, 2, categories, rho).expect("valid parameters");
    let mut synthesizer = CategoricalSynthesizer::new(config, rng_from_seed(6));
    for (_, column) in panel.stream() {
        synthesizer.step(column).expect("panel matches config");
    }
    println!(
        "V^k = {} histogram bins, npad = {} per bin, n* = {}\n",
        3 * 3,
        synthesizer.npad(),
        synthesizer.n_star()
    );

    let label = ["none", "food", "unemployment"];

    // Marginals: current-month participation rates.
    println!("December participation marginals (debiased vs truth):");
    let t = horizon - 1;
    for c in 0..categories {
        let est = synthesizer.estimate_category_marginal(t, c).unwrap();
        let truth = (0..n).filter(|&i| panel.value(i, t) == c).count() as f64 / n as f64;
        println!("  {:<14} {est:.4}  (truth {truth:.4})", label[c as usize]);
    }

    // Transitions: width-2 patterns are (previous, current) pairs.
    println!("\nNovember→December transition fractions (debiased vs truth):");
    for prev in 0..categories {
        for cur in 0..categories {
            let code = (prev as usize) * 3 + cur as usize;
            let est = synthesizer.estimate_debiased_bin(t, code).unwrap();
            let truth = (0..n)
                .filter(|&i| panel.value(i, t - 1) == prev && panel.value(i, t) == cur)
                .count() as f64
                / n as f64;
            println!(
                "  {:>12} → {:<12} {est:.4}  (truth {truth:.4})",
                label[prev as usize], label[cur as usize]
            );
        }
    }
    println!(
        "\nclamp events over the run: {} (expected 0 under the padding rule)",
        synthesizer.clamps()
    );
}
