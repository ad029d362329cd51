//! End-to-end integration of Algorithm 1 across crates: data generation →
//! continual synthesis → query answering, checking the paper's §3
//! guarantees at realistic scales.

use longsynth::{
    ContinualSynthesizer, FixedWindowConfig, FixedWindowSynthesizer, PaddingPolicy, Release,
};
use longsynth_data::generators::{two_state_markov, MarkovParams};
use longsynth_data::sipp::SippConfig;
use longsynth_dp::budget::Rho;
use longsynth_dp::rng::rng_from_seed;
use longsynth_dp::tail::{theorem_3_2_lambda, FixedWindowParams};
use longsynth_queries::pattern::Pattern;
use longsynth_queries::window::{quarterly_battery, window_histogram};

/// Run a full SIPP-like synthesis and return (synthesizer, panel).
fn sipp_run(
    households: usize,
    rho: f64,
    seed: u64,
) -> (FixedWindowSynthesizer, longsynth_data::LongitudinalDataset) {
    let panel = SippConfig::small(households).simulate(&mut rng_from_seed(1000 + seed));
    let config = FixedWindowConfig::new(12, 3, Rho::new(rho).unwrap()).unwrap();
    let mut synth = FixedWindowSynthesizer::new(config, rng_from_seed(seed));
    for (_, col) in panel.stream() {
        synth.step(col).unwrap();
    }
    (synth, panel)
}

#[test]
fn full_sipp_run_respects_theorem_3_2() {
    // One full run at the paper's parameters: every (bin, round) error must
    // sit within the β = 0.05 bound (a fixed-seed single draw; the theorem
    // allows 5% of runs to exceed it — this seed does not).
    let (synth, panel) = sipp_run(23_374, 0.005, 7);
    let params = FixedWindowParams::new(12, 3, Rho::new(0.005).unwrap()).unwrap();
    let lambda = theorem_3_2_lambda(&params, 0.05);
    let npad = synth.npad() as i64;
    for t in 2..12 {
        let est = synth.histogram_estimate(t).unwrap();
        let truth = window_histogram(&panel, t, 3);
        for (s, (&p, &c)) in est.iter().zip(&truth).enumerate() {
            let err = (p - (c as i64 + npad)).abs() as f64;
            assert!(
                err <= lambda,
                "t={t}, s={s}: count error {err} above λ={lambda}"
            );
        }
    }
    assert_eq!(synth.failures().total(), 0);
    assert!(synth.ledger().exhausted());
}

#[test]
fn continual_releases_are_prefix_consistent() {
    // The defining model property: the column released at round t never
    // changes afterwards. Capture each release as it happens and compare
    // against the final population.
    let panel = SippConfig::small(2_000).simulate(&mut rng_from_seed(8));
    let config = FixedWindowConfig::new(12, 3, Rho::new(0.01).unwrap()).unwrap();
    let mut synth = FixedWindowSynthesizer::new(config, rng_from_seed(9));
    let mut released_columns = Vec::new();
    for (_, col) in panel.stream() {
        match synth.step(col).unwrap() {
            Release::Buffered => {}
            Release::Initial(cols) => released_columns.extend(cols),
            Release::Update(col) => released_columns.push(col),
        }
    }
    assert_eq!(released_columns.len(), 12);
    for (t, col) in released_columns.iter().enumerate() {
        assert_eq!(col, synth.synthetic().column(t), "round {t} was rewritten");
    }
}

#[test]
fn quarterly_battery_accuracy_at_paper_scale() {
    // Debiased quarterly estimates within 2 percentage points of truth at
    // the paper's n and ρ (the Fig. 6 right-panel regime).
    let (synth, panel) = sipp_run(23_374, 0.005, 10);
    for &t in &[2usize, 5, 8, 11] {
        for query in quarterly_battery(3) {
            let est = synth.estimate_debiased(t, &query).unwrap();
            let truth = query.evaluate_true(&panel, t);
            assert!(
                (est - truth).abs() < 0.02,
                "t={t}, {}: {est} vs {truth}",
                query.name()
            );
        }
    }
}

#[test]
fn monotone_statistics_never_regress_on_persistent_records() {
    // "Ever in poverty ≥ 2 consecutive months" must be non-decreasing over
    // the releases — the consistency property the intro's strawman loses.
    let (synth, _) = sipp_run(3_000, 0.005, 11);
    let records = synth.synthetic();
    let mut prev = 0usize;
    for t in 3..=records.rounds() {
        let count = records
            .rows()
            .filter(|r| {
                let prefix: longsynth_data::BitStream = r.iter().take(t).collect();
                prefix.has_ones_run(2)
            })
            .count();
        assert!(count >= prev, "round {t}: {count} < {prev}");
        prev = count;
    }
}

#[test]
fn window_consistency_constraint_holds_at_scale() {
    let (synth, _) = sipp_run(10_000, 0.001, 12);
    for t in 3..12 {
        let prev = synth.histogram_estimate(t - 1).unwrap();
        let now = synth.histogram_estimate(t).unwrap();
        for z in Pattern::all(2) {
            let ended =
                prev[z.prepend(false).code() as usize] + prev[z.prepend(true).code() as usize];
            let started =
                now[z.append(false).code() as usize] + now[z.append(true).code() as usize];
            assert_eq!(ended, started, "t={t}, z={z}");
        }
    }
}

#[test]
fn tight_budget_still_produces_valid_releases() {
    // ρ = 0.0005 (10x tighter than the paper's tightest): massive noise,
    // but the synthesizer must stay feasible thanks to padding, and all
    // estimates must remain finite and the population size constant.
    let panel = two_state_markov(
        &mut rng_from_seed(13),
        1_000,
        12,
        MarkovParams {
            initial_one: 0.1,
            stay_one: 0.8,
            enter_one: 0.02,
        },
    );
    let config = FixedWindowConfig::new(12, 3, Rho::new(0.0005).unwrap()).unwrap();
    let mut synth = FixedWindowSynthesizer::new(config, rng_from_seed(14));
    for (_, col) in panel.stream() {
        synth.step(col).unwrap();
    }
    let n_star = synth.n_star();
    for t in 2..12 {
        let est = synth.histogram_estimate(t).unwrap();
        assert!(est.iter().all(|&p| p >= 0), "negative target at t={t}");
        assert_eq!(est.iter().sum::<i64>(), n_star as i64);
    }
}

#[test]
fn padding_policies_trade_failure_rate() {
    // With PaddingPolicy::None, clamps are common on sparse data; with the
    // recommended padding they vanish. Same data, same noise seeds.
    let panel = two_state_markov(
        &mut rng_from_seed(15),
        500,
        12,
        MarkovParams {
            initial_one: 0.05,
            stay_one: 0.5,
            enter_one: 0.02,
        },
    );
    let rho = Rho::new(0.005).unwrap();
    let run = |padding: PaddingPolicy, seed: u64| {
        let config = FixedWindowConfig::new(12, 3, rho)
            .unwrap()
            .with_padding(padding);
        let mut synth = FixedWindowSynthesizer::new(config, rng_from_seed(seed));
        for (_, col) in panel.stream() {
            synth.step(col).unwrap();
        }
        synth.failures().total()
    };
    let unpadded: u64 = (0..5).map(|s| run(PaddingPolicy::None, 20 + s)).sum();
    let padded: u64 = (0..5)
        .map(|s| run(PaddingPolicy::Recommended { beta: 0.05 }, 20 + s))
        .sum();
    assert!(unpadded > 0, "expected clamps without padding");
    assert_eq!(padded, 0, "recommended padding must prevent clamps");
}
