//! Released-byte pins: one fixed-seed run per synthesizer family, folded
//! into an FNV-1a digest of everything the run publishes (releases,
//! synthetic records, histogram or threshold targets, ledger spend).
//!
//! A refactor of the round path must leave every digest unchanged. The
//! CLI's `cli_outputs_are_byte_pinned` and the perfbench digest pin cover
//! fixed-window and persistent cumulative runs; these pins add the
//! categorical extension, the recompute baseline and the windowed
//! cumulative mode (finalize-only, with a cohort retirement mid-run).

use longsynth::baseline::RecomputeBaseline;
use longsynth::categorical::{CategoricalConfig, CategoricalSynthesizer};
use longsynth::{
    ContinualSynthesizer, CumulativeAggregate, CumulativeConfig, CumulativeSynthesizer,
    FixedWindowConfig, FixedWindowSynthesizer, PaddingPolicy, Release, SelectionStrategy,
};
use longsynth_data::generators::{
    categorical_markov, iid_bernoulli, two_state_markov, MarkovParams,
};
use longsynth_data::{BitColumn, LongitudinalDataset};
use longsynth_dp::budget::Rho;
use longsynth_dp::rng::{rng_from_seed, RngFork};

/// FNV-1a over little-endian 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn int(&mut self, value: i64) {
        self.word(value as u64);
    }

    fn column(&mut self, column: &BitColumn) {
        self.word(column.len() as u64);
        for &word in column.as_words() {
            self.word(word);
        }
    }

    fn panel(&mut self, panel: &LongitudinalDataset) {
        self.word(panel.rounds() as u64);
        for (_, column) in panel.stream() {
            self.column(column);
        }
    }

    fn spend(&mut self, synth: &impl ContinualSynthesizer) {
        self.word(synth.budget_spent().value().to_bits());
    }
}

fn markov_panel(seed: u64, n: usize, horizon: usize) -> LongitudinalDataset {
    let params = MarkovParams {
        initial_one: 0.2,
        stay_one: 0.7,
        enter_one: 0.1,
    };
    two_state_markov(&mut rng_from_seed(seed), n, horizon, params)
}

fn fixed_window_digest() -> u64 {
    let data = markov_panel(101, 300, 10);
    let config = FixedWindowConfig::new(10, 3, Rho::new(0.05).unwrap())
        .unwrap()
        .with_selection(SelectionStrategy::Stratified);
    let mut synth = FixedWindowSynthesizer::new(config, rng_from_seed(102));
    let mut digest = Digest::new();
    for (_, column) in data.stream() {
        match synth.step(column).unwrap() {
            Release::Buffered => digest.word(0),
            Release::Initial(columns) => {
                digest.word(1);
                columns.iter().for_each(|c| digest.column(c));
            }
            Release::Update(column) => {
                digest.word(2);
                digest.column(&column);
            }
        }
    }
    digest.panel(synth.synthetic());
    for &flag in synth.padding_flags() {
        digest.word(u64::from(flag));
    }
    for t in 2..10 {
        synth
            .histogram_estimate(t)
            .unwrap()
            .iter()
            .for_each(|&c| digest.int(c));
    }
    digest.word(synth.failures().total());
    digest.spend(&synth);
    digest.0
}

fn cumulative_digest() -> u64 {
    let data = markov_panel(201, 300, 10);
    let config = CumulativeConfig::new(10, Rho::new(0.05).unwrap()).unwrap();
    let mut synth = CumulativeSynthesizer::new(config, RngFork::new(202), rng_from_seed(203));
    let mut digest = Digest::new();
    for (_, column) in data.stream() {
        digest.column(&synth.step(column).unwrap());
    }
    digest.panel(synth.synthetic());
    for t in 0..10 {
        synth
            .threshold_estimates(t)
            .unwrap()
            .iter()
            .for_each(|&s| digest.int(s));
    }
    digest.spend(&synth);
    digest.0
}

/// Windowed mode as a rotating panel's population synthesizer drives it:
/// finalize-only on summed aggregates, with a retired cohort's lifetime
/// view forgotten before round 5.
fn windowed_cumulative_digest() -> u64 {
    let (horizon, window, n) = (8, 3, 120);
    let config = CumulativeConfig::new(horizon, Rho::new(0.2).unwrap())
        .unwrap()
        .with_window(window)
        .unwrap();
    let mut synth = CumulativeSynthesizer::new(config, RngFork::new(301), rng_from_seed(302));
    let mut digest = Digest::new();
    for t in 1..=horizon {
        if t == 5 {
            synth
                .forget_cohort(CumulativeAggregate {
                    n: 40,
                    increments: vec![9, 4, 1],
                })
                .unwrap();
        }
        let increments = (1..=t)
            .map(|b| {
                if b <= window {
                    ((t * 7 + b * 3) % 11) as u64
                } else {
                    0
                }
            })
            .collect();
        let release = synth
            .finalize(CumulativeAggregate { n, increments })
            .unwrap();
        digest.column(&release);
    }
    digest.panel(synth.synthetic());
    for t in 0..horizon {
        synth
            .threshold_estimates(t)
            .unwrap()
            .iter()
            .for_each(|&s| digest.int(s));
    }
    digest.spend(&synth);
    digest.0
}

fn categorical_digest() -> u64 {
    let data = categorical_markov(&mut rng_from_seed(401), 200, 7, 3, 0.7);
    let config = CategoricalConfig::new(7, 2, 3, Rho::new(0.05).unwrap()).unwrap();
    let mut synth = CategoricalSynthesizer::new(config, rng_from_seed(402));
    for (_, column) in data.stream() {
        synth.step(column).unwrap();
    }
    let mut digest = Digest::new();
    for t in 0..7 {
        for &value in synth.round_values(t).unwrap() {
            digest.word(u64::from(value));
        }
    }
    for t in 1..7 {
        synth
            .histogram_estimate(t)
            .unwrap()
            .iter()
            .for_each(|&c| digest.int(c));
    }
    digest.word(synth.clamps());
    digest.spend(&synth);
    digest.0
}

fn baseline_digest() -> u64 {
    let data = markov_panel(501, 120, 6);
    let mut baseline = RecomputeBaseline::new(
        6,
        2,
        Rho::new(0.05).unwrap(),
        PaddingPolicy::Fixed(20),
        RngFork::new(502),
    )
    .unwrap();
    for (_, column) in data.stream() {
        baseline.step(column).unwrap();
    }
    let mut digest = Digest::new();
    for t in 1..6 {
        digest.panel(baseline.release(t).unwrap());
    }
    digest.spend(&baseline);
    digest.0
}

#[test]
fn every_family_releases_its_pinned_bytes() {
    let digests = [
        ("fixed_window", fixed_window_digest()),
        ("cumulative", cumulative_digest()),
        ("windowed_cumulative", windowed_cumulative_digest()),
        ("categorical", categorical_digest()),
        ("baseline", baseline_digest()),
    ];
    let pinned = [
        ("fixed_window", 0x0a4c_fb7b_90c8_3247),
        ("cumulative", 0x41b3_2a69_e7c2_aa62),
        ("windowed_cumulative", 0x04c8_1fc4_4b79_fcef),
        ("categorical", 0xfae4_1869_650e_fa04),
        ("baseline", 0xba0f_030a_f1e3_97db),
    ];
    assert_eq!(digests, pinned, "a family's release digest changed");
}

/// The trait's provided `run` driver is exactly a `step` loop.
#[test]
fn run_driver_equals_step_loop() {
    let data = iid_bernoulli(&mut rng_from_seed(7), 80, 6, 0.5);
    let config = FixedWindowConfig::new(6, 2, Rho::new(0.1).unwrap()).unwrap();
    let mut stepped = FixedWindowSynthesizer::new(config, rng_from_seed(8));
    let mut ran = FixedWindowSynthesizer::new(config, rng_from_seed(8));
    let columns: Vec<_> = data.stream().map(|(_, c)| c.clone()).collect();
    let a: Vec<_> = columns.iter().map(|c| stepped.step(c).unwrap()).collect();
    let b = ran.run(columns.iter()).unwrap();
    assert_eq!(a, b);
    assert_eq!(stepped.synthetic(), ran.synthetic());
}
