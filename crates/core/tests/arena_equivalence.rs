//! Property tests pinning the [`GroupArena`] regrouping bit-identical to
//! the historical `Vec<Vec<u32>>` baseline.
//!
//! Each test reimplements the pre-arena regrouping loop in full — per-id
//! pushes into a fresh `Vec<Vec<u32>>` every round — and drives it with
//! the same seed and the same pooled-entropy draws as the real
//! synthesizer. Because both consume an identical RNG word stream (the
//! replay suite pins that), any divergence in released bits, histogram
//! targets, or clamp counts means the arena's planned segment moves laid
//! records out differently from the old walk — and a wrong layout is
//! *always* observable, since the next round's prefix shuffle permutes
//! whatever sequence the regrouping produced.
//!
//! Coverage per the PR 9 checklist: window `k ∈ {2..6}`, both selection
//! strategies, categorical `V ∈ {2..5}`, empty overlap classes (forced by
//! zeroing one class's bins), and clamped-extension rounds (negative and
//! oversized raw targets are part of the input space).

use longsynth::categorical::{CategoricalConfig, CategoricalSynthesizer};
use longsynth::{
    ContinualSynthesizer, FixedWindowConfig, FixedWindowSynthesizer, HistogramAggregate,
    PaddingPolicy, Release, SelectionStrategy,
};
use longsynth_dp::budget::Rho;
use longsynth_dp::fastrange::RangePool;
use longsynth_dp::rng::rng_from_seed;
use proptest::prelude::*;
use rand::Rng;

// ---------------------------------------------------------------------
// Fixed-window baseline (uniform + stratified)
// ---------------------------------------------------------------------

/// The pre-arena fixed-window state: one id vector per overlap class,
/// rebuilt from scratch by per-id pushes every round.
struct FwVecBaseline {
    k: usize,
    npad: usize,
    stratified: bool,
    groups: Vec<Vec<u32>>,
    flags: Vec<bool>,
    clamps: u64,
}

impl FwVecBaseline {
    /// Mirror `initialize`: ids contiguous per pattern code, grouped by
    /// the dropped-oldest overlap, first `min(npad, count)` per bin
    /// flagged as padding.
    fn init(noisy: &[i64], k: usize, npad: usize, stratified: bool) -> Self {
        let half = 1usize << (k - 1);
        let mask = half - 1;
        let mut groups = vec![Vec::new(); half];
        let mut flags = Vec::new();
        let mut next_id = 0u32;
        for (code, &count) in noisy.iter().enumerate() {
            let count = count.max(0);
            let padded = (npad as i64).min(count);
            for j in 0..count {
                groups[code & mask].push(next_id);
                flags.push(j < padded);
                next_id += 1;
            }
        }
        Self {
            k,
            npad,
            stratified,
            groups,
            flags,
            clamps: 0,
        }
    }

    /// Mirror the pre-arena `extend`: per class the Eq. (3)/(4) split
    /// with its rounding coin, the feasibility clamp, the selection
    /// shuffle(s), then the id-order walk pushing every record into a
    /// fresh successor `Vec<Vec<u32>>`.
    fn extend<R: Rng>(&mut self, noisy: &[i64], rng: &mut R) -> (Vec<bool>, Vec<i64>) {
        let bins = 1usize << self.k;
        let half = bins >> 1;
        let mask = half.wrapping_sub(1);
        let m = self.flags.len();
        let mut bits = vec![false; m];
        let mut targets = vec![0i64; bins];
        let mut new_groups: Vec<Vec<u32>> = vec![Vec::new(); half];
        let mut pool = RangePool::new();
        for z in 0..half {
            let group = &mut self.groups[z];
            let avail = group.len() as i64;
            let c0 = noisy[z << 1];
            let c1 = noisy[(z << 1) | 1];
            let total_diff = avail - (c0 + c1);
            let d1 = if total_diff % 2 == 0 {
                total_diff / 2
            } else if rng.gen_bool(0.5) {
                (total_diff + 1) / 2
            } else {
                (total_diff - 1) / 2
            };
            let mut p1 = c1 + d1;
            if p1 < 0 {
                self.clamps += 1;
                p1 = 0;
            } else if p1 > avail {
                self.clamps += 1;
                p1 = avail;
            }
            let p1 = p1 as usize;
            if self.stratified {
                let (mut pads, mut reals): (Vec<u32>, Vec<u32>) =
                    group.iter().partition(|&&id| self.flags[id as usize]);
                let pad_ones = self
                    .npad
                    .min(pads.len())
                    .min(p1)
                    .max(p1.saturating_sub(reals.len()));
                let real_ones = p1 - pad_ones;
                for (stratum, ones) in [(&mut pads, pad_ones), (&mut reals, real_ones)] {
                    pool.partial_shuffle(rng, stratum, ones);
                    for (j, &id) in stratum.iter().enumerate() {
                        let bit = j < ones;
                        if bit {
                            bits[id as usize] = true;
                        }
                        new_groups[((z << 1) | usize::from(bit)) & mask].push(id);
                    }
                }
            } else {
                pool.partial_shuffle(rng, group, p1);
                for (j, &id) in group.iter().enumerate() {
                    let bit = j < p1;
                    if bit {
                        bits[id as usize] = true;
                    }
                    new_groups[((z << 1) | usize::from(bit)) & mask].push(id);
                }
            }
            targets[z << 1] = avail - p1 as i64;
            targets[(z << 1) | 1] = p1 as i64;
        }
        self.groups = new_groups;
        (bits, targets)
    }
}

#[allow(clippy::too_many_arguments)]
fn run_fixed_window(
    selection: SelectionStrategy,
    padding: PaddingPolicy,
    npad: usize,
    k: usize,
    mut init_counts: Vec<i64>,
    updates: Vec<Vec<i64>>,
    force_empty_class: bool,
    seed: u64,
) {
    let bins = 1usize << k;
    let mask = (bins >> 1) - 1;
    if force_empty_class {
        // Zero every bin whose overlap class is 0 — with npad = 0 this
        // keeps one class empty through initialization.
        for (code, c) in init_counts.iter_mut().enumerate() {
            if code & mask == 0 {
                *c = 0;
            }
        }
    }
    let horizon = k + updates.len();
    let config = FixedWindowConfig::noiseless(horizon, k, Rho::new(0.5).unwrap())
        .unwrap()
        .with_padding(padding)
        .with_selection(selection);
    let n = 100usize;

    // Baseline pass, consuming the same word stream from the same seed.
    let noisy_init: Vec<i64> = init_counts.iter().map(|&c| c + npad as i64).collect();
    let stratified = selection == SelectionStrategy::Stratified;
    let mut baseline = FwVecBaseline::init(&noisy_init, k, npad, stratified);
    let mut rng = rng_from_seed(seed);
    let expected: Vec<(Vec<bool>, Vec<i64>)> = updates
        .iter()
        .map(|raw| {
            let noisy: Vec<i64> = raw.iter().map(|&c| c + npad as i64).collect();
            baseline.extend(&noisy, &mut rng)
        })
        .collect();

    // Real (arena-backed) pass.
    let mut synth = FixedWindowSynthesizer::new(config, rng_from_seed(seed));
    for _ in 1..k {
        synth.finalize(HistogramAggregate::Buffered { n }).unwrap();
    }
    synth
        .finalize(HistogramAggregate::Counts {
            n,
            counts: init_counts,
        })
        .unwrap();
    for (r, raw) in updates.iter().enumerate() {
        match synth
            .finalize(HistogramAggregate::Counts {
                n,
                counts: raw.clone(),
            })
            .unwrap()
        {
            Release::Update(col) => {
                let (bits, targets) = &expected[r];
                for (i, &bit) in bits.iter().enumerate() {
                    assert_eq!(col.get(i), bit, "update {r}, record {i}");
                }
                assert_eq!(
                    synth.histogram_estimate(k + r).unwrap(),
                    targets.as_slice(),
                    "update {r} targets"
                );
            }
            other => panic!("expected update release, got {other:?}"),
        }
    }
    assert_eq!(synth.failures().clamped_extensions, baseline.clamps);
}

// ---------------------------------------------------------------------
// Categorical baseline
// ---------------------------------------------------------------------

/// The pre-arena categorical state: per-overlap id vectors rebuilt by
/// per-id pushes, with the historical bonus/targets/chosen scratch.
struct CatVecBaseline {
    v: usize,
    groups: Vec<Vec<u32>>,
    n_star: usize,
    clamps: u64,
}

impl CatVecBaseline {
    fn init(noisy: &[i64], v: usize, k: usize) -> (Self, Vec<Vec<u8>>) {
        let overlaps = v.pow(k as u32 - 1);
        let mut groups = vec![Vec::new(); overlaps];
        let mut columns: Vec<Vec<u8>> = vec![Vec::new(); k];
        let mut next_id = 0u32;
        for (code, &count) in noisy.iter().enumerate() {
            let count = count.max(0);
            for _ in 0..count {
                groups[code % overlaps].push(next_id);
                for (t, column) in columns.iter_mut().enumerate() {
                    column.push(((code / v.pow((k - 1 - t) as u32)) % v) as u8);
                }
                next_id += 1;
            }
        }
        let n_star = next_id as usize;
        (
            Self {
                v,
                groups,
                n_star,
                clamps: 0,
            },
            columns,
        )
    }

    fn extend<R: Rng>(&mut self, noisy: &[i64], rng: &mut R) -> (Vec<u8>, Vec<i64>) {
        let v = self.v;
        let overlaps = self.groups.len();
        let mut column = vec![0u8; self.n_star];
        let mut released = vec![0i64; noisy.len()];
        let mut new_groups: Vec<Vec<u32>> = vec![Vec::new(); overlaps];
        let mut pool = RangePool::new();
        for z in 0..overlaps {
            let group = &mut self.groups[z];
            let avail = group.len() as i64;
            let base_code = z * v;
            let c_sum: i64 = (0..v).map(|c| noisy[base_code + c]).sum();
            let defect = avail - c_sum;
            let share = defect.div_euclid(v as i64);
            let remainder = defect.rem_euclid(v as i64) as usize;
            let mut bonus = vec![0i64; v];
            let mut chosen: Vec<u32> = (0..v as u32).collect();
            pool.partial_shuffle(rng, &mut chosen, remainder);
            for &c in chosen.iter().take(remainder) {
                bonus[c as usize] = 1;
            }
            let mut targets: Vec<i64> = (0..v)
                .map(|c| noisy[base_code + c] + share + bonus[c])
                .collect();
            let mut deficit = 0i64;
            for t in targets.iter_mut() {
                if *t < 0 {
                    self.clamps += 1;
                    deficit += -*t;
                    *t = 0;
                }
            }
            while deficit > 0 {
                let (idx, _) = targets
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &t)| t)
                    .expect("v >= 2");
                let take = deficit.min(targets[idx]);
                assert!(take > 0, "absorption always progresses");
                targets[idx] -= take;
                deficit -= take;
            }
            let len = group.len();
            pool.partial_shuffle(rng, group, len);
            let mut cursor = 0usize;
            for (c, &target) in targets.iter().enumerate() {
                for &id in &group[cursor..cursor + target as usize] {
                    column[id as usize] = c as u8;
                    new_groups[(base_code + c) % overlaps].push(id);
                }
                released[base_code + c] = target;
                cursor += target as usize;
            }
            assert_eq!(cursor, len);
        }
        self.groups = new_groups;
        (column, released)
    }
}

// ---------------------------------------------------------------------
// Input generation
// ---------------------------------------------------------------------
//
// The vendored proptest has no `prop_flat_map`, so count vectors are
// generated at the maximum bin width (64 = 2^6 ≥ 5^2·… cap below) and
// sliced down to the case's actual `bins`. Init bins are non-negative
// (zeros included — empty classes); update bins span negative
// (clamp-to-zero) through oversized (clamp-to-avail) raw targets.

/// Slice a max-width count matrix down to `bins` columns.
fn slice_counts(raw: &[Vec<i64>], bins: usize) -> Vec<Vec<i64>> {
    raw.iter().map(|row| row[..bins].to_vec()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Uniform selection, no padding, `k ∈ {2..6}`.
    #[test]
    fn fixed_window_uniform_matches_vec_baseline(
        k in 2usize..=6,
        init in collection::vec(0i64..10, 64),
        updates in collection::vec(collection::vec(-4i64..12, 64), 2..5),
        empty in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let bins = 1usize << k;
        run_fixed_window(
            SelectionStrategy::Uniform,
            PaddingPolicy::None,
            0,
            k,
            init[..bins].to_vec(),
            slice_counts(&updates, bins),
            empty,
            seed,
        );
    }

    /// Stratified selection with fixed padding (two shuffles per class),
    /// `k ∈ {2..6}`.
    #[test]
    fn fixed_window_stratified_matches_vec_baseline(
        k in 2usize..=6,
        init in collection::vec(0i64..10, 64),
        updates in collection::vec(collection::vec(-4i64..12, 64), 2..5),
        empty in any::<bool>(),
        seed in any::<u64>(),
        npad in 1usize..4,
    ) {
        let bins = 1usize << k;
        run_fixed_window(
            SelectionStrategy::Stratified,
            PaddingPolicy::Fixed(npad as u64),
            npad,
            k,
            init[..bins].to_vec(),
            slice_counts(&updates, bins),
            empty,
            seed,
        );
    }

    /// Categorical extension, `V ∈ {2..5}` with `k ∈ {2, 3}` (up to
    /// 5^3 = 125 bins).
    #[test]
    fn categorical_matches_vec_baseline(
        k in 2usize..=3,
        v in 2usize..=5,
        init_raw in collection::vec(0i64..8, 125),
        updates_raw in collection::vec(collection::vec(-3i64..9, 125), 2..5),
        empty in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let bins = v.pow(k as u32);
        let mut init = init_raw[..bins].to_vec();
        let updates = slice_counts(&updates_raw, bins);
        let overlaps = v.pow(k as u32 - 1);
        if empty {
            for (code, c) in init.iter_mut().enumerate() {
                if code % overlaps == 0 {
                    *c = 0;
                }
            }
        }
        let horizon = k + updates.len();
        let config = CategoricalConfig::noiseless(horizon, k, v as u8, Rho::new(0.5).unwrap())
            .unwrap()
            .with_npad(0);
        let n = 100usize;

        let (mut baseline, mut columns) = CatVecBaseline::init(&init, v, k);
        let mut rng = rng_from_seed(seed);
        let mut released_targets = Vec::new();
        for raw in &updates {
            let (column, targets) = baseline.extend(raw, &mut rng);
            columns.push(column);
            released_targets.push(targets);
        }

        let mut synth = CategoricalSynthesizer::new(config, rng_from_seed(seed));
        for _ in 1..k {
            synth.finalize(HistogramAggregate::Buffered { n }).unwrap();
        }
        synth
            .finalize(HistogramAggregate::Counts { n, counts: init })
            .unwrap();
        for raw in &updates {
            synth
                .finalize(HistogramAggregate::Counts { n, counts: raw.clone() })
                .unwrap();
        }
        prop_assert_eq!(synth.n_star(), baseline.n_star);
        for (t, expected) in columns.iter().enumerate() {
            prop_assert_eq!(synth.round_values(t).unwrap(), expected.as_slice(), "round {}", t);
        }
        for (r, targets) in released_targets.iter().enumerate() {
            prop_assert_eq!(
                synth.histogram_estimate(k + r).unwrap(),
                targets.as_slice(),
                "update {} targets",
                r
            );
        }
        prop_assert_eq!(synth.clamps(), baseline.clamps);
    }
}
