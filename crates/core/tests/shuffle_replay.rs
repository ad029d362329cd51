//! Decision-equivalence replay tests for the pooled-entropy shuffle
//! migration (the `fastcoin` replay-test pattern, applied to
//! `RangePool::partial_shuffle`).
//!
//! Every synthesizer shuffle site moved from scalar `gen_range` draws to
//! the bit-pooled `RangePool`, which changes the RNG *word stream* but must
//! not change the *decision semantics*: given the same logical Fisher–Yates
//! decisions `d_j ∈ [0, len−j)`, the migrated site must produce exactly the
//! records the old per-draw loop would have produced, in the same order,
//! with every interleaved non-pooled draw (`gen_bool` tie-breaks, noise)
//! landing on the same words.
//!
//! Each test scripts a chosen decision sequence with
//! [`PoolPacker`]/[`WordScript`], replays it through the real synthesizer,
//! and checks the released output against an independent simulation that
//! applies the *same decisions* through the pre-migration loop semantics.
//! The five migrated sites:
//!
//! 1. cumulative persistent finalize (per-threshold promotions),
//! 2. cumulative windowed finalize (promote/stay/reset plan),
//! 3. fixed-window extend, uniform selection (plus `gen_bool` interleave),
//! 4. fixed-window extend, stratified selection (two strata per bin),
//! 5. categorical extend (defect-bonus pick + full-group shuffle).
//!
//! The `GroupArena` regrouping rewrite replays the same five sites through
//! the same scripts (bulk segment carries must not perturb the word
//! stream), plus two `k = 1` tests pinning the degenerate single-class
//! layout where **every** successor segment lands back in the one overlap
//! class — the case most sensitive to the arena's carry order.

use longsynth::categorical::{CategoricalConfig, CategoricalSynthesizer};
use longsynth::{
    ContinualSynthesizer, CumulativeAggregate, CumulativeConfig, CumulativeSynthesizer,
    FixedWindowConfig, FixedWindowSynthesizer, HistogramAggregate, PaddingPolicy, Release,
    SelectionStrategy,
};
use longsynth_data::generators::iid_bernoulli;
use longsynth_dp::budget::Rho;
use longsynth_dp::fastrange::replay::PoolPacker;
use longsynth_dp::rng::{rng_from_seed, RngFork};
use rand::Rng;

/// Old-path Fisher–Yates prefix: draw `k` decisions from `meta`, apply them
/// to `group` exactly as the pre-migration `gen_range` loop did, and pack
/// each one into the pooled word stream. The pick count mirrors
/// `RangePool::partial_shuffle`'s entropy-free cutoff (`min(k, len − 1)`).
fn scripted_shuffle<R: Rng>(group: &mut [u32], k: usize, meta: &mut R, packer: &mut PoolPacker) {
    let len = group.len();
    let stop = k.min(len.saturating_sub(1));
    for j in 0..stop {
        let bound = len - j;
        let d = meta.gen_range(0..bound);
        packer.uniform(d as u64, bound as u64);
        group.swap(j, j + d);
    }
}

/// `gen_bool(0.5)` consumes one raw word around the pool: the 53-bit
/// standard-uniform comparison reads word `0` as `true` and `1 << 63`
/// (exactly 0.5) as `false`.
fn pack_coin(packer: &mut PoolPacker, heads: bool) {
    packer.direct(if heads { 0 } else { 1u64 << 63 });
}

// ---------------------------------------------------------------------
// Site 1: cumulative persistent finalize
// ---------------------------------------------------------------------

/// Probe-run the persistent synthesizer to learn its promotion schedule
/// (the noise counters fork off independent streams, so the schedule is
/// invariant to the shuffle rng), re-derive the promotions from the public
/// threshold estimates, replay a fresh decision script through the real
/// pooled path, and check the released columns against the old-loop
/// simulation of those same decisions.
#[test]
fn cumulative_persistent_promotions_replay_the_scalar_loop() {
    let (n, horizon) = (60usize, 5usize);
    let fork_seed = 11u64;
    let data = iid_bernoulli(&mut rng_from_seed(0xC0FE), n, horizon, 0.5);
    let config = CumulativeConfig::new(horizon, Rho::new(0.5).unwrap()).unwrap();

    // Probe: any shuffle rng yields the same promotion schedule.
    let mut probe = CumulativeSynthesizer::new(config, RngFork::new(fork_seed), rng_from_seed(999));
    for (_, col) in data.stream() {
        probe.step(col).unwrap();
    }
    let est: Vec<Vec<i64>> = (0..horizon)
        .map(|t| probe.threshold_estimates(t).unwrap().to_vec())
        .collect();

    // Simulate the old per-draw loop under chosen decisions, packing the
    // pooled word stream as we go (fresh pool per finalize call).
    let mut meta = rng_from_seed(0x5EED);
    let mut packer = PoolPacker::new();
    let mut groups: Vec<Vec<u32>> = vec![(0..n as u32).collect()];
    let mut expected: Vec<Vec<bool>> = Vec::new();
    let mut total_promotions = 0usize;
    for t in 1..=horizon {
        packer.reset_pool();
        let promotions: Vec<usize> = (0..=t)
            .map(|b| {
                if b == 0 {
                    return 0;
                }
                let prev = if t >= 2 { est[t - 2][b] } else { 0 };
                (est[t - 1][b] - prev) as usize
            })
            .collect();
        let mut bits = vec![false; n];
        for b in 1..=t {
            let want = promotions[b];
            if want == 0 {
                continue;
            }
            let group = &mut groups[b - 1];
            assert!(want <= group.len(), "schedule must fit the class");
            scripted_shuffle(group, want, &mut meta, &mut packer);
            for &id in group.iter().take(want) {
                bits[id as usize] = true;
            }
            total_promotions += want;
        }
        groups.push(Vec::new());
        for b in (1..=t).rev() {
            let want = promotions[b];
            if want == 0 {
                continue;
            }
            let promoted: Vec<u32> = groups[b - 1].drain(..want).collect();
            groups[b].extend(promoted);
        }
        expected.push(bits);
    }
    assert!(total_promotions > 0, "scenario must exercise the shuffle");

    // Replay the packed decisions through the real pooled path.
    let mut replay =
        CumulativeSynthesizer::new(config, RngFork::new(fork_seed), packer.into_script());
    for (t, (_, col)) in data.stream().enumerate() {
        let released = replay.step(col).unwrap();
        for (i, &bit) in expected[t].iter().enumerate() {
            assert_eq!(released.get(i), bit, "round {t}, record {i}");
        }
    }
    // Same noise fork + same data ⇒ the schedule itself is unchanged.
    for (t, row) in est.iter().enumerate() {
        assert_eq!(replay.threshold_estimates(t).unwrap(), row.as_slice());
    }
}

// ---------------------------------------------------------------------
// Site 2: cumulative windowed finalize
// ---------------------------------------------------------------------

/// Windowed mode: the promote/stay/reset plan is a deterministic function
/// of the released row and the class sizes, so the probe's public
/// `threshold_estimates` rows pin it exactly; replay chosen decisions
/// through the real pooled path and compare against the old-loop
/// simulation.
#[test]
fn cumulative_windowed_reconciliation_replays_the_scalar_loop() {
    let (n, horizon, window) = (50usize, 6usize, 2usize);
    let fork_seed = 29u64;
    let config = CumulativeConfig::new(horizon, Rho::new(1.0).unwrap())
        .unwrap()
        .with_window(window)
        .unwrap();
    let aggregate = |t: usize| CumulativeAggregate {
        n,
        increments: (0..t)
            .map(|b| match b {
                0 => 14u64,
                1 => 6,
                _ => 0,
            })
            .collect(),
    };

    // Probe: realized rows (the windowed noise comes from forked streams,
    // independent of the shuffle rng).
    let mut probe = CumulativeSynthesizer::new(config, RngFork::new(fork_seed), rng_from_seed(999));
    for t in 1..=horizon {
        probe.finalize(aggregate(t)).unwrap();
    }
    let est: Vec<Vec<i64>> = (0..horizon)
        .map(|t| probe.threshold_estimates(t).unwrap().to_vec())
        .collect();

    // Old-loop simulation: derive stays/promotes from the realized row
    // (`need_b = realized_b − realized_{b+1}`, stays fill from the class
    // itself, promotions from one below — exactly the descending greedy),
    // then apply the per-class shuffle with chosen decisions.
    let mut meta = rng_from_seed(0xA11CE);
    let mut packer = PoolPacker::new();
    let mut groups: Vec<Vec<u32>> = vec![Vec::new(); window + 1];
    groups[0] = (0..n as u32).collect();
    let mut expected: Vec<Vec<bool>> = Vec::new();
    for t in 1..=horizon {
        packer.reset_pool();
        let row = &est[t - 1];
        let mut avail: Vec<usize> = groups.iter().map(Vec::len).collect();
        let mut stays = vec![0usize; window + 1];
        let mut promotes = vec![0usize; window + 1];
        for b in (1..=window).rev() {
            let above = if b < window { row[b + 1] } else { 0 };
            let need = (row[b] - above) as usize;
            let stay = need.min(avail[b]);
            avail[b] -= stay;
            let promote = need - stay;
            assert!(promote <= avail[b - 1], "realized row must be feasible");
            avail[b - 1] -= promote;
            stays[b] = stay;
            promotes[b] = promote;
        }
        let mut next_groups: Vec<Vec<u32>> = vec![Vec::new(); window + 1];
        let mut bits = vec![false; n];
        for w in (0..=window).rev() {
            let mut group = std::mem::take(&mut groups[w]);
            let promote = if w < window { promotes[w + 1] } else { 0 };
            let stay = if w >= 1 { stays[w] } else { 0 };
            assert!(promote + stay <= group.len(), "plan fits the class");
            scripted_shuffle(&mut group, promote + stay, &mut meta, &mut packer);
            for &id in group.iter().take(promote) {
                bits[id as usize] = true;
                next_groups[w + 1].push(id);
            }
            next_groups[w].extend(group.iter().skip(promote).take(stay).copied());
            next_groups[0].extend(group.iter().skip(promote + stay).copied());
        }
        groups = next_groups;
        expected.push(bits);
    }

    // Replay through the real pooled path.
    let mut replay =
        CumulativeSynthesizer::new(config, RngFork::new(fork_seed), packer.into_script());
    for t in 1..=horizon {
        let released = replay.finalize(aggregate(t)).unwrap();
        for (i, &bit) in expected[t - 1].iter().enumerate() {
            assert_eq!(released.get(i), bit, "round {t}, record {i}");
        }
    }
    for (t, row) in est.iter().enumerate() {
        assert_eq!(replay.threshold_estimates(t).unwrap(), row.as_slice());
    }
}

// ---------------------------------------------------------------------
// Sites 3–4: fixed-window extend (uniform and stratified selection)
// ---------------------------------------------------------------------

/// Shared old-loop simulation state for the fixed-window extend step
/// (`k = 2`: four pattern bins, two overlap classes).
struct FwSim {
    groups: Vec<Vec<u32>>,
    flags: Vec<bool>,
    npad: usize,
}

impl FwSim {
    /// Mirror `initialize`: contiguous ids per pattern code, overlap =
    /// newest bit, first `min(npad, count)` ids per bin flagged as padding.
    fn init(noisy: &[i64], npad: usize) -> (Self, Vec<Vec<bool>>) {
        let mut groups = vec![Vec::new(), Vec::new()];
        let mut flags = Vec::new();
        let total: i64 = noisy.iter().sum();
        let mut columns = vec![Vec::new(); 2];
        let mut next_id = 0u32;
        for (code, &count) in noisy.iter().enumerate() {
            assert!(count >= 0, "test scenario must not clamp");
            for j in 0..count {
                groups[code & 1].push(next_id);
                flags.push(j < (npad as i64).min(count));
                columns[0].push(code >> 1 == 1);
                columns[1].push(code & 1 == 1);
                next_id += 1;
            }
        }
        assert_eq!(next_id as i64, total);
        (
            Self {
                groups,
                flags,
                npad,
            },
            columns,
        )
    }

    /// Mirror the pre-migration `extend` under chosen decisions: per
    /// overlap class, the Eq. (3)/(4) split (with a scripted coin for the
    /// odd half-integer case), then the selection shuffle(s) and the
    /// id-order reassignment. `coins[z]` must be `Some` exactly when class
    /// `z` has an odd total difference.
    fn extend<R: Rng>(
        &mut self,
        noisy: &[i64],
        selection: SelectionStrategy,
        coins: &[Option<bool>],
        meta: &mut R,
        packer: &mut PoolPacker,
    ) -> Vec<bool> {
        let m = self.flags.len();
        packer.reset_pool();
        let mut bits = vec![false; m];
        let mut new_groups = vec![Vec::new(), Vec::new()];
        for z in 0..2usize {
            let group = &mut self.groups[z];
            let avail = group.len() as i64;
            let c0 = noisy[z << 1];
            let c1 = noisy[(z << 1) | 1];
            let total_diff = avail - (c0 + c1);
            let (_d0, d1) = if total_diff % 2 == 0 {
                assert!(coins[z].is_none(), "even split must not script a coin");
                (total_diff / 2, total_diff / 2)
            } else {
                let heads = coins[z].expect("odd split needs a scripted coin");
                pack_coin(packer, heads);
                if heads {
                    ((total_diff - 1) / 2, (total_diff + 1) / 2)
                } else {
                    ((total_diff + 1) / 2, (total_diff - 1) / 2)
                }
            };
            let p1 = c1 + d1;
            assert!(
                (0..=avail).contains(&p1),
                "test scenario must stay clamp-free"
            );
            let p1 = p1 as usize;
            match selection {
                SelectionStrategy::Uniform => {
                    scripted_shuffle(group, p1, meta, packer);
                    for (j, &id) in group.iter().enumerate() {
                        let bit = j < p1;
                        bits[id as usize] = bit;
                        new_groups[usize::from(bit)].push(id);
                    }
                }
                SelectionStrategy::Stratified => {
                    let (mut pads, mut reals): (Vec<u32>, Vec<u32>) =
                        group.iter().partition(|&&id| self.flags[id as usize]);
                    let pad_ones = self
                        .npad
                        .min(pads.len())
                        .min(p1)
                        .max(p1.saturating_sub(reals.len()));
                    let real_ones = p1 - pad_ones;
                    assert!(
                        pad_ones > 0 && real_ones > 0,
                        "scenario must exercise both strata"
                    );
                    for (stratum, ones) in [(&mut pads, pad_ones), (&mut reals, real_ones)] {
                        scripted_shuffle(stratum, ones, meta, packer);
                        for (j, &id) in stratum.iter().enumerate() {
                            let bit = j < ones;
                            bits[id as usize] = bit;
                            new_groups[usize::from(bit)].push(id);
                        }
                    }
                }
            }
        }
        self.groups = new_groups;
        bits
    }
}

fn run_fixed_window_replay(
    selection: SelectionStrategy,
    padding: PaddingPolicy,
    npad: usize,
    init_counts: Vec<i64>,
    rounds: Vec<(Vec<i64>, [Option<bool>; 2])>,
) {
    let horizon = 2 + rounds.len();
    let config = FixedWindowConfig::noiseless(horizon, 2, Rho::new(0.5).unwrap())
        .unwrap()
        .with_padding(padding)
        .with_selection(selection);
    let n: i64 = init_counts.iter().sum();
    let n = n as usize;

    // Old-loop simulation with chosen decisions. With the noise override
    // the "noisy" histogram is exactly counts + npad per bin.
    let noisy_init: Vec<i64> = init_counts.iter().map(|&c| c + npad as i64).collect();
    let (mut sim, init_columns) = FwSim::init(&noisy_init, npad);
    let mut meta = rng_from_seed(0xF00D);
    let mut packer = PoolPacker::new();
    let expected: Vec<Vec<bool>> = rounds
        .iter()
        .map(|(raw, coins)| {
            let noisy: Vec<i64> = raw.iter().map(|&c| c + npad as i64).collect();
            sim.extend(&noisy, selection, coins, &mut meta, &mut packer)
        })
        .collect();

    // Replay through the real synthesizer, driving finalize standalone.
    let mut synth = FixedWindowSynthesizer::new(config, packer.into_script());
    assert_eq!(
        synth.finalize(HistogramAggregate::Buffered { n }).unwrap(),
        Release::Buffered
    );
    match synth
        .finalize(HistogramAggregate::Counts {
            n,
            counts: init_counts,
        })
        .unwrap()
    {
        Release::Initial(cols) => {
            for (t, col) in cols.iter().enumerate() {
                for (i, &bit) in init_columns[t].iter().enumerate() {
                    assert_eq!(col.get(i), bit, "init round {t}, record {i}");
                }
            }
        }
        other => panic!("expected initial release, got {other:?}"),
    }
    for (r, (raw, _)) in rounds.iter().enumerate() {
        match synth
            .finalize(HistogramAggregate::Counts {
                n,
                counts: raw.clone(),
            })
            .unwrap()
        {
            Release::Update(col) => {
                for (i, &bit) in expected[r].iter().enumerate() {
                    assert_eq!(col.get(i), bit, "update {r}, record {i}");
                }
            }
            other => panic!("expected update release, got {other:?}"),
        }
    }
    assert_eq!(synth.failures().clamped_extensions, 0);
}

/// Uniform selection: one shuffle per overlap class, with the odd-diff
/// `gen_bool` tie-break interleaved between pooled draws in both coin
/// directions across the two update rounds.
#[test]
fn fixed_window_uniform_extend_replays_the_scalar_loop() {
    run_fixed_window_replay(
        SelectionStrategy::Uniform,
        PaddingPolicy::None,
        0,
        vec![10, 7, 5, 8],
        vec![
            // z=0: avail 15, targets 6+6 → diff 3 (odd, heads); z=1: avail
            // 15, targets 7+8 → diff 0 (even).
            (vec![6, 6, 7, 8], [Some(true), None]),
            // z=0: avail 14, 6+5 → diff 3 (odd, tails); z=1: avail 16,
            // 7+6 → diff 3 (odd, heads).
            (vec![6, 5, 7, 6], [Some(false), Some(true)]),
        ],
    );
}

/// Stratified selection: two shuffles per overlap class (padding stratum
/// first, then the real records), both strata non-trivial in every class.
#[test]
fn fixed_window_stratified_extend_replays_the_scalar_loop() {
    run_fixed_window_replay(
        SelectionStrategy::Stratified,
        PaddingPolicy::Fixed(2),
        2,
        vec![5, 4, 3, 6],
        vec![
            // npad=2 inflates both the init bins and the update targets.
            // z=0: avail 12, noisy 5+5 → diff 2 (even); z=1: avail 14,
            // noisy 6+5 → diff 3 (odd, heads).
            (vec![3, 3, 4, 3], [None, Some(true)]),
            // z=0: avail 11, noisy 4+4 → diff 3 (odd, tails); z=1: avail
            // 15, noisy 6+7 → diff 2 (even).
            (vec![2, 2, 4, 5], [Some(false), None]),
        ],
    );
}

/// `k = 1` uniform selection: one overlap class (`mask = 0`), so both the
/// ones-prefix and zeros-suffix segments carry back into that same class.
/// The historical id-order walk emitted the prefix entries before the
/// suffix entries; the arena must carry them in that order or the next
/// round's shuffle permutes different records.
#[test]
fn fixed_window_k1_single_class_extend_replays_the_scalar_loop() {
    let rounds: Vec<(Vec<i64>, Option<bool>)> = vec![
        // avail is always 10. diff 0 (even), diff 3 (odd, heads), diff 3
        // (odd, tails): both coin directions and a coin-free round.
        (vec![5, 5], None),
        (vec![4, 3], Some(true)),
        (vec![3, 4], Some(false)),
    ];
    let horizon = 1 + rounds.len();
    let config = FixedWindowConfig::noiseless(horizon, 1, Rho::new(0.5).unwrap())
        .unwrap()
        .with_padding(PaddingPolicy::None)
        .with_selection(SelectionStrategy::Uniform);
    let init_counts = vec![6i64, 4];
    let n = 10usize;

    // Old-loop simulation: ids contiguous per pattern code, all in the
    // single overlap class; each round shuffles a p1-prefix and reassigns
    // in id-walk order (prefix → 1-bit, suffix → 0-bit, both staying in
    // class 0 with the prefix first).
    let mut group: Vec<u32> = (0..n as u32).collect();
    let init_column: Vec<bool> = (0..n).map(|i| i >= 6).collect();
    let mut meta = rng_from_seed(0xB0B);
    let mut packer = PoolPacker::new();
    let expected: Vec<Vec<bool>> = rounds
        .iter()
        .map(|(raw, coin)| {
            packer.reset_pool();
            let avail = group.len() as i64;
            let total_diff = avail - (raw[0] + raw[1]);
            let d1 = if total_diff % 2 == 0 {
                assert!(coin.is_none(), "even split must not script a coin");
                total_diff / 2
            } else {
                let heads = coin.expect("odd split needs a scripted coin");
                pack_coin(&mut packer, heads);
                if heads {
                    (total_diff + 1) / 2
                } else {
                    (total_diff - 1) / 2
                }
            };
            let p1 = (raw[1] + d1) as usize;
            scripted_shuffle(&mut group, p1, &mut meta, &mut packer);
            let mut bits = vec![false; n];
            for &id in group.iter().take(p1) {
                bits[id as usize] = true;
            }
            bits
        })
        .collect();

    // Replay through the real synthesizer (k = 1 releases immediately).
    let mut synth = FixedWindowSynthesizer::new(config, packer.into_script());
    match synth
        .finalize(HistogramAggregate::Counts {
            n,
            counts: init_counts,
        })
        .unwrap()
    {
        Release::Initial(cols) => {
            assert_eq!(cols.len(), 1);
            for (i, &bit) in init_column.iter().enumerate() {
                assert_eq!(cols[0].get(i), bit, "init record {i}");
            }
        }
        other => panic!("expected initial release, got {other:?}"),
    }
    for (r, (raw, _)) in rounds.iter().enumerate() {
        match synth
            .finalize(HistogramAggregate::Counts {
                n,
                counts: raw.clone(),
            })
            .unwrap()
        {
            Release::Update(col) => {
                for (i, &bit) in expected[r].iter().enumerate() {
                    assert_eq!(col.get(i), bit, "update {r}, record {i}");
                }
            }
            other => panic!("expected update release, got {other:?}"),
        }
    }
    assert_eq!(synth.failures().clamped_extensions, 0);
}

// ---------------------------------------------------------------------
// Site 5: categorical extend
// ---------------------------------------------------------------------

/// Categorical extension (`V = 3`, `k = 2`): per overlap class, the
/// defect-bonus category pick followed by the full-group shuffle, replayed
/// against the old-loop simulation. Crafted counts force a nonzero bonus
/// remainder so the category pick actually draws.
#[test]
fn categorical_extend_replays_the_scalar_loop() {
    let (v, k, horizon) = (3usize, 2usize, 4usize);
    let overlaps = v; // V^(k-1)
    let config = CategoricalConfig::noiseless(horizon, k, v as u8, Rho::new(0.5).unwrap())
        .unwrap()
        .with_npad(0);
    let init_counts: Vec<i64> = vec![4, 3, 2, 3, 4, 2, 2, 3, 4];
    let n = init_counts.iter().sum::<i64>() as usize;
    // Two update rounds of raw counts (noise-free, zero padding: these are
    // the extension targets before defect correction).
    let update_counts: Vec<Vec<i64>> = vec![
        vec![2, 3, 2, 3, 3, 3, 3, 3, 2],
        vec![3, 2, 3, 2, 3, 3, 3, 2, 2],
    ];

    // Old-loop simulation. Init mirrors `initialize`: contiguous ids per
    // code, overlap = code mod V, column t's digit = code's t-th base-V
    // digit (oldest first).
    let mut groups: Vec<Vec<u32>> = vec![Vec::new(); overlaps];
    let mut columns: Vec<Vec<u8>> = vec![Vec::new(); k];
    let mut next_id = 0u32;
    for (code, &count) in init_counts.iter().enumerate() {
        for _ in 0..count {
            groups[code % overlaps].push(next_id);
            columns[0].push((code / v) as u8);
            columns[1].push((code % v) as u8);
            next_id += 1;
        }
    }
    let mut meta = rng_from_seed(0xCA7);
    let mut packer = PoolPacker::new();
    let mut bonus_rounds = 0usize;
    for raw in &update_counts {
        packer.reset_pool();
        let mut column = vec![0u8; n];
        let mut new_groups: Vec<Vec<u32>> = vec![Vec::new(); overlaps];
        for z in 0..overlaps {
            let group = &mut groups[z];
            let avail = group.len() as i64;
            let base_code = z * v;
            let c_sum: i64 = (0..v).map(|c| raw[base_code + c]).sum();
            let defect = avail - c_sum;
            let share = defect.div_euclid(v as i64);
            let remainder = defect.rem_euclid(v as i64) as usize;
            if remainder > 0 {
                bonus_rounds += 1;
            }
            let mut bonus = vec![0i64; v];
            let mut chosen: Vec<u32> = (0..v as u32).collect();
            scripted_shuffle(&mut chosen, remainder, &mut meta, &mut packer);
            for &c in chosen.iter().take(remainder) {
                bonus[c as usize] = 1;
            }
            let targets: Vec<i64> = (0..v)
                .map(|c| raw[base_code + c] + share + bonus[c])
                .collect();
            assert!(
                targets.iter().all(|&t| t >= 0),
                "test scenario must stay clamp-free"
            );
            assert_eq!(targets.iter().sum::<i64>(), avail);
            let len = group.len();
            scripted_shuffle(group, len, &mut meta, &mut packer);
            let mut cursor = 0usize;
            for (c, &target) in targets.iter().enumerate() {
                let target = target as usize;
                for &id in &group[cursor..cursor + target] {
                    column[id as usize] = c as u8;
                    new_groups[(z * v + c) % overlaps].push(id);
                }
                cursor += target;
            }
            assert_eq!(cursor, len);
        }
        columns.push(column);
        groups = new_groups;
    }
    assert!(bonus_rounds > 0, "scenario must exercise the bonus pick");

    // Replay through the real synthesizer.
    let mut synth = CategoricalSynthesizer::new(config, packer.into_script());
    synth.finalize(HistogramAggregate::Buffered { n }).unwrap();
    synth
        .finalize(HistogramAggregate::Counts {
            n,
            counts: init_counts,
        })
        .unwrap();
    for raw in &update_counts {
        synth
            .finalize(HistogramAggregate::Counts {
                n,
                counts: raw.clone(),
            })
            .unwrap();
    }
    assert_eq!(synth.clamps(), 0, "replay must be clamp-free too");
    assert_eq!(synth.n_star(), n);
    for (t, expected) in columns.iter().enumerate() {
        assert_eq!(
            synth.round_values(t).unwrap(),
            expected.as_slice(),
            "round {t}"
        );
    }
}

/// Categorical `k = 1` (`V = 3`): a single overlap class receiving all
/// `V` per-category segments — the arena must carry them in ascending
/// category order (the historical push order) for the next round's
/// full-group shuffle to permute the same sequence.
#[test]
fn categorical_k1_single_class_extend_replays_the_scalar_loop() {
    let (v, horizon) = (3usize, 3usize);
    let config = CategoricalConfig::noiseless(horizon, 1, v as u8, Rho::new(0.5).unwrap())
        .unwrap()
        .with_npad(0);
    let init_counts: Vec<i64> = vec![4, 3, 3];
    let n = init_counts.iter().sum::<i64>() as usize;
    let update_counts: Vec<Vec<i64>> = vec![
        vec![3, 3, 3], // defect 1 → remainder 1: bonus pick draws
        vec![4, 2, 4], // defect 0 → no bonus draw
    ];

    // Old-loop simulation: one class holding every id; per round the
    // bonus pick, the full-group shuffle, then category segments sliced
    // in ascending order (all staying in the one class).
    let mut group: Vec<u32> = (0..n as u32).collect();
    let mut columns: Vec<Vec<u8>> = vec![Vec::new()];
    for (code, &count) in init_counts.iter().enumerate() {
        for _ in 0..count {
            columns[0].push(code as u8);
        }
    }
    let mut meta = rng_from_seed(0xD06);
    let mut packer = PoolPacker::new();
    for raw in &update_counts {
        packer.reset_pool();
        let avail = group.len() as i64;
        let c_sum: i64 = raw.iter().sum();
        let defect = avail - c_sum;
        let share = defect.div_euclid(v as i64);
        let remainder = defect.rem_euclid(v as i64) as usize;
        let mut bonus = vec![0i64; v];
        let mut chosen: Vec<u32> = (0..v as u32).collect();
        scripted_shuffle(&mut chosen, remainder, &mut meta, &mut packer);
        for &c in chosen.iter().take(remainder) {
            bonus[c as usize] = 1;
        }
        let targets: Vec<i64> = (0..v).map(|c| raw[c] + share + bonus[c]).collect();
        assert_eq!(targets.iter().sum::<i64>(), avail);
        assert!(targets.iter().all(|&t| t >= 0), "scenario stays clamp-free");
        let len = group.len();
        scripted_shuffle(&mut group, len, &mut meta, &mut packer);
        let mut column = vec![0u8; n];
        let mut cursor = 0usize;
        for (c, &target) in targets.iter().enumerate() {
            for &id in &group[cursor..cursor + target as usize] {
                column[id as usize] = c as u8;
            }
            cursor += target as usize;
        }
        assert_eq!(cursor, len);
        columns.push(column);
        // All segments stay in the single class, ascending-c order — the
        // concatenation is the shuffled group itself, so `group` already
        // holds next round's class order.
    }

    // Replay through the real synthesizer (k = 1 releases immediately).
    let mut synth = CategoricalSynthesizer::new(config, packer.into_script());
    synth
        .finalize(HistogramAggregate::Counts {
            n,
            counts: init_counts,
        })
        .unwrap();
    for raw in &update_counts {
        synth
            .finalize(HistogramAggregate::Counts {
                n,
                counts: raw.clone(),
            })
            .unwrap();
    }
    assert_eq!(synth.clamps(), 0, "replay must be clamp-free too");
    for (t, expected) in columns.iter().enumerate() {
        assert_eq!(
            synth.round_values(t).unwrap(),
            expected.as_slice(),
            "round {t}"
        );
    }
}
