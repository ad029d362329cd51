//! The engine-facing sinks are `ReleaseStore::ingest`, nothing more.
//!
//! The same random rounds are fed two ways: through
//! `QueryService::column_sink` / `release_sink` (`on_round` for lockstep
//! rounds, `on_round_active` for scheduled ones, with the merged release an
//! engine hands over), and straight through `ReleaseStore::ingest` (the
//! population release only under shared noise). The two stores must be
//! equal and render byte-identical snapshots, for fixed-window
//! `Buffered` / `Initial` / `Update` rounds, lockstep cumulative rounds and
//! scheduled rounds, under both noise policies.

use longsynth::Release;
use longsynth_data::BitColumn;
use longsynth_dp::budget::Rho;
use longsynth_engine::{PanelSchedule, PolicyTag, ReleaseSink};
use longsynth_serve::snapshot::snapshot_json;
use longsynth_serve::{QueryService, ReleaseColumns, ReleaseStore, RoundShape};
use proptest::prelude::*;

/// Deterministic bit stream for building release columns.
fn bit_stream(seed: u64) -> impl FnMut() -> bool {
    let mut state = seed | 1;
    move || {
        state = state
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(17)
            .wrapping_add(0xD1B5_4A32_D192_ED03);
        state & 4 == 0
    }
}

/// One engine round: `active` is `None` for a lockstep round, else the
/// panel's cohort count and the ascending active cohorts.
struct Round<R> {
    active: Option<(usize, Vec<usize>)>,
    per_shard: Vec<R>,
    merged: R,
}

/// Feed `rounds` through `sink` and, separately, through
/// `ReleaseStore::ingest`; both stores must agree, snapshot bytes included.
fn assert_one_write_path<R: ReleaseColumns>(
    service: &QueryService,
    mut sink: Box<dyn ReleaseSink<R>>,
    policy: PolicyTag,
    rounds: &[Round<R>],
) {
    let mut direct = ReleaseStore::new();
    for (t, round) in rounds.iter().enumerate() {
        let shape = match &round.active {
            None => {
                sink.on_round(t, &round.per_shard, &round.merged, policy);
                RoundShape::Lockstep
            }
            Some((cohorts, active)) => {
                sink.on_round_active(t, *cohorts, active, &round.per_shard, &round.merged, policy);
                RoundShape::Scheduled {
                    round: t,
                    cohorts: *cohorts,
                    active,
                }
            }
        };
        let population = (policy == PolicyTag::Shared).then_some(&round.merged);
        direct.ingest(shape, &round.per_shard, population).unwrap();
    }
    let fed = service.with_store(ReleaseStore::clone);
    assert_eq!(fed, direct);
    assert_eq!(fed.policy(), Some(policy));
    assert_eq!(snapshot_json(&fed), snapshot_json(&direct));
}

/// The merged release of `per_shard`: the concatenation under per-shard
/// noise, an independent population release of `population` records
/// under shared noise.
fn merged_column(
    policy: PolicyTag,
    per_shard: &[BitColumn],
    population: usize,
    next_bit: &mut impl FnMut() -> bool,
) -> BitColumn {
    match policy {
        PolicyTag::PerShard => BitColumn::concat(per_shard),
        PolicyTag::Shared => BitColumn::from_iter_bits((0..population).map(|_| next_bit())),
    }
}

fn policy_of(shared: bool) -> PolicyTag {
    if shared {
        PolicyTag::Shared
    } else {
        PolicyTag::PerShard
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fixed-window rounds: `k − 1` `Buffered` rounds, one `Initial`
    /// release of `k` seed columns, then `updates` `Update` rounds.
    #[test]
    fn fixed_window_rounds_land_alike(
        seed in any::<u64>(),
        sizes in collection::vec(0usize..5, 1..4),
        population in 0usize..6,
        k in 1usize..4,
        updates in 0usize..5,
        shared in any::<bool>(),
    ) {
        let policy = policy_of(shared);
        let mut next_bit = bit_stream(seed);
        let columns = |width: usize, next_bit: &mut dyn FnMut() -> bool| -> Vec<Vec<BitColumn>> {
            (0..width)
                .map(|_| {
                    sizes
                        .iter()
                        .map(|&n| BitColumn::from_iter_bits((0..n).map(|_| next_bit())))
                        .collect()
                })
                .collect()
        };
        let mut rounds: Vec<Round<Release>> = (1..k)
            .map(|_| Round {
                active: None,
                per_shard: vec![Release::Buffered; sizes.len()],
                merged: Release::Buffered,
            })
            .collect();
        // `seeds[j][c]` is cohort c's seed column of round j.
        let seeds = columns(k, &mut next_bit);
        let merged_seeds: Vec<BitColumn> = seeds
            .iter()
            .map(|round| merged_column(policy, round, population, &mut next_bit))
            .collect();
        rounds.push(Round {
            active: None,
            per_shard: (0..sizes.len())
                .map(|c| Release::Initial(seeds.iter().map(|round| round[c].clone()).collect()))
                .collect(),
            merged: Release::Initial(merged_seeds),
        });
        for update in columns(updates, &mut next_bit) {
            let merged = merged_column(policy, &update, population, &mut next_bit);
            rounds.push(Round {
                active: None,
                per_shard: update.into_iter().map(Release::Update).collect(),
                merged: Release::Update(merged),
            });
        }
        let service = QueryService::new();
        assert_one_write_path(&service, service.release_sink(), policy, &rounds);
    }

    /// Lockstep cumulative rounds.
    #[test]
    fn lockstep_column_rounds_land_alike(
        seed in any::<u64>(),
        sizes in collection::vec(0usize..5, 1..4),
        population in 0usize..6,
        rounds in 1usize..8,
        shared in any::<bool>(),
    ) {
        let policy = policy_of(shared);
        let mut next_bit = bit_stream(seed);
        let rounds: Vec<Round<BitColumn>> = (0..rounds)
            .map(|_| {
                let per_shard: Vec<BitColumn> = sizes
                    .iter()
                    .map(|&n| BitColumn::from_iter_bits((0..n).map(|_| next_bit())))
                    .collect();
                let merged = merged_column(policy, &per_shard, population, &mut next_bit);
                Round { active: None, per_shard, merged }
            })
            .collect();
        let service = QueryService::new();
        assert_one_write_path(&service, service.column_sink(), policy, &rounds);
    }

    /// Scheduled rounds of a rotating panel.
    #[test]
    fn scheduled_column_rounds_land_alike(
        seed in any::<u64>(),
        waves in 1usize..4,
        horizon in 1usize..6,
        population in 0usize..6,
        rounds in 1usize..10,
        shared in any::<bool>(),
    ) {
        let policy = policy_of(shared);
        let rho = Rho::new(0.1).unwrap();
        let waves = waves.min(horizon);
        let schedule = PanelSchedule::rotating(12 + waves * horizon, horizon, waves, rho, rho)
            .expect("valid rotating schedule");
        let mut next_bit = bit_stream(seed);
        let rounds: Vec<Round<BitColumn>> = (0..rounds.min(horizon))
            .map(|t| {
                let active = schedule.active(t);
                let per_shard: Vec<BitColumn> = active
                    .iter()
                    .map(|&c| {
                        let n = schedule.cohort_size(c);
                        BitColumn::from_iter_bits((0..n).map(|_| next_bit()))
                    })
                    .collect();
                let merged = merged_column(policy, &per_shard, population, &mut next_bit);
                Round { active: Some((schedule.cohorts(), active)), per_shard, merged }
            })
            .collect();
        let service = QueryService::new();
        assert_one_write_path(&service, service.column_sink(), policy, &rounds);
    }
}
