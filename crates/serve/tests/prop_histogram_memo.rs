//! Oracle property for the per-panel stored window histograms.
//!
//! Every stored panel keeps each window histogram of width ≤ 6 it has
//! built, so a repeated `(scope, t, k)` query is summed from the stored
//! counts instead of being rebuilt. Whatever order queries arrive in, each
//! answer must be bit-identical to a direct [`window_histogram`] +
//! [`WindowQuery::evaluate_histogram`] over the same panels, in static and
//! rotating stores under both noise policies, on the live store, after a
//! snapshot round trip, and after a delta lands on a store whose
//! histograms are already stored.

use longsynth_data::{BitColumn, LongitudinalDataset};
use longsynth_dp::budget::Rho;
use longsynth_engine::{PanelSchedule, PolicyTag};
use longsynth_queries::{window_histogram, Pattern, WindowQuery};
use longsynth_serve::snapshot::{
    apply_delta_json, restore_json, snapshot_json, snapshot_since_json,
};
use longsynth_serve::{QueryKind, ReleaseStore, RoundShape, ServeQuery, StoreScope};
use proptest::prelude::*;
use std::borrow::Cow;

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

fn random_column(next_bit: &mut impl FnMut() -> bool, records: usize) -> BitColumn {
    BitColumn::from_iter_bits((0..records).map(|_| next_bit()))
}

/// The store shapes whose merged scope reads different panels.
#[derive(Debug, Clone, Copy)]
enum Shape {
    StaticPerShard,
    StaticShared,
    RotatingPerShard,
    RotatingShared,
}

/// The first `rounds` rounds of a `shape` store. Static stores have two
/// cohorts of `sizes`; rotating ones follow a `waves`-wave schedule over
/// `horizon` rounds. A shared-noise merged column is an independent
/// release of `population` records.
fn build(
    shape: Shape,
    seed: u64,
    sizes: [usize; 2],
    population: usize,
    (waves, horizon): (usize, usize),
    rounds: usize,
) -> ReleaseStore {
    let mut next_bit = bit_stream(seed);
    let mut store = ReleaseStore::new();
    match shape {
        Shape::StaticPerShard | Shape::StaticShared => {
            for _ in 0..rounds {
                let parts: Vec<BitColumn> = sizes
                    .iter()
                    .map(|&n| random_column(&mut next_bit, n))
                    .collect();
                let population = match shape {
                    Shape::StaticPerShard => None,
                    _ => Some(random_column(&mut next_bit, population)),
                };
                store
                    .ingest(RoundShape::Lockstep, &parts, population.as_ref())
                    .unwrap();
            }
        }
        Shape::RotatingPerShard | Shape::RotatingShared => {
            let rho = Rho::new(0.1).unwrap();
            let waves = waves.min(horizon);
            let schedule = PanelSchedule::rotating(24 + waves * horizon, horizon, waves, rho, rho)
                .expect("valid rotating schedule");
            for round in 0..rounds.min(horizon) {
                let active = schedule.active(round);
                let parts: Vec<BitColumn> = active
                    .iter()
                    .map(|&c| random_column(&mut next_bit, schedule.cohort_size(c)))
                    .collect();
                let population = match shape {
                    Shape::RotatingPerShard => None,
                    _ => Some(random_column(&mut next_bit, population)),
                };
                let shape = RoundShape::Scheduled {
                    round,
                    cohorts: schedule.cohorts(),
                    active: &active,
                };
                store.ingest(shape, &parts, population.as_ref()).unwrap();
            }
        }
    }
    store
}

/// One scripted query: a scope pick, a round pick, a width and a kind,
/// each mapped onto the store it is asked of.
type Key = (usize, usize, usize, u8);

fn query_for(store: &ReleaseStore, &(scope, t, k, kind): &Key) -> (ServeQuery, WindowQuery) {
    let scope = match scope % (store.cohorts() + 1) {
        0 => StoreScope::Merged,
        c => StoreScope::Cohort(c - 1),
    };
    let t = t % store.rounds().max(1);
    let pattern = Pattern::new((t * 5 + k) as u32 & ((1 << k) - 1), k);
    let query = match kind % 3 {
        0 => WindowQuery::at_least_m_ones(k, 1),
        1 => WindowQuery::at_least_m_consecutive_ones(k, 2),
        _ => WindowQuery::pattern(pattern),
    };
    let kind = match kind % 3 {
        2 => QueryKind::Pattern { t, pattern },
        _ => QueryKind::Window {
            t,
            query: query.clone(),
        },
    };
    (ServeQuery { scope, kind }, query)
}

/// `query`'s answer in `scope` at round `t`, from a direct
/// [`window_histogram`] of every panel the scope reads, summed and
/// evaluated once: the scope's cohort, a static shared-noise population
/// panel, or else every cohort that observed the whole window. `None`
/// where no records answer.
fn oracle(store: &ReleaseStore, scope: StoreScope, query: &WindowQuery, t: usize) -> Option<f64> {
    let k = query.width();
    let population = store.policy() == Some(PolicyTag::Shared) && !store.is_dynamic();
    let panels: Vec<(Cow<'_, LongitudinalDataset>, usize)> = match scope {
        StoreScope::Merged if population => {
            let panel = store.panel(scope).ok()?;
            (k <= t + 1).then_some((panel, t)).into_iter().collect()
        }
        _ => {
            let cohorts = match scope {
                StoreScope::Cohort(c) => c..c + 1,
                StoreScope::Merged => 0..store.cohorts(),
            };
            cohorts
                .filter_map(|c| {
                    let window = store.cohort_window(c)?;
                    let panel = store.panel(StoreScope::Cohort(c)).unwrap();
                    (window.start + k <= t + 1 && window.contains(&t))
                        .then(|| (panel, t - window.start))
                })
                .collect()
        }
    };
    let mut histogram = vec![0u64; 1 << k];
    let mut records = 0;
    for (panel, local) in &panels {
        let part = window_histogram(panel, *local, k);
        histogram
            .iter_mut()
            .zip(part)
            .for_each(|(sum, c)| *sum += c);
        records += panel.individuals();
    }
    let histogram: Vec<f64> = histogram.into_iter().map(|c| c as f64).collect();
    (records > 0).then(|| query.evaluate_histogram(&histogram, records as f64))
}

/// Asks every scripted key of `store` in order and checks each answer
/// against [`oracle`], bit for bit; an error exactly where it has none.
fn check_script(store: &ReleaseStore, keys: &[Key], script: &[usize], label: &str) {
    for &i in script {
        let (ask, query) = query_for(store, &keys[i % keys.len()]);
        let answer = store.answer(&ask).ok();
        let want = oracle(store, ask.scope, &query, ask.kind.round());
        assert_eq!(
            answer.map(f64::to_bits),
            want.map(f64::to_bits),
            "{label}: {} at t={}: {}",
            ask.scope,
            ask.kind.round(),
            query.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Interleaved and repeated window and pattern queries of widths 1–8
    /// (7 and 8 are never stored) answer exactly as the direct kernel does,
    /// on every store shape, live, after a snapshot round trip, and after
    /// a delta lands on a prefix store that has already answered the
    /// script.
    #[test]
    fn memoised_answers_equal_the_direct_kernel(
        seed in any::<u64>(),
        cohort_a in 1usize..40,
        cohort_b in 1usize..90,
        population in 1usize..70,
        waves in 1usize..10,
        horizon in 2usize..13,
        cut in 0usize..13,
        keys in proptest::collection::vec((0usize..64, 0usize..64, 1usize..=8, 0u8..3), 1..6),
        script in proptest::collection::vec(0usize..64, 1..40),
    ) {
        for shape in [
            Shape::StaticPerShard,
            Shape::StaticShared,
            Shape::RotatingPerShard,
            Shape::RotatingShared,
        ] {
            let store = |rounds| build(
                shape,
                seed,
                [cohort_a, cohort_b],
                population,
                (waves, horizon),
                rounds,
            );
            let full = store(horizon);
            check_script(&full, &keys, &script, &format!("{shape:?} live"));
            // The same script again reads stored histograms.
            check_script(&full, &keys, &script, &format!("{shape:?} warm"));
            let restored = restore_json(&snapshot_json(&full)).unwrap();
            check_script(&restored, &keys, &script, &format!("{shape:?} restored"));

            let cut = cut % (horizon + 1);
            let mut grown = restore_json(&snapshot_json(&store(cut))).unwrap();
            if grown.rounds() > 0 {
                check_script(&grown, &keys, &script, &format!("{shape:?} prefix"));
            }
            apply_delta_json(&mut grown, &snapshot_since_json(&full, cut).unwrap()).unwrap();
            check_script(&grown, &keys, &script, &format!("{shape:?} after delta"));
            prop_assert_eq!(&grown, &full);
        }
    }
}
