//! Property tests for the serving layer.
//!
//! The load-bearing one (an ISSUE acceptance criterion): over **random
//! release sequences**, snapshot → restore → re-query yields answers
//! bit-identical to the original store's, across every query kind, scope,
//! round, and parameter. Alongside it: service answers, on first read and
//! re-read, are bit-identical to direct store answers, and ingestion keeps
//! all scopes in lockstep.

use longsynth_data::BitColumn;
use longsynth_dp::budget::Rho;
use longsynth_engine::{PanelSchedule, PolicyTag};
use longsynth_pool::WorkerPool;
use longsynth_queries::cumulative::{cumulative_counts, cumulative_fraction};
use longsynth_queries::{window_histogram, Pattern, WindowQuery};
use longsynth_serve::snapshot::{
    apply_delta_json, restore_json, snapshot_json, snapshot_since_json,
};
use longsynth_serve::{QueryKind, QueryService, ReleaseStore, ServeQuery, StoreScope};
use proptest::prelude::*;

/// Deterministically expand compact random parameters into a full release
/// sequence: `cohort_sizes` fixes the shape, `seed` the bits.
fn random_store(seed: u64, cohort_sizes: &[usize], rounds: usize) -> ReleaseStore {
    let mut store = ReleaseStore::new();
    let mut state = seed | 1;
    let mut next_bit = move || {
        // SplitMix-ish scramble; the distribution hardly matters, only
        // that the sequence is deterministic in the seed.
        state = state
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(17)
            .wrapping_add(0xD1B5_4A32_D192_ED03);
        state & 4 == 0
    };
    for _ in 0..rounds {
        let parts: Vec<BitColumn> = cohort_sizes
            .iter()
            .map(|&size| BitColumn::from_iter_bits((0..size).map(|_| next_bit())))
            .collect();
        let merged = BitColumn::concat(parts.iter());
        store.ingest_columns(&parts, &merged).unwrap();
    }
    store
}

/// A static **shared-noise** store: per-cohort columns as in
/// [`random_store`], plus an independent population release of its own
/// `population` records in every round (not the concatenation).
fn random_shared_store(
    seed: u64,
    cohort_sizes: &[usize],
    population: usize,
    rounds: usize,
) -> ReleaseStore {
    let mut next_bit = bit_stream(seed);
    let mut store = ReleaseStore::new();
    for _ in 0..rounds {
        let parts: Vec<BitColumn> = cohort_sizes
            .iter()
            .map(|&size| BitColumn::from_iter_bits((0..size).map(|_| next_bit())))
            .collect();
        let merged = BitColumn::from_iter_bits((0..population).map(|_| next_bit()));
        store
            .ingest_columns_with(PolicyTag::Shared, &parts, &merged)
            .unwrap();
    }
    store
}

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

/// Build a **dynamic** store from a rotating-wave schedule: the first
/// `rounds` global rounds of the panel, each round's active cohorts fed
/// with deterministic bits.
fn random_rotating_store(seed: u64, waves: usize, horizon: usize, rounds: usize) -> ReleaseStore {
    let rho = Rho::new(0.1).unwrap();
    // More waves than rounds is now a schedule error, not a silent clamp.
    let waves = waves.min(horizon);
    let schedule = PanelSchedule::rotating(24 + waves * horizon, horizon, waves, rho, rho)
        .expect("valid rotating schedule");
    let mut next_bit = bit_stream(seed);
    let mut store = ReleaseStore::new();
    for round in 0..rounds.min(horizon) {
        let active = schedule.active(round);
        let parts: Vec<BitColumn> = active
            .iter()
            .map(|&c| BitColumn::from_iter_bits((0..schedule.cohort_size(c)).map(|_| next_bit())))
            .collect();
        let merged = BitColumn::concat(parts.iter());
        store
            .ingest_active_columns(
                PolicyTag::PerShard,
                round,
                schedule.cohorts(),
                &active,
                &parts,
                &merged,
            )
            .unwrap();
    }
    store
}

/// Every query answerable against a dynamic store: cohort scopes over
/// their covered rounds, merged scopes over rounds with covering cohorts.
fn dynamic_query_battery(store: &ReleaseStore) -> Vec<ServeQuery> {
    let mut queries = Vec::new();
    for t in 0..store.rounds() {
        for b in 0..=(t + 1) {
            queries.push(ServeQuery {
                scope: StoreScope::Merged,
                kind: QueryKind::CumulativeFraction { t, b },
            });
        }
        for c in 0..store.cohorts() {
            let Some(window) = store.cohort_window(c) else {
                continue;
            };
            if window.contains(&t) {
                queries.push(ServeQuery {
                    scope: StoreScope::Cohort(c),
                    kind: QueryKind::CumulativeFraction { t, b: 1 },
                });
                if t > window.start {
                    queries.push(ServeQuery {
                        scope: StoreScope::Cohort(c),
                        kind: QueryKind::Pattern {
                            t,
                            pattern: Pattern::parse("10"),
                        },
                    });
                }
            }
        }
    }
    queries
}

/// Every answerable query in the store, across kinds, scopes, rounds, and
/// parameters — the battery both sides of an equivalence must agree on.
fn query_battery(store: &ReleaseStore) -> Vec<ServeQuery> {
    let mut scopes = vec![StoreScope::Merged];
    scopes.extend((0..store.cohorts()).map(StoreScope::Cohort));
    let mut queries = Vec::new();
    for &scope in &scopes {
        for t in 0..store.rounds() {
            for b in 0..=(t + 1) {
                queries.push(ServeQuery {
                    scope,
                    kind: QueryKind::CumulativeFraction { t, b },
                });
            }
            for width in 1..=2.min(t + 1) {
                queries.push(ServeQuery {
                    scope,
                    kind: QueryKind::Window {
                        t,
                        query: WindowQuery::at_least_m_ones(width, 1),
                    },
                });
                queries.push(ServeQuery {
                    scope,
                    kind: QueryKind::Pattern {
                        t,
                        pattern: Pattern::new((t as u32) & ((1 << width) - 1), width),
                    },
                });
            }
        }
    }
    queries
}

/// `c_b^t` in `scope` recomputed from the stored columns: by
/// [`cumulative_fraction`] on the scope's panel at its local round, or,
/// for a dynamic store's merged scope, as the pooled count `S_b^t` of the
/// cohorts covering `t` ([`cumulative_counts`]) over their pooled records.
fn cumulative_oracle(store: &ReleaseStore, scope: StoreScope, t: usize, b: usize) -> f64 {
    let local = |c: usize| {
        let window = store.cohort_window(c)?;
        let panel = store.panel(StoreScope::Cohort(c)).ok()?;
        window.contains(&t).then(|| (panel, t - window.start))
    };
    match scope {
        StoreScope::Cohort(c) => {
            let (panel, local) = local(c).expect("round covered by the cohort");
            cumulative_fraction(&panel, local, b)
        }
        StoreScope::Merged if !store.is_dynamic() => {
            cumulative_fraction(&store.panel(scope).unwrap(), t, b)
        }
        StoreScope::Merged => {
            let (count, records) = (0..store.cohorts()).filter_map(local).fold(
                (0, 0),
                |(count, records), (panel, local)| {
                    let s_b = cumulative_counts(&panel, local).get(b).copied();
                    (count + s_b.unwrap_or(0), records + panel.individuals())
                },
            );
            assert!(records > 0, "a covering cohort");
            count as f64 / records as f64
        }
    }
}

/// Every `CumulativeFraction` answer of `store` — every scope, every round
/// the scope covers, every `b` in `0..=t+2` — equals
/// [`cumulative_oracle`] bit for bit.
fn check_cumulative_answers(store: &ReleaseStore) {
    let mut scopes = vec![StoreScope::Merged];
    scopes.extend((0..store.cohorts()).map(StoreScope::Cohort));
    for scope in scopes {
        for t in 0..store.rounds() {
            if let StoreScope::Cohort(c) = scope {
                if !store.cohort_window(c).is_some_and(|w| w.contains(&t)) {
                    continue;
                }
            }
            for b in 0..=t + 2 {
                let kind = QueryKind::CumulativeFraction { t, b };
                let answer = store.answer(&ServeQuery { scope, kind }).unwrap();
                let oracle = cumulative_oracle(store, scope, t, b);
                assert_eq!(
                    answer.to_bits(),
                    oracle.to_bits(),
                    "{scope} at t={t}, b={b}"
                );
            }
        }
    }
}

/// A window query's answer in `scope` at round `t`, recomputed from the
/// stored columns: [`WindowQuery::evaluate_true`] on the scope's panel at
/// its local round (for a static merged scope, the population panel or
/// the concatenated cohort panels), or, for a dynamic store's merged
/// scope, the [`window_histogram`]s of the cohorts that observed the whole
/// window, summed and evaluated once. `None` where no records answer.
fn window_oracle(
    store: &ReleaseStore,
    scope: StoreScope,
    query: &WindowQuery,
    t: usize,
) -> Option<f64> {
    let k = query.width();
    let observed = |c: usize| {
        let window = store.cohort_window(c)?;
        let panel = store.panel(StoreScope::Cohort(c)).unwrap();
        (window.start + k <= t + 1 && window.contains(&t)).then(|| (panel, t - window.start))
    };
    match scope {
        StoreScope::Cohort(c) => {
            observed(c).map(|(panel, local)| query.evaluate_true(&panel, local))
        }
        StoreScope::Merged if !store.is_dynamic() => {
            (k <= t + 1).then(|| query.evaluate_true(&store.panel(scope).unwrap(), t))
        }
        StoreScope::Merged => {
            let mut histogram = vec![0; 1 << k];
            let mut records = 0;
            for (panel, local) in (0..store.cohorts()).filter_map(observed) {
                let part = window_histogram(&panel, local, k);
                histogram
                    .iter_mut()
                    .zip(part)
                    .for_each(|(sum, c)| *sum += c);
                records += panel.individuals();
            }
            let histogram: Vec<f64> = histogram.into_iter().map(|c| c as f64).collect();
            (records > 0).then(|| query.evaluate_histogram(&histogram, records as f64))
        }
    }
}

/// Every window and pattern answer of `store` — every scope, every round,
/// widths 1–3 — equals [`window_oracle`] bit for bit, and is an error
/// exactly where the oracle has no answer.
fn check_window_answers(store: &ReleaseStore) {
    let mut scopes = vec![StoreScope::Merged];
    scopes.extend((0..store.cohorts()).map(StoreScope::Cohort));
    for scope in scopes {
        for t in 0..store.rounds() {
            for width in 1..=3.min(t + 1) {
                let pattern = Pattern::new((t * 5 + width) as u32 & ((1 << width) - 1), width);
                let queries = [
                    WindowQuery::at_least_m_ones(width, 1),
                    WindowQuery::at_least_m_consecutive_ones(width, 2),
                    WindowQuery::pattern(pattern),
                ];
                let kinds = [
                    QueryKind::Window {
                        t,
                        query: queries[0].clone(),
                    },
                    QueryKind::Window {
                        t,
                        query: queries[1].clone(),
                    },
                    QueryKind::Pattern { t, pattern },
                ];
                for (query, kind) in queries.iter().zip(kinds) {
                    let answer = store.answer(&ServeQuery { scope, kind }).ok();
                    let oracle = window_oracle(store, scope, query, t);
                    assert_eq!(
                        answer.map(f64::to_bits),
                        oracle.map(f64::to_bits),
                        "{scope} at t={t}: {}",
                        query.name()
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Window and pattern answers sum each panel's window histogram and
    /// evaluate once; they must equal the kernel on the stored panels, bit
    /// for bit, in static per-shard, static shared-noise and per-shard
    /// rotating stores — live, after a full snapshot restore, and after a
    /// restored prefix plus two chained deltas.
    #[test]
    fn window_answers_equal_the_kernel_on_the_stored_panels(
        seed in any::<u64>(),
        cohort_a in 1usize..40,
        cohort_b in 1usize..90,
        population in 1usize..70,
        waves in 1usize..5,
        horizon in 2usize..9,
        first_cut in 0usize..9,
        second_cut in 0usize..9,
    ) {
        let sizes = [cohort_a, cohort_b];
        let builders: [Box<dyn Fn(usize) -> ReleaseStore>; 3] = [
            Box::new(|rounds| random_store(seed, &sizes, rounds)),
            Box::new(|rounds| random_shared_store(seed, &sizes, population, rounds)),
            Box::new(|rounds| random_rotating_store(seed, waves, horizon, rounds)),
        ];
        for build in &builders {
            let full = build(horizon);
            check_window_answers(&full);
            check_window_answers(&restore_json(&snapshot_json(&full)).unwrap());
            let mut cuts = [first_cut % (horizon + 1), second_cut % (horizon + 1)];
            cuts.sort_unstable();
            let [cut_a, cut_b] = cuts;
            let mut chained = restore_json(&snapshot_json(&build(cut_a))).unwrap();
            apply_delta_json(&mut chained, &snapshot_since_json(&build(cut_b), cut_a).unwrap())
                .unwrap();
            apply_delta_json(&mut chained, &snapshot_since_json(&full, cut_b).unwrap()).unwrap();
            check_window_answers(&chained);
            prop_assert_eq!(&chained, &full);
        }
    }

    /// A cumulative answer is a lookup of the store's running threshold
    /// counts; it must equal `cumulative_fraction` on the stored panel,
    /// bit for bit, in static per-shard, static shared-noise and rotating
    /// stores — live, after a full snapshot restore, and after a restored
    /// prefix plus two chained deltas.
    #[test]
    fn cumulative_answers_equal_the_kernel_on_the_stored_panel(
        seed in any::<u64>(),
        cohort_a in 1usize..40,
        cohort_b in 1usize..90,
        population in 1usize..70,
        waves in 1usize..5,
        horizon in 2usize..9,
        first_cut in 0usize..9,
        second_cut in 0usize..9,
    ) {
        let sizes = [cohort_a, cohort_b];
        let builders: [Box<dyn Fn(usize) -> ReleaseStore>; 3] = [
            Box::new(|rounds| random_store(seed, &sizes, rounds)),
            Box::new(|rounds| random_shared_store(seed, &sizes, population, rounds)),
            Box::new(|rounds| random_rotating_store(seed, waves, horizon, rounds)),
        ];
        for build in &builders {
            let full = build(horizon);
            check_cumulative_answers(&full);
            check_cumulative_answers(&restore_json(&snapshot_json(&full)).unwrap());
            let mut cuts = [first_cut % (horizon + 1), second_cut % (horizon + 1)];
            cuts.sort_unstable();
            let [cut_a, cut_b] = cuts;
            let mut chained = restore_json(&snapshot_json(&build(cut_a))).unwrap();
            apply_delta_json(&mut chained, &snapshot_since_json(&build(cut_b), cut_a).unwrap())
                .unwrap();
            apply_delta_json(&mut chained, &snapshot_since_json(&full, cut_b).unwrap()).unwrap();
            check_cumulative_answers(&chained);
            prop_assert_eq!(&chained, &full);
        }
    }

    /// Snapshot → restore → identical query answers (bit-for-bit), over
    /// random release sequences of random shapes.
    #[test]
    fn snapshot_restore_preserves_every_answer(
        seed in any::<u64>(),
        cohort_a in 1usize..40,
        cohort_b in 1usize..90,
        cohort_c in 1usize..150,
        rounds in 1usize..8,
    ) {
        let store = random_store(seed, &[cohort_a, cohort_b, cohort_c], rounds);
        let restored = restore_json(&snapshot_json(&store)).unwrap();
        prop_assert_eq!(&restored, &store);
        for query in query_battery(&store) {
            let original = store.answer(&query).unwrap();
            let recovered = restored.answer(&query).unwrap();
            prop_assert_eq!(
                original.to_bits(),
                recovered.to_bits(),
                "query {:?} diverged after restore",
                query
            );
        }
    }

    /// Service answers are bit-identical to direct store answers, on first
    /// read and re-read, and through a concurrent pool batch.
    #[test]
    fn service_and_pool_answers_match_direct_evaluation(
        seed in any::<u64>(),
        cohort_a in 1usize..60,
        cohort_b in 1usize..60,
        rounds in 1usize..6,
    ) {
        let store = random_store(seed, &[cohort_a, cohort_b], rounds);
        let service = QueryService::from_store(store.clone());
        let battery = query_battery(&store);
        let direct: Vec<f64> = battery.iter().map(|q| store.answer(q).unwrap()).collect();
        // First reads, then re-reads of stored statistics: both identical.
        for pass in 0..2 {
            for (query, want) in battery.iter().zip(&direct) {
                let got = service.answer(query).unwrap();
                prop_assert_eq!(got.to_bits(), want.to_bits(), "pass {}", pass);
            }
        }
        // Pool batch agrees too.
        let pool = WorkerPool::new(3);
        let batch = service.answer_batch(&pool, battery.clone());
        for (got, want) in batch.into_iter().zip(&direct) {
            prop_assert_eq!(got.unwrap().to_bits(), want.to_bits());
        }
    }

    /// Incremental snapshots compose: restoring a base snapshot and
    /// chaining deltas yields a store bit-identical to the full-snapshot
    /// restore, over random release sequences and random cut points.
    #[test]
    fn full_restore_equals_chained_delta_restore(
        seed in any::<u64>(),
        cohort_a in 1usize..50,
        cohort_b in 1usize..80,
        rounds in 2usize..9,
        first_cut in 0usize..8,
        second_cut in 0usize..8,
    ) {
        let full = random_store(seed, &[cohort_a, cohort_b], rounds);
        let mut cuts = [first_cut % (rounds + 1), second_cut % (rounds + 1)];
        cuts.sort_unstable();
        let [cut_a, cut_b] = cuts;
        // Base = full snapshot of the prefix (same deterministic stream).
        let base = random_store(seed, &[cohort_a, cohort_b], cut_a);
        let mut chained = restore_json(&snapshot_json(&base)).unwrap();
        // Two chained deltas: cut_a → cut_b → rounds.
        let middle = random_store(seed, &[cohort_a, cohort_b], cut_b);
        apply_delta_json(&mut chained, &snapshot_since_json(&middle, cut_a).unwrap()).unwrap();
        apply_delta_json(&mut chained, &snapshot_since_json(&full, cut_b).unwrap()).unwrap();

        let restored_full = restore_json(&snapshot_json(&full)).unwrap();
        prop_assert_eq!(&chained, &restored_full);
        prop_assert_eq!(&chained, &full);
        for query in query_battery(&full) {
            prop_assert_eq!(
                chained.answer(&query).unwrap().to_bits(),
                full.answer(&query).unwrap().to_bits(),
                "query {:?} diverged after chained delta restore",
                query
            );
        }
    }

    /// Under a **rotating schedule** (cohorts joining and retiring
    /// mid-stream): a v3 full snapshot restore is bit-identical to
    /// restoring a base snapshot and chaining deltas across random cut
    /// points — including deltas that carry a cohort's first entry or a
    /// retirement.
    #[test]
    fn rotating_full_restore_equals_chained_delta_restore(
        seed in any::<u64>(),
        waves in 1usize..5,
        horizon in 2usize..9,
        first_cut in 0usize..9,
        second_cut in 0usize..9,
    ) {
        let full = random_rotating_store(seed, waves, horizon, horizon);
        let rounds = full.rounds();
        let mut cuts = [first_cut % (rounds + 1), second_cut % (rounds + 1)];
        cuts.sort_unstable();
        let [cut_a, cut_b] = cuts;
        let base = random_rotating_store(seed, waves, horizon, cut_a);
        let mut chained = restore_json(&snapshot_json(&base)).unwrap();
        let middle = random_rotating_store(seed, waves, horizon, cut_b);
        apply_delta_json(&mut chained, &snapshot_since_json(&middle, cut_a).unwrap()).unwrap();
        apply_delta_json(&mut chained, &snapshot_since_json(&full, cut_b).unwrap()).unwrap();

        let restored_full = restore_json(&snapshot_json(&full)).unwrap();
        prop_assert_eq!(&chained, &restored_full);
        prop_assert_eq!(&chained, &full);
        for query in dynamic_query_battery(&full) {
            prop_assert_eq!(
                chained.answer(&query).unwrap().to_bits(),
                full.answer(&query).unwrap().to_bits(),
                "query {:?} diverged after chained dynamic delta restore",
                query
            );
        }
    }

    /// Dynamic snapshot → restore → identical answers across every scope
    /// and covered round.
    #[test]
    fn rotating_snapshot_restore_preserves_every_answer(
        seed in any::<u64>(),
        waves in 1usize..5,
        horizon in 2usize..8,
    ) {
        let store = random_rotating_store(seed, waves, horizon, horizon);
        let restored = restore_json(&snapshot_json(&store)).unwrap();
        prop_assert_eq!(&restored, &store);
        for query in dynamic_query_battery(&store) {
            prop_assert_eq!(
                store.answer(&query).unwrap().to_bits(),
                restored.answer(&query).unwrap().to_bits(),
                "query {:?} diverged after restore",
                query
            );
        }
    }

    /// Ingestion keeps every scope in lockstep: rounds agree everywhere,
    /// and the merged panel is the shard-order concatenation of cohorts.
    #[test]
    fn scopes_stay_in_lockstep(
        seed in any::<u64>(),
        cohort_a in 1usize..50,
        cohort_b in 1usize..50,
        rounds in 1usize..6,
    ) {
        let store = random_store(seed, &[cohort_a, cohort_b], rounds);
        prop_assert_eq!(store.rounds(), rounds);
        let merged = store.panel(StoreScope::Merged).unwrap();
        prop_assert_eq!(merged.individuals(), cohort_a + cohort_b);
        for t in 0..rounds {
            let a = store.panel(StoreScope::Cohort(0)).unwrap().column(t).clone();
            let b = store.panel(StoreScope::Cohort(1)).unwrap().column(t).clone();
            prop_assert_eq!(&BitColumn::concat([&a, &b]), merged.column(t));
        }
    }
}

/// Frozen **v1** snapshot (pre-policy era): two rounds, two cohorts of 1
/// and 2 records. The byte layout is a contract — these fixtures must
/// restore forever, with pinned answers.
const V1_FIXTURE: &str = r#"{
  "format": "longsynth-release-store/v1",
  "merged": { "records": 3, "columns": ["0000000000000005", "0000000000000003"] },
  "cohorts": [
    { "records": 1, "columns": ["0000000000000001", "0000000000000001"] },
    { "records": 2, "columns": ["0000000000000002", "0000000000000001"] }
  ]
}"#;

/// Frozen **v2** snapshot (policy-tagged, pre-schedule era): a
/// shared-noise store whose merged panel is an independent synthesis.
const V2_FIXTURE: &str = r#"{
  "format": "longsynth-release-store/v2",
  "policy": "shared",
  "merged": { "records": 5, "columns": ["0000000000000013", "0000000000000007"] },
  "cohorts": [
    { "records": 1, "columns": ["0000000000000001", "0000000000000000"] },
    { "records": 2, "columns": ["0000000000000002", "0000000000000003"] }
  ]
}"#;

/// Frozen **v3** snapshot (dynamic-panel era, pre-coverage): a rotating
/// store whose merged rounds carry no cohort-coverage metadata — the
/// restore derives it from the cohort windows.
const V3_FIXTURE: &str = r#"{
  "format": "longsynth-release-store/v3",
  "policy": "per-shard",
  "dynamic": true,
  "merged": null,
  "merged_rounds": [
    { "records": 3, "column": "0000000000000003" },
    { "records": 3, "column": "0000000000000006" },
    { "records": 3, "column": "0000000000000006" }
  ],
  "cohorts": [
    { "records": 1, "entry": 0, "columns": ["0000000000000001", "0000000000000000"] },
    { "records": 2, "entry": 0, "columns": ["0000000000000001", "0000000000000003", "0000000000000002"] },
    { "records": 1, "entry": 2, "columns": ["0000000000000001"] }
  ]
}"#;

#[test]
fn v3_fixture_restore_stays_pinned_and_derives_coverage() {
    let store = restore_json(V3_FIXTURE).unwrap();
    assert!(store.is_dynamic());
    assert_eq!(store.rounds(), 3);
    assert_eq!(store.cohorts(), 3);
    assert_eq!(store.cohort_window(0), Some(0..2));
    assert_eq!(store.cohort_window(2), Some(2..3));
    // Coverage metadata (new in v4) is derived from the windows.
    assert_eq!(store.merged_coverage(0).unwrap(), &[0, 1]);
    assert_eq!(store.merged_coverage(2).unwrap(), &[1, 2]);
    // Pinned answer: round 2 pools cohorts 1 and 2 — cohort 1's weights
    // after local rounds 0..=2 (bits 1/3/2 → records at 1+1=2 and 1+1=2
    // ones… record 0: rounds 1,1,0 → weight 2; record 1: 0,1,1 → 2) and
    // cohort 2's single weight-1 record.
    let value = store
        .answer(&ServeQuery {
            scope: StoreScope::Merged,
            kind: QueryKind::CumulativeFraction { t: 2, b: 2 },
        })
        .unwrap();
    assert_eq!(value, 2.0 / 3.0);
    // Re-snapshotting upgrades to the current format with recorded
    // coverage and identical contents.
    let json = snapshot_json(&store);
    assert!(json.contains("longsynth-release-store/v4"));
    assert!(json.contains("coverage"));
    let upgraded = restore_json(&json).unwrap();
    assert_eq!(upgraded, store);
}

#[test]
fn v1_fixture_restore_stays_pinned() {
    let store = restore_json(V1_FIXTURE).unwrap();
    assert!(!store.is_dynamic());
    assert_eq!(store.rounds(), 2);
    assert_eq!(store.cohorts(), 2);
    assert_eq!(store.records(), Some(3));
    // Pre-policy rounds restore tagged per-shard (the only shape the v1
    // writer ever produced), so the concatenation structure is pinned.
    assert_eq!(store.policy(), Some(PolicyTag::PerShard));
    // Pinned answers: merged round 0 is bits 101 (records 0 and 2 set).
    let answer = |scope, t, b| {
        store
            .answer(&ServeQuery {
                scope,
                kind: QueryKind::CumulativeFraction { t, b },
            })
            .unwrap()
    };
    assert_eq!(answer(StoreScope::Merged, 0, 1), 2.0 / 3.0);
    assert_eq!(answer(StoreScope::Merged, 1, 2), 1.0 / 3.0);
    assert_eq!(answer(StoreScope::Cohort(0), 1, 2), 1.0);
    // Re-snapshotting a v1 restore produces the current (v3) format with
    // identical answers.
    let upgraded = restore_json(&snapshot_json(&store)).unwrap();
    assert_eq!(upgraded, store);
}

#[test]
fn v2_fixture_restore_stays_pinned() {
    let store = restore_json(V2_FIXTURE).unwrap();
    assert!(!store.is_dynamic());
    assert_eq!(store.policy(), Some(PolicyTag::Shared));
    assert_eq!(store.rounds(), 2);
    // Shared-noise merged panel keeps its independent record count.
    assert_eq!(store.records(), Some(5));
    let answer = |scope, t, b| {
        store
            .answer(&ServeQuery {
                scope,
                kind: QueryKind::CumulativeFraction { t, b },
            })
            .unwrap()
    };
    // Merged round 0 bits: 0x13 = 10011 → records 0, 1, 4 set.
    assert_eq!(answer(StoreScope::Merged, 0, 1), 3.0 / 5.0);
    // Round 1 bits 00111: weights 2,2,1,0,1 → two records reach b = 2.
    assert_eq!(answer(StoreScope::Merged, 1, 2), 2.0 / 5.0);
    assert_eq!(answer(StoreScope::Cohort(1), 1, 1), 1.0);
    let upgraded = restore_json(&snapshot_json(&store)).unwrap();
    assert_eq!(upgraded, store);
}

/// A column of `records` bits read from the low bits of `word`.
fn word_column(word: u64, records: usize) -> BitColumn {
    BitColumn::from_iter_bits((0..records).map(|i| word >> i & 1 == 1))
}

/// The first `rounds` rounds of the live-ingested store behind the frozen
/// v4 static fixtures: shared noise, cohorts of 1 and 2 records, and an
/// independent 4-record population panel.
fn v4_static_store(rounds: usize) -> ReleaseStore {
    let plan: [([u64; 2], u64); 3] = [
        ([1, 0b10], 0b1011),
        ([0, 0b11], 0b0110),
        ([1, 0b01], 0b1111),
    ];
    let mut store = ReleaseStore::new();
    for ([a, b], merged) in plan.into_iter().take(rounds) {
        store
            .ingest_columns_with(
                PolicyTag::Shared,
                &[word_column(a, 1), word_column(b, 2)],
                &word_column(merged, 4),
            )
            .unwrap();
    }
    store
}

/// The first `rounds` rounds of the live-ingested store behind the frozen
/// v4 dynamic fixtures: a shared-noise rotating panel of four cohorts
/// (1, 2, 1 and 2 records) entering two at a time, with a constant
/// 3-record windowed population release.
fn v4_rotating_store(rounds: usize) -> ReleaseStore {
    let sizes = [1, 2, 1, 2];
    let plan: [([usize; 2], [u64; 2], u64); 3] = [
        ([0, 1], [1, 0b10], 0b101),
        ([1, 2], [0b11, 1], 0b011),
        ([2, 3], [0, 0b10], 0b110),
    ];
    let mut store = ReleaseStore::new();
    for (round, (active, words, merged)) in plan.into_iter().enumerate().take(rounds) {
        let parts: Vec<BitColumn> = active
            .iter()
            .zip(words)
            .map(|(&c, word)| word_column(word, sizes[c]))
            .collect();
        store
            .ingest_active_columns(
                PolicyTag::Shared,
                round,
                4,
                &active,
                &parts,
                &word_column(merged, 3),
            )
            .unwrap();
    }
    store
}

/// Frozen **v4** full snapshot of a static shared-noise store: exactly
/// what the writer renders for [`v4_static_store`]`(3)`.
const V4_STATIC_FIXTURE: &str = r#"{
  "format": "longsynth-release-store/v4",
  "policy": "shared",
  "dynamic": false,
  "merged": {
    "records": 4,
    "columns": [
      "000000000000000b",
      "0000000000000006",
      "000000000000000f"
    ]
  },
  "merged_rounds": [],
  "coverage": [],
  "cohorts": [
    {
      "records": 1,
      "entry": null,
      "columns": [
        "0000000000000001",
        "0000000000000000",
        "0000000000000001"
      ]
    },
    {
      "records": 2,
      "entry": null,
      "columns": [
        "0000000000000002",
        "0000000000000003",
        "0000000000000001"
      ]
    }
  ]
}"#;

/// Frozen **v4** full snapshot of a shared-noise rotating store, with the
/// cohort coverage of every merged round: the rendering of
/// [`v4_rotating_store`]`(3)`.
const V4_ROTATING_FIXTURE: &str = r#"{
  "format": "longsynth-release-store/v4",
  "policy": "shared",
  "dynamic": true,
  "merged": null,
  "merged_rounds": [
    {
      "records": 3,
      "column": "0000000000000005"
    },
    {
      "records": 3,
      "column": "0000000000000003"
    },
    {
      "records": 3,
      "column": "0000000000000006"
    }
  ],
  "coverage": [
    [
      0,
      1
    ],
    [
      1,
      2
    ],
    [
      2,
      3
    ]
  ],
  "cohorts": [
    {
      "records": 1,
      "entry": 0,
      "columns": [
        "0000000000000001"
      ]
    },
    {
      "records": 2,
      "entry": 0,
      "columns": [
        "0000000000000002",
        "0000000000000003"
      ]
    },
    {
      "records": 1,
      "entry": 1,
      "columns": [
        "0000000000000001",
        "0000000000000000"
      ]
    },
    {
      "records": 2,
      "entry": 2,
      "columns": [
        "0000000000000002"
      ]
    }
  ]
}"#;

/// Frozen static delta (`longsynth-release-store-delta/v2`): rounds 1..3
/// of [`v4_static_store`].
const V2_STATIC_DELTA_FIXTURE: &str = r#"{
  "format": "longsynth-release-store-delta/v2",
  "policy": "shared",
  "dynamic": false,
  "base_rounds": 1,
  "delta_rounds": 2,
  "merged": {
    "records": 4,
    "columns": [
      "0000000000000006",
      "000000000000000f"
    ]
  },
  "merged_rounds": [],
  "cohorts": [
    {
      "records": 1,
      "entry": null,
      "columns": [
        "0000000000000000",
        "0000000000000001"
      ]
    },
    {
      "records": 2,
      "entry": null,
      "columns": [
        "0000000000000003",
        "0000000000000001"
      ]
    }
  ]
}"#;

/// Frozen dynamic delta of the same format: rounds 1..3 of
/// [`v4_rotating_store`]. Cohort 0 retired before the base and carries no
/// columns; cohorts 2 and 3 enter inside the delta.
const V2_ROTATING_DELTA_FIXTURE: &str = r#"{
  "format": "longsynth-release-store-delta/v2",
  "policy": "shared",
  "dynamic": true,
  "base_rounds": 1,
  "delta_rounds": 2,
  "merged": null,
  "merged_rounds": [
    {
      "records": 3,
      "column": "0000000000000003"
    },
    {
      "records": 3,
      "column": "0000000000000006"
    }
  ],
  "cohorts": [
    {
      "records": 1,
      "entry": 0,
      "columns": []
    },
    {
      "records": 2,
      "entry": 0,
      "columns": [
        "0000000000000003"
      ]
    },
    {
      "records": 1,
      "entry": 1,
      "columns": [
        "0000000000000001",
        "0000000000000000"
      ]
    },
    {
      "records": 2,
      "entry": 2,
      "columns": [
        "0000000000000002"
      ]
    }
  ]
}"#;

#[test]
fn v4_static_fixture_restore_stays_pinned() {
    let store = restore_json(V4_STATIC_FIXTURE).unwrap();
    assert!(!store.is_dynamic());
    assert_eq!(store.policy(), Some(PolicyTag::Shared));
    assert_eq!(store.rounds(), 3);
    assert_eq!(store.cohorts(), 2);
    assert_eq!(store.records(), Some(4));
    let answer = |scope, t, b| {
        store
            .answer(&ServeQuery {
                scope,
                kind: QueryKind::CumulativeFraction { t, b },
            })
            .unwrap()
    };
    // Merged bits 1011, 0110, 1111: weights 2, 3, 2, 2 after round 2.
    assert_eq!(answer(StoreScope::Merged, 0, 1), 3.0 / 4.0);
    assert_eq!(answer(StoreScope::Merged, 2, 3), 1.0 / 4.0);
    // Cohort 1 bits 10, 11, 01: weights 1, 2 after round 1.
    assert_eq!(answer(StoreScope::Cohort(1), 1, 2), 0.5);
    assert_eq!(answer(StoreScope::Cohort(1), 2, 2), 1.0);
    // The same store built by live ingest renders byte for byte.
    let live = v4_static_store(3);
    assert_eq!(store, live);
    assert_eq!(snapshot_json(&live), V4_STATIC_FIXTURE);
    assert_eq!(snapshot_json(&store), V4_STATIC_FIXTURE);
}

#[test]
fn v4_rotating_fixture_restore_stays_pinned() {
    let store = restore_json(V4_ROTATING_FIXTURE).unwrap();
    assert!(store.is_dynamic());
    assert_eq!(store.policy(), Some(PolicyTag::Shared));
    assert_eq!(store.rounds(), 3);
    assert_eq!(store.cohorts(), 4);
    assert_eq!(store.cohort_window(0), Some(0..1));
    assert_eq!(store.cohort_window(2), Some(1..3));
    assert_eq!(store.cohort_window(3), Some(2..3));
    assert_eq!(store.merged_coverage(1).unwrap(), &[1, 2]);
    assert_eq!(&*store.merged_round(1).unwrap(), &word_column(0b011, 3));
    let answer = |scope, t, b| {
        store
            .answer(&ServeQuery {
                scope,
                kind: QueryKind::CumulativeFraction { t, b },
            })
            .unwrap()
    };
    // Round 1 pools cohort 1 (weights 1, 2) and cohort 2 (weight 1).
    assert_eq!(answer(StoreScope::Merged, 1, 2), 1.0 / 3.0);
    // Round 2 pools cohort 2 (weight 1) and cohort 3 (weights 0, 1).
    assert_eq!(answer(StoreScope::Merged, 2, 1), 2.0 / 3.0);
    assert_eq!(answer(StoreScope::Cohort(2), 2, 1), 1.0);
    let live = v4_rotating_store(3);
    assert_eq!(store, live);
    assert_eq!(snapshot_json(&live), V4_ROTATING_FIXTURE);
    assert_eq!(snapshot_json(&store), V4_ROTATING_FIXTURE);
}

#[test]
fn v2_delta_fixtures_apply_with_pinned_answers() {
    let static_case: (fn(usize) -> ReleaseStore, _) = (v4_static_store, V2_STATIC_DELTA_FIXTURE);
    for (build, fixture) in [static_case, (v4_rotating_store, V2_ROTATING_DELTA_FIXTURE)] {
        let full = build(3);
        assert_eq!(snapshot_since_json(&full, 1).unwrap(), fixture);
        // Onto a live base and onto a restored base alike.
        let mut live = build(1);
        apply_delta_json(&mut live, fixture).unwrap();
        assert_eq!(live, full);
        let mut restored = restore_json(&snapshot_json(&build(1))).unwrap();
        apply_delta_json(&mut restored, fixture).unwrap();
        assert_eq!(restored, full);
    }
    let mut store = v4_static_store(1);
    apply_delta_json(&mut store, V2_STATIC_DELTA_FIXTURE).unwrap();
    let merged = store
        .answer(&ServeQuery {
            scope: StoreScope::Merged,
            kind: QueryKind::CumulativeFraction { t: 2, b: 3 },
        })
        .unwrap();
    assert_eq!(merged, 1.0 / 4.0);
    let mut store = v4_rotating_store(1);
    apply_delta_json(&mut store, V2_ROTATING_DELTA_FIXTURE).unwrap();
    let merged = store
        .answer(&ServeQuery {
            scope: StoreScope::Merged,
            kind: QueryKind::CumulativeFraction { t: 2, b: 1 },
        })
        .unwrap();
    assert_eq!(merged, 2.0 / 3.0);
    assert_eq!(store.merged_coverage(2).unwrap(), &[2, 3]);
}

/// The first `rounds` rounds of the live-ingested store behind the frozen
/// per-shard static fixtures: cohorts of 2 and 3 records whose merged
/// release is their shard-order concatenation.
fn per_shard_static_store(rounds: usize) -> ReleaseStore {
    let plan: [[u64; 2]; 3] = [[0b01, 0b110], [0b11, 0b010], [0b10, 0b101]];
    let mut store = ReleaseStore::new();
    for [a, b] in plan.into_iter().take(rounds) {
        let parts = [word_column(a, 2), word_column(b, 3)];
        store
            .ingest_columns(&parts, &BitColumn::concat(&parts))
            .unwrap();
    }
    store
}

/// The first `rounds` rounds of the live-ingested store behind the frozen
/// per-shard rotating fixtures: four cohorts (2, 1, 1 and 2 records)
/// entering two at a time, each round's merged release the concatenation
/// of its active cohorts' columns.
fn per_shard_rotating_store(rounds: usize) -> ReleaseStore {
    let sizes = [2, 1, 1, 2];
    let plan: [([usize; 2], [u64; 2]); 3] =
        [([0, 1], [0b10, 1]), ([1, 2], [0, 1]), ([2, 3], [1, 0b11])];
    let mut store = ReleaseStore::new();
    for (round, (active, words)) in plan.into_iter().enumerate().take(rounds) {
        let parts: Vec<BitColumn> = active
            .iter()
            .zip(words)
            .map(|(&c, word)| word_column(word, sizes[c]))
            .collect();
        let merged = BitColumn::concat(&parts);
        store
            .ingest_active_columns(PolicyTag::PerShard, round, 4, &active, &parts, &merged)
            .unwrap();
    }
    store
}

/// Frozen **v4** full snapshot of a static per-shard store: exactly what
/// the writer renders for [`per_shard_static_store`]`(3)`. Each merged
/// column is the concatenation of the cohort columns of its round.
const PER_SHARD_V4_STATIC_FIXTURE: &str = r#"{
  "format": "longsynth-release-store/v4",
  "policy": "per-shard",
  "dynamic": false,
  "merged": {
    "records": 5,
    "columns": [
      "0000000000000019",
      "000000000000000b",
      "0000000000000016"
    ]
  },
  "merged_rounds": [],
  "coverage": [],
  "cohorts": [
    {
      "records": 2,
      "entry": null,
      "columns": [
        "0000000000000001",
        "0000000000000003",
        "0000000000000002"
      ]
    },
    {
      "records": 3,
      "entry": null,
      "columns": [
        "0000000000000006",
        "0000000000000002",
        "0000000000000005"
      ]
    }
  ]
}"#;

/// Frozen **v4** full snapshot of a per-shard rotating store: the
/// rendering of [`per_shard_rotating_store`]`(3)`.
const PER_SHARD_V4_ROTATING_FIXTURE: &str = r#"{
  "format": "longsynth-release-store/v4",
  "policy": "per-shard",
  "dynamic": true,
  "merged": null,
  "merged_rounds": [
    {
      "records": 3,
      "column": "0000000000000006"
    },
    {
      "records": 2,
      "column": "0000000000000002"
    },
    {
      "records": 3,
      "column": "0000000000000007"
    }
  ],
  "coverage": [
    [
      0,
      1
    ],
    [
      1,
      2
    ],
    [
      2,
      3
    ]
  ],
  "cohorts": [
    {
      "records": 2,
      "entry": 0,
      "columns": [
        "0000000000000002"
      ]
    },
    {
      "records": 1,
      "entry": 0,
      "columns": [
        "0000000000000001",
        "0000000000000000"
      ]
    },
    {
      "records": 1,
      "entry": 1,
      "columns": [
        "0000000000000001",
        "0000000000000001"
      ]
    },
    {
      "records": 2,
      "entry": 2,
      "columns": [
        "0000000000000003"
      ]
    }
  ]
}"#;

/// Frozen static per-shard delta: rounds 1..3 of
/// [`per_shard_static_store`].
const PER_SHARD_V2_STATIC_DELTA_FIXTURE: &str = r#"{
  "format": "longsynth-release-store-delta/v2",
  "policy": "per-shard",
  "dynamic": false,
  "base_rounds": 1,
  "delta_rounds": 2,
  "merged": {
    "records": 5,
    "columns": [
      "000000000000000b",
      "0000000000000016"
    ]
  },
  "merged_rounds": [],
  "cohorts": [
    {
      "records": 2,
      "entry": null,
      "columns": [
        "0000000000000003",
        "0000000000000002"
      ]
    },
    {
      "records": 3,
      "entry": null,
      "columns": [
        "0000000000000002",
        "0000000000000005"
      ]
    }
  ]
}"#;

/// Frozen per-shard rotating delta: rounds 1..3 of
/// [`per_shard_rotating_store`]. Cohort 0 retired before the base;
/// cohorts 2 and 3 enter inside the delta.
const PER_SHARD_V2_ROTATING_DELTA_FIXTURE: &str = r#"{
  "format": "longsynth-release-store-delta/v2",
  "policy": "per-shard",
  "dynamic": true,
  "base_rounds": 1,
  "delta_rounds": 2,
  "merged": null,
  "merged_rounds": [
    {
      "records": 2,
      "column": "0000000000000002"
    },
    {
      "records": 3,
      "column": "0000000000000007"
    }
  ],
  "cohorts": [
    {
      "records": 2,
      "entry": 0,
      "columns": []
    },
    {
      "records": 1,
      "entry": 0,
      "columns": [
        "0000000000000000"
      ]
    },
    {
      "records": 1,
      "entry": 1,
      "columns": [
        "0000000000000001",
        "0000000000000001"
      ]
    },
    {
      "records": 2,
      "entry": 2,
      "columns": [
        "0000000000000003"
      ]
    }
  ]
}"#;

/// `store`'s answer to `kind` in `scope`.
fn ask(store: &ReleaseStore, scope: StoreScope, kind: QueryKind) -> f64 {
    store.answer(&ServeQuery { scope, kind }).unwrap()
}

#[test]
fn per_shard_v4_static_fixture_restore_stays_pinned() {
    let store = restore_json(PER_SHARD_V4_STATIC_FIXTURE).unwrap();
    assert!(!store.is_dynamic());
    assert_eq!(store.policy(), Some(PolicyTag::PerShard));
    assert_eq!(store.rounds(), 3);
    assert_eq!(store.cohorts(), 2);
    assert_eq!(store.records(), Some(5));
    assert_eq!(&*store.merged_round(1).unwrap(), &word_column(0b01011, 5));
    let cumulative = |scope, t, b| ask(&store, scope, QueryKind::CumulativeFraction { t, b });
    // Merged bits 10011, 11010, 01101 (record 0 first): weights 2, 2, 1,
    // 2, 2 after round 2.
    assert_eq!(cumulative(StoreScope::Merged, 0, 1), 3.0 / 5.0);
    assert_eq!(cumulative(StoreScope::Merged, 1, 2), 2.0 / 5.0);
    assert_eq!(cumulative(StoreScope::Merged, 2, 2), 4.0 / 5.0);
    assert_eq!(cumulative(StoreScope::Cohort(1), 2, 2), 2.0 / 3.0);
    let window = QueryKind::Window {
        t: 1,
        query: WindowQuery::at_least_m_ones(2, 1),
    };
    assert_eq!(ask(&store, StoreScope::Merged, window), 4.0 / 5.0);
    let pattern = QueryKind::Pattern {
        t: 2,
        pattern: Pattern::parse("10"),
    };
    assert_eq!(ask(&store, StoreScope::Merged, pattern), 2.0 / 5.0);
    // The same store built by live ingest renders byte for byte.
    let live = per_shard_static_store(3);
    assert_eq!(store, live);
    assert_eq!(snapshot_json(&live), PER_SHARD_V4_STATIC_FIXTURE);
    assert_eq!(snapshot_json(&store), PER_SHARD_V4_STATIC_FIXTURE);
}

#[test]
fn per_shard_v4_rotating_fixture_restore_stays_pinned() {
    let store = restore_json(PER_SHARD_V4_ROTATING_FIXTURE).unwrap();
    assert!(store.is_dynamic());
    assert_eq!(store.policy(), Some(PolicyTag::PerShard));
    assert_eq!(store.rounds(), 3);
    assert_eq!(store.cohorts(), 4);
    assert_eq!(store.cohort_window(0), Some(0..1));
    assert_eq!(store.cohort_window(2), Some(1..3));
    assert_eq!(store.merged_coverage(1).unwrap(), &[1, 2]);
    assert_eq!(&*store.merged_round(1).unwrap(), &word_column(0b10, 2));
    let cumulative = |scope, t, b| ask(&store, scope, QueryKind::CumulativeFraction { t, b });
    // Round 0 pools cohort 0 (weights 0, 1) and cohort 1 (weight 1).
    assert_eq!(cumulative(StoreScope::Merged, 0, 1), 2.0 / 3.0);
    // Round 2 pools cohort 2 (weight 2) and cohort 3 (weights 1, 1).
    assert_eq!(cumulative(StoreScope::Merged, 2, 2), 1.0 / 3.0);
    assert_eq!(cumulative(StoreScope::Cohort(2), 2, 2), 1.0);
    // Only cohort 1 observed both rounds 0 and 1: bits 1 then 0.
    let pattern = QueryKind::Pattern {
        t: 1,
        pattern: Pattern::parse("10"),
    };
    assert_eq!(ask(&store, StoreScope::Merged, pattern), 1.0);
    let live = per_shard_rotating_store(3);
    assert_eq!(store, live);
    assert_eq!(snapshot_json(&live), PER_SHARD_V4_ROTATING_FIXTURE);
    assert_eq!(snapshot_json(&store), PER_SHARD_V4_ROTATING_FIXTURE);
}

#[test]
fn per_shard_v2_delta_fixtures_apply_with_pinned_answers() {
    let static_case: (fn(usize) -> ReleaseStore, _) =
        (per_shard_static_store, PER_SHARD_V2_STATIC_DELTA_FIXTURE);
    let rotating_fixture = PER_SHARD_V2_ROTATING_DELTA_FIXTURE;
    for (build, fixture) in [static_case, (per_shard_rotating_store, rotating_fixture)] {
        let full = build(3);
        assert_eq!(snapshot_since_json(&full, 1).unwrap(), fixture);
        // Onto a live base and onto a restored base alike.
        let mut live = build(1);
        apply_delta_json(&mut live, fixture).unwrap();
        assert_eq!(live, full);
        let mut restored = restore_json(&snapshot_json(&build(1))).unwrap();
        apply_delta_json(&mut restored, fixture).unwrap();
        assert_eq!(restored, full);
    }
    let mut store = per_shard_static_store(1);
    apply_delta_json(&mut store, PER_SHARD_V2_STATIC_DELTA_FIXTURE).unwrap();
    let merged = QueryKind::CumulativeFraction { t: 2, b: 2 };
    assert_eq!(ask(&store, StoreScope::Merged, merged), 4.0 / 5.0);
    let mut store = per_shard_rotating_store(1);
    apply_delta_json(&mut store, PER_SHARD_V2_ROTATING_DELTA_FIXTURE).unwrap();
    let merged = QueryKind::CumulativeFraction { t: 2, b: 2 };
    assert_eq!(ask(&store, StoreScope::Merged, merged), 1.0 / 3.0);
    assert_eq!(store.merged_coverage(2).unwrap(), &[2, 3]);
}
