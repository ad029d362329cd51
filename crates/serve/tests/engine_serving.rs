//! End-to-end serving: a live sharded engine run feeding the store through
//! the release sink, queried during and after the run — the full
//! deployment shape of the serving subsystem.

use longsynth::{
    ContinualSynthesizer, CumulativeConfig, CumulativeSynthesizer, FixedWindowConfig,
    FixedWindowSynthesizer,
};
use longsynth_data::generators::iid_bernoulli;
use longsynth_data::BitColumn;
use longsynth_dp::budget::Rho;
use longsynth_dp::rng::{rng_from_seed, RngFork};
use longsynth_engine::{
    AggregationPolicy, PanelSchedule, PolicyTag, ShardPlan, ShardedEngine, SlotRole,
};
use longsynth_pool::WorkerPool;
use longsynth_serve::{QueryKind, QueryService, ServeQuery, StoreScope};
use std::sync::Arc;

#[test]
fn cumulative_engine_feeds_store_and_queries_serve_during_run() {
    let n = 240;
    let horizon = 6;
    let panel = iid_bernoulli(&mut rng_from_seed(11), n, horizon, 0.25);
    let fork = RngFork::new(5);
    let mut engine = ShardedEngine::new(ShardPlan::new(n, 3).unwrap(), |s, _| {
        let config = CumulativeConfig::new(horizon, Rho::new(0.4).unwrap()).unwrap();
        CumulativeSynthesizer::new(
            config,
            fork.subfork(s as u64),
            rng_from_seed(100 + s as u64),
        )
    })
    .unwrap();

    let service = QueryService::new();
    engine.set_sink(service.column_sink());

    for (t, column) in panel.stream() {
        let merged = engine.step(column).unwrap();
        assert_eq!(merged.len(), n);
        // The round is queryable the moment step returns.
        service.with_store(|store| assert_eq!(store.rounds(), t + 1));
        let fresh = service
            .answer(&ServeQuery {
                scope: StoreScope::Merged,
                kind: QueryKind::CumulativeFraction { t, b: 1 },
            })
            .unwrap();
        assert!((0.0..=1.0).contains(&fresh));
    }

    // Stored merged rounds equal the releases the caller saw; per-cohort
    // panels partition the records.
    service.with_store(|store| {
        assert_eq!(store.rounds(), horizon);
        assert_eq!(store.cohorts(), 3);
        assert_eq!(store.records(), Some(n));
        let sizes: usize = (0..3)
            .map(|c| store.panel(StoreScope::Cohort(c)).unwrap().individuals())
            .sum();
        assert_eq!(sizes, n);
    });
}

#[test]
fn fixed_window_engine_feeds_store_through_release_variants() {
    let n = 180;
    let horizon = 7;
    let window = 3;
    let panel = iid_bernoulli(&mut rng_from_seed(21), n, horizon, 0.3);
    let fork = RngFork::new(8);
    let config = FixedWindowConfig::new(horizon, window, Rho::new(0.1).unwrap()).unwrap();
    let mut engine = ShardedEngine::new(ShardPlan::new(n, 2).unwrap(), |s, _| {
        FixedWindowSynthesizer::new(config, fork.child(s as u64))
    })
    .unwrap();

    let service = QueryService::new();
    engine.set_sink(service.release_sink());

    for (_, column) in panel.stream() {
        engine.step(column).unwrap();
    }

    // Buffered rounds stored nothing; Initial seeded `window` columns at
    // once; each later Update appended one — horizon columns in total.
    service.with_store(|store| {
        assert_eq!(store.rounds(), horizon);
        // Fixed-window releases carry n* >= n padded records.
        assert!(store.records().unwrap() >= n);
    });

    // Window queries answer from the stored release at full width.
    let value = service
        .answer(&ServeQuery {
            scope: StoreScope::Merged,
            kind: QueryKind::Window {
                t: horizon - 1,
                query: longsynth_queries::WindowQuery::at_least_m_ones(window, 1),
            },
        })
        .unwrap();
    assert!((0.0..=1.0).contains(&value));
}

#[test]
fn shared_noise_engine_feeds_store_with_the_shared_tag() {
    let n = 200;
    let horizon = 7;
    let window = 3;
    let panel = iid_bernoulli(&mut rng_from_seed(51), n, horizon, 0.3);
    let fork = RngFork::new(9);
    let policy = AggregationPolicy::shared();
    let (cohort_share, _) = policy.budget_shares(4);
    let schedule = PanelSchedule::uniform(
        n,
        4,
        horizon,
        Rho::new(0.1 * cohort_share).unwrap(),
        Rho::new(0.1).unwrap(),
    )
    .unwrap();
    let mut engine = ShardedEngine::with_schedule(schedule, policy, |slot| {
        let config = FixedWindowConfig::new(horizon, window, slot.budget).unwrap();
        let stream = match slot.role {
            SlotRole::Shard(s) => s as u64,
            SlotRole::Population => 0xA110,
        };
        FixedWindowSynthesizer::new(config, fork.child(stream))
    })
    .unwrap();

    let service = QueryService::new();
    engine.set_sink(service.release_sink());
    for (_, column) in panel.stream() {
        engine.step(column).unwrap();
    }

    // The store recorded the shared tag; the merged panel is the
    // population synthesis (its n* is independent of the cohort sum),
    // and every scope stays queryable.
    let population_n_star = engine.population_synthesizer().unwrap().n_star();
    service.with_store(|store| {
        assert_eq!(store.policy(), Some(PolicyTag::Shared));
        assert_eq!(store.rounds(), horizon);
        assert_eq!(store.cohorts(), 4);
        assert_eq!(store.records(), Some(population_n_star));
        let cohort_sum: usize = (0..4)
            .map(|c| store.panel(StoreScope::Cohort(c)).unwrap().individuals())
            .sum();
        assert_ne!(cohort_sum, population_n_star, "independent n* expected");
    });
    for scope in [
        StoreScope::Merged,
        StoreScope::Cohort(0),
        StoreScope::Cohort(3),
    ] {
        let value = service
            .answer(&ServeQuery {
                scope,
                kind: QueryKind::Window {
                    t: horizon - 1,
                    query: longsynth_queries::WindowQuery::at_least_m_ones(window, 2),
                },
            })
            .unwrap();
        assert!((0.0..=1.0).contains(&value));
    }

    // Snapshot / restore keeps the tag and every answer; deltas apply.
    let restored = QueryService::restore_json(&service.snapshot_json()).unwrap();
    restored.with_store(|store| assert_eq!(store.policy(), Some(PolicyTag::Shared)));
    let delta = service.snapshot_since_json(horizon).unwrap();
    restored.apply_delta_json(&delta).unwrap(); // empty delta applies cleanly
}

/// The full rotating-panel deployment shape, end to end: a scheduled
/// engine with overlapping waves (≥ 3 cohorts joining and retiring
/// mid-stream) feeds the store through the same `column_sink`, the store
/// indexes releases by cohort × round range, queries answer during the
/// run at every scope, and the generalized budget invariant (max
/// individual lifetime spend ≤ the schedule's cap) is verified every
/// round.
#[test]
fn rotating_engine_feeds_store_and_queries_through_churn() {
    let horizon = 7;
    let waves = 3;
    let total = Rho::new(0.3).unwrap();
    // waves + horizon − 1 = 9 cohorts of 20 — constant active set of 60.
    let schedule = PanelSchedule::rotating(180, horizon, waves, total, total).unwrap();
    assert!(schedule.cohorts() >= 5);
    let fork = RngFork::new(71);
    let mut engine =
        ShardedEngine::with_schedule(schedule.clone(), AggregationPolicy::PerShardNoise, |slot| {
            let config = CumulativeConfig::new(slot.horizon, slot.budget).unwrap();
            let SlotRole::Shard(s) = slot.role else {
                unreachable!("per-shard noise never builds a population slot");
            };
            CumulativeSynthesizer::new(config, fork.subfork(s as u64), rng_from_seed(s as u64))
        })
        .unwrap();
    let service = QueryService::new();
    engine.set_sink(service.column_sink());

    // Per-cohort synthetic "true" panels spanning each cohort's window.
    let panels: Vec<_> = (0..schedule.cohorts())
        .map(|c| {
            iid_bernoulli(
                &mut rng_from_seed(500 + c as u64),
                schedule.cohort_size(c),
                schedule.cohort(c).horizon,
                0.3,
            )
        })
        .collect();
    for round in 0..horizon {
        let active = schedule.active(round);
        let columns: Vec<&BitColumn> = active
            .iter()
            .map(|&c| panels[c].column(round - schedule.cohort(c).entry_round))
            .collect();
        let column = BitColumn::concat(columns.iter().copied());
        let release = engine.step(&column).unwrap();
        assert_eq!(release.len(), schedule.active_population(round));
        // Budget invariant, every round.
        assert!(
            engine.budget().within_cap(schedule.total_budget()),
            "round {round}: budget invariant violated"
        );
        // The round is queryable the moment step returns — merged scope
        // pools the covering cohorts.
        service.with_store(|store| {
            assert!(store.is_dynamic());
            assert_eq!(store.rounds(), round + 1);
        });
        let merged = service
            .answer(&ServeQuery {
                scope: StoreScope::Merged,
                kind: QueryKind::CumulativeFraction { t: round, b: 1 },
            })
            .unwrap();
        assert!((0.0..=1.0).contains(&merged));
        // Each active cohort answers at its global round.
        for &c in &active {
            let value = service
                .answer(&ServeQuery {
                    scope: StoreScope::Cohort(c),
                    kind: QueryKind::CumulativeFraction { t: round, b: 1 },
                })
                .unwrap();
            assert!((0.0..=1.0).contains(&value));
        }
    }

    // After the run: cohort windows in the store match the schedule, and
    // retired cohorts' history is still queryable (sealed, not erased).
    service.with_store(|store| {
        for c in 0..schedule.cohorts() {
            assert_eq!(
                store.cohort_window(c),
                Some(schedule.cohort(c).window()),
                "cohort {c} round range"
            );
        }
    });
    assert!(engine.shard(0).is_sealed());
    let early = service
        .answer(&ServeQuery {
            scope: StoreScope::Cohort(0),
            kind: QueryKind::CumulativeFraction { t: 0, b: 1 },
        })
        .unwrap();
    assert!((0.0..=1.0).contains(&early));

    // Snapshot (v3) → restore → bit-identical answers across scopes.
    let restored = QueryService::restore_json(&service.snapshot_json()).unwrap();
    for query in [
        ServeQuery {
            scope: StoreScope::Merged,
            kind: QueryKind::CumulativeFraction {
                t: horizon - 1,
                b: 2,
            },
        },
        ServeQuery {
            scope: StoreScope::Cohort(4),
            kind: QueryKind::CumulativeFraction {
                t: schedule.cohort(4).entry_round,
                b: 1,
            },
        },
    ] {
        assert_eq!(
            service.answer(&query).unwrap().to_bits(),
            restored.answer(&query).unwrap().to_bits()
        );
    }
}

/// A scheduled engine whose schedule is degenerate (static) emits plain
/// lockstep sink rounds: the store stays static — rectangular merged
/// panel, concatenation checks, v3-but-not-dynamic snapshots — exactly as
/// if a plan-based engine had fed it.
#[test]
fn static_scheduled_engine_feeds_a_static_store() {
    let n = 90;
    let horizon = 4;
    let schedule = longsynth_engine::PanelSchedule::uniform(
        n,
        3,
        horizon,
        Rho::new(0.3).unwrap(),
        Rho::new(0.3).unwrap(),
    )
    .unwrap();
    let fork = RngFork::new(13);
    let mut engine =
        ShardedEngine::with_schedule(schedule, AggregationPolicy::PerShardNoise, |slot| {
            let config = CumulativeConfig::new(slot.horizon, slot.budget).unwrap();
            let SlotRole::Shard(s) = slot.role else {
                unreachable!("per-shard noise never builds a population slot");
            };
            CumulativeSynthesizer::new(config, fork.subfork(s as u64), rng_from_seed(s as u64))
        })
        .unwrap();
    let service = QueryService::new();
    engine.set_sink(service.column_sink());
    let panel = iid_bernoulli(&mut rng_from_seed(61), n, horizon, 0.3);
    for (_, column) in panel.stream() {
        engine.step(column).unwrap();
    }
    service.with_store(|store| {
        assert!(!store.is_dynamic(), "degenerate schedule ⇒ static store");
        assert_eq!(store.rounds(), horizon);
        assert_eq!(store.records(), Some(n));
        assert!(store.panel(StoreScope::Merged).is_ok());
    });
}

#[test]
fn one_pool_serves_engine_and_query_traffic() {
    let n = 300;
    let horizon = 5;
    let pool = Arc::new(WorkerPool::new(2));
    let panel = iid_bernoulli(&mut rng_from_seed(31), n, horizon, 0.2);
    let fork = RngFork::new(3);
    let mut engine = ShardedEngine::with_pool(
        ShardPlan::new(n, 4).unwrap(),
        |s, _| {
            let config = CumulativeConfig::new(horizon, Rho::new(0.4).unwrap()).unwrap();
            CumulativeSynthesizer::new(config, fork.subfork(s as u64), rng_from_seed(s as u64))
        },
        Arc::clone(&pool),
    )
    .unwrap();
    let service = QueryService::new();
    engine.set_sink(service.column_sink());

    for (t, column) in panel.stream() {
        engine.step(column).unwrap();
        // Interleave serving batches on the same pool the engine steps on.
        let queries: Vec<ServeQuery> = (0..=t)
            .map(|round| ServeQuery {
                scope: StoreScope::Merged,
                kind: QueryKind::CumulativeFraction { t: round, b: 1 },
            })
            .collect();
        let answers = service.answer_batch(&pool, queries);
        assert!(answers.into_iter().all(|a| a.is_ok()));
    }
    let (hits, misses) = service.cache_stats();
    // Round t's query was a miss once and a hit in every later batch.
    assert_eq!(misses as usize, horizon);
    assert_eq!(hits as usize, (horizon * (horizon + 1)) / 2 - horizon);
}

#[test]
fn snapshot_survives_a_restart_mid_run() {
    let n = 120;
    let horizon = 6;
    let panel = iid_bernoulli(&mut rng_from_seed(41), n, horizon, 0.35);
    let fork = RngFork::new(17);
    let mut engine = ShardedEngine::new(ShardPlan::new(n, 2).unwrap(), |s, _| {
        let config = CumulativeConfig::new(horizon, Rho::new(0.4).unwrap()).unwrap();
        CumulativeSynthesizer::new(config, fork.subfork(s as u64), rng_from_seed(s as u64))
    })
    .unwrap();
    let service = QueryService::new();
    engine.set_sink(service.column_sink());

    // Run half the horizon, snapshot ("process dies"), restore, continue
    // serving history from the restored store.
    let columns: Vec<_> = panel.stream().map(|(_, c)| c.clone()).collect();
    for column in &columns[..3] {
        engine.step(column).unwrap();
    }
    let snapshot = service.snapshot_json();
    let restored = QueryService::restore_json(&snapshot).unwrap();
    for t in 0..3 {
        let q = ServeQuery {
            scope: StoreScope::Merged,
            kind: QueryKind::CumulativeFraction { t, b: 2 },
        };
        assert_eq!(
            service.answer(&q).unwrap().to_bits(),
            restored.answer(&q).unwrap().to_bits()
        );
    }
    // The restored store refuses queries for rounds it never saw.
    assert!(restored
        .answer(&ServeQuery {
            scope: StoreScope::Merged,
            kind: QueryKind::CumulativeFraction { t: 5, b: 1 },
        })
        .is_err());
}
