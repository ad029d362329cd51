//! End-to-end serving over the paper's SIPP-like panel, through the
//! workspace umbrella the way an external consumer would wire it: one
//! persistent pool under both the engine and the serving front-end, the
//! release store fed by the sink hook, query traffic answered live, and a
//! snapshot surviving a "restart".

use longsynth_suite::core::{CumulativeConfig, CumulativeSynthesizer};
use longsynth_suite::data::sipp::SippConfig;
use longsynth_suite::dp::budget::Rho;
use longsynth_suite::dp::rng::{rng_from_seed, RngFork};
use longsynth_suite::engine::{ShardPlan, ShardedEngine};
use longsynth_suite::pool::WorkerPool;
use longsynth_suite::queries::cumulative::cumulative_fraction;
use longsynth_suite::serve::{QueryKind, QueryService, ServeQuery, StoreScope};
use std::sync::Arc;

#[test]
fn serving_stack_answers_live_traffic_and_survives_restart() {
    let n = 6_000;
    let horizon = 12;
    let shards = 4;
    let panel = SippConfig::small(n).simulate(&mut rng_from_seed(2024));

    let pool = Arc::new(WorkerPool::new(2));
    let service = QueryService::new();
    let fork = RngFork::new(7);
    let config = CumulativeConfig::new(horizon, Rho::new(1.0).unwrap()).unwrap();
    let mut engine = ShardedEngine::with_pool(
        ShardPlan::new(n, shards).unwrap(),
        |s, _| CumulativeSynthesizer::new(config, fork.subfork(s as u64), fork.child(s as u64)),
        Arc::clone(&pool),
    )
    .unwrap();
    engine.set_sink(service.column_sink());

    // Live run: after every round, a concurrent batch asks for the full
    // history so far, across merged and cohort scopes.
    for (t, column) in panel.stream() {
        engine.step(column).unwrap();
        let queries: Vec<ServeQuery> = (0..=t)
            .flat_map(|round| {
                std::iter::once(StoreScope::Merged)
                    .chain((0..shards).map(StoreScope::Cohort))
                    .map(move |scope| ServeQuery {
                        scope,
                        kind: QueryKind::CumulativeFraction { t: round, b: 1 },
                    })
            })
            .collect();
        let answers = service.answer_batch(&pool, queries);
        assert!(answers.iter().all(Result::is_ok), "round {t}");
    }

    // The served answers are exactly the statistics of the stored merged
    // release — no re-synthesis, no drift.
    service.with_store(|store| {
        let released = store.panel(StoreScope::Merged).unwrap();
        assert_eq!(released.rounds(), horizon);
        for t in [0, horizon / 2, horizon - 1] {
            let direct = cumulative_fraction(&released, t, 1);
            let served = service
                .answer(&ServeQuery {
                    scope: StoreScope::Merged,
                    kind: QueryKind::CumulativeFraction { t, b: 1 },
                })
                .unwrap();
            assert_eq!(direct.to_bits(), served.to_bits());
        }
    });

    // At a generous budget the served release tracks the ground truth.
    let truth = cumulative_fraction(&panel, horizon - 1, 1);
    let served = service
        .answer(&ServeQuery {
            scope: StoreScope::Merged,
            kind: QueryKind::CumulativeFraction {
                t: horizon - 1,
                b: 1,
            },
        })
        .unwrap();
    assert!(
        (truth - served).abs() < 0.05,
        "served {served} vs truth {truth}"
    );

    // Restart: snapshot, restore, identical answers from the restored store.
    let restored = QueryService::restore_json(&service.snapshot_json()).unwrap();
    for t in 0..horizon {
        for b in 1..=3 {
            let q = ServeQuery {
                scope: StoreScope::Merged,
                kind: QueryKind::CumulativeFraction { t, b },
            };
            assert_eq!(
                service.answer(&q).unwrap().to_bits(),
                restored.answer(&q).unwrap().to_bits(),
                "t={t} b={b}"
            );
        }
    }
}
