//! Serving throughput: queries/sec from the release store, first reads
//! against stored-statistic reads, and concurrent batch serving across
//! pool sizes — the tracking instrument for the query-serving subsystem
//! (`longsynth-serve`).
//!
//! Setup (once): a 4-shard cumulative engine run over a 50k x 12 panel,
//! releases ingested into the store through the engine's sink. Benches:
//!
//! * `serve_first_read/seq` — the full mixed query battery answered on a
//!   fresh copy of the store, so every window histogram is built on its
//!   first read;
//! * `serve_stored/seq` — the same battery once every histogram it reads
//!   is stored (each answer sums stored counts);
//! * `serve_batch/p{1,2,4,8}` — the battery as one concurrent
//!   `answer_batch` on a `WorkerPool` of 1/2/4/8 workers, histograms
//!   stored (measures the serving front-end's dispatch overhead and
//!   scaling).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use longsynth::{CumulativeConfig, CumulativeSynthesizer};
use longsynth_bench::bench_panel;
use longsynth_dp::budget::Rho;
use longsynth_dp::rng::{rng_from_seed, RngFork};
use longsynth_engine::{ShardPlan, ShardedEngine};
use longsynth_pool::WorkerPool;
use longsynth_serve::{mixed_battery, QueryService, ReleaseStore};

const POPULATION: usize = 50_000;
const HORIZON: usize = 12;
const SHARDS: usize = 4;
const WINDOW: usize = 3;

/// One engine run with the serving sink attached; returns the filled store.
fn build_store() -> ReleaseStore {
    let panel = bench_panel(POPULATION, HORIZON);
    let fork = RngFork::new(0x5E11);
    let service = QueryService::new();
    let mut engine = ShardedEngine::new(ShardPlan::new(POPULATION, SHARDS).unwrap(), |s, _| {
        let config = CumulativeConfig::new(HORIZON, Rho::new(0.005).unwrap()).unwrap();
        CumulativeSynthesizer::new(config, fork.subfork(s as u64), fork.child(s as u64))
    })
    .unwrap();
    engine.set_sink(service.column_sink());
    for (_, column) in panel.stream() {
        engine.step(column).expect("in-horizon step");
    }
    service.with_store(Clone::clone)
}

fn bench_serve_throughput(c: &mut Criterion) {
    let store = build_store();
    // The canonical mixed read battery (same workload the CLI `serve`
    // subcommand and the serving example drive): cumulative thresholds
    // 1..=3 and quarterly window queries, every round, every scope.
    let battery = mixed_battery(store.rounds(), store.cohorts(), 3, WINDOW);
    let elements = battery.len() as u64;

    // First reads: a fresh store every iteration, so every window
    // histogram is built from the stored columns.
    let mut group = c.benchmark_group("serve_first_read");
    group
        .sample_size(10)
        .throughput(Throughput::Elements(elements));
    group.bench_function("seq", |b| {
        b.iter_batched(
            || QueryService::from_store(store.clone()),
            |service| {
                let mut acc = 0.0;
                for query in &battery {
                    acc += service.answer(query).expect("answerable");
                }
                acc
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();

    // Stored: the same battery once every histogram it reads is stored.
    let mut group = c.benchmark_group("serve_stored");
    group
        .sample_size(50)
        .throughput(Throughput::Elements(elements));
    let warm = QueryService::from_store(store.clone());
    for query in &battery {
        warm.answer(query).expect("answerable");
    }
    group.bench_function("seq", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for query in &battery {
                acc += warm.answer(query).expect("answerable");
            }
            acc
        })
    });
    group.finish();

    // Concurrent batches on the shared pool, by pool size.
    let mut group = c.benchmark_group("serve_batch");
    group
        .sample_size(30)
        .throughput(Throughput::Elements(elements));
    for threads in [1usize, 2, 4, 8] {
        let pool = WorkerPool::new(threads);
        group.bench_with_input(BenchmarkId::new("p", threads), &threads, |b, _| {
            b.iter(|| {
                let answers = warm.answer_batch(&pool, battery.clone());
                answers.len()
            })
        });
    }
    group.finish();
    let _ = rng_from_seed(0); // keep the shared-import surface exercised
}

criterion_group!(benches, bench_serve_throughput);
criterion_main!(benches);
