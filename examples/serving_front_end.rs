//! The serving deployment shape in ~60 lines: a sharded engine streams a
//! SIPP-like panel, every release lands in the store through the sink
//! hook, and a query front-end serves first reads and stored-statistic
//! reads from the same worker pool — then snapshots the store and proves
//! the restore answers identically.
//!
//! Run with: `cargo run --release --example serving_front_end`

use longsynth_suite::core::{CumulativeConfig, CumulativeSynthesizer};
use longsynth_suite::data::sipp::SippConfig;
use longsynth_suite::dp::budget::Rho;
use longsynth_suite::dp::rng::{rng_from_seed, RngFork};
use longsynth_suite::engine::{ShardPlan, ShardedEngine};
use longsynth_suite::pool::WorkerPool;
use longsynth_suite::serve::QueryService;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let (n, horizon, shards) = (20_000, 12, 4);
    let panel = SippConfig::small(n).simulate(&mut rng_from_seed(11));

    // One persistent pool under both layers.
    let pool = Arc::new(WorkerPool::new(4));
    let service = QueryService::new();
    let fork = RngFork::new(3);
    let config = CumulativeConfig::new(horizon, Rho::new(0.005).unwrap()).unwrap();
    let mut engine = ShardedEngine::with_pool(
        ShardPlan::new(n, shards).unwrap(),
        |s, _| CumulativeSynthesizer::new(config, fork.subfork(s as u64), fork.child(s as u64)),
        Arc::clone(&pool),
    )
    .unwrap();
    engine.set_sink(service.column_sink());

    let start = Instant::now();
    for (_, column) in panel.stream() {
        engine.step(column).unwrap();
    }
    println!(
        "engine: {n} individuals x {horizon} rounds on {shards} shards in {:?} \
         (budget spent: {})",
        start.elapsed(),
        engine.budget().spent()
    );

    // The canonical mixed query batch: cumulative thresholds and window
    // queries, every round, merged and per-cohort scopes.
    let queries = longsynth_suite::serve::mixed_battery(horizon, shards, 3, 3);

    // The first batch builds each window histogram the store keeps; the
    // second sums the stored statistics.
    let first = Instant::now();
    let answers = service.answer_batch(&pool, queries.clone());
    let first = first.elapsed();
    let stored = Instant::now();
    let again = service.answer_batch(&pool, queries.clone());
    let stored = stored.elapsed();
    assert!(answers.iter().chain(&again).all(Result::is_ok));
    println!(
        "served {} queries on first read in {first:?}, from stored statistics in {stored:?}",
        queries.len()
    );

    // Restart drill: snapshot -> restore -> identical answers.
    let snapshot = service.snapshot_json();
    let restored = QueryService::restore_json(&snapshot).unwrap();
    for (query, answer) in queries.iter().zip(&answers) {
        let recovered = restored.answer(query).unwrap();
        assert_eq!(answer.clone().unwrap().to_bits(), recovered.to_bits());
    }
    println!(
        "snapshot: {} bytes; restore verified bit-identical on {} queries",
        snapshot.len(),
        queries.len()
    );
}
