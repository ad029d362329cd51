//! End-to-end sharded-engine runs on the paper's SIPP-like panel: accuracy
//! survives sharding, cohort boundaries respect record identity, and the
//! engine keeps a synthesizer's round and budget bookkeeping.

use longsynth::{
    CumulativeConfig, CumulativeSynthesizer, FixedWindowConfig, FixedWindowSynthesizer,
};
use longsynth_data::sipp::SippConfig;
use longsynth_data::BitColumn;
use longsynth_dp::budget::Rho;
use longsynth_dp::rng::{rng_from_seed, RngFork};
use longsynth_engine::{EngineError, ShardPlan, ShardedEngine};
use longsynth_queries::window::quarterly_battery;

#[test]
fn sharded_fixed_window_stays_accurate_on_sipp_panel() {
    // 8 shards over a 12k panel at a generous budget: population-level
    // debiased estimates (cohort-weighted) stay near truth. Sharding costs
    // accuracy (each shard noises its own histogram), so the tolerance is
    // wider than the unsharded 0.02 at the same rho.
    let n = 12_000;
    let panel = SippConfig::small(n).simulate(&mut rng_from_seed(77));
    let config = FixedWindowConfig::new(12, 3, Rho::new(1.0).unwrap()).unwrap();
    let plan = ShardPlan::new(n, 8).unwrap();
    let fork = RngFork::new(78);
    let mut engine = ShardedEngine::new(plan, |s, _| {
        FixedWindowSynthesizer::new(config, fork.child(s as u64))
    })
    .unwrap();
    for (_, col) in panel.stream() {
        engine.step(col).unwrap();
    }
    for &t in &[2usize, 7, 11] {
        for q in quarterly_battery(3) {
            let truth = q.evaluate_true(&panel, t);
            let mut est = 0.0;
            for s in 0..engine.shards() {
                est += engine.shard(s).estimate_debiased(t, &q).unwrap()
                    * engine.plan().cohort_size(s) as f64;
            }
            est /= n as f64;
            assert!(
                (est - truth).abs() < 0.05,
                "t={t} {}: sharded {est} vs truth {truth}",
                q.name()
            );
        }
    }
    assert!(engine.budget().exhausted());
}

#[test]
fn sharded_release_equals_cohort_release_rowwise() {
    // The merged release's record blocks are exactly the shards' releases:
    // shard s's records occupy the contiguous block the plan assigns it.
    let n = 900;
    let panel = SippConfig::small(n).simulate(&mut rng_from_seed(5));
    let horizon = panel.rounds();
    let config = CumulativeConfig::new(horizon, Rho::new(0.2).unwrap()).unwrap();
    let plan = ShardPlan::new(n, 3).unwrap();
    let fork = RngFork::new(6);
    let mut engine = ShardedEngine::new(plan.clone(), |s, _| {
        CumulativeSynthesizer::new(config, fork.subfork(s as u64), fork.child(s as u64))
    })
    .unwrap();
    let mut merged_columns: Vec<BitColumn> = Vec::new();
    for (_, col) in panel.stream() {
        merged_columns.push(engine.step(col).unwrap());
    }
    for (t, merged) in merged_columns.iter().enumerate() {
        for s in 0..engine.shards() {
            let shard_col = engine.shard(s).synthetic().column(t);
            for (offset, i) in plan.range(s).enumerate() {
                assert_eq!(
                    merged.get(i),
                    shard_col.get(offset),
                    "t={t}, shard={s}, record={i}"
                );
            }
        }
    }
}

#[test]
fn engine_bookkeeping_over_a_full_run() {
    // The engine keeps the bookkeeping a synthesizer does: its horizon,
    // the rounds fed so far, the budget spent, and a clean refusal once
    // the horizon is exhausted.
    let n = 400;
    let panel = SippConfig::small(n).simulate(&mut rng_from_seed(9));
    let horizon = panel.rounds();
    let config = FixedWindowConfig::new(horizon, 2, Rho::new(0.1).unwrap()).unwrap();
    let fork = RngFork::new(10);
    let mut engine = ShardedEngine::new(ShardPlan::new(n, 2).unwrap(), |s, _| {
        FixedWindowSynthesizer::new(config, fork.child(s as u64))
    })
    .unwrap();
    assert_eq!(engine.horizon(), horizon);
    for (t, col) in panel.stream() {
        engine.step(col).unwrap();
        assert_eq!(engine.rounds_fed(), t + 1);
        assert_eq!(engine.horizon() - engine.rounds_fed(), horizon - t - 1);
    }
    assert!((engine.budget().spent().value() - 0.1).abs() < 1e-9);
    assert!(matches!(
        engine.step(&BitColumn::zeros(n)),
        Err(EngineError::HorizonExhausted { horizon: h }) if h == horizon
    ));
}
