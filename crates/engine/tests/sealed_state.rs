//! Live-heap check: a synthesizer run to its horizon keeps only what it
//! released.
//!
//! Every family needs its raw input and per-record working state (raw
//! windows, weight or overlap classes, selection scratch) only to build
//! the next round, so the `finalize` that completes the horizon drops
//! them. What stays is the synthetic panel, the public per-record labels,
//! the per-round estimates and a constant (counters, ledger, noise
//! sampler, RNG). This file counts live heap bytes with its own global
//! allocator and checks each family against that bound, then checks a
//! small rotating shared-noise engine, whose sealed cohorts must meet the
//! same bound.
//!
//! The counter is process-wide, so every measurement sits in the one
//! `#[test]` below: no other test of this binary runs beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;

use longsynth::baseline::RecomputeBaseline;
use longsynth::categorical::{CategoricalConfig, CategoricalSynthesizer};
use longsynth::{
    ContinualSynthesizer, CumulativeConfig, CumulativeSynthesizer, FixedWindowConfig,
    FixedWindowSynthesizer, PaddingPolicy,
};
use longsynth_data::generators::{categorical_markov, iid_bernoulli};
use longsynth_data::{BitColumn, LongitudinalDataset};
use longsynth_dp::budget::Rho;
use longsynth_dp::rng::{rng_from_seed, RngFork};
use longsynth_engine::{AggregationPolicy, PanelSchedule, ShardedEngine, SlotRole};
use longsynth_pool::WorkerPool;

/// Bytes currently allocated through the global allocator.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct LiveBytes;

// SAFETY: every method forwards its arguments unchanged to `System`,
// so each caller's guarantees (a non-zero-size layout, a pointer that
// `System` returned for that layout) are the ones `System` requires. The
// counter is a statistic that publishes no other data, hence `Relaxed`.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        moved
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

/// Heap bytes a synthesizer may keep beyond its release: counters,
/// ledger, sampler, RNG state and vector slack. Independent of `n`.
const CONSTANT: usize = 4 * 1024;

/// What the engine itself keeps beside its synthesizers: the schedule,
/// its layouts and the pool channel's current block.
const ENGINE_CONSTANT: usize = 16 * 1024;

/// The heap of a panel of packed columns: the words, plus the column
/// vector at its doubling capacity.
fn panel_bytes(panel: &LongitudinalDataset) -> usize {
    let words: usize = panel.columns().iter().map(|c| c.as_words().len()).sum();
    words * size_of::<u64>() + panel.rounds().next_power_of_two() * size_of::<BitColumn>()
}

/// The heap of per-round estimate rows, at doubling capacity.
fn rows_bytes(rows: &[&[i64]]) -> usize {
    let cells: usize = rows.iter().map(|row| row.len()).sum();
    cells * size_of::<i64>() + rows.len().next_power_of_two() * size_of::<Vec<i64>>()
}

fn cumulative_release_bytes(synth: &CumulativeSynthesizer) -> usize {
    let rows: Vec<&[i64]> = (0..synth.round())
        .map(|t| synth.threshold_estimates(t).unwrap())
        .collect();
    panel_bytes(synth.synthetic()) + rows_bytes(&rows)
}

/// Measure the heap a value built by `build` still holds once `build`
/// has returned (its transient allocations freed), with the bound the
/// value's own accessors give.
fn retained<T>(build: impl FnOnce() -> T, bound: impl Fn(&T) -> usize) -> (T, usize, usize) {
    let before = live();
    let value = build();
    let kept = usize::try_from(live() - before).expect("a run cannot free what it did not hold");
    let bound = bound(&value);
    (value, kept, bound)
}

/// Every measurement, in one test: the family checks, then the engine.
#[test]
fn sealed_synthesizers_keep_only_their_release() {
    families_keep_only_their_release();
    rotating_engine_keeps_only_releases();
}

/// Each family run to its horizon keeps at most its release plus
/// [`CONSTANT`].
fn families_keep_only_their_release() {
    let seeds = RngFork::new(7);

    // Cumulative (Algorithm 2), persistent pipeline.
    let panel = iid_bernoulli(&mut rng_from_seed(1), 2_500, 8, 0.3);
    let (synth, kept, release) = retained(
        || {
            let config = CumulativeConfig::new(8, Rho::new(0.5).unwrap()).unwrap();
            let mut synth = CumulativeSynthesizer::new(config, seeds.subfork(1), seeds.child(1));
            for (_, column) in panel.stream() {
                synth.step(column).unwrap();
            }
            synth
        },
        cumulative_release_bytes,
    );
    assert!(synth.is_sealed());
    assert!(
        kept <= release + CONSTANT && kept < 8 * 1024,
        "cumulative 2,500 x 8 keeps {kept} B for a {release} B release"
    );

    // Fixed window (Algorithm 1): the synthetic panel, the public
    // padding labels and the released targets.
    let (synth, kept, release) = retained(
        || {
            let config = FixedWindowConfig::new(8, 3, Rho::new(0.5).unwrap()).unwrap();
            let mut synth = FixedWindowSynthesizer::new(config, seeds.child(2));
            for (_, column) in panel.stream() {
                synth.step(column).unwrap();
            }
            synth
        },
        |synth| {
            let targets: Vec<&[i64]> = (2..8)
                .map(|t| synth.histogram_estimate(t).unwrap())
                .collect();
            let cells: usize = targets.iter().map(|row| row.len()).sum();
            panel_bytes(synth.synthetic())
                + std::mem::size_of_val(synth.padding_flags())
                + cells * size_of::<i64>()
        },
    );
    assert!(synth.is_sealed());
    assert!(
        kept <= release + CONSTANT,
        "fixed-window 2,500 x 8 (n* = {}) keeps {kept} B for a {release} B release",
        synth.n_star()
    );

    // Categorical extension: one category byte per record and round,
    // and the released targets.
    let categorical = categorical_markov(&mut rng_from_seed(2), 2_500, 8, 3, 0.7);
    let (synth, kept, release) = retained(
        || {
            let config = CategoricalConfig::new(8, 2, 3, Rho::new(0.5).unwrap()).unwrap();
            let mut synth = CategoricalSynthesizer::new(config, seeds.child(3));
            for (_, column) in categorical.stream() {
                synth.step(column).unwrap();
            }
            synth
        },
        |synth| {
            let cells: usize = (1..8)
                .map(|t| synth.histogram_estimate(t).unwrap().len())
                .sum();
            8 * synth.n_star() + 8 * size_of::<Vec<u8>>() + cells * size_of::<i64>()
        },
    );
    assert!(synth.is_sealed());
    assert!(
        kept <= release + CONSTANT,
        "categorical 2,500 x 8 (n* = {}) keeps {kept} B for a {release} B release",
        synth.n_star()
    );

    // Recompute baseline: one fresh synthetic panel per released round.
    let wide = iid_bernoulli(&mut rng_from_seed(3), 20_000, 6, 0.3);
    let (baseline, kept, release) = retained(
        || {
            let mut baseline = RecomputeBaseline::new(
                6,
                3,
                Rho::new(0.5).unwrap(),
                PaddingPolicy::Recommended { beta: 0.05 },
                seeds.subfork(4),
            )
            .unwrap();
            for (_, column) in wide.stream() {
                baseline.step(column).unwrap();
            }
            baseline
        },
        |baseline| {
            (2..6)
                .map(|t| panel_bytes(baseline.release(t).unwrap()))
                .sum::<usize>()
                + 4 * size_of::<LongitudinalDataset>()
        },
    );
    assert!(baseline.is_sealed());
    assert!(
        kept <= release + CONSTANT,
        "baseline 20,000 x 6 keeps {kept} B for a {release} B release"
    );
}

/// The rotating shared-noise engine (cumulative cohorts, a windowed
/// population synthesizer), run to its horizon: every cohort is sealed,
/// and the engine keeps at most each synthesizer's release bound plus a
/// constant.
fn rotating_engine_keeps_only_releases() {
    let (cohort_size, rounds, waves) = (2_500, 12, 4);
    let cohorts = waves + rounds - 1;
    let policy = AggregationPolicy::shared();
    let (cohort_share, _) = policy.budget_shares(cohorts);
    let schedule = PanelSchedule::rotating(
        cohort_size * cohorts,
        rounds,
        waves,
        Rho::new(0.5 * cohort_share).unwrap(),
        Rho::new(0.5).unwrap(),
    )
    .unwrap();
    let columns: Vec<BitColumn> = (0..rounds)
        .map(|r| {
            let population = schedule.active_population(r);
            BitColumn::from_iter_bits((0..population).map(|i| (i * 7 + r * 3) % 10 < 3))
        })
        .collect();
    let pool = Arc::new(WorkerPool::new(1));
    let fork = RngFork::new(11);

    let (engine, kept, bound) = retained(
        || {
            let mut engine = ShardedEngine::with_schedule_and_pool(
                schedule.clone(),
                policy,
                |slot| {
                    let config = CumulativeConfig::new(slot.horizon, slot.budget).unwrap();
                    let (config, stream) = match slot.role {
                        SlotRole::Population => (config.with_window(waves).unwrap(), 0xA110),
                        SlotRole::Shard(s) => (config, s as u64),
                    };
                    CumulativeSynthesizer::new(config, fork.subfork(stream), fork.child(stream))
                },
                pool,
            )
            .unwrap();
            for column in &columns {
                engine.step(column).unwrap();
            }
            engine
        },
        |engine| {
            let cohorts: usize = (0..engine.shards())
                .map(|c| cumulative_release_bytes(engine.shard(c)) + CONSTANT)
                .sum();
            let population = engine.population_synthesizer().expect("shared noise");
            cohorts + cumulative_release_bytes(population) + CONSTANT + ENGINE_CONSTANT
        },
    );
    assert!((0..engine.shards()).all(|c| engine.shard(c).is_sealed()));
    assert_eq!(engine.retired_cohorts(), Some(cohorts - waves));
    let population = cumulative_release_bytes(engine.population_synthesizer().unwrap());
    let per_cohort = kept.saturating_sub(population + CONSTANT + ENGINE_CONSTANT) / cohorts;
    assert!(
        kept <= bound,
        "rotating engine keeps {kept} B against a {bound} B bound \
         (about {per_cohort} B per sealed {cohort_size}-record cohort)"
    );
}
