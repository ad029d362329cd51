//! Engine observability: per-round phase spans and the privacy-budget
//! audit ledger.
//!
//! An [`EngineObserver`] is attached with
//! [`ShardedEngine::set_observer`](crate::ShardedEngine::set_observer)
//! and is **construction-time optional**: an engine without one runs the
//! identical uninstrumented code path (no clocks are read, no events
//! recorded), so the bit-exact pinned release streams are untouched
//! either way — instrumentation only ever *reads* budgets and wall
//! clocks, never the RNG streams.
//!
//! ## Round spans
//!
//! Each completed round contributes to up to six latency histograms
//! (milliseconds, default buckets):
//!
//! | metric | span |
//! |---|---|
//! | `engine_round_ms` | the whole round, entry to release |
//! | `engine_prepare_ms` | input split |
//! | `engine_finalize_ms` | driving the shard synthesizers (per-shard noise draws happen in here) |
//! | `engine_merge_ms` | release concatenation / aggregate summation + alignment (+ lifetime views and scheduled retirements under rotating shared noise) |
//! | `engine_noise_ms` | the population-level privatization — the round's single shared-noise draw |
//! | `engine_sink_ms` | the attached [`ReleaseSink`](crate::ReleaseSink) callback |
//!
//! Phases a path never enters (e.g. `engine_noise_ms` under per-shard
//! noise, where privatization happens inside the shard span) are simply
//! not observed, so quantiles are never diluted with zeros.
//! `engine_rounds_total` counts committed rounds.
//!
//! ## The audit ledger
//!
//! After every committed round the observer diffs each budget line
//! (every cohort, plus the population level) against the previous round
//! and appends one [`BudgetEvent`] per line
//! that moved — marginal ρ plus the engine's own cumulative value. The
//! ledger therefore replays to **exactly** the `EngineBudget` totals
//! ([`EngineObserver::replay_matches`]), which the `budget_ledger`
//! property tests pin across every schedule family.

use std::time::Instant;

use longsynth_obs::{BudgetEvent, BudgetLedger, BudgetLevel, Counter, Histogram, MetricsRegistry};

use crate::budget::EngineBudget;

/// Per-round phase durations in milliseconds. `None` = the path never
/// entered that phase this round.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct RoundTimings {
    prepare_ms: Option<f64>,
    finalize_ms: Option<f64>,
    merge_ms: Option<f64>,
    noise_ms: Option<f64>,
    sink_ms: Option<f64>,
}

/// A lap clock threaded through a round's phases. Disabled (no observer
/// attached) it never reads the wall clock; enabled, each `lap_*` call
/// stores the time since the previous lap as its phase. A round laps each
/// phase at most once.
#[derive(Debug)]
pub(crate) struct PhaseClock {
    started: Option<Instant>,
    last: Option<Instant>,
    timings: RoundTimings,
}

impl PhaseClock {
    pub(crate) fn new(enabled: bool) -> Self {
        let now = enabled.then(Instant::now);
        Self {
            started: now,
            last: now,
            timings: RoundTimings::default(),
        }
    }

    fn lap(&mut self) -> Option<f64> {
        let last = self.last.as_mut()?;
        let now = Instant::now();
        let elapsed_ms = now.duration_since(*last).as_secs_f64() * 1e3;
        *last = now;
        Some(elapsed_ms)
    }

    pub(crate) fn lap_prepare(&mut self) {
        self.timings.prepare_ms = self.lap();
    }

    pub(crate) fn lap_finalize(&mut self) {
        self.timings.finalize_ms = self.lap();
    }

    pub(crate) fn lap_merge(&mut self) {
        self.timings.merge_ms = self.lap();
    }

    pub(crate) fn lap_noise(&mut self) {
        self.timings.noise_ms = self.lap();
    }

    pub(crate) fn lap_sink(&mut self) {
        self.timings.sink_ms = self.lap();
    }

    fn finish(self) -> (RoundTimings, Option<f64>) {
        let total = self
            .started
            .map(|started| started.elapsed().as_secs_f64() * 1e3);
        (self.timings, total)
    }
}

/// Round-level engine instrumentation: span histograms in a shared
/// [`MetricsRegistry`] plus the append-only privacy-budget
/// [`BudgetLedger`]. See the module docs for the metric/phase map.
pub struct EngineObserver {
    registry: MetricsRegistry,
    ledger: BudgetLedger,
    rounds: Counter,
    round_ms: Histogram,
    prepare_ms: Histogram,
    finalize_ms: Histogram,
    merge_ms: Histogram,
    noise_ms: Histogram,
    sink_ms: Histogram,
    /// Last committed cumulative spend per cohort line (grown on demand).
    last_cohort_spent: Vec<f64>,
    /// Last committed cumulative population-level spend.
    last_population_spent: f64,
}

impl EngineObserver {
    /// Build an observer registering the engine metrics in `registry`
    /// and starting an empty budget ledger.
    pub fn new(registry: &MetricsRegistry) -> Self {
        Self {
            registry: registry.clone(),
            ledger: BudgetLedger::new(),
            rounds: registry.counter("engine_rounds_total"),
            round_ms: registry.latency_histogram("engine_round_ms"),
            prepare_ms: registry.latency_histogram("engine_prepare_ms"),
            finalize_ms: registry.latency_histogram("engine_finalize_ms"),
            merge_ms: registry.latency_histogram("engine_merge_ms"),
            noise_ms: registry.latency_histogram("engine_noise_ms"),
            sink_ms: registry.latency_histogram("engine_sink_ms"),
            last_cohort_spent: Vec::new(),
            last_population_spent: 0.0,
        }
    }

    /// The registry this observer reports into.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The privacy-budget audit ledger (shared handle — clone it to keep
    /// reading after the engine is dropped).
    pub fn ledger(&self) -> &BudgetLedger {
        &self.ledger
    }

    /// True when the ledger replays to exactly `budget`'s accounting:
    /// every per-cohort line, the parallel-composed cohort level, the
    /// population level, and the composed lifetime totals all agree by
    /// f64 equality (the replay folds the engine's own cumulative
    /// values with the same max/add composition `EngineBudget` uses, so
    /// agreement is exact, not approximate).
    pub fn replay_matches(&self, budget: &EngineBudget) -> bool {
        let replay = self.ledger.replay();
        budget
            .per_shard()
            .iter()
            .enumerate()
            .all(|(c, rho)| replay.cohort(c) == rho.value())
            && replay.cohort_spent() == budget.cohort_spent().value()
            && replay.population_spent() == budget.population_spent().value()
            && replay.spent() == budget.spent().value()
            && replay.max_lifetime_spend() == budget.max_lifetime_spend().value()
    }

    /// Commit one completed round: observe its phase spans and append a
    /// budget event for every ledger line that moved.
    pub(crate) fn commit_round(
        &mut self,
        round: usize,
        clock: PhaseClock,
        per_cohort_spent: &[f64],
        population_spent: Option<f64>,
    ) {
        let (timings, total) = clock.finish();
        self.rounds.inc();
        if let Some(ms) = total {
            self.round_ms.observe(ms);
        }
        for (histogram, span) in [
            (&self.prepare_ms, timings.prepare_ms),
            (&self.finalize_ms, timings.finalize_ms),
            (&self.merge_ms, timings.merge_ms),
            (&self.noise_ms, timings.noise_ms),
            (&self.sink_ms, timings.sink_ms),
        ] {
            if let Some(ms) = span {
                histogram.observe(ms);
            }
        }
        if self.last_cohort_spent.len() < per_cohort_spent.len() {
            self.last_cohort_spent.resize(per_cohort_spent.len(), 0.0);
        }
        for (cohort, &spent) in per_cohort_spent.iter().enumerate() {
            let last = self.last_cohort_spent[cohort];
            if spent != last {
                self.ledger.record(BudgetEvent {
                    round,
                    level: BudgetLevel::Cohort,
                    cohort: Some(cohort),
                    rho: spent - last,
                    spent_after: spent,
                });
                self.last_cohort_spent[cohort] = spent;
            }
        }
        if let Some(spent) = population_spent {
            if spent != self.last_population_spent {
                self.ledger.record(BudgetEvent {
                    round,
                    level: BudgetLevel::Population,
                    cohort: None,
                    rho: spent - self.last_population_spent,
                    spent_after: spent,
                });
                self.last_population_spent = spent;
            }
        }
    }
}

impl std::fmt::Debug for EngineObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "EngineObserver[rounds={}, ledger_events={}]",
            self.rounds.get(),
            self.ledger.len()
        )
    }
}
