//! The serving front-end: [`ServeQuery`] requests, the [`QueryService`],
//! and its engine-facing sinks.
//!
//! ## One answer path
//!
//! The store is append-only and every query names the round it reads
//! (`t`): once round `t` is released, the window and cumulative statistics
//! of rounds `0..=t` are fixed. The store keeps them as it goes, threshold
//! counts as columns arrive and window histograms on their first read, so
//! [`QueryService::answer`] is one store read under the store's read lock,
//! with no answer cache in front of it. A re-read sums the same stored
//! integers as the first read, so it is bit-identical by construction,
//! and no cache bound needs tuning however far back reads reach.
//!
//! ## Metrics
//!
//! Every service reports into a [`MetricsRegistry`], its own or one shared
//! with the engine and the pool ([`QueryService::with_registry`]):
//! `serve_ingest_{rounds,records}_total` (fed by the engine-facing sinks)
//! and the `serve_snapshot_bytes` gauge (last snapshot rendered).

use longsynth::Release;
use longsynth_data::BitColumn;
use longsynth_engine::{PolicyTag, ReleaseSink};
use longsynth_obs::{Counter, Gauge, MetricsRegistry};
use longsynth_pool::WorkerPool;
use longsynth_queries::{Pattern, WindowQuery};
use std::sync::{Arc, RwLock};

use crate::store::{ReleaseStore, ServeError, StoreScope};

/// What a consumer can ask of the serving layer, against one scope.
#[derive(Debug, Clone)]
pub struct ServeQuery {
    /// Which stored panel to read.
    pub scope: StoreScope,
    /// The query itself.
    pub kind: QueryKind,
}

/// The supported query families — exactly the workloads of
/// `longsynth-queries`, addressed at a released round.
#[derive(Debug, Clone)]
pub enum QueryKind {
    /// A linear window query evaluated at round `t` (0-based).
    Window {
        /// Round to evaluate at.
        t: usize,
        /// The window query (any width `<= t+1`).
        query: WindowQuery,
    },
    /// Single-pattern indicator at round `t` — sugar for the corresponding
    /// [`WindowQuery::pattern`].
    Pattern {
        /// Round to evaluate at.
        t: usize,
        /// The window pattern.
        pattern: Pattern,
    },
    /// The paper's cumulative query `c_b^t`: fraction of records with
    /// Hamming weight `>= b` after round `t`.
    CumulativeFraction {
        /// Round to evaluate at.
        t: usize,
        /// Weight threshold.
        b: usize,
    },
}

impl QueryKind {
    /// The 0-based global round the query reads at.
    pub fn round(&self) -> usize {
        match self {
            QueryKind::Window { t, .. }
            | QueryKind::Pattern { t, .. }
            | QueryKind::CumulativeFraction { t, .. } => *t,
        }
    }
}

/// The standard mixed read battery over a store's released rounds: for
/// every round `t < rounds` and every scope (merged plus each cohort),
/// the cumulative thresholds `1..=min(max_b, t+1)` and — once the round
/// supports the width — the paper's quarterly window battery at `window`.
///
/// This is the canonical serving workload; the CLI `serve` subcommand,
/// the `serve_throughput` bench, and the serving example all drive it so
/// their traffic stays comparable.
pub fn mixed_battery(
    rounds: usize,
    cohorts: usize,
    max_b: usize,
    window: usize,
) -> Vec<ServeQuery> {
    let mut queries = Vec::new();
    for t in 0..rounds {
        for scope in std::iter::once(StoreScope::Merged).chain((0..cohorts).map(StoreScope::Cohort))
        {
            for b in 1..=max_b.min(t + 1) {
                queries.push(ServeQuery {
                    scope,
                    kind: QueryKind::CumulativeFraction { t, b },
                });
            }
            if t + 1 >= window {
                for query in longsynth_queries::window::quarterly_battery(window) {
                    queries.push(ServeQuery {
                        scope,
                        kind: QueryKind::Window { t, query },
                    });
                }
            }
        }
    }
    queries
}

struct ServiceInner {
    store: RwLock<ReleaseStore>,
    registry: MetricsRegistry,
    ingest_rounds: Counter,
    ingest_records: Counter,
    snapshot_bytes: Gauge,
}

/// The cloneable, thread-safe serving front-end: the store behind its
/// lock, the engine-facing sinks and the snapshots.
///
/// Clones share one store (`Arc` inside), so an engine can ingest through
/// a sink handle while consumers answer queries through other clones —
/// including concurrently from pool workers.
#[derive(Clone)]
pub struct QueryService {
    inner: Arc<ServiceInner>,
}

impl Default for QueryService {
    fn default() -> Self {
        Self::new()
    }
}

impl QueryService {
    /// A service over an empty store.
    pub fn new() -> Self {
        Self::from_store(ReleaseStore::new())
    }

    /// A service over an existing store (e.g. restored from a snapshot),
    /// reporting into its own private [`MetricsRegistry`].
    pub fn from_store(store: ReleaseStore) -> Self {
        Self::with_registry(store, &MetricsRegistry::new())
    }

    /// A service registering the serving metrics (`serve_ingest_*_total`,
    /// `serve_snapshot_bytes`) in a caller-provided shared registry, so
    /// one exporter dump covers the engine, the pool, and the serving
    /// layer together.
    pub fn with_registry(store: ReleaseStore, registry: &MetricsRegistry) -> Self {
        Self {
            inner: Arc::new(ServiceInner {
                store: RwLock::new(store),
                registry: registry.clone(),
                ingest_rounds: registry.counter("serve_ingest_rounds_total"),
                ingest_records: registry.counter("serve_ingest_records_total"),
                snapshot_bytes: registry.gauge("serve_snapshot_bytes"),
            }),
        }
    }

    /// The registry this service's counters live in.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.inner.registry
    }

    /// Answer one query: [`ReleaseStore::answer`] under the store's read
    /// lock.
    pub fn answer(&self, query: &ServeQuery) -> Result<f64, ServeError> {
        self.with_store(|store| store.answer(query))
    }

    /// Answer a batch of queries concurrently on `pool`, preserving order.
    ///
    /// Each job is a service clone answering one query. Duplicates inside
    /// one batch may race to build the same window histogram; both store
    /// the identical counts, so the race is benign.
    pub fn answer_batch(
        &self,
        pool: &WorkerPool,
        queries: Vec<ServeQuery>,
    ) -> Vec<Result<f64, ServeError>> {
        pool.run_batch(queries.into_iter().map(|query| {
            let service = self.clone();
            move || service.answer(&query)
        }))
    }

    /// Always `(0, 0)`: an answer is one store read, with no answer cache
    /// to hit or miss. Kept so callers that split answer timings into hits
    /// and misses still build; every answer counts as a miss.
    pub fn cache_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Record a rendered snapshot's size in the `serve_snapshot_bytes`
    /// gauge (called by the snapshot layer).
    pub(crate) fn note_snapshot_bytes(&self, bytes: usize) {
        self.inner.snapshot_bytes.set(bytes as i64);
    }

    /// Run `f` against the underlying store (read lock held for the call).
    pub fn with_store<T>(&self, f: impl FnOnce(&ReleaseStore) -> T) -> T {
        f(&self.inner.store.read().expect("store lock never poisoned"))
    }

    /// Run `f` against the underlying store mutably (write lock held for
    /// the call) — the snapshot layer's delta application uses this.
    pub(crate) fn with_store_mut<T>(&self, f: impl FnOnce(&mut ReleaseStore) -> T) -> T {
        f(&mut self.inner.store.write().expect("store lock never poisoned"))
    }

    /// A sink for engines whose release type is a plain [`BitColumn`]
    /// (the cumulative family): every completed round lands in the store.
    ///
    /// Handles both engine shapes: static lockstep rounds ingest as
    /// before, and dynamic-panel rounds (a scheduled engine's
    /// `on_round_active`) ingest by cohort × round range, so one sink
    /// serves either engine.
    ///
    /// # Panics
    /// The engine guarantees a stable shard count and record layout; if a
    /// round nevertheless mismatches the store shape, the sink panics
    /// rather than silently dropping released data.
    pub fn column_sink(&self) -> Box<dyn ReleaseSink<BitColumn>> {
        struct ColumnSink {
            service: QueryService,
        }
        impl ReleaseSink<BitColumn> for ColumnSink {
            fn on_round(
                &mut self,
                _round: usize,
                per_shard: &[BitColumn],
                merged: &BitColumn,
                policy: PolicyTag,
            ) {
                self.service
                    .with_store_mut(|store| store.ingest_columns_with(policy, per_shard, merged))
                    .expect("engine rounds always match the store shape");
                self.service.note_ingest(merged.len());
            }

            fn on_round_active(
                &mut self,
                round: usize,
                cohorts: usize,
                active: &[usize],
                per_shard: &[BitColumn],
                merged: &BitColumn,
                policy: PolicyTag,
            ) {
                self.service
                    .with_store_mut(|store| {
                        store.ingest_active_columns(
                            policy, round, cohorts, active, per_shard, merged,
                        )
                    })
                    .expect("scheduled engine rounds always match the store shape");
                self.service.note_ingest(merged.len());
            }
        }
        Box::new(ColumnSink {
            service: self.clone(),
        })
    }

    /// A sink for fixed-window engines (release type [`Release`]).
    ///
    /// # Panics
    /// As [`column_sink`](Self::column_sink).
    pub fn release_sink(&self) -> Box<dyn ReleaseSink<Release>> {
        let service = self.clone();
        Box::new(
            move |_round: usize, per_shard: &[Release], merged: &Release, policy: PolicyTag| {
                service
                    .with_store_mut(|store| store.ingest_releases_with(policy, per_shard, merged))
                    .expect("engine rounds always match the store shape");
                let records = match merged {
                    Release::Buffered => 0,
                    Release::Initial(columns) => columns.first().map_or(0, |c| c.len()),
                    Release::Update(column) => column.len(),
                };
                service.note_ingest(records);
            },
        )
    }

    /// Count one ingested round of `records` records into the
    /// `serve_ingest_*_total` registry counters.
    fn note_ingest(&self, records: usize) {
        self.inner.ingest_rounds.inc();
        self.inner.ingest_records.add(records as u64);
    }
}

impl std::fmt::Debug for QueryService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (rounds, cohorts) = self.with_store(|store| (store.rounds(), store.cohorts()));
        write!(f, "QueryService[rounds={rounds}, cohorts={cohorts}]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with_rounds(rounds: usize) -> ReleaseStore {
        let mut store = ReleaseStore::new();
        for round in 0..rounds {
            let a = BitColumn::from_bools(&[round % 2 == 0, true]);
            let b = BitColumn::from_bools(&[false, round % 3 == 0]);
            let merged = BitColumn::concat([&a, &b]);
            store.ingest_columns(&[a, b], &merged).unwrap();
        }
        store
    }

    fn cumulative(t: usize, b: usize) -> ServeQuery {
        ServeQuery {
            scope: StoreScope::Merged,
            kind: QueryKind::CumulativeFraction { t, b },
        }
    }

    fn counter(registry: &MetricsRegistry, name: &str) -> u64 {
        registry
            .counters()
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("counter {name} not registered"))
    }

    #[test]
    fn sinks_feed_the_ingest_counters_and_snapshots_the_gauge() {
        let service = QueryService::new();
        let mut sink = service.column_sink();
        for round in 0..3 {
            let a = BitColumn::from_bools(&[round % 2 == 0, true]);
            let b = BitColumn::from_bools(&[false]);
            let merged = BitColumn::concat([&a, &b]);
            sink.on_round(round, &[a, b], &merged, PolicyTag::PerShard);
        }
        let registry = service.registry();
        assert_eq!(counter(registry, "serve_ingest_rounds_total"), 3);
        assert_eq!(counter(registry, "serve_ingest_records_total"), 9);
        let json = service.snapshot_json();
        let gauge = registry
            .gauges()
            .into_iter()
            .find(|(n, _)| n == "serve_snapshot_bytes")
            .map(|(_, v)| v)
            .unwrap();
        assert_eq!(gauge, json.len() as i64);
    }

    #[test]
    fn errors_are_not_cached_so_later_rounds_can_answer() {
        let service = QueryService::from_store(store_with_rounds(1));
        let q = cumulative(1, 1);
        assert!(service.answer(&q).is_err());
        // A new round arrives (clone shares the store).
        let sink_side = service.clone();
        sink_side.with_store(|s| assert_eq!(s.rounds(), 1));
        {
            let a = BitColumn::from_bools(&[true, true]);
            let b = BitColumn::from_bools(&[true, false]);
            let merged = BitColumn::concat([&a, &b]);
            sink_side
                .inner
                .store
                .write()
                .unwrap()
                .ingest_columns(&[a, b], &merged)
                .unwrap();
        }
        assert!(service.answer(&q).is_ok());
    }

    #[test]
    fn batches_fan_out_and_preserve_order() {
        let service = QueryService::from_store(store_with_rounds(6));
        let pool = WorkerPool::new(4);
        let queries: Vec<ServeQuery> = (0..6).map(|t| cumulative(t, 1)).collect();
        let batch = service.answer_batch(&pool, queries.clone());
        assert_eq!(batch.len(), 6);
        let sequential: Vec<f64> = queries.iter().map(|q| service.answer(q).unwrap()).collect();
        for (got, want) in batch.into_iter().zip(sequential) {
            assert_eq!(got.unwrap().to_bits(), want.to_bits());
        }
    }

    #[test]
    fn debug_summarizes_state() {
        let service = QueryService::from_store(store_with_rounds(2));
        let text = format!("{service:?}");
        assert!(text.contains("rounds=2"), "{text}");
    }
}
