//! Metrics registry: atomic counters, gauges, fixed-bucket latency
//! histograms with quantile readout, and drop-guard span timers.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::export;

/// Default latency bucket upper bounds, in **milliseconds**. Spans the
/// sub-10µs cache-hit regime through multi-second full-dataset rounds;
/// the implicit final bucket is `+Inf`.
pub const LATENCY_MS_BUCKETS: [f64; 15] = [
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0,
];

/// A monotonically increasing counter.
#[derive(Clone, Debug)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    fn new() -> Self {
        Self {
            value: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a signed value that can move both ways (queue depths,
/// snapshot sizes).
#[derive(Clone, Debug)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    fn new() -> Self {
        Self {
            value: Arc::new(AtomicI64::new(0)),
        }
    }

    /// Set to an absolute value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Decrement by one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Finite bucket upper bounds, ascending; the implicit last bucket
    /// is `+Inf`.
    bounds: Vec<f64>,
    /// Per-bucket observation counts, `bounds.len() + 1` entries.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observed values as `f64` bits, maintained with a CAS loop
    /// (observation rates here are ~per-round, far below contention).
    sum_bits: AtomicU64,
}

/// A fixed-bucket histogram of `f64` observations (latencies in
/// milliseconds by convention — encode the unit in the metric name).
#[derive(Clone, Debug)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bucket bounds must be strictly ascending"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            inner: Arc::new(HistogramInner {
                bounds: bounds.to_vec(),
                buckets,
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0f64.to_bits()),
            }),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let inner = &self.inner;
        let idx = inner
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(inner.bounds.len());
        inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = inner.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match inner.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Record a [`Duration`] in milliseconds.
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_secs_f64() * 1e3);
    }

    /// Start a scoped span; elapsed milliseconds are recorded when the
    /// returned guard drops.
    pub fn start_span(&self) -> SpanTimer {
        SpanTimer {
            histogram: self.clone(),
            started: Instant::now(),
        }
    }

    /// Consistent-enough point-in-time readout (counts are relaxed
    /// atomics; exact consistency is not needed for monitoring).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let inner = &self.inner;
        let buckets: Vec<u64> = inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            bounds: inner.bounds.clone(),
            buckets,
            count: inner.count.load(Ordering::Relaxed),
            sum: f64::from_bits(inner.sum_bits.load(Ordering::Relaxed)),
        }
    }
}

/// Drop-guard returned by [`Histogram::start_span`]; records the elapsed
/// wall time into the histogram when dropped.
#[derive(Debug)]
pub struct SpanTimer {
    histogram: Histogram,
    started: Instant,
}

impl SpanTimer {
    /// Stop the span now (equivalent to dropping it).
    pub fn stop(self) {}
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        self.histogram.observe_duration(self.started.elapsed());
    }
}

/// Point-in-time readout of a [`Histogram`].
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Finite bucket upper bounds (the final `+Inf` bucket is implicit).
    pub bounds: Vec<f64>,
    /// Per-bucket counts, `bounds.len() + 1` entries (last = overflow).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Prometheus-style quantile estimate: find the bucket containing the
    /// `q`-quantile rank and interpolate linearly within it. Returns 0.0
    /// for an empty histogram; the overflow bucket reports its lower
    /// bound (the largest finite bound).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
            if seen + n >= rank {
                if i == self.bounds.len() {
                    return lo;
                }
                let hi = self.bounds[i];
                if n == 0 {
                    return hi;
                }
                let into = (rank - seen) as f64 / n as f64;
                return lo + (hi - lo) * into;
            }
            seen += n;
        }
        self.bounds.last().copied().unwrap_or(0.0)
    }

    /// Median estimate.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// A shared, thread-safe registry of named metrics. Cloning shares the
/// underlying state; handles returned by the `counter`/`gauge`/
/// `histogram` accessors stay live after the registry is dropped.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<RegistryInner>>,
}

fn check_name(name: &str) {
    assert!(
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
        "metric names must be non-empty [a-z0-9_]: {name:?}"
    );
}

impl MetricsRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or register the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        check_name(name);
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        inner
            .counters
            .entry(name.to_string())
            .or_insert_with(Counter::new)
            .clone()
    }

    /// Get or register the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        check_name(name);
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        inner
            .gauges
            .entry(name.to_string())
            .or_insert_with(Gauge::new)
            .clone()
    }

    /// Get or register the histogram `name` with the given finite bucket
    /// upper bounds (ignored if the name already exists).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        check_name(name);
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .clone()
    }

    /// Get or register the histogram `name` with the default latency
    /// buckets ([`LATENCY_MS_BUCKETS`]).
    pub fn latency_histogram(&self, name: &str) -> Histogram {
        self.histogram(name, &LATENCY_MS_BUCKETS)
    }

    /// Sorted `(name, value)` readout of all counters.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        inner
            .counters
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect()
    }

    /// Sorted `(name, value)` readout of all gauges.
    pub fn gauges(&self) -> Vec<(String, i64)> {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        inner
            .gauges
            .iter()
            .map(|(n, g)| (n.clone(), g.get()))
            .collect()
    }

    /// Sorted `(name, snapshot)` readout of all histograms.
    pub fn histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        inner
            .histograms
            .iter()
            .map(|(n, h)| (n.clone(), h.snapshot()))
            .collect()
    }

    /// Render every metric in the Prometheus text exposition format.
    pub fn prometheus_text(&self) -> String {
        export::prometheus_text(self)
    }

    /// Write every metric as one JSON object per line. Event schema is
    /// documented in `docs/OBSERVABILITY.md`.
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        export::write_metrics_jsonl(self, w)
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        f.debug_struct("MetricsRegistry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("requests_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name returns the same underlying counter.
        assert_eq!(reg.counter("requests_total").get(), 5);

        let g = reg.gauge("queue_depth");
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(-7);
        assert_eq!(reg.gauge("queue_depth").get(), -7);
    }

    #[test]
    fn histogram_buckets_count_and_sum() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat_ms", &[1.0, 10.0, 100.0]);
        for v in [0.5, 0.7, 5.0, 50.0, 500.0] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.buckets, vec![2, 1, 1, 1]);
        assert!((snap.sum - 556.2).abs() < 1e-9);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("q_ms", &[10.0, 20.0, 40.0]);
        // 100 observations uniformly in the first bucket.
        for _ in 0..100 {
            h.observe(5.0);
        }
        let snap = h.snapshot();
        // Every rank falls in [0, 10]; p99 interpolates near the top.
        assert!(snap.p50() > 0.0 && snap.p50() <= 10.0);
        assert!(snap.p99() <= 10.0);
        assert_eq!(snap.quantile(1.0), 10.0);

        // Overflow bucket reports the largest finite bound.
        let h2 = reg.histogram("q2_ms", &[10.0, 20.0, 40.0]);
        h2.observe(1e9);
        assert_eq!(h2.snapshot().p50(), 40.0);

        // Empty histogram reports zero.
        let h3 = reg.histogram("q3_ms", &[10.0]);
        assert_eq!(h3.snapshot().p95(), 0.0);
    }

    #[test]
    fn span_timer_records_on_drop() {
        let reg = MetricsRegistry::new();
        let h = reg.latency_histogram("span_ms");
        {
            let _span = h.start_span();
            std::thread::sleep(Duration::from_millis(2));
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        assert!(snap.sum >= 1.0, "span recorded {} ms", snap.sum);
    }

    #[test]
    fn handles_are_shared_across_threads() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("shared_total");
        let h = reg.histogram("shared_ms", &[1.0]);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = c.clone();
                let h = h.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                        h.observe(0.5);
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        let snap = h.snapshot();
        assert_eq!(snap.count, 4000);
        assert!((snap.sum - 2000.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "metric names")]
    fn invalid_names_are_rejected() {
        MetricsRegistry::new().counter("Bad-Name");
    }
}
