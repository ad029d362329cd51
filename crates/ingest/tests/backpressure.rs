//! Backpressure satellite: a fast producer against a `queue-cap`-bounded
//! tier blocks/rejects deterministically, and the peak queue depth —
//! asserted via the `ingest_queue_depth` gauge family's high-water mark —
//! never exceeds the cap.

use std::thread;
use std::time::Duration;

use longsynth_ingest::{
    BitRoundAssembler, Event, IngestConfig, IngestTier, TrySendError, WindowSpec,
};
use longsynth_obs::MetricsRegistry;

fn event(t: i64, i: u32) -> Event<bool> {
    Event {
        time_ms: t,
        individual: i,
        payload: true,
    }
}

fn gauge(registry: &MetricsRegistry, name: &str) -> i64 {
    registry
        .gauges()
        .into_iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("gauge {name} not registered"))
}

#[test]
fn try_send_rejects_deterministically_at_cap() {
    const CAP: usize = 8;
    let mut config = IngestConfig::new(WindowSpec::tumbling(1_000, 0).unwrap());
    config.queue_cap = CAP;
    let registry = MetricsRegistry::new();
    let tier = IngestTier::with_metrics(config, BitRoundAssembler::new(64), &registry);
    let producer = tier.producer();

    // With no consumer running, exactly CAP sends fit; the next is Full.
    for i in 0..CAP {
        producer.try_send(event(i as i64, i as u32)).unwrap();
    }
    match producer.try_send(event(99, 9)) {
        Err(TrySendError::Full(ev)) => assert_eq!(ev.individual, 9, "rejected item comes back"),
        other => panic!("expected Full, got {other:?}"),
    }
    // Still Full on retry — rejection is deterministic, not racy.
    assert!(matches!(
        producer.try_send(event(99, 9)),
        Err(TrySendError::Full(_))
    ));
    assert_eq!(gauge(&registry, "ingest_queue_depth"), CAP as i64);
    assert_eq!(gauge(&registry, "ingest_queue_peak_depth"), CAP as i64);

    // Drain k events: exactly k sends succeed, then Full again.
    drop(producer);
    let mut rounds = tier.into_rounds();
    let _ = rounds.by_ref().count();
    assert_eq!(gauge(&registry, "ingest_queue_depth"), 0);
    assert_eq!(
        gauge(&registry, "ingest_queue_peak_depth"),
        CAP as i64,
        "high-water mark survives the drain"
    );
}

#[test]
fn flood_through_bounded_tier_never_exceeds_cap() {
    const CAP: usize = 32;
    const EVENTS: usize = 20_000;
    let mut config = IngestConfig::new(WindowSpec::tumbling(100, 0).unwrap());
    config.queue_cap = CAP;
    config.poll = Duration::from_millis(1);
    let registry = MetricsRegistry::new();
    let tier = IngestTier::with_metrics(config, BitRoundAssembler::new(16), &registry);
    let producer = tier.producer();
    let mut rounds = tier.into_rounds();

    // A producer flooding as fast as the blocking send allows…
    let flood = thread::spawn(move || {
        for k in 0..EVENTS {
            producer
                .send(event(k as i64 / 16, (k % 16) as u32))
                .unwrap();
        }
    });

    // …while the sealing side consumes. Memory is bounded by CAP no
    // matter how fast the producer spins.
    let sealed: Vec<_> = rounds.by_ref().collect();
    flood.join().unwrap();

    let stats = rounds.stats();
    assert_eq!(stats.events, EVENTS as u64);
    assert_eq!(stats.late_events, 0);
    assert!(
        stats.peak_queue_depth <= CAP,
        "peak depth {} breached cap {CAP}",
        stats.peak_queue_depth
    );
    assert!(stats.peak_queue_depth > 0);
    // The exported gauge high-water mark agrees with the exact counter.
    assert_eq!(
        gauge(&registry, "ingest_queue_peak_depth"),
        stats.peak_queue_depth as i64
    );
    assert_eq!(gauge(&registry, "ingest_queue_depth"), 0, "drained at end");
    // Every event landed: EVENTS/16 events per individual per round…
    let total_events: u64 = sealed.iter().map(|r| r.events).sum();
    assert_eq!(total_events, EVENTS as u64);
}

#[test]
fn batched_flood_honours_cap_too() {
    const CAP: usize = 64;
    let mut config = IngestConfig::new(WindowSpec::tumbling(1_000, 0).unwrap());
    config.queue_cap = CAP;
    config.poll = Duration::from_millis(1);
    let registry = MetricsRegistry::new();
    let tier = IngestTier::with_metrics(config, BitRoundAssembler::new(8), &registry);
    let producer = tier.producer();
    let mut rounds = tier.into_rounds();

    let flood = thread::spawn(move || {
        for chunk in 0..40 {
            let batch: Vec<_> = (0..512)
                .map(|k| event(i64::from(chunk), (k % 8) as u32))
                .collect();
            producer.send_batch(batch).unwrap();
        }
    });
    let _ = rounds.by_ref().count();
    flood.join().unwrap();

    let stats = rounds.stats();
    assert_eq!(stats.events, 40 * 512);
    assert_eq!(stats.late_events, 0);
    assert!(
        stats.peak_queue_depth <= CAP,
        "batched sends overshot the cap: {}",
        stats.peak_queue_depth
    );
}
