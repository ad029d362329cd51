//! Ingest throughput: events/sec sustained through watermark seal — the
//! perf baseline for the event-time ingestion tier (`crates/ingest`).
//!
//! Two arms at n ∈ {100k, 1M} events (one event per (round, individual)
//! over a 12-round horizon, tumbling 60 s windows at a Unix-ms origin):
//!
//! * `binner` — the pure seal path: each round handed straight to
//!   [`WindowBinner::push_batch`] in `SEND_BATCH` slices, as the tier
//!   hands it each queued batch, with a per-round watermark advance. No
//!   queue, no threads: the sealing side's own cost, which the
//!   pipeline's consumer pays too.
//! * `pipeline` — the full tier: a producer thread batching events
//!   through the bounded queue (backpressure on), the consumer draining,
//!   watermark-sealing, and yielding rounds. The acceptance bar
//!   (≥ 1M events/sec at n = 1M) applies to this arm.
//!
//! Besides the criterion groups, a full (non-`--test`) run writes
//! `BENCH_ingest.json` at the repo root with both arms' sustained rates
//! and the machine's core count; on a single-core container the artifact
//! carries an explicit `caveat` (producer and sealer share the core, so
//! the pipeline row measures the serialized cost) exactly as
//! `BENCH_scaling.json` does (`docs/BENCH_SCHEMA.md`).

use criterion::{black_box, criterion_group, Criterion, Throughput};
use longsynth_ingest::{
    BitRoundAssembler, Event, IngestConfig, IngestTier, LatePolicy, WindowBinner, WindowSpec,
};
use serde::Serialize;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

const HORIZON: usize = 12;
const T0: i64 = 1_760_000_000_000; // Unix ms, ~late 2025: real epoch magnitudes
const WIDTH_MS: i64 = 60_000;
const SEND_BATCH: usize = 4_096;
const QUEUE_CAP: usize = 65_536;

fn spec() -> WindowSpec {
    WindowSpec::tumbling(WIDTH_MS, T0).expect("valid window")
}

/// One event per (round, individual): `total` events over the horizon,
/// timestamped inside each round's window, mixed payload bits.
fn event_stream(total: usize) -> (usize, Vec<Vec<Event<bool>>>) {
    let population = total / HORIZON;
    let spec = spec();
    let rounds = (0..HORIZON)
        .map(|round| {
            let open = spec.window(round as u64).open;
            (0..population)
                .map(|i| Event {
                    time_ms: open + (i as i64 % WIDTH_MS),
                    individual: i as u32,
                    payload: i % 3 != 0,
                })
                .collect()
        })
        .collect();
    (population, rounds)
}

/// The pure seal path: push every round in `SEND_BATCH` slices, advance
/// the watermark round by round, drain sealed rounds. Returns rounds
/// sealed (12).
fn run_binner(population: usize, rounds: &[Vec<Event<bool>>]) -> u64 {
    let spec = spec();
    let mut binner = WindowBinner::new(spec, LatePolicy::Drop, BitRoundAssembler::new(population));
    let mut out = VecDeque::new();
    let mut sealed = 0u64;
    for (round, events) in rounds.iter().enumerate() {
        for chunk in events.chunks(SEND_BATCH) {
            binner.push_batch(chunk);
        }
        binner.advance(spec.window(round as u64).close, &mut out);
        while let Some(s) = out.pop_front() {
            sealed += 1;
            black_box(s.input);
        }
    }
    binner.finish(&mut out);
    assert_eq!(binner.late_events(), 0, "bench stream must not drop events");
    sealed + out.len() as u64
}

/// The full tier: a producer thread batching through the bounded queue,
/// the consumer watermark-sealing rounds. Returns rounds sealed (12).
fn run_pipeline(population: usize, rounds: Arc<Vec<Vec<Event<bool>>>>) -> u64 {
    let mut config = IngestConfig::new(spec());
    config.queue_cap = QUEUE_CAP;
    let tier = IngestTier::new(config, BitRoundAssembler::new(population));
    let producer = tier.producer();
    let feeder = std::thread::spawn(move || {
        for events in rounds.iter() {
            for chunk in events.chunks(SEND_BATCH) {
                if producer.send_batch(chunk.to_vec()).is_err() {
                    return;
                }
            }
        }
    });
    let mut sealed_rounds = tier.into_rounds().with_min_rounds(HORIZON as u64);
    let mut sealed = 0u64;
    for s in sealed_rounds.by_ref() {
        sealed += 1;
        black_box(s.input);
    }
    feeder.join().expect("producer thread");
    assert_eq!(
        sealed_rounds.stats().late_events,
        0,
        "bench stream must not drop events"
    );
    sealed
}

fn bench_ingest_throughput(c: &mut Criterion) {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    eprintln!("ingest_throughput: {cores} core(s) available to this process");
    for total in [100_000usize, 1_000_000] {
        let (population, rounds) = event_stream(total);
        let rounds = Arc::new(rounds);
        let mut group = c.benchmark_group(format!("ingest_seal_n{total}"));
        group.sample_size(if total >= 1_000_000 { 3 } else { 10 });
        group.throughput(Throughput::Elements(total as u64));
        group.bench_function("binner", |b| b.iter(|| run_binner(population, &rounds)));
        group.bench_function("pipeline", |b| {
            b.iter(|| run_pipeline(population, Arc::clone(&rounds)))
        });
        group.finish();
    }
}

// ---------------------------------------------------------------------------
// BENCH_ingest.json artifact (see docs/BENCH_SCHEMA.md)
// ---------------------------------------------------------------------------

#[derive(Serialize)]
struct IngestArtifact {
    schema: &'static str,
    cores: usize,
    /// Present when `cores == 1`: the producer thread and the sealing
    /// consumer then share one core, so the `pipeline` rows measure the
    /// serialized cost of both sides. `null` on multi-core hardware.
    caveat: Option<&'static str>,
    rounds: usize,
    window_ms: i64,
    queue_cap: usize,
    send_batch: usize,
    reps: usize,
    runs: Vec<IngestRunDto>,
}

#[derive(Serialize)]
struct IngestRunDto {
    config: &'static str,
    events: usize,
    population: usize,
    total_ms: f64,
    min_ms: f64,
    max_ms: f64,
    events_per_s: f64,
}

fn ingest_json_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_ingest.json")
}

/// Measure both arms at n ∈ {100k, 1M} and write the committed artifact.
fn write_ingest_artifact() {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let reps = 3usize;
    let mut runs = Vec::new();
    for total in [100_000usize, 1_000_000] {
        let (population, rounds) = event_stream(total);
        let rounds = Arc::new(rounds);
        for config in ["binner", "pipeline"] {
            let rep_ms: Vec<f64> = (0..reps)
                .map(|_| {
                    let start = Instant::now();
                    let sealed = match config {
                        "binner" => run_binner(population, &rounds),
                        _ => run_pipeline(population, Arc::clone(&rounds)),
                    };
                    assert_eq!(sealed, HORIZON as u64);
                    start.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            let total_ms = rep_ms.iter().sum::<f64>() / reps as f64;
            let min_ms = rep_ms.iter().copied().fold(f64::INFINITY, f64::min);
            let max_ms = rep_ms.iter().copied().fold(0.0, f64::max);
            let events_per_s = total as f64 / (total_ms / 1e3);
            eprintln!(
                "ingest_throughput: n={total} {config}: {total_ms:.1} ms \
                 (min {min_ms:.1}, max {max_ms:.1}; {:.2}M events/sec)",
                events_per_s / 1e6
            );
            runs.push(IngestRunDto {
                config,
                events: total,
                population,
                total_ms,
                min_ms,
                max_ms,
                events_per_s,
            });
        }
    }
    let artifact = IngestArtifact {
        schema: "longsynth-ingest-v1",
        cores,
        caveat: (cores == 1).then_some(
            "single-core environment: the pipeline rows serialize the producer thread and \
             the sealing consumer onto one core; re-measure on multi-core hardware before \
             reading them as concurrent throughput",
        ),
        rounds: HORIZON,
        window_ms: WIDTH_MS,
        queue_cap: QUEUE_CAP,
        send_batch: SEND_BATCH,
        reps,
        runs,
    };
    let json = serde_json::to_string_pretty(&artifact).expect("serialize ingest artifact");
    std::fs::write(ingest_json_path(), json + "\n").expect("write BENCH_ingest.json");
    eprintln!("ingest_throughput: wrote {}", ingest_json_path().display());
}

criterion_group!(benches, bench_ingest_throughput);

fn main() {
    // `--test` is the CI smoke mode: run the criterion groups once at
    // their smallest shape and write nothing (the committed artifact only
    // changes deliberately). Any other invocation refreshes the artifact
    // before the criterion sweep.
    let smoke = std::env::args().any(|a| a == "--test");
    if !smoke {
        write_ingest_artifact();
    }
    benches();
}
