//! End-to-end benchmark of the continual-release pipeline: a report
//! handed to the ingest tier (or, without ingest, to the engine) is
//! followed until its round is queryable in the serving store and the
//! round's refresh battery has been answered.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fw_stream --seed 1 --seconds 10 --trace 0
//! ```
//!
//! A run repeats whole passes (set-up plus every round of the workload)
//! until `--seconds` is spent and prints one JSON object as its last line
//! of standard output: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. One thread is busy at a time and
//! every time is read on the CPU clocks of the process's threads; the
//! end-to-end times are then scaled to a reference machine speed (see
//! [`end_to_end`]). A human-readable report goes to
//! standard error; the traced run also writes its spans to
//! `perfbench/target/`. See `perfbench/README.md` for the workloads, the
//! metrics and which layer should move which end-to-end metric.

mod probe;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use probe::Gate;
use trace::{durations_ms, self_times_ms, Span};
use workloads::Pass;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let budget = Duration::from_secs_f64(args.seconds);
    let begun = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    // Pass 0 warms the allocator and caches and is not counted. The traced
    // run then alternates traced and untraced passes, so tracing overhead
    // compares passes of one process.
    let min_passes = if args.trace { 3 } else { 2 };
    let mut kernel_s = f64::INFINITY;
    loop {
        kernel_s = kernel_s.min(probe::reference_kernel_s(KERNEL_REPS));
        let traced = args.trace && passes.len() % 2 == 1;
        let pass = workloads::run(&args.workload, args.seed, traced)?;
        eprintln!(
            "pass {}{}: setup {:.3} s, {:.3} s measured, {:.0} reports/s, lag p50/p90 {:.3}/{:.3} ms, \
             refresh p50/p90 {:.3}/{:.3} ms, cpu {:.2} of wall",
            passes.len(),
            if passes.is_empty() {
                " (warm-up)"
            } else if traced {
                " (traced)"
            } else {
                ""
            },
            pass.setup_s,
            pass.measured_s,
            pass.reports as f64 / pass.measured_s,
            quantile(&pass.lag_ms, 0.5)?,
            quantile(&pass.lag_ms, 0.9)?,
            quantile(&pass.refresh_ms, 0.5)?,
            quantile(&pass.refresh_ms, 0.9)?,
            pass.cpu_s / pass.main_wall_s,
        );
        passes.push(pass);
        let elapsed = begun.elapsed();
        let per_pass = elapsed / passes.len() as u32;
        if passes.len() >= min_passes && elapsed + per_pass > budget {
            break;
        }
    }

    let mut gate = Gate::default();
    let digest = passes[0].digest;
    for pass in &mut passes {
        if pass.digest != digest {
            pass.gate.fail(1, "a pass released a different stream");
        }
        gate.absorb(std::mem::take(&mut pass.gate));
    }

    let untraced: Vec<&Pass> = passes[1..].iter().filter(|p| !p.traced).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let metrics = if args.trace {
        let spans: Vec<(usize, &[Span])> = passes
            .iter()
            .enumerate()
            .filter(|(_, p)| p.traced)
            .map(|(i, p)| (i, p.spans.as_slice()))
            .collect();
        let path = PathBuf::from(format!("perfbench/target/trace-{}.jsonl", args.workload));
        trace::write_jsonl(&path, &spans)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
        per_layer(&traced, &untraced)?
    } else {
        end_to_end(&untraced, REFERENCE_KERNEL_S / kernel_s)?
    };

    eprintln!(
        "{}: seed {}, {} passes ({} traced) in {:.1} s on {} cores; \
         reference kernel {:.3} us (times scaled by {:.4}); released-stream digest {digest:016x}",
        args.workload,
        args.seed,
        passes.len(),
        traced.len(),
        begun.elapsed().as_secs_f64(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        kernel_s * 1e6,
        REFERENCE_KERNEL_S / kernel_s,
    );
    for (name, value, unit, note) in &metrics {
        eprintln!("  {name:<28} {value:>14.6} {unit:<6} {note}");
    }
    for why in &gate.reasons {
        eprintln!("  FAILED: {why}");
    }
    if metrics.iter().any(|(_, v, _, _)| !v.is_finite()) {
        return Err("a metric is not a finite number".into());
    }
    println!("{}", result_json(&gate, &metrics));
    Ok(())
}

/// `(name, value, unit, note)`; the note states the sample count.
type Metric = (&'static str, f64, &'static str, String);

/// Timings of the reference kernel taken before each pass.
const KERNEL_REPS: usize = 10;

/// The reference kernel's fastest time on the 2-vCPU machine the
/// benchmark was built on, in a quiet hour. End-to-end times are reported
/// at that speed.
const REFERENCE_KERNEL_S: f64 = 150e-6;

/// Every pass repeats the same work, round for round, yet the shared host
/// runs some stretches of it up to 1.7 times slower than others, with no
/// CPU time stolen. So each round's time is its fastest over the counted
/// passes, the round's cost when the host leaves the core alone; the
/// throughput and percentiles are taken over those per-round times.
///
/// The host's fastest speed itself drifts by up to 1.45 times over tens
/// of minutes, every workload and every metric by the same factor. So
/// every time is also multiplied by `scale`: the reference kernel's
/// reference time over its fastest time in this run.
fn end_to_end(passes: &[&Pass], scale: f64) -> Result<Vec<Metric>, String> {
    let scaled = |v: Vec<f64>| -> Vec<f64> { v.into_iter().map(|ms| ms * scale).collect() };
    let round = scaled(fastest(passes, |p| &p.round_ms));
    let lag = scaled(fastest(passes, |p| &p.lag_ms));
    let refresh = scaled(fastest(passes, |p| &p.refresh_ms));
    let rounds_note = |v: &[f64]| {
        format!(
            "{} rounds, each its fastest of {} passes",
            v.len(),
            passes.len()
        )
    };
    let reports = format!("{} reports, {}", passes[0].reports, rounds_note(&round));
    let setups: Vec<f64> = passes.iter().map(|p| p.setup_s * scale).collect();
    Ok(vec![
        (
            "reports_per_s",
            passes[0].reports as f64 / (round.iter().sum::<f64>() / 1e3),
            "1/s",
            reports,
        ),
        (
            "release_lag_p50_ms",
            quantile(&lag, 0.5)?,
            "ms",
            rounds_note(&lag),
        ),
        (
            "release_lag_p90_ms",
            quantile(&lag, 0.9)?,
            "ms",
            rounds_note(&lag),
        ),
        (
            "refresh_p50_ms",
            quantile(&refresh, 0.5)?,
            "ms",
            rounds_note(&refresh),
        ),
        (
            "refresh_p90_ms",
            quantile(&refresh, 0.9)?,
            "ms",
            rounds_note(&refresh),
        ),
        (
            "setup_s",
            median(&setups),
            "s",
            format!("median of {} set-ups", passes.len()),
        ),
        (
            "peak_rss_mb",
            probe::peak_rss_mb(),
            "MiB",
            "VmHWM at exit".into(),
        ),
    ])
}

/// Per round, the smallest of the passes' values. A pass that stopped
/// early (a failure the gate has counted) timed fewer rounds; the minimum
/// then runs over the rounds every pass timed.
fn fastest(passes: &[&Pass], rounds: impl Fn(&Pass) -> &[f64]) -> Vec<f64> {
    let mut best = rounds(passes[0]).to_vec();
    for p in &passes[1..] {
        let these = rounds(p);
        best.truncate(these.len());
        for (b, &v) in best.iter_mut().zip(these) {
            *b = b.min(v);
        }
    }
    best
}

fn per_layer(traced: &[&Pass], untraced: &[&Pass]) -> Result<Vec<Metric>, String> {
    let passes = traced.len() as f64;
    // Pooled over the traced passes; self times are taken pass by pass,
    // since spans of different passes share round indices.
    let durations = |name: &str| -> Vec<f64> {
        traced
            .iter()
            .flat_map(|p| durations_ms(&p.spans, name))
            .collect()
    };
    let self_times = |name: &str| -> Result<Vec<f64>, String> {
        let mut all = Vec::new();
        for p in traced {
            all.extend(self_times_ms(&p.spans, name)?);
        }
        Ok(all)
    };
    // Folded from +0.0: an empty layer reads 0, not -0.
    let sum = |v: &[f64]| v.iter().fold(0.0, |acc, x| acc + x);
    let per_pass = |v: &[f64]| sum(v) / passes;
    let send = durations("ingest.send");
    let next = durations("ingest.next");
    let step = self_times("engine.step")?;
    let store = durations("serve.store_ingest");
    let refresh = durations("refresh");
    let hit_us: Vec<f64> = durations("serve.query_hit")
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    let miss_ms = durations("serve.query_miss");
    let (hits, answers) = (hit_us.len(), hit_us.len() + miss_ms.len());
    let stats: Vec<_> = traced.iter().filter_map(|p| p.ingest).collect();
    let gen: Vec<f64> = traced.iter().map(|p| p.gen_ms).collect();
    let cpu: f64 = traced.iter().map(|p| p.cpu_s).sum();
    let wall: f64 = traced.iter().map(|p| p.main_wall_s).sum();
    // Main-loop time, generation excluded, outside every top-level span.
    let measured: f64 = traced.iter().map(|p| p.measured_s).sum();
    let attributed = sum(&send) + sum(&next) + sum(&refresh) + sum(&durations("engine.step"));
    let unattributed = 1.0 - attributed / (measured * 1e3);
    for (name, ms) in [
        ("ingest.send", sum(&send)),
        ("ingest.next", sum(&next)),
        ("engine.step (self)", sum(&step)),
        ("serve.store_ingest", sum(&store)),
        ("refresh (self)", sum(&self_times("refresh")?)),
        ("serve.query_miss", sum(&miss_ms)),
        ("serve.query_hit", sum(&hit_us) / 1e3),
        ("unattributed", unattributed * measured * 1e3),
    ] {
        eprintln!(
            "  main-loop self time {name:<20} {:8.1} ms  {:6.2}%",
            ms / passes,
            100.0 * ms / (measured * 1e3)
        );
    }
    let rps = |ps: &[&Pass]| {
        ps.iter().map(|p| p.reports).sum::<u64>() as f64
            / ps.iter().map(|p| p.measured_s).sum::<f64>()
    };
    let calls = |v: &[f64], what: &str| format!("n={} {what}", v.len());
    Ok(vec![
        (
            "ingest.send_ms_sum",
            per_pass(&send),
            "ms",
            "per pass".into(),
        ),
        (
            "ingest.send_ms_p50",
            quantile(&send, 0.5)?,
            "ms",
            calls(&send, "send_batch calls"),
        ),
        (
            "ingest.next_ms_sum",
            per_pass(&next),
            "ms",
            "per pass".into(),
        ),
        (
            "ingest.next_ms_p50",
            quantile(&next, 0.5)?,
            "ms",
            calls(&next, "rounds"),
        ),
        (
            "ingest.gen_ms_sum",
            per_pass(&gen),
            "ms",
            "per pass, outside every measured interval".into(),
        ),
        (
            "ingest.peak_queue_depth",
            stats.iter().map(|s| s.peak_queue_depth).max().unwrap_or(0) as f64,
            "count",
            "events".into(),
        ),
        (
            "ingest.late_events",
            stats.iter().map(|s| s.late_events).sum::<u64>() as f64,
            "count",
            String::new(),
        ),
        (
            "ingest.rejected_events",
            stats.iter().map(|s| s.rejected_events).sum::<u64>() as f64,
            "count",
            String::new(),
        ),
        (
            "engine.step_ms_p50",
            quantile(&step, 0.5)?,
            "ms",
            calls(&step, "rounds, self time"),
        ),
        (
            "engine.step_ms_p90",
            quantile(&step, 0.9)?,
            "ms",
            calls(&step, "rounds, self time"),
        ),
        (
            "engine.step_ms_sum",
            per_pass(&step),
            "ms",
            "per pass, self time".into(),
        ),
        (
            "serve.store_ingest_ms_p50",
            quantile(&store, 0.5)?,
            "ms",
            calls(&store, "rounds"),
        ),
        (
            "serve.store_ingest_ms_sum",
            per_pass(&store),
            "ms",
            "per pass".into(),
        ),
        (
            "serve.query_miss_ms_p50",
            quantile(&miss_ms, 0.5)?,
            "ms",
            calls(&miss_ms, "misses"),
        ),
        (
            "serve.query_hit_us_p50",
            quantile(&hit_us, 0.5)?,
            "us",
            calls(&hit_us, "hits"),
        ),
        (
            "serve.hit_ratio",
            hits as f64 / answers as f64,
            "ratio",
            format!("{hits} hits of {answers} answers"),
        ),
        (
            "proc.cpu_util",
            cpu / wall,
            "cores",
            "CPU-s / main-loop wall-s; below 1 when the machine took time".into(),
        ),
        (
            "trace.unattributed_share",
            unattributed,
            "ratio",
            "main-loop time outside send/next/step/refresh".into(),
        ),
        (
            "trace.rps_ratio",
            rps(traced) / rps(untraced),
            "ratio",
            "traced / untraced reports_per_s".into(),
        ),
    ])
}

/// Linear-interpolated quantile. A percentile needs at least ten samples
/// beyond it; an empty set (a layer the workload bypasses) reads 0.
fn quantile(values: &[f64], q: f64) -> Result<f64, String> {
    if values.is_empty() {
        return Ok(0.0);
    }
    let n = values.len();
    let beyond = n - (q * n as f64).ceil() as usize;
    if beyond < 10 {
        return Err(format!(
            "p{} of {n} samples has only {beyond} beyond it",
            (q * 100.0).round()
        ));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Ok(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

fn result_json(gate: &Gate, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, (name, value, unit, _)) in metrics.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        write!(
            body,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String never fails");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        gate.failed == 0,
        gate.attempted,
        gate.failed
    )
}
