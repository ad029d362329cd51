//! The three workloads. Each pass builds its inputs from the seed, sets up
//! the engine, store and (where used) the ingest tier, then runs a closed
//! loop over every round on one thread: hand the round over, seal it, step
//! it into the store, answer the round's refresh battery. Every interval
//! is read on the process CPU clock ([`cpu_now`]).

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use longsynth::{
    ContinualSynthesizer, CumulativeConfig, CumulativeSynthesizer, FixedWindowConfig,
    FixedWindowSynthesizer,
};
use longsynth_data::generators::{two_state_markov, MarkovParams};
use longsynth_data::BitColumn;
use longsynth_dp::budget::Rho;
use longsynth_dp::rng::{rng_from_seed, RngFork};
use longsynth_engine::{
    AggregationPolicy, IngestDriver, MergeAggregate, MergeRelease, PanelSchedule, ShardPlan,
    ShardableInput, ShardedEngine, SlotRole,
};
use longsynth_ingest::{
    BitRoundAssembler, Event, IngestConfig, IngestStats, IngestTier, RoundAssembler,
    ScheduledBitRoundAssembler, WindowSpec,
};
use longsynth_pool::WorkerPool;
use longsynth_queries::window::quarterly_battery;
use longsynth_serve::{QueryKind, QueryService, ServeQuery, StoreScope};

use crate::probe::{
    cpu_now, process_cpu, threads_unchanged, watch_threads, Gate, Reader, Released, SinkLog,
    TimedSink,
};
use crate::trace::{Span, Tracer};

/// Total zCDP budget of every workload.
const RHO: f64 = 0.05;
/// Tumbling event-time windows of one minute from a Unix-ms origin.
const WINDOW_MS: i64 = 60_000;
const T0_MS: i64 = 1_760_000_000_000;
/// Events per `send_batch` call.
const BATCH: usize = 4096;
/// Quarterly windows and cumulative thresholds asked of each round.
const QUARTER: usize = 3;
const MAX_B: usize = 6;

const FW_N: usize = 25_000;
const FW_ROUNDS: usize = 120;
const CUM_N: usize = 5_000;
const CUM_ROUNDS: usize = 100;
const CUM_SHARDS: usize = 2;
const ROT_WAVES: usize = 8;
const ROT_ROUNDS: usize = 100;
/// Cohort size; the active set is `ROT_WAVES` cohorts (20 000 people).
const ROT_COHORT: usize = 2_500;

/// Everything one pass measured; times are CPU time unless named wall.
pub struct Pass {
    pub traced: bool,
    /// Pass start to the main loop's start.
    pub setup_s: f64,
    /// Individual-round reports released.
    pub reports: u64,
    /// The main loop, less the time spent building event batches.
    pub measured_s: f64,
    /// Per round, in round order: the round's whole time in the loop
    /// (batch building excluded), its release lag and its refresh time.
    pub round_ms: Vec<f64>,
    pub lag_ms: Vec<f64>,
    pub refresh_ms: Vec<f64>,
    pub gate: Gate,
    pub digest: u64,
    /// CPU seconds and wall seconds of the main loop.
    pub cpu_s: f64,
    pub main_wall_s: f64,
    /// Time spent building event batches, outside every measured interval.
    pub gen_ms: f64,
    pub ingest: Option<IngestStats>,
    pub spans: Vec<Span>,
}

pub fn run(workload: &str, seed: u64, traced: bool) -> Result<Pass, String> {
    match workload {
        "fw_stream" => Ok(fw_stream(seed, traced)),
        "cum_serve" => Ok(cum_serve(seed, traced)),
        "rotating_shared" => Ok(rotating_shared(seed, traced)),
        other => Err(format!(
            "unknown workload {other:?} (fw_stream, cum_serve or rotating_shared)"
        )),
    }
}

/// The Markov parameters of the repository's `bench_panel` (a SIPP-like
/// persistent poverty process).
const PANEL: MarkovParams = MarkovParams {
    initial_one: 0.11,
    stay_one: 0.82,
    enter_one: 0.022,
};

fn panel_columns(seed: u64, n: usize, rounds: usize) -> Vec<BitColumn> {
    let panel = two_state_markov(&mut rng_from_seed(seed), n, rounds, PANEL);
    (0..rounds).map(|r| panel.column(r).clone()).collect()
}

fn quarterly(scope: StoreScope, t: usize) -> impl Iterator<Item = ServeQuery> {
    quarterly_battery(QUARTER)
        .into_iter()
        .map(move |query| ServeQuery {
            scope,
            kind: QueryKind::Window { t, query },
        })
}

fn thresholds(scope: StoreScope, t: usize, max_b: usize) -> impl Iterator<Item = ServeQuery> {
    (1..=max_b.min(t + 1)).map(move |b| ServeQuery {
        scope,
        kind: QueryKind::CumulativeFraction { t, b },
    })
}

/// Alg. 1 (k = 3) on a 1-shard static engine fed through the ingest tier:
/// the write path, where ingest does most of the work.
fn fw_stream(seed: u64, traced: bool) -> Pass {
    let start = process_cpu();
    let columns = panel_columns(seed, FW_N, FW_ROUNDS);
    let rho = Rho::new(RHO).expect("positive budget");
    let config = FixedWindowConfig::new(FW_ROUNDS, QUARTER, rho).expect("valid fixed-window");
    let fork = RngFork::new(seed);
    let plan = ShardPlan::new(FW_N, 1).expect("one shard");
    let mut engine = ShardedEngine::new(plan, |_, _| {
        FixedWindowSynthesizer::new(config, fork.child(0))
    })
    .expect("engine builds");
    let service = QueryService::new();
    let log = SinkLog::new(FW_ROUNDS);
    engine.set_sink(TimedSink::boxed(service.release_sink(), &log));
    // Thinned battery: two of the four quarterly queries on the newest
    // round, so ingest carries most of the consumer's time.
    let battery = |t: usize| -> Vec<ServeQuery> {
        if t + 1 < QUARTER {
            return Vec::new();
        }
        quarterly(StoreScope::Merged, t).step_by(3).collect()
    };
    let tier = IngestTier::new(ingest_config(FW_N), BitRoundAssembler::new(FW_N));
    ingest_pass(
        IngestRun {
            start,
            seed,
            traced,
            columns,
            tier,
            log,
            service,
            rho,
        },
        &mut engine,
        battery,
    )
}

/// Alg. 2 on a 2-shard static engine over a 1-thread pool, pre-binned
/// columns straight into `step`: reads beside writes, ingest bypassed.
fn cum_serve(seed: u64, traced: bool) -> Pass {
    let start = process_cpu();
    let columns = panel_columns(seed, CUM_N, CUM_ROUNDS);
    let rho = Rho::new(RHO).expect("positive budget");
    let fork = RngFork::new(seed);
    // One worker: the shards step one after the other while the main
    // thread waits, so one thread is busy at a time.
    let pool = Arc::new(WorkerPool::new(1));
    let plan = ShardPlan::new(CUM_N, CUM_SHARDS).expect("two shards");
    let mut engine = ShardedEngine::with_pool(
        plan,
        |s, _| {
            let config = CumulativeConfig::new(CUM_ROUNDS, rho).expect("valid cumulative");
            CumulativeSynthesizer::new(
                config,
                fork.subfork(s as u64),
                fork.child(0x0C00 + s as u64),
            )
        },
        pool,
    )
    .expect("engine builds");
    let service = QueryService::new();
    let log = SinkLog::new(CUM_ROUNDS);
    engine.set_sink(TimedSink::boxed(service.column_sink(), &log));
    let scopes = [
        StoreScope::Merged,
        StoreScope::Cohort(0),
        StoreScope::Cohort(1),
    ];
    let battery = |t: usize| -> Vec<ServeQuery> {
        let mut queries: Vec<ServeQuery> = thresholds(StoreScope::Merged, t, MAX_B).collect();
        if t + 1 >= QUARTER {
            for scope in scopes {
                queries.extend(quarterly(scope, t));
            }
        }
        queries
    };

    let mut gate = Gate::default();
    let mut reader = Reader::new(service.clone(), seed);
    let mut handover = vec![None; CUM_ROUNDS];
    let mut round_ms = Vec::with_capacity(CUM_ROUNDS);
    let setup = process_cpu() - start;
    watch_threads();
    let loop_start = cpu_now();
    let mut tracer = Tracer::new(traced, loop_start);
    let wall_start = Instant::now();
    for (round, column) in columns.iter().enumerate() {
        gate.attempt(column.len() as u64 + 1);
        let at = cpu_now();
        handover[round] = Some(at);
        let stepped = engine.step(column);
        tracer.record("engine.step", round, at, cpu_now());
        if let Err(e) = stepped {
            gate.fail(1, format!("round {round}: step failed: {e}"));
            break;
        }
        reader.refresh(round, battery(round), &mut tracer, &mut gate);
        round_ms.push((cpu_now() - at).as_secs_f64() * 1e3);
    }
    let main_wall_s = wall_start.elapsed().as_secs_f64();
    let cpu_s = (cpu_now() - loop_start).as_secs_f64();
    check_threads(&mut gate);
    check_store(&service, CUM_ROUNDS, &mut gate);
    check_budget(&engine, rho, &mut gate);
    finish(
        Timeline {
            setup,
            loop_start,
            handover,
            round_ms,
            log,
            reports: (CUM_N * CUM_ROUNDS) as u64,
            cpu_s,
            main_wall_s,
            gen: Duration::ZERO,
            ingest: None,
        },
        reader,
        tracer.into_spans(),
        gate,
        traced,
    )
}

/// Rotating panel (8 waves over 100 rounds) with shared noise and the
/// windowed population synthesizer, fed through the ingest tier into a
/// scheduled engine on a 1-thread pool: the dynamic lifecycle.
fn rotating_shared(seed: u64, traced: bool) -> Pass {
    let start = process_cpu();
    let policy = AggregationPolicy::shared();
    let cohort_count = ROT_WAVES + ROT_ROUNDS - 1;
    let (cohort_share, _) = policy.budget_shares(cohort_count);
    let rho = Rho::new(RHO).expect("positive budget");
    let cohort_rho = Rho::new(RHO * cohort_share).expect("positive share");
    let schedule = PanelSchedule::rotating(
        ROT_COHORT * cohort_count,
        ROT_ROUNDS,
        ROT_WAVES,
        cohort_rho,
        rho,
    )
    .expect("valid rotating schedule");
    // Each cohort's reports over its own membership window, then each
    // round's column over the active set in cohort order — the layout
    // the scheduled engine and assembler expect.
    let cohort_panels: Vec<Vec<BitColumn>> = (0..cohort_count)
        .map(|c| {
            panel_columns(
                seed ^ ((c as u64) << 20),
                ROT_COHORT,
                schedule.cohort(c).horizon,
            )
        })
        .collect();
    let columns: Vec<BitColumn> = (0..ROT_ROUNDS)
        .map(|r| {
            let parts: Vec<&BitColumn> = schedule
                .active(r)
                .into_iter()
                .map(|c| &cohort_panels[c][r - schedule.cohort(c).entry_round])
                .collect();
            BitColumn::concat(parts)
        })
        .collect();
    drop(cohort_panels);
    let sizes: Vec<usize> = (0..ROT_ROUNDS)
        .map(|r| schedule.active_population(r))
        .collect();
    let fork = RngFork::new(seed);
    let factory = move |slot: longsynth_engine::PanelSlot| {
        let config = CumulativeConfig::new(slot.horizon, slot.budget).expect("schedule-validated");
        let (config, stream) = match slot.role {
            SlotRole::Population => (
                config
                    .with_window(ROT_WAVES)
                    .expect("wave fits the horizon"),
                0xA110,
            ),
            SlotRole::Shard(s) => (config, s as u64),
        };
        CumulativeSynthesizer::new(config, fork.subfork(stream), fork.child(0x0C00 + stream))
    };
    let mut engine = ShardedEngine::with_schedule_and_pool(
        schedule.clone(),
        policy,
        factory,
        Arc::new(WorkerPool::new(1)),
    )
    .expect("engine builds");
    let service = QueryService::new();
    let log = SinkLog::new(ROT_ROUNDS);
    engine.set_sink(TimedSink::boxed(service.column_sink(), &log));
    let battery = |t: usize| -> Vec<ServeQuery> {
        let mut queries: Vec<ServeQuery> = thresholds(StoreScope::Merged, t, MAX_B).collect();
        for c in schedule.active(t) {
            queries.extend(thresholds(StoreScope::Cohort(c), t, 1));
        }
        queries
    };
    let largest = sizes.iter().copied().max().unwrap_or(0);
    let tier = IngestTier::new(
        ingest_config(largest),
        ScheduledBitRoundAssembler::new(sizes),
    );
    ingest_pass(
        IngestRun {
            start,
            seed,
            traced,
            columns,
            tier,
            log,
            service,
            rho,
        },
        &mut engine,
        battery,
    )
}

/// Tumbling windows over a queue that holds a whole round, so one thread
/// can send a round and then seal it. The spare batch of room matters:
/// `send_batch` waits for room once the queue is full, even when its
/// batch has just been sent in full.
fn ingest_config(round_events: usize) -> IngestConfig {
    IngestConfig {
        queue_cap: round_events + BATCH,
        ..IngestConfig::new(WindowSpec::tumbling(WINDOW_MS, T0_MS).expect("valid window"))
    }
}

struct IngestRun<A: RoundAssembler> {
    start: Duration,
    seed: u64,
    traced: bool,
    columns: Vec<BitColumn>,
    tier: IngestTier<A>,
    log: Arc<Mutex<SinkLog>>,
    service: QueryService,
    rho: Rho,
}

/// Per round, the main thread sends every individual's report in batches,
/// advances the watermark past the round's window, takes the sealed round
/// from `SealedRounds::next`, steps it into the store and reads.
fn ingest_pass<A, S>(
    run: IngestRun<A>,
    engine: &mut ShardedEngine<S>,
    battery: impl Fn(usize) -> Vec<ServeQuery>,
) -> Pass
where
    A: RoundAssembler<Payload = bool, Round = S::Input>,
    S: ContinualSynthesizer + Send + 'static,
    S::Input: ShardableInput + Send + 'static,
    S::Release: MergeRelease + Released + Clone + Send + 'static,
    S::Aggregate: MergeAggregate + Clone + Send + 'static,
{
    let IngestRun {
        start,
        seed,
        traced,
        columns,
        tier,
        log,
        service,
        rho,
    } = run;
    let rounds = columns.len();
    let reports: u64 = columns.iter().map(|c| c.len() as u64).sum();
    let spec = ingest_config(0).window;
    let producer = tier.producer();
    let mut sealed = tier.into_rounds().with_min_rounds(rounds as u64);

    let mut gate = Gate::default();
    gate.attempt(reports);
    let mut reader = Reader::new(service.clone(), seed);
    let mut handover = vec![None; rounds];
    let mut round_ms = Vec::with_capacity(rounds);
    let mut gen = Duration::ZERO;
    let setup = process_cpu() - start;
    watch_threads();
    let loop_start = cpu_now();
    let mut tracer = Tracer::new(traced, loop_start);
    let wall_start = Instant::now();
    {
        let mut driver = IngestDriver::new(engine);
        'rounds: for (r, column) in columns.iter().enumerate() {
            let window = spec.window(r as u64);
            let n = column.len();
            let span = (window.close - window.open) as usize;
            let (round_start, gen_before) = (cpu_now(), gen);
            for lo in (0..n).step_by(BATCH) {
                let built = cpu_now();
                // Reports arrive in individual order, spread over the window.
                let batch: Vec<Event<bool>> = (lo..(lo + BATCH).min(n))
                    .map(|i| Event {
                        time_ms: window.open + (i * span / n) as i64,
                        individual: i as u32,
                        payload: column.get(i),
                    })
                    .collect();
                let sending = cpu_now();
                gen += sending - built;
                if producer.send_batch(batch).is_err() {
                    gate.fail(1, format!("round {r}: the ingest queue closed"));
                    break 'rounds;
                }
                let sent = cpu_now();
                tracer.record("ingest.send", r, sending, sent);
                handover[r] = Some(sent);
            }
            // Every report of round r is in the queue, so the round may seal.
            producer.heartbeat(window.close);
            let asked = cpu_now();
            let round = sealed.next();
            let got = cpu_now();
            tracer.record("ingest.next", r, asked, got);
            let Some(round) = round.filter(|s| s.round as usize == r) else {
                gate.fail(1, format!("round {r} did not seal after its window closed"));
                break;
            };
            gate.attempt(1);
            let stepped = driver.on_sealed(&round);
            tracer.record("engine.step", r, got, cpu_now());
            if let Err(e) = stepped {
                gate.fail(1, format!("round {r}: step failed: {e}"));
                break;
            }
            reader.refresh(r, battery(r), &mut tracer, &mut gate);
            let spent = cpu_now() - round_start - (gen - gen_before);
            round_ms.push(spent.as_secs_f64() * 1e3);
        }
    }
    let main_wall_s = wall_start.elapsed().as_secs_f64();
    let cpu_s = (cpu_now() - loop_start).as_secs_f64();
    check_threads(&mut gate);
    // Every round was taken; with its producer gone the stream must end.
    drop(producer);
    if let Some(extra) = sealed.next() {
        gate.fail(1, format!("round {} sealed past the horizon", extra.round));
    }
    let stats = sealed.stats();
    if stats.late_events + stats.rejected_events > 0 {
        gate.fail(
            stats.late_events + stats.rejected_events,
            format!(
                "{} late and {} rejected reports",
                stats.late_events, stats.rejected_events
            ),
        );
    }
    if stats.events != reports {
        gate.fail(
            reports.abs_diff(stats.events),
            format!("{} reports sent, {} ingested", reports, stats.events),
        );
    }
    check_store(&service, rounds, &mut gate);
    check_budget(engine, rho, &mut gate);
    finish(
        Timeline {
            setup,
            loop_start,
            handover,
            round_ms,
            log,
            reports,
            cpu_s,
            main_wall_s,
            gen,
            ingest: Some(stats),
        },
        reader,
        tracer.into_spans(),
        gate,
        traced,
    )
}

fn check_threads(gate: &mut Gate) {
    if !threads_unchanged() {
        gate.fail(1, "a thread started or ended inside the timed loop");
    }
}

fn check_store(service: &QueryService, rounds: usize, gate: &mut Gate) {
    let stored = service.with_store(|s| s.rounds());
    if stored != rounds {
        gate.fail(
            rounds.abs_diff(stored) as u64,
            format!("{stored} of {rounds} rounds queryable"),
        );
    }
}

/// After the horizon the engine has spent exactly its configured budget.
fn check_budget<S: ContinualSynthesizer>(engine: &ShardedEngine<S>, rho: Rho, gate: &mut Gate) {
    let budget = engine.budget();
    let close = |a: Rho| (a.value() - rho.value()).abs() <= 1e-9 * rho.value();
    if !close(budget.total()) || !close(budget.spent()) {
        gate.fail(
            1,
            format!(
                "engine budget total {} spent {}, configured {rho}",
                budget.total(),
                budget.spent()
            ),
        );
    }
}

struct Timeline {
    setup: Duration,
    loop_start: Duration,
    /// Per round, when its last report was handed over.
    handover: Vec<Option<Duration>>,
    round_ms: Vec<f64>,
    log: Arc<Mutex<SinkLog>>,
    reports: u64,
    cpu_s: f64,
    main_wall_s: f64,
    gen: Duration,
    ingest: Option<IngestStats>,
}

/// Joins hand-over and queryable times into the pass's samples.
fn finish(t: Timeline, reader: Reader, mut spans: Vec<Span>, mut gate: Gate, traced: bool) -> Pass {
    let log = t.log.lock().expect("sink log lock never poisoned");
    let mut lag_ms = Vec::new();
    for (round, (handed, ingest)) in t.handover.iter().zip(&log.ingest).enumerate() {
        match (handed, ingest) {
            (Some(handed), Some((_, queryable))) if log.released[round] => {
                lag_ms.push(queryable.saturating_sub(*handed).as_secs_f64() * 1e3);
            }
            (Some(_), Some(_)) => {}
            _ => gate.fail(1, format!("round {round} never became queryable")),
        }
    }
    if traced {
        let mut tracer = Tracer::new(true, t.loop_start);
        for (round, ingest) in log.ingest.iter().enumerate() {
            if let Some((s, e)) = ingest {
                tracer.record("serve.store_ingest", round, *s, *e);
            }
        }
        spans.extend(tracer.into_spans());
    }
    Pass {
        traced,
        setup_s: t.setup.as_secs_f64(),
        reports: t.reports,
        measured_s: t.cpu_s - t.gen.as_secs_f64(),
        round_ms: t.round_ms,
        lag_ms,
        refresh_ms: reader.refresh_ms,
        gate,
        digest: log.digest,
        cpu_s: t.cpu_s,
        main_wall_s: t.main_wall_s,
        gen_ms: t.gen.as_secs_f64() * 1e3,
        ingest: t.ingest,
        spans,
    }
}
