//! `longsynth-cli`: continual DP synthetic data release from the command
//! line. `longsynth-cli --help` prints the commands and their flags.
//!
//! Input panels are plain 0/1 CSV (one row per individual, one column per
//! round; header and id column auto-detected); SIPP public-use files load
//! with `--sipp`. The released synthetic panel is written in the same
//! format (fixed-window output carries a public `padding` column).
//!
//! There is one run path. Every engine the CLI builds runs a
//! [`PanelSchedule`]: a static panel is the schedule whose `--shards`
//! cohorts all cover every round, and `--panel rotating:W` is the rotating
//! schedule of `W + T − 1` wave cohorts (`--shards` is unused there).
//! `engine` and `serve` share one body generic over the private [`Family`]
//! trait, which holds what differs between the synthesizer families, and
//! `engine`, `serve` and `ingest` share one [`Wiring`] for metrics, the
//! worker pool, the query service and its sink. Each subcommand accepts
//! exactly the flags its USAGE block lists.

use longsynth::{
    ContinualSynthesizer, CumulativeConfig, CumulativeSynthesizer, FixedWindowConfig,
    FixedWindowSynthesizer, PaddingPolicy, Release,
};
use longsynth_data::csvio::{read_panel_csv, write_panel_csv};
use longsynth_data::generators::iid_bernoulli;
use longsynth_data::sipp::{load_sipp_csv, SippConfig};
use longsynth_data::{BitColumn, LongitudinalDataset};
use longsynth_dp::budget::Rho;
use longsynth_dp::rng::{rng_from_seed, RngFork};
use longsynth_engine::{
    AggregationPolicy, EngineObserver, IngestDriver, MergeAggregate, MergeRelease, PanelSchedule,
    PanelSlot, ReleaseSink, ShardedEngine, SlotRole,
};
use longsynth_ingest::{
    BitRoundAssembler, Event, IngestConfig, IngestTier, LatePolicy, WindowSpec,
};
use longsynth_obs::MetricsRegistry;
use longsynth_pool::WorkerPool;
use longsynth_queries::cumulative::cumulative_fraction;
use longsynth_queries::window::quarterly_battery;
use longsynth_queries::{active_weighted_mean, AccuracyComparison, ErrorSummary, WindowQuery};
use longsynth_serve::{
    mixed_battery, QueryKind, QueryService, ReleaseStore, ServeQuery, StoreScope,
};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage:
  longsynth-cli fixed-window --input PANEL.csv --rho R [--window K] [--output OUT.csv]
                             [--estimates EST.csv] [--seed N] [--sipp] [--months T] [--beta B]
  longsynth-cli cumulative   --input PANEL.csv --rho R [--output OUT.csv]
                             [--estimates EST.csv] [--seed N] [--sipp] [--months T] [--max-b B]
  longsynth-cli engine       --input PANEL.csv --rho R --shards S
                             [--algorithm fixed-window|cumulative] [--window K]
                             [--aggregation per-shard|shared|shared:P]
                             [--panel static|rotating:W]
                             [--output OUT.csv] [--estimates EST.csv] [--seed N]
                             [--sipp] [--months T] [--beta B] [--max-b B] [--metrics M.jsonl]
  longsynth-cli serve        --input PANEL.csv --rho R --shards S
                             [--algorithm fixed-window|cumulative] [--window K]
                             [--aggregation per-shard|shared|shared:P]
                             [--panel static|rotating:W]
                             [--queries N] [--pool-threads P] [--snapshot OUT.json]
                             [--seed N] [--sipp] [--months T] [--beta B] [--max-b B]
                             [--metrics M.jsonl]
  longsynth-cli ingest       --rho R [--individuals N] [--rounds T] [--shards S]
                             [--window W:S] [--t0 MS] [--late-policy drop|grace:G]
                             [--queue-cap N] [--producers P] [--rate F]
                             [--aggregation per-shard|shared|shared:P]
                             [--queries N] [--pool-threads P] [--snapshot OUT.json]
                             [--max-b B] [--seed N] [--metrics M.jsonl]
  longsynth-cli stats        --metrics M.jsonl [--fail-on-late]
  longsynth-cli simulate     [--households N] [--months T] [--seed N] --output PANEL.csv

A command rejects any flag its line does not list.

The panel CSV has one row per individual and one 0/1 column per round
(header / id column auto-detected). --sipp parses a Census SIPP public-use
file instead, applying the paper's pre-processing; --months T is the SIPP
loader's horizon hint (default 12).

`engine` partitions the panel into S cohorts, synthesizes them in parallel
(one synthesizer per shard), and writes the merged population-level release;
disjoint cohorts give the same user-level zCDP guarantee as one shard.
--aggregation picks where noise goes: per-shard (default; cohort releases
concatenate, population queries pay ~sqrt(S) extra noise) or shared (one
population-level noise draw over summed cohort aggregates, recovering
unsharded population accuracy; P is the population budget share, default
0.8). Every engine and serve run prints a per-policy population-query
error summary against the true panel.

--panel rotating:W runs a **dynamic panel** instead of the static one
(cumulative algorithm only): W overlapping waves are active at every round,
one wave retires and a fresh one enters each round (SIPP/CPS-style
rotation), and the panel's rows are divided across the W+T-1 wave cohorts
(W must not exceed the round count), so --shards is accepted but unused.
The per-individual budget cap still holds: each individual lives in exactly
one wave. Under per-shard noise, population answers pool the cohorts
covering each round; under --aggregation shared the engine runs a
**windowed population synthesizer** whose statistics forget each retiring
wave, so the active-set release carries a single population-level noise
draw per round.

`serve` is the engine run with the release store attached. It then drives
a batch of concurrent window/cumulative queries against the stored releases
through the shared worker pool twice — first reads, which build each window
histogram the store keeps, then reads of the stored statistics — and reports
queries/sec for both. --snapshot additionally writes the store as JSON,
restores it, and verifies the restored answers are bit-identical.

`ingest` runs the event-time pipeline end to end: a synthetic timestamped
event stream (N individuals over T rounds at activity rate F, event times
jittered inside each round's window starting at epoch --t0 ms) flows from P
concurrent producers through a --queue-cap-bounded queue with backpressure,
is watermark-sealed into rounds by the event-time window spec --window
(width:slide in ms; one value means tumbling), stepped through the sharded
cumulative engine as each round seals, and served through the query layer
as in `serve`. --late-policy drop (default) drops-and-counts events that
miss a sealed window; grace:G holds every seal back G ms of event time. See
docs/INGEST.md for the semantics.

--metrics M.jsonl (engine, serve, and ingest) turns on the observability
layer: round-phase latency histograms, worker-pool queue/latency/panic
counters, serving ingest counters, and the privacy-budget audit
ledger. At the end of the run the metrics and ledger events are written as
JSONL to M and a Prometheus text dump to M with a .prom extension. `stats` reads such
a JSONL file back and prints a summary (exits nonzero on malformed input);
with --fail-on-late it also exits nonzero when ingest_late_events_total > 0,
catching silent event loss in CI smoke runs.";

/// The flags `command` accepts, space-separated: exactly those its USAGE
/// block lists (pinned by a test).
fn accepted_flags(command: &str) -> &'static str {
    match command {
        "fixed-window" => "input rho window output estimates seed sipp months beta",
        "cumulative" => "input rho output estimates seed sipp months max-b",
        "engine" => {
            "input rho shards algorithm window aggregation panel output estimates seed sipp \
             months beta max-b metrics"
        }
        "serve" => {
            "input rho shards algorithm window aggregation panel queries pool-threads snapshot \
             seed sipp months beta max-b metrics"
        }
        "ingest" => {
            "rho individuals rounds shards window t0 late-policy queue-cap producers rate \
             aggregation queries pool-threads snapshot max-b seed metrics"
        }
        "stats" => "metrics fail-on-late",
        "simulate" => "households months seed output",
        _ => "",
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let command = args.remove(0);
    let flags = match parse_flags(&args) {
        Ok(f) => f,
        Err(msg) => return fail(&msg),
    };
    let result = match command.as_str() {
        "fixed-window" => run_fixed_window(&flags),
        "cumulative" => run_cumulative(&flags),
        "engine" => run_engine(&flags),
        "serve" => run_serve(&flags),
        "ingest" => run_ingest(&flags),
        "stats" => run_stats(&flags),
        "simulate" => run_simulate(&flags),
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => fail(&msg),
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::from(2)
}

type Flags = HashMap<String, String>;

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("unexpected positional argument {arg:?}"));
        };
        // Boolean flags take no value.
        if name == "sipp" || name == "fail-on-late" {
            flags.insert(name.to_string(), "true".to_string());
            continue;
        }
        let value = iter
            .next()
            .ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

/// Reject the first (by name) flag `command` does not accept.
fn check_flags(flags: &Flags, command: &str) -> Result<(), String> {
    let accepted = accepted_flags(command);
    match (flags.keys())
        .filter(|flag| !accepted.split_whitespace().any(|name| name == *flag))
        .min()
    {
        Some(flag) => Err(format!("`{command}` does not accept --{flag} (see --help)")),
        None => Ok(()),
    }
}

fn get_parsed<T: std::str::FromStr>(flags: &Flags, name: &str, default: T) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("--{name}: cannot parse {raw:?}")),
    }
}

fn open_output(
    flags: &Flags,
    name: &str,
) -> Result<Option<std::io::BufWriter<std::fs::File>>, String> {
    match flags.get(name) {
        None => Ok(None),
        Some(path) => {
            let file = std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
            Ok(Some(std::io::BufWriter::new(file)))
        }
    }
}

/// The flags the synthesizing commands share, parsed once.
struct RunSpec {
    rho: f64,
    seed: u64,
    /// Cohorts of a static panel.
    shards: usize,
    /// `fixed-window` or `cumulative`.
    algorithm: &'static str,
    policy: AggregationPolicy,
    /// `--panel rotating:W`'s wave count; `None` for a static panel.
    waves: Option<usize>,
    metrics: Option<String>,
    /// The SIPP loader's horizon hint.
    months: usize,
}

impl RunSpec {
    fn parse(flags: &Flags, command: &str) -> Result<Self, String> {
        check_flags(flags, command)?;
        let rho: f64 = get_parsed(flags, "rho", f64::NAN)?;
        if rho.is_nan() {
            return Err("--rho is required".into());
        }
        let waves = match flags.get("panel").map(String::as_str) {
            None | Some("static") => None,
            Some(raw) => {
                let waves = (raw.strip_prefix("rotating:"))
                    .ok_or_else(|| format!("--panel must be static or rotating:W, got {raw:?}"))?;
                match waves.parse() {
                    Ok(0) => return Err("--panel rotating needs at least one wave".into()),
                    Ok(waves) => Some(waves),
                    Err(_) => return Err(format!("--panel: cannot parse wave count {waves:?}")),
                }
            }
        };
        // `engine` and `serve` split a static panel into --shards cohorts;
        // a rotating panel has W+T-1 wave cohorts instead.
        let required = waves.is_none() && matches!(command, "engine" | "serve");
        let shards: usize = get_parsed(flags, "shards", if required { 0 } else { 1 })?;
        if shards == 0 && waves.is_none() {
            return Err("--shards is required (try the number of cores)".into());
        }
        let algorithm = match flags.get("algorithm").map(String::as_str) {
            None if command == "engine" => "fixed-window",
            None | Some("cumulative") => "cumulative",
            Some("fixed-window") => "fixed-window",
            Some(other) => {
                return Err(format!(
                    "--algorithm must be fixed-window or cumulative, got {other:?}"
                ))
            }
        };
        if waves.is_some() && algorithm != "cumulative" {
            return Err(
                "--panel rotating requires --algorithm cumulative (fixed-window cohorts at \
                 different buffering phases cannot merge)"
                    .into(),
            );
        }
        if waves.is_some() && flags.contains_key("output") {
            return Err(
                "--output is not available under a rotating panel: the merged release is \
                 ragged (the active set changes each round); use --estimates"
                    .into(),
            );
        }
        let policy = match flags.get("aggregation") {
            None => AggregationPolicy::PerShardNoise,
            Some(raw) => raw.parse().map_err(|e| format!("--aggregation: {e}"))?,
        };
        Ok(Self {
            rho,
            seed: get_parsed(flags, "seed", 42)?,
            shards,
            algorithm,
            policy,
            waves,
            metrics: flags.get("metrics").cloned(),
            months: get_parsed(flags, "months", 12)?,
        })
    }

    fn load(&self, flags: &Flags) -> Result<LongitudinalDataset, String> {
        let input: PathBuf = flags
            .get("input")
            .map(PathBuf::from)
            .ok_or("--input is required")?;
        if flags.contains_key("sipp") {
            load_sipp_csv(&input, self.months).map_err(|e| e.to_string())
        } else {
            let file = std::fs::File::open(&input)
                .map_err(|e| format!("opening {}: {e}", input.display()))?;
            read_panel_csv(std::io::BufReader::new(file)).map_err(|e| e.to_string())
        }
    }

    /// The run's schedule over `n` individuals and `horizon` rounds, with
    /// the policy's cohort share of rho per cohort under the per-individual
    /// cap rho.
    ///
    /// Shared noise on a rotating panel needs a **constant active
    /// population** (the windowed population synthesizer's size is pinned
    /// at round 0), so such runs trim the panel to the largest row count
    /// the wave cohorts divide evenly, with a note on stderr.
    fn schedule(&self, n: usize, horizon: usize) -> Result<PanelSchedule, String> {
        let cohorts = self.waves.map_or(self.shards, |waves| waves + horizon - 1);
        let (cohort_share, population_share) = self.policy.budget_shares(cohorts);
        let cohort_rho = Rho::new(self.rho * cohort_share).map_err(|e| e.to_string())?;
        let total = Rho::new(self.rho).map_err(|e| e.to_string())?;
        let Some(waves) = self.waves else {
            return PanelSchedule::uniform(n, self.shards, horizon, cohort_rho, total)
                .map_err(|e| e.to_string());
        };
        let mut n = n;
        if population_share.is_some() && !n.is_multiple_of(cohorts) {
            let trimmed = (n / cohorts) * cohorts;
            if trimmed == 0 {
                return Err(format!(
                    "panel of {n} rows cannot cover {cohorts} wave cohorts"
                ));
            }
            eprintln!(
                "shared noise needs equal wave cohorts: using the first {trimmed} of {n} rows \
                 ({cohorts} cohorts)"
            );
            n = trimmed;
        }
        PanelSchedule::rotating(n, horizon, waves, cohort_rho, total).map_err(|e| e.to_string())
    }
}

/// Independent RNG stream index per synthesizer slot (shards keep their
/// pre-policy streams; the population synthesizer gets its own).
fn slot_stream(role: SlotRole) -> u64 {
    match role {
        SlotRole::Shard(s) => s as u64,
        SlotRole::Population => 0xA110,
    }
}

type ReleaseOf<F> = <<F as Family>::Synth as ContinualSynthesizer>::Release;

/// What differs between the synthesizer families; the run paths are
/// generic over it.
trait Family: Sized {
    type Synth: ContinualSynthesizer<
            Input = BitColumn,
            Release: MergeRelease + Send,
            Aggregate: MergeAggregate + Clone + Send,
        > + Send
        + 'static;
    type Config;
    /// One query of the family's estimate battery.
    type Query;
    /// The `--estimates` CSV header.
    const HEADER: &'static str;

    fn from_flags(flags: &Flags, horizon: usize) -> Result<Self, String>;
    fn config(&self, horizon: usize, budget: Rho) -> Result<Self::Config, String>;
    /// The engine's synthesizer for `slot`, on RNG streams forked per
    /// slot; `waves` bounds a rotating panel's population window.
    fn synth(&self, slot: PanelSlot, waves: Option<usize>, fork: &RngFork) -> Self::Synth;
    /// The standalone command's synthesizer, with its own seeding.
    fn seeded(config: Self::Config, seed: u64) -> Self::Synth;
    /// `(round, query)` pairs in `--estimates` row order.
    fn battery(&self, horizon: usize) -> Vec<(usize, Self::Query)>;
    fn estimate(synth: &Self::Synth, t: usize, query: &Self::Query) -> Result<f64, String>;
    fn truth(panel: &LongitudinalDataset, t: usize, query: &Self::Query) -> f64;
    /// The query's `--estimates` column.
    fn label(query: &Self::Query) -> String;
    /// The public per-record padding flags, for families that pad.
    fn padding(synth: &Self::Synth) -> Option<&[bool]>;
    /// Append the columns a release adds to the released panel.
    fn push_columns(release: ReleaseOf<Self>, columns: &mut Vec<BitColumn>);
    fn sink(service: &QueryService) -> Box<dyn ReleaseSink<ReleaseOf<Self>>>;
}

/// Algorithm 1: window queries over the last `window` rounds.
struct FixedWindow {
    window: usize,
    beta: f64,
}

impl Family for FixedWindow {
    type Synth = FixedWindowSynthesizer;
    type Config = FixedWindowConfig;
    type Query = WindowQuery;
    const HEADER: &'static str = "round,query,debiased_estimate";

    fn from_flags(flags: &Flags, _: usize) -> Result<Self, String> {
        let window = get_parsed(flags, "window", 3)?;
        Ok(Self {
            window,
            beta: get_parsed(flags, "beta", 0.05)?,
        })
    }

    fn config(&self, horizon: usize, budget: Rho) -> Result<FixedWindowConfig, String> {
        let config = FixedWindowConfig::new(horizon, self.window, budget);
        let config = config.map_err(|e| e.to_string())?;
        Ok(config.with_padding(PaddingPolicy::Recommended { beta: self.beta }))
    }

    fn synth(&self, slot: PanelSlot, _: Option<usize>, fork: &RngFork) -> FixedWindowSynthesizer {
        let config = self.config(slot.horizon, slot.budget).expect("validated");
        FixedWindowSynthesizer::new(config, fork.child(slot_stream(slot.role)))
    }

    fn seeded(config: FixedWindowConfig, seed: u64) -> FixedWindowSynthesizer {
        FixedWindowSynthesizer::new(config, rng_from_seed(seed))
    }

    fn battery(&self, horizon: usize) -> Vec<(usize, WindowQuery)> {
        let rounds = (self.window - 1)..horizon;
        let queries = |t| {
            quarterly_battery(self.window)
                .into_iter()
                .map(move |q| (t, q))
        };
        rounds.flat_map(queries).collect()
    }

    fn estimate(synth: &FixedWindowSynthesizer, t: usize, q: &WindowQuery) -> Result<f64, String> {
        synth.estimate_debiased(t, q).map_err(|e| e.to_string())
    }

    fn truth(panel: &LongitudinalDataset, t: usize, query: &WindowQuery) -> f64 {
        query.evaluate_true(panel, t)
    }

    fn label(query: &WindowQuery) -> String {
        query.name().to_string()
    }

    fn padding(synth: &FixedWindowSynthesizer) -> Option<&[bool]> {
        Some(synth.padding_flags())
    }

    fn push_columns(release: Release, columns: &mut Vec<BitColumn>) {
        match release {
            Release::Buffered => {}
            Release::Initial(initial) => columns.extend(initial),
            Release::Update(column) => columns.push(column),
        }
    }

    fn sink(service: &QueryService) -> Box<dyn ReleaseSink<Release>> {
        service.release_sink()
    }
}

/// Algorithm 2: cumulative thresholds `b = 1..=max_b`.
struct Cumulative {
    max_b: usize,
}

impl Family for Cumulative {
    type Synth = CumulativeSynthesizer;
    type Config = CumulativeConfig;
    type Query = usize;
    const HEADER: &'static str = "round,threshold_b,fraction_at_least_b";

    fn from_flags(flags: &Flags, horizon: usize) -> Result<Self, String> {
        let max_b = get_parsed(flags, "max-b", horizon.min(6))?;
        Ok(Self { max_b })
    }

    fn config(&self, horizon: usize, budget: Rho) -> Result<CumulativeConfig, String> {
        CumulativeConfig::new(horizon, budget).map_err(|e| e.to_string())
    }

    /// On a rotating panel the population slot runs the family's
    /// **windowed release mode**, bounded by the wave length (the longest
    /// membership window), which makes shared noise sound under churn.
    fn synth(&self, slot: PanelSlot, waves: Option<usize>, fork: &RngFork) -> Self::Synth {
        let mut config = self.config(slot.horizon, slot.budget).expect("validated");
        if let (SlotRole::Population, Some(waves)) = (slot.role, waves) {
            config = config.with_window(waves).expect("waves fit the horizon");
        }
        let stream = slot_stream(slot.role);
        CumulativeSynthesizer::new(config, fork.subfork(stream), fork.child(0x0C00 + stream))
    }

    fn seeded(config: CumulativeConfig, seed: u64) -> CumulativeSynthesizer {
        CumulativeSynthesizer::new(config, RngFork::new(seed), rng_from_seed(seed))
    }

    fn battery(&self, horizon: usize) -> Vec<(usize, usize)> {
        let thresholds = |t: usize| (1..=self.max_b.min(t + 1)).map(move |b| (t, b));
        (0..horizon).flat_map(thresholds).collect()
    }

    fn estimate(synth: &CumulativeSynthesizer, t: usize, b: &usize) -> Result<f64, String> {
        synth.estimate_fraction(t, *b).map_err(|e| e.to_string())
    }

    fn truth(panel: &LongitudinalDataset, t: usize, b: &usize) -> f64 {
        cumulative_fraction(panel, t, *b)
    }

    fn label(b: &usize) -> String {
        b.to_string()
    }

    fn padding(_: &CumulativeSynthesizer) -> Option<&[bool]> {
        None
    }

    fn push_columns(release: BitColumn, columns: &mut Vec<BitColumn>) {
        columns.push(release);
    }

    fn sink(service: &QueryService) -> Box<dyn ReleaseSink<BitColumn>> {
        service.column_sink()
    }
}

/// The wiring `engine`, `serve` and `ingest` share around their engine:
/// the `--metrics` registry and, for the serving commands, one worker pool
/// that steps the engine and answers queries, plus the query service the
/// engine's releases land in.
struct Wiring {
    /// The `--metrics` dump path; engines are observed only when it is set.
    metrics: Option<String>,
    registry: MetricsRegistry,
    serving: Option<(Arc<WorkerPool>, QueryService)>,
}

impl Wiring {
    /// `pool_threads` is `Some` for the serving commands.
    fn new(spec: &RunSpec, pool_threads: Option<usize>) -> Self {
        let registry = MetricsRegistry::new();
        let serving = pool_threads.map(|threads| {
            let service = QueryService::with_registry(ReleaseStore::new(), &registry);
            (Arc::new(WorkerPool::new(threads.max(1))), service)
        });
        let metrics = spec.metrics.clone();
        Self {
            metrics,
            registry,
            serving,
        }
    }

    /// Build the run's engine over `schedule`, observed under `--metrics`
    /// and feeding the query service when serving.
    fn engine<F: Family>(
        &self,
        family: &F,
        spec: &RunSpec,
        schedule: PanelSchedule,
    ) -> Result<ShardedEngine<F::Synth>, String> {
        eprintln!(
            "panel: {} individuals x {} rounds; {} cohorts (~{} active per round), \
             algorithm = {}, aggregation = {}, total rho = {}",
            schedule.population(),
            schedule.global_horizon(),
            schedule.cohorts(),
            schedule.active_population(0),
            spec.algorithm,
            spec.policy,
            spec.rho
        );
        // Validate the parameters once at the full budget; slot configs
        // only rescale it.
        family.config(schedule.global_horizon(), schedule.total_budget())?;
        let fork = RngFork::new(spec.seed);
        let factory = |slot| family.synth(slot, spec.waves, &fork);
        let mut engine = match &self.serving {
            Some((pool, _)) => {
                let pool = Arc::clone(pool);
                ShardedEngine::with_schedule_and_pool(schedule, spec.policy, factory, pool)
            }
            None => ShardedEngine::with_schedule(schedule, spec.policy, factory),
        }
        .map_err(|e| e.to_string())?;
        if self.metrics.is_some() {
            engine.set_observer(EngineObserver::new(&self.registry));
            if let Some(pool) = engine.pool() {
                pool.attach_metrics(&self.registry);
            }
        }
        if let Some((_, service)) = &self.serving {
            engine.set_sink(F::sink(service));
        }
        Ok(engine)
    }

    /// Drive the schedule's query battery over the stored releases twice
    /// (first reads, then stored statistics), report throughput, and
    /// (optionally) verify a snapshot round-trip.
    fn serve_queries(
        &self,
        flags: &Flags,
        schedule: &PanelSchedule,
        max_b: usize,
        window: usize,
        query_target: usize,
    ) -> Result<(), String> {
        let (pool, service) = self.serving.as_ref().expect("a serving command");
        let (rounds, records, tag) = service.with_store(|s| (s.rounds(), s.records(), s.policy()));
        let tag = tag.map_or("none".to_string(), |tag| tag.to_string());
        let records = records.unwrap_or(0);
        eprintln!("stored {rounds} released rounds ({records} records, policy tag {tag})");
        let distinct = serve_battery(schedule, rounds, max_b, window);
        if distinct.is_empty() {
            return Err("no answerable queries (panel too short?)".into());
        }
        let batch: Vec<ServeQuery> = distinct
            .iter()
            .cycle()
            .take(query_target)
            .cloned()
            .collect();

        // First pass: each window histogram is built on its first read and
        // stored. Second pass: the same batch sums stored statistics.
        let run_batch = |label: &str| {
            let start = std::time::Instant::now();
            let answers = service.answer_batch(pool, batch.clone());
            let elapsed = start.elapsed();
            let failures = answers.iter().filter(|a| a.is_err()).count();
            let qps = batch.len() as f64 / elapsed.as_secs_f64();
            eprintln!(
                "{label}: {} queries in {elapsed:?} ({qps:.0} queries/sec; {failures} failures)",
                batch.len()
            );
        };
        run_batch("first ");
        run_batch("stored");

        if let Some(path) = flags.get("snapshot") {
            let json = service.snapshot_json();
            std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
            let restored_json =
                std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let restored = QueryService::restore_json(&restored_json).map_err(|e| e.to_string())?;
            for query in &distinct {
                let original = service.answer(query).map_err(|e| e.to_string())?;
                let recovered = restored.answer(query).map_err(|e| e.to_string())?;
                if original.to_bits() != recovered.to_bits() {
                    return Err(format!(
                        "snapshot restore diverged on {query:?}: {original} vs {recovered}"
                    ));
                }
            }
            eprintln!(
                "snapshot: wrote {} bytes to {path}; restore verified bit-identical \
                 on {} distinct queries",
                json.len(),
                distinct.len()
            );
        }
        Ok(())
    }

    /// Under `--metrics`, write the registry and the engine's budget
    /// ledger as JSONL to the path and a Prometheus text rendering to the
    /// same path with a `.prom` extension.
    fn finish<S: ContinualSynthesizer>(&self, engine: &mut ShardedEngine<S>) -> Result<(), String> {
        let Some(path) = &self.metrics else {
            return Ok(());
        };
        let observer = engine.take_observer();
        let ledger = observer.as_ref().map(EngineObserver::ledger);
        let file = std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
        let mut out = std::io::BufWriter::new(file);
        self.registry
            .write_jsonl(&mut out)
            .map_err(|e| format!("writing {path}: {e}"))?;
        if let Some(ledger) = ledger {
            ledger
                .write_jsonl(&mut out)
                .map_err(|e| format!("writing {path}: {e}"))?;
        }
        out.flush().map_err(|e| e.to_string())?;
        let prom_path = PathBuf::from(path).with_extension("prom");
        std::fs::write(&prom_path, self.registry.prometheus_text())
            .map_err(|e| format!("writing {}: {e}", prom_path.display()))?;
        eprintln!(
            "metrics: wrote JSONL ({} budget events) to {path} and Prometheus text to {}",
            ledger.map_or(0, longsynth_obs::BudgetLedger::len),
            prom_path.display()
        );
        Ok(())
    }
}

/// The size-weighted mean of `answer(cohort, local round)` over the
/// cohorts covering global round `t`.
fn pool(
    schedule: &PanelSchedule,
    t: usize,
    mut answer: impl FnMut(usize, usize) -> Result<f64, String>,
) -> Result<f64, String> {
    let mut parts = Vec::new();
    for c in schedule.active(t) {
        let local = t - schedule.cohort(c).entry_round;
        parts.push((answer(c, local)?, schedule.cohort_size(c)));
    }
    active_weighted_mean(parts).ok_or_else(|| format!("no cohort covers round {t}"))
}

/// The matching ground truth: each covering cohort's true answer over the
/// columns it observed, size-weighted.
fn population_truths<F: Family>(
    engine: &ShardedEngine<F::Synth>,
    panel: &LongitudinalDataset,
    battery: &[(usize, F::Query)],
) -> Result<Vec<f64>, String> {
    let (schedule, plan) = (engine.schedule(), engine.plan());
    let observed: Vec<LongitudinalDataset> = (0..schedule.cohorts())
        .map(|c| {
            let window = schedule.cohort(c).window();
            let columns = window.map(|round| panel.column(round).slice(plan.range(c)));
            LongitudinalDataset::from_columns(columns.collect()).expect("rectangular slices")
        })
        .collect();
    let truth = |(t, query): &(usize, F::Query)| {
        pool(schedule, *t, |c, local| {
            Ok(F::truth(&observed[c], local, query))
        })
    };
    battery.iter().map(truth).collect()
}

/// Write `--output` (the released columns as rows, plus the public padding
/// column for families that pad) and `--estimates`.
fn write_release<F: Family>(
    flags: &Flags,
    columns: &[BitColumn],
    padding: Option<&[bool]>,
    battery: &[(usize, F::Query)],
    estimates: &[f64],
) -> Result<(), String> {
    if let Some(mut out) = open_output(flags, "output")? {
        let records = columns.first().map_or(0, BitColumn::len);
        let rows = (0..records).map(|i| columns.iter().map(|c| c.get(i)).collect());
        write_panel_csv(&mut out, rows, columns.len(), padding).map_err(|e| e.to_string())?;
        eprintln!("wrote synthetic panel to --output");
    }
    if let Some(mut out) = open_output(flags, "estimates")? {
        writeln!(out, "{}", F::HEADER).map_err(|e| e.to_string())?;
        for ((t, query), estimate) in battery.iter().zip(estimates) {
            writeln!(out, "{},{},{estimate}", t + 1, F::label(query)).map_err(|e| e.to_string())?;
        }
        eprintln!("wrote estimates to --estimates");
    }
    Ok(())
}

fn run_fixed_window(flags: &Flags) -> Result<(), String> {
    run_single::<FixedWindow>(flags, "fixed-window")
}

fn run_cumulative(flags: &Flags) -> Result<(), String> {
    run_single::<Cumulative>(flags, "cumulative")
}

/// The standalone commands: one synthesizer over the whole panel.
fn run_single<F: Family>(flags: &Flags, command: &str) -> Result<(), String> {
    let spec = RunSpec::parse(flags, command)?;
    let panel = spec.load(flags)?;
    let (n, horizon) = (panel.individuals(), panel.rounds());
    eprintln!(
        "panel: {n} individuals x {horizon} rounds; {command}, rho = {}",
        spec.rho
    );
    let family = F::from_flags(flags, horizon)?;
    let rho = Rho::new(spec.rho).map_err(|e| e.to_string())?;
    let mut synth = F::seeded(family.config(horizon, rho)?, spec.seed);
    let mut columns = Vec::with_capacity(horizon);
    for (_, col) in panel.stream() {
        F::push_columns(synth.step(col).map_err(|e| e.to_string())?, &mut columns);
    }
    let records = columns.first().map_or(0, BitColumn::len);
    eprintln!("released {records} synthetic records over {horizon} rounds");
    let battery = family.battery(horizon);
    let estimates = (battery.iter())
        .map(|(t, query)| F::estimate(&synth, *t, query))
        .collect::<Result<Vec<_>, String>>()?;
    write_release::<F>(flags, &columns, F::padding(&synth), &battery, &estimates)
}

fn run_engine(flags: &Flags) -> Result<(), String> {
    run_panel(flags, RunSpec::parse(flags, "engine")?, None)
}

/// The serve subcommand: the engine run with the release store attached,
/// then a concurrent query batch over the stored releases — the whole
/// serving subsystem end to end, with throughput numbers on stderr.
fn run_serve(flags: &Flags) -> Result<(), String> {
    let spec = RunSpec::parse(flags, "serve")?;
    run_panel(flags, spec, Some(get_parsed(flags, "pool-threads", 4)?))
}

fn run_panel(flags: &Flags, spec: RunSpec, pool_threads: Option<usize>) -> Result<(), String> {
    let panel = spec.load(flags)?;
    let wiring = Wiring::new(&spec, pool_threads);
    match spec.algorithm {
        "fixed-window" => run_scheduled::<FixedWindow>(flags, &spec, &panel, &wiring),
        _ => run_scheduled::<Cumulative>(flags, &spec, &panel, &wiring),
    }
}

/// `engine` and `serve`: step the scheduled engine through the panel (each
/// round feeds the concatenated slices of its active cohorts; on a static
/// panel, the whole column), report the population estimates against the
/// truth, write the release, and, when serving, drive the query batch.
fn run_scheduled<F: Family>(
    flags: &Flags,
    spec: &RunSpec,
    panel: &LongitudinalDataset,
    wiring: &Wiring,
) -> Result<(), String> {
    let horizon = panel.rounds();
    let family = F::from_flags(flags, horizon)?;
    let schedule = spec.schedule(panel.individuals(), horizon)?;
    let mut engine = wiring.engine(&family, spec, schedule)?;
    let start = std::time::Instant::now();
    let mut columns = Vec::with_capacity(horizon);
    for round in 0..horizon {
        let parts: Vec<BitColumn> = (engine.schedule().active(round).into_iter())
            .map(|c| panel.column(round).slice(engine.plan().range(c)))
            .collect();
        // The engine checks the per-individual budget cap every round and
        // errors before releasing to a sink.
        let release = engine.step(&BitColumn::concat(&parts));
        F::push_columns(release.map_err(|e| e.to_string())?, &mut columns);
    }
    let budget = engine.budget();
    eprintln!(
        "released {} rounds in {:?}; max individual lifetime budget {} (cap {}; cohort \
         level {} + population level {}; sequential-sum view {})",
        engine.rounds_fed(),
        start.elapsed(),
        budget.max_lifetime_spend(),
        engine.schedule().total_budget(),
        budget.cohort_spent(),
        budget.population_spent(),
        budget.spent_sequential()
    );
    if let Some(retired) = engine.retired_cohorts() {
        eprintln!("windowed population synthesizer: {retired} cohorts retired from the window");
    }

    // Evaluate the battery once; the summary and --estimates share it.
    // The population estimate is the population synthesizer's under
    // shared noise, the cohort pool otherwise.
    let battery = family.battery(horizon);
    let truths = population_truths::<F>(&engine, panel, &battery)?;
    let cohort_pool = |(t, query): &(usize, F::Query)| {
        pool(engine.schedule(), *t, |c, local| {
            F::estimate(engine.shard(c), local, query)
        })
    };
    let estimate = |entry: &(usize, F::Query)| match engine.population_synthesizer() {
        Some(population) => F::estimate(population, entry.0, &entry.1),
        None => cohort_pool(entry),
    };
    let estimates = battery
        .iter()
        .map(estimate)
        .collect::<Result<Vec<_>, _>>()?;
    let mut comparison = AccuracyComparison::against(
        format!("{} population estimates", spec.policy),
        ErrorSummary::from_pairs(&estimates, &truths),
    );
    if engine.population_synthesizer().is_some() {
        // Under shared noise the cohort releases still exist at the
        // cohort budget share — show both levels side by side.
        let pooled = battery
            .iter()
            .map(cohort_pool)
            .collect::<Result<Vec<_>, _>>()?;
        let pooled = ErrorSummary::from_pairs(&pooled, &truths);
        comparison.add("per-cohort pool (cohort budget share)", pooled);
    }
    eprintln!("population-query error vs truth (active set per round):\n{comparison}");
    let padding: Option<Vec<bool>> = match engine.population_synthesizer() {
        Some(population) => F::padding(population).map(<[bool]>::to_vec),
        None => (0..engine.shards())
            .map(|s| F::padding(engine.shard(s)))
            .collect::<Option<Vec<_>>>()
            .map(|parts| parts.concat()),
    };
    write_release::<F>(flags, &columns, padding.as_deref(), &battery, &estimates)?;

    if wiring.serving.is_some() {
        let max_b = get_parsed(flags, "max-b", horizon.min(6))?;
        let window = get_parsed(flags, "window", 3)?;
        let queries = get_parsed(flags, "queries", 1_000)?;
        wiring.serve_queries(flags, engine.schedule(), max_b, window, queries)?;
    }
    wiring.finish(&mut engine)
}

/// The read battery a `serve` run drives. A static panel cycles the
/// canonical mixed battery — the read traffic a deployment sees. A
/// rotating panel reads merged-scope cumulative thresholds over every
/// round, plus each covering cohort's `b = 1`.
fn serve_battery(
    schedule: &PanelSchedule,
    rounds: usize,
    max_b: usize,
    window: usize,
) -> Vec<ServeQuery> {
    if schedule.is_static() {
        return mixed_battery(rounds, schedule.cohorts(), max_b, window);
    }
    let cumulative = |scope, t, b| ServeQuery {
        scope,
        kind: QueryKind::CumulativeFraction { t, b },
    };
    let mut distinct = Vec::new();
    for t in 0..rounds {
        for b in 1..=max_b.min(t + 1) {
            distinct.push(cumulative(StoreScope::Merged, t, b));
        }
        for c in schedule.active(t) {
            distinct.push(cumulative(StoreScope::Cohort(c), t, 1));
        }
    }
    distinct
}

/// Parse the ingest subcommand's `--window`: `W` (tumbling) or `W:S`
/// (sliding), both in event-time milliseconds, anchored at `--t0`.
fn parse_ingest_window(flags: &Flags, t0: i64) -> Result<WindowSpec, String> {
    let raw = flags.get("window").map(String::as_str).unwrap_or("60000");
    let (width, slide) = match raw.split_once(':') {
        Some((w, s)) => (w, s),
        None => (raw, raw),
    };
    let width: i64 = width
        .parse()
        .map_err(|_| format!("--window: cannot parse width {width:?} (ms)"))?;
    let slide: i64 = slide
        .parse()
        .map_err(|_| format!("--window: cannot parse slide {slide:?} (ms)"))?;
    WindowSpec::new(width, slide, t0).map_err(|e| e.to_string())
}

/// The `ingest` subcommand: the event-time pipeline end to end. A
/// synthetic timestamped stream flows from concurrent producers through
/// the bounded queue, is watermark-sealed into rounds, stepped through
/// the sharded cumulative engine as each round seals, and served through
/// the query layer — the engine's round clock driven by event time
/// instead of a pre-binned panel.
fn run_ingest(flags: &Flags) -> Result<(), String> {
    let spec = RunSpec::parse(flags, "ingest")?;
    let n: usize = get_parsed(flags, "individuals", 2_000)?;
    let horizon: usize = get_parsed(flags, "rounds", 12)?;
    if n == 0 || horizon == 0 {
        return Err("--individuals and --rounds must be positive".into());
    }
    let producers: usize = get_parsed::<usize>(flags, "producers", 2)?.max(1);
    let queue_cap: usize = get_parsed(flags, "queue-cap", 65_536)?;
    let rate: f64 = get_parsed(flags, "rate", 0.3)?;
    // Default origin ≈ late 2025 in Unix ms: the boundary math runs at
    // real epoch magnitudes, not toy offsets (see docs/INGEST.md).
    let t0: i64 = get_parsed(flags, "t0", 1_760_000_000_000_i64)?;
    let window = parse_ingest_window(flags, t0)?;
    let late = match flags.get("late-policy") {
        None => LatePolicy::Drop,
        Some(raw) => LatePolicy::parse(raw).map_err(|e| e.to_string())?,
    };
    let query_target: usize = get_parsed(flags, "queries", 500)?;
    let family = Cumulative::from_flags(flags, horizon)?;
    let wiring = Wiring::new(&spec, Some(get_parsed(flags, "pool-threads", 2)?));
    let mut engine = wiring.engine(&family, &spec, spec.schedule(n, horizon)?)?;
    eprintln!(
        "stream: rate {rate}; window {}ms/{}ms from t0 = {t0}, late policy {late}, \
         {producers} producers, queue cap {queue_cap}",
        window.width(),
        window.slide(),
    );

    let mut config = IngestConfig::new(window);
    config.late = late;
    config.queue_cap = queue_cap;
    let tier = match &wiring.metrics {
        Some(_) => IngestTier::with_metrics(config, BitRoundAssembler::new(n), &wiring.registry),
        None => IngestTier::new(config, BitRoundAssembler::new(n)),
    };

    // Synthetic timestamped stream: a Bernoulli panel's set bits become
    // events, deterministically jittered inside each round's slide span —
    // a tumbling run seals with zero late events, while an overlapping
    // W:S spec genuinely exercises the late path.
    let data = iid_bernoulli(&mut rng_from_seed(spec.seed ^ 0x1A6E57), n, horizon, rate);
    let columns: Arc<Vec<BitColumn>> =
        Arc::new((0..horizon).map(|r| data.column(r).clone()).collect());
    let start = std::time::Instant::now();
    let base = tier.producer();
    let chunk = n.div_ceil(producers);
    let mut handles = Vec::with_capacity(producers);
    for p in 0..producers {
        let producer = base.clone();
        let columns = Arc::clone(&columns);
        let (lo, hi) = (p * chunk, ((p + 1) * chunk).min(n));
        handles.push(std::thread::spawn(move || {
            for round in 0..horizon {
                let instance = window.window(round as u64);
                let span = window.slide();
                let batch: Vec<Event<bool>> = (lo..hi)
                    .filter(|&i| columns[round].get(i))
                    .map(|i| {
                        let jitter = ((i as u64).wrapping_mul(7_919)
                            ^ (round as u64).wrapping_mul(104_729))
                            % span as u64;
                        Event {
                            time_ms: instance.open + jitter as i64,
                            individual: i as u32,
                            payload: true,
                        }
                    })
                    .collect();
                if !batch.is_empty() && producer.send_batch(batch).is_err() {
                    return; // consumer gone: nothing left to feed
                }
                // Zero-event rounds still advance this producer's
                // watermark slot, so an idle slice cannot stall sealing.
                producer.heartbeat(instance.open + span - 1);
            }
        }));
    }
    drop(base);

    let mut sealed_rounds = tier.into_rounds().with_min_rounds(horizon as u64);
    {
        let mut driver = IngestDriver::new(&mut engine);
        for sealed in sealed_rounds.by_ref() {
            driver.on_sealed(&sealed).map_err(|e| e.to_string())?;
        }
    }
    for handle in handles {
        handle
            .join()
            .map_err(|_| "a producer thread panicked".to_string())?;
    }
    let stats = sealed_rounds.stats();
    eprintln!(
        "sealed {} rounds from {} events ({} late, {} rejected; peak queue depth {}) \
         in {:?}; user-level budget {}",
        stats.rounds_sealed,
        stats.events,
        stats.late_events,
        stats.rejected_events,
        stats.peak_queue_depth,
        start.elapsed(),
        engine.budget().spent(),
    );

    let schedule = engine.schedule();
    wiring.serve_queries(flags, schedule, family.max_b, horizon.min(3), query_target)?;
    wiring.finish(&mut engine)
}

/// The `stats` subcommand: parse a `--metrics` JSONL dump back and print
/// a summary. Malformed JSON (or a line that is not an object with a
/// known `type`) is an error — this doubles as the CI well-formedness
/// check on the exporter.
fn run_stats(flags: &Flags) -> Result<(), String> {
    check_flags(flags, "stats")?;
    let path = flags.get("metrics").ok_or("--metrics is required")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut counters: Vec<(String, u64)> = Vec::new();
    let mut gauges: Vec<(String, i64)> = Vec::new();
    let mut histograms: Vec<(String, u64, f64, f64, f64)> = Vec::new();
    let mut budget_events = 0usize;
    let mut last_spend: HashMap<String, f64> = HashMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let parse_err = |what: &str| format!("{path}:{}: {what}: {line:?}", lineno + 1);
        let value: serde_json::Value =
            serde_json::from_str(line).map_err(|e| parse_err(&format!("invalid JSON ({e})")))?;
        let kind = value
            .get("type")
            .and_then(serde_json::Value::as_str)
            .ok_or_else(|| parse_err("missing \"type\""))?
            .to_string();
        let name = || -> Result<String, String> {
            Ok(value
                .get("name")
                .and_then(serde_json::Value::as_str)
                .ok_or_else(|| parse_err("missing \"name\""))?
                .to_string())
        };
        let num = |field: &str| -> Result<f64, String> {
            value
                .get(field)
                .and_then(serde_json::Value::as_f64)
                .ok_or_else(|| parse_err(&format!("missing numeric {field:?}")))
        };
        match kind.as_str() {
            "counter" => counters.push((name()?, num("value")? as u64)),
            "gauge" => gauges.push((name()?, num("value")? as i64)),
            "histogram" => histograms.push((
                name()?,
                num("count")? as u64,
                num("p50")?,
                num("p95")?,
                num("p99")?,
            )),
            "budget_event" => {
                budget_events += 1;
                let level = value
                    .get("level")
                    .and_then(serde_json::Value::as_str)
                    .ok_or_else(|| parse_err("missing \"level\""))?;
                last_spend.insert(level.to_string(), num("spent_after")?);
            }
            other => return Err(parse_err(&format!("unknown type {other:?}"))),
        }
    }
    println!("metrics from {path}:");
    for (name, value) in &counters {
        println!("  counter    {name} = {value}");
    }
    for (name, value) in &gauges {
        println!("  gauge      {name} = {value}");
    }
    for (name, count, p50, p95, p99) in &histograms {
        println!("  histogram  {name}: count={count} p50={p50:.3}ms p95={p95:.3}ms p99={p99:.3}ms");
    }
    let counter_of = |target: &str| {
        counters
            .iter()
            .find(|(name, _)| name == target)
            .map(|(_, v)| *v)
    };
    let gauge_of = |target: &str| {
        gauges
            .iter()
            .find(|(name, _)| name == target)
            .map(|(_, v)| *v)
    };
    let late_events = counter_of("ingest_late_events_total");
    if let Some(events) = counter_of("ingest_events_total") {
        println!(
            "  ingest: {events} events ({} late), {} rounds sealed; \
             peak queue depth {}, watermark lag {} ms",
            late_events.unwrap_or(0),
            counter_of("ingest_rounds_sealed_total").unwrap_or(0),
            gauge_of("ingest_queue_peak_depth").unwrap_or(0),
            gauge_of("ingest_watermark_lag_ms").unwrap_or(0),
        );
    }
    let panics = counter_of("pool_worker_panics").unwrap_or(0);
    println!("  worker panics swallowed: {panics}");
    if budget_events > 0 {
        let mut levels: Vec<_> = last_spend.iter().collect();
        levels.sort_by(|a, b| a.0.cmp(b.0));
        let spent: Vec<String> = levels
            .iter()
            .map(|(level, rho)| format!("{level} level {rho}"))
            .collect();
        println!(
            "  budget ledger: {budget_events} events; final spend: {}",
            spent.join(", ")
        );
    }
    if panics > 0 {
        return Err(format!(
            "{panics} worker panic(s) were swallowed during the run"
        ));
    }
    // CI smoke contract: a drop-policy ingest run must lose nothing, so
    // any late-dropped event fails the check loudly instead of silently
    // shrinking the released counts.
    if flags.contains_key("fail-on-late") {
        let late = late_events.unwrap_or(0);
        if late > 0 {
            return Err(format!(
                "{late} late event(s) were dropped during the run \
                 (ingest_late_events_total > 0)"
            ));
        }
    }
    Ok(())
}

fn run_simulate(flags: &Flags) -> Result<(), String> {
    check_flags(flags, "simulate")?;
    let households: usize = get_parsed(flags, "households", 23_374)?;
    let months: usize = get_parsed(flags, "months", 12)?;
    let seed: u64 = get_parsed(flags, "seed", 2021)?;
    let mut config = SippConfig::small(households);
    config.months = months;
    let panel = config.simulate(&mut rng_from_seed(seed));
    let mut out = open_output(flags, "output")?.ok_or("--output is required")?;
    let rows: Vec<_> = (0..panel.individuals())
        .map(|i| panel.row(i, months - 1))
        .collect();
    write_panel_csv(&mut out, rows.into_iter(), months, None).map_err(|e| e.to_string())?;
    eprintln!("wrote {households} x {months} simulated SIPP panel");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags_of(pairs: &[(&str, &str)]) -> Flags {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn flag_parsing() {
        let args: Vec<String> = ["--rho", "0.01", "--sipp", "--fail-on-late", "--seed", "7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let flags = parse_flags(&args).unwrap();
        assert_eq!(flags["rho"], "0.01");
        assert_eq!(flags["sipp"], "true");
        assert_eq!(flags["fail-on-late"], "true");
        assert_eq!(flags["seed"], "7");
        // Errors.
        assert!(parse_flags(&["positional".to_string()]).is_err());
        assert!(parse_flags(&["--rho".to_string()]).is_err());
    }

    #[test]
    fn get_parsed_defaults_and_errors() {
        let flags = flags_of(&[("window", "5"), ("bad", "xyz")]);
        assert_eq!(get_parsed(&flags, "window", 3usize).unwrap(), 5);
        assert_eq!(get_parsed(&flags, "missing", 3usize).unwrap(), 3);
        assert!(get_parsed::<usize>(&flags, "bad", 3).is_err());
    }

    #[test]
    fn end_to_end_simulate_synthesize_estimate() {
        let dir = std::env::temp_dir().join("longsynth_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let panel = dir.join("panel.csv");
        let synth = dir.join("synth.csv");
        let est = dir.join("est.csv");

        run_simulate(&flags_of(&[
            ("households", "500"),
            ("months", "8"),
            ("output", panel.to_str().unwrap()),
        ]))
        .unwrap();

        run_fixed_window(&flags_of(&[
            ("input", panel.to_str().unwrap()),
            ("rho", "0.05"),
            ("window", "2"),
            ("output", synth.to_str().unwrap()),
            ("estimates", est.to_str().unwrap()),
        ]))
        .unwrap();

        // The released panel parses back and has the padding column.
        let text = std::fs::read_to_string(&synth).unwrap();
        assert!(text.starts_with("round_1,"));
        assert!(text.lines().next().unwrap().ends_with("padding"));
        // Estimates cover every released round.
        let est_text = std::fs::read_to_string(&est).unwrap();
        assert!(est_text.lines().count() > 7 * 4); // 7 rounds x 4 queries + header

        run_cumulative(&flags_of(&[
            ("input", panel.to_str().unwrap()),
            ("rho", "0.05"),
            ("estimates", est.to_str().unwrap()),
        ]))
        .unwrap();
        let cum_text = std::fs::read_to_string(&est).unwrap();
        assert!(cum_text.starts_with("round,threshold_b"));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_required_flags_error() {
        assert!(run_fixed_window(&Flags::new()).is_err());
        assert!(run_cumulative(&Flags::new()).is_err());
        assert!(run_simulate(&Flags::new()).is_err());
        assert!(run_engine(&Flags::new()).is_err());
        assert!(run_serve(&Flags::new()).is_err());
        let flags = flags_of(&[("rho", "0.01")]);
        assert!(run_fixed_window(&flags).unwrap_err().contains("--input"));
        assert!(run_engine(&flags).unwrap_err().contains("--shards"));
        assert!(run_serve(&flags).unwrap_err().contains("--shards"));
    }

    #[test]
    fn end_to_end_serve_run() {
        let dir = std::env::temp_dir().join("longsynth_cli_serve_test");
        std::fs::create_dir_all(&dir).unwrap();
        let panel = dir.join("panel.csv");
        let snapshot = dir.join("store.json");

        run_simulate(&flags_of(&[
            ("households", "400"),
            ("months", "6"),
            ("output", panel.to_str().unwrap()),
        ]))
        .unwrap();

        // Cumulative serving run with snapshot verification.
        run_serve(&flags_of(&[
            ("input", panel.to_str().unwrap()),
            ("rho", "0.05"),
            ("shards", "2"),
            ("queries", "200"),
            ("pool-threads", "2"),
            ("snapshot", snapshot.to_str().unwrap()),
        ]))
        .unwrap();
        let json = std::fs::read_to_string(&snapshot).unwrap();
        assert!(json.contains("longsynth-release-store/v4"));
        assert!(json.contains("per-shard"));

        // Fixed-window serving run under shared-noise aggregation: the
        // snapshot carries the shared tag.
        run_serve(&flags_of(&[
            ("input", panel.to_str().unwrap()),
            ("rho", "0.05"),
            ("shards", "2"),
            ("algorithm", "fixed-window"),
            ("window", "2"),
            ("queries", "100"),
            ("aggregation", "shared"),
            ("snapshot", snapshot.to_str().unwrap()),
        ]))
        .unwrap();
        let json = std::fs::read_to_string(&snapshot).unwrap();
        assert!(json.contains("\"shared\""));

        // Unknown aggregation policy errors cleanly.
        assert!(run_serve(&flags_of(&[
            ("input", panel.to_str().unwrap()),
            ("rho", "0.05"),
            ("shards", "2"),
            ("aggregation", "nope"),
        ]))
        .is_err());

        // Unknown algorithm errors cleanly.
        assert!(run_serve(&flags_of(&[
            ("input", panel.to_str().unwrap()),
            ("rho", "0.05"),
            ("shards", "2"),
            ("algorithm", "nope"),
        ]))
        .is_err());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn end_to_end_rotating_panel_run() {
        let dir = std::env::temp_dir().join("longsynth_cli_rotating_test");
        std::fs::create_dir_all(&dir).unwrap();
        let panel = dir.join("panel.csv");
        let est = dir.join("est.csv");
        let snapshot = dir.join("store.json");

        run_simulate(&flags_of(&[
            ("households", "420"),
            ("months", "8"),
            ("output", panel.to_str().unwrap()),
        ]))
        .unwrap();

        // Rotating engine run: 3 waves, cumulative estimates come out.
        run_engine(&flags_of(&[
            ("input", panel.to_str().unwrap()),
            ("rho", "0.1"),
            ("shards", "1"),
            ("algorithm", "cumulative"),
            ("panel", "rotating:3"),
            ("estimates", est.to_str().unwrap()),
        ]))
        .unwrap();
        let est_text = std::fs::read_to_string(&est).unwrap();
        assert!(est_text.starts_with("round,threshold_b"));
        assert!(est_text.lines().count() > 8);

        // Rotating engine run under shared noise: the windowed population
        // synthesizer serves the active-set estimates.
        run_engine(&flags_of(&[
            ("input", panel.to_str().unwrap()),
            ("rho", "0.1"),
            ("shards", "1"),
            ("algorithm", "cumulative"),
            ("panel", "rotating:3"),
            ("aggregation", "shared"),
            ("estimates", est.to_str().unwrap()),
        ]))
        .unwrap();
        let est_text = std::fs::read_to_string(&est).unwrap();
        assert!(est_text.starts_with("round,threshold_b"));

        // More waves than rounds is a schedule error, not a silent clamp.
        let err = run_engine(&flags_of(&[
            ("input", panel.to_str().unwrap()),
            ("rho", "0.1"),
            ("shards", "1"),
            ("algorithm", "cumulative"),
            ("panel", "rotating:40"),
        ]))
        .unwrap_err();
        assert!(err.contains("does not fit"), "{err}");

        // Rotating serve run with a v4 snapshot.
        run_serve(&flags_of(&[
            ("input", panel.to_str().unwrap()),
            ("rho", "0.1"),
            ("shards", "1"),
            ("algorithm", "cumulative"),
            ("panel", "rotating:2"),
            ("queries", "150"),
            ("pool-threads", "2"),
            ("snapshot", snapshot.to_str().unwrap()),
        ]))
        .unwrap();
        let json = std::fs::read_to_string(&snapshot).unwrap();
        assert!(json.contains("longsynth-release-store/v4"));
        assert!(json.contains("\"dynamic\": true") || json.contains("\"dynamic\":true"));

        // Rotating + shared serve run: the population releases land in
        // the store with coverage metadata and the shared tag.
        run_serve(&flags_of(&[
            ("input", panel.to_str().unwrap()),
            ("rho", "0.1"),
            ("shards", "1"),
            ("algorithm", "cumulative"),
            ("panel", "rotating:2"),
            ("aggregation", "shared"),
            ("queries", "120"),
            ("pool-threads", "2"),
            ("snapshot", snapshot.to_str().unwrap()),
        ]))
        .unwrap();
        let json = std::fs::read_to_string(&snapshot).unwrap();
        assert!(json.contains("\"shared\""));
        assert!(json.contains("coverage"));

        // Guard rails: rotating needs the cumulative algorithm; --output
        // is refused (ragged merged panel); malformed specs error.
        assert!(run_engine(&flags_of(&[
            ("input", panel.to_str().unwrap()),
            ("rho", "0.1"),
            ("shards", "1"),
            ("panel", "rotating:3"),
        ]))
        .unwrap_err()
        .contains("cumulative"));
        assert!(run_engine(&flags_of(&[
            ("input", panel.to_str().unwrap()),
            ("rho", "0.1"),
            ("shards", "1"),
            ("algorithm", "cumulative"),
            ("panel", "rotating:3"),
            ("output", est.to_str().unwrap()),
        ]))
        .unwrap_err()
        .contains("ragged"));
        for bad in ["rotating:0", "rotating:x", "weekly"] {
            assert!(run_engine(&flags_of(&[
                ("input", panel.to_str().unwrap()),
                ("rho", "0.1"),
                ("shards", "1"),
                ("algorithm", "cumulative"),
                ("panel", bad),
            ]))
            .is_err());
        }
        // `serve` has no --eviction flag.
        assert!(run_serve(&flags_of(&[
            ("input", panel.to_str().unwrap()),
            ("rho", "0.1"),
            ("shards", "1"),
            ("eviction", "random"),
        ]))
        .unwrap_err()
        .contains("does not accept --eviction"));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn end_to_end_metrics_run_and_stats() {
        let dir = std::env::temp_dir().join("longsynth_cli_metrics_test");
        std::fs::create_dir_all(&dir).unwrap();
        let panel = dir.join("panel.csv");
        let metrics = dir.join("metrics.jsonl");

        run_simulate(&flags_of(&[
            ("households", "300"),
            ("months", "6"),
            ("output", panel.to_str().unwrap()),
        ]))
        .unwrap();

        // Instrumented engine run: JSONL + Prometheus dumps appear.
        run_engine(&flags_of(&[
            ("input", panel.to_str().unwrap()),
            ("rho", "0.05"),
            ("shards", "2"),
            ("algorithm", "cumulative"),
            ("metrics", metrics.to_str().unwrap()),
        ]))
        .unwrap();
        let jsonl = std::fs::read_to_string(&metrics).unwrap();
        // Every line is a standalone JSON object the vendored parser
        // accepts — the exporter's well-formedness contract.
        for line in jsonl.lines() {
            let value: serde_json::Value = serde_json::from_str(line).unwrap();
            assert!(value.get("type").is_some(), "{line}");
        }
        assert!(jsonl.contains("\"engine_rounds_total\""));
        assert!(jsonl.contains("\"budget_event\""));
        let prom = std::fs::read_to_string(metrics.with_extension("prom")).unwrap();
        assert!(prom.contains("# TYPE engine_round_ms histogram"));
        assert!(prom.contains("engine_rounds_total 6"));

        // `stats` reads the dump back (and would exit nonzero on
        // malformed input or swallowed panics).
        run_stats(&flags_of(&[("metrics", metrics.to_str().unwrap())])).unwrap();
        assert!(run_stats(&flags_of(&[("metrics", "/nonexistent/x.jsonl")])).is_err());
        let bad = dir.join("bad.jsonl");
        std::fs::write(&bad, "not json\n").unwrap();
        assert!(run_stats(&flags_of(&[("metrics", bad.to_str().unwrap())])).is_err());

        // Instrumented serve run: one registry covers engine, pool, and
        // serving-layer counters.
        run_serve(&flags_of(&[
            ("input", panel.to_str().unwrap()),
            ("rho", "0.05"),
            ("shards", "2"),
            ("queries", "100"),
            ("pool-threads", "2"),
            ("metrics", metrics.to_str().unwrap()),
        ]))
        .unwrap();
        let jsonl = std::fs::read_to_string(&metrics).unwrap();
        for name in [
            "engine_rounds_total",
            "pool_tasks_total",
            "pool_worker_panics",
            "serve_ingest_rounds_total",
        ] {
            assert!(jsonl.contains(&format!("\"{name}\"")), "{name} missing");
        }
        run_stats(&flags_of(&[("metrics", metrics.to_str().unwrap())])).unwrap();

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn end_to_end_ingest_run_and_stats() {
        let dir = std::env::temp_dir().join("longsynth_cli_ingest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let metrics = dir.join("metrics.jsonl");

        run_ingest(&flags_of(&[
            ("rho", "0.05"),
            ("individuals", "400"),
            ("rounds", "6"),
            ("shards", "2"),
            ("producers", "2"),
            ("queue-cap", "128"),
            ("queries", "100"),
            ("pool-threads", "2"),
            ("metrics", metrics.to_str().unwrap()),
        ]))
        .unwrap();
        let jsonl = std::fs::read_to_string(&metrics).unwrap();
        for name in [
            "ingest_events_total",
            "ingest_late_events_total",
            "ingest_rounds_sealed_total",
            "ingest_queue_depth",
            "ingest_queue_peak_depth",
            "ingest_watermark_lag_ms",
            "ingest_seal_ms",
            "engine_rounds_total",
            "serve_ingest_rounds_total",
        ] {
            assert!(jsonl.contains(&format!("\"{name}\"")), "{name} missing");
        }
        // The backpressure bound is visible in the dump: the queue's
        // high-water mark never exceeded the configured cap.
        let peak_line = jsonl
            .lines()
            .find(|line| line.contains("ingest_queue_peak_depth"))
            .unwrap();
        let peak: serde_json::Value = serde_json::from_str(peak_line).unwrap();
        let peak = peak
            .get("value")
            .and_then(serde_json::Value::as_f64)
            .unwrap();
        assert!((0.0..=128.0).contains(&peak), "peak {peak} exceeds cap");

        // Drop-policy smoke: nothing was lost, --fail-on-late passes.
        run_stats(&flags_of(&[
            ("metrics", metrics.to_str().unwrap()),
            ("fail-on-late", "true"),
        ]))
        .unwrap();

        // A dump recording late drops fails the check — and only the
        // check (plain stats still succeeds).
        let late = dir.join("late.jsonl");
        std::fs::write(
            &late,
            "{\"type\": \"counter\", \"name\": \"ingest_late_events_total\", \"value\": 3}\n",
        )
        .unwrap();
        run_stats(&flags_of(&[("metrics", late.to_str().unwrap())])).unwrap();
        let err = run_stats(&flags_of(&[
            ("metrics", late.to_str().unwrap()),
            ("fail-on-late", "true"),
        ]))
        .unwrap_err();
        assert!(err.contains("late event"), "{err}");

        // Sliding windows and a grace period run end to end too.
        run_ingest(&flags_of(&[
            ("rho", "0.05"),
            ("individuals", "200"),
            ("rounds", "4"),
            ("window", "120000:60000"),
            ("late-policy", "grace:5000"),
            ("queries", "50"),
        ]))
        .unwrap();

        // Malformed specs error cleanly.
        assert!(run_ingest(&Flags::new()).is_err());
        for (key, value) in [
            ("window", "0"),
            ("window", "60000:x"),
            ("late-policy", "sometimes"),
            ("late-policy", "grace:-1"),
        ] {
            assert!(
                run_ingest(&flags_of(&[("rho", "0.05"), (key, value)])).is_err(),
                "{key}={value} should be rejected"
            );
        }

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn end_to_end_engine_run() {
        let dir = std::env::temp_dir().join("longsynth_cli_engine_test");
        std::fs::create_dir_all(&dir).unwrap();
        let panel = dir.join("panel.csv");
        let synth = dir.join("synth.csv");
        let est = dir.join("est.csv");

        run_simulate(&flags_of(&[
            ("households", "600"),
            ("months", "8"),
            ("output", panel.to_str().unwrap()),
        ]))
        .unwrap();

        // Sharded fixed-window run: merged panel and estimates come out.
        run_engine(&flags_of(&[
            ("input", panel.to_str().unwrap()),
            ("rho", "0.05"),
            ("shards", "3"),
            ("window", "2"),
            ("output", synth.to_str().unwrap()),
            ("estimates", est.to_str().unwrap()),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&synth).unwrap();
        assert!(text.starts_with("round_1,"));
        assert!(text.lines().next().unwrap().ends_with("padding"));
        let est_text = std::fs::read_to_string(&est).unwrap();
        assert!(est_text.lines().count() > 7 * 4);

        // Sharded cumulative run over the same panel.
        run_engine(&flags_of(&[
            ("input", panel.to_str().unwrap()),
            ("rho", "0.05"),
            ("shards", "2"),
            ("algorithm", "cumulative"),
            ("output", synth.to_str().unwrap()),
            ("estimates", est.to_str().unwrap()),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&synth).unwrap();
        // Cumulative engine keeps m = n merged records.
        assert_eq!(text.lines().count(), 601); // header + 600 rows
        let est_text = std::fs::read_to_string(&est).unwrap();
        assert!(est_text.starts_with("round,threshold_b"));

        // Shared-noise runs for both algorithms.
        run_engine(&flags_of(&[
            ("input", panel.to_str().unwrap()),
            ("rho", "0.05"),
            ("shards", "3"),
            ("window", "2"),
            ("aggregation", "shared"),
            ("output", synth.to_str().unwrap()),
            ("estimates", est.to_str().unwrap()),
        ]))
        .unwrap();
        let est_text = std::fs::read_to_string(&est).unwrap();
        assert!(est_text.lines().count() > 7 * 4);
        run_engine(&flags_of(&[
            ("input", panel.to_str().unwrap()),
            ("rho", "0.05"),
            ("shards", "2"),
            ("algorithm", "cumulative"),
            ("aggregation", "shared:0.9"),
            ("output", synth.to_str().unwrap()),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&synth).unwrap();
        assert_eq!(text.lines().count(), 601);

        // Unknown aggregation policy errors cleanly.
        assert!(run_engine(&flags_of(&[
            ("input", panel.to_str().unwrap()),
            ("rho", "0.05"),
            ("shards", "2"),
            ("aggregation", "nope"),
        ]))
        .is_err());

        // Unknown algorithm errors cleanly.
        assert!(run_engine(&flags_of(&[
            ("input", panel.to_str().unwrap()),
            ("rho", "0.05"),
            ("shards", "2"),
            ("algorithm", "nope"),
        ]))
        .is_err());

        std::fs::remove_dir_all(&dir).ok();
    }

    /// FNV-1a, 64-bit: a dependency-free digest for pinning file bytes.
    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Every artifact the panel commands write, digested and compared
    /// against constants captured before the CLI's run paths were merged:
    /// a refactor of the CLI must not change one released byte.
    #[test]
    fn cli_outputs_are_byte_pinned() {
        let dir = std::env::temp_dir().join("longsynth_cli_pinned_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let (panel, output, estimates, snapshot) = (
            path("panel.csv"),
            path("out.csv"),
            path("est.csv"),
            path("store.json"),
        );
        run_simulate(&flags_of(&[
            ("households", "400"),
            ("months", "6"),
            ("seed", "7"),
            ("output", &panel),
        ]))
        .unwrap();
        let digest = |file: &str| fnv1a64(&std::fs::read(file).unwrap());
        let mut digests: Vec<(String, u64)> = Vec::new();

        for command in ["fixed-window", "cumulative"] {
            let flags = flags_of(&[
                ("input", &panel),
                ("rho", "0.1"),
                ("output", &output),
                ("estimates", &estimates),
            ]);
            match command {
                "fixed-window" => run_fixed_window(&flags),
                _ => run_cumulative(&flags),
            }
            .unwrap();
            digests.push((format!("{command} output"), digest(&output)));
            digests.push((format!("{command} estimates"), digest(&estimates)));
        }
        for algorithm in ["fixed-window", "cumulative"] {
            for aggregation in ["per-shard", "shared"] {
                run_engine(&flags_of(&[
                    ("input", &panel),
                    ("rho", "0.1"),
                    ("shards", "3"),
                    ("algorithm", algorithm),
                    ("aggregation", aggregation),
                    ("output", &output),
                    ("estimates", &estimates),
                ]))
                .unwrap();
                let label = format!("engine {algorithm} {aggregation}");
                digests.push((format!("{label} output"), digest(&output)));
                digests.push((format!("{label} estimates"), digest(&estimates)));
            }
        }
        for aggregation in ["per-shard", "shared"] {
            run_engine(&flags_of(&[
                ("input", &panel),
                ("rho", "0.1"),
                ("shards", "1"),
                ("algorithm", "cumulative"),
                ("panel", "rotating:3"),
                ("aggregation", aggregation),
                ("estimates", &estimates),
            ]))
            .unwrap();
            let label = format!("engine rotating:3 {aggregation} estimates");
            digests.push((label, digest(&estimates)));
        }
        for (algorithm, panel_kind, aggregation) in [
            ("fixed-window", "static", "per-shard"),
            ("cumulative", "static", "shared"),
            ("cumulative", "rotating:3", "per-shard"),
            ("cumulative", "rotating:3", "shared"),
        ] {
            run_serve(&flags_of(&[
                ("input", &panel),
                ("rho", "0.1"),
                ("shards", "3"),
                ("algorithm", algorithm),
                ("panel", panel_kind),
                ("aggregation", aggregation),
                ("queries", "50"),
                ("pool-threads", "2"),
                ("snapshot", &snapshot),
            ]))
            .unwrap();
            let label = format!("serve {algorithm} {panel_kind} {aggregation} snapshot");
            digests.push((label, digest(&snapshot)));
        }
        for aggregation in ["per-shard", "shared"] {
            run_ingest(&flags_of(&[
                ("rho", "0.1"),
                ("individuals", "300"),
                ("rounds", "5"),
                ("shards", "2"),
                ("producers", "3"),
                ("aggregation", aggregation),
                ("queries", "50"),
                ("pool-threads", "2"),
                ("snapshot", &snapshot),
            ]))
            .unwrap();
            digests.push((format!("ingest {aggregation} snapshot"), digest(&snapshot)));
        }

        let expected = [
            ("fixed-window output", 0x14074f0a8628f2a4),
            ("fixed-window estimates", 0x333dacb36aabc7f1),
            ("cumulative output", 0x2eeb9af75493a1a9),
            ("cumulative estimates", 0x827401db3a27292c),
            ("engine fixed-window per-shard output", 0x0319179cbb0fd637),
            (
                "engine fixed-window per-shard estimates",
                0xc1f5aad92a6d9ab8,
            ),
            ("engine fixed-window shared output", 0xe3ab4c4d25f9c860),
            ("engine fixed-window shared estimates", 0x770e5e41a7b548f9),
            ("engine cumulative per-shard output", 0x850a8470a548eb21),
            ("engine cumulative per-shard estimates", 0xb20e87745973790d),
            ("engine cumulative shared output", 0x1aab18e794461809),
            ("engine cumulative shared estimates", 0xc6368026d21182e7),
            ("engine rotating:3 per-shard estimates", 0x34b6347a870b805a),
            ("engine rotating:3 shared estimates", 0x865cbb07f92be58d),
            (
                "serve fixed-window static per-shard snapshot",
                0x0dffa2837324d8d4,
            ),
            (
                "serve cumulative static shared snapshot",
                0xac4781a880c7db4f,
            ),
            (
                "serve cumulative rotating:3 per-shard snapshot",
                0xd25723ed9d42bf2a,
            ),
            (
                "serve cumulative rotating:3 shared snapshot",
                0x99e049bd6a87797a,
            ),
            ("ingest per-shard snapshot", 0x983ed8b4676e29f8),
            ("ingest shared snapshot", 0x60b83205375ff4b7),
        ];
        let digests: Vec<(&str, u64)> = digests.iter().map(|(l, d)| (l.as_str(), *d)).collect();
        assert_eq!(digests, expected, "{digests:#x?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let dir = std::env::temp_dir().join("longsynth_cli_flags_test");
        std::fs::create_dir_all(&dir).unwrap();
        let panel = dir.join("panel.csv");
        let panel = panel.to_str().unwrap();
        run_simulate(&flags_of(&[
            ("households", "120"),
            ("months", "4"),
            ("output", panel),
        ]))
        .unwrap();

        // A misspelt flag is an error naming the flag and the command,
        // not a silent fall-back to the default.
        let err = run_cumulative(&flags_of(&[
            ("input", panel),
            ("rho", "0.1"),
            ("seeds", "9"),
        ]))
        .unwrap_err();
        assert!(
            err.contains("--seeds") && err.contains("cumulative"),
            "{err}"
        );
        // `ingest` always runs the cumulative family: it takes no
        // --algorithm.
        let err =
            run_ingest(&flags_of(&[("rho", "0.1"), ("algorithm", "fixed-window")])).unwrap_err();
        assert!(
            err.contains("--algorithm") && err.contains("ingest"),
            "{err}"
        );
        for command in ["stats", "simulate"] {
            let flags = flags_of(&[("bogus", "1")]);
            let err = match command {
                "stats" => run_stats(&flags),
                _ => run_simulate(&flags),
            }
            .unwrap_err();
            assert!(err.contains("--bogus") && err.contains(command), "{err}");
        }

        // A rotating panel's cohort count is W+T-1: --shards is not
        // required there.
        run_engine(&flags_of(&[
            ("input", panel),
            ("rho", "0.1"),
            ("algorithm", "cumulative"),
            ("panel", "rotating:2"),
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Each command's USAGE block: the line naming it plus its indented
    /// continuation lines.
    fn usage_flags(command: &str) -> Vec<String> {
        let mut lines = USAGE.lines().skip_while(|line| {
            line.split_whitespace().take(2).collect::<Vec<_>>() != ["longsynth-cli", command]
        });
        let first = lines
            .next()
            .unwrap_or_else(|| panic!("no USAGE block for {command}"));
        let block = std::iter::once(first).chain(lines.take_while(|line| {
            line.starts_with("     ") && !line.trim_start().starts_with("longsynth-cli")
        }));
        let mut flags: Vec<String> = block
            .flat_map(|line| line.split("--").skip(1))
            .map(|rest| {
                rest.chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
            })
            .map(String::from_iter)
            .collect();
        flags.sort();
        flags
    }

    #[test]
    fn usage_lists_exactly_the_accepted_flags() {
        for command in [
            "fixed-window",
            "cumulative",
            "engine",
            "serve",
            "ingest",
            "stats",
            "simulate",
        ] {
            let mut accepted: Vec<String> = accepted_flags(command)
                .split_whitespace()
                .map(String::from)
                .collect();
            accepted.sort();
            assert_eq!(usage_flags(command), accepted, "USAGE block of {command}");
        }
    }
}
