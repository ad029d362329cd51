//! Measurement plumbing shared by the workloads: the process CPU clock,
//! the correctness gate, a timing wrapper around the serving layer's
//! release sink, and the reader that answers each round's refresh battery.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use longsynth::Release;
use longsynth_data::BitColumn;
use longsynth_engine::{PolicyTag, ReleaseSink};
use longsynth_serve::{QueryService, ServeQuery};

use crate::trace::Tracer;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

fn read_clock(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time this process has used, its exited threads included. Only
/// exact while no other thread is running: a thread running on another
/// CPU adds the time since its last scheduler tick only later.
pub fn process_cpu() -> Duration {
    read_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// The clock ids of the threads [`cpu_now`] sums, with their thread ids.
static WATCHED: Mutex<Vec<(i32, i32)>> = Mutex::new(Vec::new());

fn thread_ids() -> Vec<i32> {
    let mut tids: Vec<i32> = std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists this process's threads")
        .filter_map(|entry| entry.ok()?.file_name().to_str()?.parse().ok())
        .collect();
    tids.sort_unstable();
    tids
}

/// Makes [`cpu_now`] sum the CPU clocks of the threads this process has
/// now. Call it once a pass's threads exist, before its timed loop.
pub fn watch_threads() {
    // Linux's per-thread CPU clock id: the inverted thread id above the
    // `CPUCLOCK_PERTHREAD | CPUCLOCK_SCHED` bits.
    let clocks = thread_ids().into_iter().map(|tid| ((!tid) << 3 | 6, tid));
    *WATCHED.lock().expect("clock list lock never poisoned") = clocks.collect();
}

/// Whether the process still has exactly the threads [`watch_threads`]
/// saw; a thread started since would be missing from every interval.
pub fn threads_unchanged() -> bool {
    let watched = WATCHED.lock().expect("clock list lock never poisoned");
    thread_ids() == watched.iter().map(|&(_, tid)| tid).collect::<Vec<_>>()
}

/// CPU time the watched threads have used. Every interval of a pass's
/// timed loop is read on this clock: the workloads keep one thread busy at
/// a time, so an interval's CPU time is its wall time on a core of its
/// own. Time the hypervisor steals from the virtual CPU, or another
/// process takes from it, does not count (the kernel's paravirtual steal
/// accounting keeps stolen time out of task run time). Unlike
/// [`process_cpu`], a thread's clock includes its current slice, so a
/// pool worker's step is counted in full the moment it hands back.
pub fn cpu_now() -> Duration {
    let watched = WATCHED.lock().expect("clock list lock never poisoned");
    watched.iter().map(|&(clock, _)| read_clock(clock)).sum()
}

/// Operations attempted and failed in one pass, with the first few reasons.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Gate {
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn fail(&mut self, n: u64, why: impl Into<String>) {
        self.failed += n;
        if self.reasons.len() < 8 {
            self.reasons.push(why.into());
        }
    }

    pub fn absorb(&mut self, other: Gate) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for why in other.reasons {
            if self.reasons.len() < 8 {
                self.reasons.push(why);
            }
        }
    }
}

/// A release the digest can fold, and whether the round released
/// anything (fixed-window rounds before the first full window do not).
pub trait Released {
    fn fold_digest(&self, digest: &mut u64) -> bool;
}

fn fold_column(column: &BitColumn, digest: &mut u64) {
    *digest = fnv(*digest, column.len() as u64);
    for &word in column.as_words() {
        *digest = fnv(*digest, word);
    }
}

/// FNV-1a over the eight bytes of `word`.
fn fnv(mut hash: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

impl Released for BitColumn {
    fn fold_digest(&self, digest: &mut u64) -> bool {
        fold_column(self, digest);
        true
    }
}

impl Released for Release {
    fn fold_digest(&self, digest: &mut u64) -> bool {
        match self {
            Release::Buffered => false,
            Release::Initial(columns) => {
                for column in columns {
                    fold_column(column, digest);
                }
                true
            }
            Release::Update(column) => {
                fold_column(column, digest);
                true
            }
        }
    }
}

/// What the timing wrapper saw: per round, when the store ingest ran and
/// whether the round released data.
#[derive(Debug)]
pub struct SinkLog {
    pub ingest: Vec<Option<(Duration, Duration)>>,
    pub released: Vec<bool>,
    pub digest: u64,
}

impl SinkLog {
    pub fn new(rounds: usize) -> Arc<Mutex<Self>> {
        Arc::new(Mutex::new(Self {
            ingest: vec![None; rounds],
            released: vec![false; rounds],
            digest: DIGEST_SEED,
        }))
    }
}

/// Times the serving store's ingest of each round: the round is queryable
/// when the wrapped sink returns.
pub struct TimedSink<R> {
    inner: Box<dyn ReleaseSink<R>>,
    log: Arc<Mutex<SinkLog>>,
}

impl<R> TimedSink<R> {
    pub fn boxed(inner: Box<dyn ReleaseSink<R>>, log: &Arc<Mutex<SinkLog>>) -> Box<Self> {
        Box::new(Self {
            inner,
            log: Arc::clone(log),
        })
    }
}

impl<R: Released> TimedSink<R> {
    fn note(&self, round: usize, merged: &R, start: Duration, end: Duration) {
        let mut log = self.log.lock().expect("sink log lock never poisoned");
        if let Some(slot) = log.ingest.get_mut(round) {
            *slot = Some((start, end));
        }
        let mut digest = log.digest;
        digest = fnv(digest, round as u64);
        let released = merged.fold_digest(&mut digest);
        log.digest = digest;
        if let Some(slot) = log.released.get_mut(round) {
            *slot = released;
        }
    }
}

impl<R: Released> ReleaseSink<R> for TimedSink<R> {
    fn on_round(&mut self, round: usize, per_shard: &[R], merged: &R, policy: PolicyTag) {
        let start = cpu_now();
        self.inner.on_round(round, per_shard, merged, policy);
        self.note(round, merged, start, cpu_now());
    }

    fn on_round_active(
        &mut self,
        round: usize,
        cohorts: usize,
        active: &[usize],
        per_shard: &[R],
        merged: &R,
        policy: PolicyTag,
    ) {
        let start = cpu_now();
        self.inner
            .on_round_active(round, cohorts, active, per_shard, merged, policy);
        self.note(round, merged, start, cpu_now());
    }
}

/// Share of each round's answers that re-read an earlier answer: one
/// re-read per three fresh queries, rounded up.
const RE_READ_PER_FRESH: usize = 3;

/// Answers each round's refresh battery and checks every answer.
pub struct Reader {
    service: QueryService,
    answered: Vec<(ServeQuery, f64)>,
    rng: SplitMix64,
    pub refresh_ms: Vec<f64>,
}

impl Reader {
    pub fn new(service: QueryService, seed: u64) -> Self {
        Self {
            service,
            answered: Vec::new(),
            rng: SplitMix64(seed ^ 0x5EED_4EAD),
            refresh_ms: Vec::new(),
        }
    }

    /// Answers `fresh` (queries on the newest round, never asked before)
    /// and then re-reads earlier answers picked by the seeded generator;
    /// the whole battery is one refresh sample.
    pub fn refresh(
        &mut self,
        round: usize,
        fresh: Vec<ServeQuery>,
        tracer: &mut Tracer,
        gate: &mut Gate,
    ) {
        if fresh.is_empty() {
            return;
        }
        let start = cpu_now();
        let re_reads: Vec<usize> = if self.answered.is_empty() {
            Vec::new()
        } else {
            (0..fresh.len().div_ceil(RE_READ_PER_FRESH))
                .map(|_| self.rng.below(self.answered.len()))
                .collect()
        };
        for query in fresh {
            self.ask(round, query, None, tracer, gate);
        }
        for index in re_reads {
            let (query, value) = self.answered[index].clone();
            self.ask(round, query, Some(value), tracer, gate);
        }
        let end = cpu_now();
        self.refresh_ms.push((end - start).as_secs_f64() * 1e3);
        tracer.record("refresh", round, start, end);
    }

    fn ask(
        &mut self,
        round: usize,
        query: ServeQuery,
        earlier: Option<f64>,
        tracer: &mut Tracer,
        gate: &mut Gate,
    ) {
        gate.attempt(1);
        let hits_before = self.service.cache_stats().0;
        let start = cpu_now();
        let answer = self.service.answer(&query);
        let end = cpu_now();
        let span = if self.service.cache_stats().0 > hits_before {
            "serve.query_hit"
        } else {
            "serve.query_miss"
        };
        tracer.record(span, round, start, end);
        match answer {
            Err(e) => gate.fail(1, format!("round {round}: query {query:?} failed: {e}")),
            Ok(value) if !(0.0..=1.0).contains(&value) => gate.fail(
                1,
                format!("round {round}: query {query:?} answered {value}, outside [0, 1]"),
            ),
            Ok(value) => match earlier {
                Some(first) if first.to_bits() != value.to_bits() => gate.fail(
                    1,
                    format!("round {round}: re-read of {query:?} gave {value}, first {first}"),
                ),
                Some(_) => {}
                None => self.answered.push((query, value)),
            },
        }
    }
}

/// Small seeded generator for picking re-reads.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// The fastest of `reps` timings, in seconds, of a fixed piece of integer
/// work on an L1-resident table: the speed the host gives this process's
/// core right now. Only exact with one thread running (see
/// [`process_cpu`]), so call it between passes.
pub fn reference_kernel_s(reps: usize) -> f64 {
    let mut fastest = f64::INFINITY;
    for _ in 0..reps {
        let start = process_cpu();
        std::hint::black_box(reference_work(std::hint::black_box(REFERENCE_STEPS)));
        fastest = fastest.min((process_cpu() - start).as_secs_f64());
    }
    fastest
}

const REFERENCE_STEPS: u64 = 100_000;

/// Xorshift steps, each adding into one of 512 words picked by the state.
fn reference_work(steps: u64) -> u64 {
    let mut table = [0u64; 512];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x & 511) as usize;
        table[slot] = table[slot].wrapping_add(x);
    }
    table.iter().fold(0, |acc, &word| acc ^ word)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
