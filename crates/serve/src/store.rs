//! [`ReleaseStore`]: the append-only archive of everything the engine has
//! released.
//!
//! The store keeps one growing synthetic panel per cohort (shard), and the
//! merged population-level release where the cohorts do not already hold
//! it. Panels grow strictly by appending columns — released prefixes are
//! never rewritten, mirroring the persistent-record guarantee of the
//! synthesizers themselves. That immutability is what lets the store keep
//! each released round's statistics once, and keeps the snapshot format
//! trivial.
//!
//! Ingestion accepts the two release shapes the engine produces:
//! [`BitColumn`] rounds (cumulative family) via
//! [`ingest_columns`](ReleaseStore::ingest_columns), and fixed-window
//! [`Release`] rounds via
//! [`ingest_releases`](ReleaseStore::ingest_releases) (`Buffered` stores
//! nothing, `Initial` stores its k seed columns, `Update` stores one).
//!
//! Note on semantics: the store serves the *released synthetic data*, so a
//! fixed-window panel contains the n\* padded records the synthesizer
//! published; estimates computed from it are the plain synthetic-data
//! estimator (the debiased estimator needs the synthesizer's private
//! bookkeeping and is not a function of the release alone).
//!
//! Every round arrives tagged with the engine's [`PolicyTag`]: under
//! `PerShard` the merged release is the shard-order concatenation of the
//! stepping cohorts' columns (ingestion refuses any other merged column),
//! so the store keeps only the cohort panels and derives the merged
//! release from them; under `Shared` the merged release is an
//! *independent* population-level synthesis whose record count need not
//! match, so it is stored beside them (per-panel consistency and
//! contiguity still hold). The tag is recorded on first ingest, must stay
//! constant for the store's lifetime, and travels with snapshots.
//!
//! ## One model: cohorts × round ranges
//!
//! Every cohort covers a contiguous range of global rounds: cohort `c`
//! enters at round `e_c` and, in a rotating panel, retires after its
//! horizon. Its panel holds **local** rounds, so a cohort query at global
//! round `t` reads local round `t − e_c`. A static (lockstep) panel is the
//! schedule where every cohort enters at round 0 and steps in every round.
//! [`ingest_columns`](ReleaseStore::ingest_columns) and
//! [`ingest_releases`](ReleaseStore::ingest_releases) feed such lockstep
//! rounds, [`ingest_active_columns`](ReleaseStore::ingest_active_columns)
//! feeds scheduled ones (each round names its active cohorts), and all of
//! them — snapshot restore and delta replay included — run through one
//! validator.
//!
//! Every query reads a list of panels: a cohort scope its own, a merged
//! scope the cohorts. It sums each panel's integer statistic (a window
//! histogram, or a threshold count) and record count, and divides once.
//! Counts add across disjoint cohorts, so a per-shard merged answer is the
//! answer on the concatenated panel, bit for bit. The one real difference
//! between the two shapes is whether record `i` of the merged release is
//! the same individual in every round, fixed by the first ingested round:
//!
//! - **Static** (lockstep rounds): every cohort observes every window.
//!   Under shared noise the merged scope reads the stored population panel
//!   instead, an independent synthesis whose answers are *not* the pooled
//!   cohort answers.
//! - **Dynamic** (scheduled rounds — [`is_dynamic`](ReleaseStore::is_dynamic)):
//!   the merged record count varies with the active set, and record `i` of
//!   rounds `t` and `t+1` may be different individuals, so a merged window
//!   query only pools the cohorts that observed the whole window.
//!
//! The two ingestion families never mix in one store.
//!
//! Note on **shared-noise rotating** stores: merged-scope answers still
//! pool the covering cohorts' panels. The stored merged rounds are the
//! windowed population synthesizer's released columns, but reconstructing
//! *within-window* weights from them would need the synthesizer's private
//! reset bookkeeping (which record slots rotated out when) — the same
//! limitation as the fixed-window debiased estimator above. The
//! engine-side `population_synthesizer()` estimates remain the
//! single-draw accuracy product; the store records the columns, and
//! [`merged_coverage`](ReleaseStore::merged_coverage) names the cohorts
//! each one stands for so consumers can interpret them.
//!
//! ## Cumulative queries are lookups
//!
//! Every stored panel (each cohort's, and a static shared-noise population
//! panel) keeps its threshold counts `S_b^t` current as columns arrive,
//! through a [`ThresholdCounter`] fed by the same push that stores the
//! column. A `CumulativeFraction` miss then sums one count per panel it
//! reads, instead of walking the panels' history. The counts add 4 bytes
//! per record of a live panel (its running weights) and `8·(t+2)` bytes per
//! panel at round `t` (that round's counts). A cohort that has entered but
//! does not step in a scheduled round has retired, since it may never
//! resume: its weights are dropped and its counts kept. Snapshot restore
//! and delta replay run through the same ingest path, so they rebuild the
//! counts too, and the snapshot format carries none of them.
//!
//! ## Window queries read stored histograms
//!
//! A window or pattern query sums one window histogram per panel it reads.
//! Once round `t` is released its window histograms are as fixed as its
//! threshold counts, so every stored panel keeps the histogram of each
//! `(local round, width ≤ 6)` that has been read, in one flat buffer per
//! width. A histogram is built on its first read, never at ingest, so
//! release lag pays for no histogram nobody asked for; every later read
//! sums it from the buffer without allocating. A width-`k` histogram is
//! `8·2^k` bytes (64 at `k = 3`, 512 at `k = 6`), and a width's buffer
//! spans every round up to the latest one read at that width, so the
//! stored bytes grow linearly with the horizon. They are kept for the
//! panel's life, also after it retires. Wider windows are built on every
//! read and stored nowhere. The histograms are derived data: equality and
//! snapshots ignore them, and a restored store rebuilds them as it is read.

use longsynth::Release;
use longsynth_data::{BitColumn, LongitudinalDataset};
use longsynth_engine::PolicyTag;
use longsynth_queries::cumulative::ThresholdCounter;
use longsynth_queries::{window_histogram, WindowQuery};
use std::borrow::Cow;
use std::fmt;
use std::ops::Range;
#[cfg(test)]
use std::sync::Mutex;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::query::{QueryKind, ServeQuery};

/// Which stored panel a query targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreScope {
    /// The merged population-level release.
    Merged,
    /// One cohort's (shard's) release, by shard index.
    Cohort(usize),
}

impl fmt::Display for StoreScope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreScope::Merged => write!(f, "merged"),
            StoreScope::Cohort(c) => write!(f, "cohort {c}"),
        }
    }
}

/// Errors from the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The queried scope has no released rounds at all yet.
    NothingReleased(StoreScope),
    /// The queried round has not been released yet in that scope.
    RoundNotReleased {
        /// The scope queried.
        scope: StoreScope,
        /// The 0-based round asked for.
        round: usize,
        /// Rounds currently available (`0..available`).
        available: usize,
    },
    /// The cohort index is out of range.
    UnknownCohort {
        /// The cohort asked for.
        cohort: usize,
        /// Number of cohorts the store holds.
        cohorts: usize,
    },
    /// A window query of width `k` was asked at a round `t` with `t+1 < k`.
    WindowUnderflow {
        /// The 0-based round asked for.
        round: usize,
        /// The query's window width.
        width: usize,
    },
    /// A released round lies outside a cohort's covered range (before its
    /// entry, or after its retirement).
    RoundNotCovered {
        /// The scope queried.
        scope: StoreScope,
        /// The 0-based round asked for.
        round: usize,
        /// The rounds the scope actually covers.
        covered: Range<usize>,
    },
    /// A merged-scope window query over a dynamic store found no cohort
    /// observing the full window (every covering cohort entered mid-window
    /// or retired inside it).
    WindowNotCovered {
        /// The 0-based round asked for.
        round: usize,
        /// The query's window width.
        width: usize,
    },
    /// A window or pattern query of width 0 was asked: it names no
    /// rounds, so it has no answer.
    ZeroWidthQuery,
    /// The records the query reads number zero (a cohort or merged release
    /// of zero-length columns, or a ragged merged round whose observing
    /// cohorts are all empty), so no fraction of them is defined.
    EmptyScope {
        /// The scope queried.
        scope: StoreScope,
        /// The 0-based round asked for.
        round: usize,
    },
    /// A dynamic store was asked for a rectangular panel it cannot
    /// provide (the ragged merged release of a rotating panel).
    ScopeNotRectangular(StoreScope),
    /// An ingested round disagreed with the store's shape.
    IngestMismatch(String),
    /// A snapshot could not be parsed or failed validation.
    Snapshot(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::NothingReleased(scope) => {
                write!(f, "no rounds released yet in scope {scope}")
            }
            ServeError::RoundNotReleased {
                scope,
                round,
                available,
            } => write!(
                f,
                "round {round} not yet released in scope {scope} ({available} rounds available)"
            ),
            ServeError::UnknownCohort { cohort, cohorts } => {
                write!(f, "cohort {cohort} does not exist (store has {cohorts})")
            }
            ServeError::WindowUnderflow { round, width } => write!(
                f,
                "width-{width} window query underflows at round {round} (needs t+1 >= k)"
            ),
            ServeError::RoundNotCovered {
                scope,
                round,
                covered,
            } => write!(
                f,
                "round {round} is outside {scope}'s covered range {}..{}",
                covered.start, covered.end
            ),
            ServeError::WindowNotCovered { round, width } => write!(
                f,
                "no cohort observed the full width-{width} window ending at round {round}"
            ),
            ServeError::ZeroWidthQuery => write!(f, "width-0 window queries have no answer"),
            ServeError::EmptyScope { scope, round } => {
                write!(f, "scope {scope} holds no records at round {round}")
            }
            ServeError::ScopeNotRectangular(scope) => write!(
                f,
                "scope {scope} of a dynamic store is ragged (active set changes per \
                 round) and has no rectangular panel; query it through `answer`"
            ),
            ServeError::IngestMismatch(msg) => write!(f, "ingest mismatch: {msg}"),
            ServeError::Snapshot(msg) => write!(f, "snapshot error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A synthetic panel that grows by appending released columns, with the
/// running threshold counts of its rounds and the window histograms read
/// from it. The record count is pinned by the first column; callers
/// validate later appends.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct GrowingPanel {
    stored: Option<(LongitudinalDataset, ThresholdCounter)>,
    histograms: WindowHistograms,
    /// How often the panel was retired (once, if ever).
    #[cfg(test)]
    retirements: usize,
}

/// The widest window whose histograms a panel stores: `2^6` bins, the
/// word-sliced histogram kernel's limit, 512 bytes per round. Wider
/// histograms are built on every read.
const STORED_MAX_WIDTH: usize = 6;

/// Fills the bins of a round whose histogram has not been built. A built
/// histogram's bins count records, so none reaches `u64::MAX`.
const UNBUILT: u64 = u64::MAX;

/// A panel's stored window histograms, one flat buffer per width `k ≤ 6`
/// (allocated when the first histogram of that width is stored): local
/// round `t`'s histogram is `buffers[k - 1][t·2^k..(t + 1)·2^k]`,
/// [`UNBUILT`] until it is first read. Released columns are never
/// rewritten, so a stored histogram never goes stale. Equality ignores the
/// buffers: they are derived from the columns, not content.
#[derive(Default)]
struct WindowHistograms {
    buffers: RwLock<Vec<Vec<u64>>>,
    /// Every `(local round, width)` histogram built, in order.
    #[cfg(test)]
    builds: Mutex<Vec<(usize, usize)>>,
}

impl WindowHistograms {
    /// A panic while the lock was held cannot leave a buffer half written
    /// (a round's bins are only copied in whole, after the buffer has
    /// grown), so a poisoned lock is recovered.
    fn read(&self) -> RwLockReadGuard<'_, Vec<Vec<u64>>> {
        self.buffers.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Vec<Vec<u64>>> {
        self.buffers.write().unwrap_or_else(PoisonError::into_inner)
    }

    fn build(&self, data: &LongitudinalDataset, t: usize, k: usize) -> Vec<u64> {
        #[cfg(test)]
        self.builds
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((t, k));
        window_histogram(data, t, k)
    }
}

impl Clone for WindowHistograms {
    fn clone(&self) -> Self {
        Self {
            buffers: RwLock::new(self.read().clone()),
            #[cfg(test)]
            builds: Mutex::default(),
        }
    }
}

impl PartialEq for WindowHistograms {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl fmt::Debug for WindowHistograms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("WindowHistograms")
    }
}

impl GrowingPanel {
    fn push(&mut self, column: &BitColumn) {
        let (panel, thresholds) = self.stored.get_or_insert_with(|| {
            (
                LongitudinalDataset::empty(column.len()),
                ThresholdCounter::new(column.len()),
            )
        });
        thresholds.push(column);
        panel
            .push_column(column.clone())
            .expect("validated against the panel's record count");
    }

    /// The panel receives no more columns: keep its counts and stored
    /// histograms, drop the per-record weights.
    fn retire(&mut self) {
        if let Some((_, thresholds)) = &mut self.stored {
            thresholds.retire();
        }
        #[cfg(test)]
        {
            self.retirements += 1;
        }
    }

    /// Adds the width-`k` window histogram of local round `t` into `sum`
    /// (`2^k` bins). Up to [`STORED_MAX_WIDTH`] a stored histogram is
    /// summed under the read lock; one not yet stored is built outside the
    /// lock and then stored.
    fn add_window_histogram(&self, t: usize, k: usize, sum: &mut [u64]) {
        let data = self.panel().expect("a panel read for a window has columns");
        let add = |sum: &mut [u64], counts: &[u64]| {
            sum.iter_mut().zip(counts).for_each(|(s, &c)| *s += c);
        };
        if k > STORED_MAX_WIDTH {
            return add(sum, &self.histograms.build(data, t, k));
        }
        let bins = t << k..(t + 1) << k;
        let buffers = self.histograms.read();
        let counts = buffers
            .get(k - 1)
            .and_then(|buffer| buffer.get(bins.clone()));
        if let Some(counts) = counts.filter(|counts| counts[0] != UNBUILT) {
            return add(sum, counts);
        }
        drop(buffers);
        let counts = self.histograms.build(data, t, k);
        add(sum, &counts);
        let mut buffers = self.histograms.write();
        if buffers.len() < k {
            buffers.resize_with(k, Vec::new);
        }
        let buffer = &mut buffers[k - 1];
        if buffer.len() < bins.end {
            buffer.resize(bins.end, UNBUILT);
        }
        buffer[bins].copy_from_slice(&counts);
    }

    pub(crate) fn rounds(&self) -> usize {
        self.panel().map_or(0, LongitudinalDataset::rounds)
    }

    pub(crate) fn records(&self) -> Option<usize> {
        self.panel().map(LongitudinalDataset::individuals)
    }

    pub(crate) fn panel(&self) -> Option<&LongitudinalDataset> {
        self.stored().map(|(panel, _)| panel)
    }

    fn stored(&self) -> Option<Stored<'_>> {
        self.stored
            .as_ref()
            .map(|(panel, thresholds)| (panel, thresholds))
    }
}

/// A stored panel and its threshold counts, as queries read them.
type Stored<'a> = (&'a LongitudinalDataset, &'a ThresholdCounter);

/// The merged population-level release as the store keeps it: nothing
/// under per-shard noise, where each round's is the concatenation of the
/// cohort columns covering it; under shared noise, one rectangular panel
/// for lockstep rounds, or the per-round columns of a scheduled panel,
/// whose active population changes with the schedule.
#[derive(Debug, Clone, PartialEq, Default)]
enum MergedRelease {
    #[default]
    Pooled,
    Longitudinal(GrowingPanel),
    Ragged(Vec<BitColumn>),
}

/// One round of an ingest batch: the global round, the ascending cohorts
/// that stepped in it, their released columns (in `active` order), and the
/// merged release.
pub(crate) type IngestRound<'a> = (usize, Vec<usize>, Vec<&'a BitColumn>, &'a BitColumn);

/// The append-only store of merged and per-cohort releases.
///
/// See the module docs for semantics. Equality compares full contents,
/// which the snapshot/restore tests use to pin bit-identity.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReleaseStore {
    /// The aggregation policy that produced every ingested round (fixed by
    /// the first ingest; `None` while the store is empty).
    pub(crate) policy: Option<PolicyTag>,
    /// One panel per cohort, holding the cohort's local rounds.
    pub(crate) cohorts: Vec<GrowingPanel>,
    /// `entries[c]` is cohort `c`'s entry round (`None` until it enters;
    /// 0 for every cohort of a static store): its panel covers global
    /// rounds `entry .. entry + panel.rounds()`.
    pub(crate) entries: Vec<Option<usize>>,
    /// Released global rounds.
    rounds: usize,
    /// Whether the rounds are scheduled rather than lockstep.
    dynamic: bool,
    /// The ascending cohorts that stepped in the last scheduled round (empty
    /// for a static store): the only ones the next round can retire.
    live: Vec<usize>,
    merged: MergedRelease,
}

impl ReleaseStore {
    /// An empty store; the first ingested round fixes the cohort count,
    /// the policy tag, and whether the store is static or dynamic.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingest one cumulative-family round under the default
    /// [`PolicyTag::PerShard`] semantics (merged = cohort concatenation).
    /// See [`ingest_columns_with`](Self::ingest_columns_with).
    pub fn ingest_columns(
        &mut self,
        per_cohort: &[BitColumn],
        merged: &BitColumn,
    ) -> Result<(), ServeError> {
        self.ingest_columns_with(PolicyTag::PerShard, per_cohort, merged)
    }

    /// Ingest one cumulative-family lockstep round: per-cohort released
    /// columns (in shard order) plus the merged population-level column,
    /// tagged with the aggregation policy that produced them.
    ///
    /// Ingestion is atomic: every column of the round is validated against
    /// the store's shape *before* anything is appended, so a rejected round
    /// leaves the store exactly as it was (merged and cohort panels can
    /// never drift out of lockstep).
    pub fn ingest_columns_with(
        &mut self,
        policy: PolicyTag,
        per_cohort: &[BitColumn],
        merged: &BitColumn,
    ) -> Result<(), ServeError> {
        let round = (
            self.rounds(),
            (0..per_cohort.len()).collect(),
            per_cohort.iter().collect(),
            merged,
        );
        self.ingest_rounds(policy, per_cohort.len(), true, &[round])
    }

    /// Ingest one fixed-window round under the default
    /// [`PolicyTag::PerShard`] semantics. See
    /// [`ingest_releases_with`](Self::ingest_releases_with).
    pub fn ingest_releases(
        &mut self,
        per_cohort: &[Release],
        merged: &Release,
    ) -> Result<(), ServeError> {
        self.ingest_releases_with(PolicyTag::PerShard, per_cohort, merged)
    }

    /// Ingest one fixed-window round: per-cohort [`Release`]s (in shard
    /// order) plus the merged release, tagged with the aggregation policy
    /// that produced them. All shards run in lockstep, so the variants
    /// agree; `Buffered` rounds store nothing. Atomic, like
    /// [`ingest_columns_with`](Self::ingest_columns_with) — a multi-column
    /// `Initial` release lands entirely or not at all.
    pub fn ingest_releases_with(
        &mut self,
        policy: PolicyTag,
        per_cohort: &[Release],
        merged: &Release,
    ) -> Result<(), ServeError> {
        fn columns(release: &Release) -> &[BitColumn] {
            match release {
                Release::Buffered => &[],
                Release::Initial(columns) => columns,
                Release::Update(column) => std::slice::from_ref(column),
            }
        }
        let merged_columns = columns(merged);
        let mut parts = vec![Vec::with_capacity(per_cohort.len()); merged_columns.len()];
        for release in per_cohort {
            if std::mem::discriminant(release) != std::mem::discriminant(merged) {
                return Err(ServeError::IngestMismatch(
                    "cohort/merged release variants disagree".to_string(),
                ));
            }
            if columns(release).len() < merged_columns.len() {
                return Err(ServeError::IngestMismatch(
                    "cohort initial release narrower than merged".to_string(),
                ));
            }
            for (round_parts, column) in parts.iter_mut().zip(columns(release)) {
                round_parts.push(column);
            }
        }
        let start = self.rounds();
        let batch: Vec<IngestRound<'_>> = parts
            .into_iter()
            .zip(merged_columns)
            .enumerate()
            .map(|(offset, (parts, merged))| {
                (
                    start + offset,
                    (0..per_cohort.len()).collect(),
                    parts,
                    merged,
                )
            })
            .collect();
        self.ingest_rounds(policy, per_cohort.len(), true, &batch)
    }

    /// Ingest one **dynamic-panel** round: the releases of the round's
    /// active cohorts, indexed by cohort, plus the merged active-set
    /// release.
    ///
    /// `round` is the global round (must be exactly the store's next),
    /// `cohorts` the panel's total cohort count (fixed by the first
    /// round), `active` the ascending indices of the cohorts that stepped,
    /// and `per_cohort[i]` the release of cohort `active[i]`. A cohort's
    /// first appearance pins its entry round; after that its columns must
    /// arrive contiguously (a retired cohort cannot resume). Atomic like
    /// lockstep ingestion: everything is validated before anything lands.
    pub fn ingest_active_columns(
        &mut self,
        policy: PolicyTag,
        round: usize,
        cohorts: usize,
        active: &[usize],
        per_cohort: &[BitColumn],
        merged: &BitColumn,
    ) -> Result<(), ServeError> {
        let round = (round, active.to_vec(), per_cohort.iter().collect(), merged);
        self.ingest_rounds(policy, cohorts, false, &[round])
    }

    /// The single mutation path, shared by live ingestion, snapshot
    /// restore and delta replay. Checks the policy tag, the cohort count
    /// and the merged release's shape (`longitudinal` rounds are lockstep:
    /// every cohort steps), then validates each round of `batch` against
    /// the store as the batch's earlier rounds leave it, and only then
    /// appends — so any error leaves the store untouched. The first ingest
    /// (even of an empty batch) fixes the cohort count, policy and shape.
    pub(crate) fn ingest_rounds(
        &mut self,
        policy: PolicyTag,
        cohorts: usize,
        longitudinal: bool,
        batch: &[IngestRound<'_>],
    ) -> Result<(), ServeError> {
        let mismatch = |msg: String| Err(ServeError::IngestMismatch(msg));
        if let Some(existing) = self.policy {
            if self.is_dynamic() == longitudinal {
                return mismatch(if longitudinal {
                    "store holds dynamic (scheduled) rounds; lockstep rounds cannot mix in".into()
                } else {
                    "store holds static lockstep rounds; scheduled rounds cannot mix in".into()
                });
            }
            if existing != policy {
                return mismatch(format!(
                    "round tagged {policy}, store holds {existing} releases"
                ));
            }
            if self.cohorts.len() != cohorts {
                return mismatch(format!(
                    "round declares {cohorts} cohorts, store tracks {}",
                    self.cohorts.len()
                ));
            }
        }
        if cohorts == 0 && !longitudinal {
            return mismatch("dynamic round declares zero cohorts".to_string());
        }
        // Validation pass: each cohort's (entry, rounds, records) as the
        // rounds validated so far leave it — no mutation yet.
        let mut shape: Vec<(Option<usize>, usize, Option<usize>)> = (0..cohorts)
            .map(|c| match self.cohorts.get(c) {
                Some(panel) => (self.entries[c], panel.rounds(), panel.records()),
                None => (None, 0, None),
            })
            .collect();
        let mut merged_records = match &self.merged {
            MergedRelease::Longitudinal(panel) => panel.records(),
            _ => None,
        };
        for (offset, (round, active, parts, merged)) in batch.iter().enumerate() {
            let round = *round;
            let next = self.rounds() + offset;
            if round != next {
                return mismatch(format!(
                    "round {round} out of order: store expects round {next}"
                ));
            }
            if active.len() != parts.len() || (active.is_empty() && !longitudinal) {
                return mismatch(format!(
                    "{} active cohorts but {} release columns",
                    active.len(),
                    parts.len()
                ));
            }
            if active.windows(2).any(|pair| pair[0] >= pair[1])
                || active.last().is_some_and(|&c| c >= cohorts)
            {
                return mismatch(
                    "active cohort indices must be ascending and within the panel".to_string(),
                );
            }
            if longitudinal && active.len() != cohorts {
                return mismatch(format!(
                    "lockstep round {round} steps {} of {cohorts} cohorts",
                    active.len()
                ));
            }
            // Under per-shard noise the merged column is the concatenation
            // of the stepping cohorts' columns; a shared-noise merged
            // column is an independent population synthesis whose n* is
            // free to differ.
            if policy == PolicyTag::PerShard {
                let concatenation = BitColumn::concat(parts.iter().copied());
                if concatenation != **merged {
                    return mismatch(format!(
                        "per-shard merged column ({} records) is not the concatenation of \
                         the cohort columns, which sum to {} records",
                        merged.len(),
                        concatenation.len()
                    ));
                }
            }
            if longitudinal {
                match merged_records {
                    Some(records) if records != merged.len() => {
                        return mismatch(format!(
                            "merged column has {} records, store holds {records}",
                            merged.len()
                        ));
                    }
                    _ => merged_records = Some(merged.len()),
                }
            }
            for (&c, column) in active.iter().zip(parts) {
                let (entry, rounds, records) = &mut shape[c];
                let entry = *entry.get_or_insert(round);
                if entry + *rounds != round {
                    return mismatch(format!(
                        "cohort {c} covers rounds {entry}..{} but round {round} arrived \
                         (cohort rounds must be contiguous; retired cohorts cannot resume)",
                        entry + *rounds
                    ));
                }
                match *records {
                    Some(n) if n != column.len() => {
                        return mismatch(format!(
                            "cohort {c} column has {} records, panel holds {n}",
                            column.len()
                        ));
                    }
                    _ => *records = Some(column.len()),
                }
                *rounds += 1;
            }
        }
        // Commit pass — every push is now guaranteed to succeed.
        if self.policy.is_none() {
            self.cohorts = vec![GrowingPanel::default(); cohorts];
            self.entries = vec![None; cohorts];
            self.dynamic = !longitudinal;
            self.merged = match (policy, longitudinal) {
                (PolicyTag::PerShard, _) => MergedRelease::Pooled,
                (PolicyTag::Shared, true) => MergedRelease::Longitudinal(GrowingPanel::default()),
                (PolicyTag::Shared, false) => MergedRelease::Ragged(Vec::new()),
            };
        }
        self.policy = Some(policy);
        self.rounds += batch.len();
        for (round, active, parts, merged) in batch {
            for (&c, column) in active.iter().zip(parts) {
                self.entries[c].get_or_insert(*round);
                self.cohorts[c].push(column);
            }
            if !longitudinal {
                // A cohort that stepped in the last scheduled round and is
                // missing from this one has retired (the validator refuses
                // its resumption): it retires here, once.
                for &c in &self.live {
                    if active.binary_search(&c).is_err() {
                        self.cohorts[c].retire();
                    }
                }
                self.live.clone_from(active);
            }
            match &mut self.merged {
                MergedRelease::Pooled => {}
                MergedRelease::Longitudinal(panel) => panel.push(merged),
                MergedRelease::Ragged(columns) => columns.push((*merged).clone()),
            }
        }
        Ok(())
    }

    /// True once the store holds dynamic (scheduled) rounds — its merged
    /// release is ragged.
    pub fn is_dynamic(&self) -> bool {
        self.dynamic
    }

    /// The global rounds cohort `c` covers so far (`0..rounds()` for every
    /// cohort of a static store; `None` until the cohort enters).
    pub fn cohort_window(&self, cohort: usize) -> Option<Range<usize>> {
        let entry = (*self.entries.get(cohort)?)?;
        Some(entry..entry + self.cohorts[cohort].rounds())
    }

    /// The ascending cohorts whose individuals round `t`'s merged release
    /// covers — every cohort for a static store. Under a shared-noise
    /// rotating panel this is the metadata consumers need to interpret a
    /// windowed population release: which cohorts' members the synthetic
    /// active set stands for.
    pub fn merged_coverage(&self, t: usize) -> Result<Vec<usize>, ServeError> {
        if t >= self.rounds() {
            return Err(self.unreleased(StoreScope::Merged, t));
        }
        Ok((0..self.cohorts.len())
            .filter(|&c| self.cohort_window(c).is_some_and(|w| w.contains(&t)))
            .collect())
    }

    /// The merged release of round `t`: under per-shard noise the
    /// concatenation of the covering cohorts' columns, built on demand. A
    /// dynamic store's record count varies with the schedule.
    pub fn merged_round(&self, t: usize) -> Result<Cow<'_, BitColumn>, ServeError> {
        let column = match &self.merged {
            MergedRelease::Pooled => {
                let columns = self.merged_coverage(t)?.into_iter().map(|c| {
                    let panel = self.cohorts[c]
                        .panel()
                        .expect("a covering cohort has columns");
                    panel.column(t - self.entries[c].expect("and an entry round"))
                });
                Some(Cow::Owned(BitColumn::concat(columns)))
            }
            MergedRelease::Longitudinal(panel) => panel
                .panel()
                .filter(|panel| t < panel.rounds())
                .map(|panel| Cow::Borrowed(panel.column(t))),
            MergedRelease::Ragged(columns) => columns.get(t).map(Cow::Borrowed),
        };
        column.ok_or_else(|| self.unreleased(StoreScope::Merged, t))
    }

    /// The aggregation policy tag of every ingested round (`None` while
    /// the store is empty). Consumers use it to decide whether the merged
    /// panel is the cohort concatenation ([`PolicyTag::PerShard`]) or an
    /// independent population synthesis ([`PolicyTag::Shared`]).
    pub fn policy(&self) -> Option<PolicyTag> {
        self.policy
    }

    /// Released global rounds.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Number of cohorts tracked (0 until the first round arrives).
    pub fn cohorts(&self) -> usize {
        self.cohorts.len()
    }

    /// Records in the merged release (`None` until the first round, and
    /// for dynamic stores, whose merged record count varies per round —
    /// see [`merged_round`](Self::merged_round)).
    pub fn records(&self) -> Option<usize> {
        match &self.merged {
            _ if self.dynamic || self.rounds == 0 => None,
            MergedRelease::Longitudinal(panel) => panel.records(),
            _ => Some(self.cohorts.iter().filter_map(GrowingPanel::records).sum()),
        }
    }

    /// The panel for `scope`, if any rounds exist there.
    ///
    /// Cohort panels hold the cohort's **local** rounds (global round =
    /// [`cohort_window`](Self::cohort_window)'s start + local index). A
    /// static per-shard store's merged panel is built on demand from the
    /// cohort panels; a dynamic store's merged scope is ragged and has no
    /// rectangular panel ([`ServeError::ScopeNotRectangular`]).
    pub fn panel(&self, scope: StoreScope) -> Result<Cow<'_, LongitudinalDataset>, ServeError> {
        let growing = match (scope, &self.merged) {
            (StoreScope::Cohort(c), _) => self.cohorts.get(c).ok_or(ServeError::UnknownCohort {
                cohort: c,
                cohorts: self.cohorts.len(),
            })?,
            (StoreScope::Merged, MergedRelease::Longitudinal(panel)) => panel,
            _ if self.dynamic => return Err(ServeError::ScopeNotRectangular(scope)),
            _ if self.rounds == 0 => return Err(ServeError::NothingReleased(scope)),
            _ => {
                let columns = (0..self.rounds).map(|t| self.merged_round(t).map(Cow::into_owned));
                let panel = LongitudinalDataset::from_columns(columns.collect::<Result<_, _>>()?);
                return Ok(Cow::Owned(panel.expect("cohort panels are rectangular")));
            }
        };
        let panel = growing.panel().ok_or(ServeError::NothingReleased(scope))?;
        Ok(Cow::Borrowed(panel))
    }

    /// Answer one query from the stored releases and their statistics — no
    /// synthesis, and no pass over a panel's history once the statistic it
    /// reads is stored. [`QueryService::answer`](crate::QueryService::answer)
    /// is this call under the store's read lock.
    ///
    /// A cohort scope reads its local round (released rounds outside its
    /// window are [`ServeError::RoundNotCovered`]); the merged scope reads
    /// a static shared-noise population panel, or else pools the cohorts,
    /// where window and pattern queries only count cohorts that observed
    /// the *entire* window. Each panel read adds its integer statistic and
    /// record count, and the answer divides once.
    pub fn answer(&self, query: &ServeQuery) -> Result<f64, ServeError> {
        let (scope, t) = (query.scope, query.kind.round());
        // Window and pattern queries sum window histograms; a cumulative
        // query sums its threshold count `b`.
        let (window, b) = match &query.kind {
            QueryKind::Window { query, .. } => (Some(Cow::Borrowed(query)), 0),
            QueryKind::Pattern { pattern, .. } => {
                (Some(Cow::Owned(WindowQuery::pattern(*pattern))), 0)
            }
            QueryKind::CumulativeFraction { b, .. } => (None, *b),
        };
        let width = window.as_deref().map_or(1, WindowQuery::width);
        if width == 0 {
            return Err(ServeError::ZeroWidthQuery);
        }
        // The panels the scope reads, their entry rounds (0 for a static
        // population panel), and the global rounds the scope covers.
        let (panels, entries, covered) = match (scope, &self.merged) {
            (StoreScope::Cohort(c), _) => {
                self.panel(scope)?; // an unknown or not yet entered cohort
                let covered = self
                    .cohort_window(c)
                    .expect("a cohort with columns has entered");
                (&self.cohorts[c..=c], &self.entries[c..=c], covered)
            }
            _ if self.rounds == 0 => return Err(ServeError::NothingReleased(scope)),
            (StoreScope::Merged, MergedRelease::Longitudinal(panel)) => {
                (std::slice::from_ref(panel), &[Some(0)][..], 0..self.rounds)
            }
            (StoreScope::Merged, _) => (&self.cohorts[..], &self.entries[..], 0..self.rounds),
        };
        if t >= self.rounds {
            return Err(self.unreleased(scope, t));
        }
        if !covered.contains(&t) {
            return Err(ServeError::RoundNotCovered {
                scope,
                round: t,
                covered,
            });
        }
        if t + 1 < covered.start + width {
            return Err(ServeError::WindowUnderflow { round: t, width });
        }
        // Up to the stored width the summed histogram lives on the stack,
        // so an answer whose histograms are all stored allocates nothing.
        // A cumulative answer zeroes none of it.
        let (mut narrow, mut wide);
        let histogram: &mut [u64] = match window {
            None => &mut [],
            Some(_) if width <= STORED_MAX_WIDTH => {
                narrow = [0u64; 1 << STORED_MAX_WIDTH];
                &mut narrow[..1 << width]
            }
            Some(_) => {
                wide = vec![0; 1 << width];
                &mut wide
            }
        };
        let (mut count, mut records, mut observed) = (0, 0, false);
        for (panel, &entry) in panels.iter().zip(entries) {
            let (Some(entry), Some((data, thresholds))) = (entry, panel.stored()) else {
                continue;
            };
            if t + 1 < entry + width || t >= entry + data.rounds() {
                continue;
            }
            observed = true;
            records += data.individuals();
            if window.is_some() {
                panel.add_window_histogram(t - entry, width, histogram);
            } else {
                count += thresholds.counts(t - entry).get(b).copied().unwrap_or(0);
            }
        }
        if records == 0 {
            return Err(if observed || !self.dynamic {
                ServeError::EmptyScope { scope, round: t }
            } else {
                ServeError::WindowNotCovered { round: t, width }
            });
        }
        Ok(match window {
            Some(query) => query.evaluate_counts(histogram, records as f64),
            None => count as f64 / records as f64,
        })
    }

    fn unreleased(&self, scope: StoreScope, round: usize) -> ServeError {
        ServeError::RoundNotReleased {
            scope,
            round,
            available: self.rounds(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{restore_json, snapshot_json};
    use longsynth_queries::Pattern;

    fn col(bits: &[bool]) -> BitColumn {
        BitColumn::from_bools(bits)
    }

    fn two_cohort_round(a: &[bool], b: &[bool]) -> (Vec<BitColumn>, BitColumn) {
        let merged: Vec<bool> = a.iter().chain(b).copied().collect();
        (vec![col(a), col(b)], col(&merged))
    }

    #[test]
    fn ingest_columns_grows_all_scopes_in_lockstep() {
        let mut store = ReleaseStore::new();
        let (parts, merged) = two_cohort_round(&[true, false], &[false, true, true]);
        store.ingest_columns(&parts, &merged).unwrap();
        let (parts, merged) = two_cohort_round(&[false, false], &[true, true, false]);
        store.ingest_columns(&parts, &merged).unwrap();

        assert_eq!(store.rounds(), 2);
        assert_eq!(store.cohorts(), 2);
        assert_eq!(store.records(), Some(5));
        assert_eq!(store.panel(StoreScope::Merged).unwrap().rounds(), 2);
        assert_eq!(store.panel(StoreScope::Cohort(1)).unwrap().individuals(), 3);
    }

    #[test]
    fn ingest_rejects_shape_changes() {
        let mut store = ReleaseStore::new();
        let (parts, merged) = two_cohort_round(&[true], &[false]);
        store.ingest_columns(&parts, &merged).unwrap();
        // Wrong cohort count.
        assert!(matches!(
            store.ingest_columns(&[col(&[true])], &col(&[true])),
            Err(ServeError::IngestMismatch(_))
        ));
        // Wrong record count.
        let (parts, _) = two_cohort_round(&[true], &[false]);
        assert!(matches!(
            store.ingest_columns(&parts, &col(&[true, false, true])),
            Err(ServeError::IngestMismatch(_))
        ));
    }

    #[test]
    fn rejected_rounds_leave_the_store_untouched() {
        let mut store = ReleaseStore::new();
        let (parts, merged) = two_cohort_round(&[true, false], &[false, true]);
        store.ingest_columns(&parts, &merged).unwrap();
        let before = store.clone();

        // Merged column consistent with the store, but cohort 1's column
        // has the wrong record count: the round must be rejected *whole*
        // (previously the merged panel kept the push, silently breaking
        // lockstep and making every later snapshot unrestorable).
        let bad_parts = vec![col(&[true, false]), col(&[true, false, false])];
        let bad_merged = col(&[true, false, true, false]);
        assert!(matches!(
            store.ingest_columns(&bad_parts, &bad_merged),
            Err(ServeError::IngestMismatch(_))
        ));
        assert_eq!(store, before, "failed ingest must not mutate the store");
        // The store still works and still snapshots/restores.
        let (parts, merged) = two_cohort_round(&[false, false], &[true, true]);
        store.ingest_columns(&parts, &merged).unwrap();
        assert_eq!(store.rounds(), 2);
        let restored = restore_json(&snapshot_json(&store)).unwrap();
        assert_eq!(restored, store);

        // Same atomicity for a multi-column Initial release: one bad
        // column in round 2-of-2 rejects both columns.
        let mut store = ReleaseStore::new();
        let good = Release::Initial(vec![col(&[true]), col(&[false])]);
        let ragged = Release::Initial(vec![col(&[true]), col(&[false, true])]);
        let merged = Release::Initial(vec![col(&[true, true]), col(&[false, false])]);
        let before = store.clone();
        assert!(store.ingest_releases(&[good, ragged], &merged).is_err());
        assert_eq!(store, before);
    }

    #[test]
    fn window_releases_expand_variants() {
        let mut store = ReleaseStore::new();
        // Buffered round: nothing stored.
        store
            .ingest_releases(&[Release::Buffered, Release::Buffered], &Release::Buffered)
            .unwrap();
        assert_eq!(store.rounds(), 0);
        // Initial round: both seed columns land.
        let merged = Release::Initial(vec![col(&[true, false, true]), col(&[false, false, true])]);
        let parts = vec![
            Release::Initial(vec![col(&[true, false]), col(&[false, false])]),
            Release::Initial(vec![col(&[true]), col(&[true])]),
        ];
        store.ingest_releases(&parts, &merged).unwrap();
        assert_eq!(store.rounds(), 2);
        // Update round.
        let merged = Release::Update(col(&[true, true, false]));
        let parts = vec![
            Release::Update(col(&[true, true])),
            Release::Update(col(&[false])),
        ];
        store.ingest_releases(&parts, &merged).unwrap();
        assert_eq!(store.rounds(), 3);
        assert_eq!(store.panel(StoreScope::Cohort(0)).unwrap().rounds(), 3);
        // Mismatched variants error.
        assert!(store
            .ingest_releases(
                &[Release::Buffered, Release::Buffered],
                &Release::Update(col(&[true, true, false]))
            )
            .is_err());
    }

    #[test]
    fn shared_rounds_relax_the_concatenation_check() {
        // A shared-noise merged release is an independent population
        // synthesis: its record count need not equal the cohort sum.
        let mut store = ReleaseStore::new();
        let parts = vec![col(&[true, false]), col(&[false])];
        let merged = col(&[true, false, true, true, false]); // 5 != 2 + 1
        store
            .ingest_columns_with(PolicyTag::Shared, &parts, &merged)
            .unwrap();
        assert_eq!(store.policy(), Some(PolicyTag::Shared));
        assert_eq!(store.records(), Some(5));
        assert_eq!(store.panel(StoreScope::Cohort(0)).unwrap().individuals(), 2);
        // The same round is rejected under per-shard semantics...
        let mut strict = ReleaseStore::new();
        assert!(matches!(
            strict.ingest_columns_with(PolicyTag::PerShard, &parts, &merged),
            Err(ServeError::IngestMismatch(_))
        ));
        // ...and a store never changes policy mid-stream.
        let err = store
            .ingest_columns_with(PolicyTag::PerShard, &parts, &merged)
            .unwrap_err();
        assert!(err.to_string().contains("per-shard"), "{err}");
        // Per-panel record consistency still holds under shared.
        assert!(store
            .ingest_columns_with(PolicyTag::Shared, &parts, &col(&[true, true]))
            .is_err());
    }

    #[test]
    fn per_shard_merged_columns_must_be_the_concatenation() {
        // Right record count, wrong bits: refused whole, in lockstep...
        let mut store = ReleaseStore::new();
        let (parts, merged) = two_cohort_round(&[true, false], &[false, true]);
        store.ingest_columns(&parts, &merged).unwrap();
        let before = store.clone();
        let (parts, merged) = two_cohort_round(&[true, true], &[false, false]);
        let err = store
            .ingest_columns(&parts, &col(&[true, false, true, false]))
            .unwrap_err();
        assert!(matches!(err, ServeError::IngestMismatch(_)), "{err}");
        let releases = parts
            .iter()
            .cloned()
            .map(Release::Update)
            .collect::<Vec<_>>();
        let swapped = Release::Update(col(&[false, false, true, true]));
        assert!(matches!(
            store.ingest_releases(&releases, &swapped),
            Err(ServeError::IngestMismatch(_))
        ));
        assert_eq!(store, before, "failed ingest must not mutate the store");
        store.ingest_columns(&parts, &merged).unwrap();
        // ...and in scheduled rounds.
        let mut store = rotating_store();
        let before = store.clone();
        let parts = [col(&[true]), col(&[false, true])];
        let err = store
            .ingest_active_columns(
                PolicyTag::PerShard,
                3,
                4,
                &[2, 3],
                &parts,
                &col(&[false, true, true]),
            )
            .unwrap_err();
        assert!(matches!(err, ServeError::IngestMismatch(_)), "{err}");
        assert_eq!(store, before, "failed ingest must not mutate the store");
        let merged = BitColumn::concat(&parts);
        store
            .ingest_active_columns(PolicyTag::PerShard, 3, 4, &[2, 3], &parts, &merged)
            .unwrap();
    }

    #[test]
    fn untagged_ingest_defaults_to_per_shard() {
        let mut store = ReleaseStore::new();
        let (parts, merged) = two_cohort_round(&[true], &[false]);
        store.ingest_columns(&parts, &merged).unwrap();
        assert_eq!(store.policy(), Some(PolicyTag::PerShard));
    }

    #[test]
    fn answers_cover_all_query_kinds_and_scopes() {
        let mut store = ReleaseStore::new();
        for round in 0..4 {
            let (parts, merged) =
                two_cohort_round(&[round % 2 == 0, true], &[false, round >= 1, true]);
            store.ingest_columns(&parts, &merged).unwrap();
        }
        let ask = |scope, kind| store.answer(&ServeQuery { scope, kind }).unwrap();
        // Cumulative: every record of cohort 0 has weight >= 1 by t=1.
        assert_eq!(
            ask(
                StoreScope::Cohort(0),
                QueryKind::CumulativeFraction { t: 1, b: 1 }
            ),
            1.0
        );
        // Window query on the merged panel.
        let battery = WindowQuery::at_least_m_ones(2, 1);
        let v = ask(
            StoreScope::Merged,
            QueryKind::Window {
                t: 3,
                query: battery,
            },
        );
        assert!((0.0..=1.0).contains(&v));
        // Pattern indicator.
        let v = ask(
            StoreScope::Merged,
            QueryKind::Pattern {
                t: 2,
                pattern: Pattern::parse("11"),
            },
        );
        assert!((0.0..=1.0).contains(&v));
    }

    /// A small rotating panel: cohort 0 covers rounds 0–1, cohort 1
    /// covers 0–2, cohort 2 joins at round 1, cohort 3 at round 2.
    fn rotating_store() -> ReleaseStore {
        let mut store = ReleaseStore::new();
        let c0 = [col(&[true, false]), col(&[true, true])];
        let c1 = [
            col(&[false, true, true]),
            col(&[false, false, true]),
            col(&[true, true, true]),
        ];
        let c2 = [col(&[true]), col(&[false])];
        let c3 = [col(&[false, true])];
        let rounds: [(&[usize], Vec<&BitColumn>); 3] = [
            (&[0, 1], vec![&c0[0], &c1[0]]),
            (&[0, 1, 2], vec![&c0[1], &c1[1], &c2[0]]),
            (&[1, 2, 3], vec![&c1[2], &c2[1], &c3[0]]),
        ];
        for (round, (active, parts)) in rounds.into_iter().enumerate() {
            let owned: Vec<BitColumn> = parts.iter().map(|c| (*c).clone()).collect();
            let merged = BitColumn::concat(owned.iter());
            store
                .ingest_active_columns(PolicyTag::PerShard, round, 4, active, &owned, &merged)
                .unwrap();
        }
        store
    }

    #[test]
    fn dynamic_rounds_index_by_cohort_round_range() {
        let store = rotating_store();
        assert!(store.is_dynamic());
        assert_eq!(store.rounds(), 3);
        assert_eq!(store.cohorts(), 4);
        assert_eq!(store.records(), None, "dynamic merged is ragged");
        assert_eq!(store.cohort_window(0), Some(0..2));
        assert_eq!(store.cohort_window(1), Some(0..3));
        assert_eq!(store.cohort_window(2), Some(1..3));
        assert_eq!(store.cohort_window(3), Some(2..3));
        // Ragged merged rounds carry the active population per round.
        assert_eq!(store.merged_round(0).unwrap().len(), 5);
        assert_eq!(store.merged_round(1).unwrap().len(), 6);
        assert_eq!(store.merged_round(2).unwrap().len(), 6);
        assert!(store.merged_round(3).is_err());
        // The merged scope has no rectangular panel; cohorts do.
        assert!(matches!(
            store.panel(StoreScope::Merged),
            Err(ServeError::ScopeNotRectangular(StoreScope::Merged))
        ));
        assert_eq!(store.panel(StoreScope::Cohort(2)).unwrap().rounds(), 2);
    }

    #[test]
    fn dynamic_cohort_queries_translate_to_local_rounds() {
        let store = rotating_store();
        // Cohort 2 at global round 1 is its local round 0: one record set.
        let ask = |scope, kind| store.answer(&ServeQuery { scope, kind });
        assert_eq!(
            ask(
                StoreScope::Cohort(2),
                QueryKind::CumulativeFraction { t: 1, b: 1 }
            )
            .unwrap(),
            1.0
        );
        // Outside the cohort's window: descriptive coverage error.
        match ask(
            StoreScope::Cohort(2),
            QueryKind::CumulativeFraction { t: 0, b: 1 },
        ) {
            Err(ServeError::RoundNotCovered {
                round: 0, covered, ..
            }) => assert_eq!(covered, 1..3),
            other => panic!("expected RoundNotCovered, got {other:?}"),
        }
        // A retired cohort's released rounds stay queryable forever.
        assert!(ask(
            StoreScope::Cohort(0),
            QueryKind::CumulativeFraction { t: 1, b: 2 }
        )
        .is_ok());
        assert!(matches!(
            ask(
                StoreScope::Cohort(0),
                QueryKind::CumulativeFraction { t: 2, b: 1 }
            ),
            Err(ServeError::RoundNotCovered { .. })
        ));
        // A round the store has not released yet is unreleased in every
        // scope, whether or not the cohort is still active.
        for c in [0, 1] {
            assert!(matches!(
                ask(
                    StoreScope::Cohort(c),
                    QueryKind::CumulativeFraction { t: 3, b: 1 }
                ),
                Err(ServeError::RoundNotReleased {
                    round: 3,
                    available: 3,
                    ..
                })
            ));
        }
    }

    #[test]
    fn retired_cohorts_drop_weights_and_keep_answers() {
        use longsynth_queries::cumulative::cumulative_fraction;
        let store = rotating_store();
        let counter = |c: usize| store.cohorts[c].stored().expect("entered").1;
        // Cohort 0 stepped in rounds 0–1 and was absent from round 2: it
        // has retired, so only its counts remain. Every other cohort
        // stepped in the last round and keeps its weights.
        for c in 0..4 {
            let panel = store.panel(StoreScope::Cohort(c)).unwrap();
            let mut expected = ThresholdCounter::over(&panel);
            if c == 0 {
                expected.retire();
            }
            assert_eq!(counter(c), &expected, "cohort {c}");
            let start = store.cohort_window(c).unwrap().start;
            for t in store.cohort_window(c).unwrap() {
                for b in 0..=t + 2 {
                    let kind = QueryKind::CumulativeFraction { t, b };
                    let got = store.answer(&ServeQuery {
                        scope: StoreScope::Cohort(c),
                        kind,
                    });
                    let want = cumulative_fraction(&panel, t - start, b);
                    assert_eq!(got.unwrap().to_bits(), want.to_bits(), "c={c} t={t} b={b}");
                }
            }
        }
        assert_ne!(
            counter(0),
            &ThresholdCounter::over(&store.panel(StoreScope::Cohort(0)).unwrap())
        );
        // Restore replays the schedule, so the retirement is rebuilt.
        assert_eq!(restore_json(&snapshot_json(&store)).unwrap(), store);
    }

    #[test]
    fn static_stores_answer_the_shape_accessors() {
        // A static store is the schedule where every cohort covers every
        // round: the dynamic accessors describe it truthfully.
        let mut store = ReleaseStore::new();
        for round in 0..3 {
            let (parts, merged) = two_cohort_round(&[round != 1], &[true, round == 2]);
            store.ingest_columns(&parts, &merged).unwrap();
        }
        assert!(!store.is_dynamic());
        for c in 0..2 {
            assert_eq!(store.cohort_window(c), Some(0..3));
        }
        assert_eq!(store.cohort_window(2), None);
        let merged = store.panel(StoreScope::Merged).unwrap();
        for t in 0..3 {
            assert_eq!(store.merged_coverage(t).unwrap(), &[0, 1]);
            assert_eq!(&*store.merged_round(t).unwrap(), merged.column(t));
        }
        assert!(store.merged_coverage(3).is_err());
        assert!(store.merged_round(3).is_err());
    }

    #[test]
    fn dynamic_merged_answers_pool_covering_cohorts() {
        let store = rotating_store();
        // Round 1 cumulative b=1: cohorts 0 (2 records, both ≥1 by local
        // round 1), 1 (3 records: r0 {0,1,1}, r1 {0,0,1} → weights 0,1,2 →
        // fraction 2/3), 2 (1 record, weight 1 → 1.0).
        let value = store
            .answer(&ServeQuery {
                scope: StoreScope::Merged,
                kind: QueryKind::CumulativeFraction { t: 1, b: 1 },
            })
            .unwrap();
        let expected = (1.0 * 2.0 + (2.0 / 3.0) * 3.0 + 1.0) / 6.0;
        assert!((value - expected).abs() < 1e-12, "{value} vs {expected}");
        // A width-2 window at round 2 only counts cohorts observing both
        // rounds 1 and 2: cohorts 1 and 2 (cohort 3 entered mid-window).
        let value = store
            .answer(&ServeQuery {
                scope: StoreScope::Merged,
                kind: QueryKind::Window {
                    t: 2,
                    query: WindowQuery::at_least_m_ones(2, 1),
                },
            })
            .unwrap();
        assert!((0.0..=1.0).contains(&value));
        // Cohort 1 spans all three rounds, so even the full-width window
        // has a covering cohort.
        assert!(store
            .answer(&ServeQuery {
                scope: StoreScope::Merged,
                kind: QueryKind::Window {
                    t: 2,
                    query: WindowQuery::at_least_m_ones(3, 1),
                },
            })
            .is_ok());
        // In a panel where every cohort rotates, a window spanning the
        // rotation boundary has no covering cohort — named as such.
        let mut rotated = ReleaseStore::new();
        let rounds: [(&[usize], BitColumn); 3] = [
            (&[0], col(&[true, false])),
            (&[0, 1], col(&[false, true, true])),
            (&[1], col(&[false])),
        ];
        for (round, (active, merged)) in rounds.into_iter().enumerate() {
            let parts: Vec<BitColumn> = match active.len() {
                1 => vec![merged.clone()],
                _ => vec![merged.slice(0..2), merged.slice(2..3)],
            };
            rotated
                .ingest_active_columns(PolicyTag::PerShard, round, 2, active, &parts, &merged)
                .unwrap();
        }
        // Width 3 at t=2 spans rounds 0..=2: cohort 0 retired after round
        // 1, cohort 1 entered at round 1 — nobody saw the whole window.
        assert!(matches!(
            rotated.answer(&ServeQuery {
                scope: StoreScope::Merged,
                kind: QueryKind::Window {
                    t: 2,
                    query: WindowQuery::at_least_m_ones(3, 1),
                },
            }),
            Err(ServeError::WindowNotCovered { round: 2, width: 3 })
        ));
    }

    /// Shared-noise rotating rounds: the merged column is an independent
    /// windowed population synthesis (constant active size, no
    /// concatenation constraint), and every round records which cohorts
    /// it covers.
    #[test]
    fn shared_rotating_rounds_carry_coverage_metadata() {
        let mut store = ReleaseStore::new();
        // Two waves of 2 over 3 rounds: cohorts 0 (rounds 0), 1 (0-1),
        // 2 (1-2), 3 (2). Active population 4 per round; the merged
        // population release has its own constant 4 records.
        let rounds: [(&[usize], Vec<BitColumn>); 3] = [
            (&[0, 1], vec![col(&[true, false]), col(&[false, true])]),
            (&[1, 2], vec![col(&[true, true]), col(&[false, false])]),
            (&[2, 3], vec![col(&[true, false]), col(&[false, true])]),
        ];
        for (round, (active, parts)) in rounds.into_iter().enumerate() {
            // Independent population synthesis: NOT the concatenation.
            let merged = col(&[round % 2 == 0, true, false, round == 2]);
            store
                .ingest_active_columns(PolicyTag::Shared, round, 4, active, &parts, &merged)
                .unwrap();
        }
        assert!(store.is_dynamic());
        assert_eq!(store.policy(), Some(PolicyTag::Shared));
        assert_eq!(store.merged_coverage(0).unwrap(), &[0, 1]);
        assert_eq!(store.merged_coverage(1).unwrap(), &[1, 2]);
        assert_eq!(store.merged_coverage(2).unwrap(), &[2, 3]);
        assert!(store.merged_coverage(3).is_err());
        assert_eq!(store.merged_round(1).unwrap().len(), 4);
        // Merged-scope answers still pool the covering cohorts' panels.
        let value = store
            .answer(&ServeQuery {
                scope: StoreScope::Merged,
                kind: QueryKind::CumulativeFraction { t: 1, b: 1 },
            })
            .unwrap();
        assert!((0.0..=1.0).contains(&value));
        // Coverage survives the snapshot round trip.
        let restored = restore_json(&snapshot_json(&store)).unwrap();
        assert_eq!(restored, store);
        assert_eq!(restored.merged_coverage(2).unwrap(), &[2, 3]);
    }

    #[test]
    fn dynamic_ingest_validation_is_strict() {
        let mut store = rotating_store();
        let before = store.clone();
        // Round out of order.
        assert!(matches!(
            store.ingest_active_columns(
                PolicyTag::PerShard,
                5,
                4,
                &[1],
                &[col(&[true, true, true])],
                &col(&[true, true, true]),
            ),
            Err(ServeError::IngestMismatch(_))
        ));
        // A retired cohort cannot resume (cohort 0 stopped after round 1).
        let err = store
            .ingest_active_columns(
                PolicyTag::PerShard,
                3,
                4,
                &[0],
                &[col(&[true, false])],
                &col(&[true, false]),
            )
            .unwrap_err();
        assert!(err.to_string().contains("contiguous"), "{err}");
        // Non-ascending active indices.
        assert!(store
            .ingest_active_columns(
                PolicyTag::PerShard,
                3,
                4,
                &[2, 1],
                &[col(&[true]), col(&[true, false, true])],
                &col(&[true, true, false, true]),
            )
            .is_err());
        // Concatenation mismatch under per-shard.
        assert!(store
            .ingest_active_columns(
                PolicyTag::PerShard,
                3,
                4,
                &[1],
                &[col(&[true, false, true])],
                &col(&[true]),
            )
            .is_err());
        assert_eq!(store, before, "failed ingests must not mutate");
        // Static and dynamic rounds never mix, in either direction.
        let (parts, merged) = two_cohort_round(&[true], &[false]);
        assert!(store.ingest_columns(&parts, &merged).is_err());
        let mut static_store = ReleaseStore::new();
        static_store.ingest_columns(&parts, &merged).unwrap();
        assert!(static_store
            .ingest_active_columns(
                PolicyTag::PerShard,
                1,
                2,
                &[0],
                &[col(&[true])],
                &col(&[true]),
            )
            .is_err());
    }

    #[test]
    fn answer_errors_are_descriptive() {
        let store = ReleaseStore::new();
        let q = ServeQuery {
            scope: StoreScope::Merged,
            kind: QueryKind::CumulativeFraction { t: 0, b: 1 },
        };
        assert!(matches!(
            store.answer(&q),
            Err(ServeError::NothingReleased(StoreScope::Merged))
        ));

        let mut store = ReleaseStore::new();
        let (parts, merged) = two_cohort_round(&[true], &[false]);
        store.ingest_columns(&parts, &merged).unwrap();
        // Round too far ahead.
        let q = ServeQuery {
            scope: StoreScope::Merged,
            kind: QueryKind::CumulativeFraction { t: 5, b: 1 },
        };
        assert!(matches!(
            store.answer(&q),
            Err(ServeError::RoundNotReleased {
                round: 5,
                available: 1,
                ..
            })
        ));
        // Unknown cohort.
        let q = ServeQuery {
            scope: StoreScope::Cohort(7),
            kind: QueryKind::CumulativeFraction { t: 0, b: 1 },
        };
        assert!(matches!(
            store.answer(&q),
            Err(ServeError::UnknownCohort {
                cohort: 7,
                cohorts: 2
            })
        ));
        // Window underflow.
        let q = ServeQuery {
            scope: StoreScope::Merged,
            kind: QueryKind::Window {
                t: 0,
                query: WindowQuery::all_ones(3),
            },
        };
        assert!(matches!(
            store.answer(&q),
            Err(ServeError::WindowUnderflow { round: 0, width: 3 })
        ));
        // Display impls mention the key facts.
        let msg = ServeError::UnknownCohort {
            cohort: 7,
            cohorts: 2,
        }
        .to_string();
        assert!(msg.contains('7') && msg.contains('2'));
    }

    fn window(scope: StoreScope, t: usize, k: usize) -> ServeQuery {
        let query = WindowQuery::at_least_m_ones(k, 1);
        let kind = QueryKind::Window { t, query };
        ServeQuery { scope, kind }
    }

    /// `(local round, width)` builds of cohort `c`'s histograms so far.
    fn builds(store: &ReleaseStore, c: usize) -> Vec<(usize, usize)> {
        store.cohorts[c].histograms.builds.lock().unwrap().clone()
    }

    #[test]
    fn narrow_window_histograms_are_built_once_per_round_and_width() {
        let mut store = ReleaseStore::new();
        let mut wide_reads = 0;
        for r in 0..40 {
            let (parts, merged) = two_cohort_round(&[r % 2 == 0, r % 5 != 1], &[r % 3 == 0]);
            store.ingest_columns(&parts, &merged).unwrap();
            // Each round reads the newest round at every width it allows,
            // then re-reads rounds long past; width 7 is never stored.
            for t in [r, r / 2, r / 3, 7.min(r)] {
                for k in 1..=7.min(t + 1) {
                    for scope in [StoreScope::Merged, StoreScope::Cohort(1)] {
                        let answer = store.answer(&window(scope, t, k)).unwrap();
                        let panel = store.panel(scope).unwrap();
                        let direct = WindowQuery::at_least_m_ones(k, 1).evaluate_true(&panel, t);
                        assert_eq!(answer.to_bits(), direct.to_bits(), "t={t} k={k}");
                        if k == 7 && scope == StoreScope::Cohort(1) {
                            wide_reads += 1;
                        }
                    }
                }
            }
        }
        for c in 0..2 {
            let builds = builds(&store, c);
            let mut narrow: Vec<_> = builds.iter().filter(|&&(_, k)| k <= 6).collect();
            let read = narrow.len();
            narrow.sort();
            narrow.dedup();
            assert_eq!(narrow.len(), read, "cohort {c} rebuilt a stored histogram");
            // Every round is read at every width it allows.
            assert_eq!(read, (0..40).map(|t: usize| 6.min(t + 1)).sum::<usize>());
            let wide = builds.iter().filter(|&&(_, k)| k == 7).count();
            // Cohort 0 is read through the merged scope only, cohort 1
            // through both.
            assert_eq!(wide, wide_reads * (c + 1), "cohort {c}");
        }
    }

    #[test]
    fn stored_histograms_survive_clones_poison_and_retirement() {
        let mut store = ReleaseStore::new();
        for r in 0..8 {
            let (parts, merged) = two_cohort_round(&[r % 2 == 0, true], &[false, r % 3 == 0]);
            store.ingest_columns(&parts, &merged).unwrap();
        }
        let merged = store.answer(&window(StoreScope::Merged, 5, 3)).unwrap();
        assert_eq!(builds(&store, 0), [(5, 3)]);
        // A clone keeps the stored histograms and compares equal.
        let clone = store.clone();
        assert_eq!(clone, store);
        let again = clone.answer(&window(StoreScope::Merged, 5, 3)).unwrap();
        assert_eq!(again.to_bits(), merged.to_bits());
        assert!(builds(&clone, 0).is_empty());
        // A panic under the write lock poisons it; reads recover.
        let panel = &store.cohorts[1];
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _buffers = panel.histograms.write();
                panic!("poison the stored histograms");
            })
            .join()
        });
        assert!(panicked.is_err() && panel.histograms.buffers.is_poisoned());
        let again = store.answer(&window(StoreScope::Merged, 5, 3)).unwrap();
        assert_eq!(again.to_bits(), merged.to_bits());
        let fresh = store.answer(&window(StoreScope::Merged, 4, 3)).unwrap();
        let panel = store.panel(StoreScope::Merged).unwrap();
        let direct = WindowQuery::at_least_m_ones(3, 1).evaluate_true(&panel, 4);
        assert_eq!(fresh.to_bits(), direct.to_bits());
        assert_eq!(builds(&store, 1), [(5, 3), (4, 3)]);
    }

    #[test]
    fn cohorts_retire_once_and_keep_their_histograms() {
        // Cohort c steps in rounds c..c + 3: each round retires the
        // cohort that entered three rounds earlier.
        let mut store = ReleaseStore::new();
        let ingest = |store: &mut ReleaseStore, round: usize| {
            let active: Vec<usize> = (round.saturating_sub(2)..=round).collect();
            let parts: Vec<BitColumn> = active
                .iter()
                .map(|&c| col(&[(c + round).is_multiple_of(2), round % 3 == c % 3]))
                .collect();
            let merged = BitColumn::concat(&parts);
            store
                .ingest_active_columns(PolicyTag::PerShard, round, 20, &active, &parts, &merged)
                .unwrap();
        };
        for round in 0..3 {
            ingest(&mut store, round);
        }
        let cohort0 = |t| window(StoreScope::Cohort(0), t, 2);
        let before = [1, 2].map(|t| store.answer(&cohort0(t)).unwrap());
        assert_eq!(builds(&store, 0), [(1, 2), (2, 2)]);
        for round in 3..20 {
            ingest(&mut store, round);
        }
        for c in 0..17 {
            assert_eq!(store.cohorts[c].retirements, 1, "cohort {c}");
        }
        for c in 17..20 {
            assert_eq!(store.cohorts[c].retirements, 0, "cohort {c}");
        }
        // The retired cohort answers from its stored histograms.
        let after = [1, 2].map(|t| store.answer(&cohort0(t)).unwrap());
        assert_eq!(after.map(f64::to_bits), before.map(f64::to_bits));
        assert_eq!(builds(&store, 0), [(1, 2), (2, 2)]);
        // Restore replays the schedule, retiring each cohort once again.
        let restored = restore_json(&snapshot_json(&store)).unwrap();
        assert_eq!(restored, store);
        assert_eq!(restored.cohorts[0].retirements, 1);
    }
}
