//! The sharded engine driver.
//!
//! [`ShardedEngine`] holds one [`ContinualSynthesizer`] per shard — plus,
//! under the shared-noise aggregation policy, one **population-level**
//! synthesizer — and, on every [`step`](ShardedEngine::step), the
//! engine's one round entry ([`run`](ShardedEngine::run) and the
//! [`IngestDriver`] both feed it):
//!
//! 1. splits the population-level input column into per-shard cohort
//!    columns ([`ShardableInput`] — a word-level splice),
//! 2. drives every shard's synthesizer on its cohort column — through the
//!    persistent [`WorkerPool`] when there is more than one shard,
//! 3. produces the population-level release according to the engine's
//!    [`AggregationPolicy`]:
//!    * **per-shard noise** — merges the per-shard releases back into one
//!      population-level release ([`MergeRelease`] — a word-level
//!      concatenation), bit-exact with the pre-policy engine;
//!    * **shared noise** — sums the shards' *unnoised* two-phase
//!      aggregates ([`MergeAggregate`]) and has the population
//!      synthesizer privatize the sum with a single noise draw,
//! 4. hands the round (tagged with the policy) to the attached
//!    [`ReleaseSink`], if any, and
//! 5. refreshes the aggregate two-level [`EngineBudget`].
//!
//! Parallelism note: the engine owns (or shares) a `longsynth-pool`
//! [`WorkerPool`] — threads are created once at construction and fed jobs
//! every round, replacing the previous per-round `std::thread::scope`
//! spawns. Each round, shard synthesizers are *moved* into pool jobs and
//! moved back out with their results (the pool's ordered-batch contract),
//! so no `unsafe` borrowing is involved and shard order is preserved.
//! Construct with [`ShardedEngine::with_pool`] to share one pool between
//! several engines or with a serving front-end.
//!
//! The engine keeps shard synthesizers by value and in order, so between
//! rounds callers can inspect any shard (e.g. per-shard estimates, clamp
//! counters) through [`ShardedEngine::shard`] — and the population
//! synthesizer through [`ShardedEngine::population_synthesizer`].
//!
//! ## Panel schedules
//!
//! Every engine runs a [`PanelSchedule`] and is built from [`PanelSlot`]s.
//! [`new`](ShardedEngine::new) and [`with_pool`](ShardedEngine::with_pool)
//! derive the **static** schedule from their shards — every cohort enters
//! at round 0 and stays the whole run — so the static lockstep panel is
//! not a separate code path but the degenerate schedule.
//! [`with_schedule`](ShardedEngine::with_schedule) takes an explicit
//! schedule (static, or a **rotating panel**): each global
//! round it steps only the schedule's *active set*, late entrants start at
//! their own local round 0, and retired cohorts stay sealed (their
//! synthesizers reject further input but remain inspectable). Either way
//! the generalized parallel-composition invariant — no individual's
//! lifetime zCDP spend exceeds the schedule's cap — is re-verified every
//! round in every build; a violation is an
//! [`EngineError::BudgetCapExceeded`].
//!
//! Shared noise runs on rotating schedules too, provided the population
//! synthesizer can forget retiring cohorts: its
//! [`cohort_retirement_window`](ContinualSynthesizer::cohort_retirement_window)
//! is `Some(W)` with `W` at least the longest cohort horizon (the
//! cumulative family's windowed release mode). The engine sums each
//! cohort's per-round phase-1 aggregates into a lifetime view and hands
//! it to the population synthesizer's
//! [`forget_cohort`](ContinualSynthesizer::forget_cohort) when the
//! schedule seals the cohort, so the single per-round population noise
//! draw keeps describing the live panel instead of saturating. The views
//! are raw pre-noise statistics that flow only into the privatization
//! barrier: the subtraction happens before any noise is drawn, so a
//! retired individual's terms cancel exactly, and since no one is active
//! for more than `W` rounds the windowed mode's `ρ/W` per round composes
//! to `ρ` over any lifetime. On a static schedule nothing retires, and
//! the same population path runs without lifetime views.

use longsynth::{ContinualSynthesizer, SynthError};
use longsynth_dp::budget::Rho;
use longsynth_ingest::SealedRound;
use longsynth_pool::WorkerPool;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::budget::{exceeds_cap, EngineBudget};
use crate::merge::{MergeAggregate, MergeRelease};
use crate::obs::{EngineObserver, PhaseClock};
use crate::policy::{AggregationPolicy, PolicyTag};
use crate::shard::{CohortSchedule, PanelSchedule, PanelSlot, ShardPlan, ShardableInput, SlotRole};
use crate::sink::ReleaseSink;
use crate::EngineError;

/// A sharded multi-cohort streaming engine over any synthesizer family.
///
/// Every engine runs a [`PanelSchedule`], and every constructor ends in
/// one build path that fills one [`PanelSlot`] per cohort (plus the
/// population slot under shared noise) and checks each synthesizer
/// against its slot. [`new`](Self::new)/[`with_pool`](Self::with_pool)
/// take a `(shard, size)` factory under per-shard noise: they require
/// identically configured shards (same horizon, same total budget), fail
/// with [`EngineError::HeterogeneousShards`] otherwise, and derive the
/// static schedule from shard 0, where every cohort is active every
/// round. [`with_schedule`](Self::with_schedule) takes the schedule and
/// the [`AggregationPolicy`] explicitly — per-cohort entry rounds,
/// horizons and budgets, and for shared noise one extra population-level
/// synthesizer carrying the population budget. Constructors take a
/// factory so per-shard RNG streams stay independent.
pub struct ShardedEngine<S: ContinualSynthesizer> {
    plan: ShardPlan,
    /// The panel lifecycle this engine runs: the static schedule a plan
    /// constructor derives, or the one passed to
    /// [`with_schedule`](Self::with_schedule).
    schedule: PanelSchedule,
    /// Cached `schedule.is_static()`: a static panel emits plain lockstep
    /// sink rounds and retires no cohorts.
    static_panel: bool,
    policy: AggregationPolicy,
    shards: Vec<S>,
    /// Scratch for [`Self::drive_active`]'s take-by-slot scatter/gather,
    /// kept across rounds so steady-state rounds allocate no slot vectors.
    slot_scratch: Vec<Option<S>>,
    /// The active set of the latest round and its split layout, rebuilt
    /// only when the set changes — never on a static panel — so
    /// steady-state rounds allocate neither.
    active: Vec<usize>,
    layout: ShardPlan,
    /// The finalize-only population synthesizer (shared-noise policy with
    /// more than one shard), on static and rotating schedules alike.
    population: Option<S>,
    /// Rounds whose cohort retirements have been applied to the
    /// population synthesizer (`0..retired_through`) — keeps retirement
    /// idempotent if a failed round is retried.
    retired_through: usize,
    /// Cohorts the population synthesizer has forgotten so far.
    retired: usize,
    /// Per-cohort **lifetime aggregates** (shared noise on a rotating
    /// schedule only): the element-wise running sum of each cohort's
    /// per-round phase-1 aggregates, handed to the population
    /// synthesizer's `forget_cohort` when the schedule seals the cohort.
    /// Raw pre-noise statistics, like every aggregate — they only ever
    /// flow into `finalize`/`forget_cohort`.
    lifetime: Vec<Option<S::Aggregate>>,
    rounds_fed: usize,
    pool: Option<Arc<WorkerPool>>,
    sink: Option<Box<dyn ReleaseSink<S::Release>>>,
    /// Round-span metrics + privacy-budget audit ledger; `None` (the
    /// default) runs the identical uninstrumented path. See
    /// [`crate::obs`].
    obs: Option<EngineObserver>,
}

impl<S> ShardedEngine<S>
where
    S: ContinualSynthesizer,
{
    /// Build an engine over `plan`, creating one synthesizer per shard with
    /// `factory(shard_index, cohort_size)`, under the default
    /// [`AggregationPolicy::PerShardNoise`].
    ///
    /// A multi-shard engine creates its own [`WorkerPool`] sized to the
    /// machine (at most one worker per shard); a 1-shard engine steps
    /// inline and spawns no threads. Use [`with_pool`](Self::with_pool) to
    /// share an existing pool instead.
    pub fn new(
        plan: ShardPlan,
        factory: impl FnMut(usize, usize) -> S,
    ) -> Result<Self, EngineError> {
        Self::build(plan, factory, None)
    }

    /// Build an engine that runs its per-shard steps on `pool` — the
    /// deployment shape where one persistent pool backs both the engine
    /// and the serving front-end. Default per-shard noise policy.
    pub fn with_pool(
        plan: ShardPlan,
        factory: impl FnMut(usize, usize) -> S,
        pool: Arc<WorkerPool>,
    ) -> Result<Self, EngineError> {
        Self::build(plan, factory, Some(pool))
    }

    /// Build a **dynamic-panel** engine over a [`PanelSchedule`]: cohorts
    /// join and retire per their schedules, each global round steps only
    /// the active set, and the per-individual budget invariant (max
    /// lifetime spend ≤ the schedule's cap) is maintained every round.
    ///
    /// The factory is called once per [`PanelSlot`] — every cohort, in
    /// cohort order, with its own entry round, horizon, and absolute
    /// budget; plus, for shared noise with more than one cohort, once with
    /// [`SlotRole::Population`] carrying the population-level budget
    /// (`population_share ×` the schedule's cap) and the constant active
    /// population size. Construction verifies each synthesizer honored its
    /// slot's horizon and budget, and that no cohort's budget plus the
    /// population budget over-commits the cap.
    ///
    /// A static schedule (all cohorts entering at round 0 under the
    /// global horizon) is exactly what [`new`](Self::new) builds from
    /// identical shards, so both run the same rounds.
    pub fn with_schedule(
        schedule: PanelSchedule,
        policy: AggregationPolicy,
        factory: impl FnMut(PanelSlot) -> S,
    ) -> Result<Self, EngineError> {
        Self::build_scheduled(schedule, policy, factory, None)
    }

    /// [`with_schedule`](Self::with_schedule) on a shared pool.
    pub fn with_schedule_and_pool(
        schedule: PanelSchedule,
        policy: AggregationPolicy,
        factory: impl FnMut(PanelSlot) -> S,
        pool: Arc<WorkerPool>,
    ) -> Result<Self, EngineError> {
        Self::build_scheduled(schedule, policy, factory, Some(pool))
    }

    /// A pool sized to the widest active set, or `None` when no round
    /// steps more than one cohort (such engines step inline). Counts
    /// without allocating: construction sits inside the hot-path
    /// allocation budget.
    fn own_schedule_pool(schedule: &PanelSchedule) -> Option<Arc<WorkerPool>> {
        let max_active = (0..schedule.global_horizon())
            .map(|round| {
                (0..schedule.cohorts())
                    .filter(|&c| schedule.cohort(c).is_active(round))
                    .count()
            })
            .max()
            .unwrap_or(0);
        if max_active > 1 {
            Some(Arc::new(WorkerPool::with_capacity_hint(max_active)))
        } else {
            None
        }
    }

    /// The `(shard, size)` constructors: build the shards, check they
    /// agree, and run them as the static schedule derived from shard 0 —
    /// every cohort at entry 0 with shard 0's horizon and budget, which is
    /// also the cap (per-shard noise spends no population level).
    fn build(
        plan: ShardPlan,
        mut factory: impl FnMut(usize, usize) -> S,
        pool: Option<Arc<WorkerPool>>,
    ) -> Result<Self, EngineError> {
        let shards: Vec<S> = (0..plan.shards())
            .map(|s| factory(s, plan.cohort_size(s)))
            .collect();
        validate_homogeneous(&shards)?;
        let cohort = CohortSchedule {
            entry_round: 0,
            horizon: shards[0].horizon(),
            budget: shards[0].budget_total(),
        };
        let schedule = PanelSchedule::new(
            (0..plan.shards())
                .map(|s| (plan.cohort_size(s), cohort))
                .collect(),
            cohort.horizon,
            cohort.budget,
        )?;
        let mut shards = shards.into_iter();
        Self::build_scheduled(
            schedule,
            AggregationPolicy::PerShardNoise,
            |_| shards.next().expect("one built shard per cohort"),
            pool,
        )
    }

    /// The one build path: fill every [`PanelSlot`] of `schedule`, check
    /// each synthesizer against its slot, and assemble the engine.
    fn build_scheduled(
        schedule: PanelSchedule,
        policy: AggregationPolicy,
        mut factory: impl FnMut(PanelSlot) -> S,
        pool: Option<Arc<WorkerPool>>,
    ) -> Result<Self, EngineError> {
        policy.validate()?;
        let total = schedule.total_budget();
        let population_budget = policy.population_budget(schedule.cohorts(), total);
        if let Some(rho_pop) = population_budget {
            // The population synthesizer's size is pinned at round 0, so a
            // rotating schedule must keep the active population constant
            // (make the wave sizes divide evenly). Under churn its
            // statistics must also forget each retiring cohort, which the
            // family has to support (checked below, after the factory
            // runs).
            if !schedule.is_static() && !schedule.constant_active_population() {
                return Err(EngineError::InvalidSchedule(
                    "the shared-noise policy needs a constant active population (its \
                     single population synthesizer's size is pinned at round 0); make \
                     the rotating wave sizes divide the panel evenly, or run per-shard \
                     noise"
                        .to_string(),
                ));
            }
            // Generalized over-commit check: an individual's lifetime
            // spend is their cohort's budget plus the population level.
            for cohort in 0..schedule.cohorts() {
                let lifetime = schedule.cohort(cohort).budget.value() + rho_pop.value();
                if lifetime > total.value() + 1e-12 {
                    return Err(EngineError::InvalidSchedule(format!(
                        "budget over-commit under shared noise: cohort {cohort}'s budget {} \
                         plus the population budget {rho_pop} exceeds the per-individual \
                         cap {total}",
                        schedule.cohort(cohort).budget
                    )));
                }
            }
        }
        let shards: Vec<S> = (0..schedule.cohorts())
            .map(|c| {
                factory(PanelSlot {
                    role: SlotRole::Shard(c),
                    size: schedule.cohort_size(c),
                    entry_round: schedule.cohort(c).entry_round,
                    horizon: schedule.cohort(c).horizon,
                    budget: schedule.cohort(c).budget,
                })
            })
            .collect();
        for (cohort, synth) in shards.iter().enumerate() {
            validate_slot(synth, Some(cohort), schedule.cohort(cohort).horizon, {
                schedule.cohort(cohort).budget
            })?;
        }
        let population = population_budget
            .map(|budget| {
                let synth = factory(PanelSlot {
                    role: SlotRole::Population,
                    size: schedule.active_population(0),
                    entry_round: 0,
                    horizon: schedule.global_horizon(),
                    budget,
                });
                validate_slot(&synth, None, schedule.global_horizon(), budget)?;
                if !schedule.is_static() {
                    validate_retirement(&synth, &schedule)?;
                }
                Ok::<_, EngineError>(synth)
            })
            .transpose()?;
        let plan = ShardPlan::from_sizes(
            &(0..schedule.cohorts())
                .map(|c| schedule.cohort_size(c))
                .collect::<Vec<_>>(),
        )?;
        Self::assemble(plan, schedule, policy, shards, population, pool)
    }

    /// The constructor tail every engine shares: the round-0 active set
    /// and layout, the lifetime views a retiring population synthesizer
    /// needs, and the engine's own pool when none was passed in.
    fn assemble(
        plan: ShardPlan,
        schedule: PanelSchedule,
        policy: AggregationPolicy,
        shards: Vec<S>,
        population: Option<S>,
        pool: Option<Arc<WorkerPool>>,
    ) -> Result<Self, EngineError> {
        let active = schedule.active(0);
        let layout = schedule.active_layout(0)?;
        let lifetime = if population.is_some() && !schedule.is_static() {
            (0..schedule.cohorts()).map(|_| None).collect()
        } else {
            Vec::new()
        };
        let pool = pool.or_else(|| Self::own_schedule_pool(&schedule));
        Ok(Self {
            plan,
            static_panel: schedule.is_static(),
            schedule,
            policy,
            shards,
            slot_scratch: Vec::new(),
            active,
            layout,
            population,
            retired_through: 0,
            retired: 0,
            lifetime,
            rounds_fed: 0,
            pool,
            sink: None,
            obs: None,
        })
    }

    /// The cohort partition this engine runs over (the full panel, active
    /// or not).
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The panel lifecycle schedule: static for a plan-built engine, the
    /// one passed to [`with_schedule`](Self::with_schedule) otherwise.
    pub fn schedule(&self) -> &PanelSchedule {
        &self.schedule
    }

    /// The cohorts the *next* round will step: the schedule's active set
    /// (every cohort, on a static panel). Empty once the horizon is
    /// exhausted.
    pub fn active_cohorts(&self) -> Vec<usize> {
        if self.rounds_fed >= self.horizon() {
            return Vec::new();
        }
        self.schedule.active(self.rounds_fed)
    }

    /// The aggregation policy this engine runs under.
    pub fn policy(&self) -> AggregationPolicy {
        self.policy
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Borrow shard `s`'s synthesizer (for between-round inspection).
    pub fn shard(&self, s: usize) -> &S {
        &self.shards[s]
    }

    /// Borrow the population-level synthesizer, when the engine runs one
    /// (shared-noise policy with more than one shard). Its estimates are
    /// the population-accuracy product the policy exists for; on a
    /// rotating schedule they are scoped to the current active set.
    pub fn population_synthesizer(&self) -> Option<&S> {
        self.population.as_ref()
    }

    /// Whether the population synthesizer forgets retiring cohorts:
    /// shared noise on a rotating schedule.
    fn retires_cohorts(&self) -> bool {
        self.population.is_some() && !self.static_panel
    }

    /// Cohorts forgotten by the population synthesizer so far — `Some`
    /// exactly when the engine runs shared noise on a rotating schedule.
    pub fn retired_cohorts(&self) -> Option<usize> {
        self.retires_cohorts().then_some(self.retired)
    }

    /// Rounds fed so far.
    pub fn rounds_fed(&self) -> usize {
        self.rounds_fed
    }

    /// The engine's horizon: the schedule's global horizon (the uniform
    /// shard horizon, on a plan-built engine).
    pub fn horizon(&self) -> usize {
        self.schedule.global_horizon()
    }

    /// The worker pool driving multi-shard steps (`None` for a 1-shard
    /// engine constructed without one).
    pub fn pool(&self) -> Option<&Arc<WorkerPool>> {
        self.pool.as_ref()
    }

    /// Attach a [`ReleaseSink`] observing every completed round (replaces
    /// any previous sink). See the `sink` module docs for the contract.
    pub fn set_sink(&mut self, sink: Box<dyn ReleaseSink<S::Release>>) {
        self.sink = Some(sink);
    }

    /// Detach and return the current sink, if any.
    pub fn take_sink(&mut self) -> Option<Box<dyn ReleaseSink<S::Release>>> {
        self.sink.take()
    }

    /// Attach an [`EngineObserver`] (round-span metrics + privacy-budget
    /// audit ledger; see [`crate::obs`]), replacing any previous one.
    /// Without an observer the engine runs the identical uninstrumented
    /// path.
    pub fn set_observer(&mut self, observer: EngineObserver) {
        self.obs = Some(observer);
    }

    /// Borrow the attached observer, if any (e.g. to read its ledger).
    pub fn observer(&self) -> Option<&EngineObserver> {
        self.obs.as_ref()
    }

    /// Detach and return the current observer, if any.
    pub fn take_observer(&mut self) -> Option<EngineObserver> {
        self.obs.take()
    }

    /// Commit one completed round to the attached observer: phase spans
    /// plus a ledger event per budget line that moved. Called at every
    /// round-completion point, after the sink saw the round and before
    /// the global clock advances (so `rounds_fed` *is* the round id). A
    /// no-op without an observer.
    fn commit_round_observation(&mut self, clock: PhaseClock) {
        if self.obs.is_none() {
            return;
        }
        let round = self.rounds_fed;
        let per_cohort: Vec<f64> = self
            .shards
            .iter()
            .map(|s| s.budget_spent().value())
            .collect();
        let population = self.population.as_ref().map(|p| p.budget_spent().value());
        self.obs.as_mut().expect("checked above").commit_round(
            round,
            clock,
            &per_cohort,
            population,
        );
    }

    /// Aggregate zCDP budget state: per-shard cohort level plus, when the
    /// engine runs a population synthesizer, the population level.
    pub fn budget(&self) -> EngineBudget {
        EngineBudget::from_levels(
            self.shards
                .iter()
                .map(|s| (s.budget_spent(), s.budget_total())),
            self.population
                .as_ref()
                .map(|p| (p.budget_spent(), p.budget_total())),
        )
    }
}

impl<S: ContinualSynthesizer> std::fmt::Debug for ShardedEngine<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ShardedEngine[shards={}, population={}, rounds_fed={}, policy={}, pooled={}, sink={}]",
            self.shards.len(),
            self.plan.population(),
            self.rounds_fed,
            self.policy,
            self.pool.is_some(),
            self.sink.is_some(),
        )
    }
}

/// Reject factories that produce differently-configured shards: the engine
/// feeds shards in lockstep and merges positionally, which is only sound
/// when every shard runs the same algorithm configuration. Checks the two
/// trait-visible invariants (horizon and total budget); a mismatch gets a
/// descriptive [`EngineError::HeterogeneousShards`] naming the first
/// offending shard.
fn validate_homogeneous<S: ContinualSynthesizer>(shards: &[S]) -> Result<(), EngineError> {
    let horizon = shards[0].horizon();
    let budget = shards[0].budget_total();
    for (index, shard) in shards.iter().enumerate().skip(1) {
        if shard.horizon() != horizon {
            return Err(EngineError::HeterogeneousShards {
                shard: index,
                field: "horizon",
                expected: horizon.to_string(),
                actual: shard.horizon().to_string(),
            });
        }
        if (shard.budget_total().value() - budget.value()).abs() > f64::EPSILON {
            return Err(EngineError::HeterogeneousShards {
                shard: index,
                field: "total budget",
                expected: budget.to_string(),
                actual: shard.budget_total().to_string(),
            });
        }
    }
    Ok(())
}

/// A scheduled slot's synthesizer must carry exactly the horizon and total
/// budget its [`PanelSlot`] asked for — the per-cohort generalization of
/// [`validate_homogeneous`], producing a [`EngineError::ScheduleMismatch`]
/// naming the slot and field instead of the blanket heterogeneity
/// rejection.
fn validate_slot<S: ContinualSynthesizer>(
    synth: &S,
    cohort: Option<usize>,
    horizon: usize,
    budget: Rho,
) -> Result<(), EngineError> {
    if synth.horizon() != horizon {
        return Err(EngineError::ScheduleMismatch {
            cohort,
            field: "horizon",
            expected: horizon.to_string(),
            actual: synth.horizon().to_string(),
        });
    }
    let configured = synth.budget_total().value();
    let scale = configured.abs().max(budget.value().abs()).max(1.0);
    if (configured - budget.value()).abs() > 1e-9 * scale {
        return Err(EngineError::ScheduleMismatch {
            cohort,
            field: "total budget",
            expected: budget.to_string(),
            actual: synth.budget_total().to_string(),
        });
    }
    Ok(())
}

/// A rotating schedule's population synthesizer must forget each cohort
/// the schedule seals, over a membership window as long as the schedule's
/// longest cohort horizon. Checked at construction, so a family without
/// retirement support, or a too-small window, fails fast instead of dying
/// mid-run (after budget was spent) on its first retirement or
/// above-window crossing.
fn validate_retirement<S: ContinualSynthesizer>(
    synth: &S,
    schedule: &PanelSchedule,
) -> Result<(), EngineError> {
    let longest = (0..schedule.cohorts())
        .map(|c| schedule.cohort(c).horizon)
        .max()
        .expect("schedules have cohorts");
    match synth.cohort_retirement_window() {
        None => Err(EngineError::InvalidSchedule(
            "this synthesizer cannot forget retiring cohorts, so it cannot serve \
             as a windowed population synthesizer; run rotating panels under \
             per-shard noise, or configure a family with cohort-retirement \
             support (the cumulative family's windowed release mode, \
             CumulativeConfig::with_window)"
                .to_string(),
        )),
        Some(window) if window < longest => Err(EngineError::InvalidSchedule(format!(
            "the population synthesizer's membership-window bound {window} is smaller \
             than the schedule's longest cohort horizon {longest}; configure it with a \
             window of at least {longest}"
        ))),
        Some(_) => Ok(()),
    }
}

/// Sum per-cohort aggregates on the global clock, in cohort order: each
/// is aligned to the 1-based `round` the sum will be finalized at.
fn merge_at_round<A: MergeAggregate>(
    aggregates: impl IntoIterator<Item = A>,
    round: usize,
) -> Result<A, EngineError> {
    A::merge(aggregates.into_iter().map(|a| a.align_to_round(round)))
}

impl<S> ShardedEngine<S>
where
    S: ContinualSynthesizer + Send + 'static,
    S::Input: ShardableInput + Send + 'static,
    S::Release: MergeRelease + Send + 'static,
    S::Aggregate: MergeAggregate + Clone + Send + 'static,
{
    /// Feed one population-level column; returns the population-level
    /// release (policy-dependent: concatenated cohort releases, or the
    /// shared-noise population synthesis).
    ///
    /// On a dynamic-panel engine the column covers only the round's
    /// **active set** — the concatenation of the active cohorts' reports
    /// in cohort order, per
    /// [`PanelSchedule::active_layout`](crate::PanelSchedule::active_layout)
    /// — and the release likewise covers the active population.
    pub fn step(&mut self, column: &S::Input) -> Result<S::Release, EngineError> {
        let mut clock = PhaseClock::new(self.obs.is_some());
        let (active, parts) = self.begin_scheduled_round(column)?;
        clock.lap_prepare();
        // Shared noise: every cohort prepares + finalizes its own release,
        // and the round tail privatizes the sum of the active cohorts'
        // aggregates once. Per-shard noise: the cohorts step.
        let driven = if self.population.is_some() {
            self.drive_active(&active, parts, |synth, part| {
                let aggregate = synth.prepare(&part)?;
                let release = synth.finalize(aggregate.clone())?;
                Ok((aggregate, release))
            })
            .map(|pairs| pairs.into_iter().unzip())
        } else {
            self.drive_active(&active, parts, |synth, part| synth.step(&part))
                .map(|releases| (Vec::new(), releases))
        };
        clock.lap_finalize();
        let result = driven.and_then(|(aggregates, releases)| {
            self.end_round(&active, aggregates, releases, clock)
        });
        self.active = active;
        result
    }

    /// The tag describing what this engine's merged releases *actually*
    /// are: `Shared` only when a population synthesizer exists. A
    /// shared-noise policy collapsed at one shard emits `PerShard` — its
    /// merged release is the (single-)cohort release at full budget, and
    /// downstream consumers must treat it as a concatenation.
    fn effective_tag(&self) -> PolicyTag {
        if self.population.is_some() {
            PolicyTag::Shared
        } else {
            PolicyTag::PerShard
        }
    }

    /// Validate a round and split its column: global-horizon check,
    /// active-set lookup, active-population check, word-level split into
    /// per-active-cohort parts. Returns the active set, taken out of the
    /// engine's scratch; the caller puts it back once the round is done.
    /// Debug builds also assert that no active cohort lags the global
    /// clock (cohort `c`'s local round is at least `round − entry`; a
    /// failed round may leave survivors ahead) and that no sealed
    /// synthesizer is about to be stepped.
    fn begin_scheduled_round(
        &mut self,
        column: &S::Input,
    ) -> Result<(Vec<usize>, Vec<S::Input>), EngineError> {
        let schedule = &self.schedule;
        let round = self.rounds_fed;
        if round >= schedule.global_horizon() {
            return Err(EngineError::HorizonExhausted {
                horizon: schedule.global_horizon(),
            });
        }
        let unchanged = (0..schedule.cohorts())
            .filter(|&c| schedule.cohort(c).is_active(round))
            .eq(self.active.iter().copied());
        if !unchanged {
            self.layout = schedule.active_layout(round)?;
            self.active = schedule.active(round);
        }
        let expected = self.layout.population();
        if column.population() != expected {
            return Err(EngineError::PopulationMismatch {
                expected,
                actual: column.population(),
            });
        }
        #[cfg(debug_assertions)]
        for &c in &self.active {
            let local = round - self.schedule.cohort(c).entry_round;
            debug_assert!(
                self.shards[c].round() >= local,
                "cohort {c} fell behind the global clock"
            );
            debug_assert!(
                self.shards[c].round() > local || !self.shards[c].is_sealed(),
                "cohort {c} is sealed but scheduled active at round {round}"
            );
        }
        let parts = column.split(&self.layout);
        Ok((std::mem::take(&mut self.active), parts))
    }

    /// Hand the completed round to the sink, if any. A static panel emits
    /// a plain lockstep round — every cohort participated, so downstream
    /// stores keep a static store with a rectangular merged panel; only a
    /// genuinely rotating round carries the active set.
    fn notify_sink(
        &mut self,
        active: &[usize],
        releases: &[S::Release],
        merged: &S::Release,
        clock: &mut PhaseClock,
    ) {
        let tag = self.effective_tag();
        let Some(sink) = &mut self.sink else {
            return;
        };
        let round = self.rounds_fed;
        if self.static_panel {
            sink.on_round(round, releases, merged, tag);
        } else {
            sink.on_round_active(round, self.shards.len(), active, releases, merged, tag);
        }
        clock.lap_sink();
    }

    /// The tail of every [`step`](Self::step), once its cohorts ran: fold
    /// the cohort `aggregates` into the lifetime views and apply the
    /// retirements due at this boundary, produce the population release,
    /// verify the budget cap, notify the sink, commit the observation and
    /// advance the round clock. Under shared noise the population
    /// synthesizer privatizes the aggregates' sum on the global clock;
    /// under per-shard noise the cohort `releases` concatenate in cohort
    /// order.
    fn end_round(
        &mut self,
        active: &[usize],
        aggregates: Vec<S::Aggregate>,
        releases: Vec<S::Release>,
        mut clock: PhaseClock,
    ) -> Result<S::Release, EngineError> {
        let round = self.rounds_fed;
        let merged = if self.population.is_some() {
            // On a rotating schedule the population synthesizer forgets
            // any cohort the schedule sealed at this round boundary, so
            // its statistics keep describing the current active set.
            if self.retires_cohorts() {
                self.absorb_lifetimes(active, &aggregates)?;
                self.process_retirements(round)?;
            }
            let summed = merge_at_round(aggregates, round + 1)?;
            clock.lap_merge();
            let population = self.population.as_mut().expect("checked population above");
            let merged = population
                .finalize(summed)
                .map_err(|source| EngineError::Population { source })?;
            clock.lap_noise();
            merged
        } else {
            let merged = S::Release::merge(&releases)?;
            clock.lap_merge();
            merged
        };
        // Verify the budget cap BEFORE any sink observes the round: an
        // over-budget release must not reach downstream stores.
        self.verify_budget_invariant_at(round)?;
        self.notify_sink(active, &releases, &merged, &mut clock);
        self.commit_round_observation(clock);
        self.rounds_fed += 1;
        Ok(merged)
    }

    /// The one scatter/gather skeleton behind every round: run
    /// `op` on each active cohort's synthesizer with its part, in active
    /// order — inline for a single cohort or a pool-less engine, else on
    /// the worker pool. Synthesizers move into the jobs and back by slot;
    /// each job catches a panicking `op` around a *borrow* of its
    /// synthesizer, so the synthesizer survives either way. Every cohort
    /// is driven even when an earlier one fails, so the survivors stay in
    /// lockstep; the first error is reported, and a panic is re-raised
    /// only after every synthesizer is back in place.
    fn drive_active<P: Send + 'static, T: Send + 'static>(
        &mut self,
        active: &[usize],
        parts: Vec<P>,
        op: impl Fn(&mut S, P) -> Result<T, SynthError> + Copy + Send + Sync + 'static,
    ) -> Result<Vec<T>, EngineError> {
        let mut outputs = Vec::with_capacity(active.len());
        let mut first_error = None;
        if self.pool.is_none() || active.len() == 1 {
            for (&c, part) in active.iter().zip(parts) {
                match op(&mut self.shards[c], part) {
                    Ok(output) => outputs.push(output),
                    Err(source) if first_error.is_none() => {
                        first_error = Some(EngineError::Shard { shard: c, source });
                    }
                    Err(_) => {}
                }
            }
            return match first_error {
                Some(error) => Err(error),
                None => Ok(outputs),
            };
        }
        let pool = Arc::clone(self.pool.as_ref().expect("checked above"));
        // Reuse the slot scratch (and `self.shards`' own buffer, which
        // `drain` leaves allocated): steady-state rounds allocate nothing
        // here but the job closures.
        let mut slots = std::mem::take(&mut self.slot_scratch);
        debug_assert!(slots.is_empty());
        slots.extend(self.shards.drain(..).map(Some));
        let jobs: Vec<_> = active
            .iter()
            .zip(parts)
            .map(|(&c, part)| {
                let mut synth = slots[c].take().expect("active cohort exists once");
                move || {
                    let result = catch_unwind(AssertUnwindSafe(|| op(&mut synth, part)));
                    (c, synth, result)
                }
            })
            .collect();
        let outcomes = pool.run_batch(jobs);
        let mut first_panic = None;
        for (c, synth, result) in outcomes {
            slots[c] = Some(synth);
            match result {
                Ok(Ok(output)) => outputs.push(output),
                Ok(Err(source)) if first_error.is_none() => {
                    first_error = Some(EngineError::Shard { shard: c, source });
                }
                Ok(Err(_)) => {}
                Err(payload) if first_panic.is_none() => first_panic = Some(payload),
                Err(_) => {}
            }
        }
        self.shards.extend(
            slots
                .drain(..)
                .map(|slot| slot.expect("every cohort returned from the batch")),
        );
        self.slot_scratch = slots;
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
        match first_error {
            Some(error) => Err(error),
            None => Ok(outputs),
        }
    }

    /// Fold this round's per-cohort phase-1 aggregates into the
    /// per-cohort lifetime views — the exact sums the population
    /// synthesizer forgets at retirement.
    fn absorb_lifetimes(
        &mut self,
        active: &[usize],
        aggregates: &[S::Aggregate],
    ) -> Result<(), EngineError> {
        for (&c, aggregate) in active.iter().zip(aggregates) {
            match &mut self.lifetime[c] {
                slot @ None => *slot = Some(aggregate.clone()),
                Some(view) => view.absorb_round(aggregate)?,
            }
        }
        Ok(())
    }

    /// Have the population synthesizer forget every cohort the schedule
    /// seals at the `round` boundary (its window ended exactly there),
    /// handing its accumulated lifetime aggregate to `forget_cohort`.
    /// Idempotent across retries — a cohort's lifetime view is consumed
    /// (and counted, and `retired_through` advanced) only **after** its
    /// retirement succeeded, so a failed round re-attempts exactly the
    /// retirements that did not apply and never double-subtracts one
    /// that did.
    fn process_retirements(&mut self, round: usize) -> Result<(), EngineError> {
        if round < self.retired_through {
            return Ok(());
        }
        let start = self.retired_through;
        let schedule = &self.schedule;
        let due: Vec<usize> = (0..schedule.cohorts())
            .filter(|&c| {
                let cohort = schedule.cohort(c);
                let seal = cohort.entry_round + cohort.horizon;
                (start.max(1)..=round).contains(&seal)
            })
            .collect();
        let population = self.population.as_mut().expect("retiring engines have one");
        for c in due {
            // Already-applied retirements (a partially failed earlier
            // attempt) have no lifetime view left — skip them; every
            // sealed cohort stepped at least one active round, so a view
            // always existed before its retirement was first processed.
            let Some(view) = self.lifetime[c].clone() else {
                continue;
            };
            population
                .forget_cohort(view)
                .map_err(|source| EngineError::Population { source })?;
            self.lifetime[c] = None;
            self.retired += 1;
        }
        self.retired_through = round + 1;
        Ok(())
    }

    /// The per-round budget invariant, verified for every round in
    /// **every** build (an O(cohorts) maximum over the synthesizers'
    /// spends, cheap enough to always run — a release binary must not
    /// silently skip budget-cap enforcement): no individual's lifetime
    /// zCDP spend — their cohort's spend plus the population level — may
    /// exceed the schedule's per-individual cap. Checked after the
    /// round's synthesis but **before any sink observes the round**, so
    /// an over-budget release never reaches downstream stores. The
    /// exhaustive cross-checks (lockstep clocks, sealed-cohort sweeps in
    /// [`begin_scheduled_round`](Self::begin_scheduled_round)) stay
    /// debug-only.
    fn verify_budget_invariant_at(&self, round: usize) -> Result<(), EngineError> {
        let cohort = self
            .shards
            .iter()
            .map(S::budget_spent)
            .max_by(|a, b| a.value().total_cmp(&b.value()))
            .expect("engines have shards");
        let spent = match &self.population {
            Some(population) => cohort.compose(population.budget_spent()),
            None => cohort,
        };
        let cap = self.schedule.total_budget();
        if exceeds_cap(spent, cap) {
            return Err(EngineError::BudgetCapExceeded { round, spent, cap });
        }
        Ok(())
    }

    /// Drive the whole panel stream, returning every population release.
    pub fn run<'a, I>(&mut self, columns: I) -> Result<Vec<S::Release>, EngineError>
    where
        I: IntoIterator<Item = &'a S::Input>,
        S::Input: 'a,
    {
        columns.into_iter().map(|c| self.step(c)).collect()
    }

    /// Drive the engine from watermark-sealed event-time rounds instead
    /// of a pre-binned column sequence — the streaming counterpart of
    /// [`run`](Self::run).
    ///
    /// `rounds` is typically a blocking `longsynth_ingest::SealedRounds`
    /// iterator: the engine steps each round **as the watermark seals
    /// it**, so releases flow while producers are still sending. Each
    /// sealed round's index is validated against the engine's own round
    /// clock ([`EngineError::IngestOutOfOrder`] on any gap or reorder) —
    /// the binner seals contiguously from round 0, so a mismatch means
    /// the stream was tampered with in between.
    ///
    /// Replay guarantee (property-pinned in
    /// `tests/ingest_equivalence.rs`): binning a pre-binned round
    /// sequence through the ingest tier and feeding the sealed rounds
    /// here produces **bit-identical** releases to calling
    /// [`run`](Self::run) on the original sequence.
    ///
    /// Pass `&mut sealed_rounds` to keep the iterator (and its
    /// end-of-run `stats()`) alive after the run completes.
    pub fn run_from_ingest<I>(&mut self, rounds: I) -> Result<Vec<S::Release>, EngineError>
    where
        I: IntoIterator<Item = SealedRound<S::Input>>,
    {
        let mut driver = IngestDriver::new(self);
        let mut releases = Vec::new();
        for sealed in rounds {
            releases.push(driver.on_sealed(&sealed)?);
        }
        Ok(releases)
    }
}

/// Incremental event-time driver: validates and steps one watermark-sealed
/// round at a time.
///
/// [`ShardedEngine::run_from_ingest`] is the batch wrapper; hold an
/// `IngestDriver` directly when releases must be dispatched as they are
/// produced (e.g. pushing each release to a serving tier while the ingest
/// stream is still live) instead of collected into a `Vec` at the end.
///
/// The driver enforces the engine/ingest clock contract: sealed rounds
/// arrive contiguously from the engine's current `rounds_fed`, which is
/// exactly what the binner's monotone seal cursor emits. Any gap or
/// reorder is an [`EngineError::IngestOutOfOrder`] *before* the engine
/// consumes budget on the round.
pub struct IngestDriver<'a, S>
where
    S: ContinualSynthesizer + Send + 'static,
    S::Input: ShardableInput + Send + 'static,
    S::Release: MergeRelease + Send + 'static,
    S::Aggregate: MergeAggregate + Clone + Send + 'static,
{
    engine: &'a mut ShardedEngine<S>,
    rounds_driven: usize,
}

impl<'a, S> IngestDriver<'a, S>
where
    S: ContinualSynthesizer + Send + 'static,
    S::Input: ShardableInput + Send + 'static,
    S::Release: MergeRelease + Send + 'static,
    S::Aggregate: MergeAggregate + Clone + Send + 'static,
{
    /// Wraps an engine. The engine may have already stepped rounds; the
    /// next sealed round must match its current clock.
    pub fn new(engine: &'a mut ShardedEngine<S>) -> Self {
        Self {
            engine,
            rounds_driven: 0,
        }
    }

    /// Validates the sealed round against the engine clock and steps it.
    pub fn on_sealed(&mut self, sealed: &SealedRound<S::Input>) -> Result<S::Release, EngineError> {
        let expected = self.engine.rounds_fed;
        if sealed.round != expected as u64 {
            return Err(EngineError::IngestOutOfOrder {
                expected,
                actual: sealed.round,
            });
        }
        let release = self.engine.step(&sealed.input)?;
        self.rounds_driven += 1;
        Ok(release)
    }

    /// Sealed rounds successfully stepped through this driver.
    pub fn rounds_driven(&self) -> usize {
        self.rounds_driven
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use longsynth::{CumulativeConfig, CumulativeSynthesizer};
    use longsynth_data::generators::iid_bernoulli;
    use longsynth_data::BitColumn;
    use longsynth_dp::budget::Rho;
    use longsynth_dp::rng::{rng_from_seed, RngFork};

    fn cumulative_engine(
        population: usize,
        shards: usize,
        horizon: usize,
        seed: u64,
    ) -> ShardedEngine<CumulativeSynthesizer> {
        let plan = ShardPlan::new(population, shards).unwrap();
        let fork = RngFork::new(seed);
        ShardedEngine::new(plan, |s, _| {
            let config = CumulativeConfig::new(horizon, Rho::new(0.5).unwrap()).unwrap();
            CumulativeSynthesizer::new(
                config,
                fork.subfork(s as u64),
                rng_from_seed(seed ^ s as u64),
            )
        })
        .unwrap()
    }

    fn shared_cumulative_engine(
        population: usize,
        shards: usize,
        horizon: usize,
        seed: u64,
    ) -> ShardedEngine<CumulativeSynthesizer> {
        let fork = RngFork::new(seed);
        let policy = AggregationPolicy::shared();
        let (cohort_share, _) = policy.budget_shares(shards);
        let rho = |v| Rho::new(v).unwrap();
        let schedule = PanelSchedule::uniform(
            population,
            shards,
            horizon,
            rho(0.5 * cohort_share),
            rho(0.5),
        )
        .unwrap();
        ShardedEngine::with_schedule(schedule, policy, |slot| {
            let config = CumulativeConfig::new(horizon, slot.budget).unwrap();
            let stream = match slot.role {
                SlotRole::Shard(s) => s as u64,
                SlotRole::Population => 0xB0B,
            };
            CumulativeSynthesizer::new(config, fork.subfork(stream), rng_from_seed(seed ^ stream))
        })
        .unwrap()
    }

    #[test]
    fn merged_release_covers_whole_population() {
        let data = iid_bernoulli(&mut rng_from_seed(1), 103, 6, 0.3);
        let mut engine = cumulative_engine(103, 4, 6, 7);
        for (_, col) in data.stream() {
            let release = engine.step(col).unwrap();
            assert_eq!(release.len(), 103);
        }
        assert_eq!(engine.rounds_fed(), 6);
        assert!(engine.budget().exhausted());
    }

    #[test]
    fn shared_noise_release_covers_whole_population() {
        let data = iid_bernoulli(&mut rng_from_seed(2), 103, 6, 0.3);
        let mut engine = shared_cumulative_engine(103, 4, 6, 7);
        assert!(engine.population_synthesizer().is_some());
        assert_eq!(engine.policy(), AggregationPolicy::shared());
        for (_, col) in data.stream() {
            let release = engine.step(col).unwrap();
            assert_eq!(release.len(), 103);
        }
        assert_eq!(engine.rounds_fed(), 6);
        let budget = engine.budget();
        assert!(budget.exhausted());
        assert!(budget.has_population_level());
        // Two-level accounting recomposes the configured total.
        assert!((budget.total().value() - 0.5).abs() < 1e-9);
        assert!((budget.population_total().value() - 0.4).abs() < 1e-9);
        assert!((budget.cohort_total().value() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn shared_noise_collapses_at_one_shard() {
        let mut engine = shared_cumulative_engine(50, 1, 4, 3);
        assert!(engine.population_synthesizer().is_none());
        // The single shard carries the full budget.
        assert!((engine.budget().total().value() - 0.5).abs() < 1e-12);
        // The collapsed engine's merged release *is* the cohort release at
        // full budget — a concatenation — so its rounds carry the
        // per-shard tag, whatever the configured policy says.
        use std::sync::{Arc as StdArc, Mutex};
        let seen: StdArc<Mutex<Vec<PolicyTag>>> = StdArc::default();
        let handle = StdArc::clone(&seen);
        engine.set_sink(Box::new(
            move |_: usize, _: &[BitColumn], _: &BitColumn, policy: PolicyTag| {
                handle.lock().unwrap().push(policy);
            },
        ));
        let data = iid_bernoulli(&mut rng_from_seed(9), 50, 4, 0.3);
        for (_, col) in data.stream() {
            engine.step(col).unwrap();
        }
        assert_eq!(*seen.lock().unwrap(), vec![PolicyTag::PerShard; 4]);
    }

    #[test]
    fn engine_rejects_wrong_population() {
        let mut engine = cumulative_engine(50, 2, 4, 1);
        let wrong = BitColumn::zeros(49);
        assert!(matches!(
            engine.step(&wrong),
            Err(EngineError::PopulationMismatch {
                expected: 50,
                actual: 49
            })
        ));
    }

    /// A population slot whose synthesizer ignores `slot.budget` is
    /// named as the population (`cohort: None`) budget mismatch.
    #[test]
    fn population_slot_budget_is_verified() {
        let policy = AggregationPolicy::shared();
        let (cohort_share, _) = policy.budget_shares(2);
        let rho = |v| Rho::new(v).unwrap();
        let schedule = PanelSchedule::uniform(40, 2, 4, rho(0.5 * cohort_share), rho(0.5)).unwrap();
        let fork = RngFork::new(1);
        let err = ShardedEngine::with_schedule(schedule, policy, |slot| {
            let (stream, rho) = match slot.role {
                SlotRole::Shard(s) => (s as u64, slot.budget),
                SlotRole::Population => (99, rho(0.5)),
            };
            let config = CumulativeConfig::new(4, rho).unwrap();
            CumulativeSynthesizer::new(config, fork.subfork(stream), rng_from_seed(stream))
        })
        .unwrap_err();
        assert!(
            matches!(
                err,
                EngineError::ScheduleMismatch {
                    cohort: None,
                    field: "total budget",
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn degenerate_policy_shares_are_rejected() {
        let schedule =
            PanelSchedule::uniform(40, 2, 4, Rho::new(0.1).unwrap(), Rho::new(0.5).unwrap())
                .unwrap();
        let err = ShardedEngine::<CumulativeSynthesizer>::with_schedule(
            schedule,
            AggregationPolicy::SharedNoise {
                population_share: 1.5,
            },
            |_| unreachable!("factory must not run for an invalid policy"),
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::InvalidPolicy(_)));
    }

    #[test]
    fn determinism_across_runs() {
        let data = iid_bernoulli(&mut rng_from_seed(3), 80, 5, 0.4);
        for shared in [false, true] {
            let run = |seed| {
                let mut engine = if shared {
                    shared_cumulative_engine(80, 4, 5, seed)
                } else {
                    cumulative_engine(80, 4, 5, seed)
                };
                data.stream()
                    .map(|(_, col)| engine.step(col).unwrap())
                    .collect::<Vec<_>>()
            };
            assert_eq!(run(11), run(11), "shared={shared}");
            assert_ne!(run(11), run(12), "shared={shared}");
        }
    }

    #[test]
    fn multi_shard_engines_hold_a_pool_and_single_shard_engines_do_not() {
        let engine = cumulative_engine(60, 3, 4, 5);
        assert!(engine.pool().is_some());
        let single = cumulative_engine(60, 1, 4, 5);
        assert!(single.pool().is_none());
    }

    #[test]
    fn engines_can_share_one_pool() {
        let pool = Arc::new(WorkerPool::new(2));
        let data = iid_bernoulli(&mut rng_from_seed(4), 90, 4, 0.4);
        let build = |seed: u64| {
            let plan = ShardPlan::new(90, 3).unwrap();
            let fork = RngFork::new(seed);
            ShardedEngine::with_pool(
                plan,
                |s, _| {
                    let config = CumulativeConfig::new(4, Rho::new(0.5).unwrap()).unwrap();
                    CumulativeSynthesizer::new(
                        config,
                        fork.subfork(s as u64),
                        rng_from_seed(seed ^ s as u64),
                    )
                },
                Arc::clone(&pool),
            )
            .unwrap()
        };
        let mut a = build(21);
        let mut b = build(22);
        for (_, col) in data.stream() {
            assert_eq!(a.step(col).unwrap().len(), 90);
            assert_eq!(b.step(col).unwrap().len(), 90);
        }
        // Both engines ran on the same two workers.
        assert_eq!(Arc::strong_count(&pool), 3);
    }

    #[test]
    fn heterogeneous_horizons_rejected_with_descriptive_error() {
        let plan = ShardPlan::new(40, 2).unwrap();
        let fork = RngFork::new(1);
        let err = ShardedEngine::new(plan, |s, _| {
            // Shard 1 gets a different horizon — a config bug the engine
            // must name, not silently mis-merge.
            let horizon = if s == 0 { 6 } else { 5 };
            let config = CumulativeConfig::new(horizon, Rho::new(0.5).unwrap()).unwrap();
            CumulativeSynthesizer::new(config, fork.subfork(s as u64), rng_from_seed(s as u64))
        })
        .unwrap_err();
        match &err {
            EngineError::HeterogeneousShards {
                shard,
                field,
                expected,
                actual,
            } => {
                assert_eq!(*shard, 1);
                assert_eq!(*field, "horizon");
                assert_eq!(expected, "6");
                assert_eq!(actual, "5");
            }
            other => panic!("expected HeterogeneousShards, got {other:?}"),
        }
        let message = err.to_string();
        assert!(message.contains("shard 1"), "{message}");
        assert!(message.contains("horizon"), "{message}");
        assert!(message.contains("identically"), "{message}");
    }

    #[test]
    fn heterogeneous_budgets_rejected_with_descriptive_error() {
        let plan = ShardPlan::new(40, 3).unwrap();
        let fork = RngFork::new(2);
        let err = ShardedEngine::new(plan, |s, _| {
            let rho = Rho::new(if s == 2 { 0.25 } else { 0.5 }).unwrap();
            let config = CumulativeConfig::new(4, rho).unwrap();
            CumulativeSynthesizer::new(config, fork.subfork(s as u64), rng_from_seed(s as u64))
        })
        .unwrap_err();
        assert!(matches!(
            &err,
            EngineError::HeterogeneousShards {
                shard: 2,
                field: "total budget",
                ..
            }
        ));
        assert!(err.to_string().contains("total budget"));
    }

    #[test]
    fn sink_observes_every_round_with_merged_and_per_shard_releases() {
        use std::sync::{Arc as StdArc, Mutex};
        type SeenRound = (usize, usize, usize, PolicyTag);
        let data = iid_bernoulli(&mut rng_from_seed(6), 50, 4, 0.3);
        let mut engine = cumulative_engine(50, 2, 4, 13);
        let seen: StdArc<Mutex<Vec<SeenRound>>> = StdArc::default();
        let handle = StdArc::clone(&seen);
        engine.set_sink(Box::new(
            move |round: usize, parts: &[BitColumn], merged: &BitColumn, policy: PolicyTag| {
                handle
                    .lock()
                    .unwrap()
                    .push((round, parts.len(), merged.len(), policy));
            },
        ));
        let mut merged_rounds = Vec::new();
        for (_, col) in data.stream() {
            merged_rounds.push(engine.step(col).unwrap());
        }
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 4);
        for (round, entry) in seen.iter().enumerate() {
            assert_eq!(*entry, (round, 2, 50, PolicyTag::PerShard));
        }
        drop(seen);
        // Detaching restores the clone-free path.
        assert!(engine.take_sink().is_some());
        assert!(engine.take_sink().is_none());
    }

    #[test]
    fn shared_sink_rounds_carry_the_shared_tag() {
        use std::sync::{Arc as StdArc, Mutex};
        let data = iid_bernoulli(&mut rng_from_seed(8), 60, 3, 0.3);
        let mut engine = shared_cumulative_engine(60, 3, 3, 17);
        let seen: StdArc<Mutex<Vec<PolicyTag>>> = StdArc::default();
        let handle = StdArc::clone(&seen);
        engine.set_sink(Box::new(
            move |_round: usize, parts: &[BitColumn], merged: &BitColumn, policy: PolicyTag| {
                assert_eq!(parts.len(), 3);
                assert_eq!(merged.len(), 60);
                handle.lock().unwrap().push(policy);
            },
        ));
        for (_, col) in data.stream() {
            engine.step(col).unwrap();
        }
        assert_eq!(*seen.lock().unwrap(), vec![PolicyTag::Shared; 3]);
    }

    /// A minimal synthesizer that panics on demand — for pinning down the
    /// engine's panic-containment contract.
    struct FragileSynth {
        panic_at_round: Option<usize>,
        round: usize,
    }

    impl ContinualSynthesizer for FragileSynth {
        type Input = BitColumn;
        type Release = BitColumn;
        type Aggregate = BitColumn;

        fn prepare(&mut self, input: &BitColumn) -> Result<BitColumn, SynthError> {
            Ok(input.clone())
        }

        fn finalize(&mut self, aggregate: BitColumn) -> Result<BitColumn, SynthError> {
            if self.panic_at_round == Some(self.round) {
                self.panic_at_round = None; // one-shot failure
                panic!("synthetic shard failure");
            }
            self.round += 1;
            Ok(aggregate)
        }

        fn round(&self) -> usize {
            self.round
        }

        fn horizon(&self) -> usize {
            10
        }

        fn budget_spent(&self) -> Rho {
            Rho::new(0.0).unwrap()
        }

        fn budget_total(&self) -> Rho {
            Rho::new(1.0).unwrap()
        }
    }

    #[test]
    fn engine_survives_a_panicking_shard_structurally_intact() {
        let mut engine = ShardedEngine::new(ShardPlan::new(30, 3).unwrap(), |s, _| FragileSynth {
            // Shard 1 blows up on its second round.
            panic_at_round: (s == 1).then_some(1),
            round: 0,
        })
        .unwrap();
        let column = BitColumn::ones(30);
        engine.step(&column).unwrap();
        let unwound =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.step(&column)));
        assert!(unwound.is_err(), "shard panic propagates to the caller");
        // Every shard (including the panicked one) is back in place: the
        // engine is structurally intact, inspectable, and steppable.
        assert_eq!(engine.shards(), 3);
        assert_eq!(engine.horizon(), 10);
        assert_eq!(engine.shard(0).round(), 2);
        assert_eq!(engine.shard(1).round(), 1); // its step never completed
        assert_eq!(engine.shard(2).round(), 2); // later cohorts still ran
        let release = engine.step(&column).unwrap();
        assert_eq!(release.len(), 30);
    }

    #[test]
    fn sink_does_not_change_released_output() {
        let data = iid_bernoulli(&mut rng_from_seed(7), 64, 5, 0.4);
        for shared in [false, true] {
            let run = |attach_sink: bool| {
                let mut engine = if shared {
                    shared_cumulative_engine(64, 2, 5, 31)
                } else {
                    cumulative_engine(64, 2, 5, 31)
                };
                if attach_sink {
                    engine.set_sink(Box::new(
                        |_: usize, _: &[BitColumn], _: &BitColumn, _: PolicyTag| {},
                    ));
                }
                data.stream()
                    .map(|(_, col)| engine.step(col).unwrap())
                    .collect::<Vec<_>>()
            };
            assert_eq!(run(false), run(true), "shared={shared}");
        }
    }
}
