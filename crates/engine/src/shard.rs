//! Cohort partitioning and panel lifecycle schedules: how a panel is split
//! across engine shards, and *when* each cohort is part of the stream.
//!
//! A [`ShardPlan`] assigns each of the `n` individuals to exactly one of
//! `s` shards as a *contiguous* index range, with sizes as equal as
//! possible (the first `n mod s` shards get one extra individual). Contiguous
//! cohorts make column splitting a cheap copy, keep the merged release's
//! record order stable (shard 0's records first, then shard 1's, …), and
//! mean the disjoint-cohort privacy argument in [`crate::budget`] is
//! immediate: every individual's entire history lives inside one shard.
//!
//! ## Dynamic panels
//!
//! Real longitudinal panels **rotate**: waves of respondents join and
//! retire on staggered timetables (SIPP replaces a quarter of its sample
//! every wave). A [`PanelSchedule`] describes such a panel: one
//! [`CohortSchedule`] per cohort — entry round, horizon, own privacy
//! budget — plus the run's global horizon and the per-individual budget
//! cap. At every global round the schedule names the **active set** of
//! cohorts; the engine steps exactly those, seals cohorts whose horizon
//! has elapsed, and starts late entrants at their own local round 0.
//! A schedule with every cohort entering at round 0 under the global
//! horizon and budget is the *degenerate* (static) schedule — the
//! lockstep panel the engine's plan-based constructors build.

use longsynth_data::categorical::CategoricalColumn;
use longsynth_data::BitColumn;
use longsynth_dp::budget::Rho;
use std::ops::Range;

use crate::EngineError;

/// A partition of `n` individuals into contiguous per-shard cohorts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    population: usize,
    /// `bounds[s]..bounds[s+1]` is shard `s`'s cohort.
    bounds: Vec<usize>,
}

impl ShardPlan {
    /// Partition `population` individuals into `shards` balanced cohorts.
    ///
    /// Requires `shards ≥ 1` and `population ≥ shards` (every shard must
    /// hold at least one individual — an empty cohort would make that
    /// shard's synthesizer degenerate).
    pub fn new(population: usize, shards: usize) -> Result<Self, EngineError> {
        if shards == 0 {
            return Err(EngineError::InvalidPlan(
                "need at least one shard".to_string(),
            ));
        }
        if population < shards {
            return Err(EngineError::InvalidPlan(format!(
                "population {population} smaller than shard count {shards}"
            )));
        }
        let base = population / shards;
        let extra = population % shards;
        let mut bounds = Vec::with_capacity(shards + 1);
        let mut cursor = 0;
        bounds.push(0);
        for s in 0..shards {
            cursor += base + usize::from(s < extra);
            bounds.push(cursor);
        }
        debug_assert_eq!(cursor, population);
        Ok(Self { population, bounds })
    }

    /// Partition into cohorts of explicit `sizes`, in order. Dynamic
    /// panels use this to lay out a round's *active set*, whose cohort
    /// sizes come from the schedule rather than a balanced split.
    ///
    /// Requires at least one cohort and every size ≥ 1.
    pub fn from_sizes(sizes: &[usize]) -> Result<Self, EngineError> {
        if sizes.is_empty() {
            return Err(EngineError::InvalidPlan(
                "need at least one cohort".to_string(),
            ));
        }
        let mut bounds = Vec::with_capacity(sizes.len() + 1);
        let mut cursor = 0;
        bounds.push(0);
        for (index, &size) in sizes.iter().enumerate() {
            if size == 0 {
                return Err(EngineError::InvalidPlan(format!(
                    "cohort {index} has zero individuals"
                )));
            }
            cursor += size;
            bounds.push(cursor);
        }
        Ok(Self {
            population: cursor,
            bounds,
        })
    }

    /// Total population size `n`.
    pub fn population(&self) -> usize {
        self.population
    }

    /// Number of shards `s`.
    pub fn shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The index range of shard `s`'s cohort.
    pub fn range(&self, shard: usize) -> Range<usize> {
        self.bounds[shard]..self.bounds[shard + 1]
    }

    /// Cohort size of shard `s`.
    pub fn cohort_size(&self, shard: usize) -> usize {
        self.range(shard).len()
    }

    /// Which shard individual `i` belongs to.
    pub fn shard_of(&self, individual: usize) -> usize {
        debug_assert!(individual < self.population);
        // bounds is sorted; partition_point finds the first bound > i.
        self.bounds.partition_point(|&b| b <= individual) - 1
    }
}

/// One cohort's place in a dynamic panel: when it joins the stream, how
/// many rounds it stays, and the zCDP budget its synthesizer runs under.
///
/// The cohort is **active** during global rounds
/// `entry_round .. entry_round + horizon`; afterwards its synthesizer is
/// sealed (its releases are final and it accepts no more input). Its local
/// round `r` corresponds to global round `entry_round + r`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CohortSchedule {
    /// Global round at which the cohort joins the panel (its local round 0).
    pub entry_round: usize,
    /// Rounds the cohort stays in the panel (its synthesizer's horizon).
    pub horizon: usize,
    /// Total zCDP budget of the cohort's synthesizer over its lifetime.
    pub budget: Rho,
}

impl CohortSchedule {
    /// The global rounds this cohort is active for.
    pub fn window(&self) -> Range<usize> {
        self.entry_round..self.entry_round + self.horizon
    }

    /// True when the cohort is active at global round `round`.
    pub fn is_active(&self, round: usize) -> bool {
        self.window().contains(&round)
    }
}

/// A dynamic panel: per-cohort sizes and [`CohortSchedule`]s under a
/// global horizon and a per-individual budget cap.
///
/// Construction validates the schedule outright — the checks that replaced
/// the engine's old blanket "all shards must be identical" rejection:
///
/// * at least one cohort, every cohort non-empty;
/// * no zero-length horizons (a cohort that never streams is a config bug);
/// * no cohort window overrunning the global horizon (entry + horizon ≤ T);
/// * no coverage gap (every global round has at least one active cohort —
///   a round with an empty active set has no defined input);
/// * no budget over-commit (no cohort's lifetime budget may exceed the
///   panel's per-individual cap — each individual lives in exactly one
///   cohort, so the cap bounds every individual's lifetime spend).
///
/// Each failure is a descriptive [`EngineError::InvalidSchedule`] naming
/// the offending cohort.
#[derive(Debug, Clone, PartialEq)]
pub struct PanelSchedule {
    sizes: Vec<usize>,
    cohorts: Vec<CohortSchedule>,
    global_horizon: usize,
    total_budget: Rho,
}

impl PanelSchedule {
    /// Build a validated schedule. `cohorts[i]` is `(size, schedule)` of
    /// cohort `i`; `global_horizon` is the run's round count `T`;
    /// `total_budget` caps any individual's lifetime zCDP spend.
    pub fn new(
        cohorts: Vec<(usize, CohortSchedule)>,
        global_horizon: usize,
        total_budget: Rho,
    ) -> Result<Self, EngineError> {
        if cohorts.is_empty() {
            return Err(EngineError::InvalidSchedule(
                "schedule needs at least one cohort".to_string(),
            ));
        }
        if global_horizon == 0 {
            return Err(EngineError::InvalidSchedule(
                "global horizon must be positive".to_string(),
            ));
        }
        if total_budget.value() <= 0.0 {
            return Err(EngineError::InvalidSchedule(
                "total budget must be positive".to_string(),
            ));
        }
        for (index, (size, schedule)) in cohorts.iter().enumerate() {
            if *size == 0 {
                return Err(EngineError::InvalidSchedule(format!(
                    "cohort {index} has zero individuals"
                )));
            }
            if schedule.horizon == 0 {
                return Err(EngineError::InvalidSchedule(format!(
                    "cohort {index} has a zero-length horizon"
                )));
            }
            if schedule.entry_round >= global_horizon {
                return Err(EngineError::InvalidSchedule(format!(
                    "cohort {index} enters at round {} but the run ends after round {}",
                    schedule.entry_round,
                    global_horizon - 1
                )));
            }
            if schedule.entry_round + schedule.horizon > global_horizon {
                return Err(EngineError::InvalidSchedule(format!(
                    "cohort {index}'s window [{}, {}) overruns the global horizon {global_horizon}",
                    schedule.entry_round,
                    schedule.entry_round + schedule.horizon
                )));
            }
            if schedule.budget.value() > total_budget.value() + 1e-12 {
                return Err(EngineError::InvalidSchedule(format!(
                    "budget over-commit: cohort {index}'s budget {} exceeds the panel's \
                     per-individual cap {total_budget}",
                    schedule.budget
                )));
            }
        }
        let (sizes, cohorts): (Vec<usize>, Vec<CohortSchedule>) = cohorts.into_iter().unzip();
        for round in 0..global_horizon {
            if !cohorts.iter().any(|c| c.is_active(round)) {
                return Err(EngineError::InvalidSchedule(format!(
                    "coverage gap: no cohort is active at round {round}"
                )));
            }
        }
        Ok(Self {
            sizes,
            cohorts,
            global_horizon,
            total_budget,
        })
    }

    /// The degenerate (static) schedule: `population` split into `shards`
    /// balanced cohorts, all entering at round 0 with the global horizon
    /// and budget `cohort_budget` each — the schedule a plan-based engine
    /// over `ShardPlan::new(population, shards)` runs.
    pub fn uniform(
        population: usize,
        shards: usize,
        horizon: usize,
        cohort_budget: Rho,
        total_budget: Rho,
    ) -> Result<Self, EngineError> {
        let plan = ShardPlan::new(population, shards)?;
        let cohorts = (0..shards)
            .map(|s| {
                (
                    plan.cohort_size(s),
                    CohortSchedule {
                        entry_round: 0,
                        horizon,
                        budget: cohort_budget,
                    },
                )
            })
            .collect();
        Self::new(cohorts, horizon, total_budget)
    }

    /// A rotating panel in the style of SIPP/CPS: `waves` cohorts are
    /// active at every round, and each round one wave retires while a
    /// fresh one enters (per-round cohort churn of `1/waves`).
    ///
    /// The initial `waves` cohorts all enter at round 0 with staggered
    /// *retirement* horizons `1, 2, …, waves` (the truncated waves a real
    /// rotating panel starts with); every later cohort enters one round
    /// after its predecessor with horizon `waves`, truncated at the global
    /// horizon. `population` is divided across all `waves + horizon − 1`
    /// cohorts as evenly as possible (make it divisible for an exactly
    /// constant active population, which the shared-noise policy requires).
    ///
    /// Requires `waves ≤ horizon` — more waves than rounds cannot all be
    /// active at once, and is rejected as an
    /// [`EngineError::InvalidSchedule`] rather than silently clamped.
    pub fn rotating(
        population: usize,
        horizon: usize,
        waves: usize,
        cohort_budget: Rho,
        total_budget: Rho,
    ) -> Result<Self, EngineError> {
        if waves == 0 {
            return Err(EngineError::InvalidSchedule(
                "rotating panel needs at least one wave".to_string(),
            ));
        }
        if horizon == 0 {
            return Err(EngineError::InvalidSchedule(
                "global horizon must be positive".to_string(),
            ));
        }
        // A wave's full membership window is `waves` rounds, so more waves
        // than rounds cannot all be active simultaneously. This used to be
        // silently clamped (`waves.min(horizon)`), which quietly built a
        // different panel than requested — now it is a config error.
        if waves > horizon {
            return Err(EngineError::InvalidSchedule(format!(
                "rotating panel of {waves} waves does not fit a {horizon}-round horizon \
                 (a wave's membership window is {waves} rounds; use at most {horizon} \
                 waves or lengthen the run)"
            )));
        }
        let cohort_count = waves + horizon - 1;
        let layout = ShardPlan::new(population, cohort_count)?;
        let mut cohorts = Vec::with_capacity(cohort_count);
        for (index, wave_horizon) in (1..=waves).enumerate() {
            cohorts.push((
                layout.cohort_size(index),
                CohortSchedule {
                    entry_round: 0,
                    horizon: wave_horizon,
                    budget: cohort_budget,
                },
            ));
        }
        for entry in 1..=(horizon - 1) {
            cohorts.push((
                layout.cohort_size(waves + entry - 1),
                CohortSchedule {
                    entry_round: entry,
                    horizon: waves.min(horizon - entry),
                    budget: cohort_budget,
                },
            ));
        }
        Self::new(cohorts, horizon, total_budget)
    }

    /// Number of cohorts in the panel (active or not).
    pub fn cohorts(&self) -> usize {
        self.cohorts.len()
    }

    /// Cohort `c`'s size.
    pub fn cohort_size(&self, cohort: usize) -> usize {
        self.sizes[cohort]
    }

    /// Cohort `c`'s schedule.
    pub fn cohort(&self, cohort: usize) -> &CohortSchedule {
        &self.cohorts[cohort]
    }

    /// The run's global horizon `T`.
    pub fn global_horizon(&self) -> usize {
        self.global_horizon
    }

    /// The per-individual lifetime zCDP cap the schedule was validated
    /// against.
    pub fn total_budget(&self) -> Rho {
        self.total_budget
    }

    /// Total individuals across all cohorts (every individual belongs to
    /// exactly one cohort for the whole run).
    pub fn population(&self) -> usize {
        self.sizes.iter().sum()
    }

    /// Indices of the cohorts active at global `round`, in cohort order.
    pub fn active(&self, round: usize) -> Vec<usize> {
        (0..self.cohorts.len())
            .filter(|&c| self.cohorts[c].is_active(round))
            .collect()
    }

    /// Individuals covered by round `round`'s active set.
    pub fn active_population(&self, round: usize) -> usize {
        self.active(round).iter().map(|&c| self.sizes[c]).sum()
    }

    /// The contiguous layout of round `round`'s active set: a [`ShardPlan`]
    /// over the active cohorts' sizes, in cohort order. The round's input
    /// column must follow exactly this layout.
    pub fn active_layout(&self, round: usize) -> Result<ShardPlan, EngineError> {
        let sizes: Vec<usize> = self.active(round).iter().map(|&c| self.sizes[c]).collect();
        ShardPlan::from_sizes(&sizes)
    }

    /// True for the degenerate schedule — every cohort spans the whole run
    /// (entry 0, horizon `T`), i.e. the static lockstep panel.
    pub fn is_static(&self) -> bool {
        self.cohorts
            .iter()
            .all(|c| c.entry_round == 0 && c.horizon == self.global_horizon)
    }

    /// True when every round's active set covers the same number of
    /// individuals — the precondition for the shared-noise policy's single
    /// population synthesizer (its population size is pinned by the first
    /// round).
    pub fn constant_active_population(&self) -> bool {
        let first = self.active_population(0);
        (1..self.global_horizon).all(|round| self.active_population(round) == first)
    }
}

/// Which synthesizer a factory is being asked to build.
///
/// Every engine holds one synthesizer per shard; under the shared-noise
/// aggregation policy it additionally holds one **population-level**
/// synthesizer that only ever consumes summed cohort aggregates (never raw
/// data) and carries the population-level budget share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotRole {
    /// The synthesizer for shard `s`'s cohort.
    Shard(usize),
    /// The finalize-only population synthesizer (shared-noise policy).
    Population,
}

/// One synthesizer slot an engine factory must fill: who it is, how many
/// individuals it covers, when it streams, and the absolute zCDP budget it
/// must be configured with.
///
/// A schedule assigns each cohort its *own* budget; the population slot
/// (shared noise) carries the policy's share of the schedule's cap.
/// Configure the synthesizer with exactly `horizon` and `budget`;
/// construction verifies both were honored.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PanelSlot {
    /// Which synthesizer this slot is ([`SlotRole::Population`] only under
    /// shared noise).
    pub role: SlotRole,
    /// Individuals this synthesizer covers (cohort size, or the constant
    /// active population for the population slot).
    pub size: usize,
    /// Global round the synthesizer's local round 0 corresponds to (always
    /// 0 for the population slot).
    pub entry_round: usize,
    /// The horizon the synthesizer must be configured with.
    pub horizon: usize,
    /// The total zCDP budget the synthesizer must be configured with.
    pub budget: Rho,
}

/// A population-level input column that can be split into per-shard cohort
/// columns according to a [`ShardPlan`].
pub trait ShardableInput: Sized {
    /// Number of individuals this column reports on.
    fn population(&self) -> usize;

    /// Split into one column per shard, in shard order.
    fn split(&self, plan: &ShardPlan) -> Vec<Self>;
}

impl ShardableInput for BitColumn {
    fn population(&self) -> usize {
        self.len()
    }

    fn split(&self, plan: &ShardPlan) -> Vec<Self> {
        // Word-level splice: each cohort is a contiguous bit range, so the
        // split runs at memcpy speed (only shard boundaries pay a shift).
        (0..plan.shards())
            .map(|s| self.slice(plan.range(s)))
            .collect()
    }
}

impl ShardableInput for CategoricalColumn {
    fn population(&self) -> usize {
        self.len()
    }

    fn split(&self, plan: &ShardPlan) -> Vec<Self> {
        (0..plan.shards())
            .map(|s| {
                let values: Vec<u8> = plan.range(s).map(|i| self.get(i)).collect();
                CategoricalColumn::new(values, self.categories())
                    .expect("cohort values come from a valid column")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_partition() {
        let plan = ShardPlan::new(10, 3).unwrap();
        assert_eq!(plan.shards(), 3);
        assert_eq!(plan.range(0), 0..4);
        assert_eq!(plan.range(1), 4..7);
        assert_eq!(plan.range(2), 7..10);
        assert_eq!(
            (0..3).map(|s| plan.cohort_size(s)).sum::<usize>(),
            plan.population()
        );
    }

    #[test]
    fn shard_of_inverts_ranges() {
        let plan = ShardPlan::new(23, 5).unwrap();
        for i in 0..23 {
            let s = plan.shard_of(i);
            assert!(plan.range(s).contains(&i), "individual {i} -> shard {s}");
        }
    }

    #[test]
    fn degenerate_plans_rejected() {
        assert!(ShardPlan::new(10, 0).is_err());
        assert!(ShardPlan::new(3, 4).is_err());
        assert!(ShardPlan::new(4, 4).is_ok());
    }

    fn rho(v: f64) -> Rho {
        Rho::new(v).unwrap()
    }

    #[test]
    fn from_sizes_lays_out_explicit_cohorts() {
        let plan = ShardPlan::from_sizes(&[4, 1, 7]).unwrap();
        assert_eq!(plan.population(), 12);
        assert_eq!(plan.range(0), 0..4);
        assert_eq!(plan.range(1), 4..5);
        assert_eq!(plan.range(2), 5..12);
        assert!(ShardPlan::from_sizes(&[]).is_err());
        assert!(ShardPlan::from_sizes(&[3, 0, 2]).is_err());
    }

    #[test]
    fn uniform_schedule_is_static() {
        let schedule = PanelSchedule::uniform(100, 4, 6, rho(0.5), rho(0.5)).unwrap();
        assert!(schedule.is_static());
        assert!(schedule.constant_active_population());
        assert_eq!(schedule.cohorts(), 4);
        assert_eq!(schedule.population(), 100);
        for round in 0..6 {
            assert_eq!(schedule.active(round), vec![0, 1, 2, 3]);
            assert_eq!(schedule.active_population(round), 100);
        }
        assert_eq!(schedule.active_layout(0).unwrap().population(), 100);
    }

    #[test]
    fn rotating_schedule_keeps_a_constant_wave_count() {
        // 3 waves over 8 rounds: 3 + 7 = 10 cohorts, 3 active per round,
        // one wave rotating out each round (1/3 per-round churn).
        let schedule = PanelSchedule::rotating(100, 8, 3, rho(0.2), rho(0.2)).unwrap();
        assert_eq!(schedule.cohorts(), 10);
        assert!(!schedule.is_static());
        for round in 0..8 {
            assert_eq!(schedule.active(round).len(), 3, "round {round}");
        }
        // Wave 10 individuals each => exactly constant active population.
        assert!(schedule.constant_active_population());
        // Staggered retirement at the front: initial waves have horizons
        // 1, 2, 3; a mid-stream wave has the full horizon 3; the last
        // entrant is truncated by the global horizon.
        assert_eq!(schedule.cohort(0).window(), 0..1);
        assert_eq!(schedule.cohort(2).window(), 0..3);
        assert_eq!(schedule.cohort(5).window(), 3..6);
        assert_eq!(schedule.cohort(9).window(), 7..8);
        // Mid-stream churn: cohort 5 joins at round 3 and retires after
        // round 5.
        assert!(!schedule.cohort(5).is_active(2));
        assert!(schedule.cohort(5).is_active(5));
        assert!(!schedule.cohort(5).is_active(6));
    }

    /// Regression: `rotating:8` over a 4-round horizon used to silently
    /// clamp to 4 waves, quietly building a different panel than
    /// requested. It is now a descriptive error.
    #[test]
    fn rotating_rejects_more_waves_than_rounds() {
        let err = PanelSchedule::rotating(100, 4, 8, rho(0.1), rho(0.1)).unwrap_err();
        assert!(matches!(err, EngineError::InvalidSchedule(_)));
        let message = err.to_string();
        assert!(message.contains("8 waves"), "{message}");
        assert!(message.contains("4-round"), "{message}");
        // The boundary case is legal: waves == horizon.
        let schedule = PanelSchedule::rotating(70, 4, 4, rho(0.1), rho(0.1)).unwrap();
        assert_eq!(schedule.cohorts(), 7);
        assert!(PanelSchedule::rotating(100, 4, 0, rho(0.1), rho(0.1)).is_err());
    }

    #[test]
    fn schedule_validation_names_each_failure() {
        let cohort = |entry, horizon, budget| CohortSchedule {
            entry_round: entry,
            horizon,
            budget: rho(budget),
        };
        // Zero-length horizon.
        let err = PanelSchedule::new(
            vec![(5, cohort(0, 4, 0.1)), (5, cohort(2, 0, 0.1))],
            4,
            rho(0.1),
        )
        .unwrap_err();
        assert!(err.to_string().contains("zero-length horizon"), "{err}");
        // Window overruns the run.
        let err = PanelSchedule::new(
            vec![(5, cohort(0, 4, 0.1)), (5, cohort(2, 3, 0.1))],
            4,
            rho(0.1),
        )
        .unwrap_err();
        assert!(err.to_string().contains("overruns"), "{err}");
        // Entry beyond the final round.
        let err = PanelSchedule::new(vec![(5, cohort(4, 1, 0.1))], 4, rho(0.1)).unwrap_err();
        assert!(err.to_string().contains("enters at round 4"), "{err}");
        // Coverage gap: nobody active at round 2.
        let err = PanelSchedule::new(
            vec![(5, cohort(0, 2, 0.1)), (5, cohort(3, 1, 0.1))],
            4,
            rho(0.1),
        )
        .unwrap_err();
        assert!(err.to_string().contains("coverage gap"), "{err}");
        assert!(err.to_string().contains("round 2"), "{err}");
        // Budget over-commit against the per-individual cap.
        let err = PanelSchedule::new(vec![(5, cohort(0, 4, 0.3))], 4, rho(0.2)).unwrap_err();
        assert!(err.to_string().contains("over-commit"), "{err}");
        // Empty cohorts and empty schedules.
        assert!(PanelSchedule::new(vec![], 4, rho(0.1)).is_err());
        assert!(PanelSchedule::new(vec![(0, cohort(0, 4, 0.1))], 4, rho(0.1)).is_err());
    }

    #[test]
    fn varying_active_population_is_detected() {
        // Two cohorts covering the run, one mid-stream entrant: rounds 2-3
        // carry more individuals than rounds 0-1.
        let cohort = |entry, horizon| CohortSchedule {
            entry_round: entry,
            horizon,
            budget: rho(0.1),
        };
        let schedule = PanelSchedule::new(
            vec![(10, cohort(0, 4)), (10, cohort(0, 4)), (6, cohort(2, 2))],
            4,
            rho(0.1),
        )
        .unwrap();
        assert!(!schedule.constant_active_population());
        assert_eq!(schedule.active_population(1), 20);
        assert_eq!(schedule.active_population(2), 26);
        assert_eq!(schedule.active(2), vec![0, 1, 2]);
    }

    #[test]
    fn bit_column_split_concatenates_back() {
        let bits: Vec<bool> = (0..17).map(|i| i % 3 == 0).collect();
        let column = BitColumn::from_bools(&bits);
        let plan = ShardPlan::new(17, 4).unwrap();
        let parts = column.split(&plan);
        let rejoined: Vec<bool> = parts
            .iter()
            .flat_map(|p| p.iter().collect::<Vec<_>>())
            .collect();
        assert_eq!(rejoined, bits);
    }
}
