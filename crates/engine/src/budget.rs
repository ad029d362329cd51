//! Aggregate zCDP accounting across shards — and, under the shared-noise
//! policy, across the two release levels.
//!
//! Sharding changes *nothing* about each shard's internal privacy argument —
//! every shard is a complete synthesizer spending its configured ρ on its
//! own cohort. What sharding adds is a composition question: what does the
//! combined release of all shards cost?
//!
//! Because the [`crate::shard::ShardPlan`] assigns each individual's entire
//! history to exactly one shard, the shards compute over **disjoint** user
//! populations. Changing one user's whole history perturbs the input of
//! exactly one shard, and the other shards' outputs are independent of it.
//! This is parallel composition — stated in the form that survives panel
//! churn: the user-level cost of the cohort release level is the **maximum
//! over any individual's lifetime spend**, which, with each individual
//! living in exactly one cohort, is `max_c spent_c` over all cohorts that
//! ever existed — active, retired, or not yet entered. Under a lockstep
//! panel (every cohort identical and always active) this reduces to the
//! familiar `max_s ρ_s`; under a [`crate::shard::PanelSchedule`] the
//! cohorts carry *different* budgets and lifetimes, and the same maximum
//! is checked against the schedule's per-individual cap
//! ([`EngineBudget::within_cap`]) every round.
//!
//! The shared-noise aggregation policy adds a second level: a
//! population-level release computed from the *sum* of cohort aggregates.
//! Every user's data enters that release too, so the two levels compose
//! **sequentially** per user: total = (cohort level, `max_s ρ_s`) +
//! (population level, `ρ_pop`). [`EngineBudget`] tracks both levels and
//! reports the composed totals; the policy's budget shares are chosen so
//! the composed total equals the caller's configured ρ — the invariant
//! `population + per-cohort = configured total` the policy tests pin down
//! every round.
//!
//! [`EngineBudget::spent_sequential`] remains the conservative view that
//! would apply if cohorts ever overlapped (e.g. a future multi-panel
//! deployment replaying the same users into several shards).

use longsynth_dp::budget::Rho;

/// True when a lifetime spend overruns `cap` beyond floating-point slack —
/// the comparison behind [`EngineBudget::within_cap`], shared with the
/// engine's per-round check so both agree on the slack.
pub(crate) fn exceeds_cap(spent: Rho, cap: Rho) -> bool {
    spent.value() > cap.value() + 1e-9
}

/// Aggregate budget state of a sharded engine at some point in its run.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineBudget {
    per_shard_spent: Vec<Rho>,
    per_shard_total: Vec<Rho>,
    /// `(spent, total)` of the population-level synthesizer, when the
    /// engine runs one (shared-noise policy with more than one shard).
    population: Option<(Rho, Rho)>,
}

impl EngineBudget {
    /// Build from per-shard `(spent, total)` reports, in shard order —
    /// a single-level (per-shard noise) engine.
    pub fn from_shards(reports: impl IntoIterator<Item = (Rho, Rho)>) -> Self {
        Self::from_levels(reports, None)
    }

    /// Build from per-shard `(spent, total)` reports plus the optional
    /// population-level `(spent, total)` report.
    pub fn from_levels(
        reports: impl IntoIterator<Item = (Rho, Rho)>,
        population: Option<(Rho, Rho)>,
    ) -> Self {
        let (per_shard_spent, per_shard_total) = reports.into_iter().unzip();
        Self {
            per_shard_spent,
            per_shard_total,
            population,
        }
    }

    /// Number of shards reporting.
    pub fn shards(&self) -> usize {
        self.per_shard_spent.len()
    }

    /// Per-shard spent budgets, in shard order.
    pub fn per_shard(&self) -> &[Rho] {
        &self.per_shard_spent
    }

    /// User-level zCDP spent by the cohort release level under
    /// disjoint-cohort sharding: parallel composition, `max_s spent_s`.
    pub fn cohort_spent(&self) -> Rho {
        Self::max(&self.per_shard_spent)
    }

    /// User-level zCDP guaranteed for the cohort release level:
    /// `max_s total_s`.
    pub fn cohort_total(&self) -> Rho {
        Self::max(&self.per_shard_total)
    }

    /// zCDP spent by the population-level release (zero without one).
    pub fn population_spent(&self) -> Rho {
        self.population.map_or_else(Self::zero, |(spent, _)| spent)
    }

    /// zCDP guaranteed for the population-level release (zero without one).
    pub fn population_total(&self) -> Rho {
        self.population.map_or_else(Self::zero, |(_, total)| total)
    }

    /// True when the engine runs a population-level synthesizer.
    pub fn has_population_level(&self) -> bool {
        self.population.is_some()
    }

    /// Total user-level zCDP spent: the cohort level (parallel
    /// composition) composed **sequentially** with the population level —
    /// every user's data enters both.
    pub fn spent(&self) -> Rho {
        self.cohort_spent().compose(self.population_spent())
    }

    /// The worst-case **lifetime** spend of any single individual: their
    /// own cohort's spend (they live in exactly one) plus the population
    /// level their data also reaches. This is the quantity a dynamic
    /// panel's per-individual budget cap bounds; for a lockstep panel it
    /// coincides with [`spent`](Self::spent).
    pub fn max_lifetime_spend(&self) -> Rho {
        self.spent()
    }

    /// The generalized parallel-composition invariant, verified every
    /// round by every engine: no individual's lifetime spend exceeds
    /// `cap` (up to floating-point slack).
    pub fn within_cap(&self, cap: Rho) -> bool {
        !exceeds_cap(self.max_lifetime_spend(), cap)
    }

    /// Total user-level zCDP guaranteed for the whole run, both levels
    /// composed.
    pub fn total(&self) -> Rho {
        self.cohort_total().compose(self.population_total())
    }

    /// The conservative sequential-composition view `Σ_s spent_s` (plus
    /// the population level) — the bound that applies when cohort
    /// disjointness cannot be assumed.
    pub fn spent_sequential(&self) -> Rho {
        self.per_shard_spent
            .iter()
            .copied()
            .fold(Self::zero(), Rho::compose)
            .compose(self.population_spent())
    }

    /// True when every shard — and the population synthesizer, if any —
    /// has exhausted its configured budget.
    pub fn exhausted(&self) -> bool {
        let shards_done = self
            .per_shard_spent
            .iter()
            .zip(&self.per_shard_total)
            .all(|(spent, total)| spent.value() >= total.value() - 1e-12);
        let population_done = self
            .population
            .is_none_or(|(spent, total)| spent.value() >= total.value() - 1e-12);
        shards_done && population_done
    }

    fn zero() -> Rho {
        Rho::new(0.0).expect("zero is a valid budget")
    }

    fn max(rhos: &[Rho]) -> Rho {
        rhos.iter().copied().fold(
            Self::zero(),
            |a, b| {
                if b.value() > a.value() {
                    b
                } else {
                    a
                }
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rho(v: f64) -> Rho {
        Rho::new(v).unwrap()
    }

    #[test]
    fn parallel_is_max_sequential_is_sum() {
        let budget = EngineBudget::from_shards(vec![
            (rho(0.003), rho(0.005)),
            (rho(0.005), rho(0.005)),
            (rho(0.004), rho(0.005)),
        ]);
        assert_eq!(budget.shards(), 3);
        assert!(!budget.has_population_level());
        assert!((budget.spent().value() - 0.005).abs() < 1e-15);
        assert!((budget.spent_sequential().value() - 0.012).abs() < 1e-15);
        assert!((budget.total().value() - 0.005).abs() < 1e-15);
        assert!(!budget.exhausted());
    }

    #[test]
    fn exhaustion_requires_every_shard() {
        let budget =
            EngineBudget::from_shards(vec![(rho(0.01), rho(0.01)), (rho(0.01), rho(0.01))]);
        assert!(budget.exhausted());
    }

    #[test]
    fn two_levels_compose_sequentially() {
        // Shared-noise split of a configured total ρ = 0.01: cohorts get
        // 0.002 each (parallel max 0.002), population gets 0.008.
        let budget = EngineBudget::from_levels(
            vec![(rho(0.001), rho(0.002)), (rho(0.001), rho(0.002))],
            Some((rho(0.004), rho(0.008))),
        );
        assert!(budget.has_population_level());
        assert!((budget.cohort_spent().value() - 0.001).abs() < 1e-15);
        assert!((budget.population_spent().value() - 0.004).abs() < 1e-15);
        // Mid-run: both levels half spent, composed = half the total.
        assert!((budget.spent().value() - 0.005).abs() < 1e-15);
        // The invariant: population + per-cohort = configured total.
        assert!((budget.total().value() - 0.01).abs() < 1e-15);
        assert!(!budget.exhausted());

        let done = EngineBudget::from_levels(
            vec![(rho(0.002), rho(0.002)), (rho(0.002), rho(0.002))],
            Some((rho(0.008), rho(0.008))),
        );
        assert!(done.exhausted());
        assert!((done.spent().value() - 0.01).abs() < 1e-15);
        // Sequential-sum view counts every shard plus the population.
        assert!((done.spent_sequential().value() - 0.012).abs() < 1e-15);
    }

    #[test]
    fn lifetime_spend_is_the_max_over_heterogeneous_cohorts() {
        // A rotating panel mid-run: a retired cohort that spent its full
        // (small) budget, an active cohort mid-spend with a larger budget,
        // and a cohort that has not entered yet. The worst individual is
        // in the active cohort.
        let budget = EngineBudget::from_shards(vec![
            (rho(0.004), rho(0.004)), // retired, fully spent
            (rho(0.006), rho(0.010)), // active
            (rho(0.000), rho(0.008)), // not yet entered
        ]);
        assert!((budget.max_lifetime_spend().value() - 0.006).abs() < 1e-15);
        assert!((budget.cohort_total().value() - 0.010).abs() < 1e-15);
        assert!(budget.within_cap(rho(0.010)));
        assert!(budget.within_cap(rho(0.006)));
        assert!(!budget.within_cap(rho(0.005)));
        assert!(!budget.exhausted());
    }
}
