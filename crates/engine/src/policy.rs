//! Aggregation policies: where noise is placed when shards aggregate.
//!
//! Sharding splits a population into cohorts so synthesis parallelizes —
//! but *where the noise goes* is an independent choice, and it decides the
//! accuracy of population-level queries:
//!
//! * [`AggregationPolicy::PerShardNoise`] (the default, the pre-policy
//!   engine semantics): every shard privatizes its own cohort statistics
//!   and the population release is the concatenation of cohort releases.
//!   Population-level counts then carry `s` independent noise draws —
//!   a `√s` relative-error factor over an unsharded run.
//! * [`AggregationPolicy::SharedNoise`]: shards compute **unnoised**
//!   aggregates (the two-phase `prepare` outputs), the engine sums them
//!   word-level into one population aggregate, and a dedicated
//!   population-level synthesizer privatizes that sum with a **single**
//!   noise draw. Population queries recover unsharded accuracy (up to the
//!   budget share spent on the population level); sharding becomes a pure
//!   throughput knob.
//!
//! ## Privacy accounting under `SharedNoise`
//!
//! Each individual's history lives in exactly one cohort, so their data
//! reaches two release streams: their cohort's (per-cohort noise, budget
//! `(1 − p)·ρ`) and the population's (shared noise, budget `p·ρ`), where
//! `p` is [`population_share`](AggregationPolicy::SharedNoise::population_share).
//! Sequential composition across the two levels gives `ρ` total per user —
//! the invariant `population + per-cohort = configured total` that
//! [`EngineBudget`](crate::EngineBudget) reports and the policy tests pin
//! down every round.
//!
//! ## Shared noise under rotating schedules
//!
//! One population synthesizer serves every schedule. On a **rotating**
//! schedule its statistics are scoped to the current active set (each
//! sealed cohort's lifetime aggregate is forgotten before noise), which
//! requires a constant active population and a synthesizer family with
//! cohort-retirement support — the cumulative family's windowed release
//! mode. See the [`crate::driver`] module docs for the privacy story.

use longsynth_dp::budget::Rho;
use std::fmt;
use std::str::FromStr;

/// How per-shard computation aggregates into the population release. See
/// the module docs for the accuracy/privacy trade.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum AggregationPolicy {
    /// Every shard noises its own cohort statistics; the population
    /// release is the shard-order concatenation of cohort releases.
    /// Bit-exact with the pre-policy engine.
    #[default]
    PerShardNoise,
    /// Sum unnoised shard aggregates and privatize once at population
    /// level; cohort releases still exist under the remaining budget.
    SharedNoise {
        /// Fraction `p ∈ (0, 1)` of the total budget spent on the
        /// population-level release (the rest funds the per-cohort
        /// releases). With one shard the split is moot and the whole
        /// budget stays on the single (population == cohort) release.
        population_share: f64,
    },
}

impl AggregationPolicy {
    /// The default population budget share for [`Self::shared`]: the
    /// population level keeps 80% of the budget, so population-query noise
    /// grows only by `√(1/0.8) ≈ 1.12×` over an unsharded run while
    /// cohort releases stay usable.
    pub const DEFAULT_POPULATION_SHARE: f64 = 0.8;

    /// Shared noise at the default population share.
    pub fn shared() -> Self {
        AggregationPolicy::SharedNoise {
            population_share: Self::DEFAULT_POPULATION_SHARE,
        }
    }

    /// Validate policy parameters (shared `population_share` must lie
    /// strictly inside `(0, 1)`).
    pub fn validate(&self) -> Result<(), crate::EngineError> {
        match *self {
            AggregationPolicy::PerShardNoise => Ok(()),
            AggregationPolicy::SharedNoise { population_share } => {
                if population_share.is_finite() && population_share > 0.0 && population_share < 1.0
                {
                    Ok(())
                } else {
                    Err(crate::EngineError::InvalidPolicy(format!(
                        "shared-noise population share must be in (0, 1), got {population_share}"
                    )))
                }
            }
        }
    }

    /// The `(shard_share, population_share)` budget split for an engine of
    /// `shards` shards: what fraction of the caller's total budget each
    /// shard synthesizer and (if any) the population synthesizer should be
    /// configured with. `None` population share means no population
    /// synthesizer exists (per-shard noise, or shared noise collapsed at
    /// one shard).
    pub fn budget_shares(&self, shards: usize) -> (f64, Option<f64>) {
        match *self {
            AggregationPolicy::PerShardNoise => (1.0, None),
            AggregationPolicy::SharedNoise { .. } if shards <= 1 => (1.0, None),
            AggregationPolicy::SharedNoise { population_share } => {
                (1.0 - population_share, Some(population_share))
            }
        }
    }

    /// The absolute population-level budget for a **scheduled**
    /// (dynamic-panel) engine of `cohorts` cohorts whose per-individual
    /// lifetime cap is `total`: `population_share · total` under shared
    /// noise, `None` when no population synthesizer exists. Cohort budgets
    /// come from the schedule itself; the engine verifies every cohort's
    /// budget plus this population budget stays within `total`.
    ///
    /// Both policies are **active-set-aware** under a schedule: per-shard
    /// noise concatenates only the live cohorts' releases, and shared
    /// noise sums only the live cohorts' aggregates into the population
    /// synthesizer's round.
    pub fn population_budget(&self, cohorts: usize, total: Rho) -> Option<Rho> {
        self.budget_shares(cohorts)
            .1
            .map(|share| Rho::new(total.value() * share).expect("share in (0, 1)"))
    }
}

impl fmt::Display for AggregationPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggregationPolicy::PerShardNoise => write!(f, "per-shard"),
            AggregationPolicy::SharedNoise { population_share } => {
                write!(f, "shared (population share {population_share})")
            }
        }
    }
}

impl FromStr for AggregationPolicy {
    type Err = String;

    /// Parse the CLI spellings: `per-shard`, `shared`, or
    /// `shared:<population_share>`.
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "per-shard" => Ok(AggregationPolicy::PerShardNoise),
            "shared" => Ok(AggregationPolicy::shared()),
            other => match other.strip_prefix("shared:") {
                Some(share) => {
                    let population_share: f64 = share
                        .parse()
                        .map_err(|_| format!("cannot parse population share {share:?}"))?;
                    let policy = AggregationPolicy::SharedNoise { population_share };
                    policy.validate().map_err(|e| e.to_string())?;
                    Ok(policy)
                }
                None => Err(format!(
                    "unknown aggregation policy {other:?} (expected per-shard, shared, or shared:<share>)"
                )),
            },
        }
    }
}

/// The compact, serializable label naming what a release stream's merged
/// rounds actually are. Travels with every sink round, is recorded by the
/// release store, and survives snapshots — consumers must know whether the
/// merged panel is the cohort concatenation (`PerShard`) or an
/// independently synthesized population panel (`Shared`).
///
/// The tag is derived from the engine's *structure*, not the configured
/// policy name: a shared-noise policy collapsed at one shard emits
/// `PerShard`, because its merged release really is the (single-)cohort
/// release at full budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyTag {
    /// Merged release is the shard-order concatenation of cohort releases.
    PerShard,
    /// Merged release is an independent population-level synthesis from
    /// summed aggregates.
    Shared,
}

impl fmt::Display for PolicyTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyTag::PerShard => write!(f, "per-shard"),
            PolicyTag::Shared => write!(f, "shared"),
        }
    }
}

impl FromStr for PolicyTag {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "per-shard" => Ok(PolicyTag::PerShard),
            "shared" => Ok(PolicyTag::Shared),
            other => Err(format!("unknown policy tag {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parsing_round_trips() {
        assert_eq!(
            "per-shard".parse::<AggregationPolicy>().unwrap(),
            AggregationPolicy::PerShardNoise
        );
        assert_eq!(
            "shared".parse::<AggregationPolicy>().unwrap(),
            AggregationPolicy::shared()
        );
        assert_eq!(
            "shared:0.5".parse::<AggregationPolicy>().unwrap(),
            AggregationPolicy::SharedNoise {
                population_share: 0.5
            }
        );
        assert!("shared:1.5".parse::<AggregationPolicy>().is_err());
        assert!("shared:x".parse::<AggregationPolicy>().is_err());
        assert!("maximal".parse::<AggregationPolicy>().is_err());
        for tag in [PolicyTag::PerShard, PolicyTag::Shared] {
            assert_eq!(tag.to_string().parse::<PolicyTag>().unwrap(), tag);
        }
        assert!("nope".parse::<PolicyTag>().is_err());
    }

    #[test]
    fn budget_shares_follow_policy_and_shard_count() {
        assert_eq!(
            AggregationPolicy::PerShardNoise.budget_shares(4),
            (1.0, None)
        );
        let shared = AggregationPolicy::SharedNoise {
            population_share: 0.75,
        };
        assert_eq!(shared.budget_shares(1), (1.0, None));
        let (shard, population) = shared.budget_shares(4);
        assert!((shard - 0.25).abs() < 1e-12);
        assert!((population.unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_degenerate_shares() {
        for share in [0.0, 1.0, -0.2, f64::NAN] {
            let policy = AggregationPolicy::SharedNoise {
                population_share: share,
            };
            assert!(policy.validate().is_err(), "share {share}");
        }
        assert!(AggregationPolicy::shared().validate().is_ok());
        assert!(AggregationPolicy::PerShardNoise.validate().is_ok());
    }
}
