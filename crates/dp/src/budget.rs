//! zCDP privacy budgets: the [`Rho`] type, composition, `(ε, δ)` conversion,
//! and the paper's budget-splitting rules.
//!
//! Zero-concentrated differential privacy (Definition 2.1 of the paper;
//! Bun–Steinke 2016) measures privacy loss by a single parameter ρ ≥ 0 and
//! composes additively (Theorem 2.1). Both of the paper's algorithms are
//! stated for a total budget ρ that is divided across update steps
//! (Algorithm 1: uniformly over the `T − k + 1` histogram releases) or
//! across stream counters (Algorithm 2: the Corollary B.1 weights
//! `ρ_b ∝ max(⌈log₂(T − b + 1)⌉, 1)³`).

use std::fmt;

/// A zCDP privacy budget ρ ≥ 0.
///
/// `Rho` is a validating newtype: construction rejects NaN, infinity, and
/// negative values, so downstream noise calibration can divide by it without
/// re-checking.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Rho(f64);

impl Rho {
    /// Construct a budget, validating `rho` is finite and non-negative.
    pub fn new(rho: f64) -> Result<Self, BudgetError> {
        if !rho.is_finite() || rho < 0.0 {
            return Err(BudgetError::InvalidRho(rho));
        }
        Ok(Self(rho))
    }

    /// The raw ρ value.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Sequential composition (Theorem 2.1): running a ρ₁-zCDP and a ρ₂-zCDP
    /// computation on the same data is (ρ₁+ρ₂)-zCDP.
    #[must_use]
    pub fn compose(self, other: Rho) -> Rho {
        Rho(self.0 + other.0)
    }

    /// Split the budget into `parts` equal shares (Algorithm 1's per-update
    /// allocation: each of the `T − k + 1` histogram releases gets
    /// `ρ / (T − k + 1)`).
    pub fn split_uniform(self, parts: usize) -> Result<Vec<Rho>, BudgetError> {
        if parts == 0 {
            return Err(BudgetError::EmptySplit);
        }
        Ok(vec![Rho(self.0 / parts as f64); parts])
    }

    /// Split the budget proportionally to non-negative `weights`.
    ///
    /// Shares sum to the original budget exactly up to floating error; the
    /// composition test below asserts the defect is ≤ 1 ulp-scale.
    pub fn split_weighted(self, weights: &[f64]) -> Result<Vec<Rho>, BudgetError> {
        if weights.is_empty() {
            return Err(BudgetError::EmptySplit);
        }
        let mut total = 0.0;
        for &w in weights {
            if !w.is_finite() || w < 0.0 {
                return Err(BudgetError::InvalidWeight(w));
            }
            total += w;
        }
        if total <= 0.0 {
            return Err(BudgetError::InvalidWeight(total));
        }
        Ok(weights.iter().map(|&w| Rho(self.0 * w / total)).collect())
    }

    /// The paper's Corollary B.1 split across cumulative-query thresholds
    /// `b = 1..=T`: `ρ_b ∝ max(⌈log₂(T − b + 1)⌉, 1)³`, chosen to equalise
    /// the worst-case errors of the `T` tree counters.
    pub fn split_corollary_b1(self, horizon: usize) -> Result<Vec<Rho>, BudgetError> {
        if horizon == 0 {
            return Err(BudgetError::EmptySplit);
        }
        let weights: Vec<f64> = (1..=horizon)
            .map(|b| {
                let len = (horizon - b + 1) as f64;
                let levels = len.log2().ceil().max(1.0);
                levels.powi(3)
            })
            .collect();
        self.split_weighted(&weights)
    }

    /// Convert to an `(ε, δ)`-DP guarantee: ρ-zCDP implies
    /// `(ρ + 2·√(ρ·ln(1/δ)), δ)`-DP for every δ ∈ (0, 1)
    /// (Bun–Steinke 2016, Proposition 1.3).
    pub fn to_approx_dp(self, delta: f64) -> Result<f64, BudgetError> {
        if !(0.0..1.0).contains(&delta) || delta <= 0.0 {
            return Err(BudgetError::InvalidDelta(delta));
        }
        Ok(self.0 + 2.0 * (self.0 * (1.0 / delta).ln()).sqrt())
    }

    /// The Gaussian-mechanism variance for one release of a
    /// sensitivity-`Δ` statistic under this budget: `σ² = Δ² / (2ρ)`
    /// (the paper's §2.2: "σ² = Δq²/(2ρ)" — note their `∆q/2ρ` display
    /// elides the square, as the surrounding text makes clear).
    pub fn gaussian_sigma2(self, sensitivity: f64) -> Result<f64, BudgetError> {
        if self.0 <= 0.0 {
            return Err(BudgetError::InvalidRho(self.0));
        }
        if !sensitivity.is_finite() || sensitivity <= 0.0 {
            return Err(BudgetError::InvalidSensitivity(sensitivity));
        }
        Ok(sensitivity * sensitivity / (2.0 * self.0))
    }
}

impl fmt::Display for Rho {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ρ={}", self.0)
    }
}

/// Errors from budget construction and manipulation.
#[derive(Debug, Clone, PartialEq)]
pub enum BudgetError {
    /// ρ was NaN, infinite, or negative (or non-positive where positivity is
    /// required).
    InvalidRho(f64),
    /// δ outside (0, 1).
    InvalidDelta(f64),
    /// A split weight was NaN, infinite, or negative, or all weights were 0.
    InvalidWeight(f64),
    /// A split into zero parts was requested.
    EmptySplit,
    /// Sensitivity was NaN, infinite, or non-positive.
    InvalidSensitivity(f64),
}

impl fmt::Display for BudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetError::InvalidRho(r) => write!(f, "invalid zCDP budget rho={r}"),
            BudgetError::InvalidDelta(d) => write!(f, "invalid delta={d}, need delta in (0,1)"),
            BudgetError::InvalidWeight(w) => write!(f, "invalid split weight {w}"),
            BudgetError::EmptySplit => write!(f, "cannot split a budget into zero parts"),
            BudgetError::InvalidSensitivity(s) => write!(f, "invalid sensitivity {s}"),
        }
    }
}

impl std::error::Error for BudgetError {}

/// A running zCDP spend tracker: how much of a total budget has been spent.
///
/// The synthesizers use this to assert, at the end of a run, that the noise
/// they injected accounts for exactly the budget the caller granted —
/// turning the privacy proof's bookkeeping into an executable check.
#[derive(Debug, Clone)]
pub struct SpendTracker {
    total: Rho,
    spent: f64,
}

impl SpendTracker {
    /// Open a tracker with `total` budget available.
    pub fn new(total: Rho) -> Self {
        Self { total, spent: 0.0 }
    }

    /// Record a ρ-zCDP expenditure.
    ///
    /// Returns an error if the charge would exceed the total (with a 1e-9
    /// relative tolerance for float accumulation).
    pub fn charge(&mut self, rho: Rho) -> Result<(), BudgetError> {
        let next = self.spent + rho.value();
        if next > self.total.value() * (1.0 + 1e-9) + 1e-15 {
            return Err(BudgetError::InvalidRho(next));
        }
        self.spent = next;
        Ok(())
    }

    /// Budget spent so far.
    pub fn spent(&self) -> Rho {
        Rho(self.spent)
    }

    /// Budget still available.
    pub fn remaining(&self) -> Rho {
        Rho((self.total.value() - self.spent).max(0.0))
    }

    /// Total budget this tracker was opened with.
    pub fn total(&self) -> Rho {
        self.total
    }

    /// True when the full budget has been consumed (up to float tolerance).
    pub fn exhausted(&self) -> bool {
        self.spent >= self.total.value() * (1.0 - 1e-9) - 1e-15
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(Rho::new(0.0).is_ok());
        assert!(Rho::new(1.5).is_ok());
        assert!(Rho::new(-0.1).is_err());
        assert!(Rho::new(f64::NAN).is_err());
        assert!(Rho::new(f64::INFINITY).is_err());
    }

    #[test]
    fn composition_is_additive() {
        let a = Rho::new(0.003).unwrap();
        let b = Rho::new(0.002).unwrap();
        assert!((a.compose(b).value() - 0.005).abs() < 1e-15);
    }

    #[test]
    fn uniform_split_recomposes() {
        let rho = Rho::new(0.005).unwrap();
        let parts = rho.split_uniform(10).unwrap();
        assert_eq!(parts.len(), 10);
        let sum: f64 = parts.iter().map(|r| r.value()).sum();
        assert!((sum - 0.005).abs() < 1e-12);
    }

    #[test]
    fn weighted_split_is_proportional_and_recomposes() {
        let rho = Rho::new(1.0).unwrap();
        let parts = rho.split_weighted(&[1.0, 3.0]).unwrap();
        assert!((parts[0].value() - 0.25).abs() < 1e-12);
        assert!((parts[1].value() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn corollary_b1_split_properties() {
        let rho = Rho::new(0.005).unwrap();
        let horizon = 12;
        let parts = rho.split_corollary_b1(horizon).unwrap();
        assert_eq!(parts.len(), horizon);
        let sum: f64 = parts.iter().map(|r| r.value()).sum();
        assert!((sum - 0.005).abs() < 1e-12);
        // Earlier thresholds watch longer streams (deeper trees) and must
        // receive more budget; the weights are non-increasing in b.
        for w in parts.windows(2) {
            assert!(w[0].value() >= w[1].value() - 1e-15);
        }
        // b = T has a length-1 stream → weight max(⌈log₂1⌉,1)³ = 1.
        // b = 1 has length T → weight ⌈log₂12⌉³ = 64.
        let ratio = parts[0].value() / parts[horizon - 1].value();
        assert!((ratio - 64.0).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn approx_dp_conversion() {
        let rho = Rho::new(0.005).unwrap();
        let eps = rho.to_approx_dp(1e-6).unwrap();
        // ε = ρ + 2√(ρ ln 1e6) ≈ 0.005 + 2·√(0.005·13.8155) ≈ 0.5308
        assert!((eps - 0.530_78).abs() < 1e-3, "eps {eps}");
        assert!(rho.to_approx_dp(0.0).is_err());
        assert!(rho.to_approx_dp(1.0).is_err());
    }

    #[test]
    fn gaussian_calibration_matches_paper() {
        // §3.1: per-update noise N_Z(0, (T-k+1)/(2ρ)) for sensitivity-1
        // counts under budget ρ/(T-k+1) each.
        let total = Rho::new(0.005).unwrap();
        let t = 12;
        let k = 3;
        let updates = t - k + 1;
        let per_step = total.split_uniform(updates).unwrap()[0];
        let sigma2 = per_step.gaussian_sigma2(1.0).unwrap();
        let expected = updates as f64 / (2.0 * 0.005);
        assert!((sigma2 - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn ledger_tracks_and_guards() {
        let mut ledger = SpendTracker::new(Rho::new(0.01).unwrap());
        assert!(!ledger.exhausted());
        for _ in 0..10 {
            ledger.charge(Rho::new(0.001).unwrap()).unwrap();
        }
        assert!(ledger.exhausted());
        assert!(ledger.remaining().value() < 1e-12);
        assert!(ledger.charge(Rho::new(0.001).unwrap()).is_err());
    }

    #[test]
    fn split_rejects_bad_input() {
        let rho = Rho::new(1.0).unwrap();
        assert!(rho.split_uniform(0).is_err());
        assert!(rho.split_weighted(&[]).is_err());
        assert!(rho.split_weighted(&[0.0, 0.0]).is_err());
        assert!(rho.split_weighted(&[1.0, -1.0]).is_err());
        assert!(rho.split_corollary_b1(0).is_err());
    }

    #[test]
    fn display_formats() {
        let rho = Rho::new(0.25).unwrap();
        assert_eq!(format!("{rho}"), "ρ=0.25");
        let err = BudgetError::InvalidDelta(2.0);
        assert!(format!("{err}").contains("delta"));
    }
}
