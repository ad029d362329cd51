//! Privacy-budget audit ledger: an append-only log of zCDP budget
//! spends, replayable into the exact totals the engine's budget
//! accounting reports.
//!
//! Each [`BudgetEvent`] records one marginal spend — the round it
//! happened in, the release level it funded (per-cohort vs population),
//! the cohort it is attributed to, the marginal ρ, and the cumulative
//! spend of that ledger line *after* the event. Replay takes the last
//! cumulative value per line (immune to floating-point re-summation
//! drift) and composes them the way `EngineBudget` does: parallel
//! composition (max) across disjoint cohorts, sequential composition
//! (add) with the population level. That makes replay-equality checks
//! bit-exact: the ledger is an audit trail of the engine's own numbers,
//! not an independent approximation of them.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use crate::export::json_f64;

/// Which release level a budget spend funded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetLevel {
    /// A per-cohort (shard-level) release: parallel composition across
    /// disjoint cohorts.
    Cohort,
    /// The population-level release (shared-noise policies): sequential
    /// composition with every cohort's own spend.
    Population,
}

impl BudgetLevel {
    /// Stable string form used by the JSONL exporter.
    pub fn as_str(self) -> &'static str {
        match self {
            BudgetLevel::Cohort => "cohort",
            BudgetLevel::Population => "population",
        }
    }
}

/// One budget spend, as appended by the engine after a round commits.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BudgetEvent {
    /// Global engine round the spend happened in.
    pub round: usize,
    /// Release level the spend funded.
    pub level: BudgetLevel,
    /// Cohort id for [`BudgetLevel::Cohort`] events, `None` for the
    /// population level.
    pub cohort: Option<usize>,
    /// Marginal ρ spent by this event.
    pub rho: f64,
    /// Cumulative ρ of this ledger line (this cohort, or the population
    /// level) after the event — the engine's own accounting value.
    pub spent_after: f64,
}

/// Append-only, thread-safe budget event log. Cloning shares the log.
#[derive(Clone, Debug, Default)]
pub struct BudgetLedger {
    events: Arc<Mutex<Vec<BudgetEvent>>>,
}

impl BudgetLedger {
    /// Create an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one event. Panics (debug builds) if the event would move a
    /// ledger line backwards — budgets only ever grow.
    pub fn record(&self, event: BudgetEvent) {
        debug_assert!(event.rho >= 0.0, "budget spends are non-negative");
        let mut events = self.events.lock().expect("budget ledger poisoned");
        events.push(event);
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("budget ledger poisoned").len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy of the full event log, in append order.
    pub fn events(&self) -> Vec<BudgetEvent> {
        self.events.lock().expect("budget ledger poisoned").clone()
    }

    /// Fold the log into cumulative per-line totals (last `spent_after`
    /// per cohort / population line).
    pub fn replay(&self) -> LedgerReplay {
        let events = self.events.lock().expect("budget ledger poisoned");
        let mut cohorts: BTreeMap<usize, f64> = BTreeMap::new();
        let mut population = 0.0f64;
        for event in events.iter() {
            match event.level {
                BudgetLevel::Cohort => {
                    let id = event.cohort.expect("cohort-level events carry a cohort id");
                    cohorts.insert(id, event.spent_after);
                }
                BudgetLevel::Population => population = event.spent_after,
            }
        }
        LedgerReplay {
            cohorts,
            population,
        }
    }

    /// Write the event log as one JSON object per line (schema in
    /// `docs/OBSERVABILITY.md`).
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let events = self.events.lock().expect("budget ledger poisoned");
        for e in events.iter() {
            let cohort = match e.cohort {
                Some(id) => id.to_string(),
                None => "null".to_string(),
            };
            writeln!(
                w,
                "{{\"type\":\"budget_event\",\"round\":{},\"level\":\"{}\",\"cohort\":{},\"rho\":{},\"spent_after\":{}}}",
                e.round,
                e.level.as_str(),
                cohort,
                json_f64(e.rho),
                json_f64(e.spent_after),
            )?;
        }
        Ok(())
    }
}

/// Result of [`BudgetLedger::replay`]: cumulative spends per ledger line,
/// composable exactly like `EngineBudget`.
#[derive(Clone, Debug, PartialEq)]
pub struct LedgerReplay {
    cohorts: BTreeMap<usize, f64>,
    population: f64,
}

impl LedgerReplay {
    /// Cumulative spend of cohort `id` (0.0 when it never spent).
    pub fn cohort(&self, id: usize) -> f64 {
        self.cohorts.get(&id).copied().unwrap_or(0.0)
    }

    /// Parallel composition across disjoint cohorts: `max_c spent_c`,
    /// the same fold `EngineBudget::cohort_spent` performs (strictly
    /// greater replaces, 0.0 seed — identical f64 result on the same
    /// inputs).
    pub fn cohort_spent(&self) -> f64 {
        self.cohorts
            .values()
            .fold(0.0f64, |a, &b| if b > a { b } else { a })
    }

    /// Cumulative population-level spend (0.0 without one).
    pub fn population_spent(&self) -> f64 {
        self.population
    }

    /// Total user-level spend: cohort level composed sequentially with
    /// the population level — one f64 add, matching
    /// `EngineBudget::spent`.
    pub fn spent(&self) -> f64 {
        self.cohort_spent() + self.population_spent()
    }

    /// Worst-case lifetime spend of any individual; coincides with
    /// [`spent`](Self::spent) exactly as in `EngineBudget`.
    pub fn max_lifetime_spend(&self) -> f64 {
        self.spent()
    }

    /// The per-individual cap invariant, with the same 1e-9 slack
    /// `EngineBudget::within_cap` applies.
    pub fn within_cap(&self, cap: f64) -> bool {
        self.max_lifetime_spend() <= cap + 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(round: usize, cohort: Option<usize>, rho: f64, spent_after: f64) -> BudgetEvent {
        BudgetEvent {
            round,
            level: if cohort.is_some() {
                BudgetLevel::Cohort
            } else {
                BudgetLevel::Population
            },
            cohort,
            rho,
            spent_after,
        }
    }

    #[test]
    fn replay_takes_last_cumulative_value_per_line() {
        let ledger = BudgetLedger::new();
        ledger.record(event(0, Some(0), 0.001, 0.001));
        ledger.record(event(0, Some(1), 0.002, 0.002));
        ledger.record(event(1, Some(0), 0.001, 0.002));
        ledger.record(event(0, None, 0.004, 0.004));
        ledger.record(event(1, None, 0.004, 0.008));

        let replay = ledger.replay();
        assert_eq!(replay.cohort(0), 0.002);
        assert_eq!(replay.cohort(1), 0.002);
        assert_eq!(replay.cohort(7), 0.0);
        assert_eq!(replay.cohort_spent(), 0.002);
        assert_eq!(replay.population_spent(), 0.008);
        assert_eq!(replay.spent(), 0.002 + 0.008);
        assert_eq!(replay.max_lifetime_spend(), replay.spent());
        assert!(replay.within_cap(0.01));
        assert!(!replay.within_cap(0.009));
    }

    #[test]
    fn empty_ledger_replays_to_zero() {
        let replay = BudgetLedger::new().replay();
        assert_eq!(replay.spent(), 0.0);
        assert!(replay.within_cap(0.0));
    }

    #[test]
    fn jsonl_lines_carry_the_full_schema() {
        let ledger = BudgetLedger::new();
        ledger.record(event(3, Some(2), 0.0005, 0.0015));
        ledger.record(event(3, None, 0.25, 0.75));
        let mut out = Vec::new();
        ledger.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"type\":\"budget_event\",\"round\":3,\"level\":\"cohort\",\"cohort\":2,\"rho\":0.0005,\"spent_after\":0.0015}"
        );
        assert_eq!(
            lines[1],
            "{\"type\":\"budget_event\",\"round\":3,\"level\":\"population\",\"cohort\":null,\"rho\":0.25,\"spent_after\":0.75}"
        );
    }

    #[test]
    fn ledger_clones_share_the_log() {
        let ledger = BudgetLedger::new();
        let shared = ledger.clone();
        shared.record(event(0, Some(0), 0.1, 0.1));
        assert_eq!(ledger.len(), 1);
    }
}
