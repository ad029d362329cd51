//! Release sinks: the engine's hook for downstream consumers.
//!
//! A continual-release deployment does not stop at producing releases — it
//! *serves* them (the `longsynth-serve` crate stores every round and
//! answers queries from the store). [`ReleaseSink`] is the engine-side
//! half of that contract: attach a sink with
//! [`ShardedEngine::set_sink`](crate::ShardedEngine::set_sink) and the
//! engine calls [`on_round`](ReleaseSink::on_round) once per successful
//! step, handing over the per-shard (per-cohort) releases, the merged
//! population-level release, and the [`PolicyTag`] naming how they relate.
//!
//! The tag matters downstream: under [`PolicyTag::PerShard`] the merged
//! release is the shard-order concatenation of the cohort releases; under
//! [`PolicyTag::Shared`] it is an **independent** population-level
//! synthesis from summed aggregates (its record count need not equal the
//! cohort sum), so consumers must not assume concatenation structure.
//!
//! The hook observes borrows only; a sink that wants to keep the data
//! clones it (releases are compact bit-packed columns). When no sink is
//! attached the engine's hot path pays nothing — the per-shard releases
//! move straight into the merge, exactly as before.

use crate::policy::PolicyTag;

/// A consumer of per-round engine releases.
///
/// `round` is the 0-based index of the round that just completed. The
/// engine guarantees `per_shard` is in shard order, `merged` is the
/// population-level release the caller of `step` receives, and `policy`
/// is constant over an engine's lifetime.
pub trait ReleaseSink<R>: Send {
    /// Observe one completed round.
    fn on_round(&mut self, round: usize, per_shard: &[R], merged: &R, policy: PolicyTag);

    /// Observe one completed **dynamic-panel** round: only the cohorts in
    /// `active` (indices into the panel's `cohorts` cohorts, ascending)
    /// produced releases this round, and `per_shard[i]` is the release of
    /// cohort `active[i]`. Engines on a rotating schedule call this
    /// instead of [`on_round`](Self::on_round); static panels call
    /// `on_round`.
    ///
    /// The default forwards to [`on_round`](Self::on_round), dropping the
    /// active-set information — fine for sinks that only observe the
    /// merged release. Sinks that archive per-cohort data (the serving
    /// store) override it to index releases by cohort × round range.
    fn on_round_active(
        &mut self,
        round: usize,
        cohorts: usize,
        active: &[usize],
        per_shard: &[R],
        merged: &R,
        policy: PolicyTag,
    ) {
        let _ = (cohorts, active);
        self.on_round(round, per_shard, merged, policy);
    }
}

/// Closures are sinks:
/// `engine.set_sink(Box::new(|round, parts, merged, policy| …))` works via
/// this blanket impl.
impl<R, F> ReleaseSink<R> for F
where
    F: FnMut(usize, &[R], &R, PolicyTag) + Send,
{
    fn on_round(&mut self, round: usize, per_shard: &[R], merged: &R, policy: PolicyTag) {
        self(round, per_shard, merged, policy)
    }
}
