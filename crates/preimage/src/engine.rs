//! The common interface of preimage engines.

use std::time::Duration;

use presat_allsat::EnumLimits;
use presat_circuit::Circuit;
use presat_obs::{NullSink, ObsSink, StopReason};

use crate::session::SatPreimageSession;
use crate::state_set::StateSet;

/// Work and memory counters for one preimage computation, merging the
/// SAT-side and BDD-side metrics into the columns the evaluation tables
/// report.
///
/// The canonical definition lives in `presat-obs` (as
/// [`presat_obs::PreimageCounters`], which also nests the full all-SAT and
/// sub-solver counter snapshots plus iteration/wall-time fields); this
/// alias keeps the historical name.
pub use presat_obs::PreimageCounters as PreimageStats;

/// The outcome of one preimage computation.
///
/// When the computation ran under [`EnumLimits`] and stopped early,
/// `complete` is `false` and `states` is a *partial but sound* result:
/// every state in it is a verified preimage member, but more may exist.
#[derive(Clone, Debug)]
pub struct PreimageResult {
    /// The preimage as cubes over latch positions.
    pub states: StateSet,
    /// Work counters.
    pub stats: PreimageStats,
    /// Wall-clock time of the computation.
    pub elapsed: Duration,
    /// `false` if a budget, deadline, or cancellation cut the enumeration
    /// short; `states` is then an under-approximation of the preimage.
    pub complete: bool,
    /// Why the computation stopped early; `None` on a complete run.
    pub stop_reason: Option<StopReason>,
}

/// A one-step preimage engine.
pub trait PreimageEngine {
    /// A short name for tables (`"sat-blocking"`, `"bdd-sub"`, …).
    fn name(&self) -> String;

    /// Computes `Pre(target)` for `circuit` under resource `limits`,
    /// forwarding enumeration-level events (solutions, blocking clauses,
    /// cache hits, completion) to `sink` as they happen. With
    /// [`EnumLimits::none`] the answer is complete; with a limit installed
    /// a run may stop early and return the verified partial preimage
    /// flagged `complete = false` — never a spuriously complete one.
    fn preimage_limited(
        &self,
        circuit: &Circuit,
        target: &StateSet,
        limits: &EnumLimits,
        sink: &mut dyn ObsSink,
    ) -> PreimageResult;

    /// [`PreimageEngine::preimage_limited`] without limits.
    fn preimage_with_sink(
        &self,
        circuit: &Circuit,
        target: &StateSet,
        sink: &mut dyn ObsSink,
    ) -> PreimageResult {
        self.preimage_limited(circuit, target, &EnumLimits::none(), sink)
    }

    /// [`PreimageEngine::preimage_with_sink`] without an event trace.
    fn preimage(&self, circuit: &Circuit, target: &StateSet) -> PreimageResult {
        self.preimage_with_sink(circuit, target, &mut NullSink)
    }

    /// Opens a persistent *session* over `circuit` for iterated preimage
    /// queries (the backward-reachability fixed point), or `None` when the
    /// engine has no incremental mode — callers fall back to per-call
    /// [`preimage_with_sink`](PreimageEngine::preimage_with_sink). A
    /// session encodes the transition relation once and answers every
    /// query through one warm solver; results are bit-identical to the
    /// per-call path. Only the success-driven [`crate::SatPreimage`] has
    /// one.
    fn open_session(&self, circuit: &Circuit) -> Option<SatPreimageSession> {
        let _ = circuit;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_display_is_compact() {
        let s = PreimageStats::default();
        assert!(s.to_string().contains("cubes=0"));
    }
}
