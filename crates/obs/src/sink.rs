//! Structured event trace: an [`ObsSink`] receives [`Event`]s from the
//! engines as they happen.
//!
//! The default sink is [`NullSink`], whose `record` is an empty inlineable
//! body — engines thread `&mut dyn ObsSink` through their outer loops (one
//! event per solution / blocking clause / reachability iteration, never per
//! propagation), so the no-op case costs one indirect call per *solution*,
//! not per solver step.

/// One observable step of an engine run.
///
/// Events are deliberately coarse: they fire on the enumeration and
/// fixed-point loops, not on the CDCL hot loop (which is covered by the
/// plain counters in [`crate::SatCounters`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// An all-SAT engine emitted a solution cube of `width` literals.
    Solution {
        /// Literal count of the emitted cube (after lifting, if any).
        width: u32,
    },
    /// A blocking clause of `width` literals was added to the sub-solver.
    BlockingClause {
        /// Literal count of the blocking clause.
        width: u32,
    },
    /// The success-driven engine reused a cached subspace at branch `depth`.
    CacheHit {
        /// Branching depth (index into the important-variable order).
        depth: u32,
    },
    /// The success-driven engine explored a fresh subspace at branch `depth`.
    CacheMiss {
        /// Branching depth (index into the important-variable order).
        depth: u32,
    },
    /// The parallel engine finished one partition cube of the search
    /// space. Cubes are reported in deterministic branching order (the
    /// per-cube traces are replayed at merge time), not completion order.
    CubeDone {
        /// Index of the partition cube over the prefix of the important
        /// variables (bit *j* = phase of branching level *j*).
        cube_index: u32,
        /// CDCL sub-solver calls spent inside this cube's subspace.
        solver_calls: u64,
    },
    /// One backward-reachability iteration completed.
    ReachIteration {
        /// 1-based iteration number (the fixed-point depth so far).
        iteration: u32,
        /// Cubes in this iteration's preimage frontier.
        frontier_cubes: u64,
        /// States newly discovered this iteration.
        new_states: u64,
    },
    /// A top-level engine run finished.
    EngineDone {
        /// Wall-clock time of the run in nanoseconds.
        wall_time_ns: u64,
    },
    /// An engine stopped early because a budget, deadline, or cancellation
    /// fired; the result it returned is partial (`complete = false`).
    BudgetStop {
        /// Why the engine stopped.
        reason: crate::StopReason,
    },
}

/// A receiver for engine [`Event`]s.
///
/// The provided no-op `record` makes any `impl ObsSink` observability-free
/// by default; override it to collect a trace.
pub trait ObsSink {
    /// Called once per event, in program order.
    #[inline]
    fn record(&mut self, _event: &Event) {}
}

/// The do-nothing sink used by every `enumerate`/`preimage` convenience
/// wrapper.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullSink;

impl ObsSink for NullSink {}

/// A sink that stores every event, for tests and offline analysis.
#[derive(Clone, Debug, Default)]
pub struct VecSink {
    /// The recorded trace, in arrival order.
    pub events: Vec<Event>,
}

impl VecSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// Number of recorded events matching `pred`.
    pub fn count(&self, pred: impl Fn(&Event) -> bool) -> usize {
        self.events.iter().filter(|e| pred(e)).count()
    }
}

impl ObsSink for VecSink {
    fn record(&mut self, event: &Event) {
        self.events.push(*event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_ignores_events() {
        let mut s = NullSink;
        s.record(&Event::Solution { width: 3 });
    }

    #[test]
    fn vec_sink_records_in_order() {
        let mut s = VecSink::new();
        s.record(&Event::Solution { width: 2 });
        s.record(&Event::BlockingClause { width: 2 });
        s.record(&Event::Solution { width: 1 });
        assert_eq!(s.events.len(), 3);
        assert_eq!(s.count(|e| matches!(e, Event::Solution { .. })), 2);
        assert_eq!(s.events[1], Event::BlockingClause { width: 2 });
    }
}
