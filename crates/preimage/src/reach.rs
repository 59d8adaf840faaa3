//! Backward reachability: iterate preimages to a fixed point.

use std::time::{Duration, Instant};

use presat_allsat::{Budget, CancelToken, EnumLimits, SolutionGraph, SolutionNodeId};
use presat_circuit::Circuit;
use presat_logic::Var;
use presat_obs::{Event, NullSink, ObsSink, StopReason, Timer};

use crate::engine::{PreimageEngine, PreimageStats};
use crate::session::SatPreimageSession;
use crate::state_set::StateSet;

/// Options for the reachability loop.
#[derive(Clone, Debug)]
pub struct ReachOptions {
    /// Stop after this many iterations even if not converged
    /// (`None` = run to the fixed point).
    pub max_iterations: Option<usize>,
    /// Drive the fixed point through one persistent
    /// [`SatPreimageSession`] when the engine offers one (the
    /// default): the transition relation is encoded once, the solver stays
    /// warm across iterations, and reached states are blocked inside the
    /// solver so they are never re-derived. The session also inprocesses
    /// its clause database when its effort schedule calls for a pass (see
    /// [`presat_allsat::IncrementalAllSat::retire`]). Bit-identical results
    /// either way; engines without sessions silently use the per-call
    /// path.
    pub incremental: bool,
    /// Resource budget for the whole fixed point: counter limits are spent
    /// down across iterations, the deadline bounds the loop's wall clock.
    pub total_budget: Budget,
    /// Cooperative cancellation: polled by the running engine (SAT kinds)
    /// and between iterations (every engine).
    pub cancel: Option<CancelToken>,
}

impl Default for ReachOptions {
    fn default() -> Self {
        ReachOptions {
            max_iterations: None,
            incremental: true,
            total_budget: Budget::unlimited(),
            cancel: None,
        }
    }
}

impl ReachOptions {
    /// Sets the whole-loop budget.
    pub fn with_total_budget(mut self, budget: Budget) -> Self {
        self.total_budget = budget;
        self
    }

    /// Attaches a cancellation token.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }
}

/// One row of the per-iteration report (the series plotted in figure F3).
#[derive(Clone, Debug)]
pub struct ReachIteration {
    /// 1-based iteration number.
    pub iteration: usize,
    /// Cubes in the frontier fed to the engine this iteration.
    pub frontier_cubes: usize,
    /// States newly discovered this iteration (saturating at
    /// `u128::MAX`, see [`SolutionGraph::minterm_count`]).
    pub new_states: u128,
    /// Cumulative backward-reachable states after this iteration
    /// (saturating like `new_states`).
    pub reached_states: u128,
    /// Wall-clock time of this iteration's preimage call.
    pub elapsed: Duration,
}

/// The result of a backward-reachability run.
///
/// # Anytime semantics
///
/// When a budget, deadline, or cancellation interrupts the loop,
/// `complete` is `false`, `stop_reason` says why, and `reached` is the
/// deepest **verified** frontier closure computed so far: every state in it
/// provably reaches the target, including any partial preimage states the
/// interrupted iteration had already verified. It is an
/// under-approximation — never a fabricated fixed point (`converged` stays
/// `false`). Hitting `max_iterations` is a *requested* cap, not a resource
/// stop: `converged == false` but `complete` stays `true`.
#[derive(Clone, Debug)]
pub struct ReachReport {
    /// All states that can reach the target (including the target itself).
    pub reached: StateSet,
    /// Cardinality of `reached`, saturating at `u128::MAX`.
    pub reached_states: u128,
    /// Per-iteration rows.
    pub iterations: Vec<ReachIteration>,
    /// `true` if a fixed point was reached (no iteration cap hit).
    pub converged: bool,
    /// `false` if a resource budget, deadline, or cancellation stopped the
    /// loop before the fixed point (or iteration cap) was reached.
    pub complete: bool,
    /// Why the loop stopped early; `None` unless `complete == false`.
    pub stop_reason: Option<StopReason>,
    /// Aggregated engine counters over every iteration: work counters are
    /// summed, peak sizes take the maximum, `iterations` is the
    /// fixed-point depth (number of preimage calls), and `wall_time_ns`
    /// covers the whole loop.
    pub stats: PreimageStats,
}

/// Computes the set of states from which `target` is reachable, by
/// iterating `R ← R ∪ Pre(frontier)` until the frontier is empty.
///
/// The reached set and frontiers are maintained in a [`SolutionGraph`]
/// (shared decision DAG), so set difference and union stay cheap even when
/// the frontier has exponentially many minterms.
///
/// # Examples
///
/// ```
/// use presat_circuit::generators;
/// use presat_preimage::{backward_reach, ReachOptions, SatPreimage, StateSet};
///
/// let c = generators::counter(3, false);
/// let report = backward_reach(
///     &SatPreimage::success_driven(),
///     &c,
///     &StateSet::from_state_bits(0, 3),
///     ReachOptions::default(),
/// );
/// // a free-running counter reaches 0 from every state
/// assert!(report.converged);
/// assert_eq!(report.reached_states, 8);
/// ```
pub fn backward_reach(
    engine: &dyn PreimageEngine,
    circuit: &Circuit,
    target: &StateSet,
    options: ReachOptions,
) -> ReachReport {
    backward_reach_with_sink(engine, circuit, target, options, &mut NullSink)
}

/// [`backward_reach`] with an event trace: forwards each inner preimage
/// call's events to `sink` and additionally records one
/// [`Event::ReachIteration`] per fixed-point iteration.
pub fn backward_reach_with_sink(
    engine: &dyn PreimageEngine,
    circuit: &Circuit,
    target: &StateSet,
    options: ReachOptions,
    sink: &mut dyn ObsSink,
) -> ReachReport {
    let mut driver = ReachDriver::new(engine, circuit, target, options);
    // The one-shot loop treats an interrupted preimage call as a terminal
    // anytime stop; the driver itself stays resumable (the daemon keeps
    // stepping the same frontier instead).
    while let ReachStep::Advanced = driver.step(engine, circuit, &Budget::unlimited(), sink) {}
    let report = driver.report();
    if let Some(reason) = report.stop_reason {
        sink.record(&Event::BudgetStop { reason });
    }
    sink.record(&Event::EngineDone {
        wall_time_ns: report.stats.wall_time_ns,
    });
    report
}

/// The outcome of one [`ReachDriver::step`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReachStep {
    /// One frontier's preimage was fully enumerated and the fixed point is
    /// not yet reached — step again to continue.
    Advanced,
    /// The current frontier's preimage call was cut short (slice budget,
    /// total budget, deadline, or cancellation inside the call). The
    /// partial states found are already absorbed into the reached set;
    /// stepping again *resumes the same frontier* where it left off (on
    /// the incremental session path the absorbed states are blocked in the
    /// solver, so no work repeats).
    Interrupted(StopReason),
    /// Nothing more to do: converged, iteration cap reached, total budget
    /// exhausted, or cancelled between iterations. Take the
    /// [`ReachDriver::report`].
    Done,
}

/// A backward-reachability fixed point broken into explicit, resumable
/// steps: the slice primitive the `presatd` scheduler interleaves across
/// tenants. [`backward_reach`] is exactly a loop over [`ReachDriver::step`]
/// with an unlimited slice budget, so the sliced and one-shot paths share
/// every line of fixed-point logic and the final reached set is
/// bit-identical however the work was sliced (the reached set lives in a
/// canonical [`SolutionGraph`], so its cube representation depends only on
/// the *set*, never on the slicing).
pub struct ReachDriver {
    options: ReachOptions,
    position_vars: Vec<Var>,
    graph: SolutionGraph,
    session: Option<SatPreimageSession>,
    reached: SolutionNodeId,
    frontier_node: SolutionNodeId,
    /// New states discovered for the *current* frontier across its slices;
    /// becomes the next frontier once the current one completes. (With an
    /// unlimited slice budget a frontier always completes in one step and
    /// this is just that step's `new_node`.)
    pending: SolutionNodeId,
    iterations: Vec<ReachIteration>,
    converged: bool,
    /// `true` once `max_iterations` preimage calls have completed.
    capped: bool,
    stop: Option<StopReason>,
    stats: PreimageStats,
    /// Counter residue of the total budget, spent down by each step's
    /// sub-solver work (the deadline is absolute — no bookkeeping needed).
    total_remaining: Budget,
    /// Consecutive interrupted steps that contributed zero new states.
    /// Sessions retire their activation group after every preimage call,
    /// so a frontier's closing UNSAT proof restarts from scratch each
    /// slice; a fixed slice quantum smaller than that proof would
    /// re-interrupt forever. Each stall doubles the effective quantum
    /// (reset on any progress), bounding wasted slices logarithmically.
    stalls: u32,
    timer: Timer,
}

impl ReachDriver {
    /// Prepares a fixed point for `target` on `circuit`. The same `engine`
    /// and `circuit` must be passed to every subsequent
    /// [`step`](ReachDriver::step) call.
    pub fn new(
        engine: &dyn PreimageEngine,
        circuit: &Circuit,
        target: &StateSet,
        options: ReachOptions,
    ) -> Self {
        let timer = Timer::start();
        let n = circuit.num_latches();
        let position_vars: Vec<Var> = Var::range(n).collect();
        let mut graph = SolutionGraph::new(n);

        // Incremental mode: one persistent session answers every step.
        // Blocking the target up front keeps the invariant «blocked set ==
        // reached set», so each session preimage already returns
        // Pre(frontier) ∖ reached and states are never re-derived — across
        // iterations *or* across budgeted slices of one frontier. The set
        // subtraction in `step` is still performed on the canonical graph
        // — `diff` of an already-disjoint set is the identity — which
        // keeps the paths bit-identical.
        let mut session = if options.incremental {
            engine.open_session(circuit)
        } else {
            None
        };
        if let Some(s) = session.as_mut() {
            s.block_states(target);
        }

        let reached = graph.add_cube_set(target.cubes(), &position_vars);
        let total_remaining = options.total_budget;
        ReachDriver {
            options,
            position_vars,
            graph,
            session,
            reached,
            frontier_node: reached,
            pending: SolutionNodeId::BOTTOM,
            iterations: Vec::new(),
            converged: false,
            capped: false,
            stop: None,
            stats: PreimageStats::default(),
            total_remaining,
            stalls: 0,
            timer,
        }
    }

    /// Runs one preimage call on the current frontier, bounded by the
    /// remaining total budget **and** `slice_budget` (clipped together;
    /// pass [`Budget::unlimited`] for no extra slice bound). Absorbs
    /// whatever the call verified into the reached set and reports whether
    /// the fixed point advanced, was interrupted mid-frontier (step again
    /// to resume), or is done.
    pub fn step(
        &mut self,
        engine: &dyn PreimageEngine,
        circuit: &Circuit,
        slice_budget: &Budget,
        sink: &mut dyn ObsSink,
    ) -> ReachStep {
        // A previous slice's mid-frontier interruption is not sticky; the
        // terminal conditions below re-derive themselves every step.
        self.stop = None;
        if self.frontier_node == SolutionNodeId::BOTTOM {
            self.converged = true;
            return ReachStep::Done;
        }
        if self
            .options
            .max_iterations
            .is_some_and(|cap| self.iterations.len() >= cap)
        {
            self.capped = true;
            return ReachStep::Done;
        }
        // Between-step stop checks cover every engine, including those
        // that ignore limits inside a call (the BDD engine).
        if self
            .options
            .cancel
            .as_ref()
            .is_some_and(CancelToken::is_cancelled)
        {
            self.stop = Some(StopReason::Cancelled);
            return ReachStep::Done;
        }
        if let Some(deadline) = self.options.total_budget.deadline {
            if Instant::now() >= deadline {
                self.stop = Some(StopReason::Deadline);
                return ReachStep::Done;
            }
        }
        if self.total_remaining.conflicts == Some(0) {
            self.stop = Some(StopReason::Conflicts);
            return ReachStep::Done;
        }
        if self.total_remaining.propagations == Some(0) {
            self.stop = Some(StopReason::Propagations);
            return ReachStep::Done;
        }
        // Stall escalation: grow the caller's slice quantum exponentially
        // while consecutive slices end interrupted with nothing to show,
        // so the frontier's closing UNSAT proof eventually fits in one
        // slice (see the `stalls` field). Total-budget clipping below
        // still bounds the boosted slice.
        let boost = 1u64.checked_shl(self.stalls.min(32)).unwrap_or(u64::MAX);
        let boosted_slice = Budget {
            conflicts: slice_budget
                .conflicts
                .map(|c| c.max(1).saturating_mul(boost)),
            propagations: slice_budget
                .propagations
                .map(|p| p.max(1).saturating_mul(boost)),
            deadline: slice_budget.deadline,
        };
        let limits = EnumLimits {
            // What remains of the total clipped to the caller's (possibly
            // boosted) slice quantum (counters take the minimum, deadlines
            // the earliest).
            budget: self.total_remaining.clipped_to(&boosted_slice),
            cancel: self.options.cancel.clone(),
            max_solutions: None,
        };
        let frontier = StateSet::from_cubes(
            self.graph
                .to_cube_set(self.frontier_node, &self.position_vars),
        );
        let start = Instant::now();
        let pre = match self.session.as_mut() {
            Some(s) => s.preimage_limited(&frontier, &limits, sink),
            None => engine.preimage_limited(circuit, &frontier, &limits, sink),
        };
        let elapsed = start.elapsed();
        self.stats.absorb(&pre.stats);
        if let Some(c) = self.total_remaining.conflicts.as_mut() {
            *c = c.saturating_sub(pre.stats.allsat.sat.conflicts);
        }
        if let Some(p) = self.total_remaining.propagations.as_mut() {
            *p = p.saturating_sub(pre.stats.allsat.sat.propagations);
        }
        if let Some(s) = self.session.as_mut() {
            s.block_states(&pre.states);
        }

        // Partial preimage states are still verified predecessors of the
        // frontier: absorbing them keeps the report a sound
        // under-approximation even when this step was cut short, and the
        // `pending` accumulator carries them into the next frontier so a
        // resumed run explores their predecessors too.
        let pre_node = self
            .graph
            .add_cube_set(pre.states.cubes(), &self.position_vars);
        let new_node = self.graph.diff(pre_node, self.reached);
        self.reached = self.graph.union(self.reached, new_node);
        self.pending = self.graph.union(self.pending, new_node);
        let new_states = self.graph.minterm_count(new_node);
        let iteration = self.iterations.len() + 1;
        sink.record(&Event::ReachIteration {
            iteration: iteration as u32,
            frontier_cubes: frontier.num_cubes() as u64,
            new_states: u64::try_from(new_states).unwrap_or(u64::MAX),
        });
        self.iterations.push(ReachIteration {
            iteration,
            frontier_cubes: frontier.num_cubes(),
            new_states,
            reached_states: self.graph.minterm_count(self.reached),
            elapsed,
        });
        if !pre.complete {
            // An interrupted preimage: an empty new_node here means "ran
            // out of budget", NOT "fixed point" — the frontier stays
            // installed and a later step resumes it.
            self.stalls = if new_node == SolutionNodeId::BOTTOM {
                self.stalls.saturating_add(1)
            } else {
                0
            };
            let reason = pre.stop_reason.unwrap_or(StopReason::Cancelled);
            self.stop = Some(reason);
            return ReachStep::Interrupted(reason);
        }
        self.stalls = 0;
        // The frontier is fully enumerated: advance to the accumulated new
        // states (from this step and any interrupted slices before it).
        self.frontier_node = self.pending;
        self.pending = SolutionNodeId::BOTTOM;
        ReachStep::Advanced
    }

    /// `true` once the fixed point converged (empty frontier).
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Why the last step stopped early, if it did.
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.stop
    }

    /// Preimage calls completed so far (iteration rows).
    pub fn iterations(&self) -> usize {
        self.iterations.len()
    }

    /// The per-iteration rows so far, growing as steps complete — cheaper
    /// than [`report`](ReachDriver::report) (no reached-set extraction)
    /// for streaming progress after each slice.
    pub fn iteration_rows(&self) -> &[ReachIteration] {
        &self.iterations
    }

    /// Cardinality of the current reached set, saturating at `u128::MAX`.
    pub fn reached_states(&self) -> u128 {
        self.graph.minterm_count(self.reached)
    }

    /// Number of cubes the current reached set extracts to, without
    /// materialising them (one per ⊤-path of the decision DAG) — the
    /// daemon's live result-set gauge, cheap enough to read every slice.
    pub fn reached_cubes(&self) -> u64 {
        self.graph.cube_count(self.reached)
    }

    /// Aggregated engine counters over every step so far.
    pub fn stats(&self) -> &PreimageStats {
        &self.stats
    }

    /// Live clause-arena bytes of the driver's persistent session (`0` on
    /// the per-call path) — the admission-control gauge.
    pub fn arena_bytes(&self) -> u64 {
        self.session
            .as_ref()
            .map_or(0, SatPreimageSession::arena_bytes)
    }

    /// Snapshot of the run so far as a [`ReachReport`] — callable at any
    /// point (the daemon streams progress from it) and final once
    /// [`step`](ReachDriver::step) returned [`ReachStep::Done`].
    pub fn report(&self) -> ReachReport {
        let reached_states = self.graph.minterm_count(self.reached);
        let reached_set =
            StateSet::from_cubes(self.graph.to_cube_set(self.reached, &self.position_vars));
        let mut stats = self.stats;
        stats.iterations = self.iterations.len() as u64;
        stats.result_cubes = reached_set.num_cubes() as u64;
        stats.wall_time_ns = self.timer.elapsed_ns();
        ReachReport {
            reached: reached_set,
            reached_states,
            iterations: self.iterations.clone(),
            converged: self.converged,
            complete: self.stop.is_none(),
            stop_reason: self.stop,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bdd_engine::BddPreimage;
    use crate::oracle;
    use crate::sat_engine::SatPreimage;
    use presat_circuit::generators;

    fn check_reach(circuit: &Circuit, target: &StateSet) {
        let n = circuit.num_latches();
        let expect = oracle::backward_reachable_bits(circuit, target);
        for engine in [
            Box::new(SatPreimage::success_driven()) as Box<dyn PreimageEngine>,
            Box::new(SatPreimage::blocking()),
            Box::new(BddPreimage::substitution()),
        ] {
            let report = backward_reach(engine.as_ref(), circuit, target, ReachOptions::default());
            assert!(report.converged);
            assert_eq!(
                report.reached_states,
                expect.len() as u128,
                "{} on {}",
                engine.name(),
                circuit.name()
            );
            for &b in &expect {
                assert!(report.reached.contains_bits(b, n));
            }
        }
    }

    #[test]
    fn counter_reaches_everything() {
        let c = generators::counter(3, false);
        check_reach(&c, &StateSet::from_state_bits(5, 3));
    }

    #[test]
    fn counter_iteration_chain_length() {
        // Reaching state 0 of an n-bit counter takes 2^n - 1 preimage
        // steps (one new state per iteration) plus the empty-frontier step.
        let c = generators::counter(3, false);
        let report = backward_reach(
            &SatPreimage::success_driven(),
            &c,
            &StateSet::from_state_bits(0, 3),
            ReachOptions::default(),
        );
        assert_eq!(report.iterations.len(), 8);
        assert!(report
            .iterations
            .iter()
            .take(7)
            .all(|row| row.new_states == 1));
        assert_eq!(report.iterations.last().unwrap().new_states, 0);
    }

    #[test]
    fn shift_register_converges_quickly() {
        let c = generators::shift_register(4);
        check_reach(&c, &StateSet::from_partial(&[(3, true)]));
    }

    #[test]
    fn lfsr_cycle_reaches_cycle_members() {
        let c = generators::lfsr(4);
        check_reach(&c, &StateSet::from_state_bits(1, 4));
    }

    #[test]
    fn arbiter_reachability() {
        let c = generators::round_robin_arbiter(2);
        check_reach(&c, &StateSet::from_partial(&[(2, true)]));
    }

    #[test]
    fn s27_reachability() {
        let c = presat_circuit::embedded::s27().unwrap();
        check_reach(&c, &StateSet::from_state_bits(2, 3));
    }

    #[test]
    fn iteration_cap_is_respected() {
        let c = generators::counter(4, false);
        let report = backward_reach(
            &SatPreimage::success_driven(),
            &c,
            &StateSet::from_state_bits(0, 4),
            ReachOptions {
                max_iterations: Some(3),
                ..ReachOptions::default()
            },
        );
        assert!(!report.converged);
        assert_eq!(report.iterations.len(), 3);
        assert_eq!(report.reached_states, 4); // target + 3 predecessors
    }

    #[test]
    fn sliced_driver_matches_one_shot_reach_bit_for_bit() {
        // Drive the same fixed points through ReachDriver with a tiny
        // conflict quantum per slice: many Interrupted steps, resumed
        // round-robin style. The final reached set must be the *identical*
        // cube list (canonical graph), the same count, and converged.
        for (circuit, target) in [
            (generators::lfsr(5), StateSet::from_state_bits(7, 5)),
            (
                generators::counter(4, true),
                StateSet::from_state_bits(9, 4),
            ),
            (
                generators::round_robin_arbiter(2),
                StateSet::from_partial(&[(2, true)]),
            ),
        ] {
            let engine = SatPreimage::success_driven();
            let one_shot = backward_reach(&engine, &circuit, &target, ReachOptions::default());
            assert!(one_shot.converged);

            let mut driver = ReachDriver::new(&engine, &circuit, &target, ReachOptions::default());
            let quantum = Budget::unlimited().with_conflicts(1);
            let mut slices = 0u32;
            let mut interrupted = 0u32;
            loop {
                slices += 1;
                assert!(slices < 100_000, "sliced reach did not terminate");
                match driver.step(&engine, &circuit, &quantum, &mut NullSink) {
                    ReachStep::Advanced => {}
                    ReachStep::Interrupted(_) => interrupted += 1,
                    ReachStep::Done => break,
                }
            }
            let sliced = driver.report();
            assert!(sliced.converged, "{}", circuit.name());
            assert!(sliced.complete);
            assert_eq!(sliced.reached_states, one_shot.reached_states);
            assert_eq!(
                sliced.reached.cubes(),
                one_shot.reached.cubes(),
                "{}: sliced reached set must be bit-identical",
                circuit.name()
            );
            let _ = interrupted; // may be 0 on trivially easy circuits
        }
    }

    #[test]
    fn driver_report_is_a_live_snapshot() {
        let c = generators::counter(3, false);
        let engine = SatPreimage::success_driven();
        let target = StateSet::from_state_bits(0, 3);
        let mut driver = ReachDriver::new(&engine, &c, &target, ReachOptions::default());
        assert_eq!(driver.report().reached_states, 1); // just the target
        assert_eq!(
            driver.step(&engine, &c, &Budget::unlimited(), &mut NullSink),
            ReachStep::Advanced
        );
        let mid = driver.report();
        assert_eq!(mid.reached_states, 2);
        assert!(!mid.converged);
        assert!(mid.complete); // not stopped, merely unfinished
        while driver.step(&engine, &c, &Budget::unlimited(), &mut NullSink) == ReachStep::Advanced {
        }
        assert!(driver.converged());
        assert_eq!(driver.report().reached_states, 8);
    }

    #[test]
    fn empty_target_converges_immediately() {
        let c = generators::counter(3, false);
        let report = backward_reach(
            &SatPreimage::success_driven(),
            &c,
            &StateSet::empty(),
            ReachOptions::default(),
        );
        assert!(report.converged);
        assert_eq!(report.reached_states, 0);
        assert!(report.iterations.is_empty());
    }
}
