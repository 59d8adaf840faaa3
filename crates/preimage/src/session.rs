//! The incremental preimage session: one encoding, one solver, many
//! frontiers.
//!
//! The backward-reachability fixed point computes `Pre(F_1), Pre(F_2), …`
//! over the *same* transition relation — only the target side changes.
//! [`SatPreimageSession`] therefore Tseitin-encodes the next-state cones
//! **once** ([`StepBase`]) and keeps one
//! [`IncrementalAllSat`] alive for the whole loop:
//!
//! * Each iteration's target is written by the one-shot path's cube-union
//!   writer ([`write_cube_union`]) guarded by a fresh *activation
//!   literal* `a`, and enabled by assuming `a` while that target is
//!   enumerated. Once its enumeration completes, the group is retired —
//!   `¬a` becomes a permanent unit, and the group's clauses (plus any
//!   learnt clause that depended on them, which necessarily contains
//!   `¬a`) go inert and are garbage-collected.
//! * A call that a budget, deadline or cancellation stops keeps its group
//!   open, and the next call on the same target runs under it again: the
//!   `¬a` learnt clauses still prune, and the success cache holds every
//!   subspace the stopped call finished, so the re-run reaches the stop
//!   point through cache hits and resumes there. This holds for a
//!   sequential session with dynamic keys, the configuration `presatd`
//!   runs; a partitioned session (`jobs > 1`) and static or no-reuse keys
//!   keep no cache across calls, so they restart a stopped call. A call
//!   on any other target retires the open group first.
//! * Learnt clauses about the *transition relation itself* contain no
//!   activation literal and keep pruning search in every later iteration,
//!   along with saved phases, variable activities, and the success-driven
//!   signature cache.
//! * [`block_states`](SatPreimageSession::block_states) adds permanent
//!   blocking clauses over the state variables, so states already known
//!   backward-reachable are never re-enumerated. The reachability loop
//!   blocks a frontier's preimage once, when its enumeration completes.

use presat_allsat::{EnumLimits, IncrementalAllSat, SuccessDrivenAllSat};
use presat_circuit::Circuit;
use presat_logic::{CubeSet, Lit};
use presat_obs::{ObsSink, Timer};

use crate::encoding::{preimage_result, write_cube_union, StepBase};
use crate::engine::PreimageResult;
use crate::state_set::StateSet;

/// A persistent SAT preimage session (see the module docs): one
/// transition-relation encoding, one incremental solver, many queries.
/// Created via [`crate::PreimageEngine::open_session`] on a
/// success-driven [`crate::SatPreimage`].
///
/// Between queries the caller may
/// [`block_states`](SatPreimageSession::block_states) — subsequent
/// preimages then exclude those states, which the reachability loop uses
/// to keep already-reached states out of every later enumeration.
///
/// Sessions are `Send` so a service can park one between slices and
/// resume it from another worker thread.
pub struct SatPreimageSession {
    inner: IncrementalAllSat,
    /// Next-state function literals, position `j` = latch `j`.
    next_lits: Vec<Lit>,
    num_latches: usize,
    name: String,
    /// Preimage calls served so far (every call after the first reuses the
    /// session encoding).
    iterations: u64,
    /// The target and activation literal of a stopped call, whose group
    /// stays open for the next call on the same target.
    open: Option<(StateSet, Lit)>,
}

impl SatPreimageSession {
    /// Encodes `circuit` (with optional input environment `env`) and opens
    /// the session.
    pub(crate) fn open(
        circuit: &Circuit,
        config: SuccessDrivenAllSat,
        jobs: usize,
        par_threshold: u64,
        env: Option<&CubeSet>,
        name: String,
    ) -> Self {
        let base = StepBase::build(circuit, env);
        let num_latches = base.num_latches();
        let state_vars = base.state_vars();
        let (cnf, next_lits) = base.into_parts();
        let mut inner = IncrementalAllSat::new(cnf, state_vars, config, jobs);
        inner.set_par_threshold(par_threshold);
        SatPreimageSession {
            inner,
            next_lits,
            num_latches,
            name,
            iterations: 0,
            open: None,
        }
    }

    /// Adds the target constraint `T(Y)` over the next-state literals as
    /// a clause group guarded by a fresh activation literal and returns
    /// that literal. An empty target writes the unit `¬act`: the
    /// enumeration's `act` assumption then fails at once, and retirement
    /// is a no-op.
    fn activate_target(&mut self, target: &StateSet) -> Lit {
        let act = Lit::pos(self.inner.add_var());
        let n = self.num_latches;
        let next_lits = &self.next_lits;
        write_cube_union(
            &mut self.inner,
            target.cubes(),
            |l| {
                let j = l.var().index();
                assert!(j < n, "target cube mentions latch position {j} ≥ {n}");
                if l.is_pos() {
                    next_lits[j]
                } else {
                    !next_lits[j]
                }
            },
            Some(act),
        );
        act
    }

    /// A short name for tables: the owning engine's name plus an
    /// `+incremental` marker.
    pub fn name(&self) -> String {
        self.name.clone()
    }

    /// Computes `Pre(target)` minus every state blocked so far, reporting
    /// enumeration-level events to `sink`.
    pub fn preimage_with_sink(
        &mut self,
        target: &StateSet,
        sink: &mut dyn ObsSink,
    ) -> PreimageResult {
        self.preimage_limited(target, &EnumLimits::none(), sink)
    }

    /// [`preimage_with_sink`](SatPreimageSession::preimage_with_sink)
    /// under resource `limits`; a stopped call returns the verified
    /// partial preimage flagged `complete = false`, and the session stays
    /// usable.
    ///
    /// A stopped call keeps its activation group open for the next call on
    /// the same target, which resumes it (see the module docs). Each call
    /// returns what it enumerated, cache hits included, so the call that
    /// completes returns the whole preimage. A call on any other target
    /// retires the open group first.
    pub fn preimage_limited(
        &mut self,
        target: &StateSet,
        limits: &EnumLimits,
        sink: &mut dyn ObsSink,
    ) -> PreimageResult {
        let timer = Timer::start();
        let learnts_carried = self.inner.live_learnts() as u64;
        let encodings_reused = u64::from(self.iterations > 0);
        let (act, fresh) = match self.open.take() {
            Some((open, act)) if open == *target => (act, false),
            stale => {
                if let Some((_, act)) = stale {
                    self.inner.retire(act);
                }
                (self.activate_target(target), true)
            }
        };
        let result = self.inner.enumerate_limited(&[act], limits, sink);
        // The session's persistent state never absorbs truncated
        // subgraphs, so retiring a group, or keeping it for a resume, is
        // sound after any call.
        if result.complete {
            self.inner.retire(act);
        } else {
            self.open = Some((target.clone(), act));
        }
        self.iterations += 1;
        let mut pre = preimage_result(result, &timer, sink);
        pre.stats.encodings_reused = encodings_reused;
        pre.stats.learnts_carried = learnts_carried;
        pre.stats.activation_lits = u64::from(fresh);
        // The session path encodes every cone once up front (the shared
        // base must serve any future target), so COI skipping does not
        // apply here: `cones_skipped` stays 0.
        pre
    }

    /// Permanently excludes `states` from all future results (adds one
    /// blocking clause per cube to the persistent solver). The
    /// reachability loop calls it once per completed frontier, never
    /// between the slices of a stopped one, which resume without it.
    pub fn block_states(&mut self, states: &StateSet) {
        // State cubes are over latch positions, which *are* the CNF state
        // variables — negate each cube into one permanent blocking clause.
        for cube in states.cubes() {
            let clause: Vec<Lit> = cube.lits().iter().map(|&l| !l).collect();
            self.inner.add_clause(clause);
        }
    }

    /// Bytes currently resident in the session's solver arena — the live
    /// memory footprint a multi-tenant scheduler sums for admission
    /// control.
    pub fn arena_bytes(&self) -> u64 {
        self.inner.arena_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PreimageEngine;
    use crate::sat_engine::SatPreimage;
    use presat_allsat::Budget;
    use presat_circuit::generators;

    #[test]
    fn session_matches_per_call_engine_on_fresh_targets() {
        let c = generators::counter(4, false);
        let engine = SatPreimage::success_driven();
        let mut session = engine
            .open_session(&c)
            .expect("success-driven has sessions");
        for bits in [9u64, 3, 0, 15] {
            let t = StateSet::from_state_bits(bits, 4);
            let cold = engine.preimage(&c, &t);
            let warm = session.preimage_with_sink(&t, &mut presat_obs::NullSink);
            assert_eq!(
                warm.states.cubes(),
                cold.states.cubes(),
                "target {bits} diverges"
            );
        }
    }

    #[test]
    fn session_counters_report_reuse() {
        let c = generators::lfsr(4);
        let engine = SatPreimage::success_driven();
        let mut session = engine.open_session(&c).unwrap();
        let t = StateSet::from_state_bits(13, 4);
        let first = session.preimage_with_sink(&t, &mut presat_obs::NullSink);
        assert_eq!(first.stats.encodings_reused, 0);
        assert_eq!(first.stats.activation_lits, 1);
        let second = session.preimage_with_sink(&t, &mut presat_obs::NullSink);
        assert_eq!(second.stats.encodings_reused, 1);
    }

    #[test]
    fn blocked_states_disappear_from_results() {
        let c = generators::counter(3, false);
        let engine = SatPreimage::success_driven();
        let mut session = engine.open_session(&c).unwrap();
        let t = StateSet::from_state_bits(5, 3);
        let pre = session.preimage_with_sink(&t, &mut presat_obs::NullSink);
        assert_eq!(pre.states.minterm_count(3), 1); // predecessor: 4
        session.block_states(&pre.states);
        let again = session.preimage_with_sink(&t, &mut presat_obs::NullSink);
        assert!(
            again.states.is_empty(),
            "blocked predecessor must not recur"
        );
    }

    #[test]
    fn empty_target_in_session_yields_empty_preimage() {
        let c = generators::counter(3, false);
        let engine = SatPreimage::success_driven();
        let mut session = engine.open_session(&c).unwrap();
        let pre = session.preimage_with_sink(&StateSet::empty(), &mut presat_obs::NullSink);
        assert!(pre.states.is_empty());
        // The session survives the degenerate group.
        let t = StateSet::from_state_bits(5, 3);
        let pre = session.preimage_with_sink(&t, &mut presat_obs::NullSink);
        assert_eq!(pre.states.minterm_count(3), 1);
    }

    #[test]
    fn stopped_call_resumes_under_its_activation_group() {
        let c = generators::random_dag(6, 10, 120, 1);
        let t = StateSet::from_partial(&[(0, true), (1, false)]);
        let engine = SatPreimage::success_driven();
        let cold = engine.preimage(&c, &t);
        let mut session = engine.open_session(&c).unwrap();
        let limits = EnumLimits::none().with_budget(Budget::unlimited().with_conflicts(1));
        let (mut calls, mut activation_lits) = (0, 0);
        let pre = loop {
            let pre = session.preimage_limited(&t, &limits, &mut presat_obs::NullSink);
            calls += 1;
            activation_lits += pre.stats.activation_lits;
            assert!(pre.stats.allsat.sat.conflicts <= 1);
            assert!(calls < 100_000, "resumed calls did not finish");
            if pre.complete {
                break pre;
            }
        };
        assert!(calls > 1, "the budget must stop the first call");
        assert_eq!(activation_lits, 1, "every resumed call reuses the group");
        assert_eq!(pre.states.cubes(), cold.states.cubes());
    }

    #[test]
    fn a_call_on_another_target_retires_the_open_group() {
        let c = generators::counter(4, false);
        let engine = SatPreimage::success_driven();
        let mut session = engine.open_session(&c).unwrap();
        let (a, b) = (
            StateSet::from_state_bits(9, 4),
            StateSet::from_state_bits(3, 4),
        );
        let none = EnumLimits::none().with_budget(Budget::unlimited().with_conflicts(0));
        let stopped = session.preimage_limited(&a, &none, &mut presat_obs::NullSink);
        assert!(!stopped.complete);
        for t in [&b, &a] {
            let warm = session.preimage_with_sink(t, &mut presat_obs::NullSink);
            assert_eq!(warm.stats.activation_lits, 1, "a fresh group per target");
            assert_eq!(warm.states.cubes(), engine.preimage(&c, t).states.cubes());
        }
    }

    #[test]
    fn blocking_engines_have_no_session() {
        let c = generators::counter(3, false);
        assert!(SatPreimage::blocking().open_session(&c).is_none());
        assert!(SatPreimage::min_blocking().open_session(&c).is_none());
    }

    #[test]
    fn sessions_are_send() {
        // A service parks a session between slices and resumes it on
        // another worker thread.
        fn assert_send<T: Send>() {}
        assert_send::<SatPreimageSession>();
    }

    #[test]
    fn session_name_marks_incremental() {
        let c = generators::counter(3, false);
        let s = SatPreimage::success_driven().open_session(&c).unwrap();
        assert!(s.name().contains("incremental"));
    }
}
