//! A persistent all-SAT engine for *iterated* enumeration.
//!
//! The preimage fixed point asks the same structural question — "project
//! this transition formula onto the state variables" — over and over, with
//! only the target side changing per iteration. [`IncrementalAllSat`] keeps
//! **one** CDCL solver, **one** solution graph, and **one** signature cache
//! alive across `enumerate` calls: the caller grows the formula
//! monotonically (activation-literal-tagged target clauses, reached-state
//! blocking clauses), enumerates under per-call assumptions, and retires
//! activation groups when an iteration's target is done. Learnt clauses,
//! saved phases, and VSIDS activities all survive between calls, which is
//! the whole point.
//!
//! The solver, key index, graph and cache live in one [`SearchState`],
//! the driver the one-shot engine and the partition workers run too. A
//! sequential call catches the key index up with the grown formula
//! ([`crate::success_driven::KeyIndex::refresh`]), opens a per-call stats
//! window and runs one search under the call's assumptions; the driver
//! returns the solver to level 0, ready for the next `add_clause` or
//! `retire`.
//!
//! # Soundness across calls
//!
//! * **Learnt clauses** are consequences of the problem clauses present
//!   when they were derived; the formula only grows, so they stay sound.
//!   Clauses learnt while an activation group was assumed contain the
//!   negated activation literal (assumption negations are pushed into
//!   learnt clauses by conflict analysis), so they become inert — never
//!   wrong — once the group is retired.
//! * **The dynamic signature cache** persists: a residual key
//!   ([`ResidualIndex::write_key`]) captures the implied suffix values and
//!   the exact surviving-literal contents of the residual suffix cone,
//!   less the clauses that pure auxiliary literals drop, which
//!   *determine* the suffix solution set given that the global formula is
//!   satisfiable under the prefix — and the engine certifies
//!   satisfiability with a fresh model before ever consulting the cache.
//!   The solution set is that of the key's reduced cone, whatever formula
//!   the key was read from, so a key means the same in every call. The
//!   keys stay interned in the cache's arena across calls, and the
//!   residual index's visit marks grow with the mirror CNF. New clauses
//!   added between calls (blocking clauses over state variables,
//!   activation-tagged target clauses under a *currently assumed*
//!   activation literal) appear in the cone while unsatisfied, so they
//!   change the key exactly when they can change the suffix set; one
//!   that makes a dropped literal impure is reached and read too. A group
//!   whose activation literal a call does not assume drops out of its
//!   keys, since that literal is pure.
//! * **Static connectivity keys** are *not* stable under formula growth (a
//!   new clause can connect previously independent variables), so in
//!   [`SignatureMode::Static`] the cache is cleared and the connectivity
//!   index rebuilt on every sequential call. Static mode exists for
//!   ablation only.
//!
//! The persistent [`SolutionGraph`] is shared, hash-consed storage: nodes
//! cached in iteration *k* are reused verbatim in iteration *k+1* when
//! their signature recurs.
//!
//! [`ResidualIndex::write_key`]: crate::signature::ResidualIndex::write_key
//! [`SignatureMode::Static`]: crate::SignatureMode::Static

use presat_logic::{Cnf, Lit, Var};
use presat_obs::{Event, NullSink, ObsSink, SatCounters};
use presat_sat::Solver;

use crate::engine::AllSatResult;
use crate::limits::EnumLimits;
use crate::parallel::{effective_jobs, enumerate_partitioned, gates_sequential};
use crate::solution_graph::SolutionGraph;
use crate::success_driven::{extract_cubes, SearchState, SuccessDrivenAllSat};

/// Search effort, as a multiple of the last inprocessing pass's cost, that
/// must accumulate before [`IncrementalAllSat::retire`] runs another pass.
/// A pass costs the propagations it spends plus the clause-arena words its
/// rounds scan, so however large the arena grows, inprocessing work stays
/// at most half the search propagations it serves. EXPERIMENTS.md R13
/// sizes the multiple: at 2 the passes still subsume nearly as many
/// clauses as a pass at every retirement did, at 10 about a third fewer.
const INPROCESS_EFFORT_RATIO: u64 = 2;

/// An all-SAT engine whose solver, solution graph, and signature cache
/// persist across `enumerate` calls over one monotonically growing formula.
///
/// Protocol per iteration:
///
/// 1. [`add_var`](IncrementalAllSat::add_var) a fresh activation literal
///    `a`, then [`add_clause`](IncrementalAllSat::add_clause) the
///    iteration's clauses with `¬a` disjoined in.
/// 2. [`enumerate_with_sink`](IncrementalAllSat::enumerate_with_sink) with
///    `a` among the assumptions.
/// 3. [`retire`](IncrementalAllSat::retire)`(a)` — the group's clauses are
///    permanently satisfied and garbage-collected from the solver.
/// 4. Optionally `add_clause` permanent clauses (e.g. blocking enumerated
///    states) before the next round.
///
/// # Examples
///
/// ```
/// use presat_allsat::IncrementalAllSat;
/// use presat_logic::{Cnf, Lit, Var};
///
/// let vars: Vec<Var> = (0..2).map(Var::new).collect();
/// let mut cnf = Cnf::new(2);
/// cnf.add_clause([Lit::pos(vars[0]), Lit::pos(vars[1])]);
/// let mut inc = IncrementalAllSat::new(cnf, vars, Default::default(), 1);
///
/// // Iteration 1: additionally require x1, via an activation group.
/// let a = Lit::pos(inc.add_var());
/// inc.add_clause(vec![!a, Lit::pos(Var::new(1))]);
/// let r1 = inc.enumerate(&[a]);
/// assert_eq!(r1.cubes.minterm_count(2), 2); // {x1} = {01, 11}
/// inc.retire(a);
///
/// // Iteration 2: the group is gone; only x0 ∨ x1 remains.
/// let r2 = inc.enumerate(&[]);
/// assert_eq!(r2.cubes.minterm_count(2), 3);
/// ```
#[derive(Debug)]
pub struct IncrementalAllSat {
    config: SuccessDrivenAllSat,
    jobs: usize,
    /// Spawn gate of the parallel partitioner. The default `0` makes a
    /// session constructed with `jobs > 1` always partition; the preimage
    /// layer raises the gate.
    par_threshold: u64,
    /// Mirror of the solver's problem clauses (not its learnt clauses):
    /// the signature machinery reads clause *contents*, which the solver
    /// does not expose. Retired groups stay in the mirror — their
    /// activation unit makes propagation mark them satisfied, so they
    /// vanish from every residual cone.
    cnf: Cnf,
    important: Vec<Var>,
    /// The persistent solver, key index, solution graph and success
    /// cache.
    search: SearchState,
    /// Garbage collection and inprocessing work that `retire` ran
    /// *between* enumeration calls, after the previous call's stats
    /// snapshot was taken. The next call absorbs it into its snapshot and
    /// clears it, so per-call stats sum to session totals.
    pending: SatCounters,
    /// Search propagations reported by enumeration calls (sequential or
    /// partitioned) since the last inprocessing pass.
    search_props: u64,
    /// Cost of the last inprocessing pass: the propagations it spent plus
    /// the clause-arena words it scanned (zero before the first pass, so
    /// the first retirement always inprocesses).
    inprocess_cost: u64,
}

impl IncrementalAllSat {
    /// Creates a session over `cnf`, projecting onto `important`, with the
    /// given engine configuration and worker count (`0` = auto-detect,
    /// `1` = sequential; parallel calls partition each enumeration the same
    /// way [`crate::ParallelAllSat`] does, cloning the persistent solver at
    /// the root).
    ///
    /// # Panics
    ///
    /// Panics if `important` contains duplicates or variables outside the
    /// formula's variable space (same contract as
    /// [`crate::AllSatProblem::new`]).
    pub fn new(cnf: Cnf, important: Vec<Var>, config: SuccessDrivenAllSat, jobs: usize) -> Self {
        let mut seen = vec![false; cnf.num_vars()];
        for &v in &important {
            assert!(
                v.index() < cnf.num_vars(),
                "important variable {v} outside formula space"
            );
            assert!(!seen[v.index()], "duplicate important variable {v}");
            seen[v.index()] = true;
        }
        let search = SearchState::new(Solver::from_cnf(&cnf), config, &cnf, &important);
        IncrementalAllSat {
            config,
            jobs,
            par_threshold: 0,
            cnf,
            important,
            search,
            pending: SatCounters::default(),
            search_props: 0,
            inprocess_cost: 0,
        }
    }

    /// Adds a fresh variable to the formula and the solver (typically an
    /// activation literal).
    pub fn add_var(&mut self) -> Var {
        let v = self.cnf.fresh_var();
        let sv = self.search.solver.add_var();
        debug_assert_eq!(v, sv, "mirror and solver variable spaces diverged");
        v
    }

    /// Adds a clause to the formula and the solver. Must be called between
    /// enumerations (the solver is always at decision level 0 there).
    pub fn add_clause(&mut self, lits: Vec<Lit>) {
        self.cnf.add_clause(lits.iter().copied());
        self.search.solver.add_clause(lits);
    }

    /// Permanently retires the activation group of `act`: asserts `¬act`
    /// and garbage-collects the group's clauses from the solver arena. The
    /// mirror keeps them — propagation sees them satisfied by `¬act`, so
    /// they drop out of every residual signature. Returns the number of
    /// clauses collected.
    ///
    /// Retirement is also the session's inprocessing point: the surviving
    /// problem and learnt clauses are subsumed, strengthened, and vivified
    /// at the root ([`presat_sat::Solver::inprocess`]). The pass is
    /// scheduled by effort, not run at every retirement: the first
    /// retirement always inprocesses, and each later one only once the
    /// search propagations of the enumeration calls since the last pass
    /// reach twice that pass's cost (its propagations plus the clause-arena
    /// words its rounds scanned). Inprocessing is equivalence-preserving, so
    /// enumeration results are unchanged — only the work counters and the
    /// live clause volume move.
    pub fn retire(&mut self, act: Lit) -> u64 {
        let solver = &mut self.search.solver;
        let before = *solver.stats();
        let removed = solver.retire_group(act);
        if self.search_props >= INPROCESS_EFFORT_RATIO * self.inprocess_cost {
            let props = solver.stats().propagations;
            // The arena stores clauses as 4-byte words; every round of the
            // pass reads all of them.
            let words = solver.arena_bytes() as u64 / 4;
            solver.inprocess();
            let after = solver.stats();
            let rounds = after.inprocess_rounds - before.inprocess_rounds;
            self.inprocess_cost = after.propagations - props + rounds * words;
            self.search_props = 0;
        }
        let after = solver.stats();
        self.pending.absorb(&SatCounters {
            db_compactions: after.db_compactions - before.db_compactions,
            clauses_reclaimed: after.clauses_reclaimed - before.clauses_reclaimed,
            inprocess_rounds: after.inprocess_rounds - before.inprocess_rounds,
            subsumed_clauses: after.subsumed_clauses - before.subsumed_clauses,
            strengthened_lits: after.strengthened_lits - before.strengthened_lits,
            vivified_clauses: after.vivified_clauses - before.vivified_clauses,
            ..SatCounters::default()
        });
        removed
    }

    /// Sets the spawn gate of `jobs > 1` enumerations: calls whose
    /// `important × clauses` product falls below `threshold` run
    /// sequentially (`0` = always partition).
    pub fn set_par_threshold(&mut self, threshold: u64) {
        self.par_threshold = threshold;
    }

    /// Number of live learnt clauses currently carried by the persistent
    /// solver (the `learnts_carried` observability counter).
    pub fn live_learnts(&self) -> usize {
        self.search.solver.live_learnt_count()
    }

    /// Bytes currently resident in the persistent solver's clause arena —
    /// the session's live memory footprint, which the `presatd` admission
    /// controller sums across sessions against its ceiling.
    pub fn arena_bytes(&self) -> u64 {
        self.search.solver.arena_bytes() as u64
    }

    /// The persistent solution graph (shared storage across calls).
    pub fn graph(&self) -> &SolutionGraph {
        &self.search.graph
    }

    /// Enumerates the projection of the current formula's models, under
    /// `assumptions` (activation literals), onto the important variables.
    ///
    /// Results are bit-identical to a cold
    /// [`crate::SuccessDrivenAllSat`] / [`crate::ParallelAllSat`] run on
    /// the same formula + assumptions: the persistent state is pure
    /// acceleration (learnt clauses, cached canonical subgraphs), never
    /// semantics. Work counters in the returned stats cover this call only.
    pub fn enumerate_with_sink(
        &mut self,
        assumptions: &[Lit],
        sink: &mut dyn ObsSink,
    ) -> AllSatResult {
        self.enumerate_limited(assumptions, &EnumLimits::none(), sink)
    }

    /// [`enumerate_with_sink`](IncrementalAllSat::enumerate_with_sink)
    /// under resource `limits`, which apply to **this call only** — the
    /// installed budget/cancel are removed from the persistent solver
    /// before returning, so a later unlimited call runs unlimited.
    ///
    /// A stopped call returns a partial result flagged `complete = false`;
    /// the session stays fully usable, and nothing the truncated run
    /// explored is allowed to poison the persistent signature cache (only
    /// exhaustively enumerated subspaces are ever cached).
    ///
    /// A stopped call is resumed by making it again. Every subspace it
    /// finished stays cached, so with dynamic keys on the sequential path
    /// the re-run reaches the stop point through cache hits, and the
    /// clauses the stopped call learnt under its assumptions still hold.
    /// Static keys clear the cache on every call, no-reuse keys never
    /// fill it, and a partitioned call's workers keep nothing: those
    /// configurations restart a stopped call.
    pub fn enumerate_limited(
        &mut self,
        assumptions: &[Lit],
        limits: &EnumLimits,
        sink: &mut dyn ObsSink,
    ) -> AllSatResult {
        let k = self.important.len();
        let jobs = effective_jobs(self.jobs);
        let (root, mut stats, stop) = if jobs > 1
            && k > 0
            && !gates_sequential(self.par_threshold, k, self.cnf.num_clauses())
        {
            // Partitioned: workers clone the persistent solver at the root
            // (inheriting its learnt clauses and phases) and merge into the
            // persistent graph. Per-worker learnts die with the workers —
            // learnt *carrying* is the sequential path's job.
            enumerate_partitioned(
                self.config,
                jobs,
                &self.cnf,
                &self.important,
                &self.search.solver,
                assumptions,
                limits,
                &mut self.search.graph,
                sink,
            )
        } else {
            let (cnf, important, search) = (&self.cnf, &self.important, &mut self.search);
            search.index.refresh(cnf, important, &mut search.cache);
            search.solver.reset_stats();
            let outcome = search.run(cnf, important, assumptions, &[], limits, sink);
            if let Some(reason) = outcome.stop {
                sink.record(&Event::BudgetStop { reason });
            }
            (outcome.root, outcome.stats, outcome.stop)
        };
        // The search effort that schedules `retire`'s next inprocessing
        // pass. (The pending counters absorbed below add no propagations.)
        self.search_props += stats.sat.propagations;
        // Attribute between-call work (from `retire`) to this call's
        // snapshot, exactly once.
        stats.sat.absorb(&std::mem::take(&mut self.pending));
        let cubes = extract_cubes(&self.search.graph, root, &self.important, &mut stats, sink);
        AllSatResult {
            cubes,
            graph: None,
            stats,
            complete: stop.is_none(),
            stop_reason: stop,
        }
    }

    /// [`enumerate_with_sink`](IncrementalAllSat::enumerate_with_sink)
    /// without an event trace.
    pub fn enumerate(&mut self, assumptions: &[Lit]) -> AllSatResult {
        self.enumerate_with_sink(assumptions, &mut NullSink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AllSatEngine, AllSatProblem};
    use crate::parallel::ParallelAllSat;
    use crate::success_driven::SignatureMode;
    use presat_logic::rng::SplitMix64;

    fn lit(v: usize, pos: bool) -> Lit {
        Lit::with_phase(Var::new(v), pos)
    }

    fn random_cnf(seed: u64, n: usize, m: usize) -> Cnf {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut cnf = Cnf::new(n);
        for _ in 0..m {
            let c: Vec<Lit> = (0..3)
                .map(|_| lit(rng.gen_range(0..n), rng.gen_bool(0.5)))
                .collect();
            cnf.add_clause(c);
        }
        cnf
    }

    /// Oracle: the session's answer after any history must equal a cold
    /// engine run on (mirror CNF + pending activation units + assumptions).
    fn cold_answer(
        cnf: &Cnf,
        important: &[Var],
        retired: &[Lit],
        assumptions: &[Lit],
        config: SuccessDrivenAllSat,
    ) -> AllSatResult {
        let mut full = cnf.clone();
        for &dead in retired {
            full.add_unit(!dead);
        }
        for &a in assumptions {
            full.add_unit(a);
        }
        let p = AllSatProblem::new(full, important.to_vec());
        config.enumerate(&p)
    }

    #[test]
    fn iterated_groups_match_cold_runs_all_modes_and_jobs() {
        for mode in [
            SignatureMode::None,
            SignatureMode::Static,
            SignatureMode::Dynamic,
        ] {
            for jobs in [1usize, 4] {
                let config = SuccessDrivenAllSat::new().with_signature(mode);
                for seed in 0..4u64 {
                    let n = 7;
                    let base = random_cnf(seed, n, 12);
                    let important: Vec<Var> = Var::range(5).collect();
                    let mut inc =
                        IncrementalAllSat::new(base.clone(), important.clone(), config, jobs);
                    let mut retired: Vec<Lit> = Vec::new();
                    let mut rng = SplitMix64::seed_from_u64(seed ^ 0xfeed);
                    for round in 0..5 {
                        let act = Lit::pos(inc.add_var());
                        // 1–2 random clauses tagged with the group literal.
                        for _ in 0..rng.gen_range(1..3) {
                            let mut c: Vec<Lit> = (0..2)
                                .map(|_| lit(rng.gen_range(0..n), rng.gen_bool(0.5)))
                                .collect();
                            c.push(!act);
                            inc.add_clause(c.clone());
                        }
                        let got = inc.enumerate(&[act]);
                        let want = cold_answer(
                            // The mirror *is* the reference formula.
                            &inc.cnf,
                            &important,
                            &retired,
                            &[act],
                            config,
                        );
                        assert_eq!(
                            got.cubes, want.cubes,
                            "mode {mode:?} jobs {jobs} seed {seed} round {round}"
                        );
                        inc.retire(act);
                        retired.push(act);
                        // A permanent blocking clause between iterations.
                        if round % 2 == 0 {
                            let c: Vec<Lit> = (0..3)
                                .map(|_| lit(rng.gen_range(0..5), rng.gen_bool(0.5)))
                                .collect();
                            inc.add_clause(c);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_group_yields_bottom_and_session_survives() {
        let cnf = random_cnf(9, 6, 10);
        let important: Vec<Var> = Var::range(4).collect();
        let mut inc = IncrementalAllSat::new(cnf.clone(), important.clone(), Default::default(), 1);
        let act = Lit::pos(inc.add_var());
        // The group forces a contradiction: enumeration under it is empty.
        inc.add_clause(vec![!act, lit(0, true)]);
        inc.add_clause(vec![!act, lit(0, false)]);
        let r = inc.enumerate(&[act]);
        assert!(r.cubes.is_empty());
        inc.retire(act);
        // The session is still usable and matches a cold run.
        let got = inc.enumerate(&[]);
        let want = cold_answer(&inc.cnf, &important, &[act], &[], Default::default());
        assert_eq!(got.cubes, want.cubes);
    }

    #[test]
    fn stopped_calls_resume_through_the_success_cache() {
        let cnf = random_cnf(2, 30, 84);
        let important: Vec<Var> = Var::range(12).collect();
        let cold = SuccessDrivenAllSat::new()
            .enumerate(&AllSatProblem::new(cnf.clone(), important.clone()));
        let mut inc = IncrementalAllSat::new(cnf, important, Default::default(), 1);
        let limits =
            EnumLimits::none().with_budget(presat_sat::Budget::unlimited().with_conflicts(1));
        let mut calls = 0;
        let mut resumed_hits = 0;
        let last = loop {
            let r = inc.enumerate_limited(&[], &limits, &mut NullSink);
            assert!(r.stats.sat.conflicts <= 1);
            calls += 1;
            assert!(calls < 100_000, "resumed calls did not finish");
            if calls > 1 {
                resumed_hits += r.stats.cache_hits;
            }
            if r.complete {
                break r;
            }
        };
        assert!(calls > 1, "the budget must stop the first call");
        assert!(
            resumed_hits > 0,
            "resumed calls reuse what stopped ones cached"
        );
        assert_eq!(last.cubes, cold.cubes);
    }

    #[test]
    fn stats_cover_each_call_separately() {
        let cnf = random_cnf(2, 7, 12);
        let important: Vec<Var> = Var::range(5).collect();
        let mut inc = IncrementalAllSat::new(cnf, important, Default::default(), 1);
        let r1 = inc.enumerate(&[]);
        let r2 = inc.enumerate(&[]);
        assert!(r1.stats.solver_calls > 0);
        // Second call re-proves the same space; counters must not be
        // cumulative across calls.
        assert!(r2.stats.solver_calls <= r1.stats.solver_calls);
    }

    #[test]
    fn parallel_session_matches_parallel_engine() {
        for seed in 0..3u64 {
            let cnf = random_cnf(seed.wrapping_mul(77).wrapping_add(5), 8, 16);
            let important: Vec<Var> = Var::range(6).collect();
            let cold = ParallelAllSat::new(4)
                .enumerate(&AllSatProblem::new(cnf.clone(), important.clone()));
            let mut inc = IncrementalAllSat::new(cnf, important, Default::default(), 4);
            let got = inc.enumerate(&[]);
            assert_eq!(got.cubes, cold.cubes, "seed {seed}");
            assert_eq!(got.stats.graph_nodes, cold.stats.graph_nodes);
        }
    }

    #[test]
    fn learnts_survive_across_calls() {
        // A dense random instance, to exercise the counter plumbing.
        let cnf = random_cnf(123, 9, 30);
        let important: Vec<Var> = Var::range(6).collect();
        let mut inc = IncrementalAllSat::new(cnf, important, Default::default(), 1);
        let _ = inc.enumerate(&[]);
        let carried = inc.live_learnts();
        let _ = inc.enumerate(&[]);
        // The count never resets to a fresh solver's zero unless the solver
        // actually had nothing to learn.
        assert!(inc.live_learnts() >= carried);
    }
}
