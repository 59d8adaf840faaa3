//! Blocking-clause-free enumeration via chronological backtracking.
//!
//! The engine of Spallitta–Sebastiani–Biere ("Disjoint Partial Enumeration
//! without Blocking Clauses"): drive the decision stack from outside the
//! solver, and on each total model *flip the deepest open decision* instead
//! of asserting a blocking clause. The clause database therefore stays flat
//! in the number of solutions — the property the blocking baseline loses on
//! dense solution sets — while the emitted cubes remain pairwise disjoint.
//!
//! # How disjointness survives lifting
//!
//! A naive combination of chronological backtracking with cube lifting is
//! unsound: dropping an important decision literal from an emitted cube
//! while its decision level stays open lets a later flip of that level
//! re-enter the emitted region. The engine instead uses a
//! disjointness-preserving *absorb rule*:
//!
//! 1. Lift the total model over the important variables, yielding the kept
//!    set `K` (a sound implicant of the projection).
//! 2. Scanning from the deepest decision level, absorb a level iff no kept
//!    literal was assigned at it **and** the level is open or an auxiliary
//!    (non-important) decision. Stop at the first level `L*` that fails.
//! 3. Emit the cube of **all** important trail literals at levels `≤ L*`,
//!    then flip `L*` (or, if `L*` is already closed, the deepest open level
//!    below it).
//!
//! Every emitted cube is a superset of `K`'s literals, hence a sound
//! implicant. Because important variables are decided before auxiliaries,
//! no important literal is ever assigned at an auxiliary level, so
//! absorbing auxiliary subtrees (whose siblings differ only in don't-care
//! variables) and open important levels (both phases covered by the emitted
//! cube) loses no solutions. Closed important levels are never absorbed —
//! their siblings produced earlier cubes — so any cube emitted while a
//! closed important level is on the trail contains that level's flipped
//! decision literal, which is what makes the cube set pairwise disjoint.
//!
//! No code path of this engine calls `add_clause`: `scripts/verify.sh`
//! greps for exactly that.

use presat_logic::{Cube, CubeSet, Lit, Var};
use presat_obs::{Event, ObsSink, StopReason};
use presat_sat::Solver;

use crate::engine::{AllSatEngine, AllSatProblem, AllSatResult, EnumerationStats};
use crate::lift::Lifter;
use crate::limits::EnumLimits;
use crate::solution_graph::SolutionGraph;

/// Budget-poll stride for the wall-clock check, mirroring the CDCL loop's
/// `TIME_POLL_STRIDE`.
const TIME_POLL_STRIDE: u64 = 64;

/// One driver-side decision level; `levels[i]` corresponds to solver
/// decision level `i + 1`.
#[derive(Clone, Copy, Debug)]
struct ChronoLevel {
    /// The decision literal asserted at this level.
    decision: Lit,
    /// `true` once this is the second (flipped) phase: the sibling subtree
    /// is exhausted and the level must not be flipped again.
    closed: bool,
    /// Whether the decision variable is important (projection) — closed
    /// important levels anchor disjointness and are never absorbed.
    important: bool,
}

/// All-solutions enumeration by chronological backtracking: no blocking
/// clauses, no clause learning, a clause database of constant size, and a
/// pairwise-disjoint cube output.
///
/// # Examples
///
/// ```
/// use presat_allsat::{AllSatEngine, AllSatProblem, ChronoAllSat};
/// use presat_logic::{Cnf, Lit, Var};
///
/// let mut cnf = Cnf::new(2);
/// cnf.add_clause([Lit::pos(Var::new(0)), Lit::pos(Var::new(1))]);
/// let problem = AllSatProblem::new(cnf, vec![Var::new(0), Var::new(1)]);
/// let result = ChronoAllSat::new().enumerate(&problem);
/// assert_eq!(result.minterm_count(2), 3);
/// assert_eq!(result.stats.blocking_clauses, 0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChronoAllSat;

impl ChronoAllSat {
    /// Creates the engine (stateless).
    pub fn new() -> Self {
        ChronoAllSat
    }
}

/// Flips the deepest open level: pops every deeper (closed or absorbed)
/// level, re-decides the negation marked closed, and resolves any chain of
/// immediate conflicts the same way. Returns `false` when no open level
/// remains — the decision tree is exhausted.
fn flip_deepest_open(
    solver: &mut Solver,
    levels: &mut Vec<ChronoLevel>,
    stats: &mut EnumerationStats,
) -> bool {
    loop {
        let Some(pos) = levels.iter().rposition(|l| !l.closed) else {
            solver.backtrack(0);
            return false;
        };
        let flip = levels[pos];
        levels.truncate(pos);
        solver.backtrack(pos);
        stats.chrono_backtracks += 1;
        let lit = !flip.decision;
        levels.push(ChronoLevel {
            decision: lit,
            closed: true,
            important: flip.important,
        });
        if solver.decide(lit) {
            return true;
        }
        // The flipped branch conflicts immediately: keep unwinding.
    }
}

impl AllSatEngine for ChronoAllSat {
    fn name(&self) -> &'static str {
        "chrono"
    }

    fn enumerate_limited(
        &self,
        problem: &AllSatProblem,
        limits: &EnumLimits,
        sink: &mut dyn ObsSink,
    ) -> AllSatResult {
        let k = problem.important.len();
        let num_vars = problem.cnf.num_vars();
        let mut is_important = vec![false; num_vars];
        for &v in &problem.important {
            is_important[v.index()] = true;
        }

        let mut solver = Solver::from_cnf(&problem.cnf);
        solver.set_budget(limits.budget);
        solver.set_cancel(limits.cancel.clone());
        let mut stats = EnumerationStats {
            solver_calls: 1,
            ..Default::default()
        };
        let mut cubes = CubeSet::new();
        let mut stopped: Option<StopReason> = None;
        let mut levels: Vec<ChronoLevel> = Vec::new();
        let mut lifter = Lifter::new(&problem.cnf, &problem.important);
        let mut polls = 0u64;
        let mut minterms_emitted = 0u64;

        // The DB gauge `tests/cross_engine.rs` pins: constant here, because
        // the loop below never allocates a clause (no blocking, no learning).
        let stamp_db_peak = |solver: &Solver, stats: &mut EnumerationStats| {
            stats.db_clauses_peak = stats.db_clauses_peak.max(solver.db_clauses());
        };

        if solver.resource_exhausted() {
            // The input formula itself did not fit: nothing provable.
            stats.sat = *solver.stats();
            stats.budget_stops = 1;
            sink.record(&Event::BudgetStop {
                reason: StopReason::ResourceExhausted,
            });
            return AllSatResult {
                cubes,
                graph: None,
                stats,
                complete: false,
                stop_reason: Some(StopReason::ResourceExhausted),
            };
        }

        let refuted = !solver.is_ok() || !solver.propagate_root();
        stamp_db_peak(&solver, &mut stats);
        let mut exhausted = refuted;
        while !exhausted {
            polls += 1;
            if let Some(reason) = solver.poll_budget(polls.is_multiple_of(TIME_POLL_STRIDE)) {
                stopped = Some(reason);
                break;
            }
            // Branch important variables first, in problem order; only when
            // all are assigned descend into the auxiliaries (index order).
            // Important-first branching is what guarantees that auxiliary
            // levels never assign an important variable. Every variable
            // below the deepest auxiliary decision on the stack was assigned
            // when that decision was made, and still is, so the scan of the
            // auxiliaries starts at that decision's variable.
            let next = problem
                .important
                .iter()
                .copied()
                .find(|&v| solver.value(v).is_none())
                .map(|v| (v, true))
                .or_else(|| {
                    let from = levels
                        .iter()
                        .rev()
                        .find(|l| !l.important)
                        .map_or(Var::new(0), |l| l.decision.var());
                    solver.next_unassigned(from).map(|v| (v, false))
                });
            let Some((var, important)) = next else {
                // Total model. Lift it, absorb fully-covered deep levels,
                // emit, and flip to the next branch.
                let model = solver.model_snapshot();
                let lifted = lifter.lift(&model);
                let mut level_has_kept = vec![false; levels.len() + 1];
                for l in lifted.lits() {
                    let lv = solver.level_of(l.var()).expect("model literal assigned");
                    level_has_kept[lv] = true;
                }
                let mut lstar = levels.len();
                while lstar > 0 {
                    let dl = &levels[lstar - 1];
                    if level_has_kept[lstar] || (dl.closed && dl.important) {
                        break;
                    }
                    lstar -= 1;
                }
                let cube = Cube::from_lits(
                    solver
                        .trail_prefix(lstar)
                        .iter()
                        .copied()
                        .filter(|l| is_important[l.var().index()]),
                )
                .expect("trail variables are distinct");
                stats.cubes_emitted += 1;
                stats.literals_before_lift += k as u64;
                stats.literals_after_lift += cube.len() as u64;
                sink.record(&Event::Solution {
                    width: cube.len() as u32,
                });
                let free = (k - cube.len()).min(63) as u32;
                minterms_emitted = minterms_emitted.saturating_add(1u64 << free);
                // The absorb rule keeps the cubes pairwise disjoint, so
                // none subsumes another: append without the store's scans.
                cubes.push_disjoint(cube);
                if limits.max_solutions.is_some_and(|max| minterms_emitted >= max) {
                    stopped = Some(StopReason::MaxSolutions);
                    break;
                }
                if lstar == 0 {
                    // The emitted cube covers everything reachable below
                    // level 0 — only possible before any flip, so this is
                    // the first and last emission.
                    break;
                }
                levels.truncate(lstar);
                solver.backtrack(lstar);
                if !flip_deepest_open(&mut solver, &mut levels, &mut stats) {
                    break;
                }
                continue;
            };
            let lit = Lit::with_phase(var, false);
            levels.push(ChronoLevel {
                decision: lit,
                closed: false,
                important,
            });
            if !solver.decide(lit) && !flip_deepest_open(&mut solver, &mut levels, &mut stats) {
                exhausted = true;
            }
        }
        solver.backtrack(0);
        if stopped.is_none() && solver.resource_exhausted() {
            stopped = Some(StopReason::ResourceExhausted);
        }
        stamp_db_peak(&solver, &mut stats);
        stats.sat = *solver.stats();
        stats.sat_conflicts = stats.sat.conflicts;
        stats.sat_decisions = stats.sat.decisions;
        let (graph, root) = SolutionGraph::from_cube_set(&cubes, &problem.important);
        stats.graph_nodes = graph.reachable_count(root) as u64;
        if let Some(reason) = stopped {
            stats.budget_stops = 1;
            sink.record(&Event::BudgetStop { reason });
        }
        AllSatResult {
            cubes,
            graph: Some((graph, root)),
            stats,
            complete: stopped.is_none(),
            stop_reason: stopped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presat_logic::{truth_table, Cnf};

    fn lit(v: usize, pos: bool) -> Lit {
        Lit::with_phase(Var::new(v), pos)
    }

    fn check_exact(cnf: &Cnf, important: &[Var], label: &str) {
        let p = AllSatProblem::new(cnf.clone(), important.to_vec());
        let r = ChronoAllSat::new().enumerate(&p);
        assert!(r.complete, "{label}: incomplete without limits");
        let expect = truth_table::project_models_set(cnf, important);
        assert!(
            r.cubes.semantically_eq(&expect, important),
            "{label}: cube set diverges from the truth table"
        );
        // Disjointness: the minterm counts of the cubes must add up.
        let total: u128 = r
            .cubes
            .iter()
            .map(|c| 1u128 << (important.len() - c.len()))
            .sum();
        assert_eq!(
            total,
            expect.minterm_count_approx(important),
            "{label}: cubes overlap"
        );
        assert_eq!(r.stats.blocking_clauses, 0, "{label}: blocked a clause");
    }

    /// Truth-table minterm count over the important variables.
    trait MintermApprox {
        fn minterm_count_approx(&self, important: &[Var]) -> u128;
    }
    impl MintermApprox for CubeSet {
        fn minterm_count_approx(&self, important: &[Var]) -> u128 {
            self.enumerate_minterms(important).len() as u128
        }
    }

    #[test]
    fn enumerates_or_projection() {
        let mut cnf = Cnf::new(2);
        cnf.add_clause([lit(0, true), lit(1, true)]);
        let important: Vec<Var> = Var::range(2).collect();
        check_exact(&cnf, &important, "or2");
    }

    #[test]
    fn unsat_formula_yields_empty_complete_set() {
        let mut cnf = Cnf::new(1);
        cnf.add_unit(lit(0, true));
        cnf.add_unit(lit(0, false));
        let p = AllSatProblem::new(cnf, vec![Var::new(0)]);
        let r = ChronoAllSat::new().enumerate(&p);
        assert!(r.complete);
        assert!(r.cubes.is_empty());
    }

    #[test]
    fn empty_important_set_gives_universe() {
        let mut cnf = Cnf::new(1);
        cnf.add_unit(lit(0, true));
        let p = AllSatProblem::new(cnf, vec![]);
        let r = ChronoAllSat::new().enumerate(&p);
        assert!(r.complete);
        assert!(r.cubes.is_universe());
    }

    #[test]
    fn hidden_variables_are_projected_away() {
        let mut cnf = Cnf::new(2);
        cnf.add_unit(lit(0, true));
        let p = AllSatProblem::new(cnf, vec![Var::new(0)]);
        let r = ChronoAllSat::new().enumerate(&p);
        assert_eq!(r.cubes.len(), 1);
        assert_eq!(r.minterm_count(1), 1);
    }

    #[test]
    fn matches_oracle_on_random_formulas() {
        use presat_logic::rng::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(97);
        for round in 0..40 {
            let n = 7;
            let mut cnf = Cnf::new(n);
            for _ in 0..10 {
                let c: Vec<Lit> = (0..3)
                    .map(|_| lit(rng.gen_range(0..n), rng.gen_bool(0.5)))
                    .collect();
                cnf.add_clause(c);
            }
            let important: Vec<Var> = Var::range(4).collect();
            check_exact(&cnf, &important, &format!("round {round}"));
        }
    }

    #[test]
    fn db_stays_flat_and_counts_backtracks() {
        // One wide clause over 6 important variables: 63 solution minterms,
        // yet the database never grows past the single problem clause.
        let n = 6;
        let mut cnf = Cnf::new(n);
        cnf.add_clause((0..n).map(|v| lit(v, true)));
        let important: Vec<Var> = Var::range(n).collect();
        let p = AllSatProblem::new(cnf, important);
        let r = ChronoAllSat::new().enumerate(&p);
        assert!(r.complete);
        assert_eq!(r.minterm_count(n), 63);
        assert_eq!(r.stats.db_clauses_peak, 1);
        assert!(r.stats.chrono_backtracks > 0);
        assert_eq!(r.stats.sat.learnt_clauses, 0);
    }

    #[test]
    fn deterministic_across_calls() {
        let mut cnf = Cnf::new(5);
        cnf.add_clause([lit(0, true), lit(2, false), lit(4, true)]);
        cnf.add_clause([lit(1, false), lit(3, true)]);
        let important: Vec<Var> = Var::range(3).collect();
        let p = AllSatProblem::new(cnf, important);
        let a = ChronoAllSat::new().enumerate(&p);
        let b = ChronoAllSat::new().enumerate(&p);
        assert_eq!(a.cubes.cubes(), b.cubes.cubes());
        assert_eq!(a.stats.chrono_backtracks, b.stats.chrono_backtracks);
    }
}
