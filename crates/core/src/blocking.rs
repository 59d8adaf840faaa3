//! The blocking-clause all-SAT baselines: naive minterm blocking and
//! blocking with cube minimization (literal lifting). Both run one
//! enumeration loop. It differs in whether each model's projected cube
//! is lifted before it is blocked, and in how the search goes on after a
//! model: plain blocking continues one search across all its models
//! (Jabbour–Sais–Salhi's CDCL model enumeration), lifted blocking solves
//! again from level 0.

use presat_logic::CubeSet;
use presat_obs::{Event, ObsSink, StopReason};
use presat_sat::{SolveResult, Solver};

use crate::engine::{AllSatEngine, AllSatProblem, AllSatResult, EnumerationStats};
use crate::lift::Lifter;
use crate::limits::EnumLimits;

/// Naive all-solutions enumeration: solve, project the model onto the
/// important variables, add a blocking clause over the *full* projected
/// minterm, repeat until UNSAT.
///
/// The search does not restart after each model: the blocking clause is
/// added on the model's trail ([`Solver::block_model`]), the solver
/// backjumps as a conflict on it would, and the search resumes from
/// there ([`Solver::solve_continue`]). That changes the order of the
/// models, never the minterm set or the clause count.
///
/// This is the reference point every all-SAT paper of the era starts from:
/// correct, simple, and linear in the number of solution **minterms** — i.e.
/// exponential in the number of important variables on dense solution sets.
///
/// # Examples
///
/// ```
/// use presat_allsat::{AllSatEngine, AllSatProblem, BlockingAllSat};
/// use presat_logic::{Cnf, Lit, Var};
///
/// let mut cnf = Cnf::new(2);
/// cnf.add_clause([Lit::pos(Var::new(0)), Lit::pos(Var::new(1))]);
/// let problem = AllSatProblem::new(cnf, vec![Var::new(0), Var::new(1)]);
/// let result = BlockingAllSat::default().enumerate(&problem);
/// assert_eq!(result.stats.blocking_clauses, 3); // one per minterm
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockingAllSat;

impl BlockingAllSat {
    /// Creates the engine (stateless).
    pub fn new() -> Self {
        BlockingAllSat
    }
}

impl AllSatEngine for BlockingAllSat {
    fn name(&self) -> &'static str {
        "blocking"
    }

    fn enumerate_limited(
        &self,
        problem: &AllSatProblem,
        limits: &EnumLimits,
        sink: &mut dyn ObsSink,
    ) -> AllSatResult {
        enumerate_blocking(problem, limits, sink, false)
    }
}

/// All-solutions enumeration with *lifted* blocking clauses: each model's
/// projected cube is first enlarged by dropping irrelevant literals
/// ([`crate::lift_cube`]), and the blocking clause excludes the whole
/// enlarged cube — `2^(n-k)` minterms at a stroke.
///
/// This is the stronger classical baseline (McMillan-style cube
/// enlargement); it collapses the minterm explosion wherever single cubes
/// cover large subspaces, but still re-explores *shared* structure that is
/// not axis-aligned, which is exactly the gap the success-driven engine
/// closes.
///
/// # Examples
///
/// ```
/// use presat_allsat::{AllSatEngine, AllSatProblem, MinimizedBlockingAllSat};
/// use presat_logic::{Cnf, Lit, Var};
///
/// // x0 forced; x1, x2 free: one lifted cube instead of four minterms.
/// let mut cnf = Cnf::new(3);
/// cnf.add_clause([Lit::pos(Var::new(0))]);
/// let problem = AllSatProblem::new(cnf, (0..3).map(Var::new).collect());
/// let result = MinimizedBlockingAllSat::default().enumerate(&problem);
/// assert_eq!(result.stats.blocking_clauses, 1);
/// assert_eq!(result.minterm_count(3), 4);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MinimizedBlockingAllSat;

impl MinimizedBlockingAllSat {
    /// Creates the engine (stateless).
    pub fn new() -> Self {
        MinimizedBlockingAllSat
    }
}

impl AllSatEngine for MinimizedBlockingAllSat {
    fn name(&self) -> &'static str {
        "min-blocking"
    }

    fn enumerate_limited(
        &self,
        problem: &AllSatProblem,
        limits: &EnumLimits,
        sink: &mut dyn ObsSink,
    ) -> AllSatResult {
        enumerate_blocking(problem, limits, sink, true)
    }
}

/// The shared blocking loop: solve, project the model onto the important
/// variables (lifting the cube first when `lift` is set), block the cube,
/// repeat until UNSAT or a limit stops the run.
///
/// The two engines solve and block differently. Unlifted, one search runs
/// the whole enumeration: [`Solver::block_model`] adds each minterm's
/// clause on the model's trail and backjumps, and
/// [`Solver::solve_continue`] resumes from there. Lifted, each cube is
/// blocked with [`Solver::add_clause`] and [`Solver::solve`] starts again
/// from level 0: a lifted cube depends on its model, so a continuing
/// search would find other models and grow a larger cover.
///
/// Every stored cube is blocked, so each new model lies outside all of
/// them, and the cube store need not look for a stored cube that subsumes
/// the new one. An unlifted cube is the model's full minterm, which
/// differs from every stored minterm, so it is appended. A lifted cube
/// holds its model, so no stored cube subsumes it, but it may absorb older
/// cubes: only the store's backward sweep runs.
fn enumerate_blocking(
    problem: &AllSatProblem,
    limits: &EnumLimits,
    sink: &mut dyn ObsSink,
    lift: bool,
) -> AllSatResult {
    let mut solver = Solver::from_cnf(&problem.cnf);
    solver.set_budget(limits.budget);
    solver.set_cancel(limits.cancel.clone());
    let mut stats = EnumerationStats::default();
    let mut cubes = CubeSet::new();
    let mut stopped: Option<StopReason> = None;
    let mut lifter = lift.then(|| Lifter::new(&problem.cnf, &problem.important));
    loop {
        stats.solver_calls += 1;
        let answer = if lift {
            solver.solve()
        } else {
            solver.solve_continue()
        };
        match answer {
            SolveResult::Unsat => break,
            SolveResult::Unknown(reason) => {
                // Partial but sound: everything blocked so far is a
                // verified solution cube; report it, never `Unsat`.
                stopped = Some(reason);
                break;
            }
            SolveResult::Sat(model) => {
                let cube = match &mut lifter {
                    Some(lifter) => lifter.lift(&model),
                    None => model.project(&problem.important),
                };
                stats.cubes_emitted += 1;
                // Solver models are total, so the unlifted projection is
                // always the full minterm.
                stats.literals_before_lift += problem.important.len() as u64;
                stats.literals_after_lift += cube.len() as u64;
                sink.record(&Event::Solution {
                    width: cube.len() as u32,
                });
                let block = cube.lits().iter().map(|&l| !l);
                let blocked = if lift {
                    solver.add_clause(block)
                } else {
                    solver.block_model(block)
                };
                stats.blocking_clauses += 1;
                stats.db_clauses_peak = stats.db_clauses_peak.max(solver.db_clauses());
                sink.record(&Event::BlockingClause {
                    width: cube.len() as u32,
                });
                if lift {
                    cubes.insert_unsubsumed(cube);
                } else {
                    cubes.push_disjoint(cube);
                }
                if !blocked {
                    // Blocking the last remaining projection point made
                    // the formula unsatisfiable at level 0.
                    break;
                }
                // Lifted cubes can cover many minterms; counting cubes
                // (not minterms) keeps the cap a cheap lower bound.
                if limits
                    .max_solutions
                    .is_some_and(|max| stats.cubes_emitted >= max)
                {
                    stopped = Some(StopReason::MaxSolutions);
                    break;
                }
            }
        }
    }
    stats.sat = *solver.stats();
    stats.sat_conflicts = stats.sat.conflicts;
    stats.sat_decisions = stats.sat.decisions;
    if let Some(reason) = stopped {
        stats.budget_stops = 1;
        sink.record(&Event::BudgetStop { reason });
    }
    AllSatResult {
        cubes,
        graph: None,
        stats,
        complete: stopped.is_none(),
        stop_reason: stopped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presat_logic::{truth_table, Cnf, Lit, Var};

    fn lit(v: usize, pos: bool) -> Lit {
        Lit::with_phase(Var::new(v), pos)
    }

    #[test]
    fn enumerates_or_projection() {
        let mut cnf = Cnf::new(2);
        cnf.add_clause([lit(0, true), lit(1, true)]);
        let p = AllSatProblem::new(cnf.clone(), vec![Var::new(0), Var::new(1)]);
        let r = BlockingAllSat::new().enumerate(&p);
        let expect = truth_table::project_models_set(&cnf, &p.important);
        assert!(r.cubes.semantically_eq(&expect, &p.important));
        assert_eq!(r.stats.cubes_emitted, 3);
    }

    #[test]
    fn unsat_formula_yields_empty_set() {
        let mut cnf = Cnf::new(1);
        cnf.add_unit(lit(0, true));
        cnf.add_unit(lit(0, false));
        let p = AllSatProblem::new(cnf, vec![Var::new(0)]);
        let r = BlockingAllSat::new().enumerate(&p);
        assert!(r.cubes.is_empty());
        assert_eq!(r.stats.cubes_emitted, 0);
    }

    #[test]
    fn hidden_variables_are_projected_away() {
        // x1 (hidden) free, x0 forced true: projection on x0 is one cube.
        let mut cnf = Cnf::new(2);
        cnf.add_unit(lit(0, true));
        let p = AllSatProblem::new(cnf, vec![Var::new(0)]);
        let r = BlockingAllSat::new().enumerate(&p);
        assert_eq!(r.cubes.len(), 1);
        assert_eq!(r.minterm_count(1), 1);
        // Both completions of x1 map to the same projection: exactly one
        // blocking clause needed.
        assert_eq!(r.stats.blocking_clauses, 1);
    }

    #[test]
    fn empty_important_set() {
        let mut cnf = Cnf::new(1);
        cnf.add_unit(lit(0, true));
        let p = AllSatProblem::new(cnf, vec![]);
        let r = BlockingAllSat::new().enumerate(&p);
        assert!(r.cubes.is_universe());
    }

    #[test]
    fn matches_oracle_on_random_formulas() {
        use presat_logic::rng::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(21);
        for round in 0..25 {
            let n = 6;
            let mut cnf = Cnf::new(n);
            for _ in 0..8 {
                let c: Vec<Lit> = (0..3)
                    .map(|_| lit(rng.gen_range(0..n), rng.gen_bool(0.5)))
                    .collect();
                cnf.add_clause(c);
            }
            let important: Vec<Var> = Var::range(3).collect();
            let p = AllSatProblem::new(cnf.clone(), important.clone());
            let r = BlockingAllSat::new().enumerate(&p);
            let expect = truth_table::project_models_set(&cnf, &important);
            assert!(
                r.cubes.semantically_eq(&expect, &important),
                "divergence on round {round}"
            );
        }
    }

    #[test]
    fn lifting_reduces_clause_count() {
        // x0 forced, x1..x4 free: naive blocking needs 16 clauses, lifted
        // needs 1.
        let mut cnf = Cnf::new(5);
        cnf.add_unit(lit(0, true));
        let p = AllSatProblem::new(cnf, (0..5).map(Var::new).collect());
        let r = MinimizedBlockingAllSat::new().enumerate(&p);
        assert_eq!(r.stats.blocking_clauses, 1);
        assert_eq!(r.minterm_count(5), 16);
    }

    #[test]
    fn matches_naive_engine_semantics() {
        use presat_logic::rng::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(33);
        for round in 0..25 {
            let n = 6;
            let mut cnf = Cnf::new(n);
            for _ in 0..9 {
                let c: Vec<Lit> = (0..3)
                    .map(|_| lit(rng.gen_range(0..n), rng.gen_bool(0.5)))
                    .collect();
                cnf.add_clause(c);
            }
            let important: Vec<Var> = Var::range(4).collect();
            let p = AllSatProblem::new(cnf, important.clone());
            let naive = BlockingAllSat::new().enumerate(&p);
            let lifted = MinimizedBlockingAllSat::new().enumerate(&p);
            assert!(
                naive.cubes.semantically_eq(&lifted.cubes, &important),
                "divergence on round {round}"
            );
            assert!(lifted.stats.blocking_clauses <= naive.stats.blocking_clauses);
            assert!(lifted.stats.literals_after_lift <= lifted.stats.literals_before_lift);
        }
    }

    #[test]
    fn oracle_equivalence_with_hidden_variables() {
        let mut cnf = Cnf::new(4);
        // hidden x3 couples x0 and x1: (x0 ∨ x3)(¬x3 ∨ x1)
        cnf.add_clause([lit(0, true), lit(3, true)]);
        cnf.add_clause([lit(3, false), lit(1, true)]);
        let important: Vec<Var> = Var::range(3).collect();
        let p = AllSatProblem::new(cnf.clone(), important.clone());
        let r = MinimizedBlockingAllSat::new().enumerate(&p);
        let expect = truth_table::project_models_set(&cnf, &important);
        assert!(r.cubes.semantically_eq(&expect, &important));
    }

    #[test]
    fn unsat_yields_empty() {
        let mut cnf = Cnf::new(2);
        cnf.add_clause([]);
        let p = AllSatProblem::new(cnf, vec![Var::new(0)]);
        let r = MinimizedBlockingAllSat::new().enumerate(&p);
        assert!(r.cubes.is_empty());
    }
}
