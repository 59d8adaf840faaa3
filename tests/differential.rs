//! Differential cross-engine fuzz harness.
//!
//! Seeded (SplitMix64) random CNF formulas and random circuits are run
//! through every all-SAT enumeration engine — blocking, minimized-blocking,
//! success-driven, parallel success-driven, and chrono — and the *expanded
//! model sets* are required to be semantically identical. Ground truth is
//! the BDD package: the engine cube sets are rebuilt as BDDs (a canonical
//! representation, so semantic equality is node-identity) against the
//! existential projection of the formula, and the solution counts are
//! checked against `BddManager::satcount`.
//!
//! `scripts/verify.sh` runs this harness at `PRESAT_TEST_JOBS=1` and `=4`
//! so the parallel engine is differentially tested at both thread counts.

use presat::allsat::{
    AllSatEngine, AllSatProblem, AllSatResult, BlockingAllSat, ChronoAllSat,
    MinimizedBlockingAllSat, ParallelAllSat, SuccessDrivenAllSat,
};
use presat::bdd::BddManager;
use presat::circuit::generators;
use presat::logic::rng::SplitMix64;
use presat::logic::{Cnf, Lit, Var};
use presat::preimage::{oracle, BddPreimage, PreimageEngine, SatPreimage, StateSet};

/// Fixed fuzz seed: the harness is deterministic so a failure reproduces.
const FUZZ_SEED: u64 = 0x5EED_D1FF;

/// Worker threads for the parallel engine, from `PRESAT_TEST_JOBS`
/// (default 4). `scripts/verify.sh` runs the harness at both 1 and 4.
fn env_jobs() -> usize {
    std::env::var("PRESAT_TEST_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

fn random_cnf(rng: &mut SplitMix64, num_vars: usize, num_clauses: usize) -> Cnf {
    let mut cnf = Cnf::new(num_vars);
    for _ in 0..num_clauses {
        let width = 2 + rng.gen_range(0..2);
        let clause: Vec<Lit> = (0..width)
            .map(|_| Lit::with_phase(Var::new(rng.gen_range(0..num_vars)), rng.gen_bool(0.5)))
            .collect();
        cnf.add_clause(clause);
    }
    cnf
}

type EngineRun = Box<dyn Fn(&AllSatProblem) -> AllSatResult>;

/// Every enumeration engine under differential test, by name.
fn all_engines() -> Vec<(String, EngineRun)> {
    let mut engines: Vec<(String, EngineRun)> = vec![
        (
            "blocking".into(),
            Box::new(|p: &AllSatProblem| BlockingAllSat::new().enumerate(p)),
        ),
        (
            "min-blocking".into(),
            Box::new(|p: &AllSatProblem| MinimizedBlockingAllSat::new().enumerate(p)),
        ),
        (
            "success-driven".into(),
            Box::new(|p: &AllSatProblem| SuccessDrivenAllSat::new().enumerate(p)),
        ),
        (
            "chrono".into(),
            Box::new(|p: &AllSatProblem| ChronoAllSat::new().enumerate(p)),
        ),
    ];
    for jobs in [1, 4, env_jobs()] {
        engines.push((
            format!("parallel-j{jobs}"),
            Box::new(move |p: &AllSatProblem| ParallelAllSat::new(jobs).enumerate(p)),
        ));
    }
    engines
}

/// Projected model enumeration over random CNF formulas: every engine's
/// cube set must denote exactly the BDD's existential projection of the
/// formula onto the important variables, and every engine's minterm count
/// must equal `satcount` of that projection.
///
/// Two families of formulas: 8 or 9 variables with 3 projected away, and
/// 16 variables with 6 projected away in 26–33 clauses. The second leaves
/// chains of auxiliary variables that occur in one phase only under a
/// prefix, which the success-driven engine's residual keys drop.
#[test]
fn random_cnf_engines_agree_with_bdd_oracle() {
    let mut rng = SplitMix64::seed_from_u64(FUZZ_SEED);
    // (variables, important variables, least clauses, clause spread)
    let few_aux = (0..25).map(|round| (8 + round % 2, 5 + round % 2, 10, 8));
    let many_aux = (0..15).map(|_| (16, 10, 26, 8));
    for (round, (num_vars, k, min_clauses, spread)) in few_aux.chain(many_aux).enumerate() {
        let num_clauses = min_clauses + rng.gen_range(0..spread);
        let cnf = random_cnf(&mut rng, num_vars, num_clauses);
        let important: Vec<Var> = Var::range(k).collect();
        let aux: Vec<Var> = (k..num_vars).map(Var::new).collect();

        // Ground truth: ∃aux. cnf as a canonical BDD.
        let mut m = BddManager::new(num_vars);
        let f = m.from_cnf(&cnf);
        let truth = m.exists(f, &aux);
        let expect_count = m.satcount(truth, k);

        let problem = AllSatProblem::new(cnf, important);
        for (name, run) in all_engines() {
            let result = run(&problem);
            assert!(result.complete, "round {round}: {name} incomplete");
            let got = m.from_cube_set(&result.cubes);
            assert!(
                got == truth,
                "round {round}: {name}'s expanded model set diverges from the BDD projection"
            );
            assert_eq!(
                result.minterm_count(k),
                expect_count,
                "round {round}: {name} counts wrong"
            );
        }
    }
}

/// Dense solution sets (few clauses) stress the chrono absorb rule and the
/// blocking engine's minterm explosion on a small scale.
#[test]
fn dense_solution_sets_agree_across_engines() {
    let mut rng = SplitMix64::seed_from_u64(FUZZ_SEED ^ 0xACE);
    for round in 0..15 {
        let num_vars = 7;
        let num_clauses = 3 + rng.gen_range(0..3);
        let cnf = random_cnf(&mut rng, num_vars, num_clauses);
        let k = 5;
        let important: Vec<Var> = Var::range(k).collect();
        let aux: Vec<Var> = (k..num_vars).map(Var::new).collect();
        let mut m = BddManager::new(num_vars);
        let f = m.from_cnf(&cnf);
        let truth = m.exists(f, &aux);
        let problem = AllSatProblem::new(cnf, important);
        for (name, run) in all_engines() {
            let result = run(&problem);
            let got = m.from_cube_set(&result.cubes);
            assert!(got == truth, "dense round {round}: {name} diverges");
        }
    }
}

/// Random-circuit preimages: every SAT preimage engine (including chrono at
/// the preimage layer) must agree with the BDD engine and the
/// exhaustive-simulation oracle on seeded random DAG circuits.
#[test]
fn random_circuit_preimages_agree_across_engines() {
    let jobs = env_jobs();
    let engines: Vec<Box<dyn PreimageEngine>> = vec![
        Box::new(SatPreimage::blocking()),
        Box::new(SatPreimage::min_blocking()),
        Box::new(SatPreimage::chrono()),
        Box::new(SatPreimage::success_driven()),
        Box::new(SatPreimage::success_driven().with_jobs(jobs)),
        Box::new(BddPreimage::substitution()),
    ];
    let mut rng = SplitMix64::seed_from_u64(FUZZ_SEED ^ 0xC1BC);
    for round in 0..10u64 {
        let circuit = generators::random_dag(3, 4, 28, rng.gen_u64_below(1000));
        let target = if round % 2 == 0 {
            StateSet::from_state_bits(rng.gen_u64_below(16), 4)
        } else {
            StateSet::from_partial(&[(rng.gen_range(0..4), rng.gen_bool(0.5))])
        };
        let expect = oracle::preimage(&circuit, &target);
        for engine in &engines {
            let got = engine.preimage(&circuit, &target);
            assert!(
                got.states.semantically_eq(&expect, 4),
                "round {round}: {} diverges from oracle on {} (target {target})",
                engine.name(),
                circuit.name()
            );
        }
    }
}
