//! Property suite for root-level inprocessing.
//!
//! Inprocessing (subsumption, self-subsuming resolution, vivification at
//! the solver's root level) is admissible for all-solutions solving only
//! if it is *equivalence-preserving*: every pass must leave the formula
//! with exactly the same model set, not merely equisatisfiable. This
//! suite checks that contract three ways:
//!
//! * seeded random CNFs, inprocessed and then fully enumerated, against
//!   the BDD package as ground truth (canonical model sets + `satcount`);
//! * every circuit generator family plus the embedded benchmarks, through
//!   the full backward-reachability fixed point, the inprocessing session
//!   against the rebuild path (which never inprocesses) and against the
//!   exhaustive-simulation oracle;
//! * mid-session round trips (enumerate → retire/inprocess → enumerate)
//!   at 1 and 4 worker threads, each round pinned to the BDD projection
//!   of an equivalent monolithic formula;
//! * the session's effort schedule: a deep fixed point inprocesses far
//!   less often than it retires groups, yet still subsumes clauses.

use presat::allsat::{EnumLimits, IncrementalAllSat, SuccessDrivenAllSat};
use presat::bdd::BddManager;
use presat::circuit::{embedded, generators, Circuit};
use presat::logic::rng::SplitMix64;
use presat::logic::{Assignment, Cnf, Lit, Var};
use presat::preimage::{backward_reach, oracle, ReachOptions, ReachReport, SatPreimage, StateSet};
use presat::sat::{SolveResult, Solver};

/// Fixed fuzz seed: the suite is deterministic so a failure reproduces.
const FUZZ_SEED: u64 = 0x17B0_CE55;

/// Random CNF with a clause-width mix of 2..=4, so the inprocessor sees
/// permanent binaries, subsumption candidates, and vivification targets.
fn random_cnf(rng: &mut SplitMix64, num_vars: usize, num_clauses: usize) -> Cnf {
    let mut cnf = Cnf::new(num_vars);
    for _ in 0..num_clauses {
        let width = 2 + rng.gen_range(0..3);
        let clause: Vec<Lit> = (0..width)
            .map(|_| Lit::with_phase(Var::new(rng.gen_range(0..num_vars)), rng.gen_bool(0.5)))
            .collect();
        cnf.add_clause(clause);
    }
    cnf
}

/// All total models of the solver's formula over vars `0..n`, as sorted
/// bit patterns, by solve-and-block.
fn solver_models(s: &mut Solver, n: usize) -> Vec<u64> {
    let mut out = Vec::new();
    loop {
        match s.solve() {
            SolveResult::Sat(m) => {
                let mut bits = 0u64;
                let mut block = Vec::with_capacity(n);
                for i in 0..n {
                    let v = m.value(Var::new(i)) == Some(true);
                    bits |= u64::from(v) << i;
                    block.push(Lit::with_phase(Var::new(i), !v));
                }
                out.push(bits);
                if !s.add_clause(block) {
                    break;
                }
            }
            SolveResult::Unsat => break,
            SolveResult::Unknown(r) => panic!("unbudgeted solve stopped: {r}"),
        }
    }
    out.sort_unstable();
    out
}

/// Every inprocessing pass must preserve the model set exactly. Ground
/// truth is the BDD of the *original* formula: the inprocessed solver's
/// enumeration must list precisely the assignments the BDD accepts, and
/// as many as `satcount` promises.
#[test]
fn inprocessing_preserves_models_on_random_cnfs_vs_bdd_oracle() {
    let mut rng = SplitMix64::seed_from_u64(FUZZ_SEED);
    for round in 0..40 {
        let n = 7 + (round % 2);
        let num_clauses = 6 + rng.gen_range(0..12);
        let cnf = random_cnf(&mut rng, n, num_clauses);

        let mut m = BddManager::new(n);
        let truth = m.from_cnf(&cnf);
        let expect: Vec<u64> = (0..1u64 << n)
            .filter(|&bits| m.eval(truth, &Assignment::from_bits(bits, n)))
            .collect();
        assert_eq!(expect.len() as u128, m.satcount(truth, n));

        let mut s = Solver::from_cnf(&cnf);
        s.inprocess();
        let got = solver_models(&mut s, n);
        assert_eq!(
            got, expect,
            "round {round}: inprocessing changed the model set ({num_clauses} clauses over {n} vars)"
        );
    }
}

/// Repeated inprocessing (the session pattern: passes at successive
/// retirements) must stay sound — later passes see the strengthened
/// formula, not the original, and still may not lose or invent models.
#[test]
fn repeated_inprocessing_rounds_stay_equivalent() {
    let mut rng = SplitMix64::seed_from_u64(FUZZ_SEED ^ 0xAAAA);
    for round in 0..10 {
        let n = 7;
        let num_clauses = 10 + rng.gen_range(0..6);
        let cnf = random_cnf(&mut rng, n, num_clauses);
        let mut m = BddManager::new(n);
        let truth = m.from_cnf(&cnf);
        let expect: Vec<u64> = (0..1u64 << n)
            .filter(|&bits| m.eval(truth, &Assignment::from_bits(bits, n)))
            .collect();
        let mut s = Solver::from_cnf(&cnf);
        for _ in 0..3 {
            s.inprocess();
        }
        assert_eq!(
            solver_models(&mut s, n),
            expect,
            "round {round}: iterated inprocessing diverged"
        );
    }
}

/// Runs the fixed point through the incremental session (which
/// inprocesses) or the rebuild path (which never does).
fn reach(circuit: &Circuit, target: &StateSet, jobs: usize, incremental: bool) -> ReachReport {
    backward_reach(
        &SatPreimage::success_driven().with_jobs(jobs),
        circuit,
        target,
        ReachOptions {
            incremental,
            ..ReachOptions::default()
        },
    )
}

/// One backward-reachability fixed point per circuit family, the session
/// against the rebuild path and against the exhaustive-simulation oracle.
/// Inside the incremental session a pass runs at the first retirement and
/// then whenever enough search effort has accumulated, so every circuit
/// here is inprocessed at least once.
fn assert_family_reach_invariant(circuit: &Circuit, target: &StateSet) {
    let n = circuit.num_latches();
    let expect = oracle::backward_reachable_bits(circuit, target);
    for jobs in [1usize, 4] {
        let session = reach(circuit, target, jobs, true);
        let rebuild = reach(circuit, target, jobs, false);
        let label = format!("{} (target {target}, jobs {jobs})", circuit.name());
        assert!(
            session.stats.allsat.sat.inprocess_rounds > 0,
            "the session never inprocessed: {label}"
        );
        assert_eq!(
            session.reached.cubes(),
            rebuild.reached.cubes(),
            "inprocessing session changed the reached set: {label}"
        );
        assert_eq!(session.converged, rebuild.converged, "converged: {label}");
        assert_eq!(
            session.iterations.len(),
            rebuild.iterations.len(),
            "iteration count: {label}"
        );
        assert_eq!(
            session.reached_states,
            expect.len() as u128,
            "oracle cardinality: {label}"
        );
        for &b in &expect {
            assert!(
                session.reached.contains_bits(b, n),
                "oracle state {b:0n$b} missing: {label}"
            );
        }
    }
}

#[test]
fn generator_families_preserve_reachability_under_inprocessing() {
    assert_family_reach_invariant(
        &generators::counter(3, false),
        &StateSet::from_state_bits(0, 3),
    );
    assert_family_reach_invariant(&generators::lfsr(4), &StateSet::from_state_bits(1, 4));
    assert_family_reach_invariant(
        &generators::shift_register(4),
        &StateSet::from_partial(&[(3, true)]),
    );
    assert_family_reach_invariant(
        &generators::parity(3),
        &StateSet::from_partial(&[(3, true)]),
    );
    assert_family_reach_invariant(
        &generators::round_robin_arbiter(2),
        &StateSet::from_partial(&[(2, true)]),
    );
    assert_family_reach_invariant(
        &generators::comparator(3),
        &StateSet::from_partial(&[(3, true)]),
    );
    for seed in 0..2 {
        assert_family_reach_invariant(
            &generators::random_dag(3, 4, 25, seed),
            &StateSet::from_state_bits(seed % 16, 4),
        );
    }
}

#[test]
fn embedded_benchmarks_preserve_reachability_under_inprocessing() {
    let s27 = embedded::s27().unwrap();
    assert_family_reach_invariant(&s27, &StateSet::from_state_bits(2, 3));
    let ctl2 = embedded::ctl2().unwrap();
    let n = ctl2.num_latches();
    assert_family_reach_invariant(&ctl2, &StateSet::from_state_bits(0, n));
}

/// Mid-session round trip: enumerate → retire (inprocessing may fire) →
/// enumerate, twenty rounds deep, with the session compared against the
/// BDD projection of an equivalent monolithic formula every round.
///
/// The session inprocesses at its first retirement and then only once
/// enough search effort has accumulated. It must still inprocess at least
/// twice after that first pass, read from the per-call stats that carry
/// each pass's counters.
fn mid_session_round_trip(jobs: usize) {
    let n = 6;
    let mut rng = SplitMix64::seed_from_u64(FUZZ_SEED ^ (0x40B + jobs as u64));
    let rand_lit =
        |rng: &mut SplitMix64| Lit::with_phase(Var::new(rng.gen_range(0..n)), rng.gen_bool(0.5));
    let mut base = Cnf::new(n);
    let mut base_clauses: Vec<Vec<Lit>> = Vec::new();
    for _ in 0..8 {
        let c: Vec<Lit> = (0..3).map(|_| rand_lit(&mut rng)).collect();
        base_clauses.push(c.clone());
        base.add_clause(c);
    }
    let important: Vec<Var> = Var::range(n).collect();
    let mut session = IncrementalAllSat::new(base, important, SuccessDrivenAllSat::new(), jobs);

    // The cold mirror: every group clause ever added, activation units for
    // the current group, retired groups forced off.
    let mut group_clauses: Vec<Vec<Lit>> = Vec::new();
    let mut retired: Vec<Lit> = Vec::new();
    let mut num_vars = n;
    // Inprocessing rounds each call's stats carry: the pass (if any) run
    // by the retirement just before it.
    let mut rounds_per_call: Vec<u64> = Vec::new();
    for round in 0..20 {
        let act = Lit::pos(session.add_var());
        num_vars += 1;
        for _ in 0..4 {
            let mut c = vec![!act];
            for _ in 0..3 {
                c.push(rand_lit(&mut rng));
            }
            group_clauses.push(c.clone());
            session.add_clause(c);
        }
        let got = session.enumerate_limited(
            &[act],
            &EnumLimits::none(),
            &mut presat::obs::NullSink,
        );
        assert!(got.complete, "round {round}");
        rounds_per_call.push(got.stats.sat.inprocess_rounds);

        let mut mirror = Cnf::new(num_vars);
        for c in base_clauses.iter().chain(group_clauses.iter()) {
            mirror.add_clause(c.clone());
        }
        mirror.add_clause(vec![act]);
        for &r in &retired {
            mirror.add_clause(vec![!r]);
        }
        let mut m = BddManager::new(num_vars);
        let f = m.from_cnf(&mirror);
        let aux: Vec<Var> = (n..num_vars).map(Var::new).collect();
        let truth = m.exists(f, &aux);
        assert!(
            m.from_cube_set(&got.cubes) == truth,
            "round {round} (jobs {jobs}): session diverges from the BDD projection"
        );

        // Retirement may run the next inprocessing pass.
        retired.push(act);
        session.retire(act);
    }
    // Call 0 precedes every retirement and call 1 follows the first,
    // which always inprocesses; later calls show the effort schedule.
    assert_eq!(rounds_per_call[0], 0, "jobs {jobs}: {rounds_per_call:?}");
    assert!(rounds_per_call[1] > 0, "jobs {jobs}: {rounds_per_call:?}");
    let later_passes = rounds_per_call[2..].iter().filter(|&&r| r > 0).count();
    assert!(
        later_passes >= 2,
        "jobs {jobs}: only {later_passes} mid-session passes after the first: {rounds_per_call:?}"
    );
}

#[test]
fn mid_session_round_trip_at_jobs_1() {
    mid_session_round_trip(1);
}

#[test]
fn mid_session_round_trip_at_jobs_4() {
    mid_session_round_trip(4);
}

/// The session schedules inprocessing by search effort, not at every
/// retirement: a 256-iteration fixed point retires 256 groups, but a pass
/// at every one of them (about two rounds each) would cost several times
/// the search it serves. At most one round per eight iterations may run,
/// the passes that do run must still subsume clauses, and the reached set
/// must match the rebuild path (which never inprocesses) cube for cube.
#[test]
fn deep_fixed_point_inprocesses_by_effort_not_per_retirement() {
    let circuit = generators::counter(8, false);
    let target = StateSet::from_state_bits(0, 8);
    let session = reach(&circuit, &target, 1, true);
    let rebuild = reach(&circuit, &target, 1, false);
    assert!(session.converged && session.complete);
    assert_eq!(session.iterations.len(), 256);
    let sat = &session.stats.allsat.sat;
    let cap = session.iterations.len() as u64 / 8;
    assert!(
        sat.inprocess_rounds > 0 && sat.inprocess_rounds <= cap,
        "{} inprocessing rounds over {} iterations (cap {cap})",
        sat.inprocess_rounds,
        session.iterations.len()
    );
    assert!(
        sat.subsumed_clauses > 0,
        "the scheduled passes subsumed nothing"
    );
    assert_eq!(rebuild.stats.allsat.sat.inprocess_rounds, 0);
    assert_eq!(session.reached.cubes(), rebuild.reached.cubes());
}
