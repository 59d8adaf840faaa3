//! Determinism suite for the parallel cube-partitioned enumeration.
//!
//! The contract under test: at **every** thread count, the parallel engine
//! produces a [`CubeSet`] that is not merely semantically equal to the
//! sequential success-driven engine's output but *structurally identical* —
//! the same cubes in the same order — and a solution graph of exactly the
//! same shape. Work counters (decisions, conflicts) may differ with
//! scheduling; solutions and cubes may not.

use presat::allsat::{AllSatEngine, AllSatProblem, ParallelAllSat, SuccessDrivenAllSat};
use presat::circuit::generators;
use presat::logic::{truth_table, Cnf, Lit, Var};
use presat::obs::{Event, VecSink};
use presat::preimage::{backward_reach, PreimageEngine, ReachOptions, SatPreimage, StateSet};

const JOB_COUNTS: [usize; 4] = [1, 2, 4, 7];

fn lit(v: usize, pos: bool) -> Lit {
    Lit::with_phase(Var::new(v), pos)
}

fn random_cnf(seed: u64, n: usize, m: usize) -> Cnf {
    use presat::logic::rng::SplitMix64;
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

/// Thread count for the suite-wide smoke test, from `PRESAT_TEST_JOBS`
/// (default 4). `scripts/verify.sh` runs the suite at both 1 and 4.
fn env_jobs() -> usize {
    std::env::var("PRESAT_TEST_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

#[test]
fn enumeration_is_deterministic_across_thread_counts() {
    for seed in 0..10 {
        let n = 9;
        let cnf = random_cnf(seed, n, 20);
        let important: Vec<Var> = Var::range(6).collect();
        let problem = AllSatProblem::new(cnf.clone(), important.clone());
        let seq = SuccessDrivenAllSat::new().enumerate(&problem);
        let expect = truth_table::project_models_set(&cnf, &important);
        assert!(
            seq.cubes.semantically_eq(&expect, &important),
            "sequential engine wrong on seed {seed}"
        );
        for jobs in JOB_COUNTS {
            let par = ParallelAllSat::new(jobs).enumerate(&problem);
            // Structural identity: same cubes, same order.
            assert_eq!(par.cubes, seq.cubes, "seed {seed}, jobs {jobs}");
            // And the merged graph matches the sequential one node count
            // for node count (reduced DAGs of equal functions are
            // isomorphic).
            assert_eq!(
                par.stats.graph_nodes, seq.stats.graph_nodes,
                "seed {seed}, jobs {jobs}"
            );
            assert_eq!(par.stats.cubes_emitted, seq.stats.cubes_emitted);
        }
    }
}

#[test]
fn circuit_preimage_cubes_identical_at_every_thread_count() {
    let circuits = [
        generators::parity(6),
        generators::counter(6, true),
        generators::comparator(4),
        generators::random_dag(5, 6, 50, 42),
    ];
    for c in &circuits {
        let target = StateSet::from_partial(&[(0, true)]);
        let seq = SatPreimage::success_driven().preimage(c, &target);
        for jobs in JOB_COUNTS {
            // Gate forced open: this test is about the fleet, so it must
            // not silently fall back to the sequential path on small
            // encodings or low-parallelism CI hosts.
            let par = SatPreimage::success_driven()
                .with_jobs(jobs)
                .with_par_threshold(0)
                .preimage(c, &target);
            assert_eq!(
                par.states.cubes(),
                seq.states.cubes(),
                "{} at jobs={jobs}",
                c.name()
            );
        }
    }
}

#[test]
fn preimages_identical_on_every_circuit_family() {
    // One representative of every embedded circuit family, plus the
    // one-step workloads of the bench suite (cnt12e, cmp6, rnd6x8,
    // parity11) with their own targets, with the spawn gate disabled so
    // even the tiny encodings really run the fleet.
    let at_latch0 = || StateSet::from_partial(&[(0, true)]);
    let cases = [
        (generators::counter(5, false), at_latch0()),
        (generators::counter(5, true), at_latch0()),
        (generators::parity(5), at_latch0()),
        (generators::comparator(3), at_latch0()),
        (generators::round_robin_arbiter(3), at_latch0()),
        (generators::shift_register(6), at_latch0()),
        (generators::lfsr(5), at_latch0()),
        (generators::random_dag(4, 5, 40, 7), at_latch0()),
        (presat::circuit::embedded::s27().unwrap(), at_latch0()),
        (presat::circuit::embedded::ctl2().unwrap(), at_latch0()),
        (
            generators::counter(12, true),
            StateSet::from_state_bits(0x800, 12),
        ),
        (
            generators::comparator(6),
            StateSet::from_partial(&[(6, true)]),
        ),
        (
            generators::random_dag(6, 8, 80, 2004),
            StateSet::from_partial(&[(0, true), (3, false)]),
        ),
        (
            generators::parity(11),
            StateSet::from_partial(&[(11, true)]),
        ),
    ];
    for (c, target) in &cases {
        let seq = SatPreimage::success_driven().preimage(c, target);
        for jobs in [2, 4, 7] {
            let par = SatPreimage::success_driven()
                .with_jobs(jobs)
                .with_par_threshold(0)
                .preimage(c, target);
            assert_eq!(
                par.states.cubes(),
                seq.states.cubes(),
                "{} at jobs={jobs}",
                c.name()
            );
            assert_eq!(par.stats.graph_nodes, seq.stats.graph_nodes);
        }
    }
}

#[test]
fn per_cube_work_sums_to_merged_totals() {
    // The per-cube CubeDone trace partitions the solver work: its
    // solver-call counts must sum exactly to the merged stats, and the
    // emitted solution count must match the sequential engine exactly
    // (decisions/conflicts legitimately vary with scheduling).
    for seed in [1, 5, 9] {
        let cnf = random_cnf(seed, 8, 16);
        let important: Vec<Var> = Var::range(6).collect();
        let problem = AllSatProblem::new(cnf, important);
        let seq = SuccessDrivenAllSat::new().enumerate(&problem);
        for jobs in [2, 4] {
            let mut sink = VecSink::new();
            let result = ParallelAllSat::new(jobs).enumerate_with_sink(&problem, &mut sink);
            let summed: u64 = sink
                .events
                .iter()
                .map(|e| match *e {
                    Event::CubeDone { solver_calls, .. } => solver_calls,
                    _ => 0,
                })
                .sum();
            assert_eq!(
                summed, result.stats.solver_calls,
                "seed {seed} jobs {jobs}: per-cube solver calls must sum"
            );
            assert_eq!(result.stats.cubes_emitted, seq.stats.cubes_emitted);
            assert_eq!(result.cubes, seq.cubes);
        }
    }
}

#[test]
fn backward_reach_agrees_at_env_thread_count() {
    // Exercised by scripts/verify.sh at PRESAT_TEST_JOBS=1 and =4: the
    // whole fixed-point loop (many chained preimages) must be oblivious to
    // the thread count.
    let jobs = env_jobs();
    let c = generators::counter(5, false);
    let target = StateSet::from_state_bits(0x1F, 5);
    let seq = backward_reach(
        &SatPreimage::success_driven(),
        &c,
        &target,
        ReachOptions::default(),
    );
    let par = backward_reach(
        &SatPreimage::success_driven()
            .with_jobs(jobs)
            .with_par_threshold(0),
        &c,
        &target,
        ReachOptions::default(),
    );
    assert_eq!(par.reached_states, seq.reached_states);
    assert_eq!(par.iterations.len(), seq.iterations.len());
    assert_eq!(par.converged, seq.converged);
    assert_eq!(par.reached.cubes(), seq.reached.cubes());
}

#[test]
fn reach_parallel_threshold_knob_never_changes_results() {
    // The engine's spawn gate, which its session inherits: forcing the
    // gate fully open (threshold 0: every step fans out) and fully closed
    // (u64::MAX: every step sequential) must both reproduce the
    // sequential fixed point exactly — the knob trades overhead, never
    // answers.
    let c = generators::counter(5, false);
    let target = StateSet::from_state_bits(0x1F, 5);
    let seq = backward_reach(
        &SatPreimage::success_driven(),
        &c,
        &target,
        ReachOptions::default(),
    );
    for threshold in [0, u64::MAX] {
        let par = backward_reach(
            &SatPreimage::success_driven()
                .with_jobs(4)
                .with_par_threshold(threshold),
            &c,
            &target,
            ReachOptions::default(),
        );
        assert_eq!(
            par.reached.cubes(),
            seq.reached.cubes(),
            "threshold {threshold}"
        );
        assert_eq!(par.reached_states, seq.reached_states);
        assert_eq!(par.iterations.len(), seq.iterations.len());
    }
}

#[test]
fn suite_smoke_at_env_thread_count() {
    // Every workload family in miniature, at the env-selected job count.
    let jobs = env_jobs();
    for seed in 0..4 {
        let cnf = random_cnf(100 + seed, 8, 18);
        let important: Vec<Var> = Var::range(5).collect();
        let problem = AllSatProblem::new(cnf.clone(), important.clone());
        let expect = truth_table::project_models_set(&cnf, &important);
        let r = ParallelAllSat::new(jobs).enumerate(&problem);
        assert!(
            r.cubes.semantically_eq(&expect, &important),
            "seed {seed} at jobs={jobs}"
        );
    }
}
