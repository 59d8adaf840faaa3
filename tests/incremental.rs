//! Bit-compatibility suite for incremental preimage sessions.
//!
//! The contract under test: `backward_reach` with `incremental: true` (one
//! persistent solver session across the whole fixed point) produces a
//! [`ReachReport`] *identical* to the rebuild-per-iteration path — the same
//! reached cube set in the same order, the same per-iteration rows
//! (frontier cubes, new states, cumulative states), the same convergence
//! verdict — on every generator circuit and the embedded benchmarks, at
//! both 1 and 4 worker threads. Timing and work counters may differ (that
//! is the point of the optimisation); results may not.

use presat::circuit::{embedded, generators, Circuit};
use presat::preimage::{backward_reach, oracle, ReachOptions, ReachReport, SatPreimage, StateSet};

/// Whether the suite-wide oracle test runs the incremental or the rebuild
/// path, from `PRESAT_TEST_INCREMENTAL` (default on; `0` = rebuild).
/// `scripts/verify.sh` runs the suite in both modes.
fn env_incremental() -> bool {
    std::env::var("PRESAT_TEST_INCREMENTAL")
        .map(|v| v != "0")
        .unwrap_or(true)
}

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

/// Asserts that the incremental and rebuild reports agree on everything
/// the report promises: reached set (exact cubes), cardinality, rows, and
/// convergence.
fn assert_reports_match(circuit: &Circuit, target: &StateSet) {
    for jobs in [1usize, 4] {
        let rebuild = reach(circuit, target, jobs, false);
        let session = reach(circuit, target, jobs, true);
        let label = format!("{} (target {target}, jobs {jobs})", circuit.name());
        assert_eq!(session.converged, rebuild.converged, "converged: {label}");
        assert_eq!(
            session.reached_states, rebuild.reached_states,
            "reached_states: {label}"
        );
        assert_eq!(
            session.reached.cubes(),
            rebuild.reached.cubes(),
            "reached cube set: {label}"
        );
        assert_eq!(
            session.iterations.len(),
            rebuild.iterations.len(),
            "iteration count: {label}"
        );
        for (s, r) in session.iterations.iter().zip(&rebuild.iterations) {
            assert_eq!(s.iteration, r.iteration, "row order: {label}");
            assert_eq!(
                s.frontier_cubes, r.frontier_cubes,
                "frontier cubes at iter {}: {label}",
                s.iteration
            );
            assert_eq!(
                s.new_states, r.new_states,
                "new states at iter {}: {label}",
                s.iteration
            );
            assert_eq!(
                s.reached_states, r.reached_states,
                "cumulative states at iter {}: {label}",
                s.iteration
            );
        }
    }
}

#[test]
fn counters_match_rebuild() {
    assert_reports_match(
        &generators::counter(3, false),
        &StateSet::from_state_bits(0, 3),
    );
    assert_reports_match(
        &generators::counter(4, true),
        &StateSet::from_state_bits(9, 4),
    );
}

#[test]
fn lfsr_matches_rebuild() {
    assert_reports_match(&generators::lfsr(4), &StateSet::from_state_bits(1, 4));
}

#[test]
fn shift_register_matches_rebuild() {
    assert_reports_match(
        &generators::shift_register(4),
        &StateSet::from_partial(&[(3, true)]),
    );
}

#[test]
fn parity_matches_rebuild() {
    assert_reports_match(
        &generators::parity(3),
        &StateSet::from_partial(&[(3, true)]),
    );
}

#[test]
fn arbiter_matches_rebuild() {
    let c = generators::round_robin_arbiter(2);
    assert_reports_match(&c, &StateSet::from_partial(&[(2, true)]));
    assert_reports_match(&c, &StateSet::from_state_bits(0b0101, 4));
}

#[test]
fn comparator_matches_rebuild() {
    assert_reports_match(
        &generators::comparator(3),
        &StateSet::from_partial(&[(3, true)]),
    );
}

#[test]
fn random_dags_match_rebuild() {
    for seed in 0..4 {
        let c = generators::random_dag(3, 4, 25, seed);
        assert_reports_match(&c, &StateSet::from_state_bits(seed % 16, 4));
        assert_reports_match(&c, &StateSet::from_partial(&[(1, false)]));
    }
}

#[test]
fn embedded_benchmarks_match_rebuild() {
    let s27 = embedded::s27().unwrap();
    for bits in [0u64, 2, 5] {
        assert_reports_match(&s27, &StateSet::from_state_bits(bits, 3));
    }
    let ctl2 = embedded::ctl2().unwrap();
    let n = ctl2.num_latches();
    assert_reports_match(&ctl2, &StateSet::from_state_bits(0, n));
    assert_reports_match(&ctl2, &StateSet::from_partial(&[(0, true)]));
}

#[test]
fn multi_cube_targets_match_rebuild() {
    // Multi-cube targets exercise the selector-per-cube activation groups.
    let c = generators::counter(4, false);
    let t = StateSet::from_state_bits(3, 4).union(&StateSet::from_state_bits(12, 4));
    assert_reports_match(&c, &t);
}

#[test]
fn empty_target_matches_rebuild() {
    assert_reports_match(&generators::counter(3, false), &StateSet::empty());
}

#[test]
fn iteration_cap_matches_rebuild() {
    let c = generators::counter(4, false);
    let t = StateSet::from_state_bits(0, 4);
    for jobs in [1usize, 4] {
        let rebuild = backward_reach(
            &SatPreimage::success_driven().with_jobs(jobs),
            &c,
            &t,
            ReachOptions {
                max_iterations: Some(3),
                incremental: false,
                ..ReachOptions::default()
            },
        );
        let session = backward_reach(
            &SatPreimage::success_driven().with_jobs(jobs),
            &c,
            &t,
            ReachOptions {
                max_iterations: Some(3),
                incremental: true,
                ..ReachOptions::default()
            },
        );
        assert!(!session.converged);
        assert_eq!(session.reached.cubes(), rebuild.reached.cubes());
        assert_eq!(session.reached_states, rebuild.reached_states);
    }
}

#[test]
fn incremental_sessions_report_reuse_counters() {
    // counter(3) reaching 0 runs 8 iterations: 7 of them reuse the session
    // encoding and each allocates exactly one activation literal.
    let report = reach(
        &generators::counter(3, false),
        &StateSet::from_state_bits(0, 3),
        1,
        true,
    );
    assert_eq!(report.stats.iterations, 8);
    assert_eq!(report.stats.activation_lits, 8);
    assert_eq!(report.stats.encodings_reused, 7);
    // The rebuild path never reports session counters.
    let rebuild = reach(
        &generators::counter(3, false),
        &StateSet::from_state_bits(0, 3),
        1,
        false,
    );
    assert_eq!(rebuild.stats.activation_lits, 0);
    assert_eq!(rebuild.stats.encodings_reused, 0);
}

/// Deep-fixed-point memory bound: a long-lived incremental session that
/// adds and retires a clause group per round must *not* grow its clause
/// arena monotonically — garbage collection has to reclaim retired groups
/// (and the learnt clauses derived from them), which is observable through
/// the new `arena_bytes` / `db_compactions` / `clauses_reclaimed` counters.
#[test]
fn incremental_session_arena_stays_bounded_across_deep_fixed_point() {
    use presat::allsat::{EnumLimits, IncrementalAllSat, SuccessDrivenAllSat};
    use presat::logic::rng::SplitMix64;
    use presat::logic::{Cnf, Lit, Var};

    let n = 6;
    let mut rng = SplitMix64::seed_from_u64(2024);
    let rand_lit =
        |rng: &mut SplitMix64| Lit::with_phase(Var::new(rng.gen_range(0..n)), rng.gen_bool(0.5));
    let mut base = Cnf::new(n);
    for _ in 0..8 {
        let c: Vec<Lit> = (0..3).map(|_| rand_lit(&mut rng)).collect();
        base.add_clause(c);
    }
    let important: Vec<Var> = Var::range(n).collect();
    let mut session = IncrementalAllSat::new(base, important, SuccessDrivenAllSat::new(), 1);

    let rounds = 40;
    let clauses_per_round = 6;
    let mut total_group_bytes = 0u64;
    let mut compactions = 0u64;
    let mut reclaimed = 0u64;
    let mut last_arena_bytes = 0u64;
    for _ in 0..rounds {
        let act = Lit::pos(session.add_var());
        for _ in 0..clauses_per_round {
            let mut c = vec![!act];
            for _ in 0..3 {
                c.push(rand_lit(&mut rng));
            }
            // header word + 4 literal words, 4 bytes each
            total_group_bytes += 4 * (1 + 4);
            session.add_clause(c);
        }
        let result = session.enumerate_limited(&[act], &EnumLimits::none(), &mut presat::obs::NullSink);
        assert!(result.complete, "unbudgeted enumeration must finish");
        compactions += result.stats.sat.db_compactions;
        reclaimed += result.stats.sat.clauses_reclaimed;
        last_arena_bytes = result.stats.sat.arena_bytes;
        session.retire(act);
    }
    assert!(compactions > 0, "GC never ran across {rounds} retirement rounds");
    assert!(reclaimed > 0, "GC ran but reclaimed nothing");
    assert!(last_arena_bytes > 0, "arena gauge never stamped");
    // Without GC the arena holds every group ever added (plus learnts); with
    // GC the resident size must stay well below the monotonic total.
    assert!(
        last_arena_bytes < total_group_bytes / 2,
        "arena grew monotonically: resident {last_arena_bytes} B vs {total_group_bytes} B of groups added"
    );
}

/// Chrono as a cold oracle for incremental sessions: after every round of
/// group-add / enumerate / retire, a from-scratch [`ChronoAllSat`] run on
/// the equivalent monolithic CNF (group clauses guarded by activation
/// units, retired groups forced off) must agree semantically with the
/// session's answer — and repeated chrono runs, including after
/// retirement, must be bit-identical.
#[test]
fn chrono_cold_oracle_pins_incremental_sessions() {
    use presat::allsat::{AllSatEngine, AllSatProblem, ChronoAllSat, EnumLimits, IncrementalAllSat, SuccessDrivenAllSat};
    use presat::logic::rng::SplitMix64;
    use presat::logic::{Cnf, Lit, Var};

    let n = 6;
    let mut rng = SplitMix64::seed_from_u64(0x1C7);
    let rand_lit =
        |rng: &mut SplitMix64| Lit::with_phase(Var::new(rng.gen_range(0..n)), rng.gen_bool(0.5));
    let mut base: Vec<Vec<Lit>> = Vec::new();
    for _ in 0..8 {
        base.push((0..3).map(|_| rand_lit(&mut rng)).collect());
    }
    let important: Vec<Var> = Var::range(n).collect();
    let mut base_cnf = Cnf::new(n);
    for c in &base {
        base_cnf.add_clause(c.clone());
    }
    let mut session =
        IncrementalAllSat::new(base_cnf, important.clone(), SuccessDrivenAllSat::new(), 1);

    // The cold mirror: every clause ever added, plus activation units.
    let mut group_clauses: Vec<Vec<Lit>> = Vec::new();
    let mut retired: Vec<Lit> = Vec::new();
    let mut num_vars = n;
    for round in 0..10 {
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
        let got =
            session.enumerate_limited(&[act], &EnumLimits::none(), &mut presat::obs::NullSink);
        assert!(got.complete, "round {round}: session run incomplete");

        // Cold chrono run on the monolithic equivalent of this round.
        let mut cold = Cnf::new(num_vars);
        for c in base.iter().chain(group_clauses.iter()) {
            cold.add_clause(c.clone());
        }
        cold.add_clause(vec![act]);
        for &r in &retired {
            cold.add_clause(vec![!r]);
        }
        let problem = AllSatProblem::new(cold, important.clone());
        let a = ChronoAllSat::new().enumerate(&problem);
        let b = ChronoAllSat::new().enumerate(&problem);
        assert_eq!(
            a.cubes.cubes(),
            b.cubes.cubes(),
            "round {round}: chrono nondeterministic"
        );
        assert!(a.complete, "round {round}: cold chrono incomplete");
        assert_eq!(a.stats.blocking_clauses, 0, "round {round}");
        assert!(
            a.cubes.semantically_eq(&got.cubes, &important),
            "round {round}: cold chrono diverges from the incremental session"
        );
        retired.push(act);
        session.retire(act);
    }
}

/// Suite-wide oracle check honouring `PRESAT_TEST_INCREMENTAL`, so
/// `scripts/verify.sh` exercises the ground-truth comparison in both
/// modes.
#[test]
fn env_selected_mode_agrees_with_oracle() {
    let incremental = env_incremental();
    for (circuit, target) in [
        (
            generators::counter(3, false),
            StateSet::from_state_bits(5, 3),
        ),
        (
            generators::counter(4, false),
            StateSet::from_state_bits(9, 4),
        ),
        (generators::lfsr(4), StateSet::from_state_bits(1, 4)),
        (
            generators::round_robin_arbiter(2),
            StateSet::from_partial(&[(2, true)]),
        ),
        (generators::parity(3), StateSet::from_partial(&[(3, true)])),
    ] {
        let n = circuit.num_latches();
        let expect = oracle::backward_reachable_bits(&circuit, &target);
        let report = reach(&circuit, &target, 1, incremental);
        assert!(report.converged);
        assert_eq!(
            report.reached_states,
            expect.len() as u128,
            "{} (incremental={incremental})",
            circuit.name()
        );
        for &b in &expect {
            assert!(report.reached.contains_bits(b, n));
        }
    }
}
