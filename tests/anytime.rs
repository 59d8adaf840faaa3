//! Anytime-enumeration property suite: budgets, cancellation, and
//! solution caps must yield *partial but sound* results.
//!
//! The contract under test, for every engine and at every thread count:
//! an interrupted enumeration returns a cube set that is (1) pairwise
//! disjoint, (2) a subset of the exhaustive run's solution set, and
//! (3) honestly flagged `complete = false` with a `stop_reason` — never a
//! spuriously complete answer, and in particular never an empty set
//! masquerading as "UNSAT". An uninterrupted run under generous limits is
//! bit-identical to the unlimited one.

use std::time::Duration;

use presat::allsat::{
    AllSatEngine, AllSatProblem, BlockingAllSat, Budget, CancelToken, ChronoAllSat, EnumLimits,
    MinimizedBlockingAllSat, ParallelAllSat, StopReason, SuccessDrivenAllSat,
};
use presat::circuit::generators;
use presat::logic::rng::SplitMix64;
use presat::logic::{Cnf, CubeSet, Lit, Var};
use presat::obs::{Event, ObsSink};
use presat::preimage::{backward_reach, ReachOptions, SatPreimage, StateSet};

fn lit(v: usize, pos: bool) -> Lit {
    Lit::with_phase(Var::new(v), pos)
}

/// A random 3-CNF over `n` variables with `m` clauses.
fn random_cnf(rng: &mut SplitMix64, n: usize, m: usize) -> Cnf {
    let mut cnf = Cnf::new(n);
    for _ in 0..m {
        let c: Vec<Lit> = (0..3)
            .map(|_| lit(rng.gen_range(0..n), rng.gen_bool(0.5)))
            .collect();
        cnf.add_clause(c);
    }
    cnf
}

/// Bitmap of which of the `2^k` minterms over variables `0..k` the cube
/// set covers.
fn covered(cubes: &CubeSet, k: usize) -> Vec<bool> {
    (0..1u64 << k)
        .map(|m| {
            cubes.cubes().iter().any(|c| {
                c.lits()
                    .iter()
                    .all(|l| (m >> l.var().index() & 1 == 1) == l.is_pos())
            })
        })
        .collect()
}

/// Every pair of cubes conflicts on at least one variable (so no minterm
/// is enumerated twice).
fn pairwise_disjoint(cubes: &CubeSet) -> bool {
    let cs = cubes.cubes();
    for i in 0..cs.len() {
        for j in i + 1..cs.len() {
            let conflict = cs[i].lits().iter().any(|la| {
                cs[j]
                    .lits()
                    .iter()
                    .any(|lb| la.var() == lb.var() && *la != *lb)
            });
            if !conflict {
                return false;
            }
        }
    }
    true
}

/// Checks the anytime invariants of `partial` against the exhaustive
/// `full` run over `k` important variables.
fn assert_sound_partial(
    partial: &presat::allsat::AllSatResult,
    full: &presat::allsat::AllSatResult,
    k: usize,
    what: &str,
) {
    assert_sound_partial_opts(partial, full, k, true, what);
}

/// As [`assert_sound_partial`], with the disjointness check optional:
/// the minimized-blocking engine shortens its cubes and its output may
/// legitimately overlap (complete and partial runs alike).
fn assert_sound_partial_opts(
    partial: &presat::allsat::AllSatResult,
    full: &presat::allsat::AllSatResult,
    k: usize,
    disjoint: bool,
    what: &str,
) {
    assert!(
        !disjoint || pairwise_disjoint(&partial.cubes),
        "{what}: partial cubes overlap"
    );
    let p = covered(&partial.cubes, k);
    let f = covered(&full.cubes, k);
    for (m, (&in_p, &in_f)) in p.iter().zip(f.iter()).enumerate() {
        assert!(
            !in_p || in_f,
            "{what}: partial claims non-solution minterm {m:#b}"
        );
    }
    if partial.complete {
        assert_eq!(partial.stop_reason, None, "{what}: complete but stopped");
        assert_eq!(
            partial.cubes.cubes(),
            full.cubes.cubes(),
            "{what}: complete run diverges from the unlimited one"
        );
    } else {
        assert!(
            partial.stop_reason.is_some(),
            "{what}: incomplete without a stop reason"
        );
    }
}

/// Conflict budgets at every size, sequential engines: the result is
/// always a sound partial answer, and a generous budget reproduces the
/// unlimited run bit for bit.
#[test]
fn conflict_budgets_yield_sound_partial_results() {
    let mut rng = SplitMix64::seed_from_u64(0xA11);
    for case in 0..12 {
        let n = 8;
        let k = 6;
        let cnf = random_cnf(&mut rng, n, 24);
        let important: Vec<Var> = Var::range(k).collect();
        let problem = AllSatProblem::new(cnf, important);
        // Each engine's partial runs are checked against that engine's own
        // unlimited run (cube shapes differ across engine families).
        let (sd, bl, mb, ch) = (
            SuccessDrivenAllSat::new(),
            BlockingAllSat::new(),
            MinimizedBlockingAllSat::new(),
            ChronoAllSat::new(),
        );
        let engines: [(&str, &dyn AllSatEngine); 4] = [
            ("success-driven", &sd),
            ("blocking", &bl),
            ("min-blocking", &mb),
            ("chrono", &ch),
        ];
        for (name, engine) in engines {
            let full = engine.enumerate(&problem);
            for budget in [0u64, 1, 2, 5, 1_000_000] {
                let limits =
                    EnumLimits::none().with_budget(Budget::unlimited().with_conflicts(budget));
                let result = engine.enumerate_limited(&problem, &limits, &mut presat::obs::NullSink);
                assert_sound_partial_opts(
                    &result,
                    &full,
                    k,
                    name != "min-blocking",
                    &format!("case {case} budget {budget} engine {name}"),
                );
                if !result.complete {
                    assert_eq!(
                        result.stop_reason,
                        Some(StopReason::Conflicts),
                        "case {case} budget {budget} engine {name}: wrong reason"
                    );
                }
            }
        }
    }
}

/// Chrono and plain blocking append their cubes to the cube store without
/// its subsumption scans (`CubeSet::push_disjoint`). That is sound only
/// because their cubes are pairwise disjoint, complete or stopped, so
/// check exactly that on random problems. Re-inserting the cubes with
/// absorption must then keep every one of them, in the same order.
#[test]
fn chrono_and_blocking_append_pairwise_disjoint_cubes() {
    let mut rng = SplitMix64::seed_from_u64(0xD15);
    let (bl, ch) = (BlockingAllSat::new(), ChronoAllSat::new());
    let engines: [(&str, &dyn AllSatEngine); 2] = [("blocking", &bl), ("chrono", &ch)];
    let mut stopped = 0;
    for case in 0..16 {
        let n = rng.gen_range(6..11);
        let k = rng.gen_range(1..n.min(8) + 1);
        let m = rng.gen_range(n..3 * n);
        let cnf = random_cnf(&mut rng, n, m);
        let problem = AllSatProblem::new(cnf, Var::range(k).collect());
        for (name, engine) in engines {
            let props = rng.gen_range(1..200) as u64;
            let cap = rng.gen_range(1..8) as u64;
            let runs = [
                ("unlimited", EnumLimits::none()),
                (
                    "propagation budget",
                    EnumLimits::none().with_budget(Budget::unlimited().with_propagations(props)),
                ),
                ("solution cap", EnumLimits::none().with_max_solutions(cap)),
            ];
            for (limit, limits) in runs {
                let what = format!("case {case} engine {name} {limit}");
                let result =
                    engine.enumerate_limited(&problem, &limits, &mut presat::obs::NullSink);
                if !result.complete {
                    stopped += 1;
                }
                assert!(pairwise_disjoint(&result.cubes), "{what}: cubes overlap");
                let reinserted: CubeSet = result.cubes.iter().cloned().collect();
                assert_eq!(
                    reinserted.cubes(),
                    result.cubes.cubes(),
                    "{what}: an absorbed insert would change the cube list"
                );
            }
        }
    }
    assert!(stopped >= 8, "only {stopped} stopped runs");
}

/// The same invariants hold for the parallel engine at 1 and 4 workers.
#[test]
fn parallel_budget_stops_are_sound_partial_results() {
    let mut rng = SplitMix64::seed_from_u64(0xA12);
    for case in 0..8 {
        let n = 9;
        let k = 6;
        let cnf = random_cnf(&mut rng, n, 26);
        let important: Vec<Var> = Var::range(k).collect();
        let problem = AllSatProblem::new(cnf, important);
        let full = SuccessDrivenAllSat::new().enumerate(&problem);
        for jobs in [1usize, 4] {
            for budget in [0u64, 1, 3, 1_000_000] {
                let limits =
                    EnumLimits::none().with_budget(Budget::unlimited().with_conflicts(budget));
                let result = ParallelAllSat::new(jobs).enumerate_limited(
                    &problem,
                    &limits,
                    &mut presat::obs::NullSink,
                );
                assert_sound_partial(
                    &result,
                    &full,
                    k,
                    &format!("case {case} jobs {jobs} budget {budget}"),
                );
                // The fleet spends ONE shared budget pot, not one per
                // worker: per-conflict charging bounds the overshoot at a
                // single conflict per worker, so total conflicts can never
                // inflate toward jobs × budget.
                assert!(
                    result.stats.sat.conflicts <= budget + jobs as u64,
                    "case {case} jobs {jobs} budget {budget}: \
                     {} conflicts spent from a {budget}-conflict budget",
                    result.stats.sat.conflicts
                );
            }
        }
    }
}

/// The shared budget pool holds at every thread count.
#[test]
fn shared_pool_never_inflates_with_thread_count() {
    let mut rng = SplitMix64::seed_from_u64(0xA18);
    for case in 0..4 {
        let cnf = random_cnf(&mut rng, 10, 32);
        let problem = AllSatProblem::new(cnf, Var::range(7).collect());
        for budget in [8u64, 40] {
            let limits =
                EnumLimits::none().with_budget(Budget::unlimited().with_conflicts(budget));
            for jobs in [1usize, 2, 4, 7] {
                let result = ParallelAllSat::new(jobs).enumerate_limited(
                    &problem,
                    &limits,
                    &mut presat::obs::NullSink,
                );
                assert!(
                    result.stats.sat.conflicts <= budget + jobs as u64,
                    "case {case} jobs {jobs} budget {budget}: {} conflicts spent",
                    result.stats.sat.conflicts
                );
            }
        }
    }
}

/// A sink that fires a [`CancelToken`] after a fixed number of events —
/// a deterministic stand-in for "the user hit Ctrl-C mid-run".
struct CancelAfter {
    token: CancelToken,
    remaining: u64,
}

impl ObsSink for CancelAfter {
    fn record(&mut self, _event: &Event) {
        if self.remaining == 0 {
            self.token.cancel();
        } else {
            self.remaining -= 1;
        }
    }
}

/// Cancellation at a random point mid-enumeration: the partial cube set
/// stays pairwise disjoint and a subset of the full run, flagged
/// incomplete. Runs the graph engine at 1 and 4 workers.
#[test]
fn cancellation_mid_run_yields_sound_partial_results() {
    let mut rng = SplitMix64::seed_from_u64(0xA13);
    for case in 0..10 {
        let n = 9;
        let k = 6;
        let cnf = random_cnf(&mut rng, n, 24);
        let important: Vec<Var> = Var::range(k).collect();
        let problem = AllSatProblem::new(cnf, important);
        let full = SuccessDrivenAllSat::new().enumerate(&problem);
        let cut = rng.gen_range(0..40) as u64;
        for jobs in [1usize, 4] {
            let token = CancelToken::new();
            let mut sink = CancelAfter {
                token: token.clone(),
                remaining: cut,
            };
            let limits = EnumLimits::none().with_cancel(token);
            let result = ParallelAllSat::new(jobs).enumerate_limited(&problem, &limits, &mut sink);
            assert_sound_partial(
                &result,
                &full,
                k,
                &format!("case {case} jobs {jobs} cut {cut}"),
            );
            if !result.complete {
                assert_eq!(
                    result.stop_reason,
                    Some(StopReason::Cancelled),
                    "case {case} jobs {jobs} cut {cut}: wrong reason"
                );
            }
        }
    }
}

/// A token cancelled before the run starts returns an empty *incomplete*
/// result — the honest "I did nothing", not an UNSAT claim.
#[test]
fn precancelled_run_is_empty_and_incomplete() {
    let mut rng = SplitMix64::seed_from_u64(0xA14);
    let cnf = random_cnf(&mut rng, 6, 8);
    let problem = AllSatProblem::new(cnf.clone(), Var::range(4).collect());
    // Skip the degenerate case where the formula really is empty-solution.
    let full = SuccessDrivenAllSat::new().enumerate(&problem);
    let token = CancelToken::new();
    token.cancel();
    let limits = EnumLimits::none().with_cancel(token);
    for jobs in [1usize, 4] {
        let result =
            ParallelAllSat::new(jobs).enumerate_limited(&problem, &limits, &mut presat::obs::NullSink);
        assert!(!result.complete, "jobs {jobs}: pre-cancelled run claims completion");
        assert_eq!(result.stop_reason, Some(StopReason::Cancelled));
        assert!(
            result.cubes.cubes().len() <= full.cubes.cubes().len(),
            "jobs {jobs}: cancelled run exceeds the full enumeration"
        );
    }
}

/// `max_solutions` caps the enumeration: a capped run stops with
/// `MaxSolutions` after counting at least the cap (cache hits may
/// overshoot), and a cap above the solution count changes nothing.
#[test]
fn max_solutions_caps_enumeration() {
    let mut rng = SplitMix64::seed_from_u64(0xA15);
    for case in 0..10 {
        let n = 8;
        let k = 6;
        let cnf = random_cnf(&mut rng, n, 20);
        let important: Vec<Var> = Var::range(k).collect();
        let problem = AllSatProblem::new(cnf, important);
        let full = SuccessDrivenAllSat::new().enumerate(&problem);
        let total = full.minterm_count(k);
        for cap in [1u64, 3, 10] {
            let limits = EnumLimits::none().with_max_solutions(cap);
            let result = SuccessDrivenAllSat::new().enumerate_limited(
                &problem,
                &limits,
                &mut presat::obs::NullSink,
            );
            assert_sound_partial(&result, &full, k, &format!("case {case} cap {cap}"));
            if u128::from(cap) < total {
                assert!(!result.complete, "case {case} cap {cap}: cap below total yet complete");
                assert_eq!(result.stop_reason, Some(StopReason::MaxSolutions));
                assert!(
                    result.minterm_count(k) >= u128::from(cap),
                    "case {case} cap {cap}: stopped before reaching the cap"
                );
            }
        }
    }
}

/// Chrono-specific anytime contract: a cancelled or capped chrono run
/// returns a pairwise-disjoint subset of the exhaustive chrono answer
/// (the disjointness invariant survives interruption — the absorb rule
/// never retroactively widens an emitted cube), flagged incomplete with
/// the right stop reason.
#[test]
fn chrono_cancellation_and_caps_yield_disjoint_subsets() {
    let mut rng = SplitMix64::seed_from_u64(0xA17);
    for case in 0..10 {
        let n = 9;
        let k = 6;
        let cnf = random_cnf(&mut rng, n, 24);
        let important: Vec<Var> = Var::range(k).collect();
        let problem = AllSatProblem::new(cnf, important);
        let full = ChronoAllSat::new().enumerate(&problem);
        assert!(pairwise_disjoint(&full.cubes), "case {case}: full run overlaps");

        // Cancellation after a random number of events.
        let cut = rng.gen_range(0..20) as u64;
        let token = CancelToken::new();
        let mut sink = CancelAfter {
            token: token.clone(),
            remaining: cut,
        };
        let limits = EnumLimits::none().with_cancel(token);
        let result = ChronoAllSat::new().enumerate_limited(&problem, &limits, &mut sink);
        assert_sound_partial(&result, &full, k, &format!("case {case} cut {cut} chrono"));
        if !result.complete {
            assert_eq!(result.stop_reason, Some(StopReason::Cancelled));
        }

        // Solution caps count minterms, exactly like the other engines.
        let total = full.minterm_count(k);
        for cap in [1u64, 4] {
            let limits = EnumLimits::none().with_max_solutions(cap);
            let result = ChronoAllSat::new().enumerate_limited(
                &problem,
                &limits,
                &mut presat::obs::NullSink,
            );
            assert_sound_partial(&result, &full, k, &format!("case {case} cap {cap} chrono"));
            if u128::from(cap) < total {
                assert!(!result.complete);
                assert_eq!(result.stop_reason, Some(StopReason::MaxSolutions));
                assert!(result.minterm_count(k) >= u128::from(cap));
            }
        }
    }

    // A pre-cancelled chrono run is the honest empty incomplete answer.
    let cnf = random_cnf(&mut rng, 6, 8);
    let problem = AllSatProblem::new(cnf, Var::range(4).collect());
    let token = CancelToken::new();
    token.cancel();
    let limits = EnumLimits::none().with_cancel(token);
    let result =
        ChronoAllSat::new().enumerate_limited(&problem, &limits, &mut presat::obs::NullSink);
    assert!(!result.complete, "pre-cancelled chrono run claims completion");
    assert_eq!(result.stop_reason, Some(StopReason::Cancelled));
}

/// An interrupted backward-reachability run returns the deepest *verified*
/// frontier: a subset of the true backward-reachable set containing the
/// target, flagged incomplete and NOT converged — never a fabricated
/// fixed point.
#[test]
fn interrupted_reach_is_verified_underapproximation() {
    let circuit = generators::lfsr(6);
    let n = 6;
    let target = StateSet::from_state_bits(1, n);
    let engine = SatPreimage::success_driven();
    let full = backward_reach(&engine, &circuit, &target, ReachOptions::default());
    assert!(full.converged && full.complete && full.stop_reason.is_none());
    for incremental in [false, true] {
        for budget in [0u64, 1, 5, 50] {
            let options = ReachOptions {
                incremental,
                ..ReachOptions::default()
            }
            .with_total_budget(Budget::unlimited().with_conflicts(budget));
            let report = backward_reach(&engine, &circuit, &target, options);
            for s in 0..1u64 << n {
                assert!(
                    !report.reached.contains_bits(s, n) || full.reached.contains_bits(s, n),
                    "budget {budget}: unverified state {s:#b} in partial reach"
                );
            }
            assert!(
                report.reached.contains_bits(1, n),
                "budget {budget}: target missing from partial reach"
            );
            if report.complete {
                assert_eq!(report.reached_states, full.reached_states);
            } else {
                assert!(
                    !report.converged,
                    "budget {budget}: interrupted run claims convergence"
                );
                assert!(report.stop_reason.is_some());
            }
        }
    }
}

/// A cancelled reach stops promptly between iterations and reports
/// `Cancelled` without converging.
#[test]
fn cancelled_reach_reports_cancellation() {
    let circuit = generators::lfsr(6);
    let target = StateSet::from_state_bits(1, 6);
    let engine = SatPreimage::success_driven();
    let token = CancelToken::new();
    token.cancel();
    let options = ReachOptions::default().with_cancel(token);
    let report = backward_reach(&engine, &circuit, &target, options);
    assert!(!report.complete && !report.converged);
    assert_eq!(report.stop_reason, Some(StopReason::Cancelled));
    // The target itself is still reported (it is trivially backward-
    // reachable), so the partial answer is non-trivial even here.
    assert!(report.reached.contains_bits(1, 6));
}

/// Unlimited `EnumLimits` are the identity: `enumerate_limited` with no
/// limits installed is bit-identical to plain `enumerate` on every engine.
/// So is a live but generous limit set that never trips: every poll site
/// runs, and the answer must still be complete and bit-identical.
#[test]
fn no_limits_is_bit_identical_to_unlimited() {
    let none = EnumLimits::none();
    let generous = EnumLimits::none()
        .with_budget(
            Budget::unlimited()
                .with_conflicts(u64::MAX / 2)
                .with_timeout(Duration::from_secs(3600)),
        )
        .with_cancel(CancelToken::new());
    let mut rng = SplitMix64::seed_from_u64(0xA16);
    for _ in 0..6 {
        let cnf = random_cnf(&mut rng, 8, 22);
        let problem = AllSatProblem::new(cnf, Var::range(5).collect());
        for limits in [&none, &generous] {
            for jobs in [1usize, 4] {
                let plain = ParallelAllSat::new(jobs).enumerate(&problem);
                let limited = ParallelAllSat::new(jobs).enumerate_limited(
                    &problem,
                    limits,
                    &mut presat::obs::NullSink,
                );
                assert_eq!(plain.cubes.cubes(), limited.cubes.cubes());
                assert!(limited.complete && limited.stop_reason.is_none());
            }
        }
    }
}
