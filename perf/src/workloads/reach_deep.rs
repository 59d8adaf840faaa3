//! `reach-deep`: backward reachability to a fixed point through the
//! default incremental session, at one worker thread and at two.
//!
//! This is the session mechanism `preimage-step` bypasses: one encoding,
//! activation-group retirement, inprocessing and garbage collection, and
//! frontier unions, over fixed points 24 to 512 iterations deep. An
//! operation is one `ReachDriver::step` (one frontier's preimage) at one
//! thread. Each thread count is a part of the round, so a slowdown at two
//! threads alone moves `round_worst_s` by nearly its own size.
//!
//! Two-thread steps are left out of the operations because they are
//! another population: each costs about 2.5 times a single-thread step
//! and fills the top percent alone, and its CPU time moves by a quarter
//! with how often the two workers share a CPU.

use std::time::Instant;

use presat_allsat::Budget;
use presat_circuit::{bench, generators, Circuit};
use presat_obs::{NullSink, PreimageCounters};
use presat_preimage::{
    backward_reach, oracle, ReachDriver, ReachOptions, ReachReport, ReachStep, SatPreimage,
    StateSet, StepBase,
};

use super::{
    batch_end_to_end, best_ops, ms_since, parse_us_p50, replay_us_per_insert, round_s,
    setup_and_rounds, FirstCube, Outcome, Round, RunConfig,
};
use crate::inputs::{base_stream, circuit_variant, full_cube, partial_cube, stream, LatchCube};
use crate::metrics::Metrics;
use crate::reference;
use crate::stats::{median, ratio, tail};
use crate::sys;
use crate::trace::{by_name, child_coverage, Tracer};

/// Worker threads of the two parts of a round.
const JOBS: [usize; 2] = [1, 2];

/// How many times a round counts a fixed point at one and at two threads.
/// A pass at two threads takes about twice the CPU time of one at one
/// thread, so the single-thread pass counts twice and each part takes
/// about half a round. A round makes each pass once.
const WEIGHTS: [usize; 2] = [2, 1];

/// Fixed points at least this deep feed `reach.step_growth`.
const GROWTH_MIN_STEPS: usize = 20;

/// The size of the backward-reachable set, when it has a closed form.
enum Expect {
    States(u128),
    Oracle,
}

/// One circuit, its target, and the answer's reference.
pub struct Case {
    circuit: Circuit,
    target: StateSet,
    expect: Expect,
}

/// Base seed of the `random_dag(6, 10, 100, _)` circuit.
const DAG_SEED: u64 = 1;

/// State `k` of an `n`-stage Johnson counter's ring, counted from all
/// zeros: ones fill from latch 0 for `n` steps, then drain from latch 0.
fn johnson_cube(n: usize, k: usize) -> LatchCube {
    (0..n)
        .map(|j| (j, if k <= n { j < k } else { j >= k - n }))
        .collect()
}

/// The fixed base cases: circuit, target cube and the answer's
/// reference.
fn bases() -> Vec<(Circuit, LatchCube, Expect)> {
    let mut rng = base_stream(2);
    let mut full = |c: Circuit, states: u128, forced: &[(usize, bool)]| {
        let target = full_cube(&mut rng, c.num_latches(), forced);
        (c, target, Expect::States(states))
    };
    let mut out = vec![
        // Counters and the Gray counter are single cycles: every state
        // reaches every other.
        full(generators::counter(7, false), 128, &[]),
        full(generators::counter(9, true), 512, &[]),
        full(generators::counter(9, false), 512, &[]),
        full(generators::gray_counter(8), 256, &[]),
        // A maximal-length LFSR: all non-zero states form one cycle.
        full(generators::lfsr(7), 127, &[(0, true)]),
    ];
    out.push((
        generators::round_robin_arbiter(5),
        vec![(5 + rng.gen_range(0..5), true)],
        Expect::Oracle,
    ));
    // The Johnson counter is a bijection, so a ring state reaches exactly
    // the 24 ring states.
    out.push((
        generators::johnson_counter(12),
        johnson_cube(12, rng.gen_range(0..24)),
        Expect::States(24),
    ));
    out.push((
        generators::random_dag(6, 10, 100, DAG_SEED),
        partial_cube(&mut rng, 10, 2),
        Expect::Oracle,
    ));
    out
}

/// The cases of a run: a seeded variant of every base case.
pub fn cases(seed: u64) -> Vec<Case> {
    let mut rng = stream(seed, 2);
    bases()
        .into_iter()
        .map(|(c, t, expect)| Case {
            circuit: circuit_variant(&c, &mut rng),
            target: StateSet::from_partial(&t),
            expect,
        })
        .collect()
}

/// One fixed point: the report and the CPU time of each preimage step.
struct FixedPoint {
    report: ReachReport,
    step_ms: Vec<f64>,
    first_cube_ms: Vec<f64>,
}

/// Runs `ReachDriver` to the fixed point the way `backward_reach` does,
/// timing each step in CPU time.
fn fixed_point(tr: &mut Tracer, engine: &SatPreimage, case: &Case, op: u64) -> FixedPoint {
    tr.span("reach.fixed_point", op, |tr| {
        let c = &case.circuit;
        let mut driver = tr.span("reach.open", op, |_| {
            ReachDriver::new(engine, c, &case.target, ReachOptions::default())
        });
        let unlimited = Budget::unlimited();
        let mut step_ms = Vec::new();
        let mut first_cube_ms = Vec::new();
        loop {
            let start = sys::cpu_ms();
            let step = if tr.on() {
                let mut sink = FirstCube::start();
                let s = tr.span("reach.step", op, |_| {
                    driver.step(engine, c, &unlimited, &mut sink)
                });
                first_cube_ms.extend(sink.ms());
                s
            } else {
                driver.step(engine, c, &unlimited, &mut NullSink)
            };
            if step == ReachStep::Done {
                break;
            }
            step_ms.push(sys::cpu_ms_since(start));
            if step != ReachStep::Advanced {
                break;
            }
        }
        let report = tr.span("reach.report", op, |_| driver.report());
        FixedPoint {
            report,
            step_ms,
            first_cube_ms,
        }
    })
}

/// What the pass at each thread count measured in one round, besides its
/// step times.
#[derive(Default)]
struct RoundData {
    /// Wall-clock time of each thread count's pass, for the speed-up.
    jobs_ms: [f64; 2],
    calls: [u64; 2],
    counters: PreimageCounters,
    iterations: u64,
    frontier_cubes_max: usize,
    /// Summed step CPU time of the first and the last tenth of every deep
    /// single-thread fixed point.
    growth: (f64, f64),
    first_cube_ms: Vec<f64>,
    /// Summed step CPU time.
    search_ms: f64,
}

struct Bench {
    cases: Vec<Case>,
    engines: [SatPreimage; 2],
    /// First-round reports, `[jobs][case]`.
    reports: [Vec<ReachReport>; 2],
    attempted: u64,
    failed: u64,
    rounds: Vec<RoundData>,
}

impl Bench {
    fn new(cases: Vec<Case>) -> Self {
        Bench {
            cases,
            engines: JOBS.map(|j| SatPreimage::success_driven().with_jobs(j)),
            reports: [Vec::new(), Vec::new()],
            attempted: 0,
            failed: 0,
            rounds: Vec::new(),
        }
    }

    /// Runs every case to its fixed point at each thread count once.
    /// Returns every single-thread step as an operation, and one part per
    /// thread count with an entry for every step of every fixed point and
    /// one for the rest of it (opening the session, the report), each
    /// counted as often as its thread count's weight. Steps are the same from round to
    /// round, so each gets its own best time: a slow second spoils a few
    /// steps of a round instead of a whole fixed point.
    fn round(&mut self, tr: &mut Tracer, index: usize) -> Round {
        let mut data = RoundData::default();
        let mut round = Round {
            parts: vec![Vec::new(); JOBS.len()],
            op_ms: Vec::new(),
        };
        for (j, engine) in self.engines.iter().enumerate() {
            let weight = WEIGHTS[j];
            for case in &self.cases {
                let (start, cpu_start) = (Instant::now(), sys::cpu_ms());
                let fp = fixed_point(tr, engine, case, self.attempted);
                let (ms, cpu_ms) = (ms_since(start), sys::cpu_ms_since(cpu_start));
                let rest_ms = cpu_ms - fp.step_ms.iter().sum::<f64>();
                for _ in 0..weight {
                    round.parts[j].push(rest_ms);
                    round.parts[j].extend(&fp.step_ms);
                }
                if JOBS[j] == 1 {
                    round.op_ms.extend(&fp.step_ms);
                }
                let r = &fp.report;
                self.attempted += 1;
                self.failed += u64::from(!(r.complete && r.converged));
                data.jobs_ms[j] += ms;
                data.search_ms += fp.step_ms.iter().sum::<f64>();
                data.calls[j] += r.stats.solver_calls;
                data.counters.absorb(&r.stats);
                data.iterations += r.iterations.len() as u64;
                let widest = r.iterations.iter().map(|it| it.frontier_cubes).max();
                data.frontier_cubes_max = data.frontier_cubes_max.max(widest.unwrap_or(0));
                let n = fp.step_ms.len();
                if j == 0 && n >= GROWTH_MIN_STEPS {
                    let tenth = n / 10;
                    data.growth.0 += fp.step_ms[..tenth].iter().sum::<f64>();
                    data.growth.1 += fp.step_ms[n - tenth..].iter().sum::<f64>();
                }
                data.first_cube_ms.extend(fp.first_cube_ms);
                if index == 0 {
                    self.reports[j].push(fp.report);
                }
            }
        }
        self.rounds.push(data);
        round
    }

    /// Checks each fixed point's state count against its closed form or
    /// exhaustive simulation, and that two threads and the rebuild path
    /// (`incremental: false`) return the identical cube list.
    fn gate(&self) -> Result<(), String> {
        for (i, case) in self.cases.iter().enumerate() {
            let c = &case.circuit;
            let n = c.num_latches();
            let one = &self.reports[0][i];
            let two = &self.reports[1][i];
            if !(one.converged && one.complete) {
                return Err(format!("{} did not converge", c.name()));
            }
            match case.expect {
                Expect::States(states) if one.reached_states != states => {
                    return Err(format!(
                        "{} reached {} states, expected {states}",
                        c.name(),
                        one.reached_states
                    ));
                }
                Expect::States(_) => {}
                Expect::Oracle => {
                    let want = oracle::backward_reachable_bits(c, &case.target);
                    if one.reached_states != want.len() as u128
                        || !want.iter().all(|&b| one.reached.contains_bits(b, n))
                    {
                        return Err(format!("{} reached the wrong states", c.name()));
                    }
                }
            }
            if two.reached.cubes() != one.reached.cubes() {
                return Err(format!("{}: two threads changed the answer", c.name()));
            }
            let rebuild = backward_reach(&self.engines[0], c, &case.target, rebuild_options());
            if rebuild.reached.cubes() != one.reached.cubes() {
                return Err(format!("{}: the rebuild path changed the answer", c.name()));
            }
        }
        Ok(())
    }
}

/// The per-call path: every step rebuilds its encoding.
fn rebuild_options() -> ReachOptions {
    ReachOptions {
        incremental: false,
        ..ReachOptions::default()
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut tr = Tracer::new(cfg.traced);
    let (setup_s, work, rounds, reference_ms) = setup_and_rounds(
        cfg.seconds,
        || {
            let work = Bench::new(cases(cfg.seed));
            // Warm-up: one fixed point at each thread count.
            let (c, t) = (
                generators::counter(7, false),
                StateSet::from_state_bits(0, 7),
            );
            for engine in &work.engines {
                std::hint::black_box(backward_reach(engine, &c, &t, ReachOptions::default()));
            }
            Ok(work)
        },
        |work, i| work.round(&mut tr, i),
    )?;
    let rss_mb = sys::peak_rss_mb()?;
    let correct = match work.gate() {
        Ok(()) => true,
        Err(e) => {
            eprintln!("reach-deep: {e}");
            false
        }
    };

    let mut m = Metrics::new(cfg.traced);
    let mut samples = vec![("reference_ms".to_string(), reference_ms)];
    if !cfg.traced {
        let result_cubes: usize = work
            .reports
            .iter()
            .flatten()
            .map(|r| r.reached.num_cubes())
            .sum();
        batch_end_to_end(
            &mut m,
            &mut samples,
            setup_s,
            rss_mb,
            &rounds,
            result_cubes as u64,
        );
    } else {
        let spans = tr.spans();
        let layers = by_name(spans);
        let root_ns = layers.get("reach.fixed_point").map_or(0, |l| l.total_ns) as f64;
        let self_ns = |name: &str| layers.get(name).map_or(0, |l| l.self_ns) as f64;
        m.set("trace.round_s", round_s(&rounds));
        m.set("trace.child_coverage", child_coverage(spans));
        m.set("encode.share", ratio(self_ns("reach.open"), root_ns));
        m.set("search.share", ratio(self_ns("reach.step"), root_ns));
        let ops = best_ops(&rounds);
        let search_tail = tail(&ops);
        m.set("search.ms_p50", median(&ops));
        m.set("search.ms_tail", search_tail.value);
        let first: Vec<f64> = work
            .rounds
            .iter()
            .flat_map(|r| r.first_cube_ms.clone())
            .collect();
        m.set("first_cube.ms_p50", median(&first));
        let texts: Vec<String> = work
            .cases
            .iter()
            .map(|c| bench::write(&c.circuit))
            .collect();
        m.set("parse.us_p50", parse_us_p50(&texts, bench::parse)?);
        let results: Vec<Vec<_>> = work
            .reports
            .iter()
            .flatten()
            .map(|r| r.reached.cubes().iter().cloned().collect())
            .collect();
        m.set(
            "cubestore.replay_us_per_insert",
            replay_us_per_insert(&results),
        );
        let clauses: usize = work
            .cases
            .iter()
            .map(|c| StepBase::build(&c.circuit, None).cnf().num_clauses())
            .sum();
        m.set("encode.clauses", (clauses * JOBS.len()) as f64);

        let first_round = &work.rounds[0];
        m.set_counters(&first_round.counters);
        let c = &first_round.counters;
        m.set("reach.iterations", first_round.iterations as f64);
        m.set("reach.encodings_reused", c.encodings_reused as f64);
        m.set("reach.learnts_carried", c.learnts_carried as f64);
        m.set("reach.activation_lits", c.activation_lits as f64);
        m.set(
            "reach.frontier_cubes_max",
            first_round.frontier_cubes_max as f64,
        );
        let per_round =
            |f: &dyn Fn(&RoundData) -> f64| median(&work.rounds.iter().map(f).collect::<Vec<_>>());
        m.set(
            "reach.step_growth",
            per_round(&|d| ratio(d.growth.1, d.growth.0)),
        );
        m.set(
            "par.speedup",
            per_round(&|d| ratio(d.jobs_ms[0], d.jobs_ms[1])),
        );
        m.set(
            "par.solver_calls_ratio",
            ratio(first_round.calls[1] as f64, first_round.calls[0] as f64),
        );
        let scale = reference::NOMINAL_MS / reference_ms;
        m.set(
            "sat.props_per_ms",
            per_round(&|d| {
                ratio(
                    d.counters.allsat.sat.propagations as f64,
                    d.search_ms * scale,
                )
            }),
        );

        // The rebuild path on the same circuits, single-threaded.
        let start = Instant::now();
        for case in &work.cases {
            let r = backward_reach(
                &work.engines[0],
                &case.circuit,
                &case.target,
                rebuild_options(),
            );
            std::hint::black_box(r);
        }
        let rebuild_ms = ms_since(start);
        m.set(
            "reach.session_vs_rebuild",
            per_round(&|d| ratio(d.jobs_ms[0], rebuild_ms)),
        );
        samples.push(("rounds".into(), rounds.len() as f64));
        samples.push(("steps_per_round".into(), search_tail.samples as f64));
        samples.push(("search_tail_pct".into(), search_tail.pct));
    }
    Ok(Outcome {
        metrics: m,
        correct,
        attempted: work.attempted,
        failed: work.failed,
        samples,
        spans: tr.take(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn johnson_ring_states_are_distinct_and_wrap() {
        let state = |k| StateSet::from_partial(&johnson_cube(4, k));
        let states: Vec<StateSet> = (0..8).map(state).collect();
        for (i, a) in states.iter().enumerate() {
            assert!(states[i + 1..].iter().all(|b| a != b), "state {i} repeats");
        }
        assert!(state(0).contains_bits(0, 4));
        assert!(state(4).contains_bits(0b1111, 4));
        assert!(state(7).contains_bits(0b1000, 4));
    }

    #[test]
    fn smoke_fixed_point_matches_closed_form_traced_and_untraced() {
        let case = Case {
            circuit: generators::johnson_counter(4),
            target: StateSet::from_partial(&johnson_cube(4, 3)),
            expect: Expect::States(8),
        };
        for on in [false, true] {
            let mut tr = Tracer::new(on);
            let fp = fixed_point(&mut tr, &SatPreimage::success_driven(), &case, 0);
            assert!(fp.report.converged && fp.report.complete);
            assert_eq!(fp.report.reached_states, 8);
            assert_eq!(fp.step_ms.len(), fp.report.iterations.len());
            if on {
                let spans = tr.take();
                assert_eq!(spans[0].name, "reach.fixed_point");
                assert!(spans.iter().any(|s| s.name == "reach.step"));
            }
        }
    }
}
