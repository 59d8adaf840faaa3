//! `allsat-par`: projected all-SAT on seeded random 3-CNFs with the
//! parallel success-driven engine at two worker threads.
//!
//! Each call returns hundreds to thousands of cubes, so the cube store,
//! the solution graph and the parallel cube tree carry load; reach
//! frontiers hold one or two cubes, so those layers sit idle in
//! `reach-deep`.

use std::time::Instant;

use presat_allsat::{
    AllSatEngine, AllSatProblem, AllSatResult, ChronoAllSat, ParallelAllSat, SuccessDrivenAllSat,
};
use presat_logic::{dimacs, Var};
use presat_obs::{NullSink, ObsSink, PreimageCounters};

use super::{
    batch_end_to_end, best_ops, ms_since, parse_us_p50, replay_us_per_insert, round_s,
    setup_and_rounds, FirstCube, Outcome, Round, RunConfig,
};
use crate::inputs::{base_pool, cnf_variant, stream};
use crate::metrics::Metrics;
use crate::stats::{median, ratio, tail};
use crate::sys;
use crate::trace::{by_name, child_coverage, Tracer};

/// Variables, clauses and projected variables of each formula, and the
/// number of formulas in a round: sized on a 2-CPU host so a round takes
/// about 3 s of wall-clock time and 5 s of CPU time at two threads.
const VARS: usize = 40;
const CLAUSES: usize = 110;
const PROJECT: usize = 18;
const FORMULAS: usize = 40;

/// Worker threads.
const JOBS: usize = 2;

/// Every this-many-th formula is checked against the chrono engine.
const CHECK_EVERY: usize = 5;

/// The run's formulas: seeded variants of the fixed base pool.
pub fn problems(seed: u64) -> Vec<AllSatProblem> {
    let mut rng = stream(seed, 3);
    base_pool(VARS, CLAUSES, FORMULAS)
        .iter()
        .map(|b| {
            AllSatProblem::new(
                cnf_variant(b, PROJECT, &mut rng),
                Var::range(PROJECT).collect(),
            )
        })
        .collect()
}

/// One call: `enumerate` plus the store bookkeeping every caller reads.
fn call(
    tr: &mut Tracer,
    engine: &ParallelAllSat,
    p: &AllSatProblem,
    op: u64,
) -> (AllSatResult, PreimageCounters, Option<f64>) {
    tr.span("allsat.call", op, |tr| {
        let mut first = FirstCube::start();
        let sink: &mut dyn ObsSink = if tr.on() { &mut first } else { &mut NullSink };
        let result = tr.span("allsat.enumerate", op, |_| {
            engine.enumerate_with_sink(p, sink)
        });
        let counters = PreimageCounters {
            result_cubes: result.cubes.len() as u64,
            allsat: result.stats_with_store(),
            ..PreimageCounters::default()
        };
        (result, counters, first.ms())
    })
}

#[derive(Default)]
struct RoundData {
    counters: PreimageCounters,
    first_cube_ms: Vec<f64>,
    /// Wall-clock time of the round's calls, for the speed-up.
    wall_ms: f64,
}

struct Bench {
    problems: Vec<AllSatProblem>,
    engine: ParallelAllSat,
    /// First-round results.
    results: Vec<AllSatResult>,
    attempted: u64,
    failed: u64,
    rounds: Vec<RoundData>,
}

impl Bench {
    fn round(&mut self, tr: &mut Tracer, index: usize) -> Round {
        let mut data = RoundData::default();
        let mut op_ms = Vec::with_capacity(self.problems.len());
        for p in &self.problems {
            let (start, cpu_start) = (Instant::now(), sys::cpu_ms());
            let (result, counters, first) = call(tr, &self.engine, p, self.attempted);
            op_ms.push(sys::cpu_ms_since(cpu_start));
            data.wall_ms += ms_since(start);
            self.attempted += 1;
            self.failed += u64::from(!result.complete);
            data.counters.absorb(&counters);
            data.first_cube_ms.extend(first);
            if index == 0 {
                self.results.push(result);
            }
        }
        self.rounds.push(data);
        Round::of_ops(op_ms)
    }

    /// Every fifth formula: the chrono engine must count the same models
    /// and the sequential engine must return the identical cube list.
    fn gate(&self) -> Result<(), String> {
        for (i, (p, got)) in self.problems.iter().zip(&self.results).enumerate() {
            if i % CHECK_EVERY != 0 {
                continue;
            }
            let want = ChronoAllSat::new().enumerate(p).minterm_count(PROJECT);
            if got.minterm_count(PROJECT) != want {
                return Err(format!(
                    "formula {i}: {} models, chrono counts {want}",
                    got.minterm_count(PROJECT)
                ));
            }
            if SuccessDrivenAllSat::new().enumerate(p).cubes != got.cubes {
                return Err(format!("formula {i}: two threads changed the cube list"));
            }
        }
        Ok(())
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut tr = Tracer::new(cfg.traced);
    let (setup_s, work, rounds, reference_ms) = setup_and_rounds(
        cfg.seconds,
        || {
            let work = Bench {
                problems: problems(cfg.seed),
                engine: ParallelAllSat::new(JOBS),
                results: Vec::new(),
                attempted: 0,
                failed: 0,
                rounds: Vec::new(),
            };
            // Warm-up: one call, which starts the worker fleet once.
            std::hint::black_box(work.engine.enumerate(&work.problems[0]));
            Ok(work)
        },
        |work, i| work.round(&mut tr, i),
    )?;
    let rss_mb = sys::peak_rss_mb()?;
    let correct = match work.gate() {
        Ok(()) => true,
        Err(e) => {
            eprintln!("allsat-par: {e}");
            false
        }
    };

    let mut m = Metrics::new(cfg.traced);
    let mut samples = vec![("reference_ms".to_string(), reference_ms)];
    if !cfg.traced {
        let result_cubes: usize = work.results.iter().map(|r| r.cubes.len()).sum();
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
        let root_ns = layers.get("allsat.call").map_or(0, |l| l.total_ns) as f64;
        let self_ns = |name: &str| layers.get(name).map_or(0, |l| l.self_ns) as f64;
        m.set("trace.round_s", round_s(&rounds));
        m.set("trace.child_coverage", child_coverage(spans));
        m.set("search.share", ratio(self_ns("allsat.enumerate"), root_ns));
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
            .problems
            .iter()
            .map(|p| dimacs::write(&p.cnf))
            .collect();
        m.set("parse.us_p50", parse_us_p50(&texts, dimacs::parse)?);
        let results: Vec<Vec<_>> = work
            .results
            .iter()
            .map(|r| r.cubes.iter().cloned().collect())
            .collect();
        m.set(
            "cubestore.replay_us_per_insert",
            replay_us_per_insert(&results),
        );
        let first_round = &work.rounds[0];
        m.set_counters(&first_round.counters);
        let search_ms: Vec<f64> = rounds.iter().map(|r| r.op_ms.iter().sum()).collect();
        let props: Vec<f64> = work
            .rounds
            .iter()
            .zip(&search_ms)
            .map(|(d, ms)| ratio(d.counters.allsat.sat.propagations as f64, *ms))
            .collect();
        m.set("sat.props_per_ms", median(&props));
        let wall_ms: Vec<f64> = work.rounds.iter().map(|d| d.wall_ms).collect();

        // The sequential engine on the same formulas.
        let (mut seq_calls, start) = (0u64, Instant::now());
        for p in &work.problems {
            seq_calls += SuccessDrivenAllSat::new().enumerate(p).stats.solver_calls;
        }
        let seq_ms = ms_since(start);
        m.set("par.speedup", ratio(seq_ms, median(&wall_ms)));
        m.set(
            "par.solver_calls_ratio",
            ratio(
                first_round.counters.allsat.solver_calls as f64,
                seq_calls as f64,
            ),
        );
        samples.push(("rounds".into(), rounds.len() as f64));
        samples.push(("calls_per_round".into(), search_tail.samples as f64));
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
    use crate::inputs::random_3cnf;

    #[test]
    fn smoke_call_matches_chrono_traced_and_untraced() {
        let mut rng = stream(4, 4);
        let p = AllSatProblem::new(random_3cnf(&mut rng, 14, 30), Var::range(6).collect());
        let want = ChronoAllSat::new().enumerate(&p).minterm_count(6);
        for on in [false, true] {
            let mut tr = Tracer::new(on);
            let (result, counters, _) = call(&mut tr, &ParallelAllSat::new(JOBS), &p, 0);
            assert!(result.complete);
            assert_eq!(result.minterm_count(6), want);
            assert_eq!(counters.result_cubes, result.cubes.len() as u64);
            assert_eq!(tr.spans().len(), if on { 2 } else { 0 });
        }
    }

    #[test]
    fn problems_are_seeded_variants() {
        let a = problems(1);
        assert_eq!(a.len(), FORMULAS);
        assert_eq!(a[0].cnf.clauses(), problems(1)[0].cnf.clauses());
        assert_ne!(a[0].cnf.clauses(), problems(2)[0].cnf.clauses());
    }
}
