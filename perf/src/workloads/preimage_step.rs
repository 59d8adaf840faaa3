//! `preimage-step`: one-step preimages with each of the four SAT engines.
//!
//! Every call encodes its step relation afresh, so the encoding, CDCL
//! search, lifting and success-cache layers do the work, while sessions
//! and inprocessing sit idle. A round runs every case through every
//! engine once and counts cheap engines' calls several times, so that
//! each engine takes a similar share of the round; each engine is a part
//! of the round, so a slowdown in any one of them moves `round_worst_s` by
//! nearly its own size.

use presat_allsat::{
    AllSatEngine, AllSatProblem, BlockingAllSat, ChronoAllSat, MinimizedBlockingAllSat,
    SuccessDrivenAllSat,
};
use presat_circuit::{bench, embedded, generators, Circuit};
use presat_obs::PreimageCounters;
use presat_preimage::{oracle, BddPreimage, PreimageEngine, SatPreimage, StateSet, StepEncoding};

use super::{
    batch_end_to_end, parse_us_p50, replay_us_per_insert, round_s, same_set, setup_and_rounds,
    FirstCube, Outcome, Round, RunConfig,
};
use crate::inputs::{base_stream, circuit_variant, full_cube, partial_cube, stream, LatchCube};
use crate::metrics::Metrics;
use crate::reference;
use crate::stats::{best_of_rounds, median, ratio, tail};
use crate::sys;
use crate::trace::{by_name, child_coverage, Tracer};

/// How many times a round counts a call of blocking, min-blocking, chrono
/// and success-driven, so that each engine takes about a quarter of it. A
/// round makes each call once: short rounds give every call more samples
/// for its best time than repeating the cheap engines' passes would.
const WEIGHTS: [usize; 4] = [1, 6, 3, 8];

/// Base seeds of the eight `random_dag(8, 12, 140, _)` circuits, chosen
/// from the first 60 so that none has an empty preimage and none takes
/// more than a tenth of an engine's pass.
const DAG_SEEDS: [u64; 8] = [0, 4, 6, 15, 31, 38, 55, 56];

/// Circuits up to this many inputs plus latches are checked against
/// exhaustive simulation; wider ones against the BDD engine.
const ORACLE_LIMIT: usize = 20;

#[derive(Clone, Copy, Debug)]
enum Kind {
    Blocking,
    MinBlocking,
    Chrono,
    SuccessDriven,
}

const KINDS: [Kind; 4] = [
    Kind::Blocking,
    Kind::MinBlocking,
    Kind::Chrono,
    Kind::SuccessDriven,
];

impl Kind {
    fn share_metric(self) -> &'static str {
        match self {
            Kind::Blocking => "step.blocking.share",
            Kind::MinBlocking => "step.min_blocking.share",
            Kind::Chrono => "step.chrono.share",
            Kind::SuccessDriven => "step.success_driven.share",
        }
    }

    fn preimage(self) -> SatPreimage {
        match self {
            Kind::Blocking => SatPreimage::blocking(),
            Kind::MinBlocking => SatPreimage::min_blocking(),
            Kind::Chrono => SatPreimage::chrono(),
            Kind::SuccessDriven => SatPreimage::success_driven(),
        }
    }

    /// The all-SAT engine [`SatPreimage`] runs for this kind.
    fn allsat(self) -> Box<dyn AllSatEngine> {
        match self {
            Kind::Blocking => Box::new(BlockingAllSat::new()),
            Kind::MinBlocking => Box::new(MinimizedBlockingAllSat::new()),
            Kind::Chrono => Box::new(ChronoAllSat::new()),
            Kind::SuccessDriven => Box::new(SuccessDrivenAllSat::new()),
        }
    }
}

/// One circuit with its target set.
pub struct Case {
    circuit: Circuit,
    target: StateSet,
}

/// The fixed base cases, each a circuit and a target cube.
fn bases() -> Result<Vec<(Circuit, LatchCube)>, String> {
    let mut rng = base_stream(1);
    let embedded_err = |e| format!("embedded netlist: {e}");
    let mut out = vec![
        // Parity latch 1: the odd-parity half of the data states, 2^10
        // minterms with no wider prime cubes.
        (
            generators::parity(11),
            full_cube(&mut rng, 12, &[(11, true)]),
        ),
        // Flag 1: every state with A != 0, which lifting collapses.
        (
            generators::comparator(9),
            full_cube(&mut rng, 10, &[(9, true)]),
        ),
        (
            generators::round_robin_arbiter(6),
            full_cube(&mut rng, 12, &[]),
        ),
        (generators::counter(16, true), full_cube(&mut rng, 16, &[])),
        (generators::lfsr(16), full_cube(&mut rng, 16, &[(0, true)])),
        (generators::fifo_controller(8), partial_cube(&mut rng, 8, 8)),
        (
            embedded::s27().map_err(embedded_err)?,
            partial_cube(&mut rng, 3, 2),
        ),
        (
            embedded::ctl2().map_err(embedded_err)?,
            partial_cube(&mut rng, 2, 1),
        ),
    ];
    for s in DAG_SEEDS {
        let target = partial_cube(&mut base_stream(100 + s), 12, 3);
        out.push((generators::random_dag(8, 12, 140, s), target));
    }
    Ok(out)
}

/// The cases of a run: a seeded variant of every base case.
pub fn cases(seed: u64) -> Result<Vec<Case>, String> {
    let mut rng = stream(seed, 1);
    Ok(bases()?
        .iter()
        .map(|(c, t)| {
            let circuit = circuit_variant(c, &mut rng);
            let target = StateSet::from_partial(t);
            Case { circuit, target }
        })
        .collect())
}

/// One preimage call's outcome.
struct Step {
    states: StateSet,
    stats: PreimageCounters,
    complete: bool,
    /// Traced runs only: enumerate time, time to the first cube, and the
    /// encoding's clause count.
    search_ms: f64,
    first_cube_ms: Option<f64>,
    clauses: usize,
}

/// One preimage call. Untraced, it is `SatPreimage::preimage`; traced, it
/// is split into the same public calls that method makes, each in a span.
fn step(tr: &mut Tracer, kind: Kind, engine: &dyn AllSatEngine, case: &Case, op: u64) -> Step {
    if !tr.on() {
        let r = kind.preimage().preimage(&case.circuit, &case.target);
        return Step {
            states: r.states,
            stats: r.stats,
            complete: r.complete,
            search_ms: 0.0,
            first_cube_ms: None,
            clauses: 0,
        };
    }
    tr.span("preimage.step", op, |tr| {
        let (problem, cones_skipped, clauses) = tr.span("preimage.encode", op, |_| {
            let enc = StepEncoding::build_with_env(&case.circuit, &case.target, None);
            let clauses = enc.cnf().num_clauses();
            let cones = enc.cones_skipped();
            let vars = enc.state_vars();
            (AllSatProblem::new(enc.into_cnf(), vars), cones, clauses)
        });
        let mut sink = FirstCube::start();
        let start = sys::cpu_ms();
        let result = tr.span("allsat.enumerate", op, |_| {
            engine.enumerate_with_sink(&problem, &mut sink)
        });
        let search_ms = sys::cpu_ms_since(start);
        let astats = result.stats_with_store();
        let result_cubes = result.cubes.len() as u64;
        Step {
            states: StateSet::from_cubes(result.cubes),
            stats: PreimageCounters {
                result_cubes,
                solver_calls: astats.solver_calls,
                blocking_clauses: astats.blocking_clauses,
                graph_nodes: astats.graph_nodes,
                cache_hits: astats.cache_hits,
                sat_conflicts: astats.sat_conflicts,
                iterations: 1,
                cones_skipped,
                allsat: astats,
                ..PreimageCounters::default()
            },
            complete: result.complete,
            search_ms,
            first_cube_ms: sink.ms(),
            clauses,
        }
    })
}

/// What one round measured besides its call times.
#[derive(Default)]
struct RoundData {
    engine_ms: [f64; 4],
    counters: PreimageCounters,
    search_ms: Vec<f64>,
    first_cube_ms: Vec<f64>,
}

/// The workload's state across rounds.
struct Bench {
    cases: Vec<Case>,
    engines: Vec<Box<dyn AllSatEngine>>,
    /// Answers of the first round, `[kind][case]`.
    answers: Vec<Vec<StateSet>>,
    result_cubes: u64,
    clauses: u64,
    attempted: u64,
    failed: u64,
    rounds: Vec<RoundData>,
}

impl Bench {
    fn new(cases: Vec<Case>) -> Self {
        Bench {
            cases,
            engines: KINDS.iter().map(|k| k.allsat()).collect(),
            answers: vec![Vec::new(); KINDS.len()],
            result_cubes: 0,
            clauses: 0,
            attempted: 0,
            failed: 0,
            rounds: Vec::new(),
        }
    }

    /// Runs every case through every engine once. Returns the CPU time of
    /// every call, once among the operations and, in its engine's part, as
    /// often as the engine's weight.
    fn round(&mut self, tr: &mut Tracer, index: usize) -> Round {
        let mut data = RoundData::default();
        let mut round = Round {
            parts: vec![Vec::new(); KINDS.len()],
            op_ms: Vec::new(),
        };
        for (k, &kind) in KINDS.iter().enumerate() {
            let weight = WEIGHTS[k];
            for case in &self.cases {
                let op = self.attempted;
                let start = sys::cpu_ms();
                let s = step(tr, kind, self.engines[k].as_ref(), case, op);
                let ms = sys::cpu_ms_since(start);
                round.op_ms.push(ms);
                round.parts[k].extend(std::iter::repeat_n(ms, weight));
                data.engine_ms[k] += ms * weight as f64;
                data.counters.absorb(&s.stats);
                data.search_ms.push(s.search_ms);
                data.first_cube_ms.extend(s.first_cube_ms);
                self.attempted += 1;
                self.failed += u64::from(!s.complete);
                if index == 0 {
                    self.result_cubes += s.stats.result_cubes;
                    self.clauses += s.clauses as u64;
                    self.answers[k].push(s.states);
                }
            }
        }
        self.rounds.push(data);
        round
    }

    /// Checks every first-round answer against exhaustive simulation or the
    /// BDD engine; traced runs also check that the split call returned
    /// exactly what `SatPreimage::preimage` returns.
    fn gate(&self, traced: bool) -> Result<(), String> {
        for (i, case) in self.cases.iter().enumerate() {
            let c = &case.circuit;
            let n = c.num_latches();
            let reference = if c.num_inputs() + n <= ORACLE_LIMIT {
                oracle::preimage(c, &case.target)
            } else {
                BddPreimage::substitution().preimage(c, &case.target).states
            };
            for (k, &kind) in KINDS.iter().enumerate() {
                let got = &self.answers[k][i];
                if !same_set(got.cubes(), reference.cubes(), n) {
                    return Err(format!("{kind:?} preimage of {} is wrong", c.name()));
                }
                if traced && kind.preimage().preimage(c, &case.target).states.cubes() != got.cubes()
                {
                    return Err(format!(
                        "{kind:?} on {}: the traced split differs from the direct call",
                        c.name()
                    ));
                }
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
            let work = Bench::new(cases(cfg.seed)?);
            // Warm-up: every engine once on a mid-sized random circuit.
            let warm = &work.cases[9];
            for kind in KINDS {
                std::hint::black_box(kind.preimage().preimage(&warm.circuit, &warm.target));
            }
            Ok(work)
        },
        |work, i| work.round(&mut tr, i),
    )?;
    let rss_mb = sys::peak_rss_mb()?;
    let correct = match work.gate(cfg.traced) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("preimage-step: {e}");
            false
        }
    };

    let mut m = Metrics::new(cfg.traced);
    let mut samples = vec![("reference_ms".to_string(), reference_ms)];
    if !cfg.traced {
        batch_end_to_end(
            &mut m,
            &mut samples,
            setup_s,
            rss_mb,
            &rounds,
            work.result_cubes,
        );
    } else {
        let spans = tr.spans();
        let layers = by_name(spans);
        let step_ns = layers.get("preimage.step").map_or(0, |l| l.total_ns) as f64;
        let self_ns = |name: &str| layers.get(name).map_or(0, |l| l.self_ns) as f64;
        m.set("trace.round_s", round_s(&rounds));
        m.set("trace.child_coverage", child_coverage(spans));
        m.set("encode.share", ratio(self_ns("preimage.encode"), step_ns));
        m.set("search.share", ratio(self_ns("allsat.enumerate"), step_ns));
        let search: Vec<Vec<f64>> = work.rounds.iter().map(|r| r.search_ms.clone()).collect();
        let scale = reference::NOMINAL_MS / reference_ms;
        let search: Vec<f64> = best_of_rounds(&search)
            .iter()
            .map(|ms| ms * scale)
            .collect();
        let search_tail = tail(&search);
        m.set("search.ms_p50", median(&search));
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
            .answers
            .iter()
            .flatten()
            .map(|s| s.cubes().iter().cloned().collect())
            .collect();
        m.set(
            "cubestore.replay_us_per_insert",
            replay_us_per_insert(&results),
        );
        m.set("encode.clauses", work.clauses as f64);
        for (k, kind) in KINDS.iter().enumerate() {
            let shares: Vec<f64> = work
                .rounds
                .iter()
                .map(|d| ratio(d.engine_ms[k], d.engine_ms.iter().sum()))
                .collect();
            m.set(kind.share_metric(), median(&shares));
        }
        let first_round = &work.rounds[0];
        m.set_counters(&first_round.counters);
        let props: Vec<f64> = work
            .rounds
            .iter()
            .map(|d| {
                ratio(
                    d.counters.allsat.sat.propagations as f64,
                    d.search_ms.iter().sum::<f64>() * scale,
                )
            })
            .collect();
        m.set("sat.props_per_ms", median(&props));
        samples.push(("rounds".into(), rounds.len() as f64));
        samples.push(("search_tail_pct".into(), search_tail.pct));
        samples.push(("first_cube_samples".into(), first.len() as f64));
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
    fn smoke_op_matches_the_oracle_traced_and_untraced() {
        let case = Case {
            circuit: generators::parity(4),
            target: StateSet::from_partial(&[(4, true)]),
        };
        let want = oracle::preimage(&case.circuit, &case.target);
        for on in [false, true] {
            let mut tr = Tracer::new(on);
            for kind in KINDS {
                let s = step(&mut tr, kind, kind.allsat().as_ref(), &case, 0);
                assert!(s.complete);
                assert!(
                    same_set(s.states.cubes(), want.cubes(), 5),
                    "{kind:?} traced={on}"
                );
                assert_eq!(s.stats.result_cubes, s.states.num_cubes() as u64);
            }
            if on {
                let spans = tr.take();
                assert_eq!(spans.len(), 12, "step, encode and enumerate per engine");
                assert!(child_coverage(&spans) > 0.0);
            }
        }
    }

    #[test]
    fn cases_are_seeded_and_complete() {
        let a = cases(1).expect("cases");
        let b = cases(1).expect("cases");
        let c = cases(2).expect("cases");
        let text =
            |cs: &[Case]| -> Vec<String> { cs.iter().map(|c| bench::write(&c.circuit)).collect() };
        assert_eq!(a.len(), 16);
        assert_eq!(text(&a), text(&b));
        assert_ne!(text(&a), text(&c));
        assert!(a.iter().zip(&c).all(|(x, y)| x.target == y.target));
    }
}
