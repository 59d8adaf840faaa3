//! The four workloads and what they share: repeated set-up, the timed
//! round loop, the end-to-end metrics of a batch workload, and the small
//! probes the traced runs use.

use std::time::{Duration, Instant};

use presat_bdd::BddManager;
use presat_logic::{Cube, CubeSet};
use presat_obs::{Event, ObsSink};

use crate::metrics::Metrics;
use crate::reference::{self, Reference};
use crate::stats::{self, best_of_rounds, median};
use crate::sys;
use crate::trace::Span;

pub mod allsat_par;
pub mod daemon_mix;
pub mod preimage_step;
pub mod reach_deep;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["preimage-step", "reach-deep", "allsat-par", "daemon-mix"];

/// Times daemon-mix sets up before its phase; `setup_s` is the median.
const SETUP_REPEATS: usize = 21;

/// Times each input text is parsed for `parse.us_p50`.
const PARSE_REPEATS: usize = 5;

/// Times the result cubes are re-inserted for the replay metric.
const REPLAY_REPEATS: usize = 5;

/// How one run is asked to behave.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: u64,
    /// Record spans and report per-layer metrics.
    pub traced: bool,
}

/// What a workload run produced.
pub struct Outcome {
    /// The metrics of the run's catalogue.
    pub metrics: Metrics,
    /// `true` if every answer passed the correctness gate.
    pub correct: bool,
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed, were refused or came back incomplete.
    pub failed: u64,
    /// Sample counts behind the statistics, and on the batch workloads
    /// the reference kernel's best chunk time, for the header.
    pub samples: Vec<(String, f64)>,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
}

/// Runs workload `name`.
pub fn run(name: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    match name {
        "preimage-step" => preimage_step::run(cfg),
        "reach-deep" => reach_deep::run(cfg),
        "allsat-par" => allsat_par::run(cfg),
        "daemon-mix" => daemon_mix::run(cfg),
        other => Err(format!(
            "unknown workload {other:?} (valid: {})",
            NAMES.join(", ")
        )),
    }
}

/// Runs `setup` once and returns its CPU time in seconds with its result.
fn timed_setup<T>(setup: &mut impl FnMut() -> Result<T, String>) -> Result<(f64, T), String> {
    let start = sys::cpu_ms();
    let value = setup()?;
    Ok((sys::cpu_ms_since(start) / 1e3, value))
}

/// Runs `setup` [`SETUP_REPEATS`] times and returns the median wall-clock
/// time in seconds with the last result. Earlier results are dropped after
/// their timing ends. Daemon-mix times its set-up like its requests, as
/// its clients see it. In CPU time a start-up took 7 to 10 ms, the median
/// of 21 spread 0.20 to 0.27 of itself over ten runs, and the medians of
/// two sets of ten runs differed by 29 %.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(f64, T), String> {
    let (mut secs, mut last) = (Vec::with_capacity(SETUP_REPEATS), None);
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let value = setup()?;
        secs.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    last.map(|v| (median(&secs), v))
        .ok_or_else(|| "internal: set-up never ran".to_string())
}

/// A batch workload's run: `setup` once, then `round` on its result for
/// `seconds` ([`timed_rounds`]), timing one more `setup` after each round
/// and dropping what it made. Returns the median of all the set-ups, the
/// first set-up's result, the rounds, and the run's best reference chunk
/// in CPU milliseconds. Everything is in CPU time at the reference speed
/// ([`reference`]).
///
/// Every set-up is followed by [`reference::CHUNKS_PER_ROUND`] chunks of
/// the reference kernel (the first one preceded), and scaled by their best
/// chunk: the host slows in bursts of 1 to 10 s, and a burst that hits a
/// set-up hits the chunks next to it too. The rounds are scaled by the
/// best chunk of the whole run, because each entry of a round is already
/// its best over the rounds. Set-ups spread over the whole run leave a
/// burst a minority of them, where set-ups made back to back can all fall
/// into one.
pub fn setup_and_rounds<T>(
    seconds: u64,
    mut setup: impl FnMut() -> Result<T, String>,
    mut round: impl FnMut(&mut T, usize) -> Round,
) -> Result<(f64, T, Vec<Round>, f64), String> {
    let mut reference = Reference::new();
    let chunk_ms = reference.sample(reference::CHUNKS_PER_ROUND);
    let (first, mut state) = timed_setup(&mut setup)?;
    let mut secs = vec![first * reference::NOMINAL_MS / chunk_ms];
    let rounds = timed_rounds(seconds, |i| {
        let r = round(&mut state, i);
        let s = timed_setup(&mut setup)?.0;
        let chunk_ms = reference.sample(reference::CHUNKS_PER_ROUND);
        secs.push(s * reference::NOMINAL_MS / chunk_ms);
        Ok(r)
    })?;
    let scale = reference::NOMINAL_MS / reference.best_ms();
    Ok((
        median(&secs),
        state,
        rounds.into_iter().map(|r| r.scaled(scale)).collect(),
        reference.best_ms(),
    ))
}

/// The timings of one round. Every round of a batch workload runs the
/// same operations in the same order and times them in process CPU time
/// ([`sys::cpu_ms`]); daemon-mix fills rounds with wall-clock latencies.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// The round's parts, each a list of entries in milliseconds: one
    /// entry per call, or on reach-deep per step of a fixed point plus one
    /// for the rest of it. A part is the work of one engine
    /// (preimage-step) or one thread count (reach-deep); together the
    /// parts are the round.
    pub parts: Vec<Vec<f64>>,
    /// Time of every operation in the round, in milliseconds.
    pub op_ms: Vec<f64>,
}

impl Round {
    /// A round of one part whose entries are its operations.
    pub fn of_ops(op_ms: Vec<f64>) -> Self {
        Round {
            parts: vec![op_ms.clone()],
            op_ms,
        }
    }

    /// The round with every time multiplied by `factor`.
    fn scaled(self, factor: f64) -> Self {
        let scale = |v: Vec<f64>| v.into_iter().map(|ms| ms * factor).collect();
        Round {
            parts: self.parts.into_iter().map(scale).collect(),
            op_ms: scale(self.op_ms),
        }
    }
}

/// Runs `round` back to back for `seconds`: at least once, and then while
/// another round as long as the last one still ends within the time.
/// `round` gets the round index.
pub fn timed_rounds(
    seconds: u64,
    mut round: impl FnMut(usize) -> Result<Round, String>,
) -> Result<Vec<Round>, String> {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut rounds = Vec::new();
    let mut last = Duration::ZERO;
    while rounds.is_empty() || start.elapsed() + last <= budget {
        let t = Instant::now();
        rounds.push(round(rounds.len())?);
        last = t.elapsed();
    }
    Ok(rounds)
}

/// Seconds each part of a round takes: the sum of its entries' best
/// times over the rounds ([`best_of_rounds`]).
fn part_s(rounds: &[Round]) -> Vec<f64> {
    let n = rounds.iter().map(|r| r.parts.len()).min().unwrap_or(0);
    (0..n)
        .map(|p| {
            let entries: Vec<Vec<f64>> = rounds.iter().map(|r| r.parts[p].clone()).collect();
            best_of_rounds(&entries).iter().sum::<f64>() / 1e3
        })
        .collect()
}

/// Seconds one round takes: its parts' times, summed.
pub fn round_s(rounds: &[Round]) -> f64 {
    part_s(rounds).iter().sum()
}

/// What one round would take if every part were as slow as the slowest:
/// the number of parts times the slowest part's time. The parts are sized
/// to take about the same time, so a slowdown of one part alone moves
/// this by nearly its own size, where it moves [`round_s`] by its share.
pub fn round_worst_s(rounds: &[Round]) -> f64 {
    let parts = part_s(rounds);
    parts.len() as f64 * parts.iter().copied().fold(0.0, f64::max)
}

/// Each operation's best time over the rounds, in milliseconds.
pub fn best_ops(rounds: &[Round]) -> Vec<f64> {
    let ops: Vec<Vec<f64>> = rounds.iter().map(|r| r.op_ms.clone()).collect();
    best_of_rounds(&ops)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The end-to-end metrics of a batch workload; `rss_mb` is the peak
/// resident set read when the measured phase ended.
pub fn batch_end_to_end(
    m: &mut Metrics,
    samples: &mut Vec<(String, f64)>,
    setup_s: f64,
    rss_mb: f64,
    rounds: &[Round],
    result_cubes: u64,
) {
    let ops = best_ops(rounds);
    let tail = stats::tail(&ops);
    m.set("setup_s", setup_s);
    m.set("round_s", round_s(rounds));
    m.set("round_worst_s", round_worst_s(rounds));
    m.set("op_p50_ms", median(&ops));
    m.set("op_tail_ms", tail.value);
    m.set("peak_rss_mb", rss_mb);
    m.set("result_cubes", result_cubes as f64);
    samples.push(("rounds".into(), rounds.len() as f64));
    samples.push(("ops_per_round".into(), tail.samples as f64));
    samples.push(("op_tail_pct".into(), tail.pct));
}

/// Median time, in microseconds, to parse one of `texts` with `parse`.
pub fn parse_us_p50<T, E: std::fmt::Display>(
    texts: &[String],
    parse: impl Fn(&str) -> Result<T, E>,
) -> Result<f64, String> {
    let mut us = Vec::with_capacity(texts.len() * PARSE_REPEATS);
    for text in texts {
        for _ in 0..PARSE_REPEATS {
            let t = Instant::now();
            let parsed = parse(text).map_err(|e| format!("benchmark input does not parse: {e}"))?;
            us.push(t.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(parsed);
        }
    }
    Ok(median(&us))
}

/// Microseconds per insert when every result's cubes are inserted into a
/// fresh [`CubeSet`], the cube-store work of building each answer.
pub fn replay_us_per_insert(results: &[Vec<Cube>]) -> f64 {
    let inserts: usize = results.iter().map(Vec::len).sum();
    if inserts == 0 {
        return 0.0;
    }
    let mut per_insert = Vec::with_capacity(REPLAY_REPEATS);
    for _ in 0..REPLAY_REPEATS {
        let batches: Vec<Vec<Cube>> = results.to_vec();
        let t = Instant::now();
        for batch in batches {
            let mut set = CubeSet::new();
            for cube in batch {
                set.insert(cube);
            }
            std::hint::black_box(&set);
        }
        per_insert.push(t.elapsed().as_secs_f64() * 1e6 / inserts as f64);
    }
    median(&per_insert)
}

/// `true` if both cube sets denote the same set over `num_vars` variables
/// (canonical BDDs are node-identical).
pub fn same_set(a: &CubeSet, b: &CubeSet, num_vars: usize) -> bool {
    let mut m = BddManager::new(num_vars);
    let fa = m.from_cube_set(a);
    let fb = m.from_cube_set(b);
    fa == fb
}

/// An event sink that notes when the first solution arrives.
pub struct FirstCube {
    start: Instant,
    first: Option<f64>,
}

impl FirstCube {
    /// Starts the clock.
    pub fn start() -> Self {
        FirstCube {
            start: Instant::now(),
            first: None,
        }
    }

    /// Milliseconds from [`FirstCube::start`] to the first solution.
    pub fn ms(&self) -> Option<f64> {
        self.first
    }
}

impl ObsSink for FirstCube {
    fn record(&mut self, event: &Event) {
        if self.first.is_none() && matches!(event, Event::Solution { .. }) {
            self.first = Some(ms_since(self.start));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presat_logic::{Lit, Var};

    #[test]
    fn rounds_run_at_least_once_and_until_the_budget() {
        let mut calls = 0;
        let rounds = timed_rounds(0, |i| {
            calls += 1;
            Ok(Round::of_ops(vec![i as f64]))
        })
        .expect("rounds");
        assert_eq!((rounds.len(), calls), (1, 1));
    }

    #[test]
    fn round_time_sums_each_entrys_best() {
        let round = |entries: [f64; 2]| Round::of_ops(entries.to_vec());
        // A slow moment hits entry 0 in round 1 and entry 1 in round 2.
        let rounds = [
            round([100.0, 200.0]),
            round([900.0, 210.0]),
            round([110.0, 800.0]),
        ];
        assert!((round_s(&rounds) - 0.30).abs() < 1e-12);
        assert!((round_worst_s(&rounds) - 0.30).abs() < 1e-12, "one part");
        assert_eq!(round_s(&[]), 0.0);
        assert_eq!(round_worst_s(&[]), 0.0);
    }

    #[test]
    fn worst_round_scales_the_slowest_part() {
        let round = |a: f64, b: f64| Round {
            parts: vec![vec![a, a], vec![b]],
            op_ms: Vec::new(),
        };
        // Parts of 200 and 250 ms at best: 0.45 s a round, 2 × 0.25 s worst.
        let rounds = [round(100.0, 300.0), round(150.0, 250.0)];
        assert!((round_s(&rounds) - 0.45).abs() < 1e-12);
        assert!((round_worst_s(&rounds) - 0.50).abs() < 1e-12);
        // Two equal parts: doubling one moves the round by half and the
        // worst round by the whole slowdown.
        let even = [round(125.0, 250.0)];
        let doubled = [round(250.0, 250.0)];
        assert!((round_s(&doubled) / round_s(&even) - 1.5).abs() < 1e-12);
        assert!((round_worst_s(&doubled) / round_worst_s(&even) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn setups_follow_every_round_and_the_first_one_is_kept() {
        let mut made = 0;
        let (secs, first, rounds, reference_ms) = setup_and_rounds(
            0,
            || {
                made += 1;
                Ok(made)
            },
            |state: &mut usize, _| Round::of_ops(vec![*state as f64]),
        )
        .expect("run");
        assert_eq!((first, rounds.len()), (1, 1));
        assert_eq!(made, 2, "one set-up before the phase, one after its round");
        assert!(secs >= 0.0);
        // The round's 1 ms comes back at the reference speed.
        let scale = reference::NOMINAL_MS / reference_ms;
        assert!((rounds[0].op_ms[0] - scale).abs() < 1e-9);
        assert!((rounds[0].parts[0][0] - scale).abs() < 1e-9);
        let failing = setup_and_rounds(
            0,
            || Err::<(), _>("boom".to_string()),
            |_, _| Round::default(),
        );
        assert!(failing.is_err());
    }

    #[test]
    fn setup_reports_the_median_of_its_repeats() {
        let mut n = 0;
        let (secs, last) = repeated_setup(|| {
            n += 1;
            Ok(n)
        })
        .expect("setup");
        assert_eq!(last, SETUP_REPEATS);
        assert!(secs >= 0.0);
        assert!(repeated_setup(|| Err::<(), _>("boom".to_string())).is_err());
    }

    #[test]
    fn same_set_is_semantic() {
        let x = |v: usize, p: bool| Lit::with_phase(Var::new(v), p);
        let split: CubeSet = [
            Cube::from_lits([x(0, true), x(1, true)]).expect("cube"),
            Cube::from_lits([x(0, true), x(1, false)]).expect("cube"),
        ]
        .into_iter()
        .collect();
        let whole: CubeSet = [Cube::unit(x(0, true))].into_iter().collect();
        assert!(same_set(&split, &whole, 2));
        assert!(!same_set(&whole, &CubeSet::new(), 2));
        let cubes: Vec<Cube> = split.iter().cloned().collect();
        assert!(replay_us_per_insert(&[cubes]) > 0.0);
        assert_eq!(replay_us_per_insert(&[]), 0.0);
    }
}
