//! Resumable jobs: one accepted request turned into a sliceable state
//! machine.
//!
//! Every job exposes the same contract: [`Job::run_slice`] does at most one
//! budget quantum of work, streams any progress events (`cubes`,
//! `iteration`) through the connection's [`OutputHandle`], and either asks
//! to be re-queued ([`SliceOutcome::Continue`]) or emits its terminal
//! `done` event ([`SliceOutcome::Done`]). The scheduler interleaves slices
//! of many jobs round-robin, so a heavy tenant cannot starve a small one.
//!
//! There are three kinds of job. `solve` keeps its solver and learnt
//! clauses across slices. `allsat` and `preimage` are one kind: both
//! enumerate a formula with a sequential [`IncrementalAllSat`] under
//! dynamic keys — the request's formula, or the one-step
//! [`StepEncoding`] that `presat preimage` runs. `reach` steps a
//! [`ReachDriver`].
//!
//! # Why sliced results match the one-shot CLI bit-for-bit
//!
//! A slice that its quantum stops is resumed by running the same
//! enumeration again, adding no clause: every subspace the stopped run
//! finished sits in the success cache, and the clauses it learnt still
//! hold, so the re-run reaches the stop point through cache hits and goes
//! on from there (a `reach` frontier resumes the same way inside its
//! session, see [`ReachStep::Interrupted`]). Each kind accumulates its
//! verified solutions in a canonical [`SolutionGraph`] (a hash-consed
//! ROBDD over the projection positions) and streams only the cubes that
//! are new since the last slice. The cube set extracted at the end
//! depends only on the *set* represented — never on how the work was
//! sliced — so the union of slice results equals the sequential
//! enumeration, cube for cube.

use std::time::{Duration, Instant};

use presat_allsat::{
    Budget, CancelToken, EnumLimits, IncrementalAllSat, SolutionGraph, SolutionNodeId, StopReason,
    SuccessDrivenAllSat,
};
use presat_circuit::Circuit;
use presat_logic::{Cnf, CubeSet, Var};
use presat_obs::{AllSatCounters, NullSink, PreimageCounters, Stats, Timer};
use presat_preimage::{ReachDriver, ReachOptions, ReachStep, SatPreimage, StepEncoding};
use presat_sat::{BudgetPool, SolveResult, Solver};

use crate::output::OutputHandle;
use crate::protocol::{
    cubes_event, dimacs_cube, iteration_event, string_array, DoneEvent, Request, RequestLimits,
};

/// The engine name every enumeration and `reach` job reports.
const ENGINE: &str = "success-driven";

/// What a slice decided about the job's future.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SliceOutcome {
    /// More work remains — re-queue the job.
    Continue,
    /// The terminal `done` event was emitted; drop the job.
    Done,
}

/// The scheduler-facing summary of one slice.
#[derive(Clone, Copy, Debug)]
pub struct SliceReport {
    /// Re-queue or drop.
    pub outcome: SliceOutcome,
    /// Conflicts spent by this slice (already charged to the shared
    /// [`BudgetPool`], reported for accounting).
    pub conflicts_spent: u64,
    /// Live solver-arena bytes after the slice (`0` once done) — the
    /// admission-control gauge.
    pub arena_bytes: u64,
}

/// One admitted request, sliceable until done.
pub struct Job {
    id: String,
    session: String,
    conn: u64,
    out: OutputHandle,
    cancel: CancelToken,
    deadline: Option<Instant>,
    /// Conflicts the request may still spend (`None` = uncapped).
    remaining_conflicts: Option<u64>,
    /// Cumulative conflicts already charged to the pool.
    charged_conflicts: u64,
    /// Accumulated engine counters of a `solve` or enumeration job
    /// (`reach` reads its `ReachDriver`'s instead).
    counters: AllSatCounters,
    timer: Timer,
    finished: bool,
    kind: JobKind,
}

enum JobKind {
    Solve {
        solver: Box<Solver>,
        num_vars: usize,
        /// The model line, once a slice found the formula satisfiable.
        model: Option<String>,
    },
    Enumerate {
        inc: Box<IncrementalAllSat>,
        important: Vec<Var>,
        graph: SolutionGraph,
        accum: SolutionNodeId,
        max_solutions: Option<u64>,
        answer: Answer,
    },
    Reach {
        circuit: Circuit,
        driver: Box<ReachDriver>,
        emitted_rows: usize,
    },
}

/// Which request an enumeration job answers, which fixes how its cubes
/// and its `done` event read.
#[derive(Clone, Copy)]
enum Answer {
    /// `allsat`: DIMACS cube rows; the model count is `solutions`.
    Models,
    /// `preimage`: latch bit-string rows; the state count is `states`.
    States {
        /// Next-state cones the encoding's cone-of-influence reduction
        /// left out.
        cones_skipped: u64,
    },
}

impl Answer {
    fn rows(self, cubes: &CubeSet) -> Vec<String> {
        match self {
            Answer::Models => cubes.iter().map(dimacs_cube).collect(),
            Answer::States { .. } => cubes.iter().map(|c| c.to_string()).collect(),
        }
    }
}

/// How a slice of a job's engine ended.
enum Progress {
    /// A `reach` frontier completed and the fixed point goes on.
    Advanced,
    /// The engine stopped for this reason; a spent quantum re-queues the
    /// job while the request has budget left.
    Stopped(StopReason),
    /// The job is over: complete when the reason is `None`.
    Over(Option<StopReason>),
}

/// Saturating `u128 → u64` for JSON counters.
fn sat_u64(x: u128) -> u64 {
    u64::try_from(x).unwrap_or(u64::MAX)
}

/// The absolute deadline a request's `timeout_ms` implies, if any. Routed
/// through [`Budget::with_timeout`] so an absurd timeout means "no
/// deadline" rather than an `Instant` overflow panic.
fn deadline_from(limits: &RequestLimits) -> Option<Instant> {
    limits.timeout_ms.and_then(|ms| {
        Budget::unlimited()
            .with_timeout(Duration::from_millis(ms))
            .deadline
    })
}

impl JobKind {
    /// An enumeration of `cnf` projected onto `important`.
    fn enumerate(
        cnf: Cnf,
        important: Vec<Var>,
        max_solutions: Option<u64>,
        answer: Answer,
    ) -> JobKind {
        let graph = SolutionGraph::new(important.len());
        let inc = IncrementalAllSat::new(cnf, important.clone(), SuccessDrivenAllSat::new(), 1);
        JobKind::Enumerate {
            inc: Box::new(inc),
            important,
            graph,
            accum: SolutionNodeId::BOTTOM,
            max_solutions,
            answer,
        }
    }
}

impl Job {
    /// Builds the sliceable state machine for a job request. `Stats`,
    /// `Cancel`, and `Shutdown` are not jobs and are rejected here.
    pub fn new(request: Request, conn: u64, out: OutputHandle) -> Result<Job, String> {
        let cancel = CancelToken::new();
        let (id, session, limits, kind) = match request {
            Request::Solve {
                id,
                session,
                cnf,
                limits,
            } => {
                let num_vars = cnf.num_vars();
                let mut solver = Box::new(Solver::from_cnf(&cnf));
                solver.set_cancel(Some(cancel.clone()));
                let kind = JobKind::Solve {
                    solver,
                    num_vars,
                    model: None,
                };
                (id, session, limits, kind)
            }
            Request::AllSat {
                id,
                session,
                cnf,
                project,
                limits,
                max_solutions,
            } => {
                let important = Var::range(project).collect();
                let kind = JobKind::enumerate(cnf, important, max_solutions, Answer::Models);
                (id, session, limits, kind)
            }
            Request::Preimage {
                id,
                session,
                circuit,
                target,
                limits,
            } => {
                let enc = StepEncoding::build(&circuit, &target);
                let important = enc.state_vars();
                let answer = Answer::States {
                    cones_skipped: enc.cones_skipped(),
                };
                let kind = JobKind::enumerate(enc.into_cnf(), important, None, answer);
                (id, session, limits, kind)
            }
            Request::Reach {
                id,
                session,
                circuit,
                target,
                limits,
                max_iter,
            } => {
                let options = ReachOptions {
                    max_iterations: max_iter,
                    total_budget: Budget {
                        conflicts: limits.conflicts,
                        propagations: None,
                        deadline: deadline_from(&limits),
                    },
                    cancel: Some(cancel.clone()),
                    ..ReachOptions::default()
                };
                let engine = SatPreimage::success_driven();
                let driver = Box::new(ReachDriver::new(&engine, &circuit, &target, options));
                let kind = JobKind::Reach {
                    circuit,
                    driver,
                    emitted_rows: 0,
                };
                (id, session, limits, kind)
            }
            Request::Stats { .. } | Request::Cancel { .. } | Request::Shutdown { .. } => {
                return Err("internal: not a job op".into())
            }
        };
        let deadline = deadline_from(&limits);
        Ok(Job {
            id,
            session,
            conn,
            out,
            cancel,
            deadline,
            remaining_conflicts: limits.conflicts,
            charged_conflicts: 0,
            counters: AllSatCounters::default(),
            timer: Timer::start(),
            finished: false,
            kind,
        })
    }

    /// The request id this job answers.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The tenant session the job belongs to.
    pub fn session_name(&self) -> &str {
        &self.session
    }

    /// The connection the job arrived on (its events go there, and a
    /// disconnect cancels it).
    pub fn conn(&self) -> u64 {
        self.conn
    }

    /// The job's cancellation token (`cancel` requests and disconnects
    /// trip it).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// `true` once the terminal event has been emitted.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Live accumulated engine counters, for the `stats` endpoint. The
    /// `result_cubes` gauge is refreshed from the job's accumulator graph
    /// so a mid-run `stats` sees the result set grown so far, not just
    /// what the last engine call reported.
    pub fn counters(&self) -> PreimageCounters {
        let mut counters = match &self.kind {
            JobKind::Solve { .. } => PreimageCounters::from_allsat(self.counters),
            JobKind::Enumerate { answer, .. } => PreimageCounters {
                iterations: 1,
                wall_time_ns: self.timer.elapsed_ns(),
                cones_skipped: match answer {
                    Answer::Models => 0,
                    Answer::States { cones_skipped } => *cones_skipped,
                },
                ..PreimageCounters::from_allsat(self.counters)
            },
            JobKind::Reach { driver, .. } => *driver.stats(),
        };
        counters.result_cubes = counters.result_cubes.max(self.result_cubes());
        counters
    }

    /// Cubes in the result set this job has accumulated so far: one per
    /// ⊤-path of the canonical accumulator graph (exactly what the `done`
    /// event will extract), counted without materialising them. `0` for
    /// `solve`, which has no cube result.
    pub fn result_cubes(&self) -> u64 {
        match &self.kind {
            JobKind::Solve { .. } => 0,
            JobKind::Enumerate { graph, accum, .. } => graph.cube_count(*accum),
            JobKind::Reach { driver, .. } => driver.reached_cubes(),
        }
    }

    /// Live solver-arena bytes — what admission control sums per session.
    pub fn arena_bytes(&self) -> u64 {
        match &self.kind {
            JobKind::Solve { solver, .. } => solver.arena_bytes() as u64,
            JobKind::Enumerate { inc, .. } => inc.arena_bytes(),
            JobKind::Reach { driver, .. } => driver.arena_bytes(),
        }
    }

    fn cumulative_conflicts(&self) -> u64 {
        match &self.kind {
            JobKind::Reach { driver, .. } => driver.stats().allsat.sat.conflicts,
            _ => self.counters.sat.conflicts,
        }
    }

    /// Runs one quantum of work. Streams progress events; on the terminal
    /// slice also emits the `done` event. Conflicts spent are charged to
    /// `pool` (when present) before returning.
    pub fn run_slice(&mut self, quantum: u64, pool: Option<&BudgetPool>) -> SliceReport {
        if self.finished {
            return SliceReport {
                outcome: SliceOutcome::Done,
                conflicts_spent: 0,
                arena_bytes: 0,
            };
        }
        // Generic pre-slice stops: a drained shared pool, cooperative
        // cancellation, or an expired per-request deadline all terminate
        // the job with its sound partial result.
        let early = if let Some(reason) = pool.and_then(BudgetPool::exhausted) {
            Some(reason)
        } else if self.cancel.is_cancelled() {
            Some(StopReason::Cancelled)
        } else if self.deadline.is_some_and(|d| Instant::now() >= d) {
            Some(StopReason::Deadline)
        } else {
            None
        };
        let progress = match early {
            Some(reason) => Progress::Over(Some(reason)),
            None => self.advance(quantum),
        };
        let cum = self.cumulative_conflicts();
        let spent = cum.saturating_sub(self.charged_conflicts);
        self.charged_conflicts = cum;
        if let Some(r) = self.remaining_conflicts.as_mut() {
            *r = r.saturating_sub(spent);
        }
        if let Some(p) = pool {
            // A charge that trips the pool is picked up by every job's next
            // pre-slice check; nothing to do here.
            let _ = p.charge(spent, 0);
        }
        match progress {
            Progress::Advanced => {}
            // The quantum ran out, the request's budget did not: re-queue.
            Progress::Stopped(StopReason::Conflicts | StopReason::Propagations)
                if self.remaining_conflicts != Some(0) => {}
            Progress::Stopped(reason) => self.finish(Some(reason)),
            Progress::Over(stop) => self.finish(stop),
        }
        SliceReport {
            outcome: if self.finished {
                SliceOutcome::Done
            } else {
                SliceOutcome::Continue
            },
            conflicts_spent: spent,
            arena_bytes: if self.finished { 0 } else { self.arena_bytes() },
        }
    }

    /// Runs the job's engine for one quantum, never past what the request
    /// has left or its deadline, and streams what the slice found.
    fn advance(&mut self, quantum: u64) -> Progress {
        let request_remaining = Budget {
            conflicts: self.remaining_conflicts,
            propagations: None,
            deadline: self.deadline,
        };
        let slice = Budget::unlimited()
            .with_conflicts(quantum.max(1))
            .clipped_to(&request_remaining);
        let Job {
            id,
            out,
            cancel,
            counters,
            kind,
            ..
        } = self;
        match kind {
            JobKind::Solve {
                solver,
                num_vars,
                model,
            } => {
                // `reset_stats` makes the solver's counters a per-slice
                // delta; `set_budget` then installs a fresh quantum
                // against the zeroed baseline — the resume mechanism.
                solver.reset_stats();
                solver.set_budget(slice);
                let solved = solver.solve();
                counters.sat.absorb(solver.stats());
                match solved {
                    SolveResult::Sat(m) => {
                        let mut line = String::new();
                        for i in 0..*num_vars {
                            let value = m.value(Var::new(i)) == Some(true);
                            let v = i as i64 + 1;
                            line.push_str(&format!("{} ", if value { v } else { -v }));
                        }
                        line.push('0');
                        *model = Some(line);
                        Progress::Over(None)
                    }
                    SolveResult::Unsat => Progress::Over(None),
                    SolveResult::Unknown(reason) => Progress::Stopped(reason),
                }
            }
            JobKind::Enumerate {
                inc,
                important,
                graph,
                accum,
                max_solutions,
                answer,
            } => {
                // Solution caps count the whole job. The re-run counts the
                // solutions earlier slices found again, so it gets the
                // whole cap too.
                if max_solutions.is_some_and(|m| graph.minterm_count(*accum) >= u128::from(m)) {
                    return Progress::Over(Some(StopReason::MaxSolutions));
                }
                let limits = EnumLimits {
                    budget: slice,
                    cancel: Some(cancel.clone()),
                    max_solutions: *max_solutions,
                };
                let r = inc.enumerate_limited(&[], &limits, &mut NullSink);
                counters.absorb(&r.stats_with_store());
                // The run re-finds what earlier slices found: stream only
                // the cubes that are new.
                let node = graph.add_cube_set(&r.cubes, important);
                let new = graph.diff(node, *accum);
                *accum = graph.union(*accum, new);
                if new != SolutionNodeId::BOTTOM {
                    let rows = answer.rows(&graph.to_cube_set(new, important));
                    out.send_line(&cubes_event(id, rows));
                }
                match r.stop_reason {
                    None => Progress::Over(None),
                    Some(reason) => Progress::Stopped(reason),
                }
            }
            JobKind::Reach {
                circuit,
                driver,
                emitted_rows,
            } => {
                // The `ReachDriver` also holds the request's budget and
                // deadline. Its session answers every step, so the engine
                // passed in only has to equal the one it was built with.
                let engine = SatPreimage::success_driven();
                let step = driver.step(&engine, circuit, &slice, &mut NullSink);
                let rows = driver.iteration_rows();
                for row in &rows[*emitted_rows..] {
                    out.send_line(&iteration_event(
                        id,
                        row.iteration as u64,
                        sat_u64(row.new_states),
                        sat_u64(row.reached_states),
                    ));
                }
                *emitted_rows = rows.len();
                match step {
                    ReachStep::Advanced => Progress::Advanced,
                    ReachStep::Interrupted(reason) => Progress::Stopped(reason),
                    ReachStep::Done => Progress::Over(driver.stop_reason()),
                }
            }
        }
    }

    /// Emits the terminal `done` event — the answer so far, complete when
    /// `stop` is `None`, with the job's stats — and marks the job
    /// finished.
    fn finish(&mut self, stop: Option<StopReason>) {
        let complete = stop.is_none();
        let id = self.id.as_str();
        let (event, stats) = match &self.kind {
            JobKind::Solve { model, .. } => {
                let event = DoneEvent::new(id, "solve", complete, stop);
                let event = match (stop, model) {
                    (Some(_), _) => event.str_field("result", "unknown"),
                    (None, Some(model)) => {
                        event.str_field("result", "sat").str_field("model", model)
                    }
                    (None, None) => event.str_field("result", "unsat"),
                };
                (event, Stats::from_sat("cdcl", &self.counters.sat))
            }
            JobKind::Enumerate {
                important,
                graph,
                accum,
                answer,
                ..
            } => {
                // The canonical extraction: identical to what the one-shot
                // CLI run prints for the same solution set, however the
                // slices fell.
                let rows = answer.rows(&graph.to_cube_set(*accum, important));
                let num_cubes = rows.len() as u64;
                let count = sat_u64(graph.minterm_count(*accum));
                match answer {
                    Answer::Models => (
                        DoneEvent::new(id, "allsat", complete, stop)
                            .u64_field("num_cubes", num_cubes)
                            .u64_field("solutions", count)
                            .raw_field("cubes", &string_array(rows)),
                        Stats::from_allsat(ENGINE, &self.counters),
                    ),
                    Answer::States { .. } => (
                        DoneEvent::new(id, "preimage", complete, stop)
                            .u64_field("states", count)
                            .u64_field("num_cubes", num_cubes)
                            .raw_field("cubes", &string_array(rows)),
                        Stats::from_preimage(ENGINE, &self.counters()),
                    ),
                }
            }
            JobKind::Reach { driver, .. } => {
                let report = driver.report();
                let rows: Vec<String> = report
                    .reached
                    .cubes()
                    .iter()
                    .map(|c| c.to_string())
                    .collect();
                (
                    DoneEvent::new(id, "reach", complete, stop)
                        .bool_field("converged", report.converged)
                        .u64_field("iterations", report.iterations.len() as u64)
                        .u64_field("reached_states", sat_u64(report.reached_states))
                        .u64_field("num_cubes", rows.len() as u64)
                        .raw_field("cubes", &string_array(rows)),
                    Stats::from_preimage(ENGINE, &report.stats),
                )
            }
        };
        let mut stats = stats.with_stop(complete, stop);
        stats.wall_time_ns = self.timer.elapsed_ns();
        self.out
            .send_line(&event.raw_field("stats", &stats.to_json()).finish());
        self.finished = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::parse_request;
    use presat_obs::json::{extract_u64, Json};
    use presat_preimage::{parse_state_spec, PreimageEngine, StateSet};
    use std::io::Write;
    use std::sync::{Arc, Mutex};

    /// An `OutputHandle` whose lines can be read back by the test.
    fn capture() -> (OutputHandle, Arc<Mutex<Vec<u8>>>) {
        #[derive(Clone)]
        struct Sink(Arc<Mutex<Vec<u8>>>);
        impl Write for Sink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().expect("sink lock").extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Arc::new(Mutex::new(Vec::new()));
        (OutputHandle::new(Box::new(Sink(buf.clone()))), buf)
    }

    fn lines(buf: &Arc<Mutex<Vec<u8>>>) -> Vec<String> {
        String::from_utf8(buf.lock().expect("sink lock").clone())
            .expect("utf8 output")
            .lines()
            .map(str::to_string)
            .collect()
    }

    fn job_from(line: &str, out: OutputHandle) -> Job {
        let req = parse_request(line).expect("request parses");
        Job::new(req, 0, out).expect("job builds")
    }

    fn drive(job: &mut Job, quantum: u64) -> usize {
        let mut slices = 0;
        while job.run_slice(quantum, None).outcome == SliceOutcome::Continue {
            slices += 1;
            assert!(slices < 100_000, "job failed to terminate");
        }
        slices + 1
    }

    #[test]
    fn sliced_allsat_matches_the_one_shot_enumeration() {
        // x1 ∨ x2, projected onto both: one-shot enumeration of this set
        // prints exactly two canonical cubes.
        let cnf_text = "p cnf 3 2\n1 2 0\n-3 1 0\n";
        let (out, buf) = capture();
        let mut job = job_from(
            &format!(
                r#"{{"op":"allsat","id":"a","cnf":"{}","project":2}}"#,
                cnf_text.replace('\n', "\\n")
            ),
            out,
        );
        // One-conflict quanta force many resume slices.
        drive(&mut job, 1);
        let all = lines(&buf);
        let done = all.last().expect("a done event");
        assert!(done.contains(r#""event":"done""#), "{done}");
        assert!(done.contains(r#""complete":true"#), "{done}");

        // Reference: the sequential engine on the same problem.
        use presat_allsat::{AllSatEngine, AllSatProblem};
        let cnf = presat_logic::dimacs::parse(cnf_text).expect("cnf");
        let reference =
            SuccessDrivenAllSat::new().enumerate(&AllSatProblem::new(cnf, Var::range(2).collect()));
        let want: Vec<String> = reference.cubes.iter().map(dimacs_cube).collect();
        assert!(
            done.contains(&string_array(want.clone())),
            "done {done} should carry exactly {want:?}"
        );
    }

    #[test]
    fn sliced_solve_reports_sat_with_a_model() {
        let (out, buf) = capture();
        let mut job = job_from(
            r#"{"op":"solve","id":"s","cnf":"p cnf 2 2\n1 2 0\n-1 2 0\n"}"#,
            out,
        );
        drive(&mut job, 1);
        let all = lines(&buf);
        let done = all.last().expect("done");
        assert!(done.contains(r#""result":"sat""#), "{done}");
        assert!(done.contains(r#""model":"#), "{done}");
    }

    #[test]
    fn conflict_budget_stops_a_job_with_a_partial_result() {
        // A hard-ish pigeonhole-style UNSAT formula would be ideal; a
        // zero-conflict budget works on anything nontrivial.
        let (out, buf) = capture();
        let mut job = job_from(
            r#"{"op":"allsat","id":"b","cnf":"p cnf 2 1\n1 2 0\n","project":2,"conflict_budget":0}"#,
            out,
        );
        drive(&mut job, 10);
        let all = lines(&buf);
        let done = all.last().expect("done");
        // Either it finished inside zero conflicts (tiny formula) or it
        // reports a sound partial result with the conflicts stop reason.
        assert!(
            done.contains(r#""complete":true"#) || done.contains(r#""stop_reason":"conflicts""#),
            "{done}"
        );
    }

    #[test]
    fn cancelled_job_finishes_with_cancelled_reason() {
        let (out, buf) = capture();
        let mut job = job_from(
            r#"{"op":"reach","id":"r","circuit":"INPUT(a)\nOUTPUT(y)\ns0 = DFF(n0)\ns1 = DFF(n1)\nn0 = XOR(s0, a)\nn1 = XOR(s1, s0)\ny = AND(s0, s1)\n","target":"0b00"}"#,
            out,
        );
        job.cancel_token().cancel();
        let r = job.run_slice(100, None);
        assert_eq!(r.outcome, SliceOutcome::Done);
        let all = lines(&buf);
        let done = all.last().expect("done");
        assert!(done.contains(r#""stop_reason":"cancelled""#), "{done}");
        assert!(done.contains(r#""complete":false"#), "{done}");
    }

    #[test]
    fn sliced_reach_converges_and_reports_iterations() {
        let (out, buf) = capture();
        let mut job = job_from(
            r#"{"op":"reach","id":"r2","circuit":"INPUT(a)\nOUTPUT(y)\ns0 = DFF(n0)\ns1 = DFF(n1)\nn0 = NOT(s0)\nn1 = XOR(s1, s0)\ny = AND(s0, s1)\n","target":"0b00"}"#,
            out,
        );
        drive(&mut job, 1);
        let all = lines(&buf);
        let done = all.last().expect("done");
        assert!(done.contains(r#""converged":true"#), "{done}");
        assert!(done.contains(r#""complete":true"#), "{done}");
        // Iteration rows streamed before the done event.
        assert!(
            all.iter().any(|l| l.contains(r#""event":"iteration""#)),
            "{all:?}"
        );
    }

    /// A random 3-CNF over `n` variables with `m` clauses.
    fn random_3cnf(seed: u64, n: usize, m: usize) -> Cnf {
        use presat_logic::{rng::SplitMix64, Lit};
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut cnf = Cnf::new(n);
        for _ in 0..m {
            let clause: Vec<Lit> = (0..3)
                .map(|_| Lit::with_phase(Var::new(rng.gen_range(0..n)), rng.gen_bool(0.5)))
                .collect();
            cnf.add_clause(clause);
        }
        cnf
    }

    fn allsat_request(cnf: Cnf, project: usize, max_solutions: Option<u64>) -> Request {
        Request::AllSat {
            id: "a".into(),
            session: "s".into(),
            cnf,
            project,
            limits: RequestLimits::default(),
            max_solutions,
        }
    }

    /// daemon-mix's two light `preimage` circuits, each with its flag
    /// latch set as the target, and a random netlist whose preimage
    /// takes 57 conflicts, so that 1-conflict slices interrupt it.
    fn sliceable_preimages() -> Vec<(Circuit, StateSet)> {
        [
            (presat_circuit::generators::comparator(6), "6=1"),
            (presat_circuit::generators::parity(8), "8=1"),
            (
                presat_circuit::generators::random_dag(6, 10, 120, 1),
                "0=1,1=0",
            ),
        ]
        .into_iter()
        .map(|(c, spec)| {
            let target = parse_state_spec(spec, c.num_latches()).expect("spec parses");
            (c, target)
        })
        .collect()
    }

    fn preimage_request(circuit: Circuit, target: StateSet) -> Request {
        Request::Preimage {
            id: "p".into(),
            session: "s".into(),
            circuit,
            target,
            limits: RequestLimits::default(),
        }
    }

    fn reach_request(circuit: Circuit, target: StateSet, max_iter: Option<usize>) -> Request {
        Request::Reach {
            id: "r".into(),
            session: "s".into(),
            circuit,
            target,
            limits: RequestLimits::default(),
            max_iter,
        }
    }

    /// Drives `request` at `quantum` to its `done` event. Returns every
    /// line the job sent and the conflicts each slice spent.
    fn run_to_done(request: Request, quantum: u64) -> (Vec<String>, Vec<u64>) {
        let (out, buf) = capture();
        let mut job = Job::new(request, 0, out).expect("job builds");
        let mut spent = Vec::new();
        loop {
            assert!(spent.len() < 100_000, "job failed to terminate");
            let r = job.run_slice(quantum, None);
            spent.push(r.conflicts_spent);
            if r.outcome == SliceOutcome::Done {
                break;
            }
        }
        (lines(&buf), spent)
    }

    #[test]
    fn one_conflict_slices_spend_one_conflict_and_every_kind_finishes() {
        let mut requests: Vec<Request> = (1..=3)
            .map(|seed| allsat_request(random_3cnf(seed, 30, 84), 12, None))
            .collect();
        for (circuit, target) in sliceable_preimages() {
            requests.push(preimage_request(circuit, target));
        }
        let circuit = presat_circuit::generators::parity(6);
        let target = parse_state_spec("6=1", circuit.num_latches()).expect("spec parses");
        requests.push(reach_request(circuit, target, None));
        for request in requests {
            let op = request.op();
            let (all, spent) = run_to_done(request, 1);
            assert!(
                spent.iter().all(|&c| c <= 1),
                "{op}: slices spent {spent:?} conflicts at a quantum of 1"
            );
            let done = all.last().expect("a done event");
            assert!(done.contains(r#""event":"done""#), "{op}: {done}");
            assert!(done.contains(r#""complete":true"#), "{op}: {done}");
        }
    }

    /// Sliced enumeration adds no clause: the solver holds the formula's
    /// clauses plus at most one learnt clause per conflict.
    #[test]
    fn sliced_allsat_keeps_only_the_formula_and_its_learnt_clauses() {
        for seed in 1..=3 {
            let cnf = random_3cnf(seed, 30, 84);
            let clauses = cnf.num_clauses() as u64;
            let (all, spent) = run_to_done(allsat_request(cnf, 12, None), 1);
            let done = all.last().expect("a done event");
            assert!(done.contains(r#""complete":true"#), "{done}");
            let peak = extract_u64(done, "stats.allsat.db_clauses_peak").expect("peak gauge");
            let spent: u64 = spent.iter().sum();
            assert!(
                peak <= clauses + spent,
                "seed {seed}: {peak} clauses peak against {clauses} + {spent} conflicts"
            );
        }
    }

    /// A re-run finds again what earlier slices found; the `cubes` events
    /// carry each solution once.
    #[test]
    fn sliced_allsat_streams_each_solution_once() {
        for seed in 1..=3 {
            let (all, _) = run_to_done(allsat_request(random_3cnf(seed, 30, 84), 12, None), 1);
            let mut streamed = 0u64;
            for line in all.iter().filter(|l| l.contains(r#""event":"cubes""#)) {
                let event = Json::parse(line).expect("cubes event parses");
                let Some(Json::Arr(rows)) = event.get("cubes") else {
                    panic!("no cube rows in {line}");
                };
                for row in rows {
                    // A row lists its literals, then `0`.
                    let width = row.as_str().expect("row").split_whitespace().count() - 1;
                    streamed += 1 << (12 - width);
                }
            }
            let done = all.last().expect("a done event");
            assert_eq!(
                Some(streamed),
                extract_u64(done, "solutions"),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn preimage_jobs_answer_the_one_shot_preimage() {
        let quantum = crate::scheduler::Config::default().slice_conflicts;
        for (circuit, target) in sliceable_preimages() {
            let reference = SatPreimage::success_driven().preimage(&circuit, &target);
            let want: Vec<String> = reference
                .states
                .cubes()
                .iter()
                .map(|c| c.to_string())
                .collect();
            let states = reference.states.minterm_count(circuit.num_latches());
            for q in [1, quantum] {
                let request = preimage_request(circuit.clone(), target.clone());
                let (all, _) = run_to_done(request, q);
                let done = all.last().expect("a done event");
                assert!(done.contains(r#""complete":true"#), "{done}");
                assert_eq!(
                    extract_u64(done, "states").map(u128::from),
                    Some(states),
                    "{done}"
                );
                assert!(
                    done.contains(&format!("\"cubes\":{}", string_array(want.clone()))),
                    "{} at quantum {q}: {done} should carry exactly {want:?}",
                    circuit.name()
                );
            }
        }
    }

    #[test]
    fn max_solutions_caps_the_whole_sliced_job() {
        let quantum = crate::scheduler::Config::default().slice_conflicts;
        let cnf = random_3cnf(1, 30, 84);
        let (all, _) = run_to_done(allsat_request(cnf.clone(), 12, None), quantum);
        let total = extract_u64(all.last().expect("done"), "solutions").expect("solutions");
        let cap = total / 2;
        for q in [1, quantum] {
            let (all, _) = run_to_done(allsat_request(cnf.clone(), 12, Some(cap)), q);
            let done = all.last().expect("a done event");
            assert!(done.contains(r#""stop_reason":"max_solutions""#), "{done}");
            let found = extract_u64(done, "solutions").expect("solutions");
            assert!(
                (cap..total).contains(&found),
                "{found} of {total}, cap {cap}"
            );
        }
    }

    /// `max_iter` counts completed frontiers, however many slices each
    /// took: the sliced answer and its iteration rows are the one-shot
    /// run's.
    #[test]
    fn reach_iteration_cap_counts_frontiers_not_slices() {
        let quantum = crate::scheduler::Config::default().slice_conflicts;
        let circuit = presat_circuit::generators::parity(6);
        let target = parse_state_spec("6=1", circuit.num_latches()).expect("spec parses");
        let options = ReachOptions {
            max_iterations: Some(2),
            ..ReachOptions::default()
        };
        let one_shot = presat_preimage::backward_reach(
            &SatPreimage::success_driven(),
            &circuit,
            &target,
            options,
        );
        let want_cubes: Vec<String> = one_shot
            .reached
            .cubes()
            .iter()
            .map(|c| c.to_string())
            .collect();
        let want_rows: Vec<[u64; 3]> = one_shot
            .iterations
            .iter()
            .map(|row| {
                [
                    row.iteration as u64,
                    sat_u64(row.new_states),
                    sat_u64(row.reached_states),
                ]
            })
            .collect();
        for q in [1, quantum] {
            let request = reach_request(circuit.clone(), target.clone(), Some(2));
            let (all, _) = run_to_done(request, q);
            let rows: Vec<[u64; 3]> = all
                .iter()
                .filter(|l| l.contains(r#""event":"iteration""#))
                .map(|l| {
                    ["iteration", "new_states", "reached_states"]
                        .map(|k| extract_u64(l, k).expect("iteration field"))
                })
                .collect();
            assert_eq!(rows, want_rows, "rows at quantum {q}");
            let done = all.last().expect("a done event");
            assert!(done.contains(r#""complete":true"#), "{done}");
            assert_eq!(
                extract_u64(done, "reached_states").map(u128::from),
                Some(one_shot.reached_states),
                "{done}"
            );
            assert!(
                done.contains(&format!("\"cubes\":{}", string_array(want_cubes.clone()))),
                "quantum {q}: {done}"
            );
        }
    }
}
