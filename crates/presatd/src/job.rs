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
//! # Why sliced results match the one-shot CLI bit-for-bit
//!
//! Each kind accumulates its verified solutions in a canonical
//! [`SolutionGraph`] (a hash-consed ROBDD over the projection positions).
//! The cube set extracted at the end depends only on the *set* represented
//! — never on how the work was sliced — and between slices the found
//! solutions are blocked inside the persistent solver, so no slice repeats
//! another's work. A budget-stopped slice therefore composes: the union of
//! slice results equals the sequential enumeration, cube for cube.

use std::time::{Duration, Instant};

use presat_allsat::{
    Budget, CancelToken, EnumLimits, IncrementalAllSat, SolutionGraph, SolutionNodeId, StopReason,
    SuccessDrivenAllSat,
};
use presat_circuit::Circuit;
use presat_logic::Var;
use presat_obs::{NullSink, PreimageCounters, Stats, Timer};
use presat_preimage::{
    PreimageEngine, ReachDriver, ReachOptions, ReachStep, SatPreimage, SatPreimageSession, StateSet,
};
use presat_sat::{BudgetPool, SolveResult, Solver};

use crate::output::OutputHandle;
use crate::protocol::{
    cubes_event, dimacs_cube, iteration_event, string_array, DoneEvent, Request, RequestLimits,
};

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
    /// Conflicts the request may still spend (`None` = uncapped). `reach`
    /// tracks this inside its driver instead.
    remaining_conflicts: Option<u64>,
    /// Cumulative conflicts already charged to the pool.
    charged_conflicts: u64,
    /// Accumulated engine counters (reach reads its driver's instead).
    counters: PreimageCounters,
    /// Consecutive slices that ended incomplete without any new result.
    /// A preimage session retires its target activation group after every
    /// call — even a budget-stopped one — so a "no more predecessors"
    /// UNSAT proof restarts from scratch each slice; a quantum smaller
    /// than that proof would livelock. Each stall doubles the effective
    /// quantum ([`Job::run_slice`]) until the job moves again. `reach`
    /// jobs leave this at 0: their driver counts its own stalls and
    /// doubles the step budget itself.
    stalls: u32,
    timer: Timer,
    finished: bool,
    kind: JobKind,
}

enum JobKind {
    Solve {
        solver: Solver,
        num_vars: usize,
    },
    AllSat {
        inc: IncrementalAllSat,
        important: Vec<Var>,
        graph: SolutionGraph,
        accum: SolutionNodeId,
        max_solutions: Option<u64>,
    },
    Preimage {
        session: SatPreimageSession,
        target: StateSet,
        position_vars: Vec<Var>,
        graph: SolutionGraph,
        accum: SolutionNodeId,
    },
    Reach {
        engine: SatPreimage,
        circuit: Circuit,
        driver: Box<ReachDriver>,
        emitted_rows: usize,
    },
}

/// Saturating `u128 → u64` for JSON counters.
fn sat_u64(x: u128) -> u64 {
    u64::try_from(x).unwrap_or(u64::MAX)
}

/// The absolute deadline a request's `timeout_ms` implies, if any. Routed
/// through [`Budget::with_timeout`] so an absurd timeout means "no
/// deadline" rather than an `Instant` overflow panic.
fn deadline_from(limits: &RequestLimits) -> Option<Instant> {
    limits
        .timeout_ms
        .and_then(|ms| Budget::unlimited().with_timeout(Duration::from_millis(ms)).deadline)
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
                let mut solver = Solver::from_cnf(&cnf);
                solver.set_cancel(Some(cancel.clone()));
                (id, session, limits, JobKind::Solve { solver, num_vars })
            }
            Request::AllSat {
                id,
                session,
                cnf,
                project,
                limits,
                max_solutions,
            } => {
                let important: Vec<Var> = Var::range(project).collect();
                let inc = IncrementalAllSat::new(cnf, important.clone(), SuccessDrivenAllSat::new(), 1);
                (
                    id,
                    session,
                    limits,
                    JobKind::AllSat {
                        inc,
                        important,
                        graph: SolutionGraph::new(project),
                        accum: SolutionNodeId::BOTTOM,
                        max_solutions,
                    },
                )
            }
            Request::Preimage {
                id,
                session,
                circuit,
                target,
                limits,
            } => {
                let engine = SatPreimage::success_driven();
                let sess = engine
                    .open_session(&circuit)
                    .ok_or("engine offers no incremental session")?;
                let n = circuit.num_latches();
                (
                    id,
                    session,
                    limits,
                    JobKind::Preimage {
                        session: sess,
                        target,
                        position_vars: Var::range(n).collect(),
                        graph: SolutionGraph::new(n),
                        accum: SolutionNodeId::BOTTOM,
                    },
                )
            }
            Request::Reach {
                id,
                session,
                circuit,
                target,
                limits,
                max_iter,
            } => {
                let engine = SatPreimage::success_driven();
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
                let driver = Box::new(ReachDriver::new(&engine, &circuit, &target, options));
                (
                    id,
                    session,
                    limits,
                    JobKind::Reach {
                        engine,
                        circuit,
                        driver,
                        emitted_rows: 0,
                    },
                )
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
            counters: PreimageCounters::default(),
            stalls: 0,
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
            JobKind::Reach { driver, .. } => *driver.stats(),
            _ => self.counters,
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
            JobKind::AllSat { graph, accum, .. } | JobKind::Preimage { graph, accum, .. } => {
                graph.cube_count(*accum)
            }
            JobKind::Reach { driver, .. } => driver.reached_cubes(),
        }
    }

    /// Live solver-arena bytes — what admission control sums per session.
    pub fn arena_bytes(&self) -> u64 {
        match &self.kind {
            JobKind::Solve { solver, .. } => solver.arena_bytes() as u64,
            JobKind::AllSat { inc, .. } => inc.arena_bytes(),
            JobKind::Preimage { session, .. } => session.arena_bytes(),
            JobKind::Reach { driver, .. } => driver.arena_bytes(),
        }
    }

    fn cumulative_conflicts(&self) -> u64 {
        self.counters().allsat.sat.conflicts
    }

    /// Finishes early (pool exhausted / cancelled / deadline) with the
    /// partial result accumulated so far.
    fn finish_early(&mut self, reason: StopReason) {
        match &mut self.kind {
            JobKind::Solve { .. } => emit_done_solve(
                &self.out,
                &self.id,
                &self.timer,
                &self.counters,
                "unknown",
                None,
                false,
                Some(reason),
            ),
            JobKind::AllSat {
                graph,
                accum,
                important,
                ..
            } => emit_done_allsat(
                &self.out,
                &self.id,
                &self.timer,
                &self.counters,
                graph,
                *accum,
                important,
                false,
                Some(reason),
            ),
            JobKind::Preimage {
                graph,
                accum,
                position_vars,
                ..
            } => emit_done_preimage(
                &self.out,
                &self.id,
                &self.timer,
                &self.counters,
                graph,
                *accum,
                position_vars,
                false,
                Some(reason),
            ),
            JobKind::Reach { driver, .. } => emit_done_reach(
                &self.out,
                &self.id,
                &self.timer,
                driver,
                Some((false, Some(reason))),
            ),
        }
        self.finished = true;
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
        // Stall escalation: a job whose last slices went nowhere gets an
        // exponentially larger quantum, guaranteeing forward progress even
        // when one quantum is smaller than an indivisible proof.
        let boost = 1u64.checked_shl(self.stalls.min(32)).unwrap_or(u64::MAX);
        let quantum = quantum.max(1).saturating_mul(boost);
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
        if let Some(reason) = early {
            self.finish_early(reason);
        } else {
            self.run_slice_inner(quantum);
        }
        let cum = self.cumulative_conflicts();
        let spent = cum.saturating_sub(self.charged_conflicts);
        self.charged_conflicts = cum;
        if let Some(p) = pool {
            // A charge that trips the pool is picked up by every job's next
            // pre-slice check; nothing to do here.
            let _ = p.charge(spent, 0);
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

    fn run_slice_inner(&mut self, quantum: u64) {
        // One quantum, but never more than the request has left and never
        // past its deadline.
        let request_remaining = Budget {
            conflicts: self.remaining_conflicts,
            propagations: None,
            deadline: self.deadline,
        };
        let slice = Budget::unlimited()
            .with_conflicts(quantum)
            .clipped_to(&request_remaining);
        let Job {
            id,
            out,
            cancel,
            remaining_conflicts,
            counters,
            stalls,
            timer,
            finished,
            kind,
            ..
        } = self;
        match kind {
            JobKind::Solve { solver, num_vars } => {
                // `reset_stats` makes the solver's counters a per-slice
                // delta; `set_budget` then installs a fresh quantum
                // against the zeroed baseline — the resume mechanism.
                solver.reset_stats();
                solver.set_budget(slice);
                let solved = solver.solve();
                let delta = *solver.stats();
                counters.allsat.sat.absorb(&delta);
                if let Some(r) = remaining_conflicts.as_mut() {
                    *r = r.saturating_sub(delta.conflicts);
                }
                match solved {
                    SolveResult::Sat(model) => {
                        let mut line = String::new();
                        for i in 0..*num_vars {
                            let value = model.value(Var::new(i)) == Some(true);
                            let v = i as i64 + 1;
                            line.push_str(&format!("{} ", if value { v } else { -v }));
                        }
                        line.push('0');
                        emit_done_solve(out, id, timer, counters, "sat", Some(&line), true, None);
                        *finished = true;
                    }
                    SolveResult::Unsat => {
                        emit_done_solve(out, id, timer, counters, "unsat", None, true, None);
                        *finished = true;
                    }
                    SolveResult::Unknown(reason) => {
                        let out_of_conflicts = matches!(
                            reason,
                            StopReason::Conflicts | StopReason::Propagations
                        );
                        if out_of_conflicts && *remaining_conflicts != Some(0) {
                            // The quantum tripped, not the request budget:
                            // stay queued and resume next slice.
                        } else {
                            emit_done_solve(
                                out,
                                id,
                                timer,
                                counters,
                                "unknown",
                                None,
                                false,
                                Some(reason),
                            );
                            *finished = true;
                        }
                    }
                }
            }
            JobKind::AllSat {
                inc,
                important,
                graph,
                accum,
                max_solutions,
            } => {
                // Solution caps count the whole job, not the slice: hand
                // the engine only what the request still allows.
                let found = graph.minterm_count(*accum);
                let remaining_solutions =
                    max_solutions.map(|m| m.saturating_sub(sat_u64(found)));
                if remaining_solutions == Some(0) {
                    emit_done_allsat(
                        out,
                        id,
                        timer,
                        counters,
                        graph,
                        *accum,
                        important,
                        false,
                        Some(StopReason::MaxSolutions),
                    );
                    *finished = true;
                    return;
                }
                let limits = EnumLimits {
                    budget: slice,
                    cancel: Some(cancel.clone()),
                    max_solutions: remaining_solutions,
                };
                let r = inc.enumerate_limited(&[], &limits, &mut NullSink);
                *stalls = if r.complete || !r.cubes.is_empty() {
                    0
                } else {
                    stalls.saturating_add(1)
                };
                counters.allsat.absorb(&r.stats);
                if let Some(rc) = remaining_conflicts.as_mut() {
                    *rc = rc.saturating_sub(r.stats.sat.conflicts);
                }
                let node = graph.add_cube_set(&r.cubes, important);
                *accum = graph.union(*accum, node);
                if !r.cubes.is_empty() {
                    let rows: Vec<String> = r.cubes.iter().map(dimacs_cube).collect();
                    out.send_line(&cubes_event(id, rows));
                }
                if r.complete {
                    emit_done_allsat(
                        out, id, timer, counters, graph, *accum, important, true, None,
                    );
                    *finished = true;
                    return;
                }
                // Block this slice's cubes permanently so the next slice
                // resumes where this one stopped instead of re-finding
                // them (truncated runs never poison the cache, so the
                // persistent enumerator stays sound).
                for cube in &r.cubes {
                    let blocking: Vec<_> = cube.lits().iter().map(|&l| !l).collect();
                    inc.add_clause(blocking);
                }
                match r.stop_reason {
                    Some(StopReason::Conflicts | StopReason::Propagations)
                        if *remaining_conflicts != Some(0) =>
                    {
                        // Quantum exhausted, request budget not: re-queue.
                    }
                    Some(reason) => {
                        emit_done_allsat(
                            out,
                            id,
                            timer,
                            counters,
                            graph,
                            *accum,
                            important,
                            false,
                            Some(reason),
                        );
                        *finished = true;
                    }
                    None => {}
                }
            }
            JobKind::Preimage {
                session,
                target,
                position_vars,
                graph,
                accum,
            } => {
                let limits = EnumLimits {
                    budget: slice,
                    cancel: Some(cancel.clone()),
                    max_solutions: None,
                };
                let pre = session.preimage_limited(target, &limits, &mut NullSink);
                *stalls = if pre.complete || pre.states.num_cubes() > 0 {
                    0
                } else {
                    stalls.saturating_add(1)
                };
                counters.absorb(&pre.stats);
                if let Some(rc) = remaining_conflicts.as_mut() {
                    *rc = rc.saturating_sub(pre.stats.allsat.sat.conflicts);
                }
                // Block what this slice verified so the next slice
                // enumerates only Pre(target) ∖ (already found); the union
                // across slices is exactly Pre(target).
                session.block_states(&pre.states);
                let node = graph.add_cube_set(pre.states.cubes(), position_vars);
                *accum = graph.union(*accum, node);
                if pre.states.num_cubes() > 0 {
                    let rows: Vec<String> =
                        pre.states.cubes().iter().map(|c| c.to_string()).collect();
                    out.send_line(&cubes_event(id, rows));
                }
                if pre.complete {
                    emit_done_preimage(
                        out, id, timer, counters, graph, *accum, position_vars, true, None,
                    );
                    *finished = true;
                    return;
                }
                match pre.stop_reason {
                    Some(StopReason::Conflicts | StopReason::Propagations)
                        if *remaining_conflicts != Some(0) => {}
                    Some(reason) => {
                        emit_done_preimage(
                            out,
                            id,
                            timer,
                            counters,
                            graph,
                            *accum,
                            position_vars,
                            false,
                            Some(reason),
                        );
                        *finished = true;
                    }
                    None => {}
                }
            }
            JobKind::Reach {
                engine,
                circuit,
                driver,
                emitted_rows,
            } => {
                // The driver owns the request's total budget and deadline;
                // the slice only caps this step's quantum.
                let slice_b = Budget::unlimited().with_conflicts(quantum);
                let step = driver.step(&*engine, circuit, &slice_b, &mut NullSink);
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
                    ReachStep::Advanced => {}
                    // Mid-frontier counter stops resume on the next slice;
                    // the driver itself turns a spent total budget into
                    // `Done` on that next step.
                    ReachStep::Interrupted(
                        StopReason::Conflicts | StopReason::Propagations,
                    ) => {}
                    ReachStep::Interrupted(_) | ReachStep::Done => {
                        emit_done_reach(out, id, timer, driver, None);
                        *finished = true;
                    }
                }
            }
        }
    }
}

fn stats_field(mut stats: Stats, timer: &Timer, complete: bool, stop: Option<StopReason>) -> String {
    stats.wall_time_ns = timer.elapsed_ns();
    stats.with_stop(complete, stop).to_json()
}

#[allow(clippy::too_many_arguments)]
fn emit_done_solve(
    out: &OutputHandle,
    id: &str,
    timer: &Timer,
    counters: &PreimageCounters,
    result: &str,
    model: Option<&str>,
    complete: bool,
    stop: Option<StopReason>,
) {
    let mut ev = DoneEvent::new(id, "solve", complete, stop).str_field("result", result);
    if let Some(m) = model {
        ev = ev.str_field("model", m);
    }
    let stats = Stats::from_sat("cdcl", &counters.allsat.sat);
    out.send_line(
        &ev.raw_field("stats", &stats_field(stats, timer, complete, stop))
            .finish(),
    );
}

#[allow(clippy::too_many_arguments)]
fn emit_done_allsat(
    out: &OutputHandle,
    id: &str,
    timer: &Timer,
    counters: &PreimageCounters,
    graph: &SolutionGraph,
    accum: SolutionNodeId,
    important: &[Var],
    complete: bool,
    stop: Option<StopReason>,
) {
    // The canonical extraction: identical to what the one-shot CLI run
    // prints for the same solution set, however the slices fell.
    let cube_set = graph.to_cube_set(accum, important);
    let rows: Vec<String> = cube_set.iter().map(dimacs_cube).collect();
    let ev = DoneEvent::new(id, "allsat", complete, stop)
        .u64_field("num_cubes", rows.len() as u64)
        .u64_field("solutions", sat_u64(graph.minterm_count(accum)))
        .raw_field("cubes", &string_array(rows));
    let stats = Stats::from_allsat("success-driven", &counters.allsat);
    out.send_line(
        &ev.raw_field("stats", &stats_field(stats, timer, complete, stop))
            .finish(),
    );
}

#[allow(clippy::too_many_arguments)]
fn emit_done_preimage(
    out: &OutputHandle,
    id: &str,
    timer: &Timer,
    counters: &PreimageCounters,
    graph: &SolutionGraph,
    accum: SolutionNodeId,
    position_vars: &[Var],
    complete: bool,
    stop: Option<StopReason>,
) {
    let cube_set = graph.to_cube_set(accum, position_vars);
    let rows: Vec<String> = cube_set.iter().map(|c| c.to_string()).collect();
    let ev = DoneEvent::new(id, "preimage", complete, stop)
        .u64_field("states", sat_u64(graph.minterm_count(accum)))
        .u64_field("num_cubes", rows.len() as u64)
        .raw_field("cubes", &string_array(rows));
    let stats = Stats::from_preimage("success-driven", counters);
    out.send_line(
        &ev.raw_field("stats", &stats_field(stats, timer, complete, stop))
            .finish(),
    );
}

fn emit_done_reach(
    out: &OutputHandle,
    id: &str,
    timer: &Timer,
    driver: &ReachDriver,
    forced: Option<(bool, Option<StopReason>)>,
) {
    let report = driver.report();
    let (complete, stop) = forced.unwrap_or((report.complete, report.stop_reason));
    let rows: Vec<String> = report.reached.cubes().iter().map(|c| c.to_string()).collect();
    let ev = DoneEvent::new(id, "reach", complete, stop)
        .bool_field("converged", report.converged)
        .u64_field("iterations", report.iterations.len() as u64)
        .u64_field("reached_states", sat_u64(report.reached_states))
        .u64_field("num_cubes", rows.len() as u64)
        .raw_field("cubes", &string_array(rows));
    let stats = Stats::from_preimage("success-driven", &report.stats);
    out.send_line(
        &ev.raw_field("stats", &stats_field(stats, timer, complete, stop))
            .finish(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::parse_request;
    use presat_obs::json::extract_u64;
    use presat_preimage::parse_state_spec;
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
        let reference = SuccessDrivenAllSat::new()
            .enumerate(&AllSatProblem::new(cnf, Var::range(2).collect()));
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

    /// A stalled reach slice (interrupted, no new state) doubles the next
    /// slice's conflict allowance once: the driver counts the stalls, and
    /// the job must not boost the quantum a second time.
    #[test]
    fn stalled_reach_slices_double_the_quantum_once() {
        let circuit = presat_circuit::generators::parity(6);
        let target = parse_state_spec("6=1", circuit.num_latches()).expect("spec parses");
        let (out, buf) = capture();
        let request = Request::Reach {
            id: "p".into(),
            session: "s".into(),
            circuit,
            target,
            limits: RequestLimits::default(),
            max_iter: None,
        };
        let mut job = Job::new(request, 0, out).expect("job builds");
        let mut stalls = 0u32;
        let mut seen = 0;
        for slice in 0.. {
            assert!(slice < 100_000, "job failed to terminate");
            let r = job.run_slice(1, None);
            assert!(
                r.conflicts_spent <= 1 << stalls,
                "slice {slice} spent {} conflicts after {stalls} stalled slices",
                r.conflicts_spent
            );
            if r.outcome == SliceOutcome::Done {
                break;
            }
            let all = lines(&buf);
            let progressed = all[seen..]
                .iter()
                .any(|l| extract_u64(l, "new_states").is_some_and(|n| n > 0));
            seen = all.len();
            stalls = if progressed { 0 } else { stalls + 1 };
        }
    }
}
