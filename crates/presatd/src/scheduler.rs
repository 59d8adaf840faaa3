//! The multi-tenant slice scheduler: a hand-rolled worker pool that
//! round-robins budgeted quanta across every live job.
//!
//! Jobs never hold a worker for longer than one slice
//! ([`crate::job::Job::run_slice`]): a job whose slice ends with work left
//! goes to the back of the ready queue, so a heavy tenant's `reach` shares
//! the pool fairly with a small tenant's `allsat` — the small job finishes
//! while the heavy one is still slicing. Per-request deadlines and
//! cancellation stop individual jobs; a shared [`BudgetPool`] (from
//! `--global-conflict-budget`) bounds the whole fleet's conflict spend; and
//! admission control refuses *new sessions* once the summed live
//! solver-arena bytes cross `--max-arena-bytes`.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use presat_allsat::{effective_jobs, Budget, CancelToken};
use presat_obs::{JsonObject, PreimageCounters, Stats};
use presat_sat::BudgetPool;

use crate::job::{Job, SliceOutcome};
use crate::output::OutputHandle;
use crate::protocol::{accepted_event, error_event, ok_event, Request};

/// Daemon-wide scheduling knobs (CLI flags of `presatd`).
#[derive(Clone, Debug)]
pub struct Config {
    /// Worker threads (`0` = auto-detect).
    pub jobs: usize,
    /// Conflict quantum per slice — the fairness granularity.
    pub slice_conflicts: u64,
    /// Admission ceiling: reject new sessions once the summed live
    /// solver-arena bytes reach this (`None` = no ceiling).
    pub max_arena_bytes: Option<u64>,
    /// Fleet-wide conflict pot shared by every job (`None` = unlimited).
    pub global_conflict_budget: Option<u64>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            jobs: 0,
            slice_conflicts: 20_000,
            max_arena_bytes: None,
            global_conflict_budget: None,
        }
    }
}

/// Book-keeping for one live (queued or checked-out) job.
struct LiveJob {
    session: String,
    conn: u64,
    request_id: String,
    cancel: CancelToken,
    /// Last observed solver-arena bytes (admission gauge).
    arena_bytes: u64,
    /// Last observed cumulative counters (stats while checked out).
    counters: PreimageCounters,
}

#[derive(Default)]
struct SessionInfo {
    /// Counters of this session's *completed* jobs; live jobs are added on
    /// top at stats time.
    base: PreimageCounters,
}

#[derive(Default)]
struct State {
    /// Ready queue of job keys, round-robin order.
    queue: VecDeque<u64>,
    /// Job slots; `None` while a worker has the job checked out.
    slots: HashMap<u64, Option<Job>>,
    /// Live-job book-keeping (survives checkout).
    live: HashMap<u64, LiveJob>,
    /// `(conn, request id) → key` for `cancel`.
    index: HashMap<(u64, String), u64>,
    /// Every session ever seen, with completed-job counters.
    sessions: BTreeMap<String, SessionInfo>,
    next_key: u64,
    shutdown: bool,
}

struct Shared {
    config: Config,
    pool: Option<BudgetPool>,
    state: Mutex<State>,
    /// Signaled when the ready queue grows or shutdown begins.
    work: Condvar,
    /// Signaled when a job completes (drain waits here).
    idle: Condvar,
}

/// Recover from a poisoned lock instead of cascading panics across the
/// worker pool — the protected state is kept consistent by construction.
fn lock(shared: &Shared) -> MutexGuard<'_, State> {
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The scheduler handle: submit requests, cancel, drain, shut down.
pub struct Scheduler {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Scheduler {
    /// Starts the worker pool.
    pub fn new(config: Config) -> Scheduler {
        let pool = config
            .global_conflict_budget
            .and_then(|n| BudgetPool::from_budget(&Budget::unlimited().with_conflicts(n)));
        let workers = effective_jobs(config.jobs);
        let shared = Arc::new(Shared {
            config,
            pool,
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            idle: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("presatd-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn scheduler worker")
            })
            .collect();
        Scheduler {
            shared,
            workers: handles,
        }
    }

    /// Handles one parsed request from connection `conn`, emitting every
    /// response event on `out`. Job ops are admitted (or rejected) and
    /// queued; `stats`/`cancel`/`shutdown` are answered inline.
    pub fn submit(&self, request: Request, conn: u64, out: &OutputHandle) {
        match request {
            Request::Stats { id } => out.send_line(&self.stats_event(&id)),
            Request::Cancel { id, job } => {
                let st = lock(&self.shared);
                match st.index.get(&(conn, job.clone())) {
                    Some(key) => {
                        if let Some(live) = st.live.get(key) {
                            live.cancel.cancel();
                        }
                        drop(st);
                        out.send_line(&ok_event(&id, "cancel"));
                    }
                    None => {
                        drop(st);
                        out.send_line(&error_event(
                            &id,
                            &format!("cancel: no running job {job:?} on this connection"),
                        ));
                    }
                }
            }
            Request::Shutdown { id } => {
                out.send_line(&ok_event(&id, "shutdown"));
                self.begin_shutdown();
            }
            job_request => self.submit_job(job_request, conn, out),
        }
    }

    fn submit_job(&self, request: Request, conn: u64, out: &OutputHandle) {
        let id = request.id().to_string();
        let op = request.op();
        // Admission control, before the (possibly expensive) job build: a
        // *new* session is refused while the live fleet already holds too
        // much solver arena. Existing sessions may keep submitting — their
        // footprint is already accounted.
        {
            let st = lock(&self.shared);
            if st.shutdown {
                out.send_line(&error_event(&id, "daemon is shutting down"));
                return;
            }
            if let Some(ceiling) = self.shared.config.max_arena_bytes {
                let session = match &request {
                    Request::Solve { session, .. }
                    | Request::AllSat { session, .. }
                    | Request::Preimage { session, .. }
                    | Request::Reach { session, .. } => session.as_str(),
                    _ => "default",
                };
                let is_new = !st.sessions.contains_key(session);
                let live_total: u64 = st.live.values().map(|l| l.arena_bytes).sum();
                if is_new && live_total >= ceiling {
                    out.send_line(&error_event(
                        &id,
                        &format!(
                            "admission rejected: new session {session:?} refused while \
                             {live_total} live arena bytes \u{2265} --max-arena-bytes {ceiling}; \
                             retry when capacity frees or submit under an existing session"
                        ),
                    ));
                    return;
                }
            }
        }
        let job = match Job::new(request, conn, out.clone()) {
            Ok(job) => job,
            Err(e) => {
                out.send_line(&error_event(&id, &e));
                return;
            }
        };
        out.send_line(&accepted_event(&id, op, job.session_name()));
        let mut st = lock(&self.shared);
        let key = st.next_key;
        st.next_key += 1;
        st.sessions
            .entry(job.session_name().to_string())
            .or_default();
        st.live.insert(
            key,
            LiveJob {
                session: job.session_name().to_string(),
                conn,
                request_id: job.id().to_string(),
                cancel: job.cancel_token(),
                arena_bytes: job.arena_bytes(),
                counters: job.counters(),
            },
        );
        st.index.insert((conn, id), key);
        st.slots.insert(key, Some(job));
        st.queue.push_back(key);
        drop(st);
        self.shared.work.notify_one();
    }

    /// The `stats` answer: one event carrying a per-session snapshot array
    /// (completed jobs' counters plus every live job's current counters).
    fn stats_event(&self, id: &str) -> String {
        let st = lock(&self.shared);
        let mut rows: Vec<String> = Vec::new();
        for (name, info) in &st.sessions {
            let mut counters = info.base;
            let mut live_jobs = 0u64;
            for live in st.live.values() {
                if live.session == *name {
                    counters.absorb(&live.counters);
                    live_jobs += 1;
                }
            }
            let snapshot = Stats::from_preimage("presatd", &counters).to_json_named(name);
            // Splice the live-job count and the session's accumulated
            // result-set size into the per-session row. `result_cubes` is
            // the gauge refreshed from each live job's accumulator graph,
            // so it grows while a sliced job is still running.
            let mut row = JsonObject::new();
            row.field_raw("snapshot", &snapshot)
                .field_u64("live_jobs", live_jobs)
                .field_u64("result_cubes", counters.result_cubes);
            rows.push(row.finish());
        }
        drop(st);
        let mut o = JsonObject::new();
        o.field_str("id", id)
            .field_str("event", "stats")
            .field_raw("sessions", &format!("[{}]", rows.join(",")));
        o.finish()
    }

    /// Cancels every live job belonging to `conn` (its client went away).
    pub fn disconnect(&self, conn: u64) {
        let st = lock(&self.shared);
        for live in st.live.values() {
            if live.conn == conn {
                live.cancel.cancel();
            }
        }
    }

    /// `true` once `shutdown` has been requested.
    pub fn is_shutdown(&self) -> bool {
        lock(&self.shared).shutdown
    }

    /// Blocks until no live jobs remain (queued or checked out).
    pub fn drain(&self) {
        let mut st = lock(&self.shared);
        while !st.live.is_empty() {
            st = self
                .shared
                .idle
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Starts shutdown: stop admitting, cancel everything, wake workers.
    pub fn begin_shutdown(&self) {
        let st = lock(&self.shared);
        if st.shutdown {
            return;
        }
        let mut st = st;
        st.shutdown = true;
        for live in st.live.values() {
            live.cancel.cancel();
        }
        drop(st);
        self.shared.work.notify_all();
        self.shared.idle.notify_all();
    }

    /// Shuts down and joins the worker pool (cancelled jobs each finish
    /// their terminal slice first).
    pub fn join(mut self) {
        self.begin_shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.begin_shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        // Check out the next ready job.
        let (key, mut job) = {
            let mut st = lock(shared);
            loop {
                if let Some(key) = st.queue.pop_front() {
                    match st.slots.get_mut(&key).and_then(|slot| slot.take()) {
                        Some(job) => break (key, job),
                        // Slot vanished (completed elsewhere) — keep going.
                        None => continue,
                    }
                }
                if st.shutdown {
                    return;
                }
                st = shared.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        // One quantum outside the lock: other workers keep slicing other
        // jobs, submissions keep landing.
        let report = job.run_slice(shared.config.slice_conflicts, shared.pool.as_ref());
        let mut st = lock(shared);
        match report.outcome {
            SliceOutcome::Continue => {
                if let Some(live) = st.live.get_mut(&key) {
                    live.arena_bytes = report.arena_bytes;
                    live.counters = job.counters();
                }
                st.slots.insert(key, Some(job));
                st.queue.push_back(key);
                drop(st);
                shared.work.notify_one();
            }
            SliceOutcome::Done => {
                let counters = job.counters();
                st.sessions
                    .entry(job.session_name().to_string())
                    .or_default()
                    .base
                    .absorb(&counters);
                st.slots.remove(&key);
                if let Some(live) = st.live.remove(&key) {
                    st.index.remove(&(live.conn, live.request_id));
                }
                drop(st);
                shared.idle.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::parse_request;
    use std::io::Write;
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

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
            .expect("utf8")
            .lines()
            .map(str::to_string)
            .collect()
    }

    fn wait_for(buf: &Arc<Mutex<Vec<u8>>>, needle: &str) -> Vec<String> {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let ls = lines(buf);
            if ls.iter().any(|l| l.contains(needle)) {
                return ls;
            }
            assert!(
                Instant::now() < deadline,
                "timed out waiting for {needle}: {ls:?}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn submit(sched: &Scheduler, out: &OutputHandle, conn: u64, line: &str) {
        let req = parse_request(line).expect("request parses");
        sched.submit(req, conn, out);
    }

    #[test]
    fn two_tenants_share_the_pool_and_both_finish() {
        // A 1-conflict quantum forces heavy interleaving between tenants.
        let sched = Scheduler::new(Config {
            jobs: 2,
            slice_conflicts: 1,
            ..Config::default()
        });
        let (out, buf) = capture();
        submit(
            &sched,
            &out,
            1,
            r#"{"op":"reach","id":"heavy","session":"big","circuit":"INPUT(a)\nOUTPUT(y)\ns0 = DFF(n0)\ns1 = DFF(n1)\ns2 = DFF(n2)\nn0 = NOT(s0)\nc0 = AND(s0, a)\nn1 = XOR(s1, c0)\nc1 = AND(s1, c0)\nn2 = XOR(s2, c1)\ny = AND(s2, s1)\n","target":"0b000"}"#,
        );
        submit(
            &sched,
            &out,
            1,
            r#"{"op":"allsat","id":"small","session":"tiny","cnf":"p cnf 2 1\n1 2 0\n","project":2}"#,
        );
        wait_for(&buf, r#""id":"small","event":"done""#);
        wait_for(&buf, r#""id":"heavy","event":"done""#);
        let all = lines(&buf);
        let heavy_done = all
            .iter()
            .find(|l| l.contains(r#""id":"heavy","event":"done""#))
            .expect("heavy done");
        assert!(heavy_done.contains(r#""converged":true"#), "{heavy_done}");
        // Both sessions show up in stats with their counters.
        let (sout, sbuf) = capture();
        submit(&sched, &sout, 1, r#"{"op":"stats","id":"m"}"#);
        let stats = wait_for(&sbuf, r#""event":"stats""#);
        let row = stats
            .iter()
            .find(|l| l.contains(r#""event":"stats""#))
            .expect("stats row");
        assert!(row.contains(r#""session":"big""#), "{row}");
        assert!(row.contains(r#""session":"tiny""#), "{row}");
        sched.join();
    }

    #[test]
    fn admission_control_rejects_new_sessions_over_the_ceiling() {
        let sched = Scheduler::new(Config {
            jobs: 1,
            slice_conflicts: 1,
            max_arena_bytes: Some(1),
            ..Config::default()
        });
        let (out, buf) = capture();
        // First session is admitted (nothing live yet)…
        submit(
            &sched,
            &out,
            7,
            r#"{"op":"reach","id":"r1","session":"one","circuit":"INPUT(a)\nOUTPUT(y)\ns0 = DFF(n0)\ns1 = DFF(n1)\ns2 = DFF(n2)\ns3 = DFF(n3)\nn0 = NOT(s0)\nc0 = AND(s0, a)\nn1 = XOR(s1, c0)\nc1 = AND(s1, c0)\nn2 = XOR(s2, c1)\nc2 = AND(s2, c1)\nn3 = XOR(s3, c2)\ny = AND(s3, s2)\n","target":"0b0000"}"#,
        );
        wait_for(&buf, r#""event":"accepted""#);
        // …then a *new* session bounces off the 1-byte ceiling while the
        // first job's arena is live. Poll: admission reads the live gauge,
        // which needs at least one slice to be visible.
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut attempt = 0u64;
        loop {
            // A fresh session name per attempt: only *new* sessions are
            // subject to the admission ceiling.
            attempt += 1;
            let (out2, buf2) = capture();
            submit(
                &sched,
                &out2,
                8,
                &format!(
                    r#"{{"op":"solve","id":"r2","session":"two-{attempt}","cnf":"p cnf 1 1\n1 0\n"}}"#
                ),
            );
            let ls = lines(&buf2);
            if ls.iter().any(|l| l.contains("admission rejected")) {
                let msg = ls
                    .iter()
                    .find(|l| l.contains("admission rejected"))
                    .expect("rejection");
                assert!(msg.contains("--max-arena-bytes 1"), "{msg}");
                break;
            }
            // The solve may have been admitted before the gauge rose (or
            // after the reach finished) — that's legal; retry until the
            // rejection window is observed or the heavy job is done.
            if lines(&buf)
                .iter()
                .any(|l| l.contains(r#""id":"r1","event":"done""#))
            {
                // Heavy job finished before we caught the window; the
                // ceiling can no longer trigger. Accept the pass.
                break;
            }
            assert!(Instant::now() < deadline, "no rejection observed");
            std::thread::sleep(Duration::from_millis(2));
        }
        sched.join();
    }

    #[test]
    fn cancel_targets_one_connection_and_unknown_jobs_error() {
        let sched = Scheduler::new(Config {
            jobs: 1,
            slice_conflicts: 1,
            ..Config::default()
        });
        let (out, buf) = capture();
        submit(
            &sched,
            &out,
            3,
            r#"{"op":"reach","id":"victim","circuit":"INPUT(a)\nOUTPUT(y)\ns0 = DFF(n0)\ns1 = DFF(n1)\ns2 = DFF(n2)\nn0 = NOT(s0)\nc0 = AND(s0, a)\nn1 = XOR(s1, c0)\nc1 = AND(s1, c0)\nn2 = XOR(s2, c1)\ny = AND(s2, s1)\n","target":"0b000"}"#,
        );
        wait_for(&buf, r#""event":"accepted""#);
        // Wrong connection: the job is not visible there.
        let (out2, buf2) = capture();
        submit(
            &sched,
            &out2,
            4,
            r#"{"op":"cancel","id":"c0","job":"victim"}"#,
        );
        let ls = wait_for(&buf2, r#""event":"error""#);
        assert!(ls.iter().any(|l| l.contains("no running job")), "{ls:?}");
        // Right connection: cancelled (or already complete — both legal).
        submit(
            &sched,
            &out,
            3,
            r#"{"op":"cancel","id":"c1","job":"victim"}"#,
        );
        let ls = lines(&buf);
        assert!(
            ls.iter().any(|l| {
                l.contains(r#""id":"c1","event":"ok""#)
                    || l.contains(r#""id":"c1","event":"error""#)
            }),
            "{ls:?}"
        );
        sched.drain();
        sched.join();
    }
}
