//! `daemon-mix`: `presatd` in process, serving a heavy and a light tenant
//! over a Unix socket.
//!
//! The daemon runs its default slice quantum on two workers. The heavy
//! tenant is a closed loop of back-to-back `reach` requests; the light
//! tenant is an open loop of small `allsat` and `preimage` requests at a
//! fixed rate, plus one `stats` request a second on the same scheduler
//! lock. Light latency is timed from each request's due time, so a stall
//! also charges the requests queued behind it. The load comes from two
//! client threads on two connections, matching a 2-CPU host.

use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use presat_bdd::BddManager;
use presat_circuit::{bench, generators, Circuit};
use presat_logic::{dimacs, Cnf, Cube, CubeSet, Lit, Var};
use presat_obs::{JsonObject, PreimageCounters};
use presat_preimage::{oracle, StateSet, StepBase};
use presatd::json::Json;
use presatd::{parse_request, server, Config, Job, OutputHandle, Scheduler, SliceOutcome};

use super::{ms_since, parse_us_p50, repeated_setup, replay_us_per_insert, same_set};
use super::{round_s, Outcome, Round, RunConfig};
use crate::inputs::{
    base_pool, base_stream, circuit_variant, cnf_variant, full_cube, state_spec, stream,
};
use crate::metrics::Metrics;
use crate::stats::{median, ratio, tail};
use crate::sys;
use crate::trace::{by_name, child_coverage, Tracer};

/// Scheduler workers.
const WORKERS: usize = 2;
/// Light requests per second.
const RATE_HZ: u64 = 50;
/// Distinct light requests of each kind; the schedule cycles through them.
const DISTINCT: usize = 24;
/// Shape of the light `allsat` formulas.
const ALLSAT_VARS: usize = 30;
const ALLSAT_CLAUSES: usize = 84;
const ALLSAT_PROJECT: usize = 12;
/// A BDD projection of a light formula takes about 150 ms, so the gate
/// checks every this-many-th distinct `allsat` request against one.
const ALLSAT_CHECK_EVERY: usize = 3;
/// Latches of the heavy tenant's counter, and the states its reach finds.
const HEAVY_BITS: usize = 9;
/// How long to wait for answers still open when the schedule ends.
const DRAIN: Duration = Duration::from_secs(20);
/// How long one heavy job may take before the run fails.
const HEAVY_TIMEOUT: Duration = Duration::from_secs(60);
/// How long the daemon may take to start listening.
const BIND_TIMEOUT: Duration = Duration::from_secs(5);
/// Shortest socket read timeout (zero would mean "block forever").
const MIN_WAIT: Duration = Duration::from_micros(50);

/// Windows the measured phase is cut into, each carrying the same
/// traffic. The light latency median and tail are taken per window and
/// the best window is reported, for the reason batch workloads report
/// each operation's best round: the shared host slows in bursts of 1 to
/// 10 s.
const WINDOWS: usize = 4;

/// Socket names are unique within the process.
static NEXT_SOCKET: AtomicU64 = AtomicU64::new(0);

/// One distinct light request and the data its answer is checked with.
pub enum Light {
    AllSat {
        cnf: Cnf,
        text: String,
    },
    Preimage {
        circuit: Box<Circuit>,
        text: String,
        target: StateSet,
    },
}

impl Light {
    /// The request line with id `id`.
    pub fn line(&self, id: &str) -> String {
        let mut o = JsonObject::new();
        match self {
            Light::AllSat { text, .. } => o
                .field_str("op", "allsat")
                .field_str("id", id)
                .field_str("session", "light")
                .field_str("cnf", text)
                .field_u64("project", ALLSAT_PROJECT as u64),
            Light::Preimage { text, target, .. } => o
                .field_str("op", "preimage")
                .field_str("id", id)
                .field_str("session", "light")
                .field_str("circuit", text)
                .field_str("target", &state_spec(target)),
        };
        o.finish()
    }
}

/// The distinct light requests: `allsat` and `preimage` alternate, and the
/// `preimage` ones alternate between `comparator(6)` and `parity(8)`.
pub fn light_pool(seed: u64) -> Result<Vec<Light>, String> {
    let mut rng = stream(seed, 5);
    let mut base_rng = base_stream(5);
    let formulas = base_pool(ALLSAT_VARS, ALLSAT_CLAUSES, DISTINCT);
    let mut out = Vec::with_capacity(2 * DISTINCT);
    for (i, base) in formulas.iter().enumerate() {
        let cnf = cnf_variant(base, ALLSAT_PROJECT, &mut rng);
        let text = dimacs::write(&cnf);
        out.push(Light::AllSat { cnf, text });
        // The flag latch fixed to 1: a preimage of many states.
        let (c, flag) = if i % 2 == 0 {
            (generators::comparator(6), 6)
        } else {
            (generators::parity(8), 8)
        };
        let target =
            StateSet::from_partial(&full_cube(&mut base_rng, c.num_latches(), &[(flag, true)]));
        let text = bench::write(&circuit_variant(&c, &mut rng));
        // Check answers against the circuit the daemon parses.
        let circuit = bench::parse(&text).map_err(|e| format!("generated netlist: {e}"))?;
        out.push(Light::Preimage {
            circuit: Box::new(circuit),
            text,
            target,
        });
    }
    Ok(out)
}

/// The heavy tenant's request: a `reach` on a counter with an enable
/// input, from a fixed target (every state of the counter's single cycle
/// reaches all 512, so no seed would change the work).
struct Heavy {
    circuit: String,
    target: String,
}

impl Heavy {
    fn new() -> Self {
        let target = StateSet::from_partial(&full_cube(&mut base_stream(6), HEAVY_BITS, &[]));
        Heavy {
            circuit: bench::write(&generators::counter(HEAVY_BITS, true)),
            target: state_spec(&target),
        }
    }

    /// The request line with id `id`.
    fn line(&self, id: &str) -> String {
        let mut o = JsonObject::new();
        o.field_str("op", "reach")
            .field_str("id", id)
            .field_str("session", "heavy")
            .field_str("circuit", &self.circuit)
            .field_str("target", &self.target);
        o.finish()
    }
}

/// What the light tenant sends, in due order: light requests every
/// `1/RATE_HZ` seconds and a `stats` request every second.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Send {
    Light(usize),
    Stats(usize),
}

/// The send schedule of a `seconds`-long phase, as `(due offset, what)`.
fn schedule(seconds: u64) -> Vec<(Duration, Send)> {
    let period = Duration::from_secs(1) / RATE_HZ as u32;
    let lights = (RATE_HZ * seconds) as usize;
    let mut out: Vec<(Duration, Send)> = (0..lights)
        .map(|i| (period * i as u32, Send::Light(i)))
        .collect();
    // Stats fall between two light requests.
    out.extend(
        (0..seconds as usize).map(|k| (Duration::from_secs(k as u64) + period / 2, Send::Stats(k))),
    );
    out.sort_by_key(|&(due, _)| due);
    out
}

/// A client connection reading newline-delimited events.
struct Conn {
    stream: UnixStream,
    pending: Vec<u8>,
    bytes_in: u64,
}

impl Conn {
    fn send(&mut self, line: &str) -> Result<(), String> {
        self.stream
            .write_all(line.as_bytes())
            .and_then(|()| self.stream.write_all(b"\n"))
            .map_err(|e| format!("write to daemon: {e}"))
    }

    /// The next event line, or `None` if none arrives before `deadline`.
    fn read_line(&mut self, deadline: Instant) -> Result<Option<String>, String> {
        let mut chunk = [0u8; 1 << 16];
        loop {
            if let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.pending.drain(..=pos).collect();
                return String::from_utf8(line[..pos].to_vec())
                    .map(Some)
                    .map_err(|e| format!("daemon sent invalid UTF-8: {e}"));
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            self.stream
                .set_read_timeout(Some((deadline - now).max(MIN_WAIT)))
                .map_err(|e| format!("set socket timeout: {e}"))?;
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("daemon closed the connection".into()),
                Ok(n) => {
                    self.bytes_in += n as u64;
                    self.pending.extend_from_slice(&chunk[..n]);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(format!("read from daemon: {e}")),
            }
        }
    }
}

/// The daemon: a scheduler and the Unix-socket server thread.
struct Daemon {
    sched: Arc<Scheduler>,
    server: Option<JoinHandle<Result<(), String>>>,
    path: String,
}

/// A fresh socket path in the directory of the running executable. That
/// is the build directory, so the socket stays out of version control and
/// one a killed run leaves behind goes with the build. The path is made
/// relative to the working directory where it can be, since a socket path
/// holds at most 107 bytes.
fn socket_path() -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let dir = exe.parent().ok_or("the executable has no directory")?;
    let dir = std::env::current_dir()
        .ok()
        .and_then(|cwd| dir.strip_prefix(cwd).ok())
        .unwrap_or(dir);
    let name = format!(
        "presatd-{}-{}.sock",
        std::process::id(),
        NEXT_SOCKET.fetch_add(1, Ordering::Relaxed)
    );
    dir.join(name)
        .to_str()
        .map(str::to_string)
        .ok_or_else(|| format!("socket path under {} is not UTF-8", dir.display()))
}

impl Daemon {
    /// Starts the scheduler and binds a fresh socket next to the
    /// executable.
    fn start() -> Result<Daemon, String> {
        let path = socket_path()?;
        let sched = Arc::new(Scheduler::new(Config {
            jobs: WORKERS,
            ..Config::default()
        }));
        let server = {
            let (sched, path) = (sched.clone(), path.clone());
            std::thread::Builder::new()
                .name("perf-presatd".into())
                .spawn(move || server::run_unix(&sched, &path))
                .map_err(|e| format!("cannot start the daemon thread: {e}"))?
        };
        Ok(Daemon {
            sched,
            server: Some(server),
            path,
        })
    }

    /// Connects, retrying until the server thread has bound its socket.
    fn connect(&self) -> Result<Conn, String> {
        let deadline = Instant::now() + BIND_TIMEOUT;
        loop {
            match UnixStream::connect(&self.path) {
                Ok(stream) => {
                    return Ok(Conn {
                        stream,
                        pending: Vec::new(),
                        bytes_in: 0,
                    })
                }
                Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
                Err(e) => return Err(format!("cannot connect to {}: {e}", self.path)),
            }
        }
    }

    /// Shuts the daemon down and waits for its threads. Clients must have
    /// disconnected first: each connection thread runs until its client
    /// closes.
    fn stop(&mut self) -> Result<(), String> {
        self.sched.begin_shutdown();
        let joined = match self.server.take() {
            Some(h) => h
                .join()
                .map_err(|_| "the daemon thread panicked".to_string())?,
            None => Ok(()),
        };
        let _ = std::fs::remove_file(&self.path);
        joined
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// A running daemon with its two clients. Fields drop in order: the
/// clients disconnect before the daemon stops.
struct Harness {
    light: Conn,
    heavy: Conn,
    _daemon: Daemon,
}

/// Starts the daemon, connects both tenants and answers one light
/// request.
fn start_harness(warm_up: &str) -> Result<Harness, String> {
    let daemon = Daemon::start()?;
    let mut light = daemon.connect()?;
    let heavy = daemon.connect()?;
    light.send(warm_up)?;
    let deadline = Instant::now() + DRAIN;
    loop {
        let line = light
            .read_line(deadline)?
            .ok_or("the warm-up request got no answer")?;
        let v = Json::parse(&line).map_err(|e| format!("daemon sent malformed JSON: {e}"))?;
        match v.get("event").and_then(Json::as_str) {
            Some("done") => break,
            Some("error") => return Err(format!("warm-up request failed: {line}")),
            _ => {}
        }
    }
    light.bytes_in = 0;
    Ok(Harness {
        light,
        heavy,
        _daemon: daemon,
    })
}

/// One light request's timeline and answer.
#[derive(Clone, Debug, Default)]
struct LightRecord {
    due: Option<Instant>,
    sent: Option<Instant>,
    accepted: Option<Instant>,
    first_cubes: Option<Instant>,
    done: Option<Instant>,
    ok: bool,
    cubes: Vec<String>,
}

#[derive(Clone, Debug, Default)]
struct StatsRecord {
    sent: Option<Instant>,
    done: Option<Instant>,
    ok: bool,
}

/// The string items of array field `key`.
fn strings(v: &Json, key: &str) -> Vec<String> {
    match v.get(key) {
        Some(Json::Arr(items)) => items
            .iter()
            .filter_map(|j| j.as_str().map(str::to_string))
            .collect(),
        _ => Vec::new(),
    }
}

/// Files one event of the light connection. Returns `true` if it ends a
/// request.
fn light_event(
    line: &str,
    at: Instant,
    lights: &mut [LightRecord],
    stats: &mut [StatsRecord],
) -> Result<bool, String> {
    let v = Json::parse(line).map_err(|e| format!("daemon sent malformed JSON: {e}"))?;
    let id = v.get("id").and_then(Json::as_str).unwrap_or_default();
    let event = v.get("event").and_then(Json::as_str).unwrap_or_default();
    let index = |prefix: char| {
        id.strip_prefix(prefix)
            .and_then(|n| n.parse::<usize>().ok())
    };
    if let Some(r) = index('l').and_then(|i| lights.get_mut(i)) {
        match event {
            "accepted" => r.accepted = Some(at),
            "cubes" => {
                r.first_cubes.get_or_insert(at);
            }
            "done" | "error" => {
                r.done = Some(at);
                r.ok = event == "done" && v.get("complete").and_then(Json::as_bool) == Some(true);
                r.cubes = strings(&v, "cubes");
                return Ok(true);
            }
            _ => {}
        }
        return Ok(false);
    }
    if let Some(r) = index('s').and_then(|k| stats.get_mut(k)) {
        r.done = Some(at);
        r.ok = event == "stats" && matches!(v.get("sessions"), Some(Json::Arr(_)));
        return Ok(true);
    }
    Err(format!("unexpected event on the light connection: {line}"))
}

/// The light tenant's open loop: sends on schedule, files every event,
/// then waits up to [`DRAIN`] for answers still open.
fn light_phase(
    conn: &mut Conn,
    plan: &[(Duration, Send)],
    lines: &[String],
    t0: Instant,
    lights: &mut [LightRecord],
    stats: &mut [StatsRecord],
) -> Result<(), String> {
    let mut next = 0;
    let mut open = 0usize;
    let mut drain_until = None;
    loop {
        let deadline = match plan.get(next) {
            Some(&(offset, what)) => {
                let due = t0 + offset;
                if Instant::now() >= due {
                    let line = match what {
                        Send::Light(i) => {
                            lights[i].due = Some(due);
                            lines[i].clone()
                        }
                        Send::Stats(k) => format!(r#"{{"op":"stats","id":"s{k}"}}"#),
                    };
                    conn.send(&line)?;
                    let sent = Some(Instant::now());
                    match what {
                        Send::Light(i) => lights[i].sent = sent,
                        Send::Stats(k) => stats[k].sent = sent,
                    }
                    open += 1;
                    next += 1;
                    continue;
                }
                due
            }
            None if open == 0 => return Ok(()),
            None => *drain_until.get_or_insert_with(|| Instant::now() + DRAIN),
        };
        match conn.read_line(deadline)? {
            Some(line) => open -= usize::from(light_event(&line, Instant::now(), lights, stats)?),
            None if next == plan.len() => return Ok(()),
            None => {}
        }
    }
}

/// One heavy job's outcome.
#[derive(Clone, Debug)]
struct HeavyRecord {
    sent: Instant,
    done: Instant,
    ok: bool,
    num_cubes: u64,
}

/// The heavy tenant's closed loop: one `reach` at a time until `stop`.
fn heavy_phase(
    conn: &mut Conn,
    heavy: &Heavy,
    stop: &AtomicBool,
) -> Result<Vec<HeavyRecord>, String> {
    let mut jobs = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        let id = format!("h{}", jobs.len());
        let sent = Instant::now();
        conn.send(&heavy.line(&id))?;
        let deadline = sent + HEAVY_TIMEOUT;
        loop {
            let line = conn
                .read_line(deadline)?
                .ok_or_else(|| format!("heavy job {id} took longer than {HEAVY_TIMEOUT:?}"))?;
            let v = Json::parse(&line).map_err(|e| format!("daemon sent malformed JSON: {e}"))?;
            if v.get("id").and_then(Json::as_str) != Some(id.as_str()) {
                return Err(format!("unexpected event on the heavy connection: {line}"));
            }
            let event = v.get("event").and_then(Json::as_str).unwrap_or_default();
            if event != "done" && event != "error" {
                continue;
            }
            let flag = |k: &str| v.get(k).and_then(Json::as_bool) == Some(true);
            let states = v.get("reached_states").and_then(Json::as_u64);
            jobs.push(HeavyRecord {
                sent,
                done: Instant::now(),
                ok: event == "done"
                    && flag("complete")
                    && flag("converged")
                    && states == Some(1 << HEAVY_BITS),
                num_cubes: v.get("num_cubes").and_then(Json::as_u64).unwrap_or(0),
            });
            break;
        }
    }
    Ok(jobs)
}

/// A cube as `presatd` prints an `allsat` answer: `1 -3 0`.
fn dimacs_cube(text: &str) -> Result<Cube, String> {
    let lits = text
        .split_whitespace()
        .map(|t| {
            t.parse::<i64>()
                .map_err(|e| format!("bad cube {text:?}: {e}"))
        })
        .take_while(|l| !matches!(l, Ok(0)))
        .map(|l| l.map(|l| Lit::with_phase(Var::new(l.unsigned_abs() as usize - 1), l > 0)))
        .collect::<Result<Vec<_>, _>>()?;
    Cube::from_lits(lits).map_err(|e| format!("bad cube {text:?}: {e}"))
}

/// A cube as `presatd` prints a state set: `x0 & !x2`, or `⊤`.
fn state_cube(text: &str) -> Result<Cube, String> {
    if text == "⊤" {
        return Ok(Cube::top());
    }
    let lits = text
        .split(" & ")
        .map(|t| {
            let (neg, var) = t.strip_prefix('!').map_or((false, t), |v| (true, v));
            var.strip_prefix('x')
                .and_then(|n| n.parse::<usize>().ok())
                .map(|j| Lit::with_phase(Var::new(j), !neg))
                .ok_or_else(|| format!("bad state cube {text:?}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Cube::from_lits(lits).map_err(|e| format!("bad state cube {text:?}: {e}"))
}

impl Light {
    /// The answer's cubes, parsed.
    fn answer(&self, cubes: &[String]) -> Result<CubeSet, String> {
        let parse = match self {
            Light::AllSat { .. } => dimacs_cube,
            Light::Preimage { .. } => state_cube,
        };
        cubes.iter().map(|c| parse(c)).collect()
    }

    /// Checks an answer against the BDD projection (`allsat`) or
    /// exhaustive simulation (`preimage`).
    fn check(&self, answer: &CubeSet) -> bool {
        match self {
            Light::AllSat { cnf, .. } => {
                let mut m = BddManager::new(ALLSAT_VARS);
                let f = m.from_cnf(cnf);
                let aux: Vec<Var> = (ALLSAT_PROJECT..ALLSAT_VARS).map(Var::new).collect();
                let truth = m.exists(f, &aux);
                m.from_cube_set(answer) == truth
            }
            Light::Preimage {
                circuit, target, ..
            } => {
                let want = oracle::preimage(circuit, target);
                same_set(answer, want.cubes(), circuit.num_latches())
            }
        }
    }
}

/// Every answer of a distinct request must equal the first, and the first
/// must pass [`Light::check`]: every `preimage` request, and every
/// [`ALLSAT_CHECK_EVERY`]-th `allsat` one.
fn gate(pool: &[Light], lights: &[LightRecord], heavy: &[HeavyRecord]) -> Result<(), String> {
    for (d, light) in pool.iter().enumerate() {
        let mut answers = lights.iter().skip(d).step_by(pool.len()).filter(|r| r.ok);
        let Some(first) = answers.next() else {
            continue;
        };
        if answers.any(|r| r.cubes != first.cubes) {
            return Err(format!("light request {d} got two different answers"));
        }
        let checked = match light {
            Light::AllSat { .. } => (d / 2) % ALLSAT_CHECK_EVERY == 0,
            Light::Preimage { .. } => true,
        };
        if checked && !light.check(&light.answer(&first.cubes)?) {
            return Err(format!("light request {d} got a wrong answer"));
        }
    }
    if heavy.iter().any(|h| !h.ok) {
        return Err("a heavy reach did not reach all 512 states".into());
    }
    Ok(())
}

/// One request run standalone through `Job::new` and `Job::run_slice`.
struct Replay {
    slice_ms: Vec<f64>,
    counters: PreimageCounters,
}

/// Runs request `line` to its end without a daemon, discarding its
/// events; the counters are the ones its `done` event reports.
fn replay(tr: &mut Tracer, line: &str, op: u64) -> Result<Replay, String> {
    tr.span("presatd.replay", op, |tr| {
        let request = tr.span("presatd.parse", op, |_| parse_request(line))?;
        let out = OutputHandle::new(Box::new(std::io::sink()));
        let mut job = tr.span("presatd.job_build", op, |_| Job::new(request, 0, out))?;
        let quantum = Config::default().slice_conflicts;
        let mut slice_ms = Vec::new();
        loop {
            let start = Instant::now();
            let r = tr.span("presatd.run_slice", op, |_| job.run_slice(quantum, None));
            slice_ms.push(ms_since(start));
            if r.outcome == SliceOutcome::Done {
                break;
            }
        }
        Ok(Replay {
            slice_ms,
            counters: job.counters(),
        })
    })
}

/// The smallest `stat` over the windows that have samples.
fn best_window(windows: &[Vec<f64>], stat: impl Fn(&[f64]) -> f64) -> f64 {
    windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| stat(w))
        .fold(f64::INFINITY, f64::min)
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let pool = light_pool(cfg.seed)?;
    let plan = schedule(cfg.seconds);
    let n_lights = plan
        .iter()
        .filter(|(_, s)| matches!(s, Send::Light(_)))
        .count();
    let lines: Vec<String> = (0..n_lights)
        .map(|i| pool[i % pool.len()].line(&format!("l{i}")))
        .collect();
    let heavy_req = Heavy::new();

    let warm_up = pool[0].line("warm-up");
    let (setup_s, mut h) = repeated_setup(|| start_harness(&warm_up))?;
    let mut lights = vec![LightRecord::default(); n_lights];
    let mut stats = vec![StatsRecord::default(); plan.len() - n_lights];
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let (light_result, heavy_result, t_end) = std::thread::scope(|s| {
        let (heavy_conn, heavy_req, stop) = (&mut h.heavy, &heavy_req, &stop);
        let heavy = s.spawn(move || heavy_phase(heavy_conn, heavy_req, stop));
        let light = light_phase(&mut h.light, &plan, &lines, t0, &mut lights, &mut stats);
        let t_end = Instant::now();
        stop.store(true, Ordering::SeqCst);
        let heavy = heavy
            .join()
            .map_err(|_| "the heavy tenant thread panicked".to_string())
            .and_then(|r| r);
        (light, heavy, t_end)
    });
    light_result?;
    let heavy = heavy_result?;
    let rss_mb = sys::peak_rss_mb()?;
    let bytes_in = h.light.bytes_in + h.heavy.bytes_in;
    drop(h);

    let correct = match gate(&pool, &lights, &heavy) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("daemon-mix: {e}");
            false
        }
    };
    // Heavy jobs that finished inside the phase; the one in flight when
    // it ended only drains.
    let counted: Vec<&HeavyRecord> = heavy.iter().filter(|j| j.done <= t_end).collect();
    if counted.is_empty() {
        return Err("no heavy job finished inside the timed phase".into());
    }
    let heavy_s: Vec<f64> = counted
        .iter()
        .map(|j| (j.done - j.sent).as_secs_f64())
        .collect();
    // A light request that failed or never got an answer counts as taking
    // the whole phase, so it misses any latency limit.
    let phase_ms = (t_end - t0).as_secs_f64() * 1e3;
    let latency_ms: Vec<f64> = lights
        .iter()
        .map(|r| match (r.due, r.done) {
            (Some(due), Some(done)) if r.ok => (done - due).as_secs_f64() * 1e3,
            _ => phase_ms,
        })
        .collect();
    // The schedule cycles through the distinct requests: each full cycle
    // is a round of one part, and a round's time sums each request's best
    // latency.
    let cycles: Vec<Round> = latency_ms
        .chunks_exact(pool.len())
        .map(|c| Round::of_ops(c.to_vec()))
        .collect();
    let light_round_s = round_s(&cycles);
    let window = |t: Instant| {
        let at = (t - t0).as_secs_f64() / cfg.seconds as f64;
        ((at * WINDOWS as f64) as usize).min(WINDOWS - 1)
    };
    let mut windows = vec![Vec::new(); WINDOWS];
    for (r, &ms) in lights.iter().zip(&latency_ms) {
        windows[r.due.map_or(WINDOWS - 1, window)].push(ms);
    }
    let light_p50 = best_window(&windows, median);
    let light_tail = best_window(&windows, |w| tail(w).value);
    let tail_pct = windows.first().map_or(0.0, |w| tail(w).pct);
    let failed = lights.iter().filter(|r| !r.ok).count()
        + stats.iter().filter(|r| !r.ok).count()
        + heavy.iter().filter(|j| !j.ok).count();
    let attempted = lights.len() + stats.len() + heavy.len();

    let mut m = Metrics::new(cfg.traced);
    let mut samples = vec![
        ("windows".to_string(), WINDOWS as f64),
        ("light_requests".to_string(), lights.len() as f64),
        ("light_cycles".to_string(), cycles.len() as f64),
        ("light_tail_pct".to_string(), tail_pct),
        ("heavy_jobs".to_string(), counted.len() as f64),
        ("stats_requests".to_string(), stats.len() as f64),
    ];
    // The first good answer of each distinct light request.
    let first_answers: Vec<Option<&LightRecord>> = (0..pool.len())
        .map(|d| lights.iter().skip(d).step_by(pool.len()).find(|r| r.ok))
        .collect();
    let mut spans = Vec::new();
    if !cfg.traced {
        let light_cubes: usize = first_answers.iter().flatten().map(|r| r.cubes.len()).sum();
        let heavy_cubes = counted.first().map_or(0, |j| j.num_cubes);
        m.set("setup_s", setup_s);
        m.set("round_s", light_round_s);
        // One part, so the worst round is the round.
        m.set("round_worst_s", light_round_s);
        m.set("op_p50_ms", light_p50);
        m.set("op_tail_ms", light_tail);
        m.set("peak_rss_mb", rss_mb);
        m.set("result_cubes", light_cubes as f64 + heavy_cubes as f64);
    } else {
        let mut tr = Tracer::new(true);
        let mut replays = Vec::with_capacity(pool.len());
        for (d, light) in pool.iter().enumerate() {
            replays.push(replay(&mut tr, &light.line(&format!("r{d}")), d as u64)?);
        }
        let heavy_replay = replay(&mut tr, &heavy_req.line("rh"), pool.len() as u64)?;
        let layers = by_name(tr.spans());
        let root_ns = layers.get("presatd.replay").map_or(0, |l| l.total_ns) as f64;
        let self_ns = |name: &str| layers.get(name).map_or(0, |l| l.self_ns) as f64;
        m.set("trace.round_s", light_round_s);
        m.set("trace.child_coverage", child_coverage(tr.spans()));
        m.set("encode.share", ratio(self_ns("presatd.job_build"), root_ns));
        m.set("search.share", ratio(self_ns("presatd.run_slice"), root_ns));
        let run_ms: Vec<f64> = replays.iter().map(|r| r.slice_ms.iter().sum()).collect();
        let run_tail = tail(&run_ms);
        let run_p50 = median(&run_ms);
        m.set("search.ms_p50", run_p50);
        m.set("search.ms_tail", run_tail.value);
        let first_cube: Vec<f64> = lights
            .iter()
            .filter_map(|r| Some((r.first_cubes? - r.sent?).as_secs_f64() * 1e3))
            .collect();
        m.set("first_cube.ms_p50", median(&first_cube));
        let mut texts: Vec<String> = pool.iter().map(|l| l.line("p")).collect();
        texts.push(heavy_req.line("p"));
        m.set("parse.us_p50", parse_us_p50(&texts, parse_request)?);
        let mut results = Vec::with_capacity(pool.len());
        for (light, first) in pool.iter().zip(&first_answers) {
            if let Some(r) = first {
                results.push(light.answer(&r.cubes)?.iter().cloned().collect());
            }
        }
        m.set(
            "cubestore.replay_us_per_insert",
            replay_us_per_insert(&results),
        );
        let clauses: usize = pool
            .iter()
            .filter_map(|l| match l {
                Light::Preimage { circuit, .. } => Some(circuit.as_ref()),
                Light::AllSat { .. } => None,
            })
            .chain(std::iter::once(&generators::counter(HEAVY_BITS, true)))
            .map(|c| StepBase::build(c, None).cnf().num_clauses())
            .sum();
        m.set("encode.clauses", clauses as f64);
        let mut counters = heavy_replay.counters;
        for r in &replays {
            counters.absorb(&r.counters);
        }
        m.set_counters(&counters);
        let hc = &heavy_replay.counters;
        m.set("reach.iterations", hc.iterations as f64);
        m.set("reach.encodings_reused", hc.encodings_reused as f64);
        m.set("reach.learnts_carried", hc.learnts_carried as f64);
        m.set("reach.activation_lits", hc.activation_lits as f64);
        let all_ms: f64 = run_ms.iter().sum::<f64>() + heavy_replay.slice_ms.iter().sum::<f64>();
        m.set(
            "sat.props_per_ms",
            ratio(counters.allsat.sat.propagations as f64, all_ms),
        );
        let since = |a: Option<Instant>, b: Option<Instant>| Some((a? - b?).as_secs_f64() * 1e3);
        let accept: Vec<f64> = lights
            .iter()
            .filter_map(|r| since(r.accepted, r.sent))
            .collect();
        let stats_ms: Vec<f64> = stats.iter().filter_map(|r| since(r.done, r.sent)).collect();
        let late: Vec<f64> = lights.iter().filter_map(|r| since(r.sent, r.due)).collect();
        let period_ms = 1e3 / RATE_HZ as f64;
        m.set("presatd.accept_share", ratio(median(&accept), light_p50));
        m.set(
            "presatd.wait_share",
            ratio((light_p50 - run_p50).max(0.0), light_p50),
        );
        m.set("presatd.stats_share", ratio(median(&stats_ms), light_p50));
        m.set("presatd.heavy_slices", heavy_replay.slice_ms.len() as f64);
        let heavy_alone_s = heavy_replay.slice_ms.iter().sum::<f64>() / 1e3;
        m.set(
            "presatd.heavy_vs_standalone",
            ratio(median(&heavy_s), heavy_alone_s),
        );
        let slice_max = heavy_replay.slice_ms.iter().copied().fold(0.0, f64::max);
        m.set("presatd.heavy_slice_vs_tail", ratio(slice_max, light_tail));
        m.set("presatd.gen_late_share", tail(&late).value / period_ms);
        let answered = lights.iter().filter(|r| r.done.is_some()).count() + heavy.len();
        m.set(
            "presatd.out_bytes_per_job",
            ratio(bytes_in as f64, answered as f64),
        );
        samples.push(("replays".into(), run_ms.len() as f64));
        samples.push(("search_tail_pct".into(), run_tail.pct));
        spans = tr.take();
    }
    Ok(Outcome {
        metrics: m,
        correct,
        attempted: attempted as u64,
        failed: failed as u64,
        samples,
        spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_request_lines() {
        let lines = |seed| -> Vec<String> {
            let pool = light_pool(seed).expect("pool");
            (0..6).map(|i| pool[i].line(&format!("l{i}"))).collect()
        };
        assert_eq!(lines(3), lines(3));
        assert_ne!(lines(3), lines(4));
        for line in lines(3) {
            parse_request(&line).expect("request line parses");
        }
    }

    #[test]
    fn schedule_interleaves_stats_once_a_second() {
        let plan = schedule(2);
        assert_eq!(plan.len(), 2 * RATE_HZ as usize + 2);
        assert!(plan.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(plan[1], (Duration::from_millis(10), Send::Stats(0)));
    }

    #[test]
    fn best_window_skips_empty_windows() {
        let windows = vec![vec![5.0, 7.0], Vec::new(), vec![4.0, 9.0, 9.5]];
        assert_eq!(best_window(&windows, median), 6.0);
        assert_eq!(best_window(&windows, |w| w.len() as f64), 2.0);
    }

    #[test]
    fn answer_cubes_parse_back() {
        assert_eq!(dimacs_cube("1 -3 0").expect("cube").len(), 2);
        assert_eq!(dimacs_cube("0").expect("cube"), Cube::top());
        assert!(dimacs_cube("1 x 0").is_err());
        let c = state_cube("x0 & !x2").expect("cube");
        assert_eq!(c.to_string(), "x0 & !x2");
        assert_eq!(state_cube("⊤").expect("cube"), Cube::top());
        assert!(state_cube("y1").is_err());
    }

    #[test]
    fn smoke_light_requests_through_a_live_daemon() {
        let pool = light_pool(7).expect("pool");
        let mut h = start_harness(&pool[0].line("w")).expect("daemon starts");
        let mut lights = vec![LightRecord::default(); 2];
        let mut stats = vec![StatsRecord::default(); 1];
        let plan = vec![
            (Duration::ZERO, Send::Light(0)),
            (Duration::ZERO, Send::Light(1)),
            (Duration::ZERO, Send::Stats(0)),
        ];
        let lines = vec![pool[0].line("l0"), pool[1].line("l1")];
        light_phase(
            &mut h.light,
            &plan,
            &lines,
            Instant::now(),
            &mut lights,
            &mut stats,
        )
        .expect("light phase");
        assert!(lights.iter().all(|r| r.ok) && stats[0].ok);
        gate(&pool[..2], &lights, &[]).expect("answers are right");
        let r = replay(&mut Tracer::new(true), &lines[1], 0).expect("replay");
        assert!(!r.slice_ms.is_empty() && r.counters.allsat.solver_calls > 0);
        drop(h);
    }
}
