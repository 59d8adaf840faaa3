//! The `presatd` wire protocol: line-delimited JSON in both directions.
//!
//! # Requests
//!
//! One JSON object per line. Every request carries `"op"` and `"id"` (a
//! client-chosen string echoed on every response); job ops additionally
//! take `"session"` (tenant name, default `"default"`) and the
//! problem payload:
//!
//! ```text
//! {"op":"solve",   "id":"r1", "cnf":"p cnf 2 1\n1 2 0\n"}
//! {"op":"allsat",  "id":"r2", "cnf_path":"f.cnf", "project":3}
//! {"op":"preimage","id":"r3", "circuit_path":"c.bench", "target":"0b101"}
//! {"op":"reach",   "id":"r4", "circuit":"INPUT(a)\n...", "target":"3=1"}
//! {"op":"stats",   "id":"m1"}
//! {"op":"cancel",  "id":"c1", "job":"r4"}
//! {"op":"shutdown","id":"x1"}
//! ```
//!
//! * `cnf` / `cnf_path` — inline DIMACS text or a server-side path.
//! * `circuit` / `circuit_path` — inline `.bench`/`.aag` text (AIGER is
//!   recognized by its `aag ` header) or a server-side path.
//! * `target` — a state spec in exactly the CLI's grammar
//!   ([`presat_preimage::parse_state_spec`]): bit pattern (`42`, `0b1010`,
//!   `0x2a`, arbitrary-width `0b`/`0x` for circuits beyond 64 latches) or
//!   cube `latch=value,...`.
//! * `timeout_ms` / `conflict_budget` — per-request anytime limits
//!   ([`presat_sat::Budget`]); `max_solutions` caps `allsat`, `max_iter`
//!   caps `reach`.
//!
//! # Responses
//!
//! Newline-JSON events, each echoing `"id"`: `accepted`, zero or more
//! streaming events (`cubes` as partial cube sets are found, `iteration`
//! per reach fixed-point round), and exactly one terminal `done` / `error`.
//! `stats` answers with one `stats` event carrying a per-session
//! [`presat_obs::Stats`] snapshot array.

use std::path::Path;

use presat_circuit::{aiger, bench, Circuit};
use presat_logic::{dimacs, Cnf, Cube};
use presat_obs::json::escape_into;
use presat_obs::{JsonObject, StopReason};
use presat_preimage::{parse_state_spec, StateSet};

use crate::json::Json;

/// Hard cap on one request line, in bytes (includes the newline). Inline
/// CNF/circuit payloads must fit; anything larger is rejected with an
/// `error` event before parsing.
pub const MAX_REQUEST_BYTES: usize = 4 << 20;

/// The ops a request may name, for error messages.
pub const VALID_OPS: &str = "solve, allsat, preimage, reach, stats, cancel, shutdown";

/// Per-request anytime limits, straight from the request fields.
#[derive(Clone, Copy, Debug, Default)]
pub struct RequestLimits {
    /// `timeout_ms` — becomes an absolute [`presat_sat::Budget::deadline`]
    /// at admission time.
    pub timeout_ms: Option<u64>,
    /// `conflict_budget` — total CDCL conflicts this request may spend.
    pub conflicts: Option<u64>,
}

/// One parsed, validated request.
pub enum Request {
    /// Decide satisfiability of a DIMACS formula.
    Solve {
        /// Client-chosen request id, echoed on every event.
        id: String,
        /// Tenant session name.
        session: String,
        /// The formula.
        cnf: Cnf,
        /// Anytime limits.
        limits: RequestLimits,
    },
    /// Enumerate all models projected onto the first `project` variables.
    AllSat {
        /// Client-chosen request id.
        id: String,
        /// Tenant session name.
        session: String,
        /// The formula.
        cnf: Cnf,
        /// Number of leading variables to project onto.
        project: usize,
        /// Anytime limits.
        limits: RequestLimits,
        /// Stop after at least this many solutions.
        max_solutions: Option<u64>,
    },
    /// One-step preimage of a target state set.
    Preimage {
        /// Client-chosen request id.
        id: String,
        /// Tenant session name.
        session: String,
        /// The circuit.
        circuit: Circuit,
        /// The target set.
        target: StateSet,
        /// Anytime limits.
        limits: RequestLimits,
    },
    /// Backward reachability to a fixed point.
    Reach {
        /// Client-chosen request id.
        id: String,
        /// Tenant session name.
        session: String,
        /// The circuit.
        circuit: Circuit,
        /// The target set.
        target: StateSet,
        /// Anytime limits.
        limits: RequestLimits,
        /// Iteration cap (`None` = run to the fixed point).
        max_iter: Option<usize>,
    },
    /// Live per-session counter snapshot.
    Stats {
        /// Client-chosen request id.
        id: String,
    },
    /// Cancel a running job on this connection.
    Cancel {
        /// Client-chosen request id.
        id: String,
        /// The id of the job to cancel.
        job: String,
    },
    /// Stop accepting work, cancel running jobs, exit.
    Shutdown {
        /// Client-chosen request id.
        id: String,
    },
}

impl Request {
    /// The request's id (echoed on responses).
    pub fn id(&self) -> &str {
        match self {
            Request::Solve { id, .. }
            | Request::AllSat { id, .. }
            | Request::Preimage { id, .. }
            | Request::Reach { id, .. }
            | Request::Stats { id }
            | Request::Cancel { id, .. }
            | Request::Shutdown { id } => id,
        }
    }

    /// The op name, for the `accepted` event.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Solve { .. } => "solve",
            Request::AllSat { .. } => "allsat",
            Request::Preimage { .. } => "preimage",
            Request::Reach { .. } => "reach",
            Request::Stats { .. } => "stats",
            Request::Cancel { .. } => "cancel",
            Request::Shutdown { .. } => "shutdown",
        }
    }
}

/// Parses and validates one request line. Every failure is a protocol
/// `error` string — never a panic — and the strings are part of the
/// documented interface.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = Json::parse(line).map_err(|e| format!("malformed JSON request: {e}"))?;
    if !matches!(v, Json::Obj(_)) {
        return Err("request must be a JSON object".into());
    }
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or("request is missing \"op\"")?;
    let id = v
        .get("id")
        .and_then(Json::as_str)
        .ok_or("request is missing \"id\"")?
        .to_string();
    let session = v
        .get("session")
        .and_then(Json::as_str)
        .unwrap_or("default")
        .to_string();
    let limits = RequestLimits {
        timeout_ms: field_u64(&v, "timeout_ms")?,
        conflicts: field_u64(&v, "conflict_budget")?,
    };
    match op {
        "solve" => Ok(Request::Solve {
            id,
            session,
            cnf: load_cnf(&v)?,
            limits,
        }),
        "allsat" => {
            let cnf = load_cnf(&v)?;
            let project = v
                .get("project")
                .ok_or("allsat: \"project\" required")?
                .as_usize()
                .ok_or("allsat: \"project\" must be a non-negative integer")?;
            if project > cnf.num_vars() {
                return Err(format!(
                    "allsat: project {project} exceeds the formula's {} variables",
                    cnf.num_vars()
                ));
            }
            Ok(Request::AllSat {
                id,
                session,
                cnf,
                project,
                limits,
                max_solutions: field_u64(&v, "max_solutions")?,
            })
        }
        "preimage" | "reach" => {
            let circuit = load_circuit(&v)?;
            let spec = v
                .get("target")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{op}: \"target\" required"))?;
            let target = parse_state_spec(spec, circuit.num_latches())?;
            if op == "preimage" {
                Ok(Request::Preimage {
                    id,
                    session,
                    circuit,
                    target,
                    limits,
                })
            } else {
                let max_iter = v
                    .get("max_iter")
                    .map(|j| j.as_usize().ok_or("reach: \"max_iter\" must be a non-negative integer"))
                    .transpose()?;
                Ok(Request::Reach {
                    id,
                    session,
                    circuit,
                    target,
                    limits,
                    max_iter,
                })
            }
        }
        "stats" => Ok(Request::Stats { id }),
        "cancel" => Ok(Request::Cancel {
            id,
            job: v
                .get("job")
                .and_then(Json::as_str)
                .ok_or("cancel: \"job\" required (the id of the request to cancel)")?
                .to_string(),
        }),
        "shutdown" => Ok(Request::Shutdown { id }),
        other => Err(format!("unknown op {other:?} (valid ops: {VALID_OPS})")),
    }
}

fn field_u64(v: &Json, name: &str) -> Result<Option<u64>, String> {
    match v.get(name) {
        None | Some(Json::Null) => Ok(None),
        Some(j) => j
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("\"{name}\" must be a non-negative integer")),
    }
}

fn load_cnf(v: &Json) -> Result<Cnf, String> {
    let text = match (
        v.get("cnf").and_then(Json::as_str),
        v.get("cnf_path").and_then(Json::as_str),
    ) {
        (Some(inline), None) => inline.to_string(),
        (None, Some(path)) => {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?
        }
        (Some(_), Some(_)) => return Err("give \"cnf\" or \"cnf_path\", not both".into()),
        (None, None) => return Err("\"cnf\" (inline DIMACS) or \"cnf_path\" required".into()),
    };
    dimacs::parse(&text).map_err(|e| format!("bad DIMACS: {e}"))
}

fn load_circuit(v: &Json) -> Result<Circuit, String> {
    let (text, name_hint) = match (
        v.get("circuit").and_then(Json::as_str),
        v.get("circuit_path").and_then(Json::as_str),
    ) {
        (Some(inline), None) => (inline.to_string(), None),
        (None, Some(path)) => (
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?,
            Path::new(path)
                .file_stem()
                .and_then(|s| s.to_str())
                .map(str::to_string),
        ),
        (Some(_), Some(_)) => return Err("give \"circuit\" or \"circuit_path\", not both".into()),
        (None, None) => {
            return Err("\"circuit\" (inline .bench/.aag) or \"circuit_path\" required".into())
        }
    };
    // Same format rules as the CLI: `.aag` AIGER by extension or header,
    // `.bench` otherwise.
    let is_aiger = name_hint.is_none() && text.trim_start().starts_with("aag ")
        || v.get("circuit_path")
            .and_then(Json::as_str)
            .is_some_and(|p| p.ends_with(".aag"));
    let mut circuit = if is_aiger {
        aiger::parse(&text).map_err(|e| format!("bad AIGER: {e}"))?
    } else {
        bench::parse(&text).map_err(|e| format!("bad bench netlist: {e}"))?
    };
    if let Some(stem) = name_hint {
        circuit.set_name(&stem);
    }
    circuit.validate().map_err(|e| format!("invalid circuit: {e}"))?;
    Ok(circuit)
}

// ---------------------------------------------------------------------------
// Response events
// ---------------------------------------------------------------------------

/// `{"id":…,"event":"accepted","op":…,"session":…}`
pub fn accepted_event(id: &str, op: &str, session: &str) -> String {
    let mut o = JsonObject::new();
    o.field_str("id", id)
        .field_str("event", "accepted")
        .field_str("op", op)
        .field_str("session", session);
    o.finish()
}

/// `{"id":…,"event":"error","message":…}` — also the shape for rejected
/// lines that never became a request (empty `id`).
pub fn error_event(id: &str, message: &str) -> String {
    let mut o = JsonObject::new();
    o.field_str("id", id)
        .field_str("event", "error")
        .field_str("message", message);
    o.finish()
}

/// `{"id":…,"event":"ok","op":…}` — acknowledgment for `cancel`/`shutdown`.
pub fn ok_event(id: &str, op: &str) -> String {
    let mut o = JsonObject::new();
    o.field_str("id", id).field_str("event", "ok").field_str("op", op);
    o.finish()
}

/// A JSON array of strings, for [`JsonObject::field_raw`].
pub fn string_array(items: impl IntoIterator<Item = String>) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(&mut out, &item);
        out.push('"');
    }
    out.push(']');
    out
}

/// A cube rendered the way `presat allsat` prints one: signed 1-based
/// DIMACS literals terminated by `0`.
pub fn dimacs_cube(cube: &Cube) -> String {
    let mut row = String::new();
    for &l in cube.lits() {
        let v = l.var().index() as i64 + 1;
        row.push_str(&format!("{} ", if l.is_pos() { v } else { -v }));
    }
    row.push('0');
    row
}

/// `{"id":…,"event":"cubes","count":…,"cubes":[…]}` — a partial cube batch
/// streamed as it is found.
pub fn cubes_event(id: &str, cubes: Vec<String>) -> String {
    let count = cubes.len() as u64;
    let mut o = JsonObject::new();
    o.field_str("id", id)
        .field_str("event", "cubes")
        .field_u64("count", count)
        .field_raw("cubes", &string_array(cubes));
    o.finish()
}

/// `{"id":…,"event":"iteration",…}` — one reach fixed-point row.
pub fn iteration_event(id: &str, iteration: u64, new_states: u64, reached_states: u64) -> String {
    let mut o = JsonObject::new();
    o.field_str("id", id)
        .field_str("event", "iteration")
        .field_u64("iteration", iteration)
        .field_u64("new_states", new_states)
        .field_u64("reached_states", reached_states);
    o.finish()
}

/// Builder for the terminal `done` event: common envelope + op payload.
pub struct DoneEvent {
    o: JsonObject,
}

impl DoneEvent {
    /// Starts the envelope: id, op, completion flag, stop reason.
    pub fn new(id: &str, op: &str, complete: bool, stop: Option<StopReason>) -> Self {
        let mut o = JsonObject::new();
        o.field_str("id", id)
            .field_str("event", "done")
            .field_str("op", op)
            .field_bool("complete", complete);
        if let Some(reason) = stop {
            o.field_str("stop_reason", reason.as_str());
        }
        DoneEvent { o }
    }

    /// Adds a string payload field.
    pub fn str_field(mut self, name: &str, value: &str) -> Self {
        self.o.field_str(name, value);
        self
    }

    /// Adds an integer payload field.
    pub fn u64_field(mut self, name: &str, value: u64) -> Self {
        self.o.field_u64(name, value);
        self
    }

    /// Adds a boolean payload field.
    pub fn bool_field(mut self, name: &str, value: bool) -> Self {
        self.o.field_bool(name, value);
        self
    }

    /// Adds a pre-rendered JSON payload field (cube arrays, stats).
    pub fn raw_field(mut self, name: &str, raw: &str) -> Self {
        self.o.field_raw(name, raw);
        self
    }

    /// Finishes the event line.
    pub fn finish(self) -> String {
        self.o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presat_obs::json::validate;

    #[test]
    fn parses_an_inline_allsat_request() {
        let line = r#"{"op":"allsat","id":"r1","cnf":"p cnf 2 1\n1 2 0\n","project":2,"conflict_budget":100}"#;
        match parse_request(line) {
            Ok(Request::AllSat {
                id,
                session,
                project,
                limits,
                ..
            }) => {
                assert_eq!(id, "r1");
                assert_eq!(session, "default");
                assert_eq!(project, 2);
                assert_eq!(limits.conflicts, Some(100));
                assert_eq!(limits.timeout_ms, None);
            }
            other => panic!("unexpected parse: {:?}", other.map(|r| r.op())),
        }
    }

    #[test]
    fn parses_an_inline_reach_request_with_wide_spec_path() {
        let line = r#"{"op":"reach","id":"r2","session":"t","circuit":"INPUT(a)\nOUTPUT(y)\ns = DFF(n)\nn = XOR(a, s)\ny = NOT(s)\n","target":"0b1"}"#;
        match parse_request(line) {
            Ok(Request::Reach {
                session, target, ..
            }) => {
                assert_eq!(session, "t");
                assert_eq!(target.minterm_count(1), 1);
            }
            other => panic!("unexpected parse: {:?}", other.map(|r| r.op())),
        }
    }

    #[test]
    fn rejects_bad_requests_with_protocol_errors() {
        for (line, want) in [
            ("{", "malformed JSON"),
            ("[1,2]", "must be a JSON object"),
            (r#"{"id":"x"}"#, "missing \"op\""),
            (r#"{"op":"solve"}"#, "missing \"id\""),
            (r#"{"op":"frobnicate","id":"x"}"#, "unknown op"),
            (r#"{"op":"solve","id":"x"}"#, "\"cnf\""),
            (
                r#"{"op":"allsat","id":"x","cnf":"p cnf 1 0\n"}"#,
                "\"project\" required",
            ),
            (
                r#"{"op":"allsat","id":"x","cnf":"p cnf 1 0\n","project":9}"#,
                "exceeds the formula's 1 variables",
            ),
            (
                r#"{"op":"reach","id":"x","circuit":"INPUT(a)\nOUTPUT(y)\ns = DFF(a)\ny = NOT(s)\n","target":"0b11"}"#,
                "out of range for 1 latches",
            ),
            (
                r#"{"op":"solve","id":"x","cnf":"p cnf 1 0\n","timeout_ms":-3}"#,
                "must be a non-negative integer",
            ),
            (r#"{"op":"cancel","id":"x"}"#, "\"job\" required"),
        ] {
            let err = parse_request(line).map(|r| r.op().to_string()).expect_err(line);
            assert!(err.contains(want), "{line}: {err}");
        }
    }

    #[test]
    fn events_are_valid_json() {
        for text in [
            accepted_event("r1", "allsat", "default"),
            error_event("", "malformed JSON request: x"),
            ok_event("c1", "cancel"),
            cubes_event("r1", vec!["1 -2 0".into(), "x \"y\"".into()]),
            iteration_event("r4", 3, 2, 7),
            DoneEvent::new("r1", "solve", false, Some(StopReason::Conflicts))
                .str_field("result", "unknown")
                .finish(),
        ] {
            validate(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        }
    }

    #[test]
    fn dimacs_cube_matches_cli_rendering() {
        use presat_logic::{Lit, Var};
        let cube = Cube::from_lits([Lit::pos(Var::new(0)), Lit::neg(Var::new(2))])
            .expect("distinct vars");
        assert_eq!(dimacs_cube(&cube), "1 -3 0");
        assert_eq!(dimacs_cube(&Cube::from_lits([]).expect("empty")), "0");
    }
}
