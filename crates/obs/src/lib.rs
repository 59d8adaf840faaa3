//! # presat-obs
//!
//! Zero-dependency observability for the presat engines: plain-`u64`
//! counters for each layer (SAT search, all-solutions enumeration,
//! preimage/fixed-point), an [`ObsSink`] structured event trace with a
//! no-op default, wall-clock [`Timer`]s, and a [`Stats`] snapshot with
//! JSON and CSV emitters.
//!
//! Design constraints (and why):
//!
//! - **Cheap by default.** Counters are plain `u64` fields incremented
//!   in-place by the owning engine — no atomics, no `RefCell`, nothing on
//!   the CDCL hot loop beyond the `+= 1` the solver already did. The event
//!   trace fires only on enumeration-level steps (one event per solution,
//!   blocking clause, or reachability iteration) through `&mut dyn
//!   ObsSink`, whose default [`NullSink`] makes the call a no-op.
//! - **Zero dependencies.** The JSON and CSV emitters are hand-rolled so
//!   the workspace builds hermetically offline. [`json::Json`] is the
//!   workspace's one JSON reader: presatd parses its requests with it, and
//!   tests read emitted text back with it without serde.
//! - **Declared once.** Each counter is one row of its layer's
//!   `counters!` table, which generates the struct field, its `absorb`
//!   rule and its report key; [`Stats`] emits every key as JSON
//!   `<block>.<key>` and CSV column `<block>_<key>` without naming any.
//!
//! The counter structs here are the canonical definitions; `presat-sat`,
//! `presat-allsat`, and `presat-preimage` re-export them under their
//! historical names (`SolverStats`, `EnumerationStats`, `PreimageStats`).

#![forbid(unsafe_code)]

pub mod counters;
pub mod csv;
pub mod json;
pub mod sink;
pub mod stop;
pub mod timer;

pub use counters::{AllSatCounters, PreimageCounters, SatCounters};
pub use sink::{Event, NullSink, ObsSink, VecSink};
pub use stop::StopReason;
pub use timer::{time, Timer};

pub use json::JsonObject;

/// A point-in-time snapshot of every counter layer for one engine run,
/// ready for JSON/CSV emission.
///
/// Layers the run did not exercise stay at their zero defaults (e.g. the
/// `sat` block of a BDD preimage run).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stats {
    /// Engine name as reported by the engine (`"sat-success-driven"`, …).
    pub engine: String,
    /// CDCL search counters.
    pub sat: SatCounters,
    /// All-solutions enumeration counters.
    pub allsat: AllSatCounters,
    /// Preimage/fixed-point counters.
    pub preimage: PreimageCounters,
    /// Wall-clock time of the whole run in nanoseconds.
    pub wall_time_ns: u64,
    /// Whether the run finished exhaustively (`true`, the default) or was
    /// stopped early by a budget, deadline, or cancellation (`false`).
    pub complete: bool,
    /// Why the run stopped early; `None` on a complete run.
    pub stop_reason: Option<StopReason>,
}

impl Default for Stats {
    fn default() -> Self {
        Stats {
            engine: String::new(),
            sat: SatCounters::default(),
            allsat: AllSatCounters::default(),
            preimage: PreimageCounters::default(),
            wall_time_ns: 0,
            complete: true,
            stop_reason: None,
        }
    }
}

impl Stats {
    /// Snapshot of a bare SAT solve.
    pub fn from_sat(engine: impl Into<String>, sat: &SatCounters) -> Self {
        Stats {
            engine: engine.into(),
            sat: *sat,
            ..Stats::default()
        }
    }

    /// Snapshot of an all-solutions enumeration (the SAT layer is lifted
    /// out of the enumeration's nested solver snapshot).
    pub fn from_allsat(engine: impl Into<String>, allsat: &AllSatCounters) -> Self {
        Stats {
            engine: engine.into(),
            sat: allsat.sat,
            allsat: *allsat,
            ..Stats::default()
        }
    }

    /// Snapshot of a preimage (or backward-reachability) run; the allsat
    /// and SAT layers are lifted out of the nested snapshots.
    pub fn from_preimage(engine: impl Into<String>, preimage: &PreimageCounters) -> Self {
        Stats {
            engine: engine.into(),
            sat: preimage.allsat.sat,
            allsat: preimage.allsat,
            preimage: *preimage,
            wall_time_ns: preimage.wall_time_ns,
            ..Stats::default()
        }
    }

    /// Marks the snapshot as a partial (anytime) result and records why it
    /// stopped.
    pub fn with_stop(mut self, complete: bool, stop_reason: Option<StopReason>) -> Self {
        self.complete = complete;
        self.stop_reason = stop_reason;
        self
    }

    /// Emits the snapshot as one JSON object labeled with the session it
    /// belongs to — the per-session export a multi-tenant metrics endpoint
    /// streams (one object per session, `"session"` leading).
    pub fn to_json_named(&self, session: &str) -> String {
        let mut o = JsonObject::new();
        o.field_str("session", session)
            .field_raw("stats", &self.to_json());
        o.finish()
    }

    /// Emits the snapshot as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_str("engine", &self.engine)
            .field_u64("wall_time_ns", self.wall_time_ns)
            .field_bool("complete", self.complete);
        if let Some(reason) = self.stop_reason {
            o.field_str("stop_reason", reason.as_str());
        }
        for (block, keys, values) in self.blocks() {
            o.begin_object(block);
            for (key, value) in keys.iter().zip(values) {
                o.field_u64(key, value);
            }
            o.end_object();
        }
        o.finish()
    }

    /// Column names for [`Stats::to_csv_row`], as one CSV header line.
    pub fn csv_header() -> String {
        let mut columns = vec!["engine".to_string(), "wall_time_ns".to_string()];
        for (block, keys, _) in Stats::default().blocks() {
            columns.extend(keys.iter().map(|key| format!("{block}_{key}")));
        }
        columns.push("complete".to_string());
        csv::row(columns)
    }

    /// Emits the snapshot as one CSV row matching [`Stats::csv_header`].
    pub fn to_csv_row(&self) -> String {
        let mut fields = vec![
            csv::escape_field(&self.engine),
            self.wall_time_ns.to_string(),
        ];
        for (_, _, values) in self.blocks() {
            fields.extend(values.iter().map(u64::to_string));
        }
        fields.push(u64::from(self.complete).to_string());
        fields.join(",")
    }

    /// The three counter blocks in emission order: block name, report keys
    /// and values. Every counter is written as JSON `<block>.<key>` and as
    /// CSV column `<block>_<key>`.
    fn blocks(&self) -> [(&'static str, &'static [&'static str], Vec<u64>); 3] {
        [
            ("sat", SatCounters::FIELDS, self.sat.values()),
            ("allsat", AllSatCounters::FIELDS, self.allsat.values()),
            ("preimage", PreimageCounters::FIELDS, self.preimage.values()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Stats {
        let mut p = PreimageCounters {
            result_cubes: 3,
            iterations: 2,
            wall_time_ns: 1234,
            ..PreimageCounters::default()
        };
        p.allsat.cubes_emitted = 4;
        p.allsat.blocking_clauses = 4;
        p.allsat.sat.decisions = 17;
        p.allsat.sat.conflicts = 5;
        Stats::from_preimage("sat-blocking", &p)
    }

    #[test]
    fn json_is_valid_and_carries_all_layers() {
        let text = sample().to_json();
        json::validate(&text).unwrap();
        assert_eq!(json::extract_u64(&text, "sat.decisions"), Some(17));
        assert_eq!(json::extract_u64(&text, "sat.conflicts"), Some(5));
        assert_eq!(json::extract_u64(&text, "allsat.solutions"), Some(4));
        assert_eq!(json::extract_u64(&text, "allsat.blocking_clauses"), Some(4));
        assert_eq!(json::extract_u64(&text, "preimage.result_cubes"), Some(3));
        assert!(text.contains("\"engine\":\"sat-blocking\""));
    }

    #[test]
    fn from_snapshots_lift_nested_layers() {
        let s = sample();
        assert_eq!(s.sat.decisions, 17);
        assert_eq!(s.allsat.cubes_emitted, 4);
        assert_eq!(s.wall_time_ns, 1234);

        let mut a = AllSatCounters::default();
        a.sat.conflicts = 9;
        let s = Stats::from_allsat("blocking", &a);
        assert_eq!(s.sat.conflicts, 9);

        let sat = SatCounters {
            solves: 1,
            ..SatCounters::default()
        };
        let s = Stats::from_sat("cdcl", &sat);
        assert_eq!(s.sat.solves, 1);
        assert_eq!(s.allsat, AllSatCounters::default());
    }

    #[test]
    fn complete_defaults_true_and_stop_reason_serializes() {
        let s = sample();
        assert!(s.complete);
        assert!(s.stop_reason.is_none());
        let text = s.to_json();
        assert!(text.contains("\"complete\":true"));
        assert!(!text.contains("stop_reason"));

        let s = sample().with_stop(false, Some(StopReason::Deadline));
        let text = s.to_json();
        json::validate(&text).unwrap();
        assert!(text.contains("\"complete\":false"));
        assert!(text.contains("\"stop_reason\":\"deadline\""));
        assert!(s.to_csv_row().ends_with(",0"));
    }

    #[test]
    fn named_snapshot_nests_the_plain_one() {
        let s = sample();
        let text = s.to_json_named("tenant \"a\"");
        json::validate(&text).unwrap();
        assert!(text.starts_with("{\"session\":\"tenant \\\"a\\\"\""));
        assert!(text.contains(&format!("\"stats\":{}", s.to_json())));
    }

    #[test]
    fn csv_row_matches_header_width() {
        let header = Stats::csv_header();
        let row = sample().to_csv_row();
        assert_eq!(
            header.split(',').count(),
            row.split(',').count(),
            "header: {header}\nrow: {row}"
        );
        assert!(row.starts_with("sat-blocking,1234,"));
    }
}
