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
//!   the workspace builds hermetically offline; [`json::validate`] lets
//!   tests check emitted text is well-formed JSON without serde.
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
        o.begin_object("sat")
            .field_u64("solves", self.sat.solves)
            .field_u64("decisions", self.sat.decisions)
            .field_u64("propagations", self.sat.propagations)
            .field_u64("binary_skips", self.sat.binary_skips)
            .field_u64("conflicts", self.sat.conflicts)
            .field_u64("restarts", self.sat.restarts)
            .field_u64("learnt_clauses", self.sat.learnt_clauses)
            .field_u64("deleted_clauses", self.sat.deleted_clauses)
            .field_u64("problem_clauses", self.sat.problem_clauses)
            .field_u64("arena_bytes", self.sat.arena_bytes)
            .field_u64("db_compactions", self.sat.db_compactions)
            .field_u64("clauses_reclaimed", self.sat.clauses_reclaimed)
            .field_u64("inprocess_rounds", self.sat.inprocess_rounds)
            .field_u64("subsumed_clauses", self.sat.subsumed_clauses)
            .field_u64("strengthened_lits", self.sat.strengthened_lits)
            .field_u64("vivified_clauses", self.sat.vivified_clauses)
            .field_u64("lookahead_probes", self.sat.lookahead_probes)
            .end_object();
        o.begin_object("allsat")
            .field_u64("solver_calls", self.allsat.solver_calls)
            .field_u64("solutions", self.allsat.cubes_emitted)
            .field_u64("blocking_clauses", self.allsat.blocking_clauses)
            .field_u64("literals_before_lift", self.allsat.literals_before_lift)
            .field_u64("literals_after_lift", self.allsat.literals_after_lift)
            .field_u64("cache_hits", self.allsat.cache_hits)
            .field_u64("cache_misses", self.allsat.cache_misses)
            .field_u64("graph_nodes", self.allsat.graph_nodes)
            .field_u64("budget_stops", self.allsat.budget_stops)
            .field_u64("cancelled_cubes", self.allsat.cancelled_cubes)
            .field_u64("chrono_backtracks", self.allsat.chrono_backtracks)
            .field_u64("db_clauses_peak", self.allsat.db_clauses_peak)
            .field_u64("cubes_split", self.allsat.cubes_split)
            .field_u64("max_cube_conflicts", self.allsat.max_cube_conflicts)
            .field_u64("steal_waits", self.allsat.steal_waits)
            .field_u64("subsumption_checks", self.allsat.subsumption_checks)
            .field_u64("sig_rejects", self.allsat.sig_rejects)
            .field_u64("index_candidates", self.allsat.index_candidates)
            .end_object();
        o.begin_object("preimage")
            .field_u64("result_cubes", self.preimage.result_cubes)
            .field_u64("iterations", self.preimage.iterations)
            .field_u64("solver_calls", self.preimage.solver_calls)
            .field_u64("blocking_clauses", self.preimage.blocking_clauses)
            .field_u64("graph_nodes", self.preimage.graph_nodes)
            .field_u64("cache_hits", self.preimage.cache_hits)
            .field_u64("bdd_nodes", self.preimage.bdd_nodes)
            .field_u64("sat_conflicts", self.preimage.sat_conflicts)
            .field_u64("wall_time_ns", self.preimage.wall_time_ns)
            .field_u64("encodings_reused", self.preimage.encodings_reused)
            .field_u64("learnts_carried", self.preimage.learnts_carried)
            .field_u64("activation_lits", self.preimage.activation_lits)
            .field_u64("cones_skipped", self.preimage.cones_skipped)
            .end_object();
        o.finish()
    }

    /// Column names for [`Stats::to_csv_row`], as one CSV header line.
    pub fn csv_header() -> String {
        csv::row([
            "engine",
            "wall_time_ns",
            "sat_solves",
            "sat_decisions",
            "sat_propagations",
            "sat_binary_skips",
            "sat_conflicts",
            "sat_restarts",
            "sat_learnt_clauses",
            "sat_deleted_clauses",
            "sat_problem_clauses",
            "sat_arena_bytes",
            "sat_db_compactions",
            "sat_clauses_reclaimed",
            "sat_inprocess_rounds",
            "sat_subsumed_clauses",
            "sat_strengthened_lits",
            "sat_vivified_clauses",
            "sat_lookahead_probes",
            "allsat_solver_calls",
            "allsat_solutions",
            "allsat_blocking_clauses",
            "allsat_literals_before_lift",
            "allsat_literals_after_lift",
            "allsat_cache_hits",
            "allsat_cache_misses",
            "allsat_graph_nodes",
            "allsat_budget_stops",
            "allsat_cancelled_cubes",
            "allsat_chrono_backtracks",
            "allsat_db_clauses_peak",
            "allsat_cubes_split",
            "allsat_max_cube_conflicts",
            "allsat_steal_waits",
            "allsat_subsumption_checks",
            "allsat_sig_rejects",
            "allsat_index_candidates",
            "preimage_result_cubes",
            "preimage_iterations",
            "preimage_bdd_nodes",
            "preimage_encodings_reused",
            "preimage_learnts_carried",
            "preimage_activation_lits",
            "preimage_cones_skipped",
            "complete",
        ])
    }

    /// Emits the snapshot as one CSV row matching [`Stats::csv_header`].
    pub fn to_csv_row(&self) -> String {
        let nums = [
            self.wall_time_ns,
            self.sat.solves,
            self.sat.decisions,
            self.sat.propagations,
            self.sat.binary_skips,
            self.sat.conflicts,
            self.sat.restarts,
            self.sat.learnt_clauses,
            self.sat.deleted_clauses,
            self.sat.problem_clauses,
            self.sat.arena_bytes,
            self.sat.db_compactions,
            self.sat.clauses_reclaimed,
            self.sat.inprocess_rounds,
            self.sat.subsumed_clauses,
            self.sat.strengthened_lits,
            self.sat.vivified_clauses,
            self.sat.lookahead_probes,
            self.allsat.solver_calls,
            self.allsat.cubes_emitted,
            self.allsat.blocking_clauses,
            self.allsat.literals_before_lift,
            self.allsat.literals_after_lift,
            self.allsat.cache_hits,
            self.allsat.cache_misses,
            self.allsat.graph_nodes,
            self.allsat.budget_stops,
            self.allsat.cancelled_cubes,
            self.allsat.chrono_backtracks,
            self.allsat.db_clauses_peak,
            self.allsat.cubes_split,
            self.allsat.max_cube_conflicts,
            self.allsat.steal_waits,
            self.allsat.subsumption_checks,
            self.allsat.sig_rejects,
            self.allsat.index_candidates,
            self.preimage.result_cubes,
            self.preimage.iterations,
            self.preimage.bdd_nodes,
            self.preimage.encodings_reused,
            self.preimage.learnts_carried,
            self.preimage.activation_lits,
            self.preimage.cones_skipped,
            u64::from(self.complete),
        ];
        let mut fields = vec![csv::escape_field(&self.engine)];
        fields.extend(nums.iter().map(u64::to_string));
        fields.join(",")
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
        assert_eq!(json::extract_u64(&text, "decisions"), Some(17));
        assert_eq!(json::extract_u64(&text, "conflicts"), Some(5));
        assert_eq!(json::extract_u64(&text, "solutions"), Some(4));
        assert_eq!(json::extract_u64(&text, "blocking_clauses"), Some(4));
        assert_eq!(json::extract_u64(&text, "result_cubes"), Some(3));
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
