//! The metric catalogue and the run's output.
//!
//! Every workload emits every metric of the catalogue that matches the
//! run: the end-to-end set on an untraced run, the per-layer set on a
//! traced one. `BENCHMARK.json` at the repository root lists the same
//! names and units; a unit test keeps the two in step.

use std::collections::BTreeMap;

use presat_obs::{JsonObject, PreimageCounters};

use crate::stats::ratio;

/// A metric's name and unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Def {
    /// Metric name (`[A-Za-z0-9_.-]`).
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// What a user of the system sees, measured with tracing off.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s"),
    def("round_s", "s"),
    def("round_worst_s", "s"),
    def("op_p50_ms", "ms"),
    def("op_tail_ms", "ms"),
    def("peak_rss_mb", "MB"),
    def("result_cubes", "count"),
];

/// Single-layer attribution, measured in a traced run.
pub const PER_LAYER: &[Def] = &[
    def("trace.round_s", "s"),
    def("trace.child_coverage", "ratio"),
    def("search.ms_p50", "ms"),
    def("search.ms_tail", "ms"),
    def("search.share", "ratio"),
    def("first_cube.ms_p50", "ms"),
    def("parse.us_p50", "us"),
    def("encode.share", "ratio"),
    def("encode.clauses", "count"),
    def("encode.cones_skipped", "count"),
    def("step.blocking.share", "ratio"),
    def("step.min_blocking.share", "ratio"),
    def("step.chrono.share", "ratio"),
    def("step.success_driven.share", "ratio"),
    def("allsat.solver_calls", "count"),
    def("allsat.cubes_emitted", "count"),
    def("allsat.blocking_clauses", "count"),
    def("allsat.db_clauses_peak", "count"),
    def("allsat.chrono_backtracks", "count"),
    def("allsat.graph_nodes", "count"),
    def("allsat.lift_ratio", "ratio"),
    def("allsat.cache_hit_ratio", "ratio"),
    def("par.speedup", "ratio"),
    def("par.solver_calls_ratio", "ratio"),
    def("par.cubes_split", "count"),
    def("par.steal_waits", "count"),
    def("par.max_cube_conflicts", "count"),
    def("par.lookahead_probes", "count"),
    def("sat.conflicts", "count"),
    def("sat.decisions", "count"),
    def("sat.propagations", "count"),
    def("sat.restarts", "count"),
    def("sat.binary_skip_ratio", "ratio"),
    def("sat.props_per_ms", "1/ms"),
    def("sat.arena_bytes_max", "bytes"),
    def("sat.db_compactions", "count"),
    def("sat.clauses_reclaimed", "count"),
    def("sat.inprocess_rounds", "count"),
    def("sat.subsumed_clauses", "count"),
    def("sat.vivified_clauses", "count"),
    def("cubestore.subsumption_checks", "count"),
    def("cubestore.index_candidates", "count"),
    def("cubestore.sig_reject_ratio", "ratio"),
    def("cubestore.replay_us_per_insert", "us"),
    def("reach.iterations", "count"),
    def("reach.step_growth", "ratio"),
    def("reach.session_vs_rebuild", "ratio"),
    def("reach.encodings_reused", "count"),
    def("reach.learnts_carried", "count"),
    def("reach.activation_lits", "count"),
    def("reach.frontier_cubes_max", "count"),
    def("presatd.accept_share", "ratio"),
    def("presatd.wait_share", "ratio"),
    def("presatd.stats_share", "ratio"),
    def("presatd.heavy_slices", "count"),
    def("presatd.heavy_vs_standalone", "ratio"),
    def("presatd.heavy_slice_vs_tail", "ratio"),
    def("presatd.gen_late_share", "ratio"),
    def("presatd.out_bytes_per_job", "bytes"),
];

/// Units that denote a time. A layer that runs in every workload reports
/// such a metric; a workload cannot leave one at a default.
fn is_time(unit: &str) -> bool {
    matches!(unit, "s" | "ms" | "us")
}

/// The catalogue for a traced (`true`) or untraced run.
pub fn catalogue(traced: bool) -> &'static [Def] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Metric values of one run, by name.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// An empty set for an untraced run; for a traced run, every
    /// per-layer count and ratio starts at `0` (a layer the workload never
    /// calls does no work), while times must be measured.
    pub fn new(traced: bool) -> Self {
        let mut m = Metrics::default();
        if traced {
            for d in PER_LAYER.iter().filter(|d| !is_time(d.unit)) {
                m.values.insert(d.name, 0.0);
            }
        }
        m
    }

    /// Sets `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Checks that exactly the catalogue's metrics are set, each to a
    /// finite value, and returns them in catalogue order with their units.
    pub fn finish(&self, catalogue: &[Def]) -> Result<Vec<(Def, f64)>, String> {
        if let Some(extra) = self
            .values
            .keys()
            .find(|k| !catalogue.iter().any(|d| d.name == **k))
        {
            return Err(format!("internal: metric {extra} is not in the catalogue"));
        }
        catalogue
            .iter()
            .map(|d| match self.values.get(d.name) {
                Some(v) if v.is_finite() => Ok((*d, *v)),
                Some(v) => Err(format!("internal: metric {} is not finite ({v})", d.name)),
                None => Err(format!("internal: metric {} was not measured", d.name)),
            })
            .collect()
    }

    /// Per-layer counters the engines already report, summed over one
    /// round of the workload.
    pub fn set_counters(&mut self, c: &PreimageCounters) {
        let a = &c.allsat;
        let s = &a.sat;
        let ratio = |num: u64, den: u64| ratio(num as f64, den as f64);
        self.set("encode.cones_skipped", c.cones_skipped as f64);
        self.set("allsat.solver_calls", a.solver_calls as f64);
        self.set("allsat.cubes_emitted", a.cubes_emitted as f64);
        self.set("allsat.blocking_clauses", a.blocking_clauses as f64);
        self.set("allsat.db_clauses_peak", a.db_clauses_peak as f64);
        self.set("allsat.chrono_backtracks", a.chrono_backtracks as f64);
        self.set("allsat.graph_nodes", a.graph_nodes as f64);
        self.set(
            "allsat.lift_ratio",
            ratio(a.literals_after_lift, a.literals_before_lift),
        );
        self.set(
            "allsat.cache_hit_ratio",
            ratio(a.cache_hits, a.cache_hits + a.cache_misses),
        );
        self.set("par.cubes_split", a.cubes_split as f64);
        self.set("par.steal_waits", a.steal_waits as f64);
        self.set("par.max_cube_conflicts", a.max_cube_conflicts as f64);
        self.set("par.lookahead_probes", s.lookahead_probes as f64);
        self.set("sat.conflicts", s.conflicts as f64);
        self.set("sat.decisions", s.decisions as f64);
        self.set("sat.propagations", s.propagations as f64);
        self.set("sat.restarts", s.restarts as f64);
        self.set(
            "sat.binary_skip_ratio",
            ratio(s.binary_skips, s.propagations),
        );
        self.set("sat.arena_bytes_max", s.arena_bytes as f64);
        self.set("sat.db_compactions", s.db_compactions as f64);
        self.set("sat.clauses_reclaimed", s.clauses_reclaimed as f64);
        self.set("sat.inprocess_rounds", s.inprocess_rounds as f64);
        self.set("sat.subsumed_clauses", s.subsumed_clauses as f64);
        self.set("sat.vivified_clauses", s.vivified_clauses as f64);
        self.set("cubestore.subsumption_checks", a.subsumption_checks as f64);
        self.set("cubestore.index_candidates", a.index_candidates as f64);
        self.set(
            "cubestore.sig_reject_ratio",
            ratio(a.sig_rejects, a.sig_rejects + a.subsumption_checks),
        );
    }
}

/// One run's result, ready to print.
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether spans were recorded.
    pub traced: bool,
    /// Length of the timed phase the run was asked for.
    pub seconds: u64,
    /// `true` if every answer passed the correctness gate.
    pub correct: bool,
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed, were refused or came back incomplete.
    pub failed: u64,
    /// Sample counts behind the reported statistics, and on the batch
    /// workloads the reference kernel's best chunk time.
    pub samples: Vec<(String, f64)>,
    /// The metrics in catalogue order.
    pub metrics: Vec<(Def, f64)>,
}

impl Report {
    fn metrics_json(&self) -> String {
        let mut o = JsonObject::new();
        for (d, v) in &self.metrics {
            o.begin_object(d.name)
                .field_f64("value", *v)
                .field_str("unit", d.unit)
                .end_object();
        }
        o.finish()
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut o = JsonObject::new();
        o.field_bool("correct", self.correct)
            .field_u64("attempted", self.attempted)
            .field_u64("failed", self.failed)
            .field_raw("metrics", &self.metrics_json());
        o.finish()
    }

    /// The result with its header, for `--out`.
    pub fn full_json(&self) -> String {
        let mut samples = JsonObject::new();
        for (k, v) in &self.samples {
            samples.field_f64(k, *v);
        }
        let mut o = JsonObject::new();
        o.field_str("workload", &self.workload)
            .field_u64("seed", self.seed)
            .field_bool("traced", self.traced)
            .field_u64("seconds", self.seconds)
            .field_u64("cpu_count", crate::sys::cpu_count() as u64)
            .field_raw("samples", &samples.finish())
            .field_bool("correct", self.correct)
            .field_u64("attempted", self.attempted)
            .field_u64("failed", self.failed)
            .field_raw("metrics", &self.metrics_json());
        o.finish()
    }

    /// Human-readable lines: the header, the sample counts and one
    /// `metric <name> <value> <unit>` line per metric.
    pub fn text_lines(&self) -> Vec<String> {
        let mut lines = vec![format!(
            "header workload={} seed={} traced={} seconds={} cpu_count={}",
            self.workload,
            self.seed,
            self.traced,
            self.seconds,
            crate::sys::cpu_count()
        )];
        lines.extend(self.samples.iter().map(|(k, v)| format!("samples {k} {v}")));
        lines.extend(
            self.metrics
                .iter()
                .map(|(d, v)| format!("metric {} {v} {}", d.name, d.unit)),
        );
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presatd::json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        match doc.get(key) {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or_default();
                    (field("name").to_string(), field("unit").to_string())
                })
                .collect(),
            _ => panic!("BENCHMARK.json lacks {key}"),
        }
    }

    fn ours(defs: &[Def]) -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(declared(&doc, "end_to_end"), ours(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), ours(PER_LAYER));
        let workloads = match doc.get("workloads") {
            Some(Json::Arr(w)) => w
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
                .collect::<Vec<_>>(),
            _ => panic!("BENCHMARK.json lacks workloads"),
        };
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    fn default_seconds_equal_run_seconds() {
        let run_seconds = benchmark_json().get("run_seconds").and_then(Json::as_u64);
        assert_eq!(run_seconds, Some(crate::DEFAULT_SECONDS));
    }

    #[test]
    fn names_and_units_use_the_allowed_characters() {
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{d:?}");
            assert!(
                d.name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{d:?}"
            );
            assert!(
                d.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{d:?}"
            );
            assert!(
                d.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{d:?}"
            );
        }
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "names are unique"
        );
    }

    #[test]
    fn finish_demands_exactly_the_catalogue() {
        let mut m = Metrics::new(false);
        for d in END_TO_END {
            m.set(d.name, 1.5);
        }
        assert_eq!(
            m.finish(END_TO_END).expect("complete").len(),
            END_TO_END.len()
        );
        m.set("sat.conflicts", 1.0);
        assert!(m.finish(END_TO_END).is_err(), "extra metric");

        let mut m = Metrics::new(true);
        let missing = m.finish(PER_LAYER).expect_err("times are not defaulted");
        assert!(missing.contains("trace.round_s"), "{missing}");
        for d in PER_LAYER.iter().filter(|d| is_time(d.unit)) {
            m.set(d.name, 0.25);
        }
        m.finish(PER_LAYER).expect("counts and ratios default to 0");
        m.set("search.share", f64::NAN);
        assert!(m.finish(PER_LAYER).is_err(), "non-finite value");
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let report = Report {
            workload: "w".into(),
            seed: 3,
            traced: false,
            seconds: 1,
            correct: true,
            attempted: 4,
            failed: 0,
            samples: vec![("ops".into(), 4.0)],
            metrics: vec![(END_TO_END[0], 0.8127)],
        };
        let line = report.result_line();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":4,"failed":0,"metrics":{"setup_s":{"value":0.8127,"unit":"s"}}}"#
        );
        presat_obs::json::validate(&report.full_json()).expect("full JSON");
        assert!(report
            .text_lines()
            .contains(&"metric setup_s 0.8127 s".to_string()));
    }
}
