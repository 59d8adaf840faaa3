//! Counter coverage: the observability layer must report exact numbers on
//! instances small enough to know the answer by hand, and the event trace
//! must agree with the counters.

use presat::allsat::{AllSatEngine, AllSatProblem, BlockingAllSat, SuccessDrivenAllSat};
use presat::circuit::generators;
use presat::logic::{Cnf, Lit, Var};
use presat::obs::json::{self, Json};
use presat::obs::{AllSatCounters, Event, PreimageCounters, SatCounters, Stats, VecSink};
use presat::preimage::{
    backward_reach_with_sink, PreimageEngine, ReachOptions, SatPreimage, StateSet,
};

/// `v0 ↔ v1` over three variables: exactly 4 models (v2 free both ways).
fn four_solution_cnf() -> Cnf {
    let mut cnf = Cnf::new(3);
    let v0 = Lit::pos(Var::new(0));
    let v1 = Lit::pos(Var::new(1));
    cnf.add_clause([!v0, v1]);
    cnf.add_clause([v0, !v1]);
    cnf
}

#[test]
fn blocking_counters_on_known_instance() {
    let problem = AllSatProblem::new(four_solution_cnf(), Var::range(3).collect());
    let mut sink = VecSink::new();
    let result = BlockingAllSat::new().enumerate_with_sink(&problem, &mut sink);

    // 4 models over the full variable set → 4 minterm cubes, one blocking
    // clause each (the final UNSAT call adds none).
    assert_eq!(result.cubes.minterm_count(3), 4);
    assert_eq!(result.stats.cubes_emitted, 4);
    assert!(result.stats.blocking_clauses <= 4);
    assert!(result.stats.solver_calls >= 4);

    // The nested CDCL snapshot is populated (at least one solve ran and
    // propagated something).
    assert!(result.stats.sat.solves >= 1);
    assert!(result.stats.sat.propagations > 0);

    // The event trace agrees with the counters.
    assert_eq!(
        sink.count(|e| matches!(e, Event::Solution { .. })) as u64,
        result.stats.cubes_emitted
    );
    assert_eq!(
        sink.count(|e| matches!(e, Event::BlockingClause { .. })) as u64,
        result.stats.blocking_clauses
    );
}

#[test]
fn success_driven_counters_on_known_instance() {
    let problem = AllSatProblem::new(four_solution_cnf(), Var::range(3).collect());
    let mut sink = VecSink::new();
    let result = SuccessDrivenAllSat::new().enumerate_with_sink(&problem, &mut sink);

    assert_eq!(result.cubes.minterm_count(3), 4);
    // The success-driven engine never adds blocking clauses.
    assert_eq!(result.stats.blocking_clauses, 0);
    assert!(result.stats.graph_nodes > 0);
    assert_eq!(
        sink.count(|e| matches!(e, Event::Solution { .. })) as u64,
        result.stats.cubes_emitted
    );

    // Snapshot lifts the nested layers and serializes to valid JSON with
    // the solution count visible.
    let stats = Stats::from_allsat("success-driven", &result.stats);
    let text = stats.to_json();
    json::validate(&text).unwrap();
    assert_eq!(
        json::extract_u64(&text, "allsat.solutions"),
        Some(result.stats.cubes_emitted)
    );
    assert_eq!(json::extract_u64(&text, "allsat.blocking_clauses"), Some(0));
}

#[test]
fn preimage_counters_carry_all_layers() {
    // The only predecessor of 9 in a 4-bit counter is 8.
    let c = generators::counter(4, false);
    let target = StateSet::from_state_bits(9, 4);
    let result = SatPreimage::success_driven().preimage(&c, &target);

    assert_eq!(result.stats.iterations, 1);
    assert!(result.stats.wall_time_ns > 0);
    assert_eq!(result.stats.result_cubes, 1);
    // The nested all-SAT and CDCL snapshots rode along.
    assert!(result.stats.allsat.solver_calls > 0);
    assert!(result.stats.allsat.sat.solves > 0);

    let stats = Stats::from_preimage("sat-success-driven", &result.stats);
    assert_eq!(stats.sat, result.stats.allsat.sat);
    assert_eq!(stats.wall_time_ns, result.stats.wall_time_ns);
}

#[test]
fn reach_aggregates_counters_and_emits_iteration_events() {
    // Reaching state 0 of a 3-bit counter takes 8 iterations (7 + the
    // empty-frontier fixed-point check).
    let c = generators::counter(3, false);
    let mut sink = VecSink::new();
    let report = backward_reach_with_sink(
        &SatPreimage::success_driven(),
        &c,
        &StateSet::from_state_bits(0, 3),
        ReachOptions::default(),
        &mut sink,
    );

    assert!(report.converged);
    assert_eq!(report.stats.iterations, 8);
    assert!(report.stats.wall_time_ns > 0);
    // One ReachIteration event per fixed-point iteration, and the inner
    // preimage calls' events are forwarded through the same sink.
    assert_eq!(
        sink.count(|e| matches!(e, Event::ReachIteration { .. })) as u64,
        report.stats.iterations
    );
    assert!(sink.count(|e| matches!(e, Event::Solution { .. })) > 0);
    // Work counters are sums over iterations: at least one solver call per
    // non-empty frontier.
    assert!(report.stats.allsat.solver_calls >= 7);

    let text = Stats::from_preimage("sat-success-driven", &report.stats).to_json();
    json::validate(&text).unwrap();
    assert_eq!(json::extract_u64(&text, "preimage.iterations"), Some(8));
}

#[test]
fn clause_memory_counters_surface_in_json_and_csv() {
    // Full-width target: every cone is needed, but the arena gauge must
    // still report the resident clause memory of the run.
    let c = generators::counter(4, false);
    let result = SatPreimage::success_driven().preimage(&c, &StateSet::from_state_bits(9, 4));
    let text = Stats::from_preimage("sat-success-driven", &result.stats).to_json();
    json::validate(&text).unwrap();
    assert!(
        json::extract_u64(&text, "sat.arena_bytes").unwrap() > 0,
        "arena gauge missing or zero: {text}"
    );
    assert_eq!(
        json::extract_u64(&text, "sat.db_compactions"),
        Some(result.stats.allsat.sat.db_compactions)
    );
    assert_eq!(
        json::extract_u64(&text, "sat.clauses_reclaimed"),
        Some(result.stats.allsat.sat.clauses_reclaimed)
    );
    assert_eq!(json::extract_u64(&text, "preimage.cones_skipped"), Some(0));

    // Single-latch target: bit 0 of a counter toggles on its own, so the
    // other next-state cones fall outside the cone of influence and the
    // skip count must surface in the JSON.
    let partial = SatPreimage::success_driven().preimage(&c, &StateSet::from_partial(&[(0, true)]));
    assert!(partial.stats.cones_skipped > 0);
    let text = Stats::from_preimage("sat-success-driven", &partial.stats).to_json();
    assert_eq!(
        json::extract_u64(&text, "preimage.cones_skipped"),
        Some(partial.stats.cones_skipped)
    );

    // The CSV schema names every new column.
    for col in [
        "sat_arena_bytes",
        "sat_db_compactions",
        "sat_clauses_reclaimed",
        "preimage_cones_skipped",
    ] {
        assert!(
            Stats::csv_header().contains(col),
            "csv header lacks {col}: {}",
            Stats::csv_header()
        );
    }
}

#[test]
fn csv_rows_align_with_header_for_every_engine() {
    let c = generators::counter(3, false);
    let target = StateSet::from_state_bits(2, 3);
    let header_width = Stats::csv_header().split(',').count();
    for engine in [
        Box::new(SatPreimage::blocking()) as Box<dyn PreimageEngine>,
        Box::new(SatPreimage::min_blocking()),
        Box::new(SatPreimage::success_driven()),
    ] {
        let result = engine.preimage(&c, &target);
        let row = Stats::from_preimage(engine.name(), &result.stats).to_csv_row();
        assert_eq!(row.split(',').count(), header_width, "{}", engine.name());
    }
}

#[test]
fn every_json_sat_counter_has_a_matching_csv_column() {
    // Distinct values across all three blocks, so a column that reads the
    // wrong field shows. No `..Default`: a new counter must be added here.
    let sat = SatCounters {
        solves: 1,
        decisions: 2,
        propagations: 3,
        binary_skips: 4,
        conflicts: 5,
        restarts: 6,
        learnt_clauses: 7,
        deleted_clauses: 8,
        problem_clauses: 9,
        arena_bytes: 10,
        db_compactions: 11,
        clauses_reclaimed: 12,
        inprocess_rounds: 13,
        subsumed_clauses: 14,
        strengthened_lits: 15,
        vivified_clauses: 16,
        lookahead_probes: 17,
    };
    let allsat = AllSatCounters {
        solver_calls: 101,
        blocking_clauses: 102,
        cubes_emitted: 103,
        literals_before_lift: 104,
        literals_after_lift: 105,
        cache_hits: 106,
        cache_misses: 107,
        graph_nodes: 108,
        sat_conflicts: 109,
        sat_decisions: 110,
        budget_stops: 111,
        cancelled_cubes: 112,
        chrono_backtracks: 113,
        db_clauses_peak: 114,
        cubes_split: 115,
        max_cube_conflicts: 116,
        steal_waits: 117,
        subsumption_checks: 118,
        sig_rejects: 119,
        index_candidates: 120,
        sat,
    };
    let preimage = PreimageCounters {
        result_cubes: 201,
        iterations: 202,
        solver_calls: 203,
        blocking_clauses: 204,
        graph_nodes: 205,
        cache_hits: 206,
        bdd_nodes: 207,
        sat_conflicts: 208,
        wall_time_ns: 209,
        encodings_reused: 210,
        learnts_carried: 211,
        activation_lits: 212,
        cones_skipped: 213,
        allsat,
    };
    let stats = Stats::from_preimage("sat-success-driven", &preimage);
    let header = Stats::csv_header();
    let row = stats.to_csv_row();
    let csv: Vec<(&str, &str)> = header.split(',').zip(row.split(',')).collect();
    let json = Json::parse(&stats.to_json()).expect("stats JSON parses");
    // JSON `allsat.solutions` is `cubes_emitted`; its column is
    // `allsat_solutions`, so every field maps to `<block>_<name>`.
    let mut seen = Vec::new();
    for (block, keys) in [
        ("sat", SatCounters::FIELDS),
        ("allsat", AllSatCounters::FIELDS),
        ("preimage", PreimageCounters::FIELDS),
    ] {
        let Some(Json::Obj(fields)) = json.get(block) else {
            panic!("stats JSON lacks the {block} block: {json:?}");
        };
        assert_eq!(fields.len(), keys.len(), "{block}: {fields:?}");
        for (name, value) in fields {
            let value = value
                .as_u64()
                .unwrap_or_else(|| panic!("non-integer {block}.{name}: {value:?}"));
            let column = format!("{block}_{name}");
            let cell = csv
                .iter()
                .find(|(h, _)| *h == column)
                .unwrap_or_else(|| panic!("csv header lacks {column}: {header}"))
                .1;
            assert_eq!(cell, value.to_string(), "{column}");
            seen.push(value);
        }
    }
    // Each counter is emitted exactly once: no block reads another's
    // field in place of its own.
    seen.sort_unstable();
    let expected: Vec<u64> = (1..=17).chain(101..=120).chain(201..=213).collect();
    assert_eq!(seen, expected);
}
