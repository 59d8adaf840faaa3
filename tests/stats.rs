//! Counter coverage: the observability layer must report exact numbers on
//! instances small enough to know the answer by hand, and the event trace
//! must agree with the counters.

use presat::allsat::{
    AllSatEngine, AllSatProblem, BlockingAllSat, EnumLimits, SignatureMode, SuccessDrivenAllSat,
};
use presat::circuit::generators;
use presat::logic::rng::SplitMix64;
use presat::logic::{Cnf, Cube, CubeSet, Lit, Var};
use presat::obs::json::{self, Json};
use presat::obs::{AllSatCounters, Event, NullSink, PreimageCounters, SatCounters, Stats, VecSink};
use presat::preimage::{
    backward_reach, backward_reach_with_sink, PreimageEngine, ReachOptions, SatPreimage, StateSet,
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

/// A seeded random 3-CNF over `n` variables with `m` clauses.
fn random_3cnf(seed: u64, n: usize, m: usize) -> Cnf {
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

/// FNV-1a over a cube list in emission order: pins the exact cubes and
/// their order in one word.
fn cube_digest<'a>(cubes: impl IntoIterator<Item = &'a Cube>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0100_0000_01b3);
    };
    for cube in cubes {
        for l in cube.lits() {
            mix(l.code() as u64 + 1);
        }
        mix(0);
    }
    h
}

/// The pinned success-driven counters, in this order: solver calls, cache
/// hits, cache misses, graph nodes, CDCL conflicts, decisions and
/// propagations, cube count, cube-list digest.
fn pinned(stats: &AllSatCounters, cubes: &CubeSet) -> [u64; 9] {
    [
        stats.solver_calls,
        stats.cache_hits,
        stats.cache_misses,
        stats.graph_nodes,
        stats.sat.conflicts,
        stats.sat.decisions,
        stats.sat.propagations,
        cubes.len() as u64,
        cube_digest(cubes),
    ]
}

/// Checks one pinned row: exactly `want`, and no more solver calls or
/// propagations than `bound`.
fn assert_pinned(got: [u64; 9], want: [u64; 9], bound: [u64; 2], what: &str) {
    assert_eq!(got, want, "{what}");
    assert!(
        got[0] <= bound[0] && got[6] <= bound[1],
        "{what}: calls and propagations {:?} above {bound:?}",
        [got[0], got[6]]
    );
}

/// Golden values of the search that keeps its branching prefix on the
/// solver trail, with dynamic keys that eliminate auxiliary variables by
/// bounded resolution and are not written at nodes whose branching
/// variable is implied. A key
/// or search change may move the work counters (solver calls, cache hits
/// and misses, CDCL work), never the graph nodes, the cube count or the
/// digest: a key that merged subspaces with different solutions would
/// move those. Each row's bound holds the solver calls and propagations
/// of a search that re-propagates its prefix from level 0 at every node;
/// this search must not spend more.
#[test]
fn success_driven_work_counters_are_pinned() {
    type Row = ([u64; 9], [u64; 2]);
    const DYNAMIC: [Row; 5] = [
        (
            [167, 100, 225, 188, 14, 917, 3352, 157, 12008381990299188993],
            [538, 22562],
        ),
        (
            [51, 21, 73, 94, 19, 200, 1324, 30, 15262964068055389360],
            [166, 6672],
        ),
        (
            [83, 36, 90, 149, 15, 340, 1485, 72, 7765513137712084942],
            [227, 9717],
        ),
        (
            [215, 91, 243, 184, 12, 1050, 3930, 205, 9600756842237977287],
            [584, 25948],
        ),
        (
            [137, 77, 172, 130, 16, 784, 2638, 103, 2778428500851464385],
            [299, 13438],
        ),
    ];
    const STATIC: [Row; 5] = [
        (
            [397, 0, 1008, 188, 12, 2070, 5741, 157, 12008381990299188993],
            [1009, 20639],
        ),
        (
            [74, 0, 301, 94, 19, 242, 1530, 30, 15262964068055389360],
            [302, 6412],
        ),
        (
            [137, 0, 460, 149, 14, 519, 1979, 72, 7765513137712084942],
            [461, 9877],
        ),
        (
            [485, 0, 1163, 184, 13, 1862, 7259, 205, 9600756842237977287],
            [1164, 24640],
        ),
        (
            [243, 0, 789, 130, 15, 1191, 4142, 103, 2778428500851464385],
            [790, 16064],
        ),
    ];
    for (mode, rows) in [
        (SignatureMode::Dynamic, DYNAMIC),
        (SignatureMode::Static, STATIC),
    ] {
        for (seed, (want, bound)) in (1..).zip(rows) {
            let problem = AllSatProblem::new(random_3cnf(seed, 24, 66), Var::range(12).collect());
            let r = SuccessDrivenAllSat::new()
                .with_signature(mode)
                .enumerate(&problem);
            let what = format!("{mode:?} seed {seed}");
            assert_pinned(pinned(&r.stats, &r.cubes), want, bound, &what);
        }
    }

    // Random 3-CNFs this dense leave static keys no reuse; a parity
    // preimage (8 data latches and the parity latch) does.
    let r = SatPreimage::success_driven_with(SignatureMode::Static, true)
        .preimage(&generators::parity(8), &StateSet::from_state_bits(3, 9));
    assert_pinned(
        pinned(&r.stats.allsat, r.states.cubes()),
        [129, 127, 256, 17, 0, 255, 1601, 128, 15443515899006749957],
        [257, 6822],
        "parity preimage",
    );

    // Under a solution cap a cache hit counts its minterms in one step.
    let problem = AllSatProblem::new(random_3cnf(1, 24, 66), Var::range(12).collect());
    let limits = EnumLimits::none().with_max_solutions(40);
    let r = SuccessDrivenAllSat::new().enumerate_limited(&problem, &limits, &mut NullSink);
    assert!(!r.complete);
    assert_pinned(
        pinned(&r.stats, &r.cubes),
        [20, 9, 34, 24, 3, 130, 405, 6, 2676513839598341414],
        [62, 2476],
        "solution cap",
    );

    // A session fixed point: one cache across every iteration.
    let report = backward_reach(
        &SatPreimage::success_driven(),
        &generators::counter(6, false),
        &StateSet::from_state_bits(0, 6),
        ReachOptions::default(),
    );
    assert!(report.converged);
    assert_pinned(
        pinned(&report.stats.allsat, report.reached.cubes()),
        [63, 0, 0, 8, 0, 0, 1551, 1, 12638153115695167455],
        [189, 9405],
        "counter(6) fixed point",
    );
}

/// FNV-1a over an event stream in order: pins the exact events, their
/// fields and their order in one word. `EngineDone`'s wall time is left
/// out, since it is the one field a rerun changes.
fn event_digest(events: &[Event]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for event in events {
        let text = match event {
            Event::EngineDone { .. } => "EngineDone".to_string(),
            e => format!("{e:?}"),
        };
        for b in text.bytes().chain([0]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Golden event streams of every way the success-driven search is driven:
/// the one-shot engine (complete, under a conflict budget, under a
/// solution cap), a session fixed point, a session sliced at one conflict
/// and the partition workers. Each row is the event count and the
/// stream's digest. The one-shot engine records its `Solution` events
/// before `BudgetStop`; a session call records `BudgetStop` first. Of the
/// partitioned run only what scheduling cannot move is pinned: the
/// ordered `CubeDone` indices and the `Solution` widths.
#[test]
fn event_streams_are_pinned() {
    use presat::allsat::{Budget, ParallelAllSat};
    use presat::preimage::{ReachDriver, ReachStep};

    let problem = AllSatProblem::new(random_3cnf(1, 24, 66), Var::range(12).collect());
    let one_shot = |limits: EnumLimits| {
        let mut sink = VecSink::new();
        let r = SuccessDrivenAllSat::new().enumerate_limited(&problem, &limits, &mut sink);
        (r, sink.events)
    };
    let mut got: Vec<(&str, [u64; 2])> = Vec::new();
    let mut row =
        |what, events: &[Event]| got.push((what, [events.len() as u64, event_digest(events)]));

    let (r, events) = one_shot(EnumLimits::none());
    assert!(r.complete);
    row("one-shot", &events);
    for limits in [
        EnumLimits::none().with_budget(Budget::unlimited().with_conflicts(8)),
        EnumLimits::none().with_max_solutions(40),
    ] {
        let (r, events) = one_shot(limits);
        assert!(!r.complete);
        assert!(matches!(events.last(), Some(Event::BudgetStop { .. })));
        row("one-shot stopped", &events);
    }

    let mut sink = VecSink::new();
    let report = backward_reach_with_sink(
        &SatPreimage::success_driven(),
        &generators::counter(6, false),
        &StateSet::from_state_bits(0, 6),
        ReachOptions::default(),
        &mut sink,
    );
    assert!(report.converged);
    row("session fixed point", &sink.events);

    let engine = SatPreimage::success_driven();
    let circuit = generators::parity(6);
    let target = StateSet::from_partial(&[(6, true)]);
    let mut driver = ReachDriver::new(&engine, &circuit, &target, ReachOptions::default());
    let quantum = Budget::unlimited().with_conflicts(1);
    let mut sink = VecSink::new();
    while driver.step(&engine, &circuit, &quantum, &mut sink) != ReachStep::Done {}
    assert!(driver.converged());
    // A stopped call that found solutions records them after its stop.
    assert!(sink
        .events
        .windows(2)
        .any(|w| matches!(w, [Event::BudgetStop { .. }, Event::Solution { .. }])));
    row("sliced session", &sink.events);

    let mut sink = VecSink::new();
    let r = ParallelAllSat::new(2).enumerate_with_sink(&problem, &mut sink);
    assert!(r.complete);
    let fixed: Vec<Event> = sink
        .events
        .iter()
        .filter_map(|e| match *e {
            Event::CubeDone { cube_index, .. } => Some(Event::CubeDone {
                cube_index,
                solver_calls: 0,
            }),
            Event::Solution { width } => Some(Event::Solution { width }),
            _ => None,
        })
        .collect();
    row("partitioned", &fixed);

    let want: [(&str, [u64; 2]); 6] = [
        ("one-shot", [482, 3835671471215017280]),
        ("one-shot stopped", [198, 4474931655228121751]),
        ("one-shot stopped", [50, 16340885009531750509]),
        ("session fixed point", [192, 12093501813402871881]),
        ("sliced session", [236, 16724924899459620861]),
        ("partitioned", [165, 3431180776826070297]),
    ];
    assert_eq!(got, want);
}

/// FNV-1a over a CNF: its variable count, then every clause in order.
/// Pins the exact formula an encoder writes, variable numbering and
/// clause order included.
fn cnf_digest(h: &mut u64, cnf: &Cnf) {
    let mut mix = |x: u64| {
        *h ^= x;
        *h = h.wrapping_mul(0x0100_0000_01b3);
    };
    mix(cnf.num_vars() as u64);
    for clause in cnf.clauses() {
        for l in clause {
            mix(l.code() as u64 + 1);
        }
        mix(0);
    }
    mix(u64::MAX);
}

/// Golden CNFs of every preimage-layer encoder on three circuits: the
/// step encoding on an empty, a single-cube and a multi-cube target, each
/// without and with a multi-cube input environment (the partial targets
/// leave cones out on the counter and the shift register); the
/// target-free session base (with its next-state literals) without and
/// with the environment; the image encoding on the same three sources;
/// and the unrolled encoding of the three targets at depths 1 to 3. Each
/// row digests one encoder's cases on one circuit in that order.
#[test]
fn preimage_encodings_are_pinned() {
    use presat::circuit::embedded;
    use presat::preimage::{ImageEncoding, StepBase, StepEncoding, UnrolledEncoding};

    let circuits = [
        embedded::s27().expect("s27 parses"),
        generators::counter(4, true),
        generators::shift_register(6),
    ];
    let mut got: Vec<(String, u64)> = Vec::new();
    for c in &circuits {
        let n = c.num_latches();
        let m = c.num_inputs();
        let targets = [
            StateSet::empty(),
            StateSet::from_partial(&[(1, true), (n - 1, false)]),
            StateSet::from_partial(&[(0, true)])
                .union(&StateSet::from_partial(&[(1, false), (2, true)])),
        ];
        let second: Vec<(usize, bool)> = if m > 1 {
            vec![(0, false), (m - 1, true)]
        } else {
            vec![(0, false)]
        };
        let env: CubeSet = [
            Cube::from_lits([Lit::pos(Var::new(0))]).unwrap(),
            Cube::from_lits(second.iter().map(|&(i, v)| Lit::with_phase(Var::new(i), v))).unwrap(),
        ]
        .into_iter()
        .collect();
        assert_eq!(env.len(), 2, "{}: a multi-cube environment", c.name());
        let mut row = |what: &str, f: &mut dyn FnMut(&mut u64)| {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            f(&mut h);
            got.push((format!("{what} {}", c.name()), h));
        };
        row("step", &mut |h| {
            for t in &targets {
                for e in [None, Some(&env)] {
                    cnf_digest(h, StepEncoding::build_with_env(c, t, e).cnf());
                }
            }
        });
        row("base", &mut |h| {
            for e in [None, Some(&env)] {
                let base = StepBase::build(c, e);
                cnf_digest(h, base.cnf());
                let mut lits = Cnf::new(base.cnf().num_vars());
                lits.add_clause(base.next_lits().iter().copied());
                cnf_digest(h, &lits);
            }
        });
        row("image", &mut |h| {
            for t in &targets {
                cnf_digest(h, ImageEncoding::build(c, t).cnf());
            }
        });
        row("unrolled", &mut |h| {
            for t in &targets {
                for depth in 1..=3 {
                    cnf_digest(h, UnrolledEncoding::build(c, t, depth).cnf());
                }
            }
        });
    }
    let got: Vec<(&str, u64)> = got.iter().map(|(w, h)| (w.as_str(), *h)).collect();
    let want: [(&str, u64); 12] = [
        ("step s27", 14948116474174057855),
        ("base s27", 14338414308709649579),
        ("image s27", 7211322553247808969),
        ("unrolled s27", 4369981341766600050),
        ("step cnt4e", 6762154806012806622),
        ("base cnt4e", 17977355242450310288),
        ("image cnt4e", 13643947083594125980),
        ("unrolled cnt4e", 3079991909108352909),
        ("step shift6", 2925682368908907010),
        ("base shift6", 13008329724212169180),
        ("image shift6", 16074870136596533338),
        ("unrolled shift6", 9262041155956788115),
    ];
    assert_eq!(got, want);
}

/// Golden work of the two preimage paths whose CNF stays inside the
/// engine: one session on a 4-bit counter fed an empty, a single-cube and
/// a multi-cube target in turn, and the excitation sets of an arbiter's
/// and s27's first output at both values.
#[test]
fn session_and_excitation_work_is_pinned() {
    use presat::preimage::excitation_set;

    let mut got: Vec<(&str, [u64; 9])> = Vec::new();
    let c = generators::counter(4, false);
    let mut session = SatPreimage::success_driven()
        .open_session(&c)
        .expect("success-driven has sessions");
    for (what, target) in [
        ("session empty", StateSet::empty()),
        (
            "session single",
            StateSet::from_partial(&[(0, true), (2, false)]),
        ),
        (
            "session multi",
            StateSet::from_partial(&[(0, true)])
                .union(&StateSet::from_partial(&[(1, false), (3, true)])),
        ),
    ] {
        let r = session.preimage_with_sink(&target, &mut NullSink);
        got.push((what, pinned(&r.stats.allsat, r.states.cubes())));
    }
    for (what, circuit) in [
        ("excite arbiter", generators::round_robin_arbiter(2)),
        (
            "excite s27",
            presat::circuit::embedded::s27().expect("s27 parses"),
        ),
    ] {
        for value in [true, false] {
            let r = excitation_set(&circuit, 0, value);
            got.push((what, pinned(&r.stats.allsat, r.states.cubes())));
        }
    }
    let want: [(&str, [u64; 9]); 7] = [
        (
            "session empty",
            [0, 0, 0, 1, 0, 0, 0, 0, 14695981039346656037],
        ),
        (
            "session single",
            [3, 1, 2, 4, 0, 3, 31, 1, 16904608752065930939],
        ),
        (
            "session multi",
            [5, 3, 4, 7, 0, 8, 80, 3, 14089094810169549471],
        ),
        (
            "excite arbiter",
            [5, 2, 4, 4, 0, 16, 29, 2, 16949776231846451683],
        ),
        (
            "excite arbiter",
            [3, 1, 2, 4, 0, 9, 16, 1, 14402208247847590169],
        ),
        (
            "excite s27",
            [4, 2, 3, 1, 1, 15, 52, 1, 12638153115695167455],
        ),
        (
            "excite s27",
            [3, 0, 2, 5, 0, 9, 33, 2, 13441734926027828414],
        ),
    ];
    assert_eq!(got, want);
}

/// The pinned baseline-engine counters, in this order: solver calls,
/// blocking clauses, chrono backtracks, CDCL conflicts, decisions and
/// propagations, cube count, cube-list digest.
fn baseline_pinned(stats: &AllSatCounters, cubes: &CubeSet) -> [u64; 8] {
    [
        stats.solver_calls,
        stats.blocking_clauses,
        stats.chrono_backtracks,
        stats.sat.conflicts,
        stats.sat.decisions,
        stats.sat.propagations,
        cubes.len() as u64,
        cube_digest(cubes),
    ]
}

/// FNV-1a over a cube set in sorted order: pins which cubes an engine
/// found, not the order it found them in.
fn sorted_cube_digest(cubes: &CubeSet) -> u64 {
    let mut sorted: Vec<&Cube> = cubes.iter().collect();
    sorted.sort_unstable();
    cube_digest(sorted)
}

/// The six problems the baseline pins run: the five random 3-CNFs of
/// `success_driven_work_counters_are_pinned` projected onto their first
/// 12 variables, then the `parity(8)` preimage of its parity latch.
fn baseline_runs(engine: &dyn AllSatEngine, kind: SatPreimage) -> Vec<(AllSatCounters, CubeSet)> {
    let mut runs: Vec<(AllSatCounters, CubeSet)> = (1..=5)
        .map(|seed| {
            let problem = AllSatProblem::new(random_3cnf(seed, 24, 66), Var::range(12).collect());
            let r = engine.enumerate(&problem);
            assert!(r.complete, "{} seed {seed}", engine.name());
            (r.stats, r.cubes)
        })
        .collect();
    let r = kind.preimage(&generators::parity(8), &StateSet::from_state_bits(3, 9));
    runs.push((r.stats.allsat, r.states.cubes().clone()));
    runs
}

/// Golden work of the two baselines that run a search of their own
/// design: min-blocking, whose lifted cover depends on the order of its
/// models, and chrono, which drives the decision stack itself. Every
/// counter and the ordered cube list are pinned, so no change to the
/// solver's enumeration entry points may move either engine.
#[test]
fn min_blocking_and_chrono_work_is_pinned() {
    use presat::allsat::{ChronoAllSat, MinimizedBlockingAllSat};

    let got: Vec<[u64; 8]> =
        baseline_runs(&MinimizedBlockingAllSat::new(), SatPreimage::min_blocking())
            .iter()
            .chain(&baseline_runs(&ChronoAllSat::new(), SatPreimage::chrono()))
            .map(|(stats, cubes)| baseline_pinned(stats, cubes))
            .collect();
    let want: [[u64; 8]; 12] = [
        // min-blocking: five random 3-CNFs, then the parity(8) preimage
        [117, 117, 0, 98, 1181, 3345, 104, 11205744616257318515],
        [19, 19, 0, 25, 150, 608, 17, 1927518456839400242],
        [57, 57, 0, 65, 501, 1777, 49, 14112125831840501120],
        [92, 91, 0, 97, 861, 2743, 86, 6371092876499726624],
        [50, 50, 0, 43, 475, 1415, 41, 14825852877368371960],
        [128, 128, 0, 175, 885, 5112, 128, 177390817022236321],
        // chrono: the same six problems
        [1, 0, 429, 101, 2277, 4603, 329, 8267477318957992065],
        [1, 0, 210, 151, 540, 1581, 60, 3591139321500767540],
        [1, 0, 225, 137, 684, 1826, 89, 12728153627424808150],
        [1, 0, 589, 123, 2473, 5816, 467, 3991348446403009088],
        [1, 0, 345, 137, 1572, 3462, 209, 5842231895759896058],
        [1, 0, 127, 0, 382, 1119, 128, 15443515899006749957],
    ];
    assert_eq!(got, want);
}

/// Golden answers of plain blocking on the same six problems: the cube
/// count, the blocking-clause count (one per minterm) and the sorted cube
/// set. The order of the cubes follows the order of the models, which
/// the search may change; the set may not.
#[test]
fn plain_blocking_answers_are_pinned() {
    let got: Vec<[u64; 3]> = baseline_runs(&BlockingAllSat::new(), SatPreimage::blocking())
        .iter()
        .map(|(stats, cubes)| {
            [
                cubes.len() as u64,
                stats.blocking_clauses,
                sorted_cube_digest(cubes),
            ]
        })
        .collect();
    let want: [[u64; 3]; 6] = [
        [397, 397, 12134979591538034803],
        [72, 72, 15253096072498424366],
        [134, 134, 15763832953203149577],
        [484, 484, 16744784755451231494],
        [242, 242, 16168922754121470166],
        [256, 256, 7103270254371617349],
    ];
    assert_eq!(got, want);
}

/// Plain blocking continues its search from each model instead of
/// restarting it. The preimage of "latch 0 = 1" on a 12-bit shift
/// register holds all 4 096 states, and a search that restarted from
/// level 0 per model spent 38 557 decisions and 52 911 propagations on
/// it; one that backjumps from each model needs about one decision and
/// two propagations per minterm.
#[test]
fn plain_blocking_work_per_minterm_is_bounded() {
    let r = SatPreimage::blocking().preimage(
        &generators::shift_register(12),
        &StateSet::from_partial(&[(0, true)]),
    );
    let cubes = r.stats.result_cubes;
    assert_eq!(cubes, 4096);
    assert_eq!(r.stats.allsat.blocking_clauses, 4096);
    let sat = &r.stats.allsat.sat;
    assert!(
        sat.decisions <= 2 * cubes && sat.propagations <= 4 * cubes,
        "decisions {} and propagations {} for {cubes} cubes",
        sat.decisions,
        sat.propagations
    );
}
