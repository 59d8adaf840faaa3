//! The `presat` command-line tool.
//!
//! ```text
//! presat solve <file.cnf>                          SAT-solve a DIMACS file
//! presat allsat <file.cnf> --project <k>           enumerate models projected
//!                                                  onto variables 1..k
//! presat info <circuit>                            circuit summary
//! presat preimage <circuit> --target <spec>        one-step preimage
//! presat image <circuit> --source <spec>           one-step forward image
//! presat reach <circuit> --target <spec>           backward reachability
//! presat justify <circuit> --from <bits> --target <spec>
//!                                                  extract an input trace
//! presat excite <circuit> --output <k> [--value 0|1]
//!                                                  output excitation set
//! ```
//!
//! `<circuit>` is a `.bench` (ISCAS89) or `.aag` (ASCII AIGER) file.
//! `<spec>` is either a bit pattern (`0b1010` / decimal) naming one state,
//! or a cube `latch=value,...` such as `3=1,0=0` (unlisted latches free).
//! `--engine` selects `blocking`, `min-blocking`, `success-driven`
//! (default), `chrono` (blocking-clause-free chronological backtracking),
//! `bdd-sub`, or `bdd-mono` where applicable; an unrecognized name is a
//! hard error listing the valid engines.
//! `--jobs <n>` runs the success-driven enumeration on `n` worker threads
//! (`0` = auto-detect, default 1); the output is bit-identical at every
//! thread count.
//! `--par-threshold <n>` sets the size product below which a preimage
//! step skips the worker fleet and runs sequentially (`0` = always
//! parallel); it is set on the engine, whose `reach` session inherits it.
//! It only moves scheduling and work counters — the output is
//! bit-identical regardless.
//! Combining `--engine` with an option the selected engine ignores prints
//! a one-line warning on stderr naming the options that engine consumes.
//! `reach` drives the fixed point through one persistent solver session by
//! default (`--incremental`); `--no-incremental` rebuilds the encoding per
//! iteration. The report is bit-identical either way.
//! `--stats` appends one JSON object with the run's counters (SAT,
//! all-SAT, and preimage layers) to stdout — see `presat_obs::Stats`.
//! `--timeout-ms <n>` / `--conflict-budget <n>` bound `solve`, `allsat`,
//! and `reach`; `--max-solutions <n>` bounds `allsat`. A run that trips a
//! limit stops with a *partial but sound* result flagged
//! `"complete":false` (plus a `stop_reason`) in the stats JSON — `solve`
//! then prints `s UNKNOWN` (exit 0) rather than lying about UNSAT.

use std::path::Path;
use std::process::ExitCode;

use presat::allsat::{
    AllSatEngine, AllSatProblem, BlockingAllSat, ChronoAllSat, EnumLimits,
    MinimizedBlockingAllSat, ParallelAllSat,
};
use presat::circuit::{aiger, bench, Circuit};
use presat::logic::{dimacs, Var};
use presat::obs::{NullSink, Stats, Timer};
// `parse_state_spec`/`parse_bits64` are the shared spec-parsing path: the
// `presatd` daemon protocol accepts and rejects exactly the same state
// specs as this CLI, including arbitrary-width 0b/0x patterns for circuits
// with more than 64 latches.
use presat::preimage::{
    backward_reach, bdd_image, justify, parse_bits64, parse_state_spec, sat_image, BddPreimage,
    PreimageEngine, ReachOptions, SatPreimage, StateSet,
};
use presat::sat::{Budget, SolveResult, Solver};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(command) = args.first() else {
        print_usage();
        return Ok(ExitCode::from(2));
    };
    let rest = &args[1..];
    match command.as_str() {
        "solve" => cmd_solve(rest),
        "allsat" => cmd_allsat(rest),
        "info" => cmd_info(rest),
        "preimage" => cmd_preimage(rest),
        "image" => cmd_image(rest),
        "reach" => cmd_reach(rest),
        "justify" => cmd_justify(rest),
        "excite" => cmd_excite(rest),
        "depth" => cmd_depth(rest),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other:?}; try `presat help`")),
    }
}

fn print_usage() {
    eprintln!(
        "usage: presat <command> [options]\n\
         commands:\n\
         \x20 solve <file.cnf>                         decide satisfiability\n\
         \x20 allsat <file.cnf> --project <k>          enumerate projected models\n\
         \x20 info <circuit>                           circuit summary\n\
         \x20 preimage <circuit> --target <spec>       one-step preimage\n\
         \x20 image <circuit> --source <spec>          one-step forward image\n\
         \x20 reach <circuit> --target <spec>          backward reachability\n\
         \x20 justify <circuit> --from <bits> --target <spec>\n\
         \x20 excite <circuit> --output <k> [--value 0|1]\n\
         \x20 depth <circuit> [--initial <spec>]\n\
         options: --engine blocking|min-blocking|success-driven|chrono|bdd-sub|bdd-mono\n\
         \x20        --max-iter <n>\n\
         \x20        --incremental / --no-incremental  (reach only; default on:\n\
         \x20                    one persistent solver session across the whole\n\
         \x20                    fixed point; results are bit-identical)\n\
         \x20        --jobs <n>  success-driven worker threads (0 = auto,\n\
         \x20                    default 1; the result is bit-identical at\n\
         \x20                    every thread count)\n\
         \x20        --par-threshold <n>  size product below which a step\n\
         \x20                    runs sequentially despite --jobs (0 = always\n\
         \x20                    parallel)\n\
         \x20        --timeout-ms <n>       wall-clock budget (solve/allsat/reach);\n\
         \x20                    on expiry the run stops with a partial result\n\
         \x20                    flagged incomplete, never a fake UNSAT\n\
         \x20        --conflict-budget <n>  CDCL conflict budget (solve/allsat/reach)\n\
         \x20        --max-solutions <n>    stop allsat after ~n solutions\n\
         \x20        --stats   (emit a JSON counters object on stdout)\n\
         spec:    a state bit pattern (42, 0b1010, 0x2a) or a cube `j=v,...`"
    );
}

/// Fetches the value following a `--flag`.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// True if the bare flag is present.
fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn load_circuit(path: &str) -> Result<Circuit, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let ext = Path::new(path)
        .extension()
        .and_then(|e| e.to_str())
        .unwrap_or("");
    let mut circuit = match ext {
        "aag" => aiger::parse(&text).map_err(|e| format!("{path}: {e}"))?,
        _ => bench::parse(&text).map_err(|e| format!("{path}: {e}"))?,
    };
    if let Some(stem) = Path::new(path).file_stem().and_then(|s| s.to_str()) {
        circuit.set_name(stem);
    }
    circuit.validate().map_err(|e| format!("{path}: {e}"))?;
    Ok(circuit)
}

/// Parses the anytime flags shared by `solve`, `allsat`, and `reach`:
/// `--timeout-ms <n>`, `--conflict-budget <n>`, `--max-solutions <n>`.
/// A run that trips one of these stops early and reports a partial result
/// flagged incomplete — it never claims UNSAT or a converged fixed point.
fn limits_from_flags(args: &[String]) -> Result<EnumLimits, String> {
    let mut budget = Budget::unlimited();
    if let Some(v) = flag_value(args, "--timeout-ms") {
        let ms: u64 = v
            .parse()
            .map_err(|_| String::from("bad --timeout-ms (want milliseconds)"))?;
        budget = budget.with_timeout(std::time::Duration::from_millis(ms));
    }
    if let Some(v) = flag_value(args, "--conflict-budget") {
        let n: u64 = v
            .parse()
            .map_err(|_| String::from("bad --conflict-budget (want a number)"))?;
        budget = budget.with_conflicts(n);
    }
    let mut limits = EnumLimits::none().with_budget(budget);
    if let Some(v) = flag_value(args, "--max-solutions") {
        let n: u64 = v
            .parse()
            .map_err(|_| String::from("bad --max-solutions (want a number)"))?;
        limits = limits.with_max_solutions(n);
    }
    Ok(limits)
}

/// Parses `--jobs <n>` (worker threads; `0` = auto, default `1`).
fn jobs_from_flag(args: &[String]) -> Result<usize, String> {
    match flag_value(args, "--jobs") {
        Some(v) => v.parse().map_err(|_| "bad --jobs (want a number)".into()),
        None => Ok(1),
    }
}

/// The `--engine` names the circuit commands accept, for error messages.
const CIRCUIT_ENGINES: &str = "blocking, min-blocking, success-driven, chrono, bdd-sub, bdd-mono";

/// Engine-tunable options and the engines that consume them. Any other
/// engine silently ignores the flag, which [`warn_ignored_engine_flags`]
/// turns into a visible stderr warning.
const ENGINE_FLAGS: &[(&str, &[&str])] = &[
    ("--jobs", &["success-driven"]),
    ("--par-threshold", &["success-driven"]),
];

/// Warns once on stderr when `--engine` is combined with engine-tunable
/// options the selected engine ignores, listing what it does consume.
/// A typo'd pipeline otherwise runs to completion with the option silently
/// dropped — e.g. `--engine chrono --jobs 8` enumerating single-threaded.
fn warn_ignored_engine_flags(args: &[String], engine: &str) {
    let ignored: Vec<&str> = ENGINE_FLAGS
        .iter()
        .filter(|(flag, consumers)| has_flag(args, flag) && !consumers.contains(&engine))
        .map(|(flag, _)| *flag)
        .collect();
    if ignored.is_empty() {
        return;
    }
    let consumed: Vec<&str> = ENGINE_FLAGS
        .iter()
        .filter(|(_, consumers)| consumers.contains(&engine))
        .map(|(flag, _)| *flag)
        .collect();
    let consumes = if consumed.is_empty() {
        String::from("no engine-specific options")
    } else {
        consumed.join(", ")
    };
    eprintln!(
        "warning: engine {engine:?} ignores {}; it consumes {consumes}",
        ignored.join(", ")
    );
}

/// Parses the spawn gate `--par-threshold <n>` (`None` when absent — the
/// engine's default applies).
fn par_threshold_from_flag(args: &[String]) -> Result<Option<u64>, String> {
    flag_value(args, "--par-threshold")
        .map(|v| {
            v.parse()
                .map_err(|_| String::from("bad --par-threshold (want a number)"))
        })
        .transpose()
}

fn sat_engine_from_flag(args: &[String]) -> Result<Box<dyn PreimageEngine>, String> {
    let jobs = jobs_from_flag(args)?;
    let name = flag_value(args, "--engine").unwrap_or("success-driven");
    let engine: Box<dyn PreimageEngine> = match name {
        "blocking" => Box::new(SatPreimage::blocking()),
        "min-blocking" => Box::new(SatPreimage::min_blocking()),
        "chrono" => Box::new(SatPreimage::chrono()),
        "success-driven" => {
            let mut engine = SatPreimage::success_driven().with_jobs(jobs);
            if let Some(t) = par_threshold_from_flag(args)? {
                engine = engine.with_par_threshold(t);
            }
            Box::new(engine)
        }
        "bdd-sub" => Box::new(BddPreimage::substitution()),
        "bdd-mono" => Box::new(BddPreimage::monolithic()),
        other => {
            return Err(format!(
                "unknown engine {other:?} (valid engines: {CIRCUIT_ENGINES})"
            ))
        }
    };
    warn_ignored_engine_flags(args, name);
    Ok(engine)
}

fn cmd_solve(args: &[String]) -> Result<ExitCode, String> {
    let path = args.first().ok_or("solve: missing DIMACS file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let cnf = dimacs::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let limits = limits_from_flags(args)?;
    let timer = Timer::start();
    let mut solver = Solver::from_cnf(&cnf);
    solver.set_budget(limits.budget);
    let solved = solver.solve();
    if has_flag(args, "--stats") {
        let stop = match &solved {
            SolveResult::Unknown(reason) => Some(*reason),
            _ => None,
        };
        let mut stats = Stats::from_sat("cdcl", solver.stats()).with_stop(stop.is_none(), stop);
        stats.wall_time_ns = timer.elapsed_ns();
        println!("{}", stats.to_json());
    }
    match solved {
        SolveResult::Sat(model) => {
            println!("s SATISFIABLE");
            let mut line = String::from("v");
            for i in 0..cnf.num_vars() {
                let value = model.value(Var::new(i)) == Some(true);
                line.push_str(&format!(
                    " {}",
                    if value {
                        (i + 1) as i64
                    } else {
                        -((i + 1) as i64)
                    }
                ));
            }
            println!("{line} 0");
            Ok(ExitCode::from(10)) // SAT-competition convention
        }
        SolveResult::Unsat => {
            println!("s UNSATISFIABLE");
            Ok(ExitCode::from(20))
        }
        SolveResult::Unknown(reason) => {
            // Resource exhaustion is not a verdict: the formula may still
            // be satisfiable, so neither SAT nor UNSAT may be claimed.
            println!("s UNKNOWN ({})", reason.as_str());
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn cmd_allsat(args: &[String]) -> Result<ExitCode, String> {
    let path = args.first().ok_or("allsat: missing DIMACS file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let cnf = dimacs::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let k: usize = flag_value(args, "--project")
        .ok_or("allsat: --project <k> required")?
        .parse()
        .map_err(|_| "allsat: --project expects a number")?;
    if k > cnf.num_vars() {
        return Err(format!(
            "allsat: --project {k} exceeds the formula's {} variables",
            cnf.num_vars()
        ));
    }
    let important: Vec<Var> = Var::range(k).collect();
    let problem = AllSatProblem::new(cnf, important.clone());
    let engine_name = flag_value(args, "--engine").unwrap_or("success-driven");
    let jobs = jobs_from_flag(args)?;
    let limits = limits_from_flags(args)?;
    warn_ignored_engine_flags(args, engine_name);
    let timer = Timer::start();
    let result = match engine_name {
        "blocking" => BlockingAllSat::new().enumerate_limited(&problem, &limits, &mut NullSink),
        "min-blocking" => {
            MinimizedBlockingAllSat::new().enumerate_limited(&problem, &limits, &mut NullSink)
        }
        // At one job the fleet runs the sequential engine itself.
        "success-driven" => {
            let mut engine = ParallelAllSat::new(jobs);
            if let Some(t) = par_threshold_from_flag(args)? {
                engine = engine.with_par_threshold(t);
            }
            engine.enumerate_limited(&problem, &limits, &mut NullSink)
        }
        "chrono" => ChronoAllSat::new().enumerate_limited(&problem, &limits, &mut NullSink),
        other => {
            return Err(format!(
                "unknown engine {other:?} (valid engines: blocking, min-blocking, success-driven, chrono)"
            ))
        }
    };
    if has_flag(args, "--stats") {
        let mut stats = Stats::from_allsat(engine_name, &result.stats_with_store())
            .with_stop(result.complete, result.stop_reason);
        stats.wall_time_ns = timer.elapsed_ns();
        println!("{}", stats.to_json());
    }
    println!(
        "c {} cubes, {} minterms over {} variables [{}]",
        result.cubes.len(),
        result.minterm_count(k),
        k,
        result.stats
    );
    if let Some(reason) = result.stop_reason {
        println!(
            "c INCOMPLETE: stopped by {} — the cubes below are a sound partial enumeration",
            reason.as_str()
        );
    }
    for cube in &result.cubes {
        let mut row = String::new();
        for &l in cube.lits() {
            let v = l.var().index() as i64 + 1;
            row.push_str(&format!("{} ", if l.is_pos() { v } else { -v }));
        }
        println!("{row}0");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_info(args: &[String]) -> Result<ExitCode, String> {
    let path = args.first().ok_or("info: missing circuit file")?;
    let circuit = load_circuit(path)?;
    println!("{}", circuit.summary());
    for (k, (name, _)) in circuit.outputs().iter().enumerate() {
        println!("  output {k}: {name}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_preimage(args: &[String]) -> Result<ExitCode, String> {
    let path = args.first().ok_or("preimage: missing circuit file")?;
    let circuit = load_circuit(path)?;
    let n = circuit.num_latches();
    let target = parse_state_spec(
        flag_value(args, "--target").ok_or("preimage: --target <spec> required")?,
        n,
    )?;
    let engine = sat_engine_from_flag(args)?;
    let result = engine.preimage(&circuit, &target);
    if has_flag(args, "--stats") {
        println!(
            "{}",
            Stats::from_preimage(engine.name(), &result.stats).to_json()
        );
    }
    println!(
        "{}: {} states in {} cubes [{}] in {:.2?}",
        engine.name(),
        result.states.minterm_count(n),
        result.states.num_cubes(),
        result.stats,
        result.elapsed
    );
    for cube in result.states.cubes() {
        println!("  {cube}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_image(args: &[String]) -> Result<ExitCode, String> {
    let path = args.first().ok_or("image: missing circuit file")?;
    let circuit = load_circuit(path)?;
    let n = circuit.num_latches();
    let source = parse_state_spec(
        flag_value(args, "--source").ok_or("image: --source <spec> required")?,
        n,
    )?;
    // The SAT image path enumerates with the default engine regardless of
    // which SAT engine was named, but an unrecognized name must still be a
    // hard error — a typo silently falling through to the SAT path used to
    // mask itself as a valid run.
    let engine_name = flag_value(args, "--engine").unwrap_or("success-driven");
    warn_ignored_engine_flags(args, engine_name);
    let result = match engine_name {
        "bdd-sub" | "bdd-mono" => bdd_image(&circuit, &source),
        "blocking" | "min-blocking" | "success-driven" | "chrono" => sat_image(&circuit, &source),
        other => {
            return Err(format!(
                "unknown engine {other:?} (valid engines: {CIRCUIT_ENGINES})"
            ))
        }
    };
    println!(
        "image: {} states in {} cubes in {:.2?}",
        result.states.minterm_count(n),
        result.states.num_cubes(),
        result.elapsed
    );
    for cube in result.states.cubes() {
        println!("  {cube}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_reach(args: &[String]) -> Result<ExitCode, String> {
    let path = args.first().ok_or("reach: missing circuit file")?;
    let circuit = load_circuit(path)?;
    let n = circuit.num_latches();
    let target = parse_state_spec(
        flag_value(args, "--target").ok_or("reach: --target <spec> required")?,
        n,
    )?;
    let max_iterations = match flag_value(args, "--max-iter") {
        Some(v) => Some(v.parse().map_err(|_| "reach: bad --max-iter")?),
        None => None,
    };
    if has_flag(args, "--incremental") && has_flag(args, "--no-incremental") {
        return Err("reach: --incremental and --no-incremental are mutually exclusive".into());
    }
    let engine = sat_engine_from_flag(args)?;
    // --timeout-ms / --conflict-budget bound the whole fixed point (the
    // total budget); --max-solutions does not apply to reach.
    let limits = limits_from_flags(args)?;
    let report = backward_reach(
        engine.as_ref(),
        &circuit,
        &target,
        ReachOptions {
            max_iterations,
            // Incremental sessions are the default; --no-incremental is
            // the rebuild-per-iteration escape hatch. Results are
            // bit-identical either way.
            incremental: !has_flag(args, "--no-incremental"),
            total_budget: limits.budget,
            ..ReachOptions::default()
        },
    );
    if has_flag(args, "--stats") {
        println!(
            "{}",
            Stats::from_preimage(engine.name(), &report.stats)
                .with_stop(report.complete, report.stop_reason)
                .to_json()
        );
    }
    println!(
        "{}: {} iterations, {} backward-reachable states, converged={}, complete={}",
        engine.name(),
        report.iterations.len(),
        report.reached_states,
        report.converged,
        report.complete
    );
    if let Some(reason) = report.stop_reason {
        println!(
            "  INCOMPLETE: stopped by {} — every state below is verified backward-reachable,\n\
             \x20 but deeper predecessors may exist",
            reason.as_str()
        );
    }
    for row in &report.iterations {
        println!(
            "  iter {:>3}: +{} states (total {}) in {:.2?}",
            row.iteration, row.new_states, row.reached_states, row.elapsed
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_excite(args: &[String]) -> Result<ExitCode, String> {
    use presat::preimage::excitation_set;
    let path = args.first().ok_or("excite: missing circuit file")?;
    let circuit = load_circuit(path)?;
    let n = circuit.num_latches();
    let k: usize = flag_value(args, "--output")
        .ok_or("excite: --output <k> required")?
        .parse()
        .map_err(|_| "excite: bad --output index")?;
    if k >= circuit.num_outputs() {
        return Err(format!(
            "excite: output {k} out of range ({} outputs)",
            circuit.num_outputs()
        ));
    }
    let value = match flag_value(args, "--value").unwrap_or("1") {
        "0" => false,
        "1" => true,
        other => return Err(format!("excite: bad --value {other:?}")),
    };
    let result = excitation_set(&circuit, k, value);
    println!(
        "output {k} = {} excitable from {} states in {} cubes",
        u8::from(value),
        result.states.minterm_count(n),
        result.states.num_cubes()
    );
    for cube in result.states.cubes() {
        println!("  {cube}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_depth(args: &[String]) -> Result<ExitCode, String> {
    use presat::preimage::sequential_depth;
    let path = args.first().ok_or("depth: missing circuit file")?;
    let circuit = load_circuit(path)?;
    let n = circuit.num_latches();
    let initial = match flag_value(args, "--initial") {
        Some(spec) => parse_state_spec(spec, n)?,
        None => StateSet::from_state_bits(0, n), // all-zero reset
    };
    let depth = sequential_depth(&circuit, &initial);
    println!("sequential depth from the initial set: {depth}");
    Ok(ExitCode::SUCCESS)
}

fn cmd_justify(args: &[String]) -> Result<ExitCode, String> {
    let path = args.first().ok_or("justify: missing circuit file")?;
    let circuit = load_circuit(path)?;
    let n = circuit.num_latches();
    let from = parse_bits64(
        flag_value(args, "--from").ok_or("justify: --from <bits> required")?,
        n,
    )?;
    let target = parse_state_spec(
        flag_value(args, "--target").ok_or("justify: --target <spec> required")?,
        n,
    )?;
    let engine = sat_engine_from_flag(args)?;
    match justify(engine.as_ref(), &circuit, from, &target) {
        Some(trace) => {
            println!("justifiable in {} cycles:", trace.len());
            for (t, step) in trace.steps.iter().enumerate() {
                println!(
                    "  cycle {:>3}: state {:0width$b}  inputs {:0iwidth$b}  -> {:0width$b}",
                    t,
                    step.state,
                    step.inputs,
                    step.next_state,
                    width = n,
                    iwidth = circuit.num_inputs().max(1),
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        None => {
            println!("target not reachable from state {from:0n$b}");
            Ok(ExitCode::from(1))
        }
    }
}
