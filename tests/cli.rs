//! End-to-end tests of the `presat` command-line binary.

use std::io::Write;
use std::process::Command;

fn presat(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_presat"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("presat-cli-tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join(format!("{}-{name}", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("create");
    f.write_all(contents.as_bytes()).expect("write");
    path
}

const TOGGLE_BENCH: &str = "INPUT(en)\nOUTPUT(q)\ns = DFF(n)\nn = XOR(en, s)\nq = BUFF(s)\n";

/// A 3-bit binary counter (`s' = s + 1`) in ASCII AIGER:
/// latch 0 toggles, latch 1 xors with l0, latch 2 xors with the carry
/// `l0 ∧ l1` (XOR spelled with three AND gates each).
const COUNTER3_AAG: &str = "\
aag 10 0 3 1 7
2 3
4 13
6 21
6
8 2 5
10 3 4
12 9 11
14 2 4
16 6 15
18 7 14
20 17 19
";

#[test]
fn solve_sat_instance() {
    let cnf = write_temp("sat.cnf", "p cnf 2 2\n1 2 0\n-1 2 0\n");
    let out = presat(&["solve", cnf.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(10));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("s SATISFIABLE"));
    assert!(stdout.contains("v "));
    // x2 must be true in every model.
    assert!(stdout.contains(" 2 "));
}

#[test]
fn solve_unsat_instance() {
    let cnf = write_temp("unsat.cnf", "p cnf 1 2\n1 0\n-1 0\n");
    let out = presat(&["solve", cnf.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(20));
    assert!(String::from_utf8_lossy(&out.stdout).contains("s UNSATISFIABLE"));
}

#[test]
fn allsat_projection() {
    // (x1 ∨ x2) projected onto x1: both phases possible → 1 top cube? No:
    // projection = {x1=0 (x2=1 completes), x1=1} = everything → 2 minterms.
    let cnf = write_temp("allsat.cnf", "p cnf 2 1\n1 2 0\n");
    let out = presat(&["allsat", cnf.to_str().unwrap(), "--project", "1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 minterms"), "{stdout}");
}

#[test]
fn allsat_engine_flag() {
    let cnf = write_temp("allsat2.cnf", "p cnf 3 1\n1 -2 3 0\n");
    for engine in ["blocking", "min-blocking", "success-driven", "chrono"] {
        let out = presat(&[
            "allsat",
            cnf.to_str().unwrap(),
            "--project",
            "3",
            "--engine",
            engine,
        ]);
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("7 minterms"), "{engine}: {stdout}");
    }
}

#[test]
fn info_reads_bench() {
    let path = write_temp("toggle.bench", TOGGLE_BENCH);
    let out = presat(&["info", path.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("PI=1"));
    assert!(stdout.contains("L=1"));
}

#[test]
fn preimage_on_aiger_counter() {
    let path = write_temp("cnt3.aag", COUNTER3_AAG);
    let out = presat(&["preimage", path.to_str().unwrap(), "--target", "5"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 states"), "{stdout}");
}

#[test]
fn preimage_cube_target_and_engines() {
    let path = write_temp("toggle2.bench", TOGGLE_BENCH);
    for engine in [
        "blocking",
        "min-blocking",
        "success-driven",
        "chrono",
        "bdd-sub",
        "bdd-mono",
    ] {
        let out = presat(&[
            "preimage",
            path.to_str().unwrap(),
            "--target",
            "0=1",
            "--engine",
            engine,
        ]);
        assert!(out.status.success(), "{engine}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        // either state can step into s=1 (en chooses): 2 states
        assert!(stdout.contains("2 states"), "{engine}: {stdout}");
    }
}

#[test]
fn reach_and_justify_on_counter() {
    let path = write_temp("cnt3b.aag", COUNTER3_AAG);
    let out = presat(&["reach", path.to_str().unwrap(), "--target", "0"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("8 backward-reachable states"), "{stdout}");

    let out = presat(&[
        "justify",
        path.to_str().unwrap(),
        "--from",
        "3",
        "--target",
        "6",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("justifiable in 3 cycles"), "{stdout}");
}

#[test]
fn image_command() {
    let path = write_temp("cnt3c.aag", COUNTER3_AAG);
    let out = presat(&["image", path.to_str().unwrap(), "--source", "7"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 states"), "{stdout}");
}

/// `image --stats` prints the run's counters as `preimage --stats` does:
/// one JSON object ahead of the image, on the SAT and on the BDD path.
#[test]
fn image_stats_emit_json_counters() {
    use presat::obs::json;

    let path = write_temp("cnt3i.aag", COUNTER3_AAG);
    for (engine, solver_calls) in [("success-driven", true), ("bdd-sub", false)] {
        let out = presat(&[
            "image",
            path.to_str().unwrap(),
            "--source",
            "7",
            "--engine",
            engine,
            "--stats",
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let json_line = stdout
            .lines()
            .next()
            .filter(|l| l.starts_with('{'))
            .unwrap_or_else(|| panic!("{engine}: no leading JSON line in {stdout}"));
        json::validate(json_line).unwrap_or_else(|e| panic!("{e}\n{json_line}"));
        assert_eq!(
            json::extract_u64(json_line, "preimage.result_cubes"),
            Some(1),
            "{engine}: {json_line}"
        );
        assert_eq!(
            json::extract_u64(json_line, "allsat.solver_calls").unwrap_or(0) > 0,
            solver_calls,
            "{engine}: {json_line}"
        );
        assert!(stdout.contains("image: 1 states"), "{engine}: {stdout}");
    }
}

#[test]
fn excite_command() {
    let path = write_temp("toggle4.bench", TOGGLE_BENCH);
    // q = s: excitable (value 1) exactly from the state with s = 1.
    let out = presat(&["excite", path.to_str().unwrap(), "--output", "0"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 states"), "{stdout}");
    // value 0: the other state.
    let out = presat(&[
        "excite",
        path.to_str().unwrap(),
        "--output",
        "0",
        "--value",
        "0",
    ]);
    assert!(out.status.success());
    // out-of-range output index errors cleanly.
    let out = presat(&["excite", path.to_str().unwrap(), "--output", "7"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn helpful_errors() {
    let out = presat(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = presat(&["preimage", "/nonexistent.bench", "--target", "0"]);
    assert_eq!(out.status.code(), Some(2));

    let path = write_temp("toggle3.bench", TOGGLE_BENCH);
    let out = presat(&["preimage", path.to_str().unwrap(), "--target", "9=1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of range"));
}

#[test]
fn depth_command() {
    let path = write_temp("cnt3d.aag", COUNTER3_AAG);
    let out = presat(&["depth", path.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("sequential depth from the initial set: 7"),
        "{stdout}"
    );
    let out = presat(&["depth", path.to_str().unwrap(), "--initial", "6"]);
    assert!(String::from_utf8_lossy(&out.stdout).contains(": 7"));
}

/// `depth` keeps no counters, so `--stats` is an error, not a flag it
/// silently ignores.
#[test]
fn depth_rejects_stats() {
    let path = write_temp("cnt3e.aag", COUNTER3_AAG);
    let out = presat(&["depth", path.to_str().unwrap(), "--stats"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("depth: --stats is not supported"),
        "{stderr}"
    );
}

/// `--stats` emits one well-formed JSON object whose counters come from
/// all three instrumented layers (CDCL, all-SAT, preimage).
#[test]
fn stats_flag_emits_json_counters() {
    use presat::obs::json;

    // preimage: SAT + all-SAT + preimage layers all populated.
    let path = write_temp("cnt3s.aag", COUNTER3_AAG);
    let out = presat(&[
        "preimage",
        path.to_str().unwrap(),
        "--target",
        "5",
        "--stats",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json_line = stdout
        .lines()
        .find(|l| l.starts_with('{'))
        .unwrap_or_else(|| panic!("no JSON line in {stdout}"));
    json::validate(json_line).unwrap_or_else(|e| panic!("{e}\n{json_line}"));
    for key in [
        "sat.decisions",
        "sat.conflicts",
        "allsat.solutions",
        "allsat.blocking_clauses",
        "preimage.result_cubes",
    ] {
        assert!(
            json::extract_u64(json_line, key).is_some(),
            "missing {key}: {json_line}"
        );
    }
    assert!(json::extract_u64(json_line, "wall_time_ns").unwrap_or(0) > 0);
    // The preimage of one counter state is one state: one solver call found
    // it, so the all-SAT layer genuinely counted.
    assert!(json::extract_u64(json_line, "allsat.solver_calls").unwrap_or(0) > 0);

    // solve: the SAT layer alone.
    let cnf = write_temp("stats.cnf", "p cnf 2 2\n1 2 0\n-1 2 0\n");
    let out = presat(&["solve", cnf.to_str().unwrap(), "--stats"]);
    assert_eq!(out.status.code(), Some(10));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json_line = stdout
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("JSON line");
    json::validate(json_line).unwrap();
    assert_eq!(json::extract_u64(json_line, "sat.solves"), Some(1));

    // allsat and reach accept the flag too.
    let out = presat(&["allsat", cnf.to_str().unwrap(), "--project", "1", "--stats"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json_line = stdout
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("JSON line");
    json::validate(json_line).unwrap();
    assert!(json::extract_u64(json_line, "allsat.solutions").unwrap_or(0) > 0);

    let out = presat(&["reach", path.to_str().unwrap(), "--target", "0", "--stats"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json_line = stdout
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("JSON line");
    json::validate(json_line).unwrap();
    assert_eq!(json::extract_u64(json_line, "preimage.iterations"), Some(8));
}

/// `reach --stats` reports every counter of every layer under its block:
/// each `FIELDS` key of the three counter tables appears, as an integer,
/// in the parsed JSON.
#[test]
fn reach_stats_report_every_counter() {
    use presat::obs::json::Json;
    use presat::obs::{AllSatCounters, PreimageCounters, SatCounters};

    let path = write_temp("cnt3f.aag", COUNTER3_AAG);
    let out = presat(&["reach", path.to_str().unwrap(), "--target", "0", "--stats"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json_line = stdout
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("JSON line");
    let json = Json::parse(json_line).unwrap_or_else(|e| panic!("{e}\n{json_line}"));
    for (block, keys) in [
        ("sat", SatCounters::FIELDS),
        ("allsat", AllSatCounters::FIELDS),
        ("preimage", PreimageCounters::FIELDS),
    ] {
        for key in keys {
            assert!(
                json.get(block)
                    .and_then(|b| b.get(key))
                    .and_then(Json::as_u64)
                    .is_some(),
                "stats JSON lacks {block}.{key}: {json_line}"
            );
        }
    }
}

/// The `db_clauses_peak` gauge counts the clauses a solver inherits: a
/// session call (`reach`) and a partition worker (`--jobs 2`) read at
/// least what the one-shot reference run reads, which on these small
/// runs is its problem-clause count.
#[test]
fn db_gauge_counts_inherited_clauses() {
    use presat::obs::json;

    let counter = write_temp("cnt3g.aag", COUNTER3_AAG);
    let cnf = write_temp(
        "six.cnf",
        "p cnf 6 6\n1 2 -3 0\n-1 4 5 0\n2 -4 6 0\n-2 3 -6 0\n1 -5 6 0\n3 4 -5 0\n",
    );
    // `C` stands for the counter circuit, `F` for the CNF.
    let peak = |command: &str| {
        let mut args: Vec<&str> = command
            .split(' ')
            .map(|a| match a {
                "C" => counter.to_str().unwrap(),
                "F" => cnf.to_str().unwrap(),
                a => a,
            })
            .collect();
        args.push("--stats");
        let out = presat(&args);
        assert!(out.status.success(), "{command}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let json_line = stdout
            .lines()
            .find(|l| l.starts_with('{'))
            .expect("JSON line");
        json::extract_u64(json_line, "allsat.db_clauses_peak").expect("gauge")
    };
    for (case, reference) in [
        ("reach C --target 0", "reach C --target 0 --no-incremental"),
        (
            "preimage C --target 5 --jobs 2 --par-threshold 0",
            "preimage C --target 5 --jobs 1",
        ),
        (
            "allsat F --project 4 --jobs 2",
            "allsat F --project 4 --jobs 1",
        ),
    ] {
        let want = peak(reference);
        assert!(want > 0, "{reference}");
        let got = peak(case);
        assert!(got >= want, "{case} reads {got}, {reference} reads {want}");
    }
}

/// An unknown `--engine` name is a hard error on every command that takes
/// the flag — including `image`, which used to fall through silently to
/// the SAT path — and the error names the valid engines.
#[test]
fn unknown_engine_is_a_hard_error_listing_valid_engines() {
    let circuit = write_temp("toggle-eng.bench", TOGGLE_BENCH);
    let cnf = write_temp("eng.cnf", "p cnf 2 1\n1 2 0\n");
    let cases: [&[&str]; 4] = [
        &["allsat", cnf.to_str().unwrap(), "--project", "1"],
        &["preimage", circuit.to_str().unwrap(), "--target", "0=1"],
        &["image", circuit.to_str().unwrap(), "--source", "0=1"],
        &["reach", circuit.to_str().unwrap(), "--target", "0=1"],
    ];
    for case in cases {
        let mut args: Vec<&str> = case.to_vec();
        args.extend(["--engine", "frobnicate"]);
        let out = presat(&args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{case:?} accepted a bogus engine"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown engine"), "{case:?}: {stderr}");
        assert!(
            stderr.contains("valid engines") && stderr.contains("chrono"),
            "{case:?} error does not list valid engines: {stderr}"
        );
    }
}

/// Combining `--engine` with an option that engine ignores used to be a
/// silent no-op (e.g. `--engine chrono --jobs 8` enumerating on one
/// thread). Now it warns once on stderr, naming the options the selected
/// engine consumes — without changing the result or the exit status.
#[test]
fn engine_ignored_flags_warn_on_stderr() {
    let circuit = write_temp("toggle-warn.bench", TOGGLE_BENCH);
    let out = presat(&[
        "preimage",
        circuit.to_str().unwrap(),
        "--target",
        "0=1",
        "--engine",
        "chrono",
        "--jobs",
        "4",
    ]);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("warning") && stderr.contains("--jobs") && stderr.contains("chrono"),
        "no ignored-flag warning: {stderr}"
    );
    assert_eq!(
        stderr.matches("warning").count(),
        1,
        "warning must appear exactly once: {stderr}"
    );
    // The consuming engine gets no warning.
    let out = presat(&[
        "preimage",
        circuit.to_str().unwrap(),
        "--target",
        "0=1",
        "--engine",
        "success-driven",
        "--jobs",
        "2",
    ]);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.is_empty(), "spurious warning: {stderr}");
    // A BDD engine consumes none of the engine-tunable options; the
    // warning says so.
    let out = presat(&[
        "reach",
        circuit.to_str().unwrap(),
        "--target",
        "0=1",
        "--engine",
        "bdd-sub",
        "--par-threshold",
        "0",
    ]);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--par-threshold") && stderr.contains("no engine-specific options"),
        "{stderr}"
    );
}

#[test]
fn usage_without_arguments() {
    let out = presat(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}
