//! `presat-perf`: the end-to-end performance suite.
//!
//! ```text
//! presat-perf --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//!             [--spans <file>] [--out <file>]
//! ```
//!
//! One run sets the workload up, measures it for `--seconds`, checks every
//! answer it timed, and prints a header line, one `metric <name> <value>
//! <unit>` line per metric, and as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. An untraced run reports
//! the end-to-end metrics; a traced run (`--trace 1`) records spans around
//! the calls into each layer and reports the per-layer metrics. `--spans`
//! writes the spans as JSON lines and `--out` the result with its header.
//! The exit code is 0 for a correct run, 1 when an answer was wrong and 2
//! on any other error.

use std::process::ExitCode;

mod inputs;
mod metrics;
mod reference;
mod stats;
mod sys;
mod trace;
mod workloads;

use metrics::{catalogue, Report};
use workloads::RunConfig;

/// The measured phase's length when `--seconds` is not given. It equals
/// `run_seconds` in `BENCHMARK.json`, which runs of the benchmark pass as
/// `--seconds`, and the workloads' sizes and bounds were calibrated at it;
/// a unit test keeps the two equal.
const DEFAULT_SECONDS: u64 = 25;

/// Longest measured phase accepted, the largest `run_seconds` allowed.
const MAX_SECONDS: u64 = 60;

const USAGE: &str = "usage: presat-perf --workload <name> --seed <n> [--seconds <s>] \
                     [--trace 0|1] [--spans <file>] [--out <file>]";

/// The command line, checked.
#[derive(Debug, PartialEq, Eq)]
struct Args {
    workload: String,
    cfg: RunConfig,
    spans: Option<String>,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = DEFAULT_SECONDS;
    let mut traced = false;
    let mut spans = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse::<u64>().map_err(|e| format!("--seed {v:?}: {e}"))?);
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<u64>()
                    .ok()
                    .filter(|s| (1..=MAX_SECONDS).contains(s))
                    .ok_or_else(|| format!("--seconds {v:?}: expected 1 to {MAX_SECONDS}"))?;
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v:?}: expected 0 or 1")),
                };
            }
            "--spans" => spans = Some(value()?.clone()),
            "--out" => out = Some(value()?.clone()),
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (valid: {})",
            workloads::NAMES.join(", ")
        ));
    }
    if spans.is_some() && !traced {
        return Err("--spans needs --trace 1".into());
    }
    Ok(Args {
        workload,
        cfg: RunConfig {
            seed: seed.ok_or_else(|| format!("--seed is required\n{USAGE}"))?,
            seconds,
            traced,
        },
        spans,
        out,
    })
}

fn write_file(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Runs the suite; `Ok(false)` means an answer was wrong.
fn run() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    let outcome = workloads::run(&args.workload, &args.cfg)?;
    let report = Report {
        workload: args.workload,
        seed: args.cfg.seed,
        traced: args.cfg.traced,
        seconds: args.cfg.seconds,
        correct: outcome.correct,
        attempted: outcome.attempted,
        failed: outcome.failed,
        samples: outcome.samples,
        metrics: outcome.metrics.finish(catalogue(args.cfg.traced))?,
    };
    if let Some(path) = &args.spans {
        let lines: String = outcome.spans.iter().map(|s| s.to_json() + "\n").collect();
        write_file(path, &lines)?;
    }
    if let Some(path) = &args.out {
        write_file(path, &(report.full_json() + "\n"))?;
    }
    for line in report.text_lines() {
        println!("{line}");
    }
    println!("{}", report.result_line());
    Ok(report.correct)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("presat-perf: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&args(
            "--workload reach-deep --seed 7 --seconds 3 --trace 1",
        ))
        .expect("valid");
        assert_eq!(a.workload, "reach-deep");
        assert_eq!(
            a.cfg,
            RunConfig {
                seed: 7,
                seconds: 3,
                traced: true
            }
        );
        let a = parse_args(&args("--seed 1 --workload daemon-mix")).expect("valid");
        assert_eq!((a.cfg.seconds, a.cfg.traced), (DEFAULT_SECONDS, false));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope --seed 1",
            "--workload allsat-par",
            "--workload allsat-par --seed x",
            "--workload allsat-par --seed 1 --seconds 0",
            "--workload allsat-par --seed 1 --seconds 61",
            "--workload allsat-par --seed 1 --trace 2",
            "--workload allsat-par --seed 1 --spans s.jsonl",
            "--workload allsat-par --seed 1 --bogus",
            "--workload allsat-par --seed",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
