//! The `presatd` daemon binary.
//!
//! ```text
//! presatd --stdin                          serve one client on stdin/stdout
//! presatd --listen 127.0.0.1:7979         serve TCP clients
//! presatd --unix /tmp/presatd.sock        serve Unix-socket clients (unix)
//! ```
//!
//! Options:
//!
//! * `--jobs <n>` — scheduler worker threads (`0` = auto, the default).
//! * `--slice-conflicts <n>` — conflict quantum per slice (default 20000):
//!   the fairness granularity at which jobs round-robin.
//! * `--max-arena-bytes <n>` — admission ceiling: reject *new* sessions
//!   while the live jobs' summed solver-arena bytes are at or above this.
//! * `--global-conflict-budget <n>` — one shared conflict pot for the
//!   whole fleet; when drained, every running job finishes with a sound
//!   partial result (`stop_reason` set).
//!
//! Protocol: one JSON request per line (see `presatd::protocol`); every
//! response event echoes the request's `"id"`. Quick start:
//!
//! ```text
//! echo '{"op":"allsat","id":"r1","cnf":"p cnf 2 1\n1 2 0\n","project":2}' \
//!   | presatd --stdin
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use presatd::scheduler::{Config, Scheduler};
use presatd::server;

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

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_u64(args: &[String], flag: &str) -> Result<Option<u64>, String> {
    match flag_value(args, flag) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("bad {flag} (want a non-negative number)")),
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return Ok(ExitCode::SUCCESS);
    }
    let mut config = Config::default();
    if let Some(jobs) = parse_u64(args, "--jobs")? {
        config.jobs = usize::try_from(jobs).map_err(|_| String::from("bad --jobs"))?;
    }
    if let Some(quantum) = parse_u64(args, "--slice-conflicts")? {
        config.slice_conflicts = quantum.max(1);
    }
    config.max_arena_bytes = parse_u64(args, "--max-arena-bytes")?;
    config.global_conflict_budget = parse_u64(args, "--global-conflict-budget")?;

    let stdin_mode = args.iter().any(|a| a == "--stdin");
    let listen = flag_value(args, "--listen");
    let unix = flag_value(args, "--unix");
    let modes =
        usize::from(stdin_mode) + usize::from(listen.is_some()) + usize::from(unix.is_some());
    if modes != 1 {
        print_usage();
        return Err("give exactly one of --stdin, --listen <addr>, --unix <path>".into());
    }

    let scheduler = Arc::new(Scheduler::new(config));
    if stdin_mode {
        server::run_stdin(&scheduler);
    } else if let Some(addr) = listen {
        server::run_tcp(&scheduler, addr)?;
    } else if let Some(path) = unix {
        #[cfg(unix)]
        server::run_unix(&scheduler, path)?;
        #[cfg(not(unix))]
        return Err(format!("--unix {path:?} is not supported on this platform"));
    }
    match Arc::try_unwrap(scheduler) {
        Ok(sched) => sched.join(),
        Err(shared) => shared.begin_shutdown(),
    }
    Ok(ExitCode::SUCCESS)
}

fn print_usage() {
    eprintln!(
        "usage: presatd (--stdin | --listen <addr> | --unix <path>) [options]\n\
         options:\n\
         \x20 --jobs <n>                    worker threads (0 = auto)\n\
         \x20 --slice-conflicts <n>         conflict quantum per slice (default 20000)\n\
         \x20 --max-arena-bytes <n>         reject new sessions past this live-arena sum\n\
         \x20 --global-conflict-budget <n>  shared conflict pot for all jobs\n\
         protocol: one JSON request per line, e.g.\n\
         \x20 {{\"op\":\"allsat\",\"id\":\"r1\",\"cnf\":\"p cnf 2 1\\n1 2 0\\n\",\"project\":2}}\n\
         ops: solve, allsat, preimage, reach, stats, cancel, shutdown"
    );
}
