//! Protocol-level tests of the `presatd` daemon binary: hostile inputs,
//! disconnect semantics, and the multi-tenant bit-identity guarantee
//! (interleaved slices yield exactly the sequential cube set).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn daemon_cmd(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_presatd"));
    cmd.args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    cmd
}

/// Runs `presatd --stdin [args…]`, feeds `input`, returns stdout lines.
fn run_stdin(args: &[&str], input: &str) -> Vec<String> {
    let mut all = vec!["--stdin"];
    all.extend_from_slice(args);
    let mut child = daemon_cmd(&all).spawn().expect("daemon spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input.as_bytes())
        .expect("request written");
    let out = child.wait_with_output().expect("daemon exits");
    assert!(
        out.status.success(),
        "daemon failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_string)
        .collect()
}

fn wait_with_deadline(child: &mut Child, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => {
                assert!(status.success(), "{what}: daemon exited with {status}");
                return;
            }
            None if Instant::now() >= deadline => {
                let _ = child.kill();
                panic!("{what}: daemon did not exit in time");
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

#[test]
fn malformed_json_gets_an_error_event_and_the_stream_survives() {
    let lines = run_stdin(
        &[],
        "{this is not json\n{\"op\":\"solve\",\"id\":\"after\",\"cnf\":\"p cnf 1 1\\n1 0\\n\"}\n",
    );
    assert!(
        lines.iter().any(|l| l.contains(r#""event":"error""#)),
        "{lines:?}"
    );
    // The bad line did not poison the connection: the next request ran.
    assert!(
        lines.iter().any(
            |l| l.contains(r#""id":"after","event":"done""#) && l.contains(r#""result":"sat""#)
        ),
        "{lines:?}"
    );
}

#[test]
fn unknown_op_is_rejected_with_the_request_id_echoed() {
    let lines = run_stdin(&[], "{\"op\":\"frobnicate\",\"id\":\"x7\"}\n");
    let err = lines
        .iter()
        .find(|l| l.contains(r#""event":"error""#))
        .expect("an error event");
    assert!(err.contains(r#""id":"x7""#), "{err}");
    assert!(err.contains("frobnicate"), "{err}");
}

/// Regression: a request whose formula declares far more variables than
/// its text pays for (`p cnf 2000000000 1` / `1 0`) once killed the daemon
/// on the solver's allocation. It must get an `error` event carrying its
/// id, and the daemon must keep serving. The daemon runs capped at 2 GB of
/// address space, so a regression aborts at once.
#[test]
fn oversized_variable_declarations_get_an_error_event() {
    let input = concat!(
        "{\"op\":\"solve\",\"id\":\"huge\",\"cnf\":\"p cnf 2000000000 1\\n1 0\\n\"}\n",
        "{\"op\":\"solve\",\"id\":\"after\",\"cnf\":\"p cnf 1 1\\n1 0\\n\"}\n",
    );
    let mut child = Command::new("sh")
        .args(["-c", "ulimit -v 2000000 && exec \"$0\" --stdin"])
        .arg(env!("CARGO_BIN_EXE_presatd"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("sh runs");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input.as_bytes())
        .expect("requests written");
    let out = child.wait_with_output().expect("daemon exits");
    assert!(
        out.status.success(),
        "daemon failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let err = stdout
        .lines()
        .find(|l| l.contains(r#""event":"error""#))
        .unwrap_or_else(|| panic!("no error event: {stdout}"));
    assert!(err.contains(r#""id":"huge""#), "{err}");
    assert!(err.contains("declares 2000000000 variables"), "{err}");
    assert!(
        stdout.lines().any(
            |l| l.contains(r#""id":"after","event":"done""#) && l.contains(r#""result":"sat""#)
        ),
        "{stdout}"
    );
}

#[test]
fn oversized_request_lines_are_rejected_without_buffering() {
    // 5 MiB of garbage on one line crosses the 4 MiB request cap; the
    // daemon must reject it and keep serving.
    let huge = "x".repeat(5 << 20);
    let input =
        format!("{huge}\n{{\"op\":\"solve\",\"id\":\"ok\",\"cnf\":\"p cnf 1 1\\n1 0\\n\"}}\n");
    let lines = run_stdin(&[], &input);
    assert!(
        lines.iter().any(|l| l.contains("byte line limit")),
        "{lines:?}"
    );
    assert!(
        lines
            .iter()
            .any(|l| l.contains(r#""id":"ok","event":"done""#)),
        "{lines:?}"
    );
}

#[test]
fn stats_and_shutdown_answer_inline() {
    let lines = run_stdin(
        &[],
        "{\"op\":\"solve\",\"id\":\"s\",\"session\":\"t\",\"cnf\":\"p cnf 1 1\\n1 0\\n\"}\n\
         {\"op\":\"stats\",\"id\":\"m\"}\n\
         {\"op\":\"shutdown\",\"id\":\"bye\"}\n",
    );
    assert!(
        lines.iter().any(|l| l.contains(r#""event":"stats""#)),
        "{lines:?}"
    );
    assert!(
        lines
            .iter()
            .any(|l| l.contains(r#""id":"bye","event":"ok""#)),
        "{lines:?}"
    );
}

#[test]
fn stats_reports_accumulated_result_cubes_per_session() {
    let mut child = daemon_cmd(&["--listen", "127.0.0.1:0"])
        .spawn()
        .expect("daemon spawns");
    drop(child.stdin.take());
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let mut line = String::new();
    stderr.read_line(&mut line).expect("listening line");
    let addr = line
        .trim()
        .rsplit(' ')
        .next()
        .expect("an address")
        .to_string();

    // Run an allsat job to completion and note how many cubes its result
    // set holds…
    let mut conn = TcpStream::connect(&addr).expect("connect");
    conn.write_all(
        b"{\"op\":\"allsat\",\"id\":\"a\",\"session\":\"acc\",\
          \"cnf\":\"p cnf 3 2\\n1 2 0\\n-3 1 0\\n\",\"project\":3}\n",
    )
    .expect("request written");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let want;
    loop {
        let mut l = String::new();
        assert!(
            reader.read_line(&mut l).expect("read") > 0,
            "eof before done"
        );
        if l.contains(r#""id":"a","event":"done""#) {
            assert!(l.contains(r#""complete":true"#), "{l}");
            want = l
                .split("\"num_cubes\":")
                .nth(1)
                .and_then(|rest| rest.split(',').next())
                .and_then(|digits| digits.trim().parse::<u64>().ok())
                .expect("done event carries num_cubes");
            break;
        }
    }
    assert!(want > 0, "the test formula has a nonempty solution set");

    // …then `stats` must report that accumulated result-set cube count in
    // the session's row. The `done` event is emitted from inside the
    // worker's slice, a moment before the scheduler folds the finished
    // job's counters into the session base — poll until the gauge lands.
    let mut last = String::new();
    let mut found = false;
    for round in 0..100 {
        conn.write_all(format!("{{\"op\":\"stats\",\"id\":\"m{round}\"}}\n").as_bytes())
            .expect("stats written");
        loop {
            let mut l = String::new();
            assert!(
                reader.read_line(&mut l).expect("read") > 0,
                "eof before stats"
            );
            if l.contains(r#""event":"stats""#) {
                let row = l
                    .split(r#""session":"acc""#)
                    .nth(1)
                    .expect("a row for session acc");
                found = row.contains(&format!("\"result_cubes\":{want}"));
                last = l;
                break;
            }
        }
        if found {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        found,
        "stats row should report the accumulated result-set cube count {want}: {last}"
    );
    conn.write_all(b"{\"op\":\"shutdown\",\"id\":\"bye\"}\n")
        .expect("shutdown written");
    wait_with_deadline(&mut child, "stats result cubes");
}

/// An `n`-latch binary counter in BENCH format (`s' = s + 1`): every state
/// has exactly one predecessor, so backward reachability from one state
/// walks the whole 2^n cycle — arbitrarily heavy for large `n`.
fn counter_bench(n: usize) -> String {
    let mut s = String::from("INPUT(a)\nOUTPUT(y)\n");
    for j in 0..n {
        s.push_str(&format!("s{j} = DFF(n{j})\n"));
    }
    s.push_str("n0 = NOT(s0)\n");
    s.push_str("c0 = BUFF(s0)\n");
    for j in 1..n {
        s.push_str(&format!("n{j} = XOR(s{j}, c{})\n", j - 1));
        if j + 1 < n {
            s.push_str(&format!("c{j} = AND(s{j}, c{})\n", j - 1));
        }
    }
    s.push_str("y = BUFF(s0)\n");
    s
}

#[test]
fn tcp_disconnect_mid_stream_cancels_the_tenants_jobs() {
    let mut child = daemon_cmd(&["--listen", "127.0.0.1:0", "--slice-conflicts", "10"])
        .spawn()
        .expect("daemon spawns");
    drop(child.stdin.take());
    // The daemon announces its bound address on stderr.
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let mut line = String::new();
    stderr.read_line(&mut line).expect("listening line");
    let addr = line
        .trim()
        .rsplit(' ')
        .next()
        .expect("an address")
        .to_string();

    // Tenant 1 submits a 2^22-state reach (far too big to finish) and
    // vanishes mid-stream. The disconnect must cancel the job — otherwise
    // the shutdown below would wait on ~4M iterations.
    {
        let mut victim = TcpStream::connect(&addr).expect("connect");
        let circuit = counter_bench(22).replace('\n', "\\n");
        let req = format!(
            "{{\"op\":\"reach\",\"id\":\"doomed\",\"circuit\":\"{circuit}\",\"target\":\"0b{}\"}}\n",
            "0".repeat(22)
        );
        victim.write_all(req.as_bytes()).expect("request written");
        // Read the acceptance so the job is live before disconnecting.
        let mut reader = BufReader::new(victim.try_clone().expect("clone"));
        let mut accepted = String::new();
        reader.read_line(&mut accepted).expect("accepted line");
        assert!(accepted.contains(r#""event":"accepted""#), "{accepted}");
    } // drop = disconnect

    // Tenant 2 can still use the daemon, then shuts it down.
    let mut other = TcpStream::connect(&addr).expect("second connect");
    other
        .write_all(b"{\"op\":\"solve\",\"id\":\"alive\",\"cnf\":\"p cnf 1 1\\n1 0\\n\"}\n")
        .expect("request written");
    let mut reader = BufReader::new(other.try_clone().expect("clone"));
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut saw_done = false;
    while Instant::now() < deadline {
        let mut l = String::new();
        if reader.read_line(&mut l).unwrap_or(0) == 0 {
            break;
        }
        if l.contains(r#""id":"alive","event":"done""#) {
            saw_done = true;
            break;
        }
    }
    assert!(saw_done, "second tenant's solve never finished");
    other
        .write_all(b"{\"op\":\"shutdown\",\"id\":\"bye\"}\n")
        .expect("shutdown written");
    wait_with_deadline(&mut child, "tcp disconnect");
}

/// Cube rows (`… 0` lines) from a `presat allsat` CLI run.
fn cli_allsat_cubes(cnf: &str, project: usize) -> Vec<String> {
    let dir = std::env::temp_dir().join("presatd-tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join(format!("{}-allsat.cnf", std::process::id()));
    std::fs::write(&path, cnf).expect("cnf written");
    let out = Command::new(env!("CARGO_BIN_EXE_presat"))
        .args([
            "allsat",
            path.to_str().expect("utf8 path"),
            "--project",
            &project.to_string(),
        ])
        .output()
        .expect("presat runs");
    assert!(out.status.success());
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| !l.starts_with('c') && l.ends_with('0'))
        .map(str::to_string)
        .collect()
}

#[test]
fn interleaved_tenants_each_yield_exactly_the_sequential_cube_set() {
    // A 1-conflict quantum forces the two allsat tenants and the heavy
    // reach tenant to interleave slice by slice; each answer must still
    // equal the standalone CLI enumeration, cube for cube.
    let cnf_a = "p cnf 3 2\n1 2 0\n-3 1 0\n";
    let cnf_b = "p cnf 3 2\n-1 -2 0\n2 3 0\n";
    let circuit = counter_bench(4).replace('\n', "\\n");
    let input = format!(
        "{{\"op\":\"reach\",\"id\":\"heavy\",\"session\":\"big\",\"circuit\":\"{circuit}\",\"target\":\"0b0000\"}}\n\
         {{\"op\":\"allsat\",\"id\":\"a\",\"session\":\"one\",\"cnf\":\"{}\",\"project\":3}}\n\
         {{\"op\":\"allsat\",\"id\":\"b\",\"session\":\"two\",\"cnf\":\"{}\",\"project\":3}}\n",
        cnf_a.replace('\n', "\\n"),
        cnf_b.replace('\n', "\\n"),
    );
    let lines = run_stdin(&["--slice-conflicts", "1", "--jobs", "2"], &input);
    let heavy = lines
        .iter()
        .find(|l| l.contains(r#""id":"heavy","event":"done""#))
        .expect("heavy done");
    assert!(heavy.contains(r#""converged":true"#), "{heavy}");
    for (id, cnf) in [("a", cnf_a), ("b", cnf_b)] {
        let done = lines
            .iter()
            .find(|l| l.contains(&format!(r#""id":"{id}","event":"done""#)))
            .expect("allsat done");
        assert!(done.contains(r#""complete":true"#), "{done}");
        let want: Vec<String> = cli_allsat_cubes(cnf, 3)
            .iter()
            .map(|r| format!("\"{r}\""))
            .collect();
        let expected = format!("\"cubes\":[{}]", want.join(","));
        assert!(
            done.contains(&expected),
            "tenant {id}: daemon cubes differ from the CLI run\n daemon: {done}\n want:   {expected}"
        );
    }
}

#[test]
fn stdin_eof_drains_queued_jobs_before_exit() {
    // No shutdown request: closing stdin must still deliver every done
    // event (drain semantics), then exit 0.
    let lines = run_stdin(
        &["--slice-conflicts", "5"],
        "{\"op\":\"allsat\",\"id\":\"d\",\"cnf\":\"p cnf 2 1\\n1 2 0\\n\",\"project\":2}\n",
    );
    assert!(
        lines
            .iter()
            .any(|l| l.contains(r#""id":"d","event":"done""#)),
        "{lines:?}"
    );
}

/// The pigeonhole principle PHP(p → p−1) in DIMACS: UNSAT, and provably
/// beyond unit propagation, so any conflict budget must trip.
fn pigeonhole_cnf(pigeons: usize) -> String {
    let holes = pigeons - 1;
    let var = |p: usize, h: usize| p * holes + h + 1;
    let mut clauses: Vec<String> = Vec::new();
    for p in 0..pigeons {
        clauses.push(
            (0..holes)
                .map(|h| var(p, h).to_string())
                .collect::<Vec<_>>()
                .join(" ")
                + " 0",
        );
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                clauses.push(format!("-{} -{} 0", var(p1, h), var(p2, h)));
            }
        }
    }
    format!(
        "p cnf {} {}\n{}\n",
        pigeons * holes,
        clauses.len(),
        clauses.join("\n")
    )
}

#[test]
fn per_request_conflict_budget_caps_a_heavy_job() {
    // PHP(6→5) is UNSAT but needs real search: a 3-conflict request
    // budget must stop the job with an incomplete answer.
    let input = format!(
        "{{\"op\":\"solve\",\"id\":\"capped\",\"cnf\":\"{}\",\"conflict_budget\":3}}\n",
        pigeonhole_cnf(6).replace('\n', "\\n")
    );
    let lines = run_stdin(&["--slice-conflicts", "1"], &input);
    let done = lines
        .iter()
        .find(|l| l.contains(r#""id":"capped","event":"done""#))
        .expect("done event");
    assert!(done.contains(r#""result":"unknown""#), "{done}");
    assert!(done.contains(r#""complete":false"#), "{done}");
    assert!(done.contains(r#""stop_reason":"conflicts""#), "{done}");
}
