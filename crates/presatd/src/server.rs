//! Transports: line-JSON over stdin/stdout, TCP, or a Unix socket.
//!
//! One transport per daemon invocation. Every connection gets its own
//! reader thread (hand-rolled thread-per-connection — pure std) and a
//! shared [`OutputHandle`] that the scheduler's workers write events to
//! concurrently. Request lines are read with a hard
//! [`MAX_REQUEST_BYTES`] bound: an oversized line is rejected with an
//! `error` event and skipped without buffering it, so a hostile client
//! cannot balloon daemon memory.
//!
//! Disconnect semantics differ by transport on purpose: a socket client
//! vanishing mid-stream cancels its jobs (nobody is listening), while
//! stdin EOF *drains* — queued work finishes and streams to stdout before
//! the daemon exits, which is what `echo '…' | presatd --stdin` wants.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::json::Json;
use crate::output::OutputHandle;
use crate::protocol::{error_event, parse_request, Request, MAX_REQUEST_BYTES};
use crate::scheduler::Scheduler;

/// Connection ids are daemon-unique (stdin is connection `0`).
static NEXT_CONN: AtomicU64 = AtomicU64::new(1);

enum LineOutcome {
    /// A complete request line (newline stripped).
    Line(String),
    /// The line crossed [`MAX_REQUEST_BYTES`] and was discarded up to its
    /// newline.
    Oversized,
    /// End of stream.
    Eof,
}

/// Reads one newline-terminated line, enforcing the request size cap
/// without ever buffering more than the cap.
fn read_bounded_line<R: BufRead>(reader: &mut R) -> std::io::Result<LineOutcome> {
    let mut line: Vec<u8> = Vec::new();
    let mut discarding = false;
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            // EOF: a trailing unterminated line still counts.
            if discarding {
                return Ok(LineOutcome::Oversized);
            }
            if line.is_empty() {
                return Ok(LineOutcome::Eof);
            }
            return Ok(LineOutcome::Line(
                String::from_utf8_lossy(&line).into_owned(),
            ));
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.map_or(chunk.len(), |i| i + 1);
        if !discarding {
            let keep = newline.map_or(chunk.len(), |i| i);
            line.extend_from_slice(&chunk[..keep.min(take)]);
            if line.len() > MAX_REQUEST_BYTES {
                line.clear();
                discarding = true;
            }
        }
        reader.consume(take);
        if newline.is_some() {
            if discarding {
                return Ok(LineOutcome::Oversized);
            }
            return Ok(LineOutcome::Line(
                String::from_utf8_lossy(&line).into_owned(),
            ));
        }
    }
}

/// Best-effort id recovery for error events on lines that failed request
/// validation but still parse as JSON (`{"op":"frobnicate","id":"x"}`).
fn salvage_id(line: &str) -> String {
    Json::parse(line)
        .ok()
        .and_then(|v| v.get("id").and_then(|j| j.as_str().map(str::to_string)))
        .unwrap_or_default()
}

/// Serves one connection's request stream until EOF, a `shutdown` request,
/// or daemon shutdown. Returns `true` if a `shutdown` request arrived.
fn serve_connection<R: BufRead>(
    scheduler: &Scheduler,
    conn: u64,
    reader: &mut R,
    out: &OutputHandle,
    cancel_on_disconnect: bool,
) -> bool {
    let mut saw_shutdown = false;
    loop {
        if scheduler.is_shutdown() {
            break;
        }
        match read_bounded_line(reader) {
            Err(_) | Ok(LineOutcome::Eof) => break,
            Ok(LineOutcome::Oversized) => out.send_line(&error_event(
                "",
                &format!("request exceeds the {MAX_REQUEST_BYTES}-byte line limit"),
            )),
            Ok(LineOutcome::Line(line)) => {
                if line.trim().is_empty() {
                    continue;
                }
                match parse_request(&line) {
                    Ok(request) => {
                        let is_shutdown = matches!(request, Request::Shutdown { .. });
                        scheduler.submit(request, conn, out);
                        if is_shutdown {
                            saw_shutdown = true;
                            break;
                        }
                    }
                    Err(e) => out.send_line(&error_event(&salvage_id(&line), &e)),
                }
            }
        }
    }
    if cancel_on_disconnect {
        scheduler.disconnect(conn);
    }
    saw_shutdown
}

/// Serves the stdin/stdout transport: one connection, events on stdout.
/// On EOF the scheduler is drained (queued jobs finish and stream) before
/// returning; a `shutdown` request cancels instead.
pub fn run_stdin(scheduler: &Scheduler) {
    let stdin = std::io::stdin();
    let mut reader = stdin.lock();
    let out = OutputHandle::new(Box::new(std::io::stdout()));
    let saw_shutdown = serve_connection(scheduler, 0, &mut reader, &out, false);
    if !saw_shutdown {
        scheduler.drain();
    }
}

/// Generic socket accept loop: polls non-blocking accepts so daemon
/// shutdown is noticed within ~50 ms even with no new clients.
fn accept_loop<L, S>(scheduler: &Arc<Scheduler>, listener: &L, accept: fn(&L) -> std::io::Result<S>)
where
    S: Read + Write + Send + 'static,
    S: TryCloneStream,
{
    let mut handles = Vec::new();
    while !scheduler.is_shutdown() {
        match accept(listener) {
            Ok(stream) => {
                let conn = NEXT_CONN.fetch_add(1, Ordering::Relaxed);
                let Ok(write_half) = stream.try_clone_stream() else {
                    continue;
                };
                let out = OutputHandle::new(write_half);
                let scheduler = scheduler.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("presatd-conn-{conn}"))
                    .spawn(move || {
                        let mut reader = BufReader::new(stream);
                        serve_connection(&scheduler, conn, &mut reader, &out, true);
                    });
                if let Ok(h) = handle {
                    handles.push(h);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(_) => break,
        }
    }
    for h in handles {
        let _ = h.join();
    }
}

/// A stream whose write half can be split off for the [`OutputHandle`].
trait TryCloneStream: Sized {
    fn try_clone_stream(&self) -> std::io::Result<Box<dyn Write + Send>>;
}

impl TryCloneStream for std::net::TcpStream {
    fn try_clone_stream(&self) -> std::io::Result<Box<dyn Write + Send>> {
        Ok(Box::new(self.try_clone()?))
    }
}

#[cfg(unix)]
impl TryCloneStream for std::os::unix::net::UnixStream {
    fn try_clone_stream(&self) -> std::io::Result<Box<dyn Write + Send>> {
        Ok(Box::new(self.try_clone()?))
    }
}

/// Serves the TCP transport until a `shutdown` request arrives.
pub fn run_tcp(scheduler: &Arc<Scheduler>, addr: &str) -> Result<(), String> {
    let listener =
        TcpListener::bind(addr).map_err(|e| format!("cannot listen on {addr:?}: {e}"))?;
    // Announce the actual address (clients asking for port 0 need it).
    if let Ok(local) = listener.local_addr() {
        eprintln!("presatd: listening on {local}");
    }
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot set {addr:?} non-blocking: {e}"))?;
    accept_loop(scheduler, &listener, |l: &TcpListener| {
        l.accept().map(|(s, _)| s)
    });
    Ok(())
}

/// Serves the Unix-socket transport until a `shutdown` request arrives.
/// A stale socket file at `path` is replaced; the file is removed on exit.
#[cfg(unix)]
pub fn run_unix(scheduler: &Arc<Scheduler>, path: &str) -> Result<(), String> {
    use std::os::unix::net::UnixListener;
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path).map_err(|e| format!("cannot bind {path:?}: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot set {path:?} non-blocking: {e}"))?;
    accept_loop(scheduler, &listener, |l: &UnixListener| {
        l.accept().map(|(s, _)| s)
    });
    let _ = std::fs::remove_file(path);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_reader_splits_lines_and_rejects_oversize() {
        let text = "short\n".to_string() + &"x".repeat(MAX_REQUEST_BYTES + 10) + "\nafter\n";
        let mut reader = BufReader::new(text.as_bytes());
        assert!(matches!(
            read_bounded_line(&mut reader),
            Ok(LineOutcome::Line(l)) if l == "short"
        ));
        assert!(matches!(
            read_bounded_line(&mut reader),
            Ok(LineOutcome::Oversized)
        ));
        assert!(matches!(
            read_bounded_line(&mut reader),
            Ok(LineOutcome::Line(l)) if l == "after"
        ));
        assert!(matches!(
            read_bounded_line(&mut reader),
            Ok(LineOutcome::Eof)
        ));
    }

    #[test]
    fn unterminated_trailing_line_is_still_delivered() {
        let mut reader = BufReader::new("no newline".as_bytes());
        assert!(matches!(
            read_bounded_line(&mut reader),
            Ok(LineOutcome::Line(l)) if l == "no newline"
        ));
    }

    #[test]
    fn salvage_id_recovers_ids_from_rejected_requests() {
        assert_eq!(salvage_id(r#"{"op":"frobnicate","id":"x7"}"#), "x7");
        assert_eq!(salvage_id("{"), "");
        assert_eq!(salvage_id(r#"{"op":"solve"}"#), "");
    }
}
