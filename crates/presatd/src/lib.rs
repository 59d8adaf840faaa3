//! `presatd` — a multi-tenant all-SAT / preimage service daemon.
//!
//! A long-running process that accepts `solve`, `allsat`, `preimage`, and
//! `reach` jobs over a line-delimited JSON protocol (stdin, TCP, or a Unix
//! socket), multiplexes named tenant sessions across a hand-rolled worker
//! pool, and schedules every job as budgeted slices: each quantum of
//! conflicts a job spends sends it to the back of the round-robin queue,
//! so a heavy tenant's fixed point cannot starve a small tenant's query.
//!
//! The layering:
//!
//! * [`json`] — the JSON reader for untrusted request lines: the
//!   workspace's one parser, re-exported from `presat_obs::json`.
//! * [`protocol`] — request parsing/validation and response event shapes.
//! * [`job`] — one request as a resumable slice state machine, built on
//!   [`presat_sat::Budget`] quanta, [`presat_sat::CancelToken`], the
//!   persistent [`presat_allsat::IncrementalAllSat`] enumerator, and the
//!   [`presat_preimage::ReachDriver`] fixed-point stepper.
//! * [`scheduler`] — the worker pool, fairness queue, shared
//!   [`presat_sat::BudgetPool`], admission control, per-session counters.
//! * [`server`] — the transports and the request-line size guard.
//!
//! Sliced results are bit-identical to one-shot `presat` CLI runs: every
//! job accumulates its verified solutions in a canonical hash-consed
//! solution graph whose cube extraction depends only on the solution
//! *set*, never on how slices interleaved.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod job;
pub mod json;
pub mod output;
pub mod protocol;
pub mod scheduler;
pub mod server;

pub use job::{Job, SliceOutcome, SliceReport};
pub use output::OutputHandle;
pub use protocol::{parse_request, Request, RequestLimits, MAX_REQUEST_BYTES};
pub use scheduler::{Config, Scheduler};
