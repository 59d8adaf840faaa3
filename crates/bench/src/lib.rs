//! Shared workload definitions for the `tables` binary, which regenerates
//! every reconstructed table and figure of `EXPERIMENTS.md`.
//!
//! Every circuit and target the tables report on comes from [`workloads`].
//! Timing questions are answered end to end by the perf suite (`perf/`),
//! not here.

#![forbid(unsafe_code)]

pub mod workloads;
