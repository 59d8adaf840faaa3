//! Backward reachability of a safety target — the workload that motivates
//! preimage computation in unbounded model checking.
//!
//! The circuit is a round-robin arbiter; the "bad" states are those where
//! both requesters hold a grant simultaneously. Backward reachability from
//! the bad set tells us every state from which the failure is reachable;
//! intersecting with the reset state decides the safety property.
//!
//! Run with:
//!
//! ```text
//! cargo run --example backward_reachability
//! ```

use presat::circuit::generators;
use presat::preimage::{backward_reach, ReachOptions, SatPreimage, StateSet};

fn main() {
    let n = 3; // three requesters
    let circuit = generators::round_robin_arbiter(n);
    println!("circuit: {}", circuit.summary());

    // Latches: 0..n = token ring, n..2n = grants. Bad: grants 0 and 1 both
    // high at once.
    let bad = StateSet::from_partial(&[(n, true), (n + 1, true)]);
    println!("bad set: grant0 ∧ grant1 (simultaneous grants)\n");

    let engine = SatPreimage::success_driven();
    let report = backward_reach(&engine, &circuit, &bad, ReachOptions::default());

    println!("iter  frontier-cubes  new-states  reached-states      time");
    for row in &report.iterations {
        println!(
            "{:>4}  {:>14}  {:>10}  {:>14}  {:>8.2?}",
            row.iteration, row.frontier_cubes, row.new_states, row.reached_states, row.elapsed
        );
    }
    println!(
        "\nconverged: {}   backward-reachable states: {}",
        report.converged, report.reached_states
    );

    // The reset state (all latches zero: one-hot token not set) — in this
    // simplified arbiter the canonical reset is token at position 0, no
    // grants: bits = 0b001 (token ring) with grant bits zero.
    let reset_bits = 0b1u64; // token_0 = 1, everything else 0
    let reachable_from_reset = report.reached.contains_bits(reset_bits, 2 * n);
    println!(
        "reset state can reach the bad set: {}",
        if reachable_from_reset {
            "YES — unsafe"
        } else {
            "no — safe from reset"
        }
    );

    // Sanity: a single-token ring can only grant the token holder, so both
    // grants can only fire if two tokens circulate — bad states *are*
    // backward-reachable only from multi-token states.
    assert!(report.converged);
}
