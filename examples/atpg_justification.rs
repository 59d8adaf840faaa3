//! Sequential justification — the ATPG-flavoured use of preimage
//! computation.
//!
//! To test a fault, sequential ATPG must *justify* a required state: find
//! an input sequence driving the circuit from reset into a state that
//! excites the fault. Backward reachability from the required state set
//! answers (a) whether the state is justifiable at all and (b) how many
//! cycles are needed; the per-iteration frontiers then yield the actual
//! vector sequence step by step.
//!
//! The circuit here is the ISCAS89 benchmark `s27` (shipped embedded).
//!
//! Run with:
//!
//! ```text
//! cargo run --example atpg_justification
//! ```

use presat::circuit::embedded;
use presat::preimage::{backward_reach, PreimageEngine, ReachOptions, SatPreimage, StateSet};

fn main() {
    let circuit = embedded::s27().expect("embedded netlist parses");
    println!("circuit: {}", circuit.summary());

    // Suppose exciting a fault requires latches (G5,G6,G7) = (0,1,1).
    let required = StateSet::from_state_bits(0b110, 3);
    println!("required state for fault excitation: G5=0 G6=1 G7=1\n");

    let engine = SatPreimage::success_driven();
    let report = backward_reach(&engine, &circuit, &required, ReachOptions::default());

    println!("iter  new-states  reached");
    for row in &report.iterations {
        println!(
            "{:>4}  {:>10}  {:>7}",
            row.iteration, row.new_states, row.reached_states
        );
    }

    let reset = 0b000u64; // ISCAS89 convention: DFFs reset to 0
    let justifiable = report.reached.contains_bits(reset, 3);
    println!(
        "\nstate justifiable from reset: {}",
        if justifiable {
            "YES"
        } else {
            "no (untestable fault)"
        }
    );
    println!("states that can justify it: {} / 8", report.reached_states);

    // Depth = first iteration whose cumulative set contains reset.
    if justifiable {
        let mut depth = 0;
        let mut cumulative = required.clone();
        for row in &report.iterations {
            if cumulative.contains_bits(reset, 3) {
                break;
            }
            depth = row.iteration;
            let pre = engine.preimage(&circuit, &cumulative);
            cumulative = cumulative.union(&pre.states);
        }
        println!("justification sequence length: ≤ {depth} cycles");
    }
}
