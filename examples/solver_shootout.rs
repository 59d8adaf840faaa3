//! Engine shootout on the blocking-clause worst case.
//!
//! The parity circuit's preimage has `2^(n-1)` minterms and **no** wider
//! prime cubes, so every blocking-style enumerator must emit one clause per
//! minterm — while the success-driven solver's solution graph stays linear
//! in `n`. This example prints the scaling table (the live version of
//! figures F1/F2 in `EXPERIMENTS.md`).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example solver_shootout
//! ```

use std::time::Instant;

use presat::circuit::generators;
use presat::preimage::{PreimageEngine, SatPreimage, StateSet};

fn main() {
    println!("parity(n): preimage of «parity latch = 1» (2^(n-1) solution minterms)\n");
    println!(
        "{:>3} {:>10} | {:>10} {:>9} | {:>10} {:>9} | {:>10} {:>9} {:>7}",
        "n",
        "solutions",
        "blk-time",
        "blk-cls",
        "min-time",
        "min-cls",
        "sd-time",
        "sd-nodes",
        "hits"
    );

    for n in [4usize, 6, 8, 10, 12] {
        let circuit = generators::parity(n);
        let target = StateSet::from_partial(&[(n, true)]);

        let run = |engine: &dyn PreimageEngine| {
            let t0 = Instant::now();
            let r = engine.preimage(&circuit, &target);
            (t0.elapsed(), r)
        };

        let (t_blk, r_blk) = run(&SatPreimage::blocking());
        let (t_min, r_min) = run(&SatPreimage::min_blocking());
        let (t_sd, r_sd) = run(&SatPreimage::success_driven());

        let solutions = r_sd.states.minterm_count(n + 1);
        assert_eq!(solutions, r_blk.states.minterm_count(n + 1));
        assert_eq!(solutions, r_min.states.minterm_count(n + 1));

        println!(
            "{:>3} {:>10} | {:>10.2?} {:>9} | {:>10.2?} {:>9} | {:>10.2?} {:>9} {:>7}",
            n,
            solutions,
            t_blk,
            r_blk.stats.blocking_clauses,
            t_min,
            r_min.stats.blocking_clauses,
            t_sd,
            r_sd.stats.graph_nodes,
            r_sd.stats.cache_hits,
        );
    }

    println!("\nshape to observe: blocking clauses double with n; the solution graph");
    println!("grows linearly and the success cache absorbs the exponential re-exploration.");
}
