//! Verification under environment assumptions.
//!
//! Real blocks never see free inputs: the arbiter below is verified under
//! the standard *one-hot request* environment, and the analysis combines
//! three library features — output excitation sets, environment-constrained
//! preimages, and backward reachability.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example constrained_verification
//! ```

use presat::circuit::generators;
use presat::logic::{Cube, CubeSet, Lit, Var};
use presat::preimage::{
    backward_reach, excitation_set, PreimageEngine, ReachOptions, SatPreimage, StateSet,
};

fn one_hot_env(n: usize) -> CubeSet {
    // At most one request asserted per cycle.
    let mut env = CubeSet::new();
    for hot in 0..=n {
        let cube = Cube::from_lits((0..n).map(|i| {
            Lit::with_phase(Var::new(i), hot < n && i == hot)
        }))
        .expect("distinct inputs");
        env.insert(cube);
    }
    env
}

fn main() {
    let n = 3;
    let circuit = generators::round_robin_arbiter(n);
    println!("circuit: {}", circuit.summary());

    // 1. Excitation: which states can raise the any_grant output at all?
    let exc = excitation_set(&circuit, 0, true);
    println!(
        "\nany_grant excitable from {} / {} states ({} cubes)",
        exc.states.minterm_count(2 * n),
        1u64 << (2 * n),
        exc.states.num_cubes()
    );

    // 2. The bad set: two grants at once.
    let bad = StateSet::from_partial(&[(n, true), (n + 1, true)]);

    // 3. Preimage under the one-hot environment vs. free inputs.
    let free = SatPreimage::success_driven().preimage(&circuit, &bad);
    let constrained = SatPreimage::success_driven()
        .with_env(one_hot_env(n))
        .preimage(&circuit, &bad);
    println!(
        "\npreimage of double-grant:  free inputs {} states, one-hot env {} states",
        free.states.minterm_count(2 * n),
        constrained.states.minterm_count(2 * n)
    );

    // 4. Full backward reachability under the environment.
    let engine = SatPreimage::success_driven().with_env(one_hot_env(n));
    let report = backward_reach(&engine, &circuit, &bad, ReachOptions::default());
    println!(
        "backward-reachable (one-hot env): {} states in {} iterations (converged={})",
        report.reached_states,
        report.iterations.len(),
        report.converged
    );

    // Under a one-hot environment only one grant can load per cycle, so the
    // double-grant set has a much smaller (or empty) basin than with free
    // inputs — which is the point of verifying under assumptions.
    let reset = 0b000001u64; // token at position 0, no grants
    println!(
        "reset can reach double-grant under the environment: {}",
        report.reached.contains_bits(reset, 2 * n)
    );
}
