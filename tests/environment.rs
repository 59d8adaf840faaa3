//! Environment-constrained preimages: restricting the primary inputs must
//! shrink the preimage to transitions the environment permits, identically
//! across SAT and BDD engines.

use presat::circuit::{generators, sim, Circuit};
use presat::logic::{Assignment, Cube, CubeSet, Lit, Var};
use presat::preimage::{BddPreimage, PreimageEngine, SatPreimage, StateSet};

/// Exhaustive oracle with an input filter.
fn oracle_constrained(circuit: &Circuit, target: &StateSet, env: &CubeSet) -> Vec<u64> {
    let n = circuit.num_latches();
    let m = circuit.num_inputs();
    let mut out: Vec<u64> = sim::enumerate_transitions(circuit)
        .into_iter()
        .filter(|&(_, w, next)| {
            env.contains_minterm(&Assignment::from_bits(w, m)) && target.contains_bits(next, n)
        })
        .map(|(s, _, _)| s)
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

fn check(circuit: &Circuit, target: &StateSet, env: &CubeSet) {
    let n = circuit.num_latches();
    let expect = oracle_constrained(circuit, target, env);
    let engines: Vec<Box<dyn PreimageEngine>> = vec![
        Box::new(SatPreimage::blocking().with_env(env.clone())),
        Box::new(SatPreimage::min_blocking().with_env(env.clone())),
        Box::new(SatPreimage::success_driven().with_env(env.clone())),
        Box::new(BddPreimage::substitution().with_env(env.clone())),
        Box::new(BddPreimage::monolithic().with_env(env.clone())),
    ];
    for engine in engines {
        let got = engine.preimage(circuit, target);
        for bits in 0..(1u64 << n) {
            assert_eq!(
                got.states.contains_bits(bits, n),
                expect.binary_search(&bits).is_ok(),
                "{} on {}: state {bits:b}",
                engine.name(),
                circuit.name()
            );
        }
    }
}

fn cube(lits: &[(usize, bool)]) -> Cube {
    Cube::from_lits(lits.iter().map(|&(v, p)| Lit::with_phase(Var::new(v), p))).unwrap()
}

#[test]
fn enable_forced_high_removes_self_loops() {
    // With enable pinned high, the enabled counter's self-loop (enable=0)
    // disappears: preimage of {9} is exactly {8}.
    let c = generators::counter(4, true);
    let env: CubeSet = [cube(&[(0, true)])].into_iter().collect();
    let t = StateSet::from_state_bits(9, 4);
    check(&c, &t, &env);
    let pre = SatPreimage::success_driven().with_env(env).preimage(&c, &t);
    assert_eq!(pre.states.minterm_count(4), 1);
    assert!(pre.states.contains_bits(8, 4));
}

#[test]
fn empty_environment_empties_the_preimage() {
    let c = generators::shift_register(4);
    let env = CubeSet::new();
    let pre = SatPreimage::success_driven()
        .with_env(env)
        .preimage(&c, &StateSet::from_partial(&[(3, true)]));
    assert!(pre.states.is_empty());
}

#[test]
fn one_hot_request_environment_on_arbiter() {
    // Only one requester may assert at a time.
    let c = generators::round_robin_arbiter(2);
    let env: CubeSet = [
        cube(&[(0, true), (1, false)]),
        cube(&[(0, false), (1, true)]),
        cube(&[(0, false), (1, false)]),
    ]
    .into_iter()
    .collect();
    check(&c, &StateSet::from_partial(&[(2, true)]), &env);
    check(&c, &StateSet::from_state_bits(0b0101, 4), &env);
}

#[test]
fn serial_input_pinned_on_shift_register() {
    let c = generators::shift_register(4);
    let env: CubeSet = [cube(&[(0, false)])].into_iter().collect();
    check(&c, &StateSet::from_state_bits(0b0001, 4), &env);
    // s0' = w = 0, so no state can reach a target requiring s0' = 1.
    let pre = SatPreimage::success_driven()
        .with_env(env)
        .preimage(&c, &StateSet::from_state_bits(0b0001, 4));
    assert!(pre.states.is_empty());
}

#[test]
fn multi_cube_environment_on_comparator() {
    let c = generators::comparator(2); // 4 inputs
                                       // B restricted to {00, 11}.
    let env: CubeSet = [
        cube(&[(2, false), (3, false)]),
        cube(&[(2, true), (3, true)]),
    ]
    .into_iter()
    .collect();
    check(&c, &StateSet::from_partial(&[(2, true)]), &env);
}

#[test]
fn free_environment_equals_no_environment() {
    let c = generators::parity(3);
    let t = StateSet::from_partial(&[(3, true)]);
    let free = SatPreimage::success_driven()
        .with_env(CubeSet::universe())
        .preimage(&c, &t);
    let none = SatPreimage::success_driven().preimage(&c, &t);
    assert!(free.states.semantically_eq(&none.states, 4));
}
