//! Output excitation sets: which states can make a primary output assert?
//!
//! Sequential ATPG phrases fault excitation as "find a state (and input)
//! under which the faulty gate's effect reaches an observable point"; the
//! state-side of that question is the *excitation set* of an output —
//! exactly the all-SAT projection machinery again, with the combinational
//! output cone in place of the next-state cones, in the step encoding's
//! frame layout.

use presat_allsat::{AllSatEngine, AllSatProblem, SuccessDrivenAllSat};
use presat_circuit::Circuit;
use presat_logic::{Cnf, Var};
use presat_obs::{NullSink, Timer};

use crate::encoding::{frame, preimage_result};
use crate::engine::PreimageResult;

/// Computes the set of present states from which **some** primary-input
/// assignment makes output `output_index` evaluate to `value`:
///
/// ```text
/// Exc(o = v)(X) = ∃W . (o(X, W) = v)
/// ```
///
/// # Panics
///
/// Panics if `output_index` is out of range or the circuit is incomplete.
///
/// # Examples
///
/// ```
/// use presat_circuit::generators;
/// use presat_preimage::excitation_set;
///
/// // The arbiter's "any_grant" output needs a granted latch set.
/// let c = generators::round_robin_arbiter(2);
/// let exc = excitation_set(&c, 0, true);
/// // any state with at least one grant latch high: 12 of 16
/// assert_eq!(exc.states.minterm_count(4), 12);
/// ```
pub fn excitation_set(circuit: &Circuit, output_index: usize, value: bool) -> PreimageResult {
    let timer = Timer::start();
    let n = circuit.num_latches();
    // The step layout: X at 0..n, W at n..n+m.
    let mut enc = frame(circuit, 0, n, Cnf::new(n + circuit.num_inputs()));
    assert!(
        output_index < circuit.num_outputs(),
        "output {output_index} out of range ({} outputs)",
        circuit.num_outputs()
    );
    let (_, out_fn) = &circuit.outputs()[output_index];
    let out_lit = enc.lit_of(*out_fn);
    let mut cnf = enc.into_cnf();
    cnf.add_unit(if value { out_lit } else { !out_lit });

    let problem = AllSatProblem::new(cnf, Var::range(n).collect());
    let result = SuccessDrivenAllSat::new().enumerate(&problem);
    preimage_result(result, &timer, &mut NullSink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use presat_circuit::{generators, sim};

    fn oracle_excitation(circuit: &Circuit, k: usize, value: bool) -> Vec<u64> {
        let n = circuit.num_latches();
        let m = circuit.num_inputs();
        let mut out = Vec::new();
        for state in 0..(1u64 << n) {
            let mut hit = false;
            for w in 0..(1u64 << m) {
                let inputs: Vec<u64> = (0..m).map(|i| w >> i & 1).collect();
                let states: Vec<u64> = (0..n).map(|j| state >> j & 1).collect();
                let (outs, _) = sim::step(circuit, &inputs, &states);
                if (outs[k] & 1 == 1) == value {
                    hit = true;
                    break;
                }
            }
            if hit {
                out.push(state);
            }
        }
        out
    }

    fn check(circuit: &Circuit, k: usize, value: bool) {
        let n = circuit.num_latches();
        let expect = oracle_excitation(circuit, k, value);
        let got = excitation_set(circuit, k, value);
        for bits in 0..(1u64 << n) {
            assert_eq!(
                got.states.contains_bits(bits, n),
                expect.binary_search(&bits).is_ok(),
                "{} output {k}={value} state {bits:b}",
                circuit.name()
            );
        }
    }

    #[test]
    fn counter_carry_out() {
        // carry_out = all bits set (free-running) — a single state.
        let c = generators::counter(4, false);
        check(&c, 0, true);
        let exc = excitation_set(&c, 0, true);
        assert_eq!(exc.states.minterm_count(4), 1);
        assert!(exc.states.contains_bits(0xF, 4));
    }

    #[test]
    fn arbiter_any_grant_both_phases() {
        let c = generators::round_robin_arbiter(2);
        check(&c, 0, true);
        check(&c, 0, false);
    }

    #[test]
    fn traffic_conflict_output() {
        let c = generators::traffic_controller();
        check(&c, 0, true);
    }

    #[test]
    fn s27_output() {
        let c = presat_circuit::embedded::s27().unwrap();
        check(&c, 0, true);
        check(&c, 0, false);
    }

    #[test]
    fn input_dependent_output_is_excitable_everywhere() {
        // shift register's serial_out = s3 — no input involvement; but the
        // fifo's "full" output is a pure latch too. Use a circuit whose
        // output genuinely mixes inputs: parity's output is the parity
        // latch (state-only), so build a quick inline check with ctl2.
        let c = presat_circuit::embedded::ctl2().unwrap();
        check(&c, 0, true);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_output_index_panics() {
        let c = generators::counter(2, false);
        let _ = excitation_set(&c, 5, true);
    }
}
