//! Time-frame unrolling: the k-step preimage in a single SAT instance.
//!
//! Iterating one-step preimages gives the states at distance ≤ k, but each
//! iteration pays the cost of re-encoding its frontier as a target. The
//! bounded-model-checking alternative unrolls the transition relation `k`
//! times and asks for all solutions projected onto the *first* frame's
//! state variables in one all-SAT run:
//!
//! ```text
//! Pre^k(T)(X0) = ∃W0..W(k-1) ∃X1..Xk . T(Xk) ∧ ∏t (X(t+1) = δ(Xt, Wt))
//! ```
//!
//! This enumerates states with a path of length *exactly* `k` into the
//! target, which is also the natural query of sequential ATPG ("justify in
//! exactly k cycles").

use presat_allsat::{AllSatEngine, AllSatProblem, SuccessDrivenAllSat};
use presat_circuit::Circuit;
use presat_logic::{Cnf, Lit, Var};
use presat_obs::{NullSink, Timer};

use crate::encoding::{preimage_result, tied_frame, write_cube_union};
use crate::engine::PreimageResult;
use crate::state_set::StateSet;

/// The CNF of `k` chained time frames with the target imposed on the last
/// frame's state variables.
///
/// Layout: frame-0 state `X0` at CNF variables `0..n` (the important set),
/// then per frame `t = 0..k`: inputs `Wt` (`m` variables) followed by the
/// *next* frame's state block `X(t+1)` (`n` variables); Tseitin
/// auxiliaries and the target's selector variables live above all blocks.
/// Each frame is the image encoding's tied frame (`X(t+1) ↔ δ(Xt, Wt)`)
/// at its block offsets, and the target is a cube union over the last
/// state block.
///
/// # Examples
///
/// ```
/// use presat_circuit::generators;
/// use presat_preimage::{StateSet, UnrolledEncoding};
///
/// let c = generators::counter(3, false);
/// let enc = UnrolledEncoding::build(&c, &StateSet::from_state_bits(5, 3), 2);
/// assert_eq!(enc.frame0_vars().len(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct UnrolledEncoding {
    cnf: Cnf,
    num_latches: usize,
    depth: usize,
}

impl UnrolledEncoding {
    /// Unrolls `circuit` for `depth` frames with `target` on the last.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`, the circuit is incomplete, or a target cube
    /// mentions a latch position out of range.
    pub fn build(circuit: &Circuit, target: &StateSet, depth: usize) -> Self {
        assert!(depth > 0, "unrolling depth must be positive");
        let n = circuit.num_latches();
        let m = circuit.num_inputs();

        // Fixed blocks: X0 at 0..n, then per frame (Wt, X(t+1)).
        let frame_state_base = |t: usize| -> usize {
            if t == 0 {
                0
            } else {
                n + (t - 1) * (m + n) + m
            }
        };
        let frame_input_base = |t: usize| n + t * (m + n);
        let mut cnf = Cnf::new(n + depth * (m + n));
        for t in 0..depth {
            // X(t+1) ↔ δ(Xt, Wt).
            cnf = tied_frame(
                circuit,
                frame_state_base(t),
                frame_input_base(t),
                frame_state_base(t + 1),
                cnf,
            );
        }

        // Target on the final frame.
        let last = frame_state_base(depth);
        write_cube_union(
            &mut cnf,
            target.cubes(),
            |l| {
                let j = l.var().index();
                assert!(j < n, "target cube mentions latch position {j} ≥ {n}");
                Lit::with_phase(Var::new(last + j), l.phase())
            },
            None,
        );

        UnrolledEncoding {
            cnf,
            num_latches: n,
            depth,
        }
    }

    /// The unrolled CNF.
    pub fn cnf(&self) -> &Cnf {
        &self.cnf
    }

    /// The frame-0 state variables (the important set).
    pub fn frame0_vars(&self) -> Vec<Var> {
        Var::range(self.num_latches).collect()
    }

    /// The unrolling depth.
    pub fn depth(&self) -> usize {
        self.depth
    }
}

/// Computes the exact-`k`-step preimage: the set of states with some input
/// sequence of length `k` ending in `target`, using the success-driven
/// all-solutions engine on the unrolled instance.
///
/// # Examples
///
/// ```
/// use presat_circuit::generators;
/// use presat_preimage::{k_step_preimage, StateSet};
///
/// let c = generators::counter(3, false);
/// let pre2 = k_step_preimage(&c, &StateSet::from_state_bits(5, 3), 2);
/// // exactly two steps before 5 is 3
/// assert!(pre2.states.contains_bits(3, 3));
/// assert_eq!(pre2.states.minterm_count(3), 1);
/// ```
pub fn k_step_preimage(circuit: &Circuit, target: &StateSet, k: usize) -> PreimageResult {
    let timer = Timer::start();
    let enc = UnrolledEncoding::build(circuit, target, k);
    let important = enc.frame0_vars();
    let problem = AllSatProblem::new(enc.cnf, important);
    let result = SuccessDrivenAllSat::new().enumerate(&problem);
    let mut pre = preimage_result(result, &timer, &mut NullSink);
    pre.stats.iterations = k as u64;
    pre
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PreimageEngine;
    use crate::sat_engine::SatPreimage;
    use presat_circuit::{generators, sim};
    use std::collections::BTreeSet;

    /// States with a path of length exactly `k` into the target.
    fn oracle_k_step(circuit: &Circuit, target: &StateSet, k: usize) -> BTreeSet<u64> {
        let n = circuit.num_latches();
        let transitions = sim::enumerate_transitions(circuit);
        let mut layer: BTreeSet<u64> = (0..(1u64 << n))
            .filter(|&b| target.contains_bits(b, n))
            .collect();
        for _ in 0..k {
            layer = transitions
                .iter()
                .filter(|(_, _, next)| layer.contains(next))
                .map(|&(s, _, _)| s)
                .collect();
        }
        layer
    }

    fn check(circuit: &Circuit, target: &StateSet, k: usize) {
        let n = circuit.num_latches();
        let expect = oracle_k_step(circuit, target, k);
        let got = k_step_preimage(circuit, target, k);
        for bits in 0..(1u64 << n) {
            assert_eq!(
                got.states.contains_bits(bits, n),
                expect.contains(&bits),
                "{}: k={k} state {bits:b}",
                circuit.name()
            );
        }
    }

    #[test]
    fn depth_one_equals_single_step() {
        let c = generators::parity(3);
        let t = StateSet::from_partial(&[(3, true)]);
        let one = k_step_preimage(&c, &t, 1);
        let single = SatPreimage::success_driven().preimage(&c, &t);
        assert!(one.states.semantically_eq(&single.states, 4));
    }

    #[test]
    fn counter_k_step_walks_back() {
        let c = generators::counter(4, false);
        for k in 1..=5 {
            check(&c, &StateSet::from_state_bits(9, 4), k);
        }
    }

    #[test]
    fn shift_register_k_step() {
        let c = generators::shift_register(4);
        for k in [1, 2, 4] {
            check(&c, &StateSet::from_state_bits(0b1111, 4), k);
        }
    }

    #[test]
    fn arbiter_k_step() {
        let c = generators::round_robin_arbiter(2);
        for k in [1, 2, 3] {
            check(&c, &StateSet::from_partial(&[(2, true)]), k);
        }
    }

    #[test]
    fn s27_k_step() {
        let c = presat_circuit::embedded::s27().unwrap();
        for k in [1, 2, 3] {
            check(&c, &StateSet::from_state_bits(0b110, 3), k);
        }
    }

    #[test]
    fn empty_target_stays_empty() {
        let c = generators::counter(3, false);
        let pre = k_step_preimage(&c, &StateSet::empty(), 3);
        assert!(pre.states.is_empty());
    }

    #[test]
    #[should_panic(expected = "depth must be positive")]
    fn zero_depth_rejected() {
        let c = generators::counter(2, false);
        let _ = UnrolledEncoding::build(&c, &StateSet::from_state_bits(0, 2), 0);
    }
}
