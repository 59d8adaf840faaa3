//! 64-way parallel bit simulation of sequential circuits.
//!
//! Each leaf carries a 64-bit word; bit *k* of every word belongs to the
//! *k*-th simulated pattern, so one pass evaluates 64 input/state
//! combinations. This is the standard trick used by every logic simulator in
//! the field and is the backbone of the exhaustive oracle for small
//! circuits.

use crate::Circuit;

/// Simulates one clock cycle: given one word per primary input and one word
/// per latch, returns `(output_words, next_state_words)`.
///
/// # Panics
///
/// Panics if the slices do not match the circuit's input/latch counts or a
/// latch lacks a next-state function.
pub fn step(circuit: &Circuit, inputs: &[u64], state: &[u64]) -> (Vec<u64>, Vec<u64>) {
    assert_eq!(inputs.len(), circuit.num_inputs(), "input word count");
    assert_eq!(state.len(), circuit.num_latches(), "state word count");
    let mut leaves = Vec::with_capacity(inputs.len() + state.len());
    leaves.extend_from_slice(inputs);
    leaves.extend_from_slice(state);

    let out_fns: Vec<_> = circuit.outputs().iter().map(|(_, f)| *f).collect();
    let next_fns = circuit.next_state_fns();
    let outputs = circuit.aig().eval64_many(&out_fns, &leaves);
    let next = circuit.aig().eval64_many(&next_fns, &leaves);
    (outputs, next)
}

/// Evaluates only the next-state functions (no outputs).
pub fn next_state(circuit: &Circuit, inputs: &[u64], state: &[u64]) -> Vec<u64> {
    step(circuit, inputs, state).1
}

/// Exhaustively enumerates all `(state, input)` combinations of a small
/// circuit and returns, for each, the successor state, as
/// `(state_bits, input_bits, next_bits)` triples. Used by the preimage
/// oracle.
///
/// # Panics
///
/// Panics if `num_inputs + num_latches > 24` (oracle-scale guard).
pub fn enumerate_transitions(circuit: &Circuit) -> Vec<(u64, u64, u64)> {
    let ni = circuit.num_inputs();
    let nl = circuit.num_latches();
    assert!(ni + nl <= 24, "transition enumeration is oracle-scale only");
    let mut out = Vec::with_capacity(1 << (ni + nl));
    // Process 64 combinations per simulation pass.
    let total: u64 = 1 << (ni + nl);
    let mut base = 0u64;
    while base < total {
        let lanes = 64.min(total - base) as usize;
        // Build leaf words: bit k of word for leaf i = value of leaf i in
        // combination base + k.
        let mut input_words = vec![0u64; ni];
        let mut state_words = vec![0u64; nl];
        for k in 0..lanes {
            let combo = base + k as u64;
            for (i, w) in input_words.iter_mut().enumerate() {
                *w |= ((combo >> i) & 1) << k;
            }
            for (j, w) in state_words.iter_mut().enumerate() {
                *w |= ((combo >> (ni + j)) & 1) << k;
            }
        }
        let next = next_state(circuit, &input_words, &state_words);
        for k in 0..lanes {
            let combo = base + k as u64;
            let input_bits = combo & ((1u64 << ni) - 1);
            let state_bits = combo >> ni;
            let mut next_bits = 0u64;
            for (j, w) in next.iter().enumerate() {
                next_bits |= ((w >> k) & 1) << j;
            }
            out.push((state_bits, input_bits, next_bits));
        }
        base += lanes as u64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn toggle_circuit_toggles() {
        let mut c = Circuit::new(0, 1);
        let s = c.state_ref(0);
        let ns = c.aig_mut().not(s);
        c.set_latch_next(0, ns);
        let next = next_state(&c, &[], &[0b01]);
        assert_eq!(next[0] & 0b11, 0b10);
    }

    #[test]
    fn counter_counts() {
        let c = generators::counter(4, false);
        // state 5 → 6 in lane 0; state 15 → 0 wraps in lane 1.
        let state_words: Vec<u64> = (0..4)
            .map(|j| {
                let b0 = (5u64 >> j) & 1;
                let b1 = (15u64 >> j) & 1;
                b0 | (b1 << 1)
            })
            .collect();
        let next = next_state(&c, &[], &state_words);
        let decode = |lane: usize| -> u64 { (0..4).map(|j| ((next[j] >> lane) & 1) << j).sum() };
        assert_eq!(decode(0), 6);
        assert_eq!(decode(1), 0);
    }

    #[test]
    fn enumerate_transitions_toggle() {
        let mut c = Circuit::new(0, 1);
        let s = c.state_ref(0);
        let ns = c.aig_mut().not(s);
        c.set_latch_next(0, ns);
        let trans = enumerate_transitions(&c);
        assert_eq!(trans.len(), 2);
        assert!(trans.contains(&(0, 0, 1)));
        assert!(trans.contains(&(1, 0, 0)));
    }

    #[test]
    fn enumerate_transitions_with_inputs() {
        // 1 latch, 1 input: s' = s XOR w.
        let mut c = Circuit::new(1, 1);
        let w = c.input_ref(0);
        let s = c.state_ref(0);
        let n = c.aig_mut().xor(s, w);
        c.set_latch_next(0, n);
        let trans = enumerate_transitions(&c);
        assert_eq!(trans.len(), 4);
        for (s, w, n) in trans {
            assert_eq!(n, s ^ w);
        }
    }

    #[test]
    fn enumerate_transitions_crosses_word_boundary() {
        // 7 bits of combination space = 128 > 64 lanes: two passes.
        let c = generators::counter(7, false);
        let trans = enumerate_transitions(&c);
        assert_eq!(trans.len(), 128);
        for (s, _w, n) in trans {
            assert_eq!(n, (s + 1) % 128);
        }
    }
}
