//! Parametric benchmark-circuit generators.
//!
//! These families stand in for the original testbench netlists (see
//! `DESIGN.md`, *Substitutions*). Each spans a structural regime that
//! matters for the evaluation:
//!
//! * [`counter`] — long reachability chains with 1–2-cube preimages
//!   (backward-reachability workloads, figure F3);
//! * [`shift_register`] — trivially liftable preimages (many don't-care
//!   literals, ablation F4);
//! * [`lfsr`] — permutation-like transition functions (every state has
//!   exactly one predecessor state);
//! * [`parity`] — preimages with exponentially many minterm cubes but a
//!   linear-size solution graph: the blocking-clause killer (figures F1/F2);
//! * [`round_robin_arbiter`] — control logic with mixed cube structure;
//! * [`comparator`] — a transition function whose BDD blows up under the
//!   block variable order the BDD engine must use (table R4 crossover);
//! * [`random_dag`] — seeded random sequential logic for fuzzing.

use presat_logic::rng::SplitMix64;

use crate::aig::AigRef;
use crate::Circuit;

/// An `n`-bit binary up-counter. With `with_enable`, a primary input gates
/// counting (enable=0 holds the state).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn counter(n: usize, with_enable: bool) -> Circuit {
    assert!(n > 0, "counter width must be positive");
    let mut c = Circuit::new(usize::from(with_enable), n);
    c.set_name(format!("cnt{n}{}", if with_enable { "e" } else { "" }));
    let mut carry = if with_enable {
        c.input_ref(0)
    } else {
        AigRef::TRUE
    };
    for j in 0..n {
        let s = c.state_ref(j);
        let next = c.aig_mut().xor(s, carry);
        carry = c.aig_mut().and(carry, s);
        c.set_latch_next(j, next);
    }
    c.add_output("carry_out", carry);
    c
}

/// An `n`-bit serial-in shift register: `s0' = w`, `sj' = s(j-1)`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn shift_register(n: usize) -> Circuit {
    assert!(n > 0, "shift register width must be positive");
    let mut c = Circuit::new(1, n);
    c.set_name(format!("shift{n}"));
    let w = c.input_ref(0);
    c.set_latch_next(0, w);
    for j in 1..n {
        let prev = c.state_ref(j - 1);
        c.set_latch_next(j, prev);
    }
    let last = c.state_ref(n - 1);
    c.add_output("serial_out", last);
    c
}

/// An `n`-bit Fibonacci LFSR with taps at bit `n-1` and `n/2` (plus bit 0
/// for primitiveness on small sizes); the transition function is a bijection
/// on states, so every state has exactly one predecessor.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn lfsr(n: usize) -> Circuit {
    assert!(n >= 2, "lfsr needs at least 2 bits");
    let mut c = Circuit::new(0, n);
    c.set_name(format!("lfsr{n}"));
    let t1 = c.state_ref(n - 1);
    let t2 = c.state_ref(n / 2);
    let feedback = c.aig_mut().xor(t1, t2);
    c.set_latch_next(0, feedback);
    for j in 1..n {
        let prev = c.state_ref(j - 1);
        c.set_latch_next(j, prev);
    }
    let out = c.state_ref(n - 1);
    c.add_output("bit_out", out);
    c
}

/// `n` data latches loaded from `n` inputs plus one parity latch whose next
/// value is the parity of the *present* data state. The preimage of
/// `parity = 1` is the set of states with odd data parity: `2^(n-1)`
/// minterms, no wider prime cubes — the blocking-clause worst case with a
/// linear-size shared solution graph.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn parity(n: usize) -> Circuit {
    assert!(n > 0, "parity width must be positive");
    let mut c = Circuit::new(n, n + 1);
    c.set_name(format!("parity{n}"));
    for j in 0..n {
        let w = c.input_ref(j);
        c.set_latch_next(j, w);
    }
    let bits: Vec<AigRef> = (0..n).map(|j| c.state_ref(j)).collect();
    let p = c.aig_mut().xor_many(&bits);
    c.set_latch_next(n, p);
    let pl = c.state_ref(n);
    c.add_output("parity", pl);
    c
}

/// A round-robin arbiter over `n` requesters: a one-hot token ring rotates
/// every cycle, and requester `i`'s grant latch loads `req_i ∧ token_i`.
/// `2n` latches (token ring + grants), `n` request inputs.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn round_robin_arbiter(n: usize) -> Circuit {
    assert!(n >= 2, "arbiter needs at least 2 requesters");
    let mut c = Circuit::new(n, 2 * n);
    c.set_name(format!("arb{n}"));
    // Latches 0..n: token ring; latches n..2n: grants.
    for i in 0..n {
        let prev_token = c.state_ref((i + n - 1) % n);
        c.set_latch_next(i, prev_token);
    }
    for i in 0..n {
        let req = c.input_ref(i);
        let tok = c.state_ref(i);
        let grant = c.aig_mut().and(req, tok);
        c.set_latch_next(n + i, grant);
    }
    let grants: Vec<AigRef> = (0..n).map(|i| c.state_ref(n + i)).collect();
    let any = c.aig_mut().or_many(&grants);
    c.add_output("any_grant", any);
    c
}

/// A magnitude comparator: `n` state bits `A` reload from `n` inputs each
/// cycle, and a flag latch stores `A > B` where `B` is a second `n`-bit
/// input vector. Under the block variable order (all state, then all input)
/// that the BDD preimage engine uses, the comparator's transition relation
/// BDD grows exponentially with `n` — the classic SAT-vs-BDD crossover.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn comparator(n: usize) -> Circuit {
    let mut c = Circuit::new(2 * n, n + 1);
    c.set_name(format!("cmp{n}"));
    // Inputs 0..n: next A; inputs n..2n: B.
    for j in 0..n {
        let w = c.input_ref(j);
        c.set_latch_next(j, w);
    }
    // gt = A > B, MSB-first ripple: gt_k = a_k·¬b_k ∨ (a_k ↔ b_k)·gt_{k-1}
    let mut gt = AigRef::FALSE;
    for j in 0..n {
        // j from LSB to MSB; rebuild so MSB dominates.
        let a = c.state_ref(j);
        let b = c.input_ref(n + j);
        let nb = c.aig_mut().not(b);
        let a_gt_b = c.aig_mut().and(a, nb);
        let eq = c.aig_mut().xnor(a, b);
        let keep = c.aig_mut().and(eq, gt);
        gt = c.aig_mut().or(a_gt_b, keep);
    }
    c.set_latch_next(n, gt);
    let flag = c.state_ref(n);
    c.add_output("a_gt_b", flag);
    c
}

/// An `n`-bit Gray-code counter: exactly one state bit flips per cycle.
/// Built as binary-count-then-convert: `g = b ⊕ (b >> 1)` over an internal
/// binary counter would need extra latches, so instead the Gray counter is
/// implemented directly: bit 0 flips when the parity of the state is even;
/// bit `j > 0` flips when `s(j-1) = 1` and all lower bits are `0` and the
/// parity is odd (the standard direct Gray-increment rule, with the top
/// bit's guard relaxed to include the wrap case).
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn gray_counter(n: usize) -> Circuit {
    assert!(n >= 2, "gray counter needs at least 2 bits");
    let mut c = Circuit::new(0, n);
    c.set_name(format!("gray{n}"));
    let bits: Vec<AigRef> = (0..n).map(|j| c.state_ref(j)).collect();
    let parity = c.aig_mut().xor_many(&bits);
    // flip0 = even parity
    let mut flips: Vec<AigRef> = vec![!parity];
    // flip_j (0 < j < n-1) = odd parity ∧ s(j-1) ∧ ¬s(j-2..0)
    for j in 1..n {
        let mut cond = parity;
        cond = c.aig_mut().and(cond, bits[j - 1]);
        for &bit in &bits[..j.saturating_sub(1)] {
            cond = c.aig_mut().and(cond, !bit);
        }
        if j == n - 1 {
            // The top bit also flips on wrap (odd parity and all of
            // s(n-3..0) zero with s(n-2)=0 but s(n-1)=1) — fold the wrap in
            // by also flipping when the lower n-1 bits are all zero.
            let mut wrap = parity;
            for &bit in &bits[..n - 1] {
                wrap = c.aig_mut().and(wrap, !bit);
            }
            cond = c.aig_mut().or(cond, wrap);
        }
        flips.push(cond);
    }
    for j in 0..n {
        let next = c.aig_mut().xor(bits[j], flips[j]);
        c.set_latch_next(j, next);
    }
    let top = bits[n - 1];
    c.add_output("msb", top);
    c
}

/// An `n`-stage Johnson (twisted-ring) counter: a shift ring whose feedback
/// is the complement of the last stage. Visits exactly `2n` of the `2^n`
/// states — a natural workload with a small reachable set.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn johnson_counter(n: usize) -> Circuit {
    assert!(n >= 2, "johnson counter needs at least 2 stages");
    let mut c = Circuit::new(0, n);
    c.set_name(format!("johnson{n}"));
    let last = c.state_ref(n - 1);
    c.set_latch_next(0, !last);
    for j in 1..n {
        let prev = c.state_ref(j - 1);
        c.set_latch_next(j, prev);
    }
    let out = c.state_ref(n - 1);
    c.add_output("ring_out", out);
    c
}

/// A two-intersection traffic-light controller: each light is a 2-bit
/// one-hot-ish phase (00=red, 01=green, 10=yellow), advancing on a `tick`
/// input, with an interlock that keeps the second light red unless the
/// first is red. 4 latches, 2 inputs (`tick`, `pedestrian` hold).
pub fn traffic_controller() -> Circuit {
    let mut c = Circuit::new(2, 4);
    c.set_name("traffic");
    let tick = c.input_ref(0);
    let ped = c.input_ref(1);
    // Light A: latches 0 (green), 1 (yellow); red = ¬green ∧ ¬yellow.
    // Light B: latches 2 (green), 3 (yellow).
    let a_g = c.state_ref(0);
    let a_y = c.state_ref(1);
    let b_g = c.state_ref(2);
    let b_y = c.state_ref(3);
    let advance = {
        let np = !ped;
        c.aig_mut().and(tick, np)
    };
    let a_red = {
        let ng = !a_g;
        let ny = !a_y;
        c.aig_mut().and(ng, ny)
    };
    let b_red = {
        let ng = !b_g;
        let ny = !b_y;
        c.aig_mut().and(ng, ny)
    };
    // A: red→green when B is red; green→yellow; yellow→red.
    let a_go = c.aig_mut().and(a_red, b_red);
    let a_g_next = {
        let start = c.aig_mut().and(advance, a_go);
        let hold = {
            let na = !advance;
            c.aig_mut().and(a_g, na)
        };
        c.aig_mut().or(start, hold)
    };
    let a_y_next = {
        let to_y = c.aig_mut().and(advance, a_g);
        let hold = {
            let na = !advance;
            c.aig_mut().and(a_y, na)
        };
        c.aig_mut().or(to_y, hold)
    };
    // B: red→green when A just turned red (A yellow now) ; green→yellow;
    // yellow→red.
    let b_go = c.aig_mut().and(a_y, b_red);
    let b_g_next = {
        let start = c.aig_mut().and(advance, b_go);
        let hold = {
            let na = !advance;
            c.aig_mut().and(b_g, na)
        };
        c.aig_mut().or(start, hold)
    };
    let b_y_next = {
        let to_y = c.aig_mut().and(advance, b_g);
        let hold = {
            let na = !advance;
            c.aig_mut().and(b_y, na)
        };
        c.aig_mut().or(to_y, hold)
    };
    c.set_latch_next(0, a_g_next);
    c.set_latch_next(1, a_y_next);
    c.set_latch_next(2, b_g_next);
    c.set_latch_next(3, b_y_next);
    let both_green = c.aig_mut().and(a_g, b_g);
    c.add_output("conflict", both_green);
    c
}

/// A FIFO occupancy controller for a queue of depth `2^k - 1`: a `k`-bit
/// counter tracking occupancy with `push`/`pop` inputs, saturating at the
/// bounds, plus `full`/`empty` flag latches. `k + 2` latches, 2 inputs.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn fifo_controller(k: usize) -> Circuit {
    assert!(k > 0, "fifo counter width must be positive");
    let mut c = Circuit::new(2, k + 2);
    c.set_name(format!("fifo{k}"));
    let push = c.input_ref(0);
    let pop = c.input_ref(1);
    let count: Vec<AigRef> = (0..k).map(|j| c.state_ref(j)).collect();

    let all_ones = c.aig_mut().and_many(&count);
    let none = {
        let inv: Vec<AigRef> = count.iter().map(|&b| !b).collect();
        c.aig_mut().and_many(&inv)
    };
    // inc when push ∧ ¬pop ∧ ¬full ; dec when pop ∧ ¬push ∧ ¬empty.
    let inc = {
        let np = !pop;
        let t = c.aig_mut().and(push, np);
        let nf = !all_ones;
        c.aig_mut().and(t, nf)
    };
    let dec = {
        let np = !push;
        let t = c.aig_mut().and(pop, np);
        let ne = !none;
        c.aig_mut().and(t, ne)
    };
    // count' = count + inc - dec  (inc and dec are mutually exclusive).
    // Adder: ripple with carry=inc, borrow=dec.
    let mut carry = inc;
    let mut borrow = dec;
    for (j, &b) in count.iter().enumerate().take(k) {
        let x1 = c.aig_mut().xor(b, carry);
        let next = c.aig_mut().xor(x1, borrow);
        let new_carry = c.aig_mut().and(carry, b);
        let nb = !b;
        let new_borrow = c.aig_mut().and(borrow, nb);
        c.set_latch_next(j, next);
        carry = new_carry;
        borrow = new_borrow;
    }
    // Flags are registered views of the *next* occupancy bounds: recompute
    // on the next value by re-deriving from the transition: next_full =
    // (count' == all ones). For simplicity, register current-cycle flags.
    c.set_latch_next(k, all_ones);
    c.set_latch_next(k + 1, none);
    let full = c.state_ref(k);
    let empty = c.state_ref(k + 1);
    c.add_output("full", full);
    c.add_output("empty", empty);
    c
}

/// A seeded random sequential circuit: `gates` random AND/XOR/MUX gates over
/// the leaves and earlier gates; each latch's next-state function and each
/// of two outputs is a random gate. Deterministic in `seed`.
///
/// # Panics
///
/// Panics if `num_latches == 0`.
pub fn random_dag(num_inputs: usize, num_latches: usize, gates: usize, seed: u64) -> Circuit {
    assert!(num_latches > 0, "need at least one latch");
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut c = Circuit::new(num_inputs, num_latches);
    c.set_name(format!("rnd{num_inputs}x{num_latches}g{gates}s{seed}"));
    let mut pool: Vec<AigRef> = (0..num_inputs)
        .map(|i| c.input_ref(i))
        .chain((0..num_latches).map(|j| c.state_ref(j)))
        .collect();
    for _ in 0..gates {
        let pick = |rng: &mut SplitMix64, pool: &[AigRef]| {
            let r = pool[rng.gen_range(0..pool.len())];
            if rng.gen_bool(0.5) {
                !r
            } else {
                r
            }
        };
        let a = pick(&mut rng, &pool);
        let b = pick(&mut rng, &pool);
        let g = match rng.gen_range(0..3) {
            0 => c.aig_mut().and(a, b),
            1 => c.aig_mut().xor(a, b),
            _ => {
                let s = pick(&mut rng, &pool);
                c.aig_mut().mux(s, a, b)
            }
        };
        pool.push(g);
    }
    for j in 0..num_latches {
        let f = pool[rng.gen_range(0..pool.len())];
        c.set_latch_next(j, f);
    }
    for k in 0..2 {
        let f = pool[rng.gen_range(0..pool.len())];
        c.add_output(format!("y{k}"), f);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim;

    #[test]
    fn counter_increments_and_wraps() {
        let c = counter(5, false);
        c.validate().unwrap();
        for (s, _w, n) in sim::enumerate_transitions(&c) {
            assert_eq!(n, (s + 1) % 32);
        }
    }

    #[test]
    fn counter_with_enable_holds() {
        let c = counter(3, true);
        for (s, w, n) in sim::enumerate_transitions(&c) {
            if w & 1 == 1 {
                assert_eq!(n, (s + 1) % 8);
            } else {
                assert_eq!(n, s);
            }
        }
    }

    #[test]
    fn shift_register_shifts() {
        let c = shift_register(4);
        for (s, w, n) in sim::enumerate_transitions(&c) {
            let expect = ((s << 1) | (w & 1)) & 0xF;
            assert_eq!(n, expect);
        }
    }

    #[test]
    fn lfsr_is_a_bijection() {
        let c = lfsr(6);
        let mut preds = std::collections::HashMap::new();
        for (s, _w, n) in sim::enumerate_transitions(&c) {
            assert!(preds.insert(n, s).is_none(), "two predecessors for {n}");
        }
        assert_eq!(preds.len(), 64);
    }

    #[test]
    fn parity_latch_tracks_state_parity() {
        let c = parity(3);
        for (s, _w, n) in sim::enumerate_transitions(&c) {
            let data = s & 0b111;
            let expect_parity = (data.count_ones() % 2) as u64;
            assert_eq!((n >> 3) & 1, expect_parity);
        }
    }

    #[test]
    fn arbiter_rotates_token_and_grants() {
        let c = round_robin_arbiter(3);
        for (s, w, n) in sim::enumerate_transitions(&c) {
            let token = s & 0b111;
            let next_token = n & 0b111;
            // Rotation left by 1 within 3 bits.
            let expect = ((token << 1) | (token >> 2)) & 0b111;
            assert_eq!(next_token, expect);
            let grants = (n >> 3) & 0b111;
            assert_eq!(grants, w & token, "grant = req ∧ token");
        }
    }

    #[test]
    fn comparator_compares() {
        let c = comparator(3);
        for (s, w, n) in sim::enumerate_transitions(&c) {
            let a = s & 0b111;
            let next_a = w & 0b111;
            let b = (w >> 3) & 0b111;
            assert_eq!(n & 0b111, next_a, "A reloads from inputs");
            assert_eq!((n >> 3) & 1, u64::from(a > b), "flag = A > B");
        }
    }

    #[test]
    fn random_dag_is_deterministic_in_seed() {
        let a = random_dag(3, 4, 30, 7);
        let b = random_dag(3, 4, 30, 7);
        assert_eq!(
            sim::enumerate_transitions(&a),
            sim::enumerate_transitions(&b)
        );
        let c = random_dag(3, 4, 30, 8);
        // Overwhelmingly likely to differ.
        assert_ne!(
            sim::enumerate_transitions(&a),
            sim::enumerate_transitions(&c)
        );
    }

    #[test]
    fn gray_counter_cycles_through_all_states_one_bit_at_a_time() {
        for n in [3usize, 4, 5] {
            let c = gray_counter(n);
            let mut seen = std::collections::HashSet::new();
            let mut state = 0u64;
            for _ in 0..(1 << n) {
                assert!(seen.insert(state), "gray{n} revisited {state:b} early");
                let words: Vec<u64> = (0..n).map(|j| state >> j & 1).collect();
                let next = sim::next_state(&c, &[], &words);
                let next_bits: u64 = next.iter().enumerate().map(|(j, w)| (w & 1) << j).sum();
                assert_eq!(
                    (state ^ next_bits).count_ones(),
                    1,
                    "gray{n}: {state:b} -> {next_bits:b} flips ≠ 1 bit"
                );
                state = next_bits;
            }
            assert_eq!(state, 0, "gray{n} must return to the origin");
            assert_eq!(seen.len(), 1 << n);
        }
    }

    #[test]
    fn johnson_counter_has_2n_cycle() {
        let n = 5;
        let c = johnson_counter(n);
        let mut state = 0u64;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2 * n {
            assert!(seen.insert(state));
            let words: Vec<u64> = (0..n).map(|j| state >> j & 1).collect();
            let next = sim::next_state(&c, &[], &words);
            state = next.iter().enumerate().map(|(j, w)| (w & 1) << j).sum();
        }
        assert_eq!(state, 0, "johnson cycle length is exactly 2n");
        assert_eq!(seen.len(), 2 * n);
    }

    #[test]
    fn traffic_controller_interlock_holds_from_reset() {
        let c = traffic_controller();
        // From all-red reset, run the tick for a while and check the
        // "conflict" output (both green) never fires.
        let mut state = vec![0u64; 4];
        for step in 0..32 {
            let tick = 1u64; // always ticking, no pedestrian
            let (outs, next) = sim::step(&c, &[tick, 0], &state);
            assert_eq!(outs[0] & 1, 0, "conflict at step {step}");
            state = next;
        }
    }

    #[test]
    fn fifo_counter_saturates() {
        let k = 3;
        let c = fifo_controller(k);
        let step1 = |state: &mut Vec<u64>, push: u64, pop: u64| -> u64 {
            let next = sim::next_state(&c, &[push, pop], state);
            *state = next;
            (0..k).map(|j| (state[j] & 1) << j).sum()
        };
        let mut state = vec![0u64; k + 2];
        // Push past full: must saturate at 7.
        for _ in 0..10 {
            step1(&mut state, 1, 0);
        }
        assert_eq!((0..k).map(|j| (state[j] & 1) << j).sum::<u64>(), 7);
        // Pop past empty: must saturate at 0.
        for _ in 0..10 {
            step1(&mut state, 0, 1);
        }
        assert_eq!((0..k).map(|j| (state[j] & 1) << j).sum::<u64>(), 0);
        // Simultaneous push+pop holds the count.
        step1(&mut state, 1, 0);
        let before: u64 = (0..k).map(|j| (state[j] & 1) << j).sum();
        step1(&mut state, 1, 1);
        let after: u64 = (0..k).map(|j| (state[j] & 1) << j).sum();
        assert_eq!(before, after);
    }

    #[test]
    fn all_generators_validate() {
        for c in [
            counter(8, true),
            shift_register(8),
            lfsr(8),
            parity(8),
            round_robin_arbiter(4),
            comparator(8),
            gray_counter(6),
            johnson_counter(6),
            traffic_controller(),
            fifo_controller(4),
            random_dag(4, 6, 50, 1),
        ] {
            c.validate().unwrap_or_else(|e| panic!("{}: {e}", c.name()));
        }
    }
}
