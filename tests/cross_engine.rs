//! Cross-engine equivalence: every preimage engine must agree with the
//! exhaustive-simulation oracle on every circuit family small enough to
//! enumerate.

use presat::circuit::{embedded, generators, Circuit};
use presat::preimage::{oracle, BddPreimage, PreimageEngine, SatPreimage, StateSet};

fn engines() -> Vec<Box<dyn PreimageEngine>> {
    use presat::allsat::SignatureMode;
    vec![
        Box::new(SatPreimage::blocking()),
        Box::new(SatPreimage::min_blocking()),
        Box::new(SatPreimage::chrono()),
        Box::new(SatPreimage::success_driven()),
        Box::new(SatPreimage::success_driven_with(
            SignatureMode::Static,
            true,
        )),
        Box::new(SatPreimage::success_driven_with(SignatureMode::None, true)),
        Box::new(SatPreimage::success_driven_with(
            SignatureMode::Dynamic,
            false,
        )),
        Box::new(BddPreimage::substitution()),
        Box::new(BddPreimage::monolithic()),
    ]
}

fn check(circuit: &Circuit, target: &StateSet) {
    let n = circuit.num_latches();
    let expect = oracle::preimage(circuit, target);
    for engine in engines() {
        let got = engine.preimage(circuit, target);
        assert!(
            got.states.semantically_eq(&expect, n),
            "{} diverges from oracle on {} (target {target})",
            engine.name(),
            circuit.name(),
        );
    }
}

#[test]
fn counters() {
    for (n, en) in [(3, false), (4, false), (3, true), (4, true)] {
        let c = generators::counter(n, en);
        check(&c, &StateSet::from_state_bits(1, n));
        check(&c, &StateSet::from_partial(&[(n - 1, true)]));
    }
}

#[test]
fn shift_registers() {
    for n in [3, 5] {
        let c = generators::shift_register(n);
        check(&c, &StateSet::from_state_bits((1 << n) - 1, n));
        check(&c, &StateSet::from_partial(&[(0, true), (n - 1, false)]));
    }
}

#[test]
fn lfsrs() {
    for n in [4, 6] {
        let c = generators::lfsr(n);
        check(&c, &StateSet::from_state_bits(3, n));
        check(&c, &StateSet::from_partial(&[(1, true)]));
    }
}

#[test]
fn parity_circuits() {
    for n in [3, 4] {
        let c = generators::parity(n);
        check(&c, &StateSet::from_partial(&[(n, true)]));
        check(&c, &StateSet::from_partial(&[(n, false), (0, true)]));
    }
}

#[test]
fn arbiters() {
    let c = generators::round_robin_arbiter(3);
    check(&c, &StateSet::from_partial(&[(3, true)]));
    check(&c, &StateSet::from_state_bits(0b000111, 6));
}

#[test]
fn comparators() {
    for n in [2, 3] {
        let c = generators::comparator(n);
        check(&c, &StateSet::from_partial(&[(n, true)]));
    }
}

#[test]
fn embedded_netlists() {
    let s27 = embedded::s27().unwrap();
    for bits in 0..8 {
        check(&s27, &StateSet::from_state_bits(bits, 3));
    }
    let ctl2 = embedded::ctl2().unwrap();
    for bits in 0..4 {
        check(&ctl2, &StateSet::from_state_bits(bits, 2));
    }
}

#[test]
fn multi_cube_targets() {
    let c = generators::counter(4, true);
    let t = StateSet::from_state_bits(2, 4)
        .union(&StateSet::from_state_bits(9, 4))
        .union(&StateSet::from_partial(&[(3, true), (0, false)]));
    check(&c, &t);
}

#[test]
fn gray_and_johnson_counters() {
    let g = generators::gray_counter(4);
    check(&g, &StateSet::from_state_bits(0b1100, 4));
    check(&g, &StateSet::from_partial(&[(3, true)]));
    let j = generators::johnson_counter(4);
    check(&j, &StateSet::from_state_bits(0b0011, 4));
    check(&j, &StateSet::from_partial(&[(0, false), (3, true)]));
}

#[test]
fn traffic_and_fifo_controllers() {
    let t = generators::traffic_controller();
    check(&t, &StateSet::from_partial(&[(0, true), (2, true)])); // conflict set
    check(&t, &StateSet::from_state_bits(0, 4));
    let f = generators::fifo_controller(3);
    check(&f, &StateSet::from_partial(&[(3, true)])); // full flag
    check(&f, &StateSet::from_state_bits(0, 5));
}

#[test]
fn random_circuit_sweep() {
    for seed in 0..10 {
        let c = generators::random_dag(3, 4, 30, seed);
        check(&c, &StateSet::from_state_bits(seed % 16, 4));
        check(&c, &StateSet::from_partial(&[(2, seed % 2 == 0)]));
    }
}

/// The chrono engine never asserts a blocking clause: across every
/// generator family its `blocking_clauses` counter stays zero, its clause
/// database never grows past the encoding (`db_clauses_peak` equals the
/// problem clause count), and repeated runs are bit-identical.
#[test]
fn chrono_is_blocking_clause_free_and_deterministic() {
    let circuits = [
        generators::counter(4, true),
        generators::parity(4),
        generators::shift_register(4),
        generators::round_robin_arbiter(2),
        generators::lfsr(4),
    ];
    for c in &circuits {
        let t = StateSet::from_partial(&[(0, true)]);
        let a = SatPreimage::chrono().preimage(c, &t);
        let b = SatPreimage::chrono().preimage(c, &t);
        assert_eq!(a.states.cubes(), b.states.cubes(), "{}", c.name());
        assert_eq!(a.stats.allsat.blocking_clauses, 0, "{}", c.name());
        assert_eq!(
            a.stats.allsat.db_clauses_peak,
            a.stats.allsat.sat.problem_clauses,
            "{}: clause DB grew during chrono enumeration",
            c.name()
        );
        assert_eq!(a.stats.allsat.sat.learnt_clauses, 0, "{}", c.name());
    }
}

/// SAT and BDD preimages agree on 20 seeded random circuits, and every
/// run's counter snapshot serializes to well-formed JSON carrying the
/// engine's wall time.
#[test]
fn sat_and_bdd_agree_with_valid_json_stats() {
    use presat::obs::{json, Stats};
    for seed in 0..20u64 {
        let c = generators::random_dag(3, 4, 30, seed);
        let target = StateSet::from_state_bits(seed % 16, 4);
        let sat = SatPreimage::success_driven().preimage(&c, &target);
        let bdd = BddPreimage::substitution().preimage(&c, &target);
        assert!(
            sat.states.semantically_eq(&bdd.states, 4),
            "SAT and BDD preimages diverge on random_dag seed {seed}"
        );
        for (engine, result) in [("sat-success-driven", &sat), ("bdd-sub", &bdd)] {
            let stats = Stats::from_preimage(engine, &result.stats);
            let text = stats.to_json();
            json::validate(&text).unwrap_or_else(|e| panic!("seed {seed} {engine}: {e}\n{text}"));
            assert_eq!(
                json::extract_u64(&text, "preimage.result_cubes"),
                Some(result.stats.result_cubes),
                "seed {seed} {engine}"
            );
            assert!(stats.wall_time_ns > 0, "seed {seed} {engine}: no wall time");
        }
    }
}
