//! Fuzz-style robustness: the text parsers must return errors, never
//! panic, on arbitrary input — and must accept everything their writers
//! produce. Formerly proptest-based; now seeded random-noise loops on the
//! in-tree [`SplitMix64`] PRNG, plus the explicit regression cases the old
//! fuzzer once discovered.

use presat::circuit::{aiger, bench, generators};
use presat::logic::dimacs;
use presat::logic::rng::SplitMix64;

/// A random string of up to `max_len` printable-ish Unicode scalars
/// (control characters included — parsers must survive those too).
fn random_text(rng: &mut SplitMix64, max_len: usize) -> String {
    let len = rng.gen_range(0..max_len + 1);
    (0..len)
        .map(|_| {
            // Below the surrogate range, so every draw is a valid scalar.
            char::from_u32(rng.gen_u64_below(0xD800) as u32).unwrap_or('\u{FFFD}')
        })
        .collect()
}

fn random_lowercase(rng: &mut SplitMix64, min: usize, max: usize) -> String {
    let len = rng.gen_range(min..max + 1);
    (0..len)
        .map(|_| char::from(b'a' + rng.gen_range(0..26) as u8))
        .collect()
}

/// Arbitrary text never panics any parser.
#[test]
fn parsers_never_panic_on_noise() {
    let mut rng = SplitMix64::seed_from_u64(0x6001);
    for _ in 0..256 {
        let text = random_text(&mut rng, 200);
        let _ = dimacs::parse(&text);
        let _ = bench::parse(&text);
        let _ = aiger::parse(&text);
    }
}

/// Structured-looking but malformed DIMACS never panics.
#[test]
fn dimacs_structured_noise() {
    let mut rng = SplitMix64::seed_from_u64(0x6002);
    for _ in 0..256 {
        let mut text = format!(
            "p cnf {} {}\n",
            rng.gen_range(0..1000),
            rng.gen_range(0..1000)
        );
        for _ in 0..rng.gen_range(0..40) {
            let v = rng.gen_range(0..40) as i64 - 20;
            text.push_str(&format!("{v} "));
        }
        text.push('\n');
        let _ = dimacs::parse(&text);
    }
}

/// Structured-looking but malformed AIGER never panics.
#[test]
fn aiger_structured_noise() {
    let mut rng = SplitMix64::seed_from_u64(0x6003);
    for _ in 0..256 {
        let mut text = format!(
            "aag {} {} {} {} {}\n",
            rng.gen_range(0..20),
            rng.gen_range(0..5),
            rng.gen_range(0..5),
            rng.gen_range(0..5),
            rng.gen_range(0..5)
        );
        for _ in 0..rng.gen_range(0..16) {
            let words: Vec<String> = (0..rng.gen_range(1..4))
                .map(|_| rng.gen_u64_below(64).to_string())
                .collect();
            text.push_str(&words.join(" "));
            text.push('\n');
        }
        let _ = aiger::parse(&text);
    }
}

/// Structured-looking but malformed BENCH never panics.
#[test]
fn bench_structured_noise() {
    let mut rng = SplitMix64::seed_from_u64(0x6004);
    let gates = ["AND", "OR", "NOT", "DFF", "XOR", "FROB"];
    for _ in 0..256 {
        let mut lines = Vec::new();
        for _ in 0..rng.gen_range(0..12) {
            let line = match rng.gen_range(0..4) {
                0 => format!("INPUT({})", random_lowercase(&mut rng, 1, 3)),
                1 => format!("OUTPUT({})", random_lowercase(&mut rng, 1, 3)),
                2 => {
                    let gate = gates[rng.gen_range(0..gates.len())];
                    let a = random_lowercase(&mut rng, 1, 3);
                    let args = if rng.gen_bool(0.5) {
                        format!("{a}, {}", random_lowercase(&mut rng, 1, 3))
                    } else {
                        a
                    };
                    format!("{} = {gate}({args})", random_lowercase(&mut rng, 1, 3))
                }
                _ => {
                    let len = rng.gen_range(0..11);
                    (0..len)
                        .map(|_| {
                            if rng.gen_bool(0.2) {
                                ' '
                            } else {
                                char::from(b'a' + rng.gen_range(0..26) as u8)
                            }
                        })
                        .collect()
                }
            };
            lines.push(line);
        }
        let _ = bench::parse(&lines.join("\n"));
    }
}

/// Regression: the old fuzzer's one saved shrink — an AIGER header
/// declaring one latch (`aag 1 0 1 0 0`) whose latch line carries an
/// out-of-range literal (`44 0`). Must error, not panic.
#[test]
fn aiger_latch_literal_out_of_range_regression() {
    assert!(aiger::parse("aag 1 0 1 0 0\n44 0\n").is_err());
}

/// Regression: AIGER header counts are untrusted. Counts far beyond the
/// lines present, counts whose sum overflows, and a maximum variable
/// whose literals overflow must each be an error, never an abort or a
/// panic. A literal far beyond the definitions allocates nothing either:
/// undefined, it is an error; defined, it is a valid sparse numbering.
#[test]
fn aiger_header_counts_are_not_trusted() {
    for text in [
        "aag 1000000000000000000 1000000000000000000 0 0 0\n",
        "aag 18446744073709551615 18446744073709551615 1 0 0\n",
        "aag 18446744073709551615 0 0 0 0\n",
        "aag 1000000000000 0 0 1 0\n2000000000000\n",
    ] {
        assert!(aiger::parse(text).is_err(), "{text:?}");
    }
    let c = aiger::parse("aag 1000000000000 1 0 1 0\n2000000000000\n2000000000001\n")
        .expect("one input with a sparse variable number");
    assert_eq!((c.num_inputs(), c.num_outputs()), (1, 1));
}

/// Regression: a DIMACS variable number whose literals a `Lit` cannot
/// encode is an error. Before the bound, `p cnf 3000000000 1` with
/// `2147483649 0` parsed to the clause `(x0)`, since the literal code
/// wrapped around `u32`.
#[test]
fn dimacs_variables_beyond_the_literal_range_are_errors() {
    assert!(matches!(
        dimacs::parse("p cnf 3000000000 1\n2147483649 0\n"),
        Err(dimacs::ParseDimacsError::BadHeader { line: 1 })
    ));
    assert!(matches!(
        dimacs::parse("p cnf 5000000000 1\n4294967297 0\n"),
        Err(dimacs::ParseDimacsError::BadHeader { line: 1 })
    ));
    assert!(matches!(
        dimacs::parse("p cnf 2147483648 1\n2147483649 0\n"),
        Err(dimacs::ParseDimacsError::VarOutOfRange {
            line: 2,
            value: 2147483649
        })
    ));
    assert!(matches!(
        dimacs::parse("p cnf 3 1\n4294967297 0\n"),
        Err(dimacs::ParseDimacsError::VarOutOfRange { line: 2, .. })
    ));
    // The largest number that still encodes parses to that variable.
    let cnf = dimacs::parse("p cnf 2147483648 1\n-2147483648 0\n").expect("in range");
    assert_eq!(cnf.clauses()[0][0].var().index(), dimacs::MAX_VARS - 1);
    assert!(cnf.clauses()[0][0].is_neg());
}

/// Random sequential circuits survive write→parse round trips in both
/// netlist formats with transition-exact behaviour.
#[test]
fn random_circuits_round_trip() {
    use presat::circuit::sim;
    let mut rng = SplitMix64::seed_from_u64(0x6005);
    for case in 0..24 {
        let seed = rng.gen_u64_below(1_000_000);
        let inputs = rng.gen_range(1..4);
        let latches = rng.gen_range(1..5);
        let gates = rng.gen_range(0..40);
        let c = generators::random_dag(inputs, latches, gates, seed);
        let reference = sim::enumerate_transitions(&c);
        let via_bench = bench::parse(&bench::write(&c)).expect("bench round trip");
        assert_eq!(
            sim::enumerate_transitions(&via_bench),
            reference,
            "case {case} (seed {seed})"
        );
        let via_aiger = aiger::parse(&aiger::write(&c)).expect("aiger round trip");
        assert_eq!(
            sim::enumerate_transitions(&via_aiger),
            reference,
            "case {case} (seed {seed})"
        );
    }
}

/// Every generator's output survives a write→parse round trip in both
/// netlist formats (transition-exact, checked elsewhere; here we sweep more
/// shapes).
#[test]
fn writers_produce_parseable_output() {
    let circuits = vec![
        generators::counter(5, true),
        generators::shift_register(6),
        generators::lfsr(6),
        generators::parity(4),
        generators::round_robin_arbiter(3),
        generators::comparator(4),
        generators::gray_counter(4),
        generators::johnson_counter(5),
        generators::traffic_controller(),
        generators::fifo_controller(3),
        generators::random_dag(4, 5, 40, 99),
    ];
    for c in &circuits {
        let bench_text = bench::write(c);
        bench::parse(&bench_text).unwrap_or_else(|e| panic!("{} bench: {e}", c.name()));
        let aag_text = aiger::write(c);
        aiger::parse(&aag_text).unwrap_or_else(|e| panic!("{} aiger: {e}", c.name()));
    }
}
