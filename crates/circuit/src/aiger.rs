//! ASCII AIGER (`.aag`) reading and writing.
//!
//! AIGER is the interchange format of the hardware model-checking
//! community (HWMCC); supporting it makes the preimage engines usable on
//! standard benchmark files. Only the ASCII variant is implemented —
//! binary `.aig` files can be converted with the reference `aigtoaig`
//! tool.
//!
//! # Examples
//!
//! ```
//! // A 1-latch toggle: l' = ¬l, output = l.
//! let text = "aag 1 0 1 1 0\n2 3\n2\n";
//! let c = presat_circuit::aiger::parse(text)?;
//! assert_eq!(c.num_latches(), 1);
//! assert_eq!(c.num_outputs(), 1);
//! # Ok::<(), presat_circuit::aiger::ParseAigerError>(())
//! ```

use std::collections::HashMap;
use std::fmt;

use crate::aig::AigRef;
use crate::Circuit;

/// Error produced while parsing AIGER text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseAigerError {
    /// The `aag M I L O A` header is missing or malformed.
    BadHeader,
    /// A literal token was not a number.
    BadLiteral {
        /// 1-based line number.
        line: usize,
    },
    /// Fewer definition lines than the header declares.
    Truncated,
    /// An input/latch/AND definition uses an unexpected literal.
    BadDefinition {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        reason: &'static str,
    },
    /// A referenced variable has no definition.
    UndefinedVariable {
        /// The AIGER variable index.
        var: usize,
    },
    /// The maximum-variable header field is inconsistent with I+L+A.
    InconsistentCounts,
}

impl fmt::Display for ParseAigerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseAigerError::BadHeader => write!(f, "missing or malformed aag header"),
            ParseAigerError::BadLiteral { line } => write!(f, "invalid literal at line {line}"),
            ParseAigerError::Truncated => write!(f, "unexpected end of file"),
            ParseAigerError::BadDefinition { line, reason } => {
                write!(f, "bad definition at line {line}: {reason}")
            }
            ParseAigerError::UndefinedVariable { var } => {
                write!(f, "variable {var} referenced but never defined")
            }
            ParseAigerError::InconsistentCounts => {
                write!(f, "header max-variable count inconsistent with sections")
            }
        }
    }
}

impl std::error::Error for ParseAigerError {}

/// Parses ASCII AIGER text into a [`Circuit`].
///
/// Latch reset values (optional third field per AIGER 1.9) are honoured:
/// `0`/`1` become concrete resets, the latch's own literal means
/// "uninitialized" and maps to `None`.
///
/// # Errors
///
/// Returns a [`ParseAigerError`] describing the first problem found.
pub fn parse(text: &str) -> Result<Circuit, ParseAigerError> {
    let mut lines = text.lines().enumerate();

    let (_, header) = lines.next().ok_or(ParseAigerError::BadHeader)?;
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() != 6 || fields[0] != "aag" {
        return Err(ParseAigerError::BadHeader);
    }
    let nums: Vec<usize> = fields[1..]
        .iter()
        .map(|t| t.parse().map_err(|_| ParseAigerError::BadHeader))
        .collect::<Result<_, _>>()?;
    let (max_var, num_in, num_latch, num_out, num_and) =
        (nums[0], nums[1], nums[2], nums[3], nums[4]);
    // The literals `2v` and `2v + 1` of every variable up to `max_var`
    // must fit a word.
    if max_var > usize::MAX / 2 {
        return Err(ParseAigerError::BadHeader);
    }
    let defined = num_in
        .checked_add(num_latch)
        .and_then(|n| n.checked_add(num_and))
        .ok_or(ParseAigerError::InconsistentCounts)?;
    if max_var < defined {
        return Err(ParseAigerError::InconsistentCounts);
    }
    // The header's counts are untrusted: buffers are sized by the lines
    // actually present, never by the counts alone.
    let lines_left = text.lines().count() - 1;

    let mut next_line = |expect: &'static str| -> Result<(usize, Vec<u64>), ParseAigerError> {
        let (idx, line) = lines.next().ok_or(ParseAigerError::Truncated)?;
        let lits: Vec<u64> = line
            .split_whitespace()
            .map(|t| t.parse().map_err(|_| ParseAigerError::BadLiteral { line: idx + 1 }))
            .collect::<Result<_, _>>()?;
        if lits.is_empty() {
            return Err(ParseAigerError::BadDefinition {
                line: idx + 1,
                reason: expect,
            });
        }
        Ok((idx + 1, lits))
    };

    // Collect the raw sections first.
    let mut input_lits = Vec::with_capacity(num_in.min(lines_left));
    for _ in 0..num_in {
        let (line, lits) = next_line("input literal expected")?;
        if lits.len() != 1 || lits[0] % 2 != 0 || lits[0] == 0 {
            return Err(ParseAigerError::BadDefinition {
                line,
                reason: "input must be a single positive non-constant literal",
            });
        }
        input_lits.push(lits[0]);
    }
    let mut latch_defs = Vec::with_capacity(num_latch.min(lines_left));
    for _ in 0..num_latch {
        let (line, lits) = next_line("latch definition expected")?;
        if lits.len() < 2 || lits.len() > 3 || lits[0] % 2 != 0 || lits[0] == 0 {
            return Err(ParseAigerError::BadDefinition {
                line,
                reason: "latch must be `lit next [init]` with a positive lhs",
            });
        }
        latch_defs.push((lits[0], lits[1], lits.get(2).copied()));
    }
    let mut output_lits = Vec::with_capacity(num_out.min(lines_left));
    for _ in 0..num_out {
        let (line, lits) = next_line("output literal expected")?;
        if lits.len() != 1 {
            return Err(ParseAigerError::BadDefinition {
                line,
                reason: "output must be a single literal",
            });
        }
        output_lits.push(lits[0]);
    }
    let mut and_defs = Vec::with_capacity(num_and.min(lines_left));
    for _ in 0..num_and {
        let (line, lits) = next_line("and definition expected")?;
        if lits.len() != 3 || lits[0] % 2 != 0 || lits[0] == 0 {
            return Err(ParseAigerError::BadDefinition {
                line,
                reason: "and must be `lhs rhs0 rhs1` with a positive lhs",
            });
        }
        and_defs.push((lits[0], lits[1], lits[2]));
    }

    // Build the circuit. AIGER variable index → our AigRef.
    let check_var = |lit: u64| -> Result<usize, ParseAigerError> {
        let var = (lit / 2) as usize;
        if var > max_var {
            return Err(ParseAigerError::BadDefinition {
                line: 0,
                reason: "literal exceeds the header's maximum variable",
            });
        }
        Ok(var)
    };
    let mut circuit = Circuit::new(num_in, num_latch);
    // Keyed by AIGER variable: a header may declare, and a literal name,
    // variables far beyond the definitions the text holds.
    let mut var_ref: HashMap<usize, AigRef> =
        HashMap::with_capacity(input_lits.len() + latch_defs.len() + and_defs.len());
    for (i, &lit) in input_lits.iter().enumerate() {
        var_ref.insert(check_var(lit)?, circuit.input_ref(i));
    }
    for (j, &(lit, _, _)) in latch_defs.iter().enumerate() {
        var_ref.insert(check_var(lit)?, circuit.state_ref(j));
    }

    let resolve = |var_ref: &HashMap<usize, AigRef>, lit: u64| -> Result<AigRef, ParseAigerError> {
        if lit <= 1 {
            return Ok(if lit == 1 { AigRef::TRUE } else { AigRef::FALSE });
        }
        let var = (lit / 2) as usize;
        let r = var_ref
            .get(&var)
            .copied()
            .ok_or(ParseAigerError::UndefinedVariable { var })?;
        Ok(if lit % 2 == 1 { !r } else { r })
    };

    // AND definitions are required (by the format) to be in topological
    // order of the lhs, so a single pass suffices.
    for &(lhs, rhs0, rhs1) in &and_defs {
        let lhs_var = check_var(lhs)?;
        let a = resolve(&var_ref, rhs0)?;
        let b = resolve(&var_ref, rhs1)?;
        let g = circuit.aig_mut().and(a, b);
        var_ref.insert(lhs_var, g);
    }

    for (j, &(lit, next, init)) in latch_defs.iter().enumerate() {
        let f = resolve(&var_ref, next)?;
        circuit.set_latch_next(j, f);
        circuit.set_latch_init(
            j,
            match init {
                None | Some(0) => Some(false),
                Some(1) => Some(true),
                Some(v) if v == lit => None, // uninitialized per AIGER 1.9
                Some(_) => {
                    return Err(ParseAigerError::BadDefinition {
                        line: 0,
                        reason: "latch init must be 0, 1, or the latch literal",
                    })
                }
            },
        );
    }
    for (k, &lit) in output_lits.iter().enumerate() {
        let f = resolve(&var_ref, lit)?;
        circuit.add_output(format!("o{k}"), f);
    }
    Ok(circuit)
}

/// Serializes a circuit as ASCII AIGER.
///
/// The emitted AND section enumerates the circuit's AIG arena in
/// topological order; folded-away constants use literals `0`/`1`.
pub fn write(circuit: &Circuit) -> String {
    use std::fmt::Write;
    let n_in = circuit.num_inputs();
    let n_l = circuit.num_latches();
    let aig = circuit.aig();

    // Assign AIGER variables: inputs 1..=I, latches I+1..=I+L, then ANDs.
    // Map our node indices to AIGER variable numbers.
    let mut var_of_node: Vec<u64> = vec![0; aig.node_count()];
    for i in 0..n_in {
        var_of_node[circuit.input_ref(i).node().index()] = (i + 1) as u64;
    }
    for j in 0..n_l {
        var_of_node[circuit.state_ref(j).node().index()] = (n_in + j + 1) as u64;
    }
    let mut and_rows: Vec<(u64, u64, u64)> = Vec::new();
    let mut next_var = (n_in + n_l) as u64 + 1;
    let lit_of = |var_of_node: &[u64], r: AigRef| -> u64 {
        if r == AigRef::FALSE {
            return 0;
        }
        if r == AigRef::TRUE {
            return 1;
        }
        var_of_node[r.node().index()] * 2 + u64::from(r.is_complemented())
    };
    for idx in 0..aig.node_count() {
        let node = crate::aig::AigNodeId::from_raw_index(idx);
        if let Some((a, b)) = aig.and_fanins(node) {
            var_of_node[idx] = next_var;
            next_var += 1;
            and_rows.push((
                var_of_node[idx] * 2,
                lit_of(&var_of_node, a),
                lit_of(&var_of_node, b),
            ));
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "aag {} {} {} {} {}",
        next_var - 1,
        n_in,
        n_l,
        circuit.num_outputs(),
        and_rows.len()
    );
    for i in 0..n_in {
        let _ = writeln!(out, "{}", (i + 1) * 2);
    }
    for j in 0..n_l {
        let latch_lit = ((n_in + j + 1) * 2) as u64;
        let next_lit = lit_of(&var_of_node, circuit.latch_next(j));
        match circuit.latch_init(j) {
            Some(false) => {
                let _ = writeln!(out, "{latch_lit} {next_lit}");
            }
            Some(true) => {
                let _ = writeln!(out, "{latch_lit} {next_lit} 1");
            }
            None => {
                let _ = writeln!(out, "{latch_lit} {next_lit} {latch_lit}");
            }
        }
    }
    for (_, f) in circuit.outputs() {
        let _ = writeln!(out, "{}", lit_of(&var_of_node, *f));
    }
    for (lhs, rhs0, rhs1) in and_rows {
        let _ = writeln!(out, "{lhs} {rhs0} {rhs1}");
    }
    let _ = writeln!(out, "c");
    let _ = writeln!(out, "{} (written by presat)", circuit.name());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, sim};

    #[test]
    fn parse_toggle() {
        let text = "aag 1 0 1 1 0\n2 3\n2\n";
        let c = parse(text).unwrap();
        assert_eq!(c.num_inputs(), 0);
        assert_eq!(c.num_latches(), 1);
        let trans = sim::enumerate_transitions(&c);
        assert!(trans.contains(&(0, 0, 1)));
        assert!(trans.contains(&(1, 0, 0)));
    }

    #[test]
    fn parse_and_gate() {
        // two inputs, one output = AND.
        let text = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n";
        let c = parse(text).unwrap();
        let (outs, _) = sim::step(&c, &[0b1101, 0b1011], &[]);
        assert_eq!(outs[0] & 0xF, 0b1001);
    }

    #[test]
    fn parse_constant_literals() {
        // output literal 1 = constant true; latch next = 0.
        let text = "aag 1 0 1 2 0\n2 0\n2\n1\n";
        let c = parse(text).unwrap();
        let trans = sim::enumerate_transitions(&c);
        for (_, _, next) in trans {
            assert_eq!(next, 0, "latch next is constant 0");
        }
    }

    #[test]
    fn parse_latch_init_variants() {
        let text = "aag 3 0 3 0 0\n2 2 0\n4 4 1\n6 6 6\n";
        let c = parse(text).unwrap();
        assert_eq!(c.latch_init(0), Some(false));
        assert_eq!(c.latch_init(1), Some(true));
        assert_eq!(c.latch_init(2), None);
    }

    #[test]
    fn error_on_bad_header() {
        assert!(matches!(parse(""), Err(ParseAigerError::BadHeader)));
        assert!(matches!(parse("aig 1 0 0 0 0\n"), Err(ParseAigerError::BadHeader)));
        assert!(matches!(parse("aag 1 0 0\n"), Err(ParseAigerError::BadHeader)));
    }

    #[test]
    fn error_on_truncated_file() {
        assert!(matches!(parse("aag 2 2 0 0 0\n2\n"), Err(ParseAigerError::Truncated)));
    }

    #[test]
    fn error_on_odd_input_literal() {
        assert!(matches!(
            parse("aag 1 1 0 0 0\n3\n"),
            Err(ParseAigerError::BadDefinition { .. })
        ));
    }

    #[test]
    fn error_on_undefined_variable() {
        assert!(matches!(
            parse("aag 5 1 0 1 0\n2\n10\n"),
            Err(ParseAigerError::UndefinedVariable { var: 5 })
        ));
    }

    #[test]
    fn error_on_literal_beyond_max_var() {
        // Header says max var 2, but the input literal names var 29.
        assert!(matches!(
            parse("aag 2 1 1 0 0\n58\n4 4\n"),
            Err(ParseAigerError::BadDefinition { .. })
        ));
        // AND lhs beyond max var.
        assert!(matches!(
            parse("aag 3 2 0 0 1\n2\n4\n58 2 4\n"),
            Err(ParseAigerError::BadDefinition { .. })
        ));
    }

    #[test]
    fn error_on_inconsistent_counts() {
        assert!(matches!(
            parse("aag 0 1 0 0 0\n2\n"),
            Err(ParseAigerError::InconsistentCounts)
        ));
    }

    #[test]
    fn write_parse_round_trip_generators() {
        for c in [
            generators::counter(4, true),
            generators::parity(3),
            generators::lfsr(5),
            generators::round_robin_arbiter(2),
        ] {
            let text = write(&c);
            let re = parse(&text).unwrap_or_else(|e| panic!("{}: {e}\n{text}", c.name()));
            assert_eq!(re.num_inputs(), c.num_inputs());
            assert_eq!(re.num_latches(), c.num_latches());
            assert_eq!(
                sim::enumerate_transitions(&re),
                sim::enumerate_transitions(&c),
                "{} round trip diverges",
                c.name()
            );
        }
    }

    #[test]
    fn write_handles_constant_next_state() {
        let mut c = Circuit::new(0, 1);
        c.set_latch_next(0, AigRef::TRUE);
        let text = write(&c);
        let re = parse(&text).unwrap();
        for (_, _, next) in sim::enumerate_transitions(&re) {
            assert_eq!(next, 1);
        }
    }

    #[test]
    fn round_trip_preserves_init_values() {
        let mut c = generators::counter(2, false);
        c.set_latch_init(0, Some(true));
        c.set_latch_init(1, None);
        let re = parse(&write(&c)).unwrap();
        assert_eq!(re.latch_init(0), Some(true));
        assert_eq!(re.latch_init(1), None);
    }
}
