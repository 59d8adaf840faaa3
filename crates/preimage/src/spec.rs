//! Parsing textual state-set specs — shared by the `presat` CLI and the
//! `presatd` daemon protocol, so both reject and accept exactly the same
//! inputs.
//!
//! A spec is either a *bit pattern* naming one state (`42`, `0b1010`,
//! `0x2a`) or a *cube* `latch=value,...` (`3=1,0=0`; unlisted latches
//! free). Bit patterns in binary (`0b`) or hexadecimal (`0x`) notation
//! support circuits of **any** width — a 200-latch state is a 200-char
//! binary literal. Decimal patterns are limited to what fits in 64 bits
//! (the value still targets arbitrarily wide circuits: latches ≥ 64 are
//! simply zero); a wider decimal is an explicit error steering the caller
//! to `0b`/`0x`, never a silent mis-parse.

use crate::state_set::StateSet;

/// Parses a state bit pattern into per-latch values: `bits[j]` is latch
/// `j` (so the *last* character of a binary literal is latch 0, matching
/// the numeric reading). Accepts decimal, `0b` binary, and `0x` hex;
/// binary and hex literals may be as wide as the circuit.
///
/// Errors (all strings, CLI/protocol-ready):
/// * malformed digits — `invalid state bits ...`
/// * more significant bits than the circuit has latches —
///   `state ... out of range for N latches`
/// * a decimal literal beyond 64 bits —
///   `decimal state ... exceeds 64 bits (use 0b/0x for circuits with more
///   than 64 latches)`
pub fn parse_state_bits(text: &str, num_latches: usize) -> Result<Vec<bool>, String> {
    let mut bits = vec![false; num_latches];
    let set_from_digits = |bits: &mut [bool], digits: &[bool]| -> Result<(), String> {
        // `digits` is msb-first; significant width must fit the circuit.
        let significant = digits
            .iter()
            .position(|&b| b)
            .map_or(0, |lead| digits.len() - lead);
        if significant > num_latches {
            return Err(format!(
                "state {text} out of range for {num_latches} latches"
            ));
        }
        for (i, &d) in digits.iter().rev().enumerate() {
            if d {
                bits[i] = true;
            }
        }
        Ok(())
    };
    if let Some(bin) = text.strip_prefix("0b") {
        if bin.is_empty() {
            return Err(format!("invalid state bits {text:?}"));
        }
        let mut digits = Vec::with_capacity(bin.len());
        for c in bin.chars() {
            match c {
                '0' => digits.push(false),
                '1' => digits.push(true),
                _ => return Err(format!("invalid state bits {text:?}")),
            }
        }
        set_from_digits(&mut bits, &digits)?;
    } else if let Some(hex) = text.strip_prefix("0x") {
        if hex.is_empty() {
            return Err(format!("invalid state bits {text:?}"));
        }
        let mut digits = Vec::with_capacity(hex.len() * 4);
        for c in hex.chars() {
            let nibble = c
                .to_digit(16)
                .ok_or_else(|| format!("invalid state bits {text:?}"))?;
            for shift in (0..4).rev() {
                digits.push(nibble >> shift & 1 == 1);
            }
        }
        set_from_digits(&mut bits, &digits)?;
    } else {
        let value = parse_decimal_u64(text)?;
        let significant = 64 - value.leading_zeros() as usize;
        if significant > num_latches {
            return Err(format!(
                "state {text} out of range for {num_latches} latches"
            ));
        }
        for (i, bit) in bits.iter_mut().enumerate().take(64) {
            if value >> i & 1 == 1 {
                *bit = true;
            }
        }
    }
    Ok(bits)
}

/// Parses a decimal state literal as `u64`, distinguishing "not a number"
/// from "a number too wide for 64 bits" (the latter names the `0b`/`0x`
/// escape hatch for wide circuits).
fn parse_decimal_u64(text: &str) -> Result<u64, String> {
    match text.parse::<u64>() {
        Ok(v) => Ok(v),
        Err(e) if *e.kind() == std::num::IntErrorKind::PosOverflow => Err(format!(
            "decimal state {text} exceeds 64 bits (use 0b/0x for circuits \
             with more than 64 latches)"
        )),
        Err(_) => Err(format!("invalid state bits {text:?}")),
    }
}

/// Parses a state bit pattern as a plain `u64`, for callers whose state
/// representation is genuinely 64-bit (the `justify` trace extractor).
/// `num_latches` guards the caller's width assumption: a circuit with more
/// than 64 latches is an explicit error here, never a truncated state.
pub fn parse_bits64(text: &str, num_latches: usize) -> Result<u64, String> {
    if num_latches > 64 {
        return Err(format!(
            "circuit has {num_latches} latches; 64-bit state patterns cannot \
             address it (this command supports at most 64 latches)"
        ));
    }
    let bits = parse_state_bits(text, num_latches.max(1))?;
    Ok(bits
        .iter()
        .enumerate()
        .fold(0u64, |acc, (j, &b)| acc | (u64::from(b)) << j))
}

/// Parses a state-set spec: a bit pattern (one state) or a cube
/// `latch=value,...` (unlisted latches free). Works for circuits of any
/// width; see the module docs for the bit-pattern width rules.
pub fn parse_state_spec(text: &str, num_latches: usize) -> Result<StateSet, String> {
    if text.contains('=') {
        let mut fixed = Vec::new();
        for part in text.split(',') {
            let (j, v) = part
                .split_once('=')
                .ok_or_else(|| format!("bad cube component {part:?}"))?;
            let j: usize = j
                .trim()
                .parse()
                .map_err(|_| format!("bad latch index {j:?}"))?;
            if j >= num_latches {
                return Err(format!(
                    "latch {j} out of range (circuit has {num_latches})"
                ));
            }
            let v = match v.trim() {
                "0" => false,
                "1" => true,
                other => return Err(format!("bad latch value {other:?} (want 0/1)")),
            };
            if fixed.iter().any(|&(seen, _)| seen == j) {
                return Err(format!("latch {j} listed twice in cube spec"));
            }
            fixed.push((j, v));
        }
        Ok(StateSet::from_partial(&fixed))
    } else {
        let bits = parse_state_bits(text, num_latches)?;
        Ok(StateSet::from_bit_slice(&bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimal_binary_hex_agree() {
        for (text, n) in [("42", 8), ("0b101010", 8), ("0x2a", 8)] {
            let s = parse_state_spec(text, n).unwrap();
            assert!(s.contains_bits(42, n), "{text}");
            assert_eq!(s.minterm_count(n), 1, "{text}");
        }
    }

    #[test]
    fn wide_binary_targets_latch_beyond_64() {
        // 100 latches: a binary literal setting latch 64 and latch 0.
        let n = 100;
        let mut text = String::from("0b1");
        text.push_str(&"0".repeat(63));
        text.push('1'); // bit 64 and bit 0
        let bits = parse_state_bits(&text, n).unwrap();
        assert!(bits[0] && bits[64]);
        assert_eq!(bits.iter().filter(|&&b| b).count(), 2);
        let s = parse_state_spec(&text, n).unwrap();
        assert_eq!(s.minterm_count(n), 1);
        assert_eq!(s.num_cubes(), 1);
    }

    #[test]
    fn wide_hex_sets_high_latches() {
        // 0x1_0000_0000_0000_0000 = bit 64 alone, on a 68-latch circuit.
        let bits = parse_state_bits("0x10000000000000000", 68).unwrap();
        assert!(bits[64]);
        assert_eq!(bits.iter().filter(|&&b| b).count(), 1);
    }

    #[test]
    fn overwide_patterns_are_range_errors() {
        let err = parse_state_bits("0b100", 2).unwrap_err();
        assert!(err.contains("out of range for 2 latches"), "{err}");
        let err = parse_state_bits("4", 2).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        // Leading zeros do not count against the width.
        assert!(parse_state_bits("0b011", 2).is_ok());
        assert!(parse_state_bits("0x0003", 2).is_ok());
    }

    #[test]
    fn overwide_decimal_names_the_escape_hatch() {
        let err = parse_state_bits("18446744073709551616", 100).unwrap_err();
        assert!(err.contains("exceeds 64 bits"), "{err}");
        assert!(err.contains("0b/0x"), "{err}");
        // The same digits in hex parse fine.
        assert!(parse_state_bits("0x10000000000000000", 100).is_ok());
    }

    #[test]
    fn malformed_patterns_are_invalid_not_panics() {
        for text in ["", "0b", "0x", "0b102", "0xfg", "12a", "-3"] {
            let err = parse_state_bits(text, 8).unwrap_err();
            assert!(err.contains("invalid state bits"), "{text} -> {err}");
        }
    }

    #[test]
    fn cube_specs_work_at_any_width() {
        let s = parse_state_spec("99=1,0=0", 100).unwrap();
        assert_eq!(s.num_cubes(), 1);
        assert_eq!(s.minterm_count(100), 1u128 << 98);
        assert!(parse_state_spec("100=1", 100).is_err());
        assert!(parse_state_spec("3=1,3=0", 8)
            .unwrap_err()
            .contains("twice"));
    }

    #[test]
    fn parse_bits64_guards_wide_circuits() {
        assert_eq!(parse_bits64("42", 8).unwrap(), 42);
        assert_eq!(parse_bits64("0b1010", 8).unwrap(), 10);
        let err = parse_bits64("42", 65).unwrap_err();
        assert!(err.contains("65 latches"), "{err}");
        assert!(err.contains("at most 64"), "{err}");
    }
}
