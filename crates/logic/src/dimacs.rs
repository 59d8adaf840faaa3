//! DIMACS CNF reading and writing.
//!
//! The standard interchange format for SAT instances: a header
//! `p cnf <vars> <clauses>` followed by zero-terminated clauses of signed
//! 1-based variable numbers. Comment lines start with `c`.
//!
//! # Examples
//!
//! ```
//! use presat_logic::dimacs;
//! let text = "c tiny instance\np cnf 2 2\n1 2 0\n-1 -2 0\n";
//! let cnf = dimacs::parse(text)?;
//! assert_eq!(cnf.num_vars(), 2);
//! assert_eq!(cnf.num_clauses(), 2);
//! let round = dimacs::write(&cnf);
//! assert_eq!(dimacs::parse(&round)?, cnf);
//! # Ok::<(), dimacs::ParseDimacsError>(())
//! ```

use std::fmt;

use crate::{Cnf, Lit, Var};

/// Error produced while parsing DIMACS text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseDimacsError {
    /// The `p cnf` header is missing or malformed, or declares more than
    /// [`MAX_VARS`] variables.
    BadHeader {
        /// 1-based line number of the offending line.
        line: usize,
    },
    /// A token was not an integer.
    BadToken {
        /// 1-based line number of the offending token.
        line: usize,
        /// The token text.
        token: String,
    },
    /// A literal referenced variable 0 or a variable beyond the header
    /// count (which is at most [`MAX_VARS`]).
    VarOutOfRange {
        /// 1-based line number.
        line: usize,
        /// The offending signed DIMACS literal.
        value: i64,
    },
    /// The final clause was not terminated with `0`.
    UnterminatedClause,
    /// More clauses appeared than the header declared.
    TooManyClauses {
        /// The number declared in the header.
        declared: usize,
    },
}

impl fmt::Display for ParseDimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseDimacsError::BadHeader { line } => {
                write!(f, "missing or malformed `p cnf` header at line {line}")
            }
            ParseDimacsError::BadToken { line, token } => {
                write!(f, "invalid token {token:?} at line {line}")
            }
            ParseDimacsError::VarOutOfRange { line, value } => {
                write!(f, "literal {value} out of declared range at line {line}")
            }
            ParseDimacsError::UnterminatedClause => {
                write!(f, "unexpected end of input inside a clause")
            }
            ParseDimacsError::TooManyClauses { declared } => {
                write!(f, "more clauses than the {declared} declared in the header")
            }
        }
    }
}

impl std::error::Error for ParseDimacsError {}

/// The most variables a formula can declare: one per [`Var`] index, up to
/// [`Var::MAX_INDEX`], whose literals still fit a [`Lit`].
pub const MAX_VARS: usize = Var::MAX_INDEX + 1;

/// Parses DIMACS CNF text into a [`Cnf`].
///
/// The clause count in the header is treated as an upper bound check; a file
/// with *fewer* clauses than declared is accepted (common in the wild).
///
/// # Errors
///
/// Returns a [`ParseDimacsError`] describing the first problem found.
pub fn parse(text: &str) -> Result<Cnf, ParseDimacsError> {
    let mut header: Option<(usize, usize)> = None;
    let mut cnf = Cnf::new(0);
    let mut current: Vec<Lit> = Vec::new();
    let mut clause_open = false;

    for (lineno0, line) in text.lines().enumerate() {
        let line_no = lineno0 + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('c') || trimmed.starts_with('%') {
            continue;
        }
        if trimmed.starts_with('p') {
            let mut it = trimmed.split_whitespace();
            let (p, fmt_kw) = (it.next(), it.next());
            let nv = it.next().and_then(|t| t.parse::<usize>().ok());
            let nc = it.next().and_then(|t| t.parse::<usize>().ok());
            match (p, fmt_kw, nv, nc) {
                (Some("p"), Some("cnf"), Some(nv), Some(nc)) if nv <= MAX_VARS => {
                    header = Some((nv, nc));
                    cnf = Cnf::new(nv);
                }
                _ => return Err(ParseDimacsError::BadHeader { line: line_no }),
            }
            continue;
        }
        let (num_vars, num_clauses) =
            header.ok_or(ParseDimacsError::BadHeader { line: line_no })?;
        for token in trimmed.split_whitespace() {
            let value: i64 = token
                .parse()
                .map_err(|_| ParseDimacsError::BadToken {
                    line: line_no,
                    token: token.to_string(),
                })?;
            if value == 0 {
                if cnf.num_clauses() >= num_clauses {
                    return Err(ParseDimacsError::TooManyClauses {
                        declared: num_clauses,
                    });
                }
                cnf.add_clause(current.drain(..));
                clause_open = false;
                continue;
            }
            // `num_vars` is at most `MAX_VARS`, so every accepted number
            // names a variable whose literals encode.
            let var_no = value.unsigned_abs() as usize;
            if var_no == 0 || var_no > num_vars {
                return Err(ParseDimacsError::VarOutOfRange {
                    line: line_no,
                    value,
                });
            }
            let var = Var::new(var_no - 1);
            current.push(Lit::with_phase(var, value > 0));
            clause_open = true;
        }
    }
    if clause_open {
        return Err(ParseDimacsError::UnterminatedClause);
    }
    if header.is_none() {
        return Err(ParseDimacsError::BadHeader { line: 1 });
    }
    Ok(cnf)
}

/// Serializes a [`Cnf`] as DIMACS text (including a header comment).
pub fn write(cnf: &Cnf) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "c generated by presat");
    let _ = writeln!(out, "p cnf {} {}", cnf.num_vars(), cnf.num_clauses());
    for clause in cnf.clauses() {
        for &l in clause {
            let v = l.var().index() as i64 + 1;
            let _ = write!(out, "{} ", if l.is_pos() { v } else { -v });
        }
        let _ = writeln!(out, "0");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_minimal() {
        let cnf = parse("p cnf 1 1\n1 0\n").unwrap();
        assert_eq!(cnf.num_vars(), 1);
        assert_eq!(cnf.clauses()[0], vec![Lit::pos(Var::new(0))]);
    }

    #[test]
    fn parse_skips_comments_and_blank_lines() {
        let cnf = parse("c hello\n\nc world\np cnf 2 1\n-1 2 0\n").unwrap();
        assert_eq!(cnf.num_clauses(), 1);
        assert_eq!(
            cnf.clauses()[0],
            vec![Lit::neg(Var::new(0)), Lit::pos(Var::new(1))]
        );
    }

    #[test]
    fn parse_multi_line_clause() {
        let cnf = parse("p cnf 3 1\n1\n2\n3 0\n").unwrap();
        assert_eq!(cnf.clauses()[0].len(), 3);
    }

    #[test]
    fn error_on_missing_header() {
        assert!(matches!(
            parse("1 0\n"),
            Err(ParseDimacsError::BadHeader { .. })
        ));
        assert!(matches!(parse(""), Err(ParseDimacsError::BadHeader { .. })));
    }

    #[test]
    fn error_on_bad_token() {
        assert!(matches!(
            parse("p cnf 1 1\nx 0\n"),
            Err(ParseDimacsError::BadToken { .. })
        ));
    }

    #[test]
    fn error_on_out_of_range_var() {
        assert!(matches!(
            parse("p cnf 1 1\n2 0\n"),
            Err(ParseDimacsError::VarOutOfRange { value: 2, .. })
        ));
    }

    #[test]
    fn error_on_unterminated_clause() {
        assert!(matches!(
            parse("p cnf 1 1\n1\n"),
            Err(ParseDimacsError::UnterminatedClause)
        ));
    }

    #[test]
    fn error_on_too_many_clauses() {
        assert!(matches!(
            parse("p cnf 1 1\n1 0\n-1 0\n"),
            Err(ParseDimacsError::TooManyClauses { declared: 1 })
        ));
    }

    #[test]
    fn write_then_parse_round_trips() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause([Lit::pos(Var::new(0)), Lit::neg(Var::new(2))]);
        cnf.add_clause([Lit::neg(Var::new(1))]);
        cnf.add_clause([]);
        let text = write(&cnf);
        assert_eq!(parse(&text).unwrap(), cnf);
    }
}
