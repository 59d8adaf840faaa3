use std::fmt;
use std::ops::Not;

use crate::Var;

/// A literal: a variable or its negation, packed into a single `u32`.
///
/// The encoding is the conventional solver encoding `var << 1 | sign`, where
/// `sign == 1` means the *negative* literal. This makes a literal usable
/// directly as an index into watch lists and gives negation for free. A
/// variable index is at most [`Var::MAX_INDEX`] (`Var::new` checks it), so
/// the shift never drops a bit.
///
/// # Examples
///
/// ```
/// use presat_logic::{Lit, Var};
/// let v = Var::new(2);
/// let p = Lit::pos(v);
/// assert_eq!(!p, Lit::neg(v));
/// assert_eq!(p.var(), v);
/// assert!(p.is_pos());
/// assert_eq!(p.to_string(), "x2");
/// assert_eq!((!p).to_string(), "!x2");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `var`.
    #[inline]
    pub fn pos(var: Var) -> Self {
        Lit((var.index() as u32) << 1)
    }

    /// The negative literal of `var`.
    #[inline]
    pub fn neg(var: Var) -> Self {
        Lit(((var.index() as u32) << 1) | 1)
    }

    /// The literal of `var` with the given phase: `true` gives the positive
    /// literal.
    ///
    /// ```
    /// use presat_logic::{Lit, Var};
    /// let v = Var::new(0);
    /// assert_eq!(Lit::with_phase(v, true), Lit::pos(v));
    /// assert_eq!(Lit::with_phase(v, false), Lit::neg(v));
    /// ```
    #[inline]
    pub fn with_phase(var: Var, phase: bool) -> Self {
        if phase {
            Lit::pos(var)
        } else {
            Lit::neg(var)
        }
    }

    /// Reconstructs a literal from its packed code (the inverse of
    /// [`Lit::code`]).
    #[inline]
    pub fn from_code(code: u32) -> Self {
        Lit(code)
    }

    /// The packed code `var << 1 | sign`; useful as a dense array index.
    #[inline]
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// The variable underlying this literal.
    #[inline]
    pub fn var(self) -> Var {
        Var::from(self.0 >> 1)
    }

    /// `true` if this is a positive (non-negated) literal.
    #[inline]
    pub fn is_pos(self) -> bool {
        self.0 & 1 == 0
    }

    /// `true` if this is a negative (negated) literal.
    #[inline]
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// The phase this literal asserts for its variable: positive literals
    /// assert `true`.
    #[inline]
    pub fn phase(self) -> bool {
        self.is_pos()
    }

    /// Evaluates this literal under a concrete value of its variable.
    ///
    /// ```
    /// use presat_logic::{Lit, Var};
    /// let l = Lit::neg(Var::new(0));
    /// assert!(l.eval(false));
    /// assert!(!l.eval(true));
    /// ```
    #[inline]
    pub fn eval(self, value: bool) -> bool {
        value == self.is_pos()
    }
}

impl Not for Lit {
    type Output = Lit;

    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Lit({}{})", if self.is_neg() { "!" } else { "" }, self.var().index())
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", if self.is_neg() { "!" } else { "" }, self.var())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negation_is_involutive() {
        let l = Lit::pos(Var::new(5));
        assert_eq!(!!l, l);
        assert_ne!(!l, l);
    }

    #[test]
    fn code_is_dense() {
        assert_eq!(Lit::pos(Var::new(0)).code(), 0);
        assert_eq!(Lit::neg(Var::new(0)).code(), 1);
        assert_eq!(Lit::pos(Var::new(1)).code(), 2);
        assert_eq!(Lit::neg(Var::new(1)).code(), 3);
    }

    #[test]
    fn from_code_round_trips() {
        for code in 0..64u32 {
            let l = Lit::from_code(code);
            assert_eq!(l.code(), code as usize);
        }
    }

    #[test]
    fn largest_variable_keeps_its_literals() {
        let v = Var::new(Var::MAX_INDEX);
        assert_eq!(Lit::neg(v).code(), u32::MAX as usize);
        assert_eq!(Lit::pos(v).var(), v);
        assert_eq!(Lit::neg(v).var(), v);
    }

    #[test]
    fn var_and_sign_recovered() {
        let v = Var::new(9);
        assert_eq!(Lit::pos(v).var(), v);
        assert_eq!(Lit::neg(v).var(), v);
        assert!(Lit::pos(v).is_pos());
        assert!(Lit::neg(v).is_neg());
    }

    #[test]
    fn eval_matches_phase() {
        let v = Var::new(0);
        assert!(Lit::pos(v).eval(true));
        assert!(!Lit::pos(v).eval(false));
        assert!(Lit::neg(v).eval(false));
        assert!(!Lit::neg(v).eval(true));
    }

    #[test]
    fn with_phase_consistency() {
        let v = Var::new(3);
        assert!(Lit::with_phase(v, true).phase());
        assert!(!Lit::with_phase(v, false).phase());
    }

    #[test]
    fn ordering_groups_by_variable() {
        // pos(v) < neg(v) < pos(v+1)
        let v0 = Var::new(0);
        let v1 = Var::new(1);
        assert!(Lit::pos(v0) < Lit::neg(v0));
        assert!(Lit::neg(v0) < Lit::pos(v1));
    }
}
