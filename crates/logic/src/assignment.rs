use std::fmt;

use crate::{Cube, Lit, Var};

/// A (possibly partial) assignment of Boolean values to a dense variable
/// space.
///
/// Internally one `Option<bool>` per variable. This is the exchange format
/// between the SAT solver (which reports total models), the all-solutions
/// engines (which work with partial assignments), and the simulation /
/// truth-table oracles.
///
/// # Examples
///
/// ```
/// use presat_logic::{Assignment, Lit, Var};
/// let mut a = Assignment::new(3);
/// a.assign(Var::new(0), true);
/// a.assign_lit(Lit::neg(Var::new(2)));
/// assert_eq!(a.value(Var::new(0)), Some(true));
/// assert_eq!(a.value(Var::new(1)), None);
/// assert_eq!(a.value(Var::new(2)), Some(false));
/// assert_eq!(a.assigned_count(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Assignment {
    values: Vec<Option<bool>>,
}

impl Assignment {
    /// Creates an empty (all-unassigned) assignment over `num_vars`
    /// variables.
    pub fn new(num_vars: usize) -> Self {
        Assignment {
            values: vec![None; num_vars],
        }
    }

    /// Builds a total assignment from the low `num_vars` bits of `bits`
    /// (bit *i* gives the value of variable *i*).
    ///
    /// ```
    /// use presat_logic::{Assignment, Var};
    /// let a = Assignment::from_bits(0b101, 3);
    /// assert_eq!(a.value(Var::new(0)), Some(true));
    /// assert_eq!(a.value(Var::new(1)), Some(false));
    /// assert_eq!(a.value(Var::new(2)), Some(true));
    /// ```
    pub fn from_bits(bits: u64, num_vars: usize) -> Self {
        assert!(num_vars <= 64, "from_bits supports at most 64 variables");
        Assignment {
            values: (0..num_vars).map(|i| Some(bits >> i & 1 == 1)).collect(),
        }
    }

    /// Number of variables in the underlying variable space (assigned or
    /// not).
    pub fn num_vars(&self) -> usize {
        self.values.len()
    }

    /// Number of variables currently assigned.
    pub fn assigned_count(&self) -> usize {
        self.values.iter().filter(|v| v.is_some()).count()
    }

    /// `true` if every variable has a value.
    pub fn is_total(&self) -> bool {
        self.values.iter().all(|v| v.is_some())
    }

    /// The value of `var`, or `None` if unassigned.
    ///
    /// # Panics
    ///
    /// Panics if `var` is outside the variable space.
    #[inline]
    pub fn value(&self, var: Var) -> Option<bool> {
        self.values[var.index()]
    }

    /// Evaluates a literal: `Some(true)` if satisfied, `Some(false)` if
    /// falsified, `None` if its variable is unassigned.
    #[inline]
    pub fn lit_value(&self, lit: Lit) -> Option<bool> {
        self.value(lit.var()).map(|v| lit.eval(v))
    }

    /// Assigns `var := value`, overwriting any previous value.
    #[inline]
    pub fn assign(&mut self, var: Var, value: bool) {
        self.values[var.index()] = Some(value);
    }

    /// Makes `lit` true (assigns its variable to the literal's phase).
    #[inline]
    pub fn assign_lit(&mut self, lit: Lit) {
        self.assign(lit.var(), lit.phase());
    }

    /// Removes the value of `var`.
    #[inline]
    pub fn unassign(&mut self, var: Var) {
        self.values[var.index()] = None;
    }

    /// Clears every assignment, keeping the variable space.
    pub fn clear(&mut self) {
        self.values.fill(None);
    }

    /// Iterates over the `(var, value)` pairs that are assigned, in
    /// ascending variable order.
    pub fn iter(&self) -> impl Iterator<Item = (Var, bool)> + '_ {
        self.values
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|b| (Var::new(i), b)))
    }

    /// The satisfied literals of this assignment, in ascending variable
    /// order (the canonical cube of the assignment).
    pub fn literals(&self) -> impl Iterator<Item = Lit> + '_ {
        self.iter().map(|(v, b)| Lit::with_phase(v, b))
    }

    /// Projects this assignment onto `vars`, producing the [`Cube`] of the
    /// values it assigns to those variables. Unassigned variables in `vars`
    /// are skipped.
    ///
    /// ```
    /// use presat_logic::{Assignment, Var};
    /// let a = Assignment::from_bits(0b10, 2);
    /// let c = a.project(&[Var::new(1)]);
    /// assert_eq!(c.to_string(), "x1");
    /// ```
    pub fn project(&self, vars: &[Var]) -> Cube {
        Cube::from_lits(
            vars.iter()
                .filter_map(|&v| self.value(v).map(|b| Lit::with_phase(v, b))),
        )
        .expect("projection of an assignment cannot contain contradictory literals")
    }

    /// Packs the assignment into an integer, bit *i* holding variable *i*.
    /// Unassigned variables pack as `0`.
    ///
    /// # Panics
    ///
    /// Panics if the variable space exceeds 64 variables.
    pub fn to_bits(&self) -> u64 {
        assert!(
            self.values.len() <= 64,
            "to_bits supports at most 64 variables"
        );
        self.iter()
            .fold(0u64, |acc, (v, b)| acc | (u64::from(b) << v.index()))
    }
}

impl FromIterator<(Var, bool)> for Assignment {
    /// Collects `(var, value)` pairs into an assignment sized to the largest
    /// variable mentioned.
    fn from_iter<I: IntoIterator<Item = (Var, bool)>>(iter: I) -> Self {
        let pairs: Vec<_> = iter.into_iter().collect();
        let n = pairs.iter().map(|(v, _)| v.index() + 1).max().unwrap_or(0);
        let mut a = Assignment::new(n);
        for (v, b) in pairs {
            a.assign(v, b);
        }
        a
    }
}

impl fmt::Debug for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Assignment{{")?;
        let mut first = true;
        for (v, b) in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{v}={}", u8::from(b))?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_assignment_is_empty() {
        let a = Assignment::new(4);
        assert_eq!(a.num_vars(), 4);
        assert_eq!(a.assigned_count(), 0);
        assert!(!a.is_total());
    }

    #[test]
    fn assign_and_unassign() {
        let mut a = Assignment::new(2);
        a.assign(Var::new(1), true);
        assert_eq!(a.value(Var::new(1)), Some(true));
        a.unassign(Var::new(1));
        assert_eq!(a.value(Var::new(1)), None);
    }

    #[test]
    fn lit_value_respects_phase() {
        let mut a = Assignment::new(1);
        a.assign(Var::new(0), false);
        assert_eq!(a.lit_value(Lit::pos(Var::new(0))), Some(false));
        assert_eq!(a.lit_value(Lit::neg(Var::new(0))), Some(true));
    }

    #[test]
    fn bits_round_trip() {
        for bits in 0..16u64 {
            let a = Assignment::from_bits(bits, 4);
            assert!(a.is_total());
            assert_eq!(a.to_bits(), bits);
        }
    }

    #[test]
    fn projection_skips_unassigned() {
        let mut a = Assignment::new(3);
        a.assign(Var::new(0), true);
        let cube = a.project(&[Var::new(0), Var::new(2)]);
        assert_eq!(cube.len(), 1);
        assert_eq!(cube.lits()[0], Lit::pos(Var::new(0)));
    }

    #[test]
    fn from_iterator_sizes_to_max_var() {
        let a: Assignment = [(Var::new(5), true)].into_iter().collect();
        assert_eq!(a.num_vars(), 6);
        assert_eq!(a.value(Var::new(5)), Some(true));
    }

    #[test]
    fn clear_resets_all() {
        let mut a = Assignment::from_bits(0b111, 3);
        a.clear();
        assert_eq!(a.assigned_count(), 0);
        assert_eq!(a.num_vars(), 3);
    }

    #[test]
    fn literals_are_sorted_by_variable() {
        let a = Assignment::from_bits(0b01, 2);
        let lits: Vec<_> = a.literals().collect();
        assert_eq!(lits, vec![Lit::pos(Var::new(0)), Lit::neg(Var::new(1))]);
    }
}
