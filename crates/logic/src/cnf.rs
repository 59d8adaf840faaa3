use std::fmt;

use crate::{Assignment, Cube, Lit, Var};

/// A clause: a disjunction of literals. The empty clause is constant false.
pub type Clause = Vec<Lit>;

/// A propositional formula in conjunctive normal form.
///
/// `Cnf` is the interchange format between the circuit encoder
/// (`presat-circuit`), the CDCL solver (`presat-sat`), and the all-solutions
/// engines (`presat-allsat`). It owns a dense variable space `x0..x(n-1)` and
/// a clause list; clauses are stored as given (no preprocessing) so that
/// encoders stay in control of structure.
///
/// # Examples
///
/// ```
/// use presat_logic::{Assignment, Cnf, Lit, Var};
/// let mut cnf = Cnf::new(2);
/// cnf.add_clause([Lit::pos(Var::new(0)), Lit::pos(Var::new(1))]);
/// assert!(cnf.eval(&Assignment::from_bits(0b01, 2)).unwrap());
/// assert!(!cnf.eval(&Assignment::from_bits(0b00, 2)).unwrap());
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Cnf {
    num_vars: usize,
    clauses: Vec<Clause>,
}

impl Cnf {
    /// Creates a CNF with `num_vars` variables and no clauses (constant
    /// true).
    pub fn new(num_vars: usize) -> Self {
        Cnf {
            num_vars,
            clauses: Vec::new(),
        }
    }

    /// Number of variables in the formula's variable space.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Total number of literal occurrences across all clauses.
    pub fn num_literals(&self) -> usize {
        self.clauses.iter().map(Vec::len).sum()
    }

    /// The clauses.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Allocates a fresh variable and returns it.
    pub fn fresh_var(&mut self) -> Var {
        let v = Var::new(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Grows the variable space to at least `n` variables.
    pub fn ensure_vars(&mut self, n: usize) {
        self.num_vars = self.num_vars.max(n);
    }

    /// Adds a clause. Duplicate literals are kept as given; tautological
    /// clauses are the caller's responsibility (the solver tolerates them).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if a literal references a variable outside
    /// the variable space.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        let clause: Clause = lits.into_iter().collect();
        debug_assert!(
            clause.iter().all(|l| l.var().index() < self.num_vars),
            "clause literal outside variable space"
        );
        self.clauses.push(clause);
    }

    /// Adds the unit clause `lit`.
    pub fn add_unit(&mut self, lit: Lit) {
        self.add_clause([lit]);
    }

    /// Asserts the conjunction `cube` (one unit clause per literal).
    pub fn assert_cube(&mut self, cube: &Cube) {
        for &l in cube.lits() {
            self.add_unit(l);
        }
    }

    /// Adds the blocking clause for `cube`: the clause `¬l1 ∨ … ∨ ¬lk`,
    /// which excludes exactly the assignments covered by the cube.
    pub fn block_cube(&mut self, cube: &Cube) {
        self.add_clause(cube.lits().iter().map(|&l| !l));
    }

    /// Conjoins another CNF over the same variable space.
    pub fn append(&mut self, other: &Cnf) {
        self.num_vars = self.num_vars.max(other.num_vars);
        self.clauses.extend(other.clauses.iter().cloned());
    }

    /// Evaluates the CNF under a total assignment: `None` if some clause has
    /// only unassigned literals left undetermined, otherwise the value.
    ///
    /// For a partial assignment this is three-valued: a clause with a
    /// satisfied literal is true; a clause with all literals falsified makes
    /// the CNF false; otherwise the result is undetermined (`None`).
    pub fn eval(&self, a: &Assignment) -> Option<bool> {
        let mut undetermined = false;
        for clause in &self.clauses {
            let mut sat = false;
            let mut open = false;
            for &l in clause {
                match a.lit_value(l) {
                    Some(true) => {
                        sat = true;
                        break;
                    }
                    Some(false) => {}
                    None => open = true,
                }
            }
            if sat {
                continue;
            }
            if open {
                undetermined = true;
            } else {
                return Some(false);
            }
        }
        if undetermined {
            None
        } else {
            Some(true)
        }
    }

    /// `true` if the total assignment satisfies every clause.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not total over the formula's variable space in debug
    /// builds (use [`Cnf::eval`] for partial assignments).
    pub fn is_satisfied_by(&self, a: &Assignment) -> bool {
        debug_assert!(a.num_vars() >= self.num_vars);
        self.eval(a) == Some(true)
    }

    /// The variables that actually occur in some clause, sorted and
    /// deduplicated.
    pub fn support(&self) -> Vec<Var> {
        let mut seen = vec![false; self.num_vars];
        for clause in &self.clauses {
            for &l in clause {
                seen[l.var().index()] = true;
            }
        }
        seen.iter()
            .enumerate()
            .filter(|&(_, &s)| s)
            .map(|(i, _)| Var::new(i))
            .collect()
    }
}

impl fmt::Debug for Cnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Cnf({} vars, {} clauses)",
            self.num_vars,
            self.clauses.len()
        )
    }
}

impl fmt::Display for Cnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, clause) in self.clauses.iter().enumerate() {
            if i > 0 {
                write!(f, " & ")?;
            }
            write!(f, "(")?;
            for (j, l) in clause.iter().enumerate() {
                if j > 0 {
                    write!(f, " | ")?;
                }
                write!(f, "{l}")?;
            }
            write!(f, ")")?;
        }
        if self.clauses.is_empty() {
            write!(f, "⊤")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: usize, pos: bool) -> Lit {
        Lit::with_phase(Var::new(v), pos)
    }

    #[test]
    fn empty_cnf_is_true() {
        let cnf = Cnf::new(2);
        assert_eq!(cnf.eval(&Assignment::new(2)), Some(true));
    }

    #[test]
    fn empty_clause_is_false() {
        let mut cnf = Cnf::new(1);
        cnf.add_clause([]);
        assert_eq!(cnf.eval(&Assignment::new(1)), Some(false));
    }

    #[test]
    fn eval_three_valued() {
        let mut cnf = Cnf::new(2);
        cnf.add_clause([lit(0, true), lit(1, true)]);
        let mut a = Assignment::new(2);
        assert_eq!(cnf.eval(&a), None);
        a.assign(Var::new(0), true);
        assert_eq!(cnf.eval(&a), Some(true));
        a.assign(Var::new(0), false);
        assert_eq!(cnf.eval(&a), None);
        a.assign(Var::new(1), false);
        assert_eq!(cnf.eval(&a), Some(false));
    }

    #[test]
    fn fresh_var_extends_space() {
        let mut cnf = Cnf::new(1);
        let v = cnf.fresh_var();
        assert_eq!(v.index(), 1);
        assert_eq!(cnf.num_vars(), 2);
    }

    #[test]
    fn block_cube_excludes_exactly_cube() {
        let mut cnf = Cnf::new(2);
        let c = Cube::from_lits([lit(0, true), lit(1, false)]).unwrap();
        cnf.block_cube(&c);
        // assignment 01 (x0=1, x1=0) is now excluded
        assert_eq!(cnf.eval(&Assignment::from_bits(0b01, 2)), Some(false));
        assert_eq!(cnf.eval(&Assignment::from_bits(0b11, 2)), Some(true));
        assert_eq!(cnf.eval(&Assignment::from_bits(0b00, 2)), Some(true));
    }

    #[test]
    fn assert_cube_forces_cube() {
        let mut cnf = Cnf::new(2);
        let c = Cube::from_lits([lit(0, true)]).unwrap();
        cnf.assert_cube(&c);
        assert_eq!(cnf.eval(&Assignment::from_bits(0b01, 2)), Some(true));
        assert_eq!(cnf.eval(&Assignment::from_bits(0b10, 2)), Some(false));
    }

    #[test]
    fn support_reports_used_vars() {
        let mut cnf = Cnf::new(4);
        cnf.add_clause([lit(1, true), lit(3, false)]);
        assert_eq!(cnf.support(), vec![Var::new(1), Var::new(3)]);
    }

    #[test]
    fn append_conjoins() {
        let mut a = Cnf::new(1);
        a.add_unit(lit(0, true));
        let mut b = Cnf::new(2);
        b.add_unit(lit(1, false));
        a.append(&b);
        assert_eq!(a.num_vars(), 2);
        assert_eq!(a.num_clauses(), 2);
        assert_eq!(a.eval(&Assignment::from_bits(0b01, 2)), Some(true));
    }

    #[test]
    fn literal_count() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause([lit(0, true), lit(1, true)]);
        cnf.add_clause([lit(2, false)]);
        assert_eq!(cnf.num_literals(), 3);
    }
}
