use std::fmt;

use crate::{Assignment, Lit, Var};

/// Error returned when constructing a [`Cube`] from a literal sequence that
/// contains both a variable and its negation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CubeFromLitsError {
    /// The variable that appeared in both phases.
    pub var: Var,
}

impl fmt::Display for CubeFromLitsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "contradictory literals for {} in cube", self.var)
    }
}

impl std::error::Error for CubeFromLitsError {}

/// A cube: a conjunction of literals over distinct variables, i.e. a partial
/// assignment viewed as a product term.
///
/// Cubes are the unit of currency for all-solutions enumeration — each
/// enumerated solution is a cube over the important variables — and for
/// specifying target state sets. The literal list is kept sorted by variable
/// so that equality, subsumption and intersection are cheap.
///
/// The empty cube is the constant **true** (the universal set).
///
/// # Examples
///
/// ```
/// use presat_logic::{Cube, Lit, Var};
/// let a = Var::new(0);
/// let b = Var::new(1);
/// let c = Cube::from_lits([Lit::pos(a), Lit::neg(b)])?;
/// assert_eq!(c.to_string(), "x0 & !x1");
/// assert!(c.contains_minterm(&presat_logic::Assignment::from_bits(0b01, 2)));
/// # Ok::<(), presat_logic::CubeFromLitsError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Cube {
    /// Sorted by variable index; at most one literal per variable.
    ///
    /// Kept as the first field so the derived lexicographic `Ord` is still
    /// decided by the literal list; `sig` is a pure function of `lits`, so
    /// including it in the derived `PartialEq`/`Hash` changes nothing.
    lits: Vec<Lit>,
    /// Cached literal-signature mask: bit `l.code() % 64` is set for every
    /// literal `l`, so `x` and `¬x` set different bits. `a ⊆ b` on literals
    /// implies `a.sig & !b.sig == 0` — the one-AND subsumption prefilter.
    sig: u64,
}

/// The signature mask of a literal slice (see [`Cube::signature`]).
fn sig_of(lits: &[Lit]) -> u64 {
    lits.iter().fold(0u64, |s, l| s | 1u64 << (l.code() & 63))
}

impl Cube {
    /// Builds a cube from an already sorted, deduplicated, conflict-free
    /// literal vector, computing the cached signature.
    fn from_sorted(lits: Vec<Lit>) -> Self {
        let sig = sig_of(&lits);
        Cube { lits, sig }
    }

    /// The empty cube (constant true / the set of all assignments).
    pub fn top() -> Self {
        Cube::default()
    }

    /// Builds a cube from literals, sorting and deduplicating.
    ///
    /// # Errors
    ///
    /// Returns [`CubeFromLitsError`] if some variable occurs in both phases
    /// (the conjunction would be constant false; represent that case with an
    /// empty [`crate::CubeSet`] instead).
    pub fn from_lits<I: IntoIterator<Item = Lit>>(lits: I) -> Result<Self, CubeFromLitsError> {
        let mut v: Vec<Lit> = lits.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        for w in v.windows(2) {
            if w[0].var() == w[1].var() {
                return Err(CubeFromLitsError { var: w[0].var() });
            }
        }
        Ok(Cube::from_sorted(v))
    }

    /// The single-literal cube.
    pub fn unit(lit: Lit) -> Self {
        Cube::from_sorted(vec![lit])
    }

    /// Number of literals.
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// `true` for the empty cube (constant true).
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }

    /// The literals, sorted by variable.
    pub fn lits(&self) -> &[Lit] {
        &self.lits
    }

    /// The cached 64-bit literal-signature mask: bit `l.code() % 64` is set
    /// for every literal `l` of this cube. A literal's code is
    /// `var << 1 | sign`, so `x` and `¬x` set neighbouring bits, and every
    /// 32 variables the codes fold onto the same 64 bits.
    ///
    /// If `a.subsumes(b)` then `a`'s literals are a subset of `b`'s, so
    /// `a.signature() & !b.signature() == 0`; a single AND therefore
    /// refutes most non-subsumptions before any literal comparison. Over
    /// variables that are pairwise distinct modulo 32 (any 32 consecutive
    /// ones, say) the test is exact: it passes only for true subsumption.
    /// Only the subsumption prefilters read it: [`Cube::subsumes`] and the
    /// cube store's index.
    pub fn signature(&self) -> u64 {
        self.sig
    }

    /// Iterates over the literals.
    pub fn iter(&self) -> std::slice::Iter<'_, Lit> {
        self.lits.iter()
    }

    /// The phase this cube requires of `var`, if constrained.
    pub fn phase_of(&self, var: Var) -> Option<bool> {
        self.lits
            .binary_search_by_key(&var, |l| l.var())
            .ok()
            .map(|i| self.lits[i].phase())
    }

    /// `true` if this cube constrains `var`.
    pub fn mentions(&self, var: Var) -> bool {
        self.phase_of(var).is_some()
    }

    /// `true` if the total/partial assignment `a` satisfies every literal of
    /// this cube (unassigned variables count as *not* satisfying).
    pub fn contains_minterm(&self, a: &Assignment) -> bool {
        self.lits.iter().all(|&l| a.lit_value(l) == Some(true))
    }

    /// Evaluates under a partial assignment: `Some(false)` if some literal is
    /// falsified, `Some(true)` if all are satisfied, `None` otherwise.
    pub fn eval_partial(&self, a: &Assignment) -> Option<bool> {
        let mut all_true = true;
        for &l in &self.lits {
            match a.lit_value(l) {
                Some(false) => return Some(false),
                Some(true) => {}
                None => all_true = false,
            }
        }
        if all_true {
            Some(true)
        } else {
            None
        }
    }

    /// `true` if `self` subsumes `other`: every assignment in `other`'s set
    /// is in `self`'s set, i.e. `self`'s literals are a subset of `other`'s.
    ///
    /// ```
    /// use presat_logic::{Cube, Lit, Var};
    /// let wide = Cube::unit(Lit::pos(Var::new(0)));
    /// let narrow = Cube::from_lits([Lit::pos(Var::new(0)), Lit::pos(Var::new(1))])?;
    /// assert!(wide.subsumes(&narrow));
    /// assert!(!narrow.subsumes(&wide));
    /// # Ok::<(), presat_logic::CubeFromLitsError>(())
    /// ```
    pub fn subsumes(&self, other: &Cube) -> bool {
        // A subset's literals are a subset: one AND refutes most pairs.
        if self.sig & !other.sig != 0 {
            return false;
        }
        if self.lits.len() > other.lits.len() {
            return false;
        }
        // Both sorted: linear merge check for subset.
        let mut oi = 0;
        'outer: for &l in &self.lits {
            while oi < other.lits.len() {
                match other.lits[oi].cmp(&l) {
                    std::cmp::Ordering::Less => oi += 1,
                    std::cmp::Ordering::Equal => {
                        oi += 1;
                        continue 'outer;
                    }
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// Conjunction of two cubes: `None` if they conflict on some variable.
    pub fn intersect(&self, other: &Cube) -> Option<Cube> {
        let mut out = Vec::with_capacity(self.lits.len() + other.lits.len());
        let (mut i, mut j) = (0, 0);
        while i < self.lits.len() && j < other.lits.len() {
            let (a, b) = (self.lits[i], other.lits[j]);
            if a.var() == b.var() {
                if a != b {
                    return None;
                }
                out.push(a);
                i += 1;
                j += 1;
            } else if a.var() < b.var() {
                out.push(a);
                i += 1;
            } else {
                out.push(b);
                j += 1;
            }
        }
        out.extend_from_slice(&self.lits[i..]);
        out.extend_from_slice(&other.lits[j..]);
        Some(Cube::from_sorted(out))
    }

    /// `true` if the two cubes share at least one assignment (no variable is
    /// constrained to opposite phases).
    pub fn intersects(&self, other: &Cube) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.lits.len() && j < other.lits.len() {
            let (a, b) = (self.lits[i], other.lits[j]);
            if a.var() == b.var() {
                if a != b {
                    return false;
                }
                i += 1;
                j += 1;
            } else if a.var() < b.var() {
                i += 1;
            } else {
                j += 1;
            }
        }
        true
    }

    /// The cube with the literal on `var` removed (no-op if absent).
    pub fn without_var(&self, var: Var) -> Cube {
        Cube::from_sorted(self.lits.iter().copied().filter(|l| l.var() != var).collect())
    }

    /// The cofactor of this cube with respect to `lit` being asserted:
    /// `None` if the cube requires `!lit` (empty set), otherwise the cube
    /// with `lit`'s variable dropped.
    pub fn cofactor(&self, lit: Lit) -> Option<Cube> {
        match self.phase_of(lit.var()) {
            Some(p) if p != lit.phase() => None,
            _ => Some(self.without_var(lit.var())),
        }
    }

    /// Number of total assignments over a universe of `num_vars` variables
    /// covered by this cube: `2^(num_vars - len)`.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars < self.len()` or the count overflows `u128`.
    pub fn minterm_count(&self, num_vars: usize) -> u128 {
        let free = num_vars
            .checked_sub(self.len())
            .expect("cube mentions more variables than the universe");
        assert!(free < 128, "minterm count overflows u128");
        1u128 << free
    }

    /// Converts the cube to an [`Assignment`] over `num_vars` variables
    /// (variables not mentioned remain unassigned).
    pub fn to_assignment(&self, num_vars: usize) -> Assignment {
        let mut a = Assignment::new(num_vars);
        for &l in &self.lits {
            a.assign_lit(l);
        }
        a
    }

    /// Enumerates all minterms (total assignments over `vars`) covered by
    /// this cube, restricted to the universe `vars`.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 variables in `vars` are free.
    pub fn expand_minterms(&self, vars: &[Var]) -> Vec<Cube> {
        let free: Vec<Var> = vars.iter().copied().filter(|&v| !self.mentions(v)).collect();
        assert!(free.len() <= 64, "too many free variables to expand");
        let mut out = Vec::with_capacity(1usize << free.len());
        for bits in 0..(1u64 << free.len()) {
            let mut lits: Vec<Lit> = self.lits.clone();
            for (i, &v) in free.iter().enumerate() {
                lits.push(Lit::with_phase(v, bits >> i & 1 == 1));
            }
            out.push(Cube::from_lits(lits).expect("expansion cannot conflict"));
        }
        out
    }
}

impl fmt::Debug for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cube({self})")
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lits.is_empty() {
            return write!(f, "⊤");
        }
        for (i, l) in self.lits.iter().enumerate() {
            if i > 0 {
                write!(f, " & ")?;
            }
            write!(f, "{l}")?;
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
    fn from_lits_sorts_and_dedups() {
        let c = Cube::from_lits([lit(2, true), lit(0, false), lit(2, true)]).unwrap();
        assert_eq!(c.lits(), &[lit(0, false), lit(2, true)]);
    }

    #[test]
    fn from_lits_rejects_contradiction() {
        let e = Cube::from_lits([lit(1, true), lit(1, false)]).unwrap_err();
        assert_eq!(e.var, Var::new(1));
    }

    #[test]
    fn top_is_empty_and_subsumes_everything() {
        let t = Cube::top();
        let c = Cube::from_lits([lit(0, true)]).unwrap();
        assert!(t.subsumes(&c));
        assert!(t.subsumes(&t));
        assert!(!c.subsumes(&t));
    }

    #[test]
    fn subsumption_is_subset_of_literals() {
        let a = Cube::from_lits([lit(0, true), lit(2, false)]).unwrap();
        let b = Cube::from_lits([lit(0, true), lit(1, true), lit(2, false)]).unwrap();
        assert!(a.subsumes(&b));
        assert!(!b.subsumes(&a));
        let c = Cube::from_lits([lit(0, false), lit(1, true), lit(2, false)]).unwrap();
        assert!(!a.subsumes(&c));
    }

    #[test]
    fn intersect_merges_or_conflicts() {
        let a = Cube::from_lits([lit(0, true)]).unwrap();
        let b = Cube::from_lits([lit(1, false)]).unwrap();
        let ab = a.intersect(&b).unwrap();
        assert_eq!(ab.lits(), &[lit(0, true), lit(1, false)]);
        let c = Cube::from_lits([lit(0, false)]).unwrap();
        assert!(a.intersect(&c).is_none());
        assert!(!a.intersects(&c));
        assert!(a.intersects(&b));
    }

    #[test]
    fn cofactor_drops_or_kills() {
        let c = Cube::from_lits([lit(0, true), lit(1, false)]).unwrap();
        assert_eq!(c.cofactor(lit(0, true)).unwrap().lits(), &[lit(1, false)]);
        assert!(c.cofactor(lit(0, false)).is_none());
        // cofactor w.r.t. unmentioned variable leaves cube unchanged
        assert_eq!(c.cofactor(lit(5, true)).unwrap(), c);
    }

    #[test]
    fn minterm_count_is_power_of_two() {
        let c = Cube::from_lits([lit(0, true)]).unwrap();
        assert_eq!(c.minterm_count(4), 8);
        assert_eq!(Cube::top().minterm_count(3), 8);
    }

    #[test]
    fn expand_minterms_covers_exactly() {
        let vars: Vec<Var> = Var::range(3).collect();
        let c = Cube::from_lits([lit(1, true)]).unwrap();
        let ms = c.expand_minterms(&vars);
        assert_eq!(ms.len(), 4);
        for m in &ms {
            assert_eq!(m.len(), 3);
            assert_eq!(m.phase_of(Var::new(1)), Some(true));
            assert!(c.subsumes(m));
        }
    }

    #[test]
    fn signature_sets_one_bit_per_literal_code() {
        assert_eq!(Cube::top().signature(), 0);
        // x0 is code 0, ¬x1 code 3, x3 code 6.
        let c = Cube::from_lits([lit(0, true), lit(1, false)]).unwrap();
        assert_eq!(c.signature(), 0b1001);
        assert_eq!(c.without_var(Var::new(1)).signature(), 0b0001);
        let d = c.intersect(&Cube::unit(lit(3, true))).unwrap();
        assert_eq!(d.signature(), 0b100_1001);
        // Phase-aware: x and ¬x set neighbouring, different bits.
        assert_eq!(Cube::unit(lit(2, true)).signature(), 1 << 4);
        assert_eq!(Cube::unit(lit(2, false)).signature(), 1 << 5);
        // Codes fold every 64: x32 (code 64) and ¬x33 (code 67) land on
        // the bits of x0 and ¬x1.
        let folded = Cube::from_lits([lit(32, true), lit(33, false)]).unwrap();
        assert_eq!(folded.signature(), c.signature());
    }

    #[test]
    fn subsumption_implies_signature_inclusion() {
        use crate::rng::SplitMix64;
        fn random_cube(rng: &mut SplitMix64, nv: usize) -> Cube {
            loop {
                let width = rng.gen_range(0..7);
                let lits: Vec<Lit> = (0..width)
                    .map(|_| lit(rng.gen_range(0..nv), rng.gen_bool(0.5)))
                    .collect();
                if let Ok(c) = Cube::from_lits(lits) {
                    return c;
                }
            }
        }
        let mut rng = SplitMix64::seed_from_u64(0x5167);
        // 8 variables: subsumption is frequent and the prefilter exact;
        // 100: codes fold onto the same bits and the prefilter may pass
        // pairs that do not subsume.
        let mut subsumed = 0;
        for nv in [8, 100] {
            for _ in 0..2_000 {
                let b = random_cube(&mut rng, nv);
                // Half the pairs draw `a` as a subset of `b`, so
                // subsumption is common at both widths.
                let a = if rng.gen_bool(0.5) {
                    let keep: Vec<Lit> = b.iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
                    Cube::from_lits(keep).unwrap()
                } else {
                    random_cube(&mut rng, nv)
                };
                if a.subsumes(&b) {
                    subsumed += 1;
                    assert_eq!(a.signature() & !b.signature(), 0, "{a} subsumes {b}");
                }
                if nv <= 32 && a.signature() & !b.signature() == 0 {
                    assert!(a.subsumes(&b), "exact prefilter passed {a} against {b}");
                }
            }
        }
        assert!(subsumed > 1_000, "only {subsumed} subsuming pairs");
    }

    #[test]
    fn eval_partial_three_valued() {
        let c = Cube::from_lits([lit(0, true), lit(1, true)]).unwrap();
        let mut a = Assignment::new(2);
        assert_eq!(c.eval_partial(&a), None);
        a.assign(Var::new(0), false);
        assert_eq!(c.eval_partial(&a), Some(false));
        a.assign(Var::new(0), true);
        a.assign(Var::new(1), true);
        assert_eq!(c.eval_partial(&a), Some(true));
    }

    #[test]
    fn contains_minterm_requires_all_lits() {
        let c = Cube::from_lits([lit(0, true), lit(1, false)]).unwrap();
        assert!(c.contains_minterm(&Assignment::from_bits(0b01, 2)));
        assert!(!c.contains_minterm(&Assignment::from_bits(0b11, 2)));
    }
}
