//! Don't-care simplification: the Coudert–Madre `restrict` operator.

use std::collections::HashMap;

use crate::manager::BddManager;
use crate::node::BddId;

impl BddManager {
    /// Simplifies `f` against the care set `care`: returns a function `g`
    /// with `g ∧ care = f ∧ care` (outside the care set `g` is arbitrary),
    /// using the sibling-substitution rule, which usually shrinks `g`
    /// well below `f` when the care set prunes whole branches.
    ///
    /// This is the classical frontier-simplification operator of symbolic
    /// reachability: iterating with `restrict(frontier, ¬reached)` keeps
    /// intermediate sets small.
    ///
    /// # Panics
    ///
    /// Panics if `care` is the constant-false function (there is nothing
    /// to agree on).
    pub fn restrict(&mut self, f: BddId, care: BddId) -> BddId {
        assert!(!care.is_false(), "restrict needs a nonempty care set");
        let mut memo = HashMap::new();
        self.restrict_rec(f, care, &mut memo)
    }

    fn restrict_rec(
        &mut self,
        f: BddId,
        care: BddId,
        memo: &mut HashMap<(BddId, BddId), BddId>,
    ) -> BddId {
        if care.is_true() || f.is_terminal() {
            return f;
        }
        if let Some(&r) = memo.get(&(f, care)) {
            return r;
        }
        let top = self.level(f).min(self.level(care));
        let (c0, c1) = self.cofactors(care, top);
        let r = if c0.is_false() {
            // The care set forces the variable to 1: substitute the sibling.
            let (_, f1) = self.cofactors(f, top);
            self.restrict_rec(f1, c1, memo)
        } else if c1.is_false() {
            let (f0, _) = self.cofactors(f, top);
            self.restrict_rec(f0, c0, memo)
        } else {
            let (f0, f1) = self.cofactors(f, top);
            let lo = self.restrict_rec(f0, c0, memo);
            let hi = self.restrict_rec(f1, c1, memo);
            self.mk(top, lo, hi)
        };
        memo.insert((f, care), r);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presat_logic::{Assignment, Var};

    #[test]
    fn restrict_with_full_care_is_identity() {
        let mut m = BddManager::new(2);
        let x = m.var(Var::new(0));
        let y = m.var(Var::new(1));
        let f = m.xor(x, y);
        assert_eq!(m.restrict(f, BddId::TRUE), f);
    }

    #[test]
    fn restrict_agrees_inside_care_set() {
        let mut m = BddManager::new(3);
        let x = m.var(Var::new(0));
        let y = m.var(Var::new(1));
        let z = m.var(Var::new(2));
        let xy = m.xor(x, y);
        let f = m.and(xy, z);
        let care = m.and(x, z); // only care where x=1 ∧ z=1
        let g = m.restrict(f, care);
        // g ∧ care == f ∧ care
        let fg = m.and(f, care);
        let gg = m.and(g, care);
        assert_eq!(fg, gg);
        // And g is no larger than f.
        assert!(m.size(g) <= m.size(f));
    }

    #[test]
    fn restrict_can_collapse_to_constant() {
        let mut m = BddManager::new(2);
        let x = m.var(Var::new(0));
        let y = m.var(Var::new(1));
        let f = m.and(x, y);
        // Care set forces both variables true: f is constant there.
        let g = m.restrict(f, f);
        assert_eq!(g, BddId::TRUE);
    }

    #[test]
    #[should_panic(expected = "nonempty care set")]
    fn restrict_rejects_empty_care() {
        let mut m = BddManager::new(1);
        let x = m.var(Var::new(0));
        let _ = m.restrict(x, BddId::FALSE);
    }

    #[test]
    fn restrict_randomized_contract() {
        use presat_logic::rng::SplitMix64;
        use presat_logic::{Cnf, Lit};
        let mut rng = SplitMix64::seed_from_u64(23);
        for round in 0..30 {
            let n = 6;
            let mut f_cnf = Cnf::new(n);
            let mut c_cnf = Cnf::new(n);
            for _ in 0..6 {
                let mk = |rng: &mut SplitMix64| {
                    (0..3)
                        .map(|_| Lit::with_phase(Var::new(rng.gen_range(0..n)), rng.gen_bool(0.5)))
                        .collect::<Vec<Lit>>()
                };
                let a = mk(&mut rng);
                f_cnf.add_clause(a);
                let b = mk(&mut rng);
                c_cnf.add_clause(b);
            }
            let mut m = BddManager::new(n);
            let f = m.from_cnf(&f_cnf);
            let care = m.from_cnf(&c_cnf);
            if care.is_false() {
                continue;
            }
            let g = m.restrict(f, care);
            // Pointwise agreement inside the care set.
            for bits in 0..(1u64 << n) {
                let a = Assignment::from_bits(bits, n);
                if m.eval(care, &a) {
                    assert_eq!(m.eval(g, &a), m.eval(f, &a), "round {round}, bits {bits:b}");
                }
            }
        }
    }
}
