//! Existential/universal quantification and the relational product
//! (and-exists), the workhorse of BDD-based preimage computation.

use std::collections::HashMap;

use presat_logic::Var;

use crate::manager::BddManager;
use crate::node::BddId;

/// A sorted set of variable levels to quantify over.
#[derive(Clone, Debug, PartialEq, Eq)]
struct LevelSet(Vec<u32>);

impl LevelSet {
    fn new(vars: &[Var]) -> Self {
        let mut v: Vec<u32> = vars.iter().map(|v| v.index() as u32).collect();
        v.sort_unstable();
        v.dedup();
        LevelSet(v)
    }

    #[inline]
    fn contains(&self, level: u32) -> bool {
        self.0.binary_search(&level).is_ok()
    }

    /// `true` if no level in the set is ≥ `level` (nothing left to
    /// quantify below this point).
    #[inline]
    fn none_at_or_below(&self, level: u32) -> bool {
        self.0.last().is_none_or(|&max| max < level)
    }
}

impl BddManager {
    /// Existential quantification `∃ vars . f`.
    pub fn exists(&mut self, f: BddId, vars: &[Var]) -> BddId {
        let set = LevelSet::new(vars);
        let mut memo = HashMap::new();
        self.exists_rec(f, &set, &mut memo)
    }

    fn exists_rec(&mut self, f: BddId, set: &LevelSet, memo: &mut HashMap<BddId, BddId>) -> BddId {
        if f.is_terminal() || set.none_at_or_below(self.level(f)) {
            return f;
        }
        if let Some(&r) = memo.get(&f) {
            return r;
        }
        let level = self.level(f);
        let (lo, hi) = self.cofactors(f, level);
        let lo_q = self.exists_rec(lo, set, memo);
        let hi_q = self.exists_rec(hi, set, memo);
        let r = if set.contains(level) {
            self.or(lo_q, hi_q)
        } else {
            self.mk(level, lo_q, hi_q)
        };
        memo.insert(f, r);
        r
    }

    /// Universal quantification `∀ vars . f`.
    pub fn forall(&mut self, f: BddId, vars: &[Var]) -> BddId {
        let nf = self.not(f);
        let e = self.exists(nf, vars);
        self.not(e)
    }

    /// The relational product `∃ vars . (f ∧ g)` computed in one recursive
    /// pass — the operation that makes BDD-based image/preimage competitive,
    /// because the conjunction is never materialized in full.
    pub fn and_exists(&mut self, f: BddId, g: BddId, vars: &[Var]) -> BddId {
        let set = LevelSet::new(vars);
        let mut memo = HashMap::new();
        self.and_exists_rec(f, g, &set, &mut memo)
    }

    fn and_exists_rec(
        &mut self,
        f: BddId,
        g: BddId,
        set: &LevelSet,
        memo: &mut HashMap<(BddId, BddId), BddId>,
    ) -> BddId {
        if f.is_false() || g.is_false() {
            return BddId::FALSE;
        }
        if f.is_true() && g.is_true() {
            return BddId::TRUE;
        }
        // Below the last quantified level, fall back to plain AND.
        let top = self.level(f).min(self.level(g));
        if set.none_at_or_below(top) {
            return self.and(f, g);
        }
        let key = if f <= g { (f, g) } else { (g, f) };
        if let Some(&r) = memo.get(&key) {
            return r;
        }
        let (f0, f1) = self.cofactors(f, top);
        let (g0, g1) = self.cofactors(g, top);
        let r = if set.contains(top) {
            let lo = self.and_exists_rec(f0, g0, set, memo);
            // Early termination: ⊤ absorbs the disjunction.
            if lo.is_true() {
                lo
            } else {
                let hi = self.and_exists_rec(f1, g1, set, memo);
                self.or(lo, hi)
            }
        } else {
            let lo = self.and_exists_rec(f0, g0, set, memo);
            let hi = self.and_exists_rec(f1, g1, set, memo);
            self.mk(top, lo, hi)
        };
        memo.insert(key, r);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presat_logic::Assignment;

    #[test]
    fn exists_removes_variable_from_support() {
        let mut m = BddManager::new(2);
        let x = m.var(Var::new(0));
        let y = m.var(Var::new(1));
        let f = m.and(x, y);
        let e = m.exists(f, &[Var::new(0)]);
        assert_eq!(e, y);
    }

    #[test]
    fn exists_of_tautology_branch() {
        let mut m = BddManager::new(2);
        let x = m.var(Var::new(0));
        let nx = m.not(x);
        let y = m.var(Var::new(1));
        // (x ∧ y) ∨ (¬x ∧ ¬y): ∃x gives ⊤
        let a = m.and(x, y);
        let ny = m.not(y);
        let b = m.and(nx, ny);
        let f = m.or(a, b);
        assert_eq!(m.exists(f, &[Var::new(0)]), BddId::TRUE);
    }

    #[test]
    fn forall_dual_of_exists() {
        let mut m = BddManager::new(2);
        let x = m.var(Var::new(0));
        let y = m.var(Var::new(1));
        let f = m.or(x, y);
        // ∀x. (x ∨ y) = y
        assert_eq!(m.forall(f, &[Var::new(0)]), y);
        // ∃x. (x ∨ y) = ⊤
        assert_eq!(m.exists(f, &[Var::new(0)]), BddId::TRUE);
    }

    #[test]
    fn multi_var_quantification() {
        let mut m = BddManager::new(3);
        let x = m.var(Var::new(0));
        let y = m.var(Var::new(1));
        let z = m.var(Var::new(2));
        let xy = m.and(x, y);
        let f = m.and(xy, z);
        let e = m.exists(f, &[Var::new(0), Var::new(2)]);
        assert_eq!(e, y);
    }

    #[test]
    fn and_exists_equals_sequential() {
        let mut m = BddManager::new(4);
        // f = (x0 ↔ x2) ∧ (x1 ↔ x3), g = x2 ∧ ¬x3; ∃{x2,x3} f∧g = x0 ∧ ¬x1
        let x0 = m.var(Var::new(0));
        let x1 = m.var(Var::new(1));
        let x2 = m.var(Var::new(2));
        let x3 = m.var(Var::new(3));
        let e1 = m.iff(x0, x2);
        let e2 = m.iff(x1, x3);
        let f = m.and(e1, e2);
        let nx3 = m.not(x3);
        let g = m.and(x2, nx3);
        let qvars = [Var::new(2), Var::new(3)];
        let direct = m.and_exists(f, g, &qvars);
        let fg = m.and(f, g);
        let sequential = m.exists(fg, &qvars);
        assert_eq!(direct, sequential);
        // And semantically: x0 ∧ ¬x1.
        let nx1 = m.not(x1);
        let expect = m.and(x0, nx1);
        assert_eq!(direct, expect);
    }

    #[test]
    fn and_exists_randomized_against_sequential() {
        use presat_logic::rng::SplitMix64;
        use presat_logic::{Cnf, Lit};
        let mut rng = SplitMix64::seed_from_u64(11);
        for _ in 0..25 {
            let n = 6;
            let mut f_cnf = Cnf::new(n);
            let mut g_cnf = Cnf::new(n);
            for _ in 0..6 {
                let mk = |rng: &mut SplitMix64| {
                    (0..3)
                        .map(|_| Lit::with_phase(Var::new(rng.gen_range(0..n)), rng.gen_bool(0.5)))
                        .collect::<Vec<_>>()
                };
                let c1 = mk(&mut rng);
                f_cnf.add_clause(c1);
                let c2 = mk(&mut rng);
                g_cnf.add_clause(c2);
            }
            let mut m = BddManager::new(n);
            let f = m.from_cnf(&f_cnf);
            let g = m.from_cnf(&g_cnf);
            let qvars = [Var::new(1), Var::new(3), Var::new(5)];
            let direct = m.and_exists(f, g, &qvars);
            let fg = m.and(f, g);
            let sequential = m.exists(fg, &qvars);
            assert_eq!(direct, sequential);
        }
    }

    #[test]
    fn quantifying_unused_variable_is_identity() {
        let mut m = BddManager::new(3);
        let x = m.var(Var::new(0));
        assert_eq!(m.exists(x, &[Var::new(2)]), x);
        assert_eq!(m.forall(x, &[Var::new(2)]), x);
    }

    #[test]
    fn exists_semantics_by_evaluation() {
        let mut m = BddManager::new(3);
        let x0 = m.var(Var::new(0));
        let x1 = m.var(Var::new(1));
        let x2 = m.var(Var::new(2));
        let x01 = m.xor(x0, x1);
        let f = m.and(x01, x2);
        let e = m.exists(f, &[Var::new(1)]);
        // e(x0,x2) should be x2 (x1 can always be chosen to make the xor 1)
        for bits in 0..8u64 {
            let a = Assignment::from_bits(bits, 3);
            let expect = bits >> 2 & 1 == 1;
            assert_eq!(m.eval(e, &a), expect);
        }
    }
}
