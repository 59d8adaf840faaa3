//! Variable renaming and functional composition.

use std::collections::HashMap;

use presat_logic::Var;

use crate::manager::BddManager;
use crate::node::{BddId, TERMINAL_LEVEL};

impl BddManager {
    /// Renames variables according to `map` (a `from → to` table), which
    /// must be *order-preserving*: if `a < b` are both in the map then
    /// `map[a] < map[b]`, and unmapped variables must not interleave with
    /// mapped targets in a way that changes relative order. This is the
    /// cheap O(|f|) rename used for swapping next-state and present-state
    /// variable blocks in preimage computation, where the blocks are laid
    /// out to keep renaming monotone.
    ///
    /// # Panics
    ///
    /// Panics if the rename would violate the variable order (detected
    /// during reconstruction) or maps outside the manager space.
    pub fn rename(&mut self, f: BddId, map: &HashMap<Var, Var>) -> BddId {
        for (from, to) in map {
            assert!(
                from.index() < self.num_vars(),
                "rename source outside order"
            );
            assert!(to.index() < self.num_vars(), "rename target outside order");
        }
        let mut memo = HashMap::new();
        self.rename_rec(f, map, &mut memo)
    }

    fn rename_rec(
        &mut self,
        f: BddId,
        map: &HashMap<Var, Var>,
        memo: &mut HashMap<BddId, BddId>,
    ) -> BddId {
        if f.is_terminal() {
            return f;
        }
        if let Some(&r) = memo.get(&f) {
            return r;
        }
        let level = self.level(f);
        let (lo, hi) = self.cofactors(f, level);
        let lo_r = self.rename_rec(lo, map, memo);
        let hi_r = self.rename_rec(hi, map, memo);
        let var = Var::new(level as usize);
        let new_level = map.get(&var).map_or(level, |v| v.index() as u32);
        // `mk` debug-asserts ordering, but check in release too: a silent
        // ordering violation would produce a non-canonical (wrong) BDD.
        let lo_level = self.level(lo_r);
        let hi_level = self.level(hi_r);
        assert!(
            (new_level < lo_level || lo_level == TERMINAL_LEVEL)
                && (new_level < hi_level || hi_level == TERMINAL_LEVEL),
            "rename is not order-preserving at level {level} -> {new_level}"
        );
        let r = self.mk(new_level, lo_r, hi_r);
        memo.insert(f, r);
        r
    }

    /// Functional composition: `f[var := g]` (substitute the function `g`
    /// for the variable `var` in `f`). Works for arbitrary `g`, at ITE
    /// cost.
    pub fn compose(&mut self, f: BddId, var: Var, g: BddId) -> BddId {
        let mut memo = HashMap::new();
        self.compose_rec(f, var.index() as u32, g, &mut memo)
    }

    fn compose_rec(
        &mut self,
        f: BddId,
        var: u32,
        g: BddId,
        memo: &mut HashMap<BddId, BddId>,
    ) -> BddId {
        if f.is_terminal() || self.level(f) > var {
            // `var` cannot appear below its own level.
            return f;
        }
        if let Some(&r) = memo.get(&f) {
            return r;
        }
        let level = self.level(f);
        let (lo, hi) = self.cofactors(f, level);
        let r = if level == var {
            self.ite(g, hi, lo)
        } else {
            let lo_c = self.compose_rec(lo, var, g, memo);
            let hi_c = self.compose_rec(hi, var, g, memo);
            // Levels may shift arbitrarily after composition; rebuild with
            // ITE on the branch variable to stay canonical.
            let v = self.mk(level, BddId::FALSE, BddId::TRUE);
            self.ite(v, hi_c, lo_c)
        };
        memo.insert(f, r);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presat_logic::Assignment;

    #[test]
    fn rename_shifts_block() {
        let mut m = BddManager::new(4);
        let x0 = m.var(Var::new(0));
        let x1 = m.var(Var::new(1));
        let f = m.and(x0, x1);
        let map: HashMap<Var, Var> =
            [(Var::new(0), Var::new(2)), (Var::new(1), Var::new(3))].into();
        let g = m.rename(f, &map);
        let x2 = m.var(Var::new(2));
        let x3 = m.var(Var::new(3));
        let expect = m.and(x2, x3);
        assert_eq!(g, expect);
    }

    #[test]
    fn rename_identity_map_is_identity() {
        let mut m = BddManager::new(2);
        let x0 = m.var(Var::new(0));
        let x1 = m.var(Var::new(1));
        let f = m.xor(x0, x1);
        assert_eq!(m.rename(f, &HashMap::new()), f);
    }

    #[test]
    #[should_panic(expected = "not order-preserving")]
    fn rename_rejects_order_violation() {
        let mut m = BddManager::new(4);
        let x0 = m.var(Var::new(0));
        let x1 = m.var(Var::new(1));
        let f = m.and(x0, x1);
        // Swapping the two variables reverses their order: must panic.
        let map: HashMap<Var, Var> =
            [(Var::new(0), Var::new(1)), (Var::new(1), Var::new(0))].into();
        let _ = m.rename(f, &map);
    }

    #[test]
    fn compose_substitutes_function() {
        let mut m = BddManager::new(3);
        let x0 = m.var(Var::new(0));
        let x1 = m.var(Var::new(1));
        let x2 = m.var(Var::new(2));
        // f = x0 ∧ x1 ; f[x0 := x1 ∨ x2] = (x1 ∨ x2) ∧ x1 = x1
        let f = m.and(x0, x1);
        let g = m.or(x1, x2);
        let h = m.compose(f, Var::new(0), g);
        assert_eq!(h, x1);
    }

    #[test]
    fn compose_with_swapped_order() {
        // Substituting a function over a *lower* variable: f = x2, replace
        // x2 by ¬x0 — result must be canonical.
        let mut m = BddManager::new(3);
        let x2 = m.var(Var::new(2));
        let x0 = m.var(Var::new(0));
        let nx0 = m.not(x0);
        let h = m.compose(x2, Var::new(2), nx0);
        assert_eq!(h, nx0);
    }

    #[test]
    fn compose_semantics_by_evaluation() {
        let mut m = BddManager::new(3);
        let x0 = m.var(Var::new(0));
        let x1 = m.var(Var::new(1));
        let x2 = m.var(Var::new(2));
        let f0 = m.xor(x0, x1);
        let f = m.and(f0, x2);
        let g = m.or(x1, x2);
        let h = m.compose(f, Var::new(0), g);
        for bits in 0..8u64 {
            let a = Assignment::from_bits(bits, 3);
            let x1v = bits >> 1 & 1 == 1;
            let x2v = bits >> 2 & 1 == 1;
            let gv = x1v || x2v;
            let expect = (gv ^ x1v) && x2v;
            assert_eq!(m.eval(h, &a), expect, "bits={bits:03b}");
        }
    }
}
