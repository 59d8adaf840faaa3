//! Model counting, size metrics, and cube extraction.

use std::collections::HashMap;

use presat_logic::{Cube, CubeSet, Lit, Var};

use crate::manager::BddManager;
use crate::node::BddId;

impl BddManager {
    /// Number of nodes reachable from `f` (including terminals) — the
    /// per-function size metric used in the evaluation tables.
    pub fn size(&self, f: BddId) -> usize {
        let mut seen = HashMap::new();
        self.mark(f, &mut seen);
        seen.len()
    }

    fn mark(&self, f: BddId, seen: &mut HashMap<BddId, ()>) {
        if seen.insert(f, ()).is_some() || f.is_terminal() {
            return;
        }
        self.mark(self.node_lo(f), seen);
        self.mark(self.node_hi(f), seen);
    }

    /// Exact number of satisfying total assignments of `f` over the
    /// universe `x0..x(num_vars-1)`.
    ///
    /// # Panics
    ///
    /// Panics if a variable of `f` lies outside `num_vars` or the count
    /// overflows `u128`.
    pub fn satcount(&self, f: BddId, num_vars: usize) -> u128 {
        let mut memo = HashMap::new();
        self.satcount_rec(f, 0, num_vars as u32, &mut memo)
    }

    fn satcount_rec(
        &self,
        f: BddId,
        from_level: u32,
        num_vars: u32,
        memo: &mut HashMap<BddId, u128>,
    ) -> u128 {
        if f.is_false() {
            return 0;
        }
        let level = if f.is_true() {
            num_vars
        } else {
            self.level(f).min(num_vars)
        };
        assert!(
            from_level <= level,
            "BDD variable below the declared universe"
        );
        let below = if f.is_true() {
            1u128
        } else if let Some(&c) = memo.get(&f) {
            c
        } else {
            let lvl = self.level(f);
            let lo = self.satcount_rec(self.node_lo(f), lvl + 1, num_vars, memo);
            let hi = self.satcount_rec(self.node_hi(f), lvl + 1, num_vars, memo);
            let c = lo + hi;
            memo.insert(f, c);
            c
        };
        below << (level - from_level)
    }

    /// Extracts the function as an irredundant set of disjoint path cubes:
    /// one cube per path from the root to ⊤ (variables skipped on the path
    /// are left free). Disjointness is inherent to BDD paths.
    pub fn to_cube_set(&self, f: BddId) -> CubeSet {
        let mut out = CubeSet::new();
        let mut path: Vec<Lit> = Vec::new();
        self.paths_rec(f, &mut path, &mut out);
        out
    }

    fn paths_rec(&self, f: BddId, path: &mut Vec<Lit>, out: &mut CubeSet) {
        if f.is_false() {
            return;
        }
        if f.is_true() {
            // BDD paths are pairwise disjoint, so skip the absorption scans.
            out.push_disjoint(
                Cube::from_lits(path.iter().copied()).expect("path literals are distinct"),
            );
            return;
        }
        let v = self.node_var(f);
        path.push(Lit::neg(v));
        self.paths_rec(self.node_lo(f), path, out);
        path.pop();
        path.push(Lit::pos(v));
        self.paths_rec(self.node_hi(f), path, out);
        path.pop();
    }

    /// Builds the BDD of a [`CubeSet`] (the union of its cubes).
    pub fn from_cube_set(&mut self, set: &CubeSet) -> BddId {
        let mut acc = BddId::FALSE;
        for c in set {
            let cb = self.cube(c);
            acc = self.or(acc, cb);
        }
        acc
    }

    /// One satisfying cube (a shortest root-to-⊤ path), or `None` if
    /// `f` is unsatisfiable.
    pub fn any_sat_cube(&self, f: BddId) -> Option<Cube> {
        if f.is_false() {
            return None;
        }
        let mut lits = Vec::new();
        let mut cur = f;
        while !cur.is_terminal() {
            let v = self.node_var(cur);
            if self.node_hi(cur).is_false() {
                lits.push(Lit::neg(v));
                cur = self.node_lo(cur);
            } else {
                lits.push(Lit::pos(v));
                cur = self.node_hi(cur);
            }
        }
        Some(Cube::from_lits(lits).expect("path literals are distinct"))
    }

    /// The support of `f`: the variables it actually depends on, sorted.
    pub fn support(&self, f: BddId) -> Vec<Var> {
        let mut seen = HashMap::new();
        self.mark(f, &mut seen);
        let mut vars: Vec<Var> = seen
            .keys()
            .filter(|id| !id.is_terminal())
            .map(|&id| self.node_var(id))
            .collect();
        vars.sort_unstable();
        vars.dedup();
        vars
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn satcount_basic() {
        let mut m = BddManager::new(3);
        let x = m.var(Var::new(0));
        assert_eq!(m.satcount(x, 3), 4);
        assert_eq!(m.satcount(BddId::TRUE, 3), 8);
        assert_eq!(m.satcount(BddId::FALSE, 3), 0);
    }

    #[test]
    fn satcount_respects_skipped_levels() {
        let mut m = BddManager::new(4);
        let x1 = m.var(Var::new(1));
        let x3 = m.var(Var::new(3));
        let f = m.and(x1, x3);
        assert_eq!(m.satcount(f, 4), 4);
    }

    #[test]
    fn size_counts_shared_nodes_once() {
        let mut m = BddManager::new(2);
        let x = m.var(Var::new(0));
        let y = m.var(Var::new(1));
        let f = m.xor(x, y);
        // xor over 2 vars: root + two x1 nodes + 2 terminals = 5
        assert_eq!(m.size(f), 5);
    }

    #[test]
    fn to_cube_set_round_trips() {
        let mut m = BddManager::new(3);
        let x = m.var(Var::new(0));
        let y = m.var(Var::new(1));
        let z = m.var(Var::new(2));
        let xy = m.and(x, y);
        let f = m.or(xy, z);
        let cubes = m.to_cube_set(f);
        let g = m.from_cube_set(&cubes);
        assert_eq!(f, g);
        assert_eq!(cubes.minterm_count(3), m.satcount(f, 3));
    }

    #[test]
    fn any_sat_cube_satisfies() {
        let mut m = BddManager::new(3);
        let x = m.var(Var::new(0));
        let ny = {
            let y = m.var(Var::new(1));
            m.not(y)
        };
        let f = m.and(x, ny);
        let cube = m.any_sat_cube(f).expect("satisfiable");
        let a = cube.to_assignment(3);
        assert!(m.eval(f, &a));
        assert_eq!(m.any_sat_cube(BddId::FALSE), None);
    }

    #[test]
    fn support_lists_dependencies() {
        let mut m = BddManager::new(4);
        let x0 = m.var(Var::new(0));
        let x3 = m.var(Var::new(3));
        let f = m.xor(x0, x3);
        assert_eq!(m.support(f), vec![Var::new(0), Var::new(3)]);
        assert!(m.support(BddId::TRUE).is_empty());
    }
}
