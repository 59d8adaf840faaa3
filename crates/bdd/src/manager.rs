//! The node arena, unique table, and core Boolean operators.

use std::collections::HashMap;

use presat_logic::{Cnf, Cube, Lit, Var};

use crate::node::{BddId, Node, TERMINAL_LEVEL};

/// Cache key for binary/ternary operations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum CacheKey {
    Ite(BddId, BddId, BddId),
    Not(BddId),
}

/// A manager owning a forest of ROBDDs over a fixed identity variable order
/// (variable index == decision level).
///
/// All functions created by one manager share structure via hash-consing;
/// equality of [`BddId`]s is functional equality. See the
/// [crate documentation](crate) for an overview and examples.
#[derive(Clone, Debug)]
pub struct BddManager {
    pub(crate) nodes: Vec<Node>,
    unique: HashMap<(u32, BddId, BddId), BddId>,
    cache: HashMap<CacheKey, BddId>,
    num_vars: usize,
}

impl BddManager {
    /// Creates a manager over variables `x0..x(num_vars-1)`.
    pub fn new(num_vars: usize) -> Self {
        BddManager {
            nodes: vec![
                // Slot 0: ⊥ terminal, slot 1: ⊤ terminal.
                Node {
                    var: TERMINAL_LEVEL,
                    lo: BddId::FALSE,
                    hi: BddId::FALSE,
                },
                Node {
                    var: TERMINAL_LEVEL,
                    lo: BddId::TRUE,
                    hi: BddId::TRUE,
                },
            ],
            unique: HashMap::new(),
            cache: HashMap::new(),
            num_vars,
        }
    }

    /// Number of variables in the manager's order.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Grows the variable space to at least `n` variables.
    pub fn ensure_vars(&mut self, n: usize) {
        self.num_vars = self.num_vars.max(n);
    }

    /// Total number of live nodes in the arena (including both terminals) —
    /// the standard memory metric reported in the evaluation tables.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The constant function for `value`.
    pub fn constant(&self, value: bool) -> BddId {
        if value {
            BddId::TRUE
        } else {
            BddId::FALSE
        }
    }

    /// The projection function of `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is outside the manager's variable space.
    pub fn var(&mut self, var: Var) -> BddId {
        assert!(
            var.index() < self.num_vars,
            "variable outside manager order"
        );
        self.mk(var.index() as u32, BddId::FALSE, BddId::TRUE)
    }

    /// The literal function: `var` or its negation.
    pub fn literal(&mut self, lit: Lit) -> BddId {
        if lit.is_pos() {
            self.var(lit.var())
        } else {
            self.mk(lit.var().index() as u32, BddId::TRUE, BddId::FALSE)
        }
    }

    /// The decision variable of node `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is a terminal.
    pub fn node_var(&self, f: BddId) -> Var {
        assert!(!f.is_terminal(), "terminals have no decision variable");
        Var::new(self.nodes[f.index()].var as usize)
    }

    /// The low (else) child of `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is a terminal.
    pub fn node_lo(&self, f: BddId) -> BddId {
        assert!(!f.is_terminal());
        self.nodes[f.index()].lo
    }

    /// The high (then) child of `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is a terminal.
    pub fn node_hi(&self, f: BddId) -> BddId {
        assert!(!f.is_terminal());
        self.nodes[f.index()].hi
    }

    #[inline]
    pub(crate) fn level(&self, f: BddId) -> u32 {
        self.nodes[f.index()].var
    }

    /// Find-or-create a node, enforcing the reduction rules.
    pub(crate) fn mk(&mut self, var: u32, lo: BddId, hi: BddId) -> BddId {
        if lo == hi {
            return lo;
        }
        debug_assert!(
            var < self.level(lo) && var < self.level(hi),
            "ordering violated in mk"
        );
        if let Some(&id) = self.unique.get(&(var, lo, hi)) {
            return id;
        }
        let id = BddId(u32::try_from(self.nodes.len()).expect("BDD arena overflow"));
        self.nodes.push(Node { var, lo, hi });
        self.unique.insert((var, lo, hi), id);
        id
    }

    /// Shannon cofactors of `f` with respect to the top variable `level`.
    #[inline]
    pub(crate) fn cofactors(&self, f: BddId, level: u32) -> (BddId, BddId) {
        let n = &self.nodes[f.index()];
        if n.var == level {
            (n.lo, n.hi)
        } else {
            (f, f)
        }
    }

    /// If-then-else: `f ? g : h` — the universal ternary operator all binary
    /// operators reduce to.
    pub fn ite(&mut self, f: BddId, g: BddId, h: BddId) -> BddId {
        // Terminal cases.
        if f.is_true() {
            return g;
        }
        if f.is_false() {
            return h;
        }
        if g == h {
            return g;
        }
        if g.is_true() && h.is_false() {
            return f;
        }
        let key = CacheKey::Ite(f, g, h);
        if let Some(&r) = self.cache.get(&key) {
            return r;
        }
        let level = self.level(f).min(self.level(g)).min(self.level(h));
        let (f0, f1) = self.cofactors(f, level);
        let (g0, g1) = self.cofactors(g, level);
        let (h0, h1) = self.cofactors(h, level);
        let lo = self.ite(f0, g0, h0);
        let hi = self.ite(f1, g1, h1);
        let r = self.mk(level, lo, hi);
        self.cache.insert(key, r);
        r
    }

    /// Conjunction.
    pub fn and(&mut self, f: BddId, g: BddId) -> BddId {
        self.ite(f, g, BddId::FALSE)
    }

    /// Disjunction.
    pub fn or(&mut self, f: BddId, g: BddId) -> BddId {
        self.ite(f, BddId::TRUE, g)
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: BddId, g: BddId) -> BddId {
        let ng = self.not(g);
        self.ite(f, ng, g)
    }

    /// Negation.
    pub fn not(&mut self, f: BddId) -> BddId {
        if f.is_true() {
            return BddId::FALSE;
        }
        if f.is_false() {
            return BddId::TRUE;
        }
        let key = CacheKey::Not(f);
        if let Some(&r) = self.cache.get(&key) {
            return r;
        }
        let n = self.nodes[f.index()];
        let lo = self.not(n.lo);
        let hi = self.not(n.hi);
        let r = self.mk(n.var, lo, hi);
        self.cache.insert(key, r);
        r
    }

    /// Implication `f → g`.
    pub fn implies(&mut self, f: BddId, g: BddId) -> BddId {
        self.ite(f, g, BddId::TRUE)
    }

    /// Biconditional `f ↔ g`.
    pub fn iff(&mut self, f: BddId, g: BddId) -> BddId {
        let ng = self.not(g);
        self.ite(f, g, ng)
    }

    /// The conjunction of a cube's literals.
    pub fn cube(&mut self, cube: &Cube) -> BddId {
        // Conjoin from the highest variable down so each `mk` is O(1).
        let mut acc = BddId::TRUE;
        for &lit in cube.lits().iter().rev() {
            let v = lit.var().index() as u32;
            acc = if lit.is_pos() {
                self.mk(v, BddId::FALSE, acc)
            } else {
                self.mk(v, acc, BddId::FALSE)
            };
        }
        acc
    }

    /// Builds the BDD of a CNF formula by conjoining clause BDDs.
    pub fn from_cnf(&mut self, cnf: &Cnf) -> BddId {
        self.ensure_vars(cnf.num_vars());
        let mut acc = BddId::TRUE;
        for clause in cnf.clauses() {
            let mut cl = BddId::FALSE;
            // Build the disjunction from the highest variable down.
            let mut lits: Vec<Lit> = clause.clone();
            lits.sort_unstable_by_key(|l| std::cmp::Reverse(l.var()));
            for &lit in &lits {
                let lbdd = self.literal(lit);
                cl = self.or(lbdd, cl);
            }
            acc = self.and(acc, cl);
            if acc.is_false() {
                break;
            }
        }
        acc
    }

    /// Evaluates `f` under a total assignment.
    pub fn eval(&self, f: BddId, assignment: &presat_logic::Assignment) -> bool {
        let mut cur = f;
        while !cur.is_terminal() {
            let n = &self.nodes[cur.index()];
            let v = Var::new(n.var as usize);
            cur = match assignment.value(v) {
                Some(true) => n.hi,
                Some(false) | None => n.lo,
            };
        }
        cur.is_true()
    }

    /// Drops the operation cache (the unique table is kept, so canonicity is
    /// unaffected). Useful between mega-operations to bound memory.
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// Garbage-collects the arena, keeping only nodes reachable from
    /// `roots`. Returns the re-mapped roots (all previously issued ids are
    /// invalidated).
    pub fn gc(&mut self, roots: &[BddId]) -> Vec<BddId> {
        let mut remap: HashMap<BddId, BddId> = HashMap::new();
        remap.insert(BddId::FALSE, BddId::FALSE);
        remap.insert(BddId::TRUE, BddId::TRUE);
        let old_nodes = std::mem::take(&mut self.nodes);
        self.unique.clear();
        self.cache.clear();
        self.nodes = vec![old_nodes[0], old_nodes[1]];

        fn rebuild(
            m: &mut BddManager,
            old_nodes: &[Node],
            remap: &mut HashMap<BddId, BddId>,
            f: BddId,
        ) -> BddId {
            if let Some(&r) = remap.get(&f) {
                return r;
            }
            let n = old_nodes[f.index()];
            let lo = rebuild(m, old_nodes, remap, n.lo);
            let hi = rebuild(m, old_nodes, remap, n.hi);
            let r = m.mk(n.var, lo, hi);
            remap.insert(f, r);
            r
        }

        roots
            .iter()
            .map(|&r| rebuild(self, &old_nodes, &mut remap, r))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presat_logic::Assignment;

    fn mgr(n: usize) -> BddManager {
        BddManager::new(n)
    }

    #[test]
    fn constants() {
        let m = mgr(0);
        assert!(m.constant(true).is_true());
        assert!(m.constant(false).is_false());
    }

    #[test]
    fn var_is_canonical() {
        let mut m = mgr(2);
        let a = m.var(Var::new(0));
        let b = m.var(Var::new(0));
        assert_eq!(a, b);
    }

    #[test]
    fn and_or_terminal_laws() {
        let mut m = mgr(1);
        let x = m.var(Var::new(0));
        assert_eq!(m.and(x, BddId::TRUE), x);
        assert_eq!(m.and(x, BddId::FALSE), BddId::FALSE);
        assert_eq!(m.or(x, BddId::FALSE), x);
        assert_eq!(m.or(x, BddId::TRUE), BddId::TRUE);
    }

    #[test]
    fn negation_is_involutive() {
        let mut m = mgr(3);
        let x = m.var(Var::new(0));
        let y = m.var(Var::new(2));
        let f = m.and(x, y);
        let nf = m.not(f);
        assert_ne!(f, nf);
        assert_eq!(m.not(nf), f);
    }

    #[test]
    fn xor_truth_table() {
        let mut m = mgr(2);
        let x = m.var(Var::new(0));
        let y = m.var(Var::new(1));
        let f = m.xor(x, y);
        for bits in 0..4u64 {
            let a = Assignment::from_bits(bits, 2);
            let expect = (bits & 1 == 1) ^ (bits >> 1 & 1 == 1);
            assert_eq!(m.eval(f, &a), expect);
        }
    }

    #[test]
    fn iff_is_not_xor() {
        let mut m = mgr(2);
        let x = m.var(Var::new(0));
        let y = m.var(Var::new(1));
        let f = m.xor(x, y);
        let g = m.iff(x, y);
        assert_eq!(m.not(f), g);
    }

    #[test]
    fn cube_builds_conjunction() {
        let mut m = mgr(3);
        let c = Cube::from_lits([Lit::pos(Var::new(0)), Lit::neg(Var::new(2))]).unwrap();
        let f = m.cube(&c);
        assert!(m.eval(f, &Assignment::from_bits(0b001, 3)));
        assert!(!m.eval(f, &Assignment::from_bits(0b101, 3)));
        assert!(!m.eval(f, &Assignment::from_bits(0b000, 3)));
    }

    #[test]
    fn from_cnf_matches_truth_table() {
        use presat_logic::truth_table;
        let mut cnf = Cnf::new(3);
        cnf.add_clause([Lit::pos(Var::new(0)), Lit::neg(Var::new(1))]);
        cnf.add_clause([Lit::pos(Var::new(1)), Lit::pos(Var::new(2))]);
        let mut m = mgr(3);
        let f = m.from_cnf(&cnf);
        for bits in 0..8u64 {
            let a = Assignment::from_bits(bits, 3);
            assert_eq!(m.eval(f, &a), cnf.eval(&a) == Some(true));
        }
        assert_eq!(truth_table::count_models(&cnf), m.satcount(f, 3) as u64);
    }

    #[test]
    fn ite_equals_composition() {
        let mut m = mgr(3);
        let f = m.var(Var::new(0));
        let g = m.var(Var::new(1));
        let h = m.var(Var::new(2));
        let ite = m.ite(f, g, h);
        // f·g ∨ ¬f·h
        let fg = m.and(f, g);
        let nf = m.not(f);
        let nfh = m.and(nf, h);
        let expect = m.or(fg, nfh);
        assert_eq!(ite, expect);
    }

    #[test]
    fn canonical_equality_detects_tautology() {
        let mut m = mgr(2);
        let x = m.var(Var::new(0));
        let nx = m.not(x);
        assert_eq!(m.or(x, nx), BddId::TRUE);
        assert_eq!(m.and(x, nx), BddId::FALSE);
    }

    #[test]
    fn gc_preserves_roots_and_shrinks() {
        let mut m = mgr(4);
        let mut keep = BddId::TRUE;
        for i in 0..4 {
            let v = m.var(Var::new(i));
            keep = m.and(keep, v);
        }
        // Build garbage.
        for i in 0..4 {
            let v = m.var(Var::new(i));
            let n = m.not(v);
            let _ = m.xor(v, n);
        }
        let before = m.node_count();
        let roots = m.gc(&[keep]);
        assert!(m.node_count() < before);
        // Remapped root still the AND of all vars.
        assert!(m.eval(roots[0], &Assignment::from_bits(0b1111, 4)));
        assert!(!m.eval(roots[0], &Assignment::from_bits(0b0111, 4)));
    }
}
