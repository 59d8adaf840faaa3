//! Tseitin encoding of AIG cones into CNF.

use presat_logic::{Cnf, Lit, Var};

use crate::aig::{Aig, AigNodeId, AigRef};

/// An incremental Tseitin encoder.
///
/// The caller chooses which CNF variable represents each AIG *leaf* (this is
/// how the preimage engine lays out present-state, input, and next-state
/// variable blocks); internal AND gates receive fresh variables on demand.
/// Only the cone of the requested roots is encoded — untouched logic costs
/// nothing.
///
/// # Examples
///
/// ```
/// use presat_circuit::{Aig, Tseitin};
/// use presat_logic::{Var, truth_table};
///
/// let mut g = Aig::new();
/// let a = g.add_leaf();
/// let b = g.add_leaf();
/// let f = g.xor(a, b);
///
/// let leaf_vars = vec![Var::new(0), Var::new(1)];
/// let mut enc = Tseitin::new(&g, leaf_vars);
/// let f_lit = enc.lit_of(f);
/// let mut cnf = enc.into_cnf();
/// cnf.add_unit(f_lit);                  // assert xor(a,b) = 1
/// assert_eq!(truth_table::count_models(&cnf), 2);
/// ```
#[derive(Debug)]
pub struct Tseitin<'a> {
    aig: &'a Aig,
    cnf: Cnf,
    node_lit: Vec<Option<Lit>>,
    const_lit: Option<Lit>,
}

impl<'a> Tseitin<'a> {
    /// Creates an encoder mapping leaf `i` of `aig` to `leaf_vars[i]`.
    /// The CNF variable space starts just past the largest leaf variable.
    ///
    /// # Panics
    ///
    /// Panics if `leaf_vars` is shorter than the AIG's leaf count.
    pub fn new(aig: &'a Aig, leaf_vars: Vec<Var>) -> Self {
        assert!(
            leaf_vars.len() >= aig.leaf_count(),
            "need a CNF variable for every AIG leaf"
        );
        let num_vars = leaf_vars.iter().map(|v| v.index() + 1).max().unwrap_or(0);
        Self::with_base_cnf(aig, leaf_vars, Cnf::new(num_vars))
    }

    /// Like [`Tseitin::new`] but extends an existing CNF (whose variable
    /// space must already cover the leaf variables).
    pub fn with_base_cnf(aig: &'a Aig, leaf_vars: Vec<Var>, mut cnf: Cnf) -> Self {
        assert!(leaf_vars.len() >= aig.leaf_count());
        let need = leaf_vars.iter().map(|v| v.index() + 1).max().unwrap_or(0);
        cnf.ensure_vars(need);
        let mut node_lit = vec![None; aig.node_count()];
        // Pre-seed the leaves.
        for (i, &lv) in leaf_vars.iter().enumerate().take(aig.leaf_count()) {
            let node = aig.leaf(i).node();
            node_lit[node.index()] = Some(Lit::pos(lv));
        }
        Tseitin {
            aig,
            cnf,
            node_lit,
            const_lit: None,
        }
    }

    /// The CNF literal equal to the function of `r`, encoding `r`'s cone
    /// into the CNF if not yet done.
    pub fn lit_of(&mut self, r: AigRef) -> Lit {
        let node_lit = self.encode_node(r.node());
        if r.is_complemented() {
            !node_lit
        } else {
            node_lit
        }
    }

    fn const_true_lit(&mut self) -> Lit {
        if let Some(l) = self.const_lit {
            return l;
        }
        let v = self.cnf.fresh_var();
        let l = Lit::pos(v);
        self.cnf.add_unit(l);
        self.const_lit = Some(l);
        l
    }

    /// Encodes `node` (iteratively, post-order) and returns its literal.
    fn encode_node(&mut self, node: AigNodeId) -> Lit {
        if let Some(l) = self.node_lit[node.index()] {
            return l;
        }
        if self.aig.is_const_node(node) {
            // Constant node function is FALSE (uncomplemented edge).
            let t = self.const_true_lit();
            let l = !t;
            self.node_lit[node.index()] = Some(l);
            return l;
        }
        // Iterative post-order over AND gates to bound stack depth.
        let mut stack: Vec<AigNodeId> = vec![node];
        while let Some(&top) = stack.last() {
            if self.node_lit[top.index()].is_some() {
                stack.pop();
                continue;
            }
            let (a, b) = self
                .aig
                .and_fanins(top)
                .expect("unencoded node that is neither leaf nor const must be an AND");
            // Constants can appear as fanins; encode them eagerly.
            for fanin in [a, b] {
                let n = fanin.node();
                if self.node_lit[n.index()].is_none() && self.aig.is_const_node(n) {
                    let t = self.const_true_lit();
                    self.node_lit[n.index()] = Some(!t);
                }
            }
            let la = self.node_lit[a.node().index()];
            let lb = self.node_lit[b.node().index()];
            match (la, lb) {
                (Some(la), Some(lb)) => {
                    stack.pop();
                    let la = if a.is_complemented() { !la } else { la };
                    let lb = if b.is_complemented() { !lb } else { lb };
                    let z = Lit::pos(self.cnf.fresh_var());
                    // z ↔ la ∧ lb
                    self.cnf.add_clause([!z, la]);
                    self.cnf.add_clause([!z, lb]);
                    self.cnf.add_clause([z, !la, !lb]);
                    self.node_lit[top.index()] = Some(z);
                }
                _ => {
                    if la.is_none() {
                        stack.push(a.node());
                    }
                    if lb.is_none() {
                        stack.push(b.node());
                    }
                }
            }
        }
        self.node_lit[node.index()].expect("just encoded")
    }

    /// The CNF built so far.
    pub fn cnf(&self) -> &Cnf {
        &self.cnf
    }

    /// Consumes the encoder, returning the CNF.
    pub fn into_cnf(self) -> Cnf {
        self.cnf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presat_logic::{truth_table, Assignment};

    /// Exhaustively checks that asserting `root = 1` in the encoding yields
    /// exactly the leaf assignments where the AIG evaluates to 1.
    fn check_encoding(aig: &Aig, root: AigRef) {
        let n = aig.leaf_count();
        let leaf_vars: Vec<Var> = Var::range(n).collect();
        let mut enc = Tseitin::new(aig, leaf_vars.clone());
        let rl = enc.lit_of(root);
        let mut cnf = enc.into_cnf();
        cnf.add_unit(rl);
        let projected = truth_table::project_models_set(&cnf, &leaf_vars);
        for bits in 0..(1u64 << n) {
            let a = Assignment::from_bits(bits, n);
            let words: Vec<u64> = (0..n).map(|i| (bits >> i) & 1).collect();
            let expect = aig.eval64(root, &words) & 1 == 1;
            assert_eq!(
                projected.contains_minterm(&a),
                expect,
                "divergence at bits {bits:b}"
            );
        }
    }

    #[test]
    fn encodes_single_and() {
        let mut g = Aig::new();
        let a = g.add_leaf();
        let b = g.add_leaf();
        let f = g.and(a, b);
        check_encoding(&g, f);
    }

    #[test]
    fn encodes_complemented_root() {
        let mut g = Aig::new();
        let a = g.add_leaf();
        let b = g.add_leaf();
        let f = g.and(a, b);
        check_encoding(&g, !f);
    }

    #[test]
    fn encodes_xor_tree() {
        let mut g = Aig::new();
        let leaves: Vec<AigRef> = (0..4).map(|_| g.add_leaf()).collect();
        let f = g.xor_many(&leaves);
        check_encoding(&g, f);
    }

    #[test]
    fn encodes_mux_nest() {
        let mut g = Aig::new();
        let s = g.add_leaf();
        let t = g.add_leaf();
        let e = g.add_leaf();
        let m1 = g.mux(s, t, e);
        let m2 = g.mux(t, m1, s);
        check_encoding(&g, m2);
    }

    #[test]
    fn constant_roots() {
        let mut g = Aig::new();
        let _ = g.add_leaf();
        let leaf_vars: Vec<Var> = Var::range(1).collect();
        let mut enc = Tseitin::new(&g, leaf_vars);
        let t = enc.lit_of(AigRef::TRUE);
        let f = enc.lit_of(AigRef::FALSE);
        assert_eq!(t, !f);
        let mut cnf = enc.into_cnf();
        cnf.add_unit(t);
        assert!(truth_table::is_satisfiable(&cnf));
        let mut cnf2 = cnf.clone();
        cnf2.add_unit(f);
        assert!(!truth_table::is_satisfiable(&cnf2));
    }

    #[test]
    fn shared_cone_encoded_once() {
        let mut g = Aig::new();
        let a = g.add_leaf();
        let b = g.add_leaf();
        let ab = g.and(a, b);
        let f = g.or(ab, a);
        let h = g.xor(ab, b);
        let leaf_vars: Vec<Var> = Var::range(2).collect();
        let mut enc = Tseitin::new(&g, leaf_vars);
        let _ = enc.lit_of(f);
        let clauses_after_f = enc.cnf().num_clauses();
        let _ = enc.lit_of(f);
        assert_eq!(enc.cnf().num_clauses(), clauses_after_f, "no re-encoding");
        let _ = enc.lit_of(h);
        assert!(enc.cnf().num_clauses() > clauses_after_f);
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        let mut g = Aig::new();
        let a = g.add_leaf();
        let b = g.add_leaf();
        let mut f = a;
        for _ in 0..200_000 {
            f = g.xor(f, b);
        }
        let leaf_vars: Vec<Var> = Var::range(2).collect();
        let mut enc = Tseitin::new(&g, leaf_vars);
        let _ = enc.lit_of(f); // must not smash the stack
    }

    #[test]
    fn custom_leaf_layout_respected() {
        let mut g = Aig::new();
        let a = g.add_leaf();
        let b = g.add_leaf();
        let f = g.and(a, b);
        // Map leaves to non-contiguous variables 5 and 3.
        let mut enc = Tseitin::new(&g, vec![Var::new(5), Var::new(3)]);
        let la = enc.lit_of(a);
        let lb = enc.lit_of(b);
        assert_eq!(la, Lit::pos(Var::new(5)));
        assert_eq!(lb, Lit::pos(Var::new(3)));
        let rl = enc.lit_of(f);
        let mut cnf = enc.into_cnf();
        cnf.add_unit(rl);
        // Fresh internal var must be ≥ 6.
        assert!(cnf.num_vars() >= 7);
        assert!(truth_table::is_satisfiable(&cnf));
    }
}
