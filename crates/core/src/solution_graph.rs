//! The shared solution graph: the compact output representation of the
//! success-driven solver.
//!
//! A solution graph is a reduced, ordered decision DAG over the *branching
//! positions* `0..k` of the important variables (position, not `Var` index:
//! the graph is agnostic of the CNF's variable numbering). Structurally it
//! is an ROBDD over those positions — hash-consed nodes `(level, lo, hi)`
//! with terminals ⊥/⊤ — but it is built *bottom-up by the enumeration
//! search* rather than by Boolean operations, which is exactly what the
//! paper's success-driven learning produces: fully-explored subspaces become
//! shared subgraphs.

use std::collections::HashMap;
use std::fmt;

use presat_logic::{Cube, CubeSet, Lit, Var};

/// Handle to a node of a [`SolutionGraph`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SolutionNodeId(u32);

impl SolutionNodeId {
    /// The empty-set terminal.
    pub const BOTTOM: SolutionNodeId = SolutionNodeId(0);
    /// The full-subspace terminal.
    pub const TOP: SolutionNodeId = SolutionNodeId(1);

    /// `true` for either terminal.
    pub fn is_terminal(self) -> bool {
        self.0 <= 1
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Clone, Copy, Debug)]
struct GraphNode {
    level: u32,
    lo: SolutionNodeId,
    hi: SolutionNodeId,
}

/// A reduced ordered decision DAG over branching positions `0..k`,
/// representing a set of assignments to the important variables.
///
/// # Examples
///
/// ```
/// use presat_allsat::{SolutionGraph, SolutionNodeId};
///
/// let mut g = SolutionGraph::new(2);
/// // the set {00, 11}: level-1 nodes then a level-0 node
/// let only0 = g.mk(1, SolutionNodeId::TOP, SolutionNodeId::BOTTOM);
/// let only1 = g.mk(1, SolutionNodeId::BOTTOM, SolutionNodeId::TOP);
/// let root = g.mk(0, only0, only1);
/// assert_eq!(g.minterm_count(root), 2);
/// ```
#[derive(Clone, Debug)]
pub struct SolutionGraph {
    nodes: Vec<GraphNode>,
    unique: HashMap<(u32, SolutionNodeId, SolutionNodeId), SolutionNodeId>,
    num_levels: usize,
}

impl SolutionGraph {
    /// Creates an empty graph over `num_levels` branching positions.
    pub fn new(num_levels: usize) -> Self {
        SolutionGraph {
            nodes: vec![
                GraphNode {
                    level: u32::MAX,
                    lo: SolutionNodeId::BOTTOM,
                    hi: SolutionNodeId::BOTTOM,
                },
                GraphNode {
                    level: u32::MAX,
                    lo: SolutionNodeId::TOP,
                    hi: SolutionNodeId::TOP,
                },
            ],
            unique: HashMap::new(),
            num_levels,
        }
    }

    /// Number of branching positions.
    pub fn num_levels(&self) -> usize {
        self.num_levels
    }

    /// Total number of nodes ever created (including the two terminals) —
    /// the memory metric reported against blocking-clause counts.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of nodes reachable from `root` (including terminals).
    pub fn reachable_count(&self, root: SolutionNodeId) -> usize {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![root];
        let mut count = 0;
        while let Some(n) = stack.pop() {
            if seen[n.index()] {
                continue;
            }
            seen[n.index()] = true;
            count += 1;
            if !n.is_terminal() {
                stack.push(self.nodes[n.index()].lo);
                stack.push(self.nodes[n.index()].hi);
            }
        }
        count
    }

    /// Find-or-create a node (with the BDD reduction rule `lo == hi`).
    ///
    /// # Panics
    ///
    /// Panics if `level` is outside the graph or the children's levels are
    /// not strictly below `level`.
    pub fn mk(&mut self, level: usize, lo: SolutionNodeId, hi: SolutionNodeId) -> SolutionNodeId {
        assert!(level < self.num_levels, "level outside graph");
        let lvl = level as u32;
        assert!(
            lvl < self.level_of(lo) && lvl < self.level_of(hi),
            "solution graph ordering violated"
        );
        if lo == hi {
            return lo;
        }
        if let Some(&id) = self.unique.get(&(lvl, lo, hi)) {
            return id;
        }
        let id = SolutionNodeId(u32::try_from(self.nodes.len()).expect("graph overflow"));
        self.nodes.push(GraphNode { level: lvl, lo, hi });
        self.unique.insert((lvl, lo, hi), id);
        id
    }

    fn level_of(&self, n: SolutionNodeId) -> u32 {
        self.nodes[n.index()].level
    }

    /// Exact number of important-variable minterms represented by `root`
    /// (over all `num_levels` positions), saturating at `u128::MAX`: a
    /// graph over 128 or more positions can hold more. Test emptiness by
    /// `root == SolutionNodeId::BOTTOM`, not by this count.
    pub fn minterm_count(&self, root: SolutionNodeId) -> u128 {
        self.minterm_count_from(root, 0)
    }

    /// Exact number of minterms represented by `root` counted over the
    /// suffix positions `from..num_levels` only. `root` must sit at level
    /// `>= from` (every node created at depth `from` does). The enumeration
    /// search uses this to account reused subgraphs against a
    /// solution-count cap without re-walking them. Saturates at
    /// `u128::MAX`, like [`Self::minterm_count`].
    pub fn minterm_count_from(&self, root: SolutionNodeId, from: u32) -> u128 {
        let mut memo: HashMap<SolutionNodeId, u128> = HashMap::new();
        self.count_rec(root, from, &mut memo)
    }

    fn count_rec(
        &self,
        n: SolutionNodeId,
        from: u32,
        memo: &mut HashMap<SolutionNodeId, u128>,
    ) -> u128 {
        if n == SolutionNodeId::BOTTOM {
            return 0;
        }
        let level = if n == SolutionNodeId::TOP {
            self.num_levels as u32
        } else {
            self.level_of(n)
        };
        let below = if n == SolutionNodeId::TOP {
            1
        } else if let Some(&c) = memo.get(&n) {
            c
        } else {
            let node = self.nodes[n.index()];
            let c = self
                .count_rec(node.lo, node.level + 1, memo)
                .saturating_add(self.count_rec(node.hi, node.level + 1, memo));
            memo.insert(n, c);
            c
        };
        // Each skipped level doubles the count (`below` is at least 1);
        // shift only when no set bit is lost.
        let shift = level - from;
        if shift <= below.leading_zeros() {
            below << shift
        } else {
            u128::MAX
        }
    }

    /// `true` if the total position assignment `bits` (bit *i* = value at
    /// level *i*) is in the set.
    pub fn contains_bits(&self, root: SolutionNodeId, bits: u64) -> bool {
        let mut cur = root;
        while !cur.is_terminal() {
            let node = self.nodes[cur.index()];
            cur = if bits >> node.level & 1 == 1 {
                node.hi
            } else {
                node.lo
            };
        }
        cur == SolutionNodeId::TOP
    }

    /// Extracts the set as cubes over the given important variables
    /// (`vars[i]` is the variable at level *i*). One cube per ⊤-path;
    /// levels skipped on a path are left free. Distinct ⊤-paths disagree
    /// on the branch variable of their lowest common node, so the cubes
    /// are pairwise disjoint and bypass the store's absorption scans.
    ///
    /// # Panics
    ///
    /// Panics if `vars.len() != num_levels`.
    pub fn to_cube_set(&self, root: SolutionNodeId, vars: &[Var]) -> CubeSet {
        assert_eq!(vars.len(), self.num_levels, "variable list length mismatch");
        let mut out = CubeSet::new();
        let mut path: Vec<Lit> = Vec::new();
        self.paths_rec(root, vars, &mut path, &mut out);
        out
    }

    /// Number of ⊤-paths from `root` — i.e. how many cubes
    /// [`Self::to_cube_set`] would produce, without materialising them —
    /// saturating at `u64::MAX`. The daemon reports this per live session
    /// as the accumulated result-set cube count.
    pub fn cube_count(&self, root: SolutionNodeId) -> u64 {
        let mut memo: HashMap<SolutionNodeId, u64> = HashMap::new();
        self.cube_count_rec(root, &mut memo)
    }

    fn cube_count_rec(&self, n: SolutionNodeId, memo: &mut HashMap<SolutionNodeId, u64>) -> u64 {
        if n == SolutionNodeId::BOTTOM {
            return 0;
        }
        if n == SolutionNodeId::TOP {
            return 1;
        }
        if let Some(&c) = memo.get(&n) {
            return c;
        }
        let node = self.nodes[n.index()];
        let c = self
            .cube_count_rec(node.lo, memo)
            .saturating_add(self.cube_count_rec(node.hi, memo));
        memo.insert(n, c);
        c
    }

    fn paths_rec(&self, n: SolutionNodeId, vars: &[Var], path: &mut Vec<Lit>, out: &mut CubeSet) {
        if n == SolutionNodeId::BOTTOM {
            return;
        }
        if n == SolutionNodeId::TOP {
            out.push_disjoint(
                Cube::from_lits(path.iter().copied()).expect("distinct path literals"),
            );
            return;
        }
        let node = self.nodes[n.index()];
        let v = vars[node.level as usize];
        path.push(Lit::neg(v));
        self.paths_rec(node.lo, vars, path, out);
        path.pop();
        path.push(Lit::pos(v));
        self.paths_rec(node.hi, vars, path, out);
        path.pop();
    }

    /// Builds a graph from a cube set (used in tests and for converting
    /// baseline-engine output into the graph representation for size
    /// comparisons). `vars[i]` is the variable at level *i*.
    ///
    /// # Panics
    ///
    /// Panics if a cube mentions a variable not in `vars`.
    pub fn from_cube_set(set: &CubeSet, vars: &[Var]) -> (SolutionGraph, SolutionNodeId) {
        let mut g = SolutionGraph::new(vars.len());
        let root = g.add_cube_set(set, vars);
        (g, root)
    }

    /// Adds a cube set into an existing graph and returns the node of its
    /// union. `vars[i]` is the variable at level *i*.
    ///
    /// # Panics
    ///
    /// Panics if a cube mentions a variable not in `vars` or
    /// `vars.len() != num_levels`.
    pub fn add_cube_set(&mut self, set: &CubeSet, vars: &[Var]) -> SolutionNodeId {
        assert_eq!(vars.len(), self.num_levels, "variable list length mismatch");
        let position: HashMap<Var, usize> = vars.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let mut root = SolutionNodeId::BOTTOM;
        for cube in set {
            let mut node = SolutionNodeId::TOP;
            // Build the cube bottom-up in descending level order.
            let mut lits: Vec<(usize, bool)> = cube
                .lits()
                .iter()
                .map(|l| {
                    (
                        *position
                            .get(&l.var())
                            .unwrap_or_else(|| panic!("cube variable {} not a level", l.var())),
                        l.phase(),
                    )
                })
                .collect();
            lits.sort_unstable_by_key(|&(level, _)| std::cmp::Reverse(level));
            for (level, phase) in lits {
                node = if phase {
                    self.mk(level, SolutionNodeId::BOTTOM, node)
                } else {
                    self.mk(level, node, SolutionNodeId::BOTTOM)
                };
            }
            root = self.union(root, node);
        }
        root
    }

    /// Copies the subgraph rooted at `root` in `other` into this graph,
    /// returning the corresponding node here. Hash-consing canonicalises
    /// the copy: shared substructure in `other` stays shared, and nodes
    /// already present in this graph (from earlier imports) are reused
    /// rather than duplicated. The parallel enumeration engine merges its
    /// per-worker graphs with this, importing in partition-cube order so
    /// the merged graph is independent of worker scheduling.
    ///
    /// # Panics
    ///
    /// Panics if the two graphs have different level counts.
    pub fn import(&mut self, other: &SolutionGraph, root: SolutionNodeId) -> SolutionNodeId {
        assert_eq!(
            other.num_levels, self.num_levels,
            "graph level count mismatch"
        );
        let mut memo: HashMap<SolutionNodeId, SolutionNodeId> = HashMap::new();
        self.import_rec(other, root, &mut memo)
    }

    fn import_rec(
        &mut self,
        other: &SolutionGraph,
        n: SolutionNodeId,
        memo: &mut HashMap<SolutionNodeId, SolutionNodeId>,
    ) -> SolutionNodeId {
        if n.is_terminal() {
            return n;
        }
        if let Some(&r) = memo.get(&n) {
            return r;
        }
        let node = other.nodes[n.index()];
        let lo = self.import_rec(other, node.lo, memo);
        let hi = self.import_rec(other, node.hi, memo);
        let r = self.mk(node.level as usize, lo, hi);
        memo.insert(n, r);
        r
    }

    /// Set union of two nodes (standard recursive apply).
    pub fn union(&mut self, a: SolutionNodeId, b: SolutionNodeId) -> SolutionNodeId {
        let mut memo = HashMap::new();
        self.union_rec(a, b, &mut memo)
    }

    fn union_rec(
        &mut self,
        a: SolutionNodeId,
        b: SolutionNodeId,
        memo: &mut HashMap<(SolutionNodeId, SolutionNodeId), SolutionNodeId>,
    ) -> SolutionNodeId {
        if a == SolutionNodeId::TOP || b == SolutionNodeId::TOP {
            return SolutionNodeId::TOP;
        }
        if a == SolutionNodeId::BOTTOM {
            return b;
        }
        if b == SolutionNodeId::BOTTOM || a == b {
            return a;
        }
        let key = if a.0 <= b.0 { (a, b) } else { (b, a) };
        if let Some(&r) = memo.get(&key) {
            return r;
        }
        let top = self.level_of(a).min(self.level_of(b));
        let (a0, a1) = self.children_at(a, top);
        let (b0, b1) = self.children_at(b, top);
        let lo = self.union_rec(a0, b0, memo);
        let hi = self.union_rec(a1, b1, memo);
        let r = self.mk(top as usize, lo, hi);
        memo.insert(key, r);
        r
    }

    fn children_at(&self, n: SolutionNodeId, level: u32) -> (SolutionNodeId, SolutionNodeId) {
        if !n.is_terminal() && self.level_of(n) == level {
            let node = self.nodes[n.index()];
            (node.lo, node.hi)
        } else {
            (n, n)
        }
    }

    /// Set intersection of two nodes.
    pub fn intersect(&mut self, a: SolutionNodeId, b: SolutionNodeId) -> SolutionNodeId {
        let mut memo = HashMap::new();
        self.intersect_rec(a, b, &mut memo)
    }

    fn intersect_rec(
        &mut self,
        a: SolutionNodeId,
        b: SolutionNodeId,
        memo: &mut HashMap<(SolutionNodeId, SolutionNodeId), SolutionNodeId>,
    ) -> SolutionNodeId {
        if a == SolutionNodeId::BOTTOM || b == SolutionNodeId::BOTTOM {
            return SolutionNodeId::BOTTOM;
        }
        if a == SolutionNodeId::TOP {
            return b;
        }
        if b == SolutionNodeId::TOP || a == b {
            return a;
        }
        let key = if a.0 <= b.0 { (a, b) } else { (b, a) };
        if let Some(&r) = memo.get(&key) {
            return r;
        }
        let top = self.level_of(a).min(self.level_of(b));
        let (a0, a1) = self.children_at(a, top);
        let (b0, b1) = self.children_at(b, top);
        let lo = self.intersect_rec(a0, b0, memo);
        let hi = self.intersect_rec(a1, b1, memo);
        let r = self.mk(top as usize, lo, hi);
        memo.insert(key, r);
        r
    }

    /// Set difference `a \ b`.
    pub fn diff(&mut self, a: SolutionNodeId, b: SolutionNodeId) -> SolutionNodeId {
        let mut memo = HashMap::new();
        self.diff_rec(a, b, &mut memo)
    }

    fn diff_rec(
        &mut self,
        a: SolutionNodeId,
        b: SolutionNodeId,
        memo: &mut HashMap<(SolutionNodeId, SolutionNodeId), SolutionNodeId>,
    ) -> SolutionNodeId {
        if a == SolutionNodeId::BOTTOM || b == SolutionNodeId::TOP || a == b {
            return SolutionNodeId::BOTTOM;
        }
        if b == SolutionNodeId::BOTTOM {
            return a;
        }
        if let Some(&r) = memo.get(&(a, b)) {
            return r;
        }
        let top = if a == SolutionNodeId::TOP {
            self.level_of(b)
        } else if b == SolutionNodeId::TOP {
            self.level_of(a)
        } else {
            self.level_of(a).min(self.level_of(b))
        };
        let (a0, a1) = self.children_at(a, top);
        let (b0, b1) = self.children_at(b, top);
        let lo = self.diff_rec(a0, b0, memo);
        let hi = self.diff_rec(a1, b1, memo);
        let r = self.mk(top as usize, lo, hi);
        memo.insert((a, b), r);
        r
    }
}

impl SolutionGraph {
    /// Renders the DAG rooted at `root` in Graphviz DOT syntax (dashed
    /// edges = low branch), labelling levels with `vars` when provided.
    ///
    /// # Panics
    ///
    /// Panics if `vars` is provided with the wrong length.
    pub fn to_dot(&self, root: SolutionNodeId, vars: Option<&[Var]>, name: &str) -> String {
        use fmt::Write;
        if let Some(vars) = vars {
            assert_eq!(vars.len(), self.num_levels, "variable list length mismatch");
        }
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{name}\" {{");
        let _ = writeln!(out, "  bot [shape=box,label=\"⊥\"];");
        let _ = writeln!(out, "  top [shape=box,label=\"⊤\"];");
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            if n.is_terminal() || !seen.insert(n) {
                continue;
            }
            let node = self.nodes[n.index()];
            let label = match vars {
                Some(vars) => vars[node.level as usize].to_string(),
                None => format!("L{}", node.level),
            };
            let _ = writeln!(out, "  n{} [label=\"{label}\"];", n.index());
            let child = |c: SolutionNodeId| match c {
                SolutionNodeId::BOTTOM => "bot".to_string(),
                SolutionNodeId::TOP => "top".to_string(),
                other => format!("n{}", other.index()),
            };
            let _ = writeln!(
                out,
                "  n{} -> {} [style=dashed];",
                n.index(),
                child(node.lo)
            );
            let _ = writeln!(out, "  n{} -> {};", n.index(), child(node.hi));
            stack.push(node.lo);
            stack.push(node.hi);
        }
        let _ = writeln!(out, "}}");
        out
    }
}

impl fmt::Display for SolutionGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SolutionGraph({} levels, {} nodes)",
            self.num_levels,
            self.nodes.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube(lits: &[(usize, bool)]) -> Cube {
        Cube::from_lits(lits.iter().map(|&(v, p)| Lit::with_phase(Var::new(v), p))).unwrap()
    }

    #[test]
    fn terminals_count() {
        let g = SolutionGraph::new(3);
        assert_eq!(g.minterm_count(SolutionNodeId::TOP), 8);
        assert_eq!(g.minterm_count(SolutionNodeId::BOTTOM), 0);
    }

    #[test]
    fn counts_saturate_past_128_positions() {
        use SolutionNodeId as N;
        // {x0 = x1} over 129 positions holds 2^128 states, one more than
        // u128 holds.
        let mut g = SolutionGraph::new(129);
        let x1_off = g.mk(1, N::TOP, N::BOTTOM);
        let x1_on = g.mk(1, N::BOTTOM, N::TOP);
        let equal = g.mk(0, x1_off, x1_on);
        assert_eq!(g.minterm_count(equal), u128::MAX);
        assert_eq!(g.minterm_count_from(x1_off, 1), 1 << 127);
        assert_eq!(g.cube_count(equal), 2);
        // ⊤ over 130 positions holds 2^130 states.
        let wide = SolutionGraph::new(130);
        assert_eq!(wide.minterm_count(N::TOP), u128::MAX);
        assert_eq!(wide.minterm_count_from(N::TOP, 3), 1 << 127);
        // Odd parity over 66 positions: 2^65 paths, more than u64 holds.
        let k = 66;
        let mut g = SolutionGraph::new(k);
        let (mut even, mut odd) = (N::TOP, N::BOTTOM);
        for level in (0..k).rev() {
            (even, odd) = (g.mk(level, even, odd), g.mk(level, odd, even));
        }
        assert_eq!(g.minterm_count(odd), 1 << 65);
        assert_eq!(g.cube_count(odd), u64::MAX);
    }

    #[test]
    fn mk_reduces_equal_children() {
        let mut g = SolutionGraph::new(1);
        assert_eq!(
            g.mk(0, SolutionNodeId::TOP, SolutionNodeId::TOP),
            SolutionNodeId::TOP
        );
    }

    #[test]
    fn mk_hash_conses() {
        let mut g = SolutionGraph::new(1);
        let a = g.mk(0, SolutionNodeId::TOP, SolutionNodeId::BOTTOM);
        let b = g.mk(0, SolutionNodeId::TOP, SolutionNodeId::BOTTOM);
        assert_eq!(a, b);
        assert_eq!(g.node_count(), 3);
    }

    #[test]
    #[should_panic(expected = "ordering violated")]
    fn mk_rejects_misordered_children() {
        let mut g = SolutionGraph::new(2);
        let low = g.mk(1, SolutionNodeId::TOP, SolutionNodeId::BOTTOM);
        let upper = g.mk(0, low, SolutionNodeId::BOTTOM);
        // level 1 node with a level-0 child: must panic
        let _ = g.mk(1, upper, SolutionNodeId::BOTTOM);
    }

    #[test]
    fn contains_and_count_agree() {
        let mut g = SolutionGraph::new(3);
        // set = {bits : bit1 == 1}
        let n = g.mk(1, SolutionNodeId::BOTTOM, SolutionNodeId::TOP);
        assert_eq!(g.minterm_count(n), 4);
        let members = (0..8u64).filter(|&b| g.contains_bits(n, b)).count();
        assert_eq!(members, 4);
        for b in 0..8u64 {
            assert_eq!(g.contains_bits(n, b), b >> 1 & 1 == 1);
        }
    }

    #[test]
    fn cube_set_round_trip() {
        let vars: Vec<Var> = Var::range(4).collect();
        let mut set = CubeSet::new();
        set.insert(cube(&[(0, true), (2, false)]));
        set.insert(cube(&[(1, false)]));
        set.insert(cube(&[(3, true)]));
        let (g, root) = SolutionGraph::from_cube_set(&set, &vars);
        assert_eq!(g.minterm_count(root), set.minterm_count(4));
        let back = g.to_cube_set(root, &vars);
        assert!(back.semantically_eq(&set, &vars));
    }

    #[test]
    fn union_is_set_union() {
        let vars: Vec<Var> = Var::range(3).collect();
        let mut a_set = CubeSet::new();
        a_set.insert(cube(&[(0, true)]));
        let mut b_set = CubeSet::new();
        b_set.insert(cube(&[(1, true)]));
        let (mut g, a) = SolutionGraph::from_cube_set(&a_set, &vars);
        // Rebuild b in the same graph.
        let bn = g.mk(1, SolutionNodeId::BOTTOM, SolutionNodeId::TOP);
        let u = g.union(a, bn);
        assert_eq!(g.minterm_count(u), 6); // |x0 ∨ x1| over 3 vars
    }

    #[test]
    fn sharing_beats_cube_explosion() {
        // Odd-parity set over 8 levels: 128 minterm cubes, but a linear
        // number of graph nodes.
        let n = 8;
        let vars: Vec<Var> = Var::range(n).collect();
        let mut set = CubeSet::new();
        for bits in 0..(1u64 << n) {
            if bits.count_ones() % 2 == 1 {
                set.insert(cube(
                    &(0..n).map(|i| (i, bits >> i & 1 == 1)).collect::<Vec<_>>(),
                ));
            }
        }
        assert_eq!(set.len(), 128);
        let (g, root) = SolutionGraph::from_cube_set(&set, &vars);
        assert_eq!(g.minterm_count(root), 128);
        // Parity has 2 nodes per level plus terminals.
        assert!(
            g.reachable_count(root) <= 2 * n + 2,
            "parity graph should be linear, got {}",
            g.reachable_count(root)
        );
    }

    #[test]
    fn intersect_and_diff_match_set_semantics() {
        let n = 4;
        let vars: Vec<Var> = Var::range(n).collect();
        // A = {bits : bit0 = 1}, B = {bits : parity odd}
        let mut a_set = CubeSet::new();
        a_set.insert(cube(&[(0, true)]));
        let mut b_set = CubeSet::new();
        for bits in 0..(1u64 << n) {
            if bits.count_ones() % 2 == 1 {
                b_set.insert(cube(
                    &(0..n).map(|i| (i, bits >> i & 1 == 1)).collect::<Vec<_>>(),
                ));
            }
        }
        let (mut g, a) = SolutionGraph::from_cube_set(&a_set, &vars);
        let b = {
            // Rebuild B inside the same graph.
            let (gb, rb) = SolutionGraph::from_cube_set(&b_set, &vars);
            let cubes = gb.to_cube_set(rb, &vars);
            let mut node = SolutionNodeId::BOTTOM;
            for c in &cubes {
                let mut leaf = SolutionNodeId::TOP;
                let mut lits: Vec<(usize, bool)> = c
                    .lits()
                    .iter()
                    .map(|l| (l.var().index(), l.phase()))
                    .collect();
                lits.sort_unstable_by_key(|&(level, _)| std::cmp::Reverse(level));
                for (lvl, ph) in lits {
                    leaf = if ph {
                        g.mk(lvl, SolutionNodeId::BOTTOM, leaf)
                    } else {
                        g.mk(lvl, leaf, SolutionNodeId::BOTTOM)
                    };
                }
                node = g.union(node, leaf);
            }
            node
        };
        let inter = g.intersect(a, b);
        let diff = g.diff(a, b);
        for bits in 0..(1u64 << n) {
            let in_a = g.contains_bits(a, bits);
            let in_b = g.contains_bits(b, bits);
            assert_eq!(g.contains_bits(inter, bits), in_a && in_b, "bits {bits}");
            assert_eq!(g.contains_bits(diff, bits), in_a && !in_b, "bits {bits}");
        }
        // |A| = 8, |A∩B| + |A\B| = |A|
        assert_eq!(g.minterm_count(inter) + g.minterm_count(diff), 8);
    }

    #[test]
    fn import_preserves_function_and_sharing() {
        let n = 6;
        let vars: Vec<Var> = Var::range(n).collect();
        // Odd parity: maximal sharing, so the import memo is exercised.
        let mut set = CubeSet::new();
        for bits in 0..(1u64 << n) {
            if bits.count_ones() % 2 == 1 {
                set.insert(cube(
                    &(0..n).map(|i| (i, bits >> i & 1 == 1)).collect::<Vec<_>>(),
                ));
            }
        }
        let (src, src_root) = SolutionGraph::from_cube_set(&set, &vars);
        let mut dst = SolutionGraph::new(n);
        let dst_root = dst.import(&src, src_root);
        for bits in 0..(1u64 << n) {
            assert_eq!(
                dst.contains_bits(dst_root, bits),
                src.contains_bits(src_root, bits),
                "bits {bits:b}"
            );
        }
        assert_eq!(
            dst.reachable_count(dst_root),
            src.reachable_count(src_root),
            "import must preserve sharing"
        );
        // Importing again is a no-op thanks to hash-consing.
        let nodes_before = dst.node_count();
        assert_eq!(dst.import(&src, src_root), dst_root);
        assert_eq!(dst.node_count(), nodes_before);
    }

    #[test]
    fn import_terminals_are_identity() {
        let src = SolutionGraph::new(2);
        let mut dst = SolutionGraph::new(2);
        assert_eq!(dst.import(&src, SolutionNodeId::TOP), SolutionNodeId::TOP);
        assert_eq!(
            dst.import(&src, SolutionNodeId::BOTTOM),
            SolutionNodeId::BOTTOM
        );
    }

    #[test]
    fn diff_with_terminals() {
        let mut g = SolutionGraph::new(2);
        let a = g.mk(0, SolutionNodeId::BOTTOM, SolutionNodeId::TOP);
        assert_eq!(g.diff(a, SolutionNodeId::TOP), SolutionNodeId::BOTTOM);
        assert_eq!(g.diff(a, SolutionNodeId::BOTTOM), a);
        let complement = g.diff(SolutionNodeId::TOP, a);
        assert_eq!(g.minterm_count(complement), 2);
        for bits in 0..4u64 {
            assert_eq!(g.contains_bits(complement, bits), !g.contains_bits(a, bits));
        }
    }

    #[test]
    fn empty_cube_set_gives_bottom() {
        let vars: Vec<Var> = Var::range(2).collect();
        let (g, root) = SolutionGraph::from_cube_set(&CubeSet::new(), &vars);
        assert_eq!(root, SolutionNodeId::BOTTOM);
        assert_eq!(g.minterm_count(root), 0);
    }

    #[test]
    fn to_dot_names_levels_and_edges() {
        let vars: Vec<Var> = Var::range(2).collect();
        let mut set = CubeSet::new();
        set.insert(cube(&[(0, true), (1, false)]));
        let (g, root) = SolutionGraph::from_cube_set(&set, &vars);
        let dot = g.to_dot(root, Some(&vars), "demo");
        assert!(dot.starts_with("digraph \"demo\""));
        assert!(dot.contains("x0"));
        assert!(dot.contains("x1"));
        assert!(dot.contains("style=dashed"));
        // Unlabelled variant.
        let dot2 = g.to_dot(root, None, "demo");
        assert!(dot2.contains("L0"));
    }

    #[test]
    fn cube_count_matches_extracted_set() {
        let vars: Vec<Var> = Var::range(4).collect();
        let mut set = CubeSet::new();
        set.insert(cube(&[(0, true), (2, false)]));
        set.insert(cube(&[(1, false)]));
        set.insert(cube(&[(3, true)]));
        let (g, root) = SolutionGraph::from_cube_set(&set, &vars);
        let extracted = g.to_cube_set(root, &vars);
        assert_eq!(g.cube_count(root), extracted.len() as u64);
        assert_eq!(g.cube_count(SolutionNodeId::BOTTOM), 0);
        assert_eq!(g.cube_count(SolutionNodeId::TOP), 1);
    }

    #[test]
    fn universe_cube_set_gives_top() {
        let vars: Vec<Var> = Var::range(2).collect();
        let (g, root) = SolutionGraph::from_cube_set(&CubeSet::universe(), &vars);
        assert_eq!(root, SolutionNodeId::TOP);
        assert_eq!(g.minterm_count(root), 4);
    }
}
