//! Graphviz/DOT export for debugging and documentation figures.

use std::collections::HashSet;
use std::fmt::Write;

use crate::manager::BddManager;
use crate::node::BddId;

impl BddManager {
    /// Renders the DAG rooted at `f` in Graphviz DOT syntax. Solid edges are
    /// high (then) branches, dashed edges low (else) branches.
    pub fn to_dot(&self, f: BddId, name: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{name}\" {{");
        let _ = writeln!(out, "  rankdir=TB;");
        let _ = writeln!(out, "  f [shape=box,label=\"0\"];");
        let _ = writeln!(out, "  t [shape=box,label=\"1\"];");
        let mut seen = HashSet::new();
        self.dot_rec(f, &mut seen, &mut out);
        let _ = writeln!(out, "}}");
        out
    }

    fn dot_rec(&self, f: BddId, seen: &mut HashSet<BddId>, out: &mut String) {
        if f.is_terminal() || !seen.insert(f) {
            return;
        }
        let name = |id: BddId| match id {
            BddId::FALSE => "f".to_string(),
            BddId::TRUE => "t".to_string(),
            other => format!("n{}", other.index()),
        };
        let _ = writeln!(out, "  n{} [label=\"{}\"];", f.index(), self.node_var(f));
        let _ = writeln!(
            out,
            "  n{} -> {} [style=dashed];",
            f.index(),
            name(self.node_lo(f))
        );
        let _ = writeln!(out, "  n{} -> {};", f.index(), name(self.node_hi(f)));
        self.dot_rec(self.node_lo(f), seen, out);
        self.dot_rec(self.node_hi(f), seen, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presat_logic::Var;

    #[test]
    fn dot_contains_all_nodes_and_edges() {
        let mut m = BddManager::new(2);
        let x = m.var(Var::new(0));
        let y = m.var(Var::new(1));
        let f = m.and(x, y);
        let dot = m.to_dot(f, "and2");
        assert!(dot.starts_with("digraph \"and2\""));
        assert!(dot.contains("x0"));
        assert!(dot.contains("x1"));
        assert!(dot.contains("style=dashed"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn dot_of_terminal_is_minimal() {
        let m = BddManager::new(0);
        let dot = m.to_dot(BddId::TRUE, "one");
        // Just the two terminal boxes, no internal nodes.
        assert!(!dot.contains("n2"));
    }
}
