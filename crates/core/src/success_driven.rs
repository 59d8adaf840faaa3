//! The novel engine: success-driven search with a shared solution graph.

use presat_logic::{Assignment, Cnf, Lit, Var};
use presat_obs::{Event, ObsSink, StopReason};
use presat_sat::{SolveResult, Solver};

use crate::engine::{AllSatEngine, AllSatProblem, AllSatResult, EnumerationStats};
use crate::limits::EnumLimits;
use crate::signature::{ConnectivityIndex, ResidualIndex, SignatureCache};
use crate::solution_graph::{SolutionGraph, SolutionNodeId};

/// How the success-driven engine recognizes equivalent subspaces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SignatureMode {
    /// No reuse: plain model-guided backtracking (ablation baseline).
    None,
    /// Static connectivity signature: prefixes agreeing on the
    /// structurally relevant prefix variables share a subgraph. Cheap but
    /// conservative ([`ConnectivityIndex`]).
    Static,
    /// Dynamic residual-cone signature: prefixes whose unit-propagated
    /// residual suffix cones are identical, once the clauses that pure
    /// auxiliary literals satisfy are dropped, share a subgraph. More work
    /// per node, dramatically more reuse ([`ResidualIndex`]). The default.
    #[default]
    Dynamic,
}

/// All-solutions enumeration by backtracking over the important variables
/// with **no blocking clauses**.
///
/// The search branches on the important variables in problem order; at each
/// node a CDCL sub-solver decides (under the branching prefix as
/// assumptions) whether the subspace still contains solutions, pruning dead
/// subtrees wholesale. The prefix stays on the sub-solver's trail, one
/// assumption level per literal: a child propagates only its own literal,
/// a child that propagation refutes is empty without a solver call, and a
/// call starts from the prefix already in place. Two mechanisms make this
/// dramatically cheaper than plain exhaustive search:
///
/// 1. **Model guidance** — a satisfying model returned at a node is a
///    certificate for the entire branch that agrees with it, so that branch
///    descends without further solver calls until it diverges from the
///    model.
/// 2. **Success-driven learning** — once a subspace has been completely
///    enumerated, the resulting [`SolutionGraph`] node is cached under a
///    sound subspace signature (see [`SignatureMode`]); re-entering an
///    equivalent subspace reuses the whole subgraph, turning exponentially
///    many isomorphic subspaces into one. A signature is a flat key of
///    `u32` words, hashed once and compared word by word on a hash match,
///    so reuse is exact.
///
/// The output solution graph doubles as a compact representation of the
/// enumerated set (the preimage, in `presat-preimage`); no explicit cube
/// explosion ever happens, which is the headline claim of the reproduced
/// paper.
///
/// Both mechanisms can be toggled for ablation studies.
///
/// # Examples
///
/// ```
/// use presat_allsat::{AllSatEngine, AllSatProblem, SuccessDrivenAllSat};
/// use presat_logic::{Cnf, Lit, Var};
///
/// // odd parity over three important variables
/// let vars: Vec<Var> = (0..3).map(Var::new).collect();
/// let mut cnf = Cnf::new(3);
/// for bits in 0..8u32 {
///     if bits.count_ones() % 2 == 0 {
///         // block each even-parity assignment
///         cnf.add_clause((0..3).map(|i| Lit::with_phase(vars[i], bits >> i & 1 == 0)));
///     }
/// }
/// let problem = AllSatProblem::new(cnf, vars);
/// let result = SuccessDrivenAllSat::default().enumerate(&problem);
/// assert_eq!(result.minterm_count(3), 4);
/// assert_eq!(result.stats.blocking_clauses, 0);   // never any
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SuccessDrivenAllSat {
    pub(crate) signature: SignatureMode,
    pub(crate) model_guidance: bool,
}

impl Default for SuccessDrivenAllSat {
    fn default() -> Self {
        SuccessDrivenAllSat {
            signature: SignatureMode::Dynamic,
            model_guidance: true,
        }
    }
}

impl SuccessDrivenAllSat {
    /// The full engine (dynamic signatures, model guidance on).
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the subspace-signature mode (ablation).
    pub fn with_signature(mut self, mode: SignatureMode) -> Self {
        self.signature = mode;
        self
    }

    /// Enables or disables success-driven subspace reuse (ablation);
    /// shorthand for selecting [`SignatureMode::Dynamic`] or
    /// [`SignatureMode::None`].
    pub fn with_reuse(mut self, on: bool) -> Self {
        self.signature = if on {
            SignatureMode::Dynamic
        } else {
            SignatureMode::None
        };
        self
    }

    /// Enables or disables model guidance (ablation).
    pub fn with_model_guidance(mut self, on: bool) -> Self {
        self.model_guidance = on;
        self
    }
}

/// One in-flight enumeration: the sub-solver, the signature indices, the
/// solution graph under construction, and the branching prefix. The
/// sequential engine runs one `Search` for the whole problem; the parallel
/// engine (`crate::parallel`) runs one per partition cube, threading the
/// persistent pieces (solver, indices, graph, cache) through a worker so
/// they warm up across that worker's cubes; the incremental session
/// (`crate::incremental`) threads them across whole `enumerate` calls.
///
/// Cache keys are flat `u32` words. Each open search node's key sits on
/// `keys`, above its ancestors' keys, from its miss until its subtree
/// returns; only a finished node's key is copied into the cache's arena.
///
/// `prefix_lits` may carry extra non-branching assumptions (activation
/// literals) *ahead* of the branching prefix: `prefix_vals` indexes
/// branching positions only, so the two vectors are allowed to differ in
/// length by the number of base assumptions.
///
/// The solver trail holds the prefix: for some `m ≤ prefix_lits.len()`,
/// levels `1..=m` hold `prefix_lits[..m]`, one assumption level each
/// ([`Solver::assume`]). `explore` opens the missing levels on entry,
/// reads its key off the trail, and cuts the trail back to its own levels
/// after each child. Whoever calls the outermost `explore` returns the
/// solver to level 0 right after it, before anything that needs the root
/// (adding clauses, retiring a group, inprocessing, cloning, resetting
/// stats).
pub(crate) struct Search<'p> {
    pub(crate) cnf: &'p Cnf,
    pub(crate) important: &'p [Var],
    pub(crate) solver: Solver,
    pub(crate) conn: Option<ConnectivityIndex>,
    pub(crate) residual: Option<ResidualIndex>,
    pub(crate) graph: SolutionGraph,
    pub(crate) cache: SignatureCache,
    /// The key stack: the keys of the open search nodes, back to back.
    pub(crate) keys: Vec<u32>,
    pub(crate) stats: EnumerationStats,
    pub(crate) prefix_lits: Vec<Lit>,
    pub(crate) prefix_vals: Vec<bool>,
    pub(crate) model_guidance: bool,
    pub(crate) sink: &'p mut dyn ObsSink,
    /// Solution-count cap ([`EnumLimits::max_solutions`]); solutions are
    /// only counted when it is set.
    pub(crate) max_solutions: Option<u64>,
    /// Minterms enumerated so far (tracked only under `max_solutions`).
    pub(crate) solutions_found: u64,
    /// Sticky early-stop marker. Once set, [`Search::explore`] returns
    /// `BOTTOM` for every still-unexplored subspace (the partial result
    /// stays a disjoint subset of the full one) and stops inserting into
    /// the signature cache (a truncated subgraph must never be reused as
    /// the canonical answer for its signature).
    pub(crate) stopped: Option<StopReason>,
}

impl Search<'_> {
    /// Brings the solver trail to the current prefix, one assumption level
    /// per literal of `prefix_lits`: cuts the levels above it, then
    /// re-opens any a solve left missing (one that backjumped below its
    /// entry level and answered `Unsat` returns lower). Returns `false` if
    /// propagation refutes the prefix.
    fn establish(&mut self) -> bool {
        let n = self.prefix_lits.len();
        self.solver.backtrack(n);
        while self.solver.level() < n {
            let level = self.solver.level();
            if !self.solver.assume(self.prefix_lits[level]) {
                self.solver.backtrack(level);
                return false;
            }
        }
        true
    }

    /// Pushes the cache key for the current prefix at `depth` onto the key
    /// stack; returns `false`, pushing nothing, if reuse is off or the node
    /// needs no key. A dynamic key reads the implied values off the live
    /// trail, which `explore` holds at the prefix's propagation closure.
    ///
    /// A node whose branching variable the trail already assigns writes no
    /// dynamic key. Its one consistent child keeps the same trail, so that
    /// child's key (or, if it is implied too, the first key below it) is
    /// this node's key less its depth and the implied word: it hits
    /// whenever this node would have, and the model this node holds
    /// guides the child there without a solver call. No other node can
    /// hit such a key, since a key lists the implied suffix positions.
    /// Without model guidance the child would call the solver before its
    /// lookup, so there the node keeps its key.
    fn push_key(&mut self, depth: usize) -> bool {
        if let Some(conn) = &self.conn {
            conn.write_key(depth, &self.prefix_vals, &mut self.keys);
            return true;
        }
        let Some(residual) = self.residual.as_mut() else {
            return false;
        };
        let solver = &self.solver;
        if self.model_guidance && solver.value(self.important[depth]).is_some() {
            return false;
        }
        residual.write_key(
            self.cnf,
            self.important,
            depth,
            |v| solver.value(v),
            &mut self.keys,
        );
        true
    }

    /// Enumerates the subspace under the current prefix (of length `depth`)
    /// and returns its solution-graph node. The prefix may be any seeded
    /// partial assignment of the first `depth` branching levels — the
    /// parallel engine seeds it with a partition cube. The solver trail may
    /// hold any prefix of `prefix_lits` on entry, and holds at most
    /// `prefix_lits` on return.
    pub(crate) fn explore(&mut self, depth: usize, hint: Option<Assignment>) -> SolutionNodeId {
        // Anytime unwinding: once stopped, every unexplored subspace
        // reports empty — the accumulated result stays a disjoint subset
        // of the exhaustive answer, flagged incomplete by the caller.
        if self.stopped.is_some() {
            return SolutionNodeId::BOTTOM;
        }
        // A subspace that propagation refutes is empty: no solver call.
        if !self.establish() {
            return SolutionNodeId::BOTTOM;
        }
        // A hint is a model consistent with the current prefix; without
        // one, ask the sub-solver whether the subspace is still live. The
        // solve starts from the prefix levels already on the trail and
        // keeps them on a `Sat` answer.
        let model = match hint {
            Some(m) => m,
            None => {
                self.stats.solver_calls += 1;
                let db = self.solver.stats().problem_clauses + self.solver.live_learnt_count() as u64;
                self.stats.db_clauses_peak = self.stats.db_clauses_peak.max(db);
                match self.solver.solve_with_assumptions(&self.prefix_lits) {
                    SolveResult::Unsat => return SolutionNodeId::BOTTOM,
                    SolveResult::Unknown(reason) => {
                        // Inconclusive is NOT empty-and-proven: mark the
                        // stop and under-approximate this subspace.
                        self.stopped = Some(reason);
                        return SolutionNodeId::BOTTOM;
                    }
                    SolveResult::Sat(m) => m,
                }
            }
        };
        let k = self.important.len();
        if depth == k {
            self.count_solutions(1);
            return SolutionNodeId::TOP;
        }
        let start = self.keys.len();
        let key_hash = if self.push_key(depth) {
            let hash = self.cache.hash(&self.keys[start..]);
            if let Some(node) = self.cache.get(&self.keys[start..], hash) {
                self.keys.truncate(start);
                self.stats.cache_hits += 1;
                self.sink.record(&Event::CacheHit {
                    depth: depth as u32,
                });
                if self.max_solutions.is_some() {
                    // The reused subgraph is complete: its minterms all
                    // enter the result in one step.
                    let found = self.graph.minterm_count_from(node, depth as u32);
                    self.count_solutions(u64::try_from(found).unwrap_or(u64::MAX));
                }
                return node;
            }
            self.stats.cache_misses += 1;
            self.sink.record(&Event::CacheMiss {
                depth: depth as u32,
            });
            Some(hash)
        } else {
            None
        };

        let var = self.important[depth];
        let hint_phase = model
            .value(var)
            .expect("solver models are total over the formula space");

        // Hinted branch first: the model certifies it, so with guidance on
        // it descends solver-free until it diverges from the model. Each
        // child returns the trail to this node's levels.
        self.prefix_lits.push(Lit::with_phase(var, hint_phase));
        self.prefix_vals.push(hint_phase);
        let hinted = self.explore(depth + 1, self.model_guidance.then_some(model));
        self.prefix_lits.pop();
        self.prefix_vals.pop();
        self.solver.backtrack(self.prefix_lits.len());

        self.prefix_lits.push(Lit::with_phase(var, !hint_phase));
        self.prefix_vals.push(!hint_phase);
        let other = self.explore(depth + 1, None);
        self.prefix_lits.pop();
        self.prefix_vals.pop();
        self.solver.backtrack(self.prefix_lits.len());

        let (lo, hi) = if hint_phase {
            (other, hinted)
        } else {
            (hinted, other)
        };
        let node = self.graph.mk(depth, lo, hi);
        if let Some(hash) = key_hash {
            // A node finished after a stop may be truncated; caching it
            // would let a later (possibly complete) run silently reuse an
            // under-approximation. Only exhaustively explored subspaces
            // enter the cache.
            if self.stopped.is_none() {
                self.cache.insert(&self.keys[start..], hash, node);
            }
            self.keys.truncate(start);
        }
        node
    }

    /// Accounts `n` newly enumerated minterms against the solution cap.
    fn count_solutions(&mut self, n: u64) {
        if let Some(max) = self.max_solutions {
            self.solutions_found = self.solutions_found.saturating_add(n);
            if self.solutions_found >= max && self.stopped.is_none() {
                self.stopped = Some(StopReason::MaxSolutions);
            }
        }
    }
}

impl AllSatEngine for SuccessDrivenAllSat {
    fn name(&self) -> &'static str {
        "success-driven"
    }

    fn enumerate_limited(
        &self,
        problem: &AllSatProblem,
        limits: &EnumLimits,
        sink: &mut dyn ObsSink,
    ) -> AllSatResult {
        let k = problem.important.len();
        let mut solver = Solver::from_cnf(&problem.cnf);
        solver.set_budget(limits.budget);
        solver.set_cancel(limits.cancel.clone());
        let mut search = Search {
            cnf: &problem.cnf,
            important: &problem.important,
            solver,
            conn: (self.signature == SignatureMode::Static)
                .then(|| ConnectivityIndex::build(&problem.cnf, &problem.important)),
            residual: (self.signature == SignatureMode::Dynamic)
                .then(|| ResidualIndex::build(&problem.cnf)),
            graph: SolutionGraph::new(k),
            cache: SignatureCache::default(),
            keys: Vec::new(),
            stats: EnumerationStats::default(),
            prefix_lits: Vec::with_capacity(k),
            prefix_vals: Vec::with_capacity(k),
            model_guidance: self.model_guidance,
            sink,
            max_solutions: limits.max_solutions,
            solutions_found: 0,
            stopped: None,
        };
        let root = search.explore(0, None);
        search.solver.backtrack(0);
        search.stats.graph_nodes = search.graph.reachable_count(root) as u64;
        search.stats.sat = *search.solver.stats();
        let db = search.stats.sat.problem_clauses + search.solver.live_learnt_count() as u64;
        search.stats.db_clauses_peak = search.stats.db_clauses_peak.max(db);
        search.stats.sat_conflicts = search.stats.sat.conflicts;
        search.stats.sat_decisions = search.stats.sat.decisions;
        let cubes = search.graph.to_cube_set(root, &problem.important);
        search.stats.cubes_emitted = cubes.len() as u64;
        for cube in &cubes {
            search.sink.record(&Event::Solution {
                width: cube.len() as u32,
            });
        }
        if let Some(reason) = search.stopped {
            search.stats.budget_stops = 1;
            search.sink.record(&Event::BudgetStop { reason });
        }
        AllSatResult {
            cubes,
            graph: Some((search.graph, root)),
            stats: search.stats,
            complete: search.stopped.is_none(),
            stop_reason: search.stopped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::BlockingAllSat;
    use presat_logic::{truth_table, Cnf, Var};

    fn lit(v: usize, pos: bool) -> Lit {
        Lit::with_phase(Var::new(v), pos)
    }

    fn parity_cnf(n: usize) -> Cnf {
        // Clauses blocking every even-parity assignment of x0..x(n-1).
        let mut cnf = Cnf::new(n);
        for bits in 0..(1u32 << n) {
            if bits.count_ones() % 2 == 0 {
                cnf.add_clause((0..n).map(|i| lit(i, bits >> i & 1 == 0)));
            }
        }
        cnf
    }

    #[test]
    fn simple_projection() {
        let mut cnf = Cnf::new(2);
        cnf.add_clause([lit(0, true), lit(1, true)]);
        let p = AllSatProblem::new(cnf.clone(), vec![Var::new(0), Var::new(1)]);
        let r = SuccessDrivenAllSat::new().enumerate(&p);
        let expect = truth_table::project_models_set(&cnf, &p.important);
        assert!(r.cubes.semantically_eq(&expect, &p.important));
        assert_eq!(r.minterm_count(2), 3);
    }

    #[test]
    fn unsat_gives_bottom() {
        let mut cnf = Cnf::new(1);
        cnf.add_clause([]);
        let p = AllSatProblem::new(cnf, vec![Var::new(0)]);
        let r = SuccessDrivenAllSat::new().enumerate(&p);
        assert!(r.cubes.is_empty());
        let (g, root) = r.graph.expect("graph always built");
        assert_eq!(root, SolutionNodeId::BOTTOM);
        assert_eq!(g.minterm_count(root), 0);
    }

    #[test]
    fn empty_important_sat() {
        let mut cnf = Cnf::new(1);
        cnf.add_unit(lit(0, true));
        let p = AllSatProblem::new(cnf, vec![]);
        let r = SuccessDrivenAllSat::new().enumerate(&p);
        assert!(r.cubes.is_universe());
    }

    #[test]
    fn no_blocking_clauses_ever() {
        let p = AllSatProblem::new(parity_cnf(6), (0..6).map(Var::new).collect());
        let r = SuccessDrivenAllSat::new().enumerate(&p);
        assert_eq!(r.stats.blocking_clauses, 0);
        assert_eq!(r.minterm_count(6), 32);
    }

    #[test]
    fn parity_graph_is_linear_while_blocking_explodes() {
        let n = 8;
        let p = AllSatProblem::new(parity_cnf(n), (0..n).map(Var::new).collect());
        let sd = SuccessDrivenAllSat::new().enumerate(&p);
        let bl = BlockingAllSat::new().enumerate(&p);
        assert_eq!(sd.minterm_count(n), 1 << (n - 1));
        assert_eq!(bl.stats.blocking_clauses, 1 << (n - 1));
        assert!(
            sd.stats.graph_nodes <= (2 * n + 2) as u64,
            "graph should be linear in n, got {}",
            sd.stats.graph_nodes
        );
        assert!(sd.stats.cache_hits > 0, "parity must trigger reuse");
    }

    #[test]
    fn reuse_cuts_solver_calls_on_parity() {
        let n = 8;
        let p = AllSatProblem::new(parity_cnf(n), (0..n).map(Var::new).collect());
        let with = SuccessDrivenAllSat::new().enumerate(&p);
        let without = SuccessDrivenAllSat::new().with_reuse(false).enumerate(&p);
        assert!(
            with.stats.solver_calls < without.stats.solver_calls,
            "reuse {} !< no-reuse {}",
            with.stats.solver_calls,
            without.stats.solver_calls
        );
        // Same semantics either way.
        let vars: Vec<Var> = (0..n).map(Var::new).collect();
        assert!(with.cubes.semantically_eq(&without.cubes, &vars));
    }

    #[test]
    fn ablations_agree_with_oracle_on_random_formulas() {
        use presat_logic::rng::SplitMix64;
        use presat_logic::Lit;
        let mut rng = SplitMix64::seed_from_u64(5);
        let engines = [
            SuccessDrivenAllSat::new(),
            SuccessDrivenAllSat::new().with_signature(SignatureMode::Static),
            SuccessDrivenAllSat::new().with_signature(SignatureMode::None),
            SuccessDrivenAllSat::new().with_model_guidance(false),
            SuccessDrivenAllSat::new()
                .with_signature(SignatureMode::None)
                .with_model_guidance(false),
        ];
        for round in 0..20 {
            let n = 7;
            let mut cnf = Cnf::new(n);
            for _ in 0..10 {
                let c: Vec<Lit> = (0..3)
                    .map(|_| lit(rng.gen_range(0..n), rng.gen_bool(0.5)))
                    .collect();
                cnf.add_clause(c);
            }
            let important: Vec<Var> = Var::range(4).collect();
            let p = AllSatProblem::new(cnf.clone(), important.clone());
            let expect = truth_table::project_models_set(&cnf, &important);
            for engine in engines {
                let r = engine.enumerate(&p);
                assert!(
                    r.cubes.semantically_eq(&expect, &important),
                    "round {round}, engine config {engine:?}"
                );
                // Graph and cube set must agree on cardinality.
                let (g, root) = r.graph.expect("graph");
                assert_eq!(
                    g.minterm_count(root),
                    expect.enumerate_minterms(&important).len() as u128
                );
            }
        }
    }

    #[test]
    fn model_guidance_reduces_solver_calls() {
        let n = 8;
        let p = AllSatProblem::new(parity_cnf(n), (0..n).map(Var::new).collect());
        let with = SuccessDrivenAllSat::new().with_reuse(false).enumerate(&p);
        let without = SuccessDrivenAllSat::new()
            .with_reuse(false)
            .with_model_guidance(false)
            .enumerate(&p);
        assert!(with.stats.solver_calls < without.stats.solver_calls);
    }

    #[test]
    fn hidden_aux_variables_are_handled() {
        // Tseitin-ish: aux x3 ↔ (x0 ∧ x1); assert aux ∨ x2.
        let mut cnf = Cnf::new(4);
        cnf.add_clause([lit(3, false), lit(0, true)]);
        cnf.add_clause([lit(3, false), lit(1, true)]);
        cnf.add_clause([lit(3, true), lit(0, false), lit(1, false)]);
        cnf.add_clause([lit(3, true), lit(2, true)]);
        let important: Vec<Var> = Var::range(3).collect();
        let p = AllSatProblem::new(cnf.clone(), important.clone());
        let r = SuccessDrivenAllSat::new().enumerate(&p);
        let expect = truth_table::project_models_set(&cnf, &important);
        assert!(r.cubes.semantically_eq(&expect, &important));
    }

    #[test]
    fn implied_suffix_values_distinguish_subspaces() {
        // x0 → x1 and ¬x0 → ¬x1: both prefixes leave an empty residual
        // cone at depth 1 but imply different x1 values; the signature must
        // not merge them.
        let mut cnf = Cnf::new(2);
        cnf.add_clause([lit(0, false), lit(1, true)]);
        cnf.add_clause([lit(0, true), lit(1, false)]);
        let important = vec![Var::new(0), Var::new(1)];
        let p = AllSatProblem::new(cnf.clone(), important.clone());
        let r = SuccessDrivenAllSat::new().enumerate(&p);
        let expect = truth_table::project_models_set(&cnf, &important);
        assert!(r.cubes.semantically_eq(&expect, &important));
        assert_eq!(r.minterm_count(2), 2);
        // One call per x0 branch: each x1 branch that disagrees with x0 is
        // refuted by propagation alone.
        assert_eq!(r.stats.solver_calls, 2);
    }
}
