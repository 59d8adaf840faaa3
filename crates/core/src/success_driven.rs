//! The novel engine: success-driven search with a shared solution graph.

use presat_logic::{Assignment, Cnf, CubeSet, Lit, Var};
use presat_obs::{Event, ObsSink, StopReason};
use presat_sat::{Budget, SolveResult, Solver};

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
    /// conservative.
    Static,
    /// Dynamic residual-cone signature: prefixes whose unit-propagated
    /// residual suffix cones are identical, once the clauses that pure
    /// auxiliary literals satisfy are dropped, share a subgraph. More work
    /// per node, dramatically more reuse. The default.
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
    signature: SignatureMode,
    model_guidance: bool,
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

/// The key index of one [`SignatureMode`]: what a search node reads its
/// cache key from.
#[derive(Debug)]
pub(crate) enum KeyIndex {
    /// No reuse: no node writes a key.
    None,
    /// Static connectivity keys ([`ConnectivityIndex`]).
    Static(ConnectivityIndex),
    /// Dynamic residual keys ([`ResidualIndex`]).
    Dynamic(Box<ResidualIndex>),
}

impl KeyIndex {
    fn build(mode: SignatureMode, cnf: &Cnf, important: &[Var]) -> Self {
        match mode {
            SignatureMode::None => KeyIndex::None,
            SignatureMode::Static => KeyIndex::Static(ConnectivityIndex::build(cnf, important)),
            SignatureMode::Dynamic => KeyIndex::Dynamic(Box::new(ResidualIndex::build(cnf))),
        }
    }

    /// Catches the index up with `cnf` after a session grew it. Static
    /// connectivity is not stable under formula growth (a new clause can
    /// connect independent variables), so the index is rebuilt and
    /// `cache` dropped. A residual key stays valid, so the dynamic index
    /// only indexes the new clauses.
    pub(crate) fn refresh(&mut self, cnf: &Cnf, important: &[Var], cache: &mut SignatureCache) {
        match self {
            KeyIndex::None => {}
            KeyIndex::Static(conn) => {
                cache.clear();
                *conn = ConnectivityIndex::build(cnf, important);
            }
            KeyIndex::Dynamic(index) => index.extend(cnf),
        }
    }
}

/// What outlives one success-driven search: the sub-solver, the key
/// index, the solution graph, the success cache and the key stack. The
/// one-shot engine runs one search on it; a partition worker
/// (`crate::parallel`) runs one per cube, so later cubes reuse what
/// earlier ones learnt and cached; the incremental session
/// (`crate::incremental`) runs one per call over a formula that grows
/// between calls.
#[derive(Debug)]
pub(crate) struct SearchState {
    pub(crate) solver: Solver,
    pub(crate) index: KeyIndex,
    pub(crate) graph: SolutionGraph,
    pub(crate) cache: SignatureCache,
    /// The key stack: the keys of the open search nodes, back to back.
    /// Empty between searches.
    keys: Vec<u32>,
    model_guidance: bool,
}

/// What one [`SearchState::run`] hands back.
pub(crate) struct SearchOutcome {
    /// The searched subspace's node in [`SearchState::graph`].
    pub(crate) root: SolutionNodeId,
    pub(crate) stats: EnumerationStats,
    /// Why the search stopped early; `None` if it was exhaustive.
    pub(crate) stop: Option<StopReason>,
    /// Minterms counted against [`EnumLimits::max_solutions`] (0 without
    /// a cap).
    pub(crate) solutions: u64,
}

impl SearchState {
    /// State for searches over `cnf` branching on `important`, with the
    /// key index and model guidance of `config`.
    pub(crate) fn new(
        solver: Solver,
        config: SuccessDrivenAllSat,
        cnf: &Cnf,
        important: &[Var],
    ) -> Self {
        SearchState {
            solver,
            index: KeyIndex::build(config.signature, cnf, important),
            graph: SolutionGraph::new(important.len()),
            cache: SignatureCache::default(),
            keys: Vec::new(),
            model_guidance: config.model_guidance,
        }
    }

    /// Enumerates the subspace of `cnf` under the prefix `base` (extra
    /// assumptions such as a session's activation literal), then `seed`
    /// (the values of the first `seed.len()` branching variables), into
    /// the graph. The budget and cancel token of `limits` hold for this
    /// search only; a cap on solutions counts the ones it finds.
    ///
    /// The solver returns to level 0 before this returns, so the caller
    /// may add clauses, retire a group, clone or reset stats. The
    /// outcome's `sat` snapshot covers the solver's work since the
    /// caller's last `reset_stats` (or since construction).
    pub(crate) fn run(
        &mut self,
        cnf: &Cnf,
        important: &[Var],
        base: &[Lit],
        seed: &[bool],
        limits: &EnumLimits,
        sink: &mut dyn ObsSink,
    ) -> SearchOutcome {
        let k = important.len();
        let mut prefix_lits = Vec::with_capacity(base.len() + k);
        prefix_lits.extend_from_slice(base);
        prefix_lits.extend(
            important
                .iter()
                .zip(seed)
                .map(|(&v, &phase)| Lit::with_phase(v, phase)),
        );
        let mut prefix_vals = Vec::with_capacity(k);
        prefix_vals.extend_from_slice(seed);
        self.solver.set_budget(limits.budget);
        self.solver.set_cancel(limits.cancel.clone());
        let mut search = Search {
            cnf,
            important,
            state: self,
            stats: EnumerationStats::default(),
            prefix_lits,
            prefix_vals,
            sink,
            max_solutions: limits.max_solutions,
            solutions_found: 0,
            stopped: None,
        };
        let root = search.explore(seed.len(), None);
        let (mut stats, stop, solutions) = (search.stats, search.stopped, search.solutions_found);
        self.solver.backtrack(0);
        self.solver.set_budget(Budget::unlimited());
        self.solver.set_cancel(None);
        stats.sat = *self.solver.stats();
        stats.sat_conflicts = stats.sat.conflicts;
        stats.sat_decisions = stats.sat.decisions;
        stats.db_clauses_peak = stats.db_clauses_peak.max(self.solver.db_clauses());
        stats.budget_stops = u64::from(stop.is_some());
        SearchOutcome {
            root,
            stats,
            stop,
            solutions,
        }
    }
}

/// Reads the cubes of `root` off `graph` (in its fixed lo-then-hi
/// order), counts them and the root's graph nodes into `stats`, and
/// records one `Solution` event per cube.
pub(crate) fn extract_cubes(
    graph: &SolutionGraph,
    root: SolutionNodeId,
    important: &[Var],
    stats: &mut EnumerationStats,
    sink: &mut dyn ObsSink,
) -> CubeSet {
    stats.graph_nodes = graph.reachable_count(root) as u64;
    let cubes = graph.to_cube_set(root, important);
    stats.cubes_emitted = cubes.len() as u64;
    for cube in &cubes {
        sink.record(&Event::Solution {
            width: cube.len() as u32,
        });
    }
    cubes
}

/// One search in flight, built only by [`SearchState::run`]: the state
/// it borrows, the branching prefix, and this search's counters, sink,
/// solution cap and stop marker.
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
/// after each child.
struct Search<'a> {
    cnf: &'a Cnf,
    important: &'a [Var],
    state: &'a mut SearchState,
    stats: EnumerationStats,
    prefix_lits: Vec<Lit>,
    prefix_vals: Vec<bool>,
    sink: &'a mut dyn ObsSink,
    /// Solution-count cap ([`EnumLimits::max_solutions`]); solutions are
    /// only counted when it is set.
    max_solutions: Option<u64>,
    /// Minterms enumerated so far (tracked only under `max_solutions`).
    solutions_found: u64,
    /// Sticky early-stop marker. Once set, [`Search::explore`] returns
    /// `BOTTOM` for every still-unexplored subspace (the partial result
    /// stays a disjoint subset of the full one) and stops inserting into
    /// the signature cache (a truncated subgraph must never be reused as
    /// the canonical answer for its signature).
    stopped: Option<StopReason>,
}

impl Search<'_> {
    /// Brings the solver trail to the current prefix, one assumption level
    /// per literal of `prefix_lits`: cuts the levels above it, then
    /// re-opens any a solve left missing (one that backjumped below its
    /// entry level and answered `Unsat` returns lower). Returns `false` if
    /// propagation refutes the prefix.
    fn establish(&mut self) -> bool {
        let n = self.prefix_lits.len();
        let solver = &mut self.state.solver;
        solver.backtrack(n);
        while solver.level() < n {
            let level = solver.level();
            if !solver.assume(self.prefix_lits[level]) {
                solver.backtrack(level);
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
        let state = &mut *self.state;
        match &mut state.index {
            KeyIndex::None => false,
            KeyIndex::Static(conn) => {
                conn.write_key(depth, &self.prefix_vals, &mut state.keys);
                true
            }
            KeyIndex::Dynamic(index) => {
                let solver = &state.solver;
                if state.model_guidance && solver.value(self.important[depth]).is_some() {
                    return false;
                }
                index.write_key(
                    self.cnf,
                    self.important,
                    depth,
                    |v| solver.value(v),
                    &mut state.keys,
                );
                true
            }
        }
    }

    /// Enumerates the subspace under the current prefix (of length `depth`)
    /// and returns its solution-graph node. The prefix may be any seeded
    /// partial assignment of the first `depth` branching levels — the
    /// parallel engine seeds it with a partition cube. The solver trail may
    /// hold any prefix of `prefix_lits` on entry, and holds at most
    /// `prefix_lits` on return.
    fn explore(&mut self, depth: usize, hint: Option<Assignment>) -> SolutionNodeId {
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
                let solver = &mut self.state.solver;
                self.stats.db_clauses_peak = self.stats.db_clauses_peak.max(solver.db_clauses());
                match solver.solve_with_assumptions(&self.prefix_lits) {
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
        let start = self.state.keys.len();
        let key_hash = if self.push_key(depth) {
            let key = &self.state.keys[start..];
            let hash = self.state.cache.hash(key);
            if let Some(node) = self.state.cache.get(key, hash) {
                self.state.keys.truncate(start);
                self.stats.cache_hits += 1;
                self.sink.record(&Event::CacheHit {
                    depth: depth as u32,
                });
                if self.max_solutions.is_some() {
                    // The reused subgraph is complete: its minterms all
                    // enter the result in one step.
                    let found = self.state.graph.minterm_count_from(node, depth as u32);
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
        let hinted = self.explore(depth + 1, self.state.model_guidance.then_some(model));
        self.prefix_lits.pop();
        self.prefix_vals.pop();
        self.state.solver.backtrack(self.prefix_lits.len());

        self.prefix_lits.push(Lit::with_phase(var, !hint_phase));
        self.prefix_vals.push(!hint_phase);
        let other = self.explore(depth + 1, None);
        self.prefix_lits.pop();
        self.prefix_vals.pop();
        self.state.solver.backtrack(self.prefix_lits.len());

        let (lo, hi) = if hint_phase {
            (other, hinted)
        } else {
            (hinted, other)
        };
        let node = self.state.graph.mk(depth, lo, hi);
        if let Some(hash) = key_hash {
            // A node finished after a stop may be truncated; caching it
            // would let a later (possibly complete) run silently reuse an
            // under-approximation. Only exhaustively explored subspaces
            // enter the cache.
            if self.stopped.is_none() {
                let state = &mut *self.state;
                state.cache.insert(&state.keys[start..], hash, node);
            }
            self.state.keys.truncate(start);
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
        let solver = Solver::from_cnf(&problem.cnf);
        let mut state = SearchState::new(solver, *self, &problem.cnf, &problem.important);
        let outcome = state.run(&problem.cnf, &problem.important, &[], &[], limits, sink);
        let mut stats = outcome.stats;
        let important = &problem.important;
        let cubes = extract_cubes(&state.graph, outcome.root, important, &mut stats, sink);
        if let Some(reason) = outcome.stop {
            sink.record(&Event::BudgetStop { reason });
        }
        AllSatResult {
            cubes,
            graph: Some((state.graph, outcome.root)),
            stats,
            complete: outcome.stop.is_none(),
            stop_reason: outcome.stop,
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
