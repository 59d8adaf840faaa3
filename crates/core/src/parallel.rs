//! Parallel cube-partitioned all-solutions enumeration.
//!
//! The search space over the important variables is split into `2^kp`
//! disjoint *partition cubes* over the first `kp` branching levels (the
//! guiding-path prefix): cube *j*'s phases are the bits of *j*. Workers
//! pull cube indices from a shared atomic counter and enumerate each
//! cube's subspace with the sequential engine's driver
//! ([`SearchState::run`]), seeded with the cube as its branching prefix;
//! each worker keeps one [`SearchState`] across its cubes. A spawn gate
//! ([`ParallelAllSat::with_par_threshold`]) keeps problems too small to
//! pay for the fleet on the sequential path.
//!
//! # Determinism
//!
//! The merged result is bit-identical to the sequential engine's output at
//! any thread count. The argument:
//!
//! * Each cube's subspace root is the reduced, hash-consed decision DAG of
//!   the suffix levels under that prefix — the canonical representation of
//!   that subspace's exact solution set, a function of the problem alone,
//!   never of scheduling or of which worker (with which warm cache) ran it.
//! * [`SolutionGraph::import`] canonicalises each cube root into the
//!   master graph strictly in cube-index order, and the merge rebuilds the
//!   `kp` prefix levels bottom-up with [`SolutionGraph::mk`]. Reduced DAGs
//!   of equal functions are isomorphic, so the master root matches the
//!   sequential graph node-for-node.
//! * [`SolutionGraph::to_cube_set`] walks the DAG in a fixed lo-then-hi
//!   order, so even the *order* of the emitted cubes matches.
//!
//! Work counters (decisions, conflicts, propagations) legitimately vary
//! with scheduling — a cube enumerated by a warmed-up solver clone does
//! less work — but solutions, cubes, and graph shape never do.
//!
//! # Budgets
//!
//! Counter budgets (conflicts/propagations) are held in one shared
//! [`BudgetPool`] that every worker charges per conflict, so the fleet
//! spends the *caller's* budget once — not once per worker. The wall-clock
//! deadline is an absolute instant and therefore shared by construction.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use presat_logic::{Cnf, Lit, Var};
use presat_obs::{Event, ObsSink, StopReason, VecSink};
use presat_sat::{Budget, BudgetPool, CancelToken, Solver};

use crate::engine::{AllSatEngine, AllSatProblem, AllSatResult, EnumerationStats};
use crate::limits::{first_reason, EnumLimits};
use crate::solution_graph::{SolutionGraph, SolutionNodeId};
use crate::success_driven::{extract_cubes, SearchState, SignatureMode, SuccessDrivenAllSat};

/// Upper bound on the partition-prefix length: `2^8 = 256` cubes saturates
/// any sane thread count while keeping per-cube solver overhead bounded.
const MAX_PREFIX: usize = 8;

/// Default `important × clauses` size product below which a *preimage
/// step* skips the worker fleet and runs sequentially (see
/// [`ParallelAllSat::with_par_threshold`]). This is the default for the
/// preimage layer (`SatPreimage`), tuned so small reachability steps
/// (cnt5-class encodings) stay sequential while parity11-class steps still
/// fan out; the bare [`ParallelAllSat`] engine defaults to `0` (always
/// parallel).
pub const DEFAULT_PAR_THRESHOLD: u64 = 4096;

/// The spawn gate, shared by [`ParallelAllSat`] and the incremental
/// session (`crate::IncrementalAllSat`): `true` if spawning the worker
/// fleet cannot pay for itself. Either the problem's `k × num_clauses`
/// product falls below `par_threshold`, too small to amortize
/// spawn-and-merge, or the host has no hardware parallelism at all
/// (threads would serialize on one CPU and every fleet cost would be pure
/// overhead). Both checks are only active when the gate itself is
/// (`par_threshold > 0`), so forcing `par_threshold = 0` still exercises
/// the real fleet — the determinism suites rely on that. Gating never
/// changes the result: the sequential and parallel paths are bit-identical
/// by contract.
pub(crate) fn gates_sequential(par_threshold: u64, k: usize, num_clauses: usize) -> bool {
    if par_threshold == 0 {
        return false;
    }
    // Cached: the gate runs once per enumeration (hundreds of times in a
    // reachability fixed point) and the parallelism probe is a syscall. A
    // host whose parallelism cannot be probed counts as single-CPU,
    // matching `effective_jobs`' auto-detect fallback.
    static SINGLE_CPU: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    let single_cpu = *SINGLE_CPU.get_or_init(|| effective_jobs(0) <= 1);
    single_cpu || (k as u64).saturating_mul(num_clauses as u64) < par_threshold
}

/// The parallel wrapper around [`SuccessDrivenAllSat`]: partitions the
/// branching space into disjoint cubes, enumerates them on worker
/// threads, and merges deterministically.
///
/// `jobs == 1` (the default) delegates to the sequential engine outright;
/// `jobs == 0` asks the OS for the available parallelism. Construction is
/// cheap; all state lives inside `enumerate_with_sink`.
///
/// # Examples
///
/// ```
/// use presat_allsat::{AllSatEngine, AllSatProblem, ParallelAllSat, SuccessDrivenAllSat};
/// use presat_logic::{Cnf, Lit, Var};
///
/// let vars: Vec<Var> = (0..3).map(Var::new).collect();
/// let mut cnf = Cnf::new(3);
/// cnf.add_clause([Lit::pos(vars[0]), Lit::pos(vars[1]), Lit::pos(vars[2])]);
/// let problem = AllSatProblem::new(cnf, vars);
///
/// let seq = SuccessDrivenAllSat::new().enumerate(&problem);
/// let par = ParallelAllSat::new(4).enumerate(&problem);
/// // Not merely the same set: the identical cube list, in the same order.
/// assert_eq!(par.cubes, seq.cubes);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelAllSat {
    inner: SuccessDrivenAllSat,
    jobs: usize,
    /// Spawn gate (see [`gates_sequential`]); the bare engine always
    /// spawns, the preimage layer installs [`DEFAULT_PAR_THRESHOLD`].
    par_threshold: u64,
}

impl Default for ParallelAllSat {
    fn default() -> Self {
        ParallelAllSat {
            inner: SuccessDrivenAllSat::new(),
            jobs: 1,
            par_threshold: 0,
        }
    }
}

impl ParallelAllSat {
    /// An engine running with `jobs` worker threads (`0` = auto-detect).
    pub fn new(jobs: usize) -> Self {
        ParallelAllSat {
            jobs,
            ..ParallelAllSat::default()
        }
    }

    /// Sets the worker-thread count (`0` = auto-detect).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Selects the subspace-signature mode of the underlying engine.
    pub fn with_signature(mut self, mode: SignatureMode) -> Self {
        self.inner = self.inner.with_signature(mode);
        self
    }

    /// Enables or disables model guidance in the underlying engine.
    pub fn with_model_guidance(mut self, on: bool) -> Self {
        self.inner = self.inner.with_model_guidance(on);
        self
    }

    /// Sets the sequential-fallback spawn gate: problems whose
    /// `important × clauses` product falls below `threshold` skip the
    /// fleet (`0` = always parallel, the default).
    pub fn with_par_threshold(mut self, threshold: u64) -> Self {
        self.par_threshold = threshold;
        self
    }
}

/// Resolves a requested worker count to the effective one: `0` means
/// "auto-detect" and asks the OS for the available parallelism (falling
/// back to `1` when the query fails, e.g. in restricted sandboxes); any
/// other value is taken literally. Every `--jobs`-style knob in the
/// workspace — the parallel engines, the incremental sessions, the service
/// daemon's scheduler — resolves through this one helper so the fallback
/// cannot drift.
pub fn effective_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        jobs
    }
}

/// Partition-prefix length for `jobs` workers over `k` important
/// variables: enough levels that the cube queue (`2^kp` entries) keeps
/// every worker busy (~4 cubes each for stealing slack), capped at
/// [`MAX_PREFIX`] and at `k` itself.
pub(crate) fn prefix_len(jobs: usize, k: usize) -> usize {
    let want = usize::BITS as usize - (4 * jobs).saturating_sub(1).leading_zeros() as usize;
    want.clamp(1, MAX_PREFIX.min(k))
}

/// What one partition cube produced: the subspace root in its worker's
/// graph, the per-cube work-counter delta, and the per-cube event trace
/// (replayed into the caller's sink at merge time, in cube-index order).
struct CubeOutcome {
    /// Cube index: bit `j` = phase of branching level `j`.
    index: u32,
    worker: usize,
    root: SolutionNodeId,
    stats: EnumerationStats,
    events: Vec<Event>,
    /// The cube's own early-stop reason, if its enumeration was cut short.
    stopped: Option<StopReason>,
    /// `true` if the cube was drained unexplored after a global stop
    /// (reported as `BOTTOM` so the merge still accounts every cube).
    cancelled: bool,
}

impl AllSatEngine for ParallelAllSat {
    fn name(&self) -> &'static str {
        "success-driven-parallel"
    }

    fn enumerate_limited(
        &self,
        problem: &AllSatProblem,
        limits: &EnumLimits,
        sink: &mut dyn ObsSink,
    ) -> AllSatResult {
        let jobs = effective_jobs(self.jobs);
        let k = problem.important.len();
        if jobs <= 1 || k == 0 || gates_sequential(self.par_threshold, k, problem.cnf.num_clauses())
        {
            return self.inner.enumerate_limited(problem, limits, sink);
        }

        // One warm template: parsing/watcher setup happens once, workers
        // clone it at the root.
        let template = Solver::from_cnf(&problem.cnf);
        let mut master = SolutionGraph::new(k);
        let (root, mut stats, stop) = enumerate_partitioned(
            self.inner,
            jobs,
            &problem.cnf,
            &problem.important,
            &template,
            &[],
            limits,
            &mut master,
            sink,
        );

        // Totals that must describe the *merged* result, not a sum of the
        // per-cube views (subspace graphs overlap after canonicalisation).
        let cubes = extract_cubes(&master, root, &problem.important, &mut stats, sink);
        AllSatResult {
            cubes,
            graph: Some((master, root)),
            stats,
            complete: stop.is_none(),
            stop_reason: stop,
        }
    }
}

/// Cube-partitioned enumeration into a caller-owned master graph.
///
/// Splits the branching space over `important` into `2^kp` disjoint
/// prefix cubes, enumerates them on worker threads (each worker clones
/// `template` at the root and assumes `base` ahead of its cube literals),
/// and merges the subspace roots into `master` strictly in cube-index
/// order, returning the merged root and the absorbed work counters
/// (`graph_nodes` and `cubes_emitted` are left for the caller, which owns
/// the master graph).
///
/// This is shared between [`ParallelAllSat`] (fresh template and master
/// per call, empty `base`) and the incremental session
/// (`crate::IncrementalAllSat`: persistent template solver and master
/// graph, the iteration's activation literal as `base`). Requires
/// `jobs >= 2` and a non-empty `important` set.
///
/// # Anytime behavior under `limits`
///
/// Counter budgets (conflicts/propagations) are spent from one shared
/// [`BudgetPool`], so the fleet spends the caller's budget exactly once
/// (plus at most one conflict of overshoot per worker); the wall-clock
/// deadline is absolute and therefore shared; the external cancel token is
/// installed in every worker's solver. The first worker to stop fires an
/// internal all-workers token; remaining queue cubes are drained as
/// unexplored-`BOTTOM` outcomes (counted in `cancelled_cubes`) so the
/// merge still accounts every cube. The returned stop reason is the first
/// stopped cube's, in merge order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn enumerate_partitioned(
    config: SuccessDrivenAllSat,
    jobs: usize,
    cnf: &Cnf,
    important: &[Var],
    template: &Solver,
    base: &[Lit],
    limits: &EnumLimits,
    master: &mut SolutionGraph,
    sink: &mut dyn ObsSink,
) -> (SolutionNodeId, EnumerationStats, Option<StopReason>) {
    let k = important.len();
    debug_assert!(jobs >= 2 && k > 0);
    let kp = prefix_len(jobs, k);
    let num_cubes = 1usize << kp;
    let workers = jobs.min(num_cubes);
    let next_cube = AtomicUsize::new(0);
    // Internal stop-the-fleet token (distinct from the caller's): fired by
    // the first worker that stops, checked by all between cubes.
    let stop_all = CancelToken::new();
    let solutions_total = AtomicU64::new(0);
    let pool = BudgetPool::from_budget(&limits.budget);

    let mut worker_results: Vec<(SolutionGraph, Vec<CubeOutcome>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker_id| {
                let next_cube = &next_cube;
                let stop_all = &stop_all;
                let solutions_total = &solutions_total;
                let pool = pool.clone();
                scope.spawn(move || {
                    run_worker(
                        worker_id,
                        config,
                        cnf,
                        important,
                        template,
                        base,
                        limits,
                        next_cube,
                        stop_all,
                        solutions_total,
                        pool,
                        num_cubes,
                        kp,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("enumeration worker panicked"))
            .collect()
    });

    // ---- Deterministic merge: strictly in cube-index order. ----
    let mut outcomes: Vec<CubeOutcome> = Vec::with_capacity(num_cubes);
    for (_, outs) in &mut worker_results {
        outcomes.append(outs);
    }
    outcomes.sort_unstable_by_key(|o| o.index);
    debug_assert_eq!(outcomes.len(), num_cubes, "every cube accounted for");

    let mut stats = EnumerationStats::default();
    let mut layer: Vec<SolutionNodeId> = Vec::with_capacity(num_cubes);
    for o in &outcomes {
        layer.push(master.import(&worker_results[o.worker].0, o.root));
        for e in &o.events {
            sink.record(e);
        }
        sink.record(&Event::CubeDone {
            cube_index: o.index,
            solver_calls: o.stats.solver_calls,
        });
        stats.absorb(&o.stats);
    }
    // Rebuild the prefix levels bottom-up: bit `level` of a cube index
    // is the phase of branching level `level`, so at each level the
    // lo/hi pair of an index differs in the current top bit.
    for level in (0..kp).rev() {
        let half = 1usize << level;
        layer = (0..half)
            .map(|i| master.mk(level, layer[i], layer[i + half]))
            .collect();
    }
    let root = layer[0];
    stats.sat_conflicts = stats.sat.conflicts;
    stats.sat_decisions = stats.sat.decisions;
    let stop = first_reason(outcomes.iter().map(|o| o.stopped)).or_else(|| {
        // Only drained cubes and no recorded reason can happen when the
        // caller's token fired between a worker's stop check and its first
        // solver poll; the honest reason is the cancellation itself.
        outcomes
            .iter()
            .any(|o| o.cancelled)
            .then_some(StopReason::Cancelled)
    });
    if let Some(reason) = stop {
        sink.record(&Event::BudgetStop { reason });
    }
    (root, stats, stop)
}

/// One worker: pulls cube indices from the shared counter until the queue
/// is dry, enumerating each with one persistent [`SearchState`] (a solver
/// clone, the key index, one solution graph, one success cache) so later
/// cubes benefit from everything earlier cubes learnt. The clone is
/// cheap — the flat clause arena copies as one contiguous buffer, not one
/// allocation per clause (table R8) — so spawning workers stays O(bytes)
/// even when the template carries a large warm session database.
///
/// Counter budgets are charged to the shared [`BudgetPool`] (never a
/// per-worker residue, which would let the fleet spend N× the caller's
/// budget); once the fleet-stop token fires, the rest of the queue is
/// drained as unexplored-`BOTTOM` outcomes without touching the solver.
#[allow(clippy::too_many_arguments)]
fn run_worker(
    worker_id: usize,
    config: SuccessDrivenAllSat,
    cnf: &Cnf,
    important: &[Var],
    template: &Solver,
    base: &[Lit],
    limits: &EnumLimits,
    next_cube: &AtomicUsize,
    stop_all: &CancelToken,
    solutions_total: &AtomicU64,
    pool: Option<BudgetPool>,
    num_cubes: usize,
    kp: usize,
) -> (SolutionGraph, Vec<CubeOutcome>) {
    let mut state = SearchState::new(template.clone_at_root(), config, cnf, important);
    state.solver.set_pool(pool);
    let mut outcomes = Vec::new();

    loop {
        let index = next_cube.fetch_add(1, Ordering::Relaxed);
        if index >= num_cubes {
            break;
        }
        if stop_all.is_cancelled() {
            // Drain mode: keep the cube accounted for, do no work.
            let stats = EnumerationStats {
                cancelled_cubes: 1,
                ..EnumerationStats::default()
            };
            outcomes.push(CubeOutcome {
                index: index as u32,
                worker: worker_id,
                root: SolutionNodeId::BOTTOM,
                stats,
                events: Vec::new(),
                stopped: None,
                cancelled: true,
            });
            continue;
        }
        // The cube's phases seed the first `kp` branching levels, behind
        // `base` (e.g. a session activation literal).
        let seed: Vec<bool> = (0..kp).map(|level| index >> level & 1 == 1).collect();
        // The counter limits live in the shared pool; the deadline is an
        // absolute instant, so copying it shares it. The solution cap
        // leaves out what the fleet found before this cube.
        let cube_limits = EnumLimits {
            budget: Budget {
                conflicts: None,
                propagations: None,
                deadline: limits.budget.deadline,
            },
            cancel: limits.cancel.clone(),
            max_solutions: limits
                .max_solutions
                .map(|max| max.saturating_sub(solutions_total.load(Ordering::Relaxed))),
        };
        state.solver.reset_stats();
        let mut events = VecSink::new();
        let outcome = state.run(cnf, important, base, &seed, &cube_limits, &mut events);
        solutions_total.fetch_add(outcome.solutions, Ordering::Relaxed);
        if outcome.stop.is_some() {
            stop_all.cancel();
        }
        let mut stats = outcome.stats;
        stats.max_cube_conflicts = stats.max_cube_conflicts.max(stats.sat.conflicts);
        outcomes.push(CubeOutcome {
            index: index as u32,
            worker: worker_id,
            root: outcome.root,
            stats,
            events: events.events,
            stopped: outcome.stop,
            cancelled: false,
        });
    }
    (state.graph, outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use presat_logic::{truth_table, Cnf, Var};

    fn lit(v: usize, pos: bool) -> Lit {
        Lit::with_phase(Var::new(v), pos)
    }

    fn random_cnf(seed: u64, n: usize, m: usize) -> Cnf {
        use presat_logic::rng::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut cnf = Cnf::new(n);
        for _ in 0..m {
            let c: Vec<Lit> = (0..3)
                .map(|_| lit(rng.gen_range(0..n), rng.gen_bool(0.5)))
                .collect();
            cnf.add_clause(c);
        }
        cnf
    }

    #[test]
    fn prefix_len_is_monotone_and_capped() {
        assert_eq!(prefix_len(2, 20), 3); // 8 cubes for 2 workers
        assert_eq!(prefix_len(4, 20), 4); // 16 cubes for 4
        assert_eq!(prefix_len(64, 20), MAX_PREFIX);
        assert_eq!(prefix_len(4, 2), 2); // capped at k
        assert_eq!(prefix_len(1, 20), 2);
    }

    #[test]
    fn matches_sequential_bit_for_bit() {
        for seed in 0..8 {
            let n = 8;
            let cnf = random_cnf(seed, n, 18);
            let important: Vec<Var> = Var::range(6).collect();
            let p = AllSatProblem::new(cnf, important);
            let seq = SuccessDrivenAllSat::new().enumerate(&p);
            for jobs in [2, 3, 4, 7] {
                let par = ParallelAllSat::new(jobs).enumerate(&p);
                assert_eq!(par.cubes, seq.cubes, "seed {seed} jobs {jobs}");
                assert_eq!(
                    par.stats.graph_nodes, seq.stats.graph_nodes,
                    "seed {seed} jobs {jobs}"
                );
            }
        }
    }

    #[test]
    fn agrees_with_truth_table_oracle() {
        for seed in 20..26 {
            let n = 7;
            let cnf = random_cnf(seed, n, 14);
            let important: Vec<Var> = Var::range(5).collect();
            let p = AllSatProblem::new(cnf.clone(), important.clone());
            let expect = truth_table::project_models_set(&cnf, &important);
            let r = ParallelAllSat::new(4).enumerate(&p);
            assert!(r.cubes.semantically_eq(&expect, &important), "seed {seed}");
        }
    }

    #[test]
    fn unsat_problem_yields_empty_set() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause([lit(0, true)]);
        cnf.add_clause([lit(0, false)]);
        let p = AllSatProblem::new(cnf, (0..3).map(Var::new).collect());
        let r = ParallelAllSat::new(4).enumerate(&p);
        assert!(r.cubes.is_empty());
        let (_, root) = r.graph.expect("graph always built");
        assert_eq!(root, SolutionNodeId::BOTTOM);
    }

    #[test]
    fn tautology_collapses_to_universe() {
        // No constraints at all: every cube's subspace is TOP, and the
        // merge must collapse the whole prefix tree back to TOP.
        let cnf = Cnf::new(4);
        let p = AllSatProblem::new(cnf, (0..4).map(Var::new).collect());
        let r = ParallelAllSat::new(4).enumerate(&p);
        assert!(r.cubes.is_universe());
        let (_, root) = r.graph.expect("graph");
        assert_eq!(root, SolutionNodeId::TOP);
        assert_eq!(r.stats.graph_nodes, 1);
    }

    #[test]
    fn jobs_one_delegates_to_sequential() {
        let cnf = random_cnf(3, 6, 10);
        let p = AllSatProblem::new(cnf, (0..4).map(Var::new).collect());
        let seq = SuccessDrivenAllSat::new().enumerate(&p);
        let par = ParallelAllSat::new(1).enumerate(&p);
        assert_eq!(par.cubes, seq.cubes);
        // Delegation means identical work, too.
        assert_eq!(par.stats.solver_calls, seq.stats.solver_calls);
    }

    #[test]
    fn par_threshold_gates_small_problems_sequential() {
        let cnf = random_cnf(3, 6, 10);
        let p = AllSatProblem::new(cnf, (0..4).map(Var::new).collect());
        let seq = SuccessDrivenAllSat::new().enumerate(&p);
        let cubes_done = |engine: ParallelAllSat| {
            let mut sink = VecSink::new();
            let r = engine.enumerate_with_sink(&p, &mut sink);
            assert_eq!(r.cubes, seq.cubes);
            (r, sink.count(|e| matches!(e, Event::CubeDone { .. })))
        };
        // k * clauses = 40 < 1000: the gate must route to the sequential
        // engine (identical work, no partition cube), despite jobs = 4.
        let (gated, cubes) = cubes_done(ParallelAllSat::new(4).with_par_threshold(1000));
        assert_eq!(gated.stats.solver_calls, seq.stats.solver_calls);
        assert_eq!(cubes, 0);
        // Threshold 0 disables the gate: the fleet runs every cube.
        let (_, cubes) = cubes_done(ParallelAllSat::new(4).with_par_threshold(0));
        assert_eq!(cubes, 1 << prefix_len(4, 4));
    }

    #[test]
    fn ablation_configs_stay_deterministic() {
        let cnf = random_cnf(11, 7, 15);
        let important: Vec<Var> = Var::range(5).collect();
        let p = AllSatProblem::new(cnf, important);
        for mode in [
            SignatureMode::None,
            SignatureMode::Static,
            SignatureMode::Dynamic,
        ] {
            let seq = SuccessDrivenAllSat::new()
                .with_signature(mode)
                .enumerate(&p);
            let par = ParallelAllSat::new(4).with_signature(mode).enumerate(&p);
            assert_eq!(par.cubes, seq.cubes, "mode {mode:?}");
        }
    }

    #[test]
    fn partition_cubes_refuted_by_propagation_skip_their_solve() {
        // The chain x0 → x1 → x2 → x3: half of the 2^3 partition cubes
        // over x0..x2 contradict it, and propagation alone says so.
        let mut cnf = Cnf::new(4);
        for i in 0..3 {
            cnf.add_clause([lit(i, false), lit(i + 1, true)]);
        }
        let p = AllSatProblem::new(cnf, (0..4).map(Var::new).collect());
        assert_eq!(prefix_len(2, 4), 3);
        let r = ParallelAllSat::new(2).enumerate(&p);
        assert_eq!(r.cubes, SuccessDrivenAllSat::new().enumerate(&p).cubes);
        assert_eq!(r.minterm_count(4), 5);
        // One call per live cube, plus one for the free x3 below x0 = 0.
        assert_eq!(r.stats.solver_calls, 5);
    }

    #[test]
    fn cube_done_events_cover_every_partition_cube() {
        let cnf = random_cnf(5, 7, 12);
        let p = AllSatProblem::new(cnf, (0..5).map(Var::new).collect());
        let mut sink = VecSink::new();
        let result = ParallelAllSat::new(2).enumerate_with_sink(&p, &mut sink);
        let per_cube: Vec<(u32, u64)> = sink
            .events
            .iter()
            .filter_map(|e| match *e {
                Event::CubeDone {
                    cube_index,
                    solver_calls,
                } => Some((cube_index, solver_calls)),
                _ => None,
            })
            .collect();
        let kp = prefix_len(2, 5);
        assert_eq!(per_cube.len(), 1 << kp);
        // Replayed in cube order, covering 0..2^kp exactly once.
        let indices: Vec<u32> = per_cube.iter().map(|&(i, _)| i).collect();
        assert_eq!(indices, (0..1u32 << kp).collect::<Vec<_>>());
        // Per-cube solver calls sum to the merged total.
        let total: u64 = per_cube.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, result.stats.solver_calls);
    }
}
