//! Plain-`u64` work counters for the three instrumented layers.
//!
//! These are the *canonical* homes of the structs historically defined as
//! `presat_sat::SolverStats`, `presat_allsat::EnumerationStats`, and
//! `presat_preimage::PreimageStats`; those crates re-export them under the
//! old names so downstream code and the increment sites on the solver hot
//! loop are unchanged. Everything here is `Copy`, allocation-free, and
//! cheap enough to stay enabled in release builds.

use std::fmt;

/// Running counters describing the work a CDCL solver has done; useful for
/// the benchmark tables and for regression tests on search behaviour.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SatCounters {
    /// Number of top-level `solve*` calls.
    pub solves: u64,
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Binary-clause propagations served directly from the watcher entry
    /// (the clause arena was never touched).
    pub binary_skips: u64,
    /// Number of conflicts analyzed.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently in the database.
    pub learnt_clauses: u64,
    /// Number of learnt clauses deleted by database reduction.
    pub deleted_clauses: u64,
    /// Number of problem (non-learnt) clauses added.
    pub problem_clauses: u64,
    /// High-water resident size of the flat clause arena in bytes (a gauge,
    /// not a rate: absorbing snapshots takes the maximum).
    pub arena_bytes: u64,
    /// Garbage-collecting compactions of the clause arena.
    pub db_compactions: u64,
    /// Tombstoned clauses whose arena storage a compaction reclaimed.
    pub clauses_reclaimed: u64,
    /// Root-level inprocessing rounds run at session boundaries.
    pub inprocess_rounds: u64,
    /// Clauses deleted because another (sub)clause subsumes them —
    /// includes clauses satisfied by root units during inprocessing.
    pub subsumed_clauses: u64,
    /// Literals erased from clauses by self-subsuming resolution, root
    /// falsification, or vivification during inprocessing.
    pub strengthened_lits: u64,
    /// Clauses shortened by vivification (assume the negated clause
    /// literal-by-literal under propagation, keep the implied core).
    pub vivified_clauses: u64,
    /// Always 0. Counted the lookahead probes of the retired adaptive cube
    /// tree; the field, its JSON key and CSV column stay until the perf
    /// suite stops reading them.
    pub lookahead_probes: u64,
}

impl SatCounters {
    /// Accumulates another snapshot into this one (work counters additive;
    /// the `arena_bytes` gauge takes the maximum).
    pub fn absorb(&mut self, other: &SatCounters) {
        self.solves += other.solves;
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.binary_skips += other.binary_skips;
        self.conflicts += other.conflicts;
        self.restarts += other.restarts;
        self.learnt_clauses += other.learnt_clauses;
        self.deleted_clauses += other.deleted_clauses;
        self.problem_clauses += other.problem_clauses;
        self.arena_bytes = self.arena_bytes.max(other.arena_bytes);
        self.db_compactions += other.db_compactions;
        self.clauses_reclaimed += other.clauses_reclaimed;
        self.inprocess_rounds += other.inprocess_rounds;
        self.subsumed_clauses += other.subsumed_clauses;
        self.strengthened_lits += other.strengthened_lits;
        self.vivified_clauses += other.vivified_clauses;
        self.lookahead_probes += other.lookahead_probes;
    }
}

impl fmt::Display for SatCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "solves={} decisions={} propagations={} binskips={} conflicts={} restarts={} learnts={} deleted={}",
            self.solves,
            self.decisions,
            self.propagations,
            self.binary_skips,
            self.conflicts,
            self.restarts,
            self.learnt_clauses,
            self.deleted_clauses
        )
    }
}

/// Work counters shared by every all-solutions engine, reported in the
/// evaluation tables.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllSatCounters {
    /// Calls into the CDCL sub-solver.
    pub solver_calls: u64,
    /// Blocking clauses added (zero for the success-driven engine).
    pub blocking_clauses: u64,
    /// Cubes emitted before any set-level absorption.
    pub cubes_emitted: u64,
    /// Total literal count of emitted cubes before lifting.
    pub literals_before_lift: u64,
    /// Total literal count of emitted cubes after lifting.
    pub literals_after_lift: u64,
    /// Success-cache hits (subspace reuse) — success-driven engine only.
    pub cache_hits: u64,
    /// Success-cache misses — success-driven engine only.
    pub cache_misses: u64,
    /// Nodes in the resulting solution graph (success-driven engine only).
    pub graph_nodes: u64,
    /// Conflicts reported by the underlying CDCL solver.
    pub sat_conflicts: u64,
    /// Decisions reported by the underlying CDCL solver.
    pub sat_decisions: u64,
    /// Times an enumeration stopped early on a budget, deadline, or
    /// cancellation (0 on a complete run).
    pub budget_stops: u64,
    /// Partition cubes abandoned without enumeration after a stop
    /// (parallel engine only; they are reported as empty and the result is
    /// flagged incomplete).
    pub cancelled_cubes: u64,
    /// Chronological flips: one-level backtracks that replaced a blocking
    /// clause (chrono engine only).
    pub chrono_backtracks: u64,
    /// Peak live clause count (problem + learnt) in the sub-solver's
    /// database during the run — the gauge the DB-flatness experiment
    /// reads. Constant in the solution count for the chrono engine, linear
    /// for the blocking baselines.
    pub db_clauses_peak: u64,
    /// Always 0. Counted the dynamic cube splits of the retired adaptive
    /// cube tree; kept, like `steal_waits` and
    /// [`SatCounters::lookahead_probes`], until the perf suite stops
    /// reading it.
    pub cubes_split: u64,
    /// Peak CDCL conflict count spent inside one (finished) cube — a
    /// gauge of partition balance: absorbing snapshots takes the maximum.
    pub max_cube_conflicts: u64,
    /// Always 0. Counted the waits of the retired adaptive cube tree's
    /// work queue; the static partition's workers never block.
    pub steal_waits: u64,
    /// Literal-inclusion subsumption tests actually performed by the
    /// result cube store (after the signature prefilter).
    pub subsumption_checks: u64,
    /// Candidate pairs the cube store's signature mask rejected with one
    /// AND, skipping the literal walk.
    pub sig_rejects: u64,
    /// Candidate cubes the store's occurrence index handed to the
    /// prefilter — versus the full-store scans a naive insert would do.
    pub index_candidates: u64,
    /// Full counter snapshot of the underlying CDCL solver.
    pub sat: SatCounters,
}

impl AllSatCounters {
    /// Accumulates another snapshot into this one. Work counters are
    /// additive; `graph_nodes` (a per-run peak) takes the maximum.
    pub fn absorb(&mut self, other: &AllSatCounters) {
        self.solver_calls += other.solver_calls;
        self.blocking_clauses += other.blocking_clauses;
        self.cubes_emitted += other.cubes_emitted;
        self.literals_before_lift += other.literals_before_lift;
        self.literals_after_lift += other.literals_after_lift;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.graph_nodes = self.graph_nodes.max(other.graph_nodes);
        self.sat_conflicts += other.sat_conflicts;
        self.sat_decisions += other.sat_decisions;
        self.budget_stops += other.budget_stops;
        self.cancelled_cubes += other.cancelled_cubes;
        self.chrono_backtracks += other.chrono_backtracks;
        self.db_clauses_peak = self.db_clauses_peak.max(other.db_clauses_peak);
        self.cubes_split += other.cubes_split;
        self.max_cube_conflicts = self.max_cube_conflicts.max(other.max_cube_conflicts);
        self.steal_waits += other.steal_waits;
        self.subsumption_checks += other.subsumption_checks;
        self.sig_rejects += other.sig_rejects;
        self.index_candidates += other.index_candidates;
        self.sat.absorb(&other.sat);
    }
}

impl fmt::Display for AllSatCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "calls={} blocks={} cubes={} lift={}→{} cache={}/{} graph={}",
            self.solver_calls,
            self.blocking_clauses,
            self.cubes_emitted,
            self.literals_before_lift,
            self.literals_after_lift,
            self.cache_hits,
            self.cache_hits + self.cache_misses,
            self.graph_nodes
        )
    }
}

/// Work and memory counters for one preimage computation, merging the
/// SAT-side and BDD-side metrics into the columns the evaluation tables
/// report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PreimageCounters {
    /// Cubes in the returned state set.
    pub result_cubes: u64,
    /// Calls into the CDCL solver (SAT engines).
    pub solver_calls: u64,
    /// Blocking clauses added (blocking-style SAT engines).
    pub blocking_clauses: u64,
    /// Solution-graph nodes (success-driven engine).
    pub graph_nodes: u64,
    /// Success-cache hits (success-driven engine).
    pub cache_hits: u64,
    /// Peak BDD manager node count (BDD engine).
    pub bdd_nodes: u64,
    /// CDCL conflicts (SAT engines).
    pub sat_conflicts: u64,
    /// Fixed-point iterations (1 for a one-step preimage; the frontier
    /// depth for backward reachability).
    pub iterations: u64,
    /// Engine wall-clock time in nanoseconds.
    pub wall_time_ns: u64,
    /// Preimage calls answered by a warm session encoding instead of a
    /// fresh transition-relation encoding (incremental sessions).
    pub encodings_reused: u64,
    /// Learnt clauses alive in the persistent solver at call start, summed
    /// over calls (incremental sessions; 0 on the rebuild path).
    pub learnts_carried: u64,
    /// Activation literals allocated for per-iteration clause groups
    /// (incremental sessions).
    pub activation_lits: u64,
    /// Next-state cones skipped by the cone-of-influence reduction because
    /// the target's support never reaches them (single-step SAT encodings).
    pub cones_skipped: u64,
    /// Full counter snapshot of the underlying all-SAT layer (SAT engines).
    pub allsat: AllSatCounters,
}

impl PreimageCounters {
    /// Accumulates one preimage run's counters into a multi-iteration
    /// total (used by the backward-reachability fixed-point loop). Work
    /// counters and times are additive; `iterations` counts absorbed runs;
    /// peak sizes (`bdd_nodes`, `graph_nodes`, `result_cubes`) take the
    /// maximum.
    pub fn absorb(&mut self, other: &PreimageCounters) {
        self.result_cubes = self.result_cubes.max(other.result_cubes);
        self.solver_calls += other.solver_calls;
        self.blocking_clauses += other.blocking_clauses;
        self.graph_nodes = self.graph_nodes.max(other.graph_nodes);
        self.cache_hits += other.cache_hits;
        self.bdd_nodes = self.bdd_nodes.max(other.bdd_nodes);
        self.sat_conflicts += other.sat_conflicts;
        self.iterations += other.iterations.max(1);
        self.wall_time_ns += other.wall_time_ns;
        self.encodings_reused += other.encodings_reused;
        self.learnts_carried += other.learnts_carried;
        self.activation_lits += other.activation_lits;
        self.cones_skipped += other.cones_skipped;
        self.allsat.absorb(&other.allsat);
    }
}

impl fmt::Display for PreimageCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cubes={} calls={} blocks={} graph={} hits={} bdd={}",
            self.result_cubes,
            self.solver_calls,
            self.blocking_clauses,
            self.graph_nodes,
            self.cache_hits,
            self.bdd_nodes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_zero() {
        let s = SatCounters::default();
        assert_eq!(s.decisions + s.conflicts + s.propagations, 0);
        let a = AllSatCounters::default();
        assert_eq!(a.cubes_emitted + a.blocking_clauses, 0);
        assert_eq!(a.sat, SatCounters::default());
        let p = PreimageCounters::default();
        assert_eq!(p.iterations + p.wall_time_ns, 0);
    }

    #[test]
    fn absorb_treats_arena_bytes_as_a_gauge() {
        let mut a = SatCounters {
            arena_bytes: 100,
            db_compactions: 1,
            clauses_reclaimed: 3,
            ..SatCounters::default()
        };
        let b = SatCounters {
            arena_bytes: 40,
            db_compactions: 2,
            clauses_reclaimed: 5,
            ..SatCounters::default()
        };
        a.absorb(&b);
        assert_eq!(a.arena_bytes, 100, "gauge takes the max, not the sum");
        assert_eq!(a.db_compactions, 3);
        assert_eq!(a.clauses_reclaimed, 8);
    }

    #[test]
    fn display_formats_are_compact() {
        assert!(SatCounters::default().to_string().contains("solves=0"));
        assert!(AllSatCounters::default().to_string().contains("calls=0"));
        assert!(PreimageCounters::default().to_string().contains("cubes=0"));
    }
}
