//! Plain-`u64` work counters for the three instrumented layers.
//!
//! These are the *canonical* homes of the structs historically defined as
//! `presat_sat::SolverStats`, `presat_allsat::EnumerationStats`, and
//! `presat_preimage::PreimageStats`; those crates re-export them under the
//! old names so downstream code and the increment sites on the solver hot
//! loop are unchanged. Every struct here is `Copy`, counting into one
//! allocates nothing, and it is cheap enough to stay enabled in release
//! builds.
//!
//! Each layer is one `counters!` table: a row per counter gives its doc
//! comment, merge rule and name, and the macro derives the struct,
//! `absorb`, the report keys (`FIELDS`) and the values in key order, which
//! [`crate::Stats`] turns into JSON and CSV. Adding a counter is one row.

use std::fmt;

/// Declares one counter layer from a table of rows.
///
/// A row is `/// doc` then `<rule> <field>`, plus `as "<key>"` when the
/// report key differs from the field name, and `= <nested>.<field>` when
/// the counter mirrors one of the nested snapshot's. The merge rule says
/// how `absorb` folds another snapshot in: `sum` adds, `max` keeps the
/// larger (gauges and peaks), `runs` adds `max(other, 1)` (counts absorbed
/// runs). An optional `nested <field>: <type>;` after the table holds the
/// full snapshot of the layer below: `absorb` recurses into it, it has no
/// report keys here, and `nested <field>: <type>, fn <ctor>;` also derives
/// a constructor from it that fills in the mirrors.
macro_rules! counters {
    (@merge sum, $a:expr, $b:expr) => { $a += $b };
    (@merge max, $a:expr, $b:expr) => { $a = $a.max($b) };
    (@merge runs, $a:expr, $b:expr) => { $a += $b.max(1) };
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
    (@mirror) => { 0 };
    (@mirror $source:expr) => { $source };
    (@struct [$(#[$meta:meta])*] $name:ident
        [$($(#[$nested_meta:meta])* $nested:ident: $nested_ty:ty)?] {
        $(
            $(#[$row_meta:meta])*
            $rule:ident $field:ident $(as $key:literal)? $(= $layer:ident . $source:ident)?,
        )*
    }) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct $name {
            $(
                $(#[$row_meta])*
                pub $field: u64,
            )*
            $(
                $(#[$nested_meta])*
                pub $nested: $nested_ty,
            )?
        }

        impl $name {
            /// Report keys of this layer's counters, in emission order:
            /// [`crate::Stats`] writes each as JSON `<block>.<key>` and as
            /// CSV column `<block>_<key>`.
            pub const FIELDS: &'static [&'static str] = &[$(counters!(@key $field $($key)?)),*];

            /// The counter values, in [`Self::FIELDS`] order.
            pub fn values(&self) -> Vec<u64> {
                vec![$(self.$field),*]
            }

            /// Accumulates another snapshot into this one, each counter by
            /// its merge rule (work counters add; gauges and peaks take the
            /// maximum), then the nested snapshot likewise.
            pub fn absorb(&mut self, other: &$name) {
                $(counters!(@merge $rule, self.$field, other.$field);)*
                $(self.$nested.absorb(&other.$nested);)?
            }
        }
    };
    (@ctor $name:ident $ctor:ident $nested:ident $nested_ty:ty {
        $(
            $(#[$row_meta:meta])*
            $rule:ident $field:ident $(as $key:literal)? $(= $layer:ident . $source:ident)?,
        )*
    }) => {
        impl $name {
            /// A snapshot holding the nested one and the counters that
            /// mirror it, every other counter 0; callers fill those in with
            /// struct-update syntax.
            pub fn $ctor($nested: $nested_ty) -> Self {
                $name {
                    $($field: counters!(@mirror $($layer.$source)?),)*
                    $nested,
                }
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub struct $name:ident $rows:tt
        $(
            $(#[$nested_meta:meta])*
            nested $nested:ident: $nested_ty:ty $(, fn $ctor:ident)?;
        )?
    ) => {
        counters!(@struct [$(#[$meta])*] $name
            [$($(#[$nested_meta])* $nested: $nested_ty)?] $rows);
        $($(counters!(@ctor $name $ctor $nested $nested_ty $rows);)?)?
    };
}

counters! {
    /// Running counters describing the work a CDCL solver has done; useful for
    /// the benchmark tables and for regression tests on search behaviour.
    pub struct SatCounters {
        /// Number of top-level `solve*` calls.
        sum solves,
        /// Number of decisions made.
        sum decisions,
        /// Number of literals propagated.
        sum propagations,
        /// Binary-clause propagations served directly from the watcher entry
        /// (the clause arena was never touched).
        sum binary_skips,
        /// Number of conflicts analyzed.
        sum conflicts,
        /// Number of restarts performed.
        sum restarts,
        /// Number of learnt clauses currently in the database.
        sum learnt_clauses,
        /// Number of learnt clauses deleted by database reduction.
        sum deleted_clauses,
        /// Number of problem (non-learnt) clauses added.
        sum problem_clauses,
        /// High-water resident size of the flat clause arena in bytes (a gauge,
        /// not a rate: absorbing snapshots takes the maximum).
        max arena_bytes,
        /// Garbage-collecting compactions of the clause arena.
        sum db_compactions,
        /// Tombstoned clauses whose arena storage a compaction reclaimed.
        sum clauses_reclaimed,
        /// Root-level inprocessing rounds run at session boundaries.
        sum inprocess_rounds,
        /// Clauses deleted because another (sub)clause subsumes them —
        /// includes clauses satisfied by root units during inprocessing.
        sum subsumed_clauses,
        /// Literals erased from clauses by self-subsuming resolution, root
        /// falsification, or vivification during inprocessing.
        sum strengthened_lits,
        /// Clauses shortened by vivification (assume the negated clause
        /// literal-by-literal under propagation, keep the implied core).
        sum vivified_clauses,
        /// Always 0. Counted the lookahead probes of the retired adaptive cube
        /// tree; the row stays until the perf suite stops reading it.
        sum lookahead_probes,
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

counters! {
    /// Work counters shared by every all-solutions engine, reported in the
    /// evaluation tables.
    pub struct AllSatCounters {
        /// Calls into the CDCL sub-solver.
        sum solver_calls,
        /// Cubes emitted before any set-level absorption.
        sum cubes_emitted as "solutions",
        /// Blocking clauses added (zero for the success-driven engine).
        sum blocking_clauses,
        /// Total literal count of emitted cubes before lifting.
        sum literals_before_lift,
        /// Total literal count of emitted cubes after lifting.
        sum literals_after_lift,
        /// Success-cache hits (subspace reuse) — success-driven engine only.
        /// A node whose branching variable propagation already fixed makes
        /// no lookup under dynamic keys: its consistent child looks up for
        /// it, so it counts as neither a hit nor a miss.
        sum cache_hits,
        /// Success-cache misses — success-driven engine only. Like hits,
        /// nodes with an implied branching variable make no lookup under
        /// dynamic keys.
        sum cache_misses,
        /// Nodes in the resulting solution graph (success-driven engine only;
        /// a per-run peak).
        max graph_nodes,
        /// Conflicts reported by the underlying CDCL solver (mirrors
        /// `sat.conflicts`).
        sum sat_conflicts,
        /// Decisions reported by the underlying CDCL solver (mirrors
        /// `sat.decisions`).
        sum sat_decisions,
        /// Times an enumeration stopped early on a budget, deadline, or
        /// cancellation (0 on a complete run).
        sum budget_stops,
        /// Partition cubes abandoned without enumeration after a stop
        /// (parallel engine only; they are reported as empty and the result is
        /// flagged incomplete).
        sum cancelled_cubes,
        /// Chronological flips: one-level backtracks that replaced a blocking
        /// clause (chrono engine only).
        sum chrono_backtracks,
        /// Peak clause count of the sub-solver's database during the run:
        /// every problem clause the solver holds or held, inherited ones
        /// included (a session's earlier calls and retired groups, a
        /// partition worker's template), plus its live learnt clauses
        /// (`Solver::db_clauses`) — the gauge the DB-flatness experiment
        /// reads. Constant in the solution count for the chrono engine, linear
        /// for the blocking baselines.
        max db_clauses_peak,
        /// Always 0. Counted the dynamic cube splits of the retired adaptive
        /// cube tree; kept, like `steal_waits` and
        /// [`SatCounters::lookahead_probes`], until the perf suite stops
        /// reading it.
        sum cubes_split,
        /// Peak CDCL conflict count spent inside one (finished) cube — a
        /// gauge of partition balance: absorbing snapshots takes the maximum.
        max max_cube_conflicts,
        /// Always 0. Counted the waits of the retired adaptive cube tree's
        /// work queue; the static partition's workers never block.
        sum steal_waits,
        /// Literal-inclusion subsumption tests actually performed by the
        /// result cube store (after the signature prefilter).
        sum subsumption_checks,
        /// Candidate pairs the cube store's signature mask rejected with one
        /// AND, skipping the literal walk.
        sum sig_rejects,
        /// Candidate cubes the store's occurrence index handed to the
        /// prefilter — versus the full-store scans a naive insert would do.
        sum index_candidates,
    }
    /// Full counter snapshot of the underlying CDCL solver.
    nested sat: SatCounters;
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

counters! {
    /// Work and memory counters for one preimage computation, merging the
    /// SAT-side and BDD-side metrics into the columns the evaluation tables
    /// report. Absorbing runs (the backward-reachability fixed-point loop)
    /// sums work and time, keeps the peak sizes, and counts the runs in
    /// `iterations`.
    pub struct PreimageCounters {
        /// Cubes in the returned state set (a peak across absorbed runs).
        max result_cubes,
        /// Fixed-point iterations (1 for a one-step preimage; the frontier
        /// depth for backward reachability).
        runs iterations,
        /// Calls into the CDCL solver (SAT engines).
        sum solver_calls = allsat.solver_calls,
        /// Blocking clauses added (blocking-style SAT engines).
        sum blocking_clauses = allsat.blocking_clauses,
        /// Solution-graph nodes (success-driven engine).
        max graph_nodes = allsat.graph_nodes,
        /// Success-cache hits (success-driven engine); nodes with an
        /// implied branching variable make no lookup under dynamic keys.
        sum cache_hits = allsat.cache_hits,
        /// Peak BDD manager node count (BDD engine).
        max bdd_nodes,
        /// CDCL conflicts (SAT engines).
        sum sat_conflicts = allsat.sat_conflicts,
        /// Engine wall-clock time in nanoseconds.
        sum wall_time_ns,
        /// Preimage calls answered by a warm session encoding instead of a
        /// fresh transition-relation encoding (incremental sessions).
        sum encodings_reused,
        /// Learnt clauses alive in the persistent solver at call start, summed
        /// over calls (incremental sessions; 0 on the rebuild path).
        sum learnts_carried,
        /// Activation literals allocated for per-iteration clause groups
        /// (incremental sessions).
        sum activation_lits,
        /// Next-state cones skipped by the cone-of-influence reduction because
        /// the target's support never reaches them (single-step SAT encodings).
        sum cones_skipped,
    }
    /// Full counter snapshot of the underlying all-SAT layer (SAT engines).
    nested allsat: AllSatCounters, fn from_allsat;
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
    fn absorb_counts_runs_and_keeps_peaks() {
        let step = PreimageCounters {
            result_cubes: 3,
            graph_nodes: 4,
            solver_calls: 2,
            ..PreimageCounters::default()
        };
        let mut total = PreimageCounters::default();
        total.absorb(&step);
        total.absorb(&PreimageCounters {
            iterations: 2,
            result_cubes: 1,
            ..step
        });
        assert_eq!(total.iterations, 3, "a run reporting 0 iterations counts 1");
        assert_eq!(total.result_cubes, 3, "peak, not sum");
        assert_eq!(total.graph_nodes, 4, "peak, not sum");
        assert_eq!(total.solver_calls, 4);
    }

    #[test]
    fn from_allsat_fills_the_mirrors_and_nothing_else() {
        let allsat = AllSatCounters {
            solver_calls: 1,
            blocking_clauses: 2,
            graph_nodes: 3,
            cache_hits: 4,
            sat_conflicts: 5,
            cache_misses: 6,
            ..AllSatCounters::default()
        };
        let p = PreimageCounters::from_allsat(allsat);
        assert_eq!(p.allsat, allsat);
        let mirrors = [
            p.solver_calls,
            p.blocking_clauses,
            p.graph_nodes,
            p.cache_hits,
            p.sat_conflicts,
        ];
        assert_eq!(mirrors, [1, 2, 3, 4, 5]);
        assert_eq!(p.values().iter().sum::<u64>(), 15, "every other counter is 0");
    }

    #[test]
    fn display_formats_are_compact() {
        assert!(SatCounters::default().to_string().contains("solves=0"));
        assert!(AllSatCounters::default().to_string().contains("calls=0"));
        assert!(PreimageCounters::default().to_string().contains("cubes=0"));
    }
}
