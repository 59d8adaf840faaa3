//! All-solutions SAT engines for preimage computation.
//!
//! This crate is the primary contribution of the reproduced system: given a
//! CNF formula and a designated set of *important* variables (the
//! present-state variables, in preimage computation), enumerate the exact
//! projection of the formula's models onto the important variables.
//!
//! Four engines implement the common [`AllSatEngine`] interface:
//!
//! * [`BlockingAllSat`] — the classical baseline: repeat (solve → project
//!   model → add a minterm blocking clause) until UNSAT. One clause per
//!   solution minterm; `O(2^n)` clauses in the worst case.
//! * [`MinimizedBlockingAllSat`] — the stronger baseline: each model's
//!   projected cube is first *lifted* (literals are dropped while a
//!   clause-coverage certificate shows the cube still lies inside the
//!   projection), so each blocking clause eliminates `2^(n-k)` minterms at
//!   once.
//! * [`SuccessDrivenAllSat`] — the novel solver: a backtracking search over
//!   the important variables with a CDCL sub-solver for the don't-care
//!   variables, **no blocking clauses at all**, and *success-driven
//!   learning*: every fully-explored subspace is recorded in a shared
//!   [`SolutionGraph`] keyed by a sound connectivity signature, so
//!   isomorphic subspaces are solved once and reused. The solution graph is
//!   simultaneously the compact output representation of the preimage.
//! * [`ChronoAllSat`] — the modern blocking-clause-free alternative
//!   (Spallitta–Sebastiani–Biere): on each model, chronologically backtrack
//!   one level and flip the deepest open decision instead of asserting a
//!   blocking clause. Disjoint cubes, and a clause database whose size is
//!   independent of the solution count.
//!
//! # Examples
//!
//! Enumerate the projection of `(x0 ∨ x1) ∧ (aux ↔ x0)` onto `{x0, x1}`:
//!
//! ```
//! use presat_allsat::{AllSatEngine, AllSatProblem, SuccessDrivenAllSat};
//! use presat_logic::{Cnf, Lit, Var};
//!
//! let x0 = Var::new(0);
//! let x1 = Var::new(1);
//! let aux = Var::new(2);
//! let mut cnf = Cnf::new(3);
//! cnf.add_clause([Lit::pos(x0), Lit::pos(x1)]);
//! cnf.add_clause([Lit::neg(aux), Lit::pos(x0)]);
//! cnf.add_clause([Lit::pos(aux), Lit::neg(x0)]);
//!
//! let problem = AllSatProblem::new(cnf, vec![x0, x1]);
//! let result = SuccessDrivenAllSat::default().enumerate(&problem);
//! // three of the four (x0, x1) combinations satisfy x0 ∨ x1
//! assert_eq!(result.cubes.minterm_count(2), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blocking;
mod chrono;
mod engine;
mod incremental;
mod lift;
mod limits;
mod ordering;
mod parallel;
mod signature;
mod solution_graph;
mod success_driven;

pub use blocking::{BlockingAllSat, MinimizedBlockingAllSat};
pub use chrono::ChronoAllSat;
pub use engine::{AllSatEngine, AllSatProblem, AllSatResult, EnumerationStats};
pub use incremental::IncrementalAllSat;
pub use lift::lift_cube;
pub use limits::EnumLimits;
pub use ordering::{order_important, BranchOrder};
pub use parallel::{effective_jobs, ParallelAllSat, DEFAULT_PAR_THRESHOLD};
pub use solution_graph::{SolutionGraph, SolutionNodeId};
pub use success_driven::{SignatureMode, SuccessDrivenAllSat};

// Re-export the limit/cancellation vocabulary so downstream crates can
// build an `EnumLimits` without depending on `presat-sat` directly.
pub use presat_sat::{Budget, CancelToken, StopReason};
