//! A from-scratch CDCL SAT solver.
//!
//! `presat-sat` implements the full conflict-driven clause-learning pipeline
//! that a 2004-era competitive solver (GRASP / zChaff class) would provide —
//! two-watched-literal unit propagation, first-UIP conflict analysis with
//! clause minimization, VSIDS decision ordering with phase saving, Luby
//! restarts, and LBD-guided learnt-clause database reduction — plus the
//! modern *incremental* interface (solving under assumptions with UNSAT-core
//! extraction over the assumptions) that the all-solutions engines in
//! `presat-allsat` are built on.
//!
//! No external solver is linked; this crate is self-contained on purpose so
//! that every engine in the workspace shares one well-tested substrate.
//!
//! # Examples
//!
//! ```
//! use presat_logic::{Cnf, Lit, Var};
//! use presat_sat::{SolveResult, Solver};
//!
//! let a = Var::new(0);
//! let b = Var::new(1);
//! let mut cnf = Cnf::new(2);
//! cnf.add_clause([Lit::pos(a), Lit::pos(b)]);
//! cnf.add_clause([Lit::neg(a), Lit::pos(b)]);
//!
//! let mut solver = Solver::from_cnf(&cnf);
//! match solver.solve() {
//!     SolveResult::Sat(model) => assert_eq!(model.value(b), Some(true)),
//!     SolveResult::Unsat => unreachable!("formula is satisfiable"),
//!     SolveResult::Unknown(reason) => unreachable!("no budget installed: {reason}"),
//! }
//!
//! // Incremental: the same solver, now under an assumption.
//! let under = solver.solve_with_assumptions(&[Lit::neg(b)]);
//! assert!(matches!(under, SolveResult::Unsat));
//! assert_eq!(solver.unsat_core(), &[Lit::neg(b)]);
//! ```
//!
//! # Anytime solving
//!
//! Solves are *three-valued*: under a [`Budget`] (conflicts, propagations,
//! wall-clock deadline) or a shared [`CancelToken`], a search that stops
//! early answers [`SolveResult::Unknown`] with a [`StopReason`] — never a
//! spurious `Unsat`.
//!
//! ```
//! use presat_logic::{Lit, Var};
//! use presat_sat::{Budget, SolveResult, Solver};
//!
//! let mut s = Solver::new(1);
//! s.add_clause([Lit::pos(Var::new(0))]);
//! s.set_budget(Budget::unlimited().with_conflicts(0));
//! assert!(matches!(s.solve(), SolveResult::Sat(_) | SolveResult::Unknown(_)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod clause;
mod heap;
mod solver;
mod subsume;
mod types;

pub use budget::{Budget, BudgetPool, CancelToken};
pub use solver::Solver;
pub use types::{Lbool, SolveResult, SolverStats, StopReason};
