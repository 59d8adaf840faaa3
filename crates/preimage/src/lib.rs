//! Preimage computation and backward reachability for sequential circuits.
//!
//! Given a [`presat_circuit::Circuit`] and a target set of states
//! ([`StateSet`]), the preimage is the set of present states from which
//! *some* primary-input assignment drives the circuit into the target in
//! one clock cycle:
//!
//! ```text
//! Pre(T)(X) = ∃W ∃Y . T(Y) ∧ ∏j (yj ↔ fj(X, W))
//! ```
//!
//! Engines:
//!
//! * [`SatPreimage`] — encodes the step relation to CNF ([`StepEncoding`])
//!   and runs one of the all-solutions engines from `presat-allsat` with
//!   the present-state variables as the important set;
//! * [`BddPreimage`] — the classical symbolic baseline: build the
//!   next-state functions as BDDs and either substitute them into the
//!   target or conjoin a monolithic transition relation and quantify;
//! * [`oracle`] — exhaustive simulation for small circuits, the ground
//!   truth for every test.
//!
//! [`backward_reach`] iterates any engine to a fixed point, the standard
//! backward-reachability loop of unbounded model checking.
//!
//! # Examples
//!
//! ```
//! use presat_circuit::generators;
//! use presat_preimage::{PreimageEngine, SatPreimage, StateSet};
//!
//! let c = generators::counter(4, false);          // 4-bit counter
//! let target = StateSet::from_state_bits(9, 4);   // the state «9»
//! let result = SatPreimage::success_driven().preimage(&c, &target);
//! // the only predecessor of 9 is 8
//! assert_eq!(result.states.minterm_count(4), 1);
//! assert!(result.states.contains_bits(8, 4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bdd_engine;
mod encoding;
mod engine;
mod image;
mod justify;
pub mod oracle;
mod output;
mod reach;
mod sat_engine;
mod session;
pub mod spec;
mod state_set;
mod unrolled;

pub use bdd_engine::{BddPreimage, BddStrategy};
pub use encoding::{ImageEncoding, StepBase, StepEncoding};
pub use engine::{PreimageEngine, PreimageResult, PreimageStats};
pub use image::{bdd_image, forward_reach, sat_image, sequential_depth};
pub use justify::{justify, Trace, TraceStep};
pub use output::excitation_set;
pub use reach::{
    backward_reach, backward_reach_with_sink, ReachDriver, ReachIteration, ReachOptions,
    ReachReport, ReachStep,
};
pub use sat_engine::SatPreimage;
pub use session::SatPreimageSession;
pub use spec::{parse_bits64, parse_state_bits, parse_state_spec};
pub use state_set::StateSet;
pub use unrolled::{k_step_preimage, UnrolledEncoding};
