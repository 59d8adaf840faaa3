//! Why an engine stopped before finishing: the shared [`StopReason`] enum.
//!
//! The type lives here (rather than in `presat-sat`) because the
//! observability layer is the dependency root of the workspace: the
//! [`Event::BudgetStop`](crate::Event::BudgetStop) trace event carries a
//! `StopReason`, and every layer above — solver, enumeration engines,
//! preimage/fixed-point — re-exports it so that a partial result can say
//! *why* it is partial.

use std::fmt;

/// The reason an anytime engine stopped before exhausting its search space.
///
/// A result carrying a `StopReason` is *partial but sound*: everything
/// reported was verified, nothing is fabricated. `StopReason` never means
/// "unsatisfiable" — that is a definitive answer, not a stop.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// The conflict budget was exhausted.
    Conflicts,
    /// The propagation budget was exhausted.
    Propagations,
    /// The wall-clock deadline passed.
    Deadline,
    /// A cooperative cancellation token was triggered.
    Cancelled,
    /// The requested maximum number of solutions was reached.
    MaxSolutions,
    /// An internal resource limit (e.g. the clause arena) was hit.
    ResourceExhausted,
}

impl StopReason {
    /// Stable lower-snake-case name, used in JSON output and CLI messages.
    pub fn as_str(self) -> &'static str {
        match self {
            StopReason::Conflicts => "conflicts",
            StopReason::Propagations => "propagations",
            StopReason::Deadline => "deadline",
            StopReason::Cancelled => "cancelled",
            StopReason::MaxSolutions => "max_solutions",
            StopReason::ResourceExhausted => "resource_exhausted",
        }
    }
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_and_snake_case() {
        for r in [
            StopReason::Conflicts,
            StopReason::Propagations,
            StopReason::Deadline,
            StopReason::Cancelled,
            StopReason::MaxSolutions,
            StopReason::ResourceExhausted,
        ] {
            let s = r.as_str();
            assert!(!s.is_empty());
            assert!(s.chars().all(|c| c.is_ascii_lowercase() || c == '_'));
            assert_eq!(r.to_string(), s);
        }
    }
}
