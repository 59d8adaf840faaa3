//! Resource limits for anytime all-SAT enumeration.
//!
//! [`EnumLimits`] bundles everything that can stop an enumeration before it
//! is exhaustive: a solver [`Budget`] (conflicts, propagations, wall-clock
//! deadline), a shared [`CancelToken`], and a solution-count cap. Every
//! engine accepts an `EnumLimits` via
//! [`AllSatEngine::enumerate_limited`](crate::AllSatEngine::enumerate_limited);
//! a run that stops early returns a *partial but sound* result — the cubes
//! found so far, flagged `complete = false` with a [`StopReason`] — never a
//! spurious empty set.

use presat_sat::{Budget, CancelToken, StopReason};

/// Limits for one enumeration run. The default is unlimited.
///
/// * `budget` — forwarded to the CDCL sub-solver(s). On the parallel
///   engine, counter limits (conflicts/propagations) are drawn from one
///   pool that every worker charges, so the fleet spends them once; the
///   wall-clock deadline is absolute and thus shared.
/// * `cancel` — a shared cooperative flag; every sub-solver polls it.
/// * `max_solutions` — stop once at least this many solutions (projected
///   minterms) have been enumerated. The result may slightly overshoot the
///   cap: subspace reuse and parallel workers account solutions in batches,
///   and everything already verified is kept rather than discarded.
#[derive(Clone, Debug, Default)]
pub struct EnumLimits {
    /// Sub-solver resource budget.
    pub budget: Budget,
    /// Cooperative cancellation flag shared with the caller.
    pub cancel: Option<CancelToken>,
    /// Stop after at least this many solution minterms.
    pub max_solutions: Option<u64>,
}

impl EnumLimits {
    /// No limits (same as `EnumLimits::default()`).
    pub fn none() -> Self {
        EnumLimits::default()
    }

    /// Sets the sub-solver budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches a cancellation token.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Caps the number of enumerated solutions.
    pub fn with_max_solutions(mut self, max: u64) -> Self {
        self.max_solutions = Some(max);
        self
    }

    /// `true` if nothing is limited (the default).
    pub fn is_unlimited(&self) -> bool {
        self.budget.is_unlimited() && self.cancel.is_none() && self.max_solutions.is_none()
    }
}

/// Internal helper: the merged stop outcome of an enumeration — `None`
/// means the run was exhaustive.
pub(crate) fn first_reason(
    reasons: impl IntoIterator<Item = Option<StopReason>>,
) -> Option<StopReason> {
    reasons.into_iter().flatten().next()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unlimited() {
        assert!(EnumLimits::none().is_unlimited());
        assert!(!EnumLimits::none()
            .with_budget(Budget::unlimited().with_conflicts(1))
            .is_unlimited());
        assert!(!EnumLimits::none()
            .with_cancel(CancelToken::new())
            .is_unlimited());
        assert!(!EnumLimits::none().with_max_solutions(1).is_unlimited());
    }

    #[test]
    fn first_reason_picks_earliest_some() {
        assert_eq!(
            first_reason([
                None,
                Some(StopReason::Deadline),
                Some(StopReason::Cancelled)
            ]),
            Some(StopReason::Deadline)
        );
        assert_eq!(first_reason([None, None]), None);
    }
}
