//! Resource budgets and cooperative cancellation for anytime solving.
//!
//! A [`Budget`] bounds how much work the *next* solve calls may do
//! (conflicts, propagations, a wall-clock deadline); a [`CancelToken`] lets
//! another thread ask a running search to stop. Both are polled
//! cooperatively in the CDCL search loop — cheaply enough that an
//! unbudgeted solver pays a single predicted branch per conflict and per
//! decision — and both surface as
//! [`SolveResult::Unknown`](crate::SolveResult::Unknown) with a
//! [`StopReason`], **never** as a spurious `Unsat`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::types::StopReason;

/// Resource limits for a solver's upcoming work.
///
/// The default budget is unlimited. Each limit is independent; the first
/// one to trip stops the search with the matching [`StopReason`]. Budgets
/// are *cumulative across calls* once installed with
/// [`Solver::set_budget`](crate::Solver::set_budget): an enumeration engine
/// installs one budget and the whole multi-call enumeration shares it.
#[derive(Clone, Copy, Debug, Default)]
pub struct Budget {
    /// Maximum additional conflicts before stopping.
    pub conflicts: Option<u64>,
    /// Maximum additional propagations before stopping.
    pub propagations: Option<u64>,
    /// Absolute wall-clock instant after which the search stops.
    pub deadline: Option<Instant>,
}

impl Budget {
    /// The unlimited budget (same as `Budget::default()`).
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Caps additional conflicts.
    pub fn with_conflicts(mut self, conflicts: u64) -> Self {
        self.conflicts = Some(conflicts);
        self
    }

    /// Caps additional propagations.
    pub fn with_propagations(mut self, propagations: u64) -> Self {
        self.propagations = Some(propagations);
        self
    }

    /// Sets an absolute wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the deadline `timeout` from now.
    ///
    /// A `timeout` too large to be meaningful (for example
    /// `Duration::from_millis(u64::MAX)` from an untrusted `--timeout-ms`)
    /// means "effectively no deadline" and leaves the budget's deadline
    /// unset. The explicit cutoff keeps the behaviour identical across
    /// platforms — how much headroom `Instant` itself has before
    /// overflowing varies by target — and `checked_add` still backstops
    /// the representational limit below it.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        // ~35,000 years.
        const FOREVER: Duration = Duration::from_secs(1 << 40);
        self.deadline = if timeout >= FOREVER {
            None
        } else {
            Instant::now().checked_add(timeout)
        };
        self
    }

    /// `true` if no limit is set (the default).
    pub fn is_unlimited(&self) -> bool {
        self.conflicts.is_none() && self.propagations.is_none() && self.deadline.is_none()
    }

    /// Clips this budget to another: counter limits take the minimum,
    /// deadlines the earliest, and a limit absent on one side is inherited
    /// from the other. This is the slice-scheduling primitive — "one
    /// quantum, but never more than the request has left" — which is how
    /// the reachability loop bounds each step.
    pub fn clipped_to(&self, other: &Budget) -> Budget {
        let min_opt = |a: Option<u64>, b: Option<u64>| match (a, b) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (x, None) => x,
            (None, y) => y,
        };
        Budget {
            conflicts: min_opt(self.conflicts, other.conflicts),
            propagations: min_opt(self.propagations, other.propagations),
            deadline: match (self.deadline, other.deadline) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, None) => a,
                (None, b) => b,
            },
        }
    }
}

/// A shared cooperative-cancellation flag.
///
/// Clones share one underlying flag (`Arc<AtomicBool>`): hand clones to any
/// number of running engines or worker threads, then [`cancel`] from
/// anywhere. A cancelled search stops at its next poll point and returns
/// [`SolveResult::Unknown`](crate::SolveResult::Unknown) with
/// [`StopReason::Cancelled`]; enumeration engines flag their partial result
/// `complete = false`. Cancellation is sticky — there is deliberately no
/// reset, so a token cannot be un-cancelled under a running worker's feet.
///
/// [`cancel`]: CancelToken::cancel
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Creates a fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation; every clone of this token observes it.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// `true` once [`CancelToken::cancel`] has been called on any clone.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A shared counter-budget pool for partitioned (multi-worker) search.
///
/// A [`Budget`]'s counter limits installed per worker multiply: N workers
/// each given "1000 conflicts" may jointly spend 1000·N. A `BudgetPool`
/// instead holds *one* pot of conflicts/propagations that every clone
/// draws from: workers periodically [`charge`](BudgetPool::charge) the
/// work they did since their last charge, and the first charge that
/// crosses a limit — on whichever worker — trips the matching
/// [`StopReason`] for the whole fleet. Charging is a single
/// `fetch_add` per counter, so the pot may overshoot by at most one
/// batch (one conflict, when charged per conflict) per worker.
///
/// Wall-clock deadlines need no pool — an absolute [`Budget::deadline`]
/// is already shared by construction.
#[derive(Clone, Debug)]
pub struct BudgetPool {
    inner: Arc<PoolInner>,
}

#[derive(Debug)]
struct PoolInner {
    /// `u64::MAX` means unlimited.
    conflict_limit: u64,
    /// `u64::MAX` means unlimited.
    propagation_limit: u64,
    conflicts_spent: AtomicU64,
    propagations_spent: AtomicU64,
}

impl BudgetPool {
    /// Builds a pool holding `budget`'s counter limits, or `None` if the
    /// budget has no counter limits (a deadline alone needs no pool).
    pub fn from_budget(budget: &Budget) -> Option<BudgetPool> {
        if budget.conflicts.is_none() && budget.propagations.is_none() {
            return None;
        }
        Some(BudgetPool {
            inner: Arc::new(PoolInner {
                conflict_limit: budget.conflicts.unwrap_or(u64::MAX),
                propagation_limit: budget.propagations.unwrap_or(u64::MAX),
                conflicts_spent: AtomicU64::new(0),
                propagations_spent: AtomicU64::new(0),
            }),
        })
    }

    /// Draws `conflicts`/`propagations` units from the pot and reports the
    /// first limit now crossed, if any. Charging zero units is a pure
    /// exhaustion check.
    pub fn charge(&self, conflicts: u64, propagations: u64) -> Option<StopReason> {
        let inner = &*self.inner;
        let spent_c = inner
            .conflicts_spent
            .fetch_add(conflicts, Ordering::Relaxed)
            .saturating_add(conflicts);
        if spent_c >= inner.conflict_limit {
            return Some(StopReason::Conflicts);
        }
        let spent_p = inner
            .propagations_spent
            .fetch_add(propagations, Ordering::Relaxed)
            .saturating_add(propagations);
        if spent_p >= inner.propagation_limit {
            return Some(StopReason::Propagations);
        }
        None
    }

    /// `Some(reason)` once the pot has been drawn past a limit.
    pub fn exhausted(&self) -> Option<StopReason> {
        self.charge(0, 0)
    }

    /// Total conflicts charged so far (for accounting and tests).
    pub fn conflicts_spent(&self) -> u64 {
        self.inner.conflicts_spent.load(Ordering::Relaxed)
    }

    /// Total propagations charged so far (for accounting and tests).
    pub fn propagations_spent(&self) -> u64 {
        self.inner.propagations_spent.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_unlimited() {
        assert!(Budget::default().is_unlimited());
        assert!(Budget::unlimited().is_unlimited());
        assert!(!Budget::default().with_conflicts(5).is_unlimited());
        assert!(!Budget::default().with_propagations(5).is_unlimited());
        assert!(!Budget::default()
            .with_timeout(Duration::from_millis(1))
            .is_unlimited());
    }

    #[test]
    fn huge_timeout_means_no_deadline_not_a_panic() {
        // Regression: `Instant::now() + Duration::from_millis(u64::MAX)`
        // overflows `Instant` and panicked; an untrusted `--timeout-ms`
        // must instead mean "effectively unlimited".
        let b = Budget::unlimited().with_timeout(Duration::from_millis(u64::MAX));
        assert!(b.deadline.is_none());
        assert!(b.is_unlimited());
        let b = Budget::unlimited().with_timeout(Duration::MAX);
        assert!(b.deadline.is_none());
        // Sane timeouts still install a real deadline.
        let b = Budget::unlimited().with_timeout(Duration::from_millis(10));
        assert!(b.deadline.is_some());
    }

    #[test]
    fn clipped_to_takes_minima_and_inherits_missing_limits() {
        let quantum = Budget::unlimited().with_conflicts(100);
        let remaining = Budget::unlimited()
            .with_conflicts(40)
            .with_propagations(7);
        let slice = quantum.clipped_to(&remaining);
        assert_eq!(slice.conflicts, Some(40));
        assert_eq!(slice.propagations, Some(7));
        assert!(slice.deadline.is_none());

        let early = Instant::now();
        let late = early + Duration::from_secs(60);
        let a = Budget::unlimited().with_deadline(late);
        let b = Budget::unlimited().with_deadline(early);
        assert_eq!(a.clipped_to(&b).deadline, Some(early));
        assert_eq!(a.clipped_to(&Budget::unlimited()).deadline, Some(late));

        // Clipping to the unlimited budget is the identity.
        let c = Budget::unlimited().with_conflicts(3);
        let clipped = c.clipped_to(&Budget::unlimited());
        assert_eq!(clipped.conflicts, Some(3));
        assert!(clipped.propagations.is_none());
    }

    #[test]
    fn pool_clones_share_one_pot() {
        let pool = BudgetPool::from_budget(&Budget::unlimited().with_conflicts(3)).unwrap();
        let clone = pool.clone();
        assert!(pool.exhausted().is_none());
        assert_eq!(clone.charge(2, 0), None);
        assert_eq!(pool.charge(1, 0), Some(StopReason::Conflicts));
        assert_eq!(clone.exhausted(), Some(StopReason::Conflicts));
        assert_eq!(pool.conflicts_spent(), 3);
    }

    #[test]
    fn pool_needs_a_counter_limit() {
        assert!(BudgetPool::from_budget(&Budget::unlimited()).is_none());
        assert!(BudgetPool::from_budget(
            &Budget::unlimited().with_timeout(Duration::from_millis(1))
        )
        .is_none());
        assert!(BudgetPool::from_budget(&Budget::unlimited().with_propagations(7)).is_some());
    }

    #[test]
    fn zero_budget_pool_is_born_exhausted() {
        let pool = BudgetPool::from_budget(&Budget::unlimited().with_conflicts(0)).unwrap();
        assert_eq!(pool.exhausted(), Some(StopReason::Conflicts));
    }

    #[test]
    fn cancel_token_clones_share_the_flag() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!t.is_cancelled());
        assert!(!u.is_cancelled());
        u.cancel();
        assert!(t.is_cancelled());
        assert!(u.is_cancelled());
    }
}
