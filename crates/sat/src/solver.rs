//! The CDCL search engine.

use std::time::Instant;

use presat_logic::{Assignment, Cnf, Lit, Var};

use crate::budget::{Budget, BudgetPool, CancelToken};
use crate::clause::{ClauseDb, ClauseRef};
use crate::heap::VarHeap;
use crate::types::{Lbool, SolveResult, SolverStats, StopReason};

// Root-level inprocessing lives in a sibling file but is a *child* module
// of `solver`, so it can reach the solver's private fields without
// widening their visibility.
#[path = "inprocess.rs"]
mod inprocess;

/// A watch-list entry for a clause of length ≥ 3: the clause plus a
/// *blocker* literal whose satisfaction lets propagation skip the clause
/// without touching its literal array.
///
/// Binary clauses do not live here at all — they get dedicated watch lists
/// (`Solver::bin_watches`) holding just the implied literal, so long-clause
/// visits never pay a `binary` branch and binary visits never carry a
/// `ClauseRef` (their reasons are encoded as [`Reason::Binary`]).
#[derive(Clone, Copy, Debug)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
}

/// Value of `lit` under a raw assignment slice. Free function so hot
/// loops can evaluate literals while other solver fields are mutably
/// borrowed (see `Solver::propagate`).
#[inline]
fn lit_val(assigns: &[Lbool], lit: Lit) -> Lbool {
    let v = assigns[lit.var().index()];
    if lit.is_pos() {
        v
    } else {
        !v
    }
}

/// Why a literal is on the trail.
///
/// Binary implications carry the clause's *other* literal instead of an
/// arena reference: conflict analysis only ever needs the antecedent
/// literals, and encoding them inline keeps binary propagation entirely out
/// of the clause arena (and frees garbage collection from remapping binary
/// reason slots — there is nothing to remap).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
enum Reason {
    /// A decision, an assumption, or a level-0 unit.
    #[default]
    None,
    /// Implied by a clause of length ≥ 3 in the arena.
    Long(ClauseRef),
    /// Implied by a binary clause; the payload is the clause's other (now
    /// falsified) literal.
    Binary(Lit),
}

/// A conflicting antecedent: either an arena clause or an inline binary
/// clause whose two literals are both falsified.
#[derive(Clone, Copy, Debug)]
enum Conflict {
    Long(ClauseRef),
    Binary(Lit, Lit),
}

const VAR_DECAY: f64 = 0.95;
const CLAUSE_DECAY: f64 = 0.999;
const RESCALE_LIMIT: f64 = 1e100;
const RESTART_BASE: u64 = 100;
/// Compaction trigger: collect once at least this many arena words exist
/// *and* the tombstoned share reaches [`GC_WASTE_DENOM`]⁻¹ of the arena.
/// Small enough that the embedded test circuits actually exercise GC.
const GC_MIN_WORDS: usize = 256;
/// Wasted-words ratio denominator: collect when `wasted * 4 >= arena`,
/// i.e. at 25% tombstoned storage.
const GC_WASTE_DENOM: usize = 4;
/// Wall-clock deadline polling stride: `Instant::now()` is checked once per
/// this many conflicts (and once per this many decisions on the decision
/// path) so unbudgeted and budgeted-but-not-expired runs never pay a
/// syscall per conflict. Counter and cancel-token checks are loads and run
/// at every poll point.
const TIME_POLL_STRIDE: u64 = 64;

/// An incremental CDCL SAT solver.
///
/// Construct with [`Solver::new`] or [`Solver::from_cnf`], add clauses with
/// [`Solver::add_clause`], and query with [`Solver::solve`] or
/// [`Solver::solve_with_assumptions`]. Clauses may be added between queries;
/// learnt clauses are retained across queries, which is what makes the
/// all-solutions engines built on top of this solver efficient.
///
/// # Examples
///
/// ```
/// use presat_logic::{Lit, Var};
/// use presat_sat::Solver;
///
/// let mut s = Solver::new(2);
/// let a = Lit::pos(Var::new(0));
/// let b = Lit::pos(Var::new(1));
/// s.add_clause([a, b]);
/// s.add_clause([!a, b]);
/// let result = s.solve();
/// assert!(result.is_sat());
/// ```
#[derive(Clone, Debug)]
pub struct Solver {
    db: ClauseDb,
    /// Indexed by `lit.code()`: watchers of clauses (length ≥ 3) that must
    /// be inspected when `lit` becomes **true** (they watch `!lit`).
    watches: Vec<Vec<Watcher>>,
    /// Indexed by `lit.code()`: for every binary clause `{!lit, other}`,
    /// the literal `other` implied when `lit` becomes true. Resolving a
    /// binary clause never touches the arena; entries are permanent
    /// (binary clauses are never deleted).
    bin_watches: Vec<Vec<Lit>>,
    assigns: Vec<Lbool>,
    levels: Vec<u32>,
    reasons: Vec<Reason>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    /// Scratch for `propagate`: watchers migrating to another literal's
    /// list are buffered here during a scan and appended afterwards, so
    /// the scanned list can stay under one split borrow. Always empty
    /// outside `propagate`.
    watch_moves: Vec<(Lit, Watcher)>,
    order: VarHeap,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    phase: Vec<bool>,
    /// `false` once the clause set is contradictory at level 0.
    ok: bool,
    seen: Vec<bool>,
    core: Vec<Lit>,
    stats: SolverStats,
    max_learnts: usize,
    /// Absolute conflict-count threshold (cumulative over the solver's
    /// lifetime) installed by [`Solver::set_budget`].
    limit_conflicts: Option<u64>,
    /// Absolute propagation-count threshold installed by
    /// [`Solver::set_budget`].
    limit_propagations: Option<u64>,
    /// Wall-clock deadline installed by [`Solver::set_budget`].
    deadline: Option<Instant>,
    /// Cooperative cancellation flag shared with other threads.
    cancel: Option<CancelToken>,
    /// Shared counter-budget pool installed by [`Solver::set_pool`]:
    /// partitioned-search workers all draw conflicts/propagations from
    /// this one pot instead of each spending a full private budget.
    pool: Option<BudgetPool>,
    /// Cumulative `stats.conflicts` already charged to `pool` — the
    /// baseline that [`Solver::charge_pool`] computes its delta against.
    pool_charged_conflicts: u64,
    /// Cumulative `stats.propagations` already charged to `pool`.
    pool_charged_propagations: u64,
    /// Cached `limit_* / deadline / cancel is set` so the search hot loop
    /// pays one predicted branch when no budget is installed.
    has_limits: bool,
    /// Sticky flag: a *problem* clause was dropped because the clause arena
    /// is full. The clause set no longer faithfully represents the input,
    /// so every later solve answers `Unknown(ResourceExhausted)`.
    resource_exhausted: bool,
    /// Problem clauses added over the solver's life: `stats.problem_clauses`
    /// without [`Solver::reset_stats`]'s zeroing (see [`Solver::db_clauses`]).
    problem_clauses_added: u64,
}

impl Solver {
    /// Creates a solver over `num_vars` variables and no clauses.
    pub fn new(num_vars: usize) -> Self {
        let mut s = Solver {
            db: ClauseDb::new(),
            watches: Vec::new(),
            bin_watches: Vec::new(),
            assigns: Vec::new(),
            levels: Vec::new(),
            reasons: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            watch_moves: Vec::new(),
            order: VarHeap::new(0),
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            phase: Vec::new(),
            ok: true,
            seen: Vec::new(),
            core: Vec::new(),
            stats: SolverStats::default(),
            max_learnts: 4000,
            limit_conflicts: None,
            limit_propagations: None,
            deadline: None,
            cancel: None,
            pool: None,
            pool_charged_conflicts: 0,
            pool_charged_propagations: 0,
            has_limits: false,
            resource_exhausted: false,
            problem_clauses_added: 0,
        };
        s.grow_to(num_vars);
        s
    }

    /// Creates a solver preloaded with all clauses of `cnf`.
    pub fn from_cnf(cnf: &Cnf) -> Self {
        let mut s = Solver::new(cnf.num_vars());
        for clause in cnf.clauses() {
            s.add_clause(clause.iter().copied());
        }
        s
    }

    /// Number of variables in the solver's variable space.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Allocates a fresh variable.
    pub fn add_var(&mut self) -> Var {
        let v = Var::new(self.num_vars());
        self.grow_to(v.index() + 1);
        v
    }

    /// Accumulated search statistics.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// The subset of the most recent call's assumptions proven jointly
    /// inconsistent with the formula (empty if the formula itself is
    /// unsatisfiable, or if the last call was satisfiable).
    pub fn unsat_core(&self) -> &[Lit] {
        &self.core
    }

    /// Installs a [`Budget`] for the upcoming solve calls. Counter limits
    /// are converted to absolute thresholds against the solver's cumulative
    /// statistics, so one installed budget is shared across *all* following
    /// calls until replaced — exactly what a multi-call enumeration wants.
    /// A search that trips a limit returns [`SolveResult::Unknown`] with
    /// the matching [`StopReason`] — never a spurious `Unsat`. Install
    /// [`Budget::unlimited`] to remove all limits.
    pub fn set_budget(&mut self, budget: Budget) {
        self.limit_conflicts = budget
            .conflicts
            .map(|c| self.stats.conflicts.saturating_add(c));
        self.limit_propagations = budget
            .propagations
            .map(|p| self.stats.propagations.saturating_add(p));
        self.deadline = budget.deadline;
        self.update_has_limits();
    }

    /// Attaches (or with `None` detaches) a shared [`CancelToken`]; once
    /// cancelled, running and future solves return
    /// `Unknown(`[`StopReason::Cancelled`]`)` at their next poll point.
    pub fn set_cancel(&mut self, cancel: Option<CancelToken>) {
        self.cancel = cancel;
        self.update_has_limits();
    }

    /// Attaches (or with `None` detaches) a shared [`BudgetPool`]. While
    /// attached, every poll point additionally charges this solver's
    /// conflict/propagation deltas against the pool; a pool limit tripping
    /// surfaces as `Unknown` with the matching [`StopReason`], exactly like
    /// a private budget. The charge baseline starts at the solver's
    /// *current* counters, so only work done after attachment is charged.
    pub fn set_pool(&mut self, pool: Option<BudgetPool>) {
        self.pool = pool;
        self.pool_charged_conflicts = self.stats.conflicts;
        self.pool_charged_propagations = self.stats.propagations;
        self.update_has_limits();
    }

    /// Charges work done since the last charge to the shared pool and
    /// reports the first pool limit now crossed, if any. No-op without a
    /// pool. Also a pure exhaustion check when nothing new happened (a
    /// sibling worker may have drained the pot).
    fn charge_pool(&mut self) -> Option<StopReason> {
        let pool = self.pool.as_ref()?;
        let dc = self.stats.conflicts - self.pool_charged_conflicts;
        let dp = self.stats.propagations - self.pool_charged_propagations;
        self.pool_charged_conflicts = self.stats.conflicts;
        self.pool_charged_propagations = self.stats.propagations;
        pool.charge(dc, dp)
    }

    fn update_has_limits(&mut self) {
        self.has_limits = self.limit_conflicts.is_some()
            || self.limit_propagations.is_some()
            || self.deadline.is_some()
            || self.cancel.is_some()
            || self.pool.is_some();
    }

    /// First tripped limit, if any. `check_time` gates the `Instant::now()`
    /// call so hot-loop callers only pay it every [`TIME_POLL_STRIDE`]
    /// steps.
    #[inline]
    fn check_stop(&self, check_time: bool) -> Option<StopReason> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Some(StopReason::Cancelled);
            }
        }
        if let Some(limit) = self.limit_conflicts {
            if self.stats.conflicts >= limit {
                return Some(StopReason::Conflicts);
            }
        }
        if let Some(limit) = self.limit_propagations {
            if self.stats.propagations >= limit {
                return Some(StopReason::Propagations);
            }
        }
        if check_time {
            if let Some(deadline) = self.deadline {
                if Instant::now() >= deadline {
                    return Some(StopReason::Deadline);
                }
            }
        }
        None
    }

    fn grow_to(&mut self, num_vars: usize) {
        while self.assigns.len() < num_vars {
            self.assigns.push(Lbool::Undef);
            self.levels.push(0);
            self.reasons.push(Reason::None);
            self.activity.push(0.0);
            self.phase.push(false);
            self.seen.push(false);
            self.watches.push(Vec::new());
            self.watches.push(Vec::new());
            self.bin_watches.push(Vec::new());
            self.bin_watches.push(Vec::new());
            self.order.grow(self.assigns.len());
            self.order
                .insert(Var::new(self.assigns.len() - 1), &self.activity);
        }
    }

    /// Current value of a literal.
    #[inline]
    fn lit_value(&self, lit: Lit) -> Lbool {
        lit_val(&self.assigns, lit)
    }

    /// Current value of a variable (exposed for diagnostics and tests).
    pub fn value(&self, var: Var) -> Option<bool> {
        self.assigns[var.index()].to_option()
    }

    #[inline]
    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    /// Adds a clause; returns `false` if the clause set is now known
    /// unsatisfiable at level 0.
    ///
    /// # Panics
    ///
    /// Panics if called above decision level 0 (backtrack to level 0 after
    /// [`Solver::assume`] or [`Solver::decide`]) or if a literal references
    /// an unknown variable — grow the space with [`Solver::add_var`] first.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> bool {
        assert_eq!(self.decision_level(), 0, "clauses must be added at level 0");
        if !self.ok {
            return false;
        }
        let mut lits: Vec<Lit> = lits.into_iter().collect();
        for &l in &lits {
            assert!(
                l.var().index() < self.num_vars(),
                "literal {l} outside solver variable space"
            );
        }
        lits.sort_unstable();
        lits.dedup();
        // Tautology / level-0 simplification.
        let mut simplified = Vec::with_capacity(lits.len());
        for (i, &l) in lits.iter().enumerate() {
            if i + 1 < lits.len() && lits[i + 1] == !l {
                return true; // tautological clause: x ∨ ¬x
            }
            match self.lit_value(l) {
                Lbool::True => return true, // already satisfied at level 0
                Lbool::False => {}          // drop falsified literal
                Lbool::Undef => simplified.push(l),
            }
        }
        self.stats.problem_clauses += 1;
        self.problem_clauses_added += 1;
        match simplified.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(simplified[0], Reason::None);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                self.attach_problem_clause(&simplified);
                true
            }
        }
    }

    /// Stores a problem clause of two or more literals and watches its
    /// first two. `None` if the arena is full and the clause was dropped.
    fn attach_problem_clause(&mut self, lits: &[Lit]) -> Option<ClauseRef> {
        let Ok(cref) = self.db.alloc(lits, false, 0) else {
            // A dropped problem clause means the stored formula is weaker
            // than the input: no later answer can be trusted as complete,
            // so poison the solver into `Unknown` (never abort, never
            // silently mis-answer).
            self.resource_exhausted = true;
            return None;
        };
        self.attach(cref);
        self.note_arena_size();
        Some(cref)
    }

    /// Records the current arena size into the `arena_bytes` high-water
    /// gauge. Called after allocations *and* at solve entry: enumeration
    /// drivers reset stats per call, and a solve must still report the
    /// resident arena it inherited.
    #[inline]
    fn note_arena_size(&mut self) {
        let bytes = self.db.arena_bytes() as u64;
        if bytes > self.stats.arena_bytes {
            self.stats.arena_bytes = bytes;
        }
    }

    fn attach(&mut self, cref: ClauseRef) {
        let m = self.db.meta(cref);
        debug_assert!(m.len >= 2);
        let (l0, l1) = (self.db.lit_at(m.start), self.db.lit_at(m.start + 1));
        if m.len == 2 {
            // Binary clauses get literal-only watch entries; the arena copy
            // exists for cloning, statistics, and the inprocessor's
            // occurrence scans, but propagation never reads it.
            self.bin_watches[(!l0).code()].push(l1);
            self.bin_watches[(!l1).code()].push(l0);
        } else {
            self.watches[(!l0).code()].push(Watcher { cref, blocker: l1 });
            self.watches[(!l1).code()].push(Watcher { cref, blocker: l0 });
        }
    }

    #[inline]
    fn enqueue(&mut self, lit: Lit, reason: Reason) {
        debug_assert!(self.lit_value(lit).is_undef());
        let v = lit.var().index();
        self.assigns[v] = Lbool::from_bool(lit.is_pos());
        self.levels[v] = self.decision_level() as u32;
        self.reasons[v] = reason;
        self.trail.push(lit);
    }

    /// Unit propagation; returns the conflicting antecedent if one arises.
    ///
    /// Traversal is index-based throughout — no watch list is ever moved
    /// out of its slot, so every outstanding `ClauseRef` stays reachable
    /// from `self.watches` at all times (the garbage collector relies on
    /// this) and conflict exits pay no restore step.
    fn propagate(&mut self) -> Option<Conflict> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let pc = p.code();

            // Binary watch pass: each entry is the clause's other literal,
            // so the clause is decided right here without ever fetching the
            // arena. The list never changes during the scan (binary clauses
            // are never deleted and enqueues touch only the trail).
            for bi in 0..self.bin_watches[pc].len() {
                let other = self.bin_watches[pc][bi];
                match self.lit_value(other) {
                    Lbool::True => {}
                    Lbool::False => {
                        self.stats.binary_skips += 1;
                        self.qhead = self.trail.len();
                        return Some(Conflict::Binary(!p, other));
                    }
                    Lbool::Undef => {
                        self.stats.binary_skips += 1;
                        self.enqueue(other, Reason::Binary(!p));
                    }
                }
            }

            // Long-clause watch pass: every entry is length ≥ 3, so there
            // is no per-visit binary branch left on this path. Split
            // borrows keep the scanned list's pointer/length in registers
            // for the whole scan (`ws`) while the arena, assignment, and
            // trail are reached through disjoint fields. Watchers that
            // migrate to another literal's list are buffered in
            // `watch_moves` — the target is never `pc`'s own list (the new
            // watch is non-false while `p`'s is false) — and appended
            // after the scan, including on the conflict exit, so every
            // live clause stays reachable from `self.watches` at all
            // times (the garbage collector relies on this).
            let s = &mut *self;
            let false_lit = !p;
            let dl = s.trail_lim.len() as u32;
            let db = &mut s.db;
            let assigns = &mut s.assigns;
            let ws = &mut s.watches[pc];
            let mut conflict = None;
            let mut i = 0;
            while i < ws.len() {
                let w = ws[i];
                // Fast path: blocker already satisfied.
                if lit_val(assigns, w.blocker) == Lbool::True {
                    i += 1;
                    continue;
                }
                // One header read serves the whole visit; literal words are
                // addressed absolutely from `m.start` with no indirection.
                let m = db.meta(w.cref);
                if m.deleted {
                    ws.swap_remove(i);
                    continue;
                }
                // Normalize: watched false literal at position 1.
                if db.lit_at(m.start) == false_lit {
                    db.swap_words(m.start, m.start + 1);
                }
                debug_assert_eq!(db.lit_at(m.start + 1), false_lit);
                let first = db.lit_at(m.start);
                if first != w.blocker && lit_val(assigns, first) == Lbool::True {
                    ws[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a replacement watch.
                let mut replaced = false;
                for k in 2..m.len {
                    let lk = db.lit_at(m.start + k);
                    if lit_val(assigns, lk) != Lbool::False {
                        db.swap_words(m.start + 1, m.start + k);
                        s.watch_moves.push((
                            !lk,
                            Watcher {
                                cref: w.cref,
                                blocker: first,
                            },
                        ));
                        ws.swap_remove(i);
                        replaced = true;
                        break;
                    }
                }
                if replaced {
                    continue;
                }
                // Clause is unit or conflicting under the current trail.
                if lit_val(assigns, first) == Lbool::False {
                    conflict = Some(Conflict::Long(w.cref));
                    break;
                }
                // Inline enqueue (self is partially borrowed here).
                debug_assert!(lit_val(assigns, first).is_undef());
                let v = first.var().index();
                assigns[v] = Lbool::from_bool(first.is_pos());
                s.levels[v] = dl;
                s.reasons[v] = Reason::Long(w.cref);
                s.trail.push(first);
                i += 1;
            }
            // Apply deferred migrations in scan order before any exit.
            for (lit, mw) in s.watch_moves.drain(..) {
                s.watches[lit.code()].push(mw);
            }
            if conflict.is_some() {
                self.qhead = self.trail.len();
                return conflict;
            }
        }
        None
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    fn cancel_until(&mut self, level: usize) {
        if self.decision_level() <= level {
            return;
        }
        let bound = self.trail_lim[level];
        for idx in (bound..self.trail.len()).rev() {
            let lit = self.trail[idx];
            let v = lit.var();
            self.phase[v.index()] = lit.is_pos();
            self.assigns[v.index()] = Lbool::Undef;
            self.reasons[v.index()] = Reason::None;
            self.order.insert(v, &self.activity);
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(level);
        self.qhead = self.trail.len();
    }

    fn bump_var(&mut self, var: Var) {
        let a = &mut self.activity[var.index()];
        *a += self.var_inc;
        if *a > RESCALE_LIMIT {
            for act in &mut self.activity {
                *act *= 1.0 / RESCALE_LIMIT;
            }
            self.var_inc *= 1.0 / RESCALE_LIMIT;
        }
        self.order.update(var, &self.activity);
    }

    fn decay_activities(&mut self) {
        self.var_inc /= VAR_DECAY;
        self.cla_inc /= CLAUSE_DECAY;
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        let bumped = self.db.activity(cref) + self.cla_inc;
        self.db.set_activity(cref, bumped);
        if bumped > RESCALE_LIMIT {
            self.db.rescale_learnt_activity(1.0 / RESCALE_LIMIT);
            self.cla_inc *= 1.0 / RESCALE_LIMIT;
        }
    }

    /// Marks one antecedent literal during conflict analysis: bumps its
    /// variable and either extends the conflict path or the learnt clause.
    #[inline]
    fn analyze_mark(&mut self, q: Lit, learnt: &mut Vec<Lit>, path_count: &mut u32) {
        let v = q.var();
        if !self.seen[v.index()] && self.levels[v.index()] > 0 {
            self.bump_var(v);
            self.seen[v.index()] = true;
            if self.levels[v.index()] as usize >= self.decision_level() {
                *path_count += 1;
            } else {
                learnt.push(q);
            }
        }
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first), the backtrack level, and the clause's LBD.
    fn analyze(&mut self, conflict: Conflict) -> (Vec<Lit>, usize, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::from_code(0)]; // slot for UIP
        let mut path_count = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut confl = conflict;

        loop {
            // Skip the implied literal of a reason clause by value, not by
            // position: propagation never normalizes the implied literal's
            // position, so it may sit at either index. Reading by index (no
            // clause copy) is safe: `bump_var` never touches the arena.
            match confl {
                Conflict::Long(cref) => {
                    let m = self.db.meta(cref);
                    if m.learnt {
                        self.bump_clause(cref);
                    }
                    for k in 0..m.len {
                        let q = self.db.lit_at(m.start + k);
                        if Some(q) == p {
                            continue;
                        }
                        self.analyze_mark(q, &mut learnt, &mut path_count);
                    }
                }
                Conflict::Binary(a, b) => {
                    // Inline binary antecedent: no arena access, no clause
                    // bump (binary clauses are never reduction candidates,
                    // so their activity is never consulted).
                    for q in [a, b] {
                        if Some(q) == p {
                            continue;
                        }
                        self.analyze_mark(q, &mut learnt, &mut path_count);
                    }
                }
            }
            // Walk the trail backwards to the next marked literal.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().index()] = false;
            path_count -= 1;
            p = Some(pl);
            if path_count == 0 {
                break;
            }
            confl = match self.reasons[pl.var().index()] {
                Reason::Long(cref) => Conflict::Long(cref),
                // The implied literal `pl` is skipped above via `p`.
                Reason::Binary(other) => Conflict::Binary(pl, other),
                Reason::None => {
                    unreachable!("non-decision literal on conflict path must have a reason")
                }
            };
        }
        learnt[0] = !p.expect("analysis visits at least one literal");

        // Conflict-clause minimization (local): drop literals implied by the
        // rest of the clause through their reasons.
        let keep: Vec<bool> = learnt
            .iter()
            .enumerate()
            .map(|(i, &l)| i == 0 || !self.literal_redundant(l))
            .collect();
        let mut minimized: Vec<Lit> = learnt
            .iter()
            .zip(&keep)
            .filter_map(|(&l, &k)| k.then_some(l))
            .collect();

        // Clear seen flags for everything we marked.
        for &l in &learnt {
            self.seen[l.var().index()] = false;
        }

        // Position the literal with the highest level (after the UIP) second
        // and derive the backtrack level.
        let bt_level = if minimized.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..minimized.len() {
                if self.levels[minimized[i].var().index()]
                    > self.levels[minimized[max_i].var().index()]
                {
                    max_i = i;
                }
            }
            minimized.swap(1, max_i);
            self.levels[minimized[1].var().index()] as usize
        };

        // LBD = number of distinct decision levels in the clause.
        let mut lvls: Vec<u32> = minimized
            .iter()
            .map(|l| self.levels[l.var().index()])
            .collect();
        lvls.sort_unstable();
        lvls.dedup();
        let lbd = lvls.len() as u32;

        (minimized, bt_level, lbd)
    }

    /// `true` if `lit` in a learnt clause is implied by the other marked
    /// literals (all antecedents of its reason are already seen or level 0).
    fn literal_redundant(&self, lit: Lit) -> bool {
        let v = lit.var().index();
        // The reason's implied literal (same variable as `lit`) is skipped
        // by variable, not by position — see the note in `analyze`.
        match self.reasons[v] {
            Reason::None => false,
            Reason::Binary(other) => {
                let qv = other.var().index();
                self.seen[qv] || self.levels[qv] == 0
            }
            Reason::Long(reason) => {
                let m = self.db.meta(reason);
                (0..m.len).all(|k| {
                    let qv = self.db.lit_at(m.start + k).var().index();
                    qv == v || self.seen[qv] || self.levels[qv] == 0
                })
            }
        }
    }

    /// Computes the failed-assumption core after assumption `p` was found
    /// falsified.
    fn analyze_final(&mut self, p: Lit) {
        self.core.clear();
        self.core.push(p);
        if self.decision_level() == 0 {
            return;
        }
        self.seen[p.var().index()] = true;
        for idx in (self.trail_lim[0]..self.trail.len()).rev() {
            let x = self.trail[idx];
            let xv = x.var().index();
            if !self.seen[xv] {
                continue;
            }
            match self.reasons[xv] {
                Reason::None => {
                    // A decision in the assumption prefix is an assumption.
                    self.core.push(x);
                }
                Reason::Binary(other) => {
                    if self.levels[other.var().index()] > 0 {
                        self.seen[other.var().index()] = true;
                    }
                }
                Reason::Long(r) => {
                    let m = self.db.meta(r);
                    for k in 0..m.len {
                        let q = self.db.lit_at(m.start + k);
                        if q.var().index() != xv && self.levels[q.var().index()] > 0 {
                            self.seen[q.var().index()] = true;
                        }
                    }
                }
            }
            self.seen[xv] = false;
        }
        self.seen[p.var().index()] = false;
    }

    fn reduce_db(&mut self) {
        self.db.sweep_learnt_index();
        // Sort the learnt index in place (taken out of the db so the sort
        // comparator can read clause metadata) — no per-call allocation.
        let mut order: Vec<ClauseRef> = std::mem::take(&mut self.db.learnts);
        // Worst first: high LBD, then low activity. `total_cmp` keeps the
        // sort total even if an activity overflowed to infinity or became
        // NaN before the rescale check could catch it. Activities round-trip
        // through the arena as full `f64` bit patterns, so this order is
        // identical to the boxed-clause representation's.
        order.sort_by(|&a, &b| {
            self.db
                .lbd(b)
                .cmp(&self.db.lbd(a))
                .then(self.db.activity(a).total_cmp(&self.db.activity(b)))
        });
        let target = order.len() / 2;
        let mut removed = 0;
        for &cref in &order {
            if removed >= target {
                break;
            }
            if self.db.is_deleted(cref)
                || self.db.lbd(cref) <= 2
                || self.db.len_of(cref) <= 2
                || self.is_locked(cref)
            {
                continue;
            }
            self.db.delete(cref);
            removed += 1;
            self.stats.deleted_clauses += 1;
        }
        self.db.learnts = order;
        self.db.sweep_learnt_index();
        self.stats.learnt_clauses = self.db.live_learnts() as u64;
        self.maybe_collect_garbage();
    }

    fn is_locked(&self, cref: ClauseRef) -> bool {
        let first = self.db.lit(cref, 0);
        self.lit_value(first) == Lbool::True
            && self.reasons[first.var().index()] == Reason::Long(cref)
    }

    /// Compacts the clause arena if tombstones hold a quarter or more of
    /// it (and it is big enough to bother). Safe at any decision level:
    /// watch lists are never moved out of their slots (propagation
    /// traverses them in place), so every outstanding `ClauseRef` lives in
    /// `watches`, `reasons`, or `db.learnts` — all rewired here. Binary
    /// watch entries and binary reasons carry literals, not refs, so they
    /// need no rewiring at all.
    fn maybe_collect_garbage(&mut self) {
        let words = self.db.arena_words();
        if words >= GC_MIN_WORDS && self.db.wasted_words() * GC_WASTE_DENOM >= words {
            self.collect_garbage();
        }
    }

    /// Copies live clauses into a fresh arena and rewires every stored
    /// `ClauseRef` (watch lists, reason slots, learnt index).
    fn collect_garbage(&mut self) {
        self.db.sweep_learnt_index();
        let map = self.db.compact();
        for ws in &mut self.watches {
            // `retain_mut` keeps watcher order, so propagation visits
            // clauses in exactly the pre-collection order — GC stays
            // behaviourally invisible to the search.
            ws.retain_mut(|w| match map.remap(w.cref) {
                Some(new) => {
                    w.cref = new;
                    true
                }
                None => false,
            });
        }
        for (v, slot) in self.reasons.iter_mut().enumerate() {
            let Reason::Long(cref) = *slot else {
                // Decisions and binary reasons hold no arena ref.
                continue;
            };
            if self.assigns[v].is_undef() || self.levels[v] == 0 {
                // Level-0 / retracted reason slots are never consulted
                // (analysis only follows literals above level 0), so drop
                // them rather than keep a ref to a possibly-dead clause.
                *slot = Reason::None;
            } else {
                // An assigned variable above level 0 has a *locked* reason
                // clause; locked clauses are never deleted, so remap always
                // succeeds.
                *slot = Reason::Long(
                    map.remap(cref)
                        .expect("reason of an assigned variable must be live"),
                );
            }
        }
        self.stats.db_compactions += 1;
        self.stats.clauses_reclaimed += map.reclaimed;
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.order.pop(&self.activity) {
            if self.assigns[v.index()].is_undef() {
                return Some(v);
            }
        }
        None
    }

    /// Decides whether the formula is satisfiable.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Decides satisfiability under the given assumption literals.
    ///
    /// On `Unsat`, [`Solver::unsat_core`] holds the subset of `assumptions`
    /// that participated in the refutation. The solver remains usable — the
    /// assumptions are retracted, not asserted.
    ///
    /// The call may start with a prefix of `assumptions` already on the
    /// trail: entered at decision level `e`, levels `1..=e` must hold
    /// `assumptions[..e]`, one level each, as [`Solver::assume`] opens
    /// them. Only the levels above `e` are retracted: a `Sat` answer
    /// returns at level `e` with those levels intact (and still closed
    /// under unit propagation with every clause learnt meanwhile). An
    /// `Unsat` or `Unknown` answer may return lower, when the search
    /// backjumped below `e` or stopped; it never returns higher.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        let entry = self.decision_level();
        debug_assert!(
            self.holds_assumption_levels(assumptions),
            "levels 1..={entry} do not hold a prefix of {assumptions:?}"
        );
        let result = self.solve_from_trail(assumptions);
        self.cancel_until(entry);
        result
    }

    /// The body every solve entry point shares: the entry checks, then
    /// the restarting search from the current trail. The trail is left as
    /// the search left it, so a `Sat` answer's model is still on it.
    fn solve_from_trail(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.stats.solves += 1;
        // Stamp the arena gauge even if stats were just reset: per-call
        // snapshots must report the resident arena the call inherited.
        self.note_arena_size();
        self.core.clear();
        if !self.ok {
            // Refutation at level 0 is a proof over the clauses actually
            // stored — sound even if later clauses were dropped.
            return SolveResult::Unsat;
        }
        if self.resource_exhausted {
            return SolveResult::Unknown(StopReason::ResourceExhausted);
        }
        if self.has_limits {
            // An already-expired budget (shared across an enumeration's
            // many calls) must stop *before* any work, even on instances
            // the search would decide without a single conflict.
            if let Some(reason) = self.check_stop(true).or_else(|| self.charge_pool()) {
                return SolveResult::Unknown(reason);
            }
        }
        if self.decision_level() == 0 && self.propagate().is_some() {
            self.ok = false;
            return SolveResult::Unsat;
        }

        let mut restarts_this_call = 0u64;
        loop {
            let conflict_limit = RESTART_BASE * luby(2, restarts_this_call);
            match self.search(conflict_limit, assumptions) {
                SearchOutcome::Sat => return SolveResult::Sat(self.extract_model()),
                SearchOutcome::Unsat => return SolveResult::Unsat,
                SearchOutcome::Restart => {
                    restarts_this_call += 1;
                    self.stats.restarts += 1;
                }
                SearchOutcome::Stopped(reason) => return SolveResult::Unknown(reason),
            }
        }
    }

    /// Decides satisfiability like [`Solver::solve`], but continues the
    /// search from the current trail, and a `Sat` answer leaves its model
    /// on the trail. This is the search half of enumeration by blocking:
    /// block each model with [`Solver::block_model`] and call this again.
    ///
    /// Entry: the solver is at decision level 0, or it holds what the last
    /// call of [`Solver::block_model`] left — the trail cut back to the
    /// blocking clause's backjump level, with the literal that clause (or
    /// the clause learnt from it) asserts still to propagate. The search
    /// resumes there, with a restart schedule of its own; learnt clauses
    /// and saved phases carry over as in every solve. Calling it again on
    /// a held model answers that model again.
    ///
    /// Exit: `Sat` returns at the model's decision level with every
    /// variable assigned. [`Solver::block_model`] takes it from there; a
    /// call that needs level 0 ([`Solver::add_clause`], [`Solver::solve`])
    /// must come after [`Solver::backtrack`] to level 0. `Unsat` and
    /// `Unknown` — a budget, a deadline or a cancel token that fires at
    /// entry or mid-search — return at level 0 with every clause kept, so
    /// the solver can go on with [`Solver::solve`] once the limit is lifted.
    pub fn solve_continue(&mut self) -> SolveResult {
        let result = self.solve_from_trail(&[]);
        if !result.is_sat() {
            self.cancel_until(0);
        }
        result
    }

    /// Blocks the model that the last `Sat` answer of
    /// [`Solver::solve_continue`] left on the trail: adds the clause of
    /// `lits`, which that trail falsifies, as a problem clause, and
    /// backjumps the way a conflict on it would. Returns `false` once the
    /// clause set is known unsatisfiable at level 0, as
    /// [`Solver::add_clause`] does.
    ///
    /// Literals false at level 0 drop out. What remains decides where the
    /// search resumes:
    /// - nothing: the formula is refuted, with no search;
    /// - one literal: the solver returns to level 0, where the literal is
    ///   a unit and is propagated at once (a conflict there refutes the
    ///   formula);
    /// - one literal on the highest decision level among them: the solver
    ///   backjumps to the second-highest level and asserts that literal,
    ///   with the clause as its reason;
    /// - several literals on the highest level: first-UIP analysis of the
    ///   clause as a conflict at that level learns a clause, and the solver
    ///   backjumps to where that clause asserts its UIP literal (a learnt
    ///   unit is propagated at level 0 at once, as above).
    ///
    /// The assertion is left unpropagated (except at level 0):
    /// [`Solver::solve_continue`] resumes the search from it. Several
    /// literals on the top level count one conflict in the statistics. If
    /// the clause arena is full, the clause is dropped as in
    /// [`Solver::add_clause`] and the next solve answers `Unknown`.
    ///
    /// # Panics
    ///
    /// Panics if a literal references an unknown variable or is not false
    /// on the trail.
    pub fn block_model<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> bool {
        if !self.ok {
            return false;
        }
        let mut lits: Vec<Lit> = lits.into_iter().collect();
        for &l in &lits {
            assert!(
                l.var().index() < self.num_vars(),
                "literal {l} outside solver variable space"
            );
            assert_eq!(
                self.lit_value(l),
                Lbool::False,
                "blocking literal {l} is not false on the trail"
            );
        }
        lits.sort_unstable();
        lits.dedup();
        lits.retain(|l| self.levels[l.var().index()] > 0);
        if lits.len() < 2 {
            // An empty clause or a unit, at level 0.
            self.cancel_until(0);
            return self.add_clause(lits);
        }
        self.stats.problem_clauses += 1;
        self.problem_clauses_added += 1;
        // The two highest-level literals go first, where the clause watches
        // them: both are unassigned after any backjump below their levels.
        for i in 0..2 {
            let top = (i..lits.len())
                .max_by_key(|&k| self.levels[lits[k].var().index()])
                .expect("at least two literals");
            lits.swap(i, top);
        }
        let top = self.levels[lits[0].var().index()] as usize;
        let second = self.levels[lits[1].var().index()] as usize;
        let Some(cref) = self.attach_problem_clause(&lits) else {
            self.cancel_until(0);
            return true;
        };
        let binary = lits.len() == 2;
        if top > second {
            self.cancel_until(second);
            let reason = if binary {
                Reason::Binary(lits[1])
            } else {
                Reason::Long(cref)
            };
            self.enqueue(lits[0], reason);
            return true;
        }
        self.cancel_until(top);
        self.stats.conflicts += 1;
        let conflict = if binary {
            Conflict::Binary(lits[0], lits[1])
        } else {
            Conflict::Long(cref)
        };
        if !self.learn(conflict) {
            // No room for the learnt clause: the solver is back at level
            // 0, where the next search starts with the blocking clause
            // stored.
            return true;
        }
        if self.decision_level() == 0 && self.propagate().is_some() {
            self.ok = false;
            return false;
        }
        self.maybe_reduce_db();
        true
    }

    /// The entry contract of [`Solver::solve_with_assumptions`]: each open
    /// level `i + 1` stands for `assumptions[i]`, which is true at or below
    /// it, and the trail above level 0 is fully propagated.
    fn holds_assumption_levels(&self, assumptions: &[Lit]) -> bool {
        let level = self.decision_level();
        level == 0
            || (level <= assumptions.len()
                && self.qhead == self.trail.len()
                && assumptions[..level].iter().enumerate().all(|(i, &a)| {
                    self.lit_value(a) == Lbool::True
                        && self.levels[a.var().index()] as usize <= i + 1
                }))
    }

    fn extract_model(&self) -> Assignment {
        let mut m = Assignment::new(self.num_vars());
        for (i, &v) in self.assigns.iter().enumerate() {
            match v {
                Lbool::True => m.assign(Var::new(i), true),
                Lbool::False => m.assign(Var::new(i), false),
                // Variables untouched by any clause or decision default to
                // false so that models are always total.
                Lbool::Undef => m.assign(Var::new(i), false),
            }
        }
        m
    }

    fn search(&mut self, conflict_limit: u64, assumptions: &[Lit]) -> SearchOutcome {
        let mut conflicts_here = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_here += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SearchOutcome::Unsat;
                }
                if !self.learn(confl) {
                    // Dropping a learnt clause is sound (it is implied),
                    // but without room to learn, progress guarantees are
                    // gone — stop honestly. Not sticky: a later
                    // `retire_group`/`reduce_db` cannot shrink the arena,
                    // but the caller may still accept per-call `Unknown`s.
                    return SearchOutcome::Stopped(StopReason::ResourceExhausted);
                }
                if self.has_limits {
                    // Charging the pool per conflict bounds a shared
                    // pot's overshoot at one conflict per worker.
                    let reason = self
                        .check_stop(self.stats.conflicts.is_multiple_of(TIME_POLL_STRIDE))
                        .or_else(|| self.charge_pool());
                    if let Some(reason) = reason {
                        self.cancel_until(0);
                        return SearchOutcome::Stopped(reason);
                    }
                }
                self.maybe_reduce_db();
            } else {
                // No conflict.
                if self.has_limits && self.stats.decisions.is_multiple_of(TIME_POLL_STRIDE) {
                    // Poll on the decision path too: instances that search
                    // with few conflicts must still honor deadlines and
                    // cancellation.
                    if let Some(reason) = self.check_stop(true).or_else(|| self.charge_pool()) {
                        self.cancel_until(0);
                        return SearchOutcome::Stopped(reason);
                    }
                }
                if conflicts_here >= conflict_limit && self.decision_level() > assumptions.len() {
                    self.cancel_until(assumptions.len().min(self.decision_level()));
                    return SearchOutcome::Restart;
                }
                // Establish assumptions one level at a time.
                if self.decision_level() < assumptions.len() {
                    let p = assumptions[self.decision_level()];
                    assert!(
                        p.var().index() < self.num_vars(),
                        "assumption {p} outside solver variable space"
                    );
                    match self.lit_value(p) {
                        Lbool::True => {
                            // Already implied: dummy level keeps alignment.
                            self.new_decision_level();
                        }
                        Lbool::False => {
                            self.analyze_final(p);
                            return SearchOutcome::Unsat;
                        }
                        Lbool::Undef => {
                            self.new_decision_level();
                            self.enqueue(p, Reason::None);
                        }
                    }
                    continue;
                }
                match self.pick_branch_var() {
                    None => return SearchOutcome::Sat,
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.new_decision_level();
                        let lit = Lit::with_phase(v, self.phase[v.index()]);
                        self.enqueue(lit, Reason::None);
                    }
                }
            }
        }
    }

    /// Learns from `confl`, a conflict at the current decision level:
    /// first-UIP analysis, a backjump to the learnt clause's assertion
    /// level (never above level 0; assumption levels are re-established by
    /// the search's decision loop), and the assertion of its UIP literal.
    /// Returns `false`, back at level 0 with nothing asserted, when the
    /// arena has no room for the clause.
    fn learn(&mut self, confl: Conflict) -> bool {
        let (learnt, bt_level, lbd) = self.analyze(confl);
        self.cancel_until(bt_level);
        if learnt.len() == 1 {
            self.enqueue(learnt[0], Reason::None);
        } else {
            let Ok(cref) = self.db.alloc(&learnt, true, lbd) else {
                self.cancel_until(0);
                return false;
            };
            self.attach(cref);
            self.note_arena_size();
            self.stats.learnt_clauses += 1;
            self.bump_clause(cref);
            let reason = if learnt.len() == 2 {
                Reason::Binary(learnt[1])
            } else {
                Reason::Long(cref)
            };
            self.enqueue(learnt[0], reason);
        }
        self.decay_activities();
        true
    }

    /// Halves the learnt clauses once they outgrow `max_learnts`, which
    /// then grows by a tenth.
    fn maybe_reduce_db(&mut self) {
        if self.db.live_learnts() > self.max_learnts {
            self.reduce_db();
            self.max_learnts += self.max_learnts / 10;
        }
    }

    /// Zeroes the accumulated statistics. Parallel enumeration workers
    /// call this on their cloned solvers so each clone reports only the
    /// work it did itself and per-worker snapshots sum cleanly.
    pub fn reset_stats(&mut self) {
        // Flush work not yet charged to a shared pool before the counters
        // it is measured against are zeroed, then re-zero the baselines.
        let _ = self.charge_pool();
        self.stats = SolverStats::default();
        self.pool_charged_conflicts = 0;
        self.pool_charged_propagations = 0;
    }

    /// Clones the solver for use as an independent enumeration worker.
    ///
    /// With the flat clause arena this is cheap: the whole clause database
    /// copies as one contiguous `u32` buffer (plus the watch lists), not as
    /// one heap allocation per clause.
    ///
    /// Hardening for partitioned (multi-threaded) search: a clone must not
    /// inherit transient per-call state, so this asserts the solver sits at
    /// decision level 0 (callers that [`Solver::assume`] or
    /// [`Solver::decide`] backtrack to level 0 first) and hands back a
    /// clone with a cleared failed-assumption core, no
    /// budget, deadline, or cancel token, and zeroed statistics. Everything
    /// that makes an incremental solver warm — level-0 facts, problem and
    /// learnt clauses, saved phases, activities — is retained.
    ///
    /// # Panics
    ///
    /// Panics if the solver is mid-search (decision level above 0).
    pub fn clone_at_root(&self) -> Solver {
        assert_eq!(
            self.decision_level(),
            0,
            "clone_at_root requires the solver to be at decision level 0"
        );
        debug_assert_eq!(self.qhead, self.trail.len(), "propagation queue drained");
        let mut clone = self.clone();
        clone.core.clear();
        clone.limit_conflicts = None;
        clone.limit_propagations = None;
        clone.deadline = None;
        clone.cancel = None;
        clone.pool = None;
        clone.has_limits = false;
        clone.reset_stats();
        clone
    }

    /// Asserts `lit` permanently (a unit clause).
    pub fn assume_permanently(&mut self, lit: Lit) -> bool {
        self.add_clause([lit])
    }

    /// Number of live learnt clauses currently in the database — what a
    /// persistent session carries from one enumeration into the next.
    pub fn live_learnt_count(&self) -> usize {
        self.db.live_learnts()
    }

    /// The clause count the `db_clauses_peak` gauge reads, in O(1): every
    /// problem clause added over the solver's life plus the live learnt
    /// clauses. Unlike the `problem_clauses` statistic, neither
    /// [`Solver::reset_stats`] nor [`Solver::clone_at_root`] zeroes it, so
    /// a session call or a partition worker sees the clauses it inherited.
    /// A retired group's clauses stay counted.
    pub fn db_clauses(&self) -> u64 {
        self.problem_clauses_added + self.db.live_learnts() as u64
    }

    /// Resident clause-arena size in bytes, right now. Unlike the
    /// `arena_bytes` statistics field (a high-water gauge over a stats
    /// window), this reads the current buffer length directly — it shrinks
    /// after a garbage collection, which is what memory-bound callers and
    /// the throughput benchmark want to observe.
    pub fn arena_bytes(&self) -> usize {
        self.db.arena_bytes()
    }

    /// Retires an activation-literal clause group: permanently asserts
    /// `¬act` and garbage-collects every clause the assertion satisfies
    /// forever.
    ///
    /// Protocol: an *activation literal* `act` appears only **negatively**
    /// inside clauses (`¬act ∨ …`) and only **positively** as an
    /// assumption. While `act` is assumed true its group clauses are
    /// active; after retirement they are satisfied at level 0 and can never
    /// participate in propagation or conflict analysis again. This also
    /// covers every learnt clause derived from the group: conflict analysis
    /// pushes the negation of any lower-level assumption into its learnt
    /// clauses (an assumption is a decision, so minimization cannot drop
    /// it — `literal_redundant` bails on reason-less literals), hence each
    /// dependent learnt clause contains `¬act` and is swept here too.
    ///
    /// Clauses of length ≤ 2 are deliberately left alive: the binary
    /// watcher fast path never consults the tombstone flag (binary clauses
    /// are never deleted — see `reduce_db`). A retired binary clause is
    /// inert anyway: the watcher on `act` becoming true never fires again,
    /// and the opposite watcher is skipped by its now-true `¬act` blocker.
    ///
    /// Returns the number of clauses tombstoned. Must be called at decision
    /// level 0: a caller that left levels open with [`Solver::assume`],
    /// [`Solver::decide`] or a solve entered above level 0 backtracks to
    /// level 0 first.
    pub fn retire_group(&mut self, act: Lit) -> u64 {
        assert_eq!(self.decision_level(), 0, "retire_group requires level 0");
        let dead = !act;
        if !self.assume_permanently(dead) {
            // The formula was (or became) contradictory at level 0; the
            // arena no longer matters.
            return 0;
        }
        let removed = self.db.delete_containing_long(dead);
        self.stats.deleted_clauses += removed;
        self.db.sweep_learnt_index();
        self.stats.learnt_clauses = self.db.live_learnts() as u64;
        // Retirement is where incremental sessions shed whole clause
        // groups; compacting here is what keeps a deep backward fixed
        // point's memory bounded.
        self.maybe_collect_garbage();
        removed
    }

    /// `true` while the clause set has not been refuted at level 0.
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    // --- Chronological-enumeration support ------------------------------
    //
    // Blocking-clause-free enumeration (Spallitta–Sebastiani–Biere) drives
    // the decision stack from *outside* the solver: the driver decides
    // literals one level at a time, and on each model backtracks exactly
    // one level and flips the deepest open decision instead of asserting a
    // blocking clause. These entry points expose precisely that much of
    // the CDCL internals — open a level, undo to a level, read the trail —
    // without ever allocating a clause. None of them touches the clause
    // database, which is what keeps the DB flat in the solution count.

    /// Current decision level (`0` = root, no open decisions).
    pub fn level(&self) -> usize {
        self.decision_level()
    }

    /// Runs unit propagation at the root level. Returns `false` if the
    /// formula is refuted outright (the solver is then poisoned like any
    /// level-0 conflict). Chronological drivers call this once before
    /// their first decision so root implications are on the trail.
    pub fn propagate_root(&mut self) -> bool {
        assert_eq!(self.decision_level(), 0, "propagate_root requires level 0");
        if !self.ok {
            return false;
        }
        if self.propagate().is_some() {
            self.ok = false;
            return false;
        }
        true
    }

    /// Opens a fresh decision level, decides `lit`, and propagates to a
    /// fixed point. Returns `true` if no conflict arose; on `false` the
    /// trail still holds the conflicting prefix and the caller must
    /// [`Solver::backtrack`] before deciding again. Counts as one decision
    /// (and, on conflict, one conflict) in the statistics. Never adds a
    /// clause.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `lit`'s variable is already assigned.
    pub fn decide(&mut self, lit: Lit) -> bool {
        debug_assert!(self.lit_value(lit).is_undef(), "decide on assigned {lit}");
        self.stats.decisions += 1;
        if !self.open_level(lit) {
            self.stats.conflicts += 1;
            return false;
        }
        true
    }

    /// Opens one assumption level for `lit` and propagates to a fixed
    /// point, so that level `i` of the trail stands for the `i`-th assumed
    /// literal — the alignment [`Solver::solve_with_assumptions`] uses,
    /// which may then start from these levels. An already-true literal
    /// opens an empty level. Returns `false` if `lit` is false (no level is
    /// opened) or its propagation conflicts (the conflicting level stays
    /// open); either way the caller must [`Solver::backtrack`] to the level
    /// it assumed from before going on. At level 0 the pending root
    /// propagation runs first; a refuted formula returns `false` and
    /// poisons the solver like any level-0 conflict. Counts no decision
    /// and never adds a clause.
    ///
    /// # Panics
    ///
    /// Panics if `lit` references an unknown variable.
    pub fn assume(&mut self, lit: Lit) -> bool {
        assert!(
            lit.var().index() < self.num_vars(),
            "assumption {lit} outside solver variable space"
        );
        if self.decision_level() == 0 && !self.propagate_root() {
            return false;
        }
        match self.lit_value(lit) {
            Lbool::True => {
                self.new_decision_level();
                true
            }
            Lbool::False => false,
            Lbool::Undef => self.open_level(lit),
        }
    }

    /// Opens a decision level holding `lit` alone and propagates it;
    /// `false` on a conflict, with the level left open.
    fn open_level(&mut self, lit: Lit) -> bool {
        self.new_decision_level();
        self.enqueue(lit, Reason::None);
        self.propagate().is_none()
    }

    /// Undoes every assignment above decision level `level`, restoring
    /// saved phases and the branching heap, without touching the trail
    /// prefix at or below `level`. A no-op when already at or below
    /// `level`.
    pub fn backtrack(&mut self, level: usize) {
        self.cancel_until(level);
    }

    /// The trail prefix covering decision levels `0..=level`: every
    /// literal (decisions and implications) assigned at those levels, in
    /// assignment order. Passing the current level (or anything larger)
    /// returns the whole trail.
    pub fn trail_prefix(&self, level: usize) -> &[Lit] {
        let bound = if level >= self.decision_level() {
            self.trail.len()
        } else {
            self.trail_lim[level]
        };
        &self.trail[..bound]
    }

    /// Decision level at which `var` was assigned; `None` if unassigned.
    pub fn level_of(&self, var: Var) -> Option<usize> {
        if self.assigns[var.index()].is_undef() {
            None
        } else {
            Some(self.levels[var.index()] as usize)
        }
    }

    /// First unassigned variable at or after `from` in index order, if
    /// any. Chronological enumeration branches in plain variable order
    /// (important variables first by construction of the problem), so it
    /// scans indices rather than popping the activity heap — the heap
    /// order would make the decision tree depend on conflict history.
    pub fn next_unassigned(&self, from: Var) -> Option<Var> {
        (from.index()..self.num_vars())
            .map(Var::new)
            .find(|v| self.assigns[v.index()].is_undef())
    }

    /// Snapshot of the current assignment as a total model (unassigned
    /// variables default to `false`, as in [`Solver::solve`] models).
    pub fn model_snapshot(&self) -> Assignment {
        self.extract_model()
    }

    /// Polls the installed [`Budget`] / [`CancelToken`] exactly like the
    /// internal search loop does; `None` when nothing has tripped (always,
    /// if no limits are installed). `check_time` gates the `Instant::now()`
    /// call so hot loops can pay it only every few polls.
    pub fn poll_budget(&self, check_time: bool) -> Option<StopReason> {
        if !self.has_limits {
            return None;
        }
        self.check_stop(check_time)
    }

    /// `true` once an arena-full allocation failure has poisoned
    /// completeness claims: enumeration must report `Unknown`, never
    /// "complete".
    pub fn resource_exhausted(&self) -> bool {
        self.resource_exhausted
    }

    /// Test-only structural audit of the watch lists and reason slots
    /// against the clause arena; the GC invariant suite runs it after
    /// every forced collection.
    #[cfg(test)]
    fn check_integrity(&self) {
        for (code, ws) in self.watches.iter().enumerate() {
            let watch_lit = !Lit::from_code(code as u32);
            for w in ws {
                let m = self.db.meta(w.cref);
                if m.deleted {
                    // Lazy pruning tolerates tombstoned watchers — but a
                    // collection must have dropped all of them.
                    continue;
                }
                assert!(m.len >= 3, "binary clause in the long watch lists");
                let l0 = self.db.lit_at(m.start);
                let l1 = self.db.lit_at(m.start + 1);
                assert!(
                    l0 == watch_lit || l1 == watch_lit,
                    "watcher for {watch_lit} not among the first two literals"
                );
            }
        }
        // Binary watch entries carry no refs; audit them against an arena
        // scan instead: every live binary clause must contribute exactly
        // its two entries, and nothing else may be present (multiset
        // equality — duplicate clauses are legal).
        let mut expect: std::collections::HashMap<(u32, u32), i64> =
            std::collections::HashMap::new();
        for cref in self.db.live_refs() {
            let m = self.db.meta(cref);
            if m.len != 2 {
                continue;
            }
            let (l0, l1) = (self.db.lit_at(m.start), self.db.lit_at(m.start + 1));
            *expect
                .entry(((!l0).code() as u32, l1.code() as u32))
                .or_default() += 1;
            *expect
                .entry(((!l1).code() as u32, l0.code() as u32))
                .or_default() += 1;
        }
        for (code, bs) in self.bin_watches.iter().enumerate() {
            for &other in bs {
                let e = expect
                    .entry((code as u32, other.code() as u32))
                    .or_default();
                *e -= 1;
                assert!(*e >= 0, "binary watcher without a live arena clause");
            }
        }
        assert!(
            expect.values().all(|&c| c == 0),
            "live binary clause missing a watch entry"
        );
        for (v, slot) in self.reasons.iter().enumerate() {
            match slot {
                Reason::None => {}
                Reason::Binary(_) | Reason::Long(_) => {
                    assert!(
                        !self.assigns[v].is_undef(),
                        "reason slot on an unassigned variable"
                    );
                    if let Reason::Long(r) = slot {
                        assert!(!self.db.is_deleted(*r), "reason clause tombstoned");
                    }
                }
            }
        }
        for &c in &self.db.learnts {
            assert!(self.db.is_learnt(c), "non-learnt clause in learnt index");
        }
    }

    /// Test-only: all watcher refs point at live clauses (true right after
    /// a collection, before any new deletions).
    #[cfg(test)]
    fn no_tombstoned_watchers(&self) -> bool {
        self.watches
            .iter()
            .flatten()
            .all(|w| !self.db.is_deleted(w.cref))
    }
}

enum SearchOutcome {
    Sat,
    Unsat,
    Restart,
    /// A budget limit, deadline, cancellation, or internal resource limit
    /// stopped the search before it reached an answer.
    Stopped(StopReason),
}

/// The Luby sequence scaled by `y`: 1,1,2,1,1,2,4,… (reluctant doubling).
fn luby(y: u64, mut x: u64) -> u64 {
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    y.pow(seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use presat_logic::truth_table;

    fn lit(v: usize, pos: bool) -> Lit {
        Lit::with_phase(Var::new(v), pos)
    }

    #[test]
    fn luby_sequence_prefix() {
        let prefix: Vec<u64> = (0..15).map(|i| luby(2, i)).collect();
        assert_eq!(prefix, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new(1);
        s.add_clause([lit(0, true)]);
        let m = s.solve().into_model().expect("sat");
        assert_eq!(m.value(Var::new(0)), Some(true));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new(1);
        s.add_clause([lit(0, true)]);
        assert!(!s.add_clause([lit(0, false)]));
        assert!(matches!(s.solve(), SolveResult::Unsat));
    }

    #[test]
    fn empty_clause_unsat() {
        let mut s = Solver::new(1);
        assert!(!s.add_clause([]));
        assert!(matches!(s.solve(), SolveResult::Unsat));
    }

    #[test]
    fn no_clauses_sat() {
        let mut s = Solver::new(3);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn tautological_clause_ignored() {
        let mut s = Solver::new(1);
        assert!(s.add_clause([lit(0, true), lit(0, false)]));
        assert!(s.solve().is_sat());
    }

    #[test]
    fn model_satisfies_formula() {
        // Pigeonhole-ish small instance: 3 vars, random-ish clauses.
        let mut cnf = presat_logic::Cnf::new(3);
        cnf.add_clause([lit(0, true), lit(1, true), lit(2, true)]);
        cnf.add_clause([lit(0, false), lit(1, false)]);
        cnf.add_clause([lit(1, false), lit(2, false)]);
        cnf.add_clause([lit(0, false), lit(2, false)]);
        let mut s = Solver::from_cnf(&cnf);
        let m = s.solve().into_model().expect("sat");
        assert!(cnf.is_satisfied_by(&m));
    }

    #[test]
    fn php_3_into_2_is_unsat() {
        // Pigeonhole principle PHP(3,2): vars p_{i,j} i∈0..3 pigeons, j∈0..2.
        let var = |i: usize, j: usize| Var::new(i * 2 + j);
        let mut s = Solver::new(6);
        for i in 0..3 {
            s.add_clause([Lit::pos(var(i, 0)), Lit::pos(var(i, 1))]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause([Lit::neg(var(i1, j)), Lit::neg(var(i2, j))]);
                }
            }
        }
        assert!(matches!(s.solve(), SolveResult::Unsat));
    }

    #[test]
    fn assumptions_are_retracted() {
        let mut s = Solver::new(2);
        s.add_clause([lit(0, true), lit(1, true)]);
        assert!(matches!(
            s.solve_with_assumptions(&[lit(0, false), lit(1, false)]),
            SolveResult::Unsat
        ));
        // Solver still usable and satisfiable without the assumptions.
        assert!(s.solve().is_sat());
    }

    #[test]
    fn unsat_core_is_subset_of_assumptions() {
        let mut s = Solver::new(3);
        s.add_clause([lit(0, false), lit(1, false)]); // ¬a ∨ ¬b
        let r = s.solve_with_assumptions(&[lit(2, true), lit(0, true), lit(1, true)]);
        assert!(matches!(r, SolveResult::Unsat));
        let core = s.unsat_core().to_vec();
        assert!(!core.is_empty());
        for l in &core {
            assert!([lit(2, true), lit(0, true), lit(1, true)].contains(l));
        }
        // x2 is irrelevant to the conflict.
        assert!(!core.contains(&lit(2, true)));
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = Solver::new(2);
        s.add_clause([lit(0, true), lit(1, true)]);
        assert!(s.solve().is_sat());
        s.add_clause([lit(0, false)]);
        s.add_clause([lit(1, false)]);
        assert!(matches!(s.solve(), SolveResult::Unsat));
    }

    #[test]
    fn agrees_with_truth_table_on_random_3sat() {
        use presat_logic::rng::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(42);
        for round in 0..60 {
            let n = 6 + round % 4; // 6..9 vars
            let m = (n as f64 * (2.0 + (round % 5) as f64 * 0.7)) as usize;
            let mut cnf = presat_logic::Cnf::new(n);
            for _ in 0..m {
                let mut c = Vec::new();
                for _ in 0..3 {
                    let v = rng.gen_range(0..n);
                    c.push(lit(v, rng.gen_bool(0.5)));
                }
                cnf.add_clause(c);
            }
            let expected = truth_table::is_satisfiable(&cnf);
            let mut s = Solver::from_cnf(&cnf);
            let got = s.solve();
            assert_eq!(got.is_sat(), expected, "divergence on round {round}");
            if let SolveResult::Sat(m) = got {
                assert!(cnf.is_satisfied_by(&m), "bogus model on round {round}");
            }
        }
    }

    #[test]
    fn repeated_assumption_solves_agree_with_oracle() {
        use presat_logic::rng::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(7);
        let n = 8;
        let mut cnf = presat_logic::Cnf::new(n);
        for _ in 0..20 {
            let mut c = Vec::new();
            for _ in 0..3 {
                c.push(lit(rng.gen_range(0..n), rng.gen_bool(0.5)));
            }
            cnf.add_clause(c);
        }
        let mut s = Solver::from_cnf(&cnf);
        for _ in 0..30 {
            let k = rng.gen_range(0..4);
            let mut assumptions = Vec::new();
            let mut used = std::collections::HashSet::new();
            for _ in 0..k {
                let v = rng.gen_range(0..n);
                if used.insert(v) {
                    assumptions.push(lit(v, rng.gen_bool(0.5)));
                }
            }
            // Oracle: conjoin unit clauses.
            let mut augmented = cnf.clone();
            for &a in &assumptions {
                augmented.add_unit(a);
            }
            let expected = truth_table::is_satisfiable(&augmented);
            let got = s.solve_with_assumptions(&assumptions);
            assert_eq!(got.is_sat(), expected);
            if let SolveResult::Sat(m) = got {
                assert!(augmented.is_satisfied_by(&m));
            }
        }
    }

    #[test]
    fn duplicate_assumptions_ok() {
        let mut s = Solver::new(2);
        s.add_clause([lit(0, true), lit(1, true)]);
        let r = s.solve_with_assumptions(&[lit(0, true), lit(0, true)]);
        assert!(r.is_sat());
    }

    #[test]
    fn stats_accumulate() {
        let mut s = Solver::new(2);
        s.add_clause([lit(0, true), lit(1, true)]);
        let _ = s.solve();
        let _ = s.solve();
        assert_eq!(s.stats().solves, 2);
    }

    #[test]
    fn reset_stats_zeroes_counters() {
        let mut s = Solver::new(2);
        s.add_clause([lit(0, true), lit(1, true)]);
        let _ = s.solve();
        assert!(s.stats().solves > 0);
        s.reset_stats();
        assert_eq!(*s.stats(), SolverStats::default());
        // Still usable afterwards.
        assert!(s.solve().is_sat());
        assert_eq!(s.stats().solves, 1);
    }

    #[test]
    fn db_clauses_survive_reset_and_clone() {
        let mut s = Solver::new(3);
        s.add_clause([lit(0, true), lit(1, true)]);
        s.add_clause([lit(1, false), lit(2, true)]);
        s.add_clause([lit(0, true), lit(0, false)]); // tautology: not stored
        assert_eq!(s.db_clauses(), s.stats().problem_clauses);
        assert_eq!(s.db_clauses(), 2);
        s.reset_stats();
        assert_eq!(s.stats().problem_clauses, 0);
        assert_eq!(s.db_clauses(), 2);
        let clone = s.clone_at_root();
        assert_eq!(clone.db_clauses(), 2);
    }

    #[test]
    fn binary_propagations_skip_the_arena() {
        // A pure implication chain: every propagation crosses a binary
        // clause, so the binary fast path must account for all of them.
        let n = 64;
        let mut s = Solver::new(n);
        for i in 0..n - 1 {
            s.add_clause([lit(i, false), lit(i + 1, true)]);
        }
        let r = s.solve_with_assumptions(&[lit(0, true)]);
        assert!(r.is_sat());
        assert!(
            s.stats().binary_skips >= (n as u64) - 1,
            "binary fast path never fired: {:?}",
            s.stats()
        );
    }

    #[test]
    fn binary_conflicts_analyzed_correctly() {
        // Force conflicts whose reason clauses come from the binary fast
        // path (the implied literal is NOT normalised to position 0 there),
        // and cross-check against the truth-table oracle.
        use presat_logic::rng::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(1234);
        for round in 0..40 {
            let n = 6 + round % 3;
            let m = 3 * n;
            let mut cnf = presat_logic::Cnf::new(n);
            for _ in 0..m {
                // Mostly binary clauses, some ternary.
                let width = if rng.gen_bool(0.7) { 2 } else { 3 };
                let mut c = Vec::new();
                for _ in 0..width {
                    c.push(lit(rng.gen_range(0..n), rng.gen_bool(0.5)));
                }
                cnf.add_clause(c);
            }
            let expected = truth_table::is_satisfiable(&cnf);
            let mut s = Solver::from_cnf(&cnf);
            let got = s.solve();
            assert_eq!(got.is_sat(), expected, "divergence on round {round}");
            if let SolveResult::Sat(model) = got {
                assert!(cnf.is_satisfied_by(&model), "bogus model on round {round}");
            }
        }
    }

    #[test]
    fn clone_at_root_is_independent_and_clean() {
        let mut s = Solver::new(3);
        s.add_clause([lit(0, true), lit(1, true), lit(2, true)]);
        s.add_clause([lit(0, false), lit(1, true)]);
        let _ = s.solve();
        let before = *s.stats();

        let mut c = s.clone_at_root();
        // Clone starts with fresh stats and no inherited unsat core.
        assert_eq!(*c.stats(), SolverStats::default());
        assert!(c.unsat_core().is_empty());

        // Diverge the clone; the original must be unaffected.
        c.add_clause([lit(2, false)]);
        c.add_clause([lit(0, true)]);
        assert!(c.solve().is_sat());
        assert_eq!(*s.stats(), before);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn clone_at_root_agrees_with_original_under_assumptions() {
        use presat_logic::rng::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(99);
        let n = 7;
        let mut cnf = presat_logic::Cnf::new(n);
        for _ in 0..18 {
            let mut c = Vec::new();
            for _ in 0..3 {
                c.push(lit(rng.gen_range(0..n), rng.gen_bool(0.5)));
            }
            cnf.add_clause(c);
        }
        let mut s = Solver::from_cnf(&cnf);
        let _ = s.solve(); // warm the solver (learnt clauses, phases)
        let mut c = s.clone_at_root();
        for _ in 0..20 {
            let a = [lit(rng.gen_range(0..n), rng.gen_bool(0.5))];
            assert_eq!(
                s.solve_with_assumptions(&a).is_sat(),
                c.solve_with_assumptions(&a).is_sat()
            );
        }
    }

    #[test]
    fn large_chain_propagates() {
        // x0 and a chain of implications x_i → x_{i+1}: forces all true.
        let n = 2000;
        let mut s = Solver::new(n);
        s.add_clause([lit(0, true)]);
        for i in 0..n - 1 {
            s.add_clause([lit(i, false), lit(i + 1, true)]);
        }
        let m = s.solve().into_model().expect("sat");
        for i in 0..n {
            assert_eq!(m.value(Var::new(i)), Some(true));
        }
    }

    /// Every variable's value on the current trail.
    fn values(s: &Solver) -> Vec<Option<bool>> {
        Var::range(s.num_vars()).map(|v| s.value(v)).collect()
    }

    #[test]
    fn assume_derives_implications() {
        let mut s = Solver::new(3);
        s.add_clause([lit(0, false), lit(1, true)]); // x0 → x1
        s.add_clause([lit(1, false), lit(2, true)]); // x1 → x2
        assert!(s.assume(lit(0, true)));
        assert_eq!(values(&s), [Some(true); 3]);
        s.backtrack(0);
        // Backtracking restores the root: nothing is assigned at level 0.
        assert_eq!(values(&s), [None; 3]);
        // And the solver still solves normally.
        assert!(s.solve().is_sat());
    }

    #[test]
    fn assume_reports_conflict() {
        let mut s = Solver::new(2);
        s.add_clause([lit(0, false), lit(1, true)]);
        s.add_clause([lit(0, false), lit(1, false)]);
        assert!(!s.assume(lit(0, true)));
        s.backtrack(0);
        // Non-conflicting assumptions still work afterwards.
        assert!(s.assume(lit(0, false)));
        assert_eq!(values(&s), [Some(false), None]);
    }

    #[test]
    fn assume_sees_level0_facts() {
        let mut s = Solver::new(2);
        s.add_clause([lit(1, true)]);
        assert!(s.assume(lit(0, false)));
        assert_eq!(values(&s), [Some(false), Some(true)]);
        assert_eq!(s.level_of(Var::new(1)), Some(0));
    }

    #[test]
    fn assume_opens_one_level_per_literal() {
        let mut s = Solver::new(4);
        s.add_clause([lit(0, false), lit(1, true)]); // x0 → x1
        s.add_clause([lit(2, false), lit(3, true)]); // x2 → x3
        s.add_clause([lit(2, false), lit(3, false)]); // x2 → ¬x3
        assert!(s.assume(lit(0, true)));
        assert_eq!(s.level(), 1);
        // x1 is already implied: an empty level keeps level i = literal i.
        assert!(s.assume(lit(1, true)));
        assert_eq!(s.level(), 2);
        assert_eq!(s.trail_prefix(1).len(), s.trail_prefix(2).len());
        assert_eq!(s.level_of(Var::new(1)), Some(1));
        // A false literal opens no level.
        assert!(!s.assume(lit(1, false)));
        assert_eq!(s.level(), 2);
        // A conflict leaves its level open for the caller to cut.
        assert!(!s.assume(lit(2, true)));
        assert_eq!(s.level(), 3);
        s.backtrack(2);
        assert!(s.assume(lit(2, false)));
        assert_eq!(s.level(), 3);
        assert_eq!(s.stats().decisions, 0, "assumptions are not decisions");
        s.backtrack(0);
        assert_eq!(values(&s), [None; 4]);
    }

    /// A random 3-CNF over `n` variables with `m` clauses.
    fn random_3cnf(
        rng: &mut presat_logic::rng::SplitMix64,
        n: usize,
        m: usize,
    ) -> presat_logic::Cnf {
        let mut cnf = presat_logic::Cnf::new(n);
        for _ in 0..m {
            let c: Vec<Lit> = (0..3)
                .map(|_| lit(rng.gen_range(0..n), rng.gen_bool(0.5)))
                .collect();
            cnf.add_clause(c);
        }
        cnf
    }

    #[test]
    fn solve_entered_above_level_zero_agrees_with_fresh_calls() {
        use presat_logic::rng::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(0xE17);
        let mut entered = [0usize; 2];
        for round in 0..60 {
            let n = 8 + round % 3;
            let cnf = random_3cnf(&mut rng, n, (7 * n) / 2);
            let mut s = Solver::from_cnf(&cnf);
            for query in 0..12 {
                let mut assumptions: Vec<Lit> = Vec::new();
                for _ in 0..rng.gen_range(0..7) {
                    let v = rng.gen_range(0..n);
                    if assumptions.iter().all(|a| a.var().index() != v) {
                        assumptions.push(lit(v, rng.gen_bool(0.5)));
                    }
                }
                let j = rng.gen_range(0..assumptions.len() + 1);
                let mut fresh = s.clone_at_root();
                let want = fresh.solve_with_assumptions(&assumptions);
                let at = format!("round {round}, query {query}, {assumptions:?} from {j}");
                if !assumptions[..j].iter().all(|&a| s.assume(a)) {
                    // Propagation alone refuted the prefix.
                    assert!(matches!(want, SolveResult::Unsat), "{at}");
                    s.backtrack(0);
                    continue;
                }
                assert_eq!(s.level(), j);
                entered[usize::from(j > 0)] += 1;
                let got = s.solve_with_assumptions(&assumptions);
                assert_eq!(got.is_sat(), want.is_sat(), "{at}");
                if let SolveResult::Sat(model) = &got {
                    assert!(cnf.is_satisfied_by(model), "{at}");
                    assert!(assumptions
                        .iter()
                        .all(|&a| model.value(a.var()) == Some(a.is_pos())));
                    // The entry levels survive the call, one per literal.
                    assert_eq!(s.level(), j, "{at}");
                    assert!(s.holds_assumption_levels(&assumptions[..j]), "{at}");
                } else {
                    assert!(s.level() <= j, "{at}");
                    assert!(s.holds_assumption_levels(&assumptions), "{at}");
                    // A valid core: assumptions whose conjunction with the
                    // formula alone is unsatisfiable.
                    let mut core_cnf = cnf.clone();
                    for &a in s.unsat_core() {
                        assert!(assumptions.contains(&a), "{at}: core {a} not assumed");
                        core_cnf.add_unit(a);
                    }
                    assert!(!truth_table::is_satisfiable(&core_cnf), "{at}");
                }
                s.backtrack(0);
            }
        }
        assert!(entered[0] > 50 && entered[1] > 200, "{entered:?}");
    }

    #[test]
    fn backjump_below_the_entry_level_keeps_a_consistent_prefix() {
        let [a, b, c, d, e] = [0, 1, 2, 3, 4].map(|v| lit(v, true));
        // Under a, the branch ¬c conflicts on d and learns (¬a ∨ c), which
        // asserts c at a's level 1, below the entry level 2. (Bumping c
        // makes it the first decision; its saved phase is false.)
        let mut s = Solver::new(5);
        s.add_clause([!a, c, d]);
        s.add_clause([!a, c, !d]);
        s.bump_var(c.var());
        assert!(s.assume(a) && s.assume(b));
        let model = s.solve_with_assumptions(&[a, b]).into_model().expect("sat");
        assert_eq!(model.value(c.var()), Some(true));
        assert!(s.stats().conflicts > 0, "the search never backjumped");
        assert_eq!(s.level(), 2);
        assert!(s.holds_assumption_levels(&[a, b]));
        assert_eq!(s.level_of(c.var()), Some(1), "c asserted below entry");
        assert_eq!(s.level_of(b.var()), Some(2));
        s.backtrack(0);

        // With c refuted under a as well, the search learns (¬a ∨ c) and
        // then ¬a at level 0, and answers Unsat from below its entry level.
        let mut s = Solver::new(5);
        for clause in [[!a, c, d], [!a, c, !d], [!a, !c, e], [!a, !c, !e]] {
            s.add_clause(clause);
        }
        s.bump_var(c.var());
        assert!(s.assume(a) && s.assume(b));
        let refuted = s.solve_with_assumptions(&[a, b]);
        assert!(matches!(refuted, SolveResult::Unsat));
        assert_eq!(s.unsat_core(), [a]);
        assert!(s.level() < 2);
        assert!(s.holds_assumption_levels(&[a, b]));
        // Re-opening the prefix finds it refuted by propagation.
        s.backtrack(0);
        assert!(!s.assume(a));
        assert!(s.assume(!a) && s.assume(b));
        assert!(s.solve_with_assumptions(&[!a, b]).is_sat());
        assert_eq!(s.level(), 2);
    }

    #[test]
    fn unsat_core_of_plain_unsat_formula_is_empty() {
        let mut s = Solver::new(1);
        s.add_clause([lit(0, true)]);
        s.add_clause([lit(0, false)]);
        let _ = s.solve_with_assumptions(&[]);
        assert!(s.unsat_core().is_empty());
    }

    #[test]
    fn retired_group_clauses_stop_constraining() {
        // Group under act = x3: (¬act ∨ x0) ∧ (¬act ∨ ¬x0 ∨ x1 ∨ x2).
        let mut s = Solver::new(4);
        let act = lit(3, true);
        s.add_clause([!act, lit(0, true)]);
        s.add_clause([!act, lit(0, false), lit(1, true), lit(2, true)]);
        s.add_clause([lit(1, false)]);
        s.add_clause([lit(2, false)]);
        // Active: x0 forced true, then the ternary clause is falsified.
        assert!(matches!(
            s.solve_with_assumptions(&[act]),
            SolveResult::Unsat
        ));
        let removed = s.retire_group(act);
        assert_eq!(removed, 1, "only the non-binary group clause is swept");
        // Retired: the formula is satisfiable again and x0 is free.
        assert!(s.solve().is_sat());
        assert!(s.solve_with_assumptions(&[lit(0, false)]).is_sat());
        assert!(s.is_ok());
    }

    #[test]
    fn retirement_cycles_agree_with_fresh_solvers() {
        // Alternate targets through activation groups on one persistent
        // solver; every query must agree with a cold solver on the active
        // clauses only.
        use presat_logic::rng::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(31);
        let n = 6;
        let mut base = presat_logic::Cnf::new(n);
        for _ in 0..10 {
            let c: Vec<Lit> = (0..3)
                .map(|_| lit(rng.gen_range(0..n), rng.gen_bool(0.5)))
                .collect();
            base.add_clause(c);
        }
        let mut s = Solver::from_cnf(&base);
        for round in 0..12 {
            let act = Lit::pos(s.add_var());
            let group: Vec<Vec<Lit>> = (0..3)
                .map(|_| {
                    let mut c = vec![!act];
                    for _ in 0..2 {
                        c.push(lit(rng.gen_range(0..n), rng.gen_bool(0.5)));
                    }
                    c
                })
                .collect();
            for c in &group {
                s.add_clause(c.iter().copied());
            }
            // Cold oracle: base + this round's group asserted outright.
            let mut cold = Solver::from_cnf(&base);
            for c in &group {
                let stripped: Vec<Lit> = c[1..].to_vec();
                cold.add_clause(stripped);
            }
            assert_eq!(
                s.solve_with_assumptions(&[act]).is_sat(),
                cold.solve().is_sat(),
                "round {round}"
            );
            s.retire_group(act);
            // The persistent solver must still agree with the plain base.
            let mut plain = Solver::from_cnf(&base);
            assert_eq!(s.solve().is_sat(), plain.solve().is_sat(), "round {round}");
        }
    }

    #[test]
    fn retire_group_counts_learnts_correctly() {
        let mut s = Solver::new(3);
        s.add_clause([lit(0, true), lit(1, true), lit(2, true)]);
        let _ = s.solve();
        let act = Lit::pos(s.add_var());
        s.add_clause([!act, lit(0, false), lit(1, false), lit(2, false)]);
        let _ = s.solve_with_assumptions(&[act]);
        s.retire_group(act);
        assert_eq!(
            s.stats().learnt_clauses,
            s.live_learnt_count() as u64,
            "learnt counter resynced after the sweep"
        );
        assert!(s.solve().is_sat());
    }

    /// A hard-ish pigeonhole-style instance: `holes + 1` pigeons into
    /// `holes` holes, guaranteed to generate conflicts.
    fn pigeonhole(holes: usize) -> Solver {
        pigeons_into_holes(holes + 1, holes)
    }

    /// Every pigeon in some hole, no two pigeons in one hole. With as many
    /// pigeons as holes the models are the `holes!` perfect matchings.
    fn pigeons_into_holes(pigeons: usize, holes: usize) -> Solver {
        let mut s = Solver::new(pigeons * holes);
        let var = |p: usize, h: usize| Var::new(p * holes + h);
        for p in 0..pigeons {
            s.add_clause((0..holes).map(|h| Lit::pos(var(p, h))));
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    s.add_clause([Lit::neg(var(p1, h)), Lit::neg(var(p2, h))]);
                }
            }
        }
        s
    }

    /// Regression for the original budget bug: a budgeted solve on a
    /// *satisfiable* instance must never report `Unsat` — exhaustion is
    /// `Unknown`, with the matching reason.
    #[test]
    fn budgeted_solve_on_satisfiable_instance_never_reports_unsat() {
        for budget in [0u64, 1, 2, 5, 20] {
            // Satisfiable: pigeonhole with a pigeon removed (n into n).
            let mut s = pigeons_into_holes(6, 6);
            s.set_budget(Budget::unlimited().with_conflicts(budget));
            match s.solve() {
                SolveResult::Unsat => panic!("budget={budget}: lied about UNSAT"),
                SolveResult::Sat(_) | SolveResult::Unknown(_) => {}
            }
        }
    }

    #[test]
    fn conflict_budget_stops_with_reason_and_solver_stays_usable() {
        let mut s = pigeonhole(7);
        s.set_budget(Budget::unlimited().with_conflicts(3));
        let r = s.solve();
        assert_eq!(r.stop_reason(), Some(StopReason::Conflicts));
        // Removing the budget lets the same solver finish the proof.
        s.set_budget(Budget::unlimited());
        assert!(matches!(s.solve(), SolveResult::Unsat));
    }

    #[test]
    fn budget_is_cumulative_across_calls() {
        let mut s = pigeonhole(7);
        s.set_budget(Budget::unlimited().with_conflicts(5));
        assert!(s.solve().is_unknown());
        // The threshold was absolute: a second call is already exhausted
        // and must stop before doing any work.
        let conflicts_before = s.stats().conflicts;
        assert_eq!(s.solve().stop_reason(), Some(StopReason::Conflicts));
        assert_eq!(s.stats().conflicts, conflicts_before);
    }

    #[test]
    fn propagation_budget_stops_with_reason() {
        let mut s = pigeonhole(6);
        s.set_budget(Budget::unlimited().with_propagations(10));
        assert_eq!(s.solve().stop_reason(), Some(StopReason::Propagations));
    }

    #[test]
    fn expired_deadline_stops_before_any_work() {
        let mut s = pigeonhole(6);
        s.set_budget(Budget::unlimited().with_deadline(std::time::Instant::now()));
        assert_eq!(s.solve().stop_reason(), Some(StopReason::Deadline));
        assert_eq!(s.stats().conflicts, 0);
    }

    #[test]
    fn cancelled_token_stops_solve() {
        let mut s = pigeonhole(7);
        let token = CancelToken::new();
        s.set_cancel(Some(token.clone()));
        token.cancel();
        assert_eq!(s.solve().stop_reason(), Some(StopReason::Cancelled));
        s.set_cancel(None);
        assert!(matches!(s.solve(), SolveResult::Unsat), "token detached");
        // A finished refutation is a proof: once Unsat is established,
        // even a cancelled token cannot retract it.
        s.set_cancel(Some(token));
        assert!(matches!(s.solve(), SolveResult::Unsat));
    }

    #[test]
    fn clone_at_root_sheds_budget_and_cancel() {
        let mut s = pigeonhole(6);
        let token = CancelToken::new();
        token.cancel();
        s.set_budget(Budget::unlimited().with_conflicts(1));
        s.set_cancel(Some(token));
        let mut fresh = s.clone_at_root();
        assert!(matches!(fresh.solve(), SolveResult::Unsat));
        assert!(s.solve().is_unknown());
    }

    /// Satellite regression: drive clause activities through the rescale
    /// path with an extreme increment. Before the `total_cmp` fix,
    /// `reduce_db`'s comparator panicked once an activity reached
    /// inf/NaN; `total_cmp` keeps the sort total for any bit pattern.
    #[test]
    fn reduce_db_survives_extreme_activity_increments() {
        let mut s = pigeonhole(7);
        // One bump of `cla_inc` overshoots RESCALE_LIMIT to infinity, and
        // `inf * (1/RESCALE_LIMIT)` stays infinite, so activities can hold
        // non-finite values when reduce_db sorts them.
        s.cla_inc = f64::MAX;
        s.var_inc = f64::MAX;
        s.max_learnts = 4;
        assert!(matches!(s.solve(), SolveResult::Unsat));
        assert!(s.stats().deleted_clauses > 0, "reduce_db must have run");
    }

    /// Satellite regression: clause-arena exhaustion surfaces as a typed
    /// `Unknown(ResourceExhausted)`, not a process abort.
    #[test]
    fn arena_exhaustion_surfaces_as_unknown() {
        // Mid-search exhaustion: room for the problem clauses but not for
        // learnt clauses.
        let mut s = pigeonhole(7);
        s.db.capacity = s.db.arena_words() as u32;
        assert_eq!(s.solve().stop_reason(), Some(StopReason::ResourceExhausted));

        // Exhaustion while adding problem clauses poisons the solver: the
        // stored formula is incomplete, so answers become Unknown. Four
        // words hold the first binary clause (header + 2 lits) but not a
        // second one.
        let mut s = Solver::new(4);
        s.db.capacity = 4;
        assert!(s.add_clause([lit(0, true), lit(1, true)]));
        assert!(s.add_clause([lit(2, true), lit(3, true)])); // dropped
        assert_eq!(s.solve().stop_reason(), Some(StopReason::ResourceExhausted));
    }

    /// Tentpole invariant: a forced collection at level 0 leaves the
    /// solver semantically identical — every model query agrees with an
    /// untouched clone — and structurally sound (watchers rewired, no
    /// tombstoned refs anywhere).
    #[test]
    fn collect_garbage_preserves_models_and_rewires_refs() {
        use presat_logic::rng::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(77);
        let n = 8;
        let mut cnf = presat_logic::Cnf::new(n);
        for _ in 0..24 {
            let c: Vec<Lit> = (0..3)
                .map(|_| lit(rng.gen_range(0..n), rng.gen_bool(0.5)))
                .collect();
            cnf.add_clause(c);
        }
        let mut s = Solver::from_cnf(&cnf);
        let _ = s.solve(); // warm: learnt clauses, phases
                           // Tombstone a few clause groups through retirement.
        for _ in 0..3 {
            let act = Lit::pos(s.add_var());
            for _ in 0..4 {
                let mut c = vec![!act];
                for _ in 0..2 {
                    c.push(lit(rng.gen_range(0..n), rng.gen_bool(0.5)));
                }
                s.add_clause(c);
            }
            let _ = s.solve_with_assumptions(&[act]);
            s.retire_group(act);
        }
        let twin = s.clone_at_root();
        s.collect_garbage();
        s.check_integrity();
        assert!(s.no_tombstoned_watchers(), "collection left dead watchers");
        assert!(s.stats().db_compactions >= 1);
        // Semantic equivalence under a sweep of assumption probes.
        let mut twin = twin;
        for _ in 0..24 {
            let a: Vec<Lit> = (0..2)
                .map(|_| lit(rng.gen_range(0..n), rng.gen_bool(0.5)))
                .collect();
            assert_eq!(
                s.solve_with_assumptions(&a).is_sat(),
                twin.solve_with_assumptions(&a).is_sat()
            );
        }
    }

    /// Mid-search collections (triggered from `reduce_db`) must keep
    /// locked reason clauses live and the proof intact.
    #[test]
    fn gc_mid_search_keeps_reasons_valid_and_proof_intact() {
        let mut s = pigeonhole(7);
        s.max_learnts = 4; // reduce constantly → tombstones → collections
        assert!(matches!(s.solve(), SolveResult::Unsat));
        assert!(
            s.stats().db_compactions > 0,
            "expected GC to trigger under heavy reduction: {:?}",
            s.stats()
        );
        assert!(s.stats().clauses_reclaimed > 0);
        s.check_integrity();
    }

    /// Deep retirement churn: arena stays bounded instead of growing
    /// monotonically with every retired group.
    #[test]
    fn retirement_churn_keeps_arena_bounded() {
        use presat_logic::rng::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(5);
        let n = 6;
        let mut s = Solver::new(n);
        let mut peak_after_gc = 0usize;
        let mut total_allocated_words = 0usize;
        for _ in 0..40 {
            let act = Lit::pos(s.add_var());
            for _ in 0..6 {
                let mut c = vec![!act];
                for _ in 0..3 {
                    c.push(lit(rng.gen_range(0..n), rng.gen_bool(0.5)));
                }
                total_allocated_words += 1 + 4; // header + ¬act + 3 lits
                s.add_clause(c);
            }
            let _ = s.solve_with_assumptions(&[act]);
            s.retire_group(act);
            peak_after_gc = peak_after_gc.max(s.db.arena_words());
        }
        assert!(s.stats().db_compactions > 0, "GC never triggered");
        assert!(s.stats().clauses_reclaimed > 0);
        assert!(
            peak_after_gc < total_allocated_words,
            "arena never shrank: peak {peak_after_gc} vs allocated {total_allocated_words}"
        );
        s.check_integrity();
        assert!(s.solve().is_sat());
    }

    /// The arena gauge survives a stats reset: per-call snapshots report
    /// the resident arena inherited from earlier calls.
    #[test]
    fn arena_gauge_restamped_after_reset_stats() {
        let mut s = pigeonhole(5);
        let _ = s.solve();
        let resident = s.db.arena_bytes() as u64;
        assert!(s.stats().arena_bytes >= resident);
        s.reset_stats();
        assert_eq!(s.stats().arena_bytes, 0);
        let _ = s.solve();
        assert!(
            s.stats().arena_bytes >= resident,
            "solve entry must restamp the gauge"
        );
    }

    // --- Enumeration by blocking: `solve_continue` + `block_model` -------

    use std::collections::HashSet;

    /// The blocking clause of the model `m` over all variables.
    fn full_block(m: &Assignment) -> Vec<Lit> {
        (0..m.num_vars())
            .map(|v| {
                let var = Var::new(v);
                Lit::with_phase(var, !m.value(var).expect("models are total"))
            })
            .collect()
    }

    /// Enumerates the models of `s` by blocking full assignments, from
    /// wherever the solver stands, until the clause set is refuted. Each
    /// model goes into `seen`; a repeated one panics.
    fn enumerate_by_blocking(s: &mut Solver, seen: &mut HashSet<Vec<bool>>) {
        loop {
            match s.solve_continue() {
                SolveResult::Sat(m) => {
                    let key: Vec<bool> = m.iter().map(|(_, b)| b).collect();
                    assert!(seen.insert(key), "model repeated");
                    s.check_integrity();
                    if !s.block_model(full_block(&m)) {
                        assert_eq!(s.level(), 0);
                        return;
                    }
                    s.check_integrity();
                }
                SolveResult::Unsat => {
                    assert_eq!(s.level(), 0);
                    return;
                }
                SolveResult::Unknown(r) => panic!("unlimited enumeration stopped: {r:?}"),
            }
        }
    }

    #[test]
    fn blocking_enumeration_finds_every_model_once() {
        use presat_logic::rng::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(2026);
        for round in 0..60 {
            let n = 6 + round % 5;
            let m = rng.gen_range(0..3 * n);
            let mut cnf = presat_logic::Cnf::new(n);
            for _ in 0..m {
                let width = 1 + rng.gen_range(0..3);
                let c: Vec<Lit> = (0..width)
                    .map(|_| lit(rng.gen_range(0..n), rng.gen_bool(0.5)))
                    .collect();
                cnf.add_clause(c);
            }
            let mut s = Solver::from_cnf(&cnf);
            let mut seen = HashSet::new();
            enumerate_by_blocking(&mut s, &mut seen);
            assert_eq!(
                seen.len() as u64,
                truth_table::count_models(&cnf),
                "model count on round {round}"
            );
            assert!(!s.is_ok(), "round {round}: enumeration ends refuted");
            assert!(matches!(s.solve(), SolveResult::Unsat));
        }
    }

    #[test]
    fn blocking_clause_false_at_level_zero_refutes_without_search() {
        let mut s = Solver::new(2);
        s.add_clause([lit(0, true)]);
        s.add_clause([lit(1, true)]);
        let m = s.solve_continue().into_model().expect("sat");
        assert_eq!(s.level(), 0, "both variables are level-0 units");
        let before = *s.stats();
        assert!(!s.block_model(full_block(&m)));
        let after = *s.stats();
        assert_eq!(
            (after.decisions, after.conflicts, after.propagations),
            (before.decisions, before.conflicts, before.propagations)
        );
        assert_eq!(after.problem_clauses, before.problem_clauses + 1);
        assert!(matches!(s.solve_continue(), SolveResult::Unsat));
        assert_eq!(s.stats().solves, before.solves + 1);
    }

    #[test]
    fn unit_blocking_clauses_go_to_level_zero() {
        // No clauses: x0 and x1 are decided, x2 stays a level-0 unit.
        let mut s = Solver::new(3);
        s.add_clause([lit(2, true)]);
        let m = s.solve_continue().into_model().expect("sat");
        assert!(s.level() > 0);
        // ¬x2 is false at level 0 and drops out: the clause is the unit
        // that flips x0.
        let x0 = Lit::with_phase(Var::new(0), !m.value(Var::new(0)).unwrap());
        assert!(s.block_model([x0, lit(2, false)]));
        assert_eq!(s.level(), 0);
        assert_eq!(s.lit_value(x0), Lbool::True);
        assert_eq!(s.level_of(x0.var()), Some(0));
        let m2 = s.solve_continue().into_model().expect("sat");
        assert_eq!(m2.value(x0.var()), Some(x0.is_pos()));
        // Blocking x0's only value left refutes the formula at once.
        assert!(!s.block_model([!x0]));
        assert!(matches!(s.solve_continue(), SolveResult::Unsat));

        // A unit whose propagation conflicts at level 0 refutes too:
        // x0 → x1 and x0 → ¬x1 leave x0 false, and the clause [x0]
        // asserts it.
        let mut s = Solver::new(2);
        s.add_clause([lit(0, false), lit(1, true)]);
        s.add_clause([lit(0, false), lit(1, false)]);
        assert!(s.decide(lit(0, false)));
        assert!(!s.block_model([lit(0, true)]));
        assert_eq!(s.level(), 0);
        assert!(!s.is_ok());
    }

    #[test]
    fn binary_blocking_clause_asserts_with_a_binary_reason() {
        let mut s = Solver::new(4);
        for v in 0..4 {
            assert!(s.decide(lit(v, false)));
        }
        // [x1, x3]: x3 alone on the top level 4, x1 on level 2.
        assert!(s.block_model([lit(1, true), lit(3, true)]));
        assert_eq!(s.level(), 2);
        assert_eq!(s.lit_value(lit(3, true)), Lbool::True);
        assert_eq!(s.level_of(Var::new(3)), Some(2));
        assert_eq!(s.reasons[3], Reason::Binary(lit(1, true)));
        s.check_integrity();
        let m = s.solve_continue().into_model().expect("sat");
        assert_eq!(m.value(Var::new(3)), Some(true));
        assert_eq!(s.stats().conflicts, 0, "an asserting clause is no conflict");
        // The binary clause is stored once and propagates like any other.
        s.backtrack(0);
        assert!(s.decide(lit(1, false)));
        assert_eq!(s.lit_value(lit(3, true)), Lbool::True);
    }

    #[test]
    fn long_blocking_clause_asserts_with_its_own_reason() {
        let mut s = Solver::new(4);
        for v in 0..4 {
            assert!(s.decide(lit(v, false)));
        }
        assert!(s.block_model([lit(0, true), lit(1, true), lit(3, true)]));
        assert_eq!(s.level(), 2);
        assert_eq!(s.lit_value(lit(3, true)), Lbool::True);
        assert!(matches!(s.reasons[3], Reason::Long(_)));
        s.check_integrity();
        assert!(s.solve_continue().is_sat());
    }

    #[test]
    fn several_literals_on_the_top_level_learn_by_analysis() {
        // (a ∨ b ∨ c): deciding ¬a, then ¬b, implies c on level 2. The
        // blocking clause [a, b, ¬c] has b and ¬c on level 2; resolving it
        // with c's reason learns (a ∨ b), which asserts b on level 1.
        let (a, b, c) = (lit(0, true), lit(1, true), lit(2, true));
        let mut s = Solver::new(4);
        s.add_clause([a, b, c]);
        assert!(s.decide(!a));
        assert!(s.decide(!b));
        assert!(s.decide(lit(3, false)));
        assert_eq!(s.lit_value(c), Lbool::True);
        assert!(s.block_model([a, b, !c]));
        assert_eq!(s.stats().conflicts, 1);
        assert_eq!(s.stats().learnt_clauses, 1);
        assert_eq!(s.level(), 1);
        assert_eq!(s.lit_value(b), Lbool::True);
        assert_eq!(s.reasons[1], Reason::Binary(a));
        s.check_integrity();
        let mut seen = HashSet::new();
        enumerate_by_blocking(&mut s, &mut seen);
        for key in &seen {
            assert!(key[0] || key[1] || key[2], "model violates (a ∨ b ∨ c)");
            assert!(key[0] || key[1] || !key[2], "blocked model came back");
        }

        // Two literals on the top level that analysis collapses to a
        // unit: (x0 ∨ x1) implies x1 on x0's level, and [x0, ¬x1] learns
        // (x0) at level 0.
        let mut s = Solver::new(2);
        s.add_clause([lit(0, true), lit(1, true)]);
        assert!(s.decide(lit(0, false)));
        assert!(s.block_model([lit(0, true), lit(1, false)]));
        assert_eq!(s.level(), 0);
        assert_eq!(s.lit_value(lit(0, true)), Lbool::True);
        let mut seen = HashSet::new();
        enumerate_by_blocking(&mut s, &mut seen);
        assert_eq!(seen.len(), 2, "x0 with either x1");
    }

    #[test]
    fn limits_firing_mid_continuation_leave_level_zero() {
        let install = |s: &mut Solver, reason: StopReason| match reason {
            StopReason::Conflicts => s.set_budget(Budget::unlimited().with_conflicts(1)),
            StopReason::Propagations => s.set_budget(Budget::unlimited().with_propagations(1)),
            _ => {
                let token = CancelToken::new();
                token.cancel();
                s.set_cancel(Some(token));
            }
        };
        for reason in [
            StopReason::Conflicts,
            StopReason::Propagations,
            StopReason::Cancelled,
        ] {
            // 120 models: the perfect matchings of 5 pigeons and 5 holes.
            let mut s = pigeons_into_holes(5, 5);
            let mut seen: HashSet<Vec<bool>> = HashSet::new();
            let mut installed = false;
            let stopped_at = loop {
                match s.solve_continue() {
                    SolveResult::Sat(m) => {
                        assert!(seen.insert(m.iter().map(|(_, b)| b).collect()));
                        assert!(s.block_model(full_block(&m)));
                        // Install the limit while a backjump is pending
                        // above level 0, ten models in.
                        if !installed && seen.len() >= 10 && s.level() > 0 {
                            install(&mut s, reason);
                            installed = true;
                        }
                    }
                    SolveResult::Unknown(r) => break r,
                    SolveResult::Unsat => panic!("{reason:?}: the limit never fired"),
                }
            };
            assert_eq!(stopped_at, reason);
            assert_eq!(s.level(), 0, "{reason:?}: stopped above level 0");
            s.check_integrity();
            // Lifted, the solver goes on with a plain solve, then continues
            // the enumeration to the end.
            s.set_budget(Budget::unlimited());
            s.set_cancel(None);
            let m = s.solve().into_model().expect("models remain");
            assert!(seen.insert(m.iter().map(|(_, b)| b).collect()));
            assert!(s.add_clause(full_block(&m)));
            enumerate_by_blocking(&mut s, &mut seen);
            assert_eq!(seen.len(), 120, "{reason:?}");
        }
    }
}
