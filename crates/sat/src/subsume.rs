//! Occurrence-list subsumption core of the root-level inprocessor
//! (`Solver::inprocess`).
//!
//! The inprocessor feeds clauses in as plain literal slices and gets back
//! two equivalence-preserving rules:
//!
//! * **subsumption** — `C ⊆ D` lets `D` be deleted;
//! * **self-subsuming resolution** — `C \ {l} ⊆ D` with `¬l ∈ D` lets
//!   `¬l` be erased from `D` (the resolvent of `C` and `D` on `l`
//!   subsumes `D`).
//!
//! The core owns copies of the literals, an occurrence index keyed by
//! variable (both phases share one list, so a candidate clause is found no
//! matter which side of the pivot it holds), and a worklist that re-queues
//! strengthened clauses as subsumers until a fixed point — all in
//! deterministic clause-id order. *Policy* (which hits are allowed to
//! delete or strengthen; e.g. the inprocessor never deletes a problem
//! clause on the strength of a learnt subsumer) stays with the caller via
//! a callback.

use std::collections::VecDeque;

use presat_logic::Lit;

/// 64-bit variable-set abstraction of a clause: bit `v % 64` is set for
/// every variable `v` occurring in the clause (either phase, so the
/// abstraction is stable under pivot flips). `sig(C) & !sig(D) != 0`
/// refutes `C ⊆ D` (modulo one pivot) without touching the literals.
pub(crate) fn signature(lits: &[Lit]) -> u64 {
    lits.iter()
        .fold(0u64, |s, l| s | 1u64 << (l.var().index() & 63))
}

/// Does `c` subsume `d`?
///
/// * `Some(None)` — outright: every literal of `c` occurs in `d`.
/// * `Some(Some(p))` — after one resolution: all of `c` occurs in `d`
///   except the single pivot `p ∈ c`, which occurs negated; erasing `¬p`
///   from `d` is self-subsuming resolution.
/// * `None` — neither.
///
/// Signatures are passed in so callers can cache them across checks.
pub(crate) fn subsumes(c: &[Lit], c_sig: u64, d: &[Lit], d_sig: u64) -> Option<Option<Lit>> {
    if c.len() > d.len() || c_sig & !d_sig != 0 {
        return None;
    }
    let mut pivot: Option<Lit> = None;
    'outer: for &lc in c {
        let mut negated = false;
        for &ld in d {
            if lc == ld {
                continue 'outer;
            }
            if lc == !ld {
                negated = true;
            }
        }
        if negated && pivot.is_none() {
            pivot = Some(lc);
            continue 'outer;
        }
        return None;
    }
    Some(pivot)
}

/// What the policy callback tells the driver to do with one hit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Action {
    /// Leave the target untouched (the hit is recorded nowhere).
    Skip,
    /// Delete the target clause (only offered on outright subsumption).
    DeleteTarget,
    /// Erase the negated pivot from the target (only offered on
    /// self-subsumption).
    StrengthenTarget,
}

/// Tallies of one [`Subsumer::run`] pass.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct RunOutcome {
    /// Clauses deleted on an outright subsumption hit.
    pub(crate) deleted: u64,
    /// Literals erased by self-subsuming resolution.
    pub(crate) strengthened_lits: u64,
    /// A clause was strengthened to empty: the formula is unsatisfiable.
    pub(crate) unsat: bool,
    /// The subsumption-check budget ran out before the fixed point.
    pub(crate) budget_exhausted: bool,
}

/// The shared occurrence-list subsumption driver (see the module docs).
pub(crate) struct Subsumer {
    /// Clause literal vectors, indexed by the id `push` handed out.
    /// Deleted clauses are emptied in place.
    clauses: Vec<Vec<Lit>>,
    sigs: Vec<u64>,
    /// `var index → ids of clauses containing the variable` (either
    /// phase). Entries go stale when a clause dies or shrinks; scans
    /// re-validate against `clauses`.
    occ: Vec<Vec<u32>>,
    /// Ids whose literals changed and that are still alive.
    changed: Vec<bool>,
}

impl Subsumer {
    pub(crate) fn new(num_vars: usize) -> Self {
        Subsumer {
            clauses: Vec::new(),
            sigs: Vec::new(),
            occ: vec![Vec::new(); num_vars],
            changed: Vec::new(),
        }
    }

    /// Registers a clause; returns its id (sequential from 0). The caller
    /// keeps the id → handle mapping for its own storage.
    pub(crate) fn push(&mut self, lits: &[Lit]) -> u32 {
        let id = self.clauses.len() as u32;
        for &l in lits {
            self.occ[l.var().index()].push(id);
        }
        self.sigs.push(signature(lits));
        self.clauses.push(lits.to_vec());
        self.changed.push(false);
        id
    }

    /// Current literals of a clause (empty once deleted).
    pub(crate) fn lits(&self, id: u32) -> &[Lit] {
        &self.clauses[id as usize]
    }

    /// `true` if the clause was deleted by a subsumption hit.
    pub(crate) fn is_dead(&self, id: u32) -> bool {
        self.clauses[id as usize].is_empty()
    }

    /// `true` if the clause is alive but its literal set shrank.
    pub(crate) fn is_changed(&self, id: u32) -> bool {
        self.changed[id as usize] && !self.is_dead(id)
    }

    /// Runs subsumption + self-subsuming resolution to a fixed point (or
    /// until `max_checks` literal-level subsumption tests have been
    /// spent), consulting `policy(subsumer, target, pivot)` on every hit.
    ///
    /// Deterministic: clauses are tried as subsumers in id order, then
    /// strengthened clauses re-queue FIFO; candidates are scanned in
    /// occurrence order.
    pub(crate) fn run<F>(&mut self, max_checks: u64, mut policy: F) -> RunOutcome
    where
        F: FnMut(u32, u32, Option<Lit>) -> Action,
    {
        let mut out = RunOutcome::default();
        let mut checks = 0u64;
        let mut queue: VecDeque<u32> = (0..self.clauses.len() as u32).collect();
        while let Some(c_id) = queue.pop_front() {
            let c_idx = c_id as usize;
            if self.clauses[c_idx].is_empty() {
                continue;
            }
            // Candidate targets must contain every variable of the
            // subsumer, so any of its variables' occurrence lists covers
            // them all; scan the shortest.
            let best_var = match self.clauses[c_idx]
                .iter()
                .map(|l| l.var().index())
                .min_by_key(|&v| self.occ[v].len())
            {
                Some(v) => v,
                None => continue,
            };
            for oi in 0..self.occ[best_var].len() {
                let d_id = self.occ[best_var][oi];
                let d_idx = d_id as usize;
                if d_id == c_id || self.clauses[c_idx].is_empty() || self.clauses[d_idx].is_empty()
                {
                    continue;
                }
                if checks >= max_checks {
                    out.budget_exhausted = true;
                    return out;
                }
                checks += 1;
                let hit = subsumes(
                    &self.clauses[c_idx],
                    self.sigs[c_idx],
                    &self.clauses[d_idx],
                    self.sigs[d_idx],
                );
                match hit {
                    Some(None) if policy(c_id, d_id, None) == Action::DeleteTarget => {
                        self.clauses[d_idx].clear();
                        out.deleted += 1;
                    }
                    Some(Some(pivot))
                        if policy(c_id, d_id, Some(pivot)) == Action::StrengthenTarget =>
                    {
                        let neg = !pivot;
                        self.clauses[d_idx].retain(|&l| l != neg);
                        self.sigs[d_idx] = signature(&self.clauses[d_idx]);
                        self.changed[d_idx] = true;
                        out.strengthened_lits += 1;
                        if self.clauses[d_idx].is_empty() {
                            out.unsat = true;
                            return out;
                        }
                        // The strengthened clause is a stronger
                        // subsumer now: re-queue it.
                        queue.push_back(d_id);
                    }
                    _ => {}
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presat_logic::Var;

    fn lit(v: usize, pos: bool) -> Lit {
        Lit::with_phase(Var::new(v), pos)
    }

    #[test]
    fn signature_is_phase_stable() {
        let a = signature(&[lit(3, true), lit(7, false)]);
        let b = signature(&[lit(3, false), lit(7, true)]);
        assert_eq!(a, b);
    }

    #[test]
    fn subsumes_detects_subset_and_pivot() {
        let c = [lit(0, true), lit(1, true)];
        let d = [lit(0, true), lit(1, true), lit(2, false)];
        assert_eq!(
            subsumes(&c, signature(&c), &d, signature(&d)),
            Some(None),
            "strict subset"
        );
        let e = [lit(0, true), lit(1, false), lit(2, false)];
        assert_eq!(
            subsumes(&c, signature(&c), &e, signature(&e)),
            Some(Some(lit(1, true))),
            "one flipped literal is a self-subsumption pivot"
        );
        let f = [lit(0, false), lit(1, false), lit(2, false)];
        assert_eq!(
            subsumes(&c, signature(&c), &f, signature(&f)),
            None,
            "two flipped literals is not a resolution step"
        );
        assert_eq!(
            subsumes(&d, signature(&d), &c, signature(&c)),
            None,
            "longer clauses never subsume shorter ones"
        );
    }

    #[test]
    fn run_reaches_fixed_point_with_requeue() {
        // (a ∨ b), (a ∨ ¬b ∨ c), (a ∨ c ∨ d):
        // self-subsumption strengthens the second to (a ∨ c), which then
        // subsumes the third — found only because strengthened clauses
        // re-enter the queue.
        let mut s = Subsumer::new(4);
        s.push(&[lit(0, true), lit(1, true)]);
        let mid = s.push(&[lit(0, true), lit(1, false), lit(2, true)]);
        let wide = s.push(&[lit(0, true), lit(2, true), lit(3, true)]);
        let out = s.run(u64::MAX, |_, _, pivot| match pivot {
            None => Action::DeleteTarget,
            Some(_) => Action::StrengthenTarget,
        });
        assert_eq!(out.deleted, 1);
        assert_eq!(out.strengthened_lits, 1);
        assert!(!out.unsat && !out.budget_exhausted);
        assert!(s.is_changed(mid));
        assert_eq!(s.lits(mid), &[lit(0, true), lit(2, true)]);
        assert!(s.is_dead(wide));
    }

    #[test]
    fn policy_skip_preserves_targets() {
        let mut s = Subsumer::new(3);
        s.push(&[lit(0, true)]);
        let d = s.push(&[lit(0, true), lit(1, true)]);
        let out = s.run(u64::MAX, |_, _, _| Action::Skip);
        assert_eq!(out.deleted, 0);
        assert!(!s.is_dead(d));
    }

    #[test]
    fn budget_stops_early_and_reports_it() {
        let mut s = Subsumer::new(3);
        s.push(&[lit(0, true)]);
        s.push(&[lit(0, true), lit(1, true)]);
        s.push(&[lit(0, true), lit(2, true)]);
        let out = s.run(1, |_, _, pivot| match pivot {
            None => Action::DeleteTarget,
            Some(_) => Action::StrengthenTarget,
        });
        assert!(out.budget_exhausted);
        assert!(out.deleted <= 1);
    }

    #[test]
    fn strengthening_to_empty_reports_unsat() {
        // (a) strengthens (¬a) by erasing its only literal.
        let mut s = Subsumer::new(1);
        s.push(&[lit(0, true)]);
        s.push(&[lit(0, false)]);
        let out = s.run(u64::MAX, |_, _, pivot| match pivot {
            None => Action::DeleteTarget,
            Some(_) => Action::StrengthenTarget,
        });
        assert!(out.unsat);
    }
}
