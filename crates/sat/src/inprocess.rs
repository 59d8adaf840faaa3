//! Root-level inprocessing over the flat clause arena.
//!
//! [`Solver::inprocess`] runs at session boundaries (after an activation
//! group retires, when the session's effort schedule calls for a pass)
//! and strengthens the clause database in place with three
//! equivalence-preserving rewrites:
//!
//! * **root reduction** — clauses satisfied by a level-0 literal are
//!   tombstoned; level-0-falsified literals are erased;
//! * **subsumption / self-subsuming resolution** — over the occurrence
//!   lists of [`crate::subsume`];
//! * **vivification** — assume the negation of a clause literal-by-literal
//!   under unit propagation and shrink the clause to the prefix that
//!   already yields a conflict or an implied literal.
//!
//! # Admissibility
//!
//! Every rewrite replaces a clause `C` by a clause `C' ⊆ C` with `F ⊨ C'`
//! (or deletes `C` when `F ⊨ C` already) — the clause set before and after
//! has exactly the same models, so the all-solutions engines above produce
//! identical cube sets whether or not a pass ran. Three sharp edges are
//! handled explicitly:
//!
//! * **learnt vs problem clauses** — a learnt clause is itself only a
//!   consequence of the problem clauses, so it may *strengthen* a problem
//!   clause (the resolvent joins the formula as a consequence) but must
//!   never *delete* one: the surviving learnt can be dropped later by
//!   `reduce_db`, which would silently weaken the formula.
//! * **activation literals** — a group literal `act` occurs only
//!   negatively in clauses, so no resolution can eliminate `¬act` from a
//!   group clause; consequences derived from still-active groups remain
//!   valid after retirement because retiring only *adds* the unit `¬act`.
//! * **binary clauses** — their watch entries are literal-only and
//!   permanent (see `Solver::attach`), so binary arena clauses are never
//!   deleted or rewritten; they still serve as subsumers.
//!
//! All passes run at decision level 0 where every assigned variable's
//! reason slot is dead weight (conflict analysis never follows level-0
//! literals and garbage collection clears those slots), so no lock checks
//! are needed before tombstoning.

use presat_logic::Lit;

use crate::clause::ClauseRef;
use crate::subsume::{Action, Subsumer};
use crate::types::Lbool;

use super::{Reason, Solver};

/// Subsumption budget: literal-level subset checks per round.
const SUBSUMPTION_CHECKS: u64 = 200_000;

/// Vivification budget: unit propagations per round.
const VIVIFY_PROPS: u64 = 50_000;

/// Maximum subsume→vivify rounds per [`Solver::inprocess`] call (it stops
/// early once a round changes nothing).
const ROUNDS: u32 = 2;

impl Solver {
    /// Runs root-level inprocessing (see the module docs): root reduction,
    /// subsumption, self-subsuming resolution, and vivification, for up to
    /// two rounds (`ROUNDS`) or until a round changes nothing.
    /// Equivalence-preserving: the model set of the clause database is
    /// untouched. Returns [`Solver::is_ok`] — strengthening can refute the
    /// formula outright.
    ///
    /// # Panics
    ///
    /// Panics if called above decision level 0.
    pub fn inprocess(&mut self) -> bool {
        assert_eq!(self.decision_level(), 0, "inprocess requires level 0");
        if !self.ok {
            return false;
        }
        if self.propagate().is_some() {
            self.ok = false;
            return false;
        }
        for _ in 0..ROUNDS {
            self.stats.inprocess_rounds += 1;
            let subsumed = self.inprocess_subsume();
            if !self.ok {
                return false;
            }
            let vivified = self.inprocess_vivify();
            if !self.ok {
                return false;
            }
            if !subsumed && !vivified {
                break;
            }
        }
        self.db.sweep_learnt_index();
        self.stats.learnt_clauses = self.db.live_learnts() as u64;
        self.maybe_collect_garbage();
        self.ok
    }

    /// One subsumption round: loads every live clause (root-reduced) into
    /// the shared [`Subsumer`], runs it to a fixed point or budget, and
    /// writes deletions/strengthenings back to the arena. Returns whether
    /// anything changed.
    fn inprocess_subsume(&mut self) -> bool {
        let refs: Vec<ClauseRef> = self.db.live_refs().collect();
        let mut sub = Subsumer::new(self.num_vars());
        // Parallel to subsumer ids:
        let mut ids: Vec<ClauseRef> = Vec::new();
        let mut learnt_of: Vec<bool> = Vec::new();
        // Target-eligible = long arena clause (binaries are permanent).
        let mut eligible: Vec<bool> = Vec::new();
        // Clauses that already shrank during root reduction.
        let mut root_changed: Vec<bool> = Vec::new();
        let mut changed_any = false;
        let mut scratch: Vec<Lit> = Vec::new();
        for cref in refs {
            let m = self.db.meta(cref);
            scratch.clear();
            let mut satisfied = false;
            for i in 0..m.len {
                let l = self.db.lit_at(m.start + i);
                match self.lit_value(l) {
                    Lbool::True => {
                        satisfied = true;
                        break;
                    }
                    Lbool::False => {}
                    Lbool::Undef => scratch.push(l),
                }
            }
            if satisfied {
                if m.len >= 3 {
                    self.db.delete(cref);
                    self.stats.subsumed_clauses += 1;
                    changed_any = true;
                }
                continue;
            }
            // At a root propagation fixpoint a non-satisfied clause keeps
            // two non-false watches, so the reduced form is never unit.
            debug_assert!(scratch.len() >= 2);
            let dropped = m.len - scratch.len();
            let id = sub.push(&scratch);
            debug_assert_eq!(id as usize, ids.len());
            ids.push(cref);
            learnt_of.push(m.learnt);
            eligible.push(m.len >= 3);
            root_changed.push(dropped > 0);
        }

        let out = sub.run(SUBSUMPTION_CHECKS, |c_id, d_id, pivot| {
            if !eligible[d_id as usize] {
                return Action::Skip;
            }
            match pivot {
                // Deleting a problem clause on the strength of a learnt
                // subsumer would let a later `reduce_db` weaken the
                // formula; strengthening is always sound (the resolvent
                // joins the formula as a consequence).
                None if learnt_of[d_id as usize] || !learnt_of[c_id as usize] => {
                    Action::DeleteTarget
                }
                None => Action::Skip,
                Some(_) => Action::StrengthenTarget,
            }
        });
        self.stats.subsumed_clauses += out.deleted;
        self.stats.strengthened_lits += out.strengthened_lits;
        if out.unsat {
            self.ok = false;
            return true;
        }
        for (idx, &cref) in ids.iter().enumerate() {
            let id = idx as u32;
            if sub.is_dead(id) {
                self.db.delete(cref);
                changed_any = true;
            } else if sub.is_changed(id) || root_changed[idx] {
                if root_changed[idx] {
                    self.stats.strengthened_lits +=
                        (self.db.len_of(cref) - sub.lits(id).len()) as u64;
                }
                self.replace_clause(cref, sub.lits(id));
                changed_any = true;
                if !self.ok {
                    return true;
                }
            }
        }
        changed_any
    }

    /// One vivification round: for each long clause `C`, assume `¬l` for
    /// its literals in order under unit propagation; a conflict or an
    /// implied literal proves the prefix processed so far is already a
    /// consequence of the formula, so `C` shrinks to it. `C` stays
    /// attached throughout — a self-derivation only costs shrink quality,
    /// never soundness (`C' ⊆ C` and `F ⊨ C'` hold regardless). Returns
    /// whether anything changed.
    fn inprocess_vivify(&mut self) -> bool {
        let start = self.stats.propagations;
        let targets: Vec<ClauseRef> = {
            let db = &self.db;
            db.live_refs().filter(|&c| db.len_of(c) >= 3).collect()
        };
        let mut changed_any = false;
        let mut lits: Vec<Lit> = Vec::new();
        let mut kept: Vec<Lit> = Vec::new();
        for cref in targets {
            if self.stats.propagations - start >= VIVIFY_PROPS {
                break;
            }
            if self.db.is_deleted(cref) {
                continue;
            }
            let m = self.db.meta(cref);
            lits.clear();
            lits.extend((0..m.len).map(|i| self.db.lit_at(m.start + i)));
            kept.clear();
            debug_assert_eq!(self.decision_level(), 0);
            let mut shrunk = false;
            for (i, &li) in lits.iter().enumerate() {
                match self.lit_value(li) {
                    // `F ∧ ¬kept ⊨ li`: the clause `kept ∨ li` is implied,
                    // and it subsumes `C`.
                    Lbool::True => {
                        kept.push(li);
                        shrunk = i + 1 < lits.len();
                        break;
                    }
                    // `F ∧ ¬kept ⊨ ¬li`: any model escaping `kept` also
                    // falsifies `li`, so `li` is dead weight in `C`.
                    Lbool::False => {
                        shrunk = true;
                    }
                    Lbool::Undef => {
                        self.new_decision_level();
                        self.enqueue(!li, Reason::None);
                        if self.propagate().is_some() {
                            // `F ∧ ¬kept ∧ ¬li ⊢ ⊥`, i.e. `F ⊨ kept ∨ li`.
                            kept.push(li);
                            shrunk = i + 1 < lits.len();
                            break;
                        }
                        kept.push(li);
                    }
                }
            }
            self.cancel_until(0);
            if shrunk {
                self.stats.vivified_clauses += 1;
                self.stats.strengthened_lits += (lits.len() - kept.len()) as u64;
                let shrunk_to = kept.clone();
                self.replace_clause(cref, &shrunk_to);
                changed_any = true;
                if !self.ok {
                    break;
                }
            }
        }
        changed_any
    }

    /// Swaps a long clause for a strictly stronger one: the replacement is
    /// allocated and attached *before* the original is tombstoned, so an
    /// arena-full failure keeps the original and never weakens the
    /// formula. Shrinking to a unit asserts it at the root (with
    /// propagation); shrinking to nothing refutes the formula. The literal
    /// list is re-filtered against the current root assignment first —
    /// unit cascades from earlier replacements may have decided literals
    /// since the caller computed it.
    fn replace_clause(&mut self, old: ClauseRef, lits: &[Lit]) {
        debug_assert_eq!(self.decision_level(), 0);
        debug_assert!(self.db.len_of(old) >= 3, "binary clauses are permanent");
        let mut reduced: Vec<Lit> = Vec::with_capacity(lits.len());
        for &l in lits {
            match self.lit_value(l) {
                Lbool::True => {
                    self.db.delete(old);
                    self.stats.subsumed_clauses += 1;
                    return;
                }
                Lbool::False => {}
                Lbool::Undef => reduced.push(l),
            }
        }
        match reduced.len() {
            0 => {
                self.db.delete(old);
                self.ok = false;
            }
            1 => {
                self.db.delete(old);
                self.enqueue(reduced[0], Reason::None);
                self.ok = self.propagate().is_none();
            }
            _ => {
                let learnt = self.db.is_learnt(old);
                let lbd = if learnt {
                    self.db.lbd(old).min(reduced.len() as u32)
                } else {
                    0
                };
                if let Ok(new) = self.db.alloc(&reduced, learnt, lbd) {
                    if learnt {
                        let act = self.db.activity(old);
                        self.db.set_activity(new, act);
                    }
                    self.attach(new);
                    self.note_arena_size();
                    self.db.delete(old);
                }
                // On ArenaFull the original (weaker but sound) clause
                // simply stays.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use presat_logic::{Cnf, Lit, Var};

    use crate::types::SolveResult;
    use crate::Solver;

    fn lit(v: usize, pos: bool) -> Lit {
        Lit::with_phase(Var::new(v), pos)
    }

    /// Enumerate all models of the solver's formula over `n` vars by
    /// truth-table restriction of the given CNF (the oracle), and by
    /// solve-and-block on the solver under test.
    fn models(cnf: &Cnf, n: usize) -> Vec<Vec<bool>> {
        let mut out = Vec::new();
        for bits in 0..(1u32 << n) {
            let assign: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
            let sat = cnf
                .clauses()
                .iter()
                .all(|c| c.iter().any(|l| assign[l.var().index()] == l.is_pos()));
            if sat {
                out.push(assign);
            }
        }
        out
    }

    fn solver_models(s: &mut Solver, n: usize) -> Vec<Vec<bool>> {
        let mut out = Vec::new();
        loop {
            match s.solve() {
                SolveResult::Sat(m) => {
                    let assign: Vec<bool> =
                        (0..n).map(|i| m.value(Var::new(i)) == Some(true)).collect();
                    let block: Vec<Lit> = (0..n)
                        .map(|i| Lit::with_phase(Var::new(i), !assign[i]))
                        .collect();
                    out.push(assign);
                    if !s.add_clause(block) {
                        break;
                    }
                }
                SolveResult::Unsat => break,
                SolveResult::Unknown(r) => panic!("unbudgeted solve stopped: {r}"),
            }
        }
        out.sort();
        out
    }

    #[test]
    fn subsumed_duplicates_are_deleted() {
        let mut s = Solver::new(4);
        s.add_clause([lit(0, true), lit(1, true)]);
        s.add_clause([lit(0, true), lit(1, true), lit(2, true)]);
        s.add_clause([lit(0, true), lit(1, true), lit(3, false)]);
        assert!(s.inprocess());
        assert_eq!(s.stats().subsumed_clauses, 2);
        assert!(s.stats().inprocess_rounds >= 1);
    }

    #[test]
    fn self_subsumption_strengthens_long_clauses() {
        // (a ∨ b) strengthens (a ∨ ¬b ∨ c) to (a ∨ c).
        let mut s = Solver::new(3);
        s.add_clause([lit(0, true), lit(1, true)]);
        s.add_clause([lit(0, true), lit(1, false), lit(2, true)]);
        assert!(s.inprocess());
        assert!(s.stats().strengthened_lits >= 1);
    }

    #[test]
    fn vivification_shrinks_an_entailed_superset() {
        // Binary chains make the negation of any one literal of
        // (x ∨ y ∨ z) propagate another one to true, so vivification
        // shrinks the clause no matter what order watch swaps have left
        // its literal array in: ¬x → u → y and ¬x → w → z, symmetrically
        // for ¬y and ¬z. None of the binaries subsumes or strengthens the
        // wide clause, so only vivification can touch it.
        let (x, y, z) = (lit(0, true), lit(1, true), lit(2, true));
        let (u, v, w) = (lit(3, true), lit(4, true), lit(5, true));
        let mut s = Solver::new(6);
        s.add_clause([x, u]);
        s.add_clause([y, !u]);
        s.add_clause([y, v]);
        s.add_clause([z, !v]);
        s.add_clause([x, w]);
        s.add_clause([z, !w]);
        s.add_clause([x, y, z]);
        assert!(s.inprocess());
        assert!(
            s.stats().vivified_clauses >= 1,
            "wide clause should shrink: {:?}",
            s.stats()
        );
    }

    #[test]
    fn strengthening_can_refute_the_formula() {
        let mut s = Solver::new(2);
        s.add_clause([lit(0, true), lit(1, true)]);
        s.add_clause([lit(0, true), lit(1, false)]);
        s.add_clause([lit(0, false), lit(1, true)]);
        s.add_clause([lit(0, false), lit(1, false)]);
        // Binary clauses are permanent, so this needs the solver, not the
        // inprocessor, to notice; inprocess must at least stay sound.
        assert!(s.inprocess() || !s.is_ok());
        assert!(matches!(s.solve(), SolveResult::Unsat));
    }

    #[test]
    fn model_set_is_preserved_on_random_formulas() {
        let mut seed = 0x1234_5678_u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..60 {
            let n = 4 + (rng() % 4) as usize; // 4..=7 vars
            let m = 3 + (rng() % 12) as usize;
            let mut cnf = Cnf::new(n);
            for _ in 0..m {
                let len = 1 + (rng() % 3) as usize + (rng() % 2) as usize;
                let c: Vec<Lit> = (0..len)
                    .map(|_| lit((rng() % n as u64) as usize, rng() % 2 == 0))
                    .collect();
                cnf.add_clause(c);
            }
            let expect = {
                let mut v = models(&cnf, n);
                v.sort();
                v
            };
            let mut s = Solver::from_cnf(&cnf);
            s.inprocess();
            // Interleave search (grows learnts) with a second round, then
            // enumerate the remainder — the combined model list must match
            // the truth table exactly.
            s.inprocess();
            let got = solver_models(&mut s, n);
            assert_eq!(got, expect, "model set changed by inprocessing");
        }
    }

    #[test]
    fn inprocess_interleaves_with_retirement() {
        // Activation-group protocol: group clauses (¬act ∨ …) stay intact
        // while active, inprocess after retirement must not disturb later
        // queries.
        let n = 4;
        let mut s = Solver::new(n + 1);
        let act = lit(n, true);
        s.add_clause([lit(0, true), lit(1, true), lit(2, true)]);
        s.add_clause([!act, lit(0, false), lit(3, true)]);
        s.add_clause([!act, lit(1, true), lit(3, false), lit(2, true)]);
        assert!(s.solve_with_assumptions(&[act]).is_sat());
        s.retire_group(act);
        assert!(s.inprocess());
        // The base formula is untouched by group retirement + inprocess.
        let mut base = Solver::new(n);
        base.add_clause([lit(0, true), lit(1, true), lit(2, true)]);
        let got: Vec<Vec<bool>> = solver_models(&mut s, n);
        let expect = solver_models(&mut base, n);
        assert_eq!(got, expect);
    }
}
