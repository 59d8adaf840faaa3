//! Sound subspace signatures for success-driven learning.
//!
//! Two branching prefixes lead to the *same* set of suffix solutions
//! whenever they agree on the variables that can still influence the
//! suffix. This module computes, once per problem, the *relevant prefix
//! positions* for every branching depth: a prefix position `p < d` is
//! relevant at depth `d` iff its variable is connected to some suffix
//! variable (position `≥ d`) in the CNF's variable co-occurrence graph via
//! a path whose intermediate vertices are all non-important (auxiliary)
//! variables.
//!
//! Soundness sketch: fix a prefix assignment. The CNF decomposes into
//! connected components; the suffix solution set is determined by the
//! components containing suffix variables, which touch exactly the relevant
//! prefix variables (a prefix variable inside such a component is, by
//! definition, connected through auxiliary vertices). Components not
//! containing suffix variables only decide global satisfiability, which the
//! success-driven engine re-checks with a dedicated solver call *before*
//! consulting the cache. Agreement on relevant values therefore implies
//! identical cached subgraphs. The signature is conservative (it is
//! computed on the unreduced formula, a superset of the reduced-formula
//! connectivity), so over-distinguishing — never unsoundness — is the
//! failure mode.
//!
//! Both signatures are written as flat `u32` keys onto the end of a
//! caller's buffer ([`ConnectivityIndex::write_key`],
//! [`ResidualIndex::write_key`]), and [`SignatureCache`] interns finished
//! keys in one arena, comparing them word by word on a hash match.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

use presat_logic::{Cnf, Var};

use crate::solution_graph::SolutionNodeId;

/// Precomputed relevant-prefix index for a problem.
#[derive(Clone, Debug)]
pub(crate) struct ConnectivityIndex {
    /// `relevant[d]` = sorted prefix positions (`< d`) relevant for the
    /// suffix starting at depth `d`, for `d` in `0..=k`.
    relevant: Vec<Vec<u32>>,
}

impl ConnectivityIndex {
    /// Builds the index for `cnf` with branching order `important`.
    pub(crate) fn build(cnf: &Cnf, important: &[Var]) -> Self {
        let num_vars = cnf.num_vars();
        let k = important.len();

        // position_of[v] = Some(branching position) for important vars.
        let mut position_of: Vec<Option<u32>> = vec![None; num_vars];
        for (i, &v) in important.iter().enumerate() {
            position_of[v.index()] = Some(i as u32);
        }

        // Var ↔ clause incidence.
        let mut clauses_of_var: Vec<Vec<u32>> = vec![Vec::new(); num_vars];
        for (ci, clause) in cnf.clauses().iter().enumerate() {
            for &l in clause {
                clauses_of_var[l.var().index()].push(ci as u32);
            }
        }

        let mut relevant: Vec<Vec<u32>> = Vec::with_capacity(k + 1);
        // Depth d: BFS from suffix vars (positions ≥ d); expand through
        // auxiliary and suffix variables; record prefix positions.
        for d in 0..=k {
            let mut var_seen = vec![false; num_vars];
            let mut clause_seen = vec![false; cnf.num_clauses()];
            let mut frontier: Vec<usize> = important[d..].iter().map(|v| v.index()).collect();
            for &v in &frontier {
                var_seen[v] = true;
            }
            let mut found: Vec<u32> = Vec::new();
            while let Some(v) = frontier.pop() {
                for &ci in &clauses_of_var[v] {
                    if clause_seen[ci as usize] {
                        continue;
                    }
                    clause_seen[ci as usize] = true;
                    for &l in &cnf.clauses()[ci as usize] {
                        let w = l.var().index();
                        if var_seen[w] {
                            continue;
                        }
                        var_seen[w] = true;
                        match position_of[w] {
                            Some(p) if (p as usize) < d => found.push(p),
                            // Suffix or auxiliary variable: keep expanding.
                            _ => frontier.push(w),
                        }
                    }
                }
            }
            found.sort_unstable();
            relevant.push(found);
        }
        ConnectivityIndex { relevant }
    }

    /// Appends the cache key of a prefix to `out`: the depth, then one
    /// word (0 or 1) per relevant prefix position. `prefix_values[p]` is
    /// the value assigned to branching position `p` (`p < depth`).
    pub(crate) fn write_key(&self, depth: usize, prefix_values: &[bool], out: &mut Vec<u32>) {
        debug_assert!(prefix_values.len() >= depth);
        out.push(depth as u32);
        out.extend(
            self.relevant[depth]
                .iter()
                .map(|&p| u32::from(prefix_values[p as usize])),
        );
    }
}

/// Dynamic (residual-cone) signature computation.
///
/// Where [`ConnectivityIndex`] inspects the *unreduced* formula, the
/// residual signature looks at the formula **after unit propagation under
/// the prefix**: clauses satisfied by the propagation are gone, falsified
/// literals are deleted from the survivors, and the suffix subspace is
/// characterized exactly by the *contents* of the surviving clauses
/// reachable from the suffix variables, less the clauses that a *pure
/// auxiliary literal* satisfies. Two prefixes with identical reduced
/// cones have identical suffix solution sets, even when the prefixes
/// themselves differ everywhere — e.g. all even-parity prefixes of a parity
/// constraint share one cone.
///
/// A pure auxiliary literal belongs to an unassigned variable outside the
/// suffix whose residual occurrences in the cone all have one phase. Such
/// a variable is existentially quantified, and setting it to that phase
/// satisfies every clause that holds it without touching a suffix
/// variable, so dropping those clauses leaves the suffix projection as it
/// was. Dropping repeats to a fixed point, since a dropped clause can make
/// another auxiliary literal pure. (A session's activation literal that
/// the call does not assume is pure too, and dropping its group is exactly
/// right: the group can be switched off.)
///
/// The signature is exact (clauses are compared by surviving literal
/// content, not hashed), so reuse is never unsound.
#[derive(Clone, Debug)]
pub(crate) struct ResidualIndex {
    /// Var index → clause indices containing it, over the formula's first
    /// `indexed` clauses.
    clauses_of_var: Vec<Vec<u32>>,
    indexed: usize,
    /// Visit marks, kept between keys and grown with the formula: a
    /// variable or clause is visited in the current key iff its mark
    /// equals `epoch`. A clause's mark also holds its index in `clauses`
    /// in that epoch, or [`SATISFIED`].
    var_mark: Vec<u32>,
    clause_mark: Vec<(u32, u32)>,
    epoch: u32,
    /// Per variable visited in the current key: [`SUFFIX`] for an
    /// unassigned suffix variable, plus bit `code & 1` for each phase that
    /// occurs in a residual clause. An auxiliary variable reads 1 or 2
    /// exactly when its literal is pure.
    phases: Vec<u8>,
    /// Per literal code of a visited variable, its occurrences in the
    /// residual clauses still in the cone; counted only in keys that have
    /// a pure literal.
    occurs: Vec<u32>,
    /// Scratch, empty between keys: the visited variable indices in visit
    /// order (the walk reads them as a queue), the clause being read, the
    /// surviving literal codes of the residual clauses back to back, each
    /// residual clause, and the pure literal codes whose clauses are still
    /// to drop.
    frontier: Vec<u32>,
    clause: Vec<u32>,
    lits: Vec<u32>,
    clauses: Vec<Residual>,
    pure: Vec<u32>,
}

/// One residual clause of a key: a fingerprint of its contents, their
/// range in [`ResidualIndex`]'s `lits`, and whether it is still in the
/// cone (a pure literal drops it).
#[derive(Clone, Copy, Debug)]
struct Residual {
    fingerprint: u64,
    start: u32,
    end: u32,
    live: bool,
}

/// The `clause_mark` index of a visited clause that the prefix satisfies.
const SATISFIED: u32 = u32::MAX;
/// The `phases` flag of an unassigned suffix variable.
const SUFFIX: u8 = 4;

impl ResidualIndex {
    /// Builds the incidence index for `cnf`.
    pub(crate) fn build(cnf: &Cnf) -> Self {
        let mut index = ResidualIndex {
            clauses_of_var: Vec::new(),
            indexed: 0,
            var_mark: Vec::new(),
            clause_mark: Vec::new(),
            epoch: 0,
            phases: Vec::new(),
            occurs: Vec::new(),
            frontier: Vec::new(),
            clause: Vec::new(),
            lits: Vec::new(),
            clauses: Vec::new(),
            pure: Vec::new(),
        };
        index.extend(cnf);
        index
    }

    /// Extends the incidence index to cover clauses (and variables) added
    /// to `cnf` since the index was built or last extended. Used by the
    /// incremental session, which grows one CNF across enumerate calls.
    pub(crate) fn extend(&mut self, cnf: &Cnf) {
        self.clauses_of_var.resize(cnf.num_vars(), Vec::new());
        for (ci, clause) in cnf.clauses().iter().enumerate().skip(self.indexed) {
            for &l in clause {
                self.clauses_of_var[l.var().index()].push(ci as u32);
            }
        }
        self.indexed = cnf.num_clauses();
    }

    /// Appends the residual key of the suffix `important[depth..]` to
    /// `out`, reading the propagated prefix through `value`: it must
    /// assign every prefix variable (it is the result of unit propagation
    /// under the prefix) and may assign suffix variables that propagation
    /// implied.
    ///
    /// The key is `[depth, n, implied…, cone…]`. Each of the `n` implied
    /// suffix positions `p` is one word `p << 1 | value`. The cone follows
    /// as length-prefixed clauses: the residual clauses reachable from the
    /// unassigned suffix variables, less those that pure auxiliary
    /// literals drop (see [`ResidualIndex`]); each clause's surviving
    /// literal codes sorted and deduplicated, the clauses deduplicated and
    /// ordered by a fingerprint of their contents, ties broken by the
    /// contents. The clauses run to the end of the key, so it decodes
    /// uniquely: two keys are equal exactly when their depths, implied
    /// values and reduced cones are.
    ///
    /// Why equal keys mean equal suffix projections, given that the
    /// formula is satisfiable under the prefix (the engine certifies it
    /// with a model before it writes a key):
    /// - The walk reads every clause of every variable it reaches, so the
    ///   cone holds every residual occurrence of its variables, and the
    ///   rest of the residual formula shares no unassigned variable with
    ///   it. The rest is then satisfiable on its own, whatever the suffix.
    /// - A pure auxiliary literal is set true without touching a suffix
    ///   variable, and that satisfies every clause it drops, so a suffix
    ///   assignment extends to a model of the cone exactly when it extends
    ///   to one of the reduced cone.
    /// - Dropping a clause never makes a pure literal impure, so the fixed
    ///   point is one set of clauses whatever the drop order, and the key
    ///   stays canonical.
    ///
    /// The projection is therefore a function of the key's words alone,
    /// which the cache compares one by one.
    pub(crate) fn write_key(
        &mut self,
        cnf: &Cnf,
        important: &[Var],
        depth: usize,
        value: impl Fn(Var) -> Option<bool>,
        out: &mut Vec<u32>,
    ) {
        self.next_epoch(cnf);
        let epoch = self.epoch;
        out.push(depth as u32);
        let count_at = out.len();
        out.push(0);
        for (p, &v) in important.iter().enumerate().skip(depth) {
            match value(v) {
                Some(b) => out.push((p as u32) << 1 | u32::from(b)),
                None if self.var_mark[v.index()] != epoch => {
                    self.var_mark[v.index()] = epoch;
                    self.phases[v.index()] = SUFFIX;
                    self.frontier.push(v.index() as u32);
                }
                None => {}
            }
        }
        out[count_at] = (out.len() - count_at - 1) as u32;

        let mut next = 0;
        while let Some(&v) = self.frontier.get(next) {
            next += 1;
            for &ci in &self.clauses_of_var[v as usize] {
                let mark = &mut self.clause_mark[ci as usize];
                if mark.0 == epoch {
                    continue;
                }
                *mark = (epoch, SATISFIED);
                self.clause.clear();
                let mut satisfied = false;
                for &l in &cnf.clauses()[ci as usize] {
                    match value(l.var()) {
                        Some(b) if b == l.is_pos() => {
                            satisfied = true;
                            break;
                        }
                        Some(_) => {}
                        None => self.clause.push(l.code() as u32),
                    }
                }
                if satisfied {
                    continue;
                }
                self.clause.sort_unstable();
                self.clause.dedup();
                let start = self.lits.len() as u32;
                let mut fingerprint = self.clause.len() as u64;
                for &code in &self.clause {
                    fingerprint = (fingerprint.rotate_left(29) ^ u64::from(code))
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    let w = code as usize >> 1;
                    if self.var_mark[w] != epoch {
                        self.var_mark[w] = epoch;
                        self.phases[w] = 0;
                        self.frontier.push(w as u32);
                    }
                    self.phases[w] |= 1 << (code & 1);
                }
                self.lits.extend_from_slice(&self.clause);
                self.clause_mark[ci as usize].1 = self.clauses.len() as u32;
                self.clauses.push(Residual {
                    fingerprint,
                    start,
                    end: self.lits.len() as u32,
                    live: true,
                });
            }
        }
        if self
            .frontier
            .iter()
            .any(|&w| matches!(self.phases[w as usize], 1 | 2))
        {
            self.drop_pure_literals();
        }

        let lits = &self.lits;
        let range = |c: &Residual| &lits[c.start as usize..c.end as usize];
        self.clauses.sort_unstable_by(|a, b| {
            a.fingerprint
                .cmp(&b.fingerprint)
                .then_with(|| range(a).cmp(range(b)))
        });
        // Equal contents have sorted next to each other.
        self.clauses
            .dedup_by(|a, b| a.fingerprint == b.fingerprint && range(a) == range(b));
        for c in &self.clauses {
            out.push(c.end - c.start);
            out.extend_from_slice(range(c));
        }
        self.clauses.clear();
        self.lits.clear();
        self.frontier.clear();
    }

    /// Drops, to a fixed point, every residual clause that holds a pure
    /// auxiliary literal, and then removes the dropped clauses from
    /// `clauses`. Called after the walk, when `frontier` lists every
    /// visited variable, and only if some visited variable is pure.
    fn drop_pure_literals(&mut self) {
        for &w in &self.frontier {
            self.occurs[2 * w as usize] = 0;
            self.occurs[2 * w as usize + 1] = 0;
        }
        for &code in &self.lits {
            self.occurs[code as usize] += 1;
        }
        for &w in &self.frontier {
            match self.phases[w as usize] {
                1 => self.pure.push(2 * w),
                2 => self.pure.push(2 * w + 1),
                _ => {}
            }
        }
        while let Some(code) = self.pure.pop() {
            // Every clause of a visited variable was visited, so its mark
            // is current.
            for &ci in &self.clauses_of_var[code as usize >> 1] {
                let r = self.clause_mark[ci as usize].1;
                if r == SATISFIED || !self.clauses[r as usize].live {
                    continue;
                }
                let c = &mut self.clauses[r as usize];
                c.live = false;
                for &d in &self.lits[c.start as usize..c.end as usize] {
                    let d = d as usize;
                    self.occurs[d] -= 1;
                    // The last occurrence of one phase makes the other
                    // pure, once per variable.
                    if self.occurs[d] == 0
                        && self.occurs[d ^ 1] > 0
                        && self.phases[d >> 1] & SUFFIX == 0
                    {
                        self.pure.push((d ^ 1) as u32);
                    }
                }
            }
        }
        self.clauses.retain(|c| c.live);
    }

    /// Starts a new visit epoch, growing the marks to `cnf`'s size. New
    /// marks are 0, which is never a current epoch.
    fn next_epoch(&mut self, cnf: &Cnf) {
        if self.var_mark.len() < cnf.num_vars() {
            self.var_mark.resize(cnf.num_vars(), 0);
            self.phases.resize(cnf.num_vars(), 0);
            self.occurs.resize(2 * cnf.num_vars(), 0);
        }
        if self.clause_mark.len() < cnf.num_clauses() {
            self.clause_mark.resize(cnf.num_clauses(), (0, SATISFIED));
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // A mark left 2^32 epochs ago would read as current.
            self.var_mark.fill(0);
            self.clause_mark.fill((0, SATISFIED));
            self.epoch = 1;
        }
    }
}

/// The success cache: finished keys interned back to back in one arena of
/// words, found through an open-addressing table on each key's 64-bit
/// hash. The caller computes the hash once per key ([`Self::hash`]) and
/// passes it to [`Self::get`] and [`Self::insert`]. A lookup compares the
/// stored words one by one on a hash match, so the key is never hashed
/// lossily and reuse stays exact. The hash is seeded per cache, since the
/// keys derive from formulas read from outside the program.
#[derive(Debug, Default)]
pub(crate) struct SignatureCache {
    state: RandomState,
    words: Vec<u32>,
    /// Power-of-two table, at most half full. A slot with `len == 0` is
    /// empty: every key holds at least its depth word.
    slots: Vec<Slot>,
    entries: usize,
}

#[derive(Clone, Copy, Debug)]
struct Slot {
    hash: u64,
    start: usize,
    len: usize,
    node: SolutionNodeId,
}

const EMPTY: Slot = Slot {
    hash: 0,
    start: 0,
    len: 0,
    node: SolutionNodeId::BOTTOM,
};

impl SignatureCache {
    /// The hash [`Self::get`] and [`Self::insert`] take for `key`.
    pub(crate) fn hash(&self, key: &[u32]) -> u64 {
        let mut h = self.state.build_hasher();
        let mut pairs = key.chunks_exact(2);
        for pair in &mut pairs {
            h.write_u64(u64::from(pair[0]) | u64::from(pair[1]) << 32);
        }
        if let [last] = pairs.remainder() {
            h.write_u32(*last);
        }
        h.finish()
    }

    /// The node cached under `key`, whose hash is `hash`.
    pub(crate) fn get(&self, key: &[u32], hash: u64) -> Option<SolutionNodeId> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let slot = &self.slots[i];
            if slot.len == 0 {
                return None;
            }
            if slot.hash == hash && self.words[slot.start..slot.start + slot.len] == *key {
                return Some(slot.node);
            }
            i = (i + 1) & mask;
        }
    }

    /// Caches `node` under `key`, whose hash is `hash`. The key must not
    /// be cached yet (the engine inserts only after a miss).
    pub(crate) fn insert(&mut self, key: &[u32], hash: u64, node: SolutionNodeId) {
        debug_assert!(!key.is_empty(), "every key holds its depth word");
        debug_assert!(self.get(key, hash).is_none(), "key inserted twice");
        if 2 * (self.entries + 1) > self.slots.len() {
            self.grow();
        }
        let slot = Slot {
            hash,
            start: self.words.len(),
            len: key.len(),
            node,
        };
        self.words.extend_from_slice(key);
        self.place(slot);
        self.entries += 1;
    }

    /// Drops every entry.
    pub(crate) fn clear(&mut self) {
        self.words.clear();
        self.slots.clear();
        self.entries = 0;
    }

    fn grow(&mut self) {
        let cap = (2 * self.slots.len()).max(16);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; cap]);
        for slot in old.into_iter().filter(|s| s.len != 0) {
            self.place(slot);
        }
    }

    /// Puts `slot` into the first free slot of its probe sequence.
    fn place(&mut self, slot: Slot) {
        let mask = self.slots.len() - 1;
        let mut i = slot.hash as usize & mask;
        while self.slots[i].len != 0 {
            i = (i + 1) & mask;
        }
        self.slots[i] = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presat_logic::rng::SplitMix64;
    use presat_logic::{truth_table, Assignment, Cube, Lit};
    use presat_sat::Solver;
    use std::collections::BTreeSet;

    fn lit(v: usize, pos: bool) -> Lit {
        Lit::with_phase(Var::new(v), pos)
    }

    /// `(depth, implied suffix values, residual cone)`: the key's meaning.
    type Triple = (u32, Vec<(u32, bool)>, Vec<Vec<u32>>);

    /// The nested-vector signature the flat key replaced, kept as the
    /// reference: implied suffix values, then the sorted, deduplicated
    /// residual clauses, each its sorted surviving literal codes, less the
    /// clauses that pure auxiliary literals drop. The drops are found
    /// naively: recount the phases of every remaining clause, drop every
    /// clause holding a literal of a non-suffix variable whose other phase
    /// is absent, and repeat until nothing changes.
    fn reference(cnf: &Cnf, alpha: &Assignment, important: &[Var], depth: usize) -> Triple {
        let mut clauses_of_var: Vec<Vec<u32>> = vec![Vec::new(); cnf.num_vars()];
        for (ci, clause) in cnf.clauses().iter().enumerate() {
            for &l in clause {
                clauses_of_var[l.var().index()].push(ci as u32);
            }
        }
        let suffix = &important[depth..];
        let implied: Vec<(u32, bool)> = suffix
            .iter()
            .enumerate()
            .filter_map(|(i, &v)| alpha.value(v).map(|b| ((depth + i) as u32, b)))
            .collect();
        let mut clause_seen = vec![false; cnf.num_clauses()];
        let mut var_seen = vec![false; cnf.num_vars()];
        let mut frontier: Vec<usize> = Vec::new();
        for &v in suffix {
            if alpha.value(v).is_none() && !var_seen[v.index()] {
                var_seen[v.index()] = true;
                frontier.push(v.index());
            }
        }
        let mut residuals: Vec<Vec<u32>> = Vec::new();
        while let Some(v) = frontier.pop() {
            for &ci in &clauses_of_var[v] {
                if clause_seen[ci as usize] {
                    continue;
                }
                clause_seen[ci as usize] = true;
                let clause = &cnf.clauses()[ci as usize];
                if clause.iter().any(|&l| alpha.lit_value(l) == Some(true)) {
                    continue;
                }
                let mut surviving: Vec<u32> = clause
                    .iter()
                    .filter(|&&l| alpha.lit_value(l).is_none())
                    .map(|l| l.code() as u32)
                    .collect();
                for &code in &surviving {
                    let w = (code >> 1) as usize;
                    if !var_seen[w] {
                        var_seen[w] = true;
                        frontier.push(w);
                    }
                }
                surviving.sort_unstable();
                surviving.dedup();
                residuals.push(surviving);
            }
        }
        loop {
            let present: BTreeSet<u32> = residuals.iter().flatten().copied().collect();
            let pure = |code: u32| {
                !suffix.contains(&Var::new(code as usize >> 1)) && !present.contains(&(code ^ 1))
            };
            let before = residuals.len();
            residuals.retain(|clause| !clause.iter().any(|&code| pure(code)));
            if residuals.len() == before {
                break;
            }
        }
        residuals.sort_unstable();
        residuals.dedup();
        (depth as u32, implied, residuals)
    }

    /// Decodes a flat residual key, checking that its clauses are strictly
    /// increasing in the key's canonical order (so none repeats) and
    /// returning the cone sorted as the reference sorts it.
    fn decode(key: &[u32]) -> Triple {
        let depth = key[0];
        let n = key[1] as usize;
        let implied = key[2..2 + n]
            .iter()
            .map(|&w| (w >> 1, w & 1 == 1))
            .collect();
        let mut cone: Vec<Vec<u32>> = Vec::new();
        let mut rest = &key[2 + n..];
        while let Some((&len, tail)) = rest.split_first() {
            let (clause, tail) = tail.split_at(len as usize);
            assert!(clause.windows(2).all(|w| w[0] < w[1]), "clause {clause:?}");
            cone.push(clause.to_vec());
            rest = tail;
        }
        let mut sorted = cone.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), cone.len(), "duplicate clause in {key:?}");
        (depth, implied, sorted)
    }

    fn key_of(
        idx: &mut ResidualIndex,
        cnf: &Cnf,
        alpha: &Assignment,
        important: &[Var],
        depth: usize,
    ) -> Vec<u32> {
        let mut out = Vec::new();
        idx.write_key(cnf, important, depth, |v| alpha.value(v), &mut out);
        out
    }

    fn random_cnf(rng: &mut SplitMix64, n: usize, m: usize) -> Cnf {
        let mut cnf = Cnf::new(n);
        for _ in 0..m {
            let width = 1 + rng.gen_range(0..4);
            cnf.add_clause((0..width).map(|_| lit(rng.gen_range(0..n), rng.gen_bool(0.5))));
        }
        cnf
    }

    #[test]
    fn independent_variables_have_empty_relevance() {
        // Two unrelated unit clauses on x0 and x1.
        let mut cnf = Cnf::new(2);
        cnf.add_unit(lit(0, true));
        cnf.add_unit(lit(1, true));
        let idx = ConnectivityIndex::build(&cnf, &[Var::new(0), Var::new(1)]);
        assert!(idx.relevant[0].is_empty());
        assert!(idx.relevant[1].is_empty(), "x0 does not touch x1");
        assert!(idx.relevant[2].is_empty());
    }

    #[test]
    fn direct_clause_link_is_relevant() {
        let mut cnf = Cnf::new(2);
        cnf.add_clause([lit(0, true), lit(1, true)]);
        let idx = ConnectivityIndex::build(&cnf, &[Var::new(0), Var::new(1)]);
        assert_eq!(idx.relevant[1], &[0]);
    }

    #[test]
    fn link_through_auxiliary_is_relevant() {
        // x0 — aux(x2) — x1
        let mut cnf = Cnf::new(3);
        cnf.add_clause([lit(0, true), lit(2, true)]);
        cnf.add_clause([lit(2, false), lit(1, true)]);
        let idx = ConnectivityIndex::build(&cnf, &[Var::new(0), Var::new(1)]);
        assert_eq!(idx.relevant[1], &[0]);
    }

    #[test]
    fn link_blocked_by_important_variable_is_not_relevant() {
        // Chain x0 — x1 — x2 over important {x0, x1, x2}: at depth 2
        // (suffix {x2}), x1 is adjacent (relevant) but x0 is only reachable
        // through the important vertex x1, hence irrelevant.
        let mut cnf = Cnf::new(3);
        cnf.add_clause([lit(0, true), lit(1, true)]);
        cnf.add_clause([lit(1, false), lit(2, true)]);
        let idx = ConnectivityIndex::build(&cnf, &[Var::new(0), Var::new(1), Var::new(2)]);
        assert_eq!(idx.relevant[2], &[1]);
    }

    #[test]
    fn signature_filters_prefix_values() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause([lit(1, true), lit(2, true)]);
        let idx = ConnectivityIndex::build(&cnf, &[Var::new(0), Var::new(1), Var::new(2)]);
        let key = |prefix: &[bool]| {
            let mut out = Vec::new();
            idx.write_key(2, prefix, &mut out);
            out
        };
        // At depth 2, only position 1 matters.
        assert_eq!(key(&[true, false]), [2, 0]);
        assert_eq!(
            key(&[false, false]),
            [2, 0],
            "x0's value must not distinguish keys"
        );
        assert_eq!(key(&[true, true]), [2, 1]);
    }

    #[test]
    fn residual_signature_merges_equivalent_prefixes() {
        // Parity over 3 vars, direct encoding: prefixes 00 and 11 (even
        // parity) must share a key at depth 2; 01/10 share the other.
        let n = 3;
        let mut cnf = Cnf::new(n);
        for bits in 0..8u32 {
            if bits.count_ones() % 2 == 0 {
                cnf.add_clause((0..n).map(|i| lit(i, bits >> i & 1 == 0)));
            }
        }
        let important: Vec<Var> = Var::range(n).collect();
        let mut idx = ResidualIndex::build(&cnf);
        let mut key = |b0: bool, b1: bool| {
            let mut a = Assignment::new(n);
            a.assign(Var::new(0), b0);
            a.assign(Var::new(1), b1);
            key_of(&mut idx, &cnf, &a, &important, 2)
        };
        assert_eq!(key(false, false), key(true, true));
        assert_eq!(key(false, true), key(true, false));
        assert_ne!(key(false, false), key(false, true));
    }

    #[test]
    fn residual_signature_drops_satisfied_clauses() {
        let mut cnf = Cnf::new(2);
        cnf.add_clause([lit(0, true), lit(1, true)]);
        let important = [Var::new(0), Var::new(1)];
        let mut idx = ResidualIndex::build(&cnf);
        let mut a = Assignment::new(2);
        a.assign(Var::new(0), true); // clause satisfied → empty residual
        assert_eq!(key_of(&mut idx, &cnf, &a, &important, 1), [1, 0]);
        a.assign(Var::new(0), false); // clause shrinks to (x1)
        let x1 = Lit::pos(Var::new(1)).code() as u32;
        assert_eq!(key_of(&mut idx, &cnf, &a, &important, 1), [1, 0, 1, x1]);
    }

    #[test]
    fn residual_signature_reaches_through_aux() {
        // suffix x1 — aux x2 — clause with prefix x0 falsified literal.
        let mut cnf = Cnf::new(3);
        cnf.add_clause([lit(1, true), lit(2, true)]);
        cnf.add_clause([lit(2, false), lit(0, true)]);
        let important = [Var::new(0), Var::new(1)];
        let mut idx = ResidualIndex::build(&cnf);
        let mut a = Assignment::new(3);
        a.assign(Var::new(0), false);
        let (_, implied, cone) = decode(&key_of(&mut idx, &cnf, &a, &important, 1));
        assert!(implied.is_empty());
        // Both clauses survive: (x1 ∨ x2) and (¬x2) [x0 literal removed].
        assert_eq!(cone.len(), 2);
    }

    #[test]
    fn pure_auxiliary_literals_merge_prefixes() {
        // Suffix x1, auxiliaries x2 and x3:
        // (x0 ∨ x1 ∨ x2), (¬x2 ∨ x3), (x3 ∨ x1).
        // Under x0 = 1 the first clause is satisfied and x3 is pure; under
        // x0 = 0, x3 is pure, and once its clauses go, so is x2. Both
        // cones reduce to nothing, and x1 is free under either prefix.
        let mut cnf = Cnf::new(4);
        cnf.add_clause([lit(0, true), lit(1, true), lit(2, true)]);
        cnf.add_clause([lit(2, false), lit(3, true)]);
        cnf.add_clause([lit(3, true), lit(1, true)]);
        let important = [Var::new(0), Var::new(1)];
        let mut idx = ResidualIndex::build(&cnf);
        let mut key = |b0: bool| {
            let mut a = Assignment::new(4);
            a.assign(Var::new(0), b0);
            key_of(&mut idx, &cnf, &a, &important, 1)
        };
        assert_eq!(key(false), [1, 0]);
        assert_eq!(key(true), [1, 0]);
        // A suffix literal is never dropped, however pure: with x1's
        // clauses left, x1 keeps its cone.
        let mut cnf = Cnf::new(2);
        cnf.add_clause([lit(0, false), lit(1, true)]);
        let mut idx = ResidualIndex::build(&cnf);
        let mut a = Assignment::new(2);
        a.assign(Var::new(0), true);
        let x1 = Lit::pos(Var::new(1)).code() as u32;
        assert_eq!(key_of(&mut idx, &cnf, &a, &important, 1), [1, 0, 1, x1]);
    }

    /// Equal keys mean equal suffix projections: for random CNFs with
    /// auxiliary variables and random satisfiable prefixes, every two
    /// prefixes with one key have the same truth-table projection of the
    /// formula onto the suffix.
    #[test]
    fn equal_keys_have_equal_suffix_projections() {
        let mut rng = SplitMix64::seed_from_u64(0x9E4E);
        let mut merged = 0;
        for round in 0..120 {
            let n = 6 + rng.gen_range(0..6);
            let m = n + rng.gen_range(0..2 * n);
            let cnf = random_cnf(&mut rng, n, m);
            let k = 2 + rng.gen_range(0..n - 3);
            let important: Vec<Var> = Var::range(k).collect();
            let mut solver = Solver::from_cnf(&cnf);
            let mut idx = ResidualIndex::build(&cnf);
            let mut seen: Vec<(Vec<u32>, Vec<Lit>, BTreeSet<Cube>)> = Vec::new();
            for _ in 0..24 {
                let depth = rng.gen_range(0..k + 1);
                let prefix: Vec<Lit> = important[..depth]
                    .iter()
                    .map(|&v| Lit::with_phase(v, rng.gen_bool(0.5)))
                    .collect();
                let mut restricted = cnf.clone();
                for &p in &prefix {
                    restricted.add_unit(p);
                }
                // Keys are written only at satisfiable nodes.
                let projection = truth_table::project_models(&restricted, &important[depth..]);
                if projection.is_empty() {
                    continue;
                }
                assert!(prefix.iter().all(|&p| solver.assume(p)), "round {round}");
                let mut key = Vec::new();
                idx.write_key(&cnf, &important, depth, |v| solver.value(v), &mut key);
                solver.backtrack(0);
                for (other, other_prefix, other_projection) in &seen {
                    if key == *other {
                        merged += usize::from(prefix != *other_prefix);
                        assert_eq!(
                            projection, *other_projection,
                            "round {round}: {prefix:?} and {other_prefix:?} share key {key:?}"
                        );
                    }
                }
                seen.push((key, prefix, projection));
            }
        }
        assert!(
            merged > 100,
            "only {merged} merges between distinct prefixes"
        );
    }

    #[test]
    fn flat_keys_decode_to_the_reference_signature() {
        let mut rng = SplitMix64::seed_from_u64(0x51C0);
        for round in 0..200 {
            let n = 4 + rng.gen_range(0..8);
            let m = 2 + rng.gen_range(0..3 * n);
            let cnf = random_cnf(&mut rng, n, m);
            let k = 1 + rng.gen_range(0..n);
            let important: Vec<Var> = Var::range(k).collect();
            let mut solver = Solver::from_cnf(&cnf);
            let mut idx = ResidualIndex::build(&cnf);
            let mut seen: Vec<(Vec<u32>, Triple)> = Vec::new();
            for _ in 0..8 {
                let depth = rng.gen_range(0..k + 1);
                let prefix: Vec<Lit> = important[..depth]
                    .iter()
                    .map(|&v| Lit::with_phase(v, rng.gen_bool(0.5)))
                    .collect();
                // The prefix on the trail, one assumption level per
                // literal, as the search holds it; no key on a conflict.
                if !prefix.iter().all(|&p| solver.assume(p)) {
                    solver.backtrack(0);
                    continue;
                }
                let mut flat = Vec::new();
                idx.write_key(&cnf, &important, depth, |v| solver.value(v), &mut flat);
                let mut alpha = Assignment::new(n);
                for v in Var::range(n) {
                    if let Some(b) = solver.value(v) {
                        alpha.assign(v, b);
                    }
                }
                solver.backtrack(0);
                let want = reference(&cnf, &alpha, &important, depth);
                assert_eq!(decode(&flat), want, "round {round}, prefix {prefix:?}");
                // Equal flat keys exactly when the references are equal.
                for (other_flat, other_want) in &seen {
                    assert_eq!(flat == *other_flat, want == *other_want, "round {round}");
                }
                seen.push((flat, want));
            }
        }
    }

    #[test]
    fn clause_order_and_duplicates_do_not_change_the_key() {
        let [x0, x1, x2, x3] = [0, 1, 2, 3].map(|v| lit(v, true));
        // The cone {x0 ∨ ¬x1 ∨ x2, x1 ∨ x3, ¬x0 ∨ ¬x2 ∨ ¬x3, x3} written
        // three ways: as is; with clauses and literals reordered and a
        // literal repeated; and with duplicate clauses as well.
        let formulas = [
            vec![
                vec![x0, !x1, x2],
                vec![x1, x3],
                vec![!x2, !x3, !x0],
                vec![x3],
            ],
            vec![
                vec![x3, x1],
                vec![!x0, !x2, !x3, !x2],
                vec![x3],
                vec![x2, !x1, x0],
            ],
            vec![
                vec![x3],
                vec![x2, x0, !x1, x2],
                vec![!x3, !x2, !x0],
                vec![x1, x3, x1],
                vec![x3],
                vec![x3, x1],
            ],
        ];
        let important: Vec<Var> = Var::range(4).collect();
        let keys: Vec<Vec<u32>> = formulas
            .iter()
            .map(|clauses| {
                let mut cnf = Cnf::new(4);
                for c in clauses {
                    cnf.add_clause(c.iter().copied());
                }
                let mut idx = ResidualIndex::build(&cnf);
                key_of(&mut idx, &cnf, &Assignment::new(4), &important, 0)
            })
            .collect();
        assert_eq!(keys[0], keys[1]);
        assert_eq!(keys[0], keys[2]);
        assert_eq!(decode(&keys[0]).2.len(), 4);
    }

    #[test]
    fn visit_marks_survive_the_epoch_wrap() {
        let mut rng = SplitMix64::seed_from_u64(7);
        let cnf = random_cnf(&mut rng, 10, 30);
        let important: Vec<Var> = Var::range(6).collect();
        let mut alpha = Assignment::new(10);
        alpha.assign(Var::new(0), true);
        alpha.assign(Var::new(1), false);
        let want = reference(&cnf, &alpha, &important, 2);
        let mut idx = ResidualIndex::build(&cnf);
        // Marks left at epoch 1 long ago, and the epoch about to wrap: the
        // wrap must clear them, or the key's walk would skip every clause.
        idx.next_epoch(&cnf);
        idx.var_mark.fill(1);
        idx.clause_mark.fill((1, 0));
        idx.epoch = u32::MAX - 1;
        for _ in 0..3 {
            assert_eq!(decode(&key_of(&mut idx, &cnf, &alpha, &important, 2)), want);
        }
        assert_eq!(idx.epoch, 1 + 1);
    }

    #[test]
    fn colliding_hashes_stay_distinct() {
        let mut cache = SignatureCache::default();
        let (a, b, c) = ([3, 0, 1, 8], [3, 0, 1, 9], [3, 0, 1]);
        cache.insert(&a, 42, SolutionNodeId::TOP);
        cache.insert(&b, 42, SolutionNodeId::BOTTOM);
        assert_eq!(cache.get(&a, 42), Some(SolutionNodeId::TOP));
        assert_eq!(cache.get(&b, 42), Some(SolutionNodeId::BOTTOM));
        assert_eq!(cache.get(&c, 42), None);
        assert_eq!(cache.get(&a, 43), None, "a key is found under its own hash");
        assert_eq!(cache.hash(&a), cache.hash(&[3, 0, 1, 8]));
    }

    #[test]
    fn entries_survive_table_growth() {
        // One distinct node per entry: a node at each level of a tall graph.
        let mut g = crate::SolutionGraph::new(5000);
        let mut cache = SignatureCache::default();
        let keys: Vec<Vec<u32>> = (0..5000u32).map(|i| vec![i % 20, i, i / 7]).collect();
        let nodes: Vec<SolutionNodeId> = (0..5000)
            .map(|i| g.mk(i, SolutionNodeId::BOTTOM, SolutionNodeId::TOP))
            .collect();
        for (i, key) in keys.iter().enumerate() {
            // Every eighth key shares one hash, so growth moves collision runs too.
            let hash = if i % 8 == 0 { 5 } else { cache.hash(key) };
            cache.insert(key, hash, nodes[i]);
        }
        for (i, key) in keys.iter().enumerate() {
            let hash = if i % 8 == 0 { 5 } else { cache.hash(key) };
            assert_eq!(cache.get(key, hash), Some(nodes[i]), "entry {i}");
        }
        cache.clear();
        assert_eq!(cache.get(&keys[1], cache.hash(&keys[1])), None);
    }
}
