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

use presat_logic::{Cnf, Lit, Var};

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
/// reachable from the suffix variables, once bounded resolution has
/// eliminated what auxiliary variables it can. Two prefixes with identical
/// reduced cones have identical suffix solution sets, even when the
/// prefixes themselves differ everywhere — e.g. all even-parity prefixes
/// of a parity constraint share one cone.
///
/// An auxiliary variable is an unassigned variable outside the suffix. It
/// is existentially quantified, so Davis–Putnam resolution may eliminate
/// it: its clauses give way to every non-tautological resolvent of one
/// that holds it positively with one that holds it negatively, and the
/// suffix projection stays as it was. The key eliminates exactly the
/// auxiliaries whose residual occurrence counts `p` and `n` satisfy
/// `p·n ≤ 2` (bounded variable elimination, as in Eén–Biere's SatELite,
/// with a bound under which at most two resolvents replace at least two
/// clauses, so the cone never gains a clause). `p·n = 0` is a pure
/// literal, whose clauses go with no resolvent. (A session's activation
/// literal that the call does not assume is pure too, and dropping its
/// group is exactly right: the group can be switched off.)
///
/// The signature is exact (clauses are compared by surviving literal
/// content, not hashed), so reuse is never unsound.
#[derive(Clone, Debug)]
pub(crate) struct ResidualIndex {
    /// Var index → clause indices containing it, over the formula's first
    /// `indexed` clauses.
    clauses_of_var: Vec<Vec<u32>>,
    indexed: usize,
    /// Per clause, kept between keys and grown with the formula: the epoch
    /// that visited it last (see `Cone::epoch`), and where `sorted` holds
    /// it, or [`UNSORTED`] before its first visit.
    clause_mark: Vec<(u32, u32)>,
    /// The literal codes of every clause visited so far, sorted and
    /// deduplicated, each after a length word, which is [`TAUTOLOGY`] for
    /// a clause that holds some variable in both phases. A clause is
    /// stored on its first visit, so building the index costs nothing per
    /// clause, and no key sorts a clause again.
    sorted: Vec<u32>,
    cone: Cone,
}

/// The residual cone of the key being written, with the occurrence lists
/// its elimination runs on. Between keys `vars` keeps its marks, `queue`
/// is empty, `fresh` keeps its length, and the rest is empty.
#[derive(Clone, Debug, Default)]
struct Cone {
    /// The current key's visit mark: a clause (`ResidualIndex::clause_mark`)
    /// or variable is visited in this key iff its mark equals `epoch`.
    epoch: u32,
    /// Per variable, kept between keys and grown with the formula: its
    /// visit mark, and its occurrences in the key that visited it last.
    vars: Vec<VarSlot>,
    /// The visited variable indices in visit order; the walk reads them as
    /// a queue.
    frontier: Vec<u32>,
    /// The clause being read or resolved.
    clause: Vec<u32>,
    /// The literal codes of the cone's clauses back to back, and each
    /// clause: the walk's residual clauses first, then the resolvents.
    lits: Vec<u32>,
    clauses: Vec<Residual>,
    /// The occurrence lists' entries.
    links: Vec<Link>,
    /// The variables to try eliminating.
    queue: VarQueue,
    /// The clauses of the variable being eliminated.
    picked: Vec<u32>,
    /// The walk's next clauses to read: those of one variable not visited
    /// yet, in its leading entries. Collected without a branch per clause,
    /// since whether a clause is visited already is hard to predict.
    fresh: Vec<u32>,
}

/// One variable of a [`Cone`]. Outside the key that visited it last, only
/// `mark` means anything.
#[derive(Clone, Copy, Debug, Default)]
struct VarSlot {
    /// The epoch that visited the variable last.
    mark: u32,
    /// Occurrences of its positive and its negative literal (`code & 1`) in
    /// the clauses still in the cone, counted up from [`SUFFIX_COUNT`] for
    /// an unassigned suffix variable.
    occurs: [u32; 2],
    /// Its last occurrence in a clause of the cone, an index into
    /// `Cone::links`, or [`NO_LINK`].
    last: u32,
}

/// A variable's occurrence in a clause of the cone: the clause's index in
/// `Cone::clauses` and the variable's previous occurrence, or [`NO_LINK`].
#[derive(Clone, Copy, Debug)]
struct Link {
    clause: u32,
    next: u32,
}

/// One clause of a key's cone: a fingerprint of its contents, their range
/// in `Cone::lits`, and whether it is still in the cone (eliminating one
/// of its variables takes it out).
#[derive(Clone, Copy, Debug)]
struct Residual {
    fingerprint: u64,
    start: u32,
    end: u32,
    live: bool,
}

/// A set of variable indices that yields its smallest member first: one
/// bit per variable, sized with the formula, all clear while empty. Only
/// the words `low..high` may hold a member.
#[derive(Clone, Debug, Default)]
struct VarQueue {
    words: Vec<u64>,
    low: usize,
    high: usize,
}

impl VarQueue {
    /// Adds variable `w`, if it is not a member yet.
    fn insert(&mut self, w: u32) {
        let i = w as usize >> 6;
        if self.low == self.high {
            (self.low, self.high) = (i, i + 1);
        } else {
            self.low = self.low.min(i);
            self.high = self.high.max(i + 1);
        }
        self.words[i] |= 1 << (w & 63);
    }

    /// Removes and returns the smallest member.
    fn pop_min(&mut self) -> Option<u32> {
        while self.low < self.high {
            let word = &mut self.words[self.low];
            if *word != 0 {
                let bit = word.trailing_zeros();
                *word &= *word - 1;
                return Some((self.low << 6) as u32 | bit);
            }
            self.low += 1;
        }
        None
    }
}

/// The end of an occurrence list.
const NO_LINK: u32 = u32::MAX;
/// The `clause_mark` position of a clause not yet in `sorted`.
const UNSORTED: u32 = u32::MAX;
/// The length word in `sorted` of a clause that holds some variable in
/// both phases.
const TAUTOLOGY: u32 = u32::MAX;
/// Where an unassigned suffix variable's occurrence counts start: far
/// past any bound, so [`eliminable`] never holds for it and the suffix is
/// never quantified away.
const SUFFIX_COUNT: u32 = 1 << 30;

/// Whether a variable with occurrence counts `[p, n]` is eliminated:
/// `p·n ≤ 2`.
fn eliminable([p, n]: [u32; 2]) -> bool {
    p == 0 || n == 0 || p + n <= 3
}

impl ResidualIndex {
    /// Builds the incidence index for `cnf`.
    pub(crate) fn build(cnf: &Cnf) -> Self {
        let mut index = ResidualIndex {
            clauses_of_var: Vec::new(),
            indexed: 0,
            clause_mark: Vec::new(),
            sorted: Vec::new(),
            cone: Cone::default(),
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
    /// unassigned suffix variables, less tautologies, after the bounded
    /// elimination of auxiliary variables (see [`ResidualIndex`]); each
    /// clause's literal codes sorted and deduplicated, the clauses
    /// deduplicated and ordered by a fingerprint of their contents, ties
    /// broken by the contents. The clauses run to the end of the key, so it
    /// decodes uniquely: two keys are equal exactly when their depths,
    /// implied values and reduced cones are.
    ///
    /// Why equal keys mean equal suffix projections, given that the
    /// formula is satisfiable under the prefix (the engine certifies it
    /// with a model before it writes a key):
    /// - The walk reads every clause of every variable it reaches, so the
    ///   cone holds every residual occurrence of its variables, and the
    ///   rest of the residual formula shares no unassigned variable with
    ///   it. The rest is then satisfiable on its own, whatever the suffix.
    /// - A clause that holds both phases of a variable is true under every
    ///   assignment, so the walk drops it as it drops a satisfied one.
    ///   It must go before any resolution: resolving on `x` with
    ///   `x ∨ ¬x ∨ C` would yield `C ∨ D` from `¬x ∨ D`, although the two
    ///   clauses are satisfied together by `x = 0` whatever `C` and `D`
    ///   read, and the key would lose suffix models.
    /// - Eliminating an auxiliary variable `x` replaces the cone by its
    ///   existential quantification over `x` (Davis–Putnam: with no clause
    ///   holding both phases of `x`, the resolvents on `x` are exactly
    ///   `∃x`), and a tautological resolvent holds everywhere. No suffix
    ///   variable is quantified, so a suffix assignment extends to a model
    ///   of the cone exactly when it extends to one of the reduced cone.
    /// - The elimination order is a function of the cone: always the
    ///   smallest eligible variable index. Equal cones therefore give equal
    ///   keys. Cones with equal projections may still give different keys,
    ///   which costs a hit, never soundness.
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
        let cone = &mut self.cone;
        let epoch = cone.epoch;
        out.push(depth as u32);
        let count_at = out.len();
        out.push(0);
        for (p, &v) in important.iter().enumerate().skip(depth) {
            match value(v) {
                Some(b) => out.push((p as u32) << 1 | u32::from(b)),
                None => cone.visit(v.index() as u32, SUFFIX_COUNT),
            }
        }
        out[count_at] = (out.len() - count_at - 1) as u32;
        let suffix = cone.frontier.len();

        let mut next = 0;
        while let Some(&v) = cone.frontier.get(next) {
            next += 1;
            let of_var = &self.clauses_of_var[v as usize];
            if cone.fresh.len() < of_var.len() {
                cone.fresh.resize(of_var.len(), 0);
            }
            let mut fresh = 0;
            for &ci in of_var {
                let mark = &mut self.clause_mark[ci as usize].0;
                cone.fresh[fresh] = ci;
                fresh += usize::from(*mark != epoch);
                *mark = epoch;
            }
            for f in 0..fresh {
                let ci = cone.fresh[f] as usize;
                // Most clauses a walk visits are satisfied, and a clause's
                // own literal order tends to find the true literal soonest:
                // a session's group clauses lead with their activation
                // literal, which retires the whole group.
                let clause = &cnf.clauses()[ci];
                if clause.iter().any(|&l| value(l.var()) == Some(l.is_pos())) {
                    continue;
                }
                let mark = &mut self.clause_mark[ci];
                if mark.1 == UNSORTED {
                    mark.1 = self.sorted.len() as u32;
                    cone.clause.clear();
                    cone.clause.extend(clause.iter().map(|l| l.code() as u32));
                    cone.clause.sort_unstable();
                    cone.clause.dedup();
                    // A variable's two codes sort next to each other.
                    let len = if cone.clause.windows(2).any(|w| w[0] ^ 1 == w[1]) {
                        TAUTOLOGY
                    } else {
                        cone.clause.len() as u32
                    };
                    self.sorted.push(len);
                    self.sorted.extend_from_slice(&cone.clause);
                }
                let at = mark.1 as usize;
                let len = self.sorted[at];
                if len == TAUTOLOGY {
                    continue;
                }
                cone.clause.clear();
                cone.clause.extend(
                    self.sorted[at + 1..=at + len as usize]
                        .iter()
                        .filter(|&&code| value(Lit::from_code(code).var()).is_none()),
                );
                cone.add_clause();
            }
        }
        cone.eliminate(suffix);
        cone.write(out);
    }

    /// Starts a new visit epoch, growing the marks to `cnf`'s size. New
    /// marks are 0, which is never a current epoch.
    fn next_epoch(&mut self, cnf: &Cnf) {
        if self.cone.vars.len() < cnf.num_vars() {
            self.cone.vars.resize(cnf.num_vars(), VarSlot::default());
            self.cone.queue.words.resize(cnf.num_vars().div_ceil(64), 0);
        }
        if self.clause_mark.len() < cnf.num_clauses() {
            self.clause_mark.resize(cnf.num_clauses(), (0, UNSORTED));
        }
        let cone = &mut self.cone;
        cone.epoch = cone.epoch.wrapping_add(1);
        if cone.epoch == 0 {
            // A mark left 2^32 epochs ago would read as current.
            cone.vars.fill(VarSlot::default());
            for mark in &mut self.clause_mark {
                mark.0 = 0;
            }
            cone.epoch = 1;
        }
    }
}

impl Cone {
    /// Marks variable `w` visited, with both occurrence counts at `count`,
    /// unless it is already.
    fn visit(&mut self, w: u32, count: u32) {
        let slot = &mut self.vars[w as usize];
        if slot.mark != self.epoch {
            *slot = VarSlot {
                mark: self.epoch,
                occurs: [count; 2],
                last: NO_LINK,
            };
            self.frontier.push(w);
        }
    }

    /// Adds `clause`, whose codes are sorted, distinct and hold no variable
    /// in both phases, to the cone, visiting its new variables.
    fn add_clause(&mut self) {
        let r = self.clauses.len() as u32;
        let start = self.lits.len() as u32;
        let mut fingerprint = self.clause.len() as u64;
        for k in 0..self.clause.len() {
            let code = self.clause[k];
            fingerprint =
                (fingerprint.rotate_left(29) ^ u64::from(code)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let w = code >> 1;
            self.visit(w, 0);
            let slot = &mut self.vars[w as usize];
            slot.occurs[code as usize & 1] += 1;
            self.links.push(Link {
                clause: r,
                next: slot.last,
            });
            slot.last = (self.links.len() - 1) as u32;
        }
        self.lits.extend_from_slice(&self.clause);
        self.clauses.push(Residual {
            fingerprint,
            start,
            end: self.lits.len() as u32,
            live: true,
        });
    }

    /// The literal codes of clause `r`.
    fn lits_of(&self, r: u32) -> &[u32] {
        let c = &self.clauses[r as usize];
        &self.lits[c.start as usize..c.end as usize]
    }

    /// Eliminates, smallest variable index first, every auxiliary variable
    /// whose occurrence counts `p` and `n` in the clauses still in the cone
    /// satisfy `p·n ≤ 2`, until none does. Called after the walk, when
    /// `frontier` lists every visited variable, the unassigned suffix
    /// variables first (`suffix` of them). The clauses it takes out stay
    /// in `clauses`, no longer live; the resolvents join them.
    ///
    /// `queue` holds every eligible variable, and perhaps some that no
    /// longer are, which are skipped: a resolvent only adds occurrences,
    /// which can end eligibility but never start it, so a variable joins
    /// the queue when taking out a clause makes it eligible.
    fn eliminate(&mut self, suffix: usize) {
        for &w in &self.frontier[suffix..] {
            if eliminable(self.vars[w as usize].occurs) {
                self.queue.insert(w);
            }
        }
        while let Some(x) = self.queue.pop_min() {
            let [p, n] = self.vars[x as usize].occurs;
            if p + n == 0 || !eliminable([p, n]) {
                continue;
            }
            self.take_clauses_of(x);
            if p == 0 || n == 0 {
                continue;
            }
            // The clauses holding `x`, positive ones first.
            let mut positive = 0;
            for i in 0..self.picked.len() {
                if self.lits_of(self.picked[i]).contains(&(x << 1)) {
                    self.picked.swap(i, positive);
                    positive += 1;
                }
            }
            for i in 0..positive {
                for j in positive..self.picked.len() {
                    if self.resolve(self.picked[i], self.picked[j], x) {
                        self.add_clause();
                    }
                }
            }
        }
    }

    /// Takes the clauses that hold variable `x` out of the cone and their
    /// literals out of the occurrence counts, and lists them in `picked`.
    fn take_clauses_of(&mut self, x: u32) {
        self.picked.clear();
        let mut link = self.vars[x as usize].last;
        while link != NO_LINK {
            let Link { clause: r, next } = self.links[link as usize];
            let c = &mut self.clauses[r as usize];
            if c.live {
                c.live = false;
                self.picked.push(r);
            }
            link = next;
        }
        for &r in &self.picked {
            let c = self.clauses[r as usize];
            for &code in &self.lits[c.start as usize..c.end as usize] {
                let slot = &mut self.vars[code as usize >> 1];
                let was = eliminable(slot.occurs);
                slot.occurs[code as usize & 1] -= 1;
                if !was && eliminable(slot.occurs) {
                    self.queue.insert(code >> 1);
                }
            }
        }
    }

    /// Writes the resolvent on variable `x` of clauses `a` (holding `x`)
    /// and `b` (holding `¬x`) to `clause`; `false` if it is tautological.
    fn resolve(&mut self, a: u32, b: u32, x: u32) -> bool {
        let (a, b) = (self.clauses[a as usize], self.clauses[b as usize]);
        let (mut i, mut j) = (a.start as usize, b.start as usize);
        let (a_end, b_end) = (a.end as usize, b.end as usize);
        self.clause.clear();
        // Merge the two sorted clauses: equal codes and a variable's two
        // codes meet next to each other.
        while i < a_end || j < b_end {
            let code = if j == b_end || (i < a_end && self.lits[i] <= self.lits[j]) {
                i += 1;
                self.lits[i - 1]
            } else {
                j += 1;
                self.lits[j - 1]
            };
            match self.clause.last() {
                _ if code >> 1 == x => {}
                Some(&last) if last == code => {}
                Some(&last) if last == code ^ 1 => return false,
                _ => self.clause.push(code),
            }
        }
        true
    }

    /// Appends the cone's live clauses, deduplicated, in the key's order to
    /// `out`, and empties the cone.
    fn write(&mut self, out: &mut Vec<u32>) {
        let lits = &self.lits;
        let range = |c: &Residual| &lits[c.start as usize..c.end as usize];
        let mut kept = 0;
        for i in 0..self.clauses.len() {
            let c = self.clauses[i];
            self.clauses[kept] = c;
            kept += usize::from(c.live);
        }
        self.clauses.truncate(kept);
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
        self.links.clear();
        self.frontier.clear();
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
    /// residual clauses, each its sorted surviving literal codes, after a
    /// naive Davis–Putnam elimination.
    fn reference(cnf: &Cnf, alpha: &Assignment, important: &[Var], depth: usize) -> Triple {
        reference_counting(cnf, alpha, important, depth).0
    }

    /// What the reference did for one key: the tautological clauses its
    /// walk skipped, and the variables it eliminated by resolution (with
    /// both phases present) and as pure literals.
    #[derive(Clone, Copy, Debug, Default)]
    struct Steps {
        tautologies: usize,
        resolved: usize,
        pure: usize,
    }

    /// [`reference`] and its [`Steps`]. The walk skips a clause that the
    /// prefix satisfies or that holds some code and its complement, and
    /// reaches no variable through it. Then, while some variable outside
    /// the suffix occurs with `p` positive and `n` negative occurrences,
    /// `p·n ≤ 2`, the smallest such variable is eliminated: every clause
    /// holding it is replaced by the resolvents on it that hold no code and
    /// its complement. Every count is taken afresh from the whole clause
    /// list at every step.
    fn reference_counting(
        cnf: &Cnf,
        alpha: &Assignment,
        important: &[Var],
        depth: usize,
    ) -> (Triple, Steps) {
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
        let tautological =
            |clause: &BTreeSet<u32>| clause.iter().any(|&c| clause.contains(&(c ^ 1)));
        let mut steps = Steps::default();
        let mut clause_seen = vec![false; cnf.num_clauses()];
        let mut var_seen = vec![false; cnf.num_vars()];
        let mut frontier: Vec<usize> = Vec::new();
        for &v in suffix {
            if alpha.value(v).is_none() && !var_seen[v.index()] {
                var_seen[v.index()] = true;
                frontier.push(v.index());
            }
        }
        let mut residuals: Vec<BTreeSet<u32>> = Vec::new();
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
                let surviving: BTreeSet<u32> = clause
                    .iter()
                    .filter(|&&l| alpha.lit_value(l).is_none())
                    .map(|l| l.code() as u32)
                    .collect();
                if tautological(&surviving) {
                    steps.tautologies += 1;
                    continue;
                }
                for &code in &surviving {
                    let w = (code >> 1) as usize;
                    if !var_seen[w] {
                        var_seen[w] = true;
                        frontier.push(w);
                    }
                }
                residuals.push(surviving);
            }
        }
        loop {
            let count = |code: u32| residuals.iter().filter(|c| c.contains(&code)).count();
            let present: BTreeSet<u32> = residuals.iter().flatten().map(|&c| c >> 1).collect();
            let Some(x) = present.into_iter().find(|&v| {
                !suffix.contains(&Var::new(v as usize)) && count(2 * v) * count(2 * v + 1) <= 2
            }) else {
                break;
            };
            let (held, rest): (Vec<_>, Vec<_>) = residuals
                .into_iter()
                .partition(|c| c.contains(&(2 * x)) || c.contains(&(2 * x + 1)));
            residuals = rest;
            let positive: Vec<&BTreeSet<u32>> =
                held.iter().filter(|c| c.contains(&(2 * x))).collect();
            let negative: Vec<&BTreeSet<u32>> =
                held.iter().filter(|c| c.contains(&(2 * x + 1))).collect();
            if positive.is_empty() || negative.is_empty() {
                steps.pure += 1;
            } else {
                steps.resolved += 1;
            }
            for p in &positive {
                for n in &negative {
                    let resolvent: BTreeSet<u32> =
                        p.union(n).copied().filter(|&c| c >> 1 != x).collect();
                    if !tautological(&resolvent) {
                        residuals.push(resolvent);
                    }
                }
            }
        }
        let mut cone: Vec<Vec<u32>> = residuals
            .into_iter()
            .map(|c| c.into_iter().collect())
            .collect();
        cone.sort_unstable();
        cone.dedup();
        ((depth as u32, implied, cone), steps)
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
        // Both clauses survive: (x1 ∨ x2) and (¬x2) [x0 literal removed],
        // and eliminating x2 leaves their resolvent (x1). A walk that
        // stopped at x2 would see it pure and drop (x1 ∨ x2) instead.
        let x1 = Lit::pos(Var::new(1)).code() as u32;
        assert_eq!(key_of(&mut idx, &cnf, &a, &important, 1), [1, 0, 1, x1]);
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

    #[test]
    fn bounded_elimination_merges_differently_shaped_chains() {
        // Suffix x1. The prefix x0 picks a chain of auxiliaries that forces
        // x1: (x1 ∨ x2), (¬x2) under x0 = 1, and (x1 ∨ x3), (¬x3 ∨ x4),
        // (¬x4) under x0 = 0. No literal is pure, so only resolution
        // finds that both cones project to x1 = 1.
        let mut cnf = Cnf::new(5);
        cnf.add_clause([lit(0, false), lit(1, true), lit(2, true)]);
        cnf.add_clause([lit(0, false), lit(2, false)]);
        cnf.add_clause([lit(0, true), lit(1, true), lit(3, true)]);
        cnf.add_clause([lit(0, true), lit(3, false), lit(4, true)]);
        cnf.add_clause([lit(0, true), lit(4, false)]);
        let important = [Var::new(0), Var::new(1)];
        let mut idx = ResidualIndex::build(&cnf);
        let x1 = Lit::pos(Var::new(1)).code() as u32;
        for b0 in [true, false] {
            let mut a = Assignment::new(5);
            a.assign(Var::new(0), b0);
            let key = key_of(&mut idx, &cnf, &a, &important, 1);
            assert_eq!(key, [1, 0, 1, x1], "x0 = {b0}");
            assert_eq!(decode(&key), reference(&cnf, &a, &important, 1));
        }
    }

    #[test]
    fn tautologies_leave_the_cone_before_any_resolution() {
        // Suffix x1, x2; auxiliary x3 in (x3 ∨ ¬x3 ∨ x1) and (¬x3 ∨ x2).
        // The first clause is valid, so x3 is pure and the cone empty:
        // every suffix assignment has a model (x3 = 0). Resolving on the
        // valid clause would yield (x1 ∨ x2) and lose x1 = x2 = 0.
        let mut cnf = Cnf::new(4);
        cnf.add_clause([lit(3, true), lit(3, false), lit(1, true)]);
        cnf.add_clause([lit(3, false), lit(2, true)]);
        let important = [Var::new(0), Var::new(1), Var::new(2)];
        let mut idx = ResidualIndex::build(&cnf);
        let mut a = Assignment::new(4);
        a.assign(Var::new(0), true);
        assert_eq!(key_of(&mut idx, &cnf, &a, &important, 1), [1, 0]);
        // A tautological resolvent goes too: in (x1 ∨ x3), (¬x1 ∨ ¬x3)
        // the auxiliary x3 resolves to (x1 ∨ ¬x1), so x1 is free. With x3
        // in the suffix nothing is eliminated, though each variable occurs
        // once in each phase.
        let mut cnf = Cnf::new(4);
        cnf.add_clause([lit(1, true), lit(3, true)]);
        cnf.add_clause([lit(1, false), lit(3, false)]);
        let mut idx = ResidualIndex::build(&cnf);
        assert_eq!(key_of(&mut idx, &cnf, &a, &important, 1), [1, 0]);
        let suffix_x3 = [Var::new(0), Var::new(1), Var::new(3)];
        let (_, _, cone) = decode(&key_of(&mut idx, &cnf, &a, &suffix_x3, 1));
        assert_eq!(cone.len(), 2);
    }

    /// Equal keys mean equal suffix projections: for random CNFs with
    /// auxiliary variables, some tautological clauses, and random
    /// satisfiable prefixes, every two prefixes with one key have the same
    /// truth-table projection of the formula onto the suffix. The cones
    /// must give the elimination work: the reference counts the
    /// tautologies and resolution steps behind the keys.
    #[test]
    fn equal_keys_have_equal_suffix_projections() {
        let mut rng = SplitMix64::seed_from_u64(0x9E4E);
        let mut merged = 0;
        let mut steps = Steps::default();
        for round in 0..120 {
            let n = 6 + rng.gen_range(0..6);
            let m = n + rng.gen_range(0..2 * n);
            let mut cnf = random_cnf(&mut rng, n, m);
            for _ in 0..rng.gen_range(0..3) {
                let v = rng.gen_range(0..n);
                let w = rng.gen_range(0..n);
                cnf.add_clause([lit(v, true), lit(w, rng.gen_bool(0.5)), lit(v, false)]);
            }
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
                let mut alpha = Assignment::new(n);
                for v in Var::range(n) {
                    if let Some(b) = solver.value(v) {
                        alpha.assign(v, b);
                    }
                }
                solver.backtrack(0);
                let (_, did) = reference_counting(&cnf, &alpha, &important, depth);
                steps.tautologies += did.tautologies;
                steps.resolved += did.resolved;
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
        assert!(
            steps.tautologies > 100 && steps.resolved > 100,
            "too little elimination to test: {steps:?}"
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
        for slot in &mut idx.cone.vars {
            slot.mark = 1;
        }
        for mark in &mut idx.clause_mark {
            mark.0 = 1;
        }
        idx.cone.epoch = u32::MAX - 1;
        for _ in 0..3 {
            assert_eq!(decode(&key_of(&mut idx, &cnf, &alpha, &important, 2)), want);
        }
        assert_eq!(idx.cone.epoch, 1 + 1);
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
