//! Occurrence-indexed cube store: the subsumption engine behind
//! [`crate::CubeSet`].
//!
//! The naive absorbed-insert pays two full scans per cube — `any(subsumes)`
//! forward, `retain(!subsumed)` backward — so building an `n`-cube set is
//! O(n²) cube comparisons. This store keeps two literal-keyed indexes over
//! the live cubes so each insert touches only *candidates*, cubes that
//! provably share a literal with the incoming one:
//!
//! - **Watch-one lists** (forward): every stored non-⊤ cube appears in
//!   exactly one list, keyed by one of its own literals. If a stored cube
//!   `C` subsumes the incoming cube `N` then every literal of `C` — in
//!   particular its watched one — occurs in `N`, so scanning the watch
//!   lists of `N`'s literals visits every possible subsumer exactly once.
//! - **Full occurrence lists** (backward): every stored cube appears in the
//!   list of each of its literals. A stored cube `D` absorbed by `N`
//!   contains all of `N`'s literals, so scanning the single *shortest*
//!   occurrence list among `N`'s literals visits every victim once.
//!
//! Each list stores the entries' [`Cube::signature`]s and cube ids as two
//! parallel arrays, so the one-AND prefilter is a tight scan over packed
//! 8-byte signatures — the id array, the liveness table, and the cube
//! array are only touched for the rare candidates that survive it. The
//! signature has one bit per literal code, so it tells `x` from `¬x`: in
//! a list keyed by one literal, cubes that share the variables but clash
//! on a phase fail the prefilter too. Ids are
//! allocated in insertion order and stable removal preserves order, so the
//! dense id array stays strictly ascending and id→position resolution is a
//! binary search — there is no position map to maintain, which is what
//! makes removal cheap: a victim costs one `Vec::remove` memmove of the
//! dense tail, and its index entries are tombstoned in the liveness table
//! and dropped lazily when a scan's surviving prefilter reaches them.
//!
//! **Order preservation.** The result is bit-identical to the naive store:
//! the forward check is a pure existence test (order-irrelevant), the
//! backward sweep removes exactly the subsumed cubes while keeping the
//! survivors' relative order (stable in-order compaction, like `retain`),
//! and the new cube is appended last. The differential suite in
//! `tests/cubeset_index.rs` pins this against the retained
//! [`crate::NaiveCubeSet`].
//!
//! **Skipping scans.** A caller that knows more than the store may skip
//! work that cannot change the result. [`CubeIndex::insert_unsubsumed`]
//! skips the forward scan, for a cube no stored cube subsumes;
//! [`CubeIndex::push_disjoint`] skips both scans, for a cube unrelated to
//! every stored cube. Both give `insert`'s result under their
//! precondition, and debug builds check it.

use crate::Cube;

/// One literal's index list, in structure-of-arrays form: `sigs[i]` is the
/// cached signature of the cube with id `ids[i]`. Keeping the signatures
/// packed (8 bytes each, no id padding) means the prefilter scan streams
/// half the memory and the hot signature arrays stay cache-resident.
#[derive(Clone, Default)]
struct EntryList {
    sigs: Vec<u64>,
    ids: Vec<u32>,
}

impl EntryList {
    fn len(&self) -> usize {
        self.sigs.len()
    }

    fn push(&mut self, id: u32, sig: u64) {
        self.sigs.push(sig);
        self.ids.push(id);
    }

    fn clear(&mut self) {
        self.sigs.clear();
        self.ids.clear();
    }

    fn truncate(&mut self, len: usize) {
        self.sigs.truncate(len);
        self.ids.truncate(len);
    }

    /// Moves entry `r` to slot `w` (compaction step; `w <= r`).
    fn shift(&mut self, w: usize, r: usize) {
        self.sigs[w] = self.sigs[r];
        self.ids[w] = self.ids[r];
    }
}

/// Index of the first signature that may denote a *subset* of `sig`
/// (`s & !sig == 0`). The scan runs branchless over 8-wide chunks — the
/// pass test is a couple of word ops, so letting the compiler vectorize
/// the no-hit case (by far the most common) is worth re-testing a chunk
/// on the rare hit.
fn first_sub(sigs: &[u64], sig: u64) -> Option<usize> {
    let mask = !sig;
    let mut base = 0;
    let mut chunks = sigs.chunks_exact(8);
    for ch in &mut chunks {
        let mut any = false;
        for &s in ch {
            any |= s & mask == 0;
        }
        if any {
            for (j, &s) in ch.iter().enumerate() {
                if s & mask == 0 {
                    return Some(base + j);
                }
            }
        }
        base += 8;
    }
    chunks
        .remainder()
        .iter()
        .position(|&s| s & mask == 0)
        .map(|j| base + j)
}

/// Index of the first signature that may denote a *superset* of `sig`
/// (`sig & !s == 0`, i.e. `s & sig == sig`). Same shape as [`first_sub`].
fn first_sup(sigs: &[u64], sig: u64) -> Option<usize> {
    let mut base = 0;
    let mut chunks = sigs.chunks_exact(8);
    for ch in &mut chunks {
        let mut any = false;
        for &s in ch {
            any |= s & sig == sig;
        }
        if any {
            for (j, &s) in ch.iter().enumerate() {
                if s & sig == sig {
                    return Some(base + j);
                }
            }
        }
        base += 8;
    }
    chunks
        .remainder()
        .iter()
        .position(|&s| s & sig == sig)
        .map(|j| base + j)
}

/// Work counters for the indexed subsumption engine, surfaced through the
/// observability layer as `subsumption_checks`, `sig_rejects`, and
/// `index_candidates`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CubeIndexStats {
    /// Candidate cube pairs tested for subsumption (a signature-level
    /// rejection counts: the test ran, it just finished in one AND).
    pub subsumption_checks: u64,
    /// Candidate pairs dismissed by the signature prefilter alone, before
    /// any literal comparison.
    pub sig_rejects: u64,
    /// Index entries visited while walking occurrence lists — the
    /// per-insert work the index actually does, to compare against the
    /// store size a naive scan would have touched.
    pub index_candidates: u64,
}

impl CubeIndexStats {
    /// Accumulates another snapshot; all three are additive work counters.
    pub fn absorb(&mut self, other: &CubeIndexStats) {
        self.subsumption_checks += other.subsumption_checks;
        self.sig_rejects += other.sig_rejects;
        self.index_candidates += other.index_candidates;
    }
}

/// The indexed store. Logical value is the dense `cubes` vector — the
/// index arrays are derived bookkeeping and the counters are diagnostics,
/// so neither participates in equality (handled by the wrapping
/// [`crate::CubeSet`]).
#[derive(Clone, Default)]
pub(crate) struct CubeIndex {
    /// Live cubes in canonical (naive-identical) order.
    cubes: Vec<Cube>,
    /// Stable id of each dense slot (parallel to `cubes`). Ids are handed
    /// out in insertion order and removal is stable, so this array is
    /// strictly ascending: id→position is a binary search, and removing a
    /// cube needs no index rewriting at all.
    ids: Vec<u32>,
    /// Liveness of every id ever allocated; flipped off when the cube is
    /// removed. Grows by one per successful insert.
    alive: Vec<bool>,
    /// Watch-one lists keyed by literal code: each live non-⊤ cube sits in
    /// exactly one list, under the literal whose list was shortest when the
    /// cube was inserted. May contain tombstoned ids (pruned lazily).
    watch: Vec<EntryList>,
    /// Full occurrence lists keyed by literal code: each live cube appears
    /// once per literal it contains. May contain tombstoned ids.
    occ: Vec<EntryList>,
    /// Whether the store is exactly `{⊤}` (the ⊤ cube has no literals and
    /// therefore lives in no occurrence list).
    has_top: bool,
    /// Work counters; reset never, absorbed by clones.
    stats: CubeIndexStats,
}

impl CubeIndex {
    /// Number of live cubes.
    pub fn len(&self) -> usize {
        self.cubes.len()
    }

    /// `true` if no cube is stored.
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// The live cubes, in canonical order.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// `true` if the store is exactly `{⊤}`.
    pub fn has_top(&self) -> bool {
        self.has_top
    }

    /// Snapshot of the work counters.
    pub fn stats(&self) -> CubeIndexStats {
        self.stats
    }

    /// Consumes the store, returning the cube vector.
    pub fn into_cubes(self) -> Vec<Cube> {
        self.cubes
    }

    /// Read-only forward check: is `cube` subsumed by some stored cube?
    /// Same candidate walk as [`CubeIndex::insert`]'s first phase, but
    /// without pruning or counter updates (usable through `&self`).
    pub fn contains_subsuming(&self, cube: &Cube) -> bool {
        if self.has_top {
            return true;
        }
        let sig = cube.signature();
        for &l in cube.lits() {
            let Some(list) = self.watch.get(l.code()) else {
                continue;
            };
            for (r, &csig) in list.sigs.iter().enumerate() {
                if csig & !sig != 0 {
                    continue;
                }
                let id = list.ids[r];
                if self.alive[id as usize] && self.cubes[self.dense_pos(id)].subsumes(cube) {
                    return true;
                }
            }
        }
        false
    }

    /// Absorbed insert, semantically identical to the naive
    /// `any`/`retain`/`push` sequence. Returns `true` if the store changed.
    pub fn insert(&mut self, cube: Cube) -> bool {
        if self.subsumed(&cube) {
            return false;
        }
        self.absorb_and_append(cube);
        true
    }

    /// [`CubeIndex::insert`] for a cube that the caller knows no stored
    /// cube subsumes: skips the forward scan and keeps the backward sweep.
    /// Under that precondition, which debug builds check, the result is
    /// identical to `insert`'s. Returns `true` if the cube evicted at least
    /// one stored cube.
    pub fn insert_unsubsumed(&mut self, cube: Cube) -> bool {
        debug_assert!(
            !self.contains_subsuming(&cube),
            "insert_unsubsumed: cube is subsumed by a stored cube"
        );
        self.absorb_and_append(cube)
    }

    /// Forward scan of an absorbed insert: is `cube` subsumed by a stored
    /// one? Every subsumer watches one of `cube`'s literals, so the watch
    /// lists of those literals cover all candidates (⊤ watches nothing;
    /// flag-checked). Drops the stale entries its prefilter passes and
    /// counts its work.
    fn subsumed(&mut self, cube: &Cube) -> bool {
        if self.has_top {
            self.stats.subsumption_checks += 1;
            return true;
        }
        let sig = cube.signature();
        let mut candidates = 0u64;
        let mut rejects = 0u64;
        let mut hit = false;
        for &l in cube.lits() {
            let Some(list) = self.watch.get_mut(l.code()) else {
                continue;
            };
            // Fast path: almost every entry is a signature reject, which
            // needs no pruning and no per-entry bookkeeping — scan the
            // packed signature array until one passes the prefilter, then
            // account for the whole run at once. Lists with no passing
            // entry (the common case) never enter the slow loop below.
            let mut r = match first_sub(&list.sigs, sig) {
                None => {
                    let n = list.len() as u64;
                    candidates += n;
                    rejects += n;
                    continue;
                }
                Some(p) => {
                    candidates += p as u64;
                    rejects += p as u64;
                    p
                }
            };
            let mut w = r;
            while r < list.len() {
                let csig = list.sigs[r];
                candidates += 1;
                if csig & !sig != 0 {
                    // Signature reject: stale entries stay until a
                    // surviving prefilter reaches them.
                    rejects += 1;
                    list.shift(w, r);
                    w += 1;
                    r += 1;
                    continue;
                }
                let id = list.ids[r];
                r += 1;
                if !self.alive[id as usize] {
                    continue; // drop the stale entry
                }
                list.sigs[w] = csig;
                list.ids[w] = id;
                w += 1;
                let p = self.ids.binary_search(&id).expect("live id is stored");
                if self.cubes[p].subsumes(cube) {
                    hit = true;
                    // Keep the unvisited tail; only the compaction shift
                    // remains to do.
                    while r < list.len() {
                        list.shift(w, r);
                        w += 1;
                        r += 1;
                    }
                }
            }
            list.truncate(w);
            if hit {
                break;
            }
        }
        self.tally(candidates, rejects);
        hit
    }

    /// Backward half of an absorbed insert: evicts every stored cube that
    /// `cube` subsumes, keeping the survivors' order, and appends `cube`.
    /// ⊤ absorbs everything; otherwise every victim contains all of
    /// `cube`'s literals, so one occurrence list suffices — the shortest.
    /// Returns `true` if a stored cube was evicted.
    fn absorb_and_append(&mut self, cube: Cube) -> bool {
        if cube.is_empty() {
            let evicted = !self.cubes.is_empty();
            self.reset_to_top();
            return evicted;
        }
        let sig = cube.signature();
        let mut best: Option<usize> = None;
        for &l in cube.lits() {
            let len = self.occ.get(l.code()).map_or(0, EntryList::len);
            if len == 0 {
                // No stored cube contains this literal, so none is absorbed.
                best = None;
                break;
            }
            if best.is_none_or(|b| len < self.occ[b].len()) {
                best = Some(l.code());
            }
        }
        let mut victims: Vec<usize> = Vec::new();
        if let Some(code) = best {
            let mut candidates = 0u64;
            let mut rejects = 0u64;
            let list = &mut self.occ[code];
            // Same fast path as the forward scan: burn through the leading
            // run of signature rejects without touching anything.
            let mut r = match first_sup(&list.sigs, sig) {
                None => {
                    let n = list.len() as u64;
                    candidates += n;
                    rejects += n;
                    list.len()
                }
                Some(p) => {
                    candidates += p as u64;
                    rejects += p as u64;
                    p
                }
            };
            let mut w = r;
            while r < list.len() {
                let csig = list.sigs[r];
                candidates += 1;
                if sig & !csig != 0 {
                    rejects += 1;
                    list.shift(w, r);
                    w += 1;
                    r += 1;
                    continue;
                }
                let id = list.ids[r];
                r += 1;
                if !self.alive[id as usize] {
                    continue; // drop the stale entry
                }
                let p = self.ids.binary_search(&id).expect("live id is stored");
                if cube.subsumes(&self.cubes[p]) {
                    // Tombstone; the entry is dropped from this list now
                    // and from the other lists lazily.
                    self.alive[id as usize] = false;
                    victims.push(p);
                } else {
                    list.sigs[w] = csig;
                    list.ids[w] = id;
                    w += 1;
                }
            }
            list.truncate(w);
            self.tally(candidates, rejects);
        }
        // Stable removal, highest position first so earlier indices stay
        // valid. With no position map to rewrite, each victim costs one
        // memmove of the dense tail — `Vec::remove` — and nothing else.
        let evicted = !victims.is_empty();
        victims.sort_unstable_by(|a, b| b.cmp(a));
        for p in victims {
            self.cubes.remove(p);
            self.ids.remove(p);
        }
        self.push_raw(cube);
        evicted
    }

    /// Adds one scan's work to the counters: every visited entry is a
    /// candidate and a subsumption check, and `rejects` of them ended at
    /// the signature prefilter.
    fn tally(&mut self, candidates: u64, rejects: u64) {
        self.stats.index_candidates += candidates;
        self.stats.subsumption_checks += candidates;
        self.stats.sig_rejects += rejects;
    }

    /// Appends a cube known to be subsumption-unrelated to every stored
    /// cube (neither subsumes nor is subsumed — e.g. the pairwise-disjoint
    /// path cubes of a solution graph). Skips both scans; the result is
    /// identical to [`CubeIndex::insert`] under that precondition.
    pub fn push_disjoint(&mut self, cube: Cube) {
        debug_assert!(
            !self.contains_subsuming(&cube),
            "push_disjoint: cube is subsumed by a stored cube"
        );
        debug_assert!(
            !self.cubes.iter().any(|c| cube.subsumes(c)),
            "push_disjoint: cube absorbs a stored cube"
        );
        if cube.is_empty() {
            debug_assert!(self.cubes.is_empty(), "⊤ is related to every cube");
            self.has_top = true;
        }
        self.push_raw(cube);
    }

    /// Dense position of a live id: a binary search, since `ids` is
    /// strictly ascending by construction.
    fn dense_pos(&self, id: u32) -> usize {
        self.ids.binary_search(&id).expect("live id is stored")
    }

    /// Drops everything and stores exactly `{⊤}`.
    fn reset_to_top(&mut self) {
        self.cubes.clear();
        self.ids.clear();
        self.alive.clear();
        for list in &mut self.watch {
            list.clear();
        }
        for list in &mut self.occ {
            list.clear();
        }
        self.has_top = true;
        self.push_raw(Cube::top());
    }

    /// Appends `cube` to the dense array and registers it in the indexes.
    fn push_raw(&mut self, cube: Cube) {
        let id = u32::try_from(self.alive.len()).expect("cube id space exhausted");
        let sig = cube.signature();
        self.alive.push(true);
        self.ids.push(id);
        // Grow the literal-keyed tables to the widest literal.
        if let Some(last) = cube.lits().last() {
            let need = last.code() + 1;
            if self.watch.len() < need {
                self.watch.resize_with(need, EntryList::default);
                self.occ.resize_with(need, EntryList::default);
            }
        }
        for &l in cube.lits() {
            self.occ[l.code()].push(id, sig);
        }
        // Watch the literal whose list is currently shortest: balances the
        // forward-scan load. The first minimum wins, so the choice — like
        // everything here — is deterministic.
        let watched = cube
            .lits()
            .iter()
            .min_by_key(|l| self.watch[l.code()].len());
        if let Some(&l) = watched {
            self.watch[l.code()].push(id, sig);
        }
        self.cubes.push(cube);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Lit, Var};

    fn cube(lits: &[(usize, bool)]) -> Cube {
        Cube::from_lits(lits.iter().map(|&(v, p)| Lit::with_phase(Var::new(v), p))).unwrap()
    }

    #[test]
    fn insert_forward_and_backward_match_naive_semantics() {
        let mut s = CubeIndex::default();
        assert!(s.insert(cube(&[(0, true), (1, true)])));
        assert!(s.insert(cube(&[(2, false), (3, true)])));
        // Wider cube absorbs the first, keeps the second's position.
        assert!(s.insert(cube(&[(0, true)])));
        assert_eq!(
            s.cubes(),
            &[cube(&[(2, false), (3, true)]), cube(&[(0, true)])]
        );
        // Subsumed duplicate region: rejected.
        assert!(!s.insert(cube(&[(0, true), (5, false)])));
        assert!(!s.insert(cube(&[(0, true)])));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn top_absorbs_everything_and_is_terminal() {
        let mut s = CubeIndex::default();
        s.insert(cube(&[(0, true)]));
        s.insert(cube(&[(1, false), (2, true)]));
        assert!(s.insert(Cube::top()));
        assert!(s.has_top());
        assert_eq!(s.cubes(), &[Cube::top()]);
        assert!(!s.insert(Cube::top()));
        assert!(!s.insert(cube(&[(7, true)])));
        assert_eq!(s.cubes(), &[Cube::top()]);
    }

    #[test]
    fn contains_subsuming_is_read_only_forward_check() {
        let mut s = CubeIndex::default();
        s.insert(cube(&[(0, true)]));
        assert!(s.contains_subsuming(&cube(&[(0, true), (1, true)])));
        assert!(!s.contains_subsuming(&cube(&[(1, true)])));
        assert!(!s.contains_subsuming(&Cube::top()));
        s.insert(Cube::top());
        assert!(s.contains_subsuming(&Cube::top()));
    }

    #[test]
    fn counters_track_candidates_and_sig_rejects() {
        let mut s = CubeIndex::default();
        s.insert(cube(&[(0, true), (1, true)]));
        // Shares x0 with the stored cube: visited as a candidate in both
        // directions, dismissed by the signature mask both times.
        s.insert(cube(&[(0, true), (2, false)]));
        // Absorbs both stored cubes after full literal checks.
        s.insert(cube(&[(0, true)]));
        assert_eq!(s.len(), 1);
        let st = s.stats();
        assert!(st.index_candidates >= 3, "{st:?}");
        assert!(st.subsumption_checks >= st.index_candidates, "{st:?}");
        assert!(st.sig_rejects >= 1, "{st:?}");
        assert!(st.sig_rejects < st.subsumption_checks, "{st:?}");
    }

    #[test]
    fn push_disjoint_appends_without_scans() {
        let mut s = CubeIndex::default();
        s.push_disjoint(cube(&[(0, true), (1, true)]));
        s.push_disjoint(cube(&[(0, true), (1, false)]));
        s.push_disjoint(cube(&[(0, false)]));
        assert_eq!(s.len(), 3);
        // The index stays live: a later absorbed insert still works.
        assert!(!s.insert(cube(&[(0, false), (9, true)])));
        assert!(s.insert(Cube::top()));
        assert_eq!(s.cubes(), &[Cube::top()]);
    }

    #[test]
    fn stale_entries_are_pruned_when_the_prefilter_passes_them() {
        // Build cubes that share a variable (so later scans revisit the
        // same lists), absorb some, and keep inserting: the store must
        // stay correct with stale entries in flight.
        let mut s = CubeIndex::default();
        s.insert(cube(&[(0, true), (1, true)]));
        s.insert(cube(&[(0, true), (2, true)]));
        s.insert(cube(&[(0, true)])); // absorbs both
        assert_eq!(s.len(), 1);
        // Rejected by the (possibly stale-laden) watch list of x0.
        assert!(!s.insert(cube(&[(0, true), (1, true)])));
        // Unrelated insert still lands.
        assert!(s.insert(cube(&[(1, false)])));
        assert_eq!(s.len(), 2);
    }
}
