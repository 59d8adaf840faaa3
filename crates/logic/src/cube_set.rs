use std::collections::BTreeSet;
use std::fmt;

use crate::cube_index::{CubeIndex, CubeIndexStats};
use crate::{Assignment, Cube, Var};

/// A set of [`Cube`]s interpreted as their union: a disjunction of product
/// terms (sum-of-products / DNF), the standard explicit representation of a
/// state set.
///
/// Insertion maintains *absorption*: a cube subsumed by an existing cube is
/// not added, and adding a cube removes every cube it subsumes. The set is
/// therefore irredundant with respect to single-cube containment (though not
/// necessarily a minimum cover).
///
/// Inserts are served by an occurrence-indexed subsumption engine (see
/// `cube_index`) that touches only cubes sharing a literal with the incoming
/// one — amortized near-linear set construction instead of the naive O(n²) —
/// while producing exactly the cube sequence the naive two-scan insert
/// would: the order of [`CubeSet::cubes`] is part of the API contract and is
/// pinned against [`crate::NaiveCubeSet`] by the differential suite.
///
/// # Examples
///
/// ```
/// use presat_logic::{Cube, CubeSet, Lit, Var};
/// let mut s = CubeSet::new();
/// let a = Var::new(0);
/// let b = Var::new(1);
/// s.insert(Cube::from_lits([Lit::pos(a), Lit::pos(b)])?);
/// s.insert(Cube::unit(Lit::pos(a)));       // absorbs the first cube
/// assert_eq!(s.len(), 1);
/// assert_eq!(s.minterm_count(2), 2);       // {10, 11}
/// # Ok::<(), presat_logic::CubeFromLitsError>(())
/// ```
#[derive(Clone, Default)]
pub struct CubeSet {
    index: CubeIndex,
}

impl PartialEq for CubeSet {
    fn eq(&self, other: &CubeSet) -> bool {
        // The logical value is the cube sequence; the occurrence indexes
        // and work counters are bookkeeping and may differ between equal
        // sets with different insertion histories.
        self.cubes() == other.cubes()
    }
}

impl Eq for CubeSet {}

impl CubeSet {
    /// The empty set (constant false).
    pub fn new() -> Self {
        CubeSet::default()
    }

    /// The universal set (a single empty cube: constant true).
    pub fn universe() -> Self {
        let mut s = CubeSet::new();
        s.insert(Cube::top());
        s
    }

    /// `true` if no cube is present (the set denotes ∅).
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// `true` if the set contains the empty cube (and hence denotes the
    /// universe).
    pub fn is_universe(&self) -> bool {
        self.index.has_top()
    }

    /// Number of cubes (not minterms).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// The cubes, in insertion-dependent order.
    pub fn cubes(&self) -> &[Cube] {
        self.index.cubes()
    }

    /// Iterates over the cubes.
    pub fn iter(&self) -> std::slice::Iter<'_, Cube> {
        self.index.cubes().iter()
    }

    /// Inserts a cube with absorption. Returns `true` if the set changed.
    pub fn insert(&mut self, cube: Cube) -> bool {
        self.index.insert(cube)
    }

    /// Inserts a cube the caller guarantees no stored cube subsumes: the
    /// stored cubes it subsumes are evicted and it is appended. Under that
    /// precondition the result is identical to [`CubeSet::insert`], but the
    /// forward scan (is the new cube subsumed?) is skipped and only the
    /// backward sweep runs. Returns `true` if a stored cube was evicted.
    /// The precondition is checked in debug builds.
    ///
    /// The minimized-blocking engine inserts its lifted cubes this way:
    /// every stored cube is blocked, so each new model lies outside all of
    /// them and inside its own lifted cube, which no stored cube can
    /// therefore contain.
    pub fn insert_unsubsumed(&mut self, cube: Cube) -> bool {
        self.index.insert_unsubsumed(cube)
    }

    /// Appends a cube the caller guarantees is subsumption-unrelated to
    /// every cube already stored — neither subsumes nor is subsumed by any
    /// of them. Under that precondition the result is identical to
    /// [`CubeSet::insert`], but both absorption scans are skipped, making
    /// bulk construction of pairwise-disjoint collections linear. The
    /// precondition is checked in debug builds.
    ///
    /// Callers: path extraction from a solution graph and from a BDD
    /// (paths are pairwise disjoint), the chrono engine (its absorb rule
    /// keeps its cubes pairwise disjoint) and plain blocking (each cube is
    /// the minterm of a model that no earlier minterm's blocking clause
    /// excluded, so it differs from every stored one).
    pub fn push_disjoint(&mut self, cube: Cube) {
        self.index.push_disjoint(cube);
    }

    /// Snapshot of the subsumption-index work counters accumulated by this
    /// set (checks attempted, signature rejects, candidates visited).
    pub fn index_stats(&self) -> CubeIndexStats {
        self.index.stats()
    }

    /// Set union (with absorption).
    pub fn union(&self, other: &CubeSet) -> CubeSet {
        let mut out = self.clone();
        for c in other.iter() {
            out.insert(c.clone());
        }
        out
    }

    /// Set intersection: pairwise cube conjunction, dropping conflicts.
    pub fn intersection(&self, other: &CubeSet) -> CubeSet {
        let mut out = CubeSet::new();
        for a in self.iter() {
            for b in other.iter() {
                if let Some(c) = a.intersect(b) {
                    out.insert(c);
                }
            }
        }
        out
    }

    /// `true` if the (possibly partial) assignment satisfies some cube.
    pub fn contains_minterm(&self, a: &Assignment) -> bool {
        self.iter().any(|c| c.contains_minterm(a))
    }

    /// `true` if `cube` is entirely contained in this set's union.
    ///
    /// Decided by recursive Shannon splitting, so it is exact even when no
    /// single cube subsumes `cube`. Exponential in the worst case; intended
    /// for the moderate variable counts of test oracles. For wide circuits
    /// use [`CubeSet::covers_cube_limited`], which bounds the work.
    pub fn covers_cube(&self, cube: &Cube, vars: &[Var]) -> bool {
        self.covers_cube_limited(cube, vars, u64::MAX)
            .expect("unlimited budget cannot be exhausted")
    }

    /// [`CubeSet::covers_cube`] under a work budget: at most `budget`
    /// recursion steps are spent, and `None` is returned if the question is
    /// still open when they run out — so oracle checks on wide circuits
    /// degrade to "unknown" instead of hanging a test run.
    pub fn covers_cube_limited(&self, cube: &Cube, vars: &[Var], budget: u64) -> Option<bool> {
        // Quick wins first.
        if self.index.contains_subsuming(cube) {
            return Some(true);
        }
        let relevant: Vec<&Cube> = self.iter().filter(|c| c.intersects(cube)).collect();
        if relevant.is_empty() {
            return Some(false);
        }
        // Only variables some relevant cube actually constrains beyond
        // `cube` can ever be split on; precompute them once instead of
        // rescanning the full universe at every recursion level.
        let split_vars: Vec<Var> = vars
            .iter()
            .copied()
            .filter(|&v| !cube.mentions(v) && relevant.iter().any(|c| c.mentions(v)))
            .collect();
        let mut budget = budget;
        cover_rec(&relevant, cube, &split_vars, &mut budget)
    }

    /// Exact number of minterms over the universe `num_vars` (variables
    /// `x0..x(num_vars-1)`) covered by the union of the cubes.
    ///
    /// Computed by recursive Shannon expansion with cofactoring — worst-case
    /// exponential in `num_vars` but with aggressive short-circuiting
    /// (absorbed branches, universe detection). Universes of up to 128
    /// variables run on precomputed per-cube phase bitmasks, so each
    /// cofactor step is a couple of word operations instead of a literal
    ///-list rebuild; wider universes fall back to the literal-list walk.
    pub fn minterm_count(&self, num_vars: usize) -> u128 {
        if num_vars < 128
            && self
                .iter()
                .all(|c| c.lits().last().is_none_or(|l| l.var().index() < num_vars))
        {
            // Per-var table: bit v of `pos`/`neg` says whether the cube
            // requires xv true/false. Cofactoring is then a filter + AND.
            let masks: Vec<(u128, u128)> = self
                .iter()
                .map(|c| {
                    let mut pos = 0u128;
                    let mut neg = 0u128;
                    for &l in c.lits() {
                        if l.is_pos() {
                            pos |= 1u128 << l.var().index();
                        } else {
                            neg |= 1u128 << l.var().index();
                        }
                    }
                    (pos, neg)
                })
                .collect();
            return count_masks(&masks, num_vars as u32);
        }
        let refs: Vec<&Cube> = self.iter().collect();
        count_rec(&refs, 0, num_vars)
    }

    /// All minterms as total cubes over `vars`, sorted; for test oracles.
    ///
    /// # Panics
    ///
    /// Panics if `vars` has more than 24 variables (oracle-scale guard).
    pub fn enumerate_minterms(&self, vars: &[Var]) -> BTreeSet<Cube> {
        assert!(vars.len() <= 24, "minterm enumeration is oracle-scale only");
        let mut out = BTreeSet::new();
        for c in self.iter() {
            for m in c.expand_minterms(vars) {
                out.insert(m);
            }
        }
        out
    }

    /// `true` if both sets denote the same Boolean function over `vars`.
    pub fn semantically_eq(&self, other: &CubeSet, vars: &[Var]) -> bool {
        self.enumerate_minterms(vars) == other.enumerate_minterms(vars)
    }
}

/// Is `cube` covered by the union of `cover`? Recursive Shannon split on the
/// first splittable variable (one mentioned by some cover cube but not by
/// `cube`). Each call consumes one unit of `budget`; returns `None` when it
/// runs out.
fn cover_rec(cover: &[&Cube], cube: &Cube, vars: &[Var], budget: &mut u64) -> Option<bool> {
    if *budget == 0 {
        return None;
    }
    *budget -= 1;
    if cover.iter().any(|c| c.subsumes(cube)) {
        return Some(true);
    }
    let split = vars
        .iter()
        .copied()
        .find(|&v| !cube.mentions(v) && cover.iter().any(|c| c.mentions(v)));
    let Some(v) = split else {
        // No cover cube constrains anything beyond `cube`, and none subsumes
        // it — so not covered.
        return Some(false);
    };
    for phase in [false, true] {
        let lit = crate::Lit::with_phase(v, phase);
        let sub = cube
            .intersect(&Cube::unit(lit))
            .expect("split variable is unmentioned in cube");
        let reduced: Vec<&Cube> = cover
            .iter()
            .copied()
            .filter(|c| c.intersects(&sub))
            .collect();
        if reduced.is_empty() {
            return Some(false);
        }
        match cover_rec(&reduced, &sub, vars, budget) {
            Some(true) => {}
            other => return other,
        }
    }
    Some(true)
}

/// Minterm count of the union of the mask-encoded `cubes` over a universe
/// with `free` undecided variables — the fast path of
/// [`CubeSet::minterm_count`]. Each cube is its per-var phase table, so a
/// cofactor step is a filter plus an AND instead of a literal-list rebuild.
/// Unlike the index-order fallback this branches on the variable the most
/// surviving cubes constrain and closes ⊤ and single-cube leaves
/// arithmetically — the pruning that keeps 40-cube/32-var oracle sets (a
/// pinned regression) countable in milliseconds.
fn count_masks(cubes: &[(u128, u128)], free: u32) -> u128 {
    if cubes.is_empty() {
        return 0;
    }
    if cubes.iter().any(|&(p, n)| p | n == 0) {
        // A ⊤ cofactor covers every remaining assignment.
        return 1u128 << free;
    }
    if let [(p, n)] = cubes {
        // A lone cube covers 2^(free - width) assignments outright.
        return 1u128 << (free - (p | n).count_ones());
    }
    // Split on the variable mentioned by the most cubes (first such index:
    // deterministic). Every branch then resolves or kills the maximum
    // number of cubes, driving the recursion toward the closed leaves.
    let mut occ = [0u32; 128];
    for &(p, n) in cubes {
        let mut m = p | n;
        while m != 0 {
            occ[m.trailing_zeros() as usize] += 1;
            m &= m - 1;
        }
    }
    let mut v = 0;
    for (i, &c) in occ.iter().enumerate() {
        if c > occ[v] {
            v = i;
        }
    }
    let bit = 1u128 << v;
    // Negative branch drops cubes requiring xv=1; positive branch drops
    // cubes requiring xv=0; the survivor masks just lose the decided bit.
    let lo: Vec<(u128, u128)> = cubes
        .iter()
        .filter(|&&(p, _)| p & bit == 0)
        .map(|&(p, n)| (p, n & !bit))
        .collect();
    let hi: Vec<(u128, u128)> = cubes
        .iter()
        .filter(|&&(_, n)| n & bit == 0)
        .map(|&(p, n)| (p & !bit, n))
        .collect();
    count_masks(&lo, free - 1) + count_masks(&hi, free - 1)
}

/// Minterm count of the union of `cubes` over variables `next..num_vars` —
/// the literal-list fallback for universes too wide for the mask fast path.
fn count_rec(cubes: &[&Cube], next: usize, num_vars: usize) -> u128 {
    if cubes.is_empty() {
        return 0;
    }
    if cubes.iter().any(|c| c.is_empty()) {
        // The ⊤ cube covers everything remaining... but careful: cubes may
        // still mention variables below `next` only if the caller already
        // cofactored them away. An empty cube means all remaining free.
        return 1u128 << (num_vars - next);
    }
    if next >= num_vars {
        // All variables decided; any surviving (non-conflicting) cube covers
        // this single point.
        return 1;
    }
    let v = Var::new(next);
    let mut total = 0u128;
    for phase in [false, true] {
        let lit = crate::Lit::with_phase(v, phase);
        let cof: Vec<Cube> = cubes.iter().filter_map(|c| c.cofactor(lit)).collect();
        let refs: Vec<&Cube> = cof.iter().collect();
        total += count_rec(&refs, next + 1, num_vars);
    }
    total
}

impl FromIterator<Cube> for CubeSet {
    fn from_iter<I: IntoIterator<Item = Cube>>(iter: I) -> Self {
        let mut s = CubeSet::new();
        for c in iter {
            s.insert(c);
        }
        s
    }
}

impl Extend<Cube> for CubeSet {
    fn extend<I: IntoIterator<Item = Cube>>(&mut self, iter: I) {
        for c in iter {
            self.insert(c);
        }
    }
}

impl<'a> IntoIterator for &'a CubeSet {
    type Item = &'a Cube;
    type IntoIter = std::slice::Iter<'a, Cube>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl IntoIterator for CubeSet {
    type Item = Cube;
    type IntoIter = std::vec::IntoIter<Cube>;

    fn into_iter(self) -> Self::IntoIter {
        self.index.into_cubes().into_iter()
    }
}

impl fmt::Debug for CubeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CubeSet{{")?;
        for (i, c) in self.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for CubeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "⊥");
        }
        for (i, c) in self.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "({c})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use crate::Lit;

    fn cube(lits: &[(usize, bool)]) -> Cube {
        Cube::from_lits(lits.iter().map(|&(v, p)| Lit::with_phase(Var::new(v), p))).unwrap()
    }

    #[test]
    fn empty_set_is_false() {
        let s = CubeSet::new();
        assert!(s.is_empty());
        assert_eq!(s.minterm_count(5), 0);
    }

    #[test]
    fn universe_counts_all() {
        let s = CubeSet::universe();
        assert!(s.is_universe());
        assert_eq!(s.minterm_count(4), 16);
    }

    #[test]
    fn insert_absorbs_subsumed() {
        let mut s = CubeSet::new();
        assert!(s.insert(cube(&[(0, true), (1, true)])));
        assert!(s.insert(cube(&[(0, true)]))); // wider cube absorbs
        assert_eq!(s.len(), 1);
        // narrower cube is now a no-op
        assert!(!s.insert(cube(&[(0, true), (1, false)])));
    }

    #[test]
    fn minterm_count_handles_overlap() {
        let mut s = CubeSet::new();
        s.insert(cube(&[(0, true)])); // covers 10,11 over 2 vars → {01,11}? no: x0=1 → {1x}
        s.insert(cube(&[(1, true)])); // x1=1
                                      // union over 2 vars: x0 ∨ x1 → 3 minterms
        assert_eq!(s.minterm_count(2), 3);
    }

    #[test]
    fn minterm_count_matches_enumeration() {
        let vars: Vec<Var> = Var::range(4).collect();
        let mut s = CubeSet::new();
        s.insert(cube(&[(0, true), (2, false)]));
        s.insert(cube(&[(1, false)]));
        s.insert(cube(&[(3, true), (0, false)]));
        assert_eq!(
            s.minterm_count(4),
            s.enumerate_minterms(&vars).len() as u128
        );
    }

    #[test]
    fn minterm_count_mask_and_fallback_paths_agree() {
        // Random sets over 12 vars: the mask fast path must agree with the
        // brute-force enumeration oracle.
        let vars: Vec<Var> = Var::range(12).collect();
        let mut rng = SplitMix64::seed_from_u64(0xC0DE);
        for _ in 0..20 {
            let mut s = CubeSet::new();
            for _ in 0..10 {
                let width = rng.gen_range(1..5);
                let mut lits = Vec::new();
                for _ in 0..width {
                    lits.push(Lit::with_phase(
                        Var::new(rng.gen_range(0..12)),
                        rng.gen_bool(0.5),
                    ));
                }
                if let Ok(c) = Cube::from_lits(lits) {
                    s.insert(c);
                }
            }
            assert_eq!(
                s.minterm_count(12),
                s.enumerate_minterms(&vars).len() as u128
            );
        }
    }

    #[test]
    fn minterm_count_wide_set_finishes_fast() {
        // Regression guard for the satellite requirement: 40 cubes over a
        // 32-variable universe must count without re-walking literal lists
        // per level. Before the per-var mask table this blew up; now it is
        // a sub-second test-suite item.
        let mut rng = SplitMix64::seed_from_u64(0xFEED);
        let mut s = CubeSet::new();
        while s.len() < 40 {
            let width = rng.gen_range(4..9);
            let mut lits = Vec::new();
            for _ in 0..width {
                lits.push(Lit::with_phase(
                    Var::new(rng.gen_range(0..32)),
                    rng.gen_bool(0.5),
                ));
            }
            if let Ok(c) = Cube::from_lits(lits) {
                s.insert(c);
            }
        }
        let count = s.minterm_count(32);
        assert!(count > 0);
        assert!(count < 1u128 << 32);
    }

    #[test]
    fn intersection_distributes() {
        let mut a = CubeSet::new();
        a.insert(cube(&[(0, true)]));
        let mut b = CubeSet::new();
        b.insert(cube(&[(0, false)]));
        b.insert(cube(&[(1, true)]));
        let i = a.intersection(&b);
        // x0 ∧ (¬x0 ∨ x1) = x0 ∧ x1
        assert_eq!(i.minterm_count(2), 1);
    }

    #[test]
    fn covers_cube_multi_cube_cover() {
        let vars: Vec<Var> = Var::range(2).collect();
        let mut s = CubeSet::new();
        s.insert(cube(&[(0, true)]));
        s.insert(cube(&[(0, false)]));
        // neither cube alone subsumes ⊤, but together they cover it
        assert!(s.covers_cube(&Cube::top(), &vars));
        let mut t = CubeSet::new();
        t.insert(cube(&[(0, true)]));
        assert!(!t.covers_cube(&Cube::top(), &vars));
        assert!(t.covers_cube(&cube(&[(0, true), (1, false)]), &vars));
    }

    #[test]
    fn covers_cube_limited_exhausts_gracefully() {
        let vars: Vec<Var> = Var::range(10).collect();
        let mut s = CubeSet::new();
        // A full disjoint cover of the 10-var universe by minterm pairs on
        // x0..x8 forces deep splitting before the answer is known.
        for bits in 0..512u32 {
            let lits: Vec<Lit> = (0..9)
                .map(|i| Lit::with_phase(Var::new(i), bits >> i & 1 == 1))
                .collect();
            s.insert(Cube::from_lits(lits).unwrap());
        }
        // Unlimited: covered.
        assert_eq!(
            s.covers_cube_limited(&Cube::top(), &vars, u64::MAX),
            Some(true)
        );
        // A starved budget must come back unknown, not hang or guess.
        assert_eq!(s.covers_cube_limited(&Cube::top(), &vars, 3), None);
        // And a trivially-false query is cheap regardless of budget.
        let empty = CubeSet::new();
        assert_eq!(
            empty.covers_cube_limited(&Cube::top(), &vars, 1),
            Some(false)
        );
    }

    #[test]
    fn union_and_semantic_equality() {
        let vars: Vec<Var> = Var::range(3).collect();
        let mut a = CubeSet::new();
        a.insert(cube(&[(0, true)]));
        let mut b = CubeSet::new();
        b.insert(cube(&[(0, true), (1, true)]));
        b.insert(cube(&[(0, true), (1, false)]));
        assert!(a.semantically_eq(&b, &vars));
        let u = a.union(&b);
        assert!(u.semantically_eq(&a, &vars));
    }

    #[test]
    fn from_iterator_collects_with_absorption() {
        let s: CubeSet = vec![cube(&[(0, true), (1, true)]), cube(&[(0, true)])]
            .into_iter()
            .collect();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn contains_minterm_any_cube() {
        let mut s = CubeSet::new();
        s.insert(cube(&[(0, true)]));
        s.insert(cube(&[(1, true)]));
        assert!(s.contains_minterm(&Assignment::from_bits(0b10, 2)));
        assert!(!s.contains_minterm(&Assignment::from_bits(0b00, 2)));
    }

    #[test]
    fn equality_ignores_insertion_history() {
        let mut a = CubeSet::new();
        a.insert(cube(&[(0, true), (1, true)]));
        a.insert(cube(&[(0, true)]));
        let mut b = CubeSet::new();
        b.insert(cube(&[(0, true)]));
        assert_eq!(a, b);
        assert_ne!(a.index_stats(), b.index_stats());
    }

    #[test]
    fn push_disjoint_matches_insert_on_disjoint_streams() {
        let mut by_insert = CubeSet::new();
        let mut by_push = CubeSet::new();
        for bits in 0..16u32 {
            let lits: Vec<Lit> = (0..4)
                .map(|i| Lit::with_phase(Var::new(i), bits >> i & 1 == 1))
                .collect();
            let c = Cube::from_lits(lits).unwrap();
            by_insert.insert(c.clone());
            by_push.push_disjoint(c);
        }
        assert_eq!(by_insert.cubes(), by_push.cubes());
        assert_eq!(by_push.minterm_count(4), 16);
    }

    #[test]
    fn index_stats_absorb_is_additive() {
        let mut a = CubeSet::new();
        a.insert(cube(&[(0, true), (1, true)]));
        a.insert(cube(&[(0, true)]));
        let mut total = CubeIndexStats::default();
        total.absorb(&a.index_stats());
        total.absorb(&a.index_stats());
        assert_eq!(
            total.subsumption_checks,
            2 * a.index_stats().subsumption_checks
        );
    }
}
