//! Differential suite pinning the occurrence-indexed cube store against
//! the retained naive reference implementation.
//!
//! The indexed [`CubeSet`] is *defined* to produce exactly the cube
//! sequence the naive two-scan insert produces — that bit-identity is what
//! keeps the parallel-merge and sliced-daemon determinism guarantees
//! intact — so every case here asserts sequence equality (order included),
//! not just set equality. `CubeSet::insert_unsubsumed`, which skips the
//! forward scan, is pinned against `insert` the same way. All streams are
//! seeded [`SplitMix64`]; a failure message carries the seed and
//! parameters needed to replay it.

use std::ops::RangeInclusive;

use presat::logic::rng::SplitMix64;
use presat::logic::{Cube, CubeSet, Lit, NaiveCubeSet, Var};

/// One random cube: a width drawn from `widths`, then that many literals
/// drawn over `nv` variables (variable collisions resolved by
/// `from_lits`' dedup; contradictions retried).
fn random_cube(rng: &mut SplitMix64, nv: usize, widths: RangeInclusive<usize>) -> Cube {
    loop {
        let width = rng.gen_range(*widths.start()..*widths.end() + 1);
        let lits: Vec<Lit> = (0..width)
            .map(|_| Lit::with_phase(Var::new(rng.gen_range(0..nv)), rng.gen_bool(0.5)))
            .collect();
        if let Ok(c) = Cube::from_lits(lits) {
            return c;
        }
    }
}

/// Streams longer than this compare the cube sequences only at the end;
/// comparing after every insert would make them quadratic.
const STEPWISE_MAX_INSERTS: usize = 1_000;

/// Feeds the same stream to both stores and asserts identical insert
/// verdicts after every single insert, and identical cube sequences after
/// every insert (short streams) or at the end (long ones).
fn assert_differential(seed: u64, nv: usize, widths: RangeInclusive<usize>, inserts: usize) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut naive = NaiveCubeSet::new();
    let mut indexed = CubeSet::new();
    for step in 0..inserts {
        let c = random_cube(&mut rng, nv, widths.clone());
        let a = naive.insert(c.clone());
        let b = indexed.insert(c.clone());
        assert_eq!(
            a, b,
            "insert verdict diverged at step {step} (seed {seed}, nv {nv}, \
             widths {widths:?}) on cube {c}"
        );
        if inserts <= STEPWISE_MAX_INSERTS {
            assert_eq!(
                naive.cubes(),
                indexed.cubes(),
                "cube sequence diverged at step {step} (seed {seed}, nv {nv}, \
                 widths {widths:?})"
            );
        }
    }
    assert_eq!(
        naive.cubes(),
        indexed.cubes(),
        "cube sequence diverged after {inserts} inserts (seed {seed}, nv {nv}, \
         widths {widths:?})"
    );
}

#[test]
fn random_streams_match_naive_bit_for_bit() {
    // Varying width/density: narrow cubes over few variables absorb
    // heavily; wide cubes over many variables almost never collide. Both
    // regimes — and the transition — must match the reference exactly.
    for (seed, nv, widths, inserts) in [
        (0x1001, 4, 1..=2, 200),    // dense: constant absorption traffic
        (0x1002, 8, 1..=3, 300),    // medium density
        (0x1003, 16, 1..=5, 300),   // mixed
        (0x1004, 32, 1..=4, 300),   // wide universe, wide prefilter spread
        (0x1005, 64, 1..=8, 200),   // sparse: mostly disjoint cubes
        (0x1006, 100, 1..=12, 200), // signature aliasing (vars 64.. fold onto 0..)
        (0x1007, 6, 1..=1, 150),    // unit cubes only
        // The two long streams of the R12 scaling sweep: sparse growth,
        // where almost every insert survives, and dense absorption.
        (0x5105 + 10_000, 64, 3..=10, 10_000),
        (0xDE45, 12, 1..=3, 10_000),
    ] {
        assert_differential(seed, nv, widths, inserts);
    }
}

#[test]
fn interleaved_unions_match_naive() {
    // Union goes through the same insert path; pin a merge of two
    // independently grown sets against naive insertion of the
    // concatenated streams.
    let mut rng = SplitMix64::seed_from_u64(0xA11A);
    let mut left = CubeSet::new();
    let mut right = CubeSet::new();
    let mut naive = NaiveCubeSet::new();
    let mut stream = Vec::new();
    for _ in 0..150 {
        let c = random_cube(&mut rng, 10, 1..=4);
        left.insert(c.clone());
        stream.push(c);
    }
    for _ in 0..150 {
        let c = random_cube(&mut rng, 10, 1..=4);
        right.insert(c.clone());
        stream.push(c);
    }
    // Naive replay: left's surviving cubes in order, then right's.
    for c in left.iter().chain(right.iter()) {
        naive.insert(c.clone());
    }
    let merged = left.union(&right);
    assert_eq!(naive.cubes(), merged.cubes());
    // And the merge is semantically the union of the raw stream.
    let direct: CubeSet = stream.into_iter().collect();
    let vars: Vec<Var> = Var::range(10).collect();
    assert!(merged.semantically_eq(&direct, &vars));
}

#[test]
fn duplicate_insert_is_rejected_identically() {
    let mut naive = NaiveCubeSet::new();
    let mut indexed = CubeSet::new();
    let c = Cube::from_lits([Lit::pos(Var::new(0)), Lit::neg(Var::new(3))]).unwrap();
    assert!(naive.insert(c.clone()) && indexed.insert(c.clone()));
    assert!(!naive.insert(c.clone()) && !indexed.insert(c.clone()));
    assert_eq!(naive.cubes(), indexed.cubes());
    assert_eq!(indexed.len(), 1);
}

#[test]
fn universe_cube_absorbs_everything_in_both_stores() {
    let mut rng = SplitMix64::seed_from_u64(0xD00D);
    let mut naive = NaiveCubeSet::new();
    let mut indexed = CubeSet::new();
    for _ in 0..50 {
        let c = random_cube(&mut rng, 12, 1..=4);
        naive.insert(c.clone());
        indexed.insert(c);
    }
    // ⊤ wipes the set down to itself…
    assert!(naive.insert(Cube::top()));
    assert!(indexed.insert(Cube::top()));
    assert_eq!(naive.cubes(), indexed.cubes());
    assert_eq!(indexed.cubes(), &[Cube::top()]);
    assert!(indexed.is_universe());
    // …and everything after it is rejected.
    assert!(!naive.insert(Cube::top()));
    assert!(!indexed.insert(Cube::top()));
    let c = random_cube(&mut rng, 12, 1..=4);
    assert!(!naive.insert(c.clone()));
    assert!(!indexed.insert(c));
    assert_eq!(naive.cubes(), indexed.cubes());
}

#[test]
fn empty_set_and_first_insert_edge_cases() {
    let mut indexed = CubeSet::new();
    assert!(indexed.is_empty());
    assert!(!indexed.is_universe());
    // First insert into an empty store takes the no-candidate fast path.
    assert!(indexed.insert(Cube::unit(Lit::pos(Var::new(7)))));
    assert_eq!(indexed.len(), 1);
    // ⊤ as the very first insert is the universe, in one cube.
    let mut top_first = CubeSet::new();
    assert!(top_first.insert(Cube::top()));
    assert!(top_first.is_universe());
    assert_eq!(top_first.len(), 1);
}

#[test]
fn absorption_keeps_survivor_order_across_removals() {
    // Hand-built absorption chain: the wide cube kills cubes 0 and 2 but
    // not 1 and 3; the survivors must keep their relative order and the
    // newcomer must land at the back — in both stores.
    let cube = |lits: &[(usize, bool)]| {
        Cube::from_lits(lits.iter().map(|&(v, p)| Lit::with_phase(Var::new(v), p))).unwrap()
    };
    let stream = [
        cube(&[(0, true), (1, true)]),
        cube(&[(2, false), (3, true)]),
        cube(&[(0, true), (1, false)]),
        cube(&[(4, true), (5, false)]),
        cube(&[(0, true)]), // absorbs #0 and #2
    ];
    let mut naive = NaiveCubeSet::new();
    let mut indexed = CubeSet::new();
    for c in &stream {
        naive.insert(c.clone());
        indexed.insert(c.clone());
    }
    assert_eq!(naive.cubes(), indexed.cubes());
    assert_eq!(
        indexed.cubes(),
        &[
            cube(&[(2, false), (3, true)]),
            cube(&[(4, true), (5, false)]),
            cube(&[(0, true)]),
        ]
    );
}

#[test]
fn index_counters_accumulate_under_load() {
    let mut rng = SplitMix64::seed_from_u64(0xBEEF);
    let mut indexed = CubeSet::new();
    for _ in 0..400 {
        indexed.insert(random_cube(&mut rng, 10, 1..=4));
    }
    let st = indexed.index_stats();
    assert!(st.subsumption_checks > 0);
    assert!(st.index_candidates > 0);
    assert!(st.sig_rejects <= st.subsumption_checks);
    // The whole point of the index: far fewer candidates than the n² the
    // naive scans would have visited (400 inserts × up to ~2·n cubes).
    let naive_worst = 400u64 * 400 * 2;
    assert!(
        st.index_candidates < naive_worst / 4,
        "index visited {} candidates, naive bound {naive_worst}",
        st.index_candidates
    );
}

#[test]
fn insert_unsubsumed_matches_insert_on_unsubsumed_cubes() {
    // The minimized-blocking engine inserts only cubes that no stored cube
    // subsumes, through `insert_unsubsumed`, which skips the forward scan.
    // Feed both inserts exactly those cubes of each stream: the cube lists
    // must stay identical, order included, and the verdict must say
    // whether a stored cube was evicted.
    for (seed, nv, widths, inserts) in [
        (0x2001, 10, 1..=4, 300), // dense: constant absorption
        (0x2002, 12, 2..=5, 500),
        (0x2003, 16, 2..=6, 1_000),
        (0x2004, 40, 1..=8, 1_000), // codes fold onto the same bits
        (0x2005, 64, 3..=10, 2_000),
    ] {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut by_insert = CubeSet::new();
        let mut by_unsubsumed = CubeSet::new();
        let mut fed = 0;
        let mut evictions = 0;
        for step in 0..inserts {
            let c = random_cube(&mut rng, nv, widths.clone());
            if by_insert.iter().any(|stored| stored.subsumes(&c)) {
                continue;
            }
            fed += 1;
            let before = by_insert.len();
            assert!(by_insert.insert(c.clone()));
            let evicted = by_unsubsumed.insert_unsubsumed(c.clone());
            evictions += usize::from(evicted);
            assert_eq!(
                evicted,
                by_insert.len() <= before,
                "eviction verdict at step {step} (seed {seed:#x}) on cube {c}"
            );
            assert_eq!(
                by_insert.cubes(),
                by_unsubsumed.cubes(),
                "cube lists diverged at step {step} (seed {seed:#x}, nv {nv}, \
                 widths {widths:?})"
            );
        }
        assert!(fed >= 20, "seed {seed:#x}: only {fed} cubes fed");
        assert!(evictions > 0, "seed {seed:#x}: no cube was evicted");
        // ⊤ absorbs every stored cube.
        assert!(by_insert.insert(Cube::top()));
        assert!(by_unsubsumed.insert_unsubsumed(Cube::top()));
        assert_eq!(by_insert.cubes(), by_unsubsumed.cubes());
        assert!(by_unsubsumed.is_universe());
    }
}
