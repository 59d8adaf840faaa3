//! Seeded inputs.
//!
//! Every input is a seeded variant of a fixed base: the base circuits,
//! their targets and the base formula pools are part of the benchmark's
//! definition, and the seed only picks an isomorphic copy of each. Fresh
//! random instances per seed swing a workload's total time by 20 to 40 %
//! from seed to seed, wider than any regression bound the suite could
//! hold; isomorphic copies change the inputs but not the work.
//!
//! - A circuit variant renames the primary inputs ([`circuit_variant`]).
//! - A formula variant flips variable polarities, permutes the
//!   projected-away variables and shuffles clause and literal order
//!   ([`cnf_variant`]). The projected variables keep their positions, so
//!   the projection stays "the first `k` variables".

use presat_circuit::{AigNodeId, AigRef, Circuit};
use presat_logic::rng::SplitMix64;
use presat_logic::{Cnf, Lit, Var};
use presat_preimage::StateSet;

/// Seed of the fixed bases (part of the benchmark's definition, not of a
/// run).
const POOL_SEED: u64 = 0x00C0_FFEE_5EED;

/// A cube over latches as `(latch, value)` pairs.
pub type LatchCube = Vec<(usize, bool)>;

/// An independent random stream for one purpose of one run.
pub fn stream(seed: u64, purpose: u64) -> SplitMix64 {
    SplitMix64::seed_from_u64(seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The fixed stream the bases of one purpose are drawn from.
pub fn base_stream(purpose: u64) -> SplitMix64 {
    stream(POOL_SEED, purpose)
}

/// A full state as `(latch, value)` pairs, random except where `forced`
/// fixes it.
pub fn full_cube(rng: &mut SplitMix64, n: usize, forced: &[(usize, bool)]) -> LatchCube {
    let mut bits: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
    for &(j, v) in forced {
        bits[j] = v;
    }
    bits.into_iter().enumerate().collect()
}

/// A cube fixing `k` distinct random latches to random values.
pub fn partial_cube(rng: &mut SplitMix64, n: usize, k: usize) -> LatchCube {
    let mut latches: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut latches);
    latches
        .into_iter()
        .take(k)
        .map(|j| (j, rng.gen_bool(0.5)))
        .collect()
}

/// An isomorphic variant of `base`: its primary inputs renamed by a
/// seeded permutation. Latches keep their names and values, so a target
/// keeps its preimage and backward-reachable set. The engines branch on
/// latch variables; complementing latches as well changed how chrono and
/// success-driven answers split into cubes and moved single calls by up
/// to 25 % from seed to seed.
pub fn circuit_variant(base: &Circuit, rng: &mut SplitMix64) -> Circuit {
    let (ni, nl) = (base.num_inputs(), base.num_latches());
    let mut inputs: Vec<usize> = (0..ni).collect();
    rng.shuffle(&mut inputs);
    let mut c = Circuit::new(ni, nl);
    c.set_name(base.name());
    let leaves: Vec<AigRef> = inputs
        .iter()
        .map(|&i| c.input_ref(i))
        .chain((0..nl).map(|j| c.state_ref(j)))
        .collect();
    let aig = base.aig();
    // Node ids are topological: an AND's fanins precede it.
    let mut map: Vec<AigRef> = Vec::with_capacity(aig.node_count());
    let edge = |map: &[AigRef], r: AigRef| {
        let e = map[r.node().index()];
        if r.is_complemented() {
            !e
        } else {
            e
        }
    };
    for id in 0..aig.node_count() {
        let node = AigNodeId::from_raw_index(id);
        let r = match (aig.leaf_index(node), aig.and_fanins(node)) {
            (Some(k), _) => leaves[k],
            (None, Some((a, b))) => {
                let (a, b) = (edge(&map, a), edge(&map, b));
                c.aig_mut().and(a, b)
            }
            (None, None) => AigRef::FALSE,
        };
        map.push(r);
    }
    for j in 0..nl {
        c.set_latch_next(j, edge(&map, base.latch_next(j)));
        c.set_latch_init(j, base.latch_init(j));
    }
    for (name, f) in base.outputs() {
        c.add_output(name.clone(), edge(&map, *f));
    }
    c
}

/// The target as a `presatd` state spec (`latch=value,...`).
pub fn state_spec(target: &StateSet) -> String {
    let cube = target.cubes().iter().next();
    cube.map(|c| {
        c.lits()
            .iter()
            .map(|l| format!("{}={}", l.var().index(), u8::from(l.is_pos())))
            .collect::<Vec<_>>()
            .join(",")
    })
    .unwrap_or_default()
}

/// A uniform random 3-CNF: `m` clauses over `n` variables, three distinct
/// variables per clause.
pub fn random_3cnf(rng: &mut SplitMix64, n: usize, m: usize) -> Cnf {
    let mut cnf = Cnf::new(n);
    for _ in 0..m {
        let mut clause: Vec<Lit> = Vec::with_capacity(3);
        while clause.len() < 3 {
            let v = Var::new(rng.gen_range(0..n));
            if clause.iter().all(|l| l.var() != v) {
                clause.push(Lit::with_phase(v, rng.gen_bool(0.5)));
            }
        }
        cnf.add_clause(clause);
    }
    cnf
}

/// `count` base formulas of the given shape, the same for every run.
pub fn base_pool(n: usize, m: usize, count: usize) -> Vec<Cnf> {
    let mut rng = base_stream(((n as u64) << 32) ^ (m as u64));
    (0..count).map(|_| random_3cnf(&mut rng, n, m)).collect()
}

/// An isomorphic variant of `base` that keeps variables `0..project` in
/// place (see the module docs). Its projection onto those variables has
/// the same number of models as the base formula's.
pub fn cnf_variant(base: &Cnf, project: usize, rng: &mut SplitMix64) -> Cnf {
    let n = base.num_vars();
    let mut rename: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut rename[project..]);
    let flip: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
    let mut clauses: Vec<Vec<Lit>> = base
        .clauses()
        .iter()
        .map(|c| {
            let mut lits: Vec<Lit> = c
                .iter()
                .map(|l| {
                    let v = l.var().index();
                    Lit::with_phase(Var::new(rename[v]), l.is_pos() != flip[v])
                })
                .collect();
            rng.shuffle(&mut lits);
            lits
        })
        .collect();
    rng.shuffle(&mut clauses);
    let mut cnf = Cnf::new(n);
    for c in clauses {
        cnf.add_clause(c);
    }
    cnf
}

#[cfg(test)]
mod tests {
    use super::*;
    use presat_allsat::{AllSatEngine, AllSatProblem, SuccessDrivenAllSat};
    use presat_circuit::{bench, generators};
    use presat_logic::dimacs;
    use presat_preimage::oracle;

    fn texts(seed: u64) -> Vec<String> {
        let mut rng = stream(seed, 1);
        let mut out: Vec<String> = base_pool(20, 60, 3)
            .iter()
            .map(|b| dimacs::write(&cnf_variant(b, 8, &mut rng)))
            .collect();
        let c = circuit_variant(&generators::random_dag(8, 12, 140, 1), &mut rng);
        out.push(bench::write(&c));
        out
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(texts(5), texts(5));
        assert_ne!(texts(5), texts(6));
        assert_eq!(
            base_pool(20, 60, 2)[1].clauses(),
            base_pool(20, 60, 2)[1].clauses()
        );
    }

    #[test]
    fn variants_keep_the_projected_model_count() {
        let base = &base_pool(16, 40, 1)[0];
        let important: Vec<Var> = Var::range(6).collect();
        let count = |cnf: &Cnf| {
            SuccessDrivenAllSat::new()
                .enumerate(&AllSatProblem::new(cnf.clone(), important.clone()))
                .minterm_count(6)
        };
        let mut rng = stream(9, 2);
        let variant = cnf_variant(base, 6, &mut rng);
        assert_ne!(variant.clauses(), base.clauses());
        // Polarity flips of projected variables mirror the model set, so
        // only the count is invariant.
        assert_eq!(count(&variant), count(base));
    }

    #[test]
    fn circuit_variants_keep_preimages_and_reach() {
        let base = generators::random_dag(4, 6, 40, 3);
        let target = StateSet::from_partial(&partial_cube(&mut base_stream(7), 6, 2));
        let want_pre = oracle::preimage_bits(&base, &target);
        let want_reach = oracle::backward_reachable_bits(&base, &target);
        let texts: Vec<String> = (0..4)
            .map(|seed| {
                let c = circuit_variant(&base, &mut stream(seed, 1));
                assert_eq!((c.num_inputs(), c.num_latches()), (4, 6));
                assert_eq!(oracle::preimage_bits(&c, &target), want_pre, "seed {seed}");
                assert_eq!(oracle::backward_reachable_bits(&c, &target), want_reach);
                bench::write(&c)
            })
            .collect();
        assert!(texts.iter().any(|t| *t != texts[0]), "seeds rename inputs");
    }

    #[test]
    fn specs_name_every_fixed_latch() {
        let mut rng = stream(1, 3);
        let t = StateSet::from_partial(&full_cube(&mut rng, 4, &[(3, true)]));
        let spec = state_spec(&t);
        assert_eq!(spec.split(',').count(), 4);
        assert!(spec.ends_with("3=1"), "{spec}");
        let parsed = presat_preimage::parse_state_spec(&spec, 4).expect("spec parses");
        assert_eq!(parsed, t);
        let partial = StateSet::from_partial(&partial_cube(&mut rng, 6, 2));
        assert_eq!(state_spec(&partial).split(',').count(), 2);
    }
}
