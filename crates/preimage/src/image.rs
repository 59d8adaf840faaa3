//! Forward image computation — the dual of the preimage, provided because
//! forward reachability is the other half of every reachability-based
//! verification flow (and because the paper's all-solutions machinery
//! applies unchanged: only the important-variable set moves from `X` to
//! `Y`).

use std::time::Instant;

use presat_allsat::{AllSatEngine, AllSatProblem, SuccessDrivenAllSat};
use presat_bdd::BddManager;
use presat_circuit::Circuit;
use presat_logic::{CubeSet, Var};
use presat_obs::{NullSink, Timer};
use std::collections::HashMap;

use crate::encoding::{preimage_result, ImageEncoding};
use crate::engine::{PreimageResult, PreimageStats};
use crate::state_set::StateSet;

/// Computes the forward image `Img(S) = {s' : ∃s ∈ S, ∃w . s' = δ(s, w)}`
/// with the success-driven all-solutions engine over the next-state
/// variables.
///
/// # Examples
///
/// ```
/// use presat_circuit::generators;
/// use presat_preimage::{sat_image, StateSet};
///
/// let c = generators::counter(3, false);
/// let img = sat_image(&c, &StateSet::from_state_bits(5, 3));
/// assert!(img.states.contains_bits(6, 3));
/// assert_eq!(img.states.minterm_count(3), 1);
/// ```
pub fn sat_image(circuit: &Circuit, source: &StateSet) -> PreimageResult {
    let timer = Timer::start();
    let enc = ImageEncoding::build(circuit, source);
    let important = enc.next_state_vars();
    let problem = AllSatProblem::new(enc.into_cnf(), important);
    let result = SuccessDrivenAllSat::new().enumerate(&problem);
    preimage_result(result, &timer, &mut NullSink)
}

/// Computes the forward image symbolically: `∃X ∃W . S(X) ∧ TR(X,W,Y)`,
/// with the result renamed from the `Y` block back to latch positions.
///
/// # Examples
///
/// ```
/// use presat_circuit::generators;
/// use presat_preimage::{bdd_image, StateSet};
///
/// let c = generators::lfsr(4);
/// let img = bdd_image(&c, &StateSet::all());
/// // an LFSR step is a bijection: the image of everything is everything
/// assert_eq!(img.states.minterm_count(4), 16);
/// ```
pub fn bdd_image(circuit: &Circuit, source: &StateSet) -> PreimageResult {
    let start = Instant::now();
    circuit.validate().expect("circuit must be complete");
    let n = circuit.num_latches();
    let m = circuit.num_inputs();
    let mut mgr = BddManager::new(2 * n + m);

    // Order: X at 0..n, W at n..n+m, Y at n+m..2n+m (same as BddPreimage).
    let next = crate::bdd_engine::next_state_bdds_for(circuit, &mut mgr);
    let y_var = |j: usize| Var::new(n + m + j);

    let mut tr = presat_bdd::BddId::TRUE;
    for (j, &f) in next.iter().enumerate() {
        let yj = mgr.var(y_var(j));
        let eq = mgr.iff(yj, f);
        tr = mgr.and(tr, eq);
    }
    let s_bdd = {
        let set: CubeSet = source.cubes().iter().cloned().collect();
        mgr.from_cube_set(&set) // cubes already over X positions 0..n
    };
    let mut quant: Vec<Var> = Var::range(n).collect();
    quant.extend((0..m).map(|i| Var::new(n + i)));
    let img_y = mgr.and_exists(tr, s_bdd, &quant);

    // Rename the Y block down to latch positions (order-preserving).
    let map: HashMap<Var, Var> = (0..n).map(|j| (y_var(j), Var::new(j))).collect();
    let img = mgr.rename(img_y, &map);

    let states = StateSet::from_cubes(mgr.to_cube_set(img).iter().cloned().collect::<CubeSet>());
    PreimageResult {
        stats: PreimageStats {
            result_cubes: states.num_cubes() as u64,
            bdd_nodes: mgr.node_count() as u64,
            ..PreimageStats::default()
        },
        states,
        elapsed: start.elapsed(),
        complete: true,
        stop_reason: None,
    }
}

/// Forward reachability from `initial` to the fixed point (the dual of
/// [`crate::backward_reach`]); uses the SAT image engine.
///
/// # Examples
///
/// ```
/// use presat_circuit::generators;
/// use presat_preimage::{forward_reach, StateSet};
///
/// let c = generators::counter(3, false);
/// let reached = forward_reach(&c, &StateSet::from_state_bits(0, 3), None);
/// assert_eq!(reached.minterm_count(3), 8); // the counter visits everything
/// ```
pub fn forward_reach(
    circuit: &Circuit,
    initial: &StateSet,
    max_iterations: Option<usize>,
) -> StateSet {
    let n = circuit.num_latches();
    let position_vars: Vec<Var> = Var::range(n).collect();
    let mut graph = presat_allsat::SolutionGraph::new(n);
    let mut reached = graph.add_cube_set(initial.cubes(), &position_vars);
    let mut frontier = reached;
    let mut iter = 0usize;
    while frontier != presat_allsat::SolutionNodeId::BOTTOM {
        if max_iterations.is_some_and(|cap| iter >= cap) {
            break;
        }
        iter += 1;
        let f_set = StateSet::from_cubes(graph.to_cube_set(frontier, &position_vars));
        let img = sat_image(circuit, &f_set);
        let img_node = graph.add_cube_set(img.states.cubes(), &position_vars);
        frontier = graph.diff(img_node, reached);
        reached = graph.union(reached, frontier);
    }
    StateSet::from_cubes(graph.to_cube_set(reached, &position_vars))
}

/// The sequential depth from `initial`: the number of clock cycles needed
/// before forward reachability stops discovering new states (the longest
/// shortest-path from the initial set — the classic bound for complete
/// bounded model checking).
///
/// # Examples
///
/// ```
/// use presat_circuit::generators;
/// use presat_preimage::{sequential_depth, StateSet};
///
/// let c = generators::shift_register(4);
/// // every state is reachable within 4 shifts
/// assert_eq!(sequential_depth(&c, &StateSet::from_state_bits(0, 4)), 4);
/// ```
pub fn sequential_depth(circuit: &Circuit, initial: &StateSet) -> usize {
    let n = circuit.num_latches();
    let position_vars: Vec<Var> = Var::range(n).collect();
    let mut graph = presat_allsat::SolutionGraph::new(n);
    let mut reached = graph.add_cube_set(initial.cubes(), &position_vars);
    let mut frontier = reached;
    let mut depth = 0usize;
    loop {
        if frontier == presat_allsat::SolutionNodeId::BOTTOM {
            return depth;
        }
        let f_set = StateSet::from_cubes(graph.to_cube_set(frontier, &position_vars));
        let img = sat_image(circuit, &f_set);
        let img_node = graph.add_cube_set(img.states.cubes(), &position_vars);
        frontier = graph.diff(img_node, reached);
        if frontier == presat_allsat::SolutionNodeId::BOTTOM {
            return depth;
        }
        reached = graph.union(reached, frontier);
        depth += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presat_circuit::{generators, sim};
    use std::collections::BTreeSet;

    fn oracle_image(circuit: &Circuit, source: &StateSet) -> BTreeSet<u64> {
        let n = circuit.num_latches();
        sim::enumerate_transitions(circuit)
            .into_iter()
            .filter(|&(s, _, _)| source.contains_bits(s, n))
            .map(|(_, _, next)| next)
            .collect()
    }

    fn check_image(circuit: &Circuit, source: &StateSet) {
        let n = circuit.num_latches();
        let expect = oracle_image(circuit, source);
        for (name, got) in [
            ("sat", sat_image(circuit, source)),
            ("bdd", bdd_image(circuit, source)),
        ] {
            assert_eq!(
                got.states.minterm_count(n),
                expect.len() as u128,
                "{name} image cardinality on {}",
                circuit.name()
            );
            for bits in 0..(1u64 << n) {
                assert_eq!(
                    got.states.contains_bits(bits, n),
                    expect.contains(&bits),
                    "{name} membership of {bits:b} on {}",
                    circuit.name()
                );
            }
        }
    }

    #[test]
    fn counter_image() {
        let c = generators::counter(4, false);
        check_image(&c, &StateSet::from_state_bits(5, 4));
        check_image(&c, &StateSet::from_partial(&[(0, true)]));
    }

    #[test]
    fn shift_image_doubles() {
        let c = generators::shift_register(4);
        check_image(&c, &StateSet::from_state_bits(0b0101, 4));
        let img = sat_image(&c, &StateSet::from_state_bits(0b0101, 4));
        // serial input free: two successors
        assert_eq!(img.states.minterm_count(4), 2);
    }

    #[test]
    fn parity_and_arbiter_images() {
        check_image(
            &generators::parity(3),
            &StateSet::from_partial(&[(3, false)]),
        );
        check_image(
            &generators::round_robin_arbiter(2),
            &StateSet::from_partial(&[(0, true), (1, false)]),
        );
    }

    #[test]
    fn s27_image() {
        let c = presat_circuit::embedded::s27().unwrap();
        for bits in 0..8 {
            check_image(&c, &StateSet::from_state_bits(bits, 3));
        }
    }

    #[test]
    fn forward_reach_counter_visits_all() {
        let c = generators::counter(4, false);
        let r = forward_reach(&c, &StateSet::from_state_bits(3, 4), None);
        assert_eq!(r.minterm_count(4), 16);
    }

    #[test]
    fn forward_reach_respects_cap() {
        let c = generators::counter(4, false);
        let r = forward_reach(&c, &StateSet::from_state_bits(0, 4), Some(3));
        assert_eq!(r.minterm_count(4), 4);
    }

    #[test]
    fn forward_and_backward_reach_are_consistent() {
        // s' ∈ FwdReach(s0) ⇔ s0 ∈ BwdReach({s'}).
        let c = generators::lfsr(4);
        let s0 = 0b0011u64;
        let fwd = forward_reach(&c, &StateSet::from_state_bits(s0, 4), None);
        for target_bits in 0..16u64 {
            let bwd = crate::reach::backward_reach(
                &crate::sat_engine::SatPreimage::success_driven(),
                &c,
                &StateSet::from_state_bits(target_bits, 4),
                crate::reach::ReachOptions::default(),
            );
            assert_eq!(
                fwd.contains_bits(target_bits, 4),
                bwd.reached.contains_bits(s0, 4),
                "duality violated at target {target_bits:b}"
            );
        }
    }

    #[test]
    fn sequential_depth_of_counter_is_full_cycle() {
        let c = generators::counter(4, false);
        // From state 0 the counter needs 15 steps to see every state.
        assert_eq!(sequential_depth(&c, &StateSet::from_state_bits(0, 4)), 15);
    }

    #[test]
    fn sequential_depth_of_johnson_ring() {
        let c = generators::johnson_counter(4);
        // The twisted ring visits 2n = 8 states: depth 7 from the origin.
        assert_eq!(sequential_depth(&c, &StateSet::from_state_bits(0, 4)), 7);
    }

    #[test]
    fn sequential_depth_of_full_initial_set_is_zero() {
        let c = generators::lfsr(4);
        assert_eq!(sequential_depth(&c, &StateSet::all()), 0);
    }

    #[test]
    fn empty_source_empty_image() {
        let c = generators::counter(3, false);
        assert!(sat_image(&c, &StateSet::empty()).states.is_empty());
        assert!(bdd_image(&c, &StateSet::empty()).states.is_empty());
    }
}
