//! The shapes behind EXPERIMENTS.md's blocking claims, checked on the
//! workloads the `tables` binary reports on. Each test pins a shape (a
//! count that follows from the problem), not a run's counters, so a
//! change to the search may move the work but never these.

use presat_bench::workloads::{sat_vs_bdd_workload, scaling_workload, suite};
use presat_preimage::{BddPreimage, PreimageEngine, SatPreimage};

/// R3: plain blocking adds one blocking clause per solution minterm of
/// every suite preimage, minterms counted by the success-driven engine.
#[test]
fn r3_blocking_clauses_equal_the_minterm_count() {
    for w in suite() {
        let n = w.circuit.num_latches();
        let blocking = SatPreimage::blocking().preimage(&w.circuit, &w.target);
        let oracle = SatPreimage::success_driven().preimage(&w.circuit, &w.target);
        let minterms = oracle.states.minterm_count(n);
        assert_eq!(blocking.states.minterm_count(n), minterms, "{}", w.label);
        assert_eq!(
            u128::from(blocking.stats.blocking_clauses),
            minterms,
            "{}: one blocking clause per minterm",
            w.label
        );
    }
}

/// F2: on `parity(n)` the preimage of "parity latch = 1" has `2^n`
/// minterms, so plain blocking adds `2^n` clauses; lifting drops only the
/// parity latch, so min-blocking adds `2^(n-1)`; the solution graph has
/// two nodes per bit plus a terminal.
#[test]
fn f2_parity_family_representation_sizes() {
    for n in [4usize, 6, 8, 10] {
        let w = scaling_workload(n);
        let blocking = SatPreimage::blocking().preimage(&w.circuit, &w.target);
        let lifted = SatPreimage::min_blocking().preimage(&w.circuit, &w.target);
        let graph = SatPreimage::success_driven().preimage(&w.circuit, &w.target);
        assert_eq!(blocking.stats.blocking_clauses, 1 << n, "n = {n}: blocking");
        assert_eq!(
            lifted.stats.blocking_clauses,
            1 << (n - 1),
            "n = {n}: min-blocking"
        );
        assert_eq!(
            graph.stats.graph_nodes,
            2 * n as u64 + 1,
            "n = {n}: graph nodes"
        );
    }
}

/// R4: on `comparator(n)` the preimage of "comparison latch = 1" depends
/// on the `A` block only through whether it is zero, so the success-driven
/// search merges every prefix of one shape and makes a linear number of
/// solver calls into a graph of `n + 2` nodes, while the monolithic BDD
/// grows at least tenfold per two added bits. A key that split prefixes
/// by the shape of their auxiliary chains made `2^n` calls.
#[test]
fn r4_comparator_family_shapes() {
    for n in 4..=16 {
        let w = sat_vs_bdd_workload(n);
        let r = SatPreimage::success_driven().preimage(&w.circuit, &w.target);
        let calls = r.stats.allsat.solver_calls;
        assert!(calls <= 2 * n as u64 + 2, "n = {n}: {calls} solver calls");
        assert_eq!(r.stats.graph_nodes, n as u64 + 2, "n = {n}: graph nodes");
    }
    let mono = |n| {
        let w = sat_vs_bdd_workload(n);
        BddPreimage::monolithic()
            .preimage(&w.circuit, &w.target)
            .stats
            .bdd_nodes
    };
    for n in [4, 6] {
        let (small, large) = (mono(n), mono(n + 2));
        assert!(
            large >= 10 * small,
            "bdd-mono nodes {small} at n = {n}, {large} at n = {}",
            n + 2
        );
    }
}
