//! Regenerates every reconstructed table and figure of `EXPERIMENTS.md`.
//!
//! ```text
//! cargo run --release -p presat-bench --bin tables          # everything
//! cargo run --release -p presat-bench --bin tables -- r2 f1 # a subset
//! cargo run --release -p presat-bench --bin tables -- csv   # raw counters
//! ```
//!
//! Output is Markdown, printed to stdout, one section per experiment id
//! (R1–R4 tables, F1–F4 figure series). Every number comes from the
//! `presat-obs` counters threaded through the engines; the `csv` id dumps
//! the full per-run counter snapshots (`presat_obs::Stats`) as CSV for
//! offline analysis.

use std::time::{Duration, Instant};

use presat_allsat::SignatureMode;
use presat_bench::workloads::{
    self, ablation_workloads, reach_workloads, sat_vs_bdd_workload, scaling_workload, Workload,
};
use presat_circuit::cone;
use presat_obs::Stats;
use presat_preimage::{
    backward_reach, BddPreimage, PreimageEngine, PreimageResult, ReachOptions, SatPreimage,
    StepEncoding,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |id: &str| args.is_empty() || args.iter().any(|a| a.eq_ignore_ascii_case(id));

    if want("r1") {
        table_r1();
    }
    if want("r2") {
        table_r2();
    }
    if want("r3") {
        table_r3();
    }
    if want("r4") {
        table_r4();
    }
    if want("f1") {
        figure_f1();
    }
    if want("f2") {
        figure_f2();
    }
    if want("f3") {
        figure_f3();
    }
    if want("f4") {
        figure_f4();
    }
    if want("e1") {
        table_e1();
    }
    if want("e2") {
        table_e2();
    }
    // The raw CSV dump is opt-in only: it is data, not a Markdown section.
    if args.iter().any(|a| a.eq_ignore_ascii_case("csv")) {
        dump_csv();
    }
}

/// `csv` — one `presat_obs::Stats` row per engine × main-suite workload,
/// the machine-readable companion to tables R2/R3.
fn dump_csv() {
    println!("{}", Stats::csv_header());
    let engines: Vec<(&str, Box<dyn PreimageEngine>)> = vec![
        ("sat-blocking", Box::new(SatPreimage::blocking())),
        ("sat-min-blocking", Box::new(SatPreimage::min_blocking())),
        (
            "sat-success-driven",
            Box::new(SatPreimage::success_driven()),
        ),
        ("bdd-sub", Box::new(BddPreimage::substitution())),
    ];
    for w in workloads::suite() {
        for (name, engine) in &engines {
            let r = engine.preimage(&w.circuit, &w.target);
            let stats = Stats::from_preimage(format!("{name}/{}", w.label), &r.stats);
            println!("{}", stats.to_csv_row());
        }
    }
}

/// E2 (extension) — branching-order sensitivity of the solution graph,
/// the all-SAT analogue of BDD variable-ordering sensitivity.
fn table_e2() {
    use presat_allsat::{
        order_important, AllSatEngine, AllSatProblem, BranchOrder, SuccessDrivenAllSat,
    };
    println!("\n## E2 — branching-order sensitivity (success-driven engine)\n");
    println!("| circuit | order | graph nodes | solver calls | cache hits |");
    println!("|---|---|---:|---:|---:|");
    let picks = ["parity8", "shift12", "cmp6", "arb4"];
    for w in workloads::suite() {
        if !picks.contains(&w.label.as_str()) {
            continue;
        }
        let enc = StepEncoding::build(&w.circuit, &w.target);
        for order in [
            BranchOrder::Natural,
            BranchOrder::Reversed,
            BranchOrder::OccurrenceDescending,
            BranchOrder::Shuffled(2004),
        ] {
            let ordered = order_important(enc.cnf(), &enc.state_vars(), order);
            let problem = AllSatProblem::new(enc.cnf().clone(), ordered);
            let r = SuccessDrivenAllSat::new().enumerate(&problem);
            println!(
                "| {} | {:?} | {} | {} | {} |",
                w.label, order, r.stats.graph_nodes, r.stats.solver_calls, r.stats.cache_hits,
            );
        }
    }
}

/// E1 (extension) — unrolled k-step preimage vs k iterated one-step
/// preimages. Both compute the exact-k-step set; the unrolled instance
/// amortizes the search across frames.
fn table_e1() {
    use presat_preimage::k_step_preimage;
    println!("\n## E1 — unrolled vs iterated k-step preimage\n");
    println!("| circuit | k | states | unrolled ms | iterated ms |");
    println!("|---|---:|---:|---:|---:|");
    let cases = [
        (
            "cnt10",
            presat_circuit::generators::counter(10, false),
            presat_preimage::StateSet::from_state_bits(512, 10),
        ),
        (
            "lfsr10",
            presat_circuit::generators::lfsr(10),
            presat_preimage::StateSet::from_state_bits(37, 10),
        ),
        (
            "arb3",
            presat_circuit::generators::round_robin_arbiter(3),
            presat_preimage::StateSet::from_partial(&[(3, true)]),
        ),
    ];
    for (label, circuit, target) in cases {
        let n = circuit.num_latches();
        for k in [1usize, 2, 4, 8] {
            let t0 = Instant::now();
            let unrolled = k_step_preimage(&circuit, &target, k);
            let t_unrolled = t0.elapsed();

            let t0 = Instant::now();
            let engine = SatPreimage::success_driven();
            let mut layer = target.clone();
            for _ in 0..k {
                layer = engine.preimage(&circuit, &layer).states;
            }
            let t_iterated = t0.elapsed();

            assert_eq!(
                unrolled.states.minterm_count(n),
                layer.minterm_count(n),
                "{label} k={k}: unrolled and iterated disagree"
            );
            println!(
                "| {} | {} | {} | {} | {} |",
                label,
                k,
                unrolled.states.minterm_count(n),
                ms(t_unrolled),
                ms(t_iterated),
            );
        }
    }
}

fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

fn timed(engine: &dyn PreimageEngine, w: &Workload) -> (Duration, PreimageResult) {
    let t0 = Instant::now();
    let r = engine.preimage(&w.circuit, &w.target);
    (t0.elapsed(), r)
}

/// R1 — benchmark characteristics.
fn table_r1() {
    println!("\n## R1 — benchmark characteristics\n");
    println!("| circuit | PI | latches | AND gates | CNF vars | CNF clauses | target cubes |");
    println!("|---|---:|---:|---:|---:|---:|---:|");
    for w in workloads::suite() {
        let enc = StepEncoding::build(&w.circuit, &w.target);
        let roots = w.circuit.next_state_fns();
        let _cone = cone::cone_size(w.circuit.aig(), &roots);
        println!(
            "| {} | {} | {} | {} | {} | {} | {} |",
            w.label,
            w.circuit.num_inputs(),
            w.circuit.num_latches(),
            w.circuit.aig().and_count(),
            enc.cnf().num_vars(),
            enc.cnf().num_clauses(),
            w.target.num_cubes(),
        );
    }
}

/// R2 — single-step preimage across the three SAT engines. The decision
/// and conflict columns come from the CDCL snapshot nested inside each
/// run's counters (`stats.allsat.sat`), not from wall-clock proxies.
fn table_r2() {
    println!("\n## R2 — single-step preimage: SAT engines\n");
    println!(
        "| circuit | solutions | blk time ms | blk cubes | min time ms | min cubes | sd time ms | sd cubes | sd graph | sd decisions | sd conflicts |"
    );
    println!("|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|");
    for w in workloads::suite() {
        let n = w.circuit.num_latches();
        let (t_b, r_b) = timed(&SatPreimage::blocking(), &w);
        let (t_m, r_m) = timed(&SatPreimage::min_blocking(), &w);
        let (t_s, r_s) = timed(&SatPreimage::success_driven(), &w);
        let solutions = r_s.states.minterm_count(n);
        assert_eq!(solutions, r_b.states.minterm_count(n), "{}", w.label);
        assert_eq!(solutions, r_m.states.minterm_count(n), "{}", w.label);
        println!(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            w.label,
            solutions,
            ms(t_b),
            r_b.stats.result_cubes,
            ms(t_m),
            r_m.stats.result_cubes,
            ms(t_s),
            r_s.stats.result_cubes,
            r_s.stats.graph_nodes,
            r_s.stats.allsat.sat.decisions,
            r_s.stats.allsat.sat.conflicts,
        );
    }
}

/// R3 — memory proxy: blocking clauses vs solution-graph nodes.
fn table_r3() {
    println!("\n## R3 — memory proxy and reuse\n");
    println!(
        "| circuit | blk clauses | min clauses | sd graph nodes | sd cache hits | sd solver calls | blk solver calls |"
    );
    println!("|---|---:|---:|---:|---:|---:|---:|");
    for w in workloads::suite() {
        let (_, r_b) = timed(&SatPreimage::blocking(), &w);
        let (_, r_m) = timed(&SatPreimage::min_blocking(), &w);
        let (_, r_s) = timed(&SatPreimage::success_driven(), &w);
        println!(
            "| {} | {} | {} | {} | {} | {} | {} |",
            w.label,
            r_b.stats.blocking_clauses,
            r_m.stats.blocking_clauses,
            r_s.stats.graph_nodes,
            r_s.stats.cache_hits,
            r_s.stats.solver_calls,
            r_b.stats.solver_calls,
        );
    }
}

/// R4 — SAT vs BDD with the comparator crossover.
///
/// The monolithic transition relation must correlate the whole `A` state
/// block with the whole `B` input block across the variable order, so its
/// BDD grows as `4^n`; the sweep caps it at `n = 8` (at `n = 14` it needs
/// >10 GB). The substitution strategy survives longer but still carries
/// > the `2^n` comparator BDD. The SAT engine is untouched by the order.
fn table_r4() {
    println!("\n## R4 — SAT vs BDD (comparator family)\n");
    println!(
        "| n | sd time ms | sd graph | sd conflicts | bdd-sub time ms | bdd-sub nodes | bdd-mono time ms | bdd-mono nodes |"
    );
    println!("|---:|---:|---:|---:|---:|---:|---:|---:|");
    const MONO_CAP: usize = 8;
    for n in [4usize, 6, 8, 10, 12] {
        let w = sat_vs_bdd_workload(n);
        let nl = w.circuit.num_latches();
        let (t_s, r_s) = timed(&SatPreimage::success_driven(), &w);
        let (t_sub, r_sub) = timed(&BddPreimage::substitution(), &w);
        assert_eq!(r_s.states.minterm_count(nl), r_sub.states.minterm_count(nl));
        let mono_cells = if n <= MONO_CAP {
            let (t_mono, r_mono) = timed(&BddPreimage::monolithic(), &w);
            assert_eq!(
                r_s.states.minterm_count(nl),
                r_mono.states.minterm_count(nl)
            );
            format!("{} | {}", ms(t_mono), r_mono.stats.bdd_nodes)
        } else {
            "mem-out | mem-out".to_string()
        };
        println!(
            "| {} | {} | {} | {} | {} | {} | {} |",
            n,
            ms(t_s),
            r_s.stats.graph_nodes,
            r_s.stats.allsat.sat.conflicts,
            ms(t_sub),
            r_sub.stats.bdd_nodes,
            mono_cells,
        );
    }
}

/// F1 — runtime vs number of solutions (scaling curves).
fn figure_f1() {
    println!("\n## F1 — runtime vs #solutions (parity family)\n");
    println!("| n | solutions | blocking ms | min-blocking ms | success-driven ms |");
    println!("|---:|---:|---:|---:|---:|");
    for n in [4usize, 6, 8, 10, 12] {
        let w = scaling_workload(n);
        let nl = w.circuit.num_latches();
        let (t_b, r_b) = timed(&SatPreimage::blocking(), &w);
        let (t_m, _) = timed(&SatPreimage::min_blocking(), &w);
        let (t_s, r_s) = timed(&SatPreimage::success_driven(), &w);
        assert_eq!(r_b.states.minterm_count(nl), r_s.states.minterm_count(nl));
        println!(
            "| {} | {} | {} | {} | {} |",
            n,
            r_s.states.minterm_count(nl),
            ms(t_b),
            ms(t_m),
            ms(t_s),
        );
    }
}

/// F2 — representation size vs number of solutions.
fn figure_f2() {
    println!("\n## F2 — blocking clauses vs solution-graph size (parity family)\n");
    println!("| n | solutions | blocking clauses | min-blocking clauses | graph nodes |");
    println!("|---:|---:|---:|---:|---:|");
    for n in [4usize, 6, 8, 10, 12] {
        let w = scaling_workload(n);
        let nl = w.circuit.num_latches();
        let (_, r_b) = timed(&SatPreimage::blocking(), &w);
        let (_, r_m) = timed(&SatPreimage::min_blocking(), &w);
        let (_, r_s) = timed(&SatPreimage::success_driven(), &w);
        println!(
            "| {} | {} | {} | {} | {} |",
            n,
            r_s.states.minterm_count(nl),
            r_b.stats.blocking_clauses,
            r_m.stats.blocking_clauses,
            r_s.stats.graph_nodes,
        );
    }
}

/// F3 — backward reachability per-iteration series.
fn figure_f3() {
    println!("\n## F3 — backward reachability to fixed point (success-driven engine)\n");
    for w in reach_workloads() {
        let t0 = Instant::now();
        let report = backward_reach(
            &SatPreimage::success_driven(),
            &w.circuit,
            &w.target,
            ReachOptions::default(),
        );
        let total = t0.elapsed();
        println!(
            "\n### {} — {} iterations, {} states, {} total\n",
            w.label,
            report.iterations.len(),
            report.reached_states,
            format_args!("{:.2?}", total),
        );
        println!("| iter | frontier cubes | new states | reached | iter ms |");
        println!("|---:|---:|---:|---:|---:|");
        for row in report.iterations.iter() {
            println!(
                "| {} | {} | {} | {} | {} |",
                row.iteration,
                row.frontier_cubes,
                row.new_states,
                row.reached_states,
                ms(row.elapsed),
            );
        }
    }
}

/// F4 — ablation: each mechanism toggled.
fn figure_f4() {
    println!("\n## F4 — ablation (time ms / solver calls / memory proxy)\n");
    let configs: Vec<(&str, Box<dyn PreimageEngine>)> = vec![
        ("sd full", Box::new(SatPreimage::success_driven())),
        (
            "sd static-sig",
            Box::new(SatPreimage::success_driven_with(
                SignatureMode::Static,
                true,
            )),
        ),
        (
            "sd no-reuse",
            Box::new(SatPreimage::success_driven_with(SignatureMode::None, true)),
        ),
        (
            "sd no-guidance",
            Box::new(SatPreimage::success_driven_with(
                SignatureMode::Dynamic,
                false,
            )),
        ),
        (
            "sd bare",
            Box::new(SatPreimage::success_driven_with(SignatureMode::None, false)),
        ),
        ("min-blocking", Box::new(SatPreimage::min_blocking())),
        ("blocking", Box::new(SatPreimage::blocking())),
    ];
    for w in ablation_workloads() {
        println!("\n### {}\n", w.label);
        println!(
            "| engine | time ms | solver calls | blocking clauses | graph nodes | cache hits |"
        );
        println!("|---|---:|---:|---:|---:|---:|");
        for (name, engine) in &configs {
            let (t, r) = timed(engine.as_ref(), &w);
            println!(
                "| {} | {} | {} | {} | {} | {} |",
                name,
                ms(t),
                r.stats.solver_calls,
                r.stats.blocking_clauses,
                r.stats.graph_nodes,
                r.stats.cache_hits,
            );
        }
    }
}
