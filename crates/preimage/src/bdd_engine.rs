//! BDD-based symbolic preimage computation (the classical baseline).

use presat_allsat::EnumLimits;
use presat_bdd::{BddId, BddManager};
use presat_circuit::{AigRef, Circuit};
use presat_logic::{Cube, CubeSet, Lit, Var};
use presat_obs::{Event, ObsSink, Timer};

use crate::engine::{PreimageEngine, PreimageResult, PreimageStats};
use crate::state_set::StateSet;

/// How the BDD engine computes the preimage.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BddStrategy {
    /// Substitute the next-state function BDDs into the target
    /// (`T[yj := fj]`) and existentially quantify the inputs. Usually the
    /// stronger variant.
    #[default]
    Substitution,
    /// Build the monolithic transition relation `∏j (yj ↔ fj)` and compute
    /// `∃Y ∃W (TR ∧ T)` with one relational product. The variant whose
    /// intermediate BDDs blow up on comparator-like logic — the classic
    /// weakness the SAT engines exploit.
    Monolithic,
}

/// Symbolic preimage computation with ROBDDs.
///
/// Variable order (block layout, fixed): present-state `X` at levels
/// `0..n`, inputs `W` at `n..n+m`, next-state `Y` at `n+m..n+m+n`. The
/// result is produced over the `X` block, whose level `j` *is* latch
/// position `j`, so conversion to [`StateSet`] is direct.
///
/// # Examples
///
/// ```
/// use presat_circuit::generators;
/// use presat_preimage::{BddPreimage, PreimageEngine, StateSet};
///
/// let c = generators::counter(4, false);
/// let pre = BddPreimage::substitution().preimage(&c, &StateSet::from_state_bits(9, 4));
/// assert!(pre.states.contains_bits(8, 4));
/// assert_eq!(pre.states.minterm_count(4), 1);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct BddPreimage {
    strategy: BddStrategy,
    env: Option<CubeSet>,
}

impl BddPreimage {
    /// The substitution-based engine.
    pub fn substitution() -> Self {
        BddPreimage {
            strategy: BddStrategy::Substitution,
            env: None,
        }
    }

    /// The monolithic-transition-relation engine.
    pub fn monolithic() -> Self {
        BddPreimage {
            strategy: BddStrategy::Monolithic,
            env: None,
        }
    }

    /// Restricts the primary inputs to the environment `env` — a union of
    /// cubes over input positions (`Var::new(i)` = input `i`), mirroring
    /// [`crate::SatPreimage::with_env`].
    pub fn with_env(mut self, env: CubeSet) -> Self {
        self.env = Some(env);
        self
    }

    /// The configured strategy.
    pub fn strategy(&self) -> BddStrategy {
        self.strategy
    }

    /// Builds the BDDs of all next-state functions over the `X`/`W`
    /// blocks, exploiting the topological order of the AIG arena.
    fn next_state_bdds(circuit: &Circuit, m: &mut BddManager) -> Vec<BddId> {
        next_state_bdds_for(circuit, m)
    }
}

/// Shared with the forward-image engine: next-state function BDDs over the
/// workspace's block order (`X` at `0..n`, `W` at `n..n+m`).
pub(crate) fn next_state_bdds_for(circuit: &Circuit, m: &mut BddManager) -> Vec<BddId> {
    let n = circuit.num_latches();
    let num_in = circuit.num_inputs();
    let aig = circuit.aig();

    // Evaluate every arena node once (arena order is topological).
    let mut values: Vec<BddId> = Vec::with_capacity(aig.node_count());
    for idx in 0..aig.node_count() {
        let node = presat_circuit::AigNodeId::from_raw_index(idx);
        let v = if aig.is_const_node(node) {
            BddId::FALSE
        } else if let Some(leaf) = aig.leaf_index(node) {
            if leaf < num_in {
                m.var(Var::new(n + leaf)) // input leaf → W block
            } else {
                m.var(Var::new(leaf - num_in)) // state leaf → X block
            }
        } else {
            let (a, b) = aig.and_fanins(node).expect("non-leaf is AND");
            let av = edge_value(m, &values, a);
            let bv = edge_value(m, &values, b);
            m.and(av, bv)
        };
        values.push(v);
    }
    (0..n)
        .map(|j| edge_value(m, &values, circuit.latch_next(j)))
        .collect()
}

fn edge_value(m: &mut BddManager, values: &[BddId], r: AigRef) -> BddId {
    let v = values[r.node().index()];
    if r.is_complemented() {
        m.not(v)
    } else {
        v
    }
}

impl PreimageEngine for BddPreimage {
    fn name(&self) -> String {
        match self.strategy {
            BddStrategy::Substitution => "bdd-sub".into(),
            BddStrategy::Monolithic => "bdd-mono".into(),
        }
    }

    // The BDD engine has no anytime mode: it runs to completion whatever
    // the limits, and `ReachDriver` enforces deadlines and cancellation
    // between its steps.
    fn preimage_limited(
        &self,
        circuit: &Circuit,
        target: &StateSet,
        _limits: &EnumLimits,
        sink: &mut dyn ObsSink,
    ) -> PreimageResult {
        let timer = Timer::start();
        circuit.validate().expect("circuit must be complete");
        let n = circuit.num_latches();
        let num_in = circuit.num_inputs();
        let mut m = BddManager::new(2 * n + num_in);

        let next = BddPreimage::next_state_bdds(circuit, &mut m);
        let input_vars: Vec<Var> = (0..num_in).map(|i| Var::new(n + i)).collect();
        let y_var = |j: usize| Var::new(n + num_in + j);

        // Target over the Y block.
        let target_y: CubeSet = target
            .cubes()
            .iter()
            .map(|c| {
                Cube::from_lits(
                    c.lits()
                        .iter()
                        .map(|l| Lit::with_phase(y_var(l.var().index()), l.phase())),
                )
                .expect("distinct positions stay distinct")
            })
            .collect();
        let t_bdd = m.from_cube_set(&target_y);

        // Environment constraint over the W block, if any.
        let env_bdd = self.env.as_ref().map(|env| {
            let shifted: CubeSet = env
                .iter()
                .map(|c| {
                    Cube::from_lits(c.lits().iter().map(|l| {
                        let i = l.var().index();
                        assert!(
                            i < num_in,
                            "environment cube mentions input position {i} ≥ {num_in}"
                        );
                        Lit::with_phase(Var::new(n + i), l.phase())
                    }))
                    .expect("distinct positions stay distinct")
                })
                .collect();
            m.from_cube_set(&shifted)
        });

        let result = match self.strategy {
            BddStrategy::Substitution => {
                // T[yj := fj] then ∃W.
                let mut acc = t_bdd;
                for (j, &f) in next.iter().enumerate() {
                    acc = m.compose(acc, y_var(j), f);
                }
                if let Some(env) = env_bdd {
                    acc = m.and(acc, env);
                }
                m.exists(acc, &input_vars)
            }
            BddStrategy::Monolithic => {
                let mut tr = BddId::TRUE;
                for (j, &f) in next.iter().enumerate() {
                    let yj = m.var(y_var(j));
                    let eq = m.iff(yj, f);
                    tr = m.and(tr, eq);
                }
                if let Some(env) = env_bdd {
                    tr = m.and(tr, env);
                }
                let mut quant: Vec<Var> = (0..n).map(y_var).collect();
                quant.extend(input_vars.iter().copied());
                m.and_exists(tr, t_bdd, &quant)
            }
        };

        // Result is over the X block: level j = latch position j.
        let states = StateSet::from_cubes(m.to_cube_set(result));
        let wall_time_ns = timer.elapsed_ns();
        sink.record(&Event::EngineDone { wall_time_ns });
        PreimageResult {
            stats: PreimageStats {
                result_cubes: states.num_cubes() as u64,
                bdd_nodes: m.node_count() as u64,
                iterations: 1,
                wall_time_ns,
                ..PreimageStats::default()
            },
            states,
            elapsed: timer.elapsed(),
            complete: true,
            stop_reason: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use presat_circuit::generators;

    fn check_both(circuit: &Circuit, target: &StateSet) {
        let n = circuit.num_latches();
        let expect = oracle::preimage(circuit, target);
        for e in [BddPreimage::substitution(), BddPreimage::monolithic()] {
            let got = e.preimage(circuit, target);
            assert!(
                got.states.semantically_eq(&expect, n),
                "{} diverges on {}",
                e.name(),
                circuit.name()
            );
        }
    }

    #[test]
    fn counter_preimage() {
        let c = generators::counter(4, false);
        check_both(&c, &StateSet::from_state_bits(9, 4));
    }

    #[test]
    fn counter_with_enable_cube_target() {
        let c = generators::counter(3, true);
        check_both(&c, &StateSet::from_partial(&[(2, true)]));
    }

    #[test]
    fn shift_and_lfsr() {
        check_both(
            &generators::shift_register(5),
            &StateSet::from_partial(&[(4, true)]),
        );
        check_both(&generators::lfsr(5), &StateSet::from_state_bits(19, 5));
    }

    #[test]
    fn parity_circuit() {
        let c = generators::parity(4);
        check_both(&c, &StateSet::from_partial(&[(4, true)]));
    }

    #[test]
    fn multi_cube_target() {
        let c = generators::shift_register(4);
        let t = StateSet::from_state_bits(3, 4).union(&StateSet::from_state_bits(12, 4));
        check_both(&c, &t);
    }

    #[test]
    fn comparator_strategies_agree() {
        let c = generators::comparator(3);
        check_both(&c, &StateSet::from_partial(&[(3, true)]));
    }

    #[test]
    fn s27_all_singleton_targets() {
        let c = presat_circuit::embedded::s27().unwrap();
        for bits in 0..8u64 {
            check_both(&c, &StateSet::from_state_bits(bits, 3));
        }
    }

    #[test]
    fn random_circuits_fuzz() {
        for seed in 0..5 {
            let c = generators::random_dag(3, 4, 20, seed);
            check_both(&c, &StateSet::from_state_bits((seed * 3) % 16, 4));
        }
    }

    #[test]
    fn empty_target() {
        let c = generators::counter(3, false);
        let pre = BddPreimage::substitution().preimage(&c, &StateSet::empty());
        assert!(pre.states.is_empty());
    }

    #[test]
    fn agrees_with_sat_engines() {
        use crate::sat_engine::SatPreimage;
        let c = generators::round_robin_arbiter(2);
        let t = StateSet::from_partial(&[(2, true), (3, false)]);
        let bdd = BddPreimage::substitution().preimage(&c, &t);
        let sat = SatPreimage::success_driven().preimage(&c, &t);
        assert!(bdd.states.semantically_eq(&sat.states, c.num_latches()));
    }
}
