//! SAT-enumerative preimage engines.

use presat_allsat::{
    AllSatEngine, AllSatProblem, BlockingAllSat, ChronoAllSat, EnumLimits, MinimizedBlockingAllSat,
    ParallelAllSat, SignatureMode, SuccessDrivenAllSat, DEFAULT_PAR_THRESHOLD,
};
use presat_circuit::Circuit;
use presat_logic::CubeSet;
use presat_obs::{ObsSink, Timer};

use crate::encoding::{preimage_result, StepEncoding};
use crate::engine::{PreimageEngine, PreimageResult};
use crate::session::SatPreimageSession;
use crate::state_set::StateSet;

/// Which all-solutions engine a [`SatPreimage`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SatEngineKind {
    /// Naive blocking clauses ([`BlockingAllSat`]).
    Blocking,
    /// Lifted blocking clauses ([`MinimizedBlockingAllSat`]).
    MinBlocking,
    /// Blocking-clause-free chronological backtracking ([`ChronoAllSat`]):
    /// the clause database stays flat per fixed-point iteration.
    Chrono,
    /// The paper's solver ([`SuccessDrivenAllSat`]) with the given
    /// signature mode and model guidance.
    SuccessDriven {
        /// Subspace-reuse signature mode.
        signature: SignatureMode,
        /// Model guidance on/off.
        model_guidance: bool,
    },
}

/// SAT-based preimage computation: encode the constrained step relation
/// ([`StepEncoding`]) and enumerate all solutions projected onto the
/// present-state variables.
///
/// The success-driven kind also opens incremental sessions for
/// reachability ([`PreimageEngine::open_session`]). A session inprocesses
/// its clause database when its effort schedule calls for a pass (see
/// [`presat_allsat::IncrementalAllSat::retire`]); that never changes a
/// result, only work counters and the live clause volume.
///
/// # Examples
///
/// ```
/// use presat_circuit::generators;
/// use presat_preimage::{PreimageEngine, SatPreimage, StateSet};
///
/// let c = generators::shift_register(4);
/// // target: serial output latch = 1
/// let t = StateSet::from_partial(&[(3, true)]);
/// let pre = SatPreimage::success_driven().preimage(&c, &t);
/// // preimage: latch 2 = 1 (it shifts into latch 3), 8 states
/// assert_eq!(pre.states.minterm_count(4), 8);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SatPreimage {
    kind: SatEngineKind,
    env: Option<CubeSet>,
    jobs: usize,
    /// Spawn gate of parallel enumerations (see
    /// [`SatPreimage::with_par_threshold`]).
    par_threshold: u64,
}

impl SatPreimage {
    fn with_kind(kind: SatEngineKind) -> Self {
        SatPreimage {
            kind,
            env: None,
            jobs: 1,
            // Unlike the bare engine (which always spawns), preimage steps
            // gate on encoding size: small reachability frontiers lose more
            // to fleet spawn than the fleet wins back.
            par_threshold: DEFAULT_PAR_THRESHOLD,
        }
    }

    /// Preimage via naive blocking clauses.
    pub fn blocking() -> Self {
        Self::with_kind(SatEngineKind::Blocking)
    }

    /// Preimage via lifted blocking clauses.
    pub fn min_blocking() -> Self {
        Self::with_kind(SatEngineKind::MinBlocking)
    }

    /// Preimage via blocking-clause-free chronological backtracking.
    pub fn chrono() -> Self {
        Self::with_kind(SatEngineKind::Chrono)
    }

    /// Preimage via the success-driven solver (full configuration).
    pub fn success_driven() -> Self {
        Self::with_kind(SatEngineKind::SuccessDriven {
            signature: SignatureMode::Dynamic,
            model_guidance: true,
        })
    }

    /// Preimage via an explicitly configured success-driven solver
    /// (ablation studies).
    pub fn success_driven_with(signature: SignatureMode, model_guidance: bool) -> Self {
        Self::with_kind(SatEngineKind::SuccessDriven {
            signature,
            model_guidance,
        })
    }

    /// Restricts the primary inputs to the environment `env` — a union of
    /// cubes over input positions (`Var::new(i)` = input `i`). The
    /// preimage then only counts transitions the environment permits.
    pub fn with_env(mut self, env: CubeSet) -> Self {
        self.env = Some(env);
        self
    }

    /// Sets the worker-thread count for the enumeration (`0` = auto-detect,
    /// `1` = sequential). Only the success-driven kind parallelises; the
    /// blocking baselines are inherently sequential (each blocking clause
    /// depends on the previous model) and ignore the setting. The result is
    /// bit-identical at every thread count.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// The configured worker-thread count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Sets the spawn gate: preimage steps whose `state-vars × clauses`
    /// product falls below `threshold` skip the worker fleet and run
    /// sequentially even when `jobs > 1` (`0` = always parallel). Defaults
    /// to [`presat_allsat::DEFAULT_PAR_THRESHOLD`].
    pub fn with_par_threshold(mut self, threshold: u64) -> Self {
        self.par_threshold = threshold;
        self
    }

    /// The configured engine kind.
    pub fn kind(&self) -> SatEngineKind {
        self.kind
    }
}

impl PreimageEngine for SatPreimage {
    fn name(&self) -> String {
        match self.kind {
            SatEngineKind::Blocking => "sat-blocking".into(),
            SatEngineKind::MinBlocking => "sat-min-blocking".into(),
            SatEngineKind::Chrono => "sat-chrono".into(),
            SatEngineKind::SuccessDriven {
                signature,
                model_guidance,
            } => format!(
                "sat-success-driven[{signature:?}{}{}]",
                if model_guidance { "" } else { ",no-guidance" },
                if self.jobs == 1 {
                    String::new()
                } else {
                    format!(",jobs={}", self.jobs)
                }
            ),
        }
    }

    fn preimage_limited(
        &self,
        circuit: &Circuit,
        target: &StateSet,
        limits: &EnumLimits,
        sink: &mut dyn ObsSink,
    ) -> PreimageResult {
        let timer = Timer::start();
        let enc = StepEncoding::build_with_env(circuit, target, self.env.as_ref());
        let state_vars = enc.state_vars();
        let cones_skipped = enc.cones_skipped();
        let problem = AllSatProblem::new(enc.into_cnf(), state_vars);
        let result = match self.kind {
            SatEngineKind::Blocking => {
                BlockingAllSat::new().enumerate_limited(&problem, limits, sink)
            }
            SatEngineKind::MinBlocking => {
                MinimizedBlockingAllSat::new().enumerate_limited(&problem, limits, sink)
            }
            SatEngineKind::Chrono => ChronoAllSat::new().enumerate_limited(&problem, limits, sink),
            // At one job the fleet runs the sequential engine itself.
            SatEngineKind::SuccessDriven {
                signature,
                model_guidance,
            } => ParallelAllSat::new(self.jobs)
                .with_signature(signature)
                .with_model_guidance(model_guidance)
                .with_par_threshold(self.par_threshold)
                .enumerate_limited(&problem, limits, sink),
        };
        let mut pre = preimage_result(result, &timer, sink);
        pre.stats.cones_skipped = cones_skipped;
        pre
    }

    fn open_session(&self, circuit: &Circuit) -> Option<SatPreimageSession> {
        // Only the success-driven kind has an incremental mode; the
        // blocking baselines mutate their formula per model and gain
        // nothing from a persistent encoding.
        let SatEngineKind::SuccessDriven {
            signature,
            model_guidance,
        } = self.kind
        else {
            return None;
        };
        let config = SuccessDrivenAllSat::new()
            .with_signature(signature)
            .with_model_guidance(model_guidance);
        Some(SatPreimageSession::open(
            circuit,
            config,
            self.jobs,
            self.par_threshold,
            self.env.as_ref(),
            format!("{}+incremental", PreimageEngine::name(self)),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use presat_circuit::generators;

    fn engines() -> Vec<SatPreimage> {
        vec![
            SatPreimage::blocking(),
            SatPreimage::min_blocking(),
            SatPreimage::chrono(),
            SatPreimage::success_driven(),
            SatPreimage::success_driven_with(SignatureMode::Static, true),
            SatPreimage::success_driven_with(SignatureMode::None, false),
        ]
    }

    fn check_all_engines(circuit: &Circuit, target: &StateSet) {
        let n = circuit.num_latches();
        let expect = oracle::preimage(circuit, target);
        for e in engines() {
            let got = e.preimage(circuit, target);
            assert!(
                got.states.semantically_eq(&expect, n),
                "{} diverges on {} (target {target})",
                e.name(),
                circuit.name()
            );
        }
    }

    #[test]
    fn counter_preimages() {
        let c = generators::counter(4, false);
        check_all_engines(&c, &StateSet::from_state_bits(9, 4));
        check_all_engines(&c, &StateSet::from_partial(&[(0, true)]));
    }

    #[test]
    fn lfsr_preimages_are_singletons() {
        let c = generators::lfsr(5);
        let t = StateSet::from_state_bits(13, 5);
        check_all_engines(&c, &t);
        let pre = SatPreimage::success_driven().preimage(&c, &t);
        assert_eq!(pre.states.minterm_count(5), 1, "LFSR step is a bijection");
    }

    #[test]
    fn parity_preimage_counts() {
        let c = generators::parity(4); // 5 latches
        let t = StateSet::from_partial(&[(4, true)]);
        check_all_engines(&c, &t);
        let pre = SatPreimage::success_driven().preimage(&c, &t);
        // odd-parity data states, parity latch free: 8 * 2 = 16
        assert_eq!(pre.states.minterm_count(5), 16);
    }

    #[test]
    fn arbiter_preimages() {
        let c = generators::round_robin_arbiter(2); // 4 latches, 2 inputs
        check_all_engines(&c, &StateSet::from_partial(&[(2, true)]));
        check_all_engines(&c, &StateSet::from_state_bits(0b0101, 4));
    }

    #[test]
    fn comparator_preimages() {
        let c = generators::comparator(3); // 4 latches, 6 inputs
        check_all_engines(&c, &StateSet::from_partial(&[(3, true)]));
    }

    #[test]
    fn s27_preimages() {
        let c = presat_circuit::embedded::s27().unwrap();
        for bits in 0..8u64 {
            check_all_engines(&c, &StateSet::from_state_bits(bits, 3));
        }
    }

    #[test]
    fn coi_reduction_preserves_preimages_and_reports_skips() {
        // Partial targets on both embedded netlists activate the
        // cone-of-influence skip path in every engine; results must still
        // match the oracle, and the skip count must surface in stats.
        let s27 = presat_circuit::embedded::s27().unwrap();
        for j in 0..3 {
            check_all_engines(&s27, &StateSet::from_partial(&[(j, true)]));
            check_all_engines(&s27, &StateSet::from_partial(&[(j, false)]));
        }
        let ctl2 = presat_circuit::embedded::ctl2().unwrap();
        for j in 0..2 {
            check_all_engines(&ctl2, &StateSet::from_partial(&[(j, true)]));
        }
        let pre =
            SatPreimage::success_driven().preimage(&s27, &StateSet::from_partial(&[(0, true)]));
        assert_eq!(pre.stats.cones_skipped, 2, "two of three cones skipped");
    }

    #[test]
    fn random_circuits_fuzz() {
        for seed in 0..6 {
            let c = generators::random_dag(3, 4, 25, seed);
            check_all_engines(&c, &StateSet::from_state_bits(seed % 16, 4));
            check_all_engines(&c, &StateSet::from_partial(&[(1, false)]));
        }
    }

    #[test]
    fn success_driven_beats_blocking_on_parity_memory() {
        let c = generators::parity(8); // many-cube preimage
        let t = StateSet::from_partial(&[(8, true)]);
        let bl = SatPreimage::blocking().preimage(&c, &t);
        let sd = SatPreimage::success_driven().preimage(&c, &t);
        assert!(sd.stats.graph_nodes > 0);
        assert!(
            sd.stats.graph_nodes < bl.stats.blocking_clauses,
            "graph {} !< blocking clauses {}",
            sd.stats.graph_nodes,
            bl.stats.blocking_clauses
        );
    }

    #[test]
    fn empty_target_yields_empty_preimage() {
        let c = generators::counter(3, false);
        let pre = SatPreimage::success_driven().preimage(&c, &StateSet::empty());
        assert!(pre.states.is_empty());
    }

    #[test]
    fn parallel_jobs_match_sequential_preimage_exactly() {
        let circuits = [
            generators::counter(4, false),
            generators::parity(4),
            generators::round_robin_arbiter(2),
        ];
        for c in &circuits {
            let t = StateSet::from_partial(&[(0, true)]);
            let seq = SatPreimage::success_driven().preimage(c, &t);
            for jobs in [2, 4, 7] {
                let par = SatPreimage::success_driven()
                    .with_jobs(jobs)
                    .preimage(c, &t);
                // Same cube list, not just the same state set.
                assert_eq!(
                    par.states.cubes(),
                    seq.states.cubes(),
                    "{} at jobs={jobs}",
                    c.name()
                );
                assert_eq!(par.stats.result_cubes, seq.stats.result_cubes);
                assert_eq!(par.stats.graph_nodes, seq.stats.graph_nodes);
            }
        }
    }

    #[test]
    fn jobs_appear_in_engine_name() {
        assert!(!SatPreimage::success_driven().name().contains("jobs"));
        assert!(SatPreimage::success_driven()
            .with_jobs(4)
            .name()
            .contains("jobs=4"));
    }
}
