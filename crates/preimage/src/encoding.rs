//! The preimage layer's CNF encodings and the three decisions every SAT
//! path shares, each made once here:
//!
//! * **Frame layout.** [`frame`] maps one time frame's circuit leaves to
//!   CNF variable blocks (inputs and latches at caller-chosen offsets) and
//!   returns the Tseitin encoder over them; every encoder in the crate
//!   starts there.
//! * **Cube unions.** [`write_cube_union`] writes a union of cubes through
//!   a literal map into a [`Cnf`] or a session's
//!   [`IncrementalAllSat`] ([`ClauseSink`]), optionally guarded by an
//!   activation literal.
//! * **Results.** [`preimage_result`] turns an all-SAT run into a
//!   [`PreimageResult`].

use presat_allsat::{AllSatResult, IncrementalAllSat};
use presat_circuit::{Circuit, Tseitin};
use presat_logic::{Cnf, CubeSet, Lit, Var};
use presat_obs::{Event, ObsSink, Timer};

use crate::engine::{PreimageResult, PreimageStats};
use crate::state_set::StateSet;

/// Maps one frame's AIG leaves to CNF variables — input `i` to
/// `Var::new(inputs + i)`, latch `j` to `Var::new(states + j)` — and
/// returns the Tseitin encoder that extends `cnf` with the frame's cones.
///
/// # Panics
///
/// Panics if the circuit is structurally incomplete
/// ([`Circuit::validate`]).
pub(crate) fn frame(circuit: &Circuit, states: usize, inputs: usize, cnf: Cnf) -> Tseitin<'_> {
    circuit.validate().expect("circuit must be complete");
    // Leaves 0..m are the inputs, m..m+n the latches.
    let leaf_vars = (0..circuit.num_inputs())
        .map(|i| Var::new(inputs + i))
        .chain((0..circuit.num_latches()).map(|j| Var::new(states + j)))
        .collect();
    Tseitin::with_base_cnf(circuit.aig(), leaf_vars, cnf)
}

/// Encodes every next-state cone of one frame (layout as in [`frame`])
/// into `cnf` and ties each to the next frame's state variable
/// `Var::new(next + j)` with two equivalence clauses.
pub(crate) fn tied_frame(
    circuit: &Circuit,
    states: usize,
    inputs: usize,
    next: usize,
    cnf: Cnf,
) -> Cnf {
    let mut enc = frame(circuit, states, inputs, cnf);
    let next_lits: Vec<Lit> = (0..circuit.num_latches())
        .map(|j| enc.lit_of(circuit.latch_next(j)))
        .collect();
    let mut cnf = enc.into_cnf();
    for (j, fl) in next_lits.into_iter().enumerate() {
        let y = Lit::pos(Var::new(next + j));
        cnf.add_clause([!y, fl]);
        cnf.add_clause([y, !fl]);
    }
    cnf
}

/// Encodes the next-state cones of the latches `mask` selects, in latch
/// order, over the step layout (states at `0..n`, inputs at `n..n+m`).
/// Returns the CNF and each latch's next-state literal, `None` where the
/// mask leaves the cone out.
fn step_cones(circuit: &Circuit, mask: &[bool]) -> (Cnf, Vec<Option<Lit>>) {
    let n = circuit.num_latches();
    let mut enc = frame(circuit, 0, n, Cnf::new(n + circuit.num_inputs()));
    let next_lits = (0..n)
        .map(|j| mask[j].then(|| enc.lit_of(circuit.latch_next(j))))
        .collect();
    (enc.into_cnf(), next_lits)
}

/// Where [`write_cube_union`] puts its clauses: a one-shot [`Cnf`] or a
/// session's persistent [`IncrementalAllSat`].
pub(crate) trait ClauseSink {
    /// Allocates a fresh variable.
    fn fresh_var(&mut self) -> Var;
    /// Adds one clause.
    fn add_clause(&mut self, lits: Vec<Lit>);
}

impl ClauseSink for Cnf {
    fn fresh_var(&mut self) -> Var {
        Cnf::fresh_var(self)
    }

    fn add_clause(&mut self, lits: Vec<Lit>) {
        Cnf::add_clause(self, lits);
    }
}

impl ClauseSink for IncrementalAllSat {
    fn fresh_var(&mut self) -> Var {
        self.add_var()
    }

    fn add_clause(&mut self, lits: Vec<Lit>) {
        IncrementalAllSat::add_clause(self, lits);
    }
}

/// Writes the union of `cubes` into `out`, mapping each cube literal to
/// its CNF literal through `map`: no cube gives the empty clause, one
/// cube one unit clause per literal, and more cubes one fresh selector
/// `s` per cube (a clause `¬s ∨ l` per literal) plus one at-least-one
/// clause over the selectors. With a `guard`, `¬guard` leads every
/// clause, so the union constrains only while `guard` is assumed.
pub(crate) fn write_cube_union(
    out: &mut impl ClauseSink,
    cubes: &CubeSet,
    mut map: impl FnMut(Lit) -> Lit,
    guard: Option<Lit>,
) {
    let lead = guard.map(|g| !g);
    let clause = |lits: &[Lit]| lead.into_iter().chain(lits.iter().copied()).collect();
    match cubes.len() {
        0 => out.add_clause(clause(&[])),
        1 => {
            for &l in cubes.cubes()[0].lits() {
                out.add_clause(clause(&[map(l)]));
            }
        }
        _ => {
            let mut at_least_one: Vec<Lit> = lead.into_iter().collect();
            for cube in cubes {
                let sel = Lit::pos(out.fresh_var());
                for &l in cube.lits() {
                    out.add_clause(clause(&[!sel, map(l)]));
                }
                at_least_one.push(sel);
            }
            out.add_clause(at_least_one);
        }
    }
}

/// Builds a one-step [`PreimageResult`] from an all-SAT run started at
/// `timer`, and records the run's [`Event::EngineDone`] to `sink`. The
/// cubes move into the state set; the counters are the run's with its
/// cube store folded in ([`AllSatResult::stats_with_store`]). Callers
/// set only their own fields on top.
pub(crate) fn preimage_result(
    result: AllSatResult,
    timer: &Timer,
    sink: &mut dyn ObsSink,
) -> PreimageResult {
    let allsat = result.stats_with_store();
    let AllSatResult {
        cubes,
        complete,
        stop_reason,
        ..
    } = result;
    let result_cubes = cubes.len() as u64;
    let states = StateSet::from_cubes(cubes);
    let wall_time_ns = timer.elapsed_ns();
    sink.record(&Event::EngineDone { wall_time_ns });
    PreimageResult {
        stats: PreimageStats {
            result_cubes,
            iterations: 1,
            wall_time_ns,
            ..PreimageStats::from_allsat(allsat)
        },
        states,
        elapsed: timer.elapsed(),
        complete,
        stop_reason,
    }
}

/// The CNF instance for one preimage step, with its variable layout.
///
/// Layout (fixed across the workspace):
///
/// * CNF variables `0..n` — present-state variables `X` (position `j` =
///   latch `j`); these are the important variables for all-SAT;
/// * CNF variables `n..n+m` — primary inputs `W`;
/// * everything above — Tseitin auxiliaries for the next-state cones and
///   the selector variables of the target and environment unions.
///
/// The target `T(Y)` is imposed directly on the next-state function
/// literals (no explicit `Y` variables are needed) as a cube union: the
/// empty clause for an empty target, unit clauses for one cube, one
/// selector variable per cube plus an at-least-one clause otherwise.
///
/// # Examples
///
/// ```
/// use presat_circuit::generators;
/// use presat_preimage::{StateSet, StepEncoding};
///
/// let c = generators::counter(3, false);
/// let enc = StepEncoding::build(&c, &StateSet::from_state_bits(0, 3));
/// assert_eq!(enc.state_vars().len(), 3);
/// // present-state variables come first in the layout
/// assert_eq!(enc.state_vars()[0].index(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct StepEncoding {
    cnf: Cnf,
    num_latches: usize,
    num_inputs: usize,
    /// Next-state cones left unencoded because no target cube constrains
    /// their latch (cone-of-influence reduction).
    cones_skipped: u64,
}

impl StepEncoding {
    /// Encodes one step of `circuit` constrained to land in `target`,
    /// additionally restricting the primary inputs to the environment
    /// `env` — a union of cubes over *input positions* (`Var::new(i)` =
    /// input `i`). Pass `None` for a free environment.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is incomplete, a target cube mentions a latch
    /// position out of range, or an environment cube mentions an input
    /// position out of range.
    pub fn build_with_env(circuit: &Circuit, target: &StateSet, env: Option<&CubeSet>) -> Self {
        let n = circuit.num_latches();
        let m = circuit.num_inputs();
        // Cone-of-influence reduction: only latches some target cube
        // actually constrains need their next-state cone Tseitin-encoded.
        // An unconstrained cone's clauses would never imply anything about
        // the important (state) variables — its Tseitin auxiliaries hang
        // free — so skipping it leaves the projection onto state variables,
        // and therefore the preimage, unchanged.
        let mut needed = vec![false; n];
        for cube in target.cubes() {
            for &l in cube.lits() {
                let j = l.var().index();
                assert!(j < n, "target cube mentions latch position {j} ≥ {n}");
                needed[j] = true;
            }
        }
        let (mut cnf, next_lits) = step_cones(circuit, &needed);
        let cones_skipped = next_lits.iter().filter(|l| l.is_none()).count() as u64;
        write_cube_union(
            &mut cnf,
            target.cubes(),
            |l| {
                let f = next_lits[l.var().index()]
                    .expect("cone of a target-constrained latch is encoded");
                if l.is_pos() {
                    f
                } else {
                    !f
                }
            },
            None,
        );
        if let Some(env) = env {
            write_env(&mut cnf, env, n, m);
        }
        StepEncoding {
            cnf,
            num_latches: n,
            num_inputs: m,
            cones_skipped,
        }
    }

    /// Encodes one step of `circuit` constrained to land in `target`.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is structurally incomplete
    /// ([`Circuit::validate`]) or a target cube mentions a latch position
    /// `≥ num_latches`.
    pub fn build(circuit: &Circuit, target: &StateSet) -> Self {
        Self::build_with_env(circuit, target, None)
    }

    /// The encoded CNF.
    pub fn cnf(&self) -> &Cnf {
        &self.cnf
    }

    /// Consumes the encoding, handing the CNF to the caller (the all-SAT
    /// problem takes ownership; no clone on the hot path).
    pub fn into_cnf(self) -> Cnf {
        self.cnf
    }

    /// The present-state CNF variables in latch order (the important set).
    pub fn state_vars(&self) -> Vec<Var> {
        Var::range(self.num_latches).collect()
    }

    /// The primary-input CNF variables in input order.
    pub fn input_vars(&self) -> Vec<Var> {
        (0..self.num_inputs)
            .map(|i| Var::new(self.num_latches + i))
            .collect()
    }

    /// Number of latches of the encoded circuit.
    pub fn num_latches(&self) -> usize {
        self.num_latches
    }

    /// Number of primary inputs of the encoded circuit.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Next-state cones skipped by the cone-of-influence reduction.
    pub fn cones_skipped(&self) -> u64 {
        self.cones_skipped
    }
}

/// Restricts the input block (`Var::new(n + i)` = input `i`) to the
/// environment `env`.
fn write_env(cnf: &mut Cnf, env: &CubeSet, n: usize, m: usize) {
    write_cube_union(
        cnf,
        env,
        |l| {
            let i = l.var().index();
            assert!(i < m, "environment cube mentions input position {i} ≥ {m}");
            Lit::with_phase(Var::new(n + i), l.phase())
        },
        None,
    );
}

/// The *target-free* CNF base for an incremental preimage session: the
/// Tseitin encoding of every next-state cone (plus the optional input
/// environment), built **once** per circuit. Layout is identical to
/// [`StepEncoding`]; what `StepEncoding` imposes as permanent target
/// clauses, the session adds per iteration under a fresh activation
/// literal (see [`crate::SatPreimageSession`]).
///
/// # Examples
///
/// ```
/// use presat_circuit::generators;
/// use presat_preimage::StepBase;
///
/// let c = generators::counter(3, false);
/// let base = StepBase::build(&c, None);
/// assert_eq!(base.next_lits().len(), 3);
/// assert_eq!(base.state_vars()[0].index(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct StepBase {
    cnf: Cnf,
    next_lits: Vec<Lit>,
    num_latches: usize,
    num_inputs: usize,
}

impl StepBase {
    /// Encodes the step relation of `circuit` (all next-state cones, no
    /// target), restricting inputs to `env` when given.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is incomplete or an environment cube mentions
    /// an input position out of range.
    pub fn build(circuit: &Circuit, env: Option<&CubeSet>) -> Self {
        let n = circuit.num_latches();
        let m = circuit.num_inputs();
        let (mut cnf, next_lits) = step_cones(circuit, &vec![true; n]);
        let next_lits = next_lits
            .into_iter()
            .map(|l| l.expect("every cone is encoded"))
            .collect();
        if let Some(env) = env {
            write_env(&mut cnf, env, n, m);
        }
        StepBase {
            cnf,
            next_lits,
            num_latches: n,
            num_inputs: m,
        }
    }

    /// The target-free CNF.
    pub fn cnf(&self) -> &Cnf {
        &self.cnf
    }

    /// Consumes the base, handing over the CNF and the next-state function
    /// literals (in latch order).
    pub fn into_parts(self) -> (Cnf, Vec<Lit>) {
        (self.cnf, self.next_lits)
    }

    /// The next-state function literals, position `j` = latch `j`.
    pub fn next_lits(&self) -> &[Lit] {
        &self.next_lits
    }

    /// The present-state CNF variables in latch order (the important set).
    pub fn state_vars(&self) -> Vec<Var> {
        Var::range(self.num_latches).collect()
    }

    /// Number of latches of the encoded circuit.
    pub fn num_latches(&self) -> usize {
        self.num_latches
    }

    /// Number of primary inputs of the encoded circuit.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }
}

/// The CNF instance for one *forward image* step, with explicit next-state
/// variables.
///
/// Layout: next-state `Y` at CNF variables `0..n` (the important set for
/// image enumeration), present-state `X` at `n..2n`, inputs `W` at
/// `2n..2n+m`, Tseitin auxiliaries above. The source set `S(X)` is imposed
/// on the `X` block, and each `yj` is tied to its next-state cone with
/// equivalence clauses.
///
/// # Examples
///
/// ```
/// use presat_circuit::generators;
/// use presat_preimage::{ImageEncoding, StateSet};
///
/// let c = generators::counter(3, false);
/// let enc = ImageEncoding::build(&c, &StateSet::from_state_bits(5, 3));
/// assert_eq!(enc.next_state_vars().len(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct ImageEncoding {
    cnf: Cnf,
    num_latches: usize,
    num_inputs: usize,
}

impl ImageEncoding {
    /// Encodes one forward step of `circuit` starting from `source`.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is incomplete or a source cube mentions a
    /// latch position `≥ num_latches`.
    pub fn build(circuit: &Circuit, source: &StateSet) -> Self {
        let n = circuit.num_latches();
        let m = circuit.num_inputs();
        // Y block at 0..n, states at n.., inputs at 2n..; yj ↔ fj.
        let mut cnf = tied_frame(circuit, n, 2 * n, 0, Cnf::new(2 * n + m));
        // Impose S over the X block.
        write_cube_union(
            &mut cnf,
            source.cubes(),
            |l| {
                let j = l.var().index();
                assert!(j < n, "source cube mentions latch position {j} ≥ {n}");
                Lit::with_phase(Var::new(n + j), l.phase())
            },
            None,
        );
        ImageEncoding {
            cnf,
            num_latches: n,
            num_inputs: m,
        }
    }

    /// The encoded CNF.
    pub fn cnf(&self) -> &Cnf {
        &self.cnf
    }

    /// Consumes the encoding, handing the CNF to the caller (the all-SAT
    /// problem takes ownership; no clone on the hot path).
    pub fn into_cnf(self) -> Cnf {
        self.cnf
    }

    /// The next-state CNF variables in latch order (the important set).
    pub fn next_state_vars(&self) -> Vec<Var> {
        Var::range(self.num_latches).collect()
    }

    /// The present-state CNF variables in latch order.
    pub fn state_vars(&self) -> Vec<Var> {
        (0..self.num_latches)
            .map(|j| Var::new(self.num_latches + j))
            .collect()
    }

    /// The primary-input CNF variables in input order.
    pub fn input_vars(&self) -> Vec<Var> {
        (0..self.num_inputs)
            .map(|i| Var::new(2 * self.num_latches + i))
            .collect()
    }

    /// Number of latches of the encoded circuit.
    pub fn num_latches(&self) -> usize {
        self.num_latches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presat_circuit::generators;
    use presat_logic::truth_table;

    /// The encoding's projection onto state vars must equal the simulated
    /// preimage.
    fn check_against_simulation(circuit: &Circuit, target: &StateSet) {
        let enc = StepEncoding::build(circuit, target);
        let projected = truth_table::project_models_set(enc.cnf(), &enc.state_vars());
        let n = circuit.num_latches();
        let expect = crate::oracle::preimage_bits(circuit, target);
        for bits in 0..(1u64 << n) {
            let a = presat_logic::Assignment::from_bits(bits, n);
            assert_eq!(
                projected.contains_minterm(&a),
                expect.contains(&bits),
                "state {bits:b} of {}",
                circuit.name()
            );
        }
    }

    #[test]
    fn counter_single_state_target() {
        let c = generators::counter(4, false);
        check_against_simulation(&c, &StateSet::from_state_bits(7, 4));
    }

    #[test]
    fn counter_cube_target() {
        let c = generators::counter(4, true);
        check_against_simulation(&c, &StateSet::from_partial(&[(3, true)]));
    }

    #[test]
    fn multi_cube_target_uses_selectors() {
        let c = generators::shift_register(4);
        let t = StateSet::from_state_bits(3, 4).union(&StateSet::from_state_bits(12, 4));
        let enc = StepEncoding::build(&c, &t);
        // Two selector variables beyond states+inputs+aux: just verify
        // semantics.
        check_against_simulation(&c, &t);
        assert!(enc.cnf().num_vars() > enc.num_latches() + enc.num_inputs());
    }

    #[test]
    fn empty_target_is_unsat() {
        let c = generators::counter(3, false);
        let enc = StepEncoding::build(&c, &StateSet::empty());
        assert!(!truth_table::is_satisfiable(enc.cnf()));
    }

    #[test]
    fn full_target_gives_all_states() {
        let c = generators::lfsr(4);
        check_against_simulation(&c, &StateSet::all());
    }

    #[test]
    fn parity_circuit_target() {
        let c = generators::parity(3);
        // target: parity latch (position 3) = 1
        check_against_simulation(&c, &StateSet::from_partial(&[(3, true)]));
    }

    #[test]
    fn s27_targets() {
        let c = presat_circuit::embedded::s27().unwrap();
        for bits in [0u64, 3, 5] {
            check_against_simulation(&c, &StateSet::from_state_bits(bits, 3));
        }
    }

    #[test]
    fn coi_skips_unconstrained_cones_and_preserves_preimage() {
        // A partial target over one latch of a 6-bit shift register leaves
        // five cones out of the encoding.
        let c = generators::shift_register(6);
        let t = StateSet::from_partial(&[(2, true)]);
        let enc = StepEncoding::build(&c, &t);
        assert_eq!(enc.cones_skipped(), 5);
        check_against_simulation(&c, &t);

        // A full-state target skips nothing.
        let full = StepEncoding::build(&c, &StateSet::from_state_bits(9, 6));
        assert_eq!(full.cones_skipped(), 0);
    }

    /// Latch positions in the structural support of the next-state cones
    /// of the latches `target` constrains, checking that no clause of
    /// `enc` mentions a state variable outside it.
    fn clauses_stay_in_target_support(
        c: &Circuit,
        target: &StateSet,
        enc: &StepEncoding,
    ) -> Vec<usize> {
        let mut latches: Vec<usize> = target
            .cubes()
            .iter()
            .flat_map(|cube| cube.lits().iter().map(|l| l.var().index()))
            .collect();
        latches.sort_unstable();
        latches.dedup();
        let roots: Vec<_> = latches.into_iter().map(|j| c.latch_next(j)).collect();
        // Leaf ordinals m..m+n are the latches (0..m are the inputs).
        let support: Vec<usize> = presat_circuit::cone::support_many(c.aig(), &roots)
            .into_iter()
            .filter_map(|leaf| leaf.checked_sub(c.num_inputs()))
            .collect();
        for clause in enc.cnf().clauses() {
            for l in clause {
                let v = l.var().index();
                if v < enc.num_latches() {
                    assert!(
                        support.contains(&v),
                        "clause mentions unsupported latch {v}"
                    );
                }
            }
        }
        support
    }

    #[test]
    fn coi_target_support_bounds_what_clauses_can_mention() {
        // shift register: next(j) = latch j-1 for j>0, next(0) = input —
        // so targeting latch 2 supports exactly latch 1.
        let c = generators::shift_register(6);
        let t = StateSet::from_partial(&[(2, true)]);
        let enc = StepEncoding::build(&c, &t);
        assert_eq!(clauses_stay_in_target_support(&c, &t, &enc), [1]);
    }

    #[test]
    fn coi_preimages_unchanged_on_every_embedded_family() {
        // Partial targets exercise the skip path on both embedded
        // netlists; the simulation check proves the preimage is intact.
        let s27 = presat_circuit::embedded::s27().unwrap();
        for j in 0..3 {
            let t = StateSet::from_partial(&[(j, true)]);
            let enc = StepEncoding::build(&s27, &t);
            assert_eq!(enc.cones_skipped(), 2);
            check_against_simulation(&s27, &t);
        }
        let ctl2 = presat_circuit::embedded::ctl2().unwrap();
        for j in 0..2 {
            let t = StateSet::from_partial(&[(j, false)]);
            let enc = StepEncoding::build(&ctl2, &t);
            assert_eq!(enc.cones_skipped(), 1);
            check_against_simulation(&ctl2, &t);
        }
    }

    #[test]
    fn coi_multi_cube_targets_union_their_supports() {
        let c = generators::shift_register(5);
        let t = StateSet::from_partial(&[(1, true)]).union(&StateSet::from_partial(&[(3, false)]));
        let enc = StepEncoding::build(&c, &t);
        assert_eq!(enc.cones_skipped(), 3);
        assert_eq!(clauses_stay_in_target_support(&c, &t, &enc), [0, 2]);
        check_against_simulation(&c, &t);
    }
}
