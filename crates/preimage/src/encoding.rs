//! CNF encoding of one symbolic step under a target constraint.

use presat_circuit::{cone, Circuit, Tseitin};
use presat_logic::{Cnf, Lit, Var};

use crate::state_set::StateSet;

/// The CNF instance for one preimage step, with its variable layout.
///
/// Layout (fixed across the workspace):
///
/// * CNF variables `0..n` — present-state variables `X` (position `j` =
///   latch `j`); these are the important variables for all-SAT;
/// * CNF variables `n..n+m` — primary inputs `W`;
/// * everything above — Tseitin auxiliaries for the next-state cones and
///   the target-selector variables.
///
/// The target `T(Y)` is imposed directly on the next-state function
/// literals (no explicit `Y` variables are needed): a single-cube target
/// becomes unit clauses, a multi-cube target gets one selector variable per
/// cube plus an at-least-one clause.
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
    /// Present-state latch positions in the structural support of the
    /// *encoded* cones: the only latches whose CNF variables any clause can
    /// mention, hence the only positions a preimage cube can constrain.
    support_latches: Vec<usize>,
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
    pub fn build_with_env(
        circuit: &Circuit,
        target: &StateSet,
        env: Option<&presat_logic::CubeSet>,
    ) -> Self {
        let mut enc = Self::build(circuit, target);
        if let Some(env) = env {
            append_env(
                &mut enc.cnf,
                env,
                circuit.num_latches(),
                circuit.num_inputs(),
            );
        }
        enc
    }

    /// Encodes one step of `circuit` constrained to land in `target`.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is structurally incomplete
    /// ([`Circuit::validate`]) or a target cube mentions a latch position
    /// `≥ num_latches`.
    pub fn build(circuit: &Circuit, target: &StateSet) -> Self {
        circuit.validate().expect("circuit must be complete");
        let n = circuit.num_latches();
        let m = circuit.num_inputs();

        // Leaf variable layout: inputs are leaves 0..m but get CNF vars
        // n..n+m; states are leaves m..m+n and get CNF vars 0..n.
        let mut leaf_vars = Vec::with_capacity(m + n);
        for i in 0..m {
            leaf_vars.push(Var::new(n + i));
        }
        for j in 0..n {
            leaf_vars.push(Var::new(j));
        }
        let base = Cnf::new(n + m);
        let mut enc = Tseitin::with_base_cnf(circuit.aig(), leaf_vars, base);

        // Cone-of-influence reduction: only latches some target cube
        // actually constrains need their next-state cone Tseitin-encoded.
        // An unconstrained cone's clauses would never imply anything about
        // the important (state) variables — its Tseitin auxiliaries hang
        // free — so skipping it leaves the projection onto state variables,
        // and therefore the preimage, unchanged.
        let cubes = target.cubes();
        let mut needed = vec![false; n];
        for cube in cubes {
            for &l in cube.lits() {
                let j = l.var().index();
                assert!(j < n, "target cube mentions latch position {j} ≥ {n}");
                needed[j] = true;
            }
        }
        // Encoded in latch order, exactly as the encode-everything path
        // did, so full-support targets produce an identical CNF.
        let next_lits: Vec<Option<Lit>> = (0..n)
            .map(|j| needed[j].then(|| enc.lit_of(circuit.latch_next(j))))
            .collect();
        let cones_skipped = next_lits.iter().filter(|l| l.is_none()).count() as u64;
        let roots: Vec<_> = (0..n)
            .filter(|&j| needed[j])
            .map(|j| circuit.latch_next(j))
            .collect();
        // Leaf ordinals m..m+n are the latches (0..m are the inputs).
        let support_latches: Vec<usize> = cone::support_many(circuit.aig(), &roots)
            .into_iter()
            .filter_map(|leaf| leaf.checked_sub(m))
            .collect();
        let mut cnf = enc.into_cnf();

        // Impose T over the next-state literals.
        let lit_of = |j: usize| {
            next_lits[j].expect("cone of a target-constrained latch is encoded")
        };
        if cubes.is_empty() {
            cnf.add_clause([]); // empty target: no predecessor exists
        } else if cubes.len() == 1 {
            for &l in cubes.cubes()[0].lits() {
                let j = l.var().index();
                cnf.add_unit(if l.is_pos() { lit_of(j) } else { !lit_of(j) });
            }
        } else {
            // One selector per cube: sel_c → cube_c; ∨ sel_c.
            let mut selectors = Vec::with_capacity(cubes.len());
            for cube in cubes {
                let sel = Lit::pos(cnf.fresh_var());
                for &l in cube.lits() {
                    let j = l.var().index();
                    let yl = if l.is_pos() { lit_of(j) } else { !lit_of(j) };
                    cnf.add_clause([!sel, yl]);
                }
                selectors.push(sel);
            }
            cnf.add_clause(selectors);
        }

        StepEncoding {
            cnf,
            num_latches: n,
            num_inputs: m,
            cones_skipped,
            support_latches,
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

    /// Latch positions in the structural support of the encoded cones —
    /// the only positions any preimage cube can constrain.
    pub fn support_latches(&self) -> &[usize] {
        &self.support_latches
    }
}

/// Appends environment constraints over the input block (`Var::new(n + i)`
/// = input `i`) to `cnf`: unit clauses for a single permitted cube, one
/// selector per cube plus an at-least-one clause otherwise.
fn append_env(cnf: &mut Cnf, env: &presat_logic::CubeSet, n: usize, m: usize) {
    let input_lit = |l: Lit| {
        let i = l.var().index();
        assert!(i < m, "environment cube mentions input position {i} ≥ {m}");
        Lit::with_phase(Var::new(n + i), l.phase())
    };
    if env.is_empty() {
        cnf.add_clause([]); // no permitted input: empty preimage
    } else if env.len() == 1 {
        for &l in env.cubes()[0].lits() {
            cnf.add_unit(input_lit(l));
        }
    } else {
        let mut selectors = Vec::with_capacity(env.len());
        for cube in env {
            let sel = Lit::pos(cnf.fresh_var());
            for &l in cube.lits() {
                cnf.add_clause([!sel, input_lit(l)]);
            }
            selectors.push(sel);
        }
        cnf.add_clause(selectors);
    }
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
    pub fn build(circuit: &Circuit, env: Option<&presat_logic::CubeSet>) -> Self {
        circuit.validate().expect("circuit must be complete");
        let n = circuit.num_latches();
        let m = circuit.num_inputs();
        let mut leaf_vars = Vec::with_capacity(m + n);
        for i in 0..m {
            leaf_vars.push(Var::new(n + i));
        }
        for j in 0..n {
            leaf_vars.push(Var::new(j));
        }
        let base = Cnf::new(n + m);
        let mut enc = Tseitin::with_base_cnf(circuit.aig(), leaf_vars, base);
        let next_lits: Vec<Lit> = (0..n).map(|j| enc.lit_of(circuit.latch_next(j))).collect();
        let mut cnf = enc.into_cnf();
        if let Some(env) = env {
            append_env(&mut cnf, env, n, m);
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
        circuit.validate().expect("circuit must be complete");
        let n = circuit.num_latches();
        let m = circuit.num_inputs();

        // Leaves: inputs → 2n.., states → n.. ; Y block occupies 0..n.
        let mut leaf_vars = Vec::with_capacity(m + n);
        for i in 0..m {
            leaf_vars.push(Var::new(2 * n + i));
        }
        for j in 0..n {
            leaf_vars.push(Var::new(n + j));
        }
        let base = Cnf::new(2 * n + m);
        let mut enc = Tseitin::with_base_cnf(circuit.aig(), leaf_vars, base);
        let next_lits: Vec<Lit> = (0..n).map(|j| enc.lit_of(circuit.latch_next(j))).collect();
        let mut cnf = enc.into_cnf();

        // yj ↔ fj.
        for (j, &fl) in next_lits.iter().enumerate() {
            let yj = Lit::pos(Var::new(j));
            cnf.add_clause([!yj, fl]);
            cnf.add_clause([yj, !fl]);
        }

        // Impose S over the X block.
        let cubes = source.cubes();
        if cubes.is_empty() {
            cnf.add_clause([]);
        } else if cubes.len() == 1 {
            for &l in cubes.cubes()[0].lits() {
                let j = l.var().index();
                assert!(j < n, "source cube mentions latch position {j} ≥ {n}");
                cnf.add_unit(Lit::with_phase(Var::new(n + j), l.phase()));
            }
        } else {
            let mut selectors = Vec::with_capacity(cubes.len());
            for cube in cubes {
                let sel = Lit::pos(cnf.fresh_var());
                for &l in cube.lits() {
                    let j = l.var().index();
                    assert!(j < n, "source cube mentions latch position {j} ≥ {n}");
                    cnf.add_clause([!sel, Lit::with_phase(Var::new(n + j), l.phase())]);
                }
                selectors.push(sel);
            }
            cnf.add_clause(selectors);
        }

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

    #[test]
    fn coi_support_latches_bound_what_clauses_can_mention() {
        // shift register: next(j) = latch j-1 for j>0, next(0) = input —
        // so targeting latch 2 supports exactly latch 1.
        let c = generators::shift_register(6);
        let enc = StepEncoding::build(&c, &StateSet::from_partial(&[(2, true)]));
        assert_eq!(enc.support_latches(), &[1]);
        // No clause mentions a state variable outside the support.
        let n = enc.num_latches();
        for clause in enc.cnf().clauses() {
            for l in clause {
                let v = l.var().index();
                if v < n {
                    assert!(
                        enc.support_latches().contains(&v),
                        "clause mentions unsupported latch {v}"
                    );
                }
            }
        }
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
        assert_eq!(enc.support_latches(), &[0, 2]);
        check_against_simulation(&c, &t);
    }
}
