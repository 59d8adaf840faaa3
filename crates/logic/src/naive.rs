//! The naive reference cube store: the original two-full-scans absorbed
//! insert, retained verbatim as the ground truth for the indexed store.
//!
//! [`crate::CubeSet`] routes every insert through the occurrence-indexed
//! engine in `cube_index`; this module keeps the O(n²) implementation it
//! replaced so the differential suite (`tests/cubeset_index.rs`) can pin
//! the indexed store's output bit-for-bit. **Nothing on a hot path may use
//! this** — `scripts/verify.sh` greps for the linear-scan idiom outside
//! this file.

use crate::Cube;

/// A cube set with absorbed inserts implemented by two linear scans.
///
/// Semantically identical to [`crate::CubeSet`] (the indexed store is
/// defined as producing exactly this sequence of surviving cubes), but
/// quadratic in the number of stored cubes. For tests only.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NaiveCubeSet {
    cubes: Vec<Cube>,
}

impl NaiveCubeSet {
    /// The empty set.
    pub fn new() -> Self {
        NaiveCubeSet::default()
    }

    /// Number of cubes.
    pub fn len(&self) -> usize {
        self.cubes.len()
    }

    /// `true` if no cube is present.
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// The cubes, in insertion-dependent order.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Inserts a cube with absorption — the original reference semantics:
    /// reject if any stored cube subsumes it, otherwise drop every stored
    /// cube it subsumes (preserving order) and append it. Returns `true`
    /// if the set changed.
    pub fn insert(&mut self, cube: Cube) -> bool {
        if self.cubes.iter().any(|c| c.subsumes(&cube)) {
            return false;
        }
        self.cubes.retain(|c| !cube.subsumes(c));
        self.cubes.push(cube);
        true
    }

    /// Consumes the set, returning the cube vector.
    pub fn into_cubes(self) -> Vec<Cube> {
        self.cubes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Lit, Var};

    fn cube(lits: &[(usize, bool)]) -> Cube {
        Cube::from_lits(lits.iter().map(|&(v, p)| Lit::with_phase(Var::new(v), p))).unwrap()
    }

    #[test]
    fn reference_insert_absorbs_both_ways() {
        let mut s = NaiveCubeSet::new();
        assert!(s.insert(cube(&[(0, true), (1, true)])));
        assert!(s.insert(cube(&[(0, true)])));
        assert_eq!(s.len(), 1);
        assert!(!s.insert(cube(&[(0, true), (1, false)])));
        assert!(s.insert(Cube::top()));
        assert_eq!(s.cubes(), &[Cube::top()]);
        assert!(!s.insert(Cube::top()));
    }
}
