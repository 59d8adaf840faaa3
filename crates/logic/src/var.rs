use std::fmt;

/// A Boolean variable, identified by a dense zero-based index.
///
/// Variables are plain indices; every container in the workspace (solvers,
/// BDD managers, netlists) allocates its own contiguous variable space and
/// uses `Var` to index into per-variable arrays.
///
/// # Examples
///
/// ```
/// use presat_logic::Var;
/// let v = Var::new(3);
/// assert_eq!(v.index(), 3);
/// assert_eq!(v.to_string(), "x3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Var(u32);

impl Var {
    /// The largest variable index. A [`Lit`](crate::Lit) packs its
    /// variable and its sign into one `u32`, so an index takes 31 bits.
    pub const MAX_INDEX: usize = (u32::MAX >> 1) as usize;

    /// Creates the variable with the given index.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds [`Var::MAX_INDEX`]: its literals could
    /// not be encoded.
    #[inline]
    pub fn new(index: usize) -> Self {
        assert!(
            index <= Self::MAX_INDEX,
            "variable index {index} exceeds the literal range"
        );
        Var(index as u32)
    }

    /// Returns the zero-based index of this variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the variables `x0, x1, …, x(n-1)` as an iterator.
    ///
    /// ```
    /// use presat_logic::Var;
    /// let vars: Vec<Var> = Var::range(3).collect();
    /// assert_eq!(vars, vec![Var::new(0), Var::new(1), Var::new(2)]);
    /// ```
    pub fn range(n: usize) -> impl DoubleEndedIterator<Item = Var> + ExactSizeIterator {
        (0..n).map(Var::new)
    }
}

impl From<u32> for Var {
    #[inline]
    fn from(index: u32) -> Self {
        Var(index)
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Var({})", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trip() {
        for i in [0usize, 1, 17, 1 << 20] {
            assert_eq!(Var::new(i).index(), i);
        }
    }

    #[test]
    fn ordering_follows_index() {
        assert!(Var::new(0) < Var::new(1));
        assert!(Var::new(41) < Var::new(42));
    }

    #[test]
    fn range_yields_dense_prefix() {
        let vs: Vec<_> = Var::range(4).collect();
        assert_eq!(vs.len(), 4);
        for (i, v) in vs.iter().enumerate() {
            assert_eq!(v.index(), i);
        }
    }

    #[test]
    fn display_is_x_prefixed() {
        assert_eq!(Var::new(7).to_string(), "x7");
    }

    #[test]
    #[should_panic(expected = "exceeds the literal range")]
    fn new_panics_beyond_the_literal_range() {
        let _ = Var::new(Var::MAX_INDEX + 1);
    }
}
