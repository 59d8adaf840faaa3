//! Activity-ordered indexed binary max-heap over variables (the VSIDS
//! decision order).

use presat_logic::Var;

/// A binary max-heap of variables keyed by an external activity array, with
/// an index map for `decrease`/`increase`-key and membership tests in O(1).
#[derive(Clone, Debug, Default)]
pub struct VarHeap {
    /// Heap array of variable indices.
    heap: Vec<u32>,
    /// `positions[v]` = index of `v` in `heap`, or `NOT_IN` if absent.
    positions: Vec<u32>,
}

const NOT_IN: u32 = u32::MAX;

impl VarHeap {
    /// Creates an empty heap able to hold variables `0..num_vars`.
    pub fn new(num_vars: usize) -> Self {
        VarHeap {
            heap: Vec::with_capacity(num_vars),
            positions: vec![NOT_IN; num_vars],
        }
    }

    /// Grows the variable space to `num_vars`.
    pub fn grow(&mut self, num_vars: usize) {
        if num_vars > self.positions.len() {
            self.positions.resize(num_vars, NOT_IN);
        }
    }

    /// `true` if no variables are queued.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of queued variables.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if `var` is currently in the heap.
    pub fn contains(&self, var: Var) -> bool {
        self.positions[var.index()] != NOT_IN
    }

    /// Inserts `var` (no-op if already present).
    pub fn insert(&mut self, var: Var, activity: &[f64]) {
        if self.contains(var) {
            return;
        }
        let i = self.heap.len();
        self.heap.push(var.index() as u32);
        self.positions[var.index()] = i as u32;
        self.sift_up(i, activity);
    }

    /// Removes and returns the variable with the highest activity.
    pub fn pop(&mut self, activity: &[f64]) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0] as usize;
        let last = self.heap.pop().expect("non-empty");
        self.positions[top] = NOT_IN;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.positions[last as usize] = 0;
            self.sift_down(0, activity);
        }
        Some(Var::new(top))
    }

    /// Restores the heap property around `var` after its activity increased.
    pub fn update(&mut self, var: Var, activity: &[f64]) {
        let pos = self.positions[var.index()];
        if pos != NOT_IN {
            self.sift_up(pos as usize, activity);
        }
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if activity[self.heap[i] as usize] > activity[self.heap[parent] as usize] {
                self.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len()
                && activity[self.heap[l] as usize] > activity[self.heap[best] as usize]
            {
                best = l;
            }
            if r < self.heap.len()
                && activity[self.heap[r] as usize] > activity[self.heap[best] as usize]
            {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.positions[self.heap[i] as usize] = i as u32;
        self.positions[self.heap[j] as usize] = j as u32;
    }

    #[cfg(test)]
    fn check_invariants(&self, activity: &[f64]) {
        for i in 1..self.heap.len() {
            let parent = (i - 1) / 2;
            assert!(
                activity[self.heap[parent] as usize] >= activity[self.heap[i] as usize],
                "heap property violated at {i}"
            );
        }
        for (i, &v) in self.heap.iter().enumerate() {
            assert_eq!(self.positions[v as usize], i as u32, "position map stale");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pop_order_follows_activity() {
        let activity = vec![1.0, 5.0, 3.0, 4.0, 2.0];
        let mut h = VarHeap::new(5);
        for i in 0..5 {
            h.insert(Var::new(i), &activity);
            h.check_invariants(&activity);
        }
        let order: Vec<usize> = std::iter::from_fn(|| h.pop(&activity).map(Var::index)).collect();
        assert_eq!(order, vec![1, 3, 2, 4, 0]);
    }

    #[test]
    fn insert_is_idempotent() {
        let activity = vec![1.0, 2.0];
        let mut h = VarHeap::new(2);
        h.insert(Var::new(0), &activity);
        h.insert(Var::new(0), &activity);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn update_after_bump_moves_var_up() {
        let mut activity = vec![1.0, 2.0, 3.0];
        let mut h = VarHeap::new(3);
        for i in 0..3 {
            h.insert(Var::new(i), &activity);
        }
        activity[0] = 10.0;
        h.update(Var::new(0), &activity);
        h.check_invariants(&activity);
        assert_eq!(h.pop(&activity), Some(Var::new(0)));
    }

    #[test]
    fn contains_and_membership_tracking() {
        let activity = vec![1.0; 3];
        let mut h = VarHeap::new(3);
        h.insert(Var::new(1), &activity);
        assert!(h.contains(Var::new(1)));
        assert!(!h.contains(Var::new(0)));
        let popped = h.pop(&activity).unwrap();
        assert!(!h.contains(popped));
        assert!(h.is_empty());
    }

    #[test]
    fn grow_extends_capacity() {
        let activity = vec![1.0; 10];
        let mut h = VarHeap::new(2);
        h.grow(10);
        h.insert(Var::new(9), &activity);
        assert!(h.contains(Var::new(9)));
    }

    #[test]
    fn randomized_against_sort() {
        // deterministic LCG to avoid a rand dev-dependency in this module
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        for _ in 0..20 {
            let n = 64;
            let activity: Vec<f64> = (0..n).map(|_| next()).collect();
            let mut h = VarHeap::new(n);
            for i in 0..n {
                h.insert(Var::new(i), &activity);
            }
            h.check_invariants(&activity);
            let mut popped: Vec<f64> =
                std::iter::from_fn(|| h.pop(&activity).map(|v| activity[v.index()])).collect();
            let mut sorted = popped.clone();
            sorted.sort_by(|a, b| b.total_cmp(a));
            popped.truncate(sorted.len());
            assert_eq!(popped, sorted);
        }
    }
}
