//! The reference kernel: fixed work, owned by the benchmark, that tells
//! how fast the host is running right now.
//!
//! The host is a shared VM whose speed moves by a third or more in
//! regimes lasting minutes, in CPU time too: other guests compete for the
//! caches and execution units of the same cores. Best-of statistics
//! remove bursts of a few seconds but not a regime that covers a whole
//! run. A batch workload therefore times a few chunks of this kernel next
//! to every set-up and scales its times by [`NOMINAL_MS`] ÷ a best chunk:
//! its times are CPU time *at the reference speed*.
//!
//! The kernel is unit propagation with two watched literals over a fixed
//! random 3-CNF, restarted after every conflict: the watch-list walks and
//! clause reads a CDCL solver spends its time on, without any code of the
//! program, so no change to the program can move it.

use crate::sys;

/// Best chunk time, in CPU milliseconds, of the host the suite was
/// calibrated on; times are scaled to a host on which a chunk takes this.
pub const NOMINAL_MS: f64 = 6.0;

/// Chunks timed next to every set-up of a batch workload.
pub const CHUNKS_PER_ROUND: usize = 5;

/// Variables and clauses of the kernel's formula: below the 3-SAT
/// threshold, so propagation runs long between conflicts, and small
/// enough to stay in the caches like the workloads' formulas.
const VARS: usize = 3000;
const CLAUSES: usize = 9000;

/// Watch visits per chunk, about 6 ms on the calibration host.
const CHUNK_VISITS: u64 = 300_000;

/// A literal: `2 × var + negated`.
type Lit = u32;

/// Xorshift64, so the kernel depends on nothing outside this file.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Unit propagation over a fixed formula.
struct Kernel {
    clauses: Vec<[Lit; 3]>,
    /// Clauses watching each literal; a clause watches its first two.
    watches: Vec<Vec<u32>>,
    /// Per variable: `-1` unassigned, else its value.
    value: Vec<i8>,
    trail: Vec<Lit>,
    rng: u64,
}

impl Kernel {
    fn new() -> Self {
        let mut rng = 0x9E37_79B9_7F4A_7C15;
        let mut clauses = Vec::with_capacity(CLAUSES);
        while clauses.len() < CLAUSES {
            let lit = |r: u64| (2 * (r % VARS as u64) + (r >> 63)) as Lit;
            let c = [
                lit(next(&mut rng)),
                lit(next(&mut rng)),
                lit(next(&mut rng)),
            ];
            if c[0] / 2 != c[1] / 2 && c[0] / 2 != c[2] / 2 && c[1] / 2 != c[2] / 2 {
                clauses.push(c);
            }
        }
        let mut watches = vec![Vec::new(); 2 * VARS];
        for (i, c) in clauses.iter().enumerate() {
            watches[c[0] as usize].push(i as u32);
            watches[c[1] as usize].push(i as u32);
        }
        Kernel {
            clauses,
            watches,
            value: vec![-1; VARS],
            trail: Vec::new(),
            rng,
        }
    }

    /// `1` if `l` is true, `0` if false, `-1` if unassigned.
    fn lit_value(&self, l: Lit) -> i8 {
        match self.value[(l / 2) as usize] {
            -1 => -1,
            v => v ^ (l & 1) as i8,
        }
    }

    fn assign(&mut self, l: Lit) {
        self.value[(l / 2) as usize] = 1 ^ (l & 1) as i8;
        self.trail.push(l);
    }

    fn undo_all(&mut self) {
        for &l in &self.trail {
            self.value[(l / 2) as usize] = -1;
        }
        self.trail.clear();
    }

    /// Decides a random unassigned variable; `false` when none is left.
    fn decide(&mut self) -> bool {
        let start = next(&mut self.rng);
        let Some(v) = (0..VARS)
            .map(|k| (start as usize + k) % VARS)
            .find(|&v| self.value[v] < 0)
        else {
            return false;
        };
        self.assign(2 * v as Lit + (start >> 63) as Lit);
        true
    }

    /// Propagates the falsified literal `f`; `false` on a conflict.
    fn propagate(&mut self, f: Lit, visits: &mut u64) -> bool {
        let mut ws = std::mem::take(&mut self.watches[f as usize]);
        let mut i = 0;
        let mut ok = true;
        while i < ws.len() {
            *visits += 1;
            let ci = ws[i] as usize;
            let mut c = self.clauses[ci];
            if c[0] == f {
                c.swap(0, 1);
            }
            if self.lit_value(c[2]) != 0 && self.lit_value(c[0]) != 1 {
                // Move the watch from `f` to the third literal.
                c.swap(1, 2);
                self.clauses[ci] = c;
                self.watches[c[1] as usize].push(ci as u32);
                ws.swap_remove(i);
                continue;
            }
            self.clauses[ci] = c;
            match self.lit_value(c[0]) {
                -1 => self.assign(c[0]),
                0 => {
                    ok = false;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        self.watches[f as usize] = ws;
        ok
    }

    /// Decides and propagates, restarting after every conflict and every
    /// full assignment, until `visits` watch visits are made.
    fn run(&mut self, visits: u64) {
        let (mut done, mut head) = (0, 0);
        while done < visits {
            if head == self.trail.len() {
                if !self.decide() {
                    self.undo_all();
                    head = 0;
                }
                continue;
            }
            let falsified = self.trail[head] ^ 1;
            head += 1;
            if !self.propagate(falsified, &mut done) {
                self.undo_all();
                head = 0;
            }
        }
        self.undo_all();
    }
}

/// The kernel with the best chunk time seen so far.
pub struct Reference {
    kernel: Kernel,
    best_ms: f64,
}

impl Reference {
    /// Builds the kernel's formula; nothing is timed yet.
    pub fn new() -> Self {
        Reference {
            kernel: Kernel::new(),
            best_ms: f64::INFINITY,
        }
    }

    /// Times `chunks` chunks of the kernel in CPU time and returns the best
    /// of them, in milliseconds.
    pub fn sample(&mut self, chunks: usize) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..chunks {
            let start = sys::cpu_ms();
            self.kernel.run(CHUNK_VISITS);
            best = best.min(sys::cpu_ms_since(start));
        }
        self.best_ms = self.best_ms.min(best);
        best
    }

    /// The best chunk time so far in CPU milliseconds; infinite before the
    /// first sample.
    pub fn best_ms(&self) -> f64 {
        self.best_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_propagates_and_keeps_its_watches() {
        let mut k = Kernel::new();
        k.run(50_000);
        assert!(k.trail.is_empty() && k.value.iter().all(|&v| v < 0));
        // Every clause is still watched by its first two literals.
        let watched: usize = k.watches.iter().map(Vec::len).sum();
        assert_eq!(watched, 2 * CLAUSES);
        for (i, c) in k.clauses.iter().enumerate() {
            for l in &c[..2] {
                assert!(k.watches[*l as usize].contains(&(i as u32)));
            }
        }
    }

    #[test]
    fn the_best_chunk_is_kept_across_samples() {
        let mut r = Reference::new();
        assert_eq!(r.best_ms(), f64::INFINITY);
        let first = r.sample(2);
        let second = r.sample(1);
        assert!(first > 0.0 && second > 0.0);
        assert_eq!(r.best_ms(), first.min(second));
    }
}
