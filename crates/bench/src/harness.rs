//! A minimal in-tree wall-clock benchmark harness.
//!
//! The workspace builds hermetically offline, so the benches cannot pull
//! Criterion; this module provides the small subset actually used: run a
//! closure `N` times after a warm-up, report the median (with min/max
//! spread) per labelled case. Benches are plain `fn main()` binaries
//! (`harness = false` in `Cargo.toml`) and run under
//! `cargo bench -p presat-bench`.
//!
//! Sample counts can be overridden without recompiling via the
//! `PRESAT_BENCH_SAMPLES` environment variable.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timing summary of one benchmark case.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Fastest sample.
    pub min: Duration,
    /// Median sample (the headline number).
    pub median: Duration,
    /// Slowest sample.
    pub max: Duration,
    /// Number of timed samples.
    pub samples: usize,
}

/// Runs `f` once untimed (warm-up), then `samples` timed iterations, and
/// returns the min/median/max spread. The closure's result is passed
/// through [`black_box`] so the work cannot be optimized away.
pub fn measure<T>(samples: usize, mut f: impl FnMut() -> T) -> Measurement {
    let samples = samples.max(1);
    black_box(f());
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        black_box(f());
        times.push(t0.elapsed());
    }
    times.sort_unstable();
    Measurement {
        min: times[0],
        median: times[times.len() / 2],
        max: times[times.len() - 1],
        samples,
    }
}

/// One benchmark group: prints a header on creation and one aligned row
/// per [`Bench::case`] call.
pub struct Bench {
    group: String,
    samples: usize,
}

impl Bench {
    /// Creates a group with the default sample count (10, overridable via
    /// the `PRESAT_BENCH_SAMPLES` environment variable).
    pub fn new(group: &str) -> Self {
        let samples = std::env::var("PRESAT_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(10);
        println!("\n# {group} ({samples} samples per case)");
        Bench {
            group: group.to_string(),
            samples,
        }
    }

    /// Overrides the sample count for this group.
    pub fn samples(mut self, n: usize) -> Self {
        self.samples = n.max(1);
        self
    }

    /// Times one case and prints its row immediately.
    pub fn case<T>(&self, label: &str, f: impl FnMut() -> T) -> Measurement {
        let m = measure(self.samples, f);
        println!(
            "{:<40} median {:>10}  (min {}, max {})",
            format!("{}/{}", self.group, label),
            fmt_duration(m.median),
            fmt_duration(m.min),
            fmt_duration(m.max),
        );
        m
    }
}

/// Formats a duration with an adaptive unit, e.g. `3.21ms` or `870ns`.
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_orders_the_spread() {
        let mut x = 0u64;
        let m = measure(5, || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            x
        });
        assert_eq!(m.samples, 5);
        assert!(m.min <= m.median && m.median <= m.max);
    }

    #[test]
    fn durations_format_in_adaptive_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(870)), "870ns");
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12.00µs");
        assert_eq!(fmt_duration(Duration::from_millis(3)), "3.00ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
    }
}
