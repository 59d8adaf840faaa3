//! Order statistics over timing samples.

/// Percentiles the tail helper may report, highest first, in permille so
/// ranks are computed without rounding error.
const TAIL_LADDER: [usize; 7] = [999, 990, 980, 950, 900, 750, 500];

/// Samples a reported tail percentile must have beyond it.
const MIN_BEYOND: usize = 10;

/// `num / den`, or `0` when `den` is `0`.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The median (mean of the two middle samples for an even count); `0.0`
/// for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A tail percentile together with how it was chosen.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported (e.g. `99.0`).
    pub pct: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// samples beyond it, by nearest rank. With fewer than twenty samples no
/// percentile qualifies and the median rank is reported.
pub fn tail(samples: &[f64]) -> Tail {
    let n = samples.len();
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest rank, 1-based: the smallest rank covering `permille` of n.
    let rank = |permille: usize| (permille * n).div_ceil(1000).clamp(1, n.max(1));
    let permille = TAIL_LADDER
        .into_iter()
        .find(|&p| n - rank(p).min(n) >= MIN_BEYOND)
        .unwrap_or(500);
    Tail {
        pct: permille as f64 / 10.0,
        value: v.get(rank(permille) - 1).copied().unwrap_or(0.0),
        samples: n,
    }
}

/// Each operation's best time over the rounds: entry `i` is the smallest
/// `rounds[r][i]`. Every round of a batch workload runs the same
/// operations in the same order. A busy host only ever adds time, and on
/// a shared 2-CPU host it does so in bursts of 1 to 10 s that slow
/// everything by a third or more; the best of a run's rounds estimates
/// what an operation costs between bursts.
pub fn best_of_rounds(rounds: &[Vec<f64>]) -> Vec<f64> {
    let n = rounds.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .map(|i| rounds.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 is rank 990, ten samples beyond it.
        let t = tail(&ramp(1000));
        assert_eq!((t.pct, t.value, t.samples), (99.0, 990.0, 1000));
        // 999 samples: p99 has only nine beyond, p98 has nineteen.
        let t = tail(&ramp(999));
        assert_eq!((t.pct, t.value), (98.0, 980.0));
        // 10 000 samples reach p99.9.
        assert_eq!(tail(&ramp(10_000)).pct, 99.9);
        // 40 samples: p75 is rank 30, exactly ten beyond.
        let t = tail(&ramp(40));
        assert_eq!((t.pct, t.value), (75.0, 30.0));
    }

    #[test]
    fn tail_falls_back_to_the_median_rank_on_few_samples() {
        let t = tail(&ramp(12));
        assert_eq!((t.pct, t.value, t.samples), (50.0, 6.0, 12));
        assert_eq!(tail(&[]).value, 0.0);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v = ramp(200);
        v.reverse();
        assert_eq!(tail(&v), tail(&ramp(200)));
    }

    #[test]
    fn best_of_rounds_takes_each_operations_minimum() {
        let rounds = vec![
            vec![3.0, 1.0, 9.0],
            vec![2.0, 5.0, 7.0, 4.0],
            vec![6.0, 1.5, 8.0],
        ];
        assert_eq!(best_of_rounds(&rounds), vec![2.0, 1.0, 7.0]);
        assert!(best_of_rounds(&[]).is_empty());
    }
}
