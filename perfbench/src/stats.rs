//! Order statistics for latency samples.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the tail is chosen from, highest first, in tenths of a
/// percent (integer rank arithmetic avoids rounding at the boundaries).
const LADDER_PERMILLE: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// A tail percentile with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub percentile: f64,
    /// Its nearest-rank value.
    pub value: f64,
    /// Samples strictly beyond it in rank order.
    pub beyond: usize,
    /// Samples in total.
    pub samples: usize,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle two for an even count); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest rank (1-based) of the `permille` percentile among `n` samples:
/// the smallest rank covering that share of them.
fn rank(permille: usize, n: usize) -> usize {
    (permille * n).div_ceil(1000).max(1)
}

/// The highest ladder percentile, in tenths of a percent, that leaves at
/// least [`MIN_BEYOND`] of `n` samples beyond its nearest rank; `None`
/// below 20 samples.
pub fn tail_permille(n: usize) -> Option<usize> {
    LADDER_PERMILLE
        .iter()
        .copied()
        .find(|&p| n.saturating_sub(rank(p, n)) >= MIN_BEYOND)
}

/// The `permille` percentile of `samples` (nearest rank) with the count of
/// samples beyond it; `None` when empty.
pub fn percentile(samples: &[f64], permille: usize) -> Option<Tail> {
    let v = sorted(samples);
    let n = v.len();
    let r = rank(permille, n);
    (n > 0).then(|| Tail {
        percentile: permille as f64 / 10.0,
        value: v[r - 1],
        beyond: n - r,
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The highest ladder percentile with ten samples beyond it.
    fn tail(samples: &[f64]) -> Option<Tail> {
        percentile(samples, tail_permille(samples.len())?)
    }

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled-looking order: the helpers must sort.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        // 1500 samples: p99.9 leaves 1 beyond, p99 leaves 15.
        let t = tail(&ramp(1500)).unwrap();
        assert_eq!((t.percentile, t.beyond, t.samples), (99.0, 15, 1500));
        assert_eq!(t.value, 1485.0);

        // Exactly 1000: p99 leaves 10 beyond, still enough.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.percentile, t.beyond), (99.0, 10));

        // 999: p99 leaves 9, so the tail falls back to p95 (49 beyond).
        let t = tail(&ramp(999)).unwrap();
        assert_eq!((t.percentile, t.beyond), (95.0, 49));
        assert_eq!(t.value, 950.0);

        // 48 samples (six titles × eight passes): p75 with 12 beyond.
        let t = tail(&ramp(48)).unwrap();
        assert_eq!((t.percentile, t.beyond, t.value), (75.0, 12, 36.0));
    }

    #[test]
    fn tail_needs_twenty_samples() {
        assert_eq!(tail(&ramp(19)), None);
        let t = tail(&ramp(20)).unwrap();
        assert_eq!((t.percentile, t.beyond, t.value), (50.0, 10, 10.0));
        assert_eq!(tail(&[]), None);
    }
}
