//! Order statistics over timing samples.

/// Median of `samples` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let sorted = sorted(samples);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The tail of a latency sample: the highest percentile that still has at
/// least `beyond` samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile, in `[0, 100]`.
    pub percentile: f64,
    /// Number of samples taken.
    pub samples: usize,
    /// Number of samples above `value`'s rank.
    pub beyond: usize,
}

/// The `(beyond + 1)`-th largest sample, i.e. the highest percentile with
/// `beyond` samples beyond it. With `beyond` or fewer samples the maximum
/// is returned (percentile 100) and the caller should say so.
pub fn tail(samples: &[f64], beyond: usize) -> Tail {
    assert!(!samples.is_empty(), "tail of no samples");
    let sorted = sorted(samples);
    let n = sorted.len();
    let rank = if n > beyond { n - beyond - 1 } else { n - 1 };
    Tail {
        value: sorted[rank],
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        samples: n,
        beyond: n - rank - 1,
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&samples, 10);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(samples.iter().filter(|&&x| x > t.value).count(), 10);
        // Too few samples: the maximum.
        assert_eq!(tail(&[1.0, 2.0], 10).value, 2.0);
    }
}
