//! Order statistics over measured samples.

/// Nearest-rank percentile `q ∈ [0, 1]` of an ascending slice (`0.0` for an
/// empty one).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (`0.0` for none).
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 0.5)
}

/// An ascending copy.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The percentiles a tail report may use, lowest first.
const TAIL_LADDER: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// Samples a tail percentile must have beyond it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`TAIL_MIN_BEYOND`] samples strictly beyond its nearest rank, as
/// `(percentile in %, value)`; `None` when even the median has too few.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&q| n - ((q * n as f64).ceil() as usize).min(n) >= TAIL_MIN_BEYOND)
        .map(|&q| (q * 100.0, percentile(sorted, q)))
}

/// `num / den`, or `0.0` when the denominator is zero (a layer that did no
/// work reports zero).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(10);
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.9), 9.0);
        assert_eq!(percentile(&s, 1.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 19 samples: the median rank is 10, leaving only 9 beyond it.
        assert_eq!(tail(&ramp(19)), None);
        // 20 samples: exactly 10 beyond the median.
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0)));
        // 100 samples: p90 has 10 beyond, p99 only 1.
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        // 1000 samples: p99 has 10 beyond, p99.9 only 1.
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        // 1999 samples: p99 (rank 1980) has 19 beyond, p99.9 (rank 1998) 1.
        let (pct, v) = tail(&ramp(1999)).expect("enough samples");
        assert_eq!((pct, v), (99.0, 1980.0));
    }

    #[test]
    fn ratio_of_zero_work_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
