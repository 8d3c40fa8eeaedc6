//! Order statistics: nearest-rank percentiles under the "ten samples beyond"
//! rule, and the quartiles the regression verdicts are built on.

/// A percentile is only as good as the samples past it: fewer than this many
/// beyond the rank and the value is one outlier's, not the distribution's.
pub const MIN_BEYOND: usize = 10;

/// Sorts in place. Every metric here is finite, so the total order is safe.
pub fn sort(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.total_cmp(b));
}

/// 1-based nearest-rank index of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank quantile of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// The highest rank not above `q`'s that still has [`MIN_BEYOND`] of the `n`
/// samples beyond it, and never below the median's: what a metric named
/// after `q` actually reads when the sample is too small for `q`.
fn supported_rank(n: usize, q: f64) -> usize {
    let wanted = rank(n, q);
    if n - wanted >= MIN_BEYOND {
        return wanted;
    }
    n.saturating_sub(MIN_BEYOND).max(rank(n, 0.5)).min(wanted)
}

/// The value a tail metric named after `q` reports: the quantile itself, or
/// the highest one below it that the sample supports.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tail(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[supported_rank(sorted.len(), q) - 1]
}

/// `(q1, q2, q3)` exactly as Python's `statistics.quantiles(xs, n=4)` (the
/// exclusive method) gives them, which is what the driver's spread check
/// computes. A single value is its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let mut v = xs.to_vec();
    sort(&mut v);
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median (0 for a zero median).
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(xs);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 5.0);
        assert_eq!(nearest_rank(&v, 0.95), 10.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
        assert_eq!(nearest_rank(&v, 1.0), 10.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p95 of 200 has exactly 10 beyond; of 199 only 9.
        assert_eq!(supported_rank(200, 0.95), 190);
        assert_eq!(supported_rank(199, 0.95), 189);
        // p99 needs 1000.
        assert_eq!(supported_rank(1000, 0.99), 990);
        assert_eq!(supported_rank(999, 0.99), 989);
        // Too few for any tail: fall back to the median, never lower.
        assert_eq!(supported_rank(12, 0.95), 6);
        assert_eq!(supported_rank(1, 0.99), 1);
        // The clipped rank really has ten beyond it.
        assert_eq!(57 - supported_rank(57, 0.99), MIN_BEYOND);
    }

    #[test]
    fn tail_reads_the_highest_percentile_the_sample_supports() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v, 0.95), 30.0);
        let v: Vec<f64> = (1..=400).map(f64::from).collect();
        assert_eq!(tail(&v, 0.95), 380.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
