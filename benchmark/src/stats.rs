//! Sample statistics: medians, nearest-rank percentiles with the "ten samples
//! beyond" support rule, and the quartile spread the A/A procedure compares.

/// The median of `values` (mean of the two middle values for an even count).
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The arithmetic mean of the finite values (`NaN` when there are none).
pub fn mean(values: &[f64]) -> f64 {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    finite.iter().sum::<f64>() / finite.len() as f64
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent of the
/// samples at or below it. `NaN` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether percentile `p` of `n` samples has at least ten samples beyond it — the
/// rule that decides which tail percentile a sample set may report (p90 needs 100
/// samples, p99 needs 1000).
pub fn percentile_supported(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9
}

/// Quartiles `(q1, q2, q3)` exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) gives them. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// The distance between the first and third quartile as a share of the median —
/// the run-to-run spread the acceptance procedure bounds.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let (q1, _, q3) = quartiles(values)?;
    let mid = median(values);
    (mid != 0.0).then(|| (q3 - q1).abs() / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_selects_the_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn mean_skips_what_is_not_a_number() {
        assert_eq!(mean(&[1.0, 2.0, f64::NAN, 6.0]), 3.0);
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 90.0), 90.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        assert_eq!(percentile(&[7.0, 9.0], 90.0), 9.0);
        assert_eq!(percentile(&[7.0, 9.0], 1.0), 7.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert!(percentile_supported(100, 90.0));
        assert!(!percentile_supported(99, 90.0));
        assert!(percentile_supported(120, 90.0));
        assert!(!percentile_supported(120, 99.0));
        assert!(percentile_supported(1000, 99.0));
        assert!(percentile_supported(20, 50.0));
        assert!(!percentile_supported(19, 50.0));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(
            quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]),
            Some((15.0, 40.0, 120.0))
        );
        assert_eq!(quartile_spread(&ten), Some(5.5 / 5.5));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
