//! Order statistics over per-op latencies.

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The tail of a latency sample: the highest percentile with at least ten
/// samples beyond it, i.e. the eleventh-largest value. Returns
/// `(value, percentile)`; with ten samples or fewer it is the maximum at
/// percentile 100.
pub fn tail(values: &[f64]) -> (f64, f64) {
    const BEYOND: usize = 10;
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return (0.0, 100.0);
    }
    if n <= BEYOND {
        return (sorted[n - 1], 100.0);
    }
    (sorted[n - 1 - BEYOND], 100.0 * (n - BEYOND) as f64 / n as f64)
}

/// Arithmetic mean (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct) = tail(&values);
        assert_eq!(value, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(tail(&[5.0, 7.0]), (7.0, 100.0));
    }
}
