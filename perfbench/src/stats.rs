//! Summary statistics over timing samples: medians, nearest-rank tail
//! percentiles (reported only with enough samples beyond them), and the
//! geometric mean used to combine per-subject medians.

/// Minimum number of samples that must lie strictly beyond a percentile
/// before that percentile is reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank `p`-quantile (`0 < p < 1`) of `values`, reported only when
/// at least [`MIN_BEYOND`] samples lie beyond it: with `n` samples the
/// quantile is the `ceil(p * n)`-th smallest and `n - ceil(p * n)` samples
/// rank above it.
pub fn tail(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    let rank = (p * n as f64).ceil() as usize;
    if rank == 0 || n - rank.min(n) < MIN_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Geometric mean of strictly positive `values`; `None` when empty or when
/// any value is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || !values.iter().all(|v| *v > 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 99 samples: ceil(0.9 * 99) = 90, so 9 lie beyond p90 -> withheld.
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&v, 0.9), None);
        // 100 samples: rank 90, exactly 10 beyond -> reported.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v, 0.9), Some(90.0));
        // Order of the input does not matter.
        let mut r = v.clone();
        r.reverse();
        assert_eq!(tail(&r, 0.9), Some(90.0));
        // p99 needs 1000 samples.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99), Some(990.0));
        assert_eq!(tail(&[], 0.5), None);
    }

    #[test]
    fn tail_median_with_many_samples() {
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        // rank ceil(10.5) = 11 -> value 11, 10 beyond.
        assert_eq!(tail(&v, 0.5), Some(11.0));
    }

    #[test]
    fn geomean_values() {
        let g = geomean(&[1.0, 4.0, 16.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12, "{g}");
        let g = geomean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12, "{g}");
        assert!((geomean(&[5.0]).unwrap() - 5.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn mean_values() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }
}
