//! Small statistics helpers: medians, quartiles as Python's
//! `statistics.quantiles(values, n=4)` computes them, geomeans, and
//! percentiles of the simulator's power-of-two histograms.

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        let hi = v.swap_remove(n / 2);
        (v[n / 2 - 1] + hi) / 2.0
    })
}

/// First and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, the method the steadiness check
/// uses. `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    Some((q(1), q(3)))
}

/// Interquartile distance as a share of the median: the spread figure
/// the benchmark's bounds are compared against. `None` for fewer than
/// two values or a zero median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Geometric mean of positive ratios; `None` when empty or when any
/// ratio is not positive (a zero-cycle run is a fault, not a data point).
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| v.is_nan() || *v <= 0.0) {
        return None;
    }
    let logs: f64 = values.iter().map(|v| v.ln()).sum();
    Some((logs / values.len() as f64).exp())
}

/// Quantile `q` of a power-of-two histogram given as `(bucket_bound,
/// count)` pairs in ascending order, as `barre_sim::Histogram::buckets`
/// yields them: the bound of the bucket holding the
/// `ceil(q * total)`-th sample.
pub fn pow2_quantile(buckets: &[(u64, u64)], q: f64) -> Option<u64> {
    let total: u64 = buckets.iter().map(|b| b.1).sum();
    if total == 0 {
        return None;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for &(upper, count) in buckets {
        seen += count;
        if seen >= rank {
            return Some(upper);
        }
    }
    buckets.last().map(|b| b.0)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_figures() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let share = iqr_share(&v).unwrap();
        assert!((share - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn geomean_of_known_ratios() {
        assert!((geomean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0]).unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    #[test]
    fn pow2_quantiles_pick_the_bucket_bound() {
        let b = [(2, 10), (4, 80), (8, 9), (1024, 1)];
        assert_eq!(pow2_quantile(&b, 0.5), Some(4));
        assert_eq!(pow2_quantile(&b, 0.99), Some(8));
        assert_eq!(pow2_quantile(&b, 1.0), Some(1024));
        assert_eq!(pow2_quantile(&[], 0.5), None);
    }
}
